//! Liveness of the garbage collector.
//!
//! The collector sweeps no chain it was not told about: committers (and
//! log replay) hand it the chains they stacked a version on, and each
//! tick it visits the ones whose stamp the horizon has passed. Safety is
//! the old argument unchanged; what can go wrong is *liveness* — a site
//! that forgets to tell, an entry dropped while the horizon was pinned.
//! The oracle is the paper's own collector: once the backlog has drained
//! on a quiet database, `Database::gc_audit` — a full sweep of every
//! indirection array at the same horizon — must reclaim nothing.

use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use ermia::{Database, DbConfig, DeferredCommit, IsolationLevel, ShardedDb, StagedCommit, TableId};
use ermia_common::rng::SplitMix64;
use ermia_common::TestDir;

const SI: IsolationLevel = IsolationLevel::Snapshot;
const TABLES: [&str; 2] = ["a", "b"];
const KEYS: u32 = 48;
const ROUNDS: u32 = 1500;

fn config(dir: Option<&Path>) -> DbConfig {
    dir.map_or_else(DbConfig::in_memory, DbConfig::durable)
}

fn key(i: u32) -> Vec<u8> {
    format!("k{i:03}").into_bytes()
}

/// Block until the collector has finished `n` more passes.
fn wait_passes(db: &Database, n: u64) {
    let target = db.gc_stats().passes.load(Relaxed) + n;
    let deadline = Instant::now() + Duration::from_secs(30);
    while db.gc_stats().passes.load(Relaxed) < target {
        assert!(Instant::now() < deadline, "the collector stopped ticking");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Wait for the collector to have visited everything it was handed, then
/// demand that the full sweep finds nothing it missed.
fn audit(db: &ShardedDb, what: &str) {
    for s in 0..db.shards() {
        let shard = db.shard(s);
        let deadline = Instant::now() + Duration::from_secs(30);
        while shard.gc_stats().retire_backlog.load(Relaxed) != 0 {
            assert!(
                Instant::now() < deadline,
                "{what}, shard {s}: the retire backlog never drained: {:?}",
                shard.gc_stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            shard.gc_audit(),
            0,
            "{what}, shard {s}: the collector left reclaimable versions behind"
        );
    }
}

fn reclaimed(db: &ShardedDb) -> u64 {
    (0..db.shards()).map(|s| db.shard(s).gc_stats().reclaimed.load(Relaxed)).sum()
}

/// A seeded storm of every way a chain grows or shrinks: updates, deletes,
/// inserts that revive tombstones, aborts, repeated writes to a
/// transaction's own head, forks pinning the horizon for a while, and —
/// on two shards — cross-shard commits parked as staged prepares and
/// given their verdict late, by another worker on another thread.
fn storm(db: &ShardedDb, seed: u64) {
    let tables: Vec<TableId> = TABLES.iter().map(|n| db.create_table(n)).collect();
    let mut rng = SplitMix64::new(seed);
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    for &t in &tables {
        for i in 0..KEYS {
            tx.insert(t, &key(i), b"loaded").unwrap();
        }
    }
    tx.commit().unwrap();

    // Pinned from before the first overwrite until after the last one.
    let late_pin = db.shard(0).fork();
    let (park, parked) = std::sync::mpsc::channel::<Box<StagedCommit>>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut resolver = db.register_worker();
            for (n, staged) in parked.into_iter().enumerate() {
                if n % 3 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                let _ = staged.wait(&mut resolver);
            }
        });
        let mut forks: Vec<(u32, Database)> = Vec::new();
        for round in 0..ROUNDS {
            forks.retain(|(until, _)| *until > round);
            let t = tables[rng.below(tables.len() as u64) as usize];
            let k = key(rng.below(KEYS.into()) as u32);
            let value = vec![round as u8; 8 + rng.below(56) as usize];
            let mut tx = w.begin(SI);
            // A failed operation (a conflict with a parked prepare, a
            // duplicate key) dooms the transaction; dropping it aborts.
            let ok = match rng.below(100) {
                0..=39 => (0..1 + rng.below(3)).all(|_| {
                    let t = tables[rng.below(tables.len() as u64) as usize];
                    tx.update(t, &key(rng.below(KEYS.into()) as u32), &value).is_ok()
                }),
                40..=51 => tx.delete(t, &k).is_ok(),
                52..=63 => tx.insert(t, &k, &value).is_ok(),
                64..=71 => {
                    let _ = tx.update(t, &k, &value);
                    false
                }
                72..=81 => (0..3).all(|_| tx.update(t, &k, &value).is_ok()),
                82..=89 => tx.delete(t, &k).is_ok() && tx.insert(t, &k, &value).is_ok(),
                90..=93 => {
                    let shard = rng.below(db.shards() as u64) as usize;
                    forks.push((round + 1 + rng.below(199) as u32, db.shard(shard).fork()));
                    true
                }
                _ => tx.read(t, &k, |v| v.len()).is_ok(),
            };
            if !ok {
                continue;
            }
            if let Ok(DeferredCommit::Staged(staged)) = tx.commit_deferred() {
                park.send(staged).expect("the resolver outlives the storm");
            }
        }
        drop(park);
    });
    drop(late_pin);
    assert_eq!(db.tid_slots_in_use(), 0, "the storm left a transaction behind");
}

/// The storm, then the same history twice more: rebuilt by recovery —
/// which stacks nothing, so leaves the collector nothing — and (in
/// `crates/repl/tests/gc_liveness.rs`) tailed by a replica.
fn storm_then_recover(shards: usize, seed: u64) {
    let dir = TestDir::new(&format!("storm-{shards}"));
    let cfg = config(Some(&dir));
    {
        let db = ShardedDb::open(cfg.clone(), shards).unwrap();
        storm(&db, seed);
        audit(&db, "after the storm");
        assert!(reclaimed(&db) > 0, "the storm made no garbage");
        for s in 0..shards {
            db.shard(s).log().sync().unwrap();
        }
    }
    let db = ShardedDb::open(cfg, shards).unwrap();
    for name in TABLES {
        db.create_table(name);
    }
    let stats = db.recover().unwrap();
    let in_doubt: u64 = stats.per_shard.iter().map(|s| s.in_doubt).sum();
    audit(&db, "after recovery");
    // Recovery builds the newest image of each row and nothing under it;
    // only an in-doubt prepare, resolved after the build, may stack.
    let garbage = reclaimed(&db);
    assert!(garbage <= in_doubt, "recovery built {garbage} versions only to reclaim them");
    drop(db);
}

#[test]
fn nothing_reclaimable_is_left_behind_on_the_plain_engine() {
    storm_then_recover(1, 0x5eed_0001);
}

#[test]
fn nothing_reclaimable_is_left_behind_on_two_shards() {
    storm_then_recover(2, 0x5eed_0002);
}

/// Collector work follows the updates, not the table: 1 000 updates on a
/// 200 000-row table cost about 1 000 chain visits, and an idle collector
/// visits nothing at all.
#[test]
fn collector_work_is_proportional_to_garbage_not_to_rows() {
    const ROWS: u32 = 200_000;
    const UPDATES: u32 = 1_000;
    let db = Database::open(config(None)).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    for base in (0..ROWS).step_by(1000) {
        let mut tx = w.begin(SI);
        for i in base..base + 1000 {
            tx.insert(t, &i.to_be_bytes(), b"row").unwrap();
        }
        tx.commit().unwrap();
    }
    let stats = db.gc_stats();
    assert_eq!(stats.chains_visited.load(Relaxed), 0, "inserts supersede nothing");
    for i in 0..UPDATES {
        let mut tx = w.begin(SI);
        assert!(tx.update(t, &(i * 199).to_be_bytes(), b"new").unwrap());
        tx.commit().unwrap();
    }
    audit(&ShardedDb::from_shards(vec![db.clone()]), "after the updates");
    assert_eq!(stats.reclaimed.load(Relaxed), UPDATES as u64);
    let visited = stats.chains_visited.load(Relaxed);
    assert!(visited <= UPDATES as u64 + 16, "{visited} chains visited for {UPDATES} updates");
    wait_passes(&db, 20);
    assert_eq!(stats.chains_visited.load(Relaxed), visited, "an idle collector visited chains");
}

/// While something pins the horizon the backlog grows by exactly one entry
/// per superseded version and nothing is visited; on release it drains
/// within a few passes and every chain is back to one version.
#[test]
fn a_pinned_horizon_bounds_the_backlog_and_drains_on_release() {
    const HOT: u32 = 8;
    const UPDATES: u64 = 400;
    // More than the collector visits under one epoch pin (4 096), twice
    // over: the drain on release takes several batches, with an epoch
    // advance between them.
    const MANY: u64 = 10_000;
    // The churn runs on shard 0 of two; the second shard is there for the
    // parked prepare.
    let sharded = ShardedDb::open(config(None), 2).unwrap();
    let t = sharded.create_table("t");
    let db = sharded.shard(0).clone();
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    for i in 0..HOT {
        tx.insert(t, &key(i), b"v0").unwrap();
    }
    tx.commit().unwrap();
    let stats = db.gc_stats();

    // Each pin: how many versions are superseded under it, and the hold.
    let mut pins: Vec<(u64, Box<dyn FnOnce()>)> = Vec::new();
    // A long reader…
    let mut reader_worker = db.register_worker();
    let reader_db = db.clone();
    pins.push((
        UPDATES,
        Box::new(move || {
            let mut reader = reader_worker.begin(SI);
            let read =
                |tx: &mut ermia::Transaction, i| tx.read(t, &key(i), |v| v.to_vec()).unwrap();
            assert_eq!(read(&mut reader, 0).as_deref(), Some(&b"v0"[..]));
            churn_under_pin(&reader_db, t, HOT, UPDATES);
            // Its snapshot is intact under all that churn.
            assert_eq!(read(&mut reader, 1).as_deref(), Some(&b"v0"[..]));
            reader.commit().unwrap();
        }),
    ));
    // …a fork, which pins without any transaction in flight…
    let fork_db = db.clone();
    pins.push((
        MANY,
        Box::new(move || {
            let fork = fork_db.fork();
            churn_under_pin(&fork_db, t, HOT, MANY);
            drop(fork);
        }),
    ));
    // …and a parked prepare: a cross-shard commit waiting for its verdict
    // holds a TID slot, and with it the horizon, on both shards.
    let (parked_db, churn_db) = (sharded.clone(), db.clone());
    pins.push((
        UPDATES + 1,
        Box::new(move || {
            let on = |shard| {
                let mut keys = (0u32..).map(|i| format!("parked-{i}").into_bytes());
                keys.find(|k| ermia::shard_of_key(k, 2) == shard).unwrap()
            };
            let mut w = parked_db.register_worker();
            let mut tx = w.begin(SI);
            for k in [on(0), on(1)] {
                tx.insert(t, &k, b"v0").unwrap();
            }
            tx.commit().unwrap();
            let mut tx = w.begin(SI);
            for k in [on(0), on(1)] {
                assert!(tx.update(t, &k, b"v1").unwrap());
            }
            let Ok(DeferredCommit::Staged(staged)) = tx.commit_deferred() else {
                panic!("two writer shards must stage a 2PC");
            };
            churn_under_pin(&churn_db, t, HOT, UPDATES);
            staged.wait(&mut parked_db.register_worker()).unwrap();
        }),
    ));

    for (superseded, hold) in pins {
        let (visited0, reclaimed0) =
            (stats.chains_visited.load(Relaxed), stats.reclaimed.load(Relaxed));
        hold();
        audit(&sharded, "after the pin was released");
        assert_eq!(stats.chains_visited.load(Relaxed), visited0 + superseded);
        assert_eq!(
            stats.reclaimed.load(Relaxed),
            reclaimed0 + superseded,
            "chains back to length 1"
        );
    }
}

/// `updates` overwrites of `hot` rows while the caller pins the horizon
/// below all of them: every one must sit in the backlog, unvisited.
fn churn_under_pin(db: &Database, t: TableId, hot: u32, updates: u64) {
    let stats = db.gc_stats();
    // Let whatever earlier phases left behind drain first.
    wait_passes(db, 3);
    let visited0 = stats.chains_visited.load(Relaxed);
    assert_eq!(stats.retire_backlog.load(Relaxed), 0);
    let mut w = db.register_worker();
    for i in 0..updates {
        let mut tx = w.begin(SI);
        assert!(tx.update(t, &key(i as u32 % hot), &i.to_le_bytes()).unwrap());
        tx.commit().unwrap();
    }
    wait_passes(db, 5);
    assert_eq!(stats.retire_backlog.load(Relaxed), updates, "one entry per superseded version");
    assert_eq!(stats.chains_visited.load(Relaxed), visited0, "a pinned horizon releases nothing");
}

/// DDL and shutdown do not pay for the collector: nothing restarts it,
/// and dropping the database wakes the epoch ticker it runs on instead
/// of sleeping out a tick.
#[test]
fn ddl_and_drop_do_not_wait_for_the_collector() {
    let t0 = Instant::now();
    let db = Database::open(config(None)).unwrap();
    for i in 0..64 {
        db.create_table(&format!("t{i}"));
    }
    drop(db);
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "64 create_table calls and the drop took {:?}",
        t0.elapsed()
    );
}

/// The entry for a table created after the collector started is visited
/// too (the collector asks for a table's array the first time it is named).
#[test]
fn tables_created_later_are_collected() {
    let db = Database::open(config(None)).unwrap();
    wait_passes(&db, 2);
    let t = db.create_table("late");
    let mut w = db.register_worker();
    for i in 0..10u8 {
        let mut tx = w.begin(SI);
        if !tx.update(t, b"k", &[i]).unwrap() {
            tx.insert(t, b"k", &[i]).unwrap();
        }
        tx.commit().unwrap();
    }
    audit(&ShardedDb::from_shards(vec![db.clone()]), "a table created after open");
    assert_eq!(db.gc_stats().reclaimed.load(Relaxed), 9);
}

/// An idle transaction holds back no epoch. One worker holds a snapshot
/// transaction open after one read while two others run update pairs on
/// sixteen hot keys — one commits, the other loses first-updater-wins —
/// and inserts they roll back. The epoch keeps advancing all the while,
/// and the versions the rollbacks retired through it are freed. (What the
/// open snapshot's horizon keeps of the overwritten versions is the
/// collector's business, and not asserted here.) The idle transaction
/// then still reads its snapshot and commits.
#[test]
fn an_idle_transaction_holds_back_no_epoch() {
    const HOT: u32 = 16;
    const PAIRS: u32 = 20_000;
    const ROLLED_BACK: u32 = 1_000;
    let db = Database::open(config(None)).unwrap();
    let t = db.create_table("t");
    let (mut w0, mut w1, mut w2) =
        (db.register_worker(), db.register_worker(), db.register_worker());
    let mut tx = w1.begin(SI);
    for i in 0..HOT {
        tx.insert(t, &key(i), b"v0").unwrap();
    }
    tx.commit().unwrap();

    let mut idle = w0.begin(SI);
    assert_eq!(idle.read(t, &key(0), |v| v.to_vec()).unwrap().as_deref(), Some(&b"v0"[..]));
    let before = db.epoch_stats();

    for i in 0..PAIRS {
        let k = key(i % HOT);
        let (mut winner, mut loser) = (w1.begin(SI), w2.begin(SI));
        assert!(winner.update(t, &k, &i.to_le_bytes()).unwrap());
        assert_eq!(loser.update(t, &k, b"lost"), Err(ermia::AbortReason::WriteWriteConflict));
        winner.commit().unwrap();
        loser.abort();
        if i % (PAIRS / ROLLED_BACK) == 0 {
            let mut tx = w2.begin(SI);
            tx.insert(t, format!("gone-{i}").as_bytes(), b"x").unwrap();
            tx.abort();
        }
    }
    // The rollbacks retired their versions through the epoch: at least
    // one each, to be freed once every thread has moved past it.
    let deferred = db.epoch_stats().deferred - before.deferred;
    assert!(deferred >= ROLLED_BACK as u64, "{deferred} deferred");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let now = db.epoch_stats();
        if now.advances >= before.advances + 10 && now.freed >= before.freed + deferred {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "an idle transaction held the epoch: {} advances, {} of {deferred} deferred frees \
             since it went idle ({now:?})",
            now.advances - before.advances,
            now.freed - before.freed,
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    assert_eq!(idle.read(t, &key(1), |v| v.to_vec()).unwrap().as_deref(), Some(&b"v0"[..]));
    assert_eq!(idle.read(t, &key(0), |v| v.to_vec()).unwrap().as_deref(), Some(&b"v0"[..]));
    idle.commit().unwrap();
    assert_eq!(db.tid_slots_in_use(), 0);
}
