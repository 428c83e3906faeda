//! Offline replay ≡ live replay at the tail.
//!
//! Recovery does not replay history: it picks each OID's newest image,
//! then builds one version per live row (`LogApplier::rebuild`). The live
//! tail of a replica does replay it, stacking every image as the commits
//! did (`LogApplier::apply_available`). Both must end on the same
//! database. Each seed writes one directory — inserts, updates, deletes,
//! delete-then-reinsert inside one transaction (and, hand-written, as two
//! records of one OID in one block), rows that end as tombstones, long
//! values, secondary-index entries, a
//! checkpoint taken over a parked prepare, cross-shard commits
//! whose verdict record lands behind later transactions (on the same rows
//! too), aborted prepares, and one prepare the crash leaves in doubt — and
//! recovers it both ways: offline (three times over), and by feeding a
//! mirror of each shard's log to a stacking applier one block at a time.
//!
//! Mutations that turn this red (tried on `recovery.rs`): `Replay::admit`
//! storing its address word over a slot that already holds a version
//! (recovering again then changes something); `Replay::prepare` admitting
//! a prepare under its verdict block's stamp and address instead of its
//! own.

use std::collections::BTreeMap;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use ermia::{
    Database, DbConfig, DeferredCommit, IndexRouting, IsolationLevel, LogApplier, ShardedDb,
    ShardedWorker, StagedCommit, TableId,
};
use ermia_common::{Lsn, Oid, TestDir};
use ermia_log::LogScanner;

mod history;
use history::{mutate_model, Action, Model, Rng, KEYS};

const SI: IsolationLevel = IsolationLevel::Snapshot;
const SHARDS: usize = 2;
const TABLES: [&str; 2] = ["left", "right"];
const TXNS: u64 = 160;

fn config(dir: &Path) -> DbConfig {
    let mut cfg = DbConfig::durable(dir);
    cfg.log.segment_size = 1 << 20; // one segment, cheap to copy
    cfg
}

/// Everything a recovered shard holds: per index (primary and secondary)
/// a full scan, key → row value.
type Dump = BTreeMap<(u32, Vec<u8>), Vec<u8>>;

fn dump(db: &Database) -> Dump {
    let mut out = Dump::new();
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    let indexes = TABLES.iter().map(|t| db.primary_index(db.table_id(t).unwrap()));
    for index in indexes.chain(db.index_id("by-writer")) {
        tx.scan(index, &[], &[0xFF; 24], None, |k, v| {
            out.insert((index.0, k.to_vec()), v.to_vec());
            true
        })
        .expect("scan");
    }
    tx.commit().expect("read-only");
    out
}

/// Poll until the commit is published (the logs are healthy: it is).
fn publish(staged: &mut StagedCommit, w: &mut ShardedWorker) {
    while staged.poll(w).is_none() {
        std::thread::yield_now();
    }
}

/// Copy a live engine's directory, leaving its pid lock behind.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else if entry.path().extension().is_none_or(|e| e != "lock") {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

/// Write the seed's history into `dir` and return what a crash now leaves
/// of it (a copy taken with the last prepare durable and undecided) with
/// the model of every published transaction.
fn write_history(seed: u64, dir: &Path, crashed: &Path) -> Model {
    let db = ShardedDb::open(config(dir), SHARDS).unwrap();
    let tables: Vec<TableId> = TABLES.iter().map(|t| db.create_table(t)).collect();
    let by_writer = db.create_secondary_index(tables[0], "by-writer", IndexRouting::Probe);
    let mut w = db.register_worker();
    let mut rng = Rng(seed);
    let mut model = Model::new();
    // Published commits whose verdict record is still owed, with the
    // transaction number that pays it.
    let mut owed: Vec<(u64, Box<StagedCommit>)> = Vec::new();
    let (mut checkpointed, mut entries) = (false, 0u32);
    let mut txn = 0;
    while txn < TXNS || model.len() < 8 {
        txn += 1;
        let due = owed.iter().position(|(at, _)| *at <= txn);
        if let Some((_, mut staged)) = due.map(|i| owed.remove(i)) {
            staged.write_verdict(&mut w);
        }
        let mut next = model.clone();
        let mut ops = mutate_model(&mut rng, seed, txn, TABLES.len(), &mut next);
        if rng.below(8) == 0 {
            // One key deleted and re-inserted by one transaction, for sure.
            if let Some((&key, _)) = next.iter().nth(rng.below(next.len() as u64) as usize) {
                let value = format!("s{seed}-t{txn}-again").into_bytes();
                next.insert(key, value.clone());
                ops.push((key, Action::Delete));
                ops.push((key, Action::Insert(value)));
            }
        }
        let mut tx = w.begin(SI);
        for ((table, key), action) in &mut ops {
            let kb = key.to_be_bytes();
            if let Action::Insert(v) | Action::Update(v) = action {
                if rng.below(4) == 0 {
                    // A long value. (The model holds an op's value if it is
                    // the transaction's last word on the key.)
                    let last = next.get_mut(&(*table, *key)).filter(|held| *held == v);
                    v.resize(96, b'+');
                    if let Some(held) = last {
                        held.clone_from(v);
                    }
                }
            }
            match action {
                Action::Insert(v) => {
                    let handle = tx.insert(tables[*table], &kb, v).expect("insert");
                    if *table == 0 {
                        entries += 1;
                        let entry = format!("w{entries:05}-{key:02}");
                        tx.insert_secondary(by_writer, entry.as_bytes(), handle).expect("entry");
                    }
                }
                Action::Update(v) => assert!(tx.update(tables[*table], &kb, v).expect("update")),
                Action::Delete => assert!(tx.delete(tables[*table], &kb).expect("delete")),
            }
        }
        let mut staged = match tx.commit_deferred().expect("single-threaded commits succeed") {
            DeferredCommit::Committed(_) => {
                model = next;
                continue;
            }
            DeferredCommit::Staged(staged) => staged,
        };
        if !checkpointed && txn > TXNS / 2 {
            // A checkpoint over a parked prepare: its cut is at or below
            // this prepare's stamp, so the prepare and what commits between
            // here and the walk are replayed from the log, not written in
            // the payload.
            for filler in 0..4u64 {
                let mut tx = w.begin(SI);
                let (table, key) = (tables[1], (KEYS + filler).to_be_bytes());
                tx.insert(table, &key, format!("filler-{filler}").as_bytes()).expect("filler");
                tx.commit().expect("filler commit");
                for state in [&mut model, &mut next] {
                    state.insert((1, KEYS + filler), format!("filler-{filler}").into_bytes());
                }
            }
            db.checkpoint().expect("checkpoint");
            checkpointed = true;
        }
        match rng.below(8) {
            0 => staged.abort(&mut w),
            roll => {
                publish(&mut staged, &mut w);
                model = next;
                if roll < 4 {
                    staged.write_verdict(&mut w);
                } else {
                    owed.push((txn + 1 + rng.below(4), staged));
                }
            }
        }
    }
    assert!(checkpointed, "seed {seed}: no cross-shard commit in the second half");
    for (_, mut staged) in owed {
        staged.write_verdict(&mut w);
    }
    // A block this engine no longer writes (a transaction logs one record
    // per OID) but the format allows and older logs hold: one OID deleted
    // and re-inserted under one stamp. The later record is the outcome.
    let kb = (KEYS + 100).to_be_bytes();
    let mut buf = ermia_log::TxLogBuffer::new();
    buf.add_delete(tables[1], Oid(1000), &kb);
    buf.add_insert(tables[1], Oid(1000), &kb, b"hand-written");
    let res = db.shard(ermia::shard_of_key(&kb, SHARDS)).log().allocate(buf.block_len()).unwrap();
    let block = buf.serialize(res.lsn()).to_vec();
    res.fill(&block);
    model.insert((1, KEYS + 100), b"hand-written".to_vec());

    // The last word: a cross-shard commit published and never decided on
    // disk — every prepare durable, no verdict. Recovery finds it in doubt.
    let on = |shard| {
        let home = |k: u64| ermia::shard_of_key(&k.to_be_bytes(), SHARDS);
        model.keys().copied().find(|&(t, k)| t == 0 && home(k) == shard)
    };
    let mut tx = w.begin(SI);
    for (table, key) in [on(0), on(1)].into_iter().flatten() {
        assert!(tx.update(tables[table], &key.to_be_bytes(), b"in doubt, then committed").unwrap());
        model.insert((table, key), b"in doubt, then committed".to_vec());
    }
    let DeferredCommit::Staged(mut last) = tx.commit_deferred().unwrap() else {
        panic!("seed {seed}: the keys of table 0 all hash to one shard");
    };
    publish(&mut last, &mut w);
    for shard in 0..SHARDS {
        db.shard(shard).log().sync().unwrap();
    }
    copy_dir(dir, crashed);
    model
}

/// Offline: open, recover, dump every shard. Recovering again — on the
/// same handle — changes nothing.
fn recover_offline(dir: &Path, expect_in_doubt: u64) -> Vec<Dump> {
    let db = ShardedDb::open(config(dir), SHARDS).unwrap();
    let stats = db.recover().expect("recovery");
    assert_eq!(stats.resolved_commits, expect_in_doubt, "{stats:?}");
    assert_eq!(stats.resolved_aborts, 0, "{stats:?}");
    let dumps: Vec<Dump> = (0..SHARDS).map(|s| dump(db.shard(s))).collect();
    let again = db.recover().expect("second recovery");
    assert!(again.per_shard.iter().all(|s| s.built == 0), "rebuilt a row it had: {again:?}");
    assert_eq!(dumps, (0..SHARDS).map(|s| dump(db.shard(s))).collect::<Vec<_>>());
    dumps
}

/// Live: each shard's log is mirrored into an empty directory one block at
/// a time and a stacking applier follows it, as on a tailing replica; then
/// what one shard's log left pending is resolved from the other's verdicts.
fn replay_live(source: &Path, mirror: &Path) -> Vec<Dump> {
    let from = ShardedDb::open(config(source), SHARDS).unwrap();
    let mut shards = Vec::new();
    for s in 0..SHARDS {
        let segments = from.shard(s).log().segments();
        let all = segments.all();
        let [segment] = &all[..] else { panic!("the history fits one segment") };
        let path = segment.path.as_ref().unwrap();
        let dir: PathBuf = mirror.join(format!("shard-{s}"));
        std::fs::create_dir_all(&dir).unwrap();
        let target = std::fs::File::create(dir.join(path.file_name().unwrap())).unwrap();
        target.set_len(segment.end - segment.start).unwrap();
        let db = Database::open(config(&dir)).unwrap();
        let mut applier = LogApplier::new(0);
        let source = std::fs::File::open(path).unwrap();
        let (mut scanner, mut shipped) = (LogScanner::new(segments, 0), 0u64);
        while scanner.next_view().unwrap().is_some() {
            let mut bytes = vec![0u8; (scanner.offset() - shipped) as usize];
            source.read_exact_at(&mut bytes, shipped).unwrap();
            target.write_all_at(&bytes, shipped).unwrap();
            shipped = scanner.offset();
            applier.apply_available(&db).expect("live apply");
            assert_eq!(applier.applied_offset(), shipped);
        }
        shards.push((db, applier));
    }
    for s in 0..SHARDS {
        for key in shards[s].1.pending_keys() {
            let verdict = shards.iter().find_map(|(_, applier)| applier.decides().get(key));
            let (db, applier) = &mut shards[s];
            assert!(applier
                .resolve(db, key, verdict.expect("recovery logged its verdict"))
                .unwrap());
        }
    }
    let dumps = shards.iter().map(|(db, applier)| {
        let view = db.replica_view();
        view.advance_view(Lsn::from_parts(applier.applied_offset(), 0));
        dump(&view)
    });
    dumps.collect()
}

#[test]
fn offline_recovery_builds_what_live_replay_stacks() {
    let seeds = std::env::var("TORTURE_SEED").ok().map(|s| vec![s.parse().expect("a number")]);
    for seed in seeds.unwrap_or_else(|| (1..=6).collect()) {
        let (dir, crashed, mirror) = (
            TestDir::new("equiv-live"),
            TestDir::new("equiv-crashed"),
            TestDir::new("equiv-mirror"),
        );
        let model = write_history(seed, &dir, &crashed);

        let offline = recover_offline(&crashed, SHARDS as u64);
        // The model, as a sanity check of the harness: every published row
        // is there, and nothing else is under a primary index.
        let rows: usize = offline.iter().map(|d| d.keys().filter(|(i, _)| *i < 2).count()).sum();
        assert_eq!(rows, model.len(), "seed {seed}");
        for ((table, key), value) in &model {
            let shard = ermia::shard_of_key(&key.to_be_bytes(), SHARDS);
            let got = offline[shard].get(&(*table as u32, key.to_be_bytes().to_vec()));
            assert_eq!(got, Some(value), "seed {seed}: table {table} key {key}");
        }
        // The directory now holds recovery's own verdict for the in-doubt
        // prepare: a restart finds nothing in doubt and the same database.
        assert_eq!(recover_offline(&crashed, 0), offline, "seed {seed}: after a restart");

        let live = replay_live(&crashed, &mirror);
        assert_eq!(offline, live, "seed {seed}: offline recovery and live replay disagree");
    }
}

/// Recovery reports itself — counters, one flight event and two gauges a
/// shard — and a decided prepare that was traced still gets its
/// `repl-apply` span, on every participant, under the trace it was
/// written under.
#[test]
fn recovery_reports_itself_and_a_traced_prepare_keeps_its_span() {
    use ermia_telemetry::{parse_exposition, SpanKind, TraceContext};
    let dir = TestDir::new("equiv-report");
    let keys: Vec<[u8; 8]> = (0..KEYS).map(u64::to_be_bytes).collect();
    {
        let db = ShardedDb::open(config(&dir), SHARDS).unwrap();
        let t = db.create_table("kv");
        let mut w = db.register_worker();
        let trace = TraceContext { trace_hi: 7, trace_lo: 9, parent: 0 };
        for value in [&b"loaded"[..], b"rewritten"] {
            let mut tx = w.begin_traced(SI, Some(trace));
            for key in &keys {
                if !tx.update(t, key, value).unwrap() {
                    tx.insert(t, key, value).unwrap();
                }
            }
            tx.commit().expect("a cross-shard commit, decided");
        }
        (0..SHARDS).for_each(|s| db.shard(s).log().sync().unwrap());
    }
    let db = ShardedDb::open(config(&dir), SHARDS).unwrap();
    let stats = db.recover().unwrap();
    assert_eq!(stats.per_shard.iter().map(|s| s.built).sum::<u64>(), KEYS, "{stats:?}");
    assert_eq!(stats.per_shard.iter().map(|s| s.skipped_stale).sum::<u64>(), KEYS, "{stats:?}");
    for (s, shard) in stats.per_shard.iter().enumerate() {
        assert!(shard.scanned_bytes > 0 && !shard.elapsed.is_zero(), "shard {s}: {shard:?}");
        let telemetry = db.shard(s).telemetry();
        let metrics = parse_exposition(&telemetry.render_prometheus()).unwrap();
        assert_eq!(metrics.value("ermia_recovery_bytes"), Some(shard.scanned_bytes as f64));
        assert_eq!(metrics.value("ermia_recovery_seconds"), Some(shard.elapsed.as_secs_f64()));
        let event = format!("scanned_bytes={} built={}", shard.scanned_bytes, shard.built);
        assert!(telemetry.dump_events(64).contains(&event), "shard {s}: no `{event}`");
        let applies: Vec<_> = telemetry.tracer().capture_trace(7, 9);
        let applies = applies.iter().filter(|span| span.kind == SpanKind::ReplApply).count();
        assert_eq!(applies, 2, "shard {s}: one span per decided prepare");
    }
}
