//! The staged cross-shard commit: what a parked prepare holds and does
//! not hold, who waits for its verdict, and what each verdict leaves.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ermia::{
    shard_of_key, DbConfig, DeferredCommit, IsolationLevel, ShardedDb, ShardedWorker, StagedCommit,
    TableId,
};

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ermia-staged-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `i`-th key with this prefix that lives on `shard` of two.
fn key_on(shard: usize, prefix: &str, i: usize) -> Vec<u8> {
    (0u32..)
        .map(|j| format!("{prefix}-{j}").into_bytes())
        .filter(|k| shard_of_key(k, 2) == shard)
        .nth(i)
        .expect("keys hash to both shards")
}

fn gauge(db: &ShardedDb, name: &str) -> f64 {
    ermia_telemetry::parse_exposition(&db.telemetry().render_prometheus())
        .expect("exposition parses")
        .value(name)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn read(w: &mut ShardedWorker, t: TableId, key: &[u8]) -> Option<Vec<u8>> {
    let mut tx = w.begin(IsolationLevel::Snapshot);
    let v = tx.read(t, key, |v| v.to_vec()).unwrap();
    tx.commit().unwrap();
    v
}

fn put(w: &mut ShardedWorker, t: TableId, key: &[u8], value: &[u8]) {
    let mut tx = w.begin(IsolationLevel::Snapshot);
    if !tx.update(t, key, value).unwrap() {
        tx.insert(t, key, value).unwrap();
    }
    tx.commit().unwrap();
}

/// Write `value` under both keys and stop at the staged commit.
fn stage(
    w: &mut ShardedWorker,
    iso: IsolationLevel,
    t: TableId,
    keys: [&[u8]; 2],
    value: &[u8],
) -> Box<StagedCommit> {
    let mut tx = w.begin(iso);
    for key in keys {
        assert!(tx.update(t, key, value).unwrap(), "staged writers update loaded rows");
    }
    match tx.commit_deferred().unwrap() {
        DeferredCommit::Staged(staged) => staged,
        DeferredCommit::Committed(_) => panic!("two writer shards must stage a 2PC"),
    }
}

/// Poll until the commit verdict (the logs are healthy: it comes).
fn commit_now(
    staged: &mut StagedCommit,
    resolver: &mut ShardedWorker,
) -> ermia::ShardedCommitToken {
    loop {
        if let Some(verdict) = staged.poll(resolver) {
            return verdict.expect("healthy logs commit");
        }
        std::thread::yield_now();
    }
}

#[test]
fn a_parked_prepare_holds_a_slot_per_shard_and_nothing_else() {
    let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
    let t = db.create_table("kv");
    let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
    let mut w = db.register_worker();
    put(&mut w, t, &a, b"old");
    put(&mut w, t, &b, b"old");

    let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"new");
    assert_eq!(gauge(&db, "ermia_shard_in_doubt"), 1.0);
    assert_eq!(db.tid_slots_in_use(), 2, "the write locks: one TID slot per participant");
    let shards: Vec<usize> = staged.waits().iter().map(|&(shard, _)| shard).collect();
    assert_eq!(shards, [0, 1], "waits on both participants' logs at once");

    // The worker that ran it is free: it runs other transactions while
    // the commit is parked.
    let other = key_on(0, "other", 0);
    put(&mut w, t, &other, b"x");
    assert_eq!(read(&mut w, t, &other).as_deref(), Some(&b"x"[..]));

    // No epoch pin: every shard's epoch keeps advancing under it.
    for shard in 0..2 {
        let e0 = db.shard(shard).epoch_stats().epoch;
        let deadline = Instant::now() + Duration::from_secs(5);
        while db.shard(shard).epoch_stats().epoch < e0 + 3 {
            assert!(Instant::now() < deadline, "shard {shard}: a parked prepare pinned the epoch");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // The verdict lands on whichever worker delivers it.
    let mut resolver = db.register_worker();
    let token = commit_now(&mut staged, &mut resolver);
    assert_eq!(token.shard(), 0, "the lowest writer shard coordinates");
    drop(staged);
    assert_eq!(gauge(&db, "ermia_shard_in_doubt"), 0.0);
    assert_eq!(gauge(&db, "ermia_shard_cross_txns_total"), 1.0);
    assert_eq!(db.tid_slots_in_use(), 0);
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"new"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"new"[..]));
}

#[test]
fn dropping_a_staged_commit_aborts_it() {
    let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
    let t = db.create_table("kv");
    let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
    let mut w = db.register_worker();
    put(&mut w, t, &a, b"old");
    put(&mut w, t, &b, b"old");
    drop(stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"new"));
    assert_eq!(gauge(&db, "ermia_shard_in_doubt"), 0.0);
    assert_eq!(db.tid_slots_in_use(), 0);
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"old"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"old"[..]));
    // The heads are unlocked again.
    put(&mut w, t, &a, b"next");
}

/// A transaction that begins after a prepare, and meets its head, waits
/// for the verdict instead of aborting: committed, it overwrites the new
/// version; aborted, the one beneath.
#[test]
fn later_writers_and_readers_wait_for_a_prepared_owners_verdict() {
    for commit in [true, false] {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
        let mut w = db.register_worker();
        put(&mut w, t, &a, b"old");
        put(&mut w, t, &b, b"old");
        let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"staged");

        let (began_tx, began_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let later = s.spawn(|| {
                let mut w = db.register_worker();
                let mut tx = w.begin(IsolationLevel::Snapshot);
                // First touch of shard 0 takes the snapshot there: after
                // the prepare, before the verdict.
                assert!(tx.read(t, &key_on(0, "unrelated", 0), |_| ()).unwrap().is_none());
                began_tx.send(()).unwrap();
                let seen = tx.read(t, &a, |v| v.to_vec()).unwrap();
                assert!(tx.update(t, &a, b"later").expect("must wait, not conflict"));
                tx.commit().unwrap();
                seen
            });
            began_rx.recv().unwrap();
            // Not needed for the outcome, which is the same whether the
            // later transaction arrives before the verdict or after; it
            // only makes "before" (the waiting path) the usual case.
            std::thread::sleep(Duration::from_millis(10));
            if commit {
                commit_now(&mut staged, &mut w);
            } else {
                staged.abort(&mut w);
            }
            let seen = later.join().unwrap();
            let want: &[u8] = if commit { b"staged" } else { b"old" };
            assert_eq!(seen.as_deref(), Some(want), "the reader saw the verdict's side");
        });
        assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"later"[..]));
        let want: &[u8] = if commit { b"staged" } else { b"old" };
        assert_eq!(read(&mut w, t, &b).as_deref(), Some(want));
        drop(staged);
        assert_eq!(db.tid_slots_in_use(), 0);
    }
}

/// Once the decide record is written, giving up is an in-memory answer
/// only: recovery goes by whether the record reached disk. Here it did
/// not (the coordinator's log stalled under it), so recovery presumes
/// abort too; `in_doubt_with_durable_decide_resolves_to_commit` covers
/// the record that did.
#[test]
fn abort_after_the_decide_is_written_is_in_memory_only() {
    let dir = tmpdir("decide");
    let (a, b) = (key_on(0, "k", 0), key_on(1, "k", 0));
    // Small segments: the directory is copied below.
    let cfg = |dir: &PathBuf| {
        let mut cfg = DbConfig::durable(dir);
        cfg.log.segment_size = 1 << 20;
        cfg.log.buffer_size = 1 << 18;
        cfg
    };
    let db = ShardedDb::open(cfg(&dir), 2).unwrap();
    let t = db.create_table("kv");
    let mut w = db.register_worker();
    put(&mut w, t, &a, b"old");
    put(&mut w, t, &b, b"old");
    let mut staged = stage(&mut w, IsolationLevel::Snapshot, t, [&a, &b], b"new");
    assert!(!staged.decide_written());
    for (shard, end) in staged.waits() {
        db.shard(shard).log().wait_durable(end).unwrap();
    }
    // Prepares durable; the coordinator's log stops before the decide.
    db.shard(0).log().halt_flusher_for_test();
    assert!(staged.poll(&mut w).is_none(), "the decide cannot turn durable");
    assert!(staged.decide_written());
    assert!(matches!(staged.waits()[..], [(0, _)]), "only the coordinator's decide is awaited");
    staged.abort(&mut w);
    drop(staged);
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"old"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"old"[..]));
    assert_eq!(db.tid_slots_in_use(), 0);

    // What a crash now would leave: both prepares, no decide.
    let crashed = tmpdir("decide-crashed");
    copy_dir(&dir, &crashed);
    let recovered = ShardedDb::open(cfg(&crashed), 2).unwrap();
    let t = recovered.create_table("kv");
    let stats = recovered.recover().unwrap();
    assert_eq!(stats.resolved_aborts, 2, "both prepares presumed aborted");
    let mut w = recovered.register_worker();
    assert_eq!(read(&mut w, t, &a).as_deref(), Some(&b"old"[..]));
    assert_eq!(read(&mut w, t, &b).as_deref(), Some(&b"old"[..]));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crashed);
}

/// Copy a live engine's directory, leaving its pid lock behind.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
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
