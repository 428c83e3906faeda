//! Degraded read-only mode, dirty-directory restart, and torn-checkpoint
//! recovery — the engine-level half of the crash/chaos story.
//!
//! * A poisoned log must flip the database to [`DbState::Degraded`]:
//!   reads keep committing, writes abort with `ReadOnlyMode` at the
//!   operation (not hidden inside commit), `/metrics` reports
//!   `ermia_db_state 1`, and [`Database::resume`] brings full service
//!   back once the operator repairs the storage.
//! * Restart on a dirty data directory (stale lockfile from a SIGKILLed
//!   owner, leftover tmp files) must recover cleanly with no leaked
//!   transaction slots and a live epoch timeline; a *live* foreign owner
//!   must be refused.
//! * A corrupted (torn) checkpoint must be rejected by checksum so
//!   recovery falls back to the previous checkpoint and replays the log
//!   to the acknowledged frontier.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ermia::{AbortReason, Database, DbConfig, DbState, IsolationLevel};
use ermia_common::TestDir;
use ermia_log::{FaultInjector, FaultPlan, LogConfig};
use ermia_telemetry::SpanKind;

fn faulty_cfg(dir: PathBuf, injector: &FaultInjector) -> DbConfig {
    let mut cfg = DbConfig::durable(dir);
    cfg.log = LogConfig {
        dir: cfg.log.dir.clone(),
        segment_size: 4096,
        buffer_size: 64 << 10,
        fsync: true,
        flush_interval: Duration::from_micros(50),
        io_factory: Arc::new(injector.clone()),
        wait_durable_timeout: Duration::from_secs(5),
    };
    cfg
}

fn clean_cfg(dir: PathBuf) -> DbConfig {
    let mut cfg = DbConfig::durable(dir);
    cfg.log.segment_size = 4096;
    cfg.log.buffer_size = 64 << 10;
    cfg
}

/// Commit `key -> value` synchronously; returns the commit result.
fn put(db: &Database, table: ermia::TableId, key: u64, value: &str) -> Result<(), AbortReason> {
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    tx.upsert_or(table, key, value)?;
    tx.commit().map(|_| ())
}

/// Small helper trait so `put` reads naturally above.
trait UpsertOr {
    fn upsert_or(
        &mut self,
        table: ermia::TableId,
        key: u64,
        value: &str,
    ) -> Result<(), AbortReason>;
}

impl UpsertOr for ermia::Transaction<'_> {
    fn upsert_or(
        &mut self,
        table: ermia::TableId,
        key: u64,
        value: &str,
    ) -> Result<(), AbortReason> {
        let kb = key.to_be_bytes();
        if !self.update(table, &kb, value.as_bytes())? {
            self.insert(table, &kb, value.as_bytes())?;
        }
        Ok(())
    }
}

/// The full degraded-mode contract, live: poison mid-load, reads keep
/// committing with zero errors, writes get the typed abort, the gauge
/// flips, resume restores write service, and post-resume writes are
/// durable across a restart.
#[test]
fn degraded_mode_serves_reads_rejects_writes_and_resumes() {
    let dir = TestDir::new("live");
    let injector =
        FaultInjector::new(FaultPlan { enospc_after_bytes: Some(4096), ..FaultPlan::default() });
    let db = Database::open(faulty_cfg(dir.to_path_buf(), &injector)).unwrap();
    let table = db.create_table("kv");

    // Load until the byte budget poisons the log.
    let mut acked = Vec::new();
    for key in 0..1000u64 {
        match put(&db, table, key, "pre") {
            Ok(()) => acked.push(key),
            Err(reason) => {
                assert!(
                    matches!(reason, AbortReason::LogFailure | AbortReason::ReadOnlyMode),
                    "poison-window abort must be typed, got {reason:?}"
                );
                break;
            }
        }
    }
    assert!(!acked.is_empty(), "some writes must ack before ENOSPC");
    // The poison hook runs on the flusher thread; the failed commit has
    // already observed the poison, so the state flip is bounded by the
    // hook body itself. Give it a moment, then it must hold.
    for _ in 0..100 {
        if db.state() == DbState::Degraded {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(db.state(), DbState::Degraded, "poisoned log must degrade the database");

    // Reads keep committing — zero errors across the whole acked set.
    {
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for key in &acked {
            let got = tx
                .read(table, &key.to_be_bytes(), |v| v.to_vec())
                .expect("degraded reads must not error");
            assert_eq!(got.as_deref(), Some(&b"pre"[..]));
        }
        tx.commit().expect("read-only txns commit in degraded mode");
    }

    // Writes abort with the typed reason, at the operation.
    {
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let err = tx.update(table, &0u64.to_be_bytes(), b"nope").unwrap_err();
        assert_eq!(err, AbortReason::ReadOnlyMode);
        assert!(tx.is_doomed(), "a refused write dooms the transaction");
        tx.abort();
    }

    // The gauge and the flight events both tell the story.
    let recorded = |kind| db.telemetry().tracer().dump_spans(64).iter().any(|s| s.kind == kind);
    let metrics = db.telemetry().render_prometheus();
    assert!(
        metrics.contains("ermia_db_state 1"),
        "metrics must report the degraded state:\n{metrics}"
    );
    assert!(recorded(SpanKind::DbDegraded));

    // Resume fails while the disk is still full, then succeeds after the
    // operator repairs it.
    assert!(db.resume().is_err(), "resume must fail while the fault persists");
    assert_eq!(db.state(), DbState::Degraded);
    injector.repair();
    db.resume().expect("resume after repair");
    assert_eq!(db.state(), DbState::Active);
    assert!(db.telemetry().render_prometheus().contains("ermia_db_state 0"));
    assert!(recorded(SpanKind::DbResumed));

    // Write service is back, synchronously durable.
    for key in 0..16u64 {
        put(&db, table, key, "post").expect("post-resume writes commit");
    }
    drop(db);

    // Restart: acked pre-poison keys (unless later overwritten) and all
    // post-resume keys must survive; the degrade window lost nothing
    // that was acknowledged.
    let db = Database::open(clean_cfg(dir.to_path_buf())).unwrap();
    let table = db.create_table("kv");
    db.recover().expect("recovery after resume lifecycle");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for key in &acked {
        let want: &[u8] = if *key < 16 { b"post" } else { b"pre" };
        let got = tx.read(table, &key.to_be_bytes(), |v| v.to_vec()).expect("read");
        assert_eq!(got.as_deref(), Some(want), "key {key} lost or stale after restart");
    }
    tx.commit().unwrap();
}

/// Restart on a dirty directory: stale lockfile from a dead pid plus
/// leftover tmp junk must not block recovery, and the recovered database
/// must hold zero transaction slots and keep advancing epochs.
#[test]
fn dirty_dir_restart_recovers_with_clean_runtime_state() {
    let dir = TestDir::new("dirty");
    {
        let db = Database::open(clean_cfg(dir.to_path_buf())).unwrap();
        let table = db.create_table("kv");
        for key in 0..20u64 {
            put(&db, table, key, "v").unwrap();
        }
        // Drop cleanly but then fake the SIGKILL aftermath below.
    }
    // A dead owner's lockfile (pid far beyond /proc's range) and junk
    // tmp files a crash could leave behind.
    std::fs::write(dir.join("ermia.lock"), "999999999\n").unwrap();
    std::fs::write(dir.join("segment-in-flight.tmp"), b"junk").unwrap();
    std::fs::create_dir_all(dir.join("checkpoints")).unwrap();
    std::fs::write(dir.join("checkpoints").join("chk-tmp"), b"torn checkpoint image").unwrap();

    let db = Database::open(clean_cfg(dir.to_path_buf())).unwrap();
    let table = db.create_table("kv");
    db.recover().expect("recovery on a dirty directory");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for key in 0..20u64 {
        assert_eq!(
            tx.read(table, &key.to_be_bytes(), |v| v.to_vec()).unwrap().as_deref(),
            Some(&b"v"[..])
        );
    }
    tx.commit().unwrap();
    drop(w);
    assert_eq!(db.tid_slots_in_use(), 0, "no transaction slots may leak across recovery");
    let advances_before = db.epoch_stats().advances;
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        db.epoch_stats().advances > advances_before,
        "epoch timeline must stay live after a dirty-dir recovery"
    );
}

/// A live foreign owner must be refused; our own pid must not be.
#[test]
fn live_foreign_lock_refused_same_pid_allowed() {
    let dir = TestDir::new("lock");
    std::fs::create_dir_all(&dir).unwrap();
    // Pid 1 is always alive.
    std::fs::write(dir.join("ermia.lock"), "1\n").unwrap();
    let err = match Database::open(clean_cfg(dir.to_path_buf())) {
        Ok(_) => panic!("open must refuse a directory locked by a live process"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("locked by live process"), "got: {err}");

    std::fs::write(dir.join("ermia.lock"), format!("{}\n", std::process::id())).unwrap();
    let db = Database::open(clean_cfg(dir.to_path_buf())).expect("same-pid reopen is allowed");
    drop(db);
    assert!(!dir.join("ermia.lock").exists(), "lockfile removed on clean shutdown");
}

/// Corrupting the newest checkpoint must push recovery back to the
/// previous one, and log replay from there must still reach the acked
/// frontier — no acknowledged commit is lost to a torn checkpoint.
#[test]
fn torn_checkpoint_falls_back_and_replays_to_acked_frontier() {
    let dir = TestDir::new("chk");
    {
        let db = Database::open(clean_cfg(dir.to_path_buf())).unwrap();
        let table = db.create_table("kv");
        for key in 0..10u64 {
            put(&db, table, key, "batch-a").unwrap();
        }
        db.checkpoint().expect("first checkpoint");
        for key in 10..20u64 {
            put(&db, table, key, "batch-b").unwrap();
        }
        db.checkpoint().expect("second checkpoint");
    }
    // Tear the *newest* checkpoint payload: flip bytes in the middle so
    // its checksum fails verification.
    let chk_dir = dir.join("checkpoints");
    let mut payloads: Vec<PathBuf> = std::fs::read_dir(&chk_dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name.starts_with("chk-") && name.ends_with(".bin")).then_some(p)
        })
        .collect();
    payloads.sort();
    assert_eq!(payloads.len(), 2, "two checkpoints on disk");
    let newest = payloads.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    bytes[mid + 1] ^= 0xFF;
    std::fs::write(newest, bytes).unwrap();

    let db = Database::open(clean_cfg(dir.to_path_buf())).unwrap();
    let table = db.create_table("kv");
    db.recover().expect("recovery falls back past the torn checkpoint");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for key in 0..10u64 {
        assert_eq!(
            tx.read(table, &key.to_be_bytes(), |v| v.to_vec()).unwrap().as_deref(),
            Some(&b"batch-a"[..]),
            "batch-a key {key} lost"
        );
    }
    for key in 10..20u64 {
        assert_eq!(
            tx.read(table, &key.to_be_bytes(), |v| v.to_vec()).unwrap().as_deref(),
            Some(&b"batch-b"[..]),
            "batch-b key {key} must be replayed from the log past the old checkpoint"
        );
    }
    tx.commit().unwrap();
}

/// A checkpoint is written through the log's storage backend, not beside
/// it: once the injector's storage is gone, `checkpoint()` fails with the
/// injected error and publishes no marker. The catalog is empty, so the
/// checkpoint appends nothing to the log and only its own I/O can fail.
#[test]
fn a_checkpoint_goes_through_the_configured_backend() {
    let dir = TestDir::new("ckpt-backend");
    let injector = FaultInjector::new(FaultPlan::default());
    let db = Database::open(faulty_cfg(dir.to_path_buf(), &injector)).unwrap();
    db.checkpoint().expect("a checkpoint while the storage works");
    let markers = || {
        std::fs::read_dir(dir.join("checkpoints"))
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().file_name().to_string_lossy().starts_with("chk-marker-")
            })
            .count()
    };
    assert_eq!(markers(), 1);
    injector.crash_now();
    let err = db.checkpoint().unwrap_err();
    assert!(err.to_string().contains("injected crash"), "{err}");
    assert_eq!(markers(), 1, "a failed checkpoint published a marker");
}

/// A checkpoint at a cut must never *publish* committed-but-not-yet-durable
/// versions. Version stamps advance as soon as post-commit runs — before
/// the log block reaches disk — so a cut can lie above commits the log
/// cannot back. If such a snapshot were published and a crash then
/// erased the log tail, recovery would restore a version stamped *above*
/// the recovered log end: invisible to every snapshot, and shadowing the
/// older acked-durable version the checkpoint no longer carries. The
/// acked write is gone — the exact violation the chaos harness's
/// durability oracle caught at scale. The contract: `checkpoint()` waits
/// once for the log to become durable through its cut, and when the log
/// cannot catch up it fails without publishing a marker.
#[test]
fn checkpoint_withholds_nondurable_tail_so_acked_writes_survive_crash() {
    let dir = TestDir::new("ckpt-durable");
    let mut cfg = clean_cfg(dir.to_path_buf());
    // The durability barrier must give up quickly once the tail is stuck.
    cfg.log.wait_durable_timeout = Duration::from_millis(200);
    let db = Database::open(cfg).unwrap();
    let table = db.create_table("kv");

    // v1 is acked and durable: synchronous commit + explicit sync. The
    // checkpoint of this state publishes fine.
    put(&db, table, 7, "v1-acked-durable").unwrap();
    db.log().sync().expect("v1 durable");
    db.checkpoint().expect("all-durable checkpoint publishes");

    // Freeze durability, then commit v2 without waiting: its versions are
    // CLSN-stamped in memory, its block filled in the ring — but nothing
    // more ever reaches disk, as if SIGKILL lands before the next flush.
    let durable_before = db.log().durable_offset();
    db.log().halt_flusher_for_test();
    {
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.upsert_or(table, 7, "v2-in-memory-only").unwrap();
        tx.commit_deferred().expect("deferred commit fills the buffer");
    }
    assert_eq!(db.log().durable_offset(), durable_before, "flusher is halted");

    // The walk sees v2's stamp but the log will never back it: the
    // durability barrier must refuse to publish this snapshot.
    db.checkpoint().expect_err("checkpoint must not publish an unbackable snapshot");
    drop(db); // flusher already gone: the unflushed tail dies with us

    let db = Database::open(clean_cfg(dir.to_path_buf())).unwrap();
    let table = db.create_table("kv");
    db.recover().expect("recovery");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    assert_eq!(
        tx.read(table, &7u64.to_be_bytes(), |v| v.to_vec()).unwrap().as_deref(),
        Some(&b"v1-acked-durable"[..]),
        "acked v1 must survive; a checkpoint that captured non-durable v2 loses the key"
    );
    tx.commit().unwrap();
    drop(w);
    assert_eq!(db.tid_slots_in_use(), 0);
}

/// A log that poisons before `open` has installed its hook — on the sync
/// of the block `open` burns at offset 0, about 200 µs in — still
/// degrades its database: installing the hook on a poisoned log runs it.
#[test]
fn a_log_poisoned_during_open_degrades_its_database() {
    let dir = TestDir::new("poisoned-open");
    let injector = FaultInjector::new(FaultPlan { fail_sync_at: Some(0), ..FaultPlan::default() });
    let db = Database::open(faulty_cfg(dir.to_path_buf(), &injector)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !(db.log().is_poisoned() && db.state() == DbState::Degraded) {
        assert!(
            std::time::Instant::now() < deadline,
            "poisoned {} but {:?}",
            db.log().is_poisoned(),
            db.state()
        );
        std::thread::yield_now();
    }
}
