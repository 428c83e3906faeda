//! End-to-end crash-recovery torture: full database stack against the
//! fault-injecting storage backend, checked against an in-memory model.
//!
//! Each seed drives a randomized single-threaded workload of committed
//! transactions (upserts and deletes over a small key space, in tables
//! the run creates as it goes), each `commit()` waiting for its block, while a
//! [`FaultPlan`] crashes the log at an arbitrary point. After the "crash"
//! the database is reopened with the clean file backend and recovered —
//! nothing is declared: the catalog has to come back from the log — and
//! the recovered state must equal the model after every acknowledged
//! transaction — plus at most the one in-flight transaction whose commit
//! failed, since its block may or may not have reached disk before the
//! fault (but must apply atomically or not at all).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ermia::{AbortReason, Database, DbConfig, IsolationLevel};
use ermia_common::{TableId, TestDir};
use ermia_log::{FaultInjector, FaultPlan, LogConfig, TornWrite};

mod history;
use history::{mutate_model, Action, Model, Rng, KEYS};

const MAX_TABLES: usize = 4;

/// Name of the `n`th table a run creates.
fn table_name(n: usize) -> String {
    format!("torture-{n}")
}

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
    // Same segment size as the faulty life so the reopened segment table
    // lines up with the files on disk.
    cfg.log.segment_size = 4096;
    cfg.log.buffer_size = 64 << 10;
    cfg
}

struct TortureRun {
    /// Model state after every acknowledged (commit Ok) transaction.
    acked_model: Model,
    /// Model state if the final, unacknowledged in-flight transaction
    /// also reached disk (None when the run ended cleanly).
    inflight_model: Option<Model>,
    acked: u64,
    /// The id each created table got, by ordinal.
    tables: Vec<TableId>,
}

/// First life: run the workload against the injector until the first
/// commit failure (or `max_txns`), tracking the model in lockstep.
fn run_faulty_life(dir: PathBuf, injector: &FaultInjector, seed: u64, max_txns: u64) -> TortureRun {
    let db = Database::open(faulty_cfg(dir, injector)).expect("first open is fault-free");
    let mut tables = vec![db.create_table(&table_name(0))];
    let mut w = db.register_worker();
    let mut rng = Rng(seed ^ 0xDB);
    let mut model = Model::new();
    let mut acked = 0u64;
    let mut inflight_model = None;
    for txn in 0..max_txns {
        // The create-table step: its catalog entry is in the log ahead of
        // any row it will ever hold, wherever the crash lands.
        if tables.len() < MAX_TABLES && rng.below(8) == 0 {
            tables.push(db.create_table(&table_name(tables.len())));
        }
        let mut next = model.clone();
        let ops = mutate_model(&mut rng, seed, txn, tables.len(), &mut next);
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let mut op_failed = false;
        for ((table, key), action) in &ops {
            let (table, kb) = (tables[*table], key.to_be_bytes());
            let ok = match action {
                Action::Insert(v) => tx.insert(table, &kb, v).is_ok(),
                Action::Update(v) => tx.update(table, &kb, v).is_ok(),
                Action::Delete => tx.delete(table, &kb).is_ok(),
            };
            if !ok {
                op_failed = true;
                break;
            }
        }
        if op_failed {
            // Single-threaded snapshot txns only fail operations once the
            // log is poisoned; the txn never reached the log.
            tx.abort();
            inflight_model = None;
            break;
        }
        match tx.commit() {
            Ok(_) => {
                model = next;
                acked += 1;
            }
            Err(reason) => {
                assert_eq!(
                    reason,
                    AbortReason::LogFailure,
                    "seed {seed}: single-threaded txn can only die of log failure"
                );
                // The block may or may not have reached disk: keep both
                // candidate end states.
                inflight_model = Some(next);
                break;
            }
        }
    }
    TortureRun { acked_model: model, inflight_model, acked, tables }
}

/// Second life: reopen with the real file backend, declare nothing,
/// recover, and read the whole key space of every table that came back
/// (under the id it had). A table that did not — its entry never turned
/// durable — reads as empty, which is right exactly if no acknowledged
/// row was ever in it.
fn recover_state(dir: PathBuf, tables: &[TableId]) -> Model {
    let db = Database::open(clean_cfg(dir)).expect("reopen after crash");
    db.recover().expect("recovery replays the durable prefix");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    let mut state = Model::new();
    for (n, &id) in tables.iter().enumerate() {
        let Some(table) = db.table_id(&table_name(n)) else { continue };
        assert_eq!(table, id, "table {n} came back under another id");
        for key in 0..KEYS {
            if let Some(v) = tx.read(table, &key.to_be_bytes(), |v| v.to_vec()).expect("read") {
                state.insert((n, key), v);
            }
        }
    }
    tx.commit().expect("read-only txn commits");
    state
}

fn check_seed(tag: &str, seed: u64, plan: FaultPlan) {
    let dir = TestDir::new(tag);
    let injector = FaultInjector::new(plan);
    let run = run_faulty_life(dir.to_path_buf(), &injector, seed, 120);
    let recovered = recover_state(dir.to_path_buf(), &run.tables);
    let matches_acked = recovered == run.acked_model;
    let matches_inflight = run.inflight_model.as_ref() == Some(&recovered);
    assert!(
        matches_acked || matches_inflight,
        "seed {seed}: recovered state matches neither the {}-txn acked model \
         nor the acked+inflight model\nrecovered: {recovered:?}\nacked: {:?}\ninflight: {:?}",
        run.acked,
        run.acked_model,
        run.inflight_model
    );
}

/// Crash the storage after a seed-chosen number of writes; the recovered
/// database must be exactly the acked model (± the one in-flight txn).
#[test]
fn crash_point_recovers_model() {
    for seed in 0..8u64 {
        let mut rng = Rng(seed);
        let plan =
            FaultPlan { crash_after_writes: Some(2 + rng.below(80)), ..FaultPlan::default() };
        check_seed("crash", seed, plan);
    }
}

/// Tear a write mid-block; recovery must truncate at the torn block and
/// land on a model state, never on a half-applied transaction.
#[test]
fn torn_write_recovers_model() {
    for seed in 0..8u64 {
        let mut rng = Rng(seed ^ 0x7EA1);
        let plan = FaultPlan {
            torn_write: Some(TornWrite {
                at_write: 2 + rng.below(60),
                keep_bytes: rng.below(64) as usize,
            }),
            ..FaultPlan::default()
        };
        check_seed("torn", seed, plan);
    }
}

/// A failed fsync must poison the log and abort the committing txn with
/// `LogFailure`; everything acked before it survives recovery.
#[test]
fn fsync_failure_recovers_acked_prefix() {
    for seed in 0..4u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let plan = FaultPlan { fail_sync_at: Some(1 + rng.below(40)), ..FaultPlan::default() };
        check_seed("fsync", seed, plan);
    }
}

/// No faults: every transaction acks and the recovered state is exactly
/// the final model.
#[test]
fn clean_run_recovers_everything() {
    let dir = TestDir::new("clean");
    let injector = FaultInjector::new(FaultPlan::default());
    let run = run_faulty_life(dir.to_path_buf(), &injector, 42, 80);
    assert_eq!(run.acked, 80, "fault-free run acks every txn");
    assert!(run.inflight_model.is_none());
    assert_eq!(run.tables.len(), MAX_TABLES, "eighty chances in eight to create three more");
    let recovered = recover_state(dir.to_path_buf(), &run.tables);
    assert_eq!(recovered, run.acked_model);
}
