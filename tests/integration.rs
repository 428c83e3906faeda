//! Cross-crate integration tests: scenarios that span the engine, the
//! log, recovery, both CC flavors, and the Silo baseline.

use ermia::{shard_of_key, DbConfig, IndexRouting, IsolationLevel, ShardPolicy, ShardedDb};
use ermia_common::{TableId, TestDir};
use ermia_server::{Client, Server, ServerConfig, WireIsolation};
use ermia_workloads::driver::{run, run_loaded, RunConfig};
use ermia_workloads::tpcc::{check_consistency, TpccConfig, TpccTables, TpccWorkload};
use ermia_workloads::tpcc_hybrid::TpccHybridWorkload;
use ermia_workloads::{ErmiaEngine, SiloEngine};
use std::time::Duration;

/// End-to-end: run TPC-C on a *durable* ERMIA database, checkpoint
/// mid-run, crash, recover, and verify TPC-C consistency conditions on
/// the recovered state.
#[test]
fn tpcc_survives_crash_recovery() {
    let dir = TestDir::new("it-crash");
    let wl = TpccWorkload::new(TpccConfig::small(1));
    {
        let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
        let engine = ErmiaEngine::si(db.clone());
        let r = run(&engine, &wl, &RunConfig::new(2, Duration::from_millis(400)));
        assert!(r.total_commits() > 0);
        db.checkpoint().unwrap();
        // More work after the checkpoint, then "crash".
        let r2 = run_loaded(&engine, &wl, &RunConfig::new(2, Duration::from_millis(200)));
        assert!(r2.total_commits() > 0);
        db.shard(0).log().sync().unwrap();
    }
    {
        let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
        let engine = ErmiaEngine::si(db.clone());
        // Look the schema up (the catalog came back with `open`), then recover.
        let wl2 = TpccWorkload::new(TpccConfig::small(1));
        let _tables = TpccTables::create(&engine);
        let stats = db.recover().unwrap();
        assert!(stats.per_shard[0].checkpoint_records > 0);
        // Bind the workload's table handles without loading: the tables
        // already exist and log replay repopulated them.
        wl2.bind_tables(&engine);
        check_consistency(&engine, &wl2);
    }
}

/// The log carries the schema too: tables a client opened over the wire
/// (and one the embedder gave a shard policy) come back from the data
/// directory alone — nothing is declared before `recover()` — under the
/// ids they had, with every acknowledged row, routed as they were; and
/// again once a checkpoint has let truncation retire the segments their
/// first catalog entries were in.
#[test]
fn a_data_directory_reopens_as_the_database_it_was() {
    for shards in [1, 2] {
        let dir = TestDir::new(&format!("it-self-describing-{shards}"));
        let open = || {
            let mut cfg = DbConfig::durable(&dir);
            cfg.log.segment_size = 8192;
            ShardedDb::open(cfg, shards).unwrap()
        };
        let sync_put = |c: &mut Client, t: u32, key: &[u8], value: &[u8]| {
            c.begin(WireIsolation::Snapshot).unwrap();
            c.put(t, key, value).unwrap();
            c.commit(true).unwrap();
        };
        let mut acked: Vec<(u32, Vec<u8>, Vec<u8>)> = Vec::new();
        let (b, a, grouped);
        {
            let db = open();
            let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
            let mut c = Client::connect(srv.local_addr()).unwrap();
            b = c.open_table("b").unwrap();
            a = c.open_table("a").unwrap();
            grouped =
                db.create_table_with_policy("grouped", ShardPolicy::Hash { prefix: Some(4) }).0;
            for i in 0..50u32 {
                for (t, key) in
                    [(b, format!("b{i}")), (a, format!("a{i}")), (grouped, format!("g007-{i}"))]
                {
                    let value = format!("{key}={}", "x".repeat(200)).into_bytes();
                    sync_put(&mut c, t, key.as_bytes(), &value);
                    acked.push((t, key.into_bytes(), value));
                }
            }
            // A crash as far as the engine can tell: nobody checkpoints,
            // nobody says goodbye to the log.
        }
        for restart in 0..3 {
            let db = open();
            db.recover().unwrap();
            let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
            let mut c = Client::connect(srv.local_addr()).unwrap();
            let ids = ["b", "a", "grouped"].map(|name| c.open_table(name).unwrap());
            assert_eq!(ids, [b, a, grouped], "{shards} shard(s), restart {restart}");
            for (t, key, value) in &acked {
                let got = c.get(*t, key).unwrap();
                assert_eq!(
                    got.as_deref(),
                    Some(&value[..]),
                    "{shards} shard(s), restart {restart}"
                );
            }
            // The prefix policy came back with the table: its co-located
            // keys are all where the prefix hashes to.
            let home = db.shard(shard_of_key(b"g007", shards));
            let mut w = home.register_worker();
            let mut tx = w.begin(IsolationLevel::Snapshot);
            for (_, key, _) in acked.iter().filter(|(t, ..)| *t == grouped) {
                assert!(
                    tx.read(TableId(grouped), key, |_| ()).unwrap().is_some(),
                    "{shards} shard(s)"
                );
            }
            tx.commit().unwrap();
            if restart == 0 {
                db.checkpoint().unwrap();
                assert!(db.truncate_log().unwrap() > 0, "the first catalog entries' segments go");
                let (key, value) = (b"after".to_vec(), b"the checkpoint".to_vec());
                sync_put(&mut c, a, &key, &value);
                acked.push((a, key, value));
            }
        }
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
