//! Degraded read-only mode, end to end over the wire: poison the log
//! under live client traffic, prove reads keep serving with zero errors
//! while writes get the typed [`ErrorCode::DegradedReadOnly`], watch the
//! `ermia_db_state` gauge flip on `/metrics`, and bring full service
//! back with a `Resume` frame after repairing the fault.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ermia::{DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_log::{FaultInjector, FaultPlan, LogConfig};
use ermia_server::{Client, ClientError, ErrorCode, Server, ServerConfig, WireIsolation};

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

/// Write `key -> value` through an interactive sync-commit transaction.
fn sync_put(c: &mut Client, t: u32, key: &[u8], value: &[u8]) -> Result<u64, ClientError> {
    c.begin(WireIsolation::Snapshot)?;
    c.put(t, key, value)?;
    c.commit(true)
}

#[test]
fn degraded_service_keeps_reads_alive_and_resume_restores_writes() {
    let dir = TestDir::new("live");
    let injector =
        FaultInjector::new(FaultPlan { enospc_after_bytes: Some(8192), ..FaultPlan::default() });
    let db = ShardedDb::open(faulty_cfg(dir.to_path_buf(), &injector), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.set_reply_timeout(Some(Duration::from_secs(10))).unwrap();
    let t = c.open_table("kv").unwrap();

    // Healthy at birth.
    let health = c.health().unwrap();
    assert!(!health.degraded, "fresh database must report active");
    assert_eq!(health.role, 0, "a standalone server is a primary");

    // Load sync commits until the ENOSPC budget poisons the log. Every
    // key acked durable before the poison goes on the oracle list.
    let mut acked: Vec<u32> = Vec::new();
    let mut poisoned = false;
    for i in 0..2000u32 {
        match sync_put(&mut c, t, &i.to_be_bytes(), b"pre") {
            Ok(_) => acked.push(i),
            Err(ClientError::Server { code, .. }) => {
                assert!(
                    matches!(
                        code,
                        ErrorCode::LogFailed | ErrorCode::LogStalled | ErrorCode::DegradedReadOnly
                    ),
                    "poison-window failure must be typed, got {code:?}"
                );
                poisoned = true;
                break;
            }
            Err(e) => panic!("unexpected transport failure: {e}"),
        }
    }
    assert!(poisoned, "ENOSPC budget never fired");
    assert!(!acked.is_empty(), "some writes must ack before ENOSPC");

    // The state flip happens on the flusher thread; poll briefly.
    let mut health = c.health().unwrap();
    for _ in 0..200 {
        if health.degraded {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        health = c.health().unwrap();
    }
    assert!(health.degraded, "poisoned log must surface degraded on the Health frame");

    // If the load loop died at the `put` (op-level bounce) rather than
    // at the commit, a doomed transaction is still open on this
    // connection; clear it. BadState (nothing open) is fine too.
    let _ = c.abort();

    // Reads keep serving: every acked key, zero errors, over the wire.
    for i in &acked {
        let got = c.get(t, &i.to_be_bytes()).expect("degraded reads must not error");
        assert_eq!(got.as_deref(), Some(&b"pre"[..]), "key {i} lost while degraded");
    }
    // Read-only interactive transactions still commit.
    c.begin(WireIsolation::Snapshot).unwrap();
    let _ = c.get(t, &acked[0].to_be_bytes()).unwrap();
    c.commit(false).expect("read-only txn must commit in degraded mode");

    // Writes are refused with the dedicated service-level code, at the
    // operation — inside the sync-wait bound by construction.
    c.begin(WireIsolation::Snapshot).unwrap();
    match c.put(t, b"nope", b"x") {
        Err(ClientError::Server { code: ErrorCode::DegradedReadOnly, .. }) => {}
        other => panic!("degraded write must bounce with DegradedReadOnly, got {other:?}"),
    }
    c.abort().unwrap();

    // The gauge is visible to scrapes.
    let text = c.metrics().unwrap();
    assert!(text.contains("ermia_db_state 1"), "metrics must report degraded:\n{text}");

    // Resume before the repair: the re-probe hits the same ENOSPC wall
    // and the database stays read-only.
    match c.resume() {
        Err(ClientError::Server { code: ErrorCode::DegradedReadOnly, .. }) => {}
        other => panic!("resume against a broken backend must fail typed, got {other:?}"),
    }
    assert!(c.health().unwrap().degraded, "failed resume must leave the database degraded");

    // Repair the storage, resume, and write again — durably.
    injector.repair();
    let health = c.resume().expect("resume after repair");
    assert!(!health.degraded, "resume must report active");
    let text = c.metrics().unwrap();
    assert!(text.contains("ermia_db_state 0"), "metrics must report active:\n{text}");
    for i in 0..16u32 {
        sync_put(&mut c, t, &(10_000 + i).to_be_bytes(), b"post")
            .expect("post-resume sync commits must succeed");
    }
    let got = c.get(t, &10_000u32.to_be_bytes()).unwrap();
    assert_eq!(got.as_deref(), Some(&b"post"[..]));

    srv.shutdown();
}

/// A table cannot be created where it cannot be logged: while the log is
/// down `OpenTable` of a new name bounces typed (a known name still
/// resolves — readers need ids), and `Resume` re-appends the catalog
/// before writes are admitted, so a table an embedded caller created
/// during the outage is not lost either.
#[test]
fn a_table_opened_during_an_outage_bounces_and_survives_once_resumed() {
    let dir = TestDir::new("late-table");
    let injector =
        FaultInjector::new(FaultPlan { enospc_after_bytes: Some(8192), ..FaultPlan::default() });
    let db = ShardedDb::open(faulty_cfg(dir.to_path_buf(), &injector), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.set_reply_timeout(Some(Duration::from_secs(10))).unwrap();
    let kv = c.open_table("kv").unwrap();
    let mut i = 0u32;
    while sync_put(&mut c, kv, &i.to_be_bytes(), b"pre").is_ok() {
        i += 1;
        assert!(i < 2000, "ENOSPC budget never fired");
    }
    let _ = c.abort();
    while !c.health().unwrap().degraded {
        std::thread::sleep(Duration::from_millis(5));
    }

    assert_eq!(c.open_table("kv").unwrap(), kv, "a known name is a lookup, outage or not");
    match c.open_table("late") {
        Err(ClientError::Server { code: ErrorCode::DegradedReadOnly, .. }) => {}
        other => panic!("a table the log cannot hold must bounce typed, got {other:?}"),
    }
    let embedded = db.create_table("embedded").0;

    injector.repair();
    assert!(!c.resume().expect("resume after repair").degraded);
    let late = c.open_table("late").unwrap();
    sync_put(&mut c, late, b"k", b"late").unwrap();
    sync_put(&mut c, embedded, b"k", b"embedded").unwrap();
    srv.shutdown();
    drop((c, db));

    // Restart on a healthy device, nothing declared.
    let db = ShardedDb::open(
        faulty_cfg(dir.to_path_buf(), &FaultInjector::new(FaultPlan::default())),
        1,
    )
    .unwrap();
    db.recover().unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    assert_eq!(c.open_table("late").unwrap(), late);
    assert_eq!(c.open_table("embedded").unwrap(), embedded);
    assert_eq!(c.get(late, b"k").unwrap().as_deref(), Some(&b"late"[..]));
    assert_eq!(c.get(embedded, b"k").unwrap().as_deref(), Some(&b"embedded"[..]));
    srv.shutdown();
}
