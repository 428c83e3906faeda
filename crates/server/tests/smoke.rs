//! End-to-end smoke: a real server on a loopback socket, the full op
//! surface, pipelining, admission control, and graceful shutdown.

use std::time::Duration;

use ermia::{DbConfig, ShardedDb};
use ermia_common::{AbortReason, TestDir};
use ermia_server::{
    BatchOp, Client, ClientError, ErrorCode, Request, Response, Server, ServerConfig, WireIsolation,
};

fn server(cfg: ServerConfig) -> (ShardedDb, Server) {
    let db = ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    (db, srv)
}

#[test]
fn full_op_surface_over_the_wire() {
    let (_db, srv) = server(ServerConfig::default());
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.ping().unwrap();
    let t = c.open_table("kv").unwrap();
    // Same name → same id; fresh name → new id.
    assert_eq!(c.open_table("kv").unwrap(), t);
    assert_ne!(c.open_table("other").unwrap(), t);

    // Autocommitted ops.
    assert!(!c.put(t, b"a", b"1").unwrap(), "fresh key");
    assert!(c.put(t, b"a", b"2").unwrap(), "upsert sees it");
    c.insert(t, b"b", b"3").unwrap();
    assert_eq!(c.get(t, b"a").unwrap().as_deref(), Some(&b"2"[..]));
    assert_eq!(c.get(t, b"missing").unwrap(), None);
    let (rows, truncated) = c.scan(t, b"a", b"z", 0).unwrap();
    assert!(!truncated);
    assert_eq!(rows, vec![(b"a".to_vec(), b"2".to_vec()), (b"b".to_vec(), b"3".to_vec())]);
    assert!(c.delete(t, b"b").unwrap());
    assert!(!c.delete(t, b"b").unwrap());

    // Interactive transaction, sync commit.
    c.begin(WireIsolation::Serializable).unwrap();
    c.put(t, b"x", b"10").unwrap();
    assert_eq!(c.get(t, b"x").unwrap().as_deref(), Some(&b"10"[..]), "own write visible");
    let lsn = c.commit(true).unwrap();
    assert!(lsn > 0);
    assert_eq!(c.get(t, b"x").unwrap().as_deref(), Some(&b"10"[..]));

    // Interactive transaction, abort rolls back.
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"x", b"11").unwrap();
    c.abort().unwrap();
    assert_eq!(c.get(t, b"x").unwrap().as_deref(), Some(&b"10"[..]));

    // One-shot batch: sync and async.
    let ops = vec![
        BatchOp::Put { table: t, key: b"p".to_vec(), value: b"1".to_vec() },
        BatchOp::Get { table: t, key: b"p".to_vec() },
        BatchOp::Scan { table: t, low: b"p".to_vec(), high: b"q".to_vec(), limit: 10 },
    ];
    for sync in [true, false] {
        let (results, outcome) = c.batch(WireIsolation::Snapshot, sync, ops.clone()).unwrap();
        assert_eq!(results.len(), 3);
        assert!(matches!(outcome, Response::Committed { .. }), "got {outcome:?}");
        assert!(
            matches!(results[1], Response::Value { ref value } if value.as_deref() == Some(b"1"))
        );
    }

    // Error surfaces: unknown table, commit outside a txn.
    match c.get(9999, b"k") {
        Err(ClientError::Server { code: ErrorCode::UnknownTable, .. }) => {}
        other => panic!("expected UnknownTable, got {other:?}"),
    }
    match c.commit(false) {
        Err(ClientError::Server { code: ErrorCode::BadState, .. }) => {}
        other => panic!("expected BadState, got {other:?}"),
    }
    // The connection survives server-side op errors.
    c.ping().unwrap();
}

/// A key longer than a log record can carry (its length is a u16) is
/// refused with a typed error before the engine sees it — autocommitted,
/// inside a transaction, in a batch — and nothing of it is installed.
#[test]
fn a_key_longer_than_a_log_record_carries_is_refused() {
    let (_db, srv) = server(ServerConfig::default());
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let long = vec![b'k'; ermia_log::MAX_KEY_LEN + 1];
    let refused = |r: Result<_, ClientError>| match r {
        Err(ClientError::Server { code: ErrorCode::BadState, detail }) => {
            assert!(detail.contains("65536-byte key"), "{detail}");
        }
        other => panic!("expected BadState, got {other:?}"),
    };
    refused(c.put(t, &long, b"v").map(drop));
    refused(c.insert(t, &long, b"v").map(drop));
    c.begin(WireIsolation::Snapshot).unwrap();
    refused(c.put(t, &long, b"v").map(drop));
    c.abort().unwrap();
    let ops = vec![BatchOp::Put { table: t, key: long.clone(), value: b"v".to_vec() }];
    let (results, _) = c.batch(WireIsolation::Snapshot, true, ops).unwrap();
    assert!(matches!(results[..], [Response::Error { code: ErrorCode::BadState, .. }]));
    // The longest key that fits is taken, and the session goes on.
    let longest = &long[..ermia_log::MAX_KEY_LEN];
    assert!(!c.put(t, longest, b"v").unwrap());
    let (rows, _) = c.scan(t, b"", &long, 0).unwrap();
    assert_eq!(rows, vec![(longest.to_vec(), b"v".to_vec())]);
}

/// A commit whose log block cannot fit the engine's log ring (4 MiB in
/// memory) is answered `TxnAborted(ResourceExhausted)`, whether one put
/// is too long or an interactive transaction's puts are together; the
/// session goes on, and the server takes new ones.
#[test]
fn a_commit_too_long_for_the_log_ring_aborts_and_the_server_goes_on() {
    let (_db, srv) = server(ServerConfig::default());
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let refused = |r: Result<_, ClientError>| match r {
        Err(ClientError::Server {
            code: ErrorCode::TxnAborted(AbortReason::ResourceExhausted),
            ..
        }) => {}
        other => panic!("expected TxnAborted(ResourceExhausted), got {other:?}"),
    };
    refused(c.put(t, b"big", &vec![0xA5; 5 << 20]).map(drop));
    assert!(!c.put(t, b"small", b"v").unwrap());

    c.begin(WireIsolation::Snapshot).unwrap();
    for key in [&b"half-1"[..], b"half-2"] {
        c.put(t, key, &vec![0x5A; 3 << 20]).unwrap();
    }
    refused(c.commit(true).map(drop));
    assert!(c.put(t, b"small", b"w").unwrap());

    let mut fresh = Client::connect(srv.local_addr()).unwrap();
    for key in [&b"big"[..], b"half-1", b"half-2"] {
        assert_eq!(fresh.get(t, key).unwrap(), None);
    }
    assert_eq!(fresh.get(t, b"small").unwrap().as_deref(), Some(&b"w"[..]));
    assert!(!fresh.put(t, b"fresh", b"x").unwrap());
    assert_eq!(c.get(t, b"fresh").unwrap().as_deref(), Some(&b"x"[..]));
}

#[test]
fn metrics_frame_agrees_with_server_stats() {
    let (_db, srv) = server(ServerConfig::default());
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    c.put(t, b"k", b"v").unwrap();
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"k2", b"v").unwrap();
    c.commit(false).unwrap();

    // One client, so nothing moves between the render and the snapshot:
    // the exposition and ServerStats must agree exactly.
    let exp = ermia_telemetry::parse_exposition(&c.metrics().unwrap()).unwrap();
    let stats = srv.stats();
    assert_eq!(exp.value("ermia_server_sessions_opened_total"), Some(stats.sessions_opened as f64));
    assert_eq!(exp.value("ermia_server_active_sessions"), Some(stats.active_sessions as f64));
    assert_eq!(exp.value("ermia_server_commits_total"), Some(stats.commits as f64));
    assert_eq!(
        exp.value("ermia_server_frames_processed_total"),
        Some(stats.frames_processed as f64)
    );
    assert_eq!(exp.value("ermia_server_protocol_errors_total"), Some(stats.protocol_errors as f64));
    assert!(stats.frames_processed >= 6, "every request above is a frame");
    assert_eq!(stats.commits, 2, "the autocommitted put and the interactive commit");
    srv.shutdown();
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let (_db, srv) = server(ServerConfig::default());
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("pipe").unwrap();

    // Queue a window of batches (each its own sync-commit transaction)
    // without reading a single reply.
    const WINDOW: usize = 64;
    for i in 0..WINDOW {
        let key = format!("k{i:04}").into_bytes();
        c.send(&Request::Batch {
            isolation: WireIsolation::Snapshot,
            sync: true,
            ops: vec![BatchOp::Put { table: t, key, value: vec![b'v'; 8] }],
        })
        .unwrap();
    }
    assert_eq!(c.in_flight(), WINDOW);
    for _ in 0..WINDOW {
        match c.recv().unwrap() {
            Response::BatchDone { outcome, .. } => {
                assert!(matches!(*outcome, Response::Committed { .. }))
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(c.in_flight(), 0);

    // Replies are in request order: interleave gets of distinct keys.
    for i in 0..WINDOW {
        c.send(&Request::Get { table: t, key: format!("k{i:04}").into_bytes() }).unwrap();
    }
    for _ in 0..WINDOW {
        match c.recv().unwrap() {
            Response::Value { value } => assert_eq!(value.as_deref(), Some(&b"vvvvvvvv"[..])),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn session_cap_sheds_load_with_busy() {
    let (_db, srv) = server(ServerConfig { max_sessions: 2, ..ServerConfig::default() });
    let mut a = Client::connect(srv.local_addr()).unwrap();
    let mut b = Client::connect(srv.local_addr()).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();
    // Third connection: the acceptor answers Busy and closes.
    let mut c = Client::connect(srv.local_addr()).unwrap();
    match c.call(&Request::Ping) {
        Ok(Response::Busy) => {}
        // The Busy frame may already be buffered before our request —
        // either way the reply is Busy or the connection is closed.
        Err(ClientError::Io(_)) => {}
        other => panic!("expected Busy/closed, got {other:?}"),
    }
    assert!(srv.stats().busy_rejects >= 1);
    // Freeing a slot readmits new connections.
    drop(a);
    std::thread::sleep(Duration::from_millis(100));
    let mut d = Client::connect(srv.local_addr()).unwrap();
    d.ping().unwrap();
}

/// `worker_capacity` bounds interactive transactions only. With its one
/// slot taken by an open `Begin`, another connection's one-shot
/// transactions still run; its `Begin` is answered `Busy` and keeps the
/// connection, which begins once the holder has committed.
#[test]
fn worker_exhaustion_returns_busy_but_keeps_the_connection() {
    let (_db, srv) = server(ServerConfig { worker_capacity: 1, ..ServerConfig::default() });
    let mut holder = Client::connect(srv.local_addr()).unwrap();
    let t = holder.open_table("kv").unwrap();
    holder.begin(WireIsolation::Snapshot).unwrap(); // takes the only slot
    assert_eq!(srv.stats().open_txns, 1);

    let mut other = Client::connect(srv.local_addr()).unwrap();
    assert_eq!(other.get(t, b"k").unwrap(), None);
    let ops = vec![BatchOp::Put { table: t, key: b"k".to_vec(), value: b"v".to_vec() }];
    let (_, outcome) = other.batch(WireIsolation::Snapshot, false, ops).unwrap();
    assert!(matches!(outcome, Response::Committed { .. }), "{outcome:?}");
    match other.begin(WireIsolation::Snapshot) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(srv.stats().busy_rejects, 1);
    assert_eq!(srv.stats().open_txns, 1, "a refused Begin counts nothing");
    // Busy is per-request: after the slot frees up the same connection
    // begins.
    holder.commit(false).unwrap();
    assert_eq!(srv.stats().open_txns, 0);
    other.begin(WireIsolation::Snapshot).unwrap();
    assert_eq!(other.get(t, b"k").unwrap().as_deref(), Some(&b"v"[..]));
    other.commit(false).unwrap();
    assert_eq!(srv.stats().open_txns, 0);
}

/// An open interactive transaction is a value the session holds, not a
/// worker it keeps: a hundred sessions each hold a `Begin` open at once on
/// one event loop — more than one worker's 64-slot TID home stretch, so
/// the TID claims spill past it — with no `Busy`. Their reads and writes
/// interleave on the loop's one worker; two of them writing one key get a
/// write-write conflict for the second, at once. Every slot is free once
/// they have all ended.
#[test]
fn a_hundred_open_transactions_share_one_loop() {
    const SESSIONS: usize = 100;
    let (db, srv) = server(ServerConfig { shards: 1, ..ServerConfig::default() });
    let addr = srv.local_addr();
    let mut setup = Client::connect(addr).unwrap();
    let t = setup.open_table("kv").unwrap();
    for i in 0..SESSIONS {
        setup.put(t, format!("k{i}").as_bytes(), b"v0").unwrap();
    }
    let mut sessions: Vec<Client> = (0..SESSIONS)
        .map(|_| {
            let mut c = Client::connect(addr).unwrap();
            c.set_reply_timeout(Some(Duration::from_secs(10))).unwrap();
            c.begin(WireIsolation::Snapshot).expect("no Busy while sessions last");
            c
        })
        .collect();
    assert_eq!(srv.stats().open_txns, SESSIONS);
    assert_eq!(srv.stats().busy_rejects, 0);

    // Interleaved: every session reads, then every session writes its own
    // key, then reads its neighbour's, which it sees unchanged.
    for (i, c) in sessions.iter_mut().enumerate() {
        assert_eq!(c.get(t, format!("k{i}").as_bytes()).unwrap().as_deref(), Some(&b"v0"[..]));
    }
    assert_eq!(db.tid_slots_in_use(), SESSIONS);
    for (i, c) in sessions.iter_mut().enumerate() {
        assert!(c.put(t, format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap());
    }
    for (i, c) in sessions.iter_mut().enumerate() {
        let next = format!("k{}", (i + 1) % SESSIONS);
        assert_eq!(c.get(t, next.as_bytes()).unwrap().as_deref(), Some(&b"v0"[..]));
    }

    // Two sessions write one key: the second loses first-updater-wins.
    assert!(sessions[0].put(t, b"shared", b"first").is_ok());
    match sessions[1].put(t, b"shared", b"second") {
        Err(ClientError::Server {
            code: ErrorCode::TxnAborted(AbortReason::WriteWriteConflict),
            ..
        }) => {}
        other => panic!("expected a write-write conflict, got {other:?}"),
    }

    // Half commit, half abort; the doomed one can only abort.
    for (i, c) in sessions.iter_mut().enumerate() {
        if i % 2 == 0 {
            c.commit(false).unwrap();
        } else {
            c.abort().unwrap();
        }
    }
    assert_eq!(srv.stats().open_txns, 0);
    assert_eq!(db.tid_slots_in_use(), 0, "every TID slot released");
    for i in 0..SESSIONS {
        let want = if i % 2 == 0 { format!("v{i}") } else { "v0".into() };
        let got = setup.get(t, format!("k{i}").as_bytes()).unwrap();
        assert_eq!(got.as_deref(), Some(want.as_bytes()), "key {i}");
    }
    assert_eq!(setup.get(t, b"shared").unwrap().as_deref(), Some(&b"first"[..]));
}

/// Pipelined sync batches register no worker: each runs on its event
/// loop's own, so the epoch sees no new thread.
#[test]
fn one_shot_transactions_check_out_no_pooled_worker() {
    let dir = TestDir::new("server-smoke-one-shot");
    let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let registrations = db.shard(0).epoch_stats().registrations;
    c.set_reply_timeout(Some(Duration::from_secs(20))).unwrap();
    for i in 0..64 {
        let ops = vec![BatchOp::Put { table: t, key: vec![i], value: b"v".to_vec() }];
        c.send(&Request::Batch { isolation: WireIsolation::Snapshot, sync: true, ops }).unwrap();
    }
    for _ in 0..64 {
        match c.recv().unwrap() {
            Response::BatchDone { outcome, .. } => {
                assert!(matches!(*outcome, Response::Committed { .. }), "{outcome:?}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(c.get(t, &[63]).unwrap().as_deref(), Some(&b"v"[..]));
    assert_eq!(
        db.shard(0).epoch_stats().registrations,
        registrations,
        "a one-shot transaction registered a worker"
    );
    srv.shutdown();
    drop(db);
}

/// Replies larger than the socket takes at once: a client pipelines scans
/// of up to 256 KiB each and reads nothing until the server's writes have
/// come up short. Then every reply arrives whole and in the order asked.
#[test]
fn replies_that_fill_the_socket_arrive_whole_and_in_order() {
    const ROWS: u32 = 64;
    const SCANS: u32 = 96;
    let value = |row: u32| vec![row as u8; 4096];
    let (_db, srv) = server(ServerConfig::default());
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("wide").unwrap();
    for row in 0..ROWS {
        c.put(t, format!("r{row:03}").as_bytes(), &value(row)).unwrap();
    }
    c.set_reply_timeout(Some(Duration::from_secs(20))).unwrap();
    // Scan `i` asks for `i % ROWS + 1` rows: about 12 MiB of replies.
    for i in 0..SCANS {
        let limit = i % ROWS + 1;
        c.send(&Request::Scan { table: t, low: b"r".to_vec(), high: b"s".to_vec(), limit })
            .unwrap();
    }
    c.flush().unwrap();
    // Read nothing until the server's writes have come up short.
    let mut probe = Client::connect(srv.local_addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let exp = ermia_telemetry::parse_exposition(&probe.metrics().unwrap()).unwrap();
        if exp.sum("ermia_server_partial_writes_total", None).expect("partial writes") > 0.0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "the replies never filled the socket");
        std::thread::sleep(Duration::from_millis(5));
    }
    for i in 0..SCANS {
        let Response::Rows { rows, truncated } = c.recv().unwrap() else {
            panic!("scan {i} was not answered with rows")
        };
        assert!(!truncated);
        assert_eq!(rows.len() as u32, i % ROWS + 1, "scan {i} answered out of order");
        for (row, (k, v)) in rows.iter().enumerate() {
            assert_eq!(k, format!("r{row:03}").as_bytes(), "scan {i}");
            assert!(*v == value(row as u32), "scan {i}: row {row} arrived damaged");
        }
    }
}

#[test]
fn shutdown_latency_is_bounded_by_the_wake_fd_not_polling() {
    // The old acceptor woke from `accept` by a loopback self-connect and
    // sessions noticed shutdown only at read-timeout granularity. The
    // event loop is woken by an eventfd instead: an idle server with an
    // idle session must shut down in a tight bound, not some multiple of
    // a poll interval.
    let (_db, srv) = server(ServerConfig::default());
    let mut idle = Client::connect(srv.local_addr()).unwrap();
    idle.ping().unwrap();

    let start = std::time::Instant::now();
    srv.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(1500),
        "idle shutdown took {took:?}; the wake fd should rouse every shard immediately"
    );
    assert_eq!(srv.stats().active_sessions, 0);
}

/// More sync commits in flight on one connection than its reply queue
/// holds: the queue's cap stops the session taking frames it has already
/// read, and once the parked commits resolve and flush, the frames still
/// in the assembler must run — no readiness event will announce them.
#[test]
fn pipelining_past_the_reply_queue_cap_does_not_wedge_the_session() {
    let dir = TestDir::new("server-smoke-cap");
    let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
    let cfg = ServerConfig { reply_queue_depth: 8, ..ServerConfig::default() };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    c.set_reply_timeout(Some(Duration::from_secs(20))).unwrap();

    const WINDOW: usize = 100;
    for i in 0..WINDOW {
        let key = format!("k{i}").into_bytes();
        let ops = vec![BatchOp::Put { table: t, key, value: b"v".to_vec() }];
        c.send(&Request::Batch { isolation: WireIsolation::Snapshot, sync: true, ops }).unwrap();
    }
    for i in 0..WINDOW {
        match c.recv().unwrap_or_else(|e| panic!("reply {i} of {WINDOW} never came: {e}")) {
            Response::BatchDone { outcome, .. } => {
                assert!(matches!(*outcome, Response::Committed { .. }), "{outcome:?}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    srv.shutdown();
    drop(db);
}

#[test]
fn multiple_shards_serve_concurrent_sessions_consistently() {
    let cfg = ServerConfig { shards: 2, ..ServerConfig::default() };
    let (_db, srv) = server(cfg);
    let addr = srv.local_addr();

    let mut setup = Client::connect(addr).unwrap();
    let t = setup.open_table("sharded").unwrap();
    drop(setup);

    // Enough concurrent clients that round-robin admission lands sessions
    // on both shards; each runs a sync-commit batch and a readback.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let key = format!("shard-k{i}").into_bytes();
                let (_, outcome) = c
                    .batch(
                        WireIsolation::Snapshot,
                        true,
                        vec![BatchOp::Put { table: t, key: key.clone(), value: vec![b'v'; 8] }],
                    )
                    .unwrap();
                assert!(matches!(outcome, Response::Committed { .. }));
                assert_eq!(c.get(t, &key).unwrap().as_deref(), Some(&[b'v'; 8][..]));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Cross-shard visibility: one client sees every other client's write.
    let mut check = Client::connect(addr).unwrap();
    let (rows, _) = check.scan(t, b"shard-", b"shard-z", 0).unwrap();
    assert_eq!(rows.len(), 8, "writes from every shard are visible");
    drop(check);

    let stats = srv.stats();
    assert_eq!(stats.sessions_opened, 10);
    srv.shutdown();
    assert_eq!(srv.stats().active_sessions, 0);
    assert_eq!(srv.stats().open_txns, 0);
}

/// Two clients on different event loops opening different new tables on
/// a two-shard engine used to interleave across the engine shards, trip
/// the catalog-divergence assert and take an event loop — with every
/// connection it owned — down. DDL is one at a time now: both finish,
/// and every name has one id, the same on both shards.
#[test]
fn concurrent_open_table_on_a_sharded_engine_agrees_on_every_id() {
    let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
    let cfg = ServerConfig { shards: 2, ..ServerConfig::default() };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    let addr = srv.local_addr();
    // Round-robin admission: consecutive connections, different loops.
    let clients = [Client::connect(addr).unwrap(), Client::connect(addr).unwrap()];
    let opened: Vec<Vec<(String, u32)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                s.spawn(move || {
                    // (A dead event loop answers nothing: fail, don't hang.)
                    client.set_reply_timeout(Some(Duration::from_secs(10))).unwrap();
                    // Pipelined, so the two loops really create at once.
                    let names: Vec<_> = (0..100).map(|i| format!("c{c}-t{i}")).collect();
                    for n in &names {
                        client.send(&Request::OpenTable { name: n.clone().into_bytes() }).unwrap();
                    }
                    let id = |client: &mut Client| match client.recv().unwrap() {
                        Response::TableId { id } => id,
                        other => panic!("OpenTable answered {other:?}"),
                    };
                    names.into_iter().map(|n| (n, id(&mut client))).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut check = Client::connect(addr).unwrap();
    for (name, id) in opened.iter().flatten() {
        assert_eq!(check.open_table(name).unwrap(), *id, "{name}");
        for shard in 0..2 {
            assert_eq!(db.shard(shard).table_id(name).map(|t| t.0), Some(*id), "{name}");
        }
    }
    assert_eq!(db.table_count(), 200);
    srv.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_sync_commits_and_leaks_nothing() {
    let (db, srv) = server(ServerConfig::default());
    let addr = srv.local_addr();

    // A few sessions mid-stream: some idle, one with an open transaction.
    let mut idle = Client::connect(addr).unwrap();
    let t = idle.open_table("kv").unwrap();
    let mut open_txn = Client::connect(addr).unwrap();
    open_txn.begin(WireIsolation::Snapshot).unwrap();
    open_txn.put(t, b"doomed", b"v").unwrap();

    // Queue sync commits and shut down while their replies may still be
    // in the durability queue. The ping round trip establishes the
    // session first: the drain guarantee covers established sessions,
    // not connections still sitting in the accept backlog.
    let mut busy = Client::connect(addr).unwrap();
    busy.ping().unwrap();
    for i in 0..16 {
        busy.send(&Request::Batch {
            isolation: WireIsolation::Snapshot,
            sync: true,
            ops: vec![BatchOp::Put {
                table: t,
                key: format!("s{i}").into_bytes(),
                value: b"x".to_vec(),
            }],
        })
        .unwrap();
    }
    busy.flush().unwrap();
    srv.shutdown();

    // Every queued commit got its reply before the socket closed.
    let mut committed = 0;
    for _ in 0..16 {
        match busy.recv() {
            Ok(Response::BatchDone { outcome, .. }) => {
                assert!(matches!(*outcome, Response::Committed { .. }));
                committed += 1;
            }
            Ok(other) => panic!("unexpected {other:?}"),
            Err(_) => break, // connection closed after the drain point
        }
    }
    assert_eq!(committed, 16, "graceful shutdown must drain queued sync-commit replies");

    let stats = srv.stats();
    assert_eq!(stats.active_sessions, 0, "all sessions joined");
    assert_eq!(stats.open_txns, 0, "no open transaction leaked");
    assert_eq!(db.tid_slots_in_use(), 0, "open txn aborted on shutdown");

    // New connections are refused (listener closed with the acceptor).
    assert!(
        std::net::TcpStream::connect(addr)
            .map(|s| {
                // Either refused outright or accepted by the OS backlog and
                // immediately closed; a read must yield EOF/error.
                let mut buf = [0u8; 1];
                use std::io::Read;
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                matches!((&s).read(&mut buf), Ok(0) | Err(_))
            })
            .unwrap_or(true),
        "server must not serve after shutdown"
    );
}
