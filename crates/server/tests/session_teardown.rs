//! Session-teardown torture: five thousand clients die mid-transaction —
//! mid-interactive-txn, mid-pipelined-batch, even mid-frame — and the
//! server must release every TID context slot, epoch pin, and pooled
//! worker. The leak checks are exact, not "eventually small".

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ermia::{DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_server::protocol::{read_frame, write_frame, Request, Response, MAX_FRAME_LEN};
use ermia_server::{BatchOp, Client, Server, ServerConfig, WireIsolation};

const CLIENTS: usize = 5000;
const WAVE: usize = 250;

/// The herd test reads the process's thread count and, like the waves
/// of doomed clients, spends a large share of the default fd budget:
/// the tests of this file run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Connect, get partway into some transactional work, and vanish.
fn die_midway(addr: std::net::SocketAddr, table: u32, variant: usize) {
    match variant % 5 {
        // Mid-interactive-transaction: Begin + a write, never commit.
        0 => {
            let Ok(mut c) = Client::connect(addr) else { return };
            let _ = c.begin(WireIsolation::Snapshot);
            let _ = c.put(table, b"doomed", b"v");
            // drop: socket closes with the txn open
        }
        // Mid-pipelined-batch stream: queue several sync batches, read
        // none of the replies, hang up.
        1 => {
            let Ok(mut c) = Client::connect(addr) else { return };
            for i in 0..8 {
                let _ = c.send(&Request::Batch {
                    isolation: WireIsolation::Snapshot,
                    sync: true,
                    ops: vec![BatchOp::Put {
                        table,
                        key: format!("b{variant}-{i}").into_bytes(),
                        value: vec![b'x'; 32],
                    }],
                });
            }
            let _ = c.flush();
        }
        // Mid-frame: a header promising more bytes than we send.
        2 => {
            let Ok(mut s) = TcpStream::connect(addr) else { return };
            let _ = s.write_all(&1024u32.to_le_bytes());
            let _ = s.write_all(&[0u8; 100]);
        }
        // Serializable txn with reads and writes, then vanish.
        3 => {
            let Ok(mut c) = Client::connect(addr) else { return };
            let _ = c.begin(WireIsolation::Serializable);
            let _ = c.get(table, b"doomed");
            let _ = c.put(table, format!("s{variant}").as_bytes(), b"v");
        }
        // Connect and immediately hang up (acceptor-side teardown).
        _ => {
            let _ = TcpStream::connect(addr);
        }
    }
}

#[test]
fn thousand_disconnects_leak_nothing() {
    let _serial = serial();
    let db = ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
    let cfg = ServerConfig {
        max_sessions: 2 * WAVE,
        worker_capacity: 8,
        shards: 2,
        checkout_wait: Duration::from_millis(500),
        shutdown_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    let addr = srv.local_addr();

    // A table every doomed client writes into.
    let mut setup = Client::connect(addr).unwrap();
    let table = setup.open_table("torture").unwrap();
    drop(setup);

    for wave in 0..(CLIENTS / WAVE) {
        let handles: Vec<_> = (0..WAVE)
            .map(|i| std::thread::spawn(move || die_midway(addr, table, wave * WAVE + i)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    // Sessions notice the hangups asynchronously; wait until the server
    // has retired them all (bounded, not a blind sleep).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = srv.stats();
        if st.active_sessions == 0 && srv.worker_pool().outstanding() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sessions failed to retire: {} active, {} workers out",
            st.active_sessions,
            srv.worker_pool().outstanding()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Exact leak accounting.
    let pool = srv.worker_pool();
    assert_eq!(pool.outstanding(), 0, "every pooled worker returned");
    assert_eq!(pool.idle(), pool.created(), "idle set equals created set");
    assert!(pool.created() <= pool.capacity());
    assert_eq!(db.tid_slots_in_use(), 0, "every TID context slot released");

    // No epoch pin leaked: a stuck pin would freeze epoch advances.
    let e0 = db.shard(0).epoch_stats().epoch;
    let advance_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if db.shard(0).epoch_stats().epoch > e0 {
            break;
        }
        assert!(Instant::now() < advance_deadline, "epoch frozen: a pin leaked");
        std::thread::sleep(Duration::from_millis(5));
    }

    let st = srv.stats();
    assert!(st.disconnect_aborts > 0, "the torture actually hit open transactions");
    assert_eq!(st.sessions_opened, st.sessions_closed, "every session retired");

    // The server still works: a fresh client commits a transaction.
    let mut c = Client::connect(addr).unwrap();
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(table, b"alive", b"yes").unwrap();
    c.commit(true).unwrap();
    assert_eq!(c.get(table, b"alive").unwrap().as_deref(), Some(&b"yes"[..]));
    drop(c);

    srv.shutdown();
    assert_eq!(db.tid_slots_in_use(), 0);
}

/// A client that dies while the *server* is blocked writing replies to a
/// full socket (reply-queue backpressure) must still tear down cleanly.
#[test]
fn disconnect_under_reply_backpressure_leaks_nothing() {
    let _serial = serial();
    let db = ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
    let cfg = ServerConfig {
        reply_queue_depth: 4,
        shutdown_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    let addr = srv.local_addr();

    let mut setup = Client::connect(addr).unwrap();
    let table = setup.open_table("bp").unwrap();
    // Rows big enough to fill the socket buffer quickly.
    for i in 0..64 {
        setup.put(table, format!("k{i:03}").as_bytes(), &vec![b'v'; 16 << 10]).unwrap();
    }
    drop(setup);

    for _ in 0..8 {
        let mut s = TcpStream::connect(addr).unwrap();
        // Pipeline many fat scans and never read a byte of the replies,
        // then hang up: the writer thread must unblock and the session
        // must retire.
        for _ in 0..64 {
            let req = Request::Scan { table, low: b"k".to_vec(), high: b"l".to_vec(), limit: 0 };
            if write_frame(&mut s, &req.encode()).is_err() {
                break;
            }
        }
        drop(s);
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    while srv.stats().active_sessions != 0 || srv.worker_pool().outstanding() != 0 {
        assert!(Instant::now() < deadline, "backpressured sessions failed to retire");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(db.tid_slots_in_use(), 0);
    srv.shutdown();
}

/// Clients that die with cross-shard commits parked between prepare and
/// verdict: every such commit still runs to its verdict (its completion
/// is dropped with the connection), and the same exact accounting holds
/// — plus nothing left in doubt.
#[test]
fn disconnects_with_parked_cross_shard_commits_leak_nothing() {
    let _serial = serial();
    let dir = TestDir::new("teardown-2pc");
    let db = ermia::ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
    let cfg = ServerConfig {
        worker_capacity: 2,
        shards: 2,
        shutdown_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    let addr = srv.local_addr();
    let mut setup = Client::connect(addr).unwrap();
    let table = setup.open_table("torture").unwrap();
    drop(setup);

    const DOOMED: usize = 200;
    for wave in 0..(DOOMED / 50) {
        let handles: Vec<_> = (0..50)
            .map(|i| {
                std::thread::spawn(move || {
                    let id = wave * 50 + i;
                    let Ok(mut c) = Client::connect(addr) else { return };
                    // Eight keys land on both shards (all on one: 2^-7),
                    // so nearly every batch is a two-phase commit. Queue
                    // several, read no reply, hang up.
                    for b in 0..4 {
                        let ops = (0..8)
                            .map(|k| BatchOp::Put {
                                table,
                                key: format!("x{id}-{b}-{k}").into_bytes(),
                                value: vec![b'x'; 32],
                            })
                            .collect();
                        let _ = c.send(&Request::Batch {
                            isolation: WireIsolation::Snapshot,
                            sync: true,
                            ops,
                        });
                    }
                    let _ = c.flush();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    let in_doubt = || {
        ermia_telemetry::parse_exposition(&db.telemetry().render_prometheus())
            .unwrap()
            .value("ermia_shard_in_doubt")
            .unwrap()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = srv.stats();
        if st.active_sessions == 0 && in_doubt() == 0.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sessions failed to retire: {} active, {} in doubt",
            st.active_sessions,
            in_doubt()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let pool = srv.worker_pool();
    assert_eq!(pool.outstanding(), 0, "every pooled worker returned");
    assert_eq!(pool.idle(), pool.created(), "idle set equals created set");
    assert_eq!(db.tid_slots_in_use(), 0, "every TID context slot released");
    assert_eq!(in_doubt(), 0.0, "every parked commit reached a verdict");
    let cross = ermia_telemetry::parse_exposition(&db.telemetry().render_prometheus())
        .unwrap()
        .value("ermia_shard_cross_txns_total")
        .unwrap();
    assert!(cross > 0.0, "the torture actually parked cross-shard commits");
    let st = srv.stats();
    assert_eq!(st.sessions_opened, st.sessions_closed, "every session retired");

    srv.shutdown();
    assert_eq!(db.tid_slots_in_use(), 0);
    drop(db);
}

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Threads scale with shards + workers, never with connections: a herd
/// of served, then idle, sessions adds no OS thread. Sized to the
/// default `RLIMIT_NOFILE` of 1024 (two fds per loopback connection).
#[test]
fn os_threads_do_not_grow_with_connections() {
    let _serial = serial();
    const HERD: usize = 400;
    let db = ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = srv.local_addr();
    let mut setup = Client::connect(addr).unwrap();
    let table = setup.open_table("herd").unwrap();
    setup.put(table, b"k", b"v").unwrap();

    let threads_before = os_threads();
    let get = Request::Get { table, key: b"k".to_vec() }.encode();
    let herd: Vec<TcpStream> = (0..HERD)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, &get).unwrap();
            let reply = read_frame(&mut s, MAX_FRAME_LEN).unwrap();
            assert!(matches!(Response::decode(&reply), Ok(Response::Value { value: Some(_) })));
            s
        })
        .collect();
    assert_eq!(srv.stats().active_sessions, HERD + 1, "the herd is connected all at once");
    let threads_after = os_threads();
    assert!(
        threads_after.saturating_sub(threads_before) <= 16,
        "thread count grew with connections: {threads_before} -> {threads_after}"
    );
    drop((setup, herd));
    srv.shutdown();
}
