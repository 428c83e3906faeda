//! The durability-failure reply path: a wedged log must surface as the
//! typed `LogStalled` error on a sync commit (bounded wait, connection
//! survives), and a poisoned log as `LogFailed` — never a hang, never a
//! generic close. Cross-shard commits park between prepare and verdict;
//! their stalls must be as typed, and must leave nothing behind.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ermia::{DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_log::{
    BlockKind, DecideRecord, FaultInjector, FaultPlan, FileBackend, LogConfig, LogScanner,
    SegmentIo, SegmentIoFactory,
};
use ermia_server::{
    BatchOp, Client, ClientError, ErrorCode, Request, Response, Server, ServerConfig, WireIsolation,
};

/// The bound is the log's one patience, `wait_durable_timeout`: the
/// server has none of its own.
#[test]
fn halted_flusher_surfaces_logstalled_within_the_bound() {
    let dir = TestDir::new("stall");
    let mut cfg = DbConfig::durable(&dir);
    cfg.log.wait_durable_timeout = Duration::from_millis(300);
    let db = ShardedDb::open(cfg, 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();

    // Healthy baseline: sync commit completes.
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"before", b"v").unwrap();
    c.commit(true).unwrap();

    // Wedge the log: durability can no longer advance.
    db.shard(0).log().halt_flusher_for_test();

    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"after", b"v").unwrap();
    let started = Instant::now();
    match c.commit(true) {
        Err(ClientError::Server { code: ErrorCode::LogStalled, .. }) => {}
        other => panic!("expected typed LogStalled, got {other:?}"),
    }
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(250),
        "must actually wait for the bound, waited {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(2),
        "must time out near the log's bound, waited {waited:?}"
    );

    // The commit applied in memory (indeterminate durability, visible
    // data) and the connection keeps working.
    assert_eq!(c.get(t, b"after").unwrap().as_deref(), Some(&b"v"[..]));

    // The incident went into the parker's ring: a DumpTraces frame
    // after the fact shows the stall alongside the transaction history
    // that led up to it.
    let dump = c.dump_traces(0).unwrap();
    assert!(dump.contains("kind=log-stall "), "dump must show the stall:\n{dump}");
    assert!(dump.contains("kind=txn-commit "), "dump must show recent txn events:\n{dump}");
    // The server also parked the same dump for post-mortem retrieval.
    let parked = db.telemetry().tracer().last_dump();
    assert!(
        parked.as_deref().is_some_and(|d| d.contains("kind=log-stall ")),
        "incident dump must be stored: {parked:?}"
    );

    // Async commits are unaffected by the wedged flusher.
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"async", b"v").unwrap();
    c.commit(false).unwrap();

    // Shutdown stays bounded even with sync replies pending: the writer's
    // durability waits all hit the 300 ms ceiling.
    let started = Instant::now();
    srv.shutdown();
    assert!(started.elapsed() < Duration::from_secs(10), "shutdown must not hang on a dead log");
}

#[test]
fn poisoned_log_surfaces_logfailed_not_a_hang() {
    // An fsync error is never retried: the first flush poisons the log.
    let injector = FaultInjector::new(FaultPlan { fail_sync_at: Some(0), ..FaultPlan::default() });
    let dir = TestDir::new("poison");
    // The table is in the log before the doomed device is: on a fresh
    // directory the first sync is the one of the block `open` burns at
    // offset 0, and whether the database is degraded by the time a client
    // asks for its table is a race `open_table` must not be left to.
    ShardedDb::open(DbConfig::durable(&dir), 1).unwrap().create_table("kv");
    let mut cfg = DbConfig::durable(&dir);
    cfg.log = LogConfig {
        dir: cfg.log.dir.clone(),
        fsync: true,
        io_factory: Arc::new(injector),
        wait_durable_timeout: Duration::from_secs(10),
        ..LogConfig::default()
    };
    let db = ShardedDb::open(cfg, 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();

    // Sync commits against the doomed log: the first flush attempt fails
    // its fsync and poisons the log. The waiting commit must get the
    // typed LogFailed error (well before the generous patience), and
    // once poisoned, later transactions fail fast with a typed refusal —
    // a log-failure abort, or DegradedReadOnly once the poison hook has
    // flipped the database read-only (the hook runs on the flusher
    // thread, so it races the next batch's write admission) — the server
    // never hangs and never panics.
    let mut saw_log_failed = false;
    let mut saw_fail_fast = false;
    let started = Instant::now();
    for i in 0..10 {
        let (_, outcome) = c
            .batch(
                WireIsolation::Snapshot,
                true,
                vec![BatchOp::Put {
                    table: t,
                    key: format!("k{i}").into_bytes(),
                    value: b"v".to_vec(),
                }],
            )
            .unwrap();
        match outcome {
            Response::Error { code: ErrorCode::LogFailed, .. } => saw_log_failed = true,
            Response::Error { code: ErrorCode::TxnAborted(reason), .. } => {
                assert_eq!(reason.label(), "log-failure", "fail-fast must cite the log");
                saw_fail_fast = true;
            }
            Response::Error { code: ErrorCode::DegradedReadOnly, .. } => {
                // The poison hook already demoted the database: the
                // write was refused at admission, before the log.
                saw_fail_fast = true;
            }
            Response::Committed { .. } => {
                // The flush that poisons the log may land after this
                // commit's fill was already buffered but before its wait
                // — only pre-poison commits may still pass. They cannot
                // appear after a failure.
                assert!(!saw_log_failed && !saw_fail_fast, "no commits after poison");
            }
            other => panic!("unexpected batch outcome {other:?}"),
        }
    }
    assert!(saw_log_failed || saw_fail_fast, "poisoned log must surface a typed log failure");
    assert!(
        started.elapsed() < Duration::from_secs(9),
        "poison must fail the wait immediately, not ride out the patience"
    );
    assert!(db.shard(0).log().is_poisoned());
    srv.shutdown();
}

// ---------------------------------------------------------------------
// Cross-shard commits against stalled logs
// ---------------------------------------------------------------------

/// A log device whose `sync_data` can be held shut: with the gate closed
/// the flusher blocks inside its fsync, so durability stops advancing
/// until the test lets syncs through again — all of them, or a counted
/// few. Opens itself when dropped, so a failing test still lets the
/// database's flushers exit.
#[derive(Clone, Debug)]
struct Gate(Arc<(Mutex<u64>, Condvar)>);

const OPEN: u64 = u64::MAX;

impl Gate {
    fn new() -> Gate {
        Gate(Arc::new((Mutex::new(OPEN), Condvar::new())))
    }

    /// Let `syncs` more `sync_data` calls through (0 shuts the gate,
    /// [`OPEN`] removes it).
    fn allow(&self, syncs: u64) {
        *self.0 .0.lock().unwrap() = syncs;
        self.0 .1.notify_all();
    }
}

struct OpenOnDrop(Vec<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        for gate in &self.0 {
            gate.allow(OPEN);
        }
    }
}

#[derive(Debug)]
struct GatedIo {
    inner: Arc<dyn SegmentIo>,
    gate: Gate,
}

impl SegmentIo for GatedIo {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        self.inner.write_all_at(buf, offset)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.inner.read_exact_at(buf, offset)
    }

    fn sync_data(&self) -> std::io::Result<()> {
        let (permits, opened) = &*self.gate.0;
        let mut permits = permits.lock().unwrap();
        while *permits == 0 {
            permits = opened.wait(permits).unwrap();
        }
        if *permits != OPEN {
            *permits -= 1;
        }
        drop(permits);
        self.inner.sync_data()
    }

    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
}

/// Both shards' devices: `ShardedDb::open` puts shard `i`'s segments
/// under `shard-<i>`, which is how a segment finds its gate.
#[derive(Debug)]
struct Gates([Gate; 2]);

impl SegmentIoFactory for Gates {
    fn open(&self, path: &std::path::Path) -> std::io::Result<Arc<dyn SegmentIo>> {
        let shard = path.components().any(|c| c.as_os_str() == "shard-1") as usize;
        Ok(Arc::new(GatedIo { inner: FileBackend.open(path)?, gate: self.0[shard].clone() }))
    }
}

/// A two-shard engine under `dir` whose shard `i` logs through
/// `gates[i]`, with a table, and whose durability waits last `patience`.
fn gated_pair(dir: &std::path::Path, patience: Duration) -> (ShardedDb, [Gate; 2], OpenOnDrop) {
    let gates = [Gate::new(), Gate::new()];
    let mut cfg = DbConfig::durable(dir);
    cfg.log.fsync = true;
    cfg.log.wait_durable_timeout = patience;
    cfg.log.io_factory = Arc::new(Gates(gates.clone()));
    let db = ShardedDb::open(cfg, 2).unwrap();
    db.create_table("kv");
    let guard = OpenOnDrop(gates.to_vec());
    (db, gates, guard)
}

/// `n` keys with the given prefix on each of the two shards.
fn keys_on_both_shards(prefix: &str, n: usize) -> [Vec<Vec<u8>>; 2] {
    let mut keys = [Vec::new(), Vec::new()];
    for j in 0u32.. {
        let key = format!("{prefix}-{j}").into_bytes();
        let home = &mut keys[ermia::shard_of_key(&key, 2)];
        if home.len() < n {
            home.push(key);
        }
        if keys.iter().all(|k| k.len() == n) {
            return keys;
        }
    }
    unreachable!()
}

fn cross_batch(table: u32, a: &[u8], b: &[u8], value: &[u8]) -> Request {
    Request::Batch {
        isolation: WireIsolation::Snapshot,
        sync: true,
        ops: [a, b]
            .iter()
            .map(|k| BatchOp::Put { table, key: k.to_vec(), value: value.to_vec() })
            .collect(),
    }
}

fn batch_outcome(resp: Response) -> Response {
    match resp {
        Response::BatchDone { outcome, .. } => *outcome,
        other => panic!("expected BatchDone, got {other:?}"),
    }
}

fn in_doubt(db: &ShardedDb) -> f64 {
    let text = db.telemetry().render_prometheus();
    ermia_telemetry::parse_exposition(&text)
        .expect("exposition parses")
        .value("ermia_shard_in_doubt")
        .expect("in-doubt gauge")
}

/// Nothing of a parked commit may outlive its reply: no pooled worker,
/// no TID slot, no in-doubt count.
fn assert_nothing_leaked(srv: &Server, db: &ShardedDb) {
    let pool = srv.worker_pool();
    assert_eq!(pool.outstanding(), 0, "every pooled worker returned");
    assert_eq!(pool.idle(), pool.created(), "idle set equals created set");
    assert_eq!(db.tid_slots_in_use(), 0, "every TID context slot released");
    assert_eq!(in_doubt(db), 0.0, "no cross-shard commit left in doubt");
}

/// The event loop must never be the only thread able to resolve a
/// prepared head it may wait on. Sixteen pipelined cross-shard commits
/// against logs that cannot flush all end up prepared and parked, holding
/// no pooled worker, while the loop keeps serving other connections;
/// when the logs move again they all commit, in order.
#[test]
fn parked_cross_shard_commits_hold_no_worker_and_never_block_the_loop() {
    let dir = TestDir::new("parked");
    let (db, gates, _open) = gated_pair(&dir, Duration::from_secs(30));
    let cfg = ServerConfig { shards: 1, worker_capacity: 2, ..ServerConfig::default() };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let [on0, on1] = keys_on_both_shards("parked", 16);
    c.put(t, b"bystander", b"served").unwrap();

    gates[0].allow(0);
    gates[1].allow(0);
    for (a, b) in on0.iter().zip(&on1) {
        c.send(&cross_batch(t, a, b, b"v")).unwrap();
    }
    c.flush().unwrap();

    // All sixteen reach the parker: prepared, in doubt, no worker held.
    let deadline = Instant::now() + Duration::from_secs(10);
    while in_doubt(&db) != 16.0 {
        assert!(Instant::now() < deadline, "only {} commits got prepared", in_doubt(&db));
        std::thread::sleep(Duration::from_millis(5));
    }
    let pool = srv.worker_pool();
    assert_eq!(pool.outstanding(), 0, "a parked prepare holds no pooled worker");
    assert_eq!(pool.idle(), pool.created());
    assert_eq!(db.tid_slots_in_use(), 32, "one TID slot per prepared participant");

    // The single event loop is still serving: another connection gets
    // its answer while all sixteen are parked.
    let mut other = Client::connect(srv.local_addr()).unwrap();
    other.set_reply_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(other.get(t, b"bystander").unwrap().as_deref(), Some(&b"served"[..]));
    assert_eq!(in_doubt(&db), 16.0, "still parked while the bystander was served");

    gates[0].allow(OPEN);
    gates[1].allow(OPEN);
    let mut last = 0;
    for i in 0..16 {
        match batch_outcome(c.recv().unwrap()) {
            Response::Committed { lsn } => {
                assert!(lsn > last, "reply {i} out of commit order");
                last = lsn;
            }
            other => panic!("parked commit {i} must commit once the logs move: {other:?}"),
        }
    }
    for key in on0.iter().chain(&on1) {
        assert_eq!(c.get(t, key).unwrap().as_deref(), Some(&b"v"[..]));
    }
    assert_nothing_leaked(&srv, &db);
    srv.shutdown();
}

/// Patience running out on a prepare that cannot turn durable: the client
/// gets the typed `LogStalled`, both halves are rolled back, nothing stays
/// behind — and the abort verdict is in both logs behind the prepares, so
/// when the stalled prepare reaches disk after all, a restart finds it
/// aborted instead of counting two prepares and committing.
#[test]
fn stalled_prepare_aborts_both_halves_with_logstalled() {
    let dir = TestDir::new("stalled-prepare");
    let (db, gates, open) = gated_pair(&dir, Duration::from_millis(300));
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let [on0, on1] = keys_on_both_shards("stall", 1);
    match batch_outcome(c.call(&cross_batch(t, &on0[0], &on1[0], b"old")).unwrap()) {
        Response::Committed { .. } => {}
        other => panic!("healthy baseline must commit: {other:?}"),
    }

    // Only shard 1's log stalls: shard 0's prepare turns durable.
    gates[1].allow(0);
    let started = Instant::now();
    match batch_outcome(c.call(&cross_batch(t, &on0[0], &on1[0], b"new")).unwrap()) {
        Response::Error { code: ErrorCode::LogStalled, .. } => {}
        other => panic!("expected typed LogStalled, got {other:?}"),
    }
    let waited = started.elapsed();
    assert!(waited >= Duration::from_millis(250), "must wait out the bound, waited {waited:?}");
    assert!(
        waited < Duration::from_secs(5),
        "must time out near the log's bound, waited {waited:?}"
    );

    // Aborted on both shards, and the connection keeps working.
    assert_eq!(c.get(t, &on0[0]).unwrap().as_deref(), Some(&b"old"[..]));
    assert_eq!(c.get(t, &on1[0]).unwrap().as_deref(), Some(&b"old"[..]));
    assert!(c.dump_traces(0).unwrap().contains("kind=log-stall "));
    assert_nothing_leaked(&srv, &db);

    // The log moves again: the stalled prepare and the abort verdict
    // behind it reach disk. Clean restart.
    gates[1].allow(OPEN);
    drop(c);
    srv.shutdown();
    drop(srv);
    drop(db);
    drop(open);
    let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
    db.create_table("kv");
    let stats = db.recover().unwrap();
    // Each log holds the prepare and, behind it, its own abort verdict.
    assert_eq!((stats.resolved_commits, stats.resolved_aborts), (0, 0), "{stats:?}");
    for shard in 0..2 {
        let mut scanner = LogScanner::new(db.shard(shard).log().segments(), 0);
        let mut tail = Vec::new();
        while let Some(block) = scanner.next_block().unwrap() {
            tail.push(block);
        }
        let [.., prepare, verdict] = &tail[..] else { panic!("shard {shard}: log too short") };
        assert_eq!(prepare.header.kind, BlockKind::TxnPrepare, "shard {shard}");
        assert_eq!(verdict.header.kind, BlockKind::TxnDecide, "shard {shard}");
        assert!(!DecideRecord::decode(&verdict.payload).unwrap().commit, "shard {shard}");
    }
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    assert_eq!(c.get(t, &on0[0]).unwrap().as_deref(), Some(&b"old"[..]));
    assert_eq!(c.get(t, &on1[0]).unwrap().as_deref(), Some(&b"old"[..]));
    match batch_outcome(c.call(&cross_batch(t, &on0[0], &on1[0], b"newer")).unwrap()) {
        Response::Committed { .. } => {}
        other => panic!("the pair must be writable again: {other:?}"),
    }
    srv.shutdown();
}

/// Shutdown with cross-shard commits parked on a dead log: the flush
/// phase waits out their patience, they abort, and the server exits
/// within its bound with nothing left behind.
#[test]
fn shutdown_resolves_parked_cross_shard_commits() {
    let dir = TestDir::new("shutdown");
    let (db, gates, _open) = gated_pair(&dir, Duration::from_millis(300));
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let [on0, on1] = keys_on_both_shards("shutdown", 4);
    gates[0].allow(0);
    gates[1].allow(0);
    for (a, b) in on0.iter().zip(&on1) {
        c.send(&cross_batch(t, a, b, b"v")).unwrap();
    }
    c.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while in_doubt(&db) != 4.0 {
        assert!(Instant::now() < deadline, "commits never got prepared");
        std::thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    srv.shutdown();
    assert!(started.elapsed() < Duration::from_secs(10), "shutdown must not hang on a dead log");
    assert_eq!(db.tid_slots_in_use(), 0, "parked prepares aborted at shutdown");
    assert_eq!(in_doubt(&db), 0.0);
    // The parked commits were answered, not dropped.
    for _ in 0..4 {
        match batch_outcome(c.recv().unwrap()) {
            Response::Error { code: ErrorCode::LogStalled, .. } => {}
            other => panic!("expected LogStalled at shutdown, got {other:?}"),
        }
    }
}
