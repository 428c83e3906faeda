//! What a burst of sync commits costs the device, end to end: the event
//! loop raises one settled flush demand per turn, so a burst that
//! arrives behind a sync already in flight gets exactly one more — over
//! all of it, started while the first is still in the device — and every
//! sync commit is parked exactly once: one reply slot, resumed by the
//! parker and by nobody else. The parker registers with each log once per
//! lowest offset awaited there, not once per commit: at most two
//! registrations a burst on each log it touches.
//!
//! The device is a real file backend whose `sync_data` sleeps and keeps
//! the interval of every call, per engine shard. Everything asserted is a
//! count the device paces: syncs per log, bytes per sync, registrations,
//! and whether two intervals overlap. *Which* rule started a sync, and
//! when, is the flusher's plan table (`crates/log/src/plan.rs`): the
//! followers' sync is row "≥ 1, two slots free / a settled demand", a
//! verdict-only tail that starts nothing behind a sync in flight is
//! "≥ 1 / nobody", and its start once the log is idle is "none / nobody".

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ermia::{DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_log::{FileBackend, LogManager, SegmentIo, SegmentIoFactory};
use ermia_server::{
    BatchOp, Client, ErrorCode, Request, Response, Server, ServerConfig, WireIsolation,
};
use ermia_telemetry::{SpanKind, Telemetry};

const LATENCY: Duration = Duration::from_millis(50);
const LONG: Duration = Duration::from_secs(10);
const BURST: usize = 16;
/// The parker's registrations with one log in a burst: one at the lowest
/// offset awaited there, and one more when that lands before the rest.
const MAX_REGISTRATIONS: u64 = 2;

/// `(start, end)` of every `sync_data`, per engine shard; and whether
/// the device has broken (every `sync_data` from then on fails).
#[derive(Debug, Default)]
struct Syncs(Mutex<[Vec<(Instant, Instant)>; 2]>, AtomicBool);

#[derive(Clone, Debug)]
struct Device {
    syncs: Arc<Syncs>,
    shard: usize,
    file: Option<Arc<dyn SegmentIo>>,
}

impl SegmentIoFactory for Device {
    fn open(&self, path: &Path) -> std::io::Result<Arc<dyn SegmentIo>> {
        // A sharded engine logs under `<dir>/shard-<i>`.
        let parent = path.parent().and_then(Path::file_name).and_then(|n| n.to_str());
        let shard = parent.and_then(|n| n.strip_prefix("shard-")).map_or(0, |i| i.parse().unwrap());
        Ok(Arc::new(Device { shard, file: Some(FileBackend.open(path)?), ..self.clone() }))
    }
}

impl Device {
    fn file(&self) -> &dyn SegmentIo {
        &**self.file.as_ref().expect("an opened segment")
    }
}

impl SegmentIo for Device {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        self.file().write_all_at(buf, offset)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.file().read_exact_at(buf, offset)
    }

    fn sync_data(&self) -> std::io::Result<()> {
        if self.syncs.1.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("the device broke"));
        }
        let start = Instant::now();
        let at = {
            let mut syncs = self.syncs.0.lock().unwrap();
            syncs[self.shard].push((start, start));
            syncs[self.shard].len() - 1
        };
        std::thread::sleep(LATENCY);
        self.syncs.0.lock().unwrap()[self.shard][at].1 = Instant::now();
        Ok(())
    }

    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.file().set_len(len)
    }
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + LONG;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

impl Syncs {
    fn count(&self, shard: usize) -> usize {
        self.0.lock().unwrap()[shard].len()
    }

    fn since(&self, shard: usize, from: usize) -> Vec<(Instant, Instant)> {
        self.0.lock().unwrap()[shard][from..].to_vec()
    }
}

fn config(dir: &Path, syncs: &Arc<Syncs>) -> DbConfig {
    let mut cfg = DbConfig::durable(dir);
    cfg.log.fsync = true;
    cfg.log.io_factory = Arc::new(Device { syncs: Arc::clone(syncs), shard: 0, file: None });
    cfg
}

fn server_config() -> ServerConfig {
    ServerConfig { shards: 1, worker_capacity: 2, ..ServerConfig::default() }
}

/// Everything logged so far is durable and the flusher has gone idle.
fn quiesce(log: &LogManager) {
    wait_for("the log to drain", || {
        log.durable_offset() == log.next_offset()
            && log.stats().syncs_in_flight.load(Ordering::Relaxed) == 0
    });
}

/// What a log has done so far, to subtract from what it has done later.
struct Mark {
    syncs: usize,
    flushed_bytes: u64,
    registrations: u64,
}

fn mark(log: &LogManager, syncs: &Syncs, shard: usize) -> Mark {
    quiesce(log);
    Mark {
        syncs: syncs.count(shard),
        flushed_bytes: log.stats().flushed_bytes.load(Ordering::Relaxed),
        registrations: log.waiter_registrations(),
    }
}

/// `SessionParked` and `SessionResumed` events recorded so far.
fn parked_and_resumed(telemetry: &Telemetry) -> [usize; 2] {
    let dump = telemetry.tracer().dump_spans(usize::MAX);
    [SpanKind::SessionParked, SpanKind::SessionResumed]
        .map(|kind| dump.iter().filter(|s| s.kind == kind).count())
}

fn sync_batch(table: u32, keys: &[Vec<u8>]) -> Request {
    Request::Batch {
        isolation: WireIsolation::Snapshot,
        sync: true,
        ops: keys
            .iter()
            .map(|key| BatchOp::Put { table, key: key.clone(), value: b"burst-value".to_vec() })
            .collect(),
    }
}

fn expect_committed(c: &mut Client, n: usize) {
    for i in 0..n {
        match c.recv().unwrap() {
            Response::BatchDone { outcome, .. } => {
                assert!(matches!(*outcome, Response::Committed { .. }), "reply {i}: {outcome:?}")
            }
            other => panic!("reply {i}: expected BatchDone, got {other:?}"),
        }
    }
}

/// Send request 0 alone, wait until its sync is in the device on every
/// log in `shards`, then the other fifteen in one segment.
fn opener_then_followers(c: &mut Client, requests: &[Request], syncs: &Syncs, from: &[usize]) {
    c.send(&requests[0]).unwrap();
    c.flush().unwrap();
    for (shard, &from) in from.iter().enumerate() {
        wait_for("the opener's sync to reach the device", || syncs.count(shard) > from);
    }
    for req in &requests[1..] {
        c.send(req).unwrap();
    }
    c.flush().unwrap();
    expect_committed(c, requests.len());
}

fn single_key(i: usize) -> Vec<Vec<u8>> {
    vec![format!("key-{i:02}").into_bytes()]
}

#[test]
fn burst_behind_an_opener_is_two_syncs() {
    let dir = TestDir::new("two-syncs");
    let syncs = Arc::new(Syncs::default());
    let db = ShardedDb::open(config(&dir, &syncs), 1).unwrap();
    db.create_table("kv");
    let srv = Server::start_sharded(&db, "127.0.0.1:0", server_config()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let log = db.shard(0).log();
    let before = mark(log, &syncs, 0);

    let requests: Vec<Request> = (0..BURST).map(|i| sync_batch(t, &single_key(i))).collect();
    opener_then_followers(&mut c, &requests, &syncs, &[before.syncs]);
    quiesce(log);

    let seen = syncs.since(0, before.syncs);
    assert_eq!(seen.len(), 2, "sixteen sync commits, the opener's sync and one more: {seen:?}");
    assert!(seen[1].0 < seen[0].1, "the followers' sync waited for the opener's to complete");
    // Equal transactions, equal blocks: the second batch is 15 ÷ 16 of
    // the bytes.
    let flushed = log.stats().flushed_bytes.load(Ordering::Relaxed) - before.flushed_bytes;
    let last = log.stats().last_batch_bytes.load(Ordering::Relaxed);
    assert_eq!(last * 16, flushed * 15, "the second sync did not cover the fifteen followers");
    // Every commit went one road: parked once, resumed once. The parker
    // registered with the log at the opener's offset, then at the lowest
    // follower's — not once per commit.
    let registrations = log.waiter_registrations() - before.registrations;
    assert!(registrations <= MAX_REGISTRATIONS, "{registrations} registrations");
    assert_eq!(parked_and_resumed(db.telemetry()), [BURST; 2]);
    assert_eq!(srv.stats().commits, BURST as u64);

    srv.shutdown();
    drop(db);
}

/// Sixteen frames in one segment are one turn and one demand: one sync
/// over all of them — or two, when the idle flusher's interval timeout
/// falls while the turn is still executing and takes what is filled by then.
/// Never one per stagger gap. Then the device breaks under a seventeenth.
#[test]
fn burst_in_one_turn_is_at_most_two_syncs() {
    let dir = TestDir::new("one-turn");
    let syncs = Arc::new(Syncs::default());
    let db = ShardedDb::open(config(&dir, &syncs), 1).unwrap();
    db.create_table("kv");
    let srv = Server::start_sharded(&db, "127.0.0.1:0", server_config()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let log = db.shard(0).log();
    let before = mark(log, &syncs, 0);

    for i in 0..BURST {
        c.send(&sync_batch(t, &single_key(i))).unwrap();
    }
    c.flush().unwrap();
    expect_committed(&mut c, BURST);
    quiesce(log);

    let seen = syncs.since(0, before.syncs);
    assert!(matches!(seen.len(), 1 | 2), "{seen:?}");
    assert!(seen.iter().all(|s| s.0 < seen[0].1), "a sync waited for the first to complete");
    let registrations = log.waiter_registrations() - before.registrations;
    assert!(registrations <= MAX_REGISTRATIONS, "{registrations} registrations");
    assert_eq!(parked_and_resumed(db.telemetry()), [BURST; 2]);

    // A commit on a log that fails under it takes the same road: it is
    // parked, and the parker's first look at the log answers `LogFailed`.
    syncs.1.store(true, Ordering::Relaxed);
    c.send(&sync_batch(t, &single_key(BURST))).unwrap();
    c.flush().unwrap();
    match c.recv().unwrap() {
        Response::BatchDone { outcome, .. } => assert!(
            matches!(*outcome, Response::Error { code: ErrorCode::LogFailed, .. }),
            "{outcome:?}"
        ),
        other => panic!("expected BatchDone, got {other:?}"),
    }
    assert_eq!(parked_and_resumed(db.telemetry()), [BURST + 1; 2]);

    srv.shutdown();
    drop(db);
}

/// Keys `i` of two series that hash to different engine shards.
fn cross_pair(i: usize) -> Vec<Vec<u8>> {
    let a = format!("pair-{i:02}-a").into_bytes();
    let b = (0u32..)
        .map(|j| format!("pair-{i:02}-b{j}").into_bytes())
        .find(|k| ermia::shard_of_key(k, 2) != ermia::shard_of_key(&a, 2))
        .expect("some key hashes to the other shard");
    vec![a, b]
}

#[test]
fn cross_shard_burst_is_two_syncs_per_log() {
    let dir = TestDir::new("cross");
    let syncs = Arc::new(Syncs::default());
    let db = ShardedDb::open(config(&dir, &syncs), 2).unwrap();
    db.create_table("kv");
    let srv = Server::start_sharded(&db, "127.0.0.1:0", server_config()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let before: Vec<Mark> = (0..2).map(|s| mark(db.shard(s).log(), &syncs, s)).collect();

    let requests: Vec<Request> = (0..BURST).map(|i| sync_batch(t, &cross_pair(i))).collect();
    let from: Vec<usize> = before.iter().map(|m| m.syncs).collect();
    opener_then_followers(&mut c, &requests, &syncs, &from);

    for (shard, before) in before.iter().enumerate() {
        let log = db.shard(shard).log();
        // The verdict records are unforced: the interval timer drains
        // them once the log is idle.
        quiesce(log);
        let seen = syncs.since(shard, before.syncs);
        assert!((3..=4).contains(&seen.len()), "shard {shard}: {seen:?}");
        assert!(seen[1].0 < seen[0].1, "shard {shard}: the followers' prepares waited");
        // Prepares: the opener's sync and one more. Every sync after
        // those carries verdicts only, and none starts while another is
        // in flight.
        for (k, tail) in seen.iter().enumerate().skip(2) {
            let busy_until = seen[..k].iter().map(|s| s.1).max().unwrap();
            assert!(tail.0 >= busy_until, "shard {shard}: verdict-only sync {k} overlaps");
        }
        // The parker's registrations, not one per prepare block.
        let registrations = log.waiter_registrations() - before.registrations;
        assert!(registrations <= MAX_REGISTRATIONS, "shard {shard}: {registrations} registrations");
    }
    assert_eq!(parked_and_resumed(db.telemetry()), [BURST; 2]);
    assert_eq!(srv.stats().commits, BURST as u64);

    srv.shutdown();
    drop(db);
}
