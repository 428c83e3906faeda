//! Overlapped group commit on real threads: safety only.
//!
//! *When* a sync starts and *what* a completion publishes are decided by
//! the flusher's plan and tested there — `crates/log/src/plan.rs`, the
//! two tables of the flusher's module docs run single-threaded with
//! numbers for time, plus a seeded property test. What is left for real
//! threads and a real log is that the driver around the plan keeps its
//! promises: no interface reports an offset durable before its own and
//! every earlier sync has returned, never more than four syncs in the
//! device, a failed or panicking sync poisons and `resume()` reaps what is
//! still in flight, and a waiter that registers late for a block the
//! flusher has already scanned still gets its flush.
//!
//! The device is [`Scripted`]: its `sync_data` calls block until the test
//! lets each one go, in whatever order and with whatever result it
//! chooses — so "a later sync finishes first" and "the second of three
//! fails" are forced, not hoped for. No test here asserts a cause, a
//! start instant or a latency; the ledger record of the change that moved
//! the start rule into `plan.rs` (under `results/ledger/`) names, for
//! every test that did and left this file, the row or property that now
//! holds what it checked.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ermia_common::{LogError, TestDir};
use ermia_log::{
    DurableWaker, FileBackend, LogConfig, LogManager, LogScanner, SegmentIo, SegmentIoFactory,
};

mod common;

const LONG: Duration = Duration::from_secs(10);

fn cfg(dir: &Path, device: Arc<dyn SegmentIoFactory>) -> LogConfig {
    LogConfig {
        dir: Some(dir.to_path_buf()),
        segment_size: 1 << 20,
        buffer_size: 64 << 10,
        fsync: true,
        flush_interval: Duration::from_micros(200),
        io_factory: device,
        wait_durable_timeout: LONG,
    }
}

/// Append one single-update transaction; returns its end offset.
fn append(log: &LogManager, id: u64) -> u64 {
    common::append(log, id, &id.to_be_bytes(), b"overlap").expect("healthy log allocates").1
}

/// Ids of the transactions a restart would recover from `dir`.
fn recovered_ids(dir: &Path) -> Vec<u64> {
    let log = LogManager::open(LogConfig { fsync: false, ..cfg(dir, Arc::new(FileBackend)) })
        .expect("reopen");
    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut ids = Vec::new();
    while let Some(block) = scanner.next_block().expect("scan") {
        for rec in block.records() {
            ids.push(u64::from_be_bytes(rec.key[..8].try_into().unwrap()));
        }
    }
    ids
}

// --- a device whose sync is whatever the test says -------------------------

type Hook = Arc<dyn Fn() -> std::io::Result<()> + Send + Sync>;

/// Real files behind [`FileBackend`]; every `write_all_at` and every
/// `sync_data` runs its hook first.
#[derive(Clone)]
struct Hooked {
    file: Option<Arc<dyn SegmentIo>>,
    on_write: Hook,
    on_sync: Hook,
}

/// The factory for a log whose syncs run `on_sync`.
fn hooked(on_sync: impl Fn() -> std::io::Result<()> + Send + Sync + 'static) -> Arc<Hooked> {
    hooked_io(|| Ok(()), on_sync)
}

/// The factory for a log whose writes run `on_write` and whose syncs
/// run `on_sync`.
fn hooked_io(
    on_write: impl Fn() -> std::io::Result<()> + Send + Sync + 'static,
    on_sync: impl Fn() -> std::io::Result<()> + Send + Sync + 'static,
) -> Arc<Hooked> {
    Arc::new(Hooked { file: None, on_write: Arc::new(on_write), on_sync: Arc::new(on_sync) })
}

impl std::fmt::Debug for Hooked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooked").field("file", &self.file).finish_non_exhaustive()
    }
}

impl SegmentIoFactory for Hooked {
    fn open(&self, path: &Path) -> std::io::Result<Arc<dyn SegmentIo>> {
        Ok(Arc::new(Hooked { file: Some(FileBackend.open(path)?), ..self.clone() }))
    }
}

impl Hooked {
    fn file(&self) -> &dyn SegmentIo {
        &**self.file.as_ref().expect("an opened segment")
    }
}

impl SegmentIo for Hooked {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        (self.on_write)()?;
        self.file().write_all_at(buf, offset)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.file().read_exact_at(buf, offset)
    }

    fn sync_data(&self) -> std::io::Result<()> {
        (self.on_sync)()
    }

    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.file().set_len(len)
    }
}

// --- the scripted device -------------------------------------------------

#[derive(Debug, Default)]
struct Script {
    /// Unarmed, syncs return `Ok` at once and are not numbered.
    armed: bool,
    /// Armed syncs that have entered `sync_data`: ids `0..started`, in
    /// the order the device saw them.
    started: usize,
    /// Per id: the result the test released it with.
    released: Vec<Option<bool>>,
    /// Per id: `sync_data` is about to return.
    returned: Vec<bool>,
    /// The most armed syncs ever inside `sync_data` at once.
    max_inside: usize,
    /// Writes block while this holds.
    hold_writes: bool,
    /// Writes that have blocked, ever.
    writes_held: usize,
}

/// Scripted syncs (on real files, see [`Hooked`]). Clones share the script.
#[derive(Clone, Debug, Default)]
struct Scripted(Arc<(Mutex<Script>, Condvar)>);

impl Scripted {
    fn with<R>(&self, f: impl FnOnce(&mut Script) -> R) -> R {
        let r = f(&mut self.0 .0.lock().unwrap());
        self.0 .1.notify_all();
        r
    }

    fn wait_until(&self, what: &str, cond: impl Fn(&Script) -> bool) {
        let (mx, cv) = &*self.0;
        let (_guard, timeout) =
            cv.wait_timeout_while(mx.lock().unwrap(), LONG, |s| !cond(s)).unwrap();
        assert!(!timeout.timed_out(), "timed out waiting for {what}");
    }

    /// From now on every sync is numbered and blocks until released.
    fn arm(&self) {
        self.with(|s| s.armed = true);
    }

    /// New syncs pass again; the ones already blocked stay blocked.
    fn disarm(&self) {
        self.with(|s| s.armed = false);
    }

    /// Block until `n` armed syncs are inside the device.
    fn wait_started(&self, n: usize) {
        self.wait_until(&format!("sync #{n} to reach the device"), |s| s.started >= n);
    }

    /// Let sync `id` return — `Ok` or an error — and wait until it has.
    fn release(&self, id: usize, ok: bool) {
        self.with(|s| s.released[id] = Some(ok));
        self.wait_until(&format!("sync {id} to return"), |s| s.returned[id]);
    }
}

/// Lets every blocked sync and write go when dropped. Declared (or, as a field,
/// placed) so that it drops before the log: a failed assertion then
/// unwinds into a log that can shut down, instead of hanging the test.
struct Unblock(Scripted);

impl Drop for Unblock {
    fn drop(&mut self) {
        self.0.with(|s| {
            s.armed = false;
            s.hold_writes = false;
            s.released.iter_mut().for_each(|r| *r = r.or(Some(true)));
        });
    }
}

impl Scripted {
    fn factory(&self) -> Arc<dyn SegmentIoFactory> {
        let (writes, syncs) = (self.clone(), self.clone());
        hooked_io(move || writes.write(), move || syncs.sync())
    }

    fn write(&self) -> std::io::Result<()> {
        let (mx, cv) = &*self.0;
        let mut s = mx.lock().unwrap();
        if s.hold_writes {
            s.writes_held += 1;
            cv.notify_all();
            drop(cv.wait_while(s, |s| s.hold_writes).unwrap());
        }
        Ok(())
    }

    fn sync(&self) -> std::io::Result<()> {
        let (mx, cv) = &*self.0;
        let mut s = mx.lock().unwrap();
        if !s.armed {
            return Ok(());
        }
        let id = s.started;
        s.started += 1;
        s.released.push(None);
        s.returned.push(false);
        let inside = s.returned.iter().filter(|&&r| !r).count();
        s.max_inside = s.max_inside.max(inside);
        cv.notify_all();
        s = cv.wait_while(s, |s| s.released[id].is_none()).unwrap();
        s.returned[id] = true;
        cv.notify_all();
        if s.released[id] == Some(true) {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("scripted failure of sync {id}")))
        }
    }
}

/// A log on a scripted device with `n` tickets in the device at once:
/// ticket `i` covers exactly transaction `i` and ends at `ends[i]`.
struct Overlapped {
    _unblock: Unblock,
    dir: TestDir,
    dev: Scripted,
    log: Arc<LogManager>,
    /// The durable watermark before any ticket.
    base: u64,
    ends: Vec<u64>,
    /// One blocking `wait_durable(ends[i])` per ticket; each reports
    /// `(i, result)` when it returns.
    verdicts: mpsc::Receiver<(usize, Result<(), LogError>)>,
    waiters: Vec<std::thread::JoinHandle<()>>,
}

fn overlapped(tag: &str, n: usize) -> Overlapped {
    let dir = TestDir::new(tag);
    let dev = Scripted::default();
    let log = Arc::new(LogManager::open(cfg(&dir, dev.factory())).unwrap());
    log.sync().unwrap();
    let base = log.durable_offset();
    dev.arm();
    let (tx, verdicts) = mpsc::channel();
    let mut ends = Vec::new();
    let mut waiters = Vec::new();
    for i in 0..n {
        let end = append(&log, i as u64);
        ends.push(end);
        let (log, tx) = (Arc::clone(&log), tx.clone());
        // The waiter's demand is what makes the flusher write this
        // block and issue its ticket now — behind the syncs already in
        // the device, none of which has returned.
        waiters.push(std::thread::spawn(move || {
            let _ = tx.send((i, log.wait_durable(end)));
        }));
        dev.wait_started(i + 1);
    }
    assert_eq!(log.stats().syncs_in_flight.load(Ordering::Relaxed), n as u64);
    Overlapped { _unblock: Unblock(dev.clone()), dir, dev, log, base, ends, verdicts, waiters }
}

impl Overlapped {
    /// End of the longest prefix of tickets that have all completed.
    fn prefix_end(&self, completed: &[bool]) -> (usize, u64) {
        let k = completed.iter().take_while(|&&c| c).count();
        (k, if k == 0 { self.base } else { self.ends[k - 1] })
    }

    /// The watermark must never pass `expected`, and must reach it.
    fn settle(&self, expected: u64) {
        // A flusher that published on *any* completion would overshoot
        // within microseconds of the release; hold long enough to see it.
        let hold = Instant::now() + Duration::from_millis(5);
        let deadline = Instant::now() + LONG;
        loop {
            let durable = self.log.durable_offset();
            assert!(
                durable <= expected,
                "durable watermark {durable:#x} passed {expected:#x}, the end of the \
                 in-order completed prefix"
            );
            let now = Instant::now();
            if durable == expected && now >= hold {
                return;
            }
            assert!(now < deadline, "durable watermark stuck at {durable:#x} below {expected:#x}");
            std::thread::yield_now();
        }
    }

    /// Join the waiters and shut the log down; the directory is ready
    /// to be recovered.
    fn finish(mut self) -> TestDir {
        for w in self.waiters.drain(..) {
            w.join().unwrap();
        }
        self.dir
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(rest: &mut Vec<usize>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(cur.clone());
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            cur.push(x);
            go(rest, cur, out);
            cur.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    go(&mut (0..n).collect(), &mut Vec::new(), &mut out);
    out
}

/// The durability invariant: for every completion order of up to four
/// overlapping tickets, at every step, no interface reports an offset
/// durable while its own or any earlier sync is still pending.
#[test]
fn watermark_follows_the_in_order_completed_prefix() {
    for n in 1..=4 {
        for order in permutations(n) {
            let o = overlapped("order", n);
            let waker = DurableWaker::default();
            let mut completed = vec![false; n];
            let mut reported = vec![false; n];
            o.settle(o.base);
            for &id in &order {
                o.dev.release(id, true);
                completed[id] = true;
                let (k, expected) = o.prefix_end(&completed);
                o.settle(expected);
                for (i, &end) in o.ends.iter().enumerate() {
                    let ctx = format!("order {order:?}, after sync {id}: ticket {i}");
                    if i < k {
                        assert_eq!(o.log.durable_status(end), Ok(true), "{ctx}");
                        assert!(o.log.subscribe_durable(end, &waker).is_none(), "{ctx}");
                    } else {
                        assert_eq!(o.log.durable_status(end), Ok(false), "{ctx}");
                        assert!(o.log.subscribe_durable(end, &waker).is_some(), "{ctx}");
                    }
                }
                // Blocked waiters: exactly the prefix has been let go.
                while reported.iter().filter(|&&r| r).count() < k {
                    let (i, verdict) =
                        o.verdicts.recv_timeout(LONG).expect("a prefix waiter returns");
                    assert_eq!(verdict, Ok(()), "order {order:?}: waiter {i}");
                    reported[i] = true;
                }
                assert!(
                    o.verdicts.try_recv().is_err(),
                    "order {order:?}: a waiter above the prefix returned"
                );
                assert!(reported[..k].iter().all(|&r| r) && reported[k..].iter().all(|&r| !r));
            }
            assert_eq!(o.log.stats().syncs_in_flight.load(Ordering::Relaxed), 0);
            let dir = o.finish();
            assert_eq!(recovered_ids(&dir), (0..n as u64).collect::<Vec<_>>());
        }
    }
}

/// Fail the second of three overlapping syncs — after the third has
/// already returned `Ok`: the watermark freezes at the end of the first
/// ticket, waiters above it are poisoned, the one below is acknowledged;
/// `resume()` restores service and the gap stays lost.
#[test]
fn failed_sync_freezes_the_watermark_below_it() {
    let o = overlapped("fail-2nd", 3);
    o.dev.release(2, true);
    o.settle(o.base);
    o.dev.release(0, true);
    o.settle(o.ends[0]);
    o.dev.release(1, false);
    let mut verdicts: Vec<_> = (0..3).map(|_| o.verdicts.recv_timeout(LONG).unwrap()).collect();
    verdicts.sort_by_key(|v| v.0);
    assert_eq!(verdicts[0].1, Ok(()));
    for (i, verdict) in &verdicts[1..] {
        assert!(matches!(verdict, Err(LogError::Poisoned { .. })), "waiter {i}: {verdict:?}");
    }
    assert!(o.log.is_poisoned());
    assert_eq!(
        o.log.durable_offset(),
        o.ends[0],
        "frozen below every byte the failed sync covered"
    );
    assert!(o.log.allocate(64).is_err());

    o.dev.disarm();
    o.log.resume().expect("resume on a repaired device");
    assert!(!o.log.is_poisoned());
    assert_eq!(o.log.stats().syncs_in_flight.load(Ordering::Relaxed), 0);
    for id in 10..13 {
        let end = append(&o.log, id);
        o.log.wait_durable(end).expect("post-resume commit");
    }
    assert_eq!(o.log.durable_status(o.ends[0]), Ok(true));
    for &end in &o.ends[1..] {
        // Ticket 2's bytes were written and even synced, but never
        // acknowledged: they are part of the gap all the same.
        assert!(matches!(o.log.durable_status(end), Err(LogError::Poisoned { .. })));
        assert!(matches!(o.log.wait_durable(end), Err(LogError::Poisoned { .. })));
    }
    let dir = o.finish();
    assert_eq!(recovered_ids(&dir), vec![0, 10, 11, 12]);
}

/// A sync fails while a later one is still in the device: the log
/// poisons at once, but `resume()` does not touch the files before that
/// sync has returned and its helper is gone.
#[test]
fn resume_reaps_syncs_still_in_flight() {
    let o = overlapped("reap", 3);
    o.dev.release(0, true);
    o.dev.release(1, false);
    // All three waiters hear at once; nobody waits for sync 2.
    for _ in 0..3 {
        let (i, verdict) = o.verdicts.recv_timeout(LONG).unwrap();
        assert_eq!(verdict.is_ok(), i == 0, "waiter {i}: {verdict:?}");
    }
    assert!(o.log.is_poisoned());
    assert_eq!(o.log.durable_offset(), o.ends[0]);

    o.dev.disarm();
    let resumed = {
        let log = Arc::clone(&o.log);
        std::thread::spawn(move || log.resume())
    };
    // Cannot fail on a correct build: resume is stuck behind sync 2.
    std::thread::sleep(Duration::from_millis(20));
    assert!(!resumed.is_finished() && o.log.is_poisoned(), "resume ran past a sync in flight");
    o.dev.release(2, true);
    resumed.join().unwrap().expect("resume once the last sync is back");
    assert_eq!(o.log.durable_status(o.ends[0]), Ok(true));
    assert!(o.log.durable_status(o.ends[2]).is_err(), "synced late, acknowledged never");
    let end = append(&o.log, 10);
    o.log.wait_durable(end).unwrap();
    let dir = o.finish();
    assert_eq!(recovered_ids(&dir), vec![0, 10]);
}

/// Bytes nobody waits for start no sync behind one in flight, so the
/// flusher may have *scanned* a block and left it unwritten. Somebody who
/// then starts to wait for it must get the flusher's attention — "filled,
/// so its flush is underway" does not hold — and not wait for an
/// unrelated completion.
#[test]
fn late_subscription_to_a_scanned_block_gets_its_flush() {
    let dir = TestDir::new("late-sub");
    let dev = Scripted::default();
    let log = LogManager::open(cfg(&dir, dev.factory())).unwrap();
    let _unblock = Unblock(dev.clone());
    log.sync().unwrap();
    let base = log.durable_offset();
    dev.arm();
    let waker = DurableWaker::default();
    let first = append(&log, 0);
    let _sub0 = log.subscribe_durable(first, &waker).expect("not durable yet");
    dev.wait_started(1);
    // The second batch's write is held, so the unforced block lands
    // above it: the thread the writer role passes to next scans it and
    // — two syncs in flight, nobody waiting — leaves it in the ring.
    dev.with(|s| s.hold_writes = true);
    let second = append(&log, 1);
    let _sub1 = log.subscribe_durable(second, &waker).expect("not durable yet");
    dev.wait_until("the second batch's write", |s| s.writes_held == 1);
    let unforced = append(&log, 2);
    dev.with(|s| s.hold_writes = false);
    dev.wait_started(2);
    let deadline = Instant::now() + LONG;
    while log.ring_occupancy() < unforced - base {
        assert!(Instant::now() < deadline, "the flusher never scanned the unforced block");
        std::thread::yield_now();
    }
    let _sub2 = log.subscribe_durable(unforced, &waker).expect("not durable yet");
    // Syncs 0 and 1 are still in the device and stay there.
    dev.wait_started(3);
    dev.release(2, true);
    assert_eq!(log.durable_status(unforced), Ok(false));
    dev.release(1, true);
    dev.release(0, true);
    log.wait_durable(unforced).unwrap();
    drop(log);
}

/// The slots are a bound, whoever asks: with four syncs in the device a
/// fifth commit — registered, and demanded — starts none, and gets its
/// sync when the oldest ticket is published.
#[test]
fn a_fifth_sync_waits_for_a_slot() {
    let o = overlapped("cap", 4);
    let waker = DurableWaker::default();
    let fifth = append(&o.log, 4);
    let _sub = o.log.subscribe_durable(fifth, &waker).expect("not durable yet");
    o.log.demand_flush(fifth);
    // The last ticket returning frees nothing: it is not published.
    o.dev.release(3, true);
    // Cannot fail on a correct build: time for a fifth sync to start.
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(o.dev.with(|s| s.started), 4, "a fifth sync started with four tickets out");
    o.dev.release(0, true);
    o.dev.wait_started(5);
    for id in [1, 2, 4] {
        o.dev.release(id, true);
    }
    o.log.wait_durable(fifth).unwrap();
    assert_eq!(o.dev.with(|s| s.max_inside), 4);
    let dir = o.finish();
    assert_eq!(recovered_ids(&dir), (0..5).collect::<Vec<_>>());
}

/// A backend that panics inside `sync_data` poisons the log like one
/// that returns an error; neither the waiter nor `Drop` hangs on a
/// helper that died.
#[test]
fn panicking_backend_poisons_the_log() {
    let dir = TestDir::new("panicky");
    let log =
        LogManager::open(cfg(&dir, hooked(|| panic!("scripted panic in sync_data")))).unwrap();
    // The skip block `open` burns offset 0 with is the first thing synced.
    let end = log.next_offset();
    assert!(matches!(log.wait_durable(end), Err(LogError::Poisoned { .. })));
    assert_eq!(log.durable_offset(), 0);
    drop(log);
}

/// One thread writes a batch, runs its sync and tells its waiter: no
/// hand-off stands between the `pwrite`, the device sync and the wake.
#[test]
fn the_thread_that_writes_a_batch_syncs_it_and_rings_its_waiter() {
    type Seen = Arc<Mutex<Vec<(&'static str, std::thread::ThreadId)>>>;
    let seen: Seen = Arc::default();
    let note = |what: &'static str| {
        let seen = Arc::clone(&seen);
        move || {
            seen.lock().unwrap().push((what, std::thread::current().id()));
            Ok(())
        }
    };
    let dir = TestDir::new("one-thread");
    let log = LogManager::open(cfg(&dir, hooked_io(note("write"), note("sync")))).unwrap();
    log.sync().unwrap();
    for id in 0..3 {
        seen.lock().unwrap().clear();
        let end = append(&log, id);
        let ring = note("ring");
        let waker = DurableWaker::ringing(move || ring().unwrap());
        let _sub = log.subscribe_durable(end, &waker).expect("not durable yet");
        let deadline = Instant::now() + LONG;
        while !seen.lock().unwrap().iter().any(|&(what, _)| what == "ring") {
            assert!(Instant::now() < deadline, "batch {id}: the waiter was never rung");
            std::thread::yield_now();
        }
        let seen = seen.lock().unwrap().clone();
        let on = |what| seen.iter().filter(move |s| s.0 == what).map(|s| s.1);
        let syncer = on("sync").next().expect("the batch was synced");
        let mut failed = Vec::new();
        if !on("write").all(|t| t == syncer) {
            failed.push("written and synced on different threads");
        }
        if !on("ring").all(|t| t == syncer) {
            failed.push("its waiter rung on another thread than its sync");
        }
        assert!(failed.is_empty(), "batch {id}: {}: {seen:?}", failed.join(", "));
    }
}

/// The head sync fails just after a settled demand woke the writer, which
/// finds every slot taken and goes back to sleep: the poison reaches it
/// however late it parks, and the log shuts down.
#[test]
fn a_failed_head_sync_reaches_a_writer_going_back_to_sleep() {
    let o = overlapped("poison-wakes-writer", 4);
    // Let the writer role's next holder start and park; the demand below
    // wakes it, and it goes back to sleep — deaf to fills, every slot
    // taken — as the failure lands.
    std::thread::sleep(Duration::from_millis(20));
    let end = append(&o.log, 4);
    o.log.demand_flush(end);
    std::thread::sleep(Duration::from_millis(1));
    o.dev.release(0, false);
    (1..4).for_each(|id| o.dev.release(id, true));
    for _ in 0..4 {
        let (i, verdict) = o.verdicts.recv_timeout(LONG).unwrap();
        assert!(matches!(verdict, Err(LogError::Poisoned { .. })), "waiter {i}: {verdict:?}");
    }
    assert!(o.log.is_poisoned());
    let Overlapped { log, waiters, dir, .. } = o;
    waiters.into_iter().for_each(|w| w.join().unwrap());
    let log = Arc::into_inner(log).expect("the waiters are gone");
    let (tx, dropped) = mpsc::channel();
    std::thread::spawn(move || {
        drop(log);
        let _ = tx.send(());
    });
    assert!(dropped.recv_timeout(LONG).is_ok(), "a log thread slept through the poison");
    drop(dir);
}
