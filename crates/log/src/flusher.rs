//! Background group commit: one writer at a time, overlapped device
//! syncs, and a durable watermark that advances in order.
//!
//! A commit's stamp *and* its log space are fixed by one `fetch_add`
//! (§3.3), so nothing downstream has to happen in stamp order or one at
//! a time — only the *acknowledgement* must wait for a prefix. The
//! flusher is built on exactly that freedom, out of one kind of thread
//! (`log-flusher`, at most `MAX_SYNCS_IN_FLIGHT` + 1 of them a log):
//!
//! ```text
//!  ring ──► writer role ───────► ticket ──────────────► in-order publish
//!           drain the filled     (hi, touched segments) durable watermark,
//!           prefix, pwrite it    hand the role on, then stats, and after the
//!           in offset order      sync_data — on this    lock the waiters it
//!                                thread, up to          covers — on this
//!                                MAX_SYNCS_IN_FLIGHT    thread, if its sync
//!                                threads at a time      ends the prefix
//! ```
//!
//! * **Writer.** One thread at a time holds the writer role and alone
//!   consumes the ring: it drains the contiguous filled prefix into the
//!   segment files with positional writes, skipping dead zones, strictly
//!   in offset order. The role passes between threads under the log's
//!   mutex, so the device sees every write in one deterministic order.
//! * **Tickets.** What a batch of writes still owes is a device sync of
//!   the segments it touched: a *ticket* `(hi, touched)`. The writer
//!   hands the role to an idle thread (or starts one) and runs the sync
//!   itself, so the next batch is drained, written and issued while
//!   earlier syncs are still in the device. A sync covers every byte
//!   written to its files before it was issued, so ticket *k* returning
//!   `Ok` makes all of `[.., hi_k)` in its segments durable.
//! * **In-order publish.** The thread whose completion extends the
//!   in-order completed prefix of tickets publishes it, under the
//!   mutex: the durable watermark, the `flush_batches`/`flushed_bytes`
//!   accounting (one batch = one completed ticket) and the sync observer
//!   advance to `hi_k` when tickets `1..=k` have all returned `Ok`, and
//!   the ring space below it is released; exactly the waiters the
//!   watermark covers are woken after the lock drops, each on its own
//!   condvar. It kicks the writer only if the writer waits for that: it
//!   paces, or it waits with syncs in flight and the log is now idle.
//!
//! # What a completion publishes
//!
//! | completes | with | published |
//! |---|---|---|
//! | the oldest ticket outstanding | `Ok` | it, and every completed ticket behind it, in issue order |
//! | a later ticket | `Ok` | nothing, until every ticket before it has completed |
//! | any ticket | an error | what completed `Ok` before it, then nothing more, whatever the tickets behind it report |
//!
//! Acknowledging a prefix is enough, and it is all recovery can use:
//! stamp order was fixed at reservation, and the recovery scan stops at
//! the first hole — bytes beyond a range whose sync is still pending (or
//! failed) may be on the medium, but no commit in them has been
//! acknowledged and a crash is free to lose them.
//!
//! A log with nothing to sync (in-memory, or `fsync: false`) issues
//! tickets complete as written, which the writer publishes: the role
//! never moves, and the log has one thread until a sync needs a second.
//!
//! # A decision and a driver
//!
//! Which prefix a completion publishes, and when the next sync starts,
//! are decided by `plan::Plan`: a state machine over plain numbers that
//! touches no clock, atomic, lock or thread. This file is its driver:
//! once per turn of the writer role it reads the ring and the clock into
//! one snapshot, asks the plan, and does what it is told — scan, `pwrite`,
//! issue a ticket and sync it, or sleep (for fills, to an instant, or for
//! a publish). The two tables in these docs are the plan's unit
//! tests, case by case, with numbers for time (`plan::tests`, which fail
//! if a row here and a case there drift apart); what is tested on real
//! threads (`tests/overlap.rs`) is safety only.
//!
//! # When a sync starts: when somebody who has finished filling asks
//!
//! Three things can ask for a sync, and the rule below is all there is —
//! no option selects among them:
//!
//! * a **registered target**: a durability waiter
//!   ([`crate::LogManager::wait_durable`],
//!   [`crate::LogManager::subscribe_durable`]) whose offset lies above
//!   the written prefix. It says "I wait for these bytes" and nothing
//!   about whether more are coming;
//! * a **settled demand** ([`crate::LogManager::demand_flush`]): its
//!   caller — the server's event loop at the end of a turn — has filled
//!   everything it will fill before it next waits. Holding the bytes back
//!   can no longer make the batch larger;
//! * **nobody**: records appended unforced (2PC verdicts, asynchronous
//!   commits), or a quarter of the ring accumulated — which counts as a
//!   demand, a writer is about to wait for space.
//!
//! | in flight | what asks | the sync starts | `cause` |
//! |---|---|---|---|
//! | none | a target or a settled demand | at once, over the whole filled prefix: one request outstanding costs one sync and waits for nothing else | `idle` |
//! | none | nobody | when the writer next sees the bytes: within `flush_interval` of the append (the timeout an idle writer sleeps with; unforced fills do not wake it), or when the publish that left the log idle kicks it, for bytes that sat out the syncs in flight (filled by that publish; later ones wait for the timer) | `timer` |
//! | ≥ 1 | nobody | not at all: bytes nobody waits for start no sync of their own. They ride the next one somebody asks for, or go when the log is idle again | — |
//! | ≥ 1, two slots free | a settled demand | at once, over the whole filled prefix | `demand` |
//! | ≥ 1 | a target only, or a settled demand for the last free slot | one `last measured sync latency ÷ MAX_SYNCS_IN_FLIGHT` after the previous start; until a latency has been measured, after a completion | `clock` |
//! | `MAX_SYNCS_IN_FLIGHT` | anybody | not before a completion | — |
//!
//! The clock is what is left of the self-clocked stagger: it spaces the
//! starts of demands that may still grow (sixteen threads blocking in
//! `wait_durable` one after another should not get a sync each) and it
//! keeps the *last* slot from a stream of one-commit turns, which would
//! otherwise shred into one-commit syncs that exhaust the slots and leave
//! everything behind them a whole latency from a free one. While a start
//! is not yet due the writer sleeps *through* fills and registrations to
//! that instant — a kick that cannot start a sync would only buy a
//! context switch — and wakes for a publish or, while two slots are
//! free, a settled demand.
//!
//! `results/ledger/PR-20.md` draws one sixteen-commit window of the
//! ledger's `wire_sync_write` by the stagger clock alone and by this
//! rule. On `wire_2pc` the clock alone flushed one request's unforced
//! verdict by itself, and the next request's prepares waited out the
//! gap behind that sync; now a verdict rides the next sync somebody asks
//! for, or goes when the log is idle.
//!
//! A scanned block is therefore not necessarily on its way to the device:
//! a waiter that registers for one the flusher has already seen — and
//! left in the ring because nobody wanted it then — kicks the flusher if
//! its target lies above the *written* offset
//! ([`crate::buffer::RingBuffer::kick_if_unwritten`]).
//!
//! # Resident size of the ring
//!
//! A ring is touched from end to end as the log advances, so left alone
//! its resident size grows with every byte ever logged until it equals
//! the capacity — 64 MiB per log by default — for a buffer that only has
//! to hold what accumulates during one flush. The ring is an
//! [`ermia_common::Region`] — zero and not resident until written — and
//! it is its own availability map (`buffer.rs`), so there is nothing
//! beside it. Each publish hands the durable bytes' space back to the
//! ring ([`crate::buffer::RingBuffer::free_space`]), under the log's
//! mutex, whichever thread publishes. A
//! ring of 16 MiB and up gives drained memory back to the operating
//! system as it publishes space (a page handed back reads zero, which is
//! what the next lap's scan needs of every fill's start anyway), so what
//! is resident follows the bytes in flight. To batch those calls such a
//! ring advances its *space* watermark 256 KiB at a time (one 64-page
//! `madvise` every 0.1–0.2 s at a few MB/s of log), so it trails the
//! durable watermark by less than a chunk, except that a reservation
//! parked for space gets every durable byte at the next publish (or,
//! on an idle log, within `flush_interval`). Pages can only be
//! dropped *before* the space they occupy is published to writers (below
//! the published watermark the next lap is already admitted), which is
//! why one call does both. Space is released only over the in-order
//! completed prefix, like everything else. The durable watermark, which
//! is what committers wait on, is never delayed.
//!
//! # Failure handling
//!
//! Segment writes that fail with a *transient* error (`Interrupted`,
//! `WouldBlock`, `TimedOut`) are retried with bounded exponential
//! backoff. Anything else — and any `sync_data` failure, which is never
//! retryable (a failed fsync says nothing about which dirty pages were
//! lost) — *poisons* the log: the durable watermark freezes, every
//! current and future durability waiter is woken with
//! [`ermia_common::LogError::Poisoned`], the ring buffer stops accepting
//! writers, and the log's threads exit, each one in a sync when it
//! returns. The thread that finds the failure poisons the log, with its
//! error. A failed sync on ticket *k* freezes the watermark at the end of
//! ticket *k − 1* — below every byte the failed sync covered — whatever
//! tickets *k + 1…* report: nothing is published after it. An operator
//! can later bring the log back without a restart via
//! [`crate::LogManager::resume`], which joins every log thread — and with
//! them every sync in flight — re-probes the backend and re-arms a fresh
//! flusher.

use std::io;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ermia_common::LogError;

use crate::manager::{LogInner, SyncCause, WaiterSlot};
use crate::plan::{Failed, Next, Plan, Published, Snapshot, MAX_SYNCS_IN_FLIGHT};
use crate::segment::Segment;

/// Transient-error retry budget: 6 attempts, 100µs..=3.2ms backoff.
const MAX_WRITE_RETRIES: u32 = 6;
const BACKOFF_BASE_MICROS: u64 = 100;

/// What a log's threads share: one mutex, and two ways to get attention.
pub(crate) struct LogThreads {
    state: Mutex<State>,
    /// Idle threads wait here for the writer role, or to exit.
    handed: Condvar,
    /// A publish the role holder waits for happened: set after the mutex
    /// drops, before a kick; cleared at the start of each holder's turn.
    kicked: AtomicBool,
    /// What the plan's nanoseconds count from.
    epoch: Instant,
}

struct State {
    plan: Plan,
    /// Per slot: a failed sync's error, until the plan reaches its ticket.
    errors: [Option<io::Error>; MAX_SYNCS_IN_FLIGHT],
    /// A thread holds the writer role.
    role_taken: bool,
    /// The role holder's last decision: what a publish has to wake it for.
    decided: Next,
    /// What sat out the syncs in flight when a publish left the log idle
    /// under a waiting holder: all that its next unforced start takes.
    sat_out: Option<u64>,
    /// The threads are on their way out — told to stop, or the log
    /// poisoned: nothing more is started or published.
    closed: bool,
    /// Threads waiting on `handed`, and threads started in all.
    idle: usize,
    started: usize,
    /// Every thread started and not yet taken by [`join`].
    threads: Vec<JoinHandle<()>>,
}

impl State {
    fn new(written: u64) -> State {
        State {
            plan: Plan::new(written),
            errors: std::array::from_fn(|_| None),
            role_taken: false,
            decided: Next::Wait(true),
            sat_out: None,
            closed: false,
            idle: 0,
            started: 0,
            threads: Vec::new(),
        }
    }
}

impl LogThreads {
    pub(crate) fn new(written: u64) -> LogThreads {
        LogThreads {
            state: Mutex::new(State::new(written)),
            handed: Condvar::new(),
            kicked: AtomicBool::new(false),
            epoch: Instant::now(),
        }
    }
}

/// Start a log's first thread, over a plan that begins at the ring's
/// space watermark. Every thread before it must have been joined.
pub(crate) fn start(inner: &Arc<LogInner>) {
    let mut st = inner.threads.state.lock().unwrap();
    debug_assert!(st.threads.is_empty(), "a log restarted with its threads still running");
    *st = State::new(inner.buffer.flushed());
    spawn(inner, &mut st);
}

/// Join every thread of the log, those started while this waits
/// included. They exit once told to stop (`LogInner::stop`) and idle,
/// or once the log has poisoned and each has finished its sync.
pub(crate) fn join(inner: &LogInner) {
    loop {
        let threads = std::mem::take(&mut inner.threads.state.lock().unwrap().threads);
        if threads.is_empty() {
            return inner.stats.syncs_in_flight.store(0, Ordering::Relaxed);
        }
        for thread in threads {
            let _ = thread.join();
        }
    }
}

fn spawn(inner: &Arc<LogInner>, st: &mut State) {
    let inner = Arc::clone(inner);
    let thread = std::thread::Builder::new()
        .name("log-flusher".into())
        .spawn(move || run(&inner))
        .expect("spawn a log thread");
    st.threads.push(thread);
    st.started += 1;
}

/// The segments one batch of writes touched; the waiters a publish wakes.
type Touched = Vec<Arc<Segment>>;
type Ready = Vec<Arc<WaiterSlot>>;

/// The one body of every log thread: take the writer role, write until a
/// batch owes a sync, hand the role on, run the sync, publish — again,
/// until the log stops or poisons.
fn run(inner: &Arc<LogInner>) {
    // Scratch, reused batch after batch.
    let (mut touched, mut ready) = (Vec::new(), Vec::new());
    while take_role(inner) {
        match write(inner, &mut touched, &mut ready) {
            Ok(Some(slot)) => sync(inner, slot, &mut touched, &mut ready),
            Ok(None) => return close(inner, None),
            Err(err) => return close(inner, Some(err)),
        }
    }
}

/// Wait until the writer role is free and take it; `false` once the
/// threads are closed.
fn take_role(inner: &LogInner) -> bool {
    let threads = &inner.threads;
    let mut st = threads.state.lock().unwrap();
    while st.role_taken && !st.closed {
        st.idle += 1;
        st = threads.handed.wait(st).unwrap();
        st.idle -= 1;
    }
    st.role_taken = true;
    !st.closed
}

/// The writer role: scan, `pwrite`, issue — until a ticket owes a sync
/// (its slot, the role handed on), or until told to stop with nothing
/// left to do (`None`), or until a write fails.
fn write(
    inner: &Arc<LogInner>,
    touched: &mut Touched,
    ready: &mut Ready,
) -> io::Result<Option<usize>> {
    let (buffer, threads) = (&inner.buffer, &inner.threads);
    // Or poisoned: `RingBuffer::poison` stores that before it notifies
    // under the park's mutex, so a holder parking late sees it.
    let kicked = || threads.kicked.load(Ordering::Acquire) || buffer.is_poisoned();
    loop {
        threads.kicked.store(false, Ordering::Relaxed);
        let hi = buffer.advance_filled();
        let mut st = threads.state.lock().unwrap();
        if st.closed {
            return Ok(None);
        }
        let now_ns = threads.epoch.elapsed().as_nanos() as u64;
        let snapshot = Snapshot {
            now_ns,
            filled: hi,
            flushed: buffer.flushed(),
            capacity: buffer.capacity(),
            demand_hi: buffer.demand_hi(),
            urged: buffer.urged(),
        };
        let mut next = st.plan.next(snapshot);
        let written = st.plan.written();
        // Kicked by the publish that left the log idle: bytes filled
        // since wait for the timer, as they would on an idle log.
        let mut end = hi;
        if let (Some(tip), Next::Start(SyncCause::Timer)) = (st.sat_out.take(), next) {
            end = hi.min(tip);
            if end == written {
                next = Next::Wait(true);
            }
        }
        st.decided = next;
        drop(st);
        match next {
            Next::Start(cause) => {
                write_batch(inner, written, end, touched)?;
                let mut st = threads.state.lock().unwrap();
                if st.closed {
                    return Ok(None);
                }
                let synced = !touched.is_empty();
                let slot = st.plan.issue(end, synced, threads.epoch.elapsed().as_nanos() as u64);
                buffer.set_written(end);
                if !synced {
                    // Nothing to sync: published here and now.
                    publish(inner, st, ready);
                    continue;
                }
                inner.stats.syncs_in_flight.store(st.plan.in_flight() as u64, Ordering::Relaxed);
                inner.stats.sync_starts[cause as usize].fetch_add(1, Ordering::Relaxed);
                // Hand the role on before the sync: to an idle thread, or a
                // new one up to one per slot and one to write. At that
                // bound a thread is on its way back from a sync.
                st.role_taken = false;
                buffer.hand_over_consumer();
                if st.idle > 0 {
                    threads.handed.notify_one();
                } else if st.started <= MAX_SYNCS_IN_FLIGHT {
                    spawn(inner, &mut st);
                }
                return Ok(Some(slot));
            }
            Next::Pace(until, urgeable) => {
                // Asleep *through* fills and plain demand kicks: they
                // cannot move the instant. A settled demand can.
                let wait = until.map(|due| Duration::from_nanos(due - now_ns));
                buffer.sleep_through_fills(wait, urgeable, kicked);
            }
            Next::Wait(idle) => {
                // In flight, a publish that leaves the log idle ends the
                // wait, or a waiter for what is filled; idle, the timer
                // comes round for what is appended unforced.
                let unwritten = hi > written;
                let timeout = idle.then_some(inner.cfg.flush_interval);
                let filled = buffer
                    .wait_filled(hi, timeout, || kicked() || (unwritten && buffer.demanded()));
                if !idle || unwritten || filled > hi {
                    continue;
                }
                // Re-scan on the way out: fills published after the
                // wait's last scan must still be drained — and their
                // syncs published — before shutdown.
                if inner.stop.load(Ordering::Acquire) && buffer.advance_filled() == hi {
                    return Ok(None);
                }
                // A reservation parked for space since the last publish
                // needs every durable byte now, chunk boundary or not.
                let _st = threads.state.lock().unwrap();
                buffer.free_space(inner.durable.load(Ordering::Acquire));
            }
        }
    }
}

/// Write `[written, hi)` to the segment files, collecting the segments
/// that need a sync in `touched`. Dead zones map to no file and are
/// skipped; in-memory segments (no backend) are drained without I/O.
fn write_batch(inner: &LogInner, written: u64, hi: u64, touched: &mut Touched) -> io::Result<()> {
    let mut pos = written;
    while pos < hi {
        let Some(seg) = inner.segments.lookup(pos) else {
            // Dead zone: hop to the next segment start (or the end of the
            // batch).
            pos = inner.segments.next_start_after(pos).map_or(hi, |s| s.min(hi));
            continue;
        };
        let stop = hi.min(seg.end);
        if let Some(io) = &seg.io {
            let mut file_pos = seg.file_pos(pos);
            let mut result = Ok(());
            inner.buffer.read_range(pos, stop, |chunk| {
                if result.is_ok() {
                    result = write_with_retry(inner, &**io, chunk, file_pos);
                    file_pos += chunk.len() as u64;
                }
            });
            result?;
            if inner.cfg.fsync {
                touched.push(seg);
            }
        }
        pos = stop;
    }
    Ok(())
}

/// Run the sync the ticket in `slot` owes over `touched`, then publish
/// what its completion makes publishable.
fn sync(inner: &LogInner, slot: usize, touched: &mut Touched, ready: &mut Ready) {
    let start = Instant::now();
    // fsync failures are terminal: the kernel may have dropped the dirty
    // pages, so "retry and succeed" would lie about durability. A backend
    // that panics poisons the log like one that fails.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        touched.iter().filter_map(|seg| seg.io.as_ref()).try_for_each(|io| io.sync_data())
    }))
    .unwrap_or_else(|_| Err(io::Error::other("segment backend panicked in sync_data")));
    let ns = start.elapsed().as_nanos() as u64;
    touched.clear();
    let mut st = inner.threads.state.lock().unwrap();
    st.plan.complete(slot, result.is_ok(), ns);
    st.errors[slot] = result.err();
    publish(inner, st, ready);
}

/// Publish the in-order completed prefix of tickets — the ring space
/// below it, then the durable watermark, the stats, the sync observer —
/// under the lock, then drop it and wake the waiters the new watermark
/// covers. A failed sync at the head poisons the log instead, from this
/// thread, with its error.
fn publish(inner: &LogInner, mut st: MutexGuard<'_, State>, ready: &mut Ready) {
    let (buffer, threads) = (&inner.buffer, &inner.threads);
    let (mut durable, mut failed) = (None, None);
    while !st.closed {
        let Some(Published { sync_ns, range }) = st.plan.publish_next() else { break };
        if let Some(ns) = sync_ns {
            inner.stats.syncs_in_flight.store(st.plan.in_flight() as u64, Ordering::Relaxed);
            if let Some(observe) = inner.sync_observer.get() {
                observe(ns);
            }
        }
        match range {
            Ok((lo, hi)) => {
                buffer.free_space(hi);
                inner.durable.store(hi, Ordering::Release);
                inner.stats.flush_batches.fetch_add(1, Ordering::Relaxed);
                inner.stats.flushed_bytes.fetch_add(hi - lo, Ordering::Relaxed);
                inner.stats.last_batch_bytes.store(hi - lo, Ordering::Relaxed);
                durable = Some(hi);
            }
            Err(Failed(slot)) => {
                failed = st.errors[slot].take();
                st.closed = true;
            }
        }
    }
    // Kick the role holder only if it waits for this: it paces, or it
    // waits with syncs in flight and the log is now idle.
    let idled = durable.is_some() && st.decided == Next::Wait(false) && st.plan.in_flight() == 0;
    if idled {
        st.sat_out = Some(buffer.scan_tip());
    }
    let kick = idled || (durable.is_some() && matches!(st.decided, Next::Pace(..)));
    drop(st);
    // The writer first, so it decides before the waiters append anew.
    if kick {
        threads.kicked.store(true, Ordering::Release);
        buffer.kick_consumer();
    }
    if let Some(hi) = durable {
        inner.notify_durable(hi, ready);
    }
    if let Some(err) = failed {
        poison(inner, &err);
        threads.handed.notify_all();
    }
}

/// The role holder leaves, and every thread with it: told to stop with
/// nothing left to do, or poisoned by a failed write (`err`). A thread
/// in a sync exits when it returns; nothing it reports is published.
fn close(inner: &LogInner, err: Option<io::Error>) {
    let mut st = inner.threads.state.lock().unwrap();
    st.closed = true;
    inner.buffer.hand_over_consumer();
    drop(st);
    if let Some(err) = err {
        poison(inner, &err);
    }
    inner.threads.handed.notify_all();
}

/// Enter the poisoned-log state: record the cause, stop the ring buffer,
/// and wake every durability waiter so they observe the error instead of
/// blocking until their timeout.
fn poison(inner: &LogInner, err: &io::Error) {
    *inner.poison_cause.lock().unwrap() =
        Some(LogError::Poisoned { kind: err.kind(), detail: err.to_string() });
    inner.poisoned.store(true, Ordering::Release);
    inner.stats.log_poisoned.store(1, Ordering::Release);
    inner.buffer.poison();
    inner.notify_all_waiters();
    // Last, after every waiter can already observe the poison: let the
    // database layer flip itself into degraded read-only mode.
    inner.poison_hook.lock().unwrap().fire();
}

fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Positional write with bounded retry on transient errors. Retrying the
/// whole chunk is idempotent: positional writes to the same offset simply
/// overwrite any partial progress.
fn write_with_retry(
    inner: &LogInner,
    io: &dyn crate::io::SegmentIo,
    chunk: &[u8],
    pos: u64,
) -> io::Result<()> {
    let mut attempt = 0;
    loop {
        match io.write_all_at(chunk, pos) {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(e.kind()) && attempt < MAX_WRITE_RETRIES => {
                inner.stats.flush_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(BACKOFF_BASE_MICROS << attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}
