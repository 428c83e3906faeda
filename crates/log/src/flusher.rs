//! Background group commit: one writer, overlapped device syncs, and a
//! durable watermark that advances in order.
//!
//! A commit's stamp *and* its log space are fixed by one `fetch_add`
//! (§3.3), so nothing downstream has to happen in stamp order or one at
//! a time — only the *acknowledgement* must wait for a prefix. The
//! flusher is built on exactly that freedom:
//!
//! ```text
//!  ring ──► writer ──────────► tickets ─────────────► in-order publish
//!           drain the filled   (hi, touched segments) durable watermark,
//!           prefix, pwrite it, sync_data on a helper  ring space, stats,
//!           in offset order,   thread, up to           wake the waiters the
//!           on this thread     MAX_SYNCS_IN_FLIGHT     watermark now covers
//!                              at a time               — on this thread
//! ```
//!
//! * **Writer.** The flusher thread alone consumes the ring: it drains
//!   the contiguous filled prefix into the segment files with positional
//!   writes, skipping dead zones, strictly in offset order. Every write
//!   the device ever sees therefore comes from one thread, in a
//!   deterministic order.
//! * **Tickets.** What a batch of writes still owes is a device sync of
//!   the segments it touched. That debt is a *ticket* `(hi, touched)`,
//!   handed to a helper thread, so the writer is free to drain and write
//!   the next batch — and issue the next ticket — while earlier syncs
//!   are still in the device. A sync covers every byte written to its
//!   files before it was issued, so ticket *k* returning `Ok` makes all
//!   of `[.., hi_k)` in its segments durable.
//! * **In-order publish.** Helpers only *report*. The flusher thread
//!   applies completions, and only over the in-order completed prefix
//!   of tickets: the durable watermark, ring-space release, the
//!   `flush_batches`/`flushed_bytes` accounting (one batch = one
//!   completed ticket) and the waiter wake-ups advance to `hi_k` when
//!   tickets `1..=k` have all returned `Ok`.
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
//! tickets that are complete the moment they are written: it never
//! leaves the flusher thread and spawns no helper. That — and a device
//! asked for one sync at a time — is the serial flusher, as the depth-1
//! case of the same loop. Helpers are spawned when a sync first needs
//! one, never in [`crate::LogManager::open`].
//!
//! # A decision and a driver
//!
//! Which prefix a completion publishes, and when the next sync starts,
//! are decided by `plan::Plan`: a state machine over plain numbers that
//! touches no clock, atomic, lock or thread. This file is its driver:
//! once per turn of `Flusher::pump` it reads the ring and the clock into
//! one snapshot, asks the plan, and does what it is told — scan, `pwrite`,
//! hand a sync to a helper, publish, or sleep (for fills, to an instant,
//! or for a completion). The two tables in these docs are the plan's unit
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
//! | none | nobody | when the flusher thread next sees the bytes: within `flush_interval` of the append (the timeout an idle flusher sleeps with; unforced fills do not wake it), or on its way back from the completion that left the log idle, for bytes that sat out the syncs in flight | `timer` |
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
//! is not yet due the flusher sleeps *through* fills and registrations to
//! that instant — a kick that cannot start a sync would only buy a
//! context switch — and wakes for a completion or, while two slots are
//! free, a settled demand.
//!
//! One sixteen-commit window of the ledger's `wire_sync_write` (2 ms
//! device, opener at 0, fifteen followers sent 100 µs later, one CPU;
//! µs from the opener's send, `results/ledger/PR-20.md`), by the
//! stagger clock alone and by this rule:
//!
//! ```text
//!  t (µs)     0        500       1000      1500      2000      2500      3000
//!  followers  ··executing··|parked 523
//!  clock      |= sync 1: opener, 71 ================ 2159|
//!                               |= sync 2: the fifteen, 742 ========== 2858| 2966 last reply
//!  followers  ··executing·|parked 482, turn ends 503
//!  demand     |= sync 1: opener, 68 ================ 2171|
//!                          |= sync 2: the fifteen, 517 ======== 2647| 2810 last reply
//! ```
//!
//! On `wire_2pc` the same clock cost more: the unforced verdict of one
//! request was flushed alone at a stagger boundary or by the timer, and
//! the next request's prepares waited out the gap behind that 64-byte
//! sync. Now a verdict starts nothing while a sync is in flight: the
//! opener's, appended behind the followers' sync, goes when that
//! completes and the log is idle, and the fifteen appended after it ride
//! the next window's first sync — which a settled demand starts at once
//! whatever is in flight.
//!
//! A scanned block is therefore not necessarily on its way to the device:
//! a waiter that registers for one the flusher has already seen — and
//! left in the ring because nobody wanted it then — kicks the flusher if
//! its target lies above the *written* offset
//! ([`crate::buffer::RingBuffer::kick_if_unwritten`]).
//!
//! After each published ticket, exactly the waiters whose targets the
//! new durable watermark covers are woken — each on its own condvar, no
//! thundering herd.
//!
//! # Resident size of the ring
//!
//! A ring is touched from end to end as the log advances, so left alone
//! its resident size grows with every byte ever logged until it equals
//! the capacity — 64 MiB per log by default — for a buffer that only has
//! to hold what accumulates during one flush. The ring is an
//! [`ermia_common::Region`] — zero and not resident until written — and
//! it is its own availability map (`buffer.rs`), so there is nothing
//! beside it. After each publish the flusher hands the durable bytes'
//! space back to the ring ([`crate::buffer::RingBuffer::free_space`]). A
//! ring of 16 MiB and up gives drained memory back to the operating
//! system as it publishes space (a page handed back reads zero, which is
//! what the next lap's scan needs of every fill's start anyway), so what
//! is resident follows the bytes in flight. To batch those calls such a
//! ring advances its *space* watermark 256 KiB at a time (one 64-page
//! `madvise` every 0.1–0.2 s at a few MB/s of log), so it trails the
//! durable watermark by less than a chunk, except that a reservation
//! parked for space gets every durable byte at once. Pages can only be
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
//! writers, and the flusher thread exits. A failed sync on ticket *k*
//! freezes the watermark at the end of ticket *k − 1* — below every byte
//! the failed sync covered — whatever tickets *k + 1…* report: their
//! results are waited for (so no helper outlives the flusher) and
//! discarded. An operator can later bring the log back without a restart
//! via [`crate::LogManager::resume`], which joins this thread — and with
//! it every in-flight sync and helper — re-probes the backend and
//! re-arms a fresh flusher.

use std::collections::VecDeque;
use std::io;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ermia_common::LogError;

use crate::manager::{LogInner, SyncCause, WaiterSlot};
use crate::plan::{Failed, Next, Plan, Published, Snapshot, MAX_SYNCS_IN_FLIGHT};
use crate::segment::Segment;

/// Transient-error retry budget: 6 attempts, 100µs..=3.2ms backoff.
const MAX_WRITE_RETRIES: u32 = 6;
const BACKOFF_BASE_MICROS: u64 = 100;

pub(crate) fn spawn(inner: Arc<LogInner>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("log-flusher".into())
        .spawn(move || run(inner))
        .expect("spawn log flusher")
}

fn run(inner: Arc<LogInner>) {
    let mut flusher = Flusher::new(inner);
    if let Err(err) = flusher.pump() {
        poison(&flusher.inner, &err);
    }
    flusher.reap();
}

/// The segments one batch of writes touched; recycled between tickets.
type Touched = Vec<Arc<Segment>>;

/// A sync handed to a helper. `slot` names the board cell its result
/// goes to; `touched` travels with it and comes back for reuse.
struct SyncJob {
    slot: usize,
    touched: Touched,
}

struct SyncDone {
    result: io::Result<()>,
    ns: u64,
    touched: Touched,
}

/// What a flusher and its helpers share. Helpers take jobs and post
/// results here and touch nothing else of the log but the ring's
/// consumer wake-up.
struct SyncBoard {
    state: Mutex<BoardState>,
    /// Signalled when a job is queued or the board shuts down.
    work: Condvar,
    /// Results posted, ever: the flusher compares it with the number it
    /// has collected to know — without the lock — whether to look.
    posted: AtomicU64,
}

struct BoardState {
    jobs: VecDeque<SyncJob>,
    done: [Option<SyncDone>; MAX_SYNCS_IN_FLIGHT],
    /// Helpers asleep on `work`.
    idle: usize,
    shutdown: bool,
}

fn helper(inner: &LogInner, board: &SyncBoard) {
    let mut state = board.state.lock().unwrap();
    loop {
        let Some(SyncJob { slot, touched }) = state.jobs.pop_front() else {
            if state.shutdown {
                return;
            }
            state.idle += 1;
            state = board.work.wait(state).unwrap();
            state.idle -= 1;
            continue;
        };
        drop(state);
        let start = Instant::now();
        // fsync failures are terminal: after a failed fsync the kernel
        // may have dropped the dirty pages, so "retry and succeed"
        // would lie about durability. A backend that panics must poison
        // the log like one that fails, not leave the flusher waiting for
        // a report that never comes.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            touched.iter().filter_map(|seg| seg.io.as_ref()).try_for_each(|io| io.sync_data())
        }))
        .unwrap_or_else(|_| Err(io::Error::other("segment backend panicked in sync_data")));
        let ns = start.elapsed().as_nanos() as u64;
        state = board.state.lock().unwrap();
        state.done[slot] = Some(SyncDone { result, ns, touched });
        // Release, for the flusher's Acquire loads of the count; the
        // result itself travels under the lock.
        board.posted.fetch_add(1, Ordering::Release);
        drop(state);
        inner.buffer.kick_consumer();
        state = board.state.lock().unwrap();
    }
}

/// The flusher thread's state: the plan it drives, and what the plan
/// does not need to know — the ring's space watermark, the helpers, the
/// errors of failed syncs, scratch.
struct Flusher {
    inner: Arc<LogInner>,
    plan: Plan,
    /// What the plan's nanoseconds count from.
    epoch: Instant,
    /// Helper results taken off the board, ever.
    collected: u64,
    /// Per board slot: what a failed sync returned, until the plan
    /// reaches its ticket.
    errors: [Option<io::Error>; MAX_SYNCS_IN_FLIGHT],
    board: Arc<SyncBoard>,
    helpers: Vec<JoinHandle<()>>,
    /// Scratch, reused batch after batch: the segments the batch being
    /// written touches, spare lists for later ones, the waiters a
    /// publish wakes.
    touched: Touched,
    spare: Vec<Touched>,
    ready: Vec<Arc<WaiterSlot>>,
}

impl Flusher {
    fn new(inner: Arc<LogInner>) -> Flusher {
        Flusher {
            plan: Plan::new(inner.buffer.flushed()),
            epoch: Instant::now(),
            collected: 0,
            errors: std::array::from_fn(|_| None),
            board: Arc::new(SyncBoard {
                state: Mutex::new(BoardState {
                    jobs: VecDeque::new(),
                    done: std::array::from_fn(|_| None),
                    idle: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                posted: AtomicU64::new(0),
            }),
            helpers: Vec::new(),
            touched: Vec::new(),
            spare: Vec::new(),
            ready: Vec::new(),
            inner,
        }
    }

    /// Write, issue, publish — until told to stop with nothing left to
    /// do (`Ok`), or until a write or a sync fails.
    fn pump(&mut self) -> io::Result<()> {
        let (inner, board) = (Arc::clone(&self.inner), Arc::clone(&self.board));
        let buffer = &inner.buffer;
        loop {
            self.publish_completed()?;
            let collected = self.collected;
            let completion_posted = || board.posted.load(Ordering::Acquire) != collected;
            let hi = buffer.advance_filled();
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            let snapshot = Snapshot {
                now_ns,
                filled: hi,
                flushed: buffer.flushed(),
                capacity: buffer.capacity(),
                demand_hi: buffer.demand_hi(),
                urged: buffer.urged(),
            };
            match self.plan.next(snapshot) {
                Next::Start(cause) => {
                    self.write(hi)?;
                    self.issue(hi, cause);
                }
                Next::Pace(until, urgeable) => {
                    // Asleep *through* fills and plain demand kicks: they
                    // cannot move the instant. A settled demand can.
                    let wait = until.map(|due| Duration::from_nanos(due - now_ns));
                    buffer.sleep_through_fills(wait, urgeable, completion_posted);
                }
                Next::Wait(idle) => {
                    // With a sync in flight its completion ends the wait
                    // (or somebody starting to wait for what is filled);
                    // idle, nothing is filled, and the interval timer
                    // comes round for what is appended unforced.
                    let unwritten = hi > self.plan.written();
                    let timeout = idle.then_some(inner.cfg.flush_interval);
                    let filled = buffer.wait_filled(hi, timeout, || {
                        completion_posted() || (unwritten && buffer.demanded())
                    });
                    if !idle || filled > hi {
                        continue;
                    }
                    // Re-scan on the way out: fills published after the
                    // wait's last scan must still be drained — and their
                    // syncs published — before shutdown.
                    if inner.stop.load(Ordering::Acquire) && buffer.advance_filled() == hi {
                        return Ok(());
                    }
                    // A reservation parked for space needs every durable
                    // byte now, chunk boundary or not.
                    buffer.free_space(inner.durable.load(Ordering::Relaxed));
                }
            }
        }
    }

    /// Write `[written, hi)` to the segment files, collecting the
    /// segments that need a sync in `self.touched`. Dead zones map to no
    /// file and are skipped; in-memory segments (no backend) are drained
    /// without I/O.
    fn write(&mut self, hi: u64) -> io::Result<()> {
        let inner = &*self.inner;
        let mut pos = self.plan.written();
        while pos < hi {
            let Some(seg) = inner.segments.lookup(pos) else {
                // Dead zone: hop to the next segment start (or the end
                // of the batch).
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
                    self.touched.push(seg);
                }
            }
            pos = stop;
        }
        Ok(())
    }

    /// Turn the batch just written into a ticket: its sync goes to a
    /// helper, or — nothing to sync — it is complete as it stands.
    fn issue(&mut self, hi: u64, cause: SyncCause) {
        let synced = !self.touched.is_empty();
        let slot = self.plan.issue(hi, synced, self.epoch.elapsed().as_nanos() as u64);
        self.inner.buffer.set_written(hi);
        if !synced {
            return;
        }
        let touched = std::mem::replace(&mut self.touched, self.spare.pop().unwrap_or_default());
        self.inner.stats.syncs_in_flight.store(self.plan.in_flight() as u64, Ordering::Relaxed);
        self.inner.stats.sync_starts[cause as usize].fetch_add(1, Ordering::Relaxed);
        let short_of_helpers = {
            let mut state = self.board.state.lock().unwrap();
            state.jobs.push_back(SyncJob { slot, touched });
            state.jobs.len() > state.idle
        };
        self.board.work.notify_one();
        // Never more helpers than syncs in flight at once, and none
        // before a sync needs one.
        if short_of_helpers && self.helpers.len() < MAX_SYNCS_IN_FLIGHT {
            let (inner, board) = (Arc::clone(&self.inner), Arc::clone(&self.board));
            let handle = std::thread::Builder::new()
                .name("log-sync".into())
                .spawn(move || helper(&inner, &board))
                .expect("spawn log sync helper");
            self.helpers.push(handle);
        }
    }

    /// Take what helpers have posted off the board and tell the plan.
    fn collect(&mut self) {
        if self.board.posted.load(Ordering::Acquire) == self.collected {
            return;
        }
        let mut state = self.board.state.lock().unwrap();
        for (slot, posted) in state.done.iter_mut().enumerate() {
            if let Some(SyncDone { result, ns, mut touched }) = posted.take() {
                self.plan.complete(slot, result.is_ok(), ns);
                self.errors[slot] = result.err();
                touched.clear();
                self.spare.push(touched);
                self.collected += 1;
            }
        }
    }

    /// Publish what the plan says is publishable: the in-order completed
    /// prefix of tickets. `Err` is the first failed sync; nothing at or
    /// above it is published.
    fn publish_completed(&mut self) -> io::Result<()> {
        self.collect();
        while let Some(Published { sync_ns, range }) = self.plan.publish_next() {
            if let Some(ns) = sync_ns {
                let in_flight = self.plan.in_flight() as u64;
                self.inner.stats.syncs_in_flight.store(in_flight, Ordering::Relaxed);
                if let Some(observe) = self.inner.sync_observer.get() {
                    observe(ns);
                }
            }
            match range {
                Ok((lo, hi)) => self.publish(lo, hi),
                Err(Failed(slot)) => {
                    return Err(self.errors[slot].take().expect("a failed sync left its error"))
                }
            }
        }
        Ok(())
    }

    /// `[lo, hi)` is durable and so is everything below it: advance the
    /// ring's space watermark and the durable watermark, account the
    /// batch, wake exactly the group-commit waiters it satisfied.
    fn publish(&mut self, lo: u64, hi: u64) {
        let inner = &*self.inner;
        inner.buffer.free_space(hi);
        inner.durable.store(hi, Ordering::Release);
        inner.stats.flush_batches.fetch_add(1, Ordering::Relaxed);
        inner.stats.flushed_bytes.fetch_add(hi - lo, Ordering::Relaxed);
        inner.stats.last_batch_bytes.store(hi - lo, Ordering::Relaxed);
        inner.notify_durable(hi, &mut self.ready);
    }

    /// On the way out, clean or poisoned: wait for every sync still in
    /// the device (what it reports no longer matters — a clean exit has
    /// none), then stop and join the helpers.
    fn reap(&mut self) {
        loop {
            self.collect();
            if !self.plan.awaits_completion() {
                break;
            }
            let (board, collected) = (&*self.board, self.collected);
            self.inner.buffer.sleep_through_fills(None, false, || {
                board.posted.load(Ordering::Acquire) != collected
            });
        }
        self.inner.stats.syncs_in_flight.store(0, Ordering::Relaxed);
        self.board.state.lock().unwrap().shutdown = true;
        self.board.work.notify_all();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
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
