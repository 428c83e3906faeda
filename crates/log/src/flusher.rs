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
//!   tickets `1..=k` have all returned `Ok`. A later sync that finishes
//!   first acknowledges nothing early.
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
//! # When a sync starts: demand, then a self-clocked stagger
//!
//! The flusher is woken two ways: by `mark_filled` once a quarter of the
//! ring has accumulated (throughput batching when nobody is waiting), or
//! *immediately* when the filled watermark covers the lowest registered
//! durability target (latency when someone is). With no sync in flight a
//! wake-up drains the whole filled prefix and starts its sync at once:
//! one request outstanding costs one sync and waits for nothing else.
//!
//! With syncs in flight, the next ticket starts once
//! `last measured sync latency ÷ MAX_SYNCS_IN_FLIGHT` has passed since
//! the previous start, and takes the *whole* filled prefix. Starts are
//! thus evenly staggered across one device latency: a burst of commits
//! is not shredded into one-commit syncs that exhaust the slots and
//! leave the rest of the burst waiting a full latency for a free one; a
//! slow or serialising device stretches the gap by itself; and there is
//! nothing to configure. While the next start is not yet due the flusher
//! sleeps *through* fills to that instant — a commit's demand kick that
//! cannot start a sync would only buy a context switch.
//!
//! A sixteen-commit window (opener at 0, fifteen followers executing
//! until ≈ 1 ms) against a 2 ms device, before and after:
//!
//! ```text
//!  t (ms)    0         1         2         3         4
//!  serial    |=== sync 1: opener ===|=== sync 2: the other 15 ===|
//!  overlap   |=== sync 1: opener ===|
//!                 |=== sync 2 =========|        one start per 2 ms ÷ 4, each
//!                      |=== sync 3 =========|   taking what is filled by then
//! ```
//!
//! The same overlap bounds what an unforced record costs its successor:
//! a verdict flushed alone by the idle timer no longer makes the next
//! commit wait out that sync before its own can start — it starts one
//! stagger gap later at most.
//!
//! After each published ticket, exactly the waiters whose targets the
//! new durable watermark covers are woken — each on its own condvar, no
//! thundering herd.
//!
//! # Resident size of the ring
//!
//! A ring is touched from end to end as the log advances, so left alone
//! its resident size grows with every byte ever logged until it equals
//! the capacity — 64 MiB per log by default, for a buffer that only has
//! to hold what accumulates during one flush. For rings of 16 MiB and up
//! the flusher therefore hands drained memory back to the operating
//! system in 2 MiB chunks ([`crate::buffer::RingBuffer::release`]), and
//! the ring's resident size follows the bytes in flight. Pages can only
//! be dropped *before* the space they occupy is published to writers
//! (below the published watermark the next wrap generation is already
//! admitted), so on such rings the *space* watermark advances a chunk at
//! a time — released first, published second — and trails the durable
//! watermark by less than a chunk, except that a reservation parked for
//! space gets every durable byte at once. Space is released only over
//! the in-order completed prefix, like everything else. The durable
//! watermark, which is what committers wait on, is never delayed.
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
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ermia_common::LogError;
use parking_lot::{Condvar, Mutex};

use crate::manager::{LogInner, WaiterSlot};
use crate::segment::Segment;

/// Device syncs one log keeps in flight at most; also the divisor of the
/// stagger gap. Swept once at 2 / 4 / 8 on the ledger's gated workloads
/// (EXPERIMENTS.md, "Ledger, PR 17"): the finer the stagger, the sooner
/// the last commits of a burst get their sync started, and the more
/// batches — one `pwrite` and one sync each — a burst is cut into. At 2
/// a burst that outlasts the one free slot waits a whole latency for the
/// next; 8 buys 2–7 % over 4 for a third more write syscalls.
const MAX_SYNCS_IN_FLIGHT: usize = 4;

/// Rings at least this large return drained memory to the operating
/// system, [`RELEASE_CHUNK`] bytes at a time; smaller ones (tests, the
/// in-memory configuration) are cheaper left resident.
const MIN_RELEASING_RING: u64 = 16 << 20;
const RELEASE_CHUNK: u64 = 2 << 20;

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

/// A batch that is written and owes a device sync — or owed none.
struct Ticket {
    lo: u64,
    hi: u64,
    /// The board cell a helper posts this ticket's result to: unique
    /// among the tickets outstanding.
    slot: usize,
    /// `Some` once the sync has returned (at once, when there was
    /// nothing to sync): its result, and how long it took if it ran.
    done: Option<(io::Result<()>, Option<u64>)>,
}

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
    let mut state = board.state.lock();
    loop {
        let Some(SyncJob { slot, touched }) = state.jobs.pop_front() else {
            if state.shutdown {
                return;
            }
            state.idle += 1;
            board.work.wait(&mut state);
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
        state = board.state.lock();
        state.done[slot] = Some(SyncDone { result, ns, touched });
        // Release, for the flusher's Acquire loads of the count; the
        // result itself travels under the lock.
        board.posted.fetch_add(1, Ordering::Release);
        drop(state);
        inner.buffer.kick_consumer();
        state = board.state.lock();
    }
}

/// The flusher thread's state: the writer's position, the tickets in
/// issue order, and the in-order published prefix.
struct Flusher {
    inner: Arc<LogInner>,
    /// End of the prefix handed to the segment files.
    written: u64,
    /// The ring's published space watermark: trails the durable one by
    /// less than `chunk` on rings that release memory (see the module
    /// docs).
    released: u64,
    chunk: u64,
    /// Issued and not yet published, oldest first; never more than
    /// [`MAX_SYNCS_IN_FLIGHT`].
    tickets: VecDeque<Ticket>,
    /// Tickets ever issued; `issued % MAX_SYNCS_IN_FLIGHT` is the next
    /// ticket's board slot.
    issued: u64,
    /// Tickets whose sync is with a helper and not yet published.
    in_flight: usize,
    /// Helper results taken off the board, ever.
    collected: u64,
    board: Arc<SyncBoard>,
    helpers: Vec<JoinHandle<()>>,
    /// The self-clock: when the last sync was handed off, and how long
    /// the last completed one took.
    last_start: Instant,
    last_sync_ns: u64,
    /// Scratch, reused batch after batch: the segments the batch being
    /// written touches, spare lists for later ones, the waiters a
    /// publish wakes.
    touched: Touched,
    spare: Vec<Touched>,
    ready: Vec<Arc<WaiterSlot>>,
}

impl Flusher {
    fn new(inner: Arc<LogInner>) -> Flusher {
        let flushed = inner.buffer.flushed();
        // Large rings give drained memory back a chunk at a time.
        let chunk = if inner.buffer.capacity() >= MIN_RELEASING_RING { RELEASE_CHUNK } else { 1 };
        Flusher {
            written: flushed,
            released: flushed,
            chunk,
            tickets: VecDeque::with_capacity(MAX_SYNCS_IN_FLIGHT),
            issued: 0,
            in_flight: 0,
            collected: 0,
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
            last_start: Instant::now(),
            last_sync_ns: 0,
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
        loop {
            self.publish_completed()?;
            let collected = self.collected;
            let completion_posted = || board.posted.load(Ordering::Acquire) != collected;
            if self.tickets.len() == MAX_SYNCS_IN_FLIGHT {
                inner.buffer.sleep_through_fills(None, completion_posted);
                continue;
            }
            // With a sync in flight its completion ends the wait, and
            // what fills meanwhile without demand rides the next ticket;
            // idle, the interval timer drains the unforced tail.
            let timeout = (self.in_flight == 0).then_some(inner.cfg.flush_interval);
            let hi = inner.buffer.wait_filled(self.written, timeout, completion_posted);
            if hi > self.written {
                let wait = self.until_next_start();
                if !wait.is_zero() {
                    inner.buffer.sleep_through_fills(Some(wait), completion_posted);
                    continue;
                }
                self.write(hi)?;
                self.issue(hi);
            } else if self.in_flight == 0 {
                // Re-scan on the way out: fills stamped after the wait's
                // last scan must still be drained — and their syncs
                // published — before shutdown.
                if inner.stop.load(Ordering::Acquire) && inner.buffer.advance_filled() == hi {
                    return Ok(());
                }
                // A reservation parked for space needs every durable
                // byte now, chunk boundary or not.
                let durable = inner.durable.load(Ordering::Relaxed);
                if self.released < durable && inner.buffer.has_space_waiters() {
                    inner.buffer.mark_flushed(durable);
                    self.released = durable;
                }
            }
        }
    }

    /// The self-clock: how long until the next sync may start. Nothing
    /// in flight: now. Otherwise starts are spaced one
    /// [`MAX_SYNCS_IN_FLIGHT`]-th of the last measured sync latency
    /// apart.
    fn until_next_start(&self) -> Duration {
        if self.in_flight == 0 {
            return Duration::ZERO;
        }
        let gap = Duration::from_nanos(self.last_sync_ns / MAX_SYNCS_IN_FLIGHT as u64);
        (self.last_start + gap).saturating_duration_since(Instant::now())
    }

    /// Write `[written, hi)` to the segment files, collecting the
    /// segments that need a sync in `self.touched`. Dead zones map to no
    /// file and are skipped; in-memory segments (no backend) are drained
    /// without I/O.
    fn write(&mut self, hi: u64) -> io::Result<()> {
        let inner = &*self.inner;
        let mut pos = self.written;
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
    fn issue(&mut self, hi: u64) {
        let slot = (self.issued % MAX_SYNCS_IN_FLIGHT as u64) as usize;
        self.issued += 1;
        let lo = std::mem::replace(&mut self.written, hi);
        let done = self.touched.is_empty().then_some((Ok(()), None));
        self.tickets.push_back(Ticket { lo, hi, slot, done });
        if self.touched.is_empty() {
            return;
        }
        let touched = std::mem::replace(&mut self.touched, self.spare.pop().unwrap_or_default());
        self.in_flight += 1;
        self.inner.stats.syncs_in_flight.store(self.in_flight as u64, Ordering::Relaxed);
        self.last_start = Instant::now();
        let short_of_helpers = {
            let mut state = self.board.state.lock();
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

    /// Take what helpers have posted off the board.
    fn collect(&mut self) {
        if self.board.posted.load(Ordering::Acquire) == self.collected {
            return;
        }
        let mut state = self.board.state.lock();
        for ticket in self.tickets.iter_mut() {
            if let Some(SyncDone { result, ns, mut touched }) = state.done[ticket.slot].take() {
                ticket.done = Some((result, Some(ns)));
                touched.clear();
                self.spare.push(touched);
                self.collected += 1;
            }
        }
    }

    /// Publish the in-order completed prefix of tickets: each one, in
    /// issue order, for as long as the oldest outstanding ticket is
    /// complete. `Err` is the first failed sync; nothing at or above it
    /// is published.
    fn publish_completed(&mut self) -> io::Result<()> {
        self.collect();
        while let Some((result, sync_ns)) = self.tickets.front_mut().and_then(|t| t.done.take()) {
            let Ticket { lo, hi, .. } = self.tickets.pop_front().expect("front was just read");
            if let Some(ns) = sync_ns {
                self.in_flight -= 1;
                self.inner.stats.syncs_in_flight.store(self.in_flight as u64, Ordering::Relaxed);
                self.last_sync_ns = ns;
                if let Some(observe) = self.inner.sync_observer.get() {
                    observe(ns);
                }
            }
            result?;
            self.publish(lo, hi);
        }
        Ok(())
    }

    /// `[lo, hi)` is durable and so is everything below it: advance the
    /// ring's space watermark and the durable watermark, account the
    /// batch, wake exactly the group-commit waiters it satisfied.
    fn publish(&mut self, lo: u64, hi: u64) {
        let inner = &*self.inner;
        let space =
            if inner.buffer.has_space_waiters() { hi } else { hi / self.chunk * self.chunk };
        if space > self.released {
            if self.chunk > 1 {
                inner.buffer.release(self.released, space);
            }
            inner.buffer.mark_flushed(space);
            self.released = space;
        }
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
            if self.tickets.iter().all(|t| t.done.is_some()) {
                break;
            }
            let (board, collected) = (&*self.board, self.collected);
            self.inner
                .buffer
                .sleep_through_fills(None, || board.posted.load(Ordering::Acquire) != collected);
        }
        self.inner.stats.syncs_in_flight.store(0, Ordering::Relaxed);
        self.board.state.lock().shutdown = true;
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
    *inner.poison_cause.lock() =
        Some(LogError::Poisoned { kind: err.kind(), detail: err.to_string() });
    inner.poisoned.store(true, Ordering::Release);
    inner.stats.log_poisoned.store(1, Ordering::Release);
    inner.buffer.poison();
    inner.notify_all_waiters();
    // Last, after every waiter can already observe the poison: let the
    // database layer flip itself into degraded read-only mode.
    if let Some(hook) = &*inner.poison_hook.lock() {
        hook();
    }
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
