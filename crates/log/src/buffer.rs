//! The centralized log ring buffer.
//!
//! Logical LSN offsets map directly onto ring positions (`offset % cap`),
//! so a reservation made with the global `fetch_add` already names its
//! buffer space — no further coordination is needed to find where to
//! copy. Writers copy their pre-serialized block and mark the range
//! *filled*; the flusher merges out-of-order fills into a contiguous
//! watermark it can drain. Dead-zone ranges (which map to no disk
//! location) are marked filled without a copy so they never stall the
//! watermark.
//!
//! # Lock-free completion tracking (the availability ring)
//!
//! `mark_filled` is on the commit hot path — once per transaction, plus
//! one per skip record and dead zone — and must not serialize committing
//! threads (§3.3: after the single `fetch_add`, a committer touches no
//! shared latches). Completion is therefore tracked by a fixed array of
//! per-slot atomic *generation stamps*, one [`u32`] per
//! [`MIN_BLOCK_LEN`] bytes of capacity:
//!
//! * Every reservation is a `MIN_BLOCK_LEN`-aligned range of the
//!   monotonic logical offset space, so a fill covers an exact run of
//!   slots. Logical slot number `s = offset / MIN_BLOCK_LEN` maps to
//!   array index `s % nslots` and wrap generation `s / nslots`.
//! * A writer marks its range filled by storing `generation + 1` into
//!   each covered slot with `Release` ordering (`+ 1` so the initial
//!   zero never matches). A handful of release stores — no lock, no
//!   allocation, no shared cache-line writes beyond slots adjacent to
//!   its own range.
//! * The flusher (the only consumer) advances the contiguous `filled`
//!   watermark by scanning forward from its last position while slot
//!   stamps equal the expected generation ([`RingBuffer::advance_filled`]).
//!   The `Acquire` load of a matching stamp synchronizes with the
//!   writer's `Release` store, which in turn was program-ordered after
//!   the byte copy — so everything below the watermark is safely
//!   readable by [`RingBuffer::read_range`].
//!
//! Soundness of the single stamp word per slot rests on two invariants:
//! reservations are disjoint (the `fetch_add` hands each offset out
//! once), and a slot's previous generation is already *flushed* before a
//! writer can stamp the next one (writers call
//! [`RingBuffer::wait_for_space`] first, and `flushed ≥` the slot's old
//! range implies the scan consumed the old stamp). A stamp is therefore
//! written exactly once per generation — enforced by a debug assertion —
//! and the scanner can never confuse generations: a stale stamp simply
//! stops the scan. So does a zero one, which is what lets
//! [`RingBuffer::release`] drop a drained range's stamp pages with its
//! bytes: both arrays are [`Region`]s, resident where the log currently
//! is and nowhere else.
//!
//! *Every* fill path — commit blocks, skip records and dead zones alike —
//! waits for space over the whole range it will stamp before it stamps
//! one slot. The global `fetch_add` precedes that wait, so a writer that
//! lost a segment rotation can hold a claim far beyond `flushed + cap`
//! while the ring is full; stamping any of it early would overwrite a
//! stamp the scan has not consumed and stall the watermark for good.
//! Debug builds assert the window (`end − flushed ≤ cap`) on every fill,
//! and `rotation_with_full_ring_converges` drives that corner.
//!
//! # Parked-waiter condvar protocol
//!
//! The remaining mutex guards only the two condvars and is touched
//! *only when someone is actually parked*. Wakers run a Dekker-style
//! handshake: publish state (slot stamps / `flushed`) with a `SeqCst`
//! fence, then check an atomic waiter count and lock + notify only if it
//! is non-zero. Sleepers register their count (and re-check the
//! condition) while holding the mutex, separated from the re-check by a
//! `SeqCst` fence. Either the waker observes the registered sleeper and
//! notifies under the mutex (no lost wakeup: notification happens while
//! the sleeper holds the mutex), or the sleeper's re-check observes the
//! waker's published state and never sleeps. On the uncontended path,
//! `mark_filled` and `mark_flushed` never touch the mutex at all.

use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use ermia_common::Region;

use crate::records::MIN_BLOCK_LEN;

/// Bytes tracked per availability-ring slot.
const SLOT: u64 = MIN_BLOCK_LEN as u64;
/// Bytes of stamp per slot.
const STAMP: u64 = std::mem::size_of::<AtomicU32>() as u64;

/// The consumer sleeps until fills matter to it (a fill below the
/// demand, a quarter of the ring accumulated), a kick, or its timeout.
const PARKED_FOR_FILLS: u32 = 1;
/// The consumer sleeps through fills: only [`RingBuffer::kick_consumer`]
/// or its timeout ends the sleep.
const PARKED_DEAF: u32 = 2;
/// The consumer sleeps through fills but listens for a settled demand:
/// [`RingBuffer::urge`] ends the sleep too.
const PARKED_PACED: u32 = 3;

pub struct RingBuffer {
    cap: u64,
    /// The first `cap` bytes are the ring.
    data: Region,
    /// Per-slot fill stamps, the first `nslots` [`AtomicU32`]s: slot
    /// `s % nslots` holds `s / nslots + 1` once logical bytes
    /// `[s*SLOT, (s+1)*SLOT)` are filled.
    stamps: Region,
    nslots: u64,
    /// Contiguous prefix of the LSN space that has been filled.
    /// Advanced only by the consumer (the flusher) via the slot scan.
    filled: AtomicU64,
    /// Prefix that the flusher has drained to stable storage (or
    /// discarded, for dead zones / in-memory logs).
    flushed: AtomicU64,
    /// Lowest logical offset a durability waiter is parked on
    /// (`u64::MAX` when nobody waits). Maintained by the log manager's
    /// waiter registry; `mark_filled` wakes the flusher the moment a
    /// fill lands below it, regardless of batch size.
    demand: AtomicU64,
    /// Highest offset a durability waiter has ever registered for:
    /// together with `written` it tells the consumer whether anybody
    /// waits for bytes no flush has taken yet.
    demand_hi: AtomicU64,
    /// Highest offset of a *settled* demand ([`RingBuffer::urge`]): its
    /// caller has filled everything it will fill before it next waits,
    /// so holding the bytes back buys no larger batch.
    urged: AtomicU64,
    /// End of the prefix the consumer has handed to storage — every byte
    /// below it is covered by a flush already started. Consumer-owned;
    /// trails `filled`, leads `flushed`.
    written: AtomicU64,
    /// Set when the flusher dies on an unrecoverable I/O error: space
    /// will never free up again, so waiters must give up.
    poisoned: AtomicBool,
    /// How the consumer is parked on `filled_cv`, if it is:
    /// [`PARKED_FOR_FILLS`], [`PARKED_DEAF`] or [`PARKED_PACED`]; 0 while
    /// it runs. Wakers
    /// check it (after a `SeqCst` fence) before touching the mutex.
    consumer_parked: AtomicU32,
    /// Number of writers parked on `space_cv`.
    space_waiters: AtomicU32,
    /// Cumulative count of reservations that had to park for space — the
    /// "log buffer too small / flusher too slow" back-pressure signal.
    space_waits: AtomicU64,
    /// Guards only the condvars below; never held while filling,
    /// flushing, or scanning outside the park paths.
    wake_mx: Mutex<()>,
    /// Signaled when new fills may let the consumer make progress.
    filled_cv: Condvar,
    /// Signaled when `flushed` advances (writers waiting for space).
    space_cv: Condvar,
    /// Single-consumer discipline check (debug builds only).
    #[cfg(debug_assertions)]
    consumer: Mutex<Option<std::thread::ThreadId>>,
}

// The ring is `Sync` through its fields. The data region is written
// through its raw pointer by concurrent writers holding disjoint
// reservations and read by the flusher only below the filled watermark;
// see `write` / `read_range` for the argument.

impl RingBuffer {
    /// `cap` bytes of buffer, beginning life with watermarks at `start`
    /// (the initial LSN offset). Both must be multiples of
    /// [`MIN_BLOCK_LEN`], matching the alignment of every reservation.
    pub fn new(cap: u64, start: u64) -> RingBuffer {
        assert!(
            cap > 0 && cap.is_multiple_of(SLOT),
            "capacity must be a multiple of MIN_BLOCK_LEN"
        );
        assert!(start.is_multiple_of(SLOT), "start offset must be block-aligned");
        let nslots = cap / SLOT;
        RingBuffer {
            cap,
            data: Region::new(cap as usize),
            stamps: Region::new((nslots * STAMP) as usize),
            nslots,
            filled: AtomicU64::new(start),
            flushed: AtomicU64::new(start),
            demand: AtomicU64::new(u64::MAX),
            demand_hi: AtomicU64::new(0),
            urged: AtomicU64::new(0),
            written: AtomicU64::new(start),
            poisoned: AtomicBool::new(false),
            consumer_parked: AtomicU32::new(0),
            space_waiters: AtomicU32::new(0),
            space_waits: AtomicU64::new(0),
            wake_mx: Mutex::new(()),
            filled_cv: Condvar::new(),
            space_cv: Condvar::new(),
            #[cfg(debug_assertions)]
            consumer: Mutex::new(None),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.cap
    }

    /// Cumulative number of slow-path space waits (telemetry).
    #[inline]
    pub fn space_waits(&self) -> u64 {
        self.space_waits.load(Ordering::Relaxed)
    }

    /// The contiguous filled watermark as last advanced by the consumer.
    /// May lag freshly stamped fills until the consumer's next scan; see
    /// [`RingBuffer::scan_tip`] for the stamp-inclusive view.
    #[inline]
    pub fn filled(&self) -> u64 {
        self.filled.load(Ordering::Acquire)
    }

    #[inline]
    pub fn flushed(&self) -> u64 {
        self.flushed.load(Ordering::Acquire)
    }

    /// Mark the buffer dead: the flusher will never drain it again. Wakes
    /// every waiter so they can observe the failure instead of blocking
    /// forever.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _guard = self.wake_mx.lock().unwrap();
        self.space_cv.notify_all();
        self.filled_cv.notify_one();
    }

    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Publish the lowest durability target anyone is waiting on
    /// (`u64::MAX` when the waiter list is empty). Owned by the log
    /// manager's waiter registry, which updates it under its own lock.
    #[inline]
    pub fn set_demand(&self, lowest_target: u64) {
        self.demand.store(lowest_target, Ordering::Release);
    }

    /// A durability waiter registered for `target`. Release, for the
    /// consumer's Acquire load in [`RingBuffer::demanded`]; the waiter's
    /// [`RingBuffer::kick_if_unwritten`] fences before it looks for a
    /// parked consumer.
    #[inline]
    pub fn note_target(&self, target: u64) {
        self.demand_hi.fetch_max(target, Ordering::Release);
    }

    /// Consumer side: the end of the prefix handed to storage moved.
    #[inline]
    pub fn set_written(&self, to: u64) {
        self.written.store(to, Ordering::Release);
    }

    /// Consumer side: does anybody wait — registered or by a settled
    /// demand — for bytes above the written prefix?
    #[inline]
    pub fn demanded(&self) -> bool {
        let written = self.written.load(Ordering::Relaxed);
        self.demand_hi() > written || self.urged() > written
    }

    /// Consumer side: the highest offset of a settled demand so far.
    #[inline]
    pub fn urged(&self) -> u64 {
        self.urged.load(Ordering::Acquire)
    }

    /// Consumer side: the highest offset a durability waiter has
    /// registered for so far.
    #[inline]
    pub fn demand_hi(&self) -> u64 {
        self.demand_hi.load(Ordering::Acquire)
    }

    /// Wake the consumer on behalf of a durability waiter whose target
    /// no flush has taken yet. A waiter calls this right after
    /// registering its demand: the fills that should satisfy it
    /// (typically the waiter's own, completed just before) may have
    /// happened before the demand was visible, in which case
    /// `mark_filled` stayed quiet — and the consumer may have *scanned*
    /// them since and, with nobody waiting for them then, left them
    /// unwritten. Only a target below the written offset is certain to be
    /// covered by a flush already underway.
    pub fn kick_if_unwritten(&self, target: u64) {
        fence(Ordering::SeqCst);
        if self.written.load(Ordering::Acquire) < target {
            self.wake_consumer();
        }
    }

    /// A settled demand for everything below `upto`: whoever filled it
    /// fills nothing more before it waits. Unless a flush has already
    /// taken the bytes, wakes a consumer parked for fills — and one
    /// pacing its next flush by the clock, if it said it would listen
    /// ([`RingBuffer::sleep_through_fills`]): this is the one demand that
    /// can move that instant.
    pub fn urge(&self, upto: u64) {
        self.urged.fetch_max(upto, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.written.load(Ordering::Acquire) < upto
            && !matches!(self.consumer_parked.load(Ordering::Relaxed), 0 | PARKED_DEAF)
        {
            self.notify_parked_consumer();
        }
    }

    /// Notify the consumer if (and only if) it is parked *for fills*.
    /// Callers must have published the state the consumer will re-check
    /// *before* a `SeqCst` fence that precedes this call.
    fn wake_consumer(&self) {
        if self.consumer_parked.load(Ordering::Relaxed) == PARKED_FOR_FILLS {
            let _guard = self.wake_mx.lock().unwrap();
            self.filled_cv.notify_one();
        }
    }

    /// Wake the consumer for something that is not a fill (a device
    /// sync it handed off has completed), however it is parked. The
    /// caller publishes what the consumer's `kicked` closure reads
    /// *before* this call; the fence here and the one in the park path
    /// are the same Dekker handshake fills use.
    pub fn kick_consumer(&self) {
        fence(Ordering::SeqCst);
        if self.consumer_parked.load(Ordering::Relaxed) != 0 {
            self.notify_parked_consumer();
        }
    }

    fn notify_parked_consumer(&self) {
        // Passing through the mutex is what orders this wake after the
        // consumer's re-check; notifying once it is released spares the
        // woken consumer a second sleep on the mutex.
        drop(self.wake_mx.lock().unwrap());
        self.filled_cv.notify_one();
    }

    /// Block until the ring can hold bytes up to logical offset `end`
    /// (i.e. `end - flushed <= cap`). Called once per reservation; in the
    /// common case (log buffer not full) this is a single atomic load.
    /// Returns `false` if the buffer was poisoned while (or before)
    /// waiting — the space will never become available.
    ///
    /// Parks on precise `space_cv` notifications: `mark_flushed`
    /// publishes the watermark, fences, and notifies when the waiter
    /// count is non-zero; `poison` wakes everyone. No poll timeout.
    #[must_use]
    pub fn wait_for_space(&self, end: u64) -> bool {
        if end.saturating_sub(self.flushed()) <= self.cap {
            return !self.is_poisoned();
        }
        let guard = self.wake_mx.lock().unwrap();
        self.space_waiters.fetch_add(1, Ordering::Relaxed);
        self.space_waits.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let _guard = self
            .space_cv
            .wait_while(guard, |_| {
                !self.is_poisoned() && end.saturating_sub(self.flushed()) > self.cap
            })
            .unwrap();
        self.space_waiters.fetch_sub(1, Ordering::Relaxed);
        !self.is_poisoned()
    }

    /// Copy `bytes` into the ring at logical offset `offset` and mark the
    /// range filled. The caller must own the reservation for
    /// `offset..offset+bytes.len()` and have waited for space.
    pub fn write(&self, offset: u64, bytes: &[u8]) {
        let len = bytes.len() as u64;
        debug_assert!(len <= self.cap);
        debug_assert!(
            offset + len <= self.flushed() + self.cap,
            "writer skipped wait_for_space: copying outside the space window \
             overwrites unflushed bytes"
        );
        let pos = (offset % self.cap) as usize;
        let first = std::cmp::min(bytes.len(), self.cap as usize - pos);
        // SAFETY: reservations hand out disjoint logical ranges, and a
        // range's ring bytes are not read by the flusher until the writer
        // publishes them via mark_filled (Release). So this region is
        // exclusively ours for the duration of the copy.
        unsafe {
            let base = self.data.as_ptr();
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), base.add(pos), first);
            if first < bytes.len() {
                std::ptr::copy_nonoverlapping(bytes.as_ptr().add(first), base, bytes.len() - first);
            }
        }
        self.mark_filled(offset, len);
    }

    /// Copy `header` into the ring at logical offset `offset`, then mark
    /// the whole `offset..offset+len` range filled in a *single* stamping
    /// pass. Used for skip blocks: the bytes past the header are padding
    /// nobody decodes, but header and padding must become visible to the
    /// consumer atomically — a two-step fill would let the durable
    /// watermark freeze between the header and its padding, leaving a
    /// skip header on disk whose advertised length was never covered.
    pub fn write_prefix_and_fill(&self, offset: u64, header: &[u8], len: u64) {
        debug_assert!(header.len() as u64 <= len && len <= self.cap);
        debug_assert!(offset + len <= self.flushed() + self.cap, "writer skipped wait_for_space");
        let pos = (offset % self.cap) as usize;
        let first = std::cmp::min(header.len(), self.cap as usize - pos);
        // SAFETY: same argument as `write` — the reservation owns this
        // range and nothing reads it until the mark_filled below.
        unsafe {
            let base = self.data.as_ptr();
            std::ptr::copy_nonoverlapping(header.as_ptr(), base.add(pos), first);
            if first < header.len() {
                std::ptr::copy_nonoverlapping(
                    header.as_ptr().add(first),
                    base,
                    header.len() - first,
                );
            }
        }
        self.mark_filled(offset, len);
    }

    /// Reset the ring to begin a new life at logical offset `start`,
    /// clearing the poison flag: every slot stamp is zeroed (its pages
    /// handed back) and both watermarks jump to `start`. Only sound when
    /// fully quiesced — no outstanding reservations, no running consumer
    /// (the resume path joins the flusher and drains writers first).
    pub fn reset(&self, start: u64) {
        assert!(start.is_multiple_of(SLOT), "reset offset must be block-aligned");
        self.stamps.release(0..self.stamps.len());
        self.filled.store(start, Ordering::Release);
        self.flushed.store(start, Ordering::Release);
        self.demand.store(u64::MAX, Ordering::Release);
        self.demand_hi.store(0, Ordering::Release);
        self.urged.store(0, Ordering::Release);
        self.written.store(start, Ordering::Release);
        self.poisoned.store(false, Ordering::Release);
        // The next flusher incarnation is a fresh thread; let it claim
        // the single-consumer role.
        #[cfg(debug_assertions)]
        {
            *self.consumer.lock().unwrap() = None;
        }
        fence(Ordering::SeqCst);
    }

    /// Mark `offset..offset+len` filled (without copying, for dead
    /// zones). Lock-free: a release store per covered slot, one `SeqCst`
    /// fence, and a mutex touch only when the consumer is parked *and*
    /// this fill matters to it (a durability target lies at or above
    /// `offset`, or a drain-worthy batch has accumulated).
    ///
    /// The caller must have won [`RingBuffer::wait_for_space`] for the
    /// *entire* range: a slot may carry generation `g+1` only after its
    /// generation-`g` occupant was flushed, so stamping outside the
    /// space window overwrites an unconsumed stamp and stalls the
    /// watermark permanently.
    pub fn mark_filled(&self, offset: u64, len: u64) {
        debug_assert!(
            offset.is_multiple_of(SLOT) && len.is_multiple_of(SLOT),
            "fills are block-aligned"
        );
        debug_assert!(len > 0 && len <= self.cap);
        // `flushed` only advances, so a writer that legitimately waited
        // can never trip this; a writer that skipped the wait almost
        // always will.
        debug_assert!(
            offset + len <= self.flushed.load(Ordering::Relaxed) + self.cap,
            "mark_filled outside the space window: [{:#x}, {:#x}) with flushed {:#x}, cap {:#x}",
            offset,
            offset + len,
            self.flushed.load(Ordering::Relaxed),
            self.cap
        );
        let first = offset / SLOT;
        let last = (offset + len) / SLOT;
        // Stamp in *reverse* order: the consumer's forward scan admits a
        // range only once its first slot is stamped, and that stamp is
        // release-ordered after every later slot's — so one fill call is
        // all-or-nothing to the scan. The filled (and hence durable)
        // watermark can therefore freeze only between fills, never
        // inside a block, which the degraded-mode resume path relies on
        // when it writes skip blocks from the durable frontier.
        for s in (first..last).rev() {
            let idx = (s % self.nslots) as usize;
            let generation = s / self.nslots + 1;
            debug_assert!(generation <= u64::from(u32::MAX), "slot generation overflow");
            let stamp = generation as u32;
            if cfg!(debug_assertions) {
                // Double-fill detector: a slot is stamped exactly once
                // per wrap generation (reservations are disjoint and the
                // previous generation was flushed before ours started).
                let prev = self.stamp(idx).swap(stamp, Ordering::Release);
                debug_assert!(
                    prev < stamp,
                    "double fill at offset {:#x} (generation {stamp}, slot already {prev})",
                    s * SLOT
                );
            } else {
                self.stamp(idx).store(stamp, Ordering::Release);
            }
        }
        // Wake the consumer *immediately* when this fill lands below a
        // registered durability target: a synchronous committer is
        // parked on a range this fill may complete, and every
        // microsecond of flusher sleep is added commit latency. (Any
        // fill at or above the target cannot be the one that completes
        // the contiguous prefix up to it.) Likewise a fill below a
        // settled demand: it closes a hole under bytes whose owner has
        // already asked for their flush. Without demand, wake only
        // when a meaningful batch accumulated — the periodic timeout
        // drains the idle tail (group commit); a wake per commit would
        // cost a scheduler round trip per transaction.
        fence(Ordering::SeqCst);
        let end = offset + len;
        let demand = self.demand.load(Ordering::Relaxed);
        if (demand != u64::MAX && offset < demand)
            || offset < self.urged.load(Ordering::Relaxed)
            || end.saturating_sub(self.flushed.load(Ordering::Relaxed)) >= self.cap / 4
        {
            self.wake_consumer();
        }
    }

    /// Consumer side: advance the contiguous `filled` watermark over
    /// every slot stamped with its expected generation, starting from
    /// the last position. Returns the (possibly unchanged) watermark.
    pub fn advance_filled(&self) -> u64 {
        self.assert_single_consumer();
        // Relaxed: only the consumer stores `filled`.
        let start = self.filled.load(Ordering::Relaxed);
        let mut cur = start;
        loop {
            let s = cur / SLOT;
            let idx = (s % self.nslots) as usize;
            let stamp = (s / self.nslots + 1) as u32;
            if self.stamp(idx).load(Ordering::Acquire) != stamp {
                break;
            }
            cur += SLOT;
        }
        if cur != start {
            self.filled.store(cur, Ordering::Release);
        }
        cur
    }

    /// Stamp-inclusive watermark estimate for *non-consumer* threads: a
    /// read-only scan from `filled` that does not publish its result
    /// (the consumer owns `filled`). Used by `LogManager::sync` to name
    /// "everything filled so far" without racing the flusher.
    pub fn scan_tip(&self) -> u64 {
        let mut cur = self.filled.load(Ordering::Acquire);
        loop {
            let s = cur / SLOT;
            let idx = (s % self.nslots) as usize;
            let stamp = (s / self.nslots + 1) as u32;
            if self.stamp(idx).load(Ordering::Acquire) != stamp {
                break;
            }
            cur += SLOT;
        }
        cur
    }

    /// Consumer side: wait until the watermark scan passes `from`,
    /// `kicked()` turns true (see [`RingBuffer::kick_consumer`]) or the
    /// timeout elapses (`None`: no limit); returns the current filled
    /// watermark. One sleep at most — the caller loops.
    pub fn wait_filled(
        &self,
        from: u64,
        timeout: Option<Duration>,
        kicked: impl Fn() -> bool,
    ) -> u64 {
        let cur = self.advance_filled();
        if cur > from {
            return cur;
        }
        self.park(PARKED_FOR_FILLS, timeout, || self.advance_filled() > from || kicked());
        self.advance_filled()
    }

    /// Consumer side: sleep *through* fills — however many land, and
    /// whatever the registered demand — until `kicked()` turns true or
    /// the timeout elapses. For a consumer that has already decided not
    /// to drain before some instant: every fill-side wake it is spared
    /// is a context switch a committer does not pay for. With `urgeable`
    /// a settled demand above the written prefix ([`RingBuffer::urge`])
    /// ends the sleep as well.
    pub fn sleep_through_fills(
        &self,
        timeout: Option<Duration>,
        urgeable: bool,
        kicked: impl Fn() -> bool,
    ) {
        self.assert_single_consumer();
        if urgeable {
            let written = self.written.load(Ordering::Relaxed);
            self.park(PARKED_PACED, timeout, || kicked() || self.urged() > written);
        } else {
            self.park(PARKED_DEAF, timeout, kicked);
        }
    }

    fn park(&self, mode: u32, timeout: Option<Duration>, ready: impl Fn() -> bool) {
        let guard = self.wake_mx.lock().unwrap();
        self.consumer_parked.store(mode, Ordering::Relaxed);
        // Dekker handshake with `mark_filled` and `kick_consumer`:
        // publish that we are parked, then re-check. Either the re-check
        // sees what a waker published before its own fence, or the waker
        // sees `consumer_parked != 0` and notifies under the mutex we
        // hold.
        fence(Ordering::SeqCst);
        let _guard = if ready() {
            guard
        } else if let Some(t) = timeout {
            self.filled_cv.wait_timeout(guard, t).unwrap().0
        } else {
            self.filled_cv.wait(guard).unwrap()
        };
        self.consumer_parked.store(0, Ordering::Relaxed);
    }

    /// Flusher side: hand the bytes of `range` (all below the filled
    /// watermark) to `sink` in at most two slices (ring wrap).
    ///
    /// # Panics
    /// If the range is not entirely filled or longer than the capacity.
    pub fn read_range(&self, start: u64, end: u64, mut sink: impl FnMut(&[u8])) {
        assert!(end <= self.filled());
        assert!(end - start <= self.cap);
        if start == end {
            return;
        }
        let pos = (start % self.cap) as usize;
        let len = (end - start) as usize;
        let first = std::cmp::min(len, self.cap as usize - pos);
        // SAFETY: below the filled watermark no writer touches these
        // bytes (reservations are monotonic and disjoint, and their next
        // wrap generation waits for `flushed` to pass this one), and the
        // watermark scan's Acquire loads of the slot stamps synchronized
        // with the writers' Release publication of the copied bytes.
        unsafe {
            let base = self.data.as_ptr();
            sink(std::slice::from_raw_parts(base.add(pos), first));
            if first < len {
                sink(std::slice::from_raw_parts(base, len - first));
            }
        }
    }

    /// True while a reservation is parked waiting for ring space.
    #[inline]
    pub fn has_space_waiters(&self) -> bool {
        self.space_waiters.load(Ordering::Relaxed) != 0
    }

    /// Flusher side: hand the memory pages lying wholly inside logical
    /// `[lo, hi)` — of the bytes and of their stamps — back to the
    /// operating system (they read as zeros until written again), so the
    /// ring's resident size follows what is in flight rather than
    /// everything ever logged. A zero stamp matches no generation, so the
    /// watermark scan stops on it exactly as on the stale one it replaces.
    ///
    /// The range must be drained to storage and **not yet published**
    /// through [`RingBuffer::mark_flushed`]: below the published
    /// watermark the next wrap generation's writers are already admitted
    /// and may be copying into, and stamping, these very pages.
    pub fn release(&self, lo: u64, hi: u64) {
        assert!(
            self.flushed() <= lo && lo <= hi && hi <= self.filled() && hi - lo <= self.cap,
            "release after publish, or of unfilled bytes: [{lo:#x}, {hi:#x}) with flushed {:#x}, filled {:#x}",
            self.flushed(),
            self.filled()
        );
        release_wrapped(&self.data, self.cap, lo, hi);
        release_wrapped(&self.stamps, self.nslots * STAMP, lo / SLOT * STAMP, hi / SLOT * STAMP);
    }

    #[inline]
    fn stamp(&self, idx: usize) -> &AtomicU32 {
        &self.stamps.view::<AtomicU32>()[idx]
    }

    /// Flusher side: advance the flushed watermark and wake space
    /// waiters. Publishes the watermark, fences, then notifies only if a
    /// waiter registered itself — the Dekker handshake mirrored in
    /// [`RingBuffer::wait_for_space`] makes the wakeup precise without
    /// an unconditional mutex acquisition per flush batch.
    pub fn mark_flushed(&self, to: u64) {
        debug_assert!(to <= self.filled());
        self.flushed.store(to, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.space_waiters.load(Ordering::Relaxed) != 0 {
            let _guard = self.wake_mx.lock().unwrap();
            self.space_cv.notify_all();
        }
    }

    /// Debug check that exactly one thread ever consumes (advances the
    /// watermark / parks on `filled_cv`): the availability ring's plain
    /// `filled` store and the `notify_one` wake both assume it.
    #[inline]
    fn assert_single_consumer(&self) {
        #[cfg(debug_assertions)]
        {
            let me = std::thread::current().id();
            let mut owner = self.consumer.lock().unwrap();
            match *owner {
                None => *owner = Some(me),
                Some(t) => debug_assert_eq!(
                    t, me,
                    "RingBuffer has a single consumer; a second thread ran the watermark scan"
                ),
            }
        }
    }
}

/// Release logical `[lo, hi)` of a ring of `len` bytes laid over the
/// front of `region`: at most two runs (the wrap).
fn release_wrapped(region: &Region, len: u64, lo: u64, hi: u64) {
    let pos = lo % len;
    let first = std::cmp::min(hi - lo, len - pos);
    region.release(pos as usize..(pos + first) as usize);
    region.release(0..(hi - lo - first) as usize);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: scan, then report the watermark (the consumer role).
    fn filled_now(rb: &RingBuffer) -> u64 {
        rb.advance_filled()
    }

    /// Test helper: yield until `published` holds — a waiter publishes
    /// that it is parked (`has_space_waiters`, `consumer_parked`) under
    /// the mutex, just before it sleeps on the condvar.
    fn spin_until(published: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !published() {
            assert!(start.elapsed() < Duration::from_secs(10), "the waiter never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn in_order_fills_advance_watermark() {
        let rb = RingBuffer::new(1024, 0);
        assert_eq!(rb.capacity(), 1024);
        rb.write(0, &[1; 96]);
        assert_eq!(filled_now(&rb), 96);
        rb.write(96, &[2; 64]);
        assert_eq!(filled_now(&rb), 160);
    }

    #[test]
    fn out_of_order_fills_merge() {
        let rb = RingBuffer::new(1024, 0);
        rb.write(96, &[2; 64]);
        assert_eq!(filled_now(&rb), 0);
        rb.mark_filled(160, 32); // dead zone, also pending
        rb.write(0, &[1; 96]);
        assert_eq!(filled_now(&rb), 192);
    }

    #[test]
    fn scan_tip_sees_stamps_without_publishing() {
        let rb = RingBuffer::new(1024, 0);
        rb.write(0, &[3; 64]);
        assert_eq!(rb.scan_tip(), 64);
        // The consumer-owned watermark is untouched by the read-only scan.
        assert_eq!(rb.filled(), 0);
        assert_eq!(filled_now(&rb), 64);
    }

    #[test]
    fn read_range_sees_written_bytes_across_wrap() {
        let rb = RingBuffer::new(128, 0);
        rb.write(0, &[7; 96]);
        assert_eq!(filled_now(&rb), 96);
        rb.read_range(0, 96, |s| assert!(s.iter().all(|&b| b == 7)));
        rb.mark_flushed(96);
        // This write wraps: positions 96..128 then 0..64.
        rb.write(96, &[9; 96]);
        assert_eq!(filled_now(&rb), 192);
        let mut total = 0;
        let mut chunks = 0;
        rb.read_range(96, 192, |s| {
            assert!(s.iter().all(|&b| b == 9));
            total += s.len();
            chunks += 1;
        });
        assert_eq!(total, 96);
        assert_eq!(chunks, 2);
    }

    #[test]
    fn wait_for_space_blocks_until_flush() {
        let rb = std::sync::Arc::new(RingBuffer::new(96, 0));
        rb.write(0, &[1; 96]);
        assert_eq!(filled_now(&rb), 96);
        let rb2 = std::sync::Arc::clone(&rb);
        let t = std::thread::spawn(move || {
            assert!(rb2.wait_for_space(192)); // needs flushed >= 96
            rb2.write(96, &[2; 96]);
        });
        spin_until(|| rb.has_space_waiters());
        assert_eq!(rb.scan_tip(), 96, "writer must not proceed before flush");
        rb.mark_flushed(96);
        t.join().unwrap();
        assert_eq!(filled_now(&rb), 192);
    }

    #[test]
    fn wait_filled_times_out() {
        let rb = RingBuffer::new(64, 0);
        let got = rb.wait_filled(0, Some(Duration::from_millis(5)), || false);
        assert_eq!(got, 0);
    }

    #[test]
    fn space_waiter_wake_latency_is_precise() {
        // Regression: space waiters used to poll on a 10ms timeout, so a
        // blocked writer woke up to 10ms after space freed. With precise
        // notifications the median wake must sit far below that — and
        // the waiter-count-gated protocol must not have reintroduced a
        // lost-wakeup window.
        const ROUNDS: usize = 15;
        let mut latencies = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let rb = std::sync::Arc::new(RingBuffer::new(96, 0));
            rb.write(0, &[1; 96]);
            rb.advance_filled();
            let rb2 = std::sync::Arc::clone(&rb);
            let t = std::thread::spawn(move || {
                assert!(rb2.wait_for_space(192));
                std::time::Instant::now()
            });
            spin_until(|| rb.has_space_waiters());
            let released = std::time::Instant::now();
            rb.mark_flushed(96);
            let woke = t.join().unwrap();
            latencies.push(woke.duration_since(released));
        }
        latencies.sort();
        let median = latencies[ROUNDS / 2];
        assert!(
            median < Duration::from_millis(5),
            "median wake latency {median:?} suggests polling, not precise wakeups"
        );
    }

    #[test]
    fn parked_consumer_woken_by_demand_covering_fill() {
        // The filled-side analogue of the space-waiter latency test: a
        // consumer parked with a long timeout must be woken promptly by
        // a fill below the registered demand — the precise-wakeup
        // guarantee that survived the lock removal.
        const ROUNDS: usize = 10;
        let mut latencies = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            let rb = std::sync::Arc::new(RingBuffer::new(1024, 0));
            rb.set_demand(32);
            let rb2 = std::sync::Arc::clone(&rb);
            let t = std::thread::spawn(move || {
                let got = rb2.wait_filled(0, Some(Duration::from_secs(5)), || false);
                (got, std::time::Instant::now())
            });
            spin_until(|| rb.consumer_parked.load(Ordering::Relaxed) != 0);
            let released = std::time::Instant::now();
            rb.mark_filled(0, 32);
            let (got, woke) = t.join().unwrap();
            assert_eq!(got, 32, "round {round}: consumer must observe the fill");
            latencies.push(woke.duration_since(released));
        }
        latencies.sort();
        let median = latencies[ROUNDS / 2];
        assert!(
            median < Duration::from_millis(50),
            "median consumer wake latency {median:?}: demand-covering fill failed to wake"
        );
    }

    #[test]
    fn idle_fill_does_not_wake_parked_consumer() {
        // Without demand and below the batch threshold, a fill leaves
        // the consumer parked until its timeout — group-commit batching.
        let rb = std::sync::Arc::new(RingBuffer::new(1024, 0));
        let rb2 = std::sync::Arc::clone(&rb);
        let t = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let got = rb2.wait_filled(0, Some(Duration::from_millis(80)), || false);
            (got, start.elapsed())
        });
        spin_until(|| rb.consumer_parked.load(Ordering::Relaxed) != 0);
        rb.mark_filled(0, 32); // 32 < cap/4, demand = MAX
        let (got, waited) = t.join().unwrap();
        assert_eq!(got, 32, "the timeout scan still observes the fill");
        assert!(
            waited >= Duration::from_millis(60),
            "consumer woke after {waited:?}: an idle fill should not have notified"
        );
    }

    #[test]
    fn deaf_consumer_sleeps_through_fills_until_kicked() {
        // A consumer that has decided not to drain yet must not pay a
        // wake-up per demand-covering fill; a kick (whose cause the
        // `kicked` closure can see) ends the sleep at once.
        let rb = std::sync::Arc::new(RingBuffer::new(1024, 0));
        rb.set_demand(32);
        let kicked = std::sync::Arc::new(AtomicBool::new(false));
        let (rb2, kicked2) = (std::sync::Arc::clone(&rb), std::sync::Arc::clone(&kicked));
        let t = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            rb2.sleep_through_fills(Some(Duration::from_secs(5)), false, || {
                kicked2.load(Ordering::Acquire)
            });
            start.elapsed()
        });
        spin_until(|| rb.consumer_parked.load(Ordering::Relaxed) != 0);
        rb.mark_filled(0, 32); // below the demand: would wake a consumer parked for fills
        rb.kick_if_unwritten(32);
        std::thread::sleep(Duration::from_millis(60));
        assert!(!t.is_finished(), "a fill woke a consumer sleeping through fills");
        kicked.store(true, Ordering::Release);
        rb.kick_consumer();
        let slept = t.join().unwrap();
        assert!(slept < Duration::from_secs(4), "the kick did not end the sleep ({slept:?})");
    }

    #[test]
    fn poison_unblocks_space_waiters() {
        let rb = std::sync::Arc::new(RingBuffer::new(96, 0));
        rb.write(0, &[1; 96]);
        rb.advance_filled();
        let rb2 = std::sync::Arc::clone(&rb);
        let t = std::thread::spawn(move || rb2.wait_for_space(192));
        spin_until(|| rb.has_space_waiters());
        rb.poison();
        assert!(!t.join().unwrap(), "poisoned wait must report failure");
        assert!(!rb.wait_for_space(128), "fast path also observes poison");
        assert!(rb.is_poisoned());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double fill")]
    fn double_fill_is_detected() {
        let rb = RingBuffer::new(1024, 0);
        rb.mark_filled(64, 32);
        rb.mark_filled(64, 32); // second stamp of the same generation
    }

    #[test]
    fn released_stamps_stop_the_scan_and_take_the_next_generation() {
        // Large enough that a lap covers whole stamp pages.
        const CAP: u64 = 1 << 20;
        let rb = RingBuffer::new(CAP, 0);
        rb.write(0, &vec![7; CAP as usize]);
        assert_eq!(rb.advance_filled(), CAP);
        rb.release(0, CAP);
        assert!(rb.stamps.view::<AtomicU32>()[..rb.nslots as usize]
            .iter()
            .all(|s| s.load(Ordering::Relaxed) == 0));
        rb.mark_flushed(CAP);
        // The scan stands on a zero stamp, not a generation-1 one.
        assert_eq!(rb.advance_filled(), CAP);
        assert_eq!(rb.scan_tip(), CAP);
        rb.write(CAP, &[9; 64]);
        assert_eq!(rb.advance_filled(), CAP + 64);
        rb.read_range(CAP, CAP + 64, |s| assert!(s.iter().all(|&b| b == 9)));
    }

    #[test]
    #[should_panic(expected = "release after publish")]
    fn releasing_published_space_is_refused() {
        // The mutation of `Flusher::publish` that swaps its two calls:
        // below the published watermark the next generation is writing.
        let rb = RingBuffer::new(1 << 20, 0);
        rb.write(0, &[1; 4096]);
        assert_eq!(rb.advance_filled(), 4096);
        rb.mark_flushed(4096);
        rb.release(0, 4096);
    }

    #[test]
    fn reset_zeroes_every_stamp() {
        let rb = RingBuffer::new(1024, 0);
        rb.write(0, &[1; 1024]);
        assert_eq!(rb.advance_filled(), 1024);
        rb.mark_flushed(1024);
        rb.reset(0);
        assert_eq!(rb.advance_filled(), 0, "a generation-1 stamp survived the reset");
        rb.write(0, &[2; 32]);
        assert_eq!(rb.advance_filled(), 32);
    }

    #[test]
    fn generation_stamps_survive_many_wraps() {
        // Fill → drain the ring several times over; the watermark must
        // keep advancing (wrap generations never collide) and bytes must
        // read back correctly on the last lap.
        let rb = RingBuffer::new(128, 0);
        let mut off = 0u64;
        for lap in 0..9u8 {
            for _ in 0..4 {
                assert!(rb.wait_for_space(off + 32));
                rb.write(off, &[lap; 32]);
                off += 32;
            }
            assert_eq!(rb.advance_filled(), off);
            if lap == 8 {
                rb.read_range(off - 128, off, |s| assert!(s.iter().all(|&b| b == 8)));
            }
            rb.mark_flushed(off);
        }
        assert_eq!(off, 9 * 128);
    }
}
