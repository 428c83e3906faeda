//! The centralized log ring buffer.
//!
//! Logical LSN offsets map directly onto ring positions (`offset % cap`),
//! so a reservation made with the global `fetch_add`
//! ([`RingBuffer::reserve`]) already names its buffer space — no further
//! coordination is needed to find where to write. Writers encode their
//! block into its range (in two pieces when it wraps the ring's end) and
//! publish it; the flusher merges out-of-order fills into a contiguous
//! watermark it can drain. Skip records and dead zones (which map to no
//! disk location) are published as a bare header, so they never stall
//! the watermark.
//!
//! # The ring is its own availability map
//!
//! Publishing is on the commit hot path — once per transaction, plus one
//! per skip record and dead zone — and must not serialize committing
//! threads (§3.3: after the single `fetch_add`, a committer touches
//! nothing shared but its own block). Every fill opens with a 32-byte
//! [`LogBlockHeader`] whose `len` covers the fill, and a writer publishes
//! the fill with one `Release` store of `offset | 1` into the header's
//! last word, `prev` — no lock, no allocation, no CAS, nothing outside
//! the fill. No plain store ever touches that word:
//! [`BlockEncoder::finish`] writes the header's first 24 bytes, and
//! [`RingBuffer::write`] copies around it.
//!
//! The flusher (the only consumer) advances the contiguous `filled`
//! watermark by loading the word at the next expected start: if it reads
//! that start's `offset | 1`, the fill is whole, and its header's `len`
//! is the hop to the next ([`RingBuffer::advance_filled`]). The `Acquire`
//! load synchronizes with the writer's `Release` store, program-ordered
//! after every byte of the fill — so everything below the watermark is
//! safely readable by [`RingBuffer::read_range`]. One store makes a fill
//! all-or-nothing to the scan: the filled (and hence durable) watermark
//! stops only between fills, never inside a block, which the
//! degraded-mode resume relies on when it writes skip blocks from the
//! durable frontier.
//!
//! Any other word stops the scan, and a start nobody has published reads
//! zero: [`RingBuffer::mark_flushed`] zeroes the word of every 32-byte
//! slot it hands to the next lap, and [`RingBuffer::reset`] the whole
//! ring. So neither an older lap's header nor a payload that happens to
//! hold the right bytes passes for a fill, and the `| 1` keeps a zero
//! word from matching offset 0. The scan also stops at the reservation
//! frontier, so it maps no page no claim covers, and at `flushed + cap`,
//! where no fill starts yet and the word may be payload of the block
//! `flushed` cuts. Debug builds keep a table of the lap each slot was
//! last filled in and assert that every slot a fill covers was last
//! filled in an older one — the double-fill detector.
//!
//! *Every* fill path — commit blocks, skip records and dead zones alike —
//! waits for space over its whole range before it writes. The global
//! `fetch_add` precedes that wait, so a writer that lost a segment
//! rotation can hold a claim far beyond `flushed + cap` while the ring is
//! full; filling it early would overwrite bytes the flusher has not
//! drained. Debug builds assert the window (`end − flushed ≤ cap`) on
//! every fill, and `rotation_with_full_ring_converges` drives that corner.
//!
//! # Parked-waiter condvar protocol
//!
//! The remaining mutex guards only the two condvars and is touched
//! *only when someone is actually parked*. Wakers run a Dekker-style
//! handshake: publish state (a fill's word / `flushed`) with a `SeqCst`
//! fence, then check an atomic waiter count and lock + notify only if it
//! is non-zero. Sleepers register their count (and re-check the
//! condition) while holding the mutex, separated from the re-check by a
//! `SeqCst` fence. Either the waker observes the registered sleeper and
//! notifies under the mutex (no lost wakeup: notification happens while
//! the sleeper holds the mutex), or the sleeper's re-check observes the
//! waker's published state and never sleeps. On the uncontended path,
//! a fill and `mark_flushed` never touch the mutex at all.

use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use ermia_common::{CachePadded, Lsn, Region};

use crate::records::{
    BlockEncoder, BlockKind, LogBlockHeader, BLOCK_HEADER_LEN, LEN_AT, MIN_BLOCK_LEN, PREV_AT,
};

/// Fills start on multiples of this, and so do the words that publish
/// them.
const SLOT: u64 = MIN_BLOCK_LEN as u64;
/// Rings at least this large hand drained memory back to the operating
/// system ([`RingBuffer::mark_flushed`]); smaller ones (tests, the
/// in-memory configuration) are cheaper left resident.
const MIN_RELEASING_RING: u64 = 16 << 20;
/// How far such a ring lets its space watermark trail the durable one,
/// to batch the calls that give pages back ([`RingBuffer::free_space`]).
const RELEASE_CHUNK: u64 = 256 << 10;

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
    /// The reservation frontier: one past the last byte claimed with
    /// [`RingBuffer::reserve`], the log's single global `fetch_add`.
    next: CachePadded<AtomicU64>,
    /// Contiguous prefix of the LSN space that has been filled.
    /// Advanced only by the consumer (the flusher) via the scan.
    filled: AtomicU64,
    /// Prefix that the flusher has drained to stable storage (or
    /// discarded, for dead zones / in-memory logs).
    flushed: AtomicU64,
    /// Lowest logical offset a durability waiter is parked on
    /// (`u64::MAX` when nobody waits). Maintained by the log manager's
    /// waiter registry; a fill wakes the flusher the moment it lands
    /// below it, regardless of batch size.
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
    /// Per 32-byte slot, one [`AtomicU64`]: the lap (plus one) that last
    /// filled it — the double-fill detector (debug builds only).
    #[cfg(debug_assertions)]
    laps: Region,
    /// Single-consumer discipline check (debug builds only).
    #[cfg(debug_assertions)]
    consumer: Mutex<Option<std::thread::ThreadId>>,
}

// The ring is `Sync` through its fields. The data region is written
// through its raw pointer by concurrent writers holding disjoint
// reservations and read by the flusher only below the filled watermark;
// see `fill_with` / `read_range` for the argument.

impl RingBuffer {
    /// `cap` bytes of buffer, beginning life with the frontier and the
    /// watermarks at `start` (the initial LSN offset). Both must be
    /// multiples of [`MIN_BLOCK_LEN`], matching the alignment of every
    /// reservation.
    ///
    /// # Panics
    /// Before mapping anything, on a capacity above `u32::MAX & !31`: a
    /// fill may be as long as the ring, and its header says so in 32 bits.
    pub fn new(cap: u64, start: u64) -> RingBuffer {
        assert!(
            cap.is_multiple_of(SLOT) && (SLOT..=u32::MAX as u64).contains(&cap),
            "a {cap}-byte ring: a multiple of MIN_BLOCK_LEN, at most a header's 32-bit length"
        );
        assert!(start.is_multiple_of(SLOT), "start offset must be block-aligned");
        RingBuffer {
            cap,
            data: Region::new(cap as usize),
            next: CachePadded::new(AtomicU64::new(start)),
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
            laps: Region::new((cap / SLOT * 8) as usize),
            #[cfg(debug_assertions)]
            consumer: Mutex::new(None),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.cap
    }

    /// Claim `len` bytes of the logical offset space — the log's one
    /// global `fetch_add` (§3.3) — and return where the claim starts.
    #[inline]
    pub fn reserve(&self, len: u64) -> u64 {
        self.next.fetch_add(len, Ordering::SeqCst)
    }

    /// The reservation frontier: one past the last byte claimed.
    #[inline]
    pub fn frontier(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    /// Cumulative number of slow-path space waits (telemetry).
    #[inline]
    pub fn space_waits(&self) -> u64 {
        self.space_waits.load(Ordering::Relaxed)
    }

    /// The contiguous filled watermark as last advanced by the consumer.
    /// May lag freshly published fills until the consumer's next scan;
    /// see [`RingBuffer::scan_tip`] for the view that includes them.
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
    /// the fill stayed quiet — and the consumer may have *scanned*
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

    /// Copy `bytes`, a whole block, into the ring at logical offset
    /// `offset` and publish it. The caller must own the reservation for
    /// `offset..offset+bytes.len()` and have waited for space.
    ///
    /// # Panics
    /// If the block's header says another length: the scan hops by it.
    pub fn write(&self, offset: u64, bytes: &[u8]) {
        let said = bytes.get(LEN_AT..LEN_AT + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
        assert_eq!(said.map(|n| n as usize), Some(bytes.len()), "a header says another length");
        self.fill_with(offset, bytes.len() as u64, |head, tail| {
            // Around the `prev` word: the publication stores it.
            head[..PREV_AT].copy_from_slice(&bytes[..PREV_AT]);
            BlockEncoder::new(&mut head[BLOCK_HEADER_LEN..], tail).put(&bytes[BLOCK_HEADER_LEN..]);
        });
    }

    /// Publish `offset..offset+len` as a skip block: a bare header, the
    /// bytes behind it never examined — a reservation given up, a
    /// segment's closing pad, or a dead zone, which reaches no disk. The
    /// caller must own the reservation for the range and have waited for
    /// space.
    pub fn mark_filled(&self, offset: u64, len: u64) {
        let mut header = [0u8; BLOCK_HEADER_LEN];
        let (kind, cstamp) = (BlockKind::Skip, Lsn::NULL);
        let len32 = u32::try_from(len).expect("a fill is at most the ring");
        LogBlockHeader { kind, nrec: 0, len: len32, checksum: 0, cstamp, prev: 0 }
            .encode_into(&mut header);
        self.fill_with(offset, len, |head, _| head[..PREV_AT].copy_from_slice(&header[..PREV_AT]));
    }

    /// Hand `encode` the ring bytes of `offset..offset+len` — one slice,
    /// or two when the range wraps the ring's end (the header is whole
    /// in the first) — then publish the block it wrote: `encode` writes
    /// the header's `len` and leaves its `prev` word alone. The caller
    /// must own the reservation for the range and have waited for space.
    /// Lock-free: one `Release` store, one `SeqCst` fence, and a mutex
    /// touch only when the consumer is parked *and* this fill matters to
    /// it (see below).
    pub fn fill_with(&self, offset: u64, len: u64, encode: impl FnOnce(&mut [u8], &mut [u8])) {
        debug_assert!(
            offset.is_multiple_of(SLOT) && len.is_multiple_of(SLOT) && len > 0 && len <= self.cap,
            "fills are block-aligned and at most the ring"
        );
        // `flushed` only advances, so a writer that legitimately waited
        // can never trip this; a writer that skipped the wait almost
        // always will.
        debug_assert!(
            offset + len <= self.flushed() + self.cap,
            "a fill outside the space window: [{:#x}, {:#x}) with flushed {:#x}, cap {:#x}",
            offset,
            offset + len,
            self.flushed(),
            self.cap
        );
        let pos = (offset % self.cap) as usize;
        let first = std::cmp::min(len, self.cap - pos as u64) as usize;
        // SAFETY: reservations hand out disjoint logical ranges, and the
        // flusher reads none of a range's ring bytes before its writer
        // publishes them (Release) but the `prev` word, which it loads
        // atomically and nobody but the publication writes. So these
        // bytes are exclusively ours until then, and the two slices do
        // not overlap (`len <= cap`).
        let (head, tail) = unsafe {
            let base = self.data.as_ptr();
            (
                std::slice::from_raw_parts_mut(base.add(pos), first),
                std::slice::from_raw_parts_mut(base, len as usize - first),
            )
        };
        encode(head, tail);
        #[cfg(debug_assertions)]
        self.check_fill(offset, len);
        self.word(pos).store(offset | 1, Ordering::Release);
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

    /// Reset the ring to begin a new life at logical offset `start`,
    /// clearing the poison flag: every byte is zeroed (its pages handed
    /// back), so no fill of an earlier life — one published at or above
    /// `start` included — passes for one of the new, and the frontier and
    /// both watermarks jump to `start`. Only sound when fully quiesced —
    /// no outstanding reservations, no running consumer (the resume path
    /// joins the flusher and drains writers first).
    pub fn reset(&self, start: u64) {
        assert!(start.is_multiple_of(SLOT), "reset offset must be block-aligned");
        self.data.release(0..self.data.len());
        #[cfg(debug_assertions)]
        self.laps.release(0..self.laps.len());
        self.next.store(start, Ordering::Release);
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

    /// Consumer side: advance the contiguous `filled` watermark over
    /// every whole fill published since the last scan. Returns the
    /// (possibly unchanged) watermark.
    pub fn advance_filled(&self) -> u64 {
        self.assert_single_consumer();
        // Relaxed: only the consumer stores `filled`.
        let start = self.filled.load(Ordering::Relaxed);
        let cur = self.scan(start);
        if cur != start {
            self.filled.store(cur, Ordering::Release);
        }
        cur
    }

    /// Watermark estimate for *non-consumer* threads that includes fills
    /// published since the consumer's last scan: a read-only scan from
    /// `filled` that does not publish its result (the consumer owns
    /// `filled`). Used by `LogManager::sync` to name "everything filled
    /// so far" without racing the flusher.
    pub fn scan_tip(&self) -> u64 {
        self.scan(self.filled.load(Ordering::Acquire))
    }

    /// The end of the run of whole fills that begins at `cur`, a fill's
    /// start: while the word there says it is published, hop by its
    /// header's `len`; stop at any other word, at the frontier, or at
    /// `flushed + cap` (see the module docs). A `len` counts only if the
    /// word still names `cur` after it, seqlock-style: a caller that is
    /// not the consumer may stall while the fill is drained — its word
    /// zeroed first — and a later lap writes a header over it.
    fn scan(&self, mut cur: u64) -> u64 {
        let bound = self.next.load(Ordering::Acquire).min(self.flushed() + self.cap);
        while cur < bound {
            let pos = (cur % self.cap) as usize;
            let word = self.word(pos);
            if word.load(Ordering::Acquire) != cur | 1 {
                break;
            }
            let len = self.len_at(pos);
            fence(Ordering::Acquire);
            if word.load(Ordering::Relaxed) != cur | 1 {
                break;
            }
            cur += len;
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
        // Dekker handshake with `fill_with` and `kick_consumer`:
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
        // bytes (reservations are monotonic and disjoint, and the next
        // lap's writers wait for `flushed` to pass them), and the
        // watermark scan's Acquire load of each fill's word synchronized
        // with its writer's Release publication of the copied bytes.
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

    /// Flusher side: everything below `durable` is on storage; hand its
    /// space to the next lap's writers — on a releasing ring a
    /// [`RELEASE_CHUNK`] at a time, unless a writer is parked for space.
    pub fn free_space(&self, durable: u64) {
        let batch = self.cap >= MIN_RELEASING_RING && !self.has_space_waiters();
        let to = if batch { durable / RELEASE_CHUNK * RELEASE_CHUNK } else { durable };
        // Relaxed: only the consumer stores `flushed`.
        if to > self.flushed.load(Ordering::Relaxed) {
            self.mark_flushed(to);
        }
    }

    /// Flusher side: hand `[flushed, to)`, drained to storage, to the next
    /// lap's writers. First its words go to zero, so none passes for a
    /// fill of the next lap: a ring of [`MIN_RELEASING_RING`] bytes or more
    /// gives the range's whole pages back to the operating system (its
    /// resident size follows what is in flight), and the rest are stored.
    /// Then the watermark is published, and space waiters are notified
    /// only if one registered — the Dekker handshake of
    /// [`RingBuffer::wait_for_space`].
    pub fn mark_flushed(&self, to: u64) {
        // Relaxed: only the consumer stores `flushed`.
        let from = self.flushed.load(Ordering::Relaxed);
        debug_assert!(from <= to && to <= self.filled(), "flushed {from:#x} -> {to:#x}");
        let pos = from % self.cap;
        let first = std::cmp::min(to - from, self.cap - pos);
        self.clear(pos..pos + first);
        self.clear(0..to - from - first);
        self.flushed.store(to, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.space_waiters.load(Ordering::Relaxed) != 0 {
            let _guard = self.wake_mx.lock().unwrap();
            self.space_cv.notify_all();
        }
    }

    /// Zero the words of ring positions `run`: the pages given back read
    /// zero, the rest are stored.
    fn clear(&self, run: std::ops::Range<u64>) {
        let (lo, hi) = (run.start as usize, run.end as usize);
        let given = if self.cap < MIN_RELEASING_RING { hi..hi } else { self.data.release(lo..hi) };
        // The lap table goes back with the bytes (zero is an older lap).
        #[cfg(debug_assertions)]
        if self.cap >= MIN_RELEASING_RING {
            self.laps.release(lo / 4..hi / 4);
        }
        for kept in [lo..given.start, given.end..hi] {
            for pos in kept.step_by(MIN_BLOCK_LEN) {
                self.word(pos).store(0, Ordering::Relaxed);
            }
        }
    }

    /// The `prev` word of the header at ring position `pos`, a fill's
    /// start: where the fill is published.
    #[inline]
    fn word(&self, pos: usize) -> &AtomicU64 {
        debug_assert!(pos.is_multiple_of(MIN_BLOCK_LEN) && (pos as u64) < self.cap);
        let at = pos + PREV_AT;
        // SAFETY: a header never wraps (fills and the capacity are
        // 32-aligned), so `at` is 8-aligned inside the ring. No plain
        // access to these bytes races an atomic one: encoders leave them
        // alone, `read_range` reads below the watermark, and a later lap
        // writes payload over them only after `mark_flushed` cleared them.
        unsafe { AtomicU64::from_ptr(self.data.as_ptr().add(at).cast()) }
    }

    /// The `len` of the header at ring position `pos`, a fill's start —
    /// atomic, for the scan's seqlock-style read.
    #[inline]
    fn len_at(&self, pos: usize) -> u64 {
        // SAFETY: 4-aligned inside the ring, as above; the caller loaded
        // the fill's word with `Acquire` first (or is its writer).
        let len = unsafe { AtomicU32::from_ptr(self.data.as_ptr().add(pos + LEN_AT).cast()) };
        u32::from_le(len.load(Ordering::Relaxed)).into()
    }

    /// The double-fill detector: every slot a fill covers was last filled
    /// in an older lap. Also: the fill's header says its length, and its
    /// word was cleared.
    #[cfg(debug_assertions)]
    fn check_fill(&self, offset: u64, len: u64) {
        let nslots = self.cap / SLOT;
        let laps = self.laps.view::<AtomicU64>();
        for s in offset / SLOT..(offset + len) / SLOT {
            let lap = s / nslots + 1;
            let last = laps[(s % nslots) as usize].swap(lap, Ordering::Relaxed);
            assert!(
                last < lap,
                "double fill at offset {:#x} (lap {lap}, already {last})",
                s * SLOT
            );
        }
        let pos = (offset % self.cap) as usize;
        assert_eq!(self.len_at(pos), len, "the header at {offset:#x} says another length");
        assert_eq!(self.word(pos).load(Ordering::Relaxed), 0, "a stale word at {offset:#x}");
    }

    /// Debug check that exactly one thread ever consumes (advances the
    /// watermark / parks on `filled_cv`): the plain `filled` store and
    /// the `notify_one` wake both assume it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring_stress::{block, published, read};

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
        rb.reserve(160);
        assert_eq!(rb.capacity(), 1024);
        rb.write(0, &block(96, 1));
        assert_eq!(filled_now(&rb), 96);
        rb.write(96, &block(64, 2));
        assert_eq!(filled_now(&rb), 160);
    }

    #[test]
    fn out_of_order_fills_merge() {
        let rb = RingBuffer::new(1024, 0);
        rb.reserve(192);
        rb.write(96, &block(64, 2));
        assert_eq!(filled_now(&rb), 0);
        rb.mark_filled(160, 32); // dead zone, also pending
        rb.write(0, &block(96, 1));
        assert_eq!(filled_now(&rb), 192);
    }

    #[test]
    fn scan_tip_sees_fills_without_publishing() {
        let rb = RingBuffer::new(1024, 0);
        rb.reserve(64);
        rb.write(0, &block(64, 3));
        assert_eq!(rb.scan_tip(), 64);
        // The consumer-owned watermark is untouched by the read-only scan.
        assert_eq!(rb.filled(), 0);
        assert_eq!(filled_now(&rb), 64);
    }

    #[test]
    fn read_range_sees_written_bytes_across_wrap() {
        let rb = RingBuffer::new(128, 0);
        rb.reserve(192);
        rb.write(0, &block(96, 7));
        assert_eq!(filled_now(&rb), 96);
        assert_eq!(read(&rb, 0, 96), (published(0, 96, 7), 1));
        rb.mark_flushed(96);
        // This write wraps: positions 96..128 then 0..64.
        rb.write(96, &block(96, 9));
        assert_eq!(filled_now(&rb), 192);
        let (bytes, chunks) = read(&rb, 96, 192);
        assert_eq!(bytes, published(96, 96, 9));
        assert_eq!(bytes.len(), 96);
        assert_eq!(chunks, 2);
    }

    #[test]
    fn wait_for_space_blocks_until_flush() {
        let rb = std::sync::Arc::new(RingBuffer::new(96, 0));
        rb.reserve(192);
        rb.write(0, &block(96, 1));
        assert_eq!(filled_now(&rb), 96);
        let rb2 = std::sync::Arc::clone(&rb);
        let t = std::thread::spawn(move || {
            assert!(rb2.wait_for_space(192)); // needs flushed >= 96
            rb2.write(96, &block(96, 2));
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
            rb.reserve(96);
            rb.write(0, &block(96, 1));
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
            rb.reserve(32);
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
        rb.reserve(32);
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
        rb.reserve(96);
        rb.write(0, &block(96, 1));
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
        rb.mark_filled(64, 32); // a second fill of the same lap
    }

    #[test]
    #[should_panic(expected = "says another length")]
    fn a_block_whose_header_lies_about_its_length_is_refused() {
        let rb = RingBuffer::new(1024, 0);
        rb.write(0, &[0; 64]);
    }

    #[test]
    #[should_panic(expected = "32-bit length")]
    fn a_ring_longer_than_a_header_can_say_is_refused() {
        // A fill of 4 GiB + 32 bytes would say 32 in its header, and the
        // log would end there on recovery. Refused before any memory is
        // mapped.
        RingBuffer::new((1 << 32) + SLOT, 0);
    }

    #[test]
    fn the_scan_reads_fill_starts_only() {
        let rb = RingBuffer::new(1 << 20, 0);
        rb.reserve(1 << 20);
        // A 4 KiB fill whose every interior slot looks like the start of
        // a published 32-byte fill.
        let mut bytes = block(4096, 4);
        for at in (SLOT..4096).step_by(SLOT as usize) {
            let slot = &mut bytes[at as usize..][..BLOCK_HEADER_LEN];
            slot[LEN_AT..LEN_AT + 4].copy_from_slice(&32u32.to_le_bytes());
            slot[PREV_AT..].copy_from_slice(&(at | 1).to_le_bytes());
        }
        rb.write(0, &bytes);
        assert_eq!(rb.advance_filled(), 4096);
        assert_eq!(rb.scan_tip(), 4096);
    }

    #[test]
    fn a_payload_that_looks_like_a_fill_passes_for_none() {
        // A whole-ring block whose every interior slot forges the start
        // of the next lap's fill there: a header of 32 bytes and the
        // word that would publish it. Drained, its words are zeroed
        // before the next lap may fill over them.
        const CAP: u64 = 4096;
        let rb = RingBuffer::new(CAP, 0);
        let mut bytes = block(CAP, 5);
        for at in (SLOT..CAP).step_by(SLOT as usize) {
            let slot = &mut bytes[at as usize..][..BLOCK_HEADER_LEN];
            slot[LEN_AT..LEN_AT + 4].copy_from_slice(&32u32.to_le_bytes());
            slot[PREV_AT..].copy_from_slice(&((CAP + at) | 1).to_le_bytes());
        }
        rb.reserve(2 * CAP);
        rb.write(0, &bytes);
        assert_eq!(rb.advance_filled(), CAP);
        rb.mark_flushed(CAP);
        rb.write(CAP, &block(32, 6));
        assert_eq!(rb.advance_filled(), CAP + 32, "a drained payload passed for a fill");
    }

    #[test]
    fn the_scan_stops_at_flushed_plus_cap() {
        // A releasing ring hands space back a chunk at a time, so
        // `flushed` can cut a block, whose slot there is payload not yet
        // drained. No fill can start at `flushed + cap`, where that slot
        // is the next lap's: with one forged to say it does, the ring full
        // up to it and a claim beyond it, the scan must stop there.
        for cap in [64 << 10, MIN_RELEASING_RING] {
            let rb = RingBuffer::new(cap, 0);
            let (len, cut) = (4096, 1024);
            let mut bytes = block(len, 3);
            let slot = &mut bytes[cut as usize..][..BLOCK_HEADER_LEN];
            slot[LEN_AT..LEN_AT + 4].copy_from_slice(&32u32.to_le_bytes());
            slot[PREV_AT..].copy_from_slice(&((cut + cap) | 1).to_le_bytes());
            rb.reserve(len);
            rb.write(0, &bytes);
            assert_eq!(rb.advance_filled(), len);
            rb.mark_flushed(cut);
            assert_eq!(rb.reserve(cut + cap - len), len);
            assert!(rb.wait_for_space(cut + cap));
            rb.write(len, &block(cut + cap - len, 4));
            rb.reserve(64);
            assert_eq!(rb.advance_filled(), cut + cap, "ring {cap}: a payload passed for a fill");
            assert_eq!(rb.scan_tip(), cut + cap);
        }
    }

    #[test]
    fn free_space_hands_a_releasing_ring_back_a_chunk_at_a_time() {
        // Durable up to a chunk and a half: a ring that keeps its memory
        // frees all of it, a releasing one the whole chunk — and the rest
        // once a writer parks for space.
        let durable = 3 * RELEASE_CHUNK / 2;
        for (cap, freed) in [(1 << 20, durable), (MIN_RELEASING_RING, RELEASE_CHUNK)] {
            let rb = std::sync::Arc::new(RingBuffer::new(cap, 0));
            rb.reserve(durable);
            rb.mark_filled(0, durable);
            assert_eq!(rb.advance_filled(), durable);
            rb.free_space(durable);
            assert_eq!(rb.flushed(), freed, "ring {cap}");
            if freed < durable {
                let rb2 = std::sync::Arc::clone(&rb);
                let t = std::thread::spawn(move || rb2.wait_for_space(freed + cap + 32));
                spin_until(|| rb.has_space_waiters());
                rb.free_space(durable);
                assert!(t.join().unwrap());
                assert_eq!(rb.flushed(), durable, "ring {cap}");
            }
        }
    }

    #[test]
    fn a_fill_and_its_scan_touch_no_page_outside_it() {
        const LEN: u64 = 96 << 10;
        let rb = RingBuffer::new(1 << 20, 0);
        rb.reserve(LEN);
        rb.write(0, &block(LEN, 6));
        assert_eq!(rb.advance_filled(), LEN);
        let Some(touched) = rb.data.touched_pages() else { return };
        let page = rb.data.len() / touched.len();
        // The scan stops at the frontier: it reads no start past the fill.
        let beyond = touched[(LEN as usize).div_ceil(page)..].iter().filter(|&&t| t).count();
        assert_eq!(beyond, 0, "one {LEN}-byte fill and a scan touched {beyond} pages past it");
    }

    #[test]
    fn whole_ring_and_wrapping_fills_over_laps() {
        // Fills of exactly the ring (from the ring's start and from
        // mid-ring) and fills that straddle the ring's end, over ten
        // laps, drained between fills.
        const CAP: u64 = 64 << 10;
        let rb = RingBuffer::new(CAP, 0);
        let lens = [CAP, CAP / 2 + 64, CAP, CAP / 2 - 32, 96, CAP - 32, CAP];
        let mut off = 0u64;
        for (i, &len) in lens.iter().cycle().take(14).enumerate() {
            let byte = i as u8 + 1;
            assert_eq!(rb.reserve(len), off);
            assert!(rb.wait_for_space(off + len));
            rb.write(off, &block(len, byte));
            assert_eq!(rb.advance_filled(), off + len, "fill {i} of {len} bytes at {off:#x}");
            let (bytes, _) = read(&rb, off, off + len);
            assert!(bytes == published(off, len, byte), "fill {i} read back wrong");
            assert_eq!(bytes.len() as u64, len);
            rb.mark_flushed(off + len);
            off += len;
        }
        assert!(off >= 3 * CAP, "{off} bytes are fewer than three laps");
    }

    #[test]
    fn drained_words_read_zero_and_the_next_lap_fills_over_them() {
        // A ring that keeps its memory stores zero into every drained
        // word; one that hands it back does so on the pages it cannot
        // give whole. Drained up to an offset on no page boundary.
        for cap in [64 << 10, MIN_RELEASING_RING] {
            let rb = RingBuffer::new(cap, 0);
            let (len, n) = (3 * 4096 + 96, cap / 2 / (3 * 4096 + 96));
            rb.reserve(n * len + 64);
            for i in 0..n {
                rb.write(i * len, &block(len, 7));
            }
            let to = rb.advance_filled();
            assert_eq!(to, n * len);
            rb.mark_flushed(to);
            for at in (0..cap).step_by(SLOT as usize) {
                let word = rb.word(at as usize).load(Ordering::Relaxed);
                assert_eq!(word, 0, "ring {cap}, word {at:#x}");
            }
            // The scan stands on a zero word, and the next fill lands.
            assert_eq!(rb.advance_filled(), to);
            assert_eq!(rb.scan_tip(), to);
            rb.write(to, &block(64, 9));
            assert_eq!(rb.advance_filled(), to + 64);
            assert_eq!(read(&rb, to, to + 64).0, published(to, 64, 9));
        }
    }

    #[test]
    fn reset_forgets_the_fills_of_its_earlier_life() {
        // What a poisoned log leaves above its durable frontier: fills
        // published, none drained. The reset must zero the ring, or the
        // scan of the new life would pass over them.
        let rb = RingBuffer::new(1024, 0);
        rb.reserve(512);
        rb.write(0, &block(256, 1));
        assert_eq!(rb.advance_filled(), 256);
        rb.mark_flushed(256);
        rb.write(256, &block(128, 2));
        rb.write(384, &block(128, 3));
        rb.reset(256);
        assert_eq!(rb.reserve(256), 256);
        assert_eq!(rb.advance_filled(), 256, "a fill of the earlier life survived the reset");
        assert_eq!(rb.scan_tip(), 256);
        rb.write(256, &block(32, 4));
        assert_eq!(rb.advance_filled(), 288);
    }

    #[test]
    fn fills_survive_many_wraps() {
        // Fill → drain the ring several times over; the watermark must
        // keep advancing (laps never collide) and bytes must read back
        // correctly on the last lap.
        let rb = RingBuffer::new(128, 0);
        let mut off = 0u64;
        for lap in 0..9u8 {
            for _ in 0..4 {
                assert_eq!(rb.reserve(32), off);
                assert!(rb.wait_for_space(off + 32));
                rb.write(off, &block(32, lap));
                off += 32;
            }
            assert_eq!(rb.advance_filled(), off);
            if lap == 8 {
                let want: Vec<u8> =
                    (off - 128..off).step_by(32).flat_map(|at| published(at, 32, 8)).collect();
                assert_eq!(read(&rb, off - 128, off).0, want);
            }
            rb.mark_flushed(off);
        }
        assert_eq!(off, 9 * 128);
    }
}
