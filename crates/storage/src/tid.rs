//! Transaction ID management (paper §3.5).
//!
//! A fixed-capacity table (64K entries) of transaction contexts. Each
//! TID combines an offset into the table with a generation that
//! distinguishes it from other transactions that happened to use the same
//! slot. Allocation, inquiry and release are all lock-free.
//!
//! The 64K entries are *capacity* — 2.5 MiB of address space in a
//! [`Region`], resident by use. An all-zero context is a free one
//! (`TAG_FREE` is 0, generation 0 is never issued, and
//! [`TidManager::acquire`] stores `begin`, `pstamp` and `sstamp` on
//! every claim), so the table is never initialised.
//!
//! Each live worker leases a 64-slot home stretch, lowest free first
//! ([`TidManager::home`]), and its claims stay inside it while it holds
//! fewer than 64 contexts, parked prepares included. So the pages ever
//! written, and the high-water mark every scan stops at, follow the
//! workers live at once (`64 × w` contexts), not the transactions run.
//!
//! ## The commit word
//!
//! The context packs commit state and commit stamp into one atomic word
//! so that readers performing visibility checks see a consistent
//! (state, cstamp) pair:
//!
//! ```text
//! word = (cstamp.raw() << 3) | tag
//! tag: 0 FREE · 1 ACTIVE · 2 PENDING · 3 PRECOMMIT · 4 COMMITTED · 5 ABORTED
//! ```
//!
//! The owner drives the word through `ACTIVE → PENDING → PRECOMMIT(c) →
//! COMMITTED(c) | ABORTED → FREE`. `PENDING` is published *before* the
//! commit-LSN `fetch_add`, which gives snapshot readers the guarantee
//! they need: if a reader (whose begin timestamp was taken earlier)
//! observes `ACTIVE`, the owner's eventual commit stamp must be larger
//! than the reader's begin timestamp, so "invisible" is the consistent
//! verdict. Observing `PENDING`/`PRECOMMIT` with a possibly-smaller stamp
//! tells the reader (and a writer that would overwrite the version) to
//! wait for the outcome. For a single-shard commit the window is the SSN
//! test and a log-buffer copy; a prepared cross-shard participant stays
//! in `PRECOMMIT` through its coordinator's durability rounds.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use ermia_common::ids::TID_TABLE_CAPACITY;
use ermia_common::{Lsn, Region, Tid, Zeroable};

/// Slots in one home stretch; the table's first 64 stretches are homes.
const STRETCH: usize = 64;

const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;

const TAG_FREE: u64 = 0;
const TAG_ACTIVE: u64 = 1;
const TAG_PENDING: u64 = 2;
const TAG_PRECOMMIT: u64 = 3;
const TAG_COMMITTED: u64 = 4;
const TAG_ABORTED: u64 = 5;

/// Outcome of a TID inquiry (§3.5: "three possible outcomes").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TidStatus {
    /// (a) The transaction is still in flight with no commit stamp yet.
    InFlight,
    /// The transaction entered pre-commit: it holds commit stamp `Lsn`
    /// but its fate is undecided — visibility checkers with an older
    /// begin stamp must wait for the verdict.
    Precommit(Lsn),
    /// (b) The transaction has ended; the end stamp is returned.
    Committed(Lsn),
    /// The transaction aborted; its versions are being unlinked.
    Aborted,
    /// (c) The supplied TID is from a previous generation. The caller
    /// should re-read the location that produced the TID — the
    /// transaction has finished post-commit, so the location is
    /// guaranteed to contain a proper commit stamp.
    Stale,
}

/// One entry in the TID table.
pub struct TxContext {
    /// Full TID of the current owner (identifies the generation).
    owner: AtomicU64,
    /// The commit word (see module docs).
    word: AtomicU64,
    /// Owner's begin timestamp (raw LSN).
    begin: AtomicU64,
    /// SSN η(T): latest committed predecessor stamp.
    pub pstamp: AtomicU64,
    /// SSN π(T): earliest successor stamp (∞ when none).
    pub sstamp: AtomicU64,
}

// SAFETY: five atomics, no drop glue; all-zero is a free slot whose
// last owner had generation 0 (see the module docs).
unsafe impl Zeroable for TxContext {}

impl TxContext {
    /// Owner's begin timestamp.
    #[inline]
    pub fn begin(&self) -> Lsn {
        Lsn::from_raw(self.begin.load(Ordering::Acquire))
    }

    /// Publish the owner's begin timestamp, taken after the claim.
    #[inline]
    pub fn set_begin(&self, begin: Lsn) {
        self.begin.store(begin.raw(), Ordering::Release);
    }

    /// Decode the commit word.
    #[inline]
    pub fn status(&self) -> TidStatus {
        decode(self.word.load(Ordering::Acquire))
    }

    /// Publish "about to acquire a commit stamp" — must precede the
    /// commit-LSN `fetch_add` (see module docs).
    #[inline]
    pub fn enter_pending(&self) {
        debug_assert_eq!(self.word.load(Ordering::Relaxed) & TAG_MASK, TAG_ACTIVE);
        self.word.store(TAG_PENDING, Ordering::SeqCst);
    }

    /// Publish the acquired commit stamp (fate still undecided).
    #[inline]
    pub fn enter_precommit(&self, cstamp: Lsn) {
        debug_assert_eq!(self.word.load(Ordering::Relaxed) & TAG_MASK, TAG_PENDING);
        self.word.store((cstamp.raw() << TAG_BITS) | TAG_PRECOMMIT, Ordering::SeqCst);
    }

    /// Decide commit: updates become visible atomically at this store.
    #[inline]
    pub fn commit(&self, cstamp: Lsn) {
        self.word.store((cstamp.raw() << TAG_BITS) | TAG_COMMITTED, Ordering::SeqCst);
    }

    /// Decide abort.
    #[inline]
    pub fn abort(&self) {
        self.word.store(TAG_ABORTED, Ordering::SeqCst);
    }

    /// The commit stamp, once decided (panics otherwise; debug aid).
    #[inline]
    pub fn cstamp(&self) -> Lsn {
        let w = self.word.load(Ordering::Acquire);
        debug_assert!(w & TAG_MASK == TAG_COMMITTED || w & TAG_MASK == TAG_PRECOMMIT);
        Lsn::from_raw(w >> TAG_BITS)
    }
}

#[inline]
fn decode(word: u64) -> TidStatus {
    match word & TAG_MASK {
        TAG_ACTIVE => TidStatus::InFlight,
        TAG_PENDING => TidStatus::Precommit(Lsn::NULL),
        TAG_PRECOMMIT => TidStatus::Precommit(Lsn::from_raw(word >> TAG_BITS)),
        TAG_COMMITTED => TidStatus::Committed(Lsn::from_raw(word >> TAG_BITS)),
        TAG_ABORTED => TidStatus::Aborted,
        // FREE (or torn generation): the slot owner finished entirely.
        _ => TidStatus::Stale,
    }
}

/// The lock-free transaction context table.
pub struct TidManager {
    /// [`TID_TABLE_CAPACITY`] [`TxContext`]s, zero until claimed.
    table: Region,
    /// One past the highest slot ever claimed: every scan of the table
    /// stops here. Claims stay in their worker's home stretch and homes
    /// are leased lowest first (see the module docs), so this stays at
    /// most 64 × the most workers ever live at once, and a scan reads a
    /// few cache lines, not 2.5 MiB.
    high_water: AtomicUsize,
    /// The 64 home stretches, one bit each: set while a worker leases it.
    leases: AtomicU64,
    /// Homes handed out while all 64 were leased; these share stretches.
    shared: AtomicUsize,
}

/// A worker's home stretch, the 64 slots its claims stay in; a leased one
/// goes back with [`TidManager::vacate`].
#[derive(Clone, Copy, Debug)]
pub struct Home {
    /// The stretch's first slot, where the worker's probe cursor starts.
    pub slot: usize,
    leased: bool,
}

impl Default for TidManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TidManager {
    pub fn new() -> TidManager {
        TidManager {
            table: Region::new(TID_TABLE_CAPACITY * std::mem::size_of::<TxContext>()),
            high_water: AtomicUsize::new(0),
            leases: AtomicU64::new(0),
            shared: AtomicUsize::new(0),
        }
    }

    /// Lease a new worker's home: the lowest of the 64 stretches no live
    /// worker holds. With all 64 leased, homes are shared round robin.
    pub fn home(&self) -> Home {
        // `l | (l + 1)` sets the lowest clear bit.
        let lease = |l: u64| (l != u64::MAX).then(|| l | (l + 1));
        match self.leases.fetch_update(Ordering::Relaxed, Ordering::Relaxed, lease) {
            Ok(held) => Home { slot: held.trailing_ones() as usize * STRETCH, leased: true },
            Err(_) => {
                let stretch = self.shared.fetch_add(1, Ordering::Relaxed) % 64;
                Home { slot: stretch * STRETCH, leased: false }
            }
        }
    }

    /// Hand a worker's home back. Contexts it left claimed there (parked
    /// prepares) stay claimed; the next lessee's probes pass them.
    pub fn vacate(&self, home: Home) {
        if home.leased {
            self.leases.fetch_and(!(1 << (home.slot / STRETCH)), Ordering::Relaxed);
        }
    }

    /// Claim a context for a transaction beginning at `begin`.
    ///
    /// `hint` is a per-worker probe cursor that starts at the worker's
    /// [home](TidManager::home) and never leaves its stretch: the slot
    /// under it is probed first, then the rest of the stretch, then — all
    /// 64 held — the rest of the table. A claim at home leaves the cursor
    /// on the claimed slot's pair-neighbour (`slot ^ 1`), so a worker
    /// alternates between two cache-hot contexts with one CAS each. (Two:
    /// a locked compare-exchange on the very word the previous release
    /// just stored waits for that store, ≈ 1 ns in
    /// `storage.tid_acquire_release_ns`.)
    pub fn acquire(&self, begin: Lsn, hint: &mut usize) -> (Tid, &TxContext) {
        for probe in 0..TID_TABLE_CAPACITY {
            // A bijection on the table whose first 64 probes flip only the
            // low six bits: the home stretch, starting under the cursor.
            let slot = *hint ^ probe;
            let ctx = &self.slots()[slot];
            if ctx.word.load(Ordering::Relaxed) != TAG_FREE {
                continue;
            }
            // Raised before the claim, so a scan that can see the claim
            // covers the slot.
            if slot >= self.high_water.load(Ordering::Relaxed) {
                self.high_water.fetch_max(slot + 1, Ordering::AcqRel);
            }
            if ctx
                .word
                .compare_exchange(TAG_FREE, TAG_ACTIVE, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // We own the slot: advance the generation, publish begin.
            if probe < STRETCH {
                *hint = slot ^ 1;
            }
            let old = ctx.owner.load(Ordering::Relaxed);
            let tid = Tid::new(Tid::from_raw(old).generation() + 1, slot);
            ctx.begin.store(begin.raw(), Ordering::Relaxed);
            ctx.pstamp.store(0, Ordering::Relaxed);
            ctx.sstamp.store(Lsn::MAX.raw(), Ordering::Relaxed);
            ctx.owner.store(tid.raw(), Ordering::Release);
            return (tid, ctx);
        }
        panic!("TID table exhausted: more than {TID_TABLE_CAPACITY} in-flight transactions");
    }

    /// Direct access to a context by TID slot. Callers that own the TID
    /// (the executing transaction) use this; inquirers use
    /// [`TidManager::inquire`].
    #[inline]
    pub fn ctx(&self, tid: Tid) -> &TxContext {
        &self.slots()[tid.slot()]
    }

    /// Ask about another transaction's fate (§3.5).
    pub fn inquire(&self, tid: Tid) -> TidStatus {
        let ctx = &self.slots()[tid.slot()];
        if ctx.owner.load(Ordering::Acquire) != tid.raw() {
            return TidStatus::Stale;
        }
        let status = ctx.status();
        // The owner could have released and a successor claimed the slot
        // between the two loads; re-check the generation.
        if ctx.owner.load(Ordering::Acquire) != tid.raw() {
            return TidStatus::Stale;
        }
        status
    }

    /// Release a context once post-commit (or abort cleanup) is complete
    /// — i.e. after every version stamped with this TID has been
    /// re-stamped or unlinked, so Stale inquiries can safely re-read.
    pub fn release(&self, tid: Tid) {
        let ctx = &self.slots()[tid.slot()];
        debug_assert_eq!(ctx.owner.load(Ordering::Relaxed), tid.raw());
        ctx.word.store(TAG_FREE, Ordering::Release);
    }

    /// The smallest begin timestamp among in-flight transactions, or
    /// `fallback` if none — the GC's reclamation horizon. A context
    /// claimed with `Lsn::NULL` holds it at 0 until its begin is set.
    pub fn min_active_begin(&self, fallback: Lsn) -> Lsn {
        let mut min = fallback;
        for ctx in self.claimed() {
            let w = ctx.word.load(Ordering::Acquire);
            match w & TAG_MASK {
                TAG_ACTIVE | TAG_PENDING | TAG_PRECOMMIT => {
                    let b = Lsn::from_raw(ctx.begin.load(Ordering::Acquire));
                    if b < min {
                        min = b;
                    }
                }
                _ => {}
            }
        }
        min
    }

    /// The smallest commit stamp among transactions that have acquired
    /// one but not yet released their context (PRECOMMIT or COMMITTED),
    /// capped by `fallback`.
    ///
    /// This is a consistent cut, the stamp forks and checkpoints read at:
    /// every transaction with a commit stamp below it has finished
    /// post-commit, so its versions carry LSN stamps, and nothing in this
    /// window — a filled log block whose versions still carry TID stamps —
    /// lies below it. Slots still PENDING (stamp not yet acquired) need no
    /// term here: `PENDING` precedes the commit-LSN `fetch_add`, so their
    /// eventual stamp lands at or above any tail-derived fallback captured
    /// before this scan.
    pub fn min_commit_low_water(&self, fallback: Lsn) -> Lsn {
        let mut min = fallback;
        for ctx in self.claimed() {
            let w = ctx.word.load(Ordering::Acquire);
            match w & TAG_MASK {
                TAG_PRECOMMIT | TAG_COMMITTED => {
                    let c = Lsn::from_raw(w >> TAG_BITS);
                    if c < min {
                        min = c;
                    }
                }
                _ => {}
            }
        }
        min
    }

    /// Number of currently claimed slots (tests / stats).
    pub fn in_use(&self) -> usize {
        self.claimed().iter().filter(|c| c.word.load(Ordering::Relaxed) != TAG_FREE).count()
    }

    /// One past the highest slot ever claimed (telemetry): how much of
    /// the table's capacity has been touched.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Acquire)
    }

    /// The slots that have ever been claimed.
    fn claimed(&self) -> &[TxContext] {
        &self.slots()[..self.high_water()]
    }

    #[inline]
    fn slots(&self) -> &[TxContext] {
        self.table.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table is never initialised, so an untouched slot has to be a
    /// free slot in every way a caller can ask.
    #[test]
    fn an_untouched_slot_is_a_free_slot() {
        let mgr = TidManager::new();
        for slot in [0, 1, 63 * 64, TID_TABLE_CAPACITY - 1] {
            // No TID of a never-claimed slot is live — not even the
            // all-zero one, which an all-zero `owner` word equals.
            for generation in 0..3 {
                assert_eq!(mgr.inquire(Tid::new(generation, slot)), TidStatus::Stale);
            }
            let mut hint = slot;
            let (tid, ctx) = mgr.acquire(Lsn::from_parts(7, 0), &mut hint);
            assert_eq!((tid.generation(), tid.slot()), (1, slot));
            assert_eq!(ctx.sstamp.load(Ordering::Relaxed), Lsn::MAX.raw(), "π starts at ∞");
            assert_eq!(ctx.pstamp.load(Ordering::Relaxed), 0);
            assert_eq!(mgr.inquire(tid), TidStatus::InFlight);
            assert_eq!(mgr.inquire(Tid::new(0, slot)), TidStatus::Stale);
            ctx.abort();
            mgr.release(tid);
            assert_eq!(mgr.inquire(tid), TidStatus::Stale);
        }
    }

    /// Only the pages under claimed slots are written, and the scans stop
    /// at the high-water mark: 64 K contexts are capacity, not residency.
    #[test]
    fn the_scans_touch_nothing_beyond_the_high_water_mark() {
        let mgr = TidManager::new();
        let Some(touched) = mgr.table.touched_pages() else { return };
        assert!(touched.iter().all(|&t| !t), "a new table is untouched");
        let mut hint = (0..4).map(|_| mgr.home()).last().expect("four homes").slot;
        assert_eq!(hint, 3 * 64);
        let (tid, _) = mgr.acquire(Lsn::from_parts(9, 0), &mut hint);
        assert_eq!(mgr.high_water(), 3 * 64 + 1);
        assert_eq!(mgr.min_active_begin(Lsn::MAX), Lsn::from_parts(9, 0));
        assert_eq!(mgr.min_commit_low_water(Lsn::MAX), Lsn::MAX);
        assert_eq!(mgr.in_use(), 1);
        let touched = mgr.table.touched_pages().expect("pagemap");
        let scanned = (mgr.high_water() * std::mem::size_of::<TxContext>()).div_ceil(4096);
        let last = touched.iter().rposition(|&t| t).expect("the claim wrote a page");
        assert!(last < scanned, "page {last} touched, the scans end inside page {}", scanned - 1);
        mgr.ctx(tid).abort();
        mgr.release(tid);
    }

    /// Homes are leased lowest first and shared once all 64 are; a worker
    /// claims only in its stretch until it holds all 64 slots, spills past
    /// it then, and comes home for the next claim.
    #[test]
    fn claims_stay_in_a_leased_home() {
        let mgr = TidManager::new();
        let homes: Vec<Home> = (0..64).map(|_| mgr.home()).collect();
        assert!(homes.iter().enumerate().all(|(i, h)| h.slot == i * STRETCH && h.leased));
        let shared = mgr.home();
        assert!(!shared.leased, "all 64 leased: this one shares");
        mgr.vacate(shared);
        mgr.vacate(homes[5]);
        mgr.vacate(homes[2]);
        assert_eq!((mgr.home().slot, mgr.home().slot), (2 * STRETCH, 5 * STRETCH));

        let mut hint = 5 * STRETCH + 17;
        let stretch = 5 * STRETCH..6 * STRETCH;
        let held: Vec<Tid> =
            (0..64).map(|i| mgr.acquire(Lsn::from_parts(i + 1, 0), &mut hint).0).collect();
        assert!(held.iter().all(|t| stretch.contains(&t.slot())));
        assert_eq!(mgr.high_water(), 6 * STRETCH);
        let before = hint;
        let (spilled, _) = mgr.acquire(Lsn::from_parts(99, 0), &mut hint);
        assert_eq!(spilled.slot(), before ^ STRETCH, "the first probe past the stretch");
        assert_eq!(hint, before, "a spilled claim leaves the cursor at home");
        mgr.ctx(held[40]).abort();
        mgr.release(held[40]);
        let (back, _) = mgr.acquire(Lsn::from_parts(100, 0), &mut hint);
        assert_eq!(back.slot(), held[40].slot(), "the next claim starts at home");
        assert_eq!(mgr.in_use(), 65);
    }
}
