//! Version chain nodes and their recycling pool.
//!
//! A version is **one allocation**: a fixed header followed by the
//! payload bytes (Hekaton's record layout — header, then payload), so
//! the indirection array's pointer is the only hop between an OID and
//! its newest bytes. Versions are linked newest-first from an
//! indirection array slot and reclaimed through the epoch manager once
//! invisible to every active transaction. Instead of returning quiesced
//! nodes to the global allocator, the GC seeds a [`VersionPool`]; workers
//! draw from it through a per-worker [`VersionCache`] and reinitialize a
//! node in place whenever the new payload fits the node's capacity, so
//! the steady-state write path performs no heap allocation.

use std::alloc::{self, Layout};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ermia_common::{Lsn, Stamp};

/// One version of a database record: this header, then `cap` payload
/// bytes in the same allocation (read them through [`Version::data`]).
///
/// A `Version` is only ever handled by pointer — [`Version::alloc`] makes
/// one, [`Version::free`] is the one place that unmakes one.
#[repr(C)]
pub struct Version {
    /// Creation stamp: the creator's TID until post-commit, then the
    /// commit LSN (§3.1). See [`Stamp`].
    pub clsn: AtomicU64,
    /// Next older version (null at the chain tail).
    pub next: AtomicPtr<Version>,
    /// SSN η(V): the commit stamp of the latest committed transaction
    /// that read this version.
    pub pstamp: AtomicU64,
    /// SSN π(V): the low watermark of the transaction that overwrote
    /// this version (∞ while unoverwritten).
    pub sstamp: AtomicU64,
    /// Payload bytes in use, with [`TOMBSTONE`] in the top bit — "delete
    /// is treated as an update with tombstone marking" (§3.2).
    len: u32,
    /// Payload bytes allocated behind the header; the allocation's layout
    /// is a function of this alone.
    cap: u32,
}

/// The tombstone flag in `Version::len`; payloads stay under 2 GiB.
const TOMBSTONE: u32 = 1 << 31;

// Five words and nothing the engine does not read: a 64-byte row asks
// the allocator for 104 bytes.
const _: () = assert!(std::mem::size_of::<Version>() == 40);

/// Payload capacities are rounded up to this, so a recycled node absorbs
/// a slightly longer payload and every allocation size is a multiple of
/// the header's alignment.
const CAP_ROUND: usize = 8;

impl Version {
    /// The allocation that holds a header and `cap` payload bytes.
    #[inline]
    fn layout(cap: u32) -> Layout {
        let size = std::mem::size_of::<Version>() + cap as usize;
        Layout::from_size_align(size, std::mem::align_of::<Version>()).expect("version layout")
    }

    /// Allocate a version stamped with `stamp`, returning an owning raw
    /// pointer (managed by the caller / epoch GC thereafter).
    pub fn alloc(stamp: Stamp, data: &[u8], tombstone: bool) -> *mut Version {
        // So that every capacity, and with it every length a node is
        // ever given, stays clear of the flag bit.
        assert!(data.len() <= TOMBSTONE as usize - CAP_ROUND, "payload under 2 GiB");
        let cap = data.len().next_multiple_of(CAP_ROUND) as u32;
        let layout = Version::layout(cap);
        // SAFETY: the layout is never zero-sized (the header alone is
        // 40 bytes); the header is written before the pointer escapes.
        unsafe {
            let ptr = alloc::alloc(layout).cast::<Version>();
            if ptr.is_null() {
                alloc::handle_alloc_error(layout);
            }
            ptr.write(Version {
                clsn: AtomicU64::new(0),
                next: AtomicPtr::new(std::ptr::null_mut()),
                pstamp: AtomicU64::new(0),
                sstamp: AtomicU64::new(0),
                len: 0,
                cap,
            });
            Version::reinit(ptr, stamp, data, tombstone)
        }
    }

    /// Free a version.
    ///
    /// # Safety
    /// `ptr` must come from [`Version::alloc`] (directly or through a
    /// [`VersionCache`]), be unreachable from every shared structure, and
    /// not be freed or pooled by anyone else.
    pub unsafe fn free(ptr: *mut Version) {
        // SAFETY: `cap` was fixed by `alloc` and rebuilds its layout.
        unsafe { alloc::dealloc(ptr.cast(), Version::layout((*ptr).cap)) };
    }

    /// Give a recycled node a new stamp and payload: in place when the
    /// payload fits the node's capacity, in a fresh allocation (the old
    /// one freed) when it does not. Returns the node to use. Plain
    /// stores suffice: publication to other threads happens later via
    /// the indirection-array CAS (Release).
    ///
    /// # Safety
    /// The caller must have exclusive ownership of `ptr` — a node fresh
    /// from the pool (epoch-quiesced) that is not yet reachable by any
    /// other thread.
    pub unsafe fn reinit(
        ptr: *mut Version,
        stamp: Stamp,
        data: &[u8],
        tombstone: bool,
    ) -> *mut Version {
        let v = unsafe { &mut *ptr };
        if data.len() > v.cap as usize {
            unsafe { Version::free(ptr) };
            return Version::alloc(stamp, data, tombstone);
        }
        v.clsn.store(stamp.raw(), Ordering::Relaxed);
        v.next.store(std::ptr::null_mut(), Ordering::Relaxed);
        v.pstamp.store(0, Ordering::Relaxed);
        v.sstamp.store(Lsn::MAX.raw(), Ordering::Relaxed);
        v.len = data.len() as u32 | if tombstone { TOMBSTONE } else { 0 };
        // SAFETY: `cap >= len` bytes follow the header in this allocation.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), ptr.add(1).cast(), data.len()) };
        ptr
    }

    /// The record payload.
    #[inline]
    pub fn data(&self) -> &[u8] {
        // SAFETY: `len` initialized bytes follow the header (see `reinit`).
        unsafe {
            std::slice::from_raw_parts(
                (self as *const Version).add(1).cast(),
                (self.len & !TOMBSTONE) as usize,
            )
        }
    }

    /// True if this version marks its record deleted.
    #[inline]
    pub fn tombstone(&self) -> bool {
        self.len & TOMBSTONE != 0
    }

    /// The current creation stamp.
    #[inline]
    pub fn stamp(&self) -> Stamp {
        Stamp::from_raw(self.clsn.load(Ordering::Acquire))
    }

    /// Monotonically raise `pstamp` to at least `to` (SSN read
    /// registration; lock-free max).
    #[inline]
    pub fn raise_pstamp(&self, to: u64) {
        self.pstamp.fetch_max(to, Ordering::AcqRel);
    }

    /// True if this version has been overwritten by a committed
    /// transaction (its π is finite).
    #[inline]
    pub fn is_overwritten(&self) -> bool {
        self.sstamp.load(Ordering::Acquire) != Lsn::MAX.raw()
    }
}

/// How many nodes a [`VersionCache`] pulls from the shared pool at once.
const CACHE_REFILL_BATCH: usize = 32;

/// Default bound on pooled nodes; beyond it, released nodes are freed.
pub const DEFAULT_POOL_CAP: usize = 4096;

/// Shared free list of quiesced version nodes.
///
/// Nodes enter via [`VersionPool::release`] — from the GC (after epoch
/// quiescence, see [`defer_release`]) or from a dropping
/// [`VersionCache`] — and leave via worker caches. The pool owns the
/// nodes it holds and frees any overflow, so its capacity bounds memory
/// retained for reuse.
pub struct VersionPool {
    free: Mutex<Vec<*mut Version>>,
    /// `free`'s length, written under the lock: a cache finding the pool
    /// empty does not take the lock to learn it. A stale zero costs one
    /// fresh allocation — the load's inserts find the pool empty every
    /// time, and never wait on the collector's releases for it.
    pooled: AtomicUsize,
    cap: usize,
}

// SAFETY: the raw pointers in the free list are exclusively owned by the
// pool — every node released to it is epoch-quiesced (unreachable from
// any shared structure), so handing one to another thread transfers sole
// ownership.
unsafe impl Send for VersionPool {}
unsafe impl Sync for VersionPool {}

impl Default for VersionPool {
    fn default() -> Self {
        VersionPool::new(DEFAULT_POOL_CAP)
    }
}

impl VersionPool {
    pub fn new(cap: usize) -> VersionPool {
        VersionPool { free: Mutex::new(Vec::new()), pooled: AtomicUsize::new(0), cap }
    }

    /// Take ownership of a quiesced node for later reuse (or free it if
    /// the pool is full).
    ///
    /// # Safety
    /// Same contract as [`Version::free`], which this becomes when the
    /// pool is full.
    pub unsafe fn release(&self, ptr: *mut Version) {
        debug_assert!(!ptr.is_null());
        let mut free = self.free.lock().unwrap();
        if free.len() < self.cap {
            free.push(ptr);
            self.pooled.store(free.len(), Ordering::Release);
        } else {
            drop(free);
            unsafe { Version::free(ptr) };
        }
    }

    /// Pop up to `n` nodes into `out`. Returns how many were moved.
    fn fill(&self, out: &mut Vec<*mut Version>, n: usize) -> usize {
        if self.pooled() == 0 {
            return 0;
        }
        let mut free = self.free.lock().unwrap();
        let take = n.min(free.len());
        let split = free.len() - take;
        out.extend(free.drain(split..));
        self.pooled.store(free.len(), Ordering::Release);
        take
    }

    /// Nodes currently pooled (tests/stats).
    pub fn pooled(&self) -> usize {
        self.pooled.load(Ordering::Acquire)
    }
}

impl Drop for VersionPool {
    fn drop(&mut self) {
        for ptr in self.free.get_mut().unwrap().drain(..) {
            // SAFETY: the pool exclusively owns pooled nodes.
            unsafe { Version::free(ptr) };
        }
    }
}

/// Per-worker cache over a [`VersionPool`].
///
/// Acquisition pops a local node (no synchronization); the local stash
/// refills from the shared pool in batches. Only when both are empty
/// does the worker touch the allocator — and an empty pool is seen in
/// one relaxed load, without its lock, so a load of fresh rows (nothing
/// retired yet) pays no mutex per version.
pub struct VersionCache {
    pool: Arc<VersionPool>,
    local: Vec<*mut Version>,
    /// Nodes served from the cache instead of the allocator (stats).
    reused: u64,
}

// SAFETY: same ownership argument as the pool — locally cached nodes are
// exclusively owned; moving the cache to another thread moves ownership.
unsafe impl Send for VersionCache {}

impl VersionCache {
    pub fn new(pool: Arc<VersionPool>) -> VersionCache {
        VersionCache { pool, local: Vec::new(), reused: 0 }
    }

    /// Produce a version stamped with `stamp`: a recycled node
    /// reinitialized in place when one is available and `data` fits it, a
    /// fresh allocation otherwise.
    pub fn acquire(&mut self, stamp: Stamp, data: &[u8], tombstone: bool) -> *mut Version {
        if self.local.is_empty() && self.pool.fill(&mut self.local, CACHE_REFILL_BATCH) == 0 {
            return Version::alloc(stamp, data, tombstone);
        }
        let pooled = self.local.pop().expect("non-empty after refill");
        // SAFETY: the node came from the pool (quiesced, exclusively
        // ours) and is not yet published anywhere.
        self.reused += (data.len() <= unsafe { (*pooled).cap } as usize) as u64;
        unsafe { Version::reinit(pooled, stamp, data, tombstone) }
    }

    /// Return a node this worker still exclusively owns — one that was
    /// never published, or was acquired and immediately retracted before
    /// any other thread could observe it.
    ///
    /// # Safety
    /// `ptr` must be exclusively owned by the caller and unreachable from
    /// every shared structure (no epoch wait needed, unlike
    /// [`defer_release`]).
    pub unsafe fn release_unpublished(&mut self, ptr: *mut Version) {
        debug_assert!(!ptr.is_null());
        self.local.push(ptr);
    }

    /// Nodes served by reuse rather than allocation.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

impl Drop for VersionCache {
    fn drop(&mut self) {
        for ptr in self.local.drain(..) {
            // SAFETY: locally cached nodes are exclusively owned.
            unsafe { self.pool.release(ptr) };
        }
    }
}

struct SendVersionPtr(*mut Version);
// SAFETY: the deferred closure is the sole owner by the defer contract.
unsafe impl Send for SendVersionPtr {}

/// Retire `ptr` through the epoch `guard`: once every thread active now
/// has quiesced it is released into `pool` for reuse, or freed when there
/// is no pool.
///
/// # Safety
/// Same contract as [`ermia_epoch::Guard::defer_drop`]: `ptr` must be
/// unlinked from all shared structures and owned by no one else.
pub unsafe fn defer_release(
    guard: &ermia_epoch::Guard<'_>,
    pool: Option<&Arc<VersionPool>>,
    ptr: *mut Version,
) {
    let wrapped = SendVersionPtr(ptr);
    let pool = pool.cloned();
    guard.defer(move || {
        let wrapper = wrapped;
        // SAFETY: quiescence has passed and we are the sole owner.
        match pool {
            Some(pool) => unsafe { pool.release(wrapper.0) },
            None => unsafe { Version::free(wrapper.0) },
        }
    });
}
