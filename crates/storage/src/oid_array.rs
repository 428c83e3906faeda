//! Latch-free indirection arrays (paper §3.2).
//!
//! A linear array of slots indexed by OID; each slot holds the physical
//! pointer to the head of the record's version chain. The array is
//! paged and pages materialize on demand with a CAS, so growth never
//! blocks readers. OID allocation is "completely contention-free: it
//! simply means writing to an element in an array because no two threads
//! will be allocated the same new OID".
//!
//! Recycled OIDs live on a lock-free intrusive stack: the "next" links
//! are stored in a parallel paged `AtomicU32` array indexed by OID (a
//! free OID's slot points at the next free OID), and the stack head packs
//! a 32-bit ABA tag with the top OID into one `AtomicU64`. Push and pop
//! are single CAS loops — no mutex on the allocation path.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

use ermia_common::{Oid, Region, Zeroable};

use crate::version::Version;

/// Slots per page (2^14 × 8 B = 128 KiB pages).
const PAGE_SHIFT: u32 = 14;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Max pages (2^14 pages × 2^14 slots = 256M OIDs per table).
const PAGE_COUNT: usize = 1 << 14;

/// Free-stack terminator: OID 0 is reserved as "invalid" so it doubles
/// as the empty-stack sentinel.
const FREE_NIL: u32 = 0;

/// A page of chain heads (null until stored).
type Page = [AtomicU64; PAGE_SIZE];

/// A page of free-stack "next" links ([`FREE_NIL`] until stored),
/// materialized the first time an OID in its range is recycled.
type FreePage = [AtomicU32; PAGE_SIZE];

/// A zeroed page in a mapping of its own ([`Region`]): resident where
/// it is written, never cut from heap an earlier owner left dirty, and
/// never counted as heap — whether `malloc` would have mapped a 128 KiB
/// block or cut it from free heap depends on what was freed before it.
fn alloc_page<T: Zeroable>() -> *mut [T; PAGE_SIZE] {
    const { assert!(std::mem::size_of::<T>() > 0) };
    Region::new(std::mem::size_of::<[T; PAGE_SIZE]>()).into_raw().as_ptr().cast()
}

/// Unmap a page from [`alloc_page`].
///
/// # Safety
/// `page` came from `alloc_page::<T>()`, is reachable no more, and is
/// freed once.
unsafe fn free_page<T>(page: *mut [T; PAGE_SIZE]) {
    let len = std::mem::size_of::<[T; PAGE_SIZE]>();
    // SAFETY: the caller's contract; `alloc_page` never returns null.
    drop(unsafe { Region::from_raw(NonNull::new_unchecked(page.cast()), len) });
}

/// The page a directory entry points at, materialized on first use: a
/// zeroed page is installed with a CAS, and a loser frees its copy.
fn materialize<T: Zeroable>(entry: &AtomicPtr<[T; PAGE_SIZE]>) -> &[T; PAGE_SIZE] {
    let ptr = entry.load(Ordering::Acquire);
    if !ptr.is_null() {
        // SAFETY: pages are never freed while the array lives.
        return unsafe { &*ptr };
    }
    let fresh = alloc_page::<T>();
    let null = std::ptr::null_mut();
    match entry.compare_exchange(null, fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => unsafe { &*fresh },
        Err(existing) => {
            // SAFETY: `fresh` never escaped.
            unsafe { free_page(fresh) };
            unsafe { &*existing }
        }
    }
}

/// One table's indirection array. Its two page directories are
/// [`Region`]s, resident only where a page pointer was stored.
pub struct OidArray {
    pages: Region,
    next_oid: AtomicU32,
    /// Head of the free stack: `(aba_tag << 32) | top_oid`. The tag
    /// increments on every successful update, so a pop's CAS cannot
    /// succeed against a head that was popped and re-pushed in between
    /// (the classic ABA interleaving that corrupts Treiber stacks).
    free_head: AtomicU64,
    /// Intrusive next links for the free stack, paged like `pages`.
    free_pages: Region,
}

impl Default for OidArray {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn pack_head(tag: u64, oid: u32) -> u64 {
    (tag << 32) | oid as u64
}

#[inline]
fn unpack_head(head: u64) -> (u64, u32) {
    (head >> 32, head as u32)
}

impl OidArray {
    pub fn new() -> OidArray {
        let directory = || Region::new(PAGE_COUNT * std::mem::size_of::<AtomicPtr<Page>>());
        OidArray {
            pages: directory(),
            // OID 0 is reserved as "invalid".
            next_oid: AtomicU32::new(1),
            free_head: AtomicU64::new(pack_head(0, FREE_NIL)),
            free_pages: directory(),
        }
    }

    fn pages(&self) -> &[AtomicPtr<Page>] {
        self.pages.view()
    }

    fn free_pages(&self) -> &[AtomicPtr<FreePage>] {
        self.free_pages.view()
    }

    /// Allocate a fresh OID: pop the lock-free free stack, falling back
    /// to bumping the high-water mark (both contention-free paths).
    pub fn allocate(&self) -> Oid {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let (tag, top) = unpack_head(head);
            if top == FREE_NIL {
                break;
            }
            let next = self.free_slot(Oid(top)).load(Ordering::Acquire);
            match self.free_head.compare_exchange_weak(
                head,
                pack_head(tag.wrapping_add(1), next),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Oid(top),
                Err(observed) => head = observed,
            }
        }
        let oid = self.next_oid.fetch_add(1, Ordering::Relaxed);
        assert!((oid as usize) < PAGE_COUNT * PAGE_SIZE, "OID space exhausted");
        Oid(oid)
    }

    /// Return an OID to the allocator (GC of deleted records). Lock-free
    /// push onto the free stack.
    pub fn recycle(&self, oid: Oid) {
        debug_assert_ne!(oid.0, FREE_NIL, "cannot recycle the invalid OID");
        let slot = self.free_slot(oid);
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let (tag, top) = unpack_head(head);
            slot.store(top, Ordering::Release);
            match self.free_head.compare_exchange_weak(
                head,
                pack_head(tag.wrapping_add(1), oid.0),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(observed) => head = observed,
            }
        }
    }

    /// Number of OIDs currently on the free stack (tests/stats; O(n) walk,
    /// only meaningful when no concurrent allocate/recycle runs).
    pub fn free_count(&self) -> usize {
        let (_, mut top) = unpack_head(self.free_head.load(Ordering::Acquire));
        let mut n = 0;
        while top != FREE_NIL {
            n += 1;
            top = self.free_slot(Oid(top)).load(Ordering::Acquire);
        }
        n
    }

    /// Highest OID ever allocated plus one (iteration bound).
    pub fn high_water(&self) -> u32 {
        self.next_oid.load(Ordering::Acquire)
    }

    /// Bump the allocator past `oid` (recovery replay of inserts).
    pub fn ensure_allocated(&self, oid: Oid) {
        self.next_oid.fetch_max(oid.0 + 1, Ordering::AcqRel);
    }

    fn page(&self, oid: Oid) -> &Page {
        materialize(&self.pages()[oid.index() >> PAGE_SHIFT])
    }

    /// The free-stack next link for `oid`, materializing its page on
    /// demand.
    fn free_slot(&self, oid: Oid) -> &AtomicU32 {
        &materialize(&self.free_pages()[oid.index() >> PAGE_SHIFT])[oid.index() & (PAGE_SIZE - 1)]
    }

    #[inline]
    fn slot(&self, oid: Oid) -> &AtomicU64 {
        &self.page(oid)[oid.index() & (PAGE_SIZE - 1)]
    }

    /// Load the version-chain head for `oid` (in recovery, an address word).
    #[inline]
    pub fn head(&self, oid: Oid) -> *mut Version {
        self.slot(oid).load(Ordering::Acquire) as *mut Version
    }

    /// Offline recovery's rank of an image, kept in its OID's slot until
    /// the version is built: bit 0 set, which no 8-aligned `Version` has;
    /// as integers, every log image's word above every checkpoint image's,
    /// then by address.
    #[inline]
    pub fn address_word(from_log: bool, addr: u64) -> *mut Version {
        ((from_log as u64) << 63 | addr << 1 | 1) as *mut Version
    }

    /// Whether a slot's `head` is an [`OidArray::address_word`].
    #[inline]
    pub fn is_address(head: *mut Version) -> bool {
        head as u64 & 1 != 0
    }

    /// Install `new` as the head iff the head is still `expected` — the
    /// single CAS that installs a new version (§3.2). On failure returns
    /// the observed head.
    #[inline]
    pub fn cas_head(
        &self,
        oid: Oid,
        expected: *mut Version,
        new: *mut Version,
    ) -> Result<(), *mut Version> {
        self.slot(oid)
            .compare_exchange(expected as u64, new as u64, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
            .map_err(|cur| cur as *mut Version)
    }

    /// Unconditional store (insert of a freshly allocated OID, recovery).
    #[inline]
    pub fn store_head(&self, oid: Oid, head: *mut Version) {
        self.slot(oid).store(head as u64, Ordering::Release);
    }

    /// Visit every allocated OID with a non-null chain head (the
    /// collector's audit). The walk is not atomic with respect to
    /// concurrent updates: callers handle staleness.
    pub fn for_each(&self, mut f: impl FnMut(Oid, *mut Version)) {
        let high = self.high_water();
        for raw in 1..high {
            let oid = Oid(raw);
            let pi = oid.index() >> PAGE_SHIFT;
            let page = self.pages()[pi].load(Ordering::Acquire);
            if page.is_null() {
                continue;
            }
            let head = unsafe { (*page)[oid.index() & (PAGE_SIZE - 1)].load(Ordering::Acquire) };
            let head = head as *mut Version;
            if !head.is_null() {
                f(oid, head);
            }
        }
    }
}

impl Drop for OidArray {
    fn drop(&mut self) {
        // Free remaining version chains, then the pages. Single-threaded
        // by &mut.
        for page_ptr in self.pages() {
            let page = page_ptr.load(Ordering::Relaxed);
            if page.is_null() {
                continue;
            }
            unsafe {
                for slot in (*page).iter() {
                    let mut v = slot.load(Ordering::Relaxed) as *mut Version;
                    while !v.is_null() {
                        let next = (*v).next.load(Ordering::Relaxed);
                        Version::free(v);
                        v = next;
                    }
                }
                free_page(page);
            }
        }
        for page_ptr in self.free_pages() {
            let page = page_ptr.load(Ordering::Relaxed);
            if !page.is_null() {
                unsafe { free_page(page) };
            }
        }
    }
}
