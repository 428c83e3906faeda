//! Zero-on-demand memory for capacity-sized tables.
//!
//! The log ring, the TID context table and the indirection arrays' page
//! directories are sized by what they may one day hold, not by what they
//! hold now, and the indirection arrays' pages come one at a time as OIDs
//! are handed out. A
//! [`Region`] gives such a table its own page-aligned anonymous mapping:
//! every byte reads zero, a page becomes resident when it is first
//! written, and [`Region::release`] hands pages back. The general
//! allocator cannot promise any of that — `vec![0; n]` may be cut from
//! heap an earlier owner left dirty, and is then resident from the first
//! instruction.
//!
//! This file is the one place in the workspace that declares `mmap`,
//! `munmap` and `madvise`. Off Linux a region is a zeroed, page-aligned
//! heap block and `release` zeroes without giving anything back.

use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicU8};

/// Element types a [`Region`] can be viewed as.
///
/// # Safety
/// The all-zero bit pattern must be a valid value of the type, the type
/// must have no drop glue, and every byte of it must sit behind interior
/// mutability (atomics): [`Region::release`] zeroes through `&self`.
pub unsafe trait Zeroable: Sync {}

// SAFETY: atomics of plain integers: zero is a value, no drop glue.
unsafe impl Zeroable for AtomicU8 {}
unsafe impl Zeroable for AtomicU32 {}
unsafe impl Zeroable for AtomicU64 {}
// SAFETY: one atomic word, no drop glue (it does not own its pointee);
// all-zero is the null pointer.
unsafe impl<T> Zeroable for AtomicPtr<T> {}

/// A private anonymous mapping of whole pages, zero until written.
pub struct Region {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: a region owns its memory outright and hands out only raw
// pointers and views of `Sync` element types.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// At least `len` bytes (rounded up to whole pages), all zero, none
    /// of them resident yet.
    ///
    /// # Panics
    /// If `len` is zero or the operating system refuses the memory.
    pub fn new(len: usize) -> Region {
        assert!(len > 0, "an empty region");
        let len = len.next_multiple_of(page_size());
        Region { ptr: os::map(len), len }
    }

    /// Give up the mapping without unmapping it, for a table that keeps
    /// the pointer itself; [`Region::from_raw`] takes it back.
    pub fn into_raw(self) -> NonNull<u8> {
        let ptr = self.ptr;
        std::mem::forget(self);
        ptr
    }

    /// The region [`Region::into_raw`] gave up.
    ///
    /// # Safety
    /// `ptr` came from `into_raw` of a region made with `len` bytes, and
    /// is taken back once.
    pub unsafe fn from_raw(ptr: NonNull<u8>, len: usize) -> Region {
        Region { ptr, len: len.next_multiple_of(page_size()) }
    }

    /// Size in bytes: a whole number of pages.
    #[allow(clippy::len_without_is_empty)] // never empty
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The first byte; page-aligned. Reads and writes through it are the
    /// caller's to order against each other and against `release`.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// The region as `len() / size_of::<T>()` elements of `T`.
    #[inline]
    pub fn view<T: Zeroable>(&self) -> &[T] {
        const { assert!(std::mem::align_of::<T>() <= 4096 && std::mem::size_of::<T>() > 0) };
        // SAFETY: the mapping is page-aligned, `len` bytes long, lives as
        // long as `self`, and holds either zeros or what was stored
        // through an earlier view — both valid `T`s (`Zeroable`).
        unsafe {
            std::slice::from_raw_parts(
                self.ptr.as_ptr().cast(),
                self.len / std::mem::size_of::<T>(),
            )
        }
    }

    /// Give the whole pages inside `bytes` back to the operating system:
    /// they read zero again and stop being resident. The partial pages at
    /// either end of the range keep their contents. Returns the bytes
    /// given back: empty, at the range's end, if it holds no whole page.
    ///
    /// The caller orders this against every other access to those pages:
    /// a store that races it may or may not survive.
    pub fn release(&self, bytes: Range<usize>) -> Range<usize> {
        assert!(bytes.start <= bytes.end && bytes.end <= self.len, "release outside the region");
        let page = page_size();
        let lo = bytes.start.next_multiple_of(page);
        let hi = bytes.end / page * page;
        if lo >= hi {
            return bytes.end..bytes.end;
        }
        // SAFETY: `[lo, hi)` is whole pages of this region's mapping.
        unsafe { os::discard(self.ptr.as_ptr().add(lo), hi - lo) };
        lo..hi
    }

    /// For tests of what a table touches: per page, whether the process
    /// has a page-table entry for it (`/proc/self/pagemap`, bit 63) — a
    /// written page, or a page that was only read and maps the shared
    /// zero page. `None` where there is no such file.
    pub fn touched_pages(&self) -> Option<Vec<bool>> {
        use std::io::{Read, Seek, SeekFrom};
        let page = page_size();
        let mut words = vec![0u8; self.len / page * 8];
        let mut pagemap = std::fs::File::open("/proc/self/pagemap").ok()?;
        pagemap.seek(SeekFrom::Start((self.ptr.as_ptr() as usize / page * 8) as u64)).ok()?;
        pagemap.read_exact(&mut words).ok()?;
        Some(words.chunks_exact(8).map(|w| w[7] & 0x80 != 0).collect())
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are what `os::map` returned; views borrow
        // `self`, so none outlives this.
        unsafe { os::unmap(self.ptr, self.len) };
    }
}

/// The page size, asked of the operating system once.
fn page_size() -> usize {
    static PAGE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PAGE.get_or_init(os::page_size)
}

#[cfg(target_os = "linux")]
mod os {
    use std::ffi::c_void;
    use std::ptr::NonNull;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MADV_DONTNEED: i32 = 4;
    const SC_PAGESIZE: i32 = 30;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        fn sysconf(name: i32) -> i64;
    }

    pub(super) fn page_size() -> usize {
        // SAFETY: no preconditions.
        let size = unsafe { sysconf(SC_PAGESIZE) };
        usize::try_from(size).ok().filter(|s| s.is_power_of_two()).expect("sysconf(_SC_PAGESIZE)")
    }

    pub(super) fn map(len: usize) -> NonNull<u8> {
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // MAP_FAILED is all ones.
        assert!(ptr as isize != -1, "mmap of {len} bytes: {}", std::io::Error::last_os_error());
        NonNull::new(ptr.cast()).expect("mmap returned null")
    }

    /// # Safety
    /// `[addr, addr + len)` is whole pages of a live mapping from [`map`].
    pub(super) unsafe fn discard(addr: *mut u8, len: usize) {
        // SAFETY: the caller's contract. Private anonymous pages dropped
        // with MADV_DONTNEED read zero on the next touch.
        if unsafe { madvise(addr.cast(), len, MADV_DONTNEED) } != 0 {
            // Refused (locked memory): the zeros are owed all the same.
            unsafe { addr.write_bytes(0, len) };
        }
    }

    /// # Safety
    /// `ptr`/`len` name a whole mapping from [`map`], not used again.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract. Cannot fail on a whole mapping;
        // a failure would leak it, nothing worse.
        unsafe { munmap(ptr.as_ptr().cast(), len) };
    }
}

#[cfg(not(target_os = "linux"))]
mod os {
    use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
    use std::ptr::NonNull;

    pub(super) fn page_size() -> usize {
        4096
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, page_size()).expect("region layout")
    }

    pub(super) fn map(len: usize) -> NonNull<u8> {
        // SAFETY: `len` is not zero (`Region::new`).
        let ptr = unsafe { alloc_zeroed(layout(len)) };
        NonNull::new(ptr).unwrap_or_else(|| handle_alloc_error(layout(len)))
    }

    /// # Safety
    /// `[addr, addr + len)` lies inside a live block from [`map`].
    pub(super) unsafe fn discard(addr: *mut u8, len: usize) {
        // SAFETY: the caller's contract.
        unsafe { addr.write_bytes(0, len) };
    }

    /// # Safety
    /// `ptr`/`len` name a whole block from [`map`], not used again.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract.
        unsafe { dealloc(ptr.as_ptr(), layout(len)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    /// Pages of the region the process has touched.
    #[cfg(target_os = "linux")]
    fn present_pages(region: &Region) -> usize {
        region.touched_pages().expect("pagemap").iter().filter(|&&p| p).count()
    }

    #[test]
    fn a_fresh_region_reads_zero_and_is_not_resident() {
        let region = Region::new(8 << 20);
        assert_eq!(region.len(), 8 << 20);
        assert_eq!(region.as_ptr() as usize % page_size(), 0);
        #[cfg(target_os = "linux")]
        assert_eq!(present_pages(&region), 0, "resident before the first access");
        let words = region.view::<AtomicU64>();
        assert_eq!(words.len(), 1 << 20);
        assert!(words.iter().step_by(509).all(|w| w.load(Relaxed) == 0));
    }

    #[test]
    fn length_rounds_up_to_whole_pages() {
        let region = Region::new(96);
        assert_eq!(region.len(), page_size());
        assert_eq!(region.view::<AtomicU32>().len(), page_size() / 4);
        region.view::<AtomicU8>()[95].store(7, Relaxed);
        region.release(0..region.len());
        assert_eq!(region.view::<AtomicU8>()[95].load(Relaxed), 0);
    }

    #[test]
    fn released_pages_read_zero_and_the_edges_keep_their_bytes() {
        let page = page_size();
        let region = Region::new(64 * page);
        let bytes = region.view::<AtomicU8>();
        for b in bytes {
            b.store(0xAB, Relaxed);
        }
        #[cfg(target_os = "linux")]
        assert_eq!(present_pages(&region), 64);
        // Pages 8..56 lie wholly inside; 7 and 56 are only touched.
        let (lo, hi) = (7 * page + 100, 56 * page + 100);
        region.release(lo..hi);
        // Before reading them back: a read maps the zero page.
        #[cfg(target_os = "linux")]
        assert_eq!(present_pages(&region), 16, "48 pages were given back");
        for (i, b) in bytes.iter().enumerate() {
            let want = if (8 * page..56 * page).contains(&i) { 0 } else { 0xAB };
            assert_eq!(b.load(Relaxed), want, "byte {i}");
        }
    }

    #[test]
    fn a_range_that_holds_no_whole_page_releases_nothing() {
        let page = page_size();
        let region = Region::new(4 * page);
        let bytes = region.view::<AtomicU8>();
        for b in bytes {
            b.store(1, Relaxed);
        }
        region.release(10..page + 10); // straddles a boundary, covers no page
        region.release(page..page); // empty
        region.release(2 * page + 1..3 * page); // one byte short
        assert!(bytes.iter().all(|b| b.load(Relaxed) == 1));
        region.release(2 * page..3 * page);
        assert!(bytes[2 * page..3 * page].iter().all(|b| b.load(Relaxed) == 0));
        assert!(bytes[3 * page..].iter().all(|b| b.load(Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "release outside the region")]
    fn a_release_past_the_end_is_refused() {
        let region = Region::new(4096);
        region.release(0..region.len() + 1);
    }
}
