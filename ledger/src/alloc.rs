//! Counting global allocator: heap allocations made by the whole process
//! (client, server and engine threads alike), read before and after a
//! phase. Counting must not add a contended atomic to every allocation,
//! so each thread bumps a cache-line-sized slot only it writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot(AtomicU64);

static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator cannot itself allocate.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub struct Counting;

#[inline]
fn bump() {
    let slot = MY_SLOT.try_with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
        }
        s.get()
    });
    // Thread teardown (TLS gone): fall back to a shared slot.
    // The ledger runs well under SLOTS threads, so outside teardown every
    // slot has one writer and a plain add would do; fetch_add keeps the
    // count right even if that ever stops being true.
    COUNTS[slot.unwrap_or(SLOTS - 1)].0.fetch_add(1, Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations (alloc + alloc_zeroed + realloc calls) so far.
pub fn allocations() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Relaxed)).sum()
}
