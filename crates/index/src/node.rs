//! B+-tree nodes with version-word optimistic lock coupling, and the key
//! slots they are made of.
//!
//! Version word protocol: the word is even when unlocked; bit 0 set means
//! write-locked. Readers spin past the lock bit, remember the even value,
//! and re-check it after their optimistic reads; any mutation ends with a
//! `+2` store, so a changed (or odd) word invalidates them.
//!
//! ## The key slot
//!
//! ```text
//!   h0 (u64)            h1 (u64)             tag (u64)
//!   key[0..8] as a      key[8..16] as a      (len << 1) | 1   key ≤ 16 B, all of it is h0 h1
//!   big-endian word     big-endian word      *mut LongKey     key > 16 B, one allocation, even
//!   (zero padded)       (zero padded)        0                cleared slot
//! ```
//!
//! Big-endian words order like the bytes they hold, so a probe is ordered
//! against a slot by two integer compares inside the node; only when both
//! heads tie is the tag consulted — the lengths decide between two inline
//! keys (zero padding makes `"a"` and `"a\0"` tie on the heads; the
//! shorter is the prefix, so it sorts first) and between an inline and a
//! long key (the inline one is the prefix), and two long keys compare the
//! bytes past the head. [`INLINE_KEY`] is 16 because that covers the
//! ledger's keys and every TPC-C key but two, and keeps a 30-slot node
//! under 1 KiB; it is a layout constant, not a knob.
//!
//! All mutable node state lives in atomics so concurrent optimistic
//! readers never perform a torn read of a *word*; they may observe
//! inconsistent combinations of words (mid-shift, or head words of one
//! key with the tag of another), but version validation discards those
//! results. A long-key pointer read from a slot is dereferenceable under
//! an epoch guard because displaced long keys are retired, not dropped;
//! a cleared tag is never dereferenced.

use std::alloc::{self, Layout};
use std::cmp::Ordering as Cmp;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Maximum keys per node. Split at capacity; no merging.
pub const MAX_KEYS: usize = 30;

/// Key bytes a slot holds itself.
pub const INLINE_KEY: usize = 16;

/// A key longer than [`INLINE_KEY`]: its length, then its bytes (all of
/// them, head included), in one allocation. Immutable once made.
#[repr(C)]
pub struct LongKey {
    len: usize,
}

impl LongKey {
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(
            std::mem::size_of::<LongKey>() + len,
            std::mem::align_of::<LongKey>(),
        )
        .expect("key layout")
    }

    fn alloc(key: &[u8]) -> *mut LongKey {
        let layout = LongKey::layout(key.len());
        // SAFETY: the layout is not zero-sized; header and bytes are
        // written before the pointer escapes.
        unsafe {
            let ptr = alloc::alloc(layout).cast::<LongKey>();
            if ptr.is_null() {
                alloc::handle_alloc_error(layout);
            }
            ptr.write(LongKey { len: key.len() });
            std::ptr::copy_nonoverlapping(key.as_ptr(), ptr.add(1).cast(), key.len());
            ptr
        }
    }

    /// # Safety
    /// `ptr` came from a slot read under an epoch guard that outlives `'a`
    /// (or is owned by the caller).
    #[inline]
    unsafe fn bytes<'a>(ptr: *const LongKey) -> &'a [u8] {
        unsafe { std::slice::from_raw_parts(ptr.add(1).cast(), (*ptr).len) }
    }

    /// # Safety
    /// `ptr` came from [`LongKey::alloc`], is unreachable from the tree
    /// and from every pinned reader, and is freed once.
    unsafe fn free(ptr: *mut LongKey) {
        unsafe { alloc::dealloc(ptr.cast(), LongKey::layout((*ptr).len)) };
    }
}

/// The first [`INLINE_KEY`] bytes of `key`, zero padded, as two big-endian
/// words.
#[inline]
fn head(key: &[u8]) -> (u64, u64) {
    let mut b = [0u8; INLINE_KEY];
    let n = key.len().min(INLINE_KEY);
    b[..n].copy_from_slice(&key[..n]);
    (
        u64::from_be_bytes(b[..8].try_into().expect("8 bytes")),
        u64::from_be_bytes(b[8..].try_into().expect("8 bytes")),
    )
}

/// A plain copy of a slot's three words: what a scan carries out of a
/// node, what a split moves, what a separator is made from.
#[derive(Clone, Copy)]
pub struct Words {
    h0: u64,
    h1: u64,
    tag: u64,
}

impl Words {
    pub const ZERO: Words = Words { h0: 0, h1: 0, tag: 0 };

    fn long(&self) -> Option<*mut LongKey> {
        (self.tag & 1 == 0 && self.tag != 0).then_some(self.tag as *mut LongKey)
    }

    /// The key's bytes: out of `buf` for an inline key, out of the heap
    /// for a long one.
    ///
    /// # Safety
    /// A long key behind `self` must stay live for `'a` (epoch guard).
    #[inline]
    pub unsafe fn bytes<'a>(&self, buf: &'a mut [u8; INLINE_KEY]) -> &'a [u8] {
        match self.long() {
            Some(p) => unsafe { LongKey::bytes(p) },
            None => {
                buf[..8].copy_from_slice(&self.h0.to_be_bytes());
                buf[8..].copy_from_slice(&self.h1.to_be_bytes());
                &buf[..(self.tag >> 1) as usize]
            }
        }
    }

    /// Free the long key, if there is one.
    ///
    /// # Safety
    /// See [`LongKey::free`].
    pub unsafe fn free(self) {
        if let Some(p) = self.long() {
            unsafe { LongKey::free(p) };
        }
    }

    /// [`Words::free`] once every reader pinned now has quiesced. An
    /// inline key has nothing to retire.
    ///
    /// # Safety
    /// The words must already be out of every slot below `nkeys`.
    pub unsafe fn retire(self, g: &ermia_epoch::Guard<'_>) {
        struct SendWords(Words);
        // SAFETY: the deferred closure is the sole owner of the key.
        unsafe impl Send for SendWords {}
        if self.long().is_some() {
            let owned = SendWords(self);
            g.defer(move || {
                let owned = owned;
                unsafe { owned.0.free() }
            });
        }
    }
}

/// One key slot of a node (see the module docs for the layout).
#[repr(C)]
pub struct Slot {
    h0: AtomicU64,
    h1: AtomicU64,
    tag: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot { h0: AtomicU64::new(0), h1: AtomicU64::new(0), tag: AtomicU64::new(0) }
    }

    #[inline]
    pub fn load(&self) -> Words {
        Words {
            h0: self.h0.load(Ordering::Relaxed),
            h1: self.h1.load(Ordering::Relaxed),
            // Acquire: a long key's bytes were written before its pointer.
            tag: self.tag.load(Ordering::Acquire),
        }
    }

    /// Writers only (node locked).
    #[inline]
    pub fn store(&self, w: Words) {
        self.h0.store(w.h0, Ordering::Relaxed);
        self.h1.store(w.h1, Ordering::Relaxed);
        self.tag.store(w.tag, Ordering::Release);
    }

    /// Mark a vacated slot so that a lagging reader has nothing to follow.
    #[inline]
    pub fn clear(&self) {
        self.tag.store(0, Ordering::Relaxed);
    }
}

/// A key being looked for, in the form slots are compared in.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    h0: u64,
    h1: u64,
    len: usize,
    /// The whole key when it is longer than [`INLINE_KEY`], else empty.
    long: &'a [u8],
}

impl<'a> Probe<'a> {
    #[inline]
    pub fn new(key: &'a [u8]) -> Probe<'a> {
        let (h0, h1) = head(key);
        let long = if key.len() > INLINE_KEY { key } else { &[] };
        Probe { h0, h1, len: key.len(), long }
    }

    /// Probe for the key `w` holds.
    ///
    /// # Safety
    /// A long key behind `w` must stay live for `'a` (epoch guard).
    pub unsafe fn of(w: &Words) -> Probe<'a> {
        match w.long() {
            Some(p) => {
                let long = unsafe { LongKey::bytes(p) };
                Probe { h0: w.h0, h1: w.h1, len: long.len(), long }
            }
            None => Probe { h0: w.h0, h1: w.h1, len: (w.tag >> 1) as usize, long: &[] },
        }
    }

    /// Slot words holding this probe's key; allocates only for a long key.
    pub fn to_words(self) -> Words {
        let tag = if self.len <= INLINE_KEY {
            ((self.len as u64) << 1) | 1
        } else {
            LongKey::alloc(self.long) as u64
        };
        Words { h0: self.h0, h1: self.h1, tag }
    }

    /// Order of this key relative to the key in `slot`. On torn slot
    /// words the answer is arbitrary; the caller's version check throws
    /// it away.
    #[inline]
    pub fn cmp(&self, slot: &Slot) -> Cmp {
        let h0 = slot.h0.load(Ordering::Relaxed);
        if self.h0 != h0 {
            return self.h0.cmp(&h0);
        }
        let h1 = slot.h1.load(Ordering::Relaxed);
        if self.h1 != h1 {
            return self.h1.cmp(&h1);
        }
        self.cmp_tied(slot.tag.load(Ordering::Acquire))
    }

    /// The heads tie and the slot's key is long.
    fn cmp_long(&self, slot_key: *const LongKey) -> Cmp {
        if self.len <= INLINE_KEY {
            return Cmp::Less; // a prefix of the slot's key
        }
        // SAFETY: a non-null even tag read from a slot is a long key that
        // is live or retired-but-unfreed under the caller's epoch guard.
        let theirs = unsafe { LongKey::bytes(slot_key) };
        self.long[INLINE_KEY..].cmp(&theirs[INLINE_KEY..])
    }

    /// The heads tie: the lengths or the tails decide.
    #[inline]
    fn cmp_tied(&self, tag: u64) -> Cmp {
        if tag & 1 == 1 {
            // Inline slot: equal heads, so the shorter key is a prefix of
            // the longer (a long probe is longer than any inline key).
            self.len.cmp(&((tag >> 1) as usize))
        } else if tag == 0 {
            Cmp::Less // cleared slot: torn read
        } else {
            self.cmp_long(tag as *const LongKey)
        }
    }

    /// Binary search of the first `nk` of `slots`: the index of the first
    /// key not below the probe, and whether that key equals it.
    #[inline]
    pub fn search(&self, slots: &[Slot; MAX_KEYS], nk: usize) -> (usize, bool) {
        let (mut lo, mut hi) = (0, nk);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cmp(&slots[mid]) {
                Cmp::Greater => lo = mid + 1,
                Cmp::Less => hi = mid,
                Cmp::Equal => return (mid, true),
            }
        }
        (lo, false)
    }

    /// Index of the first key above the probe (a child index in an inner
    /// node; where a scan resumes strictly after a delivered key).
    #[inline]
    pub fn upper_bound(&self, slots: &[Slot; MAX_KEYS], nk: usize) -> usize {
        let (i, found) = self.search(slots, nk);
        i + found as usize
    }
}

/// Common node header. `#[repr(C)]` with the header first lets child
/// pointers be passed around as `*mut NodeHdr` and downcast via `is_leaf`.
#[repr(C)]
pub struct NodeHdr {
    pub version: AtomicU64,
    pub is_leaf: bool,
}

pub const LOCKED: u64 = 1;

impl NodeHdr {
    fn new(is_leaf: bool) -> NodeHdr {
        NodeHdr { version: AtomicU64::new(0), is_leaf }
    }

    /// Optimistic read entry: spin until unlocked, return the stable
    /// (even) version.
    #[inline]
    pub fn read_lock(&self) -> u64 {
        loop {
            let v = self.version.load(Ordering::Acquire);
            if v & LOCKED == 0 {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Optimistic read exit: true iff nothing happened since `read_lock`.
    /// The fence keeps the (relaxed) slot reads before the re-check.
    #[inline]
    pub fn check(&self, v: u64) -> bool {
        fence(Ordering::Acquire);
        self.version.load(Ordering::Acquire) == v
    }

    /// Try to upgrade an optimistic read to a write lock.
    #[inline]
    pub fn try_lock(&self, v: u64) -> bool {
        self.version.compare_exchange(v, v | LOCKED, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    /// Release a write lock, bumping the version to invalidate readers.
    #[inline]
    pub fn unlock(&self) {
        let v = self.version.load(Ordering::Relaxed);
        debug_assert!(v & LOCKED != 0);
        self.version.store(v + 1, Ordering::Release);
    }

    /// Release a write lock *without* bumping the version — only legal
    /// when the critical section made no modification, so concurrent
    /// optimistic readers (and recorded node sets) stay valid.
    #[inline]
    pub fn unlock_unchanged(&self, v: u64) {
        debug_assert_eq!(self.version.load(Ordering::Relaxed), v | LOCKED);
        self.version.store(v, Ordering::Release);
    }

    /// Current version (for node-set validation): `None` while locked.
    #[inline]
    pub fn stable_version(&self) -> Option<u64> {
        let v = self.version.load(Ordering::Acquire);
        (v & LOCKED == 0).then_some(v)
    }
}

/// Leaf node: sorted key slots with `u64` values and a right-sibling
/// chain for range scans.
#[repr(C)]
pub struct LeafNode {
    pub hdr: NodeHdr,
    pub nkeys: AtomicUsize,
    pub keys: [Slot; MAX_KEYS],
    pub vals: [AtomicU64; MAX_KEYS],
    pub next: AtomicPtr<LeafNode>,
}

impl LeafNode {
    pub fn alloc() -> *mut LeafNode {
        Box::into_raw(Box::new(LeafNode {
            hdr: NodeHdr::new(true),
            nkeys: AtomicUsize::new(0),
            keys: std::array::from_fn(|_| Slot::empty()),
            vals: std::array::from_fn(|_| AtomicU64::new(0)),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }

    pub fn as_hdr(ptr: *mut LeafNode) -> *mut NodeHdr {
        ptr.cast()
    }
}

/// Inner node: `nkeys` separators and `nkeys + 1` children. Child `i`
/// covers keys `< keys[i]`; the last child covers the rest.
#[repr(C)]
pub struct InnerNode {
    pub hdr: NodeHdr,
    pub nkeys: AtomicUsize,
    pub keys: [Slot; MAX_KEYS],
    pub children: [AtomicPtr<NodeHdr>; MAX_KEYS + 1],
}

impl InnerNode {
    pub fn alloc() -> *mut InnerNode {
        Box::into_raw(Box::new(InnerNode {
            hdr: NodeHdr::new(false),
            nkeys: AtomicUsize::new(0),
            keys: std::array::from_fn(|_| Slot::empty()),
            children: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }))
    }

    pub fn as_hdr(ptr: *mut InnerNode) -> *mut NodeHdr {
        ptr.cast()
    }
}
