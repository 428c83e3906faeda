//! The optimistic-lock-coupling B+-tree.

use std::sync::atomic::{AtomicPtr, Ordering};

use ermia_epoch::Guard;

use crate::node::{InnerNode, KeyBuf, LeafNode, NodeHdr, MAX_KEYS};

/// Result of an insert attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    Inserted,
    /// The key already exists; carries the current value.
    Duplicate(u64),
}

/// Scan callback verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanControl {
    Continue,
    Stop,
}

/// A `(leaf, version)` pair for node-set phantom validation.
///
/// The pointer is stable for the lifetime of the tree (nodes are never
/// freed before the tree drops), so snapshots can be held across the
/// whole transaction and validated at pre-commit with
/// [`BTree::validate`].
#[derive(Clone, Copy, Debug)]
pub struct LeafSnapshot {
    leaf: *const NodeHdr,
    pub version: u64,
}

// SAFETY: the pointer is only dereferenced through `BTree::validate`,
// which requires the owning tree; nodes outlive all snapshots.
unsafe impl Send for LeafSnapshot {}
unsafe impl Sync for LeafSnapshot {}

impl LeafSnapshot {
    /// Stable identity of the leaf (for node-set deduplication).
    #[inline]
    pub fn id(&self) -> usize {
        self.leaf as usize
    }
}

/// A concurrent B+-tree from byte-string keys to `u64` values.
pub struct BTree {
    root: AtomicPtr<NodeHdr>,
}

// SAFETY: all shared mutable state is in atomics; the OLC protocol plus
// epoch-based key reclamation make concurrent access sound.
unsafe impl Send for BTree {}
unsafe impl Sync for BTree {}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    pub fn new() -> BTree {
        let root = LeafNode::alloc();
        BTree { root: AtomicPtr::new(LeafNode::as_hdr(root)) }
    }

    /// Point lookup. Also returns the leaf snapshot covering the key's
    /// position — needed even on a miss, so that a later insertion of
    /// this key by another transaction is caught as a phantom.
    pub fn get(&self, _g: &Guard<'_>, key: &[u8]) -> (Option<u64>, LeafSnapshot) {
        loop {
            let Some((leaf, v)) = self.find_leaf(key) else { continue };
            let leaf_ref = unsafe { &*leaf };
            let nk = leaf_ref.nkeys.load(Ordering::Acquire);
            if nk > MAX_KEYS {
                continue;
            }
            let mut found = None;
            let mut ok = true;
            for i in 0..nk {
                let kptr = leaf_ref.keys[i].load(Ordering::Acquire);
                if kptr.is_null() {
                    ok = false;
                    break;
                }
                // SAFETY: any pointer in a slot is live or retired-but-
                // unfreed under our epoch guard.
                let kb = unsafe { &(*kptr).bytes };
                if kb.as_ref() == key {
                    found = Some(leaf_ref.vals[i].load(Ordering::Acquire));
                    break;
                }
            }
            if !ok || !leaf_ref.hdr.check(v) {
                continue;
            }
            return (found, LeafSnapshot { leaf: leaf.cast(), version: v });
        }
    }

    /// Insert `key → val` if absent.
    pub fn insert(&self, g: &Guard<'_>, key: &[u8], val: u64) -> InsertOutcome {
        'restart: loop {
            let mut parent: *mut InnerNode = std::ptr::null_mut();
            let mut pv = 0u64;
            let (mut node, mut v) = self.stable_root();
            loop {
                let hdr = unsafe { &*node };
                if !hdr.is_leaf {
                    let inner: *mut InnerNode = node.cast();
                    let inner_ref = unsafe { &*inner };
                    let nk = inner_ref.nkeys.load(Ordering::Acquire);
                    if nk > MAX_KEYS {
                        continue 'restart;
                    }
                    if nk == MAX_KEYS {
                        self.split_node(parent, pv, node, v, g);
                        continue 'restart;
                    }
                    let Some(idx) = Self::child_index(inner_ref, nk, key) else {
                        continue 'restart;
                    };
                    let child = inner_ref.children[idx].load(Ordering::Acquire);
                    if child.is_null() {
                        continue 'restart;
                    }
                    let cv = unsafe { (*child).read_lock() };
                    if !hdr.check(v) {
                        continue 'restart;
                    }
                    parent = inner;
                    pv = v;
                    node = child;
                    v = cv;
                } else {
                    let leaf: *mut LeafNode = node.cast();
                    let leaf_ref = unsafe { &*leaf };
                    let nk = leaf_ref.nkeys.load(Ordering::Acquire);
                    if nk > MAX_KEYS {
                        continue 'restart;
                    }
                    if nk == MAX_KEYS {
                        self.split_node(parent, pv, node, v, g);
                        continue 'restart;
                    }
                    if !hdr.try_lock(v) {
                        continue 'restart;
                    }
                    // Locked: state is now stable.
                    let nk = leaf_ref.nkeys.load(Ordering::Relaxed);
                    debug_assert!(nk < MAX_KEYS);
                    let mut pos = nk;
                    for i in 0..nk {
                        let kptr = leaf_ref.keys[i].load(Ordering::Relaxed);
                        let kb = unsafe { (*kptr).bytes.as_ref() };
                        match kb.cmp(key) {
                            std::cmp::Ordering::Less => {}
                            std::cmp::Ordering::Equal => {
                                let existing = leaf_ref.vals[i].load(Ordering::Relaxed);
                                // No modification: release without a
                                // version bump so concurrent node sets
                                // stay valid.
                                hdr.unlock_unchanged(v);
                                return InsertOutcome::Duplicate(existing);
                            }
                            std::cmp::Ordering::Greater => {
                                pos = i;
                                break;
                            }
                        }
                    }
                    // Shift right and place the new entry.
                    let mut i = nk;
                    while i > pos {
                        let kp = leaf_ref.keys[i - 1].load(Ordering::Relaxed);
                        let vv = leaf_ref.vals[i - 1].load(Ordering::Relaxed);
                        leaf_ref.keys[i].store(kp, Ordering::Relaxed);
                        leaf_ref.vals[i].store(vv, Ordering::Relaxed);
                        i -= 1;
                    }
                    leaf_ref.keys[pos].store(KeyBuf::alloc(key), Ordering::Relaxed);
                    leaf_ref.vals[pos].store(val, Ordering::Relaxed);
                    leaf_ref.nkeys.store(nk + 1, Ordering::Release);
                    hdr.unlock();
                    return InsertOutcome::Inserted;
                }
            }
        }
    }

    /// Remove a key, returning its value if present. The displaced key
    /// buffer is retired through `g`, never freed in place.
    pub fn remove(&self, g: &Guard<'_>, key: &[u8]) -> Option<u64> {
        loop {
            let Some((leaf, v)) = self.find_leaf(key) else { continue };
            let leaf_ref = unsafe { &*leaf };
            if !leaf_ref.hdr.try_lock(v) {
                continue;
            }
            let nk = leaf_ref.nkeys.load(Ordering::Relaxed);
            let mut hit = None;
            for i in 0..nk {
                let kptr = leaf_ref.keys[i].load(Ordering::Relaxed);
                let kb = unsafe { (*kptr).bytes.as_ref() };
                if kb == key {
                    hit = Some((i, kptr));
                    break;
                }
            }
            let Some((pos, kptr)) = hit else {
                leaf_ref.hdr.unlock_unchanged(v);
                return None;
            };
            let val = leaf_ref.vals[pos].load(Ordering::Relaxed);
            for i in pos..nk - 1 {
                let kp = leaf_ref.keys[i + 1].load(Ordering::Relaxed);
                let vv = leaf_ref.vals[i + 1].load(Ordering::Relaxed);
                leaf_ref.keys[i].store(kp, Ordering::Relaxed);
                leaf_ref.vals[i].store(vv, Ordering::Relaxed);
            }
            leaf_ref.keys[nk - 1].store(std::ptr::null_mut(), Ordering::Relaxed);
            leaf_ref.nkeys.store(nk - 1, Ordering::Release);
            leaf_ref.hdr.unlock();
            // SAFETY: kptr is unlinked from the tree and uniquely owned.
            unsafe { g.defer_drop(kptr) };
            return Some(val);
        }
    }

    /// Ascending range scan over `[low, high]` (both inclusive).
    ///
    /// `on_leaf` fires once per leaf visited (including leaves that
    /// contribute no items) — the caller's node set; `on_item` receives
    /// each key/value and may stop the scan.
    pub fn scan(
        &self,
        _g: &Guard<'_>,
        low: &[u8],
        high: &[u8],
        mut on_leaf: impl FnMut(LeafSnapshot),
        mut on_item: impl FnMut(&[u8], u64) -> ScanControl,
    ) {
        let mut resume: Vec<u8> = low.to_vec();
        'restart: loop {
            let Some((mut leaf, mut v)) = self.find_leaf(&resume) else { continue };
            loop {
                let leaf_ref = unsafe { &*leaf };
                let nk = leaf_ref.nkeys.load(Ordering::Acquire);
                if nk > MAX_KEYS {
                    continue 'restart;
                }
                // Collect matching entries optimistically.
                let mut items: Vec<(*mut KeyBuf, u64)> = Vec::with_capacity(nk);
                let mut saw_past_high = false;
                let mut ok = true;
                for i in 0..nk {
                    let kptr = leaf_ref.keys[i].load(Ordering::Acquire);
                    if kptr.is_null() {
                        ok = false;
                        break;
                    }
                    let kb = unsafe { (*kptr).bytes.as_ref() };
                    if kb > high {
                        saw_past_high = true;
                        break;
                    }
                    if kb >= resume.as_slice() {
                        items.push((kptr, leaf_ref.vals[i].load(Ordering::Acquire)));
                    }
                }
                let next = leaf_ref.next.load(Ordering::Acquire);
                if !ok || !leaf_ref.hdr.check(v) {
                    continue 'restart;
                }
                on_leaf(LeafSnapshot { leaf: leaf.cast(), version: v });
                for (kptr, val) in &items {
                    // SAFETY: validated above; buffers survive under the
                    // caller's epoch guard.
                    let kb = unsafe { (*(*kptr)).bytes.as_ref() };
                    if on_item(kb, *val) == ScanControl::Stop {
                        return;
                    }
                }
                if let Some((kptr, _)) = items.last() {
                    // Resume strictly after the last delivered key.
                    let kb = unsafe { (*(*kptr)).bytes.as_ref() };
                    resume.clear();
                    resume.extend_from_slice(kb);
                    resume.push(0);
                }
                if saw_past_high || next.is_null() {
                    return;
                }
                let next_v = unsafe { (*next).hdr.read_lock() };
                leaf = next;
                v = next_v;
            }
        }
    }

    /// Re-check a node-set entry: true iff the leaf's version is
    /// unchanged (and it is not currently locked by a writer).
    pub fn validate(&self, snap: &LeafSnapshot) -> bool {
        let hdr = unsafe { &*snap.leaf };
        hdr.stable_version() == Some(snap.version)
    }

    /// Re-stamp a node-set entry with the leaf's current stable version.
    ///
    /// Transactions call this on their node set right after one of their
    /// *own* inserts bumped a recorded leaf, so self-inflicted version
    /// changes don't read as phantoms at validation (Silo attributes its
    /// own structural changes the same way).
    pub fn refresh_snapshot(&self, snap: &mut LeafSnapshot) {
        let hdr = unsafe { &*snap.leaf };
        snap.version = hdr.read_lock();
    }

    /// The root and a stable version of it: where every descent starts.
    ///
    /// A root split publishes the new root *before* it unlocks the old
    /// one. A descent that loaded the old pointer and then waited out the
    /// lock would hold a valid version of what is now only the left half
    /// of the tree, and route every key at or above the new separator
    /// into the wrong subtree — an insert lands in a leaf no lookup of
    /// that key will visit. So the pointer is read again once the version
    /// is in hand; a split after that has to lock this node, which the
    /// descent's own version checks catch.
    fn stable_root(&self) -> (*mut NodeHdr, u64) {
        loop {
            let node = self.root.load(Ordering::Acquire);
            let v = unsafe { (*node).read_lock() };
            if self.root.load(Ordering::Acquire) == node {
                return (node, v);
            }
        }
    }

    /// Optimistic descent to the leaf that would contain `key`.
    /// Returns `None` to signal a restart.
    fn find_leaf(&self, key: &[u8]) -> Option<(*mut LeafNode, u64)> {
        let (mut node, mut v) = self.stable_root();
        loop {
            let hdr = unsafe { &*node };
            if hdr.is_leaf {
                return Some((node.cast(), v));
            }
            let inner: *const InnerNode = node.cast();
            let inner_ref = unsafe { &*inner };
            let nk = inner_ref.nkeys.load(Ordering::Acquire);
            if nk > MAX_KEYS {
                return None;
            }
            let idx = Self::child_index(inner_ref, nk, key)?;
            let child = inner_ref.children[idx].load(Ordering::Acquire);
            if child.is_null() {
                return None;
            }
            let cv = unsafe { (*child).read_lock() };
            if !hdr.check(v) {
                return None;
            }
            node = child;
            v = cv;
        }
    }

    /// Index of the child to descend into: the first separator greater
    /// than `key`, else the last child. `None` on a torn read.
    fn child_index(inner: &InnerNode, nk: usize, key: &[u8]) -> Option<usize> {
        for i in 0..nk {
            let kptr = inner.keys[i].load(Ordering::Acquire);
            if kptr.is_null() {
                return None;
            }
            let kb = unsafe { (*kptr).bytes.as_ref() };
            if key < kb {
                return Some(i);
            }
        }
        Some(nk)
    }

    /// Split a full node (leaf or inner). `parent` is null when `node` is
    /// the root. Takes both locks (validating the observed versions),
    /// performs the split, and returns; the caller restarts its descent.
    fn split_node(
        &self,
        parent: *mut InnerNode,
        pv: u64,
        node: *mut NodeHdr,
        v: u64,
        _g: &Guard<'_>,
    ) {
        unsafe {
            if parent.is_null() {
                // Root split: lock the root, hang it under a fresh root.
                if !(*node).try_lock(v) {
                    return;
                }
                if self.root.load(Ordering::Acquire) != node {
                    (*node).unlock_unchanged(v);
                    return;
                }
                let (sep, right) = self.do_split(node);
                let new_root = InnerNode::alloc();
                (*new_root).keys[0].store(sep, Ordering::Relaxed);
                (*new_root).children[0].store(node, Ordering::Relaxed);
                (*new_root).children[1].store(right, Ordering::Relaxed);
                (*new_root).nkeys.store(1, Ordering::Release);
                self.root.store(InnerNode::as_hdr(new_root), Ordering::Release);
                (*node).unlock();
            } else {
                if !(*parent).hdr.try_lock(pv) {
                    return;
                }
                if !(*node).try_lock(v) {
                    (*parent).hdr.unlock_unchanged(pv);
                    return;
                }
                debug_assert!(
                    (*parent).nkeys.load(Ordering::Relaxed) < MAX_KEYS,
                    "eager splitting keeps parents non-full"
                );
                let (sep, right) = self.do_split(node);
                Self::parent_insert(&*parent, sep, right);
                (*node).unlock();
                (*parent).hdr.unlock();
            }
        }
    }

    /// Move the upper half of `node` into a fresh right sibling; returns
    /// the separator key (owned by the parent) and the new node.
    ///
    /// # Safety
    /// `node` must be write-locked by the caller.
    unsafe fn do_split(&self, node: *mut NodeHdr) -> (*mut KeyBuf, *mut NodeHdr) {
        unsafe {
            if (*node).is_leaf {
                let left: *mut LeafNode = node.cast();
                let nk = (*left).nkeys.load(Ordering::Relaxed);
                let half = nk / 2;
                let right = LeafNode::alloc();
                for i in half..nk {
                    let kp = (*left).keys[i].load(Ordering::Relaxed);
                    let vv = (*left).vals[i].load(Ordering::Relaxed);
                    (*right).keys[i - half].store(kp, Ordering::Relaxed);
                    (*right).vals[i - half].store(vv, Ordering::Relaxed);
                    // Clear the stale slot so lagging readers fail fast.
                    (*left).keys[i].store(std::ptr::null_mut(), Ordering::Relaxed);
                }
                (*right).nkeys.store(nk - half, Ordering::Relaxed);
                (*right).next.store((*left).next.load(Ordering::Relaxed), Ordering::Relaxed);
                (*left).next.store(right, Ordering::Release);
                (*left).nkeys.store(half, Ordering::Release);
                // The separator is a *copy* of the right node's first key.
                let first = (*right).keys[0].load(Ordering::Relaxed);
                let sep = KeyBuf::alloc((*first).bytes.as_ref());
                (sep, LeafNode::as_hdr(right))
            } else {
                let left: *mut InnerNode = node.cast();
                let nk = (*left).nkeys.load(Ordering::Relaxed);
                let mid = nk / 2;
                let right = InnerNode::alloc();
                // The middle separator moves up to the parent.
                let sep = (*left).keys[mid].load(Ordering::Relaxed);
                for i in mid + 1..nk {
                    let kp = (*left).keys[i].load(Ordering::Relaxed);
                    (*right).keys[i - mid - 1].store(kp, Ordering::Relaxed);
                    (*left).keys[i].store(std::ptr::null_mut(), Ordering::Relaxed);
                }
                (*left).keys[mid].store(std::ptr::null_mut(), Ordering::Relaxed);
                for i in mid + 1..=nk {
                    let cp = (*left).children[i].load(Ordering::Relaxed);
                    (*right).children[i - mid - 1].store(cp, Ordering::Relaxed);
                    (*left).children[i].store(std::ptr::null_mut(), Ordering::Relaxed);
                }
                (*right).nkeys.store(nk - mid - 1, Ordering::Relaxed);
                (*left).nkeys.store(mid, Ordering::Release);
                (sep, InnerNode::as_hdr(right))
            }
        }
    }

    /// Insert `(sep, right)` into a locked, non-full parent.
    fn parent_insert(parent: &InnerNode, sep: *mut KeyBuf, right: *mut NodeHdr) {
        let nk = parent.nkeys.load(Ordering::Relaxed);
        let sep_bytes = unsafe { (*sep).bytes.as_ref() };
        let mut pos = nk;
        for i in 0..nk {
            let kptr = parent.keys[i].load(Ordering::Relaxed);
            let kb = unsafe { (*kptr).bytes.as_ref() };
            if sep_bytes < kb {
                pos = i;
                break;
            }
        }
        let mut i = nk;
        while i > pos {
            let kp = parent.keys[i - 1].load(Ordering::Relaxed);
            parent.keys[i].store(kp, Ordering::Relaxed);
            let cp = parent.children[i].load(Ordering::Relaxed);
            parent.children[i + 1].store(cp, Ordering::Relaxed);
            i -= 1;
        }
        parent.keys[pos].store(sep, Ordering::Relaxed);
        parent.children[pos + 1].store(right, Ordering::Relaxed);
        parent.nkeys.store(nk + 1, Ordering::Release);
    }
}

impl Drop for BTree {
    fn drop(&mut self) {
        // Single-threaded teardown: free every node and key buffer.
        unsafe fn free_node(node: *mut NodeHdr) {
            unsafe {
                if (*node).is_leaf {
                    let leaf: *mut LeafNode = node.cast();
                    let nk = (*leaf).nkeys.load(Ordering::Relaxed);
                    for i in 0..nk {
                        let kp = (*leaf).keys[i].load(Ordering::Relaxed);
                        if !kp.is_null() {
                            drop(Box::from_raw(kp));
                        }
                    }
                    drop(Box::from_raw(leaf));
                } else {
                    let inner: *mut InnerNode = node.cast();
                    let nk = (*inner).nkeys.load(Ordering::Relaxed);
                    for i in 0..nk {
                        let kp = (*inner).keys[i].load(Ordering::Relaxed);
                        if !kp.is_null() {
                            drop(Box::from_raw(kp));
                        }
                    }
                    for i in 0..=nk {
                        let cp = (*inner).children[i].load(Ordering::Relaxed);
                        if !cp.is_null() {
                            free_node(cp);
                        }
                    }
                    drop(Box::from_raw(inner));
                }
            }
        }
        let root = self.root.load(Ordering::Relaxed);
        if !root.is_null() {
            unsafe { free_node(root) };
        }
    }
}
