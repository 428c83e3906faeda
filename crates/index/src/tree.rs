//! The optimistic-lock-coupling B+-tree.

use std::sync::atomic::{AtomicPtr, Ordering};

use ermia_epoch::Guard;

use crate::node::{InnerNode, LeafNode, NodeHdr, Probe, Words, INLINE_KEY, MAX_KEYS};

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

/// The upper end of a [`BTree::scan`]: a key, inclusive — `&[u8]`,
/// `&Vec<u8>`, `&[u8; N]` — or `None`, the end of the key space.
pub trait ScanEnd<'k> {
    fn key(self) -> Option<&'k [u8]>;
}

impl<'k, K: AsRef<[u8]> + ?Sized> ScanEnd<'k> for &'k K {
    fn key(self) -> Option<&'k [u8]> {
        Some(self.as_ref())
    }
}

impl<'k> ScanEnd<'k> for Option<&'k [u8]> {
    fn key(self) -> Option<&'k [u8]> {
        self
    }
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

/// A concurrent B+-tree from byte-string keys to `u64` values.
pub struct BTree {
    root: AtomicPtr<NodeHdr>,
    /// The rightmost leaf, or one that was: a hint for the append path
    /// ([`BTree::append`]), moved on by every split of the rightmost leaf.
    pub(crate) tail: AtomicPtr<LeafNode>,
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
        BTree { root: AtomicPtr::new(LeafNode::as_hdr(root)), tail: AtomicPtr::new(root) }
    }

    /// Point lookup. Also returns the leaf snapshot covering the key's
    /// position — needed even on a miss, so that a later insertion of
    /// this key by another transaction is caught as a phantom.
    pub fn get(&self, _g: &Guard<'_>, key: &[u8]) -> (Option<u64>, LeafSnapshot) {
        let probe = Probe::new(key);
        loop {
            let Some((leaf, v)) = self.find_leaf(&probe) else { continue };
            let leaf_ref = unsafe { &*leaf };
            let nk = leaf_ref.nkeys.load(Ordering::Acquire);
            if nk > MAX_KEYS {
                continue;
            }
            let (i, hit) = probe.search(&leaf_ref.keys, nk);
            let found = hit.then(|| leaf_ref.vals[i].load(Ordering::Relaxed));
            if !leaf_ref.hdr.check(v) {
                continue;
            }
            return (found, LeafSnapshot { leaf: leaf.cast(), version: v });
        }
    }

    /// Insert `key → val` if absent.
    pub fn insert(&self, _g: &Guard<'_>, key: &[u8], val: u64) -> InsertOutcome {
        let probe = Probe::new(key);
        if self.append(&probe, val) {
            return InsertOutcome::Inserted;
        }
        'restart: loop {
            let mut parent: *mut InnerNode = std::ptr::null_mut();
            let mut pv = 0u64;
            // Whether the descent took the last child all the way down: a
            // full node met there is split for appending (see `do_split`).
            let mut rightmost = true;
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
                        self.split_node(parent, pv, node, v, rightmost.then_some(&probe));
                        continue 'restart;
                    }
                    let idx = probe.upper_bound(&inner_ref.keys, nk);
                    let child = inner_ref.children[idx].load(Ordering::Acquire);
                    if child.is_null() {
                        continue 'restart;
                    }
                    let cv = unsafe { (*child).read_lock() };
                    if !hdr.check(v) {
                        continue 'restart;
                    }
                    rightmost &= idx == nk;
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
                        // A full leaf that already holds the key answers
                        // `Duplicate` without splitting for it.
                        let (i, hit) = probe.search(&leaf_ref.keys, nk);
                        let existing = leaf_ref.vals[i.min(MAX_KEYS - 1)].load(Ordering::Relaxed);
                        if !hdr.check(v) {
                            continue 'restart;
                        }
                        if hit {
                            return InsertOutcome::Duplicate(existing);
                        }
                        self.split_node(parent, pv, node, v, rightmost.then_some(&probe));
                        continue 'restart;
                    }
                    if !hdr.try_lock(v) {
                        continue 'restart;
                    }
                    // Locked: state is now stable.
                    let nk = leaf_ref.nkeys.load(Ordering::Relaxed);
                    debug_assert!(nk < MAX_KEYS);
                    let (pos, hit) = probe.search(&leaf_ref.keys, nk);
                    if hit {
                        let existing = leaf_ref.vals[pos].load(Ordering::Relaxed);
                        // No modification: release without a version bump
                        // so concurrent node sets stay valid.
                        hdr.unlock_unchanged(v);
                        return InsertOutcome::Duplicate(existing);
                    }
                    // Shift right and place the new entry.
                    for i in (pos..nk).rev() {
                        leaf_ref.keys[i + 1].store(leaf_ref.keys[i].load());
                        let vv = leaf_ref.vals[i].load(Ordering::Relaxed);
                        leaf_ref.vals[i + 1].store(vv, Ordering::Relaxed);
                    }
                    leaf_ref.keys[pos].store(probe.to_words());
                    leaf_ref.vals[pos].store(val, Ordering::Relaxed);
                    leaf_ref.nkeys.store(nk + 1, Ordering::Release);
                    hdr.unlock();
                    return InsertOutcome::Inserted;
                }
            }
        }
    }

    /// The append path: a key above every key of the rightmost leaf goes
    /// straight into that leaf's next free slot, with no descent. True
    /// if it did; false sends the caller down the tree (a key not past
    /// the last one, an empty or full leaf, a leaf no longer rightmost,
    /// or a writer in the way).
    ///
    /// Sound without the descent: a leaf whose `next` is null covers every
    /// key from its lower separator up, and its last key is at or above
    /// that separator, so a key past the last key belongs to it. The
    /// reads are optimistic and `try_lock(v)` validates them: it succeeds
    /// only if no writer touched the leaf since `v` was read (a split
    /// sets `next` under the same lock). The unlock bumps the version as
    /// any insert's does, so a node set that recorded this leaf — a miss
    /// or a scan past the last key — still fails validation.
    fn append(&self, probe: &Probe<'_>, val: u64) -> bool {
        // SAFETY: leaves are freed only when the tree drops.
        let leaf = unsafe { &*self.tail.load(Ordering::Acquire) };
        let v = leaf.hdr.read_lock();
        let nk = leaf.nkeys.load(Ordering::Acquire);
        if nk == 0
            || nk >= MAX_KEYS
            || !leaf.next.load(Ordering::Acquire).is_null()
            || probe.cmp(&leaf.keys[nk - 1]) != std::cmp::Ordering::Greater
            || !leaf.hdr.try_lock(v)
        {
            return false;
        }
        leaf.keys[nk].store(probe.to_words());
        leaf.vals[nk].store(val, Ordering::Relaxed);
        leaf.nkeys.store(nk + 1, Ordering::Release);
        leaf.hdr.unlock();
        true
    }

    /// Remove a key, returning its value if present. A key the slot held
    /// inline is simply gone; a long key's allocation is retired through
    /// `g`, never freed in place.
    pub fn remove(&self, g: &Guard<'_>, key: &[u8]) -> Option<u64> {
        let probe = Probe::new(key);
        loop {
            let Some((leaf, v)) = self.find_leaf(&probe) else { continue };
            let leaf_ref = unsafe { &*leaf };
            if !leaf_ref.hdr.try_lock(v) {
                continue;
            }
            let nk = leaf_ref.nkeys.load(Ordering::Relaxed);
            let (pos, hit) = probe.search(&leaf_ref.keys, nk);
            if !hit {
                leaf_ref.hdr.unlock_unchanged(v);
                return None;
            }
            let gone = leaf_ref.keys[pos].load();
            let val = leaf_ref.vals[pos].load(Ordering::Relaxed);
            for i in pos..nk - 1 {
                leaf_ref.keys[i].store(leaf_ref.keys[i + 1].load());
                let vv = leaf_ref.vals[i + 1].load(Ordering::Relaxed);
                leaf_ref.vals[i].store(vv, Ordering::Relaxed);
            }
            leaf_ref.keys[nk - 1].clear();
            leaf_ref.nkeys.store(nk - 1, Ordering::Release);
            leaf_ref.hdr.unlock();
            // SAFETY: the words are out of every live slot.
            unsafe { gone.retire(g) };
            return Some(val);
        }
    }

    /// Ascending range scan over `[low, high]` (both inclusive; a `high`
    /// of `None` runs to the last key).
    ///
    /// `on_leaf` fires once per leaf visited (including leaves that
    /// contribute no items) — the caller's node set; `on_item` receives
    /// each key/value and may stop the scan. The scan allocates nothing:
    /// a leaf's matching slots are copied to the stack, validated, and
    /// handed over from there (an inline key out of a 16-byte buffer).
    pub fn scan<'k>(
        &self,
        _g: &Guard<'_>,
        low: &[u8],
        high: impl ScanEnd<'k>,
        mut on_leaf: impl FnMut(LeafSnapshot),
        mut on_item: impl FnMut(&[u8], u64) -> ScanControl,
    ) {
        let high = high.key().map(Probe::new);
        // Where the scan (re)starts: at `low`, then strictly after the
        // last key delivered (a long key behind that probe stays readable
        // for the whole scan under the caller's guard).
        let mut resume = Probe::new(low);
        let mut delivered_any = false;
        let mut items = [(Words::ZERO, 0u64); MAX_KEYS];
        'restart: loop {
            let Some((mut leaf, mut v)) = self.find_leaf(&resume) else { continue };
            loop {
                let leaf_ref = unsafe { &*leaf };
                let nk = leaf_ref.nkeys.load(Ordering::Acquire);
                if nk > MAX_KEYS {
                    continue 'restart;
                }
                // Copy the matching entries optimistically.
                let (at, hit) = resume.search(&leaf_ref.keys, nk);
                let start = at + (hit && delivered_any) as usize;
                let end = high.as_ref().map_or(nk, |h| h.upper_bound(&leaf_ref.keys, nk));
                let n = end.saturating_sub(start);
                for (item, i) in items.iter_mut().zip(start..end) {
                    *item = (leaf_ref.keys[i].load(), leaf_ref.vals[i].load(Ordering::Relaxed));
                }
                let next = leaf_ref.next.load(Ordering::Acquire);
                if !leaf_ref.hdr.check(v) {
                    continue 'restart;
                }
                on_leaf(LeafSnapshot { leaf: leaf.cast(), version: v });
                let mut buf = [0u8; INLINE_KEY];
                for (words, val) in &items[..n] {
                    // SAFETY: validated above; a long key survives under
                    // the caller's epoch guard.
                    if on_item(unsafe { words.bytes(&mut buf) }, *val) == ScanControl::Stop {
                        return;
                    }
                }
                if n > 0 {
                    // SAFETY: as above.
                    resume = unsafe { Probe::of(&items[n - 1].0) };
                    delivered_any = true;
                }
                if end < nk || next.is_null() {
                    return;
                }
                let next_v = unsafe { (*next).hdr.read_lock() };
                leaf = next;
                v = next_v;
            }
        }
    }

    /// Leaves in the sibling chain (fill tests; quiescent tree only).
    #[cfg(test)]
    pub(crate) fn leaf_count(&self) -> usize {
        let (mut leaf, _) = self.find_leaf(&Probe::new(&[])).expect("quiescent");
        let mut n = 0;
        while !leaf.is_null() {
            n += 1;
            leaf = unsafe { (*leaf).next.load(Ordering::Acquire) };
        }
        n
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

    /// Optimistic descent to the leaf that would contain the probed key.
    /// Returns `None` to signal a restart.
    fn find_leaf(&self, probe: &Probe<'_>) -> Option<(*mut LeafNode, u64)> {
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
            // The child to descend into is the one before the first
            // separator greater than the key.
            let idx = probe.upper_bound(&inner_ref.keys, nk);
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

    /// Split a full node (leaf or inner). `parent` is null when `node` is
    /// the root. Takes both locks (validating the observed versions),
    /// performs the split, and returns; the caller restarts its descent.
    /// `append` is the key being inserted when the descent never left the
    /// right edge of the tree.
    fn split_node(
        &self,
        parent: *mut InnerNode,
        pv: u64,
        node: *mut NodeHdr,
        v: u64,
        append: Option<&Probe<'_>>,
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
                let (sep, right) = self.do_split(node, append);
                let new_root = InnerNode::alloc();
                (*new_root).keys[0].store(sep);
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
                let (sep, right) = self.do_split(node, append);
                Self::parent_insert(&*parent, sep, right);
                (*node).unlock();
                (*parent).hdr.unlock();
            }
        }
    }

    /// Move the upper half of `node` into a fresh right sibling; returns
    /// the separator (owned by the parent) and the new node.
    ///
    /// **Append-aware.** When the key that caused the split lies past the
    /// node's last key (`append`, see [`BTree::split_node`]), nothing is
    /// halved: a leaf stays full and the new, empty leaf opens at the
    /// incoming key; an inner node gives up only its last child. Keys
    /// loaded in ascending order therefore leave every leaf but the last
    /// full instead of half full. Any split point is a correct split —
    /// this one only decides the fill.
    ///
    /// # Safety
    /// `node` must be write-locked by the caller.
    unsafe fn do_split(
        &self,
        node: *mut NodeHdr,
        append: Option<&Probe<'_>>,
    ) -> (Words, *mut NodeHdr) {
        unsafe {
            if (*node).is_leaf {
                let left: *mut LeafNode = node.cast();
                let nk = (*left).nkeys.load(Ordering::Relaxed);
                let right = LeafNode::alloc();
                let appended =
                    append.filter(|p| p.cmp(&(*left).keys[nk - 1]) == std::cmp::Ordering::Greater);
                let half = if appended.is_some() { nk } else { nk / 2 };
                for i in half..nk {
                    (*right).keys[i - half].store((*left).keys[i].load());
                    let vv = (*left).vals[i].load(Ordering::Relaxed);
                    (*right).vals[i - half].store(vv, Ordering::Relaxed);
                    // Clear the stale slot so lagging readers fail fast.
                    (*left).keys[i].clear();
                }
                (*right).nkeys.store(nk - half, Ordering::Relaxed);
                let next = (*left).next.load(Ordering::Relaxed);
                if next.is_null() {
                    // The new leaf is the rightmost: move the append hint.
                    self.tail.store(right, Ordering::Release);
                }
                (*right).next.store(next, Ordering::Relaxed);
                (*left).next.store(right, Ordering::Release);
                (*left).nkeys.store(half, Ordering::Release);
                // The separator is the incoming key, or a *copy* of the
                // right node's first key.
                let sep = match appended {
                    Some(p) => p.to_words(),
                    None => Probe::of(&(*right).keys[0].load()).to_words(),
                };
                (sep, LeafNode::as_hdr(right))
            } else {
                let left: *mut InnerNode = node.cast();
                let nk = (*left).nkeys.load(Ordering::Relaxed);
                let appended = append
                    .is_some_and(|p| p.cmp(&(*left).keys[nk - 1]) != std::cmp::Ordering::Less);
                let mid = if appended { nk - 1 } else { nk / 2 };
                let right = InnerNode::alloc();
                // The middle separator moves up to the parent.
                let sep = (*left).keys[mid].load();
                for i in mid + 1..nk {
                    (*right).keys[i - mid - 1].store((*left).keys[i].load());
                    (*left).keys[i].clear();
                }
                (*left).keys[mid].clear();
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
    fn parent_insert(parent: &InnerNode, sep: Words, right: *mut NodeHdr) {
        let nk = parent.nkeys.load(Ordering::Relaxed);
        // SAFETY: `sep` is owned by this call until it is stored below.
        let pos = unsafe { Probe::of(&sep) }.upper_bound(&parent.keys, nk);
        for i in (pos..nk).rev() {
            parent.keys[i + 1].store(parent.keys[i].load());
            let cp = parent.children[i + 1].load(Ordering::Relaxed);
            parent.children[i + 2].store(cp, Ordering::Relaxed);
        }
        parent.keys[pos].store(sep);
        parent.children[pos + 1].store(right, Ordering::Relaxed);
        parent.nkeys.store(nk + 1, Ordering::Release);
    }
}

impl Drop for BTree {
    fn drop(&mut self) {
        // Single-threaded teardown: free every node and long key.
        unsafe fn free_node(node: *mut NodeHdr) {
            unsafe {
                if (*node).is_leaf {
                    let leaf: *mut LeafNode = node.cast();
                    let nk = (*leaf).nkeys.load(Ordering::Relaxed);
                    for slot in &(&(*leaf).keys)[..nk] {
                        slot.load().free();
                    }
                    drop(Box::from_raw(leaf));
                } else {
                    let inner: *mut InnerNode = node.cast();
                    let nk = (*inner).nkeys.load(Ordering::Relaxed);
                    for slot in &(&(*inner).keys)[..nk] {
                        slot.load().free();
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
