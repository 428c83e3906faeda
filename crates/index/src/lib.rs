//! Concurrent ordered index: the Masstree substitute.
//!
//! ERMIA uses Masstree for indexing, as Silo does (§3.1). This crate
//! provides the two properties the engines rely on, with a different but
//! equivalent structure — a B+-tree with **optimistic lock coupling**:
//!
//! * **Lock-free reads, fine-grained writes.** Readers never take locks;
//!   they snapshot a node's version word, read optimistically, and
//!   validate the version afterwards, restarting on interference.
//!   Writers lock individual nodes via a CAS on the same version word.
//! * **Node versions for phantom protection.** Any insertion, deletion,
//!   or split of a leaf bumps its version. Transactions record
//!   `(leaf, version)` pairs for every leaf a scan (or failed point
//!   lookup) touches — the *node set* — and re-validate them at
//!   pre-commit, exactly the tree-version validation strategy ERMIA
//!   inherits from Silo (§3.6.2).
//!
//! The tree maps byte-string keys to `u64` values. In ERMIA the value is
//! an OID — "different from traditional designs which give access to data
//! in the leaf nodes, we store object IDs in the leaf level" (§3.1) — so
//! updates never touch the tree; in the Silo baseline it is a record
//! pointer, which is likewise stable across updates.
//!
//! Memory layout: a node's key slots carry the keys. A slot is the key's
//! first 16 bytes as two big-endian words plus a tagged word — the key's
//! length when the whole key fits the words (nothing on the heap, nothing
//! to retire when it is removed), or a pointer to one allocation holding
//! a longer key, followed only when the heads tie (`src/node.rs` has
//! the diagram and the ordering rule). A search orders the probe against
//! the node's own words — integer compares, binary search — so a lookup
//! of a short key touches the nodes on its path and nothing else, and a
//! scan hands such keys to its callback out of a stack buffer.
//!
//! Memory reclamation: a long key displaced by a removal is retired
//! through an [`ermia_epoch::EpochManager`]; readers hold an epoch guard
//! for the duration of an operation, so a pointer read from a slot is
//! always dereferenceable even if it lost its slot concurrently, and slot
//! words torn by a concurrent writer are thrown away by the version
//! check. Interior nodes are never freed while the tree lives (there are
//! no merges; empty leaves persist until the tree drops), which also
//! makes node-set handles stable without pinning. A split at the right
//! edge of the tree keeps the old node full (keys arriving in order —
//! every loader, and log replay — fill their leaves), any other split
//! halves.
//!
//! The append path: an insert first tries the rightmost leaf, through a
//! hint pointer every split of that leaf moves on. A key above the
//! leaf's last key goes into its next free slot — one version read, one
//! lock, no descent; anything else (a smaller key, an empty or full
//! leaf, a leaf no longer rightmost, a writer in the way) descends as
//! before. It is sound because leaves are never unlinked: the leaf with
//! no right sibling owns every key from its lower separator up, and its
//! last key is at or above that separator. Taking the lock validates
//! what was read before it, and the unlock bumps the version like any
//! insert, so a node set holding that leaf (a miss or a scan past the
//! last key) still sees the phantom.

mod node;
mod tree;

pub use tree::{BTree, InsertOutcome, LeafSnapshot, ScanControl, ScanEnd};

#[cfg(test)]
mod tests;
