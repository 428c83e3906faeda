//! ERMIA's physical storage layer (paper §3.2, §3.5).
//!
//! Three pieces live here:
//!
//! * [`OidArray`] — the latch-free indirection arrays. Every logical
//!   object (database record) is identified by an OID mapping to a slot
//!   holding a pointer to its version chain. A single compare-and-swap
//!   against the slot installs a new version; an uncommitted head version
//!   acts as a write lock, making write-write conflicts easy to detect.
//! * [`Version`] — the singly-linked version chain nodes, each stamped
//!   with a [`Stamp`](ermia_common::Stamp) (the creator's TID while in
//!   flight, the commit LSN after post-commit) plus the SSN η/π stamps.
//! * [`TidManager`] — the fixed-capacity transaction context table.
//!   TIDs combine a slot index with a generation, and inquiries about a
//!   TID-stamped version have exactly the paper's three outcomes:
//!   in-flight, ended (with the end stamp), or stale generation (caller
//!   re-reads the version, which is then guaranteed to carry an LSN).
//!
//! The [`gc`] module implements the garbage collector, which removes
//! "versions that are not needed by any transaction" and retires them
//! through the epoch manager; the engine's epoch tick runs its pass. Unlike the paper's it does not go over
//! all indirection arrays: the sites that supersede a version hand its
//! chain to a [`RetireQueue`], and the collector visits only those.

pub mod gc;
pub mod oid_array;
pub mod tid;
pub mod version;

pub use gc::{Collector, GcStats, RetireQueue, Retired};
pub use oid_array::OidArray;
pub use tid::{Home, TidManager, TidStatus, TxContext};
pub use version::{defer_release, Version, VersionCache, VersionPool};

#[cfg(test)]
mod tests;
