//! Shared primitive types for the ERMIA reproduction.
//!
//! This crate holds the vocabulary types every other crate speaks:
//! log sequence numbers ([`Lsn`]) with the paper's segmented encoding,
//! object/table/transaction identifiers ([`Oid`], [`TableId`], [`Tid`]),
//! creation-stamp words ([`Stamp`]) that hold either an LSN or a TID,
//! the transaction abort taxonomy ([`AbortReason`]), and order-preserving
//! key encoding ([`KeyWriter`]) — plus the small utilities every crate
//! would otherwise copy: [`CachePadded`], [`Region`] (zero-on-demand
//! memory for capacity-sized tables), the checksums ([`crc`]), the one
//! seeded generator ([`rng`]) and, for tests, [`TestDir`].
//!
//! Nothing in here allocates on hot paths or takes locks; the types are
//! plain newtypes over machine words so they can live inside atomics.

pub mod crc;
pub mod error;
pub mod ids;
pub mod key;
pub mod lsn;
mod pad;
mod region;
pub mod rng;
pub mod stamp;
mod testdir;

pub use error::{AbortReason, LogError, OpResult, TxResult};
pub use ids::{IndexId, Oid, TableId, Tid};
pub use key::{decode_u32_at, decode_u64_at, KeyWriter};
pub use lsn::Lsn;
pub use pad::CachePadded;
pub use region::{Region, Zeroable};
pub use stamp::Stamp;
pub use testdir::TestDir;
