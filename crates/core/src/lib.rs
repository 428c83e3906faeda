//! ERMIA: a memory-optimized OLTP engine for heterogeneous workloads.
//!
//! Reproduction of *ERMIA: Fast Memory-Optimized Database System for
//! Heterogeneous Workloads* (Kim, Wang, Johnson, Pandis — SIGMOD 2016).
//!
//! The engine is designed around three physical-layer pillars:
//!
//! * **latch-free indirection arrays** ([`ermia_storage::OidArray`]) —
//!   one CAS installs a new version; an uncommitted head acts as a write
//!   lock, so write-write conflicts are detected on every update (early
//!   abort of doomed transactions);
//! * **a scalable centralized log** ([`ermia_log::LogManager`]) — one
//!   global `fetch_add` per committing transaction yields both a totally
//!   ordered commit timestamp and the reserved log space;
//! * **epoch-based resource management** ([`ermia_epoch::EpochManager`])
//!   — one unified manager, where the paper has three timelines (GC, RCU,
//!   TID), recycles versions, tree memory and transaction contexts
//!   without reader-side locking.
//!
//! Concurrency control is **snapshot isolation** (§3.6.1): readers and
//! writers never block each other, write-write conflicts follow the
//! first-updater-wins rule, and visibility is decided by comparing the
//! reader's begin LSN with version creation stamps. Serializability is
//! available on demand by overlaying the **Serial Safety Net**
//! ([SSN], §3.6.2), a cheap certifier that tracks each transaction's
//! exclusion window (η, π) and aborts the transaction iff committing it
//! might close a dependency cycle. Phantoms are prevented with Silo-style
//! tree-version (node set) validation.
//!
//! [SSN]: https://dl.acm.org/doi/10.1145/2771937.2771949
//!
//! # Quickstart
//!
//! ```
//! use ermia::{Database, DbConfig, IsolationLevel};
//!
//! let db = Database::open(DbConfig::in_memory()).unwrap();
//! let accounts = db.create_table("accounts");
//! let mut worker = db.register_worker();
//!
//! // Write.
//! let mut tx = worker.begin(IsolationLevel::Serializable);
//! tx.insert(accounts, b"alice", b"100").unwrap();
//! tx.insert(accounts, b"bob", b"250").unwrap();
//! tx.commit().unwrap();
//!
//! // Read back.
//! let mut tx = worker.begin(IsolationLevel::Serializable);
//! let balance = tx.read(accounts, b"alice", |v| v.to_vec()).unwrap();
//! assert_eq!(balance.as_deref(), Some(&b"100"[..]));
//! tx.commit().unwrap();
//! ```

mod config;
mod database;
mod metrics;
mod pool;
mod recovery;
mod shard;
mod transaction;
mod worker;

pub use config::{DbConfig, IsolationLevel};
pub use database::{Database, DbState, IndexInfo, LogRetention, NodeRole, Table};
pub use pool::{PooledWorker, RegisterWorker, WorkerPool};
pub use recovery::{InDoubtTxn, LogApplier, RecoveryOutcome, RecoveryStats, VerdictSet};
pub use shard::{
    shard_of_key, DeferredCommit, IndexRouting, ShardPolicy, ShardRecoveryStats, ShardedDb,
    ShardedTransaction, ShardedWorker, StagedCommit,
};
pub use transaction::{CommitToken, Transaction};
pub use worker::Worker;

pub use ermia_storage::GcStats;

pub use ermia_common::{AbortReason, IndexId, KeyWriter, Lsn, OpResult, TableId, TxResult};

#[cfg(test)]
mod tests;
