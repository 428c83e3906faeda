//! Worker threads: per-thread engine state.
//!
//! When a transaction enters the system it joins the epoch-based
//! resource manager (§3.1 *Initialization*; the paper's three timescales
//! share one unified timeline here). A [`Worker`] holds the thread's
//! registration plus reusable scratch buffers — the capacity of the
//! transaction's read set, write set, node set and key arena, and the
//! version cache, live here and are recycled across transactions, so
//! beginning and committing a transaction is allocation-free in the
//! steady state. A transaction is a value that takes a worker per
//! operation (see [`crate::transaction`]): the worker's epoch handle
//! pins for that operation only.

use std::sync::Arc;

use ermia_epoch::EpochHandle;
use ermia_index::{BTree, LeafSnapshot};
use ermia_storage::{Home, Retired, Version, VersionCache};
use ermia_telemetry::{Slab, SpanRing};

use crate::database::{Database, Table};
use crate::metrics::TXN_FAMILY;
use crate::transaction::{SecondaryEntry, WriteEntry};

/// Per-thread handle for running transactions against a [`Database`].
pub struct Worker {
    pub(crate) db: Database,
    pub(crate) epoch_handle: EpochHandle,
    pub(crate) scratch: Scratch,
}

/// This worker's share of the telemetry layer: a [`TXN_FAMILY`] slab for
/// outcome counters and the chain-length histogram, plus a record ring
/// for its commit, abort and log-poison events. Every hot-path touch is
/// one relaxed increment (or one seqlock-protected slot write for a
/// record) against memory only this thread writes.
pub(crate) struct WorkerTelemetry {
    pub slab: Arc<Slab>,
    pub ring: Arc<SpanRing>,
}

/// Mutable per-thread scratch reused across transactions.
///
/// The transaction working sets and key arena are *taken* out of here at
/// begin (`std::mem::take` — a pointer move, no allocation), owned by the
/// transaction while it is open, then cleared and handed to the scratch
/// of the worker that ends it, so their capacity survives. Key bytes for
/// the write set are bump-copied into the arena, replacing a per-write
/// boxed copy.
pub(crate) struct Scratch {
    /// This worker's TID-table stretch, leased until it drops, and the
    /// probe cursor inside it.
    pub home: Home,
    pub tid_hint: usize,
    /// Txn outcome counters + record ring.
    pub telemetry: WorkerTelemetry,
    pub reads: Vec<*mut Version>,
    pub writes: Vec<WriteEntry>,
    pub secondary: Vec<SecondaryEntry>,
    pub node_set: Vec<(Arc<BTree>, LeafSnapshot)>,
    /// Reused index scratch for `valid_node_entries`.
    pub valid_idx: Vec<usize>,
    /// Bump arena backing the write/secondary sets' key bytes.
    pub keys: Vec<u8>,
    /// Per-worker cache over the database's shared version pool.
    pub versions: VersionCache,
    /// The chains a committing transaction stacked a version on, gathered
    /// during post-commit and handed to the collector in one call.
    pub retired: Vec<Retired>,
    /// This worker's view of the catalog's tables, by id, each filled on
    /// first use. Tables are never dropped, so a row operation takes no
    /// catalog lock and clones no `Arc`: write entries point into here.
    pub tables: Vec<Option<Arc<Table>>>,
}

// SAFETY: the sets here are empty and hold no pointer: a transaction
// takes them at begin and hands them back cleared. The version cache holds only quiesced nodes it exclusively owns, and
// the retire buffer is empty outside a commit. Tables are `Sync`, and the
// view owns an `Arc` to each. Moving the Worker to another thread between
// operations therefore transfers sole ownership.
unsafe impl Send for Scratch {}

impl Worker {
    pub(crate) fn new(db: Database) -> Worker {
        let epoch_handle = db.inner.epoch.register();
        let home = db.inner.tid.home();
        let versions = VersionCache::new(Arc::clone(&db.inner.versions));
        let registry = db.inner.telemetry.registry();
        let telemetry = WorkerTelemetry {
            slab: registry.register_slab(&TXN_FAMILY),
            ring: db.inner.telemetry.tracer().ring(),
        };
        Worker {
            db,
            epoch_handle,
            scratch: Scratch {
                home,
                tid_hint: home.slot,
                telemetry,
                reads: Vec::new(),
                writes: Vec::new(),
                secondary: Vec::new(),
                node_set: Vec::new(),
                valid_idx: Vec::new(),
                keys: Vec::new(),
                versions,
                retired: Vec::new(),
                tables: Vec::new(),
            },
        }
    }

    /// Versions served from the worker's reuse cache instead of the
    /// allocator (steady-state write paths should climb this).
    pub fn versions_reused(&self) -> u64 {
        self.scratch.versions.reused()
    }

    /// The owning database.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Retire this worker's telemetry: counts fold into the registry's
        // retained aggregate (so database-wide totals stay complete) and
        // the live sets stop growing with every worker ever created.
        let registry = self.db.inner.telemetry.registry();
        let t = &self.scratch.telemetry;
        registry.retire_slab(&TXN_FAMILY, &t.slab);
        self.db.inner.telemetry.tracer().retire(&t.ring);
        self.db.inner.tid.vacate(self.scratch.home);
    }
}
