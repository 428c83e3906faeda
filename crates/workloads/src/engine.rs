//! The engine abstraction: one workload codebase, three systems.

use ermia_common::{IndexId, OpResult, TableId, TxResult};

/// Whether the application declares the transaction read-only. ERMIA
/// ignores the hint (snapshots make every reader consistent); Silo uses
/// it to route the transaction to its read-only snapshot mechanism.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnProfile {
    ReadWrite,
    ReadOnly,
}

/// A database engine under benchmark.
pub trait Engine: Send + Sync + Clone + 'static {
    type Worker: EngineWorker;

    fn name(&self) -> &'static str;
    fn create_table(&self, name: &str) -> TableId;
    fn create_secondary_index(&self, table: TableId, name: &str) -> IndexId;
    fn primary_index(&self, table: TableId) -> IndexId;
    fn register_worker(&self) -> Self::Worker;
    /// (commits, aborts) counted by the engine.
    fn txn_counts(&self) -> (u64, u64);
}

/// Per-thread handle.
pub trait EngineWorker: Send {
    type Txn<'a>: EngineTxn
    where
        Self: 'a;
    fn begin(&mut self, hint: TxnProfile) -> Self::Txn<'_>;
}

/// The uniform transaction surface the workloads drive.
pub trait EngineTxn {
    /// Point read by primary key; `out` receives the payload if present.
    fn read(&mut self, table: TableId, key: &[u8], out: &mut dyn FnMut(&[u8])) -> OpResult<bool>;
    /// Point read through a secondary index.
    fn read_secondary(
        &mut self,
        index: IndexId,
        key: &[u8],
        out: &mut dyn FnMut(&[u8]),
    ) -> OpResult<bool>;
    fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool>;
    /// Insert; returns an engine-specific record handle for secondary
    /// index maintenance.
    fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<u64>;
    fn insert_secondary(&mut self, index: IndexId, key: &[u8], handle: u64) -> OpResult<()>;
    fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool>;
    /// Ascending range scan, inclusive bounds; `f` returns false to stop.
    fn scan(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize>;
    fn commit(self) -> TxResult<()>;
    fn abort(self);
}

// ---------------------------------------------------------------------
// ERMIA adapter (SI or SSN, chosen at construction)
// ---------------------------------------------------------------------

/// Shard placement policy for a workload table, by name.
///
/// TPC-C keys lead with the 4-byte big-endian warehouse id, so hashing
/// that prefix keeps a warehouse's rows (and its single-warehouse
/// transactions) on one shard — the paper's partitioning. The read-only
/// catalog tables (`item`, `supplier`) replicate so NewOrder's item
/// lookups never leave the home shard.
pub fn table_policy(name: &str) -> ermia::ShardPolicy {
    match name {
        "tpcc.item" | "tpcc.supplier" => ermia::ShardPolicy::Replicated,
        n if n.starts_with("tpcc.") => ermia::ShardPolicy::Hash { prefix: Some(4) },
        _ => ermia::ShardPolicy::Hash { prefix: None },
    }
}

/// Secondary-index routing, by name. `customer_name` and
/// `order_customer` keys lead with the owner row's warehouse id, so the
/// entry colocates with its row; `stock_supplier` leads with the
/// supplier id and must probe.
pub fn index_routing(name: &str) -> ermia::IndexRouting {
    match name {
        "tpcc.customer_name" | "tpcc.order_customer" => ermia::IndexRouting::OwnerPrefix(4),
        _ => ermia::IndexRouting::Probe,
    }
}

/// ERMIA under a fixed isolation level (ERMIA-SI / ERMIA-SSN), over any
/// number of shards: at one (`ShardedDb::open(cfg, 1)`, the paper's
/// figures) routing is constant and commit is the single-database
/// commit; with more there are N independent log/epoch/TID domains
/// behind one namespace and cross-shard transactions commit via 2PC.
#[derive(Clone)]
pub struct ErmiaEngine {
    pub db: ermia::ShardedDb,
    pub isolation: ermia::IsolationLevel,
    name: &'static str,
}

impl ErmiaEngine {
    pub fn si(db: ermia::ShardedDb) -> ErmiaEngine {
        ErmiaEngine { db, isolation: ermia::IsolationLevel::Snapshot, name: "ERMIA-SI" }
    }

    pub fn ssn(db: ermia::ShardedDb) -> ErmiaEngine {
        ErmiaEngine { db, isolation: ermia::IsolationLevel::Serializable, name: "ERMIA-SSN" }
    }
}

impl Engine for ErmiaEngine {
    type Worker = ErmiaWorkerAdapter;

    fn name(&self) -> &'static str {
        self.name
    }

    fn create_table(&self, name: &str) -> TableId {
        self.db.create_table_with_policy(name, table_policy(name))
    }

    fn create_secondary_index(&self, table: TableId, name: &str) -> IndexId {
        self.db.create_secondary_index(table, name, index_routing(name))
    }

    fn primary_index(&self, table: TableId) -> IndexId {
        self.db.primary_index(table)
    }

    fn register_worker(&self) -> ErmiaWorkerAdapter {
        ErmiaWorkerAdapter { worker: self.db.register_worker(), isolation: self.isolation }
    }

    fn txn_counts(&self) -> (u64, u64) {
        self.db.txn_counts()
    }
}

pub struct ErmiaWorkerAdapter {
    worker: ermia::ShardedWorker,
    isolation: ermia::IsolationLevel,
}

impl EngineWorker for ErmiaWorkerAdapter {
    type Txn<'a> = ermia::ShardedTransaction<'a>;

    fn begin(&mut self, _hint: TxnProfile) -> ermia::ShardedTransaction<'_> {
        // ERMIA needs no read-only declaration: SI serves all readers
        // from consistent snapshots.
        self.worker.begin(self.isolation)
    }
}

impl EngineTxn for ermia::ShardedTransaction<'_> {
    fn read(&mut self, table: TableId, key: &[u8], out: &mut dyn FnMut(&[u8])) -> OpResult<bool> {
        ermia::ShardedTransaction::read(self, table, key, |v| out(v)).map(|o| o.is_some())
    }

    fn read_secondary(
        &mut self,
        index: IndexId,
        key: &[u8],
        out: &mut dyn FnMut(&[u8]),
    ) -> OpResult<bool> {
        ermia::ShardedTransaction::read_secondary(self, index, key, |v| out(v)).map(|o| o.is_some())
    }

    fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool> {
        ermia::ShardedTransaction::update(self, table, key, value)
    }

    fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<u64> {
        ermia::ShardedTransaction::insert(self, table, key, value)
    }

    fn insert_secondary(&mut self, index: IndexId, key: &[u8], handle: u64) -> OpResult<()> {
        ermia::ShardedTransaction::insert_secondary(self, index, key, handle)
    }

    fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool> {
        ermia::ShardedTransaction::delete(self, table, key)
    }

    fn scan(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        ermia::ShardedTransaction::scan(self, index, low, high, limit, |k, v| f(k, v))
    }

    fn commit(self) -> TxResult<()> {
        ermia::ShardedTransaction::commit(self).map(|_| ())
    }

    fn abort(self) {
        ermia::ShardedTransaction::abort(self)
    }
}

// ---------------------------------------------------------------------
// Silo adapter
// ---------------------------------------------------------------------

/// Silo-OCC (read-only snapshots per its configuration).
#[derive(Clone)]
pub struct SiloEngine {
    pub db: silo_occ::SiloDb,
}

impl SiloEngine {
    pub fn new(db: silo_occ::SiloDb) -> SiloEngine {
        SiloEngine { db }
    }
}

impl Engine for SiloEngine {
    type Worker = silo_occ::SiloWorker;

    fn name(&self) -> &'static str {
        "Silo-OCC"
    }

    fn create_table(&self, name: &str) -> TableId {
        self.db.create_table(name)
    }

    fn create_secondary_index(&self, table: TableId, name: &str) -> IndexId {
        self.db.create_secondary_index(table, name)
    }

    fn primary_index(&self, table: TableId) -> IndexId {
        self.db.primary_index(table)
    }

    fn register_worker(&self) -> silo_occ::SiloWorker {
        self.db.register_worker()
    }

    fn txn_counts(&self) -> (u64, u64) {
        self.db.txn_counts()
    }
}

impl EngineWorker for silo_occ::SiloWorker {
    type Txn<'a> = silo_occ::SiloTxn<'a>;

    fn begin(&mut self, hint: TxnProfile) -> silo_occ::SiloTxn<'_> {
        let mode = match hint {
            TxnProfile::ReadWrite => silo_occ::TxnMode::ReadWrite,
            TxnProfile::ReadOnly => silo_occ::TxnMode::ReadOnly,
        };
        silo_occ::SiloWorker::begin(self, mode)
    }
}

impl EngineTxn for silo_occ::SiloTxn<'_> {
    fn read(&mut self, table: TableId, key: &[u8], out: &mut dyn FnMut(&[u8])) -> OpResult<bool> {
        silo_occ::SiloTxn::read(self, table, key, |v| out(v)).map(|o| o.is_some())
    }

    fn read_secondary(
        &mut self,
        index: IndexId,
        key: &[u8],
        out: &mut dyn FnMut(&[u8]),
    ) -> OpResult<bool> {
        silo_occ::SiloTxn::read_secondary(self, index, key, |v| out(v)).map(|o| o.is_some())
    }

    fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool> {
        silo_occ::SiloTxn::update(self, table, key, value)
    }

    fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<u64> {
        silo_occ::SiloTxn::insert(self, table, key, value)
    }

    fn insert_secondary(&mut self, index: IndexId, key: &[u8], handle: u64) -> OpResult<()> {
        silo_occ::SiloTxn::insert_secondary(self, index, key, handle)
    }

    fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool> {
        silo_occ::SiloTxn::delete(self, table, key)
    }

    fn scan(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        silo_occ::SiloTxn::scan(self, index, low, high, limit, |k, v| f(k, v))
    }

    fn commit(self) -> TxResult<()> {
        silo_occ::SiloTxn::commit(self)
    }

    fn abort(self) {
        silo_occ::SiloTxn::abort(self)
    }
}
