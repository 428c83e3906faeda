//! The Silo database: catalog, epoch advancement, snapshot epochs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use ermia_common::{IndexId, TableId};
use ermia_epoch::{EpochHandle, EpochManager, Ticker};
use ermia_index::BTree;

use crate::txn::{SiloTxn, TxnMode};

/// Configuration.
#[derive(Clone, Debug)]
pub struct SiloConfig {
    /// Global epoch advance interval (Silo uses 40 ms; we default lower
    /// so short benchmark runs cross several epochs).
    pub epoch_interval: Duration,
    /// Enable read-only snapshots ("for Silo, read-only snapshots are
    /// enabled to handle read-only transactions", §4.1).
    pub snapshots: bool,
    /// Snapshot epoch advance interval.
    pub snapshot_interval: Duration,
}

impl Default for SiloConfig {
    fn default() -> SiloConfig {
        SiloConfig {
            epoch_interval: Duration::from_millis(10),
            snapshots: true,
            snapshot_interval: Duration::from_millis(25),
        }
    }
}

pub(crate) struct SiloTable {
    pub primary: Arc<BTree>,
    pub primary_index: IndexId,
}

pub(crate) struct SiloCatalog {
    pub tables: Vec<Arc<SiloTable>>,
    pub indexes: Vec<Arc<BTree>>,
    pub table_names: HashMap<String, TableId>,
    pub index_names: HashMap<String, IndexId>,
}

pub(crate) struct SiloInner {
    pub cfg: SiloConfig,
    pub catalog: RwLock<SiloCatalog>,
    /// Silo's global epoch (commit TID high bits).
    pub global_epoch: AtomicU64,
    /// Snapshot epoch for read-only transactions.
    pub snap_epoch: AtomicU64,
    /// RCU reclamation of data buffers / records / snapshot entries.
    pub rcu: EpochManager,
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    /// Active read-only snapshot epochs (snap → refcount): the snapshot
    /// chains may be trimmed only behind the oldest of these.
    pub ro_active: Mutex<std::collections::BTreeMap<u64, u32>>,
}

impl Drop for SiloInner {
    fn drop(&mut self) {
        // Free every record (data buffer + snapshot chain). Single
        // ownership at teardown; the trees free their own nodes/keys.
        let catalog = self.catalog.get_mut().unwrap();
        let h = self.rcu.register();
        let g = h.pin();
        for table in &catalog.tables {
            table.primary.scan(
                &g,
                &[],
                None,
                |_| {},
                |_k, val| {
                    unsafe {
                        let rec = val as *mut crate::record::Record;
                        drop(Box::from_raw((*rec).data.load(Ordering::Relaxed)));
                        let mut snap = (*rec).snaps.load(Ordering::Relaxed);
                        while !snap.is_null() {
                            let next = (*snap).next.load(Ordering::Relaxed);
                            drop(Box::from_raw((*snap).buf));
                            drop(Box::from_raw(snap));
                            snap = next;
                        }
                        drop(Box::from_raw(rec));
                    }
                    ermia_index::ScanControl::Continue
                },
            );
        }
    }
}

/// A Silo-style OCC database.
#[derive(Clone)]
pub struct SiloDb {
    pub(crate) inner: Arc<SiloInner>,
    // The RCU ticker, which also advances the global and snapshot epochs
    // (see [`start_ticker`]); stopped with the last clone.
    _ticker: Arc<Ticker>,
}

/// Tick the RCU manager every `min(2 ms, epoch_interval)`; on the first
/// tick past each `epoch_interval` bump the global epoch, and past each
/// `snapshot_interval` the snapshot epoch.
fn start_ticker(inner: &Arc<SiloInner>) -> Ticker {
    let db = Arc::clone(inner);
    let (mut last_epoch, mut last_snap) = (Instant::now(), Instant::now());
    let period = inner.cfg.epoch_interval.min(Duration::from_millis(2));
    Ticker::start(inner.rcu.clone(), period, move || {
        let now = Instant::now();
        if now - last_epoch >= db.cfg.epoch_interval {
            db.global_epoch.fetch_add(1, Ordering::SeqCst);
            last_epoch = now;
        }
        if db.cfg.snapshots && now - last_snap >= db.cfg.snapshot_interval {
            db.snap_epoch.fetch_add(1, Ordering::SeqCst);
            last_snap = now;
        }
    })
}

impl SiloDb {
    pub fn open(cfg: SiloConfig) -> SiloDb {
        let inner = Arc::new(SiloInner {
            catalog: RwLock::new(SiloCatalog {
                tables: Vec::new(),
                indexes: Vec::new(),
                table_names: HashMap::new(),
                index_names: HashMap::new(),
            }),
            // Start at 1: epoch 0 means "never committed".
            global_epoch: AtomicU64::new(1),
            snap_epoch: AtomicU64::new(1),
            rcu: EpochManager::new("silo-rcu"),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            ro_active: Mutex::new(std::collections::BTreeMap::new()),
            cfg,
        });
        let ticker = Arc::new(start_ticker(&inner));
        SiloDb { inner, _ticker: ticker }
    }

    /// Create (or look up) a table.
    pub fn create_table(&self, name: &str) -> TableId {
        {
            let c = self.inner.catalog.read().unwrap();
            if let Some(&id) = c.table_names.get(name) {
                return id;
            }
        }
        let mut c = self.inner.catalog.write().unwrap();
        if let Some(&id) = c.table_names.get(name) {
            return id;
        }
        let id = TableId(c.tables.len() as u32);
        let index_id = IndexId(c.indexes.len() as u32);
        let tree = Arc::new(BTree::new());
        c.indexes.push(Arc::clone(&tree));
        c.tables.push(Arc::new(SiloTable { primary: tree, primary_index: index_id }));
        c.table_names.insert(name.to_owned(), id);
        id
    }

    /// Create (or look up) a secondary index (maps secondary key →
    /// record pointer of the primary record; keys must be immutable).
    pub fn create_secondary_index(&self, _table: TableId, name: &str) -> IndexId {
        {
            let c = self.inner.catalog.read().unwrap();
            if let Some(&id) = c.index_names.get(name) {
                return id;
            }
        }
        let mut c = self.inner.catalog.write().unwrap();
        if let Some(&id) = c.index_names.get(name) {
            return id;
        }
        let id = IndexId(c.indexes.len() as u32);
        c.indexes.push(Arc::new(BTree::new()));
        c.index_names.insert(name.to_owned(), id);
        id
    }

    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner.catalog.read().unwrap().table_names.get(name).copied()
    }

    pub fn index_id(&self, name: &str) -> Option<IndexId> {
        self.inner.catalog.read().unwrap().index_names.get(name).copied()
    }

    pub fn primary_index(&self, table: TableId) -> IndexId {
        self.inner.catalog.read().unwrap().tables[table.0 as usize].primary_index
    }

    pub(crate) fn table(&self, id: TableId) -> Arc<SiloTable> {
        Arc::clone(&self.inner.catalog.read().unwrap().tables[id.0 as usize])
    }

    pub(crate) fn index(&self, id: IndexId) -> Arc<BTree> {
        Arc::clone(&self.inner.catalog.read().unwrap().indexes[id.0 as usize])
    }

    /// Register the calling thread.
    pub fn register_worker(&self) -> SiloWorker {
        SiloWorker { db: self.clone(), rcu_handle: self.inner.rcu.register(), last_tid: 0 }
    }

    pub fn txn_counts(&self) -> (u64, u64) {
        (self.inner.commits.load(Ordering::Relaxed), self.inner.aborts.load(Ordering::Relaxed))
    }

    pub fn current_epoch(&self) -> u64 {
        self.inner.global_epoch.load(Ordering::Acquire)
    }
}

/// Per-thread handle.
pub struct SiloWorker {
    pub(crate) db: SiloDb,
    pub(crate) rcu_handle: EpochHandle,
    /// Highest commit TID this worker has issued (commit TIDs must be
    /// monotonic per worker).
    pub(crate) last_tid: u64,
}

impl SiloWorker {
    /// Begin a transaction.
    pub fn begin(&mut self, mode: TxnMode) -> SiloTxn<'_> {
        SiloTxn::begin(self, mode)
    }

    pub fn database(&self) -> &SiloDb {
        &self.db
    }
}
