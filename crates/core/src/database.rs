//! The `Database`: catalog, resource managers, lifecycle.
//!
//! The catalog lives in the log: each entry is one `BlockKind::Ddl`
//! block, appended unforced under the catalog's write lock, and `open`
//! restores the catalog from the entries the log's tail walk passes, so
//! `recover()` replays rows only and a row naming an unknown table is
//! `InvalidData`. Two invariants keep that sound: every table a durable
//! row names has a durable entry at a lower LSN (log order and the
//! in-order durable watermark; [`Database::resume`] re-appends the
//! catalog before writes are admitted again), and every checkpoint's log
//! suffix holds the whole catalog (`checkpoint` appends it above its cut
//! and waits for it, so truncation never retires the only copy and a
//! replica mirroring from the cut finds every table the payload names).

use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use ermia_common::{IndexId, Lsn, TableId};
use ermia_epoch::{EpochManager, Ticker};
use ermia_index::BTree;
use ermia_log::{create_dirs, CheckpointStore, DdlRecord, LogManager};
use ermia_storage::{Collector, GcStats, OidArray, RetireQueue, Retired, TidManager, VersionPool};
use ermia_telemetry::{SpanKind, Telemetry, TraceContext};

use crate::config::DbConfig;
use crate::metrics::{TXN_ABORT_BASE, TXN_COMMITS, TXN_FAMILY};
use crate::worker::Worker;

/// Service state of a [`Database`].
///
/// A database starts `Active`. When the log flusher dies on an
/// unrecoverable I/O error it poisons the log and the database drops to
/// `Degraded`: read-only transactions keep committing (snapshot reads
/// need no log space), but every write operation aborts with
/// [`ermia_common::AbortReason::ReadOnlyMode`] the moment it is issued.
/// An operator brings the database back with [`Database::resume`], which
/// re-probes the storage backend and re-arms the flusher.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum DbState {
    /// Normal read-write service.
    Active = 0,
    /// The log is poisoned; reads commit, writes abort.
    Degraded = 1,
}

impl DbState {
    fn from_u8(v: u8) -> DbState {
        match v {
            0 => DbState::Active,
            _ => DbState::Degraded,
        }
    }
}

/// Replication role of a database node.
///
/// A database opens as `Primary`. A log-shipping replica (see the
/// `ermia-repl` crate) marks its local database `Replica` so health
/// reporting and load balancers can tell the nodes apart; the role does
/// not by itself change engine behavior — read-only enforcement comes
/// from serving through snapshot views ([`Database::fork`] /
/// [`Database::replica_view`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum NodeRole {
    /// Accepts writes; the source of the log.
    Primary = 0,
    /// Applies a shipped log; serves read-only snapshots.
    Replica = 1,
}

impl NodeRole {
    pub fn from_u8(v: u8) -> NodeRole {
        match v {
            0 => NodeRole::Primary,
            _ => NodeRole::Replica,
        }
    }
}

/// A set of (id, offset) pins with O(n) minimum — n is the handful of
/// live forks/shippers, never the transaction path.
pub(crate) struct PinSet {
    next: AtomicU64,
    pins: Mutex<Vec<(u64, u64)>>,
}

impl PinSet {
    fn new() -> PinSet {
        PinSet { next: AtomicU64::new(1), pins: Mutex::new(Vec::new()) }
    }

    fn pin(&self, offset: u64) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.pins.lock().unwrap().push((id, offset));
        id
    }

    fn update(&self, id: u64, offset: u64) {
        let mut pins = self.pins.lock().unwrap();
        if let Some(p) = pins.iter_mut().find(|(i, _)| *i == id) {
            p.1 = offset;
        }
    }

    fn release(&self, id: u64) {
        self.pins.lock().unwrap().retain(|(i, _)| *i != id);
    }

    fn min(&self) -> Option<u64> {
        self.pins.lock().unwrap().iter().map(|&(_, o)| o).min()
    }

    /// Fold the minimum pinned offset into `h` and record the result in
    /// `used` before releasing the pin-table lock. Because [`PinSet::pin`]
    /// takes the same lock, once `pin` returns every horizon a concurrent
    /// GC pass could still be sweeping with is already visible in `used`;
    /// later horizon reads see the new pin. [`Database::cut`] relies on
    /// both halves of this ordering.
    fn fold_and_publish(&self, h: u64, used: &AtomicU64) -> u64 {
        let pins = self.pins.lock().unwrap();
        let h = pins.iter().map(|&(_, o)| o).min().map_or(h, |m| h.min(m));
        used.fetch_max(h, Ordering::AcqRel);
        h
    }
}

/// A retention handle pinning the log against [`Database::truncate_log`].
///
/// While alive, no segment at or above the pinned offset is retired, so
/// a backup shipper or replica subscriber can keep reading sealed
/// segments without racing truncation. Dropping the handle releases the
/// pin; the next `truncate_log` resumes retiring normally.
pub struct LogRetention {
    inner: Arc<DbInner>,
    id: u64,
}

impl LogRetention {
    /// Move the pin forward (typically to the subscriber's applied
    /// offset) so truncation can reclaim everything already shipped.
    pub fn advance(&self, offset: u64) {
        self.inner.log_pins.update(self.id, offset);
    }
}

impl Drop for LogRetention {
    fn drop(&mut self) {
        self.inner.log_pins.release(self.id);
    }
}

/// A consistent cut ([`Database::cut`]): a commit stamp below which every
/// transaction has finished post-commit and at or above which none is
/// visible, plus a GC pin that keeps every version a reader at the stamp
/// needs linked until the cut drops. A fork's transactions and the
/// checkpoint walk read at one.
pub(crate) struct Cut {
    /// Raw LSN; raised from 0 once by [`Database::cut`], and by a
    /// replica's view as replay proceeds.
    stamp: AtomicU64,
    inner: Arc<DbInner>,
    pin: u64,
}

impl Cut {
    /// A cut at `stamp` as given, with no wait: where [`Database::cut`]
    /// starts, and a replica's view, which replay raises.
    fn pinned(inner: &Arc<DbInner>, stamp: Lsn) -> Cut {
        let pin = inner.gc_pins.pin(stamp.raw());
        Cut { stamp: AtomicU64::new(stamp.raw()), inner: Arc::clone(inner), pin }
    }

    pub(crate) fn stamp(&self) -> Lsn {
        Lsn::from_raw(self.stamp.load(Ordering::Acquire))
    }

    /// Move the cut (and its pin) up to `to`; a lower `to` is ignored.
    fn raise(&self, to: Lsn) {
        let at = self.stamp.fetch_max(to.raw(), Ordering::Release).max(to.raw());
        self.inner.gc_pins.update(self.pin, at);
    }
}

impl Drop for Cut {
    fn drop(&mut self) {
        self.inner.gc_pins.release(self.pin);
    }
}

/// Shared state of a snapshot view handle ([`Database::fork`] /
/// [`Database::replica_view`]): the cut every transaction started through
/// it begins at, for as long as any handle clone is alive. Frozen for
/// forks; raised by a replica as it applies shipped log.
pub(crate) struct ViewState {
    cut: Cut,
    /// True for user-visible forks (counted in `ermia_fork_count`).
    counted: bool,
}

impl Drop for ViewState {
    fn drop(&mut self) {
        if self.counted {
            self.cut.inner.fork_count.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Exclusive-ownership lockfile on a durable data directory.
///
/// Holds `ermia.lock` containing the owning pid. Acquisition rules, in
/// order: no file — create and own; file with our own pid — a same-
/// process reopen, take ownership again; file with a dead pid (the
/// previous owner was SIGKILLed — the chaos-harness restart path) or
/// unparseable content — stale, replace it; file with a live foreign
/// pid — refuse to open. Dropped with the database, removing the file.
pub(crate) struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> std::io::Result<DirLock> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("ermia.lock");
        if let Ok(contents) = std::fs::read_to_string(&path) {
            match contents.trim().parse::<u32>() {
                Ok(pid) if pid == std::process::id() => {}
                Ok(pid) if Path::new(&format!("/proc/{pid}")).exists() => {
                    return Err(std::io::Error::other(format!(
                        "data directory {} is locked by live process {pid}",
                        dir.display()
                    )));
                }
                // Dead pid or garbage: the previous owner is gone.
                _ => {}
            }
        }
        std::fs::write(&path, format!("{}\n", std::process::id()))?;
        Ok(DirLock { path })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A table: an indirection array plus its primary index.
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub oids: Arc<OidArray>,
    /// Primary index: encoded key → OID.
    pub primary: Arc<BTree>,
    pub primary_index: IndexId,
}

/// An index registration (primary or secondary). All indexes map keys to
/// OIDs of their owning table, so record updates never touch them (§3.2).
pub struct IndexInfo {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    pub tree: Arc<BTree>,
    pub is_primary: bool,
}

/// What recovery says of a log or checkpoint it cannot make sense of.
pub(crate) fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

pub(crate) struct Catalog {
    pub tables: Vec<Arc<Table>>,
    pub indexes: Vec<Arc<IndexInfo>>,
    /// The catalog as the log holds it, by index id: ids, names and each
    /// entry's shard route.
    pub entries: Vec<DdlRecord>,
}

impl Catalog {
    /// The entry of table `table` or, given `secondary`, of the secondary
    /// index of that name (whatever its table).
    fn find(&self, table: &str, secondary: Option<&str>) -> Option<&DdlRecord> {
        self.entries.iter().find(|e| match secondary {
            None => e.secondary.is_none() && e.name == table,
            Some(_) => e.secondary.as_deref() == secondary,
        })
    }

    /// Create `rec`'s entry — its ids must be the next ones — or, when
    /// the catalog holds it already, take its route. `Ok(false)`: it was
    /// all there.
    fn install(&mut self, rec: &DdlRecord) -> Result<bool, String> {
        if let Some(have) = self.entries.get_mut(rec.index.0 as usize) {
            if !have.same_entry(rec) {
                return Err(format!("catalog entry {rec:?} collides with {have:?}"));
            }
            return Ok(std::mem::replace(&mut have.route, rec.route) != rec.route);
        }
        let fits = match rec.secondary {
            None => rec.table.0 as usize == self.tables.len(),
            Some(_) => self.tables.get(rec.table.0 as usize).is_some_and(|t| t.name == rec.name),
        };
        let taken = self.find(&rec.name, rec.secondary.as_deref()).is_some();
        if rec.index.0 as usize != self.entries.len() || !fits || taken {
            return Err(format!("catalog entry {rec:?} does not extend {:?}", self.entries));
        }
        let tree = Arc::new(BTree::new());
        if rec.secondary.is_none() {
            self.tables.push(Arc::new(Table {
                id: rec.table,
                name: rec.name.clone(),
                oids: Arc::new(OidArray::new()),
                primary: Arc::clone(&tree),
                primary_index: rec.index,
            }));
        }
        self.indexes.push(Arc::new(IndexInfo {
            id: rec.index,
            name: rec.secondary.clone().unwrap_or_else(|| format!("{}.primary", rec.name)),
            table: rec.table,
            tree,
            is_primary: rec.secondary.is_none(),
        }));
        self.entries.push(rec.clone());
        Ok(true)
    }

    /// Append every entry to `log`, unforced; returns the end offset of
    /// the last block (0 for an empty catalog).
    pub(crate) fn append_all(&self, log: &LogManager) -> std::io::Result<u64> {
        self.entries.iter().try_fold(0, |_, rec| rec.append(log))
    }
}

pub(crate) struct DbInner {
    pub cfg: DbConfig,
    pub log: LogManager,
    pub tid: TidManager,
    pub catalog: RwLock<Catalog>,
    /// Bumped, under the catalog's write lock, by every change to it:
    /// what a sharded worker compares its routing snapshot against.
    pub catalog_version: AtomicU64,
    /// The unified epoch manager. The paper's three timescales (gc, rcu,
    /// tid) were tracked separately, but every transaction pinned all
    /// three in lockstep at the same boundaries, so one timeline is
    /// semantically equivalent and makes begin/end one pin instead of
    /// three. Resources of every timescale retire through it.
    pub epoch: EpochManager,
    /// Recycled version nodes: the GC releases quiesced nodes here and
    /// workers' per-thread caches draw from it, keeping the steady-state
    /// write path off the allocator.
    pub versions: Arc<VersionPool>,
    pub checkpoints: Option<CheckpointStore>,
    /// The unified telemetry layer: per-worker metric slabs (txn
    /// outcomes), database-level collectors over the subsystem atomics,
    /// and the tracer's record rings.
    /// Workers write their own slabs with relaxed adds; locks guard only
    /// registration, retirement, and reads, never the transaction path.
    pub telemetry: Arc<Telemetry>,
    /// GC statistics (shared with [`DbInner::retired`], which counts its
    /// own backlog into them).
    pub gc_stats: Arc<GcStats>,
    /// The hand-off to the collector: every site that links a version
    /// above a committed one names the chain here (see
    /// [`DbInner::retire`]), and the collector visits only those.
    pub retired: Arc<RetireQueue>,
    /// Service state ([`DbState`] as u8): flipped to `Degraded` by the
    /// log's poison hook, back to `Active` by [`Database::resume`]. Read
    /// with a relaxed load on every write operation's admission check.
    pub state: AtomicU8,
    /// Replication role ([`NodeRole`] as u8); set once by the replica
    /// process, read by health reporting.
    pub role: AtomicU8,
    /// Log offset a replica has applied through (0 on a primary).
    pub applied: AtomicU64,
    /// Snapshot-view pins (raw LSNs) clamping the GC horizon: versions
    /// a live fork can still read are not reclaimable.
    pub gc_pins: PinSet,
    /// Highest horizon (raw LSN) any GC pass has swept with, published
    /// inside the pin-table critical section (see
    /// [`PinSet::fold_and_publish`]). [`Database::cut`] refuses to pick
    /// a cut below it: a pass that already read its horizon may still be
    /// unlinking versions a lower cut would need.
    pub gc_horizon_used: AtomicU64,
    /// Retention pins (log offsets) clamping [`Database::truncate_log`].
    pub log_pins: PinSet,
    /// Live fork handles (gauge `ermia_fork_count`).
    pub fork_count: AtomicU64,
    /// What the last offline recovery did (`ermia_recovery_*`).
    pub recovered: Mutex<crate::recovery::RecoveryStats>,
    /// Pid lockfile on the data directory (`None` for in-memory
    /// databases); held only for its Drop, which removes the file.
    pub _dir_lock: Option<DirLock>,
}

/// A memory-optimized multi-version database (the paper's ERMIA engine).
///
/// Cheap to clone and share across threads. Each worker thread calls
/// [`Database::register_worker`] once and runs transactions through its
/// [`Worker`].
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
    // The epoch ticker, which also runs the collector (see
    // [`start_ticker`]); stopped with the last Database clone.
    _ticker: Arc<Ticker>,
    /// When set, this handle is a read-only snapshot view: transactions
    /// begin at the view's cut instead of the log tail, and every write
    /// operation aborts with `ReadOnlyMode`.
    pub(crate) view: Option<Arc<ViewState>>,
}

/// Period of the one ticker that drives the unified epoch timeline: the
/// fastest of the old per-timescale cadences (the tid valve's). Each tick
/// also runs a collector pass.
const EPOCH_TICK: Duration = Duration::from_millis(1);

/// Start the epoch ticker with the collector on its tick. It runs for the
/// life of the database: retire-queue entries name their table, so DDL
/// has nothing to tell it.
fn start_ticker(inner: &Arc<DbInner>) -> Ticker {
    let (db, catalog) = (Arc::clone(inner), Arc::clone(inner));
    let tracer = Arc::clone(inner.telemetry.tracer());
    let mut gc = Collector::new(
        Arc::clone(&inner.retired),
        inner.epoch.clone(),
        move || db.gc_horizon(),
        move |t| {
            catalog.catalog.read().unwrap().tables.get(t.0 as usize).map(|t| Arc::clone(&t.oids))
        },
        Some(Arc::clone(&inner.versions)),
        move |reclaimed, passes| {
            tracer.svc_ring().event(&TraceContext::UNTRACED, SpanKind::GcPass, reclaimed, passes)
        },
    );
    Ticker::start(inner.epoch.clone(), EPOCH_TICK, move || gc.pass())
}

impl DbInner {
    /// The reclamation horizon, as the collector is about to use it.
    /// Versions below every active transaction's begin stamp are
    /// reclaimable; fall back to the log tail when idle. Live snapshot
    /// views (forks, replica serving handles) clamp the horizon so
    /// versions their cut can still read stay linked even while no view
    /// transaction is in flight.
    fn gc_horizon(&self) -> Lsn {
        // The tail is read before the scan, a fence between: a reader
        // whose claim the scan misses reads the tail after this read
        // (see `Txn::begin`), so its begin is not below `tail`.
        let tail = self.log.tail_lsn();
        fence(Ordering::SeqCst);
        let h = self.tid.min_active_begin(tail);
        // Clamp by live pins and publish the result under the pin-table
        // lock, so `cut()` can bound what any in-flight pass might still
        // be sweeping with.
        Lsn::from_raw(self.gc_pins.fold_and_publish(h.raw(), &self.gc_horizon_used))
    }

    /// Tell the collector that each entry's chain now has a committed
    /// version stacked on a committed one (already stamped with
    /// `cstamp`). Every such site must call this: the collector sweeps
    /// no chain it was not told about.
    pub(crate) fn retire(&self, entries: &[Retired]) {
        self.retired.retire(entries);
    }

    /// Record a background service's flight event (GC passes, checkpoints,
    /// epoch advances, recovery) in the tracer's service ring; workers
    /// write their own rings.
    pub(crate) fn svc_event(&self, kind: SpanKind, a: u64, b: u64) {
        self.telemetry.tracer().svc_ring().event(&TraceContext::UNTRACED, kind, a, b);
    }

    /// [`Catalog::install`] an entry the log holds: a restore at open, or
    /// replay passing its block.
    pub(crate) fn install_logged(&self, rec: &DdlRecord) -> std::io::Result<()> {
        if self.catalog.write().unwrap().install(rec).map_err(invalid)? {
            self.catalog_version.fetch_add(1, Ordering::Release);
        }
        Ok(())
    }
}

impl Database {
    /// Open a database. A data directory is self-describing: its tables
    /// and indexes come back, under the ids and shard routes they had,
    /// from the catalog entries the log holds, so a `create_*` of a known
    /// name is a lookup. If the directory already contains segments,
    /// [`Database::recover`] then brings the rows back.
    pub fn open(cfg: DbConfig) -> std::io::Result<Database> {
        // Take the directory lock before touching any file in it: a live
        // foreign owner means refusing here, a dead one (SIGKILL) means
        // this open *is* the restart-recovery path. The directory itself
        // is created through the storage seam first, so that with `fsync`
        // its entry is synced into its parent.
        let io = &cfg.log.io_factory;
        let dir_lock = match &cfg.log.dir {
            Some(dir) => {
                create_dirs(&**io, dir, cfg.log.fsync)?;
                Some(DirLock::acquire(dir)?)
            }
            None => None,
        };
        let log = LogManager::open(cfg.log.clone())?;
        let checkpoints = match &cfg.log.dir {
            Some(dir) => Some(CheckpointStore::new(dir.join("checkpoints"), Arc::clone(io))?),
            None => None,
        };
        let telemetry = Arc::new(Telemetry::new());
        telemetry.tracer().set_slow_threshold_ns(cfg.trace_slow_us.saturating_mul(1_000));
        let gc_stats = Arc::new(GcStats::default());
        let inner = Arc::new(DbInner {
            log,
            tid: TidManager::new(),
            catalog: RwLock::new(Catalog {
                tables: Vec::new(),
                indexes: Vec::new(),
                entries: Vec::new(),
            }),
            catalog_version: AtomicU64::new(0),
            epoch: EpochManager::new("unified"),
            versions: Arc::new(VersionPool::default()),
            checkpoints,
            telemetry,
            retired: Arc::new(RetireQueue::new(Arc::clone(&gc_stats))),
            gc_stats,
            state: AtomicU8::new(DbState::Active as u8),
            role: AtomicU8::new(NodeRole::Primary as u8),
            applied: AtomicU64::new(0),
            gc_pins: PinSet::new(),
            gc_horizon_used: AtomicU64::new(0),
            log_pins: PinSet::new(),
            fork_count: AtomicU64::new(0),
            recovered: Mutex::default(),
            _dir_lock: dir_lock,
            cfg,
        });
        for rec in inner.log.catalog_at_open() {
            inner.install_logged(rec)?;
        }
        crate::metrics::register_db_collectors(&inner);
        crate::metrics::observe_log_syncs(&inner);
        {
            // Degrade to read-only the instant the flusher poisons the
            // log: reads keep committing off the snapshot, writes are
            // refused at admission with `AbortReason::ReadOnlyMode`.
            let weak = Arc::downgrade(&inner);
            inner.log.set_poison_hook(move || {
                if let Some(db) = weak.upgrade() {
                    db.state.store(DbState::Degraded as u8, Ordering::Release);
                    db.svc_event(SpanKind::DbDegraded, db.log.durable_offset(), 0);
                }
            });
        }
        {
            // Record epoch transitions in the service ring. The hook runs
            // after the advance, outside the epoch manager's locks; the
            // Weak keeps the manager (owned by DbInner) from keeping its
            // owner alive.
            let weak = Arc::downgrade(&inner);
            inner.epoch.set_advance_hook(move |epoch| {
                if let Some(db) = weak.upgrade() {
                    db.svc_event(SpanKind::EpochAdvance, epoch, 0);
                }
            });
        }
        let ticker = Arc::new(start_ticker(&inner));
        Ok(Database { inner, _ticker: ticker, view: None })
    }

    /// Create (or look up, by name) a table with its primary index.
    pub fn create_table(&self, name: &str) -> TableId {
        self.declare(name, None, None).0
    }

    /// Create (or look up) a secondary index on `table`. Secondary keys
    /// must be immutable fields of the record: entries map to OIDs and
    /// are not versioned, so updates must never change them.
    pub fn create_secondary_index(&self, table: TableId, name: &str) -> IndexId {
        let table = self.table(table);
        self.declare(&table.name, Some(name), None).1
    }

    /// Look up or create the catalog entry of table `table`, or of its
    /// secondary index `secondary`; `route: Some` also sets the entry's
    /// shard route (a new entry otherwise takes the default, `(0, 0)`).
    /// A new entry or route is appended to the log, unforced, under the
    /// catalog's write lock: log order puts it ahead of every row that
    /// names it, and the durable watermark moves in log order, so a
    /// durable row implies a durable entry and nothing waits. A poisoned
    /// log refuses the append; [`Database::resume`] makes up for it.
    pub(crate) fn declare(
        &self,
        table: &str,
        secondary: Option<&str>,
        route: Option<(u8, u64)>,
    ) -> (TableId, IndexId) {
        let settled = |rec: &DdlRecord| route.is_none_or(|r| r == rec.route);
        {
            let catalog = self.inner.catalog.read().unwrap();
            if let Some(rec) = catalog.find(table, secondary).filter(|rec| settled(rec)) {
                return (rec.table, rec.index);
            }
        }
        let mut catalog = self.inner.catalog.write().unwrap();
        let route = route.unwrap_or_default();
        let rec = match catalog.find(table, secondary) {
            Some(rec) if settled(rec) => return (rec.table, rec.index),
            Some(rec) => DdlRecord { route, ..rec.clone() },
            None => DdlRecord {
                index: IndexId(catalog.entries.len() as u32),
                table: match (secondary, catalog.find(table, None)) {
                    (Some(_), Some(owner)) => owner.table,
                    _ => TableId(catalog.tables.len() as u32),
                },
                name: table.to_owned(),
                secondary: secondary.map(str::to_owned),
                route,
            },
        };
        let names_len = table.len() + secondary.map_or(0, str::len);
        assert!(names_len <= DdlRecord::MAX_NAMES_LEN, "catalog name too long");
        catalog.install(&rec).expect("a secondary index needs its table");
        self.inner.catalog_version.fetch_add(1, Ordering::Release);
        let _ = rec.append(&self.inner.log);
        (rec.table, rec.index)
    }

    /// Number of tables in the catalog. Table ids are dense, so an id is
    /// valid iff it is below this count — front-ends use this to validate
    /// untrusted ids before calling [`Transaction`](crate::Transaction) operations, which
    /// index the catalog directly.
    pub fn table_count(&self) -> usize {
        self.inner.catalog.read().unwrap().tables.len()
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner.catalog.read().unwrap().find(name, None).map(|e| e.table)
    }

    /// Look up a (secondary) index id by name.
    pub fn index_id(&self, name: &str) -> Option<IndexId> {
        self.inner.catalog.read().unwrap().find("", Some(name)).map(|e| e.index)
    }

    /// The primary index id of a table.
    pub fn primary_index(&self, table: TableId) -> IndexId {
        self.inner.catalog.read().unwrap().tables[table.0 as usize].primary_index
    }

    pub(crate) fn table(&self, id: TableId) -> Arc<Table> {
        Arc::clone(&self.inner.catalog.read().unwrap().tables[id.0 as usize])
    }

    pub(crate) fn index(&self, id: IndexId) -> Arc<IndexInfo> {
        Arc::clone(&self.inner.catalog.read().unwrap().indexes[id.0 as usize])
    }

    /// Register the calling thread as a worker.
    pub fn register_worker(&self) -> Worker {
        Worker::new(self.clone())
    }

    /// The log manager (stats, durability control).
    pub fn log(&self) -> &LogManager {
        &self.inner.log
    }

    /// Current service state. `Degraded` means the log is poisoned:
    /// reads commit, writes abort with `ReadOnlyMode`.
    pub fn state(&self) -> DbState {
        DbState::from_u8(self.inner.state.load(Ordering::Acquire))
    }

    /// Operator-triggered recovery from degraded read-only mode.
    ///
    /// Delegates to [`ermia_log::LogManager::resume`] — which re-probes
    /// the storage backend, papers the never-durable gap with skip
    /// blocks, and re-arms the flusher — and returns the database to
    /// `Active` only if that succeeds. Safe to retry while the
    /// underlying fault persists, and a no-op on a healthy database.
    ///
    /// Before writes are admitted again the whole catalog is appended to
    /// the log: an entry created during the outage was refused by the
    /// poisoned log, and one appended just before it may lie in the gap.
    pub fn resume(&self) -> std::io::Result<()> {
        let degraded = self.state() == DbState::Degraded;
        self.inner.log.resume()?;
        if degraded {
            self.inner.catalog.read().unwrap().append_all(&self.inner.log)?;
        }
        self.inner.state.store(DbState::Active as u8, Ordering::Release);
        self.inner.svc_event(SpanKind::DbResumed, self.inner.log.durable_offset(), 0);
        Ok(())
    }

    /// Committed / aborted transaction totals: the workers' outcome
    /// counters merged (dropped workers included), aborts summed over
    /// their reasons.
    pub fn txn_counts(&self) -> (u64, u64) {
        let counts = self.inner.telemetry.registry().family_counters(&TXN_FAMILY);
        (counts[TXN_COMMITS], counts[TXN_ABORT_BASE..].iter().sum())
    }

    /// Statistics of the unified epoch manager (all resource timescales
    /// retire through one timeline).
    pub fn epoch_stats(&self) -> ermia_epoch::EpochStats {
        self.inner.epoch.stats()
    }

    /// Collector counters: passes, versions reclaimed, chains visited and
    /// the retire-queue backlog.
    pub fn gc_stats(&self) -> &GcStats {
        &self.inner.gc_stats
    }

    /// Audit the collector: sweep every indirection array in full — the
    /// paper's pass — at the horizon the collector would use now, and
    /// return how many versions that reclaimed. The collector visits only
    /// the chains committers and replay hand it, so once
    /// `gc_stats().retire_backlog` has drained on a quiet database this is
    /// 0; anything else is a chain somebody forgot to retire.
    pub fn gc_audit(&self) -> u64 {
        let inner = &self.inner;
        let tables = inner.catalog.read().unwrap().tables.clone();
        let horizon = inner.gc_horizon();
        let handle = inner.epoch.register();
        let guard = handle.pin();
        tables
            .iter()
            .map(|t| inner.retired.audit(&t.oids, horizon, &guard, Some(&inner.versions)))
            .sum()
    }

    /// Version nodes currently parked in the reuse pool.
    pub fn version_pool_size(&self) -> usize {
        self.inner.versions.pooled()
    }

    /// Transaction-context (TID) slots currently in use. Zero whenever no
    /// transaction is in flight — the service layer's session-teardown
    /// tests assert this to prove disconnects leak nothing.
    pub fn tid_slots_in_use(&self) -> usize {
        self.inner.tid.in_use()
    }

    /// Current log tail — the begin timestamp a transaction starting now
    /// would get.
    pub fn now_lsn(&self) -> Lsn {
        self.inner.log.tail_lsn()
    }

    /// Retire log segments made obsolete by the most recent checkpoint
    /// and prune superseded checkpoints. Returns the number of segments
    /// removed. Live [`LogRetention`] handles clamp the truncation
    /// point, so a backup shipper's unshipped segments survive; once the
    /// handles drop, the next call resumes retiring from the checkpoint.
    pub fn truncate_log(&self) -> std::io::Result<usize> {
        let Some(store) = &self.inner.checkpoints else { return Ok(0) };
        let Some((meta, _)) = store.latest()? else { return Ok(0) };
        store.prune()?;
        let mut cut = meta.begin.offset();
        if let Some(pin) = self.inner.log_pins.min() {
            cut = cut.min(pin);
        }
        let removed = self.inner.log.truncate_before(cut)?;
        self.inner.svc_event(SpanKind::Checkpoint, cut, removed as u64);
        Ok(removed)
    }

    /// Pin the log against truncation from `offset` upward. See
    /// [`LogRetention`].
    pub fn pin_log(&self, offset: u64) -> LogRetention {
        LogRetention { inner: Arc::clone(&self.inner), id: self.inner.log_pins.pin(offset) }
    }

    // ------------------------------------------------------------------
    // Consistent cuts and snapshot views
    // ------------------------------------------------------------------

    /// Take a consistent cut at the in-flight commit low water: every
    /// transaction with a commit stamp below it has finished post-commit,
    /// and every stamp acquired from here on lands at or above it. No
    /// quiescing: writers keep committing above the cut while it is held.
    /// The only caller of `min_commit_low_water`.
    pub(crate) fn cut(&self) -> Cut {
        let inner = &self.inner;
        // Pin *before* choosing the stamp: from here on no new GC pass can
        // reclaim anything (its horizon folds in this floor pin). A pass
        // already in flight read its horizon earlier, but published it
        // to `gc_horizon_used` inside the same lock `pin` just went
        // through — so refusing any cut below that bound guarantees
        // nothing such a pass unlinks (overwriter below its horizon) is
        // needed at the cut we return.
        let cut = Cut::pinned(inner, Lsn::NULL);
        let stamp = loop {
            let c = inner.tid.min_commit_low_water(inner.log.tail_lsn());
            if c.raw() >= inner.gc_horizon_used.load(Ordering::Acquire) {
                break c;
            }
            // The low water sits below a horizon some pass already used:
            // an in-flight commit predating the pin is mid post-commit.
            // The frontier is monotonic and post-commit is short, so
            // spin until it passes the bound.
            std::thread::yield_now();
        };
        cut.raise(stamp);
        cut
    }

    /// Fork: an instant, read-only clone of this database at a consistent
    /// cut (the commit low water). No version data is copied — the fork
    /// shares the indirection arrays and version chains copy-on-write
    /// (the primary keeps prepending new versions; the fork's frozen cut
    /// simply never sees them), so the cost is O(metadata): one pin and
    /// one handle. Transactions begun through the returned handle read
    /// the cut's snapshot; writes abort with `ReadOnlyMode`. The fork
    /// pins the GC horizon at its cut until dropped. A fork is an
    /// in-memory artifact (what-if analysis, tests): nothing waits for
    /// the log to be durable through its cut — [`Database::checkpoint`]
    /// reads at the same kind of cut and does.
    pub fn fork(&self) -> Database {
        self.view_over(self.cut(), true)
    }

    /// A view handle for replica serving: starts at cut 0 (empty but
    /// consistent) and is advanced with [`Database::advance_view`] as
    /// shipped log gets applied. Not counted as a fork.
    pub fn replica_view(&self) -> Database {
        self.view_over(Cut::pinned(&self.inner, Lsn::NULL), false)
    }

    pub(crate) fn view_over(&self, cut: Cut, counted: bool) -> Database {
        if counted {
            self.inner.fork_count.fetch_add(1, Ordering::Relaxed);
        }
        Database {
            inner: Arc::clone(&self.inner),
            _ticker: Arc::clone(&self._ticker),
            view: Some(Arc::new(ViewState { cut, counted })),
        }
    }

    /// Advance a view handle's cut (replica catch-up). Monotonic: an
    /// older cut than the current one is ignored. Panics if this handle
    /// is not a view.
    pub fn advance_view(&self, cut: Lsn) {
        self.view.as_ref().expect("advance_view requires a view handle").cut.raise(cut);
    }

    /// The cut this handle serves, if it is a snapshot view.
    pub fn view_cut(&self) -> Option<Lsn> {
        self.view.as_ref().map(|v| v.cut.stamp())
    }

    /// Live fork handles.
    pub fn fork_count(&self) -> u64 {
        self.inner.fork_count.load(Ordering::Relaxed)
    }

    /// This node's replication role.
    pub fn role(&self) -> NodeRole {
        NodeRole::from_u8(self.inner.role.load(Ordering::Relaxed))
    }

    /// Mark this database as a log-shipping replica (health reporting).
    pub fn set_role_replica(&self) {
        self.inner.role.store(NodeRole::Replica as u8, Ordering::Relaxed);
    }

    /// Log offset a replica has applied through (0 on a primary).
    pub fn applied_lsn(&self) -> u64 {
        self.inner.applied.load(Ordering::Acquire)
    }

    /// Record the replica's applied offset (set by the repl crate).
    pub fn set_applied_lsn(&self, offset: u64) {
        self.inner.applied.fetch_max(offset, Ordering::Release);
    }

    /// The most recent verified checkpoint, as (begin LSN, raw payload).
    /// `None` without a durable configuration or before any checkpoint.
    /// Used by the backup shipper to stream the snapshot to a replica.
    pub fn latest_checkpoint(&self) -> std::io::Result<Option<(Lsn, Vec<u8>)>> {
        let Some(store) = &self.inner.checkpoints else { return Ok(None) };
        Ok(store.latest()?.map(|(meta, payload)| (meta.begin, payload)))
    }

    /// Persist a checkpoint payload received from a primary into this
    /// database's own checkpoint store, making the local data directory
    /// a restartable backup. The payload is stored verbatim under the
    /// shipped begin LSN; recovery reads it as it reads its own, so one in
    /// an earlier layout, or cut short, fails it with `InvalidData`.
    pub fn store_checkpoint(&self, begin: Lsn, payload: &[u8]) -> std::io::Result<()> {
        let store = self
            .inner
            .checkpoints
            .as_ref()
            .expect("storing a shipped checkpoint requires a durable configuration");
        store.write(ermia_log::CheckpointMeta { begin }, payload)
    }

    /// The database's telemetry layer: merged metric registry, Prometheus
    /// exposition, and the tracer whose rings hold spans and flight events.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }
}
