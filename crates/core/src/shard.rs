//! Sharded engine: N independent log/epoch/TID domains, one namespace.
//!
//! The centralized log gives ERMIA a totally ordered commit timestamp
//! from one `fetch_add` — scalable on one socket, but still one cache
//! line every committer must touch, one flusher thread, one TID space.
//! [`ShardedDb`] multiplies the engine instead of the log: it hash-
//! partitions every table across `S` full [`Database`] instances, each
//! with its own log directory, group-commit flusher, epoch manager, GC
//! and TID space. The namespace stays unified — tables and indexes are
//! created on every shard in the same order, so a `TableId` or
//! `IndexId` means the same thing everywhere and callers route by key,
//! never by shard.
//!
//! **Single-shard transactions** (the common case: the TPC-C partition
//! argument, §6 of the paper) touch exactly one inner [`Transaction`]
//! and commit through the unmodified single-database path — no extra
//! log writes, no coordination, overhead is one hash per operation. At
//! `S = 1` even that disappears: routing is constant and commit is a
//! direct pass-through. One shard is the degenerate shard set, so the
//! server, the worker pool and the workload adapters run on a
//! `ShardedDb` only ([`ShardedDb::single`] wraps a [`Database`]).
//!
//! **Cross-shard transactions** commit in one durability round, layered
//! on the existing commit/durability split:
//!
//! 1. *Prepare* — every writer shard runs the one pre-commit pipeline
//!    every commit runs (`Transaction::precommit`: log space allocation,
//!    SSN exclusion test, node-set validation, block fill), with its
//!    block serialized as [`BlockKind::TxnPrepare`] carrying the
//!    coordinator's identity and the number of participants. The
//!    coordinator is the lowest writer shard and prepares first; its
//!    prepare cstamp becomes the global transaction id (gtid).
//! 2. *Commit point* — **every participant's prepare block is durable.**
//!    Nothing else is waited for: every shard's log lives in this
//!    process and recovery reads them all, so "all prepares are on disk"
//!    is a fact recovery can establish by itself.
//! 3. *Finalize* — participants flip their TID slots to committed and
//!    publish versions in memory, and the caller is answered.
//! 4. *Verdict* — only then a [`BlockKind::TxnDecide`] record is appended,
//!    unforced, to every participant's log, where it rides whatever flush
//!    comes next. It spares recovery (and a replica tailing the log) the
//!    counting; it is never the commit.
//!
//! Between the steps nothing is needed but log offsets turning durable,
//! so from "every writer prepared" on the commit is an owned state
//! machine, [`StagedCommit`], whose participants are parked — detached
//! from the worker, no epoch pinned. [`ShardedTransaction::commit`]
//! drives it with a blocking wait; the server parks it with a thread
//! that waits on logs and gets its worker back at once.
//!
//! The failure side: a commit that gives up after its prepares are
//! written (a stalled or poisoned log, a dropped [`StagedCommit`]) first
//! appends an *abort* verdict behind the prepares on every participant
//! that still accepts writes, then rolls back in memory, so a prepare
//! that turns durable after all is followed on disk by its abort. The
//! caller is told the outcome is indeterminate (`LogStalled`, or an abort
//! for log failure), which is exact: if the power fails before any abort
//! verdict is durable but after every prepare is, recovery commits.
//!
//! [`ShardedDb::recover`] scans every shard and resolves each prepare
//! that has no verdict in its own log: a commit verdict in any
//! participant's log commits it, an abort verdict in any aborts it, and
//! with no verdict anywhere it commits iff as many shards hold a prepare
//! for the gtid as the marker says took part — so an acknowledged
//! cross-shard commit is always fully present after a crash, and one
//! that is partly on disk fully absent.
//!
//! Invariants (each pinned by a test named in DESIGN.md §Sharding):
//! 1. nothing is published or acknowledged before every prepare is
//!    durable;
//! 2. a commit verdict is written only after (1), an abort verdict only
//!    by the failure path, never both for one gtid;
//! 3. recovery never commits a gtid with fewer prepares than its marker's
//!    count, and never aborts one whose commit was acknowledged.
//!
//! What sharding deliberately does *not* give: a global snapshot.
//! Each shard's reads run against that shard's own LSN timeline, so a
//! cross-shard reader can observe shard A after a transaction T and
//! shard B before T (a fractured read), and SSN certifies dependency
//! cycles per shard only. This matches the partitioned deployments the
//! paper compares against (H-Store-style) rather than a globally
//! serializable distributed engine; see DESIGN.md §Sharding.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use ermia_common::{AbortReason, IndexId, LogError, Lsn, Oid, OpResult, TableId, TxResult};
use ermia_log::{
    checksum32, BlockKind, DecideRecord, DurableWaker, LogBlockHeader, PrepareMarker,
    BLOCK_HEADER_LEN, DECIDE_RECORD_LEN, MIN_BLOCK_LEN,
};
use ermia_telemetry::{
    EventKind, EventRing, FamilyDef, MetricDesc, MetricKind, Sample, Slab, SpanKind, SpanRing,
    TraceContext,
};

use crate::config::{DbConfig, IsolationLevel};
use crate::database::{Database, DbState, DdlEntry, NodeRole};
use crate::recovery::RecoveryStats;
use crate::transaction::{CommitToken, ParkedPrepare, PreparedTransaction, Transaction};
use crate::worker::Worker;

/// Deterministic key → shard map: FNV-1a over the routed key bytes,
/// reduced mod `shards`. Exported so workload generators can partition
/// keys (e.g. pick a key pair that is guaranteed cross-shard).
pub fn shard_of_key(key: &[u8], shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// How a table's rows are distributed across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Hash the primary key to pick the owning shard. With
    /// `prefix: Some(p)` only the first `p` key bytes are hashed, so
    /// co-prefixed rows (e.g. everything in one TPC-C warehouse)
    /// colocate and prefix range scans stay single-shard.
    Hash { prefix: Option<usize> },
    /// Full copy on every shard: writes fan out to all shards inside
    /// the same transaction, reads are served by shard 0. For small
    /// read-mostly dimension tables (TPC-C `item`). Replicated tables
    /// cannot carry secondary indexes.
    Replicated,
}

impl Default for ShardPolicy {
    fn default() -> ShardPolicy {
        ShardPolicy::Hash { prefix: None }
    }
}

impl ShardPolicy {
    /// Compact `(tag, arg)` form for the replication protocol: a replica
    /// must route reads exactly like its primary, so table policies ship
    /// with the schema DDL.
    pub fn to_wire(self) -> (u8, u64) {
        match self {
            ShardPolicy::Hash { prefix: None } => (0, 0),
            ShardPolicy::Hash { prefix: Some(p) } => (1, p as u64),
            ShardPolicy::Replicated => (2, 0),
        }
    }

    /// Inverse of [`ShardPolicy::to_wire`]; unknown tags fall back to
    /// the default policy.
    pub fn from_wire(tag: u8, arg: u64) -> ShardPolicy {
        match tag {
            1 => ShardPolicy::Hash { prefix: Some(arg as usize) },
            2 => ShardPolicy::Replicated,
            _ => ShardPolicy::default(),
        }
    }
}

/// How a *secondary* index key routes to the owning shard. (Primary
/// indexes always route by the table's [`ShardPolicy`].)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexRouting {
    /// The secondary key embeds the owning row's shard key in its first
    /// `len` bytes (TPC-C customer-by-name starts with `w_id, d_id`).
    OwnerPrefix(usize),
    /// No shard information in the key: lookups probe every shard.
    Probe,
}

impl IndexRouting {
    /// Compact `(tag, arg)` form for the replication protocol (see
    /// [`ShardPolicy::to_wire`]).
    pub fn to_wire(self) -> (u8, u64) {
        match self {
            IndexRouting::Probe => (0, 0),
            IndexRouting::OwnerPrefix(len) => (1, len as u64),
        }
    }

    /// Inverse of [`IndexRouting::to_wire`]; unknown tags fall back to
    /// the always-correct `Probe`.
    pub fn from_wire(tag: u8, arg: u64) -> IndexRouting {
        match tag {
            1 => IndexRouting::OwnerPrefix(arg as usize),
            _ => IndexRouting::Probe,
        }
    }
}

/// One schema entry with its routing, as shipped to a replica: the
/// [`DdlEntry`] plus the wire form of the table's [`ShardPolicy`]
/// (table entries) or the index's [`IndexRouting`] (secondary entries).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutedDdl {
    pub entry: DdlEntry,
    pub route_tag: u8,
    pub route_arg: u64,
}

#[derive(Clone, Copy)]
enum IndexRoute {
    /// Primary index of a table: route by the table's policy.
    Primary(TableId),
    /// Secondary index with its own routing rule.
    Secondary { routing: IndexRouting },
}

/// Immutable routing snapshot: per-table policies and per-index routes,
/// indexed by the dense ids (identical on every shard). Replaced
/// wholesale on DDL; workers cache an `Arc` and revalidate against
/// [`ShardedInner::routing_version`] once per transaction.
struct Routing {
    tables: Vec<ShardPolicy>,
    indexes: Vec<IndexRoute>,
}

impl Routing {
    fn from_catalog(db: &Database) -> Routing {
        let cat = db.inner.catalog.read();
        let tables = vec![ShardPolicy::default(); cat.tables.len()];
        let indexes = cat
            .indexes
            .iter()
            .map(|ix| {
                if ix.is_primary {
                    IndexRoute::Primary(ix.table)
                } else {
                    IndexRoute::Secondary { routing: IndexRouting::Probe }
                }
            })
            .collect();
        Routing { tables, indexes }
    }

    fn hash_shard(policy: ShardPolicy, key: &[u8], shards: usize) -> Option<usize> {
        match policy {
            ShardPolicy::Hash { prefix } => {
                let routed = match prefix {
                    Some(p) if key.len() > p => &key[..p],
                    _ => key,
                };
                Some(shard_of_key(routed, shards))
            }
            ShardPolicy::Replicated => None,
        }
    }
}

// --- 2PC telemetry family -----------------------------------------------

const TWOPC_CROSS: usize = 0;
const TWOPC_PREPARE_HIST: usize = 0;
const TWOPC_DECIDE_HIST: usize = 1;

/// Per-worker 2PC metrics, registered on shard 0's registry.
static TWOPC_FAMILY: FamilyDef = FamilyDef {
    counters: &[MetricDesc {
        name: "ermia_shard_cross_txns_total",
        help: "Cross-shard transactions committed through 2PC",
        kind: MetricKind::Counter,
        label: None,
    }],
    hists: &[
        MetricDesc {
            name: "ermia_2pc_prepare_ns",
            help: "2PC prepare phase latency (all participant prepares durable), ns",
            kind: MetricKind::Counter,
            label: None,
        },
        MetricDesc {
            name: "ermia_2pc_decide_ns",
            help: "2PC verdict append (unforced record on every participant's log), ns",
            kind: MetricKind::Counter,
            label: None,
        },
    ],
};

pub(crate) struct TwoPcTelemetry {
    slab: Arc<Slab>,
    ring: Arc<EventRing>,
}

/// Per-worker tracing state: a span ring (this worker is its single
/// writer) plus the head-sampling countdown. Created whenever telemetry
/// is on so wire-traced requests always have a ring to land in;
/// `sample_n` only governs engine-initiated traces.
pub(crate) struct WorkerTrace {
    ring: Arc<SpanRing>,
    sample_n: u32,
    count: u32,
}

// --- ShardedDb ----------------------------------------------------------

pub(crate) struct ShardedInner {
    dbs: Vec<Database>,
    routing: RwLock<Arc<Routing>>,
    /// Bumped on every DDL so workers revalidate their routing cache
    /// with one relaxed load per transaction.
    routing_version: AtomicU64,
    /// Cross-shard transactions currently between first prepare and
    /// verdict (plus unresolved prepares during recovery).
    in_doubt: AtomicU64,
    /// Test hook: how long a cross-shard commit holds back its publish
    /// once all prepares are durable (`ERMIA_2PC_PREPARE_DELAY_MS`, read
    /// once at open), widening the window the chaos harness SIGKILLs
    /// into: committed on disk, unanswered, no verdict record yet.
    prepare_delay: Duration,
}

/// `S` independent [`Database`] instances behind one namespace.
///
/// Cheap to clone and share across threads, like [`Database`].
#[derive(Clone)]
pub struct ShardedDb {
    pub(crate) inner: Arc<ShardedInner>,
}

fn prepare_delay_from_env() -> Duration {
    std::env::var("ERMIA_2PC_PREPARE_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::ZERO)
}

/// A plain database is the one-shard engine ([`ShardedDb::single`]).
impl From<Database> for ShardedDb {
    fn from(db: Database) -> ShardedDb {
        ShardedDb::single(db)
    }
}

impl ShardedDb {
    /// Open `shards` databases from one config. With a durable config,
    /// shard `i` logs under `<dir>/shard-<i>`; in-memory configs stay
    /// in-memory. All shards share the remaining tuning knobs.
    pub fn open(cfg: DbConfig, shards: usize) -> io::Result<ShardedDb> {
        assert!(shards >= 1, "need at least one shard");
        let mut dbs = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut c = cfg.clone();
            if let Some(dir) = &cfg.log.dir {
                let d = dir.join(format!("shard-{i}"));
                std::fs::create_dir_all(&d)?;
                c.log.dir = Some(d);
            }
            dbs.push(Database::open(c)?);
        }
        Ok(ShardedDb::from_shards(dbs))
    }

    /// Wrap an already-open database as a one-shard `ShardedDb`. Routing
    /// is picked up from its catalog; every operation passes straight
    /// through to the inner engine.
    pub fn single(db: Database) -> ShardedDb {
        ShardedDb::from_shards(vec![db])
    }

    /// Wrap already-open per-shard handles (e.g. a replica's snapshot
    /// views) as one `ShardedDb`. Shard catalogs must be identical, as
    /// they are when every shard replayed the same DDL. Routing starts
    /// on the default hash policy; a replica of a primary with explicit
    /// policies must install them with
    /// [`ShardedDb::refresh_routing_with`] (the shipped schema carries
    /// them), or reads of co-located keys would route to the wrong
    /// shard.
    pub fn from_shards(dbs: Vec<Database>) -> ShardedDb {
        assert!(!dbs.is_empty(), "need at least one shard");
        let routing = Routing::from_catalog(&dbs[0]);
        let inner = Arc::new(ShardedInner {
            dbs,
            routing: RwLock::new(Arc::new(routing)),
            routing_version: AtomicU64::new(1),
            in_doubt: AtomicU64::new(0),
            prepare_delay: prepare_delay_from_env(),
        });
        register_shard_collectors(&inner);
        ShardedDb { inner }
    }

    /// Rebuild the routing snapshot from shard 0's current catalog (all
    /// tables on the default hash policy) and force workers to re-read
    /// it. A replica calls this after replaying newly shipped DDL so
    /// reads route to tables created since the wrapper was built.
    pub fn refresh_routing(&self) {
        self.refresh_routing_with(&[], &[]);
    }

    /// [`ShardedDb::refresh_routing`] with explicit per-table policies
    /// and per-secondary-index routing rules layered on top of the
    /// catalog defaults. A replica passes the policies shipped with the
    /// primary's schema so its reads route exactly like the primary's.
    /// Out-of-range ids are ignored (a policy for a table whose DDL has
    /// not replayed yet applies on the next refresh).
    pub fn refresh_routing_with(
        &self,
        policies: &[(TableId, ShardPolicy)],
        secondaries: &[(IndexId, IndexRouting)],
    ) {
        let mut routing = Routing::from_catalog(&self.inner.dbs[0]);
        for &(table, policy) in policies {
            if let Some(slot) = routing.tables.get_mut(table.0 as usize) {
                *slot = policy;
            }
        }
        for &(index, rule) in secondaries {
            if let Some(slot @ IndexRoute::Secondary { .. }) =
                routing.indexes.get_mut(index.0 as usize)
            {
                *slot = IndexRoute::Secondary { routing: rule };
            }
        }
        *self.inner.routing.write() = Arc::new(routing);
        self.inner.routing_version.fetch_add(1, Relaxed);
    }

    /// The schema DDL (creation order, as [`Database::schema_ddl`]) with
    /// each entry's routing attached: the table's [`ShardPolicy`] for
    /// table entries, the [`IndexRouting`] for secondary entries. This
    /// is what ships to a replica, which must reproduce not only the
    /// dense ids but the routing that placed every key.
    pub fn schema_ddl_routed(&self) -> Vec<RoutedDdl> {
        let routing = self.inner.routing.read().clone();
        let db = &self.inner.dbs[0];
        let cat = db.inner.catalog.read();
        cat.indexes
            .iter()
            .enumerate()
            .map(|(i, ix)| {
                let entry = DdlEntry {
                    table: cat.tables[ix.table.0 as usize].name.clone(),
                    secondary: (!ix.is_primary).then(|| ix.name.clone()),
                };
                let route = if ix.is_primary {
                    routing
                        .tables
                        .get(ix.table.0 as usize)
                        .copied()
                        .unwrap_or_default()
                        .to_wire()
                } else {
                    match routing.indexes.get(i) {
                        Some(&IndexRoute::Secondary { routing }) => routing.to_wire(),
                        _ => IndexRouting::Probe.to_wire(),
                    }
                };
                RoutedDdl { entry, route_tag: route.0, route_arg: route.1 }
            })
            .collect()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.dbs.len()
    }

    /// Direct access to one shard's engine (tests, benchmarks, stats).
    pub fn shard(&self, i: usize) -> &Database {
        &self.inner.dbs[i]
    }

    /// Create a table on every shard with the default hash policy (or
    /// return the existing id). Ids are dense and identical across
    /// shards because all DDL goes through this namespace.
    pub fn create_table(&self, name: &str) -> TableId {
        self.create_table_inner(name, None)
    }

    /// Create a table with an explicit [`ShardPolicy`] (also updates the
    /// policy of an existing table).
    pub fn create_table_with_policy(&self, name: &str, policy: ShardPolicy) -> TableId {
        self.create_table_inner(name, Some(policy))
    }

    fn create_table_inner(&self, name: &str, policy: Option<ShardPolicy>) -> TableId {
        let inner = &self.inner;
        let mut ids = inner.dbs.iter().map(|d| d.create_table(name));
        let id = ids.next().expect("at least one shard");
        for other in ids {
            assert_eq!(other, id, "shard catalogs diverged for table {name:?}");
        }
        let primary = inner.dbs[0].primary_index(id);
        let mut guard = inner.routing.write();
        let mut routing = Routing {
            tables: guard.tables.clone(),
            indexes: guard.indexes.clone(),
        };
        let ti = id.0 as usize;
        if routing.tables.len() <= ti {
            routing.tables.resize(ti + 1, ShardPolicy::default());
        }
        if let Some(p) = policy {
            routing.tables[ti] = p;
        }
        let pi = primary.0 as usize;
        if routing.indexes.len() <= pi {
            routing.indexes.resize(pi + 1, IndexRoute::Primary(id));
        }
        routing.indexes[pi] = IndexRoute::Primary(id);
        *guard = Arc::new(routing);
        inner.routing_version.fetch_add(1, Relaxed);
        id
    }

    /// Create a secondary index on every shard with an explicit routing
    /// rule. Panics on [`ShardPolicy::Replicated`] tables: their OIDs
    /// differ per shard, so one secondary entry cannot name all copies.
    pub fn create_secondary_index(
        &self,
        table: TableId,
        name: &str,
        routing: IndexRouting,
    ) -> IndexId {
        let inner = &self.inner;
        assert!(
            inner.routing.read().tables.get(table.0 as usize).copied()
                != Some(ShardPolicy::Replicated),
            "replicated tables cannot carry secondary indexes"
        );
        let mut ids = inner.dbs.iter().map(|d| d.create_secondary_index(table, name));
        let id = ids.next().expect("at least one shard");
        for other in ids {
            assert_eq!(other, id, "shard catalogs diverged for index {name:?}");
        }
        let mut guard = inner.routing.write();
        let mut new = Routing {
            tables: guard.tables.clone(),
            indexes: guard.indexes.clone(),
        };
        let ii = id.0 as usize;
        if new.indexes.len() <= ii {
            new.indexes.resize(ii + 1, IndexRoute::Secondary { routing });
        }
        new.indexes[ii] = IndexRoute::Secondary { routing };
        *guard = Arc::new(new);
        inner.routing_version.fetch_add(1, Relaxed);
        id
    }

    /// Check out a worker holding one engine [`Worker`] per shard.
    pub fn register_worker(&self) -> ShardedWorker {
        let inner = &self.inner;
        let workers = inner.dbs.iter().map(|d| d.register_worker()).collect();
        let db0 = &inner.dbs[0];
        let twopc = TwoPcTelemetry {
            slab: db0.telemetry().registry().register_slab(&TWOPC_FAMILY),
            ring: db0.telemetry().flight().ring(),
        };
        let trace = WorkerTrace {
            ring: db0.telemetry().tracer().ring(),
            sample_n: db0.inner.cfg.trace_sample_n,
            count: 0,
        };
        ShardedWorker {
            db: self.clone(),
            workers,
            routing: inner.routing.read().clone(),
            routing_version: inner.routing_version.load(Relaxed),
            twopc,
            trace,
            resolver: None,
        }
    }

    /// Number of tables (identical on every shard).
    pub fn table_count(&self) -> usize {
        self.inner.dbs[0].table_count()
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner.dbs[0].table_id(name)
    }

    /// Look up an index id by name.
    pub fn index_id(&self, name: &str) -> Option<IndexId> {
        self.inner.dbs[0].index_id(name)
    }

    /// A table's primary index id (identical on every shard).
    pub fn primary_index(&self, table: TableId) -> IndexId {
        self.inner.dbs[0].primary_index(table)
    }

    /// Shard 0's telemetry layer — where the shard collectors, 2PC
    /// metric slabs and cross-shard flight events land.
    pub fn telemetry(&self) -> &ermia_telemetry::Telemetry {
        self.inner.dbs[0].telemetry()
    }

    /// Degraded if *any* shard is degraded: a cross-shard writer cannot
    /// make progress with one poisoned participant log.
    pub fn state(&self) -> DbState {
        if self.inner.dbs.iter().any(|d| d.state() == DbState::Degraded) {
            DbState::Degraded
        } else {
            DbState::Active
        }
    }

    /// Resume every shard from degraded read-only mode.
    pub fn resume(&self) -> io::Result<()> {
        for db in &self.inner.dbs {
            db.resume()?;
        }
        Ok(())
    }

    /// Summed (commits, aborts) across shards. A cross-shard commit
    /// counts once per participant, which is what per-shard throughput
    /// accounting wants.
    pub fn txn_counts(&self) -> (u64, u64) {
        let mut c = 0;
        let mut a = 0;
        for db in &self.inner.dbs {
            let (dc, da) = db.txn_counts();
            c += dc;
            a += da;
        }
        (c, a)
    }

    /// Summed in-flight TID slots across shards.
    pub fn tid_slots_in_use(&self) -> usize {
        self.inner.dbs.iter().map(|d| d.tid_slots_in_use()).sum()
    }

    /// The *minimum* durable offset across shards — the conservative
    /// answer to "is everything up to my offset durable" for callers
    /// that only track one number.
    pub fn log_durable_offset(&self) -> u64 {
        self.inner.dbs.iter().map(|d| d.log().durable_offset()).min().unwrap_or(0)
    }

    /// This node's replication role (shard 0 speaks for all: a replica
    /// marks every shard).
    pub fn role(&self) -> NodeRole {
        self.inner.dbs[0].role()
    }

    /// The *minimum* applied offset across shards (0 on a primary) —
    /// the conservative catch-up point for lag reporting.
    pub fn applied_lsn(&self) -> u64 {
        self.inner.dbs.iter().map(|d| d.applied_lsn()).min().unwrap_or(0)
    }

    /// Checkpoint every shard; returns the per-shard begin LSNs.
    pub fn checkpoint(&self) -> io::Result<Vec<Lsn>> {
        self.inner.dbs.iter().map(|d| d.checkpoint()).collect()
    }

    /// Truncate every shard's log below its checkpoint; returns the
    /// total number of retired segments.
    pub fn truncate_log(&self) -> io::Result<usize> {
        let mut n = 0;
        for db in &self.inner.dbs {
            n += db.truncate_log()?;
        }
        Ok(n)
    }

    /// Recover every shard and resolve cross-shard in-doubt prepares.
    ///
    /// Each shard's scan yields (a) its replay stats, (b) prepares with
    /// no local verdict, and (c) every verdict record in its log. An
    /// in-doubt prepare commits if any shard's log holds a commit verdict
    /// for its gtid and aborts if any holds an abort verdict. With no
    /// verdict anywhere it commits iff as many shards hold a prepare for
    /// the gtid as its marker counts: a commit is only ever published or
    /// acknowledged once every prepare is durable, so a missing prepare
    /// proves nobody saw it, and a full set with no abort verdict proves
    /// nobody who durably committed afterwards saw it rolled back. A
    /// marker without a count (a log older than this rule) needs the
    /// explicit commit verdict it was written under.
    ///
    /// Every resolution is then appended to the shard's log as a verdict
    /// record, so a replica tailing the log — and the next recovery,
    /// whatever has been truncated by then — goes by the same answer.
    pub fn recover(&self) -> io::Result<ShardRecoveryStats> {
        let inner = &self.inner;
        let mut outcomes = Vec::with_capacity(inner.dbs.len());
        for db in &inner.dbs {
            outcomes.push(db.recover_outcome()?);
        }
        // The verdicts stay the per-shard sets they arrived as: only the
        // in-doubt few are ever looked up.
        let verdicts: Vec<_> =
            outcomes.iter_mut().map(|o| std::mem::take(&mut o.decides)).collect();
        let mut holders: HashMap<(u32, u64), u32> = HashMap::new();
        for txn in outcomes.iter().flat_map(|o| &o.in_doubt) {
            *holders.entry((txn.coord_shard, txn.gtid_lsn)).or_default() += 1;
        }
        inner.in_doubt.store(holders.values().map(|&n| n as u64).sum(), Relaxed);
        let mut stats = ShardRecoveryStats {
            per_shard: Vec::with_capacity(outcomes.len()),
            resolved_commits: 0,
            resolved_aborts: 0,
            resolved_implicit: 0,
        };
        let ring = &inner.dbs[0].inner.svc_ring;
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            for txn in &outcome.in_doubt {
                let key = (txn.coord_shard, txn.gtid_lsn);
                let recorded = |commit| verdicts.iter().any(|v| v.get(key) == Some(commit));
                let implicit = !recorded(true) && !recorded(false);
                let commit = if implicit {
                    txn.participants != 0 && holders[&key] == txn.participants
                } else {
                    recorded(true)
                };
                if commit {
                    inner.dbs[shard].apply_in_doubt(txn)?;
                    stats.resolved_commits += 1;
                } else {
                    stats.resolved_aborts += 1;
                }
                stats.resolved_implicit += implicit as u64;
                let rec = DecideRecord { gtid_lsn: key.1, coord_shard: key.0, commit };
                write_decide(&inner.dbs[shard], rec)?;
                ring.record(EventKind::TwoPcResolve, key.1, commit as u64 | (implicit as u64) << 1);
                inner.in_doubt.fetch_sub(1, Relaxed);
            }
            stats.per_shard.push(outcome.stats);
        }
        Ok(stats)
    }
}

/// What [`ShardedDb::recover`] did.
#[derive(Debug)]
pub struct ShardRecoveryStats {
    /// Per-shard replay stats, in shard order.
    pub per_shard: Vec<RecoveryStats>,
    /// In-doubt prepares rolled forward.
    pub resolved_commits: u64,
    /// In-doubt prepares dropped.
    pub resolved_aborts: u64,
    /// Of the two above, those no verdict record decided: committed
    /// because every participant's prepare was found, aborted because
    /// one was not.
    pub resolved_implicit: u64,
}

/// Register the shard-level collector on shard 0's registry: shard
/// count, per-shard transaction counters, and the in-doubt gauge. The
/// closure holds a `Weak` so the registry never keeps the sharded
/// wrapper alive.
fn register_shard_collectors(inner: &Arc<ShardedInner>) {
    let registry = inner.dbs[0].telemetry().registry();
    let group = registry.group();
    let weak: Weak<ShardedInner> = Arc::downgrade(inner);
    registry.register_collector(group, move |out| {
        let Some(sd) = weak.upgrade() else { return };
        out.push(Sample::gauge("ermia_shard_count", "Engine shards", sd.dbs.len() as f64));
        out.push(Sample::gauge(
            "ermia_shard_in_doubt",
            "Cross-shard transactions prepared but not yet decided",
            sd.in_doubt.load(Relaxed) as f64,
        ));
        for (i, db) in sd.dbs.iter().enumerate() {
            let (c, a) = db.txn_counts();
            out.push(
                Sample::counter(
                    "ermia_shard_txns_total",
                    "Transactions finished per shard (commits + aborts)",
                    c + a,
                )
                .labeled("shard", i.to_string()),
            );
        }
    });
}

// --- Decide records -----------------------------------------------------

/// Total length of a TxnDecide block (header + 16-byte record, rounded
/// up to the allocation grain).
const DECIDE_BLOCK_LEN: usize =
    (BLOCK_HEADER_LEN + DECIDE_RECORD_LEN).div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN;

/// Append a TxnDecide block to `db`'s log. Returns the block's
/// exclusive end offset for durability waiting.
fn write_decide(db: &Database, rec: DecideRecord) -> io::Result<u64> {
    let res = db.inner.log.allocate(DECIDE_BLOCK_LEN)?;
    let lsn = res.lsn();
    let end = res.end_offset();
    let mut block = [0u8; DECIDE_BLOCK_LEN];
    block[BLOCK_HEADER_LEN..BLOCK_HEADER_LEN + DECIDE_RECORD_LEN]
        .copy_from_slice(&rec.encode());
    let header = LogBlockHeader {
        kind: BlockKind::TxnDecide,
        nrec: 0,
        len: DECIDE_BLOCK_LEN as u32,
        checksum: checksum32(&block[BLOCK_HEADER_LEN..]),
        cstamp: lsn,
        prev: rec.gtid_lsn,
    };
    header.encode_into(&mut block);
    res.fill(&block);
    Ok(end)
}

// --- ShardedWorker ------------------------------------------------------

/// One engine [`Worker`] per shard plus a cached routing snapshot.
pub struct ShardedWorker {
    db: ShardedDb,
    workers: Vec<Worker>,
    routing: Arc<Routing>,
    routing_version: u64,
    twopc: TwoPcTelemetry,
    trace: WorkerTrace,
    /// The worker a blocking cross-shard [`ShardedTransaction::commit`]
    /// resolves its [`StagedCommit`] on (this one is still borrowed by
    /// the transaction then). Registered by the first such commit.
    resolver: Option<Box<ShardedWorker>>,
}

impl ShardedWorker {
    /// Begin a transaction. Inner per-shard transactions start lazily
    /// on first touch, so a transaction that stays on one shard costs
    /// exactly one engine begin.
    pub fn begin(&mut self, isolation: IsolationLevel) -> ShardedTransaction<'_> {
        self.begin_traced(isolation, None)
    }

    /// [`ShardedWorker::begin`] with an explicit wire-propagated trace
    /// context. `None` (or an untraced context) falls back to head
    /// sampling: with `DbConfig::trace_sample_n = N`, every Nth begin
    /// on this worker mints a fresh trace id. An untraced transaction's
    /// whole tracing cost is the `Option` branch per operation.
    pub fn begin_traced(
        &mut self,
        isolation: IsolationLevel,
        ctx: Option<TraceContext>,
    ) -> ShardedTransaction<'_> {
        let v = self.db.inner.routing_version.load(Relaxed);
        if v != self.routing_version {
            self.routing = self.db.inner.routing.read().clone();
            self.routing_version = v;
        }
        // Resolve the active context before splitting the borrows: wire
        // context wins; otherwise head sampling every Nth begin.
        let t = &mut self.trace;
        let active = match ctx {
            Some(c) if c.is_traced() => Some((c, false)),
            _ if t.sample_n != 0 => {
                t.count += 1;
                if t.count >= t.sample_n {
                    t.count = 0;
                    let (hi, lo) = self.db.inner.dbs[0].telemetry().tracer().new_trace_id();
                    Some((TraceContext { trace_hi: hi, trace_lo: lo, parent: 0 }, true))
                } else {
                    None
                }
            }
            _ => None,
        };
        let ShardedWorker { db, workers, routing, twopc, trace, resolver, .. } = self;
        let trace = active.map(|(ctx, sampled)| ActiveTrace {
            ctx,
            ring: &trace.ring,
            start_ns: trace.ring.now_ns(),
            sampled,
        });
        let slots = if workers.len() == 1 {
            Slots::One(TxSlot::Idle(&mut workers[0]))
        } else {
            Slots::Many(workers.iter_mut().map(TxSlot::Idle).collect())
        };
        ShardedTransaction { db: &*db, routing, twopc, isolation, slots, trace, resolver }
    }
}

impl Drop for ShardedWorker {
    fn drop(&mut self) {
        let tel = self.db.inner.dbs[0].telemetry();
        tel.registry().retire_slab(&TWOPC_FAMILY, &self.twopc.slab);
        tel.flight().retire(&self.twopc.ring);
        tel.tracer().retire(&self.trace.ring);
    }
}

// --- ShardedTransaction -------------------------------------------------

enum TxSlot<'w> {
    Idle(&'w mut Worker),
    Active(Transaction<'w>),
    /// Transient state while a slot is being activated.
    Busy,
}

enum Slots<'w> {
    /// `S == 1`: no allocation, no routing.
    One(TxSlot<'w>),
    Many(Vec<TxSlot<'w>>),
}

impl<'w> Slots<'w> {
    fn get_mut(&mut self, i: usize) -> &mut TxSlot<'w> {
        match self {
            Slots::One(s) => {
                debug_assert_eq!(i, 0);
                s
            }
            Slots::Many(v) => &mut v[i],
        }
    }
}

/// A transaction over the sharded namespace. Routes each operation to
/// the owning shard's inner [`Transaction`]; commit runs the inner
/// commit directly (one participant) or 2PC (several writers).
pub struct ShardedTransaction<'w> {
    db: &'w ShardedDb,
    routing: &'w Routing,
    twopc: &'w TwoPcTelemetry,
    isolation: IsolationLevel,
    slots: Slots<'w>,
    trace: Option<ActiveTrace<'w>>,
    resolver: &'w mut Option<Box<ShardedWorker>>,
}

/// Tracing state of one *traced* transaction: the propagated context,
/// the owning worker's span ring, and the begin timestamp the tail-based
/// slow-op check measures against.
#[derive(Clone, Copy)]
struct ActiveTrace<'w> {
    ctx: TraceContext,
    ring: &'w SpanRing,
    start_ns: u64,
    /// Engine-sampled (head sampling) rather than wire-propagated: the
    /// engine owns slow-op capture at commit. Wire-traced ops are
    /// captured by the server at request completion instead, with the
    /// opcode/table/key attribution only that layer has.
    sampled: bool,
}

/// Pack a (shard, oid) pair into the opaque row handle inserts return.
fn pack_handle(shard: usize, oid: Oid) -> u64 {
    ((shard as u64) << 32) | oid.0 as u64
}

fn unpack_handle(handle: u64) -> (usize, Oid) {
    ((handle >> 32) as usize, Oid(handle as u32))
}

impl<'w> ShardedTransaction<'w> {
    fn nshards(&self) -> usize {
        self.db.inner.dbs.len()
    }

    /// Tracing hook: `(ring, ctx, now_ns)` for a traced transaction,
    /// `None` (one branch, nothing else) otherwise. The returned
    /// borrows are free of `self`, so callers can record after a
    /// `&mut self` operation.
    #[inline]
    fn span_start(&self) -> Option<(&'w SpanRing, TraceContext, u64)> {
        self.trace.as_ref().map(|t| (t.ring, t.ctx, t.ring.now_ns()))
    }

    /// The inner transaction on `shard`, started on first touch.
    fn txn_at(&mut self, shard: usize) -> &mut Transaction<'w> {
        let iso = self.isolation;
        let sp = self.span_start();
        let slot = self.slots.get_mut(shard);
        if matches!(slot, TxSlot::Idle(_)) {
            let TxSlot::Idle(w) = std::mem::replace(slot, TxSlot::Busy) else {
                unreachable!()
            };
            *slot = TxSlot::Active(Transaction::begin(w, iso));
            if let Some((ring, ctx, t0)) = sp {
                ring.record(&ctx, SpanKind::TxnBegin, t0, ring.now_ns(), shard as u64, 0);
            }
        }
        match slot {
            TxSlot::Active(t) => t,
            _ => unreachable!("slot is never left busy"),
        }
    }

    fn table_policy(&self, table: TableId) -> ShardPolicy {
        self.routing.tables.get(table.0 as usize).copied().unwrap_or_default()
    }

    /// Owning shard for a primary-key operation; `None` = replicated.
    fn home_shard(&self, table: TableId, key: &[u8]) -> Option<usize> {
        let n = self.nshards();
        if n == 1 {
            return Some(0);
        }
        Routing::hash_shard(self.table_policy(table), key, n)
    }

    /// Read a record by primary key.
    pub fn read<R>(
        &mut self,
        table: TableId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        // Replicated reads anchor on shard 0.
        let shard = self.home_shard(table, key).unwrap_or(0);
        let sp = self.span_start();
        let r = self.txn_at(shard).read(table, key, f);
        if let Some((ring, ctx, t0)) = sp {
            ring.record(&ctx, SpanKind::TxnRead, t0, ring.now_ns(), table.0 as u64, shard as u64);
        }
        r
    }

    /// Tracing hook for write-path ops: one `TxnWrite` span per call.
    #[inline]
    fn record_write_span(
        &self,
        sp: Option<(&'w SpanRing, TraceContext, u64)>,
        table: TableId,
        shard: Option<usize>,
    ) {
        if let Some((ring, ctx, t0)) = sp {
            let b = shard.map(|s| s as u64).unwrap_or(u64::MAX);
            ring.record(&ctx, SpanKind::TxnWrite, t0, ring.now_ns(), table.0 as u64, b);
        }
    }

    /// Update a record; fans out on replicated tables.
    pub fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool> {
        let sp = self.span_start();
        let home = self.home_shard(table, key);
        let r = match home {
            Some(s) => self.txn_at(s).update(table, key, value),
            None => {
                let mut hit = false;
                for s in 0..self.nshards() {
                    let r = self.txn_at(s).update(table, key, value)?;
                    if s == 0 {
                        hit = r;
                    }
                }
                Ok(hit)
            }
        };
        self.record_write_span(sp, table, home);
        r
    }

    /// Delete a record; fans out on replicated tables.
    pub fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool> {
        let sp = self.span_start();
        let home = self.home_shard(table, key);
        let r = match home {
            Some(s) => self.txn_at(s).delete(table, key),
            None => {
                let mut hit = false;
                for s in 0..self.nshards() {
                    let r = self.txn_at(s).delete(table, key)?;
                    if s == 0 {
                        hit = r;
                    }
                }
                Ok(hit)
            }
        };
        self.record_write_span(sp, table, home);
        r
    }

    /// Insert a record. Returns an opaque handle (shard + OID) for
    /// [`ShardedTransaction::insert_secondary`].
    pub fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<u64> {
        let sp = self.span_start();
        let home = self.home_shard(table, key);
        let r = match home {
            Some(s) => {
                let oid = self.txn_at(s).insert(table, key, value)?;
                Ok(pack_handle(s, oid))
            }
            None => {
                let mut handle = 0;
                for s in 0..self.nshards() {
                    let oid = self.txn_at(s).insert(table, key, value)?;
                    if s == 0 {
                        handle = pack_handle(0, oid);
                    }
                }
                Ok(handle)
            }
        };
        self.record_write_span(sp, table, home);
        r
    }

    /// Register a secondary-index entry for a row inserted in this
    /// transaction. The handle names the owning shard, so the entry
    /// lands next to the row.
    pub fn insert_secondary(&mut self, index: IndexId, key: &[u8], handle: u64) -> OpResult<()> {
        let (shard, oid) = unpack_handle(handle);
        self.txn_at(shard).insert_secondary(index, key, oid)
    }

    /// Read through a secondary index. `OwnerPrefix` keys route
    /// directly; `Probe` keys search shards in order.
    pub fn read_secondary<R>(
        &mut self,
        index: IndexId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        let n = self.nshards();
        if n == 1 {
            return self.txn_at(0).read_secondary(index, key, f);
        }
        match self.routing.indexes.get(index.0 as usize).copied() {
            Some(IndexRoute::Primary(table)) => {
                let shard = self.home_shard(table, key).unwrap_or(0);
                self.txn_at(shard).read_secondary(index, key, f)
            }
            Some(IndexRoute::Secondary { routing: IndexRouting::OwnerPrefix(len) }) => {
                let routed = &key[..len.min(key.len())];
                let shard = shard_of_key(routed, n);
                self.txn_at(shard).read_secondary(index, key, f)
            }
            Some(IndexRoute::Secondary { routing: IndexRouting::Probe }) | None => {
                for s in 0..n {
                    if let Some(bytes) =
                        self.txn_at(s).read_secondary(index, key, |v| v.to_vec())?
                    {
                        return Ok(Some(f(&bytes)));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Which single shard serves a `[low, high]` scan, if any. Sound
    /// because byte-wise order means every key in the range shares any
    /// prefix `low` and `high` agree on.
    fn scan_shard(&self, index: IndexId, low: &[u8], high: &[u8]) -> Option<usize> {
        let n = self.nshards();
        if n == 1 {
            return Some(0);
        }
        let prefix_route = |p: usize| -> Option<usize> {
            (low.len() >= p && high.len() >= p && low[..p] == high[..p])
                .then(|| shard_of_key(&low[..p], n))
        };
        match self.routing.indexes.get(index.0 as usize).copied() {
            Some(IndexRoute::Primary(table)) => match self.table_policy(table) {
                ShardPolicy::Replicated => Some(0),
                ShardPolicy::Hash { prefix: Some(p) } => prefix_route(p),
                ShardPolicy::Hash { prefix: None } => {
                    (low == high).then(|| shard_of_key(low, n))
                }
            },
            Some(IndexRoute::Secondary { routing: IndexRouting::OwnerPrefix(p) }) => {
                prefix_route(p)
            }
            Some(IndexRoute::Secondary { routing: IndexRouting::Probe }) | None => None,
        }
    }

    /// Range scan, ascending, both bounds inclusive. Single-shard when
    /// the routed prefix pins the range; otherwise every shard is
    /// scanned and results are merged in key order.
    pub fn scan(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        let sp = self.span_start();
        if let Some(s) = self.scan_shard(index, low, high) {
            let r = self.txn_at(s).scan(index, low, high, limit, f);
            if let (Some((ring, ctx, t0)), Ok(n)) = (sp, &r) {
                ring.record(&ctx, SpanKind::TxnScan, t0, ring.now_ns(), index.0 as u64, *n as u64);
            }
            return r;
        }
        let mut rows: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for s in 0..self.nshards() {
            self.txn_at(s).scan(index, low, high, limit, |k, v| {
                rows.push((k.to_vec(), v.to_vec()));
                true
            })?;
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut delivered = 0usize;
        for (k, v) in &rows {
            if limit.is_some_and(|l| delivered >= l) {
                break;
            }
            delivered += 1;
            if !f(k, v) {
                break;
            }
        }
        if let Some((ring, ctx, t0)) = sp {
            ring.record(
                &ctx,
                SpanKind::TxnScan,
                t0,
                ring.now_ns(),
                index.0 as u64,
                delivered as u64,
            );
        }
        Ok(delivered)
    }

    /// Whether any participant has been doomed.
    pub fn is_doomed(&self) -> bool {
        let check = |s: &TxSlot<'_>| matches!(s, TxSlot::Active(t) if t.is_doomed());
        match &self.slots {
            Slots::One(s) => check(s),
            Slots::Many(v) => v.iter().any(check),
        }
    }

    /// Abort every participant, as dropping the transaction does.
    pub fn abort(self) {}

    /// Commit and wait for durability (on a synchronous-commit
    /// database). Returns the commit LSN — the coordinator's cstamp for
    /// a cross-shard transaction, whose [`StagedCommit`] this drives to
    /// its verdict with blocking waits.
    pub fn commit(self) -> TxResult<Lsn> {
        let ShardedTransaction { db, twopc, trace, slots, resolver, .. } = self;
        match commit_slots(db, twopc, trace, slots, true)? {
            DeferredCommit::Committed(token) => Ok(token.lsn()),
            DeferredCommit::Staged(staged) => {
                let resolver = resolver.get_or_insert_with(|| Box::new(db.register_worker()));
                staged.wait(resolver).map(|token| token.lsn())
            }
        }
    }

    /// Commit without waiting for durability. A transaction that wrote
    /// on at most one shard is committed in memory when this returns, and
    /// the token names the shard whose log backs it. One that wrote on
    /// several is only *prepared* on each, and committed once every
    /// prepare is durable — so the caller gets the [`StagedCommit`] to
    /// drive (or hand to whoever waits on logs) and its worker back at
    /// once.
    pub fn commit_deferred(self) -> TxResult<DeferredCommit> {
        let ShardedTransaction { db, twopc, trace, slots, .. } = self;
        commit_slots(db, twopc, trace, slots, false)
    }
}

/// The one handle on a commit in flight, whatever it still waits for.
///
/// Either way it waits only on log offsets ([`DeferredCommit::waits`]),
/// and [`DeferredCommit::poll`] reports how far durability has carried
/// it, so whoever holds one — the server's durability parker holds
/// hundreds — drives both cases with the same calls.
pub enum DeferredCommit {
    /// Committed in memory: the already-finalized case, with at most one
    /// log offset to await and no verdict record owed.
    Committed(CommitToken),
    /// Prepared on every writer shard; the verdict is still to come.
    Staged(Box<StagedCommit>),
}

impl DeferredCommit {
    /// The receipt, if the commit was published in memory before
    /// [`ShardedTransaction::commit_deferred`] returned. A staged commit
    /// has none until [`DeferredCommit::poll`] delivers its verdict, and
    /// must not be left with a thread that executes transactions: one of
    /// them may wait on its prepared heads.
    pub fn published(&self) -> Option<CommitToken> {
        match self {
            DeferredCommit::Committed(token) => Some(*token),
            DeferredCommit::Staged(_) => None,
        }
    }

    /// The log offsets awaited now, as (shard, end offset) pairs.
    pub fn waits(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (token, staged) = match self {
            DeferredCommit::Committed(token) => (Some(token), None),
            DeferredCommit::Staged(staged) => (None, Some(staged)),
        };
        let own = token.and_then(|t| t.end_offset().map(|end| (t.shard() as usize, end)));
        own.into_iter().chain(staged.into_iter().flat_map(|s| s.waits()))
    }

    /// See [`StagedCommit::not_before`].
    pub fn not_before(&self) -> Option<Instant> {
        match self {
            DeferredCommit::Committed(_) => None,
            DeferredCommit::Staged(staged) => staged.not_before(),
        }
    }

    /// Move as far as durability allows, without blocking. `None` while
    /// a wait is outstanding; then `Ok` of the transaction's verdict (a
    /// staged commit's is delivered on `resolver`, see
    /// [`StagedCommit::poll`]) — or `Err` when the log failed under a
    /// commit that is already published: it is not rolled back, and its
    /// on-disk fate is indeterminate until restart recovery.
    pub fn poll(
        &mut self,
        resolver: &mut ShardedWorker,
    ) -> Option<Result<TxResult<CommitToken>, LogError>> {
        match self {
            DeferredCommit::Committed(token) => {
                // A token without an offset occupied no log space.
                let status = token.end_offset().map_or(Ok(true), |end| {
                    resolver.db.inner.dbs[token.shard() as usize].inner.log.durable_status(end)
                });
                match status {
                    Ok(true) => Some(Ok(Ok(*token))),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                }
            }
            DeferredCommit::Staged(staged) => staged.poll(resolver).map(Ok),
        }
    }

    /// Give up waiting. A staged commit aborts ([`StagedCommit::abort`]);
    /// a published one stands.
    pub fn abort(&mut self, resolver: &mut ShardedWorker) {
        if let DeferredCommit::Staged(staged) = self {
            staged.abort(resolver);
        }
    }

    /// Pay the verdict record a staged commit owes the logs since `poll`
    /// published it ([`StagedCommit::write_verdict`]).
    pub fn write_verdict(&mut self, resolver: &mut ShardedWorker) {
        if let DeferredCommit::Staged(staged) = self {
            staged.write_verdict(resolver);
        }
    }
}

/// Shared commit tail for [`ShardedTransaction::commit`] (sync) and
/// [`ShardedTransaction::commit_deferred`]: read-only participants
/// commit first, then the writers — none, one (the plain single-database
/// commit), or several (2PC).
fn commit_slots<'w>(
    db: &ShardedDb,
    twopc: &TwoPcTelemetry,
    trace: Option<ActiveTrace<'_>>,
    slots: Slots<'w>,
    sync: bool,
) -> TxResult<DeferredCommit> {
    let slots = match slots {
        // One shard, one participant: no slot Vec materialized. Sampled
        // commits must stay on the allocation-free path (see
        // tests/alloc_free.rs).
        Slots::One(TxSlot::Active(t)) => {
            return commit_one(db, trace, 0, t, sync).map(DeferredCommit::Committed)
        }
        Slots::One(slot) => vec![slot],
        Slots::Many(slots) => slots,
    };
    let mut readonly: Vec<(usize, Transaction<'w>)> = Vec::new();
    let mut writers: Vec<(usize, Transaction<'w>)> = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            TxSlot::Active(t) if t.has_writes() => writers.push((i, t)),
            TxSlot::Active(t) => readonly.push((i, t)),
            _ => {}
        }
    }
    // Read-only participants first: they publish nothing, so a failure
    // here (doomed by SSN read validation) can still abort the writers,
    // which it does as they drop.
    let mut token = CommitToken::readonly_at(db.inner.dbs[0].now_lsn());
    for (i, t) in readonly {
        token = t.commit_deferred()?.on_shard(i);
    }
    match writers.len() {
        0 => {
            capture_slow(db, trace);
            Ok(DeferredCommit::Committed(token))
        }
        1 => {
            let (i, t) = writers.pop().expect("len checked");
            commit_one(db, trace, i, t, sync).map(DeferredCommit::Committed)
        }
        // From here the staged commit owns tail capture: its trace ends
        // with its verdict.
        _ => StagedCommit::prepare(db, twopc, trace, writers).map(DeferredCommit::Staged),
    }
}

/// Commit a single participant `t` on shard `i`: the inner commit plus
/// the durability/commit span and the engine-sampled tail capture.
/// Deliberately Vec-free — sampled single-shard commits ride the
/// allocation-free hot path (tests/alloc_free.rs asserts this).
fn commit_one(
    db: &ShardedDb,
    trace: Option<ActiveTrace<'_>>,
    i: usize,
    t: Transaction<'_>,
    sync: bool,
) -> TxResult<CommitToken> {
    // A commit waits for its block only on a synchronous-commit
    // database; the inner call is then dominated by the group-commit
    // wait, which is what the span names.
    let wait = sync && db.inner.dbs[i].inner.cfg.synchronous_commit;
    let t0 = trace.map_or(0, |tr| tr.ring.now_ns());
    let token = t.commit_impl(wait)?.on_shard(i);
    if let Some(tr) = trace {
        let kind = if wait { SpanKind::DurabilityWait } else { SpanKind::CommitDeferred };
        tr.ring.record(&tr.ctx, kind, t0, tr.ring.now_ns(), i as u64, 0);
    }
    capture_slow(db, trace);
    Ok(token)
}

/// Tail-based slow-op capture for engine-sampled traces: the server owns
/// it for wire-traced requests (it knows the opcode and key).
fn capture_slow(db: &ShardedDb, trace: Option<ActiveTrace<'_>>) {
    if let Some(tr) = trace.filter(|tr| tr.sampled) {
        let total = tr.ring.now_ns().saturating_sub(tr.start_ns);
        db.telemetry().tracer().maybe_capture_slow(&tr.ctx, "txn", 0, &[], total);
    }
}

// --- Staged two-phase commit --------------------------------------------

/// One writer shard's half of a [`StagedCommit`].
struct Participant {
    shard: usize,
    /// `None` once the verdict was delivered.
    prepare: Option<ParkedPrepare>,
    /// Exclusive end offset of the prepare block in the shard's log.
    end_offset: u64,
    /// The prepare block is durable.
    durable: bool,
}

/// Where a [`StagedCommit`] stands.
enum Stage {
    /// Every writer shard holds a parked prepare; waiting for their
    /// prepare blocks to be durable.
    Prepared,
    /// All prepares durable: the commit point. Recovery would commit it
    /// from here on; only the `ERMIA_2PC_PREPARE_DELAY_MS` window is left
    /// to sit out.
    PreparesDurable,
    /// The verdict was delivered to every participant; after a commit,
    /// its record is owed to the logs until
    /// [`StagedCommit::write_verdict`].
    Finalized { verdict_owed: bool },
}

/// The trace of a staged commit. The spans of its later stages are
/// recorded by whoever resolves it, under the context it was begun with.
struct StagedTrace {
    ctx: TraceContext,
    /// Transaction begin, tracer-epoch ns.
    start_ns: u64,
    sampled: bool,
    /// Start of the wait or stage now in progress, tracer-epoch ns.
    t0: u64,
}

/// A cross-shard commit between prepare and verdict, across ≥2 writer
/// shards, as an owned state machine.
///
/// ```text
/// prepared ─► prepares-durable ─► finalized ─► (verdict record appended)
///     └──────────────┴── abort: abort verdict appended, then rolled back
/// ```
///
/// It borrows nothing: every participant is a [`ParkedPrepare`], so the
/// worker that ran the transaction is free, and no epoch is pinned. It
/// waits only on log offsets ([`StagedCommit::waits`]);
/// [`StagedCommit::poll`] moves it as far as durability allows without
/// blocking, so one thread can carry any number of them through the same
/// flush. Every prepare being durable is the commit point: nothing is
/// published or answered before it (invariant 1), and the verdict record
/// is owed to the logs only after ([`StagedCommit::write_verdict`]).
///
/// A thread that executes transactions may wait on a prepared head, so a
/// staged commit must not be left for that same thread to resolve later.
///
/// Dropped unresolved, it aborts like [`StagedCommit::abort`].
pub struct StagedCommit {
    db: ShardedDb,
    /// Writer participants in shard order; the first coordinates.
    parts: Vec<Participant>,
    /// The coordinator's prepare cstamp: the global transaction id.
    gtid_lsn: u64,
    stage: Stage,
    /// Nothing is published before this instant (the
    /// `ERMIA_2PC_PREPARE_DELAY_MS` window, opened when the prepares turn
    /// durable).
    not_before: Option<Instant>,
    prepare_start: Instant,
    trace: Option<StagedTrace>,
}

impl StagedCommit {
    /// Phase one: prepare every writer — coordinator (lowest writer
    /// shard) first, its prepare cstamp is the global transaction id —
    /// and park the prepares.
    fn prepare<'w>(
        db: &ShardedDb,
        twopc: &TwoPcTelemetry,
        trace: Option<ActiveTrace<'_>>,
        writers: Vec<(usize, Transaction<'w>)>,
    ) -> TxResult<Box<StagedCommit>> {
        db.inner.in_doubt.fetch_add(1, Relaxed);
        // From here every exit, the early returns included, closes the
        // in-doubt window through `Drop`.
        let mut staged = Box::new(StagedCommit {
            db: db.clone(),
            parts: Vec::with_capacity(writers.len()),
            gtid_lsn: 0,
            stage: Stage::Prepared,
            not_before: None,
            prepare_start: Instant::now(),
            trace: trace.map(|tr| StagedTrace {
                ctx: tr.ctx,
                start_ns: tr.start_ns,
                sampled: tr.sampled,
                t0: 0,
            }),
        });
        // The trace id rides inside each participant's durable prepare
        // marker, so a replica (or recovery) applying the shipped log can
        // stitch its apply spans to this transaction.
        let (trace_hi, trace_lo) =
            trace.map(|t| (t.ctx.trace_hi, t.ctx.trace_lo)).unwrap_or((0, 0));
        let now = || trace.map(|tr| tr.ring.now_ns()).unwrap_or(0);
        let coord = writers[0].0;
        // A participant that fails to prepare leaves the others' blocks
        // one short of this count: recovery aborts them.
        let participants = writers.len() as u32;
        let mut prepared: Vec<(usize, PreparedTransaction<'w>)> =
            Vec::with_capacity(writers.len());
        for (i, t) in writers {
            let t0 = now();
            let coord_lsn =
                if i == coord { PrepareMarker::COORD_SELF } else { staged.gtid_lsn };
            let marker = PrepareMarker {
                coord_shard: coord as u32,
                participants,
                coord_lsn,
                trace_hi,
                trace_lo,
            };
            match t.precommit(Some(marker)) {
                Ok(p) => {
                    if i == coord {
                        staged.gtid_lsn = p.cstamp().raw();
                    }
                    if let Some(tr) = trace {
                        let c = p.cstamp().raw();
                        tr.ring.record(&tr.ctx, SpanKind::TwoPcPrepare, t0, now(), i as u64, c);
                    }
                    prepared.push((i, p));
                }
                Err(r) => {
                    // The writers not yet prepared abort as they drop.
                    for (_, p) in prepared {
                        p.abort(r);
                    }
                    return Err(r);
                }
            }
        }
        for (i, p) in &prepared {
            twopc.ring.record(EventKind::TwoPcPrepare, *i as u64, p.cstamp().raw());
        }
        if let Some(tr) = &mut staged.trace {
            tr.t0 = now();
        }
        staged.parts.extend(prepared.into_iter().map(|(shard, p)| {
            let prepare = p.park();
            let end_offset = prepare.end_offset();
            Participant { shard, prepare: Some(prepare), end_offset, durable: false }
        }));
        Ok(staged)
    }

    /// The log offsets this commit is waiting on now, as (shard, end
    /// offset) pairs: every prepare block not yet seen durable.
    pub fn waits(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.parts.iter().filter(|p| !p.durable).map(|p| (p.shard, p.end_offset))
    }

    /// The instant before which [`StagedCommit::poll`] cannot move even
    /// though nothing is waited on (the prepare-delay test window).
    pub fn not_before(&self) -> Option<Instant> {
        self.not_before.filter(|_| matches!(self.stage, Stage::PreparesDurable))
    }

    /// Move as far as durability allows, without blocking. `None` while
    /// a wait is outstanding; otherwise the verdict, delivered to every
    /// participant on `resolver` (any worker of this engine not running a
    /// transaction): its epoch pins, its counters, its span ring. After a
    /// commit verdict the caller answers whoever waits for it, then calls
    /// [`StagedCommit::write_verdict`].
    pub fn poll(&mut self, resolver: &mut ShardedWorker) -> Option<TxResult<CommitToken>> {
        let inner = Arc::clone(&self.db.inner);
        let ring = Arc::clone(&resolver.trace.ring);
        if matches!(self.stage, Stage::Prepared) {
            // Invariant 1: every prepare durable before anything is
            // published — a published half whose sibling's prepare is
            // lost would be a partial transaction after a crash.
            for i in 0..self.parts.len() {
                let p = &self.parts[i];
                if p.durable {
                    continue;
                }
                match inner.dbs[p.shard].inner.log.durable_status(p.end_offset) {
                    Ok(true) => {
                        self.parts[i].durable = true;
                        // One span per participant, each starting where
                        // the previous one landed, so concurrent waits
                        // are not counted twice.
                        let shard = self.parts[i].shard as u64;
                        self.span(&ring, SpanKind::DurabilityWait, shard, 0);
                    }
                    Ok(false) => {}
                    Err(_) => {
                        self.abort(resolver);
                        return Some(Err(AbortReason::LogFailure));
                    }
                }
            }
            if self.parts.iter().any(|p| !p.durable) {
                return None;
            }
            resolver
                .twopc
                .slab
                .hist(TWOPC_PREPARE_HIST)
                .record(self.prepare_start.elapsed().as_nanos() as u64);
            if !inner.prepare_delay.is_zero() {
                self.not_before = Some(Instant::now() + inner.prepare_delay);
            }
            self.stage = Stage::PreparesDurable;
        }
        assert!(matches!(self.stage, Stage::PreparesDurable), "polled after its verdict");
        if self.not_before.is_some_and(|t| Instant::now() < t) {
            return None;
        }
        // Committed: publish every participant in memory.
        let mut coord_token = None;
        for p in &mut self.parts {
            let prepare = p.prepare.take().expect("no verdict yet");
            let token = prepare.attach(&mut resolver.workers[p.shard]).finish_commit();
            coord_token.get_or_insert(token);
        }
        self.span(&ring, SpanKind::TwoPcFinalize, self.parts.len() as u64, 0);
        resolver.twopc.slab.add(TWOPC_CROSS, 1);
        self.stage = Stage::Finalized { verdict_owed: true };
        let coord_token = coord_token.expect("a staged commit has participants");
        Some(Ok(coord_token.on_shard(self.parts[0].shard)))
    }

    /// Append the commit verdict record this commit owes the logs since
    /// [`StagedCommit::poll`] published it (invariant 2: not before). It
    /// is forced nowhere and waited for by nobody.
    pub fn write_verdict(&mut self, resolver: &mut ShardedWorker) {
        if !matches!(self.stage, Stage::Finalized { verdict_owed: true }) {
            return;
        }
        self.stage = Stage::Finalized { verdict_owed: false };
        let ring = Arc::clone(&resolver.trace.ring);
        if let Some(tr) = &mut self.trace {
            tr.t0 = ring.now_ns();
        }
        let since = Instant::now();
        self.append_verdict(true);
        self.span(&ring, SpanKind::TwoPcDecide, self.gtid_lsn, 0);
        let t = &resolver.twopc;
        t.slab.hist(TWOPC_DECIDE_HIST).record(since.elapsed().as_nanos() as u64);
        t.ring.record(EventKind::TwoPcDecide, self.gtid_lsn, 1);
    }

    /// Append the verdict record to every participant's log. A log that
    /// accepts no more writes goes without: any other copy, or the count
    /// of prepares, speaks for it at recovery.
    fn append_verdict(&self, commit: bool) {
        let coord_shard = self.parts[0].shard as u32;
        let rec = DecideRecord { gtid_lsn: self.gtid_lsn, coord_shard, commit };
        for p in &self.parts {
            let _ = write_decide(&self.db.inner.dbs[p.shard], rec);
        }
    }

    /// Record a span from the trace's running timestamp to now, and
    /// restart the timestamp.
    fn span(&mut self, ring: &SpanRing, kind: SpanKind, a: u64, b: u64) {
        if let Some(tr) = &mut self.trace {
            let now = ring.now_ns();
            ring.record(&tr.ctx, kind, tr.t0, now, a, b);
            tr.t0 = now;
        }
    }

    /// Give up (a no-op once finalized): the abort verdict goes behind
    /// the prepares on every participant first, and only then is each
    /// half rolled back on `resolver`. In that order, whatever commits on
    /// a shard after seeing the rollback lies behind the verdict in that
    /// shard's log, so it cannot be durable and the verdict not — and one
    /// durable abort verdict aborts the transaction at recovery, however
    /// many of its prepares made it to disk. Until one is durable the
    /// outcome is open: a crash may still commit it.
    pub fn abort(&mut self, resolver: &mut ShardedWorker) {
        if matches!(self.stage, Stage::Finalized { .. }) {
            return;
        }
        self.append_verdict(false);
        resolver.twopc.ring.record(EventKind::TwoPcDecide, self.gtid_lsn, 0);
        for p in &mut self.parts {
            let prepare = p.prepare.take().expect("no verdict yet");
            prepare.attach(&mut resolver.workers[p.shard]).abort(AbortReason::LogFailure);
        }
        self.stage = Stage::Finalized { verdict_owed: false };
    }

    /// Drive to the verdict, blocking on every participant's log at once
    /// — one wake-up cell subscribed on all outstanding offsets, so each
    /// flusher sees the demand now rather than at its next timer tick —
    /// for at most the coordinator log's `wait_durable_timeout`.
    pub fn wait(mut self, resolver: &mut ShardedWorker) -> TxResult<CommitToken> {
        let db = self.db.clone();
        let log = |shard: usize| &db.inner.dbs[shard].inner.log;
        let deadline = Instant::now() + log(self.parts[0].shard).config().wait_durable_timeout;
        let waker = DurableWaker::default();
        loop {
            if let Some(verdict) = self.poll(resolver) {
                self.write_verdict(resolver);
                return verdict;
            }
            let now = Instant::now();
            if let Some(t) = self.not_before() {
                std::thread::sleep(t.saturating_duration_since(now));
            } else if now >= deadline {
                self.abort(resolver);
                return Err(AbortReason::LogFailure);
            } else {
                let subs: Vec<_> =
                    self.waits().map(|(s, end)| log(s).subscribe_durable(end, &waker)).collect();
                // No subscription: that offset landed (or its log failed)
                // meanwhile — poll again instead of sleeping.
                if subs.iter().all(Option::is_some) {
                    waker.wait(Some(deadline - now));
                }
            }
        }
    }
}

#[cfg(test)]
impl StagedCommit {
    /// See [`ParkedPrepare::pointees`].
    fn pointees(&self) -> Vec<(u64, Vec<u8>)> {
        self.parts.iter().filter_map(|p| p.prepare.as_ref()).flat_map(|p| p.pointees()).collect()
    }
}

impl Drop for StagedCommit {
    fn drop(&mut self) {
        match self.stage {
            // Pay the commit verdict nobody came back to write.
            Stage::Finalized { verdict_owed: true } => self.append_verdict(true),
            Stage::Finalized { verdict_owed: false } => {}
            // Unresolved: the abort verdict first, as `abort` orders it;
            // then the participants still parked abort as they drop.
            _ if !self.parts.is_empty() => self.append_verdict(false),
            // Never got past preparing: nothing to overrule.
            _ => {}
        }
        // The in-doubt window closes on every exit path.
        self.db.inner.in_doubt.fetch_sub(1, Relaxed);
        // Tail-based capture for engine-sampled traces: the server owns
        // it for wire-traced requests (it knows the opcode and key).
        if let Some(tr) = self.trace.as_ref().filter(|tr| tr.sampled) {
            let tracer = self.db.telemetry().tracer();
            let total = tracer.now_ns().saturating_sub(tr.start_ns);
            tracer.maybe_capture_slow(&tr.ctx, "txn", 0, &[], total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("ermia-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Two keys guaranteed to land on different shards.
    fn cross_pair(shards: usize) -> (Vec<u8>, Vec<u8>) {
        let a = b"pair-a".to_vec();
        let home = shard_of_key(&a, shards);
        for i in 0..10_000u32 {
            let b = format!("pair-b-{i}").into_bytes();
            if shard_of_key(&b, shards) != home {
                return (a, b);
            }
        }
        panic!("no cross-shard key found");
    }

    #[test]
    fn shard_of_key_disperses_and_is_stable() {
        let mut counts = [0usize; 4];
        for i in 0..4096u32 {
            counts[shard_of_key(&i.to_be_bytes(), 4)] += 1;
        }
        for c in counts {
            assert!(c > 512, "lopsided hash: {counts:?}");
        }
        assert_eq!(shard_of_key(b"alice", 4), shard_of_key(b"alice", 4));
        assert_eq!(shard_of_key(b"anything", 1), 0);
    }

    #[test]
    fn single_shard_txn_reads_its_writes() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, b"alice", b"100").unwrap();
        tx.commit().unwrap();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let v = tx.read(t, b"alice", |v| v.to_vec()).unwrap();
        assert_eq!(v.as_deref(), Some(&b"100"[..]));
        tx.commit().unwrap();
    }

    #[test]
    fn cross_shard_commit_is_atomic_and_visible() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let (ka, kb) = cross_pair(2);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, &ka, b"va").unwrap();
        tx.insert(t, &kb, b"vb").unwrap();
        tx.commit().unwrap();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert_eq!(tx.read(t, &ka, |v| v.to_vec()).unwrap().as_deref(), Some(&b"va"[..]));
        assert_eq!(tx.read(t, &kb, |v| v.to_vec()).unwrap().as_deref(), Some(&b"vb"[..]));
        tx.commit().unwrap();
        // Both shards took part.
        let (c0, _) = db.shard(0).txn_counts();
        let (c1, _) = db.shard(1).txn_counts();
        assert!(c0 >= 1 && c1 >= 1, "both shards should have committed");
    }

    #[test]
    fn cross_shard_abort_leaves_nothing() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let (ka, kb) = cross_pair(2);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, &ka, b"va").unwrap();
        tx.insert(t, &kb, b"vb").unwrap();
        tx.abort();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert!(tx.read(t, &ka, |_| ()).unwrap().is_none());
        assert!(tx.read(t, &kb, |_| ()).unwrap().is_none());
        tx.commit().unwrap();
    }

    #[test]
    fn replicated_table_fans_writes_and_reads_anywhere() {
        let db = ShardedDb::open(DbConfig::in_memory(), 3).unwrap();
        let t = db.create_table_with_policy("item", ShardPolicy::Replicated);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, b"i-1", b"widget").unwrap();
        tx.commit().unwrap();
        // Every shard holds the row.
        for s in 0..3 {
            let mut iw = db.shard(s).register_worker();
            let mut itx = iw.begin(IsolationLevel::Snapshot);
            let v = itx.read(t, b"i-1", |v| v.to_vec()).unwrap();
            assert_eq!(v.as_deref(), Some(&b"widget"[..]), "shard {s} missing replica");
            itx.commit().unwrap();
        }
    }

    #[test]
    fn prefix_policy_keeps_cohort_on_one_shard_and_scans_merge() {
        let db = ShardedDb::open(DbConfig::in_memory(), 4).unwrap();
        let t = db.create_table_with_policy("orders", ShardPolicy::Hash { prefix: Some(4) });
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for wh in 0..4u32 {
            for o in 0..8u32 {
                let mut key = wh.to_be_bytes().to_vec();
                key.extend_from_slice(&o.to_be_bytes());
                tx.insert(t, &key, format!("o-{wh}-{o}").as_bytes()).unwrap();
            }
        }
        tx.commit().unwrap();
        // Same-prefix scan stays on one shard and sees all 8 in order.
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let idx = db.shard(0).primary_index(t);
        let low = 2u32.to_be_bytes().to_vec();
        let mut high = 2u32.to_be_bytes().to_vec();
        high.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut seen = Vec::new();
        let n = tx
            .scan(idx, &low, &high, None, |k, _| {
                seen.push(k.to_vec());
                true
            })
            .unwrap();
        assert_eq!(n, 8);
        assert!(seen.windows(2).all(|p| p[0] < p[1]), "ordered");
        tx.commit().unwrap();
        // Cross-prefix scan fans out and merges in key order.
        let mut tx2 = w.begin(IsolationLevel::Snapshot);
        let mut all = Vec::new();
        let full = tx2
            .scan(idx, &[0u8; 4], &[0xff; 8], None, |k, _| {
                all.push(k.to_vec());
                true
            })
            .unwrap();
        assert_eq!(full, 32);
        assert!(all.windows(2).all(|p| p[0] < p[1]), "merged order");
        tx2.commit().unwrap();
    }

    #[test]
    fn secondary_owner_prefix_routes_with_row() {
        let db = ShardedDb::open(DbConfig::in_memory(), 4).unwrap();
        let t = db.create_table_with_policy("cust", ShardPolicy::Hash { prefix: Some(4) });
        let by_name = db.create_secondary_index(t, "cust_by_name", IndexRouting::OwnerPrefix(4));
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let mut key = 7u32.to_be_bytes().to_vec();
        key.extend_from_slice(b"c-1");
        let h = tx.insert(t, &key, b"carol").unwrap();
        let mut skey = 7u32.to_be_bytes().to_vec();
        skey.extend_from_slice(b"CAROL");
        tx.insert_secondary(by_name, &skey, h).unwrap();
        tx.commit().unwrap();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let v = tx.read_secondary(by_name, &skey, |v| v.to_vec()).unwrap();
        assert_eq!(v.as_deref(), Some(&b"carol"[..]));
        tx.commit().unwrap();
    }

    #[test]
    fn cross_shard_commit_survives_restart() {
        let dir = tmpdir("2pc-restart");
        let (ka, kb) = cross_pair(2);
        {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let t = db.create_table("kv");
            let mut w = db.register_worker();
            let mut tx = w.begin(IsolationLevel::Snapshot);
            tx.insert(t, &ka, b"va").unwrap();
            tx.insert(t, &kb, b"vb").unwrap();
            tx.commit().unwrap();
        }
        let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
        let t = db.create_table("kv");
        let stats = db.recover().unwrap();
        // Finalized on both shards before the drop: participants hold
        // prepare + decide, so nothing stays in doubt.
        assert_eq!(
            stats.per_shard.iter().map(|s| s.in_doubt).sum::<u64>(),
            0,
            "finalized 2PC must not reopen in doubt"
        );
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert_eq!(tx.read(t, &ka, |v| v.to_vec()).unwrap().as_deref(), Some(&b"va"[..]));
        assert_eq!(tx.read(t, &kb, |v| v.to_vec()).unwrap().as_deref(), Some(&b"vb"[..]));
        tx.commit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What reaches disk of one two-shard transaction before the crash,
    /// and what recovery must make of it.
    struct CrashCase {
        name: &'static str,
        /// The count both markers carry (0: a log older than the rule).
        participants: u32,
        /// Whether the non-coordinator's prepare was written at all.
        second_prepare: bool,
        /// Verdict records on disk: (on the coordinator's log?, commit?).
        verdicts: &'static [(bool, bool)],
        commit: bool,
        /// `resolved_commits`, `resolved_aborts`, `resolved_implicit`.
        resolved: (u64, u64, u64),
    }

    /// The recovery rule, case by case (invariant 3). Each case is
    /// recovered twice: the first recovery writes its resolutions down,
    /// so the second finds nothing in doubt and the same rows.
    #[test]
    fn recovery_resolves_in_doubt_prepares_by_verdict_then_by_count() {
        let cases = [
            CrashCase {
                name: "all prepares, no verdict: committed",
                participants: 2,
                second_prepare: true,
                verdicts: &[],
                commit: true,
                resolved: (2, 0, 2),
            },
            CrashCase {
                name: "one prepare missing: aborted",
                participants: 2,
                second_prepare: false,
                verdicts: &[],
                commit: false,
                resolved: (0, 1, 1),
            },
            CrashCase {
                name: "abort verdict on one shard only: aborted everywhere",
                participants: 2,
                second_prepare: true,
                verdicts: &[(true, false)],
                commit: false,
                resolved: (0, 1, 0),
            },
            CrashCase {
                name: "commit verdict only on the non-coordinator: committed everywhere",
                participants: 0,
                second_prepare: true,
                verdicts: &[(false, true)],
                commit: true,
                resolved: (1, 0, 0),
            },
            CrashCase {
                name: "legacy marker, no verdict: aborted",
                participants: 0,
                second_prepare: true,
                verdicts: &[],
                commit: false,
                resolved: (0, 2, 2),
            },
        ];
        let (ka, kb) = cross_pair(2);
        let (sa, sb) = (shard_of_key(&ka, 2), shard_of_key(&kb, 2));
        for (i, case) in cases.iter().enumerate() {
            let dir = tmpdir(&format!("2pc-matrix-{i}"));
            {
                let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
                let t = db.create_table("kv");
                let mut wa = db.shard(sa).register_worker();
                let mut wb = db.shard(sb).register_worker();
                let mut ta = wa.begin(IsolationLevel::Snapshot);
                ta.insert(t, &ka, b"va").unwrap();
                let mut tb = wb.begin(IsolationLevel::Snapshot);
                tb.insert(t, &kb, b"vb").unwrap();
                let marker = |coord_lsn| PrepareMarker {
                    coord_shard: sa as u32,
                    participants: case.participants,
                    coord_lsn,
                    trace_hi: 0,
                    trace_lo: 0,
                };
                let pa = ta.precommit(Some(marker(PrepareMarker::COORD_SELF))).unwrap();
                let gtid_lsn = pa.cstamp().raw();
                let _pb = if case.second_prepare {
                    Some(tb.precommit(Some(marker(gtid_lsn))).unwrap())
                } else {
                    tb.abort();
                    None
                };
                for &(on_coord, commit) in case.verdicts {
                    let rec = DecideRecord { gtid_lsn, coord_shard: sa as u32, commit };
                    write_decide(db.shard(if on_coord { sa } else { sb }), rec).unwrap();
                }
                for shard in 0..2 {
                    db.shard(shard).log().sync().unwrap();
                }
                // Simulated crash: the prepared halves drop unresolved.
            }
            for round in 0..2 {
                let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
                let t = db.create_table("kv");
                let stats = db.recover().unwrap();
                let got = (stats.resolved_commits, stats.resolved_aborts, stats.resolved_implicit);
                let want = if round == 0 { case.resolved } else { (0, 0, 0) };
                assert_eq!(got, want, "{}, recovery {round}", case.name);
                assert_eq!(db.inner.in_doubt.load(Relaxed), 0, "{}", case.name);
                let mut w = db.register_worker();
                let mut tx = w.begin(IsolationLevel::Snapshot);
                for key in [&ka, &kb] {
                    let present = tx.read(t, key, |_| ()).unwrap().is_some();
                    assert_eq!(present, case.commit, "{}, recovery {round}", case.name);
                }
                tx.commit().unwrap();
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The `i`-th key with this prefix that lives on `shard` of two.
    fn key_on(shard: usize, prefix: &str, i: usize) -> Vec<u8> {
        (0u32..)
            .map(|j| format!("{prefix}-{j}").into_bytes())
            .filter(|k| shard_of_key(k, 2) == shard)
            .nth(i)
            .expect("keys hash to both shards")
    }

    fn put(w: &mut ShardedWorker, t: TableId, key: &[u8], value: &[u8]) {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        if !tx.update(t, key, value).unwrap() {
            tx.insert(t, key, value).unwrap();
        }
        tx.commit().unwrap();
    }

    /// The safety argument for dropping the epoch pin, under load: parked
    /// Serializable prepares (read sets, overwritten `prev` versions,
    /// fresh inserts) sit through churn on exactly the versions they
    /// point at — overwrites that turn them into garbage the moment the
    /// horizon passes them — plus GC passes and epoch advances. Every
    /// version they point at must come through untouched (a reclaimed
    /// one is recycled into the churn's next write), and then both
    /// verdicts must land.
    #[test]
    fn parked_prepares_keep_their_versions_through_churn_gc_and_epoch_advances() {
        let mut cfg = DbConfig::in_memory();
        cfg.gc_interval = Duration::from_millis(1);
        let db = ShardedDb::open(cfg, 2).unwrap();
        let t = db.create_table("kv");
        const PARKED: usize = 48;
        let mut w = db.register_worker();
        let read_keys: Vec<Vec<u8>> = (0..8).map(|i| key_on(i % 2, "read", i / 2)).collect();
        for key in &read_keys {
            put(&mut w, t, key, b"r0");
        }
        let pairs: Vec<[Vec<u8>; 2]> =
            (0..PARKED).map(|i| [key_on(0, "pair", i), key_on(1, "pair", i)]).collect();
        for pair in &pairs {
            put(&mut w, t, &pair[0], b"old");
            put(&mut w, t, &pair[1], b"old");
        }

        let mut parked = Vec::new();
        for (i, pair) in pairs.iter().enumerate() {
            // Serializable: reads on both shards join the read set; each
            // half overwrites a row and inserts a fresh one.
            let mut tx = w.begin(IsolationLevel::Serializable);
            for key in &read_keys {
                tx.read(t, key, |_| ()).unwrap().expect("read key loaded");
            }
            for (shard, key) in pair.iter().enumerate() {
                assert!(tx.update(t, key, b"new").unwrap());
                tx.insert(t, &key_on(shard, "fresh", i), b"new").unwrap();
            }
            match tx.commit_deferred().unwrap() {
                DeferredCommit::Staged(staged) => {
                    let pointees = staged.pointees();
                    assert_eq!(pointees.len(), read_keys.len() + 2);
                    parked.push((staged, pointees));
                }
                DeferredCommit::Committed(_) => panic!("two writer shards must stage a 2PC"),
            }
            // Churn under the parked prepares: overwrite everything they
            // read, several versions deep.
            for round in 0..4 {
                for key in &read_keys {
                    put(&mut w, t, key, format!("r{i}-{round}").as_bytes());
                }
            }
        }
        assert_eq!(db.tid_slots_in_use(), 2 * PARKED);

        // Let the collector and the epochs run over all of it.
        let passes0: Vec<u64> =
            (0..2).map(|s| db.shard(s).inner.gc_stats.passes.load(Relaxed)).collect();
        let epochs0: Vec<u64> = (0..2).map(|s| db.shard(s).epoch_stats().epoch).collect();
        let deadline = Instant::now() + Duration::from_secs(20);
        while (0..2).any(|s| {
            db.shard(s).inner.gc_stats.passes.load(Relaxed) < passes0[s] + 20
                || db.shard(s).epoch_stats().epoch < epochs0[s] + 20
        }) {
            assert!(Instant::now() < deadline, "GC or epochs stalled under parked prepares");
            for key in &read_keys {
                put(&mut w, t, key, b"churn");
            }
        }
        for (i, (staged, before)) in parked.iter().enumerate() {
            assert_eq!(&staged.pointees(), before, "prepare {i}: a version it holds was reclaimed");
        }

        // Verdicts, alternating, on a worker that ran none of them.
        let mut resolver = db.register_worker();
        for (i, (staged, _)) in parked.iter_mut().enumerate() {
            if i % 2 == 0 {
                while staged.poll(&mut resolver).map(|v| v.expect("commits")).is_none() {
                    std::thread::yield_now();
                }
            } else {
                staged.abort(&mut resolver);
            }
        }
        drop(parked);
        assert_eq!(db.tid_slots_in_use(), 0);
        assert_eq!(db.inner.in_doubt.load(Relaxed), 0);

        // Every pair, and its fresh inserts, show their verdict on both
        // shards.
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for (i, pair) in pairs.iter().enumerate() {
            let want: &[u8] = if i % 2 == 0 { b"new" } else { b"old" };
            for (shard, key) in pair.iter().enumerate() {
                let got = tx.read(t, key, |v| v.to_vec()).unwrap();
                assert_eq!(got.as_deref(), Some(want), "pair {i}, shard {shard}");
                let fresh = tx.read(t, &key_on(shard, "fresh", i), |_| ()).unwrap().is_some();
                assert_eq!(fresh, i % 2 == 0, "pair {i}: insert on shard {shard}");
            }
        }
        tx.commit().unwrap();
    }

    #[test]
    fn shard_metrics_are_exposed() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let (ka, kb) = cross_pair(2);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, &ka, b"a").unwrap();
        tx.insert(t, &kb, b"b").unwrap();
        tx.commit().unwrap();
        let text = db.telemetry().render_prometheus();
        for name in [
            "ermia_shard_count",
            "ermia_shard_in_doubt",
            "ermia_shard_txns_total",
            "ermia_shard_cross_txns_total",
            "ermia_2pc_prepare_ns",
            "ermia_2pc_decide_ns",
        ] {
            assert!(text.contains(name), "missing metric {name} in exposition");
        }
        assert!(text.contains("shard=\"1\""), "per-shard label missing");
    }
}
