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
//! `ShardedDb` only (`ShardedDb::open(cfg, 1)`).
//!
//! The module is its three concerns: `routing` (key → shard), `staged`
//! (the commit handle and the two-phase state machine behind it) and the
//! facade — [`ShardedDb`] with recovery here, [`ShardedWorker`] and
//! [`ShardedTransaction`] in `txn`.
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
//! machine (prepared → finalized), [`StagedCommit`], whose participants
//! are parked — detached from the worker, no epoch pinned.
//! [`ShardedTransaction::commit`] drives it with a blocking wait; the
//! server parks it with a thread that waits on logs and gets its worker
//! back at once.
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
//! Why counting is sound. A commit is acknowledged, or read by anyone,
//! only after every prepare is durable, so an acknowledged commit shows
//! its full set after any crash: never lost. A short set proves nobody
//! saw the transaction: abort is safe. A full set with no verdict is a
//! commit about to happen, or a rollback whose abort verdicts missed the
//! disk — and then nothing that saw the rollback is on disk either,
//! because each shard's abort verdict is appended *before* that shard's
//! half is released and log prefixes are durable in order: commit is
//! safe, and it is the "indeterminate" the client was told. The
//! resolution is a pure function of the durable logs, the same on every
//! shard and every time; `recover` appends it as a verdict record to the
//! shard that asked, so truncation and replicas keep it.
//!
//! | at run time | client is told | on disk at a later crash | recovery |
//! |---|---|---|---|
//! | all prepares durable, published | committed | all prepares (± verdicts) | commit |
//! | crash before all prepares durable | nothing | some prepares | abort (short) |
//! | `wait_durable_timeout` lapses, or the log poisons | `LogStalled` / log-failure abort | prepares + abort verdicts | abort |
//! | … and the crash beats every abort verdict | (indeterminate) | all prepares, no verdict | commit |
//! | a participant fails to prepare | its abort reason | fewer prepares than the count | abort (short) |
//!
//! One hole remains: a shard that checkpoints and truncates past both
//! its prepare and its verdict for a gtid cannot answer for a sibling
//! whose verdict copy was lost; that sibling then finds a short set and
//! aborts. Closing it means holding a checkpoint's begin below any gtid
//! whose verdicts are not durable everywhere.
//!
//! Prepare cannot deadlock across shards: each shard's log, flusher and
//! epochs are private, prepares take shard resources in ascending shard
//! order, and a prepared transaction waits on log offsets only, never on
//! another transaction — so every wait-for edge (a reader or writer
//! waiting for a verdict) ends at a node with no outgoing edge. A stalled
//! flusher delays a verdict by at most the log's one patience,
//! `LogConfig::wait_durable_timeout` — a blocking wait's and the server
//! parker's alike — and then surfaces as a typed error.
//!
//! Invariants, with the tests that pin them:
//! 1. nothing is published or acknowledged before every prepare is
//!    durable (`StagedCommit::poll`; `staged_commit.rs::
//!    verdict_records_follow_the_outcome_and_nothing_precedes_durable_prepares`,
//!    `log_stalled.rs::parked_cross_shard_commits_hold_no_worker_and_never_block_the_loop`);
//! 2. a commit verdict is written only after (1), an abort verdict only
//!    by the failure path, never both for one gtid (`write_verdict` and
//!    `abort` exclude each other through the stage; the same test, and the
//!    log audit of `staged_commit.rs::every_pair_of_log_prefixes_recovers_atomically`);
//! 3. recovery never commits a gtid with fewer prepares than its marker's
//!    count, and never aborts one whose commit was acknowledged
//!    ([`ShardedDb::recover`]; `tests::recovery_resolves_in_doubt_prepares_by_verdict_then_by_count`,
//!    the prefix-pair test, the ledger's power-cut check and
//!    `chaos.rs::chaos_2pc_kill_between_prepare_and_decide`).
//!
//! What sharding deliberately does *not* give: a global snapshot.
//! Each shard's reads run against that shard's own LSN timeline, so a
//! cross-shard reader can observe shard A after a transaction T and
//! shard B before T (a fractured read), and SSN certifies dependency
//! cycles per shard only. This matches the partitioned deployments the
//! paper compares against (H-Store-style) rather than a globally
//! serializable distributed engine.

mod routing;
mod staged;
mod txn;

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Acquire, Ordering::Relaxed};
use std::sync::{Arc, RwLock, Weak};

use ermia_common::{IndexId, Lsn, TableId};
use ermia_log::DecideRecord;
use ermia_telemetry::{Sample, SpanKind};

use crate::config::DbConfig;
use crate::database::{invalid, Database, DbState, NodeRole};
use crate::recovery::{LogApplier, RecoveryStats};

use routing::Routing;
pub use routing::{shard_of_key, IndexRouting, ShardPolicy};
use staged::write_decide;
pub use staged::{DeferredCommit, StagedCommit};
pub use txn::{ShardedTransaction, ShardedWorker};

pub(crate) struct ShardedInner {
    dbs: Vec<Database>,
    /// The routing snapshot — and, held for writing, the lock that
    /// serializes DDL across the shards.
    routing: RwLock<Arc<Routing>>,
    /// Cross-shard transactions currently between first prepare and
    /// verdict (plus unresolved prepares during recovery).
    in_doubt: AtomicU64,
}

impl ShardedInner {
    /// The routing snapshot of shard 0's catalog as it is now, rebuilt
    /// if the catalog has moved since — by DDL through this namespace,
    /// or, under a replica's serving handle, by replay.
    fn routing(&self) -> Arc<Routing> {
        let version = &self.dbs[0].inner.catalog_version;
        {
            let routing = self.routing.read().unwrap();
            if routing.version == version.load(Acquire) {
                return Arc::clone(&routing);
            }
        }
        let mut routing = self.routing.write().unwrap();
        if routing.version != version.load(Acquire) {
            *routing = Arc::new(Routing::from_catalog(&self.dbs[0]));
        }
        Arc::clone(&routing)
    }
}

/// `S` independent [`Database`] instances behind one namespace.
///
/// Cheap to clone and share across threads, like [`Database`].
#[derive(Clone)]
pub struct ShardedDb {
    pub(crate) inner: Arc<ShardedInner>,
}

impl ShardedDb {
    /// Open `shards` databases from one config. With a durable config,
    /// shard `i` logs under `<dir>/shard-<i>`; in-memory configs stay
    /// in-memory. All shards share the remaining tuning knobs.
    ///
    /// Every shard restores its own catalog from its own log. They are
    /// equal, or — a crash between two shards' appends — one is a prefix
    /// of the other and is extended here, its log getting the entries;
    /// anything else is an error naming both.
    pub fn open(cfg: DbConfig, shards: usize) -> io::Result<ShardedDb> {
        assert!(shards >= 1, "need at least one shard");
        let mut dbs = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut c = cfg.clone();
            if let Some(dir) = &cfg.log.dir {
                c.log.dir = Some(dir.join(format!("shard-{i}")));
            }
            dbs.push(Database::open(c)?);
        }
        let catalogs: Vec<_> =
            dbs.iter().map(|d| d.inner.catalog.read().unwrap().entries.clone()).collect();
        let (full, longest) =
            catalogs.iter().enumerate().max_by_key(|(_, c)| c.len()).expect("at least one shard");
        for (i, (db, catalog)) in dbs.iter().zip(&catalogs).enumerate() {
            if !catalog.iter().zip(longest).all(|(a, b)| a.same_entry(b)) {
                return Err(invalid(format!(
                    "shard catalogs diverged: shard {i} holds {catalog:?}, which is neither \
                     equal to nor a prefix of shard {full}'s {longest:?}"
                )));
            }
            for rec in longest {
                db.declare(&rec.name, rec.secondary.as_deref(), Some(rec.route));
            }
        }
        Ok(ShardedDb::from_shards(dbs))
    }

    /// Wrap already-open per-shard handles (e.g. a replica's snapshot
    /// views) as one `ShardedDb`. Shard catalogs must be identical, as
    /// they are when every shard replayed the same entries; routing is
    /// read off shard 0's.
    pub fn from_shards(dbs: Vec<Database>) -> ShardedDb {
        assert!(!dbs.is_empty(), "need at least one shard");
        let routing = Routing::from_catalog(&dbs[0]);
        let inner = Arc::new(ShardedInner {
            dbs,
            routing: RwLock::new(Arc::new(routing)),
            in_doubt: AtomicU64::new(0),
        });
        register_shard_collectors(&inner);
        ShardedDb { inner }
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
        self.declare(name, None, None).0
    }

    /// Create a table with an explicit [`ShardPolicy`] (also updates the
    /// policy of an existing table).
    pub fn create_table_with_policy(&self, name: &str, policy: ShardPolicy) -> TableId {
        self.declare(name, None, Some(policy.to_wire())).0
    }

    /// [`Database::declare`] on every shard, one DDL at a time: two
    /// creates interleaving across the shards would hand one name two
    /// ids. Panics if a shard answers with other ids than shard 0 — its
    /// catalog was edited behind this namespace's back, which
    /// [`ShardedDb::open`] would refuse.
    fn declare(
        &self,
        table: &str,
        secondary: Option<&str>,
        route: Option<(u8, u64)>,
    ) -> (TableId, IndexId) {
        let dbs = &self.inner.dbs;
        // Whoever sees shard 0's catalog move waits here for the others'
        // (`ShardedInner::routing`), then reads the new routes off it.
        let _ddl = self.inner.routing.write().unwrap();
        let ids = dbs[0].declare(table, secondary, route);
        for (shard, db) in dbs.iter().enumerate().skip(1) {
            let got = db.declare(table, secondary, route);
            assert_eq!(got, ids, "shard {shard}'s catalog diverged from shard 0's at {table:?}");
        }
        ids
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
        assert!(
            self.inner.routing().table_policy(table) != ShardPolicy::Replicated,
            "replicated tables cannot carry secondary indexes"
        );
        let table = self.inner.dbs[0].table(table);
        self.declare(&table.name, Some(name), Some(routing.to_wire())).1
    }

    /// Number of tables every shard holds. (A replica's shards learn of
    /// a table one by one, as each one's replay passes its entry.)
    pub fn table_count(&self) -> usize {
        self.inner.dbs.iter().map(|d| d.table_count()).min().unwrap_or(0)
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner.dbs[0].table_id(name).filter(|id| (id.0 as usize) < self.table_count())
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
    /// Step 1 of recovery runs on every shard first and leaves each one's
    /// prepares with no verdict in its own log; step 2 then builds each
    /// shard's rows and keeps the verdict records in its log that one of
    /// those prepares, on any shard, names — not one per commit. An
    /// in-doubt prepare commits if any shard's log holds a commit verdict
    /// for its gtid and aborts if any holds an abort verdict. With no
    /// verdict anywhere it commits iff as many shards hold a prepare for
    /// the gtid as its marker counts: a commit is only ever published or
    /// acknowledged once every prepare is durable, so a missing prepare
    /// proves nobody saw it, and a full set with no abort verdict proves
    /// nobody who durably committed afterwards saw it rolled back.
    ///
    /// Every resolution is then appended to the shard's log as a verdict
    /// record, so a replica tailing the log — and the next recovery,
    /// whatever has been truncated by then — goes by the same answer.
    pub fn recover(&self) -> io::Result<ShardRecoveryStats> {
        let inner = &self.inner;
        let mut chosen = Vec::with_capacity(inner.dbs.len());
        for db in &inner.dbs {
            chosen.push(LogApplier::choose(db, db.latest_checkpoint()?)?);
        }
        let wanted: HashSet<_> = chosen.iter().flat_map(|c| c.applier.pending_keys()).collect();
        let mut outcomes = Vec::with_capacity(chosen.len());
        for step in chosen {
            outcomes.push(step.build(|key| wanted.contains(&key))?.into_outcome());
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
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            for txn in &outcome.in_doubt {
                let key = (txn.coord_shard, txn.gtid_lsn);
                let recorded = |commit| verdicts.iter().any(|v| v.get(key) == Some(commit));
                let implicit = !recorded(true) && !recorded(false);
                let commit =
                    if implicit { holders[&key] == txn.participants } else { recorded(true) };
                if commit {
                    inner.dbs[shard].apply_in_doubt(txn)?;
                    stats.resolved_commits += 1;
                } else {
                    stats.resolved_aborts += 1;
                }
                stats.resolved_implicit += implicit as u64;
                let rec = DecideRecord { gtid_lsn: key.1, coord_shard: key.0, commit };
                write_decide(&inner.dbs[shard], rec)?;
                let how = commit as u64 | (implicit as u64) << 1;
                inner.dbs[0].inner.svc_event(SpanKind::TwoPcResolve, key.1, how);
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
/// count, the in-doubt gauge (what a shard finished is its own
/// `ermia_txn_*`, which a merged rendering labels `shard="i"`) and what
/// is the process's rather than any shard's — its resident size. The
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
        if let Some((resident, peak)) = ermia_telemetry::process_resident() {
            out.push(Sample::gauge(
                "ermia_process_resident_bytes",
                "Resident set of the server process (VmRSS), read at scrape",
                resident as f64,
            ));
            out.push(Sample::gauge(
                "ermia_process_resident_peak_bytes",
                "High-water mark of the resident set (VmHWM)",
                peak as f64,
            ));
        }
    });
}

#[cfg(test)]
mod tests {
    use ermia_common::TestDir;
    use ermia_log::PrepareMarker;

    use super::routing::cross_pair;
    use super::*;
    use crate::config::IsolationLevel;

    #[test]
    fn cross_shard_commit_survives_restart() {
        let dir = TestDir::new("shard-2pc-restart");
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
    }

    /// What reaches disk of one two-shard transaction before the crash,
    /// and what recovery must make of it.
    struct CrashCase {
        name: &'static str,
        /// The count both markers carry.
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
                participants: 2,
                second_prepare: true,
                verdicts: &[(false, true)],
                commit: true,
                resolved: (1, 0, 0),
            },
        ];
        let (ka, kb) = cross_pair(2);
        let (sa, sb) = (shard_of_key(&ka, 2), shard_of_key(&kb, 2));
        for (i, case) in cases.iter().enumerate() {
            let dir = TestDir::new(&format!("shard-2pc-matrix-{i}"));
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
        }
    }

    /// DDL is one at a time across the shards: two threads creating
    /// different names used to interleave (`a`=0, `b`=1 on shard 0;
    /// `b`=0 on shard 1) and trip the divergence assert in round 0.
    #[test]
    fn concurrent_ddl_hands_every_name_one_id() {
        for round in 0..25 {
            let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
            std::thread::scope(|s| {
                for t in 0..2 {
                    let db = &db;
                    s.spawn(move || {
                        for i in 0..50 {
                            db.create_table(&format!("t{t}-{i}"));
                        }
                    });
                }
            });
            let entries = |i: usize| db.shard(i).inner.catalog.read().unwrap().entries.clone();
            assert_eq!(entries(0), entries(1), "round {round}");
            assert_eq!(db.table_count(), 100, "round {round}");
        }
    }

    /// A crash between two shards' catalog appends leaves one catalog a
    /// prefix of the other: `open` extends the short one, in its log too.
    /// Catalogs that disagree on an entry are refused, both named.
    #[test]
    fn open_extends_a_catalog_cut_short_and_refuses_a_diverged_one() {
        let dir = TestDir::new("shard-catalog-reconcile");
        let policy = ShardPolicy::Hash { prefix: Some(2) };
        {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            db.create_table("a");
            // What the crash leaves: shard 0 knows of `b`, shard 1 not yet.
            db.shard(0).declare("b", None, Some(policy.to_wire()));
        }
        for reopen in 0..2 {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let b = db.table_id("b").expect("b survives");
            assert_eq!(db.shard(1).table_id("b"), Some(b), "reopen {reopen}");
            assert_eq!(db.inner.routing().table_policy(b), policy, "reopen {reopen}");
            let logged = db.shard(1).log().catalog_at_open().iter().any(|rec| rec.name == "b");
            assert_eq!(logged, reopen == 1, "the extension is in shard 1's log by the next open");
            if reopen == 1 {
                db.shard(0).create_table("c");
                db.shard(1).create_table("d");
            }
        }
        let err = ShardedDb::open(DbConfig::durable(&dir), 2).err().expect("diverged catalogs");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("\"c\"") && msg.contains("\"d\""), "{msg}");
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
            "ermia_shard_cross_txns_total",
            "ermia_2pc_prepare_ns",
            "ermia_2pc_decide_ns",
        ] {
            assert!(text.contains(name), "missing metric {name} in exposition");
        }
    }
}
