//! Checkpointing and recovery (paper §3.7).
//!
//! "Recovery in ERMIA is straightforward because the log contains only
//! committed work; OID arrays are the only real source of complexity."
//! The engine periodically copies the OID arrays to secondary storage,
//! then recovery restores the snapshot and rolls it forward by scanning
//! the log after the checkpoint. No undo is ever needed; the log
//! truncates at the first hole without losing committed work.
//!
//! **A checkpoint at a cut.** The paper copies the arrays non-atomically
//! (a *fuzzy* checkpoint). Here a checkpoint reads at a consistent cut,
//! as a fork does: each OID contributes the version a snapshot beginning
//! at the cut reads, so every image is stamped below the checkpoint's
//! `begin` (the cut), replay starts exactly there, and no commit is both
//! in the payload and in the replayed log. In an MVCC engine that costs
//! one GC pin held for the walk.
//!
//! **What matches §3.7.** Offline recovery ([`LogApplier::rebuild`])
//! restores *indirection arrays*, not history. Step 1 scans the
//! checkpoint and the log once and ranks each OID's images in its own
//! slot — the paper's OID array of log addresses — as *address words*
//! (`OidArray::address_word`): every log image above every checkpoint
//! image, then by address, which within one log is commit order (a
//! block's LSN is its stamp). An OID's first image (its insert, or its
//! checkpoint row, walked in key order) indexes its key, as the live
//! engine did; at the winning images, in the random order updates leave,
//! the index takes 1.4 times the leaves. Step 2 passes over the same bytes
//! again, builds each image its slot's word names, over the word, and
//! keeps the verdict records its caller asks for: none for
//! [`Database::recover`], those an in-doubt prepare of any shard names
//! for `ShardedDb::recover` (step 1 runs on every shard first), all for a
//! replica. The log is checksummed once: opening it walked every block to
//! find the tail, so neither step checks a block below that tail again —
//! step 1 still refuses one whose records do not decode. No word outlives
//! step 2 (`Unbuilt`). Nothing is stacked, so nothing is handed to the
//! retire queue and the collector never hears of recovery: no snapshot
//! older than the recovered tail can exist.
//!
//! **Rows are log records.** A checkpoint row is the log record a commit
//! of its image would write, behind the version's stamp — an `Insert` (a
//! `Delete` for a tombstone), or a `SecondaryInsert` for an index entry —
//! written and read by `ermia_log`'s one row codec
//! ([`CheckpointRows`], [`read_rows`]; crates/log/src/checkpoint.rs). So
//! both steps read the checkpoint as they read the log, as `(address,
//! stamp, record)`; a row's address is its offset in the payload. A
//! payload in an earlier layout, or a row that does not decode, is
//! `InvalidData` — a replica recovers from a payload a primary shipped.
//!
//! **What still differs.** The paper's checkpoint stores OID → address
//! only and anti-caching loads a record's body on first touch; this
//! reproduction has no buffer manager, so a checkpoint row carries its
//! key and value inline and step 2 builds every live row eagerly before
//! the database serves.
//!
//! **The walk.** [`Database::checkpoint`] walks each index once, in key
//! order, over the whole key space: a primary index yields `(key, OID)`
//! and the OID's chain the version visible at the cut, by the read path's
//! own rule — that pair is a row — and a secondary index yields its
//! entries. This walk is all the checkpoint code core keeps. A
//! rolled-back insert's long key and a collected chain are freed through
//! the engine's epoch, so the walk pins it — per [`WALK_BATCH`] entries,
//! resuming at the first key not yet written, since a pin held across the
//! walk would hold back every deferred free as long. Step 1 is keyed by
//! OID: row order is immaterial.
//!
//! The live tail ([`LogApplier::apply_available`] on a serving replica)
//! *does* stack versions as the commits did, because snapshots below the
//! applied cut exist there. Both paths share the block decoder, the 2PC
//! in-doubt/verdict state machine and `apply_record`.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ermia_common::{IndexId, Lsn, Oid, Stamp, TableId};
use ermia_epoch::{EpochHandle, Guard};
use ermia_index::{BTree, ScanControl};
use ermia_log::{
    read_rows, BlockKind, BlockView, CheckpointMeta, CheckpointRows, DdlRecord, DecideRecord,
    LogRecordKind, LogScanner, PrepareMarker, ScannedBlock, TxRecordView,
};
use ermia_storage::{OidArray, Retired, TidManager, Version};
use ermia_telemetry::{SpanKind, TraceContext};

use crate::database::{invalid, Cut, Database, IndexInfo, Table};
use crate::transaction::{visibility, Visibility};

/// Counters reported by [`Database::recover`] and kept by a
/// [`LogApplier`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Rows the checkpoint snapshot holds (scanned, not necessarily built).
    pub checkpoint_records: u64,
    /// Log blocks replayed after the checkpoint.
    pub replayed_blocks: u64,
    /// Log records *scanned* in those blocks.
    pub replayed_records: u64,
    /// Row images scanned and *not built*: superseded by a newer one (a
    /// later transaction, or a later record of the same transaction).
    /// Nothing else is ever skipped: a record naming an unknown table or
    /// index is an error.
    pub skipped_stale: u64,
    /// 2PC prepares whose verdict was not in this shard's own log. A
    /// standalone [`Database::recover`] presumes abort for these; a
    /// sharded recovery resolves them against every participant's log.
    pub in_doubt: u64,
    /// Versions built. After an offline recovery: one per live row (and
    /// per tombstone still in the log).
    pub built: u64,
    /// Checkpoint and log bytes scanned.
    pub scanned_bytes: u64,
    /// Time the offline rebuild took.
    pub elapsed: Duration,
}

/// A 2PC prepare found in the log without a local verdict. Left by
/// recovery's step 1; the sharded recovery pass applies it if
/// any participant's log holds a commit verdict, or — no verdict anywhere
/// — if all `participants` prepares of the transaction are there, and
/// drops it otherwise.
pub struct InDoubtTxn {
    /// Shard that coordinated the global transaction.
    pub coord_shard: u32,
    /// How many shards prepared for it, from the prepare marker.
    pub participants: u32,
    /// Raw LSN of the coordinator's prepare block (with `coord_shard`,
    /// the global transaction id).
    pub gtid_lsn: u64,
    /// Trace id the coordinator stamped into the prepare marker
    /// ((0, 0) = untraced): applying this prepare records a `ReplApply`
    /// span under the originating transaction's trace.
    pub trace_hi: u64,
    pub trace_lo: u64,
    /// The prepare block, as its bytes: its records are decoded in place
    /// when a verdict admits them, at the block's own stamp (the commit
    /// LSN they take) and their own addresses.
    block: ScannedBlock,
}

/// Everything one shard's log scan produced: replay counters, unresolved
/// prepares, and the 2PC verdicts kept for resolving *other* shards'
/// in-doubt prepares.
pub struct RecoveryOutcome {
    pub stats: RecoveryStats,
    pub in_doubt: Vec<InDoubtTxn>,
    pub decides: VerdictSet,
}

/// The 2PC verdict records one log holds, by global transaction id
/// `(coord_shard, gtid_lsn)`.
///
/// Verdict records are appended unforced to every participant's log, so
/// no log's copy is authoritative: a shard that resolved its own prepare
/// from its own copy must still answer for a shard whose copy was lost. A
/// replica keeps every verdict (recovery those an in-doubt prepare names):
/// one per cross-shard commit, hence the shape: per coordinator, one sorted
/// `Vec<u64>` of `gtid_lsn << 1 | commit` (a raw LSN never has its top bit
/// set) — 8 bytes a verdict, where a hash-map entry costs four times that. Gtids
/// are prepare stamps and verdicts follow their prepares closely, so
/// records arrive almost in order and an insert is a push, or a shift of
/// the last few entries.
#[derive(Default)]
pub struct VerdictSet {
    by_coord: Vec<(u32, Vec<u64>)>,
}

impl VerdictSet {
    fn insert(&mut self, d: &DecideRecord) {
        let code = d.gtid_lsn << 1 | d.commit as u64;
        let at = self.by_coord.iter().position(|(c, _)| *c == d.coord_shard).unwrap_or_else(|| {
            self.by_coord.push((d.coord_shard, Vec::new()));
            self.by_coord.len() - 1
        });
        let codes = &mut self.by_coord[at].1;
        if codes.last().is_none_or(|&last| last < code) {
            codes.push(code);
        } else if let Err(pos) = codes.binary_search(&code) {
            codes.insert(pos, code);
        }
    }

    /// The verdict recorded for global transaction `key`, if any.
    pub fn get(&self, key: (u32, u64)) -> Option<bool> {
        let codes = &self.by_coord.iter().find(|(c, _)| *c == key.0)?.1;
        let code = key.1 << 1;
        [true, false].into_iter().find(|&c| codes.binary_search(&(code | c as u64)).is_ok())
    }
}

/// What a replay round applies records through: one epoch pin, and
/// one-entry memos of the table and the index last named, so the catalog
/// lock is taken when they change and not per record. Given `ranking`
/// (offline step 1: are the images the log's?) a row image is ranked in
/// its slot instead of built.
struct Replay<'a> {
    db: &'a Database,
    guard: &'a Guard<'a>,
    table: Option<Arc<Table>>,
    index: Option<Arc<IndexInfo>>,
    ranking: Option<bool>,
}

impl<'a> Replay<'a> {
    fn new(db: &'a Database, guard: &'a Guard<'a>, ranking: Option<bool>) -> Self {
        Replay { db, guard, table: None, index: None, ranking }
    }

    /// The table a record names. One the catalog does not hold is an
    /// error naming the record's commit stamp (the LSN of its block) — a
    /// log written without its catalog entries whose table was not
    /// declared first, or corruption.
    fn table(&mut self, raw: u32, at: Lsn) -> std::io::Result<&Table> {
        if self.table.as_ref().is_none_or(|t| t.id.0 != raw) {
            self.table = self.db.inner.catalog.read().unwrap().tables.get(raw as usize).cloned();
        }
        self.table
            .as_deref()
            .ok_or_else(|| invalid(format!("a row at LSN {at:?} names unknown table {raw}")))
    }

    /// Admit one committed record, found at `addr` under commit `stamp`:
    /// an index entry is inserted, a row image is built — or, offline,
    /// ranked in its slot (one holding a version, recovered before, is
    /// left alone).
    fn admit(
        &mut self,
        rec: TxRecordView<'_>,
        stamp: Lsn,
        addr: u64,
        stats: &mut RecoveryStats,
    ) -> std::io::Result<()> {
        if let Some(IndexId(raw)) = rec.index_id() {
            if self.index.as_ref().is_none_or(|i| i.id.0 != raw) {
                self.index =
                    self.db.inner.catalog.read().unwrap().indexes.get(raw as usize).cloned();
            }
            let idx = self.index.as_ref().ok_or_else(|| {
                invalid(format!("an index entry at LSN {stamp:?} names unknown index {raw}"))
            })?;
            let _ = idx.tree.insert(self.guard, rec.key, rec.oid.0 as u64);
            return Ok(());
        }
        stats.skipped_stale += 1; // until it is built
        let Some(from_log) = self.ranking else { return self.build(rec, stamp, true, stats) };
        let (guard, table) = (self.guard, self.table(rec.table.0, stamp)?);
        let (head, word) = (table.oids.head(rec.oid), OidArray::address_word(from_log, addr));
        if head.is_null() {
            table.oids.ensure_allocated(rec.oid);
            table.oids.store_head(rec.oid, word);
            let _ = table.primary.insert(guard, rec.key, rec.oid.0 as u64);
        } else if OidArray::is_address(head) && head < word {
            table.oids.store_head(rec.oid, word);
        }
        Ok(())
    }

    /// Build one admitted row image, unless its OID holds a newer one; a
    /// chain it creates indexes its key if `index` (offline, step 1 did).
    fn build(
        &mut self,
        rec: TxRecordView<'_>,
        stamp: Lsn,
        index: bool,
        stats: &mut RecoveryStats,
    ) -> std::io::Result<()> {
        let (db, guard) = (self.db, self.guard);
        let tombstone = rec.kind == LogRecordKind::Delete;
        let table = self.table(rec.table.0, stamp)?;
        let key = index.then_some(rec.key);
        if db.apply_record(guard, table, rec.oid, key, rec.value, stamp, tombstone) {
            stats.skipped_stale -= 1;
            stats.built += 1;
        }
        Ok(())
    }

    /// Admit every record of a committed transaction's block — none if
    /// one of them is malformed.
    fn txn(&mut self, block: &BlockView<'_>, stats: &mut RecoveryStats) -> std::io::Result<()> {
        block.check_records()?;
        stats.replayed_blocks += 1;
        let in_order = self.ranking.is_some() || block.header.nrec == 1;
        let admit = |(addr, rec)| {
            stats.replayed_records += 1;
            self.admit(rec, block.header.cstamp, addr, stats)
        };
        if in_order {
            return block.records().try_for_each(admit);
        }
        // Building as we go: the records of a block share its stamp, so the
        // stamp check in `apply_record` cannot order several images of one
        // OID (delete-then-reinsert of a key). Only the last is the
        // committed outcome: build newest first, and the check drops the
        // earlier ones.
        block.records().collect::<Vec<_>>().into_iter().rev().try_for_each(admit)
    }

    /// [`Replay::txn`] for a 2PC prepare whose verdict is commit,
    /// stitching a `ReplApply` span onto the originating transaction's
    /// trace when the durable prepare marker carried a trace id. This is
    /// how a replica tailing the shipped log (and crash recovery) appears
    /// on the same timeline as the coordinator that ran the transaction;
    /// an untraced marker costs one comparison.
    fn prepare(&mut self, txn: &InDoubtTxn, stats: &mut RecoveryStats) -> std::io::Result<()> {
        let block = txn.block.view();
        if txn.trace_hi == 0 && txn.trace_lo == 0 {
            return self.txn(&block, stats);
        }
        let ring = self.db.telemetry().tracer().svc_ring().clone();
        let t0 = ring.now_ns();
        let r = self.txn(&block, stats);
        let ctx = TraceContext { trace_hi: txn.trace_hi, trace_lo: txn.trace_lo, parent: 0 };
        let cstamp = block.header.cstamp.raw();
        ring.record(&ctx, SpanKind::ReplApply, t0, ring.now_ns(), cstamp, 1);
        r
    }
}

/// Incremental log replay: the one-shot recovery scan generalized so a
/// replica can tail a growing log. Each [`LogApplier::apply_available`]
/// round replays every complete block past the applied frontier;
/// prepared-but-undecided 2PC transactions and the verdicts seen so far
/// carry over between rounds (a prepare and its decide may arrive in
/// different shipments).
///
/// The frontier only advances to positions just past a successfully
/// decoded block — a scan that stops at a hole (torn or not-yet-shipped
/// bytes) does *not* move it, so the next round rescans from the last
/// good block and replay stays gap-free no matter where a shipment ends.
pub struct LogApplier {
    applied: u64,
    pending: HashMap<(u32, u64), InDoubtTxn>,
    decides: VerdictSet,
    stats: RecoveryStats,
}

impl LogApplier {
    /// Start applying from logical log offset `from` (the checkpoint
    /// begin, or 0 for a from-scratch replay).
    pub fn new(from: u64) -> LogApplier {
        LogApplier {
            applied: from,
            pending: HashMap::new(),
            decides: VerdictSet::default(),
            stats: RecoveryStats::default(),
        }
    }

    /// Offline replay of `db`'s log over `checkpoint` (its begin LSN and
    /// payload), for a database nobody reads yet: choose each OID's
    /// newest image, then build those, keeping every verdict record (module
    /// docs). Returns the applier, standing at the tail and ready to follow
    /// it. The checkpoint was taken at a cut, its `begin`, and replay starts
    /// there: a snapshot at any offset replay has passed is
    /// transaction-consistent. An image stamped at or above `begin` cannot
    /// have been written by [`Database::checkpoint`] and is refused as
    /// corruption (`InvalidData`, naming its table and OID).
    pub fn rebuild(
        db: &Database,
        checkpoint: Option<(Lsn, Vec<u8>)>,
    ) -> std::io::Result<LogApplier> {
        LogApplier::choose(db, checkpoint)?.build(|_| true)
    }

    /// Step 1 of [`LogApplier::rebuild`], choose: scan the checkpoint and
    /// the log, index each key and rank each OID's images.
    pub(crate) fn choose(
        db: &Database,
        checkpoint: Option<(Lsn, Vec<u8>)>,
    ) -> std::io::Result<Chosen<'_>> {
        let t0 = Instant::now();
        let unbuilt = Unbuilt(db);
        let begin = checkpoint.as_ref().map_or(Lsn::NULL, |(begin, _)| *begin);
        let mut applier = LogApplier::new(begin.offset());
        let handle = db.inner.epoch.register();
        let guard = handle.pin();
        let mut replay = Replay::new(db, &guard, Some(false));
        let stats = &mut applier.stats;
        if let Some((_, payload)) = &checkpoint {
            read_rows(payload, |addr, stamp, rec| {
                if rec.kind != LogRecordKind::SecondaryInsert {
                    if stamp >= begin {
                        return Err(invalid(format!(
                            "checkpoint image of table {} OID {} is stamped {stamp:?}, at or \
                             above the checkpoint's begin {begin:?}",
                            rec.table.0, rec.oid.0
                        )));
                    }
                    stats.checkpoint_records += 1;
                }
                replay.admit(rec, stamp, addr, stats)
            })?;
        }
        replay.ranking = Some(true);
        // The open-time walk checksummed every block below its tail.
        applier.scan(&mut replay, db.inner.log.tail_at_open())?;
        applier.stats.elapsed = t0.elapsed();
        Ok(Chosen { unbuilt, applier, checkpoint })
    }

    /// The offset replay has consumed through: every byte below it has
    /// been applied (or was a skip/dead zone), and it is a sound resume
    /// point for both this applier and a resubscribing shipper.
    pub fn applied_offset(&self) -> u64 {
        self.applied
    }

    /// Replay counters accumulated so far.
    pub fn stats(&self) -> RecoveryStats {
        let mut stats = self.stats;
        stats.in_doubt = self.pending.len() as u64;
        stats
    }

    /// Replay every complete block currently in `db`'s log past the
    /// applied frontier, stacking each image on its chain as the commit
    /// did. Returns the number of blocks replayed this round.
    pub fn apply_available(&mut self, db: &Database) -> std::io::Result<u64> {
        let handle = db.inner.epoch.register();
        let guard = handle.pin();
        self.scan(&mut Replay::new(db, &guard, None), 0)
    }

    /// One pass from the applied frontier to the first hole, admitting
    /// through `replay` whatever is committed. Prepared-but-undecided
    /// transactions are parked across rounds: first-updater-wins
    /// guarantees no conflicting commit interleaves with a prepared
    /// transaction on the same record, and a prepare is admitted under its
    /// own stamp and addresses, so admitting it after later Txn blocks is
    /// order-safe. Blocks below `trusted` are not checksummed again.
    fn scan(&mut self, replay: &mut Replay<'_>, trusted: u64) -> std::io::Result<u64> {
        let db = replay.db;
        let from = self.applied;
        let mut rounds = 0u64;
        let mut scanner = LogScanner::new(db.inner.log.segments(), from).trusting(trusted);
        while let Some(block) = scanner.next_view()? {
            // Only a decoded block certifies the bytes behind it.
            self.applied = block.lsn.offset() + block.header.len as u64;
            self.stats.scanned_bytes += block.header.len as u64;
            match block.header.kind {
                BlockKind::Txn => {
                    rounds += 1;
                    replay.txn(&block, &mut self.stats)?;
                }
                BlockKind::TxnPrepare => {
                    let Some(marker) = block.prepare_marker() else { continue };
                    let gtid_lsn = if marker.coord_lsn == PrepareMarker::COORD_SELF {
                        block.header.cstamp.raw()
                    } else {
                        marker.coord_lsn
                    };
                    let txn = InDoubtTxn {
                        coord_shard: marker.coord_shard,
                        participants: marker.participants,
                        gtid_lsn,
                        trace_hi: marker.trace_hi,
                        trace_lo: marker.trace_lo,
                        block: block.to_owned(),
                    };
                    self.pending.insert((marker.coord_shard, gtid_lsn), txn);
                }
                BlockKind::TxnDecide => {
                    let Some(d) = DecideRecord::decode(block.payload) else { continue };
                    // Kept on the live tail even when it resolves this log's own
                    // prepare: another participant's copy may be lost.
                    if replay.ranking.is_none() {
                        self.decides.insert(&d);
                    }
                    let resolved = self.pending.remove(&(d.coord_shard, d.gtid_lsn));
                    if let Some(txn) = resolved.filter(|_| d.commit) {
                        rounds += 1;
                        replay.prepare(&txn, &mut self.stats)?;
                    }
                }
                BlockKind::Ddl => {
                    // How a tailing replica learns of tables, in log order;
                    // a recovery restored them at open and verifies here.
                    let rec = DdlRecord::decode(block.payload).ok_or_else(|| {
                        invalid(format!("malformed catalog entry at LSN {:?}", block.lsn))
                    })?;
                    db.inner.install_logged(&rec)?;
                }
                _ => {}
            }
        }
        Ok(rounds)
    }

    /// Every 2PC verdict seen so far. A multi-shard replica resolves
    /// other shards' pending prepares against these.
    pub fn decides(&self) -> &VerdictSet {
        &self.decides
    }

    /// Keys of prepares still awaiting a verdict.
    pub fn pending_keys(&self) -> Vec<(u32, u64)> {
        self.pending.keys().copied().collect()
    }

    /// Resolve one pending prepare with an externally obtained verdict
    /// (from another shard's [`LogApplier::decides`]). Applies the
    /// transaction when the verdict is commit; drops it otherwise.
    /// Returns false if the key was not pending.
    pub fn resolve(
        &mut self,
        db: &Database,
        key: (u32, u64),
        commit: bool,
    ) -> std::io::Result<bool> {
        let Some(txn) = self.pending.remove(&key) else { return Ok(false) };
        if commit {
            db.apply_in_doubt(&txn)?;
        }
        Ok(true)
    }

    /// Finish a one-shot recovery: whatever is still pending becomes the
    /// in-doubt set for the sharded resolution pass.
    pub fn into_outcome(self) -> RecoveryOutcome {
        let mut stats = self.stats;
        let in_doubt: Vec<InDoubtTxn> = self.pending.into_values().collect();
        stats.in_doubt = in_doubt.len() as u64;
        RecoveryOutcome { stats, in_doubt, decides: self.decides }
    }
}

/// A database whose slots may hold address words: dropped before step 2
/// finishes — an error on this shard or another, a [`Chosen`] never built
/// — it clears them, so no reader, collector or array drop meets one.
struct Unbuilt<'a>(&'a Database);

impl Unbuilt<'_> {
    /// Clear every address word left; the first one's table and OID.
    fn clear(&self) -> Option<(TableId, Oid)> {
        let mut left = None;
        for table in &self.0.inner.catalog.read().unwrap().tables {
            table.oids.for_each(|oid, head| {
                if OidArray::is_address(head) {
                    table.oids.store_head(oid, std::ptr::null_mut());
                    left.get_or_insert((table.id, oid));
                }
            });
        }
        left
    }
}

impl Drop for Unbuilt<'_> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Step 1's result for one database: the applier at the tail, holding the
/// prepares its own log left without a verdict, and the words to build.
pub(crate) struct Chosen<'a> {
    unbuilt: Unbuilt<'a>,
    pub(crate) applier: LogApplier,
    checkpoint: Option<(Lsn, Vec<u8>)>,
}

impl Chosen<'_> {
    /// Step 2, build: the same bytes again, in address order, building
    /// each image its slot's word names and keeping the verdict records
    /// `keep` names. A word left over is `InvalidData`.
    pub(crate) fn build(self, keep: impl Fn((u32, u64)) -> bool) -> std::io::Result<LogApplier> {
        let t0 = Instant::now();
        let Chosen { unbuilt, mut applier, checkpoint } = self;
        let db = unbuilt.0;
        let handle = db.inner.epoch.register();
        let guard = handle.pin();
        let mut replay = Replay::new(db, &guard, None);
        let stats = &mut applier.stats;
        let mut build = |from_log, addr, stamp, rec: TxRecordView<'_>| {
            if rec.kind == LogRecordKind::SecondaryInsert {
                return Ok(());
            }
            let oids = &replay.table(rec.table.0, stamp)?.oids;
            if oids.head(rec.oid) == OidArray::address_word(from_log, addr) {
                oids.store_head(rec.oid, std::ptr::null_mut()); // built over null
                replay.build(rec, stamp, false, stats)?;
            }
            Ok(())
        };
        let begin = checkpoint.as_ref().map_or(Lsn::NULL, |(begin, _)| *begin);
        if let Some((_, payload)) = &checkpoint {
            read_rows(payload, |addr, stamp, rec| build(false, addr, stamp, rec))?;
        }
        let end = applier.applied;
        let mut scanner = LogScanner::new(db.inner.log.segments(), begin.offset()).trusting(end);
        while scanner.offset() < end {
            let Some(block) = scanner.next_view()? else { break };
            match block.header.kind {
                BlockKind::Txn | BlockKind::TxnPrepare => {
                    for (addr, rec) in block.records() {
                        build(true, addr, block.header.cstamp, rec)?;
                    }
                }
                BlockKind::TxnDecide => {
                    let d = DecideRecord::decode(block.payload);
                    if let Some(d) = d.filter(|d| keep((d.coord_shard, d.gtid_lsn))) {
                        applier.decides.insert(&d);
                    }
                }
                _ => {}
            }
        }
        if let Some((table, oid)) = unbuilt.clear() {
            let what = "ranked an image that its second pass did not find";
            return Err(invalid(format!("recovery of table {} OID {} {what}", table.0, oid.0)));
        }
        stats.scanned_bytes += checkpoint.map_or(0, |(_, payload)| payload.len() as u64);
        stats.elapsed += t0.elapsed();
        db.inner.svc_event(SpanKind::Recovery, stats.scanned_bytes, stats.built);
        *db.inner.recovered.lock().unwrap() = *stats;
        Ok(applier)
    }
}

/// Index entries the checkpoint walk handles under one pin of the
/// engine's epoch (module docs, "The walk"): the pin costs nothing next to
/// them, and a free deferred meanwhile waits for one batch, not the walk.
const WALK_BATCH: usize = 1024;

/// Hand `row` the entries of `tree` in key order. `handle` is pinned for
/// at most [`WALK_BATCH`] entries at a time, and the walk resumes at the
/// first key not yet handed over; `row` runs under the pin, so what it
/// reaches through the engine's epoch stays allocated.
pub(crate) fn walk_index(handle: &EpochHandle, tree: &BTree, mut row: impl FnMut(&[u8], u64)) {
    let (mut from, mut next) = (Vec::new(), Vec::new());
    loop {
        let (mut room, mut more) = (WALK_BATCH, false);
        let mut entry = |key: &[u8], value| {
            if room == 0 {
                next.extend_from_slice(key);
                more = true;
                return ScanControl::Stop;
            }
            room -= 1;
            row(key, value);
            ScanControl::Continue
        };
        tree.scan(&handle.pin(), &from, None, |_| {}, &mut entry);
        if !more {
            break;
        }
        std::mem::swap(&mut from, &mut next);
        next.clear();
    }
}

/// Append `key`'s row to `rows`: `oid`'s version visible `at` the cut, by
/// the read path's rule, if there is one.
///
/// # Safety
///
/// The caller holds a pin of the engine's epoch, which versions are freed
/// through, as [`walk_index`]'s `row` does.
pub(crate) unsafe fn write_image(
    tid: &TidManager,
    table: &Table,
    at: Lsn,
    rows: &mut CheckpointRows,
    key: &[u8],
    oid: Oid,
) {
    let mut cur = table.oids.head(oid);
    // SAFETY: the caller's pin keeps every version reached here allocated.
    while let Some(v) = unsafe { cur.as_ref() } {
        if let Visibility::Visible { cstamp, .. } = visibility(tid, v, at, None) {
            let stamp = Lsn::from_raw(cstamp);
            return rows.image(stamp, table.id, oid, key, v.data(), v.tombstone());
        }
        cur = v.next.load(Ordering::Acquire);
    }
}

impl Database {
    /// Take a checkpoint at a cut and persist it with a marker file;
    /// returns its begin LSN, the cut. Every image is stamped below it,
    /// and recovery replays the log from exactly there. If the log cannot
    /// become durable through the cut (poisoned, or a crash lands first)
    /// no marker appears and recovery falls back to the previous
    /// checkpoint plus a longer replay: a version is never restored above
    /// the recovered log tail, where it would hide an acked one.
    pub fn checkpoint(&self) -> std::io::Result<Lsn> {
        let store = self
            .inner
            .checkpoints
            .as_ref()
            .expect("checkpointing requires a durable (log-dir) configuration");
        let cut = self.cut();
        let payload = self.checkpoint_payload(&cut)?;
        store.write(CheckpointMeta { begin: cut.stamp() }, &payload)?;
        Ok(cut.stamp())
    }

    /// [`Database::checkpoint`]'s payload at `cut`: append the whole
    /// catalog (it lands above the cut, so truncating below the checkpoint
    /// never retires the only copy of an entry, and whoever mirrors the
    /// segments from the cut on finds every table the payload names), wait
    /// once for it to be durable — every commit below the cut then is —
    /// and walk every index once, in key order, writing each primary key
    /// with the version visible at the cut, and every secondary entry, as
    /// checkpoint rows. The cut's GC pin keeps what the walk reads linked;
    /// the engine's own epoch, which keys and chains are freed through, is
    /// pinned a batch at a time, so no deferred free waits for the whole
    /// walk.
    pub(crate) fn checkpoint_payload(&self, cut: &Cut) -> std::io::Result<Vec<u8>> {
        let begin = cut.stamp();
        let mut rows = CheckpointRows::default();
        let handle = self.inner.epoch.register();

        // Under the lock the walk holds: a table created meanwhile waits,
        // and logs its own entry above `begin`.
        let catalog = self.inner.catalog.read().unwrap();
        let catalog_end = catalog.append_all(&self.inner.log)?;
        self.inner
            .log
            .wait_durable(catalog_end.max(begin.offset()))
            .map_err(std::io::Error::other)?;
        for table in &catalog.tables {
            walk_index(&handle, &table.primary, |key, oid| {
                // SAFETY: `walk_index` runs `row` under its pin.
                unsafe {
                    write_image(&self.inner.tid, table, begin, &mut rows, key, Oid(oid as u32))
                }
            });
        }
        for idx in catalog.indexes.iter().filter(|i| !i.is_primary) {
            walk_index(&handle, &idx.tree, |key, oid| {
                rows.index_entry(idx.table, idx.id, Oid(oid as u32), key);
            });
        }
        Ok(rows.into_payload())
    }

    /// Recover: restore the latest checkpoint (if any), then replay the
    /// log forward. The catalog came back with [`Database::open`]; a row
    /// naming a table the catalog does not hold is an `InvalidData`
    /// error.
    ///
    /// 2PC prepares whose verdict is not in this log are *presumed
    /// aborted* (counted in [`RecoveryStats::in_doubt`]). Sharded
    /// deployments recover through `ShardedDb::recover`, which resolves
    /// them against every participant's log instead.
    pub fn recover(&self) -> std::io::Result<RecoveryStats> {
        Ok(LogApplier::choose(self, self.latest_checkpoint()?)?.build(|_| false)?.stats())
    }

    /// Apply a resolved in-doubt prepare (verdict: commit) that recovery
    /// of this same database left. It comes after the build, so it stacks
    /// on what its rows hold — and says so to the collector — like any
    /// commit at the tail.
    pub fn apply_in_doubt(&self, txn: &InDoubtTxn) -> std::io::Result<()> {
        let handle = self.inner.epoch.register();
        let guard = handle.pin();
        Replay::new(self, &guard, None).prepare(txn, &mut RecoveryStats::default())
    }

    /// Idempotently apply one record image: install iff newer than the
    /// current head (a block's records share its stamp and are built
    /// newest first, see [`Replay::txn`]). `key` is indexed if the image
    /// creates its OID's chain; offline, step 1 indexed it (`None`).
    #[allow(clippy::too_many_arguments)]
    fn apply_record(
        &self,
        guard: &ermia_epoch::Guard<'_>,
        table: &Table,
        oid: Oid,
        key: Option<&[u8]>,
        value: &[u8],
        cstamp: Lsn,
        tombstone: bool,
    ) -> bool {
        table.oids.ensure_allocated(oid);
        let head = table.oids.head(oid);
        if !head.is_null() {
            let hstamp = unsafe { (*head).stamp() };
            if !hstamp.is_tid() && hstamp.as_lsn() >= cstamp {
                return false; // already have this or newer
            }
        }
        let new = Version::alloc(Stamp::from_lsn(cstamp), value, tombstone);
        unsafe { (*new).next.store(head, Ordering::Relaxed) };
        table.oids.store_head(oid, new);
        if head.is_null() {
            // The record that creates an OID's chain indexes its key. A
            // committed OID never changes key (a delete is a tombstone,
            // and only never-committed inserts recycle their OID), so a
            // later record of the same OID finds it indexed already.
            if let Some(key) = key {
                let _ = table.primary.insert(guard, key, oid.0 as u64);
            }
        } else {
            // The live tail stacks versions exactly as the commits did;
            // without this the collector would never hear of them. (The
            // offline build finds every head null and never gets here.)
            self.inner.retire(&[Retired { cstamp, table: table.id, oid }]);
        }
        true
    }
}
