//! Checkpointing and recovery (paper §3.7).
//!
//! "Recovery in ERMIA is straightforward because the log contains only
//! committed work; OID arrays are the only real source of complexity."
//! The engine periodically copies the OID arrays (non-atomically — a
//! *fuzzy* checkpoint) to secondary storage, then recovery restores the
//! snapshot and rolls it forward by scanning the log after the
//! checkpoint. No undo is ever needed; the log truncates at the first
//! hole without losing committed work.
//!
//! The paper stores only OID→log-address mappings and relies on
//! anti-caching to load record bodies on demand; this reproduction has no
//! buffer manager, so checkpoints carry record payloads inline and replay
//! materializes versions directly. The *structure* of recovery (fuzzy
//! snapshot + header-driven forward scan, idempotent by stamp
//! comparison) matches the paper.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use ermia_common::{Lsn, Oid, Stamp};
use ermia_log::{
    CheckpointMeta, DdlRecord, DecideRecord, LogRecord, LogRecordKind, LogScanner, PrepareMarker,
};
use ermia_storage::{Retired, Version};
use ermia_telemetry::{SpanKind, TraceContext};

use crate::database::{invalid, Database, Table};

/// Replay one resolved 2PC prepare, stitching a `ReplApply` span onto
/// the originating transaction's trace when the durable prepare marker
/// carried a trace id. This is how a replica tailing the shipped log
/// (and crash recovery) appears on the same timeline as the coordinator
/// that ran the transaction; an untraced marker costs one comparison.
fn apply_traced(
    db: &Database,
    txn: &InDoubtTxn,
    stats: &mut RecoveryStats,
) -> std::io::Result<()> {
    if txn.trace_hi == 0 && txn.trace_lo == 0 {
        return db.replay_records(&txn.records, txn.cstamp, stats);
    }
    let ring = db.telemetry().tracer().svc_ring().clone();
    let t0 = ring.now_ns();
    let r = db.replay_records(&txn.records, txn.cstamp, stats);
    let ctx = TraceContext { trace_hi: txn.trace_hi, trace_lo: txn.trace_lo, parent: 0 };
    ring.record(
        &ctx,
        SpanKind::ReplApply,
        t0,
        ring.now_ns(),
        txn.cstamp.raw(),
        txn.coord_shard as u64,
    );
    r
}

/// Counters reported by [`Database::recover`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records restored from the checkpoint snapshot.
    pub checkpoint_records: u64,
    /// Log blocks replayed after the checkpoint.
    pub replayed_blocks: u64,
    /// Individual log records applied.
    pub replayed_records: u64,
    /// Record images superseded by a newer one (fuzzy-checkpoint overlap,
    /// or a later record of the same transaction). Nothing else is ever
    /// skipped: a record naming an unknown table or index is an error.
    pub skipped_stale: u64,
    /// 2PC prepares whose verdict was not in this shard's own log. A
    /// standalone [`Database::recover`] presumes abort for these; a
    /// sharded recovery resolves them against every participant's log.
    pub in_doubt: u64,
}

/// A 2PC prepare found in the log without a local verdict. Produced by
/// [`Database::recover_outcome`]; the sharded recovery pass applies it if
/// any participant's log holds a commit verdict, or — no verdict anywhere
/// — if all `participants` prepares of the transaction are there, and
/// drops it otherwise.
pub struct InDoubtTxn {
    /// Shard that coordinated the global transaction.
    pub coord_shard: u32,
    /// How many shards prepared for it, from the prepare marker; 0 in a
    /// log written before markers carried the count.
    pub participants: u32,
    /// Raw LSN of the coordinator's prepare block (with `coord_shard`,
    /// the global transaction id).
    pub gtid_lsn: u64,
    /// This participant's prepare cstamp — the commit LSN the records
    /// take if the verdict is commit.
    pub cstamp: Lsn,
    /// Trace id the coordinator stamped into the prepare marker
    /// ((0, 0) = untraced): applying this prepare records a `ReplApply`
    /// span under the originating transaction's trace.
    pub trace_hi: u64,
    pub trace_lo: u64,
    records: Vec<LogRecord>,
}

/// Everything one shard's log scan produced: replay counters, unresolved
/// prepares, and every 2PC verdict found, for resolving *other* shards'
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
/// from its own copy must still answer for a shard whose copy was lost,
/// and every verdict is kept. That is one entry per cross-shard commit in
/// the log, hence the shape: per coordinator, one sorted `Vec<u64>` of
/// `gtid_lsn << 1 | commit` (a raw LSN never has its top bit set) — 8
/// bytes a verdict, where a hash-map entry costs four times that. Gtids
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
    /// applied frontier. Returns the number of blocks replayed this
    /// round. Prepared-but-undecided transactions are buffered across
    /// rounds: first-updater-wins guarantees no conflicting commit
    /// interleaves with a prepared transaction on the same record, and
    /// replay is stamp-idempotent, so applying a decided prepare after
    /// later Txn blocks is order-safe.
    pub fn apply_available(&mut self, db: &Database) -> std::io::Result<u64> {
        let mut rounds = 0u64;
        let mut scanner = LogScanner::new(db.inner.log.segments(), self.applied);
        while let Some(block) = scanner.next_block()? {
            // Only a decoded block certifies the bytes behind it.
            self.applied = scanner.offset();
            match block.header.kind {
                ermia_log::BlockKind::Txn => {
                    rounds += 1;
                    self.stats.replayed_blocks += 1;
                    db.replay_records(&block.records(), block.header.cstamp, &mut self.stats)?;
                }
                ermia_log::BlockKind::TxnPrepare => {
                    let Some(marker) = block.prepare_marker() else { continue };
                    let cstamp = block.header.cstamp;
                    let gtid_lsn = if marker.coord_lsn == PrepareMarker::COORD_SELF {
                        cstamp.raw()
                    } else {
                        marker.coord_lsn
                    };
                    let txn = InDoubtTxn {
                        coord_shard: marker.coord_shard,
                        participants: marker.participants,
                        gtid_lsn,
                        cstamp,
                        trace_hi: marker.trace_hi,
                        trace_lo: marker.trace_lo,
                        records: block.records(),
                    };
                    self.pending.insert((marker.coord_shard, gtid_lsn), txn);
                }
                ermia_log::BlockKind::TxnDecide => {
                    let Some(d) = DecideRecord::decode(&block.payload) else { continue };
                    // Kept even when it resolves this log's own prepare:
                    // another participant's copy may not have survived.
                    self.decides.insert(&d);
                    let resolved = self.pending.remove(&(d.coord_shard, d.gtid_lsn));
                    if let Some(txn) = resolved.filter(|_| d.commit) {
                        rounds += 1;
                        self.stats.replayed_blocks += 1;
                        apply_traced(db, &txn, &mut self.stats)?;
                    }
                }
                ermia_log::BlockKind::Ddl => {
                    // How a tailing replica learns of tables, in log order;
                    // a recovery restored them at open and verifies here.
                    let rec = DdlRecord::decode(&block.payload).ok_or_else(|| {
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
    pub fn resolve(&mut self, db: &Database, key: (u32, u64), commit: bool) -> std::io::Result<bool> {
        let Some(txn) = self.pending.remove(&key) else { return Ok(false) };
        if commit {
            self.stats.replayed_blocks += 1;
            apply_traced(db, &txn, &mut self.stats)?;
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

// Checkpoint payload format (little-endian):
//   u32 ntables
//   per table: u32 table_id, u32 nrecords
//     per record: u32 oid, u64 clsn_raw, u8 tombstone,
//                 u16 key_len, u32 val_len, key, val
//   u32 nsecondary
//     per entry: u32 index_id, u32 oid, u16 key_len, key

impl Database {
    /// Take a fuzzy checkpoint: walk every indirection array, serialize
    /// the newest committed version of each record, wait for everything
    /// captured to be durable in the log, then persist the snapshot with
    /// a marker file. Returns the checkpoint's begin LSN.
    ///
    /// Two rules keep the fuzzy snapshot honest about crashes:
    ///
    /// * **Replay frontier.** A commit may be mid-post-commit while the
    ///   walk runs, its versions still TID-stamped and invisible — yet
    ///   its log block can already be durable, below where a naive
    ///   `tail_lsn()` frontier would start replay. The begin LSN is
    ///   lowered to the earliest in-flight commit stamp (captured
    ///   *before* the walk) so replay re-applies whatever the walk could
    ///   not see. Replay is idempotent, so overlap is harmless.
    /// * **Durability barrier.** Version stamps advance before their log
    ///   blocks reach disk, so the walk can capture commits the log
    ///   cannot yet back — and chain GC may have already reclaimed the
    ///   older durable version, so filtering them out would drop the key
    ///   from the snapshot entirely. Instead the checkpoint is published
    ///   only once the log is durable past every captured stamp. If the
    ///   log cannot catch up (poisoned, or a crash lands first) no
    ///   marker appears and recovery falls back to the previous
    ///   checkpoint plus a longer replay; an acked write is never
    ///   shadowed by unbacked state. Without the barrier, restoring such
    ///   a version plants it *above* the recovered log tail — invisible
    ///   to every snapshot and hiding the acked version the checkpoint
    ///   no longer carries (the exact loss the chaos harness's
    ///   durability oracle caught).
    ///
    /// The whole catalog is appended to the log behind `begin`, and the
    /// barrier covers it too: truncating below this checkpoint can then
    /// never retire the only copy of an entry, and whoever mirrors the
    /// segments from `begin` on finds every table the payload names.
    pub fn checkpoint(&self) -> std::io::Result<Lsn> {
        let store = self
            .inner
            .checkpoints
            .as_ref()
            .expect("checkpointing requires a durable (log-dir) configuration");
        // Before the walk: any commit stamp acquired after this scan is
        // at or above the current tail, hence at or above `begin`.
        let begin = self.inner.tid.min_commit_low_water(self.inner.log.tail_lsn());
        let mut max_captured = Lsn::NULL;
        let mut payload: Vec<u8> = Vec::new();

        // Under the lock the walk holds: a table created meanwhile waits,
        // and logs its own entry above `begin`.
        let catalog = self.inner.catalog.read();
        let catalog_end = catalog.append_all(&self.inner.log)?;
        payload.extend_from_slice(&(catalog.tables.len() as u32).to_le_bytes());
        for table in &catalog.tables {
            payload.extend_from_slice(&table.id.0.to_le_bytes());
            let count_pos = payload.len();
            payload.extend_from_slice(&0u32.to_le_bytes());
            let keys = primary_keys_of(table);
            let mut n: u32 = 0;
            table.oids.for_each(|oid, head| {
                // Newest committed version at snapshot time; in-flight
                // (TID-stamped) versions belong to the log, not the
                // checkpoint.
                let mut cur = head;
                while !cur.is_null() {
                    let v = unsafe { &*cur };
                    let stamp = v.stamp();
                    if !stamp.is_tid() {
                        // A key can only be missing for an OID committed
                        // after the reverse scan; its stamp is past
                        // `begin`, so replay restores it from the log.
                        let Some(key) = keys.get(&oid.0) else { break };
                        max_captured = max_captured.max(stamp.as_lsn());
                        payload.extend_from_slice(&oid.0.to_le_bytes());
                        payload.extend_from_slice(&stamp.raw().to_le_bytes());
                        payload.push(v.tombstone as u8);
                        payload.extend_from_slice(&(key.len() as u16).to_le_bytes());
                        payload.extend_from_slice(&(v.data().len() as u32).to_le_bytes());
                        payload.extend_from_slice(key);
                        payload.extend_from_slice(v.data());
                        n += 1;
                        break;
                    }
                    cur = v.next.load(Ordering::Acquire);
                }
            });
            payload[count_pos..count_pos + 4].copy_from_slice(&n.to_le_bytes());
        }
        // Secondary index entries.
        let secondaries: Vec<_> = catalog.indexes.iter().filter(|i| !i.is_primary).collect();
        payload.extend_from_slice(&(secondaries.len() as u32).to_le_bytes());
        for idx in secondaries {
            let entry_pos = payload.len();
            payload.extend_from_slice(&0u32.to_le_bytes());
            let mut n: u32 = 0;
            let mgr = ermia_epoch::EpochManager::new("chk");
            let h = mgr.register();
            let g = h.pin();
            idx.tree.scan(
                &g,
                &[],
                &[0xFF; 64],
                |_| {},
                |k, oid| {
                    payload.extend_from_slice(&idx.id.0.to_le_bytes());
                    payload.extend_from_slice(&(oid as u32).to_le_bytes());
                    payload.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    payload.extend_from_slice(k);
                    n += 1;
                    ermia_index::ScanControl::Continue
                },
            );
            payload[entry_pos..entry_pos + 4].copy_from_slice(&n.to_le_bytes());
        }
        drop(catalog);

        // Durability barrier: publish nothing until the log durably backs
        // every captured stamp and the catalog. `durable` advancing past
        // a block's start LSN means the whole block is on disk (it
        // advances in block units), so `offset + 1` is the right
        // group-commit target.
        let captured_end = if max_captured.is_null() { 0 } else { max_captured.offset() + 1 };
        self.inner
            .log
            .wait_durable(catalog_end.max(captured_end))
            .map_err(std::io::Error::other)?;
        store.write(CheckpointMeta { begin }, &payload)?;
        Ok(begin)
    }

    /// Recover: restore the latest checkpoint (if any), then replay the
    /// log forward. The catalog came back with [`Database::open`]; only a
    /// directory written before the log carried it needs its tables
    /// declared first, in their original order — a row naming a table
    /// the catalog does not hold is an `InvalidData` error.
    ///
    /// 2PC prepares whose verdict is not in this log are *presumed
    /// aborted* (counted in [`RecoveryStats::in_doubt`]). Sharded
    /// deployments recover through `ShardedDb::recover`, which uses
    /// [`Database::recover_outcome`] to resolve them against every
    /// participant's log instead.
    pub fn recover(&self) -> std::io::Result<RecoveryStats> {
        self.recover_outcome().map(|o| o.stats)
    }

    /// [`Database::recover`] plus the raw material the sharded
    /// resolution pass needs: this shard's unresolved prepares and every
    /// 2PC verdict its log contains.
    pub fn recover_outcome(&self) -> std::io::Result<RecoveryOutcome> {
        let mut checkpoint_records = 0u64;
        let mut from = 0u64;
        if let Some(store) = &self.inner.checkpoints {
            if let Some((meta, payload)) = store.latest()? {
                (checkpoint_records, _) = self.install_checkpoint(&payload)?;
                from = meta.begin.offset();
            }
        }
        let mut applier = LogApplier::new(from);
        applier.apply_available(self)?;
        let mut outcome = applier.into_outcome();
        outcome.stats.checkpoint_records = checkpoint_records;
        Ok(outcome)
    }

    /// Apply a resolved in-doubt prepare (verdict: commit) produced by
    /// [`Database::recover_outcome`] on this same database.
    pub fn apply_in_doubt(&self, txn: &InDoubtTxn) -> std::io::Result<()> {
        let mut stats = RecoveryStats::default();
        self.replay_records(&txn.records, txn.cstamp, &mut stats)
    }

    /// Replay one committed transaction's records at `cstamp`.
    fn replay_records(
        &self,
        recs: &[LogRecord],
        cstamp: Lsn,
        stats: &mut RecoveryStats,
    ) -> std::io::Result<()> {
        // Every record in a block shares the commit stamp, so the
        // stamp-based idempotency check in `apply_record` cannot order
        // multiple ops on the same OID within one transaction (e.g.
        // delete-then-reinsert of a key). Only the last image per OID
        // is the committed outcome; apply that one alone.
        let mut last_per_oid = std::collections::HashMap::new();
        for (i, rec) in recs.iter().enumerate() {
            if !matches!(rec.kind, LogRecordKind::SecondaryInsert) {
                last_per_oid.insert((rec.table.0, rec.oid.0), i);
            }
        }
        // Paid once per block, not once per record: the epoch handle the
        // index inserts run under, and the catalog lookup of the table.
        let handle = self.inner.epoch.register();
        let guard = handle.pin();
        let mut table = None;
        for (i, rec) in recs.iter().enumerate() {
            stats.replayed_records += 1;
            match rec.kind {
                LogRecordKind::Insert | LogRecordKind::Update | LogRecordKind::Delete => {
                    if last_per_oid.get(&(rec.table.0, rec.oid.0)) != Some(&i) {
                        stats.skipped_stale += 1;
                        continue;
                    }
                    // Indirect values live in the blob store; the log
                    // record carries the reference.
                    let resolved;
                    let value: &[u8] = if rec.indirect {
                        let blob = ermia_log::BlobRef::decode(&rec.value)
                            .expect("malformed blob reference in log");
                        resolved = self.inner.blobs.read(blob)?;
                        &resolved
                    } else {
                        &rec.value
                    };
                    let tombstone = rec.kind == LogRecordKind::Delete;
                    let t = self.replay_table(&mut table, rec.table.0, cstamp)?;
                    if !self.apply_record(&guard, t, rec.oid, &rec.key, value, cstamp, tombstone) {
                        stats.skipped_stale += 1;
                    }
                }
                LogRecordKind::SecondaryInsert => {
                    let index_raw =
                        u32::from_le_bytes(rec.value[..4].try_into().expect("index id"));
                    self.apply_secondary(&guard, index_raw, &rec.key, rec.oid, cstamp)?;
                }
            }
        }
        Ok(())
    }

    /// Install a checkpoint payload into this database's (empty or
    /// stale) in-memory state. Returns `(records installed, publish
    /// floor)` — the floor is the maximum commit stamp the fuzzy walk
    /// captured. A fuzzy checkpoint stores only the newest committed
    /// version per record at walk time, so a version overwritten before
    /// the walk (stamp below `begin`) whose overwriter landed after
    /// `begin` exists in *neither* the payload *nor* replay-below-floor:
    /// snapshots cut between `begin` and the floor could see the
    /// overwriter's key but miss siblings the walk captured later. A
    /// replica therefore must not serve a cut until replay has passed
    /// the floor; from there on every cut is transaction-consistent.
    pub fn install_checkpoint(&self, payload: &[u8]) -> std::io::Result<(u64, Lsn)> {
        let mut pos = 0usize;
        let mut restored = 0u64;
        let mut floor = Lsn::NULL;
        let rd_u16 = |p: &mut usize| {
            let v = u16::from_le_bytes(payload[*p..*p + 2].try_into().unwrap());
            *p += 2;
            v
        };
        let rd_u32 = |p: &mut usize| {
            let v = u32::from_le_bytes(payload[*p..*p + 4].try_into().unwrap());
            *p += 4;
            v
        };
        let rd_u64 = |p: &mut usize| {
            let v = u64::from_le_bytes(payload[*p..*p + 8].try_into().unwrap());
            *p += 8;
            v
        };
        let handle = self.inner.epoch.register();
        let ntables = rd_u32(&mut pos);
        for _ in 0..ntables {
            let table_id = rd_u32(&mut pos);
            let nrecords = rd_u32(&mut pos);
            // One catalog lookup and one pin per table.
            let mut memo = None;
            let table = self.replay_table(&mut memo, table_id, Lsn::NULL)?;
            let guard = handle.pin();
            for _ in 0..nrecords {
                let oid = rd_u32(&mut pos);
                let clsn = rd_u64(&mut pos);
                let tombstone = payload[pos] != 0;
                pos += 1;
                let key_len = rd_u16(&mut pos) as usize;
                let val_len = rd_u32(&mut pos) as usize;
                let key = &payload[pos..pos + key_len];
                pos += key_len;
                let val = &payload[pos..pos + val_len];
                pos += val_len;
                floor = floor.max(Lsn::from_raw(clsn));
                self.apply_record(&guard, table, Oid(oid), key, val, Lsn::from_raw(clsn), tombstone);
                restored += 1;
            }
        }
        let guard = handle.pin();
        let nsecondary = rd_u32(&mut pos);
        for _ in 0..nsecondary {
            let nentries = rd_u32(&mut pos);
            for _ in 0..nentries {
                let index_raw = rd_u32(&mut pos);
                let oid = rd_u32(&mut pos);
                let key_len = rd_u16(&mut pos) as usize;
                let key = &payload[pos..pos + key_len];
                pos += key_len;
                self.apply_secondary(&guard, index_raw, key, Oid(oid), Lsn::NULL)?;
            }
        }
        Ok((restored, floor))
    }

    /// The table a replayed record names, through a one-entry memo: the
    /// catalog lock is taken when the table changes, not per record. A
    /// table the catalog does not hold is an error naming `at`, the LSN of
    /// the block (null: the checkpoint) — a directory from before the log
    /// carried the catalog whose table was not declared first, or
    /// corruption.
    fn replay_table<'m>(
        &self,
        memo: &'m mut Option<(u32, std::sync::Arc<Table>)>,
        table_raw: u32,
        at: Lsn,
    ) -> std::io::Result<&'m Table> {
        if memo.as_ref().is_none_or(|(raw, _)| *raw != table_raw) {
            let catalog = self.inner.catalog.read();
            *memo = catalog.tables.get(table_raw as usize).map(|t| (table_raw, t.clone()));
        }
        memo.as_ref()
            .map(|(_, t)| &**t)
            .ok_or_else(|| invalid(format!("a row at LSN {at:?} names unknown table {table_raw}")))
    }

    /// Idempotently apply one record image: install iff newer than the
    /// current head (fuzzy checkpoints and replay may overlap).
    #[allow(clippy::too_many_arguments)]
    fn apply_record(
        &self,
        guard: &ermia_epoch::Guard<'_>,
        table: &Table,
        oid: Oid,
        key: &[u8],
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
            let _ = table.primary.insert(guard, key, oid.0 as u64);
        } else {
            // Replay stacks versions exactly as the commits did; without
            // this the collector would never hear of them.
            self.inner.retire(&[Retired { cstamp, table: table.id, oid }]);
        }
        true
    }

    fn apply_secondary(
        &self,
        guard: &ermia_epoch::Guard<'_>,
        index_raw: u32,
        key: &[u8],
        oid: Oid,
        at: Lsn,
    ) -> std::io::Result<()> {
        let idx = self.inner.catalog.read().indexes.get(index_raw as usize).cloned();
        let idx = idx.ok_or_else(|| {
            invalid(format!("an index entry at LSN {at:?} names unknown index {index_raw}"))
        })?;
        let _ = idx.tree.insert(guard, key, oid.0 as u64);
        Ok(())
    }
}

/// Build the OID→primary-key reverse map for one checkpoint pass. Keys
/// are not stored in versions, so the walk resolves them through this
/// map; it is rebuilt on every checkpoint — a cached map would miss keys
/// inserted since it was built and silently emit them keyless.
///
/// NOTE: building the reverse map per table per checkpoint is O(n); the
/// paper's checkpoint stores OID→address only (keys live in the log).
/// Payload-carrying checkpoints need the key; the map amortizes to one
/// tree scan per table.
fn primary_keys_of(table: &crate::database::Table) -> std::collections::HashMap<u32, Vec<u8>> {
    let mut map = std::collections::HashMap::new();
    let mgr = ermia_epoch::EpochManager::new("chk-key");
    let h = mgr.register();
    let g = h.pin();
    table.primary.scan(
        &g,
        &[],
        &[0xFF; 64],
        |_| {},
        |k, v| {
            map.insert(v as u32, k.to_vec());
            ermia_index::ScanControl::Continue
        },
    );
    map
}
