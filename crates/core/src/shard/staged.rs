//! The staged two-phase commit: what a cross-shard commit is between
//! "every writer prepared" and its verdict.

use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use ermia_common::{AbortReason, TxResult};
use ermia_log::{
    BlockKind, DecideRecord, DurableWaker, PrepareMarker, BLOCK_HEADER_LEN, DECIDE_RECORD_LEN,
    MIN_BLOCK_LEN,
};
use ermia_telemetry::{FamilyDef, MetricDesc, MetricKind, SpanKind, SpanRing, TraceContext};

use super::parker::{DeferredCommit, Parker, Settled};
use super::txn::ActiveTrace;
use super::{ShardedDb, ShardedWorker};
use crate::database::Database;
use crate::transaction::{CommitToken, Prepared, Txn};

const TWOPC_CROSS: usize = 0;
const TWOPC_PREPARE_HIST: usize = 0;
const TWOPC_DECIDE_HIST: usize = 1;

/// Per-worker 2PC metrics, registered on shard 0's registry.
pub(super) static TWOPC_FAMILY: FamilyDef = FamilyDef {
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

/// Total length of a TxnDecide block (header + 16-byte record, rounded
/// up to the allocation grain).
const DECIDE_BLOCK_LEN: usize =
    (BLOCK_HEADER_LEN + DECIDE_RECORD_LEN).div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN;

/// Append a TxnDecide block to `db`'s log. Returns the block's
/// exclusive end offset for durability waiting.
pub(super) fn write_decide(db: &Database, rec: DecideRecord) -> io::Result<u64> {
    let res = db.inner.log.allocate(DECIDE_BLOCK_LEN)?;
    let end = res.end_offset();
    res.encode(BlockKind::TxnDecide, |block| block.put(&rec.encode()));
    Ok(end)
}

/// One writer shard's half of a [`StagedCommit`].
struct Participant {
    shard: usize,
    /// `None` once the verdict was delivered.
    prepare: Option<Prepared>,
    /// Exclusive end offset of the prepare block in the shard's log.
    end_offset: u64,
    /// The prepare block is durable.
    durable: bool,
}

/// Where a [`StagedCommit`] stands.
enum Stage {
    /// Every writer shard holds a prepared participant; waiting for
    /// their prepare blocks to be durable.
    Prepared,
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
/// prepared ─► finalized ─► (verdict record appended)
///     └── abort: abort verdict appended, then rolled back
/// ```
///
/// It borrows nothing: every participant is a prepared transaction, a
/// value that holds no worker and pins no epoch, so the worker that ran
/// the transaction is free. It waits only on log offsets
/// ([`StagedCommit::waits`]), so a [`Parker`] carries any number of them
/// through the same flush; a blocking [`StagedCommit::wait`] runs one of
/// its own. Every prepare being durable is the commit point: nothing is
/// published or answered before it (invariant 1), and the verdict record
/// is owed to the logs only after ([`StagedCommit::write_verdict`]).
///
/// A thread that runs transactions may wait on its prepared heads, so the
/// thread that resolves it must not sleep on them: it polls its parker
/// as it waits ([`crate::VerdictHelper`]). Dropped unresolved, it aborts
/// like [`StagedCommit::abort`].
pub struct StagedCommit {
    db: ShardedDb,
    /// Writer participants in shard order; the first coordinates.
    parts: Vec<Participant>,
    /// The coordinator's prepare cstamp: the global transaction id.
    gtid_lsn: u64,
    stage: Stage,
    prepare_start: Instant,
    trace: Option<StagedTrace>,
}

impl StagedCommit {
    /// Phase one: prepare every writer on `worker` — coordinator (lowest
    /// writer shard) first, its prepare cstamp is the global transaction
    /// id.
    pub(super) fn prepare(
        worker: &mut ShardedWorker,
        trace: Option<ActiveTrace>,
        writers: Vec<(usize, Txn)>,
    ) -> TxResult<Box<StagedCommit>> {
        let ShardedWorker { db, workers, tel, .. } = worker;
        let ring = &*tel.ring;
        db.inner.in_doubt.fetch_add(1, Relaxed);
        // From here every exit, the early returns included, closes the
        // in-doubt window through `Drop`.
        let mut staged = Box::new(StagedCommit {
            db: db.clone(),
            parts: Vec::with_capacity(writers.len()),
            gtid_lsn: 0,
            stage: Stage::Prepared,
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
        let now = || trace.map(|_| ring.now_ns()).unwrap_or(0);
        let coord = writers[0].0;
        // A participant that fails to prepare leaves the others' blocks
        // one short of this count: recovery aborts them.
        let participants = writers.len() as u32;
        let mut writers = writers.into_iter();
        for (i, t) in writers.by_ref() {
            let t0 = now();
            let coord_lsn = if i == coord { PrepareMarker::COORD_SELF } else { staged.gtid_lsn };
            let marker = PrepareMarker {
                coord_shard: coord as u32,
                participants,
                coord_lsn,
                trace_hi,
                trace_lo,
            };
            match t.precommit(&mut workers[i], Some(marker)) {
                Ok(p) => {
                    if i == coord {
                        staged.gtid_lsn = p.cstamp().raw();
                    }
                    let (part, c) = (i as u64, p.cstamp().raw());
                    match trace {
                        Some(tr) => {
                            ring.record(&tr.ctx, SpanKind::TwoPcPrepare, t0, now(), part, c);
                        }
                        None => {
                            ring.event(&TraceContext::UNTRACED, SpanKind::TwoPcPrepare, part, c)
                        }
                    }
                    let end_offset = p.end_offset().expect("a writer's prepare fills a block");
                    staged.parts.push(Participant {
                        shard: i,
                        prepare: Some(p),
                        end_offset,
                        durable: false,
                    });
                }
                Err(r) => {
                    // Roll back the participants prepared so far (their
                    // blocks are one prepare short) and those not yet.
                    for p in &mut staged.parts {
                        let prepare = p.prepare.take().expect("no verdict yet");
                        prepare.abort(&mut workers[p.shard], r);
                    }
                    staged.parts.clear();
                    for (i, t) in writers {
                        t.abort(&mut workers[i]);
                    }
                    return Err(r);
                }
            }
        }
        if let Some(tr) = &mut staged.trace {
            tr.t0 = now();
        }
        Ok(staged)
    }

    /// The log offsets this commit is waiting on now, as (shard, end
    /// offset) pairs: every prepare block not yet seen durable.
    pub fn waits(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.parts.iter().filter(|p| !p.durable).map(|p| (p.shard, p.end_offset))
    }

    /// Move as far as durability allows, without blocking. `None` while
    /// a wait is outstanding; otherwise the verdict, delivered to every
    /// participant on `resolver` (any worker of this engine not running a
    /// transaction): its epoch pins, its counters, its span ring. After a
    /// commit verdict the caller answers whoever waits for it, then calls
    /// [`StagedCommit::write_verdict`].
    pub fn poll(&mut self, resolver: &mut ShardedWorker) -> Option<TxResult<CommitToken>> {
        let inner = Arc::clone(&self.db.inner);
        let ring = Arc::clone(&resolver.tel.ring);
        assert!(matches!(self.stage, Stage::Prepared), "polled after its verdict");
        // Invariant 1: every prepare durable before anything is
        // published — a published half whose sibling's prepare is lost
        // would be a partial transaction after a crash.
        for i in 0..self.parts.len() {
            let p = &self.parts[i];
            if p.durable {
                continue;
            }
            match inner.dbs[p.shard].inner.log.durable_status(p.end_offset) {
                Ok(true) => {
                    self.parts[i].durable = true;
                    // One span per participant, each starting where the
                    // previous one landed, so concurrent waits are not
                    // counted twice.
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
            .tel
            .slab
            .hist(TWOPC_PREPARE_HIST)
            .record(self.prepare_start.elapsed().as_nanos() as u64);
        // All prepares durable: the commit point. Publish every
        // participant in memory.
        let mut coord_token = None;
        for p in &mut self.parts {
            let prepare = p.prepare.take().expect("no verdict yet");
            let token = prepare.finish_commit(&mut resolver.workers[p.shard]);
            coord_token.get_or_insert(token);
        }
        self.span(&ring, SpanKind::TwoPcFinalize, self.parts.len() as u64, 0);
        resolver.tel.slab.add(TWOPC_CROSS, 1);
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
        let ring = Arc::clone(&resolver.tel.ring);
        if let Some(tr) = &mut self.trace {
            tr.t0 = ring.now_ns();
        }
        let since = Instant::now();
        self.append_verdict(true);
        self.step(&ring, SpanKind::TwoPcDecide, self.gtid_lsn, 1);
        resolver.tel.slab.hist(TWOPC_DECIDE_HIST).record(since.elapsed().as_nanos() as u64);
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

    /// [`StagedCommit::span`] for a step every cross-shard commit
    /// records: untraced, an event.
    fn step(&mut self, ring: &SpanRing, kind: SpanKind, a: u64, b: u64) {
        match self.trace {
            Some(_) => self.span(ring, kind, a, b),
            None => ring.event(&TraceContext::UNTRACED, kind, a, b),
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
        self.step(&resolver.tel.ring, SpanKind::TwoPcDecide, self.gtid_lsn, 0);
        for p in &mut self.parts {
            let prepare = p.prepare.take().expect("no verdict yet");
            prepare.abort(&mut resolver.workers[p.shard], AbortReason::LogFailure);
        }
        self.stage = Stage::Finalized { verdict_owed: false };
    }

    /// Drive to the verdict, blocking on every participant's log at once
    /// through a [`Parker`] of its own, for at most the coordinator log's
    /// `wait_durable_timeout`.
    pub fn wait(self: Box<Self>, resolver: &mut ShardedWorker) -> TxResult<CommitToken> {
        let patience =
            self.db.inner.dbs[self.parts[0].shard].inner.log.config().wait_durable_timeout;
        let waker = DurableWaker::default();
        let mut parker = Parker::new(&self.db, waker.clone());
        parker.park(Instant::now() + patience, (), DeferredCommit::Staged(self));
        loop {
            let mut settled = None;
            parker.poll(resolver, |(), _, s| settled = Some(s));
            match settled {
                Some(Settled::Verdict(verdict)) => {
                    parker.write_verdicts(resolver);
                    return verdict;
                }
                Some(_) => return Err(AbortReason::LogFailure),
                None if parker.arm() => {
                    let until = parker.due().map(|t| t.saturating_duration_since(Instant::now()));
                    waker.wait(until);
                }
                None => {}
            }
        }
    }
}

#[cfg(test)]
impl StagedCommit {
    /// See `Txn::pointees`.
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
            // then the participants still prepared abort as they drop.
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
    use std::time::Duration;

    use ermia_common::TableId;

    use super::*;
    use crate::config::{DbConfig, IsolationLevel};
    use crate::shard::shard_of_key;

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
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
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

    /// A worker that keeps sixteen prepares parked at a time claims only
    /// in its home stretch: over 100 000 claims a shard's TID high-water
    /// mark stays within the one home leased there (a cursor that walked
    /// on past its parked contexts swept all 64 K slots).
    #[test]
    fn parked_prepares_keep_a_workers_claims_at_home() {
        const WINDOW: usize = 16;
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let pairs: Vec<[Vec<u8>; 2]> =
            (0..WINDOW).map(|i| [key_on(0, "pair", i), key_on(1, "pair", i)]).collect();
        let mut w = db.register_worker();
        let mut parked = std::collections::VecDeque::new();
        for i in 0..100_000 {
            if parked.len() == WINDOW {
                let mut staged: Box<StagedCommit> = parked.pop_front().unwrap();
                // Half commit, half abort: both free the context.
                if i % 2 == 0 {
                    staged.wait(&mut w).expect("commits");
                } else {
                    staged.abort(&mut w);
                }
            }
            let mut tx = w.begin(IsolationLevel::Snapshot);
            for key in &pairs[i % WINDOW] {
                if !tx.update(t, key, b"v").unwrap() {
                    tx.insert(t, key, b"v").unwrap();
                }
            }
            match tx.commit_deferred().unwrap() {
                DeferredCommit::Staged(staged) => parked.push_back(staged),
                DeferredCommit::Committed(_) => panic!("two writer shards must stage a 2PC"),
            }
        }
        assert_eq!(db.tid_slots_in_use(), 2 * WINDOW);
        for shard in 0..2 {
            let high = db.shard(shard).inner.tid.high_water();
            assert!(high <= 64, "shard {shard}: one home leased, high water {high}");
        }
    }
}
