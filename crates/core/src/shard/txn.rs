//! The worker and transaction of the sharded namespace: one inner
//! transaction per shard touched, started on first touch, and the commit
//! tail that picks the plain commit or the staged two-phase one. Like the
//! inner ones, a sharded transaction is a value ([`DetachedTransaction`])
//! that takes its worker per operation: [`ShardedTransaction`] pairs it
//! with one, and [`ShardedTransaction::detach`] / [`ShardedWorker::resume`]
//! part and rejoin them between operations.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use ermia_common::{IndexId, Lsn, Oid, OpResult, TableId, TxResult};
use ermia_telemetry::{Slab, SpanKind, SpanRing, TraceContext};

use super::parker::DeferredCommit;
use super::routing::{shard_of_key, IndexRoute, IndexRouting, Routing};
use super::staged::{StagedCommit, TWOPC_FAMILY};
use super::ShardedDb;
use crate::config::IsolationLevel;
use crate::transaction::{CommitToken, Txn};
use crate::worker::Worker;

/// This worker's share of the telemetry layer: its one record ring (this
/// worker is its single writer) for the begins, 2PC steps and spans of
/// its transactions, traced or not; its 2PC counters on shard 0's
/// registry; and the head-sampling countdown (`sample_n` governs only
/// engine-initiated traces).
pub(super) struct WorkerTelemetry {
    pub(super) ring: Arc<SpanRing>,
    pub(super) slab: Arc<Slab>,
    sample_n: u32,
    count: u32,
}

/// One engine [`Worker`] per shard plus a cached routing snapshot.
pub struct ShardedWorker {
    pub(super) db: ShardedDb,
    pub(super) workers: Vec<Worker>,
    routing: Arc<Routing>,
    pub(super) tel: WorkerTelemetry,
}

impl ShardedDb {
    /// Register a worker holding one engine [`Worker`] per shard.
    pub fn register_worker(&self) -> ShardedWorker {
        let inner = &self.inner;
        let workers = inner.dbs.iter().map(|d| d.register_worker()).collect();
        let db0 = &inner.dbs[0];
        let tel = WorkerTelemetry {
            ring: db0.telemetry().tracer().ring(),
            slab: db0.telemetry().registry().register_slab(&TWOPC_FAMILY),
            sample_n: db0.inner.cfg.trace_sample_n,
            count: 0,
        };
        ShardedWorker { db: self.clone(), workers, routing: inner.routing(), tel }
    }
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
        // Resolve the active context: wire context wins; otherwise head
        // sampling every Nth begin.
        let t = &mut self.tel;
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
        let start_ns = if active.is_some() { self.tel.ring.now_ns() } else { 0 };
        let trace = active.map(|(ctx, sampled)| ActiveTrace { ctx, start_ns, sampled });
        let slots = if self.workers.len() == 1 {
            Slots::One(None)
        } else {
            Slots::Many(self.workers.iter().map(|_| None).collect())
        };
        self.resume(DetachedTransaction { isolation, slots, trace })
    }

    /// Pair `txn`, detached from a worker of this engine (this one or
    /// another), with this worker again: each of its next operations runs
    /// here.
    pub fn resume(&mut self, txn: DetachedTransaction) -> ShardedTransaction<'_> {
        if self.db.inner.dbs[0].inner.catalog_version.load(Relaxed) != self.routing.version {
            self.routing = self.db.inner.routing();
        }
        for (t, w) in txn.slots.as_slice().iter().zip(&self.workers) {
            if let Some(t) = t {
                t.check_worker(w);
            }
        }
        ShardedTransaction { worker: self, txn }
    }
}

impl Drop for ShardedWorker {
    fn drop(&mut self) {
        let tel = self.db.inner.dbs[0].telemetry();
        tel.registry().retire_slab(&TWOPC_FAMILY, &self.tel.slab);
        tel.tracer().retire(&self.tel.ring);
    }
}

/// The inner transactions, one slot per shard, each started on first
/// touch.
enum Slots {
    /// `S == 1`: no allocation, no routing.
    One(Option<Txn>),
    Many(Vec<Option<Txn>>),
}

impl Slots {
    fn as_slice(&self) -> &[Option<Txn>] {
        match self {
            Slots::One(s) => std::slice::from_ref(s),
            Slots::Many(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Option<Txn>] {
        match self {
            Slots::One(s) => std::slice::from_mut(s),
            Slots::Many(v) => v,
        }
    }

    /// Move every slot out, leaving none behind (no allocation).
    fn take(&mut self) -> Slots {
        match self {
            Slots::One(s) => Slots::One(s.take()),
            Slots::Many(v) => Slots::Many(std::mem::take(v)),
        }
    }
}

/// A transaction over the sharded namespace, as a value: its inner
/// transactions and its trace, with no worker and no epoch pin. A server
/// session holds its open interactive transaction this way between
/// frames. Dropped, it aborts every inner transaction, each on a worker
/// registered for just that: end it on a worker instead
/// ([`ShardedWorker::resume`], then commit or abort).
pub struct DetachedTransaction {
    isolation: IsolationLevel,
    slots: Slots,
    trace: Option<ActiveTrace>,
}

/// A transaction over the sharded namespace, on a worker. Routes each
/// operation to the owning shard's inner transaction; commit runs the
/// inner commit directly (one participant) or 2PC (several writers).
/// Dropping it aborts every participant on its worker.
pub struct ShardedTransaction<'w> {
    worker: &'w mut ShardedWorker,
    txn: DetachedTransaction,
}

/// Tracing state of one *traced* transaction: the propagated context and
/// the begin timestamp the tail-based slow-op check measures against.
/// Its spans go to the ring of whichever worker runs it.
#[derive(Clone, Copy)]
pub(super) struct ActiveTrace {
    pub(super) ctx: TraceContext,
    pub(super) start_ns: u64,
    /// Engine-sampled (head sampling) rather than wire-propagated: the
    /// engine owns slow-op capture at commit. Wire-traced ops are
    /// captured by the server at request completion instead, with the
    /// opcode/table/key attribution only that layer has.
    pub(super) sampled: bool,
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
        self.worker.workers.len()
    }

    /// Tracing hook: `(ctx, now_ns)` for a traced transaction, `None`
    /// (one branch, nothing else) otherwise.
    #[inline]
    fn span_start(&self) -> Option<(TraceContext, u64)> {
        self.txn.trace.as_ref().map(|t| (t.ctx, self.worker.tel.ring.now_ns()))
    }

    /// Close a span opened by [`ShardedTransaction::span_start`].
    #[inline]
    fn span_end(&self, sp: Option<(TraceContext, u64)>, kind: SpanKind, a: u64, b: u64) {
        if let Some((ctx, t0)) = sp {
            let ring = &self.worker.tel.ring;
            ring.record(&ctx, kind, t0, ring.now_ns(), a, b);
        }
    }

    /// The inner transaction on `shard`, started on first touch (one
    /// `txn-begin` record, a span when traced), with the worker it runs on.
    fn txn_at(&mut self, shard: usize) -> (&mut Txn, &mut Worker) {
        let sp = self.span_start();
        let ShardedWorker { workers, tel, .. } = &mut *self.worker;
        let w = &mut workers[shard];
        let slot = &mut self.txn.slots.as_mut_slice()[shard];
        if slot.is_none() {
            let ctx = sp.map_or(TraceContext::UNTRACED, |(ctx, _)| ctx);
            let t = slot.insert(Txn::begin(w, self.txn.isolation, ctx));
            let (home, tid, ring) = (shard as u64, t.tid().raw(), &tel.ring);
            match sp {
                Some((ctx, t0)) => {
                    ring.record(&ctx, SpanKind::TxnBegin, t0, ring.now_ns(), home, tid);
                }
                None => ring.event(&ctx, SpanKind::TxnBegin, home, tid),
            }
        }
        (slot.as_mut().expect("started above"), w)
    }

    /// Owning shard for a primary-key operation; `None` = replicated.
    fn home_shard(&self, table: TableId, key: &[u8]) -> Option<usize> {
        self.worker.routing.home_shard(table, key, self.nshards())
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
        let (t, w) = self.txn_at(shard);
        let r = t.read(w, table, key, f);
        self.span_end(sp, SpanKind::TxnRead, table.0 as u64, shard as u64);
        r
    }

    /// One write-path operation on the key's home shard — on every shard
    /// for a replicated table, where shard 0's answer stands — under one
    /// `TxnWrite` span. Returns the answering shard with the answer.
    fn write_at<R>(
        &mut self,
        table: TableId,
        key: &[u8],
        mut op: impl FnMut(&mut Txn, &mut Worker) -> OpResult<R>,
    ) -> OpResult<(usize, R)> {
        let sp = self.span_start();
        let home = self.home_shard(table, key);
        let (first, rest) = home.map_or((0, 1..self.nshards()), |s| (s, 0..0));
        let (t, w) = self.txn_at(first);
        let r = op(t, w).and_then(|answer| {
            for s in rest {
                let (t, w) = self.txn_at(s);
                op(t, w)?;
            }
            Ok((first, answer))
        });
        let b = home.map_or(u64::MAX, |s| s as u64);
        self.span_end(sp, SpanKind::TxnWrite, table.0 as u64, b);
        r
    }

    /// Update a record; fans out on replicated tables.
    pub fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool> {
        self.write_at(table, key, |t, w| t.update(w, table, key, value)).map(|(_, hit)| hit)
    }

    /// Delete a record; fans out on replicated tables.
    pub fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool> {
        self.write_at(table, key, |t, w| t.delete(w, table, key)).map(|(_, hit)| hit)
    }

    /// Insert a record. Returns an opaque handle (shard + OID) for
    /// [`ShardedTransaction::insert_secondary`].
    pub fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<u64> {
        self.write_at(table, key, |t, w| t.insert(w, table, key, value))
            .map(|(shard, oid)| pack_handle(shard, oid))
    }

    /// Register a secondary-index entry for a row inserted in this
    /// transaction. The handle names the owning shard, so the entry
    /// lands next to the row.
    pub fn insert_secondary(&mut self, index: IndexId, key: &[u8], handle: u64) -> OpResult<()> {
        let (shard, oid) = unpack_handle(handle);
        let (t, w) = self.txn_at(shard);
        t.insert_secondary(w, index, key, oid)
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
        let shard = if n == 1 {
            0
        } else {
            match self.worker.routing.index_route(index) {
                Some(IndexRoute::Primary(table)) => self.home_shard(table, key).unwrap_or(0),
                Some(IndexRoute::Secondary(IndexRouting::OwnerPrefix(len))) => {
                    shard_of_key(&key[..len.min(key.len())], n)
                }
                Some(IndexRoute::Secondary(IndexRouting::Probe)) | None => {
                    for s in 0..n {
                        let (t, w) = self.txn_at(s);
                        if let Some(bytes) = t.read_secondary(w, index, key, |v| v.to_vec())? {
                            return Ok(Some(f(&bytes)));
                        }
                    }
                    return Ok(None);
                }
            }
        };
        let (t, w) = self.txn_at(shard);
        t.read_secondary(w, index, key, f)
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
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        let sp = self.span_start();
        let r = match self.worker.routing.scan_shard(index, low, high, self.nshards()) {
            Some(s) => {
                let (t, w) = self.txn_at(s);
                t.scan(w, index, low, high, limit, f)
            }
            None => self.scan_every_shard(index, low, high, limit, f),
        };
        if let Ok(n) = &r {
            self.span_end(sp, SpanKind::TxnScan, index.0 as u64, *n as u64);
        }
        r
    }

    fn scan_every_shard(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        let mut rows: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for s in 0..self.nshards() {
            let (t, w) = self.txn_at(s);
            t.scan(w, index, low, high, limit, |k, v| {
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
        Ok(delivered)
    }

    /// Whether any participant has been doomed.
    pub fn is_doomed(&self) -> bool {
        self.txn.slots.as_slice().iter().flatten().any(Txn::is_doomed)
    }

    /// Part the transaction from its worker: the value holds no worker and
    /// no epoch pin until [`ShardedWorker::resume`] pairs it with one.
    pub fn detach(mut self) -> DetachedTransaction {
        let txn = &mut self.txn;
        DetachedTransaction { isolation: txn.isolation, slots: txn.slots.take(), trace: txn.trace }
    }

    /// Abort every participant, as dropping the transaction does.
    pub fn abort(self) {}

    /// Commit and wait for durability. A transaction that wrote on one
    /// shard waits for its block when the database is durable (the log
    /// has a directory); one that wrote on several always waits for every
    /// prepare, because that is its commit point. Returns the commit LSN
    /// — the coordinator's cstamp for a cross-shard transaction, whose
    /// [`StagedCommit`] this drives to its verdict with blocking waits,
    /// delivering it on this worker, which runs no transaction by then.
    pub fn commit(mut self) -> TxResult<Lsn> {
        let (slots, trace) = (self.txn.slots.take(), self.txn.trace);
        match commit_slots(self.worker, trace, slots, true)? {
            DeferredCommit::Committed(token) => Ok(token.lsn()),
            DeferredCommit::Staged(staged) => staged.wait(self.worker).map(|token| token.lsn()),
        }
    }

    /// Commit without waiting for durability. A transaction that wrote
    /// on at most one shard is committed in memory when this returns, and
    /// the token names the shard whose log backs it. One that wrote on
    /// several is only *prepared* on each, and committed once every
    /// prepare is durable — so the caller gets the [`StagedCommit`] to
    /// drive (or hand to whoever waits on logs) and its worker back at
    /// once.
    pub fn commit_deferred(mut self) -> TxResult<DeferredCommit> {
        let (slots, trace) = (self.txn.slots.take(), self.txn.trace);
        commit_slots(self.worker, trace, slots, false)
    }
}

impl Drop for ShardedTransaction<'_> {
    fn drop(&mut self) {
        let slots = self.txn.slots.as_mut_slice();
        for (slot, w) in slots.iter_mut().zip(&mut self.worker.workers) {
            if let Some(t) = slot.take() {
                t.abort(w);
            }
        }
    }
}

/// Shared commit tail for [`ShardedTransaction::commit`] (sync) and
/// [`ShardedTransaction::commit_deferred`]: read-only participants
/// commit first, then the writers — none, one (the plain single-database
/// commit), or several (2PC).
fn commit_slots(
    worker: &mut ShardedWorker,
    trace: Option<ActiveTrace>,
    slots: Slots,
    sync: bool,
) -> TxResult<DeferredCommit> {
    let slots = match slots {
        // One shard, one participant: no slot Vec materialized. Sampled
        // commits must stay on the allocation-free path (see
        // tests/alloc_free.rs).
        Slots::One(Some(t)) => {
            return commit_one(worker, trace, 0, t, sync).map(DeferredCommit::Committed)
        }
        Slots::One(None) => Vec::new(),
        Slots::Many(slots) => slots,
    };
    let mut readonly: Vec<(usize, Txn)> = Vec::new();
    let mut writers: Vec<(usize, Txn)> = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(t) if t.has_writes() => writers.push((i, t)),
            Some(t) => readonly.push((i, t)),
            None => {}
        }
    }
    // Read-only participants first: they publish nothing, so a failure
    // here (doomed by SSN read validation) can still abort the writers,
    // which it does as they drop.
    let mut token = CommitToken::readonly_at(worker.db.inner.dbs[0].now_lsn());
    let mut readonly = readonly.into_iter();
    for (i, t) in readonly.by_ref() {
        match t.commit_impl(&mut worker.workers[i], false) {
            Ok(t) => token = t.on_shard(i),
            Err(r) => {
                for (i, t) in readonly.chain(writers) {
                    t.abort(&mut worker.workers[i]);
                }
                return Err(r);
            }
        }
    }
    match writers.len() {
        0 => {
            capture_slow(worker, trace);
            Ok(DeferredCommit::Committed(token))
        }
        1 => {
            let (i, t) = writers.pop().expect("len checked");
            commit_one(worker, trace, i, t, sync).map(DeferredCommit::Committed)
        }
        // From here the staged commit owns tail capture: its trace ends
        // with its verdict.
        _ => StagedCommit::prepare(worker, trace, writers).map(DeferredCommit::Staged),
    }
}

/// Commit a single participant `t` on shard `i`: the inner commit plus
/// the durability/commit span and the engine-sampled tail capture.
/// Deliberately Vec-free — sampled single-shard commits ride the
/// allocation-free hot path (tests/alloc_free.rs asserts this).
fn commit_one(
    worker: &mut ShardedWorker,
    trace: Option<ActiveTrace>,
    i: usize,
    t: Txn,
    sync: bool,
) -> TxResult<CommitToken> {
    // A commit waits for its block only on a durable database; the inner
    // call is then dominated by the group-commit wait, which is what the
    // span names.
    let wait = sync && worker.db.inner.dbs[i].inner.cfg.commit_waits();
    let t0 = trace.map_or(0, |_| worker.tel.ring.now_ns());
    let token = t.commit_impl(&mut worker.workers[i], wait)?.on_shard(i);
    if let Some(tr) = trace {
        let kind = if wait { SpanKind::DurabilityWait } else { SpanKind::CommitDeferred };
        let ring = &worker.tel.ring;
        ring.record(&tr.ctx, kind, t0, ring.now_ns(), i as u64, 0);
    }
    capture_slow(worker, trace);
    Ok(token)
}

/// Tail-based slow-op capture for engine-sampled traces: the server owns
/// it for wire-traced requests (it knows the opcode and key).
fn capture_slow(worker: &ShardedWorker, trace: Option<ActiveTrace>) {
    if let Some(tr) = trace.filter(|tr| tr.sampled) {
        let total = worker.tel.ring.now_ns().saturating_sub(tr.start_ns);
        worker.db.telemetry().tracer().maybe_capture_slow(&tr.ctx, "txn", 0, &[], total);
    }
}

#[cfg(test)]
mod tests {
    use super::super::routing::cross_pair;
    use super::super::ShardPolicy;
    use super::*;
    use crate::config::DbConfig;

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
}
