//! Transactions: snapshot isolation, the Serial Safety Net, and the
//! pre-commit / post-commit pipeline (paper §3.1, §3.6).
//!
//! # An open transaction is a value
//!
//! A [`Txn`] owns its state and borrows nothing. Each operation — a read,
//! a scan, a write, pre-commit, a verdict, an abort — is handed a
//! [`Worker`] of the same database, pins the epoch through it for its own
//! length and draws on its scratch. Operation boundaries are the paper's
//! conditional quiescent points (§3.4), so an idle transaction holds back
//! no epoch advance and no deferred free. [`Transaction`], what
//! [`Worker::begin`] returns, pairs the value with its worker.
//!
//! # Why what it holds stays valid unpinned
//!
//! Between operations a transaction holds raw pointers no epoch pin
//! protects. Each stays allocated for another reason:
//! - a read-set version was visible at `begin`, and that `begin`,
//!   published in the transaction's TID slot, holds the collector's
//!   horizon at or below it: the version is the newest committed one of
//!   its chain below the horizon or above it, and the collector frees
//!   only what lies beneath that one;
//! - a write entry's `prev` is the committed version beneath our locked
//!   head: while our uncommitted head sits on it, it is the newest
//!   committed version of its chain, which no horizon frees;
//! - a write entry's `new` is our own head: only its owner replaces it
//!   (an own head replaced mid-transaction is retired through the epoch
//!   of that operation, and the entry moves to the new head), and the TID
//!   slot its stamp names is ours until release;
//! - a node-set leaf is freed only when its tree drops, and the node set
//!   holds the tree's `Arc<BTree>`;
//! - a write entry's `*const Table` points into the catalog, which never
//!   drops a table while its database lives, and the value holds the
//!   database.
//!
//! The horizon counts a slot only while it is active, pending or in
//! pre-commit, so the first and second hold until the commit point:
//! pre-commit's certify reads them unpinned. Once `publish` marks the
//! slot committed, the collector may free the read set and the `prev`s
//! through the epoch, so post-commit stamping runs under a pin.
//!
//! A prepared cross-shard participant ([`Prepared`]) is the same value in
//! the `Precommit` state, so the same argument carries it through its
//! durability rounds.
//!
//! # Allocation-free hot path
//!
//! The working sets (read set, write set, secondary set, node set) and
//! the key arena, and the version nodes themselves, are all recycled
//! through the worker's [`Scratch`]: the sets are *taken* at begin (a
//! pointer move), cleared and returned to the worker that ends the
//! transaction, new versions come from a per-worker cache fed by the GC,
//! and the overwritten ones are named to the GC through a reused buffer.
//! After warmup, begin + execute + commit of a read/write transaction
//! touches the allocator zero times. What still allocates, by design and
//! off that path: a sync-commit waiter's first registration, scan result
//! staging and segment rotation.

use std::cell::Cell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use ermia_common::{AbortReason, IndexId, Lsn, Oid, OpResult, Stamp, TableId, Tid, TxResult};
use ermia_epoch::Guard;
use ermia_index::{BTree, InsertOutcome, LeafSnapshot, ScanControl};
use ermia_log::{
    BlockEncoder, BlockKind, LogRecordKind, BLOCK_HEADER_LEN, MAX_BLOCK_RECORDS, MAX_KEY_LEN,
    PREPARE_MARKER_LEN, RECORD_HEADER_LEN,
};
use ermia_storage::{defer_release, OidArray, Retired, TidManager, TidStatus, TxContext, Version};
use ermia_telemetry::{SpanKind, TraceContext};

use crate::config::IsolationLevel;
use crate::database::{Database, IndexInfo, Table};
use crate::metrics::{TXN_ABORT_BASE, TXN_CHAIN_HIST, TXN_COMMITS};
use crate::worker::{Scratch, Worker};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum WriteKind {
    Insert,
    Update,
    Delete,
}

/// A range in the transaction's key arena. Replaces a per-write
/// `Box<[u8]>` copy of the key.
#[derive(Clone, Copy)]
pub(crate) struct KeyRef {
    start: u32,
    len: u32,
}

impl KeyRef {
    fn stash(arena: &mut Vec<u8>, key: &[u8]) -> KeyRef {
        let start = arena.len() as u32;
        arena.extend_from_slice(key);
        KeyRef { start, len: key.len() as u32 }
    }

    fn slice(self, arena: &[u8]) -> &[u8] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

pub(crate) struct WriteEntry {
    /// In the catalog, which never drops a table (module docs).
    table: *const Table,
    oid: Oid,
    key: KeyRef,
    /// The version we installed (TID-stamped until post-commit).
    new: *mut Version,
    /// The committed version we overwrote (null for inserts).
    prev: *mut Version,
    kind: WriteKind,
}

impl WriteEntry {
    fn table(&self) -> &Table {
        // SAFETY: the catalog holds every table for the database's life,
        // and the transaction owning this entry holds the database.
        unsafe { &*self.table }
    }

    /// What the entry logs: a record kind and its payload. The entry
    /// coalesces every op this txn applied to the record; what commits is
    /// the final version, so its tombstone flag (not the entry kind)
    /// decides — an insert-then-delete must log a delete, or replay would
    /// resurrect the key with the tombstone's empty payload.
    fn log_record(&self) -> (LogRecordKind, &[u8]) {
        // SAFETY: the entry's own version lives until the txn releases.
        let new = unsafe { &*self.new };
        match self.kind {
            _ if new.tombstone() => (LogRecordKind::Delete, &[]),
            WriteKind::Insert => (LogRecordKind::Insert, new.data()),
            WriteKind::Update => (LogRecordKind::Update, new.data()),
            WriteKind::Delete => (LogRecordKind::Delete, &[]),
        }
    }
}

pub(crate) struct SecondaryEntry {
    index: Arc<IndexInfo>,
    key: KeyRef,
    oid: Oid,
}

/// An open transaction, as a value (module docs). Consumed by
/// [`Txn::commit_impl`], [`Txn::precommit`] or [`Txn::abort`]; dropped
/// open, it aborts on a worker registered for just that.
pub(crate) struct Txn {
    db: Database,
    tid: Tid,
    begin: Lsn,
    isolation: IsolationLevel,
    /// SSN η(T): latest committed predecessor stamp.
    pstamp: u64,
    /// SSN π(T): earliest successor stamp (∞ = none).
    sstamp: u64,
    // Working sets and key arena, taken from the beginning worker's
    // scratch and handed, cleared but with capacity, to the scratch of
    // the worker that ends the transaction.
    reads: Vec<*mut Version>,
    writes: Vec<WriteEntry>,
    secondary: Vec<SecondaryEntry>,
    node_set: Vec<(Arc<BTree>, LeafSnapshot)>,
    keys: Vec<u8>,
    /// Version-chain nodes inspected by every visibility walk of this
    /// transaction. A plain local accumulator so the per-read path pays
    /// one integer add; folded into the telemetry chain-length
    /// histogram once, at release.
    chain_walked: u64,
    doomed: Option<AbortReason>,
    finished: bool,
    /// The traced operation this transaction runs in (untraced: all
    /// zero): its commit, abort and log-poison records carry it.
    trace: TraceContext,
}

// SAFETY: the raw `Version` and `Table` pointers stay valid without an
// epoch pin while the TID slot is held (module docs), and are
// dereferenced only by the operation that has the value, on the thread
// that runs it; everything else the value holds is `Send`.
unsafe impl Send for Txn {}

/// One operation's hold on a worker: the epoch pin it runs under and the
/// scratch it draws on.
struct Op<'a> {
    guard: Guard<'a>,
    scratch: &'a mut Scratch,
}

impl Worker {
    /// Begin a transaction at the given isolation level.
    pub fn begin(&mut self, isolation: IsolationLevel) -> Transaction<'_> {
        let txn = Some(Txn::begin(self, isolation, TraceContext::UNTRACED));
        Transaction { worker: self, txn }
    }

    fn op(&mut self) -> Op<'_> {
        Op { guard: self.epoch_handle.pin(), scratch: &mut self.scratch }
    }
}

/// Outcome of a visibility probe on one chain.
struct VisibleVersion {
    ptr: *mut Version,
    /// Effective creation stamp (resolved through the TID table when the
    /// version has not finished post-commit).
    cstamp: u64,
    /// Created by this very transaction.
    own: bool,
}

impl Txn {
    /// Begin on `worker`: claim a TID context, take the snapshot, take
    /// the working sets. Pins nothing: nothing it touches is
    /// epoch-protected.
    pub(crate) fn begin(
        worker: &mut Worker,
        isolation: IsolationLevel,
        trace: TraceContext,
    ) -> Txn {
        let Worker { db, scratch, .. } = worker;
        // Claim the context before taking the snapshot. Until its begin
        // is stored it reads `Lsn::NULL`, which holds the collector's
        // horizon at 0; the fence pairs with the one in `gc_horizon`, so
        // a pass that read the tail before this read does see the claim,
        // and none can cut a version this snapshot needs.
        let (tid, ctx) = db.inner.tid.acquire(Lsn::NULL, &mut scratch.tid_hint);
        #[cfg(test)]
        crate::tests::IN_BEGIN.with(|f| f.take().map(|f| f()));
        fence(Ordering::SeqCst);
        // Snapshot views (forks, replica serving handles) pin their own
        // consistent cut; everything else reads at the live log tail.
        let begin = db.view_cut().unwrap_or_else(|| db.inner.log.tail_lsn());
        ctx.set_begin(begin);
        Txn {
            db: db.clone(),
            tid,
            begin,
            isolation,
            pstamp: 0,
            sstamp: Lsn::MAX.raw(),
            reads: std::mem::take(&mut scratch.reads),
            writes: std::mem::take(&mut scratch.writes),
            secondary: std::mem::take(&mut scratch.secondary),
            node_set: std::mem::take(&mut scratch.node_set),
            keys: std::mem::take(&mut scratch.keys),
            chain_walked: 0,
            doomed: None,
            finished: false,
            trace,
        }
    }

    pub(crate) fn tid(&self) -> Tid {
        self.tid
    }

    /// A transaction runs only on workers of its own database.
    pub(crate) fn check_worker(&self, w: &Worker) {
        assert!(
            Arc::ptr_eq(&w.db.inner, &self.db.inner),
            "a transaction runs on a worker of its own database"
        );
    }

    pub(crate) fn is_doomed(&self) -> bool {
        self.doomed.is_some()
    }

    #[inline]
    fn ctx(&self) -> &TxContext {
        self.db.inner.tid.ctx(self.tid)
    }

    /// Table `id`, through the worker's table view: the catalog lock is
    /// taken once per worker and table, not once per row. The reference
    /// is not tied to the view: the catalog never drops a table, and this
    /// transaction holds the database for as long as it uses it.
    fn table<'t>(&self, scratch: &mut Scratch, id: TableId) -> &'t Table {
        let slot = id.0 as usize;
        if scratch.tables.len() <= slot {
            scratch.tables.resize(slot + 1, None);
        }
        let table = scratch.tables[slot].get_or_insert_with(|| self.db.table(id));
        // SAFETY: see above; the `Arc` keeps the table in place when the
        // view's vector moves.
        unsafe { &*Arc::as_ptr(table) }
    }

    #[inline]
    fn check_doomed(&self) -> OpResult<()> {
        match self.doomed {
            Some(r) => Err(r),
            None => Ok(()),
        }
    }

    #[inline]
    fn doom(&mut self, r: AbortReason) -> AbortReason {
        self.doomed = Some(r);
        r
    }

    /// Admission check for write operations: while the database is in
    /// degraded read-only mode (log poisoned), writes are refused the
    /// moment they are issued — long before commit would discover the
    /// poisoned log — so the transaction aborts with a typed reason
    /// instead of burning work it can never make durable. One relaxed
    /// load; reads are not checked and keep committing off the snapshot.
    #[inline]
    fn check_writable(&mut self) -> OpResult<()> {
        if self.db.inner.state.load(Ordering::Relaxed) == crate::database::DbState::Degraded as u8
            || self.db.view.is_some()
        {
            return Err(self.doom(AbortReason::ReadOnlyMode));
        }
        Ok(())
    }

    /// A written key must fit a log record; a longer one is the caller's bug.
    fn check_key(key: &[u8]) {
        assert!(key.len() <= MAX_KEY_LEN, "a {}-byte key exceeds MAX_KEY_LEN", key.len());
    }

    fn serializable(&self) -> bool {
        self.isolation == IsolationLevel::Serializable
    }

    /// Record (into `valid`) the indices of node-set entries for `tree`
    /// that are currently valid. Captured immediately before one of our
    /// own inserts so that [`Txn::refresh_node_set`] can distinguish
    /// self-inflicted version bumps from genuine concurrent phantoms.
    fn capture_valid_node_entries(&self, valid: &mut Vec<usize>, tree: &Arc<BTree>) {
        valid.clear();
        for (i, (t2, snap)) in self.node_set.iter().enumerate() {
            if Arc::ptr_eq(t2, tree) && t2.validate(snap) {
                valid.push(i);
            }
        }
    }

    /// Re-stamp entries that were valid before our own insert and are
    /// stale now: the change is (with overwhelming probability) ours.
    /// Entries already stale beforehand keep their old stamp and abort
    /// the transaction at pre-commit — a real phantom.
    fn refresh_node_set(&mut self, valid: &[usize]) {
        for &i in valid {
            let (tree, snap) = &mut self.node_set[i];
            if !tree.validate(snap) {
                tree.refresh_snapshot(snap);
            }
        }
    }

    // ------------------------------------------------------------------
    // Visibility (§3.6.1)
    // ------------------------------------------------------------------

    /// Walk a version chain and return the version this snapshot reads.
    /// The caller holds an epoch pin.
    ///
    /// `None` means the record does not exist in this snapshot (no
    /// visible version, or the visible version is a tombstone). Under
    /// SSN, skipping committed-but-too-new versions registers an
    /// anti-dependency: this transaction must serialize before their
    /// creators.
    fn fetch_visible(&mut self, oids: &OidArray, oid: Oid) -> OpResult<Option<VisibleVersion>> {
        let mut cur = oids.head(oid);
        let mut skipped_min: u64 = u64::MAX;
        let mut walked: u64 = 0;
        let result = loop {
            if cur.is_null() {
                break None;
            }
            walked += 1;
            let v = unsafe { &*cur };
            match visibility(&self.db.inner.tid, v, self.begin, Some(self.tid)) {
                Visibility::Visible { cstamp, own } => {
                    break Some(VisibleVersion { ptr: cur, cstamp, own });
                }
                Visibility::SkipCommitted { cstamp } => {
                    skipped_min = skipped_min.min(cstamp);
                    cur = v.next.load(Ordering::Acquire);
                }
                Visibility::SkipUncommitted => {
                    cur = v.next.load(Ordering::Acquire);
                }
            }
        };
        // Chain nodes inspected before the verdict — the GC-health
        // signal the paper's Fig. 9 degradation traces back to. Only
        // accumulated here; the histogram is fed once per transaction
        // at release so this per-read path stays telemetry-free.
        self.chain_walked += walked;
        if self.serializable() && skipped_min != u64::MAX {
            // We read beneath committed overwrites: π(T) shrinks to the
            // earliest of their stamps.
            self.sstamp = self.sstamp.min(skipped_min);
            if self.sstamp <= self.pstamp {
                return Err(self.doom(AbortReason::SsnExclusion));
            }
        }
        match result {
            Some(vis) => {
                if unsafe { (*vis.ptr).tombstone() } {
                    Ok(None)
                } else {
                    Ok(Some(vis))
                }
            }
            None => Ok(None),
        }
    }

    /// SSN read registration (in-flight exclusion-window maintenance).
    fn register_read(&mut self, vis: &VisibleVersion) -> OpResult<()> {
        if vis.own || !self.serializable() {
            return Ok(());
        }
        let v = unsafe { &*vis.ptr };
        // η(T) absorbs the creator's stamp; π(T) shrinks to the
        // overwriter's stamp if the version is already overwritten.
        self.pstamp = self.pstamp.max(vis.cstamp);
        let vs = v.sstamp.load(Ordering::Acquire);
        if vs != Lsn::MAX.raw() {
            self.sstamp = self.sstamp.min(vs);
        }
        if self.sstamp <= self.pstamp {
            return Err(self.doom(AbortReason::SsnExclusion));
        }
        self.reads.push(vis.ptr);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data operations (§3.2): [`Transaction`]'s, each pinned for its own
    // length on the worker handed in
    // ------------------------------------------------------------------

    /// Look `key` up in `tree`. A miss under SSN keeps the leaf's
    /// snapshot, so an insert into its range before commit is caught as
    /// a phantom.
    fn lookup(&mut self, guard: &Guard<'_>, tree: &Arc<BTree>, key: &[u8]) -> Option<Oid> {
        let (oid, snap) = tree.get(guard, key);
        if oid.is_none() && self.serializable() {
            self.node_set.push((Arc::clone(tree), snap));
        }
        oid.map(|oid| Oid(oid as u32))
    }

    /// The payload of `oid` this snapshot sees, registered as read and
    /// handed to `f`. The caller holds an epoch pin.
    fn read_oid<R>(
        &mut self,
        t: &Table,
        oid: Oid,
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        let Some(vis) = self.fetch_visible(&t.oids, oid)? else { return Ok(None) };
        self.register_read(&vis)?;
        // SAFETY: the version was reached under the operation's epoch
        // pin, which keeps it from being freed while `f` runs.
        Ok(Some(f(unsafe { (*vis.ptr).data() })))
    }

    pub(crate) fn read<R>(
        &mut self,
        w: &mut Worker,
        table: TableId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        self.check_doomed()?;
        let op = w.op();
        let t = self.table(op.scratch, table);
        match self.lookup(&op.guard, &t.primary, key) {
            Some(oid) => self.read_oid(t, oid, f),
            None => Ok(None),
        }
    }

    pub(crate) fn read_secondary<R>(
        &mut self,
        w: &mut Worker,
        index: IndexId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        self.check_doomed()?;
        let op = w.op();
        let idx = self.db.index(index);
        let t = self.table(op.scratch, idx.table);
        match self.lookup(&op.guard, &idx.tree, key) {
            Some(oid) => self.read_oid(t, oid, f),
            None => Ok(None),
        }
    }

    pub(crate) fn update(
        &mut self,
        w: &mut Worker,
        table: TableId,
        key: &[u8],
        value: &[u8],
    ) -> OpResult<bool> {
        Self::check_key(key);
        self.check_doomed()?;
        self.check_writable()?;
        let mut op = w.op();
        let t = self.table(op.scratch, table);
        match self.lookup(&op.guard, &t.primary, key) {
            Some(oid) => self.install_version(&mut op, t, oid, key, value, WriteKind::Update),
            None => Ok(false),
        }
    }

    pub(crate) fn delete(&mut self, w: &mut Worker, table: TableId, key: &[u8]) -> OpResult<bool> {
        Self::check_key(key);
        self.check_doomed()?;
        self.check_writable()?;
        let mut op = w.op();
        let t = self.table(op.scratch, table);
        match self.lookup(&op.guard, &t.primary, key) {
            Some(oid) => self.install_version(&mut op, t, oid, key, &[], WriteKind::Delete),
            None => Ok(false),
        }
    }

    /// Install a new version behind `oid` with the first-updater-wins
    /// write-write conflict rule (§3.6.1).
    fn install_version(
        &mut self,
        op: &mut Op<'_>,
        t: &Table,
        oid: Oid,
        key: &[u8],
        value: &[u8],
        kind: WriteKind,
    ) -> OpResult<bool> {
        let mut spins = 0;
        loop {
            let head = t.oids.head(oid);
            if head.is_null() {
                return Ok(false);
            }
            let hv = unsafe { &*head };
            let stamp = hv.stamp();
            if stamp.is_tid() {
                let owner = stamp.as_tid();
                if owner == self.tid {
                    if hv.tombstone() && kind != WriteKind::Insert {
                        // We deleted it earlier in this transaction.
                        return Ok(false);
                    }
                    return self.replace_own_head(op, t, oid, head, value, kind);
                }
                match self.db.inner.tid.inquire(owner) {
                    // An owner that will commit before our snapshot (if it
                    // commits at all) is no conflict either way: the rule
                    // `visibility_of` applies to readers. Wait for the
                    // verdict, then re-read the head — committed, it is a
                    // version we may overwrite; aborted, it gives way to
                    // the one beneath. A prepared cross-shard owner sits
                    // here for its durability rounds; if this thread parked
                    // it, its helper resolves it while it waits.
                    TidStatus::Precommit(c) if c.is_null() || c.raw() < self.begin.raw() => {
                        verdict_backoff(&mut spins);
                    }
                    // Otherwise an uncommitted head version acts as a
                    // write lock: the doomed (second) updater aborts
                    // immediately, minimizing wasted work.
                    TidStatus::InFlight | TidStatus::Precommit(_) => {
                        return Err(self.doom(AbortReason::WriteWriteConflict));
                    }
                    // The owner decided (and is stamping its versions) or
                    // aborted (and is unlinking them): re-read the head.
                    TidStatus::Committed(_) | TidStatus::Aborted | TidStatus::Stale => {
                        std::thread::yield_now();
                    }
                }
                continue;
            }
            let c = stamp.as_lsn();
            if c == Lsn::MAX {
                // A rolled-back version on its way out of the chain.
                std::thread::yield_now();
                continue;
            }
            // Forbid updating a record whose committed head postdates our
            // snapshot (lost-update prevention).
            if c.raw() >= self.begin.raw() {
                return Err(self.doom(AbortReason::WriteWriteConflict));
            }
            if hv.tombstone() && kind != WriteKind::Insert {
                // Deleted in our snapshot: nothing to update.
                return Ok(false);
            }
            if self.serializable() {
                // Overwriting `head`: its readers become predecessors.
                self.pstamp = self.pstamp.max(hv.pstamp.load(Ordering::Acquire));
                if self.sstamp <= self.pstamp {
                    return Err(self.doom(AbortReason::SsnExclusion));
                }
            }
            let new = op.scratch.versions.acquire(
                Stamp::from_tid(self.tid),
                value,
                kind == WriteKind::Delete,
            );
            unsafe { (*new).next.store(head, Ordering::Relaxed) };
            match t.oids.cas_head(oid, head, new) {
                Ok(()) => {
                    let kind = if kind == WriteKind::Insert { WriteKind::Update } else { kind };
                    let key = KeyRef::stash(&mut self.keys, key);
                    self.writes.push(WriteEntry { table: t, oid, key, new, prev: head, kind });
                    return Ok(true);
                }
                Err(_) => {
                    // Another writer won the CAS: first-updater-wins. The
                    // version never became visible, so it goes straight
                    // back to the cache.
                    unsafe { op.scratch.versions.release_unpublished(new) };
                    return Err(self.doom(AbortReason::WriteWriteConflict));
                }
            }
        }
    }

    /// Overwrite our own uncommitted head version (repeated update of the
    /// same record inside one transaction).
    fn replace_own_head(
        &mut self,
        op: &mut Op<'_>,
        t: &Table,
        oid: Oid,
        head: *mut Version,
        value: &[u8],
        kind: WriteKind,
    ) -> OpResult<bool> {
        let next = unsafe { (*head).next.load(Ordering::Relaxed) };
        let new = op.scratch.versions.acquire(
            Stamp::from_tid(self.tid),
            value,
            kind == WriteKind::Delete,
        );
        unsafe { (*new).next.store(next, Ordering::Relaxed) };
        t.oids.cas_head(oid, head, new).expect("own uncommitted head cannot be displaced");
        // The old private version may still be referenced by concurrent
        // readers resolving visibility: mark it dead (+∞ stamp, so they
        // skip it rather than spin or misread it post-commit) and retire
        // it into the reuse pool.
        unsafe {
            (*head).clsn.store(Stamp::from_lsn(Lsn::MAX).raw(), Ordering::Release);
            defer_release(&op.guard, Some(&self.db.inner.versions), head);
        }
        let entry = self
            .writes
            .iter_mut()
            .find(|w| w.oid == oid && std::ptr::eq(w.table, t))
            .expect("own head implies a write-set entry");
        entry.new = new;
        entry.kind = match (entry.kind, kind) {
            // Created in this txn: rollback must unindex and recycle.
            (WriteKind::Insert, _) => WriteKind::Insert,
            // Reviving our own tombstone of a pre-existing record: the
            // net effect is an update, and rollback must restore the
            // committed head rather than drop the record.
            (_, WriteKind::Insert) => WriteKind::Update,
            (_, k) => k,
        };
        Ok(true)
    }

    pub(crate) fn insert(
        &mut self,
        w: &mut Worker,
        table: TableId,
        key: &[u8],
        value: &[u8],
    ) -> OpResult<Oid> {
        Self::check_key(key);
        self.check_doomed()?;
        self.check_writable()?;
        let mut op = w.op();
        let t = self.table(op.scratch, table);
        loop {
            // Obtain a new OID and publish the version, then index it
            // (§3.2 Insert: contention-free).
            let oid = t.oids.allocate();
            let new = op.scratch.versions.acquire(Stamp::from_tid(self.tid), value, false);
            t.oids.store_head(oid, new);
            self.capture_valid_node_entries(&mut op.scratch.valid_idx, &t.primary);
            match t.primary.insert(&op.guard, key, oid.0 as u64) {
                InsertOutcome::Inserted => {
                    self.refresh_node_set(&op.scratch.valid_idx);
                    let key = KeyRef::stash(&mut self.keys, key);
                    self.writes.push(WriteEntry {
                        table: t,
                        oid,
                        key,
                        new,
                        prev: std::ptr::null_mut(),
                        kind: WriteKind::Insert,
                    });
                    return Ok(oid);
                }
                InsertOutcome::Duplicate(existing) => {
                    // Unpublish our speculative record. It was reachable
                    // through the array slot, so it must quiesce before
                    // reuse.
                    t.oids.store_head(oid, std::ptr::null_mut());
                    unsafe { defer_release(&op.guard, Some(&self.db.inner.versions), new) };
                    t.oids.recycle(oid);
                    let existing = Oid(existing as u32);
                    // Revive if the visible version is a tombstone.
                    if t.oids.head(existing).is_null() {
                        // The owning insert rolled back between our index
                        // probe and now; retry from the top.
                        std::thread::yield_now();
                        continue;
                    }
                    let vis = self.fetch_visible(&t.oids, existing)?;
                    if vis.is_some() {
                        return Err(self.doom(AbortReason::DuplicateKey));
                    }
                    // Invisible or deleted: attempt a tombstone overwrite
                    // under first-updater-wins.
                    match self.install_version(&mut op, t, existing, key, value, WriteKind::Insert)
                    {
                        Ok(true) => return Ok(existing),
                        Ok(false) => {
                            // Record vanished mid-flight (concurrent
                            // insert rollback): retry.
                            std::thread::yield_now();
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    pub(crate) fn insert_secondary(
        &mut self,
        w: &mut Worker,
        index: IndexId,
        key: &[u8],
        oid: Oid,
    ) -> OpResult<()> {
        Self::check_key(key);
        self.check_doomed()?;
        self.check_writable()?;
        let op = w.op();
        let idx = self.db.index(index);
        self.capture_valid_node_entries(&mut op.scratch.valid_idx, &idx.tree);
        match idx.tree.insert(&op.guard, key, oid.0 as u64) {
            InsertOutcome::Inserted => {
                self.refresh_node_set(&op.scratch.valid_idx);
                let key = KeyRef::stash(&mut self.keys, key);
                self.secondary.push(SecondaryEntry { index: idx, key, oid });
                Ok(())
            }
            InsertOutcome::Duplicate(_) => Err(self.doom(AbortReason::DuplicateKey)),
        }
    }

    pub(crate) fn scan(
        &mut self,
        w: &mut Worker,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        self.check_doomed()?;
        let op = w.op();
        let idx = self.db.index(index);
        let t = self.table(op.scratch, idx.table);

        let mut delivered = 0usize;
        let mut resume: Vec<u8> = low.to_vec();
        loop {
            // Phase 1: collect a batch of (key, oid) pairs from the tree.
            // Collection is separate from visibility so the tree callbacks
            // don't need mutable access to transaction state.
            let cap = limit.map_or(usize::MAX, |l| (l - delivered) * 2 + 64);
            let mut items: Vec<(Vec<u8>, u64)> = Vec::new();
            let mut truncated = false;
            {
                let node_set = &mut self.node_set;
                let serializable = self.isolation == IsolationLevel::Serializable;
                let tree = &idx.tree;
                tree.scan(
                    &op.guard,
                    &resume,
                    high,
                    |snap| {
                        if serializable {
                            node_set.push((Arc::clone(tree), snap));
                        }
                    },
                    |k, v| {
                        items.push((k.to_vec(), v));
                        if items.len() >= cap {
                            truncated = true;
                            ScanControl::Stop
                        } else {
                            ScanControl::Continue
                        }
                    },
                );
            }

            // Phase 2: visibility + delivery.
            let mut stopped = false;
            for (k, oidval) in &items {
                let vis = self.fetch_visible(&t.oids, Oid(*oidval as u32))?;
                if let Some(vis) = vis {
                    self.register_read(&vis)?;
                    let data = unsafe { (*vis.ptr).data() };
                    delivered += 1;
                    if !f(k, data) || limit.is_some_and(|l| delivered >= l) {
                        stopped = true;
                        break;
                    }
                }
            }
            if stopped || !truncated {
                return Ok(delivered);
            }
            // Resume after the last collected key.
            let (last, _) = items.last().expect("truncated implies items");
            resume.clear();
            resume.extend_from_slice(last);
            resume.push(0);
        }
    }

    // ------------------------------------------------------------------
    // Commit pipeline (§3.1, §3.6; SSN Algorithm 1)
    // ------------------------------------------------------------------
    //
    // One pipeline, three exits. [`Txn::precommit`] certifies the
    // transaction and puts its block in the log; what differs is only
    // what happens to the [`Prepared`] it returns:
    //
    //   commit_deferred   precommit(None) ─► finish_commit
    //   commit (durable)  precommit(None) ─► wait own block ─► finish_commit | abort
    //   2PC participant   precommit(Some(marker)) ─► … durability rounds … ─► finish_commit | abort

    /// Pre-commit, then publish — at once, or with `wait_durable` only
    /// after the commit block is durable.
    pub(crate) fn commit_impl(self, w: &mut Worker, wait_durable: bool) -> TxResult<CommitToken> {
        let prepared = self.precommit(w, None)?;
        if let (true, Some(end)) = (wait_durable, prepared.end_offset) {
            if prepared.txn.db.inner.log.wait_durable(end).is_err() {
                // The commit block never became durable (poisoned log) or
                // its fate is unknown (timeout). Roll back in memory and
                // surface the failure; restart recovery truncates at the
                // first hole, so an unacknowledged block can never
                // resurrect past one.
                prepared.abort(w, AbortReason::LogFailure);
                return Err(AbortReason::LogFailure);
            }
        }
        Ok(prepared.finish_commit(w))
    }

    /// The pre-commit pipeline, the one every commit passes through:
    /// fix the global order and reserve log space with the single atomic
    /// fetch-and-add, certify against that stamp (SSN exclusion window,
    /// node-set validation), and fill the reserved block. It stops
    /// *before* the in-memory commit: the transaction stays in the
    /// `Precommit` TID state, so its uncommitted head versions keep acting
    /// as write locks, and readers and writers that depend on the verdict
    /// wait for it — no conflicting transaction can commit around it.
    ///
    /// With a `marker` this is 2PC phase one: the block is published as a
    /// [`ermia_log::BlockKind::TxnPrepare`] carrying it, and the caller
    /// must see that block, and every sibling's, durable before it calls
    /// [`Prepared::finish_commit`] (or else [`Prepared::abort`]), on any
    /// worker of this database.
    ///
    /// A transaction that wrote nothing occupies no log space. Under SSN
    /// it still needs a commit stamp for the exclusion test and for
    /// registering itself on read versions; it uses the current log tail
    /// (monotonic, possibly shared — a documented approximation that can
    /// only add false positives, never lost dependencies).
    pub(crate) fn precommit(
        mut self,
        w: &mut Worker,
        marker: Option<ermia_log::PrepareMarker>,
    ) -> TxResult<Prepared> {
        if let Some(r) = self.doomed {
            return Err(self.fail(w, r));
        }
        debug_assert!(
            marker.is_none() || self.has_writes(),
            "read-only participants never prepare"
        );
        let db = &self.db;
        let ctx = db.inner.tid.ctx(self.tid);

        // Publish intent, then take the commit stamp.
        ctx.enter_pending();
        let reservation = if self.has_writes() {
            let (payload, records) = self.size_log_block();
            if records > MAX_BLOCK_RECORDS {
                // More than one block header can count.
                return Err(self.fail(w, AbortReason::ResourceExhausted));
            }
            let marker_len = if marker.is_some() { PREPARE_MARKER_LEN } else { 0 };
            let len = BLOCK_HEADER_LEN + marker_len + payload;
            let Ok(reservation) = db.inner.log.allocate(len) else {
                // A poisoned log rejects all allocations until restart;
                // anything else is transient resource pressure.
                let reason = if db.inner.log.is_poisoned() {
                    w.scratch.telemetry.ring.event(&self.trace, SpanKind::LogPoison, 1, 0);
                    AbortReason::LogFailure
                } else {
                    AbortReason::ResourceExhausted
                };
                return Err(self.fail(w, reason));
            };
            Some(reservation)
        } else {
            None
        };
        let cstamp = reservation.as_ref().map_or_else(|| db.inner.log.tail_lsn(), |r| r.lsn());
        ctx.enter_precommit(cstamp);

        // Unpinned: the slot is in pre-commit, so it still holds the
        // horizon (module docs).
        match self.certify(cstamp) {
            Ok(sstamp) => self.sstamp = sstamp,
            Err(reason) => {
                drop(reservation); // becomes a skip record
                return Err(self.fail(w, reason));
            }
        }

        // Encode the block into the centralized log buffer.
        let end_offset = reservation.map(|reservation| {
            let end_offset = reservation.end_offset();
            let kind = if marker.is_some() { BlockKind::TxnPrepare } else { BlockKind::Txn };
            reservation.encode(kind, |enc| {
                if let Some(marker) = &marker {
                    enc.marker(marker);
                }
                self.encode_log_records(enc);
            });
            end_offset
        });
        // The node set has served: validation ran above.
        self.node_set.clear();
        Ok(Prepared { txn: self, cstamp, end_offset })
    }

    /// The CC commit protocol against commit stamp `cstamp`: the SSN
    /// exclusion-window test, then phantom protection by node-set
    /// validation (§3.6.2). Returns π(T) as the test settled it, which
    /// post-commit hands on. Snapshot isolation certifies nothing here —
    /// its write-write conflicts were caught at install time.
    fn certify(&self, cstamp: Lsn) -> Result<u64, AbortReason> {
        if !self.serializable() {
            return Ok(self.sstamp);
        }
        let mut pstamp = self.pstamp;
        for w in &self.writes {
            if !w.prev.is_null() {
                let p = unsafe { &*w.prev };
                pstamp = pstamp.max(p.pstamp.load(Ordering::Acquire));
            }
        }
        let mut sstamp = self.sstamp.min(cstamp.raw());
        for &r in &self.reads {
            sstamp = sstamp.min(unsafe { (*r).sstamp.load(Ordering::Acquire) });
        }
        if sstamp <= pstamp {
            return Err(AbortReason::SsnExclusion);
        }
        if self.node_set.iter().all(|(tree, snap)| tree.validate(snap)) {
            Ok(sstamp)
        } else {
            Err(AbortReason::Phantom)
        }
    }

    /// The one failure exit: record why (so the abort is attributed to
    /// the right reason), then abort, roll back and release on `w`.
    fn fail(&mut self, w: &mut Worker, reason: AbortReason) -> AbortReason {
        self.doomed = Some(reason);
        self.do_abort(w);
        reason
    }

    /// The in-memory commit point and post-commit: the tail of a
    /// single-shard commit, and all of a prepared one's commit verdict.
    fn publish(&mut self, w: &mut Worker, cstamp: Lsn) {
        let Worker { epoch_handle, scratch, .. } = w;
        // Taken before the commit store: from that store on, the slot no
        // longer holds the horizon, and only this pin keeps the read set
        // and the `prev`s stamped below from being freed.
        let _pin = epoch_handle.pin();
        // All updates become visible atomically at this store.
        self.ctx().commit(cstamp);
        let (ring, tid) = (&scratch.telemetry.ring, self.tid.raw());
        ring.event(&self.trace, SpanKind::TxnCommit, tid, cstamp.raw());

        // --- Post-commit ------------------------------------------------
        let sstamp_final = self.sstamp;
        for w in &self.writes {
            let new = unsafe { &*w.new };
            if self.serializable() {
                if !w.prev.is_null() {
                    // π(V_prev): our low watermark caps its readers.
                    unsafe { (*w.prev).sstamp.fetch_min(sstamp_final, Ordering::AcqRel) };
                }
                new.pstamp.store(cstamp.raw(), Ordering::Release);
            }
            // Replace the TID stamp with the commit LSN so readers can
            // check visibility without consulting our context.
            new.clsn.store(Stamp::from_lsn(cstamp).raw(), Ordering::Release);
            if !w.prev.is_null() {
                // `prev` is garbage once the horizon passes `cstamp`.
                scratch.retired.push(Retired { cstamp, table: w.table().id, oid: w.oid });
            }
        }
        // One hand-off per transaction, after every version it names is
        // stamped.
        self.db.inner.retire(&scratch.retired);
        scratch.retired.clear();
        if self.serializable() {
            for &r in &self.reads {
                unsafe { (*r).raise_pstamp(cstamp.raw()) };
            }
        }
        self.release(scratch, true);
    }

    /// The log block's payload, sized from the write and secondary sets:
    /// its length in bytes and its record count. Every value rides in the
    /// block, however long; one too long for the ring is refused when the
    /// block is reserved.
    fn size_log_block(&self) -> (usize, usize) {
        let mut bytes = 0;
        for w in &self.writes {
            bytes += RECORD_HEADER_LEN + w.key.len as usize + w.log_record().1.len();
        }
        for s in &self.secondary {
            bytes += RECORD_HEADER_LEN + s.key.len as usize + std::mem::size_of::<u32>();
        }
        (bytes, self.writes.len() + self.secondary.len())
    }

    /// Encode the records [`Txn::size_log_block`] sized: each written key
    /// and final version straight from the write set, then the secondary
    /// entries.
    fn encode_log_records(&self, enc: &mut BlockEncoder<'_>) {
        for w in &self.writes {
            let (kind, data) = w.log_record();
            enc.record(kind, w.table().id, w.oid, w.key.slice(&self.keys), data);
        }
        for s in &self.secondary {
            let key = s.key.slice(&self.keys);
            let index = s.index.id.0.to_le_bytes();
            enc.record(LogRecordKind::SecondaryInsert, s.index.table, s.oid, key, &index);
        }
    }

    /// True if this transaction installed any write or secondary entry —
    /// i.e. it must participate in 2PC as a writer when cross-shard.
    pub(crate) fn has_writes(&self) -> bool {
        !self.writes.is_empty() || !self.secondary.is_empty()
    }

    /// Abort explicitly, on `w`.
    pub(crate) fn abort(mut self, w: &mut Worker) {
        self.do_abort(w);
    }

    fn do_abort(&mut self, w: &mut Worker) {
        if self.finished {
            return;
        }
        let Worker { epoch_handle, scratch, .. } = w;
        let guard = epoch_handle.pin();
        self.ctx().abort();
        self.rollback(&guard);
        self.release(scratch, false);
    }

    /// Undo installed versions and speculative index entries.
    fn rollback(&mut self, guard: &Guard<'_>) {
        for w in self.writes.drain(..).rev() {
            // Re-stamp the dead version with +∞ before unlinking so
            // concurrent readers already holding the pointer classify it
            // as "committed far in the future" and skip past it, instead
            // of spinning on a TID whose slot will be recycled.
            unsafe {
                (*w.new).clsn.store(Stamp::from_lsn(Lsn::MAX).raw(), Ordering::Release);
            }
            match w.kind {
                WriteKind::Insert => {
                    // Remove the index entry, unpublish, recycle.
                    w.table().primary.remove(guard, w.key.slice(&self.keys));
                    w.table().oids.store_head(w.oid, std::ptr::null_mut());
                    unsafe { defer_release(guard, Some(&self.db.inner.versions), w.new) };
                    w.table().oids.recycle(w.oid);
                }
                WriteKind::Update | WriteKind::Delete => {
                    // Unlink our version from the chain head.
                    w.table()
                        .oids
                        .cas_head(w.oid, w.new, w.prev)
                        .expect("uncommitted head owned by us");
                    unsafe { defer_release(guard, Some(&self.db.inner.versions), w.new) };
                }
            }
        }
        for s in self.secondary.drain(..).rev() {
            s.index.tree.remove(guard, s.key.slice(&self.keys));
        }
    }

    /// Common epilogue: free the TID slot, count the outcome, and hand
    /// the (cleared, capacity-preserving) working sets and key arena to
    /// the ending worker's scratch for its next transaction.
    fn release(&mut self, scratch: &mut Scratch, committed: bool) {
        // The context may be released only after every TID-stamped
        // version has been re-stamped or unlinked (Stale inquiries then
        // re-read a proper stamp).
        self.db.inner.tid.release(self.tid);
        let t = &scratch.telemetry;
        // Chain nodes this transaction walked, accumulated read by
        // read in `fetch_visible` and recorded once here.
        t.slab.hist(TXN_CHAIN_HIST).record(self.chain_walked);
        if committed {
            t.slab.add(TXN_COMMITS, 1);
        } else {
            // Every abort path records its reason in `doomed` before
            // releasing; an explicit `abort()` call has none.
            let reason = self.doomed.unwrap_or(AbortReason::UserRequested);
            t.slab.add(TXN_ABORT_BASE + reason.idx(), 1);
            t.ring.event(&self.trace, SpanKind::TxnAbort, self.tid.raw(), reason.idx() as u64);
        }
        self.reads.clear();
        self.writes.clear();
        self.secondary.clear();
        self.node_set.clear();
        self.keys.clear();
        scratch.reads = std::mem::take(&mut self.reads);
        scratch.writes = std::mem::take(&mut self.writes);
        scratch.secondary = std::mem::take(&mut self.secondary);
        scratch.node_set = std::mem::take(&mut self.node_set);
        scratch.keys = std::mem::take(&mut self.keys);
        self.finished = true;
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            // Nobody ended it on a worker: abort, on one registered for
            // just this.
            let mut worker = self.db.register_worker();
            self.do_abort(&mut worker);
        }
    }
}

#[cfg(test)]
impl Txn {
    /// Stamp and payload behind every raw pointer that must stay valid
    /// unpinned (module docs): the read set, then the overwritten
    /// versions.
    pub(crate) fn pointees(&self) -> Vec<(u64, Vec<u8>)> {
        let prevs = self.writes.iter().map(|w| w.prev).filter(|p| !p.is_null());
        (self.reads.iter().copied().chain(prevs))
            // SAFETY: the very claim under test — these nodes are not
            // reclaimed while the TID slot is held (module docs).
            .map(|v| unsafe { ((*v).clsn.load(Ordering::Acquire), (*v).data().to_vec()) })
            .collect()
    }
}

/// An in-flight transaction on the worker that began it: `Txn`, the
/// value, paired with the `&mut Worker` each of its operations runs on.
/// Created by [`Worker::begin`]; consumed by [`Transaction::commit`] or
/// [`Transaction::abort`] (dropping an unfinished transaction aborts it
/// on its worker).
pub struct Transaction<'w> {
    worker: &'w mut Worker,
    /// `None` only once a commit or an abort consumed it.
    txn: Option<Txn>,
}

impl<'w> Transaction<'w> {
    fn parts(&mut self) -> (&mut Txn, &mut Worker) {
        (self.txn.as_mut().expect("open until consumed"), self.worker)
    }

    /// Take the value out for a consuming exit; the `Drop` that follows
    /// finds nothing to abort.
    fn take(&mut self) -> Txn {
        self.txn.take().expect("open until consumed")
    }

    /// This transaction's ID.
    pub fn tid(&self) -> Tid {
        self.value().tid()
    }

    fn value(&self) -> &Txn {
        self.txn.as_ref().expect("open until consumed")
    }

    /// True once a CC violation doomed the transaction: further data
    /// operations fail fast with the original reason — the paper's early
    /// detection of transactions destined to abort.
    pub fn is_doomed(&self) -> bool {
        self.value().is_doomed()
    }

    /// Read a record by primary key; `f` receives the visible payload.
    pub fn read<R>(
        &mut self,
        table: TableId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        let (t, w) = self.parts();
        t.read(w, table, key, f)
    }

    /// Read through a secondary index.
    pub fn read_secondary<R>(
        &mut self,
        index: IndexId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        let (t, w) = self.parts();
        t.read_secondary(w, index, key, f)
    }

    /// Update a record; returns false if the key does not exist in this
    /// snapshot. First-updater-wins: a conflicting concurrent writer
    /// dooms this transaction immediately.
    pub fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool> {
        let (t, w) = self.parts();
        t.update(w, table, key, value)
    }

    /// Delete a record (tombstone install, §3.2); returns false on miss.
    pub fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool> {
        let (t, w) = self.parts();
        t.delete(w, table, key)
    }

    /// Insert a new record; returns its OID. Inserting a key whose
    /// visible version is a tombstone revives the record; inserting a
    /// live duplicate dooms the transaction.
    pub fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<Oid> {
        let (t, w) = self.parts();
        t.insert(w, table, key, value)
    }

    /// Add a secondary-index entry pointing at `oid` (obtained from
    /// [`Transaction::insert`]). Secondary keys must be immutable.
    pub fn insert_secondary(&mut self, index: IndexId, key: &[u8], oid: Oid) -> OpResult<()> {
        let (t, w) = self.parts();
        t.insert_secondary(w, index, key, oid)
    }

    /// Range scan over any index (primary or secondary), ascending, both
    /// bounds inclusive. `f` receives (key, payload) for each visible
    /// record and returns `false` to stop. Returns the delivered count.
    pub fn scan(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        let (t, w) = self.parts();
        t.scan(w, index, low, high, limit, f)
    }

    /// Commit. On success returns the commit LSN.
    ///
    /// On a durable database (the log has a directory) the call blocks
    /// until the commit block is durable and rolls back on durability
    /// failure; in memory it publishes at once.
    pub fn commit(mut self) -> TxResult<Lsn> {
        let txn = self.take();
        let wait = txn.db.inner.cfg.commit_waits();
        txn.commit_impl(self.worker, wait).map(|t| t.lsn)
    }

    /// Commit without waiting for durability, durable database or not.
    ///
    /// The transaction becomes visible to other transactions immediately;
    /// the returned [`CommitToken`] identifies the point in the log the
    /// caller must wait on (`db.log().wait_durable(end)`, `end` from
    /// [`CommitToken::end_offset`]) before acknowledging the commit as
    /// durable. This is the server's reply-path integration: the session
    /// thread can move on to the next pipelined request while another
    /// thread awaits group commit. If the durability wait later fails, the
    /// transaction is *not* rolled back — its in-memory effects stand and
    /// its on-disk fate is indeterminate until restart recovery (see
    /// [`ermia_common::LogError`]).
    pub fn commit_deferred(mut self) -> TxResult<CommitToken> {
        self.take().commit_impl(self.worker, false)
    }

    /// [`Txn::precommit`] on this transaction's worker; the [`Prepared`]
    /// value takes a worker for its verdict.
    #[cfg(test)]
    pub(crate) fn precommit(
        mut self,
        marker: Option<ermia_log::PrepareMarker>,
    ) -> TxResult<Prepared> {
        self.take().precommit(self.worker, marker)
    }

    #[cfg(test)]
    pub(crate) fn has_writes(&self) -> bool {
        self.value().has_writes()
    }

    #[cfg(test)]
    pub(crate) fn pointees(&self) -> Vec<(u64, Vec<u8>)> {
        self.value().pointees()
    }

    /// Abort explicitly.
    pub fn abort(self) {}
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            txn.abort(self.worker);
        }
    }
}

pub(crate) enum Visibility {
    Visible {
        cstamp: u64,
        own: bool,
    },
    /// Committed, but after our snapshot.
    SkipCommitted {
        cstamp: u64,
    },
    /// In flight or aborted.
    SkipUncommitted,
}

/// Decide visibility of a single version to a snapshot beginning `at`,
/// resolving TID stamps through the owner's context (§3.5) and waiting
/// out the pre-commit window when the verdict depends on an undecided
/// transaction with an older commit stamp. `own` is the reader's TID,
/// whose writes it sees; the checkpoint walk has none.
pub(crate) fn visibility(tid: &TidManager, v: &Version, at: Lsn, own: Option<Tid>) -> Visibility {
    let mut spins = 0;
    let c = loop {
        let stamp = v.stamp();
        if !stamp.is_tid() {
            break stamp.as_lsn();
        }
        if Some(stamp.as_tid()) == own {
            return Visibility::Visible { cstamp: u64::MAX, own: true };
        }
        match tid.inquire(stamp.as_tid()) {
            TidStatus::InFlight | TidStatus::Aborted => return Visibility::SkipUncommitted,
            TidStatus::Committed(c) => break c,
            // Even if it commits, it commits after us.
            TidStatus::Precommit(c) if !c.is_null() && c >= at => break c,
            // Undecided with a (possibly) older stamp: wait for the verdict.
            TidStatus::Precommit(_) => verdict_backoff(&mut spins),
            // Post-commit finished: the stamp is now an LSN.
            TidStatus::Stale => std::thread::yield_now(),
        }
    };
    match c.raw() {
        c if c < at.raw() => Visibility::Visible { cstamp: c, own: false },
        c => Visibility::SkipCommitted { cstamp: c },
    }
}

/// One wait step for another transaction's verdict. The pre-commit
/// window of a single-shard commit is a log-buffer copy long, so the first
/// rounds only yield; a prepared cross-shard owner holds the window open
/// through its durability rounds, so later rounds sleep instead of
/// burning the core its resolver may need, each after this thread's
/// [`VerdictHelper`], if any: the owner may be a commit it parked itself.
fn verdict_backoff(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        std::thread::yield_now();
    } else {
        // Taken out while it runs: a verdict wait inside it does not help.
        if let Some(helper) = VERDICT_HELPER.with(Cell::take) {
            helper();
            VERDICT_HELPER.with(|h| h.set(Some(helper)));
        }
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

thread_local! {
    /// What this thread runs before it sleeps on another transaction's
    /// verdict; empty outside a [`VerdictHelper`], and while it runs.
    static VERDICT_HELPER: Cell<Option<Rc<dyn Fn()>>> = const { Cell::new(None) };
}

/// What the installing thread runs before each sleep on another
/// transaction's verdict, until this guard drops: for a thread that runs
/// transactions and resolves the cross-shard commits it parked — a server
/// event loop polling its [`Parker`](crate::Parker) — so that it does not
/// wait for a verdict only it can deliver. A verdict wait inside the
/// helper does not help.
pub struct VerdictHelper(PhantomData<Rc<()>>);

impl VerdictHelper {
    pub fn install(helper: Rc<dyn Fn()>) -> VerdictHelper {
        VERDICT_HELPER.with(|h| h.set(Some(helper)));
        VerdictHelper(PhantomData)
    }
}

impl Drop for VerdictHelper {
    fn drop(&mut self) {
        VERDICT_HELPER.with(Cell::take);
    }
}

/// A transaction that passed [`Txn::precommit`]: the value in the
/// `Precommit` TID state — CC-validated, its block (if it wrote anything)
/// filled in the log — plus its commit stamp and the block's end offset,
/// awaiting the verdict. Like any [`Txn`] it holds no worker and no epoch
/// pin, so any number can sit out a coordinator's durability rounds
/// without stalling epoch advance (module docs); the TID slot it holds
/// keeps the write lock on every head it installed, and through the
/// horizon the versions its sets point at.
///
/// Whoever delivers the verdict lends a worker of the same database: the
/// epoch pin rollback needs and the counters the outcome lands in are
/// that worker's. Dropped without a verdict it aborts in memory only, on
/// a worker registered for that: recovery still commits a 2PC
/// participant if every participant's prepare is on disk and no abort
/// verdict is, so whoever drops it after all have prepared owes the logs
/// that verdict first (`StagedCommit` does).
pub(crate) struct Prepared {
    txn: Txn,
    cstamp: Lsn,
    /// Exclusive end offset of the block; `None` when nothing was written.
    end_offset: Option<u64>,
}

impl Prepared {
    /// The commit stamp taken at pre-commit (becomes the commit LSN).
    pub(crate) fn cstamp(&self) -> Lsn {
        self.cstamp
    }

    /// Exclusive end offset of the prepare block; it must be durable, and
    /// every sibling's, before a 2PC participant is published.
    pub(crate) fn end_offset(&self) -> Option<u64> {
        self.end_offset
    }

    /// The commit verdict, on `w`: make the updates visible atomically and
    /// run post-commit stamping. A 2PC participant's caller must already
    /// have seen every participant's prepare block durable.
    pub(crate) fn finish_commit(mut self, w: &mut Worker) -> CommitToken {
        self.txn.check_worker(w);
        self.txn.publish(w, self.cstamp);
        CommitToken { lsn: self.cstamp, end_offset: self.end_offset, shard: 0 }
    }

    /// The abort verdict, on `w`: roll back the in-memory effects. The
    /// block stays in the log: recovery drops a commit block behind the
    /// first hole, and aborts a prepare by an abort verdict record or for
    /// want of a sibling's prepare.
    pub(crate) fn abort(mut self, w: &mut Worker, reason: AbortReason) {
        self.txn.check_worker(w);
        self.txn.fail(w, reason);
    }

    #[cfg(test)]
    pub(crate) fn pointees(&self) -> Vec<(u64, Vec<u8>)> {
        self.txn.pointees()
    }
}

/// Receipt of a commit that is visible in memory: the commit LSN plus
/// the log offset whose durability implies the commit block is on disk,
/// and the shard whose log that is.
///
/// Tokens are plain data — they do not borrow the worker, so the worker
/// can serve the next transaction while somebody else awaits durability.
#[derive(Clone, Copy, Debug)]
pub struct CommitToken {
    lsn: Lsn,
    /// `None` for read-only commits, which occupy no log space and are
    /// trivially durable.
    end_offset: Option<u64>,
    /// 0 until a [`ShardedTransaction`](crate::ShardedTransaction) names
    /// the participant the token came from.
    shard: u32,
}

impl CommitToken {
    /// A token for a commit that occupied no log space (read-only or
    /// empty transactions) — trivially durable.
    pub(crate) fn readonly_at(lsn: Lsn) -> CommitToken {
        CommitToken { lsn, end_offset: None, shard: 0 }
    }

    pub(crate) fn on_shard(self, shard: usize) -> CommitToken {
        CommitToken { shard: shard as u32, ..self }
    }

    /// The commit timestamp (on the backing shard's timeline).
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The shard whose log durability backs this commit.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The exclusive end offset of the commit block in the backing
    /// shard's log, or `None` for read-only commits.
    pub fn end_offset(&self) -> Option<u64> {
        self.end_offset
    }
}
