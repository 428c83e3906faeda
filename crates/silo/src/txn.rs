//! The Silo OCC transaction protocol (SOSP'13 §3, as summarized in the
//! ERMIA paper §2 and §4).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ermia_common::{AbortReason, IndexId, OpResult, TableId, TxResult};
use ermia_epoch::Guard;
use ermia_index::{BTree, InsertOutcome, LeafSnapshot, ScanControl};

use crate::db::{SiloDb, SiloWorker};
use crate::record::{pack_tid, unpack_tid, DataBuf, Record, SnapVersion, TID_ABSENT, TID_LOCK};

/// Transaction mode. Declared read-only transactions read epoch-based
/// snapshots without validation — but become unusable the moment the
/// workload wants them to write ("unusable by transactions that perform
/// any writes", §5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnMode {
    ReadWrite,
    ReadOnly,
}

/// How a written record came into the write set, whatever the transaction
/// does to it after: an `Insert` is its own record, unindexed on abort.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WriteKind {
    /// Fresh record we created and indexed (ABSENT until commit).
    Insert,
    /// Revival of an existing ABSENT (deleted) record.
    Revive,
    /// A committed, live record.
    Update,
}

struct WriteOp {
    record: *mut Record,
    tree: Arc<BTree>,
    key: Box<[u8]>,
    new_data: Vec<u8>,
    kind: WriteKind,
    /// The transaction's last word on the record is a delete.
    deleted: bool,
}

struct SecondaryIns {
    tree: Arc<BTree>,
    key: Box<[u8]>,
}

/// An in-flight Silo transaction.
pub struct SiloTxn<'w> {
    db: &'w SiloDb,
    guard: Guard<'w>,
    mode: TxnMode,
    /// Snapshot epoch (read-only transactions).
    snap: u64,
    reads: Vec<(*mut Record, u64)>,
    writes: Vec<WriteOp>,
    secondary: Vec<SecondaryIns>,
    node_set: Vec<(Arc<BTree>, LeafSnapshot)>,
    last_tid: &'w mut u64,
    doomed: Option<AbortReason>,
    finished: bool,
}

impl<'w> SiloTxn<'w> {
    pub(crate) fn begin(worker: &'w mut SiloWorker, mode: TxnMode) -> SiloTxn<'w> {
        let SiloWorker { db, rcu_handle, last_tid } = worker;
        let guard = rcu_handle.pin();
        let snap = db.inner.snap_epoch.load(Ordering::Acquire);
        if mode == TxnMode::ReadOnly && db.inner.cfg.snapshots {
            *db.inner.ro_active.lock().unwrap().entry(snap).or_insert(0) += 1;
        }
        SiloTxn {
            db,
            guard,
            mode,
            snap,
            reads: Vec::new(),
            writes: Vec::new(),
            secondary: Vec::new(),
            node_set: Vec::new(),
            last_tid,
            doomed: None,
            finished: false,
        }
    }

    fn snapshot_reads(&self) -> bool {
        self.mode == TxnMode::ReadOnly && self.db.inner.cfg.snapshots
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

    fn write_entry(&self, rec: *mut Record) -> Option<usize> {
        self.writes.iter().position(|w| w.record == rec)
    }

    /// Indices of node-set entries for `tree` that are currently valid —
    /// captured just before one of our own inserts so the refresh below
    /// can tell self-inflicted version bumps from genuine concurrent
    /// phantoms (real Silo attributes its own structural changes too).
    fn valid_node_entries(&self, tree: &Arc<BTree>) -> Vec<usize> {
        self.node_set
            .iter()
            .enumerate()
            .filter(|(_, (t2, snap))| Arc::ptr_eq(t2, tree) && t2.validate(snap))
            .map(|(i, _)| i)
            .collect()
    }

    /// Re-stamp entries that were valid before our own insert and are
    /// stale now; entries already stale beforehand stay stale and fail
    /// phase-2 validation.
    fn refresh_node_set(&mut self, valid_before: &[usize]) {
        for &i in valid_before {
            let (tree, snap) = &mut self.node_set[i];
            if !tree.validate(snap) {
                tree.refresh_snapshot(snap);
            }
        }
    }

    /// Read a record by primary key.
    pub fn read<R>(
        &mut self,
        table: TableId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        self.check_doomed()?;
        let t = self.db.table(table);
        self.read_via(&t.primary, key, f)
    }

    /// Read through a secondary index.
    pub fn read_secondary<R>(
        &mut self,
        index: IndexId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        self.check_doomed()?;
        let tree = self.db.index(index);
        self.read_via(&tree, key, f)
    }

    fn read_via<R>(
        &mut self,
        tree: &Arc<BTree>,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        let (val, snap) = tree.get(&self.guard, key);
        let Some(val) = val else {
            if !self.snapshot_reads() {
                self.node_set.push((Arc::clone(tree), snap));
            }
            return Ok(None);
        };
        let rec = val as *mut Record;
        if self.snapshot_reads() {
            return Ok(self.read_snapshot(rec).map(f));
        }
        // Read own pending writes first.
        if let Some(i) = self.write_entry(rec) {
            let w = &self.writes[i];
            return Ok(if w.deleted { None } else { Some(f(&w.new_data)) });
        }
        let r = unsafe { &*rec };
        let (word, buf) = r.stable_read();
        self.reads.push((rec, word));
        if word & TID_ABSENT != 0 {
            return Ok(None);
        }
        // SAFETY: buffer pinned by our guard; word re-validated by
        // stable_read.
        let bytes = unsafe { &(*buf).bytes };
        Ok(Some(f(bytes)))
    }

    /// Snapshot read for declared read-only transactions: the newest
    /// value created before this transaction's snapshot epoch.
    fn read_snapshot(&self, rec: *mut Record) -> Option<&[u8]> {
        let r = unsafe { &*rec };
        let (word, buf) = r.stable_read();
        let cur = unsafe { &*buf };
        if cur.snap_epoch < self.snap && word & TID_ABSENT == 0 {
            return Some(&cur.bytes);
        }
        // Walk the snapshot chain for an old-enough value.
        let mut entry = r.snaps.load(Ordering::Acquire);
        while !entry.is_null() {
            let e = unsafe { &*entry };
            let b = unsafe { &*e.buf };
            if b.snap_epoch < self.snap {
                return Some(&b.bytes);
            }
            entry = e.next.load(Ordering::Acquire);
        }
        None
    }

    /// Buffer an update; returns false if the key is absent.
    pub fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool> {
        self.check_doomed()?;
        debug_assert_eq!(self.mode, TxnMode::ReadWrite, "read-only transactions cannot write");
        let t = self.db.table(table);
        let (val, snap) = t.primary.get(&self.guard, key);
        let Some(val) = val else {
            self.node_set.push((Arc::clone(&t.primary), snap));
            return Ok(false);
        };
        let rec = val as *mut Record;
        if let Some(i) = self.write_entry(rec) {
            let entry = &mut self.writes[i];
            if entry.deleted {
                // Deleted earlier in this transaction: a miss.
                return Ok(false);
            }
            entry.new_data = value.to_vec();
            return Ok(true);
        }
        let r = unsafe { &*rec };
        let (word, _) = r.stable_read();
        if word & TID_ABSENT != 0 {
            self.reads.push((rec, word));
            return Ok(false);
        }
        self.writes.push(WriteOp {
            record: rec,
            tree: Arc::clone(&t.primary),
            key: key.to_vec().into_boxed_slice(),
            new_data: value.to_vec(),
            kind: WriteKind::Update,
            deleted: false,
        });
        Ok(true)
    }

    /// Buffer a delete; returns false on miss. Deleted records stay in
    /// the index as ABSENT entries (revivable by inserts).
    pub fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool> {
        self.check_doomed()?;
        let t = self.db.table(table);
        let (val, snap) = t.primary.get(&self.guard, key);
        let Some(val) = val else {
            self.node_set.push((Arc::clone(&t.primary), snap));
            return Ok(false);
        };
        let rec = val as *mut Record;
        if let Some(i) = self.write_entry(rec) {
            if self.writes[i].deleted {
                return Ok(false); // already deleted by us
            }
            self.writes[i].deleted = true;
            return Ok(true);
        }
        let r = unsafe { &*rec };
        let (word, _) = r.stable_read();
        if word & TID_ABSENT != 0 {
            self.reads.push((rec, word));
            return Ok(false);
        }
        self.writes.push(WriteOp {
            record: rec,
            tree: Arc::clone(&t.primary),
            key: key.to_vec().into_boxed_slice(),
            new_data: Vec::new(),
            kind: WriteKind::Update,
            deleted: true,
        });
        Ok(true)
    }

    /// Insert a record; returns an opaque handle usable with
    /// [`SiloTxn::insert_secondary`]. Inserting over a deleted (ABSENT)
    /// record revives it; a live duplicate dooms the transaction.
    pub fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<u64> {
        self.check_doomed()?;
        let t = self.db.table(table);
        let snap_epoch = self.db.inner.snap_epoch.load(Ordering::Acquire);
        let rec = Record::alloc_absent(snap_epoch, value);
        let valid_before = self.valid_node_entries(&t.primary);
        match t.primary.insert(&self.guard, key, rec as u64) {
            InsertOutcome::Inserted => {
                self.refresh_node_set(&valid_before);
                self.writes.push(WriteOp {
                    record: rec,
                    tree: Arc::clone(&t.primary),
                    key: key.to_vec().into_boxed_slice(),
                    new_data: value.to_vec(),
                    kind: WriteKind::Insert,
                    deleted: false,
                });
                Ok(rec as u64)
            }
            InsertOutcome::Duplicate(existing) => {
                // Our speculative record never escaped.
                unsafe {
                    drop(Box::from_raw((*rec).data.load(Ordering::Relaxed)));
                    drop(Box::from_raw(rec));
                }
                let existing = existing as *mut Record;
                // Re-insert over our own buffered delete: revive in place.
                if let Some(i) = self.write_entry(existing) {
                    let entry = &mut self.writes[i];
                    if entry.deleted {
                        entry.deleted = false;
                        entry.new_data = value.to_vec();
                        return Ok(existing as u64);
                    }
                    return Err(self.doom(AbortReason::DuplicateKey));
                }
                let er = unsafe { &*existing };
                let (word, _) = er.stable_read();
                // Revivable = ABSENT *with a commit TID* (a committed
                // delete). A pure-ABSENT word is another transaction's
                // in-flight insert: reviving it would alias a record its
                // owner may yet unlink and retire on abort.
                if word & TID_ABSENT != 0 && word >> 3 != 0 {
                    // Revive the deleted record; the read-set entry makes
                    // competing revivals conflict at validation.
                    self.reads.push((existing, word));
                    self.writes.push(WriteOp {
                        record: existing,
                        tree: Arc::clone(&t.primary),
                        key: key.to_vec().into_boxed_slice(),
                        new_data: value.to_vec(),
                        kind: WriteKind::Revive,
                        deleted: false,
                    });
                    Ok(existing as u64)
                } else {
                    Err(self.doom(AbortReason::DuplicateKey))
                }
            }
        }
    }

    /// Add a secondary-index entry for a handle returned by
    /// [`SiloTxn::insert`].
    pub fn insert_secondary(&mut self, index: IndexId, key: &[u8], handle: u64) -> OpResult<()> {
        self.check_doomed()?;
        let tree = self.db.index(index);
        let valid_before = self.valid_node_entries(&tree);
        match tree.insert(&self.guard, key, handle) {
            InsertOutcome::Inserted => {
                self.refresh_node_set(&valid_before);
                self.secondary.push(SecondaryIns {
                    tree: Arc::clone(&tree),
                    key: key.to_vec().into_boxed_slice(),
                });
                Ok(())
            }
            InsertOutcome::Duplicate(_) => Err(self.doom(AbortReason::DuplicateKey)),
        }
    }

    /// Range scan (ascending, inclusive bounds) over any index.
    pub fn scan(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        self.check_doomed()?;
        let tree = self.db.index(index);
        let snapshot = self.snapshot_reads();

        let mut delivered = 0usize;
        let mut resume: Vec<u8> = low.to_vec();
        loop {
            let cap = limit.map_or(usize::MAX, |l| (l - delivered) * 2 + 64);
            let mut items: Vec<(Vec<u8>, u64)> = Vec::new();
            let mut truncated = false;
            {
                let node_set = &mut self.node_set;
                tree.scan(
                    &self.guard,
                    &resume,
                    high,
                    |snap| {
                        if !snapshot {
                            node_set.push((Arc::clone(&tree), snap));
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
            let mut stopped = false;
            for (k, val) in &items {
                let rec = *val as *mut Record;
                let keep_going = if snapshot {
                    match self.read_snapshot(rec) {
                        Some(bytes) => {
                            delivered += 1;
                            f(k, bytes)
                        }
                        None => true,
                    }
                } else if let Some(i) = self.write_entry(rec) {
                    if self.writes[i].deleted {
                        true
                    } else {
                        // Deliver own pending write; clone to end the
                        // borrow of self.writes.
                        let data = self.writes[i].new_data.clone();
                        delivered += 1;
                        f(k, &data)
                    }
                } else {
                    let r = unsafe { &*rec };
                    let (word, buf) = r.stable_read();
                    self.reads.push((rec, word));
                    if word & TID_ABSENT != 0 {
                        true
                    } else {
                        let bytes = unsafe { &(*buf).bytes };
                        delivered += 1;
                        f(k, bytes)
                    }
                };
                if !keep_going || limit.is_some_and(|l| delivered >= l) {
                    stopped = true;
                    break;
                }
            }
            if stopped || !truncated {
                return Ok(delivered);
            }
            let (last, _) = items.last().expect("truncated implies items");
            resume.clear();
            resume.extend_from_slice(last);
            resume.push(0);
        }
    }

    /// Commit: lock write set → validate read + node sets → install.
    pub fn commit(mut self) -> TxResult<()> {
        if let Some(r) = self.doomed {
            self.do_abort();
            return Err(r);
        }
        if self.snapshot_reads()
            || (self.writes.is_empty() && self.reads.is_empty() && self.node_set.is_empty())
        {
            // Snapshot transactions commit without validation.
            self.db.inner.commits.fetch_add(1, Ordering::Relaxed);
            self.finish();
            return Ok(());
        }

        // Phase 1: lock the write set in pointer order (deadlock-free).
        let mut order: Vec<usize> = (0..self.writes.len()).collect();
        order.sort_unstable_by_key(|&i| self.writes[i].record as usize);
        for &i in &order {
            unsafe { (*self.writes[i].record).lock() };
        }
        std::sync::atomic::fence(Ordering::SeqCst);
        let epoch = self.db.inner.global_epoch.load(Ordering::SeqCst);

        // Phase 2: validate reads and node set.
        let mut valid = true;
        let mut reason = AbortReason::ReadValidation;
        for &(rec, observed) in &self.reads {
            let cur = unsafe { (*rec).tid_word.load(Ordering::Acquire) };
            let in_ws = self.writes.iter().any(|w| w.record == rec);
            let ok = if in_ws {
                (cur & !TID_LOCK) == (observed & !TID_LOCK)
            } else {
                cur == observed // a lock bit or changed TID both fail
            };
            if !ok {
                valid = false;
                break;
            }
        }
        if valid {
            for (tree, snap) in &self.node_set {
                if !tree.validate(snap) {
                    valid = false;
                    reason = AbortReason::Phantom;
                    break;
                }
            }
        }
        if !valid {
            for &i in &order {
                unsafe { (*self.writes[i].record).unlock() };
            }
            self.rollback_inserts();
            self.db.inner.aborts.fetch_add(1, Ordering::Relaxed);
            self.finish();
            return Err(reason);
        }

        // Phase 3: compute the commit TID and install.
        let mut max_word = *self.last_tid;
        for &(_, w) in &self.reads {
            max_word = max_word.max(w & !(TID_LOCK | TID_ABSENT));
        }
        for w in &self.writes {
            let cur = unsafe { (*w.record).tid_word.load(Ordering::Relaxed) };
            max_word = max_word.max(cur & !(TID_LOCK | TID_ABSENT));
        }
        let (mut ep, mut seq) = unpack_tid(max_word);
        if ep < epoch {
            ep = epoch;
            seq = 0;
        }
        let commit_word = pack_tid(ep, seq + 1);
        *self.last_tid = commit_word;

        let snap_now = self.db.inner.snap_epoch.load(Ordering::Acquire);
        let snapshots = self.db.inner.cfg.snapshots;
        for w in &self.writes {
            let r = unsafe { &*w.record };
            if w.deleted {
                // The record stays indexed (ABSENT); snapshots keep
                // reading the pre-delete value from the chain — a value
                // only a committed, live record has.
                let old = r.data.load(Ordering::Acquire);
                if w.kind == WriteKind::Update
                    && self.preserve_snapshot(r, old, snap_now, snapshots)
                {
                    // The chain now owns `old`; give the record a fresh
                    // (empty) current buffer.
                    r.data.store(DataBuf::alloc(snap_now, &[]), Ordering::Release);
                }
                // else: the buffer stays as the (unreadable) current
                // data — never freed while referenced.
                r.unlock_with(commit_word | TID_ABSENT);
                continue;
            }
            match w.kind {
                WriteKind::Insert | WriteKind::Revive => {
                    let new_buf = DataBuf::alloc(snap_now, &w.new_data);
                    let old = r.data.swap(new_buf, Ordering::AcqRel);
                    unsafe { self.guard.defer_drop(old) };
                    r.unlock_with(commit_word);
                }
                WriteKind::Update => {
                    let new_buf = DataBuf::alloc(snap_now, &w.new_data);
                    let old = r.data.swap(new_buf, Ordering::AcqRel);
                    if !self.preserve_snapshot(r, old, snap_now, snapshots) {
                        // Not needed by any snapshot: retire directly.
                        unsafe { self.guard.defer_drop(old) };
                    }
                    r.unlock_with(commit_word);
                }
            }
        }
        self.db.inner.commits.fetch_add(1, Ordering::Relaxed);
        self.finish();
        Ok(())
    }

    /// On overwrite, push the displaced value onto the snapshot chain
    /// (at most once per snapshot epoch); returns whether the chain took
    /// ownership of `old`. Also trims chain entries old enough that no
    /// reasonable snapshot reader needs them.
    fn preserve_snapshot(
        &self,
        r: &Record,
        old: *mut DataBuf,
        snap_now: u64,
        enabled: bool,
    ) -> bool {
        if !enabled {
            return false;
        }
        if r.last_push.load(Ordering::Relaxed) < snap_now {
            let entry = Box::into_raw(Box::new(SnapVersion {
                buf: old,
                next: std::sync::atomic::AtomicPtr::new(r.snaps.load(Ordering::Acquire)),
            }));
            r.snaps.store(entry, Ordering::Release);
            r.last_push.store(snap_now, Ordering::Relaxed);
            // Trim: a snapshot reader at epoch S needs the *newest*
            // entry with snap_epoch < S. With horizon = the oldest
            // active read-only snapshot, everything strictly after the
            // first entry below the horizon is unreachable.
            let horizon =
                self.db.inner.ro_active.lock().unwrap().keys().next().copied().unwrap_or(snap_now);
            let mut cur = unsafe { &*entry }.next.load(Ordering::Acquire);
            let mut prev = entry;
            while !cur.is_null() {
                let c = unsafe { &*cur };
                let b = unsafe { &*c.buf };
                let next = c.next.load(Ordering::Acquire);
                if b.snap_epoch < horizon {
                    // `cur` is the newest entry any active (or future)
                    // snapshot below the horizon can need; cut after it.
                    c.next.store(std::ptr::null_mut(), Ordering::Release);
                    let mut dead = next;
                    while !dead.is_null() {
                        let d = unsafe { &*dead };
                        let dn = d.next.load(Ordering::Acquire);
                        unsafe {
                            self.guard.defer_drop(d.buf);
                            self.guard.defer_drop(dead);
                        }
                        dead = dn;
                    }
                    break;
                }
                prev = cur;
                cur = next;
            }
            let _ = prev;
            true
        } else {
            false
        }
    }

    /// Abort explicitly.
    pub fn abort(mut self) {
        self.do_abort();
    }

    fn do_abort(&mut self) {
        if self.finished {
            return;
        }
        self.rollback_inserts();
        self.db.inner.aborts.fetch_add(1, Ordering::Relaxed);
        self.finish();
    }

    /// Mark finished and deregister the read-only snapshot (if any).
    fn finish(&mut self) {
        self.finished = true;
        if self.mode == TxnMode::ReadOnly && self.db.inner.cfg.snapshots {
            let mut active = self.db.inner.ro_active.lock().unwrap();
            if let Some(count) = active.get_mut(&self.snap) {
                *count -= 1;
                if *count == 0 {
                    active.remove(&self.snap);
                }
            }
        }
    }

    fn rollback_inserts(&mut self) {
        for w in self.writes.drain(..) {
            if w.kind == WriteKind::Insert {
                // Our speculative ABSENT record: unindex and retire.
                w.tree.remove(&self.guard, &w.key);
                let rec = w.record;
                unsafe {
                    let buf = (*rec).data.load(Ordering::Relaxed);
                    self.guard.defer_drop(buf);
                    self.guard.defer_drop(rec);
                }
            }
        }
        for s in self.secondary.drain(..) {
            s.tree.remove(&self.guard, &s.key);
        }
    }
}

impl Drop for SiloTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.do_abort();
        }
    }
}
