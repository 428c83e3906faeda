//! Version-chain garbage collection (paper §3.2, §3.4).
//!
//! A version is unneeded once a *newer committed* version exists whose
//! stamp is below the reclamation horizon — the minimum begin timestamp
//! of any in-flight transaction — because every current and future
//! snapshot then reads that newer version (or something newer still).
//!
//! **Deviation from the paper.** "The garbage collector periodically goes
//! over all indirection arrays to remove versions that are not needed by
//! any transaction": a pass costs O(rows) whatever the update rate, and
//! on one busy core that sweep was close to half the process's CPU for a
//! fraction of a percent of useful visits. Here reclamation follows the
//! *updates* instead of the *table*. Whoever links a version above a
//! committed one — a committing transaction's post-commit, or log replay
//! — knows the chain now holds garbage-to-be and hands
//! `(cstamp, table, oid)` to the [`RetireQueue`]; the version beneath
//! dies exactly when the horizon passes `cstamp`. Each epoch tick the
//! collector pops the entries below its horizon and truncates exactly
//! those chains, so a pass costs O(versions superseded since the last
//! one).
//!
//! Safety needs no new argument: truncating a chain behind its horizon
//! version is safe on any chain at any time, and the queue only decides
//! *which* chains are visited. Liveness is the queue's burden — every
//! site that stacks a version on a committed one must enqueue — and the
//! paper's full pass stays as [`RetireQueue::audit`], which checks it:
//! after the queue drains, a full sweep at the same horizon must find
//! nothing.
//!
//! Reclamation is two-phase: the collector unlinks the dead suffix of a
//! chain (making it unreachable to new traversals) and retires each node
//! through the epoch manager, which frees it only after all possibly-
//! referencing threads have quiesced. When a [`VersionPool`] is supplied,
//! quiesced nodes are released into it instead of freed, seeding the
//! workers' allocation-free version caches.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ermia_common::{Lsn, Oid, Stamp, TableId};
use ermia_epoch::EpochManager;

use crate::oid_array::OidArray;
use crate::version::{defer_release, Version, VersionPool};

/// Collector statistics.
#[derive(Debug, Default)]
pub struct GcStats {
    /// Versions unlinked and retired.
    pub reclaimed: AtomicU64,
    /// Collector passes: one per epoch tick, whether or not anything was
    /// due.
    pub passes: AtomicU64,
    /// Chains truncated-or-inspected, one per retire-queue entry popped.
    pub chains_visited: AtomicU64,
    /// Entries handed to the retire queue and not yet visited.
    pub retire_backlog: AtomicU64,
}

/// "The version committed at `cstamp` sits on a committed one in chain
/// `(table, oid)`": what is beneath it dies once the horizon passes
/// `cstamp`. Ordered by `cstamp` first, which is what the collector pops
/// by.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Retired {
    pub cstamp: Lsn,
    pub table: TableId,
    pub oid: Oid,
}

/// Pin at most this many chain visits under one epoch guard, so a large
/// drain (a long reader just left) retires through the epoch manager as
/// it goes instead of stacking every deferred node behind one pin.
const VISIT_BATCH: u64 = 4096;

/// The hand-off from the sites that create garbage to the collector that
/// reclaims it. Producers append under the lock, once per transaction;
/// the collector swaps the buffer for its own drained one of at least
/// that capacity, so the steady state allocates on neither side.
pub struct RetireQueue {
    handed: Mutex<Vec<Retired>>,
    /// Held while truncating chains. Two sweepers on one chain could
    /// each detach — and retire — the same suffix, so the collector and
    /// an [audit](RetireQueue::audit) take turns.
    sweeper: Mutex<()>,
    stats: Arc<GcStats>,
}

impl RetireQueue {
    pub fn new(stats: Arc<GcStats>) -> RetireQueue {
        RetireQueue { handed: Mutex::new(Vec::new()), sweeper: Mutex::new(()), stats }
    }

    /// Hand `entries` to the collector. Call only after the superseding
    /// versions carry their commit stamp: the collector expects to find
    /// them stamped when it visits.
    pub fn retire(&self, entries: &[Retired]) {
        if entries.is_empty() {
            return;
        }
        // Counted before it can be popped: the gauge never dips below 0.
        self.stats.retire_backlog.fetch_add(entries.len() as u64, Ordering::Relaxed);
        self.handed.lock().unwrap().extend_from_slice(entries);
    }

    pub fn stats(&self) -> &Arc<GcStats> {
        &self.stats
    }

    /// The paper's pass over a whole array, as the check on this queue's
    /// liveness: once the backlog has drained, a full sweep at the
    /// collector's horizon has nothing left to reclaim. Returns what it
    /// did reclaim.
    pub fn audit(
        &self,
        arr: &OidArray,
        horizon: Lsn,
        guard: &ermia_epoch::Guard<'_>,
        pool: Option<&Arc<VersionPool>>,
    ) -> u64 {
        let _turn = self.sweeper.lock().unwrap();
        sweep_array(arr, horizon, guard, pool)
    }
}

/// The garbage collector draining a [`RetireQueue`]: a plain value whose
/// [`pass`](Collector::pass) the owner's epoch tick calls (paper §3.4: the
/// epoch manager drives collection). It has no thread or clock of its own.
pub struct Collector {
    queue: Arc<RetireQueue>,
    epoch: EpochManager,
    handle: ermia_epoch::EpochHandle,
    horizon: Box<dyn Fn() -> Lsn + Send>,
    array: Box<dyn Fn(TableId) -> Option<Arc<OidArray>> + Send>,
    pool: Option<Arc<VersionPool>>,
    on_pass: Box<dyn Fn(u64, u64) + Send>,
    /// Entries not yet below the horizon, earliest stamp first: hand-offs
    /// arrive only roughly in stamp order, and a pinned horizon parks any
    /// number of them here.
    waiting: BinaryHeap<Reverse<Retired>>,
    /// The drained buffer traded for the queue's full one.
    incoming: Vec<Retired>,
    /// Indirection arrays by table id, as far as entries have named them.
    arrays: Vec<Arc<OidArray>>,
}

impl Collector {
    /// A collector of what `queue` is handed (its [`GcStats`] are the
    /// collector's). `horizon` supplies the current reclamation horizon
    /// (min active begin timestamp); `array` resolves an entry's table —
    /// asked once per table, tables never go away; `epoch` is the epoch
    /// manager versions are retired through; `pool`, when present,
    /// receives quiesced nodes for worker reuse instead of freeing them;
    /// `on_pass` observes each pass with `(reclaimed_this_pass,
    /// total_passes)` — telemetry's `gc-pass` flight-event hook.
    pub fn new(
        queue: Arc<RetireQueue>,
        epoch: EpochManager,
        horizon: impl Fn() -> Lsn + Send + 'static,
        array: impl Fn(TableId) -> Option<Arc<OidArray>> + Send + 'static,
        pool: Option<Arc<VersionPool>>,
        on_pass: impl Fn(u64, u64) + Send + 'static,
    ) -> Collector {
        Collector {
            handle: epoch.register(),
            queue,
            epoch,
            horizon: Box::new(horizon),
            array: Box::new(array),
            pool,
            on_pass: Box::new(on_pass),
            waiting: BinaryHeap::new(),
            incoming: Vec::new(),
            arrays: Vec::new(),
        }
    }

    /// One tick: take what was handed off, visit every chain whose entry
    /// the horizon has passed, count the pass.
    pub fn pass(&mut self) {
        let reclaimed = self.collect();
        let passes = self.queue.stats.passes.fetch_add(1, Ordering::Relaxed) + 1;
        (self.on_pass)(reclaimed, passes);
    }

    /// The work of a pass; returns the versions reclaimed.
    fn collect(&mut self) -> u64 {
        let mut handed = self.queue.handed.lock().unwrap();
        if !handed.is_empty() {
            // Leave a drained buffer at least as roomy as the one taken:
            // growth is paid here, once, not by committers a few entries
            // at a time.
            self.incoming.reserve(handed.capacity());
            std::mem::swap(&mut *handed, &mut self.incoming);
        }
        drop(handed);
        self.waiting.extend(self.incoming.drain(..).map(Reverse));
        if self.waiting.is_empty() {
            // Asking for the horizon scans the transaction table: not
            // worth it on a tick with nothing waiting for it.
            return 0;
        }
        let h = (self.horizon)();
        let (mut reclaimed, mut visited) = (0, 0);
        while self.due(h) {
            let turn = self.queue.sweeper.lock().unwrap();
            let guard = self.handle.pin();
            let batch_end = visited + VISIT_BATCH;
            while visited < batch_end && self.due(h) {
                let Reverse(e) = self.waiting.pop().expect("peeked");
                visited += 1;
                let t = e.table.0 as usize;
                while self.arrays.len() <= t {
                    let Some(arr) = (self.array)(TableId(self.arrays.len() as u32)) else { break };
                    self.arrays.push(arr);
                }
                if let Some(arr) = self.arrays.get(t) {
                    reclaimed += sweep_chain(arr.head(e.oid), h, &guard, self.pool.as_ref());
                }
            }
            drop((guard, turn));
            self.epoch.advance_and_collect();
        }
        let stats = &self.queue.stats;
        stats.reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        stats.chains_visited.fetch_add(visited, Ordering::Relaxed);
        stats.retire_backlog.fetch_sub(visited, Ordering::Relaxed);
        reclaimed
    }

    fn due(&self, horizon: Lsn) -> bool {
        self.waiting.peek().is_some_and(|e| e.0.cstamp < horizon)
    }
}

/// The paper's pass over a whole array: truncate every chain behind its
/// horizon version. Returns the number of versions retired. The collector
/// does not run it; [`RetireQueue::audit`] does.
pub(crate) fn sweep_array(
    arr: &OidArray,
    horizon: Lsn,
    guard: &ermia_epoch::Guard<'_>,
    pool: Option<&Arc<VersionPool>>,
) -> u64 {
    let mut reclaimed = 0;
    arr.for_each(|_oid, head| {
        reclaimed += sweep_chain(head, horizon, guard, pool);
    });
    reclaimed
}

/// Truncate one chain: find the first *committed* version with stamp
/// strictly below `horizon` — the boundary every active and future
/// snapshot reads (visibility is `cstamp < begin`, so the comparison
/// here must be strict too) — and retire everything older than it.
fn sweep_chain(
    head: *mut Version,
    horizon: Lsn,
    guard: &ermia_epoch::Guard<'_>,
    pool: Option<&Arc<VersionPool>>,
) -> u64 {
    let mut boundary: *mut Version = head;
    // Walk to the boundary. TID-stamped (in-flight) and too-new versions
    // must all stay.
    loop {
        if boundary.is_null() {
            return 0;
        }
        let v = unsafe { &*boundary };
        let stamp = Stamp::from_raw(v.clsn.load(Ordering::Acquire));
        if !stamp.is_tid() && stamp.as_lsn() < horizon {
            break;
        }
        boundary = v.next.load(Ordering::Acquire);
    }
    // Detach the suffix after the boundary and retire it.
    let bref = unsafe { &*boundary };
    let mut dead = bref.next.swap(std::ptr::null_mut(), Ordering::AcqRel);
    let mut n = 0;
    while !dead.is_null() {
        let next = unsafe { (*dead).next.load(Ordering::Acquire) };
        // SAFETY: unlinked above; traversals that already hold the
        // pointer are protected by their epoch pins.
        unsafe { defer_release(guard, pool, dead) };
        dead = next;
        n += 1;
    }
    n
}
