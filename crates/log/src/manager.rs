//! The log manager front end: LSN allocation and the commit data path.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use ermia_common::{CachePadded, LogError, Lsn};

use crate::buffer::RingBuffer;
use crate::flusher;
use crate::io::{create_dirs, FileBackend, SegmentIoFactory};
use crate::records::{
    BlockEncoder, BlockKind, DdlRecord, LogBlockHeader, BLOCK_HEADER_LEN, MIN_BLOCK_LEN,
};
use crate::segment::{Segment, SegmentTable};

/// Log manager configuration.
#[derive(Clone, Debug)]
pub struct LogConfig {
    /// Directory for segment files; `None` keeps the log in memory only
    /// (useful for CC-only experiments — the paper writes to tmpfs).
    pub dir: Option<PathBuf>,
    /// Size of each segment file in bytes (multiple of 32).
    pub segment_size: u64,
    /// Centralized ring buffer capacity in bytes. With `segment_size`,
    /// the bound on one block, so on one commit's writes.
    pub buffer_size: u64,
    /// `fsync` segment files on every flush batch.
    pub fsync: bool,
    /// Flusher wakeup interval when idle.
    pub flush_interval: Duration,
    /// Storage backend opened for each segment file: [`FileBackend`] in
    /// production, a [`crate::io::FaultInjector`] in crash tests.
    pub io_factory: Arc<dyn SegmentIoFactory>,
    /// The one bound on every wait for durability: how long
    /// [`LogManager::wait_durable`] (so a synchronous commit, a staged
    /// commit's `wait`, [`LogManager::sync`]) blocks before giving up with
    /// [`LogError::Timeout`], and how long the server's parker holds a
    /// commit before it answers `LogStalled`.
    pub wait_durable_timeout: Duration,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            dir: None,
            segment_size: 256 << 20,
            buffer_size: 64 << 20,
            fsync: false,
            flush_interval: Duration::from_micros(200),
            io_factory: Arc::new(FileBackend),
            wait_durable_timeout: Duration::from_secs(5),
        }
    }
}

impl LogConfig {
    /// In-memory log with small sizes, for tests.
    pub fn in_memory() -> LogConfig {
        LogConfig {
            dir: None,
            segment_size: 16 << 20,
            buffer_size: 4 << 20,
            ..LogConfig::default()
        }
    }
}

/// Counters exposed for the evaluation (Fig. 10/11 instrumentation).
///
/// The per-commit counters (`allocations`, `flush_batches`,
/// `flushed_bytes`) are cache-padded: every committing worker bumps
/// `allocations`, and before padding all eight counters shared one cache
/// line, so each bump invalidated the line under every other worker and
/// the flusher. The cold counters (rotation, skip, failure paths) stay
/// unpadded.
#[derive(Debug, Default)]
pub struct LogStats {
    pub allocations: CachePadded<AtomicU64>,
    pub rotations: AtomicU64,
    pub skip_blocks: AtomicU64,
    pub dead_zone_bytes: AtomicU64,
    pub flush_batches: CachePadded<AtomicU64>,
    pub flushed_bytes: CachePadded<AtomicU64>,
    /// Transient write errors the flusher retried.
    pub flush_retries: AtomicU64,
    /// 1 once the log has been poisoned by an unrecoverable I/O error.
    pub log_poisoned: AtomicU64,
    /// Bytes of the most recent flush batch — the instantaneous
    /// group-commit batch size (flusher-owned, telemetry gauge).
    pub last_batch_bytes: AtomicU64,
    /// Device syncs handed off and not yet published: the flusher's
    /// queue depth at the device (flusher-owned, telemetry gauge).
    pub syncs_in_flight: AtomicU64,
    /// Device syncs started, by what started them: indexed by
    /// [`SyncCause`] (flusher-owned).
    pub sync_starts: [AtomicU64; SyncCause::ALL.len()],
}

/// Why the flusher started a device sync when it did (see the flusher's
/// module docs, "When a sync starts").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncCause {
    /// Somebody waited for the bytes — or a quarter of the ring had
    /// filled up — and nothing was in flight.
    Idle,
    /// A settled demand ([`LogManager::demand_flush`]) with syncs in
    /// flight and at least two slots free.
    Demand,
    /// Somebody waited, syncs were in flight, and the stagger clock came
    /// due.
    Clock,
    /// Nobody waited: the unforced tail of an idle log, drained by the
    /// [`LogConfig::flush_interval`] timer — or, if it had sat out the
    /// syncs in flight, the moment the last of them completed.
    Timer,
}

impl SyncCause {
    pub const ALL: [SyncCause; 4] =
        [SyncCause::Idle, SyncCause::Demand, SyncCause::Clock, SyncCause::Timer];

    /// The `cause` label of `ermia_log_sync_starts_total`.
    pub fn label(self) -> &'static str {
        match self {
            SyncCause::Idle => "idle",
            SyncCause::Demand => "demand",
            SyncCause::Clock => "clock",
            SyncCause::Timer => "timer",
        }
    }
}

impl LogStats {
    /// Syncs started for `cause`, ever.
    pub fn sync_starts(&self, cause: SyncCause) -> u64 {
        self.sync_starts[cause as usize].load(Ordering::Relaxed)
    }
}

/// The cell behind a [`DurableWaker`]: what the waiter registry holds and
/// the flusher wakes.
#[derive(Default)]
pub(crate) struct WaiterSlot {
    /// `true` once a flusher batch (or poison) decided this waiter's fate
    /// and notified it. Written under the lock so the wake cannot be missed.
    woken: Mutex<bool>,
    cv: Condvar,
}

impl WaiterSlot {
    fn wake(&self) {
        *self.woken.lock().unwrap() = true;
        self.cv.notify_one();
    }
}

/// The wake-up cell of a thread that waits on *several* things at once —
/// durability targets on more than one log ([`LogManager::subscribe_durable`]),
/// work handed over by another thread ([`DurableWaker::wake`]), a deadline
/// — where [`LogManager::wait_durable`] can block on only one. The wake
/// is a level, not an edge: one that arrives before [`DurableWaker::wait`]
/// is consumed by it, so "check state, then wait" loses nothing.
#[derive(Clone, Default)]
pub struct DurableWaker(Arc<WaiterSlot>);

impl DurableWaker {
    /// Wake the waiting thread (or make its next wait return at once).
    pub fn wake(&self) {
        self.0.wake();
    }

    /// Sleep until woken or until `timeout` passes (`None`: no limit),
    /// consuming the wake.
    pub fn wait(&self, timeout: Option<Duration>) {
        let mut woken = self.0.woken.lock().unwrap();
        if !*woken {
            woken = match timeout {
                Some(t) => self.0.cv.wait_timeout(woken, t).unwrap().0,
                None => self.0.cv.wait(woken).unwrap(),
            };
        }
        *woken = false;
    }
}

/// A live [`LogManager::subscribe_durable`] registration; dropping it
/// cancels the subscription (a no-op once the flusher has fired it).
pub struct DurableSub {
    inner: Arc<LogInner>,
    key: (u64, u64),
}

impl Drop for DurableSub {
    fn drop(&mut self) {
        self.inner.deregister_waiter(self.key);
    }
}

thread_local! {
    /// Reused wake-up cell: a blocking durability wait is allocation-free
    /// after a thread's first synchronous commit.
    static WAITER: DurableWaker = DurableWaker::default();
}

/// Registry of parked durability waiters, min-ordered by target offset.
///
/// The map key pairs the target with a unique sequence number so multiple
/// waiters on the same offset coexist. The lowest target is mirrored into
/// [`RingBuffer::set_demand`] whenever the front of the map changes, which
/// is what lets a fill wake the flusher the instant a waiter's block is
/// completely in the buffer.
#[derive(Default)]
pub(crate) struct WaiterRegistry {
    map: Mutex<std::collections::BTreeMap<(u64, u64), Arc<WaiterSlot>>>,
    seq: AtomicU64,
}

pub(crate) struct LogInner {
    pub(crate) cfg: LogConfig,
    pub(crate) segments: SegmentTable,
    /// The ring, and with it the single global allocation point: the
    /// logical LSN offset ([`RingBuffer::reserve`]).
    pub(crate) buffer: RingBuffer,
    /// Offset up to which the log is durable (flusher-owned).
    pub(crate) durable: AtomicU64,
    pub(crate) waiters: WaiterRegistry,
    pub(crate) stats: LogStats,
    pub(crate) stop: AtomicBool,
    /// Set by the flusher when it dies on an unrecoverable I/O error.
    pub(crate) poisoned: AtomicBool,
    pub(crate) poison_cause: Mutex<Option<LogError>>,
    /// Reservations currently alive (claimed but not yet dropped). The
    /// resume path drains this to zero — while `poisoned` is still up —
    /// before it rewrites the allocation frontier: any allocator either
    /// observed the poison (and never touched `next`) or joined this set
    /// first, so an empty set with the poison flag raised freezes `next`.
    pub(crate) outstanding: AtomicU64,
    /// Invoked once per poisoning: by the flusher at the moment the log
    /// poisons, or by [`LogManager::set_poison_hook`] on a log that
    /// poisoned before the hook was there. The database layer hooks its
    /// transition to degraded read-only mode here.
    pub(crate) poison_hook: Mutex<PoisonHook>,
    /// Offset ranges `(lo, hi]` a degraded-mode resume overwrote with
    /// on-disk skip blocks. Durability targets inside them can never be
    /// honored even though the watermark has moved past them.
    pub(crate) resume_gaps: Mutex<Vec<(u64, u64)>>,
    /// Highest `hi` of any resume gap (0 = none): one load keeps the
    /// common `wait_durable` path off the gap lock entirely.
    pub(crate) resume_gap_hi: AtomicU64,
    /// Told the latency of every completed device sync, on the flusher
    /// thread ([`LogManager::set_sync_observer`]).
    pub(crate) sync_observer: OnceLock<Box<dyn Fn(u64) + Send + Sync>>,
}

/// The poison hook and whether it has run for the current poisoning;
/// both are read and written under one mutex, so the flusher and an
/// installer never both run it.
#[derive(Default)]
pub(crate) struct PoisonHook {
    hook: Option<Box<dyn Fn() + Send + Sync>>,
    ran: bool,
}

impl PoisonHook {
    /// Run the hook unless it has run for this poisoning (or is missing).
    pub(crate) fn fire(&mut self) {
        if let (Some(hook), false) = (&self.hook, self.ran) {
            hook();
            self.ran = true;
        }
    }
}

impl LogInner {
    /// Register `slot` as waiting for the durable watermark to reach
    /// `target`; returns the registration key for deregistration.
    /// Republishes the lowest demand.
    fn register_waiter(&self, target: u64, slot: &Arc<WaiterSlot>) -> (u64, u64) {
        let key = (target, self.waiters.seq.fetch_add(1, Ordering::Relaxed));
        let mut map = self.waiters.map.lock().unwrap();
        map.insert(key, Arc::clone(slot));
        let lowest = map.first_key_value().map(|(k, _)| k.0).unwrap_or(u64::MAX);
        self.buffer.set_demand(lowest);
        self.buffer.note_target(target);
        key
    }

    /// Remove a registration (timeout / poison / fast-path exit). The
    /// flusher may already have popped it — that is fine.
    fn deregister_waiter(&self, key: (u64, u64)) {
        let mut map = self.waiters.map.lock().unwrap();
        map.remove(&key);
        let lowest = map.first_key_value().map(|(k, _)| k.0).unwrap_or(u64::MAX);
        self.buffer.set_demand(lowest);
    }

    /// Flusher side: pop every waiter whose target the new durable
    /// watermark covers and wake exactly those (no thundering herd).
    /// `ready` is the flusher's scratch list, left empty.
    pub(crate) fn notify_durable(&self, durable: u64, ready: &mut Vec<Arc<WaiterSlot>>) {
        {
            let mut map = self.waiters.map.lock().unwrap();
            while let Some((&key, _)) = map.first_key_value() {
                if key.0 > durable {
                    break;
                }
                ready.push(map.remove(&key).expect("checked front"));
            }
            let lowest = map.first_key_value().map(|(k, _)| k.0).unwrap_or(u64::MAX);
            self.buffer.set_demand(lowest);
        }
        // A subscriber with several targets in this batch appears once
        // per target, in a row when it is the only one: one wake each.
        let mut last: Option<&Arc<WaiterSlot>> = None;
        for slot in ready.iter() {
            if !last.is_some_and(|l| Arc::ptr_eq(l, slot)) {
                slot.wake();
            }
            last = Some(slot);
        }
        ready.clear();
    }

    /// Poison side: wake *every* parked waiter so it can observe the
    /// terminal error instead of sleeping to its deadline.
    pub(crate) fn notify_all_waiters(&self) {
        let all: Vec<Arc<WaiterSlot>> = {
            let mut map = self.waiters.map.lock().unwrap();
            self.buffer.set_demand(u64::MAX);
            let drained = std::mem::take(&mut *map);
            drained.into_values().collect()
        };
        for slot in all {
            slot.wake();
        }
    }
}

/// The scalable centralized log manager (§3.3).
///
/// A transaction with a reasonably small write footprint acquires a
/// totally-ordered commit timestamp *and* reserves all needed log space
/// with a single global atomic `fetch_add` ([`LogManager::allocate`]).
pub struct LogManager {
    inner: Arc<LogInner>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    catalog_at_open: Vec<DdlRecord>,
    tail_at_open: u64,
}

impl LogManager {
    /// Open (or create) a log under `cfg`. If the directory already holds
    /// segment files, the segment table is reconstructed from their names
    /// and allocation resumes after the existing tail.
    pub fn open(cfg: LogConfig) -> io::Result<LogManager> {
        assert_eq!(cfg.segment_size % MIN_BLOCK_LEN as u64, 0, "segment size must be 32-aligned");
        assert_eq!(cfg.buffer_size % MIN_BLOCK_LEN as u64, 0, "buffer size must be 32-aligned");
        assert!(cfg.buffer_size >= 4096, "log buffer too small");
        let backend = Arc::clone(&cfg.io_factory);
        let (size, fsync) = (cfg.segment_size, cfg.fsync);
        let mut catalog = Vec::new();
        let (segments, start) = match &cfg.dir {
            Some(dir) => {
                create_dirs(&*backend, dir, fsync)?;
                match SegmentTable::reopen(dir, Arc::clone(&backend), size, fsync)? {
                    Some(table) => {
                        let tail;
                        (tail, catalog) = crate::recovery::find_tail(&table)?;
                        (table, tail)
                    }
                    None => (SegmentTable::create(Some(dir), backend, size, 0, fsync)?, 0),
                }
            }
            None => (SegmentTable::create(None, backend, size, 0, fsync)?, 0),
        };
        let inner = Arc::new(LogInner {
            buffer: RingBuffer::new(cfg.buffer_size, start),
            segments,
            durable: AtomicU64::new(start),
            waiters: WaiterRegistry::default(),
            stats: LogStats::default(),
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            poison_cause: Mutex::new(None),
            outstanding: AtomicU64::new(0),
            poison_hook: Mutex::default(),
            resume_gaps: Mutex::new(Vec::new()),
            resume_gap_hi: AtomicU64::new(0),
            sync_observer: OnceLock::new(),
            cfg,
        });
        let flusher = flusher::spawn(Arc::clone(&inner));
        let flusher = Mutex::new(Some(flusher));
        let mgr = LogManager { inner, flusher, catalog_at_open: catalog, tail_at_open: start };
        if start == 0 {
            // Burn offset 0 with a skip block: LSN 0 stays the "null"
            // sentinel (begin stamps, SSN η initialization) and never
            // names a real commit.
            mgr.allocate(MIN_BLOCK_LEN)?.fill_skip();
        }
        Ok(mgr)
    }

    /// The catalog the log held when it was opened — one entry per index
    /// id, in id order, as its last copy in the log has it: what the
    /// open-time walk that finds the tail passed on its way.
    pub fn catalog_at_open(&self) -> &[DdlRecord] {
        &self.catalog_at_open
    }

    /// The tail the open-time walk found: it checksummed every block below
    /// this offset, so a recovery scan of them need not again
    /// ([`crate::LogScanner::trusting`]).
    pub fn tail_at_open(&self) -> u64 {
        self.tail_at_open
    }

    /// Current tail of the LSN space, used as a begin timestamp: every
    /// commit stamp allocated after this call compares greater.
    #[inline]
    pub fn tail_lsn(&self) -> Lsn {
        Lsn::from_parts(self.inner.buffer.frontier(), 0)
    }

    /// Reserve `len` bytes of log space and acquire the corresponding
    /// totally-ordered LSN. One `fetch_add` in the common case; corner
    /// cases (segment full, between segments, buffer full) are handled
    /// exactly as §3.3 describes. A block longer than the ring or a
    /// segment can never be placed: it is refused (`InvalidInput`) before
    /// it claims any log space.
    pub fn allocate(&self, len: usize) -> io::Result<Reservation<'_>> {
        let inner = &*self.inner;
        let len = (len.max(BLOCK_HEADER_LEN)).div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN;
        let len64 = len as u64;
        let room = inner.cfg.segment_size.min(inner.cfg.buffer_size);
        if len64 > room {
            let msg = format!("a {len}-byte block exceeds the log's {room}-byte ring or segment");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        // Join the outstanding set *before* checking for poison: resume
        // drains the set to zero while the poison flag is still raised, so
        // every allocator that touches `next` either saw a healthy log or
        // finished before resume rewrote the frontier (see `resume`). The
        // guard's drop covers every early exit; the success path forgets
        // it and hands the decrement to `Reservation::drop`.
        struct Outstanding<'g>(&'g LogInner);
        impl Drop for Outstanding<'_> {
            fn drop(&mut self) {
                self.0.outstanding.fetch_sub(1, Ordering::AcqRel);
            }
        }
        inner.outstanding.fetch_add(1, Ordering::AcqRel);
        let guard = Outstanding(inner);
        if inner.poisoned.load(Ordering::Acquire) {
            return Err(poisoned_error(inner));
        }
        inner.stats.allocations.fetch_add(1, Ordering::Relaxed);
        loop {
            let off = inner.buffer.reserve(len64);
            let seg = inner.segments.current();
            if seg.contains(off, len64) {
                // Common case: the claimed block lies in the open segment.
                if !inner.buffer.wait_for_space(off + len64) {
                    // The flusher died while we waited; the claimed range
                    // will never reach disk. Leave it unfilled — nothing
                    // will ever drain past the poison point anyway.
                    return Err(poisoned_error(inner));
                }
                std::mem::forget(guard);
                return Ok(Reservation {
                    mgr: self,
                    lsn: seg.lsn(off),
                    offset: off,
                    len,
                    filled: false,
                });
            }
            if off >= seg.start && off < seg.end {
                // Our block straddles the end of the segment: it cannot be
                // used; write a skip record to "close" the segment, then
                // compete to open the next one.
                self.write_skip(off, seg.end - off);
                let new_start = inner.buffer.frontier().max(seg.end);
                inner.segments.open_next(seg.index, new_start)?;
                inner.stats.rotations.fetch_add(1, Ordering::Relaxed);
                // The remainder of our claim lies beyond the old segment;
                // retire it now that the rotation is visible.
                self.retire_range(seg.end, off + len64 - seg.end);
                continue;
            }
            if off >= seg.end {
                // Between segments: compete to open the next segment;
                // blocks preceding the winner's start do not correspond to
                // a valid location on disk and must be discarded.
                let new_start = inner.buffer.frontier().max(seg.end);
                inner.segments.open_next(seg.index, new_start)?;
                inner.stats.rotations.fetch_add(1, Ordering::Relaxed);
            }
            // `off < seg.start` (stale claim) or post-rotation loser:
            // retire the whole claim and retry.
            self.retire_range(off, len64);
        }
    }

    /// Write a skip block at `off` covering `pad` bytes of one segment.
    fn write_skip(&self, off: u64, pad: u64) {
        debug_assert!(pad >= BLOCK_HEADER_LEN as u64 && pad.is_multiple_of(MIN_BLOCK_LEN as u64));
        debug_assert!(pad <= self.inner.cfg.buffer_size, "skip pad exceeds the ring");
        let inner = &*self.inner;
        // The *whole* pad is one fill, so the whole pad must lie inside
        // the space window first: a fill over bytes of the previous lap
        // the flusher has not drained would overwrite them (see the ring
        // invariant in `buffer.rs`). Reservation skips have
        // already waited in `allocate`, making this a single atomic load;
        // rotation losers genuinely block here until the flusher catches
        // up. No deadlock: a blocked range needs `flushed` to reach only
        // offsets below its own start, which are owned by earlier,
        // independently completable claims.
        if !inner.buffer.wait_for_space(off + pad) {
            // Poisoned: the skip record can never reach disk, and recovery
            // treats the unfilled range as the first hole. Nothing to do.
            return;
        }
        // Header and padding are one fill, published with one store: the
        // filled — and hence durable — watermark can never freeze between
        // a skip header and its padding.
        inner.buffer.mark_filled(off, pad);
        inner.stats.skip_blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Retire a claimed range that will never carry a transaction block:
    /// subranges that map to a real segment get skip records (so recovery
    /// can hop over them); subranges in dead zones are published without
    /// content — they map to no location on disk and are never referenced.
    fn retire_range(&self, mut off: u64, len: u64) {
        let inner = &*self.inner;
        // Every retired range derives from a single claim, so it (and
        // every chunk below) fits the ring — `allocate` rejects larger
        // blocks up front. The per-chunk space waits therefore always
        // name a reachable window.
        debug_assert!(len <= inner.cfg.buffer_size, "retired range exceeds the ring");
        let end = off + len;
        while off < end {
            match inner.segments.lookup(off) {
                Some(seg) => {
                    let stop = end.min(seg.end);
                    self.write_skip(off, stop - off);
                    off = stop;
                }
                None => {
                    let next_start =
                        inner.segments.next_start_after(off).map_or(end, |s| s.min(end));
                    // A dead zone is one fill, with a header of its own:
                    // it waits for space as a skip does (`write_skip`).
                    if !inner.buffer.wait_for_space(next_start) {
                        // Poisoned: nothing drains past the poison point,
                        // so publishing the dead zone is moot.
                        return;
                    }
                    inner.stats.dead_zone_bytes.fetch_add(next_start - off, Ordering::Relaxed);
                    inner.buffer.mark_filled(off, next_start - off);
                    off = next_start;
                }
            }
        }
    }

    /// The durable watermark: all log bytes below this logical offset
    /// have been handed to stable storage.
    #[inline]
    pub fn durable_offset(&self) -> u64 {
        self.inner.durable.load(Ordering::Acquire)
    }

    /// Block until the block ending at logical offset `end` is durable
    /// (group commit), up to [`LogConfig::wait_durable_timeout`] — the
    /// one patience: there is no wait with a bound of its own.
    ///
    /// Demand-driven ([`Self::subscribe_durable`] on this thread's own
    /// wake-up cell): the flusher sees the target at once, and the waiter
    /// is woken by the flush batch whose durable watermark covers it, or
    /// by poison.
    ///
    /// Fails with [`LogError::Poisoned`] when the flusher has died on an
    /// unrecoverable I/O error (all pending waiters are woken immediately
    /// when that happens) and [`LogError::Timeout`] if the watermark does
    /// not reach `end` in time.
    pub fn wait_durable(&self, end: u64) -> Result<(), LogError> {
        let deadline = std::time::Instant::now() + self.inner.cfg.wait_durable_timeout;
        let waker = WAITER.with(DurableWaker::clone);
        // A wake left over from this thread's previous wait costs one
        // turn of the loop.
        let _sub = self.subscribe_durable(end, &waker);
        loop {
            // The clock first: a poison that lands before the probe below
            // must win over `Timeout`, which claims the commit's fate is
            // indeterminate — a poisoned log has settled it.
            let now = std::time::Instant::now();
            if self.durable_status(end)? {
                return Ok(());
            }
            if now >= deadline {
                return Err(LogError::Timeout);
            }
            waker.wait(Some(deadline - now));
        }
    }

    /// Non-blocking probe of one durability target: `Ok(true)` once the
    /// block ending at `end` is durable, `Ok(false)` while it is in
    /// flight, [`LogError::Poisoned`] when it can never become durable.
    pub fn durable_status(&self, end: u64) -> Result<bool, LogError> {
        // Targets inside a resume gap were overwritten with skip blocks:
        // the watermark has moved past them, but the commit bytes are
        // gone for good — reporting `Ok(true)` here would acknowledge a
        // commit that can never be recovered.
        if self.lost_to_resume_gap(end) {
            return Err(LogError::Poisoned {
                kind: std::io::ErrorKind::Other,
                detail: "commit block was discarded by a degraded-mode resume; \
                         it never became durable"
                    .into(),
            });
        }
        if self.durable_offset() >= end {
            return Ok(true);
        }
        if self.inner.poisoned.load(Ordering::Acquire) {
            return Err(self.poison_cause_or_default());
        }
        Ok(false)
    }

    /// The non-blocking half of [`Self::wait_durable`]: register `waker`
    /// in the waiter registry, so the flusher sees the demand at once and
    /// wakes it when the durable watermark covers `end` — or when the log
    /// poisons. One waker may subscribe on any number of logs and
    /// targets; after a wake its owner reads each verdict with
    /// [`Self::durable_status`]. `None` means there is nothing to wait
    /// for (already durable, or never will be): probe instead.
    pub fn subscribe_durable(&self, end: u64, waker: &DurableWaker) -> Option<DurableSub> {
        let inner = &self.inner;
        if !matches!(self.durable_status(end), Ok(false)) {
            return None;
        }
        let sub =
            DurableSub { inner: Arc::clone(inner), key: inner.register_waiter(end, &waker.0) };
        // Ordering handshake: the flusher stores `durable` *before* it
        // locks the registry to pop ready waiters, so a batch (or a
        // poisoning) that completed while we registered is caught by the
        // re-check — either we see it here, or the flusher saw our
        // registration and will wake us. Likewise the fill covering our
        // target may have happened before our demand was published; the
        // flusher gets its kick from us then.
        if inner.durable.load(Ordering::Acquire) >= end || inner.poisoned.load(Ordering::Acquire) {
            return None;
        }
        inner.buffer.kick_if_unwritten(end);
        Some(sub)
    }

    /// A *settled* flush demand for the block ending at `end` and
    /// everything below it. The caller's contract: everything it will
    /// fill before it next waits is filled — an event loop at the end of
    /// a turn, say, with every frame it read executed. The flusher then
    /// has nothing to gain by holding the bytes back for a larger batch:
    /// with nothing in flight it starts their sync at once (as any
    /// demand does), and with syncs in flight it starts one over the
    /// whole filled prefix now, where a plain demand waits for the
    /// stagger clock — as long as two sync slots are free; the last one
    /// stays on the clock (see the flusher's module docs).
    ///
    /// It neither blocks nor registers anything: whoever wants to hear
    /// of the outcome subscribes ([`Self::subscribe_durable`]) or probes
    /// ([`Self::durable_status`]). A waiter that blocks instead —
    /// [`Self::wait_durable`] with patience, a synchronous
    /// `Transaction::commit` — makes no such promise on behalf of the
    /// other committers and keeps the clock-paced behaviour.
    pub fn demand_flush(&self, end: u64) {
        self.inner.buffer.urge(end);
    }

    /// Durability waiters ever registered (blocking waits, zero-patience
    /// probes and subscriptions alike): a test seam for "this path costs
    /// no registry round trip".
    #[doc(hidden)]
    pub fn waiter_registrations(&self) -> u64 {
        self.inner.waiters.seq.load(Ordering::Relaxed)
    }

    /// True once the log has entered the terminal poisoned state.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Acquire)
    }

    /// The error that poisoned the log, if it is poisoned.
    pub fn poison_cause(&self) -> Option<LogError> {
        self.inner.poison_cause.lock().unwrap().clone()
    }

    fn poison_cause_or_default(&self) -> LogError {
        self.poison_cause().unwrap_or(LogError::Poisoned {
            kind: std::io::ErrorKind::Other,
            detail: "log poisoned".into(),
        })
    }

    /// True when `end` falls inside a range a degraded-mode resume
    /// overwrote with on-disk skip blocks: those commit bytes are gone
    /// even though the durable watermark has moved past them.
    fn lost_to_resume_gap(&self, end: u64) -> bool {
        let inner = &*self.inner;
        if end > inner.resume_gap_hi.load(Ordering::Acquire) {
            return false;
        }
        inner.resume_gaps.lock().unwrap().iter().any(|&(lo, hi)| end > lo && end <= hi)
    }

    /// Register a callback invoked exactly once per poisoning: from the
    /// flusher thread at the moment the log poisons, or — when the log
    /// poisoned before this call, say on the block `open` burns at offset
    /// 0 — from this call. The database layer hooks its transition to
    /// degraded read-only mode here.
    pub fn set_poison_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        let mut slot = self.inner.poison_hook.lock().unwrap();
        slot.hook = Some(Box::new(hook));
        // `poison` raises the flag before it takes this lock: whichever of
        // the two takes it second sees the other's half.
        if self.inner.poisoned.load(Ordering::Acquire) {
            slot.fire();
        }
    }

    /// Register the callback told how long each device sync took, in
    /// nanoseconds — the measurement the flusher paces overlapped syncs
    /// by. It runs on the flusher thread, once per completed sync, in
    /// issue order. Only the first registration counts.
    pub fn set_sync_observer(&self, observer: impl Fn(u64) + Send + Sync + 'static) {
        let _ = self.inner.sync_observer.set(Box::new(observer));
    }

    /// Set the poison flag and cause *without* waking any waiter or
    /// stopping the ring — a test seam for racing durability timeouts
    /// against a concurrent poisoning.
    #[doc(hidden)]
    pub fn poison_quietly_for_test(&self, cause: LogError) {
        *self.inner.poison_cause.lock().unwrap() = Some(cause);
        self.inner.poisoned.store(true, Ordering::Release);
    }

    /// Attempt to bring a poisoned log back into service without a
    /// process restart — the operator-triggered half of degraded
    /// read-only mode. No-op on a healthy log.
    ///
    /// The poisoned flusher froze the durable watermark at some offset
    /// `D` — the end of the in-order completed prefix of its syncs —
    /// while the allocation frontier `next` kept (briefly) moving; the
    /// range `[D, next)` holds blocks that were never acknowledged and
    /// must never be reported durable, whether they never reached disk
    /// or were written, even synced, behind a sync that failed. Resume:
    ///
    /// 1. reaps the dead flusher thread, which does not exit before
    ///    every sync it had in flight has returned and every helper
    ///    thread is joined — nothing of the old incarnation touches the
    ///    files from here on;
    /// 2. quiesces: waits for the outstanding-reservation set to drain
    ///    while the poison flag is still up, which freezes `next` (any
    ///    new allocator observes the poison before touching it);
    /// 3. overwrites `[D, next)` on disk with skip blocks and fsyncs the
    ///    touched segments — the fsync doubles as the backend re-probe:
    ///    if storage is still broken the error is returned and the log
    ///    stays poisoned, so resume is safely retryable;
    /// 4. records `(D, next]` as a *resume gap*: durability waits on
    ///    targets inside it keep failing with [`LogError::Poisoned`]
    ///    rather than being absorbed by the advanced watermark;
    /// 5. resets the watermarks and ring to `next`, clears the poison
    ///    state, and re-arms a fresh flusher. The poison flag falls
    ///    last, so nobody allocates into a half-reset log.
    ///
    /// Commits in the gap were never acknowledged (their waiters got
    /// `Poisoned` or `Timeout`), so discarding them cannot violate the
    /// durability contract; their in-memory effects survive until the
    /// next restart, which is the documented indeterminacy of
    /// unacknowledged commits.
    pub fn resume(&self) -> io::Result<()> {
        let inner = &*self.inner;
        // Holding the flusher handle lock for the whole walk serializes
        // concurrent resumes.
        let mut flusher = self.flusher.lock().unwrap();
        if !inner.poisoned.load(Ordering::Acquire) {
            return Ok(());
        }
        if let Some(handle) = flusher.take() {
            let _ = handle.join();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while inner.outstanding.load(Ordering::Acquire) != 0 {
            if std::time::Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "log resume: outstanding reservations did not drain",
                ));
            }
            std::thread::yield_now();
        }
        let durable = inner.durable.load(Ordering::Acquire);
        let next = inner.buffer.frontier();
        self.write_gap_skips(durable, next)?;
        if next > durable {
            let mut gaps = inner.resume_gaps.lock().unwrap();
            gaps.push((durable, next));
            let hi = gaps.iter().map(|&(_, hi)| hi).max().unwrap_or(0);
            inner.resume_gap_hi.store(hi, Ordering::Release);
        }
        inner.durable.store(next, Ordering::Release);
        inner.buffer.reset(next);
        *inner.poison_cause.lock().unwrap() = None;
        inner.poison_hook.lock().unwrap().ran = false;
        inner.stats.log_poisoned.store(0, Ordering::Release);
        inner.stop.store(false, Ordering::Release);
        *flusher = Some(flusher::spawn(Arc::clone(&self.inner)));
        inner.poisoned.store(false, Ordering::Release);
        Ok(())
    }

    /// Overwrite `[lo, hi)` on disk with one skip block per contiguous
    /// segment chunk (dead zones map to no storage and need nothing),
    /// then fsync every touched segment. Even when the range is empty
    /// the current segment is synced, as a storage health probe.
    fn write_gap_skips(&self, lo: u64, hi: u64) -> io::Result<()> {
        let inner = &*self.inner;
        let mut off = lo;
        let mut touched: Vec<Arc<Segment>> = Vec::new();
        while off < hi {
            match inner.segments.lookup(off) {
                Some(seg) => {
                    // A skip block's length field is u32: split giant
                    // chunks (only reachable with multi-GB segments).
                    let stop = hi.min(seg.end).min(off + (1u64 << 30));
                    if let Some(io) = &seg.io {
                        let header = LogBlockHeader {
                            kind: BlockKind::Skip,
                            nrec: 0,
                            len: (stop - off) as u32,
                            checksum: 0,
                            cstamp: seg.lsn(off),
                            prev: off | 1,
                        };
                        let mut buf = [0u8; BLOCK_HEADER_LEN];
                        header.encode_into(&mut buf);
                        io.write_all_at(&buf, seg.file_pos(off))?;
                        touched.push(Arc::clone(&seg));
                    }
                    off = stop;
                }
                None => {
                    off = inner.segments.next_start_after(off).map_or(hi, |s| s.min(hi));
                }
            }
        }
        if touched.is_empty() {
            let seg = inner.segments.current();
            if seg.io.is_some() {
                touched.push(seg);
            }
        }
        touched.dedup_by_key(|s| s.index);
        for seg in &touched {
            if let Some(io) = &seg.io {
                io.sync_data()?;
            }
        }
        Ok(())
    }

    /// Access the segment table (recovery, tests).
    pub fn segments(&self) -> &SegmentTable {
        &self.inner.segments
    }

    pub fn stats(&self) -> &LogStats {
        &self.inner.stats
    }

    /// Logical offset of the allocation tip (one past the last claimed
    /// byte). `next_offset() - durable_offset()` is the durable-LSN lag.
    #[inline]
    pub fn next_offset(&self) -> u64 {
        self.inner.buffer.frontier()
    }

    /// Bytes sitting in the ring buffer between the flushed and filled
    /// watermarks — how much contiguous work the flusher has pending.
    #[inline]
    pub fn ring_occupancy(&self) -> u64 {
        // Measured against the durable watermark: the ring's own space
        // watermark may trail it by up to a release chunk.
        self.inner.buffer.filled().saturating_sub(self.durable_offset())
    }

    /// Filled bytes above the ring's space watermark: what of the ring
    /// the flusher has not handed back to the operating system, and so
    /// can be resident (see `flusher.rs`, "Resident size of the ring").
    #[inline]
    pub fn ring_unreleased(&self) -> u64 {
        self.inner.buffer.filled().saturating_sub(self.inner.buffer.flushed())
    }

    /// Ring buffer capacity in bytes.
    #[inline]
    pub fn ring_capacity(&self) -> u64 {
        self.inner.buffer.capacity()
    }

    /// Cumulative count of reservations that blocked waiting for ring
    /// space (the log back-pressure signal).
    #[inline]
    pub fn ring_space_waits(&self) -> u64 {
        self.inner.buffer.space_waits()
    }

    pub fn config(&self) -> &LogConfig {
        &self.inner.cfg
    }

    /// Translate an LSN to its segment and file position, per Fig. 4(a).
    /// Returns `None` for LSNs in dead zones or with a stale/mismatched
    /// segment number ("invalid, too old").
    pub fn lsn_to_file(&self, lsn: Lsn) -> Option<(Arc<Segment>, u64)> {
        let seg = self.inner.segments.lookup(lsn.offset())?;
        if seg.segno() != lsn.segment() {
            return None;
        }
        let pos = seg.file_pos(lsn.offset());
        Some((seg, pos))
    }

    /// Flush everything currently filled and wait until durable.
    pub fn sync(&self) -> Result<(), LogError> {
        // `scan_tip` includes fills that are published in the ring but
        // not yet folded into the flusher-owned watermark.
        let target = self.inner.buffer.scan_tip();
        self.wait_durable(target)
    }

    /// Stop and join the flusher thread without touching the rest of the
    /// log state. Like `Drop`, it returns only after everything filled
    /// so far is written and every sync that covers it is published.
    /// Test hook: lets durability waits run against a log whose flusher
    /// is gone (they must time out, not hang).
    #[doc(hidden)]
    pub fn halt_flusher_for_test(&self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(handle) = self.flusher.lock().unwrap().take() {
            let _ = handle.join();
        }
        self.inner.stop.store(false, Ordering::Release);
    }

    /// Truncate the log: retire every segment entirely below `offset`
    /// (typically a durable checkpoint's begin offset — "the log can be
    /// truncated at the first hole without losing any committed work",
    /// §2). Only durable prefixes may be truncated.
    pub fn truncate_before(&self, offset: u64) -> io::Result<usize> {
        let durable = self.durable_offset();
        let bound = offset.min(durable);
        self.inner.segments.retire_below(bound)
    }
}

/// The `io::Error` surfaced by [`LogManager::allocate`] on a poisoned log.
fn poisoned_error(inner: &LogInner) -> io::Error {
    let detail = match &*inner.poison_cause.lock().unwrap() {
        Some(cause) => cause.to_string(),
        None => "log poisoned".to_string(),
    };
    io::Error::other(detail)
}

impl Drop for LogManager {
    /// Stops the flusher, which first drains what is filled, waits for
    /// every sync in flight, publishes them and joins its helpers.
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(handle) = self.flusher.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

/// A claimed block of log space: the commit LSN plus the right to fill
/// the corresponding ring-buffer bytes exactly once.
///
/// Dropping an unfilled reservation writes a skip record — the abort
/// path "simply writes a skip record" (§3.3).
pub struct Reservation<'a> {
    mgr: &'a LogManager,
    lsn: Lsn,
    offset: u64,
    len: usize,
    filled: bool,
}

impl Reservation<'_> {
    /// The totally-ordered LSN this reservation fixed — the commit
    /// timestamp.
    #[inline]
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// Logical offset one past this block (pass to
    /// [`LogManager::wait_durable`] for synchronous commit).
    #[inline]
    pub fn end_offset(&self) -> u64 {
        self.offset + self.len as u64
    }

    /// Reserved length in bytes (already rounded to block granularity).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy the serialized block into the centralized buffer. `block`
    /// must be exactly the reserved length.
    pub fn fill(mut self, block: &[u8]) {
        assert_eq!(block.len(), self.len, "block length must match reservation");
        self.mgr.inner.buffer.write(self.offset, block);
        self.filled = true;
    }

    /// Encode the block in place: `records` appends the payload to a
    /// [`BlockEncoder`] over the reserved ring bytes (both pieces when
    /// the reservation wraps the ring), and the block is closed as
    /// `kind`, stamped with this reservation's LSN. The payload must fit
    /// the reserved length; the rest is zeroed.
    pub fn encode(mut self, kind: BlockKind, records: impl FnOnce(&mut BlockEncoder<'_>)) {
        let lsn = self.lsn;
        self.mgr.inner.buffer.fill_with(self.offset, self.len as u64, |head, tail| {
            let mut enc = BlockEncoder::block(head, tail);
            records(&mut enc);
            enc.finish(kind, lsn);
        });
        self.filled = true;
    }

    /// Abort path: turn the whole reservation into a skip record.
    pub fn fill_skip(mut self) {
        self.do_skip();
        self.filled = true;
    }

    fn do_skip(&self) {
        self.mgr.write_skip(self.offset, self.len as u64);
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if !self.filled {
            self.do_skip();
        }
        // Leave the outstanding set only after the skip (or fill) is in
        // the ring: resume must never observe zero while a publication is
        // still in flight.
        self.mgr.inner.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}
