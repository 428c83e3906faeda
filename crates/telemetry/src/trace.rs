//! The one telemetry record: wait-free per-writer rings of [`Span`]s,
//! wire-propagated trace context, tail-based slow-op capture, and the
//! one text dump and Chrome `trace_event` exporter.
//!
//! A *span* is one timed step — frame decode, a transaction's begin,
//! reads and writes, the group-commit durability wait, each 2PC
//! prepare/decide leg, a replica's ship/apply rounds. A flight event (a
//! commit, an abort, a log stall, a GC pass) is a span of zero length. A
//! record made inside a traced operation carries its 128-bit trace id
//! and its parent span id, so the steps of one logical operation can be
//! stitched back together across connections, shards and the replication
//! stream; anything else has trace `(0, 0)` and parent 0.
//!
//! ## Write side
//!
//! Records land in [`SpanRing`]s — the seqlock ring of [`crate::ring`],
//! nine words a slot. Writers never allocate (after a lane's first
//! record), never lock, never wait. Each ring is single-writer (one per
//! worker / shard thread / parker); a reader racing a lap sees a torn
//! slot and skips it.
//!
//! ## Two classes, two lanes
//!
//! A traced record is *sampled*: one request in N, or one a client asked
//! for. Every other record is *always on*. The two must not evict each
//! other — a burst of commits would otherwise lap the spans of the one
//! traced request a dump is fetched for — so a ring keeps one lane per
//! class, each allocated on the first record of its class, and a dump
//! cuts each class to its own bound.
//!
//! ## Sampling and retention
//!
//! Tracing is *off by default*: an untraced operation costs one
//! `Option` branch beyond its always-on records. Context arrives two
//! ways:
//!
//! * **head-based** — a client sends a `TraceContext` on the wire, or
//!   `DbConfig::trace_sample_n = N` makes the engine trace every Nth
//!   transaction it begins;
//! * **tail-based** — a traced operation whose total latency crosses
//!   the slow threshold is *retained*: its spans are swept out of the
//!   (otherwise wrapping) rings into the worst-K slow-op log, the
//!   tracing analog of the dump a log stall stores
//!   ([`Tracer::store_last_dump`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ermia_common::rng::{SplitMix64, GAMMA};

use crate::ring::{kinds, RingSet, SeqRing};

/// Slots of a ring's sampled lane, and of its always-on lane.
pub(crate) const SAMPLED_LANE_CAP: usize = 1024;
pub(crate) const ALWAYS_LANE_CAP: usize = 512;

/// Spans retained per slow op, and slow ops retained in the worst-K log.
pub const SLOW_OP_SPAN_CAP: usize = 64;
pub const SLOW_OP_LOG_CAP: usize = 16;

/// The propagated identity of one traced operation: a 128-bit trace id
/// (split into two words for lock-free slot storage) plus the span id
/// of the sender's enclosing span. `(0, 0)` is reserved: it means
/// *untraced* and is never handed out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_hi: u64,
    pub trace_lo: u64,
    /// Span id of the parent span on the sending side (0 = root).
    pub parent: u64,
}

impl TraceContext {
    /// The reserved all-zero context: `is_traced()` is false and the
    /// wire encoder emits a bare (envelope-free) frame for it.
    pub const UNTRACED: TraceContext = TraceContext { trace_hi: 0, trace_lo: 0, parent: 0 };

    pub fn is_traced(&self) -> bool {
        self.trace_hi != 0 || self.trace_lo != 0
    }

    /// The trace id as one 32-hex-digit string.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }

    /// This context with a different parent span (what a layer passes
    /// down after opening its own span).
    pub fn child(&self, parent: u64) -> TraceContext {
        TraceContext { parent, ..*self }
    }
}

kinds! {
    /// What a record says happened. Codes are what a ring slot stores;
    /// labels and field names are what dumps print.
    pub enum SpanKind {
        /// A whole client request, decode to reply.
        1 Request: "request" (_, _);
        /// Wire-frame checksum check + request decode.
        2 FrameDecode: "frame-decode" (bytes, _);
        /// Transaction begin (snapshot acquisition) on shard `home`.
        3 TxnBegin: "txn-begin" (home, tid);
        /// One read (`home` = its shard).
        4 TxnRead: "txn-read" (table, home);
        /// One write — put/insert/delete (`home` = its shard, all ones
        /// for a replicated table's fan-out).
        5 TxnWrite: "txn-write" (table, home);
        /// One range scan.
        6 TxnScan: "txn-scan" (index, rows);
        /// `commit_deferred`: log-block fill + CAS publish, no durability.
        7 CommitDeferred: "commit-deferred" (log, _);
        /// Group-commit durability wait on shard `log`'s log.
        8 DurabilityWait: "durability-wait" (log, _);
        /// One participant's 2PC prepare incl. its block fill.
        9 TwoPcPrepare: "2pc-prepare" (part, cstamp);
        /// A cross-shard transaction's verdict records appended to its
        /// participants' logs: for a commit after it was published and
        /// answered (`commit` = 1), or an abort (0).
        10 TwoPcDecide: "2pc-decide" (gtid, commit);
        /// In-memory publish on every participant, once all prepares are
        /// durable.
        11 TwoPcFinalize: "2pc-finalize" (parts, _);
        /// Replica-side shipping round of replica shard `log`.
        12 ReplShip: "repl-ship" (bytes, log);
        /// A replica applied the log through `lsn`: a whole round's
        /// `blocks`, or one stitched prepared transaction (its commit
        /// stamp, one block).
        13 ReplApply: "repl-apply" (lsn, blocks);
        /// A transaction published its writes at `cstamp`.
        14 TxnCommit: "txn-commit" (tid, cstamp);
        /// A transaction aborted (`reason` = `AbortReason` index).
        15 TxnAbort: "txn-abort" (tid, reason);
        /// A commit's durability wait outlasted the log's patience.
        16 LogStall: "log-stall" (waited_ms, _);
        /// The log refused a write because it is poisoned.
        17 LogPoison: "log-poison" (cause, _);
        /// A collector pass.
        18 GcPass: "gc-pass" (reclaimed, pass);
        /// A checkpoint taken at cut `lsn`.
        19 Checkpoint: "checkpoint" (lsn, removed);
        /// The unified epoch advanced.
        20 EpochAdvance: "epoch-advance" (epoch, _);
        /// The database entered degraded read-only mode (log poisoned).
        21 DbDegraded: "db-degraded" (durable, _);
        /// The database resumed Active after an operator cleared the fault.
        22 DbResumed: "db-resumed" (durable, _);
        /// A server session parked a sync-commit reply on the durability
        /// parker (the reply slot waits for the log instead of a thread).
        23 SessionParked: "session-parked" (conn, seq);
        /// A parked session's commit resolved; its reply slot was filled
        /// and write interest re-armed.
        24 SessionResumed: "session-resumed" (conn, waited_us);
        /// Recovery resolved an in-doubt prepared transaction (`how` bit
        /// 0 = committed, bit 1 = no verdict record was found and the
        /// count of prepares decided).
        25 TwoPcResolve: "2pc-resolve" (gtid, how);
        /// The backup shipper served a log chunk to a subscriber.
        26 ReplSegmentShipped: "repl-segment-shipped" (offset, bytes);
        /// An offline recovery rebuilt the database (checkpoint and log
        /// bytes scanned, versions built).
        27 Recovery: "recovery" (scanned, built);
        /// The listener ran out of descriptors and a queued connection was
        /// answered `Busy` through the reserve one (`shed` = how many so
        /// far).
        28 AcceptShed: "accept-shed" (errno, shed);
    }
}

/// One decoded record. `a`/`b` are kind-specific payload words
/// ([`SpanKind::fields`] names them). A flight event has `dur_ns == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub trace_hi: u64,
    pub trace_lo: u64,
    /// Unique within the process: high 16 bits = ring number. An
    /// untraced record's low 48 bits are 0: nothing names it as a parent.
    pub span_id: u64,
    pub parent: u64,
    pub kind: SpanKind,
    /// Nanoseconds since the owning [`Tracer`]'s epoch (in a merged
    /// dump, the first tracer's).
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Which tracer of a merged dump wrote it (the engine shard); 0 from
    /// a single tracer.
    pub shard: u32,
    pub a: u64,
    pub b: u64,
}

impl Span {
    pub fn trace_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }

    /// Which ring (≈ thread) wrote this record; the Chrome `tid`.
    pub fn ring(&self) -> u64 {
        self.span_id >> RING_ID_SHIFT
    }

    /// Recorded inside a traced operation: the sampled class.
    pub fn is_traced(&self) -> bool {
        self.trace_hi != 0 || self.trace_lo != 0
    }
}

const RING_ID_SHIFT: u32 = 48;

/// Ring numbers, process-wide, so a span id is unique across the tracers
/// of every shard. Sixteen bits; 0 is never handed out.
static NEXT_RING: AtomicU64 = AtomicU64::new(1);

fn next_ring_number() -> u64 {
    loop {
        let n = NEXT_RING.fetch_add(1, Ordering::Relaxed) & 0xFFFF;
        if n != 0 {
            return n;
        }
    }
}

/// One writer's handle: a lane of `SeqRing` slots per class, each a
/// [`Span`]'s nine words, plus the ring's share of the span-id space.
pub struct SpanRing {
    epoch: Instant,
    sampled: OnceLock<SeqRing<9>>,
    always: OnceLock<SeqRing<9>>,
    caps: (usize, usize),
    /// `ring_number << 48`; ors with a local counter to make span ids.
    id_base: u64,
    next_id: AtomicU64,
}

impl SpanRing {
    fn new(epoch: Instant, caps: (usize, usize)) -> SpanRing {
        SpanRing {
            epoch,
            sampled: OnceLock::new(),
            always: OnceLock::new(),
            caps,
            id_base: next_ring_number() << RING_ID_SHIFT,
            next_id: AtomicU64::new(1),
        }
    }

    /// Nanoseconds since the tracer epoch — the span timebase. Every
    /// ring of one [`Tracer`] shares the epoch, so records from different
    /// threads land on one comparable timeline.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate a span id (to parent children under before the span
    /// itself is recorded at its end).
    #[inline]
    pub fn alloc_span_id(&self) -> u64 {
        self.id_base | (self.next_id.fetch_add(1, Ordering::Relaxed) & ((1 << RING_ID_SHIFT) - 1))
    }

    #[inline]
    fn lane(&self, traced: bool) -> &SeqRing<9> {
        let (lane, cap) =
            if traced { (&self.sampled, self.caps.0) } else { (&self.always, self.caps.1) };
        lane.get_or_init(|| SeqRing::new(cap))
    }

    /// Record a completed span under a pre-allocated id, in the lane of
    /// its class. Lock-free, wait-free. The flat argument list mirrors
    /// the slot layout on purpose — no struct is built on the hot path.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        ctx: &TraceContext,
        kind: SpanKind,
        span_id: u64,
        start_ns: u64,
        end_ns: u64,
        a: u64,
        b: u64,
    ) {
        let dur_ns = end_ns.saturating_sub(start_ns);
        let kind = kind.code() as u64;
        self.lane(ctx.is_traced()).push([
            ctx.trace_hi,
            ctx.trace_lo,
            span_id,
            ctx.parent,
            kind,
            start_ns,
            dur_ns,
            a,
            b,
        ]);
    }

    /// Record a completed span; a traced one gets an id of its own,
    /// which is returned.
    #[inline]
    pub fn record(
        &self,
        ctx: &TraceContext,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        a: u64,
        b: u64,
    ) -> u64 {
        let id = if ctx.is_traced() { self.alloc_span_id() } else { self.id_base };
        self.record_with_id(ctx, kind, id, start_ns, end_ns, a, b);
        id
    }

    /// Record a flight event: a span of zero length, now.
    #[inline]
    pub fn event(&self, ctx: &TraceContext, kind: SpanKind, a: u64, b: u64) {
        let now = self.now_ns();
        self.record(ctx, kind, now, now, a, b);
    }

    /// What the allocated lanes take.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        [&self.sampled, &self.always].iter().filter_map(|l| l.get()).map(|l| l.bytes()).sum()
    }

    /// Copy out every currently-valid record of both lanes. Torn slots
    /// are skipped, never misread (seqlock double-read).
    pub fn snapshot(&self, out: &mut Vec<Span>) {
        for lane in [&self.sampled, &self.always].into_iter().filter_map(OnceLock::get) {
            lane.snapshot(|[trace_hi, trace_lo, span_id, parent, kind, start_ns, dur_ns, a, b]| {
                if let Some(kind) = SpanKind::from_code(kind as u32) {
                    out.push(Span {
                        trace_hi,
                        trace_lo,
                        span_id,
                        parent,
                        kind,
                        start_ns,
                        dur_ns,
                        shard: 0,
                        a,
                        b,
                    });
                }
            });
        }
    }
}

/// One retained slow operation: identity, attribution, and the span
/// buffer swept out of the rings when the threshold tripped.
#[derive(Clone, Debug)]
pub struct SlowOp {
    pub trace_hi: u64,
    pub trace_lo: u64,
    /// Operation label (wire opcode name: "put", "commit", "batch", …).
    pub op: &'static str,
    pub table: u32,
    /// First bytes of the key (empty for multi-key ops).
    pub key_prefix: Vec<u8>,
    pub total_ns: u64,
    /// When the op completed, tracer-epoch ns.
    pub at_ns: u64,
    /// The retained span breakdown (bounded to [`SLOW_OP_SPAN_CAP`]).
    pub spans: Vec<Span>,
}

impl SlowOp {
    /// Compact one-line rendering used as the `ermia_slow_ops` label
    /// value and by the `ermia_top` pane: op, table, key prefix, and
    /// the per-kind time breakdown.
    pub fn summary(&self) -> String {
        let mut s = format!("{} t{} {}", self.op, self.table, hex(&self.key_prefix));
        let mut by_kind: Vec<(&'static str, u64)> = Vec::new();
        for sp in &self.spans {
            match by_kind.iter_mut().find(|(l, _)| *l == sp.kind.label()) {
                Some((_, ns)) => *ns += sp.dur_ns,
                None => by_kind.push((sp.kind.label(), sp.dur_ns)),
            }
        }
        by_kind.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        s.push_str(" [");
        for (i, (label, ns)) in by_kind.iter().take(4).enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(&format!("{label}={:.1}ms", *ns as f64 / 1e6));
        }
        s.push(']');
        s
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Owns the shared clock epoch, the registered rings, the trace-id
/// generator, the slow-op log and the dump a failure stored. One per
/// [`crate::Telemetry`].
pub struct Tracer {
    epoch: Instant,
    caps: (usize, usize),
    rings: RingSet<SpanRing>,
    id_seed: AtomicU64,
    /// Tail-capture threshold; 0 disables retention.
    slow_threshold_ns: AtomicU64,
    slow: Mutex<Vec<SlowOp>>,
    /// Long-lived ring for background services (GC passes, checkpoints,
    /// epoch advances, recovery, replica ship/apply) whose writers have
    /// no worker identity. Multi-writer is tolerated here under the
    /// ring's collision argument.
    svc: Arc<SpanRing>,
    last_dump: Mutex<Option<String>>,
}

impl Tracer {
    /// A tracer whose rings hold `sampled_cap` traced records and
    /// `always_cap` others.
    pub fn new(sampled_cap: usize, always_cap: usize) -> Tracer {
        let epoch = Instant::now();
        let caps = (sampled_cap, always_cap);
        let rings = RingSet::new();
        let svc = rings.register(SpanRing::new(epoch, caps));
        Tracer {
            epoch,
            caps,
            rings,
            id_seed: AtomicU64::new(GAMMA),
            slow_threshold_ns: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
            svc,
            last_dump: Mutex::new(None),
        }
    }

    /// Nanoseconds since this tracer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Register a ring for a new single-writer owner.
    pub fn ring(&self) -> Arc<SpanRing> {
        self.rings.register(SpanRing::new(self.epoch, self.caps))
    }

    /// The shared service ring.
    pub fn svc_ring(&self) -> &Arc<SpanRing> {
        &self.svc
    }

    /// Drop a retired writer's ring from dumps. Its records disappear
    /// with it — a dump is about *recent live* activity, and slow-op
    /// retention already copied anything that mattered.
    pub fn retire(&self, ring: &Arc<SpanRing>) {
        self.rings.retire(ring);
    }

    /// Mint a fresh non-zero 128-bit trace id (head sampling and traced
    /// clients without their own generator). SplitMix64 over a seed
    /// perturbed by the clock: unique-enough for correlation, no global
    /// coordination.
    pub fn new_trace_id(&self) -> (u64, u64) {
        let seed = self.id_seed.fetch_add(GAMMA, Ordering::Relaxed).wrapping_add(self.now_ns());
        let mut ids = SplitMix64::new(seed);
        let (hi, lo) = (ids.next_u64(), ids.next_u64());
        (hi.max(1), lo)
    }

    /// Tail-capture threshold in ns (0 = retention off).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Tail-based capture: a traced op finished in `total_ns`; if that
    /// crosses the threshold, sweep its spans out of the rings and
    /// retain it in the worst-K log. Called only for traced ops at
    /// completion — the rarity of slow ops is what pays for the sweep.
    pub fn maybe_capture_slow(
        &self,
        ctx: &TraceContext,
        op: &'static str,
        table: u32,
        key: &[u8],
        total_ns: u64,
    ) {
        let thr = self.slow_threshold_ns();
        if thr == 0 || total_ns < thr || !ctx.is_traced() {
            return;
        }
        let mut spans = self.capture_trace(ctx.trace_hi, ctx.trace_lo);
        spans.truncate(SLOW_OP_SPAN_CAP);
        let entry = SlowOp {
            trace_hi: ctx.trace_hi,
            trace_lo: ctx.trace_lo,
            op,
            table,
            key_prefix: key[..key.len().min(12)].to_vec(),
            total_ns,
            at_ns: self.now_ns(),
            spans,
        };
        let mut slow = self.slow.lock().unwrap();
        // Worst-K by total latency, newest wins ties.
        let pos = slow.partition_point(|s| s.total_ns > total_ns);
        slow.insert(pos, entry);
        slow.truncate(SLOW_OP_LOG_CAP);
    }

    /// Every record currently in any ring carrying the given trace id.
    pub fn capture_trace(&self, trace_hi: u64, trace_lo: u64) -> Vec<Span> {
        let mut out = Vec::new();
        self.rings.for_each(|_, ring| ring.snapshot(&mut out));
        out.retain(|s| s.trace_hi == trace_hi && s.trace_lo == trace_lo);
        out.sort_by_key(|s| (s.start_ns, s.span_id));
        out
    }

    /// The retained worst-K slow ops, worst first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.slow.lock().unwrap().clone()
    }

    /// [`Tracer::dump_merged`] of this tracer alone, `max` records of
    /// each class.
    pub fn dump_spans(&self, max: usize) -> Vec<Span> {
        Tracer::dump_merged(&[self], max, max)
    }

    /// Merge every live ring plus the slow-op retention buffers of
    /// several tracers (one per engine shard) into one time-sorted list
    /// on the first tracer's clock, each record tagged with its tracer's
    /// position. Each class is cut to its newest records on its own:
    /// `max_sampled` traced ones and `max_always` others.
    pub fn dump_merged(tracers: &[&Tracer], max_sampled: usize, max_always: usize) -> Vec<Span> {
        let Some(base) = tracers.first().map(|t| t.epoch) else { return Vec::new() };
        let mut all = Vec::new();
        for (shard, tracer) in tracers.iter().enumerate() {
            let from = all.len();
            tracer.rings.for_each(|_, ring| ring.snapshot(&mut all));
            for op in tracer.slow.lock().unwrap().iter() {
                all.extend_from_slice(&op.spans);
            }
            let (ahead, behind) = match tracer.epoch.checked_duration_since(base) {
                Some(d) => (d.as_nanos() as u64, 0),
                None => (0, base.duration_since(tracer.epoch).as_nanos() as u64),
            };
            for s in &mut all[from..] {
                s.shard = shard as u32;
                s.start_ns = (s.start_ns + ahead).saturating_sub(behind);
            }
        }
        all.sort_by_key(|s| (s.start_ns, s.span_id));
        all.dedup();
        let mut room = (max_sampled, max_always);
        let mut out: Vec<Span> = all
            .into_iter()
            .rev()
            .filter(|s| {
                let left = if s.is_traced() { &mut room.0 } else { &mut room.1 };
                let keep = *left > 0;
                *left = left.saturating_sub(1);
                keep
            })
            .collect();
        out.reverse();
        out
    }

    /// Keep a dump taken at a failure boundary (log stall/poison) so it
    /// can be fetched later even after the moment has passed.
    pub fn store_last_dump(&self, dump: String) {
        *self.last_dump.lock().unwrap() = Some(dump);
    }

    pub fn last_dump(&self) -> Option<String> {
        self.last_dump.lock().unwrap().clone()
    }
}

// ---------------------------------------------------------------------------
// Text dump + Chrome trace_event rendering
// ---------------------------------------------------------------------------

/// Render records as the line-based text format the `DumpTraces` wire
/// frame carries: one record per line,
/// `trace=<32hex> id=<hex> parent=<hex> kind=<label> start=<ns> dur=<ns>
/// shard=<n>`, then the kind's named fields ([`SpanKind::fields`]), e.g.
/// `tid=7 cstamp=4096`; a field the kind leaves unnamed is omitted.
pub fn render_spans(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 128);
    for sp in spans {
        s.push_str(&format!(
            "trace={:016x}{:016x} id={:x} parent={:x} kind={} start={} dur={} shard={}",
            sp.trace_hi,
            sp.trace_lo,
            sp.span_id,
            sp.parent,
            sp.kind.label(),
            sp.start_ns,
            sp.dur_ns,
            sp.shard,
        ));
        let (a, b) = sp.kind.fields();
        for (name, v) in [(a, sp.a), (b, sp.b)] {
            if name != "_" {
                s.push_str(&format!(" {name}={v}"));
            }
        }
        s.push('\n');
    }
    s
}

/// Parse [`render_spans`] output. Lines that are not records, unknown
/// record kinds and unknown fields are skipped (forward compatibility);
/// `None` only on a structurally broken field.
pub fn parse_spans(text: &str) -> Option<Vec<Span>> {
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("trace=")) {
        let fields: Vec<(&str, &str)> =
            line.split_whitespace().map(|f| f.split_once('=')).collect::<Option<_>>()?;
        let get = |name: &str| fields.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        let Some(kind) = get("kind").and_then(SpanKind::from_label) else { continue };
        let hex = |name| u64::from_str_radix(get(name)?, 16).ok();
        let dec = |name| get(name)?.parse::<u64>().ok();
        let trace = get("trace")?;
        if trace.len() != 32 {
            return None;
        }
        let (a, b) = kind.fields();
        // A word the kind leaves unnamed is 0; one named but missing or
        // malformed breaks the line.
        let word = |name| if name == "_" { Some(0) } else { dec(name) };
        out.push(Span {
            trace_hi: u64::from_str_radix(&trace[..16], 16).ok()?,
            trace_lo: u64::from_str_radix(&trace[16..], 16).ok()?,
            span_id: hex("id")?,
            parent: hex("parent")?,
            kind,
            start_ns: dec("start")?,
            dur_ns: dec("dur")?,
            shard: get("shard").map_or(Some(0), |v| v.parse().ok())?,
            a: word(a)?,
            b: word(b)?,
        });
    }
    Some(out)
}

/// Render records as Chrome `trace_event` JSON (the array form), loadable
/// in `chrome://tracing` and Perfetto: a span is a complete "X" event, a
/// zero-length record an instant "i" event on the same timeline. `ts`
/// and `dur` in microseconds, `pid` = 1, `tid` = the writing ring.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut s = String::from("[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let shape = match sp.dur_ns {
            0 => "\"ph\":\"i\",\"s\":\"t\"".to_string(),
            ns => format!("\"ph\":\"X\",\"dur\":{:.3}", ns as f64 / 1e3),
        };
        s.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"ermia\",{shape},\"ts\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"trace\":\"{}\",\"span\":\"{:x}\",\"parent\":\"{:x}\",\"a\":{},\"b\":{}}}}}",
            sp.kind.label(),
            sp.start_ns as f64 / 1e3,
            sp.ring(),
            sp.trace_hex(),
            sp.span_id,
            sp.parent,
            sp.a,
            sp.b
        ));
    }
    s.push_str("\n]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(hi: u64, lo: u64, parent: u64) -> TraceContext {
        TraceContext { trace_hi: hi, trace_lo: lo, parent }
    }

    #[test]
    fn record_snapshot_roundtrip() {
        let tr = Tracer::new(64, 64);
        let ring = tr.ring();
        let c = ctx(7, 9, 3);
        let t0 = ring.now_ns();
        let id = ring.record(&c, SpanKind::TxnRead, t0, t0 + 100, 4, 2);
        let mut out = Vec::new();
        ring.snapshot(&mut out);
        assert_eq!(out.len(), 1);
        let s = out[0];
        assert_eq!((s.trace_hi, s.trace_lo, s.parent), (7, 9, 3));
        assert_eq!(s.span_id, id);
        assert_eq!(s.kind, SpanKind::TxnRead);
        assert_eq!(s.dur_ns, 100);
        assert_eq!((s.a, s.b), (4, 2));
    }

    /// A flight event is a zero-length record: untraced, it lands in the
    /// always-on lane with no id of its own; inside a traced operation it
    /// carries the trace and the parent and gets one. A lane is allocated
    /// by the first record of its class, and only then.
    #[test]
    fn an_event_is_a_span_of_zero_length_in_the_lane_of_its_class() {
        let tr = Tracer::new(64, 32);
        let ring = tr.ring();
        let slot = 80; // nine words and the sequence word
        assert_eq!(ring.bytes(), 0, "no lane before a record");
        ring.event(&TraceContext::UNTRACED, SpanKind::TxnCommit, 5, 77);
        assert_eq!(ring.bytes(), 32 * slot, "the always-on lane only");
        ring.event(&ctx(1, 2, 0x99), SpanKind::TxnCommit, 6, 78);
        assert_eq!(ring.bytes(), (64 + 32) * slot);
        assert_eq!(tr.svc_ring().bytes(), 0, "the service ring holds no lane yet");
        let mut out = Vec::new();
        ring.snapshot(&mut out);
        out.sort_by_key(|s| s.a);
        let [plain, traced] = [out[0], out[1]];
        assert_eq!((plain.dur_ns, plain.parent, plain.is_traced()), (0, 0, false));
        assert_eq!(plain.span_id, plain.ring() << RING_ID_SHIFT, "no id of its own");
        assert_eq!((traced.dur_ns, traced.parent, traced.is_traced()), (0, 0x99, true));
        assert_ne!(traced.span_id & ((1 << RING_ID_SHIFT) - 1), 0);
    }

    /// Sampled and always-on records do not evict each other: a burst of
    /// untraced records laps only its own lane, and a dump's cut bounds
    /// each class on its own.
    #[test]
    fn the_two_classes_never_evict_each_other() {
        let tr = Tracer::new(16, 16);
        let ring = tr.ring();
        let traced = ctx(4, 4, 0);
        ring.record(&traced, SpanKind::Request, 0, 10, 0, 0);
        for i in 0..1000 {
            ring.event(&TraceContext::UNTRACED, SpanKind::TxnBegin, 0, i);
        }
        let dump = tr.dump_spans(8);
        assert!(dump.iter().any(|s| s.kind == SpanKind::Request), "the span survived the burst");
        assert_eq!(dump.iter().filter(|s| !s.is_traced()).count(), 8);
        assert_eq!(dump.iter().rfind(|s| !s.is_traced()).unwrap().b, 999, "newest kept");
        assert!(Tracer::dump_merged(&[&tr], 0, 4).iter().all(|s| !s.is_traced()));
    }

    #[test]
    fn span_ids_are_unique_across_rings_and_tracers() {
        let (t1, t2) = (Tracer::new(16, 16), Tracer::new(16, 16));
        let r1 = t1.ring();
        let r2 = t2.ring();
        let ids: Vec<u64> =
            (0..10).flat_map(|_| [r1.alloc_span_id(), r2.alloc_span_id()]).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_ne!(r1.alloc_span_id() >> RING_ID_SHIFT, r2.alloc_span_id() >> RING_ID_SHIFT);
    }

    /// A merged dump puts every tracer on the first one's clock and tags
    /// each record with its tracer's position.
    #[test]
    fn a_merged_dump_rebases_and_tags_each_tracer() {
        let first = Tracer::new(16, 16);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let second = Tracer::new(16, 16);
        let (r1, r2) = (first.ring(), second.ring());
        r1.event(&TraceContext::UNTRACED, SpanKind::GcPass, 1, 0);
        r2.event(&TraceContext::UNTRACED, SpanKind::GcPass, 2, 0);
        let own = second.dump_spans(8)[0].start_ns;
        let merged = Tracer::dump_merged(&[&first, &second], 8, 8);
        let of = |a| *merged.iter().find(|s| s.a == a).unwrap();
        assert_eq!((of(1).shard, of(2).shard), (0, 1));
        assert!(of(2).start_ns >= own + 2_000_000, "shifted by the epochs' distance");
    }

    #[test]
    fn retire_removes_the_ring_from_dumps() {
        let tr = Tracer::new(8, 8);
        let ring = tr.ring();
        ring.event(&TraceContext::UNTRACED, SpanKind::GcPass, 7, 1);
        assert!(tr.dump_spans(16).iter().any(|s| s.kind == SpanKind::GcPass));
        tr.retire(&ring);
        assert!(tr.dump_spans(16).is_empty());
        tr.store_last_dump("kept".into());
        assert_eq!(tr.last_dump().as_deref(), Some("kept"));
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let tr = Tracer::new(8, 8);
        let a = tr.new_trace_id();
        let b = tr.new_trace_id();
        assert_ne!(a, b);
        assert!(a.0 != 0 || a.1 != 0);
        assert!(!TraceContext { trace_hi: 0, trace_lo: 0, parent: 0 }.is_traced());
    }

    #[test]
    fn capture_trace_filters_and_sorts() {
        let tr = Tracer::new(64, 64);
        let ring = tr.ring();
        let want = ctx(5, 5, 0);
        let other = ctx(6, 6, 0);
        ring.record(&want, SpanKind::TxnWrite, 200, 300, 0, 0);
        ring.record(&other, SpanKind::TxnRead, 50, 60, 0, 0);
        ring.record(&want, SpanKind::TxnBegin, 100, 110, 0, 0);
        let got = tr.capture_trace(5, 5);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, SpanKind::TxnBegin);
        assert_eq!(got[1].kind, SpanKind::TxnWrite);
    }

    #[test]
    fn slow_op_retention_is_worst_k_and_survives_ring_wrap() {
        let tr = Tracer::new(8, 8);
        tr.set_slow_threshold_ns(1_000);
        let ring = tr.ring();
        let slow = ctx(42, 43, 0);
        ring.record(&slow, SpanKind::CommitDeferred, 0, 5_000, 0, 0);
        tr.maybe_capture_slow(&slow, "put", 3, b"key-1", 5_000);
        // Below threshold: not retained.
        tr.maybe_capture_slow(&ctx(9, 9, 0), "get", 1, b"x", 10);
        // Wrap the ring with unrelated spans; the retained copy survives.
        let noise = ctx(1, 2, 0);
        for i in 0..64u64 {
            ring.record(&noise, SpanKind::TxnRead, i, i + 1, 0, 0);
        }
        let ops = tr.slow_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].op, "put");
        assert_eq!(ops[0].table, 3);
        assert_eq!(ops[0].key_prefix, b"key-1");
        assert_eq!(ops[0].spans.len(), 1);
        assert_eq!(ops[0].spans[0].kind, SpanKind::CommitDeferred);
        let dump = tr.dump_spans(1024);
        assert!(dump.iter().any(|s| s.trace_hi == 42 && s.kind == SpanKind::CommitDeferred));
        // Worst-K ordering and cap.
        for i in 0..(SLOW_OP_LOG_CAP as u64 + 4) {
            tr.maybe_capture_slow(&ctx(100 + i, 0, 0), "get", 1, b"k", 2_000 + i);
        }
        let ops = tr.slow_ops();
        assert_eq!(ops.len(), SLOW_OP_LOG_CAP);
        assert!(ops.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
        assert_eq!(ops[0].total_ns, 5_000, "the worst op is never evicted by lesser ones");
    }

    #[test]
    fn untraced_ops_are_never_retained() {
        let tr = Tracer::new(8, 8);
        tr.set_slow_threshold_ns(1);
        tr.maybe_capture_slow(&ctx(0, 0, 0), "put", 1, b"k", u64::MAX);
        assert!(tr.slow_ops().is_empty());
    }

    #[test]
    fn text_roundtrip() {
        let tr = Tracer::new(16, 16);
        let ring = tr.ring();
        let c = ctx(0xdead, 0xbeef, 0x1);
        ring.record(&c, SpanKind::TwoPcPrepare, 10, 250, 1, 777);
        ring.record(&c, SpanKind::ReplApply, 300, 400, 2, 0);
        ring.event(&TraceContext::UNTRACED, SpanKind::TxnAbort, 12, 3);
        ring.event(&c, SpanKind::Request, 0, 0);
        let spans = tr.dump_spans(100);
        let text = render_spans(&spans);
        assert!(text.contains(" part=1 cstamp=777\n"), "fields go by their names:\n{text}");
        assert!(text.contains("kind=request start="), "{text}");
        assert!(!text.contains(" a="), "an unnamed word is omitted:\n{text}");
        let parsed = parse_spans(&text).unwrap();
        assert_eq!(parsed, spans);
        // Unknown lines, kinds and fields are skipped, not fatal.
        let extra = "trace=00000000000000000000000000000000 id=1 parent=0 kind=new-kind \
                     start=1 dur=0 shard=0 x=1\n";
        let parsed = parse_spans(&format!("# comment\n{text}{extra}extra garbage\n")).unwrap();
        assert_eq!(parsed, spans);
        assert_eq!(parse_spans(&text.replace("cstamp=777", "cstamp=x")), None);
    }

    #[test]
    fn chrome_json_is_structurally_valid() {
        let tr = Tracer::new(16, 16);
        let ring = tr.ring();
        let c = ctx(0xabc, 0xdef, 0);
        ring.record(&c, SpanKind::Request, 0, 1000, 1, 0);
        ring.record(&c, SpanKind::DurabilityWait, 100, 900, 0, 0);
        ring.event(&c, SpanKind::TxnCommit, 3, 4);
        let json = chrome_trace_json(&tr.dump_spans(100));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"durability-wait\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1, "the event is an instant");
        // Balanced delimiters outside strings — the minimal structural
        // check a JSON-less test suite can make.
        let (mut depth_sq, mut depth_br, mut in_str, mut prev_esc) = (0i64, 0i64, false, false);
        for ch in json.chars() {
            if in_str {
                match ch {
                    '\\' if !prev_esc => prev_esc = true,
                    '"' if !prev_esc => in_str = false,
                    _ => prev_esc = false,
                }
                continue;
            }
            match ch {
                '"' => in_str = true,
                '[' => depth_sq += 1,
                ']' => depth_sq -= 1,
                '{' => depth_br += 1,
                '}' => depth_br -= 1,
                _ => {}
            }
            assert!(depth_sq >= 0 && depth_br >= 0);
        }
        assert_eq!((depth_sq, depth_br, in_str), (0, 0, false));
    }

    #[test]
    fn slow_op_summary_names_op_table_key_and_breakdown() {
        let tr = Tracer::new(16, 16);
        tr.set_slow_threshold_ns(1);
        let c = ctx(3, 4, 0);
        let ring = tr.ring();
        ring.record(&c, SpanKind::DurabilityWait, 0, 3_000_000, 0, 0);
        tr.maybe_capture_slow(&c, "commit", 7, &[0xab, 0xcd], 3_000_000);
        let ops = tr.slow_ops();
        let s = ops[0].summary();
        assert!(s.contains("commit"), "{s}");
        assert!(s.contains("t7"), "{s}");
        assert!(s.contains("abcd"), "{s}");
        assert!(s.contains("durability-wait=3.0ms"), "{s}");
    }
}
