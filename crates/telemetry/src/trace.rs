//! Distributed tracing: wait-free per-worker span rings, wire-propagated
//! trace context, tail-based slow-op capture, and a Chrome
//! `trace_event` exporter.
//!
//! A *span* is one timed step of one request — frame decode, run-queue
//! wait, worker checkout, a transaction's reads and writes, the
//! group-commit durability wait, each 2PC prepare/decide leg, a
//! replica's ship/apply rounds — stamped with a 128-bit trace id and a
//! parent span id so the steps of one logical operation can be stitched
//! back together across connections, shards, and the replication
//! stream.
//!
//! ## Write side: the flight-recorder discipline
//!
//! Spans land in [`SpanRing`]s — the seqlock ring of [`crate::ring`],
//! the flight recorder's, with nine payload words to its four. Writers
//! never allocate, never lock, never wait. Each ring is single-writer
//! (one per worker / shard thread / parker); a reader racing a lap sees
//! a torn slot and skips it.
//!
//! ## Sampling and retention
//!
//! Tracing is *off by default*: an untraced operation costs one
//! `Option` branch and touches none of this module. Context arrives two
//! ways:
//!
//! * **head-based** — a client sends a `TraceContext` on the wire, or
//!   `DbConfig::trace_sample_n = N` makes the engine trace every Nth
//!   transaction it begins;
//! * **tail-based** — a traced operation whose total latency crosses
//!   the slow threshold is *retained*: its spans are swept out of the
//!   (otherwise wrapping) rings into the worst-K slow-op log, the
//!   tracing analog of the flight recorder's auto-capture on
//!   `LogStalled`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ermia_common::rng::{SplitMix64, GAMMA};

use crate::ring::{kinds, RingSet, SeqRing};

/// Default number of slots in each span ring.
pub const DEFAULT_SPAN_RING_CAP: usize = 1024;

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
    /// Span taxonomy. Codes are stable: they appear in dumps and tests.
    pub enum SpanKind {
        /// A whole client request, decode to reply (`a` = opcode).
        1 Request: "request";
        /// Wire-frame CRC check + request decode.
        2 FrameDecode: "frame-decode";
        /// Waiting in a shard's run queue for a pooled worker.
        3 RunQueue: "run-queue";
        /// Worker checkout from the pool (usually ~0; nonzero = contention).
        4 WorkerCheckout: "worker-checkout";
        /// Transaction begin (snapshot acquisition).
        5 TxnBegin: "txn-begin";
        /// One read (`a` = table, `b` = shard).
        6 TxnRead: "txn-read";
        /// One write — put/insert/delete (`a` = table, `b` = shard).
        7 TxnWrite: "txn-write";
        /// One range scan (`a` = index, `b` = rows returned).
        8 TxnScan: "txn-scan";
        /// `commit_deferred`: log-block fill + CAS publish, no durability.
        9 CommitDeferred: "commit-deferred";
        /// Group-commit durability wait (`a` = shard).
        10 DurabilityWait: "durability-wait";
        /// One participant's 2PC prepare incl. its durability wait
        /// (`a` = participant shard, `b` = prepare cstamp).
        11 TwoPcPrepare: "2pc-prepare";
        /// The unforced verdict-record append on every participant's log,
        /// after the commit was published and answered (`a` = gtid lsn).
        12 TwoPcDecide: "2pc-decide";
        /// In-memory publish on every participant, once all prepares are
        /// durable (`a` = shard count).
        13 TwoPcFinalize: "2pc-finalize";
        /// Replica-side shipping round (`a` = bytes, `b` = shard).
        14 ReplShip: "repl-ship";
        /// Replica log apply (`a` = blocks or cstamp, `b` = shard).
        15 ReplApply: "repl-apply";
    }
}

/// A decoded span. `a`/`b` are kind-specific payload words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub trace_hi: u64,
    pub trace_lo: u64,
    /// Unique within the process: high 16 bits = ring number.
    pub span_id: u64,
    pub parent: u64,
    pub kind: SpanKind,
    /// Nanoseconds since the owning [`Tracer`]'s epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub a: u64,
    pub b: u64,
}

impl Span {
    pub fn trace_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }

    /// Which ring (≈ thread) wrote this span; the Chrome `tid`.
    pub fn ring(&self) -> u64 {
        self.span_id >> RING_ID_SHIFT
    }
}

const RING_ID_SHIFT: u32 = 48;

/// One writer's span ring: a `SeqRing` whose slots are a [`Span`]'s
/// nine words, plus the ring's share of the span-id space.
pub struct SpanRing {
    ring: SeqRing<9>,
    /// `ring_number << 48`; ors with a local counter to make span ids.
    id_base: u64,
    next_id: AtomicU64,
}

impl SpanRing {
    fn new(epoch: Instant, cap: usize, ring_number: u64) -> SpanRing {
        SpanRing {
            ring: SeqRing::new(epoch, cap),
            id_base: ring_number << RING_ID_SHIFT,
            next_id: AtomicU64::new(1),
        }
    }

    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Nanoseconds since the tracer epoch — the span timebase. Every
    /// ring of one [`Tracer`] shares the epoch, so spans from different
    /// threads land on one comparable timeline.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ring.now_ns()
    }

    /// Allocate a span id (to parent children under before the span
    /// itself is recorded at its end).
    #[inline]
    pub fn alloc_span_id(&self) -> u64 {
        self.id_base | (self.next_id.fetch_add(1, Ordering::Relaxed) & ((1 << RING_ID_SHIFT) - 1))
    }

    /// Record a completed span under a pre-allocated id. Allocation-free,
    /// lock-free, wait-free. The flat argument list mirrors the slot
    /// layout on purpose — no struct is built on the hot path.
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
        self.ring.push([
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

    /// Record a completed span, allocating its id. Returns the id.
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
        let id = self.alloc_span_id();
        self.record_with_id(ctx, kind, id, start_ns, end_ns, a, b);
        id
    }

    /// Spans written so far (monotonic, may exceed capacity).
    pub fn written(&self) -> u64 {
        self.ring.written()
    }

    /// Copy out every currently-valid span. Torn slots are skipped,
    /// never misread (seqlock double-read).
    pub fn snapshot(&self, out: &mut Vec<Span>) {
        self.ring.snapshot(|[trace_hi, trace_lo, span_id, parent, kind, start_ns, dur_ns, a, b]| {
            if let Some(kind) = SpanKind::from_code(kind as u32) {
                out.push(Span {
                    trace_hi,
                    trace_lo,
                    span_id,
                    parent,
                    kind,
                    start_ns,
                    dur_ns,
                    a,
                    b,
                });
            }
        });
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

/// Owns the shared clock epoch, the registered span rings, the trace-id
/// generator, and the slow-op log. One per [`crate::Telemetry`].
pub struct Tracer {
    epoch: Instant,
    ring_cap: usize,
    rings: RingSet<SpanRing>,
    next_ring: AtomicU64,
    id_seed: AtomicU64,
    /// Tail-capture threshold; 0 disables retention.
    slow_threshold_ns: AtomicU64,
    slow: Mutex<Vec<SlowOp>>,
    /// Long-lived ring for infra spans (replica ship/apply, recovery)
    /// whose writers don't have a worker identity. Multi-writer is
    /// tolerated here under the flight recorder's collision argument.
    svc: Arc<SpanRing>,
}

impl Tracer {
    pub fn new(ring_cap: usize) -> Tracer {
        let epoch = Instant::now();
        let rings = RingSet::new();
        let svc = rings.register(SpanRing::new(epoch, ring_cap, 1));
        Tracer {
            epoch,
            ring_cap,
            rings,
            next_ring: AtomicU64::new(2),
            id_seed: AtomicU64::new(GAMMA),
            slow_threshold_ns: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
            svc,
        }
    }

    /// Nanoseconds since this tracer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Register a ring for a new single-writer owner.
    pub fn ring(&self) -> Arc<SpanRing> {
        let n = self.next_ring.fetch_add(1, Ordering::Relaxed);
        self.rings.register(SpanRing::new(self.epoch, self.ring_cap, n))
    }

    /// The shared service ring for infra spans.
    pub fn svc_ring(&self) -> &Arc<SpanRing> {
        &self.svc
    }

    /// Drop a retired worker's ring from dumps. Its already-recorded
    /// spans disappear with it — acceptable for a debugging ring, and
    /// slow-op retention already copied anything that mattered.
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

    /// Every span currently in any ring carrying the given trace id.
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

    /// Merge every live ring plus the slow-op retention buffers into one
    /// time-sorted bounded span list (newest kept when over `max`).
    pub fn dump_spans(&self, max: usize) -> Vec<Span> {
        let mut out = Vec::new();
        self.rings.for_each(|_, ring| ring.snapshot(&mut out));
        for op in self.slow.lock().unwrap().iter() {
            out.extend_from_slice(&op.spans);
        }
        out.sort_by_key(|s| (s.start_ns, s.span_id));
        out.dedup();
        if out.len() > max {
            let cut = out.len() - max;
            out.drain(..cut);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Text dump + Chrome trace_event rendering
// ---------------------------------------------------------------------------

/// Render spans as the line-based text format carried by the
/// `DumpTraces` wire frame: one span per line,
/// `trace=<32hex> id=<hex> parent=<hex> kind=<label> start=<ns> dur=<ns> a=<n> b=<n>`.
pub fn render_spans(spans: &[Span]) -> String {
    let mut s = String::new();
    for sp in spans {
        s.push_str(&format!(
            "trace={:016x}{:016x} id={:x} parent={:x} kind={} start={} dur={} a={} b={}\n",
            sp.trace_hi,
            sp.trace_lo,
            sp.span_id,
            sp.parent,
            sp.kind.label(),
            sp.start_ns,
            sp.dur_ns,
            sp.a,
            sp.b
        ));
    }
    s
}

/// Parse [`render_spans`] output. Unknown lines and unknown span kinds
/// are skipped (forward compatibility); `None` only on a structurally
/// broken field.
pub fn parse_spans(text: &str) -> Option<Vec<Span>> {
    let mut out = Vec::new();
    for line in text.lines() {
        if !line.starts_with("trace=") {
            continue;
        }
        let mut trace = None;
        let mut id = None;
        let mut parent = None;
        let mut kind = None;
        let mut start = None;
        let mut dur = None;
        let mut a = None;
        let mut b = None;
        for field in line.split_whitespace() {
            let (k, v) = field.split_once('=')?;
            match k {
                "trace" => {
                    if v.len() != 32 {
                        return None;
                    }
                    let hi = u64::from_str_radix(&v[..16], 16).ok()?;
                    let lo = u64::from_str_radix(&v[16..], 16).ok()?;
                    trace = Some((hi, lo));
                }
                "id" => id = Some(u64::from_str_radix(v, 16).ok()?),
                "parent" => parent = Some(u64::from_str_radix(v, 16).ok()?),
                "kind" => kind = SpanKind::from_label(v),
                "start" => start = Some(v.parse().ok()?),
                "dur" => dur = Some(v.parse().ok()?),
                "a" => a = Some(v.parse().ok()?),
                "b" => b = Some(v.parse().ok()?),
                _ => {}
            }
        }
        let Some(kind) = kind else { continue };
        let (trace_hi, trace_lo) = trace?;
        out.push(Span {
            trace_hi,
            trace_lo,
            span_id: id?,
            parent: parent?,
            kind,
            start_ns: start?,
            dur_ns: dur?,
            a: a?,
            b: b?,
        });
    }
    Some(out)
}

/// Render spans as Chrome `trace_event` JSON (the array form), loadable
/// in `chrome://tracing` and Perfetto. Complete "X" phase events: `ts`
/// and `dur` in microseconds, `pid` = 1, `tid` = the writing ring.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut s = String::from("[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"ermia\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{}\",\"span\":\"{:x}\",\
             \"parent\":\"{:x}\",\"a\":{},\"b\":{}}}}}",
            sp.kind.label(),
            sp.start_ns as f64 / 1e3,
            sp.dur_ns as f64 / 1e3,
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
        let tr = Tracer::new(64);
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

    #[test]
    fn span_ids_are_unique_across_rings() {
        let tr = Tracer::new(16);
        let r1 = tr.ring();
        let r2 = tr.ring();
        let ids: Vec<u64> =
            (0..10).flat_map(|_| [r1.alloc_span_id(), r2.alloc_span_id()]).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_ne!(r1.alloc_span_id() >> RING_ID_SHIFT, r2.alloc_span_id() >> RING_ID_SHIFT);
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let tr = Tracer::new(8);
        let a = tr.new_trace_id();
        let b = tr.new_trace_id();
        assert_ne!(a, b);
        assert!(a.0 != 0 || a.1 != 0);
        assert!(!TraceContext { trace_hi: 0, trace_lo: 0, parent: 0 }.is_traced());
    }

    #[test]
    fn capture_trace_filters_and_sorts() {
        let tr = Tracer::new(64);
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
        let tr = Tracer::new(8);
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
        let tr = Tracer::new(8);
        tr.set_slow_threshold_ns(1);
        tr.maybe_capture_slow(&ctx(0, 0, 0), "put", 1, b"k", u64::MAX);
        assert!(tr.slow_ops().is_empty());
    }

    #[test]
    fn text_roundtrip() {
        let tr = Tracer::new(16);
        let ring = tr.ring();
        let c = ctx(0xdead, 0xbeef, 0x1);
        ring.record(&c, SpanKind::TwoPcPrepare, 10, 250, 1, 777);
        ring.record(&c, SpanKind::ReplApply, 300, 400, 2, 0);
        let spans = tr.dump_spans(100);
        let text = render_spans(&spans);
        let parsed = parse_spans(&text).unwrap();
        assert_eq!(parsed, spans);
        // Unknown lines are skipped, not fatal.
        let parsed = parse_spans(&format!("# comment\n{text}extra garbage\n")).unwrap();
        assert_eq!(parsed, spans);
    }

    #[test]
    fn chrome_json_is_structurally_valid() {
        let tr = Tracer::new(16);
        let ring = tr.ring();
        let c = ctx(0xabc, 0xdef, 0);
        ring.record(&c, SpanKind::Request, 0, 1000, 1, 0);
        ring.record(&c, SpanKind::DurabilityWait, 100, 900, 0, 0);
        let json = chrome_trace_json(&tr.dump_spans(100));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"durability-wait\""));
        assert!(json.contains("\"ph\":\"X\""));
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
        let tr = Tracer::new(16);
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
