//! `ermia-telemetry` — the unified observability layer.
//!
//! Four pieces, all std-only and allocation-free on the write side:
//!
//! * `registry` ([`Registry`]) — per-thread metric slabs (relaxed `AtomicU64`
//!   counters + [`AtomicHistogram`]s) merged on read, with a
//!   retire-on-drop aggregate so thread churn neither leaks nor loses
//!   counts, plus read-side collector callbacks for subsystems that
//!   already keep their own atomics.
//! * `prom` ([`Exposition`]) — Prometheus text-format exposition: the renderer behind
//!   the `Metrics` wire frame and HTTP `GET /metrics`, and the parser
//!   the golden tests / CI smoke use to validate a live scrape.
//! * `flight` ([`FlightRecorder`]) — the flight recorder: fixed-size per-worker event
//!   rings with nanosecond timestamps, merged into a bounded
//!   human-readable dump on demand or when the log stalls.
//! * `trace` ([`Tracer`]) — distributed tracing: per-worker span rings, 128-bit
//!   wire-propagated trace ids, a worst-K slow-op log, and a Chrome
//!   `trace_event` exporter.
//!
//! Events and spans are recorded into the same single-writer seqlock
//! ring (`ring.rs`), four payload words wide for the one and nine for
//! the other.
//!
//! [`Telemetry`] bundles one registry, one flight recorder, and one
//! tracer; the database owns one instance and every layer hangs its
//! instruments off it. It is always on — there is no switch — and
//! `crates/core/tests/alloc_free.rs` holds the warm hot path at zero
//! allocations with counters, flight recorder and sampled tracing live.

mod flight;
mod hist;
mod prom;
mod registry;
mod ring;
mod trace;

pub use flight::{Event, EventKind, EventRing, FlightRecorder};
pub use hist::{AtomicHistogram, Histogram, BUCKETS};
pub use prom::{parse_exposition, Exposition, ParsedMetric, SampleLine};
pub use registry::{FamilyDef, MetricDesc, MetricKind, Registry, Sample, Slab};
pub use trace::{
    chrome_trace_json, parse_spans, render_spans, SlowOp, Span, SpanKind, SpanRing, TraceContext,
    Tracer, DEFAULT_SPAN_RING_CAP, SLOW_OP_LOG_CAP, SLOW_OP_SPAN_CAP,
};

use std::sync::Arc;

/// The process's resident set and its high-water mark, in bytes (`VmRSS`
/// and `VmHWM` of `/proc/self/status`); `None` where there is no such
/// file. Read on demand — a scrape, a start-up line — never cached.
pub fn process_resident() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<u64> {
        let rest = status.lines().find_map(|l| l.strip_prefix(name))?;
        Some(rest.split_whitespace().next()?.parse::<u64>().ok()? * 1024)
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

/// Default number of slots in each flight-recorder ring.
pub const DEFAULT_RING_CAP: usize = 512;

/// The per-database telemetry bundle.
pub struct Telemetry {
    registry: Registry,
    flight: FlightRecorder,
    tracer: Arc<Tracer>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        let registry = Registry::new();
        let tracer = Arc::new(Tracer::new(DEFAULT_SPAN_RING_CAP));
        // The slow-query log rides the standard exposition: a retained-op
        // count plus one labeled latency sample per retained op (the
        // label is the op/table/key/breakdown summary the `ermia_top`
        // pane lists). Registered here so primaries and replicas alike
        // expose it without extra wiring.
        let col = Arc::clone(&tracer);
        registry.register_collector(0, move |out| {
            let ops = col.slow_ops();
            out.push(Sample::gauge(
                "ermia_slow_ops",
                "Slow traced operations currently retained in the worst-K log.",
                ops.len() as f64,
            ));
            for (rank, op) in ops.iter().enumerate() {
                out.push(
                    Sample::gauge(
                        "ermia_slow_op_ns",
                        "Total latency of one retained slow op; the label carries op, \
                         table, key prefix, and span breakdown.",
                        op.total_ns as f64,
                    )
                    .labeled("op", format!("#{rank} {}", op.summary())),
                );
            }
        });
        Telemetry { registry, flight: FlightRecorder::new(DEFAULT_RING_CAP), tracer }
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Full Prometheus exposition of everything registered.
    pub fn render_prometheus(&self) -> String {
        self.registry.render()
    }

    /// Bounded flight-recorder dump across all rings.
    pub fn dump_events(&self, max_events: usize) -> String {
        self.flight.dump(max_events)
    }
}
