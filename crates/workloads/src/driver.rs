//! The multithreaded benchmark driver.
//!
//! Mirrors the paper's methodology (§4.1/§4.2): load the data fresh,
//! run a transaction mix for a fixed duration on N worker threads, and
//! report throughput plus per-transaction-type commit counts, abort
//! counts (with reasons) and latencies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ermia_common::AbortReason;
use ermia_telemetry::Histogram;

use crate::engine::Engine;

/// A workload: schema + load + a transaction mix.
pub trait Workload<E: Engine>: Send + Sync {
    /// Per-worker mutable state (RNG, home partition, scratch).
    type WorkerState: Send;

    /// Names of the transaction types (indexes into stats).
    fn types(&self) -> Vec<&'static str>;

    /// Create schema and load initial data ("load from scratch on a
    /// pre-faulted memory pool", §4.2).
    fn load(&self, engine: &E);

    /// Build per-worker state.
    fn worker_state(&self, worker_id: usize, nthreads: usize) -> Self::WorkerState;

    /// Pick the next transaction type for this worker.
    fn next_type(&self, ws: &mut Self::WorkerState) -> usize;

    /// Execute one transaction of type `ty` to commit or abort.
    fn execute(
        &self,
        engine_worker: &mut E::Worker,
        ws: &mut Self::WorkerState,
        ty: usize,
    ) -> Result<(), AbortReason>;
}

/// Run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub threads: usize,
    pub duration: Duration,
}

impl RunConfig {
    pub fn new(threads: usize, duration: Duration) -> RunConfig {
        RunConfig { threads, duration }
    }
}

/// Latency histogram for the driver tables: a façade over the shared
/// telemetry [`Histogram`] (the log2-bucket implementation this one
/// originated). The wrapper keeps the driver's historical f64-nanosecond
/// percentile surface so figure JSON stays byte-identical; the bucketing
/// and interpolation are the shared code.
#[derive(Clone, Default)]
pub struct LatencyHistogram(Histogram);

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHistogram(count={})", self.0.count())
    }
}

impl LatencyHistogram {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.0.record(ns);
    }

    pub fn count(&self) -> u64 {
        self.0.count()
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.0.merge(&other.0);
    }

    /// Tail shorthand used by the SLO tables: the 99.9th percentile in
    /// nanoseconds. Server-side reply tails live here — one stalled
    /// group-commit batch in a thousand shows up at p99.9 long before it
    /// moves p99.
    pub fn p999_ns(&self) -> f64 {
        self.percentile_ns(99.9)
    }

    /// The `p`-th percentile (0..=100) in nanoseconds, interpolated
    /// within the landing bucket; 0.0 when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        self.0.percentile(p)
    }
}

/// Per-transaction-type statistics.
#[derive(Clone, Debug, Default)]
pub struct TypeStats {
    pub name: &'static str,
    pub commits: u64,
    pub aborts: u64,
    pub abort_reasons: HashMap<&'static str, u64>,
    pub latency_sum_ns: u64,
    pub latency_max_ns: u64,
    /// Committed-execution latency distribution (p50/p99 for the
    /// scaling curves; avg/max above stay for the older figures).
    pub latency: LatencyHistogram,
}

impl TypeStats {
    /// Executions = commits + aborts.
    pub fn executions(&self) -> u64 {
        self.commits + self.aborts
    }

    /// Abort ratio in percent (of executions).
    pub fn abort_ratio(&self) -> f64 {
        if self.executions() == 0 {
            0.0
        } else {
            100.0 * self.aborts as f64 / self.executions() as f64
        }
    }

    /// Mean committed-execution latency in milliseconds.
    pub fn latency_avg_ms(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.latency_sum_ns as f64 / self.commits as f64 / 1e6
        }
    }

    /// Abort counts keyed by reason, in [`AbortReason::ALL`] order and
    /// zero-filled — a stable shape for tables and JSON regardless of
    /// which reasons actually fired.
    pub fn abort_breakdown(&self) -> Vec<(&'static str, u64)> {
        AbortReason::ALL
            .iter()
            .map(|r| (r.label(), self.abort_reasons.get(r.label()).copied().unwrap_or(0)))
            .collect()
    }

    fn merge(&mut self, other: &TypeStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.latency_sum_ns += other.latency_sum_ns;
        self.latency_max_ns = self.latency_max_ns.max(other.latency_max_ns);
        self.latency.merge(&other.latency);
        for (k, v) in &other.abort_reasons {
            *self.abort_reasons.entry(k).or_insert(0) += v;
        }
    }
}

/// Aggregated result of one run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub engine: &'static str,
    pub threads: usize,
    pub duration: Duration,
    pub per_type: Vec<TypeStats>,
}

impl BenchResult {
    pub fn total_commits(&self) -> u64 {
        self.per_type.iter().map(|t| t.commits).sum()
    }

    pub fn total_aborts(&self) -> u64 {
        self.per_type.iter().map(|t| t.aborts).sum()
    }

    /// Overall committed throughput in transactions per second.
    pub fn tps(&self) -> f64 {
        self.total_commits() as f64 / self.duration.as_secs_f64()
    }

    /// Committed throughput of one transaction type.
    pub fn tps_of(&self, name: &str) -> f64 {
        self.per_type
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.commits as f64 / self.duration.as_secs_f64())
    }

    /// Stats of one type.
    pub fn stats_of(&self, name: &str) -> Option<&TypeStats> {
        self.per_type.iter().find(|t| t.name == name)
    }
}

/// Load `workload` into `engine` and run it for the configured duration.
pub fn run<E: Engine, W: Workload<E>>(engine: &E, workload: &W, cfg: &RunConfig) -> BenchResult {
    workload.load(engine);
    run_loaded(engine, workload, cfg)
}

/// Run against an already-loaded engine (parameter sweeps reuse loads
/// only when the workload says it is safe; most figures reload).
pub fn run_loaded<E: Engine, W: Workload<E>>(
    engine: &E,
    workload: &W,
    cfg: &RunConfig,
) -> BenchResult {
    let names = workload.types();
    let ntypes = names.len();
    let stop = AtomicBool::new(false);
    let start_barrier = Barrier::new(cfg.threads + 1);

    let mut per_worker: Vec<Vec<TypeStats>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for worker_id in 0..cfg.threads {
            let engine = engine.clone();
            let stop = &stop;
            let start_barrier = &start_barrier;
            let names = names.clone();
            handles.push(s.spawn(move || {
                let mut eworker = engine.register_worker();
                let mut ws = workload.worker_state(worker_id, cfg.threads);
                let mut stats: Vec<TypeStats> = names
                    .iter()
                    .map(|&name| TypeStats { name, ..TypeStats::default() })
                    .collect();
                start_barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let ty = workload.next_type(&mut ws);
                    debug_assert!(ty < ntypes);
                    let t0 = Instant::now();
                    let outcome = workload.execute(&mut eworker, &mut ws, ty);
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    let st = &mut stats[ty];
                    match outcome {
                        Ok(()) => {
                            st.commits += 1;
                            st.latency_sum_ns += elapsed;
                            st.latency_max_ns = st.latency_max_ns.max(elapsed);
                            st.latency.record(elapsed);
                        }
                        Err(reason) => {
                            st.aborts += 1;
                            *st.abort_reasons.entry(reason.label()).or_insert(0) += 1;
                        }
                    }
                }
                stats
            }));
        }
        start_barrier.wait();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            per_worker.push(h.join().expect("worker panicked"));
        }
    });

    let mut per_type: Vec<TypeStats> =
        names.iter().map(|&name| TypeStats { name, ..TypeStats::default() }).collect();
    for worker in &per_worker {
        for (agg, w) in per_type.iter_mut().zip(worker) {
            agg.merge(w);
        }
    }
    BenchResult { engine: engine.name(), threads: cfg.threads, duration: cfg.duration, per_type }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_stats_arithmetic() {
        let mut s = TypeStats { name: "x", commits: 8, aborts: 2, ..TypeStats::default() };
        s.latency_sum_ns = 8_000_000; // 1 ms avg
        s.latency_max_ns = 3_000_000;
        assert_eq!(s.executions(), 10);
        assert!((s.abort_ratio() - 20.0).abs() < 1e-9);
        assert!((s.latency_avg_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn type_stats_merge_accumulates() {
        let mut a = TypeStats { name: "x", commits: 1, aborts: 1, ..TypeStats::default() };
        a.abort_reasons.insert("ww-conflict", 1);
        let mut b = TypeStats { name: "x", commits: 2, aborts: 3, ..TypeStats::default() };
        b.abort_reasons.insert("ww-conflict", 2);
        b.abort_reasons.insert("phantom", 1);
        b.latency_max_ns = 99;
        a.merge(&b);
        assert_eq!(a.commits, 3);
        assert_eq!(a.aborts, 4);
        assert_eq!(a.abort_reasons["ww-conflict"], 3);
        assert_eq!(a.abort_reasons["phantom"], 1);
        assert_eq!(a.latency_max_ns, 99);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let s = TypeStats::default();
        assert_eq!(s.abort_ratio(), 0.0);
        assert_eq!(s.latency_avg_ms(), 0.0);
    }

    #[test]
    fn histogram_percentiles_land_in_the_right_bucket() {
        let mut h = LatencyHistogram::default();
        // 90 samples around 1µs, 10 around 1ms: p50 must sit in the
        // microsecond bucket, p99 in the millisecond bucket.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile_ns(50.0);
        assert!((512.0..2048.0).contains(&p50), "p50 {p50} outside the ~1µs bucket");
        let p99 = h.percentile_ns(99.0);
        assert!((524_288.0..2_097_152.0).contains(&p99), "p99 {p99} outside the ~1ms bucket");
        // Percentiles are monotone and bounded by the top bucket edge.
        assert!(h.percentile_ns(10.0) <= p50 && p50 <= p99);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut both = LatencyHistogram::default();
        for ns in [100u64, 5_000, 70_000, 1_000_000] {
            a.record(ns);
            both.record(ns);
        }
        for ns in [300u64, 9_000, 2_000_000] {
            b.record(ns);
            both.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            assert_eq!(a.percentile_ns(p), both.percentile_ns(p));
        }
    }

    #[test]
    fn p999_separates_the_slo_tail_from_p99() {
        let mut h = LatencyHistogram::default();
        // 9989 fast samples, 11 slow ones (~0.1%): p99 stays in the fast
        // bucket while p99.9 lands in the slow tail.
        for _ in 0..9989 {
            h.record(10_000); // ~10µs
        }
        for _ in 0..11 {
            h.record(50_000_000); // 50ms stall
        }
        let p99 = h.percentile_ns(99.0);
        let p999 = h.p999_ns();
        assert!(p99 < 20_000.0, "p99 {p99} should still sit in the fast bucket");
        assert!(p999 >= 8_192.0 * 1024.0, "p99.9 {p999} must reach the stall tail");
        assert!(p999 >= p99);
    }

    #[test]
    fn histogram_zero_latency_is_clamped_not_panicking() {
        let mut h = LatencyHistogram::default();
        h.record(0); // leading_zeros(0) would index out of range unclamped
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert!(h.percentile_ns(100.0) >= (1u64 << 63) as f64);
    }
}
