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
    /// Id of this run's first worker. Worker state — an RNG stream, a
    /// range of fresh keys — derives from the id, so a later run on the
    /// same loaded engine starts past the ids of the earlier ones.
    pub first_worker: usize,
}

impl RunConfig {
    pub fn new(threads: usize, duration: Duration) -> RunConfig {
        RunConfig { threads, duration, first_worker: 0 }
    }
}

/// Per-transaction-type statistics.
#[derive(Clone, Default)]
pub struct TypeStats {
    pub name: &'static str,
    pub commits: u64,
    pub aborts: u64,
    pub abort_reasons: HashMap<&'static str, u64>,
    pub latency_max_ns: u64,
    /// Committed-execution latencies in nanoseconds (count = `commits`).
    pub latency: Histogram,
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
            self.latency.sum() as f64 / self.commits as f64 / 1e6
        }
    }

    fn merge(&mut self, other: &TypeStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.latency_max_ns = self.latency_max_ns.max(other.latency_max_ns);
        self.latency.merge(&other.latency);
        for (k, v) in &other.abort_reasons {
            *self.abort_reasons.entry(k).or_insert(0) += v;
        }
    }
}

/// Aggregated result of one run.
#[derive(Clone)]
pub struct BenchResult {
    pub engine: &'static str,
    pub threads: usize,
    /// Measured, from the start barrier to the last worker's join: a
    /// worker finishes (and counts) the transaction it is in when the run
    /// is stopped, so rates divide by this and not by the time asked for.
    pub duration: Duration,
    pub per_type: Vec<TypeStats>,
}

impl BenchResult {
    pub fn total_commits(&self) -> u64 {
        self.per_type.iter().map(|t| t.commits).sum()
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

    /// Fold in a later run of the same workload on the same engine.
    pub fn absorb(&mut self, later: &BenchResult) {
        self.duration += later.duration;
        for (mine, theirs) in self.per_type.iter_mut().zip(&later.per_type) {
            mine.merge(theirs);
        }
    }
}

/// Load `workload` into `engine` and run it for the configured duration.
pub fn run<E: Engine, W: Workload<E>>(engine: &E, workload: &W, cfg: &RunConfig) -> BenchResult {
    workload.load(engine);
    run_loaded(engine, workload, cfg)
}

/// Run against an already-loaded engine. A second run on the same load
/// sets [`RunConfig::first_worker`] past the first one's workers.
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
    let duration = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for worker_id in cfg.first_worker..cfg.first_worker + cfg.threads {
            let engine = engine.clone();
            let stop = &stop;
            let start_barrier = &start_barrier;
            let names = names.clone();
            handles.push(s.spawn(move || {
                let mut eworker = engine.register_worker();
                let mut ws = workload.worker_state(worker_id, cfg.threads);
                let mut stats: Vec<TypeStats> =
                    names.iter().map(|&name| TypeStats { name, ..TypeStats::default() }).collect();
                start_barrier.wait();
                let began = Instant::now();
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
                            st.latency_max_ns = st.latency_max_ns.max(elapsed);
                            st.latency.record(elapsed);
                        }
                        Err(reason) => {
                            st.aborts += 1;
                            *st.abort_reasons.entry(reason.label()).or_insert(0) += 1;
                        }
                    }
                }
                (began, stats)
            }));
        }
        start_barrier.wait();
        let mut started = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        // The run began when its first worker did, which may be before
        // this thread is scheduled again after the barrier.
        for h in handles {
            let (began, stats) = h.join().expect("worker panicked");
            started = started.min(began);
            per_worker.push(stats);
        }
        started.elapsed()
    });

    let mut per_type: Vec<TypeStats> =
        names.iter().map(|&name| TypeStats { name, ..TypeStats::default() }).collect();
    for worker in &per_worker {
        for (agg, w) in per_type.iter_mut().zip(worker) {
            agg.merge(w);
        }
    }
    BenchResult { engine: engine.name(), threads: cfg.threads, duration, per_type }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use super::*;

    #[test]
    fn type_stats_arithmetic() {
        let mut s = TypeStats { name: "x", commits: 8, aborts: 2, ..TypeStats::default() };
        for _ in 0..8 {
            s.latency.record(1_000_000); // 1 ms avg
        }
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

    /// One transaction type that sleeps and touches nothing, and a count
    /// of the transactions entered.
    struct Slow(Duration, AtomicU64);

    impl Workload<crate::ErmiaEngine> for Slow {
        type WorkerState = ();
        fn types(&self) -> Vec<&'static str> {
            vec!["slow"]
        }
        fn load(&self, _: &crate::ErmiaEngine) {}
        fn worker_state(&self, _: usize, _: usize) {}
        fn next_type(&self, _: &mut ()) -> usize {
            0
        }
        fn execute(
            &self,
            _: &mut <crate::ErmiaEngine as Engine>::Worker,
            _: &mut (),
            _: usize,
        ) -> Result<(), AbortReason> {
            self.1.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.0);
            Ok(())
        }
    }

    #[test]
    fn a_transaction_that_outlives_the_run_is_not_counted_at_the_nominal_rate() {
        // The run is stopped after 10 ms; each worker still finishes, and
        // counts, the 60 ms transaction it is in. A worker first scheduled
        // after the stop enters none, so the count is of those entered.
        let db = ermia::ShardedDb::open(ermia::DbConfig::in_memory(), 1).unwrap();
        let engine = crate::ErmiaEngine::si(db);
        let txn = Duration::from_millis(60);
        let slow = Slow(txn, AtomicU64::new(0));
        let r = run_loaded(&engine, &slow, &RunConfig::new(2, Duration::from_millis(10)));
        let entered = slow.1.load(Ordering::Relaxed);
        assert!(entered >= 1, "no worker entered a transaction");
        assert_eq!(r.total_commits(), entered);
        assert!(r.duration >= txn, "measured {:?}, the transactions took {txn:?}", r.duration);
        let possible = 2.0 / txn.as_secs_f64();
        assert!(r.tps() <= possible, "{} tps from two threads of {txn:?} transactions", r.tps());
        assert!(r.tps_of("slow") <= possible);
    }
}
