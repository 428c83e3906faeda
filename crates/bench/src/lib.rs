//! Shared harness for the per-figure benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§4): it builds fresh engines, loads the workload,
//! runs the paper's parameter sweep, and prints the same rows/series the
//! paper reports. Run with `--quick` for a fast smoke pass; default
//! settings give more stable numbers.
//!
//! **Environment note.** The paper's testbed was a 4-socket, 24-thread
//! Xeon. This harness runs wherever it is pointed — on few-core machines
//! thread sweeps oversubscribe and absolute numbers compress, but the
//! comparative *shapes* (who wins, where OCC collapses, abort ratios)
//! are CC-driven and reproduce. See EXPERIMENTS.md.

use std::time::Duration;

use ermia_workloads::driver::{run, BenchResult, RunConfig, Workload};
use ermia_workloads::{ErmiaEngine, SiloEngine};

/// Harness settings derived from CLI args / environment.
#[derive(Clone, Debug)]
pub struct Harness {
    /// Seconds per benchmark point.
    pub secs: f64,
    /// Thread counts for scalability sweeps.
    pub thread_sweep: Vec<usize>,
    /// Threads for fixed-concurrency experiments.
    pub threads: usize,
    /// Scale data sizes down (quick mode).
    pub quick: bool,
}

impl Harness {
    /// Parse from `std::env` (`--quick`, `--secs N`, `--threads a,b,c`).
    pub fn from_args() -> Harness {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let mut secs = if quick { 0.5 } else { 5.0 };
        let mut thread_sweep = if quick { vec![1, 2] } else { vec![1, 2, 4, 8] };
        let mut threads = if quick { 2 } else { 4 };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--secs" => {
                    if let Some(v) = it.next() {
                        secs = v.parse().expect("--secs takes a float");
                    }
                }
                "--threads" => {
                    if let Some(v) = it.next() {
                        thread_sweep =
                            v.split(',').map(|s| s.parse().expect("thread count")).collect();
                        threads = *thread_sweep.last().unwrap_or(&2);
                    }
                }
                _ => {}
            }
        }
        Harness { secs, thread_sweep, threads, quick }
    }

    pub fn run_config(&self, threads: usize) -> RunConfig {
        RunConfig::new(threads, Duration::from_secs_f64(self.secs))
    }

    /// TPC-C sizing for this harness (scale factor = thread count, as in
    /// the paper; quick mode shrinks the tables).
    pub fn tpcc_config(&self, warehouses: u32) -> ermia_workloads::tpcc::TpccConfig {
        if self.quick {
            ermia_workloads::tpcc::TpccConfig::small(warehouses)
        } else {
            // Paper-shaped but bounded for laptop-scale machines.
            let mut cfg = ermia_workloads::tpcc::TpccConfig::paper(warehouses);
            cfg.items = 10_000;
            cfg.customers_per_district = 600;
            cfg.initial_orders = 600;
            cfg.suppliers = 1_000;
            cfg
        }
    }

    pub fn tpce_config(&self) -> ermia_workloads::tpce::TpceConfig {
        if self.quick {
            ermia_workloads::tpce::TpceConfig::small()
        } else {
            let mut cfg = ermia_workloads::tpce::TpceConfig::paper();
            cfg.customers = 1_000;
            cfg.securities = 685;
            cfg
        }
    }
}

/// Fresh ERMIA-SI engine.
pub fn fresh_si() -> ErmiaEngine {
    ErmiaEngine::si(ermia::Database::open(ermia::DbConfig::in_memory()).expect("open ermia"))
}

/// Fresh ERMIA-SSN engine.
pub fn fresh_ssn() -> ErmiaEngine {
    ErmiaEngine::ssn(ermia::Database::open(ermia::DbConfig::in_memory()).expect("open ermia"))
}

/// Fresh Silo engine (read-only snapshots on, per §4.1).
pub fn fresh_silo() -> SiloEngine {
    SiloEngine::new(silo_occ::SiloDb::open(silo_occ::SiloConfig::default()))
}

/// The three systems under evaluation, in the paper's order.
pub const ENGINES: [&str; 3] = ["ERMIA-SI", "ERMIA-SSN", "Silo-OCC"];

/// Run one workload configuration on all three engines (fresh load each).
pub fn bench_three<W>(make_workload: impl Fn() -> W, cfg: &RunConfig) -> [BenchResult; 3]
where
    W: Workload<ErmiaEngine> + Workload<SiloEngine>,
{
    let si = {
        let e = fresh_si();
        run(&e, &make_workload(), cfg)
    };
    let ssn = {
        let e = fresh_ssn();
        run(&e, &make_workload(), cfg)
    };
    let silo = {
        let e = fresh_silo();
        run(&e, &make_workload(), cfg)
    };
    [si, ssn, silo]
}

/// Pre-grow and touch the heap so the first benchmark point doesn't pay
/// allocator growth and page-fault costs that later points don't (a
/// measurable first-run-in-process skew on small machines).
fn warm_allocator() {
    let mut v: Vec<u8> = vec![0; 512 << 20];
    for i in (0..v.len()).step_by(4096) {
        v[i] = 1;
    }
    std::hint::black_box(&v);
}

/// Print a header shared by all figure binaries (also warms the heap).
pub fn banner(figure: &str, description: &str, h: &Harness) {
    warm_allocator();
    println!("================================================================");
    println!("{figure}: {description}");
    println!(
        "({}s per point{}; threads base {}; see EXPERIMENTS.md for paper-vs-measured)",
        h.secs,
        if h.quick { ", QUICK mode" } else { "" },
        h.threads
    );
    println!("================================================================");
}

/// Format a kTps value like the paper's axes (adaptive precision so
/// sub-kTps points on small machines stay readable).
pub fn ktps(tps: f64) -> String {
    let k = tps / 1_000.0;
    if k >= 10.0 {
        format!("{k:.1}")
    } else if k >= 0.1 {
        format!("{k:.2}")
    } else {
        format!("{k:.3}")
    }
}
