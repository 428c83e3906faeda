//! The harness behind `figs`, the one binary that regenerates the
//! paper's evaluation (§4). [`figures::FIGURES`] is the evaluation as a
//! table: each row names its sweep, its workload, the panels it prints
//! and — where this host can carry one — its claim, an inequality between
//! engines that ran in the same process. A row that has a claim always
//! evaluates it; a FAIL makes the exit status non-zero. Everything runs on
//! the engines' public surface: Fig. 10's counts are the log's own, Fig.
//! 11's times come from the span rings under `DbConfig::trace_sample_n`.
//! On a few cores absolute numbers compress; the comparative shapes (who
//! starves, where abort shares explode) reproduce. See EXPERIMENTS.md.

pub mod figures;

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Duration;

use ermia::DbConfig;
use ermia_telemetry::{Span, SpanKind, Tracer};
use ermia_workloads::driver::{run_loaded, BenchResult, RunConfig, Workload};
use ermia_workloads::tpcc::{TpccConfig, TpccWorkload};
use ermia_workloads::tpce::TpceConfig;
use ermia_workloads::{ErmiaEngine, SiloEngine};
use figures::{Figure, FIGURES};

/// Harness settings derived from the command line: seconds per point, the
/// thread counts of a scalability sweep, the threads of every other
/// experiment, and whether data sizes are scaled down (`--quick`).
pub struct Harness {
    pub secs: f64,
    pub thread_sweep: Vec<usize>,
    pub threads: usize,
    pub quick: bool,
}

/// What `figs` is to run; `None` for `--list`.
pub type Cli = Option<(Harness, Vec<&'static Figure>)>;

/// Parse the arguments; an unknown flag or `--only` id is an error that lists the valid ones.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    const USAGE: &str = "flags: --list --only <id>[,<id>] --quick --secs <s> --threads <a,b,..>";
    let ids = || FIGURES.iter().map(|f| f.id).collect::<Vec<_>>().join(" ");
    let (mut quick, mut list, mut secs, mut sweep) = (false, false, None, None::<Vec<usize>>);
    let mut only: Vec<&'static Figure> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} takes a value"));
        match a.as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            "--secs" => secs = Some(value()?.parse::<f64>().map_err(|e| format!("--secs: {e}"))?),
            "--threads" => {
                let counts = value()?.split(',').map(str::parse).collect::<Result<_, _>>();
                sweep = Some(counts.map_err(|e| format!("--threads: {e}"))?);
            }
            "--only" => {
                for id in value()?.split(',') {
                    let fig = FIGURES.iter().find(|f| f.id == id);
                    only.push(fig.ok_or(format!("unknown id `{id}`; ids: {}", ids()))?);
                }
            }
            other => return Err(format!("unknown argument `{other}`; {USAGE}; ids: {}", ids())),
        }
    }
    if list {
        return Ok(None);
    }
    let threads = sweep.as_ref().map_or(if quick { 2 } else { 4 }, |t| t[t.len() - 1]);
    let thread_sweep = sweep.unwrap_or(if quick { vec![1, 2] } else { vec![1, 2, 4, 8] });
    let secs = secs.unwrap_or(if quick { 0.5 } else { 5.0 });
    let figs = if only.is_empty() { FIGURES.iter().collect() } else { only };
    Ok(Some((Harness { secs, thread_sweep, threads, quick }, figs)))
}

/// What `--list` prints: every row's id, title and claim, or why it has none.
pub fn list() -> String {
    let row = |f: &Figure| format!("{:<6} {}\n       {}\n", f.id, f.title, f.claim.describe());
    FIGURES.iter().map(row).collect()
}

/// `figs`: exit 0 when every claim passed, 1 on a FAIL, 2 on a bad command line.
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let (h, figs) = match parse_args(args) {
        Ok(Some(run)) => run,
        Ok(None) => {
            print!("{}", list());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("figs: {e}");
            return ExitCode::from(2);
        }
    };
    // The environment every number depends on (EXPERIMENTS.md quotes it).
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo.lines().find_map(|l| l.strip_prefix("model name")?.split_once(": "));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = model.map_or("unknown CPU", |(_, m)| m);
    println!("host: {cpus} hardware thread(s), {model}; in-memory log, no pinning");
    let failed: usize = figs.iter().map(|f| f.run(&h)).sum();
    println!("\n{} figure(s), {failed} claim(s) FAILED", figs.len());
    ExitCode::from((failed > 0) as u8)
}

impl Harness {
    pub fn run_config(&self, threads: usize) -> RunConfig {
        RunConfig::new(threads, Duration::from_secs_f64(self.secs))
    }

    /// TPC-C sizing: small in quick mode, else paper-shaped but bounded for small machines.
    pub fn tpcc_config(&self, warehouses: usize) -> TpccConfig {
        if self.quick {
            return TpccConfig::small(warehouses as u32);
        }
        TpccConfig {
            items: 10_000,
            customers_per_district: 600,
            initial_orders: 600,
            suppliers: 1_000,
            ..TpccConfig::paper(warehouses as u32)
        }
    }

    pub fn tpce_config(&self) -> TpceConfig {
        if self.quick {
            return TpceConfig::small();
        }
        TpceConfig { customers: 1_000, securities: 685, ..TpceConfig::paper() }
    }
}

/// One engine's run of one point: the driver's result and, for ERMIA,
/// what its log and (when sampled) its span rings saw during the run.
pub struct Cell {
    pub r: BenchResult,
    /// (reservations, bytes) the log handed out during the run.
    pub log: (u64, u64),
    pub spans: SpanSums,
}

/// Fresh in-memory ERMIA, loaded, tracing every `sample_n`-th transaction (0 = none).
fn loaded_ermia<W: Workload<ErmiaEngine>>(ssn: bool, sample_n: u32, workload: &W) -> ErmiaEngine {
    let cfg = DbConfig { trace_sample_n: sample_n, trace_slow_us: 0, ..DbConfig::in_memory() };
    let db = ermia::ShardedDb::open(cfg, 1).expect("open ermia");
    let e = if ssn { ErmiaEngine::ssn(db) } else { ErmiaEngine::si(db) };
    workload.load(&e);
    e
}

fn run_ermia(
    e: &ErmiaEngine,
    sampled: bool,
    w: &impl Workload<ErmiaEngine>,
    cfg: &RunConfig,
) -> Cell {
    let log = e.db.shard(0).log();
    let counts = || (log.stats().allocations.load(Relaxed), log.next_offset());
    let before = counts();
    let stop = AtomicBool::new(false);
    let (r, spans) = std::thread::scope(|s| {
        // A worker's ring leaves the tracer with the worker, so the rings
        // are read while the run is on.
        let poller = sampled.then(|| s.spawn(|| poll_spans(e.db.telemetry().tracer(), &stop)));
        let r = run_loaded(e, w, cfg);
        stop.store(true, Relaxed);
        (r, poller.map_or_else(SpanSums::default, |p| p.join().expect("span poller panicked")))
    });
    let after = counts();
    Cell { r, log: (after.0 - before.0, after.1 - before.1), spans }
}

/// How many slices [`bench_three`] cuts a point's run time into.
const SLICES: u32 = 5;

/// Run one workload configuration on ERMIA-SI, ERMIA-SSN and Silo-OCC (the
/// paper's order). Each is loaded once and the three take turns over
/// `SLICES` short slices, so that a slow spell falls on all of them: run
/// one after another, ERMIA's commit rate on one point spread over 2.3 x
/// between runs and no ratio between engines held a margin.
pub fn bench_three<W>(make_workload: impl Fn() -> W, cfg: &RunConfig) -> Vec<Cell>
where
    W: Workload<ErmiaEngine> + Workload<SiloEngine>,
{
    let (w_si, w_ssn, w_silo) = (make_workload(), make_workload(), make_workload());
    let (si, ssn) = (loaded_ermia(false, 0, &w_si), loaded_ermia(true, 0, &w_ssn));
    // Read-only snapshots on, per §4.1.
    let silo = SiloEngine::new(silo_occ::SiloDb::open(silo_occ::SiloConfig::default()));
    Workload::<SiloEngine>::load(&w_silo, &silo);
    let engines: [&dyn Fn(&RunConfig) -> Cell; 3] = [
        &|cfg| run_ermia(&si, false, &w_si, cfg),
        &|cfg| run_ermia(&ssn, false, &w_ssn, cfg),
        &|cfg| Cell { r: run_loaded(&silo, &w_silo, cfg), log: (0, 0), spans: SpanSums::default() },
    ];
    let mut cells: Vec<Cell> = Vec::new();
    for slice in 0..SLICES as usize {
        let duration = cfg.duration / SLICES;
        let cfg = RunConfig { duration, first_worker: slice * cfg.threads, ..*cfg };
        for (i, run) in engines.iter().enumerate() {
            let cell = run(&cfg);
            match cells.get_mut(i) {
                Some(sum) => {
                    sum.r.absorb(&cell.r);
                    sum.log = (sum.log.0 + cell.log.0, sum.log.1 + cell.log.1);
                }
                None => cells.push(cell),
            }
        }
    }
    cells
}

/// Run TPC-C on ERMIA-SI alone, `n` threads and warehouses (Figs. 10, 11).
pub fn bench_si(h: &Harness, n: usize, sample_n: u32) -> Vec<Cell> {
    let workload = TpccWorkload::new(h.tpcc_config(n));
    let e = loaded_ermia(false, sample_n, &workload);
    vec![run_ermia(&e, sample_n != 0, &workload, &h.run_config(n))]
}

/// A sample of transactions as the span rings saw them: each is timed
/// from the start of its first operation to the end of its last (the
/// commit, when it got there), and that time is split by operation kind.
#[derive(Debug, Default)]
pub struct SpanSums {
    /// Self time of begin, reads, writes, scans and commit, in nanoseconds.
    pub ns: [u64; 5],
    /// First operation to last, summed: what `ns` does not cover of it is
    /// the workload's own code between calls.
    pub window_ns: u64,
    /// Sampled transactions (one begin span each).
    pub txns: u64,
    /// Spans a ring overwrote before they were read (span ids are
    /// consecutive per ring, so a gap is a loss).
    pub lost: u64,
    rings: HashMap<u64, Ring>,
}

/// Where reading a ring stands: the newest span id counted, the duration of
/// a begin span whose enclosing operation is still to come, and the (start,
/// end) of the transaction being read.
type Ring = (u64, u64, Option<(u64, u64)>);

impl SpanSums {
    /// Fold in a dump of the rings; the last (`end`) closes the transactions still open.
    pub fn fold(&mut self, mut spans: Vec<Span>, end: bool) {
        // The ring number is the id's high bits: this groups by ring, in
        // the order the ring's one writer recorded.
        spans.sort_by_key(|s| s.span_id);
        for s in spans {
            let (last, begin, window) = self.rings.entry(s.ring()).or_default();
            let id = s.span_id & ((1 << 48) - 1);
            if id <= *last {
                continue;
            }
            if id != *last + 1 {
                // Spans were overwritten: close what is open as it stands,
                // and count nothing more until a transaction begins.
                self.lost += id - *last - 1;
                self.window_ns += window.take().map_or(0, |(a, b)| b - a);
                *begin = 0;
            }
            *last = id;
            let kind = match s.kind {
                SpanKind::TxnBegin => 0,
                SpanKind::TxnRead => 1,
                SpanKind::TxnWrite => 2,
                SpanKind::TxnScan => 3,
                SpanKind::CommitDeferred | SpanKind::DurabilityWait => 4,
                _ => continue,
            };
            let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
            if kind == 0 {
                self.txns += 1;
                self.window_ns += window.replace((start, end)).map_or(0, |(a, b)| b - a);
            }
            let Some(w) = window else { continue };
            *w = (w.0.min(start), w.1.max(end));
            // A transaction begins inside its first operation, whose span
            // is recorded next and covers the begin: count that time once.
            self.ns[kind] += s.dur_ns - std::mem::take(begin).min(s.dur_ns);
            if kind == 0 {
                *begin = s.dur_ns;
            }
        }
        if end {
            let open = self.rings.drain().filter_map(|(_, ring)| ring.2);
            self.window_ns += open.map(|(a, b)| b - a).sum::<u64>();
        }
    }
}

fn poll_spans(tracer: &Tracer, stop: &AtomicBool) -> SpanSums {
    let mut sums = SpanSums::default();
    while !stop.load(Relaxed) {
        sums.fold(tracer.dump_spans(usize::MAX), false);
        std::thread::sleep(Duration::from_millis(2));
    }
    sums.fold(tracer.dump_spans(usize::MAX), true);
    sums
}

/// Format a kTps value like the paper's axes (adaptive precision so
/// sub-kTps points on small machines stay readable).
pub fn ktps(tps: f64) -> String {
    let k = tps / 1_000.0;
    format!(
        "{k:.*}",
        if k >= 10.0 {
            1
        } else if k >= 0.1 {
            2
        } else {
            3
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use figures::Claim;

    fn args(line: &str) -> Result<Cli, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_figure_table_is_well_formed_and_nothing_else_is_accepted() {
        let listed = list();
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|g| g.id != f.id), "{} appears twice", f.id);
            assert!(!f.series.is_empty() && !f.panels.is_empty(), "{} prints nothing", f.id);
            assert!(listed.lines().any(|l| l.starts_with(f.id)), "--list omits {}", f.id);
            let Ok(Some((_, figs))) = args(&format!("--quick --only {}", f.id)) else { panic!() };
            assert!(figs.len() == 1 && figs[0].id == f.id, "--only {}", f.id);
            if let Claim::PrintOnly(why) = f.claim {
                assert!(why.len() > 10 && !why.contains('\n'), "{}: no one-line reason", f.id);
            }
        }
        for bad in ["--quik", "--only fig99", "--only", "--secs soon", "--threads 1,x", "fig05"] {
            assert!(args(bad).is_err(), "`{bad}` was accepted");
        }
        let err = args("--only table1").err().unwrap();
        assert!(FIGURES.iter().all(|f| err.contains(f.id)), "{err}");
        let Ok(Some((h, figs))) = args("--quick --threads 1,3 --secs 0.1") else { panic!() };
        assert_eq!((h.quick, h.threads, h.secs, figs.len()), (true, 3, 0.1, FIGURES.len()));
    }

    #[test]
    fn span_sums_split_a_tpcc_run_without_counting_time_twice() {
        let h = Harness { secs: 0.3, thread_sweep: vec![], threads: 2, quick: true };
        let cell = &bench_si(&h, 2, 4)[0];
        let s = &cell.spans;
        for (i, kind) in [(1, "read"), (2, "write"), (4, "commit")] {
            assert!(s.txns > 0 && s.ns[i] > 0, "no {kind} time in {s:?}");
        }
        assert!(s.ns.iter().sum::<u64>() <= s.window_ns, "{s:?}");
        let wall = cell.r.duration.as_nanos() as u64 * cell.r.threads as u64;
        assert!(s.window_ns <= wall, "{s:?} in {wall} ns of worker time");
    }
}
