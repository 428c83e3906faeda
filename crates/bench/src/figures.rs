//! The paper's evaluation as one table ([`FIGURES`]), with the code that
//! sweeps a row, prints its panels and evaluates its claim.

use ermia_workloads::micro::{MicroConfig, MicroWorkload};
use ermia_workloads::tpcc::{PartitionAccess, TpccConfig, TpccWorkload};
use ermia_workloads::tpcc_hybrid::TpccHybridWorkload;
use ermia_workloads::tpce::TpceWorkload;
use ermia_workloads::tpce_hybrid::TpceHybridWorkload;

use crate::{bench_si, bench_three, ktps, Cell, Harness};

/// What a row's sweep varies: nothing (one point, a line per transaction
/// type), updates per read, the read-mostly footprint in %, worker threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Axis {
    Types,
    WriteRatio,
    Size,
    Threads,
}

impl Axis {
    fn points(self, h: &Harness) -> Vec<f64> {
        match self {
            Axis::Types => vec![0.0],
            Axis::WriteRatio => vec![0.001, 0.003, 0.01, 0.03, 0.1],
            Axis::Size if h.quick => vec![1.0, 20.0, 60.0],
            Axis::Size => vec![1.0, 20.0, 40.0, 60.0, 80.0, 100.0],
            Axis::Threads => h.thread_sweep.iter().map(|&n| n as f64).collect(),
        }
    }
}

/// A table a row prints from its sweep: one column per engine, one line
/// per point, each entry `cell(engines, i, type)` — for one transaction
/// type, or for all of them when `ty` is `None`.
pub struct Panel {
    pub what: &'static str,
    pub ty: Option<&'static str>,
    pub cell: fn(&[Cell], usize, Option<&str>) -> String,
}

fn rate(c: &Cell, ty: Option<&str>) -> f64 {
    ty.map_or(c.r.tps(), |ty| c.r.tps_of(ty))
}

fn abort_share(c: &Cell, ty: &str) -> f64 {
    c.r.stats_of(ty).map_or(0.0, |s| s.abort_ratio())
}

const KTPS: Panel =
    Panel { what: "committed kTps", ty: None, cell: |c, i, ty| ktps(rate(&c[i], ty)) };

/// Overall, ERMIA-SI's parenthesised rate is Table 1.
const fn normalized(ty: Option<&'static str>) -> Panel {
    let what = "commit rate normalized to ERMIA-SI (commits/s in parentheses)";
    let cell = |c: &[Cell], i: usize, ty: Option<&str>| {
        format!("{:.3} ({:.1})", rate(&c[i], ty) / rate(&c[0], ty).max(1e-9), rate(&c[i], ty))
    };
    Panel { what, ty, cell }
}

const fn aborts(ty: &'static str) -> Panel {
    Panel {
        what: "abort share, % of executions",
        ty: Some(ty),
        cell: |c, i, ty| format!("{:.1}", abort_share(&c[i], ty.unwrap_or(""))),
    }
}

const fn latency(ty: &'static str) -> Panel {
    let cell = |c: &[Cell], i: usize, ty: Option<&str>| {
        let Some(s) = ty.and_then(|ty| c[i].r.stats_of(ty)).filter(|s| s.commits > 0) else {
            return "no commits".into();
        };
        // Bucketed: the p99 estimate can overshoot the maximum.
        let (avg, max) = (s.latency_avg_ms(), s.latency_max_ns as f64 / 1e6);
        let pct = |p: f64| (s.latency.percentile(p) / 1e6).min(max);
        format!("{avg:.1} / {:.1} / {:.1} / {max:.1}", pct(50.0), pct(99.0))
    };
    Panel { what: "commit latency in ms: avg / p50 / p99 / max", ty: Some(ty), cell }
}

const LOG: Panel = Panel {
    what: "kTps, log reservations, log bytes per commit",
    ty: None,
    cell: |c, i, _| {
        let per_commit = c[i].log.1 as f64 / c[i].r.total_commits().max(1) as f64;
        format!("{}  {}  {per_commit:.1}", ktps(c[i].r.tps()), c[i].log.0)
    },
};

const SPANS: Panel = Panel {
    what: "µs per sampled transaction (first operation to commit) and share, by operation kind",
    ty: None,
    cell: |c, i, _| {
        let s = &c[i].spans;
        let rest = s.window_ns.saturating_sub(s.ns.iter().sum());
        let part = |(kind, ns): (&&str, &u64)| {
            let us = *ns as f64 / s.txns.max(1) as f64 / 1e3;
            format!("{kind} {us:.2} ({:.0}%)  ", 100.0 * *ns as f64 / s.window_ns.max(1) as f64)
        };
        let kinds = ["begin", "read", "write", "scan", "commit", "workload"];
        let kinds = kinds.iter().zip(s.ns.iter().chain([&rest]));
        let sample = format!("[{} transactions, {} spans lost]", s.txns, s.lost);
        kinds.map(part).collect::<String>() + &sample
    },
};

/// What a row asserts about its sweep — or why it asserts nothing. The
/// first two hold at every point from `from` percent of footprint up (to
/// `to`); each margin is at least the widest range the quantity spread
/// over at one point in the runs EXPERIMENTS.md "Claims" records.
pub enum Claim {
    /// OCC starves the read-mostly `ty`: Silo's abort share of it is `gap_pp` points above
    /// ERMIA-SI's and its commit rate at most `rate` x ERMIA-SI's.
    Starved { ty: &'static str, from: f64, gap_pp: f64, rate: f64 },
    /// ERMIA-SI does not abort `ty` (at most `si_max` %) where Silo does (`gap_pp` points more).
    Unharmed { ty: &'static str, from: f64, to: f64, gap_pp: f64, si_max: f64 },
    /// Per-transaction logging: one log reservation per committed writer.
    OneReservation,
    /// Printed, not checked, and the one-line reason.
    PrintOnly(&'static str),
}

impl Claim {
    pub fn describe(&self) -> String {
        match *self {
            Claim::Starved { ty, from, gap_pp, rate } => format!(
                "claim: from {from}% up, Silo's {ty} abort share >= ERMIA-SI's + {gap_pp} pp, rate <= {rate} x"
            ),
            Claim::Unharmed { ty, from, to, gap_pp, si_max } => format!(
                "claim: {from}% to {to}%, ERMIA-SI's {ty} abort share <= {si_max}%, Silo's >= it + {gap_pp} pp"
            ),
            Claim::OneReservation => "claim: one log reservation per committed writer".into(),
            Claim::PrintOnly(why) => format!("not checked: {why}"),
        }
    }

    /// Evaluate against one series' rows: a PASS/FAIL line with the
    /// numbers per point; returns how many failed.
    fn check(&self, rows: &[(f64, Vec<Cell>)]) -> usize {
        println!("  {}", self.describe());
        let mut failed = 0;
        for (x, c) in rows {
            let aborts = |ty| (abort_share(&c[0], ty), abort_share(&c[2], ty));
            let (ok, what) = match *self {
                Claim::Starved { ty, from, gap_pp, rate: cap } if *x >= from => {
                    let ((a_si, a_silo), ty) = (aborts(ty), Some(ty));
                    let (r_si, r_silo) = (rate(&c[0], ty), rate(&c[2], ty));
                    let ok = a_silo - a_si >= gap_pp && r_silo <= cap * r_si;
                    let rates =
                        format!("{r_silo:.1}, {r_si:.1} commits/s (x {:.2})", r_silo / r_si);
                    (ok, format!("Silo, ERMIA-SI: abort share {a_silo:.1}%, {a_si:.1}%; {rates}"))
                }
                Claim::Unharmed { ty, from, to, gap_pp, si_max } if (from..=to).contains(x) => {
                    let (si, silo) = aborts(ty);
                    let ok = si <= si_max && silo - si >= gap_pp;
                    (ok, format!("Silo, ERMIA-SI: abort share {silo:.1}%, {si:.1}%"))
                }
                Claim::OneReservation => {
                    // The TPC-C types that write, and so reserve log space.
                    let writers = ["NewOrder", "Payment", "Delivery"];
                    let commits = |ty: &&str| c[0].r.stats_of(ty).map_or(0, |s| s.commits);
                    let (writers, got) = (writers.iter().map(commits).sum::<u64>(), c[0].log.0);
                    let ok = got == writers && writers > 0;
                    (ok, format!("{got} reservations, {writers} writers committed"))
                }
                _ => continue,
            };
            println!("  {} at {x}: {what}", if ok { "PASS" } else { "FAIL" });
            failed += !ok as usize;
        }
        failed
    }
}

/// One point of a sweep: `(harness, x, threads)` to one [`Cell`] per engine, ERMIA-SI first.
pub type Point = fn(&Harness, f64, usize) -> Vec<Cell>;

/// One row of the evaluation.
pub struct Figure {
    /// What `--only` takes.
    pub id: &'static str,
    pub title: &'static str,
    pub axis: Axis,
    /// Labelled sub-sweeps, each with what runs at a point.
    pub series: &'static [(&'static str, Point)],
    pub panels: &'static [Panel],
    pub claim: Claim,
}

fn tpcc_hybrid(h: &Harness, size: f64, n: usize) -> Vec<Cell> {
    // Warehouses follow the fixed thread count, not the sweep (Fig. 12).
    let make = || TpccHybridWorkload::new(h.tpcc_config(h.threads), size as u32);
    bench_three(make, &h.run_config(n))
}

fn tpce_hybrid(h: &Harness, size: f64, n: usize) -> Vec<Cell> {
    bench_three(|| TpceHybridWorkload::new(h.tpce_config(), size as u32), &h.run_config(n))
}

fn tpcc(h: &Harness, access: PartitionAccess, n: usize) -> Vec<Cell> {
    let make = || TpccWorkload::new(TpccConfig { access, ..h.tpcc_config(n) });
    bench_three(make, &h.run_config(n))
}

fn micro(h: &Harness, reads: usize, write_ratio: f64, n: usize) -> Vec<Cell> {
    let rows = if h.quick { 20_000 } else { 100_000 };
    bench_three(|| MicroWorkload::new(MicroConfig { rows, reads, write_ratio }), &h.run_config(n))
}

const NEEDS_CORES: &str = "needs writers overlapping short transactions on real cores";
const NEEDS_SCALE: &str = "scaling needs more cores than threads";

#[rustfmt::skip]
pub static FIGURES: &[Figure] = &[
    Figure { id: "fig01", title: "Figure 1: microbenchmark throughput vs write ratio", axis: Axis::WriteRatio,
        series: &[("read set 1 000 records", |h, x, n| micro(h, 1_000, x, n)),
                  ("read set 10 000 records", |h, x, n| micro(h, 10_000, x, n))],
        panels: &[KTPS], claim: Claim::PrintOnly(NEEDS_CORES) },
    Figure { id: "fig02", title: "Figure 2: TPC-C commit rates by type, without and with Q2* (10 %)", axis: Axis::Types,
        series: &[("TPC-C", |h, _, n| tpcc(h, PartitionAccess::Home, n)),
                  ("TPC-C + Q2* (10 % size)", |h, _, n| tpcc_hybrid(h, 10.0, n))],
        panels: &[KTPS],
        claim: Claim::PrintOnly("the starvation it shows at one size is Fig. 5's claim over the sweep") },
    Figure { id: "fig05", title: "Figure 5 and Table 1: TPC-C-hybrid vs Q2* size", axis: Axis::Size,
        series: &[("", tpcc_hybrid)],
        panels: &[normalized(None), normalized(Some("Q2*")), aborts("Q2*")],
        claim: Claim::Starved { ty: "Q2*", from: 40.0, gap_pp: 8.0, rate: 0.8 } },
    Figure { id: "fig06", title: "Figure 6 and Table 1: TPC-E-hybrid vs AssetEval size", axis: Axis::Size,
        series: &[("", tpce_hybrid)],
        panels: &[normalized(None), normalized(Some("AssetEval")), aborts("AssetEval")],
        // At 100 % Silo's share spread over 1.2-3.7 % in 3 s runs, wider than the margin: not checked.
        claim: Claim::Unharmed { ty: "AssetEval", from: 20.0, to: 80.0, gap_pp: 2.1, si_max: 1.0 } },
    Figure { id: "fig07", title: "Figure 7: TPC-C and TPC-E scalability", axis: Axis::Threads,
        series: &[("TPC-C (warehouses = threads)", |h, _, n| tpcc(h, PartitionAccess::Home, n)),
                  ("TPC-E", |h, _, n| bench_three(|| TpceWorkload::new(h.tpce_config()), &h.run_config(n)))],
        panels: &[KTPS], claim: Claim::PrintOnly(NEEDS_SCALE) },
    Figure { id: "fig08", title: "Figure 8: TPC-C with uniform and 80-20 skewed partition access", axis: Axis::Threads,
        series: &[("uniform random access", |h, _, n| tpcc(h, PartitionAccess::Uniform, n)),
                  ("80-20 skew", |h, _, n| tpcc(h, PartitionAccess::Skew8020, n))],
        panels: &[KTPS], claim: Claim::PrintOnly(NEEDS_CORES) },
    Figure { id: "fig09", title: "Figure 9: TPC-E-hybrid scalability at 10 % / 60 % AssetEval", axis: Axis::Threads,
        series: &[("AssetEval size 10 %", |h, _, n| tpce_hybrid(h, 10.0, n)),
                  ("AssetEval size 60 %", |h, _, n| tpce_hybrid(h, 60.0, n))],
        panels: &[KTPS], claim: Claim::PrintOnly(NEEDS_SCALE) },
    Figure { id: "fig10", title: "Figure 10: per-transaction logging (ERMIA-SI, TPC-C)", axis: Axis::Threads,
        series: &[("", |h, _, n| bench_si(h, n, 0))],
        panels: &[LOG], claim: Claim::OneReservation },
    Figure { id: "fig11", title: "Figure 11: an ERMIA-SI TPC-C transaction's time by operation kind", axis: Axis::Threads,
        series: &[("", |h, _, n| bench_si(h, n, 16))], // one transaction in 16 is traced
        panels: &[SPANS],
        claim: Claim::PrintOnly("the paper's bars are per component: the ledger's index/storage/log rows") },
    Figure { id: "fig12", title: "Figure 12: Q2* latency at 60 % / 80 % size", axis: Axis::Threads,
        series: &[("Q2* size 60 %", |h, _, n| tpcc_hybrid(h, 60.0, n)),
                  ("Q2* size 80 %", |h, _, n| tpcc_hybrid(h, 80.0, n))],
        panels: &[latency("Q2*")],
        claim: Claim::PrintOnly("Q2* commits within milliseconds here; the paper's effect sets in past 200 ms") },
];

impl Panel {
    fn print(&self, axis: Axis, rows: &[(f64, Vec<Cell>)]) {
        let Some((_, first)) = rows.first() else { return };
        println!("-- {}{} --", self.ty.map_or(String::new(), |ty| format!("{ty}: ")), self.what);
        let line = |label: String, cells: Vec<String>| {
            let cells: String = cells.iter().map(|c| format!(" {c:>24}")).collect();
            println!("{label:>12}{cells}");
        };
        let entries = |c: &[Cell], ty| (0..c.len()).map(|i| (self.cell)(c, i, ty)).collect();
        line(format!("{axis:?}"), first.iter().map(|c| c.r.engine.to_string()).collect());
        if axis == Axis::Types {
            let types = first[0].r.per_type.iter().map(|t| (t.name, Some(t.name)));
            for (name, ty) in types.chain([("TOTAL", None)]) {
                line(name.into(), entries(first, ty));
            }
        } else {
            rows.iter().for_each(|(x, c)| line(format!("{x}"), entries(c, self.ty)));
        }
    }
}

impl Figure {
    /// Sweep, print and evaluate; returns the number of failed claims.
    pub fn run(&self, h: &Harness) -> usize {
        let quick = if h.quick { ", QUICK sizes" } else { "" };
        println!("\n==== {}  [{}] ====", self.title, self.id);
        println!("({}s per point{quick}; {} threads where fixed)", h.secs, h.threads);
        let mut failed = 0;
        for (label, point) in self.series {
            let threads = |x: f64| if self.axis == Axis::Threads { x as usize } else { h.threads };
            let run = |x: f64| (x, point(h, x, threads(x)));
            let rows: Vec<(f64, Vec<Cell>)> = self.axis.points(h).into_iter().map(run).collect();
            if !label.is_empty() {
                println!("\n== {label} ==");
            }
            self.panels.iter().for_each(|p| p.print(self.axis, &rows));
            failed += self.claim.check(&rows);
        }
        failed
    }
}
