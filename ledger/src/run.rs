//! Plumbing shared by the workloads: the phase plan, the outside-in
//! counter snapshot taken around a phase, and the result of a run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ermia::Database;
use ermia_telemetry::parse_exposition;

use crate::device::{DeviceCounters, ModelDevice};
use crate::{alloc, host};

/// How one run spends its time. `--seconds` covers the measured phases
/// (latency + capacity, plus the traced phase and probes with
/// `--trace 1`); set-up and the discarded warm-up come on top.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub trace: bool,
    /// Set-ups performed (the reported `setup_s` is their median).
    pub setups: usize,
    pub warm: Duration,
    /// One request outstanding; yields the latency metrics.
    pub latency: Duration,
    /// Closed loop, [`PIPELINE`] requests in flight; yields the rates.
    pub capacity: Duration,
    /// `--trace 1` only: the latency loop again with sampled tracing.
    pub traced: Duration,
    /// `--trace 1` only: budget of the standalone layer probes.
    pub probes: Duration,
}

/// Requests in flight in the capacity phase.
pub const PIPELINE: usize = 16;

impl Plan {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Plan {
        let s = Duration::from_secs_f64(seconds);
        let latency = s / 6;
        Plan {
            seed,
            trace,
            setups: if trace { 1 } else { 5 },
            warm: Duration::from_secs_f64((seconds / 12.0).clamp(0.5, 2.0)),
            latency,
            capacity: if trace { s / 3 } else { s - latency },
            traced: if trace { s / 3 } else { Duration::ZERO },
            probes: if trace { s / 6 } else { Duration::ZERO },
        }
    }
}

/// Where a run keeps its files: `<target dir>/ledger/`, inside the
/// checkout the benchmark was started from.
pub fn scratch_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("ledger")
}

/// Counters read from outside the engine, before and after a phase.
pub struct Snap {
    pub at: Instant,
    pub cpu_us: u64,
    pub allocs: u64,
    pub io_syscalls: u64,
    pub ctx_switches: u64,
    /// Σ `LogManager::next_offset` over shards.
    pub log_next: u64,
    pub device: DeviceCounters,
    /// Every Prometheus sample of every shard, summed by `name{labels}`.
    pub prom: BTreeMap<String, f64>,
}

impl Snap {
    pub fn take(shards: &[Database], device: Option<&ModelDevice>) -> Snap {
        let mut prom = BTreeMap::new();
        for db in shards {
            let text = db.telemetry().render_prometheus();
            let exp = parse_exposition(&text).expect("the engine renders valid exposition");
            for metric in exp.metrics.values() {
                for s in &metric.samples {
                    let mut labels = s.labels.clone();
                    labels.retain(|(k, _)| k != "le" && k != "timescale" && k != "shard");
                    let key = match labels.first() {
                        Some((k, v)) => format!("{}{{{k}={v}}}", s.name),
                        None => s.name.clone(),
                    };
                    *prom.entry(key).or_insert(0.0) += s.value;
                }
            }
        }
        Snap {
            cpu_us: host::cpu_time_us(),
            allocs: alloc::allocations(),
            io_syscalls: host::io_syscalls(),
            ctx_switches: host::ctx_switches(),
            log_next: shards.iter().map(|d| d.log().next_offset()).sum(),
            device: device.map(ModelDevice::counters).unwrap_or_default(),
            prom,
            at: Instant::now(),
        }
    }

    pub fn prom(&self, key: &str) -> f64 {
        self.prom.get(key).copied().unwrap_or(0.0)
    }
}

/// Per-layer counter metrics (source **C**) from the snapshots around the
/// measured period, over the `txns` transactions committed in it.
pub fn counter_metrics(
    before: &Snap,
    after: &Snap,
    txns: u64,
    user_bytes: u64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let per_txn = |d: u64| d as f64 / txns.max(1) as f64;
    let secs = after.at.duration_since(before.at).as_secs_f64().max(1e-9);
    let dprom = |key: &str| (after.prom(key) - before.prom(key)).max(0.0);
    let commits = dprom("ermia_txn_commits_total").max(1.0);

    out.insert("server.syscalls_per_txn", per_txn(after.io_syscalls - before.io_syscalls));
    out.insert(
        "server.ctx_switches_per_txn",
        per_txn(after.ctx_switches.saturating_sub(before.ctx_switches)),
    );
    out.insert(
        "server.epoll_wakeups_per_txn",
        dprom("ermia_server_epoll_wakeups_total") / txns.max(1) as f64,
    );
    out.insert("server.busy_rejects", dprom("ermia_server_busy_rejects_total"));

    let aborts: f64 = after
        .prom
        .keys()
        .filter(|k| k.starts_with("ermia_txn_aborts_total"))
        .map(|k| dprom(k))
        .sum();
    out.insert("core.aborts_per_ktxn", 1000.0 * aborts / commits);
    out.insert(
        "core.aborts_ww_per_ktxn",
        1000.0 * dprom("ermia_txn_aborts_total{reason=ww-conflict}") / commits,
    );
    out.insert(
        "core.aborts_ssn_per_ktxn",
        1000.0 * dprom("ermia_txn_aborts_total{reason=ssn-exclusion}") / commits,
    );
    out.insert(
        "core.chain_walk_len_mean",
        dprom("ermia_txn_chain_length_sum") / dprom("ermia_txn_chain_length_count").max(1.0),
    );
    out.insert("core.allocs_per_txn", per_txn(after.allocs - before.allocs));

    out.insert("storage.gc_passes", dprom("ermia_gc_passes_total"));
    out.insert("storage.gc_reclaimed_per_s", dprom("ermia_gc_reclaimed_versions_total") / secs);
    out.insert("epoch.advances_per_s", dprom("ermia_epoch_advances_total") / secs);

    let batches = dprom("ermia_log_flush_batches_total");
    out.insert("log.bytes_per_txn", per_txn(after.log_next - before.log_next));
    out.insert("log.flush_batches_per_txn", batches / txns.max(1) as f64);
    out.insert("log.batch_bytes_mean", dprom("ermia_log_flushed_bytes_total") / batches.max(1.0));
    out.insert(
        "log.device_busy_pct",
        100.0 * (after.device.busy_ns - before.device.busy_ns) as f64 / 1e9 / secs,
    );
    out.insert(
        "log.write_amp",
        if user_bytes == 0 {
            0.0
        } else {
            (after.device.bytes - before.device.bytes) as f64 / user_bytes as f64
        },
    );
    out.insert("log.ring_space_waits", dprom("ermia_log_space_waits_total"));
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failed attempts by type (`Busy`, `LogStalled`, abort reason, …).
    pub failures: BTreeMap<String, u64>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines: sample counts, oracle verdicts, the
    /// reconciliation of traced self times against the round trip.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count `n` failed attempts of one type.
    pub fn fail(&mut self, kind: impl Into<String>, n: u64) {
        self.failed += n;
        *self.failures.entry(kind.into()).or_default() += n;
    }

    /// Record a failed oracle: the run is wrong, and says why.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("ORACLE FAILED: {}", why.into()));
    }
}

/// Median of `n` timed set-ups; the last one's product is kept for the
/// run, the earlier ones are torn down.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for i in 0..n.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup(i));
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), crate::stats::median(&times))
}
