//! `top` for an ERMIA server: poll the `Metrics` wire frame and render
//! a small live dashboard of throughput, log health, and service load.
//!
//! ```sh
//! cargo run --release -p ermia-server --bin ermia-server -- 127.0.0.1:7878   # terminal 1
//! cargo run --release --example ermia_top -- 127.0.0.1:7878                 # terminal 2
//! ```
//!
//! Counters are shown as per-second rates (delta between polls);
//! gauges as-is. `--once` prints a single snapshot and exits, which is
//! also what the CI smoke step runs.

use std::time::{Duration, Instant};

use ermia_server::Client;
use ermia_telemetry::{parse_exposition, Exposition};

const POLL: Duration = Duration::from_secs(1);

/// One dashboard row: (display label, metric name, optional label
/// key/value selecting samples, is_rate). A row shows the sum of the
/// samples it selects — over reasons, and over the `shard` label of a
/// server on several engine shards.
type Row = (&'static str, &'static str, Option<(&'static str, &'static str)>, bool);

const ROWS: &[Row] = &[
    ("commits/s", "ermia_txn_commits_total", None, true),
    ("aborts/s", "ermia_txn_aborts_total", None, true),
    ("log flushes/s", "ermia_log_flush_batches_total", None, true),
    ("log bytes/s", "ermia_log_flushed_bytes_total", None, true),
    ("log durable lag (B)", "ermia_log_durable_lag_bytes", None, false),
    ("log ring occupancy (B)", "ermia_log_ring_occupancy_bytes", None, false),
    ("log syncs in flight", "ermia_log_syncs_in_flight", None, false),
    ("log syncs/s: idle", "ermia_log_sync_starts_total", Some(("cause", "idle")), true),
    ("log syncs/s: demand", "ermia_log_sync_starts_total", Some(("cause", "demand")), true),
    ("log syncs/s: clock", "ermia_log_sync_starts_total", Some(("cause", "clock")), true),
    ("log syncs/s: timer", "ermia_log_sync_starts_total", Some(("cause", "timer")), true),
    ("log space waits/s", "ermia_log_space_waits_total", None, true),
    ("gc passes/s", "ermia_gc_passes_total", None, true),
    ("gc reclaimed/s", "ermia_gc_reclaimed_versions_total", None, true),
    ("gc chains visited/s", "ermia_gc_chains_visited_total", None, true),
    ("gc retire backlog", "ermia_gc_retire_backlog", None, false),
    ("tid slots in use", "ermia_tid_slots_in_use", None, false),
    ("version pool size", "ermia_version_pool_size", None, false),
    ("active sessions", "ermia_server_active_sessions", None, false),
    ("reply queue depth", "ermia_server_reply_queue_depth", None, false),
    ("frames/s", "ermia_server_frames_processed_total", None, true),
    ("open transactions", "ermia_server_open_txns", None, false),
    ("open transaction limit", "ermia_server_open_txns_limit", None, false),
    ("slow ops retained", "ermia_slow_ops", None, false),
];

fn render(now: &Exposition, prev: Option<(&Exposition, f64)>) {
    println!("{:<26} {:>14}", "metric", "value");
    for &(label, name, sel, is_rate) in ROWS {
        let Some(v) = now.sum(name, sel) else {
            println!("{label:<26} {:>14}", "-");
            continue;
        };
        let shown = if is_rate {
            match prev.and_then(|(p, dt)| p.sum(name, sel).map(|pv| (pv, dt))) {
                Some((pv, dt)) if dt > 0.0 => (v - pv).max(0.0) / dt,
                // First poll: no delta yet; show the raw total instead.
                _ => v,
            }
        } else {
            v
        };
        println!("{label:<26} {shown:>14.1}");
    }
    // Where the memory is: the process, and the two capacity-sized
    // tables whose residency follows use (summed over engine shards).
    let mib = |name| now.sum(name, None).map_or("-".into(), |b| format!("{:.1}", b / 1048576.0));
    println!(
        "memory: {} MiB resident (peak {}), log ring {} MiB unreleased, tid high water {:.0}",
        mib("ermia_process_resident_bytes"),
        mib("ermia_process_resident_peak_bytes"),
        mib("ermia_log_ring_unreleased_bytes"),
        now.sum("ermia_tid_high_water", None).unwrap_or(0.0),
    );
    // Abort mix: only the reasons that actually fired.
    let mut reasons = now.label_values("ermia_txn_aborts_total", "reason");
    reasons.sort_unstable();
    reasons.dedup(); // one per engine shard otherwise
    let mut mix = String::new();
    for r in reasons {
        if let Some(n) = now.sum("ermia_txn_aborts_total", Some(("reason", r))) {
            if n > 0.0 {
                mix.push_str(&format!(" {r}={n:.0}"));
            }
        }
    }
    if !mix.is_empty() {
        println!("aborts by reason:{mix}");
    }
    // Slow-query pane: the worst-K traced ops the server retained,
    // slowest first. The label already carries op/table/key/breakdown;
    // we prepend the total so the pane reads like a flat profile.
    let mut slow: Vec<(f64, &str)> = now
        .label_values("ermia_slow_op_ns", "op")
        .into_iter()
        .filter_map(|op| now.value_with("ermia_slow_op_ns", "op", op).map(|ns| (ns, op)))
        .collect();
    if !slow.is_empty() {
        slow.sort_by(|a, b| b.0.total_cmp(&a.0));
        println!("\nslow ops (worst retained):");
        for (ns, op) in slow.iter().take(8) {
            println!("  {:>9.2}ms  {op}", ns / 1e6);
        }
    }
}

fn main() {
    let mut addr = None;
    let mut once = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--once" => once = true,
            other => addr = Some(other.to_string()),
        }
    }
    let addr = addr.unwrap_or_else(|| "127.0.0.1:7878".into());

    let mut client = Client::connect(&addr).expect("connect");
    let mut prev: Option<(Exposition, Instant)> = None;
    loop {
        let text = client.metrics().expect("metrics frame");
        let exp = parse_exposition(&text).expect("valid Prometheus exposition");
        let at = Instant::now();
        if !once {
            // Poor man's screen clear; keeps the example dependency-free.
            print!("\x1b[2J\x1b[H");
        }
        println!("ermia_top — {addr} ({} metrics)\n", exp.metrics.len());
        render(&exp, prev.as_ref().map(|(p, t)| (p, at.duration_since(*t).as_secs_f64())));
        if once {
            return;
        }
        prev = Some((exp, at));
        std::thread::sleep(POLL);
    }
}
