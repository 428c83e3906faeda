//! `ledger` — the repository's benchmark: four workloads, end-to-end and
//! per-layer metrics, measured from outside the engine through the public
//! APIs of the crates it drives. See README.md in this directory.
//!
//! ```text
//! ledger --workload <name> --seed <u64> [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! ledger noise [--sets N] [--runs M] [--seconds S] [--workload NAME]...
//! ledger diff A.jsonl B.jsonl
//! ledger manifest
//! ```

mod alloc;
mod device;
mod embed;
mod gen;
mod host;
mod json;
mod metrics;
mod noise;
mod probes;
mod run;
mod spans;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{bound_on, Workload, COUNTS, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Outcome, Plan};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What `BENCHMARK.json` promises the driver for `--seconds`.
const RUN_SECONDS: u64 = 40;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload <{}> --seed <u64> [--seconds N] [--trace 0|1] [--smoke] [--out FILE]\n\
         \x20      ledger noise [--sets N] [--runs M] [--seconds S] [--workload NAME]...\n\
         \x20      ledger diff A.jsonl B.jsonl\n\
         \x20      ledger manifest",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    ExitCode::from(2)
}

/// Write the traced run's Chrome trace next to the run's other files.
fn write_trace(rec: &spans::Recorder, workload: &str, out: &mut Outcome) {
    let path = run::scratch_root().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(run::scratch_root())
        .and_then(|()| std::fs::write(&path, rec.chrome_json(2000)));
    match written {
        Ok(()) => out
            .notes
            .push(format!("Chrome trace: {} (first 2000 traced operations)", path.display())),
        Err(e) => out.wrong(format!("could not write {}: {e}", path.display())),
    }
}

fn run_workload(w: &Workload, plan: &Plan) -> Outcome {
    match w.name {
        "embed_hybrid" => embed::run(plan),
        "wire_point_read" => wire::run(wire::Kind::PointRead, plan),
        "wire_sync_write" => wire::run(wire::Kind::SyncWrite, plan),
        "wire_2pc" => wire::run(wire::Kind::TwoPc, plan),
        other => unreachable!("{other} is in the workload table but has no runner"),
    }
}

/// The one-line JSON the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_json(out: &Outcome, trace: bool) -> String {
    let metric = |name: &str, unit: &str, v: f64| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(name),
            json::num(v),
            json::quote(unit)
        )
    };
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|m| metric(m.name, m.unit, out.per_layer.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| metric(m.name, m.unit, out.end_to_end.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A run that attempted nothing, or lacks an end-to-end metric, measured
/// nothing: it must not reach the driver looking like a result.
fn check_complete(out: &mut Outcome) {
    if out.attempted == 0 {
        out.wrong("the run attempted no transaction");
    }
    for m in END_TO_END {
        match out.end_to_end.get(m.name) {
            Some(v) if v.is_finite() && *v > 0.0 => {}
            other => out.wrong(format!("end-to-end metric {} is {other:?}", m.name)),
        }
    }
}

fn print_report(w: &Workload, plan: &Plan, out: &Outcome, nproc: usize, pinned: Option<usize>) {
    println!("== ledger · {} · seed {} · {}", w.name, plan.seed, host::header(nproc));
    if !w.gated {
        println!("   diagnostic workload: not in BENCHMARK.json, its times carry no bound");
    }
    match pinned {
        Some(cpu) => println!("   all threads pinned to CPU {cpu}"),
        None => println!("   WARNING: could not pin to one CPU; expect noisy rates"),
    }
    println!(
        "   flush policy: modelled device — real file writes, sync_data = {} ms sleep, no fdatasync; fsync on, flush_interval 200 us",
        device::SYNC_LATENCY.as_millis()
    );
    println!(
        "   phases: warm-up {:.1} s (discarded), latency {:.1} s, capacity {:.1} s{}",
        plan.warm.as_secs_f64(),
        plan.latency.as_secs_f64(),
        plan.capacity.as_secs_f64(),
        if plan.trace {
            format!(
                ", traced {:.1} s, probes {:.1} s",
                plan.traced.as_secs_f64(),
                plan.probes.as_secs_f64()
            )
        } else {
            String::new()
        }
    );
    println!("-- end to end");
    for m in END_TO_END {
        let v = out.end_to_end.get(m.name).copied().unwrap_or(0.0);
        let bound = match bound_on(w, m) {
            Some(b) => format!("bound {:.0} %", b * 100.0),
            None => "no bound here".to_string(),
        };
        println!(
            "   {:<32} {:>14.4} {:<6} {} is better, {bound} — {}",
            m.name, v, m.unit, m.better, m.what
        );
    }
    println!(
        "-- per layer (T traced run, C counter, P probe{})",
        if plan.trace { "" } else { "; T and P only with --trace 1" }
    );
    for m in PER_LAYER {
        if let Some(v) = out.per_layer.get(m.name) {
            println!("   {:<32} {:>14.4} {:<6} {} {}", m.name, v, m.unit, m.source, m.what);
        }
    }
    println!("-- attempted {} · failed {} · correct {}", out.attempted, out.failed, out.correct);
    for (kind, n) in &out.failures {
        println!("   failed[{kind}] = {n}");
    }
    for note in &out.notes {
        println!("   {note}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("noise") => return noise::noise(&args[1..]),
        Some("diff") => return noise::diff(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => match it.next() {
                Some(v) => {
                    opts.insert(a.as_str(), v.as_str());
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(workload) =
        opts.get("--workload").and_then(|name| WORKLOADS.iter().find(|w| w.name == *name))
    else {
        return usage();
    };
    let Some(seed) = opts.get("--seed").and_then(|s| s.parse::<u64>().ok()) else { return usage() };
    let seconds = match opts.get("--seconds").map(|s| s.parse::<f64>()) {
        None => RUN_SECONDS as f64,
        Some(Ok(s)) if (1.0..=600.0).contains(&s) => s,
        Some(_) => return usage(),
    };
    let trace = match opts.get("--trace").copied() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    // --smoke: a 6-second measured period for a quick local check.
    let plan = Plan::new(seed, if smoke { 6.0 } else { seconds }, trace);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = host::pin_to_one_cpu();
    let started = Instant::now();
    let steal0 = host::host_jiffies();
    let calib_before = host::calib_mops();
    let mut out = run_workload(workload, &plan);
    if trace {
        out.per_layer.extend(probes::run_all(plan.probes, workload.name));
    }
    out.per_layer.insert("host.calib_mops_before", calib_before);
    out.per_layer.insert("host.calib_mops_after", host::calib_mops());
    out.per_layer.insert("host.steal_pct", host::steal_pct(steal0, host::host_jiffies()));
    out.end_to_end.insert("rss_peak_mb", host::rss_peak_mib());
    out.notes.push(format!("wall time {:.1} s", started.elapsed().as_secs_f64()));
    check_complete(&mut out);

    print_report(workload, &plan, &out, nproc, pinned);
    let line = result_json(&out, trace);
    if let Some(path) = opts.get("--out") {
        // Beside the driver's line, the counts `ledger diff` holds equal.
        let counts: Vec<String> = COUNTS
            .iter()
            .filter_map(|c| {
                Some(format!("{}: {}", json::quote(c), json::num(*out.per_layer.get(c)?)))
            })
            .collect();
        let saved = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"result\": {line}, \"counts\": {{{}}}}}\n",
            json::quote(workload.name),
            trace as u8,
            counts.join(", ")
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(saved.as_bytes()));
        if let Err(e) = appended {
            eprintln!("ledger: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from the metric tables.
fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"ledger\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    s.push_str(&format!(
        "  \"workloads\": {},\n",
        list(
            WORKLOADS
                .iter()
                .filter(|w| w.gated)
                .map(|w| format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json::quote(w.name),
                    json::quote(w.why)
                ))
                .collect()
        )
    ));
    s.push_str(&format!(
        "  \"end_to_end\": {},\n",
        list(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json::quote(m.name),
                    json::quote(m.unit),
                    json::quote(m.better),
                    json::num(m.bound)
                ))
                .collect()
        )
    ));
    s.push_str(&format!(
        "  \"per_layer\": {}\n",
        list(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json::quote(m.name),
                    json::quote(m.unit),
                    json::quote(m.better)
                ))
                .collect()
        )
    ));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_and_has_exactly_the_contract_keys() {
        let mut out = Outcome { correct: true, attempted: 10, failed: 1, ..Outcome::default() };
        out.end_to_end.insert("txn_per_s", 1234.5);
        for trace in [false, true] {
            let v = json::parse(&result_json(&out, trace)).expect("result line is JSON");
            let keys: Vec<&str> = v.as_obj().expect("object").keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = v.get("metrics").and_then(json::Value::as_obj).expect("metrics");
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want_sorted);
            for m in metrics.values() {
                assert!(m.get("value").and_then(json::Value::as_f64).is_some());
                assert!(m.get("unit").and_then(json::Value::as_str).is_some());
            }
        }
        let v = json::parse(&result_json(&out, false)).unwrap();
        let rate = v.get("metrics").and_then(|m| m.get("txn_per_s")).and_then(|m| m.get("value"));
        assert_eq!(rate.and_then(json::Value::as_f64), Some(1234.5));
    }

    #[test]
    fn a_run_that_measured_nothing_is_not_correct() {
        let full = || {
            let mut out = Outcome { correct: true, attempted: 10, ..Outcome::default() };
            for m in END_TO_END {
                out.end_to_end.insert(m.name, 1.5);
            }
            out
        };
        let mut out = full();
        check_complete(&mut out);
        assert!(out.correct);

        let mut out = full();
        out.attempted = 0;
        check_complete(&mut out);
        assert!(!out.correct, "attempted nothing");
        assert!(result_json(&out, false).contains("\"attempted\": 0"));

        let mut out = full();
        out.end_to_end.remove(END_TO_END[0].name);
        check_complete(&mut out);
        assert!(!out.correct, "a missing end-to-end metric");

        let mut out = full();
        out.end_to_end.insert(END_TO_END[0].name, 0.0);
        check_complete(&mut out);
        assert!(!out.correct, "an end-to-end metric that reads 0");
    }

    /// BENCHMARK.json is what the driver reads; the tables are what the
    /// binary prints. They must not drift apart.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(std::fs::read_to_string(path).expect("BENCHMARK.json"), manifest());
    }

    #[test]
    fn manifest_is_json_within_the_contract_limits() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        let v = json::parse(&text).expect("manifest is JSON");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why too long: {}", w.why);
        }
        let Some(json::Value::Arr(listed)) = v.get("workloads") else { panic!("no workloads") };
        let listed = listed.len();
        assert!((2..=8).contains(&listed));
        assert_eq!(listed, WORKLOADS.iter().filter(|w| w.gated).count());
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25 && m.unit.len() <= 16));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(
            PER_LAYER.len() <= 128
                && PER_LAYER.iter().all(|m| m.unit.len() <= 16 && m.name.len() <= 64)
        );
        assert_eq!(v.get("run_seconds").and_then(json::Value::as_f64), Some(RUN_SECONDS as f64));
    }

    #[test]
    fn same_seed_same_op_stream() {
        assert_eq!(embed::op_stream_hash(7, 5000), embed::op_stream_hash(7, 5000));
        assert_ne!(embed::op_stream_hash(7, 5000), embed::op_stream_hash(8, 5000));
        for kind in [wire::Kind::PointRead, wire::Kind::SyncWrite, wire::Kind::TwoPc] {
            assert_eq!(wire::op_stream_hash(kind, 7, 2000), wire::op_stream_hash(kind, 7, 2000));
            assert_ne!(wire::op_stream_hash(kind, 7, 2000), wire::op_stream_hash(kind, 8, 2000));
        }
    }
}
