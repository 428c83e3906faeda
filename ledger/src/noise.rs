//! `ledger noise` and `ledger diff`: do two sets of runs agree within the
//! benchmark's own bounds?
//!
//! The acceptance rule mirrors the driver's: per workload and end-to-end
//! metric, each set's interquartile range as a share of its median must
//! stay within the metric's bound (`setup_s` excepted), and a later set's
//! median must not be worse than the first's by more than the bound. A
//! metric whose spread or gap exceeds a *third* of its bound is marked
//! `watch`: the driver's contract asks for that margin. On a diagnostic
//! workload the times carry no bound and are printed for information.
//! `pairs won` counts the runs of a later set that beat the run of the
//! same index in the first: for ten alternating pairs of parent and
//! change, the figure the nine-in-ten rule needs.
//!
//! On every workload no count of [`COUNTS`] may grow between sets by more
//! than [`COUNT_TOLERANCE`] (and [`COUNT_FLOOR`] per transaction): counts say what the program did, not how
//! fast this host happened to be. A workload or metric that a set lacks
//! is a failed comparison.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::metrics::{
    bound_on, COUNTS, COUNT_FLOOR, COUNT_TOLERANCE, END_TO_END, HIGHER, WORKLOADS,
};
use crate::stats::{iqr_share, median, quartiles};

/// workload → metric or count → values, one per run.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut table = Table::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = || format!("{}:{}", path.display(), n + 1);
        let v = json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("{}: no {k:?}", at()));
        if field("trace")?.as_f64() != Some(0.0) {
            continue; // per-layer runs carry no bounds
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let result = field("result")?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{}: run of {workload} was not correct", at()));
        }
        let row = table.entry(workload).or_default();
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}: result without metrics", at()))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: metric {name} without value", at()))?;
            row.entry(name.clone()).or_default().push(value);
        }
        for (name, c) in field("counts")?.as_obj().ok_or_else(|| format!("{}: counts", at()))? {
            let value = c.as_f64().ok_or_else(|| format!("{}: count {name}", at()))?;
            row.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(table)
}

/// `(b - a) / a`, 0 when both are 0.
fn rel(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a) / a.abs()
    }
}

/// Print the comparison of `sets` (first = reference) over every workload
/// any of them holds; `true` iff every set holds every one of those
/// workloads, every bounded metric is within its bound and every count
/// agrees.
fn compare(sets: &[Table]) -> bool {
    let workloads: Vec<_> =
        WORKLOADS.iter().filter(|w| sets.iter().any(|s| s.contains_key(w.name))).collect();
    if workloads.is_empty() {
        println!("nothing to compare: no set holds an untraced run of a known workload");
        return false;
    }
    let mut ok = true;
    println!(
        "| workload | metric | set | runs | median | q1 | q3 | IQR/median | gap vs set 1 | pairs won | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    for w in workloads {
        let values =
            |set: &'_ Table, name: &str| set.get(w.name).and_then(|r| r.get(name)).cloned();
        for m in END_TO_END {
            let bound = bound_on(w, m);
            let mut reference = None;
            let mut first: Option<Vec<f64>> = None;
            for (k, set) in sets.iter().enumerate() {
                let values = values(set, m.name).unwrap_or_default();
                if values.len() < 2 {
                    println!(
                        "| {} | {} | {} | {} | — | — | — | — | — | — | — | {} |",
                        w.name,
                        m.name,
                        k + 1,
                        values.len(),
                        if values.is_empty() { "missing" } else { "too few runs" }
                    );
                    ok = false;
                    continue;
                }
                let (q1, q2, q3) = quartiles(&values);
                let spread = iqr_share(&values);
                let reference = *reference.get_or_insert(q2);
                // Positive gap = this set is worse than the reference.
                // (`+ 0.0` turns the -0.0 of a reference set into 0.0.)
                let gap = if m.better == HIGHER { -rel(reference, q2) } else { rel(reference, q2) };
                let gap = gap + 0.0;
                // The driver exempts the spread of `setup_s`, not its gap.
                let held = if m.name == "setup_s" { gap } else { gap.max(spread) };
                let verdict = match bound {
                    None => "not gated",
                    Some(b) if held > b => "MISS",
                    Some(b) if held.max(gap.abs()) > b / 3.0 => "watch",
                    Some(_) => "ok",
                };
                ok &= verdict != "MISS";
                // Run i of this set against run i of the first: the pairs
                // of an alternating parent/change series.
                let won = match first.get_or_insert_with(|| values.clone()) {
                    f if k > 0 && f.len() == values.len() => {
                        let better =
                            |a: &f64, b: &f64| if m.better == HIGHER { b > a } else { b < a };
                        let won = f.iter().zip(&values).filter(|(a, b)| better(a, b)).count();
                        format!("{won} of {}", values.len())
                    }
                    _ => "—".to_string(),
                };
                println!(
                    "| {} | {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:+.2} % | {won} | {} | {verdict} |",
                    w.name,
                    m.name,
                    k + 1,
                    values.len(),
                    q2,
                    q1,
                    q3,
                    spread * 100.0,
                    gap * 100.0,
                    bound.map_or("—".to_string(), |b| format!("{:.0} %", b * 100.0)),
                );
            }
        }
        for count in COUNTS {
            let mut reference = None;
            for (k, set) in sets.iter().enumerate() {
                let Some(values) = values(set, count).filter(|v| !v.is_empty()) else {
                    println!(
                        "| {} | {count} | {} | 0 | — | — | — | — | — | — | — | missing |",
                        w.name,
                        k + 1
                    );
                    ok = false;
                    continue;
                };
                let mid = median(&values);
                // Every count is lower-is-better: positive gap = worse.
                let reference = *reference.get_or_insert(mid);
                let gap = rel(reference, mid);
                let more = gap > COUNT_TOLERANCE && mid - reference > COUNT_FLOOR;
                ok &= !more;
                println!(
                    "| {} | {count} | {} | {} | {mid:.4} | — | — | — | {:+.2} % | — | {:.0} % | {} |",
                    w.name,
                    k + 1,
                    values.len(),
                    gap * 100.0,
                    COUNT_TOLERANCE * 100.0,
                    if more {
                        "MORE"
                    } else if gap < -COUNT_TOLERANCE {
                        "fewer"
                    } else {
                        "same"
                    }
                );
            }
        }
    }
    ok
}

pub fn diff(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: ledger diff A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(a), Ok(b)) => {
            if compare(&[a, b]) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger diff: {e}");
            ExitCode::from(2)
        }
    }
}

pub fn noise(args: &[String]) -> ExitCode {
    let (mut sets, mut runs, mut seconds) = (2usize, 5usize, None::<String>);
    let mut workloads: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = it.next();
        match (a.as_str(), value) {
            ("--sets", Some(v)) => sets = v.parse().unwrap_or(0),
            ("--runs", Some(v)) => runs = v.parse().unwrap_or(0),
            ("--seconds", Some(v)) => seconds = Some(v.clone()),
            ("--workload", Some(v)) if WORKLOADS.iter().any(|w| w.name == v) => {
                workloads.push(v.clone())
            }
            _ => {
                eprintln!("usage: ledger noise [--sets N>=2] [--runs M>=5] [--seconds S] [--workload NAME]...");
                return ExitCode::from(2);
            }
        }
    }
    if sets < 2 || runs < 5 {
        eprintln!("ledger noise: need at least 2 sets of at least 5 runs");
        return ExitCode::from(2);
    }
    if workloads.is_empty() {
        // What the driver runs; name a diagnostic workload to add it.
        workloads = WORKLOADS.iter().filter(|w| w.gated).map(|w| w.name.to_string()).collect();
    }
    let root = crate::run::scratch_root();
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("ledger noise: {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    let files: Vec<PathBuf> =
        (0..sets).map(|k| root.join(format!("noise-set{}.jsonl", k + 1))).collect();
    for f in &files {
        let _ = std::fs::remove_file(f);
    }
    let exe = std::env::current_exe().expect("own path");
    // Sets interleaved, so slow drift of the host lands on every set
    // alike. Run r has the same seed in every set: the sets then differ
    // by the host alone, and their counts can be held equal.
    for r in 0..runs {
        for (k, file) in files.iter().enumerate() {
            for w in &workloads {
                let seed = 1000 + r as u64;
                eprintln!("ledger noise: set {} run {} {w} seed {seed}", k + 1, r + 1);
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w, "--seed", &seed.to_string(), "--trace", "0", "--out"])
                    .arg(file);
                if let Some(s) = &seconds {
                    cmd.args(["--seconds", s]);
                }
                match cmd.stdout(Stdio::null()).status() {
                    Ok(s) if s.success() => {}
                    other => {
                        eprintln!("ledger noise: run failed: {other:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    let tables: Result<Vec<Table>, String> = files.iter().map(|f| load(f)).collect();
    match tables {
        Ok(t) if compare(&t) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger noise: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set holding every workload: `rate` for `txn_per_s`, 1.0 for the
    /// other metrics, `count` for every count.
    fn set(rate: &[f64], count: f64) -> Table {
        let mut t = Table::new();
        for w in WORKLOADS {
            let row = t.entry(w.name.to_string()).or_default();
            for m in END_TO_END {
                let v = if m.name == "txn_per_s" { rate.to_vec() } else { vec![1.0; rate.len()] };
                row.insert(m.name.to_string(), v);
            }
            for c in COUNTS {
                row.insert(c.to_string(), vec![count; rate.len()]);
            }
        }
        t
    }

    fn around(level: f64) -> Table {
        set(&[level, level * 1.01, level * 0.99, level, level * 1.005], 4.0)
    }

    #[test]
    fn gap_and_spread_are_held_against_the_bound() {
        let bound = END_TO_END.iter().find(|m| m.name == "txn_per_s").expect("rate metric").bound;
        let a = around(100.0);
        assert!(
            compare(&[a.clone(), around(100.0 * (1.0 - bound / 2.0))]),
            "half a bound lower passes"
        );
        assert!(
            !compare(&[a.clone(), around(100.0 * (1.0 - bound * 1.5))]),
            "1.5 bounds lower is a miss"
        );
        assert!(
            compare(&[a.clone(), around(100.0 * (1.0 + bound * 2.0))]),
            "better is never a miss"
        );
        let wide = set(
            &[100.0, 100.0 * (1.0 + 1.5 * bound), 100.0 * (1.0 - 1.5 * bound), 100.0, 100.0],
            4.0,
        );
        assert!(!compare(&[a, wide]), "a set wider than the bound is a miss");
    }

    #[test]
    fn times_of_a_diagnostic_workload_carry_no_bound() {
        let diagnostic = WORKLOADS.iter().find(|w| !w.gated).expect("a diagnostic workload").name;
        let only = |t: Table| -> Table { t.into_iter().filter(|(w, _)| w == diagnostic).collect() };
        assert!(compare(&[only(around(100.0)), only(around(50.0))]));
    }

    #[test]
    fn a_count_that_grew_is_a_failure() {
        let rate = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert!(compare(&[set(&rate, 4.0), set(&rate, 4.0 * (1.0 + COUNT_TOLERANCE / 2.0))]));
        assert!(!compare(&[set(&rate, 4.0), set(&rate, 4.0 * (1.0 + COUNT_TOLERANCE * 2.0))]));
        assert!(compare(&[set(&rate, 4.0), set(&rate, 2.0)]), "fewer is never a failure");
        assert!(compare(&[set(&rate, 0.0), set(&rate, 0.0)]), "a count may be 0 on both sides");
    }

    #[test]
    fn a_set_that_lacks_what_the_other_holds_fails() {
        let full = around(100.0);
        assert!(!compare(&[Table::new(), Table::new()]), "nothing to compare");
        assert!(!compare(&[full.clone(), Table::new()]), "an empty set");
        assert!(!compare(&[Table::new(), full.clone()]), "an empty reference");
        let mut fewer = full.clone();
        fewer.remove(WORKLOADS[0].name);
        assert!(!compare(&[full.clone(), fewer]), "a workload only one set ran");
        let mut thinner = full.clone();
        thinner.get_mut(WORKLOADS[0].name).expect("row").remove("txn_per_s");
        assert!(!compare(&[full, thinner]), "a metric only one set holds");
    }
}
