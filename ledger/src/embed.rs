//! `embed_hybrid` — CPU-bound, engine only.
//!
//! One OS thread drives two `Worker`s in a fixed interleave. The
//! *analyst* (Serializable) scans the whole accounts table in 1 000-row
//! chunks summing balances, then updates four summary rows and commits.
//! Between chunks the *teller* (Snapshot) runs 50 transfers (read 2,
//! update 2) on Zipf(0.9) keys. The analyst's open snapshot pins the GC
//! horizon while hot rows grow chains, so index, indirection array,
//! chain walk, SI/SSN, epochs/GC and log copy all work — and server,
//! flush wait and 2PC do nothing. Single-threaded, the schedule and hence
//! every count is a function of the seed and the number of cycles run.
//!
//! In-memory log, asynchronous commit, GC on, telemetry on.

use std::time::{Duration, Instant};

use ermia::{AbortReason, Database, DbConfig, IndexId, IsolationLevel, TableId, Worker};

use crate::gen::{key, Rng, Zipf, KEY_LEN};
use crate::run::{counter_metrics, timed_setups, Outcome, Plan, Snap};
use crate::spans::Recorder;
use crate::stats::{iqr_share, median, percentile_sorted, sorted};

pub const ACCOUNTS: u64 = 200_000;
const VALUE_LEN: usize = 100;
const INITIAL_BALANCE: i64 = 1_000;
const CHUNK_ROWS: u64 = 1_000;
const TELLERS_PER_CHUNK: usize = 50;
const SUMMARY_ROWS: u64 = 4;
const ZIPF_THETA: f64 = 0.9;
/// One teller in this many is timed (untraced) or traced.
const LATENCY_SAMPLE: u64 = 8;
const TRACE_SAMPLE: u64 = 64;
/// Scatter Zipf ranks over the key space so hot rows do not share leaves.
/// Odd and not a multiple of 5, hence coprime with `ACCOUNTS`.
const SCATTER: u64 = 0x9e37_79b1;

const TOTAL: i64 = ACCOUNTS as i64 * INITIAL_BALANCE;

fn account_key(id: u64) -> [u8; KEY_LEN] {
    key(b"acct", id, 0)
}

fn balance_of(v: &[u8]) -> i64 {
    i64::from_le_bytes(v[..8].try_into().expect("value holds a balance"))
}

/// One transfer drawn from the stream: two distinct accounts, an amount.
#[derive(Clone, Copy)]
pub struct Transfer {
    pub from: u64,
    pub to: u64,
    pub amount: i64,
}

pub struct TransferGen {
    rng: Rng,
    zipf: Zipf,
}

impl TransferGen {
    pub fn new(seed: u64) -> TransferGen {
        TransferGen { rng: Rng::new(seed), zipf: Zipf::new(ACCOUNTS as usize, ZIPF_THETA) }
    }

    #[inline]
    pub fn next(&mut self) -> Transfer {
        let pick = |g: &mut TransferGen| g.zipf.sample(&mut g.rng).wrapping_mul(SCATTER) % ACCOUNTS;
        let from = pick(self);
        let mut to = pick(self);
        while to == from {
            to = pick(self);
        }
        Transfer { from, to, amount: 1 + self.rng.below(9) as i64 }
    }
}

/// Fingerprint of the first `n` generated operations for `seed`.
#[cfg(test)]
pub fn op_stream_hash(seed: u64, n: usize) -> u64 {
    let mut g = TransferGen::new(seed);
    let mut h = crate::gen::StreamHash::default();
    for _ in 0..n {
        let t = g.next();
        h.push(t.from);
        h.push(t.to);
        h.push(t.amount as u64);
    }
    h.0
}

struct Bank {
    db: Database,
    accounts: TableId,
    accounts_idx: IndexId,
    summary: TableId,
}

fn setup() -> Bank {
    let db = Database::open(DbConfig::in_memory()).expect("in-memory database opens");
    let accounts = db.create_table("accounts");
    let summary = db.create_table("summary");
    let mut w = db.register_worker();
    let mut value = [0u8; VALUE_LEN];
    value[..8].copy_from_slice(&INITIAL_BALANCE.to_le_bytes());
    for base in (0..ACCOUNTS).step_by(1000) {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for id in base..(base + 1000).min(ACCOUNTS) {
            value[8..16].copy_from_slice(&id.to_le_bytes());
            tx.insert(accounts, &account_key(id), &value).expect("load insert");
        }
        tx.commit().expect("load commit");
    }
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for id in 0..SUMMARY_ROWS {
        tx.insert(summary, &key(b"summ", id, 0), &[0u8; 32]).expect("summary insert");
    }
    tx.commit().expect("summary commit");
    drop(w);
    let accounts_idx = db.primary_index(accounts);
    Bank { db, accounts, accounts_idx, summary }
}

/// What the interleave observed, accumulated across phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    analyst_commits: u64,
    wrong_sums: u64,
    aborts: std::collections::BTreeMap<String, u64>,
}

/// The traced run's recorder and its clock (the database tracer's, so
/// harness spans share a timeline with engine spans).
struct Tracing {
    rec: Recorder,
    clock: std::sync::Arc<ermia_telemetry::Tracer>,
}

/// Where the spans of one traced operation hang.
struct Ctx<'a> {
    t: &'a mut Tracing,
    parent: u64,
    trace: u64,
}

/// A context for a span that stands alone (the analyst's calls).
fn solo(t: &mut Option<Tracing>) -> Option<Ctx<'_>> {
    t.as_mut().map(|t| {
        let trace = t.rec.next_id();
        Ctx { t, parent: 0, trace }
    })
}

/// Run `f` under a span when tracing, bare otherwise.
#[inline]
fn spanned<R>(
    cx: &mut Option<Ctx<'_>>,
    name: &'static str,
    units: u64,
    f: impl FnOnce() -> R,
) -> R {
    let Some(cx) = cx else { return f() };
    let t0 = cx.t.clock.now_ns();
    let r = f();
    let t1 = cx.t.clock.now_ns();
    let id = cx.t.rec.next_id();
    cx.t.rec.push(name, id, cx.parent, cx.trace, t0, t1, units);
    r
}

/// One teller transfer. `Ok(())` on commit, the abort label otherwise.
#[inline]
fn teller(
    w: &mut Worker,
    bank: &Bank,
    t: Transfer,
    cx: &mut Option<Ctx<'_>>,
) -> Result<(), &'static str> {
    let (ka, kb) = (account_key(t.from), account_key(t.to));
    let (mut va, mut vb) = ([0u8; VALUE_LEN], [0u8; VALUE_LEN]);
    let mut tx = spanned(cx, "txn-begin", 1, || w.begin(IsolationLevel::Snapshot));
    let mut ops = || -> Result<(), AbortReason> {
        spanned(cx, "txn-read", 1, || tx.read(bank.accounts, &ka, |v| va.copy_from_slice(v)))?
            .ok_or(AbortReason::UserRequested)?;
        spanned(cx, "txn-read", 1, || tx.read(bank.accounts, &kb, |v| vb.copy_from_slice(v)))?
            .ok_or(AbortReason::UserRequested)?;
        let (ba, bb) = (balance_of(&va) - t.amount, balance_of(&vb) + t.amount);
        va[..8].copy_from_slice(&ba.to_le_bytes());
        vb[..8].copy_from_slice(&bb.to_le_bytes());
        spanned(cx, "txn-write", 1, || tx.update(bank.accounts, &ka, &va))?;
        spanned(cx, "txn-write", 1, || tx.update(bank.accounts, &kb, &vb))?;
        Ok(())
    };
    match ops() {
        Ok(()) => {
            spanned(cx, "txn-commit", 1, || tx.commit()).map(|_| ()).map_err(AbortReason::label)
        }
        Err(r) => {
            tx.abort();
            Err(r.label())
        }
    }
}

/// The two workers, the input stream and the running totals.
struct Actors {
    analyst: Worker,
    teller: Worker,
    gen: TransferGen,
    tally: Tally,
    cycle_no: u64,
}

/// One analyst cycle interleaved with its tellers. Returns the commits;
/// the latency of every [`LATENCY_SAMPLE`]th teller goes to `lat_ns` (the
/// clock is read for those only: at a few µs a transaction the meter
/// must stay out of the way).
fn cycle(
    bank: &Bank,
    actors: &mut Actors,
    tracing: &mut Option<Tracing>,
    lat_ns: &mut Vec<f64>,
) -> u64 {
    let Actors { analyst, teller: teller_w, gen, tally, cycle_no } = actors;
    *cycle_no += 1;
    let mut committed = 0;
    let mut tx = spanned(&mut solo(tracing), "analyst.begin", 1, || {
        analyst.begin(IsolationLevel::Serializable)
    });
    let mut sum = 0i64;
    let mut doomed: Option<&'static str> = None;
    let mut teller_no = 0u64;
    for chunk in 0..ACCOUNTS / CHUNK_ROWS {
        if doomed.is_none() {
            let (lo, hi) =
                (account_key(chunk * CHUNK_ROWS), account_key((chunk + 1) * CHUNK_ROWS - 1));
            let scanned = spanned(&mut solo(tracing), "analyst.scan", CHUNK_ROWS, || {
                tx.scan(bank.accounts_idx, &lo, &hi, None, |_, v| {
                    sum += balance_of(v);
                    true
                })
            });
            if let Err(r) = scanned {
                doomed = Some(r.label());
            }
        }
        for _ in 0..TELLERS_PER_CHUNK {
            teller_no += 1;
            tally.attempted += 1;
            let transfer = gen.next();
            let timed =
                (tracing.is_none() && teller_no.is_multiple_of(LATENCY_SAMPLE)).then(Instant::now);
            let outcome = match tracing {
                Some(t) if teller_no.is_multiple_of(TRACE_SAMPLE) => {
                    let root = t.rec.next_id();
                    let t0 = t.clock.now_ns();
                    let r = teller(
                        teller_w,
                        bank,
                        transfer,
                        &mut Some(Ctx { t, parent: root, trace: root }),
                    );
                    let t1 = t.clock.now_ns();
                    t.rec.push("txn.teller", root, 0, root, t0, t1, 1);
                    r
                }
                _ => teller(teller_w, bank, transfer, &mut None),
            };
            match outcome {
                Ok(()) => committed += 1,
                Err(reason) => *tally.aborts.entry(format!("teller:{reason}")).or_default() += 1,
            }
            if let Some(t0) = timed {
                lat_ns.push(t0.elapsed().as_nanos() as f64);
            }
        }
    }
    tally.attempted += 1;
    let mut finish = || -> Result<(), &'static str> {
        if let Some(reason) = doomed {
            return Err(reason);
        }
        let mut row = [0u8; 32];
        row[..8].copy_from_slice(&sum.to_le_bytes());
        row[8..16].copy_from_slice(&cycle_no.to_le_bytes());
        for id in 0..SUMMARY_ROWS {
            let k = key(b"summ", id, 0);
            match spanned(&mut solo(tracing), "analyst.write", 1, || {
                tx.update(bank.summary, &k, &row)
            }) {
                Ok(true) => {}
                Ok(false) => return Err("summary row missing"),
                Err(r) => return Err(r.label()),
            }
        }
        Ok(())
    };
    let analyst_done = match finish() {
        Ok(()) => spanned(&mut solo(tracing), "analyst.commit", 1, || tx.commit())
            .map(|_| ())
            .map_err(AbortReason::label),
        Err(reason) => {
            tx.abort();
            Err(reason)
        }
    };
    match analyst_done {
        Ok(()) => {
            tally.analyst_commits += 1;
            if sum != TOTAL {
                tally.wrong_sums += 1;
            }
            committed += 1;
        }
        Err(reason) => *tally.aborts.entry(format!("analyst:{reason}")).or_default() += 1,
    }
    committed
}

/// What a phase of whole cycles yields.
#[derive(Default)]
struct Phase {
    /// Commits per second of each slice (whole cycles, at least 1 s).
    slice_rates: Vec<f64>,
    commits: u64,
    lat_ns: Vec<f64>,
    backlog_max: u64,
}

/// Run whole cycles until `dur` has passed.
fn cycles_for(
    bank: &Bank,
    actors: &mut Actors,
    tracing: &mut Option<Tracing>,
    dur: Duration,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    while start.elapsed() < dur {
        let (t0, mut commits) = (Instant::now(), 0);
        while t0.elapsed() < Duration::from_secs(1) && start.elapsed() < dur {
            commits += cycle(bank, actors, tracing, &mut p.lat_ns);
        }
        p.slice_rates.push(commits as f64 / t0.elapsed().as_secs_f64());
        p.commits += commits;
        p.backlog_max = p.backlog_max.max(bank.db.epoch_stats().pending);
    }
    p
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let (bank, setup_s) = timed_setups(plan.setups, |_| setup());
    let shards = [bank.db.clone()];
    let mut actors = Actors {
        analyst: bank.db.register_worker(),
        teller: bank.db.register_worker(),
        gen: TransferGen::new(plan.seed),
        tally: Tally::default(),
        cycle_no: 0,
    };
    cycles_for(&bank, &mut actors, &mut None, plan.warm);
    let warm = std::mem::take(&mut actors.tally);

    // Measured phase: single-threaded, so latency and capacity are one
    // phase of latency + capacity seconds, ending on a cycle boundary.
    let reused_of = |a: &Actors| a.analyst.versions_reused() + a.teller.versions_reused();
    let reused_before = reused_of(&actors);
    let before = Snap::take(&shards, None);
    let m = cycles_for(&bank, &mut actors, &mut None, plan.latency + plan.capacity);
    let after = Snap::take(&shards, None);
    let reused = reused_of(&actors) - reused_before;
    let tally = std::mem::take(&mut actors.tally);
    let committed = m.commits;
    let rate = median(&m.slice_rates);
    let lat = sorted(&m.lat_ns);

    out.attempted = tally.attempted;
    for (kind, n) in &tally.aborts {
        out.fail(kind.clone(), *n);
    }
    if out.attempted != committed + out.failed {
        out.wrong(format!(
            "attempted {} != committed {committed} + failed {}",
            out.attempted, out.failed
        ));
    }
    if tally.wrong_sums + warm.wrong_sums > 0 {
        out.wrong(format!(
            "{} analyst sums differ from the invariant total",
            tally.wrong_sums + warm.wrong_sums
        ));
    }
    // The schedule admits no conflict: tellers never overlap each other,
    // and the analyst writes only rows no teller touches.
    if !tally.aborts.is_empty() || !warm.aborts.is_empty() {
        out.wrong(format!(
            "the schedule determines zero aborts, saw {:?} {:?}",
            warm.aborts, tally.aborts
        ));
    }

    out.end_to_end.insert("txn_per_s", rate);
    out.end_to_end.insert("txn_p50_us", median(&m.lat_ns) / 1e3);
    out.end_to_end.insert("setup_s", setup_s);
    out.per_layer
        .insert("cpu_us_per_txn", (after.cpu_us - before.cpu_us) as f64 / committed.max(1) as f64);
    out.notes.push(format!(
        "measured {:.1} s: {committed} commits ({} analyst cycles), {} teller latency samples (1 in {LATENCY_SAMPLE})",
        after.at.duration_since(before.at).as_secs_f64(),
        tally.analyst_commits,
        lat.len()
    ));
    out.notes.push(format!(
        "commits/s per slice: {:?}",
        m.slice_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));

    let pl = &mut out.per_layer;
    counter_metrics(&before, &after, committed, 0, pl);
    pl.insert("client.txn_p99_us", percentile_sorted(&lat, 99.0) / 1e3);
    pl.insert("client.rate_iqr_pct", 100.0 * iqr_share(&m.slice_rates));
    pl.insert("epoch.deferred_backlog_max", m.backlog_max as f64);
    pl.insert("log.durability_rounds_per_txn", 0.0); // in-memory log: no device
    let installs = (committed - tally.analyst_commits) * 2 + tally.analyst_commits * SUMMARY_ROWS;
    pl.insert("storage.version_reuse_pct", 100.0 * reused as f64 / installs.max(1) as f64);

    if plan.trace {
        traced_phase(plan, &bank, &mut actors, rate, &mut out);
    }

    // Final oracle: money is conserved across everything that ran.
    let mut tx = actors.analyst.begin(IsolationLevel::Snapshot);
    let mut sum = 0i64;
    let rows = tx
        .scan(bank.accounts_idx, &account_key(0), &account_key(ACCOUNTS - 1), None, |_, v| {
            sum += balance_of(v);
            true
        })
        .expect("final scan");
    tx.commit().expect("read-only commit");
    if rows as u64 != ACCOUNTS || sum != TOTAL {
        out.wrong(format!(
            "final scan: {rows} rows, total {sum}, expected {ACCOUNTS} rows, total {TOTAL}"
        ));
    }
    out
}

/// The same interleave with sampled harness spans around every engine
/// call; yields the core.* self times and the tracing overhead.
fn traced_phase(
    plan: &Plan,
    bank: &Bank,
    actors: &mut Actors,
    untraced_rate: f64,
    out: &mut Outcome,
) {
    let mut tracing = Some(Tracing {
        rec: Recorder::default(),
        clock: std::sync::Arc::clone(bank.db.telemetry().tracer()),
    });
    let m = cycles_for(bank, actors, &mut tracing, plan.traced);
    let rec = tracing.expect("set above").rec;
    let tally = std::mem::take(&mut actors.tally);
    if tally.wrong_sums > 0 || !tally.aborts.is_empty() {
        out.wrong(format!(
            "traced phase: {} wrong sums, aborts {:?}",
            tally.wrong_sums, tally.aborts
        ));
    }
    let traced_rate = median(&m.slice_rates);
    let s = rec.summarize();
    let pl = &mut out.per_layer;
    pl.insert("core.begin_ns", s.unit_of("txn-begin"));
    pl.insert("core.read_ns", s.unit_of("txn-read"));
    pl.insert("core.write_ns", s.unit_of("txn-write"));
    pl.insert("core.scan_row_ns", s.unit_of("analyst.scan"));
    pl.insert("core.commit_ns", s.unit_of("txn-commit"));
    pl.insert(
        "telemetry.trace_overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate.max(1.0),
    );
    let teller_ns = s.unit_of("txn.teller");
    let parts: f64 =
        ["txn-begin", "txn-read", "txn-write", "txn-commit"].iter().map(|n| s.self_of(n)).sum();
    out.notes.push(format!(
        "reconciliation (teller, {} traced): begin {:.0} + reads {:.0} + writes {:.0} + commit {:.0} + unattributed {:.0} = {:.0} ns vs teller span {:.0} ns; analyst commit {:.0} ns",
        s.traces,
        s.self_of("txn-begin"),
        s.self_of("txn-read"),
        s.self_of("txn-write"),
        s.self_of("txn-commit"),
        s.self_of("txn.teller"),
        parts + s.self_of("txn.teller"),
        teller_ns,
        s.unit_of("analyst.commit"),
    ));
    crate::write_trace(&rec, "embed_hybrid", out);
}
