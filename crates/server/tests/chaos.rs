//! End-to-end crash/chaos harness with a durability oracle.
//!
//! The harness drives the *real* server, over the real wire protocol, in
//! a *separate process*, and SIGKILLs it at seeded-random points under
//! live pipelined client traffic — optionally while the storage backend
//! is injecting ENOSPC/fsync faults and a background checkpointer is
//! running. After every kill it restarts the server on the same data
//! directory and checks every key against the durability oracle of
//! `crates/check` (`ermia_check::journal`: acked ⇒ durable, no
//! fabrication), into whose journal this file turns each reply. Reads
//! taken while the server was live may only observe issued history.
//!
//! The server child is the binary we ship, `ermia-server`, spawned with
//! its settings as flags ([`spawn_server`]); it prints `INDOUBT <n>` and
//! `PORT <n>` and serves until killed. No flag names a table: every
//! client opens `chaos` over the wire like any client would, one of them
//! opens a second table in the middle of each cycle, and the restarted
//! server has to know both — ids included — from its data directory
//! alone.
//!
//! Knobs (environment): `ERMIA_CHAOS_CYCLES` (default 3; the nightly
//! profile runs ≥ 50), `ERMIA_CHAOS_SEED` (default 0xC0FFEE). On an
//! oracle violation the harness writes `oracle-report.txt` and
//! `flight-dump.txt` into the data directory and panics with their
//! paths.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ermia_check::journal::{check, merge, Journal, KeyLog};
use ermia_common::rng::SplitMix64;
use ermia_server::{BatchOp, Client, ErrorCode, Request, Response, WireIsolation};

// ---------------------------------------------------------------------
// Harness plumbing.
// ---------------------------------------------------------------------

/// Fold the reply to the sync batch that carried sequence `seq`.
fn record(log: &mut KeyLog, seq: u64, resp: Response) {
    match resp {
        Response::BatchDone { outcome, .. } => match *outcome {
            Response::Committed { .. } => log.ack(seq),
            // The durability wait failed but the write may still be on
            // disk: indeterminate, not denied.
            Response::Error { code: ErrorCode::LogStalled | ErrorCode::LogFailed, .. } => {}
            // A typed abort or degraded bounce: the server promised this
            // write did not happen.
            Response::Error { .. } => log.deny(seq),
            _ => {}
        },
        // Load-shed before anything ran.
        Response::Busy => log.deny(seq),
        _ => {}
    }
}

/// Spawn the shipped binary on `dir` and wait for its `PORT` line. Returns
/// the child, its port, and how many in-doubt prepared transactions its
/// recovery had to resolve — the proof that a kill landed inside the
/// window. The log is the small, really-syncing one the harness has always
/// killed: 32 KiB segments so kills land on rotations, device syncs on
/// (the `fsync:`/`linger:` plans act on them), 2 s durability waits (the
/// log's one patience, server commits' included) so a faulted cycle ends
/// in a typed error well inside a client's reply timeout.
///
/// The returned `Child` is deliberately live: every caller ends it via
/// `sigkill`, which kills and reaps it.
#[allow(clippy::zombie_processes)]
fn spawn_server(dir: &Path, fault: &str, ckpt_ms: u64, shards: usize) -> (Child, u16, u64) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ermia-server"))
        .args(["127.0.0.1:0", "--fsync", "--fault-plan", fault, "--data-dir"])
        .arg(dir)
        .args(["--shards", &shards.to_string(), "--checkpoint-ms", &ckpt_ms.to_string()])
        .args(["--segment-size", "32768", "--buffer-size", "262144", "--flush-interval-us", "100"])
        .args(["--wait-durable-ms", "2000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut in_doubt = 0u64;
    for line in &mut lines {
        let line = line.expect("read child stdout");
        if let Some(n) = line.strip_prefix("INDOUBT ") {
            in_doubt = n.trim().parse().expect("child in-doubt count");
        }
        if let Some(port) = line.strip_prefix("PORT ") {
            let port = port.trim().parse().expect("child port");
            // Keep draining stdout in the background so the child never
            // blocks on a full pipe (the harness reads nothing else).
            std::thread::spawn(move || for _ in lines {});
            return (child, port, in_doubt);
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("server child exited without printing PORT (fault={fault})");
}

fn sigkill(mut child: Child) {
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();
}

/// What one pipelined request is waiting to learn.
enum InFlight {
    Put { key: Vec<u8>, seq: u64 },
    Get { key: Vec<u8> },
}

/// One client worker: pipelined sync-commit upserts into its own key
/// namespace, interleaved with snapshot reads, journaling every outcome
/// until the server dies or `stop` is raised. Starts from the merged
/// journal of earlier cycles so a read observing a previous cycle's
/// write is recognized as issued history.
fn client_traffic(
    port: u16,
    cid: usize,
    seq: &AtomicU64,
    stop: &AtomicBool,
    mut journal: Journal,
) -> Journal {
    let Ok(mut c) = Client::connect(("127.0.0.1", port)) else { return journal };
    let _ = c.set_reply_timeout(Some(Duration::from_secs(3)));
    let Ok(chaos) = c.open_table("chaos") else { return journal };

    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let mut rng = SplitMix64::new(0xA5A5_0000 ^ cid as u64);
    let mut alive = true;
    // Client 0 opens a second table mid-cycle — once its pipeline has
    // drained: `open_table` reads the next reply — and from then on
    // sends every other request there. A refused open (degraded server)
    // leaves it on the first table.
    let mut late = None;
    let mut opened = cid != 0;
    let mut replies = 0u32;
    while alive && !stop.load(Ordering::Relaxed) {
        if !opened && replies >= 16 && pending.is_empty() {
            late = c.open_table(LATE_TABLE).ok();
            opened = true;
        }
        // Keep up to 4 requests on the wire.
        while (opened || replies < 16) && pending.len() < 4 {
            let (table, key) = match late {
                Some(late) if rng.below(2) == 0 => {
                    (late, format!("c{cid}-late-k{:02}", rng.below(8)))
                }
                _ => (chaos, format!("c{cid}-k{:02}", rng.below(8))),
            };
            let key = key.into_bytes();
            if rng.below(8) == 0 {
                if c.send(&Request::Get { table, key: key.clone() }).is_err() {
                    alive = false;
                    break;
                }
                pending.push_back(InFlight::Get { key });
            } else {
                let s = seq.fetch_add(1, Ordering::Relaxed);
                let put = BatchOp::Put {
                    table,
                    key: key.clone(),
                    value: format!("{s:010}").into_bytes(),
                };
                // Issued the moment bytes may leave: journal first.
                journal.entry(key.clone()).or_default().issue(s);
                let batch = Request::Batch {
                    isolation: WireIsolation::Snapshot,
                    sync: true,
                    ops: vec![put],
                };
                if c.send(&batch).is_err() {
                    alive = false;
                    break;
                }
                pending.push_back(InFlight::Put { key, seq: s });
            }
        }
        match c.recv() {
            Ok(resp) => resolve(&mut journal, pending.pop_front().expect("reply owed"), resp),
            Err(_) => alive = false, // killed mid-stream or timed out
        }
        replies += 1;
    }
    // Whatever is still unanswered stays indeterminate: issued, not
    // acked, not denied — exactly what the oracle allows either way.
    journal
}

/// Fold one reply into the journal.
fn resolve(journal: &mut Journal, sent: InFlight, resp: Response) {
    match sent {
        InFlight::Put { key, seq } => record(journal.entry(key).or_default(), seq, resp),
        InFlight::Get { key } => {
            // Snapshot sanity: a live read may observe any *issued* write
            // (including one whose ack we have not received yet), never
            // an unissued value.
            if let Response::Value { value: Some(v) } = resp {
                let entry = journal.entry(key.clone()).or_default();
                let seen: u64 = String::from_utf8_lossy(&v).parse().unwrap_or(u64::MAX);
                assert!(
                    entry.issued.contains(&seen),
                    "live read on {:?} observed unissued value {seen}",
                    String::from_utf8_lossy(&key),
                );
            }
        }
    }
}

/// Background hot-backup shipper riding along with the chaos traffic:
/// subscribe (pinning the log against the child's checkpointer
/// truncating it), then tail durable chunks until the kill. Every error
/// is tolerated — the server is being SIGKILLed underneath — but the
/// pin and the fetch load must never wedge the server or dent the
/// durability oracle. Returns bytes shipped, purely informational.
fn shipper_traffic(port: u16, stop: &AtomicBool) -> u64 {
    let mut shipped = 0u64;
    let Ok(mut c) = Client::connect(("127.0.0.1", port)) else { return 0 };
    let _ = c.set_reply_timeout(Some(Duration::from_secs(3)));
    let mut cursor = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let Ok(status) = c.subscribe(0, cursor) else { break };
        cursor = cursor.max(status.earliest);
        let mut moved = false;
        for &(_, start, end) in &status.segments {
            cursor = cursor.max(start);
            while cursor < end {
                match c.fetch_chunk(0, 1, cursor, 16 << 10) {
                    Ok(data) if !data.is_empty() => {
                        cursor += data.len() as u64;
                        shipped += data.len() as u64;
                        moved = true;
                    }
                    Ok(_) => break,
                    Err(_) => return shipped,
                }
            }
        }
        if !moved {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    shipped
}

/// Restart the server cleanly on `dir` and check every key against the
/// journal. Panics with a written report on any violation.
fn verify_recovery(dir: &Path, journal: &Journal, cycle: usize) {
    let (child, port, _) = spawn_server(dir, "none", 0, 1);
    let (mut c, recovered) = oracle_scan(port);
    let mut violations: Vec<String> = Vec::new();
    for (key, log) in journal {
        let name = String::from_utf8_lossy(key);
        violations.extend(check(&name, recovered.get(key).copied(), log));
    }
    for key in recovered.keys() {
        if !journal.contains_key(key) {
            violations
                .push(format!("fabricated key {:?} after recovery", String::from_utf8_lossy(key)));
        }
    }

    // Liveness after recovery: no leaked transaction slots.
    let metrics = c.metrics().expect("oracle metrics scrape");
    let exposition = ermia_telemetry::parse_exposition(&metrics).expect("metrics parse");
    if exposition.sum("ermia_tid_slots_in_use", None) != Some(0.0) {
        violations.push("transaction slots leaked across recovery".into());
    }

    let title = format!("durability-oracle (cycle {cycle}, {} keys journaled)", journal.len());
    conclude(dir, &title, &violations, &mut c, child);
}

/// The table one client opens in the middle of a cycle; its keys carry
/// `-late-`, so the two tables' rows journal side by side.
const LATE_TABLE: &str = "chaos-late";

/// Connect to a freshly recovered server and read both tables back as
/// key → sequence.
fn oracle_scan(port: u16) -> (Client, HashMap<Vec<u8>, u64>) {
    let mut c = Client::connect(("127.0.0.1", port)).expect("oracle client connect");
    c.set_reply_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut recovered = HashMap::new();
    for name in ["chaos", LATE_TABLE] {
        let table = c.open_table(name).unwrap();
        let (rows, truncated) = c.scan(table, b"", &[0xFF], 0).expect("oracle scan");
        assert!(!truncated, "oracle scan must fit one frame");
        for (k, v) in rows {
            assert_eq!(k.windows(6).any(|w| w == b"-late-"), name == LATE_TABLE, "{name}: {k:?}");
            recovered.insert(k, String::from_utf8_lossy(&v).parse().unwrap_or(u64::MAX));
        }
    }
    (c, recovered)
}

/// End one oracle pass: kill the server it ran against and, on any
/// violation, leave `oracle-report.txt` and `flight-dump.txt` in `dir`
/// and panic with their path.
fn conclude(dir: &Path, title: &str, violations: &[String], c: &mut Client, child: Child) {
    if !violations.is_empty() {
        let report = dir.join("oracle-report.txt");
        let mut out = format!("{title} violations:\n");
        for v in violations {
            out.push_str(&format!("  - {v}\n"));
        }
        let _ = std::fs::write(&report, &out);
        let dump = c.dump_traces(256).unwrap_or_default();
        let _ = std::fs::write(dir.join("flight-dump.txt"), dump);
        sigkill(child);
        panic!("{out}reports written to {}", report.display());
    }
    sigkill(child);
}

// ---------------------------------------------------------------------
// The command line the harness relies on.
// ---------------------------------------------------------------------

/// A fault plan given to the binary fires: with `--fsync --fault-plan
/// fsync:2` one of the first sync commits is answered with the typed log
/// failure and `Health` turns degraded. (A server whose log never syncs
/// would ack every one of them.)
#[test]
fn server_binary_fault_plan_is_live() {
    let dir = ermia_common::TestDir::new("binary-fault-plan");
    let (child, port, _) = spawn_server(&dir, "fsync:2", 0, 1);
    let mut c = Client::connect(("127.0.0.1", port)).expect("connect");
    c.set_reply_timeout(Some(Duration::from_secs(10))).unwrap();
    let table = c.open_table("chaos").unwrap();
    let failed = (0..8u32).find_map(|i| {
        c.begin(WireIsolation::Snapshot).unwrap();
        c.put(table, &i.to_be_bytes(), b"v").unwrap();
        c.commit(true).err()
    });
    match failed {
        Some(ermia_server::ClientError::Server { code: ErrorCode::LogFailed, .. }) => {}
        other => panic!("the third device sync fails, so a commit must: got {other:?}"),
    }
    assert!(c.health().unwrap().degraded, "a poisoned log must surface on Health");
    sigkill(child);
}

/// What the binary cannot serve it refuses, naming the flag: a plan that
/// acts on device syncs without `--fsync` (it would never fire), and a
/// flag it does not know (`--shard 4` is not an address).
#[test]
fn server_binary_refuses_what_it_cannot_serve() {
    let dir = ermia_common::TestDir::new("binary-refusals");
    // Every refusal is a usage error: exit status 2.
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_ermia-server"))
            .args(["127.0.0.1:0", "--data-dir"])
            .arg(&*dir)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run ermia-server");
        (out.status.code() == Some(2), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    for plan in ["fsync:2", "linger:25"] {
        let (refused, stderr) = run(&["--fault-plan", plan]);
        assert!(refused && stderr.contains("--fsync"), "{plan} without --fsync: {stderr}");
    }
    let (refused, stderr) = run(&["--shard", "4"]);
    assert!(refused && stderr.contains("unknown flag --shard"), "{stderr}");
    assert!(stderr.contains("--shards <n>"), "the error lists the valid flags: {stderr}");
    // A flag that is gone is refused like any unknown one. A durability
    // wait has one patience, the log's (`--wait-durable-ms`).
    let gone = "--sync-wait-ms";
    let (refused, stderr) = run(&[gone, "10"]);
    assert!(refused && stderr.contains(&format!("unknown flag {gone}")), "{stderr}");
}

// ---------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------

/// Seeded kill/restart cycles with the durability oracle. Per-PR smoke
/// runs 3 cycles; set `ERMIA_CHAOS_CYCLES=50` (and a seed per matrix
/// cell) for the nightly profile.
#[test]
fn chaos_seeded_kill_restart_cycles() {
    let cycles: usize =
        std::env::var("ERMIA_CHAOS_CYCLES").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let seed: u64 =
        std::env::var("ERMIA_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0xC0_FFEE);
    let mut rng = SplitMix64::new(seed);

    let dir = std::env::temp_dir().join(format!("ermia-chaos-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut journal = Journal::new();
    let seq = Arc::new(AtomicU64::new(0));
    for cycle in 0..cycles {
        // Kill-point class: fault profile × checkpointer × kill delay.
        let fault = match rng.below(3) {
            0 => "none".to_string(),
            1 => format!("enospc:{}", 64 << 10 | (rng.below(128) << 10)),
            _ => format!("fsync:{}", 20 + rng.below(40)),
        };
        let ckpt_ms = if rng.below(2) == 0 { 25 } else { 0 };
        let kill_after = Duration::from_millis(100 + rng.below(250));

        let (child, port, _) = spawn_server(&dir, &fault, ckpt_ms, 1);
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..3)
            .map(|cid| {
                let (seq, stop) = (Arc::clone(&seq), Arc::clone(&stop));
                let history = journal.clone();
                std::thread::spawn(move || client_traffic(port, cid, &seq, &stop, history))
            })
            .collect();
        // A hot-backup shipper rides along, pinning and tailing the log
        // while the server dies under it.
        let shipper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || shipper_traffic(port, &stop))
        };

        std::thread::sleep(kill_after);
        sigkill(child); // the crash: no warning, no flush, no goodbye
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            merge(&mut journal, w.join().expect("client worker"));
        }
        let shipped = shipper.join().expect("shipper thread");

        // Stats before the oracle: a violation panic must not eat the
        // failing cycle's kill-point profile.
        eprintln!(
            "chaos cycle {cycle}: fault={fault} ckpt={ckpt_ms}ms kill_after={kill_after:?} \
             keys={} acked_keys={} shipped={shipped}B",
            journal.len(),
            journal.values().filter(|l| l.acked.is_some()).count()
        );
        verify_recovery(&dir, &journal, cycle);
    }
    assert!(
        journal.values().any(|l| l.acked.is_some()),
        "harness must ack at least one durable write across {cycles} cycles"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 2PC torture: SIGKILL between prepare and decide.
// ---------------------------------------------------------------------

/// Shard count for the 2PC torture run.
const TWO_PC_SHARDS: usize = 2;

/// For client `cid`, a pair of keys guaranteed to hash to *different*
/// shards of a [`TWO_PC_SHARDS`]-way engine, so one sync batch writing
/// both is a cross-shard two-phase commit.
fn cross_shard_pair(cid: usize) -> (Vec<u8>, Vec<u8>) {
    let a = format!("p{cid}-a").into_bytes();
    let sa = ermia::shard_of_key(&a, TWO_PC_SHARDS);
    let b = (0u32..)
        .map(|j| format!("p{cid}-b{j}").into_bytes())
        .find(|k| ermia::shard_of_key(k, TWO_PC_SHARDS) != sa)
        .expect("some key hashes to the other shard");
    (a, b)
}

/// One 2PC client: *serial* sync batches, each writing both keys of its
/// cross-shard pair with the same sequence value. Serial (not
/// pipelined) so the pair's committed history is totally ordered and
/// atomicity reduces to "both keys recover to the same value".
fn pair_traffic(
    port: u16,
    cid: usize,
    stop: &AtomicBool,
    mut log: KeyLog,
    start: u64,
) -> (KeyLog, u64) {
    let mut s = start;
    let Ok(mut c) = Client::connect(("127.0.0.1", port)) else { return (log, s) };
    let _ = c.set_reply_timeout(Some(Duration::from_secs(3)));
    let Ok(table) = c.open_table("chaos") else { return (log, s) };
    let (ka, kb) = cross_shard_pair(cid);
    while !stop.load(Ordering::Relaxed) {
        s += 1;
        let value = format!("{s:010}").into_bytes();
        log.issue(s);
        let ops = vec![
            BatchOp::Put { table, key: ka.clone(), value: value.clone() },
            BatchOp::Put { table, key: kb.clone(), value },
        ];
        let batch = Request::Batch { isolation: WireIsolation::Snapshot, sync: true, ops };
        if c.send(&batch).is_err() {
            break;
        }
        match c.recv() {
            Ok(resp) => record(&mut log, s, resp),
            Err(_) => break, // killed mid-commit: indeterminate
        }
    }
    (log, s)
}

/// Seeded 2PC crash-recovery torture (issue acceptance: ≥ 25 cycles).
///
/// The child runs 2 shards on a device whose every finished fsync
/// returns ~25 ms late (fault plan `linger:25`), while clients hammer
/// sync cross-shard pair-writes — so a seeded-random SIGKILL usually
/// lands where *the prepares are on disk and nobody has been told*: no
/// participant published, no verdict record written. After each kill
/// the oracle restarts the engine and checks, per pair:
///
/// * **atomicity** — both keys recover to the *same* sequence (a 2PC
///   either applied on both shards or on neither);
/// * **acked ⇒ durable** — the recovered sequence is ≥ the acked
///   frontier, was issued, and was never denied;
/// * **no in-doubt residue** — `ermia_shard_in_doubt` is 0 and no
///   transaction slots leak after recovery.
///
/// Across all cycles at least one recovery must actually have resolved
/// an in-doubt prepare, proving the kills exercise the window.
#[test]
fn chaos_2pc_kill_between_prepare_and_decide() {
    let cycles: usize =
        std::env::var("ERMIA_CHAOS_2PC_CYCLES").ok().and_then(|v| v.parse().ok()).unwrap_or(25);
    let seed: u64 =
        std::env::var("ERMIA_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0x2BC0_FFEE);
    let mut rng = SplitMix64::new(seed);
    const LINGER: &str = "linger:25";
    const CLIENTS: usize = 3;

    let dir = std::env::temp_dir().join(format!("ermia-chaos2pc-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut logs: Vec<KeyLog> = vec![KeyLog::default(); CLIENTS];
    let mut next_seq: Vec<u64> = vec![0; CLIENTS];
    let mut in_doubt_resolved_total = 0u64;
    for cycle in 0..cycles {
        let kill_after = Duration::from_millis(80 + rng.below(200));
        let (child, port, resolved) = spawn_server(&dir, LINGER, 0, TWO_PC_SHARDS);
        in_doubt_resolved_total += resolved;

        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..CLIENTS)
            .map(|cid| {
                let stop = Arc::clone(&stop);
                let log = logs[cid].clone();
                let start = next_seq[cid];
                std::thread::spawn(move || pair_traffic(port, cid, &stop, log, start))
            })
            .collect();
        std::thread::sleep(kill_after);
        sigkill(child); // lands inside a ~25 ms durable-but-untold window
        stop.store(true, Ordering::Relaxed);
        for (cid, w) in workers.into_iter().enumerate() {
            let (log, seq) = w.join().expect("2pc client");
            logs[cid] = log;
            next_seq[cid] = seq;
        }

        // Restart and verify: the oracle server itself performs the
        // in-doubt resolution under test.
        let (vchild, vport, vresolved) = spawn_server(&dir, "none", 0, TWO_PC_SHARDS);
        in_doubt_resolved_total += vresolved;
        eprintln!(
            "2pc cycle {cycle}: kill_after={kill_after:?} resolved_in_doubt={vresolved} \
             acked={:?}",
            logs.iter().map(|l| l.acked).collect::<Vec<_>>()
        );
        let (mut c, recovered) = oracle_scan(vport);

        let mut violations: Vec<String> = Vec::new();
        for (cid, log) in logs.iter().enumerate() {
            let (ka, kb) = cross_shard_pair(cid);
            let (ra, rb) = (recovered.get(&ka).copied(), recovered.get(&kb).copied());
            if ra != rb {
                violations.push(format!(
                    "pair {cid}: atomicity broken — shards disagree ({ra:?} vs {rb:?})"
                ));
                continue;
            }
            violations.extend(check(&format!("pair {cid}"), ra, log));
        }
        // No in-doubt residue and no leaked slots after recovery.
        let metrics = c.metrics().expect("2pc oracle metrics");
        let exposition = ermia_telemetry::parse_exposition(&metrics).expect("metrics parse");
        if exposition.value("ermia_shard_in_doubt") != Some(0.0) {
            violations.push("in-doubt transactions left unresolved after restart".into());
        }
        if exposition.sum("ermia_tid_slots_in_use", None) != Some(0.0) {
            violations.push("transaction slots leaked across 2PC recovery".into());
        }

        conclude(&dir, &format!("2pc-oracle (cycle {cycle})"), &violations, &mut c, vchild);
    }
    assert!(
        logs.iter().any(|l| l.acked.is_some()),
        "harness must ack at least one cross-shard commit across {cycles} cycles"
    );
    assert!(
        in_doubt_resolved_total > 0,
        "no kill ever landed between prepare and decide across {cycles} cycles — \
         lengthen the sync linger or check the window instrumentation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
