//! End-to-end crash/chaos harness with a durability oracle.
//!
//! The harness drives the *real* server, over the real wire protocol, in
//! a *separate process*, and SIGKILLs it at seeded-random points under
//! live pipelined client traffic — optionally while the storage backend
//! is injecting ENOSPC/fsync faults and a background checkpointer is
//! running. After every kill it restarts the server on the same data
//! directory and checks the durability oracle:
//!
//! * **acked ⇒ durable** — every sync commit the client saw acknowledged
//!   is present after recovery;
//! * **no fabrication** — every recovered value was actually issued, and
//!   never a write the server *definitively denied* (abort/degraded
//!   bounce);
//! * **snapshot sanity** — reads taken while the server was live only
//!   ever observe issued history.
//!
//! The server child is this same test binary re-executed with
//! `ERMIA_CHAOS_CHILD=1` and filtered to [`chaos_child_server`], which
//! turns from a no-op test into a server process that prints `PORT <n>`
//! and parks until killed.
//!
//! Knobs (environment): `ERMIA_CHAOS_CYCLES` (default 3; the nightly
//! profile runs ≥ 50), `ERMIA_CHAOS_SEED` (default 0xC0FFEE). On an
//! oracle violation the harness writes `oracle-report.txt` and
//! `flight-dump.txt` into the data directory and panics with their
//! paths.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ermia_server::{BatchOp, Client, ErrorCode, Request, Response, WireIsolation};

// ---------------------------------------------------------------------
// The child: a real server process, driven entirely by environment.
// ---------------------------------------------------------------------

/// No-op under a normal test run. With `ERMIA_CHAOS_CHILD=1` this *is*
/// the server process the harness kills: it opens (and recovers) the
/// database in `ERMIA_CHAOS_DIR`, applies the fault profile from
/// `ERMIA_CHAOS_FAULT` (`none`, `enospc:<bytes>`, `fsync:<n>`, `linger:<ms>`), starts
/// an optional background checkpointer (`ERMIA_CHAOS_CKPT_MS`), prints
/// `PORT <n>`, and parks on stdin until SIGKILLed.
#[test]
fn chaos_child_server() {
    if std::env::var("ERMIA_CHAOS_CHILD").is_err() {
        return;
    }
    use ermia::{DbConfig, ShardedDb};
    use ermia_log::{FaultInjector, FaultPlan, LogConfig};

    let dir = PathBuf::from(std::env::var("ERMIA_CHAOS_DIR").expect("child needs a data dir"));
    let plan: FaultPlan =
        std::env::var("ERMIA_CHAOS_FAULT").unwrap_or_default().parse().expect("child: fault plan");
    let shards: usize = std::env::var("ERMIA_CHAOS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1);

    let mut cfg = DbConfig::durable(&dir);
    cfg.log = LogConfig {
        dir: Some(dir),
        segment_size: 32 << 10,
        buffer_size: 256 << 10,
        fsync: true,
        flush_interval: Duration::from_micros(100),
        io_factory: Arc::new(FaultInjector::new(plan)),
        wait_durable_timeout: Duration::from_secs(2),
    };
    let db = ShardedDb::open(cfg, shards).expect("child: open database");
    db.create_table("chaos");
    let stats =
        db.recover().expect("child: recovery must succeed on any crash-consistent dir");
    // How many in-doubt (prepared, undecided-locally) transactions this
    // recovery resolved — the 2PC harness asserts kills actually landed
    // between prepare and decide.
    println!("INDOUBT {}", stats.resolved_commits + stats.resolved_aborts);

    let ckpt_ms: u64 = std::env::var("ERMIA_CHAOS_CKPT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if ckpt_ms > 0 {
        let ckpt_db = db.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(ckpt_ms));
            // Checkpoints may fail while the log is faulted; the harness
            // only cares that a kill can land mid-checkpoint.
            let _ = ckpt_db.checkpoint();
        });
    }

    let scfg = ermia_server::ServerConfig {
        sync_wait: Duration::from_secs(2),
        ..ermia_server::ServerConfig::default()
    };
    let srv = ermia_server::Server::start_sharded(&db, "127.0.0.1:0", scfg).expect("child: bind");
    println!("PORT {}", srv.local_addr().port());
    let _ = std::io::stdout().flush();

    // Park until the harness kills us (or closes our stdin).
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).map(|n| n > 0).unwrap_or(false) {}
}

// ---------------------------------------------------------------------
// Harness plumbing.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Everything the oracle knows about one key.
#[derive(Default, Clone)]
struct KeyLog {
    /// Highest sequence acknowledged durable (sync commit `Committed`).
    acked: Option<u64>,
    /// Every sequence ever sent for this key.
    issued: BTreeSet<u64>,
    /// Sequences the server *definitively* refused (typed abort, Busy,
    /// degraded bounce): they were never applied and must never surface.
    denied: BTreeSet<u64>,
}

type Journal = HashMap<Vec<u8>, KeyLog>;

fn merge(into: &mut Journal, from: Journal) {
    for (k, v) in from {
        let e = into.entry(k).or_default();
        e.acked = e.acked.max(v.acked);
        e.issued.extend(v.issued);
        e.denied.extend(v.denied);
    }
}

/// Spawn the server child on `dir` and wait for its `PORT` line.
///
/// The returned `Child` is deliberately live: every caller ends it via
/// `sigkill`, which kills and reaps it.
fn spawn_server(dir: &Path, fault: &str, ckpt_ms: u64) -> (Child, u16) {
    let (child, port, _) = spawn_server_with(dir, fault, ckpt_ms, 1);
    (child, port)
}

/// [`spawn_server`] with an explicit shard count, forwarded to the
/// child. Additionally returns how many in-doubt prepared transactions
/// the child's recovery had to resolve — the proof that a kill landed
/// inside the window.
#[allow(clippy::zombie_processes)]
fn spawn_server_with(
    dir: &Path,
    fault: &str,
    ckpt_ms: u64,
    shards: usize,
) -> (Child, u16, u64) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .arg("chaos_child_server")
        .arg("--exact")
        .arg("--nocapture")
        .env("ERMIA_CHAOS_CHILD", "1")
        .env("ERMIA_CHAOS_DIR", dir)
        .env("ERMIA_CHAOS_FAULT", fault)
        .env("ERMIA_CHAOS_CKPT_MS", ckpt_ms.to_string())
        .env("ERMIA_CHAOS_SHARDS", shards.to_string())
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
        // The libtest harness prints `test chaos_child_server ... ` on
        // the same line before the child's own output, so the markers
        // are not necessarily at line start.
        if let Some((_, n)) = line.split_once("INDOUBT ") {
            in_doubt = n.trim().parse().unwrap_or(0);
        }
        if let Some((_, port)) = line.split_once("PORT ") {
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
    let Ok(table) = c.open_table("chaos") else { return journal };

    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let mut rng = Rng(0xA5A5_0000 ^ cid as u64);
    let mut alive = true;
    while alive && !stop.load(Ordering::Relaxed) {
        // Keep up to 4 requests on the wire.
        while pending.len() < 4 {
            let key = format!("c{cid}-k{:02}", rng.below(8)).into_bytes();
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
                journal.entry(key.clone()).or_default().issued.insert(s);
                let batch =
                    Request::Batch { isolation: WireIsolation::Snapshot, sync: true, ops: vec![put] };
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
    }
    // Whatever is still unanswered stays indeterminate: issued, not
    // acked, not denied — exactly what the oracle allows either way.
    journal
}

/// Fold one reply into the journal.
fn resolve(journal: &mut Journal, sent: InFlight, resp: Response) {
    match sent {
        InFlight::Put { key, seq } => {
            let entry = journal.entry(key).or_default();
            match resp {
                Response::BatchDone { outcome, .. } => match *outcome {
                    Response::Committed { .. } => entry.acked = entry.acked.max(Some(seq)),
                    Response::Error { code, .. } => match code {
                        // The durability wait failed but the write may
                        // still be on disk: indeterminate, not denied.
                        ErrorCode::LogStalled | ErrorCode::LogFailed => {}
                        // A typed abort or degraded bounce: the server
                        // promised this write did not happen.
                        _ => {
                            entry.denied.insert(seq);
                        }
                    },
                    _ => {}
                },
                // Load-shed before anything ran.
                Response::Busy => {
                    entry.denied.insert(seq);
                }
                _ => {}
            }
        }
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
    let (child, port) = spawn_server(dir, "none", 0);
    let (mut c, recovered) = oracle_scan(port);
    let mut violations: Vec<String> = Vec::new();
    for (key, log) in journal {
        let name = String::from_utf8_lossy(key);
        check_recovered(&name, recovered.get(key).copied(), log, &mut violations);
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
    if exposition.value("ermia_tid_slots_in_use") != Some(0.0) {
        violations.push("transaction slots leaked across recovery".into());
    }

    let title = format!("durability-oracle (cycle {cycle}, {} keys journaled)", journal.len());
    conclude(dir, &title, &violations, &mut c, child);
}

/// Connect to a freshly recovered server and read table `chaos` back as
/// key → sequence.
fn oracle_scan(port: u16) -> (Client, HashMap<Vec<u8>, u64>) {
    let mut c = Client::connect(("127.0.0.1", port)).expect("oracle client connect");
    c.set_reply_timeout(Some(Duration::from_secs(10))).unwrap();
    let table = c.open_table("chaos").unwrap();
    let (rows, truncated) = c.scan(table, b"", &[0xFF], 0).expect("oracle scan");
    assert!(!truncated, "oracle scan must fit one frame");
    let recovered = rows
        .into_iter()
        .map(|(k, v)| (k, String::from_utf8_lossy(&v).parse().unwrap_or(u64::MAX)))
        .collect();
    (c, recovered)
}

/// What the journal allows `name` to have recovered to: nothing only if
/// nothing was acked; otherwise an issued, never denied sequence at or
/// past the acked frontier.
fn check_recovered(name: &str, recovered: Option<u64>, log: &KeyLog, violations: &mut Vec<String>) {
    match (recovered, log.acked) {
        (None, Some(a)) => violations.push(format!("{name}: acked seq {a} lost — absent")),
        (None, None) => {}
        (Some(r), acked) => {
            if !log.issued.contains(&r) {
                violations.push(format!("{name}: recovered unissued value {r}"));
            }
            if log.denied.contains(&r) {
                violations.push(format!("{name}: recovered value {r} the server denied"));
            }
            if acked.is_some_and(|a| r < a) {
                violations.push(format!("{name}: recovered {r}, older than acked {acked:?}"));
            }
        }
    }
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
        let dump = c.dump_events(256).unwrap_or_default();
        let _ = std::fs::write(dir.join("flight-dump.txt"), dump);
        sigkill(child);
        panic!("{out}reports written to {}", report.display());
    }
    sigkill(child);
}

// ---------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------

/// Seeded kill/restart cycles with the durability oracle. Per-PR smoke
/// runs 3 cycles; set `ERMIA_CHAOS_CYCLES=50` (and a seed per matrix
/// cell) for the nightly profile.
#[test]
fn chaos_seeded_kill_restart_cycles() {
    if std::env::var("ERMIA_CHAOS_CHILD").is_ok() {
        return; // we are a child process; only chaos_child_server acts
    }
    let cycles: usize =
        std::env::var("ERMIA_CHAOS_CYCLES").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let seed: u64 = std::env::var("ERMIA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0_FFEE);
    let mut rng = Rng(seed);

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

        let (child, port) = spawn_server(&dir, &fault, ckpt_ms);
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
fn pair_traffic(port: u16, cid: usize, stop: &AtomicBool, mut log: KeyLog, start: u64) -> (KeyLog, u64) {
    let mut s = start;
    let Ok(mut c) = Client::connect(("127.0.0.1", port)) else { return (log, s) };
    let _ = c.set_reply_timeout(Some(Duration::from_secs(3)));
    let Ok(table) = c.open_table("chaos") else { return (log, s) };
    let (ka, kb) = cross_shard_pair(cid);
    while !stop.load(Ordering::Relaxed) {
        s += 1;
        let value = format!("{s:010}").into_bytes();
        log.issued.insert(s);
        let ops = vec![
            BatchOp::Put { table, key: ka.clone(), value: value.clone() },
            BatchOp::Put { table, key: kb.clone(), value },
        ];
        let batch = Request::Batch { isolation: WireIsolation::Snapshot, sync: true, ops };
        if c.send(&batch).is_err() {
            break;
        }
        match c.recv() {
            Ok(Response::BatchDone { outcome, .. }) => match *outcome {
                Response::Committed { .. } => log.acked = log.acked.max(Some(s)),
                Response::Error { code, .. } => match code {
                    // Durability wait failed; the decide may still be on
                    // disk. Indeterminate: neither acked nor denied.
                    ErrorCode::LogStalled | ErrorCode::LogFailed => {}
                    _ => {
                        log.denied.insert(s);
                    }
                },
                _ => {}
            },
            Ok(Response::Busy) => {
                log.denied.insert(s);
            }
            Ok(_) => {}
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
    if std::env::var("ERMIA_CHAOS_CHILD").is_ok() {
        return; // we are a child process; only chaos_child_server acts
    }
    let cycles: usize = std::env::var("ERMIA_CHAOS_2PC_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let seed: u64 = std::env::var("ERMIA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x2BC0_FFEE);
    let mut rng = Rng(seed);
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
        let (child, port, resolved) =
            spawn_server_with(&dir, LINGER, 0, TWO_PC_SHARDS);
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
        let (vchild, vport, vresolved) =
            spawn_server_with(&dir, "none", 0, TWO_PC_SHARDS);
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
            check_recovered(&format!("pair {cid}"), ra, log, &mut violations);
        }
        // No in-doubt residue and no leaked slots after recovery.
        let metrics = c.metrics().expect("2pc oracle metrics");
        let exposition = ermia_telemetry::parse_exposition(&metrics).expect("metrics parse");
        if exposition.value("ermia_shard_in_doubt") != Some(0.0) {
            violations.push("in-doubt transactions left unresolved after restart".into());
        }
        if exposition.value("ermia_tid_slots_in_use") != Some(0.0) {
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
