//! The ERMIA server.
//!
//! ```sh
//! ermia-server 127.0.0.1:7878
//! ermia-server 127.0.0.1:7878 --shards 4
//! ermia-server 127.0.0.1:0 --data-dir /var/tmp/ermia --fsync
//! ```
//!
//! `--shards N` partitions the engine into N independent shard domains
//! (log, epochs, TID space; shard `i` logs under `<dir>/shard-<i>`); keys
//! hash-route to a home shard and transactions that touch several
//! shards commit with two-phase commit. The default is one shard: N logs
//! have not beaten one group-committed log on the hosts measured so far
//! (EXPERIMENTS.md, "One log or N").
//!
//! `--data-dir DIR` names the durable directory. It is reused across
//! restarts and describes itself: every start recovers what the previous
//! incarnation made durable — the tables clients opened over the wire,
//! under the ids they had, and every acknowledged row in them.
//!
//! Stdout starts with two machine-readable lines — `INDOUBT <n>`, the
//! cross-shard prepares recovery had to resolve, then `PORT <n>` — so an
//! orchestrator can bind port 0, read them, hammer the server and
//! SIGKILL it. That is what the chaos harness
//! (`crates/server/tests/chaos.rs`) does to this binary, with:
//!
//! * `--fault-plan` injecting storage faults (`ermia_log::FaultPlan`'s
//!   `FromStr`): `enospc:<bytes>` (fail writes past a byte budget) or
//!   `fsync:<n>` (fail the nth device sync) for degraded-mode drills —
//!   pair with the `Resume` wire frame after clearing the fault — and
//!   `linger:<ms>`, which holds back the return of every finished sync,
//!   so a kill lands where a commit is on disk and nobody has been told
//!   (for a cross-shard commit: every prepare durable, no verdict yet).
//!   The last two act on device syncs, which only a log opened with
//!   `--fsync` issues: without it they are refused;
//! * `--checkpoint-ms` running a background checkpointer so kills can
//!   land mid-checkpoint.
//!
//! The remaining flags set the `LogConfig` field they are named after;
//! `--wait-durable-ms` is the one patience of every durability wait, a
//! sync commit's included (past it the client gets `LogStalled`). Talk
//! to the server with `ermia_server::Client` or any program speaking the
//! framed wire protocol (`ermia_server::protocol`).
//! Stop it with Ctrl-C, a SIGKILL, or — for a graceful drain — Enter or
//! closing its stdin.

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use ermia::{DbConfig, ShardedDb};
use ermia_log::{FaultInjector, FaultPlan};
use ermia_server::{Server, ServerConfig};

const USAGE: &str = "usage: ermia-server [<addr>] [--data-dir <dir>] [--shards <n>] \
[--fault-plan none|enospc:<bytes>|fsync:<n>|linger:<ms>] \
[--checkpoint-ms <ms>] [--fsync] [--segment-size <bytes>] [--buffer-size <bytes>] \
[--flush-interval-us <us>] [--wait-durable-ms <ms>]";

/// A command line this binary cannot serve: say why, list the flags, exit 2.
fn usage(why: &str) -> ! {
    eprintln!("ermia-server: {why}\n{USAGE}");
    std::process::exit(2)
}

/// A start-up step that failed (open, recovery, bind): exit 1.
fn die(what: &str, e: std::io::Error) -> ! {
    eprintln!("ermia-server: {what}: {e}");
    std::process::exit(1)
}

/// The value of `flag`, parsed.
fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T
where
    T::Err: std::fmt::Display,
{
    let raw = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
    raw.parse().unwrap_or_else(|e| usage(&format!("{flag} {raw:?}: {e}")))
}

fn main() {
    let started = std::time::Instant::now();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut shards = 1usize;
    let mut plan = FaultPlan::default();
    let mut checkpoint_ms = 0u64;
    // Durable engine: the log goes to disk, sync commits really wait.
    let mut cfg = DbConfig::durable(std::env::temp_dir().join("ermia-server"));

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let args = &mut args;
        match a.as_str() {
            "--data-dir" => cfg.log.dir = Some(value(&a, args)),
            "--shards" => shards = value(&a, args),
            "--fault-plan" => plan = value(&a, args),
            "--checkpoint-ms" => checkpoint_ms = value(&a, args),
            "--fsync" => cfg.log.fsync = true,
            "--segment-size" => cfg.log.segment_size = value(&a, args),
            "--buffer-size" => cfg.log.buffer_size = value(&a, args),
            "--flush-interval-us" => {
                cfg.log.flush_interval = Duration::from_micros(value(&a, args))
            }
            "--wait-durable-ms" => {
                cfg.log.wait_durable_timeout = Duration::from_millis(value(&a, args))
            }
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
            _ => addr = a,
        }
    }
    if shards == 0 {
        usage("--shards must be at least 1");
    }
    if (plan.fail_sync_at.is_some() || plan.sync_linger.is_some()) && !cfg.log.fsync {
        usage("this --fault-plan acts on device syncs, which the log only issues with --fsync");
    }
    let dir = cfg.log.dir.clone().expect("a durable config names its directory");
    cfg.log.io_factory = Arc::new(FaultInjector::new(plan));

    let db = ShardedDb::open(cfg, shards)
        .unwrap_or_else(|e| die("open database (is the data dir locked by a live server?)", e));
    let recovered = db.recover().unwrap_or_else(|e| die("recovery", e));
    let resident = ermia_telemetry::process_resident().map_or(0, |(rss, _)| rss);
    println!("INDOUBT {}", recovered.resolved_commits + recovered.resolved_aborts);

    if checkpoint_ms > 0 {
        let db = db.clone();
        // Detached on purpose: it runs until the process ends.
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(checkpoint_ms));
            // Checkpoints may fail while the log is faulted.
            let _ = db.checkpoint();
        });
    }

    let srv = Server::start_sharded(&db, &addr, ServerConfig::default())
        .unwrap_or_else(|e| die("bind", e));
    println!("PORT {}", srv.local_addr().port());
    println!("ermia-server listening on {} ({} shard(s))", srv.local_addr(), db.shards());
    println!("data dir: {}", dir.display());
    let shards = &recovered.per_shard;
    println!(
        "recovery built {} rows from {} bytes of checkpoint and log in {:.3} s, \
         {:.1} MiB resident after it; listening {:.3} s after start",
        shards.iter().map(|s| s.built).sum::<u64>(),
        shards.iter().map(|s| s.scanned_bytes).sum::<u64>(),
        shards.iter().map(|s| s.elapsed).sum::<Duration>().as_secs_f64(),
        resident as f64 / (1 << 20) as f64,
        started.elapsed().as_secs_f64(),
    );
    println!("press Enter to shut down gracefully");

    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);

    println!("draining sessions…");
    srv.shutdown();
    println!("served: {:?}", srv.stats());
}
