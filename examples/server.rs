//! Run an ERMIA server on a TCP port.
//!
//! ```sh
//! cargo run --release --example server -- 127.0.0.1:7878
//! cargo run --release --example server -- 127.0.0.1:7878 --shards 4
//! cargo run --release --example server -- 127.0.0.1:0 --data-dir /var/tmp/ermia --table chaos
//! ```
//!
//! `--shards N` (or `ERMIA_SHARDS`) partitions the engine into N
//! independent shard domains (log, epochs, TID space; shard `i` logs
//! under `<dir>/shard-<i>`); keys hash-route to a home shard and
//! transactions that touch several shards commit with two-phase commit.
//! The default is one shard: N logs have not beaten one group-committed
//! log on the hosts measured so far (EXPERIMENTS.md, "One log or N").
//!
//! `--data-dir DIR` (or `ERMIA_DATA_DIR`) names the durable directory.
//! It is reused across restarts: every start recovers what the previous
//! incarnation made durable, for the tables re-declared with `--table
//! NAME` (the schema is the application's to declare; clients may open
//! further tables over the wire).
//!
//! The first line on stdout is a machine-readable `PORT <n>`, so an
//! orchestrator can bind port 0, read the line, hammer the server and
//! SIGKILL it — the protocol of the in-tree chaos harness
//! (`crates/server/tests/chaos.rs`), which makes this binary a target
//! for external chaos tooling too:
//!
//! * `ERMIA_FAULT_PLAN` injects storage faults (`ermia_log::FaultPlan`'s
//!   `FromStr`): `enospc:<bytes>` (fail writes past a byte budget) or
//!   `fsync:<n>` (fail the nth fsync) for degraded-mode drills — pair
//!   with the `Resume` wire frame after clearing the fault — and
//!   `linger:<ms>`, which holds back the return of every finished fsync,
//!   so a kill lands where a commit is on disk and nobody has been told
//!   (for a cross-shard commit: every prepare durable, no verdict yet);
//! * `ERMIA_CKPT_MS=<ms>` runs a background checkpointer so kills can
//!   land mid-checkpoint.
//!
//! Talk to it with the client example (`--example client`) or any
//! program speaking the framed wire protocol (`ermia_server::protocol`).
//! Stop it with Ctrl-C, a SIGKILL, or — for a graceful drain — Enter or
//! closing its stdin.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use ermia::{DbConfig, ShardedDb};
use ermia_log::{FaultInjector, FaultPlan};
use ermia_server::{Server, ServerConfig};

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut shards = std::env::var("ERMIA_SHARDS").ok();
    let mut dir = std::env::var("ERMIA_DATA_DIR").ok();
    let mut tables = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" => shards = Some(args.next().expect("--shards needs a value")),
            "--data-dir" => dir = Some(args.next().expect("--data-dir needs a path")),
            "--table" => tables.push(args.next().expect("--table needs a name")),
            _ => addr = a,
        }
    }
    let shards: usize = shards.map_or(1, |s| s.parse().expect("shard count"));
    let dir = dir.map_or_else(|| std::env::temp_dir().join("ermia-server-example"), Into::into);

    // Durable engine: the log goes to disk, sync commits really wait.
    let mut cfg = DbConfig::durable(&dir);
    let plan: FaultPlan =
        std::env::var("ERMIA_FAULT_PLAN").unwrap_or_default().parse().expect("ERMIA_FAULT_PLAN");
    cfg.log.io_factory = Arc::new(FaultInjector::new(plan));
    let db = ShardedDb::open(cfg, shards)
        .expect("open database (is the data dir locked by a live server?)");
    for table in &tables {
        db.create_table(table);
    }
    let recovered = db.recover().expect("recovery");

    if let Some(ms) =
        std::env::var("ERMIA_CKPT_MS").ok().and_then(|v| v.parse::<u64>().ok()).filter(|&ms| ms > 0)
    {
        let ckpt_db = db.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(ms));
            // Checkpoints may fail while the log is faulted.
            let _ = ckpt_db.checkpoint();
        });
    }

    let cfg = ServerConfig {
        max_sessions: 256,
        checkout_wait: Duration::from_millis(100),
        sync_wait: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let srv = Server::start_sharded(&db, &addr, cfg).expect("bind");
    println!("PORT {}", srv.local_addr().port());
    println!("ermia-server listening on {} ({} shard(s))", srv.local_addr(), db.shards());
    println!("data dir: {} (recovered: {recovered:?})", dir.display());
    println!("press Enter to shut down gracefully");
    let _ = std::io::stdout().flush();

    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);

    println!("draining sessions…");
    srv.shutdown();
    let stats = srv.stats();
    println!(
        "served {} sessions, {} frames, {} commits; {} busy-rejects, {} protocol errors",
        stats.sessions_opened,
        stats.frames_processed,
        stats.commits,
        stats.busy_rejects,
        stats.protocol_errors
    );
    assert_eq!(stats.active_sessions, 0);
}
