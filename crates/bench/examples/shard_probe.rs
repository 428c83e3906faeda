//! Quick shard-scaling probe: run one sync-commit PartMicro point per
//! invocation, parameterized by env, and print tps. Used to pick the
//! sharded-gate operating point on a given host.
//!
//! SHARDS, THREADS, READS, WR (write ratio %), SECS, ROWS, MEM=1

use std::time::Duration;

use ermia::{DbConfig, ShardedDb};
use ermia_log::LogConfig;
use ermia_workloads::driver::{run, RunConfig};
use ermia_workloads::micro::{PartMicroConfig, PartMicroWorkload};
use ermia_workloads::ErmiaEngine;

fn envu(k: &str, d: u64) -> u64 {
    std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d)
}

fn main() {
    let shards = envu("SHARDS", 1) as usize;
    let threads = envu("THREADS", 4) as usize;
    let reads = envu("READS", 10) as usize;
    let wr = envu("WR", 50) as f64 / 100.0;
    let secs = envu("SECS", 2);
    let rows = envu("ROWS", 1000);
    let mem = envu("MEM", 0) == 1;

    let dir = std::env::temp_dir().join(format!("ermia-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = if mem {
        DbConfig::in_memory()
    } else {
        DbConfig {
            log: LogConfig {
                dir: Some(dir.clone()),
                segment_size: 64 << 20,
                fsync: true,
                ..LogConfig::default()
            },
            synchronous_commit: true,
            ..DbConfig::default()
        }
    };
    let engine = ErmiaEngine::si(ShardedDb::open(cfg, shards).unwrap());
    let wl = PartMicroWorkload::new(PartMicroConfig {
        partitions: threads as u32,
        shards,
        rows_per_partition: rows,
        reads,
        write_ratio: wr,
        cross_pct: 0,
    });
    let r = run(&engine, &wl, &RunConfig::new(threads, Duration::from_secs(secs)));
    println!(
        "S={shards} threads={threads} reads={reads} wr={wr} mem={mem}: {:.0} tps ({:.1}% aborts)",
        r.tps(),
        100.0 * r.total_aborts() as f64 / (r.total_commits() + r.total_aborts()).max(1) as f64
    );
    let _ = std::fs::remove_dir_all(&dir);
}
