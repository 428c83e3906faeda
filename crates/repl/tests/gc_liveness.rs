//! Liveness of the garbage collector on a replica (the fourth leg of
//! `crates/core/tests/gc_liveness.rs`; it lives here because a replica
//! needs this crate and a server).
//!
//! A replica has no committers: every version it stacks on another is
//! stacked by log replay, first in the bootstrap catch-up and then round
//! by round as it tails the primary. The collector only visits chains it
//! is told about, so replay must tell it — and once the replica has caught
//! up and the collector gone quiet, the full-sweep audit must find nothing.

use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use ermia::{DbConfig, IsolationLevel, ShardedDb, TableId};
use ermia_common::rng::SplitMix64;
use ermia_common::TestDir;
use ermia_repl::{Replica, ReplicaConfig};
use ermia_server::{Server, ServerConfig};

const KEYS: u32 = 48;

fn key(i: u32) -> Vec<u8> {
    format!("k{i:03}").into_bytes()
}

/// Updates, deletes and reviving inserts, most of them straddling both
/// shards, so they ship as prepares and verdicts; durable when it returns.
fn churn(db: &ShardedDb, t: TableId, rng: &mut SplitMix64, rounds: u32) {
    let mut w = db.register_worker();
    for round in 0..rounds {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for _ in 0..1 + rng.below(3) {
            let k = key(rng.below(KEYS.into()) as u32);
            let value = vec![round as u8; 8 + rng.below(56) as usize];
            match rng.below(10) {
                0 => drop(tx.delete(t, &k).unwrap()),
                _ => {
                    if !tx.update(t, &k, &value).unwrap() {
                        tx.insert(t, &k, &value).unwrap();
                    }
                }
            }
        }
        tx.commit().unwrap();
    }
    for s in 0..db.shards() {
        db.shard(s).log().sync().unwrap();
    }
}

#[test]
fn a_tailing_replica_leaves_nothing_reclaimable_behind() {
    let primary_dir = TestDir::new("primary");
    let mut cfg = DbConfig::durable(&primary_dir);
    cfg.log.segment_size = 16 << 10; // ship across rotations
    let db = ShardedDb::open(cfg, 2).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let t = db.create_table("kv");
    let mut rng = SplitMix64::new(0x5eed_0004);
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for i in 0..KEYS {
        tx.insert(t, &key(i), b"loaded").unwrap();
    }
    tx.commit().unwrap();
    churn(&db, t, &mut rng, 400);

    let replica_dir = TestDir::new("replica");
    let mut rcfg = ReplicaConfig::new(srv.local_addr().to_string(), &replica_dir);
    rcfg.shards = 2;
    let mut replica = Replica::bootstrap(rcfg).unwrap();
    replica.catch_up().unwrap();
    // Tail: a few incremental rounds on top of the bootstrap replay.
    for _ in 0..3 {
        churn(&db, t, &mut rng, 100);
        replica.catch_up().unwrap();
    }

    // The bootstrap builds each row's newest image and nothing under it,
    // so it leaves no garbage. A replica's horizon is its own log
    // manager's tail, which is where the bootstrap left it: shipped bytes
    // go to the segment files, not through the log manager. So what the
    // tailing rounds superseded waits in the backlog (as it waited,
    // unreclaimed and uncounted, under the full sweep), and this cannot
    // wait for the backlog to reach 0.
    let serving = replica.serving();
    for s in 0..serving.shards() {
        let shard = serving.shard(s);
        let stats = shard.gc_stats();
        let deadline = Instant::now() + Duration::from_secs(30);
        let (mut visited, mut since) = (u64::MAX, 0);
        // Quiet for three passes: everything due has been visited.
        while stats.passes.load(Relaxed) < since + 3 {
            assert!(Instant::now() < deadline, "replica shard {s} never went quiet: {stats:?}");
            if stats.chains_visited.load(Relaxed) != visited {
                visited = stats.chains_visited.load(Relaxed);
                since = stats.passes.load(Relaxed);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(stats.reclaimed.load(Relaxed), 0, "replica shard {s}: the bootstrap stacked");
        assert!(stats.retire_backlog.load(Relaxed) > 0, "replica shard {s}: the tail told nobody");
        assert_eq!(
            shard.gc_audit(),
            0,
            "replica shard {s}: the collector left reclaimable versions behind"
        );
    }

    srv.shutdown();
    drop(replica);
}
