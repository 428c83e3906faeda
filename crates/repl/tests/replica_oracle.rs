//! Replica-correctness oracle, end to end over the wire.
//!
//! A journal records every write the primary acked durable (sync
//! commit). After the replica catches up, the oracle demands exact
//! agreement: every journaled key is visible on the replica with its
//! journaled value, and a full scan surfaces *only* journaled pairs —
//! no unissued values, no duplicates, no resurrections. A mid-stream
//! disconnect + resubscribe must resume from the applied offset without
//! gaps or repeats.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use ermia::{DbConfig, IsolationLevel, ShardedDb};
use ermia_common::{TableId, TestDir};
use ermia_repl::{Replica, ReplicaConfig};
use ermia_server::{Client, ClientError, ErrorCode, Server, ServerConfig, WireIsolation};

/// Sync-committed write: the ack means the commit block is durable on
/// the primary, which is exactly the contract the replica must honor.
fn sync_put(c: &mut Client, t: u32, key: &[u8], value: &[u8]) -> u64 {
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, key, value).unwrap();
    c.commit(true).unwrap()
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:06}").into_bytes()
}

const PAIR_WRITERS: u32 = 2;
const PAIRS: u32 = 8;

fn pair_key(writer: u32, pair: u32, side: char) -> Vec<u8> {
    format!("pair-{writer}-{pair}-{side}").into_bytes()
}

#[test]
fn replica_oracle_exact_agreement_with_acked_writes() {
    let primary_dir = TestDir::new("primary");
    let mut cfg = DbConfig::durable(&primary_dir);
    // Force rotations while shipping; a segment still holds the 20 KiB
    // value's block.
    cfg.log.segment_size = 32 << 10;
    let db = ShardedDb::open(cfg, 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = srv.local_addr().to_string();
    let mut c = Client::connect(addr.as_str()).unwrap();
    let t = c.open_table("kv").unwrap();

    let mut journal: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

    // Phase 1: writes that will only reach the replica via the
    // checkpoint image — the log below it gets truncated away.
    for i in 0..150u32 {
        let v = format!("v1-{i}").into_bytes();
        sync_put(&mut c, t, &key(i), &v);
        journal.insert(key(i), v);
    }
    // One large value: it rides in its block like any other, and reaches
    // the replica in the checkpoint.
    let big = vec![0xB5u8; 16 << 10];
    sync_put(&mut c, t, b"big-ckpt", &big);
    journal.insert(b"big-ckpt".to_vec(), big);

    // Pair writers run while the checkpoint is taken: each commits both
    // keys of a pair with one value. A checkpoint at a cut holds both or
    // neither of a commit, so every cut the replica publishes agrees.
    let (stop, started) = (AtomicBool::new(false), AtomicU32::new(0));
    let (begin, pairs) = std::thread::scope(|s| {
        let writers: Vec<_> = (0..PAIR_WRITERS)
            .map(|wr| {
                let (addr, stop, started) = (&addr, &stop, &started);
                s.spawn(move || {
                    let mut c = Client::connect(addr.as_str()).unwrap();
                    let mut last = HashMap::new();
                    for n in 0u32.. {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let (p, v) = (n % PAIRS, format!("pair-{wr}-{n}").into_bytes());
                        c.begin(WireIsolation::Snapshot).unwrap();
                        c.put(t, &pair_key(wr, p, 'a'), &v).unwrap();
                        c.put(t, &pair_key(wr, p, 'b'), &v).unwrap();
                        c.commit(true).unwrap();
                        last.insert(p, v);
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                    last
                })
            })
            .collect();
        while started.load(Ordering::Relaxed) < 4 * PAIR_WRITERS * PAIRS {
            std::thread::yield_now();
        }
        let begin = db.checkpoint().unwrap()[0];
        stop.store(true, Ordering::Relaxed);
        (begin, writers.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>())
    });
    for (wr, last) in pairs.iter().enumerate() {
        for (&p, v) in last {
            for side in ['a', 'b'] {
                journal.insert(pair_key(wr as u32, p, side), v.clone());
            }
        }
    }
    let removed = db.truncate_log().unwrap();
    assert!(removed > 0, "truncation must bite so bootstrap needs the checkpoint");

    // Phase 2: post-checkpoint writes, shipped as raw log. Overwrites
    // prove the replica applies in order (latest value wins).
    for i in 100..250u32 {
        let v = format!("v2-{i}").into_bytes();
        sync_put(&mut c, t, &key(i), &v);
        journal.insert(key(i), v);
    }
    let big2 = vec![0x5Bu8; 20 << 10];
    sync_put(&mut c, t, b"big-log", &big2);
    journal.insert(b"big-log".to_vec(), big2);

    // Bootstrap the replica: checkpoint + segments over the wire.
    let replica_dir = TestDir::new("replica");
    let mut replica = Replica::bootstrap(ReplicaConfig::new(addr.clone(), &replica_dir)).unwrap();
    // The first published cut: at or above the checkpoint's begin, and
    // every pair agrees there.
    let first = replica.serving().shard(0).view_cut().expect("a serving view");
    assert!(first.offset() >= begin.offset(), "first cut {first:?} below the checkpoint {begin:?}");
    let mut w = replica.serving().register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for wr in 0..PAIR_WRITERS {
        for p in 0..PAIRS {
            let mut read = |side| tx.read(TableId(t), &pair_key(wr, p, side), |v| v.to_vec());
            let (a, b) = (read('a').unwrap(), read('b').unwrap());
            assert!(a.is_some() && a == b, "pair {wr}/{p} split at {first:?}: {a:?} vs {b:?}");
        }
    }
    tx.commit().unwrap();
    drop(w);
    replica.catch_up().unwrap();
    assert!(replica.applied_lsn() > 0);

    // Mid-stream disconnect: sever every shipping connection (the
    // primary drops the old retention pins), write more on the primary,
    // then resubscribe — resumption is from the applied offset, so the
    // new writes and only the new writes arrive.
    let applied_before = replica.applied_lsn();
    replica.reconnect().unwrap();
    for i in 200..300u32 {
        let v = format!("v3-{i}").into_bytes();
        sync_put(&mut c, t, &key(i), &v);
        journal.insert(key(i), v);
    }
    replica.catch_up().unwrap();
    assert!(
        replica.applied_lsn() > applied_before,
        "resubscribe must resume applying past the disconnect point"
    );
    assert_eq!(replica.stats().lag_bytes(), 0, "post-load catch-up must drain the lag");

    // Serve the replica and interrogate it over the unchanged protocol.
    let rsrv = replica.serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut rc = Client::connect(rsrv.local_addr()).unwrap();
    let rt = rc.open_table("kv").unwrap();
    assert_eq!(rt, t, "replayed DDL must reproduce dense table ids");

    // Health: replica role, applied frontier visible.
    let health = rc.health().unwrap();
    assert_eq!(health.role, 1, "the replica must report the replica role");
    assert!(health.applied_lsn > 0, "the applied LSN must be on the Health frame");

    // Oracle check 1: every acked-durable write is visible with its
    // exact journaled value.
    for (k, v) in &journal {
        let got = rc.get(rt, k).unwrap();
        assert_eq!(
            got.as_deref(),
            Some(&v[..]),
            "journaled key {:?} wrong on replica",
            String::from_utf8_lossy(k)
        );
    }
    // Keys never issued are absent.
    assert_eq!(rc.get(rt, b"never-written").unwrap(), None);

    // Oracle check 2: a full scan of the replica surfaces exactly the
    // journal — nothing unissued, nothing duplicated, nothing lost.
    let serving = replica.serving();
    let idx = serving.primary_index(TableId(t));
    let mut w = serving.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    let mut scanned: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    tx.scan(idx, &[], &[0xFF; 12], None, |k, v| {
        assert!(
            scanned.insert(k.to_vec(), v.to_vec()).is_none(),
            "duplicate key {:?} in replica scan",
            String::from_utf8_lossy(k)
        );
        true
    })
    .unwrap();
    tx.commit().unwrap();
    assert_eq!(scanned, journal, "replica scan must be exactly the acked journal");

    // Writes bounce with the read-only service code.
    rc.begin(WireIsolation::Snapshot).unwrap();
    match rc.put(rt, b"nope", b"x") {
        Err(ClientError::Server { code: ErrorCode::DegradedReadOnly, .. }) => {}
        other => panic!("replica writes must bounce read-only, got {other:?}"),
    }
    rc.abort().unwrap();

    // The shipper's retention pin kept the primary writable + truncatable
    // underneath: primary service is unaffected.
    sync_put(&mut c, t, b"post", b"x");

    rsrv.shutdown();
    srv.shutdown();
    drop(replica);
}

/// Same oracle against a 2-shard primary: per-shard shipping, replayed
/// routing, and cross-shard 2PC outcomes (a replica only shows a
/// cross-shard write once the decide record shipped).
#[test]
fn sharded_replica_replicates_cross_shard_commits() {
    let primary_dir = TestDir::new("sharded-primary");
    let mut cfg = DbConfig::durable(&primary_dir);
    cfg.log.segment_size = 16 << 10;
    let db = ermia::ShardedDb::open(cfg, 2).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = srv.local_addr().to_string();
    let mut c = Client::connect(addr.as_str()).unwrap();
    let t = c.open_table("kv").unwrap();

    let mut journal: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    // Multi-key transactions: most straddle both shards, so commits go
    // through 2PC and ship as prepare + decide records.
    for i in 0..120u32 {
        c.begin(WireIsolation::Snapshot).unwrap();
        for j in 0..3u32 {
            let k = format!("x-{i:04}-{j}").into_bytes();
            let v = format!("v-{i}-{j}").into_bytes();
            c.put(t, &k, &v).unwrap();
            journal.insert(k, v);
        }
        c.commit(true).unwrap();
    }

    let replica_dir = TestDir::new("sharded-replica");
    let mut rcfg = ReplicaConfig::new(addr, &replica_dir);
    rcfg.shards = 2;
    let mut replica = Replica::bootstrap(rcfg).unwrap();
    replica.catch_up().unwrap();

    let rsrv = replica.serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut rc = Client::connect(rsrv.local_addr()).unwrap();
    let rt = rc.open_table("kv").unwrap();
    for (k, v) in &journal {
        assert_eq!(
            rc.get(rt, k).unwrap().as_deref(),
            Some(&v[..]),
            "cross-shard key {:?} wrong on replica",
            String::from_utf8_lossy(k)
        );
    }
    let health = rc.health().unwrap();
    assert_eq!(health.role, 1);

    rsrv.shutdown();
    srv.shutdown();
    drop(replica);
}

#[test]
fn replica_learns_tables_and_their_routes_from_the_log() {
    // A prefix-hash table colocates every key sharing a 4-byte prefix
    // on one shard. The full-key default would scatter the same keys,
    // so a replica that fell back to the default policy would look on
    // the wrong shard and return not-found for most of them. The table
    // is created *between* two polls: the shipped log is the only thing
    // that can tell the replica of it, its id and its route.
    let primary_dir = TestDir::new("policy-primary");
    let mut cfg = DbConfig::durable(&primary_dir);
    cfg.log.segment_size = 16 << 10;
    let db = ermia::ShardedDb::open(cfg, 2).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = srv.local_addr().to_string();
    let mut c = Client::connect(addr.as_str()).unwrap();
    let kv = c.open_table("kv").unwrap();
    sync_put(&mut c, kv, b"before", b"bootstrap");

    let replica_dir = TestDir::new("policy-replica");
    let mut rcfg = ReplicaConfig::new(addr, &replica_dir);
    rcfg.shards = 2;
    let mut replica = Replica::bootstrap(rcfg).unwrap();
    replica.catch_up().unwrap();
    let rsrv = replica.serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut rc = Client::connect(rsrv.local_addr()).unwrap();
    assert_eq!(rc.open_table("kv").unwrap(), kv);

    let t = db.create_table_with_policy("orders", ermia::ShardPolicy::Hash { prefix: Some(4) });
    let by_owner =
        db.create_secondary_index(t, "orders-by-owner", ermia::IndexRouting::OwnerPrefix(4));
    let mut journal: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for group in 0..8u32 {
        for item in 0..6u32 {
            let k = format!("{group:04}-item-{item:02}").into_bytes();
            let v = format!("val-{group}-{item}").into_bytes();
            sync_put(&mut c, t.0, &k, &v);
            journal.insert(k, v);
        }
    }
    replica.catch_up().unwrap();

    let check = |rc: &mut Client, what: &str| {
        assert_eq!(rc.open_table("orders").unwrap(), t.0, "{what}: the primary's id");
        for (k, v) in &journal {
            assert_eq!(
                rc.get(t.0, k).unwrap().as_deref(),
                Some(&v[..]),
                "{what}: prefix-routed key {:?} wrong or missing",
                String::from_utf8_lossy(k)
            );
        }
        assert_eq!(rc.get(kv, b"before").unwrap().as_deref(), Some(&b"bootstrap"[..]));
    };
    check(&mut rc, "tailing replica");
    assert_eq!(replica.serving().index_id("orders-by-owner"), Some(by_owner));

    rsrv.shutdown();
    srv.shutdown();
    drop(replica);

    // The replica's directory is a database like any other: opened with
    // no declaration at all, it serves the same rows.
    let mut cfg = DbConfig::durable(&replica_dir);
    cfg.log.segment_size = 16 << 10;
    let backup = ermia::ShardedDb::open(cfg, 2).unwrap();
    backup.recover().unwrap();
    let bsrv = Server::start_sharded(&backup, "127.0.0.1:0", ServerConfig::default()).unwrap();
    check(&mut Client::connect(bsrv.local_addr()).unwrap(), "replica directory reopened");
    assert_eq!(backup.index_id("orders-by-owner"), Some(by_owner));
    bsrv.shutdown();
}

#[test]
fn replica_open_table_is_lookup_only() {
    // OpenTable on a replica must never allocate: a locally created
    // table would take a dense id the primary later assigns to a
    // different table, silently corrupting log replay.
    let primary_dir = TestDir::new("roddl-primary");
    let db = ShardedDb::open(DbConfig::durable(&primary_dir), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = srv.local_addr().to_string();
    let mut c = Client::connect(addr.as_str()).unwrap();
    let t = c.open_table("kv").unwrap();
    sync_put(&mut c, t, b"k", b"v");

    let replica_dir = TestDir::new("roddl-replica");
    let mut replica = Replica::bootstrap(ReplicaConfig::new(addr.clone(), &replica_dir)).unwrap();
    replica.catch_up().unwrap();
    let rsrv = replica.serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut rc = Client::connect(rsrv.local_addr()).unwrap();

    // Existing tables resolve by name; unknown names bounce instead of
    // allocating an id the primary never issued.
    assert_eq!(rc.open_table("kv").unwrap(), t);
    match rc.open_table("typo") {
        Err(ClientError::Server { code: ErrorCode::UnknownTable, .. }) => {}
        other => panic!("replica OpenTable must refuse local DDL, got {other:?}"),
    }
    assert_eq!(replica.serving().table_count(), 1, "the refused open must not grow the catalog");

    // The name the replica refused stays available to the primary: the
    // id it assigns replicates over and resolves identically.
    let t2 = c.open_table("typo").unwrap();
    sync_put(&mut c, t2, b"k2", b"v2");
    replica.catch_up().unwrap();
    assert_eq!(rc.open_table("typo").unwrap(), t2);
    assert_eq!(rc.get(t2, b"k2").unwrap().as_deref(), Some(&b"v2"[..]));

    rsrv.shutdown();
    srv.shutdown();
    drop(replica);
}

#[test]
fn fetch_chunk_edge_offsets_and_tiny_frames_do_not_panic() {
    // Offsets near u64::MAX exercised the `offset + len` sum; a frame
    // limit below the 4 KiB reply headroom exercised the
    // `max_frame_len - 4096` clamp. Both used to overflow in debug.
    let dir = TestDir::new("fetch-edge");
    let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
    let tiny = ServerConfig { max_frame_len: 2048, ..ServerConfig::default() };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", tiny).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    sync_put(&mut c, t, b"k", b"v");
    let status = c.subscribe(0, 0).unwrap();
    assert!(status.durable_lsn > 0);

    for offset in [u64::MAX, u64::MAX - 8, u64::MAX / 2] {
        let data = c.fetch_chunk(0, 1, offset, u32::MAX).unwrap();
        assert!(data.is_empty(), "no log data lives at offset {offset:#x}");
    }
    // A sane fetch still makes progress under the tiny frame limit.
    let data = c.fetch_chunk(0, 1, 0, u32::MAX).unwrap();
    assert!(!data.is_empty(), "log bytes below the durable frontier must ship");

    srv.shutdown();
    drop(db);
}
