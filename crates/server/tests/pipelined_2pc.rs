//! Pipelined cross-shard commits on one connection. Each one parks
//! between prepare and verdict while the event loop runs the frames
//! behind it, so a later frame can meet an earlier one's prepared head.
//! It must wait for that verdict — not abort, and not read around it.

use ermia::{DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_server::{BatchOp, Client, Request, Response, Server, ServerConfig, WireIsolation};
use ermia_telemetry::parse_exposition;

/// The `i`-th pair: one key on each of two shards.
fn cross_pair(i: usize) -> (Vec<u8>, Vec<u8>) {
    let a = format!("pair-a{i}").into_bytes();
    let b = (0u32..)
        .map(|j| format!("pair-b{i}-{j}").into_bytes())
        .find(|k| ermia::shard_of_key(k, 2) != ermia::shard_of_key(&a, 2))
        .expect("some key hashes to the other shard");
    (a, b)
}

fn pair_batch(table: u32, (a, b): &(Vec<u8>, Vec<u8>), value: &[u8]) -> Request {
    Request::Batch {
        isolation: WireIsolation::Snapshot,
        sync: true,
        ops: [a, b]
            .iter()
            .map(|k| BatchOp::Put { table, key: k.to_vec(), value: value.to_vec() })
            .collect(),
    }
}

/// A durable two-shard server on one event loop, where a durability
/// round takes long enough for the next frame to run inside it.
fn server(tag: &str) -> (ShardedDb, Server, TestDir) {
    let dir = TestDir::new(tag);
    let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
    db.create_table("kv");
    let cfg = ServerConfig { shards: 1, worker_capacity: 2, ..ServerConfig::default() };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    (db, srv, dir)
}

#[test]
fn same_pair_pipelined_batches_all_commit_in_order() {
    let (db, srv, _dir) = server("same-pair");
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let pair = cross_pair(0);
    const ROUNDS: usize = 50;
    const DEPTH: usize = 4;
    let mut last = 0;
    for round in 0..ROUNDS {
        for i in 0..DEPTH {
            c.send(&pair_batch(t, &pair, format!("{round}-{i}").as_bytes())).unwrap();
        }
        c.flush().unwrap();
        for i in 0..DEPTH {
            match c.recv().unwrap() {
                Response::BatchDone { outcome, .. } => match *outcome {
                    Response::Committed { lsn } => {
                        assert!(lsn > last, "round {round}: reply {i} out of commit order");
                        last = lsn;
                    }
                    other => panic!(
                        "round {round}: pipelined write {i} of one pair must wait for its \
                         predecessor's verdict, not fail: {other:?}"
                    ),
                },
                other => panic!("expected BatchDone, got {other:?}"),
            }
        }
        // The last writer of the window won, on both shards.
        let want = format!("{round}-{}", DEPTH - 1).into_bytes();
        assert_eq!(c.get(t, &pair.0).unwrap(), Some(want.clone()));
        assert_eq!(c.get(t, &pair.1).unwrap(), Some(want));
    }
    assert_eq!(db.tid_slots_in_use(), 0);
    srv.shutdown();
    drop(db);
}

#[test]
fn pipelined_get_behind_a_cross_shard_put_reads_the_new_value() {
    let (db, srv, _dir) = server("ryw");
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let pair = cross_pair(0);
    for round in 0..100u32 {
        let value = round.to_be_bytes();
        c.send(&pair_batch(t, &pair, &value)).unwrap();
        c.send(&Request::Get { table: t, key: pair.0.clone() }).unwrap();
        c.send(&Request::Get { table: t, key: pair.1.clone() }).unwrap();
        c.flush().unwrap();
        match c.recv().unwrap() {
            Response::BatchDone { outcome, .. } => {
                assert!(
                    matches!(*outcome, Response::Committed { .. }),
                    "round {round}: {outcome:?}"
                )
            }
            other => panic!("expected BatchDone, got {other:?}"),
        }
        for half in 0..2 {
            match c.recv().unwrap() {
                Response::Value { value: got } => assert_eq!(
                    got.as_deref(),
                    Some(&value[..]),
                    "round {round}: the Get behind the put must read its write (half {half})"
                ),
                other => panic!("expected Value, got {other:?}"),
            }
        }
    }
    assert_eq!(db.tid_slots_in_use(), 0);
    srv.shutdown();
    drop(db);
}

/// The one autocommitted operation that crosses shards: a write to a
/// replicated table fans out to every shard, so it parks like any other
/// cross-shard commit and answers with its own response.
#[test]
fn autocommitted_write_to_a_replicated_table_commits_on_every_shard() {
    let (db, srv, _dir) = server("replicated");
    db.create_table_with_policy("dims", ermia::ShardPolicy::Replicated);
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("dims").unwrap();
    assert!(!c.put(t, b"colour", b"red").unwrap(), "first put inserts");
    assert!(c.put(t, b"colour", b"blue").unwrap(), "second put overwrites");
    assert_eq!(c.get(t, b"colour").unwrap().as_deref(), Some(&b"blue"[..]));
    for shard in 0..2 {
        let mut w = db.shard(shard).register_worker();
        let mut tx = w.begin(ermia::IsolationLevel::Snapshot);
        let got = tx.read(ermia::TableId(t), b"colour", |v| v.to_vec()).unwrap();
        assert_eq!(got.as_deref(), Some(&b"blue"[..]), "shard {shard} holds the row");
        tx.commit().unwrap();
    }
    assert_eq!(db.tid_slots_in_use(), 0);
    srv.shutdown();
    drop(db);
}

/// A window of sixteen cross-shard commits, pipelined on one connection,
/// parks sixteen prepares on the pooled worker at once. Their contexts
/// stay in the worker's home stretch: each shard's TID high-water mark
/// reads the same after 200 windows as after 2 000, and is at most 64 ×
/// the workers registered there.
#[test]
fn pipelined_windows_leave_the_tid_high_water_where_it_was() {
    const DEPTH: usize = 16;
    let (db, srv, _dir) = server("high-water");
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let pairs: Vec<_> = (0..DEPTH).map(cross_pair).collect();
    let windows = |c: &mut Client, n: usize| {
        for round in 0..n {
            for pair in &pairs {
                c.send(&pair_batch(t, pair, &round.to_be_bytes())).unwrap();
            }
            c.flush().unwrap();
            for i in 0..DEPTH {
                match c.recv().unwrap() {
                    Response::BatchDone { outcome, .. } => assert!(
                        matches!(*outcome, Response::Committed { .. }),
                        "round {round}, commit {i}: {outcome:?}"
                    ),
                    other => panic!("expected BatchDone, got {other:?}"),
                }
            }
        }
    };
    let high_water = |c: &mut Client| {
        let exp = parse_exposition(&c.metrics().unwrap()).unwrap();
        ["0", "1"].map(|shard| {
            let high = exp.value_with("ermia_tid_high_water", "shard", shard).unwrap();
            let workers = exp.value_with("ermia_epoch_threads", "shard", shard).unwrap();
            assert!(high <= 64.0 * workers, "shard {shard}: high water {high}, {workers} workers");
            high
        })
    };
    windows(&mut c, 200);
    let early = high_water(&mut c);
    windows(&mut c, 1_800);
    assert_eq!(high_water(&mut c), early, "the high-water mark moved with the commit count");
    assert_eq!(db.tid_slots_in_use(), 0);
    srv.shutdown();
    drop(db);
}
