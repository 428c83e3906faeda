//! Two event loops, each waiting on the other's parked commit. A loop
//! that meets a prepared head it did not park waits for that verdict,
//! which only the loop that parked it delivers. Each connection here
//! parks a cross-shard write on its own loop, then reads the key the
//! other connection's write prepared: both loops wait at once, and each
//! must resolve its own commit while it waits.
//!
//! The device sleeps in every `sync_data`, so both writes are still
//! prepared, not committed, when the reads arrive.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ermia::{DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_log::{FileBackend, SegmentIo, SegmentIoFactory};
use ermia_server::{BatchOp, Client, Request, Response, Server, ServerConfig, WireIsolation};

const LATENCY: Duration = Duration::from_millis(200);

/// A file backend whose every `sync_data` takes [`LATENCY`].
#[derive(Clone, Debug)]
struct SlowDevice(Option<Arc<dyn SegmentIo>>);

impl SegmentIoFactory for SlowDevice {
    fn open(&self, path: &Path) -> std::io::Result<Arc<dyn SegmentIo>> {
        Ok(Arc::new(SlowDevice(Some(FileBackend.open(path)?))))
    }
}

impl SlowDevice {
    fn file(&self) -> &dyn SegmentIo {
        &**self.0.as_ref().expect("an opened segment")
    }
}

impl SegmentIo for SlowDevice {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        self.file().write_all_at(buf, offset)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.file().read_exact_at(buf, offset)
    }

    fn sync_data(&self) -> std::io::Result<()> {
        std::thread::sleep(LATENCY);
        Ok(())
    }

    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.file().set_len(len)
    }
}

/// The `i`-th pair: one key on each of two engine shards.
fn cross_pair(i: usize) -> [Vec<u8>; 2] {
    let a = format!("loop-a{i}").into_bytes();
    let b = (0u32..)
        .map(|j| format!("loop-b{i}-{j}").into_bytes())
        .find(|k| ermia::shard_of_key(k, 2) != ermia::shard_of_key(&a, 2))
        .expect("some key hashes to the other shard");
    [a, b]
}

fn pair_write(table: u32, pair: &[Vec<u8>; 2], value: &[u8]) -> Request {
    Request::Batch {
        isolation: WireIsolation::Snapshot,
        sync: true,
        ops: pair
            .iter()
            .map(|k| BatchOp::Put { table, key: k.clone(), value: value.to_vec() })
            .collect(),
    }
}

#[test]
fn two_loops_each_reading_the_others_prepared_write_both_finish() {
    let dir = TestDir::new("cross-loop");
    let mut cfg = DbConfig::durable(&dir);
    cfg.log.fsync = true;
    cfg.log.io_factory = Arc::new(SlowDevice(None));
    let db = ShardedDb::open(cfg, 2).unwrap();
    db.create_table("kv");
    let server_cfg = ServerConfig { shards: 2, worker_capacity: 4, ..ServerConfig::default() };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", server_cfg).unwrap();

    // The listener hands connections round-robin: one to each loop.
    let mut clients: Vec<Client> =
        (0..2).map(|_| Client::connect(srv.local_addr()).unwrap()).collect();
    let t = clients[0].open_table("kv").unwrap();
    clients[1].ping().unwrap();
    let pairs = [cross_pair(0), cross_pair(1)];
    for c in &mut clients {
        c.set_reply_timeout(Some(LATENCY * 20)).unwrap();
    }

    // Each loop parks a cross-shard write: two participants each.
    for (i, c) in clients.iter_mut().enumerate() {
        c.send(&pair_write(t, &pairs[i], format!("from-{i}").as_bytes())).unwrap();
        c.flush().unwrap();
    }
    let deadline = Instant::now() + LATENCY;
    while db.tid_slots_in_use() < 4 {
        assert!(Instant::now() < deadline, "both writes prepared within a device latency");
        std::thread::yield_now();
    }
    // Slots are claimed at begin: give both batches time to prepare,
    // still well inside the sync their prepares wait on.
    std::thread::sleep(LATENCY / 10);

    // Each reads the other's prepared key while its own write is parked.
    let asked = Instant::now();
    for (i, c) in clients.iter_mut().enumerate() {
        let other = &pairs[1 - i][i];
        c.send(&Request::Get { table: t, key: other.clone() }).unwrap();
        c.flush().unwrap();
    }
    let mut replies = Vec::new();
    for c in &mut clients {
        replies.push((c.recv(), c.recv()));
    }
    let took = asked.elapsed();
    if replies.iter().any(|(w, r)| w.is_err() || r.is_err()) {
        // The loops are stuck on each other: a shutdown would never join.
        std::mem::forget(srv);
        panic!("a loop waited on the other's verdict and never answered: {replies:?}");
    }
    for (i, (write, read)) in replies.into_iter().enumerate() {
        match write.unwrap() {
            Response::BatchDone { outcome, .. } => {
                assert!(matches!(*outcome, Response::Committed { .. }), "write {i}: {outcome:?}")
            }
            other => panic!("write {i}: expected BatchDone, got {other:?}"),
        }
        let want = format!("from-{}", 1 - i).into_bytes();
        assert_eq!(read.unwrap(), Response::Value { value: Some(want) }, "read {i}");
    }
    assert!(took < LATENCY * 5, "both reads answered in {took:?}, over five device latencies");
    assert_eq!(db.tid_slots_in_use(), 0);
    srv.shutdown();
}
