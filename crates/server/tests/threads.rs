//! The server's thread topology: one thread per event-loop shard, which
//! also waits its parked commits out on the logs — no second thread per
//! shard. Alone in its test binary, so no other server's threads count.

use std::time::{Duration, Instant};

use ermia::{DbConfig, ShardedDb};
use ermia_server::{Client, Server, ServerConfig};

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("this process's tasks");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

fn count(prefix: &str) -> usize {
    thread_names().iter().filter(|n| n.starts_with(prefix)).count()
}

#[test]
fn a_server_runs_one_thread_per_shard_and_no_parker_thread() {
    const SHARDS: usize = 3;
    let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
    db.create_table("kv");
    let cfg = ServerConfig { shards: SHARDS, worker_capacity: 2, ..ServerConfig::default() };
    let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
    // A connection on every loop, each with a write behind it.
    let mut clients: Vec<Client> =
        (0..SHARDS).map(|_| Client::connect(srv.local_addr()).unwrap()).collect();
    let t = clients[0].open_table("kv").unwrap();
    for (i, c) in clients.iter_mut().enumerate() {
        c.put(t, format!("key-{i}").as_bytes(), b"v").unwrap();
    }
    assert_eq!(count("ermia-shard-"), SHARDS, "threads: {:?}", thread_names());
    assert_eq!(count("ermia-parker-"), 0, "threads: {:?}", thread_names());

    srv.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while count("ermia-shard-") > 0 {
        assert!(Instant::now() < deadline, "a shard thread outlived shutdown");
        std::thread::sleep(Duration::from_millis(1));
    }
}
