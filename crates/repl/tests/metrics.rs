//! Golden names for the replication telemetry surface: the replica's
//! `/metrics` exposition must carry the `ermia_repl_*` families with
//! the right kinds, and the dumps of both sides must hold the shipping
//! events.

use ermia::{DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_repl::{Replica, ReplicaConfig};
use ermia_server::{Client, Server, ServerConfig, WireIsolation};
use ermia_telemetry::parse_exposition;

#[test]
fn replica_metrics_expose_the_repl_families() {
    let primary_dir = TestDir::new("primary");
    let mut cfg = DbConfig::durable(&primary_dir);
    cfg.log.segment_size = 8192;
    let db = ShardedDb::open(cfg, 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = srv.local_addr().to_string();
    let mut c = Client::connect(addr.as_str()).unwrap();
    let t = c.open_table("kv").unwrap();
    for i in 0..200u32 {
        c.begin(WireIsolation::Snapshot).unwrap();
        c.put(t, &i.to_be_bytes(), &[0x7A; 64]).unwrap();
        c.commit(true).unwrap();
    }

    let replica_dir = TestDir::new("replica");
    let mut replica = Replica::bootstrap(ReplicaConfig::new(addr, &replica_dir)).unwrap();
    replica.catch_up().unwrap();
    let stats = replica.stats();
    assert!(stats.shipped_segments() >= 1, "several 8 KiB segments must have shipped");
    assert_eq!(stats.lag_bytes(), 0, "caught up means zero lag");
    assert!(stats.applied_lsn() > 0);
    assert!(stats.rounds() >= 1);

    // The replica's exposition carries the repl families, golden names
    // and kinds, next to the regular engine surface.
    let rsrv = replica.serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut rc = Client::connect(rsrv.local_addr()).unwrap();
    let text = rc.metrics().unwrap();
    let exp = parse_exposition(&text).expect("replica exposition must parse");
    for name in
        ["ermia_repl_lag_bytes", "ermia_repl_shipped_segments_total", "ermia_repl_applied_lsn"]
    {
        assert!(exp.has(name), "replica exposition is missing {name}:\n{text}");
    }
    assert_eq!(exp.kind("ermia_repl_lag_bytes"), Some("gauge"));
    assert_eq!(exp.kind("ermia_repl_shipped_segments_total"), Some("counter"));
    assert_eq!(exp.kind("ermia_repl_applied_lsn"), Some("gauge"));
    assert_eq!(exp.value("ermia_repl_lag_bytes"), Some(0.0));
    assert!(exp.value("ermia_repl_shipped_segments_total").unwrap() >= 1.0);
    assert!(exp.value("ermia_repl_applied_lsn").unwrap() > 0.0);

    // Flight events: the replica ring records applies; the primary ring
    // records the chunks it shipped.
    let rdump = rc.dump_traces(256).unwrap();
    assert!(rdump.contains("kind=repl-apply "), "replica apply events missing:\n{rdump}");
    let mut pc = Client::connect(srv.local_addr()).unwrap();
    let pdump = pc.dump_traces(256).unwrap();
    assert!(pdump.contains("kind=repl-segment-shipped "), "primary ship events missing:\n{pdump}");

    rsrv.shutdown();
    srv.shutdown();
    drop(replica);
}
