//! Golden test for the telemetry surface: the `Metrics` wire frame and
//! the HTTP `GET /metrics` sniff on the same port must both return a
//! valid Prometheus text exposition covering every layer — log, GC,
//! epoch, TID, pool, sessions, and the per-reason abort counters.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ermia::{DbConfig, ShardedDb};
use ermia_server::{BatchOp, Client, Request, Response, Server, ServerConfig, WireIsolation};
use ermia_telemetry::{parse_exposition, parse_spans, SpanKind};

/// Must match `AbortReason::ALL` order — the exposition labels.
const ABORT_REASONS: [&str; 9] = [
    "ww-conflict",
    "ssn-exclusion",
    "read-validation",
    "phantom",
    "dup-key",
    "user",
    "resource",
    "log-failure",
    "read-only",
];

fn scrape_http(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\nAccept: text/plain\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf.split_once("\r\n\r\n").expect("response head/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn metrics_frame_and_http_scrape_expose_the_full_surface() {
    let db = ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();

    // Move the outcome counters: one commit, one user abort.
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"a", b"1").unwrap();
    c.commit(false).unwrap();
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, b"b", b"1").unwrap();
    c.abort().unwrap();

    let text = c.metrics().unwrap();
    let exp = parse_exposition(&text).expect("wire exposition must parse");

    // Required metric families, one or more per layer.
    for name in [
        // transactions
        "ermia_txn_commits_total",
        "ermia_txn_aborts_total",
        "ermia_txn_chain_length",
        // log
        "ermia_log_flush_batches_total",
        "ermia_log_flushed_bytes_total",
        "ermia_log_durable_lag_bytes",
        "ermia_log_ring_occupancy_bytes",
        "ermia_log_ring_capacity_bytes",
        "ermia_log_ring_unreleased_bytes",
        "ermia_log_space_waits_total",
        "ermia_log_last_batch_bytes",
        "ermia_log_syncs_in_flight",
        "ermia_log_sync_ns",
        "ermia_log_sync_starts_total",
        "ermia_log_poisoned",
        // gc / storage
        "ermia_gc_passes_total",
        "ermia_gc_reclaimed_versions_total",
        "ermia_gc_chains_visited_total",
        "ermia_gc_retire_backlog",
        "ermia_version_pool_size",
        // epoch + tid
        "ermia_epoch_current",
        "ermia_epoch_advances_total",
        "ermia_tid_slots_in_use",
        "ermia_tid_high_water",
        // the process
        "ermia_process_resident_bytes",
        "ermia_process_resident_peak_bytes",
        // database state
        "ermia_db_state",
        "ermia_fork_count",
        "ermia_recovery_seconds",
        "ermia_recovery_bytes",
        // server + pool
        "ermia_server_sessions_opened_total",
        "ermia_server_active_sessions",
        "ermia_server_frames_processed_total",
        "ermia_server_busy_rejects_total",
        "ermia_server_busy_by_reason_total",
        "ermia_server_reply_queue_depth",
        // event-loop shards
        "ermia_server_shards",
        "ermia_server_shard_sessions",
        "ermia_server_epoll_wakeups_total",
        "ermia_server_partial_writes_total",
        "ermia_server_run_queue_depth",
        "ermia_pool_workers",
        "ermia_pool_capacity",
    ] {
        assert!(exp.has(name), "exposition is missing {name}:\n{text}");
    }

    // Kinds are declared, and declared right.
    assert_eq!(exp.kind("ermia_txn_commits_total"), Some("counter"));
    assert_eq!(exp.kind("ermia_txn_aborts_total"), Some("counter"));
    assert_eq!(exp.kind("ermia_txn_chain_length"), Some("histogram"));
    assert_eq!(exp.kind("ermia_log_durable_lag_bytes"), Some("gauge"));
    assert_eq!(exp.kind("ermia_log_syncs_in_flight"), Some("gauge"));
    assert_eq!(exp.kind("ermia_log_sync_ns"), Some("histogram"));
    assert_eq!(exp.kind("ermia_log_sync_starts_total"), Some("counter"));
    for cause in ["idle", "demand", "clock", "timer"] {
        assert!(
            exp.value_with("ermia_log_sync_starts_total", "cause", cause).is_some(),
            "missing cause label {cause}:\n{text}"
        );
    }
    assert_eq!(exp.kind("ermia_recovery_seconds"), Some("gauge"));
    for why in ["sessions", "checkout", "shutdown", "fd-limit"] {
        assert_eq!(
            exp.value_with("ermia_server_busy_by_reason_total", "reason", why),
            Some(0.0),
            "reason label {why}:\n{text}"
        );
    }
    assert_eq!(exp.kind("ermia_server_active_sessions"), Some("gauge"));
    assert_eq!(exp.kind("ermia_server_shards"), Some("gauge"));
    assert_eq!(exp.kind("ermia_server_epoll_wakeups_total"), Some("counter"));

    // Per-shard families carry a shard label; every shard reports, and the
    // session that is scraping right now lives on exactly one of them.
    let shards = exp.value("ermia_server_shards").unwrap() as usize;
    assert!(shards >= 1, "at least one event-loop shard:\n{text}");
    let shard_sessions: f64 = (0..shards)
        .map(|i| {
            exp.value_with("ermia_server_shard_sessions", "shard", &i.to_string())
                .unwrap_or_else(|| panic!("missing shard label {i}:\n{text}"))
        })
        .sum();
    assert!(shard_sessions >= 1.0, "the scraping session must be counted on a shard");

    // Every abort reason appears as a label, zero-filled or not.
    for reason in ABORT_REASONS {
        assert!(
            exp.value_with("ermia_txn_aborts_total", "reason", reason).is_some(),
            "missing abort reason label {reason:?}:\n{text}"
        );
    }
    assert!(
        exp.value_with("ermia_txn_aborts_total", "reason", "user").unwrap() >= 1.0,
        "the explicit abort above must be attributed to reason=user"
    );
    assert!(exp.value("ermia_txn_commits_total").unwrap() >= 1.0);
    // Worker-pool states are labeled.
    assert!(exp.value_with("ermia_pool_workers", "state", "idle").is_some());
    assert!(exp.value_with("ermia_pool_workers", "state", "checked_out").is_some());

    // HTTP scrape of the same port: same exposition, proper headers.
    let (head, body) = scrape_http(srv.local_addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    let http_exp = parse_exposition(&body).expect("http exposition must parse");
    assert!(http_exp.has("ermia_txn_commits_total"));
    assert!(http_exp.has("ermia_server_active_sessions"));

    // Unknown paths 404; neither scrape disturbs the wire session.
    let (head, _) = scrape_http(srv.local_addr(), "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    c.ping().unwrap();
    srv.shutdown();
}

/// Golden names for the engine-shard surface: a server on a 2-shard
/// engine must expose the shard families, the per-shard labels, and —
/// after one cross-shard commit over the wire — the 2PC latency
/// histograms and in-doubt gauge; and it must show shard 1, not only
/// shard 0.
#[test]
fn sharded_engine_metrics_expose_per_shard_families() {
    let db = ermia::ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();

    // One cross-shard commit: two keys that hash to different shards.
    let ka = b"shard-a".to_vec();
    let kb = (0u32..)
        .map(|j| format!("shard-b{j}").into_bytes())
        .find(|k| ermia::shard_of_key(k, 2) != ermia::shard_of_key(&ka, 2))
        .unwrap();
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, &ka, b"1").unwrap();
    c.put(t, &kb, b"1").unwrap();
    c.commit(false).unwrap();

    let text = c.metrics().unwrap();
    let exp = parse_exposition(&text).expect("sharded exposition must parse");
    for name in [
        "ermia_shard_count",
        "ermia_shard_in_doubt",
        "ermia_shard_cross_txns_total",
        "ermia_2pc_prepare_ns",
        "ermia_2pc_decide_ns",
    ] {
        assert!(exp.has(name), "exposition is missing {name}:\n{text}");
    }
    assert_eq!(exp.kind("ermia_shard_count"), Some("gauge"));
    assert_eq!(exp.kind("ermia_shard_in_doubt"), Some("gauge"));
    assert_eq!(exp.kind("ermia_shard_cross_txns_total"), Some("counter"));
    assert_eq!(exp.kind("ermia_2pc_prepare_ns"), Some("histogram"));
    assert_eq!(exp.kind("ermia_2pc_decide_ns"), Some("histogram"));
    assert_eq!(exp.value("ermia_shard_count"), Some(2.0));
    assert!(exp.value("ermia_shard_cross_txns_total").unwrap() >= 1.0);
    // Nothing is in flight once the commit returned.
    assert_eq!(exp.value("ermia_shard_in_doubt"), Some(0.0));
    // Where the memory is: the process's figures are one sample each,
    // the two capacity-sized tables report per shard.
    let resident = exp.value("ermia_process_resident_bytes").expect("one bare sample");
    let peak = exp.value("ermia_process_resident_peak_bytes").expect("one bare sample");
    assert!(resident > 0.0 && peak >= resident, "resident {resident}, peak {peak}");
    for shard in ["0", "1"] {
        let high = exp.value_with("ermia_tid_high_water", "shard", shard).unwrap();
        let workers = exp.value_with("ermia_epoch_threads", "shard", shard).unwrap();
        assert!((1.0..=64.0 * workers).contains(&high), "shard {shard}: tid high water {high}");
        let ring = exp.value_with("ermia_log_ring_unreleased_bytes", "shard", shard).unwrap();
        assert!(ring <= (4 << 20) as f64, "shard {shard}: {ring} bytes of a 4 MiB ring");
    }

    // An operator sees every engine shard, not shard 0 alone: a commit
    // that runs on shard 1 only is in the scraped counters of that
    // shard's transactions and log, under `shard="1"`, and its commit
    // event is in the `DumpTraces` text, tagged with that shard.
    let on_one = if ermia::shard_of_key(&ka, 2) == 1 { &ka } else { &kb };
    let scrape = |c: &mut Client| {
        let exp = parse_exposition(&c.metrics().unwrap()).unwrap();
        ["ermia_txn_commits_total", "ermia_log_allocations_total"].map(|name| {
            ["0", "1"].map(|shard| {
                exp.value_with(name, "shard", shard)
                    .unwrap_or_else(|| panic!("{name} has no sample for shard {shard}"))
            })
        })
    };
    let before = scrape(&mut c);
    c.begin(WireIsolation::Snapshot).unwrap();
    c.put(t, on_one, b"2").unwrap();
    c.commit(false).unwrap();
    for (b, a) in before.iter().zip(&scrape(&mut c)) {
        assert_eq!((a[0] - b[0], a[1] - b[1]), (0.0, 1.0), "one commit, one log block, on shard 1");
    }
    let dump = c.dump_traces(64).unwrap();
    assert!(
        parse_spans(&dump).unwrap().iter().any(|s| s.kind == SpanKind::TxnCommit && s.shard == 1),
        "shard 1's commit event is missing:\n{dump}"
    );
    srv.shutdown();
}

#[test]
fn the_dump_frame_returns_recent_transaction_events() {
    let db = ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    for i in 0..4u32 {
        c.begin(WireIsolation::Snapshot).unwrap();
        c.put(t, &i.to_be_bytes(), b"v").unwrap();
        c.commit(false).unwrap();
    }
    let dump = c.dump_traces(4096).unwrap();
    let events = parse_spans(&dump).expect("the dump parses");
    assert_eq!(events.len(), dump.lines().count(), "every line is a record:\n{dump}");
    for kind in [SpanKind::TxnBegin, SpanKind::TxnCommit] {
        let n = events.iter().filter(|s| s.kind == kind && s.dur_ns == 0).count();
        assert!(n >= 4, "{} events missing:\n{dump}", kind.label());
    }
    srv.shutdown();
}

fn server_commits(c: &mut Client) -> f64 {
    let exp = parse_exposition(&c.metrics().unwrap()).unwrap();
    exp.value("ermia_server_commits_total").unwrap()
}

/// The one commit epilogue answers the same `Put` in the shape of the
/// frame that carried it: autocommitted — the op's own reply; as a one-op
/// `Batch` — `BatchDone` around it; as `Begin`/`Put`/`Commit` — `Begun`,
/// the reply, `Committed`. Waiting for the log or not changes no shape,
/// and "transactions committed on behalf of clients" counts each way as
/// exactly one commit — and a failed op as none.
#[test]
fn one_put_three_ways_is_answered_in_the_shape_of_its_frame_and_counted_once() {
    let dir = std::env::temp_dir().join(format!("ermia-server-put3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ShardedDb::open(DbConfig::durable(&dir), 1).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    let committed = |r: &Response| matches!(r, Response::Committed { lsn } if *lsn > 0);

    let mut commits = 0.0;
    let mut one_more = |c: &mut Client, how: &str| {
        commits += 1.0;
        assert_eq!(server_commits(c), commits, "{how} is one commit");
    };
    for (i, sync) in [(0u8, false), (1, true)] {
        let put = |key: &[u8]| Request::Put { table: t, key: key.to_vec(), value: vec![i] };
        let done = Response::Done { existed: i == 1 };

        assert_eq!(c.call(&put(b"auto")).unwrap(), done);
        one_more(&mut c, "an autocommitted Put");

        let op = BatchOp::Put { table: t, key: b"batch".to_vec(), value: vec![i] };
        let (results, outcome) = c.batch(WireIsolation::Snapshot, sync, vec![op]).unwrap();
        assert_eq!(results, vec![done.clone()]);
        assert!(committed(&outcome), "{outcome:?}");
        one_more(&mut c, "a Batch");

        let begin = Request::Begin { isolation: WireIsolation::Snapshot };
        assert_eq!(c.call(&begin).unwrap(), Response::Begun);
        assert_eq!(c.call(&put(b"txn")).unwrap(), done);
        let outcome = c.call(&Request::Commit { sync }).unwrap();
        assert!(committed(&outcome), "{outcome:?}");
        one_more(&mut c, "Begin … Commit");
    }
    // A failed op is answered with its error in each shape, and commits
    // nothing: bare, inside `BatchDone` (as the last result and as the
    // outcome), and — the transaction staying open — before an `Abort`.
    let bad = Request::Put { table: t + 100, key: b"k".to_vec(), value: vec![] };
    let err = c.call(&bad).unwrap();
    assert!(matches!(err, Response::Error { .. }), "{err:?}");
    c.insert(t, b"auto", b"again").expect_err("duplicate key");
    let op = BatchOp::Put { table: t + 100, key: b"k".to_vec(), value: vec![] };
    let batch = Request::Batch { isolation: WireIsolation::Snapshot, sync: true, ops: vec![op] };
    assert_eq!(
        c.call(&batch).unwrap(),
        Response::BatchDone { results: vec![err.clone()], outcome: Box::new(err.clone()) }
    );
    c.begin(WireIsolation::Snapshot).unwrap();
    assert_eq!(c.call(&bad).unwrap(), err);
    c.abort().unwrap();
    assert_eq!(server_commits(&mut c), 6.0, "a failed op commits nothing");
    srv.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
