//! Trace a transaction end to end and export a Chrome trace.
//!
//! ```sh
//! cargo run --release --example ermia_trace -- --once > trace.json
//! # then open chrome://tracing (or https://ui.perfetto.dev) and load it
//! ```
//!
//! Two modes:
//!
//! * `--once` (the CI smoke step): starts an embedded two-shard server
//!   on an ephemeral port, runs one traced cross-shard read-write
//!   transaction with a synchronous commit, dumps the rings, and checks
//!   that the golden span kinds for that path are all present
//!   (`request`, `frame-decode`, `txn-write`, `2pc-prepare` on both
//!   participant shards, `2pc-decide`) and that its flight events
//!   (`txn-commit`, `session-parked`) came with it. Exits non-zero if
//!   any is missing.
//! * `<addr>`: connects to a live server, runs the same traced probe
//!   transaction against a `trace_demo` table, and dumps whatever the
//!   server retained.
//!
//! Either way the records of the minted trace id are rendered as Chrome
//! `trace_event` JSON on stdout — spans as complete events, flight events
//! (spans of zero length) as instants on the same timeline; everything
//! else goes to stderr.

use ermia::{DbConfig, ShardedDb};
use ermia_server::{Client, Server, ServerConfig, WireIsolation};
use ermia_telemetry::{chrome_trace_json, parse_spans, Span, SpanKind};

/// Keys written by the probe transaction. With two shards and hashed
/// routing the chance that all of these land on one shard (turning the
/// commit into a single-shard fast path with no 2PC spans) is ~2^-31.
const PROBE_KEYS: usize = 32;

fn run_probe(client: &mut Client) -> (u64, u64) {
    let ctx = client.start_trace();
    eprintln!("trace id: {}", ctx.trace_hex());
    let table = client.open_table("trace_demo").expect("open table");
    client.begin(WireIsolation::Snapshot).expect("begin");
    for i in 0..PROBE_KEYS {
        let key = format!("probe-{i:02}");
        let val = format!("traced-write-{i}");
        client.put(table, key.as_bytes(), val.as_bytes()).expect("put");
    }
    // A read so the trace shows the read path too.
    client.get(table, b"probe-00").expect("get");
    client.commit(true).expect("sync commit");
    client.clear_trace();
    (ctx.trace_hi, ctx.trace_lo)
}

fn dump_trace(client: &mut Client, trace: (u64, u64)) -> Vec<Span> {
    let text = client.dump_traces(0).expect("dump traces");
    let spans = parse_spans(&text).expect("well-formed span dump");
    spans.into_iter().filter(|s| (s.trace_hi, s.trace_lo) == trace).collect()
}

/// The record kinds a traced cross-shard sync commit must produce.
const GOLDEN: &[SpanKind] = &[
    SpanKind::Request,
    SpanKind::FrameDecode,
    SpanKind::TxnWrite,
    SpanKind::TwoPcPrepare,
    SpanKind::TwoPcDecide,
    SpanKind::TxnCommit,
    SpanKind::SessionParked,
];

fn check_golden(spans: &[Span]) -> Result<(), String> {
    for &kind in GOLDEN {
        if !spans.iter().any(|s| s.kind == kind) {
            return Err(format!("missing golden span kind {:?} ({})", kind, kind.label()));
        }
    }
    // Both shards must have prepared: `a` on a 2pc-prepare span is the
    // participant shard number.
    let mut shards: Vec<u64> =
        spans.iter().filter(|s| s.kind == SpanKind::TwoPcPrepare).map(|s| s.a).collect();
    shards.sort_unstable();
    shards.dedup();
    if shards.len() < 2 {
        return Err(format!("expected 2PC prepares on both shards, got shards {shards:?}"));
    }
    // Every non-root span must parent into the same trace's tree.
    let roots = spans.iter().filter(|s| s.parent == 0).count();
    if roots == 0 {
        return Err("no root span (parent == 0) in trace".into());
    }
    Ok(())
}

fn summarize(spans: &[Span]) {
    eprintln!("{} records in trace:", spans.len());
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| s.start_ns);
    for s in &sorted {
        let (a, b) = s.kind.fields();
        let fields: Vec<String> = [(a, s.a), (b, s.b)]
            .iter()
            .filter(|(name, _)| *name != "_")
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        eprintln!(
            "  {:<16} start={:>12}ns dur={:>9}ns {}",
            s.kind.label(),
            s.start_ns,
            s.dur_ns,
            fields.join(" ")
        );
    }
}

fn main() {
    let mut once = false;
    let mut addr = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--once" => once = true,
            other => addr = Some(other.to_string()),
        }
    }

    let spans = if once {
        let dir = std::env::temp_dir().join(format!("ermia-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DbConfig::durable(dir.to_str().expect("utf-8 temp dir"));
        let db = ShardedDb::open(cfg, 2).expect("open database");
        db.create_table("trace_demo");
        db.recover().expect("recovery");
        let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default())
            .expect("bind ephemeral port");
        let mut client = Client::connect(srv.local_addr()).expect("connect");
        let trace = run_probe(&mut client);
        let spans = dump_trace(&mut client, trace);
        drop(client);
        srv.shutdown();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        summarize(&spans);
        if let Err(msg) = check_golden(&spans) {
            eprintln!("golden span check FAILED: {msg}");
            std::process::exit(1);
        }
        eprintln!("golden span check passed");
        spans
    } else {
        let addr = addr.unwrap_or_else(|| "127.0.0.1:7878".into());
        let mut client = Client::connect(&addr).expect("connect");
        let trace = run_probe(&mut client);
        let spans = dump_trace(&mut client, trace);
        summarize(&spans);
        spans
    };

    println!("{}", chrome_trace_json(&spans));
}
