//! End-to-end trace stitching: one client-minted trace id must cover
//! the whole life of a cross-shard synchronous commit — frame decode,
//! the transaction's engine spans, 2PC prepare on *both* participant
//! shards, the decide, the durability wait — and, after log shipping,
//! the replica's apply spans for the same transaction. The exported
//! Chrome `trace_event` rendering must be well-formed JSON. A flight
//! event is a span of zero length: each step of a traced request is
//! recorded once, its events carry its trace, and a burst of untraced
//! traffic does not push its records out of the next dump.

use std::collections::HashSet;

use ermia::{shard_of_key, DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_repl::{Replica, ReplicaConfig};
use ermia_server::{
    BatchOp, Client, Request, Response, Server, ServerConfig, TraceContext, WireIsolation,
};
use ermia_telemetry::{chrome_trace_json, parse_spans, Span, SpanKind};

/// Minimal structural JSON validation: balanced braces/brackets outside
/// strings, string escapes honored, no trailing commas before a closer.
/// Catches every way the hand-rolled renderer could break without
/// pulling in a JSON parser.
fn assert_valid_json(text: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    let mut last_significant = ' ';
    for ch in text.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
                last_significant = '"';
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' => depth.push('}'),
            '[' => depth.push(']'),
            '}' | ']' => {
                assert_ne!(last_significant, ',', "trailing comma before {ch}");
                assert_eq!(depth.pop(), Some(ch), "mismatched closer {ch}");
            }
            _ => {}
        }
        if !ch.is_whitespace() {
            last_significant = ch;
        }
    }
    assert!(!in_str, "unterminated string");
    assert!(depth.is_empty(), "unbalanced JSON: {} closers missing", depth.len());
    assert_eq!(text.trim_start().chars().next(), Some('['), "must be a JSON array");
}

#[test]
fn one_trace_id_covers_coordinator_participants_and_replica() {
    // Two-shard durable primary, served over the wire.
    let dir = TestDir::new("primary");
    let cfg = DbConfig::durable(&dir);
    let db = ShardedDb::open(cfg, 2).unwrap();
    db.create_table("kv");
    db.recover().unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = srv.local_addr().to_string();
    let mut c = Client::connect(addr.as_str()).unwrap();
    let t = c.open_table("kv").unwrap();

    // One traced interactive transaction writing enough keys that both
    // shards own some of them (P(all on one shard) = 2^-31), committed
    // synchronously so the ack covers 2PC prepare + decide durability.
    let ctx = c.start_trace();
    c.begin(WireIsolation::Snapshot).unwrap();
    for i in 0..32u32 {
        let key = format!("stitch-{i:02}");
        c.put(t, key.as_bytes(), b"traced value").unwrap();
    }
    c.commit(true).unwrap();
    c.clear_trace();

    // Dump over the wire and isolate this trace.
    let text = c.dump_traces(0).unwrap();
    let all = parse_spans(&text).expect("span dump must parse");
    let mine: Vec<Span> = all
        .iter()
        .filter(|s| (s.trace_hi, s.trace_lo) == (ctx.trace_hi, ctx.trace_lo))
        .cloned()
        .collect();
    assert!(!mine.is_empty(), "the traced commit left no spans");

    for kind in [
        SpanKind::Request,
        SpanKind::FrameDecode,
        SpanKind::TxnWrite,
        SpanKind::TwoPcPrepare,
        SpanKind::TwoPcDecide,
        SpanKind::DurabilityWait,
    ] {
        assert!(
            mine.iter().any(|s| s.kind == kind),
            "trace is missing a {} span; got: {:?}",
            kind.label(),
            mine.iter().map(|s| s.kind.label()).collect::<Vec<_>>()
        );
    }

    // Both shards must appear as 2PC participants (`a` = shard).
    let mut prep_shards: Vec<u64> =
        mine.iter().filter(|s| s.kind == SpanKind::TwoPcPrepare).map(|s| s.a).collect();
    prep_shards.sort_unstable();
    prep_shards.dedup();
    assert_eq!(prep_shards, vec![0, 1], "2PC prepare must cover both shards");

    // The span tree is closed: every non-root parent is a span id that
    // exists in the same trace.
    let ids: std::collections::HashSet<u64> = mine.iter().map(|s| s.span_id).collect();
    for s in &mine {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "span {:x} ({}) has dangling parent {:x}",
            s.span_id,
            s.kind.label(),
            s.parent
        );
    }

    // The Chrome export of exactly these records is well-formed JSON with
    // one complete event per span and one instant per flight event.
    let json = chrome_trace_json(&mine);
    assert_valid_json(&json);
    let events = mine.iter().filter(|s| s.dur_ns == 0).count();
    assert!(events > 0, "the trace carries its flight events too");
    assert_eq!(json.matches("\"ph\":\"X\"").count(), mine.len() - events);
    assert_eq!(json.matches("\"ph\":\"i\"").count(), events);

    // Ship the log to a replica; applying the two prepared participant
    // transactions must stitch `repl-apply` spans onto the same trace id
    // (it rides the durable prepare markers).
    let rdir = TestDir::new("replica");
    let mut rcfg = ReplicaConfig::new(addr.clone(), &rdir);
    rcfg.shards = 2;
    let mut replica = Replica::bootstrap(rcfg).unwrap();
    replica.catch_up().unwrap();
    // Each participant shard's prepare is in that shard's log, so each
    // applying shard must record a stitched span on its own tracer.
    let mut stitched_shards: Vec<usize> = Vec::new();
    for i in 0..replica.serving().shards() {
        let spans: Vec<Span> = replica.serving().shard(i).telemetry().tracer().dump_spans(8192);
        if spans.iter().any(|s| {
            s.kind == SpanKind::ReplApply
                && (s.trace_hi, s.trace_lo) == (ctx.trace_hi, ctx.trace_lo)
        }) {
            stitched_shards.push(i);
        }
    }
    assert_eq!(
        stitched_shards,
        vec![0, 1],
        "replica apply must stitch this trace on both participant shards"
    );

    drop(replica);
    srv.shutdown();
}

/// A one-shot cross-shard sync `Batch` of two puts, one per shard of two
/// — the shape of the benchmark's `wire_2pc` request.
fn two_shard_batch(table: u32, n: u32) -> Request {
    let key = |shard| {
        (0u32..)
            .map(|i| format!("pair-{n}-{i}").into_bytes())
            .find(|k| shard_of_key(k, 2) == shard)
            .expect("keys hash to both shards")
    };
    let put = |shard| BatchOp::Put { table, key: key(shard), value: b"value".to_vec() };
    Request::Batch { isolation: WireIsolation::Snapshot, sync: true, ops: vec![put(0), put(1)] }
}

/// A durable two-shard server and a client on it, with table `kv` open.
fn two_shard_server(dir: &TestDir) -> (ShardedDb, Server, Client, u32) {
    let db = ShardedDb::open(DbConfig::durable(dir), 2).unwrap();
    let srv = Server::start_sharded(&db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let t = c.open_table("kv").unwrap();
    (db, srv, c, t)
}

/// Send one traced request and return its context.
fn traced_call(c: &mut Client, req: &Request) -> TraceContext {
    let ctx = c.start_trace();
    assert!(matches!(c.call(req).unwrap(), Response::BatchDone { .. }));
    c.clear_trace();
    ctx
}

fn records_of(c: &mut Client, ctx: &TraceContext) -> Vec<Span> {
    let all = parse_spans(&c.dump_traces(0).unwrap()).expect("the dump parses");
    all.into_iter().filter(|s| (s.trace_hi, s.trace_lo) == (ctx.trace_hi, ctx.trace_lo)).collect()
}

/// One record per occurrence: a traced cross-shard batch begins once on
/// each shard, prepares once per participant and decides once — a span
/// each, never a span and an event — and the flight events it causes
/// (commits, the session parked and resumed) carry its trace and sit
/// under its `request` span.
#[test]
fn a_traced_batch_records_each_step_once_inside_its_request() {
    let dir = TestDir::new("once");
    let (_db, srv, mut c, t) = two_shard_server(&dir);
    let ctx = traced_call(&mut c, &two_shard_batch(t, 0));
    let mine = records_of(&mut c, &ctx);
    let kinds = |kind| mine.iter().filter(|s| s.kind == kind).collect::<Vec<_>>();
    let on_shards = |kind, field: fn(&Span) -> u64| {
        let mut shards: Vec<u64> = kinds(kind).iter().map(|s| field(s)).collect();
        shards.sort_unstable();
        shards
    };
    assert_eq!(on_shards(SpanKind::TxnBegin, |s| s.a), vec![0, 1], "one begin per shard");
    assert_eq!(on_shards(SpanKind::TwoPcPrepare, |s| s.a), vec![0, 1], "one per participant");
    assert_eq!(kinds(SpanKind::TwoPcDecide).len(), 1, "one decide");
    assert_eq!(kinds(SpanKind::TwoPcDecide)[0].b, 1, "a commit verdict");
    let request = kinds(SpanKind::Request);
    assert_eq!(request.len(), 1);
    let request = request[0].span_id;
    for kind in [SpanKind::TxnCommit, SpanKind::SessionParked, SpanKind::SessionResumed] {
        let events = kinds(kind);
        assert!(!events.is_empty(), "no traced {} event: {mine:?}", kind.label());
        for e in events {
            assert_eq!((e.dur_ns, e.parent), (0, request), "{e:?} is not an event of the request");
        }
    }
    assert_eq!(on_shards(SpanKind::TxnCommit, |s| s.shard as u64), vec![0, 1]);
    srv.shutdown();
}

/// Sampled records and always-on ones keep separate lanes and separate
/// cuts: a traced request followed by 768 untraced ones of the same shape
/// — what runs between two of the benchmark's trace dumps (1 request in
/// 16 traced, a dump every 48 traced) — still has every one of its
/// records in the next default dump.
#[test]
fn untraced_traffic_does_not_push_a_traced_request_out_of_the_dump() {
    let dir = TestDir::new("retention");
    let (db, srv, mut c, t) = two_shard_server(&dir);
    let ctx = traced_call(&mut c, &two_shard_batch(t, 0));
    let before: HashSet<u64> = records_of(&mut c, &ctx).iter().map(|s| s.span_id).collect();
    assert!(before.len() > 10, "the traced request left {} records", before.len());
    for n in 1..=768 {
        assert!(matches!(c.call(&two_shard_batch(t, n)).unwrap(), Response::BatchDone { .. }));
    }
    // The burst wrote two untraced begins a request: more than a lane
    // holds, so the always-on lanes lapped.
    let lapped = db.telemetry().tracer().dump_spans(usize::MAX);
    let begins = lapped.iter().filter(|s| s.kind == SpanKind::TxnBegin && !s.is_traced()).count();
    assert!(begins < 2 * 768, "{begins} untraced begins: nothing lapped");
    let after: HashSet<u64> = records_of(&mut c, &ctx).iter().map(|s| s.span_id).collect();
    assert_eq!(after, before, "the burst evicted some of the traced request's records");
    srv.shutdown();
}
