//! End-to-end trace stitching: one client-minted trace id must cover
//! the whole life of a cross-shard synchronous commit — frame decode,
//! the transaction's engine spans, 2PC prepare on *both* participant
//! shards, the decide, the durability wait — and, after log shipping,
//! the replica's apply spans for the same transaction. The exported
//! Chrome `trace_event` rendering must be well-formed JSON.

use ermia::{DbConfig, ShardedDb};
use ermia_common::TestDir;
use ermia_repl::{Replica, ReplicaConfig};
use ermia_server::{Client, Server, ServerConfig, WireIsolation};
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

    // The Chrome export of exactly these spans is well-formed JSON with
    // one complete event per span.
    let json = chrome_trace_json(&mine);
    assert_valid_json(&json);
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        mine.len(),
        "every span must render as one complete event"
    );

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
