//! Talk to a running ERMIA server (`crates/server/src/bin/ermia-server.rs`).
//!
//! ```sh
//! cargo run --release --example client -- 127.0.0.1:7878
//! ```
//!
//! Tours the wire API: autocommitted ops, an interactive transaction
//! with a synchronous (durable) commit, a one-shot batched transaction,
//! and a pipelined stream of requests on one connection.

use std::time::Instant;

use ermia_server::{BatchOp, Client, Request, Response, WireIsolation};

fn main() {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:7878".into());
    let mut c = Client::connect(&*addr).expect("connect (is the server example running?)");
    c.ping().expect("ping");
    let t = c.open_table("fruit").expect("open table");
    println!("connected to {addr}, table id {t}");

    // --- Autocommitted ops ---------------------------------------------
    c.put(t, b"apples", b"120").unwrap();
    c.put(t, b"bananas", b"75").unwrap();
    let v = c.get(t, b"apples").unwrap();
    println!("apples = {:?}", v.map(|b| String::from_utf8_lossy(&b).into_owned()));

    // --- Interactive transaction, durable commit -----------------------
    c.begin(WireIsolation::Serializable).unwrap();
    let bananas = c.get(t, b"bananas").unwrap().unwrap();
    let n: u64 = String::from_utf8_lossy(&bananas).parse().unwrap();
    c.put(t, b"bananas", (n - 5).to_string().as_bytes()).unwrap();
    let lsn = c.commit(true).unwrap(); // sync: waits for group commit
    println!("sold 5 bananas, durable at LSN {lsn}");

    // --- One-shot batch: one round trip, one transaction ----------------
    let (results, outcome) = c
        .batch(
            WireIsolation::Snapshot,
            false,
            vec![
                BatchOp::Put { table: t, key: b"cherries".to_vec(), value: b"12".to_vec() },
                BatchOp::Scan { table: t, low: b"a".to_vec(), high: b"z".to_vec(), limit: 10 },
            ],
        )
        .unwrap();
    println!("batch: {} results, outcome {outcome:?}", results.len());
    if let Response::Rows { rows, .. } = &results[1] {
        for (k, v) in rows {
            println!("  {} = {}", String::from_utf8_lossy(k), String::from_utf8_lossy(v));
        }
    }

    // --- Pipelining: a window of sync commits in flight ------------------
    let start = Instant::now();
    const N: usize = 200;
    for i in 0..N {
        c.send(&Request::Batch {
            isolation: WireIsolation::Snapshot,
            sync: true,
            ops: vec![BatchOp::Put {
                table: t,
                key: format!("bulk-{i:04}").into_bytes(),
                value: b"x".to_vec(),
            }],
        })
        .unwrap();
    }
    let mut committed = 0;
    for _ in 0..N {
        if let Response::BatchDone { outcome, .. } = c.recv().unwrap() {
            if matches!(*outcome, Response::Committed { .. }) {
                committed += 1;
            }
        }
    }
    let dt = start.elapsed();
    println!(
        "pipelined {committed}/{N} sync-commit txns in {dt:?} ({:.0} txn/s)",
        committed as f64 / dt.as_secs_f64()
    );
}
