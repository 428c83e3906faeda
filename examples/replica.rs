//! Run a log-shipping read replica of a running ERMIA server.
//!
//! ```sh
//! cargo run --release -p ermia-server --bin ermia-server -- 127.0.0.1:7878   # terminal 1
//! cargo run --release --example replica -- 127.0.0.1:7878 127.0.0.1:7879
//! ```
//!
//! The replica bootstraps from the primary's latest checkpoint, tails
//! its log segments (and blob store) over the wire, replays them
//! through the recovery path, and serves the same wire protocol
//! read-only on the second address — point `--example client` or
//! `ermia_top` at it. Writes bounce with `DegradedReadOnly`; the data
//! directory it builds is a promotable backup (restart it standalone
//! with `ermia-server --data-dir` and it recovers like a crashed primary).
//! Stop with Enter.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ermia_repl::{Replica, ReplError, ReplicaConfig};
use ermia_server::{Client, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let primary = args.first().cloned().unwrap_or_else(|| "127.0.0.1:7878".into());
    let listen = args.get(1).cloned().unwrap_or_else(|| "127.0.0.1:7879".into());
    let dir = std::env::temp_dir().join("ermia-replica-example");

    println!("bootstrapping from {primary} into {}", dir.display());
    let mut replica = Replica::bootstrap(ReplicaConfig::new(&primary, &dir)).expect("bootstrap");
    replica.catch_up().expect("initial catch-up");

    let srv = replica.serve(&listen, ServerConfig::default()).expect("bind");
    println!(
        "replica serving read-only on {} (applied offset {})",
        srv.local_addr(),
        replica.applied_lsn()
    );

    // Tail the primary until Enter is pressed.
    let stop = Arc::new(AtomicBool::new(false));
    let stdin_stop = Arc::clone(&stop);
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = std::io::stdin().read_line(&mut line);
        stdin_stop.store(true, Ordering::Relaxed);
    });

    let mut last_applied = 0;
    while !stop.load(Ordering::Relaxed) {
        match replica.poll() {
            Ok(p) => {
                if replica.applied_lsn() != last_applied {
                    last_applied = replica.applied_lsn();
                    println!(
                        "applied offset {last_applied} (lag {} B, +{} B shipped)",
                        p.lag_bytes, p.shipped_bytes
                    );
                }
                if p.lag_bytes == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            // The primary went away or truncated past our pin: keep
            // retrying — a real deployment would re-bootstrap on
            // RetentionLost.
            Err(ReplError::RetentionLost { shard, have, earliest }) => {
                eprintln!(
                    "retention lost on shard {shard} (have {have}, primary earliest {earliest}); \
                     re-bootstrap required"
                );
                break;
            }
            Err(e) => {
                eprintln!("poll: {e}; retrying");
                std::thread::sleep(Duration::from_millis(200));
                let _ = replica.reconnect();
            }
        }
    }

    // Show the role from the outside, like a client would.
    if let Ok(h) = Client::connect(listen.as_str()).and_then(|mut c| c.health()) {
        println!(
            "health: role={} degraded={} applied_lsn={}",
            if h.role == 1 { "replica" } else { "primary" },
            h.degraded,
            h.applied_lsn
        );
    }

    println!("shutting down replica server…");
    srv.shutdown();
}
