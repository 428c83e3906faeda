//! The paper's headline phenomenon, live: a read-mostly analytic
//! transaction starves under lightweight OCC while ERMIA serves it
//! effortlessly.
//!
//! We run the same heterogeneous mix — many small writers plus one big
//! "report" transaction that scans the whole table and writes one
//! summary row — against both engines and compare the report's
//! commit/abort counts.
//!
//! ```sh
//! cargo run --release --example hybrid_workload
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const ROWS: u64 = 5_000;
const RUN: Duration = Duration::from_secs(3);

struct Outcome {
    report_commits: u64,
    report_aborts: u64,
    writer_commits: u64,
}

fn main() {
    println!("heterogeneous mix: 2 hot writers + 1 whole-table report transaction");
    println!("({} rows, {:?} runs)\n", ROWS, RUN);

    let ermia = run_ermia();
    let silo = run_silo();

    println!("{:<12} {:>16} {:>15} {:>16}", "engine", "report commits", "report aborts", "writer commits");
    println!(
        "{:<12} {:>16} {:>15} {:>16}",
        "ERMIA-SI", ermia.report_commits, ermia.report_aborts, ermia.writer_commits
    );
    println!(
        "{:<12} {:>16} {:>15} {:>16}",
        "Silo-OCC", silo.report_commits, silo.report_aborts, silo.writer_commits
    );
    println!();
    assert!(ermia.report_commits > 0, "ERMIA must keep committing the report");
    let ratio = |c: u64, a: u64| if c + a == 0 { 0.0 } else { 100.0 * a as f64 / (c + a) as f64 };
    let e_ratio = ratio(ermia.report_commits, ermia.report_aborts);
    let s_ratio = ratio(silo.report_commits, silo.report_aborts);
    println!("report abort ratio: ERMIA-SI {e_ratio:.1}%  vs  Silo-OCC {s_ratio:.1}%");
    println!();
    println!("-> under OCC every writer that overwrites the report's read set before it");
    println!("   validates forces an abort and throws away a whole table scan; under");
    println!("   ERMIA the report reads a snapshot and writers never touch it ({} aborts).", ermia.report_aborts);
    println!("   (On many-core hardware the OCC abort ratio climbs toward 100% — see");
    println!("   Figure 5 via `cargo run --release -p ermia-bench --bin fig05_tpcc_hybrid`.)");
}

fn run_ermia() -> Outcome {
    let db = ermia::Database::open(ermia::DbConfig::in_memory()).unwrap();
    let table = db.create_table("metrics");
    let pk = db.primary_index(table);

    // Load.
    let mut w = db.register_worker();
    let mut tx = w.begin(ermia::IsolationLevel::Snapshot);
    for i in 0..ROWS {
        tx.insert(table, &i.to_be_bytes(), &1u64.to_le_bytes()).unwrap();
    }
    tx.commit().unwrap();

    let stop = AtomicBool::new(false);
    let report_commits = AtomicU64::new(0);
    let report_aborts = AtomicU64::new(0);
    let writer_commits = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..2u64 {
            let db = db.clone();
            let stop = &stop;
            let writer_commits = &writer_commits;
            s.spawn(move || {
                let mut w = db.register_worker();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let mut tx = w.begin(ermia::IsolationLevel::Snapshot);
                    let key = (i % ROWS).to_be_bytes();
                    if tx.update(table, &key, &i.to_le_bytes()).is_ok() && tx.commit().is_ok() {
                        writer_commits.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 7;
                }
            });
        }
        {
            let db = db.clone();
            let stop = &stop;
            let (rc, ra) = (&report_commits, &report_aborts);
            s.spawn(move || {
                let mut w = db.register_worker();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut tx = w.begin(ermia::IsolationLevel::Snapshot);
                    let mut sum = 0u64;
                    let ok = tx.scan(pk, &0u64.to_be_bytes(), &ROWS.to_be_bytes(), None, |_, v| {
                        sum = sum.wrapping_add(u64::from_le_bytes(v.try_into().unwrap()));
                        true
                    });
                    seq += 1;
                    let mut key = b"report-".to_vec();
                    key.extend_from_slice(&seq.to_be_bytes());
                    let outcome = ok
                        .and_then(|_| tx.insert(table, &key, &sum.to_le_bytes()).map(|_| ()))
                        .and_then(|_| tx.commit().map(|_| ()));
                    match outcome {
                        Ok(()) => rc.fetch_add(1, Ordering::Relaxed),
                        Err(_) => ra.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
        std::thread::sleep(RUN);
        stop.store(true, Ordering::Relaxed);
    });

    Outcome {
        report_commits: report_commits.into_inner(),
        report_aborts: report_aborts.into_inner(),
        writer_commits: writer_commits.into_inner(),
    }
}

fn run_silo() -> Outcome {
    let db = silo_occ::SiloDb::open(silo_occ::SiloConfig::default());
    let table = db.create_table("metrics");
    let pk = db.primary_index(table);

    let mut w = db.register_worker();
    let mut tx = w.begin(silo_occ::TxnMode::ReadWrite);
    for i in 0..ROWS {
        tx.insert(table, &i.to_be_bytes(), &1u64.to_le_bytes()).unwrap();
    }
    tx.commit().unwrap();

    let stop = AtomicBool::new(false);
    let report_commits = AtomicU64::new(0);
    let report_aborts = AtomicU64::new(0);
    let writer_commits = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..2u64 {
            let db = db.clone();
            let stop = &stop;
            let writer_commits = &writer_commits;
            s.spawn(move || {
                let mut w = db.register_worker();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let mut tx = w.begin(silo_occ::TxnMode::ReadWrite);
                    let key = (i % ROWS).to_be_bytes();
                    if tx.update(table, &key, &i.to_le_bytes()).is_ok() && tx.commit().is_ok() {
                        writer_commits.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 7;
                }
            });
        }
        {
            let db = db.clone();
            let stop = &stop;
            let (rc, ra) = (&report_commits, &report_aborts);
            s.spawn(move || {
                let mut w = db.register_worker();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // The report WRITES its summary, so it cannot run as
                    // a read-only snapshot transaction — it must validate
                    // its whole read set at commit.
                    let mut tx = w.begin(silo_occ::TxnMode::ReadWrite);
                    let mut sum = 0u64;
                    let ok = tx.scan(pk, &0u64.to_be_bytes(), &ROWS.to_be_bytes(), None, |_, v| {
                        sum = sum.wrapping_add(u64::from_le_bytes(v.try_into().unwrap()));
                        true
                    });
                    seq += 1;
                    let mut key = b"report-".to_vec();
                    key.extend_from_slice(&seq.to_be_bytes());
                    let outcome = ok
                        .and_then(|_| tx.insert(table, &key, &sum.to_le_bytes()).map(|_| ()))
                        .and_then(|_| tx.commit());
                    match outcome {
                        Ok(()) => rc.fetch_add(1, Ordering::Relaxed),
                        Err(_) => ra.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
        std::thread::sleep(RUN);
        stop.store(true, Ordering::Relaxed);
    });

    Outcome {
        report_commits: report_commits.into_inner(),
        report_aborts: report_aborts.into_inner(),
        writer_commits: writer_commits.into_inner(),
    }
}
