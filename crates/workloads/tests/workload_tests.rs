//! Cross-engine workload tests: every workload runs to completion on
//! ERMIA-SI, ERMIA-SSN, and Silo-OCC, commits work, and (for TPC-C)
//! leaves the database consistent.

use std::time::Duration;

use ermia_workloads::driver::{run, RunConfig};
use ermia_workloads::micro::{MicroConfig, MicroWorkload, PartMicroConfig, PartMicroWorkload};
use ermia_workloads::tpcc::{check_consistency, TpccConfig, TpccWorkload};
use ermia_workloads::tpcc_hybrid::TpccHybridWorkload;
use ermia_workloads::tpce::{TpceConfig, TpceWorkload};
use ermia_workloads::tpce_hybrid::TpceHybridWorkload;
use ermia_workloads::{Engine, ErmiaEngine, SiloEngine};

fn ermia_si() -> ErmiaEngine {
    ErmiaEngine::si(ermia::Database::open(ermia::DbConfig::in_memory()).unwrap())
}

fn ermia_sharded(shards: usize) -> ErmiaEngine {
    ErmiaEngine::si(ermia::ShardedDb::open(ermia::DbConfig::in_memory(), shards).unwrap())
}

fn ermia_ssn() -> ErmiaEngine {
    ErmiaEngine::ssn(ermia::Database::open(ermia::DbConfig::in_memory()).unwrap())
}

fn silo() -> SiloEngine {
    SiloEngine::new(silo_occ::SiloDb::open(silo_occ::SiloConfig {
        epoch_interval: Duration::from_millis(2),
        snapshot_interval: Duration::from_millis(5),
        snapshots: true,
    }))
}

fn short() -> RunConfig {
    RunConfig::new(2, Duration::from_millis(400))
}

fn micro_on<E: Engine>(engine: E) {
    let wl = MicroWorkload::new(MicroConfig { rows: 2_000, reads: 50, write_ratio: 0.05 });
    let r = run(&engine, &wl, &short());
    assert!(r.total_commits() > 0, "{}: no commits", engine.name());
}

#[test]
fn micro_runs_on_all_engines() {
    micro_on(ermia_si());
    micro_on(ermia_ssn());
    micro_on(silo());
}

fn tpcc_on<E: Engine>(engine: E) {
    let wl = TpccWorkload::new(TpccConfig::small(2));
    let r = run(&engine, &wl, &short());
    assert!(r.total_commits() > 50, "{}: too few commits: {}", engine.name(), r.total_commits());
    // Every transaction type must have executed.
    for ty in &r.per_type {
        assert!(ty.executions() > 0, "{}: {} never ran", engine.name(), ty.name);
    }
    check_consistency(&engine, &wl);
}

#[test]
fn tpcc_runs_and_stays_consistent_ermia_si() {
    tpcc_on(ermia_si());
}

#[test]
fn tpcc_runs_and_stays_consistent_ermia_ssn() {
    tpcc_on(ermia_ssn());
}

#[test]
fn tpcc_runs_and_stays_consistent_silo() {
    tpcc_on(silo());
}

#[test]
fn tpcc_runs_and_stays_consistent_sharded() {
    // 3 shards, 2 warehouses: cross-partition NewOrder/Payment become
    // cross-shard two-phase commits; consistency conditions must still
    // hold over the merged namespace.
    tpcc_on(ermia_sharded(3));
}

#[test]
fn part_micro_crosses_shards_and_commits() {
    let engine = ermia_sharded(2);
    let wl = PartMicroWorkload::new(PartMicroConfig {
        partitions: 4,
        shards: 2,
        rows_per_partition: 500,
        reads: 10,
        write_ratio: 0.2,
        cross_pct: 50,
    });
    let r = run(&engine, &wl, &short());
    assert!(r.total_commits() > 0, "no commits");
    // Half the transactions write two shards: 2PC must actually fire.
    let cross = engine.db.telemetry().render_prometheus();
    let line = cross
        .lines()
        .find(|l| l.starts_with("ermia_shard_cross_txns_total"))
        .expect("cross-shard counter exported");
    let n: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(n > 0.0, "expected cross-shard commits, counter: {line}");
}

fn tpcc_hybrid_on<E: Engine>(engine: E) -> ermia_workloads::BenchResult {
    let wl = TpccHybridWorkload::new(TpccConfig::small(2), 20);
    let r = run(&engine, &wl, &short());
    assert!(r.total_commits() > 0, "{}: no commits", engine.name());
    check_consistency(&engine, &wl.base);
    r
}

#[test]
fn tpcc_hybrid_q2_commits_under_ermia() {
    let r = tpcc_hybrid_on(ermia_si());
    let q2 = r.stats_of("Q2*").unwrap();
    assert!(q2.executions() > 0, "Q2* never ran");
    assert!(q2.commits > 0, "ERMIA-SI must commit read-mostly Q2* transactions");
}

#[test]
fn tpcc_hybrid_runs_under_ssn_and_silo() {
    let r = tpcc_hybrid_on(ermia_ssn());
    assert!(r.stats_of("Q2*").unwrap().executions() > 0);
    let r = tpcc_hybrid_on(silo());
    assert!(r.stats_of("Q2*").unwrap().executions() > 0);
}

fn tpce_on<E: Engine>(engine: E) {
    let wl = TpceWorkload::new(TpceConfig::small());
    let r = run(&engine, &wl, &short());
    assert!(r.total_commits() > 50, "{}: too few commits: {}", engine.name(), r.total_commits());
}

#[test]
fn tpce_runs_on_all_engines() {
    tpce_on(ermia_si());
    tpce_on(ermia_ssn());
    tpce_on(silo());
}

#[test]
fn tpce_hybrid_asset_eval_commits_under_ermia() {
    let engine = ermia_si();
    let wl = TpceHybridWorkload::new(TpceConfig::small(), 10);
    let r = run(&engine, &wl, &short());
    let ae = r.stats_of("AssetEval").unwrap();
    assert!(ae.executions() > 0, "AssetEval never ran");
    assert!(ae.commits > 0, "ERMIA-SI must commit AssetEval");
}

#[test]
fn tpce_hybrid_runs_under_silo() {
    let engine = silo();
    let wl = TpceHybridWorkload::new(TpceConfig::small(), 10);
    let r = run(&engine, &wl, &short());
    assert!(r.stats_of("AssetEval").unwrap().executions() > 0);
    assert!(r.total_commits() > 0);
}

#[test]
fn driver_stats_are_coherent() {
    let engine = ermia_si();
    let wl = MicroWorkload::new(MicroConfig { rows: 500, reads: 10, write_ratio: 0.1 });
    let r = run(&engine, &wl, &RunConfig::new(2, Duration::from_millis(200)));
    for ty in &r.per_type {
        assert_eq!(ty.executions(), ty.commits + ty.aborts);
        let reason_total: u64 = ty.abort_reasons.values().sum();
        assert_eq!(reason_total, ty.aborts, "abort reasons must cover all aborts");
        if ty.commits > 0 {
            assert!(ty.latency_avg_ms() > 0.0);
            assert!(ty.latency_max_ns > 0);
        }
    }
    assert!(r.tps() > 0.0);
    // Driver counts match the engine's own counters (plus loader txns).
    let (engine_commits, _) = engine.txn_counts();
    assert!(engine_commits >= r.total_commits());
}
