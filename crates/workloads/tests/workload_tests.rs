//! Cross-engine workload tests: every workload runs to completion on
//! ERMIA-SI, ERMIA-SSN, and Silo-OCC, commits work, and (for TPC-C)
//! leaves the database consistent.

use std::time::Duration;

use ermia_workloads::driver::{run, run_loaded, RunConfig, Workload};
use ermia_workloads::micro::{MicroConfig, MicroWorkload};
use ermia_workloads::tpcc::{check_consistency, TpccConfig, TpccWorkload};
use ermia_workloads::tpcc_hybrid::TpccHybridWorkload;
use ermia_workloads::tpce::{TpceConfig, TpceWorkload};
use ermia_workloads::tpce_hybrid::TpceHybridWorkload;
use ermia_workloads::{BenchResult, Engine, ErmiaEngine, SiloEngine};

fn ermia_si() -> ErmiaEngine {
    ermia_sharded(1)
}

fn ermia_sharded(shards: usize) -> ErmiaEngine {
    ErmiaEngine::si(ermia::ShardedDb::open(ermia::DbConfig::in_memory(), shards).unwrap())
}

fn ermia_ssn() -> ErmiaEngine {
    ErmiaEngine::ssn(ermia::ShardedDb::open(ermia::DbConfig::in_memory(), 1).unwrap())
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

fn tpcc_ran_and_is_consistent<E: Engine>(engine: &E, wl: &TpccWorkload, r: &BenchResult) {
    assert!(r.total_commits() > 50, "{}: too few commits: {}", engine.name(), r.total_commits());
    // Every transaction type must have executed.
    for ty in &r.per_type {
        assert!(ty.executions() > 0, "{}: {} never ran", engine.name(), ty.name);
    }
    check_consistency(engine, wl);
}

fn tpcc_on<E: Engine>(engine: E) {
    let wl = TpccWorkload::new(TpccConfig::small(2));
    let r = run(&engine, &wl, &short());
    tpcc_ran_and_is_consistent(&engine, &wl, &r);
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
    let engine = ermia_sharded(3);
    let cross_txns = || {
        ermia_telemetry::parse_exposition(&engine.db.telemetry().render_prometheus())
            .unwrap()
            .value("ermia_shard_cross_txns_total")
            .unwrap()
    };
    let wl = TpccWorkload::new(TpccConfig::small(2));
    Workload::<ErmiaEngine>::load(&wl, &engine);
    // (Loading the replicated tables already commits on every shard.)
    let loaded = cross_txns();
    let r = run_loaded(&engine, &wl, &short());
    tpcc_ran_and_is_consistent(&engine, &wl, &r);
    assert!(cross_txns() > loaded, "no TPC-C transaction committed on two shards");
}

fn tpcc_hybrid_on<E: Engine>(engine: E) -> BenchResult {
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
