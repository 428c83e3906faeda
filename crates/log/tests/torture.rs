//! Crash-recovery torture tests.
//!
//! Randomized committed workloads run against the [`FaultInjector`]
//! backend, which "crashes" the storage at arbitrary points (torn
//! writes, failed fsyncs, ENOSPC, silent stops). The log is then
//! reopened with the real file backend — exactly the restart path — and
//! the durable-prefix invariant is checked:
//!
//! 1. every transaction whose `wait_durable` succeeded is recovered,
//! 2. nothing past the first hole survives (the recovered transactions
//!    are a clean prefix of the attempted sequence),
//! 3. recovered payloads are byte-identical to what was committed.
//!
//! Everything is derived deterministically from a seed; failures print
//! the seed to reproduce. `TORTURE_SEED` (used by the nightly CI job)
//! adds an extra randomized round on top of the fixed seeds.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ermia_common::rng::SplitMix64;
use ermia_common::TestDir;
use ermia_log::{
    FaultInjector, FaultPlan, FileBackend, LogConfig, LogManager, LogScanner, TornWrite,
};

mod common;

fn torture_cfg(dir: PathBuf, injector: &FaultInjector) -> LogConfig {
    LogConfig {
        dir: Some(dir),
        segment_size: 4096,
        buffer_size: 64 << 10,
        fsync: true,
        flush_interval: Duration::from_micros(50),
        io_factory: Arc::new(injector.clone()),
        wait_durable_timeout: Duration::from_secs(5),
    }
}

/// The payload committed for transaction `id` under `seed` — recognizable
/// and seed-dependent so recovery can verify bytes, not just presence.
fn payload_for(seed: u64, id: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ id.wrapping_mul(0xA076_1D64_78BD_642F));
    let len = 8 + rng.below(48) as usize;
    let mut out = Vec::with_capacity(len + 8);
    out.extend_from_slice(&id.to_be_bytes());
    for _ in 0..len {
        out.push(rng.next_u64() as u8);
    }
    out
}

struct WorkloadOutcome {
    /// Transaction ids whose blocks were filled, in commit order.
    attempted: Vec<u64>,
    /// Ids whose `wait_durable` returned Ok — the acknowledged prefix.
    acked: Vec<u64>,
}

/// Run up to `max_txns` single-threaded committed transactions against a
/// fault-injecting log, acking each one only when its durability wait
/// succeeds. Stops at the first failure (allocation or durability).
fn run_workload(
    dir: PathBuf,
    injector: &FaultInjector,
    seed: u64,
    max_txns: u64,
) -> WorkloadOutcome {
    let log = match LogManager::open(torture_cfg(dir, injector)) {
        Ok(log) => log,
        Err(_) => return WorkloadOutcome { attempted: Vec::new(), acked: Vec::new() },
    };
    let mut outcome = WorkloadOutcome { attempted: Vec::new(), acked: Vec::new() };
    for id in 0..max_txns {
        let value = payload_for(seed, id);
        let Ok((_, end)) = common::append(&log, id, &id.to_be_bytes(), &value) else { break };
        outcome.attempted.push(id);
        match log.wait_durable(end) {
            Ok(()) => outcome.acked.push(id),
            Err(_) => break,
        }
    }
    outcome
}

/// Reopen the directory with the clean file backend (the restart path:
/// `LogManager::open` → `find_tail`) and scan every recovered Txn block
/// into id → payload.
fn recover(dir: PathBuf) -> HashMap<u64, Vec<u8>> {
    let cfg = LogConfig {
        dir: Some(dir),
        segment_size: 4096,
        buffer_size: 64 << 10,
        fsync: false,
        flush_interval: Duration::from_micros(50),
        io_factory: Arc::new(FileBackend),
        wait_durable_timeout: Duration::from_secs(5),
    };
    let log = LogManager::open(cfg).expect("reopen after crash must succeed");
    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut recovered = HashMap::new();
    while let Some(block) = scanner.next_block().expect("scan") {
        for rec in block.records() {
            let id = u64::from_be_bytes(rec.key[..8].try_into().unwrap());
            recovered.insert(id, rec.value);
        }
    }
    recovered
}

/// The durable-prefix invariant.
fn assert_durable_prefix(seed: u64, outcome: &WorkloadOutcome, recovered: &HashMap<u64, Vec<u8>>) {
    // Acked ids form a prefix of the attempted sequence by construction
    // (single-threaded; the loop stops at the first durability failure).
    assert_eq!(
        outcome.acked.as_slice(),
        &outcome.attempted[..outcome.acked.len()],
        "seed {seed}: acked must be the attempted prefix"
    );
    // 1. Every acknowledged transaction is recovered, bytes intact.
    for &id in &outcome.acked {
        let got = recovered
            .get(&id)
            .unwrap_or_else(|| panic!("seed {seed}: acked txn {id} lost after recovery"));
        assert_eq!(
            got,
            &payload_for(seed, id),
            "seed {seed}: acked txn {id} recovered with wrong payload"
        );
    }
    // 2. Nothing past the first hole: the recovered set is a clean prefix
    //    of the attempted sequence (unacked suffix transactions may or
    //    may not survive, but never with a gap before them).
    let k = recovered.len();
    assert!(
        k >= outcome.acked.len() && k <= outcome.attempted.len(),
        "seed {seed}: recovered {k} txns, acked {}, attempted {}",
        outcome.acked.len(),
        outcome.attempted.len()
    );
    for &id in &outcome.attempted[..k] {
        assert!(
            recovered.contains_key(&id),
            "seed {seed}: recovery has a gap: txn {id} missing but {k} txns recovered"
        );
        assert_eq!(
            recovered[&id],
            payload_for(seed, id),
            "seed {seed}: txn {id} recovered with wrong payload"
        );
    }
}

/// Build a randomized fault plan from a seed: one of the five fault
/// kinds, with seed-derived trigger points.
fn plan_for(seed: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1));
    let mut plan = FaultPlan::default();
    match rng.below(5) {
        0 => {
            plan.fail_write_at = Some(rng.below(40));
            plan.write_error_kind = Some(if rng.below(2) == 0 {
                ErrorKind::Interrupted // transient: flusher retries through it
            } else {
                ErrorKind::InvalidData // fatal: poisons the log
            });
        }
        1 => {
            plan.torn_write =
                Some(TornWrite { at_write: rng.below(40), keep_bytes: rng.below(64) as usize });
        }
        2 => plan.fail_sync_at = Some(rng.below(40)),
        3 => plan.enospc_after_bytes = Some(512 + rng.below(8 << 10)),
        _ => plan.crash_after_writes = Some(1 + rng.below(40)),
    }
    plan
}

fn torture_one(tag: &str, seed: u64, plan: FaultPlan) {
    let dir = TestDir::new(tag);
    let injector = FaultInjector::new(plan);
    let outcome = run_workload(dir.to_path_buf(), &injector, seed, 300);
    let recovered = recover(dir.to_path_buf());
    assert_durable_prefix(seed, &outcome, &recovered);
}

/// Acceptance criterion: the torn-write-at-tail case is deterministic for
/// 12 distinct seeds. The tear hits the newest write — the log's tail —
/// so the torn block must vanish at recovery while every acked block
/// before it survives.
#[test]
fn torn_write_at_tail_all_seeds() {
    for seed in 0..12u64 {
        let mut rng = SplitMix64::new(seed);
        let plan = FaultPlan {
            torn_write: Some(TornWrite {
                // Tear an early-to-mid write so the run always reaches it.
                at_write: 1 + rng.below(24),
                // Keep a prefix that usually truncates mid-header or
                // mid-payload (blocks are 32-byte aligned).
                keep_bytes: rng.below(48) as usize,
            }),
            ..FaultPlan::default()
        };
        let dir = TestDir::new("torn-tail");
        let injector = FaultInjector::new(plan);
        let outcome = run_workload(dir.to_path_buf(), &injector, seed, 300);
        assert_eq!(injector.faults_injected(), 1, "seed {seed}: torn write must fire");
        assert!(injector.crashed(), "seed {seed}: torn write crashes the store");
        // The transaction whose flush was torn can never be acknowledged.
        assert!(
            outcome.acked.len() < outcome.attempted.len(),
            "seed {seed}: the torn txn must not ack"
        );
        let recovered = recover(dir.to_path_buf());
        assert_durable_prefix(seed, &outcome, &recovered);
    }
}

/// Randomized plans across many seeds: every fault kind, arbitrary crash
/// points, invariant must hold each time.
#[test]
fn randomized_fault_plans_hold_invariant() {
    for seed in 0..24u64 {
        torture_one("random", seed, plan_for(seed));
    }
}

/// Nightly hook: `TORTURE_SEED=<n>` runs one extra randomized round; the
/// seed is in every assertion message for reproduction.
#[test]
fn torture_env_seed_round() {
    let Some(seed) = std::env::var("TORTURE_SEED").ok().and_then(|s| s.parse::<u64>().ok()) else {
        return;
    };
    for salt in 0..8u64 {
        let seed = seed.wrapping_add(salt);
        torture_one("env-seed", seed, plan_for(seed));
    }
}

/// A fault-free run through the injector must ack and recover everything.
#[test]
fn no_fault_plan_recovers_everything() {
    let dir = TestDir::new("clean");
    let injector = FaultInjector::new(FaultPlan::default());
    let outcome = run_workload(dir.to_path_buf(), &injector, 7, 150);
    assert_eq!(outcome.acked.len(), 150);
    let recovered = recover(dir.to_path_buf());
    assert_eq!(recovered.len(), 150);
    assert_durable_prefix(7, &outcome, &recovered);
}

/// Transient write errors must be retried through, not poison the log.
#[test]
fn transient_write_errors_are_absorbed() {
    let dir = TestDir::new("transient");
    let injector = FaultInjector::new(FaultPlan {
        fail_write_at: Some(3),
        write_error_kind: Some(ErrorKind::Interrupted),
        ..FaultPlan::default()
    });
    let outcome = run_workload(dir.to_path_buf(), &injector, 11, 100);
    assert_eq!(outcome.acked.len(), 100, "one transient error must not stop the log");
    assert_eq!(injector.faults_injected(), 1);
    let recovered = recover(dir.to_path_buf());
    assert_durable_prefix(11, &outcome, &recovered);
}

/// A crash between creating a segment file and sizing it leaves a
/// zero-length file under a valid name. Reopening reads it as the hole
/// it is: the earlier segments' blocks come back, and the log goes on
/// writing into that segment.
#[test]
fn a_zero_length_segment_file_reads_as_a_hole() {
    let dir = TestDir::new("zero-length");
    let outcome =
        run_workload(dir.to_path_buf(), &FaultInjector::new(FaultPlan::default()), 13, 200);
    // The segment with the highest start (`log-<segno>-<start>-<end>`, hex).
    let start = |p: &PathBuf| {
        let name = p.file_name()?.to_str()?.strip_prefix("log-")?.to_owned();
        u64::from_str_radix(name.split('-').nth(1)?, 16).ok()
    };
    let newest = std::fs::read_dir(&*dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| start(p).is_some())
        .max_by_key(start)
        .unwrap();
    std::fs::OpenOptions::new().write(true).open(&newest).unwrap().set_len(0).unwrap();
    let recovered = recover(dir.to_path_buf());
    // What the older segments held is a prefix of the acked sequence.
    let kept = outcome.acked.iter().take_while(|id| recovered.contains_key(id)).count();
    assert!(kept > 0 && kept < outcome.acked.len(), "kept {kept} of {}", outcome.acked.len());
    assert_eq!(recovered.len(), kept, "nothing past the hole survives");
    for id in &outcome.acked[..kept] {
        assert_eq!(recovered[id], payload_for(13, *id), "txn {id} corrupted");
    }
    // The reopened log appends at the hole, and that survives a restart.
    let more = run_workload(dir.to_path_buf(), &FaultInjector::new(FaultPlan::default()), 14, 5);
    assert_eq!(more.acked.len(), 5);
    let recovered = recover(dir.to_path_buf());
    for id in &more.acked {
        assert_eq!(recovered.get(id), Some(&payload_for(14, *id)), "txn {id} lost after the hole");
    }
}

/// Concurrent committers racing a crash point: every acked transaction
/// must be recovered (the prefix-shape assertion does not apply — ids
/// interleave across threads).
#[test]
fn concurrent_commits_survive_crash_point() {
    const THREADS: u64 = 4;
    let dir = TestDir::new("concurrent");
    let injector =
        FaultInjector::new(FaultPlan { crash_after_writes: Some(60), ..FaultPlan::default() });
    let log = LogManager::open(torture_cfg(dir.to_path_buf(), &injector)).unwrap();
    let acked = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = &log;
            let acked = &acked;
            s.spawn(move || {
                for i in 0..200u64 {
                    let id = t * 1_000 + i;
                    let value = payload_for(99, id);
                    let Ok((_, end)) = common::append(log, id, &id.to_be_bytes(), &value) else {
                        return;
                    };
                    if log.wait_durable(end).is_ok() {
                        acked.lock().unwrap().push(id);
                    } else {
                        return;
                    }
                }
            });
        }
    });
    drop(log);
    let recovered = recover(dir.to_path_buf());
    for &id in acked.lock().unwrap().iter() {
        assert_eq!(
            recovered.get(&id),
            Some(&payload_for(99, id)),
            "acked txn {id} lost or corrupted after crash"
        );
    }
}

/// After the flusher poisons the log, waiters already blocked in
/// `wait_durable` are woken with the poison error, and new allocations
/// fail fast.
#[test]
fn poison_wakes_waiters_and_blocks_allocation() {
    let dir = TestDir::new("poison");
    let injector = FaultInjector::new(FaultPlan { fail_sync_at: Some(0), ..FaultPlan::default() });
    let log = LogManager::open(torture_cfg(dir.to_path_buf(), &injector)).unwrap();
    let (_, end) = common::append(&log, 1, b"k8bytes!", b"v").unwrap();
    let err = log.wait_durable(end).expect_err("first fsync fails -> poisoned");
    assert!(matches!(err, ermia_common::LogError::Poisoned { .. }), "got {err:?}");
    assert!(log.is_poisoned());
    assert!(log.poison_cause().is_some());
    assert!(log.allocate(64).is_err(), "poisoned log must reject allocations");
    drop(log);
}
