//! Degraded-mode resume and poison/timeout-race regression tests.
//!
//! A poisoned log no longer forces a restart: `LogManager::resume`
//! re-probes the storage backend, papers the never-durable gap with
//! on-disk skip blocks, and re-arms a fresh flusher. These tests drive
//! the full cycle — poison under injected faults, failed resume while
//! the fault persists, successful resume after `FaultInjector::repair`,
//! post-resume commits — and then restart-recover the directory to prove
//! the durable history is exactly: acked-before-poison ++ acked-after-
//! resume, with the gap cleanly skipped.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ermia_common::{LogError, TestDir};
use ermia_log::{FaultInjector, FaultPlan, FileBackend, LogConfig, LogManager, LogScanner};

mod common;

fn cfg_with(dir: PathBuf, injector: &FaultInjector) -> LogConfig {
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

/// Commit one single-update transaction; returns `(id, end_offset)` and
/// whether the durability wait succeeded.
fn commit_one(log: &LogManager, id: u64) -> std::io::Result<(u64, Result<(), LogError>)> {
    let value = format!("value-{id:08}");
    let (_, end) = common::append(log, id, &id.to_be_bytes(), value.as_bytes())?;
    Ok((end, log.wait_durable(end)))
}

/// Restart path: reopen with the clean file backend and scan every Txn
/// block into id → payload.
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
    let log = LogManager::open(cfg).expect("reopen after faults");
    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut out = HashMap::new();
    while let Some(block) = scanner.next_block().expect("scan") {
        for rec in block.records() {
            let id = u64::from_be_bytes(rec.key[..8].try_into().unwrap());
            out.insert(id, rec.value);
        }
    }
    out
}

/// The full degraded-mode story: ENOSPC poisons the log mid-workload,
/// resume fails while the disk is still full, succeeds once the operator
/// repairs it, post-resume commits are durable, and a later restart
/// recovers exactly the acknowledged history with the gap skipped.
#[test]
fn resume_after_enospc_restores_service_and_history() {
    let dir = TestDir::new("enospc");
    let injector =
        FaultInjector::new(FaultPlan { enospc_after_bytes: Some(2048), ..FaultPlan::default() });
    let log = LogManager::open(cfg_with(dir.to_path_buf(), &injector)).unwrap();

    let mut acked_pre = Vec::new();
    let mut poisoned_end = None;
    for id in 0..1000 {
        match commit_one(&log, id) {
            Ok((_, Ok(()))) => acked_pre.push(id),
            Ok((end, Err(_))) => {
                poisoned_end = Some(end);
                break;
            }
            Err(_) => break,
        }
    }
    assert!(!acked_pre.is_empty(), "some commits must ack before the budget runs out");
    assert!(log.is_poisoned(), "ENOSPC must poison the log");
    assert!(log.allocate(64).is_err(), "poisoned log rejects allocations");

    // The disk is still full: resume's gap-skip writes (or probe fsync)
    // must fail and leave the log poisoned — resume is retryable.
    assert!(log.resume().is_err(), "resume must fail while the fault persists");
    assert!(log.is_poisoned());

    injector.repair();
    log.resume().expect("resume after repair");
    assert!(!log.is_poisoned());
    assert_eq!(log.stats().log_poisoned.load(Ordering::Acquire), 0);

    // A durability target inside the resume gap must keep failing even
    // though the watermark has moved past it: those bytes are skip
    // blocks now, not the commit.
    if let Some(end) = poisoned_end {
        assert!(
            matches!(log.wait_durable(end), Err(LogError::Poisoned { .. })),
            "in-gap durability targets must report Poisoned after resume"
        );
    }

    // Service is back: post-resume commits ack normally.
    let mut acked_post = Vec::new();
    for id in 1000..1040 {
        let (_, wait) = commit_one(&log, id).expect("allocate after resume");
        wait.expect("post-resume commits must become durable");
        acked_post.push(id);
    }
    drop(log);

    // Restart: recovery must see every acknowledged commit from both
    // sides of the degraded window and hop the skip-papered gap.
    let recovered = recover(dir.to_path_buf());
    for id in &acked_pre {
        assert!(recovered.contains_key(id), "pre-poison acked commit {id} lost");
    }
    for id in &acked_post {
        assert!(recovered.contains_key(id), "post-resume acked commit {id} lost");
    }
}

/// Resume on a healthy log is a no-op.
#[test]
fn resume_on_healthy_log_is_noop() {
    let log = LogManager::open(LogConfig::in_memory()).unwrap();
    let (_, wait) = commit_one(&log, 1).unwrap();
    wait.unwrap();
    log.resume().expect("healthy resume is Ok");
    assert!(!log.is_poisoned());
    let (_, wait) = commit_one(&log, 2).unwrap();
    wait.unwrap();
}

/// Regression: a waiter whose deadline expires while the log is
/// concurrently poisoned must report `Poisoned`, not `Timeout` — the
/// poison settles the commit's fate, a timeout only pleads ignorance.
/// The quiet-poison seam sets the flag without waking the waiter, so the
/// waiter discovers it only on its own deadline path.
#[test]
fn timed_out_waiter_reports_concurrent_poison() {
    let cfg =
        LogConfig { wait_durable_timeout: Duration::from_millis(60), ..LogConfig::in_memory() };
    let log = Arc::new(LogManager::open(cfg).unwrap());
    // No flusher: nothing ever becomes durable and nobody wakes waiters.
    log.halt_flusher_for_test();
    let (_, end) = common::append(&log, 9, b"k", b"v").unwrap();

    let waiter = {
        let log = Arc::clone(&log);
        std::thread::spawn(move || log.wait_durable(end))
    };
    std::thread::sleep(Duration::from_millis(15));
    log.poison_quietly_for_test(LogError::Poisoned {
        kind: std::io::ErrorKind::Other,
        detail: "injected quiet poison".into(),
    });
    let result = waiter.join().unwrap();
    match result {
        Err(LogError::Poisoned { detail, .. }) => {
            assert!(detail.contains("quiet poison"), "must surface the recorded cause")
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
}

/// A log that poisons before its hook is installed — here on the sync of
/// the block `open` burns at offset 0 — runs the hook at installation,
/// and only once: the flusher, which found no hook, does not run it
/// again.
#[test]
fn a_hook_installed_after_the_poison_runs_once() {
    let dir = TestDir::new("late-hook");
    let injector = FaultInjector::new(FaultPlan { fail_sync_at: Some(0), ..FaultPlan::default() });
    let log = LogManager::open(cfg_with(dir.to_path_buf(), &injector)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !log.is_poisoned() {
        assert!(std::time::Instant::now() < deadline, "the first sync must poison the log");
        std::thread::yield_now();
    }
    let runs = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let counter = Arc::clone(&runs);
    log.set_poison_hook(move || {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(runs.load(Ordering::Relaxed), 1, "installing on a poisoned log runs the hook");
    drop(log); // joins the flusher: nothing can run the hook after this
    assert_eq!(runs.load(Ordering::Relaxed), 1, "once per poisoning");
}
