use std::path::PathBuf;
use std::sync::atomic::Ordering;

use ermia_common::{Lsn, Oid, TableId, TestDir};

use crate::records::RECORD_HEADER_LEN;
use crate::LogRecordKind::{Insert, Update};
use crate::{
    BlockEncoder, BlockKind, LogConfig, LogManager, LogRecordKind, LogScanner, BLOCK_HEADER_LEN,
};

fn small_cfg(dir: Option<PathBuf>) -> LogConfig {
    LogConfig {
        dir,
        segment_size: 4096,
        buffer_size: 1 << 20,
        fsync: false,
        flush_interval: std::time::Duration::from_micros(100),
        ..LogConfig::default()
    }
}

/// One record: kind, table, OID, key, value.
type Rec<'a> = (LogRecordKind, u32, u32, &'a [u8], &'a [u8]);

/// Append one block of `records`, built the way the tests build blocks —
/// one [`BlockEncoder`] over a `Vec` — and copied in with
/// `Reservation::fill`; returns its LSN and end offset.
fn append(log: &LogManager, records: &[Rec<'_>]) -> (Lsn, u64) {
    let payload: usize = records.iter().map(|r| RECORD_HEADER_LEN + r.3.len() + r.4.len()).sum();
    let res = log.allocate(BLOCK_HEADER_LEN + payload).unwrap();
    let mut block = vec![0; res.len()];
    let mut enc = BlockEncoder::block(&mut block, &mut []);
    for &(kind, table, oid, key, value) in records {
        enc.record(kind, TableId(table), Oid(oid), key, value);
    }
    enc.finish(BlockKind::Txn, res.lsn());
    let placed = (res.lsn(), res.end_offset());
    res.fill(&block);
    placed
}

fn commit_block(log: &LogManager, table: u32, oid: u32, val: &[u8]) -> Lsn {
    append(log, &[(Update, table, oid, b"key", val)]).0
}

#[test]
fn allocate_fill_scan_roundtrip() {
    let dir = TestDir::new("roundtrip");
    let log = LogManager::open(small_cfg(Some(dir.to_path_buf()))).unwrap();
    let l1 = commit_block(&log, 1, 10, b"hello");
    let l2 = commit_block(&log, 2, 20, b"world");
    assert!(l1 < l2);
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let b1 = scanner.next_block().unwrap().expect("first block");
    assert_eq!(b1.lsn, l1);
    assert_eq!(b1.header.kind, BlockKind::Txn);
    let recs = b1.records();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].oid, Oid(10));
    assert_eq!(recs[0].value, b"hello");
    let b2 = scanner.next_block().unwrap().expect("second block");
    assert_eq!(b2.records()[0].value, b"world");
    assert!(scanner.next_block().unwrap().is_none());
    drop(log);
}

#[test]
fn dropped_reservation_becomes_skip() {
    let dir = TestDir::new("skip");
    let log = LogManager::open(small_cfg(Some(dir.to_path_buf()))).unwrap();
    let l1 = commit_block(&log, 1, 1, b"a");
    {
        let _res = log.allocate(64).unwrap();
        // dropped unfilled: aborted transaction
    }
    let l3 = commit_block(&log, 1, 2, b"b");
    assert!(l1 < l3);
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let vals: Vec<Vec<u8>> = std::iter::from_fn(|| scanner.next_block().unwrap())
        .map(|b| b.records()[0].value.clone())
        .collect();
    assert_eq!(vals, vec![b"a".to_vec(), b"b".to_vec()]);
    drop(log);
}

#[test]
fn segment_rotation_preserves_blocks() {
    let dir = TestDir::new("rotate");
    let log = LogManager::open(small_cfg(Some(dir.to_path_buf()))).unwrap();
    // Each block is ~64 bytes; a 4 KiB segment rotates every ~60 commits.
    let n = 400;
    let mut lsns = Vec::new();
    for i in 0..n {
        lsns.push(commit_block(&log, 1, i, format!("value-{i}").as_bytes()));
    }
    assert!(log.stats().rotations.load(Ordering::Relaxed) >= 4, "expected several rotations");
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut seen = Vec::new();
    while let Some(block) = scanner.next_block().unwrap() {
        for rec in block.records() {
            seen.push(rec.value);
        }
    }
    assert_eq!(seen.len(), n as usize);
    for (i, v) in seen.iter().enumerate() {
        assert_eq!(v, format!("value-{i}").as_bytes());
    }
    // LSNs are strictly increasing.
    assert!(lsns.windows(2).all(|w| w[0] < w[1]));
    drop(log);
}

#[test]
fn reopen_resumes_after_tail() {
    let dir = TestDir::new("reopen");
    {
        let log = LogManager::open(small_cfg(Some(dir.to_path_buf()))).unwrap();
        for i in 0..50 {
            commit_block(&log, 1, i, b"first-run");
        }
        log.sync().unwrap();
    }
    let log = LogManager::open(small_cfg(Some(dir.to_path_buf()))).unwrap();
    let resumed_tail = log.tail_lsn();
    assert!(resumed_tail.offset() > 0, "tail must resume after existing blocks");
    commit_block(&log, 1, 999, b"second-run");
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut count = 0;
    let mut last = None;
    while let Some(block) = scanner.next_block().unwrap() {
        count += 1;
        last = Some(block.records()[0].value.clone());
    }
    assert_eq!(count, 51);
    assert_eq!(last.unwrap(), b"second-run");
    drop(log);
}

#[test]
fn wait_durable_blocks_until_flushed() {
    let dir = TestDir::new("durable");
    let log = LogManager::open(small_cfg(Some(dir.to_path_buf()))).unwrap();
    let (_, end) = append(&log, &[(Insert, 1, 1, b"k", b"v")]);
    log.wait_durable(end).unwrap();
    assert!(log.durable_offset() >= end);
    drop(log);
}

#[test]
fn lsn_to_file_validates_segment_number() {
    let dir = TestDir::new("lookup");
    let log = LogManager::open(small_cfg(Some(dir.to_path_buf()))).unwrap();
    let lsn = commit_block(&log, 1, 1, b"x");
    let (seg, pos) = log.lsn_to_file(lsn).expect("valid lsn");
    assert_eq!(seg.segno(), lsn.segment());
    assert_eq!(pos, lsn.offset() - seg.start);
    // An LSN with a mismatched segment number is rejected.
    let bogus = ermia_common::Lsn::from_parts(lsn.offset(), (lsn.segment() + 1) % 16);
    assert!(log.lsn_to_file(bogus).is_none());
    drop(log);
}

#[test]
fn in_memory_mode_allocates_and_recycles_buffer() {
    let log = LogManager::open(LogConfig {
        dir: None,
        segment_size: 1 << 20,
        buffer_size: 64 << 10,
        ..LogConfig::default()
    })
    .unwrap();
    // Write far more than the buffer capacity; the flusher must recycle.
    for i in 0..5_000 {
        commit_block(&log, 1, i, &[0xAB; 100]);
    }
    assert!(log.tail_lsn().offset() > 64 << 10);
}

#[test]
fn concurrent_commits_all_recovered_in_order() {
    const THREADS: u32 = 4;
    const PER_THREAD: u32 = 300;
    let dir = TestDir::new("concurrent");
    let log = LogManager::open(small_cfg(Some(dir.to_path_buf()))).unwrap();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = &log;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let payload = format!("t{t}-i{i}");
                    commit_block(log, t, i, payload.as_bytes());
                }
            });
        }
    });
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut seen = std::collections::HashSet::new();
    let mut last_lsn = None;
    while let Some(block) = scanner.next_block().unwrap() {
        if let Some(prev) = last_lsn {
            assert!(block.lsn > prev, "scan order must follow LSN order");
        }
        last_lsn = Some(block.lsn);
        for rec in block.records() {
            assert!(seen.insert(String::from_utf8(rec.value).unwrap()), "duplicate block");
        }
    }
    assert_eq!(seen.len(), (THREADS * PER_THREAD) as usize);
    drop(log);
}

#[test]
fn releasing_ring_loses_nothing_across_wraps() {
    // A ring large enough to hand drained pages back to the operating
    // system, wrapped several times by concurrent writers with blocks big
    // enough that batches straddle release chunks: every block must come
    // back from the segment files exactly as written. A page dropped
    // while its space was already published to the next wrap generation
    // would show up here as a zeroed or torn block.
    const THREADS: u32 = 4;
    const PER_THREAD: u32 = 1500;
    const PAYLOAD: usize = 12 << 10;
    let dir = TestDir::new("release");
    let log = LogManager::open(LogConfig {
        dir: Some(dir.to_path_buf()),
        segment_size: 64 << 20,
        buffer_size: 16 << 20, // the smallest ring that releases
        flush_interval: std::time::Duration::from_micros(100),
        ..LogConfig::default()
    })
    .unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = &log;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let byte = (t * 31 + i) as u8;
                    let (_, end) = append(log, &[(Update, t, i, b"key", &[byte; PAYLOAD])]);
                    if i % 64 == 0 {
                        log.wait_durable(end).unwrap();
                    }
                }
            });
        }
    });
    log.sync().unwrap();
    let written = log.tail_lsn().offset();
    assert!(written > 4 * (16 << 20), "only {written} bytes: the ring never wrapped enough");
    assert_eq!(log.ring_occupancy(), 0, "occupancy is measured against the durable watermark");

    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut seen = 0u32;
    while let Some(block) = scanner.next_block().unwrap() {
        for rec in block.records() {
            let byte = (rec.table.0 * 31 + rec.oid.0) as u8;
            assert!(rec.value.len() == PAYLOAD && rec.value.iter().all(|&b| b == byte));
            seen += 1;
        }
    }
    assert_eq!(seen, THREADS * PER_THREAD);
    drop(log);
}

#[test]
fn rotation_with_full_ring_converges() {
    // Regression for an availability-ring invariant violation: the skip
    // and dead-zone publication paths used to stamp slots without first
    // waiting for the space window to cover them. With a minimum-size
    // ring and segment-sized churn the buffer is full nearly all the
    // time, so rotation losers routinely hold claims beyond
    // `flushed + cap`; stamping those early clobbered the previous
    // generation's unconsumed stamps and stalled the watermark forever
    // (flusher deadlock, wait_durable timeouts). The fixed paths block
    // for space first — this hammer must converge, and in debug builds
    // the window assert in `fill_with` polices every fill.
    const THREADS: u32 = 4;
    const PER_THREAD: u32 = 400;
    let log = LogManager::open(LogConfig {
        dir: None,
        segment_size: 4096, // a rotation roughly every ring's worth
        buffer_size: 4096,  // the minimum: writers outrun the flusher
        flush_interval: std::time::Duration::from_micros(50),
        ..LogConfig::default()
    })
    .unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = &log;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let (_, end) = append(log, &[(Update, t, i, b"key", b"rotation-payload")]);
                    // Park on durability now and then so demand-driven
                    // wakes interleave with the full-ring churn.
                    if i % 32 == 0 {
                        log.wait_durable(end).unwrap();
                    }
                }
            });
        }
    });
    log.sync().unwrap();
    let rotations = log.stats().rotations.load(Ordering::Relaxed);
    assert!(rotations >= 8, "only {rotations} rotations: the hammer missed its target");
}

#[test]
fn per_operation_allocation_is_slower_shape() {
    // Sanity for the Fig. 10 experiment plumbing: allocating per record
    // costs more fetch_adds than one block per transaction.
    let log = LogManager::open(LogConfig::in_memory()).unwrap();
    let before = log.stats().allocations.load(Ordering::Relaxed);
    // per-transaction: 1 allocation for 10 records
    let records: Vec<Rec<'_>> = (0..10).map(|i| (Update, 1, i, &b"k"[..], &b"v"[..])).collect();
    append(&log, &records);
    // per-operation: 10 allocations
    for i in 0..10u32 {
        commit_block(&log, 1, i, b"v");
    }
    let after = log.stats().allocations.load(Ordering::Relaxed);
    assert_eq!(after - before, 11);
}

/// A dead flusher: the wait gives up after the log's one patience,
/// `wait_durable_timeout`, with `Timeout` — not a poisoned log.
#[test]
fn wait_durable_times_out_when_flusher_is_dead() {
    let patience = std::time::Duration::from_millis(50);
    let log =
        LogManager::open(LogConfig { wait_durable_timeout: patience, ..LogConfig::in_memory() })
            .unwrap();
    // Kill the flusher: durability can no longer advance.
    log.halt_flusher_for_test();
    let (_, end) = append(&log, &[(Insert, 1, 1, b"key", b"value")]);
    let start = std::time::Instant::now();
    assert_eq!(log.wait_durable(end), Err(ermia_common::LogError::Timeout));
    assert!(start.elapsed() >= patience);
    assert!(!log.is_poisoned(), "a timeout is not a poisoned log");
}

#[test]
fn sync_commit_latency_is_demand_driven_not_interval_driven() {
    // With a deliberately glacial flush interval, a synchronous commit
    // must still complete almost immediately: the committer's registered
    // durability target wakes the flusher on fill, so latency tracks the
    // actual flush cost rather than the group-commit timer.
    let cfg = LogConfig {
        flush_interval: std::time::Duration::from_millis(500),
        ..LogConfig::in_memory()
    };
    let log = LogManager::open(cfg).unwrap();
    for i in 0..5u32 {
        let start = std::time::Instant::now();
        let (_, end) = append(&log, &[(Update, 1, i, b"key", b"value")]);
        log.wait_durable(end).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "commit {i} took {elapsed:?}: flusher is sleeping through demand"
        );
    }
}

/// A `DurableWaker`'s wake is a level, not a count: one that lands before
/// the wait is kept for it, one wait consumes it, and two wakes before a
/// wait are one.
#[test]
fn durable_waker_wake_is_a_level_one_wait_consumes() {
    use crate::DurableWaker;
    use std::time::{Duration, Instant};
    const WINDOW: Duration = Duration::from_millis(20);
    let waker = DurableWaker::default();
    let consumed = |waker: &DurableWaker| {
        let start = Instant::now();
        waker.wait(Some(WINDOW));
        start.elapsed() >= WINDOW
    };

    // Woken first: the wait returns at once and takes the wake with it.
    waker.wake();
    waker.wait(None);
    assert!(consumed(&waker), "a wait returned early on a wake already consumed");

    // Woken by another thread while this one sleeps with no deadline.
    std::thread::scope(|s| {
        let other = waker.clone();
        s.spawn(move || other.wake());
        waker.wait(None);
    });
    assert!(consumed(&waker), "the cross-thread wake was left behind");

    // Two wakes, one level: the first wait takes both.
    waker.wake();
    waker.wake();
    waker.wait(None);
    assert!(consumed(&waker), "a second wake was counted");
}

/// The fault plan's `sync_linger`: the sync has finished and its return
/// is held back, so the block is on the device — a fresh scanner reads
/// it, as recovery after a kill would — while the log has told nobody:
/// the durable watermark stands where it stood.
#[test]
fn a_lingering_sync_is_on_disk_and_unannounced() {
    use crate::{FaultInjector, FaultPlan};
    const LINGER: std::time::Duration = std::time::Duration::from_millis(300);
    let dir = TestDir::new("linger");
    let plan = FaultPlan { sync_linger: Some(LINGER), ..FaultPlan::default() };
    let log = LogManager::open(LogConfig {
        fsync: true,
        io_factory: std::sync::Arc::new(FaultInjector::new(plan)),
        ..small_cfg(Some(dir.to_path_buf()))
    })
    .unwrap();
    let before = log.durable_offset();
    let started = std::time::Instant::now();
    let lsn = commit_block(&log, 1, 10, b"lingering");
    let end = log.next_offset();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| log.wait_durable(end));
        let deadline = started + std::time::Duration::from_secs(10);
        loop {
            let read = LogScanner::new(log.segments(), 0).next_block();
            if matches!(&read, Ok(Some(block)) if block.lsn == lsn) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "the block never reached the file");
            std::thread::yield_now();
        }
        assert_eq!(log.durable_offset(), before, "told somebody before the sync returned");
        waiter.join().unwrap().unwrap();
    });
    assert!(started.elapsed() >= LINGER, "the sync's return was not held back");
    assert!(log.durable_offset() >= end);
}
