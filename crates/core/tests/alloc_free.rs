//! Proof of the allocation-free transaction hot path.
//!
//! A counting global allocator tracks, per thread, every allocator call
//! and byte.
//! After warmup (scratch capacities grown, version cache fed by the GC),
//! a read/write transaction must complete begin + reads + update + async
//! commit with **zero** allocator traffic on the worker thread.
//!
//! Counting is thread-local so the background flusher, ticker, and GC
//! threads don't pollute the measurement — their allocations are their
//! own business; the claim under test is about the worker's hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::Ordering::Relaxed;

use ermia::{Database, DbConfig, DeferredCommit, IsolationLevel, ShardedDb};

struct CountingAlloc;

thread_local! {
    // Const-initialized and droppable-free, so TLS access from inside the
    // allocator cannot itself allocate or recurse.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread holds (it frees what it allocated, in the one
    // test that reads this) and their high-water mark.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
    static TRAP: Cell<bool> = const { Cell::new(false) };
}

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(|c| c.get())
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(|b| b.get())
}

fn hold(delta: i64) {
    let live = LIVE_BYTES.with(|l| l.replace(l.get() + delta)) + delta;
    PEAK_BYTES.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        ALLOC_BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        hold(layout.size() as i64);
        // Diagnostic tripwire: when armed, the first counted allocation
        // panics so `RUST_BACKTRACE=1` points straight at the code that
        // regressed the hot path (disarmed first — the panic machinery
        // itself allocates).
        if TRAP.with(|t| t.get()) {
            TRAP.with(|t| t.set(false));
            panic!("hot-path allocation of {} bytes", layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        ALLOC_BYTES.with(|b| b.set(b.get() + new_size as u64));
        hold(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_transactions_do_not_allocate() {
    // Default config: asynchronous commit (the paper's group-commit
    // pipeline acknowledges without waiting). The metric counters and
    // flight events are live: a telemetry regression that
    // allocates on the hot path fails this test.
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();

    // Every write is as large as the measured ones: a recycled node keeps
    // its payload capacity, and `Version::reinit` reallocates one that is
    // too small for its next payload.
    let mut tx = w.begin(IsolationLevel::Snapshot);
    tx.insert(t, b"read-target", b"some reasonably sized payload").unwrap();
    tx.insert(t, b"write-target", &[0; 24]).unwrap();
    tx.commit().unwrap();

    const MEASURED_TXNS: usize = 16;

    // Warmup phase 1: grow every scratch capacity and pile up dead
    // versions for the GC to retire. Recycling is flow-balanced (one
    // update retires one old version, a couple of epochs later), so a
    // tight measured loop outruns the GC unless the pool is pre-stocked.
    for i in 0..300u32 {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let _ = tx.read(t, b"read-target", |v| v.len()).unwrap();
        assert!(tx.update(t, b"write-target", &[i as u8; 24]).unwrap());
        tx.commit().unwrap();
    }
    // Warmup phase 2: wait for the GC to turn that garbage into a
    // comfortable reserve of recycled nodes.
    let mut stocked = false;
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        if db.version_pool_size() >= 4 * MEASURED_TXNS {
            stocked = true;
            break;
        }
    }
    assert!(stocked, "GC never stocked the version pool (pooled: {})", db.version_pool_size());
    // Warmup phase 3: one more transaction triggers a batch refill of the
    // worker's local cache, so the measured window is served entirely
    // from memory the worker already owns.
    let mut tx = w.begin(IsolationLevel::Snapshot);
    assert!(tx.update(t, b"write-target", &[0; 24]).unwrap());
    tx.commit().unwrap();
    assert!(w.versions_reused() > 0, "warmup never reached the reuse path");
    let reused_before = w.versions_reused();
    let before = alloc_calls();
    TRAP.with(|t| t.set(true));
    for i in 0..MEASURED_TXNS {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let _ = tx.read(t, b"read-target", |v| v.len()).unwrap();
        assert!(tx.update(t, b"write-target", &[i as u8; 24]).unwrap());
        tx.commit().unwrap();
    }
    // Disarm before touching anything else: the harness itself allocates
    // (test-event channel), and the tripwire must only police the loop.
    TRAP.with(|t| t.set(false));
    let allocs = alloc_calls() - before;
    assert_eq!(
        allocs, 0,
        "steady-state begin+read+update+commit hit the allocator {allocs} times \
         over {MEASURED_TXNS} transactions"
    );
    assert!(
        w.versions_reused() > reused_before,
        "measured transactions were not on the reuse path"
    );
}

/// The same steady-state claim with tracing armed to sample **every**
/// transaction: begin mints a trace id, each read/update records a span,
/// and commit records the commit spans — all into preallocated seqlock
/// ring slots, so the hot path must still be allocation-free. (With
/// tracing *off* — `trace_sample_n: 0`, the default — the test above
/// already covers the disabled branch.) The slow-op threshold is pushed
/// out of reach because worst-K retention intentionally allocates; it
/// runs at most K times per threshold-crossing op, never per txn.
#[test]
fn fully_sampled_tracing_stays_alloc_free() {
    let cfg = DbConfig { trace_sample_n: 1, trace_slow_us: u64::MAX, ..DbConfig::in_memory() };
    let db = ShardedDb::open(cfg, 1).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();

    let mut tx = w.begin(IsolationLevel::Snapshot);
    tx.insert(t, b"read-target", b"some reasonably sized payload").unwrap();
    tx.insert(t, b"write-target", &[0; 24]).unwrap();
    tx.commit().unwrap();

    const MEASURED_TXNS: usize = 16;

    // Same three warmup phases as above: grow scratch capacities, let
    // the GC stock the version pool, then one refill transaction.
    for i in 0..300u32 {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let _ = tx.read(t, b"read-target", |v| v.len()).unwrap();
        assert!(tx.update(t, b"write-target", &[i as u8; 24]).unwrap());
        tx.commit().unwrap();
    }
    let mut stocked = false;
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        if db.shard(0).version_pool_size() >= 4 * MEASURED_TXNS {
            stocked = true;
            break;
        }
    }
    assert!(
        stocked,
        "GC never stocked the version pool (pooled: {})",
        db.shard(0).version_pool_size()
    );
    let mut tx = w.begin(IsolationLevel::Snapshot);
    assert!(tx.update(t, b"write-target", &[0; 24]).unwrap());
    tx.commit().unwrap();

    let before = alloc_calls();
    TRAP.with(|t| t.set(true));
    for i in 0..MEASURED_TXNS {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let _ = tx.read(t, b"read-target", |v| v.len()).unwrap();
        assert!(tx.update(t, b"write-target", &[i as u8; 24]).unwrap());
        tx.commit().unwrap();
    }
    TRAP.with(|t| t.set(false));
    let allocs = alloc_calls() - before;
    assert_eq!(
        allocs, 0,
        "fully sampled begin+read+update+commit hit the allocator {allocs} times \
         over {MEASURED_TXNS} transactions"
    );
    // Prove the sampler actually fired: the worker's span ring must hold
    // spans from the measured window.
    let spans = db.telemetry().tracer().dump_spans(4096);
    assert!(!spans.is_empty(), "tracing was armed but recorded no spans");
    // `commit()` on a database without synchronous commit waits for
    // nothing, and its span must say so.
    use ermia_telemetry::SpanKind;
    assert!(spans.iter().any(|s| s.kind == SpanKind::CommitDeferred));
    assert!(spans.iter().all(|s| s.kind != SpanKind::DurabilityWait));
}

/// The hand-off to the collector is part of the hot path: every update
/// names its chain to the GC at post-commit. Run long enough, with the
/// collector ticking every millisecond, that entries are produced,
/// consumed and their buffers handed back many times over — the window
/// must still not touch the allocator.
#[test]
fn handing_overwritten_versions_to_the_gc_stays_alloc_free() {
    const ROWS: u8 = 8;
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for row in 0..ROWS {
        tx.insert(t, &[row], &[0; 24]).unwrap();
    }
    tx.commit().unwrap();

    // A burst of updates, then a pause for the collector.
    let rounds = |w: &mut ermia::Worker, n: u32| {
        for round in 0..n {
            for i in 0..16u8 {
                let mut tx = w.begin(IsolationLevel::Snapshot);
                for row in [i % ROWS, (i + 3) % ROWS] {
                    assert!(tx.update(t, &[row], &[round as u8; 24]).unwrap());
                }
                tx.commit().unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    // Warm-up: grow every buffer on both sides of the hand-off. Then
    // stock the version pool with more nodes than the measured window
    // overwrites, so a collector that falls behind for a while (the
    // tests of this file share two cores) cannot make the window
    // allocate versions — the claim here is about the hand-off. Under
    // a pinned horizon nothing is recycled, so every overwrite is a
    // fresh node, and all of them reach the pool once the pin goes.
    const MEASURED: u32 = 40;
    const STOCK: usize = 32 * MEASURED as usize + 256;
    rounds(&mut w, MEASURED);
    let mut pinner = db.register_worker();
    let pin = pinner.begin(IsolationLevel::Snapshot);
    for i in 0..2 * STOCK {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        // (Payloads as large as the measured ones: a recycled node
        // keeps its payload capacity and grows it otherwise.)
        assert!(tx.update(t, &[i as u8 % ROWS], &[0; 24]).unwrap());
        tx.commit().unwrap();
    }
    pin.commit().unwrap();
    let stocked = (0..500).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(10));
        db.version_pool_size() >= STOCK
    });
    assert!(stocked, "GC never stocked the version pool (pooled: {})", db.version_pool_size());
    rounds(&mut w, MEASURED);

    let (visited, reused) = (db.gc_stats().chains_visited.load(Relaxed), w.versions_reused());
    let before = alloc_calls();
    TRAP.with(|t| t.set(true));
    rounds(&mut w, MEASURED);
    TRAP.with(|t| t.set(false));
    let allocs = alloc_calls() - before;
    assert_eq!(allocs, 0, "{allocs} allocations over 640 transactions");
    assert!(
        db.gc_stats().chains_visited.load(Relaxed) > visited,
        "the collector consumed no hand-off inside the measured window"
    );
    assert!(w.versions_reused() >= reused + 1280, "the window was not on the reuse path");
}

/// A fork allocates O(metadata): one pin and one handle, however large
/// the table — versions and indirection arrays are shared, not copied.
/// 64 KiB is orders of magnitude below any copied table.
#[test]
fn a_fork_allocates_metadata_not_data() {
    for rows in [1_000u64, 10_000] {
        let db = Database::open(DbConfig::in_memory()).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        for i in 0..rows {
            let mut tx = w.begin(IsolationLevel::Snapshot);
            tx.insert(t, &i.to_be_bytes(), &[0x51; 64]).unwrap();
            tx.commit().unwrap();
        }
        let before = alloc_bytes();
        let fork = db.fork();
        let bytes = alloc_bytes() - before;
        assert!(
            bytes < 64 << 10,
            "fork of {rows} rows allocated {bytes} bytes: data is being copied"
        );
        let mut reader = fork.register_worker();
        let mut tx = reader.begin(IsolationLevel::Snapshot);
        assert!(tx.read(t, &(rows - 1).to_be_bytes(), |v| v.len()).unwrap().is_some());
    }
}

/// The layout guard: what a row costs to hold. A version is one
/// allocation (header, then payload), a key of up to 16 bytes lives in
/// its index slot, and keys loaded in order leave their leaves full — so
/// a row of a 16-byte key and a 64-byte value is one allocation plus its
/// thirtieth of a leaf. (This test on the parent of the layouts: 4.20
/// allocations and 198 requested bytes — version box, payload `Vec`, key
/// box, key bytes, and a leaf per fifteen rows.) The allocation count is the
/// primary guard: most of what four small chunks cost is the allocator's
/// per-chunk overhead, which requested bytes do not show. The printed
/// line is the trend CI keeps.
#[test]
fn loading_a_row_costs_one_allocation() {
    const ROWS: u64 = 10_000;
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let key = |i: u64| {
        let mut k = [0u8; 16];
        k[..4].copy_from_slice(b"row-");
        k[4..12].copy_from_slice(&i.to_be_bytes());
        k
    };
    let mut load = |from: u64, to: u64| {
        for i in from..to {
            let mut tx = w.begin(IsolationLevel::Snapshot);
            tx.insert(t, &key(i), &[0x51; 64]).unwrap();
            tx.commit().unwrap();
        }
    };
    // Scratch capacities, the first indirection-array page, the first leaf.
    load(0, 64);
    let (calls, bytes) = (alloc_calls(), alloc_bytes());
    load(64, 64 + ROWS);
    let per_row = |n: u64| n as f64 / ROWS as f64;
    let (calls, bytes) = (per_row(alloc_calls() - calls), per_row(alloc_bytes() - bytes));
    println!("layout guard: {calls:.3} allocations/row, {bytes:.1} requested bytes/row");
    assert!(calls <= 1.1, "{calls:.3} allocations per loaded row");
    assert!(bytes <= 152.0, "{bytes:.1} requested bytes per loaded row");
}

/// A checkpoint costs per walk, not per row: it reads each key out of the
/// index in place, so checkpointing 100 000 rows allocates what 10 000
/// did plus a few doublings of the payload buffer. (On the parent of the
/// one-walk checkpoint: a key copy and a map entry per row.) The printed
/// line is the trend CI keeps.
#[test]
fn a_checkpoint_allocates_per_walk_not_per_row() {
    let dir = ermia_common::TestDir::new("checkpoint-guard");
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut loaded = 0u64;
    let mut allocs = Vec::new();
    for rows in [10_000u64, 100_000] {
        for base in (loaded..rows).step_by(100) {
            let mut tx = w.begin(IsolationLevel::Snapshot);
            for i in base..base + 100 {
                let mut key = [0u8; 24];
                key[..4].copy_from_slice(b"row-");
                key[4..12].copy_from_slice(&i.to_be_bytes());
                tx.insert(t, &key, &[0x51; 64]).unwrap();
            }
            tx.commit().unwrap();
        }
        loaded = rows;
        let before = alloc_calls();
        db.checkpoint().unwrap();
        allocs.push(alloc_calls() - before);
    }
    println!(
        "checkpoint guard: {} allocations at 10 000 rows, {} at 100 000",
        allocs[0], allocs[1]
    );
    assert!(allocs.iter().all(|&n| n < 150), "checkpoint allocations: {allocs:?}");
    assert!(allocs[1] <= allocs[0] + 10, "allocations grow with rows: {allocs:?}");
}

/// The memory guard of recovery: it builds what survives, not what
/// happened. Ten records a row are in the log; recovering them costs what
/// loading the rows cost — one allocation each, no more bytes, never more
/// than 1.1 × the load at once — plus the reader's chunks (a constant):
/// step 1 ranks each row's images in its indirection-array slot, so
/// nothing is kept per row beside the arrays. It leaves every chain one
/// version long: nothing retired, nothing for the collector to find. The
/// rows are loaded in key order and overwritten either in key order or in
/// a seeded shuffle: recovery indexes a key at its insert, so the index
/// comes out as the load left it either way. (On the parent of
/// this guard: a version, a payload copy, two key/value `Vec`s and a map
/// entry per *record*, and nine of ten versions built only to be
/// reclaimed. Indexing each key at its winning image instead left the
/// shuffled input's leaves a third emptier: about 15 bytes a row over. A
/// side table of OID → (stamp, address) beside the arrays took 16 bytes a
/// row more, and a 1 MiB read-ahead three quarters of a MiB more at once.)
#[test]
fn recovering_a_row_costs_one_allocation() {
    for shuffled in [false, true] {
        recover_rows(shuffled);
    }
}

fn recover_rows(shuffled: bool) {
    const ROWS: u64 = 20_000;
    const OVERWRITES: u8 = 9;
    // What the scanner reads into, twice over (choose, then build): a
    // first chunk of 16 KiB, grown once to 256 KiB.
    const READER: u64 = (1 << 18) + (1 << 14);
    let key = |i: u64| {
        let mut k = [0u8; 16];
        k[..4].copy_from_slice(b"row-");
        k[4..12].copy_from_slice(&i.to_be_bytes());
        k
    };
    let dir = ermia_common::TestDir::new("recover-guard");
    let loaded = {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut rng = ermia_common::rng::SplitMix64::new(39);
        let mut order: Vec<u64> = (0..ROWS).collect();
        let mut pass = |value: Option<u8>| {
            if shuffled && value.is_some() {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            for ids in order.chunks(50) {
                let mut tx = w.begin(IsolationLevel::Snapshot);
                for &i in ids {
                    match value {
                        None => drop(tx.insert(t, &key(i), &[0x51; 64]).unwrap()),
                        Some(v) => assert!(tx.update(t, &key(i), &[v; 64]).unwrap()),
                    }
                }
                tx.commit().unwrap();
            }
        };
        let before = alloc_bytes();
        pass(None);
        let loaded = alloc_bytes() - before;
        (0..OVERWRITES).for_each(|v| pass(Some(v)));
        db.log().sync().unwrap();
        loaded
        // Dropped without a shutdown: a crash.
    };

    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let (calls, bytes) = (alloc_calls(), alloc_bytes());
    let held = LIVE_BYTES.with(|l| l.get());
    PEAK_BYTES.with(|p| p.set(held));
    let stats = db.recover().unwrap();
    let (calls, bytes) = (alloc_calls() - calls, alloc_bytes() - bytes);
    let peak = (PEAK_BYTES.with(|p| p.get()) - held) as u64;
    assert_eq!(stats.built, ROWS, "{stats:?}");
    assert_eq!(stats.skipped_stale, ROWS * OVERWRITES as u64, "{stats:?}");
    let per_row = |n: u64| n as f64 / ROWS as f64;
    println!(
        "recovery guard ({}): {:.3} allocations/row, {:.1} requested bytes/row (the load: \
         {:.1}), peak {:.2} x the load",
        if shuffled { "shuffled overwrites" } else { "overwrites in key order" },
        per_row(calls),
        per_row(bytes - 2 * READER),
        per_row(loaded),
        peak as f64 / loaded as f64
    );
    assert!(per_row(calls) <= 1.1, "{:.3} allocations per recovered row", per_row(calls));
    let budget = loaded + 2 * READER;
    assert!(bytes <= budget, "recovery requested {bytes} bytes; loading the rows took {loaded}");
    let budget = loaded + loaded / 10 + READER;
    assert!(peak <= budget, "recovery held {peak} bytes at once; loading the rows took {loaded}");

    // Every chain is one version long: nothing was retired, and a full
    // sweep at the horizon of an idle database finds nothing to reclaim.
    let gc = db.gc_stats();
    assert_eq!(gc.retire_backlog.load(Relaxed), 0);
    assert_eq!(db.gc_audit(), 0, "recovery stacked versions");
    assert_eq!(gc.reclaimed.load(Relaxed), 0, "recovery built versions only to reclaim them");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    let last = tx.read(db.table_id("t").unwrap(), &key(ROWS - 1), |v| v.to_vec()).unwrap();
    assert_eq!(last, Some(vec![OVERWRITES - 1; 64]));
}

/// Recovery's memory follows the rows, not the uptime: a two-shard engine
/// whose 32 rows took 20 000 cross-shard commits, and one whose rows took
/// 80 000, recover holding the same bytes at once, within 64 KiB. Only
/// the verdicts an in-doubt prepare asks for are kept. (Keeping every
/// verdict of every log, 8 bytes a commit and log, grew the second peak
/// by about 1 MB.) The printed line is the trend CI keeps.
#[test]
fn recovery_holds_no_more_after_four_times_the_commits() {
    const COMMITS: usize = 20_000;
    const WINDOW: usize = 16;
    let peaks: Vec<i64> = [COMMITS, 4 * COMMITS]
        .into_iter()
        .map(|commits| {
            let dir = ermia_common::TestDir::new("recover-2pc-guard");
            {
                let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
                let t = db.create_table("t");
                let key_on = |shard: usize, i: usize| {
                    (0u32..)
                        .map(|j| format!("pair-{i}-{j}").into_bytes())
                        .find(|k| ermia::shard_of_key(k, 2) == shard)
                        .unwrap()
                };
                let pairs: Vec<_> = (0..WINDOW).map(|i| [key_on(0, i), key_on(1, i)]).collect();
                let mut w = db.register_worker();
                for _ in 0..commits / WINDOW {
                    // A window of commits deferred, then each waited for.
                    let mut staged = Vec::with_capacity(WINDOW);
                    for pair in &pairs {
                        let mut tx = w.begin(IsolationLevel::Snapshot);
                        for key in pair {
                            if !tx.update(t, key, b"v").unwrap() {
                                tx.insert(t, key, b"v").unwrap();
                            }
                        }
                        match tx.commit_deferred().unwrap() {
                            DeferredCommit::Staged(s) => staged.push(s),
                            DeferredCommit::Committed(_) => panic!("two shards stage a 2PC"),
                        }
                    }
                    for s in staged {
                        s.wait(&mut w).unwrap();
                    }
                }
                (0..2).for_each(|s| db.shard(s).log().sync().unwrap());
            }
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let held = LIVE_BYTES.with(|l| l.get());
            PEAK_BYTES.with(|p| p.set(held));
            let stats = db.recover().unwrap();
            let peak = PEAK_BYTES.with(|p| p.get()) - held;
            assert_eq!(stats.per_shard.iter().map(|s| s.built).sum::<u64>(), 2 * WINDOW as u64);
            peak
        })
        .collect();
    println!(
        "recovery guard (2 shards): peak {} KiB after {COMMITS} cross-shard commits, {} KiB \
         after {}",
        peaks[0] >> 10,
        peaks[1] >> 10,
        4 * COMMITS
    );
    let grew = peaks[1] - peaks[0];
    assert!(grew.abs() <= 64 << 10, "recovery held {grew:+} bytes more after 4x the commits");
}
