use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ermia_common::{Lsn, Oid, Stamp, TableId, Tid};
use ermia_epoch::{EpochManager, Ticker};

use crate::{Collector, GcStats, OidArray, RetireQueue, Retired, TidManager, TidStatus, Version};

/// Bytes this thread has allocated and not freed, by the layouts it named:
/// a `Version::free` that rebuilt the wrong layout from `cap` would leave
/// the balance off by the difference.
struct Balance;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Balance {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + layout.size() as i64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|b| b.set(b.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size as i64 - layout.size() as i64;
        let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + grown));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static BALANCE: Balance = Balance;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(|b| b.get())
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + len) as u8).collect()
}

#[test]
fn version_round_trips_payloads_of_any_size() {
    let before = live_bytes();
    for len in [0usize, 1, 64, 65, 4096] {
        let data = payload(len);
        let stamp = Stamp::from_lsn(Lsn::from_parts(len as u64 + 1, 0));
        let v = Version::alloc(stamp, &data, len == 1);
        let vref = unsafe { &*v };
        assert_eq!(vref.data(), &data[..]);
        assert_eq!(vref.tombstone(), len == 1);
        assert_eq!(vref.stamp().as_lsn(), stamp.as_lsn());
        assert_eq!(vref.pstamp.load(Ordering::Relaxed), 0);
        assert!(!vref.is_overwritten());
        assert!(vref.next.load(Ordering::Relaxed).is_null());
        // One allocation: the payload sits right behind the header.
        assert_eq!(vref.data().as_ptr() as usize, v as usize + std::mem::size_of::<Version>());
        drop(data);
        assert!(live_bytes() - before >= (std::mem::size_of::<Version>() + len) as i64);
        unsafe { Version::free(v) };
        assert_eq!(live_bytes(), before, "payload of {len} B");
    }
}

#[test]
fn pooled_node_is_reused_when_the_payload_fits_and_replaced_when_not() {
    let before = live_bytes();
    {
        let pool = Arc::new(crate::VersionPool::new(8));
        let mut cache = crate::VersionCache::new(Arc::clone(&pool));
        let stamp = |n| Stamp::from_lsn(Lsn::from_parts(n, 0));
        let v = cache.acquire(stamp(1), &payload(64), false);
        unsafe { cache.release_unpublished(v) };
        let held = live_bytes();
        // Shorter, equal: the same node, nothing allocated or freed.
        for len in [10usize, 0, 64] {
            let data = payload(len);
            let again = cache.acquire(stamp(2), &data, len == 0);
            assert_eq!(again, v);
            assert_eq!(unsafe { (*again).data() }, &data[..]);
            assert_eq!(unsafe { (*again).tombstone() }, len == 0);
            drop(data);
            assert_eq!(live_bytes(), held);
            unsafe { cache.release_unpublished(again) };
        }
        assert_eq!(cache.reused(), 3);
        // Longer: the pooled node is freed and a roomier one made.
        let big = payload(65);
        let roomier = cache.acquire(stamp(3), &big, false);
        assert_eq!(cache.reused(), 3, "a replacement is not a reuse");
        assert_eq!(unsafe { (*roomier).data() }, &big[..]);
        drop(big);
        assert!(live_bytes() > held);
        // …which then absorbs the 64-byte payload too.
        unsafe { cache.release_unpublished(roomier) };
        assert_eq!(cache.acquire(stamp(4), &payload(64), false), roomier);
        unsafe { cache.release_unpublished(roomier) };
    }
    assert_eq!(live_bytes(), before, "cache and pool free what they hold");
}

/// A chain whose versions differ in size is freed whole on each of the
/// three roads a version takes to the allocator.
#[test]
fn chains_of_mixed_payload_sizes_are_freed_whole() {
    fn chain(arr: &OidArray, oid: Oid) {
        let mut prev: *mut Version = std::ptr::null_mut();
        for (i, len) in [0usize, 1, 64, 65, 4096, 7].into_iter().enumerate() {
            let stamp = Stamp::from_lsn(Lsn::from_parts(10 * (i as u64 + 1), 0));
            let v = Version::alloc(stamp, &payload(len), len == 0);
            unsafe { (*v).next.store(prev, Ordering::Relaxed) };
            prev = v;
        }
        arr.store_head(oid, prev);
    }
    // Whatever the first use of these types sets up once is not a leak.
    for measured in [false, true] {
        let before = live_bytes();
        let epoch = EpochManager::new("mixed-sizes");
        {
            // `OidArray::drop`.
            let arr = OidArray::new();
            for _ in 0..3 {
                chain(&arr, arr.allocate());
            }
        }
        {
            // A pool-less sweep: everything under the newest goes through
            // the epoch manager to `Version::free`.
            let arr = OidArray::new();
            chain(&arr, arr.allocate());
            let handle = epoch.register();
            let guard = handle.pin();
            assert_eq!(crate::gc::sweep_array(&arr, Lsn::from_parts(1_000, 0), &guard, None), 5);
            drop(guard);
            drop(handle);
            epoch.drain_all();
        }
        {
            // The same sweep into a pool of two: the overflow is freed at
            // once, the two pooled nodes when the pool drops.
            let arr = OidArray::new();
            chain(&arr, arr.allocate());
            let pool = Arc::new(crate::VersionPool::new(2));
            let handle = epoch.register();
            let guard = handle.pin();
            let swept =
                crate::gc::sweep_array(&arr, Lsn::from_parts(1_000, 0), &guard, Some(&pool));
            assert_eq!(swept, 5);
            drop(guard);
            drop(handle);
            epoch.drain_all();
            assert_eq!(pool.pooled(), 2);
        }
        drop(epoch);
        if measured {
            assert_eq!(live_bytes(), before);
        }
    }
}

#[test]
fn oid_allocation_is_unique_and_dense() {
    let arr = OidArray::new();
    let a = arr.allocate();
    let b = arr.allocate();
    assert_ne!(a, b);
    assert_eq!(a, Oid(1));
    assert_eq!(b, Oid(2));
}

#[test]
fn head_store_and_cas() {
    let arr = OidArray::new();
    let oid = arr.allocate();
    assert!(arr.head(oid).is_null());

    let v1 = Version::alloc(Stamp::from_lsn(Lsn::from_parts(1, 0)), b"v1", false);
    arr.store_head(oid, v1);
    assert_eq!(arr.head(oid), v1);

    let v2 = Version::alloc(Stamp::from_lsn(Lsn::from_parts(2, 0)), b"v2", false);
    unsafe { (*v2).next.store(v1, Ordering::Relaxed) };
    assert!(arr.cas_head(oid, v1, v2).is_ok());
    assert_eq!(arr.head(oid), v2);

    // Stale CAS fails and reports the current head.
    let v3 = Version::alloc(Stamp::from_lsn(Lsn::from_parts(3, 0)), b"v3", false);
    assert_eq!(arr.cas_head(oid, v1, v3).unwrap_err(), v2);
    unsafe { Version::free(v3) };
}

#[test]
fn oid_array_spans_pages() {
    let arr = OidArray::new();
    // Touch slots in different pages (page = 2^14 slots).
    let far = Oid(3 * (1 << 14) + 7);
    arr.ensure_allocated(far);
    let v = Version::alloc(Stamp::from_lsn(Lsn::from_parts(1, 0)), b"far", false);
    arr.store_head(far, v);
    assert_eq!(arr.head(far), v);
    assert!(arr.high_water() > far.0);
}

#[test]
fn for_each_visits_live_chains() {
    let arr = OidArray::new();
    for i in 0..10 {
        let oid = arr.allocate();
        if i % 2 == 0 {
            let v = Version::alloc(Stamp::from_lsn(Lsn::from_parts(i, 0)), b"x", false);
            arr.store_head(oid, v);
        }
    }
    let mut seen = 0;
    arr.for_each(|_, head| {
        assert!(!head.is_null());
        seen += 1;
    });
    assert_eq!(seen, 5);
}

#[test]
fn recycled_oids_are_reused() {
    let arr = OidArray::new();
    let a = arr.allocate();
    arr.recycle(a);
    assert_eq!(arr.allocate(), a);
}

#[test]
fn tid_acquire_release_inquire() {
    let mgr = TidManager::new();
    let mut hint = 0;
    let (tid, ctx) = mgr.acquire(Lsn::from_parts(5, 0), &mut hint);
    assert_eq!(ctx.begin(), Lsn::from_parts(5, 0));
    assert_eq!(mgr.inquire(tid), TidStatus::InFlight);

    ctx.enter_pending();
    assert!(matches!(mgr.inquire(tid), TidStatus::Precommit(_)));
    let c = Lsn::from_parts(9, 1);
    ctx.enter_precommit(c);
    assert_eq!(mgr.inquire(tid), TidStatus::Precommit(c));
    ctx.commit(c);
    assert_eq!(mgr.inquire(tid), TidStatus::Committed(c));

    mgr.release(tid);
    assert_eq!(mgr.inquire(tid), TidStatus::Stale);
    assert_eq!(mgr.in_use(), 0);
}

#[test]
fn stale_generation_detected() {
    let mgr = TidManager::new();
    let mut hint = 0;
    let (tid1, ctx) = mgr.acquire(Lsn::from_parts(1, 0), &mut hint);
    ctx.abort();
    mgr.release(tid1);
    // Force reuse of the same slot.
    hint = tid1.slot();
    let (tid2, _) = mgr.acquire(Lsn::from_parts(2, 0), &mut hint);
    assert_eq!(tid2.slot(), tid1.slot());
    assert_eq!(tid2.generation(), tid1.generation() + 1);
    // The old TID now reports Stale even though the slot is ACTIVE.
    assert_eq!(mgr.inquire(tid1), TidStatus::Stale);
    assert_eq!(mgr.inquire(tid2), TidStatus::InFlight);
}

#[test]
fn min_active_begin_tracks_oldest() {
    let mgr = TidManager::new();
    let mut hint = 0;
    let fallback = Lsn::from_parts(100, 0);
    assert_eq!(mgr.min_active_begin(fallback), fallback);
    let (t1, _) = mgr.acquire(Lsn::from_parts(10, 0), &mut hint);
    let (t2, _) = mgr.acquire(Lsn::from_parts(20, 0), &mut hint);
    assert_eq!(mgr.min_active_begin(fallback), Lsn::from_parts(10, 0));
    mgr.ctx(t1).abort();
    mgr.release(t1);
    assert_eq!(mgr.min_active_begin(fallback), Lsn::from_parts(20, 0));
    mgr.ctx(t2).abort();
    mgr.release(t2);
}

/// A worker alternates between the two contexts of one pair, and only
/// walks on while it holds several; the scans cover every slot a claim
/// can be on.
#[test]
fn a_worker_reclaims_the_slots_it_released() {
    let mgr = TidManager::new();
    let (home_a, home_b) = (mgr.home().slot, mgr.home().slot);
    assert_ne!(home_a, home_b);
    let mut hint = home_b;
    let mut generations = [0u64; 2];
    for i in 0..1_000u64 {
        let (tid, ctx) = mgr.acquire(Lsn::from_parts(i + 1, 0), &mut hint);
        let which = (i % 2) as usize;
        assert_eq!(tid.slot(), home_b + which);
        assert_eq!(tid.generation(), generations[which] + 1);
        generations[which] = tid.generation();
        ctx.abort();
        mgr.release(tid);
    }
    // Holding both (parked prepares), the next claim walks on.
    let (parked, _) = mgr.acquire(Lsn::from_parts(7, 0), &mut hint);
    let (second, _) = mgr.acquire(Lsn::from_parts(8, 0), &mut hint);
    let (third, _) = mgr.acquire(Lsn::from_parts(9, 0), &mut hint);
    assert_eq!((parked.slot(), second.slot(), third.slot()), (home_b, home_b + 1, home_b + 2));
    assert_eq!(mgr.in_use(), 3);
    assert_eq!(mgr.min_active_begin(Lsn::from_parts(100, 0)), Lsn::from_parts(7, 0));
    // A claim far past everything claimed so far is seen too.
    let mut far = ermia_common::ids::TID_TABLE_CAPACITY - 1;
    let (t, ctx) = mgr.acquire(Lsn::from_parts(3, 0), &mut far);
    assert_eq!(t.slot(), ermia_common::ids::TID_TABLE_CAPACITY - 1);
    assert_eq!(mgr.min_active_begin(Lsn::from_parts(100, 0)), Lsn::from_parts(3, 0));
    ctx.enter_pending();
    ctx.enter_precommit(Lsn::from_parts(50, 0));
    assert_eq!(mgr.min_commit_low_water(Lsn::from_parts(100, 0)), Lsn::from_parts(50, 0));
    assert_eq!(mgr.in_use(), 4);
    for t in [parked, second, third, t] {
        mgr.ctx(t).abort();
        mgr.release(t);
    }
    assert_eq!(mgr.in_use(), 0);
}

#[test]
fn concurrent_tid_churn() {
    let mgr = Arc::new(TidManager::new());
    std::thread::scope(|s| {
        for t in 0..4usize {
            let mgr = Arc::clone(&mgr);
            s.spawn(move || {
                let mut hint = t * 1000;
                for i in 0..5_000u64 {
                    let (tid, ctx) = mgr.acquire(Lsn::from_parts(i + 1, 0), &mut hint);
                    ctx.enter_pending();
                    let c = Lsn::from_parts(i + 2, 0);
                    ctx.enter_precommit(c);
                    ctx.commit(c);
                    assert_eq!(mgr.inquire(tid), TidStatus::Committed(c));
                    mgr.release(tid);
                }
            });
        }
    });
    assert_eq!(mgr.in_use(), 0);
}

fn make_chain(arr: &OidArray, oid: Oid, stamps: &[u64]) -> Vec<*mut Version> {
    // stamps oldest-first; returns ptrs oldest-first.
    let mut ptrs = Vec::new();
    let mut prev: *mut Version = std::ptr::null_mut();
    for &s in stamps {
        let v = Version::alloc(Stamp::from_lsn(Lsn::from_parts(s, 0)), &s.to_le_bytes(), false);
        unsafe { (*v).next.store(prev, Ordering::Relaxed) };
        prev = v;
        ptrs.push(v);
    }
    arr.store_head(oid, prev);
    ptrs
}

#[test]
fn gc_truncates_dead_suffix() {
    let arr = Arc::new(OidArray::new());
    let epoch = EpochManager::new("gc-test");
    let oid = arr.allocate();
    // Chain (newest first after build): 50, 30, 20, 10.
    make_chain(&arr, oid, &[10, 20, 30, 50]);

    // Horizon 35: versions ≤ 35 newest is 30; 20 and 10 are dead.
    let handle = epoch.register();
    let guard = handle.pin();
    let reclaimed = crate::gc::sweep_array(&arr, Lsn::from_parts(35, 0), &guard, None);
    drop(guard);
    assert_eq!(reclaimed, 2);

    // Chain is now 50 → 30 → ∅.
    let head = arr.head(oid);
    let s0 = unsafe { (*head).stamp().as_lsn() };
    assert_eq!(s0, Lsn::from_parts(50, 0));
    let n1 = unsafe { (*head).next.load(Ordering::Acquire) };
    let s1 = unsafe { (*n1).stamp().as_lsn() };
    assert_eq!(s1, Lsn::from_parts(30, 0));
    assert!(unsafe { (*n1).next.load(Ordering::Acquire) }.is_null());

    for _ in 0..3 {
        epoch.advance_and_collect();
    }
    assert_eq!(epoch.stats().pending, 0, "retired versions must be freed");
}

#[test]
fn gc_keeps_everything_when_horizon_old() {
    let arr = Arc::new(OidArray::new());
    let epoch = EpochManager::new("gc-test2");
    let oid = arr.allocate();
    make_chain(&arr, oid, &[10, 20, 30]);
    let handle = epoch.register();
    let guard = handle.pin();
    // Horizon 5: no committed version ≤ 5 — nothing reclaimable.
    let reclaimed = crate::gc::sweep_array(&arr, Lsn::from_parts(5, 0), &guard, None);
    assert_eq!(reclaimed, 0);
}

#[test]
fn gc_skips_inflight_heads() {
    let arr = Arc::new(OidArray::new());
    let epoch = EpochManager::new("gc-test3");
    let oid = arr.allocate();
    make_chain(&arr, oid, &[10, 20]);
    // Push a TID-stamped (uncommitted) version on top.
    let head = arr.head(oid);
    let inflight = Version::alloc(Stamp::from_tid(Tid::new(1, 1)), b"dirty", false);
    unsafe { (*inflight).next.store(head, Ordering::Relaxed) };
    arr.store_head(oid, inflight);

    let handle = epoch.register();
    let guard = handle.pin();
    let reclaimed = crate::gc::sweep_array(&arr, Lsn::from_parts(100, 0), &guard, None);
    // Only version 10 dies (20 is the boundary; the in-flight head stays).
    assert_eq!(reclaimed, 1);
    assert_eq!(arr.head(oid), inflight);
}

/// A collector over `arr` as table 0, its horizon read from `horizon`
/// (an LSN offset), passing on every tick of a 1 ms epoch ticker.
fn start_collector(
    arr: &Arc<OidArray>,
    epoch: &EpochManager,
    horizon: &Arc<AtomicU64>,
) -> (Arc<RetireQueue>, Ticker) {
    let queue = Arc::new(RetireQueue::new(Arc::default()));
    let (arr, horizon) = (Arc::clone(arr), Arc::clone(horizon));
    let mut gc = Collector::new(
        Arc::clone(&queue),
        epoch.clone(),
        move || Lsn::from_parts(horizon.load(Ordering::Acquire), 0),
        move |t| (t.0 == 0).then(|| Arc::clone(&arr)),
        None,
        |_, _| {},
    );
    let ticker = Ticker::start(epoch.clone(), Duration::from_millis(1), move || gc.pass());
    (queue, ticker)
}

fn retired(stamp: u64, oid: Oid) -> Retired {
    Retired { cstamp: Lsn::from_parts(stamp, 0), table: TableId(0), oid }
}

/// Block until the collector has finished `n` more passes.
fn wait_passes(stats: &GcStats, n: u64) {
    let target = stats.passes.load(Ordering::Acquire) + n;
    while stats.passes.load(Ordering::Acquire) < target {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn collector_visits_exactly_the_retired_chains() {
    let arr = Arc::new(OidArray::new());
    let epoch = EpochManager::new("gc-bg");
    let (told, untold) = (arr.allocate(), arr.allocate());
    make_chain(&arr, told, &[1, 2, 3, 4, 5, 6, 7, 8]);
    make_chain(&arr, untold, &[1, 2, 3]);
    let (queue, gc) = start_collector(&arr, &epoch, &Arc::new(AtomicU64::new(1000)));
    let stats = Arc::clone(queue.stats());
    // An entry for a table nobody declared is dropped, not waited on.
    queue.retire(&[retired(8, told), Retired { table: TableId(9), ..retired(8, told) }]);
    wait_passes(&stats, 2);
    assert_eq!(stats.reclaimed.load(Ordering::Relaxed), 7);
    assert_eq!(stats.chains_visited.load(Ordering::Relaxed), 2);
    assert_eq!(stats.retire_backlog.load(Ordering::Relaxed), 0);
    // Idle passes visit nothing: the chain nobody retired keeps its
    // garbage, which is what the full-sweep audit exists to catch.
    wait_passes(&stats, 5);
    assert_eq!(stats.chains_visited.load(Ordering::Relaxed), 2);
    drop(gc);
    let handle = epoch.register();
    let reclaimed = crate::gc::sweep_array(&arr, Lsn::from_parts(1000, 0), &handle.pin(), None);
    assert_eq!(reclaimed, 2);
}

#[test]
fn retired_entries_wait_for_the_horizon_in_any_order() {
    let arr = Arc::new(OidArray::new());
    let epoch = EpochManager::new("gc-pinned");
    let oids: Vec<Oid> = (0..4).map(|_| arr.allocate()).collect();
    // Chain i holds stamps 10·(i+1) and 10·(i+1)+5: its lower version
    // dies when the horizon passes the upper one's stamp.
    for (i, &oid) in oids.iter().enumerate() {
        let s = 10 * (i as u64 + 1);
        make_chain(&arr, oid, &[s, s + 5]);
    }
    let horizon = Arc::new(AtomicU64::new(0));
    let (queue, _gc) = start_collector(&arr, &epoch, &horizon);
    let stats = Arc::clone(queue.stats());
    // Handed off newest first.
    for (i, &oid) in oids.iter().enumerate().rev() {
        queue.retire(&[retired(10 * (i as u64 + 1) + 5, oid)]);
    }
    wait_passes(&stats, 3);
    assert_eq!(stats.chains_visited.load(Ordering::Relaxed), 0, "horizon 0 releases nothing");
    assert_eq!(stats.retire_backlog.load(Ordering::Relaxed), 4);
    // Strict comparison: an entry stamped exactly at the horizon stays.
    horizon.store(25, Ordering::Release);
    wait_passes(&stats, 3);
    assert_eq!(stats.chains_visited.load(Ordering::Relaxed), 1);
    assert_eq!(stats.reclaimed.load(Ordering::Relaxed), 1);
    assert_eq!(stats.retire_backlog.load(Ordering::Relaxed), 3);
    horizon.store(1000, Ordering::Release);
    wait_passes(&stats, 3);
    assert_eq!(stats.chains_visited.load(Ordering::Relaxed), 4);
    assert_eq!(stats.reclaimed.load(Ordering::Relaxed), 4);
    assert_eq!(stats.retire_backlog.load(Ordering::Relaxed), 0);
}

#[test]
fn dropping_the_collector_does_not_wait_out_its_interval() {
    let queue = Arc::new(RetireQueue::new(Arc::default()));
    let epoch = EpochManager::new("gc-drop");
    let mut collector =
        Collector::new(Arc::clone(&queue), epoch.clone(), || Lsn::NULL, |_| None, None, |_, _| {});
    let gc = Ticker::start(epoch, Duration::from_secs(3600), move || collector.pass());
    // The first pass, whenever it happened: the next is an hour away.
    while queue.stats().passes.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    let t0 = std::time::Instant::now();
    drop(gc);
    assert!(t0.elapsed() < Duration::from_secs(5), "drop slept through the interval");
}

#[test]
fn version_stamp_transitions() {
    let v = Version::alloc(Stamp::from_tid(Tid::new(3, 9)), b"payload", false);
    let vref = unsafe { &*v };
    assert!(vref.stamp().is_tid());
    assert_eq!(vref.stamp().as_tid(), Tid::new(3, 9));
    // Post-commit re-stamp.
    vref.clsn.store(Stamp::from_lsn(Lsn::from_parts(77, 2)).raw(), Ordering::Release);
    assert!(!vref.stamp().is_tid());
    assert_eq!(vref.stamp().as_lsn(), Lsn::from_parts(77, 2));
    // SSN stamps.
    assert!(!vref.is_overwritten());
    vref.raise_pstamp(10);
    vref.raise_pstamp(5);
    assert_eq!(vref.pstamp.load(Ordering::Relaxed), 10);
    unsafe { Version::free(v) };
}

#[test]
fn oid_freelist_concurrent_churn_no_duplicates() {
    // Hammer the lock-free free stack from several threads: each thread
    // repeatedly allocates a batch and recycles it. At every instant each
    // OID is held by at most one thread, so observing a duplicate inside
    // a batch means the stack double-served an OID (ABA or lost update).
    let arr = Arc::new(OidArray::new());
    // Seed the free stack.
    for _ in 0..64 {
        let o = arr.allocate();
        arr.recycle(o);
    }
    std::thread::scope(|s| {
        for _ in 0..4 {
            let arr = Arc::clone(&arr);
            s.spawn(move || {
                let mut batch = Vec::with_capacity(8);
                for _ in 0..10_000 {
                    for _ in 0..8 {
                        batch.push(arr.allocate());
                    }
                    let mut sorted = batch.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), batch.len(), "duplicate OID handed out");
                    for o in batch.drain(..) {
                        arr.recycle(o);
                    }
                }
            });
        }
    });
}

#[test]
fn oid_free_count_reflects_recycles() {
    let arr = OidArray::new();
    let a = arr.allocate();
    let b = arr.allocate();
    assert_eq!(arr.free_count(), 0);
    arr.recycle(a);
    arr.recycle(b);
    assert_eq!(arr.free_count(), 2);
    // LIFO: last recycled comes back first.
    assert_eq!(arr.allocate(), b);
    assert_eq!(arr.free_count(), 1);
}

#[test]
fn version_pool_recycles_and_caps() {
    let pool = Arc::new(crate::VersionPool::new(2));
    let mut cache = crate::VersionCache::new(Arc::clone(&pool));
    // Fresh allocation path (pool empty).
    let v1 = cache.acquire(Stamp::from_lsn(Lsn::from_parts(1, 0)), b"abcdef", false);
    assert_eq!(cache.reused(), 0);
    unsafe {
        pool.release(v1);
        let extra1 = Version::alloc(Stamp::from_lsn(Lsn::from_parts(2, 0)), b"x", false);
        let extra2 = Version::alloc(Stamp::from_lsn(Lsn::from_parts(3, 0)), b"y", false);
        pool.release(extra1);
        pool.release(extra2); // over cap: freed, not pooled
    }
    assert_eq!(pool.pooled(), 2);
    // Reuse path: the recycled node is reinitialized in place.
    let v2 = cache.acquire(Stamp::from_lsn(Lsn::from_parts(9, 1)), b"zz", true);
    assert_eq!(cache.reused(), 1);
    let vref = unsafe { &*v2 };
    assert_eq!(vref.stamp().as_lsn(), Lsn::from_parts(9, 1));
    assert!(vref.tombstone());
    assert_eq!(vref.data(), b"zz");
    assert!(!vref.is_overwritten());
    assert!(vref.next.load(Ordering::Acquire).is_null());
    unsafe { Version::free(v2) };
    // Dropping the cache returns its local stash to the pool.
    drop(cache);
}

#[test]
fn gc_seeded_pool_feeds_reuse_under_concurrent_readers() {
    // Readers traverse a chain while the GC truncates it into a pool;
    // epoch quiescence must keep every node a reader can still hold
    // alive, and the pool must end up holding the dead suffix.
    let arr = Arc::new(OidArray::new());
    let epoch = EpochManager::new("gc-pool");
    let pool = Arc::new(crate::VersionPool::new(1024));
    let oid = arr.allocate();
    make_chain(&arr, oid, &[10, 20, 30, 50]);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..3 {
            let arr = Arc::clone(&arr);
            let epoch = epoch.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let handle = epoch.register();
                while !stop.load(Ordering::Acquire) {
                    let guard = handle.pin();
                    let mut p = arr.head(oid);
                    let mut sum = 0u64;
                    while !p.is_null() {
                        let v = unsafe { &*p };
                        sum += v.data().len() as u64; // touch payload
                        p = v.next.load(Ordering::Acquire);
                    }
                    assert!(sum > 0);
                    drop(guard);
                }
            });
        }
        // The sweeper: sweep with the pool attached, then quiesce.
        let handle = epoch.register();
        let guard = handle.pin();
        let reclaimed = crate::gc::sweep_array(&arr, Lsn::from_parts(35, 0), &guard, Some(&pool));
        drop(guard);
        assert_eq!(reclaimed, 2);
        for _ in 0..64 {
            epoch.advance_and_collect();
            if pool.pooled() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
    });
    // Readers are gone; drain whatever quiescence still held back.
    epoch.drain_all();
    assert_eq!(pool.pooled(), 2, "dead suffix must land in the pool");

    // And the pooled nodes are servable through a cache.
    let mut cache = crate::VersionCache::new(Arc::clone(&pool));
    let v = cache.acquire(Stamp::from_lsn(Lsn::from_parts(99, 0)), b"reborn", false);
    assert_eq!(cache.reused(), 1);
    unsafe { Version::free(v) };
}
