use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{EpochManager, EpochPhase, Ticker};

#[test]
fn pin_unpin_tracks_activity() {
    let mgr = EpochManager::new("t");
    let h = mgr.register();
    assert!(!h.is_pinned());
    {
        let g = h.pin();
        assert!(h.is_pinned());
        assert_eq!(g.epoch(), mgr.current_epoch());
    }
    assert!(!h.is_pinned());
}

#[test]
fn nested_pins_share_epoch() {
    let mgr = EpochManager::new("t");
    let h = mgr.register();
    let g1 = h.pin();
    let e = g1.epoch();
    let g2 = h.pin();
    assert_eq!(g2.epoch(), e);
    drop(g2);
    assert!(h.is_pinned());
    drop(g1);
    assert!(!h.is_pinned());
}

#[test]
fn deferred_runs_only_after_quiesce() {
    let mgr = EpochManager::new("t");
    let h = mgr.register();
    let ran = Arc::new(AtomicUsize::new(0));

    let g = h.pin();
    let ran2 = Arc::clone(&ran);
    g.defer(move || {
        ran2.fetch_add(1, Ordering::SeqCst);
    });
    // Still pinned in the retiring epoch: several advance+collect rounds
    // must not free it.
    for _ in 0..4 {
        mgr.advance_and_collect();
    }
    assert_eq!(ran.load(Ordering::SeqCst), 0, "freed under an active pin");
    drop(g);
    for _ in 0..3 {
        mgr.advance_and_collect();
    }
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn closing_epoch_threads_do_not_block_advance() {
    let mgr = EpochManager::new("t");
    let h = mgr.register();
    let _g = h.pin();
    // Pinned in epoch E. Advancing to E+1 puts the thread in the closing
    // epoch — must succeed (three-phase refinement).
    assert!(mgr.try_advance().is_some());
    // Advancing again would strand the thread two epochs behind, so the
    // advance is refused. The thread is still only a *closing* member,
    // not a true straggler.
    assert!(mgr.try_advance().is_none());
    let s = mgr.stats();
    assert_eq!(s.stragglers, 0);
    assert!(s.advance_blocked >= 1);
}

#[test]
fn phase_classification() {
    let mgr = EpochManager::new("t");
    let e = mgr.current_epoch();
    assert_eq!(mgr.phase_of(e), EpochPhase::Open);
    mgr.try_advance().unwrap();
    assert_eq!(mgr.phase_of(e), EpochPhase::Closing);
    mgr.try_advance().unwrap();
    assert_eq!(mgr.phase_of(e), EpochPhase::Closed);
}

#[test]
fn quiesce_refreshes_pinned_epoch() {
    let mgr = EpochManager::new("t");
    let h = mgr.register();
    let g = h.pin();
    let e0 = g.epoch();
    mgr.try_advance().unwrap();
    // Conditional quiescent point migrates the thread to the open epoch.
    h.quiesce();
    assert_eq!(h.pinned_epoch(), e0 + 1);
    // And the straggler accounting clears.
    mgr.try_advance().unwrap();
    assert_eq!(mgr.stats().stragglers, 0);
    drop(g);
}

#[test]
fn defer_while_unpinned_is_allowed() {
    let mgr = EpochManager::new("t");
    let h = mgr.register();
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    // Pin then drop immediately; defer through a fresh short pin.
    h.pin().defer(move || {
        ran2.fetch_add(1, Ordering::SeqCst);
    });
    for _ in 0..3 {
        mgr.advance_and_collect();
    }
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn drop_handle_flushes_local_garbage() {
    let mgr = EpochManager::new("t");
    let ran = Arc::new(AtomicUsize::new(0));
    {
        let h = mgr.register();
        let ran2 = Arc::clone(&ran);
        h.pin().defer(move || {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        // handle dropped here without any collect
    }
    for _ in 0..3 {
        mgr.advance_and_collect();
    }
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn stats_accounting() {
    let mgr = EpochManager::new("t");
    let h = mgr.register();
    for _ in 0..10 {
        h.pin().defer(|| {});
    }
    for _ in 0..3 {
        mgr.advance_and_collect();
    }
    let s = mgr.stats();
    assert_eq!(s.deferred, 10);
    assert_eq!(s.freed, 10);
    assert_eq!(s.pending, 0);
    assert_eq!(s.threads, 1);
}

#[test]
fn defer_drop_frees_heap_object() {
    let mgr = EpochManager::new("t");
    let h = mgr.register();
    struct Canary(Arc<AtomicUsize>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    let ptr = Box::into_raw(Box::new(Canary(Arc::clone(&drops))));
    {
        let g = h.pin();
        unsafe { g.defer_drop(ptr) };
    }
    for _ in 0..3 {
        mgr.advance_and_collect();
    }
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

/// Each tick advances the epoch, then runs the owner's closure.
#[test]
fn ticker_advances_in_background() {
    let mgr = EpochManager::new("t");
    let before = mgr.current_epoch();
    // What the closure sees: the epoch its tick just advanced to.
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let ticker = {
        let (mgr, seen) = (mgr.clone(), Arc::clone(&seen));
        Ticker::start(mgr.clone(), Duration::from_millis(1), move || {
            seen.lock().unwrap().push(mgr.current_epoch());
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    drop(ticker);
    assert!(mgr.current_epoch() > before + 2);
    let seen = seen.lock().unwrap();
    assert!(seen.len() > 2, "the closure ran {} times", seen.len());
    assert_eq!(seen[0], before + 1, "the first tick advances before its closure runs");
    assert!(seen.windows(2).all(|w| w[1] == w[0] + 1), "one advance per tick: {seen:?}");
}

#[test]
fn dropping_the_ticker_does_not_wait_out_its_interval() {
    let mgr = EpochManager::new("t-drop");
    let before = mgr.current_epoch();
    let interval = Duration::from_secs(1);
    let ticker = Ticker::start(mgr.clone(), interval, || {});
    // The first tick is done: the thread is in, or on its way into, the
    // interval.
    while mgr.current_epoch() == before {
        std::thread::yield_now();
    }
    let t0 = std::time::Instant::now();
    drop(ticker);
    assert!(t0.elapsed() < interval / 2, "drop slept through the interval");
}

#[test]
fn concurrent_defer_and_collect_stress() {
    // Shared counter balance: every deferred increment must run exactly once.
    const THREADS: usize = 4;
    const OPS: usize = 2_000;
    let mgr = EpochManager::new("stress");
    let ran = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let mgr = mgr.clone();
            let ran = Arc::clone(&ran);
            s.spawn(move || {
                let h = mgr.register();
                for i in 0..OPS {
                    let g = h.pin();
                    let ran = Arc::clone(&ran);
                    g.defer(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                    drop(g);
                    if i % 128 == 0 {
                        mgr.advance_and_collect();
                    }
                }
            });
        }
        let mgr2 = mgr.clone();
        s.spawn(move || {
            for _ in 0..200 {
                mgr2.advance_and_collect();
                std::thread::yield_now();
            }
        });
    });

    for _ in 0..4 {
        mgr.advance_and_collect();
    }
    assert_eq!(ran.load(Ordering::SeqCst), THREADS * OPS);
    let s = mgr.stats();
    assert_eq!(s.pending, 0);
}

#[test]
fn unified_manager_protects_all_timescales_under_one_pin() {
    // The engine collapses the paper's three per-timescale managers (gc,
    // rcu, tid) into one. The safety argument: a single pin taken at the
    // transaction boundary must hold back reclamation of *every* resource
    // class at once, and releasing it must let all of them retire.
    let mgr = EpochManager::new("unified");
    let reader = mgr.register();
    let retirer = mgr.register();

    let freed = Arc::new(AtomicUsize::new(0));
    let pin = reader.pin(); // a transaction's single unified pin

    // Three resource classes retired while the pin is held.
    for _class in ["version", "tree-node", "tid-ctx"] {
        let freed = Arc::clone(&freed);
        retirer.pin().defer(move || {
            freed.fetch_add(1, Ordering::SeqCst);
        });
    }
    for _ in 0..5 {
        mgr.advance_and_collect();
    }
    assert_eq!(freed.load(Ordering::SeqCst), 0, "pin must protect every class");

    drop(pin);
    for _ in 0..3 {
        mgr.advance_and_collect();
    }
    assert_eq!(freed.load(Ordering::SeqCst), 3, "all classes retire after unpin");
}

#[test]
fn straggler_blocks_reclamation_but_not_safety() {
    let mgr = EpochManager::new("t");
    let straggler = mgr.register();
    let worker = mgr.register();

    let ran = Arc::new(AtomicUsize::new(0));
    let sg = straggler.pin(); // never quiesces

    let ran2 = Arc::clone(&ran);
    worker.pin().defer(move || {
        ran2.fetch_add(1, Ordering::SeqCst);
    });

    for _ in 0..5 {
        mgr.advance_and_collect();
    }
    // The straggler pinned in the retirement epoch blocks the free.
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    drop(sg);
    for _ in 0..3 {
        mgr.advance_and_collect();
    }
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}
