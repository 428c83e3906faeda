//! The epoch ticker: the clock of an engine's resource management.
//!
//! Each of ERMIA's epoch managers runs at its own time scale (§3.4); the
//! ticker is the clock. A tick advances the manager's timeline, then runs
//! whatever the owner hangs on it — the engine's garbage-collector pass,
//! Silo's global- and snapshot-epoch bumps — so an engine keeps one
//! clock, not one per duty. Dropping the [`Ticker`] stops the thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::EpochManager;

/// Every `interval`, calls [`EpochManager::advance_and_collect`] and then
/// the owner's per-tick closure, from a background thread until dropped.
pub struct Ticker {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Ticker {
    /// Start ticking `manager` every `interval`, running `on_tick` after
    /// each advance.
    pub fn start(
        manager: EpochManager,
        interval: Duration,
        mut on_tick: impl FnMut() + Send + 'static,
    ) -> Ticker {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(format!("epoch-ticker-{}", manager.name()))
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    manager.advance_and_collect();
                    on_tick();
                    // `Drop` unparks; a spurious wake-up is only an early
                    // tick.
                    std::thread::park_timeout(interval);
                }
                // Final sweeps so shutdown doesn't strand garbage.
                manager.advance_and_collect();
                manager.advance_and_collect();
            })
            .expect("spawn epoch ticker");
        Ticker { stop, thread: Some(thread) }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}
