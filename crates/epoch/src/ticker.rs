//! Background epoch ticker: advances a manager's timeline periodically.
//!
//! Each of ERMIA's epoch managers runs at its own time scale (§3.4); the
//! ticker is the clock. Dropping the [`Ticker`] stops the thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::EpochManager;

/// Periodically calls [`EpochManager::advance_and_collect`] from a
/// background thread until dropped.
pub struct Ticker {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Ticker {
    /// Start ticking `manager` every `interval`.
    pub fn start(manager: EpochManager, interval: Duration) -> Ticker {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(format!("epoch-ticker-{}", manager.name()))
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    manager.advance_and_collect();
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
