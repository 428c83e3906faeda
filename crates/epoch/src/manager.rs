//! The three-phase epoch manager.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ermia_common::CachePadded;

/// Sentinel slot value meaning "thread is quiescent" (holds no references
/// to epoch-managed resources).
pub const QUIESCENT: u64 = u64::MAX;

/// How many deferred items a thread accumulates locally before flushing
/// them to the manager's global garbage queue.
const LOCAL_BAG_FLUSH: usize = 64;

/// Lifecycle phase of an epoch relative to the current (open) epoch.
///
/// With global epoch `E`: epoch `E` is [`EpochPhase::Open`] (accepting new
/// arrivals), epoch `E-1` is [`EpochPhase::Closing`] (threads still active
/// in it are tolerated and ignored), and anything older is
/// [`EpochPhase::Closed`] (threads still active there are true stragglers).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpochPhase {
    Open,
    Closing,
    Closed,
}

/// A deferred destructor, boxed. Runs exactly once when its retirement
/// epoch is proven safe.
type Deferred = Box<dyn FnOnce() + Send>;

/// Observer invoked with the new epoch after each successful advance
/// (telemetry: the `epoch-advance` flight events).
type AdvanceHook = Box<dyn Fn(u64) + Send + Sync>;

struct Bag {
    epoch: u64,
    items: Vec<Deferred>,
}

/// Per-thread activity slot. The manager only ever reads it; the owning
/// thread writes it, keeping the report protocol lock-free (§3.4
/// characteristic 1).
struct Slot {
    /// Epoch the thread is active in, or [`QUIESCENT`].
    state: CachePadded<AtomicU64>,
    /// Set when the owning handle is dropped; the manager prunes the slot
    /// at the next advance.
    retired: AtomicBool,
}

struct Shared {
    /// The current ("open") epoch. Monotonically increasing.
    global: CachePadded<AtomicU64>,
    slots: Mutex<Vec<Arc<Slot>>>,
    garbage: Mutex<VecDeque<Bag>>,
    // Statistics (relaxed counters; read by benches and tests).
    advances: AtomicU64,
    advance_blocked: AtomicU64,
    deferred_total: AtomicU64,
    freed_total: AtomicU64,
    registrations: AtomicU64,
    /// Called (outside the slots lock) after each successful advance.
    advance_hook: Mutex<Option<AdvanceHook>>,
    name: &'static str,
}

/// Aggregate statistics snapshot for an epoch manager.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    /// Current (open) epoch number.
    pub epoch: u64,
    /// Successful epoch advances.
    pub advances: u64,
    /// Advance attempts blocked by a true straggler.
    pub advance_blocked: u64,
    /// Total destructors deferred.
    pub deferred: u64,
    /// Total destructors executed.
    pub freed: u64,
    /// Destructors still pending.
    pub pending: u64,
    /// Registered (non-retired) threads.
    pub threads: usize,
    /// Registrations ever made, the dropped ones included.
    pub registrations: u64,
    /// Threads currently active two or more epochs behind.
    pub stragglers: usize,
}

/// An epoch-based resource manager tracking one timeline.
///
/// Cheap to clone (`Arc` internally); one instance per timescale.
#[derive(Clone)]
pub struct EpochManager {
    shared: Arc<Shared>,
}

impl EpochManager {
    /// Create a manager. `name` labels it in stats output (e.g. `"gc"`,
    /// `"rcu"`, `"tid"` — the paper's three timescales).
    pub fn new(name: &'static str) -> EpochManager {
        EpochManager {
            shared: Arc::new(Shared {
                // Start at 2 so `epoch - 2` arithmetic never underflows.
                global: CachePadded::new(AtomicU64::new(2)),
                slots: Mutex::new(Vec::new()),
                garbage: Mutex::new(VecDeque::new()),
                advances: AtomicU64::new(0),
                advance_blocked: AtomicU64::new(0),
                deferred_total: AtomicU64::new(0),
                freed_total: AtomicU64::new(0),
                registrations: AtomicU64::new(0),
                advance_hook: Mutex::new(None),
                name,
            }),
        }
    }

    /// The manager's label.
    pub fn name(&self) -> &'static str {
        self.shared.name
    }

    /// Register the calling thread. The returned handle owns a private
    /// activity slot; drop it to deregister.
    pub fn register(&self) -> EpochHandle {
        let slot = Arc::new(Slot {
            state: CachePadded::new(AtomicU64::new(QUIESCENT)),
            retired: AtomicBool::new(false),
        });
        self.shared.slots.lock().unwrap().push(Arc::clone(&slot));
        self.shared.registrations.fetch_add(1, Ordering::Relaxed);
        EpochHandle {
            shared: Arc::clone(&self.shared),
            slot,
            pin_depth: Cell::new(0),
            pin_epoch: Cell::new(0),
            local: Cell::new(Vec::new()),
        }
    }

    /// Current (open) epoch number.
    #[inline]
    pub fn current_epoch(&self) -> u64 {
        self.shared.global.load(Ordering::SeqCst)
    }

    /// Phase of `epoch` relative to the open epoch.
    pub fn phase_of(&self, epoch: u64) -> EpochPhase {
        let global = self.current_epoch();
        if epoch >= global {
            EpochPhase::Open
        } else if epoch + 1 == global {
            EpochPhase::Closing
        } else {
            EpochPhase::Closed
        }
    }

    /// Try to begin a new epoch.
    ///
    /// Threads active in the current (open) epoch do not block the
    /// advance — they simply become members of the new *closing* epoch
    /// and are otherwise ignored (the three-phase refinement). The
    /// advance is refused only when it would leave some thread two or
    /// more epochs behind, i.e. when a thread is still active in the
    /// closing epoch or older: those are the (would-be) true stragglers.
    /// Returns the new open epoch on success.
    pub fn try_advance(&self) -> Option<u64> {
        let shared = &*self.shared;
        let mut slots = shared.slots.lock().unwrap();
        let global = shared.global.load(Ordering::SeqCst);
        // Prune retired slots while we hold the lock anyway.
        slots.retain(|s| !s.retired.load(Ordering::Acquire));
        let blocked = slots.iter().any(|s| {
            let e = s.state.load(Ordering::SeqCst);
            e != QUIESCENT && e < global
        });
        if blocked {
            shared.advance_blocked.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        shared.global.store(global + 1, Ordering::SeqCst);
        shared.advances.fetch_add(1, Ordering::Relaxed);
        // Notify outside the slots lock so a hook touching the manager
        // (or anything that pins) cannot deadlock against it.
        drop(slots);
        if let Some(hook) = &*shared.advance_hook.lock().unwrap() {
            hook(global + 1);
        }
        Some(global + 1)
    }

    /// Install an observer called with the new epoch after every
    /// successful advance. Replaces any previous hook. The hook runs on
    /// whichever thread advanced, outside the manager's internal locks —
    /// keep it cheap (a relaxed store / ring event).
    pub fn set_advance_hook(&self, f: impl Fn(u64) + Send + Sync + 'static) {
        *self.shared.advance_hook.lock().unwrap() = Some(Box::new(f));
    }

    /// Run destructors whose retirement epoch is proven safe: every
    /// registered thread is either quiescent or active in a strictly later
    /// epoch. Returns the number of destructors executed.
    pub fn collect(&self) -> usize {
        let shared = &*self.shared;
        // Compute the reclamation horizon: the minimum epoch any thread is
        // active in (or the open epoch if all are quiescent). A bag retired
        // in epoch r is safe once r < horizon, because any thread that pins
        // from now on enters an epoch >= the open epoch > r and pinned
        // *after* the resource became unreachable.
        let horizon = {
            let slots = shared.slots.lock().unwrap();
            let global = shared.global.load(Ordering::SeqCst);
            slots
                .iter()
                .filter(|s| !s.retired.load(Ordering::Acquire))
                .map(|s| s.state.load(Ordering::SeqCst))
                .filter(|&e| e != QUIESCENT)
                .min()
                .unwrap_or(global)
        };
        // One bag at a time, run outside the lock: no list of ready bags
        // to allocate on every tick that finds one.
        let ready = || {
            let mut garbage = shared.garbage.lock().unwrap();
            let due = garbage.front().is_some_and(|b| b.epoch < horizon);
            due.then(|| garbage.pop_front().expect("checked front"))
        };
        let mut freed = 0;
        while let Some(bag) = ready() {
            freed += bag.items.len();
            for item in bag.items {
                item();
            }
        }
        shared.freed_total.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }

    /// Advance then collect; the ticker calls this periodically.
    pub fn advance_and_collect(&self) -> usize {
        self.try_advance();
        self.collect()
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> EpochStats {
        let shared = &*self.shared;
        let global = shared.global.load(Ordering::SeqCst);
        let (threads, stragglers) = {
            let slots = shared.slots.lock().unwrap();
            let live: Vec<_> =
                slots.iter().filter(|s| !s.retired.load(Ordering::Acquire)).collect();
            let stragglers = live
                .iter()
                .filter(|s| {
                    let e = s.state.load(Ordering::SeqCst);
                    e != QUIESCENT && e + 2 <= global
                })
                .count();
            (live.len(), stragglers)
        };
        let deferred = shared.deferred_total.load(Ordering::Relaxed);
        let freed = shared.freed_total.load(Ordering::Relaxed);
        EpochStats {
            epoch: global,
            advances: shared.advances.load(Ordering::Relaxed),
            advance_blocked: shared.advance_blocked.load(Ordering::Relaxed),
            deferred,
            freed,
            pending: deferred - freed,
            threads,
            registrations: shared.registrations.load(Ordering::Relaxed),
            stragglers,
        }
    }

    /// Drain **all** garbage unconditionally. Only safe when the caller
    /// can prove no thread holds references (e.g. single-threaded
    /// shutdown); used by `Drop` plumbing in the engines and by tests.
    pub fn drain_all(&self) -> usize {
        let bags: Vec<Bag> = self.shared.garbage.lock().unwrap().drain(..).collect();
        let mut freed = 0;
        for bag in bags {
            freed += bag.items.len();
            for item in bag.items {
                item();
            }
        }
        self.shared.freed_total.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }
}

/// A thread's registration with an [`EpochManager`].
///
/// Not `Sync`: exactly one thread drives a handle. It *is* `Send` so a
/// worker pool can move registrations between threads at rest.
pub struct EpochHandle {
    shared: Arc<Shared>,
    slot: Arc<Slot>,
    pin_depth: Cell<u32>,
    pin_epoch: Cell<u64>,
    /// Locally buffered deferred items (flushed on unpin / quiesce).
    local: Cell<Vec<(u64, Deferred)>>,
}

impl EpochHandle {
    /// Activate: announce that this thread may hold references to managed
    /// resources. Re-entrant — nested pins reuse the outer epoch.
    #[inline]
    pub fn pin(&self) -> Guard<'_> {
        let depth = self.pin_depth.get();
        if depth == 0 {
            let shared = &*self.shared;
            // Publish our epoch, then re-check the global didn't move
            // underneath us so we never linger unnoticed in a stale epoch.
            loop {
                let e = shared.global.load(Ordering::SeqCst);
                self.slot.state.store(e, Ordering::SeqCst);
                if shared.global.load(Ordering::SeqCst) == e {
                    self.pin_epoch.set(e);
                    break;
                }
            }
        }
        self.pin_depth.set(depth + 1);
        Guard { handle: self }
    }

    /// The epoch of the current pin (meaningful only while pinned).
    #[inline]
    pub fn pinned_epoch(&self) -> u64 {
        self.pin_epoch.get()
    }

    /// True if this thread currently holds at least one guard.
    #[inline]
    pub fn is_pinned(&self) -> bool {
        self.pin_depth.get() > 0
    }

    /// Conditional quiescent point (§3.4 characteristic 2).
    ///
    /// If the thread is unpinned this is a no-op. If pinned and the global
    /// epoch has not moved, it is a single shared read. Only when the
    /// epoch advanced does it refresh the slot, migrating the thread into
    /// the open epoch so it is not mistaken for a straggler.
    #[inline]
    pub fn quiesce(&self) {
        if self.pin_depth.get() == 0 {
            return;
        }
        let global = self.shared.global.load(Ordering::SeqCst);
        if global != self.pin_epoch.get() {
            // NOTE: refreshing mid-pin is only legal because callers place
            // quiesce() at points where they hold no epoch-protected
            // references (transaction boundaries). The guard API cannot
            // check that; it is the caller's contract, as in the paper.
            self.slot.state.store(global, Ordering::SeqCst);
            self.pin_epoch.set(global);
        }
    }

    fn defer_raw(&self, f: Deferred) {
        self.shared.deferred_total.fetch_add(1, Ordering::Relaxed);
        let epoch = if self.pin_depth.get() > 0 {
            self.pin_epoch.get()
        } else {
            self.shared.global.load(Ordering::SeqCst)
        };
        let mut local = self.local.take();
        local.push((epoch, f));
        if local.len() >= LOCAL_BAG_FLUSH {
            self.flush_local(local);
        } else {
            self.local.set(local);
        }
    }

    /// Move `local`'s items to the shared queue and keep its (emptied)
    /// buffer for the next defers, so a steady deferrer allocates one
    /// bag per flush and no buffer.
    fn flush_local(&self, mut local: Vec<(u64, Deferred)>) {
        if !local.is_empty() {
            let mut garbage = self.shared.garbage.lock().unwrap();
            let n = local.len();
            for (i, (epoch, item)) in local.drain(..).enumerate() {
                // Keep the queue sorted by epoch (it naturally is, since
                // epochs are monotonic; out-of-order items from long-pinned
                // threads fold into the back bag of the same epoch or a new
                // one, sized for the rest of the flush).
                match garbage.back_mut() {
                    Some(bag) if bag.epoch >= epoch => bag.items.push(item),
                    _ => {
                        let mut items = Vec::with_capacity(n - i);
                        items.push(item);
                        garbage.push_back(Bag { epoch, items });
                    }
                }
            }
        }
        self.local.set(local);
    }

    fn unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0);
        self.pin_depth.set(depth - 1);
        if depth == 1 {
            self.slot.state.store(QUIESCENT, Ordering::SeqCst);
            self.flush_local(self.local.take());
        }
    }
}

impl Drop for EpochHandle {
    fn drop(&mut self) {
        debug_assert_eq!(self.pin_depth.get(), 0, "EpochHandle dropped while pinned");
        self.slot.state.store(QUIESCENT, Ordering::SeqCst);
        self.flush_local(self.local.take());
        self.slot.retired.store(true, Ordering::Release);
    }
}

/// RAII activation token. While any guard lives, the owning thread is
/// "active": resources it can reach will not be reclaimed.
pub struct Guard<'a> {
    handle: &'a EpochHandle,
}

impl Guard<'_> {
    /// Defer `f` until every thread active now has quiesced.
    ///
    /// The caller must already have made the resource unreachable to new
    /// arrivals (phase one of RCU reclamation).
    #[inline]
    pub fn defer(&self, f: impl FnOnce() + Send + 'static) {
        self.handle.defer_raw(Box::new(f));
    }

    /// Defer dropping a heap object reachable only through `ptr`.
    ///
    /// # Safety
    /// `ptr` must come from `Box::into_raw`, be unlinked from all shared
    /// structures, and not be freed by anyone else.
    #[inline]
    pub unsafe fn defer_drop<T: Send + 'static>(&self, ptr: *mut T) {
        let ptr = SendPtr(ptr);
        self.handle.defer_raw(Box::new(move || {
            // Bind the whole wrapper so edition-2021 closure capture takes
            // the `Send` wrapper, not the raw pointer field.
            let wrapper = ptr;
            unsafe { drop(Box::from_raw(wrapper.0)) }
        }));
    }

    /// The epoch this guard is pinned in.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.handle.pinned_epoch()
    }
}

impl Drop for Guard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.handle.unpin();
    }
}

/// Wrapper making a raw pointer `Send` for deferred destruction. Sound
/// because the deferred closure is the sole owner by the defer contract.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
