//! Bounded worker checkout pool.
//!
//! A network front-end has many more connections than it wants engine
//! workers: each [`Worker`] owns an epoch registration, scratch arenas,
//! and a version cache, so the right shape is a small pool sized near the
//! core count that sessions *check out* for the duration of one
//! transaction and return at commit/abort. The pool is strictly bounded —
//! when every worker is out, checkout fails and the caller retries on its
//! own clock or sheds load instead of queueing unboundedly.
//!
//! Workers are created lazily up to capacity and live for the pool's
//! lifetime; [`EpochHandle`](ermia_epoch::EpochHandle) is `Send`, so a
//! worker parked at a transaction boundary can resume on any thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::database::Database;
use crate::shard::{ShardedDb, ShardedWorker};
use crate::worker::Worker;

/// An engine a [`WorkerPool`] can draw workers from: a [`Database`]
/// (one [`Worker`]) or a [`ShardedDb`] (a [`ShardedWorker`] — a worker on
/// *every* shard, so the pool's capacity bounds total engine concurrency
/// however sessions spread across shards).
pub trait RegisterWorker: Clone {
    type Worker;

    fn register_worker(&self) -> Self::Worker;
}

impl RegisterWorker for Database {
    type Worker = Worker;

    fn register_worker(&self) -> Worker {
        Database::register_worker(self)
    }
}

impl RegisterWorker for ShardedDb {
    type Worker = ShardedWorker;

    fn register_worker(&self) -> ShardedWorker {
        ShardedDb::register_worker(self)
    }
}

struct PoolInner<D: RegisterWorker> {
    db: D,
    capacity: usize,
    idle: Mutex<Vec<D::Worker>>,
    /// Workers created so far (monotonic, ≤ capacity).
    created: AtomicUsize,
    /// Workers currently checked out.
    outstanding: AtomicUsize,
}

/// A bounded pool of engine workers shared by many sessions.
///
/// Cloning shares the pool.
#[derive(Clone)]
pub struct WorkerPool<D: RegisterWorker> {
    inner: Arc<PoolInner<D>>,
}

impl<D: RegisterWorker> WorkerPool<D> {
    /// Create a pool of at most `capacity` workers on `db`. Workers are
    /// created on first use, not up front.
    pub fn new(db: &D, capacity: usize) -> WorkerPool<D> {
        assert!(capacity > 0, "worker pool needs capacity >= 1");
        WorkerPool {
            inner: Arc::new(PoolInner {
                db: db.clone(),
                capacity,
                idle: Mutex::new(Vec::with_capacity(capacity)),
                created: AtomicUsize::new(0),
                outstanding: AtomicUsize::new(0),
            }),
        }
    }

    /// Check out a worker if one is idle or capacity remains; `None` when
    /// the pool is exhausted. Never blocks.
    pub fn try_checkout(&self) -> Option<PooledWorker<D>> {
        let inner = &self.inner;
        let mut idle = inner.idle.lock().unwrap();
        if let Some(w) = idle.pop() {
            drop(idle);
            inner.outstanding.fetch_add(1, Ordering::Relaxed);
            return Some(PooledWorker { worker: Some(w), pool: Arc::clone(inner) });
        }
        // No idle worker: create one if we still may. `created` is only
        // bumped under the idle lock, so the capacity check cannot race.
        if inner.created.load(Ordering::Relaxed) < inner.capacity {
            inner.created.fetch_add(1, Ordering::Relaxed);
            drop(idle);
            let w = inner.db.register_worker();
            inner.outstanding.fetch_add(1, Ordering::Relaxed);
            return Some(PooledWorker { worker: Some(w), pool: Arc::clone(inner) });
        }
        None
    }

    /// Pool capacity (the bound).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Workers currently checked out.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Relaxed)
    }

    /// Workers parked in the pool right now.
    pub fn idle(&self) -> usize {
        self.inner.idle.lock().unwrap().len()
    }

    /// Workers created so far (≤ capacity).
    pub fn created(&self) -> usize {
        self.inner.created.load(Ordering::Relaxed)
    }
}

/// A checked-out worker; derefs to it and returns it to the pool on drop
/// (including on unwind, so a panicking session cannot leak one).
pub struct PooledWorker<D: RegisterWorker> {
    worker: Option<D::Worker>,
    pool: Arc<PoolInner<D>>,
}

impl<D: RegisterWorker> std::ops::Deref for PooledWorker<D> {
    type Target = D::Worker;

    fn deref(&self) -> &D::Worker {
        self.worker.as_ref().expect("present until drop")
    }
}

impl<D: RegisterWorker> std::ops::DerefMut for PooledWorker<D> {
    fn deref_mut(&mut self) -> &mut D::Worker {
        self.worker.as_mut().expect("present until drop")
    }
}

impl<D: RegisterWorker> Drop for PooledWorker<D> {
    fn drop(&mut self) {
        let w = self.worker.take().expect("returned exactly once");
        self.pool.idle.lock().unwrap().push(w);
        self.pool.outstanding.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DbConfig, IsolationLevel};

    /// One body for both engines a pool is instantiated over.
    macro_rules! pool_contract {
        ($name:ident, $open:expr) => {
            #[test]
            fn $name() {
                let db = $open;
                let t = db.create_table("kv");

                // Checkout is bounded, and a drop returns the worker.
                let pool = WorkerPool::new(&db, 2);
                let mut a = pool.try_checkout().expect("first");
                let b = pool.try_checkout().expect("second");
                assert!(pool.try_checkout().is_none(), "capacity 2 must bound checkouts");
                assert_eq!(pool.outstanding(), 2);
                let mut tx = a.begin(IsolationLevel::Snapshot);
                tx.insert(t, b"k", b"v").unwrap();
                tx.commit().unwrap();
                drop(a);
                assert_eq!(pool.outstanding(), 1);
                assert_eq!(pool.idle(), 1);
                let c = pool.try_checkout().expect("recycled");
                drop(b);
                drop(c);
                assert_eq!(pool.idle(), 2);
                assert_eq!(pool.created(), 2);
                assert_eq!(pool.outstanding(), 0);

                // The same worker serves the next checkout, possibly from
                // another thread.
                let pool = WorkerPool::new(&db, 1);
                drop(pool.try_checkout().unwrap());
                let pool2 = pool.clone();
                std::thread::spawn(move || {
                    let mut w = pool2.try_checkout().unwrap();
                    let mut tx = w.begin(IsolationLevel::Snapshot);
                    let v = tx.read(t, b"k", |v| v.to_vec()).unwrap();
                    assert_eq!(v.as_deref(), Some(&b"v"[..]));
                    tx.commit().unwrap();
                })
                .join()
                .unwrap();
                assert_eq!(pool.created(), 1);
            }
        };
    }

    pool_contract!(pool_contract_on_one_database, Database::open(DbConfig::in_memory()).unwrap());
    pool_contract!(
        pool_contract_on_a_sharded_engine,
        ShardedDb::open(DbConfig::in_memory(), 2).unwrap()
    );
}
