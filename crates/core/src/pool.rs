//! A bounded worker checkout pool. Its only user is the ledger's
//! `core.pool_checkout_ns` probe: the server runs an interactive
//! transaction as a value on its event loop's own worker, and nothing in
//! the engine checks workers out.

use std::sync::Mutex;

use crate::database::Database;
use crate::worker::Worker;

/// At most `capacity` workers of one database, created on first
/// checkout and returned when their [`PooledWorker`] drops.
pub struct WorkerPool {
    db: Database,
    /// Workers not created yet, and the ones idle in the pool.
    slots: Mutex<(usize, Vec<Worker>)>,
}

impl WorkerPool {
    /// A pool of at most `capacity` workers on `db`.
    pub fn new(db: &Database, capacity: usize) -> WorkerPool {
        assert!(capacity > 0, "worker pool needs capacity >= 1");
        WorkerPool { db: db.clone(), slots: Mutex::new((capacity, Vec::with_capacity(capacity))) }
    }

    /// Check out a worker if one is idle or capacity remains; `None` when
    /// the pool is exhausted. Never blocks.
    pub fn try_checkout(&self) -> Option<PooledWorker<'_>> {
        let mut slots = self.slots.lock().expect("no pool user panics holding the lock");
        let worker = match slots.1.pop() {
            Some(w) => w,
            None if slots.0 > 0 => {
                slots.0 -= 1;
                drop(slots);
                self.db.register_worker()
            }
            None => return None,
        };
        Some(PooledWorker { worker: Some(worker), pool: self })
    }
}

/// A checked-out worker; derefs to it and returns it to the pool on drop.
pub struct PooledWorker<'p> {
    worker: Option<Worker>,
    pool: &'p WorkerPool,
}

impl std::ops::Deref for PooledWorker<'_> {
    type Target = Worker;

    fn deref(&self) -> &Worker {
        self.worker.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for PooledWorker<'_> {
    fn deref_mut(&mut self) -> &mut Worker {
        self.worker.as_mut().expect("present until drop")
    }
}

impl Drop for PooledWorker<'_> {
    fn drop(&mut self) {
        let w = self.worker.take().expect("returned exactly once");
        if let Ok(mut slots) = self.pool.slots.lock() {
            slots.1.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DbConfig, IsolationLevel};

    #[test]
    fn checkout_is_bounded_and_a_drop_returns_the_worker() {
        let db = Database::open(DbConfig::in_memory()).unwrap();
        let t = db.create_table("kv");
        let pool = WorkerPool::new(&db, 2);
        let mut a = pool.try_checkout().expect("first");
        let b = pool.try_checkout().expect("second");
        assert!(pool.try_checkout().is_none(), "capacity 2 must bound checkouts");
        let mut tx = a.begin(IsolationLevel::Snapshot);
        tx.insert(t, b"k", b"v").unwrap();
        tx.commit().unwrap();
        drop(a);
        let mut c = pool.try_checkout().expect("recycled");
        let mut tx = c.begin(IsolationLevel::Snapshot);
        assert_eq!(tx.read(t, b"k", |v| v.to_vec()).unwrap().as_deref(), Some(&b"v"[..]));
        tx.commit().unwrap();
        drop((b, c));
        // (workers not created yet, workers idle)
        let slots = |pool: &WorkerPool| {
            let slots = pool.slots.lock().unwrap();
            (slots.0, slots.1.len())
        };
        assert_eq!(slots(&pool), (0, 2), "two created, both idle");

        // The same worker serves the next checkout, from another thread.
        let pool = WorkerPool::new(&db, 1);
        drop(pool.try_checkout().unwrap());
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = pool.try_checkout().unwrap();
                let mut tx = w.begin(IsolationLevel::Snapshot);
                let v = tx.read(t, b"k", |v| v.to_vec()).unwrap();
                assert_eq!(v.as_deref(), Some(&b"v"[..]));
                tx.commit().unwrap();
            });
        });
        assert_eq!(slots(&pool), (0, 1), "one worker created, and reused");
    }
}
