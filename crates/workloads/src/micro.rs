//! The §4.2 microbenchmark (Fig. 1).
//!
//! "A single transaction that randomly picks a subset of the Stock table
//! to read and a smaller fraction of it to update. The purpose is to
//! create read-write conflicts." Sweeping the write/read ratio from
//! 10⁻³ to 10⁻¹ at read-set sizes 1K and 10K reproduces Fig. 1.

use std::sync::OnceLock;

use ermia_common::rng::SplitMix64;
use ermia_common::{AbortReason, KeyWriter, TableId};

use crate::driver::Workload;
use crate::engine::{Engine, EngineTxn, EngineWorker, TxnProfile};
use crate::rng::worker_rng;

/// Row payload size (a TPC-C stock row is ~300 B).
const ROW_BYTES: usize = 300;

/// Configuration for one microbenchmark point.
#[derive(Clone, Debug)]
pub struct MicroConfig {
    /// Table cardinality (the paper uses the TPC-C Stock table: 100k ×
    /// warehouses).
    pub rows: u64,
    /// Records read per transaction (1 000 / 10 000 in Fig. 1).
    pub reads: usize,
    /// Fraction of read records that are also updated (x-axis).
    pub write_ratio: f64,
}

impl Default for MicroConfig {
    fn default() -> MicroConfig {
        MicroConfig { rows: 100_000, reads: 1_000, write_ratio: 0.01 }
    }
}

/// The microbenchmark workload.
pub struct MicroWorkload {
    pub cfg: MicroConfig,
    table: OnceLock<TableId>,
}

impl MicroWorkload {
    pub fn new(cfg: MicroConfig) -> MicroWorkload {
        MicroWorkload { cfg, table: OnceLock::new() }
    }

    fn table(&self) -> TableId {
        *self.table.get().expect("load() must run first")
    }
}

pub struct MicroState {
    rng: SplitMix64,
    key: KeyWriter,
}

impl<E: Engine> Workload<E> for MicroWorkload {
    type WorkerState = MicroState;

    fn types(&self) -> Vec<&'static str> {
        vec!["ReadUpdate"]
    }

    fn load(&self, engine: &E) {
        let t = engine.create_table("micro.stock");
        let _ = self.table.set(t);
        let mut worker = engine.register_worker();
        let mut rng = worker_rng(0xFEED);
        let payload: Vec<u8> = (0..ROW_BYTES).map(|i| i as u8).collect();
        let mut key = KeyWriter::new();
        // Batch the load, 1000 rows per transaction.
        let mut row = 0;
        while row < self.cfg.rows {
            let mut tx = worker.begin(TxnProfile::ReadWrite);
            let hi = (row + 1_000).min(self.cfg.rows);
            for r in row..hi {
                key.reset().u64(r);
                let mut value = payload.clone();
                value[0..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                tx.insert(t, key.as_bytes(), &value).expect("load insert");
            }
            tx.commit().expect("load commit");
            row = hi;
        }
    }

    fn worker_state(&self, worker_id: usize, _nthreads: usize) -> MicroState {
        MicroState { rng: worker_rng(worker_id as u64), key: KeyWriter::new() }
    }

    fn next_type(&self, _ws: &mut MicroState) -> usize {
        0
    }

    fn execute(
        &self,
        worker: &mut E::Worker,
        ws: &mut MicroState,
        _ty: usize,
    ) -> Result<(), AbortReason> {
        let t = self.table();
        let mut tx = worker.begin(TxnProfile::ReadWrite);
        for _ in 0..self.cfg.reads {
            let row = ws.rng.below(self.cfg.rows);
            ws.key.reset().u64(row);
            let mut snapshot: u64 = 0;
            let found = tx.read(t, ws.key.as_bytes(), &mut |v| {
                snapshot = u64::from_le_bytes(v[0..8].try_into().unwrap());
            });
            match found {
                Ok(true) => {}
                Ok(false) => continue,
                Err(r) => {
                    tx.abort();
                    return Err(r);
                }
            }
            if ws.rng.chance(self.cfg.write_ratio) {
                let mut value = vec![0u8; ROW_BYTES];
                value[0..8].copy_from_slice(&snapshot.wrapping_add(1).to_le_bytes());
                if let Err(r) = tx.update(t, ws.key.as_bytes(), &value) {
                    tx.abort();
                    return Err(r);
                }
            }
        }
        tx.commit()
    }
}
