//! TPC-C-hybrid: TPC-C plus the TPC-CH-Q2\* read-mostly transaction
//! (paper §4.2, Figs. 2, 5, 12, Table 1).
//!
//! Q2\* is a modified TPC-CH Query 2: it picks a random region, scans a
//! configurable fraction of the Supplier table, and for each supplier in
//! the region reads that supplier's stock items (via the TPC-CH
//! `(s_w_id · s_i_id) mod 10 000` association), updating the ones whose
//! quantity is below a threshold. Its access pattern is determined by
//! supplier id, not by the warehouse partitioning field, so it is often
//! cross-partition and conflicts frequently with NewOrder in the Stock
//! table — exactly the heterogeneous mix the paper studies.
//!
//! Mix: 40% NewOrder, 38% Payment, 10% Q2\*, 4% each OrderStatus,
//! StockLevel, Delivery.

use ermia_common::{AbortReason, KeyWriter};

use crate::driver::Workload;
use crate::engine::{Engine, EngineTxn, TxnProfile};
use crate::rng::uniform;
use crate::tpcc::schema::{k_stock, Stock, Supplier};
use crate::tpcc::{
    delivery, neworder, orderstatus, payment, stocklevel, TpccConfig, TpccState, TpccTables,
    TpccWorkload,
};

/// Restock threshold: stock rows below this quantity get updated.
const Q2_THRESHOLD: i64 = 25;
/// Restock amount.
const Q2_RESTOCK: i64 = 50;

/// Transaction type indexes for the hybrid mix.
pub const H_NEWORDER: usize = 0;
pub const H_PAYMENT: usize = 1;
pub const H_Q2: usize = 2;
pub const H_ORDERSTATUS: usize = 3;
pub const H_DELIVERY: usize = 4;
pub const H_STOCKLEVEL: usize = 5;

pub struct TpccHybridWorkload {
    pub base: TpccWorkload,
    /// Fraction of the Supplier table Q2\* scans, in percent (1..=100) —
    /// the x-axis of Fig. 5.
    pub q2_size_pct: u32,
}

impl TpccHybridWorkload {
    pub fn new(cfg: TpccConfig, q2_size_pct: u32) -> TpccHybridWorkload {
        assert!((1..=100).contains(&q2_size_pct));
        TpccHybridWorkload { base: TpccWorkload::new(cfg), q2_size_pct }
    }
}

/// The Q2\* transaction body.
pub fn q2star<T: EngineTxn>(
    tx: &mut T,
    t: &TpccTables,
    cfg: &TpccConfig,
    ws: &mut TpccState,
    size_pct: u32,
) -> Result<(), AbortReason> {
    let suppliers = cfg.suppliers;
    let span = (suppliers as u64 * size_pct as u64 / 100).max(1) as u32;
    let start = if span >= suppliers {
        0
    } else {
        uniform(&mut ws.rng, 0, (suppliers - span) as u64) as u32
    };
    let region = uniform(&mut ws.rng, 0, 4) as u32;

    // Scan the supplier fraction; remember suppliers in the region.
    let lo = ws.kw.reset().u32(start).to_vec();
    let hi = ws.kw.reset().u32(start + span - 1).to_vec();
    let mut in_region: Vec<u32> = Vec::new();
    tx.scan(t.supplier_pk, &lo, &hi, None, &mut |k, v| {
        let su = u32::from_be_bytes(k[0..4].try_into().expect("short supplier key"));
        if Supplier::decode(v).region == region {
            in_region.push(su);
        }
        true
    })?;

    // For each matching supplier, read its stock items; restock the ones
    // below the threshold.
    let mut kw = KeyWriter::new();
    for su in in_region {
        let lo = kw.reset().u32(su).to_vec();
        let hi = kw.reset().u32(su).u32(u32::MAX).u32(u32::MAX).to_vec();
        let mut low: Vec<(u32, u32, Stock)> = Vec::new();
        tx.scan(t.stock_supplier, &lo, &hi, None, &mut |k, v| {
            let stock = Stock::decode(v);
            if stock.quantity < Q2_THRESHOLD {
                let w = u32::from_be_bytes(k[4..8].try_into().expect("short key"));
                let i = u32::from_be_bytes(k[8..12].try_into().expect("short key"));
                low.push((w, i, stock));
            }
            true
        })?;
        for (w, i, mut stock) in low {
            stock.quantity += Q2_RESTOCK;
            tx.update(t.stock, k_stock(&mut ws.kw, w, i), &stock.encode())?;
        }
    }
    Ok(())
}

impl<E: Engine> Workload<E> for TpccHybridWorkload {
    type WorkerState = TpccState;

    fn types(&self) -> Vec<&'static str> {
        vec!["NewOrder", "Payment", "Q2*", "OrderStatus", "Delivery", "StockLevel"]
    }

    fn load(&self, engine: &E) {
        self.base.load_data(engine);
    }

    fn worker_state(&self, worker_id: usize, nthreads: usize) -> TpccState {
        <TpccWorkload as Workload<E>>::worker_state(&self.base, worker_id, nthreads)
    }

    fn next_type(&self, ws: &mut TpccState) -> usize {
        // 40 / 38 / 10 / 4 / 4 / 4 (§4.2).
        match uniform(&mut ws.rng, 1, 100) {
            1..=40 => H_NEWORDER,
            41..=78 => H_PAYMENT,
            79..=88 => H_Q2,
            89..=92 => H_ORDERSTATUS,
            93..=96 => H_DELIVERY,
            _ => H_STOCKLEVEL,
        }
    }

    fn execute(
        &self,
        worker: &mut E::Worker,
        ws: &mut TpccState,
        ty: usize,
    ) -> Result<(), AbortReason> {
        use crate::engine::EngineWorker;
        let t = *self.base.tables();
        let cfg = &self.base.cfg;
        let w = self.base.pick_warehouse(ws);
        let hint = match ty {
            H_ORDERSTATUS | H_STOCKLEVEL => TxnProfile::ReadOnly,
            // Q2* updates stock: it cannot use read-only snapshots.
            _ => TxnProfile::ReadWrite,
        };
        let mut tx = worker.begin(hint);
        let body = match ty {
            H_NEWORDER => neworder(&mut tx, &t, cfg, ws, w),
            H_PAYMENT => payment(&mut tx, &t, cfg, ws, w),
            H_Q2 => q2star(&mut tx, &t, cfg, ws, self.q2_size_pct),
            H_ORDERSTATUS => orderstatus(&mut tx, &t, cfg, ws, w),
            H_DELIVERY => delivery(&mut tx, &t, cfg, ws, w),
            H_STOCKLEVEL => stocklevel(&mut tx, &t, cfg, ws, w),
            _ => unreachable!("unknown txn type"),
        };
        match body {
            Ok(()) => tx.commit(),
            Err(r) => {
                tx.abort();
                Err(r)
            }
        }
    }
}
