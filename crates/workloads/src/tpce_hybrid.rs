//! TPC-E-hybrid: TPC-E plus the AssetEval read-mostly transaction
//! (paper §4.2, Figs. 6, 9; Table 1).
//!
//! AssetEval evaluates the aggregate assets of a contiguous group of
//! customer accounts — joining HoldingSummary and LastTrade per account —
//! and inserts the result into the AssetHistory table. The vast majority
//! of its contention is with TradeResult (HoldingSummary writes) and
//! MarketFeed (LastTrade writes). The account-group size, as a
//! percentage of the CustomerAccount table, scales its footprint (the
//! Fig. 6 x-axis).
//!
//! Revised mix (§4.2): BrokerVolume 4.9%, CustomerPosition 8%,
//! MarketFeed 1%, MarketWatch 13%, SecurityDetail 14%, TradeLookup 8%,
//! TradeOrder 10.1%, TradeResult 10%, TradeStatus 9%, TradeUpdate 2%,
//! AssetEval 20%.

use ermia_common::AbortReason;

use crate::driver::Workload;
use crate::engine::{Engine, EngineTxn, EngineWorker, TxnProfile};
use crate::rng::uniform;
use crate::tpce::{
    dispatch, k_asset_history, position_of_account, TpceConfig, TpceState, TpceTables,
    TpceWorkload, MARKET_FEED, TRADE_ORDER, TRADE_RESULT, TRADE_UPDATE,
};

/// Type index of AssetEval in the hybrid mix (base types keep 0..=9).
pub const ASSET_EVAL: usize = 10;

pub struct TpceHybridWorkload {
    pub base: TpceWorkload,
    /// Account-group size as a percentage of the CustomerAccount table.
    pub asset_eval_pct: u32,
}

impl TpceHybridWorkload {
    pub fn new(cfg: TpceConfig, asset_eval_pct: u32) -> TpceHybridWorkload {
        assert!((1..=100).contains(&asset_eval_pct));
        TpceHybridWorkload { base: TpceWorkload::new(cfg), asset_eval_pct }
    }
}

/// The AssetEval transaction body.
pub fn asset_eval<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
    size_pct: u32,
) -> Result<(), AbortReason> {
    let total = cfg.total_accounts();
    let span = (total * size_pct as u64 / 100).max(1);
    let start = if span >= total { 0 } else { uniform(&mut ws.rng, 0, total - span) };

    let mut group_total = 0.0;
    for ca in start..start + span {
        group_total += position_of_account(tx, t, ws, ca)?;
    }
    // The single write: record the valuation.
    ws.seq += 1;
    tx.insert(
        t.asset_history,
        k_asset_history(&mut ws.kw, start, ws.seq),
        &group_total.to_le_bytes(),
    )?;
    Ok(())
}

impl<E: Engine> Workload<E> for TpceHybridWorkload {
    type WorkerState = TpceState;

    fn types(&self) -> Vec<&'static str> {
        vec![
            "BrokerVolume",
            "CustomerPosition",
            "MarketFeed",
            "MarketWatch",
            "SecurityDetail",
            "TradeLookup",
            "TradeOrder",
            "TradeResult",
            "TradeStatus",
            "TradeUpdate",
            "AssetEval",
        ]
    }

    fn load(&self, engine: &E) {
        self.base.load_data(engine);
    }

    fn worker_state(&self, worker_id: usize, _nthreads: usize) -> TpceState {
        self.base.make_state(worker_id)
    }

    fn next_type(&self, ws: &mut TpceState) -> usize {
        // Per-mille: 49 / 80 / 10 / 130 / 140 / 80 / 101 / 100 / 90 / 20
        // / 200 (§4.2 revised mix).
        match uniform(&mut ws.rng, 1, 1000) {
            1..=49 => 0,     // BrokerVolume
            50..=129 => 1,   // CustomerPosition
            130..=139 => 2,  // MarketFeed
            140..=269 => 3,  // MarketWatch
            270..=409 => 4,  // SecurityDetail
            410..=489 => 5,  // TradeLookup
            490..=590 => 6,  // TradeOrder
            591..=690 => 7,  // TradeResult
            691..=780 => 8,  // TradeStatus
            781..=800 => 9,  // TradeUpdate
            _ => ASSET_EVAL, // 20%
        }
    }

    fn execute(
        &self,
        worker: &mut E::Worker,
        ws: &mut TpceState,
        ty: usize,
    ) -> Result<(), AbortReason> {
        let t = *self.base.tables();
        let cfg = &self.base.cfg;
        let hint = match ty {
            // AssetEval inserts into AssetHistory: read-mostly, but a
            // writer — snapshots cannot save it under OCC.
            MARKET_FEED | TRADE_ORDER | TRADE_RESULT | TRADE_UPDATE | ASSET_EVAL => {
                TxnProfile::ReadWrite
            }
            _ => TxnProfile::ReadOnly,
        };
        let mut tx = worker.begin(hint);
        let body = if ty == ASSET_EVAL {
            asset_eval(&mut tx, &t, cfg, ws, self.asset_eval_pct)
        } else {
            dispatch(&mut tx, &t, cfg, ws, ty)
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
