//! TPC-E, reduced fidelity (paper §4.2, Fig. 7).
//!
//! TPC-E models brokerage-firm activity with a higher read-to-write
//! ratio than TPC-C (~10:1 vs ~2:1). This reproduction keeps the core
//! tables and all ten transaction types of the paper's mix, with
//! simplified bodies whose read/write *footprints* follow the spec:
//! the evaluation's behaviour is driven by the contention pattern
//! (TradeResult and MarketFeed writing HoldingSummary / LastTrade under
//! readers), which is modeled directly. See DESIGN.md for the
//! substitution rationale.

use std::sync::OnceLock;

use ermia_common::rng::SplitMix64;
use ermia_common::{AbortReason, IndexId, KeyWriter, TableId};

use crate::driver::Workload;
use crate::engine::{Engine, EngineTxn, EngineWorker, TxnProfile};
use crate::rng::{astring, uniform, worker_rng};
use crate::tpcc::schema::{Dec, Enc};

// --- records ------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
pub struct CustomerRow {
    pub name: String,
    pub tier: u8,
}

impl CustomerRow {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.name).u8(self.tier).filler(60);
        e.buf
    }
    pub fn decode(b: &[u8]) -> CustomerRow {
        let mut d = Dec::new(b);
        CustomerRow { name: d.str(), tier: d.u8() }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct AccountRow {
    pub c_id: u64,
    pub b_id: u64,
    pub balance: f64,
}

impl AccountRow {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.c_id).u64(self.b_id).f64(self.balance).filler(40);
        e.buf
    }
    pub fn decode(b: &[u8]) -> AccountRow {
        let mut d = Dec::new(b);
        AccountRow { c_id: d.u64(), b_id: d.u64(), balance: d.f64() }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct BrokerRow {
    pub name: String,
    pub num_trades: u64,
    pub commission: f64,
}

impl BrokerRow {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.name).u64(self.num_trades).f64(self.commission).filler(30);
        e.buf
    }
    pub fn decode(b: &[u8]) -> BrokerRow {
        let mut d = Dec::new(b);
        BrokerRow { name: d.str(), num_trades: d.u64(), commission: d.f64() }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct SecurityRow {
    pub symbol: String,
    pub name: String,
}

impl SecurityRow {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.symbol).str(&self.name).filler(80);
        e.buf
    }
    pub fn decode(b: &[u8]) -> SecurityRow {
        let mut d = Dec::new(b);
        SecurityRow { symbol: d.str(), name: d.str() }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct LastTradeRow {
    pub price: f64,
    pub volume: u64,
}

impl LastTradeRow {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.f64(self.price).u64(self.volume);
        e.buf
    }
    pub fn decode(b: &[u8]) -> LastTradeRow {
        let mut d = Dec::new(b);
        LastTradeRow { price: d.f64(), volume: d.u64() }
    }
}

pub const TRADE_PENDING: u8 = 0;
pub const TRADE_COMPLETED: u8 = 1;

#[derive(Clone, Debug, PartialEq)]
pub struct TradeRow {
    pub ca_id: u64,
    pub s_id: u32,
    pub qty: u32,
    pub price: f64,
    pub is_buy: bool,
    pub status: u8,
    pub note: String,
}

impl TradeRow {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.ca_id)
            .u32(self.s_id)
            .u32(self.qty)
            .f64(self.price)
            .u8(self.is_buy as u8)
            .u8(self.status)
            .str(&self.note)
            .filler(60);
        e.buf
    }
    pub fn decode(b: &[u8]) -> TradeRow {
        let mut d = Dec::new(b);
        TradeRow {
            ca_id: d.u64(),
            s_id: d.u32(),
            qty: d.u32(),
            price: d.f64(),
            is_buy: d.u8() != 0,
            status: d.u8(),
            note: d.str(),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct HoldingRow {
    pub qty: i64,
}

impl HoldingRow {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.i64(self.qty);
        e.buf
    }
    pub fn decode(b: &[u8]) -> HoldingRow {
        let mut d = Dec::new(b);
        HoldingRow { qty: d.i64() }
    }
}

// --- keys ---------------------------------------------------------------

pub fn k_u64(k: &mut KeyWriter, id: u64) -> &[u8] {
    k.reset().u64(id).as_bytes()
}

pub fn k_u32(k: &mut KeyWriter, id: u32) -> &[u8] {
    k.reset().u32(id).as_bytes()
}

pub fn k_account_customer(k: &mut KeyWriter, c: u64, ca: u64) -> &[u8] {
    k.reset().u64(c).u64(ca).as_bytes()
}

/// Trade-by-account key with inverted trade id: newest first.
pub fn k_trade_account(k: &mut KeyWriter, ca: u64, t: u64) -> &[u8] {
    k.reset().u64(ca).u64(!t).as_bytes()
}

pub fn k_holding(k: &mut KeyWriter, ca: u64, s: u32) -> &[u8] {
    k.reset().u64(ca).u32(s).as_bytes()
}

pub fn k_trade_history(k: &mut KeyWriter, t: u64, seq: u8) -> &[u8] {
    k.reset().u64(t).u8(seq).as_bytes()
}

pub fn k_asset_history(k: &mut KeyWriter, ca: u64, seq: u64) -> &[u8] {
    k.reset().u64(ca).u64(seq).as_bytes()
}

// --- config / tables ------------------------------------------------------

#[derive(Clone, Debug)]
pub struct TpceConfig {
    pub customers: u64,
    pub accounts_per_customer: u64,
    pub securities: u32,
    /// Initial completed trades per account.
    pub initial_trades_per_account: u64,
    /// Holdings per account.
    pub holdings_per_account: u32,
}

impl TpceConfig {
    /// Paper parameters: 5 000 customers (§4.2).
    pub fn paper() -> TpceConfig {
        TpceConfig {
            customers: 5_000,
            accounts_per_customer: 5,
            securities: 3_425, // 685 per 1 000 customers
            initial_trades_per_account: 8,
            holdings_per_account: 8,
        }
    }

    pub fn small() -> TpceConfig {
        TpceConfig {
            customers: 200,
            accounts_per_customer: 3,
            securities: 137,
            initial_trades_per_account: 4,
            holdings_per_account: 4,
        }
    }

    pub fn total_accounts(&self) -> u64 {
        self.customers * self.accounts_per_customer
    }

    pub fn brokers(&self) -> u64 {
        (self.customers / 100).max(1)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct TpceTables {
    pub customer: TableId,
    pub account: TableId,
    pub account_customer: IndexId,
    pub broker: TableId,
    pub security: TableId,
    pub last_trade: TableId,
    pub trade: TableId,
    pub trade_account: IndexId,
    pub trade_history: TableId,
    pub holding_summary: TableId,
    pub asset_history: TableId,
    pub holding_pk: IndexId,
    pub account_pk: IndexId,
}

impl TpceTables {
    pub fn create<E: Engine>(e: &E) -> TpceTables {
        let customer = e.create_table("tpce.customer");
        let account = e.create_table("tpce.account");
        let broker = e.create_table("tpce.broker");
        let security = e.create_table("tpce.security");
        let last_trade = e.create_table("tpce.last_trade");
        let trade = e.create_table("tpce.trade");
        let trade_history = e.create_table("tpce.trade_history");
        let holding_summary = e.create_table("tpce.holding_summary");
        let asset_history = e.create_table("tpce.asset_history");
        TpceTables {
            customer,
            account,
            account_customer: e.create_secondary_index(account, "tpce.account_customer"),
            broker,
            security,
            last_trade,
            trade,
            trade_account: e.create_secondary_index(trade, "tpce.trade_account"),
            trade_history,
            holding_summary,
            asset_history,
            holding_pk: e.primary_index(holding_summary),
            account_pk: e.primary_index(account),
        }
    }
}

// --- workload -------------------------------------------------------------

pub struct TpceState {
    pub rng: SplitMix64,
    pub kw: KeyWriter,
    pub kw2: KeyWriter,
    /// Worker-unique trade-id / asset-history sequence.
    pub seq: u64,
}

pub const BROKER_VOLUME: usize = 0;
pub const CUSTOMER_POSITION: usize = 1;
pub const MARKET_FEED: usize = 2;
pub const MARKET_WATCH: usize = 3;
pub const SECURITY_DETAIL: usize = 4;
pub const TRADE_LOOKUP: usize = 5;
pub const TRADE_ORDER: usize = 6;
pub const TRADE_RESULT: usize = 7;
pub const TRADE_STATUS: usize = 8;
pub const TRADE_UPDATE: usize = 9;

pub struct TpceWorkload {
    pub cfg: TpceConfig,
    tables: OnceLock<TpceTables>,
}

impl TpceWorkload {
    pub fn new(cfg: TpceConfig) -> TpceWorkload {
        TpceWorkload { cfg, tables: OnceLock::new() }
    }

    pub fn tables(&self) -> &TpceTables {
        self.tables.get().expect("load() must run first")
    }

    pub fn load_data<E: Engine>(&self, engine: &E) -> TpceTables {
        let t = *self.tables.get_or_init(|| TpceTables::create(engine));
        let cfg = &self.cfg;
        let mut w = engine.register_worker();
        let mut rng = worker_rng(0xE7CE);
        let mut kw = KeyWriter::new();
        let mut kw2 = KeyWriter::new();

        crate::tpcc::batch_load(&mut w, cfg.customers, 500, |tx, c| {
            let row = CustomerRow { name: astring(&mut rng, 10, 20), tier: (c % 3 + 1) as u8 };
            tx.insert(t.customer, k_u64(&mut kw, c), &row.encode())?;
            Ok(())
        });
        crate::tpcc::batch_load(&mut w, cfg.brokers(), 500, |tx, b| {
            let row = BrokerRow { name: astring(&mut rng, 10, 20), num_trades: 0, commission: 0.0 };
            tx.insert(t.broker, k_u64(&mut kw, b), &row.encode())?;
            Ok(())
        });
        crate::tpcc::batch_load(&mut w, cfg.securities as u64, 500, |tx, s| {
            let s32 = s as u32;
            let row =
                SecurityRow { symbol: format!("SYM{s32:06}"), name: astring(&mut rng, 20, 40) };
            tx.insert(t.security, k_u32(&mut kw, s32), &row.encode())?;
            let lt =
                LastTradeRow { price: uniform(&mut rng, 2_000, 5_000) as f64 / 100.0, volume: 0 };
            tx.insert(t.last_trade, k_u32(&mut kw, s32), &lt.encode())?;
            Ok(())
        });
        // Accounts, holdings, and an initial trade history.
        let mut t_id: u64 = 1;
        crate::tpcc::batch_load(&mut w, cfg.total_accounts(), 50, |tx, ca| {
            let c_id = ca / cfg.accounts_per_customer;
            let b_id = c_id % cfg.brokers();
            let row = AccountRow { c_id, b_id, balance: 10_000.0 };
            let h = tx.insert(t.account, k_u64(&mut kw, ca), &row.encode())?;
            tx.insert_secondary(t.account_customer, k_account_customer(&mut kw2, c_id, ca), h)?;
            for j in 0..cfg.holdings_per_account {
                // Deterministic spread of securities per account.
                let s =
                    ((ca as u32).wrapping_mul(2_654_435_761).wrapping_add(j * 97)) % cfg.securities;
                let hold = HoldingRow { qty: 100 };
                // Duplicate (ca, s) pairs possible for tiny configs: skip.
                let key = k_holding(&mut kw, ca, s).to_vec();
                let mut exists = false;
                tx.read(t.holding_summary, &key, &mut |_| exists = true)?;
                if !exists {
                    tx.insert(t.holding_summary, &key, &hold.encode())?;
                }
            }
            for _ in 0..cfg.initial_trades_per_account {
                let s = uniform(&mut rng, 0, cfg.securities as u64 - 1) as u32;
                let trade = TradeRow {
                    ca_id: ca,
                    s_id: s,
                    qty: uniform(&mut rng, 100, 800) as u32,
                    price: uniform(&mut rng, 2_000, 5_000) as f64 / 100.0,
                    is_buy: rng.chance(0.5),
                    status: TRADE_COMPLETED,
                    note: astring(&mut rng, 10, 30),
                };
                let h = tx.insert(t.trade, k_u64(&mut kw, t_id), &trade.encode())?;
                tx.insert_secondary(t.trade_account, k_trade_account(&mut kw2, ca, t_id), h)?;
                tx.insert(t.trade_history, k_trade_history(&mut kw, t_id, 1), &[TRADE_COMPLETED])?;
                t_id += 1;
            }
            Ok(())
        });
        t
    }

    pub fn make_state(&self, worker_id: usize) -> TpceState {
        TpceState {
            rng: worker_rng(0xE70 + worker_id as u64),
            kw: KeyWriter::new(),
            kw2: KeyWriter::new(),
            // Leave room above loader-assigned ids.
            seq: ((worker_id as u64 + 1) << 40),
        }
    }
}

// --- transaction bodies (shared with the hybrid) --------------------------

fn read_row<T: EngineTxn, R>(
    tx: &mut T,
    table: TableId,
    key: &[u8],
    f: impl FnOnce(&[u8]) -> R,
) -> Result<Option<R>, AbortReason> {
    let mut out = None;
    let mut f = Some(f);
    let found = tx.read(table, key, &mut |v| {
        out = Some((f.take().expect("callback fired twice"))(v));
    })?;
    Ok(if found { out } else { None })
}

pub fn broker_volume<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let mut total = 0u64;
    for _ in 0..20.min(cfg.brokers()) {
        let b = uniform(&mut ws.rng, 0, cfg.brokers() - 1);
        if let Some(row) = read_row(tx, t.broker, k_u64(&mut ws.kw, b), BrokerRow::decode)? {
            total += row.num_trades;
        }
    }
    let _ = total;
    Ok(())
}

pub fn customer_position<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let c = uniform(&mut ws.rng, 0, cfg.customers - 1);
    read_row(tx, t.customer, k_u64(&mut ws.kw, c), CustomerRow::decode)?;
    // All accounts of the customer, then their positions.
    let lo = ws.kw.reset().u64(c).to_vec();
    let hi = ws.kw.reset().u64(c).u64(u64::MAX).to_vec();
    let mut accounts: Vec<u64> = Vec::new();
    tx.scan(t.account_customer, &lo, &hi, None, &mut |k, _v| {
        accounts.push(u64::from_be_bytes(k[8..16].try_into().expect("short key")));
        true
    })?;
    for ca in accounts {
        let _ = position_of_account(tx, t, ws, ca)?;
    }
    Ok(())
}

/// Sum an account's assets: balance + Σ holdings × last-trade price.
pub fn position_of_account<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    ws: &mut TpceState,
    ca: u64,
) -> Result<f64, AbortReason> {
    let Some(acct) = read_row(tx, t.account, k_u64(&mut ws.kw, ca), AccountRow::decode)? else {
        return Ok(0.0);
    };
    let lo = ws.kw.reset().u64(ca).to_vec();
    let hi = ws.kw.reset().u64(ca).u32(u32::MAX).to_vec();
    let mut holdings: Vec<(u32, i64)> = Vec::new();
    tx.scan(t.holding_pk, &lo, &hi, None, &mut |k, v| {
        let s = u32::from_be_bytes(k[8..12].try_into().expect("short key"));
        holdings.push((s, HoldingRow::decode(v).qty));
        true
    })?;
    let mut total = acct.balance;
    for (s, qty) in holdings {
        if let Some(lt) = read_row(tx, t.last_trade, k_u32(&mut ws.kw, s), LastTradeRow::decode)? {
            total += qty as f64 * lt.price;
        }
    }
    Ok(total)
}

pub fn market_feed<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    for _ in 0..20 {
        let s = uniform(&mut ws.rng, 0, cfg.securities as u64 - 1) as u32;
        let key = k_u32(&mut ws.kw, s).to_vec();
        if let Some(mut lt) = read_row(tx, t.last_trade, &key, LastTradeRow::decode)? {
            let delta = uniform(&mut ws.rng, 0, 200) as f64 / 100.0 - 1.0;
            lt.price = (lt.price + delta).max(1.0);
            lt.volume += 100;
            tx.update(t.last_trade, &key, &lt.encode())?;
        }
    }
    Ok(())
}

pub fn market_watch<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let mut sum = 0.0;
    for _ in 0..100 {
        let s = uniform(&mut ws.rng, 0, cfg.securities as u64 - 1) as u32;
        if let Some(lt) = read_row(tx, t.last_trade, k_u32(&mut ws.kw, s), LastTradeRow::decode)? {
            sum += lt.price;
        }
    }
    let _ = sum;
    Ok(())
}

pub fn security_detail<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let s = uniform(&mut ws.rng, 0, cfg.securities as u64 - 1) as u32;
    read_row(tx, t.security, k_u32(&mut ws.kw, s), SecurityRow::decode)?;
    read_row(tx, t.last_trade, k_u32(&mut ws.kw, s), LastTradeRow::decode)?;
    Ok(())
}

pub fn trade_lookup<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let ca = uniform(&mut ws.rng, 0, cfg.total_accounts() - 1);
    let lo = ws.kw.reset().u64(ca).to_vec();
    let hi = ws.kw.reset().u64(ca).u64(u64::MAX).to_vec();
    let mut t_ids: Vec<u64> = Vec::new();
    tx.scan(t.trade_account, &lo, &hi, Some(20), &mut |k, _| {
        t_ids.push(!u64::from_be_bytes(k[8..16].try_into().expect("short key")));
        true
    })?;
    for tid in t_ids {
        read_row(tx, t.trade_history, k_trade_history(&mut ws.kw, tid, 1), |v| v.to_vec())?;
    }
    Ok(())
}

pub fn trade_order<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let ca = uniform(&mut ws.rng, 0, cfg.total_accounts() - 1);
    let s = uniform(&mut ws.rng, 0, cfg.securities as u64 - 1) as u32;
    read_row(tx, t.account, k_u64(&mut ws.kw, ca), AccountRow::decode)?;
    read_row(tx, t.security, k_u32(&mut ws.kw, s), SecurityRow::decode)?;
    let price = read_row(tx, t.last_trade, k_u32(&mut ws.kw, s), LastTradeRow::decode)?
        .map_or(30.0, |lt| lt.price);
    ws.seq += 1;
    let t_id = ws.seq;
    let trade = TradeRow {
        ca_id: ca,
        s_id: s,
        qty: uniform(&mut ws.rng, 100, 800) as u32,
        price,
        is_buy: ws.rng.chance(0.5),
        status: TRADE_PENDING,
        note: "pending".into(),
    };
    let h = tx.insert(t.trade, k_u64(&mut ws.kw, t_id), &trade.encode())?;
    tx.insert_secondary(t.trade_account, k_trade_account(&mut ws.kw2, ca, t_id), h)?;
    tx.insert(t.trade_history, k_trade_history(&mut ws.kw, t_id, 0), &[TRADE_PENDING])?;
    Ok(())
}

pub fn trade_result<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let ca = uniform(&mut ws.rng, 0, cfg.total_accounts() - 1);
    // Find the newest pending trade on the account.
    let lo = ws.kw.reset().u64(ca).to_vec();
    let hi = ws.kw.reset().u64(ca).u64(u64::MAX).to_vec();
    let mut pending: Option<(u64, TradeRow)> = None;
    tx.scan(t.trade_account, &lo, &hi, Some(10), &mut |k, v| {
        let row = TradeRow::decode(v);
        if row.status == TRADE_PENDING {
            let tid = !u64::from_be_bytes(k[8..16].try_into().expect("short key"));
            pending = Some((tid, row));
            false
        } else {
            true
        }
    })?;
    let Some((t_id, mut trade)) = pending else {
        return Ok(()); // nothing to settle
    };
    trade.status = TRADE_COMPLETED;
    trade.note = "completed".into();
    tx.update(t.trade, k_u64(&mut ws.kw, t_id), &trade.encode())?;
    tx.insert(t.trade_history, k_trade_history(&mut ws.kw, t_id, 1), &[TRADE_COMPLETED])?;

    // Update the holding summary (the AssetEval contention point).
    let hkey = k_holding(&mut ws.kw, ca, trade.s_id).to_vec();
    let delta = if trade.is_buy { trade.qty as i64 } else { -(trade.qty as i64) };
    match read_row(tx, t.holding_summary, &hkey, HoldingRow::decode)? {
        Some(mut h) => {
            h.qty += delta;
            tx.update(t.holding_summary, &hkey, &h.encode())?;
        }
        None => {
            tx.insert(t.holding_summary, &hkey, &HoldingRow { qty: delta }.encode())?;
        }
    }

    // Settle cash and credit the broker.
    let akey = k_u64(&mut ws.kw, ca).to_vec();
    if let Some(mut acct) = read_row(tx, t.account, &akey, AccountRow::decode)? {
        let cash = trade.qty as f64 * trade.price;
        acct.balance += if trade.is_buy { -cash } else { cash };
        tx.update(t.account, &akey, &acct.encode())?;
        let bkey = k_u64(&mut ws.kw, acct.b_id).to_vec();
        if let Some(mut broker) = read_row(tx, t.broker, &bkey, BrokerRow::decode)? {
            broker.num_trades += 1;
            broker.commission += cash * 0.001;
            tx.update(t.broker, &bkey, &broker.encode())?;
        }
    }
    Ok(())
}

pub fn trade_status<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let ca = uniform(&mut ws.rng, 0, cfg.total_accounts() - 1);
    let lo = ws.kw.reset().u64(ca).to_vec();
    let hi = ws.kw.reset().u64(ca).u64(u64::MAX).to_vec();
    let mut n = 0;
    tx.scan(t.trade_account, &lo, &hi, Some(50), &mut |_k, v| {
        let _ = TradeRow::decode(v).status;
        n += 1;
        true
    })?;
    Ok(())
}

pub fn trade_update<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
) -> Result<(), AbortReason> {
    let ca = uniform(&mut ws.rng, 0, cfg.total_accounts() - 1);
    let lo = ws.kw.reset().u64(ca).to_vec();
    let hi = ws.kw.reset().u64(ca).u64(u64::MAX).to_vec();
    let mut t_ids: Vec<(u64, TradeRow)> = Vec::new();
    tx.scan(t.trade_account, &lo, &hi, Some(20), &mut |k, v| {
        let tid = !u64::from_be_bytes(k[8..16].try_into().expect("short key"));
        t_ids.push((tid, TradeRow::decode(v)));
        true
    })?;
    for (tid, mut row) in t_ids.into_iter().take(3) {
        row.note = astring(&mut ws.rng, 10, 30);
        tx.update(t.trade, k_u64(&mut ws.kw, tid), &row.encode())?;
    }
    Ok(())
}

// --- mix ------------------------------------------------------------------

impl<E: Engine> Workload<E> for TpceWorkload {
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
        ]
    }

    fn load(&self, engine: &E) {
        self.load_data(engine);
    }

    fn worker_state(&self, worker_id: usize, _nthreads: usize) -> TpceState {
        self.make_state(worker_id)
    }

    fn next_type(&self, ws: &mut TpceState) -> usize {
        // Spec-derived per-mille mix (§4.2 without AssetEval):
        // 4.9 / 13 / 1 / 18 / 14 / 8 / 10.1 / 10 / 19 / 2.
        match uniform(&mut ws.rng, 1, 1000) {
            1..=49 => BROKER_VOLUME,
            50..=179 => CUSTOMER_POSITION,
            180..=189 => MARKET_FEED,
            190..=369 => MARKET_WATCH,
            370..=509 => SECURITY_DETAIL,
            510..=589 => TRADE_LOOKUP,
            590..=690 => TRADE_ORDER,
            691..=790 => TRADE_RESULT,
            791..=980 => TRADE_STATUS,
            _ => TRADE_UPDATE,
        }
    }

    fn execute(
        &self,
        worker: &mut E::Worker,
        ws: &mut TpceState,
        ty: usize,
    ) -> Result<(), AbortReason> {
        let t = *self.tables();
        let cfg = &self.cfg;
        let hint = match ty {
            MARKET_FEED | TRADE_ORDER | TRADE_RESULT | TRADE_UPDATE => TxnProfile::ReadWrite,
            _ => TxnProfile::ReadOnly,
        };
        let mut tx = worker.begin(hint);
        let body = dispatch(&mut tx, &t, cfg, ws, ty);
        match body {
            Ok(()) => tx.commit(),
            Err(r) => {
                tx.abort();
                Err(r)
            }
        }
    }
}

/// Dispatch a base-mix transaction body (shared with the hybrid).
pub fn dispatch<T: EngineTxn>(
    tx: &mut T,
    t: &TpceTables,
    cfg: &TpceConfig,
    ws: &mut TpceState,
    ty: usize,
) -> Result<(), AbortReason> {
    match ty {
        BROKER_VOLUME => broker_volume(tx, t, cfg, ws),
        CUSTOMER_POSITION => customer_position(tx, t, cfg, ws),
        MARKET_FEED => market_feed(tx, t, cfg, ws),
        MARKET_WATCH => market_watch(tx, t, cfg, ws),
        SECURITY_DETAIL => security_detail(tx, t, cfg, ws),
        TRADE_LOOKUP => trade_lookup(tx, t, cfg, ws),
        TRADE_ORDER => trade_order(tx, t, cfg, ws),
        TRADE_RESULT => trade_result(tx, t, cfg, ws),
        TRADE_STATUS => trade_status(tx, t, cfg, ws),
        TRADE_UPDATE => trade_update(tx, t, cfg, ws),
        _ => unreachable!("unknown tpce txn"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips() {
        let c = CustomerRow { name: "Jane Trader".into(), tier: 2 };
        assert_eq!(CustomerRow::decode(&c.encode()), c);

        let a = AccountRow { c_id: 42, b_id: 7, balance: 12_345.67 };
        assert_eq!(AccountRow::decode(&a.encode()), a);

        let b = BrokerRow { name: "Broker".into(), num_trades: 99, commission: 12.5 };
        assert_eq!(BrokerRow::decode(&b.encode()), b);

        let s = SecurityRow { symbol: "SYM000001".into(), name: "Acme Corp".into() };
        assert_eq!(SecurityRow::decode(&s.encode()), s);

        let lt = LastTradeRow { price: 31.41, volume: 1000 };
        assert_eq!(LastTradeRow::decode(&lt.encode()), lt);

        let t = TradeRow {
            ca_id: 5,
            s_id: 3,
            qty: 200,
            price: 28.5,
            is_buy: true,
            status: TRADE_PENDING,
            note: "pending".into(),
        };
        assert_eq!(TradeRow::decode(&t.encode()), t);

        let h = HoldingRow { qty: -500 };
        assert_eq!(HoldingRow::decode(&h.encode()), h);
    }

    #[test]
    fn trade_account_key_sorts_newest_first() {
        let mut k1 = ermia_common::KeyWriter::new();
        let mut k2 = ermia_common::KeyWriter::new();
        let newer = k_trade_account(&mut k1, 9, 100).to_vec();
        let older = k_trade_account(&mut k2, 9, 99).to_vec();
        assert!(newer < older);
        // Different accounts are disjoint ranges.
        let other_acct = k_trade_account(&mut k1, 10, 1).to_vec();
        assert!(other_acct > older);
    }

    #[test]
    fn config_arithmetic() {
        let cfg = TpceConfig::paper();
        assert_eq!(cfg.total_accounts(), 25_000);
        assert_eq!(cfg.brokers(), 50);
        let small = TpceConfig::small();
        assert!(small.total_accounts() < 1_000);
        assert!(small.brokers() >= 1);
    }
}
