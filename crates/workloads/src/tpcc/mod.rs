//! TPC-C (paper §4.2).
//!
//! Full 9-table schema and the five standard transactions with the
//! spec's 45/43/4/4/4 mix. The database is partitioned by warehouse and
//! each worker thread is assigned a local warehouse, but 1% of NewOrder
//! and 15% of Payment transactions are cross-partition — the paper's
//! configuration. [`PartitionAccess`] switches warehouse selection to
//! uniform or 80-20 skewed for the Fig. 8 contention experiment.

pub mod schema;

use std::sync::OnceLock;

use ermia_common::rng::SplitMix64;
use ermia_common::{AbortReason, IndexId, KeyWriter, TableId};

use crate::driver::Workload;
use crate::engine::{Engine, EngineTxn, EngineWorker, TxnProfile};
use crate::rng::{astring, last_name, nurand, rand_last_name, skew_80_20, uniform, worker_rng};
use schema::*;

/// How transactions pick their warehouse (Fig. 8).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionAccess {
    /// Each worker sticks to its home warehouse (the default).
    Home,
    /// Uniformly random warehouse per transaction.
    Uniform,
    /// 80-20 skewed warehouse per transaction.
    Skew8020,
}

/// TPC-C sizing and behaviour knobs.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    pub warehouses: u32,
    pub districts: u8,
    pub customers_per_district: u32,
    pub items: u32,
    /// Initially loaded orders per district (the last 30% undelivered).
    pub initial_orders: u32,
    pub remote_neworder_pct: u32,
    pub remote_payment_pct: u32,
    pub access: PartitionAccess,
    /// TPC-CH suppliers (used by the hybrid workload; loaded always so
    /// the schema is identical across experiments).
    pub suppliers: u32,
}

impl TpccConfig {
    /// Paper-scale sizing (scale factor = warehouses).
    pub fn paper(warehouses: u32) -> TpccConfig {
        TpccConfig {
            warehouses,
            districts: 10,
            customers_per_district: 3_000,
            items: 100_000,
            initial_orders: 3_000,
            remote_neworder_pct: 1,
            remote_payment_pct: 15,
            access: PartitionAccess::Home,
            suppliers: 10_000,
        }
    }

    /// Reduced sizing for tests and quick runs.
    pub fn small(warehouses: u32) -> TpccConfig {
        TpccConfig {
            warehouses,
            districts: 4,
            customers_per_district: 120,
            items: 2_000,
            initial_orders: 60,
            remote_neworder_pct: 1,
            remote_payment_pct: 15,
            access: PartitionAccess::Home,
            suppliers: 100,
        }
    }
}

/// Table and index handles.
#[derive(Clone, Copy, Debug)]
pub struct TpccTables {
    pub warehouse: TableId,
    pub district: TableId,
    pub customer: TableId,
    pub customer_name: IndexId,
    pub history: TableId,
    pub neworder: TableId,
    pub order: TableId,
    pub order_customer: IndexId,
    pub orderline: TableId,
    pub item: TableId,
    pub stock: TableId,
    pub stock_supplier: IndexId,
    pub supplier: TableId,
    pub neworder_pk: IndexId,
    pub orderline_pk: IndexId,
    pub customer_pk: IndexId,
    pub supplier_pk: IndexId,
}

impl TpccTables {
    pub fn create<E: Engine>(e: &E) -> TpccTables {
        let warehouse = e.create_table("tpcc.warehouse");
        let district = e.create_table("tpcc.district");
        let customer = e.create_table("tpcc.customer");
        let history = e.create_table("tpcc.history");
        let neworder = e.create_table("tpcc.neworder");
        let order = e.create_table("tpcc.order");
        let orderline = e.create_table("tpcc.orderline");
        let item = e.create_table("tpcc.item");
        let stock = e.create_table("tpcc.stock");
        let supplier = e.create_table("tpcc.supplier");
        TpccTables {
            warehouse,
            district,
            customer,
            customer_name: e.create_secondary_index(customer, "tpcc.customer_name"),
            history,
            neworder,
            order,
            order_customer: e.create_secondary_index(order, "tpcc.order_customer"),
            orderline,
            item,
            stock,
            stock_supplier: e.create_secondary_index(stock, "tpcc.stock_supplier"),
            supplier,
            neworder_pk: e.primary_index(neworder),
            orderline_pk: e.primary_index(orderline),
            customer_pk: e.primary_index(customer),
            supplier_pk: e.primary_index(supplier),
        }
    }
}

/// Per-worker state.
pub struct TpccState {
    pub rng: SplitMix64,
    pub home: u32,
    pub kw: KeyWriter,
    pub kw2: KeyWriter,
    pub kw3: KeyWriter,
    /// Unique history-row sequence.
    pub hseq: u64,
}

/// Transaction type indexes.
pub const NEWORDER: usize = 0;
pub const PAYMENT: usize = 1;
pub const ORDERSTATUS: usize = 2;
pub const DELIVERY: usize = 3;
pub const STOCKLEVEL: usize = 4;

pub struct TpccWorkload {
    pub cfg: TpccConfig,
    tables: OnceLock<TpccTables>,
}

impl TpccWorkload {
    pub fn new(cfg: TpccConfig) -> TpccWorkload {
        TpccWorkload { cfg, tables: OnceLock::new() }
    }

    pub fn tables(&self) -> &TpccTables {
        self.tables.get().expect("load() must run first")
    }

    /// Bind table handles without loading data — used after recovery,
    /// where the log replay repopulated already-declared tables.
    pub fn bind_tables<E: Engine>(&self, engine: &E) -> &TpccTables {
        self.tables.get_or_init(|| TpccTables::create(engine))
    }

    /// Pick the transaction's warehouse per the access policy.
    pub fn pick_warehouse(&self, ws: &mut TpccState) -> u32 {
        match self.cfg.access {
            PartitionAccess::Home => ws.home,
            PartitionAccess::Uniform => uniform(&mut ws.rng, 1, self.cfg.warehouses as u64) as u32,
            PartitionAccess::Skew8020 => {
                skew_80_20(&mut ws.rng, self.cfg.warehouses as u64) as u32 + 1
            }
        }
    }

    /// Load schema + data (shared with the hybrid workload).
    pub fn load_data<E: Engine>(&self, engine: &E) -> TpccTables {
        let t = *self.tables.get_or_init(|| TpccTables::create(engine));
        let cfg = &self.cfg;
        let mut w = engine.register_worker();
        let mut rng = worker_rng(0xC0FFEE);
        let mut kw = KeyWriter::new();
        let mut kw2 = KeyWriter::new();

        // Items.
        batch_load(&mut w, cfg.items as u64, 500, |tx, i| {
            let i = i as u32 + 1;
            let item = Item {
                name: astring(&mut rng, 14, 24),
                price: uniform(&mut rng, 100, 10_000) as f64 / 100.0,
                data: astring(&mut rng, 26, 50),
            };
            tx.insert(t.item, k_item(&mut kw, i), &item.encode())?;
            Ok(())
        });

        // Suppliers (TPC-CH).
        batch_load(&mut w, cfg.suppliers as u64, 500, |tx, su| {
            let su = su as u32;
            let s = Supplier { name: format!("Supplier#{su:09}"), region: su % 5 };
            tx.insert(t.supplier, k_supplier(&mut kw, su), &s.encode())?;
            Ok(())
        });

        for wid in 1..=cfg.warehouses {
            // Warehouse row.
            batch_load(&mut w, 1, 1, |tx, _| {
                let row = Warehouse {
                    name: astring(&mut rng, 6, 10),
                    tax: uniform(&mut rng, 0, 2000) as f64 / 10_000.0,
                    ytd: 300_000.0,
                };
                tx.insert(t.warehouse, k_warehouse(&mut kw, wid), &row.encode())?;
                Ok(())
            });

            // Stock (+ supplier secondary).
            batch_load(&mut w, cfg.items as u64, 500, |tx, i| {
                let i = i as u32 + 1;
                let row = Stock {
                    quantity: uniform(&mut rng, 10, 100) as i64,
                    ytd: 0.0,
                    order_cnt: 0,
                    remote_cnt: 0,
                    dist_info: astring(&mut rng, 24, 24),
                    data: astring(&mut rng, 26, 50),
                };
                let handle = tx.insert(t.stock, k_stock(&mut kw, wid, i), &row.encode())?;
                let su = supplier_of(wid, i, cfg.suppliers);
                tx.insert_secondary(
                    t.stock_supplier,
                    k_stock_supplier(&mut kw2, su, wid, i),
                    handle,
                )?;
                Ok(())
            });

            for d in 1..=cfg.districts {
                batch_load(&mut w, 1, 1, |tx, _| {
                    let row = District {
                        tax: uniform(&mut rng, 0, 2000) as f64 / 10_000.0,
                        ytd: 30_000.0,
                        next_o_id: cfg.initial_orders + 1,
                    };
                    tx.insert(t.district, k_district(&mut kw, wid, d), &row.encode())?;
                    Ok(())
                });

                // Customers (+ by-name secondary).
                batch_load(&mut w, cfg.customers_per_district as u64, 250, |tx, c| {
                    let c = c as u32 + 1;
                    let lname = if c <= 1_000 {
                        last_name((c - 1) as u64)
                    } else {
                        rand_last_name(&mut rng)
                    };
                    let first = astring(&mut rng, 8, 16);
                    let row = Customer {
                        first: first.clone(),
                        middle: "OE".into(),
                        last: lname.clone(),
                        balance: -10.0,
                        ytd_payment: 10.0,
                        payment_cnt: 1,
                        delivery_cnt: 0,
                        credit: if rng.below(10) == 0 { "BC" } else { "GC" }.into(),
                        discount: uniform(&mut rng, 0, 5000) as f64 / 10_000.0,
                        data: astring(&mut rng, 100, 200),
                    };
                    let h = tx.insert(t.customer, k_customer(&mut kw, wid, d, c), &row.encode())?;
                    tx.insert_secondary(
                        t.customer_name,
                        k_customer_name(&mut kw2, wid, d, &lname, &first, c),
                        h,
                    )?;
                    Ok(())
                });

                // Initial orders: the newest 30% undelivered.
                let delivered_upto = cfg.initial_orders * 7 / 10;
                batch_load(&mut w, cfg.initial_orders as u64, 100, |tx, o| {
                    let o = o as u32 + 1;
                    // Pseudo-random customer permutation.
                    let c = (o.wrapping_mul(2_654_435_761)) % cfg.customers_per_district + 1;
                    let ol_cnt = uniform(&mut rng, 5, 15) as u32;
                    let delivered = o <= delivered_upto;
                    let row = Order {
                        c_id: c,
                        entry_d: 1,
                        carrier_id: if delivered { uniform(&mut rng, 1, 10) as u32 } else { 0 },
                        ol_cnt,
                        all_local: true,
                    };
                    let h = tx.insert(t.order, k_order(&mut kw, wid, d, o), &row.encode())?;
                    tx.insert_secondary(
                        t.order_customer,
                        k_order_customer(&mut kw2, wid, d, c, o),
                        h,
                    )?;
                    if !delivered {
                        tx.insert(t.neworder, k_neworder(&mut kw, wid, d, o), &[])?;
                    }
                    for ol in 1..=ol_cnt as u8 {
                        let line = OrderLine {
                            i_id: uniform(&mut rng, 1, cfg.items as u64) as u32,
                            supply_w: wid,
                            delivery_d: if delivered { 1 } else { 0 },
                            quantity: 5,
                            amount: if delivered {
                                0.0
                            } else {
                                uniform(&mut rng, 1, 999_999) as f64 / 100.0
                            },
                            dist_info: astring(&mut rng, 24, 24),
                        };
                        tx.insert(
                            t.orderline,
                            k_orderline(&mut kw, wid, d, o, ol),
                            &line.encode(),
                        )?;
                    }
                    Ok(())
                });
            }
        }
        t
    }
}

/// Run `n` loader steps in batched transactions of `per_tx` steps.
pub fn batch_load<W: EngineWorker>(
    worker: &mut W,
    n: u64,
    per_tx: u64,
    mut step: impl FnMut(&mut W::Txn<'_>, u64) -> Result<(), AbortReason>,
) {
    let mut i = 0;
    while i < n {
        let mut tx = worker.begin(TxnProfile::ReadWrite);
        let hi = (i + per_tx).min(n);
        for j in i..hi {
            step(&mut tx, j).expect("loader step failed");
        }
        tx.commit().expect("loader commit failed");
        i = hi;
    }
}

// -----------------------------------------------------------------------
// Transaction bodies (shared with the hybrid workload)
// -----------------------------------------------------------------------

/// Read a row and decode it; a missing row is a benchmark logic error
/// surfaced as a user abort.
pub(crate) fn read_row<T: EngineTxn, R>(
    tx: &mut T,
    table: TableId,
    key: &[u8],
    f: impl FnOnce(&[u8]) -> R,
) -> Result<R, AbortReason> {
    let mut out = None;
    let mut f = Some(f);
    let found = tx.read(table, key, &mut |v| {
        out = Some((f.take().expect("read callback fired twice"))(v));
    })?;
    if !found {
        return Err(AbortReason::UserRequested);
    }
    Ok(out.expect("engine reported found without payload"))
}

pub fn neworder<T: EngineTxn>(
    tx: &mut T,
    t: &TpccTables,
    cfg: &TpccConfig,
    ws: &mut TpccState,
    w: u32,
) -> Result<(), AbortReason> {
    let d = uniform(&mut ws.rng, 1, cfg.districts as u64) as u8;
    let c = nurand(&mut ws.rng, 1023, 1, cfg.customers_per_district as u64) as u32;
    let ol_cnt = uniform(&mut ws.rng, 5, 15) as u32;
    let rollback = uniform(&mut ws.rng, 1, 100) == 1;

    let wh = read_row(tx, t.warehouse, k_warehouse(&mut ws.kw, w), Warehouse::decode)?;
    let mut district = read_row(tx, t.district, k_district(&mut ws.kw, w, d), District::decode)?;
    let o_id = district.next_o_id;
    district.next_o_id += 1;
    tx.update(t.district, k_district(&mut ws.kw, w, d), &district.encode())?;
    let cust = read_row(tx, t.customer, k_customer(&mut ws.kw, w, d, c), Customer::decode)?;

    let mut all_local = true;
    let mut lines = Vec::with_capacity(ol_cnt as usize);
    for _ in 0..ol_cnt {
        let i_id = nurand(&mut ws.rng, 8191, 1, cfg.items as u64) as u32;
        let supply_w = if cfg.warehouses > 1
            && uniform(&mut ws.rng, 1, 100) <= cfg.remote_neworder_pct as u64
        {
            all_local = false;
            // A different warehouse (cross-partition).
            let mut other = uniform(&mut ws.rng, 1, cfg.warehouses as u64) as u32;
            if other == w {
                other = other % cfg.warehouses + 1;
            }
            other
        } else {
            w
        };
        lines.push((i_id, supply_w, uniform(&mut ws.rng, 1, 10) as u32));
    }

    let order = Order { c_id: c, entry_d: 2, carrier_id: 0, ol_cnt, all_local };
    let h = tx.insert(t.order, k_order(&mut ws.kw, w, d, o_id), &order.encode())?;
    tx.insert_secondary(t.order_customer, k_order_customer(&mut ws.kw2, w, d, c, o_id), h)?;
    tx.insert(t.neworder, k_neworder(&mut ws.kw, w, d, o_id), &[])?;

    let mut total = 0.0;
    for (ol, &(i_id, supply_w, qty)) in lines.iter().enumerate() {
        let item = read_row(tx, t.item, k_item(&mut ws.kw, i_id), Item::decode)?;
        let mut stock = read_row(tx, t.stock, k_stock(&mut ws.kw, supply_w, i_id), Stock::decode)?;
        stock.quantity = if stock.quantity >= qty as i64 + 10 {
            stock.quantity - qty as i64
        } else {
            stock.quantity - qty as i64 + 91
        };
        stock.ytd += qty as f64;
        stock.order_cnt += 1;
        if supply_w != w {
            stock.remote_cnt += 1;
        }
        tx.update(t.stock, k_stock(&mut ws.kw, supply_w, i_id), &stock.encode())?;
        let amount = qty as f64 * item.price;
        total += amount;
        let line = OrderLine {
            i_id,
            supply_w,
            delivery_d: 0,
            quantity: qty,
            amount,
            dist_info: stock.dist_info,
        };
        tx.insert(t.orderline, k_orderline(&mut ws.kw, w, d, o_id, ol as u8 + 1), &line.encode())?;
    }
    let _ = total * (1.0 - cust.discount) * (1.0 + wh.tax + district.tax);

    if rollback {
        // Spec: 1% of NewOrders roll back on an unused item number.
        return Err(AbortReason::UserRequested);
    }
    Ok(())
}

/// Resolve a customer by last name: pick the middle match (spec
/// §2.5.2.2). Returns (c_id, decoded row).
pub(crate) fn customer_by_name<T: EngineTxn>(
    tx: &mut T,
    t: &TpccTables,
    ws: &mut TpccState,
    w: u32,
    d: u8,
    last: &str,
) -> Result<Option<(u32, Customer)>, AbortReason> {
    let (lo, hi) = k_customer_name_range(&mut ws.kw, &mut ws.kw2, w, d, last);
    let mut matches: Vec<(u32, Customer)> = Vec::new();
    tx.scan(t.customer_name, &lo, &hi, None, &mut |k, v| {
        let c = u32::from_be_bytes(k[k.len() - 4..].try_into().expect("short name key"));
        matches.push((c, Customer::decode(v)));
        true
    })?;
    if matches.is_empty() {
        return Ok(None);
    }
    let mid = matches.len() / 2;
    Ok(Some(matches.swap_remove(mid)))
}

pub fn payment<T: EngineTxn>(
    tx: &mut T,
    t: &TpccTables,
    cfg: &TpccConfig,
    ws: &mut TpccState,
    w: u32,
) -> Result<(), AbortReason> {
    let d = uniform(&mut ws.rng, 1, cfg.districts as u64) as u8;
    let amount = uniform(&mut ws.rng, 100, 500_000) as f64 / 100.0;

    // 15% of payments are for a customer of a remote warehouse.
    let (c_w, c_d) =
        if cfg.warehouses > 1 && uniform(&mut ws.rng, 1, 100) <= cfg.remote_payment_pct as u64 {
            let mut other = uniform(&mut ws.rng, 1, cfg.warehouses as u64) as u32;
            if other == w {
                other = other % cfg.warehouses + 1;
            }
            (other, uniform(&mut ws.rng, 1, cfg.districts as u64) as u8)
        } else {
            (w, d)
        };

    let mut wh = read_row(tx, t.warehouse, k_warehouse(&mut ws.kw, w), Warehouse::decode)?;
    wh.ytd += amount;
    tx.update(t.warehouse, k_warehouse(&mut ws.kw, w), &wh.encode())?;

    let mut district = read_row(tx, t.district, k_district(&mut ws.kw, w, d), District::decode)?;
    district.ytd += amount;
    tx.update(t.district, k_district(&mut ws.kw, w, d), &district.encode())?;

    // 60% by id, 40% by last name.
    let (c_id, mut cust) = if uniform(&mut ws.rng, 1, 100) <= 60 {
        let c = nurand(&mut ws.rng, 1023, 1, cfg.customers_per_district as u64) as u32;
        let row = read_row(tx, t.customer, k_customer(&mut ws.kw, c_w, c_d, c), Customer::decode)?;
        (c, row)
    } else {
        let lname = rand_last_name(&mut ws.rng);
        match customer_by_name(tx, t, ws, c_w, c_d, &lname)? {
            Some(hit) => hit,
            None => return Err(AbortReason::UserRequested), // no such name loaded
        }
    };
    cust.balance -= amount;
    cust.ytd_payment += amount;
    cust.payment_cnt += 1;
    if cust.credit == "BC" {
        cust.data = format!("{c_id}:{c_w}:{c_d}:{w}:{d}:{amount:.2}|{}", cust.data);
        cust.data.truncate(250);
    }
    tx.update(t.customer, k_customer(&mut ws.kw, c_w, c_d, c_id), &cust.encode())?;

    ws.hseq += 1;
    let h = History { amount, data: format!("{} {}", wh.name, d) };
    tx.insert(t.history, k_history(&mut ws.kw, c_w, c_d, c_id, ws.hseq), &h.encode())?;
    Ok(())
}

pub fn orderstatus<T: EngineTxn>(
    tx: &mut T,
    t: &TpccTables,
    cfg: &TpccConfig,
    ws: &mut TpccState,
    w: u32,
) -> Result<(), AbortReason> {
    let d = uniform(&mut ws.rng, 1, cfg.districts as u64) as u8;
    let (c_id, _cust) = if uniform(&mut ws.rng, 1, 100) <= 60 {
        let c = nurand(&mut ws.rng, 1023, 1, cfg.customers_per_district as u64) as u32;
        let row = read_row(tx, t.customer, k_customer(&mut ws.kw, w, d, c), Customer::decode)?;
        (c, row)
    } else {
        let lname = rand_last_name(&mut ws.rng);
        match customer_by_name(tx, t, ws, w, d, &lname)? {
            Some(hit) => hit,
            None => return Ok(()), // nothing to report
        }
    };

    // Newest order: the order-by-customer key embeds !o_id, so an
    // ascending scan with limit 1 yields it.
    let lo = ws.kw.reset().u32(w).u8(d).u32(c_id).to_vec();
    let hi = ws.kw.reset().u32(w).u8(d).u32(c_id).u32(u32::MAX).to_vec();
    let mut newest: Option<(u32, Order)> = None;
    tx.scan(t.order_customer, &lo, &hi, Some(1), &mut |k, v| {
        let inv = u32::from_be_bytes(k[k.len() - 4..].try_into().expect("short key"));
        newest = Some((!inv, Order::decode(v)));
        false
    })?;
    let Some((o_id, order)) = newest else { return Ok(()) };

    // Its order lines.
    let lo = k_orderline(&mut ws.kw, w, d, o_id, 0).to_vec();
    let hi = k_orderline(&mut ws.kw2, w, d, o_id, order.ol_cnt as u8 + 1).to_vec();
    let mut n = 0;
    tx.scan(t.orderline_pk, &lo, &hi, None, &mut |_k, v| {
        let _ = OrderLine::decode(v);
        n += 1;
        true
    })?;
    Ok(())
}

pub fn delivery<T: EngineTxn>(
    tx: &mut T,
    t: &TpccTables,
    cfg: &TpccConfig,
    ws: &mut TpccState,
    w: u32,
) -> Result<(), AbortReason> {
    let carrier = uniform(&mut ws.rng, 1, 10) as u32;
    for d in 1..=cfg.districts {
        // Oldest undelivered order.
        let lo = k_neworder(&mut ws.kw, w, d, 0).to_vec();
        let hi = k_neworder(&mut ws.kw2, w, d, u32::MAX).to_vec();
        let mut oldest: Option<u32> = None;
        tx.scan(t.neworder_pk, &lo, &hi, Some(1), &mut |k, _| {
            oldest = Some(u32::from_be_bytes(k[k.len() - 4..].try_into().expect("short key")));
            false
        })?;
        let Some(o_id) = oldest else { continue };

        tx.delete(t.neworder, k_neworder(&mut ws.kw, w, d, o_id))?;
        let mut order = read_row(tx, t.order, k_order(&mut ws.kw, w, d, o_id), Order::decode)?;
        order.carrier_id = carrier;
        tx.update(t.order, k_order(&mut ws.kw, w, d, o_id), &order.encode())?;

        // Stamp lines with the delivery date and sum their amounts.
        let lo = k_orderline(&mut ws.kw, w, d, o_id, 0).to_vec();
        let hi = k_orderline(&mut ws.kw2, w, d, o_id, 16).to_vec();
        let mut lines: Vec<(Vec<u8>, OrderLine)> = Vec::new();
        tx.scan(t.orderline_pk, &lo, &hi, None, &mut |k, v| {
            lines.push((k.to_vec(), OrderLine::decode(v)));
            true
        })?;
        let mut total = 0.0;
        for (key, mut line) in lines {
            total += line.amount;
            line.delivery_d = 3;
            tx.update(t.orderline, &key, &line.encode())?;
        }

        let ckey = k_customer(&mut ws.kw, w, d, order.c_id).to_vec();
        let mut cust = read_row(tx, t.customer, &ckey, Customer::decode)?;
        cust.balance += total;
        cust.delivery_cnt += 1;
        tx.update(t.customer, &ckey, &cust.encode())?;
    }
    Ok(())
}

pub fn stocklevel<T: EngineTxn>(
    tx: &mut T,
    t: &TpccTables,
    cfg: &TpccConfig,
    ws: &mut TpccState,
    w: u32,
) -> Result<(), AbortReason> {
    let d = uniform(&mut ws.rng, 1, cfg.districts as u64) as u8;
    let threshold = uniform(&mut ws.rng, 10, 20) as i64;
    let district = read_row(tx, t.district, k_district(&mut ws.kw, w, d), District::decode)?;
    let next_o = district.next_o_id;
    let from_o = next_o.saturating_sub(20);

    // Items in the last 20 orders' lines.
    let lo = k_orderline(&mut ws.kw, w, d, from_o, 0).to_vec();
    let hi = k_orderline(&mut ws.kw2, w, d, next_o, 0).to_vec();
    let mut items: Vec<u32> = Vec::new();
    tx.scan(t.orderline_pk, &lo, &hi, None, &mut |_k, v| {
        items.push(OrderLine::decode(v).i_id);
        true
    })?;
    items.sort_unstable();
    items.dedup();

    let mut low_stock = 0;
    for i_id in items {
        let stock = read_row(tx, t.stock, k_stock(&mut ws.kw, w, i_id), Stock::decode)?;
        if stock.quantity < threshold {
            low_stock += 1;
        }
    }
    let _ = low_stock;
    Ok(())
}

// -----------------------------------------------------------------------
// Workload impl
// -----------------------------------------------------------------------

impl<E: Engine> Workload<E> for TpccWorkload {
    type WorkerState = TpccState;

    fn types(&self) -> Vec<&'static str> {
        vec!["NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"]
    }

    fn load(&self, engine: &E) {
        self.load_data(engine);
    }

    fn worker_state(&self, worker_id: usize, _nthreads: usize) -> TpccState {
        TpccState {
            rng: worker_rng(worker_id as u64),
            home: (worker_id as u32) % self.cfg.warehouses + 1,
            kw: KeyWriter::new(),
            kw2: KeyWriter::new(),
            kw3: KeyWriter::new(),
            hseq: (worker_id as u64) << 40,
        }
    }

    fn next_type(&self, ws: &mut TpccState) -> usize {
        // Spec mix: 45 / 43 / 4 / 4 / 4.
        match uniform(&mut ws.rng, 1, 100) {
            1..=45 => NEWORDER,
            46..=88 => PAYMENT,
            89..=92 => ORDERSTATUS,
            93..=96 => DELIVERY,
            _ => STOCKLEVEL,
        }
    }

    fn execute(
        &self,
        worker: &mut E::Worker,
        ws: &mut TpccState,
        ty: usize,
    ) -> Result<(), AbortReason> {
        let t = *self.tables();
        let w = self.pick_warehouse(ws);
        let hint = match ty {
            ORDERSTATUS | STOCKLEVEL => TxnProfile::ReadOnly,
            _ => TxnProfile::ReadWrite,
        };
        let mut tx = worker.begin(hint);
        let body = match ty {
            NEWORDER => neworder(&mut tx, &t, &self.cfg, ws, w),
            PAYMENT => payment(&mut tx, &t, &self.cfg, ws, w),
            ORDERSTATUS => orderstatus(&mut tx, &t, &self.cfg, ws, w),
            DELIVERY => delivery(&mut tx, &t, &self.cfg, ws, w),
            STOCKLEVEL => stocklevel(&mut tx, &t, &self.cfg, ws, w),
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

// -----------------------------------------------------------------------
// Consistency checks (TPC-C spec §3.3.2 conditions 1-3, adapted)
// -----------------------------------------------------------------------

/// Verify TPC-C consistency conditions on a quiesced database:
///
/// 1. For every district: `d_next_o_id - 1` equals the maximum order id
///    in both ORDER and (if any rows remain) NEW-ORDER.
/// 2. For every warehouse: `w_ytd` growth equals the sum of its
///    districts' `d_ytd` growth (payments update both).
///
/// Panics with a descriptive message on violation.
pub fn check_consistency<E: Engine>(engine: &E, workload: &TpccWorkload) {
    let t = *workload.tables();
    let cfg = &workload.cfg;
    let mut w = engine.register_worker();
    let mut tx = w.begin(TxnProfile::ReadWrite);
    let mut kw = KeyWriter::new();
    let mut kw2 = KeyWriter::new();

    for wid in 1..=cfg.warehouses {
        let wh = read_row(&mut tx, t.warehouse, k_warehouse(&mut kw, wid), Warehouse::decode)
            .expect("warehouse row");
        let mut district_ytd_sum = 0.0;
        for d in 1..=cfg.districts {
            let district =
                read_row(&mut tx, t.district, k_district(&mut kw, wid, d), District::decode)
                    .expect("district row");
            district_ytd_sum += district.ytd;

            // Max order id in ORDER for this district.
            let lo = k_order(&mut kw, wid, d, 0).to_vec();
            let hi = k_order(&mut kw2, wid, d, u32::MAX).to_vec();
            let mut max_o = 0u32;
            tx.scan(engine.primary_index(t.order), &lo, &hi, None, &mut |k, _| {
                max_o = u32::from_be_bytes(k[k.len() - 4..].try_into().expect("key"));
                true
            })
            .expect("order scan");
            assert_eq!(
                district.next_o_id - 1,
                max_o,
                "consistency 1 violated at w={wid} d={d}: next_o_id={} max(o_id)={max_o}",
                district.next_o_id
            );
        }
        // Payments add the same amount to w_ytd and one of its d_ytd.
        let initial_w = 300_000.0;
        let initial_d_sum = 30_000.0 * cfg.districts as f64;
        let dw = wh.ytd - initial_w;
        let dd = district_ytd_sum - initial_d_sum;
        assert!(
            (dw - dd).abs() < 0.01,
            "consistency 2 violated at w={wid}: Δw_ytd={dw:.2} Σ Δd_ytd={dd:.2}"
        );
    }
    tx.commit().expect("consistency check commit");
}
