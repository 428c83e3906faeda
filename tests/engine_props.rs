//! Property test: an arbitrary single-threaded sequence of transactions
//! (each a batch of operations ending in commit or abort) leaves the
//! ERMIA engine in exactly the state a `BTreeMap` model predicts —
//! under both isolation levels, and identically for the Silo baseline.

use std::collections::BTreeMap;

use ermia_check::cases;
use ermia_common::rng::SplitMix64;
use ermia_workloads::{Engine, EngineTxn, EngineWorker, ErmiaEngine, SiloEngine, TxnProfile};

enum Op {
    Insert(u8, u64),
    Update(u8, u64),
    Delete(u8),
    Read(u8),
}

struct TxnPlan {
    ops: Vec<Op>,
    commit: bool,
}

/// Keys are drawn from this many values, so a case's operations meet the
/// same key again (insert over a live key, delete of a deleted one).
const KEYS: u64 = 32;

fn op(rng: &mut SplitMix64) -> Op {
    let k = rng.below(KEYS) as u8;
    match rng.below(4) {
        0 => Op::Insert(k, rng.next_u64()),
        1 => Op::Update(k, rng.next_u64()),
        2 => Op::Delete(k),
        _ => Op::Read(k),
    }
}

/// 1–15 transactions of 1–11 operations each, half of them committing.
fn plans(rng: &mut SplitMix64) -> Vec<TxnPlan> {
    let txn = |rng: &mut SplitMix64| TxnPlan {
        ops: (0..1 + rng.below(11)).map(|_| op(rng)).collect(),
        commit: rng.below(2) == 0,
    };
    (0..1 + rng.below(15)).map(|_| txn(rng)).collect()
}

/// Drive one engine through the plans, checking against the model.
/// Duplicate inserts doom a transaction, so the model mirrors that:
/// a doomed transaction's effects never apply.
fn check_engine<E: Engine>(engine: &E, plans: &[TxnPlan]) {
    let t = engine.create_table("t");
    let mut worker = engine.register_worker();
    let mut model: BTreeMap<u8, u64> = BTreeMap::new();
    for plan in plans {
        let mut staged = model.clone();
        let mut doomed = false;
        let mut tx = worker.begin(TxnProfile::ReadWrite);
        for op in &plan.ops {
            if doomed {
                break;
            }
            match *op {
                Op::Insert(k, v) => {
                    let r = tx.insert(t, &[k], &v.to_le_bytes());
                    if let std::collections::btree_map::Entry::Vacant(e) = staged.entry(k) {
                        assert!(r.is_ok());
                        e.insert(v);
                    } else {
                        assert!(r.is_err(), "duplicate insert must doom");
                        doomed = true;
                    }
                }
                Op::Update(k, v) => {
                    let r = tx.update(t, &[k], &v.to_le_bytes());
                    match r {
                        Ok(found) => {
                            assert_eq!(found, staged.contains_key(&k));
                            if found {
                                staged.insert(k, v);
                            }
                        }
                        Err(_) => doomed = true,
                    }
                }
                Op::Delete(k) => {
                    let r = tx.delete(t, &[k]);
                    match r {
                        Ok(found) => {
                            assert_eq!(found, staged.contains_key(&k));
                            staged.remove(&k);
                        }
                        Err(_) => doomed = true,
                    }
                }
                Op::Read(k) => {
                    let mut got = None;
                    let r = tx.read(t, &[k], &mut |v| {
                        got = Some(u64::from_le_bytes(v.try_into().unwrap()));
                    });
                    match r {
                        Ok(found) => {
                            assert_eq!(found, staged.contains_key(&k));
                            assert_eq!(got, staged.get(&k).copied());
                        }
                        Err(_) => doomed = true,
                    }
                }
            }
        }
        if plan.commit && !doomed {
            if tx.commit().is_ok() {
                model = staged;
            }
        } else {
            tx.abort();
        }
    }
    // Final state: read everything back in a fresh transaction.
    let mut tx = worker.begin(TxnProfile::ReadWrite);
    for k in 0u8..=255 {
        let mut got = None;
        let found = tx
            .read(t, &[k], &mut |v| {
                got = Some(u64::from_le_bytes(v.try_into().unwrap()));
            })
            .unwrap();
        assert_eq!(found, model.contains_key(&k), "key {} presence", k);
        assert_eq!(got, model.get(&k).copied());
    }
    tx.abort();
}

fn ermia_db() -> ermia::ShardedDb {
    ermia::ShardedDb::open(ermia::DbConfig::in_memory(), 1).unwrap()
}

fn seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok())
}

#[test]
fn ermia_ssn_matches_model() {
    cases("ermia_ssn_matches_model", 24, seed(), |rng| {
        check_engine(&ErmiaEngine::ssn(ermia_db()), &plans(rng));
    });
}

#[test]
fn ermia_si_matches_model() {
    cases("ermia_si_matches_model", 24, seed(), |rng| {
        check_engine(&ErmiaEngine::si(ermia_db()), &plans(rng));
    });
}

#[test]
fn silo_matches_model() {
    cases("silo_matches_model", 24, seed(), |rng| {
        let db = silo_occ::SiloDb::open(silo_occ::SiloConfig::default());
        check_engine(&SiloEngine::new(db), &plans(rng));
    });
}
