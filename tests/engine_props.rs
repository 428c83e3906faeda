//! Property test: an arbitrary single-threaded sequence of transactions
//! (each a batch of operations ending in commit or abort) leaves the
//! ERMIA engine in exactly the state a `BTreeMap` model predicts —
//! under both isolation levels, and identically for the Silo baseline.

use std::collections::BTreeMap;

use ermia_workloads::{Engine, EngineTxn, EngineWorker, ErmiaEngine, SiloEngine, TxnProfile};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u64),
    Update(u8, u64),
    Delete(u8),
    Read(u8),
}

#[derive(Clone, Debug)]
struct TxnPlan {
    ops: Vec<Op>,
    commit: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Update(k, v)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Read),
    ]
}

fn txn_strategy() -> impl Strategy<Value = TxnPlan> {
    (proptest::collection::vec(op_strategy(), 1..12), any::<bool>())
        .prop_map(|(ops, commit)| TxnPlan { ops, commit })
}

/// Drive one engine through the plans, checking against the model.
/// Duplicate inserts doom a transaction, so the model mirrors that:
/// a doomed transaction's effects never apply.
fn check_engine<E: Engine>(engine: &E, plans: &[TxnPlan]) -> Result<(), TestCaseError> {
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
                        prop_assert!(r.is_ok());
                        e.insert(v);
                    } else {
                        prop_assert!(r.is_err(), "duplicate insert must doom");
                        doomed = true;
                    }
                }
                Op::Update(k, v) => {
                    let r = tx.update(t, &[k], &v.to_le_bytes());
                    match r {
                        Ok(found) => {
                            prop_assert_eq!(found, staged.contains_key(&k));
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
                            prop_assert_eq!(found, staged.contains_key(&k));
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
                            prop_assert_eq!(found, staged.contains_key(&k));
                            prop_assert_eq!(got, staged.get(&k).copied());
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
        prop_assert_eq!(found, model.contains_key(&k), "key {} presence", k);
        prop_assert_eq!(got, model.get(&k).copied());
    }
    tx.abort();
    Ok(())
}

fn ermia_db() -> ermia::ShardedDb {
    ermia::ShardedDb::open(ermia::DbConfig::in_memory(), 1).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ermia_ssn_matches_model(plans in proptest::collection::vec(txn_strategy(), 1..16)) {
        check_engine(&ErmiaEngine::ssn(ermia_db()), &plans)?;
    }

    #[test]
    fn ermia_si_matches_model(plans in proptest::collection::vec(txn_strategy(), 1..16)) {
        check_engine(&ErmiaEngine::si(ermia_db()), &plans)?;
    }

    #[test]
    fn silo_matches_model(plans in proptest::collection::vec(txn_strategy(), 1..16)) {
        let db = silo_occ::SiloDb::open(silo_occ::SiloConfig::default());
        check_engine(&SiloEngine::new(db), &plans)?;
    }
}
