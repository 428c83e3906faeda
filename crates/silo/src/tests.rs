use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ermia_common::rng::{SplitMix64, GAMMA};
use ermia_common::AbortReason;

use crate::{SiloConfig, SiloDb, TxnMode};

const RW: TxnMode = TxnMode::ReadWrite;
const RO: TxnMode = TxnMode::ReadOnly;

fn db() -> SiloDb {
    SiloDb::open(SiloConfig::default())
}

fn fast_db() -> SiloDb {
    SiloDb::open(SiloConfig {
        epoch_interval: Duration::from_millis(1),
        snapshot_interval: Duration::from_millis(2),
        snapshots: true,
    })
}

fn get(tx: &mut crate::SiloTxn<'_>, t: ermia_common::TableId, k: &[u8]) -> Option<Vec<u8>> {
    tx.read(t, k, |v| v.to_vec()).unwrap()
}

#[test]
fn insert_read_update_delete() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();

    let mut tx = w.begin(RW);
    tx.insert(t, b"k", b"v1").unwrap();
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v1"[..]), "read own insert");
    tx.commit().unwrap();

    let mut tx = w.begin(RW);
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v1"[..]));
    tx.update(t, b"k", b"v2").unwrap();
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v2"[..]), "read own update");
    tx.commit().unwrap();

    let mut tx = w.begin(RW);
    assert!(tx.delete(t, b"k").unwrap());
    assert_eq!(get(&mut tx, t, b"k"), None);
    tx.commit().unwrap();

    let mut tx = w.begin(RW);
    assert_eq!(get(&mut tx, t, b"k"), None);
    tx.commit().unwrap();

    // Inserted and deleted by a transaction that aborts: nothing stays
    // indexed to refuse the next insert as a duplicate.
    let mut tx = w.begin(RW);
    tx.insert(t, b"j", b"v1").unwrap();
    assert!(tx.delete(t, b"j").unwrap());
    tx.abort();
    let mut tx = w.begin(RW);
    tx.insert(t, b"j", b"v2").unwrap();
    tx.commit().unwrap();
}

#[test]
fn uncommitted_writes_invisible() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut t1 = w1.begin(RW);
    t1.insert(t, b"k", b"v").unwrap();
    let mut t2 = w2.begin(RW);
    assert_eq!(get(&mut t2, t, b"k"), None, "ABSENT pre-commit record");
    t1.commit().unwrap();
    // t2 read the absent state: its validation must now fail.
    t2.update(t, b"k", b"x").unwrap();
    assert_eq!(t2.commit().unwrap_err(), AbortReason::ReadValidation);
}

#[test]
fn writer_overwrites_reader_occ_aborts_reader() {
    // The heart of the ERMIA paper's critique: a reader whose footprint
    // is overwritten before it commits must abort.
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(RW);
    setup.insert(t, b"x", b"0").unwrap();
    setup.insert(t, b"y", b"0").unwrap();
    setup.commit().unwrap();

    let mut reader = w1.begin(RW);
    let _ = get(&mut reader, t, b"x");
    // Writer commits an overwrite of the reader's footprint.
    let mut writer = w2.begin(RW);
    writer.update(t, b"x", b"1").unwrap();
    writer.commit().unwrap();
    // Reader performs a write elsewhere (read-mostly) and tries to commit.
    reader.update(t, b"y", b"9").unwrap();
    assert_eq!(reader.commit().unwrap_err(), AbortReason::ReadValidation);
}

#[test]
fn write_write_conflict_one_loses() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(RW);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let mut t1 = w1.begin(RW);
    let mut t2 = w2.begin(RW);
    let _ = get(&mut t1, t, b"x");
    let _ = get(&mut t2, t, b"x");
    t1.update(t, b"x", b"a").unwrap();
    t2.update(t, b"x", b"b").unwrap();
    let r1 = t1.commit();
    let r2 = t2.commit();
    assert!(r1.is_ok() != r2.is_ok(), "exactly one read-modify-write must win: {r1:?} {r2:?}");
}

#[test]
fn phantom_detected_via_node_set() {
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(RW);
    for i in [10u8, 20, 30] {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();

    let mut t1 = w1.begin(RW);
    let mut n = 0;
    t1.scan(pk, &[0], &[100], None, |_, _| {
        n += 1;
        true
    })
    .unwrap();
    assert_eq!(n, 3);
    let mut t2 = w2.begin(RW);
    t2.insert(t, &[15], &[15]).unwrap();
    t2.commit().unwrap();
    t1.update(t, &[10], &[99]).unwrap();
    assert_eq!(t1.commit().unwrap_err(), AbortReason::Phantom);
}

#[test]
fn read_only_snapshots_survive_writers() {
    let db = fast_db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(RW);
    for i in 0..50u32 {
        setup.insert(t, &i.to_be_bytes(), &0u64.to_le_bytes()).unwrap();
    }
    setup.commit().unwrap();
    // Let a snapshot boundary pass so the values become snapshot-visible.
    std::thread::sleep(Duration::from_millis(20));

    let pk = db.primary_index(t);
    let mut ro = w1.begin(RO);
    let mut count = 0;
    ro.scan(pk, &0u32.to_be_bytes(), &50u32.to_be_bytes(), None, |_, _| {
        count += 1;
        true
    })
    .unwrap();
    assert_eq!(count, 50);

    // Writers overwrite everything; the read-only txn keeps working and
    // commits without validation.
    let mut writer = w2.begin(RW);
    for i in 0..50u32 {
        writer.update(t, &i.to_be_bytes(), &1u64.to_le_bytes()).unwrap();
    }
    writer.commit().unwrap();

    let mut count2 = 0;
    ro.scan(pk, &0u32.to_be_bytes(), &50u32.to_be_bytes(), None, |_, v| {
        assert_eq!(v, 0u64.to_le_bytes(), "snapshot reader must see pre-update values");
        count2 += 1;
        true
    })
    .unwrap();
    assert_eq!(count2, 50);
    ro.commit().unwrap();
}

#[test]
fn snapshot_chain_serves_old_values_after_multiple_updates() {
    let db = fast_db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(RW);
    setup.insert(t, b"k", b"gen-0").unwrap();
    setup.commit().unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let mut ro = w.begin(RO);
    // Updates across several snapshot epochs.
    let mut w2 = db.register_worker();
    for gen in 1..4 {
        let mut tx = w2.begin(RW);
        tx.update(t, b"k", format!("gen-{gen}").as_bytes()).unwrap();
        tx.commit().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(get(&mut ro, t, b"k").as_deref(), Some(&b"gen-0"[..]));
    ro.commit().unwrap();
}

#[test]
fn abort_rolls_back_speculative_insert() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    {
        let mut tx = w.begin(RW);
        tx.insert(t, b"ghost", b"1").unwrap();
        tx.abort();
    }
    let mut check = w.begin(RW);
    assert_eq!(get(&mut check, t, b"ghost"), None);
    check.commit().unwrap();
}

#[test]
fn revive_deleted_record() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(RW);
    tx.insert(t, b"k", b"v1").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(RW);
    tx.delete(t, b"k").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(RW);
    tx.insert(t, b"k", b"v2").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(RW);
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v2"[..]));
    tx.commit().unwrap();
}

#[test]
fn duplicate_live_insert_dooms() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(RW);
    tx.insert(t, b"k", b"v").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(RW);
    assert_eq!(tx.insert(t, b"k", b"x").unwrap_err(), AbortReason::DuplicateKey);
}

#[test]
fn secondary_index_roundtrip() {
    let db = db();
    let t = db.create_table("t");
    let sec = db.create_secondary_index(t, "t.sec");
    let mut w = db.register_worker();
    let mut tx = w.begin(RW);
    let h = tx.insert(t, b"pk-1", b"data").unwrap();
    tx.insert_secondary(sec, b"sk-1", h).unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(RW);
    let via = tx.read_secondary(sec, b"sk-1", |v| v.to_vec()).unwrap();
    assert_eq!(via.as_deref(), Some(&b"data"[..]));
    tx.commit().unwrap();
}

#[test]
fn concurrent_transfers_preserve_invariant() {
    const ACCOUNTS: u64 = 16;
    const TRANSFERS: u64 = 1500;
    let db = db();
    let t = db.create_table("accounts");
    let mut w = db.register_worker();
    let mut setup = w.begin(RW);
    for i in 0..ACCOUNTS {
        setup.insert(t, &i.to_be_bytes(), &100i64.to_le_bytes()).unwrap();
    }
    setup.commit().unwrap();

    std::thread::scope(|s| {
        for tidx in 0..3u64 {
            let db = db.clone();
            s.spawn(move || {
                let mut w = db.register_worker();
                let mut rng = SplitMix64::new(tidx.wrapping_mul(GAMMA) | 1);
                let mut done = 0;
                while done < TRANSFERS {
                    let (from, to) = (rng.below(ACCOUNTS), rng.below(ACCOUNTS));
                    if from == to {
                        continue;
                    }
                    let mut tx = w.begin(RW);
                    let r = (|| -> ermia_common::OpResult<()> {
                        let fb = tx
                            .read(t, &from.to_be_bytes(), |v| {
                                i64::from_le_bytes(v.try_into().unwrap())
                            })?
                            .unwrap();
                        let tb = tx
                            .read(t, &to.to_be_bytes(), |v| {
                                i64::from_le_bytes(v.try_into().unwrap())
                            })?
                            .unwrap();
                        tx.update(t, &from.to_be_bytes(), &(fb - 1).to_le_bytes())?;
                        tx.update(t, &to.to_be_bytes(), &(tb + 1).to_le_bytes())?;
                        Ok(())
                    })();
                    match r {
                        Ok(()) => {
                            if tx.commit().is_ok() {
                                done += 1;
                            }
                        }
                        Err(_) => tx.abort(),
                    }
                }
            });
        }
    });

    let mut check = w.begin(RW);
    let mut total = 0i64;
    for i in 0..ACCOUNTS {
        total += check
            .read(t, &i.to_be_bytes(), |v| i64::from_le_bytes(v.try_into().unwrap()))
            .unwrap()
            .unwrap();
    }
    check.commit().unwrap();
    assert_eq!(total, (ACCOUNTS as i64) * 100, "money must be conserved");
}

#[test]
fn commit_tids_are_monotonic_per_worker() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(RW);
    setup.insert(t, b"k", b"0").unwrap();
    setup.commit().unwrap();
    let word = AtomicU64::new(0);
    for i in 0..100u32 {
        let mut tx = w.begin(RW);
        tx.update(t, b"k", &i.to_le_bytes()).unwrap();
        tx.commit().unwrap();
        // Observe the record's TID word: strictly increasing.
        let mut check = w.begin(RW);
        let _ = get(&mut check, t, b"k");
        check.commit().unwrap();
        let _ = word.load(Ordering::Relaxed);
    }
    let (commits, aborts) = db.txn_counts();
    assert_eq!(aborts, 0);
    assert!(commits >= 201);
}

#[test]
fn concurrent_insert_conflicts_instead_of_reviving() {
    // An in-flight insert's pure-ABSENT record must not be "revived" by
    // a second inserter of the same key (that aliasing caused a real
    // use-after-free before the fix).
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut t1 = w1.begin(RW);
    t1.insert(t, b"k", b"first").unwrap();
    let mut t2 = w2.begin(RW);
    assert_eq!(t2.insert(t, b"k", b"second").unwrap_err(), AbortReason::DuplicateKey);
    drop(t2);
    t1.commit().unwrap();
    let mut check = w1.begin(RW);
    assert_eq!(get(&mut check, t, b"k").as_deref(), Some(&b"first"[..]));
    check.commit().unwrap();
}

#[test]
fn insert_abort_then_other_insert_succeeds() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    {
        let mut t1 = w1.begin(RW);
        t1.insert(t, b"k", b"doomed").unwrap();
        t1.abort();
    }
    let mut t2 = w2.begin(RW);
    t2.insert(t, b"k", b"winner").unwrap();
    t2.commit().unwrap();
    let mut check = w1.begin(RW);
    assert_eq!(get(&mut check, t, b"k").as_deref(), Some(&b"winner"[..]));
    check.commit().unwrap();
}

#[test]
fn own_delete_then_ops_within_txn() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(RW);
    setup.insert(t, b"k", b"v0").unwrap();
    setup.commit().unwrap();

    let mut tx = w.begin(RW);
    assert!(tx.delete(t, b"k").unwrap());
    assert_eq!(get(&mut tx, t, b"k"), None);
    assert!(!tx.update(t, b"k", b"x").unwrap(), "update after own delete misses");
    assert!(!tx.delete(t, b"k").unwrap(), "double delete misses");
    // Re-insert within the same transaction revives the buffered entry.
    tx.insert(t, b"k", b"v1").unwrap();
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v1"[..]));
    tx.commit().unwrap();
    let mut check = w.begin(RW);
    assert_eq!(get(&mut check, t, b"k").as_deref(), Some(&b"v1"[..]));
    check.commit().unwrap();
}

#[test]
fn scan_sees_own_pending_writes() {
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w = db.register_worker();
    let mut setup = w.begin(RW);
    for i in 0..5u8 {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();

    let mut tx = w.begin(RW);
    tx.update(t, &[2], &[99]).unwrap();
    tx.delete(t, &[3]).unwrap();
    let mut seen = Vec::new();
    tx.scan(pk, &[0], &[10], None, |k, v| {
        seen.push((k[0], v[0]));
        true
    })
    .unwrap();
    assert_eq!(seen, vec![(0, 0), (1, 1), (2, 99), (4, 4)]);
    tx.abort();
}

#[test]
fn read_only_without_snapshots_still_validates() {
    let db = SiloDb::open(SiloConfig { snapshots: false, ..SiloConfig::default() });
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(RW);
    setup.insert(t, b"k", b"0").unwrap();
    setup.commit().unwrap();

    let mut ro = w1.begin(RO);
    let _ = get(&mut ro, t, b"k");
    let mut writer = w2.begin(RW);
    writer.update(t, b"k", b"1").unwrap();
    writer.commit().unwrap();
    // Without snapshots the "read-only" txn validated its read set.
    assert_eq!(ro.commit().unwrap_err(), AbortReason::ReadValidation);
}
