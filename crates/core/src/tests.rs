use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ermia_common::rng::{SplitMix64, GAMMA};
use ermia_common::{AbortReason, TestDir};

use crate::{Database, DbConfig, IsolationLevel};

fn db() -> Database {
    Database::open(DbConfig::in_memory()).unwrap()
}

thread_local! {
    /// Run once by this thread's next `Txn::begin`, between its
    /// TID claim and its snapshot.
    pub(crate) static IN_BEGIN: Cell<Option<Box<dyn FnOnce()>>> = const { Cell::new(None) };
}

const SI: IsolationLevel = IsolationLevel::Snapshot;
const SSN: IsolationLevel = IsolationLevel::Serializable;

fn get(tx: &mut crate::Transaction<'_>, t: ermia_common::TableId, k: &[u8]) -> Option<Vec<u8>> {
    tx.read(t, k, |v| v.to_vec()).unwrap()
}

#[test]
fn insert_read_update_delete_roundtrip() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();

    let mut tx = w.begin(SSN);
    tx.insert(t, b"k1", b"v1").unwrap();
    tx.commit().unwrap();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"k1").as_deref(), Some(&b"v1"[..]));
    assert!(tx.update(t, b"k1", b"v2").unwrap());
    assert_eq!(get(&mut tx, t, b"k1").as_deref(), Some(&b"v2"[..]), "read-your-writes");
    tx.commit().unwrap();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"k1").as_deref(), Some(&b"v2"[..]));
    assert!(tx.delete(t, b"k1").unwrap());
    assert_eq!(get(&mut tx, t, b"k1"), None, "deleted in own snapshot");
    tx.commit().unwrap();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"k1"), None);
    tx.commit().unwrap();
}

#[test]
fn update_missing_key_returns_false() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(SSN);
    assert!(!tx.update(t, b"nope", b"x").unwrap());
    assert!(!tx.delete(t, b"nope").unwrap());
    tx.commit().unwrap();
}

#[test]
fn snapshot_isolation_basic() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    let mut setup = w1.begin(SI);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    // Reader begins first; writer commits afterwards; reader must keep
    // seeing the old value (repeatable snapshot).
    let mut reader = w1.begin(SI);
    assert_eq!(get(&mut reader, t, b"x").as_deref(), Some(&b"0"[..]));

    let mut writer = w2.begin(SI);
    assert!(writer.update(t, b"x", b"1").unwrap());
    // Uncommitted: invisible to the reader.
    assert_eq!(get(&mut reader, t, b"x").as_deref(), Some(&b"0"[..]));
    writer.commit().unwrap();
    // Committed after the reader began: still invisible.
    assert_eq!(get(&mut reader, t, b"x").as_deref(), Some(&b"0"[..]));
    reader.commit().unwrap();

    // A fresh snapshot sees the new value.
    let mut tx = w1.begin(SI);
    assert_eq!(get(&mut tx, t, b"x").as_deref(), Some(&b"1"[..]));
    tx.commit().unwrap();
}

#[test]
fn first_updater_wins() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    let mut setup = w1.begin(SI);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let mut t1 = w1.begin(SI);
    let mut t2 = w2.begin(SI);
    assert!(t1.update(t, b"x", b"a").unwrap());
    // t2 hits t1's uncommitted head version — the write lock — and is
    // doomed immediately (early abort, not at commit).
    let err = t2.update(t, b"x", b"b").unwrap_err();
    assert_eq!(err, AbortReason::WriteWriteConflict);
    assert!(t2.is_doomed());
    // Further operations fail fast with the original reason.
    assert_eq!(t2.read(t, b"x", |_| ()).unwrap_err(), AbortReason::WriteWriteConflict);
    assert_eq!(t2.commit().unwrap_err(), AbortReason::WriteWriteConflict);
    t1.commit().unwrap();
}

#[test]
fn committed_head_newer_than_snapshot_blocks_update() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    let mut setup = w1.begin(SI);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let mut t1 = w1.begin(SI); // snapshot before t2's commit
    let mut t2 = w2.begin(SI);
    t2.update(t, b"x", b"1").unwrap();
    t2.commit().unwrap();
    // t1's snapshot predates the committed head: lost-update prevention.
    assert_eq!(t1.update(t, b"x", b"2").unwrap_err(), AbortReason::WriteWriteConflict);
}

#[test]
fn abort_rolls_back_everything() {
    let db = db();
    let t = db.create_table("t");
    let idx = db.create_secondary_index(t, "t.sec");
    let mut w = db.register_worker();

    let mut setup = w.begin(SI);
    setup.insert(t, b"old", b"1").unwrap();
    setup.commit().unwrap();

    let mut tx = w.begin(SI);
    let oid = tx.insert(t, b"new", b"2").unwrap();
    tx.insert_secondary(idx, b"sec-new", oid).unwrap();
    tx.update(t, b"old", b"changed").unwrap();
    tx.abort();

    let mut check = w.begin(SI);
    assert_eq!(get(&mut check, t, b"new"), None, "insert rolled back");
    assert_eq!(get(&mut check, t, b"old").as_deref(), Some(&b"1"[..]), "update rolled back");
    assert_eq!(check.read_secondary(idx, b"sec-new", |v| v.to_vec()).unwrap(), None);
    check.commit().unwrap();
}

#[test]
fn dropping_transaction_aborts() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    {
        let mut tx = w.begin(SI);
        tx.insert(t, b"ghost", b"1").unwrap();
        // dropped without commit
    }
    let mut check = w.begin(SI);
    assert_eq!(get(&mut check, t, b"ghost"), None);
    check.commit().unwrap();
    let (commits, aborts) = db.txn_counts();
    assert_eq!(commits, 1);
    assert_eq!(aborts, 1);
}

#[test]
fn reinsert_after_delete_revives() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();

    let mut tx = w.begin(SI);
    tx.insert(t, b"k", b"v1").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    tx.delete(t, b"k").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    tx.insert(t, b"k", b"v2").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v2"[..]));
    tx.commit().unwrap();
}

#[test]
fn duplicate_insert_dooms() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    tx.insert(t, b"k", b"v").unwrap();
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    assert_eq!(tx.insert(t, b"k", b"v2").unwrap_err(), AbortReason::DuplicateKey);
}

#[test]
fn write_skew_prevented_by_ssn_allowed_by_si() {
    // Classic write skew: constraint x + y >= 0, both start at 50.
    // T1 reads both, sets x = x - 90; T2 reads both, sets y = y - 90.
    // Under SI both commit (non-serializable); under SSN one aborts.
    for (iso, expect_both) in [(SI, true), (SSN, false)] {
        let db = db();
        let t = db.create_table("t");
        let mut w1 = db.register_worker();
        let mut w2 = db.register_worker();
        let mut setup = w1.begin(SI);
        setup.insert(t, b"x", b"50").unwrap();
        setup.insert(t, b"y", b"50").unwrap();
        setup.commit().unwrap();

        let mut t1 = w1.begin(iso);
        let mut t2 = w2.begin(iso);
        let _ = get(&mut t1, t, b"x");
        let _ = get(&mut t1, t, b"y");
        let _ = get(&mut t2, t, b"x");
        let _ = get(&mut t2, t, b"y");
        t1.update(t, b"x", b"-40").unwrap();
        t2.update(t, b"y", b"-40").unwrap();
        let r1 = t1.commit();
        let r2 = t2.commit();
        if expect_both {
            assert!(r1.is_ok() && r2.is_ok(), "SI permits write skew");
        } else {
            assert!(
                r1.is_ok() != r2.is_ok(),
                "SSN must abort exactly one of the write-skew pair: {r1:?} {r2:?}"
            );
            let failed = r1.err().or(r2.err()).expect("one side aborted");
            assert_eq!(failed, AbortReason::SsnExclusion);
        }
    }
}

#[test]
fn phantom_prevented_under_ssn() {
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let pk = db.primary_index(t);

    let mut setup = w1.begin(SI);
    for i in [10u8, 20, 30] {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();

    // t1 scans [0, 100], then t2 inserts 15 into the range and commits,
    // then t1 writes something (so it is not read-only) and commits.
    let mut t1 = w1.begin(SSN);
    let mut n = 0;
    t1.scan(pk, &[0], &[100], None, |_, _| {
        n += 1;
        true
    })
    .unwrap();
    assert_eq!(n, 3);
    let mut t2 = w2.begin(SSN);
    t2.insert(t, &[15], &[15]).unwrap();
    t2.commit().unwrap();

    t1.insert(t, &[200], &[200]).unwrap();
    assert_eq!(t1.commit().unwrap_err(), AbortReason::Phantom);
}

#[test]
fn scan_sees_consistent_snapshot() {
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();

    let mut setup = w1.begin(SI);
    for i in 0..20u8 {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();

    let mut reader = w1.begin(SI);
    // Interleave: writer updates half the range and inserts new keys.
    let mut writer = w2.begin(SI);
    for i in 0..10u8 {
        writer.update(t, &[i], &[100 + i]).unwrap();
    }
    writer.insert(t, &[50], &[50]).unwrap();
    writer.commit().unwrap();

    let mut seen = Vec::new();
    reader
        .scan(pk, &[0], &[99], None, |k, v| {
            seen.push((k.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
    // The reader's snapshot: original 20 keys, original values, no 50.
    assert_eq!(seen.len(), 20);
    for (k, v) in &seen {
        assert_eq!(k, v, "reader must see pre-update values");
    }
    reader.commit().unwrap();
}

#[test]
fn scan_limit_stops_early() {
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..100u8 {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();
    let mut tx = w.begin(SI);
    let n = tx.scan(pk, &[0], &[255], Some(7), |_, _| true).unwrap();
    assert_eq!(n, 7);
    tx.commit().unwrap();
}

#[test]
fn secondary_index_read_and_scan() {
    let db = db();
    let t = db.create_table("people");
    let by_name = db.create_secondary_index(t, "people.by_name");
    let mut w = db.register_worker();

    let mut tx = w.begin(SI);
    let o1 = tx.insert(t, b"id-1", b"alice-data").unwrap();
    tx.insert_secondary(by_name, b"alice", o1).unwrap();
    let o2 = tx.insert(t, b"id-2", b"bob-data").unwrap();
    tx.insert_secondary(by_name, b"bob", o2).unwrap();
    tx.commit().unwrap();

    let mut tx = w.begin(SI);
    let data = tx.read_secondary(by_name, b"alice", |v| v.to_vec()).unwrap();
    assert_eq!(data.as_deref(), Some(&b"alice-data"[..]));
    let mut names = Vec::new();
    tx.scan(by_name, b"a", b"z", None, |k, _| {
        names.push(k.to_vec());
        true
    })
    .unwrap();
    assert_eq!(names, vec![b"alice".to_vec(), b"bob".to_vec()]);
    tx.commit().unwrap();
}

#[test]
fn long_reader_survives_concurrent_writers() {
    // The paper's headline behaviour: under multi-versioning,
    // read-write conflicts never abort readers.
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..200u32 {
        setup.insert(t, &i.to_be_bytes(), &0u64.to_le_bytes()).unwrap();
    }
    setup.commit().unwrap();

    let stop = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Writers hammer the range.
        for _ in 0..2 {
            let db = db.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut w = db.register_worker();
                let mut i = 0u32;
                while stop.load(Ordering::Relaxed) == 0 {
                    let mut tx = w.begin(SI);
                    let k = (i % 200).to_be_bytes();
                    let ok = tx.update(t, &k, &(i as u64).to_le_bytes());
                    if ok.is_ok() {
                        let _ = tx.commit();
                    }
                    i += 1;
                }
            });
        }
        // A long reader scans the whole table repeatedly; every scan must
        // succeed and see a consistent snapshot.
        let dbr = db.clone();
        let stopr = &stop;
        s.spawn(move || {
            let mut w = dbr.register_worker();
            for _ in 0..30 {
                let mut tx = w.begin(SI);
                let mut count = 0;
                tx.scan(pk, &0u32.to_be_bytes(), &200u32.to_be_bytes(), None, |_, _| {
                    count += 1;
                    true
                })
                .expect("reader must never be doomed under SI");
                assert_eq!(count, 200);
                tx.commit().expect("reader commit must succeed");
            }
            stopr.store(1, Ordering::Relaxed);
        });
    });
}

#[test]
fn concurrent_transfers_preserve_invariant() {
    // N accounts, random transfers; total balance must be conserved.
    const ACCOUNTS: u64 = 16;
    const TRANSFERS: u64 = 2000;
    let db = db();
    let t = db.create_table("accounts");
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
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
                    let mut tx = w.begin(SI);
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

    let mut check = w.begin(SI);
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
fn read_only_commit_is_cheap() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    setup.insert(t, b"k", b"v").unwrap();
    setup.commit().unwrap();

    let allocs_before = db.log().stats().allocations.load(Ordering::Relaxed);
    for _ in 0..10 {
        let mut tx = w.begin(SSN);
        let _ = get(&mut tx, t, b"k");
        tx.commit().unwrap();
    }
    let allocs_after = db.log().stats().allocations.load(Ordering::Relaxed);
    assert_eq!(allocs_before, allocs_after, "read-only commits allocate no log space");
}

#[test]
fn a_committed_writer_makes_one_log_reservation() {
    // Per-transaction logging (§3.3): however many records a transaction
    // writes, it takes one round trip to the centralized log buffer.
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    for writes in [1u8, 5, 40] {
        let before = db.log().stats().allocations.load(Ordering::Relaxed);
        let mut tx = w.begin(SI);
        for i in 0..writes {
            if !tx.update(t, &[i], &[writes]).unwrap() {
                tx.insert(t, &[i], &[writes]).unwrap();
            }
        }
        tx.commit().unwrap();
        let after = db.log().stats().allocations.load(Ordering::Relaxed);
        assert_eq!(after - before, 1, "{writes} writes");
    }
}

/// `commit()` waits for its block iff the log has a directory: durable,
/// it returns with the block durable; in memory, it registers no waiter.
#[test]
fn commit_waits_for_its_block_iff_the_log_has_a_directory() {
    let dir = TestDir::new("commit-waits");
    for durable in [true, false] {
        let cfg = if durable { DbConfig::durable(&dir) } else { DbConfig::in_memory() };
        let db = Database::open(cfg).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let registrations = db.log().waiter_registrations();
        for i in 0..3u8 {
            let mut tx = w.begin(SI);
            tx.insert(t, &[i], b"v").unwrap();
            tx.commit().unwrap();
            if durable {
                assert!(db.log().durable_offset() >= db.log().next_offset(), "commit {i}");
            }
        }
        if !durable {
            assert_eq!(db.log().waiter_registrations(), registrations);
        }
    }
}

#[test]
fn checkpoint_and_recovery_roundtrip() {
    let dir = TestDir::new("recovery");
    let schema = |db: &Database| {
        let t = db.create_table("t");
        let idx = db.create_secondary_index(t, "t.sec");
        (t, idx)
    };
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let (t, idx) = schema(&db);
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        for i in 0..50u32 {
            let oid = tx.insert(t, &i.to_be_bytes(), format!("val-{i}").as_bytes()).unwrap();
            tx.insert_secondary(idx, &(1000 + i).to_be_bytes(), oid).unwrap();
        }
        tx.commit().unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint work that must come back via log replay.
        let mut tx = w.begin(SI);
        tx.update(t, &7u32.to_be_bytes(), b"updated-after-checkpoint").unwrap();
        tx.insert(t, &999u32.to_be_bytes(), b"post-checkpoint-insert").unwrap();
        tx.delete(t, &9u32.to_be_bytes()).unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
    }
    // Reopen: look the schema up (the catalog came back with `open`), recover, verify.
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let (t, idx) = schema(&db);
        let stats = db.recover().unwrap();
        assert!(stats.checkpoint_records >= 50);
        assert!(stats.replayed_records >= 3);

        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, &0u32.to_be_bytes()).as_deref(), Some(&b"val-0"[..]));
        assert_eq!(
            get(&mut tx, t, &7u32.to_be_bytes()).as_deref(),
            Some(&b"updated-after-checkpoint"[..])
        );
        assert_eq!(
            get(&mut tx, t, &999u32.to_be_bytes()).as_deref(),
            Some(&b"post-checkpoint-insert"[..])
        );
        assert_eq!(get(&mut tx, t, &9u32.to_be_bytes()), None, "delete must replay");
        let via_sec = tx.read_secondary(idx, &1003u32.to_be_bytes(), |v| v.to_vec()).unwrap();
        assert_eq!(via_sec.as_deref(), Some(&b"val-3"[..]));
        tx.commit().unwrap();
    }
}

#[test]
fn recovery_without_checkpoint_replays_whole_log() {
    let dir = TestDir::new("recovery-nochk");
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, b"a", b"1").unwrap();
        tx.insert(t, b"b", b"2").unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
    }
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let stats = db.recover().unwrap();
        assert_eq!(stats.checkpoint_records, 0);
        assert_eq!(stats.replayed_records, 2);
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(get(&mut tx, t, b"b").as_deref(), Some(&b"2"[..]));
        tx.commit().unwrap();
    }
}

/// The tentpole, on one shard: tables and indexes come back from the log
/// alone — ids, in any creation order — and stay after a checkpoint has
/// let truncation retire the segments their first entries were in.
#[test]
fn a_directory_reopens_as_the_database_it_was() {
    let dir = TestDir::new("self-describing");
    let open = || {
        let mut cfg = DbConfig::durable(&dir);
        cfg.log.segment_size = 8192;
        Database::open(cfg).unwrap()
    };
    let (b, a, idx);
    {
        let db = open();
        b = db.create_table("b");
        a = db.create_table("a");
        idx = db.create_secondary_index(a, "a.sec");
        let mut w = db.register_worker();
        for i in 0..100u32 {
            let mut tx = w.begin(SI);
            tx.insert(b, &i.to_be_bytes(), &[0xB0; 128]).unwrap();
            let oid = tx.insert(a, &i.to_be_bytes(), &[0xA0; 128]).unwrap();
            tx.insert_secondary(idx, &(1000 + i).to_be_bytes(), oid).unwrap();
            tx.commit().unwrap();
        }
    }
    for restart in 0..3 {
        let db = open();
        assert_eq!((db.table_id("b"), db.table_id("a")), (Some(b), Some(a)), "restart {restart}");
        assert_eq!(db.index_id("a.sec"), Some(idx), "restart {restart}");
        // A known name is a lookup: nothing is appended for it.
        let tail = db.log().next_offset();
        assert_eq!((db.create_table("a"), db.create_secondary_index(a, "a.sec")), (a, idx));
        assert_eq!(db.log().next_offset(), tail, "restart {restart}");
        db.recover().unwrap();
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        for i in [0u32, 57, 99] {
            assert_eq!(get(&mut tx, b, &i.to_be_bytes()).as_deref(), Some(&[0xB0; 128][..]));
            let via = tx.read_secondary(idx, &(1000 + i).to_be_bytes(), |v| v.to_vec()).unwrap();
            assert_eq!(via.as_deref(), Some(&[0xA0; 128][..]), "restart {restart}");
        }
        tx.commit().unwrap();
        if restart == 0 {
            db.checkpoint().unwrap();
            assert!(db.truncate_log().unwrap() > 0, "the first catalog entries' segment goes");
        }
    }
}

/// A log written without catalog entries (`Txn` blocks for table 0
/// straight through the log manager, no `Ddl` block) recovers when its
/// table is declared first — and fails, naming the table and the block,
/// when it is not: recovery files no such row under `skipped_stale`.
#[test]
fn a_log_without_a_catalog_needs_its_tables_declared_and_says_so() {
    use ermia_common::{Oid, TableId};
    use ermia_log::{BlockEncoder, BlockKind, LogRecordKind, BLOCK_HEADER_LEN, RECORD_HEADER_LEN};
    for declare in [true, false] {
        let dir = TestDir::new("pre-catalog-log");
        let cfg = DbConfig::durable(&dir);
        {
            let log = ermia_log::LogManager::open(cfg.log.clone()).unwrap();
            let res = log.allocate(BLOCK_HEADER_LEN + RECORD_HEADER_LEN + 2).unwrap();
            let mut block = vec![0; res.len()];
            let mut enc = BlockEncoder::block(&mut block, &mut []);
            enc.record(LogRecordKind::Insert, TableId(0), Oid(0), b"k", b"v");
            enc.finish(BlockKind::Txn, res.lsn());
            res.fill(&block);
            log.sync().unwrap();
        }
        let db = Database::open(cfg).unwrap();
        if !declare {
            let err = db.recover().expect_err("a row of an unknown table");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("unknown table 0"), "{err}");
            continue;
        }
        let t = db.create_table("t");
        let stats = db.recover().unwrap();
        assert_eq!((stats.replayed_blocks, stats.replayed_records, stats.skipped_stale), (1, 1, 0));
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v"[..]));
        tx.commit().unwrap();
    }
}

#[test]
fn gc_reclaims_old_versions() {
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    tx.insert(t, b"hot", b"0").unwrap();
    tx.commit().unwrap();
    // Pile up versions.
    for i in 0..500u32 {
        let mut tx = w.begin(SI);
        tx.update(t, b"hot", &i.to_le_bytes()).unwrap();
        tx.commit().unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let stats = db.epoch_stats();
    // The unified epoch manager must have retired old versions — either
    // freed outright or parked in the reuse pool.
    assert!(
        stats.freed > 0 || db.version_pool_size() > 0,
        "gc must reclaim old versions: {stats:?}"
    );
    // And the table still reads correctly.
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, b"hot").as_deref(), Some(&499u32.to_le_bytes()[..]));
    tx.commit().unwrap();
}

#[test]
fn a_collector_pass_inside_begin_leaves_the_snapshot_its_row() {
    // A newer version commits and collector passes run while a reader is
    // inside `begin`. Had the reader taken its snapshot before its claim
    // was visible, a pass would take a horizon above that snapshot and
    // unlink the version it reads: the row would read as absent.
    let db = db();
    let t = db.create_table("t");
    let (mut w, mut w2) = (db.register_worker(), db.register_worker());
    let mut setup = w.begin(SI);
    setup.insert(t, b"k", b"old").unwrap();
    setup.commit().unwrap();
    let inner = db.clone();
    IN_BEGIN.with(|f| {
        f.set(Some(Box::new(move || {
            let mut tx = w2.begin(SI);
            tx.update(t, b"k", b"new").unwrap();
            tx.commit().unwrap();
            let passes = &inner.gc_stats().passes;
            let seen = passes.load(Ordering::Relaxed);
            while passes.load(Ordering::Relaxed) < seen + 3 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })))
    });
    let mut reader = w.begin(SI);
    assert_eq!(get(&mut reader, t, b"k").as_deref(), Some(&b"new"[..]));
    reader.commit().unwrap();
}

/// What an open transaction holds between operations stays valid with no
/// epoch pin (`transaction.rs`, "Why what it holds stays valid
/// unpinned"). A Serializable transaction reads hot rows and overwrites
/// one, then sits idle while another worker overwrites every hot row
/// again and again, the epoch advances ten times and the collector
/// passes. Every pointer it holds still dereferences to the stamp and
/// payload it had, and its verdict is the one a twin run gets that holds
/// an epoch pin across the same idle window: with a reader of the row it
/// overwrote committing after the first overwrite of its read set, an SSN
/// abort; without, a commit.
#[test]
fn an_idle_transaction_keeps_what_it_holds_unpinned() {
    for reader in [false, true] {
        let (verdict, rounds) = idle_ssn_run(reader, None);
        let (twin, _) = idle_ssn_run(reader, Some(rounds));
        assert_eq!(verdict, twin, "reader: {reader}");
        let want = if reader { Err(AbortReason::SsnExclusion) } else { Ok(()) };
        assert_eq!(verdict, want, "reader: {reader}");
    }
}

/// One run of [`an_idle_transaction_keeps_what_it_holds_unpinned`]: its
/// verdict and how many overwrite rounds ran while it sat idle. The twin
/// (`pinned_rounds`) pins the epoch through the idle window and runs that
/// many rounds.
fn idle_ssn_run(reader: bool, pinned_rounds: Option<u64>) -> (Result<(), AbortReason>, u64) {
    const HOT: u32 = 8;
    let db = db();
    let t = db.create_table("t");
    let key = |i: u32| format!("hot-{i}").into_bytes();
    let (mut w, mut churn) = (db.register_worker(), db.register_worker());
    let mut setup = churn.begin(SSN);
    for i in 0..HOT {
        setup.insert(t, &key(i), b"v0").unwrap();
    }
    setup.insert(t, b"x", b"x0").unwrap();
    setup.commit().unwrap();

    let mut subject = w.begin(SSN);
    for i in 0..HOT {
        assert_eq!(get(&mut subject, t, &key(i)).as_deref(), Some(&b"v0"[..]));
    }
    assert!(subject.update(t, b"x", b"mine").unwrap());
    let held = subject.pointees();
    assert_eq!(held.len(), HOT as usize + 1, "the read set and the overwritten version");

    let pin = pinned_rounds.map(|_| db.inner.epoch.register());
    let guard = pin.as_ref().map(|h| h.pin());
    let (advances0, passes0) =
        (db.epoch_stats().advances, db.gc_stats().passes.load(Ordering::Relaxed));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut rounds = 0u64;
    loop {
        for i in 0..HOT {
            let mut tx = churn.begin(SSN);
            assert!(tx.update(t, &key(i), &rounds.to_le_bytes()).unwrap());
            tx.commit().unwrap();
        }
        rounds += 1;
        if rounds == 1 && reader {
            // Reads the version beneath the subject's uncommitted head.
            let mut tx = churn.begin(SSN);
            assert_eq!(get(&mut tx, t, b"x").as_deref(), Some(&b"x0"[..]));
            tx.commit().unwrap();
        }
        let done = match pinned_rounds {
            Some(n) => rounds >= n,
            None => {
                let passes = db.gc_stats().passes.load(Ordering::Relaxed);
                db.epoch_stats().advances >= advances0 + 10 && passes >= passes0 + 3
            }
        };
        if done {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "epoch or collector stalled");
    }
    assert_eq!(subject.pointees(), held, "a version the idle transaction holds was reclaimed");
    drop(guard);
    (subject.commit().map(|_| ()), rounds)
}

#[test]
fn ssn_allows_serializable_histories() {
    // Simple non-conflicting updates must never be aborted by SSN.
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..10u8 {
        setup.insert(t, &[i], &[0]).unwrap();
    }
    setup.commit().unwrap();
    for round in 0..50u8 {
        let mut tx = w.begin(SSN);
        let i = round % 10;
        let _ = get(&mut tx, t, &[i]);
        tx.update(t, &[i], &[round]).unwrap();
        tx.commit().expect("sequential updates are serializable");
    }
}

#[test]
fn long_reader_sees_stable_value_despite_gc() {
    // A reader's snapshot version must survive GC while the reader lives.
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w.begin(SI);
    setup.insert(t, b"k", &0u64.to_le_bytes()).unwrap();
    setup.commit().unwrap();

    let mut reader = w.begin(SI);
    let v0 = reader.read(t, b"k", |v| u64::from_le_bytes(v.try_into().unwrap())).unwrap().unwrap();
    // Hammer updates so GC has plenty to truncate.
    for i in 1..300u64 {
        let mut tx = w2.begin(SI);
        tx.update(t, b"k", &i.to_le_bytes()).unwrap();
        tx.commit().unwrap();
        if i % 50 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    // The reader still sees its snapshot value.
    let v1 = reader.read(t, b"k", |v| u64::from_le_bytes(v.try_into().unwrap())).unwrap().unwrap();
    assert_eq!(v0, v1);
    reader.commit().unwrap();
}

#[test]
fn scan_resume_across_collection_cap() {
    // A tight limit forces the two-phase scan to resume collection; the
    // delivered sequence must still be exact and ordered.
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    for i in 0..500u32 {
        setup.insert(t, &i.to_be_bytes(), &i.to_le_bytes()).unwrap();
    }
    setup.commit().unwrap();
    // Delete every other row so visibility filtering forces resumption.
    let mut tx = w.begin(SI);
    for i in (0..500u32).step_by(2) {
        tx.delete(t, &i.to_be_bytes()).unwrap();
    }
    tx.commit().unwrap();

    let mut tx = w.begin(SI);
    let mut got = Vec::new();
    let n = tx
        .scan(pk, &0u32.to_be_bytes(), &500u32.to_be_bytes(), Some(100), |k, _| {
            got.push(u32::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
    assert_eq!(n, 100);
    let expect: Vec<u32> = (0..500).filter(|i| i % 2 == 1).take(100).collect();
    assert_eq!(got, expect);
    tx.commit().unwrap();
}

#[test]
fn update_then_delete_then_insert_same_txn() {
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut setup = w.begin(SI);
    setup.insert(t, b"k", b"v0").unwrap();
    setup.commit().unwrap();

    let mut tx = w.begin(SI);
    assert!(tx.update(t, b"k", b"v1").unwrap());
    assert!(tx.delete(t, b"k").unwrap());
    assert_eq!(get(&mut tx, t, b"k"), None);
    assert!(!tx.update(t, b"k", b"v2").unwrap(), "update after own delete misses");
    assert!(!tx.delete(t, b"k").unwrap(), "double delete misses");
    tx.insert(t, b"k", b"v3").unwrap();
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v3"[..]));
    tx.commit().unwrap();

    let mut check = w.begin(SI);
    assert_eq!(get(&mut check, t, b"k").as_deref(), Some(&b"v3"[..]));
    check.commit().unwrap();
}

#[test]
fn ssn_aborts_propagate_reason_through_commit() {
    // A doomed transaction's commit returns the original reason, and
    // counters attribute it as an abort.
    let db = db();
    let t = db.create_table("t");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(SI);
    setup.insert(t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let (c0, a0) = db.txn_counts();
    let mut t1 = w1.begin(SI);
    let mut t2 = w2.begin(SI);
    t1.update(t, b"x", b"a").unwrap();
    assert!(t2.update(t, b"x", b"b").is_err());
    assert_eq!(t2.commit().unwrap_err(), AbortReason::WriteWriteConflict);
    t1.commit().unwrap();
    let (c1, a1) = db.txn_counts();
    assert_eq!(c1 - c0, 1);
    assert_eq!(a1 - a0, 1);
}

#[test]
fn secondary_scan_respects_snapshot() {
    let db = db();
    let t = db.create_table("t");
    let sec = db.create_secondary_index(t, "t.sec");
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(SI);
    for i in 0..10u32 {
        let oid = setup.insert(t, &i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        setup.insert_secondary(sec, &(100 + i).to_be_bytes(), oid).unwrap();
    }
    setup.commit().unwrap();

    let mut reader = w1.begin(SI);
    // Writer adds a new record + secondary entry after the reader began.
    let mut writer = w2.begin(SI);
    let oid = writer.insert(t, &99u32.to_be_bytes(), &99u32.to_le_bytes()).unwrap();
    writer.insert_secondary(sec, &105u32.to_be_bytes(), oid).unwrap_err(); // dup key
    writer.abort();
    let mut writer = w2.begin(SI);
    let oid = writer.insert(t, &99u32.to_be_bytes(), &99u32.to_le_bytes()).unwrap();
    writer.insert_secondary(sec, &150u32.to_be_bytes(), oid).unwrap();
    writer.commit().unwrap();

    // The reader's secondary scan must not see the new entry's record.
    let mut count = 0;
    reader
        .scan(sec, &100u32.to_be_bytes(), &200u32.to_be_bytes(), None, |_, _| {
            count += 1;
            true
        })
        .unwrap();
    assert_eq!(count, 10, "snapshot scan must exclude post-begin inserts");
    reader.commit().unwrap();
}

#[test]
fn epoch_stats_visible_through_database() {
    let db = db();
    let stats = db.epoch_stats();
    // The ticker advances the unified timeline in the background.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let later = db.epoch_stats();
    assert!(later.epoch > stats.epoch, "unified epoch must tick");
}

#[test]
fn large_values_ride_the_log_and_recover() {
    let dir = TestDir::new("large-value-recovery");
    let big = vec![0xCDu8; 32 * 1024];
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, b"small", b"tiny-value").unwrap();
        tx.insert(t, b"large", &big).unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
    }
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        db.recover().unwrap();
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, b"small").as_deref(), Some(&b"tiny-value"[..]));
        assert_eq!(get(&mut tx, t, b"large"), Some(big));
        tx.commit().unwrap();
    }
}

/// A block longer than the ring can never be placed: its commit, plain or
/// a 2PC prepare, is refused `ResourceExhausted` before it claims log
/// space, and the worker goes on committing.
#[test]
fn a_commit_too_long_for_the_ring_aborts_resource_exhausted() {
    let db = db();
    let t = db.create_table("t");
    let big = vec![0x5Au8; 5 << 20];
    let mut w = db.register_worker();
    for prepare in [false, true] {
        let tail = db.log().next_offset();
        let mut tx = w.begin(SI);
        tx.insert(t, b"big", &big).unwrap();
        let marker = ermia_log::PrepareMarker {
            coord_shard: 0,
            participants: 1,
            coord_lsn: ermia_log::PrepareMarker::COORD_SELF,
            trace_hi: 0,
            trace_lo: 0,
        };
        let got = if prepare {
            tx.precommit(Some(marker)).map(|p| p.finish_commit(&mut w).lsn())
        } else {
            tx.commit()
        };
        assert_eq!(got, Err(AbortReason::ResourceExhausted), "prepare: {prepare}");
        assert_eq!(db.log().next_offset(), tail, "the refused block claimed log space");

        let small = format!("small-{prepare}");
        let mut tx = w.begin(SI);
        tx.insert(t, small.as_bytes(), b"v").unwrap();
        tx.commit().unwrap();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, b"big"), None);
        assert_eq!(get(&mut tx, t, small.as_bytes()).as_deref(), Some(&b"v"[..]));
        tx.commit().unwrap();
    }
}

#[test]
fn log_truncation_after_checkpoint() {
    let dir = TestDir::new("truncate");
    {
        let mut cfg = DbConfig::durable(&dir);
        cfg.log.segment_size = 8192; // force frequent rotations
        let db = Database::open(cfg).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        for i in 0..200u32 {
            let mut tx = w.begin(SI);
            tx.insert(t, &i.to_be_bytes(), &[0xAB; 128]).unwrap();
            tx.commit().unwrap();
        }
        db.log().sync().unwrap();
        let before = db.log().segments().all().len();
        assert!(before > 2, "need several segments to make truncation meaningful");
        db.checkpoint().unwrap();
        // Post-checkpoint work so the tail segment stays live.
        let mut tx = w.begin(SI);
        tx.insert(t, b"after", b"x").unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
        let removed = db.truncate_log().unwrap();
        assert!(removed > 0, "old segments must be retired");
        assert!(db.log().segments().all().len() < before);
    }
    // Recovery still works from checkpoint + surviving tail.
    {
        let mut cfg = DbConfig::durable(&dir);
        cfg.log.segment_size = 8192;
        let db = Database::open(cfg).unwrap();
        let t = db.create_table("t");
        let stats = db.recover().unwrap();
        assert!(stats.checkpoint_records >= 200);
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, &0u32.to_be_bytes()).as_deref(), Some(&[0xABu8; 128][..]));
        assert_eq!(get(&mut tx, t, b"after").as_deref(), Some(&b"x"[..]));
        tx.commit().unwrap();
    }
}

/// A log record's key length is a u16: the engine refuses a longer key on
/// entry, before it installs anything, and takes the longest that fits.
#[test]
fn a_key_longer_than_a_log_record_carries_is_refused_before_it_is_installed() {
    let db = db();
    let t = db.create_table("t");
    let idx = db.create_secondary_index(t, "t.sec");
    let long = vec![7u8; ermia_log::MAX_KEY_LEN + 1];
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    let oid = tx.insert(t, &long[1..], b"fits").unwrap();
    for op in 0..4 {
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
            0 => drop(tx.insert(t, &long, b"v")),
            1 => drop(tx.update(t, &long, b"v")),
            2 => drop(tx.delete(t, &long)),
            _ => drop(tx.insert_secondary(idx, &long, oid)),
        }));
        assert!(refused.is_err(), "operation {op} took a {}-byte key", long.len());
    }
    tx.commit().unwrap();
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, &long[1..]).as_deref(), Some(&b"fits"[..]));
    assert_eq!(tx.scan(db.primary_index(t), &[], &long, None, |_, _| true).unwrap(), 1);
    tx.commit().unwrap();
}

/// The checkpoint walks the whole key space: a row keyed above any fixed
/// bound (65 bytes of 0xFF sort above `[0xFF; 64]`), and its secondary
/// entry, come back from the checkpoint — replay starts past them — and
/// again once truncation has retired the log they were committed in.
#[test]
fn keys_above_any_fixed_bound_survive_a_checkpoint_and_truncation() {
    let dir = TestDir::new("high-keys");
    let open = || {
        let mut cfg = DbConfig::durable(&dir);
        cfg.log.segment_size = 8192;
        Database::open(cfg).unwrap()
    };
    let high = [0xFFu8; 65];
    {
        let db = open();
        let t = db.create_table("t");
        let idx = db.create_secondary_index(t, "t.sec");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        let oid = tx.insert(t, &high, b"above").unwrap();
        tx.insert_secondary(idx, &high, oid).unwrap();
        tx.commit().unwrap();
        for i in 0..100u32 {
            let mut tx = w.begin(SI);
            tx.insert(t, &i.to_be_bytes(), &[0xAB; 128]).unwrap();
            tx.commit().unwrap();
        }
        db.checkpoint().unwrap();
    }
    for round in 0..2 {
        let db = open();
        db.recover().unwrap();
        let (t, idx) = (db.table_id("t").unwrap(), db.index_id("t.sec").unwrap());
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        assert_eq!(get(&mut tx, t, &high).as_deref(), Some(&b"above"[..]), "round {round}");
        let via = tx.read_secondary(idx, &high, |v| v.to_vec()).unwrap();
        assert_eq!(via.as_deref(), Some(&b"above"[..]), "round {round}");
        tx.commit().unwrap();
        if round == 0 {
            assert!(db.truncate_log().unwrap() > 0, "the row's segment is retired");
        }
    }
}

/// A checkpoint is taken at a cut, its begin, and holds only versions
/// committed below it: an image stamped at or above its begin cannot be
/// written, so recovery refuses one as corruption, naming the table and
/// OID. Here a hand-made payload pairs key `k` with the log record of
/// `k2`'s insert, at that record's own stamp.
#[test]
fn a_checkpoint_image_at_or_above_its_begin_is_refused() {
    let dir = TestDir::new("image-above-begin");
    let oid = {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        let oid = tx.insert(t, b"k2", b"v2").unwrap();
        let stamp = tx.commit().unwrap();
        db.log().sync().unwrap();
        db.store_checkpoint(stamp, &image_at_begin(t, oid, stamp)).unwrap();
        oid
    };
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let err = db.recover().expect_err("an image at its checkpoint's begin");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let (t, text) = (db.table_id("t").unwrap(), err.to_string());
    assert!(text.contains(&format!("table {} OID {}", t.0, oid.0)), "{text}");
}

/// A checkpoint payload that ends inside a row, stored the way a replica
/// stores one a primary shipped, is refused `InvalidData` naming the
/// row's offset — never read past its end.
#[test]
fn a_truncated_checkpoint_payload_is_refused() {
    let dir = TestDir::new("truncated-payload");
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, b"k", b"v").unwrap();
        tx.commit().unwrap();
        db.checkpoint().unwrap();
        let (begin, payload) = db.latest_checkpoint().unwrap().expect("the checkpoint");
        db.store_checkpoint(begin, &payload[..payload.len() - 5]).unwrap();
    }
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let err = db.recover().expect_err("a payload cut inside its row");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("row at offset"), "{err}");
}

/// A payload in the layout before checkpoint rows were log records — one
/// table of no rows, no secondary index — stored the way a replica stores
/// what a primary ships, is refused `InvalidData`, never misread.
#[test]
fn a_shipped_payload_in_the_previous_layout_is_refused() {
    let dir = TestDir::new("previous-layout-payload");
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, b"k", b"v").unwrap();
        let stamp = tx.commit().unwrap();
        db.log().sync().unwrap();
        let payload: Vec<u8> = [1, t.0, 0, 0].iter().flat_map(|w: &u32| w.to_le_bytes()).collect();
        db.store_checkpoint(stamp, &payload).unwrap();
    }
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let err = db.recover().expect_err("a payload in the previous layout");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("earlier layout"), "{err}");
}

/// A checksummed log block holding an index entry whose value is no
/// 4-byte index id is corruption: recovery fails `InvalidData` naming
/// the block's LSN, before it admits any of the block.
#[test]
fn an_index_entry_without_an_index_id_is_refused() {
    use ermia_log::{BlockKind, LogRecordKind, BLOCK_HEADER_LEN, RECORD_HEADER_LEN};
    let dir = TestDir::new("short-index-entry");
    let lsn = {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let res = db.log().allocate(BLOCK_HEADER_LEN + RECORD_HEADER_LEN + 3).unwrap();
        let lsn = res.lsn();
        res.encode(BlockKind::Txn, |enc| {
            let oid = ermia_common::Oid(0);
            enc.record(LogRecordKind::SecondaryInsert, t, oid, b"k", &[1, 0]);
        });
        db.log().sync().unwrap();
        lsn
    };
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let err = db.recover().expect_err("an index entry with a 2-byte value");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(&format!("LSN {lsn:?}")), "{err}");
}

/// Every log image outranks every checkpoint image, whatever their
/// addresses: rows loaded a thousand to a transaction take fewer log bytes
/// than checkpoint bytes (a 16-byte record head against a row's 8-byte
/// stamp and the same record head), so the last row's offset in the
/// payload lies above the log offset of the update that follows the
/// checkpoint.
#[test]
fn a_log_image_outranks_every_checkpoint_image() {
    let dir = TestDir::new("log-over-checkpoint");
    let last = 9_999u32.to_be_bytes();
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        for base in (0..10_000u32).step_by(1000) {
            let mut tx = w.begin(SI);
            for i in base..base + 1000 {
                tx.insert(t, &i.to_be_bytes(), b"c").unwrap();
            }
            tx.commit().unwrap();
        }
        db.checkpoint().unwrap();
        let mut tx = w.begin(SI);
        assert!(tx.update(t, &last, b"l").unwrap());
        tx.commit().unwrap();
        db.log().sync().unwrap();
    }
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let stats = db.recover().unwrap();
    assert_eq!((stats.checkpoint_records, stats.built), (10_000, 10_000), "{stats:?}");
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, db.table_id("t").unwrap(), &last).as_deref(), Some(&b"l"[..]));
    tx.commit().unwrap();
}

/// A checkpoint payload of one row — `k` → `v2` on `oid`, stamped `stamp`:
/// stored under `stamp` as its begin, the image recovery refuses.
fn image_at_begin(t: ermia_common::TableId, oid: ermia_common::Oid, stamp: crate::Lsn) -> Vec<u8> {
    let mut rows = ermia_log::CheckpointRows::default();
    rows.image(stamp, t, oid, b"k", b"v2", false);
    rows.into_payload()
}

/// Recovery's step 1 ranks images as address words in the slots it
/// rebuilds; no exit may leave one for a reader or a drop to follow. Here
/// shard 1's step 1 refuses its checkpoint after shard 0's has written its
/// words: the error comes back, every shard-0 slot is null or a version,
/// and the engine drops cleanly.
#[test]
fn a_refused_shard_leaves_no_address_word_on_another() {
    let dir = TestDir::new("refused-shard-words");
    {
        let db = crate::ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        for i in 0..64u32 {
            let mut tx = w.begin(SI);
            tx.insert(t, &i.to_be_bytes(), b"v").unwrap();
            tx.commit().unwrap();
        }
        let shard = db.shard(1);
        let mut w = shard.register_worker();
        let mut tx = w.begin(SI);
        let oid = tx.insert(t, b"k2", b"v2").unwrap();
        let stamp = tx.commit().unwrap();
        (0..2).for_each(|s| db.shard(s).log().sync().unwrap());
        shard.store_checkpoint(stamp, &image_at_begin(t, oid, stamp)).unwrap();
    }
    let db = crate::ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
    let err = db.recover().expect_err("shard 1 holds an image at its checkpoint's begin");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let t = db.table_id("t").unwrap();
    let table = db.shard(0).inner.catalog.read().unwrap().tables[t.0 as usize].clone();
    assert!(table.oids.high_water() > 1, "shard 0's step 1 ranked its rows");
    table.oids.for_each(|oid, head| {
        assert!(!ermia_storage::OidArray::is_address(head), "shard 0 OID {} kept a word", oid.0);
    });
    drop(table);
    drop(db);
}

/// An address word step 2 meets no image for is `InvalidData` naming its
/// table and OID, and is cleared: the rows step 2 did build stay readable
/// and the engine drops cleanly.
#[test]
fn an_address_word_step_2_cannot_meet_is_refused_and_cleared() {
    let dir = TestDir::new("unmet-word");
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, b"k", b"v").unwrap();
        tx.commit().unwrap();
        db.log().sync().unwrap();
    }
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let t = db.table_id("t").unwrap();
    let table = db.inner.catalog.read().unwrap().tables[t.0 as usize].clone();
    let chosen = crate::LogApplier::choose(&db, None).unwrap();
    let planted = ermia_common::Oid(99);
    table.oids.ensure_allocated(planted);
    table.oids.store_head(planted, ermia_storage::OidArray::address_word(true, 1 << 40));
    let err = chosen.build(|_| false).err().expect("a word no image meets");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(&format!("table {} OID 99", t.0)), "{err}");
    assert!(table.oids.head(planted).is_null(), "the word is cleared");
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, b"k").as_deref(), Some(&b"v"[..]));
    tx.commit().unwrap();
}

/// The race a walk cannot see past: it reads key `k` for an OID, the
/// insert that owned `k` rolls back and recycles the OID, and another
/// insert (`k2`) commits on it before the walk reads the chain. That
/// commit lands above the cut, so the walk writes no image for `k` and
/// the log brings `k2` back — no stamp is in both, no tie to break.
#[test]
fn a_recycled_oid_committed_during_a_walk_is_left_to_the_log() {
    let dir = TestDir::new("recycled-during-walk");
    {
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let t = db.create_table("t");
        let table = db.inner.catalog.read().unwrap().tables[t.0 as usize].clone();
        let (mut wa, mut wb) = (db.register_worker(), db.register_worker());
        let cut = db.cut();
        let mut a = Some(wa.begin(SI));
        let oid = a.as_mut().unwrap().insert(t, b"k", b"v").unwrap();
        let handle = db.inner.epoch.register();
        let mut rows = ermia_log::CheckpointRows::default();
        crate::recovery::walk_index(&handle, &table.primary, |key, o| {
            assert_eq!((key, o), (&b"k"[..], oid.0 as u64), "the walk reads k");
            a.take().expect("one entry").abort();
            let mut b = wb.begin(SI);
            assert_eq!(b.insert(t, b"k2", b"v2").unwrap(), oid, "k2 takes k's OID");
            b.commit().unwrap();
            let tids = &db.inner.tid;
            // SAFETY: `walk_index` runs `row` under its pin.
            unsafe { crate::recovery::write_image(tids, &table, cut.stamp(), &mut rows, key, oid) }
        });
        let payload = rows.into_payload();
        ermia_log::read_rows(&payload, |_, _, rec| panic!("no image for k: {rec:?}")).unwrap();
        db.store_checkpoint(cut.stamp(), &payload).unwrap();
        db.log().sync().unwrap();
    }
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let stats = db.recover().unwrap();
    assert_eq!((stats.checkpoint_records, stats.built), (0, 1), "{stats:?}");
    let t = db.table_id("t").unwrap();
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, b"k2").as_deref(), Some(&b"v2"[..]));
    assert_eq!(get(&mut tx, t, b"k"), None);
    tx.commit().unwrap();
}

/// A checkpoint's rows are what a fork at the same cut scans. Writers update, delete, insert and roll inserts back
/// while one cut is handed to both the walk and a view, several times.
#[test]
fn a_checkpoint_holds_what_a_fork_at_its_cut_scans() {
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    const ROWS: u32 = 2_000;
    let dir = TestDir::new("cut-equivalence");
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let t = db.create_table("t");
    let row = |i: u32| format!("row-{i:08}").into_bytes();
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    for i in 0..ROWS {
        tx.insert(t, &row(i), &[0; 32]).unwrap();
    }
    tx.commit().unwrap();
    let (stop, committed) = (AtomicBool::new(false), AtomicU64::new(0));
    std::thread::scope(|s| {
        for seed in 1..=2u64 {
            let (db, stop, committed) = (&db, &stop, &committed);
            s.spawn(move || {
                let mut w = db.register_worker();
                let mut rng = SplitMix64::new(seed.wrapping_mul(GAMMA));
                let mut fresh = seed as u32 * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    let r = rng.next_u64();
                    let (key, value) = (row((r >> 33) as u32 % ROWS), r.to_le_bytes());
                    let mut tx = w.begin(SI);
                    let done = match r % 4 {
                        // An update of a deleted row inserts it again.
                        0 => match tx.update(t, &key, &value) {
                            Ok(false) => tx.insert(t, &key, &value).map(drop),
                            other => other.map(drop),
                        },
                        1 => tx.delete(t, &key).map(drop),
                        2 => {
                            fresh += 1;
                            tx.insert(t, &row(fresh), &[7; 24]).map(drop)
                        }
                        _ => {
                            let _ = tx.insert(t, format!("rolled-back-{seed}").as_bytes(), b"x");
                            tx.abort();
                            continue;
                        }
                    };
                    if done.is_ok() && tx.commit().is_ok() {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Stops the writers however the checks end: a failed one unwinds
        // past this, and the scope can join them.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _stop = Stop(&stop);
        // At least ten cuts, and enough that the churn overlaps the walks.
        for taken in 1.. {
            if taken > 10 && committed.load(Ordering::Relaxed) >= 2_000 {
                break;
            }
            let cut = db.cut();
            let payload = db.checkpoint_payload(&cut).unwrap();
            let begin = cut.stamp();
            let mut images = BTreeMap::new();
            ermia_log::read_rows(&payload, |_, stamp, rec| {
                assert!(stamp < begin, "an image at {stamp:?}, the cut is {begin:?}");
                if rec.kind == ermia_log::LogRecordKind::Insert {
                    images.insert(rec.key.to_vec(), rec.value.to_vec());
                }
                Ok(())
            })
            .unwrap();
            let view = db.view_over(cut, false);
            let mut vw = view.register_worker();
            let mut tx = vw.begin(SI);
            let mut scanned = BTreeMap::new();
            tx.scan(view.primary_index(t), &[], &[0xFF; 24], None, |k, v| {
                scanned.insert(k.to_vec(), v.to_vec());
                true
            })
            .unwrap();
            tx.commit().unwrap();
            assert_eq!(images.len(), scanned.len(), "rows at {begin:?}");
            assert!(images == scanned, "the checkpoint at {begin:?} differs from the view's scan");
        }
    });
}

/// Checkpoints taken in a loop while other threads churn recover to the
/// model: inserts of 40-byte keys that roll back (each retiring its long
/// key through the engine's epoch and recycling its OID), and committed
/// updates, deletes and fresh inserts (which take those OIDs). The log
/// below the last checkpoint — taken mid-churn — is truncated, so what
/// comes back stands on what that walk wrote.
#[test]
fn checkpoints_taken_under_churn_recover_to_the_model() {
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    const ROWS: u32 = 2_000;
    let dir = TestDir::new("checkpoint-churn");
    let open = || {
        let mut cfg = DbConfig::durable(&dir);
        cfg.log.segment_size = 1 << 16;
        Database::open(cfg).unwrap()
    };
    let row = |i: u32| format!("row-{i:020}").into_bytes();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = (0..ROWS).map(|i| (row(i), vec![0; 64])).collect();
    {
        let db = open();
        let t = db.create_table("t");
        let mut w = db.register_worker();
        for chunk in model.keys().collect::<Vec<_>>().chunks(500) {
            let mut tx = w.begin(SI);
            for key in chunk {
                tx.insert(t, key, &[0; 64]).unwrap();
            }
            tx.commit().unwrap();
        }
        let stop = AtomicBool::new(false);
        let (rolled_back, committed) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = db.register_worker();
                while !stop.load(Ordering::Relaxed) {
                    let n = rolled_back.fetch_add(1, Ordering::Relaxed);
                    let mut tx = w.begin(SI);
                    tx.insert(t, format!("rolled-back-{n:028}").as_bytes(), &[1; 64]).unwrap();
                    tx.abort();
                }
            });
            let writer = s.spawn(|| {
                let mut w = db.register_worker();
                let (mut rng, mut fresh) = (SplitMix64::new(GAMMA), ROWS);
                while !stop.load(Ordering::Relaxed) {
                    committed.fetch_add(1, Ordering::Relaxed);
                    let r = rng.next_u64();
                    let key = row((r >> 33) as u32 % fresh);
                    let value = r.to_le_bytes().repeat(8);
                    let mut tx = w.begin(SI);
                    match r % 3 {
                        0 if tx.update(t, &key, &value).unwrap() => {
                            model.insert(key, value);
                        }
                        1 if tx.delete(t, &key).unwrap() => {
                            model.remove(&key);
                        }
                        2 => {
                            tx.insert(t, &row(fresh), &value).unwrap();
                            model.insert(row(fresh), value);
                            fresh += 1;
                        }
                        _ => {}
                    }
                    tx.commit().unwrap();
                }
            });
            // At least 25 checkpoints, and enough that the churn overlaps
            // the walks.
            for taken in 1.. {
                db.checkpoint().unwrap();
                let churned = |n: &AtomicU64| n.load(Ordering::Relaxed) >= 2_000;
                if taken >= 25 && churned(&rolled_back) && churned(&committed) {
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            writer.join().unwrap();
        });
        assert!(db.truncate_log().unwrap() > 0, "the churn's log below the checkpoint goes");
        db.log().sync().unwrap();
        // Dropped without a shutdown: a crash.
    }
    let db = open();
    db.recover().unwrap();
    let t = db.table_id("t").unwrap();
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    let mut got = BTreeMap::new();
    tx.scan(db.primary_index(t), &[], &[0xFF; 41], None, |k, v| {
        got.insert(k.to_vec(), v.to_vec());
        true
    })
    .unwrap();
    tx.commit().unwrap();
    assert_eq!(got.len(), model.len(), "rows recovered vs committed");
    assert!(got == model, "the recovered table differs from the committed model");
}

#[test]
fn scratch_reuse_leaves_no_residue_across_transactions() {
    // All transactions below share one worker, so they recycle the same
    // scratch sets and key arena. An aborted transaction's writes must
    // vanish entirely and never bleed into the next transaction.
    let db = db();
    let t = db.create_table("t");
    let idx = db.create_secondary_index(t, "t.sec");
    let mut w = db.register_worker();

    let mut tx = w.begin(SSN);
    let oid = tx.insert(t, b"a", b"1").unwrap();
    tx.insert_secondary(idx, b"sec-a", oid).unwrap();
    tx.commit().unwrap();

    // Fill every working set, then abort.
    let mut tx = w.begin(SSN);
    let oid_b = tx.insert(t, b"b", b"2").unwrap();
    tx.insert_secondary(idx, b"sec-b", oid_b).unwrap();
    assert!(tx.update(t, b"a", b"1-dirty").unwrap());
    tx.abort();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"a").as_deref(), Some(&b"1"[..]));
    assert_eq!(get(&mut tx, t, b"b"), None, "aborted insert must not resurface");
    assert_eq!(tx.read_secondary(idx, b"sec-b", |v| v.to_vec()).unwrap(), None);
    assert_eq!(
        tx.read_secondary(idx, b"sec-a", |v| v.to_vec()).unwrap().as_deref(),
        Some(&b"1"[..])
    );
    // A fresh write on the recycled write set commits cleanly.
    assert!(tx.update(t, b"a", b"1-clean").unwrap());
    tx.commit().unwrap();

    let mut tx = w.begin(SSN);
    assert_eq!(get(&mut tx, t, b"a").as_deref(), Some(&b"1-clean"[..]));
    tx.commit().unwrap();
}

#[test]
fn version_nodes_recycle_through_worker_cache() {
    // Update churn retires old versions through the GC into the shared
    // pool; the worker's cache must start serving them back instead of
    // allocating.
    let db = db();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut tx = w.begin(SI);
    tx.insert(t, b"hot", b"0").unwrap();
    tx.commit().unwrap();

    let mut reused = 0;
    for _round in 0..100 {
        for i in 0..20u32 {
            let mut tx = w.begin(SI);
            tx.update(t, b"hot", &i.to_le_bytes()).unwrap();
            tx.commit().unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        reused = w.versions_reused();
        if reused > 0 {
            break;
        }
    }
    assert!(reused > 0, "worker cache never served a recycled version");
}

#[test]
fn worker_churn_keeps_counts_without_growing_registry() {
    // Short-lived workers must not grow the slab registry (or leak their
    // slabs): a retiring worker folds its counts into the retained
    // aggregate and leaves the live set, so the database-wide totals stay
    // complete *and* O(current workers).
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    for i in 0..8u32 {
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), b"v").unwrap();
        tx.commit().unwrap();
    }
    let reg = db.telemetry().registry();
    let commits = reg.family_counters(&crate::metrics::TXN_FAMILY)[crate::metrics::TXN_COMMITS];
    assert_eq!(commits, 8, "retired workers' counts are retained");
    assert_eq!(reg.live_slabs(&crate::metrics::TXN_FAMILY), 0, "no live slabs after churn");
}

#[test]
fn log_retention_handle_clamps_truncation_until_dropped() {
    // A backup shipper pins the log; truncation must stall behind the
    // pin and resume — retiring the same segments — once it drops.
    let dir = TestDir::new("retention");
    let mut cfg = DbConfig::durable(&dir);
    cfg.log.segment_size = 8192;
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    for i in 0..200u32 {
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), &[0xCD; 128]).unwrap();
        tx.commit().unwrap();
    }
    db.log().sync().unwrap();
    let before = db.log().segments().all().len();
    assert!(before > 2, "need several segments for truncation to bite");
    let pin = db.pin_log(0);
    db.checkpoint().unwrap();

    // Pinned at 0: nothing may be retired even though the checkpoint
    // would allow it.
    assert_eq!(db.truncate_log().unwrap(), 0, "retention pin must clamp truncation");
    assert_eq!(db.log().segments().all().len(), before);

    // Advancing the pin releases the prefix below it.
    let mid = db.log().segments().all()[1].start;
    pin.advance(mid);
    let partial = db.truncate_log().unwrap();
    assert!(partial >= 1, "advancing the pin must release the shipped prefix");
    assert!(db.log().segments().all().len() < before);

    // Dropping the handle resumes full truncation up to the checkpoint.
    let left = db.log().segments().all().len();
    drop(pin);
    let resumed = db.truncate_log().unwrap();
    assert!(resumed >= 1, "truncation must resume after the handle drops");
    assert!(db.log().segments().all().len() < left);

    // Data is intact throughout.
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, &0u32.to_be_bytes()).as_deref(), Some(&[0xCD_u8; 128][..]));
    tx.commit().unwrap();
    drop(db);
}

#[test]
fn fork_is_a_frozen_consistent_cut() {
    // A fork shares version chains with the primary: it must keep
    // serving the cut-time values while the primary overwrites them,
    // and it must refuse writes.
    let db = Database::open(DbConfig::in_memory()).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    for i in 0..50u32 {
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), b"v1").unwrap();
        tx.commit().unwrap();
    }

    let fork = db.fork();
    assert_eq!(db.fork_count(), 1, "live forks are counted");

    // The primary keeps committing: overwrites and fresh keys, enough
    // churn that GC would reclaim the old versions were they unpinned.
    for round in 0..6u32 {
        for i in 0..50u32 {
            let mut tx = w.begin(SI);
            tx.update(t, &i.to_be_bytes(), b"v2").unwrap();
            tx.commit().unwrap();
        }
        let mut tx = w.begin(SI);
        tx.insert(t, &(1000 + round).to_be_bytes(), b"new").unwrap();
        tx.commit().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(3));
    }

    // The fork still reads the cut: old values present, new keys absent.
    let mut fw = fork.register_worker();
    let mut tx = fw.begin(SI);
    for i in 0..50u32 {
        assert_eq!(get(&mut tx, t, &i.to_be_bytes()).as_deref(), Some(&b"v1"[..]), "key {i}");
    }
    assert_eq!(get(&mut tx, t, &1000u32.to_be_bytes()), None, "post-fork keys are invisible");
    tx.commit().unwrap();

    // Writes through the fork abort with the read-only reason.
    let mut tx = fw.begin(SI);
    match tx.update(t, &0u32.to_be_bytes(), b"nope") {
        Err(e) => assert_eq!(e, AbortReason::ReadOnlyMode),
        Ok(_) => panic!("fork writes must bounce"),
    }
    tx.abort();

    // The primary sees its own latest state, unaffected.
    let mut tx = w.begin(SI);
    assert_eq!(get(&mut tx, t, &0u32.to_be_bytes()).as_deref(), Some(&b"v2"[..]));
    tx.commit().unwrap();

    drop(fw);
    drop(fork);
    assert_eq!(db.fork_count(), 0, "dropping the fork releases its count and GC pin");
}

/// A checkpoint's begin is a consistent cut the log is durable through.
#[test]
fn a_checkpoint_begins_above_every_finished_commit_on_a_durable_log() {
    let dir = TestDir::new("cut");
    let db = Database::open(DbConfig::durable(&dir)).unwrap();
    let t = db.create_table("t");
    let mut w = db.register_worker();
    let mut last = crate::Lsn::NULL;
    for i in 0..32u32 {
        let mut tx = w.begin(SI);
        tx.insert(t, &i.to_be_bytes(), b"x").unwrap();
        last = tx.commit().unwrap();
    }
    let begin = db.checkpoint().unwrap();
    assert!(begin.raw() > last.raw(), "the cut covers every finished commit");
    assert!(db.log().durable_offset() >= begin.offset(), "the log must be durable through the cut");
    drop(db);
}

// ---------------------------------------------------------------------
// One commit pipeline, four exits
// ---------------------------------------------------------------------

/// How a transaction leaves [`crate::Transaction::precommit`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Exit {
    /// `commit()` on a durable database: publish after the block is
    /// durable.
    Sync,
    /// `commit_deferred()`: publish at once.
    Deferred,
    /// A 2PC participant: pre-commit with a marker, then the verdict.
    Prepare,
    /// A transaction that wrote nothing.
    ReadOnly,
}

#[derive(Clone, Copy, Debug)]
enum Scenario {
    Clean,
    /// The subject reads `r` as written by Z and `x` as overwritten by U,
    /// where U read `r` from before Z: U →rw Z →wr subject →rw U.
    Exclusion,
    /// A key the subject found missing is inserted under it.
    Phantom,
    /// The log poisons between the subject's writes and its commit.
    PoisonedLog,
}

/// What one run left behind, for comparison across exits.
#[derive(Debug, PartialEq)]
struct Outcome {
    verdict: Result<(), AbortReason>,
    /// `ermia_txn_aborts_total`, in `AbortReason::ALL` order.
    aborts: Vec<u64>,
    /// (cstamp, records) of every transaction block on disk, whatever
    /// its kind and marker. `None` once the storage is gone.
    blocks: Option<Vec<(u64, Vec<ermia_log::LogRecord>)>>,
}

fn run_exit(scenario: Scenario, exit: Exit) -> Outcome {
    use ermia_log::{FaultInjector, FaultPlan, LogScanner, PrepareMarker};

    let dir = TestDir::new("exits");
    let injector = FaultInjector::new(FaultPlan::default());
    let mut cfg = DbConfig::durable(&dir);
    cfg.log.io_factory = std::sync::Arc::new(injector.clone());
    let db = Database::open(cfg).unwrap();
    let t = db.create_table("t");
    let (mut wt, mut wu, mut wz) =
        (db.register_worker(), db.register_worker(), db.register_worker());
    let put = |w: &mut crate::Worker, key: &[u8], value: &[u8]| {
        let mut tx = w.begin(SI);
        if !tx.update(t, key, value).unwrap() {
            tx.insert(t, key, value).unwrap();
        }
        tx.commit_deferred().unwrap();
    };
    put(&mut wz, b"r", b"r0");
    put(&mut wz, b"x", b"x0");

    // U must begin before Z commits, the subject after.
    let mut u = wu.begin(SSN);
    if matches!(scenario, Scenario::Exclusion) {
        put(&mut wz, b"r", b"r1");
        assert_eq!(get(&mut u, t, b"r").as_deref(), Some(&b"r0"[..]));
        assert!(u.update(t, b"x", b"x1").unwrap());
    }
    let mut subject = wt.begin(SSN);
    if exit != Exit::ReadOnly {
        subject.insert(t, b"own", b"seeded").unwrap();
    }
    assert!(get(&mut subject, t, b"r").is_some());
    assert_eq!(get(&mut subject, t, b"x").as_deref(), Some(&b"x0"[..]));
    assert!(get(&mut subject, t, b"ghost").is_none());
    match scenario {
        Scenario::Clean => u.abort(),
        Scenario::Exclusion => {
            u.commit().unwrap();
        }
        Scenario::Phantom => {
            u.abort();
            put(&mut wz, b"ghost", b"boo");
        }
        Scenario::PoisonedLog => {
            u.abort();
            // Nothing unflushed when the storage goes: the interval timer
            // must not find a block to fail on before the put below.
            db.log().sync().unwrap();
            injector.crash_now();
            put(&mut wz, b"x", b"never durable");
            db.log().sync().expect_err("the storage is gone");
            assert!(db.log().is_poisoned());
        }
    }

    assert_eq!(subject.has_writes(), exit != Exit::ReadOnly);
    let verdict = match exit {
        Exit::Sync | Exit::ReadOnly => subject.commit().map(|_| ()),
        Exit::Deferred => subject.commit_deferred().map(|_| ()),
        Exit::Prepare => {
            let marker = PrepareMarker {
                coord_shard: 0,
                participants: 1,
                coord_lsn: PrepareMarker::COORD_SELF,
                trace_hi: 0,
                trace_lo: 0,
            };
            subject.precommit(Some(marker)).map(|prepared| {
                prepared.finish_commit(&mut wt);
            })
        }
    };
    drop((wt, wu, wz));
    assert_eq!(db.tid_slots_in_use(), 0, "{scenario:?} via {exit:?}");

    let exposition =
        ermia_telemetry::parse_exposition(&db.telemetry().render_prometheus()).unwrap();
    let aborts = AbortReason::ALL
        .iter()
        .map(|r| {
            exposition.value_with("ermia_txn_aborts_total", "reason", r.label()).unwrap() as u64
        })
        .collect();
    let blocks = (!db.log().is_poisoned()).then(|| {
        db.log().sync().unwrap();
        let mut scanner = LogScanner::new(db.log().segments(), 0);
        let mut blocks = Vec::new();
        while let Some(b) = scanner.next_block().unwrap() {
            blocks.push((b.header.cstamp.raw(), b.records()));
        }
        blocks
    });
    drop(db);
    Outcome { verdict, aborts, blocks }
}

/// The same seeded scenarios through every exit of the one pre-commit
/// pipeline: the verdict, the per-reason abort counters and what reaches
/// the log must not depend on the exit taken.
#[test]
fn every_commit_exit_reaches_the_same_verdict() {
    // (scenario, a writer's verdict, a read-only transaction's).
    let table = [
        (Scenario::Clean, Ok(()), Ok(())),
        (Scenario::Exclusion, Err(AbortReason::SsnExclusion), Err(AbortReason::SsnExclusion)),
        (Scenario::Phantom, Err(AbortReason::Phantom), Err(AbortReason::Phantom)),
        // A read-only commit needs no log.
        (Scenario::PoisonedLog, Err(AbortReason::LogFailure), Ok(())),
    ];
    for (scenario, writer, readonly) in table {
        // U's explicit abort in the scenarios where it has no part.
        let bystander = !matches!(scenario, Scenario::Exclusion) as u64;
        let counters = |verdict: Result<(), AbortReason>| -> Vec<u64> {
            let expected = |r: &AbortReason| match verdict {
                Err(reason) if reason == *r => 1,
                _ if *r == AbortReason::UserRequested => bystander,
                _ => 0,
            };
            AbortReason::ALL.iter().map(expected).collect()
        };
        let sync = run_exit(scenario, Exit::Sync);
        assert_eq!(sync.verdict, writer, "{scenario:?}");
        assert_eq!(sync.aborts, counters(writer), "{scenario:?}");
        for exit in [Exit::Deferred, Exit::Prepare] {
            assert_eq!(run_exit(scenario, exit), sync, "{scenario:?} via {exit:?}");
        }

        let ro = run_exit(scenario, Exit::ReadOnly);
        assert_eq!(ro.verdict, readonly, "{scenario:?} read-only");
        assert_eq!(ro.aborts, counters(readonly), "{scenario:?} read-only");
        // On disk a read-only run is a writer's minus the subject's block
        // (and the OID its insert took).
        if let (Some(ro), Some(mut rw)) = (ro.blocks, sync.blocks) {
            if writer.is_ok() {
                let own = rw.iter().position(|(_, recs)| recs.iter().any(|r| r.key == b"own"));
                rw.remove(own.expect("a committed writer's block is in the log"));
            }
            let rows = |blocks: Vec<(u64, Vec<ermia_log::LogRecord>)>| -> Vec<_> {
                let sans_oid = |recs: Vec<ermia_log::LogRecord>| -> Vec<_> {
                    recs.into_iter().map(|r| (r.kind, r.key, r.value)).collect()
                };
                blocks.into_iter().map(|(cstamp, recs)| (cstamp, sans_oid(recs))).collect()
            };
            assert_eq!(rows(ro), rows(rw), "{scenario:?} read-only");
        }
    }
}

/// A transaction is counted once, in its worker's slab: `txn_counts()`
/// is those slabs merged, and dropping the workers loses nothing.
#[test]
fn txn_counts_are_the_workers_counters_and_outlive_them() {
    let db = db();
    let t = db.create_table("t");
    {
        let mut w1 = db.register_worker();
        let mut w2 = db.register_worker();
        for k in [b"a", b"b", b"c"] {
            let mut tx = w1.begin(SI);
            tx.insert(t, k, b"0").unwrap();
            tx.commit().unwrap();
        }
        // Three aborts, three reasons: a lost write-write race, a
        // duplicate key, an explicit abort.
        let mut t1 = w1.begin(SI);
        let mut t2 = w2.begin(SI);
        t1.update(t, b"a", b"1").unwrap();
        assert!(t2.update(t, b"a", b"2").is_err());
        assert_eq!(t2.commit().unwrap_err(), AbortReason::WriteWriteConflict);
        t1.commit().unwrap();
        let mut dup = w2.begin(SI);
        assert!(dup.insert(t, b"b", b"again").is_err());
        assert_eq!(dup.commit().unwrap_err(), AbortReason::DuplicateKey);
        w2.begin(SI).abort();
    }
    assert_eq!(db.txn_counts(), (4, 3));
    let exposition =
        ermia_telemetry::parse_exposition(&db.telemetry().render_prometheus()).unwrap();
    assert_eq!(exposition.value("ermia_txn_commits_total"), Some(4.0));
    let by_reason = &exposition.metrics["ermia_txn_aborts_total"].samples;
    assert_eq!(by_reason.iter().filter(|s| s.value == 1.0).count(), 3, "three reasons, one each");
    assert_eq!(by_reason.iter().map(|s| s.value).sum::<f64>(), 3.0);
}

/// A block header counts its records in 24 bits: one durable transaction
/// of 65 535, 65 536 and 70 000 rows recovers every row (a 16-bit count
/// recovered 0 of 65 536 and 4 464 of 70 000).
#[test]
fn a_transaction_of_more_than_65_535_rows_recovers_every_one() {
    for rows in [65_535u32, 65_536, 70_000] {
        let dir = TestDir::new("many-records");
        {
            let db = Database::open(DbConfig::durable(&dir)).unwrap();
            let t = db.create_table("t");
            let mut w = db.register_worker();
            let mut tx = w.begin(SI);
            for i in 0..rows {
                tx.insert(t, &i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            }
            tx.commit().unwrap();
        }
        let db = Database::open(DbConfig::durable(&dir)).unwrap();
        let stats = db.recover().unwrap();
        assert_eq!(stats.replayed_records, rows as u64, "{rows} rows in one transaction");
        let t = db.table_id("t").unwrap();
        let mut w = db.register_worker();
        let mut tx = w.begin(SI);
        for i in [0, rows / 2, rows - 1] {
            assert_eq!(get(&mut tx, t, &i.to_be_bytes()), Some(i.to_le_bytes().to_vec()));
        }
        tx.commit().unwrap();
    }
}

/// A Serializable miss, or scan, past the last key records the
/// rightmost leaf; another transaction's insert past it takes the
/// index's append path and must still abort the reader as a phantom.
/// The reader's own append past its miss does not.
#[test]
fn appends_past_the_last_key_are_phantoms_to_serializable_readers() {
    let db = db();
    let t = db.create_table("t");
    let pk = db.primary_index(t);
    let mut w1 = db.register_worker();
    let mut w2 = db.register_worker();
    let mut setup = w1.begin(SI);
    for i in [10u8, 20, 30] {
        setup.insert(t, &[i], &[i]).unwrap();
    }
    setup.commit().unwrap();

    for scan in [false, true] {
        let mut t1 = w1.begin(SSN);
        if scan {
            assert_eq!(t1.scan(pk, &[160], &[255], None, |_, _| true).unwrap(), 0);
        } else {
            assert_eq!(get(&mut t1, t, &[200]), None);
        }
        let mut t2 = w2.begin(SSN);
        t2.insert(t, &[if scan { 180 } else { 150 }], b"appended").unwrap();
        t2.commit().unwrap();
        assert!(t1.update(t, &[10], b"x").unwrap());
        assert_eq!(t1.commit().unwrap_err(), AbortReason::Phantom, "scan: {scan}");
    }

    let mut t1 = w1.begin(SSN);
    assert_eq!(get(&mut t1, t, &[250]), None);
    t1.insert(t, &[250], b"own").unwrap();
    t1.commit().expect("an own append is no phantom");
}

/// The commit path sizes its block from the write set and encodes it
/// straight into the ring; the same write set encoded into a `Vec` must
/// give the same bytes. Seeded
/// transactions of inserts, updates, deletes, inserts then deletes,
/// revived tombstones, values of up to 700 bytes and secondary entries,
/// some committed as 2PC prepares, on a 4 KiB ring whose end many blocks
/// wrap.
#[test]
fn commit_blocks_encode_as_the_standalone_builder_does() {
    use std::collections::HashMap;

    use ermia_common::{Oid, TableId};
    use ermia_log::{
        BlockEncoder, BlockKind, LogBlockHeader, LogRecordKind, LogScanner, PrepareMarker,
        BLOCK_HEADER_LEN, MIN_BLOCK_LEN, PREPARE_MARKER_LEN, RECORD_HEADER_LEN,
    };

    const RING: u64 = 4096;
    /// A record to encode: kind, table, OID, key, value.
    type Rec<'a> = (LogRecordKind, TableId, Oid, &'a [u8], &'a [u8]);
    /// One record's worth of a write set: its final value, `None` once
    /// deleted; `created` if this transaction made the OID, `was_live` if
    /// the record was live before it.
    struct Entry {
        table: TableId,
        key: Vec<u8>,
        oid: Oid,
        created: bool,
        was_live: bool,
        value: Option<Vec<u8>>,
    }
    struct Commit {
        entries: Vec<Entry>,
        secondary: Vec<(Oid, Vec<u8>)>,
        marker: Option<PrepareMarker>,
    }
    // Blocks seen with: a revived tombstone, an insert then delete, a
    // secondary entry, a prepare marker, a wrap.
    let mut covered = [0usize; 5];
    for seed in 1..=6u64 {
        let dir = TestDir::new("one-encoder");
        let mut cfg = DbConfig::durable(&dir);
        cfg.log.buffer_size = RING;
        let db = Database::open(cfg).unwrap();
        // No collection: a deleted key keeps its OID for a revive. A fork
        // taken before the first write pins the collector's horizon below
        // every commit of the run, so no superseded version is ever due.
        let _pin = db.fork();
        let tables = [db.create_table("a"), db.create_table("b")];
        let sec = db.create_secondary_index(tables[1], "b.sec");
        let mut w = db.register_worker();
        let mut rng = SplitMix64::new(seed.wrapping_mul(GAMMA));
        // Committed state: (table, key) → (oid, live).
        let mut committed: HashMap<(TableId, Vec<u8>), (Oid, bool)> = HashMap::new();
        let mut commits: HashMap<u64, Commit> = HashMap::new();
        let mut sec_keys = 0u32;
        for round in 0..40 {
            let mut tx = w.begin(SI);
            let mut entries: Vec<Entry> = Vec::new();
            let mut secondary = Vec::new();
            for _ in 0..1 + rng.below(6) {
                let table = tables[rng.below(2) as usize];
                let key = vec![b'k', rng.below(10) as u8];
                let len = [0, 7, 64, 180, 300, 700][rng.below(6) as usize];
                let value = vec![round as u8 ^ len as u8; len];
                let at = entries.iter().position(|e| e.table == table && e.key == key);
                let known = committed.get(&(table, key.clone())).copied();
                let live = at.map_or(known.is_some_and(|c| c.1), |i| entries[i].value.is_some());
                let (oid, value) = if live {
                    let value = (rng.below(3) != 0).then_some(value);
                    match &value {
                        Some(v) => assert!(tx.update(table, &key, v).unwrap()),
                        None => assert!(tx.delete(table, &key).unwrap()),
                    }
                    (None, value)
                } else {
                    (Some(tx.insert(table, &key, &value).unwrap()), Some(value))
                };
                match at {
                    Some(i) => entries[i].value = value,
                    None => {
                        let oid = match known {
                            Some((known, _)) => {
                                assert!(oid.is_none_or(|o| o == known), "a revive keeps its OID");
                                known
                            }
                            None => oid.expect("a fresh key is inserted"),
                        };
                        let (created, was_live) = (known.is_none(), live);
                        entries.push(Entry { table, key, oid, created, was_live, value });
                    }
                }
                if rng.below(4) == 0 {
                    if let Some(e) = entries.iter().find(|e| e.table == tables[1]) {
                        sec_keys += 1;
                        let skey = sec_keys.to_be_bytes().to_vec();
                        tx.insert_secondary(sec, &skey, e.oid).unwrap();
                        secondary.push((e.oid, skey));
                    }
                }
            }
            let marker = (rng.below(3) == 0).then_some(PrepareMarker {
                coord_shard: 0,
                participants: 1,
                coord_lsn: PrepareMarker::COORD_SELF,
                trace_hi: seed,
                trace_lo: round,
            });
            let cstamp = match marker {
                Some(m) => tx.precommit(Some(m)).unwrap().finish_commit(&mut w).lsn(),
                None => tx.commit().unwrap(),
            };
            for e in &entries {
                committed.insert((e.table, e.key.clone()), (e.oid, e.value.is_some()));
            }
            commits.insert(cstamp.raw(), Commit { entries, secondary, marker });
        }
        db.log().sync().unwrap();

        let mut scanner = LogScanner::new(db.log().segments(), 0);
        let mut seen = 0;
        while let Some(b) = scanner.next_view().unwrap() {
            if !matches!(b.header.kind, BlockKind::Txn | BlockKind::TxnPrepare) {
                continue;
            }
            // The same write set, encoded standalone: one `BlockEncoder`
            // over a `Vec` sized from the records.
            let commit = &commits[&b.header.cstamp.raw()];
            let index = sec.0.to_le_bytes();
            let mut records: Vec<Rec<'_>> = Vec::new();
            for e in &commit.entries {
                let (kind, value) = match &e.value {
                    None => (LogRecordKind::Delete, &[][..]),
                    Some(v) if e.created => (LogRecordKind::Insert, &v[..]),
                    Some(v) => (LogRecordKind::Update, &v[..]),
                };
                records.push((kind, e.table, e.oid, &e.key, value));
            }
            for (oid, skey) in &commit.secondary {
                records.push((LogRecordKind::SecondaryInsert, tables[1], *oid, skey, &index));
            }
            let marker = commit.marker.map_or(0, |_| PREPARE_MARKER_LEN);
            let payload: usize =
                records.iter().map(|r| RECORD_HEADER_LEN + r.3.len() + r.4.len()).sum();
            let mut block =
                vec![0; (BLOCK_HEADER_LEN + marker + payload).next_multiple_of(MIN_BLOCK_LEN)];
            let mut enc = BlockEncoder::block(&mut block, &mut []);
            if let Some(m) = &commit.marker {
                enc.marker(m);
            }
            for &(kind, table, oid, key, value) in &records {
                enc.record(kind, table, oid, key, value);
            }
            let kind = if marker > 0 { BlockKind::TxnPrepare } else { BlockKind::Txn };
            enc.finish(kind, b.header.cstamp);
            let header = LogBlockHeader::decode(&block).unwrap();
            let at = b.lsn.offset();
            // In the log, `prev` is the ring's word: the block's offset | 1.
            assert_eq!(
                (header.kind, header.nrec, header.len, header.checksum, at | 1),
                (b.header.kind, b.header.nrec, b.header.len, b.header.checksum, b.header.prev),
                "seed {seed}: the header of the block at {at}"
            );
            assert_eq!(&block[BLOCK_HEADER_LEN..], b.payload, "seed {seed}: the block at {at}");
            let es = &commit.entries;
            let kinds = [
                es.iter().any(|e| !e.created && !e.was_live && e.value.is_some()),
                es.iter().any(|e| e.created && e.value.is_none()),
                !commit.secondary.is_empty(),
                commit.marker.is_some(),
                at % RING + header.len as u64 > RING,
            ];
            for (n, hit) in covered.iter_mut().zip(kinds) {
                *n += hit as usize;
            }
            seen += 1;
        }
        assert_eq!(seen, commits.len(), "seed {seed}: every commit's block");
    }
    assert!(covered.iter().all(|&n| n >= 3), "too little of each case: {covered:?}");
}
