use std::collections::BTreeMap;

use ermia_common::rng::{SplitMix64, GAMMA};
use ermia_epoch::EpochManager;

use crate::{BTree, InsertOutcome, ScanControl};

fn setup() -> (BTree, EpochManager) {
    (BTree::new(), EpochManager::new("index-test"))
}

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

#[test]
fn insert_get_roundtrip() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    assert_eq!(t.insert(&g, b"alpha", 1), InsertOutcome::Inserted);
    assert_eq!(t.insert(&g, b"beta", 2), InsertOutcome::Inserted);
    assert_eq!(t.get(&g, b"alpha").0, Some(1));
    assert_eq!(t.get(&g, b"beta").0, Some(2));
    assert_eq!(t.get(&g, b"gamma").0, None);
}

#[test]
fn duplicate_insert_reports_existing() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    t.insert(&g, b"k", 7);
    assert_eq!(t.insert(&g, b"k", 8), InsertOutcome::Duplicate(7));
    assert_eq!(t.get(&g, b"k").0, Some(7));
}

#[test]
fn many_inserts_force_splits_sorted_order() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    const N: u64 = 5_000;
    for i in 0..N {
        assert_eq!(t.insert(&g, &key(i), i), InsertOutcome::Inserted);
    }
    for i in 0..N {
        assert_eq!(t.get(&g, &key(i)).0, Some(i), "missing key {i}");
    }
}

#[test]
fn many_inserts_random_order() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    // Deterministic pseudo-random permutation.
    let mut keys: Vec<u64> = (0..4_000).map(|i| (i * 2_654_435_761u64) % 1_000_003).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut shuffled = keys.clone();
    let mut rng = SplitMix64::new(0x12345678);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for &k in &shuffled {
        t.insert(&g, &key(k), k);
    }
    for &k in &keys {
        assert_eq!(t.get(&g, &key(k)).0, Some(k));
    }
}

#[test]
fn remove_then_get_misses() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    for i in 0..200u64 {
        t.insert(&g, &key(i), i);
    }
    for i in (0..200u64).step_by(2) {
        assert_eq!(t.remove(&g, &key(i)), Some(i));
    }
    for i in 0..200u64 {
        let expect = if i % 2 == 0 { None } else { Some(i) };
        assert_eq!(t.get(&g, &key(i)).0, expect);
    }
    assert_eq!(t.remove(&g, &key(0)), None, "double remove");
}

#[test]
fn scan_returns_sorted_range() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    for i in 0..1_000u64 {
        t.insert(&g, &key(i * 2), i * 2); // even keys only
    }
    let mut got = Vec::new();
    t.scan(
        &g,
        &key(100),
        &key(140),
        |_| {},
        |k, v| {
            assert_eq!(k, v.to_be_bytes());
            got.push(v);
            ScanControl::Continue
        },
    );
    let expect: Vec<u64> = (100..=140).filter(|x| x % 2 == 0).collect();
    assert_eq!(got, expect);
}

#[test]
fn scan_stop_early() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    for i in 0..500u64 {
        t.insert(&g, &key(i), i);
    }
    let mut got = Vec::new();
    t.scan(
        &g,
        &key(0),
        &key(499),
        |_| {},
        |_, v| {
            got.push(v);
            if got.len() == 10 {
                ScanControl::Stop
            } else {
                ScanControl::Continue
            }
        },
    );
    assert_eq!(got, (0..10).collect::<Vec<u64>>());
}

#[test]
fn scan_empty_range() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    for i in 0..100u64 {
        t.insert(&g, &key(i), i);
    }
    let mut n = 0;
    t.scan(
        &g,
        &key(200),
        &key(300),
        |_| {},
        |_, _| {
            n += 1;
            ScanControl::Continue
        },
    );
    assert_eq!(n, 0);
}

/// No fixed key bounds the key space: an open upper end reaches keys of
/// every length above `[0xFF; 64]`, across leaves.
#[test]
fn scan_without_an_upper_end_reaches_the_last_key() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    let mut want: Vec<Vec<u8>> = (0..100u64).map(key).collect();
    want.extend((64..100).map(|n| vec![0xFF; n]));
    for (i, k) in want.iter().enumerate() {
        t.insert(&g, k, i as u64);
    }
    let mut got = Vec::new();
    t.scan(
        &g,
        &[],
        None,
        |_| {},
        |k, _| {
            got.push(k.to_vec());
            ScanControl::Continue
        },
    );
    assert_eq!(got, want);
    let mut bounded = 0;
    t.scan(
        &g,
        &[],
        &[0xFF; 64],
        |_| {},
        |_, _| {
            bounded += 1;
            ScanControl::Continue
        },
    );
    assert_eq!(bounded, 101, "a bounded scan stops at its bound");
}

#[test]
fn node_set_detects_phantom_insert() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    for i in 0..10u64 {
        t.insert(&g, &key(i * 10), i);
    }
    // Record the node set for a range scan.
    let mut snaps = Vec::new();
    t.scan(&g, &key(0), &key(100), |s| snaps.push(s), |_, _| ScanControl::Continue);
    assert!(!snaps.is_empty());
    assert!(snaps.iter().all(|s| t.validate(s)), "clean scan must validate");

    // A phantom: insert into the scanned range.
    t.insert(&g, &key(55), 55);
    assert!(snaps.iter().any(|s| !t.validate(s)), "insert in range must invalidate");
}

#[test]
fn node_set_miss_is_also_protected() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    t.insert(&g, &key(1), 1);
    let (found, snap) = t.get(&g, &key(2));
    assert_eq!(found, None);
    assert!(t.validate(&snap));
    // Inserting the very key we missed must invalidate the snapshot.
    t.insert(&g, &key(2), 2);
    assert!(!t.validate(&snap));
}

#[test]
fn duplicate_insert_does_not_invalidate_node_set() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    t.insert(&g, &key(1), 1);
    let (_, snap) = t.get(&g, &key(1));
    // A failed (duplicate) insert makes no modification.
    assert_eq!(t.insert(&g, &key(1), 9), InsertOutcome::Duplicate(1));
    assert!(t.validate(&snap));
}

#[test]
fn matches_btreemap_reference() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    let mut reference = BTreeMap::new();
    let mut rng = SplitMix64::new(42);
    for _ in 0..20_000 {
        let (k, op) = (rng.below(2_000), rng.below(3));
        match op {
            0 | 1 => {
                let outcome = t.insert(&g, &key(k), k);
                match reference.entry(k) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        assert_eq!(outcome, InsertOutcome::Inserted);
                        e.insert(k);
                    }
                    std::collections::btree_map::Entry::Occupied(_) => {
                        assert_eq!(outcome, InsertOutcome::Duplicate(k));
                    }
                }
            }
            _ => {
                let got = t.remove(&g, &key(k));
                assert_eq!(got, reference.remove(&k));
            }
        }
    }
    // Full scan equals reference iteration.
    let mut got = Vec::new();
    t.scan(
        &g,
        &key(0),
        &key(u64::MAX),
        |_| {},
        |_, v| {
            got.push(v);
            ScanControl::Continue
        },
    );
    let expect: Vec<u64> = reference.values().copied().collect();
    assert_eq!(got, expect);
}

#[test]
fn concurrent_disjoint_inserts() {
    const THREADS: u64 = 4;
    const PER: u64 = 3_000;
    let t = BTree::new();
    let mgr = EpochManager::new("stress");
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let t = &t;
            let mgr = mgr.clone();
            s.spawn(move || {
                let h = mgr.register();
                for i in 0..PER {
                    let g = h.pin();
                    let k = tid * PER + i;
                    assert_eq!(t.insert(&g, &key(k), k), InsertOutcome::Inserted);
                }
            });
        }
    });
    let h = mgr.register();
    let g = h.pin();
    let mut count = 0u64;
    let mut prev: Option<Vec<u8>> = None;
    t.scan(
        &g,
        &key(0),
        &key(u64::MAX),
        |_| {},
        |k, v| {
            if let Some(p) = &prev {
                assert!(k > p.as_slice(), "scan order violated");
            }
            prev = Some(k.to_vec());
            assert_eq!(k, v.to_be_bytes());
            count += 1;
            ScanControl::Continue
        },
    );
    assert_eq!(count, THREADS * PER);
}

/// A descent that loaded the root pointer, then waited out a root
/// split's lock, must notice that the node it holds is no longer the
/// root: otherwise it inserts a key at or above the new separator into
/// the left half, where no lookup of that key ever goes. Each round
/// starts two inserts on a tree whose root is one insert short of
/// splitting; without the re-check in `BTree::stable_root` some round
/// loses a key (three to a hundred rounds on the 2-vCPU host, debug or
/// release).
#[test]
fn concurrent_inserts_racing_a_root_split_stay_findable() {
    const ROUNDS: u64 = 3_000;
    let mgr = EpochManager::new("root-split");
    for round in 0..ROUNDS {
        let t = BTree::new();
        let h = mgr.register();
        {
            let g = h.pin();
            for i in 0..crate::node::MAX_KEYS as u64 {
                assert_eq!(t.insert(&g, &key(10 * i), i), InsertOutcome::Inserted);
            }
        }
        // Two keys that belong in the right half once the root splits.
        let late = [10 * crate::node::MAX_KEYS as u64, 10 * crate::node::MAX_KEYS as u64 + 1];
        let start = std::sync::Barrier::new(late.len());
        std::thread::scope(|s| {
            for &k in &late {
                let (t, mgr, start) = (&t, &mgr, &start);
                s.spawn(move || {
                    let h = mgr.register();
                    start.wait();
                    assert_eq!(t.insert(&h.pin(), &key(k), k), InsertOutcome::Inserted);
                });
            }
        });
        let g = h.pin();
        for &k in &late {
            assert_eq!(t.get(&g, &key(k)).0, Some(k), "round {round}: no lookup reaches key {k}");
        }
    }
}

#[test]
fn concurrent_readers_during_writes() {
    readers_during_writes(key);
}

/// The same storm over 24-byte keys that share their 16-byte head: every
/// comparison follows a slot's pointer to the heap, and every removal
/// retires an allocation a reader may be looking at.
#[test]
fn concurrent_readers_during_writes_of_long_keys() {
    readers_during_writes(long_key);
}

fn long_key(i: u64) -> Vec<u8> {
    [&b"sixteen byte head"[..16], &i.to_be_bytes()].concat()
}

fn readers_during_writes(key: fn(u64) -> Vec<u8>) {
    const N: u64 = 8_000;
    let t = BTree::new();
    let mgr = EpochManager::new("rw-stress");
    let ticker =
        ermia_epoch::Ticker::start(mgr.clone(), std::time::Duration::from_millis(1), || {});
    std::thread::scope(|s| {
        // Writer inserts ascending keys, removing every third behind itself.
        {
            let t = &t;
            let mgr = mgr.clone();
            s.spawn(move || {
                let h = mgr.register();
                for i in 0..N {
                    let g = h.pin();
                    t.insert(&g, &key(i), i);
                    if i % 3 == 0 && i > 100 {
                        t.remove(&g, &key(i - 100));
                    }
                }
            });
        }
        // Readers continuously get and scan; values must always be
        // self-consistent (val == key) whenever found.
        for _ in 0..2 {
            let t = &t;
            let mgr = mgr.clone();
            s.spawn(move || {
                let h = mgr.register();
                let mut rng = SplitMix64::new(7);
                for _ in 0..20_000 {
                    let g = h.pin();
                    let state = rng.next_u64();
                    let k = (state >> 33) % N;
                    if let (Some(v), _) = t.get(&g, &key(k)) {
                        assert_eq!(v, k);
                    }
                    if state.is_multiple_of(64) {
                        let lo = (state >> 33) % N;
                        t.scan(
                            &g,
                            &key(lo),
                            &key(lo + 50),
                            |_| {},
                            |kb, v| {
                                assert_eq!(kb, key(v));
                                ScanControl::Continue
                            },
                        );
                    }
                }
            });
        }
    });
    drop(ticker);
}

/// Keys inserted in ascending order fill every leaf but the last: a split
/// at the right edge moves nothing (`BTree::do_split`, append-aware).
#[test]
fn ascending_inserts_leave_leaves_full() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    const N: usize = 100_000;
    for i in 0..N as u64 {
        assert_eq!(t.insert(&g, &key(i), i), InsertOutcome::Inserted);
    }
    let leaves = t.leaf_count();
    let full = N.div_ceil(crate::node::MAX_KEYS);
    assert!(leaves * 100 <= full * 105, "{leaves} leaves for {N} ascending keys, {full} if full");
    for i in (0..N as u64).step_by(997) {
        assert_eq!(t.get(&g, &key(i)).0, Some(i));
    }
    // Long keys take the same path (the separator is a fresh allocation).
    let (t, _) = setup();
    for i in 0..3_000 {
        assert_eq!(t.insert(&g, &long_key(i), i), InsertOutcome::Inserted);
    }
    assert!(t.leaf_count() * 100 <= 3_000usize.div_ceil(crate::node::MAX_KEYS) * 105);
    assert_eq!(t.get(&g, &long_key(1_234)).0, Some(1_234));
}

/// Random-order fill is what halving splits give, ln 2 ≈ 69 %: the
/// append rule does not fire away from the right edge.
#[test]
fn random_order_inserts_keep_the_halving_fill() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    const N: u64 = 100_000;
    // Fisher–Yates under a fixed stream.
    let mut keys: Vec<u64> = (0..N).collect();
    let mut rng = SplitMix64::new(GAMMA);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for k in keys {
        assert_eq!(t.insert(&g, &key(k), k), InsertOutcome::Inserted);
    }
    let fill = N as f64 / (t.leaf_count() * crate::node::MAX_KEYS) as f64;
    assert!((0.62..0.76).contains(&fill), "leaf fill {fill:.3}");
}

/// Keys that tie on the zero-padded head words: lengths, then tails.
#[test]
fn keys_that_tie_on_the_head_words_are_ordered_by_length_then_tail() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    let head = *b"0123456789abcdef";
    let keys: Vec<Vec<u8>> = vec![
        vec![],
        vec![0],
        vec![0, 0],
        head[..15].to_vec(),
        head.to_vec(),
        [&head[..], &[0]].concat(),
        [&head[..], &[0, 0]].concat(),
        [&head[..], &[1]].concat(),
        b"a".to_vec(),
        b"a\0".to_vec(),
    ];
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "listed in byte order");
    for (i, k) in keys.iter().enumerate().rev() {
        assert_eq!(t.insert(&g, k, i as u64), InsertOutcome::Inserted);
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.get(&g, k).0, Some(i as u64), "key {k:?}");
        assert_eq!(t.insert(&g, k, 99), InsertOutcome::Duplicate(i as u64));
    }
    let mut got = Vec::new();
    t.scan(
        &g,
        &[],
        &[0xff; 20],
        |_| {},
        |k, v| {
            got.push((k.to_vec(), v));
            ScanControl::Continue
        },
    );
    let expect: Vec<(Vec<u8>, u64)> = keys.iter().cloned().zip(0..).collect();
    assert_eq!(got, expect);
    assert_eq!(t.remove(&g, b"a"), Some(8));
    assert_eq!(t.get(&g, b"a").0, None);
    assert_eq!(t.get(&g, b"a\0").0, Some(9));
    assert_eq!(t.remove(&g, &keys[5]), Some(5));
    assert_eq!(t.get(&g, &keys[6]).0, Some(6));
}

/// A miss, and a scan, past the last key record the rightmost leaf; an
/// insert of a larger key takes the append path into that leaf and must
/// still invalidate both.
#[test]
fn appends_invalidate_node_sets_past_the_last_key() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    for i in 0..10u64 {
        t.insert(&g, &key(i * 10), i);
    }
    let tail = t.tail.load(std::sync::atomic::Ordering::Acquire);
    let (found, miss) = t.get(&g, &key(1_000));
    assert_eq!(found, None);
    let mut scanned = Vec::new();
    t.scan(&g, &key(95), None, |s| scanned.push(s), |_, _| ScanControl::Continue);
    assert!(t.validate(&miss) && scanned.iter().all(|s| t.validate(s)));

    let version = unsafe { (*tail).hdr.stable_version() };
    assert_eq!(t.insert(&g, &key(500), 500), InsertOutcome::Inserted);
    assert_eq!(t.tail.load(std::sync::atomic::Ordering::Acquire), tail, "no split");
    assert_ne!(unsafe { (*tail).hdr.stable_version() }, version, "the append bumped the leaf");
    assert!(!t.validate(&miss), "an append past a missed key is a phantom");
    assert!(scanned.iter().any(|s| !t.validate(s)), "an append inside a scanned range too");
    assert_eq!(t.get(&g, &key(500)).0, Some(500));
}

/// The append hint follows the right edge through splits, and a key that
/// is not past the last one (or an emptied rightmost leaf) takes the
/// descent and lands where lookups find it.
#[test]
fn the_append_hint_follows_the_right_edge() {
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    for i in 0..1_000u64 {
        assert_eq!(t.insert(&g, &key(i * 2), i * 2), InsertOutcome::Inserted);
        let tail = t.tail.load(std::sync::atomic::Ordering::Acquire);
        let tail = unsafe { &*tail };
        assert!(tail.next.load(std::sync::atomic::Ordering::Acquire).is_null());
    }
    // Below the last key: the descent.
    assert_eq!(t.insert(&g, &key(1_001), 1_001), InsertOutcome::Inserted);
    assert_eq!(t.insert(&g, &key(1_998), 0), InsertOutcome::Duplicate(1_998));
    // Empty the rightmost leaf, then append past what was there.
    for i in (900..1_000u64).rev() {
        assert_eq!(t.remove(&g, &key(i * 2)), Some(i * 2));
    }
    for k in [1_801u64, 5_000, 5_001, 1_799] {
        assert_eq!(t.insert(&g, &key(k), k), InsertOutcome::Inserted);
    }
    let mut got = Vec::new();
    t.scan(
        &g,
        &key(1_790),
        None,
        |_| {},
        |_, v| {
            got.push(v);
            ScanControl::Continue
        },
    );
    assert_eq!(got, [1_790, 1_792, 1_794, 1_796, 1_798, 1_799, 1_801, 5_000, 5_001]);
}

/// An appender that read the hint just before a halving split of the
/// rightmost leaf holds a leaf that is no longer rightmost. The append
/// path must refuse it (its `next` is set): a key past that leaf's last
/// one but at or above the split's separator would otherwise land left of
/// where every lookup goes.
#[test]
fn a_stale_append_hint_is_refused() {
    use std::sync::atomic::Ordering;
    let (t, mgr) = setup();
    let h = mgr.register();
    let g = h.pin();
    for i in 0..crate::node::MAX_KEYS as u64 {
        t.insert(&g, &key(2 * i), 2 * i);
    }
    let stale = t.tail.load(Ordering::Acquire);
    // Not past the last key: the full leaf halves, the hint moves right.
    t.insert(&g, &key(1), 1);
    assert_ne!(t.tail.load(Ordering::Acquire), stale);
    t.tail.store(stale, Ordering::Release);
    let last = 2 * crate::node::MAX_KEYS as u64 - 1;
    assert_eq!(t.insert(&g, &key(last), last), InsertOutcome::Inserted);
    assert_eq!(t.get(&g, &key(last)).0, Some(last));
}

/// Two appenders racing at the right edge (their keys interleave, so
/// each also meets keys not past the last one and descends), an inserter
/// splitting leaves below it, a remover, and readers: every appended key
/// is findable from the moment its insert returns, scans stay ordered,
/// and nothing is lost.
#[test]
fn concurrent_appenders_race_splitters_and_readers() {
    use std::sync::atomic::{AtomicU64, Ordering};
    const APPENDS: u64 = 10_000;
    const BASE: u64 = 1_000_000;
    let t = BTree::new();
    let mgr = EpochManager::new("append-race");
    let ticker =
        ermia_epoch::Ticker::start(mgr.clone(), std::time::Duration::from_millis(1), || {});
    // Appender `i` inserts `BASE + 2j + i` for ascending `j`, then
    // publishes `j + 1`; the splitter's keys are odd and below `BASE`.
    let landed = [AtomicU64::new(0), AtomicU64::new(0)];
    let appended = |i: u64, j: u64| BASE + 2 * j + i;
    std::thread::scope(|s| {
        for i in 0..2u64 {
            let (t, mgr, landed) = (&t, mgr.clone(), &landed);
            s.spawn(move || {
                let h = mgr.register();
                for j in 0..APPENDS {
                    let k = appended(i, j);
                    assert_eq!(t.insert(&h.pin(), &key(k), k), InsertOutcome::Inserted);
                    landed[i as usize].store(j + 1, Ordering::Release);
                }
            });
        }
        {
            let (t, mgr) = (&t, mgr.clone());
            s.spawn(move || {
                let h = mgr.register();
                let mut rng = SplitMix64::new(0x2545_f491_4f6c_dd1d);
                for _ in 0..APPENDS {
                    let x = rng.next_u64();
                    let k = (x % (BASE / 2)) * 2 + 1;
                    let g = h.pin();
                    t.insert(&g, &key(k), k);
                    if x.is_multiple_of(5) {
                        t.remove(&g, &key(k));
                    }
                }
            });
        }
        for r in 0..2u64 {
            let (t, mgr, landed) = (&t, mgr.clone(), &landed);
            s.spawn(move || {
                let h = mgr.register();
                let mut rng = SplitMix64::new(GAMMA + r);
                for _ in 0..20_000 {
                    let g = h.pin();
                    let x = rng.next_u64();
                    let i = x & 1;
                    let mark = landed[i as usize].load(Ordering::Acquire);
                    if mark > 0 {
                        let k = appended(i, (x >> 1) % mark);
                        assert_eq!(t.get(&g, &key(k)).0, Some(k), "appended key {k} lost");
                    }
                    if x.is_multiple_of(16) {
                        let low = BASE + (x >> 8) % (2 * APPENDS);
                        let mut prev = None;
                        t.scan(
                            &g,
                            &key(low),
                            None,
                            |_| {},
                            |kb, v| {
                                assert_eq!(kb, key(v));
                                assert!(prev < Some(v), "scan order");
                                prev = Some(v);
                                if v > low + 200 {
                                    ScanControl::Stop
                                } else {
                                    ScanControl::Continue
                                }
                            },
                        );
                    }
                }
            });
        }
    });
    drop(ticker);
    let h = mgr.register();
    let g = h.pin();
    let mut count = 0u64;
    let mut prev = None;
    t.scan(
        &g,
        &key(0),
        None,
        |_| {},
        |kb, v| {
            assert_eq!(kb, key(v));
            assert!(prev < Some(v), "scan order");
            prev = Some(v);
            count += (v >= BASE) as u64;
            ScanControl::Continue
        },
    );
    assert_eq!(count, 2 * APPENDS);
    for k in BASE..BASE + 2 * APPENDS {
        assert_eq!(t.get(&g, &key(k)).0, Some(k));
    }
}
