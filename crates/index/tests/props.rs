//! Property test: the concurrent B+-tree, driven single-threaded by an
//! arbitrary operation sequence, behaves exactly like `BTreeMap`.
//!
//! The keys are drawn to land on every branch of the slot comparison
//! (`crates/index/src/node.rs`): lengths on both sides of the 16-byte
//! inline limit (0, 1, 15, 16, 17, 40), keys that are prefixes of one
//! another, keys that differ only in trailing `0x00` bytes (`"a"` vs
//! `"a\0"`, which tie on the zero-padded head words), and long keys whose
//! first 16 bytes are equal, so only the heap tail tells them apart.
//!
//! Ascending runs past the largest key drive the append path (`BTree`'s
//! rightmost-leaf shortcut) between random inserts, and removals of the
//! largest keys empty the rightmost leaf under it.

use std::collections::BTreeMap;
use std::ops::Bound;

use ermia_common::rng::SplitMix64;
use ermia_epoch::EpochManager;
use ermia_index::{BTree, InsertOutcome, ScanControl};

type Key = Vec<u8>;

/// A key above `k`: `k` plus a byte, or `k` with its last byte raised
/// (plus a zero byte when that byte is already `0xff`).
fn successor(k: &[u8], grow: bool) -> Key {
    let mut k = k.to_vec();
    match k.last_mut() {
        Some(b) if !grow && *b < 0xff => *b += 1,
        _ => k.push(if grow { 1 } else { 0 }),
    }
    k
}

fn key(rng: &mut SplitMix64) -> Key {
    match rng.below(3) {
        // Any bytes, at the lengths that matter.
        0 => {
            let n = [0, 1, 15, 16, 17, 40][rng.below(6) as usize];
            (0..n).map(|_| rng.next_u64() as u8).collect()
        }
        // "a", "a\0", "a\0\0", …: prefixes of one another that differ only
        // in trailing zeros, across the inline limit.
        1 => {
            let mut k = vec![b'a'];
            k.resize(1 + rng.below(20) as usize, 0);
            k
        }
        // One 16-byte head, a short tail from {0x00, 0x01, 0xff}: the head
        // alone (inline), and long keys only their tails order.
        _ => {
            let mut k = b"0123456789abcdef".to_vec();
            k.extend((0..rng.below(4)).map(|_| [0, 1, 0xff][rng.below(3) as usize]));
            k
        }
    }
}

/// A key drawn afresh, or "the n-th key the model holds right now" —
/// without the latter a 40-byte key would never be hit twice.
fn key_or_held(rng: &mut SplitMix64, model: &BTreeMap<Key, u64>) -> Key {
    if rng.below(2) == 0 {
        key(rng)
    } else if model.is_empty() {
        Vec::new()
    } else {
        model.keys().nth(rng.below(model.len() as u64) as usize).expect("in range").clone()
    }
}

#[test]
fn tree_matches_btreemap() {
    let seed = std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok());
    ermia_check::cases("tree_matches_btreemap", 64, seed, |rng| {
        let tree = BTree::new();
        let mgr = EpochManager::new("prop");
        let handle = mgr.register();
        let g = handle.pin();
        let mut model: BTreeMap<Key, u64> = BTreeMap::new();

        for _ in 0..1 + rng.below(599) {
            match rng.below(7) {
                // Inserts twice over: the tree has to grow past a few splits.
                0 | 1 => {
                    let (k, v) = (key(rng), rng.next_u64());
                    let got = tree.insert(&g, &k, v);
                    match model.get(&k) {
                        Some(&existing) => assert_eq!(got, InsertOutcome::Duplicate(existing)),
                        None => {
                            assert_eq!(got, InsertOutcome::Inserted);
                            model.insert(k, v);
                        }
                    }
                }
                2 => {
                    let k = key_or_held(rng, &model);
                    assert_eq!(tree.remove(&g, &k), model.remove(&k));
                }
                3 => {
                    let k = key_or_held(rng, &model);
                    assert_eq!(tree.get(&g, &k).0, model.get(&k).copied());
                }
                4 => {
                    let (a, b) = (key_or_held(rng, &model), key_or_held(rng, &model));
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let mut got = Vec::new();
                    tree.scan(
                        &g,
                        &lo,
                        &hi,
                        |_| {},
                        |k, v| {
                            got.push((k.to_vec(), v));
                            ScanControl::Continue
                        },
                    );
                    let expect: Vec<(Key, u64)> = model
                        .range::<[u8], _>((Bound::Included(&lo[..]), Bound::Included(&hi[..])))
                        .map(|(k, &v)| (k.clone(), v))
                        .collect();
                    assert_eq!(got, expect);
                }
                // Insert up to 79 keys, each past the largest one held: one
                // in ten grows the key by a byte, the rest bump its last byte.
                5 => {
                    for _ in 0..1 + rng.below(79) {
                        let last = model.keys().next_back().cloned().unwrap_or_default();
                        let k = successor(&last, rng.below(10) == 0);
                        let v = model.len() as u64;
                        assert_eq!(tree.insert(&g, &k, v), InsertOutcome::Inserted);
                        model.insert(k, v);
                    }
                }
                // Remove up to 39 of the largest keys.
                _ => {
                    for _ in 0..1 + rng.below(39) {
                        let Some((k, v)) = model.pop_last() else { break };
                        assert_eq!(tree.remove(&g, &k), Some(v));
                    }
                }
            }
        }
        // Everything the model holds, in order, and nothing else.
        let mut all = Vec::new();
        tree.scan(
            &g,
            &[],
            None,
            |_| {},
            |k, v| {
                all.push((k.to_vec(), v));
                ScanControl::Continue
            },
        );
        assert_eq!(all, model.into_iter().collect::<Vec<_>>());
    });
}
