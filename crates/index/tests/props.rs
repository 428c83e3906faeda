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

use ermia_epoch::EpochManager;
use ermia_index::{BTree, InsertOutcome, ScanControl};
use proptest::prelude::*;

type Key = Vec<u8>;

/// A key named directly, or "the n-th key the model holds right now" —
/// without the latter a 40-byte key would never be hit twice.
#[derive(Clone, Debug)]
enum KeyRef {
    Fresh(Key),
    Held(usize),
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Key, u64),
    Remove(KeyRef),
    Get(KeyRef),
    Scan(KeyRef, KeyRef),
    /// Insert this many keys, each past the largest one held; `true`
    /// grows the key by a byte, `false` bumps its last byte.
    Append(Vec<bool>),
    /// Remove this many of the largest keys.
    TrimTail(usize),
}

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

fn key_strategy() -> impl Strategy<Value = Key> {
    let lengths = prop_oneof![Just(0usize), Just(1), Just(15), Just(16), Just(17), Just(40)];
    prop_oneof![
        // Any bytes, at the lengths that matter.
        (lengths, proptest::collection::vec(any::<u8>(), 40..41)).prop_map(|(n, mut k)| {
            k.truncate(n);
            k
        }),
        // "a", "a\0", "a\0\0", …: prefixes of one another that differ only
        // in trailing zeros, across the inline limit.
        (0usize..20).prop_map(|zeros| {
            let mut k = vec![b'a'];
            k.resize(1 + zeros, 0);
            k
        }),
        // One 16-byte head, a short tail from {0x00, 0x01, 0xff}: the head
        // alone (inline), and long keys only their tails order.
        proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8), Just(0xffu8)], 0..4).prop_map(
            |tail| {
                let mut k = b"0123456789abcdef".to_vec();
                k.extend_from_slice(&tail);
                k
            }
        ),
    ]
}

fn key_ref_strategy() -> impl Strategy<Value = KeyRef> {
    prop_oneof![key_strategy().prop_map(KeyRef::Fresh), any::<usize>().prop_map(KeyRef::Held)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Inserts twice over: the tree has to grow past a few splits.
    prop_oneof![
        (key_strategy(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key_strategy(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key_ref_strategy().prop_map(Op::Remove),
        key_ref_strategy().prop_map(Op::Get),
        (key_ref_strategy(), key_ref_strategy()).prop_map(|(a, b)| Op::Scan(a, b)),
        proptest::collection::vec((0u8..10).prop_map(|x| x == 0), 1..80).prop_map(Op::Append),
        (1usize..40).prop_map(Op::TrimTail),
    ]
}

fn resolve(r: KeyRef, model: &BTreeMap<Key, u64>) -> Key {
    match r {
        KeyRef::Fresh(k) => k,
        KeyRef::Held(_) if model.is_empty() => Vec::new(),
        KeyRef::Held(n) => model.keys().nth(n % model.len()).expect("in range").clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    #[test]
    fn tree_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..600)) {
        let tree = BTree::new();
        let mgr = EpochManager::new("prop");
        let handle = mgr.register();
        let g = handle.pin();
        let mut model: BTreeMap<Key, u64> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let got = tree.insert(&g, &k, v);
                    match model.get(&k) {
                        Some(&existing) => prop_assert_eq!(got, InsertOutcome::Duplicate(existing)),
                        None => {
                            prop_assert_eq!(got, InsertOutcome::Inserted);
                            model.insert(k, v);
                        }
                    }
                }
                Op::Remove(k) => {
                    let k = resolve(k, &model);
                    prop_assert_eq!(tree.remove(&g, &k), model.remove(&k));
                }
                Op::Get(k) => {
                    let k = resolve(k, &model);
                    prop_assert_eq!(tree.get(&g, &k).0, model.get(&k).copied());
                }
                Op::Scan(a, b) => {
                    let (a, b) = (resolve(a, &model), resolve(b, &model));
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let mut got = Vec::new();
                    tree.scan(&g, &lo, &hi, |_| {}, |k, v| {
                        got.push((k.to_vec(), v));
                        ScanControl::Continue
                    });
                    let expect: Vec<(Key, u64)> = model
                        .range::<[u8], _>((Bound::Included(&lo[..]), Bound::Included(&hi[..])))
                        .map(|(k, &v)| (k.clone(), v))
                        .collect();
                    prop_assert_eq!(got, expect);
                }
                Op::Append(steps) => {
                    for grow in steps {
                        let last = model.keys().next_back().cloned().unwrap_or_default();
                        let k = successor(&last, grow);
                        let v = model.len() as u64;
                        prop_assert_eq!(tree.insert(&g, &k, v), InsertOutcome::Inserted);
                        model.insert(k, v);
                    }
                }
                Op::TrimTail(n) => {
                    for _ in 0..n {
                        let Some((k, v)) = model.pop_last() else { break };
                        prop_assert_eq!(tree.remove(&g, &k), Some(v));
                    }
                }
            }
        }
        // Everything the model holds, in order, and nothing else.
        let mut all = Vec::new();
        tree.scan(&g, &[], None, |_| {}, |k, v| {
            all.push((k.to_vec(), v));
            ScanControl::Continue
        });
        prop_assert_eq!(all, model.into_iter().collect::<Vec<_>>());
    }
}
