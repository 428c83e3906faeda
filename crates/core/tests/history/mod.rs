//! The seeded history generator the crash-recovery tests share: a
//! deterministic RNG, the model a run is checked against, and the step
//! that picks one transaction's operations.

use std::collections::BTreeMap;

/// SplitMix64: deterministic per-seed randomness without external deps.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

pub const KEYS: u64 = 32;

/// (ordinal of the table, key) → value.
pub type Model = BTreeMap<(usize, u64), Vec<u8>>;

pub enum Action {
    Insert(Vec<u8>),
    Update(Vec<u8>),
    Delete,
}

/// Apply transaction `txn`'s randomized ops to `model`, returning the op
/// list so the same mutations can be replayed against the database. The
/// verb for each op (insert vs update vs delete) is decided against the
/// *evolving* state, so delete-then-reinsert of one key within a single
/// transaction is generated — the case that trips naive replay.
pub fn mutate_model(
    rng: &mut Rng,
    seed: u64,
    txn: u64,
    tables: usize,
    model: &mut Model,
) -> Vec<((usize, u64), Action)> {
    let nops = 1 + rng.below(4);
    let mut ops = Vec::new();
    for op in 0..nops {
        let key = (rng.below(tables as u64) as usize, rng.below(KEYS));
        if model.contains_key(&key) && rng.below(4) == 0 {
            model.remove(&key);
            ops.push((key, Action::Delete));
        } else {
            let value = format!("s{seed}-t{txn}-o{op}-k{key:?}").into_bytes();
            let existed = model.insert(key, value.clone()).is_some();
            ops.push((key, if existed { Action::Update(value) } else { Action::Insert(value) }));
        }
    }
    ops
}
