//! The test oracles more than one suite checks a run against, and the
//! runner their property tests share. None knows an engine: a suite
//! drives its own and hands them plain values. Every user lists this
//! crate under `[dev-dependencies]` only; their seeds draw from
//! `ermia_common::rng::SplitMix64`.

pub mod history;
pub mod journal;

use ermia_common::rng::SplitMix64;

/// Run property `name` on `n` cases. Case `i` draws from a stream seeded
/// by the `i`-th draw of `SplitMix64::new(base)`, where `base` is `seed`
/// or, without one, the CRC-32C of the name — so a run is the same every
/// time unless its caller passes a seed (the integration suites pass
/// `PROPTEST_SEED`). A failing case panics; the runner then prints the
/// base seed and the case index that replay it.
pub fn cases(name: &str, n: u32, seed: Option<u64>, mut check: impl FnMut(&mut SplitMix64)) {
    let base = seed.unwrap_or_else(|| ermia_common::crc::crc32c(name.as_bytes()) as u64);
    let mut seeds = SplitMix64::new(base);
    for case in 0..n {
        let report = Failure { name, base, case, n };
        check(&mut SplitMix64::new(seeds.next_u64()));
        std::mem::forget(report);
    }
}

/// Dropped only while a case unwinds: names what replays it.
struct Failure<'a> {
    name: &'a str,
    base: u64,
    case: u32,
    n: u32,
}

impl Drop for Failure<'_> {
    fn drop(&mut self) {
        let Failure { name, base, case, n } = self;
        eprintln!(
            "{name}: case {case} of {n} failed; base seed {base} replays it \
             (PROPTEST_SEED={base} where the suite reads it)"
        );
    }
}

/// `lo..hi` random bytes: the byte vectors the property tests feed.
pub fn bytes(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<u8> {
    (0..lo as u64 + rng.below((hi - lo) as u64)).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn a_base_seed_replays_its_cases() {
    let draws = |seed| {
        let mut firsts = Vec::new();
        cases("p", 3, seed, |rng| firsts.push(rng.next_u64()));
        firsts
    };
    assert_eq!(draws(None), draws(Some(ermia_common::crc::crc32c(b"p") as u64)));
    assert_ne!(draws(None), draws(Some(1)));
}
