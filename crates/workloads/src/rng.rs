//! Workload randomness: TPC-C NURand, skew, benchmark strings.

use ermia_common::rng::SplitMix64;

/// A seeded per-worker stream (deterministic given worker id for
/// reproducible loads).
pub fn worker_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x5DEECE66D)
}

/// Uniform in `[lo, hi]` inclusive.
#[inline]
pub fn uniform(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo + 1)
}

/// TPC-C NURand(A, x, y) non-uniform distribution (spec §2.1.6).
/// The C constants are fixed per run; the spec's run-to-run constraints
/// don't affect benchmark behaviour.
#[inline]
pub fn nurand(rng: &mut SplitMix64, a: u64, x: u64, y: u64) -> u64 {
    const C: u64 = 42;
    ((uniform(rng, 0, a) | uniform(rng, x, y)) + C) % (y - x + 1) + x
}

/// An 80-20 skewed pick over `[0, n)`: 80% of draws land in the first
/// 20% of the domain (the Fig. 8 partition-skew experiment).
#[inline]
pub fn skew_80_20(rng: &mut SplitMix64, n: u64) -> u64 {
    debug_assert!(n > 0);
    let hot = (n / 5).max(1);
    if rng.below(100) < 80 {
        rng.below(hot)
    } else if hot < n {
        uniform(rng, hot, n - 1)
    } else {
        0
    }
}

/// Alphanumeric string of length in `[lo, hi]`.
pub fn astring(rng: &mut SplitMix64, lo: usize, hi: usize) -> String {
    const CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let len = uniform(rng, lo as u64, hi as u64);
    (0..len).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char).collect()
}

/// TPC-C customer last name from a number 0..=999 (spec §4.3.2.3).
pub fn last_name(num: u64) -> String {
    const SYLLABLES: [&str; 10] =
        ["BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"];
    let mut s = String::new();
    s.push_str(SYLLABLES[(num / 100 % 10) as usize]);
    s.push_str(SYLLABLES[(num / 10 % 10) as usize]);
    s.push_str(SYLLABLES[(num % 10) as usize]);
    s
}

/// NURand customer-last-name pick (A = 255 over 0..=999).
pub fn rand_last_name(rng: &mut SplitMix64) -> String {
    last_name(nurand(rng, 255, 0, 999))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = worker_rng(1);
        for _ in 0..10_000 {
            let v = nurand(&mut rng, 1023, 1, 3000);
            assert!((1..=3000).contains(&v));
        }
    }

    #[test]
    fn skew_is_actually_skewed() {
        let mut rng = worker_rng(2);
        let n = 100;
        let hot_hits = (0..10_000).filter(|_| skew_80_20(&mut rng, n) < n / 5).count();
        assert!(hot_hits > 7_000, "expected ~80% hot hits, got {hot_hits}");
    }

    #[test]
    fn last_name_examples() {
        assert_eq!(last_name(0), "BARBARBAR");
        assert_eq!(last_name(371), "PRICALLYOUGHT");
        assert_eq!(last_name(999), "EINGEINGEING");
    }

    #[test]
    fn astring_length_bounds() {
        let mut rng = worker_rng(3);
        for _ in 0..100 {
            let s = astring(&mut rng, 8, 16);
            assert!((8..=16).contains(&s.len()));
        }
    }
}
