//! The one seeded generator, SplitMix64 (Steele, Lea and Flood, OOPSLA
//! 2014). Every seeded draw — the workloads' streams, test histories,
//! property-test cases and fault plans, the client's retry jitter, trace
//! ids — is one of its streams, so a seed replays the same draws
//! wherever it runs.

/// SplitMix64's increment: the golden ratio in 64 bits.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's finalizer, a bijection that mixes every bit of `z`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One seeded SplitMix64 stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix64(self.0)
    }

    /// `next_u64() % n`, as biased as a modulo is; panics on `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`: the draw's top 53 bits, read as a
    /// fraction of 1, fall below `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

#[cfg(test)]
#[test]
fn the_stream_of_seed_zero_is_splitmix64s() {
    let (mut g, mut b) = (SplitMix64::new(0), SplitMix64::new(0));
    for w in [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F] {
        assert_eq!((g.next_u64(), b.below(1 << 20)), (w, w % (1 << 20)));
    }
    // The same three draws as fractions: 0.883, 0.431, 0.026.
    let mut c = SplitMix64::new(0);
    assert_eq!([0.884, 0.5, 0.027].map(|p| c.chance(p)), [true, true, true]);
    let mut c = SplitMix64::new(0);
    assert_eq!([0.883, 0.431, 0.026].map(|p| c.chance(p)), [false, false, false]);
}
