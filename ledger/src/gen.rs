//! The benchmark's own seeded input generator: the program under test
//! receives only the generated keys and values, never the seed.

use ermia::shard_of_key;

/// Key length used by every workload (the size the index probes use too).
pub const KEY_LEN: usize = 16;

/// SplitMix64: tiny, seedable, and good enough for key choice.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6c65_6467_6572_2121) // "ledger!!"
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for our sizes).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf-distributed ranks in `0..n` by Walker's alias method: O(n) to
/// build, two multiplies and one table probe per draw, so the generator
/// stays a small, constant share of a microsecond-scale transaction.
pub struct Zipf {
    /// Per column: acceptance threshold scaled to 2^32, and the alias.
    cols: Vec<(u32, u32)>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut cols = vec![(u32::MAX, 0u32); n];
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            cols[s] = ((scaled[s] * u32::MAX as f64) as u32, l as u32);
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        Zipf { cols }
    }

    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let r = rng.next_u64();
        let col = (((r >> 32) * self.cols.len() as u64) >> 32) as usize;
        let (threshold, alias) = self.cols[col];
        if (r as u32) <= threshold {
            col as u64
        } else {
            alias as u64
        }
    }
}

/// 16-byte key: a 4-byte table tag, the big-endian id (so ids sort), and
/// a 4-byte salt (zero unless the key must land on a given shard).
#[inline]
pub fn key(tag: &[u8; 4], id: u64, salt: u32) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..4].copy_from_slice(tag);
    k[4..12].copy_from_slice(&id.to_be_bytes());
    k[12..].copy_from_slice(&salt.to_be_bytes());
    k
}

/// The smallest salt that routes `id`'s key to `shard` of `shards`.
pub fn salt_for_shard(tag: &[u8; 4], id: u64, shard: usize, shards: usize) -> u32 {
    (0u32..).find(|&s| shard_of_key(&key(tag, id, s), shards) == shard).expect("some salt routes")
}

/// Fill `out` with the value every reader can re-derive from the key id
/// and the write's version: `[version][id][filler(id, version)…]`.
pub fn fill_value(out: &mut [u8], id: u64, version: u64) {
    out[..8].copy_from_slice(&version.to_le_bytes());
    out[8..16].copy_from_slice(&id.to_le_bytes());
    let mut z = mix64(id ^ version.rotate_left(32));
    for chunk in out[16..].chunks_mut(8) {
        z = mix64(z);
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}

/// Version stamped into a value by [`fill_value`].
pub fn value_version(v: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(v.get(..8)?.try_into().ok()?))
}

/// True iff `v` is exactly what [`fill_value`] writes for `(id, version)`.
pub fn value_matches(v: &[u8], id: u64, version: u64) -> bool {
    // Checked on every reply: compare against a stack buffer, not a Vec.
    let mut want = [0u8; 128];
    if v.len() < 16 || v.len() > want.len() {
        return false;
    }
    fill_value(&mut want[..v.len()], id, version);
    want[..v.len()] == *v
}

/// FNV-1a fold the tests fingerprint an op stream with (same seed ⇒ same
/// hash).
#[cfg(test)]
pub struct StreamHash(pub u64);

#[cfg(test)]
impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

#[cfg(test)]
impl StreamHash {
    pub fn push(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Rng::new(7);
        let mut hits = vec![0u32; 1000];
        for _ in 0..200_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 carries ~1/H(1000, 0.9) ≈ 9 % of the mass.
        assert!(hits[0] > 14_000 && hits[0] < 24_000, "rank-0 hits {}", hits[0]);
        assert!(hits[0] > hits[10] && hits[10] > hits[500]);
    }

    #[test]
    fn values_roundtrip() {
        let mut v = [0u8; 64];
        fill_value(&mut v, 42, 7);
        assert_eq!(value_version(&v), Some(7));
        assert!(value_matches(&v, 42, 7));
        assert!(!value_matches(&v, 42, 8));
        assert!(!value_matches(&v, 43, 7));
    }

    #[test]
    fn salting_lands_pairs_on_distinct_shards() {
        for id in 0..500u64 {
            let a = key(b"pair", 2 * id, salt_for_shard(b"pair", 2 * id, 0, 2));
            let b = key(b"pair", 2 * id + 1, salt_for_shard(b"pair", 2 * id + 1, 1, 2));
            assert_eq!(shard_of_key(&a, 2), 0);
            assert_eq!(shard_of_key(&b, 2), 1);
        }
    }
}
