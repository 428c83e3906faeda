//! The repository's one checksum: CRC-32C (Castagnoli), carried by every
//! log block, checkpoint frame and wire frame.
//!
//! A reflected CRC with an all-ones initial value and final complement,
//! which x86-64 computes in hardware (the SSE4.2 `crc32` instruction,
//! eight bytes per instruction). Where the CPU lacks it, a table engine
//! ("slicing-by-8": eight 256-entry tables built at compile time) folds
//! eight bytes per step. It catches every single-bit error, every burst
//! up to 32 bits and, since its generator has (x + 1) as a factor, every
//! odd-weight error: guarantees neither the FNV-1a the log used before
//! nor the IEEE CRC-32 wire frames carried before gave.

/// The Castagnoli polynomial, reflected.
const POLY: u32 = 0x82F6_3B78;

/// Eight tables for [`POLY`]: `t[0]` is the classic byte-at-a-time
/// table, `t[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    // Row-major, so `t[0]` is complete before any later row reads it.
    let mut i = 0;
    while i < 256 * 8 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = if k == 0 {
            let (mut c, mut bit) = (b as u32, 0);
            while bit < 8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                bit += 1;
            }
            c
        } else {
            (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize]
        };
        i += 1;
    }
    t
}

static CASTAGNOLI: [[u32; 256]; 8] = tables();

/// Fold `bytes` into the (pre-complemented) register `c`, eight bytes a
/// step.
fn sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CASTAGNOLI;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        let at = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
        c = t[7][at(lo, 0)]
            ^ t[6][at(lo, 8)]
            ^ t[5][at(lo, 16)]
            ^ t[4][at(lo, 24)]
            ^ t[3][at(hi, 0)]
            ^ t[2][at(hi, 8)]
            ^ t[1][at(hi, 16)]
            ^ t[0][at(hi, 24)];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32C (Castagnoli) of `bytes`: what every log block, checkpoint
/// frame and wire frame carries. In hardware when the CPU has SSE4.2,
/// from the table otherwise; the two agree on every input.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// The CRC-32C of some bytes whose CRC-32C is `crc`, followed by `bytes`:
/// how a checksum spans a block written in two pieces.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU was just asked whether it has SSE4.2.
        return !unsafe { sse42(!crc, bytes) };
    }
    !sliced(!crc, bytes)
}

/// [`crc32c`]'s register update with the `crc32` instruction: one per
/// eight bytes, then one per remaining byte. Callable only where the CPU
/// has SSE4.2, which the caller checks (hence the `unsafe` at each call).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42(c: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut wide = c as u64;
    for w in &mut words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(w.try_into().unwrap()));
    }
    words.remainder().iter().fold(wide as u32, |c, &b| _mm_crc32_u8(c, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook one-bit-at-a-time CRC: the reference both engines
    /// are checked against. Returns the register after each prefix, so
    /// one pass yields the CRC of every length.
    fn bitwise_prefixes(bytes: &[u8]) -> Vec<u32> {
        let mut c = !0u32;
        let mut out = vec![!c];
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            out.push(!c);
        }
        out
    }

    #[test]
    fn known_answers() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(!sliced(!0, b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        for split in 0..=9 {
            let (a, b) = b"123456789".split_at(split);
            assert_eq!(crc32c_append(crc32c(a), b), 0xE306_9283, "split at {split}");
        }
    }

    /// Every length 0..=4096 at every start offset 0..8, over two
    /// seeded buffers: the table engine equals the bitwise reference,
    /// and the SSE4.2 path (where the CPU has it) equals the table.
    #[test]
    fn every_path_agrees_on_every_length_and_alignment() {
        for seed in 0..2 {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let bytes: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
            for start in 0..8 {
                let buf = &bytes[start..start + 4096];
                let castagnoli = bitwise_prefixes(buf);
                for len in 0..=buf.len() {
                    let data = &buf[..len];
                    let table = !sliced(!0, data);
                    assert_eq!(
                        table, castagnoli[len],
                        "crc32c, seed {seed} start {start} len {len}"
                    );
                    #[cfg(target_arch = "x86_64")]
                    if std::is_x86_feature_detected!("sse4.2") {
                        // SAFETY: the CPU has SSE4.2.
                        let hw = !unsafe { sse42(!0, data) };
                        assert_eq!(hw, table, "sse4.2, seed {seed} start {start} len {len}");
                    }
                }
            }
        }
    }
}
