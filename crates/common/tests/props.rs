//! Property tests for the vocabulary types: encoded keys must order
//! exactly like their component tuples, and the identifier encodings
//! must be lossless.
//!
//! Each property runs 96 cases; case `i` draws from
//! `SplitMix64::new(base + i)`, `base` being `PROPTEST_SEED` or 0, and a
//! failure names the seed of its case. (A plain loop: the shared runner
//! in `ermia-check` depends on this crate.)

use ermia_common::rng::SplitMix64;
use ermia_common::{decode_u32_at, decode_u64_at, KeyWriter, Lsn, Stamp, Tid};

/// The seeds of a property's 96 cases.
fn seeds() -> std::ops::Range<u64> {
    let base = std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
    base..base + 96
}

/// A string of `[a-zA-Z0-9]{0,12}`.
fn alnum(rng: &mut SplitMix64) -> String {
    const CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    (0..rng.below(13)).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char).collect()
}

/// Composite (u32, u64) keys compare like tuples.
#[test]
fn composite_u32_u64_orders_like_tuple() {
    for seed in seeds() {
        let rng = &mut SplitMix64::new(seed);
        let (a1, b1) = (rng.next_u64() as u32, rng.next_u64());
        // Half the pairs tie on the first component, so the second decides.
        let a2 = if rng.below(2) == 0 { a1 } else { rng.next_u64() as u32 };
        let b2 = rng.next_u64();
        let mut k1 = KeyWriter::new();
        k1.u32(a1).u64(b1);
        let mut k2 = KeyWriter::new();
        k2.u32(a2).u64(b2);
        assert_eq!(k1.as_bytes().cmp(k2.as_bytes()), (a1, b1).cmp(&(a2, b2)), "seed {seed}");
    }
}

/// (string, u32) composites order like tuples for NUL-free strings.
#[test]
fn composite_str_u32_orders_like_tuple() {
    for seed in seeds() {
        let rng = &mut SplitMix64::new(seed);
        let (s1, n1) = (alnum(rng), rng.next_u64() as u32);
        let s2 = if rng.below(2) == 0 { s1.clone() } else { alnum(rng) };
        let n2 = rng.next_u64() as u32;
        let mut k1 = KeyWriter::new();
        k1.str(&s1).u32(n1);
        let mut k2 = KeyWriter::new();
        k2.str(&s2).u32(n2);
        assert_eq!(
            k1.as_bytes().cmp(k2.as_bytes()),
            (s1.as_str(), n1).cmp(&(s2.as_str(), n2)),
            "seed {seed}"
        );
    }
}

/// Decoders invert the writer.
#[test]
fn key_decode_roundtrip() {
    for seed in seeds() {
        let rng = &mut SplitMix64::new(seed);
        let (a, b, c) = (rng.next_u64() as u32, rng.next_u64(), rng.next_u64() as u32);
        let mut k = KeyWriter::new();
        k.u32(a).u64(b).u32(c);
        let bytes = k.as_bytes();
        let got = (decode_u32_at(bytes, 0), decode_u64_at(bytes, 4), decode_u32_at(bytes, 12));
        assert_eq!(got, (a, b, c), "seed {seed}");
    }
}

/// LSN part extraction inverts composition, and ordering follows
/// (offset, segment) lexicographically.
#[test]
fn lsn_roundtrip_and_order() {
    for seed in seeds() {
        let rng = &mut SplitMix64::new(seed);
        let (off1, seg1) = (rng.below(1 << 59), rng.below(16));
        let off2 = if rng.below(2) == 0 { off1 } else { rng.below(1 << 59) };
        let seg2 = rng.below(16);
        let l1 = Lsn::from_parts(off1, seg1);
        let l2 = Lsn::from_parts(off2, seg2);
        assert_eq!((l1.offset(), l1.segment()), (off1, seg1), "seed {seed}");
        assert_eq!(l1.cmp(&l2), (off1, seg1).cmp(&(off2, seg2)), "seed {seed}");
    }
}

/// Stamps never confuse TIDs with LSNs.
#[test]
fn stamp_discriminates() {
    for seed in seeds() {
        let raw = SplitMix64::new(seed).below(1 << 63);
        let as_lsn = Stamp::from_lsn(Lsn::from_raw(raw));
        let as_tid = Stamp::from_tid(Tid::from_raw(raw));
        assert!(!as_lsn.is_tid() && as_tid.is_tid(), "seed {seed}");
        assert_eq!((as_lsn.as_lsn().raw(), as_tid.as_tid().raw()), (raw, raw), "seed {seed}");
    }
}

/// TID slot/generation packing is lossless.
#[test]
fn tid_pack_roundtrip() {
    for seed in seeds() {
        let rng = &mut SplitMix64::new(seed);
        let (generation, slot) = (rng.below(1 << 40), rng.below(1 << 16) as usize);
        let tid = Tid::new(generation, slot);
        assert_eq!((tid.generation(), tid.slot()), (generation, slot), "seed {seed}");
    }
}
