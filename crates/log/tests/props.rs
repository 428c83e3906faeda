//! Property tests for the log formats: arbitrary records round-trip
//! through serialization, blocks decode exactly, and the CRC-32C a block
//! carries fails on any single-byte corruption and on every single-bit
//! flip of its payload.

use ermia_check::{bytes, cases};
use ermia_common::crc::crc32c;
use ermia_common::rng::SplitMix64;
use ermia_common::{Lsn, Oid, TableId};
use ermia_log::{
    BlockEncoder, BlockKind, LogBlockHeader, LogRecord, LogRecordKind, BLOCK_HEADER_LEN,
    MIN_BLOCK_LEN,
};

/// A Txn block of `recs`, built with one `BlockEncoder` over a `Vec`.
fn encode(recs: &[LogRecord], cstamp: Lsn) -> Vec<u8> {
    let len = BLOCK_HEADER_LEN + recs.iter().map(LogRecord::encoded_len).sum::<usize>();
    let mut bytes = vec![0; len.next_multiple_of(MIN_BLOCK_LEN)];
    let mut enc = BlockEncoder::block(&mut bytes, &mut []);
    for r in recs {
        enc.record(r.kind, r.table, r.oid, &r.key, &r.value);
    }
    enc.finish(BlockKind::Txn, cstamp);
    bytes
}

fn record(rng: &mut SplitMix64) -> LogRecord {
    let kinds = [
        LogRecordKind::Insert,
        LogRecordKind::Update,
        LogRecordKind::Delete,
        LogRecordKind::SecondaryInsert,
    ];
    let kind = kinds[rng.below(4) as usize];
    LogRecord {
        kind,
        table: TableId(rng.next_u64() as u32),
        oid: Oid(rng.next_u64() as u32),
        key: bytes(rng, 0, 64),
        // An index entry's value is its 4-byte index id.
        value: match kind {
            LogRecordKind::SecondaryInsert => bytes(rng, 4, 5),
            _ => bytes(rng, 0, 256),
        },
    }
}

fn records(rng: &mut SplitMix64, lo: u64, hi: u64) -> Vec<LogRecord> {
    (0..lo + rng.below(hi - lo)).map(|_| record(rng)).collect()
}

fn seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok())
}

#[test]
fn record_roundtrip() {
    cases("record_roundtrip", 96, seed(), |rng| {
        let rec = record(rng);
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        assert_eq!(buf.len(), rec.encoded_len());
        let (decoded, consumed) = LogRecord::decode(&buf, 0).expect("decodes");
        assert_eq!(decoded, rec);
        assert_eq!(consumed, buf.len());
    });
}

/// A whole transaction block round-trips: header fields plus each
/// record in order.
#[test]
fn block_roundtrip() {
    cases("block_roundtrip", 96, seed(), |rng| {
        let recs = records(rng, 0, 12);
        let cstamp = Lsn::from_parts(rng.below(1 << 50), rng.below(16));
        let bytes = encode(&recs, cstamp);
        assert_eq!(bytes.len() % 32, 0);

        let header = LogBlockHeader::decode(&bytes).expect("header decodes");
        assert_eq!(header.nrec as usize, recs.len());
        assert_eq!(header.cstamp, cstamp);
        assert_eq!(header.len as usize, bytes.len());
        assert_eq!(header.checksum, crc32c(&bytes[BLOCK_HEADER_LEN..]));
        // The ring's word: a block built outside the ring has none.
        assert_eq!(header.prev, 0);

        let mut pos = BLOCK_HEADER_LEN;
        for orig in &recs {
            let (dec, next) = LogRecord::decode(&bytes, pos).expect("record decodes");
            assert_eq!(&dec, orig);
            pos = next;
        }
    });
}

/// Flipping any payload byte breaks the checksum.
#[test]
fn checksum_catches_corruption() {
    cases("checksum_catches_corruption", 96, seed(), |rng| {
        let payload = bytes(rng, 1, 256);
        let sum = crc32c(&payload);
        let mut corrupted = payload.clone();
        let pos = rng.below(payload.len() as u64) as usize;
        corrupted[pos] ^= 1 + rng.below(255) as u8;
        assert_ne!(sum, crc32c(&corrupted));
    });
}

/// Every single-bit flip of a serialized block's payload fails the
/// check the scanner makes. A CRC guarantees it for any length; the
/// FNV-1a the log carried before did not.
#[test]
fn every_single_bit_flip_fails_verification() {
    cases("every_single_bit_flip_fails_verification", 32, seed(), |rng| {
        let mut bytes = encode(&records(rng, 1, 3), Lsn::from_parts(64, 1));
        let header = LogBlockHeader::decode(&bytes).expect("header decodes");
        assert_eq!(header.checksum, crc32c(&bytes[BLOCK_HEADER_LEN..]));
        for bit in 0..(bytes.len() - BLOCK_HEADER_LEN) * 8 {
            let (at, mask) = (BLOCK_HEADER_LEN + bit / 8, 1u8 << (bit % 8));
            bytes[at] ^= mask;
            assert!(header.checksum != crc32c(&bytes[BLOCK_HEADER_LEN..]), "bit {bit} passed");
            bytes[at] ^= mask;
        }
    });
}
