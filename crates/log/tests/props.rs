//! Property tests for the log formats: arbitrary records round-trip
//! through serialization, blocks decode exactly, and the CRC-32C a block
//! carries fails on any single-byte corruption and on every single-bit
//! flip of its payload.

use ermia_common::crc::crc32c;
use ermia_common::{Lsn, Oid, TableId};
use ermia_log::{
    BlockEncoder, BlockKind, LogBlockHeader, LogRecord, LogRecordKind, BLOCK_HEADER_LEN,
    MIN_BLOCK_LEN,
};
use proptest::prelude::*;

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

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    (
        prop_oneof![
            Just(LogRecordKind::Insert),
            Just(LogRecordKind::Update),
            Just(LogRecordKind::Delete),
            Just(LogRecordKind::SecondaryInsert),
        ],
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(kind, table, oid, key, value)| LogRecord {
            kind,
            table: TableId(table),
            oid: Oid(oid),
            key,
            value,
        })
}

proptest! {
    #[test]
    fn record_roundtrip(rec in record_strategy()) {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), rec.encoded_len());
        let (decoded, consumed) = LogRecord::decode(&buf, 0).expect("decodes");
        prop_assert_eq!(decoded, rec);
        prop_assert_eq!(consumed, buf.len());
    }

    /// A whole transaction block round-trips: header fields plus each
    /// record in order.
    #[test]
    fn block_roundtrip(
        recs in proptest::collection::vec(record_strategy(), 0..12),
        cstamp_off in 0u64..(1 << 50),
        seg in 0u64..16,
    ) {
        let cstamp = Lsn::from_parts(cstamp_off, seg);
        let bytes = encode(&recs, cstamp);
        prop_assert_eq!(bytes.len() % 32, 0);

        let header = LogBlockHeader::decode(&bytes).expect("header decodes");
        prop_assert_eq!(header.nrec as usize, recs.len());
        prop_assert_eq!(header.cstamp, cstamp);
        prop_assert_eq!(header.len as usize, bytes.len());
        prop_assert_eq!(header.checksum, crc32c(&bytes[BLOCK_HEADER_LEN..]));
        // The ring's word: a block built outside the ring has none.
        prop_assert_eq!(header.prev, 0);

        let mut pos = BLOCK_HEADER_LEN;
        for orig in &recs {
            let (dec, next) = LogRecord::decode(&bytes, pos).expect("record decodes");
            prop_assert_eq!(&dec, orig);
            pos = next;
        }
    }

    /// Flipping any payload byte breaks the checksum.
    #[test]
    fn checksum_catches_corruption(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        pos_seed: usize,
        flip in 1u8..=255,
    ) {
        let sum = crc32c(&payload);
        let mut corrupted = payload.clone();
        let pos = pos_seed % corrupted.len();
        corrupted[pos] ^= flip;
        prop_assert_ne!(sum, crc32c(&corrupted));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every single-bit flip of a serialized block's payload fails the
    /// check the scanner makes. A CRC guarantees it for any length; the
    /// FNV-1a the log carried before did not.
    #[test]
    fn every_single_bit_flip_fails_verification(
        recs in proptest::collection::vec(record_strategy(), 1..3),
    ) {
        let mut bytes = encode(&recs, Lsn::from_parts(64, 1));
        let header = LogBlockHeader::decode(&bytes).expect("header decodes");
        prop_assert_eq!(header.checksum, crc32c(&bytes[BLOCK_HEADER_LEN..]));
        for bit in 0..(bytes.len() - BLOCK_HEADER_LEN) * 8 {
            let (at, mask) = (BLOCK_HEADER_LEN + bit / 8, 1u8 << (bit % 8));
            bytes[at] ^= mask;
            prop_assert!(header.checksum != crc32c(&bytes[BLOCK_HEADER_LEN..]), "bit {} passed", bit);
            bytes[at] ^= mask;
        }
    }
}
