//! The standalone log-block builder.
//!
//! A commit does not come through here: it sizes its block from its
//! write set and encodes each record once, straight from the versions
//! into the bytes its single `fetch_add` reserved in the ring
//! ([`crate::Reservation::encode`]) — no private arena, no scratch block
//! (§3.3 feature 2's private buffer is the write set itself).
//! [`TxLogBuffer`] gathers update records first and then encodes the
//! same block with the same [`BlockEncoder`] into a buffer of its own,
//! for the ledger's probes to time (tests build blocks with the encoder
//! itself).
//!
//! The buffer is **allocation-free in the steady state**: record metadata
//! lives in a reused `Vec<RecordMeta>` and key/value bytes are bump-
//! copied into a reused flat arena, so a caller that recycles one
//! `TxLogBuffer` stops touching the allocator once the high-water
//! capacity is reached.

use ermia_common::{Lsn, Oid, TableId};

use crate::records::{
    BlockEncoder, BlockKind, LogRecordKind, BLOCK_HEADER_LEN, MIN_BLOCK_LEN, RECORD_HEADER_LEN,
};

/// Metadata for one buffered record; its key/value bytes live in the
/// shared arena at the recorded ranges.
#[derive(Clone, Copy)]
struct RecordMeta {
    table: TableId,
    oid: Oid,
    key_start: u32,
    key_len: u32,
    val_len: u32,
}

/// A transaction's private log buffer.
///
/// Reused across transactions by the worker thread ([`TxLogBuffer::clear`])
/// so steady-state operation performs no heap allocation at all.
#[derive(Default)]
pub struct TxLogBuffer {
    metas: Vec<RecordMeta>,
    /// Bump arena: each record's key bytes immediately followed by its
    /// value bytes.
    arena: Vec<u8>,
    payload_bytes: usize,
    scratch: Vec<u8>,
}

impl TxLogBuffer {
    pub fn new() -> TxLogBuffer {
        TxLogBuffer::default()
    }

    pub fn add_update(&mut self, table: TableId, oid: Oid, key: &[u8], value: &[u8]) {
        let key_start = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.metas.push(RecordMeta {
            table,
            oid,
            key_start,
            key_len: key.len() as u32,
            val_len: value.len() as u32,
        });
        self.payload_bytes += RECORD_HEADER_LEN + key.len() + value.len();
    }

    /// The block length a commit must reserve: header + records, rounded
    /// up to the minimum block granularity so segment tails always fit a
    /// skip header.
    pub fn block_len(&self) -> usize {
        let raw = BLOCK_HEADER_LEN + self.payload_bytes;
        raw.div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN
    }

    /// Serialize the block with commit stamp `cstamp` into an internal
    /// scratch buffer and return it. Length equals [`TxLogBuffer::block_len`].
    pub fn serialize(&mut self, cstamp: Lsn) -> &[u8] {
        // The encoder writes every byte, padding included, but the
        // header's `prev` word, which nothing here writes: it stays zero.
        self.scratch.resize(self.block_len(), 0);
        let mut enc = BlockEncoder::block(&mut self.scratch, &mut []);
        for m in &self.metas {
            let ks = m.key_start as usize;
            let vs = ks + m.key_len as usize;
            let (key, value) = (&self.arena[ks..vs], &self.arena[vs..vs + m.val_len as usize]);
            enc.record(LogRecordKind::Update, m.table, m.oid, key, value);
        }
        enc.finish(BlockKind::Txn, cstamp);
        &self.scratch
    }

    /// Reset for the next transaction, keeping all buffer capacity.
    pub fn clear(&mut self) {
        self.metas.clear();
        self.arena.clear();
        self.payload_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use ermia_common::crc::crc32c;

    use super::*;
    use crate::records::{LogBlockHeader, LogRecord};

    #[test]
    fn block_len_is_padded() {
        let mut b = TxLogBuffer::new();
        assert_eq!(b.block_len(), BLOCK_HEADER_LEN);
        b.add_update(TableId(1), Oid(1), b"k", b"v");
        assert_eq!(b.block_len() % MIN_BLOCK_LEN, 0);
        assert!(b.block_len() >= BLOCK_HEADER_LEN + 18);
    }

    #[test]
    fn block_len_rounding_matches_reservation() {
        let log = crate::LogManager::open(crate::LogConfig::in_memory()).unwrap();
        let mut tx = TxLogBuffer::new();
        tx.add_update(TableId(1), Oid(1), b"odd-key", b"odd-value-bytes");
        let res = log.allocate(tx.block_len()).unwrap();
        assert_eq!(res.len() % MIN_BLOCK_LEN, 0);
        let block = tx.serialize(res.lsn());
        assert_eq!(block.len(), res.len());
        res.fill(block);
    }

    #[test]
    fn serialize_roundtrips_records() {
        let mut b = TxLogBuffer::new();
        b.add_update(TableId(1), Oid(10), b"alpha", b"AAAA");
        b.add_update(TableId(2), Oid(20), b"beta", b"BBBBBB");
        b.add_update(TableId(1), Oid(10), b"alpha", b"");
        let cstamp = Lsn::from_parts(0x99, 2);
        let bytes = b.serialize(cstamp).to_vec();

        let header = LogBlockHeader::decode(&bytes).unwrap();
        assert_eq!(header.kind, BlockKind::Txn);
        assert_eq!(header.nrec, 3);
        assert_eq!(header.len as usize, bytes.len());
        assert_eq!(header.cstamp, cstamp);
        assert_eq!(header.checksum, crc32c(&bytes[BLOCK_HEADER_LEN..]));

        let mut pos = BLOCK_HEADER_LEN;
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (r, next) = LogRecord::decode(&bytes, pos).unwrap();
            seen.push((r.kind, r.table, r.oid, r.key, r.value));
            pos = next;
        }
        let update = |t, o, k: &[u8], v: &[u8]| {
            (LogRecordKind::Update, TableId(t), Oid(o), k.to_vec(), v.to_vec())
        };
        assert_eq!(
            seen,
            [
                update(1, 10, b"alpha", b"AAAA"),
                update(2, 20, b"beta", b"BBBBBB"),
                update(1, 10, b"alpha", b"")
            ]
        );
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut b = TxLogBuffer::new();
        b.add_update(TableId(1), Oid(1), b"k", b"v");
        b.clear();
        assert_eq!(b.block_len(), BLOCK_HEADER_LEN);
        assert_eq!(LogBlockHeader::decode(b.serialize(Lsn::from_parts(1, 0))).unwrap().nrec, 0);
    }

    #[test]
    fn steady_state_reuse_does_not_grow() {
        let mut b = TxLogBuffer::new();
        for round in 0..50u32 {
            b.clear();
            for i in 0..8u32 {
                b.add_update(TableId(1), Oid(i), &i.to_le_bytes(), &round.to_le_bytes());
            }
            let _ = b.serialize(Lsn::from_parts(round as u64 + 1, 0));
            if round == 0 {
                // Capture high-water capacities after the first round.
                let caps = (b.metas.capacity(), b.arena.capacity(), b.scratch.capacity());
                b.clear();
                for i in 0..8u32 {
                    b.add_update(TableId(1), Oid(i), &i.to_le_bytes(), &round.to_le_bytes());
                }
                let _ = b.serialize(Lsn::from_parts(2, 0));
                assert_eq!(
                    caps,
                    (b.metas.capacity(), b.arena.capacity(), b.scratch.capacity()),
                    "reuse must not grow the buffers"
                );
            }
        }
    }
}
