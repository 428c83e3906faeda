//! The standalone log-block builder, and the borrowed record view.
//!
//! A commit does not come through here: it sizes its block from its
//! write set and encodes each record once, straight from the versions
//! into the bytes its single `fetch_add` reserved in the ring
//! ([`crate::Reservation::encode`]) — no private arena, no scratch block
//! (§3.3 feature 2's private buffer is the write set itself).
//! [`TxLogBuffer`] gathers records first and then encodes the same block
//! with the same [`BlockEncoder`] into a buffer of its own, for the
//! ledger's probes to time (tests build blocks with the encoder itself).
//!
//! The buffer is **allocation-free in the steady state**: record metadata
//! lives in a reused `Vec<RecordMeta>` and key/value bytes are bump-
//! copied into a reused flat arena, so a caller that recycles one
//! `TxLogBuffer` stops touching the allocator once the high-water
//! capacity is reached.

use ermia_common::{Lsn, Oid, TableId};

use crate::records::{
    BlockEncoder, BlockKind, LogRecordKind, PrepareMarker, BLOCK_HEADER_LEN, MIN_BLOCK_LEN,
    PREPARE_MARKER_LEN, RECORD_HEADER_LEN,
};

/// Metadata for one buffered record; its key/value bytes live in the
/// shared arena at the recorded ranges.
#[derive(Clone, Copy)]
struct RecordMeta {
    kind: LogRecordKind,
    table: TableId,
    oid: Oid,
    key_start: u32,
    key_len: u32,
    val_len: u32,
}

/// A borrowed view of one record: in a transaction's private buffer, or —
/// decoded in place by a scan — in a log block.
#[derive(Clone, Copy, Debug)]
pub struct TxRecordView<'a> {
    pub kind: LogRecordKind,
    pub table: TableId,
    pub oid: Oid,
    pub key: &'a [u8],
    pub value: &'a [u8],
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

    pub fn add_insert(&mut self, table: TableId, oid: Oid, key: &[u8], value: &[u8]) {
        self.push(LogRecordKind::Insert, table, oid, key, value);
    }

    pub fn add_update(&mut self, table: TableId, oid: Oid, key: &[u8], value: &[u8]) {
        self.push(LogRecordKind::Update, table, oid, key, value);
    }

    pub fn add_delete(&mut self, table: TableId, oid: Oid, key: &[u8]) {
        self.push(LogRecordKind::Delete, table, oid, key, &[]);
    }

    fn push(&mut self, kind: LogRecordKind, table: TableId, oid: Oid, key: &[u8], value: &[u8]) {
        let key_start = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.metas.push(RecordMeta {
            kind,
            table,
            oid,
            key_start,
            key_len: key.len() as u32,
            val_len: value.len() as u32,
        });
        self.payload_bytes += RECORD_HEADER_LEN + key.len() + value.len();
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Visit the buffered records in order (tests inspect them).
    pub fn for_each_record(&self, mut f: impl FnMut(TxRecordView<'_>)) {
        for m in &self.metas {
            let ks = m.key_start as usize;
            let vs = ks + m.key_len as usize;
            f(TxRecordView {
                kind: m.kind,
                table: m.table,
                oid: m.oid,
                key: &self.arena[ks..vs],
                value: &self.arena[vs..vs + m.val_len as usize],
            });
        }
    }

    /// The block length a commit must reserve: header + records, rounded
    /// up to the minimum block granularity so segment tails always fit a
    /// skip header.
    pub fn block_len(&self) -> usize {
        let raw = BLOCK_HEADER_LEN + self.payload_bytes;
        raw.div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN
    }

    /// The block length a 2PC *prepare* must reserve: like
    /// [`TxLogBuffer::block_len`] plus the [`PrepareMarker`] prefix.
    pub fn prepare_block_len(&self) -> usize {
        let raw = BLOCK_HEADER_LEN + PREPARE_MARKER_LEN + self.payload_bytes;
        raw.div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN
    }

    /// Serialize the block with commit stamp `cstamp` into an internal
    /// scratch buffer and return it. Length equals [`TxLogBuffer::block_len`].
    pub fn serialize(&mut self, cstamp: Lsn) -> &[u8] {
        self.serialize_inner(BlockKind::Txn, cstamp, None)
    }

    /// Serialize the same records as a [`BlockKind::TxnPrepare`] block:
    /// the payload leads with `marker` so recovery can find the
    /// coordinator's verdict. Length equals
    /// [`TxLogBuffer::prepare_block_len`].
    pub fn serialize_prepare(&mut self, cstamp: Lsn, marker: PrepareMarker) -> &[u8] {
        self.serialize_inner(BlockKind::TxnPrepare, cstamp, Some(marker))
    }

    fn serialize_inner(
        &mut self,
        kind: BlockKind,
        cstamp: Lsn,
        marker: Option<PrepareMarker>,
    ) -> &[u8] {
        let total = if marker.is_some() { self.prepare_block_len() } else { self.block_len() };
        // The encoder writes every byte, padding included, but the
        // header's `prev` word, which nothing here writes: it stays zero.
        self.scratch.resize(total, 0);
        let mut enc = BlockEncoder::block(&mut self.scratch, &mut []);
        if let Some(m) = marker {
            enc.marker(&m);
        }
        for m in &self.metas {
            let ks = m.key_start as usize;
            let vs = ks + m.key_len as usize;
            let (key, value) = (&self.arena[ks..vs], &self.arena[vs..vs + m.val_len as usize]);
            enc.record(m.kind, m.table, m.oid, key, value);
        }
        enc.finish(kind, cstamp);
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
        b.add_insert(TableId(1), Oid(1), b"k", b"v");
        assert_eq!(b.block_len() % MIN_BLOCK_LEN, 0);
        assert!(b.block_len() >= BLOCK_HEADER_LEN + 18);
    }

    #[test]
    fn block_len_rounding_matches_reservation() {
        let log = crate::LogManager::open(crate::LogConfig::in_memory()).unwrap();
        let mut tx = TxLogBuffer::new();
        tx.add_insert(TableId(1), Oid(1), b"odd-key", b"odd-value-bytes");
        let res = log.allocate(tx.block_len()).unwrap();
        assert_eq!(res.len() % MIN_BLOCK_LEN, 0);
        let block = tx.serialize(res.lsn());
        assert_eq!(block.len(), res.len());
        res.fill(block);
    }

    #[test]
    fn serialize_roundtrips_records() {
        let mut b = TxLogBuffer::new();
        b.add_insert(TableId(1), Oid(10), b"alpha", b"AAAA");
        b.add_update(TableId(2), Oid(20), b"beta", b"BBBBBB");
        b.add_delete(TableId(1), Oid(10), b"alpha");
        let cstamp = Lsn::from_parts(0x99, 2);
        let bytes = b.serialize(cstamp).to_vec();

        let header = LogBlockHeader::decode(&bytes).unwrap();
        assert_eq!(header.kind, BlockKind::Txn);
        assert_eq!(header.nrec, 3);
        assert_eq!(header.len as usize, bytes.len());
        assert_eq!(header.cstamp, cstamp);
        assert_eq!(header.checksum, crc32c(&bytes[BLOCK_HEADER_LEN..]));

        let mut pos = BLOCK_HEADER_LEN;
        let (r1, p) = LogRecord::decode(&bytes, pos).unwrap();
        assert_eq!(r1.kind, LogRecordKind::Insert);
        assert_eq!(r1.key, b"alpha");
        pos = p;
        let (r2, p) = LogRecord::decode(&bytes, pos).unwrap();
        assert_eq!(r2.kind, LogRecordKind::Update);
        assert_eq!(r2.value, b"BBBBBB");
        pos = p;
        let (r3, _) = LogRecord::decode(&bytes, pos).unwrap();
        assert_eq!(r3.kind, LogRecordKind::Delete);
        assert!(r3.value.is_empty());
    }

    #[test]
    fn serialize_prepare_leads_with_marker() {
        let mut b = TxLogBuffer::new();
        b.add_insert(TableId(4), Oid(40), b"gamma", b"CCCC");
        let cstamp = Lsn::from_parts(0x77, 1);
        let marker = PrepareMarker {
            coord_shard: 3,
            participants: 2,
            coord_lsn: 0xDEAD_BEEF,
            trace_hi: 0,
            trace_lo: 0,
        };
        let bytes = b.serialize_prepare(cstamp, marker).to_vec();
        assert_eq!(bytes.len(), b.prepare_block_len());
        assert!(b.prepare_block_len() >= b.block_len());

        let header = LogBlockHeader::decode(&bytes).unwrap();
        assert_eq!(header.kind, BlockKind::TxnPrepare);
        assert_eq!(header.nrec, 1);
        assert_eq!(header.len as usize, bytes.len());
        assert_eq!(header.cstamp, cstamp);
        assert_eq!(header.checksum, crc32c(&bytes[BLOCK_HEADER_LEN..]));

        let got = PrepareMarker::decode(&bytes[BLOCK_HEADER_LEN..]).unwrap();
        assert_eq!(got.coord_shard, 3);
        assert_eq!(got.coord_lsn, 0xDEAD_BEEF);

        let (r, _) = LogRecord::decode(&bytes, BLOCK_HEADER_LEN + PREPARE_MARKER_LEN).unwrap();
        assert_eq!(r.kind, LogRecordKind::Insert);
        assert_eq!(r.key, b"gamma");
        assert_eq!(r.value, b"CCCC");
    }

    #[test]
    fn record_views_expose_buffered_contents() {
        let mut b = TxLogBuffer::new();
        b.add_update(TableId(3), Oid(7), b"key7", b"val7");
        b.add_delete(TableId(3), Oid(8), b"key8");
        let mut seen = Vec::new();
        b.for_each_record(|r| seen.push((r.kind, r.oid, r.key.to_vec(), r.value.to_vec())));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (LogRecordKind::Update, Oid(7), b"key7".to_vec(), b"val7".to_vec()));
        assert_eq!(seen[1], (LogRecordKind::Delete, Oid(8), b"key8".to_vec(), Vec::new()));
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut b = TxLogBuffer::new();
        b.add_insert(TableId(1), Oid(1), b"k", b"v");
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.block_len(), BLOCK_HEADER_LEN);
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
