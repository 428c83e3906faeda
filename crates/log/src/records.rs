//! On-disk log block and record formats.
//!
//! The unit of log insertion is a *block*: one block per committing
//! transaction (aggregated from its private buffer), or a skip record.
//! Blocks begin with a fixed [`LogBlockHeader`]; transaction blocks carry
//! a sequence of [`LogRecord`]s. Recovery examines only block headers to
//! roll the OID arrays forward (§3.7) but the records carry full keys and
//! payloads so the reproduction can rebuild the entire database from the
//! log ("the log is the database") — the schema included: every catalog
//! entry is a [`BlockKind::Ddl`] block ahead of the first row that names
//! it.

use std::io;

use ermia_common::crc::{crc32c, crc32c_append};
use ermia_common::{IndexId, Lsn, Oid, TableId};

use crate::manager::LogManager;

/// Magic value identifying a block header ("ERMC": payloads carry
/// CRC-32C).
pub const BLOCK_MAGIC: u32 = 0x4552_4d43;

/// The block magic of the format before CRC-32C ("ERML", payloads carried
/// a folded FNV-1a). Kept only so such a log is refused, not read as a
/// hole and truncated.
pub(crate) const LEGACY_BLOCK_MAGIC: u32 = 0x4552_4d4c;

/// What a reader says of bytes in the format before CRC-32C.
pub(crate) fn legacy_format(what: &str) -> io::Error {
    let msg = format!(
        "{what} is in the log format before CRC-32C (FNV-1a checksums), which this build \
         refuses rather than truncates: open it with the build that wrote it"
    );
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serialized size of a block header in bytes.
pub const BLOCK_HEADER_LEN: usize = 32;

/// Where a block header holds its `len` and its `prev` word.
pub(crate) const LEN_AT: usize = 8;
pub(crate) const PREV_AT: usize = 24;

/// Minimum allocation the LSN space will hand out; a closing skip record
/// must always fit in the remainder of a segment, so segment sizes are
/// multiples of this and all allocations are rounded up to it.
pub const MIN_BLOCK_LEN: usize = BLOCK_HEADER_LEN;

/// Block kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum BlockKind {
    /// A committed transaction's updates.
    Txn = 1,
    /// Dead space: an aborted reservation or a segment-closing pad. The
    /// header's `len` covers the whole skipped range.
    Skip = 2,
    // 3 and 4 are no kind: a header that says so is a hole.
    /// A cross-shard transaction's updates, written at 2PC *prepare*.
    /// The payload starts with a [`PrepareMarker`] naming the
    /// coordinator and the number of participants, then carries ordinary
    /// records. The transaction is committed once *every* participant's
    /// prepare block is durable, unless a [`BlockKind::TxnDecide`] in any
    /// participant's log says abort.
    TxnPrepare = 5,
    /// A 2PC verdict record (payload: [`DecideRecord`]). Appended,
    /// unforced, to every participant's log after the outcome is settled
    /// in memory: a commit verdict spares recovery the counting of
    /// prepares, an abort verdict overrides it.
    TxnDecide = 6,
    /// One catalog entry (payload: [`DdlRecord`]): a table with its
    /// primary index, or a secondary index. Appended, unforced, when the
    /// entry is created or its route changes — log order puts it ahead of
    /// every row that names it — and again, the whole catalog, behind
    /// every checkpoint's begin, so truncation never retires the only
    /// copy.
    Ddl = 7,
}

impl BlockKind {
    pub fn from_u8(v: u8) -> Option<BlockKind> {
        match v {
            1 => Some(BlockKind::Txn),
            2 => Some(BlockKind::Skip),
            5 => Some(BlockKind::TxnPrepare),
            6 => Some(BlockKind::TxnDecide),
            7 => Some(BlockKind::Ddl),
            _ => None,
        }
    }
}

/// Serialized size of a [`PrepareMarker`] / [`DecideRecord`].
pub const PREPARE_MARKER_LEN: usize = 32;
pub const DECIDE_RECORD_LEN: usize = 16;

/// First 32 bytes of a [`BlockKind::TxnPrepare`] payload: which shard
/// coordinates this global transaction, how many shards prepared for it,
/// where the coordinator's own prepare block lives, and the
/// distributed-tracing id of the client operation that wrote it (zero
/// when untraced). The global
/// transaction id is `(coord_shard, coord_lsn)`; the *coordinator's
/// own* prepare block stores [`PrepareMarker::COORD_SELF`] (its gtid
/// LSN is its own `cstamp`, which is not known until the log
/// reservation is made, and raw 0 is a real LSN — the first block of a
/// fresh log).
///
/// Layout (little-endian): `coord_shard u32, participants u32,
/// coord_lsn u64, trace_hi u64, trace_lo u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrepareMarker {
    pub coord_shard: u32,
    /// Number of shards that write a prepare block for this transaction.
    /// Recovery commits an undecided transaction iff it finds this many
    /// prepares.
    pub participants: u32,
    /// Raw LSN of the coordinator's prepare block;
    /// [`PrepareMarker::COORD_SELF`] on the coordinator's own prepare.
    pub coord_lsn: u64,
    /// 128-bit trace id of the originating traced operation, split into
    /// two words; both zero when the transaction was untraced. Carried
    /// in the log so a replica's apply of this transaction can be
    /// stitched to the client's trace.
    pub trace_hi: u64,
    pub trace_lo: u64,
}

impl PrepareMarker {
    /// `coord_lsn` sentinel marking the coordinator's own prepare block:
    /// its gtid LSN is the block's own cstamp. Never a valid raw LSN
    /// (the top bit is reserved for TID stamps).
    pub const COORD_SELF: u64 = u64::MAX;

    pub fn encode_into(&self, out: &mut [u8]) {
        assert!(out.len() >= PREPARE_MARKER_LEN);
        out[0..4].copy_from_slice(&self.coord_shard.to_le_bytes());
        out[4..8].copy_from_slice(&self.participants.to_le_bytes());
        out[8..16].copy_from_slice(&self.coord_lsn.to_le_bytes());
        out[16..24].copy_from_slice(&self.trace_hi.to_le_bytes());
        out[24..32].copy_from_slice(&self.trace_lo.to_le_bytes());
    }

    pub fn decode(buf: &[u8]) -> Option<PrepareMarker> {
        if buf.len() < PREPARE_MARKER_LEN {
            return None;
        }
        Some(PrepareMarker {
            coord_shard: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            participants: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            coord_lsn: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            trace_hi: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            trace_lo: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        })
    }
}

/// Payload of a [`BlockKind::TxnDecide`] block: the verdict for one
/// global transaction. `decision` is 1 for commit, 0 for abort.
///
/// Layout (little-endian): `gtid_lsn u64, coord_shard u32, decision u8,
/// pad [u8; 3]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecideRecord {
    /// Raw LSN of the coordinator's prepare block (the gtid).
    pub gtid_lsn: u64,
    pub coord_shard: u32,
    pub commit: bool,
}

impl DecideRecord {
    pub fn encode(&self) -> [u8; DECIDE_RECORD_LEN] {
        let mut out = [0u8; DECIDE_RECORD_LEN];
        out[0..8].copy_from_slice(&self.gtid_lsn.to_le_bytes());
        out[8..12].copy_from_slice(&self.coord_shard.to_le_bytes());
        out[12] = self.commit as u8;
        out
    }

    pub fn decode(buf: &[u8]) -> Option<DecideRecord> {
        if buf.len() < DECIDE_RECORD_LEN {
            return None;
        }
        Some(DecideRecord {
            gtid_lsn: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            coord_shard: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            commit: buf[12] != 0,
        })
    }
}

/// Payload of a [`BlockKind::Ddl`] block, and the catalog's entry in
/// memory: ids are dense and handed out in creation order, one
/// [`IndexId`] per entry, one [`TableId`] per table entry.
///
/// Layout (little-endian): `index u32, table u32, route.1 u64, route.0
/// u8, is_secondary u8, name_len u16, secondary_len u16, pad [u8; 2]`
/// (24 bytes), then the table name and the secondary-index name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DdlRecord {
    pub index: IndexId,
    /// The table the entry creates (`secondary: None`) or belongs to.
    pub table: TableId,
    /// Name of that table.
    pub name: String,
    /// `Some(index name)` when the entry is a secondary index.
    pub secondary: Option<String>,
    /// Shard routing as `(tag, arg)`: the table's policy on a table
    /// entry, the index's rule on a secondary one; `(0, 0)` is the
    /// default of both. The one field that changes over an entry's life.
    pub route: (u8, u64),
}

const DDL_FIXED_LEN: usize = 24;

impl DdlRecord {
    /// Most bytes the two names may have together: the length fields are
    /// u16, and a block must fit the smallest ring.
    pub const MAX_NAMES_LEN: usize = 1024;

    /// True if `other` names the same catalog entry, whatever its route.
    pub fn same_entry(&self, other: &DdlRecord) -> bool {
        (self.index, self.table, &self.name, &self.secondary)
            == (other.index, other.table, &other.name, &other.secondary)
    }

    /// Append this entry to `log` as one unforced [`BlockKind::Ddl`]
    /// block; returns the block's exclusive end offset.
    pub fn append(&self, log: &LogManager) -> io::Result<u64> {
        let secondary = self.secondary.as_deref().unwrap_or("");
        let mut fixed = [0u8; DDL_FIXED_LEN];
        fixed[0..4].copy_from_slice(&self.index.0.to_le_bytes());
        fixed[4..8].copy_from_slice(&self.table.0.to_le_bytes());
        fixed[8..16].copy_from_slice(&self.route.1.to_le_bytes());
        fixed[16] = self.route.0;
        fixed[17] = self.secondary.is_some() as u8;
        fixed[18..20].copy_from_slice(&(self.name.len() as u16).to_le_bytes());
        fixed[20..22].copy_from_slice(&(secondary.len() as u16).to_le_bytes());
        let res =
            log.allocate(BLOCK_HEADER_LEN + DDL_FIXED_LEN + self.name.len() + secondary.len())?;
        let end = res.end_offset();
        res.encode(BlockKind::Ddl, |enc| {
            enc.put(&fixed);
            enc.put(self.name.as_bytes());
            enc.put(secondary.as_bytes());
        });
        Ok(end)
    }

    pub fn decode(buf: &[u8]) -> Option<DdlRecord> {
        let fixed = buf.get(..DDL_FIXED_LEN)?;
        let len_at = |at| u16::from_le_bytes([fixed[at], fixed[at + 1]]) as usize;
        let names = buf.get(DDL_FIXED_LEN..DDL_FIXED_LEN + len_at(18) + len_at(20))?;
        let (name, secondary) = names.split_at(len_at(18));
        let secondary = String::from_utf8(secondary.to_vec()).ok()?;
        Some(DdlRecord {
            index: IndexId(u32::from_le_bytes(fixed[0..4].try_into().unwrap())),
            table: TableId(u32::from_le_bytes(fixed[4..8].try_into().unwrap())),
            name: String::from_utf8(name.to_vec()).ok()?,
            secondary: (fixed[17] != 0).then_some(secondary),
            route: (fixed[16], u64::from_le_bytes(fixed[8..16].try_into().unwrap())),
        })
    }
}

/// Most records one block carries: the header holds the count in 24 bits.
pub const MAX_BLOCK_RECORDS: usize = (1 << 24) - 1;

/// Fixed-size header at the start of every log block.
///
/// Layout (little-endian):
/// ```text
/// 0  magic      u32
/// 4  kind       u8
/// 5  nrec_hi    u8      bits 16..24 of nrec (0 in every block of
///                       fewer than 65 536 records, and in older logs)
/// 6  nrec       u16     bits 0..16 of the number of records
/// 8  len        u32     total block length including header
/// 12 checksum   u32     CRC-32C of the payload
/// 16 cstamp     u64     committer's commit LSN (raw), 0 for skips
/// 24 prev       u64     the block's own logical offset | 1: the log
///                       ring's publication word (0 in older logs)
/// ```
///
/// `prev` is the ring's: [`BlockEncoder::finish`] leaves it alone (zero in
/// a fresh buffer), and the ring stores it last, publishing the fill
/// (`crate::buffer`'s module docs). The scanner takes a nonzero `prev`
/// that names another offset for a hole.
#[derive(Clone, Copy, Debug)]
pub struct LogBlockHeader {
    pub kind: BlockKind,
    /// Records in the block, at most [`MAX_BLOCK_RECORDS`].
    pub nrec: u32,
    pub len: u32,
    pub checksum: u32,
    pub cstamp: Lsn,
    pub prev: u64,
}

impl LogBlockHeader {
    pub fn encode_into(&self, out: &mut [u8]) {
        assert!(out.len() >= BLOCK_HEADER_LEN);
        out[0..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
        assert!(self.nrec as usize <= MAX_BLOCK_RECORDS, "{} records in one block", self.nrec);
        out[4] = self.kind as u8;
        out[5] = (self.nrec >> 16) as u8;
        out[6..8].copy_from_slice(&(self.nrec as u16).to_le_bytes());
        out[8..12].copy_from_slice(&self.len.to_le_bytes());
        out[12..16].copy_from_slice(&self.checksum.to_le_bytes());
        out[16..24].copy_from_slice(&self.cstamp.raw().to_le_bytes());
        out[24..32].copy_from_slice(&self.prev.to_le_bytes());
    }

    /// Decode a header; `None` if the magic doesn't match (a hole).
    pub fn decode(buf: &[u8]) -> Option<LogBlockHeader> {
        if buf.len() < BLOCK_HEADER_LEN {
            return None;
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != BLOCK_MAGIC {
            return None;
        }
        let kind = BlockKind::from_u8(buf[4])?;
        Some(LogBlockHeader {
            kind,
            nrec: u16::from_le_bytes(buf[6..8].try_into().unwrap()) as u32 | (buf[5] as u32) << 16,
            len: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            checksum: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            cstamp: Lsn::from_raw(u64::from_le_bytes(buf[16..24].try_into().unwrap())),
            prev: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        })
    }
}

/// Record kinds within a transaction block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum LogRecordKind {
    /// New object: allocates the OID during recovery replay.
    Insert = 1,
    /// New version behind an existing OID.
    Update = 2,
    /// Tombstone.
    Delete = 3,
    /// Secondary-index entry: `key` is the secondary key, `oid` the
    /// primary record, and `value` the index id (4 bytes, little-endian).
    SecondaryInsert = 4,
}

impl LogRecordKind {
    pub fn from_u8(v: u8) -> Option<LogRecordKind> {
        match v {
            1 => Some(LogRecordKind::Insert),
            2 => Some(LogRecordKind::Update),
            3 => Some(LogRecordKind::Delete),
            4 => Some(LogRecordKind::SecondaryInsert),
            _ => None,
        }
    }
}

/// One logical update inside a transaction block.
///
/// Record layout: `kind u8, flags u8, key_len u16, table u32, oid u32,
/// val_len u32` (16 bytes) followed by key then value bytes. Every value
/// rides in the record, however long: a block is bounded by the ring
/// ([`crate::LogManager::allocate`]). The flags byte is reserved and
/// written as 0; a record with any other flags byte is malformed — which
/// is how a log whose records pointed into a large-object side file is
/// refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    pub kind: LogRecordKind,
    pub table: TableId,
    pub oid: Oid,
    pub key: Vec<u8>,
    pub value: Vec<u8>,
}

pub const RECORD_HEADER_LEN: usize = 16;

/// Bytes of a [`LogRecordKind::SecondaryInsert`] value: an index id.
const INDEX_ID_LEN: usize = 4;

/// The longest key a record (and a checkpoint row) can carry: its length
/// is a u16. The engine refuses a longer one before it installs anything.
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

/// The one encoder of log blocks and records: writes bytes in order into
/// the space they go to — one slice, or the log ring's two halves when a
/// reservation wraps its end — so a block is encoded once, where it will
/// be read from.
///
/// A commit encodes its block straight into its reservation
/// ([`crate::Reservation::encode`]); [`crate::TxLogBuffer`] encodes into
/// its own buffer; [`crate::Reservation::fill`] copies finished bytes with
/// [`BlockEncoder::put`]. Writing past the end of the space panics.
pub struct BlockEncoder<'a> {
    head: &'a mut [u8],
    tail: &'a mut [u8],
    pos: usize,
    nrec: usize,
}

impl<'a> BlockEncoder<'a> {
    /// An encoder at the start of `head`, then `tail`.
    #[inline]
    pub fn new(head: &'a mut [u8], tail: &'a mut [u8]) -> BlockEncoder<'a> {
        BlockEncoder { head, tail, pos: 0, nrec: 0 }
    }

    /// An encoder for a whole block: the payload starts past the header,
    /// which [`BlockEncoder::finish`] writes.
    #[inline]
    pub fn block(head: &'a mut [u8], tail: &'a mut [u8]) -> BlockEncoder<'a> {
        BlockEncoder { pos: BLOCK_HEADER_LEN, ..BlockEncoder::new(head, tail) }
    }

    fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Copy `bytes` to position `at`, across the two pieces if need be.
    #[inline]
    fn write_at(&mut self, at: usize, bytes: &[u8]) {
        match self.head.get_mut(at..at + bytes.len()) {
            Some(out) => out.copy_from_slice(bytes),
            None => self.write_split(at, bytes),
        }
    }

    /// [`BlockEncoder::write_at`] for bytes not wholly in the first piece.
    #[cold]
    fn write_split(&mut self, at: usize, bytes: &[u8]) {
        let split = self.head.len();
        if at >= split {
            self.tail[at - split..at - split + bytes.len()].copy_from_slice(bytes);
        } else {
            let (first, rest) = bytes.split_at(split - at);
            self.head[at..].copy_from_slice(first);
            self.tail[..rest.len()].copy_from_slice(rest);
        }
    }

    /// Append raw bytes.
    #[inline]
    pub fn put(&mut self, bytes: &[u8]) {
        self.write_at(self.pos, bytes);
        self.pos += bytes.len();
    }

    /// Append a 2PC prepare marker (it leads a [`BlockKind::TxnPrepare`]
    /// payload).
    #[inline]
    pub fn marker(&mut self, marker: &PrepareMarker) {
        let mut bytes = [0u8; PREPARE_MARKER_LEN];
        marker.encode_into(&mut bytes);
        self.put(&bytes);
    }

    /// Append one record (layout at [`LogRecord`]).
    #[inline]
    pub fn record(
        &mut self,
        kind: LogRecordKind,
        table: TableId,
        oid: Oid,
        key: &[u8],
        value: &[u8],
    ) {
        self.put(&TxRecordView { kind, table, oid, key, value }.header());
        self.put(key);
        self.put(value);
        self.nrec += 1;
    }

    /// Close a block begun with [`BlockEncoder::block`]: zero the rest of
    /// the space, then write the header — `kind`, the records appended,
    /// the whole space as the length, the payload's CRC-32C — in front,
    /// all but its `prev` word.
    ///
    /// # Panics
    /// If the space is longer than the header's 32-bit length can say.
    #[inline]
    pub fn finish(mut self, kind: BlockKind, cstamp: Lsn) {
        let len = self.len();
        let split = self.head.len().min(self.pos);
        self.head[split..].fill(0);
        let split = self.pos.saturating_sub(self.head.len());
        self.tail[split..].fill(0);
        let skip = BLOCK_HEADER_LEN.saturating_sub(self.head.len());
        let head = self.head.get(BLOCK_HEADER_LEN..).unwrap_or_default();
        let checksum = crc32c_append(crc32c(head), &self.tail[skip..]);
        let len = u32::try_from(len).expect("a block longer than its header's 32-bit length");
        let header =
            LogBlockHeader { kind, nrec: self.nrec as u32, len, checksum, cstamp, prev: 0 };
        let mut bytes = [0u8; BLOCK_HEADER_LEN];
        header.encode_into(&mut bytes);
        self.write_at(0, &bytes[..PREV_AT]);
    }
}

impl LogRecord {
    /// Serialized length of this record.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER_LEN + self.key.len() + self.value.len()
    }

    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.encoded_len(), 0);
        BlockEncoder::new(&mut out[start..], &mut []).record(
            self.kind,
            self.table,
            self.oid,
            &self.key,
            &self.value,
        );
    }

    /// [`TxRecordView::decode`], copied out.
    pub fn decode(buf: &[u8], pos: usize) -> Option<(LogRecord, usize)> {
        TxRecordView::decode(buf, pos).map(|(view, next)| (view.to_owned(), next))
    }
}

/// A borrowed view of one record, decoded in place in a log block.
#[derive(Clone, Copy, Debug)]
pub struct TxRecordView<'a> {
    pub kind: LogRecordKind,
    pub table: TableId,
    pub oid: Oid,
    pub key: &'a [u8],
    pub value: &'a [u8],
}

impl<'a> TxRecordView<'a> {
    /// The record's header (layout at [`LogRecord`]): its key and value
    /// follow it.
    #[inline]
    pub(crate) fn header(&self) -> [u8; RECORD_HEADER_LEN] {
        let mut h = [0u8; RECORD_HEADER_LEN];
        h[0] = self.kind as u8;
        h[2..4].copy_from_slice(&(self.key.len() as u16).to_le_bytes());
        h[4..8].copy_from_slice(&self.table.0.to_le_bytes());
        h[8..12].copy_from_slice(&self.oid.0.to_le_bytes());
        h[12..16].copy_from_slice(&(self.value.len() as u32).to_le_bytes());
        h
    }

    /// Decode one record at `buf[pos..]` without copying it, returning it
    /// and the position of the next record. `None` on malformed input: a
    /// short record, an unknown kind, a nonzero flags byte, or an index
    /// entry whose value is not a 4-byte index id.
    pub fn decode(buf: &'a [u8], pos: usize) -> Option<(TxRecordView<'a>, usize)> {
        let b = buf.get(pos..pos + RECORD_HEADER_LEN)?;
        let kind = LogRecordKind::from_u8(b[0])?;
        if b[1] != 0 {
            return None;
        }
        let key_len = u16::from_le_bytes(b[2..4].try_into().unwrap()) as usize;
        let val_len = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
        if kind == LogRecordKind::SecondaryInsert && val_len != INDEX_ID_LEN {
            return None;
        }
        let body = pos + RECORD_HEADER_LEN;
        let (key, value) = buf.get(body..body + key_len + val_len)?.split_at(key_len);
        let view = TxRecordView {
            kind,
            table: TableId(u32::from_le_bytes(b[4..8].try_into().unwrap())),
            oid: Oid(u32::from_le_bytes(b[8..12].try_into().unwrap())),
            key,
            value,
        };
        Some((view, body + key_len + val_len))
    }

    /// The index an index entry names; `None` for a row image.
    pub fn index_id(&self) -> Option<IndexId> {
        let index = self.value.first_chunk::<INDEX_ID_LEN>();
        let index = index.filter(|_| self.kind == LogRecordKind::SecondaryInsert)?;
        Some(IndexId(u32::from_le_bytes(*index)))
    }

    pub fn to_owned(&self) -> LogRecord {
        LogRecord {
            kind: self.kind,
            table: self.table,
            oid: self.oid,
            key: self.key.to_vec(),
            value: self.value.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = LogBlockHeader {
            kind: BlockKind::Txn,
            nrec: 3,
            len: 128,
            checksum: 0xabcd,
            cstamp: Lsn::from_parts(77, 4),
            prev: 0,
        };
        let mut buf = [0u8; BLOCK_HEADER_LEN];
        h.encode_into(&mut buf);
        let d = LogBlockHeader::decode(&buf).unwrap();
        assert_eq!(d.kind, BlockKind::Txn);
        assert_eq!(d.nrec, 3);
        assert_eq!(d.len, 128);
        assert_eq!(d.checksum, 0xabcd);
        assert_eq!(d.cstamp, Lsn::from_parts(77, 4));
    }

    #[test]
    fn header_rejects_bad_magic() {
        let buf = [0u8; BLOCK_HEADER_LEN];
        assert!(LogBlockHeader::decode(&buf).is_none());
    }

    #[test]
    fn record_roundtrip() {
        let r = LogRecord {
            kind: LogRecordKind::Update,
            table: TableId(9),
            oid: Oid(1234),
            key: b"key-1".to_vec(),
            value: vec![7; 100],
        };
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        let (d, next) = LogRecord::decode(&buf, 0).unwrap();
        assert_eq!(d, r);
        assert_eq!(next, buf.len());
    }

    #[test]
    fn record_decode_rejects_truncation_a_flags_byte_or_an_unknown_kind() {
        let r = LogRecord {
            kind: LogRecordKind::Insert,
            table: TableId(1),
            oid: Oid(1),
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        };
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert!(LogRecord::decode(&buf[..buf.len() - 1], 0).is_none());
        assert_eq!(buf[1], 0, "the flags byte is written as 0");
        for (at, byte) in [(1, 1), (1, 0x80), (0, 0), (0, 9)] {
            let mut bad = buf.clone();
            bad[at] = byte;
            assert!(LogRecord::decode(&bad, 0).is_none(), "byte {at} = {byte}");
        }
    }

    /// An index entry's value is its index id, four bytes: a record of any
    /// other length does not decode, so no reader takes an id from it.
    #[test]
    fn an_index_entry_decodes_only_with_a_4_byte_index_id() {
        for len in [0, 2, 3, 4, 5, 8] {
            let r = LogRecord {
                kind: LogRecordKind::SecondaryInsert,
                table: TableId(1),
                oid: Oid(2),
                key: b"k".to_vec(),
                value: vec![7; len],
            };
            let mut buf = Vec::new();
            r.encode_into(&mut buf);
            let decoded = TxRecordView::decode(&buf, 0).map(|(view, _)| view.index_id());
            let id = (len == 4).then_some(Some(IndexId(0x0707_0707)));
            assert_eq!(decoded, id, "a {len}-byte value");
        }
    }
}
