//! Log scanning for recovery (§3.7).
//!
//! Recovery is straightforward because the log contains only committed
//! work: the scanner walks block headers from a start LSN, hops over
//! skip records and dead zones using the segment table, verifies
//! checksums (CRC-32C) and that each block names its own offset (its
//! header's `prev`, 0 in older logs), and truncates at the first hole — no undo, no
//! redo of uncommitted state. A block in the format before CRC-32C is no
//! hole: the scan fails `InvalidData` there, so such a log is refused
//! whole instead of truncated to nothing.

use std::io;
use std::sync::Arc;

use ermia_common::crc::crc32c;
use ermia_common::Lsn;

use crate::records::{
    legacy_format, BlockKind, DdlRecord, LogBlockHeader, LogRecord, PrepareMarker, TxRecordView,
    BLOCK_HEADER_LEN, LEGACY_BLOCK_MAGIC, PREPARE_MARKER_LEN,
};
use crate::segment::{Segment, SegmentTable};

/// One block as the scanner's chunk holds it (skip blocks are filtered
/// out): nothing is copied until somebody asks for an owned
/// [`ScannedBlock`].
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    pub lsn: Lsn,
    pub header: LogBlockHeader,
    /// Block payload (everything after the header).
    pub payload: &'a [u8],
}

impl<'a> BlockView<'a> {
    /// The transaction records of a Txn or TxnPrepare block (past the
    /// prepare marker when present), each with its *address*: the
    /// logical log offset of its record header. Stops at the first
    /// malformed record: apply a block's records only after
    /// [`BlockView::check_records`].
    pub fn records(&self) -> impl Iterator<Item = (u64, TxRecordView<'a>)> {
        let payload = self.payload;
        let base = self.lsn.offset() + BLOCK_HEADER_LEN as u64;
        let mut pos =
            if self.header.kind == BlockKind::TxnPrepare { PREPARE_MARKER_LEN } else { 0 };
        (0..self.header.nrec).map_while(move |_| {
            let (rec, next) = TxRecordView::decode(payload, pos)?;
            let addr = base + pos as u64;
            pos = next;
            Some((addr, rec))
        })
    }

    /// Fail `InvalidData`, naming the block's LSN, unless all of its
    /// `nrec` records decode. The checksum says the bytes are the ones
    /// written; this says they are records, so a reader never applies a
    /// prefix of a transaction.
    pub fn check_records(&self) -> io::Result<()> {
        let decoded = self.records().count();
        if decoded == self.header.nrec as usize {
            return Ok(());
        }
        let (lsn, nrec) = (self.lsn, self.header.nrec);
        let what = format!("the block at LSN {lsn:?} holds {nrec} records");
        let msg = format!("{what}, and the one at index {decoded} is malformed");
        Err(io::Error::new(io::ErrorKind::InvalidData, msg))
    }

    /// The coordinator marker of a TxnPrepare block, if this is one.
    pub fn prepare_marker(&self) -> Option<PrepareMarker> {
        if self.header.kind != BlockKind::TxnPrepare {
            return None;
        }
        PrepareMarker::decode(self.payload)
    }

    pub fn to_owned(&self) -> ScannedBlock {
        ScannedBlock { lsn: self.lsn, header: self.header, payload: self.payload.to_vec() }
    }
}

/// A [`BlockView`] that owns its payload: what outlives the scanner's
/// chunk (a parked 2PC prepare), and what tests inspect.
#[derive(Debug)]
pub struct ScannedBlock {
    pub lsn: Lsn,
    pub header: LogBlockHeader,
    /// Block payload (everything after the header).
    pub payload: Vec<u8>,
}

impl ScannedBlock {
    pub fn view(&self) -> BlockView<'_> {
        BlockView { lsn: self.lsn, header: self.header, payload: &self.payload }
    }

    /// [`BlockView::records`], each copied out.
    pub fn records(&self) -> Vec<LogRecord> {
        self.view().records().map(|(_, rec)| rec.to_owned()).collect()
    }

    pub fn prepare_marker(&self) -> Option<PrepareMarker> {
        self.view().prepare_marker()
    }
}

/// Most segment bytes one read brings in. A scanner's first read is a
/// sixteenth of it: a replica's tailing round usually finds a few blocks.
const CHUNK: u64 = 1 << 18;

/// Sequential scanner over the durable log. Segment bytes are read a
/// chunk at a time and blocks are handed out as views into the chunk, so
/// a scan costs one `pread` per `CHUNK`, not two per block.
pub struct LogScanner {
    segments: Vec<Arc<Segment>>,
    offset: u64,
    /// Segment bytes from logical offset `chunk_at` on.
    chunk: Vec<u8>,
    chunk_at: u64,
    /// Blocks below this offset are not checksummed again.
    trusted: u64,
}

impl LogScanner {
    /// Scan from logical offset `from` (e.g. the last checkpoint).
    pub fn new(table: &SegmentTable, from: u64) -> LogScanner {
        let (chunk, chunk_at, trusted) = (Vec::new(), 0, 0);
        LogScanner { segments: table.all(), offset: from, chunk, chunk_at, trusted }
    }

    /// For a second pass over bytes a scan has just verified: skip the
    /// checksum of every block that lies below `offset`.
    pub fn trusting(mut self, offset: u64) -> LogScanner {
        self.trusted = offset;
        self
    }

    /// Current scan position: just past the last block returned, or —
    /// after `Ok(None)` — where the first hole begins.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    fn segment_for(&self, offset: u64) -> Option<&Arc<Segment>> {
        let idx = self.segments.partition_point(|s| s.start <= offset);
        if idx == 0 {
            return None;
        }
        let seg = &self.segments[idx - 1];
        (offset < seg.end).then_some(seg)
    }

    fn next_segment_start(&self, offset: u64) -> Option<u64> {
        self.segments.iter().map(|s| s.start).find(|&s| s > offset)
    }

    /// Make the chunk hold `seg`'s bytes `offset..offset + len` and return
    /// where they start in it; `None` for an in-memory segment.
    fn fill(&mut self, seg: &Segment, offset: u64, len: u64) -> io::Result<Option<usize>> {
        let Some(file) = &seg.io else { return Ok(None) };
        if offset < self.chunk_at || offset + len > self.chunk_at + self.chunk.len() as u64 {
            let ahead = if self.chunk.is_empty() { CHUNK / 16 } else { CHUNK };
            let want = len.max(ahead).min(seg.end - offset);
            // Only what the chunk grows by is zeroed: the read overwrites it.
            self.chunk.resize(want as usize, 0);
            self.chunk_at = offset;
            if let Err(e) = file.read_exact_at(&mut self.chunk, seg.file_pos(offset)) {
                self.chunk.clear();
                return Err(e);
            }
        }
        Ok(Some((offset - self.chunk_at) as usize))
    }

    /// The next non-skip block, or `None` at the tail / first hole. A
    /// `None` forgets the chunk, so asking again reads the device again.
    pub fn next_view(&mut self) -> io::Result<Option<BlockView<'_>>> {
        let found = self.advance();
        if !matches!(found, Ok(Some(_))) {
            self.chunk.clear();
        }
        Ok(found?.map(|(lsn, header, at)| {
            let payload = &self.chunk[at + BLOCK_HEADER_LEN..at + header.len as usize];
            BlockView { lsn, header, payload }
        }))
    }

    /// [`LogScanner::next_view`], copied out of the chunk.
    pub fn next_block(&mut self) -> io::Result<Option<ScannedBlock>> {
        Ok(self.next_view()?.map(|view| view.to_owned()))
    }

    /// Step over the next non-skip block: its LSN, header, and where it
    /// starts in the chunk.
    fn advance(&mut self) -> io::Result<Option<(Lsn, LogBlockHeader, usize)>> {
        loop {
            let seg = match self.segment_for(self.offset) {
                Some(seg) => Arc::clone(seg),
                None => {
                    // Dead zone: hop to the next segment, or stop.
                    match self.next_segment_start(self.offset) {
                        Some(start) => {
                            self.offset = start;
                            continue;
                        }
                        None => return Ok(None),
                    }
                }
            };
            if seg.end - self.offset < BLOCK_HEADER_LEN as u64 {
                self.offset = seg.end;
                continue;
            }
            let Some(at) = self.fill(&seg, self.offset, BLOCK_HEADER_LEN as u64)? else {
                return Ok(None); // in-memory segments are not scannable
            };
            let Some(header) = LogBlockHeader::decode(&self.chunk[at..]) else {
                if self.chunk[at..at + 4] == LEGACY_BLOCK_MAGIC.to_le_bytes() {
                    return Err(legacy_format(&format!("the log block at offset {}", self.offset)));
                }
                return Ok(None); // first hole: the log is truncated here
            };
            let len = header.len as u64;
            if len < BLOCK_HEADER_LEN as u64 || self.offset + len > seg.end {
                return Ok(None); // corrupt length: treat as a hole
            }
            if header.prev != 0 && header.prev != self.offset | 1 {
                return Ok(None); // written for another offset: misdirected or stale
            }
            if header.kind == BlockKind::Skip {
                self.offset += len;
                continue;
            }
            let at = self.fill(&seg, self.offset, len)?.expect("the header came from a file");
            let payload = &self.chunk[at + BLOCK_HEADER_LEN..at + len as usize];
            if self.offset >= self.trusted && crc32c(payload) != header.checksum {
                // Torn block: truncate here; `find_tail` resumes over it.
                return Ok(None);
            }
            let lsn = seg.lsn(self.offset);
            self.offset += len;
            return Ok(Some((lsn, header, at)));
        }
    }
}

/// Locate the logical tail of an existing log: the offset just past the
/// last valid block. Used when reopening a log directory so allocation
/// resumes without overwriting committed work. The walk reads every
/// retained block anyway, so it also hands back the catalog it passed:
/// one entry per index id, in id order, the last copy of each (an entry
/// repeats once per checkpoint and route change).
pub(crate) fn find_tail(table: &SegmentTable) -> io::Result<(u64, Vec<DdlRecord>)> {
    let segments = table.all();
    let Some(first) = segments.first() else { return Ok((0, Vec::new())) };
    let mut scanner = LogScanner::new(table, first.start);
    let mut catalog = std::collections::BTreeMap::new();
    // Walk all blocks (including skips, which next_block consumes
    // internally); the scanner's offset after exhaustion is the tail.
    while let Some(block) = scanner.next_view()? {
        if block.header.kind != BlockKind::Ddl {
            continue;
        }
        let Some(rec) = DdlRecord::decode(block.payload) else { continue };
        if let Some(old) = catalog.get(&rec.index).filter(|old: &&DdlRecord| !old.same_entry(&rec))
        {
            let msg = format!("catalog entries {old:?} and {rec:?} (LSN {:?}) collide", block.lsn);
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        catalog.insert(rec.index, rec);
    }
    Ok((scanner.offset, catalog.into_values().collect()))
}
