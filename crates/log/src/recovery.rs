//! Log scanning for recovery (§3.7).
//!
//! Recovery is straightforward because the log contains only committed
//! work: the scanner walks block headers from a start LSN, hops over
//! skip records and dead zones using the segment table, verifies
//! checksums, and truncates at the first hole — no undo, no redo of
//! uncommitted state.

use std::io;
use std::sync::Arc;

use ermia_common::Lsn;

use crate::records::{
    BlockKind, DdlRecord, LogBlockHeader, LogRecord, PrepareMarker, BLOCK_HEADER_LEN,
    PREPARE_MARKER_LEN,
};
use crate::segment::{Segment, SegmentTable};

/// One block yielded by the scanner (skip blocks are filtered out).
#[derive(Debug)]
pub struct ScannedBlock {
    pub lsn: Lsn,
    pub header: LogBlockHeader,
    /// Block payload (everything after the header).
    pub payload: Vec<u8>,
}

impl ScannedBlock {
    /// Decode the transaction records in a Txn or TxnPrepare block
    /// (skipping the prepare marker when present).
    pub fn records(&self) -> Vec<LogRecord> {
        let mut out = Vec::with_capacity(self.header.nrec as usize);
        let mut pos =
            if self.header.kind == BlockKind::TxnPrepare { PREPARE_MARKER_LEN } else { 0 };
        for _ in 0..self.header.nrec {
            match LogRecord::decode(&self.payload, pos) {
                Some((rec, next)) => {
                    out.push(rec);
                    pos = next;
                }
                None => break,
            }
        }
        out
    }

    /// The coordinator marker of a TxnPrepare block, if this is one.
    pub fn prepare_marker(&self) -> Option<PrepareMarker> {
        if self.header.kind != BlockKind::TxnPrepare {
            return None;
        }
        PrepareMarker::decode(&self.payload)
    }
}

/// Sequential scanner over the durable log.
pub struct LogScanner {
    segments: Vec<Arc<Segment>>,
    offset: u64,
}

impl LogScanner {
    /// Scan from logical offset `from` (e.g. the last checkpoint).
    pub fn new(table: &SegmentTable, from: u64) -> LogScanner {
        LogScanner { segments: table.all(), offset: from }
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

    /// The next non-skip block, or `None` at the tail / first hole.
    pub fn next_block(&mut self) -> io::Result<Option<ScannedBlock>> {
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
            let Some(file) = &seg.io else {
                return Ok(None); // in-memory segments are not scannable
            };
            let mut head = [0u8; BLOCK_HEADER_LEN];
            file.read_exact_at(&mut head, seg.file_pos(self.offset))?;
            let Some(header) = LogBlockHeader::decode(&head) else {
                return Ok(None); // first hole: the log is truncated here
            };
            let len = header.len as u64;
            if len < BLOCK_HEADER_LEN as u64 || self.offset + len > seg.end {
                return Ok(None); // corrupt length: treat as a hole
            }
            let lsn = seg.lsn(self.offset);
            let block_offset = self.offset;
            self.offset += len;
            match header.kind {
                BlockKind::Skip => continue,
                kind => {
                    let mut payload = vec![0u8; header.len as usize - BLOCK_HEADER_LEN];
                    file.read_exact_at(
                        &mut payload,
                        seg.file_pos(block_offset) + BLOCK_HEADER_LEN as u64,
                    )?;
                    let marker = matches!(kind, BlockKind::CheckpointBegin | BlockKind::CheckpointEnd);
                    if !marker && crate::records::checksum32(&payload) != header.checksum {
                        // Torn block: truncate here; `find_tail` resumes over it.
                        self.offset = block_offset;
                        return Ok(None);
                    }
                    return Ok(Some(ScannedBlock { lsn, header, payload }));
                }
            }
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
    while let Some(block) = scanner.next_block()? {
        if block.header.kind != BlockKind::Ddl {
            continue;
        }
        let Some(rec) = DdlRecord::decode(&block.payload) else { continue };
        if let Some(old) = catalog.get(&rec.index).filter(|old: &&DdlRecord| !old.same_entry(&rec)) {
            let msg = format!("catalog entries {old:?} and {rec:?} (LSN {:?}) collide", block.lsn);
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        catalog.insert(rec.index, rec);
    }
    Ok((scanner.offset, catalog.into_values().collect()))
}
