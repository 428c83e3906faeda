//! LogScanner edge cases: each test commits a known workload, then
//! corrupts the segment files the way a dying disk would — a wild `len`
//! field, a flipped payload bit, garbage where the next header should
//! be, a torn header at a segment boundary — and asserts the scanner
//! truncates cleanly at the damage instead of erroring or misreading.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use ermia_common::{Oid, TableId, TestDir};
use ermia_log::{LogConfig, LogManager, LogScanner, BLOCK_HEADER_LEN};

mod common;

fn cfg(dir: PathBuf) -> LogConfig {
    LogConfig {
        dir: Some(dir),
        segment_size: 4096,
        buffer_size: 64 << 10,
        fsync: true,
        flush_interval: Duration::from_micros(50),
        ..LogConfig::default()
    }
}

/// Commit `n` one-record transactions, returning each block's logical
/// offset (LSN offset) and the directory's first segment file.
fn write_blocks(dir: &Path, n: u64) -> Vec<u64> {
    let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
    let mut offsets = Vec::new();
    for i in 0..n {
        let (lsn, end) =
            common::append(&log, i, &i.to_be_bytes(), b"scanner-edge-payload").unwrap();
        offsets.push(lsn.offset());
        log.wait_durable(end).unwrap();
    }
    offsets
}

/// Scan the reopened log, returning the OIDs of every recovered record.
fn scan_oids(dir: &Path) -> Vec<u32> {
    let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut oids = Vec::new();
    while let Some(block) = scanner.next_block().expect("scan must not error") {
        for rec in block.records() {
            oids.push(rec.oid.0);
        }
    }
    oids
}

/// The (single) segment file holding logical offset 0.
fn first_segment_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.file_name()?.to_str()?.starts_with("log-").then_some(p)
        })
        .collect();
    files.sort();
    files.into_iter().next().expect("a segment file exists")
}

fn patch(path: &Path, pos: u64, bytes: &[u8]) {
    use std::os::unix::fs::FileExt;
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.write_all_at(bytes, pos).unwrap();
    f.sync_data().unwrap();
}

/// A block whose `len` field claims to run past the segment end is a
/// hole: the scanner stops there, keeping everything before it.
#[test]
fn corrupt_len_field_truncates_scan() {
    let dir = TestDir::new("len");
    let offsets = write_blocks(&dir, 3);
    // len lives at header offset 8 (see records.rs layout).
    patch(&first_segment_file(&dir), offsets[1] + 8, &u32::MAX.to_le_bytes());
    assert_eq!(scan_oids(&dir), vec![0], "scan keeps block 0, stops at the wild len");
}

/// A `len` smaller than a header is equally a hole.
#[test]
fn undersized_len_field_truncates_scan() {
    let dir = TestDir::new("shortlen");
    let offsets = write_blocks(&dir, 3);
    patch(&first_segment_file(&dir), offsets[2] + 8, &4u32.to_le_bytes());
    assert_eq!(scan_oids(&dir), vec![0, 1]);
}

/// A flipped payload bit fails the Txn checksum: that block and
/// everything after it are truncated; blocks before it survive.
#[test]
fn checksum_mismatch_truncates_scan() {
    let dir = TestDir::new("sum");
    let offsets = write_blocks(&dir, 4);
    let mid_payload = offsets[2] + BLOCK_HEADER_LEN as u64 + 20;
    patch(&first_segment_file(&dir), mid_payload, &[0xFF]);
    assert_eq!(scan_oids(&dir), vec![0, 1]);
}

/// The log reopened on a torn block resumes *over* it: what is committed
/// from then on is found by the next scan. (The tail used to resume
/// behind the torn block, where every later scan stopped short of it —
/// each commit acknowledged after such a restart was lost by the next.)
#[test]
fn commits_after_reopening_on_a_torn_block_survive_the_next_reopen() {
    let dir = TestDir::new("torn-resume");
    let offsets = write_blocks(&dir, 3);
    patch(&first_segment_file(&dir), offsets[2] + BLOCK_HEADER_LEN as u64 + 20, &[0xFF]);
    {
        let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
        assert_eq!(log.next_offset(), offsets[2], "allocation resumes at the hole");
        let (_, end) = common::append(&log, 7, b"after", b"the torn block").unwrap();
        log.wait_durable(end).unwrap();
    }
    assert_eq!(scan_oids(&dir), vec![0, 1, 7]);
}

/// A kind byte that names no kind is a hole, checksum or not: a block
/// whose kind reads 3 (once a checkpoint marker nothing wrote, which
/// the scan passed over unchecked) ends the scan, and the valid block
/// behind it is not resurrected.
#[test]
fn unknown_block_kind_is_a_hole() {
    let dir = TestDir::new("kind");
    let offsets = write_blocks(&dir, 3);
    // kind lives at header offset 4; the CRC covers the payload only.
    patch(&first_segment_file(&dir), offsets[1] + 4, &[3]);
    assert_eq!(scan_oids(&dir), vec![0], "scan keeps block 0, stops at the unknown kind");
}

/// Garbage bytes where the next header should sit (the classic torn
/// tail) end the scan without error.
#[test]
fn garbage_at_tail_is_a_hole() {
    let dir = TestDir::new("tail");
    let offsets = write_blocks(&dir, 2);
    let block_len = offsets[1] - offsets[0];
    let tail = offsets[1] + block_len;
    patch(&first_segment_file(&dir), tail, b"\xde\xad\xbe\xef torn partial head");
    assert_eq!(scan_oids(&dir), vec![0, 1]);
}

/// Fill segments until rotation: the flusher closes each full segment
/// with a skip block that exactly fills its tail, and the scanner must
/// hop the skip into the next segment without losing a block.
#[test]
fn skip_block_filling_segment_tail_is_hopped() {
    let dir = TestDir::new("rotate");
    // Enough blocks to cross several 4 KiB segment boundaries.
    let n = 120u64;
    {
        let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
        let mut last_end = 0;
        for i in 0..n {
            last_end = common::append(&log, i, &i.to_be_bytes(), b"rotation-payload").unwrap().1;
        }
        log.wait_durable(last_end).unwrap();
        assert!(
            log.stats().rotations.load(Ordering::Relaxed) >= 1,
            "workload must actually rotate segments"
        );
    }
    let oids = scan_oids(&dir);
    assert_eq!(oids, (0..n as u32).collect::<Vec<_>>(), "no block lost across rotations");
}

/// Tear the header sitting at a segment boundary (the closing skip of a
/// full segment): the scanner treats it as the first hole, so blocks in
/// later segments — past the hole — are not resurrected.
#[test]
fn torn_header_at_segment_boundary_truncates() {
    let dir = TestDir::new("boundary");
    let n = 120u64;
    let mut offsets = Vec::new();
    {
        let log = LogManager::open(cfg(dir.to_path_buf())).unwrap();
        let mut last_end = 0;
        for i in 0..n {
            let (lsn, end) =
                common::append(&log, i, &i.to_be_bytes(), b"boundary-payload").unwrap();
            offsets.push(lsn.offset());
            last_end = end;
        }
        log.wait_durable(last_end).unwrap();
    }
    // The closing skip of segment 0 sits between the last block that
    // fits under 4096 and the segment end. Find that block.
    let seg_end = 4096u64;
    let in_first_seg = offsets.iter().filter(|&&o| o < seg_end).count();
    let block_len = offsets[1] - offsets[0];
    let skip_at = offsets[in_first_seg - 1] + block_len;
    assert!(skip_at <= seg_end, "skip header lies within segment 0");
    if skip_at < seg_end {
        // Smash the skip header's magic: a torn boundary header.
        patch(&first_segment_file(&dir), skip_at, &[0u8; 4]);
        let oids = scan_oids(&dir);
        assert_eq!(
            oids,
            (0..in_first_seg as u32).collect::<Vec<_>>(),
            "scan keeps segment 0's blocks and stops at the torn boundary header"
        );
    } else {
        // The last block ended flush with the segment: no skip was
        // needed, so tear the first header of segment 1 instead.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?.to_str()?.starts_with("log-").then_some(p)
            })
            .collect();
        files.sort();
        patch(&files[1], 0, &[0u8; 4]);
        let oids = scan_oids(&dir);
        assert_eq!(oids, (0..in_first_seg as u32).collect::<Vec<_>>());
    }
}

fn view_of(n: u8, size: usize) -> ermia_log::LogRecord {
    let (kind, table, oid) = (ermia_log::LogRecordKind::Update, TableId(1), Oid(n as u32));
    ermia_log::LogRecord { kind, table, oid, key: vec![n], value: vec![n; size] }
}

/// The scanner reads the log a chunk at a time (16 KiB first, then 256 KiB)
/// and hands out views into the chunk: blocks that straddle a chunk's end,
/// a block larger than the first chunk, and one larger than any chunk all
/// come back whole and in order, the owned and the borrowed way alike; and
/// a scanner that stopped at the tail sees what is appended afterwards.
#[test]
fn blocks_come_back_whole_across_chunk_boundaries() {
    let dir = TestDir::new("scan-chunks");
    let wide = LogConfig { segment_size: 16 << 20, buffer_size: 4 << 20, ..cfg(dir.to_path_buf()) };
    let log = LogManager::open(wide).unwrap();
    // 7 MiB of blocks whose sizes share no factor with the chunk sizes.
    let sizes = [40usize, 700, 70_000, 3_000, 9, 1_200_000, 500];
    let append = |n: u8, size: usize| {
        common::append(&log, n.into(), &[n], &vec![n; size]).unwrap();
        (n, size)
    };
    let written: Vec<_> =
        (0..40u8).map(|n| append(n, sizes[n as usize % sizes.len()] + n as usize)).collect();
    log.sync().unwrap();

    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut seen = Vec::new();
    while let Some(view) = scanner.next_view().unwrap() {
        let (addr, rec) = view.records().next().expect("one record a block");
        assert_eq!(addr, view.lsn.offset() + BLOCK_HEADER_LEN as u64);
        assert!(rec.value.iter().all(|&b| b == rec.key[0]), "a view into the wrong bytes");
        seen.push((rec.key[0], rec.value.len()));
    }
    assert_eq!(seen, written);
    let mut owning = LogScanner::new(log.segments(), 0);
    for (n, size) in &written {
        let block = owning.next_block().unwrap().expect("every block, owned");
        assert_eq!(block.records(), [view_of(*n, *size)]);
    }

    // The same scanner, asked again after more was written: a `None`
    // forgot the chunk it was read from.
    assert!(scanner.next_view().unwrap().is_none());
    append(99, 123);
    log.sync().unwrap();
    let view = scanner.next_view().unwrap().expect("the appended block");
    assert_eq!(view.records().next().unwrap().1.key, [99]);
}
