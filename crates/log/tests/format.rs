//! The on-disk format's checksum and its version: log blocks and
//! checkpoint frames carry CRC-32C under magics of their own, and a data
//! directory written in the format before it (FNV-1a checksums, block
//! magic "ERML", checkpoint magic "ECHK") is refused with `InvalidData` —
//! by `LogManager::open`, `Database::open` and `CheckpointStore::latest`
//! alike — instead of being read as a hole at offset 0 and truncated to
//! nothing. A refusal touches no byte of the directory. A fresh directory
//! round-trips and a torn tail is still a hole. A block whose checksum
//! holds but whose records do not decode is refused too, and so is one
//! that names another offset than its own.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ermia::{Database, DbConfig, IsolationLevel};
use ermia_common::crc::crc32c;
use ermia_common::TestDir;
use ermia_log::{
    BlockKind, CheckpointMeta, CheckpointStore, FileBackend, LogConfig, LogManager, LogScanner,
    BLOCK_HEADER_LEN,
};

mod common;

/// The block magic of the format before CRC-32C, as it sits on disk.
const LEGACY_BLOCK_MAGIC: [u8; 4] = 0x4552_4d4c_u32.to_le_bytes();

fn log_cfg(dir: &Path) -> LogConfig {
    LogConfig {
        dir: Some(dir.to_path_buf()),
        segment_size: 64 << 10,
        buffer_size: 64 << 10,
        fsync: true,
        flush_interval: Duration::from_micros(50),
        ..LogConfig::default()
    }
}

fn db_cfg(dir: &Path) -> DbConfig {
    DbConfig { log: log_cfg(dir), ..DbConfig::durable(dir) }
}

/// Commit `n` one-record blocks; returns each block's logical offset.
fn write_blocks(dir: &Path, n: u32) -> Vec<u64> {
    let log = LogManager::open(log_cfg(dir)).unwrap();
    (0..n)
        .map(|i| {
            let (lsn, end) =
                common::append(&log, i.into(), &i.to_be_bytes(), b"format-payload").unwrap();
            log.wait_durable(end).unwrap();
            lsn.offset()
        })
        .collect()
}

/// The OIDs of every block a reopened log scans.
fn scan_oids(dir: &Path) -> Vec<u32> {
    let log = LogManager::open(log_cfg(dir)).unwrap();
    let mut scanner = LogScanner::new(log.segments(), 0);
    let mut oids = Vec::new();
    while let Some(block) = scanner.next_block().unwrap() {
        oids.extend(block.records().iter().map(|rec| rec.oid.0));
    }
    oids
}

/// Every file under `dir`, recursively, with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(snapshot(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

/// The segment file holding logical offset 0.
fn first_segment_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("log-"))
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

fn assert_refused<T>(what: &str, result: std::io::Result<T>) {
    match result {
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}");
            assert!(e.to_string().contains("CRC-32C"), "{what} must name the format: {e}");
        }
        Ok(_) => panic!("{what} must refuse a directory in the format before CRC-32C"),
    }
}

#[test]
fn a_log_whose_first_block_has_the_legacy_magic_is_refused_untouched() {
    let dir = TestDir::new("legacy-log");
    {
        let db = Database::open(db_cfg(&dir)).unwrap();
        let table = db.create_table("kv");
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(table, b"k", b"v").unwrap();
        tx.commit().unwrap();
    }
    patch(&first_segment_file(&dir), 0, &LEGACY_BLOCK_MAGIC);
    let before = snapshot(&dir);
    assert_refused("LogManager::open", LogManager::open(log_cfg(&dir)));
    assert_eq!(snapshot(&dir), before, "LogManager::open changed the directory");
    assert_refused("Database::open", Database::open(db_cfg(&dir)));
    assert_eq!(snapshot(&dir), before, "Database::open changed the directory");
}

#[test]
fn a_checkpoint_in_the_legacy_frame_is_refused_untouched() {
    let dir = TestDir::new("legacy-checkpoint");
    {
        let db = Database::open(db_cfg(&dir)).unwrap();
        let table = db.create_table("kv");
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(table, b"k", b"v").unwrap();
        tx.commit().unwrap();
        drop(w);
        db.checkpoint().unwrap();
    }
    let chk = dir.join("checkpoints");
    let payload = std::fs::read_dir(&chk)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "bin"))
        .expect("a checkpoint payload");
    patch(&payload, 0, b"ECHK");
    let before = snapshot(&dir);
    assert_refused(
        "CheckpointStore::latest",
        CheckpointStore::new(&chk, Arc::new(FileBackend)).unwrap().latest(),
    );
    assert_eq!(snapshot(&dir), before, "CheckpointStore::latest changed the directory");
    {
        let db = Database::open(db_cfg(&dir)).unwrap();
        assert_refused("Database::recover", db.recover());
    }
    assert_eq!(snapshot(&dir), before, "recovery changed the directory");
}

#[test]
fn a_fresh_directory_round_trips() {
    let dir = TestDir::new("fresh");
    write_blocks(&dir, 5);
    assert_eq!(scan_oids(&dir), vec![0, 1, 2, 3, 4]);

    let store = CheckpointStore::new(dir.join("checkpoints"), Arc::new(FileBackend)).unwrap();
    let begin = ermia_common::Lsn::from_parts(4096, 0);
    store.write(CheckpointMeta { begin }, b"a checkpoint payload").unwrap();
    let (meta, payload) = store.latest().unwrap().expect("the checkpoint verifies");
    assert_eq!((meta.begin, payload.as_slice()), (begin, &b"a checkpoint payload"[..]));

    let db_dir = TestDir::new("fresh-db");
    {
        let db = Database::open(db_cfg(&db_dir)).unwrap();
        let table = db.create_table("kv");
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(table, b"k", b"v").unwrap();
        tx.commit().unwrap();
        drop(w);
        db.checkpoint().unwrap();
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(table, b"k2", b"v2").unwrap();
        tx.commit().unwrap();
    }
    let db = Database::open(db_cfg(&db_dir)).unwrap();
    db.recover().unwrap();
    let table = db.table_id("kv").expect("the catalog came back");
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    for (k, v) in [(&b"k"[..], &b"v"[..]), (b"k2", b"v2")] {
        assert_eq!(tx.read(table, k, |v| v.to_vec()).unwrap().as_deref(), Some(v));
    }
}

#[test]
fn a_torn_tail_is_still_a_hole() {
    let dir = TestDir::new("torn-tail");
    let offsets = write_blocks(&dir, 3);
    let last_len = offsets[2] - offsets[1];
    patch(&first_segment_file(&dir), offsets[2], &vec![0; last_len as usize]);
    assert_eq!(scan_oids(&dir), vec![0, 1]);
    let log = LogManager::open(log_cfg(&dir)).unwrap();
    assert_eq!(log.next_offset(), offsets[2], "allocation resumes at the hole");
}

/// Every block names its own offset: its `prev` word, which the log ring
/// stores to publish it, is the offset | 1 and reaches disk. A valid,
/// checksummed block found at another offset — a misdirected write, or a
/// stale one from an older use of the space — is a hole. A `prev` of 0,
/// which every block holds in a log written before the word, is read.
#[test]
fn a_block_at_another_offset_is_a_hole() {
    let dir = TestDir::new("misdirected");
    let offsets = write_blocks(&dir, 4);
    let len = (offsets[1] - offsets[0]) as usize;
    assert_eq!(offsets[3] - offsets[2], len as u64, "blocks of one length");
    let file = first_segment_file(&dir);
    let at = offsets[0] as usize;
    let first = std::fs::read(&file).unwrap()[at..at + len].to_vec();
    assert_eq!(first[24..32], (offsets[0] | 1).to_le_bytes(), "the block names its offset");
    patch(&file, offsets[2], &first);
    assert_eq!(scan_oids(&dir), vec![0, 1], "block 0's copy was read at another offset");
    patch(&file, offsets[2] + 24, &[0; 8]);
    assert_eq!(scan_oids(&dir), vec![0, 1, 0, 3], "a block naming no offset is read");
}

/// A CRC-valid block whose records do not decode is corruption, not a
/// shorter transaction: recovery fails `InvalidData`, naming the block's
/// LSN, and applies none of its records. Each case patches one byte of
/// the second record of a two-record commit and recomputes the block's
/// CRC-32C: the flags byte (reserved, written as 0 — a record whose value
/// lived in a side file had 1 there), then the kind byte.
#[test]
fn a_checksummed_block_whose_records_do_not_decode_is_refused() {
    for (what, field, byte) in [("flags", 1, 1u8), ("kind", 0, 0x7F)] {
        let dir = TestDir::new("malformed-record");
        let (lsn, len, second) = {
            let db = Database::open(db_cfg(&dir)).unwrap();
            let table = db.create_table("kv");
            let mut w = db.register_worker();
            let mut tx = w.begin(IsolationLevel::Snapshot);
            tx.insert(table, b"first", b"v").unwrap();
            tx.insert(table, b"second", b"v").unwrap();
            tx.commit().unwrap();
            let mut scanner = LogScanner::new(db.log().segments(), 0);
            let block = std::iter::from_fn(|| scanner.next_block().unwrap())
                .find(|b| b.header.kind == BlockKind::Txn)
                .expect("the commit's block");
            let (second, _) = block.view().records().nth(1).expect("two records");
            (block.lsn, block.header.len as usize, second)
        };
        let file = first_segment_file(&dir);
        patch(&file, second + field, &[byte]);
        let at = lsn.offset() as usize;
        let payload = &std::fs::read(&file).unwrap()[at + BLOCK_HEADER_LEN..at + len];
        patch(&file, lsn.offset() + 12, &crc32c(payload).to_le_bytes());

        let db = Database::open(db_cfg(&dir)).unwrap();
        match db.recover() {
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}");
                assert!(e.to_string().contains(&format!("{lsn:?}")), "{what}: {e}");
            }
            Ok(stats) => panic!("{what}: a malformed record was recovered around: {stats:?}"),
        }
        let table = db.table_id("kv").expect("the catalog came back");
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert_eq!(tx.read(table, b"first", |v| v.to_vec()).unwrap(), None, "{what}");
    }
}
