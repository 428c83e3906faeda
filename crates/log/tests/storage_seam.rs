//! The storage seam: every data-directory operation reaches the
//! configured [`SegmentIoFactory`], in the order recovery relies on.
//!
//! [`Recorder`] wraps [`FileBackend`] and logs each operation with its
//! path, the files' own I/O included. The tests pin three durability
//! orders — a checkpoint's rename and marker each followed by a
//! directory sync, a new segment's entry synced before the first write
//! into it, a batch of retired segments followed by one directory sync —
//! and that a failed retirement reports its error and keeps the segment.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ermia_common::{Lsn, TestDir};
use ermia_log::{
    CheckpointMeta, CheckpointStore, FaultInjector, FaultPlan, FileBackend, LogConfig, LogManager,
    SegmentIo, SegmentIoFactory,
};

mod common;

/// One storage operation: its name and the path it acted on (a rename's
/// destination, the entry its directory gains).
type Op = (&'static str, PathBuf);

/// A [`FileBackend`] that logs every operation, its files' included.
/// Clones share the log.
#[derive(Clone, Debug, Default)]
struct Recorder {
    ops: Arc<Mutex<Vec<Op>>>,
}

impl Recorder {
    fn log(&self, what: &'static str, path: &Path) {
        self.ops.lock().unwrap().push((what, path.to_owned()));
    }

    /// Everything logged since the last call, in the order it ran.
    fn take(&self) -> Vec<Op> {
        std::mem::take(&mut *self.ops.lock().unwrap())
    }
}

#[derive(Debug)]
struct RecordedIo {
    io: Arc<dyn SegmentIo>,
    path: PathBuf,
    rec: Recorder,
}

impl SegmentIo for RecordedIo {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.rec.log("write", &self.path);
        self.io.write_all_at(buf, offset)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.rec.log("read_at", &self.path);
        self.io.read_exact_at(buf, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.rec.log("sync_data", &self.path);
        self.io.sync_data()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.rec.log("set_len", &self.path);
        self.io.set_len(len)
    }
}

impl SegmentIoFactory for Recorder {
    fn open(&self, path: &Path) -> io::Result<Arc<dyn SegmentIo>> {
        self.log("open", path);
        let io = FileBackend.open(path)?;
        Ok(Arc::new(RecordedIo { io, path: path.to_owned(), rec: self.clone() }))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.log("create_dir_all", dir);
        FileBackend.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.log("list", dir);
        FileBackend.list(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.log("read", path);
        FileBackend.read(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.log("len", path);
        FileBackend.len(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.log("rename", to);
        FileBackend.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.log("remove", path);
        FileBackend.remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.log("sync_dir", dir);
        FileBackend.sync_dir(dir)
    }
}

fn log_cfg(dir: &Path, io: Arc<dyn SegmentIoFactory>) -> LogConfig {
    LogConfig {
        dir: Some(dir.to_owned()),
        segment_size: 4096,
        buffer_size: 64 << 10,
        fsync: true,
        flush_interval: Duration::from_micros(50),
        io_factory: io,
        wait_durable_timeout: Duration::from_secs(5),
    }
}

/// Commit single-update blocks, each acknowledged, until the log has
/// `segments` segment files.
fn fill_segments(log: &LogManager, segments: usize) {
    for id in 0u64.. {
        if log.segments().all().len() >= segments {
            return;
        }
        let (_, end) = common::append(log, id, &id.to_be_bytes(), &[7; 200]).unwrap();
        log.wait_durable(end).unwrap();
    }
}

fn position(ops: &[Op], what: &str, path: &Path) -> usize {
    ops.iter()
        .position(|(w, p)| *w == what && p == path)
        .unwrap_or_else(|| panic!("no {what} of {} in {ops:#?}", path.display()))
}

#[test]
fn a_checkpoint_syncs_its_directory_after_the_rename_and_after_the_marker() {
    let dir = TestDir::new("seam-chk");
    let rec = Recorder::default();
    let store = CheckpointStore::new(&*dir, Arc::new(rec.clone())).unwrap();
    rec.take();
    let begin = Lsn::from_parts(4096, 0);
    store.write(CheckpointMeta { begin }, b"a checkpoint image").unwrap();
    let tmp = dir.join("chk-tmp");
    let ops: Vec<_> = rec.take().into_iter().filter(|(what, _)| *what != "set_len").collect();
    let want: Vec<Op> = vec![
        ("open", tmp.clone()),
        ("write", tmp.clone()),
        ("sync_data", tmp),
        ("rename", dir.join(format!("chk-{:016x}.bin", begin.raw()))),
        ("sync_dir", dir.to_path_buf()),
        ("open", dir.join(format!("chk-marker-{:016x}", begin.raw()))),
        ("sync_dir", dir.to_path_buf()),
    ];
    assert_eq!(ops, want);
}

#[test]
fn a_new_segment_is_synced_into_its_directory_before_its_first_write() {
    let root = TestDir::new("seam-rotate");
    let dir = root.join("log");
    let rec = Recorder::default();
    let log = LogManager::open(log_cfg(&dir, Arc::new(rec.clone()))).unwrap();
    fill_segments(&log, 2);
    let ops = rec.take();
    // The open created the log directory: its entry is synced first.
    let created = position(&ops, "create_dir_all", &dir);
    assert!(position(&ops, "sync_dir", &root) > created);
    for seg in log.segments().all() {
        let path = seg.path.clone().unwrap();
        let opened = position(&ops, "open", &path);
        let synced = opened
            + ops[opened..]
                .iter()
                .position(|op| *op == ("sync_dir", dir.clone()))
                .expect("a directory sync after the segment's open");
        assert!(synced < position(&ops, "write", &path), "segment {}: {ops:#?}", seg.index);
    }
}

#[test]
fn retiring_segments_removes_them_then_syncs_the_directory_once() {
    let dir = TestDir::new("seam-retire");
    let rec = Recorder::default();
    let log = LogManager::open(log_cfg(&dir, Arc::new(rec.clone()))).unwrap();
    fill_segments(&log, 3);
    let old: Vec<_> = log.segments().all()[..2].iter().map(|s| s.path.clone().unwrap()).collect();
    rec.take();
    assert_eq!(log.truncate_before(log.durable_offset()).unwrap(), 2);
    let ops: Vec<_> =
        rec.take().into_iter().filter(|(what, _)| matches!(*what, "remove" | "sync_dir")).collect();
    let want: Vec<Op> = vec![
        ("remove", old[0].clone()),
        ("remove", old[1].clone()),
        ("sync_dir", dir.to_path_buf()),
    ];
    assert_eq!(ops, want);
}

#[test]
fn a_failed_retirement_reports_its_error_and_keeps_the_segment() {
    let dir = TestDir::new("seam-retire-fail");
    let injector = FaultInjector::new(FaultPlan::default());
    let log = LogManager::open(log_cfg(&dir, Arc::new(injector.clone()))).unwrap();
    fill_segments(&log, 2);
    let first = log.segments().all()[0].clone();
    injector.crash_now();
    let err = log.truncate_before(log.durable_offset()).unwrap_err();
    assert!(err.to_string().contains("injected crash"), "{err}");
    assert_eq!(log.segments().all()[0].index, first.index, "the segment left the table");
    assert!(first.path.as_ref().unwrap().exists(), "the segment left the disk");
}
