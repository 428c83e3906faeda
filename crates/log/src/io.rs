//! Pluggable storage backends: the one seam to the data directory.
//!
//! Every data-directory operation goes through a [`SegmentIoFactory`]:
//! `open` hands out one [`SegmentIo`] per file (positional reads/writes
//! plus `sync_data`), and its provided methods create, list, read,
//! measure, rename and remove files and sync directories. Production
//! uses [`FileBackend`] (ordinary files, positional I/O); tests use
//! [`FaultInjector`], a deterministic wrapper that executes a
//! [`FaultPlan`] — fail the Nth write, tear a write after K bytes, fail
//! an fsync, hold a finished fsync's return back, run out of space, or
//! "crash" (all subsequent I/O, directory operations included, errors) —
//! so crash-recovery behavior can be exercised without real hardware
//! faults. Outside this file, `crates/log`, `crates/core` and
//! `crates/repl` touch the file system directly only in the engine's
//! directory lock.
//!
//! A factory travels in [`crate::LogConfig`]; the log's segments and the
//! checkpoint store open their files through it, and injector state is
//! shared across all files it opens, so fault counters are global to
//! the data directory.

use std::fmt;
use std::fs::OpenOptions;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Positional I/O on one log segment file.
///
/// Implementations must be safe for concurrent use: the flusher writes
/// while recovery or the version reader may read.
pub trait SegmentIo: Send + Sync + fmt::Debug {
    /// Write all of `buf` at byte `offset` within the segment.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// Fill `buf` from byte `offset` within the segment.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Force written data to stable storage.
    fn sync_data(&self) -> io::Result<()>;
    /// Size the segment file (sparse; unwritten regions read as zeros).
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// The data directory's storage: opens the [`SegmentIo`] of each file
/// (segments, checkpoint images and markers) and performs every
/// directory operation. Only `open` is required; the rest default to
/// `std::fs`.
///
/// A directory entry — a file created, renamed or removed — is durable
/// only once [`SegmentIoFactory::sync_dir`] of its directory returns.
pub trait SegmentIoFactory: Send + Sync + fmt::Debug {
    /// Open the file at `path`, creating it if missing, never truncating.
    fn open(&self, path: &Path) -> io::Result<Arc<dyn SegmentIo>>;

    /// Create `dir` and every missing ancestor.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    /// The names of the entries of `dir` that are UTF-8, in no order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Ok(name) = entry?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    /// The whole content of the file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    /// The length of the entry at `path`; `NotFound` if there is none.
    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    /// Atomically point `to` at the file `from` names.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    /// Remove the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    /// Make the entries of `dir` durable: what was created, renamed or
    /// removed in it survives a power cut once this returns.
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }
}

/// Create `dir` and its missing ancestors through `io`; with `sync`,
/// sync the parent of each directory created, so its entry survives a
/// power cut. A directory that already exists costs one `len`.
pub fn create_dirs(io: &dyn SegmentIoFactory, dir: &Path, sync: bool) -> io::Result<()> {
    let mut created = Vec::new();
    for d in dir.ancestors().filter(|d| !d.as_os_str().is_empty()) {
        match io.len(d) {
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::NotFound => created.push(d),
            Err(e) => return Err(e),
        }
    }
    if created.is_empty() {
        return Ok(());
    }
    io.create_dir_all(dir)?;
    if sync {
        for d in created.iter().rev() {
            let parent = d.parent().filter(|p| !p.as_os_str().is_empty());
            io.sync_dir(parent.unwrap_or(Path::new(".")))?;
        }
    }
    Ok(())
}

/// The production backend: one `std::fs::File` per segment, positional
/// I/O, `fdatasync` for durability.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileBackend;

#[derive(Debug)]
struct FileIo(std::fs::File);

impl SegmentIo for FileIo {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        FileExt::write_all_at(&self.0, buf, offset)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        FileExt::read_exact_at(&self.0, buf, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl SegmentIoFactory for FileBackend {
    fn open(&self, path: &Path) -> io::Result<Arc<dyn SegmentIo>> {
        let file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(path)?;
        Ok(Arc::new(FileIo(file)))
    }
}

/// What the [`FaultInjector`] should break, counted across every segment
/// it opens (write/sync indices are 0-based and global).
///
/// Write indices are deterministic for a given history: every segment
/// write comes from the flusher thread, in offset order, however many
/// syncs are in flight. Sync indices count `sync_data` calls in the
/// order the device sees them, which is the order the flusher issued
/// them in (one per batch; they are handed out first-in first-out)
/// except that two overlapped syncs issued microseconds apart may reach
/// the device in either order.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Fail the Nth write call without persisting anything.
    pub fail_write_at: Option<u64>,
    /// Kind of the injected write error. Transient kinds
    /// (`Interrupted`, `WouldBlock`, `TimedOut`) let the flusher's
    /// bounded retry succeed on the next attempt; anything else poisons
    /// the log.
    pub write_error_kind: Option<io::ErrorKind>,
    /// On the Nth write, persist only the first K bytes, then crash.
    pub torn_write: Option<TornWrite>,
    /// On the Nth write, persist only the first K bytes but *report
    /// success* and keep running — a firmware-style lost write with no
    /// visible error. Checksum verification on the read path is the only
    /// thing that can catch it.
    pub silent_torn_write: Option<TornWrite>,
    /// Fail the Nth `sync_data` call (fsync errors are never retried).
    pub fail_sync_at: Option<u64>,
    /// Every successful `sync_data` returns this much later than it
    /// finished: the bytes are on the device and nobody has been told.
    /// It is the window a kill must land in to leave recovery a commit
    /// that was durable but never acknowledged.
    pub sync_linger: Option<Duration>,
    /// Total byte budget; writes that would exceed it fail with
    /// `StorageFull` (ENOSPC). Partial chunks are not written.
    pub enospc_after_bytes: Option<u64>,
    /// Crash point: after this many successful writes, every subsequent
    /// read, write, and sync fails — the silent-stop model of a machine
    /// losing power mid-run.
    pub crash_after_writes: Option<u64>,
}

/// The operator's spelling of a one-fault plan, as `ermia-server
/// --fault-plan` takes it (and the chaos harness passes it): `none` (or
/// nothing), `enospc:<bytes>`, `fsync:<n>`, `linger:<ms>`.
impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let (kind, arg) = s.split_once(':').unwrap_or((s, ""));
        let n = || arg.parse::<u64>().map_err(|e| format!("fault plan {s:?}: {e}"));
        match kind {
            "" | "none" => {}
            "enospc" => plan.enospc_after_bytes = Some(n()?),
            "fsync" => plan.fail_sync_at = Some(n()?),
            "linger" => plan.sync_linger = Some(Duration::from_millis(n()?)),
            _ => {
                return Err(format!(
                    "unknown fault plan {s:?} (want none, enospc:<bytes>, fsync:<n> or linger:<ms>)"
                ))
            }
        }
        Ok(plan)
    }
}

/// Parameters of an injected torn write.
#[derive(Clone, Copy, Debug)]
pub struct TornWrite {
    /// Which write call (0-based, global across segments) to tear.
    pub at_write: u64,
    /// How many leading bytes of that write reach the file.
    pub keep_bytes: usize,
}

#[derive(Debug)]
struct InjectorState {
    plan: FaultPlan,
    writes: AtomicU64,
    syncs: AtomicU64,
    bytes_written: AtomicU64,
    crashed: AtomicBool,
    faults_injected: AtomicU64,
    /// Set by [`FaultInjector::repair`]: every planned fault is disabled
    /// from then on; counters keep their history.
    disarmed: AtomicBool,
}

/// Deterministic fault-injecting backend. Clones share state, so the
/// copy kept by a test observes the faults the log triggered.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    state: Arc<InjectorState>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            state: Arc::new(InjectorState {
                plan,
                writes: AtomicU64::new(0),
                syncs: AtomicU64::new(0),
                bytes_written: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
                faults_injected: AtomicU64::new(0),
                disarmed: AtomicBool::new(false),
            }),
        }
    }

    /// The operator replaced the disk: clear the crash flag and disable
    /// every planned fault from here on. Handles opened before the
    /// repair work again (they share this state); fault counters keep
    /// their history. This is what a degraded-mode resume test calls
    /// before [`crate::LogManager::resume`].
    pub fn repair(&self) {
        self.state.disarmed.store(true, Ordering::Release);
        self.state.crashed.store(false, Ordering::Release);
    }

    /// True once the crash point (or a torn write) has fired.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::Acquire)
    }

    /// Trigger the crash point immediately (as if power was cut now).
    pub fn crash_now(&self) {
        self.state.crashed.store(true, Ordering::Release);
    }

    /// Successful write calls so far.
    pub fn writes(&self) -> u64 {
        self.state.writes.load(Ordering::Acquire)
    }

    /// How many faults the plan has actually injected.
    pub fn faults_injected(&self) -> u64 {
        self.state.faults_injected.load(Ordering::Acquire)
    }

    fn alive(&self) -> io::Result<()> {
        if self.crashed() {
            return Err(crash_error());
        }
        Ok(())
    }
}

/// Past the crash point every operation fails, a directory's as its
/// files' do; directory operations never advance the write counter.
impl SegmentIoFactory for FaultInjector {
    fn open(&self, path: &Path) -> io::Result<Arc<dyn SegmentIo>> {
        self.alive()?;
        let file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(path)?;
        Ok(Arc::new(FaultyIo { file, state: Arc::clone(&self.state) }))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.alive()?;
        FileBackend.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.alive()?;
        FileBackend.list(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.alive()?;
        FileBackend.read(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.alive()?;
        FileBackend.len(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.alive()?;
        FileBackend.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.alive()?;
        FileBackend.remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.alive()?;
        FileBackend.sync_dir(dir)
    }
}

fn crash_error() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "injected crash: storage is gone")
}

#[derive(Debug)]
struct FaultyIo {
    file: std::fs::File,
    state: Arc<InjectorState>,
}

impl FaultyIo {
    fn inject(&self, err: io::Error) -> io::Error {
        self.state.faults_injected.fetch_add(1, Ordering::AcqRel);
        err
    }
}

impl SegmentIo for FaultyIo {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let state = &self.state;
        if state.crashed.load(Ordering::Acquire) {
            return Err(crash_error());
        }
        let n = state.writes.fetch_add(1, Ordering::AcqRel);
        if state.disarmed.load(Ordering::Acquire) {
            FileExt::write_all_at(&self.file, buf, offset)?;
            state.bytes_written.fetch_add(buf.len() as u64, Ordering::AcqRel);
            return Ok(());
        }
        if let Some(torn) = state.plan.torn_write {
            if n == torn.at_write {
                let keep = torn.keep_bytes.min(buf.len());
                FileExt::write_all_at(&self.file, &buf[..keep], offset)?;
                state.crashed.store(true, Ordering::Release);
                return Err(self.inject(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("injected torn write: {keep}/{} bytes persisted", buf.len()),
                )));
            }
        }
        if let Some(torn) = state.plan.silent_torn_write {
            if n == torn.at_write {
                let keep = torn.keep_bytes.min(buf.len());
                FileExt::write_all_at(&self.file, &buf[..keep], offset)?;
                state.faults_injected.fetch_add(1, Ordering::AcqRel);
                state.bytes_written.fetch_add(keep as u64, Ordering::AcqRel);
                return Ok(());
            }
        }
        if state.plan.fail_write_at == Some(n) {
            let kind = state.plan.write_error_kind.unwrap_or(io::ErrorKind::Other);
            return Err(self.inject(io::Error::new(kind, "injected write failure")));
        }
        if let Some(budget) = state.plan.enospc_after_bytes {
            let used = state.bytes_written.load(Ordering::Acquire);
            if used + buf.len() as u64 > budget {
                return Err(self.inject(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected ENOSPC: segment byte budget exhausted",
                )));
            }
        }
        FileExt::write_all_at(&self.file, buf, offset)?;
        state.bytes_written.fetch_add(buf.len() as u64, Ordering::AcqRel);
        if let Some(limit) = state.plan.crash_after_writes {
            if n + 1 >= limit {
                state.crashed.store(true, Ordering::Release);
            }
        }
        Ok(())
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        if self.state.crashed.load(Ordering::Acquire) {
            return Err(crash_error());
        }
        FileExt::read_exact_at(&self.file, buf, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        let state = &self.state;
        if state.crashed.load(Ordering::Acquire) {
            return Err(crash_error());
        }
        let s = state.syncs.fetch_add(1, Ordering::AcqRel);
        let armed = !state.disarmed.load(Ordering::Acquire);
        if state.plan.fail_sync_at == Some(s) && armed {
            return Err(self.inject(io::Error::other("injected fsync failure")));
        }
        self.file.sync_data()?;
        if let Some(linger) = state.plan.sync_linger.filter(|_| armed) {
            std::thread::sleep(linger);
        }
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        if self.state.crashed.load(Ordering::Acquire) {
            return Err(crash_error());
        }
        self.file.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use ermia_common::TestDir;

    use super::*;

    #[test]
    fn file_backend_roundtrip() {
        let dir = TestDir::new("io-file");
        let path = dir.join("segment");
        let io = FileBackend.open(&path).unwrap();
        io.set_len(64).unwrap();
        io.write_all_at(b"hello", 10).unwrap();
        io.sync_data().unwrap();
        let mut buf = [0u8; 5];
        io.read_exact_at(&mut buf, 10).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn nth_write_fails_once() {
        let dir = TestDir::new("io-nth");
        let path = dir.join("segment");
        let inj = FaultInjector::new(FaultPlan {
            fail_write_at: Some(1),
            write_error_kind: Some(io::ErrorKind::Interrupted),
            ..FaultPlan::default()
        });
        let io = inj.open(&path).unwrap();
        io.write_all_at(b"a", 0).unwrap(); // write 0 ok
        let err = io.write_all_at(b"b", 1).unwrap_err(); // write 1 fails
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        io.write_all_at(b"b", 1).unwrap(); // retry (write 2) succeeds
        assert_eq!(inj.faults_injected(), 1);
    }

    #[test]
    fn torn_write_persists_prefix_then_crashes() {
        let dir = TestDir::new("io-torn");
        let path = dir.join("segment");
        let inj = FaultInjector::new(FaultPlan {
            torn_write: Some(TornWrite { at_write: 0, keep_bytes: 3 }),
            ..FaultPlan::default()
        });
        let io = inj.open(&path).unwrap();
        io.set_len(16).unwrap();
        assert!(io.write_all_at(b"abcdef", 0).is_err());
        assert!(inj.crashed());
        assert!(io.write_all_at(b"x", 8).is_err(), "post-crash writes fail");
        assert!(io.sync_data().is_err(), "post-crash syncs fail");
        // The prefix made it to the file; verify via a direct read.
        let data = std::fs::read(&path).unwrap();
        assert_eq!(&data[..6], b"abc\0\0\0");
    }

    #[test]
    fn enospc_budget_is_enforced() {
        let dir = TestDir::new("io-enospc");
        let path = dir.join("segment");
        let inj =
            FaultInjector::new(FaultPlan { enospc_after_bytes: Some(8), ..FaultPlan::default() });
        let io = inj.open(&path).unwrap();
        io.write_all_at(b"12345678", 0).unwrap();
        let err = io.write_all_at(b"9", 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn sync_failure_and_crash_point() {
        let dir = TestDir::new("io-sync");
        let path = dir.join("segment");
        let inj = FaultInjector::new(FaultPlan {
            fail_sync_at: Some(0),
            crash_after_writes: Some(2),
            ..FaultPlan::default()
        });
        let io = inj.open(&path).unwrap();
        assert!(io.sync_data().is_err());
        io.sync_data().unwrap(); // only the 0th sync fails
        io.write_all_at(b"a", 0).unwrap();
        io.write_all_at(b"b", 1).unwrap(); // crash point reached
        assert!(inj.crashed());
        assert!(io.write_all_at(b"c", 2).is_err());
        assert!(inj.open(&path).is_err(), "factory refuses to open after crash");
    }

    #[test]
    fn directory_operations_fail_after_the_crash_point_and_count_no_write() {
        let dir = TestDir::new("io-dir");
        let path = dir.join("segment");
        let inj = FaultInjector::new(FaultPlan::default());
        inj.open(&path).unwrap().write_all_at(b"a", 0).unwrap();
        inj.create_dir_all(&dir.join("sub")).unwrap();
        assert_eq!(inj.list(&dir).unwrap().len(), 2);
        assert_eq!(inj.len(&path).unwrap(), 1);
        inj.rename(&path, &dir.join("moved")).unwrap();
        inj.sync_dir(&dir).unwrap();
        assert_eq!(inj.read(&dir.join("moved")).unwrap(), b"a");
        inj.crash_now();
        let moved = dir.join("moved");
        assert!(inj.create_dir_all(&dir.join("other")).is_err());
        assert!(inj.list(&dir).is_err());
        assert!(inj.read(&moved).is_err());
        assert!(inj.len(&moved).is_err());
        assert!(inj.rename(&moved, &path).is_err());
        assert!(inj.remove(&moved).is_err());
        assert!(inj.sync_dir(&dir).is_err());
        assert!(moved.exists(), "nothing past the crash point reached the disk");
        assert_eq!(inj.writes(), 1, "directory operations are not writes");
    }
}
