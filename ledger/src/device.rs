//! The modelled log device, owned by the harness.
//!
//! Flush policy (printed with every result): segment writes are real
//! positional file writes; `sync_data` is a fixed 2 ms sleep and no
//! `fdatasync`. The sandbox disk's flush time varies more than tenfold
//! from run to run and is not the program under test; a constant-latency
//! device keeps the group-commit and 2PC round structure measurable.
//!
//! The device also remembers every byte range written since the file's
//! last `sync_data`. [`ModelDevice::crash`] zeroes those ranges — what a
//! power cut would leave of an un-flushed page cache — so the durability
//! check reads back only bytes that were flushed before the ack.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ermia_log::{SegmentIo, SegmentIoFactory};

/// Modelled flush latency. ISSUE 12 proposed 1 ms; every wait on this
/// host carries about 150 us of wake-ups whose cost drifts by a third
/// from run to run, and only at 2 ms is that drift diluted enough for
/// the rate to repeat within a third of its bound (README, "Noise").
pub const SYNC_LATENCY: Duration = Duration::from_millis(2);

#[derive(Debug, Default)]
struct Shared {
    syncs: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    /// Bytes written whose flush has not completed: what a power cut now
    /// would lose.
    volatile: AtomicU64,
    /// After the crash point nothing more reaches the medium.
    frozen: AtomicBool,
    /// Held where a flush completes and where the power is cut, so a
    /// flush is either wholly before the cut or wholly lost.
    power: Mutex<()>,
    files: Mutex<Vec<Arc<ModelFile>>>,
}

#[derive(Debug)]
struct ModelFile {
    file: File,
    unsynced: Mutex<Vec<(u64, u64)>>,
    shared: Arc<Shared>,
}

impl SegmentIo for ModelFile {
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        if self.shared.frozen.load(Relaxed) {
            return Ok(());
        }
        let t0 = Instant::now();
        self.file.write_all_at(buf, offset)?;
        self.unsynced.lock().expect("range list poisoned").push((offset, buf.len() as u64));
        self.shared.volatile.fetch_add(buf.len() as u64, Relaxed);
        self.shared.bytes.fetch_add(buf.len() as u64, Relaxed);
        self.shared.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        Ok(())
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.file.read_exact_at(buf, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        if self.shared.frozen.load(Relaxed) {
            return Ok(());
        }
        let t0 = Instant::now();
        // Ranges written before the flush started are the ones it covers.
        let covered = std::mem::take(&mut *self.unsynced.lock().expect("range list poisoned"));
        std::thread::sleep(SYNC_LATENCY);
        let _power = self.shared.power.lock().expect("power lock poisoned");
        if self.shared.frozen.load(Relaxed) {
            // Power was cut mid-flush: nothing it covered is safe.
            self.unsynced.lock().expect("range list poisoned").extend(covered);
            return Ok(());
        }
        self.shared.volatile.fetch_sub(covered.iter().map(|r| r.1).sum(), Relaxed);
        self.shared.syncs.fetch_add(1, Relaxed);
        self.shared.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// A snapshot of the device counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceCounters {
    pub syncs: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

/// Factory handed to `LogConfig::io_factory`; clones share state.
#[derive(Clone, Debug, Default)]
pub struct ModelDevice {
    shared: Arc<Shared>,
}

impl ModelDevice {
    pub fn counters(&self) -> DeviceCounters {
        let s = &self.shared;
        DeviceCounters {
            syncs: s.syncs.load(Relaxed),
            bytes: s.bytes.load(Relaxed),
            busy_ns: s.busy_ns.load(Relaxed),
        }
    }

    /// Cut the power: from now on writes and flushes are dropped.
    pub fn freeze(&self) {
        let _power = self.shared.power.lock().expect("power lock poisoned");
        self.shared.frozen.store(true, Relaxed);
    }

    /// Cut the power only if bytes are in flight — written, their flush
    /// not complete — so that the crash has something to lose. `true` iff
    /// it did.
    pub fn freeze_if_dirty(&self) -> bool {
        let _power = self.shared.power.lock().expect("power lock poisoned");
        let dirty = self.shared.volatile.load(Relaxed) > 0;
        if dirty {
            self.shared.frozen.store(true, Relaxed);
        }
        dirty
    }

    /// After [`freeze`](Self::freeze) and once the engine is gone, zero
    /// every byte that was written but never flushed. Returns how many
    /// bytes were lost.
    pub fn crash(&self) -> io::Result<u64> {
        assert!(self.shared.frozen.load(Relaxed), "freeze the device before crashing it");
        let mut lost = 0;
        for f in self.shared.files.lock().expect("file list poisoned").iter() {
            for (offset, len) in f.unsynced.lock().expect("range list poisoned").drain(..) {
                f.file.write_all_at(&vec![0u8; len as usize], offset)?;
                lost += len;
            }
        }
        Ok(lost)
    }
}

impl SegmentIoFactory for ModelDevice {
    fn open(&self, path: &Path) -> io::Result<Arc<dyn SegmentIo>> {
        let file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(path)?;
        let f = Arc::new(ModelFile {
            file,
            unsynced: Mutex::new(Vec::new()),
            shared: Arc::clone(&self.shared),
        });
        self.shared.files.lock().expect("file list poisoned").push(Arc::clone(&f));
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_keeps_flushed_bytes_and_zeroes_the_rest() {
        let dir = crate::run::scratch_root().join(format!("device-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg");
        let dev = ModelDevice::default();
        let io = dev.open(&path).unwrap();
        io.write_all_at(b"durable!", 0).unwrap();
        io.sync_data().unwrap();
        assert!(!dev.freeze_if_dirty(), "everything written is flushed");
        io.write_all_at(b"volatile", 8).unwrap();
        assert_eq!(dev.counters().syncs, 1);
        assert!(dev.freeze_if_dirty());
        io.write_all_at(b"too late", 16).unwrap();
        assert_eq!(dev.crash().unwrap(), 8);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], b"durable!");
        assert_eq!(&bytes[8..], &[0u8; 8]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
