//! Checkpoint storage (§3.7).
//!
//! OID arrays are periodically copied to secondary storage — the paper's
//! copy is *fuzzy*, the engine's is taken at a consistent cut. The engine
//! serializes its snapshot payload; this module stores it beside the log
//! and records the location of the most recent checkpoint in the name of
//! an empty *marker file*, exactly as the paper describes, so recovery
//! can find it without reading the log first.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use ermia_common::crc::crc32c;
use ermia_common::Lsn;

use crate::io::{create_dirs, SegmentIoFactory};
use crate::records::legacy_format;

/// Magic prefix of a checkpoint payload file ("ECKC": the payload carries
/// CRC-32C).
const CHECKPOINT_MAGIC: [u8; 4] = *b"ECKC";
/// The magic of the frame before CRC-32C. Kept only so such a checkpoint
/// is refused, not skipped: recovery would then replay a log that
/// truncation has cut short.
const LEGACY_CHECKPOINT_MAGIC: [u8; 4] = *b"ECHK";
/// magic + u64 payload length + u32 CRC-32C.
const CHECKPOINT_HEADER_LEN: usize = 4 + 8 + 4;

/// Metadata identifying a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The cut the snapshot was taken at: every image in it is stamped
    /// below it, and recovery replays the log from here.
    pub begin: Lsn,
}

/// Reads and writes checkpoint payloads + marker files in a directory,
/// every operation through one storage backend.
pub struct CheckpointStore {
    dir: PathBuf,
    io: Arc<dyn SegmentIoFactory>,
}

impl CheckpointStore {
    /// Open the store in `dir` on `io` (the log's [`crate::LogConfig::io_factory`];
    /// a [`crate::FaultInjector`] in crash tests), creating the directory
    /// — synced into its parent — if it is missing.
    pub fn new(
        dir: impl Into<PathBuf>,
        io: Arc<dyn SegmentIoFactory>,
    ) -> io::Result<CheckpointStore> {
        let dir = dir.into();
        create_dirs(&*io, &dir, true)?;
        // A leftover `chk-tmp` means a checkpoint died mid-write (before
        // its rename); it is garbage from a previous incarnation.
        match io.remove(&dir.join("chk-tmp")) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        Ok(CheckpointStore { dir, io })
    }

    fn payload_path(&self, begin: Lsn) -> PathBuf {
        self.dir.join(format!("chk-{:016x}.bin", begin.raw()))
    }

    fn marker_path(&self, begin: Lsn) -> PathBuf {
        self.dir.join(format!("chk-marker-{:016x}", begin.raw()))
    }

    /// Persist a checkpoint: payload first (framed with a magic, length
    /// and checksum so a torn or bit-rotted file is detectable), then the
    /// marker (the marker's existence implies a complete payload). The
    /// directory is synced after the rename and again after the marker:
    /// recovery finds the checkpoint by the marker's name, and the log
    /// below it is retired once this returns.
    pub fn write(&self, meta: CheckpointMeta, payload: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join("chk-tmp");
        {
            let f = self.io.open(&tmp)?;
            // Truncate first: a reused tmp from a failed earlier attempt
            // must not leave trailing junk past this image.
            f.set_len(0)?;
            // One positional write for header + payload, so a fault plan
            // addresses the whole checkpoint image as a single write.
            let mut framed = Vec::with_capacity(CHECKPOINT_HEADER_LEN + payload.len());
            framed.extend_from_slice(&CHECKPOINT_MAGIC);
            framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            framed.extend_from_slice(&crc32c(payload).to_le_bytes());
            framed.extend_from_slice(payload);
            f.write_all_at(&framed, 0)?;
            f.sync_data()?;
        }
        self.io.rename(&tmp, &self.payload_path(meta.begin))?;
        self.io.sync_dir(&self.dir)?;
        self.io.open(&self.marker_path(meta.begin))?;
        self.io.sync_dir(&self.dir)
    }

    /// Decode and verify one framed payload file; `None` if the file is
    /// missing, truncated, or fails its checksum, `InvalidData` if it is
    /// framed in the format before CRC-32C.
    fn read_verified(&self, begin: Lsn) -> io::Result<Option<Vec<u8>>> {
        let path = self.payload_path(begin);
        let Ok(raw) = self.io.read(&path) else { return Ok(None) };
        if raw.starts_with(&LEGACY_CHECKPOINT_MAGIC) {
            return Err(legacy_format(&format!("checkpoint {}", path.display())));
        }
        if raw.len() < CHECKPOINT_HEADER_LEN || raw[..4] != CHECKPOINT_MAGIC {
            return Ok(None);
        }
        let len = u64::from_le_bytes(raw[4..12].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(raw[12..16].try_into().unwrap());
        let body = &raw[CHECKPOINT_HEADER_LEN..];
        if body.len() != len || crc32c(body) != sum {
            return Ok(None);
        }
        Ok(Some(body.to_vec()))
    }

    /// Find the most recent checkpoint whose payload verifies. A corrupt
    /// or incomplete newest checkpoint falls back to the next-older one —
    /// recovery then simply replays more of the log; one in the frame
    /// before CRC-32C fails the call with `InvalidData`.
    pub fn latest(&self) -> io::Result<Option<(CheckpointMeta, Vec<u8>)>> {
        let mut marked: Vec<Lsn> = Vec::new();
        for name in self.io.list(&self.dir)? {
            if let Some(hex) = name.strip_prefix("chk-marker-") {
                if let Ok(raw) = u64::from_str_radix(hex, 16) {
                    marked.push(Lsn::from_raw(raw));
                }
            }
        }
        marked.sort_unstable();
        for &begin in marked.iter().rev() {
            if let Some(payload) = self.read_verified(begin)? {
                return Ok(Some((CheckpointMeta { begin }, payload)));
            }
        }
        Ok(None)
    }

    /// Drop all but the most recent checkpoint (background housekeeping).
    pub fn prune(&self) -> io::Result<usize> {
        let Some((latest, _)) = self.latest()? else { return Ok(0) };
        let mut removed = 0;
        for name in self.io.list(&self.dir)? {
            let stale = name
                .strip_prefix("chk-marker-")
                .or_else(|| name.strip_prefix("chk-").map(|s| s.trim_end_matches(".bin")))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .is_some_and(|raw| Lsn::from_raw(raw) < latest.begin);
            if stale {
                self.io.remove(&self.dir.join(name))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use ermia_common::TestDir;

    use super::*;
    use crate::io::FileBackend;

    fn files() -> Arc<dyn SegmentIoFactory> {
        Arc::new(FileBackend)
    }

    #[test]
    fn write_then_latest() {
        let dir = TestDir::new("roundtrip");
        let store = CheckpointStore::new(&dir, files()).unwrap();
        assert!(store.latest().unwrap().is_none());
        store.write(CheckpointMeta { begin: Lsn::from_parts(100, 0) }, b"snapshot-a").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(200, 0) }, b"snapshot-b").unwrap();
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(200, 0));
        assert_eq!(payload, b"snapshot-b");
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = TestDir::new("corrupt");
        let store = CheckpointStore::new(&dir, files()).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(100, 0) }, b"good-old").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(200, 0) }, b"bad-new").unwrap();
        // Flip a payload byte in the newest checkpoint: checksum mismatch.
        let path = store.payload_path(Lsn::from_parts(200, 0));
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(100, 0), "must fall back past the corrupt one");
        assert_eq!(payload, b"good-old");
    }

    #[test]
    fn truncated_or_missing_payload_falls_back() {
        let dir = TestDir::new("truncated");
        let store = CheckpointStore::new(&dir, files()).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(10, 0) }, b"intact").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(20, 0) }, b"torn-payload").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(30, 0) }, b"gone").unwrap();
        // Truncate one payload mid-body, delete another outright (marker
        // survives in both cases — the failure modes of a dying disk).
        let torn = store.payload_path(Lsn::from_parts(20, 0));
        let raw = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &raw[..raw.len() - 4]).unwrap();
        std::fs::remove_file(store.payload_path(Lsn::from_parts(30, 0))).unwrap();
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(10, 0));
        assert_eq!(payload, b"intact");
    }

    #[test]
    fn all_checkpoints_corrupt_means_none() {
        let dir = TestDir::new("allbad");
        let store = CheckpointStore::new(&dir, files()).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(5, 0) }, b"x").unwrap();
        std::fs::write(store.payload_path(Lsn::from_parts(5, 0)), b"junk").unwrap();
        assert!(store.latest().unwrap().is_none());
    }

    #[test]
    fn stale_tmp_is_cleaned_on_open() {
        let dir = TestDir::new("tmpclean");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("chk-tmp"), b"half-written checkpoint").unwrap();
        let store = CheckpointStore::new(&dir, files()).unwrap();
        assert!(!dir.join("chk-tmp").exists(), "stale tmp must be removed");
        assert!(store.latest().unwrap().is_none());
    }

    #[test]
    fn torn_checkpoint_write_fails_and_falls_back() {
        use crate::io::{FaultInjector, FaultPlan, TornWrite};
        let dir = TestDir::new("chk-torn");
        // A good checkpoint first, through the plain backend.
        CheckpointStore::new(&dir, files())
            .unwrap()
            .write(CheckpointMeta { begin: Lsn::from_parts(10, 0) }, b"good")
            .unwrap();
        // Now a checkpoint writer that tears its very first image write.
        let inj = FaultInjector::new(FaultPlan {
            torn_write: Some(TornWrite { at_write: 0, keep_bytes: 7 }),
            ..FaultPlan::default()
        });
        let store = CheckpointStore::new(&dir, Arc::new(inj.clone())).unwrap();
        let err =
            store.write(CheckpointMeta { begin: Lsn::from_parts(20, 0) }, b"newer").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(inj.crashed());
        // The torn image died as `chk-tmp`: no marker, no payload file.
        assert!(dir.join("chk-tmp").exists(), "torn image is left behind as tmp");
        // A restarted store cleans the tmp and still serves the old one.
        let store = CheckpointStore::new(&dir, files()).unwrap();
        assert!(!dir.join("chk-tmp").exists());
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(10, 0));
        assert_eq!(payload, b"good");
    }

    #[test]
    fn silently_torn_checkpoint_with_marker_falls_back() {
        use crate::io::{FaultInjector, FaultPlan, TornWrite};
        let dir = TestDir::new("chk-silent");
        CheckpointStore::new(&dir, files())
            .unwrap()
            .write(CheckpointMeta { begin: Lsn::from_parts(10, 0) }, b"good")
            .unwrap();
        // The storage persists only 9 bytes of the image but reports
        // success: the rename happens, the *marker is written* — the
        // worst case, a marker pointing at a corrupt payload.
        let inj = FaultInjector::new(FaultPlan {
            silent_torn_write: Some(TornWrite { at_write: 0, keep_bytes: 9 }),
            ..FaultPlan::default()
        });
        let store = CheckpointStore::new(&dir, Arc::new(inj.clone())).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(20, 0) }, b"newer").unwrap();
        assert_eq!(inj.faults_injected(), 1);
        assert!(store.marker_path(Lsn::from_parts(20, 0)).exists(), "marker exists");
        // `latest()` must catch the truncation and fall back past it.
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(10, 0), "corrupt-but-marked must be skipped");
        assert_eq!(payload, b"good");
    }

    #[test]
    fn checkpoint_fsync_failure_surfaces_before_any_rename() {
        use crate::io::{FaultInjector, FaultPlan};
        let dir = TestDir::new("chk-sync");
        let inj = FaultInjector::new(FaultPlan { fail_sync_at: Some(0), ..FaultPlan::default() });
        let store = CheckpointStore::new(&dir, Arc::new(inj)).unwrap();
        assert!(store.write(CheckpointMeta { begin: Lsn::from_parts(5, 0) }, b"x").is_err());
        assert!(store.latest().unwrap().is_none(), "nothing was published");
    }

    #[test]
    fn prune_keeps_latest() {
        let dir = TestDir::new("prune");
        let store = CheckpointStore::new(&dir, files()).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(1, 0) }, b"a").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(2, 0) }, b"b").unwrap();
        let removed = store.prune().unwrap();
        assert_eq!(removed, 2); // old payload + old marker
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(2, 0));
        assert_eq!(payload, b"b");
    }
}
