//! Checkpoints (§3.7): their rows, and the file that holds them.
//!
//! OID arrays are periodically copied to secondary storage — the paper's
//! copy is *fuzzy*, the engine's is taken at a consistent cut. The engine
//! walks its indexes and hands each row to [`CheckpointRows`]; this module
//! stores the payload beside the log and records the location of the most
//! recent checkpoint in the name of an empty *marker file*, exactly as
//! the paper describes, so recovery can find it without reading the log
//! first.
//!
//! **Rows are log records.** A payload is the tag `ROWS`, then a
//! flat run of rows, each its version's stamp (`u64`, little-endian) and
//! one log record in the layout of [`crate::LogRecord`] — its header the
//! one [`crate::BlockEncoder::record`] writes a commit's records with,
//! read back by [`TxRecordView::decode`], as a commit's records are. A
//! row image is an `Insert` (a `Delete` for a tombstone) under its
//! version's stamp; a secondary-index entry is a
//! `SecondaryInsert` naming its owning table, with the 4-byte index id as
//! its value, stamped 0. A row's *address* is its offset in the payload.
//!
//! **The file.** A payload is framed with a magic, its length and its
//! CRC-32C. A payload travels to a replica without that frame, so it
//! carries its own format tag too. A file or a payload in an earlier
//! layout is refused with `InvalidData`, never misread: the frame before
//! CRC-32C (`ECHK`), and the rows before they were log records (`ECKC`,
//! whose payload began with a table count).

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use ermia_common::crc::crc32c;
use ermia_common::{IndexId, Lsn, Oid, TableId};

use crate::io::{create_dirs, SegmentIoFactory};
use crate::records::{legacy_format, LogRecordKind, TxRecordView};

/// Magic prefix of a checkpoint file ("ECKR": its rows are log records).
const CHECKPOINT_MAGIC: [u8; 4] = *b"ECKR";
/// The magic of the frame before CRC-32C. Kept only so such a checkpoint
/// is refused, not skipped: recovery would then replay a log that
/// truncation has cut short.
const LEGACY_CHECKPOINT_MAGIC: [u8; 4] = *b"ECHK";
/// The magic of the frame whose rows had a layout of their own. Refused
/// for the same reason.
const ROW_LAYOUT_MAGIC: [u8; 4] = *b"ECKC";
/// magic + u64 payload length + u32 CRC-32C.
const CHECKPOINT_HEADER_LEN: usize = 4 + 8 + 4;

/// The first bytes of every checkpoint payload: its format. A payload in
/// the layout before began with its table count, which is never this
/// many (`u32` 0x5357_4f52).
const ROWS_FORMAT: [u8; 4] = *b"ROWS";
/// Bytes of a row's stamp, in front of its record.
const LSN_LEN: usize = 8;

/// What a reader says of a checkpoint in a layout before this one.
fn earlier_layout(what: &str) -> io::Error {
    let msg = format!(
        "{what} is not in the checkpoint format whose rows are log records; a checkpoint in \
         an earlier layout is refused rather than misread: recover it with the build that \
         wrote it"
    );
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A checkpoint payload being written, a row at a time: the tag `ROWS`,
/// then per row its version's stamp (`u64`) and one log record in the
/// layout of [`crate::LogRecord`]. [`read_rows`] reads it back.
pub struct CheckpointRows {
    payload: Vec<u8>,
}

/// An empty payload: the format tag alone.
impl Default for CheckpointRows {
    fn default() -> Self {
        CheckpointRows { payload: ROWS_FORMAT.to_vec() }
    }
}

impl CheckpointRows {
    /// Append the image of `table`'s row `oid` under `key`: its version
    /// stamped `stamp`, holding `value`, or a tombstone.
    pub fn image(
        &mut self,
        stamp: Lsn,
        table: TableId,
        oid: Oid,
        key: &[u8],
        value: &[u8],
        tombstone: bool,
    ) {
        let kind = if tombstone { LogRecordKind::Delete } else { LogRecordKind::Insert };
        self.push(stamp, TxRecordView { kind, table, oid, key, value });
    }

    /// Append an entry of secondary index `index` of `table`: `key` names
    /// the row `oid`.
    pub fn index_entry(&mut self, table: TableId, index: IndexId, oid: Oid, key: &[u8]) {
        let (kind, value) = (LogRecordKind::SecondaryInsert, &index.0.to_le_bytes());
        self.push(Lsn::NULL, TxRecordView { kind, table, oid, key, value });
    }

    /// Appended piece by piece, with no zero-fill ahead of it.
    fn push(&mut self, stamp: Lsn, rec: TxRecordView<'_>) {
        self.payload.extend_from_slice(&stamp.raw().to_le_bytes());
        self.payload.extend_from_slice(&rec.header());
        self.payload.extend_from_slice(rec.key);
        self.payload.extend_from_slice(rec.value);
    }

    /// The payload, ready for [`CheckpointStore::write`].
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }
}

/// Hand `row` every row of `payload` in order: its address, its stamp
/// and its record. A payload in an earlier layout, or a row that does not
/// decode, is `InvalidData` (the latter naming its offset) — after `row`
/// saw the rows before it.
pub fn read_rows<'p>(
    payload: &'p [u8],
    mut row: impl FnMut(u64, Lsn, TxRecordView<'p>) -> io::Result<()>,
) -> io::Result<()> {
    if !payload.starts_with(&ROWS_FORMAT) {
        return Err(earlier_layout("the checkpoint payload"));
    }
    let mut pos = ROWS_FORMAT.len();
    while pos < payload.len() {
        let stamp = payload[pos..].first_chunk::<LSN_LEN>();
        let Some((stamp, (rec, next))) = stamp.zip(TxRecordView::decode(payload, pos + LSN_LEN))
        else {
            let msg = format!(
                "the checkpoint row at offset {pos} of its {}-byte payload does not decode",
                payload.len()
            );
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        };
        row(pos as u64, Lsn::from_raw(u64::from_le_bytes(*stamp)), rec)?;
        pos = next;
    }
    Ok(())
}

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
    /// framed in an earlier format (module docs).
    fn read_verified(&self, begin: Lsn) -> io::Result<Option<Vec<u8>>> {
        let path = self.payload_path(begin);
        let Ok(mut raw) = self.io.read(&path) else { return Ok(None) };
        let what = || format!("checkpoint {}", path.display());
        if raw.starts_with(&LEGACY_CHECKPOINT_MAGIC) {
            return Err(legacy_format(&what()));
        }
        if raw.starts_with(&ROW_LAYOUT_MAGIC) {
            return Err(earlier_layout(&what()));
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
        // The payload in place: a shift, not a second buffer its size.
        raw.drain(..CHECKPOINT_HEADER_LEN);
        Ok(Some(raw))
    }

    /// Find the most recent checkpoint whose payload verifies. A corrupt
    /// or incomplete newest checkpoint falls back to the next-older one —
    /// recovery then simply replays more of the log; one in an earlier
    /// format fails the call with `InvalidData`.
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

    /// Every kind of row comes back as written, at its own offset.
    #[test]
    fn rows_read_back_as_their_log_records() {
        let (t, stamp) = (TableId(3), Lsn::from_parts(7, 2));
        let mut rows = CheckpointRows::default();
        rows.image(stamp, t, Oid(1), b"live", b"value", false);
        rows.image(stamp, t, Oid(2), b"gone", b"", true);
        rows.index_entry(t, IndexId(5), Oid(1), b"by-value");
        let payload = rows.into_payload();
        let mut read = Vec::new();
        read_rows(&payload, |addr, stamp, rec| {
            read.push((addr, stamp, rec.to_owned(), rec.index_id()));
            Ok(())
        })
        .unwrap();
        let kinds: Vec<_> = read.iter().map(|(_, _, rec, index)| (rec.kind, *index)).collect();
        use LogRecordKind::{Delete, Insert, SecondaryInsert};
        assert_eq!(kinds, [(Insert, None), (Delete, None), (SecondaryInsert, Some(IndexId(5)))]);
        assert_eq!((read[0].0, read[0].1, &read[0].2.key[..]), (4, stamp, &b"live"[..]));
        assert_eq!((read[2].1, read[2].2.table, read[2].2.oid), (Lsn::NULL, t, Oid(1)));
        let ends: Vec<u64> = read.iter().skip(1).map(|r| r.0).collect();
        assert_eq!(ends, [4 + 8 + 16 + 4 + 5, 4 + 2 * (8 + 16) + 4 + 5 + 4]);
    }

    /// A payload cut short anywhere inside a row is `InvalidData` naming
    /// that row's offset, after the rows before it; one without the format
    /// tag — the previous layout began with its table count — is refused
    /// before any row.
    #[test]
    fn a_short_or_untagged_payload_is_refused() {
        let mut rows = CheckpointRows::default();
        rows.image(Lsn::from_parts(1, 0), TableId(0), Oid(0), b"a", b"1", false);
        rows.image(Lsn::from_parts(1, 0), TableId(0), Oid(1), b"b", b"2", false);
        let payload = rows.into_payload();
        let second = (payload.len() - 4) / 2 + 4;
        for cut in second + 1..payload.len() {
            let mut seen = 0;
            let err = read_rows(&payload[..cut], |_, _, _| {
                seen += 1;
                Ok(())
            })
            .unwrap_err();
            assert_eq!((err.kind(), seen), (io::ErrorKind::InvalidData, 1), "cut at {cut}");
            assert!(err.to_string().contains(&format!("offset {second}")), "{err}");
        }
        let previous: Vec<u8> = [1u32, 0, 0, 0].iter().flat_map(|w| w.to_le_bytes()).collect();
        for untagged in [&previous[..], &[], &payload[1..]] {
            let err = read_rows(untagged, |_, _, _| panic!("no row is read")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("earlier layout"), "{err}");
        }
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
