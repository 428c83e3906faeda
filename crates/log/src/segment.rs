//! Log segments and the segment table (paper Fig. 4a).
//!
//! There are a fixed number of *modulo segment numbers* (16); each is
//! assigned a physical log segment with a start offset, end offset, and a
//! backing file whose name encodes all three — so the table can be
//! reconstructed at startup even if the configured segment size has since
//! changed: `log-<segno:02x>-<start:x>-<end:x>`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use ermia_common::lsn::{NUM_SEGMENTS, SEGMENT_BITS};
use ermia_common::Lsn;

use crate::io::{SegmentIo, SegmentIoFactory};

/// One physical log segment.
#[derive(Debug)]
pub struct Segment {
    /// Monotonic segment index; `index % 16` is the modulo segment number.
    pub index: u64,
    /// First logical offset mapped by this segment.
    pub start: u64,
    /// One past the last logical offset mapped by this segment.
    pub end: u64,
    /// Storage backend (positional I/O; `None` for in-memory logs).
    pub io: Option<Arc<dyn SegmentIo>>,
    pub path: Option<PathBuf>,
}

impl Segment {
    /// The modulo segment number stored in LSN low bits.
    #[inline]
    pub fn segno(&self) -> u64 {
        self.index % NUM_SEGMENTS
    }

    /// True if `offset..offset+len` lies entirely inside this segment.
    #[inline]
    pub fn contains(&self, offset: u64, len: u64) -> bool {
        offset >= self.start && offset + len <= self.end
    }

    /// Byte position within the segment file for a logical offset.
    #[inline]
    pub fn file_pos(&self, offset: u64) -> u64 {
        debug_assert!(offset >= self.start && offset < self.end);
        offset - self.start
    }

    /// Compose the LSN for a logical offset within this segment.
    #[inline]
    pub fn lsn(&self, offset: u64) -> Lsn {
        Lsn::from_parts(offset, self.segno())
    }

    /// The name of segment `index`'s file, mapping `start..end`: the one
    /// spelling of it, which [`Segment::parse_file_name`] reads back.
    pub fn file_name(index: u64, start: u64, end: u64) -> String {
        format!("log-{:02x}-{:x}-{:x}", index % NUM_SEGMENTS, start, end)
    }

    /// Parse a segment file name back into (segno, start, end).
    pub fn parse_file_name(name: &str) -> Option<(u64, u64, u64)> {
        let rest = name.strip_prefix("log-")?;
        let mut it = rest.split('-');
        let segno = u64::from_str_radix(it.next()?, 16).ok()?;
        let start = u64::from_str_radix(it.next()?, 16).ok()?;
        let end = u64::from_str_radix(it.next()?, 16).ok()?;
        if it.next().is_some() || segno >= NUM_SEGMENTS {
            return None;
        }
        Some((segno, start, end))
    }
}

/// The set of segments, past and current.
///
/// Allocation reads only the `current` pointer (one `RwLock` read — the
/// lock is uncontended except during the rare segment rotation); the
/// flusher and recovery consult the full history.
pub struct SegmentTable {
    dir: Option<PathBuf>,
    segment_size: u64,
    backend: Arc<dyn SegmentIoFactory>,
    /// [`crate::LogConfig::fsync`]: sync the directory after a segment
    /// file is created or a batch is retired.
    fsync: bool,
    current: RwLock<Arc<Segment>>,
    history: Mutex<Vec<Arc<Segment>>>,
    /// Serializes segment rotation ("threads compete to open the next
    /// segment"; the mutex is the race arbiter).
    rotate: Mutex<()>,
}

impl SegmentTable {
    /// Create the table with its first segment starting at offset
    /// `start`, opening segment storage through `backend`. `dir = None`
    /// keeps segments purely in memory (tests).
    pub fn create(
        dir: Option<&Path>,
        backend: Arc<dyn SegmentIoFactory>,
        segment_size: u64,
        start: u64,
        fsync: bool,
    ) -> io::Result<SegmentTable> {
        let first = Self::open_segment(dir, &*backend, fsync, 0, start, start + segment_size)?;
        let first = Arc::new(first);
        Ok(SegmentTable {
            dir: dir.map(|d| d.to_owned()),
            segment_size,
            backend,
            fsync,
            current: RwLock::new(Arc::clone(&first)),
            history: Mutex::new(vec![first]),
            rotate: Mutex::new(()),
        })
    }

    /// Open segment `index`'s file; with `fsync`, its directory entry is
    /// durable before any block in it can be acknowledged.
    fn open_segment(
        dir: Option<&Path>,
        backend: &dyn SegmentIoFactory,
        fsync: bool,
        index: u64,
        start: u64,
        end: u64,
    ) -> io::Result<Segment> {
        let (io, path) = match dir {
            Some(dir) => {
                let path = dir.join(Segment::file_name(index, start, end));
                let io = backend.open(&path)?;
                // Size the (sparse) file up front so unwritten tail regions
                // read as zeros — a zero magic is how the scanner detects
                // the first hole.
                io.set_len(end - start)?;
                if fsync {
                    backend.sync_dir(dir)?;
                }
                (Some(io), Some(path))
            }
            None => (None, None),
        };
        Ok(Segment { index, start, end, io, path })
    }

    /// Snapshot of the segment currently accepting allocations.
    #[inline]
    pub fn current(&self) -> Arc<Segment> {
        Arc::clone(&self.current.read().unwrap())
    }

    pub fn segment_size(&self) -> u64 {
        self.segment_size
    }

    /// Open the segment following `old` (identified by its index), with
    /// the new segment's start at `new_start`. Threads that allocated
    /// offsets past the old segment's end race here; the mutex picks the
    /// winner and losers observe the rotation already done. Returns the
    /// now-current segment.
    pub fn open_next(&self, old_index: u64, new_start: u64) -> io::Result<Arc<Segment>> {
        let _g = self.rotate.lock().unwrap();
        let cur = self.current();
        if cur.index != old_index {
            // Lost the race; the winner already rotated.
            return Ok(cur);
        }
        debug_assert!(new_start >= cur.end);
        let next = Arc::new(Self::open_segment(
            self.dir.as_deref(),
            &*self.backend,
            self.fsync,
            cur.index + 1,
            new_start,
            new_start + self.segment_size,
        )?);
        self.history.lock().unwrap().push(Arc::clone(&next));
        *self.current.write().unwrap() = Arc::clone(&next);
        Ok(next)
    }

    /// Find the segment that maps logical offset `offset`, if any (dead
    /// zones map to no segment).
    pub fn lookup(&self, offset: u64) -> Option<Arc<Segment>> {
        let history = self.history.lock().unwrap();
        // Segments are sorted by start; binary search the last with
        // start <= offset.
        let idx = history.partition_point(|s| s.start <= offset);
        if idx == 0 {
            return None;
        }
        let seg = &history[idx - 1];
        (offset < seg.end).then(|| Arc::clone(seg))
    }

    /// Start of the first segment beginning above `offset`: where a walk
    /// standing in a dead zone lands next. `None` past the last segment.
    pub fn next_start_after(&self, offset: u64) -> Option<u64> {
        let history = self.history.lock().unwrap();
        history.get(history.partition_point(|s| s.start <= offset)).map(|s| s.start)
    }

    /// All segments, oldest first.
    pub fn all(&self) -> Vec<Arc<Segment>> {
        self.history.lock().unwrap().clone()
    }

    /// Drop (and delete the files of) all segments whose range lies
    /// entirely below `offset`, oldest first, then (with `fsync`) sync
    /// the directory: a retired segment that came back below a gap would
    /// make [`SegmentTable::reopen`] refuse the directory. Returns how
    /// many segments were retired, or the first failed removal's error;
    /// that segment and every later one stay in the table. The caller
    /// must guarantee no reader needs them (i.e. a checkpoint at or
    /// above `offset` exists and is durable).
    pub fn retire_below(&self, offset: u64) -> io::Result<usize> {
        let mut retired = 0;
        let mut failed = None;
        self.history.lock().unwrap().retain(|seg| {
            if seg.end > offset || failed.is_some() {
                return true;
            }
            if let Err(e) = seg.path.as_ref().map_or(Ok(()), |path| self.backend.remove(path)) {
                failed = Some(e);
                return true;
            }
            retired += 1;
            false
        });
        let synced = match &self.dir {
            Some(dir) if self.fsync && retired > 0 => self.backend.sync_dir(dir),
            _ => Ok(()),
        };
        match failed {
            Some(e) => Err(e),
            None => synced.map(|()| retired),
        }
    }

    /// Rebuild a table by scanning `dir` for segment files (recovery /
    /// restart path; paper: "the file name is chosen so the segment table
    /// can be reconstructed easily at start-up").
    pub fn reopen(
        dir: &Path,
        backend: Arc<dyn SegmentIoFactory>,
        segment_size: u64,
        fsync: bool,
    ) -> io::Result<Option<SegmentTable>> {
        let mut found: Vec<(u64, u64, u64, PathBuf)> = Vec::new();
        for name in backend.list(dir)? {
            if let Some((segno, start, end)) = Segment::parse_file_name(&name) {
                found.push((segno, start, end, dir.join(name)));
            }
        }
        if found.is_empty() {
            return Ok(None);
        }
        found.sort_by_key(|&(_, start, _, _)| start);
        let mut history = Vec::with_capacity(found.len());
        // The oldest segments may have been truncated away, so monotonic
        // indices restart from the first survivor's modulo number and
        // must advance consecutively from there.
        let base = found[0].0;
        for (i, (segno, start, end, path)) in found.iter().enumerate() {
            let index = base + i as u64;
            if index % NUM_SEGMENTS != *segno {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("segment file {} has inconsistent modulo number", path.display()),
                ));
            }
            let io = backend.open(path)?;
            // A crash between creating a file and sizing it leaves it
            // short; size it as `open_segment` would have, so its missing
            // bytes read as the zeros of a hole.
            if backend.len(path)? < end - start {
                io.set_len(end - start)?;
            }
            history.push(Arc::new(Segment {
                index,
                start: *start,
                end: *end,
                io: Some(io),
                path: Some(path.clone()),
            }));
        }
        let current = Arc::clone(history.last().expect("non-empty"));
        Ok(Some(SegmentTable {
            dir: Some(dir.to_owned()),
            segment_size,
            backend,
            fsync,
            current: RwLock::new(current),
            history: Mutex::new(history),
            rotate: Mutex::new(()),
        }))
    }
}

// Keep SEGMENT_BITS referenced so the encoding contract is visible here.
const _: () = assert!(SEGMENT_BITS == 4);

#[cfg(test)]
mod tests {
    use ermia_common::TestDir;

    use super::*;
    use crate::io::FileBackend;

    fn files() -> Arc<dyn SegmentIoFactory> {
        Arc::new(FileBackend)
    }

    #[test]
    fn file_name_roundtrip() {
        let name = Segment::file_name(18, 0x121a0, 0x131a0);
        assert_eq!(name, "log-02-121a0-131a0");
        assert_eq!(Segment::parse_file_name(&name), Some((2, 0x121a0, 0x131a0)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Segment::parse_file_name("checkpoint-3").is_none());
        assert!(Segment::parse_file_name("log-zz-1-2").is_none());
        assert!(Segment::parse_file_name("log-1f-1-2").is_none()); // segno >= 16
    }

    #[test]
    fn rotation_and_lookup() {
        let t = SegmentTable::create(None, files(), 1024, 0, false).unwrap();
        let first = t.current();
        assert_eq!(first.segno(), 0);
        assert!(first.contains(0, 1024));
        assert!(!first.contains(1000, 100));

        // Rotate with a dead zone 1024..2048.
        let next = t.open_next(first.index, 2048).unwrap();
        assert_eq!(next.segno(), 1);
        assert_eq!(next.start, 2048);

        assert!(t.lookup(100).is_some());
        assert!(t.lookup(1500).is_none()); // dead zone
        assert_eq!(t.next_start_after(1500), Some(2048));
        assert_eq!(t.next_start_after(2048), None);
        assert_eq!(t.lookup(2100).unwrap().index, 1);
        assert!(t.lookup(5000).is_none());
    }

    #[test]
    fn open_next_is_idempotent_for_losers() {
        let t = SegmentTable::create(None, files(), 1024, 0, false).unwrap();
        let first = t.current();
        let a = t.open_next(first.index, 1024).unwrap();
        // Loser passes the stale index; gets the winner's segment back.
        let b = t.open_next(first.index, 9999).unwrap();
        assert_eq!(a.index, b.index);
        assert_eq!(b.start, 1024);
    }

    #[test]
    fn reopen_reconstructs_table() {
        let dir = TestDir::new("seg-test");
        {
            let t = SegmentTable::create(Some(&dir), files(), 4096, 0, false).unwrap();
            let cur = t.current();
            t.open_next(cur.index, 4096).unwrap();
        }
        let t = SegmentTable::reopen(&dir, files(), 4096, false).unwrap().expect("segments exist");
        let all = t.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].start, 0);
        assert_eq!(all[1].start, 4096);
        assert_eq!(t.current().index, 1);
    }
}
