//! Large-object side storage (paper §3.3, log feature 4).
//!
//! "Large object writes can be diverted to secondary storage, requiring
//! only an indirect pointer in the actual log." Oversized record values
//! are appended to a blob file and the transaction's log record carries a
//! fixed-size [`BlobRef`] instead, keeping commit-time log reservations
//! small and the central buffer free of megabyte payloads.

use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A pointer into the blob store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlobRef {
    pub offset: u64,
    pub len: u32,
}

impl BlobRef {
    pub const ENCODED_LEN: usize = 12;

    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[0..8].copy_from_slice(&self.offset.to_le_bytes());
        out[8..12].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    pub fn decode(bytes: &[u8]) -> Option<BlobRef> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        Some(BlobRef {
            offset: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
            len: u32::from_le_bytes(bytes[8..12].try_into().ok()?),
        })
    }
}

enum Backing {
    File(std::fs::File),
    Memory(Mutex<Vec<u8>>),
}

/// Append-only blob storage beside the log.
pub struct BlobStore {
    backing: Backing,
    next: AtomicU64,
}

impl BlobStore {
    /// Open (or create) the blob file in `dir`; appends resume at the
    /// current end.
    pub fn open(dir: &Path) -> io::Result<BlobStore> {
        let path = dir.join("blobs.dat");
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let end = file.metadata()?.len();
        Ok(BlobStore { backing: Backing::File(file), next: AtomicU64::new(end) })
    }

    /// Purely in-memory store (tests / in-memory databases).
    pub fn in_memory() -> BlobStore {
        BlobStore { backing: Backing::Memory(Mutex::new(Vec::new())), next: AtomicU64::new(0) }
    }

    /// Append a payload; concurrent appends are ordered by a single
    /// `fetch_add`, mirroring the log's allocation discipline.
    pub fn append(&self, bytes: &[u8]) -> io::Result<BlobRef> {
        let len = bytes.len() as u64;
        let offset = self.next.fetch_add(len, Ordering::SeqCst);
        match &self.backing {
            Backing::File(file) => file.write_all_at(bytes, offset)?,
            Backing::Memory(buf) => {
                let mut buf = buf.lock().unwrap();
                let end = (offset + len) as usize;
                if buf.len() < end {
                    buf.resize(end, 0);
                }
                buf[offset as usize..end].copy_from_slice(bytes);
            }
        }
        Ok(BlobRef { offset, len: bytes.len() as u32 })
    }

    /// Read a payload back.
    pub fn read(&self, blob: BlobRef) -> io::Result<Vec<u8>> {
        let mut out = vec![0u8; blob.len as usize];
        match &self.backing {
            Backing::File(file) => file.read_exact_at(&mut out, blob.offset)?,
            Backing::Memory(buf) => {
                let buf = buf.lock().unwrap();
                let end = blob.offset as usize + blob.len as usize;
                if end > buf.len() {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "blob out of range"));
                }
                out.copy_from_slice(&buf[blob.offset as usize..end]);
            }
        }
        Ok(out)
    }

    /// Bytes appended so far.
    pub fn size(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use ermia_common::TestDir;

    use super::*;

    #[test]
    fn blobref_roundtrip() {
        let r = BlobRef { offset: 0xDEAD_BEEF, len: 4096 };
        assert_eq!(BlobRef::decode(&r.encode()), Some(r));
        assert!(BlobRef::decode(&[0u8; 3]).is_none());
    }

    #[test]
    fn memory_append_read() {
        let store = BlobStore::in_memory();
        let a = store.append(b"hello").unwrap();
        let b = store.append(&[9u8; 10_000]).unwrap();
        assert_eq!(store.read(a).unwrap(), b"hello");
        assert_eq!(store.read(b).unwrap(), vec![9u8; 10_000]);
        assert_eq!(store.size(), 5 + 10_000);
    }

    #[test]
    fn file_append_read_reopen() {
        let dir = TestDir::new("blob");
        let first;
        {
            let store = BlobStore::open(&dir).unwrap();
            first = store.append(b"persistent-blob").unwrap();
        }
        {
            let store = BlobStore::open(&dir).unwrap();
            assert_eq!(store.read(first).unwrap(), b"persistent-blob");
            // Appends resume at the end.
            let second = store.append(b"more").unwrap();
            assert_eq!(second.offset, first.offset + first.len as u64);
        }
    }

    #[test]
    fn concurrent_appends_are_disjoint() {
        let store = std::sync::Arc::new(BlobStore::in_memory());
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let store = std::sync::Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..100 {
                        let payload = vec![t.wrapping_mul(31).wrapping_add(i); 64];
                        let r = store.append(&payload).unwrap();
                        assert_eq!(store.read(r).unwrap(), payload);
                    }
                });
            }
        });
        assert_eq!(store.size(), 4 * 100 * 64);
    }
}
