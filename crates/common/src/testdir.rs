//! A scratch directory for one test.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir, removed when the
/// value drops — so also when the test that made it fails first. The
/// path is unique per call (tag, process id, a process-wide sequence
/// number): tests that run in parallel, or in another process on the same
/// host, never share one.
#[derive(Debug)]
pub struct TestDir(PathBuf);

impl TestDir {
    /// `$TMPDIR/ermia-<tag>-<pid>-<seq>`, created empty.
    pub fn new(tag: &str) -> TestDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ermia-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test directory");
        TestDir(dir)
    }
}

impl std::ops::Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// So `DbConfig::durable(&dir)` takes one as it takes a path.
impl From<&TestDir> for PathBuf {
    fn from(dir: &TestDir) -> PathBuf {
        dir.0.clone()
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::TestDir;

    #[test]
    fn paths_are_unique_and_removed_on_drop() {
        let (a, b) = (TestDir::new("testdir"), TestDir::new("testdir"));
        assert_ne!(*a, *b);
        let kept = a.to_path_buf();
        std::fs::write(kept.join("f"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists());
        assert!(b.is_dir());
    }
}
