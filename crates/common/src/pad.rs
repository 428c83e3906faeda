//! Cache-line padding for hot shared atomics.

use std::ops::Deref;

/// Pads and aligns a value to (at least) a cache-line boundary so that
/// hot atomics don't false-share.
#[derive(Default, Debug)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn cache_padded_is_aligned_and_derefs() {
        let v = super::CachePadded::new(AtomicU64::new(7));
        assert_eq!(v.load(Ordering::Relaxed), 7);
        assert_eq!(std::mem::align_of_val(&v), 128);
    }
}
