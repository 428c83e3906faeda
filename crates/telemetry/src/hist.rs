//! The shared 64-bucket log2 histogram.
//!
//! Promoted from the workload driver so every layer (driver percentile
//! tables, bench reports, registry exposition) uses one implementation.
//! Bucket `i` counts samples whose value `v` satisfies
//! `63 - (v.max(1)).leading_zeros() == i`, i.e. `v ∈ [2^i, 2^(i+1))`
//! (bucket 0 also absorbs 0). Percentiles interpolate linearly inside
//! the winning bucket, which keeps the error under ~50% of the value —
//! plenty for latency reporting across nine orders of magnitude while
//! the whole histogram stays a fixed 64×8-byte array (no allocation,
//! trivially mergeable).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub const BUCKETS: usize = 64;

/// Plain (single-owner) histogram. `#[derive(Clone)]` would copy 520
/// bytes, which is fine — these live per worker thread and merge once.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }

    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (63 - value.max(1).leading_zeros()) as usize
    }

    /// Lower bound of bucket `i` (2^i).
    #[inline]
    pub fn bucket_lo(i: usize) -> u64 {
        1u64 << i
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimate the `p`-th percentile (0 < p ≤ 100) with in-bucket
    /// linear interpolation. Returns 0.0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p / 100.0 * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n;
            if (next as f64) >= rank {
                let lo = Self::bucket_lo(i) as f64;
                let frac = (rank - seen as f64) / n as f64;
                return lo + frac * lo;
            }
            seen = next;
        }
        (1u64 << 63) as f64
    }
}

/// Concurrent flavor: same buckets as relaxed atomics, under the
/// **single-writer** contract of the per-worker slab (one thread
/// records, any thread snapshots). That contract lets `record` use
/// plain relaxed load+store pairs instead of `fetch_add` — no lost
/// updates are possible with one writer, and dropping the locked RMW
/// takes a record from ~60 cycles to a handful, which matters when a
/// read-mostly transaction records once per key read.
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    // No `count` field: the total is the bucket sum, computed at
    // snapshot time, which keeps `record` at two stores instead of
    // three (this runs once per key read on the transaction hot path).
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample. Caller contract: at most one thread records
    /// into a given histogram (per-worker slabs guarantee this); any
    /// thread may `snapshot` concurrently.
    #[inline]
    pub fn record(&self, value: u64) {
        // Single-writer load+store: cheaper than fetch_add, same
        // modification order for readers.
        let b = &self.buckets[Histogram::bucket_of(value)];
        b.store(b.load(Relaxed) + 1, Relaxed);
        self.sum.store(self.sum.load(Relaxed).wrapping_add(value), Relaxed);
    }

    /// Relaxed snapshot; buckets may be mid-update relative to `sum`,
    /// which only skews a percentile by a sample — fine for monitoring.
    /// `count` is reconstructed as the bucket total.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (i, b) in self.buckets.iter().enumerate() {
            h.buckets[i] = b.load(Relaxed);
            h.count += h.buckets[i];
        }
        h.sum = self.sum.load(Relaxed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        assert!((256.0..=1024.0).contains(&p50), "p50 = {p50}");
        let p999 = h.percentile(99.9);
        assert!((512.0..=1024.0).contains(&p999), "p99.9 = {p999}");
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), (1..=1000u64).sum::<u64>());
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(10);
        b.record(1 << 20);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[Histogram::bucket_of(10)], 2);
        assert_eq!(a.buckets()[20], 1);
    }

    #[test]
    fn zero_clamps_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.buckets()[0], 2);
        assert!(h.percentile(99.0) >= 1.0);
    }

    #[test]
    fn empty_percentile_is_zero() {
        assert_eq!(Histogram::new().percentile(99.0), 0.0);
    }

    #[test]
    fn top_bucket_estimate_stays_in_range() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        let p = h.percentile(100.0);
        assert!(p >= (1u64 << 63) as f64, "p100 = {p}");
    }

    #[test]
    fn atomic_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [0u64, 1, 7, 4096, u64::MAX] {
            a.record(v);
            p.record(v);
        }
        let s = a.snapshot();
        assert_eq!(s.buckets(), p.buckets());
        assert_eq!(s.count(), p.count());
        assert_eq!(s.sum(), p.sum());
    }
}
