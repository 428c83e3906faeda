//! Background group-commit flusher.
//!
//! Drains the contiguous filled prefix of the ring buffer into the
//! segment files, skipping dead zones, then advances the durable
//! watermark and wakes committers waiting in
//! [`crate::LogManager::wait_durable`].
//!
//! # Demand-driven batching
//!
//! The flusher is woken two ways: by `mark_filled` once a quarter of the
//! ring has accumulated (throughput batching when nobody is waiting), or
//! *immediately* when the filled watermark covers the lowest registered
//! durability target (latency when someone is). Each batch drains the
//! whole filled prefix, so one pass always covers every waiter whose
//! block is in the buffer; after the batch, exactly the waiters whose
//! targets the new durable watermark covers are woken — each on its own
//! condvar, no thundering herd.
//!
//! # Resident size of the ring
//!
//! A ring is touched from end to end as the log advances, so left alone
//! its resident size grows with every byte ever logged until it equals
//! the capacity — 64 MiB per log by default, for a buffer that only has
//! to hold what accumulates during one flush. For rings of 16 MiB and up
//! the flusher therefore hands drained memory back to the operating
//! system in 2 MiB chunks ([`crate::buffer::RingBuffer::release`]), and
//! the ring's resident size follows the bytes in flight. Pages can only
//! be dropped *before* the space they occupy is published to writers
//! (below the published watermark the next wrap generation is already
//! admitted), so on such rings the *space* watermark advances a chunk at
//! a time — released first, published second — and trails the true
//! flushed position by less than a chunk, except that a reservation
//! parked for space gets every drained byte at once. The durable
//! watermark, which is what committers wait on, is never delayed.
//!
//! # Failure handling
//!
//! Segment writes that fail with a *transient* error (`Interrupted`,
//! `WouldBlock`, `TimedOut`) are retried with bounded exponential
//! backoff. Anything else — and any `sync_data` failure, which is never
//! retryable (a failed fsync says nothing about which dirty pages were
//! lost) — *poisons* the log: the durable watermark freezes, every
//! current and future durability waiter is woken with
//! [`ermia_common::LogError::Poisoned`], the ring buffer stops accepting
//! writers, and the flusher thread exits. An operator can later bring
//! the log back without a restart via [`crate::LogManager::resume`],
//! which re-probes the backend and re-arms a fresh flusher.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ermia_common::LogError;

use crate::manager::LogInner;

/// Rings at least this large return drained memory to the operating
/// system, [`RELEASE_CHUNK`] bytes at a time; smaller ones (tests, the
/// in-memory configuration) are cheaper left resident.
const MIN_RELEASING_RING: u64 = 16 << 20;
const RELEASE_CHUNK: u64 = 2 << 20;

/// Transient-error retry budget: 6 attempts, 100µs..=3.2ms backoff.
const MAX_WRITE_RETRIES: u32 = 6;
const BACKOFF_BASE_MICROS: u64 = 100;

pub(crate) fn spawn(inner: Arc<LogInner>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("log-flusher".into())
        .spawn(move || run(&inner))
        .expect("spawn log flusher")
}

fn run(inner: &LogInner) {
    let mut flushed = inner.buffer.flushed();
    // Large rings give drained memory back a chunk at a time (see the
    // module docs): `released` is the ring's published space watermark,
    // trailing `flushed` by less than one chunk.
    let chunk = if inner.buffer.capacity() >= MIN_RELEASING_RING { RELEASE_CHUNK } else { 1 };
    let mut released = flushed;
    loop {
        let hi = inner.buffer.wait_filled(flushed, inner.cfg.flush_interval);
        if hi == flushed {
            // Re-scan on the way out: fills stamped after the wait's last
            // scan must still be drained before shutdown.
            if inner.stop.load(Ordering::Acquire) && inner.buffer.advance_filled() == flushed {
                return;
            }
            // A reservation parked for space needs every drained byte
            // now, chunk boundary or not.
            if released < flushed && inner.buffer.has_space_waiters() {
                inner.buffer.mark_flushed(flushed);
                released = flushed;
            }
            continue;
        }
        if let Err(err) = flush_range(inner, flushed, hi) {
            poison(inner, &err);
            return;
        }
        let space = if inner.buffer.has_space_waiters() { hi } else { hi / chunk * chunk };
        if space > released {
            if chunk > 1 {
                inner.buffer.release(released, space);
            }
            inner.buffer.mark_flushed(space);
            released = space;
        }
        inner.durable.store(hi, Ordering::Release);
        inner.stats.flush_batches.fetch_add(1, Ordering::Relaxed);
        inner.stats.flushed_bytes.fetch_add(hi - flushed, Ordering::Relaxed);
        inner.stats.last_batch_bytes.store(hi - flushed, Ordering::Relaxed);
        // Wake exactly the group-commit waiters this batch satisfied.
        inner.notify_durable(hi);
        flushed = hi;
    }
}

/// Enter the poisoned-log state: record the cause, stop the ring buffer,
/// and wake every durability waiter so they observe the error instead of
/// blocking until their timeout.
fn poison(inner: &LogInner, err: &io::Error) {
    *inner.poison_cause.lock() =
        Some(LogError::Poisoned { kind: err.kind(), detail: err.to_string() });
    inner.poisoned.store(true, Ordering::Release);
    inner.stats.log_poisoned.store(1, Ordering::Release);
    inner.buffer.poison();
    inner.notify_all_waiters();
    // Last, after every waiter can already observe the poison: let the
    // database layer flip itself into degraded read-only mode.
    if let Some(hook) = &*inner.poison_hook.lock() {
        hook();
    }
}

fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Positional write with bounded retry on transient errors. Retrying the
/// whole chunk is idempotent: positional writes to the same offset simply
/// overwrite any partial progress.
fn write_with_retry(
    inner: &LogInner,
    io: &dyn crate::io::SegmentIo,
    chunk: &[u8],
    pos: u64,
) -> io::Result<()> {
    let mut attempt = 0;
    loop {
        match io.write_all_at(chunk, pos) {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(e.kind()) && attempt < MAX_WRITE_RETRIES => {
                inner.stats.flush_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(BACKOFF_BASE_MICROS << attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Write `[lo, hi)` to the segment files. Dead zones map to no file and
/// are skipped; in-memory segments (no backend) are drained without I/O.
fn flush_range(inner: &LogInner, lo: u64, hi: u64) -> io::Result<()> {
    let mut pos = lo;
    let mut touched: Vec<Arc<crate::segment::Segment>> = Vec::new();
    while pos < hi {
        match inner.segments.lookup(pos) {
            Some(seg) => {
                let stop = hi.min(seg.end);
                if let Some(io) = &seg.io {
                    let mut file_pos = seg.file_pos(pos);
                    let mut result = Ok(());
                    inner.buffer.read_range(pos, stop, |chunk| {
                        if result.is_ok() {
                            result = write_with_retry(inner, &**io, chunk, file_pos);
                            file_pos += chunk.len() as u64;
                        }
                    });
                    result?;
                    if inner.cfg.fsync {
                        touched.push(Arc::clone(&seg));
                    }
                }
                pos = stop;
            }
            None => {
                // Dead zone: hop to the next segment start (or the end of
                // the batch).
                let next = inner
                    .segments
                    .all()
                    .iter()
                    .map(|s| s.start)
                    .filter(|&s| s > pos)
                    .min()
                    .unwrap_or(hi)
                    .min(hi);
                pos = next;
            }
        }
    }
    touched.dedup_by_key(|s| s.index);
    for seg in touched {
        if let Some(io) = &seg.io {
            // fsync failures are terminal: after a failed fsync the kernel
            // may have dropped the dirty pages, so "retry and succeed"
            // would lie about durability.
            io.sync_data()?;
        }
    }
    Ok(())
}
