//! Scalable centralized log manager (paper §3.3, Fig. 4).
//!
//! ERMIA's log retains the benefits of a serial "history of the world"
//! while largely avoiding the contention that normally accompanies a
//! centralized log. The four properties the paper calls out:
//!
//! 1. **Sparse communication.** Most update transactions issue exactly one
//!    global atomic `fetch_add` before committing — even across corner
//!    cases such as a full log buffer or a log file rotation.
//! 2. **Private log buffers.** Transactions keep their updates privately
//!    while in flight — the write set is the buffer — and write them as
//!    one large block: sized from the write set, then encoded once,
//!    straight into the ring bytes the reservation names
//!    ([`Reservation::encode`], one [`BlockEncoder`] for every block).
//!    [`TxLogBuffer`] builds the same block standalone, for the
//!    benchmark's probes; tests encode over a `Vec`.
//! 3. **Early commit LSNs.** A transaction acquires its commit LSN at the
//!    start of pre-commit, so all committing transactions agree on their
//!    relative commit order before any validation work happens.
//! 4. **Decoupled LSN space.** The LSN space is monotonic but not
//!    contiguous: aborted reservations become skip records, and segment
//!    races leave *dead zones* that map to no disk location.
//!
//! The key observation is that sequence numbers need only translate
//! *efficiently* to physical locations, not contiguously: an LSN packs a
//! logical offset with a modulo segment number (see [`ermia_common::Lsn`]),
//! and a constant-time segment-table lookup validates and converts LSNs to
//! file offsets.
//!
//! Durability is group commit: a background flusher drains the contiguous
//! filled prefix of the ring buffer to the segment files and advances the
//! durable-LSN watermark.
//!
//! # Storage backends and failure handling
//!
//! All segment and checkpoint I/O is routed through the [`SegmentIo`]
//! trait (positional `write_all_at` / `read_exact_at` plus `sync_data`),
//! opened per file by the [`SegmentIoFactory`] carried in
//! [`LogConfig::io_factory`], which also performs every directory
//! operation (create, list, rename, remove, `sync_dir`).
//! Production uses [`FileBackend`]; crash tests plug in [`FaultInjector`]
//! with a deterministic [`FaultPlan`] (fail the Nth write, tear a write
//! after K bytes, fail an fsync, exhaust a byte budget, or crash outright).
//!
//! The flusher retries transient write errors with bounded exponential
//! backoff; an unrecoverable error *poisons* the log. A poisoned log
//! freezes its durable watermark, wakes every [`LogManager::wait_durable`]
//! waiter with [`ermia_common::LogError::Poisoned`], and rejects further
//! allocations. From there the system takes one of two exits: restart and
//! recover — which truncates the log at the first hole — or degrade to
//! read-only service and later call [`LogManager::resume`], which
//! re-probes the backend, papers the never-durable gap with on-disk skip
//! blocks, and re-arms a fresh flusher. [`LogConfig::wait_durable_timeout`]
//! is the one bound on every durability wait, the engine's
//! (`wait_durable`) and the server's (its parker's `LogStalled`). The
//! durability contract is: every acknowledged commit survives recovery;
//! unacknowledged blocks may or may not, but never past the first hole.

mod buffer;
mod checkpoint;
mod flusher;
mod io;
mod manager;
mod plan;
mod records;
mod recovery;
mod segment;
mod txlog;

pub use checkpoint::{read_rows, CheckpointMeta, CheckpointRows, CheckpointStore};
pub use io::{
    create_dirs, FaultInjector, FaultPlan, FileBackend, SegmentIo, SegmentIoFactory, TornWrite,
};
pub use manager::{
    DurableSub, DurableWaker, LogConfig, LogManager, LogStats, Reservation, SyncCause,
};
pub use records::{
    BlockEncoder, BlockKind, DdlRecord, DecideRecord, LogBlockHeader, LogRecord, LogRecordKind,
    PrepareMarker, TxRecordView, BLOCK_HEADER_LEN, BLOCK_MAGIC, DECIDE_RECORD_LEN,
    MAX_BLOCK_RECORDS, MAX_KEY_LEN, MIN_BLOCK_LEN, PREPARE_MARKER_LEN, RECORD_HEADER_LEN,
};
pub use recovery::{BlockView, LogScanner, ScannedBlock};
pub use segment::{Segment, SegmentTable};
pub use txlog::TxLogBuffer;

#[cfg(test)]
mod ring_stress;
#[cfg(test)]
mod tests;
