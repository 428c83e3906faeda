//! Metric-family definitions and the database-level collectors.
//!
//! One slab family is written on the transaction hot path (one relaxed
//! increment per metric, per the telemetry contract): [`TXN_FAMILY`] —
//! per-worker commit/abort outcome counters (aborts fanned out by
//! [`AbortReason`]) plus the version-chain-length histogram sampled on
//! every visible-version fetch.
//!
//! [`LOG_FAMILY`] holds the one log metric that is a distribution: the
//! flusher thread records every device sync's latency into it
//! ([`observe_log_syncs`]), once per sync, off every transaction's path.
//!
//! Everything else (log, GC, epoch, TID, pool) already keeps its own
//! atomics; [`register_db_collectors`] exposes those through read-side
//! collector closures that capture a `Weak<DbInner>` — no reference
//! cycle, no hot-path change.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Weak};

use ermia_common::AbortReason;
use ermia_telemetry::{FamilyDef, MetricDesc, MetricKind, Sample};

use crate::database::DbInner;

// --- TXN_FAMILY indices -------------------------------------------------

/// Counter 0: committed transactions.
pub(crate) const TXN_COMMITS: usize = 0;
/// Counters from 1 on: aborts, indexed by `TXN_ABORT_BASE + reason.idx()`.
pub(crate) const TXN_ABORT_BASE: usize = 1;
/// Histogram 0: version-chain nodes walked per transaction (summed
/// over its visibility fetches; recorded once at release so the
/// per-read hot path carries no telemetry work).
pub(crate) const TXN_CHAIN_HIST: usize = 0;

/// Per-transaction outcome counters: commits, then one abort counter per
/// [`AbortReason`], in [`AbortReason::ALL`] order and labelled by
/// [`AbortReason::label`].
pub(crate) static TXN_FAMILY: FamilyDef = FamilyDef {
    counters: &{
        let mut counters = [const {
            MetricDesc {
                name: "ermia_txn_commits_total",
                help: "Committed transactions",
                kind: MetricKind::Counter,
                label: None,
            }
        }; TXN_ABORT_BASE + AbortReason::ALL.len()];
        let mut i = 0;
        while i < AbortReason::ALL.len() {
            counters[TXN_ABORT_BASE + i] = MetricDesc {
                name: "ermia_txn_aborts_total",
                help: "Aborted transactions by reason",
                kind: MetricKind::Counter,
                label: Some(("reason", AbortReason::ALL[i].label())),
            };
            i += 1;
        }
        counters
    },
    hists: &[MetricDesc {
        name: "ermia_txn_chain_length",
        help: "Version-chain nodes walked per transaction (summed over its reads)",
        kind: MetricKind::Counter,
        label: None,
    }],
};

/// The log's one histogram; a single slab per database, written by the
/// flusher thread alone.
pub(crate) static LOG_FAMILY: FamilyDef = FamilyDef {
    counters: &[],
    hists: &[MetricDesc {
        name: "ermia_log_sync_ns",
        help: "Device sync latency per group-commit batch, ns (what the flusher paces overlapped syncs by)",
        kind: MetricKind::Counter,
        label: None,
    }],
};

/// Route the log's per-sync latency reports into [`LOG_FAMILY`].
pub(crate) fn observe_log_syncs(inner: &DbInner) {
    let slab = inner.telemetry.registry().register_slab(&LOG_FAMILY);
    inner.log.set_sync_observer(move |ns| slab.hist(0).record(ns));
}

/// Register the read-side collectors that expose the database's existing
/// subsystem atomics (log, GC, epoch, TID, pool). The closures capture a
/// `Weak<DbInner>` so the registry (owned by `DbInner`) never keeps its
/// owner alive; once the database drops, the collectors render nothing.
pub(crate) fn register_db_collectors(inner: &Arc<DbInner>) {
    let registry = inner.telemetry.registry();
    let group = registry.group();
    let weak: Weak<DbInner> = Arc::downgrade(inner);
    registry.register_collector(group, move |out| {
        if let Some(db) = weak.upgrade() {
            collect_db(&db, out);
        }
    });
}

fn collect_db(db: &DbInner, out: &mut Vec<Sample>) {
    // Log manager: counters from LogStats plus the derived gauges the
    // issue calls out (durable-LSN lag, ring occupancy, batch size).
    let log = &db.log;
    let s = log.stats();
    out.push(Sample::counter(
        "ermia_log_allocations_total",
        "Log space reservations (one fetch_add per committing txn)",
        s.allocations.load(Relaxed),
    ));
    out.push(Sample::counter(
        "ermia_log_rotations_total",
        "Segment rotations",
        s.rotations.load(Relaxed),
    ));
    out.push(Sample::counter(
        "ermia_log_skip_blocks_total",
        "Skip blocks written (aborts, segment closes)",
        s.skip_blocks.load(Relaxed),
    ));
    out.push(Sample::counter(
        "ermia_log_dead_zone_bytes_total",
        "Bytes retired into dead zones",
        s.dead_zone_bytes.load(Relaxed),
    ));
    out.push(Sample::counter(
        "ermia_log_flush_batches_total",
        "Group-commit flush batches",
        s.flush_batches.load(Relaxed),
    ));
    out.push(Sample::counter(
        "ermia_log_flushed_bytes_total",
        "Bytes handed to stable storage",
        s.flushed_bytes.load(Relaxed),
    ));
    out.push(Sample::counter(
        "ermia_log_flush_retries_total",
        "Transient write errors the flusher retried",
        s.flush_retries.load(Relaxed),
    ));
    out.push(Sample::gauge(
        "ermia_log_poisoned",
        "1 once the log hit an unrecoverable I/O error",
        s.log_poisoned.load(Relaxed) as f64,
    ));
    out.push(Sample::gauge(
        "ermia_db_state",
        "Database service state (0 = active, 1 = degraded read-only)",
        db.state.load(Relaxed) as f64,
    ));
    out.push(Sample::gauge(
        "ermia_fork_count",
        "Live copy-on-write snapshot forks pinning the GC horizon",
        db.fork_count.load(Relaxed) as f64,
    ));
    let recovered = *db.recovered.lock().unwrap();
    out.push(Sample::gauge(
        "ermia_recovery_seconds",
        "Time the last offline recovery took to rebuild this database",
        recovered.elapsed.as_secs_f64(),
    ));
    out.push(Sample::gauge(
        "ermia_recovery_bytes",
        "Checkpoint and log bytes the last offline recovery scanned",
        recovered.scanned_bytes as f64,
    ));
    out.push(Sample::gauge(
        "ermia_log_durable_lag_bytes",
        "Allocated-but-not-yet-durable log bytes (next - durable)",
        log.next_offset().saturating_sub(log.durable_offset()) as f64,
    ));
    out.push(Sample::gauge(
        "ermia_log_ring_occupancy_bytes",
        "Filled-but-unflushed bytes in the centralized ring buffer",
        log.ring_occupancy() as f64,
    ));
    out.push(Sample::gauge(
        "ermia_log_ring_capacity_bytes",
        "Centralized ring buffer capacity",
        log.ring_capacity() as f64,
    ));
    out.push(Sample::gauge(
        "ermia_log_ring_unreleased_bytes",
        "Filled ring bytes not yet handed back to the operating system (what of the ring can be resident)",
        log.ring_unreleased() as f64,
    ));
    out.push(Sample::counter(
        "ermia_log_space_waits_total",
        "Reservations that blocked waiting for ring space",
        log.ring_space_waits(),
    ));
    out.push(Sample::gauge(
        "ermia_log_last_batch_bytes",
        "Size of the most recent group-commit flush batch",
        s.last_batch_bytes.load(Relaxed) as f64,
    ));
    out.push(Sample::gauge(
        "ermia_log_syncs_in_flight",
        "Device syncs issued and not yet published (the flusher's queue depth)",
        s.syncs_in_flight.load(Relaxed) as f64,
    ));
    for cause in ermia_log::SyncCause::ALL {
        out.push(
            Sample::counter(
                "ermia_log_sync_starts_total",
                "Device syncs started, by why the flusher started them when it did",
                s.sync_starts(cause),
            )
            .labeled("cause", cause.label()),
        );
    }

    // Garbage collector. visited ÷ reclaimed is what a reclaimed version
    // costs in chain visits; the backlog is what a pinned horizon holds.
    let gc = &db.gc_stats;
    out.push(Sample::counter(
        "ermia_gc_passes_total",
        "Collector passes (one per epoch tick, whether or not anything was due)",
        gc.passes.load(Relaxed),
    ));
    out.push(Sample::counter(
        "ermia_gc_reclaimed_versions_total",
        "Versions unlinked and retired by the GC",
        gc.reclaimed.load(Relaxed),
    ));
    out.push(Sample::counter(
        "ermia_gc_chains_visited_total",
        "Version chains the GC visited, one per retire-queue entry popped",
        gc.chains_visited.load(Relaxed),
    ));
    out.push(Sample::gauge(
        "ermia_gc_retire_backlog",
        "Retire-queue entries not yet visited (superseded versions the horizon still protects)",
        gc.retire_backlog.load(Relaxed) as f64,
    ));

    // Unified epoch manager (one timeline for the paper's 3 timescales).
    let timescale = db.epoch.name();
    let es = db.epoch.stats();
    let e = |s: Sample| s.labeled("timescale", timescale);
    out.push(e(Sample::gauge("ermia_epoch_current", "Current (open) epoch", es.epoch as f64)));
    out.push(e(Sample::counter(
        "ermia_epoch_advances_total",
        "Successful epoch advances",
        es.advances,
    )));
    out.push(e(Sample::counter(
        "ermia_epoch_advance_blocked_total",
        "Advance attempts blocked by a straggler",
        es.advance_blocked,
    )));
    out.push(e(Sample::counter(
        "ermia_epoch_deferred_total",
        "Destructors deferred through the epoch manager",
        es.deferred,
    )));
    out.push(e(Sample::counter(
        "ermia_epoch_freed_total",
        "Deferred destructors executed",
        es.freed,
    )));
    out.push(e(Sample::gauge(
        "ermia_epoch_pending_destructors",
        "Deferred destructors not yet safe to run",
        es.pending as f64,
    )));
    out.push(e(Sample::gauge(
        "ermia_epoch_threads",
        "Registered (non-retired) epoch participants",
        es.threads as f64,
    )));
    out.push(e(Sample::gauge(
        "ermia_epoch_stragglers",
        "Threads active two or more epochs behind",
        es.stragglers as f64,
    )));

    // TID table and version pool.
    out.push(Sample::gauge(
        "ermia_tid_slots_in_use",
        "Transaction-context slots currently held",
        db.tid.in_use() as f64,
    ));
    out.push(Sample::gauge(
        "ermia_tid_high_water",
        "One past the highest transaction-context slot ever claimed (what of the 64 K table has been touched)",
        db.tid.high_water() as f64,
    ));
    out.push(Sample::gauge(
        "ermia_version_pool_size",
        "Version nodes parked in the reuse pool",
        db.versions.pooled() as f64,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, DbConfig};

    /// The rendered abort family names each reason once, in
    /// `AbortReason::ALL` order: the order `TXN_ABORT_BASE + idx` counts in.
    #[test]
    fn the_abort_family_renders_each_reason_once_in_order() {
        let db = Database::open(DbConfig::in_memory()).unwrap();
        let _worker = db.register_worker();
        let text = db.telemetry().render_prometheus();
        let rendered: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("ermia_txn_aborts_total{reason=\""))
            .map(|l| l.split('"').next().unwrap())
            .collect();
        let labels: Vec<&str> = AbortReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(rendered, labels);
    }
}
