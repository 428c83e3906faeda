//! The metric and workload tables: names, units, direction and — for
//! end-to-end metrics — the bound by which a median may worsen before it
//! counts as a regression. `BENCHMARK.json` carries the same tables for
//! the driver: `ledger manifest` prints it, and a unit test keeps the two
//! in step.

pub const HIGHER: &str = "higher";
pub const LOWER: &str = "lower";

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub what: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// T = traced run, C = counter read from outside around a phase,
    /// P = standalone probe loop on the layer's public functions.
    pub source: char,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: HIGHER,
        bound: 0.10,
        what: "median over the capacity slices of committed transactions per second",
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: LOWER,
        bound: 0.10,
        what:
            "median client-observed transaction latency, latency slices (embed_hybrid: the teller)",
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: LOWER,
        bound: 0.10,
        what: "VmHWM at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
        what: "open + load + server start + connect (median of the run's set-ups)",
    },
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: char,
    what: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, source, what }
}

pub const PER_LAYER: &[PerLayer] = &[
    // whole process
    pl(
        "cpu_us_per_txn",
        "us",
        LOWER,
        'C',
        "process user+sys time over the capacity slices / transactions committed in them",
    ),
    // client
    pl("client.txn_p99_us", "us", LOWER, 'C', "p99 client-observed latency, latency slices"),
    pl(
        "client.encode_ns",
        "ns",
        LOWER,
        'T',
        "Client::send: request encode + frame into the write buffer",
    ),
    pl("client.decode_ns", "ns", LOWER, 'P', "Response::decode of this workload's reply"),
    pl(
        "client.rate_iqr_pct",
        "%",
        LOWER,
        'C',
        "IQR / median of the per-slice rates: the run's own noise",
    ),
    // server
    pl("server.frame_decode_ns", "ns", LOWER, 'T', "CRC check + request decode"),
    pl("server.run_queue_ns", "ns", LOWER, 'T', "wait on the shard run queue for a worker"),
    pl("server.worker_checkout_ns", "ns", LOWER, 'T', "worker checkout from the pool"),
    pl(
        "server.request_self_ns",
        "ns",
        LOWER,
        'T',
        "request span minus its children: dispatch, reply build, queueing",
    ),
    pl(
        "server.net_rtt_residual_ns",
        "ns",
        LOWER,
        'T',
        "client round trip minus send and server request: kernel + wake-ups + reply decode",
    ),
    pl("server.syscalls_per_txn", "count", LOWER, 'C', "/proc/self/io syscr+syscw per transaction"),
    pl(
        "server.ctx_switches_per_txn",
        "count",
        LOWER,
        'C',
        "context switches of all threads per transaction",
    ),
    pl("server.epoll_wakeups_per_txn", "count", LOWER, 'C', "event-loop wake-ups per transaction"),
    pl(
        "server.frame_codec_ns",
        "ns",
        LOWER,
        'P',
        "Get + reply: encode, frame, FrameAssembler, decode",
    ),
    pl("server.busy_rejects", "count", LOWER, 'C', "requests shed with Busy (must be 0)"),
    // core
    pl("core.begin_ns", "ns", LOWER, 'T', "transaction begin"),
    pl("core.read_ns", "ns", LOWER, 'T', "one point read"),
    pl("core.write_ns", "ns", LOWER, 'T', "one update / put"),
    pl("core.scan_row_ns", "ns", LOWER, 'T', "range scan, per row delivered"),
    pl(
        "core.commit_ns",
        "ns",
        LOWER,
        'T',
        "commit (embed) / commit_deferred (wire), no durability wait",
    ),
    pl(
        "core.durability_wait_ns",
        "ns",
        LOWER,
        'T',
        "group-commit durability waits, summed per transaction",
    ),
    pl("core.2pc_prepare_ns", "ns", LOWER, 'T', "2PC prepares, summed over participants"),
    pl("core.2pc_decide_ns", "ns", LOWER, 'T', "2PC decide write + durability"),
    pl("core.2pc_finalize_ns", "ns", LOWER, 'T', "2PC publish on every participant"),
    pl("core.aborts_per_ktxn", "count", LOWER, 'C', "engine aborts per 1000 commits, all reasons"),
    pl(
        "core.aborts_ww_per_ktxn",
        "count",
        LOWER,
        'C',
        "write-write conflict aborts per 1000 commits",
    ),
    pl("core.aborts_ssn_per_ktxn", "count", LOWER, 'C', "SSN exclusion aborts per 1000 commits"),
    pl(
        "core.chain_walk_len_mean",
        "count",
        LOWER,
        'C',
        "version-chain nodes walked per transaction",
    ),
    pl(
        "core.allocs_per_txn",
        "count",
        LOWER,
        'C',
        "heap allocations of the whole process per transaction",
    ),
    pl("core.pool_checkout_ns", "ns", LOWER, 'P', "WorkerPool::try_checkout + return"),
    pl("core.recover_s", "s", LOWER, 'C', "reopen + recover the crashed directory"),
    pl("core.recover_mb_per_s", "MB/s", HIGHER, 'C', "log bytes replayed per second of recovery"),
    // index
    pl("index.get_ns", "ns", LOWER, 'P', "BTree::get hit, 100k 16-byte keys"),
    pl("index.insert_ns", "ns", LOWER, 'P', "BTree::insert of a fresh key"),
    pl("index.scan_row_ns", "ns", LOWER, 'P', "BTree::scan per entry, 100-entry ranges"),
    // storage
    pl("storage.cas_install_ns", "ns", LOWER, 'P', "VersionCache::acquire + OidArray::cas_head"),
    pl("storage.head_load_ns", "ns", LOWER, 'P', "OidArray::head"),
    pl("storage.tid_acquire_release_ns", "ns", LOWER, 'P', "TidManager acquire → commit → release"),
    pl("storage.gc_passes", "count", HIGHER, 'C', "GC passes during the measured period"),
    pl("storage.gc_reclaimed_per_s", "1/s", HIGHER, 'C', "versions reclaimed per second"),
    pl(
        "storage.version_reuse_pct",
        "%",
        HIGHER,
        'C',
        "installed versions served from the reuse cache (embed only)",
    ),
    // epoch
    pl("epoch.pin_ns", "ns", LOWER, 'P', "EpochHandle::pin + unpin"),
    pl("epoch.advances_per_s", "1/s", HIGHER, 'C', "epoch advances per second"),
    pl(
        "epoch.deferred_backlog_max",
        "count",
        LOWER,
        'C',
        "largest pending-destructor backlog seen (sampled each second)",
    ),
    // log
    pl(
        "log.bytes_per_txn",
        "B",
        LOWER,
        'C',
        "growth of LogManager::next_offset over shards / committed transactions",
    ),
    pl(
        "log.reserve_fill_ns",
        "ns",
        LOWER,
        'P',
        "LogManager::allocate + Reservation::fill of a 4-record block",
    ),
    pl("log.txlog_serialize_ns", "ns", LOWER, 'P', "TxLogBuffer: add 4 records + serialize"),
    pl(
        "log.durability_rounds_per_txn",
        "count",
        LOWER,
        'C',
        "device sync_data calls / transactions, latency slices",
    ),
    pl("log.flush_batches_per_txn", "count", LOWER, 'C', "group-commit batches per transaction"),
    pl("log.batch_bytes_mean", "B", HIGHER, 'C', "flushed bytes per batch"),
    pl(
        "log.device_busy_pct",
        "%",
        LOWER,
        'C',
        "device write+sync time / wall time (two devices can exceed 100)",
    ),
    pl("log.write_amp", "ratio", LOWER, 'C', "device bytes / user key+value bytes"),
    pl(
        "log.ring_space_waits",
        "count",
        LOWER,
        'C',
        "reservations that blocked on ring space (must be 0)",
    ),
    // telemetry
    pl(
        "telemetry.trace_overhead_pct",
        "%",
        LOWER,
        'T',
        "rate lost with sampled tracing on, same loop traced vs untraced",
    ),
    // host
    pl("host.calib_mops_before", "Mops", HIGHER, 'C', "fixed spin before the run"),
    pl("host.calib_mops_after", "Mops", HIGHER, 'C', "fixed spin after the run"),
    pl("host.steal_pct", "%", LOWER, 'C', "hypervisor steal over the run"),
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds every
    /// end-to-end metric to its bound. The contract wants every
    /// end-to-end metric on every listed workload, and on this host
    /// CPU-bound time does not repeat within any bound it allows (README,
    /// "What is gated"): the CPU-bound pair is run by hand, and there
    /// [`TIMES`] carry no bound.
    pub gated: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "embed_hybrid",
        why: "CPU-bound, engine only: one thread interleaves a serializable full-scan analyst with snapshot tellers; index, chains, SI/SSN, epochs/GC and log copy work while server, flush wait and 2PC idle",
        gated: false,
    },
    Workload {
        name: "wire_point_read",
        why: "CPU-bound service path, read-only: frame codec, event loop, worker checkout, read-only commit and index probe; log and flusher bypassed",
        gated: false,
    },
    Workload {
        name: "wire_sync_write",
        why: "wait-bound durable write path on one shard: log reserve/copy, group commit and the durability tiers; 2PC bypassed",
        gated: true,
    },
    Workload {
        name: "wire_2pc",
        why: "wait-bound cross-shard commits: prepare/decide/finalize and their serial durability rounds on two shards",
        gated: true,
    },
];

/// The end-to-end metrics that are times: bounded on gated workloads only.
pub const TIMES: &[&str] = &["txn_per_s", "txn_p50_us"];

/// The bound `m` carries on `w`, if any.
pub fn bound_on(w: &Workload, m: &EndToEnd) -> Option<f64> {
    (w.gated || !TIMES.contains(&m.name)).then_some(m.bound)
}

/// Counters (source C, all lower-is-better) that are counts of what the
/// program did, not times: with the same seed they repeat within half a
/// percent on every workload, where CPU-bound times swing by tens. The
/// gate `ledger diff` holds a change to the CPU-bound path to.
pub const COUNTS: &[&str] = &[
    "log.bytes_per_txn",
    "log.durability_rounds_per_txn",
    "core.allocs_per_txn",
    "core.chain_walk_len_mean",
    "server.syscalls_per_txn",
];
/// A count grew if its median rose by more than this share ...
pub const COUNT_TOLERANCE: f64 = 0.01;
/// ... and by more than this per transaction: a count near 0 (the system
/// calls of `embed_hybrid`) has no meaningful ratio.
pub const COUNT_FLOOR: f64 = 0.01;
