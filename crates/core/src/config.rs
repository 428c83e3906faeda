//! Engine configuration.

use std::time::Duration;

use ermia_log::LogConfig;

/// Isolation level of a transaction.
///
/// Both run on the same snapshot-isolation machinery; `Serializable`
/// additionally runs the SSN certifier and node-set phantom validation.
/// The paper's two flavors: `Snapshot` = ERMIA-SI, `Serializable` =
/// ERMIA-SSN.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IsolationLevel {
    Snapshot,
    Serializable,
}

/// Database configuration.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Log manager configuration (directory, segment/buffer sizes, ...).
    pub log: LogConfig,
    /// Wait for the group-commit flusher before reporting commit.
    pub synchronous_commit: bool,
    /// GC sweep interval.
    pub gc_interval: Duration,
    /// Values at or above this size are diverted to the large-object
    /// (blob) store at commit; the log carries only an indirect pointer
    /// (§3.3, log feature 4). `usize::MAX` disables diversion.
    pub large_value_threshold: usize,
    /// Head-based trace sampling: a sharded worker traces every Nth
    /// transaction it begins without wire-supplied context (0 = off,
    /// the default — an untraced transaction's whole tracing cost is
    /// one branch). Wire-propagated `TraceContext` is honored
    /// regardless of this knob.
    pub trace_sample_n: u32,
    /// Tail-based slow-op capture: a *traced* operation slower than
    /// this many microseconds has its span buffer retained in the
    /// worst-K slow-op log (`ermia_slow_ops`). 0 disables retention.
    /// Untraced operations are never affected, so a nonzero default is
    /// free while tracing is off.
    pub trace_slow_us: u64,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            log: LogConfig::default(),
            synchronous_commit: false,
            gc_interval: Duration::from_millis(20),
            large_value_threshold: usize::MAX,
            trace_sample_n: 0,
            trace_slow_us: 10_000,
        }
    }
}

impl DbConfig {
    /// Everything in memory; the configuration used by tests and the
    /// CC-focused experiments.
    pub fn in_memory() -> DbConfig {
        DbConfig { log: LogConfig::in_memory(), ..DbConfig::default() }
    }

    /// Log to `dir` (checkpoints go to `dir` as well).
    pub fn durable(dir: impl Into<std::path::PathBuf>) -> DbConfig {
        DbConfig {
            log: LogConfig { dir: Some(dir.into()), ..LogConfig::default() },
            synchronous_commit: true,
            ..DbConfig::default()
        }
    }
}
