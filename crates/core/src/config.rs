//! Engine configuration.

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
    /// A log with a directory makes `commit()` wait for its block to be
    /// durable; `commit_deferred()` never waits.
    pub log: LogConfig,
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
        DbConfig { log: LogConfig::default(), trace_sample_n: 0, trace_slow_us: 10_000 }
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
            ..DbConfig::default()
        }
    }

    /// Whether `commit()` waits for its block: iff the log has a
    /// directory, so there is something to wait for.
    pub(crate) fn commit_waits(&self) -> bool {
        self.log.dir.is_some()
    }
}
