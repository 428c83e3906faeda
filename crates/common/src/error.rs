//! Transaction outcome taxonomy.
//!
//! The evaluation (§4.3) cares *why* transactions abort — write-write
//! conflicts vs. OCC read-validation failures vs. SSN exclusion-window
//! violations — so the reason is a first-class enum that the benchmark
//! driver aggregates per transaction type.

/// Why a transaction aborted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AbortReason {
    /// First-updater-wins: the head version is uncommitted, or a committed
    /// head is newer than the updater's snapshot (ERMIA, §3.6.1).
    WriteWriteConflict,
    /// SSN exclusion-window test failed: π(T) ≤ η(T) (ERMIA-SSN, §3.6.2).
    SsnExclusion,
    /// OCC read-set validation failed: a read record was overwritten or is
    /// locked by another committing writer (Silo).
    ReadValidation,
    /// A leaf node in the transaction's node set changed version — a
    /// possible phantom (both engines, §3.6.2).
    Phantom,
    /// Insert of a key that already exists (unique-constraint violation).
    DuplicateKey,
    /// The application requested the abort (e.g. TPC-C NewOrder rollback).
    UserRequested,
    /// Internal resource pressure (log buffer wait exhausted, TID table
    /// full), or a commit whose log block is longer than the log ring or
    /// a segment. Rare; counted separately so it never masquerades as a
    /// CC-induced abort.
    ResourceExhausted,
    /// The commit could not be made durable: the log is poisoned after an
    /// unrecoverable I/O error, or the group-commit wait timed out. The
    /// transaction is rolled back in memory, but its block may already sit
    /// in the log — its on-disk fate is indeterminate until restart
    /// recovery truncates at the first hole (see [`LogError`]).
    LogFailure,
    /// The database is in degraded read-only mode (its log is poisoned,
    /// so no new write could ever become durable). Read-only transactions
    /// keep committing; any write operation is refused with this reason
    /// until an operator resumes the log.
    ReadOnlyMode,
}

impl AbortReason {
    /// Every reason, in declaration order — the order metric tables and
    /// per-reason breakdown columns index by ([`AbortReason::idx`]).
    pub const ALL: [AbortReason; 9] = [
        AbortReason::WriteWriteConflict,
        AbortReason::SsnExclusion,
        AbortReason::ReadValidation,
        AbortReason::Phantom,
        AbortReason::DuplicateKey,
        AbortReason::UserRequested,
        AbortReason::ResourceExhausted,
        AbortReason::LogFailure,
        AbortReason::ReadOnlyMode,
    ];

    /// Position in [`AbortReason::ALL`]; stable across the process.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Short stable label used by the benchmark reporters.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::WriteWriteConflict => "ww-conflict",
            AbortReason::SsnExclusion => "ssn-exclusion",
            AbortReason::ReadValidation => "read-validation",
            AbortReason::Phantom => "phantom",
            AbortReason::DuplicateKey => "dup-key",
            AbortReason::UserRequested => "user",
            AbortReason::ResourceExhausted => "resource",
            AbortReason::LogFailure => "log-failure",
            AbortReason::ReadOnlyMode => "read-only",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::error::Error for AbortReason {}

/// Result of a data operation inside a transaction. An `Err` dooms the
/// transaction: the caller must abort (the engines also mark the
/// transaction context doomed so further operations fail fast — the
/// paper's "early detection of doomed transactions").
pub type OpResult<T> = Result<T, AbortReason>;

/// Result of a commit attempt.
pub type TxResult<T> = Result<T, AbortReason>;

/// Why a durability wait failed.
///
/// Once the log flusher exhausts its bounded retries on a transient I/O
/// error — or hits a non-retryable one (fsync failure, ENOSPC, device
/// gone) — the log enters a *poisoned* state: the durable watermark is
/// frozen, every pending and future `wait_durable` returns
/// [`LogError::Poisoned`], and new log-space allocations fail. The
/// system either restarts and runs recovery — which truncates the log at
/// the first hole — or degrades to read-only service until an operator
/// clears the fault and resumes the log; transactions whose durability
/// was never acknowledged may or may not survive, but every acknowledged
/// one will.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogError {
    /// The flusher stopped after an unrecoverable I/O error; nothing past
    /// the current durable watermark will ever persist.
    Poisoned {
        /// `std::io::ErrorKind` of the fatal error.
        kind: std::io::ErrorKind,
        /// Human-readable detail from the underlying error.
        detail: String,
    },
    /// The durability wait exceeded its timeout. The log itself may still
    /// be healthy (e.g. a stall); the commit's fate is indeterminate.
    Timeout,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Poisoned { kind, detail } => {
                write!(f, "log poisoned by unrecoverable I/O error ({kind:?}): {detail}")
            }
            LogError::Timeout => f.write_str("durability wait timed out"),
        }
    }
}

impl std::error::Error for LogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = AbortReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), AbortReason::ALL.len());
    }

    #[test]
    fn idx_matches_position_in_all() {
        for (i, r) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(r.idx(), i);
        }
    }
}
