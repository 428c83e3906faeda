//! The commit handle, and the one parker that waits commits in flight out
//! on the logs: a server shard's event loop drives one holding hundreds
//! (which its [`VerdictHelper`] polls too), a blocking cross-shard
//! [`ShardedTransaction::commit`] one holding its own.
//!
//! [`ShardedTransaction::commit`]: super::ShardedTransaction::commit
//! [`VerdictHelper`]: crate::VerdictHelper

use std::time::Instant;

use ermia_common::{LogError, TxResult};
use ermia_log::{DurableSub, DurableWaker};

use super::staged::StagedCommit;
use super::{ShardedDb, ShardedWorker};
use crate::transaction::CommitToken;

/// The one handle on a commit in flight, whatever it still waits for.
///
/// Either way it waits only on log offsets ([`DeferredCommit::waits`]),
/// so a [`Parker`] carries both cases through the same flush.
pub enum DeferredCommit {
    /// Committed in memory: the already-finalized case, with at most one
    /// log offset to await and no verdict record owed.
    Committed(CommitToken),
    /// Prepared on every writer shard; the verdict is still to come.
    Staged(Box<StagedCommit>),
}

impl DeferredCommit {
    /// The receipt, if the commit was published in memory before
    /// [`commit_deferred`](super::ShardedTransaction::commit_deferred)
    /// returned. A staged commit has none: a [`Parker`] delivers its
    /// verdict, polled by any thread that runs transactions which may
    /// wait on its prepared heads (a [`VerdictHelper`](crate::VerdictHelper)).
    pub fn published(&self) -> Option<CommitToken> {
        match self {
            DeferredCommit::Committed(token) => Some(*token),
            DeferredCommit::Staged(_) => None,
        }
    }

    /// The log offsets awaited now, as (shard, end offset) pairs.
    pub fn waits(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (token, staged) = match self {
            DeferredCommit::Committed(token) => (Some(token), None),
            DeferredCommit::Staged(staged) => (None, Some(staged)),
        };
        let own = token.and_then(|t| t.end_offset().map(|end| (t.shard() as usize, end)));
        own.into_iter().chain(staged.into_iter().flat_map(|s| s.waits()))
    }

    /// Move as far as durability allows, without blocking: `None` while a
    /// wait is outstanding. A staged commit's verdict is delivered on
    /// `resolver` ([`StagedCommit::poll`]).
    fn poll(&mut self, resolver: &mut ShardedWorker) -> Option<Settled> {
        let token = match self {
            DeferredCommit::Staged(staged) => return staged.poll(resolver).map(Settled::Verdict),
            DeferredCommit::Committed(token) => *token,
        };
        // A token without an offset occupied no log space.
        let log = |end| resolver.db.inner.dbs[token.shard() as usize].inner.log.durable_status(end);
        match token.end_offset().map_or(Ok(true), log) {
            Ok(true) => Some(Settled::Verdict(Ok(token))),
            Ok(false) => None,
            Err(e) => Some(Settled::LogFailed(e)),
        }
    }
}

/// How a parked commit ended.
pub enum Settled {
    /// The transaction's verdict: committed and durable, or aborted (a
    /// staged commit whose log failed aborts with `LogFailure`).
    Verdict(TxResult<CommitToken>),
    /// Published, but its log failed under it: it is not rolled back, and
    /// its on-disk fate is indeterminate until restart recovery.
    LogFailed(LogError),
    /// Past its deadline. A staged commit was aborted
    /// ([`StagedCommit::abort`]: indeterminate until its abort verdict is
    /// durable); a published one stands.
    Lapsed,
}

struct Job<T> {
    tag: T,
    commit: DeferredCommit,
    deadline: Instant,
}

/// Commits in flight, each with its caller's tag and a deadline, waited
/// out on the logs by one wake-up cell.
///
/// It holds one registration of that cell per engine log, at the lowest
/// offset any job still awaits there — a log's durable watermark only
/// rises, so no wait on it ends before that offset lands — or none. A
/// staged commit is published in the [`Parker::poll`] that finds its last
/// prepare durable — one durability round — and the verdict record it
/// then owes waits for [`Parker::write_verdicts`], so its caller can
/// answer first. Verdicts are delivered on the resolver passed in, never
/// on a worker that runs transactions.
pub struct Parker<T> {
    db: ShardedDb,
    waker: DurableWaker,
    jobs: Vec<Job<T>>,
    /// Per engine log: the one registration, with the offset it is for.
    subs: Vec<Option<(u64, DurableSub)>>,
    /// Finished commits, held until their verdict records are written.
    answered: Vec<DeferredCommit>,
}

impl<T> Parker<T> {
    /// An empty parker on `db`'s logs; `waker` is the cell it sleeps on,
    /// which whoever hands it jobs may ring too.
    pub fn new(db: &ShardedDb, waker: DurableWaker) -> Parker<T> {
        let subs = (0..db.shards()).map(|_| None).collect();
        Parker { db: db.clone(), waker, jobs: Vec::new(), subs, answered: Vec::new() }
    }

    /// Take `commit` on, to be settled by `deadline` at the latest.
    pub fn park(&mut self, deadline: Instant, tag: T, commit: DeferredCommit) {
        self.jobs.push(Job { tag, commit, deadline });
    }

    /// No job is waiting.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Poll every job, without blocking, and hand each one that settled to
    /// `each` with its tag and its commit. A job past its deadline is
    /// aborted first and reported [`Settled::Lapsed`].
    pub fn poll(
        &mut self,
        resolver: &mut ShardedWorker,
        mut each: impl FnMut(T, &DeferredCommit, Settled),
    ) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.jobs.len() {
            let job = &mut self.jobs[i];
            let settled = match job.commit.poll(resolver) {
                Some(settled) => settled,
                None if now >= job.deadline => {
                    if let DeferredCommit::Staged(staged) = &mut job.commit {
                        staged.abort(resolver);
                    }
                    Settled::Lapsed
                }
                None => {
                    i += 1;
                    continue;
                }
            };
            let Job { tag, commit, .. } = self.jobs.swap_remove(i);
            each(tag, &commit, settled);
            self.answered.push(commit);
        }
    }

    /// Append the verdict records the commits settled since the last call
    /// owe the logs ([`StagedCommit::write_verdict`]): unforced, waited for
    /// by nobody.
    pub fn write_verdicts(&mut self, resolver: &mut ShardedWorker) {
        for commit in self.answered.drain(..) {
            if let DeferredCommit::Staged(mut staged) = commit {
                staged.write_verdict(resolver);
            }
        }
    }

    /// Register for the lowest offset each log still owes a job: one
    /// registration per log, moved only when that offset changes. Returns
    /// false when an offset landed (or its log failed) since the last
    /// poll: the jobs want another poll, not a sleep.
    pub fn arm(&mut self) -> bool {
        let mut settled = true;
        for (shard, sub) in self.subs.iter_mut().enumerate() {
            let waits = self.jobs.iter().flat_map(|job| job.commit.waits());
            let lowest = waits.filter_map(|(s, end)| (s == shard).then_some(end)).min();
            if sub.as_ref().map(|(end, _)| *end) == lowest {
                continue;
            }
            *sub = lowest.and_then(|end| {
                let registered =
                    self.db.inner.dbs[shard].inner.log.subscribe_durable(end, &self.waker);
                settled &= registered.is_some();
                registered.map(|r| (end, r))
            });
        }
        settled
    }

    /// The earliest deadline of a job, if any job waits.
    pub fn due(&self) -> Option<Instant> {
        self.jobs.iter().map(|job| job.deadline).min()
    }
}
