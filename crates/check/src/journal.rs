//! The durability oracle. Each write of a key carries a fresh sequence,
//! journaled as [`issue`](KeyLog::issue)d before its bytes may leave, then
//! [`ack`](KeyLog::ack)ed once durable or [`deny`](KeyLog::deny)ed once the
//! server promised it did not happen; with neither it is indeterminate,
//! and recovery may keep it or not. [`check`] holds a recovered value to
//! **acked ⇒ durable** (not absent, not older than the acked sequence) and
//! **no fabrication** (issued, never denied).

use std::collections::{BTreeSet, HashMap};

/// Everything the oracle knows about one key.
#[derive(Clone, Debug, Default)]
pub struct KeyLog {
    /// Highest sequence acknowledged durable.
    pub acked: Option<u64>,
    /// Every sequence ever sent for this key.
    pub issued: BTreeSet<u64>,
    /// Sequences the server *definitively* refused: they were never
    /// applied and must never surface.
    pub denied: BTreeSet<u64>,
}

impl KeyLog {
    pub fn issue(&mut self, seq: u64) {
        self.issued.insert(seq);
    }

    pub fn ack(&mut self, seq: u64) {
        self.acked = self.acked.max(Some(seq));
    }

    pub fn deny(&mut self, seq: u64) {
        self.denied.insert(seq);
    }
}

/// Key → what was written to it.
pub type Journal = HashMap<Vec<u8>, KeyLog>;

/// Fold `from` (one client's journal) into `into`.
pub fn merge(into: &mut Journal, from: Journal) {
    for (k, v) in from {
        let e = into.entry(k).or_default();
        e.acked = e.acked.max(v.acked);
        e.issued.extend(v.issued);
        e.denied.extend(v.denied);
    }
}

/// The violations of recovering `name` to `recovered` (`None`: absent):
/// absent only if nothing was acked, otherwise an issued, never denied
/// sequence at or past the acked one.
pub fn check(name: &str, recovered: Option<u64>, log: &KeyLog) -> Vec<String> {
    let mut violations = Vec::new();
    match (recovered, log.acked) {
        (None, Some(a)) => violations.push(format!("{name}: acked seq {a} lost — absent")),
        (None, None) => {}
        (Some(r), acked) => {
            if !log.issued.contains(&r) {
                violations.push(format!("{name}: recovered unissued value {r}"));
            }
            if log.denied.contains(&r) {
                violations.push(format!("{name}: recovered value {r} the server denied"));
            }
            if acked.is_some_and(|a| r < a) {
                violations.push(format!("{name}: recovered {r}, older than acked {acked:?}"));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_verdict_and_what_an_indeterminate_write_may_do() {
        // Sequences 1–4 issued; 2 acked, 3 denied, 4 neither.
        let mut log = KeyLog::default();
        (1..=4).for_each(|s| log.issue(s));
        log.ack(2);
        log.deny(3);
        let unacked = KeyLog { issued: [7].into(), ..KeyLog::default() };
        for (recovered, log, want) in [
            (None, &log, Some("k: acked seq 2 lost — absent")),
            (Some(9), &log, Some("k: recovered unissued value 9")),
            (Some(3), &log, Some("k: recovered value 3 the server denied")),
            (Some(1), &log, Some("k: recovered 1, older than acked Some(2)")),
            (Some(2), &log, None),
            (Some(4), &log, None),
            (None, &unacked, None),
            (Some(7), &unacked, None),
        ] {
            assert_eq!(check("k", recovered, log), Vec::from_iter(want), "{recovered:?}");
        }
    }

    #[test]
    fn merge_keeps_the_highest_ack_and_every_issue_and_denial() {
        let a = KeyLog { acked: Some(5), issued: [5].into(), denied: [6].into() };
        let b = KeyLog { acked: Some(3), issued: [3].into(), denied: [4].into() };
        let mut into = Journal::from([(b"k".to_vec(), a)]);
        merge(&mut into, Journal::from([(b"k".to_vec(), b.clone()), (b"new".to_vec(), b)]));
        let k = &into[&b"k".to_vec()];
        assert_eq!((k.acked, &k.issued, &k.denied), (Some(5), &[3, 5].into(), &[4, 6].into()));
        assert_eq!(into[&b"new".to_vec()].acked, Some(3));
    }
}
