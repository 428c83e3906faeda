//! Flight recorder: fixed-size per-worker event rings.
//!
//! Each worker owns an [`EventRing`] — a power-of-two array of slots
//! it appends structured events to (txn begin/commit/abort, log
//! stall/poison, GC pass, checkpoint, epoch advance) with nanosecond
//! timestamps relative to a shared epoch. Writers never allocate,
//! never lock, and never wait: a record is a position `fetch_add` and
//! six relaxed/release stores — the slot protocol of [`crate::ring`],
//! with `{ts, kind, a, b}` as the payload words. All the expensive work
//! (merging rings, sorting, formatting) happens on the reader side when
//! a dump is requested — on demand via the `DumpEvents` wire frame, or
//! automatically when the log stalls or poisons, so a torture-test
//! failure arrives with its own trace.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::ring::{kinds, RingSet, SeqRing};

kinds! {
    /// What happened. Codes are stable (they appear in dumps and tests).
    pub enum EventKind {
        1 TxnBegin: "txn-begin";
        2 TxnCommit: "txn-commit";
        3 TxnAbort: "txn-abort";
        4 LogStall: "log-stall";
        5 LogPoison: "log-poison";
        6 GcPass: "gc-pass";
        7 Checkpoint: "checkpoint";
        8 EpochAdvance: "epoch-advance";
        /// The database entered degraded read-only mode (log poisoned).
        9 DbDegraded: "db-degraded";
        /// The database resumed Active after an operator cleared the fault.
        10 DbResumed: "db-resumed";
        /// A server session parked a sync-commit reply on the durability
        /// parker (the reply slot waits for the log instead of a thread).
        11 SessionParked: "session-parked";
        /// A parked session's commit resolved; its reply slot was filled and
        /// write interest re-armed.
        12 SessionResumed: "session-resumed";
        /// A cross-shard transaction's participant filled its prepare block
        /// (`a` = participant shard, `b` = prepare cstamp).
        13 TwoPcPrepare: "2pc-prepare";
        /// A cross-shard transaction's verdict records were appended to its
        /// participants' logs (`a` = gtid lsn, `b` = 1 commit / 0 abort).
        14 TwoPcDecide: "2pc-decide";
        /// Recovery resolved an in-doubt prepared transaction (`a` = gtid
        /// lsn; `b` bit 0 = committed, bit 1 = no verdict record was found
        /// and the count of prepares decided).
        15 TwoPcResolve: "2pc-resolve";
        /// The backup shipper served a log chunk to a subscriber (`a` =
        /// chunk start offset, `b` = bytes shipped).
        16 ReplSegmentShipped: "repl-segment-shipped";
        /// A replica finished an apply round (`a` = applied-through offset,
        /// `b` = blocks replayed this round).
        17 ReplApplied: "repl-applied";
        /// An offline recovery rebuilt the database (`a` = checkpoint and
        /// log bytes scanned, `b` = versions built).
        18 Recovery: "recovery";
        /// The listener ran out of descriptors and a queued connection was
        /// answered `Busy` through the reserve one (`a` = errno, `b` = how
        /// many so far).
        19 AcceptShed: "accept-shed";
    }
}

/// A decoded event. `a`/`b` are kind-specific payload words (tid/lsn,
/// reason code, reclaimed count, …).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub ts_ns: u64,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}

/// One writer's ring of events: a `SeqRing` whose slots are
/// `{ts, kind, a, b}`.
pub struct EventRing {
    ring: SeqRing<4>,
}

impl EventRing {
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Append an event. Allocation-free, lock-free, wait-free.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        self.ring.push([self.ring.now_ns(), kind.code() as u64, a, b]);
    }

    /// Events written so far (monotonic, may exceed capacity).
    pub fn written(&self) -> u64 {
        self.ring.written()
    }

    /// Copy out every currently-valid event. Torn slots (mid-write)
    /// are skipped, never misread.
    pub fn snapshot(&self, out: &mut Vec<Event>) {
        self.ring.snapshot(|[ts_ns, kind, a, b]| {
            if let Some(kind) = EventKind::from_code(kind as u32) {
                out.push(Event { ts_ns, kind, a, b });
            }
        });
    }
}

/// Owns the shared clock epoch and the set of registered rings, and
/// renders merged dumps.
pub struct FlightRecorder {
    epoch: Instant,
    ring_cap: usize,
    rings: RingSet<EventRing>,
    last_dump: Mutex<Option<String>>,
}

impl FlightRecorder {
    pub fn new(ring_cap: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            ring_cap,
            rings: RingSet::new(),
            last_dump: Mutex::new(None),
        }
    }

    /// Create and register a ring for one writer (a worker thread or a
    /// background service).
    pub fn ring(&self) -> Arc<EventRing> {
        self.rings.register(EventRing { ring: SeqRing::new(self.epoch, self.ring_cap) })
    }

    /// Drop a ring from the dump set (its events are no longer
    /// reachable; counters, unlike events, are retained on retire —
    /// a trace is about *recent live* activity).
    pub fn retire(&self, ring: &Arc<EventRing>) {
        self.rings.retire(ring);
    }

    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// Merge every ring, sort by timestamp, and format the most recent
    /// `max_events` as a bounded human-readable report.
    pub fn dump(&self, max_events: usize) -> String {
        FlightRecorder::dump_merged(&[self], max_events)
    }

    /// [`FlightRecorder::dump`] over several recorders (one per engine
    /// shard) as one report on the earliest recorder's clock; an event
    /// then names its recorder before its ring (`s1r4`).
    pub fn dump_merged(recorders: &[&FlightRecorder], max_events: usize) -> String {
        let base = recorders.iter().map(|r| r.epoch).min().expect("at least one recorder");
        let mut events: Vec<(usize, usize, Event)> = Vec::new();
        let mut buf = Vec::new();
        for (s, rec) in recorders.iter().enumerate() {
            let skew = rec.epoch.duration_since(base).as_nanos() as u64;
            rec.rings.for_each(|i, ring| {
                buf.clear();
                ring.snapshot(&mut buf);
                events.extend(buf.iter().map(|e| (s, i, Event { ts_ns: e.ts_ns + skew, ..*e })));
            });
        }
        events.sort_by_key(|(_, _, e)| e.ts_ns);
        let skipped = events.len().saturating_sub(max_events);
        let shown = &events[skipped..];
        let mut out = String::with_capacity(64 + shown.len() * 48);
        out.push_str(&format!(
            "flight-recorder dump: {} event(s) across {} ring(s){}\n",
            shown.len(),
            recorders.iter().map(|r| r.ring_count()).sum::<usize>(),
            if skipped > 0 { format!(" ({skipped} older suppressed)") } else { String::new() }
        ));
        for (s, i, e) in shown {
            let tag = if recorders.len() == 1 { format!("r{i}") } else { format!("s{s}r{i}") };
            let secs = e.ts_ns / 1_000_000_000;
            let frac = e.ts_ns % 1_000_000_000;
            out.push_str(&format!(
                "  [+{secs:>5}.{frac:09}] {tag:<4} {:<13} {}\n",
                e.kind.label(),
                describe(e)
            ));
        }
        out
    }

    /// Record a dump taken at a failure boundary (log stall/poison) so
    /// it can be fetched later even after the moment has passed.
    pub fn store_last_dump(&self, dump: String) {
        *self.last_dump.lock().unwrap() = Some(dump);
    }

    pub fn last_dump(&self) -> Option<String> {
        self.last_dump.lock().unwrap().clone()
    }
}

fn describe(e: &Event) -> String {
    match e.kind {
        EventKind::TxnBegin => format!("tid={}", e.a),
        EventKind::TxnCommit => format!("tid={} lsn={:#x}", e.a, e.b),
        EventKind::TxnAbort => format!("tid={} reason={}", e.a, e.b),
        EventKind::LogStall => format!("waited_ms={}", e.a),
        EventKind::LogPoison => format!("cause={}", e.a),
        EventKind::GcPass => format!("reclaimed={} pass={}", e.a, e.b),
        EventKind::Checkpoint => format!("lsn={:#x}", e.a),
        EventKind::EpochAdvance => format!("epoch={}", e.a),
        EventKind::DbDegraded => format!("durable_frozen_at={:#x}", e.a),
        EventKind::DbResumed => format!("durable_lsn={:#x}", e.a),
        EventKind::SessionParked => format!("conn={} seq={}", e.a, e.b),
        EventKind::SessionResumed => format!("conn={} waited_us={}", e.a, e.b),
        EventKind::TwoPcPrepare => format!("shard={} cstamp={:#x}", e.a, e.b),
        EventKind::TwoPcDecide => {
            format!("gtid={:#x} {}", e.a, if e.b == 1 { "commit" } else { "abort" })
        }
        EventKind::TwoPcResolve => {
            let verdict = if e.b & 1 == 1 { "committed" } else { "aborted" };
            let by = if e.b & 2 == 0 { "verdict record" } else { "prepare count" };
            format!("gtid={:#x} {verdict} by {by}", e.a)
        }
        EventKind::ReplSegmentShipped => format!("offset={:#x} bytes={}", e.a, e.b),
        EventKind::ReplApplied => format!("applied={:#x} blocks={}", e.a, e.b),
        EventKind::Recovery => format!("scanned_bytes={} built={}", e.a, e.b),
        EventKind::AcceptShed => format!("errno={} shed={}", e.a, e.b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_is_bounded_and_readable() {
        let fr = FlightRecorder::new(32);
        let ring = fr.ring();
        for i in 0..100 {
            ring.record(EventKind::TxnCommit, i, i * 2);
        }
        ring.record(EventKind::LogStall, 250, 0);
        let dump = fr.dump(8);
        assert!(dump.contains("log-stall"), "dump: {dump}");
        assert!(dump.lines().count() <= 9, "header + at most 8 events");
        fr.store_last_dump(dump.clone());
        assert_eq!(fr.last_dump().as_deref(), Some(dump.as_str()));
    }

    #[test]
    fn retire_removes_the_ring_from_dumps() {
        let fr = FlightRecorder::new(8);
        let ring = fr.ring();
        ring.record(EventKind::GcPass, 7, 1);
        assert!(fr.dump(16).contains("gc-pass"));
        fr.retire(&ring);
        assert_eq!(fr.ring_count(), 0);
        assert!(!fr.dump(16).contains("gc-pass"));
    }
}
