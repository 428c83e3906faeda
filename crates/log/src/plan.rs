//! The flusher's decisions, without the flusher.
//!
//! Everything about group commit that depends on *time* — when a device
//! sync starts, and which prefix a completion acknowledges — is decided
//! here, over plain numbers: no clock, no atomics, no locks, no threads,
//! no I/O. [`crate::flusher`] is the driver: once per turn of its loop it
//! reads the ring and the clock into a [`Snapshot`], asks [`Plan::next`]
//! what to do, and tells the plan what it did ([`Plan::issue`]) and what
//! its helpers report ([`Plan::complete`]); what becomes durable, and in
//! which order, is what [`Plan::publish_next`] hands back.
//!
//! The rules are the two tables in the flusher's module docs ("When a
//! sync starts", "What a completion publishes"). The unit tests below are
//! those tables, row by row, with numbers for time; a seeded property
//! test holds the invariants over random interleavings.

use std::collections::VecDeque;

use crate::manager::SyncCause;

/// Device syncs one log keeps in flight at most; also the divisor of the
/// stagger gap. Swept once at 2 / 4 / 8 on the ledger's gated workloads
/// (`results/ledger/PR-17.md`): the finer the stagger, the sooner
/// the last commits of a burst get their sync started, and the more
/// batches — one `pwrite` and one sync each — a burst is cut into. At 2
/// a burst that outlasts the one free slot waits a whole latency for the
/// next; 8 buys 2–7 % over 4 for a third more write syscalls.
pub(crate) const MAX_SYNCS_IN_FLIGHT: usize = 4;

/// One look at the ring and the clock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Snapshot {
    /// Nanoseconds on the driver's clock; only differences matter.
    pub now_ns: u64,
    /// End of the contiguous filled prefix.
    pub filled: u64,
    /// The ring's space watermark.
    pub flushed: u64,
    pub capacity: u64,
    /// Highest offset a durability waiter has registered for.
    pub demand_hi: u64,
    /// Highest offset of a settled demand.
    pub urged: u64,
}

/// What the writer does next with the filled prefix `[written, filled)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Next {
    /// Write it and start its sync now.
    Start(SyncCause),
    /// Somebody waits for it, but not before this instant (`None`: not
    /// before a completion); `true` if a settled demand arriving
    /// meanwhile may start one sooner.
    Pace(Option<u64>, bool),
    /// Nothing is filled, or nothing anybody waits for while a sync is
    /// in flight: wait for fills, waiters or a completion. `true` if no
    /// sync is in flight, so only the interval timer bounds the wait.
    Wait(bool),
}

/// The sync of the ticket in this board slot failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Failed(pub usize);

/// The oldest outstanding ticket, complete.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Published {
    /// How long its device sync took, if it owed one.
    pub sync_ns: Option<u64>,
    /// `[lo, hi)` is durable — or its sync failed.
    pub range: Result<(u64, u64), Failed>,
}

/// A batch that is written and owes a device sync — or owed none.
#[derive(Debug)]
struct Ticket {
    lo: u64,
    hi: u64,
    /// The board cell a helper posts this ticket's result to: unique
    /// among the tickets outstanding.
    slot: usize,
    synced: bool,
    /// `Some` once the sync has returned (at once, when there was nothing
    /// to sync): whether it succeeded, and how long it took.
    done: Option<(bool, u64)>,
}

/// The writer's position, the tickets in issue order, and the self-clock.
#[derive(Debug)]
pub(crate) struct Plan {
    /// End of the prefix handed to the segment files.
    written: u64,
    /// Issued and not yet published, oldest first; never more than
    /// [`MAX_SYNCS_IN_FLIGHT`].
    tickets: VecDeque<Ticket>,
    /// Tickets ever issued; `issued % MAX_SYNCS_IN_FLIGHT` is the next
    /// ticket's board slot.
    issued: u64,
    /// The self-clock: when the last sync was handed off, and how long
    /// the last published one took (`None` until one has).
    last_start_ns: u64,
    last_sync_ns: Option<u64>,
    /// A sync has failed: nothing more is published.
    failed: bool,
}

impl Plan {
    pub(crate) fn new(written: u64) -> Plan {
        Plan {
            written,
            tickets: VecDeque::with_capacity(MAX_SYNCS_IN_FLIGHT),
            issued: 0,
            last_start_ns: 0,
            last_sync_ns: None,
            failed: false,
        }
    }

    pub(crate) fn written(&self) -> u64 {
        self.written
    }

    /// Tickets whose sync went to the device and that are not yet
    /// published.
    pub(crate) fn in_flight(&self) -> usize {
        self.tickets.iter().filter(|t| t.synced).count()
    }

    /// Is a ticket still waiting for its sync to return?
    pub(crate) fn awaits_completion(&self) -> bool {
        self.tickets.iter().any(|t| t.done.is_none())
    }

    /// A settled demand may start a sync only while it leaves a slot
    /// free: the last one stays on the clock.
    fn urgeable(&self) -> bool {
        self.tickets.len() + 2 <= MAX_SYNCS_IN_FLIGHT
    }

    /// The start rule (the flusher's module docs, "When a sync starts").
    pub(crate) fn next(&self, s: Snapshot) -> Next {
        let idle = self.in_flight() == 0;
        if s.filled == self.written {
            return Next::Wait(idle);
        }
        if self.tickets.len() == MAX_SYNCS_IN_FLIGHT {
            return Next::Pace(None, false);
        }
        let urged = s.urged > self.written;
        // A quarter of the ring unflushed is demand too — a writer is
        // about to wait for space — and it is the threshold above which
        // `mark_filled` wakes the flusher on every fill.
        let demanded =
            s.demand_hi > self.written || urged || s.filled - s.flushed >= s.capacity / 4;
        if !demanded {
            // Bytes nobody waits for start no sync while one is in
            // flight. Idle, they go as soon as the flusher sees them:
            // when the interval timer wakes it, or on its way back from
            // the completion that left the log idle.
            return if idle { Next::Start(SyncCause::Timer) } else { Next::Wait(false) };
        }
        if idle {
            return Next::Start(SyncCause::Idle);
        }
        if urged && self.urgeable() {
            return Next::Start(SyncCause::Demand);
        }
        // The self-clock: starts one [`MAX_SYNCS_IN_FLIGHT`]-th of the
        // last measured sync latency apart. Until one has been measured
        // there is no gap to keep, so no second sync either.
        let Some(sync_ns) = self.last_sync_ns else { return Next::Pace(None, self.urgeable()) };
        let due = self.last_start_ns + sync_ns / MAX_SYNCS_IN_FLIGHT as u64;
        if due <= s.now_ns {
            Next::Start(SyncCause::Clock)
        } else {
            Next::Pace(Some(due), self.urgeable())
        }
    }

    /// `[written, hi)` is in the segment files: it becomes a ticket whose
    /// sync was handed off at `now_ns` — or, with `synced` false, owed
    /// none and is complete as it stands. Returns the ticket's board slot.
    pub(crate) fn issue(&mut self, hi: u64, synced: bool, now_ns: u64) -> usize {
        debug_assert!(hi > self.written && self.tickets.len() < MAX_SYNCS_IN_FLIGHT);
        let slot = (self.issued % MAX_SYNCS_IN_FLIGHT as u64) as usize;
        self.issued += 1;
        let lo = std::mem::replace(&mut self.written, hi);
        let done = (!synced).then_some((true, 0));
        self.tickets.push_back(Ticket { lo, hi, slot, synced, done });
        if synced {
            self.last_start_ns = now_ns;
        }
        slot
    }

    /// The sync of the ticket in `slot` returned after `ns`.
    pub(crate) fn complete(&mut self, slot: usize, ok: bool, ns: u64) {
        let ticket = self.tickets.iter_mut().find(|t| t.slot == slot);
        let ticket = ticket.expect("a completion names an outstanding ticket");
        debug_assert!(ticket.done.is_none(), "a sync returns once");
        ticket.done = Some((ok, ns));
    }

    /// Take the oldest outstanding ticket if it is complete: tickets are
    /// published in issue order, so a later sync that finishes first
    /// acknowledges nothing early. After a failed one, nothing is.
    pub(crate) fn publish_next(&mut self) -> Option<Published> {
        if self.failed {
            return None;
        }
        let (ok, ns) = self.tickets.front()?.done?;
        let Ticket { lo, hi, slot, synced, .. } =
            self.tickets.pop_front().expect("front was just read");
        if synced {
            self.last_sync_ns = Some(ns);
        }
        self.failed = !ok;
        let range = if ok { Ok((lo, hi)) } else { Err(Failed(slot)) };
        Some(Published { sync_ns: synced.then_some(ns), range })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use ermia_common::rng::SplitMix64;

    use super::*;
    use Next::{Pace, Start, Wait};
    use SyncCause::{Clock, Demand, Idle, Timer};

    const CAP: u64 = 64 << 10;
    /// The device of the ledger: 2 ms a sync, so starts 500 µs apart.
    const L: u64 = 2_000_000;
    const G: u64 = L / MAX_SYNCS_IN_FLIGHT as u64;

    /// A plan that has written up to `written` and has `out` tickets in
    /// the device, the last handed off at `last_start`.
    fn plan(written: u64, out: usize, last_start: u64, measured: Option<u64>) -> Plan {
        let mut plan = Plan::new(written - out as u64);
        for i in 0..out {
            plan.issue(written - (out - 1 - i) as u64, true, last_start);
        }
        plan.last_sync_ns = measured;
        plan
    }

    // The rows of "When a sync starts", by their first, second and last cell.
    const ASKED: [&str; 3] = ["none", "a target or a settled demand", "`idle`"];
    const UNASKED: [&str; 3] = ["none", "nobody", "`timer`"];
    const BEHIND: [&str; 3] = ["≥ 1", "nobody", "—"];
    const SETTLED: [&str; 3] = ["≥ 1, two slots free", "a settled demand", "`demand`"];
    const PACED: [&str; 3] =
        ["≥ 1", "a target only, or a settled demand for the last free slot", "`clock`"];
    const FULL: [&str; 3] = ["`MAX_SYNCS_IN_FLIGHT`", "anybody", "—"];

    /// row, case | the plan: written, tickets out, last start, latency
    /// measured | the snapshot: now, filled, highest target, highest
    /// settled demand | the answer. Times in ns, offsets in bytes.
    type Case = ([&'static str; 3], &'static str, (u64, usize, u64, Option<u64>), [u64; 4], Next);

    #[rustfmt::skip]
    const STARTS: &[Case] = &[
        (ASKED, "a registered target", (0, 0, 0, None), [0, 64, 64, 0], Start(Idle)),
        (ASKED, "a settled demand", (0, 0, 0, None), [0, 64, 0, 64], Start(Idle)),
        (ASKED, "a quarter of the ring counts as a demand", (0, 0, 0, None), [0, CAP / 4, 0, 0], Start(Idle)),
        (ASKED, "the serial flusher: one request, its sync out, nothing more filled", (64, 1, 10, Some(L)), [20, 64, 64, 0], Wait(false)),
        (ASKED, "the serial flusher: idle again, the next request starts at once", (64, 0, 10, Some(L)), [L + 50, 128, 128, 0], Start(Idle)),
        (UNASKED, "nothing filled: sleep out the interval", (64, 0, 0, Some(L)), [L, 64, 64, 64], Wait(true)),
        (UNASKED, "the interval timer finds an unforced tail", (0, 0, 0, None), [200_000, 64, 0, 0], Start(Timer)),
        (UNASKED, "just short of a quarter of the ring", (0, 0, 0, None), [0, CAP / 4 - 32, 0, 0], Start(Timer)),
        (UNASKED, "on the way back from the completion that left the log idle", (64, 0, 0, Some(L)), [L, 256, 64, 64], Start(Timer)),
        (BEHIND, "an unforced record gets no sync of its own", (64, 1, 0, Some(L)), [10, 128, 64, 0], Wait(false)),
        (BEHIND, "however long ago the last one started", (64, 1, 0, Some(L)), [10 * L, 192, 64, 64], Wait(false)),
        (BEHIND, "nor on a clock that has measured nothing", (64, 1, 0, None), [10 * L, 192, 64, 64], Wait(false)),
        (SETTLED, "before the stagger instant", (64, 1, 0, Some(L)), [10_000, 128, 128, 128], Start(Demand)),
        (SETTLED, "with two in flight", (128, 2, 10_000, Some(L)), [20_000, 192, 0, 192], Start(Demand)),
        (SETTLED, "on a clock that has measured nothing", (64, 1, 0, None), [10, 128, 0, 128], Start(Demand)),
        (PACED, "a target behind a sync in flight, a timer's or anybody's: one gap after its start", (64, 1, 1_000, Some(L)), [2_000, 128, 128, 0], Pace(Some(1_000 + G), true)),
        (PACED, "one nanosecond short, more filled", (64, 1, 1_000, Some(L)), [999 + G, 192, 192, 0], Pace(Some(1_000 + G), true)),
        (PACED, "due: over everything filled by then", (64, 1, 1_000, Some(L)), [1_000 + G, 256, 256, 0], Start(Clock)),
        (PACED, "one-commit turns: the third demand would take the last slot, and waits, deaf to the next", (192, 3, 400, Some(L)), [600, 256, 0, 256], Pace(Some(400 + G), false)),
        (PACED, "one-commit turns: thirteen more, and the clock takes them all", (192, 3, 400, Some(L)), [400 + G, 1024, 0, 1024], Start(Clock)),
        (PACED, "a cold log starts no second sync before a completion", (32, 1, 0, None), [10 * L, 1056, 1056, 0], Pace(None, true)),
        (PACED, "a cold log, the last slot", (96, 3, 0, None), [10 * L, 1056, 1056, 1056], Pace(None, false)),
        (FULL, "no fifth sync, due or demanded", (256, 4, 0, Some(L)), [L, 320, 320, 320], Pace(None, false)),
        (FULL, "nor for a quarter of the ring", (256, 4, 0, Some(L)), [L, 256 + CAP / 4, 0, 0], Pace(None, false)),
    ];

    /// A sync in this board slot returns, `Ok` or not; or: `publish_next`
    /// answers this.
    enum Step {
        Done(usize, bool),
        Pub(Option<Result<(u64, u64), Failed>>),
    }
    use Step::{Done, Pub};

    /// The rows of "What a completion publishes", each over three
    /// tickets `[0, 1)`, `[1, 2)`, `[2, 3)` in slots 0, 1, 2.
    #[rustfmt::skip]
    const PUBLISHES: &[([&str; 3], &[Step])] = &[
        (["the oldest ticket outstanding", "`Ok`", "it, and every completed ticket behind it, in issue order"],
         &[Pub(None), Done(0, true), Pub(Some(Ok((0, 1)))), Pub(None), Done(1, true), Pub(Some(Ok((1, 2)))), Pub(None)]),
        (["a later ticket", "`Ok`", "nothing, until every ticket before it has completed"],
         &[Done(2, true), Pub(None), Done(0, true), Pub(Some(Ok((0, 1)))), Pub(None), Done(1, true), Pub(Some(Ok((1, 2)))), Pub(Some(Ok((2, 3)))), Pub(None)]),
        (["any ticket", "an error", "what completed `Ok` before it, then nothing more, whatever the tickets behind it report"],
         &[Done(2, true), Done(1, false), Pub(None), Done(0, true), Pub(Some(Ok((0, 1)))), Pub(Some(Err(Failed(1)))), Pub(None)]),
    ];

    /// Every case of every row; all that fail are named, not the first.
    #[test]
    fn the_tables_hold_row_by_row() {
        let mut failed = Vec::new();
        for &(
            row,
            case,
            (written, out, last_start, measured),
            [now_ns, filled, demand_hi, urged],
            want,
        ) in STARTS
        {
            let snapshot =
                Snapshot { now_ns, filled, flushed: written, capacity: CAP, demand_hi, urged };
            let got = plan(written, out, last_start, measured).next(snapshot);
            if got != want {
                failed.push(format!("row {row:?}, case \"{case}\": {got:?}, not {want:?}"));
            }
        }
        for (row, steps) in PUBLISHES {
            let mut plan = plan(3, 3, 0, None);
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Done(slot, ok) => plan.complete(slot, ok, L),
                    Pub(want) => {
                        let got = plan.publish_next().map(|p| p.range);
                        if got != want {
                            failed.push(format!("row {row:?}, step {i}: {got:?}, not {want:?}"));
                            break;
                        }
                    }
                }
            }
        }
        assert!(failed.is_empty(), "{} cases fail:\n{}", failed.len(), failed.join("\n"));
    }

    /// The rows above are the rows of the module docs: every row of the
    /// two tables in `flusher.rs` has a case here, and every case quotes
    /// a row that is there (first cell, second cell, last cell).
    #[test]
    fn the_tables_are_the_ones_in_the_flusher_docs() {
        let lines: Vec<&str> =
            include_str!("flusher.rs").lines().filter_map(|l| l.strip_prefix("//! |")).collect();
        let heads_a_table = |i: usize| lines.get(i + 1).is_some_and(|next| next.starts_with("---"));
        let documented: BTreeSet<[&str; 3]> = (0..lines.len())
            .filter(|&i| !lines[i].starts_with("---") && !heads_a_table(i))
            .map(|i| {
                let cells: Vec<&str> =
                    lines[i].trim_end_matches('|').split(" | ").map(str::trim).collect();
                [cells[0], cells[1], cells[cells.len() - 1]]
            })
            .collect();
        let tested: BTreeSet<[&str; 3]> =
            STARTS.iter().map(|c| c.0).chain(PUBLISHES.iter().map(|p| p.0)).collect();
        assert_eq!(documented, tested);
    }

    // --- random interleavings -------------------------------------------------

    /// A ring, a clock and a device around one plan.
    struct Model {
        plan: Plan,
        rng: SplitMix64,
        /// `flushed` is the end of the published prefix.
        ring: Snapshot,
        /// Board slots whose sync is in the device.
        in_device: Vec<usize>,
        failed: bool,
    }

    impl Model {
        /// One turn of the flusher's loop — publish, decide, act — with
        /// the invariants checked on the way.
        fn turn(&mut self) -> Result<(), String> {
            while let Some(Published { range, .. }) = self.plan.publish_next() {
                match range {
                    _ if self.failed => return Err(format!("{range:?} behind a failed ticket")),
                    Ok((lo, hi)) if lo == self.ring.flushed && lo < hi => self.ring.flushed = hi,
                    Ok(range) => {
                        return Err(format!("{range:?} published at {}", self.ring.flushed))
                    }
                    Err(Failed(_)) => self.failed = true,
                }
            }
            // A failed sync ends the flusher: nothing more is started.
            let (false, Start(cause)) = (self.failed, self.plan.next(self.ring)) else {
                return Ok(());
            };
            let (ring, written) = (self.ring, self.plan.written);
            let (out, busy) = (self.plan.tickets.len(), self.plan.in_flight() > 0);
            let asked = ring.demand_hi > written
                || ring.urged > written
                || ring.filled - ring.flushed >= CAP / 4;
            // Idle, everything filled goes; behind a sync in flight only
            // what somebody waits for — by a settled demand while that
            // leaves a slot free, by the clock once it has a latency to
            // go by.
            let allowed = match cause {
                Idle => !busy && asked,
                Timer => !busy && !asked,
                Demand => busy && ring.urged > written && out + 2 <= MAX_SYNCS_IN_FLIGHT,
                Clock => busy && asked && self.plan.last_sync_ns.is_some(),
            };
            if !allowed || out == MAX_SYNCS_IN_FLIGHT || ring.filled <= written {
                return Err(format!("Start({cause:?}) with {out} tickets out, asked {asked}"));
            }
            // Now and then a batch of dead zones only: nothing to sync.
            let synced = self.rng.below(16) != 0;
            let slot = self.plan.issue(ring.filled, synced, ring.now_ns);
            if synced {
                self.in_device.push(slot);
            }
            Ok(())
        }

        /// Some sync in the device returns.
        fn complete(&mut self, ok: bool) {
            if !self.in_device.is_empty() {
                let at = self.rng.below(self.in_device.len() as u64) as usize;
                let ns = self.rng.below(2 * L);
                self.plan.complete(self.in_device.swap_remove(at), ok, ns);
            }
        }
    }

    fn run(seed: u64) -> Result<(), String> {
        let mut rng = SplitMix64::new(seed);
        let (may_fail, steps) = (rng.below(3) == 0, rng.below(300));
        let ring =
            Snapshot { now_ns: 0, filled: 0, flushed: 0, capacity: CAP, demand_hi: 0, urged: 0 };
        let mut m = Model { plan: Plan::new(0), rng, ring, in_device: Vec::new(), failed: false };
        for step in 0..steps {
            let ring = &mut m.ring;
            match m.rng.below(5) {
                0 => {
                    let room = ring.flushed + CAP - ring.filled;
                    ring.filled += (32 * (1 + m.rng.below(CAP / 128))).min(room);
                }
                // A waiter registers — for filled bytes, or for a block
                // above a hole; a turn ends likewise.
                1 => ring.demand_hi = ring.demand_hi.max(m.rng.below(ring.filled + 64)),
                2 => ring.urged = ring.urged.max(m.rng.below(ring.filled + 64)),
                3 => {
                    let ok = !(may_fail && m.rng.below(8) == 0);
                    m.complete(ok);
                }
                _ => ring.now_ns += m.rng.below(L / 2),
            }
            m.turn().map_err(|why| format!("step {step}: {why}"))?;
        }
        // Liveness: no more fills; completions and the passing of time
        // alone publish everything filled (or the failure).
        for _ in 0..8 * MAX_SYNCS_IN_FLIGHT {
            m.turn().map_err(|why| format!("draining: {why}"))?;
            if m.failed || (m.ring.flushed == m.ring.filled && m.plan.tickets.is_empty()) {
                return Ok(());
            }
            match m.plan.next(m.ring) {
                _ if !m.in_device.is_empty() => m.complete(true),
                // Next turn: a start, or a ticket that owed no sync.
                Start(_) => {}
                _ if !m.plan.awaits_completion() => {}
                Pace(Some(due), _) => m.ring.now_ns = due,
                stuck => return Err(format!("draining: {stuck:?} with no sync in the device")),
            }
        }
        Err(format!("not drained: published {} of {} filled", m.ring.flushed, m.ring.filled))
    }

    /// Fill, register, urge, complete in any order (`Ok` or failed) and
    /// let time pass: at most [`MAX_SYNCS_IN_FLIGHT`] tickets out; what is
    /// published is contiguous, in order and below any failed ticket; a
    /// settled demand never takes the last slot; unforced bytes never
    /// start a sync behind one in flight; and from wherever the run ends,
    /// completions and time alone publish everything filled.
    #[test]
    fn random_interleavings_keep_the_invariants() {
        for seed in 0..2_000 {
            if let Err(why) = run(seed) {
                panic!("seed {seed}: {why} (`run({seed})` replays it)");
            }
        }
    }
}
