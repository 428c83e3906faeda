//! Span bookkeeping for the traced run.
//!
//! Harness spans (recorded here, around each call into a layer) and
//! server spans (fetched with `Client::dump_traces`) land in one table on
//! one clock — the database tracer's — so a traced request is a single
//! tree: `client.request` → {`client.send`, server `request` → {engine
//! spans}}. A layer's figure is its spans' *self* time: duration minus
//! the part covered by child spans. The self time of `client.request` is
//! therefore what no layer accounts for — kernel, wake-ups, reply decode
//! — and is reported as a number rather than hidden.

use std::collections::{BTreeMap, HashMap, HashSet};

use ermia_telemetry::Span;

use crate::stats::median;

#[derive(Clone, Debug)]
pub struct Rec {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    /// Groups the spans of one traced operation.
    pub trace: u64,
    /// Thread lane for the Chrome view (0 = harness, else server ring).
    pub lane: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Work units covered (rows of a scan); per-unit figures divide by it.
    pub units: u64,
}

#[derive(Default)]
pub struct Recorder {
    pub recs: Vec<Rec>,
    next_id: u64,
    seen_server: HashSet<u64>,
}

impl Recorder {
    /// A fresh harness span id (server ids carry a ring number ≥ 1 in
    /// their top 16 bits, so the two spaces never meet).
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        trace: u64,
        start_ns: u64,
        end_ns: u64,
        units: u64,
    ) {
        self.recs.push(Rec {
            name,
            id,
            parent,
            trace,
            lane: 0,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            units: units.max(1),
        });
    }

    /// Fold a server span dump in, keeping only spans of traces the
    /// harness started (`wanted`: trace_lo → harness trace key).
    pub fn absorb_server(&mut self, spans: &[Span], wanted: &HashMap<(u64, u64), u64>) {
        for s in spans {
            let Some(&trace) = wanted.get(&(s.trace_hi, s.trace_lo)) else { continue };
            if !self.seen_server.insert(s.span_id) {
                continue;
            }
            let units = if s.kind.label() == "txn-scan" { s.b.max(1) } else { 1 };
            self.recs.push(Rec {
                name: s.kind.label(),
                id: s.span_id,
                parent: s.parent,
                trace,
                lane: s.ring(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                units,
            });
        }
    }

    /// Drop the traces that have no span called `name` (a traced request
    /// whose server spans were overwritten before they were fetched).
    /// Returns how many traces were dropped.
    pub fn retain_traces_with(&mut self, name: &str) -> usize {
        let all: HashSet<u64> = self.recs.iter().map(|r| r.trace).collect();
        let have: HashSet<u64> =
            self.recs.iter().filter(|r| r.name == name).map(|r| r.trace).collect();
        self.recs.retain(|r| have.contains(&r.trace));
        all.len() - have.len()
    }

    /// Per span name: the median over traces of the summed self time of
    /// that name's spans in the trace, and the median per-unit duration.
    pub fn summarize(&self) -> Summary {
        let mut child_time: HashMap<u64, u64> = HashMap::new();
        for r in &self.recs {
            if r.parent != 0 {
                *child_time.entry(r.parent).or_default() += r.dur_ns;
            }
        }
        let mut per_trace: BTreeMap<&'static str, HashMap<u64, f64>> = BTreeMap::new();
        let mut per_unit: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut root_dur: HashMap<u64, f64> = HashMap::new();
        for r in &self.recs {
            let self_ns = r.dur_ns.saturating_sub(child_time.get(&r.id).copied().unwrap_or(0));
            *per_trace.entry(r.name).or_default().entry(r.trace).or_default() += self_ns as f64;
            per_unit.entry(r.name).or_default().push(r.dur_ns as f64 / r.units as f64);
            if r.parent == 0 {
                *root_dur.entry(r.trace).or_default() += r.dur_ns as f64;
            }
        }
        let traces = root_dur.len();
        Summary {
            self_ns: per_trace
                .into_iter()
                .map(|(k, m)| (k, median(&m.into_values().collect::<Vec<_>>())))
                .collect(),
            unit_ns: per_unit.into_iter().map(|(k, v)| (k, median(&v))).collect(),
            root_ns: median(&root_dur.into_values().collect::<Vec<_>>()),
            traces,
        }
    }

    /// Chrome `trace_event` JSON (array form) of the first `max_traces`
    /// traced operations; loads in `chrome://tracing` and Perfetto.
    pub fn chrome_json(&self, max_traces: usize) -> String {
        let mut keep: Vec<u64> = self.recs.iter().map(|r| r.trace).collect();
        keep.sort_unstable();
        keep.dedup();
        keep.truncate(max_traces);
        let keep: HashSet<u64> = keep.into_iter().collect();
        let mut out = String::from("[");
        let mut first = true;
        for r in self.recs.iter().filter(|r| keep.contains(&r.trace)) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"ledger\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"trace\":{},\"span\":\"{:x}\",\"parent\":\"{:x}\"}}}}",
                r.name,
                r.start_ns as f64 / 1e3,
                r.dur_ns as f64 / 1e3,
                r.lane,
                r.trace,
                r.id,
                r.parent
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

pub struct Summary {
    /// Median per-trace self time by span name.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Median per-unit span duration by span name.
    pub unit_ns: BTreeMap<&'static str, f64>,
    /// Median duration of a trace's root span(s).
    pub root_ns: f64,
    pub traces: usize,
}

impl Summary {
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0.0)
    }

    pub fn unit_of(&self, name: &str) -> f64 {
        self.unit_ns.get(name).copied().unwrap_or(0.0)
    }

    /// Σ of the per-name median self times: what the layers (and the
    /// unattributed remainder) add up to, to hold against `root_ns`.
    pub fn self_sum(&self) -> f64 {
        self.self_ns.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_root() {
        let mut r = Recorder::default();
        for trace in 1..=3u64 {
            let root = r.next_id();
            let child = r.next_id();
            let base = trace * 1000;
            r.push("client.request", root, 0, trace, base, base + 100, 1);
            r.push("client.send", child, root, trace, base, base + 10, 1);
            let server = r.next_id();
            r.push("request", server, root, trace, base + 30, base + 70, 1);
            let read = r.next_id();
            r.push("txn-read", read, server, trace, base + 40, base + 55, 1);
        }
        let s = r.summarize();
        assert_eq!(s.traces, 3);
        assert_eq!(s.root_ns, 100.0);
        assert_eq!(s.self_of("client.request"), 50.0);
        assert_eq!(s.self_of("request"), 25.0);
        assert_eq!(s.self_of("txn-read"), 15.0);
        assert_eq!(s.self_sum(), s.root_ns);
        let v = crate::json::parse(&r.chrome_json(2)).expect("chrome trace is JSON");
        match v {
            crate::json::Value::Arr(a) => assert_eq!(a.len(), 8),
            other => panic!("not an array: {other:?}"),
        }
    }
}
