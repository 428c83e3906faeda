//! The metric registry: per-thread slabs merged on read, plus
//! read-side collector callbacks for subsystems that already keep
//! their own atomics.
//!
//! ## Slabs
//!
//! A *family* is a static table of metric descriptors. Each worker
//! thread registers one [`Slab`] per family — a cache-line-aligned
//! block of relaxed `AtomicU64` counters (and optionally
//! [`AtomicHistogram`]s) indexed by descriptor position. The hot path
//! is a single relaxed load+store on a line only that thread writes
//! (single-writer, so no RMW is needed); the registry's mutex is
//! touched only at worker create/retire and at scrape time. When a
//! worker drops, its slab's final snapshot is folded into a retained
//! per-family aggregate and the `Arc` leaves the live list, so thread
//! churn neither leaks slabs nor loses counts.
//!
//! Relaxed ordering is sound here because merged totals only need
//! *eventual* per-counter accuracy, not cross-counter consistency: the
//! reader observes each atomic at some point in its modification order
//! (atomicity is per-object, guaranteed regardless of ordering), and
//! the retire path runs after the owning thread's last increment in
//! program order, then publishes via the registry mutex
//! (release/acquire), so no increment can be lost — only a scrape that
//! races a write may be one tick stale.
//!
//! ## Collectors
//!
//! Subsystems with existing atomic stats (log, GC, epoch, pool,
//! server) register a closure that appends [`Sample`]s at scrape time.
//! That keeps their hot paths untouched while the registry stays the
//! single exposition point. Collectors register under a *group* id so
//! a component with a shorter lifetime than the database (the TCP
//! server) can unregister its closures on shutdown.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::hist::{AtomicHistogram, Histogram};

/// What a metric is, for the Prometheus `# TYPE` line and for how the
/// exposition renders it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    Counter,
    Gauge,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One metric in a family: exposition name, help text, kind, and an
/// optional fixed label pair (used e.g. to fan `ermia_txn_aborts_total`
/// out by `reason`). Descriptors sharing a `name` must agree on kind
/// and be adjacent in the table.
pub struct MetricDesc {
    pub name: &'static str,
    pub help: &'static str,
    pub kind: MetricKind,
    pub label: Option<(&'static str, &'static str)>,
}

/// A family: the counter table plus an optional histogram table. The
/// `&'static` definition doubles as the family's identity (pointer
/// equality), so registration needs no name lookup.
pub struct FamilyDef {
    pub counters: &'static [MetricDesc],
    pub hists: &'static [MetricDesc],
}

/// One thread's share of a family. 128-byte aligned so two slabs never
/// share a cache line.
#[repr(align(128))]
pub struct Slab {
    counters: Box<[AtomicU64]>,
    hists: Box<[AtomicHistogram]>,
}

impl Slab {
    /// A detached slab for `def` — not registered anywhere. Used when a
    /// worker wants the slab shape (e.g. profiling disabled but the
    /// fields still exist) without contributing to merged totals.
    pub fn new(def: &FamilyDef) -> Slab {
        Slab {
            counters: (0..def.counters.len()).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..def.hists.len()).map(|_| AtomicHistogram::new()).collect(),
        }
    }

    /// The hot-path op: one relaxed increment. Single-writer contract:
    /// only the owning worker calls `add`/`hist().record()` on its
    /// slab, so a plain load+store pair is race-free and avoids the
    /// locked RMW a `fetch_add` would cost.
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        let c = &self.counters[idx];
        c.store(c.load(Relaxed).wrapping_add(n), Relaxed);
    }

    #[inline]
    pub fn hist(&self, idx: usize) -> &AtomicHistogram {
        &self.hists[idx]
    }
}

/// One rendered data point from a collector.
pub struct Sample {
    pub name: &'static str,
    pub help: &'static str,
    pub kind: MetricKind,
    /// `key="value"` labels; the values may be dynamic.
    pub labels: Vec<(&'static str, String)>,
    pub value: f64,
}

/// One rendered histogram from a slab family.
pub(crate) struct HistSample {
    pub desc: &'static MetricDesc,
    pub labels: Vec<(&'static str, String)>,
    pub hist: Histogram,
}

impl Sample {
    pub fn counter(name: &'static str, help: &'static str, value: u64) -> Sample {
        Sample { name, help, kind: MetricKind::Counter, labels: Vec::new(), value: value as f64 }
    }

    pub fn gauge(name: &'static str, help: &'static str, value: f64) -> Sample {
        Sample { name, help, kind: MetricKind::Gauge, labels: Vec::new(), value }
    }

    pub fn labeled(mut self, key: &'static str, value: impl Into<String>) -> Sample {
        self.labels.push((key, value.into()));
        self
    }
}

type Collector = Arc<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

struct Family {
    def: &'static FamilyDef,
    live: Vec<Arc<Slab>>,
    retired_counters: Vec<u64>,
    retired_hists: Vec<Histogram>,
}

impl Family {
    fn merged(&self) -> (Vec<u64>, Vec<Histogram>) {
        let mut counters = self.retired_counters.clone();
        let mut hists = self.retired_hists.clone();
        for slab in &self.live {
            for (i, c) in slab.counters.iter().enumerate() {
                counters[i] += c.load(Relaxed);
            }
            for (i, h) in slab.hists.iter().enumerate() {
                hists[i].merge(&h.snapshot());
            }
        }
        (counters, hists)
    }
}

#[derive(Default)]
struct RegInner {
    families: Vec<Family>,
    collectors: Vec<(u64, Collector)>,
    next_group: u64,
}

/// The process-wide metric registry (one per `Database`).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegInner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a fresh slab for `def` and hand it to the calling
    /// worker. The returned `Arc` is the worker's to write; the
    /// registry keeps the other reference for merging.
    pub fn register_slab(&self, def: &'static FamilyDef) -> Arc<Slab> {
        let slab = Arc::new(Slab::new(def));
        let mut inner = self.inner.lock().unwrap();
        match inner.families.iter_mut().find(|f| std::ptr::eq(f.def, def)) {
            Some(f) => f.live.push(slab.clone()),
            None => inner.families.push(Family {
                def,
                live: vec![slab.clone()],
                retired_counters: vec![0; def.counters.len()],
                retired_hists: vec![Histogram::new(); def.hists.len()],
            }),
        }
        slab
    }

    /// Fold `slab`'s final counts into the family's retained aggregate
    /// and drop it from the live set. Called from worker `Drop`; after
    /// this the owner must not write the slab again (the `Arc` may
    /// linger, but its counts have been claimed).
    pub fn retire_slab(&self, def: &'static FamilyDef, slab: &Arc<Slab>) {
        let mut inner = self.inner.lock().unwrap();
        let Some(f) = inner.families.iter_mut().find(|f| std::ptr::eq(f.def, def)) else {
            return;
        };
        let Some(pos) = f.live.iter().position(|s| Arc::ptr_eq(s, slab)) else {
            return;
        };
        f.live.swap_remove(pos);
        for (i, c) in slab.counters.iter().enumerate() {
            f.retired_counters[i] += c.load(Relaxed);
        }
        for (i, h) in slab.hists.iter().enumerate() {
            f.retired_hists[i].merge(&h.snapshot());
        }
    }

    /// Merged (live + retired) counter totals for a family, in
    /// descriptor order. Empty if no slab ever registered.
    pub fn family_counters(&self, def: &'static FamilyDef) -> Vec<u64> {
        let inner = self.inner.lock().unwrap();
        inner
            .families
            .iter()
            .find(|f| std::ptr::eq(f.def, def))
            .map(|f| f.merged().0)
            .unwrap_or_else(|| vec![0; def.counters.len()])
    }

    /// Merged histogram totals for a family, in descriptor order.
    pub fn family_hists(&self, def: &'static FamilyDef) -> Vec<Histogram> {
        let inner = self.inner.lock().unwrap();
        inner
            .families
            .iter()
            .find(|f| std::ptr::eq(f.def, def))
            .map(|f| f.merged().1)
            .unwrap_or_else(|| vec![Histogram::new(); def.hists.len()])
    }

    /// Number of live (unretired) slabs for a family.
    pub fn live_slabs(&self, def: &'static FamilyDef) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.families.iter().find(|f| std::ptr::eq(f.def, def)).map(|f| f.live.len()).unwrap_or(0)
    }

    /// Allocate a collector group id (for later `unregister_group`).
    pub fn group(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.next_group += 1;
        inner.next_group
    }

    pub fn register_collector(
        &self,
        group: u64,
        f: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static,
    ) {
        self.inner.lock().unwrap().collectors.push((group, Arc::new(f)));
    }

    pub fn unregister_group(&self, group: u64) {
        self.inner.lock().unwrap().collectors.retain(|(g, _)| *g != group);
    }

    /// Everything registered, as data: slab families merged, then the
    /// collectors run — outside the lock, so a collector may read the
    /// registry it is registered on.
    fn scrape(&self) -> (Vec<Sample>, Vec<HistSample>) {
        let mut samples: Vec<Sample> = Vec::new();
        let mut hists: Vec<HistSample> = Vec::new();
        let collectors: Vec<Collector> = {
            let inner = self.inner.lock().unwrap();
            for f in &inner.families {
                let (counters, merged) = f.merged();
                for (d, v) in f.def.counters.iter().zip(counters) {
                    samples.push(Sample {
                        name: d.name,
                        help: d.help,
                        kind: d.kind,
                        labels: d.label.map(|(k, v)| (k, v.to_string())).into_iter().collect(),
                        value: v as f64,
                    });
                }
                for (desc, hist) in f.def.hists.iter().zip(merged) {
                    hists.push(HistSample { desc, labels: Vec::new(), hist });
                }
            }
            inner.collectors.iter().map(|(_, c)| Arc::clone(c)).collect()
        };
        for c in collectors {
            c(&mut samples);
        }
        (samples, hists)
    }

    /// Render the whole registry as Prometheus text exposition
    /// (version 0.0.4): slab families first, then collector samples,
    /// grouped by metric name with one `# HELP`/`# TYPE` pair each.
    pub fn render(&self) -> String {
        Registry::render_merged(&[self], "")
    }

    /// Render several registries (one per engine shard, at least one) as
    /// one exposition. A metric that a registry after the first yields is
    /// one every registry has: its samples carry `key="<index>"`. What
    /// only the first yields (it also hosts whatever is process-wide)
    /// stays bare, as does everything when there is one registry.
    pub fn render_merged(registries: &[&Registry], key: &'static str) -> String {
        let scrapes: Vec<_> = registries.iter().map(|r| r.scrape()).collect();
        let shared: HashSet<&str> = scrapes[1..]
            .iter()
            .flat_map(|(s, h)| s.iter().map(|s| s.name).chain(h.iter().map(|h| h.desc.name)))
            .collect();
        let mut samples = Vec::new();
        let mut hists = Vec::new();
        for (i, (mut s, mut h)) in scrapes.into_iter().enumerate() {
            for s in s.iter_mut().filter(|s| shared.contains(s.name)) {
                s.labels.push((key, i.to_string()));
            }
            for h in h.iter_mut().filter(|h| shared.contains(h.desc.name)) {
                h.labels.push((key, i.to_string()));
            }
            samples.append(&mut s);
            hists.append(&mut h);
        }
        crate::prom::render(&samples, &hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_FAMILY: FamilyDef = FamilyDef {
        counters: &[
            MetricDesc {
                name: "test_ops_total",
                help: "ops",
                kind: MetricKind::Counter,
                label: None,
            },
            MetricDesc {
                name: "test_errs_total",
                help: "errs",
                kind: MetricKind::Counter,
                label: Some(("kind", "io")),
            },
        ],
        hists: &[MetricDesc {
            name: "test_lat_ns",
            help: "latency",
            kind: MetricKind::Counter,
            label: None,
        }],
    };

    #[test]
    fn register_write_retire_keeps_totals() {
        let reg = Registry::new();
        let a = reg.register_slab(&TEST_FAMILY);
        let b = reg.register_slab(&TEST_FAMILY);
        a.add(0, 5);
        b.add(0, 7);
        b.add(1, 2);
        a.hist(0).record(100);
        assert_eq!(reg.family_counters(&TEST_FAMILY), vec![12, 2]);
        assert_eq!(reg.live_slabs(&TEST_FAMILY), 2);
        reg.retire_slab(&TEST_FAMILY, &a);
        assert_eq!(reg.live_slabs(&TEST_FAMILY), 1);
        // Retired counts are retained.
        assert_eq!(reg.family_counters(&TEST_FAMILY), vec![12, 2]);
        assert_eq!(reg.family_hists(&TEST_FAMILY)[0].count(), 1);
        // Double-retire is a no-op.
        reg.retire_slab(&TEST_FAMILY, &a);
        assert_eq!(reg.family_counters(&TEST_FAMILY), vec![12, 2]);
    }

    #[test]
    fn concurrent_churn_loses_nothing_and_bounds_the_live_set() {
        let reg = Arc::new(Registry::new());
        let threads = 8;
        let rounds = 50;
        let per_round = 100u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        let slab = reg.register_slab(&TEST_FAMILY);
                        for _ in 0..per_round {
                            slab.add(0, 1);
                            slab.hist(0).record(42);
                        }
                        reg.retire_slab(&TEST_FAMILY, &slab);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = threads as u64 * rounds as u64 * per_round;
        assert_eq!(reg.family_counters(&TEST_FAMILY)[0], expected, "no lost counts");
        assert_eq!(reg.family_hists(&TEST_FAMILY)[0].count(), expected);
        assert_eq!(reg.live_slabs(&TEST_FAMILY), 0, "churn must not grow the live set");
    }

    #[test]
    fn collector_groups_unregister() {
        let reg = Registry::new();
        let g = reg.group();
        reg.register_collector(g, |out| out.push(Sample::gauge("test_g", "g", 1.0)));
        assert!(reg.render().contains("test_g 1"));
        reg.unregister_group(g);
        assert!(!reg.render().contains("test_g"));
    }

    #[test]
    fn merged_render_labels_what_every_registry_yields() {
        let (first, second) = (Registry::new(), Registry::new());
        first.register_slab(&TEST_FAMILY).add(0, 5);
        let slab = second.register_slab(&TEST_FAMILY);
        slab.add(1, 2);
        slab.hist(0).record(9);
        first.register_collector(0, |out| out.push(Sample::gauge("test_only_first", "g", 1.0)));
        let text = Registry::render_merged(&[&first, &second], "shard");
        let exp = crate::parse_exposition(&text).expect("one TYPE per metric");
        assert_eq!(exp.value("test_only_first"), Some(1.0));
        assert_eq!(exp.value_with("test_ops_total", "shard", "0"), Some(5.0));
        assert_eq!(exp.sum("test_ops_total", None), Some(5.0));
        assert_eq!(exp.sum("test_errs_total", Some(("kind", "io"))), Some(2.0));
        assert!(text.contains("test_errs_total{kind=\"io\",shard=\"1\"} 2"), "{text}");
        assert!(text.contains("test_lat_ns_bucket{le=\"16\",shard=\"1\"} 1"), "{text}");
        assert!(text.contains("test_lat_ns_count{shard=\"0\"} 0"), "{text}");
        // One registry renders bare.
        let alone = Registry::render_merged(&[&second], "shard");
        assert!(alone.contains("test_errs_total{kind=\"io\"} 2"), "{alone}");
    }
}
