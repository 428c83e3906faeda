//! The three wire workloads. The server runs in-process on loopback with
//! `ServerConfig { shards: 1, worker_capacity: 2 }`; one client thread,
//! one connection (the host has two vCPUs).
//!
//! * `wire_point_read` — CPU-bound service path, read-only: autocommitted
//!   `Get` on uniform keys of a 100k-row × 64 B table. Frame codec, event
//!   loop, worker checkout, read-only begin/commit, index probe; the log
//!   and flusher are bypassed.
//! * `wire_sync_write` — wait-bound durable write path, one shard:
//!   `Batch { sync: true }` of 4 puts on the same table. Log reserve/copy,
//!   group commit, `commit_deferred` and the durability tiers; no 2PC.
//! * `wire_2pc` — wait-bound, cross-shard: two engine shards,
//!   `Batch { sync: true }` of 2 puts whose keys are salted onto different
//!   shards and carry the same value. Prepare/decide/finalize and their
//!   serial durability rounds.
//!
//! All three log to the modelled device (see `device.rs`) with
//! `LogConfig { fsync: true, flush_interval: 200 µs }`.
//!
//! The capacity phase is a closed loop of windows: send [`PIPELINE`]
//! requests, flush, take the [`PIPELINE`] replies, repeat (see
//! [`windows`]). Client and server therefore never compete for a core —
//! at any instant one of them is waiting for the other.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ermia::{Database, DbConfig, IsolationLevel, ShardedDb, TableId};
use ermia_log::{FileBackend, LogConfig};
use ermia_server::{BatchOp, Client, Request, Response, Server, ServerConfig, WireIsolation};
use ermia_telemetry::parse_spans;

use crate::device::ModelDevice;
use crate::gen::{fill_value, key, salt_for_shard, value_matches, value_version, Rng, KEY_LEN};
use crate::run::{counter_metrics, timed_setups, Outcome, Plan, Snap, PIPELINE};
use crate::spans::Recorder;
use crate::stats::{iqr_share, median, percentile_sorted, sorted};

pub const ROWS: u64 = 100_000;
const VALUE_LEN: usize = 64;
const TABLE: &str = "rows";
const TAG: &[u8; 4] = b"rows";
/// One request in this many is traced in the traced phase; server spans
/// are fetched every `DUMP_EVERY` traced requests, before the 1024-slot
/// span rings can wrap.
const TRACE_SAMPLE: u64 = 16;
const DUMP_EVERY: usize = 48;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PointRead,
    SyncWrite,
    TwoPc,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PointRead => "wire_point_read",
            Kind::SyncWrite => "wire_sync_write",
            Kind::TwoPc => "wire_2pc",
        }
    }

    fn engine_shards(self) -> usize {
        if self == Kind::TwoPc {
            2
        } else {
            1
        }
    }

    /// Keys written by one transaction.
    fn puts(self) -> usize {
        match self {
            Kind::PointRead => 0,
            Kind::SyncWrite => 4,
            Kind::TwoPc => 2,
        }
    }
}

/// Key salts: zero, except that `wire_2pc` routes even ids to shard 0 and
/// odd ids to shard 1, so pair `p` = ids `(2p, 2p+1)` always spans both.
fn salts(kind: Kind) -> Vec<u32> {
    match kind {
        Kind::TwoPc => (0..ROWS).map(|id| salt_for_shard(TAG, id, (id % 2) as usize, 2)).collect(),
        _ => vec![0; ROWS as usize],
    }
}

/// The id whose `(id, version)` the row's value is derived from: the row
/// itself, or the pair for `wire_2pc` (both halves carry the same value).
fn value_id(kind: Kind, id: u64) -> u64 {
    if kind == Kind::TwoPc {
        id / 2
    } else {
        id
    }
}

fn db_config(dir: &Path, device: Option<&ModelDevice>) -> DbConfig {
    let mut cfg = DbConfig::durable(dir);
    cfg.log = LogConfig {
        dir: Some(dir.to_path_buf()),
        fsync: device.is_some(),
        flush_interval: Duration::from_micros(200),
        io_factory: match device {
            Some(d) => Arc::new(d.clone()),
            None => Arc::new(FileBackend),
        },
        ..LogConfig::default()
    };
    cfg
}

/// Everything a run drives: engine, server, the one client connection.
struct Rig {
    kind: Kind,
    table: u32,
    // Dropped in this order: connection, then server, then engine.
    client: Client,
    server: Server,
    sdb: ShardedDb,
    device: ModelDevice,
}

impl Rig {
    fn shards(&self) -> Vec<Database> {
        (0..self.sdb.shards()).map(|i| self.sdb.shard(i).clone()).collect()
    }
}

/// Open + load + server start + connect: what `setup_s` times.
fn setup(kind: Kind, dir: &Path, salts: &[u32]) -> Rig {
    std::fs::create_dir_all(dir).expect("run directory");
    let device = ModelDevice::default();
    let sdb = ShardedDb::open(db_config(dir, Some(&device)), kind.engine_shards())
        .expect("database opens");
    let table = sdb.create_table(TABLE);
    load(kind, &sdb, table, salts);
    let server = Server::start_sharded(
        &sdb,
        "127.0.0.1:0",
        ServerConfig { shards: 1, worker_capacity: 2, ..ServerConfig::default() },
    )
    .expect("server binds loopback");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let table = client.open_table(TABLE).expect("table opens");
    Rig { kind, device, sdb, server, client, table }
}

/// Load every row at version 0, in single-shard transactions of 1 000
/// rows, then wait once for the log to be durable.
fn load(kind: Kind, sdb: &ShardedDb, table: TableId, salts: &[u32]) {
    let mut w = sdb.register_worker();
    let mut value = [0u8; VALUE_LEN];
    let shards = kind.engine_shards() as u64;
    for shard in 0..shards {
        let ids: Vec<u64> = (0..ROWS).filter(|id| id % shards == shard).collect();
        for chunk in ids.chunks(1000) {
            let mut tx = w.begin(IsolationLevel::Snapshot);
            for &id in chunk {
                fill_value(&mut value, value_id(kind, id), 0);
                tx.insert(table, &key(TAG, id, salts[id as usize]), &value).expect("load insert");
            }
            tx.commit_deferred().expect("load commit");
        }
    }
    drop(w);
    for i in 0..sdb.shards() {
        sdb.shard(i).log().sync().expect("load becomes durable");
    }
}

/// What a request, once answered, tells the client model.
enum Pending {
    Read { id: u64 },
    Write { slot: u64, version: u32, durable: bool },
}

/// The seeded request stream plus the client's model of the database:
/// per row (or pair), the last version sent and the last version whose
/// durable commit was acknowledged.
pub struct Gen {
    kind: Kind,
    rng: Rng,
    table: u32,
    salts: Vec<u32>,
    sent: Vec<u32>,
    acked: Vec<u32>,
    pending: VecDeque<Pending>,
    /// Attempts are counted only while set (the measured phases).
    measuring: bool,
    attempted: u64,
    /// Key + value bytes of committed puts.
    user_bytes: u64,
}

impl Gen {
    pub fn new(kind: Kind, seed: u64, table: u32, salts: Vec<u32>) -> Gen {
        let slots = if kind == Kind::TwoPc { ROWS / 2 } else { ROWS } as usize;
        Gen {
            kind,
            rng: Rng::new(seed),
            table,
            salts,
            sent: vec![0; slots],
            acked: vec![0; slots],
            pending: VecDeque::new(),
            measuring: false,
            attempted: 0,
            user_bytes: 0,
        }
    }

    fn key(&self, id: u64) -> Vec<u8> {
        key(TAG, id, self.salts[id as usize]).to_vec()
    }

    fn put(&mut self, id: u64, slot: u64, version: u32) -> BatchOp {
        let mut value = vec![0u8; VALUE_LEN];
        fill_value(&mut value, slot, version as u64);
        BatchOp::Put { table: self.table, key: self.key(id), value }
    }

    /// The next request of the stream. `durable` selects `sync` commits.
    pub fn next(&mut self, durable: bool) -> Request {
        self.attempted += self.measuring as u64;
        match self.kind {
            Kind::PointRead => {
                let id = self.rng.below(ROWS);
                self.pending.push_back(Pending::Read { id });
                Request::Get { table: self.table, key: self.key(id) }
            }
            Kind::SyncWrite => {
                let mut ops = Vec::with_capacity(4);
                let mut ids = [u64::MAX; 4];
                for i in 0..4 {
                    let mut id = self.rng.below(ROWS);
                    while ids[..i].contains(&id) {
                        id = self.rng.below(ROWS);
                    }
                    ids[i] = id;
                    self.sent[id as usize] += 1;
                    let version = self.sent[id as usize];
                    ops.push(self.put(id, id, version));
                    self.pending.push_back(Pending::Write { slot: id, version, durable });
                }
                Request::Batch { isolation: WireIsolation::Snapshot, sync: durable, ops }
            }
            Kind::TwoPc => {
                let pair = self.rng.below(ROWS / 2);
                self.sent[pair as usize] += 1;
                let version = self.sent[pair as usize];
                let ops =
                    vec![self.put(2 * pair, pair, version), self.put(2 * pair + 1, pair, version)];
                self.pending.push_back(Pending::Write { slot: pair, version, durable });
                Request::Batch { isolation: WireIsolation::Snapshot, sync: durable, ops }
            }
        }
    }

    /// Hold a reply against the model. `true` iff the transaction
    /// committed; failures are recorded by type, wrong answers fail the
    /// run's oracle.
    fn settle(&mut self, resp: Response, out: &mut Outcome) -> bool {
        // One model entry per row written; a pair is one entry.
        let entries = if self.kind == Kind::SyncWrite { 4 } else { 1 };
        let mine: Vec<Pending> = self.pending.drain(..entries).collect();
        let failure = match &resp {
            Response::Busy => Some("Busy".to_string()),
            Response::Error { code, .. } => Some(format!("{code:?}")),
            Response::BatchDone { outcome, .. } => match &**outcome {
                Response::Committed { .. } => None,
                Response::Error { code, .. } => Some(format!("{code:?}")),
                other => Some(format!("unexpected outcome {other:?}")),
            },
            _ => None,
        };
        if let Some(kind) = failure {
            if self.measuring {
                out.fail(kind, 1);
            }
            return false;
        }
        match (&mine[0], resp) {
            (Pending::Read { id }, Response::Value { value }) => {
                if !value.as_deref().is_some_and(|v| value_matches(v, *id, 0)) {
                    out.wrong(format!(
                        "Get of row {id} did not return the value derived from its key"
                    ));
                }
            }
            (Pending::Write { .. }, Response::BatchDone { results, .. }) => {
                if results.len() != self.kind.puts()
                    || !results.iter().all(|r| matches!(r, Response::Done { existed: true }))
                {
                    out.wrong(format!(
                        "batch reply {results:?} is not {} overwrites",
                        self.kind.puts()
                    ));
                }
                for p in &mine {
                    if let Pending::Write { slot, version, durable: true } = p {
                        let a = &mut self.acked[*slot as usize];
                        *a = (*a).max(*version);
                    }
                }
                self.user_bytes += (self.kind.puts() * (KEY_LEN + VALUE_LEN)) as u64;
            }
            (_, other) => out.wrong(format!("reply of the wrong kind: {other:?}")),
        }
        true
    }
}

/// Fingerprint of the first `n` generated requests for `seed`.
#[cfg(test)]
pub fn op_stream_hash(kind: Kind, seed: u64, n: usize) -> u64 {
    let mut g = Gen::new(kind, seed, 0, salts(kind));
    let mut h = crate::gen::StreamHash::default();
    for _ in 0..n {
        format!("{:?}", g.next(true)).bytes().for_each(|b| h.push(b as u64));
    }
    h.0
}

const IO: &str = "connection to the in-process server";

/// One request outstanding for `dur`; pushes each commit's latency.
fn singles(rig: &mut Rig, gen: &mut Gen, dur: Duration, out: &mut Outcome, lat_ns: &mut Vec<f64>) {
    let start = Instant::now();
    while start.elapsed() < dur {
        let req = gen.next(true);
        let t0 = Instant::now();
        let resp = rig.client.call(&req).expect(IO);
        let t1 = Instant::now();
        if gen.settle(resp, out) {
            lat_ns.push(t1.duration_since(t0).as_nanos() as f64);
        }
    }
}

/// How long a write window's opener travels alone.
const STAGGER: Duration = Duration::from_micros(100);

/// Closed loop of [`PIPELINE`]-request windows for `dur`: send a window,
/// flush, take its replies. Returns the number of commits.
///
/// A window of writes is staggered: its first request goes out alone and
/// the other fifteen follow [`STAGGER`] later. The flusher wakes at the
/// first commit it sees; with sixteen commits arriving in one burst on
/// one CPU, whether that first flush carries one of them or all sixteen
/// is a scheduler race (measured: 1.30-1.35 flushes per window, rate IQR
/// 6-14 % between runs). Staggered, the first flush always carries the
/// opener and the second the other fifteen, which execute while the first
/// is in flight: a window is two flushes whatever the CPU does.
fn windows(rig: &mut Rig, gen: &mut Gen, dur: Duration, durable: bool, out: &mut Outcome) -> u64 {
    let mut committed = 0;
    let start = Instant::now();
    let staggered = rig.kind.puts() > 0;
    while start.elapsed() < dur {
        for i in 0..PIPELINE {
            rig.client.send(&gen.next(durable)).expect(IO);
            if i == 0 && staggered {
                rig.client.flush().expect(IO);
                std::thread::sleep(STAGGER);
            }
        }
        rig.client.flush().expect(IO);
        for _ in 0..PIPELINE {
            let resp = rig.client.recv().expect(IO);
            committed += gen.settle(resp, out) as u64;
        }
    }
    committed
}

/// What the measured period yields. Latency and capacity are measured
/// in alternating sub-slices of every second, so each figure samples the
/// whole period and a disturbed stretch of the host cannot swallow one
/// of them whole.
#[derive(Default)]
struct Measured {
    lat_ns: Vec<f64>,
    lat_secs: f64,
    /// Device `sync_data` calls during the latency sub-slices.
    lat_syncs: u64,
    /// Commits per second of each capacity sub-slice.
    slice_rates: Vec<f64>,
    cap_commits: u64,
    cap_cpu_us: u64,
    backlog_max: u64,
}

fn measure(rig: &mut Rig, gen: &mut Gen, plan: &Plan, out: &mut Outcome) -> Measured {
    let mut m = Measured::default();
    let slices = (plan.latency + plan.capacity).as_secs_f64().round().max(1.0) as u32;
    let (lat_slice, cap_slice) = (plan.latency / slices, plan.capacity / slices);
    for _ in 0..slices {
        let syncs = rig.device.counters().syncs;
        let t0 = Instant::now();
        singles(rig, gen, lat_slice, out, &mut m.lat_ns);
        m.lat_secs += t0.elapsed().as_secs_f64();
        m.lat_syncs += rig.device.counters().syncs - syncs;

        let cpu = crate::host::cpu_time_us();
        let t0 = Instant::now();
        let commits = windows(rig, gen, cap_slice, true, out);
        m.slice_rates.push(commits as f64 / t0.elapsed().as_secs_f64());
        m.cap_cpu_us += crate::host::cpu_time_us() - cpu;
        m.cap_commits += commits;

        let pending = (0..rig.sdb.shards()).map(|i| rig.sdb.shard(i).epoch_stats().pending).sum();
        m.backlog_max = m.backlog_max.max(pending);
    }
    m
}

pub fn run(kind: Kind, plan: &Plan) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let run_dir = crate::run::scratch_root().join(format!(
        "{}-{}-{}",
        kind.name(),
        plan.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    let salts = salts(kind);

    let (mut rig, setup_s) =
        timed_setups(plan.setups, |i| setup(kind, &run_dir.join(format!("setup-{i}")), &salts));
    let live_dir = run_dir.join(format!("setup-{}", plan.setups.max(1) - 1));
    let shards = rig.shards();
    let mut gen = Gen::new(kind, plan.seed, rig.table, salts);

    // Warm-up, discarded.
    windows(&mut rig, &mut gen, plan.warm, true, &mut out);

    gen.measuring = true;
    let user_bytes_before = gen.user_bytes;
    let before = Snap::take(&shards, Some(&rig.device));
    let m = measure(&mut rig, &mut gen, plan, &mut out);
    let after = Snap::take(&shards, Some(&rig.device));
    gen.measuring = false;

    let committed = m.lat_ns.len() as u64 + m.cap_commits;
    let lat = sorted(&m.lat_ns);
    out.attempted = gen.attempted;
    if out.attempted != committed + out.failed {
        out.wrong(format!(
            "attempted {} != committed {committed} + failed {}",
            out.attempted, out.failed
        ));
    }
    out.end_to_end.insert("txn_per_s", median(&m.slice_rates));
    out.end_to_end.insert("txn_p50_us", median(&m.lat_ns) / 1e3);
    out.end_to_end.insert("setup_s", setup_s);
    out.per_layer.insert("cpu_us_per_txn", m.cap_cpu_us as f64 / m.cap_commits.max(1) as f64);
    out.notes.push(format!(
        "{} slices: {} latency samples in {:.1} s; {} capacity commits in {:.1} s ({PIPELINE} per window)",
        m.slice_rates.len(),
        lat.len(),
        m.lat_secs,
        m.cap_commits,
        plan.capacity.as_secs_f64(),
    ));
    out.notes.push(format!(
        "capacity commits/s per slice: {:?}",
        m.slice_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));

    let pl = &mut out.per_layer;
    counter_metrics(&before, &after, committed, gen.user_bytes - user_bytes_before, pl);
    pl.insert("client.txn_p99_us", percentile_sorted(&lat, 99.0) / 1e3);
    pl.insert("client.rate_iqr_pct", 100.0 * iqr_share(&m.slice_rates));
    pl.insert("epoch.deferred_backlog_max", m.backlog_max as f64);
    pl.insert("log.durability_rounds_per_txn", m.lat_syncs as f64 / lat.len().max(1) as f64);

    if plan.trace {
        traced_phase(&mut rig, &mut gen, plan, lat.len() as f64 / m.lat_secs.max(1e-9), &mut out);
    }

    drop(shards);
    if kind == Kind::PointRead {
        drop(rig);
    } else {
        crash_and_verify(rig, &mut gen, &live_dir, &mut out);
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    out
}

/// The latency loop again, with one request in [`TRACE_SAMPLE`] traced:
/// harness spans around the client calls, server and engine spans
/// fetched with `Client::dump_traces`.
fn traced_phase(rig: &mut Rig, gen: &mut Gen, plan: &Plan, untraced_rate: f64, out: &mut Outcome) {
    let clock = Arc::clone(rig.sdb.telemetry().tracer());
    let mut rec = Recorder::default();
    let mut wanted: HashMap<(u64, u64), u64> = HashMap::new();
    let mut since_dump = 0usize;
    let fetch = |client: &mut Client, rec: &mut Recorder, wanted: &HashMap<(u64, u64), u64>| {
        let text = client.dump_traces(0).expect(IO);
        rec.absorb_server(&parse_spans(&text).expect("server renders parseable spans"), wanted);
    };
    let start = Instant::now();
    let (mut n, mut commits) = (0u64, 0u64);
    while start.elapsed() < plan.traced {
        n += 1;
        let req = gen.next(true);
        let resp = if n.is_multiple_of(TRACE_SAMPLE) {
            let root = rec.next_id();
            let send = rec.next_id();
            let ctx = rig.client.start_trace();
            // Parent the server's request span under the harness span.
            rig.client.set_trace(Some(ctx.child(root)));
            wanted.insert((ctx.trace_hi, ctx.trace_lo), root);
            let t0 = clock.now_ns();
            rig.client.send(&req).expect(IO);
            let t1 = clock.now_ns();
            rig.client.clear_trace();
            let resp = rig.client.recv().expect(IO);
            let t2 = clock.now_ns();
            rec.push("client.request", root, 0, root, t0, t2, 1);
            rec.push("client.send", send, root, root, t0, t1, 1);
            since_dump += 1;
            resp
        } else {
            rig.client.call(&req).expect(IO)
        };
        commits += gen.settle(resp, out) as u64;
        if since_dump >= DUMP_EVERY {
            since_dump = 0;
            fetch(&mut rig.client, &mut rec, &wanted);
        }
    }
    let traced_rate = commits as f64 / start.elapsed().as_secs_f64();
    fetch(&mut rig.client, &mut rec, &wanted);
    let dropped = rec.retain_traces_with("request");
    let s = rec.summarize();
    let pl = &mut out.per_layer;
    pl.insert("client.encode_ns", s.unit_of("client.send"));
    pl.insert("server.frame_decode_ns", s.unit_of("frame-decode"));
    pl.insert("server.run_queue_ns", s.unit_of("run-queue"));
    pl.insert("server.worker_checkout_ns", s.unit_of("worker-checkout"));
    pl.insert("server.request_self_ns", s.self_of("request"));
    pl.insert("server.net_rtt_residual_ns", s.self_of("client.request"));
    pl.insert("core.begin_ns", s.unit_of("txn-begin"));
    pl.insert("core.read_ns", s.unit_of("txn-read"));
    pl.insert("core.write_ns", s.unit_of("txn-write"));
    pl.insert("core.scan_row_ns", s.unit_of("txn-scan"));
    pl.insert("core.commit_ns", s.unit_of("commit-deferred"));
    pl.insert("core.durability_wait_ns", s.self_of("durability-wait"));
    pl.insert("core.2pc_prepare_ns", s.self_of("2pc-prepare"));
    pl.insert("core.2pc_decide_ns", s.unit_of("2pc-decide"));
    pl.insert("core.2pc_finalize_ns", s.unit_of("2pc-finalize"));
    pl.insert(
        "telemetry.trace_overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate.max(1.0),
    );

    let parts: Vec<String> = s.self_ns.iter().map(|(name, ns)| format!("{name} {ns:.0}")).collect();
    out.notes.push(format!(
        "reconciliation ({} traced, {dropped} without server spans): Σ self times [{}] = {:.0} ns vs client round trip {:.0} ns ({:+.1} %)",
        s.traces,
        parts.join(" + "),
        s.self_sum(),
        s.root_ns,
        100.0 * (s.self_sum() - s.root_ns) / s.root_ns.max(1.0)
    ));
    crate::write_trace(&rec, rig.kind.name(), out);
}

/// Windows sent at most before the power is cut regardless.
const CRASH_WINDOWS: usize = 64;

/// Durability check. A window of writes is sent and half its replies are
/// read; with the rest still executing, the power is cut at an instant
/// when the device holds bytes written but not flushed (device frozen,
/// those ranges zeroed). The directory is reopened on the plain file
/// backend and recovered. Every row must hold a value derived from its
/// key at a version between the last durably acknowledged and the last
/// sent, and the halves of every `wire_2pc` pair must agree.
///
/// `wire_sync_write` sends non-sync batches here: they are answered before
/// their flush, so bytes are in flight when replies arrive. A cross-shard
/// commit flushes its prepare and decide rounds before it answers, so
/// `wire_2pc` sends sync batches — the acks read before the cut raise the
/// lower bound — and the cut lands inside the next transaction's rounds.
fn crash_and_verify(mut rig: Rig, gen: &mut Gen, dir: &Path, out: &mut Outcome) {
    let kind = rig.kind;
    let durable = kind == Kind::TwoPc;
    let mut cut = false;
    'windows: for _ in 0..CRASH_WINDOWS {
        for _ in 0..PIPELINE {
            rig.client.send(&gen.next(durable)).expect(IO);
        }
        rig.client.flush().expect(IO);
        for i in 0..PIPELINE {
            if i >= PIPELINE / 2 && rig.device.freeze_if_dirty() {
                cut = true;
                break 'windows;
            }
            let resp = rig.client.recv().expect(IO);
            gen.settle(resp, out);
        }
    }
    if !cut {
        rig.device.freeze();
    }
    let log_bytes: u64 = (0..rig.sdb.shards()).map(|i| rig.sdb.shard(i).log().next_offset()).sum();
    let Rig { device, sdb, server, client, .. } = rig;
    drop(client);
    server.shutdown();
    drop(server);
    drop(sdb);
    let lost = device.crash().expect("zeroing un-flushed ranges");
    if lost == 0 {
        out.wrong(format!(
            "the power cut found no un-flushed byte in {CRASH_WINDOWS} windows: the crash model was not exercised"
        ));
    }

    let t0 = Instant::now();
    let sdb = ShardedDb::open(db_config(dir, None), kind.engine_shards())
        .expect("crashed directory reopens");
    let table = sdb.create_table(TABLE);
    let stats = sdb.recover().expect("recovery succeeds");
    let recover_s = t0.elapsed().as_secs_f64();
    out.per_layer.insert("core.recover_s", recover_s);
    out.per_layer.insert("core.recover_mb_per_s", log_bytes as f64 / 1e6 / recover_s);

    let mut w = sdb.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    let mut versions = vec![0u64; ROWS as usize];
    let mut bad = 0u64;
    for id in 0..ROWS {
        let slot = value_id(kind, id);
        let read = tx
            .read(table, &key(TAG, id, gen.salts[id as usize]), |v| {
                value_version(v).filter(|&ver| value_matches(v, slot, ver))
            })
            .expect("recovered read");
        let (lo, hi) = (gen.acked[slot as usize] as u64, gen.sent[slot as usize] as u64);
        match read.flatten() {
            Some(ver) if (lo..=hi).contains(&ver) => versions[id as usize] = ver,
            _ => bad += 1,
        }
    }
    tx.commit().expect("read-only commit");
    if bad > 0 {
        out.wrong(format!("{bad} rows lost an acknowledged write or hold a value no client wrote"));
    }
    if kind == Kind::TwoPc {
        let torn = versions.chunks(2).filter(|p| p[0] != p[1]).count();
        if torn > 0 {
            out.wrong(format!("{torn} cross-shard pairs recovered non-atomically"));
        }
    }
    let replayed: u64 = stats.per_shard.iter().map(|s| s.replayed_records).sum();
    out.notes.push(format!(
        "durability: crashed with {lost} un-flushed bytes zeroed; recovered {replayed} records in {recover_s:.3} s ({} in-doubt 2PC resolved); {} of {ROWS} rows hold an acknowledged-or-later value{}",
        stats.resolved_commits + stats.resolved_aborts,
        ROWS - bad,
        if kind == Kind::TwoPc { ", pairs compared for atomicity" } else { "" }
    ));
}
