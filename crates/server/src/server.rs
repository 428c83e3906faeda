//! The TCP server: shard fleet, admission control, graceful shutdown.
//!
//! The service layer is event-driven: [`ServerConfig::shards`] event
//! loops (see [`crate::session`]) multiplex every connection over epoll,
//! so OS threads scale with shards, one thread each that also waits its
//! parked commits out — never with connections. Shard 0 owns the
//! non-blocking listener. Admission control happens at two levels:
//!
//! 1. **Connection count** — beyond [`ServerConfig::max_sessions`] the
//!    accepting shard writes a single [`Response::Busy`] frame and
//!    closes; the connection never enters an event loop.
//! 2. **Open transactions** — a `Begin` that finds
//!    [`ServerConfig::worker_capacity`] interactive transactions open
//!    gets `Busy` for that request and keeps the connection. Every
//!    transaction, interactive or one-shot, runs on its loop's own
//!    worker; an interactive one is a value between its frames, so only
//!    this count bounds them.
//!
//! Shutdown is cooperative and wake-fd driven: [`Server::shutdown`]
//! raises a flag and rings every shard's event fd. Shards close the
//! listener, serve a short quiet window so frames already flushed by
//! clients still get replies — including sync commits whose group-commit
//! flush is in flight — then abort what remains and drain outbound
//! queues before closing.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ermia::ShardedDb;
use ermia_telemetry::{Sample, SpanRing};

use crate::poll::WakeFd;
use crate::protocol::MAX_FRAME_LEN;
use crate::session::run_shard;

/// Tunables for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent connections admitted before the acceptor sheds load.
    pub max_sessions: usize,
    /// Event-loop shards multiplexing the admitted connections.
    pub shards: usize,
    /// How many interactive transactions may be open at once, over all
    /// sessions (a session holds at most one). Each runs on its event
    /// loop's own worker, like a one-shot transaction.
    pub worker_capacity: usize,
    /// Replies buffered per connection before the server stops reading
    /// from it (backpressure toward the client that stops reading).
    pub reply_queue_depth: usize,
    /// Largest accepted frame (guards allocation on untrusted input).
    pub max_frame_len: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        let max_sessions = 1024;
        ServerConfig {
            max_sessions,
            shards: cores.min(8),
            worker_capacity: max_sessions,
            reply_queue_depth: 128,
            max_frame_len: MAX_FRAME_LEN,
        }
    }
}

/// Monotonic per-server counters; read via [`Server::stats`].
#[derive(Default)]
pub(crate) struct Stats {
    pub sessions_opened: AtomicU64,
    pub sessions_closed: AtomicU64,
    pub active_sessions: AtomicUsize,
    /// `Busy` answers, by [`BusyReason`].
    pub busy_rejects: [AtomicU64; BusyReason::LABELS.len()],
    pub protocol_errors: AtomicU64,
    pub frames_processed: AtomicU64,
    pub commits: AtomicU64,
    pub disconnect_aborts: AtomicU64,
    /// Interactive transactions open now, bounded by
    /// [`ServerConfig::worker_capacity`].
    pub open_txns: AtomicUsize,
    /// Replies currently sitting in per-connection outbound queues
    /// (summed across sessions; the telemetry reply-queue-depth gauge).
    pub queued_replies: AtomicUsize,
}

/// Why a connection or a request was answered `Busy`.
#[derive(Clone, Copy)]
pub(crate) enum BusyReason {
    /// `max_sessions` connections are open.
    Sessions,
    /// A `Begin` found `worker_capacity` interactive transactions open.
    OpenTransactions,
    /// The process is out of descriptors (`EMFILE`/`ENFILE`).
    FdLimit,
}

impl BusyReason {
    const LABELS: [&'static str; 3] = ["sessions", "open-txns", "fd-limit"];
}

impl Stats {
    /// Count one `Busy` answer; returns how many `why` has had.
    pub fn busy(&self, why: BusyReason) -> u64 {
        self.busy_rejects[why as usize].fetch_add(1, Ordering::Relaxed) + 1
    }

    fn busy_total(&self) -> u64 {
        self.busy_rejects.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }
}

/// A point-in-time copy of the server counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsSnapshot {
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub active_sessions: usize,
    pub busy_rejects: u64,
    pub protocol_errors: u64,
    pub frames_processed: u64,
    pub commits: u64,
    pub disconnect_aborts: u64,
    /// Interactive transactions open now.
    pub open_txns: usize,
}

/// Per-shard occupancy and churn counters.
#[derive(Default)]
pub(crate) struct ShardStats {
    /// Connections currently owned by this shard.
    pub sessions: AtomicUsize,
    /// Times the shard's epoll wait returned.
    pub epoll_wakeups: AtomicU64,
    /// Writes that could not complete in one syscall.
    pub partial_writes: AtomicU64,
}

/// Cross-thread surface of one shard: how the accepting shard, the logs
/// its parked commits wait on, and `Server::shutdown` reach its event
/// loop.
pub(crate) struct ShardHandle {
    /// Rings the shard's epoll wait.
    pub wake: Arc<WakeFd>,
    /// Connections handed over by the accepting shard.
    pub inbox: Mutex<Vec<TcpStream>>,
    /// Record ring of the shard thread: its service events (parked and
    /// resumed sessions, log incidents, shipped chunks, accept sheds on
    /// shard 0) and the spans of traced requests (frame decode,
    /// durability wait, request).
    pub ring: Arc<SpanRing>,
    pub stats: ShardStats,
}

/// Shared between the shards and the handle.
pub(crate) struct ServerState {
    pub db: ShardedDb,
    pub cfg: ServerConfig,
    pub shutdown: AtomicBool,
    pub stats: Stats,
    pub shards: Vec<ShardHandle>,
    /// Collector group in the database's registry; unregistered at
    /// shutdown.
    telemetry_group: u64,
}

impl ServerState {
    /// How long a commit may wait for durability before its client is
    /// told `LogStalled`: the engine logs' one patience,
    /// `LogConfig::wait_durable_timeout` (every shard's log is opened
    /// from the same config).
    pub fn patience(&self) -> Duration {
        self.db.shard(0).log().config().wait_durable_timeout
    }
}

/// A running server; dropping it shuts it down.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    threads: Mutex<Option<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections against `db`. Session requests route by
    /// key; the wire protocol does not depend on the shard count.
    pub fn start_sharded(db: &ShardedDb, addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shard_count = cfg.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shards.push(ShardHandle {
                wake: Arc::new(WakeFd::new()?),
                inbox: Mutex::new(Vec::new()),
                ring: db.telemetry().tracer().ring(),
                stats: ShardStats::default(),
            });
        }
        let telemetry_group = db.telemetry().registry().group();
        let state = Arc::new(ServerState {
            db: db.clone(),
            cfg,
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            shards,
            telemetry_group,
        });
        // Weak: the registry lives inside the database the state holds,
        // so a strong capture would cycle and leak both.
        let weak = Arc::downgrade(&state);
        db.telemetry().registry().register_collector(telemetry_group, move |out| {
            if let Some(s) = weak.upgrade() {
                collect_server(&s, out);
            }
        });
        let mut threads = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let shard_state = Arc::clone(&state);
            let shard_listener = if i == 0 { Some(listener.try_clone()?) } else { None };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ermia-shard-{i}"))
                    .spawn(move || run_shard(shard_state, i, shard_listener))?,
            );
        }
        drop(listener); // shard 0 holds the only remaining handle
        Ok(Server { state, addr: local, threads: Mutex::new(Some(threads)) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.state.stats;
        StatsSnapshot {
            sessions_opened: s.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: s.sessions_closed.load(Ordering::Relaxed),
            active_sessions: s.active_sessions.load(Ordering::Relaxed),
            busy_rejects: s.busy_total(),
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
            frames_processed: s.frames_processed.load(Ordering::Relaxed),
            commits: s.commits.load(Ordering::Relaxed),
            disconnect_aborts: s.disconnect_aborts.load(Ordering::Relaxed),
            open_txns: s.open_txns.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, wake every shard, and wait for them to finish —
    /// including draining queued sync-commit replies. Idempotent.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
        // Deregister this server's share of the telemetry surface. Both
        // calls are idempotent, matching this method.
        let telemetry = self.state.db.telemetry();
        telemetry.registry().unregister_group(self.state.telemetry_group);
        for shard in &self.state.shards {
            telemetry.tracer().retire(&shard.ring);
        }
        // Every shard blocks in epoll_wait; its event fd gets it moving.
        for shard in &self.state.shards {
            shard.wake.wake();
        }
        if let Some(threads) = self.threads.lock().unwrap().take() {
            for h in threads {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Emit the service-layer samples (server counters, queue depth, shard
/// occupancy, open transactions) into a registry render.
fn collect_server(state: &ServerState, out: &mut Vec<Sample>) {
    let s = &state.stats;
    let c = |name, help, v: &AtomicU64| Sample::counter(name, help, v.load(Ordering::Relaxed));
    out.push(c(
        "ermia_server_sessions_opened_total",
        "Connections accepted and given a session thread.",
        &s.sessions_opened,
    ));
    out.push(c(
        "ermia_server_sessions_closed_total",
        "Session threads that have finished.",
        &s.sessions_closed,
    ));
    out.push(Sample::counter(
        "ermia_server_busy_rejects_total",
        "Connections or requests shed by admission control.",
        s.busy_total(),
    ));
    for (why, n) in BusyReason::LABELS.into_iter().zip(&s.busy_rejects) {
        let help = "Connections or requests shed, by why.";
        out.push(c("ermia_server_busy_by_reason_total", help, n).labeled("reason", why));
    }
    out.push(c(
        "ermia_server_protocol_errors_total",
        "Malformed frames / protocol-state violations observed.",
        &s.protocol_errors,
    ));
    out.push(c(
        "ermia_server_frames_processed_total",
        "Request frames decoded and dispatched.",
        &s.frames_processed,
    ));
    out.push(c(
        "ermia_server_commits_total",
        "Transactions committed on behalf of clients.",
        &s.commits,
    ));
    out.push(c(
        "ermia_server_disconnect_aborts_total",
        "Open transactions aborted because the client vanished.",
        &s.disconnect_aborts,
    ));
    out.push(Sample::gauge(
        "ermia_server_active_sessions",
        "Currently connected sessions.",
        s.active_sessions.load(Ordering::Relaxed) as f64,
    ));
    out.push(Sample::gauge(
        "ermia_server_reply_queue_depth",
        "Replies queued toward clients across all sessions.",
        s.queued_replies.load(Ordering::Relaxed) as f64,
    ));
    out.push(Sample::gauge(
        "ermia_server_shards",
        "Event-loop shards multiplexing connections.",
        state.shards.len() as f64,
    ));
    let shard_sessions_help = "Connections currently owned by the shard.";
    let wakeups_help = "Times the shard's epoll wait returned.";
    let partial_help = "Reply writes that could not complete in one syscall.";
    for (i, sh) in state.shards.iter().enumerate() {
        let label = i.to_string();
        out.push(
            Sample::gauge(
                "ermia_server_shard_sessions",
                shard_sessions_help,
                sh.stats.sessions.load(Ordering::Relaxed) as f64,
            )
            .labeled("shard", label.clone()),
        );
        out.push(
            Sample::counter(
                "ermia_server_epoll_wakeups_total",
                wakeups_help,
                sh.stats.epoll_wakeups.load(Ordering::Relaxed),
            )
            .labeled("shard", label.clone()),
        );
        out.push(
            Sample::counter(
                "ermia_server_partial_writes_total",
                partial_help,
                sh.stats.partial_writes.load(Ordering::Relaxed),
            )
            .labeled("shard", label),
        );
    }
    out.push(Sample::gauge(
        "ermia_server_open_txns",
        "Interactive transactions open now.",
        s.open_txns.load(Ordering::Relaxed) as f64,
    ));
    out.push(Sample::gauge(
        "ermia_server_open_txns_limit",
        "Interactive transactions that may be open at once (worker_capacity).",
        state.cfg.worker_capacity as f64,
    ));
}
