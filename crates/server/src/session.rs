//! Event-loop shards: thousands of sessions, a handful of threads.
//!
//! # Shape
//!
//! The server runs N shards, each a single thread around an epoll
//! [`Poller`]. A shard multiplexes every connection assigned to it:
//! non-blocking reads feed a per-connection [`FrameAssembler`]
//! (incremental decode — no blocking `read_exact`), decoded requests
//! run on the engine through the loop's own worker (below), and replies
//! flush through a bounded per-connection outbound queue with
//! write-interest-driven partial-write state. Shard 0 additionally owns
//! the (non-blocking) listener; admission control happens at accept and
//! connections are handed round-robin to the other shards through a
//! mailbox + wake fd.
//!
//! # Dispatch and the session state machine
//!
//! A session is in one of two states — between transactions, or inside
//! `Begin` … `Commit`/`Abort` — and which frames each state admits is
//! the legality column of the frame table in [`crate::protocol`], not
//! code here: `dispatch` refuses a frame illegal in the current state
//! with `BadState` and the column's text, and otherwise runs the frame's
//! one handler arm. The column is the whole state machine for every
//! frame but `Begin`, `Commit` and `Abort`, which move the session
//! between the two states. Every transaction this layer ends — an
//! interactive `Commit`, a `Batch`, an autocommitted operation (a one-op
//! batch answered with the op's own reply) — ends in `conclude`, the one
//! place a commit is counted and handed on to its reply (below).
//!
//! # Workers
//!
//! Every transaction runs on the worker the shard thread registered for
//! itself. A one-shot transaction — a `Batch`, or a single autocommitted
//! operation — begins and ends inside `dispatch`. An interactive
//! transaction (`Begin`…`Commit`/`Abort`) outlives its frame: between
//! frames the session holds it as a value ([`Interactive`], the engine's
//! `DetachedTransaction`), which holds no worker and no epoch pin, and
//! each frame resumes it on the loop's worker for that frame's operation.
//! A `Begin` that finds `worker_capacity` interactive transactions open
//! is answered `Busy` at once and keeps its connection. Every exit of an
//! open transaction — commit, abort, disconnect mid-txn, malformed frame,
//! shutdown — takes it out of the session ([`Conn::take_txn`], which
//! uncounts it) and ends it on the loop's worker.
//!
//! # Durability parker
//!
//! A commit must not pin a thread while group commit fsyncs.
//! `commit_deferred` yields a [`DeferredCommit`], the one handle this
//! layer holds on a commit in flight: published on its one engine shard
//! and awaiting one offset, or prepared on several and committed once
//! every prepare block is durable. Either waits on log offsets only
//! (`waits`).
//!
//! A commit with nothing to wait for — published, and the client did not
//! ask (`sync: false`), or occupying no log block — is answered at once.
//! Every other one gets an in-order placeholder reply and a [`ParkJob`],
//! and joins the shard thread's own engine [`Parker`] (`Parking`), the one
//! wait on the logs a blocking cross-shard commit runs too: a published one
//! when the turn ends, with the rest of its turn's; an unpublished one at
//! once, registered with its logs, whatever its `sync` flag. A later frame
//! may read one of its prepared heads and wait for a verdict only this
//! thread delivers, so the loop installs a [`VerdictHelper`] that polls
//! its parker: such a wait publishes what has landed before each sleep.
//!
//! When the turn's last frame has executed, the loop tells each log a
//! commit parked this turn waits on that the demand has *settled*
//! (`LogManager::demand_flush`, up to the highest offset `waits` named):
//! nothing more will be filled before this thread sleeps, so that log
//! starts a sync over everything filled now rather than at its next
//! stagger instant. Then the published commits join the parker, which
//! registers once per engine log, at the lowest offset still awaited
//! there, with a wake-up cell that rings the shard's wake fd. The loop
//! polls every parked commit at the end of each turn and sleeps in
//! `epoll_wait` until a log rings or the earliest deadline passes
//! (`loop_timeout`). It answers what settled in order: the replies
//! queued, then the verdict records those cross-shard commits owe
//! appended, unforced, then the sockets flushed. Verdicts are delivered
//! on a second worker the loop registers for itself: a parked commit
//! holds no worker and no epoch pin. Deadlines are absolute: enqueue time +
//! the logs' one patience, `LogConfig::wait_durable_timeout`, so
//! concurrent stalls share one window. A stalled log parks sessions, not
//! threads: the client gets the typed [`ErrorCode::LogStalled`] when the
//! window lapses — a staged commit first appends an abort verdict behind
//! its prepares and rolls both halves back ("indeterminate": a crash
//! before that verdict is durable may still commit it) — and
//! [`ErrorCode::LogFailed`] when a published commit's log fails. A
//! connection that closes leaves its parked jobs running to their
//! verdicts; their replies are dropped.
//!
//! # Shutdown
//!
//! [`Server::shutdown`](crate::Server::shutdown) raises the flag and
//! wakes every shard's event fd — no loopback connects, no read
//! timeouts. Each shard closes the listener, drains a quiet window so
//! already-flushed client frames still get served, aborts what remains
//! (`ShuttingDown` frames to open transactions), flushes outbound queues
//! — including parked commits, which its parker resolves (or aborts)
//! within that patience — and returns once no connection and no parked
//! commit is left.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ermia::{
    DbState, DeferredCommit, IsolationLevel, NodeRole, Parker, Settled, ShardedDb, ShardedWorker,
    VerdictHelper,
};
use ermia_log::DurableWaker;
use ermia_telemetry::{render_spans, Registry, SpanKind, SpanRing, TraceContext, Tracer};

use crate::conn::{
    aborted, engine_isolation, exec_op, op_target, Conn, FlushState, Interactive, Mode, Ops, Out,
    ReplConnState, TraceReq, MAX_HTTP_HEAD,
};
use crate::poll::{Event, Interest, Poller};
use crate::protocol::{
    is_traced_frame, write_frame, ErrorCode, Legal, ReplStatus, Request, Response,
};
use crate::server::{BusyReason, ServerState, ShardHandle};
use crate::sys;

/// Records a `DumpTraces` frame that asks for the server default
/// (`max == 0`) returns, sampled and always-on: also the size of the
/// dump stored when a durability incident is first observed.
const DEFAULT_DUMP: (usize, usize) = (4096, 128);

/// Quiet-window granularity for the shutdown drain: the window opens at
/// twice this and extends by this much each time in-flight frames keep
/// arriving.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// The shutdown drain's hard cap: past it, open transactions are aborted
/// and reads stop, however busy a connection still is.
const DRAIN_CAP: Duration = Duration::from_secs(2);

const TOK_WAKE: u64 = 0;
const TOK_LISTENER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The reply a parked commit turns into once its outcome is known.
enum Reply {
    /// An interactive `Commit`: the outcome itself.
    Commit,
    /// A `Batch`: the per-op results ride along into `BatchDone`.
    Batch(Vec<Response>),
    /// An autocommitted operation: its own response, if it committed.
    Auto(Response),
}

impl Reply {
    /// The failed op that ends the transaction without a commit: the
    /// last reply so far, if it is an error.
    fn failure(&self) -> Option<Response> {
        let last = match self {
            Reply::Commit => None,
            Reply::Batch(results) => results.last(),
            Reply::Auto(resp) => Some(resp),
        };
        last.filter(|r| matches!(r, Response::Error { .. })).cloned()
    }

    fn with(self, outcome: Response) -> Response {
        match self {
            Reply::Commit => outcome,
            Reply::Batch(results) => Response::BatchDone { results, outcome: Box::new(outcome) },
            Reply::Auto(resp) if matches!(outcome, Response::Committed { .. }) => resp,
            Reply::Auto(_) => outcome,
        }
    }
}

/// Whom a commit handed to the durability parker answers, and how: its
/// in-order reply slot is reserved. It travels with the commit.
struct ParkJob {
    conn: u64,
    seq: u64,
    reply: Reply,
    enqueued: Instant,
    /// Trace of the committing request; resolution records the
    /// durability-wait span and closes the request span.
    trace: Option<TraceReq>,
}

/// The commits one shard's thread parked (module docs, "Durability
/// parker"), shared by its event loop and its verdict helper.
struct Parking {
    parker: Parker<ParkJob>,
    /// Delivers the verdicts: a parked commit holds no worker.
    resolver: ShardedWorker,
    /// Published commits of the turn in progress that wait for their log
    /// block, parked when the turn ends.
    outbox: Vec<(ParkJob, DeferredCommit)>,
    /// Per engine shard, the highest log offset a commit parked this turn
    /// waits on (0: none), raised as one settled flush demand per log
    /// when the turn ends.
    flush_demand: Vec<u64>,
    /// Replies of settled commits not yet in their connections' queues:
    /// (connection, reply slot, frame).
    settled: Vec<(u64, u64, Vec<u8>)>,
}

impl Parking {
    /// An empty parking whose parker's wake-up cell rings `handle`'s wake
    /// fd: a log that lands an awaited offset wakes the event loop.
    fn new(state: &ServerState, handle: &ShardHandle) -> Parking {
        let wake = Arc::clone(&handle.wake);
        Parking {
            parker: Parker::new(&state.db, DurableWaker::ringing(move || wake.wake())),
            resolver: state.db.register_worker(),
            outbox: Vec::new(),
            flush_demand: vec![0; state.db.shards()],
            settled: Vec::new(),
        }
    }

    /// Take on a commit that waits for the logs: a published one when the
    /// turn ends, an unpublished one now, registrations and all — a later
    /// frame may wait on its prepared heads (module docs).
    fn park(&mut self, state: &ServerState, job: ParkJob, commit: DeferredCommit) {
        for (shard, end) in commit.waits() {
            self.flush_demand[shard] = self.flush_demand[shard].max(end);
        }
        if commit.published().is_some() {
            return self.outbox.push((job, commit));
        }
        self.parker.park(job.enqueued + state.patience(), job, commit);
        self.parker.arm();
    }

    /// The turn has ended: raise one settled flush demand per log a commit
    /// parked this turn waits on, park the outbox, then poll and register
    /// for what is still awaited — polling again while an offset lands
    /// before its registration. Queue each settled reply in its slot (a
    /// connection gone drops it), then append the verdict records those
    /// cross-shard commits owe: a client that asks for its trace next
    /// finds the `2pc-decide` span. The caller flushes `touched` after.
    fn end_turn(
        &mut self,
        state: &ServerState,
        ring: &SpanRing,
        conns: &mut HashMap<u64, Conn>,
        touched: &mut Vec<u64>,
    ) {
        for (shard, demand) in self.flush_demand.iter_mut().enumerate() {
            if *demand != 0 {
                state.db.shard(shard).log().demand_flush(std::mem::take(demand));
            }
        }
        for (job, commit) in self.outbox.drain(..) {
            self.parker.park(job.enqueued + state.patience(), job, commit);
        }
        self.poll(state, ring);
        while !self.parker.arm() {
            self.poll(state, ring);
        }
        for (t, seq, frame) in self.settled.drain(..) {
            let Some(conn) = conns.get_mut(&t) else { continue };
            conn.complete(seq, frame);
            touched.push(t);
        }
        self.parker.write_verdicts(&mut self.resolver);
    }

    /// Poll every parked commit, without blocking, turning each settled
    /// one into its reply frame.
    fn poll(&mut self, state: &ServerState, ring: &SpanRing) {
        let Parking { parker, resolver, settled, .. } = self;
        parker.poll(resolver, |job, commit, outcome| {
            let ctx = job.trace.as_ref().map_or(TraceContext::UNTRACED, TraceReq::child);
            let outcome = match outcome {
                Settled::Verdict(Ok(token)) => Response::Committed { lsn: token.lsn().raw() },
                Settled::Verdict(Err(reason)) => aborted(reason),
                Settled::LogFailed(e) => {
                    record_log_incident(state, ring, &ctx, SpanKind::LogPoison, 1);
                    Response::Error { code: ErrorCode::LogFailed, detail: e.to_string() }
                }
                Settled::Lapsed => {
                    let waited = state.patience().as_millis() as u64;
                    record_log_incident(state, ring, &ctx, SpanKind::LogStall, waited);
                    log_stalled()
                }
            };
            if let Some(tr) = &job.trace {
                // The wait of a published commit, measured from park
                // time; the engine recorded a staged commit's waits
                // itself, participant by participant.
                if commit.published().is_some() {
                    let now = ring.now_ns();
                    let start = now.saturating_sub(job.enqueued.elapsed().as_nanos() as u64);
                    ring.record(&tr.child(), SpanKind::DurabilityWait, start, now, 0, 0);
                }
                finish_trace(state, ring, tr);
            }
            let waited_us = job.enqueued.elapsed().as_micros() as u64;
            ring.event(&ctx, SpanKind::SessionResumed, job.conn, waited_us);
            settled.push((job.conn, job.seq, job.reply.with(outcome).frame()));
        });
    }
}

/// What one shard's thread reaches besides a connection.
struct Shard<'a> {
    handle: &'a ShardHandle,
    parking: &'a RefCell<Parking>,
    /// Runs every transaction of this loop, one operation at a time
    /// (module docs, "Workers"). Not the parking's resolver: a verdict
    /// wait inside an operation polls the parker, which delivers with the
    /// resolver.
    worker: ShardedWorker,
}

pub(crate) enum Phase {
    Running,
    /// Shutdown observed: listener closed, still serving frames already
    /// in flight. Once `soft` passes, idle connections quiesce each tick
    /// (aborting their open transactions); `hard` caps the window against
    /// a client that never stops sending.
    Drain {
        soft: Instant,
        hard: Instant,
    },
    /// Reads cut off; flushing outbound queues (and parked commits).
    Flush {
        deadline: Instant,
    },
}

/// How long the event loop may sleep in `epoll_wait`: until the next step
/// of a shutdown phase or the earliest deadline of a parked commit,
/// whichever comes first; `None`: until an event.
pub(crate) fn loop_timeout(
    now: Instant,
    phase: &Phase,
    parker_due: Option<Instant>,
) -> Option<Duration> {
    let step = match phase {
        Phase::Running => None,
        Phase::Drain { soft, .. } => Some(
            soft.saturating_duration_since(now)
                .clamp(Duration::from_millis(1), Duration::from_millis(25)),
        ),
        Phase::Flush { deadline } => {
            Some(deadline.saturating_duration_since(now).min(Duration::from_millis(100)))
        }
    };
    let due = parker_due.map(|t| t.saturating_duration_since(now));
    step.into_iter().chain(due).min()
}

/// One shard's event loop. `listener` is `Some` only for shard 0.
pub(crate) fn run_shard(state: Arc<ServerState>, idx: usize, mut listener: Option<TcpListener>) {
    let handle = &state.shards[idx];
    let parking = Rc::new(RefCell::new(Parking::new(&state, handle)));
    // A frame that waits on a prepared head this thread parked resolves
    // it while it waits; inside a poll of its own it does not help.
    let _helping = VerdictHelper::install(Rc::new({
        let (parking, state) = (Rc::clone(&parking), Arc::clone(&state));
        move || {
            if let Ok(mut parking) = parking.try_borrow_mut() {
                parking.poll(&state, &state.shards[idx].ring);
            }
        }
    }));
    let sh = &mut Shard { handle, parking: &parking, worker: state.db.register_worker() };
    let poller = Poller::new().expect("epoll_create1");
    poller
        .register(
            handle.wake.as_raw_fd(),
            TOK_WAKE,
            Interest { readable: true, writable: false, edge: true },
        )
        .expect("register wake fd");
    if let Some(l) = &listener {
        l.set_nonblocking(true).expect("non-blocking listener");
        poller.register(l.as_raw_fd(), TOK_LISTENER, Interest::READ).expect("register listener");
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut rr = 0usize; // round-robin accept target (shard 0 only)
    let mut reserve = listener.as_ref().and_then(|_| File::open("/dev/null").ok());
    let mut events: Vec<Event> = Vec::new();
    let mut phase = Phase::Running;
    // Per-turn scratch, cleared and reused.
    let mut touched: Vec<u64> = Vec::new();
    let mut to_close: Vec<u64> = Vec::new();
    // What every connection's socket is read into. Owned by the loop, so
    // it is zeroed once here and not on every readiness event.
    let mut read_buf = vec![0u8; READ_BUF_LEN];

    loop {
        let due = parking.borrow().parker.due();
        let timeout = loop_timeout(Instant::now(), &phase, due);
        let _ = poller.wait(&mut events, timeout);
        handle.stats.epoll_wakeups.fetch_add(1, Ordering::Relaxed);

        for &ev in &events {
            match ev.token {
                TOK_WAKE => handle.wake.drain(),
                TOK_LISTENER => {
                    if let Some(l) = &listener {
                        let (reserve, token) = (&mut reserve, &mut next_token);
                        accept_burst(&state, &poller, l, reserve, &mut conns, token, &mut rr);
                    }
                }
                t => {
                    let Some(conn) = conns.get_mut(&t) else { continue };
                    touched.push(t);
                    if handle_conn_event(&state, sh, conn, ev, &mut read_buf) {
                        to_close.push(t);
                    }
                }
            }
        }

        // Connections handed over from the accepting shard.
        let inbound = std::mem::take(&mut *handle.inbox.lock().unwrap());
        for stream in inbound {
            if matches!(phase, Phase::Running) {
                if let Some(t) = admit(&state, handle, &poller, &mut conns, &mut next_token, stream)
                {
                    touched.push(t);
                }
            } else {
                // Accepted just before shutdown: account and drop.
                state.stats.active_sessions.fetch_sub(1, Ordering::Relaxed);
                state.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
            }
        }

        // The turn has ended: every frame read is executed. Park, answer,
        // then flush; a connection that got a reply may serve frames its
        // full reply queue held back, so round again until none settles.
        loop {
            let first = touched.len();
            parking.borrow_mut().end_turn(&state, &handle.ring, &mut conns, &mut touched);
            if touched.len() == first {
                break;
            }
            for &t in &touched[first..] {
                let Some(conn) = conns.get_mut(&t) else { continue };
                if service(&state, sh, conn) {
                    to_close.push(t);
                }
            }
        }

        to_close.sort_unstable();
        to_close.dedup();
        for t in to_close.drain(..) {
            if let Some(c) = conns.remove(&t) {
                close_conn(&state, sh, &poller, c);
            }
        }

        // Re-arm interest for everything we touched and kept.
        touched.sort_unstable();
        touched.dedup();
        for t in touched.drain(..) {
            let Some(conn) = conns.get_mut(&t) else { continue };
            let blocked = matches!(conn.out.front(), Some(Out::Bytes(_)));
            let want = conn.desired_interest(blocked, state.cfg.reply_queue_depth);
            if want != conn.interest && poller.modify(conn.stream.as_raw_fd(), t, want).is_ok() {
                conn.interest = want;
            }
        }

        // Shutdown phase machine.
        let now = Instant::now();
        match phase {
            Phase::Running => {
                if state.shutdown.load(Ordering::Acquire) {
                    if let Some(l) = listener.take() {
                        let _ = poller.deregister(l.as_raw_fd());
                    }
                    // The quiet window gives frames a client flushed just
                    // before shutdown time to land and be served.
                    let quiet = SHUTDOWN_POLL * 2;
                    phase = Phase::Drain { soft: now + quiet, hard: now + DRAIN_CAP };
                }
            }
            Phase::Drain { soft, hard } => {
                if now >= hard {
                    quiesce(&state, sh, &mut conns, true);
                    phase =
                        Phase::Flush { deadline: now + state.patience() + Duration::from_secs(1) };
                } else if now >= soft {
                    quiesce(&state, sh, &mut conns, false);
                    if conns.values().all(|c| c.draining) {
                        phase = Phase::Flush {
                            deadline: now + state.patience() + Duration::from_secs(1),
                        };
                    } else {
                        // Some connections still have frames in flight:
                        // give them another tick.
                        phase = Phase::Drain { soft: now + SHUTDOWN_POLL, hard };
                    }
                } else {
                    phase = Phase::Drain { soft, hard };
                }
            }
            Phase::Flush { deadline } => {
                // Past the deadline every connection goes. The loop ends
                // once none is left and every commit it parked — each due
                // within the patience of being parked — has settled.
                let done = |c: &Conn| c.finished() || now >= deadline;
                let finished: Vec<u64> =
                    conns.iter().filter(|(_, c)| done(c)).map(|(t, _)| *t).collect();
                for t in finished {
                    if let Some(c) = conns.remove(&t) {
                        close_conn(&state, sh, &poller, c);
                    }
                }
                if conns.is_empty() && parking.borrow().parker.is_empty() {
                    return;
                }
                phase = Phase::Flush { deadline };
            }
        }
    }
}

/// Accept until `WouldBlock`, applying admission control, and hand the
/// survivors round-robin across shards. `reserve` is a descriptor held
/// for nothing but being closed when the process has run out of them.
fn accept_burst(
    state: &Arc<ServerState>,
    poller: &Poller,
    listener: &TcpListener,
    reserve: &mut Option<File>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    rr: &mut usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.raw_os_error(), Some(sys::EMFILE | sys::ENFILE)) => {
                // Out of descriptors (which `accept` says before it looks
                // at the queue). A queued connection keeps the listener
                // readable: left there, the loop spins and the client
                // hangs. Spend the reserve on telling it `Busy`.
                drop(reserve.take());
                let queued = listener.accept();
                if let Ok((stream, _)) = &queued {
                    let shed = state.stats.busy(BusyReason::FdLimit);
                    let errno = e.raw_os_error().unwrap_or(0) as u64;
                    // The listener is shard 0's: this is its thread.
                    let ring = &state.shards[0].ring;
                    ring.event(&TraceContext::UNTRACED, SpanKind::AcceptShed, errno, shed);
                    let _ = write_frame(&mut &*stream, &Response::Busy.encode());
                }
                let took = queued.map(drop);
                *reserve = File::open("/dev/null").ok();
                match took {
                    Ok(()) => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        // Somebody else took the freed slot: give them time.
                        std::thread::sleep(Duration::from_millis(1));
                        break;
                    }
                }
            }
            Err(_) => break,
        };
        if state.shutdown.load(Ordering::Acquire) {
            continue; // late stragglers during shutdown: drop
        }
        if state.stats.active_sessions.load(Ordering::Relaxed) >= state.cfg.max_sessions {
            // Shed load with an explicit frame; the stream is still
            // blocking here, and the frame fits any socket buffer.
            state.stats.busy(BusyReason::Sessions);
            let _ = write_frame(&mut &stream, &Response::Busy.encode());
            continue;
        }
        state.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        state.stats.active_sessions.fetch_add(1, Ordering::Relaxed);
        let target = *rr % state.shards.len();
        *rr += 1;
        if target == 0 {
            admit(state, &state.shards[0], poller, conns, next_token, stream);
        } else {
            state.shards[target].inbox.lock().unwrap().push(stream);
            state.shards[target].wake.wake();
        }
    }
}

/// Take ownership of an admitted connection on this shard.
fn admit(
    state: &Arc<ServerState>,
    handle: &ShardHandle,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    stream: TcpStream,
) -> Option<u64> {
    let _ = stream.set_nodelay(true);
    let token = *next_token;
    *next_token += 1;
    if stream.set_nonblocking(true).is_err()
        || poller.register(stream.as_raw_fd(), token, Interest::READ).is_err()
    {
        state.stats.active_sessions.fetch_sub(1, Ordering::Relaxed);
        state.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    conns.insert(token, Conn::new(stream, token, state.cfg.max_frame_len));
    handle.stats.sessions.fetch_add(1, Ordering::Relaxed);
    Some(token)
}

/// Tear a connection down, releasing everything it holds.
fn close_conn(state: &Arc<ServerState>, sh: &mut Shard, poller: &Poller, mut conn: Conn) {
    let _ = poller.deregister(conn.stream.as_raw_fd());
    disconnect_abort(state, sh, &mut conn);
    let handle = sh.handle;
    if !conn.out.is_empty() {
        state.stats.queued_replies.fetch_sub(conn.out.len(), Ordering::Relaxed);
        conn.out.clear();
    }
    handle.stats.sessions.fetch_sub(1, Ordering::Relaxed);
    state.stats.active_sessions.fetch_sub(1, Ordering::Relaxed);
    state.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
}

/// React to one readiness event. Returns true if the connection must
/// close now.
fn handle_conn_event(
    state: &Arc<ServerState>,
    sh: &mut Shard,
    conn: &mut Conn,
    ev: Event,
    read_buf: &mut [u8],
) -> bool {
    if ev.error {
        return true;
    }
    if ev.writable && matches!(conn.flush(state, &sh.handle.stats), FlushState::Dead) {
        return true;
    }
    let readable = (ev.readable || ev.hangup) && !conn.draining && !conn.read_shut;
    if readable && read_into(conn, read_buf) {
        return true;
    }
    service(state, sh, conn)
}

/// Bytes read from a socket per `read` call.
const READ_BUF_LEN: usize = 16 * 1024;

/// Drain the socket through `buf` (the event loop's) into the
/// connection's buffers. Returns true on a fatal transport error.
fn read_into(conn: &mut Conn, buf: &mut [u8]) -> bool {
    loop {
        match (&conn.stream).read(buf) {
            Ok(0) => {
                conn.read_shut = true;
                return false;
            }
            Ok(n) => feed(conn, &buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Route newly read bytes by protocol mode, resolving the initial
/// sniff: the first four bytes are either a frame length prefix or the
/// start of an HTTP request line. `"GET "` as a frame length would be
/// ~0.5 GiB — far past `max_frame_len` — so the grammars cannot
/// collide. This lets Prometheus scrape the wire port directly.
fn feed(conn: &mut Conn, bytes: &[u8]) {
    if let Mode::Sniff { buf } = &mut conn.mode {
        buf.extend_from_slice(bytes);
        if buf.len() >= 4 {
            let buf = std::mem::take(buf);
            if buf.starts_with(b"GET ") {
                conn.mode = Mode::Http { head: buf[4..].to_vec() };
            } else {
                conn.asm.feed(&buf);
                conn.mode = Mode::Frames;
            }
        }
        return;
    }
    match &mut conn.mode {
        Mode::Frames => conn.asm.feed(bytes),
        Mode::Http { head } => head.extend_from_slice(bytes),
        Mode::Sniff { .. } => unreachable!(),
    }
}

/// Process buffered input, flush output, and settle end-of-life state.
/// Returns true if the connection must close now.
fn service(state: &Arc<ServerState>, sh: &mut Shard, conn: &mut Conn) -> bool {
    let mut exhausted;
    loop {
        let worked = match conn.mode {
            Mode::Http { .. } => {
                if process_http(state, conn) {
                    return true;
                }
                exhausted = true;
                0
            }
            Mode::Frames | Mode::Sniff { .. } => {
                let (worked, ex) = process_frames(state, sh, conn);
                exhausted = ex;
                worked
            }
        };
        let queued = conn.out.len();
        if matches!(conn.flush(state, &sh.handle.stats), FlushState::Dead) {
            return true;
        }
        // A flush that made room in the reply queue goes round again:
        // frames the queue's cap held back are already read into the
        // assembler, so no readiness event would come back for them.
        if worked == 0 && conn.out.len() == queued {
            break;
        }
    }
    // Peer EOF and every complete frame served: finish the session.
    if conn.read_shut && exhausted && !conn.draining {
        disconnect_abort(state, sh, conn);
        conn.draining = true;
    }
    conn.finished()
}

/// Dispatch complete frames until input runs dry or backpressure bites.
/// Returns (frames handled, input exhausted).
fn process_frames(state: &Arc<ServerState>, sh: &mut Shard, conn: &mut Conn) -> (usize, bool) {
    let mut worked = 0usize;
    loop {
        if conn.draining {
            return (worked, true);
        }
        if conn.out.len() >= state.cfg.reply_queue_depth {
            return (worked, false);
        }
        match conn.asm.next_frame() {
            Ok(Some(payload)) => {
                worked += 1;
                dispatch(state, sh, conn, &payload);
            }
            Ok(None) => return (worked, true),
            Err(e) => {
                state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.push_err(state, ErrorCode::Protocol, &e.to_string());
                conn.draining = true;
                return (worked, true);
            }
        }
    }
}

/// Minimal single-request HTTP responder. Serves `/metrics` as
/// Prometheus text exposition and 404s everything else; always closes.
/// Returns true if the connection should close immediately (oversized
/// or truncated head).
fn process_http(state: &Arc<ServerState>, conn: &mut Conn) -> bool {
    if conn.draining {
        return false; // response already queued
    }
    let is_metrics = {
        let Mode::Http { head } = &conn.mode else { return false };
        if head.len() > MAX_HTTP_HEAD {
            return true;
        }
        if !head.windows(4).any(|w| w == b"\r\n\r\n") {
            return conn.read_shut; // EOF before a full head: just close
        }
        // We consumed `"GET "` in the sniff, so the head starts at the
        // path.
        let path_end = head.iter().position(|&b| b == b' ').unwrap_or(head.len());
        &head[..path_end] == b"/metrics"
    };
    let (status, body) = if is_metrics {
        ("200 OK", render_metrics(&state.db))
    } else {
        ("404 Not Found", "not found; try /metrics\n".to_string())
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.push_bytes(state, resp.into_bytes());
    conn.draining = true;
    false
}

// ---------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------

/// The one dispatcher. Whether a frame may run in the session's current
/// state — between transactions, or inside `Begin` … `Commit`/`Abort` —
/// is the legality column of the frame table ([`Request::legal`]); what
/// is left to decide here is what a legal frame does.
fn dispatch(state: &Arc<ServerState>, sh: &mut Shard, conn: &mut Conn, payload: &[u8]) {
    // One branch on the first payload byte is the whole cost tracing
    // adds to an untraced frame; the clock is read only past it.
    let t0 = if is_traced_frame(payload) { sh.handle.ring.now_ns() } else { 0 };
    let (req, ctx) = match Request::decode_traced(payload) {
        Ok(v) => v,
        Err(e) => {
            state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.push_err(state, ErrorCode::Protocol, &e.to_string());
            conn.draining = true;
            return;
        }
    };
    state.stats.frames_processed.fetch_add(1, Ordering::Relaxed);
    let (op, legal) = (req.name(), req.legal());
    let req = req.into_op();
    let trace = ctx.map(|ctx| {
        let ring = &sh.handle.ring;
        let span_id = ring.alloc_span_id();
        // Table and key-prefix attribution for the slow-op log.
        let (table, key) = req.as_ref().map_or((0, &[][..]), op_target);
        let key = key[..key.len().min(12)].to_vec();
        let tr = TraceReq { ctx, span_id, t0, op, table, key };
        ring.record(&tr.child(), SpanKind::FrameDecode, t0, ring.now_ns(), payload.len() as u64, 0);
        tr
    });
    let refusal = match (legal, conn.txn.is_some()) {
        (Legal::Idle(why), true) | (Legal::InTxn(why), false) => Some(why),
        _ => None,
    };
    match (refusal, req) {
        (Some(why), _) => conn.push_err(state, ErrorCode::BadState, why),
        (None, Ok(op)) => {
            let Some(mut open) = conn.txn.take() else {
                // Autocommit: a one-operation transaction, answered at once
                // unless the write crossed shards, as one on a replicated
                // table does.
                let ops = Ops::Auto(op);
                return one_shot(state, sh, conn, IsolationLevel::Snapshot, false, ops, trace);
            };
            // One operation of the open transaction, on the loop's worker.
            let mut txn = sh.worker.resume(open.txn);
            let resp = exec_op(state, &mut txn, &op);
            open.txn = txn.detach();
            conn.txn = Some(open);
            conn.push(state, resp);
        }
        (None, Err(req)) => match req {
            Request::Ping => conn.push(state, Response::Pong),
            Request::Metrics => {
                conn.push(state, Response::Metrics { text: render_metrics(&state.db) })
            }
            Request::DumpTraces { max } => {
                conn.push(state, Response::Traces { text: dump(&state.db, max as usize) })
            }
            Request::Health => push_health(state, conn),
            Request::Resume => do_resume(state, conn),
            Request::OpenTable { name } => open_table(state, conn, &name),
            Request::Subscribe { shard, from } => do_subscribe(state, conn, shard, from),
            Request::FetchChunk { shard, source, offset, len } => {
                do_fetch_chunk(state, &sh.handle.ring, conn, shard, source, offset, len)
            }
            Request::Begin { isolation } => {
                return begin(state, sh, conn, engine_isolation(isolation), trace);
            }
            Request::Batch { isolation, sync, ops } => {
                let isolation = engine_isolation(isolation);
                return one_shot(state, sh, conn, isolation, sync, Ops::Batch(ops), trace);
            }
            Request::Abort => {
                let open = conn.take_txn(state).expect("legal only inside a transaction");
                sh.worker.resume(open.txn).abort();
                conn.push(state, Response::Aborted);
                if let Some(tr) = open.trace {
                    finish_trace(state, &sh.handle.ring, &tr);
                }
            }
            Request::Commit { sync } => {
                let open = conn.take_txn(state).expect("legal only inside a transaction");
                // Prefer the begin frame's trace for the commit outcome —
                // its request span covers the whole interactive transaction,
                // begin through durable — over the commit frame's own.
                let mut txn_trace = open.trace;
                match (&txn_trace, trace) {
                    (None, frame) => txn_trace = frame,
                    (Some(_), Some(frame)) => finish_trace(state, &sh.handle.ring, &frame),
                    (Some(_), None) => {}
                }
                let commit = sh.worker.resume(open.txn).commit_deferred().map_err(aborted);
                return conclude(state, sh, conn, commit, sync, Reply::Commit, txn_trace);
            }
            Request::Get { .. }
            | Request::Put { .. }
            | Request::Delete { .. }
            | Request::Scan { .. }
            | Request::Insert { .. } => unreachable!("`into_op` takes every data operation"),
        },
    }
    if let Some(tr) = trace {
        finish_trace(state, &sh.handle.ring, &tr);
    }
}

/// Close a traced request: record its `request` span and offer it to
/// tail-based slow-op retention.
fn finish_trace(state: &ServerState, ring: &SpanRing, tr: &TraceReq) {
    let now = ring.now_ns();
    ring.record_with_id(&tr.ctx, SpanKind::Request, tr.span_id, tr.t0, now, 0, 0);
    state.db.telemetry().tracer().maybe_capture_slow(
        &tr.ctx,
        tr.op,
        tr.table,
        &tr.key,
        now.saturating_sub(tr.t0),
    );
}

/// Open an interactive transaction, as a value the session holds; with
/// `worker_capacity` open already it is answered `Busy`, and the
/// connection stays.
fn begin(
    state: &Arc<ServerState>,
    sh: &mut Shard,
    conn: &mut Conn,
    isolation: IsolationLevel,
    trace: Option<TraceReq>,
) {
    let cap = state.cfg.worker_capacity;
    let open = state
        .stats
        .open_txns
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < cap).then_some(n + 1));
    if open.is_err() {
        state.stats.busy(BusyReason::OpenTransactions);
        conn.push(state, Response::Busy);
        if let Some(tr) = trace {
            finish_trace(state, &sh.handle.ring, &tr);
        }
        return;
    }
    conn.push(state, Response::Begun);
    let txn = sh.worker.begin_traced(isolation, trace.as_ref().map(TraceReq::child)).detach();
    // The begin trace stays open on the transaction: its request span is
    // recorded when the transaction resolves.
    let trace = trace.map(|tr| TraceReq { op: "txn", ..tr });
    conn.txn = Some(Interactive { txn, trace });
}

/// The client is gone: abort the session's open transaction, if any, on
/// the loop's worker.
fn disconnect_abort(state: &ServerState, sh: &mut Shard, conn: &mut Conn) {
    if let Some(open) = conn.take_txn(state) {
        sh.worker.resume(open.txn).abort();
        state.stats.disconnect_aborts.fetch_add(1, Ordering::Relaxed);
    }
}

/// A one-shot transaction on the loop's own worker: begin, run every op,
/// commit — one request frame, one reply frame. Stops at the first
/// failed op.
fn one_shot(
    state: &Arc<ServerState>,
    sh: &mut Shard,
    conn: &mut Conn,
    isolation: IsolationLevel,
    sync: bool,
    ops: Ops,
    trace: Option<TraceReq>,
) {
    let mut txn = sh.worker.begin_traced(isolation, trace.as_ref().map(|t| t.child()));
    let reply = match &ops {
        Ops::Auto(op) => Reply::Auto(exec_op(state, &mut txn, op)),
        Ops::Batch(ops) => {
            let mut results = Vec::with_capacity(ops.len());
            for op in ops {
                results.push(exec_op(state, &mut txn, op));
                if matches!(results.last(), Some(Response::Error { .. })) {
                    break;
                }
            }
            Reply::Batch(results)
        }
    };
    let commit = match reply.failure() {
        Some(failure) => {
            txn.abort();
            Err(failure)
        }
        None => txn.commit_deferred().map_err(aborted),
    };
    conclude(state, sh, conn, commit, sync, reply, trace)
}

/// The one commit epilogue, for an interactive `Commit`, a `Batch` and an
/// autocommitted operation alike: `commit` is what `commit_deferred`
/// said, or the failed op that kept it from being asked. A transaction
/// that committed is counted and settled; one that did not is answered
/// with why, and its trace closed.
fn conclude(
    state: &Arc<ServerState>,
    sh: &Shard,
    conn: &mut Conn,
    commit: Result<DeferredCommit, Response>,
    sync: bool,
    reply: Reply,
    trace: Option<TraceReq>,
) {
    match commit {
        Ok(commit) => {
            state.stats.commits.fetch_add(1, Ordering::Relaxed);
            settle_commit(state, sh, conn, commit, sync, reply, trace);
        }
        Err(outcome) => {
            conn.push(state, reply.with(outcome));
            if let Some(tr) = trace {
                finish_trace(state, &sh.handle.ring, &tr);
            }
        }
    }
}

/// Answer a successful `commit_deferred`: at once if it has nothing to
/// wait for, else reserve the in-order reply slot and hand the commit to
/// the parker until the logs have caught up.
fn settle_commit(
    state: &Arc<ServerState>,
    sh: &Shard,
    conn: &mut Conn,
    commit: DeferredCommit,
    sync: bool,
    reply: Reply,
    trace: Option<TraceReq>,
) {
    let published = commit.published();
    if let Some(token) = published.filter(|t| !sync || t.end_offset().is_none()) {
        conn.push(state, reply.with(Response::Committed { lsn: token.lsn().raw() }));
        if let Some(tr) = trace {
            finish_trace(state, &sh.handle.ring, &tr);
        }
        return;
    }
    let seq = conn.push_pending(state);
    let ctx = trace.as_ref().map_or(TraceContext::UNTRACED, TraceReq::child);
    sh.handle.ring.event(&ctx, SpanKind::SessionParked, conn.token, seq);
    let job = ParkJob { conn: conn.token, seq, reply, enqueued: Instant::now(), trace };
    sh.parking.borrow_mut().park(state, job, commit);
}

/// The reply to a commit whose durability wait outlasted the logs' one
/// patience, `LogConfig::wait_durable_timeout`.
fn log_stalled() -> Response {
    Response::Error {
        code: ErrorCode::LogStalled,
        detail: "durability wait timed out; commit fate indeterminate".into(),
    }
}

// ---------------------------------------------------------------------
// Service frames
// ---------------------------------------------------------------------

/// Every engine shard's registry as one exposition: what each shard
/// keeps for itself (transactions, log, GC, epochs, TID table) carries
/// `shard="i"` when there are several; one shard renders bare.
fn render_metrics(db: &ShardedDb) -> String {
    let registries: Vec<_> = (0..db.shards()).map(|i| db.shard(i).telemetry().registry()).collect();
    Registry::render_merged(&registries, "shard")
}

/// Every engine shard's rings as one time-sorted text dump, each class
/// cut to its newest `max` records ([`DEFAULT_DUMP`] for 0). The server's
/// and the sharded workers' rings register on shard 0; an engine worker's
/// commits and aborts, and recovery's and a replica's records, land on
/// the shard that wrote them.
fn dump(db: &ShardedDb, max: usize) -> String {
    let (sampled, always) = if max == 0 { DEFAULT_DUMP } else { (max, max) };
    let tracers: Vec<&Tracer> =
        (0..db.shards()).map(|i| &**db.shard(i).telemetry().tracer()).collect();
    render_spans(&Tracer::dump_merged(&tracers, sampled, always))
}

/// Service-state probe: the database state, the node's replication
/// role, the durable frontier, and (on a replica) the applied offset.
fn push_health(state: &Arc<ServerState>, conn: &mut Conn) {
    conn.push(
        state,
        Response::Health {
            state: state.db.state() as u8,
            role: state.db.role() as u8,
            durable_lsn: state.db.log_durable_offset(),
            applied_lsn: state.db.applied_lsn(),
        },
    );
}

// ---------------------------------------------------------------------
// Log shipping (primary side)
// ---------------------------------------------------------------------

/// Start or refresh a log-shipping subscription: pin the shard's log
/// from the subscriber's resume point and report what can be fetched.
/// Re-subscribing with a higher `from` advances the retention pin, so
/// the primary reclaims segments as the replica confirms application.
fn do_subscribe(state: &Arc<ServerState>, conn: &mut Conn, shard: u32, from: u64) {
    let idx = shard as usize;
    if idx >= state.db.shards() {
        return conn.push_err(state, ErrorCode::BadState, &format!("no shard {shard}"));
    }
    let db = state.db.shard(idx);
    // Pin before reading the segment list so a concurrent truncation
    // cannot retire anything at or above `from` once the status is
    // composed.
    match &mut conn.repl {
        Some(r) if r.shard == idx => r.retention.advance(from),
        slot => {
            *slot =
                Some(ReplConnState { shard: idx, retention: db.pin_log(from), checkpoint: None })
        }
    }
    let log = db.log();
    let earliest = log.segments().all().first().map_or(0, |s| s.start);
    let repl = conn.repl.as_mut().expect("subscription just installed");
    if from < earliest {
        // The resume point was truncated away: the subscriber must
        // bootstrap from the checkpoint. Stash one immutable image so
        // chunk fetches stay coherent across rounds.
        if repl.checkpoint.is_none() {
            match db.latest_checkpoint() {
                Ok(Some((begin, payload))) => {
                    repl.checkpoint = Some((begin.raw(), std::sync::Arc::new(payload)));
                }
                Ok(None) => {}
                Err(e) => {
                    return conn.push_err(
                        state,
                        ErrorCode::LogFailed,
                        &format!("checkpoint read failed: {e}"),
                    )
                }
            }
        }
    } else {
        repl.checkpoint = None;
    }
    // Read behind the pinned checkpoint: its barrier covered its copy of
    // the catalog, so this frontier holds every table its payload names.
    let durable = log.durable_offset();
    let segs = log.segments().all();
    let status = ReplStatus {
        role: db.role() as u8,
        state: db.state() as u8,
        durable_lsn: durable,
        earliest,
        segment_size: log.segments().segment_size(),
        checkpoint: repl.checkpoint.as_ref().map(|(begin, payload)| (*begin, payload.len() as u64)),
        segments: segs
            .iter()
            .filter(|s| s.start < durable)
            .map(|s| (s.index, s.start, s.end.min(durable)))
            .collect(),
    };
    conn.push(state, Response::ReplStatus(status));
}

/// Serve one chunk of shipped bytes: `source` 0 reads the pinned
/// checkpoint payload, 1 reads durable log bytes straight from the
/// segment file. Short (or empty) replies mark the durable frontier or
/// a segment/payload boundary; the subscriber plans the next offset
/// from its `Subscribe` status, never from chunk shape.
fn do_fetch_chunk(
    state: &Arc<ServerState>,
    ring: &SpanRing,
    conn: &mut Conn,
    shard: u32,
    source: u8,
    offset: u64,
    len: u32,
) {
    let idx = shard as usize;
    let Some(repl) = conn.repl.as_ref() else {
        return conn.push_err(state, ErrorCode::BadState, "fetch without subscription");
    };
    if repl.shard != idx {
        return conn.push_err(state, ErrorCode::BadState, "fetch on unsubscribed shard");
    }
    // Keep the reply comfortably inside one frame. Saturate: a config
    // with a tiny frame limit must not underflow (serve at least one
    // byte per chunk and let the subscriber crawl).
    let len = (len as u64).min((state.cfg.max_frame_len as u64).saturating_sub(4096).max(1));
    let data = match source {
        0 => match &repl.checkpoint {
            Some((_, payload)) => {
                let lo = (offset as usize).min(payload.len());
                let hi = (offset as usize).saturating_add(len as usize).min(payload.len());
                payload[lo..hi].to_vec()
            }
            None => return conn.push_err(state, ErrorCode::BadState, "no checkpoint pinned"),
        },
        1 => {
            let log = state.db.shard(idx).log();
            let durable = log.durable_offset();
            let Some(seg) = log.segments().lookup(offset) else {
                // Dead zone or past the tail: nothing to read here.
                return conn.push(state, Response::SegmentChunk { offset, data: Vec::new() });
            };
            // `offset` is client-controlled: saturate instead of
            // overflowing near u64::MAX.
            let end = offset.saturating_add(len).min(seg.end).min(durable);
            if end <= offset {
                return conn.push(state, Response::SegmentChunk { offset, data: Vec::new() });
            }
            let Some(io) = &seg.io else {
                return conn.push_err(
                    state,
                    ErrorCode::BadState,
                    "in-memory log cannot be shipped",
                );
            };
            let mut buf = vec![0u8; (end - offset) as usize];
            if let Err(e) = io.read_exact_at(&mut buf, seg.file_pos(offset)) {
                return conn.push_err(state, ErrorCode::LogFailed, &format!("segment read: {e}"));
            }
            buf
        }
        _ => return conn.push_err(state, ErrorCode::BadState, "unknown chunk source"),
    };
    let shipped = data.len() as u64;
    ring.event(&TraceContext::UNTRACED, SpanKind::ReplSegmentShipped, offset, shipped);
    conn.push(state, Response::SegmentChunk { offset, data });
}

/// Operator-triggered exit from degraded read-only mode. Success is
/// answered with a fresh `Health` frame (state back to active); a
/// failed re-probe keeps the database degraded and reports why.
fn do_resume(state: &Arc<ServerState>, conn: &mut Conn) {
    match state.db.resume() {
        Ok(()) => push_health(state, conn),
        Err(e) => conn.push_err(
            state,
            ErrorCode::DegradedReadOnly,
            &format!("resume failed, still read-only: {e}"),
        ),
    }
}

fn open_table(state: &Arc<ServerState>, conn: &mut Conn, name: &[u8]) {
    let Ok(name) = std::str::from_utf8(name) else {
        return conn.push_err(state, ErrorCode::BadState, "table name must be utf-8");
    };
    if let Some(id) = state.db.table_id(name) {
        return conn.push(state, Response::TableId { id: id.0 });
    }
    let db0 = state.db.shard(0);
    let refused = if db0.role() == NodeRole::Replica || db0.view_cut().is_some() {
        // A replica's catalog is owned by replay of the shipped log: a
        // locally allocated id would silently divert later replay onto
        // the wrong table. The same holds for any read-only view.
        Some((ErrorCode::UnknownTable, "does not exist on this read-only replica"))
    } else if state.db.state() == DbState::Degraded {
        // A table cannot be created where it cannot be logged: the
        // poisoned log would refuse the catalog entry its id stands for.
        Some((ErrorCode::DegradedReadOnly, "cannot be created while the log is down"))
    } else if name.len() > ermia_log::DdlRecord::MAX_NAMES_LEN {
        Some((ErrorCode::BadState, "has too long a name for a catalog entry"))
    } else {
        None
    };
    if let Some((code, why)) = refused {
        return conn.push_err(state, code, &format!("table {name:?} {why}"));
    }
    let id = state.db.create_table(name);
    conn.push(state, Response::TableId { id: id.0 });
}

// ---------------------------------------------------------------------
// Shutdown cutoff
// ---------------------------------------------------------------------

/// Quiesce connections for shutdown: abort each one's open transaction
/// on the loop's worker, tell its client, and stop its reads. A drain
/// tick spares a connection with input still to serve, as the blocking
/// server's busy sessions kept serving buffered frames while idle ones
/// noticed the flag at their next read-poll tick; the drain's hard cap
/// (`all`) spares none. What the loop parked settles in the flush phase
/// that follows, within the logs' patience.
fn quiesce(state: &Arc<ServerState>, sh: &mut Shard, conns: &mut HashMap<u64, Conn>, all: bool) {
    for conn in conns.values_mut() {
        if !all && (conn.draining || conn.asm.has_frame()) {
            continue;
        }
        if let Some(open) = conn.take_txn(state) {
            sh.worker.resume(open.txn).abort();
            conn.push_err(state, ErrorCode::ShuttingDown, "server shutting down");
        }
        conn.draining = true;
        let _ = conn.flush(state, &sh.handle.stats);
    }
}

/// A durability incident just surfaced to a client: record it in the
/// shard's ring (under the request's trace, if it has one), store a
/// dump for later retrieval, and mirror it to stderr. The ring lives
/// until the server shuts down, so `DumpTraces` frames sent after the
/// fact still see the incident.
fn record_log_incident(
    state: &ServerState,
    ring: &SpanRing,
    ctx: &TraceContext,
    kind: SpanKind,
    a: u64,
) {
    ring.event(ctx, kind, a, 0);
    let dump = dump(&state.db, 0);
    state.db.telemetry().tracer().store_last_dump(dump.clone());
    eprintln!("{dump}");
}
