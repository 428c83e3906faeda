//! Per-connection state for the event-driven service layer.
//!
//! A [`Conn`] owns everything one socket needs between readiness events:
//! the incremental frame assembler, the ordered outbound queue with its
//! partial-write cursor, the protocol mode (sniffing / frames / HTTP),
//! an optional open interactive transaction, and an optional parked
//! request waiting for a pooled engine worker. The shard loop in
//! [`crate::session`] drives these machines; nothing here blocks.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Instant;

use ermia::{IsolationLevel, PooledWorker, ShardedDb, ShardedTransaction};
use ermia_common::{AbortReason, TableId};
use ermia_log::MAX_KEY_LEN;
use ermia_telemetry::TraceContext;

use crate::poll::Interest;
use crate::protocol::{BatchOp, ErrorCode, FrameAssembler, Response, WireIsolation};
use crate::server::{ServerState, ShardStats};

/// Accumulation cap for a sniffed HTTP request head.
pub(crate) const MAX_HTTP_HEAD: usize = 8 * 1024;

/// One entry in a connection's ordered outbound queue.
pub(crate) enum Out {
    /// Fully framed (or raw, for HTTP) bytes ready to write.
    Bytes(Vec<u8>),
    /// A sync commit parked on the durability parker; the frame arrives
    /// as a completion carrying this sequence number. Later `Bytes`
    /// entries wait behind it so replies stay in order.
    Pending { seq: u64 },
}

/// What grammar the connection is speaking.
pub(crate) enum Mode {
    /// First four bytes decide: frame length prefix or `"GET "`.
    Sniff { buf: Vec<u8> },
    /// The framed wire protocol.
    Frames,
    /// One-shot HTTP (Prometheus scrape); accumulating the request head.
    Http { head: Vec<u8> },
}

/// A request that decoded cleanly but found no idle engine worker; the
/// shard retries until a worker frees up or the admission window closes.
pub(crate) enum PendingWork {
    Begin {
        isolation: IsolationLevel,
    },
    /// A transaction that begins, runs and commits within one request.
    OneShot {
        isolation: IsolationLevel,
        sync: bool,
        ops: Ops,
    },
}

/// What a one-shot transaction runs, and so how it is answered.
pub(crate) enum Ops {
    /// A `Batch`: every op's reply, then the outcome.
    Batch(Vec<BatchOp>),
    /// An autocommitted data operation — a one-op batch answered with the
    /// op's own reply.
    Auto(BatchOp),
}

pub(crate) struct Waiting {
    pub deadline: Instant,
    pub work: PendingWork,
    /// Trace of the parked request plus the park timestamp (tracer-epoch
    /// ns), so the resume records a run-queue span covering the wait.
    pub trace: Option<(TraceReq, u64)>,
}

/// The server-side trace of one in-flight traced request: the wire
/// context, a pre-allocated span id for the enclosing `request` span
/// (children parent under it via [`TraceReq::child`]), the request's
/// start timestamp, and the attribution carried into slow-op retention.
pub(crate) struct TraceReq {
    pub ctx: TraceContext,
    /// Span id reserved for the `request` span, recorded at completion.
    pub span_id: u64,
    /// Request start, tracer-epoch ns (clocked at frame decode).
    pub t0: u64,
    /// Wire opcode name ("put", "commit", "batch", …).
    pub op: &'static str,
    pub table: u32,
    pub key: Vec<u8>,
}

impl TraceReq {
    /// The context child layers record under: same trace, parented to
    /// this request's span.
    pub fn child(&self) -> TraceContext {
        self.ctx.child(self.span_id)
    }
}

/// Log-shipping state for a subscribed connection. Holding the
/// [`LogRetention`] pins the shard's log against truncation from the
/// subscriber's resume point; dropping the connection drops the pin, so
/// a dead replica can never wedge the primary's log reclamation.
pub(crate) struct ReplConnState {
    pub shard: usize,
    pub retention: ermia::LogRetention,
    /// The checkpoint pinned for this subscription: `(begin raw LSN,
    /// payload)`. Stashed at subscribe time so every `FetchChunk`
    /// against source 0 reads one immutable byte image.
    pub checkpoint: Option<(u64, std::sync::Arc<Vec<u8>>)>,
}

/// An open interactive transaction spanning readiness events.
///
/// `ShardedTransaction<'w>` borrows its worker, so carrying one across
/// loop iterations needs the worker at a stable address with an erased
/// lifetime: the `PooledWorker` is boxed onto the heap and held
/// as a raw pointer (not a `Box`, which would assert unique access it no
/// longer has while the transaction borrows through it). Drop order
/// restores the invariant the blocking server got from scoping:
/// transaction first (aborting it if still open), then the worker box,
/// returning the worker to the pool.
pub(crate) struct OpenTxn {
    txn: Option<ShardedTransaction<'static>>,
    worker: *mut PooledWorker<ShardedDb>,
    /// The begin frame's trace, held open across the whole interactive
    /// transaction: its `request` span is recorded at commit/abort, so a
    /// traced `Begin` yields one span covering begin → durable.
    pub trace: Option<TraceReq>,
}

impl OpenTxn {
    pub fn begin(
        worker: PooledWorker<ShardedDb>,
        isolation: IsolationLevel,
        trace: Option<TraceReq>,
    ) -> OpenTxn {
        let worker = Box::into_raw(Box::new(worker));
        let ctx = trace.as_ref().map(|t| t.child());
        // SAFETY: the worker lives on the heap until our Drop, and the
        // transaction is dropped (or consumed) strictly before the box;
        // `Conn` never moves the worker while the borrow is live.
        let txn: ShardedTransaction<'static> = unsafe { (*worker).begin_traced(isolation, ctx) };
        OpenTxn { txn: Some(txn), worker, trace }
    }

    pub fn txn(&mut self) -> &mut ShardedTransaction<'static> {
        self.txn.as_mut().expect("open transaction")
    }

    /// Consume the transaction (commit/abort take `self` by value) and
    /// return the worker to the pool.
    pub fn finish<R>(mut self, f: impl FnOnce(ShardedTransaction<'static>) -> R) -> R {
        let t = self.txn.take().expect("open transaction");
        f(t)
        // Drop of `self` frees the worker box.
    }
}

impl Drop for OpenTxn {
    fn drop(&mut self) {
        drop(self.txn.take()); // abort-on-drop, while the worker is alive
                               // SAFETY: created by Box::into_raw in `begin`, dropped once.
        unsafe { drop(Box::from_raw(self.worker)) };
    }
}

/// One multiplexed connection.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub token: u64,
    pub asm: FrameAssembler,
    pub mode: Mode,
    pub out: VecDeque<Out>,
    /// Bytes of `out.front()` already written (partial-write cursor).
    pub head_written: usize,
    pub txn: Option<OpenTxn>,
    pub waiting: Option<Waiting>,
    /// Active log-shipping subscription, if this peer is a replica.
    pub repl: Option<ReplConnState>,
    /// No further reads; flush `out`, then close.
    pub draining: bool,
    /// Peer sent EOF; buffered frames still get processed and replied.
    pub read_shut: bool,
    /// The interest currently registered with the poller.
    pub interest: Interest,
    /// Sequence numbers for parked durability completions.
    pub next_seq: u64,
    /// Reused coalescing buffer: a run of small replies goes out in one
    /// `write` instead of one syscall per frame.
    scratch: Vec<u8>,
}

/// Outcome of a flush attempt.
pub(crate) enum FlushState {
    /// Nothing left to write (or blocked on a parked completion).
    Idle,
    /// The socket buffer filled; want write readiness.
    Blocked,
    /// The peer is gone.
    Dead,
}

impl Conn {
    pub fn new(stream: TcpStream, token: u64, max_frame_len: u32) -> Conn {
        Conn {
            stream,
            token,
            asm: FrameAssembler::new(max_frame_len),
            mode: Mode::Sniff { buf: Vec::with_capacity(8) },
            out: VecDeque::new(),
            head_written: 0,
            txn: None,
            waiting: None,
            repl: None,
            draining: false,
            read_shut: false,
            interest: Interest::READ,
            next_seq: 0,
            scratch: Vec::new(),
        }
    }

    /// Queue raw bytes (a framed reply, or an HTTP response).
    pub fn push_bytes(&mut self, state: &ServerState, bytes: Vec<u8>) {
        self.out.push_back(Out::Bytes(bytes));
        state.stats.queued_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Queue a wire response, framing it.
    pub fn push(&mut self, state: &ServerState, resp: Response) {
        self.push_bytes(state, resp.frame());
    }

    pub fn push_err(&mut self, state: &ServerState, code: ErrorCode, detail: &str) {
        self.push(state, Response::Error { code, detail: detail.into() });
    }

    /// Reserve an in-order slot for a parked durability completion.
    pub fn push_pending(&mut self, state: &ServerState) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.out.push_back(Out::Pending { seq });
        state.stats.queued_replies.fetch_add(1, Ordering::Relaxed);
        seq
    }

    /// Resolve a parked slot with its frame. Returns false if the slot
    /// is gone (it never is while the connection lives).
    pub fn complete(&mut self, seq: u64, bytes: Vec<u8>) -> bool {
        for slot in self.out.iter_mut() {
            if matches!(slot, Out::Pending { seq: s } if *s == seq) {
                *slot = Out::Bytes(bytes);
                return true;
            }
        }
        false
    }

    /// Write as much of `out` as the socket accepts right now. A run of
    /// queued replies is coalesced into a single `write` (capped so one
    /// huge scan reply is still streamed directly, not copied).
    pub fn flush(&mut self, state: &ServerState, shard: &ShardStats) -> FlushState {
        const COALESCE_CAP: usize = 64 << 10;
        loop {
            // Leading run of ready byte entries (stops at a parked slot).
            let mut run = 0usize;
            let mut total = 0usize;
            for slot in self.out.iter() {
                let Out::Bytes(b) = slot else { break };
                run += 1;
                total += b.len();
                if total >= COALESCE_CAP {
                    break;
                }
            }
            if run == 0 {
                return FlushState::Idle;
            }

            if run == 1 {
                let Some(Out::Bytes(bytes)) = self.out.front() else { unreachable!() };
                let mut done = false;
                while !done {
                    match (&self.stream).write(&bytes[self.head_written..]) {
                        Ok(0) => return FlushState::Dead,
                        Ok(n) => {
                            self.head_written += n;
                            done = self.head_written >= bytes.len();
                            if !done {
                                shard.partial_writes.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            shard.partial_writes.fetch_add(1, Ordering::Relaxed);
                            return FlushState::Blocked;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return FlushState::Dead,
                    }
                }
                self.out.pop_front();
                self.head_written = 0;
                state.stats.queued_replies.fetch_sub(1, Ordering::Relaxed);
                continue;
            }

            self.scratch.clear();
            for slot in self.out.iter().take(run) {
                if let Out::Bytes(b) = slot {
                    self.scratch.extend_from_slice(b);
                }
            }
            let mut off = self.head_written;
            while off < self.scratch.len() {
                match (&self.stream).write(&self.scratch[off..]) {
                    Ok(0) => return FlushState::Dead,
                    Ok(n) => {
                        off += n;
                        if off < self.scratch.len() {
                            shard.partial_writes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        shard.partial_writes.fetch_add(1, Ordering::Relaxed);
                        self.settle(off, state);
                        return FlushState::Blocked;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return FlushState::Dead,
                }
            }
            self.settle(off, state);
        }
    }

    /// After a coalesced write: retire fully-written queue entries and
    /// leave `head_written` pointing into the first unfinished one.
    fn settle(&mut self, mut written: usize, state: &ServerState) {
        while let Some(Out::Bytes(b)) = self.out.front() {
            if written < b.len() {
                break;
            }
            written -= b.len();
            self.out.pop_front();
            state.stats.queued_replies.fetch_sub(1, Ordering::Relaxed);
        }
        self.head_written = written;
    }

    /// Whether the connection has fully quiesced and may close: peer
    /// EOF'd or we are draining, with nothing left to write.
    pub fn finished(&self) -> bool {
        (self.draining || self.read_shut) && self.out.is_empty()
    }

    /// The interest set the poller should hold for the current state.
    /// `blocked` is the last flush outcome (write readiness is only
    /// interesting while the socket buffer is full).
    pub fn desired_interest(&self, blocked: bool, reply_queue_depth: usize) -> Interest {
        let readable = !self.draining
            && !self.read_shut
            && self.waiting.is_none()
            && self.out.len() < reply_queue_depth;
        Interest::rw(readable, blocked)
    }
}

// ---------------------------------------------------------------------
// Data operations (shared by autocommit, interactive, and batch paths)
// ---------------------------------------------------------------------

pub(crate) fn engine_isolation(iso: WireIsolation) -> IsolationLevel {
    match iso {
        WireIsolation::Snapshot => IsolationLevel::Snapshot,
        WireIsolation::Serializable => IsolationLevel::Serializable,
    }
}

pub(crate) fn aborted(reason: AbortReason) -> Response {
    // Writes bounced by degraded mode get the dedicated service-level
    // code: the client's request was fine, the database's write path is
    // down, and a Health probe / later Resume is the way forward.
    let code = match reason {
        AbortReason::ReadOnlyMode => ErrorCode::DegradedReadOnly,
        other => ErrorCode::TxnAborted(other),
    };
    Response::Error { code, detail: reason.label().into() }
}

/// Table and leading key of a data operation.
pub(crate) fn op_target(op: &BatchOp) -> (u32, &[u8]) {
    match op {
        BatchOp::Get { table, key }
        | BatchOp::Put { table, key, .. }
        | BatchOp::Delete { table, key }
        | BatchOp::Insert { table, key, .. } => (*table, key),
        BatchOp::Scan { table, low, .. } => (*table, low),
    }
}

/// Run one data operation inside `txn`. A failure comes back as a
/// `Response::Error`; the caller decides what becomes of the transaction.
pub(crate) fn exec_op(
    state: &ServerState,
    txn: &mut ShardedTransaction<'_>,
    op: &BatchOp,
) -> Response {
    let (table, key) = op_target(op);
    if table as usize >= state.db.table_count() {
        return Response::Error { code: ErrorCode::UnknownTable, detail: format!("table {table}") };
    }
    if key.len() > MAX_KEY_LEN {
        let detail = format!("a {}-byte key exceeds the {MAX_KEY_LEN}-byte limit", key.len());
        return Response::Error { code: ErrorCode::BadState, detail };
    }
    let t = TableId(table);
    let done = match op {
        BatchOp::Get { key, .. } => {
            txn.read(t, key, |v| v.to_vec()).map(|value| Response::Value { value })
        }
        // Upsert: update if present in this snapshot, insert otherwise.
        BatchOp::Put { key, value, .. } => txn.update(t, key, value).and_then(|existed| {
            if !existed {
                txn.insert(t, key, value)?;
            }
            Ok(Response::Done { existed })
        }),
        BatchOp::Delete { key, .. } => txn.delete(t, key).map(|existed| Response::Done { existed }),
        BatchOp::Insert { key, value, .. } => {
            txn.insert(t, key, value).map(|oid| Response::Inserted { oid })
        }
        BatchOp::Scan { low, high, limit, .. } => scan(state, txn, t, low, high, *limit),
    };
    done.unwrap_or_else(aborted)
}

fn scan(
    state: &ServerState,
    txn: &mut ShardedTransaction<'_>,
    t: TableId,
    low: &[u8],
    high: &[u8],
    limit: u32,
) -> Result<Response, AbortReason> {
    let index = state.db.primary_index(t);
    // Stay well inside one reply frame: stop collecting before the
    // encoded response could exceed the frame cap.
    let byte_cap = (state.cfg.max_frame_len as usize).saturating_sub(4096);
    let mut bytes = 0usize;
    let mut truncated = false;
    let mut rows: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let limit = if limit == 0 { None } else { Some(limit as usize) };
    txn.scan(index, low, high, limit, |k, v| {
        bytes += k.len() + v.len() + 16;
        if bytes > byte_cap {
            truncated = true;
            return false;
        }
        rows.push((k.to_vec(), v.to_vec()));
        true
    })?;
    Ok(Response::Rows { truncated, rows })
}
