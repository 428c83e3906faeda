//! A small, pipelined client for the ERMIA wire protocol.
//!
//! [`Client`] offers two styles:
//!
//! * **Call**: [`Client::call`] and the typed helpers (`get`, `put`,
//!   `commit`, …) send one request and block for its reply.
//! * **Pipelined**: [`Client::send`] queues requests without waiting;
//!   [`Client::recv`] takes replies in request order. The server
//!   processes a pipelined stream without stalling on durability — a
//!   sync commit's reply is written by the server's writer thread while
//!   the next request is already executing — so a single connection can
//!   keep a full group-commit window in flight.
//!
//! The core client is deliberately dumb: [`Client::call`] does no
//! retries and no reconnects; errors surface as [`ClientError`] and
//! leave the connection in an unusable state. Resilience is opt-in and
//! explicit: [`Client::call_with_retry`] layers a [`RetryPolicy`] —
//! bounded exponential backoff with jitter on `Busy`/`LogStalled`/
//! connect-refused, automatic reconnect on a broken pipe — on top of the
//! same dumb call, for callers (like the chaos harness) whose requests
//! are safe to repeat.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ermia_common::rng::SplitMix64;
use ermia_telemetry::TraceContext;

use crate::protocol::{
    read_frame, BatchOp, ErrorCode, FrameError, ReplStatus, Request, Response, WireIsolation,
    MAX_FRAME_LEN,
};

/// Decoded [`Response::Health`] frame.
#[derive(Clone, Copy, Debug)]
pub struct HealthInfo {
    /// The write path is down; the database serves reads only.
    pub degraded: bool,
    /// Node role: 0 = primary, 1 = replica.
    pub role: u8,
    /// Durable log frontier (byte offset).
    pub durable_lsn: u64,
    /// Replica applied log offset (0 on a primary).
    pub applied_lsn: u64,
}

/// What can go wrong talking to the server.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The byte stream itself was malformed (bad frame, bad checksum).
    Frame(FrameError),
    /// The server replied with an [`Response::Error`] frame.
    Server {
        code: ErrorCode,
        detail: String,
    },
    /// The server shed this request ([`Response::Busy`]).
    Busy,
    /// A structurally valid reply of the wrong kind for this request.
    Unexpected(Response),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Server { code, detail } => write!(f, "server error {code:?}: {detail}"),
            ClientError::Busy => f.write_str("server busy"),
            ClientError::Unexpected(r) => write!(f, "unexpected reply: {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other),
        }
    }
}

pub type ClientResult<T> = Result<T, ClientError>;

/// Rows returned by [`Client::scan`]: `(key, value)` pairs.
pub type ScanRows = Vec<(Vec<u8>, Vec<u8>)>;

/// Retry/backoff policy for [`Client::call_with_retry`].
///
/// Attempt `n` (0-based) sleeps `base_delay * 2^n`, capped at
/// `max_delay`, with up to 50% random jitter subtracted so a fleet of
/// clients bounced by the same incident doesn't reconverge in lockstep.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 0 behaves like 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before attempt `attempt + 1`.
    fn delay(&self, attempt: u32, jitter: &mut SplitMix64) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let nanos = exp.min(self.max_delay).as_nanos() as u64;
        Duration::from_nanos(nanos - jitter.below((nanos / 2).max(1)))
    }
}

/// The body of a typed helper: send `$req` and wait, turn `Error`/`Busy`
/// into errors, take the one expected kind of reply apart — and call any
/// other kind [`ClientError::Unexpected`].
macro_rules! reply {
    ($client:ident, $req:expr, $reply:pat => $out:expr) => {
        match Client::expect_ok($client.call(&$req)?)? {
            $reply => Ok($out),
            other => Err(ClientError::Unexpected(other)),
        }
    };
}

/// One connection to an ERMIA server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The resolved address, kept so [`reconnect`](Client::reconnect)
    /// and the retry helper can re-dial after a broken pipe.
    addr: SocketAddr,
    /// The reply timeout last set, re-applied across reconnects.
    reply_timeout: Option<Duration>,
    /// Requests sent but not yet answered (pipelining depth).
    in_flight: usize,
    /// While set, every sent request is wrapped in the wire trace
    /// envelope carrying this context.
    trace: Option<TraceContext>,
    /// Client-side trace-id generator.
    trace_ids: SplitMix64,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x5EED, |d| d.as_nanos() as u64)
            ^ (addr.port() as u64) << 48;
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            addr,
            reply_timeout: None,
            in_flight: 0,
            trace: None,
            trace_ids: SplitMix64::new(seed),
        })
    }

    /// Drop the current connection (if any is still alive) and dial the
    /// original address again. Any in-flight pipelined requests are
    /// forgotten — their replies belonged to the old connection. Session
    /// state on the server (an open transaction) died with the old
    /// connection too; the server aborted it on disconnect.
    pub fn reconnect(&mut self) -> ClientResult<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.reply_timeout)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = BufWriter::new(stream);
        self.in_flight = 0;
        Ok(())
    }

    /// Set a ceiling on how long [`recv`](Client::recv) blocks.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> ClientResult<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.reply_timeout = timeout;
        Ok(())
    }

    /// Replies owed by the server (requests sent minus replies received).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    // -- tracing --------------------------------------------------------

    /// Mint a fresh 128-bit trace id and attach it to this connection:
    /// every request until [`clear_trace`](Client::clear_trace) rides the
    /// wire trace envelope, so server- and engine-side spans stitch to
    /// one distributed trace. Returns the context (its hex id keys
    /// `dump_traces` output).
    pub fn start_trace(&mut self) -> TraceContext {
        let (hi, lo) = (self.trace_ids.next_u64(), self.trace_ids.next_u64());
        let ctx = TraceContext { trace_hi: hi.max(1), trace_lo: lo, parent: 0 };
        self.trace = Some(ctx);
        ctx
    }

    /// Attach an existing context (propagating a trace started
    /// elsewhere), or `None` to stop tracing.
    pub fn set_trace(&mut self, ctx: Option<TraceContext>) {
        self.trace = ctx.filter(TraceContext::is_traced);
    }

    /// Stop wrapping requests in the trace envelope.
    pub fn clear_trace(&mut self) {
        self.trace = None;
    }

    /// The context currently attached to outgoing requests.
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace
    }

    // -- pipelined interface -------------------------------------------

    /// Queue a request without waiting for its reply. Data is buffered;
    /// call [`flush`](Client::flush) (or [`recv`](Client::recv), which
    /// flushes first) to put it on the wire.
    pub fn send(&mut self, req: &Request) -> ClientResult<()> {
        self.writer.write_all(&req.frame(&self.trace.unwrap_or(TraceContext::UNTRACED)))?;
        self.in_flight += 1;
        Ok(())
    }

    pub fn flush(&mut self) -> ClientResult<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Receive the next reply, in request order.
    pub fn recv(&mut self) -> ClientResult<Response> {
        self.flush()?;
        let payload = read_frame(&mut self.reader, MAX_FRAME_LEN)?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Ok(Response::decode(&payload)?)
    }

    /// Send one request and wait for its reply (no pipelining).
    pub fn call(&mut self, req: &Request) -> ClientResult<Response> {
        self.send(req)?;
        self.recv()
    }

    /// [`call`](Client::call) with bounded retries under `policy`.
    ///
    /// Retried outcomes:
    ///
    /// * [`Response::Busy`] — the server shed the request; nothing
    ///   happened, retrying is always safe.
    /// * [`ErrorCode::LogStalled`] — the durability wait timed out;
    ///   the write *may* be durable.
    /// * Transport failures (connect refused, connection reset, broken
    ///   pipe, unexpected EOF) — the client re-dials the server first;
    ///   the request *may* have been applied before the connection died.
    ///
    /// Because the last two classes are *indeterminate*, only send
    /// requests through here that are safe to repeat: reads, idempotent
    /// upserts (`Put` of an absolute value), `Health`, `Metrics`. A
    /// non-idempotent request (`Insert`, a relative update) can be
    /// applied twice. Terminal replies (`Error` other than the retried
    /// codes, `Busy` after the last attempt) are converted to `Err` like
    /// the typed helpers do; a returned `Ok` response is never `Busy` or
    /// `Error`.
    ///
    /// Must not be called with pipelined requests in flight — their
    /// replies would be mistaken for this call's.
    pub fn call_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> ClientResult<Response> {
        assert_eq!(self.in_flight, 0, "call_with_retry with pipelined requests in flight");
        let mut jitter = SplitMix64::new(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0x5EED, |d| d.subsec_nanos() as u64 ^ (self.addr.port() as u64) << 32),
        );
        let attempts = policy.max_attempts.max(1);
        let mut broken = false;
        let mut last: ClientResult<Response> = Err(ClientError::Busy);
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt - 1, &mut jitter));
            }
            if broken && self.reconnect().is_err() {
                // Server still down (connect refused): count the attempt
                // and keep backing off.
                last = Err(ClientError::Io(std::io::Error::from(
                    std::io::ErrorKind::ConnectionRefused,
                )));
                continue;
            }
            broken = false;
            last = self.call(req);
            match &last {
                Ok(Response::Busy) => {}
                Ok(Response::Error { code: ErrorCode::LogStalled, .. }) => {}
                Ok(_) => break,
                Err(ClientError::Io(e)) if io_severed(e) => broken = true,
                Err(_) => break,
            }
        }
        Self::expect_ok(last?)
    }

    // -- typed helpers --------------------------------------------------

    /// Turn common terminal replies into errors, pass the rest through.
    fn expect_ok(resp: Response) -> ClientResult<Response> {
        match resp {
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            Response::Busy => Err(ClientError::Busy),
            other => Ok(other),
        }
    }

    pub fn ping(&mut self) -> ClientResult<()> {
        reply!(self, Request::Ping, Response::Pong => ())
    }

    /// Create (or look up) a table, returning its id.
    pub fn open_table(&mut self, name: &str) -> ClientResult<u32> {
        let req = Request::OpenTable { name: name.as_bytes().to_vec() };
        reply!(self, req, Response::TableId { id } => id)
    }

    /// Begin an interactive transaction on this connection.
    pub fn begin(&mut self, isolation: WireIsolation) -> ClientResult<()> {
        reply!(self, Request::Begin { isolation }, Response::Begun => ())
    }

    pub fn get(&mut self, table: u32, key: &[u8]) -> ClientResult<Option<Vec<u8>>> {
        reply!(self, Request::Get { table, key: key.to_vec() }, Response::Value { value } => value)
    }

    /// Upsert; returns whether the key already existed.
    pub fn put(&mut self, table: u32, key: &[u8], value: &[u8]) -> ClientResult<bool> {
        let req = Request::Put { table, key: key.to_vec(), value: value.to_vec() };
        reply!(self, req, Response::Done { existed } => existed)
    }

    /// Insert; fails if the key exists. Returns the record's OID.
    pub fn insert(&mut self, table: u32, key: &[u8], value: &[u8]) -> ClientResult<u64> {
        let req = Request::Insert { table, key: key.to_vec(), value: value.to_vec() };
        reply!(self, req, Response::Inserted { oid } => oid)
    }

    /// Delete; returns whether the key existed.
    pub fn delete(&mut self, table: u32, key: &[u8]) -> ClientResult<bool> {
        let req = Request::Delete { table, key: key.to_vec() };
        reply!(self, req, Response::Done { existed } => existed)
    }

    /// Inclusive range scan; `limit` 0 means unlimited. Returns the rows
    /// plus whether the server truncated the result to fit a frame.
    pub fn scan(
        &mut self,
        table: u32,
        low: &[u8],
        high: &[u8],
        limit: u32,
    ) -> ClientResult<(ScanRows, bool)> {
        let req = Request::Scan { table, low: low.to_vec(), high: high.to_vec(), limit };
        reply!(self, req, Response::Rows { truncated, rows } => (rows, truncated))
    }

    /// Commit the open transaction; `sync` waits for durability. Returns
    /// the commit LSN.
    pub fn commit(&mut self, sync: bool) -> ClientResult<u64> {
        reply!(self, Request::Commit { sync }, Response::Committed { lsn } => lsn)
    }

    pub fn abort(&mut self) -> ClientResult<()> {
        reply!(self, Request::Abort, Response::Aborted => ())
    }

    /// Fetch the server's metrics in Prometheus text exposition format.
    /// Parse with [`ermia_telemetry::parse_exposition`] or point any
    /// Prometheus-compatible tooling at `GET /metrics` on the same port.
    pub fn metrics(&mut self) -> ClientResult<String> {
        reply!(self, Request::Metrics, Response::Metrics { text } => text)
    }

    /// Fetch the server's record dump — spans and flight events, the
    /// newest `max` of each class (`0` = the server defaults): one record
    /// per line, parseable with [`ermia_telemetry::parse_spans`] and
    /// renderable as Chrome `trace_event` JSON via
    /// [`ermia_telemetry::chrome_trace_json`].
    pub fn dump_traces(&mut self, max: u32) -> ClientResult<String> {
        reply!(self, Request::DumpTraces { max }, Response::Traces { text } => text)
    }

    /// Probe the database service state: degraded flag, node role, the
    /// durable log frontier, and (on a replica) the applied offset.
    pub fn health(&mut self) -> ClientResult<HealthInfo> {
        reply!(self, Request::Health, Response::Health { state, role, durable_lsn, applied_lsn } =>
            HealthInfo { degraded: state != 0, role, durable_lsn, applied_lsn })
    }

    /// Ask the server to leave degraded read-only mode (after the
    /// operator repaired the storage). Returns the post-resume health.
    /// Fails with [`ErrorCode::DegradedReadOnly`] if the backend re-probe
    /// still fails.
    pub fn resume(&mut self) -> ClientResult<HealthInfo> {
        reply!(self, Request::Resume, Response::Health { state, role, durable_lsn, applied_lsn } =>
            HealthInfo { degraded: state != 0, role, durable_lsn, applied_lsn })
    }

    /// Subscribe to (or refresh) log shipping on `shard`, pinning the
    /// primary's log from `from` onward. Returns the shipping status.
    pub fn subscribe(&mut self, shard: u32, from: u64) -> ClientResult<ReplStatus> {
        reply!(self, Request::Subscribe { shard, from }, Response::ReplStatus(s) => s)
    }

    /// Fetch up to `len` shipped bytes at `offset` from the subscribed
    /// shard (`source` 0 = checkpoint payload, 1 = log). An empty reply
    /// means nothing is available there yet.
    pub fn fetch_chunk(
        &mut self,
        shard: u32,
        source: u8,
        offset: u64,
        len: u32,
    ) -> ClientResult<Vec<u8>> {
        let req = Request::FetchChunk { shard, source, offset, len };
        reply!(self, req, Response::SegmentChunk { data, .. } => data)
    }

    /// Run `ops` as one transaction in a single round trip. Returns the
    /// per-op results and the commit outcome.
    pub fn batch(
        &mut self,
        isolation: WireIsolation,
        sync: bool,
        ops: Vec<BatchOp>,
    ) -> ClientResult<(Vec<Response>, Response)> {
        let req = Request::Batch { isolation, sync, ops };
        reply!(self, req, Response::BatchDone { results, outcome } => (results, *outcome))
    }
}

/// Did this I/O error sever the connection (as opposed to, say, a read
/// timeout on a connection that is still healthy)?
fn io_severed(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected
    )
}

#[cfg(test)]
#[test]
fn the_retry_backoff_stream_is_pinned() {
    let (policy, mut jitter) = (RetryPolicy::default(), SplitMix64::new(0x5EED));
    let ns: Vec<u128> = (0..8).map(|a| policy.delay(a, &mut jitter).as_nanos()).collect();
    let want = [8583948, 16953995, 27180109, 64658803, 154599307, 194306870, 462827632, 646153295];
    assert_eq!(ns, want);
}
