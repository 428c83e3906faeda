//! The wire protocol: length-prefixed, checksummed binary frames.
//!
//! # Frame grammar
//!
//! ```text
//! frame    := len:u32le payload:len*u8 crc:u32le
//! payload  := opcode:u8 body
//! bytes    := len:u32le raw:len*u8          (length-prefixed byte string)
//! ```
//!
//! `len` counts the payload only (1 ..= `max_frame_len`); `crc` is the
//! payload's CRC-32C ([`ermia_common::crc`], the log's checksum too). It
//! replaced IEEE CRC-32 with the payload bytes unchanged: a peer built
//! before gets [`FrameError::BadChecksum`] on its first frame, never a
//! misparse. Only the private `seal`/`check` pair knows this layout:
//! `seal` makes a payload's prefix and trailer, `check` reads them. A
//! frame that fails the length bound, the checksum, or opcode/body
//! decoding is a *protocol error*: the server replies [`Response::Error`]
//! with [`ErrorCode::Protocol`] and closes the connection — it never
//! panics and never desynchronizes silently.
//!
//! # The frame table
//!
//! What each frame is — opcode, fields in wire order, label, and the
//! session states it is legal in — is written down once, as a row of the
//! tables at [`Request`] (`0x01`–`0x13`) and [`Response`] (`0x81`–`0x92`)
//! below. A body is its row's fields back to back, each in the one wire
//! form of its type (the `Wire` impls): integers little-endian, `bool` and
//! the `Option` marker one byte (0 = false/absent), byte strings and text
//! as `bytes`, a list as `n:u32` and `n` elements under a per-type cap.
//! Both enums, both codecs, [`Request::name`], the legality the session
//! dispatcher enforces and the opcode list the sample corpus
//! ([`Request::samples`], [`Response::samples`]) must cover all come from
//! the rows; adding a frame is one row, one handler arm and one sample.
//!
//! A batch `op` is `kind:u8` (the request opcode of Get/Put/Delete/
//! Scan/Insert) followed by that request's body — the five are declared
//! once, for [`Request`] and [`BatchOp`] both; the whole transaction —
//! begin, every op, commit — rides one frame and one reply frame.
//!
//! ```text
//! Traced     hi:u64 lo:u64 parent:u64 inner   0x12   envelope: `inner` is a
//!                                                    complete request payload
//!                                                    to run under the given
//!                                                    trace context
//! ```
//!
//! The `Traced` envelope is the protocol-versioning seam for trace
//! context: an old client never sends opcode 0x12 and an old server
//! rejects it like any unknown opcode, while every un-enveloped request
//! decodes exactly as before (absent = untraced). The trace id must be
//! nonzero and the envelope must not nest.

use std::io::{self, IoSlice, Read, Write};
use std::ops::Range;

use ermia_common::crc::crc32c;
use ermia_common::AbortReason;
use ermia_telemetry::TraceContext;

/// Default cap on payload length; anything larger is rejected before any
/// allocation happens.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Frame overhead besides the payload (length prefix + checksum).
pub const FRAME_OVERHEAD: usize = 8;

/// The length prefix's share of [`FRAME_OVERHEAD`]; the checksum trailer
/// is the rest.
const PREFIX: usize = 4;

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Transport error (includes clean EOF between frames).
    Io(io::Error),
    /// Length prefix of 0 or above the cap.
    BadLength(u32),
    /// Checksum mismatch: the payload was corrupted in flight.
    BadChecksum { expect: u32, got: u32 },
    /// Payload did not decode as a known message.
    Malformed(&'static str),
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::BadLength(n) => write!(f, "frame length {n} out of bounds"),
            FrameError::BadChecksum { expect, got } => {
                write!(f, "frame checksum mismatch (expect {expect:#x}, got {got:#x})")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The bytes a frame puts around `payload`: the length prefix before
/// it and the CRC-32C trailer after it. With [`check`], the only code
/// that knows a frame's layout.
fn seal(payload: &[u8]) -> ([u8; PREFIX], [u8; FRAME_OVERHEAD - PREFIX]) {
    ((payload.len() as u32).to_le_bytes(), crc32c(payload).to_le_bytes())
}

/// One frame holding what `put` appends as its payload, encoded in place
/// behind room for the prefix.
fn framed(put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD);
    frame.extend_from_slice(&[0; PREFIX]);
    put(&mut frame);
    let (prefix, trailer) = seal(&frame[PREFIX..]);
    frame[..PREFIX].copy_from_slice(&prefix);
    frame.extend_from_slice(&trailer);
    frame
}

/// What [`check`] found at the start of a byte run.
enum Checked {
    /// Not a whole frame yet: it spans this many bytes in all (the
    /// prefix's, while the prefix itself is incomplete).
    Short(usize),
    /// A whole frame that passed both checks, and where its payload lies.
    Whole { payload: Range<usize>, end: usize },
}

/// The frame at the start of `bytes`: its length bound is enforced as
/// soon as the prefix is there (before anybody sizes a buffer by it),
/// its checksum once the trailer is.
fn check(bytes: &[u8], max_len: u32) -> Result<Checked, FrameError> {
    let Some(prefix) = bytes.first_chunk::<PREFIX>() else {
        return Ok(Checked::Short(PREFIX));
    };
    let len = u32::from_le_bytes(*prefix);
    if len == 0 || len > max_len {
        return Err(FrameError::BadLength(len));
    }
    let payload = PREFIX..PREFIX + len as usize;
    let end = payload.end + (FRAME_OVERHEAD - PREFIX);
    let Some(trailer) = bytes.get(payload.end..).and_then(<[u8]>::first_chunk) else {
        return Ok(Checked::Short(end));
    };
    let got = u32::from_le_bytes(*trailer);
    let expect = crc32c(&bytes[payload.clone()]);
    if got != expect {
        return Err(FrameError::BadChecksum { expect, got });
    }
    Ok(Checked::Whole { payload, end })
}

/// Write one frame (length prefix, payload, checksum) straight from
/// `payload`: one vectored write of the three pieces where the writer
/// takes them whole, no buffer of its own.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(!payload.is_empty());
    let (prefix, trailer) = seal(payload);
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(payload), IoSlice::new(&trailer)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame's payload, enforcing `max_len` *before* allocating and
/// verifying the checksum after.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>, FrameError> {
    // Two reads: the prefix, then the rest of the frame it announces.
    let mut prefix = [0; PREFIX];
    r.read_exact(&mut prefix)?;
    let Checked::Short(end) = check(&prefix, max_len)? else {
        unreachable!("a prefix alone is never a whole frame")
    };
    let mut frame = Vec::with_capacity(end);
    frame.extend_from_slice(&prefix);
    frame.resize(end, 0);
    r.read_exact(&mut frame[PREFIX..])?;
    let Checked::Whole { payload, .. } = check(&frame, max_len)? else {
        unreachable!("a frame is whole once the length its prefix announces is read")
    };
    frame.truncate(payload.end);
    frame.drain(..payload.start);
    Ok(frame)
}

/// Incremental frame decoder for non-blocking transports.
///
/// Bytes arrive in arbitrary readiness-sized chunks via [`FrameAssembler::feed`];
/// [`FrameAssembler::next_frame`] yields each complete payload exactly as
/// [`read_frame`] would have, enforcing the length cap *before* the body
/// is buffered and verifying the checksum once the trailer lands. Errors
/// are sticky in the same sense as a blocking stream: the caller is
/// expected to drop the connection, not resynchronize.
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` — compacted lazily to amortize the memmove.
    pos: usize,
    max_len: u32,
}

impl FrameAssembler {
    pub fn new(max_len: u32) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), pos: 0, max_len }
    }

    /// Append newly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived session doesn't drag the
        // consumed prefix of every previous frame behind it.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether [`FrameAssembler::next_frame`] would make progress right
    /// now — a complete frame is buffered, or an error is detectable.
    pub fn has_frame(&self) -> bool {
        !matches!(check(&self.buf[self.pos..], self.max_len), Ok(Checked::Short(_)))
    }

    /// Pop the next complete frame payload, `Ok(None)` if more bytes are
    /// needed, or the same `FrameError` the blocking reader would raise.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.pos..];
        match check(avail, self.max_len)? {
            Checked::Short(_) => Ok(None),
            Checked::Whole { payload, end } => {
                let payload = avail[payload].to_vec();
                self.pos += end;
                Ok(Some(payload))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

/// A cursor over a frame payload being decoded.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Set while decoding a reply carried inside a `BatchDone`, which
    /// must not carry a `BatchDone` of its own.
    nested: bool,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0, nested: false }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(FrameError::Malformed("truncated body"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = u32::get(self)? as usize;
        self.take(n)
    }

    /// The whole of what is left: one value, then nothing.
    fn whole<T: Wire>(mut self) -> Result<T, FrameError> {
        let v = T::get(&mut self)?;
        if self.pos != self.buf.len() {
            return Err(FrameError::Malformed("trailing bytes"));
        }
        Ok(v)
    }
}

/// A value with exactly one wire form. Every field type of the frame
/// table implements it, and a frame's body is its fields' forms back to
/// back — so a new frame needs no codec of its own.
pub(crate) trait Wire: Sized {
    fn put(&self, e: &mut Vec<u8>);
    fn get(d: &mut Dec<'_>) -> Result<Self, FrameError>;
}

fn encode_payload(v: &impl Wire) -> Vec<u8> {
    let mut e = Vec::new();
    v.put(&mut e);
    e
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, e: &mut Vec<u8>) {
                e.extend_from_slice(&self.to_le_bytes());
            }

            fn get(d: &mut Dec<'_>) -> Result<$t, FrameError> {
                let raw = d.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("take returns the length asked")))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

impl Wire for bool {
    fn put(&self, e: &mut Vec<u8>) {
        e.push(*self as u8);
    }

    fn get(d: &mut Dec<'_>) -> Result<bool, FrameError> {
        Ok(u8::get(d)? != 0)
    }
}

/// `bytes`: the length is checked against what is left of the payload
/// before anything is copied.
impl Wire for Vec<u8> {
    fn put(&self, e: &mut Vec<u8>) {
        (self.len() as u32).put(e);
        e.extend_from_slice(self);
    }

    fn get(d: &mut Dec<'_>) -> Result<Vec<u8>, FrameError> {
        Ok(d.bytes()?.to_vec())
    }
}

/// Text is `bytes`; a peer's invalid UTF-8 is replaced, never refused.
impl Wire for String {
    fn put(&self, e: &mut Vec<u8>) {
        (self.len() as u32).put(e);
        e.extend_from_slice(self.as_bytes());
    }

    fn get(d: &mut Dec<'_>) -> Result<String, FrameError> {
        Ok(String::from_utf8_lossy(d.bytes()?).into_owned())
    }
}

/// `present:u8 [value]`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Vec<u8>) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Option<T>, FrameError> {
        Ok(if bool::get(d)? { Some(T::get(d)?) } else { None })
    }
}

macro_rules! wire_tuple {
    ($($T:ident $i:tt),+) => {
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            fn put(&self, e: &mut Vec<u8>) {
                $(self.$i.put(e);)+
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, FrameError> {
                Ok(($($T::get(d)?,)+))
            }
        }
    };
}
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// A struct whose wire form is the named fields, in the order named.
macro_rules! wire_struct {
    ($T:ident { $($f:ident),+ }) => {
        impl Wire for $T {
            fn put(&self, e: &mut Vec<u8>) {
                $(self.$f.put(e);)+
            }

            fn get(d: &mut Dec<'_>) -> Result<$T, FrameError> {
                Ok($T { $($f: Wire::get(d)?),+ })
            }
        }
    };
}

/// An element a frame may carry a list of. `Vec<Self>` is `n:u32` then
/// `n` elements; a count above `CAP` is refused before the decoder
/// allocates or loops for it.
pub(crate) trait Listed: Wire {
    const CAP: u32;
    /// The `Malformed` text of a count above the cap.
    const OVER: &'static str;
}

impl<T: Listed> Wire for Vec<T> {
    fn put(&self, e: &mut Vec<u8>) {
        (self.len() as u32).put(e);
        for item in self {
            item.put(e);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Vec<T>, FrameError> {
        let n = u32::get(d)?;
        if n > T::CAP {
            return Err(FrameError::Malformed(T::OVER));
        }
        let mut items = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            items.push(T::get(d)?);
        }
        Ok(items)
    }
}

/// Cap on ops per batch frame: a bound the session enforces before doing
/// any work, so a hostile frame cannot make one transaction arbitrarily
/// large.
pub const MAX_BATCH_OPS: u32 = 10_000;

/// Cap on segment entries in one `ReplStatus` frame.
const MAX_REPL_SEGMENTS: u32 = 1 << 20;

impl Listed for BatchOp {
    const CAP: u32 = MAX_BATCH_OPS;
    const OVER: &'static str = "batch too large";
}

/// A scan row, `(key, value)`.
impl Listed for (Vec<u8>, Vec<u8>) {
    const CAP: u32 = MAX_FRAME_LEN / 8;
    const OVER: &'static str = "row count";
}

impl Listed for WireSegment {
    const CAP: u32 = MAX_REPL_SEGMENTS;
    const OVER: &'static str = "segment count";
}

// ---------------------------------------------------------------------
// The frame table
// ---------------------------------------------------------------------

/// Builds a message enum from its rows, `opcode Variant { field: Type,
/// .. };` — the enum itself, its codec (the opcode byte, then every field
/// in row order in its [`Wire`] form) and the list of its opcodes. A row
/// written `opcode Variant(name: Type);` is a one-field tuple variant,
/// for a body that is a struct of its own (see `wire_struct!`).
macro_rules! frames {
    (
        $(#[$meta:meta])*
        enum $Enum:ident, else $unknown:literal;
        $(
            $(#[$vmeta:meta])*
            $op:literal $Var:ident $({ $($f:ident: $t:ty),* })? $(($b:ident: $bt:ty))?;
        )*
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum $Enum {
            $($(#[$vmeta])* $Var $({ $($f: $t),* })? $(($bt))?,)*
        }

        impl $Enum {
            /// Every opcode in the table, in row order.
            #[cfg(test)]
            const OPCODES: &'static [u8] = &[$($op),*];
        }

        impl Wire for $Enum {
            fn put(&self, e: &mut Vec<u8>) {
                match self {$(
                    Self::$Var { $($($f),*)? $(0: $b)? } => {
                        e.push($op);
                        $($($f.put(e);)*)?
                        $($b.put(e);)?
                    }
                )*}
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, FrameError> {
                Ok(match u8::get(d)? {
                    $($op => Self::$Var { $($($f: Wire::get(d)?),*)? $(0: <$bt>::get(d)?)? },)*
                    _ => return Err(FrameError::Malformed($unknown)),
                })
            }
        }
    };
}

/// The session states a request is legal in. This column *is* the
/// session state machine for every frame but `Begin`, `Commit` and
/// `Abort`, which move a session between the two states; the text is the
/// [`ErrorCode::BadState`] refusal sent in the other state.
pub(crate) enum Legal {
    Always,
    /// Only between transactions.
    Idle(&'static str),
    /// Only inside `Begin` … `Commit`/`Abort`.
    InTxn(&'static str),
}

/// The request table: `opcode Variant { fields }: label, legality;`. The
/// `ops` rows are the data operations — requests in their own right
/// (autocommitted between transactions, run in the open one otherwise,
/// so always legal) and, with the same opcode and body, the ops of a
/// `Batch`.
macro_rules! requests {
    (
        $(#[$ometa:meta])*
        ops $Op:ident {$(
            $(#[$dmeta:meta])*
            $dop:literal $DVar:ident { $($df:ident: $dt:ty),* }: $dlabel:literal;
        )*}
        $(#[$rmeta:meta])*
        enum $Req:ident {$(
            $(#[$vmeta:meta])*
            $op:literal $Var:ident $({ $($f:ident: $t:ty),* })?: $label:literal, $legal:expr;
        )*}
    ) => {
        frames! {
            $(#[$ometa])*
            enum $Op, else "batch op kind";
            $($(#[$dmeta])* $dop $DVar { $($df: $dt),* };)*
        }

        frames! {
            $(#[$rmeta])*
            enum $Req, else "unknown request opcode";
            $($(#[$dmeta])* $dop $DVar { $($df: $dt),* };)*
            $($(#[$vmeta])* $op $Var $({ $($f: $t),* })?;)*
        }

        impl $Req {
            /// The frame's label: the `op` of trace spans and of the
            /// slow-op log.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Self::$DVar { .. } => $dlabel,)*
                    $(Self::$Var { .. } => $label,)*
                }
            }

            pub(crate) fn legal(&self) -> Legal {
                use Legal::*;
                match self {
                    $(Self::$DVar { .. } => Always,)*
                    $(Self::$Var { .. } => $legal,)*
                }
            }

            /// The data operation this request is, or the request back.
            pub(crate) fn into_op(self) -> Result<$Op, $Req> {
                match self {
                    $(Self::$DVar { $($df),* } => Ok($Op::$DVar { $($df),* }),)*
                    other => Err(other),
                }
            }
        }
    };
}

requests! {
    /// One operation inside a [`Request::Batch`].
    ops BatchOp {
        0x04 Get { table: u32, key: Vec<u8> }: "get";
        /// Upsert.
        0x05 Put { table: u32, key: Vec<u8>, value: Vec<u8> }: "put";
        0x06 Delete { table: u32, key: Vec<u8> }: "delete";
        /// Inclusive bounds; `limit` 0 = unlimited.
        0x07 Scan { table: u32, low: Vec<u8>, high: Vec<u8>, limit: u32 }: "scan";
        /// A duplicate key aborts.
        0x0B Insert { table: u32, key: Vec<u8>, value: Vec<u8> }: "insert";
    }

    /// A client → server message.
    enum Request {
        0x01 Ping: "ping", Always;
        /// Create-or-lookup.
        0x02 OpenTable { name: Vec<u8> }: "open_table", Always;
        0x03 Begin { isolation: WireIsolation }: "begin", Idle("nested begin");
        0x08 Commit { sync: bool }: "commit", InTxn("no open txn");
        0x09 Abort: "abort", InTxn("no open txn");
        /// A one-shot transaction: begin, every op, commit.
        0x0A Batch { isolation: WireIsolation, sync: bool, ops: Vec<BatchOp> }:
            "batch", Idle("batch inside open txn");
        /// Scrape the server's telemetry registry (Prometheus text
        /// format). Telemetry reads are legal mid-transaction (and
        /// useful: scrape while a stall is in progress).
        0x0C Metrics: "metrics", Always;
        /// Dump the flight recorder's most recent events; `max` 0 means the
        /// server default cap.
        0x0D DumpEvents { max: u32 }: "dump_events", Always;
        /// Probe the database service state (active vs. degraded read-only)
        /// and the durable log frontier. Legal at any point in a session,
        /// including mid-transaction — a client whose writes start
        /// bouncing wants to ask why without abandoning its transaction.
        0x0E Health: "health", Always;
        /// Operator request: leave degraded read-only mode by re-probing the
        /// storage backend and re-arming the flusher. Replies with a fresh
        /// `Health` frame on success, `DegradedReadOnly` on failure.
        0x0F Resume: "resume", Always;
        /// Start (or refresh) a log-shipping subscription on `shard`. Pins
        /// the primary's log against truncation from `from` onward and
        /// replies with a [`Response::ReplStatus`] describing what can be
        /// fetched. Doubles as the per-round status poll: re-sending with a
        /// higher `from` advances the retention pin.
        0x10 Subscribe { shard: u32, from: u64 }:
            "subscribe", Idle("log shipping inside open txn");
        /// Read `len` bytes at `offset` from the subscribed shard's shipped
        /// store: `source` 0 = the pinned checkpoint payload, 1 = the log
        /// (every value rides in its transaction's block); any other
        /// source is `BadState`. Replies with a [`Response::SegmentChunk`].
        0x11 FetchChunk { shard: u32, source: u8, offset: u64, len: u32 }:
            "fetch_chunk", Idle("log shipping inside open txn");
        /// Dump recent spans from the tracing rings (plus the slow-op
        /// retention buffers); `max` 0 means the server default cap.
        /// Replies with a [`Response::Traces`].
        0x13 DumpTraces { max: u32 }: "dump_traces", Always;
    }
}

/// Opcode of the trace envelope — not a request of its own (it has no
/// row), so it is kept out of the table's opcodes by a test.
const OP_TRACED: u8 = 0x12;

/// Whether a frame payload starts with the trace envelope. A cheap peek
/// the dispatcher uses to skip the clock read on untraced frames.
pub(crate) fn is_traced_frame(payload: &[u8]) -> bool {
    payload.first() == Some(&OP_TRACED)
}

impl Request {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode_payload(self)
    }

    /// Serialize with a [`TraceContext`] envelope (opcode `0x12`): the
    /// context words followed by this request's complete payload. An
    /// untraced context (zero id) encodes the bare request instead —
    /// absence is the untraced representation, never a zero-filled
    /// envelope.
    pub fn encode_traced(&self, ctx: &TraceContext) -> Vec<u8> {
        let mut e = Vec::new();
        self.put_traced(ctx, &mut e);
        e
    }

    fn put_traced(&self, ctx: &TraceContext, e: &mut Vec<u8>) {
        if ctx.is_traced() {
            e.push(OP_TRACED);
            (ctx.trace_hi, ctx.trace_lo, ctx.parent).put(e);
        }
        self.put(e);
    }

    /// [`Request::encode_traced`] as one frame, encoded straight into
    /// the frame's buffer.
    pub(crate) fn frame(&self, ctx: &TraceContext) -> Vec<u8> {
        framed(|f| self.put_traced(ctx, f))
    }

    /// Decode a frame payload that may carry the trace envelope. Bare
    /// (old-format) payloads decode exactly as [`Request::decode`] with
    /// no context; an envelope yields the inner request plus its
    /// context. A zero trace id or a nested envelope is malformed.
    pub fn decode_traced(payload: &[u8]) -> Result<(Request, Option<TraceContext>), FrameError> {
        if !is_traced_frame(payload) {
            return Ok((Request::decode(payload)?, None));
        }
        let mut d = Dec::new(&payload[1..]);
        let (trace_hi, trace_lo, parent) = Wire::get(&mut d)?;
        let ctx = TraceContext { trace_hi, trace_lo, parent };
        if !ctx.is_traced() {
            return Err(FrameError::Malformed("zero trace id"));
        }
        let inner = &payload[1 + 24..];
        if is_traced_frame(inner) {
            return Err(FrameError::Malformed("nested trace envelope"));
        }
        Ok((Request::decode(inner)?, Some(ctx)))
    }

    /// Decode a frame payload. Rejects unknown opcodes, truncated bodies,
    /// oversized batches, and trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        Dec::new(payload).whole()
    }

    /// At least one request per row of the table (a test holds it to
    /// that): the corpus the roundtrip, truncation and corruption tests
    /// iterate, so a new frame is fuzzed once it has a sample here.
    pub fn samples() -> Vec<Request> {
        let ops = vec![
            BatchOp::Get { table: 1, key: b"a".to_vec() },
            BatchOp::Put { table: 1, key: b"b".to_vec(), value: b"1".to_vec() },
            BatchOp::Delete { table: 2, key: b"c".to_vec() },
            BatchOp::Scan { table: 1, low: vec![], high: vec![0xFF], limit: 0 },
            BatchOp::Insert { table: 3, key: b"d".to_vec(), value: b"2".to_vec() },
        ];
        vec![
            Request::Ping,
            Request::OpenTable { name: b"fuzz".to_vec() },
            Request::Begin { isolation: WireIsolation::Serializable },
            Request::Get { table: 0, key: b"k".to_vec() },
            Request::Put { table: 0, key: vec![], value: vec![0xFF; 40] },
            Request::Delete { table: 9, key: b"x".to_vec() },
            Request::Scan { table: 0, low: b"a".to_vec(), high: b"z".to_vec(), limit: 5 },
            Request::Commit { sync: true },
            Request::Commit { sync: false },
            Request::Abort,
            Request::Batch { isolation: WireIsolation::Snapshot, sync: true, ops },
            Request::Insert { table: 2, key: b"k".to_vec(), value: b"v".to_vec() },
            Request::Metrics,
            Request::DumpEvents { max: 256 },
            Request::Health,
            Request::Resume,
            Request::Subscribe { shard: 3, from: 0xDEAD_BEEF },
            Request::FetchChunk { shard: 0, source: 1, offset: 1 << 40, len: 65536 },
            Request::DumpTraces { max: 0 },
        ]
    }
}

/// Requested isolation level on the wire: 0 = SI, 1 = SSN.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireIsolation {
    Snapshot,
    Serializable,
}

impl Wire for WireIsolation {
    fn put(&self, e: &mut Vec<u8>) {
        e.push(match self {
            WireIsolation::Snapshot => 0,
            WireIsolation::Serializable => 1,
        });
    }

    fn get(d: &mut Dec<'_>) -> Result<WireIsolation, FrameError> {
        match u8::get(d)? {
            0 => Ok(WireIsolation::Snapshot),
            1 => Ok(WireIsolation::Serializable),
            _ => Err(FrameError::Malformed("isolation level")),
        }
    }
}

/// Typed error codes on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// Malformed/corrupt frame or unknown opcode; the server closes the
    /// connection after sending this.
    Protocol,
    /// Request illegal in the current session state (e.g. `Commit`
    /// without `Begin`), or one no state makes legal: a key longer than
    /// `ermia_log::MAX_KEY_LEN`.
    BadState,
    /// Table id not in the catalog.
    UnknownTable,
    /// The server is shutting down; in-flight durable commits still
    /// drain, everything else is refused.
    ShuttingDown,
    /// A sync commit's durability wait timed out. The transaction *is*
    /// applied in memory and its block may be on disk; its durable fate
    /// is indeterminate until restart recovery.
    LogStalled,
    /// The log is poisoned by an unrecoverable I/O error; the commit will
    /// never become durable without a restart.
    LogFailed,
    /// The database is in degraded read-only mode: the write path is down
    /// (poisoned log) but reads keep serving. Writes are refused until an
    /// operator repairs the storage and sends [`Request::Resume`].
    DegradedReadOnly,
    /// The transaction aborted; the payload carries the engine reason.
    TxnAborted(AbortReason),
}

/// Every error code with its wire byte; 16 and up carry the engine's
/// abort reason. (A test holds the table to every [`AbortReason`].)
const ERROR_CODES: [(u8, ErrorCode); 16] = [
    (1, ErrorCode::Protocol),
    (2, ErrorCode::BadState),
    (3, ErrorCode::UnknownTable),
    (4, ErrorCode::ShuttingDown),
    (5, ErrorCode::LogStalled),
    (6, ErrorCode::LogFailed),
    (7, ErrorCode::DegradedReadOnly),
    (16, ErrorCode::TxnAborted(AbortReason::WriteWriteConflict)),
    (17, ErrorCode::TxnAborted(AbortReason::SsnExclusion)),
    (18, ErrorCode::TxnAborted(AbortReason::ReadValidation)),
    (19, ErrorCode::TxnAborted(AbortReason::Phantom)),
    (20, ErrorCode::TxnAborted(AbortReason::DuplicateKey)),
    (21, ErrorCode::TxnAborted(AbortReason::UserRequested)),
    (22, ErrorCode::TxnAborted(AbortReason::ResourceExhausted)),
    (23, ErrorCode::TxnAborted(AbortReason::LogFailure)),
    (24, ErrorCode::TxnAborted(AbortReason::ReadOnlyMode)),
];

impl Wire for ErrorCode {
    fn put(&self, e: &mut Vec<u8>) {
        let row = ERROR_CODES.iter().find(|(_, code)| code == self);
        e.push(row.expect("every error code has a row in ERROR_CODES").0);
    }

    fn get(d: &mut Dec<'_>) -> Result<ErrorCode, FrameError> {
        let byte = u8::get(d)?;
        let row = ERROR_CODES.iter().find(|(b, _)| *b == byte);
        row.map(|(_, code)| *code).ok_or(FrameError::Malformed("error code"))
    }
}

/// One sealed-or-open log segment visible to a subscriber:
/// `(index, start, end)` where `end` is exclusive and clamped to the
/// durable frontier on the open segment.
pub type WireSegment = (u64, u64, u64);

/// The reply to [`Request::Subscribe`]: everything a replica needs to
/// plan its next fetch round (the schema is in the log it fetches). On
/// the wire, the fields in this order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplStatus {
    /// Node role: 0 = primary, 1 = replica.
    pub role: u8,
    /// Service state: 0 = active, 1 = degraded read-only.
    pub state: u8,
    /// The shard's durable log frontier (byte offset). Only bytes below
    /// this are shipped; allocated-but-unflushed bytes never leave the
    /// primary.
    pub durable_lsn: u64,
    /// Earliest retained log offset. A subscriber whose resume point
    /// fell below this must bootstrap from the checkpoint instead.
    pub earliest: u64,
    /// The shard's log segment size; a replica can only apply segments
    /// written with the same geometry, so it must match.
    pub segment_size: u64,
    /// Pinned checkpoint, when the subscription needs one:
    /// `(begin raw LSN, payload length)`. Fetch with `source` 0.
    pub checkpoint: Option<(u64, u64)>,
    /// Segments holding `[earliest, durable_lsn)`, oldest first.
    pub segments: Vec<WireSegment>,
}

wire_struct!(ReplStatus { role, state, durable_lsn, earliest, segment_size, checkpoint, segments });

frames! {
    /// A server → client message.
    enum Response, else "unknown response opcode";
    0x81 Pong;
    0x82 TableId { id: u32 };
    0x83 Begun;
    0x84 Value { value: Option<Vec<u8>> };
    0x85 Done { existed: bool };
    0x86 Rows { truncated: bool, rows: Vec<(Vec<u8>, Vec<u8>)> };
    0x87 Committed { lsn: u64 };
    0x88 Aborted;
    0x89 Error { code: ErrorCode, detail: String };
    /// Load shed, try later.
    0x8A Busy;
    0x8B Inserted { oid: u64 };
    /// Per-op replies, then the outcome (`Committed` or `Error`), each
    /// as `len:u32` and a complete reply payload.
    0x8C BatchDone { results: Vec<Response>, outcome: Box<Response> };
    /// Prometheus text exposition (version 0.0.4).
    0x8D Metrics { text: String };
    /// Human-readable flight-recorder dump.
    0x8E Events { text: String };
    /// Service-state probe reply: `state` 0 = active, 1 = degraded
    /// read-only; `role` 0 = primary, 1 = replica; `durable_lsn` is the
    /// durable log frontier; `applied_lsn` is the replica's applied log
    /// offset (0 on a primary).
    0x8F Health { state: u8, role: u8, durable_lsn: u64, applied_lsn: u64 };
    /// Subscription status (reply to [`Request::Subscribe`]).
    0x90 ReplStatus(status: ReplStatus);
    /// Raw shipped bytes (reply to [`Request::FetchChunk`]). `data` may
    /// be shorter than the requested length at the durable frontier or
    /// a segment/payload boundary; empty means nothing available there.
    0x91 SegmentChunk { offset: u64, data: Vec<u8> };
    /// Serialized span dump (reply to [`Request::DumpTraces`]); one
    /// span per line, parseable by `ermia_telemetry::parse_spans`.
    0x92 Traces { text: String };
}

/// A reply carried inside a `BatchDone`: `len:u32` and a complete reply
/// payload of its own.
fn put_nested(resp: &Response, e: &mut Vec<u8>) {
    let at = e.len();
    e.extend_from_slice(&[0; 4]);
    resp.put(e);
    let len = (e.len() - at - 4) as u32;
    e[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn get_nested(d: &mut Dec<'_>) -> Result<Response, FrameError> {
    Dec { buf: d.bytes()?, pos: 0, nested: true }.whole()
}

/// The per-op replies of a `BatchDone`. The server never nests one
/// `BatchDone` in another, and a decoder that followed a peer's nesting
/// would recurse once per nine bytes of frame until its stack ran out —
/// so a nested reply that starts a list of its own is malformed.
impl Wire for Vec<Response> {
    fn put(&self, e: &mut Vec<u8>) {
        (self.len() as u32).put(e);
        for resp in self {
            put_nested(resp, e);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Vec<Response>, FrameError> {
        if d.nested {
            return Err(FrameError::Malformed("nested batch reply"));
        }
        let n = u32::get(d)?;
        if n > MAX_BATCH_OPS {
            return Err(FrameError::Malformed("batch result count"));
        }
        let mut results = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            results.push(get_nested(d)?);
        }
        Ok(results)
    }
}

/// The outcome of a `BatchDone`.
impl Wire for Box<Response> {
    fn put(&self, e: &mut Vec<u8>) {
        put_nested(self, e);
    }

    fn get(d: &mut Dec<'_>) -> Result<Box<Response>, FrameError> {
        get_nested(d).map(Box::new)
    }
}

impl Response {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode_payload(self)
    }

    /// This reply as one frame, encoded straight into the frame's buffer.
    pub(crate) fn frame(&self) -> Vec<u8> {
        framed(|f| self.put(f))
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, FrameError> {
        Dec::new(payload).whole()
    }

    /// At least one reply per row of the table, and an `Error` per error
    /// code; see [`Request::samples`].
    pub fn samples() -> Vec<Response> {
        let mut samples = vec![
            Response::Pong,
            Response::TableId { id: 7 },
            Response::Begun,
            Response::Value { value: None },
            Response::Value { value: Some(b"payload".to_vec()) },
            Response::Done { existed: true },
            Response::Rows {
                truncated: false,
                rows: vec![(b"k1".to_vec(), b"v1".to_vec()), (b"k2".to_vec(), vec![])],
            },
            Response::Committed { lsn: u64::MAX >> 1 },
            Response::Aborted,
            Response::Busy,
            Response::Inserted { oid: 42 },
            Response::BatchDone {
                results: vec![
                    Response::Value { value: Some(b"x".to_vec()) },
                    Response::Done { existed: false },
                ],
                outcome: Box::new(Response::Committed { lsn: 99 }),
            },
            Response::Metrics { text: "# TYPE ermia_x counter\nermia_x 1\n".into() },
            Response::Events { text: "flight-recorder dump: 0 event(s)".into() },
            Response::Health { state: 1, role: 1, durable_lsn: u64::MAX >> 8, applied_lsn: 9 },
            Response::ReplStatus(ReplStatus {
                role: 0,
                state: 0,
                durable_lsn: 1 << 30,
                earliest: 4096,
                segment_size: 1 << 26,
                checkpoint: Some((0x1234_5670, 8888)),
                segments: vec![(0, 0, 1 << 26), (1, 1 << 26, (1 << 26) + 512)],
            }),
            Response::ReplStatus(ReplStatus {
                role: 1,
                state: 1,
                durable_lsn: 0,
                earliest: 0,
                segment_size: 1 << 20,
                checkpoint: None,
                segments: vec![],
            }),
            Response::SegmentChunk { offset: 0, data: vec![] },
            Response::SegmentChunk { offset: 77, data: vec![0xA5; 300] },
            Response::Traces { text: "span trace=0000000000000001:0000000000000002\n".into() },
        ];
        samples.extend(
            ERROR_CODES.iter().map(|&(_, code)| Response::Error { code, detail: "why".into() }),
        );
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sample_roundtrips() {
        for req in Request::samples() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
            // Every pre-envelope frame must pass through decode_traced
            // unchanged — this is the compatibility seam.
            assert_eq!(Request::decode_traced(&req.encode()).unwrap(), (req, None));
        }
        for resp in Response::samples() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// A row added to a table without a sample fails here, and with a
    /// sample it is in every roundtrip, truncation and corruption test.
    #[test]
    fn samples_cover_every_row_of_the_tables() {
        let first_bytes = |payloads: Vec<Vec<u8>>| {
            let mut ops: Vec<u8> = payloads.iter().map(|p| p[0]).collect();
            ops.sort_unstable();
            ops.dedup();
            ops
        };
        let sorted = |ops: &[u8]| {
            let mut ops = ops.to_vec();
            ops.sort_unstable();
            ops
        };
        let reqs = Request::samples();
        assert_eq!(
            first_bytes(reqs.iter().map(Request::encode).collect()),
            sorted(Request::OPCODES)
        );
        assert_eq!(
            first_bytes(Response::samples().iter().map(Response::encode).collect()),
            sorted(Response::OPCODES)
        );
        let batch_ops = reqs.iter().find_map(|r| match r {
            Request::Batch { ops, .. } => Some(ops.iter().map(encode_payload).collect()),
            _ => None,
        });
        assert_eq!(first_bytes(batch_ops.expect("a Batch sample")), sorted(BatchOp::OPCODES));
        // The envelope's opcode must stay free, and no two rows may share
        // one (the later row would be unreachable in the decoder).
        assert!(!Request::OPCODES.contains(&OP_TRACED));
        for table in [Request::OPCODES, Response::OPCODES] {
            let mut distinct = sorted(table);
            distinct.dedup();
            assert_eq!(distinct.len(), table.len(), "an opcode appears in two rows");
        }
    }

    #[test]
    fn every_abort_reason_has_an_error_code_row() {
        for reason in AbortReason::ALL {
            let resp =
                Response::Error { code: ErrorCode::TxnAborted(reason), detail: String::new() };
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
        let mut bytes: Vec<u8> = ERROR_CODES.iter().map(|(b, _)| *b).collect();
        bytes.dedup();
        assert_eq!(bytes.len(), ERROR_CODES.len(), "a byte names two error codes");
    }

    #[test]
    fn a_batch_reply_inside_a_batch_reply_is_malformed() {
        let flat = Response::BatchDone {
            results: vec![Response::Done { existed: true }],
            outcome: Box::new(Response::Committed { lsn: 1 }),
        };
        for nested in [
            Response::BatchDone { results: vec![flat.clone()], outcome: Box::new(Response::Pong) },
            Response::BatchDone { results: vec![], outcome: Box::new(flat.clone()) },
        ] {
            match Response::decode(&nested.encode()) {
                Err(FrameError::Malformed("nested batch reply")) => {}
                other => panic!("nesting not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn frame_roundtrip_and_checksum() {
        let payload = Request::Get { table: 1, key: b"key".to_vec() }.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), payload.len() + FRAME_OVERHEAD);
        let got = read_frame(&mut &wire[..], MAX_FRAME_LEN).unwrap();
        assert_eq!(got, payload);

        // Flip one payload bit: the checksum must catch it.
        let mut corrupt = wire.clone();
        corrupt[5] ^= 0x40;
        match read_frame(&mut &corrupt[..], MAX_FRAME_LEN) {
            Err(FrameError::BadChecksum { .. }) => {}
            other => panic!("corruption not caught: {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let payload = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 1..wire.len() {
            match read_frame(&mut &wire[..cut], MAX_FRAME_LEN) {
                Err(FrameError::Io(_)) | Err(FrameError::BadLength(_)) => {}
                other => panic!("truncation at {cut} not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn assembler_matches_one_shot_reader_at_every_split() {
        let payloads = [
            Request::Ping.encode(),
            Request::Get { table: 3, key: b"split-me".to_vec() }.encode(),
            Request::Put { table: 3, key: b"k".to_vec(), value: vec![0xAB; 300] }.encode(),
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        for cut in 0..=wire.len() {
            let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
            asm.feed(&wire[..cut]);
            asm.feed(&wire[cut..]);
            let mut got = Vec::new();
            while let Some(p) = asm.next_frame().unwrap() {
                got.push(p);
            }
            assert_eq!(got.len(), payloads.len(), "split at {cut}");
            for (g, p) in got.iter().zip(&payloads) {
                assert_eq!(g, p, "split at {cut}");
            }
        }
        // Byte-at-a-time: the pathological readiness pattern.
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        let mut got = 0usize;
        for b in &wire {
            asm.feed(std::slice::from_ref(b));
            while let Some(p) = asm.next_frame().unwrap() {
                assert_eq!(p, payloads[got]);
                got += 1;
            }
        }
        assert_eq!(got, payloads.len());
    }

    /// Both readers answer each frame alike: a length out of bounds is
    /// refused from the prefix alone, before anything is sized by it; the
    /// Ping frame `01000000 01` passes with its CRC-32C trailer and is
    /// refused with the IEEE CRC-32 trailer frames carried before (so a
    /// peer of the old format fails on its first frame, never misparses).
    #[test]
    fn assembler_raises_the_same_errors_as_the_blocking_reader() {
        let ping = |trailer: [u8; 4]| [&[1, 0, 0, 0, 1][..], &trailer].concat();
        let cases = [
            ([&u32::MAX.to_le_bytes()[..], &[0xAB; 16]].concat(), "Err(BadLength(4294967295))"),
            (0u32.to_le_bytes().to_vec(), "Err(BadLength(0))"),
            // 0xa016d052 = CRC-32C(01), 0xa505df1b = CRC-32(01).
            (
                ping([0x1b, 0xdf, 0x05, 0xa5]),
                "Err(BadChecksum { expect: 2685849682, got: 2768625435 })",
            ),
            (ping([0x52, 0xd0, 0x16, 0xa0]), "Ok([1])"),
        ];
        for (bytes, want) in cases {
            let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
            asm.feed(&bytes);
            let assembled = format!("{:?}", asm.next_frame().map(|p| p.expect("a whole frame")));
            let blocking = format!("{:?}", read_frame(&mut &bytes[..], MAX_FRAME_LEN));
            assert_eq!((blocking.as_str(), assembled.as_str()), (want, want));
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_bad_opcodes() {
        let mut enc = Request::Ping.encode();
        enc.push(0);
        assert!(matches!(Request::decode(&enc), Err(FrameError::Malformed(_))));
        assert!(matches!(Request::decode(&[0xF0]), Err(FrameError::Malformed(_))));
        assert!(matches!(Request::decode(&[]), Err(FrameError::Malformed(_))));
        // A batch claiming 4 billion ops must not allocate for them.
        let mut e = Request::Batch { isolation: WireIsolation::Snapshot, sync: false, ops: vec![] }
            .encode();
        let n = e.len();
        e[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Request::decode(&e), Err(FrameError::Malformed("batch too large"))));
    }

    #[test]
    fn trace_envelope_roundtrips() {
        let ctx = TraceContext { trace_hi: 0xABCD, trace_lo: 0x1234, parent: 7 };
        let req = Request::Put { table: 3, key: b"k".to_vec(), value: b"v".to_vec() };
        let wire = req.encode_traced(&ctx);
        assert_eq!(wire[0], OP_TRACED);
        let (back, got) = Request::decode_traced(&wire).unwrap();
        assert_eq!(back, req);
        assert_eq!(got, Some(ctx));
    }

    #[test]
    fn untraced_context_encodes_bare_frame() {
        let req = Request::Commit { sync: true };
        let wire = req.encode_traced(&TraceContext::UNTRACED);
        assert_eq!(wire, req.encode());
        let (back, got) = Request::decode_traced(&wire).unwrap();
        assert_eq!(back, req);
        assert_eq!(got, None);
    }

    #[test]
    fn plain_decode_rejects_trace_envelope() {
        // Old servers (no envelope support) treat 0x12 as an unknown
        // opcode; the new plain decoder must keep doing the same.
        let ctx = TraceContext { trace_hi: 1, trace_lo: 2, parent: 0 };
        let wire = Request::Ping.encode_traced(&ctx);
        assert!(matches!(Request::decode(&wire), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn corrupt_trace_envelopes_are_malformed() {
        let ctx = TraceContext { trace_hi: 9, trace_lo: 9, parent: 9 };
        let good = Request::Ping.encode_traced(&ctx);
        let envelope = |hi: u64, lo: u64, inner: &[u8]| {
            let mut e = vec![OP_TRACED];
            (hi, lo, 0u64).put(&mut e);
            e.extend_from_slice(inner);
            e
        };

        // Truncated context words.
        for cut in 1..25 {
            assert!(Request::decode_traced(&good[..cut]).is_err());
        }

        // Zero trace id inside an envelope is malformed: absence of the
        // envelope is the only untraced representation.
        let zero = envelope(0, 0, &Request::Ping.encode());
        assert!(matches!(Request::decode_traced(&zero), Err(FrameError::Malformed(_))));

        // Nested envelopes must not recurse.
        let nested = envelope(1, 1, &good);
        assert!(matches!(Request::decode_traced(&nested), Err(FrameError::Malformed(_))));

        // Envelope with no inner request at all.
        assert!(Request::decode_traced(&envelope(1, 1, &[])).is_err());

        // Trailing garbage after the inner request still fails.
        let mut bad = good.clone();
        bad.push(0xAA);
        assert!(Request::decode_traced(&bad).is_err());
    }
}
