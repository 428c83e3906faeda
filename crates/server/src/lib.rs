//! # ermia-server — network service layer for the ERMIA engine
//!
//! Everything the embedded engine exposes in-process, over a socket:
//!
//! * [`protocol`] — the framed, checksummed wire format (length-prefixed
//!   payload + CRC-32C, the log's checksum), request/response codecs, an incremental
//!   [`FrameAssembler`](protocol::FrameAssembler) for non-blocking
//!   transports, and hardening against malformed input.
//! * [`Server`] — an event-driven TCP front end: N epoll shards each
//!   multiplexing thousands of non-blocking sessions on the shard's own
//!   engine worker (an open interactive transaction is a value between
//!   its frames), explicit `Busy` load shedding, in-order pipelined
//!   replies with write-interest-driven partial-write state, one thread
//!   per shard that also parks its sync commits, and graceful shutdown
//!   that drains in-flight commits.
//! * [`Client`] — a pipelined client library used by the loopback bench
//!   harness and the examples.
//!
//! The layer is std-only:
//! no async runtime, no serialization framework, no `libc` crate.
//! Threads scale with shards, never with connections or open
//! transactions — the engine, not the front end, is meant to be the
//! bottleneck.

pub mod client;
pub mod protocol;

mod conn;
mod poll;
mod server;
mod session;
mod sys;
#[cfg(test)]
mod tests;

pub use client::{Client, ClientError, ClientResult, HealthInfo, RetryPolicy};
pub use protocol::{BatchOp, ErrorCode, FrameError, ReplStatus, Request, Response, WireIsolation};
pub use server::{Server, ServerConfig, StatsSnapshot};
// Clients mint and install these; re-exported so callers don't need a
// direct ermia-telemetry dependency to trace a session.
pub use ermia_telemetry::TraceContext;
