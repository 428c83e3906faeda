//! Wire-protocol hardening: whatever bytes arrive — random garbage,
//! truncated frames, checksum corruption, hostile length prefixes — the
//! server must answer with a protocol error or close the connection. It
//! must never panic, never wedge the acceptor, and never let one
//! poisoned connection affect the next one.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use ermia::{DbConfig, ShardedDb};
use ermia_check::{bytes, cases};
use ermia_common::crc::crc32c;
use ermia_server::protocol::{read_frame, write_frame, FrameAssembler, MAX_FRAME_LEN};
use ermia_server::{Client, FrameError, Request, Response, Server, ServerConfig, TraceContext};

/// One server shared by every case; if any hostile input kills it, the
/// liveness probe of a later case fails loudly.
fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<(ShardedDb, Server, u32)> = OnceLock::new();
    let (_, srv, _) = SERVER.get_or_init(|| {
        let db = ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
        let cfg =
            ServerConfig { checkout_wait: Duration::from_millis(100), ..ServerConfig::default() };
        let srv = Server::start_sharded(&db, "127.0.0.1:0", cfg).unwrap();
        let mut c = client(srv.local_addr());
        let t = c.open_table("fuzz").unwrap();
        c.put(t, b"k", b"v").unwrap();
        (db, srv, t)
    });
    srv.local_addr()
}

/// Deliver raw bytes, then drain whatever comes back until the server
/// closes or goes quiet. The assertion is what does *not* happen: no
/// hang (bounded read timeout) — panics/acceptor death show up in the
/// follow-up liveness probe.
fn poke(bytes: &[u8]) {
    let Ok(mut s) = TcpStream::connect(server_addr()) else {
        panic!("acceptor dead: connect refused")
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = s.write_all(bytes);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    loop {
        match s.read(&mut sink) {
            Ok(0) => break,    // server closed: fine
            Ok(_) => continue, // an error reply: fine
            Err(_) => break,   // reset / timeout boundary: fine
        }
    }
}

/// A client whose every reply wait has `poke`'s bound, so a server that
/// holds a reply back fails the test instead of wedging the suite.
fn client(addr: SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("acceptor must survive hostile input");
    c.set_reply_timeout(Some(Duration::from_secs(2))).unwrap();
    c
}

/// The real assertion: after hostile input, a well-formed session works.
fn assert_alive() {
    client(server_addr()).ping().expect("server must keep serving after hostile input");
}

fn valid_frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &req.encode()).unwrap();
    buf
}

fn sample_trace() -> TraceContext {
    TraceContext { trace_hi: 0xdead_beef_cafe_f00d, trace_lo: 0x0123_4567_89ab_cdef, parent: 7 }
}

/// The corpus — `Request::samples()`: at least one request per row of the
/// frame table (a unit test in `protocol.rs` holds it to that), a five-op
/// `Batch` among them — as frames, bare and inside the trace envelope.
fn sample_frames() -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for req in Request::samples() {
        frames.push(valid_frame(&req));
        let mut traced = Vec::new();
        write_frame(&mut traced, &req.encode_traced(&sample_trace())).unwrap();
        frames.push(traced);
    }
    frames
}

#[test]
fn truncation_at_every_cut_point_is_survived() {
    for frame in sample_frames() {
        for cut in 0..frame.len() {
            poke(&frame[..cut]);
        }
    }
    assert_alive();
}

#[test]
fn corruption_at_every_byte_is_survived() {
    // Bit flips landing anywhere — in the length, the envelope opcode,
    // the trace words, the request, the checksum — must never wedge the
    // server. This includes the flip that zeroes part of the trace id (a
    // malformed envelope) and the one that turns the envelope into a
    // nested one.
    for frame in sample_frames() {
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            poke(&bad);
        }
    }
    assert_alive();
}

#[test]
fn hostile_length_prefixes_are_rejected_without_allocation() {
    // Lengths the server must refuse before trusting them: zero, just
    // past the cap, and the maximum — a naive `Vec::with_capacity` on
    // the latter would be a 4 GiB allocation per connection.
    for len in [0u32, (16 << 20) + 1, u32::MAX] {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xAB; 64]);
        poke(&bytes);
        assert_alive();
    }
}

#[test]
fn checksum_must_cover_the_payload_actually_sent() {
    // A frame whose checksum matches different payload bytes than the
    // ones on the wire must be rejected.
    let payload = Request::Ping.encode();
    let other = Request::Abort.encode();
    let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&crc32c(&other).to_le_bytes());
    poke(&bytes);
    assert_alive();
}

/// The event loop reassembles frames from whatever byte runs the socket
/// hands it. Exhaustively: every valid frame, split at every byte
/// boundary into two separate readiness events, must decode to exactly
/// what the one-shot blocking reader sees.
#[test]
fn every_two_way_split_decodes_identically_to_one_shot() {
    for req in Request::samples() {
        let frame = valid_frame(&req);
        let one_shot = read_frame(&mut &frame[..], MAX_FRAME_LEN).unwrap();
        for cut in 0..=frame.len() {
            let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
            asm.feed(&frame[..cut]);
            let early = asm.next_frame().unwrap();
            if cut < frame.len() {
                assert!(early.is_none(), "decoded from a partial frame at cut {cut}");
            }
            asm.feed(&frame[cut..]);
            let got = early.or_else(|| asm.next_frame().unwrap());
            assert_eq!(got.as_deref(), Some(&one_shot[..]), "split at {cut} diverged");
            assert!(asm.next_frame().unwrap().is_none(), "phantom second frame at cut {cut}");
        }
    }
}

/// Over the wire: a frame dribbled in one-byte writes (each its own
/// readiness event on the server's event loop) must be served exactly
/// like one delivered in a single write.
#[test]
fn byte_at_a_time_delivery_is_served_identically() {
    let addr = server_addr();
    let frame = valid_frame(&Request::Ping);
    let mut dribble = TcpStream::connect(addr).unwrap();
    dribble.set_nodelay(true).unwrap();
    dribble.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for b in &frame {
        dribble.write_all(std::slice::from_ref(b)).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply_a = read_frame(&mut dribble, MAX_FRAME_LEN).unwrap();

    let mut one_shot = TcpStream::connect(addr).unwrap();
    one_shot.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    one_shot.write_all(&frame).unwrap();
    let reply_b = read_frame(&mut one_shot, MAX_FRAME_LEN).unwrap();
    assert_eq!(reply_a, reply_b, "dribbled delivery changed the reply");
}

/// Every `Client` — and so every replica's shipper connection and
/// `ermia_top` — decodes what its peer sends. A `BatchDone` whose outcome
/// is a `BatchDone`, 200 000 levels deep, is 1.8 MB: far under the frame
/// cap, and one stack frame per level to a decoder that follows it.
#[test]
fn a_deeply_nested_batch_reply_is_refused_not_followed() {
    const LEVELS: usize = 200_000;
    let mut payload = Vec::with_capacity(9 * LEVELS + 1);
    for level in (0..LEVELS).rev() {
        // BatchDone, no results, then the outcome: `len:u32` and the
        // `9 * level + 1` bytes of every level inside this one.
        payload.push(0x8C);
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&((9 * level + 1) as u32).to_le_bytes());
    }
    payload.extend_from_slice(&Response::Pong.encode());
    let decoder = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || Response::decode(&payload))
        .unwrap();
    match decoder.join().expect("the decoder must not run out of stack") {
        Err(FrameError::Malformed(why)) => assert_eq!(why, "nested batch reply"),
        other => panic!("nesting not refused: {other:?}"),
    }
}

fn seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok())
}

/// The client side of the hardening: whatever bytes a peer frames as
/// a reply decode to a reply or to an error — no panic, no allocation
/// sized by a count the payload does not back. Half the cases start
/// from a sample with one byte changed, so the decoder is reached
/// past the opcode.
#[test]
fn reply_decoding_survives_arbitrary_bytes() {
    cases("reply_decoding_survives_arbitrary_bytes", 64, seed(), |rng| {
        let _ = Response::decode(&bytes(rng, 0, 512));
        let samples = Response::samples();
        let mut payload = samples[rng.below(samples.len() as u64) as usize].encode();
        let pos = rng.below(payload.len() as u64) as usize;
        payload[pos] ^= rng.next_u64() as u8;
        if let Ok(resp) = Response::decode(&payload) {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    });
}

/// Randomized generalization of the exhaustive split test: a stream
/// of several frames, carved into arbitrary chunks fed one readiness
/// event at a time, decodes to the same sequence as one-shot reads.
#[test]
fn arbitrary_chunking_preserves_the_frame_stream() {
    cases("arbitrary_chunking_preserves_the_frame_stream", 64, seed(), |rng| {
        let reqs = Request::samples();
        let mut stream = Vec::new();
        let mut expect = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let frame = valid_frame(&reqs[rng.below(reqs.len() as u64) as usize]);
            expect.push(read_frame(&mut &frame[..], MAX_FRAME_LEN).unwrap());
            stream.extend_from_slice(&frame);
        }
        let mut bounds: Vec<usize> =
            (0..rng.below(16)).map(|_| rng.below(stream.len() as u64 + 1) as usize).collect();
        bounds.push(0);
        bounds.push(stream.len());
        bounds.sort_unstable();
        bounds.dedup();

        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        let mut got = Vec::new();
        for pair in bounds.windows(2) {
            asm.feed(&stream[pair[0]..pair[1]]);
            while let Some(payload) = asm.next_frame().unwrap() {
                got.push(payload);
            }
        }
        assert_eq!(got, expect);
    });
}

#[test]
fn random_garbage_never_wedges_the_server() {
    cases("random_garbage_never_wedges_the_server", 64, seed(), |rng| {
        poke(&bytes(rng, 0, 512));
        assert_alive();
    });
}

/// The trace envelope is a pure prefix layer: any request under any
/// random context round-trips through `decode_traced`; an untraced
/// context degrades to the bare pre-envelope encoding (old frames
/// and old decoders keep working); and the plain decoder rejects
/// envelopes the way an old server would an unknown opcode.
#[test]
fn trace_envelope_roundtrips_under_random_contexts() {
    cases("trace_envelope_roundtrips_under_random_contexts", 64, seed(), |rng| {
        let mut reqs = Request::samples();
        let req = reqs.remove(rng.below(reqs.len() as u64) as usize);
        let ctx = TraceContext {
            trace_hi: rng.next_u64(),
            trace_lo: rng.next_u64(),
            parent: rng.next_u64(),
        };
        let bytes = req.encode_traced(&ctx);
        let (got, got_ctx) = Request::decode_traced(&bytes).unwrap();
        assert_eq!(&got, &req);
        if ctx.is_traced() {
            assert_eq!(got_ctx, Some(ctx));
            assert!(Request::decode(&bytes).is_err(), "plain decoder accepted an envelope");
        } else {
            assert_eq!(got_ctx, None);
            assert_eq!(bytes, req.encode());
        }
        // And the un-enveloped frame still decodes through the traced
        // decoder as untraced.
        let (bare, bare_ctx) = Request::decode_traced(&req.encode()).unwrap();
        assert_eq!(bare, req);
        assert_eq!(bare_ctx, None);
    });
}

/// Corrupting any single byte of the 25-byte envelope header (or the
/// inner payload) must yield a decode error or a valid request —
/// never a panic — and the live server must keep serving after
/// seeing it on the wire.
#[test]
fn corrupt_trace_envelopes_never_panic() {
    cases("corrupt_trace_envelopes_never_panic", 64, seed(), |rng| {
        let mut reqs = Request::samples();
        let req = reqs.remove(rng.below(reqs.len() as u64) as usize);
        let mut bytes = req.encode_traced(&sample_trace());
        let pos = rng.below(bytes.len() as u64) as usize;
        bytes[pos] ^= 1 + rng.below(255) as u8;
        let _ = Request::decode_traced(&bytes);
        let mut frame = Vec::new();
        write_frame(&mut frame, &bytes).unwrap();
        poke(&frame);
        assert_alive();
    });
}

#[test]
fn garbage_after_a_valid_frame_is_contained() {
    cases("garbage_after_a_valid_frame_is_contained", 64, seed(), |rng| {
        // A connection that behaves, then turns hostile: the valid part
        // must be processed, the garbage must end only this connection.
        let mut stream = valid_frame(&Request::Ping);
        stream.extend_from_slice(&bytes(rng, 1, 256));
        poke(&stream);
        assert_alive();
    });
}
