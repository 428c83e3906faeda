//! Golden wire vectors: the bytes of every request and response variant,
//! produced by the encoder as it stood before the frame table replaced
//! the hand-written codecs (PR 19) and checked in. Encoding a value must
//! give its vector and decoding the vector must give the value back, so a
//! change to the table that moves a byte fails here whichever side it
//! breaks. The file uses only names both codecs export, so it runs
//! unmodified against either. (PR 28 took the `schema` list off the end
//! of `ReplStatus` — the schema ships in the log — and its bytes off the
//! end of the two vectors; nothing else moved. PR 56 merged the flight
//! dump into the span dump: its request (0x0D) and its reply (0x8E) left
//! the table, and `DumpTraces` (0x13) returns both kinds of record.)

use ermia_common::AbortReason;
use ermia_server::{
    BatchOp, ErrorCode, ReplStatus, Request, Response, TraceContext, WireIsolation,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn five_op_batch() -> Request {
    Request::Batch {
        isolation: WireIsolation::Serializable,
        sync: true,
        ops: vec![
            BatchOp::Get { table: 1, key: b"a".to_vec() },
            BatchOp::Put { table: 1, key: b"b".to_vec(), value: b"1".to_vec() },
            BatchOp::Delete { table: 2, key: b"c".to_vec() },
            BatchOp::Scan { table: 1, low: vec![], high: vec![0xFF], limit: 0 },
            BatchOp::Insert { table: 3, key: b"d".to_vec(), value: b"2".to_vec() },
        ],
    }
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Ping, "01"),
        (Request::OpenTable { name: b"accounts".to_vec() }, "02080000006163636f756e7473"),
        (Request::Begin { isolation: WireIsolation::Snapshot }, "0300"),
        (Request::Begin { isolation: WireIsolation::Serializable }, "0301"),
        (Request::Get { table: 3, key: b"k1".to_vec() }, "0403000000020000006b31"),
        (Request::Put { table: 0, key: vec![], value: vec![0xFF; 5] }, "05000000000000000005000000ffffffffff"),
        (Request::Delete { table: 9, key: b"x".to_vec() }, "06090000000100000078"),
        (Request::Scan { table: 1, low: b"a".to_vec(), high: b"z".to_vec(), limit: 10 }, "07010000000100000061010000007a0a000000"),
        (Request::Commit { sync: true }, "0801"),
        (Request::Commit { sync: false }, "0800"),
        (Request::Abort, "09"),
        (five_op_batch(), "0a010105000000040100000001000000610501000000010000006201000000310602000000010000006307010000000000000001000000ff000000000b0300000001000000640100000032"),
        (Request::Insert { table: 2, key: b"k".to_vec(), value: b"v".to_vec() }, "0b02000000010000006b0100000076"),
        (Request::Metrics, "0c"),
        (Request::Health, "0e"),
        (Request::Resume, "0f"),
        (Request::Subscribe { shard: 3, from: 0xDEAD_BEEF }, "1003000000efbeadde00000000"),
        (Request::FetchChunk { shard: 0, source: 1, offset: 1 << 40, len: 65536 }, "110000000001000000000001000000000100"),
        (Request::DumpTraces { max: 4096 }, "1300100000"),
        (Request::DumpTraces { max: 0 }, "1300000000"),
    ]
}

/// Every error code with its wire byte.
const ERROR_CODES: [(ErrorCode, u8); 16] = [
    (ErrorCode::Protocol, 1),
    (ErrorCode::BadState, 2),
    (ErrorCode::UnknownTable, 3),
    (ErrorCode::ShuttingDown, 4),
    (ErrorCode::LogStalled, 5),
    (ErrorCode::LogFailed, 6),
    (ErrorCode::DegradedReadOnly, 7),
    (ErrorCode::TxnAborted(AbortReason::WriteWriteConflict), 16),
    (ErrorCode::TxnAborted(AbortReason::SsnExclusion), 17),
    (ErrorCode::TxnAborted(AbortReason::ReadValidation), 18),
    (ErrorCode::TxnAborted(AbortReason::Phantom), 19),
    (ErrorCode::TxnAborted(AbortReason::DuplicateKey), 20),
    (ErrorCode::TxnAborted(AbortReason::UserRequested), 21),
    (ErrorCode::TxnAborted(AbortReason::ResourceExhausted), 22),
    (ErrorCode::TxnAborted(AbortReason::LogFailure), 23),
    (ErrorCode::TxnAborted(AbortReason::ReadOnlyMode), 24),
];

fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Pong, "81"),
        (Response::TableId { id: 7 }, "8207000000"),
        (Response::Begun, "83"),
        (Response::Value { value: None }, "8400"),
        (Response::Value { value: Some(b"payload".to_vec()) }, "8401070000007061796c6f6164"),
        (Response::Done { existed: true }, "8501"),
        (Response::Done { existed: false }, "8500"),
        (
            Response::Rows {
                truncated: true,
                rows: vec![(b"k1".to_vec(), b"v1".to_vec()), (b"k2".to_vec(), vec![])],
            },
            "860102000000020000006b31020000007631020000006b3200000000",
        ),
        (Response::Committed { lsn: u64::MAX >> 1 }, "87ffffffffffffff7f"),
        (Response::Aborted, "88"),
        (Response::Busy, "8a"),
        (Response::Inserted { oid: 42 }, "8b2a00000000000000"),
        (
            Response::BatchDone {
                results: vec![
                    Response::Value { value: Some(b"x".to_vec()) },
                    Response::Done { existed: false },
                ],
                outcome: Box::new(Response::Committed { lsn: 99 }),
            },
            "8c02000000070000008401010000007802000000850009000000876300000000000000",
        ),
        (
            Response::BatchDone {
                results: vec![Response::Error {
                    code: ErrorCode::UnknownTable,
                    detail: "table 9".into(),
                }],
                outcome: Box::new(Response::Error {
                    code: ErrorCode::UnknownTable,
                    detail: "table 9".into(),
                }),
            },
            "8c010000000d0000008903070000007461626c6520390d0000008903070000007461626c652039",
        ),
        (Response::Metrics { text: "# TYPE ermia_x counter\nermia_x 1\n".into() }, "8d210000002320545950452065726d69615f7820636f756e7465720a65726d69615f7820310a"),
        (
            Response::Health {
                state: 1,
                role: 1,
                durable_lsn: u64::MAX >> 8,
                applied_lsn: u64::MAX >> 9,
            },
            "8f0101ffffffffffffff00ffffffffffff7f00",
        ),
        (
            Response::ReplStatus(ReplStatus {
                role: 0,
                state: 0,
                durable_lsn: 1 << 30,
                earliest: 4096,
                segment_size: 1 << 26,
                checkpoint: Some((0x1234_5670, 8888)),
                segments: vec![(0, 0, 1 << 26), (1, 1 << 26, (1 << 26) + 512)],
            }),
            "900000000000400000000000100000000000000000000400000000017056341200000000b82200000000000002000000000000000000000000000000000000000000000400000000010000000000000000000004000000000002000400000000",
        ),
        (
            Response::ReplStatus(ReplStatus {
                role: 1,
                state: 1,
                durable_lsn: 0,
                earliest: 0,
                segment_size: 1 << 20,
                checkpoint: None,
                segments: vec![],
            }),
            "9001010000000000000000000000000000000000001000000000000000000000",
        ),
        (Response::SegmentChunk { offset: 77, data: vec![0xA5; 6] }, "914d0000000000000006000000a5a5a5a5a5a5"),
        (Response::Traces { text: "trace=0000000000000001 id=2\n".into() }, "921c00000074726163653d303030303030303030303030303030312069643d320a"),
    ]
}

#[test]
fn request_bytes_are_pinned() {
    for (req, want) in requests() {
        assert_eq!(hex(&req.encode()), want, "{req:?}");
        assert_eq!(Request::decode(&unhex(want)).unwrap(), req);
    }
}

#[test]
fn response_bytes_are_pinned() {
    for (resp, want) in responses() {
        assert_eq!(hex(&resp.encode()), want, "{resp:?}");
        assert_eq!(Response::decode(&unhex(want)).unwrap(), resp);
    }
}

/// The one dump frame replaced the flight dump's pair: a peer that still
/// sends its request (0x0D), or answers with its reply (0x8E), is refused
/// with a decode error rather than misread.
#[test]
fn the_retired_flight_dump_opcodes_are_refused() {
    assert!(Request::decode(&unhex("0d00010000")).is_err());
    assert!(Response::decode(&unhex("8e0000000000")).is_err());
}

#[test]
fn every_error_code_keeps_its_byte() {
    for (code, byte) in ERROR_CODES {
        let resp = Response::Error { code, detail: "why".into() };
        let want = format!("89{byte:02x}03000000776879");
        assert_eq!(hex(&resp.encode()), want, "{code:?}");
        assert_eq!(Response::decode(&unhex(&want)).unwrap(), resp);
    }
}

#[test]
fn the_trace_envelope_is_pinned() {
    let ctx = TraceContext {
        trace_hi: 0xdead_beef_cafe_f00d,
        trace_lo: 0x0123_4567_89ab_cdef,
        parent: 7,
    };
    let want = "120df0fecaefbeaddeefcdab89674523010700000000000000\
                0a010105000000040100000001000000610501000000010000006201000000310602000000\
                010000006307010000000000000001000000ff000000000b0300000001000000640100000032";
    assert_eq!(hex(&five_op_batch().encode_traced(&ctx)), want);
    assert_eq!(Request::decode_traced(&unhex(want)).unwrap(), (five_op_batch(), Some(ctx)));
}
