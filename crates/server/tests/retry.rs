//! `call_with_retry` behavior, pinned with a scripted fake server so
//! each retry class is deterministic: `Busy` shedding backs off and
//! retries on the same connection, an abruptly severed connection
//! re-dials, connect-refused is bounded by the attempt budget, and
//! terminal errors pass through untouched.

use std::net::TcpListener;
use std::time::Duration;

use ermia_server::protocol::{read_frame, write_frame, MAX_FRAME_LEN};
use ermia_server::{Client, ClientError, ErrorCode, Request, Response, RetryPolicy};

fn quick_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
    }
}

/// A fake server running `script` against one connection at a time.
/// Each script step answers one request frame; `None` slams the
/// connection shut instead of answering.
fn scripted_server(
    listener: TcpListener,
    script: Vec<Option<Response>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut steps = script.into_iter().peekable();
        while steps.peek().is_some() {
            let Ok((mut stream, _)) = listener.accept() else { return };
            // Err from read_frame means the client moved on (reconnect).
            while let Ok(payload) = read_frame(&mut stream, MAX_FRAME_LEN) {
                assert!(Request::decode(&payload).is_ok(), "client sent garbage");
                match steps.next() {
                    Some(Some(resp)) => {
                        write_frame(&mut stream, &resp.encode()).unwrap();
                    }
                    Some(None) | None => break, // sever: drop the stream
                }
            }
        }
    })
}

#[test]
fn busy_replies_are_retried_until_the_server_relents() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = scripted_server(
        listener,
        vec![Some(Response::Busy), Some(Response::Busy), Some(Response::Pong)],
    );
    let mut c = Client::connect(addr).unwrap();
    let resp = c.call_with_retry(&Request::Ping, &quick_policy()).unwrap();
    assert_eq!(resp, Response::Pong);
    drop(c);
    srv.join().unwrap();
}

#[test]
fn severed_connection_reconnects_and_retries() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // First connection is cut mid-request; the retry arrives on a fresh
    // connection and succeeds.
    let srv = scripted_server(listener, vec![None, Some(Response::Pong)]);
    let mut c = Client::connect(addr).unwrap();
    let resp = c.call_with_retry(&Request::Ping, &quick_policy()).unwrap();
    assert_eq!(resp, Response::Pong);
    drop(c);
    srv.join().unwrap();
}

#[test]
fn connect_refused_exhausts_the_attempt_budget() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Connect rides the kernel backlog (never accepted); closing the
    // listener then resets it, and every re-dial is refused.
    let mut c = Client::connect(addr).unwrap();
    drop(listener);
    match c.call_with_retry(&Request::Ping, &quick_policy()) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected bounded I/O failure, got {other:?}"),
    }
}

#[test]
fn terminal_errors_pass_through_without_retry() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let degraded =
        Response::Error { code: ErrorCode::DegradedReadOnly, detail: "read-only".into() };
    // Exactly one scripted reply: a second (retried) request would hang
    // the test, so passing proves no retry happened.
    let srv = scripted_server(listener, vec![Some(degraded)]);
    let mut c = Client::connect(addr).unwrap();
    match c.call_with_retry(&Request::Ping, &quick_policy()) {
        Err(ClientError::Server { code: ErrorCode::DegradedReadOnly, .. }) => {}
        other => panic!("expected typed server error, got {other:?}"),
    }
    drop(c);
    srv.join().unwrap();
}
