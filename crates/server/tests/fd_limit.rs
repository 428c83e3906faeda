//! The listener at `RLIMIT_NOFILE`.
//!
//! `accept(2)` fails with `EMFILE` while the connection it could not take
//! stays queued, so a level-triggered listener stays readable: a loop
//! that answers the error by trying again later spins, and the queued
//! clients hang. The server holds one descriptor in reserve for this:
//! it closes it, accepts, answers `Busy`, closes that, and takes the
//! reserve back. Here the real binary runs under a lowered limit and more
//! clients connect than it has descriptors for.

use std::io::{BufRead, BufReader, ErrorKind};
use std::process::{Command, Stdio};
use std::time::Duration;

use ermia_common::TestDir;
use ermia_server::{Client, ClientError, Request, Response};

const LIMIT: usize = 48;
const CLIENTS: usize = 80;

/// CPU time the server's event loops have used, in clock ticks (10 ms).
fn loop_cpu_ticks(pid: u32) -> u64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("child tasks");
    let stats = tasks.map(|t| std::fs::read_to_string(t.unwrap().path().join("stat")).unwrap());
    let ticks = stats.filter(|s| s.contains("(ermia-shard-")).map(|s| {
        let mut fields = s.rsplit_once(") ").expect("stat format").1.split(' ').skip(11);
        let mut next = || fields.next().unwrap().parse::<u64>().unwrap();
        next() + next() // utime + stime
    });
    ticks.sum()
}

#[test]
fn at_the_descriptor_limit_every_connection_is_answered_and_the_loop_rests() {
    let dir = TestDir::new("fd-limit");
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -n {LIMIT} && exec \"$0\" 127.0.0.1:0 --data-dir \"$1\""))
        .arg(env!("CARGO_BIN_EXE_ermia-server"))
        .arg(&*dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server under ulimit");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let port: u16 = lines
        .by_ref()
        .find_map(|l| l.unwrap().strip_prefix("PORT ").map(|p| p.trim().parse().unwrap()))
        .expect("the server printed its port");
    std::thread::spawn(move || for _ in lines {});
    let addr = ("127.0.0.1", port);

    // Every client is connected (the kernel queues what the server cannot
    // accept) before any asks, then each must hear something in time.
    let mut clients: Vec<Client> = (0..CLIENTS).map(|_| Client::connect(addr).unwrap()).collect();
    let (mut served, mut shed) = (Vec::new(), 0usize);
    for (i, mut c) in clients.drain(..).enumerate() {
        c.set_reply_timeout(Some(Duration::from_secs(10))).unwrap();
        match c.call(&Request::Ping) {
            Ok(Response::Pong) => served.push(c),
            // `Busy`, or the close behind it beat our request.
            Ok(Response::Busy) => shed += 1,
            Err(ClientError::Io(e))
                if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                shed += 1
            }
            other => panic!("client {i} of {CLIENTS} was left hanging: {other:?}"),
        }
    }
    assert!(
        !served.is_empty() && served.len() < LIMIT,
        "{} sessions under limit {LIMIT}",
        served.len()
    );
    assert_eq!(served.len() + shed, CLIENTS);

    // Saturated, nothing queued: the loop has nothing to do and does it.
    let before = loop_cpu_ticks(child.id());
    std::thread::sleep(Duration::from_millis(500));
    let spent = loop_cpu_ticks(child.id()) - before;
    assert!(spent <= 5, "saturated and idle, the event loops burned {spent}0 ms of CPU in 500 ms");

    // The sessions still work; one leaving makes room for a newcomer, who
    // can read what happened.
    served.iter_mut().for_each(|c| c.ping().expect("a session outlives the shedding"));
    served.truncate(served.len() - 2);
    std::thread::sleep(Duration::from_millis(100));
    let mut late = Client::connect(addr).unwrap();
    late.ping().expect("a freed descriptor readmits");
    let metrics = ermia_telemetry::parse_exposition(&late.metrics().unwrap()).unwrap();
    let by = |why| metrics.value_with("ermia_server_busy_by_reason_total", "reason", why);
    assert_eq!(by("fd-limit"), Some(shed as f64));
    assert_eq!(metrics.value("ermia_server_busy_rejects_total"), Some(shed as f64));
    assert!(late.dump_traces(4096).unwrap().contains("kind=accept-shed "));

    drop(child.stdin.take()); // EOF: graceful shutdown
    assert!(child.wait().unwrap().success());
}
