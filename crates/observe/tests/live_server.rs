//! End-to-end exporter tests over real sockets: bind an ephemeral
//! localhost port, issue raw HTTP/1.1 GETs, and drive the watchdog's
//! poll loop against a deliberately stalled heartbeat.
//!
//! These run in both feature states — the hub's concrete [`Heartbeat`]
//! and the exposition are always compiled; only the facade handle the
//! drivers hold is feature-gated, and no driver is involved here.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dgr_gc::TaskCensus;
use dgr_observe::{watchdog, ObserveHub, Server, WatchdogConfig};
use dgr_telemetry::{flight_path, Phase, FLIGHT_DIR_ENV};

/// One raw GET; returns (status, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    (status, body.to_string())
}

#[test]
fn every_route_answers_over_a_real_socket() {
    let hub = Arc::new(ObserveHub::new());
    hub.publish_census(TaskCensus {
        vital: 5,
        eager: 0,
        reserve: 1,
        irrelevant: 2,
        dangling: 0,
    });
    hub.publish_dot("digraph dgr { v0 -> v1; }\n".to_string());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind ephemeral port");
    let addr = server.addr();

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("dgr_task_census{class=\"vital\"} 5"));
    assert!(metrics.contains("dgr_uptime_seconds"));

    let (status, body) = get(addr, "/status");
    assert_eq!(status, 200);
    assert!(body.contains("\"healthy\": true"));
    assert!(body.contains("\"total\": 8"));

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    let (status, body) = get(addr, "/graph.dot");
    assert_eq!(status, 200);
    assert!(body.contains("v0 -> v1"));

    assert_eq!(get(addr, "/nope").0, 404);
    assert!(hub.scrapes() >= 5, "every request was counted");
    server.shutdown();
}

/// Sends `head` as raw bytes; returns the status of the reply, or `None`
/// when the exporter closed the connection without one.
fn status_of_raw(addr: SocketAddr, head: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream.write_all(head).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8_lossy(&raw);
    raw.split_whitespace().nth(1).and_then(|s| s.parse().ok())
}

#[test]
fn a_head_that_is_not_utf8_is_answered() {
    let hub = Arc::new(ObserveHub::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind ephemeral port");
    let addr = server.addr();
    assert_eq!(
        status_of_raw(addr, b"GET /\xff HTTP/1.1\r\n\r\n"),
        Some(400)
    );
    // A header value may carry any byte (`obs-text`): the route answers.
    let head = b"GET /healthz HTTP/1.1\r\nX-A: \xfe\xff\r\nConnection: close\r\n\r\n";
    assert_eq!(status_of_raw(addr, head), Some(200));
    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
    server.shutdown();
}

/// Sends `head`, then `filler` over and over, until the exporter hangs up
/// or 64 MiB have gone out; meanwhile reads what comes back. The exporter
/// must answer `400` (or just close, which reaches the client as a reset,
/// its bytes being left unread) long before the 64 MiB, and must then
/// serve the next request.
fn assert_an_endless_head_is_cut_off(head: &str, filler: &str) {
    const FEED_CAP: usize = 64 << 20;
    let hub = Arc::new(ObserveHub::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    let mut writer = stream.try_clone().expect("clone stream");
    let (head, filler) = (head.to_string(), filler.to_string());
    let feeder = std::thread::spawn(move || {
        let mut sent = head.len();
        let mut ok = writer.write_all(head.as_bytes());
        while ok.is_ok() && sent < FEED_CAP {
            ok = writer.write_all(filler.as_bytes());
            sent += filler.len();
        }
        ok.is_err()
    });
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut raw = Vec::new();
    match stream.read_to_end(&mut raw) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("no reply and no close: {e}"),
    }
    let reply = String::from_utf8_lossy(&raw);
    assert!(
        reply.is_empty() || reply.starts_with("HTTP/1.1 400 Bad Request\r\n"),
        "got: {reply}"
    );
    drop(stream);
    assert!(
        feeder.join().expect("feeder thread"),
        "the exporter read all 64 MiB"
    );
    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
    assert_eq!(hub.scrapes(), 1, "the refused request is no scrape");
    server.shutdown();
}

#[test]
fn an_oversized_request_line_is_refused_and_the_exporter_serves_on() {
    let pad = "a".repeat(4096);
    assert_an_endless_head_is_cut_off("GET /", &pad);
}

#[test]
fn an_endless_header_stream_is_cut_off_and_the_exporter_serves_on() {
    let header = format!("X-Pad: {}\r\n", "h".repeat(1000));
    assert_an_endless_head_is_cut_off("GET /metrics HTTP/1.1\r\n", &header);
}

#[test]
fn a_trickling_client_is_cut_off_and_the_exporter_serves_on() {
    // One byte every 200 ms would keep a per-read timeout armed for ever;
    // the head's one deadline closes the connection within 4 s.
    let hub = Arc::new(ObserveHub::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let start = Instant::now();
    let closed = loop {
        if start.elapsed() > Duration::from_secs(4) {
            break false;
        }
        if stream.write_all(b"G").is_err() {
            break true;
        }
        let mut buf = [0u8; 64];
        match stream.read(&mut buf) {
            Ok(0) => break true,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break true,
        }
        std::thread::sleep(Duration::from_millis(150));
    };
    assert!(closed, "a trickling client held the exporter for 4 s");
    drop(stream);
    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
    server.shutdown();
}

#[test]
fn a_pipelined_second_request_is_dropped_and_the_exporter_serves_on() {
    // The exporter answers one request per connection and closes it: a
    // second head sent in the same write gets no answer of its own, but
    // must not cost the first its reply or the next client its turn.
    let hub = Arc::new(ObserveHub::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    let head = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
    stream
        .write_all(format!("{head}{head}").as_bytes())
        .expect("write both heads");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("one reply, then a clean close");
    assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "got: {raw}");
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "got: {raw}");
    assert!(raw.ends_with("\r\n\r\nok\n"), "got: {raw}");
    drop(stream);
    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
    server.shutdown();
}

#[test]
fn a_slow_reader_is_cut_off_and_the_exporter_serves_on() {
    // A published DOT snapshot has no size limit. A client that takes
    // 16 KiB of one every 300 ms would need minutes for 32 MiB, and a
    // per-write timeout re-armed by each chunk it takes never fires; the
    // response's one deadline must close it, so the next client is served.
    let hub = Arc::new(ObserveHub::new());
    hub.publish_dot(format!(
        "digraph dgr {{ /* {} */ }}\n",
        "x".repeat(32 << 20)
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind ephemeral port");
    let addr = server.addr();
    let mut slow = TcpStream::connect(addr).expect("connect to exporter");
    write!(slow, "GET /graph.dot HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("write request");
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (started, reading) = std::sync::mpsc::channel();
    let reader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 16 << 10];
            let mut taken = 0;
            // Relaxed: the flag only ends the loop; nothing is read after it.
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match slow.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => taken += n,
                }
                let _ = started.send(());
                std::thread::sleep(Duration::from_millis(300));
            }
            taken
        })
    };
    reading
        .recv_timeout(Duration::from_secs(5))
        .expect("the response never started");
    let t0 = Instant::now();
    let healthz = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect to exporter");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).map(|_| raw)
    });
    let reply = healthz.join().expect("healthz thread");
    let waited = t0.elapsed();
    // Stop the slow reader before asserting, so the exporter's accept
    // loop is free for `shutdown` on either outcome.
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let taken = reader.join().expect("reader thread");
    let reply = reply.expect("no /healthz reply within 5 s behind a slow reader");
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got: {reply}");
    assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    assert!(taken < 32 << 20, "the slow reader took the whole body");
    server.shutdown();
}

/// Polls `path` until `want` comes back or the deadline passes.
fn poll_for_status(addr: SocketAddr, path: &str, want: u16, deadline: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if get(addr, path).0 == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// The full degradation round trip, driven by the real poll loop: a
/// phase goes silent past the deadline, `/healthz` flips to 503, a
/// flight dump lands in `$DGR_FLIGHT_DIR`, and a fresh beat recovers it
/// to 200. This is the only test in the binary touching the flight-dir
/// environment variable (mirroring the recorder's own test), so the
/// process-global `set_var` cannot race another reader.
#[test]
fn a_stalled_phase_degrades_healthz_and_dumps_flight() {
    let dir = std::env::temp_dir().join(format!("dgr-observe-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create flight dir");
    std::env::set_var(FLIGHT_DIR_ENV, &dir);
    let _ = std::fs::remove_file(flight_path(0));

    let hub = Arc::new(ObserveHub::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind ephemeral port");
    let addr = server.addr();
    let dog = watchdog::spawn(
        Arc::clone(&hub),
        WatchdogConfig {
            stall_timeout_ms: 20,
            poll_ms: 10,
            ..Default::default()
        },
    );

    // Nothing attached yet: healthy.
    assert_eq!(get(addr, "/healthz").0, 200);

    // A phase begins on the hub's concrete pulse, then goes silent.
    hub.heartbeat().begin_phase(7, Phase::Mr);
    assert!(
        poll_for_status(addr, "/healthz", 503, Duration::from_secs(5)),
        "healthz never degraded on a silent phase"
    );
    let (_, body) = get(addr, "/healthz");
    assert!(body.contains("stall:"), "got: {body}");
    assert_eq!(hub.incidents(), 1);
    assert!(
        flight_path(0).exists(),
        "no flight dump at {}",
        flight_path(0).display()
    );
    let dump = std::fs::read_to_string(flight_path(0)).expect("read flight dump");
    assert!(
        dump.contains("\"reason\": \"stall:"),
        "dump names the stall"
    );

    // A fresh beat recovers health; the incident counter is monotone.
    hub.heartbeat().end_phase();
    assert!(
        poll_for_status(addr, "/healthz", 200, Duration::from_secs(5)),
        "healthz never recovered after the phase ended"
    );
    assert_eq!(hub.incidents(), 1);

    server.shutdown();
    dog.join().expect("watchdog thread exits on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
