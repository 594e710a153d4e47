//! A hand-rolled HTTP/1.1 exporter over [`std::net::TcpListener`] — no
//! dependencies, four routes, one thread:
//!
//! * `GET /metrics` — Prometheus text exposition ([`crate::prom`]).
//! * `GET /status` — JSON: uptime, health, GC progress, census, the
//!   vertex-lifecycle summary (reclamation latency, float, message
//!   cost), heartbeat, per-PE mailbox depth/high-water, and the per-PE
//!   scheduler breakdown (state, utilization, steal traffic).
//! * `GET /healthz` — `200 ok` in steady state, `503` with the
//!   watchdog's reason once degraded.
//! * `GET /graph.dot` — the latest published bounded DOT snapshot.
//!
//! Routing is factored into the pure [`respond`] so tests can exercise
//! every route without a socket; the accept loop only parses the
//! request line, calls it, and writes the response. A request whose line
//! and headers run past `MAX_REQUEST_BYTES` (8 KiB) is answered `400` and
//! closed; one whose head has not arrived `HEAD_DEADLINE` (2 s) after
//! accept is closed unanswered, however steadily it trickles. Shutdown
//! is the hub's flag plus a self-connect to unblock `accept`.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dgr_telemetry::{json_escape, CounterId, GaugeId, SchedState};

use crate::hub::{Health, ObserveHub};
use crate::prom;

/// Bytes read of one request, request line and headers together. A client
/// that never ends its head gets a `400` once this many have arrived, so
/// it cannot grow the exporter's memory without bound.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// Time a client has, from accept, to send its whole request head. The
/// accept loop serves one connection at a time, so this bounds how long
/// any one client can hold it.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Time a client has, from the first byte of the response, to take all
/// of it: the other half of the bound on how long one client holds the
/// accept loop, whatever the size of a published DOT snapshot.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(2);

/// A connection under one deadline: each read or write first sets the
/// socket timeout to the time left, so a byte that moves does not re-arm
/// it. A slow client is cut off at the deadline, however steadily it
/// trickles.
struct Deadlined {
    stream: TcpStream,
    deadline: Instant,
}

impl Deadlined {
    fn time_left(&self) -> std::io::Result<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Deadlined {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.time_left()?;
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let left = self.time_left()?;
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// A response ready to serialize: status code, content type, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 404, 503, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

impl Response {
    fn new(status: u16, content_type: &'static str, body: String) -> Self {
        Response {
            status,
            content_type,
            body,
        }
    }

    /// Serializes the full HTTP/1.1 response (headers + body).
    pub fn to_http(&self) -> String {
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            self.body,
        )
    }
}

/// The `/status` JSON document.
pub fn status_json(hub: &ObserveHub) -> String {
    let hb = hub.heartbeat();
    let census = hub.census();
    let gc = hub.gc();
    let snap = hub.metrics();
    let (healthy, reason) = match hub.health() {
        Health::Ok => (true, String::new()),
        Health::Degraded(r) => (false, r),
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"uptime_s\": {:.3},", hub.uptime_s());
    let _ = writeln!(out, "  \"healthy\": {healthy},");
    let _ = writeln!(out, "  \"degraded_reason\": \"{}\",", json_escape(&reason));
    let _ = writeln!(out, "  \"watchdog_incidents\": {},", hub.incidents());
    let _ = writeln!(out, "  \"scrapes\": {},", hub.scrapes());
    let _ = writeln!(
        out,
        "  \"gc\": {{\"cycles\": {}, \"aborted\": {}, \"reclaimed\": {}, \
         \"expunged\": {}, \"relaned\": {}, \"deadlocked\": {}}},",
        gc.cycles,
        gc.aborted_cycles,
        gc.reclaimed_total,
        gc.expunged_total,
        gc.relaned_total,
        gc.deadlocks_total,
    );
    let _ = writeln!(
        out,
        "  \"heartbeat\": {{\"cycle\": {}, \"phase\": \"{}\", \"phase_age_us\": {}, \
         \"progress\": {}, \"cycles_done\": {}, \"beats\": {}}},",
        hb.cycle(),
        hb.phase().map(|p| p.name()).unwrap_or("idle"),
        hb.phase_age_us(),
        hb.progress_total(),
        hb.cycles_done(),
        hb.beats(),
    );
    let _ = writeln!(
        out,
        "  \"census\": {{\"vital\": {}, \"eager\": {}, \"reserve\": {}, \
         \"irrelevant\": {}, \"dangling\": {}, \"total\": {}}},",
        census.vital,
        census.eager,
        census.reserve,
        census.irrelevant,
        census.dangling,
        census.total(),
    );
    let lc = hub.lifecycle();
    let (mt, mr) = lc.msgs_per_reclaimed();
    let _ = writeln!(
        out,
        "  \"lifecycle\": {{\"reclaimed\": {}, \"exact_fraction\": {:.4}, \
         \"mean_latency_cycles\": {:.3}, \"p99_latency_cycles\": {}, \"float_now\": {}, \
         \"msgs_per_reclaimed_mt\": {:.3}, \"msgs_per_reclaimed_mr\": {:.3}, \
         \"marking_efficiency\": {:.4}}},",
        lc.reclaimed,
        lc.exact_fraction(),
        lc.mean_latency(),
        lc.latency_quantile(0.99),
        lc.float_now,
        mt,
        mr,
        lc.efficiency(),
    );
    let hp = hub.heap();
    let _ = writeln!(
        out,
        "  \"heap\": {{\"live_bytes\": {}, \"peak_bytes\": {}, \"alloc_bytes\": {}, \
         \"freed_bytes\": {}, \"allocs\": {}, \"frees\": {}, \"exact_fraction\": {:.4}, \
         \"mean_alloc_bytes\": {:.2}, \"p99_alloc_bytes\": {}, \
         \"trigger_period\": {}, \"trigger_heap\": {}}},",
        hp.live,
        hp.peak,
        hp.alloc_bytes,
        hp.freed_bytes,
        hp.allocs,
        hp.frees,
        hp.exact_fraction(),
        hp.mean_alloc_bytes(),
        hp.size_quantile(0.99),
        hp.trigger_period,
        hp.trigger_heap,
    );
    out.push_str("  \"mailboxes\": [\n");
    let n = snap.per_pe.len();
    for (pe, shard) in snap.per_pe.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"pe\": {pe}, \"high_water\": {}}}{}",
            shard.gauge(GaugeId::MailboxHighWater),
            if pe + 1 < n { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    // The scheduler observatory's per-PE breakdown: last-known state,
    // utilization against the state clock, and steal traffic.
    out.push_str("  \"scheduler\": [\n");
    for (pe, shard) in snap.per_pe.iter().enumerate() {
        let sched = shard.sched();
        let _ = writeln!(
            out,
            "    {{\"pe\": {pe}, \"state\": \"{}\", \"utilization\": {:.6}, \
             \"span_ns\": {}, \"work_ns\": {}, \"steals\": {}, \"stolen_from\": {}, \
             \"parks\": {}}}{}",
            sched.current.map(|s| s.name()).unwrap_or("idle"),
            sched.utilization(),
            sched.span_ns,
            sched.state_ns(SchedState::Work),
            shard.counter(CounterId::Steals),
            shard.counter(CounterId::StolenFrom),
            shard.counter(CounterId::Parks),
            if pe + 1 < n { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Routes one request path to its response. Pure: no IO, no health
/// mutation; the caller records the scrape.
pub fn respond(path: &str, hub: &ObserveHub) -> Response {
    // Strip any query string: scrapers add ?format= and friends.
    let route = path.split('?').next().unwrap_or(path);
    match route {
        "/metrics" => Response::new(200, prom::CONTENT_TYPE, prom::render(hub)),
        "/status" => Response::new(200, "application/json", status_json(hub)),
        "/healthz" => match hub.health() {
            Health::Ok => Response::new(200, "text/plain", "ok\n".to_string()),
            Health::Degraded(r) => Response::new(503, "text/plain", format!("degraded: {r}\n")),
        },
        "/graph.dot" => {
            let dot = hub.dot();
            let body = if dot.is_empty() {
                "digraph dgr { /* no snapshot published yet */ }\n".to_string()
            } else {
                dot
            };
            Response::new(200, "text/vnd.graphviz", body)
        }
        _ => Response::new(
            404,
            "text/plain",
            "not found; routes: /metrics /status /healthz /graph.dot\n".to_string(),
        ),
    }
}

/// The running exporter: a bound listener plus its accept-loop thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    hub: Arc<ObserveHub>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving the hub on a background thread.
    pub fn bind<A: ToSocketAddrs>(addr: A, hub: Arc<ObserveHub>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let hub2 = Arc::clone(&hub);
        let handle = thread::Builder::new()
            .name("dgr-observe-http".into())
            .spawn(move || accept_loop(listener, hub2))?;
        Ok(Server {
            addr: local,
            hub,
            handle: Some(handle),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread. Also asks the
    /// watchdog (which shares the hub's flag) to wind down.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.hub.request_shutdown();
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(listener: TcpListener, hub: Arc<ObserveHub>) {
    for stream in listener.incoming() {
        if hub.is_shutdown() {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Serve inline: scrapes are small, rare and read-only, so one
        // slow client at a time is acceptable and keeps this threadless.
        let _ = serve_one(stream, &hub);
    }
}

fn serve_one(stream: TcpStream, hub: &ObserveHub) -> std::io::Result<()> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut reader = BufReader::new(Deadlined { stream, deadline }).take(MAX_REQUEST_BYTES);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // "GET /path HTTP/1.1" — anything else falls through to 404.
    let path = {
        let mut parts = request_line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("GET"), Some(p)) => p.to_string(),
            _ => String::new(),
        }
    };
    // Drain headers so well-behaved clients see a clean close. At the cap
    // `read_line` sees end of input, so the loop ends there too.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let response = if reader.limit() == 0 {
        let body = format!("request head exceeds {MAX_REQUEST_BYTES} bytes\n");
        Response::new(400, "text/plain", body)
    } else {
        hub.record_scrape();
        respond(&path, hub)
    };
    let mut out = reader.into_inner().into_inner();
    out.deadline = Instant::now() + RESPONSE_DEADLINE;
    out.write_all(response.to_http().as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_gc::TaskCensus;

    #[test]
    fn routes_answer_without_a_socket() {
        let hub = ObserveHub::new();
        hub.publish_census(TaskCensus {
            vital: 2,
            eager: 1,
            reserve: 0,
            irrelevant: 3,
            dangling: 0,
        });
        let m = respond("/metrics", &hub);
        assert_eq!(m.status, 200);
        assert!(m.body.contains("dgr_task_census{class=\"vital\"} 2"));
        let s = respond("/status?pretty", &hub);
        assert_eq!(s.status, 200);
        assert!(s.body.contains("\"healthy\": true"));
        assert!(s.body.contains("\"total\": 6"));
        assert_eq!(respond("/healthz", &hub).status, 200);
        hub.set_health(Health::Degraded("stall: test".into()));
        let h = respond("/healthz", &hub);
        assert_eq!(h.status, 503);
        assert!(h.body.contains("stall: test"));
        let d = respond("/graph.dot", &hub);
        assert_eq!(d.status, 200);
        assert!(d.body.starts_with("digraph"));
        assert_eq!(respond("/nope", &hub).status, 404);
    }

    #[test]
    fn http_serialization_carries_length_and_reason() {
        let r = Response::new(503, "text/plain", "degraded\n".into());
        let http = r.to_http();
        assert!(http.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(http.contains("Content-Length: 9\r\n"));
        assert!(http.ends_with("\r\n\r\ndegraded\n"));
    }

    #[test]
    fn status_json_breaks_the_scheduler_down_per_pe() {
        type Registry = dgr_telemetry::Registry<dgr_telemetry::On>;
        let hub = ObserveHub::new();
        let reg = Registry::with_pes(2);
        reg.sched_enter(0, SchedState::Work);
        std::thread::sleep(Duration::from_millis(1));
        reg.sched_finish(0);
        reg.sched_enter(1, SchedState::Park);
        reg.pe(1).inc(CounterId::Steals);
        hub.publish_metrics(reg.snapshot());
        let s = status_json(&hub);
        assert!(s.contains("\"scheduler\": ["), "got: {s}");
        assert!(s.contains("{\"pe\": 0, \"state\": \"idle\""));
        assert!(s.contains("{\"pe\": 1, \"state\": \"park\""));
        assert!(s.contains("\"steals\": 1"));
        assert!(s.contains("\"utilization\": 1.000000"));
    }

    #[test]
    fn status_json_carries_the_lifecycle_summary() {
        use dgr_telemetry::LifecycleSnapshot;
        let hub = ObserveHub::new();
        let s = status_json(&hub);
        assert!(
            s.contains("\"lifecycle\": {\"reclaimed\": 0, \"exact_fraction\": 1.0000"),
            "got: {s}"
        );
        hub.publish_lifecycle(LifecycleSnapshot {
            reclaimed: 10,
            exact: 10,
            latency_sum: 20,
            float_now: 3,
            msgs_mr: 40,
            bound: 50,
            cycles: 2,
            ..Default::default()
        });
        let s = status_json(&hub);
        assert!(s.contains("\"mean_latency_cycles\": 2.000"), "got: {s}");
        assert!(s.contains("\"float_now\": 3"));
        assert!(s.contains("\"msgs_per_reclaimed_mr\": 4.000"));
        assert!(s.contains("\"marking_efficiency\": 0.8000"));
    }

    #[test]
    fn status_json_carries_the_heap_summary() {
        use dgr_telemetry::HeapSnapshot;
        let hub = ObserveHub::new();
        let s = status_json(&hub);
        assert!(
            s.contains("\"heap\": {\"live_bytes\": 0, \"peak_bytes\": 0"),
            "got: {s}"
        );
        let mut size = [0u64; dgr_telemetry::HIST_BUCKETS];
        size[6] = 4; // four 32..=63-byte allocations
        hub.publish_heap(HeapSnapshot {
            live: 96,
            peak: 128,
            alloc_bytes: 128,
            freed_bytes: 32,
            allocs: 4,
            frees: 1,
            exact_frees: 1,
            exact_bytes: 32,
            size,
            size_count: 4,
            size_sum: 128,
            size_max: 32,
            trigger_period: 2,
            trigger_heap: 3,
            cycles: 5,
            ..Default::default()
        });
        let s = status_json(&hub);
        assert!(s.contains("\"live_bytes\": 96"), "got: {s}");
        assert!(s.contains("\"peak_bytes\": 128"));
        assert!(s.contains("\"exact_fraction\": 1.0000"));
        assert!(s.contains("\"mean_alloc_bytes\": 32.00"));
        assert!(s.contains("\"trigger_heap\": 3"));
    }

    #[test]
    fn status_json_escapes_the_degraded_reason() {
        let hub = ObserveHub::new();
        hub.set_health(Health::Degraded("bad \"state\"".into()));
        let s = status_json(&hub);
        assert!(s.contains("\"degraded_reason\": \"bad \\\"state\\\"\""));
    }
}
