//! dgr-observe: the live observability plane for the distributed
//! graph-reduction runtime — a dependency-free Prometheus exporter, a
//! status endpoint, and a progress watchdog, all over `std::net`.
//!
//! # Architecture
//!
//! The plane is **push-based**. The GC driver and the reduction system
//! are `!Sync` by design, so nothing here ever reaches into them;
//! instead the driving loop (a soak harness, a bench binary) publishes
//! cheap snapshots into an [`ObserveHub`] once per cycle — the census and
//! the GC totals are `dgr-gc`'s own [`TaskCensus`](dgr_gc::TaskCensus) and
//! [`GcStats`](dgr_gc::GcStats), so the plane sits above the collector and
//! nothing under `dgr-gc` depends on it — and the
//! instrumented drivers beat the hub's shared
//! [`Heartbeat`](dgr_telemetry::Heartbeat) through the zero-cost
//! `HeartbeatHandle` facade. Two background threads only ever *read*
//! the hub:
//!
//! * the HTTP [`Server`] serves `/metrics`, `/status`, `/healthz` and
//!   `/graph.dot` from the latest published state;
//! * the [`watchdog`] re-judges health on a poll interval, flipping
//!   `/healthz` to 503 and writing a flight dump (event tail + metrics
//!   snapshot, to `$DGR_FLIGHT_DIR`) when a marking phase stalls past
//!   its deadline or a mailbox high-water runs away.
//!
//! # Features
//!
//! The hub, exporter, server and watchdog are always real — they work
//! on the concrete snapshot and heartbeat types of `dgr-telemetry`. The
//! forwarded `telemetry` feature only decides whether the
//! `HeartbeatHandle` the drivers hold defaults to `On` (the recording
//! `Arc`) or `Off` (zero-sized); with it off, a hub's pulse never beats
//! and the watchdog correctly judges "nothing to supervise".
//!
//! ```no_run
//! use std::sync::Arc;
//! use dgr_observe::{ObserveHub, Server, watchdog, WatchdogConfig};
//!
//! let hub = Arc::new(ObserveHub::new());
//! let server = Server::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
//! let dog = watchdog::spawn(Arc::clone(&hub), WatchdogConfig::default());
//! println!("scrape http://{}/metrics", server.addr());
//! // ... drive cycles, hub.publish_metrics(...) each one ...
//! server.shutdown(); // also winds the watchdog down via the shared flag
//! dog.join().unwrap();
//! ```

pub mod hub;
pub mod prom;
pub mod server;
pub mod watchdog;

pub use hub::{Health, ObserveHub, EVENT_TAIL_CAP};
pub use prom::{render, render_snapshot};
pub use server::{respond, status_json, Response, Server};
pub use watchdog::{check_now, judge, WatchdogConfig};
