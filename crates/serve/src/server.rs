//! The HTTP server: [`http::read_request`] → admission → [`api::handle`]
//! → write, as a [`Service`] over [`cvopt_net::pipeline`], which owns
//! accepting, the bounded queue, the worker pool, keep-alive parking and
//! shutdown. Responses are a pure function of the request sequence (see
//! [`crate::http`]), whatever the worker count and whether the connection
//! is reused or fresh.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cvopt_core::{Engine, ExecOptions};
use cvopt_net::pipeline::{Connection, Next, Pipeline, Service};

use crate::admission::AdmissionControl;
use crate::api::{self, ApiState};
use crate::http::{self, ReadOutcome, Response};
use crate::shared::SharedEngine;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity; connections beyond it get 503.
    pub queue_capacity: usize,
    /// Server-wide engine-thread budget, divided across the workers: each
    /// request runs its passes with `thread_budget / workers` workers
    /// (at least 1).
    pub thread_budget: usize,
    /// Largest accepted request body, in bytes (CSV uploads).
    pub max_body_bytes: usize,
    /// Seconds suggested to backpressured clients via `Retry-After`.
    pub retry_after_seconds: u64,
    /// Requests served on one connection before the server closes it
    /// (bounds how long one client can monopolize the pipeline).
    pub keepalive_max_requests: usize,
    /// How long a parked connection may sit idle before the watcher
    /// drops it.
    pub keepalive_idle: Duration,
    /// Per-peer admission rate in requests/second; `0.0` (the default)
    /// disables admission control.
    pub admission_rate: f64,
    /// Per-peer admission burst: requests a quiet peer may issue
    /// back-to-back before the rate applies.
    pub admission_burst: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: cores.clamp(1, 8),
            queue_capacity: 64,
            thread_budget: cores,
            max_body_bytes: 16 << 20,
            retry_after_seconds: 1,
            keepalive_max_requests: 256,
            keepalive_idle: Duration::from_secs(10),
            admission_rate: 0.0,
            admission_burst: 8.0,
        }
    }
}

impl ServerConfig {
    /// The per-request engine worker count carved from the budget.
    pub fn request_threads(&self) -> usize {
        (self.thread_budget / self.workers.max(1)).max(1)
    }
}

/// A running server: the connection pipeline and the shared engine.
/// Dropping it (or calling [`Server::shutdown`]) stops the accept loop,
/// drains queued connections, drops parked ones, and joins every thread.
#[derive(Debug)]
pub struct Server {
    pipeline: Pipeline,
    state: Arc<ApiState>,
}

impl Server {
    /// Bind, start the pipeline, and start serving `engine`.
    ///
    /// The engine's execution options are replaced with the per-request
    /// slice of the server's thread budget
    /// ([`ServerConfig::request_threads`]); every other engine setting
    /// (seed, rate, auto threshold, cache budget, pre-registered tables)
    /// is preserved.
    pub fn start(engine: Engine, config: ServerConfig) -> io::Result<Server> {
        let engine = engine.with_exec(ExecOptions::new(config.request_threads()));
        let workers = config.workers.max(1);
        let mut pipeline = Pipeline::bind(
            &config.addr,
            workers,
            config.queue_capacity,
            Some(config.keepalive_idle),
        )?;

        let admission_rejections = Arc::new(AtomicU64::new(0));
        let admission = AdmissionControl::new(
            config.admission_rate,
            config.admission_burst,
            Arc::clone(&admission_rejections),
        );
        let state = Arc::new(ApiState {
            engine: SharedEngine::new(engine),
            queue_depth: pipeline.queue_depth(),
            queue_capacity: config.queue_capacity,
            workers,
            request_threads: config.request_threads(),
            requests_served: AtomicU64::new(0),
            requests_rejected: Arc::new(AtomicU64::new(0)),
            keepalive_reuses: AtomicU64::new(0),
            admission_rejections,
        });
        pipeline.serve(HttpService { state: Arc::clone(&state), admission, config });
        Ok(Server { pipeline, state })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.pipeline.addr()
    }

    /// The shared engine, for in-process registration or inspection.
    pub fn engine(&self) -> &SharedEngine {
        &self.state.engine
    }

    /// The state `/stats` reads, for in-process assertions.
    pub fn state(&self) -> &ApiState {
        &self.state
    }

    /// Stop accepting, drain the queue, and join every thread.
    pub fn shutdown(mut self) {
        self.pipeline.shutdown();
    }
}

/// One HTTP request in, one response out, against the shared engine.
struct HttpService {
    state: Arc<ApiState>,
    admission: AdmissionControl,
    config: ServerConfig,
}

impl Service for HttpService {
    fn answer(&self, conn: &mut Connection) -> Next {
        let (state, config) = (&*self.state, &self.config);
        let (response, close) =
            match http::read_request(&mut conn.reader, &conn.writer, config.max_body_bytes) {
                // The admission check charges the peer's token bucket per
                // *request*, not per connection — a client fanning out over
                // many keep-alive connections drains the same bucket. A
                // rejected request costs a 503 write but keeps the
                // connection usable (the client honors Retry-After and
                // tries again on the same socket).
                Ok(ReadOutcome::Request(request)) if !self.admission.admit_socket(&conn.writer) => {
                    (Response::overloaded(config.retry_after_seconds), request.close)
                }
                Ok(ReadOutcome::Request(request)) => {
                    state.requests_served.fetch_add(1, Ordering::Relaxed);
                    if conn.served() > 0 {
                        state.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
                    }
                    let close = request.close;
                    (api::handle(state, &request), close)
                }
                Ok(ReadOutcome::Bad(bad)) => {
                    // The framing can't be trusted past a malformed request:
                    // answer it and close.
                    state.requests_served.fetch_add(1, Ordering::Relaxed);
                    (Response::error(bad.status, &bad.message), true)
                }
                // Clean close, or the client went away mid-request.
                Ok(ReadOutcome::Closed) | Err(_) => return Next::Close,
            };
        let written = response.write_to(&mut conn.writer).is_ok();
        if written && !close && conn.served() + 1 < config.keepalive_max_requests {
            Next::Keep
        } else {
            Next::Close
        }
    }

    fn refuse(&self, conn: &mut Connection) {
        self.state.requests_rejected.fetch_add(1, Ordering::Relaxed);
        let _ = Response::overloaded(self.config.retry_after_seconds).write_to(&mut conn.writer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Client};
    use crate::json::Json;
    use cvopt_table::{DataType, TableBuilder, Value};

    fn engine_with_table(rows: usize) -> Engine {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..rows {
            b.push_row(&[Value::str(["a", "b", "c"][i % 3]), Value::Float64((i % 13) as f64)])
                .unwrap();
        }
        let mut engine = Engine::new().with_seed(1);
        engine.register("t", b.finish());
        engine
    }

    fn config(workers: usize) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_capacity: 16,
            thread_budget: workers,
            max_body_bytes: 1 << 20,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serves_health_query_and_stats_end_to_end() {
        let server = Server::start(engine_with_table(4000), config(2)).unwrap();
        let addr = server.addr();

        let (status, body) = client::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(Json::parse(&body).unwrap().get("status").unwrap().as_str(), Some("ok"));

        let q = r#"{"sql":"SELECT g, AVG(x) FROM t GROUP BY g","mode":"approximate"}"#;
        let (status, body) = client::post(addr, "/query", q).unwrap();
        assert_eq!(status, 200, "{body}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("report").unwrap().get("cache_hit").unwrap().as_bool(), Some(false));
        let (_, body) = client::post(addr, "/query", q).unwrap();
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("report").unwrap().get("cache_hit").unwrap().as_bool(), Some(true));

        let (status, body) = client::get(addr, "/stats").unwrap();
        assert_eq!(status, 200);
        let stats = Json::parse(&body).unwrap();
        assert_eq!(stats.get("stats_passes").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("cache_misses").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("requests_served").unwrap().as_u64(), Some(4));
        assert_eq!(stats.get("keepalive_reuses").unwrap().as_u64(), Some(0));
        server.shutdown();
    }

    #[test]
    fn keepalive_serves_many_requests_on_one_connection() {
        let server = Server::start(engine_with_table(4000), config(2)).unwrap();
        let mut client = Client::new(server.addr());
        let q = r#"{"sql":"SELECT g, AVG(x) FROM t GROUP BY g","mode":"approximate"}"#;
        for _ in 0..5 {
            let (status, _) = client.post("/query", q).unwrap();
            assert_eq!(status, 200);
        }
        assert_eq!(client.connects(), 1, "five requests, one TCP connect");
        assert_eq!(server.state().requests_served.load(Ordering::Relaxed), 5);
        assert_eq!(server.state().keepalive_reuses.load(Ordering::Relaxed), 4);
        server.shutdown();
    }

    /// A small request or response must not wait out Nagle plus the peer's
    /// delayed ACK: before both ends set `TCP_NODELAY` and wrote each
    /// message whole, a warm keep-alive request took ~80 ms. The median is
    /// what is bounded, so one scheduling hiccup cannot fail it.
    #[test]
    fn small_messages_are_not_held_back() {
        let server = Server::start(engine_with_table(100), config(1)).unwrap();
        let mut client = Client::new(server.addr());
        client.get("/healthz").unwrap();
        let mut requests: Vec<Duration> = (0..20)
            .map(|_| {
                let started = std::time::Instant::now();
                assert_eq!(client.get("/healthz").unwrap().0, 200);
                started.elapsed()
            })
            .collect();
        requests.sort();
        assert!(requests[10] < Duration::from_millis(20), "median took {:?}", requests[10]);
        assert_eq!(client.connects(), 1);
        server.shutdown();
    }

    #[test]
    fn keepalive_max_requests_caps_a_connection() {
        let mut cfg = config(1);
        cfg.keepalive_max_requests = 2;
        let server = Server::start(engine_with_table(100), cfg).unwrap();
        let mut client = Client::new(server.addr());
        for _ in 0..5 {
            let (status, _) = client.get("/healthz").unwrap();
            assert_eq!(status, 200);
        }
        // Two requests per connection: 5 requests need 3 connects.
        assert_eq!(client.connects(), 3);
        server.shutdown();
    }

    #[test]
    fn idle_connection_does_not_pin_the_only_worker() {
        let server = Server::start(engine_with_table(100), config(1)).unwrap();
        let mut idle = Client::new(server.addr());
        let (status, _) = idle.get("/healthz").unwrap();
        assert_eq!(status, 200);
        // Give the single worker time to park the idle connection.
        std::thread::sleep(Duration::from_millis(50));
        // A second client must get through even though the first
        // connection is still open.
        let (status, _) = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        // And the parked connection still works when it wakes up.
        let (status, _) = idle.get("/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(idle.connects(), 1);
        server.shutdown();
    }

    #[test]
    fn idle_timeout_closes_parked_connections() {
        let mut cfg = config(1);
        cfg.keepalive_idle = Duration::from_millis(50);
        let server = Server::start(engine_with_table(100), cfg).unwrap();
        let mut client = Client::new(server.addr());
        let (status, _) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(250));
        // The server dropped the idle connection; the client notices the
        // stale socket and reconnects transparently.
        let (status, _) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(client.connects(), 2);
        server.shutdown();
    }

    #[test]
    fn backpressure_answers_503_with_retry_after() {
        use std::io::{Read as _, Write as _};
        use std::net::TcpStream;

        // Saturate a one-worker, one-slot server, then arrive once more:
        // the answer must come from the accept thread.
        let mut cfg = config(1);
        cfg.queue_capacity = 1;
        cfg.retry_after_seconds = 7;
        let server = Server::start(engine_with_table(100), cfg).unwrap();
        let state = server.state();

        // The interim `100 Continue` proves the only worker is inside this
        // request, waiting for a body that never comes.
        let mut busy = TcpStream::connect(server.addr()).unwrap();
        busy.write_all(
            b"POST /query HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n",
        )
        .unwrap();
        let mut interim = [0u8; 25];
        busy.read_exact(&mut interim).unwrap();
        assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");

        // A second connection fills the queue's one slot.
        let queued = TcpStream::connect(server.addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while state.queue_depth.load(Ordering::Relaxed) != 1 {
            assert!(std::time::Instant::now() < deadline, "second connection never queued");
            std::thread::sleep(Duration::from_millis(1));
        }

        let incoming = TcpStream::connect(server.addr()).unwrap();
        let raw = client::read_response_raw(&incoming).unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
        assert!(text.contains("Retry-After: 7\r\n"), "{text}");
        assert_eq!(state.queue_depth.load(Ordering::Relaxed), 1, "rejected never queued");
        assert_eq!(state.requests_rejected.load(Ordering::Relaxed), 1);
        drop((busy, queued));
        server.shutdown();
    }

    #[test]
    fn admission_is_fair_across_keepalive_connections() {
        // Rate 1/s with burst 3: three requests are admitted back-to-back,
        // then the peer's bucket is dry for ~a second — including for a
        // *fresh* connection from the same address, which is the point of
        // keying buckets by IP rather than by connection.
        let mut cfg = config(2);
        cfg.admission_rate = 1.0;
        cfg.admission_burst = 3.0;
        let server = Server::start(engine_with_table(100), cfg).unwrap();
        let mut statuses = Vec::new();
        let mut first = Client::new(server.addr());
        for _ in 0..4 {
            statuses.push(first.get("/healthz").unwrap().0);
        }
        assert_eq!(statuses, [200, 200, 200, 503]);
        let mut second = Client::new(server.addr());
        statuses.push(second.get("/healthz").unwrap().0);
        assert_eq!(statuses[4], 503, "a new connection from the same peer shares the bucket");
        // The 503s kept both connections open; after a refill the same
        // sockets serve again.
        std::thread::sleep(Duration::from_millis(1100));
        statuses.push(first.get("/healthz").unwrap().0);
        assert_eq!(statuses[5], 200);
        assert_eq!(first.connects(), 1, "rejections must not close the connection");
        // Admission rejections are reported separately from queue
        // rejections on /stats, and the server's tally is exactly the
        // 503s the clients received.
        let rejected = statuses.iter().filter(|&&status| status == 503).count() as u64;
        std::thread::sleep(Duration::from_millis(1100));
        let (status, body) = client::get(server.addr(), "/stats").unwrap();
        assert_eq!(status, 200);
        let stats = Json::parse(&body).unwrap();
        assert_eq!(stats.get("admission_rejections").unwrap().as_u64(), Some(rejected));
        assert_eq!(stats.get("requests_rejected").unwrap().as_u64(), Some(0));
        server.shutdown();
    }

    #[test]
    fn config_carves_request_threads_from_budget() {
        let mut c = config(4);
        c.thread_budget = 8;
        assert_eq!(c.request_threads(), 2);
        c.thread_budget = 2;
        assert_eq!(c.request_threads(), 1, "never below one worker");
        c.workers = 0;
        assert_eq!(c.request_threads(), 2, "zero workers clamps");
    }

    #[test]
    fn malformed_requests_get_400_not_a_hang() {
        let server = Server::start(engine_with_table(100), config(1)).unwrap();
        let (status, body) =
            client::request_parsed(server.addr(), "PUT", "/query", Some("{}")).unwrap();
        assert_eq!(status, 405, "{body}");
        let (status, _) = client::post(server.addr(), "/query", "{ not json").unwrap();
        assert_eq!(status, 400);
        server.shutdown();
    }
}
