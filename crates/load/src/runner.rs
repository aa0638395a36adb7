//! The load runner: a worker pool of persistent HTTP clients replaying a
//! schedule back-to-back.
//!
//! The schedule is split round-robin across the workers; each worker
//! opens one keep-alive [`Client`] and sends its statements one after the
//! other. The client connect and rejection counts come back in the
//! [`RunReport`]; the engine-side counters are read from `/stats` by the
//! caller.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cvopt_serve::Client;

use crate::mix::Statement;

/// How many times one statement may be re-sent after `503`s before the
/// run is declared stuck.
pub const MAX_ATTEMPTS: u32 = 100;

/// Load-generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Concurrent load workers (each with one persistent connection).
    pub workers: usize,
}

/// What one run counted.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// TCP connections opened across all workers (keep-alive pins this
    /// to exactly one per worker).
    pub connects: u64,
    /// Requests issued (every one eventually answered `200 OK`).
    pub requests: usize,
    /// `503` answers received (queue backpressure or admission control).
    pub rejected_503: u64,
    /// Requests re-sent after a `503` (each rejection is retried with a
    /// linear backoff until it succeeds or the attempt cap trips).
    pub retries: u64,
}

/// Drive `schedule` against the server at `addr`. A `503` (backpressure
/// or admission control) is retried with a linear backoff and counts in
/// `rejected_503`/`retries`. Panics on any other non-`200` response, on
/// transport errors, and when one statement is rejected [`MAX_ATTEMPTS`]
/// times — the harness's counters are only meaningful for a fully-served
/// schedule.
pub fn run(addr: SocketAddr, schedule: &[Statement], config: RunConfig) -> RunReport {
    let workers = config.workers.max(1);
    let barrier = Arc::new(Barrier::new(workers));

    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let statements: Vec<Statement> =
                schedule.iter().skip(w).step_by(workers).cloned().collect();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut rejected = 0u64;
                let mut retries = 0u64;
                barrier.wait();
                for stmt in &statements {
                    let mut attempt = 0u32;
                    let (status, body) = loop {
                        let (status, body) =
                            client.post("/query", &stmt.query_body()).expect("load request");
                        if status != 503 {
                            break (status, body);
                        }
                        rejected += 1;
                        attempt += 1;
                        assert!(
                            attempt < MAX_ATTEMPTS,
                            "{}: still 503 after {MAX_ATTEMPTS} attempts",
                            stmt.sql
                        );
                        retries += 1;
                        std::thread::sleep(Duration::from_millis(2 * u64::from(attempt)));
                    };
                    assert_eq!(status, 200, "{}: {body}", stmt.sql);
                }
                (client.connects(), rejected, retries)
            })
        })
        .collect();

    let mut report =
        RunReport { connects: 0, requests: schedule.len(), rejected_503: 0, retries: 0 };
    for handle in handles {
        let (connects, rejected, retries) = handle.join().expect("load worker");
        report.connects += connects;
        report.rejected_503 += rejected;
        report.retries += retries;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix;
    use cvopt_core::Engine;
    use cvopt_datagen::{generate_openaq, OpenAqConfig};
    use cvopt_serve::{client, Json, Server, ServerConfig};

    fn fixture_server(workers: usize) -> Server {
        let mut engine = Engine::new().with_seed(7);
        engine.register(mix::TABLE, generate_openaq(&OpenAqConfig::with_rows(20_000)));
        let config = ServerConfig {
            workers,
            thread_budget: workers,
            keepalive_idle: Duration::from_secs(300),
            keepalive_max_requests: usize::MAX,
            ..ServerConfig::default()
        };
        Server::start(engine, config).expect("start server")
    }

    fn stat(stats: &Json, field: &str) -> u64 {
        stats.get(field).and_then(Json::as_u64).unwrap_or_else(|| panic!("stat {field}"))
    }

    /// A bare replay (no seeding or re-optimization): a concurrent pool
    /// over keep-alive connections misses once per distinct problem
    /// (coalesced) and hits on every repeat, with one TCP connect per
    /// worker.
    #[test]
    fn concurrent_run_matches_expected_counters() {
        let server = fixture_server(2);
        let schedule = mix::schedule(7, 24);
        let expected = mix::expected(&schedule);

        let report = run(server.addr(), &schedule, RunConfig { workers: 3 });
        assert_eq!(report.requests, 24);
        assert_eq!(report.connects, 3, "keep-alive: one connect per load worker");

        let (status, body) = client::get(server.addr(), "/stats").expect("stats");
        assert_eq!(status, 200);
        let stats = Json::parse(&body).expect("stats json");
        assert_eq!(stat(&stats, "stats_passes"), expected.distinct_problems as u64);
        assert_eq!(stat(&stats, "cache_misses"), expected.distinct_problems as u64);
        assert_eq!(
            stat(&stats, "cache_hits"),
            (expected.approximate - expected.distinct_problems) as u64
        );
        assert_eq!(stat(&stats, "cache_evictions"), 0);
        // requests_served counts the /stats probe itself; reuses count
        // every request after the first on each load connection.
        assert_eq!(stat(&stats, "requests_served"), 24 + 1);
        assert_eq!(stat(&stats, "keepalive_reuses"), 24 - 3);
        server.shutdown();
    }

    /// With per-peer admission control on, the runner absorbs the 503s:
    /// every statement is still served, the rejections and re-sends are
    /// counted, and the server-side `admission_rejections` counter
    /// agrees with the client-side tally.
    #[test]
    fn admission_rejections_are_retried_and_counted() {
        let mut engine = Engine::new().with_seed(7);
        engine.register(mix::TABLE, generate_openaq(&OpenAqConfig::with_rows(20_000)));
        let config = ServerConfig {
            workers: 2,
            thread_budget: 2,
            keepalive_idle: Duration::from_secs(300),
            keepalive_max_requests: usize::MAX,
            admission_rate: 20.0,
            admission_burst: 2.0,
            ..ServerConfig::default()
        };
        let server = Server::start(engine, config).expect("start server");

        let schedule = mix::schedule(5, 12);
        let report = run(server.addr(), &schedule, RunConfig { workers: 2 });
        assert_eq!(report.requests, 12, "every request is eventually answered");
        assert!(
            report.rejected_503 > 0,
            "12 back-to-back requests against burst 2 at 20 req/s must see rejections"
        );
        assert_eq!(report.retries, report.rejected_503, "each 503 is re-sent exactly once");

        // The /stats probe passes admission too: give the bucket time to
        // refill a token before asking.
        std::thread::sleep(Duration::from_millis(150));
        let (status, body) = client::get(server.addr(), "/stats").expect("stats");
        assert_eq!(status, 200);
        let stats = Json::parse(&body).expect("stats json");
        assert_eq!(stat(&stats, "admission_rejections"), report.rejected_503);
        assert_eq!(stat(&stats, "requests_rejected"), 0, "no queue backpressure in this run");
        server.shutdown();
    }
}
