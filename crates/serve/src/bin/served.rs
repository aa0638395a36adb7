//! `cvopt-served` — the CVOPT sampling service.
//!
//! ```text
//! cvopt-served [--addr 127.0.0.1] [--port 8080] [--workers N] [--queue N]
//!              [--threads N] [--seed N] [--rate R] [--auto-threshold N]
//!              [--retry-after S] [--keepalive-max N] [--idle-timeout MS]
//!              [--cache-bytes N] [--admission-rate R] [--admission-burst N]
//! ```
//!
//! Starts empty; register tables over HTTP (`POST /tables`) and query
//! them (`POST /query`). `--port 0` binds an ephemeral port; the bound
//! address is printed (and flushed) on startup so scripts can scrape it.

use std::io::Write;

use cvopt_core::Engine;
use cvopt_serve::{Server, ServerConfig};

fn main() {
    let mut addr = "127.0.0.1".to_string();
    let mut port: u16 = 8080;
    let mut config = ServerConfig::default();
    let mut seed: u64 = 0;
    let mut rate: f64 = 0.01;
    let mut auto_threshold: usize = 50_000;
    let mut cache_bytes: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| fail(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--addr" => addr = value(),
            "--port" => port = parse(&value(), &arg),
            "--workers" => config.workers = parse(&value(), &arg),
            "--queue" => config.queue_capacity = parse(&value(), &arg),
            "--threads" => config.thread_budget = parse(&value(), &arg),
            "--seed" => seed = parse(&value(), &arg),
            "--rate" => rate = parse(&value(), &arg),
            "--auto-threshold" => auto_threshold = parse(&value(), &arg),
            "--retry-after" => config.retry_after_seconds = parse(&value(), &arg),
            "--keepalive-max" => config.keepalive_max_requests = parse(&value(), &arg),
            "--idle-timeout" => {
                config.keepalive_idle = std::time::Duration::from_millis(parse(&value(), &arg))
            }
            "--cache-bytes" => cache_bytes = Some(parse(&value(), &arg)),
            "--admission-rate" => config.admission_rate = parse(&value(), &arg),
            "--admission-burst" => config.admission_burst = parse(&value(), &arg),
            "--help" | "-h" => {
                println!(
                    "cvopt-served: the CVOPT sampling service\n\n\
                     options:\n  \
                     --addr A            bind address (default 127.0.0.1)\n  \
                     --port P            bind port; 0 = ephemeral (default 8080)\n  \
                     --workers N         worker threads (default: up to 8, one per core)\n  \
                     --queue N           bounded queue capacity (default 64)\n  \
                     --threads N         server-wide engine-thread budget (default: cores)\n  \
                     --seed N            sampling seed (default 0)\n  \
                     --rate R            default sampling rate in (0,1] (default 0.01)\n  \
                     --auto-threshold N  rows at which Auto goes approximate (default 50000)\n  \
                     --retry-after S     Retry-After seconds on 503 backpressure (default 1)\n  \
                     --keepalive-max N   requests served per connection before closing (default 256)\n  \
                     --idle-timeout MS   idle keep-alive connection timeout, ms (default 10000)\n  \
                     --cache-bytes N     prepared-sample cache byte budget (default: unbounded)\n  \
                     --admission-rate R  per-peer admitted requests/second; 0 = off (default 0)\n  \
                     --admission-burst N per-peer burst before the rate applies (default 8)"
                );
                return;
            }
            other => fail(&format!("unknown argument '{other}' (try --help)")),
        }
    }
    if config.workers == 0 {
        fail("--workers must be at least 1");
    }
    // The engine only checks the rate when a statement samples; reject a
    // bad one before binding instead of failing every approximate query.
    if let Err(e) = cvopt_core::budget_for_rows(1, rate) {
        fail(&format!("--rate: {e}"));
    }
    config.addr = format!("{addr}:{port}");

    let engine = Engine::new()
        .with_seed(seed)
        .with_default_rate(rate)
        .with_auto_threshold(auto_threshold)
        .with_cache_bytes(cache_bytes);
    let server = match Server::start(engine, config.clone()) {
        Ok(server) => server,
        Err(e) => fail(&format!("cannot bind {}: {e}", config.addr)),
    };
    println!(
        "cvopt-served listening on http://{} ({} workers, queue {}, {} engine thread(s) per request, seed {seed})",
        server.addr(),
        config.workers,
        config.queue_capacity,
        config.request_threads(),
    );
    // Scripts scrape the line above from a redirected log; make sure it
    // is on disk before we block.
    std::io::stdout().flush().expect("flush stdout");

    // The pipeline threads own all the work from here on.
    loop {
        std::thread::park();
    }
}

fn parse<T: std::str::FromStr>(value: &str, name: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(&format!("invalid value '{value}' for {name}")))
}

fn fail(message: &str) -> ! {
    eprintln!("cvopt-served: {message}");
    std::process::exit(2);
}
