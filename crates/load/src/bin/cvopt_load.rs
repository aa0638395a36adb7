//! `cvopt-load` — drive a seeded workload against the CVOPT server and
//! snapshot the run into `BENCH_serving.json`.
//!
//! ```text
//! cvopt-load [--workers N] [--requests N] [--seed N] [--rows N]
//!            [--cache-bytes N]
//! ```
//!
//! Three phases, one snapshot:
//!
//! 1. **Seed → re-optimize → concurrent replay, unbounded cache** — the
//!    hot/cold statements run sequentially to populate the query log,
//!    one `POST /reoptimize` consolidates it into a durable sample, then
//!    a worker pool of persistent keep-alive clients replays the full
//!    schedule back-to-back (including the never-seeded derived pool,
//!    answered by the reuse planner without drawing — `draws_avoided`).
//!    Coalescing and the frozen durable set make the engine counters a
//!    pure function of the schedule; the harness asserts they match
//!    [`cvopt_load::expected`] before recording them.
//! 2. **Sequential, tiny cache budget** (`--cache-bytes`) — the same
//!    schedule through one connection against one worker, so the
//!    eviction counters are fully deterministic.
//! 3. **Streaming ingest into a windowed table** — the last slice of the
//!    fixture is held back, registered with a retention window, and
//!    replayed in `POST /ingest` batches; the durable sample created by
//!    `/reoptimize` must stay maintained without a single extra
//!    statistics pass, and one `/rotate` retires the old half of the
//!    window. Every counter is a pure function of `--rows` and `--seed`.
//!
//! The snapshot lands in `CVOPT_BENCH_DIR` (default `.`). Pointed at this
//! crate it overwrites the committed `BENCH_serving.json`, and `git diff`
//! on that file is the gate: every row is a deterministic counter.

use std::net::SocketAddr;
use std::time::Duration;

use cvopt_core::Engine;
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_load::{expected, mix, schedule, Row, RunConfig};
use cvopt_serve::{client, Json, Server, ServerConfig};
use cvopt_table::{Column, Table, Value};

fn main() {
    let mut workers: usize = 4;
    let mut requests: usize = 120;
    let mut seed: u64 = 7;
    let mut rows: usize = 60_000;
    let mut cache_bytes: u64 = 96 * 1024;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        match arg.as_str() {
            "--workers" => workers = parse(&value("--workers"), "--workers"),
            "--requests" => requests = parse(&value("--requests"), "--requests"),
            "--seed" => seed = parse(&value("--seed"), "--seed"),
            "--rows" => rows = parse(&value("--rows"), "--rows"),
            "--cache-bytes" => cache_bytes = parse(&value("--cache-bytes"), "--cache-bytes"),
            "--help" | "-h" => {
                println!(
                    "cvopt-load: seeded load harness for the CVOPT server\n\n\
                     options:\n  \
                     --workers N      concurrent load clients (default 4)\n  \
                     --requests N     statements per phase (default 120)\n  \
                     --seed N         workload mix and engine seed (default 7)\n  \
                     --rows N         fixture table rows (default 60000)\n  \
                     --cache-bytes N  phase-2 cache budget (default 98304)\n\n\
                     writes BENCH_serving.json into CVOPT_BENCH_DIR (default .)"
                );
                return;
            }
            other => fail(&format!("unknown argument '{other}' (try --help)")),
        }
    }
    if workers == 0 || requests == 0 {
        fail("--workers and --requests must be at least 1");
    }

    let table = generate_openaq(&OpenAqConfig::with_rows(rows));
    let sched = schedule(seed, requests);
    let seed_sched = cvopt_load::seeding(&sched);
    let exp = expected(&sched);
    println!(
        "schedule: {} statements ({} approximate over {} distinct problems, {} exact), seed {seed}",
        exp.total, exp.approximate, exp.distinct_problems, exp.exact
    );
    let mut snapshot: Vec<Row> = Vec::new();

    // ── Phase 1: seed → re-optimize → concurrent replay ─────────────────
    let mut engine = Engine::new().with_seed(seed);
    engine.register(mix::TABLE, table.clone());
    let server = Server::start(engine, server_config(2)).unwrap_or_else(|e| fail(&e.to_string()));
    let addr = server.addr();

    println!("phase 1: seeding {} hot/cold statements against http://{addr}", seed_sched.len());
    let seed_report = cvopt_load::run(addr, &seed_sched, RunConfig { workers: 1 });
    let (status, body) =
        client::post(addr, "/reoptimize", &format!(r#"{{"table":"{}"}}"#, mix::TABLE))
            .unwrap_or_else(|e| fail(&e.to_string()));
    if status != 200 {
        fail(&format!("/reoptimize answered {status}: {body}"));
    }
    println!("phase 1: re-optimized; {workers} workers replay the full schedule");
    let report = cvopt_load::run(addr, &sched, RunConfig { workers });
    let stats = fetch_stats(addr);
    // The gating contract: coalescing and the frozen durable reuse
    // set make these counters pure functions of the schedule. Fail
    // loudly before snapshotting a nondeterministic run.
    check(&stats, "stats_passes", exp.stats_passes);
    check(&stats, "cache_misses", exp.cache_misses);
    check(&stats, "cache_hits", exp.cache_hits);
    check(&stats, "cached_samples", exp.cached_samples);
    check(&stats, "reuse_hits", exp.reuse_hits);
    check(&stats, "draws_avoided", exp.reuse_hits);
    check(&stats, "cache_evictions", 0);
    // Served: the seeding run, the /reoptimize call, the replay, and
    // the /stats probe itself.
    check(&stats, "requests_served", (exp.seeded + exp.total) as u64 + 2);
    check(&stats, "keepalive_reuses", (exp.seeded - 1 + exp.total - workers) as u64);
    assert_eq!(seed_report.connects, 1, "seeding runs on one connection");
    assert_eq!(report.connects, workers as u64, "keep-alive: one connect per worker");
    assert!(stat(&stats, "draws_avoided") > 0, "the seeded mix must exercise the reuse planner");
    snapshot.push(Row::new("counters/phase1/seed_requests", exp.seeded as u64));
    snapshot.push(Row::new("counters/phase1/requests", exp.total as u64));
    snapshot.push(Row::new("counters/phase1/client_connects", report.connects));
    // Deterministically zero: admission control is off and the queue
    // never fills.
    snapshot.push(Row::new("counters/phase1/rejected_503", report.rejected_503));
    snapshot.push(Row::new("counters/phase1/retries", report.retries));
    for field in [
        "stats_passes",
        "cache_misses",
        "cache_hits",
        "reuse_hits",
        "draws_avoided",
        "cached_samples",
        "cache_bytes_held",
        "cache_evictions",
        "keepalive_reuses",
    ] {
        snapshot.push(Row::new(format!("counters/phase1/{field}"), stat(&stats, field)));
    }
    server.shutdown();

    // ── Phase 2: one sequential client, tiny cache budget ───────────────
    println!("phase 2: sequential run under a {cache_bytes}-byte cache budget");
    let mut engine = Engine::new().with_seed(seed).with_cache_bytes(Some(cache_bytes));
    engine.register(mix::TABLE, table.clone());
    let server = Server::start(engine, server_config(1)).unwrap_or_else(|e| fail(&e.to_string()));
    let report = cvopt_load::run(server.addr(), &sched, RunConfig { workers: 1 });
    let stats = fetch_stats(server.addr());
    let evictions = stat(&stats, "cache_evictions");
    let held = stat(&stats, "cache_bytes_held");
    assert!(evictions > 0, "the phase-2 budget ({cache_bytes}B) must force evictions");
    assert!(held <= cache_bytes, "cache over budget: {held} > {cache_bytes}");
    assert_eq!(report.connects, 1, "sequential phase uses one connection");
    for field in
        ["stats_passes", "cache_misses", "cached_samples", "cache_bytes_held", "cache_evictions"]
    {
        snapshot.push(Row::new(format!("counters/phase2/{field}"), stat(&stats, field)));
    }
    server.shutdown();

    // ── Phase 3: streaming ingest into a windowed table ─────────────────
    let batches: usize = 4;
    let batch_rows: usize = 500;
    let stream_rows = batches * batch_rows;
    if rows <= stream_rows * 2 {
        fail(&format!("--rows must exceed {} for the ingest phase", stream_rows * 2));
    }
    println!("phase 3: {batches} ingest batches of {batch_rows} rows into a windowed table");
    let base = table.take(&(0..rows - stream_rows).collect::<Vec<_>>());
    let mut engine = Engine::new().with_seed(seed);
    engine
        .register_windowed(mix::TABLE, base, "local_time")
        .unwrap_or_else(|e| fail(&e.to_string()));
    let server = Server::start(engine, server_config(1)).unwrap_or_else(|e| fail(&e.to_string()));
    let addr = server.addr();
    let stmt = "SELECT country, AVG(value) FROM openaq GROUP BY country";
    // Seed the query log with two shapes, then consolidate them into one
    // durable — and, on a windowed table, incrementally maintained —
    // sample. (Two shapes so the consolidated multi-spec problem is not
    // already cached; a cache hit would prepare nothing.)
    query_ok(addr, stmt);
    query_ok(addr, "SELECT parameter, AVG(value) FROM openaq GROUP BY parameter");
    let (status, body) =
        client::post(addr, "/reoptimize", &format!(r#"{{"table":"{}"}}"#, mix::TABLE))
            .unwrap_or_else(|e| fail(&e.to_string()));
    if status != 200 {
        fail(&format!("/reoptimize answered {status}: {body}"));
    }
    let passes_before = stat(&fetch_stats(addr), "stats_passes");
    for b in 0..batches {
        let start = rows - stream_rows + b * batch_rows;
        let (status, body) = client::post(addr, "/ingest", &ingest_body(&table, start, batch_rows))
            .unwrap_or_else(|e| fail(&e.to_string()));
        if status != 200 {
            fail(&format!("/ingest answered {status}: {body}"));
        }
    }
    // The post-ingest query must see the appended rows without a fresh
    // statistics pass: the maintained sample answers it.
    query_ok(addr, stmt);
    let stats = fetch_stats(addr);
    check(&stats, "ingested_rows", stream_rows as u64);
    check(&stats, "ingest_batches", batches as u64);
    check(&stats, "maintained_samples", 1);
    check(&stats, "stats_passes", passes_before);
    // Retention: one rotation at the midpoint of the window column; the
    // rebuild behind it is the only permitted extra pass.
    let cutoff = window_midpoint(&table);
    let (status, body) = client::post(
        addr,
        "/rotate",
        &format!(r#"{{"table":"{}","cutoff":{cutoff}}}"#, mix::TABLE),
    )
    .unwrap_or_else(|e| fail(&e.to_string()));
    if status != 200 {
        fail(&format!("/rotate answered {status}: {body}"));
    }
    let stats = fetch_stats(addr);
    check(&stats, "rotations", 1);
    check(&stats, "stats_passes", passes_before + 1);
    if stat(&stats, "rows_retired") == 0 {
        fail("the midpoint rotation must retire rows");
    }
    for field in
        ["ingested_rows", "ingest_batches", "maintained_samples", "stats_passes", "rows_retired"]
    {
        snapshot.push(Row::new(format!("counters/phase3/{field}"), stat(&stats, field)));
    }
    server.shutdown();

    let dir = cvopt_load::report::bench_dir();
    let path = cvopt_load::write_snapshot(&dir, "serving", &snapshot)
        .unwrap_or_else(|e| fail(&format!("write snapshot: {e}")));
    println!("wrote {} ({} rows)", path.display(), snapshot.len());
}

/// The pinned server shape for in-process phases: enough keep-alive
/// headroom that every load connection survives the whole run.
fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        thread_budget: workers,
        queue_capacity: 64,
        keepalive_idle: Duration::from_secs(300),
        keepalive_max_requests: usize::MAX,
        ..ServerConfig::default()
    }
}

/// POST one approximate statement and insist on a 200.
fn query_ok(addr: SocketAddr, sql: &str) -> Json {
    let (status, body) =
        client::post(addr, "/query", &format!(r#"{{"sql":"{sql}","mode":"approximate"}}"#))
            .unwrap_or_else(|e| fail(&e.to_string()));
    if status != 200 {
        fail(&format!("/query answered {status}: {body}"));
    }
    Json::parse(&body).unwrap_or_else(|e| fail(&format!("bad /query JSON: {e}")))
}

/// Serialize rows `[start, start + len)` of the fixture as a `/ingest`
/// body — one JSON array per row, values in schema order.
fn ingest_body(table: &Table, start: usize, len: usize) -> String {
    let rows = (start..start + len)
        .map(|r| {
            Json::Array(
                table
                    .columns()
                    .iter()
                    .map(|c| match c.value(r) {
                        Value::Int64(v) => Json::Int(v),
                        Value::Float64(v) => Json::Number(v),
                        Value::Bool(v) => Json::Bool(v),
                        Value::Str(s) => Json::string(s.to_string()),
                        Value::Timestamp(v) => Json::Int(v),
                        Value::Null => Json::Null,
                    })
                    .collect(),
            )
        })
        .collect();
    Json::object(vec![("table", Json::string(mix::TABLE)), ("rows", Json::Array(rows))]).to_string()
}

/// The midpoint of the fixture's `local_time` range — a rotation cutoff
/// that deterministically retires roughly half the window.
fn window_midpoint(table: &Table) -> i64 {
    match table.column_by_name("local_time") {
        Ok(Column::Timestamp(v)) => {
            let (min, max) = (v.iter().min().unwrap(), v.iter().max().unwrap());
            min + (max - min) / 2
        }
        other => fail(&format!("local_time must be a timestamp column, got {other:?}")),
    }
}

fn fetch_stats(addr: SocketAddr) -> Json {
    let (status, body) = client::get(addr, "/stats").unwrap_or_else(|e| fail(&e.to_string()));
    if status != 200 {
        fail(&format!("/stats answered {status}: {body}"));
    }
    Json::parse(&body).unwrap_or_else(|e| fail(&format!("bad /stats JSON: {e}")))
}

fn stat(stats: &Json, field: &str) -> u64 {
    stats
        .get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| fail(&format!("/stats lacks {field}: {stats}")))
}

fn check(stats: &Json, field: &str, want: u64) {
    let got = stat(stats, field);
    if got != want {
        fail(&format!("nondeterministic run: {field} = {got}, schedule predicts {want}"));
    }
}

fn parse<T: std::str::FromStr>(value: &str, name: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(&format!("invalid value '{value}' for {name}")))
}

fn fail(message: &str) -> ! {
    eprintln!("cvopt-load: {message}");
    std::process::exit(2);
}
