//! The endpoint handlers: one pure-ish function from a parsed
//! [`Request`] to a [`Response`].
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/query` | POST | Answer SQL exactly or approximately; rows, CIs, and the plan report inline |
//! | `/explain` | GET | The plan report alone, without executing |
//! | `/tables` | POST | Register a CSV or generated table, plain or sharded, optionally windowed |
//! | `/ingest` | POST | Append a row batch to a registered table, maintaining its durable samples |
//! | `/rotate` | POST | Drop rows below a window-column cutoff (retention) |
//! | `/reoptimize` | POST | Consolidate a table's query log into one workload-tuned reusable sample |
//! | `/healthz` | GET | Liveness |
//! | `/stats` | GET | Cache hit/miss/reuse counters, pass counts, queue depth |
//!
//! Handlers never touch the network: the server hands them parsed
//! requests and writes their responses, and tests call them directly.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cvopt_core::{
    total_draws, total_draws_avoided, total_stats_passes, AggConfidence, ExplainReport,
    QueryAnswer, QueryMode, ReuseInfo,
};
use cvopt_table::{
    csv, DataType, KeyAtom, QueryResult, Schema, ShardReader, ShardSet, ShardedTable,
};

use crate::http::{Request, Response};
use crate::json::Json;
use crate::shared::SharedEngine;

/// Largest `rows` accepted for a generated table (~10M rows ≈ a few
/// hundred MB materialized — generous, but bounded, mirroring the body
///-size bound on CSV uploads).
const MAX_GENERATED_ROWS: u64 = 10_000_000;

/// Largest `shards` accepted when registering a table — one shard per
/// node is the deployment story, so thousands is already generous, and
/// `ShardedTable::split` allocates per shard (same OOM concern as
/// `MAX_GENERATED_ROWS`).
const MAX_SHARDS: u64 = 4096;

/// Everything a worker needs to answer requests: the shared engine plus
/// the server-level gauges surfaced by `/stats`.
#[derive(Debug)]
pub struct ApiState {
    /// The engine every request runs against.
    pub engine: SharedEngine,
    /// Requests accepted but not yet picked up by a worker.
    pub queue_depth: Arc<AtomicUsize>,
    /// Capacity of the bounded work queue.
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Worker threads each request's passes run with (the per-request
    /// slice of the server-wide thread budget).
    pub request_threads: usize,
    /// Requests answered by a worker so far (including the one being
    /// answered).
    pub requests_served: AtomicU64,
    /// Requests refused with 503 because the queue was full.
    pub requests_rejected: Arc<AtomicU64>,
    /// Requests served on an already-used keep-alive connection (total
    /// requests minus first-requests-per-connection).
    pub keepalive_reuses: AtomicU64,
    /// Requests refused with 503 by per-peer admission control (shared
    /// with the server's [`crate::admission::AdmissionControl`]).
    pub admission_rejections: Arc<AtomicU64>,
}

/// Dispatch one request.
pub fn handle(state: &ApiState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/stats") => stats(state),
        ("POST", "/query") => with_body(req, |body| query(state, body)),
        ("GET", "/explain") => explain(state, req),
        ("POST", "/tables") => with_body(req, |body| tables(state, body)),
        ("POST", "/ingest") => with_body(req, |body| ingest(state, body)),
        ("POST", "/rotate") => with_body(req, |body| rotate(state, body)),
        ("POST", "/reoptimize") => with_body(req, |body| reoptimize(state, body)),
        (_, "/healthz" | "/stats" | "/explain") => Response::error(405, "use GET"),
        (_, "/query" | "/tables" | "/ingest" | "/rotate" | "/reoptimize") => {
            Response::error(405, "use POST")
        }
        _ => Response::error(404, &format!("no such endpoint: {}", req.path)),
    }
}

fn healthz(_state: &ApiState) -> Response {
    // Deliberately lock-free: liveness must not stall behind a pending
    // registration (a writer waiting on the engine lock blocks new
    // readers). Table counts live in /stats.
    Response::ok(Json::object(vec![("status", Json::string("ok"))]).to_string())
}

fn stats(state: &ApiState) -> Response {
    let engine = state.engine.counters();
    let body = Json::object(vec![
        ("cache_hits", Json::count(engine.cache_hits)),
        ("cache_misses", Json::count(engine.cache_misses)),
        ("reuse_hits", Json::count(engine.reuse_hits)),
        ("draws_avoided", Json::count(engine.draws_avoided)),
        ("stats_passes", Json::count(engine.stats_passes)),
        ("cached_samples", Json::count(engine.cached_samples)),
        ("cache_evictions", Json::count(engine.cache_evictions)),
        ("cache_bytes_held", Json::count(engine.cache_bytes_held)),
        ("tables", Json::count(engine.tables)),
        ("process_stats_passes", Json::count(total_stats_passes())),
        ("process_draws", Json::count(total_draws())),
        ("process_draws_avoided", Json::count(total_draws_avoided())),
        ("queue_depth", Json::count(state.queue_depth.load(Ordering::Relaxed) as u64)),
        ("queue_capacity", Json::count(state.queue_capacity as u64)),
        ("workers", Json::count(state.workers as u64)),
        ("request_threads", Json::count(state.request_threads as u64)),
        ("requests_served", Json::count(state.requests_served.load(Ordering::Relaxed))),
        ("requests_rejected", Json::count(state.requests_rejected.load(Ordering::Relaxed))),
        ("keepalive_reuses", Json::count(state.keepalive_reuses.load(Ordering::Relaxed))),
        ("admission_rejections", Json::count(state.admission_rejections.load(Ordering::Relaxed))),
        ("net_requests", Json::count(cvopt_net::net_requests())),
        ("net_retries", Json::count(cvopt_net::net_retries())),
        ("net_circuit_opens", Json::count(cvopt_net::net_circuit_opens())),
        ("net_bytes_sent", Json::count(cvopt_net::net_bytes_sent())),
        ("net_bytes_received", Json::count(cvopt_net::net_bytes_received())),
        ("ingested_rows", Json::count(engine.ingested_rows)),
        ("ingest_batches", Json::count(engine.ingest_batches)),
        ("maintained_samples", Json::count(engine.maintained_samples)),
        ("rotations", Json::count(engine.rotations)),
        ("rows_retired", Json::count(engine.rows_retired)),
    ]);
    Response::ok(body.to_string())
}

fn query(state: &ApiState, body: &Json) -> Response {
    let Some(sql) = body.get("sql").and_then(Json::as_str) else {
        return Response::error(400, "body must carry a string field 'sql'");
    };
    let mode = match body.get("mode").map(parse_mode).transpose() {
        Ok(m) => m.unwrap_or(QueryMode::Auto),
        Err(r) => return r,
    };
    match state.engine.query(sql, mode) {
        Ok(answer) => Response::ok(answer_json(&answer).to_string()),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

fn explain(state: &ApiState, req: &Request) -> Response {
    let Some(sql) = req.query_param("sql") else {
        return Response::error(400, "pass the statement as ?sql=...");
    };
    let mode = match req.query_param("mode").map(parse_mode_str).transpose() {
        Ok(m) => m.unwrap_or(QueryMode::Auto),
        Err(r) => return r,
    };
    match state.engine.explain(sql, mode) {
        Ok(report) => Response::ok(report_json(&report).to_string()),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

fn tables(state: &ApiState, body: &Json) -> Response {
    let Some(name) = body.get("name").and_then(Json::as_str) else {
        return Response::error(400, "body must carry a string field 'name'");
    };
    let table = match (body.get("csv"), body.get("generated")) {
        (Some(csv_text), None) => {
            let Some(text) = csv_text.as_str() else {
                return Response::error(400, "'csv' must be a string of CSV text");
            };
            let schema = match parse_columns(body) {
                Ok(s) => s,
                Err(r) => return r,
            };
            match csv::read_table(Cursor::new(text.as_bytes()), schema) {
                Ok(t) => t,
                Err(e) => return Response::error(400, &e.to_string()),
            }
        }
        (None, Some(generated)) => {
            let Some(kind) = generated.as_str() else {
                return Response::error(400, "'generated' must be \"openaq\" or \"bikes\"");
            };
            let Some(rows) = body.get("rows").and_then(Json::as_u64) else {
                return Response::error(400, "generated tables need an integer 'rows'");
            };
            // The CSV path is bounded by max_body_bytes; bound this one
            // too, or a single small request could OOM the process.
            if rows > MAX_GENERATED_ROWS {
                return Response::error(
                    400,
                    &format!(
                        "'rows' exceeds the {MAX_GENERATED_ROWS}-row limit for generated tables"
                    ),
                );
            }
            match kind {
                "openaq" => cvopt_datagen::generate_openaq(
                    &cvopt_datagen::OpenAqConfig::with_rows(rows as usize),
                ),
                "bikes" => cvopt_datagen::generate_bikes(&cvopt_datagen::BikesConfig::with_rows(
                    rows as usize,
                )),
                other => {
                    return Response::error(
                        400,
                        &format!("unknown generator '{other}' (expected openaq or bikes)"),
                    )
                }
            }
        }
        _ => return Response::error(400, "body must carry exactly one of 'csv' or 'generated'"),
    };
    let rows = table.num_rows();
    let shards = match body.get("shards") {
        // An explicit null means the same as an absent field — it is what
        // this endpoint's own response emits for unsharded tables.
        None | Some(Json::Null) => None,
        Some(s) => match s.as_u64() {
            None | Some(0) => return Response::error(400, "'shards' must be a positive integer"),
            Some(n) if n > MAX_SHARDS => {
                return Response::error(
                    400,
                    &format!("'shards' exceeds the {MAX_SHARDS}-shard limit"),
                )
            }
            Some(n) => Some(n as usize),
        },
    };
    let remote = match body.get("remote") {
        None | Some(Json::Null) => None,
        Some(r) => {
            let addrs: Option<Vec<&str>> =
                r.as_array().map(|a| a.iter().filter_map(Json::as_str).collect());
            match addrs {
                Some(addrs)
                    if !addrs.is_empty()
                        && addrs.len() == r.as_array().map(|a| a.len()).unwrap_or(0) =>
                {
                    Some(addrs)
                }
                _ => {
                    return Response::error(
                        400,
                        "'remote' must be a non-empty array of shard-server addresses",
                    )
                }
            }
        }
    };
    let window = match body.get("window") {
        None | Some(Json::Null) => None,
        Some(w) => match w.as_str() {
            Some(col) => Some(col.to_string()),
            None => return Response::error(400, "'window' must be a column name string"),
        },
    };
    match remote {
        Some(addrs) => {
            if window.is_some() {
                return Response::error(
                    400,
                    "remote tables cannot declare 'window': their rows live at the shard \
                     servers; re-register the table with its new rows",
                );
            }
            // Shard the table across the listed shard servers, round-robin.
            // `shards` defaults to one shard per server.
            let n = shards.unwrap_or(addrs.len());
            let sharded = match ShardedTable::split(&table, n) {
                Ok(sharded) => sharded,
                Err(e) => return Response::error(400, &e.to_string()),
            };
            match register_remote(state, name, &sharded, &addrs) {
                Ok(()) => {}
                Err(e) => return Response::error(502, &e),
            }
            let body = Json::object(vec![
                ("table", Json::string(name)),
                ("rows", Json::count(rows as u64)),
                ("shards", Json::count(n as u64)),
                ("window", Json::Null),
            ]);
            return Response::ok(body.to_string());
        }
        None => {
            let source: cvopt_core::CatalogTable = match shards {
                Some(n) => match ShardedTable::split(&table, n) {
                    Ok(sharded) => sharded.into(),
                    Err(e) => return Response::error(400, &e.to_string()),
                },
                None => table.into(),
            };
            match &window {
                Some(col) => {
                    if let Err(e) = state.engine.register_windowed(name, source, col) {
                        return Response::error(400, &e.to_string());
                    }
                }
                None => state.engine.register(name, source),
            }
        }
    }
    let body = Json::object(vec![
        ("table", Json::string(name)),
        ("rows", Json::count(rows as u64)),
        ("shards", Json::opt(shards, |n| Json::count(n as u64))),
        ("window", Json::opt(window, Json::string)),
    ]);
    Response::ok(body.to_string())
}

/// Append a JSON row batch to a registered table (see
/// [`cvopt_core::Engine::ingest`]). Body: `{"table": "...", "rows":
/// [[...], ...]}`, each row an array of values in schema order. The
/// engine keeps every cached sample of the table fresh — maintained
/// samples fold the batch in, everything else is invalidated.
fn ingest(state: &ApiState, body: &Json) -> Response {
    let Some(name) = body.get("table").and_then(Json::as_str) else {
        return Response::error(400, "body must carry a string field 'table'");
    };
    let Some(rows) = body.get("rows").and_then(Json::as_array) else {
        return Response::error(400, "'rows' must be an array of row arrays");
    };
    let Some(schema) =
        state.engine.with_engine(|e| e.catalog_table(name).map(|t| t.set().schema().clone()))
    else {
        return Response::error(400, &format!("table '{name}' is not registered"));
    };
    let batch = match build_batch(&schema, rows) {
        Ok(b) => b,
        Err(r) => return r,
    };
    match state.engine.ingest(name, &batch) {
        Ok(report) => Response::ok(
            Json::object(vec![
                ("table", Json::string(&report.table)),
                ("rows", Json::count(report.rows as u64)),
                ("total_rows", Json::count(report.total_rows as u64)),
                ("maintained", Json::count(report.maintained as u64)),
            ])
            .to_string(),
        ),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Retention rotation: drop rows whose window-column value is below
/// `cutoff` (see [`cvopt_core::Engine::rotate`]). Body: `{"table": "...",
/// "cutoff": <integer>}`.
fn rotate(state: &ApiState, body: &Json) -> Response {
    let Some(name) = body.get("table").and_then(Json::as_str) else {
        return Response::error(400, "body must carry a string field 'table'");
    };
    let Some(cutoff) = body.get("cutoff").and_then(Json::as_i64) else {
        return Response::error(400, "'cutoff' must be an integer");
    };
    match state.engine.rotate(name, cutoff) {
        Ok(report) => Response::ok(
            Json::object(vec![
                ("table", Json::string(&report.table)),
                ("retired", Json::count(report.retired as u64)),
                ("remaining", Json::count(report.remaining as u64)),
                ("maintained", Json::count(report.maintained as u64)),
            ])
            .to_string(),
        ),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Build an ingest batch from JSON rows, typed by the target table's
/// schema (one array per row, values in schema order).
fn build_batch(schema: &Schema, rows: &[Json]) -> Result<cvopt_table::Table, Response> {
    let mut b = cvopt_table::TableBuilder::from_schema(schema.clone());
    b.reserve(rows.len());
    let mut values = Vec::with_capacity(schema.len());
    for (r, row) in rows.iter().enumerate() {
        let Some(cells) = row.as_array() else {
            return Err(Response::error(400, &format!("row {r} is not an array")));
        };
        if cells.len() != schema.len() {
            return Err(Response::error(
                400,
                &format!("row {r} has {} values, schema has {} columns", cells.len(), schema.len()),
            ));
        }
        values.clear();
        for (cell, field) in cells.iter().zip(schema.fields()) {
            let value = match field.dtype {
                DataType::Int64 => cell.as_i64().map(cvopt_table::Value::Int64),
                DataType::Float64 => cell.as_f64().map(cvopt_table::Value::Float64),
                DataType::Str => cell.as_str().map(cvopt_table::Value::str),
                DataType::Bool => cell.as_bool().map(cvopt_table::Value::Bool),
                DataType::Timestamp => cell.as_i64().map(cvopt_table::Value::Timestamp),
            };
            let Some(value) = value else {
                return Err(Response::error(
                    400,
                    &format!(
                        "row {r}: column '{}' expects {:?}, got {cell:?}",
                        field.name, field.dtype
                    ),
                ));
            };
            values.push(value);
        }
        if let Err(e) = b.push_row(&values) {
            return Err(Response::error(400, &format!("row {r}: {e}")));
        }
    }
    Ok(b.finish())
}

/// Consolidate one table's query log into a durable reuse-candidate
/// sample (see [`cvopt_core::Engine::reoptimize`]). Meant for a
/// maintenance loop or an operator; answers `{"reoptimized": false}` when
/// the table has no logged queries yet.
fn reoptimize(state: &ApiState, body: &Json) -> Response {
    let Some(table) = body.get("table").and_then(Json::as_str) else {
        return Response::error(400, "body must carry a string field 'table'");
    };
    match state.engine.reoptimize(table) {
        Ok(Some(report)) => Response::ok(
            Json::object(vec![
                ("reoptimized", Json::Bool(true)),
                ("table", Json::string(&report.table)),
                ("logged", Json::count(report.logged as u64)),
                ("distinct_shapes", Json::count(report.distinct_shapes as u64)),
                ("budget", Json::count(report.budget as u64)),
                ("fingerprint", Json::string(format!("{:#018x}", report.fingerprint))),
                ("cache_hit", Json::Bool(report.cache_hit)),
                ("strata", Json::count(report.strata as u64)),
                ("sample_rows", Json::count(report.sample_rows as u64)),
            ])
            .to_string(),
        ),
        Ok(None) => Response::ok(
            Json::object(vec![
                ("reoptimized", Json::Bool(false)),
                ("table", Json::string(table)),
                ("logged", Json::count(0)),
            ])
            .to_string(),
        ),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Ship each shard of `sharded` to a shard server (round-robin over
/// `addrs`) and register the resulting [`ShardSet`] under `name`. One
/// [`cvopt_net::Peer`] is opened per distinct address and shared by every
/// shard living there.
fn register_remote(
    state: &ApiState,
    name: &str,
    sharded: &ShardedTable,
    addrs: &[&str],
) -> Result<(), String> {
    let mut peers: Vec<Arc<cvopt_net::Peer>> = Vec::with_capacity(addrs.len());
    for addr in addrs {
        let peer =
            cvopt_net::Peer::connect(*addr).map_err(|e| format!("shard server {addr}: {e}"))?;
        peers.push(Arc::new(peer));
    }
    let mut readers: Vec<Arc<dyn ShardReader>> = Vec::with_capacity(sharded.shards().len());
    for (s, shard) in sharded.shards().iter().enumerate() {
        let peer = Arc::clone(&peers[s % peers.len()]);
        let remote = cvopt_net::RemoteShard::register(peer, format!("{name}/{s}"), shard)
            .map_err(|e| e.to_string())?;
        readers.push(Arc::new(remote));
    }
    let set = ShardSet::new(readers).map_err(|e| e.to_string())?;
    state.engine.register(name, set);
    Ok(())
}

/// Run `f` on the request body, which has to be a JSON object.
fn with_body(req: &Request, f: impl FnOnce(&Json) -> Response) -> Response {
    let parsed = req.body_utf8().and_then(|text| Json::parse(text).map_err(|e| e.to_string()));
    match parsed {
        Ok(body @ Json::Object(_)) => f(&body),
        Ok(_) => Response::error(400, "request body must be a JSON object"),
        Err(e) => Response::error(400, &e),
    }
}

fn parse_mode(value: &Json) -> Result<QueryMode, Response> {
    match value.as_str() {
        Some(s) => parse_mode_str(s),
        None => Err(Response::error(400, "'mode' must be a string")),
    }
}

fn parse_mode_str(s: &str) -> Result<QueryMode, Response> {
    match s.to_ascii_lowercase().as_str() {
        "exact" => Ok(QueryMode::Exact),
        "approximate" | "approx" => Ok(QueryMode::Approximate),
        "auto" => Ok(QueryMode::Auto),
        other => Err(Response::error(
            400,
            &format!("unknown mode '{other}' (expected exact, approximate, or auto)"),
        )),
    }
}

/// Parse the `columns` field: an array of `[name, type]` pairs.
fn parse_columns(body: &Json) -> Result<Schema, Response> {
    let bad = || Response::error(400, "'columns' must be an array of [name, type] pairs");
    let Some(columns) = body.get("columns").and_then(Json::as_array) else {
        return Err(bad());
    };
    let mut fields: Vec<(String, DataType)> = Vec::with_capacity(columns.len());
    for col in columns {
        let Some([name, dtype]) = col.as_array().and_then(|a| <&[Json; 2]>::try_from(a).ok())
        else {
            return Err(bad());
        };
        let (Some(name), Some(dtype)) = (name.as_str(), dtype.as_str()) else {
            return Err(bad());
        };
        let dtype = match dtype.to_ascii_lowercase().as_str() {
            "int64" | "int" | "i64" => DataType::Int64,
            "float64" | "float" | "f64" => DataType::Float64,
            "str" | "string" => DataType::Str,
            "bool" => DataType::Bool,
            "timestamp" => DataType::Timestamp,
            other => return Err(Response::error(400, &format!("unknown column type '{other}'"))),
        };
        fields.push((name.to_string(), dtype));
    }
    let borrowed: Vec<(&str, DataType)> = fields.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    Ok(Schema::new(&borrowed))
}

/// Encode a [`QueryAnswer`]: plan report, one result per grouping set,
/// and confidence intervals for approximate `AVG` aggregates.
pub fn answer_json(answer: &QueryAnswer) -> Json {
    Json::object(vec![
        ("report", report_json(&answer.report)),
        ("results", Json::Array(answer.results.iter().map(result_json).collect())),
        ("confidence", Json::Array(answer.confidence.iter().map(confidence_json).collect())),
    ])
}

/// Encode an [`ExplainReport`] — including the partition/shard layout the
/// execution layer will use, so `/explain` doubles as the SQL front-end's
/// EXPLAIN.
pub fn report_json(report: &ExplainReport) -> Json {
    Json::object(vec![
        ("table", Json::string(&report.table)),
        ("table_rows", Json::count(report.table_rows as u64)),
        ("mode", Json::string(mode_name(report.mode))),
        ("reason", Json::string(report.reason)),
        ("join", Json::opt(report.join.clone(), Json::string)),
        ("cache_hit", Json::opt(report.cache_hit, Json::Bool)),
        ("reuse", reuse_json(&report.reuse)),
        // u64 fingerprints overflow JSON's f64 numbers; hex keeps them exact.
        ("fingerprint", Json::opt(report.fingerprint, |f| Json::string(format!("{f:#018x}")))),
        ("budget", Json::opt(report.budget, |b| Json::count(b as u64))),
        ("strata", Json::opt(report.strata, |s| Json::count(s as u64))),
        ("sample_rows", Json::opt(report.sample_rows, |r| Json::count(r as u64))),
        ("partitions", Json::count(report.partitions as u64)),
        ("threads", Json::count(report.threads as u64)),
        ("shards", Json::opt(report.shards, |s| Json::count(s as u64))),
        (
            "shard_partitions",
            Json::opt(report.shard_partitions.clone(), |ps| {
                Json::Array(ps.into_iter().map(|p| Json::count(p as u64)).collect())
            }),
        ),
        ("remote_shards", Json::opt(report.remote_shards, |s| Json::count(s as u64))),
    ])
}

/// Encode a [`ReuseInfo`]: `null` when no cached sample was involved, a
/// tagged object otherwise (fingerprints in hex, like the report's own).
fn reuse_json(reuse: &ReuseInfo) -> Json {
    match reuse {
        ReuseInfo::None => Json::Null,
        ReuseInfo::Exact { fingerprint } => Json::object(vec![
            ("kind", Json::string("exact")),
            ("fingerprint", Json::string(format!("{fingerprint:#018x}"))),
        ]),
        ReuseInfo::Derived { source_fingerprint, coarsened_groups, dropped_predicates } => {
            Json::object(vec![
                ("kind", Json::string("derived")),
                ("source_fingerprint", Json::string(format!("{source_fingerprint:#018x}"))),
                (
                    "coarsened_groups",
                    Json::Array(coarsened_groups.iter().map(Json::string).collect()),
                ),
                (
                    "dropped_predicates",
                    Json::Array(dropped_predicates.iter().map(Json::string).collect()),
                ),
            ])
        }
    }
}

fn mode_name(mode: QueryMode) -> &'static str {
    match mode {
        QueryMode::Exact => "exact",
        QueryMode::Approximate => "approximate",
        QueryMode::Auto => "auto",
    }
}

fn result_json(result: &QueryResult) -> Json {
    let groups = result
        .iter()
        .zip(&result.group_rows)
        .map(|((key, values), &rows)| {
            Json::object(vec![
                ("key", key_json(key)),
                ("values", Json::Array(values.iter().map(|&v| Json::Number(v)).collect())),
                ("rows", Json::count(rows)),
            ])
        })
        .collect();
    Json::object(vec![
        (
            "grouping",
            Json::Array(result.grouping.iter().map(|g| Json::string(g.as_str())).collect()),
        ),
        (
            "aggregates",
            Json::Array(result.agg_names.iter().map(|a| Json::string(a.as_str())).collect()),
        ),
        ("groups", Json::Array(groups)),
    ])
}

fn confidence_json(conf: &AggConfidence) -> Json {
    let groups = conf
        .estimates
        .iter()
        .map(|est| {
            let (lo, hi) = est.ci95();
            Json::object(vec![
                ("key", key_json(&est.key)),
                ("estimate", Json::Number(est.estimate)),
                ("std_error", Json::Number(est.std_error)),
                ("cv", Json::Number(est.cv)),
                ("ci95", Json::Array(vec![Json::Number(lo), Json::Number(hi)])),
                ("sampled_rows", Json::count(est.sampled_rows)),
            ])
        })
        .collect();
    Json::object(vec![
        ("aggregate", Json::count(conf.agg_index as u64)),
        ("groups", Json::Array(groups)),
    ])
}

fn key_json(key: &[KeyAtom]) -> Json {
    Json::Array(
        key.iter()
            .map(|atom| match atom {
                KeyAtom::Int(v) => Json::Int(*v),
                KeyAtom::Str(s) => Json::string(s.as_ref()),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_core::Engine;
    use cvopt_table::{TableBuilder, Value};

    fn state() -> ApiState {
        let mut engine = Engine::new().with_seed(2).with_auto_threshold(1000);
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..3000usize {
            b.push_row(&[Value::str(["a", "b"][i % 2]), Value::Float64((i % 11) as f64)]).unwrap();
        }
        engine.register("t", b.finish());
        ApiState {
            engine: SharedEngine::new(engine),
            queue_depth: Arc::new(AtomicUsize::new(0)),
            queue_capacity: 8,
            workers: 2,
            request_threads: 1,
            requests_served: AtomicU64::new(0),
            requests_rejected: Arc::new(AtomicU64::new(0)),
            keepalive_reuses: AtomicU64::new(0),
            admission_rejections: Arc::new(AtomicU64::new(0)),
        }
    }

    fn parse_request(raw: String) -> Request {
        match crate::http::read_request(&mut Cursor::new(raw.into_bytes()), Vec::new(), 1 << 20)
            .unwrap()
        {
            crate::http::ReadOutcome::Request(req) => req,
            other => panic!("test request must parse, got {other:?}"),
        }
    }

    fn get(path: &str) -> Request {
        parse_request(format!("GET {path} HTTP/1.1\r\n\r\n"))
    }

    fn post(path: &str, body: &str) -> Request {
        parse_request(format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ))
    }

    #[test]
    fn query_answers_and_reports() {
        let state = state();
        let req =
            post("/query", r#"{"sql":"SELECT g, AVG(x) FROM t GROUP BY g","mode":"approximate"}"#);
        let resp = handle(&state, &req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        let report = body.get("report").unwrap();
        assert_eq!(report.get("mode").unwrap().as_str(), Some("approximate"));
        assert_eq!(report.get("cache_hit").unwrap().as_bool(), Some(false));
        assert!(report.get("fingerprint").unwrap().as_str().unwrap().starts_with("0x"));
        let results = body.get("results").unwrap().as_array().unwrap();
        let groups = results[0].get("groups").unwrap().as_array().unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].get("key").unwrap().as_array().unwrap()[0].as_str(), Some("a"));
        let confidence = body.get("confidence").unwrap().as_array().unwrap();
        assert_eq!(confidence.len(), 1);
        // Second call: cache hit over the wire.
        let resp = handle(&state, &req);
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(body.get("report").unwrap().get("cache_hit").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn explain_reports_partitions_without_executing() {
        let state = state();
        let req = get("/explain?sql=SELECT%20g,%20AVG(x)%20FROM%20t%20GROUP%20BY%20g&mode=auto");
        let resp = handle(&state, &req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(body.get("mode").unwrap().as_str(), Some("approximate"));
        assert_eq!(body.get("partitions").unwrap().as_u64(), Some(1));
        assert_eq!(body.get("shards").unwrap(), &Json::Null);
        assert_eq!(state.engine.counters().stats_passes, 0, "explain must not sample");
    }

    #[test]
    fn explain_select_statement_reports_without_executing() {
        let state = state();
        let req = post(
            "/query",
            r#"{"sql":"EXPLAIN SELECT g, AVG(x) FROM t GROUP BY g","mode":"exact"}"#,
        );
        let resp = handle(&state, &req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(body.get("results").unwrap().as_array().unwrap().len(), 0, "{}", resp.body);
        let report = body.get("report").unwrap();
        assert_eq!(report.get("table").unwrap().as_str(), Some("t"), "{}", resp.body);
        assert_eq!(report.get("join").unwrap(), &Json::Null);
        assert_eq!(state.engine.counters().stats_passes, 0, "EXPLAIN must not sample");
    }

    #[test]
    fn join_queries_answer_over_the_wire() {
        let state = state();
        let body =
            r#"{"name":"dim","csv":"g,w\na,10\nb,20\n","columns":[["g","str"],["w","float64"]]}"#;
        let resp = handle(&state, &post("/tables", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let req = post(
            "/query",
            r#"{"sql":"SELECT g, SUM(w) FROM t JOIN dim ON t.g = dim.g GROUP BY g","mode":"exact"}"#,
        );
        let resp = handle(&state, &req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        let report = parsed.get("report").unwrap();
        assert_eq!(report.get("join").unwrap().as_str(), Some("dim ON t.g = dim.g"));
        assert_eq!(report.get("mode").unwrap().as_str(), Some("exact"));
        let groups = parsed.get("results").unwrap().as_array().unwrap()[0]
            .get("groups")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(groups.len(), 2);
        // t alternates a/b over 3000 rows: 1500 of each side.
        assert_eq!(groups[0].get("key").unwrap().as_array().unwrap()[0].as_str(), Some("a"));
        assert_eq!(
            groups[0].get("values").unwrap().as_array().unwrap()[0].as_f64(),
            Some(15_000.0)
        );
        assert_eq!(
            groups[1].get("values").unwrap().as_array().unwrap()[0].as_f64(),
            Some(30_000.0)
        );
    }

    #[test]
    fn parse_errors_point_at_the_offending_sql() {
        let state = state();
        let resp = handle(
            &state,
            &post("/query", r#"{"sql":"SELECT AVG(x) FROM t WHERRE v > 1","mode":"exact"}"#),
        );
        assert_eq!(resp.status, 400, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        let err = parsed.get("error").unwrap().as_str().unwrap();
        assert!(err.contains("near \"WHERRE v > 1\""), "error must carry a snippet: {err}");
        // Truncated statements point at the end instead.
        let resp =
            handle(&state, &post("/query", r#"{"sql":"SELECT AVG(x) FROM","mode":"exact"}"#));
        assert_eq!(resp.status, 400, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        let err = parsed.get("error").unwrap().as_str().unwrap();
        assert!(err.contains("at end of statement"), "{err}");
    }

    #[test]
    fn tables_registers_csv_plain_and_sharded() {
        let state = state();
        let body = r#"{"name":"mini","csv":"g,x\na,1.5\nb,2.5\na,3.5\n","columns":[["g","str"],["x","float64"]],"shards":2}"#;
        let resp = handle(&state, &post("/tables", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        assert_eq!(parsed.get("rows").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("shards").unwrap().as_u64(), Some(2));
        let resp = handle(
            &state,
            &post("/query", r#"{"sql":"SELECT g, SUM(x) FROM mini GROUP BY g","mode":"exact"}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        let report = body.get("report").unwrap();
        assert_eq!(report.get("shards").unwrap().as_u64(), Some(2));
        let groups = body.get("results").unwrap().as_array().unwrap()[0]
            .get("groups")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(groups[0].get("values").unwrap().as_array().unwrap()[0].as_f64(), Some(5.0));
    }

    #[test]
    fn tables_registers_remote_shards() {
        let state = state();
        let shardd = cvopt_net::Shardd::bind("127.0.0.1:0", 2).unwrap();
        let addr = shardd.addr();
        let body = format!(
            r#"{{"name":"mini","csv":"g,x\na,1.5\nb,2.5\na,3.5\nb,4.5\n","columns":[["g","str"],["x","float64"]],"shards":2,"remote":["{addr}"]}}"#
        );
        let resp = handle(&state, &post("/tables", &body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        assert_eq!(parsed.get("rows").unwrap().as_u64(), Some(4));
        assert_eq!(parsed.get("shards").unwrap().as_u64(), Some(2));

        let resp = handle(
            &state,
            &post("/query", r#"{"sql":"SELECT g, SUM(x) FROM mini GROUP BY g","mode":"exact"}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        let report = parsed.get("report").unwrap();
        assert_eq!(report.get("shards").unwrap().as_u64(), Some(2));
        assert_eq!(report.get("remote_shards").unwrap().as_u64(), Some(2));
        let groups = parsed.get("results").unwrap().as_array().unwrap()[0]
            .get("groups")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(groups[0].get("values").unwrap().as_array().unwrap()[0].as_f64(), Some(5.0));
        assert_eq!(groups[1].get("values").unwrap().as_array().unwrap()[0].as_f64(), Some(7.0));
        drop(shardd);
    }

    #[test]
    fn tables_remote_registration_failures_are_502() {
        let state = state();
        // A closed port: connection refused at registration time.
        let body =
            r#"{"name":"x","csv":"g\na\n","columns":[["g","str"]],"remote":["127.0.0.1:1"]}"#;
        let resp = handle(&state, &post("/tables", body));
        assert_eq!(resp.status, 502, "{}", resp.body);
        // And a malformed remote list is the caller's error.
        let body = r#"{"name":"x","csv":"g\na\n","columns":[["g","str"]],"remote":[]}"#;
        let resp = handle(&state, &post("/tables", body));
        assert_eq!(resp.status, 400, "{}", resp.body);
    }

    #[test]
    fn tables_registers_generated() {
        let state = state();
        let resp = handle(
            &state,
            &post("/tables", r#"{"name":"openaq","generated":"openaq","rows":5000}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(state.engine.counters().tables, 2);
    }

    #[test]
    fn tables_bounds_hostile_sizes_and_accepts_null_shards() {
        let state = state();
        // One small request must not be able to allocate unbounded memory.
        let resp = handle(
            &state,
            &post("/tables", r#"{"name":"x","generated":"openaq","rows":999999999999}"#),
        );
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("limit"), "{}", resp.body);
        let resp = handle(
            &state,
            &post(
                "/tables",
                r#"{"name":"x","csv":"g\na\n","columns":[["g","str"]],"shards":99999999}"#,
            ),
        );
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("shard"), "{}", resp.body);
        // A repeated column name would register a column no statement can
        // read.
        let resp = handle(
            &state,
            &post(
                "/tables",
                r#"{"name":"x","csv":"x,x\n1.5,a\n","columns":[["x","float64"],["x","str"]]}"#,
            ),
        );
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body.contains("line 1") && resp.body.contains("repeats column"),
            "{}",
            resp.body
        );
        // An explicit null round-trips from this endpoint's own response
        // shape and means "unsharded".
        let resp = handle(
            &state,
            &post(
                "/tables",
                r#"{"name":"x","csv":"g\na\n","columns":[["g","str"]],"shards":null}"#,
            ),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(Json::parse(&resp.body).unwrap().get("shards").unwrap(), &Json::Null);
    }

    #[test]
    fn int64_keys_survive_the_wire_above_2_pow_53() {
        // 2^53 + 1 is not representable as f64; the key must still
        // round-trip exactly.
        let big = (1i64 << 53) + 1;
        let state = state();
        let csv = format!("id,x\n{big},1.5\n{big},2.5\n{},4.0\n", big + 1);
        let body = format!(
            r#"{{"name":"ids","csv":"{}","columns":[["id","int64"],["x","float64"]]}}"#,
            csv.replace('\n', "\\n")
        );
        let resp = handle(&state, &post("/tables", &body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let resp = handle(
            &state,
            &post("/query", r#"{"sql":"SELECT id, SUM(x) FROM ids GROUP BY id","mode":"exact"}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains(&format!("[{big}]")), "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        let groups = parsed.get("results").unwrap().as_array().unwrap()[0].get("groups").unwrap();
        let keys: Vec<i64> = groups
            .as_array()
            .unwrap()
            .iter()
            .map(|g| g.get("key").unwrap().as_array().unwrap()[0].as_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![big, big + 1], "distinct keys must stay distinct");
    }

    #[test]
    fn errors_are_4xx_json() {
        let state = state();
        for (req, want) in [
            (post("/query", "not json"), 400),
            (post("/query", r#"{"mode":"exact"}"#), 400),
            (post("/query", r#"{"sql":"SELECT g FROM t GROUP BY g","mode":"warp"}"#), 400),
            (post("/query", r#"{"sql":"SELECT g, AVG(x) FROM nope GROUP BY g"}"#), 400),
            (post("/tables", r#"{"name":"x"}"#), 400),
            (post("/tables", r#"{"name":"x","generated":"nope","rows":10}"#), 400),
            (post("/tables", r#"{"name":"x","csv":"g\na\n","columns":[["g","vec"]]}"#), 400),
            (get("/explain"), 400),
            (get("/nope"), 404),
            (get("/query"), 405),
            (post("/healthz", "{}"), 405),
        ] {
            let resp = handle(&state, &req);
            assert_eq!(resp.status, want, "{} {} → {}", req.method, req.path, resp.body);
            assert!(Json::parse(&resp.body).unwrap().get("error").is_some());
        }
    }

    #[test]
    fn reoptimize_consolidates_and_enables_derived_reuse() {
        let state = state();
        // Nothing logged yet: the endpoint answers, but consolidates
        // nothing.
        let resp = handle(&state, &post("/reoptimize", r#"{"table":"t"}"#));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        assert_eq!(parsed.get("reoptimized").unwrap().as_bool(), Some(false));

        // Seed the log, consolidate, then answer a coarser query without a
        // draw.
        let seed =
            post("/query", r#"{"sql":"SELECT g, AVG(x) FROM t GROUP BY g","mode":"approximate"}"#);
        handle(&state, &seed);
        let resp = handle(&state, &post("/reoptimize", r#"{"table":"t"}"#));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        assert_eq!(parsed.get("reoptimized").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("logged").unwrap().as_u64(), Some(1));
        assert!(parsed.get("fingerprint").unwrap().as_str().unwrap().starts_with("0x"));

        let passes = state.engine.counters().stats_passes;
        let coarse = post(
            "/query",
            r#"{"sql":"SELECT g, AVG(x) FROM t WHERE g = 'a' GROUP BY g","mode":"approximate"}"#,
        );
        // The WHERE clause keeps the problem fingerprint (problems are
        // predicate-free) — this is an exact hit, not a derived answer.
        let resp = handle(&state, &coarse);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let report = Json::parse(&resp.body).unwrap();
        let reuse = report.get("report").unwrap().get("reuse").unwrap();
        assert_eq!(reuse.get("kind").unwrap().as_str(), Some("exact"));
        assert_eq!(state.engine.counters().stats_passes, passes, "no new draw");

        // Unknown tables are the caller's error.
        let resp = handle(&state, &post("/reoptimize", r#"{"table":"nope"}"#));
        assert_eq!(resp.status, 400, "{}", resp.body);
        // And GET is the wrong method.
        let resp = handle(&state, &get("/reoptimize"));
        assert_eq!(resp.status, 405, "{}", resp.body);
    }

    #[test]
    fn derived_reuse_is_reported_over_the_wire() {
        let state = state();
        // One grouping drawn by a query, then consolidated into a durable
        // sample...
        handle(
            &state,
            &post("/query", r#"{"sql":"SELECT g, AVG(x) FROM t GROUP BY g","mode":"approximate"}"#),
        );
        handle(&state, &post("/reoptimize", r#"{"table":"t"}"#));
        let passes = state.engine.counters().stats_passes;
        // ...then a *grand-total* query (no GROUP BY: a coarser grouping
        // than the consolidated sample's) derives from it.
        let resp = handle(
            &state,
            &post("/query", r#"{"sql":"SELECT AVG(x) FROM t","mode":"approximate"}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        let report = parsed.get("report").unwrap();
        let reuse = report.get("reuse").unwrap();
        assert_eq!(reuse.get("kind").unwrap().as_str(), Some("derived"), "{}", resp.body);
        assert_eq!(
            reuse.get("coarsened_groups").unwrap().as_array().unwrap()[0].as_str(),
            Some("g")
        );
        assert_eq!(report.get("cache_hit").unwrap().as_bool(), Some(false));
        let counters = state.engine.counters();
        assert_eq!(counters.stats_passes, passes, "derived answers draw nothing");
        assert_eq!(counters.reuse_hits, 1);
        assert_eq!(counters.draws_avoided, 1);
    }

    #[test]
    fn stats_shape() {
        let state = state();
        let resp = handle(&state, &get("/stats"));
        let body = Json::parse(&resp.body).unwrap();
        for field in [
            "cache_hits",
            "cache_misses",
            "reuse_hits",
            "draws_avoided",
            "stats_passes",
            "cached_samples",
            "cache_evictions",
            "cache_bytes_held",
            "tables",
            "process_stats_passes",
            "process_draws",
            "process_draws_avoided",
            "queue_depth",
            "queue_capacity",
            "workers",
            "request_threads",
            "requests_served",
            "requests_rejected",
            "keepalive_reuses",
            "admission_rejections",
            "net_requests",
            "net_retries",
            "net_circuit_opens",
            "net_bytes_sent",
            "net_bytes_received",
            "ingested_rows",
            "ingest_batches",
            "maintained_samples",
            "rotations",
            "rows_retired",
        ] {
            assert!(body.get(field).is_some(), "missing {field}");
        }
        assert_eq!(body.get("queue_capacity").unwrap().as_u64(), Some(8));
        assert_eq!(body.get("workers").unwrap().as_u64(), Some(2));
    }

    /// Register a small windowed table: ts is the window column,
    /// 0..rows, group g alternates a/b.
    fn register_windowed(state: &ApiState, rows: usize) {
        let mut csv = String::from("g,x,ts\n");
        for i in 0..rows {
            csv.push_str(&format!("{},{}.5,{i}\n", ["a", "b"][i % 2], i % 7));
        }
        let body = Json::object(vec![
            ("name", Json::string("w")),
            ("csv", Json::string(&csv)),
            (
                "columns",
                Json::Array(vec![
                    Json::Array(vec![Json::string("g"), Json::string("str")]),
                    Json::Array(vec![Json::string("x"), Json::string("float64")]),
                    Json::Array(vec![Json::string("ts"), Json::string("int64")]),
                ]),
            ),
            ("window", Json::string("ts")),
        ]);
        let resp = handle(state, &post("/tables", &body.to_string()));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        assert_eq!(parsed.get("window").unwrap().as_str(), Some("ts"));
    }

    #[test]
    fn ingest_appends_rows_and_queries_see_them() {
        let state = state();
        register_windowed(&state, 6);
        let resp = handle(
            &state,
            &post("/ingest", r#"{"table":"w","rows":[["a",1.0,6],["b",2.0,7],["a",3.0,8]]}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(body.get("rows").unwrap().as_u64(), Some(3));
        assert_eq!(body.get("total_rows").unwrap().as_u64(), Some(9));

        let resp = handle(
            &state,
            &post("/query", r#"{"sql":"SELECT g, COUNT(*) FROM w GROUP BY g","mode":"exact"}"#),
        );
        let body = Json::parse(&resp.body).unwrap();
        let groups = body.get("results").unwrap().as_array().unwrap()[0]
            .get("groups")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(groups[0].get("values").unwrap().as_array().unwrap()[0].as_f64(), Some(5.0));

        let stats = Json::parse(&handle(&state, &get("/stats")).body).unwrap();
        assert_eq!(stats.get("ingested_rows").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("ingest_batches").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn ingest_rejects_bad_bodies() {
        let state = state();
        register_windowed(&state, 4);
        for (body, needle) in [
            (r#"{"rows":[["a",1.0,6]]}"#, "table"),
            (r#"{"table":"w"}"#, "rows"),
            (r#"{"table":"nope","rows":[]}"#, "not registered"),
            (r#"{"table":"w","rows":[["a",1.0]]}"#, "schema has 3"),
            (r#"{"table":"w","rows":[["a","x",6]]}"#, "expects Float64"),
            (r#"{"table":"w","rows":[17]}"#, "not an array"),
        ] {
            let resp = handle(&state, &post("/ingest", body));
            assert_eq!(resp.status, 400, "{body} -> {}", resp.body);
            assert!(resp.body.contains(needle), "{body} -> {}", resp.body);
        }
    }

    #[test]
    fn rotate_drops_rows_below_cutoff() {
        let state = state();
        register_windowed(&state, 10);
        let resp = handle(&state, &post("/rotate", r#"{"table":"w","cutoff":4}"#));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(body.get("retired").unwrap().as_u64(), Some(4));
        assert_eq!(body.get("remaining").unwrap().as_u64(), Some(6));

        // A table with no window column can't rotate.
        let resp = handle(&state, &post("/rotate", r#"{"table":"t","cutoff":4}"#));
        assert_eq!(resp.status, 400, "{}", resp.body);
        let resp = handle(&state, &post("/rotate", r#"{"table":"w"}"#));
        assert_eq!(resp.status, 400, "{}", resp.body);

        let stats = Json::parse(&handle(&state, &get("/stats")).body).unwrap();
        assert_eq!(stats.get("rotations").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("rows_retired").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn tables_rejects_window_on_remote_or_unknown_column() {
        let state = state();
        let body = r#"{"name":"w","csv":"g,x\na,1.5\n","columns":[["g","str"],["x","float64"]],"window":"nope"}"#;
        let resp = handle(&state, &post("/tables", body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        let body = r#"{"name":"w","csv":"g,x\na,1.5\n","columns":[["g","str"],["x","float64"]],"window":"x"}"#;
        let resp = handle(&state, &post("/tables", body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        let body = r#"{"name":"w","generated":"openaq","rows":100,"window":"ts","remote":["127.0.0.1:1"]}"#;
        let resp = handle(&state, &post("/tables", body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("shard servers"), "{}", resp.body);
    }
}
