//! The per-layer half of the traced run: each layer's public functions
//! timed from outside, with spans around every call. Every traced run
//! executes the same probes, whatever its workload, so a layer's numbers
//! are taken one way only. The serve, net and maintain probes drive the
//! workloads' own rounds with spans on, so their operations are checked
//! like any other.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cvopt_core::estimate::estimate_with;
use cvopt_core::{
    budget_for_rows, compute_betas, estimate_avg_with_error, problem_for_query, sqrt_allocation,
    AggConfidence, CvOptSampler, Engine, MaterializedSample, QueryAnswer, QueryMode,
    SamplingProblem, StratifiedSample, StratumStatistics,
};
use cvopt_net::wire::{Request as WireRequest, Response as WireResponse};
use cvopt_serve::{api, Json, Request};
use cvopt_table::{
    hash_join, sql, AggKind, ColumnValues, ExecOptions, GroupByQuery, GroupIndex, ScalarExpr, Table,
};

use crate::harness::{exec, median, Recorder, Scale, Tally, Workload, BENCH_THREADS};
use crate::reference::answer_bytes;
use crate::statements::{Statement, COLD_SAMPLE, EXACT_SCAN, INGEST_READS, REMOTE_COLD};
use crate::trace::{Span, Tracer};
use crate::workloads::cold_sample::ColdSample;
use crate::workloads::exact_scan::regions;
use crate::workloads::ingest_maintain::IngestMaintain;
use crate::workloads::remote_cold::RemoteCold;
use crate::workloads::serve_cached::ServeCached;
use crate::workloads::{self, compile};

/// Repetitions of a probe; its median is reported.
const REPS: usize = 3;
/// Rounds of a workload a probe drives with spans on.
const PROBE_ROUNDS: u64 = 3;

pub struct Probed {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    pub tally: Tally,
    pub tracer: Tracer,
}

impl Probed {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Fold in the verdicts and spans of a workload round driven by a probe.
    fn absorb(&mut self, rec: Recorder) {
        self.tally.absorb(rec.tally);
        if let Some(tracer) = rec.tracer {
            self.tracer.absorb(tracer);
        }
    }

    fn check(&mut self, name: &str, holds: bool, why: impl FnOnce() -> String) {
        self.tally.count(name, (!holds).then(why));
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Nanoseconds of one call.
fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// `REPS` calls: the last one's output and their median nanoseconds.
fn median_ns<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut runs: Vec<(T, f64)> = (0..REPS).map(|_| time_ns(|| black_box(f()))).collect();
    let ns = median(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
    (runs.pop().expect("REPS is positive").0, ns)
}

/// Durations (ns) of the spans named `name`.
fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

pub fn run(scale: &Scale, seed: u64) -> Probed {
    let mut out = Probed {
        metrics: Vec::new(),
        notes: Vec::new(),
        tally: Tally::default(),
        tracer: Tracer::new(),
    };
    let (openaq, openaq_ns) = time_ns(|| workloads::openaq(scale));
    let (bikes, bikes_ns) = time_ns(|| workloads::bikes(scale));
    out.push("datagen.openaq_gen_s", openaq_ns / 1e9, "s");
    out.push("datagen.bikes_gen_s", bikes_ns / 1e9, "s");

    let cold = ColdSample::from_tables(openaq, bikes, seed, scale.sample_rate);
    cold_replay(&cold, &mut out);
    exact_layers(&cold.openaq, &mut out);
    thread_speedups(&cold.openaq, scale.sample_rate, &mut out);
    drop(cold);
    serve_layers(scale, seed, &mut out);
    net_layers(scale, seed, &mut out);
    maintain_layers(scale, seed, &mut out);
    out
}

/// Times the stages of one replayed statement: a span per stage, and the
/// stage's nanoseconds added to a per-name total.
struct Stages<'a> {
    tracer: &'a mut Tracer,
    op: u64,
    ns: &'a mut BTreeMap<&'static str, f64>,
}

impl Stages<'_> {
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = self.tracer.span(name, self.op, |_| f());
        *self.ns.entry(name).or_default() += t.elapsed().as_nanos() as f64;
        out
    }
}

/// What a replayed statement produced, for checking against the engine.
struct Replayed {
    answer: QueryAnswer,
    problem: SamplingProblem,
    /// Base-table row ids of the drawn sample.
    origin: Vec<u32>,
    strata: usize,
}

/// The stages `Engine::query` walks for a cold approximate statement, called
/// one by one from here.
fn replay_stages(
    tracer: &mut Tracer,
    op: u64,
    stmt: &Statement,
    table: &Table,
    engine: &Engine,
    stage_ns: &mut BTreeMap<&'static str, f64>,
) -> Replayed {
    let exec = exec();
    tracer.span("cold_sample.replay", op, |tracer| {
        let mut stages = Stages { tracer, op, ns: stage_ns };
        let (report, query, problem) = stages.run("core.engine.plan", || {
            let report = engine.explain_mode(stmt.sql, QueryMode::Approximate).expect("plan");
            let query = sql::compile(stmt.sql).expect("compile");
            let budget = report.budget.expect("approximate plans carry a budget");
            let problem = problem_for_query(&query, budget).expect("estimable statement");
            (report, query, problem)
        });
        let index = stages.run("table.groupby.build", || {
            GroupIndex::build_with(table, &problem.finest_stratification(), &exec)
                .expect("group index")
        });
        let stats = stages.run("core.stats.collect", || {
            StratumStatistics::collect_with(table, &index, &problem.aggregate_columns(), &exec)
                .expect("statistics")
        });
        let allocation = stages.run("core.alloc.solve", || {
            let betas = compute_betas(&problem, &index, &stats).expect("betas");
            sqrt_allocation(
                &betas,
                &stats.populations,
                problem.budget as u64,
                problem.min_per_stratum,
            )
        });
        let drawn = stages.run("core.sample.draw", || {
            StratifiedSample::draw(&index, &allocation.sizes, engine.seed(), &exec)
        });
        let sample = stages.run("core.sample.materialize", || drawn.materialize(table));
        let results = stages.run("core.estimate.estimate", || {
            estimate_with(&sample, &query, &exec).expect("estimate")
        });
        let confidence = stages.run("core.estimate.confidence", || confidence_of(&sample, &query));
        Replayed {
            answer: QueryAnswer { results, report, confidence },
            problem,
            origin: sample.origin,
            strata: index.num_groups(),
        }
    })
}

/// What the engine attaches to an approximate answer: intervals for `AVG`
/// aggregates of non-cube statements.
fn confidence_of(sample: &MaterializedSample, query: &GroupByQuery) -> Vec<AggConfidence> {
    if query.cube || !sample.is_stratified() {
        return Vec::new();
    }
    query
        .aggregates
        .iter()
        .enumerate()
        .filter(|(_, agg)| agg.kind == AggKind::Avg)
        .filter_map(|(agg_index, agg)| {
            let input = agg.input.as_ref()?;
            let estimates =
                estimate_avg_with_error(sample, &query.group_by, input, query.predicate.as_ref())
                    .expect("confidence");
            Some(AggConfidence { agg_index, estimates })
        })
        .collect()
}

/// `cold_sample` as a staged replay: per statement, the stages called one
/// by one and `Engine::query` on a fresh engine, `REPS` times. Σ stage time
/// ÷ Σ query time says whether the replay is the same work.
fn cold_replay(cold: &ColdSample, out: &mut Probed) {
    // Per rep: stage name → ns summed over the statement list.
    let mut stage_reps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut query_reps = Vec::new();
    let (mut rows, mut strata, mut sample_rows) = (0.0, 0.0, 0.0);
    for rep in 0..REPS {
        let engine = cold.fresh_engine(rep as u64);
        let mut stage_ns = BTreeMap::new();
        let mut query_ns = 0.0;
        for (i, stmt) in COLD_SAMPLE.iter().enumerate() {
            let table = cold.table_of(stmt.sql);
            let op = (rep * COLD_SAMPLE.len() + i) as u64;
            let mut replay =
                || replay_stages(&mut out.tracer, op, stmt, table, &engine, &mut stage_ns);
            // Whichever goes second finds the table in cache; alternate.
            let (replayed, (answer, ns)) = if (i + rep) % 2 == 0 {
                let replayed = replay();
                (replayed, time_ns(|| engine.query(stmt.sql, stmt.mode)))
            } else {
                let answered = time_ns(|| engine.query(stmt.sql, stmt.mode));
                (replay(), answered)
            };
            query_ns += ns;
            if rep > 0 {
                continue;
            }
            rows += table.num_rows() as f64;
            strata += replayed.strata as f64;
            sample_rows += replayed.origin.len() as f64;
            let sampler =
                CvOptSampler::new(replayed.problem).with_seed(engine.seed()).with_exec(exec());
            let drawn = sampler.sample(table).expect("reference sampler");
            out.check("cold_sample.replay_draw", drawn.sample.origin == replayed.origin, || {
                format!("{}: the replay drew different rows than CvOptSampler", stmt.id)
            });
            let same = answer.is_ok_and(|a| answer_bytes(&a) == answer_bytes(&replayed.answer));
            out.check("cold_sample.replay_answer", same, || {
                format!("{}: the replay answers differently than Engine::query", stmt.id)
            });
        }
        stage_reps.push(stage_ns);
        query_reps.push(query_ns);
    }
    let stage = |name: &str| median(&stage_reps.iter().map(|r| r[name]).collect::<Vec<_>>());
    let build = stage("table.groupby.build");
    let collect = stage("core.stats.collect");
    out.push("table.groupby.build_ms", ms(build), "ms");
    out.push("table.groupby.ns_per_row", build / rows, "ns");
    out.push("table.groupby.groups", strata, "count");
    out.push("core.stats.collect_ms", ms(collect), "ms");
    out.push("core.stats.ns_per_row", collect / rows, "ns");
    out.push("core.alloc.solve_us", us(stage("core.alloc.solve")), "us");
    out.push("core.alloc.strata", strata, "count");
    out.push("core.sample.draw_ms", ms(stage("core.sample.draw")), "ms");
    out.push("core.sample.materialize_ms", ms(stage("core.sample.materialize")), "ms");
    out.push("core.sample.sample_rows", sample_rows, "count");
    let stage_sum: f64 = stage_reps[0].keys().map(|name| stage(name)).sum();
    let share = stage_sum / median(&query_reps);
    out.push("trace.stage_sum_share", share, "ratio");
    if !(0.9..=1.1).contains(&share) {
        out.notes.push(format!(
            "stage_sum_share {share:.3} is outside 0.9-1.1: the staged replay is not the same \
             work as Engine::query"
        ));
    }
}

/// The exact-path layers over `exact_scan`'s single-table statements:
/// predicate bitmaps, whole exact executions, and the JOIN's hash join.
fn exact_layers(openaq: &Table, out: &mut Probed) {
    let exec = exec();
    let queries: Vec<GroupByQuery> = EXACT_SCAN
        .iter()
        .filter(|s| !s.sql.contains(" JOIN ") && !s.sql.contains("openaq3"))
        .map(compile)
        .collect();
    let rows = openaq.num_rows() as f64;

    let (mut bitmap_ns, mut scanned, mut selected) = (0.0, 0.0, 0.0);
    for predicate in queries.iter().filter_map(|q| q.predicate.as_ref()) {
        let (bitmap, ns) = median_ns(|| {
            predicate.bind(openaq).expect("bind").eval_bitmap_with(openaq.num_rows(), &exec)
        });
        bitmap_ns += ns;
        scanned += rows;
        selected += bitmap.count_ones() as f64;
    }
    out.push("table.predicate.bitmap_ms", ms(bitmap_ns), "ms");
    out.push("table.predicate.ns_per_row", bitmap_ns / scanned, "ns");
    out.push("table.predicate.selectivity", selected / scanned, "ratio");

    let exact_ns: f64 =
        queries.iter().map(|q| median_ns(|| q.execute_with(openaq, &exec).expect("exact")).1).sum();
    out.push("table.query.exact_ms", ms(exact_ns), "ms");
    out.push("table.query.ns_per_row", exact_ns / (rows * queries.len() as f64), "ns");

    let dim = regions();
    let (joined, join_ns) =
        median_ns(|| hash_join(openaq, &dim, "country", "country", &exec).expect("join"));
    out.push("table.join.join_ms", ms(join_ns), "ms");
    out.push("table.join.join_rows", joined.num_rows() as f64, "count");
}

/// t(1 thread) ÷ t(2 threads) for the four partitioned calls, on the AQ2
/// shape over OpenAQ.
fn thread_speedups(openaq: &Table, rate: f64, out: &mut Probed) {
    let aq2 = compile(&COLD_SAMPLE[0]);
    let value = [ScalarExpr::col("value")];
    let index = GroupIndex::build_with(openaq, &aq2.group_by, &exec()).expect("group index");
    let budget = budget_for_rows(openaq.num_rows(), rate).expect("valid rate");
    let problem = problem_for_query(&aq2, budget).expect("estimable statement");
    let plan = CvOptSampler::new(problem).with_exec(exec()).plan(openaq).expect("plan");
    let sizes = plan.allocation.sizes;
    let per_threads = |f: &dyn Fn(&ExecOptions)| -> f64 {
        let at = |threads: usize| {
            let options = ExecOptions::new(threads);
            median_ns(|| f(&options)).1
        };
        at(1) / at(BENCH_THREADS)
    };
    let groupby = per_threads(&|o| {
        black_box(GroupIndex::build_with(openaq, &aq2.group_by, o).expect("group index"));
    });
    let stats = per_threads(&|o| {
        black_box(StratumStatistics::collect_with(openaq, &index, &value, o).expect("statistics"));
    });
    let draw = per_threads(&|o| {
        black_box(StratifiedSample::draw(&index, &sizes, 7, o));
    });
    let exact = per_threads(&|o| {
        black_box(aq2.execute_with(openaq, o).expect("exact"));
    });
    out.push("table.exec.speedup_t2.groupby", groupby, "ratio");
    out.push("table.exec.speedup_t2.stats", stats, "ratio");
    out.push("table.exec.speedup_t2.draw", draw, "ratio");
    out.push("table.exec.speedup_t2.exact", exact, "ratio");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.notes
        .push(format!("available_parallelism {cores} (speedup_t2 needs at least {BENCH_THREADS})"));
}

/// The serving path over the durable sample: what a request costs the
/// client, what the same body costs `api::handle` in process, and the
/// parse / plan / estimate / render calls behind it.
fn serve_layers(scale: &Scale, seed: u64, out: &mut Probed) {
    let mut w = ServeCached::setup(scale, seed);
    let mut rec = Recorder::new(true);
    w.prepare(&mut rec);
    for round in 0..PROBE_ROUNDS {
        w.round(round, &mut rec);
    }
    let client_ns =
        median(&durations_ns(rec.tracer.as_ref().expect("traced").spans(), "serve.http.request"));

    let state = w.server.state();
    // Each request estimates with the server's per-request thread share.
    let request_exec = ExecOptions::new(state.request_threads);
    let mut handle_ns = Vec::new();
    let mut parse_ns = Vec::new();
    let mut plan_ns = Vec::new();
    let mut estimate_ns = Vec::new();
    let mut confidence_ns = Vec::new();
    let mut render_ns = Vec::new();
    for _ in 0..REPS {
        for (stmt, (body, expected)) in w.statements.iter().zip(&w.bodies) {
            let request = Request {
                method: "POST".into(),
                path: "/query".into(),
                query: Vec::new(),
                body: body.clone().into_bytes(),
                close: false,
            };
            let (response, ns) = time_ns(|| api::handle(state, &request));
            handle_ns.push(ns);
            out.check(
                "serve.api.handle",
                response.status == 200 && &response.body == expected,
                || format!("{}: api::handle answered {}", stmt.stmt.id, response.status),
            );
            parse_ns.push(time_ns(|| black_box(sql::compile(stmt.stmt.sql))).1);
            let answer = w.with_engine(|engine| {
                plan_ns.push(
                    time_ns(|| black_box(engine.explain_mode(stmt.stmt.sql, stmt.stmt.mode))).1,
                );
                engine.query(stmt.stmt.sql, stmt.stmt.mode).expect("cached answer")
            });
            let sample = w.durable.sample();
            estimate_ns
                .push(time_ns(|| black_box(estimate_with(sample, &stmt.query, &request_exec))).1);
            if stmt.query.aggregates.iter().any(|a| a.kind == AggKind::Avg) {
                confidence_ns.push(time_ns(|| black_box(confidence_of(sample, &stmt.query))).1);
            }
            render_ns.push(time_ns(|| black_box(api::answer_json(&answer).to_string())).1);
        }
    }
    out.push("table.sql.parse_us", us(median(&parse_ns)), "us");
    out.push("core.engine.plan_us", us(median(&plan_ns)), "us");
    out.push("core.estimate.estimate_us", us(median(&estimate_ns)), "us");
    out.push("core.estimate.confidence_us", us(median(&confidence_ns)), "us");
    out.push("serve.json.render_us", us(median(&render_ns)), "us");
    let bytes = w.bodies.iter().map(|(_, b)| b.len() as f64).sum::<f64>() / w.bodies.len() as f64;
    out.push("serve.json.response_bytes", bytes, "bytes");
    out.push("serve.http.transport_us", us(client_ns - median(&handle_ns)), "us");

    let mut probe = cvopt_serve::Client::new(w.server.addr());
    let stats = probe.get("/stats").ok().and_then(|(_, body)| Json::parse(&body).ok());
    let stat = |name: &str| {
        stats.as_ref().and_then(|s| s.get(name)).and_then(Json::as_f64).unwrap_or(f64::NAN)
    };
    let requests = stat("requests_served");
    let reuses = stat("keepalive_reuses");
    // The probe's own /stats request opened one more connection.
    out.push("serve.http.connects", requests - reuses - 1.0, "count");
    out.push("serve.http.keepalive_reuses", reuses, "count");
    out.push(
        "serve.http.rejected_503",
        stat("requests_rejected") + stat("admission_rejections"),
        "count",
    );
    drop(probe);
    out.absorb(rec);
}

/// The wire: a bare round trip, the codec on a 1 MB column response, and
/// what `remote_cold`'s statements cost in requests, bytes and time next
/// to the same statements over a local two-way split.
fn net_layers(scale: &Scale, seed: u64, out: &mut Probed) {
    let mut w = RemoteCold::setup(scale, seed);
    let mut rec = Recorder::new(true);
    w.prepare(&mut rec);

    let roundtrip = (0..25)
        .map(|_| time_ns(|| w.peers[0].call(&WireRequest::Health)).1)
        .fold(f64::INFINITY, f64::min);
    out.push("net.client.roundtrip_us", us(roundtrip), "us");

    let column = ColumnValues::Dense((0..131_072).map(|i| i as f64 * 0.5).collect());
    let response = WireResponse::Partials { columns: vec![Some(column)] };
    let payload = response.encode();
    let (_, codec_ns) = median_ns(|| WireResponse::decode(&response.encode()).expect("decode"));
    out.push("net.wire.codec_mb_per_s", payload.len() as f64 / 1e6 / (codec_ns / 1e9), "MB/s");

    let counters = || {
        [
            cvopt_net::net_requests(),
            cvopt_net::net_bytes_sent() + cvopt_net::net_bytes_received(),
            cvopt_net::net_retries(),
        ]
    };
    let before = counters();
    let mut remote_ns = Vec::new();
    let mut local_ns = Vec::new();
    for round in 0..PROBE_ROUNDS {
        let started = rec.measured();
        w.round(round, &mut rec);
        remote_ns.push((rec.measured() - started).as_nanos() as f64);

        let mut local = workloads::engine_for(seed, round, scale.sample_rate);
        local.register("openaq", w.sharded.clone());
        let (_, ns) = time_ns(|| {
            for stmt in &REMOTE_COLD {
                black_box(local.query(stmt.sql, stmt.mode).expect("local answer"));
            }
        });
        local_ns.push(ns);
    }
    let after = counters();
    let statements = (PROBE_ROUNDS as usize * REMOTE_COLD.len()) as f64;
    let delta = |i: usize| (after[i] - before[i]) as f64;
    out.push("net.remote.requests_per_stmt", delta(0) / statements, "count");
    out.push("net.remote.bytes_per_stmt", delta(1) / statements, "bytes");
    out.push("net.remote.retries", delta(2), "count");
    out.push("net.remote.overhead_x", median(&remote_ns) / median(&local_ns), "ratio");
    drop(w);
    out.absorb(rec);
}

/// Incremental maintenance: one `ingest_maintain` round with spans on.
fn maintain_layers(scale: &Scale, seed: u64, out: &mut Probed) {
    let mut w = IngestMaintain::setup(scale, seed);
    let mut rec = Recorder::new(true);
    w.prepare(&mut rec);
    w.round(0, &mut rec);
    let spans = rec.tracer.as_ref().expect("traced").spans();
    let ingest = median(&durations_ns(spans, "core.maintain.ingest"));
    out.push("core.maintain.ingest_ms", ms(ingest), "ms");
    out.push("core.maintain.rows_per_s", scale.ingest_batch_rows as f64 / (ingest / 1e9), "1/s");
    out.push(
        "core.maintain.rotate_ms",
        ms(median(&durations_ns(spans, "core.maintain.rotate"))),
        "ms",
    );
    out.push(
        "core.maintain.read_after_ingest_us",
        us(median(&durations_ns(spans, "core.maintain.read_after_ingest"))),
        "us",
    );
    // Passes of the round's engine beyond the durable prepares that set it
    // up: ingest must add none, the rotation rebuilds each sample.
    let passes = w.engine_counters()[3] as f64 - INGEST_READS.len() as f64;
    out.push("core.maintain.stats_passes_per_round", passes, "count");
    out.push("core.maintain.rows_retired", w.retired as f64, "count");
    drop(w);
    out.absorb(rec);
}
