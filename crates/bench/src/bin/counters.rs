//! Record **deterministic counters** into this crate's
//! `BENCH_counters.json`, one `"id": value` row each.
//!
//! Counters capture behavior that must not silently regress but that no
//! wall-clock number can gate on a shared runner: how many statistics
//! passes a canned serving workload costs (the cache-reuse economy of
//! paper §6.3), what the seeded serving mix costs in passes, hits, derived
//! answers and evictions, sampled row counts and strata under fixed seeds,
//! what a statement over two shard servers costs in requests and bytes, and
//! the partition plan shapes. Every value is a pure function of the
//! code — no RNG beyond the vendored seeded generators, no clock — so the
//! committed file is the expectation: CI regenerates it in place and
//! **fails** on any `git diff`.
//!
//! Takes no arguments: `cargo run --release -p cvopt-bench --bin counters`.

use std::sync::Arc;

use cvopt_bench::mix;
use cvopt_core::{Engine, ExecOptions, QueryMode, ShardedTable};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_net::{Peer, RemoteShard, Shardd};
use cvopt_table::exec::partition_rows;
use cvopt_table::groupby::{total_group_id_bytes, total_keys_projected};
use cvopt_table::join::max_join_bytes_gathered;
use cvopt_table::query::{total_fold_state_bytes, total_keys_decoded};

/// Rows for the serving-workload fixture: large enough that the default
/// auto threshold routes to the approximate path, small enough for CI.
const WORKLOAD_ROWS: usize = 100_000;

/// Rows of the serving mix's fixture.
const MIX_ROWS: usize = 60_000;
/// Statements in the serving mix's schedule.
const MIX_STATEMENTS: usize = 120;
/// The eviction replay's cache budget: it holds a couple of the mix's
/// samples, so the replay evicts.
const MIX_CACHE_BYTES: u64 = 96 * 1024;

/// Rows of the remote fixture: two shard servers of 131,072 rows each, two
/// whole partitions apiece.
const REMOTE_ROWS: usize = 4 * (1 << 16);

/// A canned serving session: three statements over one table, the first
/// two sharing a derived problem (same grouping and value column, new
/// predicate), so the cache economy must hold at 2 statistics passes.
const STATEMENTS: [&str; 3] = [
    "SELECT country, AVG(value) FROM openaq GROUP BY country",
    "SELECT country, AVG(value) FROM openaq WHERE parameter = 'pm25' GROUP BY country",
    "SELECT parameter, AVG(value), SUM(value) FROM openaq GROUP BY parameter",
];

/// AQ4: country × month × year under `parameter = 'co'`, a selective
/// predicate on a column the grouping does not read.
const AQ4: &str = "SELECT country, MONTH(local_time), YEAR(local_time), AVG(value) FROM openaq \
                   WHERE parameter = 'co' GROUP BY country, MONTH(local_time), YEAR(local_time)";

fn main() {
    let table = generate_openaq(&OpenAqConfig::with_rows(WORKLOAD_ROWS));
    let mut counters: Vec<(String, u64)> = Vec::new();

    let mut engine = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
    engine.register("openaq", table.clone());
    let mut per_statement: Vec<(u64, u64)> = Vec::new();
    let (group_ids_before, projected_before) = (total_group_id_bytes(), total_keys_projected());
    let decoded_before = total_keys_decoded();
    for stmt in &STATEMENTS {
        let answer = engine.query(stmt, QueryMode::Approximate).expect("workload statement");
        per_statement.push((
            answer.report.sample_rows.expect("approximate answers sample") as u64,
            answer.report.strata.expect("approximate answers stratify") as u64,
        ));
    }
    // A cold prepare buckets the table by stratum in its statistics pass and
    // writes no per-row group id, and an answer walks its sample's packed
    // keys, the estimate and the confidence pass alike: none at all.
    let serving_group_ids = total_group_id_bytes() - group_ids_before;
    assert_eq!(serving_group_ids, 0, "no serving statement writes a per-row group id");
    // Every statement groups its sample by its own dimensions, so each
    // read-out — and each allocation's projection onto the statement's
    // stratification — is the identity and hashes no fine key.
    let serving_projected = total_keys_projected() - projected_before;
    // Each read-out decodes the key of every fine group that folded a row,
    // and no other: the predicate statement's dead groups cost nothing.
    let serving_decoded = total_keys_decoded() - decoded_before;
    counters.push(("stats_passes/serving_workload".into(), engine.stats_passes()));
    // The cache economy itself: statements 1 and 2 share a derived
    // problem, so the workload must cost exactly one hit and two misses.
    counters.push(("cache_hits/serving_workload".into(), engine.cache_hits()));
    counters.push(("cache_misses/serving_workload".into(), engine.cache_misses()));
    counters.push(("cached_samples/serving_workload".into(), engine.cached_samples() as u64));
    counters.push(("group_id_bytes/serving_workload".into(), serving_group_ids));
    counters.push(("keys_projected/serving_workload".into(), serving_projected));
    counters.push(("keys_decoded/serving_workload".into(), serving_decoded));
    let (sample_rows, strata) = *per_statement.last().expect("statements ran");
    counters.push(("sample_rows/last_statement".into(), sample_rows));
    counters.push(("strata/last_statement".into(), strata));

    // The sharded path must cost the same number of passes and draw the
    // same per-statement sample sizes as the single-table path.
    let mut sharded = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
    sharded.register("openaq", ShardedTable::split(&table, 3).expect("split"));
    for (stmt, &(expected_rows, _)) in STATEMENTS.iter().zip(&per_statement) {
        let answer = sharded.query(stmt, QueryMode::Approximate).expect("workload statement");
        assert_eq!(
            answer.report.sample_rows.expect("sampled") as u64,
            expected_rows,
            "sharded preparation drew a different sample size for {stmt}"
        );
    }
    counters.push(("stats_passes/sharded_workload".into(), sharded.stats_passes()));

    // The reuse economy: prepare one fine-grained sample explicitly, then
    // answer coarser / predicate-filtered statements. Every one must come
    // from the reuse planner — zero additional draws.
    let mut reuse = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
    reuse.register("openaq", table);
    let (projected_before, decoded_before) = (total_keys_projected(), total_keys_decoded());
    reuse
        .prepare(
            "openaq",
            cvopt_core::SamplingProblem::single(
                cvopt_core::QuerySpec::group_by(&["country", "parameter", "unit"])
                    .aggregate("value"),
                2_000,
            ),
        )
        .expect("prepare the fine sample");
    for stmt in [
        "SELECT country, AVG(value) FROM openaq GROUP BY country",
        "SELECT parameter, AVG(value) FROM openaq WHERE country = 'IN' GROUP BY parameter",
        "SELECT country, unit, AVG(value), SUM(value) FROM openaq GROUP BY country, unit",
    ] {
        let answer = reuse.query(stmt, QueryMode::Approximate).expect("reuse statement");
        assert!(
            matches!(answer.report.reuse, cvopt_core::ReuseInfo::Derived { .. }),
            "expected a derived answer for {stmt}, got {:?}",
            answer.report.reuse
        );
    }
    assert_eq!(reuse.stats_passes(), 1, "the prepared sample must answer everything");
    let reuse_projected = total_keys_projected() - projected_before;
    let reuse_decoded = total_keys_decoded() - decoded_before;
    counters.push(("reuse_hits/reuse_workload".into(), reuse.reuse_hits()));
    counters.push(("draws_avoided/reuse_workload".into(), reuse.draws_avoided()));
    counters.push(("stats_passes/reuse_workload".into(), reuse.stats_passes()));
    counters.push(("keys_projected/reuse_workload".into(), reuse_projected));
    counters.push(("keys_decoded/reuse_workload".into(), reuse_decoded));

    // The serving mix: seed the query log with the hot and cold shapes,
    // consolidate it, then replay the whole schedule — the derived pool is
    // answered from the consolidated sample without a draw. The counters
    // are what the schedule predicts, however a server interleaves the
    // replay (the mix's tests race it over keep-alive clients).
    let sched = mix::schedule(7, MIX_STATEMENTS);
    let mix_table = generate_openaq(&OpenAqConfig::with_rows(MIX_ROWS));
    let mut serving = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
    serving.register(mix::TABLE, mix_table.clone());
    mix::run_flow(&serving, &sched);
    for (name, want) in mix::expected(&sched).counters() {
        let got = mix::engine_counter(&serving, name);
        assert_eq!(got, want, "serving mix: {name} = {got}, the schedule predicts {want}");
    }
    assert!(serving.draws_avoided() > 0, "the serving mix must exercise the reuse planner");
    for name in [
        "stats_passes",
        "cache_misses",
        "cache_hits",
        "reuse_hits",
        "draws_avoided",
        "cached_samples",
        "cache_bytes_held",
        "cache_evictions",
    ] {
        counters.push((format!("{name}/serving_mix"), mix::engine_counter(&serving, name)));
    }
    // The same schedule, unseeded, under a cache budget a few samples
    // fill: every eviction is a pure function of the replay order.
    let mut evicting = Engine::new()
        .with_seed(7)
        .with_exec(ExecOptions::sequential())
        .with_cache_bytes(Some(MIX_CACHE_BYTES));
    evicting.register(mix::TABLE, mix_table);
    mix::replay(&evicting, &sched);
    assert!(evicting.cache_evictions() > 0, "the {MIX_CACHE_BYTES}-byte budget must evict");
    assert!(evicting.cache_bytes_held() <= MIX_CACHE_BYTES, "cache over budget");
    for name in
        ["stats_passes", "cache_misses", "cached_samples", "cache_bytes_held", "cache_evictions"]
    {
        counters.push((format!("{name}/eviction_mix"), mix::engine_counter(&evicting, name)));
    }

    // The ingest economy: a windowed table under streaming append keeps
    // its durable sample maintained without re-scanning history (one
    // statistics pass total), and the maintained sample answers exactly
    // like one prepared fresh over the final table with the rescaled
    // budget (paper §5's stratified design, held under appends).
    let stream_rows = 20_000;
    let full = generate_openaq(&OpenAqConfig::with_rows(WORKLOAD_ROWS + stream_rows));
    let base = full.take(&(0..WORKLOAD_ROWS).collect::<Vec<_>>());
    let problem = |budget| {
        cvopt_core::SamplingProblem::single(
            cvopt_core::QuerySpec::group_by(&["country"]).aggregate("value"),
            budget,
        )
    };
    let mut live = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
    live.register_windowed("openaq", base, "local_time").expect("windowed registration");
    // What the prepare, the appends and the rotate cost in per-row group
    // ids: the batches' own, 4 bytes a batch row. A maintained sample keeps
    // its cold pass, so neither the prepare nor the rotate's rebuild writes
    // one.
    let group_ids_before = total_group_id_bytes();
    live.prepare("openaq", problem(2_000)).expect("prepare the durable sample");
    // An append costs the batch, not the table: the registered shard is
    // past the seal size, so it is never rebuilt and the appended rows roll
    // into a live shard of their own.
    let mut live_shard_rows_max = 0;
    for start in (WORKLOAD_ROWS..WORKLOAD_ROWS + stream_rows).step_by(5_000) {
        let batch = full.take(&(start..start + 5_000).collect::<Vec<_>>());
        live.ingest("openaq", &batch).expect("ingest batch");
        let shard_rows = live.catalog_table("openaq").expect("registered").set().shard_rows();
        live_shard_rows_max = live_shard_rows_max.max(*shard_rows.last().expect("never empty"));
    }
    let mut ingest_group_ids = total_group_id_bytes() - group_ids_before;
    let shards = live.catalog_table("openaq").expect("registered").set().num_shards();
    assert_eq!(live.stats_passes(), 1, "maintenance must not re-scan the table");
    // Budget scales with the table: 2 000 rows at 100k grows to 2 400 at
    // 120k, and the maintained sample must be bit-identical to preparing
    // that budget fresh — compared through full query answers.
    let mut fresh = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
    fresh.register_windowed("openaq", full.clone(), "local_time").expect("windowed registration");
    fresh.prepare("openaq", problem(2_400)).expect("prepare fresh at the rescaled budget");
    let stmt = "SELECT country, AVG(value) FROM openaq GROUP BY country";
    let maintained = live.query(stmt, QueryMode::Approximate).expect("query the live engine");
    let reference = fresh.query(stmt, QueryMode::Approximate).expect("query the fresh engine");
    assert_eq!(
        format!("{:?}", maintained.results),
        format!("{:?}", reference.results),
        "maintained sample must answer like a fresh prepare"
    );
    counters.push(("ingested_rows/ingest_workload".into(), live.ingested_rows()));
    counters.push(("ingest_batches/ingest_workload".into(), live.ingest_batches()));
    counters.push(("maintained_samples/ingest_workload".into(), live.maintained_samples() as u64));
    counters.push(("stats_passes/ingest_workload".into(), live.stats_passes()));
    counters.push((
        "sample_rows/ingest_workload".into(),
        maintained.report.sample_rows.expect("sampled") as u64,
    ));
    counters.push(("shards/ingest_workload".into(), shards as u64));
    counters.push(("live_shard_rows_max/ingest_workload".into(), live_shard_rows_max as u64));
    // Retention: rotate at the midpoint of the seeded time range; the
    // retired count is a pure function of the generator.
    let cutoff = match full.column_by_name("local_time").expect("window column") {
        cvopt_table::Column::Timestamp(v) => {
            let (min, max) = (v.iter().min().unwrap(), v.iter().max().unwrap());
            min + (max - min) / 2
        }
        other => panic!("local_time must be a timestamp, got {other:?}"),
    };
    let group_ids_before = total_group_id_bytes();
    live.rotate("openaq", cutoff).expect("rotate the window");
    ingest_group_ids += total_group_id_bytes() - group_ids_before;
    counters.push(("rows_retired/ingest_workload".into(), live.rows_retired()));
    counters.push(("group_id_bytes/ingest_workload".into(), ingest_group_ids));

    // The join path: a fact-to-dimension join answers exactly, and its
    // output size — matched rows surviving the inner join, with duplicate
    // dimension keys fanned out — is a pure function of the generator.
    // The sharded fact side must answer byte-identically.
    let fact = generate_openaq(&OpenAqConfig::with_rows(WORKLOAD_ROWS));
    let mut dim = cvopt_table::TableBuilder::new(&[
        ("country", cvopt_table::DataType::Str),
        ("region", cvopt_table::DataType::Str),
    ]);
    // Cover a prefix of the country domain only, so the inner join drops
    // the tail; C03 appears twice, so its rows fan out.
    for i in 0..12usize {
        dim.push_row(&[
            cvopt_table::Value::str(cvopt_datagen::openaq::country_code(i)),
            cvopt_table::Value::str(["emea", "apac", "amer"][i % 3]),
        ])
        .expect("dim row");
    }
    dim.push_row(&[
        cvopt_table::Value::str(cvopt_datagen::openaq::country_code(3)),
        cvopt_table::Value::str("dup"),
    ])
    .expect("dup dim row");
    let dim = dim.finish();
    let join_stmt = "SELECT region, SUM(value), COUNT(*) FROM openaq \
                     JOIN regions ON openaq.country = regions.country GROUP BY region";
    let mut join_engine = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
    join_engine.register("openaq", fact.clone());
    join_engine.register("regions", dim.clone());
    let mut join_sharded = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
    join_sharded.register("openaq", ShardedTable::split(&fact, 3).expect("split"));
    join_sharded.register("regions", dim.clone());
    // What exact statements cost in per-row group ids: the join, and one
    // statement over the plain and the 3-shard registration. Folding in the
    // walk writes none; an index built for them would write 4 bytes a row.
    // And what their folds hold in cells: each partition keeps, per slot its
    // walk hands out, the cell each aggregate's kind folds — 16 bytes for
    // `SUM`, 8 for `COUNT`.
    let group_ids_before = total_group_id_bytes();
    let fold_bytes_before = total_fold_state_bytes();
    let exact_stmt = "SELECT country, parameter, unit, SUM(value), COUNT(*) FROM openaq \
                      GROUP BY country, parameter, unit";
    let plain_exact = join_engine.query(exact_stmt, QueryMode::Exact).expect("plain exact");
    let sharded_exact = join_sharded.query(exact_stmt, QueryMode::Exact).expect("sharded exact");
    assert_eq!(
        format!("{:?}", plain_exact.results),
        format!("{:?}", sharded_exact.results),
        "a 3-shard registration must answer byte-identically"
    );
    let joined = join_engine.query(join_stmt, QueryMode::Exact).expect("join workload");
    // Read now: the reference below projects the whole join, and the
    // process-wide max would record that too.
    let join_bytes_gathered_max = max_join_bytes_gathered();
    let sharded_join = join_sharded.query(join_stmt, QueryMode::Exact).expect("sharded join");
    let exact_group_ids = total_group_id_bytes() - group_ids_before;
    let exact_fold_bytes = total_fold_state_bytes() - fold_bytes_before;
    assert_eq!(
        format!("{:?}", joined.results),
        format!("{:?}", sharded_join.results),
        "sharded fact side must join byte-identically"
    );
    counters
        .push(("join_rows/join_workload".into(), joined.results[0].group_rows.iter().sum::<u64>()));
    counters.push(("join_groups/join_workload".into(), joined.results[0].num_groups() as u64));
    // What a join holds at once: one joined partition of the columns its
    // statement reads (`region` and `value` here) — never the whole join,
    // never the full-width joined table. The reference is the whole joined
    // range of those columns answered as a table, which the engine's
    // partition-at-a-time answer must equal.
    let query = cvopt_table::sql::parse(join_stmt).and_then(|s| s.into_query()).expect("compile");
    let sequential = ExecOptions::sequential();
    let matched =
        cvopt_table::hash_join(&fact, &dim, "country", "country", &sequential).expect("join");
    let read = matched.project(&query.columns(), 0..matched.num_rows()).expect("project");
    assert_eq!(
        format!("{:?}", query.execute_with(&read, &sequential).expect("execute")),
        format!("{:?}", joined.results),
        "the engine's join must answer like the whole projected join"
    );
    let partition_bytes = partition_rows(matched.num_rows()).into_iter().map(|range| {
        matched.project(&query.columns(), range.rows()).expect("project").approx_bytes()
    });
    assert_eq!(
        Some(join_bytes_gathered_max),
        partition_bytes.max(),
        "the engine holds one joined partition of the read columns at a time"
    );
    counters.push(("join_bytes_gathered_max/join_workload".into(), join_bytes_gathered_max));
    counters.push(("group_id_bytes/exact_workload".into(), exact_group_ids));
    counters.push(("fold_state_bytes/exact_workload".into(), exact_fold_bytes));
    // And what a selective statement's folds hold: AQ4 keeps the rows of
    // one parameter, and its walk slots only those, so each partition holds
    // cells for the groups a kept row reaches: 16 bytes per group, the
    // count and Welford mean of its `AVG` cell.
    let fold_bytes_before = total_fold_state_bytes();
    join_engine.query(AQ4, QueryMode::Exact).expect("predicate workload");
    let predicate_fold_bytes = total_fold_state_bytes() - fold_bytes_before;
    counters.push(("fold_state_bytes/predicate_workload".into(), predicate_fold_bytes));
    remote_workload(&mut counters);

    // Plan shapes: fixed by the row counts alone.
    counters.push(("partitions/workload_table".into(), partition_rows(WORKLOAD_ROWS).len() as u64));
    counters.push((
        "partitions/1M".into(),
        partition_rows(cvopt_bench::fixtures::SCALING_ROWS).len() as u64,
    ));

    write_snapshot(&counters);
}

/// The wire: one cold approximate statement and AQ6 exactly over two
/// in-process shard servers on loopback, each answering as the in-process
/// registration does. A cold statement costs a walk and a pick per shard,
/// an exact one a walk, and no per-row id is written on either side of the
/// wire: not for a table row, and not for a sample row.
fn remote_workload(counters: &mut Vec<(String, u64)>) {
    let table = generate_openaq(&OpenAqConfig::with_rows(REMOTE_ROWS));
    let mut servers = [
        Shardd::bind("127.0.0.1:0", 2).expect("bind"),
        Shardd::bind("127.0.0.1:0", 2).expect("bind"),
    ];
    let sharded = ShardedTable::split(&table, 2).expect("split");
    let readers = sharded.shards().iter().zip(&servers).enumerate().map(|(s, (shard, server))| {
        let peer = Arc::new(Peer::connect(server.addr().to_string()).expect("connect"));
        let remote = RemoteShard::register(peer, format!("openaq/{s}"), shard).expect("register");
        Arc::new(remote) as Arc<dyn cvopt_table::ShardReader>
    });
    let wire = || {
        let bytes = cvopt_net::net_bytes_sent() + cvopt_net::net_bytes_received();
        (cvopt_net::net_requests(), bytes)
    };
    let registering = wire();
    let set = cvopt_table::ShardSet::new(readers.collect()).expect("shard set");
    // The two `Register` frames and their acknowledgements: the table codec's
    // cost, byte for byte.
    counters.push(("net_bytes/remote_register".into(), wire().1 - registering.1));
    let engine = |set: Option<&cvopt_table::ShardSet>| {
        let mut engine = Engine::new().with_seed(7).with_exec(ExecOptions::sequential());
        match set {
            Some(set) => engine.register("openaq", set.clone()),
            None => engine.register("openaq", table.clone()),
        };
        engine
    };
    let (remote, local) = (engine(Some(&set)), engine(None));
    let mut remote_ids = 0;
    for (name, stmt, mode, frames) in [
        (
            "remote_approx",
            "SELECT country, parameter, SUM(value) FROM openaq GROUP BY country, parameter",
            QueryMode::Approximate,
            4,
        ),
        (
            "remote_exact",
            "SELECT parameter, unit, COUNT_IF(value > 0.5) AS count FROM openaq \
             WHERE country = 'C02' GROUP BY parameter, unit",
            QueryMode::Exact,
            2,
        ),
    ] {
        let (before, ids_before) = (wire(), total_group_id_bytes());
        let answer = remote.query(stmt, mode).expect("remote statement");
        let (after, ids_after) = (wire(), total_group_id_bytes());
        let (requests, bytes) = (after.0 - before.0, after.1 - before.1);
        remote_ids += ids_after - ids_before;
        let want = local.query(stmt, mode).expect("in-process statement");
        assert_eq!(
            format!("{:?}", answer.results),
            format!("{:?}", want.results),
            "{name}: the shard servers must answer as the in-process registration"
        );
        assert_eq!(requests, frames, "{name}: a walk per shard, and a pick per shard if drawn");
        assert_eq!(ids_after, ids_before, "{name}: no per-row group id");
        counters.push((format!("net_requests/{name}"), requests));
        counters.push((format!("net_bytes/{name}"), bytes));
    }
    counters.push(("group_id_bytes/remote_workload".into(), remote_ids));
    for server in &mut servers {
        server.shutdown();
    }
}

/// Write the snapshot over the committed one.
fn write_snapshot(counters: &[(String, u64)]) {
    let mut body = String::from("{\n  \"group\": \"counters\",\n  \"benchmarks\": {\n");
    for (i, (name, value)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        body.push_str(&format!("    \"{name}\": {value}{comma}\n"));
    }
    body.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_counters.json");
    std::fs::write(path, body).expect("write BENCH_counters.json");
    println!("wrote {path} ({} counters)", counters.len());
}
