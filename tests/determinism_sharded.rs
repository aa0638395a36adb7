//! Sharded determinism: every pass over a [`ShardSet`] — group index,
//! statistics, allocation, the stratified draw, exact execution, and
//! estimation — must produce **bit-identical** output to the same pass over
//! the concatenated single table, for any shard layout (uneven and empty
//! shards included), wherever the shards' rows live (in-process shards,
//! reader-backed shards in this process, shards behind `cvopt-shardd`), and
//! any thread count.
//!
//! CI runs this suite in a shards × threads matrix (`CVOPT_SHARDS` ×
//! `CVOPT_THREADS` pinned); both pinned values are folded into every sweep
//! below, so hosted multi-core runners exercise the scatter-gather merges
//! at each matrix point while the local sweep still covers the standard
//! counts.

use std::sync::Arc;

use proptest::prelude::*;

use cvopt_core::{
    budget_for_rate, problem_for_query, CvOptSampler, Engine, ExecOptions, Norm, QueryAnswer,
    QueryMode, QuerySpec, SamplingProblem, StratifiedSample,
};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_table::groupby::Strata;
use cvopt_table::{
    sql, DataType, GroupIndex, LocalShard, ScalarExpr, ShardReader, ShardSet, ShardedTable, Table,
    TableBuilder, Value,
};

mod common;
use common::strata::Opaque;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SHARD_COUNTS: [usize; 3] = [1, 3, 5];

/// The standard thread sweep plus the CI matrix's pinned `CVOPT_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = THREAD_COUNTS.to_vec();
    if let Some(pinned) = std::env::var("CVOPT_THREADS").ok().and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&pinned) {
            counts.push(pinned);
        }
    }
    counts
}

/// The standard shard sweep plus the CI matrix's pinned `CVOPT_SHARDS`.
fn shard_counts() -> Vec<usize> {
    let mut counts = SHARD_COUNTS.to_vec();
    if let Some(pinned) = std::env::var("CVOPT_SHARDS").ok().and_then(|v| v.parse::<usize>().ok()) {
        if pinned > 0 && !counts.contains(&pinned) {
            counts.push(pinned);
        }
    }
    counts
}

fn skewed_table() -> Table {
    generate_openaq(&OpenAqConfig::with_rows(20_000))
}

/// Shard layouts to exercise for `table`: even splits at every swept shard
/// count, one deliberately lopsided split, and one with empty shards at
/// both ends and in the middle.
fn layouts(table: &Table) -> Vec<(String, ShardedTable)> {
    let n = table.num_rows();
    let mut out: Vec<(String, ShardedTable)> = shard_counts()
        .into_iter()
        .map(|k| (format!("even/{k}"), ShardedTable::split(table, k).unwrap()))
        .collect();

    let empty = || TableBuilder::from_schema(table.schema().clone()).finish();
    let take = |lo: usize, hi: usize| table.take(&(lo..hi).collect::<Vec<_>>());
    out.push((
        "uneven".to_string(),
        ShardedTable::from_tables(vec![
            take(0, n / 10),
            take(n / 10, n / 10 + 7),
            take(n / 10 + 7, n),
        ])
        .unwrap(),
    ));
    out.push((
        "empty-shards".to_string(),
        ShardedTable::from_tables(vec![empty(), take(0, n / 3), empty(), take(n / 3, n), empty()])
            .unwrap(),
    ));
    out
}

/// One layout two ways, both in this process: shards lent in place, and
/// shards that answer only through the reader surface.
fn local_and_reader_backed(sharded: &ShardedTable) -> [(&'static str, ShardSet); 2] {
    let opaque =
        sharded.shards().iter().map(|t| Arc::new(Opaque::of(t.clone())) as Arc<dyn ShardReader>);
    let opaque = opaque.collect();
    [("local", ShardSet::from(sharded.clone())), ("reader-backed", ShardSet::new(opaque).unwrap())]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Answers agree on every key, row count, value bit and interval bit.
fn assert_same_answer(a: &QueryAnswer, b: &QueryAnswer, what: &str) {
    assert_eq!(a.results.len(), b.results.len(), "{what}");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.keys, y.keys, "{what}");
        assert_eq!(x.group_rows, y.group_rows, "{what}");
        for (u, v) in x.values.iter().zip(&y.values) {
            assert_eq!(bits(u), bits(v), "{what}");
        }
    }
    assert_eq!(a.confidence.len(), b.confidence.len(), "{what}");
    for (x, y) in a.confidence.iter().zip(&b.confidence) {
        assert_eq!(x.agg_index, y.agg_index, "{what}");
        for (u, v) in x.estimates.iter().zip(&y.estimates) {
            assert_eq!(u.key, v.key, "{what}");
            assert_eq!(u.estimate.to_bits(), v.estimate.to_bits(), "{what}");
            assert_eq!(bits(&[u.ci95().0, u.ci95().1]), bits(&[v.ci95().0, v.ci95().1]), "{what}");
        }
    }
}

fn problem(norm: Norm) -> SamplingProblem {
    SamplingProblem::single(QuerySpec::group_by(&["country", "parameter"]).aggregate("value"), 400)
        .with_norm(norm)
}

/// The headline contract: plans and samples drawn from a sharded table are
/// bit-identical to the unsharded ones, for every norm, layout, reader kind,
/// and thread count.
#[test]
fn sharded_plan_and_sample_identical_to_unsharded() {
    let table = skewed_table();
    for norm in [Norm::L2, Norm::Lp(4.0), Norm::LInf] {
        let reference = CvOptSampler::new(problem(norm))
            .with_seed(7)
            .with_exec(ExecOptions::sequential())
            .sample(&table)
            .unwrap();
        for (layout, sharded) in layouts(&table) {
            for (kind, set) in local_and_reader_backed(&sharded) {
                let name = format!("{layout} ({kind})");
                for threads in thread_counts() {
                    let outcome = CvOptSampler::new(problem(norm))
                        .with_seed(7)
                        .with_threads(threads)
                        .sample(&set)
                        .unwrap();
                    assert_eq!(
                        outcome.plan.allocation.sizes, reference.plan.allocation.sizes,
                        "{norm:?}, layout {name}, threads {threads}: allocation differs"
                    );
                    assert_eq!(
                        bits(&outcome.plan.betas),
                        bits(&reference.plan.betas),
                        "{norm:?}, layout {name}, threads {threads}: betas differ"
                    );
                    assert_eq!(outcome.plan.stats.populations, reference.plan.stats.populations);
                    for s in 0..outcome.plan.num_strata() {
                        assert_eq!(
                            outcome.plan.stats.mean(s, 0).to_bits(),
                            reference.plan.stats.mean(s, 0).to_bits(),
                            "{norm:?}, layout {name}, threads {threads}: stratum {s} mean differs"
                        );
                    }
                    assert_eq!(
                        outcome.sample.origin, reference.sample.origin,
                        "{norm:?}, layout {name}, threads {threads}: drawn rows differ"
                    );
                    assert_eq!(bits(&outcome.sample.weights), bits(&reference.sample.weights));
                    // The materialized rows themselves (copied shard-by-shard)
                    // match the single-table copies.
                    for row in 0..outcome.sample.table.num_rows().min(50) {
                        assert_eq!(outcome.sample.table.row(row), reference.sample.table.row(row));
                    }
                }
            }
        }
    }
}

/// Estimates served from a sharded preparation are bit-identical to the
/// unsharded ones — including under a predicate the sample was never
/// planned for — and exact execution matches bit for bit as well.
#[test]
fn sharded_estimates_and_exact_answers_identical_to_unsharded() {
    let table = skewed_table();
    let statements = [
        "SELECT country, AVG(value), SUM(value) FROM openaq GROUP BY country",
        "SELECT country, AVG(value) FROM openaq WHERE parameter = 'pm25' GROUP BY country",
    ];
    for (layout, sharded) in layouts(&table) {
        for (kind, set) in local_and_reader_backed(&sharded) {
            for threads in thread_counts() {
                let exec = ExecOptions::new(threads);
                let mut single = Engine::new().with_seed(42).with_exec(exec.clone());
                single.register("openaq", table.clone());
                let mut shard_engine = Engine::new().with_seed(42).with_exec(exec);
                shard_engine.register("openaq", set.clone());
                for stmt in &statements {
                    for mode in [QueryMode::Exact, QueryMode::Approximate] {
                        let a = single.query(stmt, mode).unwrap();
                        let b = shard_engine.query(stmt, mode).unwrap();
                        let what = format!(
                            "layout {layout} ({kind}), threads {threads}, {mode:?}: {stmt}"
                        );
                        assert_same_answer(&a, &b, &what);
                    }
                }
                // One statistics pass per engine: the second statement's
                // derived problem differs only by predicate, so it reuses
                // the prepared sample on both paths.
                assert_eq!(single.stats_passes(), shard_engine.stats_passes());
            }
        }
    }
}

/// The draw sees only the strata's sizes, and the strata of any layout
/// equal the single table's — so the drawn rows do too: resolved against
/// the group index in process, and picked by ordinal from the strata pass
/// wherever the rows live.
#[test]
fn sharded_draw_identical_across_layouts_and_threads() {
    let table = skewed_table();
    let exprs = [ScalarExpr::col("country"), ScalarExpr::col("parameter")];
    let index = GroupIndex::build_with(&table, &exprs, &ExecOptions::sequential()).unwrap();
    let allocation: Vec<u64> = index.sizes().iter().map(|&n| (n / 8).max(1)).collect();
    let reference = StratifiedSample::draw(&index, &allocation, 99, &ExecOptions::sequential());
    let gathered = reference.materialize(&table);
    for (layout, sharded) in layouts(&table) {
        for (kind, set) in local_and_reader_backed(&sharded) {
            for threads in thread_counts() {
                let options = ExecOptions::new(threads);
                let what = format!("layout {layout} ({kind}), threads {threads}");
                let rows = set.rows();
                if kind == "local" {
                    let sindex = rows.group_index(&exprs, &options).unwrap();
                    assert_eq!(sindex.row_groups(), index.row_groups(), "{what}");
                    let drawn = StratifiedSample::draw(&sindex, &allocation, 99, &options);
                    assert_eq!(drawn.rows_per_stratum, reference.rows_per_stratum, "{what}");
                } else {
                    let err = rows.group_index(&exprs, &options).unwrap_err().to_string();
                    assert!(err.contains("(opaque) is behind a reader"), "{what}: {err}");
                }
                let strata = Strata::collect(&rows, &exprs, &[], &options, || {}, |_, _| {});
                let strata = strata.unwrap();
                assert_eq!(strata.sizes(), index.sizes(), "{what}");
                let ordinals =
                    StratifiedSample::draw_ordinals(strata.sizes(), &allocation, 99, &options);
                let (picked, sample) = strata.pick(&rows, &ordinals, &options).unwrap();
                assert_eq!(picked, reference.rows_per_stratum, "{what}");
                assert_eq!(sample.num_rows(), gathered.table.num_rows(), "{what}");
                for row in (0..sample.num_rows()).step_by(97) {
                    assert_eq!(sample.row(row), gathered.table.row(row), "{what}, row {row}");
                }
            }
        }
    }
}

/// Direct SQL over a shard set (no engine) matches the single-table result
/// bit for bit, cube queries included.
#[test]
fn sharded_sql_matches_single_table() {
    let table = skewed_table();
    let statements = [
        "SELECT country, parameter, AVG(value) FROM t GROUP BY country, parameter WITH CUBE",
        "SELECT country, COUNT_IF(value > 50), MIN(value), MAX(value) FROM t GROUP BY country",
    ];
    for stmt in &statements {
        let reference = sql::run_with(&table, stmt, &ExecOptions::sequential()).unwrap();
        for (layout, sharded) in layouts(&table) {
            for (kind, set) in local_and_reader_backed(&sharded) {
                for threads in thread_counts() {
                    let got = sql::run_with(&set, stmt, &ExecOptions::new(threads)).unwrap();
                    assert_eq!(got.len(), reference.len(), "layout {layout}");
                    for (g, r) in got.iter().zip(&reference) {
                        let what = format!("layout {layout} ({kind}), threads {threads}: {stmt}");
                        assert_eq!(g.keys, r.keys, "{what}");
                        for (x, y) in g.values.iter().zip(&r.values) {
                            assert_eq!(bits(x), bits(y), "{what}");
                        }
                    }
                }
            }
        }
    }
}

/// The degenerate layout: a plain table, a declared one-shard split, and a
/// directly registered set of one in-process reader answer with identical
/// bytes and draw the identical sample. They differ only in what they
/// report — a plain table has no shards and folds no layout into its
/// fingerprints; a declared layout of one shard reports it.
#[test]
fn one_shard_registrations_differ_only_in_reported_layout() {
    let table = skewed_table();
    let stmt =
        "SELECT country, AVG(value), SUM(value) FROM openaq WHERE value > 5 GROUP BY country";
    let one_reader: Vec<Arc<dyn ShardReader>> = vec![Arc::new(LocalShard::new(table.clone()))];
    let mut plain = Engine::new().with_seed(42);
    plain.register("openaq", table.clone());
    let mut split = Engine::new().with_seed(42);
    split.register("openaq", ShardedTable::split(&table, 1).unwrap());
    let mut set = Engine::new().with_seed(42);
    set.register("openaq", ShardSet::new(one_reader).unwrap());

    for declared in [&split, &set] {
        for mode in [QueryMode::Exact, QueryMode::Approximate] {
            let a = plain.query(stmt, mode).unwrap();
            let b = declared.query(stmt, mode).unwrap();
            assert_same_answer(&a, &b, &format!("{mode:?}"));
        }
    }
    let origin =
        |e: &Engine| e.prepare("openaq", problem(Norm::L2)).unwrap().sample().origin.clone();
    assert_eq!(origin(&plain), origin(&split));
    assert_eq!(origin(&plain), origin(&set));

    let [p, s, r] = [&plain, &split, &set].map(|e| e.explain(stmt).unwrap());
    assert_eq!((p.shards, s.shards, r.shards), (None, Some(1), Some(1)));
    assert_eq!(p.shard_partitions, None);
    assert_eq!(s.shard_partitions, Some(vec![1]));
    assert_eq!(s.shard_partitions, r.shard_partitions);
    assert_eq!([p.remote_shards, s.remote_shards, r.remote_shards], [None; 3]);
    assert_eq!(s.fingerprint, r.fingerprint, "same declared layout, same fold");
    assert_ne!(p.fingerprint, s.fingerprint, "a plain table folds no layout");
    let unfolded = plain.prepare("openaq", problem(Norm::L2)).unwrap().fingerprint();
    assert_eq!(unfolded, problem(Norm::L2).fingerprint());
    assert_eq!((p.table_rows, p.partitions, p.budget), (s.table_rows, s.partitions, s.budget));
    assert!(plain.table("openaq").is_some());
    assert!(split.table("openaq").is_none() && set.table("openaq").is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shard layouts round-trip on random tables: splitting into k shards
    /// (k ∈ 1..=5, shards of size 0 included when k exceeds the row count)
    /// preserves row order, group ids, and stratum statistics exactly.
    #[test]
    fn sharded_table_round_trips_on_random_tables(
        rows in proptest::collection::vec((any::<u8>(), 0.5f64..1e3), 0..300),
        k in 1usize..=5,
        threads in 1usize..=4,
    ) {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("x", DataType::Float64),
        ]);
        for (g, x) in &rows {
            b.push_row(&[Value::str(format!("g{}", g % 6)), Value::Float64(*x)]).unwrap();
        }
        let table = b.finish();
        let sharded = ShardSet::from(ShardedTable::split(&table, k).unwrap());

        // Row order round-trips.
        let round = sharded.rows().gather(&(0..table.num_rows()).collect::<Vec<_>>()).unwrap();
        prop_assert_eq!(sharded.num_rows(), table.num_rows());
        for row in 0..table.num_rows() {
            prop_assert_eq!(round.row(row), table.row(row));
        }

        // Group ids are preserved exactly.
        let options = ExecOptions::new(threads);
        let exprs = [ScalarExpr::col("g")];
        let reference = GroupIndex::build_with(&table, &exprs, &ExecOptions::sequential()).unwrap();
        let sindex = sharded.rows().group_index(&exprs, &options).unwrap();
        prop_assert_eq!(sindex.row_groups(), reference.row_groups());
        prop_assert_eq!(sindex.sizes(), reference.sizes());
        for g in 0..reference.num_groups() as u32 {
            prop_assert_eq!(sindex.key(g), reference.key(g));
        }

        // Stratum statistics are preserved exactly (bit-for-bit).
        let cols = [ScalarExpr::col("x")];
        let ref_stats = cvopt_core::StratumStatistics::collect_with(
            &table, &reference, &cols, &ExecOptions::sequential(),
        ).unwrap();
        let sharded_stats = cvopt_core::StratumStatistics::collect_with(
            &sharded, &sindex, &cols, &options,
        ).unwrap();
        prop_assert_eq!(&sharded_stats.populations, &ref_stats.populations);
        for g in 0..reference.num_groups() {
            prop_assert_eq!(
                sharded_stats.mean(g, 0).to_bits(),
                ref_stats.mean(g, 0).to_bits(),
                "stratum {} mean", g
            );
            prop_assert_eq!(
                sharded_stats.states[g][0].m2.to_bits(),
                ref_stats.states[g][0].m2.to_bits(),
                "stratum {} m2", g
            );
        }
    }

    /// Sharded sampling is a pure function of `(rows, problem, seed)` —
    /// never of the layout or the thread count — on random tables,
    /// budgets, and splits.
    #[test]
    fn sharded_sampling_layout_invariant_on_random_tables(
        rows in proptest::collection::vec((any::<u8>(), 0.5f64..1e3), 20..300),
        budget in 5usize..100,
        seed in any::<u64>(),
        k in 2usize..=5,
    ) {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("x", DataType::Float64),
        ]);
        for (g, x) in &rows {
            b.push_row(&[Value::str(format!("g{}", g % 6)), Value::Float64(*x)]).unwrap();
        }
        let table = b.finish();
        let spec = SamplingProblem::single(QuerySpec::group_by(&["g"]).aggregate("x"), budget);
        let reference = CvOptSampler::new(spec.clone())
            .with_seed(seed)
            .with_threads(1)
            .sample(&table)
            .unwrap();
        let sharded = ShardSet::from(ShardedTable::split(&table, k).unwrap());
        for threads in [1usize, 4] {
            let outcome = CvOptSampler::new(spec.clone())
                .with_seed(seed)
                .with_threads(threads)
                .sample(&sharded)
                .unwrap();
            prop_assert_eq!(&outcome.sample.origin, &reference.sample.origin);
            prop_assert_eq!(&outcome.plan.allocation.sizes, &reference.plan.allocation.sizes);
        }
    }
}

mod remote {
    //! Remote shards over the wire: the same contract as above, with the
    //! shards living behind in-process `cvopt-shardd` servers. The network
    //! must be invisible in the bytes — and failures must be clean errors,
    //! absorbed by the per-peer circuit breaker until the server returns.

    use std::time::Duration;

    use cvopt_net::{NetConfig, Peer, RemoteShard, Shardd};

    use super::*;

    /// Register every shard of `sharded` round-robin across `peers` (under
    /// `name/<s>` keys) and return the coordinator-side set.
    fn remote_set(name: &str, sharded: &ShardedTable, peers: &[Arc<Peer>]) -> ShardSet {
        let readers: Vec<Arc<dyn ShardReader>> = sharded
            .shards()
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let peer = Arc::clone(&peers[s % peers.len()]);
                let shard = RemoteShard::register(peer, format!("{name}/{s}"), shard)
                    .expect("register shard");
                Arc::new(shard) as Arc<dyn ShardReader>
            })
            .collect();
        ShardSet::new(readers).expect("shard set")
    }

    /// The tentpole contract: a plan and sample drawn over **remote**
    /// shards — two shard servers, shards round-robined across them — are
    /// bit-identical to the unsharded reference for every layout (uneven
    /// and empty shards included) and every thread count.
    #[test]
    fn remote_sample_identical_to_local() {
        let table = skewed_table();
        let mut a = Shardd::bind("127.0.0.1:0", 2).expect("shardd a");
        let mut b = Shardd::bind("127.0.0.1:0", 2).expect("shardd b");
        let peers = [
            Arc::new(Peer::connect(a.addr().to_string()).expect("peer a")),
            Arc::new(Peer::connect(b.addr().to_string()).expect("peer b")),
        ];
        let reference = CvOptSampler::new(problem(Norm::L2))
            .with_seed(7)
            .with_exec(ExecOptions::sequential())
            .sample(&table)
            .unwrap();
        for (name, sharded) in layouts(&table) {
            let set = remote_set(&name, &sharded, &peers);
            for threads in thread_counts() {
                let outcome = CvOptSampler::new(problem(Norm::L2))
                    .with_seed(7)
                    .with_threads(threads)
                    .sample(&set)
                    .unwrap();
                assert_eq!(
                    outcome.plan.allocation.sizes, reference.plan.allocation.sizes,
                    "layout {name}, threads {threads}: allocation differs"
                );
                assert_eq!(
                    bits(&outcome.plan.betas),
                    bits(&reference.plan.betas),
                    "layout {name}, threads {threads}: betas differ"
                );
                assert_eq!(
                    outcome.sample.origin, reference.sample.origin,
                    "layout {name}, threads {threads}: drawn rows differ"
                );
                assert_eq!(bits(&outcome.sample.weights), bits(&reference.sample.weights));
                // The gathered rows crossed the wire; they must still be
                // the same rows.
                for row in 0..outcome.sample.table.num_rows().min(50) {
                    assert_eq!(outcome.sample.table.row(row), reference.sample.table.row(row));
                }
            }
        }
        a.shutdown();
        b.shutdown();
    }

    /// The engine paths agree end to end: queries over a remote catalog
    /// table match the local sharded answers bit for bit, the layout fold
    /// (and so the cache key) is identical, and only `/explain`'s
    /// `remote_shards` field tells the topologies apart.
    #[test]
    fn remote_engine_matches_local_sharded_engine() {
        let table = skewed_table();
        let mut shardd = Shardd::bind("127.0.0.1:0", 2).expect("shardd");
        let peers = [Arc::new(Peer::connect(shardd.addr().to_string()).expect("peer"))];
        let sharded = ShardedTable::split(&table, 3).unwrap();
        let stmt = "SELECT country, AVG(value), SUM(value) FROM openaq GROUP BY country";

        let mut local = Engine::new().with_seed(42);
        local.register("openaq", sharded.clone());
        let mut remote = Engine::new().with_seed(42);
        remote.register("openaq", remote_set("openaq", &sharded, &peers));

        for mode in [QueryMode::Exact, QueryMode::Approximate] {
            let a = local.query(stmt, mode).unwrap();
            let b = remote.query(stmt, mode).unwrap();
            assert_same_answer(&a, &b, &format!("{mode:?}"));
        }

        let a = local.explain(stmt).unwrap();
        let b = remote.explain(stmt).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "same layout fold, same cache key");
        assert_eq!(a.remote_shards, None);
        assert_eq!(b.remote_shards, Some(3));
        shardd.shutdown();
    }

    /// The OpenAQ rows of the partition-scale sweep: three whole partitions
    /// and a partial fourth.
    const PARTITION_SCALE_ROWS: usize = 3 * (1 << 16) + 5_000;

    /// Layouts at partition scale: a shard boundary on a partition edge, one
    /// inside a partition, and a shard holding no whole partition behind an
    /// empty one.
    fn partition_scale_layouts(table: &Table) -> Vec<(&'static str, ShardedTable)> {
        let take = |lo: usize, hi: usize| table.take(&(lo..hi).collect::<Vec<_>>());
        let (n, edge) = (table.num_rows(), 2 * (1 << 16));
        let empty = TableBuilder::from_schema(table.schema().clone()).finish();
        let layout = |shards| ShardedTable::from_tables(shards).unwrap();
        vec![
            ("edge", layout(vec![take(0, edge), take(edge, n)])),
            ("inside", layout(vec![take(0, 100_000), take(100_000, n)])),
            ("no whole partition", layout(vec![empty, take(0, 40_000), take(40_000, n)])),
        ]
    }

    /// At partition scale every shard folds the partitions it holds and the
    /// coordinator folds only those that straddle a boundary: cold
    /// approximate statements — a cube and two aggregates among them — and
    /// exact statements under a predicate, with `COUNT_IF` and with `CASE`
    /// arithmetic answer byte-identically to the single table, over live
    /// shard servers and through reader-backed shards alike, at one thread
    /// and at the CI-pinned count.
    #[test]
    fn partition_scale_remote_answers_identical_to_single_table() {
        let table = generate_openaq(&OpenAqConfig::with_rows(PARTITION_SCALE_ROWS));
        let statements = [
            ("SELECT country, AVG(value), SUM(value) FROM openaq GROUP BY country", true),
            (
                "SELECT country, parameter, SUM(value) FROM openaq \
                 GROUP BY country, parameter WITH CUBE",
                true,
            ),
            (
                "SELECT country, AVG(value) FROM openaq WHERE parameter = 'pm25' \
                 GROUP BY country",
                false,
            ),
            ("SELECT parameter, unit, COUNT_IF(value > 0.5) FROM openaq GROUP BY parameter, unit", false),
            (
                "SELECT country, SUM(CASE WHEN value > 10 THEN value * 2 ELSE value - 1 END) \
                 FROM openaq GROUP BY country",
                false,
            ),
        ];
        let pinned = std::env::var("CVOPT_THREADS").ok().and_then(|v| v.parse().ok());
        let threads = [1, pinned.unwrap_or(2)];
        let engine = |threads| Engine::new().with_seed(11).with_exec(ExecOptions::new(threads));
        let mut single = engine(1);
        single.register("openaq", table.clone());
        let mode =
            |approximate| if approximate { QueryMode::Approximate } else { QueryMode::Exact };
        let reference: Vec<QueryAnswer> = (statements.iter())
            .map(|&(stmt, approximate)| single.query(stmt, mode(approximate)).unwrap())
            .collect();

        let mut servers =
            [Shardd::bind("127.0.0.1:0", 2).unwrap(), Shardd::bind("127.0.0.1:0", 2).unwrap()];
        let peers =
            servers.each_ref().map(|s| Arc::new(Peer::connect(s.addr().to_string()).unwrap()));
        for (layout, sharded) in partition_scale_layouts(&table) {
            let [_, opaque] = local_and_reader_backed(&sharded);
            let remote = ("shardd", remote_set(layout, &sharded, &peers));
            for (kind, set) in [opaque, remote] {
                for threads in threads {
                    let mut sharded_engine = engine(threads);
                    sharded_engine.register("openaq", set.clone());
                    for ((stmt, approximate), want) in statements.iter().zip(&reference) {
                        let got = sharded_engine.query(stmt, mode(*approximate)).unwrap();
                        let what = format!("{layout} ({kind}), threads {threads}: {stmt}");
                        assert_same_answer(&got, want, &what);
                    }
                }
            }
        }
        for server in &mut servers {
            server.shutdown();
        }
    }

    /// Fault injection: killing the shard server mid-query yields a clean
    /// coordinator error, repeated failures trip the circuit breaker, and
    /// after a restart on the same port (plus re-registration) the same
    /// peer recovers with bit-identical answers.
    #[test]
    fn killed_shardd_errors_cleanly_and_circuit_recovers() {
        let table = skewed_table();
        let sharded = ShardedTable::split(&table, 2).unwrap();
        let mut shardd = Shardd::bind("127.0.0.1:0", 2).expect("shardd");
        let addr = shardd.addr();
        let config = NetConfig {
            circuit_threshold: 1,
            circuit_cooldown: Duration::from_millis(200),
            ..NetConfig::default()
        };
        let peers = [Arc::new(Peer::with_config(addr.to_string(), config).expect("peer"))];
        let set = remote_set("t", &sharded, &peers);

        let sample = |set: &ShardSet| {
            CvOptSampler::new(problem(Norm::L2)).with_seed(7).with_threads(2).sample(set)
        };
        let reference = sample(&set).expect("live server answers");

        shardd.shutdown();
        let err = sample(&set).expect_err("dead server must be an error, not a panic");
        assert!(err.to_string().contains("remote shard"), "unexpected error: {err}");

        // The breaker is open now: the retry fails fast, no socket work.
        let err = sample(&set).expect_err("circuit rejects while the server is down");
        assert!(err.to_string().contains("remote shard"), "unexpected error: {err}");
        assert!(peers[0].circuit_open(), "repeated failures should open the circuit");

        // Restart on the same port, re-register, wait out the cooldown:
        // the existing peer (and the existing RemoteShard handles) heal.
        let mut revived = Shardd::bind(addr, 2).expect("rebind the same port");
        std::thread::sleep(Duration::from_millis(250));
        for (s, shard) in sharded.shards().iter().enumerate() {
            RemoteShard::register(Arc::clone(&peers[0]), format!("t/{s}"), shard)
                .expect("re-register after restart");
        }
        let outcome = sample(&set).expect("recovered after restart");
        assert_eq!(outcome.sample.origin, reference.sample.origin);
        assert_eq!(outcome.plan.allocation.sizes, reference.plan.allocation.sizes);
        revived.shutdown();
    }
}

/// The derived problem and fingerprints agree between engine paths (sanity
/// check that the layout fold changes the cache key, not the answer).
#[test]
fn sharded_problem_derivation_matches() {
    let table = skewed_table();
    let stmt = "SELECT country, AVG(value) FROM t GROUP BY country";
    let query = sql::compile(stmt).unwrap();
    let budget = budget_for_rate(&table, 0.01).unwrap();
    let derived = problem_for_query(&query, budget).unwrap();

    let mut single = Engine::new().with_auto_threshold(1000);
    single.register("t", table.clone());
    let mut shard_engine = Engine::new().with_auto_threshold(1000);
    shard_engine.register("t", ShardedTable::split(&table, 3).unwrap());

    let a = single.explain(stmt).unwrap();
    let b = shard_engine.explain(stmt).unwrap();
    assert_eq!(a.budget, b.budget);
    assert_eq!(a.budget, Some(derived.budget));
    assert_eq!(a.table_rows, b.table_rows);
    // Same problem, different cache keys (the layout is folded in).
    assert_ne!(a.fingerprint, b.fingerprint);
    assert_eq!(a.partitions, b.partitions, "global partitioning ignores shard boundaries");
}
