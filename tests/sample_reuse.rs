//! The paper's reuse claims (§6.3): one materialized sample answers queries
//! with query-time predicates, different predicates than it was built for,
//! and even different group-by attributes — including through the
//! [`Engine`]'s prepared-sample cache, which must be estimate-for-estimate
//! identical to a fresh sampler run.

use cvopt_core::{
    CatalogTable, CvOptSampler, Engine, ExecOptions, MaterializedSample, QueryMode, QuerySpec,
    ReuseInfo, SamplingProblem,
};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_eval::metrics::{relative_errors_all, ErrorSummary};
use cvopt_eval::queries;
use cvopt_table::{QueryResult, ShardedTable, Table};
use proptest::prelude::*;

fn sample_for_aq3(table: &Table, budget: usize) -> MaterializedSample {
    let pq = queries::aq3();
    let problem = SamplingProblem::multi(pq.specs, budget);
    CvOptSampler::new(problem).with_seed(5).sample(table).unwrap().sample
}

fn mean_error(table: &Table, sample: &MaterializedSample, pq: &cvopt_eval::PaperQuery) -> f64 {
    let truth = pq.query.execute(table).unwrap();
    let est = cvopt_core::estimate::estimate(sample, &pq.query).unwrap();
    ErrorSummary::from_errors(&relative_errors_all(&truth, &est, 0.0)).mean
}

#[test]
fn one_sample_serves_selectivity_variants() {
    let table = generate_openaq(&OpenAqConfig::with_rows(60_000));
    let sample = sample_for_aq3(&table, 1_800); // 3%
                                                // The tighter the predicate, the fewer sample rows survive per group:
                                                // a 25% selectivity leaves ~1 row per stratum at this scale, so the
                                                // bound loosens with selectivity (the trend itself is asserted below).
    for (pq, bound) in [
        (queries::aq3(), 0.35),
        (queries::aq3_variant('c'), 0.55),
        (queries::aq3_variant('b'), 0.60),
        (queries::aq3_variant('a'), 0.75),
    ] {
        let err = mean_error(&table, &sample, &pq);
        assert!(err < bound, "{}: mean error {err} (bound {bound})", pq.id);
    }
}

#[test]
fn lower_selectivity_means_higher_error() {
    // Fewer matching rows in the sample → noisier estimates (paper Fig. 4).
    let table = generate_openaq(&OpenAqConfig::with_rows(60_000));
    let sample = sample_for_aq3(&table, 1_200);
    let err_25 = mean_error(&table, &sample, &queries::aq3_variant('a'));
    let err_100 = mean_error(&table, &sample, &queries::aq3());
    assert!(
        err_100 <= err_25,
        "100% selectivity ({err_100}) should not be worse than 25% ({err_25})"
    );
}

#[test]
fn different_predicate_and_grouping_still_answerable() {
    let table = generate_openaq(&OpenAqConfig::with_rows(60_000));
    let sample = sample_for_aq3(&table, 1_800);
    // AQ5: different predicate (latitude > 0).
    let aq5_err = mean_error(&table, &sample, &queries::aq5());
    assert!(aq5_err < 0.4, "AQ5 from AQ3 sample: {aq5_err}");
    // AQ6: different predicate AND different group-by attributes.
    let pq6 = queries::aq6();
    let truth = pq6.query.execute(&table).unwrap();
    let est = cvopt_core::estimate::estimate(&sample, &pq6.query).unwrap();
    assert!(
        est[0].num_groups() >= truth[0].num_groups() / 2,
        "AQ6 regrouping should find most groups"
    );
}

/// A cached `SampleHandle` answering a query with a *new* predicate and a
/// *coarser* grouping must produce bit-identical estimates to a fresh
/// `CvOptSampler` + `estimate` run with the same seed.
#[test]
fn cached_handle_matches_fresh_sampler_bit_for_bit() {
    let seed = 5;
    let table = generate_openaq(&OpenAqConfig::with_rows(60_000));
    let pq = queries::aq3();
    let problem = SamplingProblem::multi(pq.specs.clone(), 1_800);

    let mut engine = Engine::new().with_seed(seed);
    engine.register("openaq", table.clone());
    let first = engine.prepare("openaq", problem.clone()).unwrap();
    assert!(!first.is_cache_hit());
    let handle = engine.prepare("openaq", problem.clone()).unwrap();
    assert!(handle.is_cache_hit(), "second prepare must come from the cache");
    assert_eq!(engine.stats_passes(), 1, "one statistics pass for two prepares");

    let fresh = CvOptSampler::new(problem).with_seed(seed).sample(&table).unwrap();
    assert_eq!(handle.sample().origin, fresh.sample.origin, "same drawn rows");

    // New predicate (latitude > 0, never planned for) and a coarser
    // grouping (country only, vs the sample's country/parameter/unit).
    let statements = [
        "SELECT country, parameter, unit, AVG(value) FROM openaq \
         WHERE latitude > 0 GROUP BY country, parameter, unit",
        "SELECT country, AVG(value), SUM(value), COUNT(*) FROM openaq GROUP BY country",
    ];
    for stmt in statements {
        let query = cvopt_table::sql::compile(stmt).unwrap();
        let cached = handle.estimate(&query).unwrap();
        let direct = cvopt_core::estimate::estimate(&fresh.sample, &query).unwrap();
        assert_eq!(cached[0].keys, direct[0].keys, "{stmt}");
        for (row, (a, b)) in cached[0].values.iter().zip(&direct[0].values).enumerate() {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{stmt}: row {row} diverged");
            }
        }
    }
}

/// The SQL path of the engine: a second approximate query on the same
/// (table, problem) is served from the cache — no second statistics pass —
/// and still matches a fresh sampler bit for bit.
#[test]
fn engine_query_reuses_cache_across_predicates() {
    let seed = 9;
    let table = generate_openaq(&OpenAqConfig::with_rows(60_000));
    let mut engine = Engine::new().with_seed(seed);
    engine.register("openaq", table.clone());

    let base = "SELECT country, parameter, AVG(value) FROM openaq GROUP BY country, parameter";
    let first = engine.query(base, cvopt_core::QueryMode::Approximate).unwrap();
    assert_eq!(first.report.cache_hit, Some(false));

    let filtered = "SELECT country, parameter, AVG(value) FROM openaq \
                    WHERE latitude > 0 GROUP BY country, parameter";
    let second = engine.query(filtered, cvopt_core::QueryMode::Approximate).unwrap();
    assert_eq!(second.report.cache_hit, Some(true), "same derived problem must hit");
    assert_eq!(engine.stats_passes(), 1, "the cached sample answers both");

    // Bit-identical to the low-level pipeline with the same seed.
    let query = cvopt_table::sql::compile(filtered).unwrap();
    let budget = cvopt_core::budget_for_rate(&table, 0.01).unwrap();
    let problem = cvopt_core::problem_for_query(&query, budget).unwrap();
    let outcome = CvOptSampler::new(problem).with_seed(seed).sample(&table).unwrap();
    let direct = cvopt_core::estimate::estimate(&outcome.sample, &query).unwrap();
    assert_eq!(second.results[0].keys, direct[0].keys);
    for (a, b) in second.results[0].values.iter().zip(&direct[0].values) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

fn assert_same_bits(a: &[QueryResult], b: &[QueryResult], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.keys, rb.keys, "{ctx}");
        for (row, (va, vb)) in ra.values.iter().zip(&rb.values).enumerate() {
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: row {row} diverged");
            }
        }
    }
}

/// The engine's reuse planner: an explicitly prepared fine sample answers a
/// coarser, predicate-filtered query with **zero** new draws, and the
/// derived answer is bit-identical to re-aggregating the cached sample
/// directly — for every thread count and shard layout, and identical
/// *across* them (scatter-gather passes are byte-compatible with their
/// single-table counterparts, so the layout is invisible in the bits).
#[test]
fn derived_reuse_bit_identical_across_threads_and_shards() {
    let seed = 7;
    let table = generate_openaq(&OpenAqConfig::with_rows(30_000));
    let problem = SamplingProblem::single(
        QuerySpec::group_by(&["country", "parameter"]).aggregate("value"),
        900,
    );
    // Coarser grouping (country only) plus a predicate the sample was never
    // planned for: the classic sampling-algebra derivation.
    let stmt = "SELECT country, AVG(value), SUM(value) FROM openaq \
                WHERE latitude > 0 GROUP BY country";
    let query = cvopt_table::sql::compile(stmt).unwrap();

    let mut reference: Option<Vec<QueryResult>> = None;
    for threads in [1usize, 4] {
        for shards in [1usize, 3] {
            let ctx = format!("threads={threads} shards={shards}");
            let mut engine = Engine::new().with_seed(seed).with_exec(ExecOptions::new(threads));
            if shards == 1 {
                engine.register("openaq", table.clone());
            } else {
                engine.register("openaq", ShardedTable::split(&table, shards).unwrap());
            }
            let handle = engine.prepare("openaq", problem.clone()).unwrap();
            let answer = engine.query(stmt, QueryMode::Approximate).unwrap();
            assert!(
                matches!(answer.report.reuse, ReuseInfo::Derived { .. }),
                "{ctx}: expected a derived answer, got {:?}",
                answer.report.reuse
            );
            assert_eq!(engine.stats_passes(), 1, "{ctx}: a reused answer must not draw");
            assert_eq!(engine.draws_avoided(), 1, "{ctx}");

            // The determinism contract: byte-identical to re-aggregating
            // the source sample directly.
            let direct = handle.estimate(&query).unwrap();
            assert_same_bits(&answer.results, &direct, &ctx);

            // And byte-identical across every thread/shard configuration.
            match &reference {
                None => reference = Some(answer.results),
                Some(r) => assert_same_bits(r, &answer.results, &ctx),
            }
        }
    }
}

/// Subset-predicate reuse through the engine: the prepared sample carries no
/// predicate, so *any* conjunction the query adds is applied at estimation
/// time and reported as dropped.
#[test]
fn subset_predicate_reuse_reports_dropped_atoms() {
    let table = generate_openaq(&OpenAqConfig::with_rows(30_000));
    let mut engine = Engine::new().with_seed(11);
    engine.register("openaq", table);
    let problem = SamplingProblem::single(
        QuerySpec::group_by(&["country", "parameter"]).aggregate("value"),
        900,
    );
    engine.prepare("openaq", problem).unwrap();

    let answer = engine
        .query(
            "SELECT country, AVG(value) FROM openaq \
             WHERE latitude > 0 AND value > 1 GROUP BY country",
            QueryMode::Approximate,
        )
        .unwrap();
    match &answer.report.reuse {
        ReuseInfo::Derived { coarsened_groups, dropped_predicates, .. } => {
            assert_eq!(coarsened_groups, &["parameter".to_string()]);
            assert_eq!(dropped_predicates, &["latitude > 0".to_string(), "value > 1".to_string()]);
        }
        other => panic!("expected a derived answer, got {other:?}"),
    }
    assert_eq!(engine.stats_passes(), 1);
}

/// Build a problem from bitmasks over fixed attribute pools (the vendored
/// proptest has no subsequence strategy; nonzero masks encode nonempty
/// subsets deterministically).
fn mask_problem(groups: u8, aggs: u8, budget: usize, min: u64) -> SamplingProblem {
    let gs: Vec<&str> = ["a", "b", "c", "d"]
        .iter()
        .enumerate()
        .filter(|(i, _)| groups & (1 << i) != 0)
        .map(|(_, s)| *s)
        .collect();
    let mut spec = QuerySpec::group_by(&gs);
    for (i, col) in ["x", "y", "z"].iter().enumerate() {
        if aggs & (1 << i) != 0 {
            spec = spec.aggregate(*col);
        }
    }
    SamplingProblem::single(spec, budget).with_min_per_stratum(min)
}

fn name_set(exprs: &[cvopt_table::ScalarExpr]) -> std::collections::BTreeSet<String> {
    exprs.iter().map(|e| e.display_name()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Subsumption is reflexive, and antisymmetric up to canonical form:
    /// mutual subsumption forces equal budgets, knobs, and attribute sets.
    #[test]
    fn subsumption_is_reflexive_and_antisymmetric(
        ga in 1u8..16, aa in 1u8..8, ba in 1usize..500, ma in 0u64..4,
        gb in 1u8..16, ab in 1u8..8, bb in 1usize..500, mb in 0u64..4,
    ) {
        let a = mask_problem(ga, aa, ba, ma);
        let b = mask_problem(gb, ab, bb, mb);
        prop_assert!(a.subsumes(&a), "subsumption must be reflexive");
        prop_assert!(b.subsumes(&b));
        if a.subsumes(&b) && b.subsumes(&a) {
            prop_assert_eq!(a.budget, b.budget);
            prop_assert_eq!(a.min_per_stratum, b.min_per_stratum);
            prop_assert_eq!(a.norm, b.norm);
            prop_assert_eq!(
                name_set(&a.finest_stratification()),
                name_set(&b.finest_stratification())
            );
            prop_assert_eq!(
                name_set(&a.aggregate_columns()),
                name_set(&b.aggregate_columns())
            );
        }
    }

    /// The reuse planner keys candidates by the catalog entry's layout
    /// fingerprint, so a sample prepared under one shard layout can never be
    /// matched to a problem planned under another: distinct layouts fold the
    /// same base fingerprint to distinct keys.
    #[test]
    fn layout_fingerprints_never_match_across_layouts(
        rows in 10usize..200,
        k in 2usize..=5,
        base in any::<u64>(),
    ) {
        let mut b = cvopt_table::TableBuilder::new(&[
            ("g", cvopt_table::DataType::Str),
            ("x", cvopt_table::DataType::Float64),
        ]);
        for i in 0..rows {
            b.push_row(&[
                cvopt_table::Value::str(["a", "b"][i % 2]),
                cvopt_table::Value::Float64(i as f64),
            ]).unwrap();
        }
        let table = b.finish();

        let single: CatalogTable = table.clone().into();
        let sharded: CatalogTable = ShardedTable::split(&table, k).unwrap().into();
        let resharded: CatalogTable = ShardedTable::split(&table, k + 1).unwrap().into();

        prop_assert_eq!(single.layout_fingerprint(base), base, "single tables fold to identity");
        prop_assert_ne!(sharded.layout_fingerprint(base), base);
        prop_assert_ne!(sharded.layout_fingerprint(base), resharded.layout_fingerprint(base));
    }
}

#[test]
fn count_estimates_exact_without_predicate() {
    // With full stratum coverage and no predicate, COUNT per stratum-aligned
    // group is n_c exactly.
    let table = generate_openaq(&OpenAqConfig::with_rows(30_000));
    let sample = sample_for_aq3(&table, 900);
    let query = cvopt_table::sql::compile(
        "SELECT country, parameter, unit, COUNT(*) FROM openaq \
         GROUP BY country, parameter, unit",
    )
    .unwrap();
    let truth = &query.execute(&table).unwrap()[0];
    let est = cvopt_core::estimate::estimate_single(&sample, &query).unwrap();
    for (key, values) in truth.iter() {
        let e = est.value(key, 0).unwrap();
        assert!((e - values[0]).abs() < 1e-6, "{key:?}: {e} vs {}", values[0]);
    }
}
