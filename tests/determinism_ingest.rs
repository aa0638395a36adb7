//! Ingest-replay determinism: replaying the same stream of appended rows
//! into a windowed table must leave the engine in a **bit-identical**
//! state no matter how the stream is chopped into batches, how many
//! threads run the passes, or how the base table is sharded — and that
//! state must equal registering the final table fresh and preparing from
//! scratch.
//!
//! This is the contract the `/ingest` endpoint serves under: a replayed
//! ingest log yields byte-identical samples and `/query` answers,
//! independent of batch boundaries, thread count, and shard layout.
//!
//! CI runs this suite in the determinism matrix (`CVOPT_SHARDS` ×
//! `CVOPT_THREADS` pinned); both pinned values are folded into the sweep
//! below like the other determinism suites.

use std::sync::Arc;

use cvopt_core::{
    budget_for_rows, problem_for_query, Engine, ExecOptions, QueryMode, QuerySpec, SampleHandle,
    SamplingProblem,
};
use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_serve::api::{answer_json, report_json};
use cvopt_serve::Json;
use cvopt_table::exec::CHUNK_ROWS;
use cvopt_table::{sql, Column, ShardedTable, Table};

const BASE_ROWS: usize = 6_000;
const STREAM_ROWS: usize = 3_000;
/// Budget prepared at `BASE_ROWS`; maintenance rescales it to
/// `BUDGET * (BASE_ROWS + STREAM_ROWS) / BASE_ROWS` as rows arrive.
const BUDGET: usize = 200;
const SCALED_BUDGET: usize = BUDGET * (BASE_ROWS + STREAM_ROWS) / BASE_ROWS;

const STATEMENT: &str = "SELECT country, AVG(value) FROM openaq GROUP BY country";

/// The standard thread sweep plus the CI matrix's pinned `CVOPT_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 4];
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
    let mut counts = vec![1, 3];
    if let Some(pinned) = std::env::var("CVOPT_SHARDS").ok().and_then(|v| v.parse::<usize>().ok()) {
        if pinned > 0 && !counts.contains(&pinned) {
            counts.push(pinned);
        }
    }
    counts
}

/// Batch boundaries to replay the stream through: one big batch, a few
/// even batches, and a deliberately ragged split with a 1-row batch.
fn splits() -> Vec<Vec<usize>> {
    vec![vec![STREAM_ROWS], vec![1_000, 1_000, 1_000], vec![1, 1_499, 700, 800]]
}

fn problem(budget: usize) -> SamplingProblem {
    SamplingProblem::single(QuerySpec::group_by(&["country"]).aggregate("value"), budget)
}

/// Register the windowed fixture over `rows` rows in the given layout.
fn engine_with(table: &Table, shards: usize, threads: usize) -> Engine {
    let mut engine =
        Engine::new().with_seed(11).with_exec(ExecOptions::new(threads)).with_auto_threshold(1);
    if shards == 1 {
        engine.register_windowed("openaq", table.clone(), "local_time").unwrap();
    } else {
        let sharded = ShardedTable::split(table, shards).unwrap();
        engine.register_windowed("openaq", sharded, "local_time").unwrap();
    }
    engine
}

/// The sample bits behind a handle, flattened for comparison.
fn sample_bits(handle: &SampleHandle) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
    let s = handle.sample();
    (s.origin.clone(), s.weights.iter().map(|w| w.to_bits()).collect(), s.row_stratum.clone())
}

#[test]
fn replayed_ingest_is_batch_thread_and_layout_invariant() {
    let full = generate_openaq(&OpenAqConfig::with_rows(BASE_ROWS + STREAM_ROWS));
    let base = full.take(&(0..BASE_ROWS).collect::<Vec<_>>());

    // The reference state: the final table registered fresh, prepared at
    // the budget maintenance will have rescaled to. Sequential and
    // unsharded — every matrix point below must reproduce it bit for bit.
    let reference = engine_with(&full, 1, 1);
    let handle = reference.prepare("openaq", problem(SCALED_BUDGET)).unwrap();
    let want_bits = sample_bits(&handle);
    let want_answer = reference.query(STATEMENT, QueryMode::Approximate).unwrap();
    let want_rows = format!("{:?}{:?}", want_answer.results, want_answer.confidence);

    for threads in thread_counts() {
        for shards in shard_counts() {
            for split in splits() {
                let mut live = engine_with(&base, shards, threads);
                live.prepare("openaq", problem(BUDGET)).unwrap();
                let passes = live.stats_passes();
                let mut start = BASE_ROWS;
                for len in &split {
                    let batch = full.take(&(start..start + len).collect::<Vec<_>>());
                    live.ingest("openaq", &batch).unwrap();
                    start += len;
                }
                assert_eq!(start, BASE_ROWS + STREAM_ROWS, "splits must cover the stream");
                assert_eq!(
                    live.stats_passes(),
                    passes,
                    "maintenance re-scanned (threads {threads}, shards {shards}, split {split:?})"
                );

                // The maintained sample must be the fresh preparation,
                // bit for bit — probing it must hit the cache.
                let handle = live.prepare("openaq", problem(SCALED_BUDGET)).unwrap();
                assert!(
                    handle.is_cache_hit(),
                    "the maintained sample must be cached (threads {threads}, shards {shards})"
                );
                assert_eq!(
                    sample_bits(&handle),
                    want_bits,
                    "sample bits diverged (threads {threads}, shards {shards}, split {split:?})"
                );

                // And the answer bytes must match the reference answer.
                let answer = live.query(STATEMENT, QueryMode::Approximate).unwrap();
                assert_eq!(
                    format!("{:?}{:?}", answer.results, answer.confidence),
                    want_rows,
                    "answers diverged (threads {threads}, shards {shards}, split {split:?})"
                );
            }
        }
    }
}

/// A maintained sample stratified by a date part: the base, every batch
/// and the final table each code `MONTH(local_time)` through a day table of
/// their own, and the maintained sample is still the fresh preparation, bit
/// for bit, for every split and layout.
#[test]
fn maintained_date_part_strata_match_a_fresh_preparation() {
    let full = generate_openaq(&OpenAqConfig::with_rows(BASE_ROWS + STREAM_ROWS));
    let base = full.take(&(0..BASE_ROWS).collect::<Vec<_>>());
    let problem = |budget| {
        let mut spec = QuerySpec::group_by(&["country"]).aggregate("value");
        spec.group_by.push(cvopt_table::ScalarExpr::month("local_time"));
        SamplingProblem::single(spec, budget)
    };
    let reference = engine_with(&full, 1, 1);
    let want = sample_bits(&reference.prepare("openaq", problem(SCALED_BUDGET)).unwrap());
    for shards in shard_counts() {
        for split in splits() {
            let mut live = engine_with(&base, shards, 2);
            live.prepare("openaq", problem(BUDGET)).unwrap();
            let mut start = BASE_ROWS;
            for len in &split {
                live.ingest("openaq", &full.take(&(start..start + len).collect::<Vec<_>>()))
                    .unwrap();
                start += len;
            }
            let handle = live.prepare("openaq", problem(SCALED_BUDGET)).unwrap();
            assert!(handle.is_cache_hit(), "shards {shards}, split {split:?}");
            assert_eq!(sample_bits(&handle), want, "shards {shards}, split {split:?}");
        }
    }
}

#[test]
fn rotation_is_layout_and_thread_invariant() {
    let full = generate_openaq(&OpenAqConfig::with_rows(BASE_ROWS));
    // Cut at the midpoint of the window column.
    let cutoff = match full.column_by_name("local_time").unwrap() {
        cvopt_table::Column::Timestamp(v) => {
            let (min, max) = (v.iter().min().unwrap(), v.iter().max().unwrap());
            min + (max - min) / 2
        }
        other => panic!("local_time must be a timestamp, got {other:?}"),
    };

    let mut expected: Option<(u64, String)> = None;
    for threads in thread_counts() {
        for shards in shard_counts() {
            let mut live = engine_with(&full, shards, threads);
            let report = live.rotate("openaq", cutoff).unwrap();
            let answer = live.query(STATEMENT, QueryMode::Approximate).unwrap();
            let got = (report.retired as u64, format!("{:?}", answer.results));
            match &expected {
                None => expected = Some(got),
                Some(want) => {
                    assert_eq!(&got, want, "rotation diverged (threads {threads}, shards {shards})")
                }
            }
        }
    }
}

/// The sealed-layout fixture: a 5 000-row base and a 140 000-row stream, so
/// the live shard seals twice whichever layout the base was registered in,
/// and the row counts keep the engine's 1% rate an exact budget throughout.
const SEAL_BASE_ROWS: usize = 5_000;
const SEAL_STREAM_ROWS: usize = 140_000;
const SEAL_STATEMENTS: [&str; 2] = [
    STATEMENT,
    "SELECT country, parameter, SUM(value), COUNT(*) FROM openaq GROUP BY country, parameter",
];

/// The durable problem the engine derives for `statement` over `rows` rows.
fn derived_problem(statement: &str, rows: usize) -> SamplingProblem {
    let query = sql::parse(statement).and_then(|s| s.into_query()).unwrap();
    problem_for_query(&query, budget_for_rows(rows, 0.01).unwrap()).unwrap()
}

/// Everything a maintained sample is, flattened to bits: origin rows,
/// strata, weights, the allocation, and the per-stratum statistics.
fn maintained_bits(engine: &Engine, statement: &str) -> String {
    let rows = engine.catalog_table("openaq").unwrap().num_rows();
    let handle = engine.prepare("openaq", derived_problem(statement, rows)).unwrap();
    assert!(handle.is_cache_hit(), "{statement}: the maintained sample answers its problem");
    let stats: Vec<[u64; 3]> = (handle.plan().stats.states.iter().flatten())
        .map(|s| [s.count, s.mean.to_bits(), s.m2.to_bits()])
        .collect();
    format!("{:?}{:?}{stats:?}", sample_bits(&handle), handle.plan().allocation.sizes)
}

fn rendered(json: &Json) -> String {
    let mut out = String::new();
    json.write(&mut out);
    out
}

/// The `/query` bytes of every statement. The report names the declared
/// layout (fingerprint, shards), so it is compared only where the layouts
/// are supposed to be indistinguishable.
fn answers(engine: &Engine, with_report: bool) -> Vec<String> {
    let answer = |stmt: &&str| {
        let answer = engine.query(stmt, QueryMode::Approximate).unwrap();
        assert_eq!(answer.report.cache_hit, Some(true), "{stmt}");
        let json = answer_json(&answer);
        if with_report {
            return rendered(&json);
        }
        ["results", "confidence"].map(|member| rendered(json.get(member).unwrap())).concat()
    };
    SEAL_STATEMENTS.iter().map(answer).collect()
}

/// A windowed engine over `table` with both statements' samples durable.
fn sealed_engine(table: &Table, shards: usize) -> Engine {
    let engine = engine_with(table, shards, 2);
    for stmt in SEAL_STATEMENTS {
        engine.prepare("openaq", derived_problem(stmt, table.num_rows())).unwrap();
    }
    engine
}

/// Appends seal the live shard at `CHUNK_ROWS` and roll new ones, so the
/// layout — and everything computed over it — depends on the rows that
/// arrived, never on how they were batched; and a plain table cannot tell
/// that it was ever appended to.
#[test]
fn sealed_layout_is_a_function_of_the_rows_appended() {
    let total = SEAL_BASE_ROWS + SEAL_STREAM_ROWS;
    let generated = generate_openaq(&OpenAqConfig::with_rows(total));
    // One country first shows up past the first seal: drop its rows from
    // the head of the stream, keep the tail as generated.
    let Column::Str { codes, .. } = generated.column_by_name("country").unwrap() else {
        panic!("country is a string column")
    };
    let late = SEAL_BASE_ROWS + CHUNK_ROWS + 10_000;
    let newcomer = codes[late];
    let mut order: Vec<usize> = (0..total).filter(|&r| r >= late || codes[r] != newcomer).collect();
    // A whole number of percent, so every engine pins exactly the 1% rate.
    order.truncate(order.len() / 100 * 100);
    let full = generated.take(&order);
    let total = full.num_rows();
    let first_new = order.iter().position(|&r| r == late).unwrap();
    assert!(first_new > SEAL_BASE_ROWS + CHUNK_ROWS, "the new stratum arrives after a seal");
    let piece = |lo: usize, hi: usize| full.take(&(lo..hi).collect::<Vec<_>>());
    let base = piece(0, SEAL_BASE_ROWS);

    let fresh = sealed_engine(&full, 1);
    let want_bits: Vec<String> = SEAL_STATEMENTS.map(|s| maintained_bits(&fresh, s)).to_vec();
    let want_explain: Vec<String> = (SEAL_STATEMENTS.iter())
        .map(|s| rendered(&report_json(&fresh.explain_mode(s, QueryMode::Approximate).unwrap())))
        .collect();

    for shards in [1usize, 3] {
        let live_rows = *ShardedTable::split(&base, shards).unwrap().shard_rows().last().unwrap();
        // Cumulative row counts after each batch.
        let splits: [Vec<usize>; 3] = [
            // One batch larger than the cap (it seals the live shard and
            // fills another), then the rest in one.
            vec![SEAL_BASE_ROWS + CHUNK_ROWS + 20_000, total],
            // Fill the live shard exactly, then an empty batch arrives on it.
            [0, 0, 35_000]
                .map(|more| SEAL_BASE_ROWS + CHUNK_ROWS - live_rows + more)
                .into_iter()
                .chain([total])
                .collect(),
            (1..)
                .map(|i| SEAL_BASE_ROWS + i * 17_000)
                .take_while(|&c| c < total)
                .chain([total])
                .collect(),
        ];
        let mut layouts = Vec::new();
        for cuts in &splits {
            let mut live = sealed_engine(&base, shards);
            let passes = live.stats_passes();
            let mut at = SEAL_BASE_ROWS;
            for &cut in cuts {
                let before = live.catalog_table("openaq").unwrap().set().readers().to_vec();
                live.ingest("openaq", &piece(at, cut)).unwrap();
                let set = live.catalog_table("openaq").unwrap().set();
                // Only a live shard that took rows is ever rebuilt.
                let was_live = before.len() - 1;
                for (s, reader) in before.iter().enumerate() {
                    let untouched =
                        s < was_live || cut == at || before[was_live].num_rows() >= CHUNK_ROWS;
                    assert_eq!(Arc::ptr_eq(set.reader(s), reader), untouched, "{cuts:?} shard {s}");
                }
                // Sealed shards hold the cap exactly; the live one at most.
                let rows = set.shard_rows();
                for (s, &held) in rows.iter().enumerate().skip(shards - 1) {
                    let sealed = s >= shards && s + 1 < rows.len();
                    assert!(held <= CHUNK_ROWS && (!sealed || held == CHUNK_ROWS), "{rows:?}");
                }
                at = cut;
            }
            assert_eq!((at, live.stats_passes()), (total, passes), "{cuts:?}");
            let table = live.catalog_table("openaq").unwrap();
            layouts.push(table.set().shard_rows());

            for (stmt, want) in SEAL_STATEMENTS.iter().zip(&want_bits) {
                assert_eq!(&maintained_bits(&live, stmt), want, "shards {shards}, {cuts:?}");
            }
            assert_eq!(answers(&live, shards == 1), answers(&fresh, shards == 1), "{cuts:?}");
            if shards == 1 {
                // Nothing a plain table reports can see the sealing.
                let unsealed = fresh.catalog_table("openaq").unwrap();
                assert_eq!(table.layout_fingerprint(42), unsealed.layout_fingerprint(42));
                assert_eq!(table.num_shards(), None);
                for (stmt, want) in SEAL_STATEMENTS.iter().zip(&want_explain) {
                    let report = live.explain_mode(stmt, QueryMode::Approximate).unwrap();
                    assert_eq!(&rendered(&report_json(&report)), want, "{cuts:?}");
                }
            }
        }
        assert!(layouts.iter().all(|l| l == &layouts[0]), "layouts differ by split: {layouts:?}");
        assert_eq!(layouts[0].len(), shards + 2, "two seals: {:?}", layouts[0]);
    }

    // Rotating the sealed layout retires what rotating the one table does.
    let Column::Timestamp(times) = full.column_by_name("local_time").unwrap() else {
        panic!("local_time is a timestamp column")
    };
    let (min, max) = (times.iter().min().unwrap(), times.iter().max().unwrap());
    let cutoff = min + (max - min) / 2;
    let mut single = sealed_engine(&full, 1);
    let mut sealed = sealed_engine(&base, 1);
    sealed.ingest("openaq", &piece(SEAL_BASE_ROWS, total)).unwrap();
    let (want, got) =
        (single.rotate("openaq", cutoff).unwrap(), sealed.rotate("openaq", cutoff).unwrap());
    assert_eq!((got.retired, got.remaining), (want.retired, want.remaining));
    assert!(got.retired > 0 && got.remaining > 0);
    for stmt in SEAL_STATEMENTS {
        assert_eq!(maintained_bits(&sealed, stmt), maintained_bits(&single, stmt), "rotated");
    }
    assert_eq!(answers(&sealed, true), answers(&single, true), "rotated answers");
}
