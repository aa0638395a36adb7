//! The seeded workload mix: which statement each request sends.
//!
//! Four statement classes over the OpenAQ fixture table:
//!
//! * **Hot** — a small pool of approximate statements drawn at random;
//!   after each pool entry's first use every repeat is a prepared-sample
//!   cache hit (or, once the table is re-optimized, a derived answer).
//! * **Cold** — approximate statements cycled from a disjoint pool of
//!   distinct problems; each new grouping set costs a statistics pass.
//! * **Derived** — approximate statements over grouping sets that never
//!   appear in the seeding run but are *subsumed* by the union of the hot
//!   and cold shapes: after `/reoptimize` consolidates the query log, the
//!   reuse planner answers them from the consolidated sample without
//!   drawing anything (`draws_avoided`).
//! * **Exact** — full-scan statements that never touch the sample cache.
//!
//! Every approximate statement uses the same aggregate (`AVG(value)`),
//! no predicate, and a distinct `GROUP BY` set, so **distinct SQL text ↔
//! distinct prepared problem**: the engine counters for the seed →
//! re-optimize → replay flow ([`run_flow`]) are a pure function of the
//! schedule ([`expected`]), independent of client interleaving (concurrent
//! misses for one problem coalesce into a single pass, and the durable
//! reuse set is frozen once `/reoptimize` returns). The `counters` bin
//! records the flow's counters; this module's tests replay it over
//! concurrent keep-alive clients against an in-process server.

use std::collections::BTreeSet;

use cvopt_core::{Engine, QueryMode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The fixture table every statement reads.
pub const TABLE: &str = "openaq";

/// Grouping sets for the hot pool (drawn at random, mostly repeats).
const HOT_GROUPS: [&str; 4] = ["country", "parameter", "unit", "country, parameter"];

/// Grouping sets for the cold pool (cycled in order), disjoint from
/// [`HOT_GROUPS`] so the two classes never share a prepared problem.
const COLD_GROUPS: [&str; 4] =
    ["location", "country, unit", "parameter, unit", "country, parameter, unit"];

/// Grouping sets for the derived pool (cycled in order): subsets of the
/// hot∪cold attribute union `{country, parameter, unit, location}` that
/// appear in neither pool, so they are never seeded and can only be
/// answered by the reuse planner (or a fresh draw if the union was never
/// consolidated).
const DERIVED_GROUPS: [&str; 3] =
    ["country, location", "parameter, location", "country, unit, location"];

/// Exact statements: full scans, no sampling, no cache traffic.
const EXACT_SQL: [&str; 3] = [
    "SELECT country, SUM(value), COUNT(*) FROM openaq GROUP BY country",
    "SELECT parameter, MIN(value), MAX(value) FROM openaq GROUP BY parameter",
    "SELECT unit, COUNT(*) FROM openaq GROUP BY unit",
];

/// Which pool a scheduled statement came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Approximate, drawn from the small hot pool (mostly cache hits).
    Hot,
    /// Approximate, cycled from the cold pool (cache misses until the
    /// pool wraps).
    Cold,
    /// Approximate, cycled from the derived pool (never seeded; answered
    /// by sample reuse after `/reoptimize`).
    Derived,
    /// Exact full scan (no cache traffic).
    Exact,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// The SQL text.
    pub sql: String,
    /// The `/query` mode field: `"approximate"` or `"exact"`.
    pub mode: &'static str,
    /// The pool this statement came from.
    pub class: Class,
    /// The `GROUP BY` column list for approximate statements (`None` for
    /// exact scans) — what [`expected`] feeds the subsumption check.
    pub group: Option<&'static str>,
}

impl Statement {
    /// The `/query` request body for this statement.
    pub fn query_body(&self) -> String {
        format!(r#"{{"sql":"{}","mode":"{}"}}"#, self.sql, self.mode)
    }
}

fn approximate(group: &'static str, class: Class) -> Statement {
    Statement {
        sql: format!("SELECT {group}, AVG(value) FROM {TABLE} GROUP BY {group}"),
        mode: "approximate",
        class,
        group: Some(group),
    }
}

/// Build the seeded schedule: `total` statements, ~40% hot / ~20% cold /
/// ~20% derived / ~20% exact. Pure function of `(seed, total)`.
pub fn schedule(seed: u64, total: usize) -> Vec<Statement> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cold_next = 0usize;
    let mut derived_next = 0usize;
    (0..total)
        .map(|_| match rng.random_range(0..10u32) {
            0..=3 => approximate(HOT_GROUPS[rng.random_range(0..HOT_GROUPS.len())], Class::Hot),
            4..=5 => {
                let group = COLD_GROUPS[cold_next % COLD_GROUPS.len()];
                cold_next += 1;
                approximate(group, Class::Cold)
            }
            6..=7 => {
                let group = DERIVED_GROUPS[derived_next % DERIVED_GROUPS.len()];
                derived_next += 1;
                approximate(group, Class::Derived)
            }
            _ => Statement {
                sql: EXACT_SQL[rng.random_range(0..EXACT_SQL.len())].to_string(),
                mode: "exact",
                class: Class::Exact,
                group: None,
            },
        })
        .collect()
}

/// The seeding run: the schedule with the derived pool filtered out, in
/// order. Run sequentially before `/reoptimize` so the query log holds
/// exactly the hot/cold shapes.
pub fn seeding(schedule: &[Statement]) -> Vec<Statement> {
    schedule.iter().filter(|s| s.class != Class::Derived).cloned().collect()
}

/// Answer `statements` on `engine`, in order.
pub fn replay(engine: &Engine, statements: &[Statement]) {
    for stmt in statements {
        let mode = if stmt.mode == "exact" { QueryMode::Exact } else { QueryMode::Approximate };
        engine.query(&stmt.sql, mode).expect("workload statement");
    }
}

/// The flow [`expected`] predicts, sequentially on a bare engine: the
/// [`seeding`] run, one [`Engine::reoptimize`] of [`TABLE`], then the full
/// schedule.
pub fn run_flow(engine: &Engine, schedule: &[Statement]) {
    replay(engine, &seeding(schedule));
    engine.reoptimize(TABLE).expect("reoptimize");
    replay(engine, schedule);
}

/// `engine`'s value of the counter `/stats` reports as `name`.
pub fn engine_counter(engine: &Engine, name: &str) -> u64 {
    match name {
        "stats_passes" => engine.stats_passes(),
        "cache_misses" => engine.cache_misses(),
        "cache_hits" => engine.cache_hits(),
        "reuse_hits" => engine.reuse_hits(),
        "draws_avoided" => engine.draws_avoided(),
        "cached_samples" => engine.cached_samples() as u64,
        "cache_bytes_held" => engine.cache_bytes_held(),
        "cache_evictions" => engine.cache_evictions(),
        other => panic!("no engine counter {other}"),
    }
}

/// The engine-counter totals the flow — sequential [`seeding`] run, one
/// `/reoptimize`, then the full schedule however its statements are
/// interleaved across clients — must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Total statements in the full schedule.
    pub total: usize,
    /// Approximate statements in the full schedule.
    pub approximate: usize,
    /// Exact statements in the full schedule.
    pub exact: usize,
    /// Distinct prepared problems among the approximate statements.
    pub distinct_problems: usize,
    /// Statements in the seeding run (the schedule minus the derived
    /// pool).
    pub seeded: usize,
    /// Fresh statistics passes across the whole flow.
    pub stats_passes: u64,
    /// Prepared-sample cache hits across the whole flow.
    pub cache_hits: u64,
    /// Prepared-sample cache misses across the whole flow.
    pub cache_misses: u64,
    /// Resident cache entries after the flow (unbounded budget).
    pub cached_samples: u64,
    /// Answers derived from a subsuming sample (= `draws_avoided`).
    pub reuse_hits: u64,
}

impl Expected {
    /// The engine counters the flow pins, named as `/stats` names them
    /// (an unbounded cache never evicts).
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("stats_passes", self.stats_passes),
            ("cache_misses", self.cache_misses),
            ("cache_hits", self.cache_hits),
            ("reuse_hits", self.reuse_hits),
            ("draws_avoided", self.reuse_hits),
            ("cached_samples", self.cached_samples),
            ("cache_evictions", 0),
        ]
    }
}

fn attrs(group: &str) -> BTreeSet<&str> {
    group.split(',').map(str::trim).collect()
}

/// Simulate the seed → re-optimize → replay flow for a schedule.
///
/// The simulation mirrors the engine's documented decision rules exactly:
///
/// * Seeding (sequential): each distinct approximate problem costs one
///   miss + statistics pass; repeats are hits. Every one is query-drawn,
///   so none is a durable reuse candidate.
/// * `/reoptimize`: consolidates the logged shapes into one durable
///   sample — a fresh miss + pass, unless the log holds exactly one
///   once-seen shape, in which case the consolidated problem *is* that
///   shape and the existing entry is adopted (a cache hit).
/// * Replay (concurrent): a statement whose problem the consolidated
///   sample subsumes is answered **derived** (`reuse_hits`, no cache
///   traffic) — durable reuse outranks any query-drawn exact entry, whose
///   presence under concurrency is a race. Statements outside the union
///   miss once and then hit; statements matching the consolidated
///   problem's own fingerprint hit durably.
pub fn expected(schedule: &[Statement]) -> Expected {
    // Distinct approximate statements in first-appearance order, with
    // occurrence counts, for the seeding run and the full schedule.
    let mut seeded: Vec<(&Statement, u64)> = Vec::new();
    let mut all: Vec<(&Statement, u64)> = Vec::new();
    let mut approximate = 0usize;
    let mut seeded_total = 0u64;
    for stmt in schedule {
        if stmt.mode != "approximate" {
            continue;
        }
        approximate += 1;
        if stmt.class != Class::Derived {
            seeded_total += 1;
            match seeded.iter_mut().find(|(s, _)| s.sql == stmt.sql) {
                Some((_, n)) => *n += 1,
                None => seeded.push((stmt, 1)),
            }
        }
        match all.iter_mut().find(|(s, _)| s.sql == stmt.sql) {
            Some((_, n)) => *n += 1,
            None => all.push((stmt, 1)),
        }
    }

    // Seeding run.
    let mut misses = seeded.len() as u64;
    let mut hits = seeded_total - misses;
    let mut stats = seeded.len() as u64;
    let mut cached = seeded.len() as u64;

    // Re-optimization. The consolidated problem collides with a seeded one
    // only in the degenerate single-shape-seen-once log (count weights
    // leave the spec untouched).
    let consolidated = !seeded.is_empty();
    let consolidated_is_seeded = seeded.len() == 1 && seeded[0].1 == 1;
    let union: BTreeSet<&str> = seeded
        .iter()
        .flat_map(|(s, _)| attrs(s.group.expect("approximate statements carry groups")))
        .collect();
    if consolidated {
        if consolidated_is_seeded {
            hits += 1;
        } else {
            misses += 1;
            stats += 1;
            cached += 1;
        }
    }

    // Concurrent replay of the full schedule.
    let mut reuse = 0u64;
    for (stmt, count) in &all {
        let group = attrs(stmt.group.expect("approximate statements carry groups"));
        let durable_exact = consolidated_is_seeded && seeded[0].0.sql == stmt.sql;
        if durable_exact {
            hits += count;
        } else if consolidated && group.is_subset(&union) {
            reuse += count;
        } else if seeded.iter().any(|(s, _)| s.sql == stmt.sql) {
            // Seeded but outside the union is impossible (seeded shapes
            // built the union); kept for clarity.
            hits += count;
        } else {
            misses += 1;
            stats += 1;
            cached += 1;
            hits += count - 1;
        }
    }

    Expected {
        total: schedule.len(),
        approximate,
        exact: schedule.len() - approximate,
        distinct_problems: all.len(),
        seeded: schedule.len() - (approximate - seeded_total as usize),
        stats_passes: stats,
        cache_hits: hits,
        cache_misses: misses,
        cached_samples: cached,
        reuse_hits: reuse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_total() {
        assert_eq!(schedule(7, 64), schedule(7, 64));
        assert_ne!(schedule(7, 64), schedule(8, 64));
        // A longer schedule extends the shorter one's independent draws
        // in count, not necessarily as a prefix — only length matters.
        assert_eq!(schedule(7, 64).len(), 64);
    }

    #[test]
    fn expected_counts_are_consistent() {
        let sched = schedule(7, 120);
        let exp = expected(&sched);
        assert_eq!(exp.total, 120);
        assert_eq!(exp.approximate + exp.exact, exp.total);
        assert!(exp.approximate > exp.exact, "the mix leans approximate");
        let pools = HOT_GROUPS.len() + COLD_GROUPS.len() + DERIVED_GROUPS.len();
        assert!(exp.distinct_problems <= pools);
        assert!(exp.distinct_problems >= COLD_GROUPS.len(), "cold pool cycles through");
        assert_eq!(exp.seeded, seeding(&sched).len());
        assert!(exp.seeded < exp.total, "the derived pool is real");
        assert!(exp.reuse_hits > 0, "the seeded mix must exercise the reuse planner");
    }

    #[test]
    fn pools_are_disjoint_and_derived_is_subsumed() {
        for g in HOT_GROUPS {
            assert!(!COLD_GROUPS.contains(&g), "{g} in both pools");
            assert!(!DERIVED_GROUPS.contains(&g), "{g} in both pools");
        }
        for g in DERIVED_GROUPS {
            assert!(!COLD_GROUPS.contains(&g), "{g} in both pools");
        }
        // Every derived grouping set is a subset of the hot∪cold attribute
        // union, so a consolidated sample answers it.
        let union: BTreeSet<&str> =
            HOT_GROUPS.iter().chain(&COLD_GROUPS).flat_map(|g| attrs(g)).collect();
        for g in DERIVED_GROUPS {
            assert!(attrs(g).is_subset(&union), "{g} escapes the seeded union");
        }
    }

    fn fixture() -> cvopt_table::Table {
        cvopt_datagen::generate_openaq(&cvopt_datagen::OpenAqConfig::with_rows(20_000))
    }

    /// The accounting contract: the engine's counters for the seed →
    /// re-optimize → replay flow equal [`expected`]'s pure computation.
    /// Runs the whole flow sequentially against a real engine.
    #[test]
    fn engine_counters_match_expected() {
        let mut engine = Engine::new().with_seed(7);
        engine.register(TABLE, fixture());

        let sched = schedule(7, 40);
        let exp = expected(&sched);
        run_flow(&engine, &sched);

        for (name, want) in exp.counters() {
            assert_eq!(engine_counter(&engine, name), want, "{name}");
        }
        assert!(exp.reuse_hits > 0, "the replay must derive answers");
    }

    /// The same contract over HTTP, with the replay racing keep-alive
    /// clients: the seeding run shares one connection, `/reoptimize` and
    /// the `/stats` probe are one-shot requests, and each replay client
    /// keeps its own connection for its round-robin share of the schedule.
    /// Coalescing and the frozen durable set make every counter
    /// independent of the interleaving, at any engine thread count.
    #[test]
    fn concurrent_keepalive_replay_matches_expected() {
        use std::sync::{Arc, Barrier};
        use std::time::Duration;

        use cvopt_serve::{client, Client, Json, Server, ServerConfig};

        const CLIENTS: usize = 4;
        fn send(client: &mut Client, stmt: &Statement) {
            let (status, body) = client.post("/query", &stmt.query_body()).expect("query");
            assert_eq!(status, 200, "{}: {body}", stmt.sql);
        }

        let sched = schedule(7, 40);
        let exp = expected(&sched);
        for threads in [1, 4] {
            let mut engine = Engine::new().with_seed(7);
            engine.register(TABLE, fixture());
            let config = ServerConfig {
                workers: 2,
                thread_budget: 2 * threads,
                keepalive_idle: Duration::from_secs(300),
                keepalive_max_requests: usize::MAX,
                ..ServerConfig::default()
            };
            let server = Server::start(engine, config).expect("start server");
            let addr = server.addr();

            let mut seeder = Client::new(addr);
            seeding(&sched).iter().for_each(|stmt| send(&mut seeder, stmt));
            let (status, body) =
                client::post(addr, "/reoptimize", &format!(r#"{{"table":"{TABLE}"}}"#)).unwrap();
            assert_eq!(status, 200, "{body}");

            let barrier = Arc::new(Barrier::new(CLIENTS));
            let replay: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let share: Vec<Statement> =
                        sched.iter().skip(c).step_by(CLIENTS).cloned().collect();
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        let mut client = Client::new(addr);
                        barrier.wait();
                        share.iter().for_each(|stmt| send(&mut client, stmt));
                        client.connects()
                    })
                })
                .collect();
            let connects: u64 = replay.into_iter().map(|h| h.join().expect("replay client")).sum();

            let (status, body) = client::get(addr, "/stats").unwrap();
            assert_eq!(status, 200);
            let stats = Json::parse(&body).expect("stats json");
            let stat = |name: &str| stats.get(name).and_then(Json::as_u64).expect(name);
            for (name, want) in exp.counters() {
                assert_eq!(stat(name), want, "{name} at {threads} thread(s)");
            }
            assert_eq!(seeder.connects(), 1);
            assert_eq!(connects, CLIENTS as u64, "keep-alive: one connect per replay client");
            // Every request after the first on a keep-alive connection
            // reuses it; served counts the seeding run, the replay,
            // `/reoptimize` and this `/stats` probe.
            assert_eq!(stat("keepalive_reuses"), (exp.seeded - 1 + exp.total - CLIENTS) as u64);
            assert_eq!(stat("requests_served"), (exp.seeded + exp.total + 2) as u64);
            server.shutdown();
        }
    }
}
