//! The fixed statement list of each workload.
//!
//! Every list has an odd number of distinct statements, so the pooled
//! median latency sits inside one statement's distribution rather than
//! between two.

use cvopt_core::QueryMode;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Statement {
    pub id: &'static str,
    pub sql: &'static str,
    pub mode: QueryMode,
}

const fn approx(id: &'static str, sql: &'static str) -> Statement {
    Statement { id, sql, mode: QueryMode::Approximate }
}

const fn exact(id: &'static str, sql: &'static str) -> Statement {
    Statement { id, sql, mode: QueryMode::Exact }
}

// The paper's queries (`cvopt_eval::queries`), rendered as SQL; a unit test
// pins each rendering to the query it stands for.
const AQ2: &str = "SELECT country, parameter, unit, SUM(value) AS agg1, COUNT(*) AS agg2 \
                   FROM openaq GROUP BY country, parameter, unit";
const AQ4: &str = "SELECT country, MONTH(local_time), YEAR(local_time), AVG(value) FROM openaq \
                   WHERE parameter = 'co' GROUP BY country, MONTH(local_time), YEAR(local_time)";
const AQ6: &str = "SELECT parameter, unit, COUNT_IF(value > 0.5) AS count FROM openaq \
                   WHERE country = 'C02' GROUP BY parameter, unit";
const AQ7: &str =
    "SELECT country, parameter, SUM(value) FROM openaq GROUP BY country, parameter WITH CUBE";
const AQ8: &str = "SELECT country, parameter, SUM(value), SUM(latitude) FROM openaq \
                   GROUP BY country, parameter WITH CUBE";
const B1: &str = "SELECT from_station_id, AVG(age) AS agg1, AVG(trip_duration) AS agg2 FROM bikes \
                  WHERE age > 0 GROUP BY from_station_id";
const B2: &str = "SELECT from_station_id, AVG(trip_duration) FROM bikes \
                  WHERE trip_duration > 0.0 GROUP BY from_station_id";
const B3: &str = "SELECT from_station_id, year, SUM(trip_duration) FROM bikes WHERE age > 0 \
                  GROUP BY from_station_id, year WITH CUBE";
const B4: &str = "SELECT from_station_id, year, SUM(trip_duration), SUM(age) FROM bikes \
                  GROUP BY from_station_id, year WITH CUBE";
const BY_COUNTRY: &str = "SELECT country, AVG(value) FROM openaq GROUP BY country";
const BY_LOCATION: &str = "SELECT location, AVG(value) FROM openaq GROUP BY location";

/// `cold_sample`: eleven statements with pairwise-distinct derived problems,
/// so a fresh engine misses its cache on every one.
pub const COLD_SAMPLE: [Statement; 11] = [
    approx("AQ2", AQ2),
    approx("AQ4", AQ4),
    approx("AQ6", AQ6),
    approx("AQ7", AQ7),
    approx("AQ8", AQ8),
    approx("B1", B1),
    approx("B2", B2),
    approx("B3", B3),
    approx("B4", B4),
    approx("by_country", BY_COUNTRY),
    approx("by_location", BY_LOCATION),
];

/// The five OpenAQ shapes `exact_scan` answers exactly on the single table;
/// the first two repeat against the 3-shard registration.
pub const EXACT_SHAPES: [Statement; 5] = [
    exact("AQ2", AQ2),
    exact("AQ4", AQ4),
    exact("AQ6", AQ6),
    exact("AQ7", AQ7),
    exact("by_location", BY_LOCATION),
];

/// `exact_scan`: the five shapes, an expression aggregate, the JOIN, and two
/// shapes over `openaq3` (the same rows in three shards).
pub const EXACT_SCAN: [Statement; 9] = [
    EXACT_SHAPES[0],
    EXACT_SHAPES[1],
    EXACT_SHAPES[2],
    EXACT_SHAPES[3],
    EXACT_SHAPES[4],
    exact(
        "case_arith",
        "SELECT country, SUM(CASE WHEN value > 1 THEN value * 2 ELSE 0 END) AS hot, \
         AVG(value * latitude + 1) AS mixed FROM openaq GROUP BY country",
    ),
    exact(
        "join_regions",
        "SELECT region, SUM(value), COUNT(*) FROM openaq \
         JOIN regions ON openaq.country = regions.country GROUP BY region",
    ),
    exact(
        "AQ2@3shards",
        "SELECT country, parameter, unit, SUM(value) AS agg1, COUNT(*) AS agg2 \
         FROM openaq3 GROUP BY country, parameter, unit",
    ),
    exact(
        "AQ4@3shards",
        "SELECT country, MONTH(local_time), YEAR(local_time), AVG(value) FROM openaq3 \
         WHERE parameter = 'co' GROUP BY country, MONTH(local_time), YEAR(local_time)",
    ),
];

/// Stratification of `serve_cached`'s durable sample, and the value columns
/// it materialises.
pub const DURABLE_GROUP_BY: [&str; 4] = ["country", "parameter", "unit", "location"];
pub const DURABLE_AGGREGATES: [&str; 2] = ["value", "latitude"];

/// `serve_cached`: one statement whose derived problem *is* the durable
/// sample's (an exact-fingerprint hit) and four the reuse planner derives
/// from it, one with a predicate and one with two aggregates.
pub const SERVE_CACHED: [Statement; 5] = [
    approx(
        "exact_hit",
        "SELECT country, parameter, unit, location, SUM(value), SUM(latitude) FROM openaq \
         WHERE country = 'C02' GROUP BY country, parameter, unit, location",
    ),
    approx("by_country", BY_COUNTRY),
    approx(
        "by_country_parameter",
        "SELECT country, parameter, SUM(value), COUNT(*) FROM openaq GROUP BY country, parameter",
    ),
    approx(
        "predicate",
        "SELECT parameter, unit, AVG(value) FROM openaq WHERE country = 'C02' \
         GROUP BY parameter, unit",
    ),
    approx(
        "two_aggregates",
        "SELECT location, AVG(value), AVG(latitude) FROM openaq GROUP BY location",
    ),
];

/// `remote_cold`: four cold approximate statements and three exact ones over
/// the two remote shards.
pub const REMOTE_COLD: [Statement; 7] = [
    approx("AQ2", AQ2),
    approx("AQ7", AQ7),
    approx("by_country", BY_COUNTRY),
    approx("by_location", BY_LOCATION),
    exact("AQ2", AQ2),
    exact("AQ6", AQ6),
    exact("by_country", BY_COUNTRY),
];

/// `ingest_maintain`: the three statements whose durable samples are
/// maintained under ingest and read back after every tenth batch.
pub const INGEST_READS: [Statement; 3] =
    [approx("AQ2", AQ2), approx("by_country", BY_COUNTRY), approx("by_location", BY_LOCATION)];

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_core::problem_for_query;
    use cvopt_eval::queries;
    use cvopt_table::sql;
    use std::collections::HashSet;

    fn assert_odd_and_distinct(name: &str, list: &[Statement]) {
        assert_eq!(list.len() % 2, 1, "{name}: the statement count must be odd");
        let distinct: HashSet<(&str, bool)> =
            list.iter().map(|s| (s.sql, s.mode == QueryMode::Exact)).collect();
        assert_eq!(distinct.len(), list.len(), "{name}: statements must be distinct");
    }

    #[test]
    fn every_list_has_an_odd_number_of_distinct_statements() {
        assert_odd_and_distinct("cold_sample", &COLD_SAMPLE);
        assert_odd_and_distinct("exact_scan", &EXACT_SCAN);
        assert_odd_and_distinct("serve_cached", &SERVE_CACHED);
        assert_odd_and_distinct("remote_cold", &REMOTE_COLD);
        assert_odd_and_distinct("ingest_maintain", &INGEST_READS);
    }

    #[test]
    fn cold_sample_problems_are_pairwise_distinct() {
        let fingerprints: HashSet<u64> = COLD_SAMPLE
            .iter()
            .map(|s| {
                let query = sql::compile(s.sql).unwrap_or_else(|e| panic!("{}: {e}", s.id));
                problem_for_query(&query, 1000).expect("estimable").fingerprint()
            })
            .collect();
        assert_eq!(fingerprints.len(), COLD_SAMPLE.len(), "two statements share a problem");
    }

    #[test]
    fn sql_renderings_are_the_papers_queries() {
        let pairs = [
            (AQ2, queries::aq2()),
            (AQ4, queries::aq4()),
            (AQ6, queries::aq6()),
            (AQ7, queries::aq7()),
            (AQ8, queries::aq8()),
            (B1, queries::b1()),
            (B2, queries::b2()),
            (B3, queries::b3()),
            (B4, queries::b4()),
        ];
        for (sql_text, paper) in pairs {
            let got = sql::compile(sql_text).unwrap_or_else(|e| panic!("{}: {e}", paper.id));
            let want = paper.query;
            assert_eq!(got.group_by, want.group_by, "{} group-by", paper.id);
            assert_eq!(got.predicate, want.predicate, "{} predicate", paper.id);
            assert_eq!(got.cube, want.cube, "{} cube", paper.id);
            let shape = |q: &cvopt_table::GroupByQuery| -> Vec<_> {
                q.aggregates.iter().map(|a| (a.kind, a.input.clone(), a.condition)).collect()
            };
            assert_eq!(shape(&got), shape(&want), "{} aggregates", paper.id);
        }
    }

    #[test]
    fn every_statement_parses() {
        for s in EXACT_SCAN.iter().chain(&SERVE_CACHED).chain(&REMOTE_COLD).chain(&INGEST_READS) {
            sql::parse_statement(s.sql).unwrap_or_else(|e| panic!("{}: {e}", s.id));
        }
    }
}
