//! Parser fuzz battery: the SQL front end must be total — any input, no
//! matter how hostile, either parses or returns a positioned error. It
//! must never panic, never recurse past its depth bound, and never loop.
//! Valid expression trees generated bottom-up must always parse back.

mod common;

use proptest::prelude::*;

use cvopt_table::{sql, TableError};

/// Vocabulary for token-soup fuzzing: grammar keywords, punctuation,
/// idents, and literals in proportions that often produce *almost*-valid
/// statements — the inputs most likely to expose a panic path.
const VOCAB: [&str; 40] = [
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "WITH", "CUBE", "AND", "BETWEEN", "JOIN", "ON",
    "EXPLAIN", "CASE", "WHEN", "THEN", "ELSE", "END", "AS", "AVG", "SUM", "COUNT", "COUNT_IF",
    "YEAR", "MONTH", "HOUR", "(", ")", ",", "=", "<", ">", "+", "-", "*", "/", ".", "t", "x",
    "'a'", "3.5",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Token soup: random keyword/punctuation sequences never panic the
    /// parser, and failures are positioned SQL errors.
    #[test]
    fn token_soup_never_panics(tokens in proptest::collection::vec(0usize..VOCAB.len(), 0..40)) {
        let input = tokens.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" ");
        match sql::parse_statement(&input) {
            Ok(_) => {}
            Err(TableError::Sql { .. }) => {}
            Err(other) => return Err(format!("non-SQL error for {input:?}: {other}")),
        }
    }

    /// Raw byte noise (lossy UTF-8): never panics, never succeeds unless
    /// the noise happens to be a statement.
    #[test]
    fn byte_noise_never_panics(seed in any::<u64>(), len in 0usize..120) {
        let _ = sql::parse_statement(&common::byte_noise(seed, len));
    }

    /// Mutations of a valid statement — a window deleted anywhere — never
    /// panic, and whatever fails carries a position inside the input.
    #[test]
    fn mutated_statements_fail_with_positions(start in 0usize..70, len in 1usize..12) {
        let base = "EXPLAIN SELECT g, SUM(CASE WHEN v > 2 THEN v * 3 ELSE 0 END) \
                    FROM t JOIN d ON t.k = d.k WHERE v + 1 > 2 GROUP BY g";
        let mutated = common::without_window(base, start, len);
        match sql::parse_statement(&mutated) {
            Ok(_) => {}
            Err(TableError::Sql { position, message }) => {
                if let Some(pos) = position {
                    prop_assert!(pos <= mutated.len(), "position {} beyond input", pos);
                }
                prop_assert!(!message.is_empty());
            }
            Err(other) => return Err(format!("non-SQL error for {mutated:?}: {other}")),
        }
    }

    /// Generated arithmetic/CASE expression trees rendered to SQL always
    /// parse — the grammar is closed over its own expression language.
    #[test]
    fn generated_expressions_always_parse(shape in proptest::collection::vec(0u8..5, 1..12)) {
        // Build a random expression bottom-up from a shape vector; the
        // renderer only emits syntax the grammar documents.
        let mut expr = String::from("x");
        for op in &shape {
            expr = match op % 5 {
                0 => format!("({expr} + 1)"),
                1 => format!("({expr} * 2)"),
                2 => format!("({expr} - 0.5)"),
                3 => format!("CASE WHEN {expr} > 1 THEN {expr} ELSE 0 END"),
                _ => format!("({expr} / 4)"),
            };
        }
        let stmt = format!("SELECT g, SUM({expr}) FROM t GROUP BY g");
        sql::parse_statement(&stmt).map_err(|e| format!("{stmt}: {e}"))?;
        let explained = format!("EXPLAIN {stmt}");
        sql::parse_statement(&explained).map_err(|e| format!("{explained}: {e}"))?;
    }
}

/// Pathological depth: the recursive-descent parser refuses, in bounded
/// time, inputs engineered to overflow its stack — it must error, not
/// crash, well past its depth bound.
#[test]
fn pathological_nesting_errors_fast() {
    for depth in [100usize, 1_000, 100_000] {
        let open = "(".repeat(depth);
        let stmt = format!("SELECT g, SUM({open}x FROM t GROUP BY g");
        assert!(sql::parse_statement(&stmt).is_err(), "depth {depth}");
        let case = "CASE WHEN ".repeat(depth);
        let stmt = format!("SELECT g, SUM({case}x) FROM t GROUP BY g");
        assert!(sql::parse_statement(&stmt).is_err(), "depth {depth}");
    }
}

/// Hostile inputs collected from the error paths the grammar documents:
/// every one errors (never panics) and the message names the problem.
#[test]
fn hostile_corpus_errors_informatively() {
    let cases: [(&str, &str); 10] = [
        ("", "SELECT"),
        ("EXPLAIN", "SELECT"),
        ("EXPLAIN EXPLAIN SELECT COUNT(*) FROM t", "expected"),
        ("SELECT COUNT(*) FROM t JOIN t ON t.a = t.b", "self-join"),
        ("SELECT COUNT(*) FROM t JOIN d ON a = d.b", "qualified"),
        ("SELECT COUNT(*) FROM t JOIN d ON x.a = d.b", "neither"),
        ("SELECT COUNT(*) FROM t JOIN d ON t.a = t.b", "one"),
        ("SELECT a.b, COUNT(*) FROM t GROUP BY a.b", "JOIN ON"),
        ("SELECT g, SUM(CASE END) FROM t GROUP BY g", "WHEN"),
        ("SELECT g, SUM(x % 2) FROM t GROUP BY g", "near"),
    ];
    for (input, needle) in cases {
        let err = sql::parse_statement(input).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.to_lowercase().contains(&needle.to_lowercase()),
            "{input:?}: expected {needle:?} in {msg:?}"
        );
    }
}
