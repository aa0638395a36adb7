//! Hostile-input battery for the server's JSON reader: every byte of a
//! request body is untrusted, so `Json::parse` must be total — any input
//! either parses or returns an error positioned inside it. It must never
//! panic and never recurse past its depth bound, and what it accepts must
//! render to bytes that parse back to the same bytes. The last test fires
//! the worst input at a live server.

mod common;

use cvopt_core::Engine;
use cvopt_serve::json::MAX_DEPTH;
use cvopt_serve::{client, Json, Server, ServerConfig};

/// Every request body of the README transcripts (the `…` of the ingest
/// example filled in), plus the CSV registration and the `/reoptimize`
/// call the smoke scripts replay.
const BODIES: [&str; 10] = [
    r#"{"sql":"EXPLAIN SELECT country, AVG(value) FROM openaq GROUP BY country","mode":"approximate"}"#,
    r#"{"sql":"SELECT region, SUM(value) FROM openaq JOIN regions ON openaq.country = regions.country GROUP BY region","mode":"exact"}"#,
    r#"{"name":"openaq","generated":"openaq","rows":20000,"shards":2}"#,
    r#"{"sql":"SELECT country, AVG(value) FROM openaq GROUP BY country","mode":"approximate"}"#,
    r#"{"name":"openaq",
  "generated":"openaq","rows":20000,"shards":2,
  "remote":["127.0.0.1:7070","127.0.0.1:7071"]}"#,
    r#"{"name":"openaq","generated":"openaq",
  "rows":20000,"shards":2,"window":"local_time"}"#,
    r#"{"table":"openaq",
  "rows":[["US","pm25","ug_m3","L0001",12.5,-28.9,1546300800],["VN","bc","µg/m³","L0002",4e-2,null,true]]}"#,
    r#"{"table":"openaq","cutoff":1483185282}"#,
    r#"{"name":"regions","csv":"country,region\nC00,emea\nC01,apac\n","columns":[["country","str"],["region","str"]]}"#,
    r#"{"table":"openaq"}"#,
];

/// The battery's one judgement: an error points inside the input; an
/// accepted value renders to bytes that are a fixed point of parse → write.
/// (Compared as bytes, not values: `5.0` reads as a float, renders as `5`
/// and reads back as an integer — the same number on the wire.)
fn judge(input: &str) {
    match Json::parse(input) {
        Err(e) => assert!(e.offset <= input.len(), "{e} lies beyond {input:?}"),
        Ok(value) => {
            let rendered = value.to_string();
            let again = Json::parse(&rendered)
                .unwrap_or_else(|e| panic!("{input:?} rendered as {rendered:?}: {e}"));
            assert_eq!(again.to_string(), rendered, "{input:?}");
        }
    }
}

#[test]
fn transcript_bodies_parse_and_round_trip() {
    for body in BODIES {
        let value = Json::parse(body).unwrap_or_else(|e| panic!("{body}: {e}"));
        assert_eq!(Json::parse(&value.to_string()).unwrap(), value, "{body}");
    }
}

#[test]
fn byte_noise_never_panics() {
    for seed in 0..2_000u64 {
        judge(&common::byte_noise(seed, (seed % 120) as usize));
    }
}

#[test]
fn truncation_at_every_offset_is_a_positioned_error() {
    for body in BODIES {
        for prefix in common::truncations(body) {
            let err = Json::parse(prefix).expect_err("a proper prefix of an object is incomplete");
            assert!(err.offset <= prefix.len(), "{err} lies beyond {prefix:?}");
        }
    }
}

#[test]
fn single_byte_mutations_never_panic() {
    for body in BODIES {
        for offset in 0..body.len() {
            for byte in common::HOSTILE_BYTES {
                judge(&common::with_byte(body, offset, byte));
            }
            judge(&common::without_window(body, offset, 1 + offset % 7));
        }
    }
}

/// Unclosed nesting from one level to 1 MiB of brackets: past `MAX_DEPTH`
/// the answer is an error at the bracket that went too deep, reached
/// without recursing any further.
#[test]
fn nesting_ladders_error_at_the_depth_bound() {
    for open in ["[", "{\"a\":", "[{\"a\":", " [ "] {
        let levels_per_unit = open.matches(['[', '{']).count();
        for bomb in common::nesting_ladder(open, 1 << 20) {
            let depth = bomb.len() / open.len() * levels_per_unit;
            let err = Json::parse(&bomb).expect_err("unclosed nesting never parses");
            assert!(err.offset <= bomb.len(), "{err}");
            if depth > MAX_DEPTH {
                assert!(err.message.contains("nesting"), "depth {depth}: {err}");
                assert!(err.offset < (MAX_DEPTH + 1) * open.len(), "depth {depth}: {err}");
            }
        }
    }
}

/// One `curl` must not take the process down: 100 KB of `[` and of
/// `{"a":` each answer 400 (before the depth cap the worker's stack
/// overflowed, which no `catch_unwind` survives), and a fresh connection
/// is served afterwards.
#[test]
fn a_nesting_bomb_costs_one_request_not_the_server() {
    let config = ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServerConfig::default() };
    let server = Server::start(Engine::new(), config).expect("start server");
    for open in ["[", "{\"a\":"] {
        let bomb = open.repeat(100_000 / open.len());
        let (status, body) = client::post(server.addr(), "/query", &bomb).expect("bomb answered");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting"), "{body}");
        let (status, body) = client::get(server.addr(), "/healthz").expect("still serving");
        assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
    }
    server.shutdown();
}
