//! Hostile-input battery for the two ingress parsers besides JSON and the
//! shard wire: the HTTP request reader and the CSV table reader. Every byte
//! of either came from a client, so both must be total.
//!
//! * `http::read_request` over an in-memory reader never panics, never
//!   reads a body above `max_body` (nor any byte past the head and the
//!   body it allows), and always answers `Request`, `Bad` or `Closed` —
//!   never `Err`, which only a failing transport may return.
//! * `csv::read_table` never panics, and every error it returns names a
//!   line of its input.
//!
//! The inputs are the README and smoke-script requests as curl sends them
//! and the smoke script's CSV, put through truncation at every offset,
//! single-byte mutation, window deletion and byte noise.

mod common;

use std::io::Cursor;

use cvopt_serve::http::{read_request, ReadOutcome};
use cvopt_table::{csv, DataType, Schema, TableError};

/// A request as curl sends it: request line, curl's headers, the body.
fn curl(method: &str, target: &str, body: &str) -> Vec<u8> {
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n"
    );
    if !body.is_empty() {
        head += "Content-Type: application/x-www-form-urlencoded\r\n";
        head += &format!("Content-Length: {}\r\n", body.len());
    }
    [head.as_bytes(), b"\r\n", body.as_bytes()].concat()
}

/// The smoke script's dimension table, as its `/tables` body carries it.
const SMOKE_CSV: &str =
    "country,region\nC00,emea\nC01,apac\nC02,amer\nC03,emea\nC04,apac\nC05,amer\n";

/// Every request of the serving smoke transcript, the README's ingest and
/// rotate calls, one over HTTP/1.0 with `Expect: 100-continue`, and a
/// pipelined pair.
fn requests() -> Vec<Vec<u8>> {
    let query =
        r#"{"sql":"SELECT country, AVG(value) FROM openaq GROUP BY country","mode":"approximate"}"#;
    let explain = "/explain?sql=SELECT%20country,%20AVG(value)%20FROM%20openaq%20GROUP%20BY%20country&mode=approximate";
    let regions = format!(
        r#"{{"name":"regions","csv":"{}","columns":[["country","str"],["region","str"]]}}"#,
        SMOKE_CSV.replace('\n', "\\n")
    );
    let ingest =
        r#"{"table":"openaq","rows":[["US","pm25","ug_m3","L0001",12.5,-28.9,1546300800]]}"#;
    let rotate = r#"{"table":"openaq","cutoff":1483185282}"#;
    let expect = format!(
        "POST /rotate HTTP/1.0\r\nExpect: 100-continue\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\n\r\n{rotate}",
        rotate.len()
    );
    vec![
        curl("GET", "/healthz", ""),
        curl(
            "POST",
            "/tables",
            r#"{"name":"openaq","generated":"openaq","rows":20000,"shards":2}"#,
        ),
        curl("POST", "/query", query),
        curl("GET", explain, ""),
        curl("GET", "/stats", ""),
        curl("POST", "/tables", &regions),
        curl("POST", "/ingest", ingest),
        expect.into_bytes(),
        [curl("POST", "/query", query), curl("GET", "/stats", "")].concat(),
    ]
}

/// The largest body the battery's reads allow: small enough that the
/// transcript's bodies straddle it.
const MAX_BODY: usize = 64;

/// Bytes up to and including the head's blank line (the whole input when
/// there is none): what a reader may consume before the body.
fn head_len(bytes: &[u8]) -> usize {
    let mut at = 0;
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        at += line.len();
        if i > 0 && line.iter().all(|&b| b == b'\r' || b == b'\n') {
            break;
        }
    }
    at
}

/// Read requests off `bytes` as a keep-alive connection does, until one is
/// refused or the input ends. Every read is an outcome, never an `Err`, and
/// consumes at most its head and a body of at most `max_body`.
fn judge_http(bytes: &[u8], max_body: usize) {
    let mut reader = Cursor::new(bytes);
    loop {
        let start = reader.position() as usize;
        let outcome = read_request(&mut reader, Vec::new(), max_body)
            .unwrap_or_else(|e| panic!("{bytes:?} at {start}: {e}"));
        let read = reader.position() as usize - start;
        assert!(read <= head_len(&bytes[start..]) + max_body, "{bytes:?} at {start}: read {read}");
        match outcome {
            ReadOutcome::Request(request) => {
                assert!(request.body.len() <= max_body, "{bytes:?} at {start}");
                assert!(read > 0, "{bytes:?} at {start}: a request from no bytes");
            }
            ReadOutcome::Bad(bad) => {
                assert!(matches!(bad.status, 400 | 413), "{bytes:?}: {bad:?}");
                return;
            }
            ReadOutcome::Closed => return,
        }
    }
}

fn judge_all_http(bytes: &[u8]) {
    judge_http(bytes, MAX_BODY);
    judge_http(bytes, 1 << 20);
}

/// Every column type, so a mutation can break a number, a bool or a
/// timestamp as well as a string.
const TYPED_CSV: &str =
    "city,value,n,ok,ts\nhanoi,1.5,3,true,1500000000\n\"a,\"\"b\"\"\",-0.25,-2,0,-5\n\nlima,2e3,0,FALSE,7\n";

fn csvs() -> [(&'static str, Schema); 2] {
    let smoke = Schema::new(&[("country", DataType::Str), ("region", DataType::Str)]);
    let typed = Schema::new(&[
        ("city", DataType::Str),
        ("value", DataType::Float64),
        ("n", DataType::Int64),
        ("ok", DataType::Bool),
        ("ts", DataType::Timestamp),
    ]);
    [(SMOKE_CSV, smoke), (TYPED_CSV, typed)]
}

/// A table, or an error that names one of the input's lines.
fn judge_csv(bytes: &[u8], schema: &Schema) {
    let lines = bytes.split(|&b| b == b'\n').count();
    match csv::read_table(bytes, schema.clone()) {
        Ok(_) => {}
        Err(TableError::Csv { line, .. }) => {
            assert!((1..=lines).contains(&line), "{bytes:?}: line {line} of {lines}");
        }
        Err(other) => panic!("{bytes:?}: an error with no line: {other}"),
    }
}

/// How the battery judges one parser's input.
type Judge = Box<dyn Fn(&[u8])>;

/// Every input of the battery, each with its judgement.
fn corpus() -> Vec<(Vec<u8>, Judge)> {
    let http = requests().into_iter().map(|r| (r, Box::new(judge_all_http) as Judge));
    let csv = csvs().into_iter().map(|(text, schema)| {
        let judge = move |bytes: &[u8]| judge_csv(bytes, &schema);
        (text.as_bytes().to_vec(), Box::new(judge) as Judge)
    });
    http.chain(csv).collect()
}

#[test]
fn transcript_inputs_parse() {
    for request in requests() {
        let mut reader = Cursor::new(&request[..]);
        let outcome = read_request(&mut reader, Vec::new(), 1 << 20).unwrap();
        assert!(matches!(outcome, ReadOutcome::Request(_)), "{request:?}: {outcome:?}");
    }
    for (text, schema) in csvs() {
        assert!(csv::read_table(text.as_bytes(), schema).unwrap().num_rows() >= 3);
    }
}

#[test]
fn truncation_at_every_offset_is_judged() {
    for (bytes, judge) in corpus() {
        for prefix in common::prefixes(&bytes) {
            judge(prefix);
        }
    }
}

/// Bytes an HTTP head or a CSV record is most likely to be wrong by.
const INGRESS_BYTES: [u8; 14] =
    [0x00, b'\r', b'\n', b' ', b':', b',', b'"', b'0', b'9', b'-', 0x80, 0xC3, 0xE9, 0xFF];

#[test]
fn single_byte_mutations_are_judged() {
    for (bytes, judge) in corpus() {
        for offset in 0..bytes.len() {
            for byte in INGRESS_BYTES.into_iter().chain(common::HOSTILE_BYTES) {
                judge(&common::mutated(&bytes, offset, byte));
            }
        }
    }
}

#[test]
fn window_deletions_are_judged() {
    for (bytes, judge) in corpus() {
        for offset in 0..bytes.len() {
            judge(&common::deleted(&bytes, offset, 1 + offset % 7));
            judge(&common::deleted(&bytes, offset, 16));
        }
    }
}

#[test]
fn byte_noise_is_judged() {
    let corpus = corpus();
    for seed in 0..2_000u64 {
        let noise = common::noise(seed, (seed % 160) as usize);
        // Raw, and behind a whole first line, so the noise reaches the
        // headers and the records.
        for (bytes, judge) in &corpus {
            let first = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
            judge(&noise);
            judge(&[&bytes[..first], &noise[..]].concat());
        }
    }
}
