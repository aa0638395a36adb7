//! Hostile-input battery for the shard wire: every payload a coordinator or
//! a shard server reads came from another process, so `Request::decode` and
//! `Response::decode` must be total — any bytes either decode or return an
//! error, never a panic — and what they accept must re-encode to bytes they
//! accept again. Every count a decoder reads passes the remaining-bytes
//! guard, and no reservation exceeds `MAX_PREALLOC`. The frame reader must
//! refuse a head with a bad length or version before it reads, or allocates
//! for, the payload.
//!
//! Every payload is the encoding of a real value: a table of string,
//! integer, float, timestamp and bool columns, walks under both folds (a
//! nested predicate and every aggregate shape), their answers with keys and
//! partition states, picks and their picked rows, and dense and sparse value
//! columns — one of every `Request` and `Response` variant, and the corpus's
//! first bytes are exactly the tags each decoder accepts, so a variant added
//! or retired without its payload fails the battery.

mod common;

use std::collections::BTreeSet;
use std::io::{self, Read};

use cvopt_net::frame::{read_frame, write_frame, MAX_FRAME, PROTOCOL_VERSION};
use cvopt_net::wire::{DecodeError, Request, Response};
use cvopt_table::agg::AggState;
use cvopt_table::reader::{Fold, Pick, Picked, Walked, WalkedPartition};
use cvopt_table::{
    AggExpr, AggKind, ArithOp, CaseWhen, CmpOp, ColumnValues, DataType, KeyAtom, LocalShard,
    Predicate, ScalarExpr, ShardReader, Table, TableBuilder, Value,
};

fn table() -> Table {
    let mut b = TableBuilder::new(&[
        ("city", DataType::Str),
        ("n", DataType::Int64),
        ("value", DataType::Float64),
        ("ts", DataType::Timestamp),
        ("ok", DataType::Bool),
    ]);
    for (i, city) in ["hanoi", "delhi", "hanoi", "lima", "", "delhi"].into_iter().enumerate() {
        let i = i as i64;
        b.push_row(&[
            Value::str(city),
            Value::Int64(7 - 3 * i),
            Value::Float64(1.5 * i as f64 - 2.0),
            Value::Timestamp(1_500_000_000 + 86_400 * 40 * i),
            Value::Bool(i % 2 == 0),
        ])
        .unwrap();
    }
    b.finish()
}

fn requests() -> Vec<Request> {
    let key = || "aq/0".to_string();
    let case = ScalarExpr::Case {
        whens: vec![CaseWhen {
            lhs: ScalarExpr::col("value"),
            op: CmpOp::Gt,
            rhs: ScalarExpr::lit(1.0),
            then: ScalarExpr::binary(ArithOp::Mul, ScalarExpr::col("value"), ScalarExpr::lit(2.0)),
        }],
        otherwise: Some(Box::new(ScalarExpr::lit(0.0))),
    };
    let predicate = Predicate::cmp("city", CmpOp::Eq, "hanoi")
        .and(Predicate::between(ScalarExpr::col("value"), -1.0, 4.0).not())
        .or(Predicate::InList { expr: ScalarExpr::col("n"), values: vec![Value::Int64(1)] });
    vec![
        Request::Register { key: key(), table: table() },
        Request::Health,
        Request::Walk {
            key: key(),
            first_row: 65_536,
            total_rows: 131_077,
            exprs: vec![ScalarExpr::col("city"), ScalarExpr::year("ts"), case.clone()],
            fold: Fold::Stats { columns: vec![ScalarExpr::col("value"), case.clone()] },
        },
        Request::Walk {
            key: key(),
            first_row: 0,
            total_rows: 6,
            exprs: vec![ScalarExpr::col("city")],
            fold: Fold::Exact {
                predicate: Some(predicate),
                aggregates: vec![
                    AggExpr::count(),
                    AggExpr::over(AggKind::Sum, case),
                    AggExpr::count_if("n", CmpOp::Le, -2.5),
                    AggExpr::var("value").with_alias("v"),
                ],
            },
        },
        Request::Pick {
            key: key(),
            exprs: vec![ScalarExpr::col("city"), ScalarExpr::month("ts")],
            picks: vec![Pick { key: 2, ordinals: vec![0, 1] }, Pick { key: 0, ordinals: vec![] }],
        },
        Request::Gather { key: key(), rows: vec![3, 0, 5, 0] },
    ]
}

fn responses() -> Vec<Response> {
    let exprs = [ScalarExpr::col("city"), ScalarExpr::month("ts")];
    let shard = LocalShard::new(table());
    let fold = Fold::Stats { columns: vec![ScalarExpr::col("value"), ScalarExpr::col("n")] };
    let walked = shard.walk(0, 6, &exprs, &fold).unwrap();
    assert_eq!(walked.partitions.len(), 1, "the six rows are one whole partition");
    let partition = WalkedPartition {
        start: 1 << 16,
        slots: vec![0],
        states: vec![AggState { count: 3, sum: -0.0, mean: f64::NAN, ..AggState::default() }],
    };
    let forged =
        Walked { keys: vec![vec![KeyAtom::Int(-1)]], sizes: vec![3], partitions: vec![partition] };
    let picks = [Pick { key: 2, ordinals: vec![0] }, Pick { key: 0, ordinals: vec![0] }];
    vec![
        Response::Registered { rows: 6 },
        Response::Health { keys: vec!["aq/0".into(), "aq/1".into()] },
        Response::Partials {
            columns: vec![
                None,
                Some(ColumnValues::Dense(vec![1.5, -0.0, f64::NAN])),
                Some(ColumnValues::Sparse(vec![Some(2.0), None, Some(-7.25)])),
            ],
        },
        Response::Rows { table: table() },
        Response::Error { message: "no such shard".into() },
        Response::Walked { walked },
        Response::Walked { walked: forged },
        Response::Picked { picked: shard.pick(&exprs, &picks).unwrap() },
        Response::Picked { picked: Picked { table: table(), rows: vec![5, 0, 1, 2, 3, 4] } },
    ]
}

/// Every payload, each marked as a request's or a response's.
fn payloads() -> Vec<(bool, Vec<u8>)> {
    let requests = requests().into_iter().map(|r| (true, r.encode()));
    requests.chain(responses().into_iter().map(|r| (false, r.encode()))).collect()
}

/// The tags `decode` accepts: those whose one-byte payload fails, if at all,
/// with anything but "invalid `side` tag".
fn live_tags<T>(side: &str, decode: fn(&[u8]) -> Result<T, DecodeError>) -> BTreeSet<u8> {
    let invalid = |tag: u8| DecodeError(format!("invalid {side} tag {tag}"));
    (0..=u8::MAX).filter(|&tag| decode(&[tag]).err() != Some(invalid(tag))).collect()
}

#[test]
fn the_corpus_heads_exactly_the_live_tags() {
    let heads = |requests: bool| -> BTreeSet<u8> {
        payloads()
            .into_iter()
            .filter(|(is_request, _)| *is_request == requests)
            .map(|(_, b)| b[0])
            .collect()
    };
    assert_eq!(heads(true), live_tags("request", Request::decode));
    assert_eq!(heads(false), live_tags("response", Response::decode));
}

/// The battery's one judgement, over both decoders: no panic, and an
/// accepted payload re-encodes to bytes the same decoder accepts.
fn judge(bytes: &[u8]) {
    if let Ok(request) = Request::decode(bytes) {
        let again = request.encode();
        assert!(Request::decode(&again).is_ok(), "{bytes:?} re-encoded as {again:?}");
    }
    if let Ok(response) = Response::decode(bytes) {
        let again = response.encode();
        assert!(Response::decode(&again).is_ok(), "{bytes:?} re-encoded as {again:?}");
    }
}

#[test]
fn every_variant_round_trips() {
    for (is_request, bytes) in payloads() {
        let again = match is_request {
            true => Request::decode(&bytes).unwrap().encode(),
            false => Response::decode(&bytes).unwrap().encode(),
        };
        assert_eq!(again, bytes);
    }
}

#[test]
fn truncation_at_every_offset_is_an_error() {
    for (is_request, bytes) in payloads() {
        for prefix in common::prefixes(&bytes) {
            let refused = match is_request {
                true => Request::decode(prefix).is_err(),
                false => Response::decode(prefix).is_err(),
            };
            assert!(refused, "a {}-byte prefix of {bytes:?} decoded", prefix.len());
            judge(prefix);
        }
    }
}

/// Bytes a length, tag or flag field is most likely to be wrong by.
const WIRE_BYTES: [u8; 8] = [0x00, 0x01, 0x02, 0x07, 0x7F, 0x80, 0xFE, 0xFF];

#[test]
fn single_byte_mutations_never_panic() {
    for (_, bytes) in payloads() {
        for (offset, &byte) in bytes.iter().enumerate() {
            let flips = (0..8).map(|bit| byte ^ (1 << bit));
            for replacement in WIRE_BYTES.into_iter().chain(flips) {
                judge(&common::mutated(&bytes, offset, replacement));
            }
        }
    }
}

#[test]
fn window_deletions_never_panic() {
    for (_, bytes) in payloads() {
        for offset in 0..bytes.len() {
            judge(&common::deleted(&bytes, offset, 1 + offset % 7));
            // One whole length field or fixed-width number.
            judge(&common::deleted(&bytes, offset, 8));
        }
    }
}

#[test]
fn byte_noise_never_panics() {
    for seed in 0..2_000u64 {
        let noise = common::noise(seed, (seed % 160) as usize);
        judge(&noise);
        // Behind every tag, valid and retired, so the noise reaches a body.
        judge(&[&[(seed % 14) as u8], &noise[..]].concat());
    }
}

/// A frame head and nothing after it; every read past the head is counted.
struct HeadOnly {
    head: [u8; 5],
    at: usize,
    payload_reads: usize,
}

impl Read for HeadOnly {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.at == self.head.len() {
            self.payload_reads += 1;
            return Ok(0);
        }
        let n = buf.len().min(self.head.len() - self.at);
        buf[..n].copy_from_slice(&self.head[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

#[test]
fn read_frame_checks_the_head_before_the_payload() {
    let mut heads: Vec<[u8; 5]> = Vec::new();
    for (_, payload) in payloads() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        let head: [u8; 5] = frame[..5].try_into().unwrap();
        for offset in 0..5 {
            let flips = (0..8).map(|bit| head[offset] ^ (1 << bit));
            for replacement in WIRE_BYTES.into_iter().chain(flips) {
                heads.push(common::mutated(&head, offset, replacement).try_into().unwrap());
            }
        }
    }
    let lengths = [0, 1, 2, MAX_FRAME as u32, MAX_FRAME as u32 + 1, u32::MAX];
    for length in lengths {
        for version in [0, PROTOCOL_VERSION, PROTOCOL_VERSION + 1, 0xFF] {
            let [a, b, c, d] = length.to_le_bytes();
            heads.push([a, b, c, d, version]);
        }
    }
    for head in heads {
        let length = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
        let refused = length == 0 || length > MAX_FRAME || head[4] != PROTOCOL_VERSION;
        // A legal head allocates its body before the short read fails; past
        // 1 MiB that is memory the battery does not need to spend.
        if !refused && length > 1 << 20 {
            continue;
        }
        let mut reader = HeadOnly { head, at: 0, payload_reads: 0 };
        let read = read_frame(&mut reader);
        if refused {
            assert!(read.is_err(), "{head:?} was read");
            assert_eq!(reader.payload_reads, 0, "{head:?} read its payload before refusing");
        } else {
            // Legal, and nothing follows: only an empty payload is whole.
            assert_eq!(read.is_ok(), length == 1, "{head:?}");
        }
    }
}
