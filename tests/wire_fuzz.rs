//! Hostile-input battery for the shard wire: every payload a coordinator or
//! a shard server reads came from another process, so `Request::decode` and
//! `Response::decode` must be total — any bytes either decode or return an
//! error, never a panic — and what they accept must re-encode to bytes they
//! accept again. Every count a decoder reads passes the remaining-bytes
//! guard, and no reservation exceeds the payload's remaining bytes — never
//! more than a buffer holding the whole frame would take. A payload decodes
//! the same pulled from a stream a few bytes at a time as from a slice. The
//! frame reader must refuse a head with a bad length or version before it
//! reads, or allocates for, the payload.
//!
//! Tables travel column-major, and a decoded table must be the one a
//! row-by-row `TableBuilder` rebuild gives: same rows, same dictionary
//! order, same `approx_bytes`, whatever the sender's dictionary order.
//!
//! Every payload is the encoding of a real value: a table of string,
//! integer, float, timestamp and bool columns, walks under both folds (a
//! nested predicate and every aggregate shape), their answers with keys and
//! partition states — a statistics fold's moments, and an exact fold's
//! narrow cell columns of every kind — picks and their picked rows, and
//! dense and sparse value columns — one of every `Request` and `Response`
//! variant, and the corpus's first bytes are exactly the tags each decoder
//! accepts, so a variant added or retired without its payload fails the
//! battery; likewise its walked partitions carry every form of slot states
//! and every kind of cell column.

mod common;

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::io::{self, Read};

use cvopt_net::frame::{read_frame, write_frame, MAX_FRAME, PROTOCOL_VERSION};
use cvopt_net::wire::{DecodeError, Request, Response};
use cvopt_table::agg::{AggState, CellColumn, CountCell, MaxCell, MeanCell, MinCell, SumCell};
use cvopt_table::reader::{Fold, Partitions, Pick, Picked, Walked, WalkedPartition};
use cvopt_table::{
    AggExpr, AggKind, ArithOp, CaseWhen, CmpOp, Column, ColumnValues, DataType, Dictionary,
    KeyAtom, LocalShard, Predicate, ScalarExpr, Schema, ShardReader, Table, TableBuilder, Value,
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

fn requests() -> Vec<Request<'static>> {
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
        Request::Register { key: key(), table: Cow::Owned(table()) },
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
        Request::Walk {
            key: key(),
            first_row: 0,
            total_rows: 6,
            exprs: vec![ScalarExpr::col("city")],
            fold: every_kind(),
        },
        Request::Pick {
            key: key(),
            exprs: vec![ScalarExpr::col("city"), ScalarExpr::month("ts")],
            picks: vec![Pick { key: 2, ordinals: vec![0, 1] }, Pick { key: 0, ordinals: vec![] }],
        },
        Request::Gather { key: key(), rows: vec![3, 0, 5, 0] },
    ]
}

/// The exact fold of every aggregate kind, `COUNT_IF` over a nullable
/// input.
fn every_kind() -> Fold {
    let col = ScalarExpr::col;
    let nullable = ScalarExpr::Case {
        whens: vec![CaseWhen {
            lhs: col("n"),
            op: CmpOp::Gt,
            rhs: ScalarExpr::lit(0.0),
            then: col("value"),
        }],
        otherwise: None,
    };
    let aggregates = vec![
        AggExpr::count(),
        AggExpr::sum("value"),
        AggExpr::over(AggKind::Avg, col("n")),
        AggExpr::min("value"),
        AggExpr::max("n"),
        AggExpr::var("value"),
        AggExpr::std("n"),
        AggExpr::count_if_over(nullable, CmpOp::Ge, -1.0),
    ];
    Fold::Exact { predicate: Some(Predicate::cmp("ok", CmpOp::Eq, true)), aggregates }
}

fn responses() -> Vec<Response> {
    let exprs = [ScalarExpr::col("city"), ScalarExpr::month("ts")];
    let shard = LocalShard::new(table());
    let fold = Fold::Stats { columns: vec![ScalarExpr::col("value"), ScalarExpr::col("n")] };
    let walked = shard.walk(0, 6, &exprs, &fold).unwrap();
    let Partitions::Stats(whole) = &walked.partitions else { panic!("a moments walk") };
    assert_eq!(whole.len(), 1, "the six rows are one whole partition");
    let exact = shard.walk(0, 6, &exprs, &every_kind()).unwrap();
    let moments = WalkedPartition {
        start: 1 << 16,
        slots: vec![0],
        states: vec![AggState { count: 3, sum: -0.0, mean: f64::NAN, ..AggState::default() }],
    };
    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    let cells = WalkedPartition {
        start: 2 << 16,
        slots: vec![0],
        states: vec![
            CellColumn::Count(vec![CountCell { count: u64::MAX }]),
            CellColumn::Sum(vec![SumCell { count: 3, sum: -0.0 }]),
            CellColumn::Min(vec![MinCell { count: 1, min: nan }]),
            CellColumn::Max(vec![MaxCell::default()]),
            CellColumn::Avg(vec![MeanCell { count: 2, mean: f64::NEG_INFINITY }]),
            CellColumn::Moments(vec![AggState { m2: nan, ..AggState::default() }]),
        ],
    };
    let forged =
        |partitions| Walked { keys: vec![vec![KeyAtom::Int(-1)]], sizes: vec![3], partitions };
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
        Response::Walked { walked: exact },
        Response::Walked { walked: forged(Partitions::Stats(vec![moments])) },
        Response::Walked { walked: forged(Partitions::Exact(vec![cells])) },
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

/// The forms of slot states, and the kinds of cell columns, that the
/// corpus's walked partitions carry.
fn state_forms() -> BTreeSet<&'static str> {
    let mut forms = BTreeSet::new();
    for response in responses() {
        let Response::Walked { walked } = response else { continue };
        match &walked.partitions {
            Partitions::Stats(partitions) => {
                if !partitions.is_empty() {
                    forms.insert("moments");
                }
            }
            Partitions::Exact(partitions) => {
                for column in partitions.iter().flat_map(|partition| &partition.states) {
                    forms.insert(match column {
                        CellColumn::Count(_) => "count",
                        CellColumn::Sum(_) => "sum",
                        CellColumn::Min(_) => "min",
                        CellColumn::Max(_) => "max",
                        CellColumn::Avg(_) => "avg",
                        CellColumn::Moments(_) => "cell moments",
                    });
                }
            }
        }
    }
    forms
}

/// Every form a walked partition's states can take is in the corpus: the
/// matches above are exhaustive, so a form added without a case here fails
/// to compile, and one added to the match without a payload fails this.
#[test]
fn the_corpus_walks_every_form_of_state() {
    let all = ["moments", "count", "sum", "min", "max", "avg", "cell moments"];
    assert_eq!(state_forms(), all.into_iter().collect());
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

/// Hands out 1 to 7 bytes per `read`, cycling, whatever the caller asks
/// for, so every primitive, string and run is cut across refills.
struct Dribble<'a> {
    bytes: &'a [u8],
    reads: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (1 + self.reads % 7).min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        self.reads += 1;
        Ok(n)
    }
}

#[test]
fn every_payload_decodes_the_same_dribbled_as_from_a_slice() {
    for (is_request, bytes) in payloads() {
        let mut src = Dribble { bytes: &bytes, reads: 0 };
        let again = match is_request {
            true => Request::decode_from(&mut src, bytes.len()).unwrap().unwrap().encode(),
            false => Response::decode_from(&mut src, bytes.len()).unwrap().unwrap().encode(),
        };
        assert_eq!(again, bytes);
        assert!(src.bytes.is_empty() && src.reads > 0);
    }
}

/// A table's contents bit for bit: the values of a fixed-width column,
/// the codes and dictionary order of a string column.
fn contents(column: &Column) -> String {
    match column {
        Column::Float64(v) => format!("{:?}", v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
        Column::Str { codes, dict } => format!("{codes:?} {:?}", dict.iter().collect::<Vec<_>>()),
        other => format!("{other:?}"),
    }
}

/// The reference: the table `TableBuilder` rebuilds from `table`'s rows,
/// one at a time — what a receiver re-interning row by row would hold.
fn rebuilt(table: &Table) -> Table {
    let mut b = TableBuilder::from_schema(table.schema().clone());
    for row in 0..table.num_rows() {
        b.push_row(&table.row(row)).unwrap();
    }
    b.finish()
}

/// `decode(encode(table))` is `rebuilt(table)`, and re-encodes to the
/// same bytes.
fn assert_rebuilt(table: Table) {
    let want = rebuilt(&table);
    let bytes = Response::Rows { table }.encode();
    let Response::Rows { table: got } = Response::decode(&bytes).unwrap() else {
        panic!("wrong variant")
    };
    assert_eq!((got.schema(), got.num_rows()), (want.schema(), want.num_rows()));
    assert_eq!(got.approx_bytes(), want.approx_bytes());
    for (got, want) in got.columns().iter().zip(want.columns()) {
        assert_eq!(contents(got), contents(want));
    }
    assert_eq!(Response::Rows { table: got }.encode(), bytes);
}

/// A seeded table: up to five columns of every type, up to 40 rows, its
/// strings drawn from a small pool, so dictionaries repeat entries.
fn random_table(seed: u64) -> Table {
    const POOL: [&str; 6] = ["", "hanoi", "delhi", "lima", "são paulo", "x"];
    const TYPES: [DataType; 5] =
        [DataType::Int64, DataType::Float64, DataType::Str, DataType::Bool, DataType::Timestamp];
    let head = common::noise(seed, 6);
    let types: Vec<DataType> =
        head[1..=(head[0] % 6) as usize].iter().map(|&b| TYPES[b as usize % 5]).collect();
    let names: Vec<String> = (0..types.len()).map(|c| format!("c{c}")).collect();
    let fields: Vec<(&str, DataType)> = names.iter().map(String::as_str).zip(types).collect();
    let mut b = TableBuilder::new(&fields);
    let rows = (seed % 41) as usize;
    let noise = common::noise(seed ^ 0xC0FF_EE00, 8 * rows * fields.len().max(1));
    let mut bytes = noise.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()));
    for _ in 0..rows {
        let row = fields.iter().map(|&(_, dtype)| {
            let x = bytes.next().unwrap();
            match dtype {
                DataType::Int64 => Value::Int64(x as i64),
                DataType::Float64 => Value::Float64(f64::from_bits(x)),
                DataType::Str => Value::str(POOL[(x % POOL.len() as u64) as usize]),
                DataType::Bool => Value::Bool(x % 2 == 1),
                DataType::Timestamp => Value::Timestamp(x as i64 >> 20),
            }
        });
        b.push_row(&row.collect::<Vec<_>>()).unwrap();
    }
    b.finish()
}

/// `table` with each string column's dictionary re-ordered (reversed) and
/// padded with entries no row uses: the same rows, stored in a form the
/// encoder has to recode.
fn scrambled(table: &Table) -> Table {
    let columns = table.columns().iter().map(|column| match column {
        Column::Str { codes, dict } => {
            let mut odd = Dictionary::new();
            odd.intern("never used");
            let strings: Vec<&str> = dict.iter().map(|(_, s)| s).collect();
            for s in strings.iter().rev() {
                odd.intern(s);
            }
            odd.intern("nor this");
            let codes = codes.iter().map(|&c| odd.code_of(strings[c as usize]).unwrap()).collect();
            Column::Str { codes, dict: odd }
        }
        other => other.clone(),
    });
    Table::try_from_columns(table.schema().clone(), columns.collect(), table.num_rows()).unwrap()
}

#[test]
fn a_decoded_table_is_the_row_by_row_rebuild() {
    for seed in 0..300 {
        let table = random_table(seed);
        assert_rebuilt(scrambled(&table));
        assert_rebuilt(table);
    }
    // Empty tables, with and without columns, and a table of no columns
    // but many rows.
    assert_rebuilt(TableBuilder::new(&[("s", DataType::Str), ("b", DataType::Bool)]).finish());
    assert_rebuilt(TableBuilder::new(&[]).finish());
    let mut b = TableBuilder::new(&[]);
    (0..1_000).for_each(|_| b.push_row(&[]).unwrap());
    assert_rebuilt(b.finish());
    // A string column whose every entry is unused, over no rows.
    let mut dict = Dictionary::new();
    dict.intern("ghost");
    let ghost = Column::Str { codes: vec![], dict };
    let schema = Schema::new(&[("s", DataType::Str)]);
    assert_rebuilt(Table::try_from_columns(schema, vec![ghost], 0).unwrap());
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
