//! The codec's own tests: every message round-trips, and malformed
//! payloads are refused with the error that names them.

use super::*;
use cvopt_table::TableBuilder;

fn register(table: Table) -> Request<'static> {
    Request::Register { key: "k".into(), table: Cow::Owned(table) }
}

fn sample_table() -> Table {
    let mut b = TableBuilder::new(&[
        ("city", DataType::Str),
        ("value", DataType::Float64),
        ("ts", DataType::Timestamp),
        ("flag", DataType::Bool),
        ("n", DataType::Int64),
    ]);
    b.push_row(&[
        Value::str("hanoi"),
        Value::Float64(1.5),
        Value::Timestamp(1_500_000_000),
        Value::Bool(true),
        Value::Int64(7),
    ])
    .unwrap();
    b.push_row(&[
        Value::str("delhi"),
        Value::Float64(-0.0),
        Value::Timestamp(1_500_000_999),
        Value::Bool(false),
        Value::Int64(-3),
    ])
    .unwrap();
    b.finish()
}

// The encoding is canonical (no padding, no optional layouts), so
// decode followed by re-encode reproducing the input bytes proves the
// round trip lost nothing.
fn round_trip_request(req: Request) {
    let bytes = req.encode();
    let decoded = Request::decode(&bytes).unwrap();
    assert_eq!(decoded.encode(), bytes);
}

fn round_trip_response(resp: Response) {
    let bytes = resp.encode();
    let decoded = Response::decode(&bytes).unwrap();
    assert_eq!(decoded.encode(), bytes);
}

#[test]
fn requests_round_trip() {
    round_trip_request(register(sample_table()));
    round_trip_request(Request::Health);
    let strata = vec![ScalarExpr::col("city"), ScalarExpr::year("ts"), ScalarExpr::month("ts")];
    round_trip_request(Request::Walk {
        key: "t/0".into(),
        first_row: 65_536,
        total_rows: 200_000,
        exprs: strata.clone(),
        fold: Fold::Stats {
            columns: vec![ScalarExpr::col("value"), ScalarExpr::indicator("value", CmpOp::Gt, 1.0)],
        },
    });
    round_trip_request(Request::Walk {
        key: "t/0".into(),
        first_row: 0,
        total_rows: 0,
        exprs: Vec::new(),
        fold: Fold::Exact {
            predicate: Some(
                Predicate::cmp("city", CmpOp::Eq, Value::str("hanoi"))
                    .and(Predicate::between(ScalarExpr::col("value"), 0.0, 2.0))
                    .or(Predicate::True.not()),
            ),
            aggregates: vec![
                AggExpr::count(),
                AggExpr::avg("value"),
                AggExpr::count_if("value", CmpOp::Ge, -0.0),
            ],
        },
    });
    round_trip_request(Request::Pick {
        key: "t/0".into(),
        exprs: strata,
        picks: vec![Pick { key: 3, ordinals: vec![0, 7, 9] }, Pick { key: 0, ordinals: vec![] }],
    });
    // Computed expressions: arithmetic trees, literals, and CASE (with
    // and without an ELSE arm) must survive the wire unchanged.
    let arith = ScalarExpr::binary(
        ArithOp::Add,
        ScalarExpr::binary(ArithOp::Mul, ScalarExpr::col("value"), ScalarExpr::lit(2.5)),
        ScalarExpr::binary(ArithOp::Div, ScalarExpr::col("value"), ScalarExpr::lit(-3.0)),
    );
    let case_with_else = ScalarExpr::Case {
        whens: vec![CaseWhen {
            lhs: arith.clone(),
            op: CmpOp::Gt,
            rhs: ScalarExpr::lit(1.0),
            then: ScalarExpr::col("value"),
        }],
        otherwise: Some(Box::new(ScalarExpr::lit(0.0))),
    };
    let case_no_else = ScalarExpr::Case {
        whens: vec![CaseWhen {
            lhs: ScalarExpr::col("value"),
            op: CmpOp::Le,
            rhs: ScalarExpr::lit(7.0),
            then: case_with_else.clone(),
        }],
        otherwise: None,
    };
    round_trip_request(Request::Walk {
        key: "t/0".into(),
        first_row: 1,
        total_rows: 2,
        exprs: vec![arith.clone(), case_with_else.clone()],
        fold: Fold::Exact {
            predicate: None,
            aggregates: vec![AggExpr::over(AggKind::Sum, case_no_else)],
        },
    });
    round_trip_request(Request::Gather { key: "t/0".into(), rows: vec![1, 0, 1] });
    round_trip_request(Request::Gather { key: "t/0".into(), rows: vec![] });
}

#[test]
fn retired_tags_are_invalid_not_misparsed() {
    // Request tags 3 (histogram), 4 (scatter window), 5 (bitmap), 6
    // (value columns) and 7 (draw), response tags 3 (histogram), 4
    // (window) and 5 (bitmap), and 9 (append) and 10 (rotate) on both
    // sides were deleted without renumbering the survivors.
    for tag in [3u8, 4, 5, 6, 7, 9, 10] {
        let err = Request::decode(&[tag]).unwrap_err();
        assert!(err.to_string().contains("invalid request tag"), "{err}");
    }
    for tag in [3u8, 4, 5, 9, 10] {
        let err = Response::decode(&[tag]).unwrap_err();
        assert!(err.to_string().contains("invalid response tag"), "{err}");
    }
}

#[test]
fn responses_round_trip() {
    round_trip_response(Response::Registered { rows: 42 });
    round_trip_response(Response::Health { keys: vec!["a/0".into(), "b/1".into()] });
    round_trip_response(Response::Walked {
        walked: Walked {
            keys: vec![
                vec![KeyAtom::from("hanoi"), KeyAtom::Int(2017)],
                vec![KeyAtom::from(""), KeyAtom::Int(-1)],
            ],
            sizes: vec![65_536, 3],
            partitions: Partitions::Stats(vec![WalkedPartition {
                start: 65_536,
                slots: vec![1, 0],
                states: vec![
                    AggState { count: 2, sum: 3.0, mean: 1.5, m2: 0.5, min: 1.0, max: 2.0 },
                    AggState::default(),
                ],
            }]),
        },
    });
    round_trip_response(Response::Walked {
        walked: Walked {
            keys: vec![vec![KeyAtom::Int(7)], vec![KeyAtom::Int(-1)]],
            sizes: vec![131_072, 4],
            partitions: Partitions::Exact(vec![
                WalkedPartition {
                    start: 65_536,
                    slots: vec![0, 1],
                    states: vec![
                        CellColumn::Count(vec![CountCell { count: 3 }, CountCell::default()]),
                        CellColumn::Sum(vec![SumCell { count: 1, sum: -0.0 }; 2]),
                        CellColumn::Min(vec![MinCell { count: 2, min: -1.5 }; 2]),
                        CellColumn::Max(vec![MaxCell::default(); 2]),
                        CellColumn::Avg(vec![MeanCell { count: 4, mean: 0.25 }; 2]),
                        CellColumn::Moments(vec![AggState::default(); 2]),
                    ],
                },
                WalkedPartition { start: 131_072, slots: vec![1], states: Vec::new() },
            ]),
        },
    });
    for partitions in [Partitions::Stats(Vec::new()), Partitions::Exact(Vec::new())] {
        let walked = Walked { keys: Vec::new(), sizes: Vec::new(), partitions };
        round_trip_response(Response::Walked { walked });
    }
    round_trip_response(Response::Picked {
        picked: Picked { table: sample_table(), rows: vec![9, 4] },
    });
    round_trip_response(Response::Partials {
        columns: vec![
            None,
            Some(ColumnValues::Dense(vec![1.0, f64::NAN.copysign(-1.0), 3.5])),
            Some(ColumnValues::Sparse(vec![Some(1.0), None, Some(-0.0)])),
        ],
    });
    round_trip_response(Response::Rows { table: sample_table() });
    round_trip_response(Response::Error { message: "no such key".into() });
}

/// A `COUNT_IF` without its condition — or any other aggregate with
/// one — would panic the fold, so it never decodes; nor does a partial
/// claiming more states than bytes are left.
#[test]
fn forged_plan_frames_are_rejected() {
    let walk = |agg: AggExpr| {
        let fold = Fold::Exact { predicate: None, aggregates: vec![agg] };
        Request::Walk { key: "k".into(), first_row: 0, total_rows: 1, exprs: vec![], fold }
    };
    let count_if = AggExpr::count_if("value", CmpOp::Gt, 1.0);
    assert!(Request::decode(&walk(count_if.clone()).encode()).is_ok());
    for agg in [
        AggExpr { condition: None, ..count_if.clone() },
        AggExpr { kind: AggKind::Sum, ..count_if },
    ] {
        let err = Request::decode(&walk(agg).encode()).unwrap_err();
        assert!(err.to_string().contains("aggregate with condition"), "{err}");
    }

    let mut w = Writer::new();
    w.u8(11);
    w.len(0); // no keys
    w.len(1); // one partition
    w.u64(0);
    w.len(0); // no slots
    w.len(1_000); // but a thousand states
    put_state(&mut w, &AggState::default());
    let err = Response::decode(&w.finish()).unwrap_err();
    assert!(err.to_string().contains("exceeds remaining"), "{err}");

    // Nor a column of cells claiming more than the bytes left, nor a
    // cell kind the protocol does not have.
    for (kind, what) in [(1, "exceeds remaining"), (6, "invalid cell kind tag 6")] {
        let mut w = Writer::new();
        w.u8(13);
        w.len(0); // no keys
        w.len(1); // one partition
        w.u64(0);
        w.len(0); // no slots
        w.len(1); // one column
        w.u8(kind);
        w.len(1_000);
        w.u64(0);
        let err = Response::decode(&w.finish()).unwrap_err();
        assert!(err.to_string().contains(what), "{err}");
    }
}

#[test]
fn decoded_table_is_byte_identical() {
    // The decoded table must hold the original column bytes, not just
    // equal values.
    let table = sample_table();
    let bytes = register(table.clone()).encode();
    let Request::Register { table: decoded, .. } = Request::decode(&bytes).unwrap() else {
        panic!("wrong variant");
    };
    assert_eq!(decoded.num_rows(), table.num_rows());
    for row in 0..table.num_rows() {
        assert_eq!(format!("{:?}", decoded.row(row)), format!("{:?}", table.row(row)));
    }
    // Re-encoding the decoded table yields the same bytes.
    let again = register(decoded.into_owned()).encode();
    assert_eq!(again, bytes);
}

/// A `Register` frame whose schema repeats a name is refused: the
/// second column could never be read.
#[test]
fn repeated_column_name_is_rejected() {
    let mut b = TableBuilder::new(&[("x", DataType::Float64), ("x", DataType::Str)]);
    b.push_row(&[Value::Float64(1.0), Value::str("a")]).unwrap();
    let bytes = register(b.finish()).encode();
    let err = Request::decode(&bytes).unwrap_err();
    assert!(err.to_string().contains("schema repeats column \"x\""), "{err}");
}

#[test]
fn nan_bits_survive() {
    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    let state = AggState { count: 1, sum: nan, mean: -0.0, m2: nan, min: nan, max: nan };
    let partition = WalkedPartition { start: 0, slots: vec![0], states: vec![state] };
    let partitions = Partitions::Stats(vec![partition]);
    let walked = Walked { keys: vec![vec![]], sizes: vec![1], partitions };
    let payload = Response::Walked { walked }.encode();
    let Response::Walked { walked } = Response::decode(&payload).unwrap() else {
        panic!("wrong variant");
    };
    let Partitions::Stats(partitions) = &walked.partitions else { panic!("moments") };
    let got = partitions[0].states[0];
    assert_eq!((got.sum.to_bits(), got.mean.to_bits()), (nan.to_bits(), (-0.0f64).to_bits()));
}

#[test]
fn truncated_payload_is_an_error_not_a_panic() {
    let bytes = register(sample_table()).encode();
    for cut in 0..bytes.len() {
        assert!(Request::decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = Request::encode(&Request::Health);
    bytes.push(0);
    assert!(Request::decode(&bytes).is_err());
}

#[test]
fn hostile_length_prefix_is_rejected() {
    // Tag 2 (health keys) followed by an absurd length must fail fast.
    let mut w = Writer::new();
    w.u8(2);
    w.u64(u64::MAX);
    assert!(Response::decode(&w.finish()).is_err());
}

#[test]
fn length_claims_are_bounded_by_remaining_bytes() {
    // A health response claiming 5 keys with zero bytes left must be
    // rejected by the length guard itself (the claim fits the *total*
    // payload size, so only a remaining-bytes bound catches it before
    // any allocation or element decode).
    let mut w = Writer::new();
    w.u8(2);
    w.u64(5);
    let err = Response::decode(&w.finish()).unwrap_err();
    assert!(err.0.contains("exceeds remaining"), "got {err}");
}

#[test]
fn deep_predicate_nesting_is_rejected() {
    let mut w = Writer::new();
    for _ in 0..(MAX_DEPTH + 2) {
        w.u8(6); // Not(
    }
    w.u8(0); // True
             // A walk whose exact fold filters by the nested predicate.
    let mut head = Writer::new();
    head.u8(11);
    head.str("k");
    head.u64(0);
    head.u64(1);
    head.len(0);
    head.u8(1);
    head.u8(1);
    let mut payload = head.finish();
    payload.extend_from_slice(&w.finish());
    payload.extend_from_slice(&0u64.to_le_bytes()); // no aggregates
    let err = Request::decode(&payload).unwrap_err();
    assert!(err.to_string().contains("predicate nests too deeply"), "{err}");
}

/// A `Rows` payload of one column `c` of `dtype` and `rows` rows, whose
/// run `run` writes.
fn one_column(dtype: DataType, rows: u64, run: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(7);
    put_schema(&mut w, &Schema::new(&[("c", dtype)]));
    w.u64(rows);
    run(&mut w);
    w.finish()
}

/// A string column's run: its dictionary, then its codes.
fn strings(dict: &[&str], codes: &[u32]) -> Vec<u8> {
    one_column(DataType::Str, codes.len() as u64, |w| {
        w.len(dict.len());
        dict.iter().for_each(|s| w.str(s));
        codes.iter().for_each(|&c| w.u32(c));
    })
}

fn refused(payload: &[u8], why: &str) {
    let err = Response::decode(payload).unwrap_err();
    assert!(err.0.contains(why), "wanted {why:?}, got {err}");
}

#[test]
fn a_dictionary_in_any_but_first_occurrence_order_is_refused() {
    assert!(Response::decode(&strings(&["a", "b"], &[0, 1, 0])).is_ok());
    refused(&strings(&["a", "b"], &[0, 2, 1]), "code 2 is past a dictionary of 2 entries");
    refused(&strings(&["a", "b"], &[1, 0]), "code 1 skips unused dictionary entry 0");
    refused(&strings(&["a", "a"], &[0, 1]), "dictionary repeats \"a\"");
    refused(&strings(&["a", "b", "c"], &[0, 1, 1]), "dictionary entry 2 is used by no row");
}

#[test]
fn hostile_column_runs_are_refused() {
    // Three rows claimed, two values sent.
    let short = one_column(DataType::Int64, 3, |w| [1, 2].into_iter().for_each(|v| w.i64(v)));
    refused(&short, "a run of 3 × 8 bytes exceeds remaining payload of 16 bytes");
    refused(&one_column(DataType::Bool, 2, |w| w.buf.extend([1, 2])), "invalid bool byte 2");
    // More rows than any row id names, and runs whose byte length
    // overflows: each refused before anything is reserved.
    refused(&one_column(DataType::Float64, 1 << 32, |_| ()), "a table of 4294967296 rows");
    let mut gather = Writer::new();
    gather.u8(8);
    gather.str("k");
    gather.u64(u64::MAX / 2);
    let err = Request::decode(&gather.finish()).unwrap_err();
    assert!(err.0.contains("exceeds remaining payload"), "{err}");
    let mut dense = Writer::new();
    dense.u8(6);
    dense.len(1);
    dense.u8(1);
    dense.u8(0);
    dense.u64(u64::MAX / 8 + 1);
    refused(&dense.finish(), "exceeds remaining payload");
    // A body cut halfway through its last column.
    let whole = Response::Rows { table: sample_table() }.encode();
    refused(&whole[..whole.len() - 12], "a run of 2 × 8 bytes exceeds remaining payload");
}

/// A column whose own dictionary is out of order, or holds entries no
/// row uses, is sent as the column a row-by-row build gives.
#[test]
fn the_encoder_sends_a_dictionary_in_first_occurrence_order() {
    let mut dict = Dictionary::new();
    for s in ["unused", "y", "x"] {
        dict.intern(s);
    }
    let column = Column::Str { codes: vec![2, 1, 2], dict };
    let schema = Schema::new(&[("c", DataType::Str)]);
    let table = Table::try_from_columns(schema, vec![column], 3).unwrap();
    let bytes = Response::Rows { table }.encode();
    assert_eq!(bytes, strings(&["x", "y"], &[0, 1, 0]));
}

/// Reads hand out at most 3 bytes, so every primitive and run crosses
/// refills.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.0.len()).min(3);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

#[test]
fn a_stream_decodes_one_payload_and_stops_at_its_end() {
    let first = register(sample_table()).encode();
    let second = Request::Health.encode();
    let stream = [first.as_slice(), &second].concat();
    let mut src = Trickle(&stream);
    let got = Request::decode_from(&mut src, first.len()).unwrap().unwrap();
    assert_eq!(got.encode(), first);
    assert_eq!(src.0, second.as_slice(), "read past the payload");
    assert!(matches!(Request::decode_from(&mut src, 1).unwrap(), Ok(Request::Health)));
}

/// A source that ends early is the stream's failure; a payload that
/// ends early is the payload's.
#[test]
fn a_source_that_ends_early_is_an_io_error() {
    let bytes = register(sample_table()).encode();
    let cut = &bytes[..bytes.len() - 5];
    let err = Request::decode_from(&mut Trickle(cut), bytes.len()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(Request::decode_from(&mut Trickle(cut), cut.len()).unwrap().is_err());
}

/// A payload longer than the window decodes the same through a
/// trickle as from a slice.
#[test]
fn runs_and_strings_longer_than_the_window_cross_refills() {
    let mut b = TableBuilder::new(&[("s", DataType::Str), ("v", DataType::Float64)]);
    let long = "é".repeat(WINDOW);
    for i in 0..20_000 {
        let s = if i == 7 { long.clone() } else { format!("s{}", i % 300) };
        b.push_row(&[Value::str(s), Value::Float64(i as f64 * 0.25)]).unwrap();
    }
    let bytes = Response::Rows { table: b.finish() }.encode();
    assert!(bytes.len() > 3 * WINDOW);
    let streamed = Response::decode_from(&mut Trickle(&bytes), bytes.len()).unwrap().unwrap();
    assert_eq!(streamed.encode(), bytes);
}
