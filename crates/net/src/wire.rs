//! Binary payload encoding for the shard protocol.
//!
//! Every payload is a tagged union over fixed-width little-endian
//! primitives. Strings are a length followed by UTF-8 bytes; floats travel
//! as `f64::to_bits`, so NaN payloads and signed zeros round-trip exactly,
//! and an [`AggState`] travels as its count plus its five floats' bits.
//!
//! A walk's partitions travel in the one form its fold left them, named
//! once by the response tag. A statistics fold's walk is answered under tag
//! 11, each partition's states a counted list of `AggState`s. An exact
//! fold's is answered under tag 13, each partition's states a counted list
//! of columns, one per aggregate: a kind tag (0 `COUNT`, 1 `SUM`/`COUNT_IF`,
//! 2 `MIN`, 3 `MAX`, 4 `AVG`, 5 `VAR`/`STD`) and a counted run of its
//! narrow cells, each the cell's count followed by the bits of the one
//! float its kind keeps (a `COUNT` cell is its count alone, a `VAR`/`STD`
//! cell a whole `AggState`).
//!
//! Tables travel column-major: the schema, the row count `n`, then one run
//! per column — `n` `i64`s for `Int64` and `Timestamp`, `n` `f64` bit
//! patterns for `Float64`, `n` bytes of 0 or 1 for `Bool`, and for `Str`
//! the dictionary (a count, then its strings) followed by `n` `u32` codes.
//! A string column's dictionary travels in first-occurrence order of its
//! codes with no unused entry: the encoder recodes a column that is not in
//! that form, and the decoder refuses any other. So a received table is the
//! one a row-by-row build of its rows gives, byte for byte, and a decoded
//! payload re-encodes to the same bytes.
//!
//! A [`Reader`] pulls a payload of declared length from any [`Read`]
//! through a window of at most 64 KiB, and decodes fixed-width
//! runs (table columns, row lists, dense value columns) a window at a time,
//! so a shard server decodes a frame as it arrives. Every count is checked
//! against the payload's remaining bytes before anything is reserved for
//! it, and no reservation exceeds those bytes: never more than a buffer
//! holding the whole frame would take.
//!
//! Tag assignments are part of the protocol and must never be renumbered;
//! new variants get new tags:
//!
//! | tag | request          | response     |
//! |-----|------------------|--------------|
//! | 1   | `Register`       | `Registered` |
//! | 2   | `Health`         | `Health`     |
//! | 3   | retired          | retired      |
//! | 4   | retired          | retired      |
//! | 5   | retired          | retired      |
//! | 6   | retired          | `Partials`   |
//! | 7   | retired          | `Rows`       |
//! | 8   | `Gather`         | `Error`      |
//! | 9   | retired          | retired      |
//! | 10  | retired          | retired      |
//! | 11  | `Walk`           | `Walked`     |
//! | 12  | `Pick`           | `Picked`     |
//! | 13  | —                | `Walked`     |
//!
//! Retired: request 3 (histogram) and 7 (draw); request 4, 5 and 6 and
//! response 4 and 5 — the per-row scatter window, predicate bitmap and
//! value columns the plan-level `Walk` and `Pick` replaced; response 3
//! (histogram); and 9 and 10 on both sides, the server-side append and
//! rotation. `Register` — an idempotent replace — is the one request that
//! changes a server's state; every other is a read. `Gather` serves the
//! fragments of a partition that straddles a shard boundary. `Partials` is
//! sent by no pass; it stays for the codec throughput probe.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

use cvopt_table::agg::{
    AggState, CellColumn, CountCell, ExactCells, MaxCell, MeanCell, MinCell, SumCell,
};
use cvopt_table::dict::check_first_occurrence;
use cvopt_table::reader::{Fold, Partitions, Pick, Picked, Walked, WalkedPartition};
use cvopt_table::{
    AggExpr, AggKind, ArithOp, CaseWhen, CmpOp, Column, ColumnValues, DataType, Dictionary, Field,
    KeyAtom, Predicate, ScalarExpr, Schema, Table, Value,
};

/// Decoding failed: the payload is truncated, mis-tagged, or inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl DecodeError {
    fn new(msg: impl Into<String>) -> Self {
        DecodeError(msg.into())
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

/// Nested expressions and predicates deeper than this are rejected while
/// decoding, so a corrupt frame cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// The most payload bytes a [`Reader`] holds at once.
const WINDOW: usize = 64 * 1024;

/// Decode `n` elements with `f`. `n` has passed the remaining-bytes guard,
/// but most elements are wider than a byte, so the up-front reservation is
/// capped at what the payload's remaining bytes could hold; beyond it the
/// vector grows as elements actually decode.
fn get_vec<'a, T>(
    r: &mut Reader<'a>,
    n: usize,
    mut f: impl FnMut(&mut Reader<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(n.min(r.left() / std::mem::size_of::<T>().max(1)));
    for _ in 0..n {
        out.push(f(r)?);
    }
    Ok(out)
}

/// Append-only payload writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start an empty payload.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A run of fixed-width values, without its count.
    fn run<T: Copy, const W: usize>(&mut self, values: &[T], encode: impl Fn(T) -> [u8; W]) {
        self.buf.reserve(values.len() * W);
        for &v in values {
            self.buf.extend_from_slice(&encode(v));
        }
    }
}

/// Cursor over a payload of declared length, pulled from a [`Read`]
/// through a window of at most 64 KiB. It never reads past the
/// declared length, so the source is left at whatever follows the payload.
pub struct Reader<'a> {
    src: &'a mut dyn Read,
    window: Vec<u8>,
    /// The pulled, unconsumed bytes are `window[pos..end]`.
    pos: usize,
    end: usize,
    /// Payload bytes not yet pulled from `src`.
    unread: usize,
    /// The source failed, so the payload was not read whole.
    failed: Option<io::Error>,
}

impl<'a> Reader<'a> {
    /// Read a payload of `len` bytes from `src`.
    pub fn new(src: &'a mut dyn Read, len: usize) -> Self {
        let window = vec![0; len.min(WINDOW)];
        Reader { src, window, pos: 0, end: 0, unread: len, failed: None }
    }

    /// Payload bytes not yet consumed.
    fn left(&self) -> usize {
        self.end - self.pos + self.unread
    }

    /// Error unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<()> {
        match self.left() {
            0 => Ok(()),
            n => Err(DecodeError::new(format!("{n} trailing bytes after payload"))),
        }
    }

    /// What `decoded` came to, once the whole payload is consumed — unless
    /// the source failed under it, which is the error then.
    fn finish<T>(mut self, decoded: Result<T>) -> io::Result<Result<T>> {
        match self.failed.take() {
            Some(e) => Err(e),
            None => Ok(decoded.and_then(|value| self.expect_end().map(|()| value))),
        }
    }

    /// Have at least `want` unconsumed bytes in the window, pulling as many
    /// as fit. `want` is at most a primitive's width, and the window holds
    /// [`WINDOW`] bytes or the whole payload, so a payload with `want`
    /// bytes left always has room for them.
    fn fill(&mut self, want: usize) -> Result<()> {
        if self.end - self.pos >= want {
            return Ok(());
        }
        if self.left() < want {
            let left = self.left();
            return Err(DecodeError::new(format!(
                "payload truncated: wanted {want} bytes, {left} left"
            )));
        }
        self.window.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < want {
            let stop = self.window.len().min(self.end + self.unread);
            match self.src.read(&mut self.window[self.end..stop]) {
                Ok(0) => return Err(self.fail(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => {
                    self.end += n;
                    self.unread -= n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.fail(e)),
            }
        }
        Ok(())
    }

    fn fail(&mut self, e: io::Error) -> DecodeError {
        let err = DecodeError::new(format!("payload read failed: {e}"));
        self.failed = Some(e);
        err
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.fill(N)?;
        let out = self.window[self.pos..self.pos + N].try_into().expect("N bytes");
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::new(format!("invalid bool byte {t}"))),
        }
    }

    fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        // A length can never exceed what is physically left in the payload
        // (every element is at least one byte), so reject it before any
        // allocation sized by it.
        if n > self.left() as u64 {
            return Err(DecodeError::new(format!(
                "length {n} exceeds remaining payload of {} bytes",
                self.left()
            )));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<String> {
        let n = self.len()?;
        let mut raw = Vec::with_capacity(n);
        self.chunks(n, 1, |chunk| raw.extend_from_slice(chunk))?;
        String::from_utf8(raw).map_err(|_| DecodeError::new("string field is not valid UTF-8"))
    }

    /// The bytes of a run of `n` values `width` wide, if the payload has
    /// them left — checked before any of them is read or reserved for.
    fn run_bytes(&self, n: u64, width: usize) -> Result<usize> {
        let bytes = usize::try_from(n).ok().and_then(|n| n.checked_mul(width));
        bytes.filter(|&bytes| bytes <= self.left()).ok_or_else(|| {
            DecodeError::new(format!(
                "a run of {n} × {width} bytes exceeds remaining payload of {} bytes",
                self.left()
            ))
        })
    }

    /// Hand `f` the next `bytes` bytes (a checked run of `width`-byte
    /// values) a window at a time, each chunk whole values.
    fn chunks(&mut self, mut bytes: usize, width: usize, mut f: impl FnMut(&[u8])) -> Result<()> {
        while bytes > 0 {
            self.fill(width)?;
            let ready = (self.end - self.pos).min(bytes);
            let take = ready - ready % width;
            f(&self.window[self.pos..self.pos + take]);
            self.pos += take;
            bytes -= take;
        }
        Ok(())
    }

    /// A run of `n` fixed-width values, decoded a window at a time into a
    /// vector of exactly `n`.
    fn run<T, const W: usize>(&mut self, n: u64, decode: impl Fn([u8; W]) -> T) -> Result<Vec<T>> {
        let bytes = self.run_bytes(n, W)?;
        let mut out = Vec::with_capacity(bytes / W);
        self.chunks(bytes, W, |chunk| {
            out.extend(chunk.chunks_exact(W).map(|v| decode(v.try_into().expect("W bytes"))));
        })?;
        Ok(out)
    }

    /// A counted run of fixed-width values.
    fn counted_run<T, const W: usize>(&mut self, decode: impl Fn([u8; W]) -> T) -> Result<Vec<T>> {
        let n = self.u64()?;
        self.run(n, decode)
    }
}

/// Decode a payload of `len` bytes from `src` with `get`. The outer error
/// is the source's: the payload was not read whole, so the stream has lost
/// its place. The inner one is the payload's.
fn decode_stream<T>(
    src: &mut dyn Read,
    len: usize,
    get: impl FnOnce(&mut Reader) -> Result<T>,
) -> io::Result<Result<T>> {
    let mut r = Reader::new(src, len);
    let decoded = get(&mut r);
    r.finish(decoded)
}

/// Decode a payload held whole in memory with `get`.
fn decode_slice<T>(payload: &[u8], get: impl FnOnce(&mut Reader) -> Result<T>) -> Result<T> {
    let mut src = payload;
    decode_stream(&mut src, payload.len(), get)
        .unwrap_or_else(|e| Err(DecodeError::new(format!("payload read failed: {e}"))))
}

// ---------------------------------------------------------------------------
// Leaf encoders
// ---------------------------------------------------------------------------

fn put_data_type(w: &mut Writer, dt: DataType) {
    w.u8(match dt {
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Str => 3,
        DataType::Bool => 4,
        DataType::Timestamp => 5,
    });
}

fn get_data_type(r: &mut Reader) -> Result<DataType> {
    match r.u8()? {
        1 => Ok(DataType::Int64),
        2 => Ok(DataType::Float64),
        3 => Ok(DataType::Str),
        4 => Ok(DataType::Bool),
        5 => Ok(DataType::Timestamp),
        t => Err(DecodeError::new(format!("invalid data type tag {t}"))),
    }
}

fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Int64(x) => {
            w.u8(1);
            w.i64(*x);
        }
        Value::Float64(x) => {
            w.u8(2);
            w.f64(*x);
        }
        Value::Str(s) => {
            w.u8(3);
            w.str(s);
        }
        Value::Bool(b) => {
            w.u8(4);
            w.bool(*b);
        }
        Value::Timestamp(x) => {
            w.u8(5);
            w.i64(*x);
        }
    }
}

fn get_value(r: &mut Reader) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int64(r.i64()?)),
        2 => Ok(Value::Float64(r.f64()?)),
        3 => Ok(Value::Str(Arc::from(r.str()?.as_str()))),
        4 => Ok(Value::Bool(r.bool()?)),
        5 => Ok(Value::Timestamp(r.i64()?)),
        t => Err(DecodeError::new(format!("invalid value tag {t}"))),
    }
}

fn put_schema(w: &mut Writer, schema: &Schema) {
    w.len(schema.len());
    for field in schema.fields() {
        w.str(&field.name);
        put_data_type(w, field.dtype);
    }
}

fn get_schema(r: &mut Reader) -> Result<Schema> {
    let n = r.len()?;
    let fields = get_vec(r, n, |r| {
        let name = r.str()?;
        let dtype = get_data_type(r)?;
        Ok(Field::new(name, dtype))
    })?;
    let schema = Schema::from_fields(fields);
    if let Some(name) = schema.repeated_name() {
        return Err(DecodeError::new(format!("schema repeats column {name:?}")));
    }
    Ok(schema)
}

fn put_table(w: &mut Writer, table: &Table) {
    put_schema(w, table.schema());
    w.len(table.num_rows());
    for column in table.columns() {
        match &*column.canonical() {
            Column::Int64(v) | Column::Timestamp(v) => w.run(v, i64::to_le_bytes),
            Column::Float64(v) => w.run(v, |x: f64| x.to_bits().to_le_bytes()),
            Column::Bool(v) => w.run(v, |b: bool| [b as u8]),
            Column::Str { codes, dict } => {
                w.len(dict.len());
                for (_, s) in dict.iter() {
                    w.str(s);
                }
                w.run(codes, u32::to_le_bytes);
            }
        }
    }
}

fn get_table(r: &mut Reader) -> Result<Table> {
    let schema = get_schema(r)?;
    // Rows are named by `u32` ids in every pass, so no table holds more.
    let rows = r.u64()?;
    if rows > u64::from(u32::MAX) {
        return Err(DecodeError::new(format!("a table of {rows} rows")));
    }
    let columns = schema.fields().iter().map(|field| get_column(r, field, rows));
    let columns = columns.collect::<Result<Vec<_>>>()?;
    Table::try_from_columns(schema, columns, rows as usize)
        .map_err(|e| DecodeError::new(format!("table rejected: {e}")))
}

/// One column's run of `rows` values, each column filled in one typed pass.
fn get_column(r: &mut Reader, field: &Field, rows: u64) -> Result<Column> {
    let invalid = |what: String| DecodeError::new(format!("column {:?}: {what}", field.name));
    Ok(match field.dtype {
        DataType::Int64 => Column::Int64(r.run(rows, i64::from_le_bytes)?),
        DataType::Timestamp => Column::Timestamp(r.run(rows, i64::from_le_bytes)?),
        DataType::Float64 => {
            Column::Float64(r.run(rows, |v| f64::from_bits(u64::from_le_bytes(v)))?)
        }
        DataType::Bool => {
            let bytes = r.run(rows, |[b]: [u8; 1]| b)?;
            if let Some(b) = bytes.iter().find(|&&b| b > 1) {
                return Err(invalid(format!("invalid bool byte {b}")));
            }
            Column::Bool(bytes.into_iter().map(|b| b == 1).collect())
        }
        DataType::Str => {
            let entries = r.len()?;
            let mut dict = Dictionary::new();
            for entry in 0..entries {
                let s = r.str()?;
                if dict.intern(&s) as usize != entry {
                    return Err(invalid(format!("dictionary repeats {s:?}")));
                }
            }
            let codes = r.run(rows, u32::from_le_bytes)?;
            check_first_occurrence(&codes, entries).map_err(|e| invalid(e.to_string()))?;
            Column::Str { codes, dict }
        }
    })
}
fn put_cmp_op(w: &mut Writer, op: CmpOp) {
    w.u8(match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    });
}

fn get_cmp_op(r: &mut Reader) -> Result<CmpOp> {
    match r.u8()? {
        0 => Ok(CmpOp::Eq),
        1 => Ok(CmpOp::Ne),
        2 => Ok(CmpOp::Lt),
        3 => Ok(CmpOp::Le),
        4 => Ok(CmpOp::Gt),
        5 => Ok(CmpOp::Ge),
        t => Err(DecodeError::new(format!("invalid comparison tag {t}"))),
    }
}

fn put_expr(w: &mut Writer, expr: &ScalarExpr) {
    match expr {
        ScalarExpr::Column(name) => {
            w.u8(0);
            w.str(name);
        }
        ScalarExpr::Year(inner) => {
            w.u8(1);
            put_expr(w, inner);
        }
        ScalarExpr::Month(inner) => {
            w.u8(2);
            put_expr(w, inner);
        }
        ScalarExpr::Day(inner) => {
            w.u8(3);
            put_expr(w, inner);
        }
        ScalarExpr::Hour(inner) => {
            w.u8(4);
            put_expr(w, inner);
        }
        ScalarExpr::Indicator { input, op, threshold_bits } => {
            w.u8(5);
            put_expr(w, input);
            put_cmp_op(w, *op);
            w.u64(*threshold_bits);
        }
        ScalarExpr::Literal(bits) => {
            w.u8(6);
            w.u64(*bits);
        }
        ScalarExpr::Binary { op, left, right } => {
            w.u8(7);
            put_arith_op(w, *op);
            put_expr(w, left);
            put_expr(w, right);
        }
        ScalarExpr::Case { whens, otherwise } => {
            w.u8(8);
            w.len(whens.len());
            for when in whens {
                put_expr(w, &when.lhs);
                put_cmp_op(w, when.op);
                put_expr(w, &when.rhs);
                put_expr(w, &when.then);
            }
            match otherwise {
                Some(e) => {
                    w.u8(1);
                    put_expr(w, e);
                }
                None => w.u8(0),
            }
        }
    }
}

fn put_arith_op(w: &mut Writer, op: ArithOp) {
    w.u8(match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
    });
}

fn get_arith_op(r: &mut Reader) -> Result<ArithOp> {
    match r.u8()? {
        0 => Ok(ArithOp::Add),
        1 => Ok(ArithOp::Sub),
        2 => Ok(ArithOp::Mul),
        3 => Ok(ArithOp::Div),
        t => Err(DecodeError::new(format!("invalid arithmetic operator tag {t}"))),
    }
}

fn get_expr(r: &mut Reader, depth: usize) -> Result<ScalarExpr> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::new("expression nests too deeply"));
    }
    match r.u8()? {
        0 => Ok(ScalarExpr::Column(r.str()?)),
        1 => Ok(ScalarExpr::Year(Box::new(get_expr(r, depth + 1)?))),
        2 => Ok(ScalarExpr::Month(Box::new(get_expr(r, depth + 1)?))),
        3 => Ok(ScalarExpr::Day(Box::new(get_expr(r, depth + 1)?))),
        4 => Ok(ScalarExpr::Hour(Box::new(get_expr(r, depth + 1)?))),
        5 => {
            let input = Box::new(get_expr(r, depth + 1)?);
            let op = get_cmp_op(r)?;
            let threshold_bits = r.u64()?;
            Ok(ScalarExpr::Indicator { input, op, threshold_bits })
        }
        6 => Ok(ScalarExpr::Literal(r.u64()?)),
        7 => {
            let op = get_arith_op(r)?;
            let left = Box::new(get_expr(r, depth + 1)?);
            let right = Box::new(get_expr(r, depth + 1)?);
            Ok(ScalarExpr::Binary { op, left, right })
        }
        8 => {
            let n = r.len()?;
            let whens = get_vec(r, n, |r| {
                Ok(CaseWhen {
                    lhs: get_expr(r, depth + 1)?,
                    op: get_cmp_op(r)?,
                    rhs: get_expr(r, depth + 1)?,
                    then: get_expr(r, depth + 1)?,
                })
            })?;
            let otherwise = match r.u8()? {
                0 => None,
                1 => Some(Box::new(get_expr(r, depth + 1)?)),
                t => return Err(DecodeError::new(format!("invalid CASE else tag {t}"))),
            };
            Ok(ScalarExpr::Case { whens, otherwise })
        }
        t => Err(DecodeError::new(format!("invalid expression tag {t}"))),
    }
}

fn put_exprs(w: &mut Writer, exprs: &[ScalarExpr]) {
    w.len(exprs.len());
    for expr in exprs {
        put_expr(w, expr);
    }
}

fn get_exprs(r: &mut Reader) -> Result<Vec<ScalarExpr>> {
    let n = r.len()?;
    get_vec(r, n, |r| get_expr(r, 0))
}

fn put_predicate(w: &mut Writer, pred: &Predicate) {
    match pred {
        Predicate::True => w.u8(0),
        Predicate::Cmp { expr, op, value } => {
            w.u8(1);
            put_expr(w, expr);
            put_cmp_op(w, *op);
            put_value(w, value);
        }
        Predicate::Between { expr, low, high } => {
            w.u8(2);
            put_expr(w, expr);
            put_value(w, low);
            put_value(w, high);
        }
        Predicate::InList { expr, values } => {
            w.u8(3);
            put_expr(w, expr);
            w.len(values.len());
            for value in values {
                put_value(w, value);
            }
        }
        Predicate::And(a, b) => {
            w.u8(4);
            put_predicate(w, a);
            put_predicate(w, b);
        }
        Predicate::Or(a, b) => {
            w.u8(5);
            put_predicate(w, a);
            put_predicate(w, b);
        }
        Predicate::Not(inner) => {
            w.u8(6);
            put_predicate(w, inner);
        }
    }
}

fn get_predicate(r: &mut Reader, depth: usize) -> Result<Predicate> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::new("predicate nests too deeply"));
    }
    match r.u8()? {
        0 => Ok(Predicate::True),
        1 => {
            let expr = get_expr(r, 0)?;
            let op = get_cmp_op(r)?;
            let value = get_value(r)?;
            Ok(Predicate::Cmp { expr, op, value })
        }
        2 => {
            let expr = get_expr(r, 0)?;
            let low = get_value(r)?;
            let high = get_value(r)?;
            Ok(Predicate::Between { expr, low, high })
        }
        3 => {
            let expr = get_expr(r, 0)?;
            let n = r.len()?;
            let values = get_vec(r, n, get_value)?;
            Ok(Predicate::InList { expr, values })
        }
        4 => {
            let a = get_predicate(r, depth + 1)?;
            let b = get_predicate(r, depth + 1)?;
            Ok(Predicate::And(Box::new(a), Box::new(b)))
        }
        5 => {
            let a = get_predicate(r, depth + 1)?;
            let b = get_predicate(r, depth + 1)?;
            Ok(Predicate::Or(Box::new(a), Box::new(b)))
        }
        6 => Ok(Predicate::Not(Box::new(get_predicate(r, depth + 1)?))),
        t => Err(DecodeError::new(format!("invalid predicate tag {t}"))),
    }
}

fn put_key(w: &mut Writer, key: &[KeyAtom]) {
    w.len(key.len());
    for atom in key {
        match atom {
            KeyAtom::Int(v) => {
                w.u8(0);
                w.i64(*v);
            }
            KeyAtom::Str(s) => {
                w.u8(1);
                w.str(s);
            }
        }
    }
}

fn get_key(r: &mut Reader) -> Result<Vec<KeyAtom>> {
    let n = r.len()?;
    get_vec(r, n, |r| match r.u8()? {
        0 => Ok(KeyAtom::Int(r.i64()?)),
        1 => Ok(KeyAtom::Str(Arc::from(r.str()?.as_str()))),
        t => Err(DecodeError::new(format!("invalid key atom tag {t}"))),
    })
}

fn put_option<T>(w: &mut Writer, value: Option<&T>, put: impl FnOnce(&mut Writer, &T)) {
    match value {
        Some(v) => {
            w.u8(1);
            put(w, v);
        }
        None => w.u8(0),
    }
}

fn get_option<'a, T>(
    r: &mut Reader<'a>,
    get: impl FnOnce(&mut Reader<'a>) -> Result<T>,
) -> Result<Option<T>> {
    Ok(if r.bool()? { Some(get(r)?) } else { None })
}

fn put_agg_kind(w: &mut Writer, kind: AggKind) {
    w.u8(match kind {
        AggKind::Count => 0,
        AggKind::Sum => 1,
        AggKind::Avg => 2,
        AggKind::Min => 3,
        AggKind::Max => 4,
        AggKind::Var => 5,
        AggKind::Std => 6,
        AggKind::CountIf => 7,
    });
}

fn get_agg_kind(r: &mut Reader) -> Result<AggKind> {
    match r.u8()? {
        0 => Ok(AggKind::Count),
        1 => Ok(AggKind::Sum),
        2 => Ok(AggKind::Avg),
        3 => Ok(AggKind::Min),
        4 => Ok(AggKind::Max),
        5 => Ok(AggKind::Var),
        6 => Ok(AggKind::Std),
        7 => Ok(AggKind::CountIf),
        t => Err(DecodeError::new(format!("invalid aggregate tag {t}"))),
    }
}

fn put_agg(w: &mut Writer, agg: &AggExpr) {
    put_agg_kind(w, agg.kind);
    put_option(w, agg.input.as_ref(), put_expr);
    put_option(w, agg.condition.as_ref(), |w, &(op, threshold)| {
        put_cmp_op(w, op);
        w.f64(threshold);
    });
    w.str(&agg.alias);
}

/// An aggregate, with a condition exactly when it is a `COUNT_IF`.
fn get_agg(r: &mut Reader) -> Result<AggExpr> {
    let kind = get_agg_kind(r)?;
    let input = get_option(r, |r| get_expr(r, 0))?;
    let condition = get_option(r, |r| Ok((get_cmp_op(r)?, r.f64()?)))?;
    if condition.is_some() != (kind == AggKind::CountIf) {
        return Err(DecodeError::new(format!(
            "a {} aggregate with condition {condition:?}",
            kind.name()
        )));
    }
    Ok(AggExpr { kind, input, condition, alias: r.str()? })
}

fn put_fold(w: &mut Writer, fold: &Fold) {
    match fold {
        Fold::Stats { columns } => {
            w.u8(0);
            put_exprs(w, columns);
        }
        Fold::Exact { predicate, aggregates } => {
            w.u8(1);
            put_option(w, predicate.as_ref(), put_predicate);
            w.len(aggregates.len());
            for agg in aggregates {
                put_agg(w, agg);
            }
        }
    }
}

fn get_fold(r: &mut Reader) -> Result<Fold> {
    match r.u8()? {
        0 => Ok(Fold::Stats { columns: get_exprs(r)? }),
        1 => {
            let predicate = get_option(r, |r| get_predicate(r, 0))?;
            let n = r.len()?;
            Ok(Fold::Exact { predicate, aggregates: get_vec(r, n, get_agg)? })
        }
        t => Err(DecodeError::new(format!("invalid fold tag {t}"))),
    }
}

fn put_state(w: &mut Writer, state: &AggState) {
    w.u64(state.count);
    for v in [state.sum, state.mean, state.m2, state.min, state.max] {
        w.f64(v);
    }
}

fn get_state(r: &mut Reader) -> Result<AggState> {
    let count = r.u64()?;
    let [sum, mean, m2, min, max] = [r.f64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?];
    Ok(AggState { count, sum, mean, m2, min, max })
}

fn put_states(w: &mut Writer, states: &[AggState]) {
    w.len(states.len());
    for state in states {
        put_state(w, state);
    }
}

fn get_states(r: &mut Reader) -> Result<Vec<AggState>> {
    let n = r.len()?;
    get_vec(r, n, get_state)
}

/// A cell's count and the bits of its one float.
fn counted(count: u64, value: f64) -> [u8; 16] {
    let mut bytes = [0; 16];
    bytes[..8].copy_from_slice(&count.to_le_bytes());
    bytes[8..].copy_from_slice(&value.to_bits().to_le_bytes());
    bytes
}

fn uncounted(bytes: [u8; 16]) -> (u64, f64) {
    let [count, value] =
        [&bytes[..8], &bytes[8..]].map(|b| u64::from_le_bytes(b.try_into().unwrap()));
    (count, f64::from_bits(value))
}

fn put_cells(w: &mut Writer, column: &CellColumn<ExactCells>) {
    match column {
        CellColumn::Count(cells) => {
            w.u8(0);
            w.len(cells.len());
            w.run(cells, |c| c.count.to_le_bytes());
        }
        CellColumn::Sum(cells) => {
            w.u8(1);
            w.len(cells.len());
            w.run(cells, |c| counted(c.count, c.sum));
        }
        CellColumn::Min(cells) => {
            w.u8(2);
            w.len(cells.len());
            w.run(cells, |c| counted(c.count, c.min));
        }
        CellColumn::Max(cells) => {
            w.u8(3);
            w.len(cells.len());
            w.run(cells, |c| counted(c.count, c.max));
        }
        CellColumn::Avg(cells) => {
            w.u8(4);
            w.len(cells.len());
            w.run(cells, |c| counted(c.count, c.mean));
        }
        CellColumn::Moments(states) => {
            w.u8(5);
            put_states(w, states);
        }
    }
}

fn get_cells(r: &mut Reader) -> Result<CellColumn<ExactCells>> {
    Ok(match r.u8()? {
        0 => CellColumn::Count(r.counted_run(|b| CountCell { count: u64::from_le_bytes(b) })?),
        1 => CellColumn::Sum(r.counted_run(|b| {
            let (count, sum) = uncounted(b);
            SumCell { count, sum }
        })?),
        2 => CellColumn::Min(r.counted_run(|b| {
            let (count, min) = uncounted(b);
            MinCell { count, min }
        })?),
        3 => CellColumn::Max(r.counted_run(|b| {
            let (count, max) = uncounted(b);
            MaxCell { count, max }
        })?),
        4 => CellColumn::Avg(r.counted_run(|b| {
            let (count, mean) = uncounted(b);
            MeanCell { count, mean }
        })?),
        5 => CellColumn::Moments(get_states(r)?),
        t => return Err(DecodeError::new(format!("invalid cell kind tag {t}"))),
    })
}

fn put_cell_columns(w: &mut Writer, columns: &[CellColumn<ExactCells>]) {
    w.len(columns.len());
    for column in columns {
        put_cells(w, column);
    }
}

fn get_cell_columns(r: &mut Reader) -> Result<Vec<CellColumn<ExactCells>>> {
    let n = r.len()?;
    get_vec(r, n, get_cells)
}

/// The body of a `Walked` answer, after its tag: the keys and their sizes,
/// then each partition's start, slots and states, written by `put`.
fn put_walked<S>(
    w: &mut Writer,
    walked: &Walked,
    partitions: &[WalkedPartition<S>],
    put: fn(&mut Writer, &S),
) {
    w.len(walked.keys.len());
    for (key, &size) in walked.keys.iter().zip(&walked.sizes) {
        put_key(w, key);
        w.u64(size);
    }
    w.len(partitions.len());
    for partition in partitions {
        w.u64(partition.start);
        put_rows(w, &partition.slots);
        put(w, &partition.states);
    }
}

/// A walk's answer as sent, each partition's states read by `get` and the
/// partitions put in their form by `form`; whether it fits the request is
/// the coordinator's to check.
fn get_walked<S>(
    r: &mut Reader,
    get: fn(&mut Reader) -> Result<S>,
    form: fn(Vec<WalkedPartition<S>>) -> Partitions,
) -> Result<Walked> {
    let n = r.len()?;
    let (keys, sizes) = get_vec(r, n, |r| Ok((get_key(r)?, r.u64()?)))?.into_iter().unzip();
    let n = r.len()?;
    let partitions = get_vec(r, n, |r| {
        let start = r.u64()?;
        let slots = get_rows(r)?;
        Ok(WalkedPartition { start, slots, states: get(r)? })
    })?;
    Ok(Walked { keys, sizes, partitions: form(partitions) })
}

fn put_picks(w: &mut Writer, picks: &[Pick]) {
    w.len(picks.len());
    for pick in picks {
        w.u32(pick.key);
        put_rows(w, &pick.ordinals);
    }
}

fn get_picks(r: &mut Reader) -> Result<Vec<Pick>> {
    let n = r.len()?;
    get_vec(r, n, |r| Ok(Pick { key: r.u32()?, ordinals: get_rows(r)? }))
}

fn put_column_values(w: &mut Writer, col: &ColumnValues) {
    match col {
        ColumnValues::Dense(values) => {
            w.u8(0);
            w.len(values.len());
            w.run(values, |x: f64| x.to_bits().to_le_bytes());
        }
        ColumnValues::Sparse(values) => {
            w.u8(1);
            w.len(values.len());
            for v in values {
                match v {
                    Some(x) => {
                        w.u8(1);
                        w.f64(*x);
                    }
                    None => w.u8(0),
                }
            }
        }
    }
}

fn get_column_values(r: &mut Reader) -> Result<ColumnValues> {
    match r.u8()? {
        0 => Ok(ColumnValues::Dense(r.counted_run(|v| f64::from_bits(u64::from_le_bytes(v)))?)),
        1 => {
            let n = r.len()?;
            let values = get_vec(r, n, |r| Ok(if r.bool()? { Some(r.f64()?) } else { None }))?;
            Ok(ColumnValues::Sparse(values))
        }
        t => Err(DecodeError::new(format!("invalid column values tag {t}"))),
    }
}

fn put_rows(w: &mut Writer, rows: &[u32]) {
    w.len(rows.len());
    w.run(rows, u32::to_le_bytes);
}

fn get_rows(r: &mut Reader) -> Result<Vec<u32>> {
    r.counted_run(u32::from_le_bytes)
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// A request from the coordinator to a shard server.
///
/// Every pass-level request names the shard `key` it targets; keys are
/// assigned at registration, so one server can host shards of many tables.
///
/// A `Register` borrows the table it ships, so a coordinator encodes its
/// shard in place; a decoded one owns the table it received.
#[derive(Debug, Clone)]
pub enum Request<'a> {
    /// Install (or replace) a shard under `key`.
    Register {
        /// Shard key, e.g. `"aq/0"`.
        key: String,
        /// Full shard contents.
        table: Cow<'a, Table>,
    },
    /// Liveness probe; answers with the registered shard keys.
    Health,
    /// Gather rows (shard-local indices, in request order): the fragment
    /// of a partition that straddles a shard boundary.
    Gather {
        /// Target shard.
        key: String,
        /// Shard-local row indices.
        rows: Vec<u32>,
    },
    /// Plan pass: key the shard's rows by `exprs` and fold every global
    /// partition it holds whole ([`cvopt_table::ShardReader::walk`]).
    Walk {
        /// Target shard.
        key: String,
        /// Global row id of the shard's first row.
        first_row: u64,
        /// Rows of the whole row space, which fixes its partitions.
        total_rows: u64,
        /// Group-by (stratification) expressions.
        exprs: Vec<ScalarExpr>,
        /// The per-partition kernel.
        fold: Fold,
    },
    /// Draw pass: the rows at the given ordinals of the shard's keys
    /// ([`cvopt_table::ShardReader::pick`]).
    Pick {
        /// Target shard.
        key: String,
        /// The stratification expressions the keys are numbered by.
        exprs: Vec<ScalarExpr>,
        /// Ordinals per shard key.
        picks: Vec<Pick>,
    },
}

impl Request<'_> {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Register { key, table } => {
                w.u8(1);
                w.str(key);
                put_table(&mut w, table);
            }
            Request::Health => w.u8(2),
            Request::Gather { key, rows } => {
                w.u8(8);
                w.str(key);
                put_rows(&mut w, rows);
            }
            Request::Walk { key, first_row, total_rows, exprs, fold } => {
                w.u8(11);
                w.str(key);
                w.u64(*first_row);
                w.u64(*total_rows);
                put_exprs(&mut w, exprs);
                put_fold(&mut w, fold);
            }
            Request::Pick { key, exprs, picks } => {
                w.u8(12);
                w.str(key);
                put_exprs(&mut w, exprs);
                put_picks(&mut w, picks);
            }
        }
        w.finish()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request<'static>> {
        decode_slice(payload, get_request)
    }

    /// Decode a payload of `len` bytes as it arrives from `src`, reading
    /// no byte past it. The outer error is the source's: the stream has
    /// lost its place. The inner one is the payload's: skipping what is
    /// left of the payload puts the stream at the next frame.
    pub fn decode_from(src: &mut dyn Read, len: usize) -> io::Result<Result<Request<'static>>> {
        decode_stream(src, len, get_request)
    }
}

fn get_request(r: &mut Reader) -> Result<Request<'static>> {
    Ok(match r.u8()? {
        1 => {
            let key = r.str()?;
            let table = get_table(r)?;
            Request::Register { key, table: Cow::Owned(table) }
        }
        2 => Request::Health,
        8 => {
            let key = r.str()?;
            let rows = get_rows(r)?;
            Request::Gather { key, rows }
        }
        11 => {
            let key = r.str()?;
            let first_row = r.u64()?;
            let total_rows = r.u64()?;
            let exprs = get_exprs(r)?;
            let fold = get_fold(r)?;
            Request::Walk { key, first_row, total_rows, exprs, fold }
        }
        12 => {
            let key = r.str()?;
            let exprs = get_exprs(r)?;
            let picks = get_picks(r)?;
            Request::Pick { key, exprs, picks }
        }
        t => return Err(DecodeError::new(format!("invalid request tag {t}"))),
    })
}

/// A shard server's answer to a [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    /// Shard installed; echoes its row count for validation.
    Registered {
        /// Rows in the registered shard.
        rows: u64,
    },
    /// Liveness answer: registered shard keys, sorted.
    Health {
        /// Sorted shard keys.
        keys: Vec<String>,
    },
    /// Per-expression numeric column views. No pass sends these; the
    /// codec's throughput probe does.
    Partials {
        /// One entry per requested expression (`None` for `COUNT(*)`).
        columns: Vec<Option<ColumnValues>>,
    },
    /// Rows from a gather.
    Rows {
        /// Rows in request order.
        table: Table,
    },
    /// The request failed application-side (bad key, bad expression, …).
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// A walk's keys and per-partition partials.
    Walked {
        /// The shard's answer.
        walked: Walked,
    },
    /// A pick's rows.
    Picked {
        /// The shard's answer.
        picked: Picked,
    },
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Registered { rows } => {
                w.u8(1);
                w.u64(*rows);
            }
            Response::Health { keys } => {
                w.u8(2);
                w.len(keys.len());
                for key in keys {
                    w.str(key);
                }
            }
            Response::Partials { columns } => {
                w.u8(6);
                w.len(columns.len());
                for col in columns {
                    match col {
                        Some(c) => {
                            w.u8(1);
                            put_column_values(&mut w, c);
                        }
                        None => w.u8(0),
                    }
                }
            }
            Response::Rows { table } => {
                w.u8(7);
                put_table(&mut w, table);
            }
            Response::Error { message } => {
                w.u8(8);
                w.str(message);
            }
            Response::Walked { walked } => match &walked.partitions {
                Partitions::Stats(partitions) => {
                    w.u8(11);
                    put_walked(&mut w, walked, partitions, |w, states| put_states(w, states));
                }
                Partitions::Exact(partitions) => {
                    w.u8(13);
                    put_walked(&mut w, walked, partitions, |w, cells| put_cell_columns(w, cells));
                }
            },
            Response::Picked { picked } => {
                w.u8(12);
                put_table(&mut w, &picked.table);
                put_rows(&mut w, &picked.rows);
            }
        }
        w.finish()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        decode_slice(payload, get_response)
    }

    /// Decode a payload of `len` bytes as it arrives from `src`, as
    /// [`Request::decode_from`] does.
    pub fn decode_from(src: &mut dyn Read, len: usize) -> io::Result<Result<Response>> {
        decode_stream(src, len, get_response)
    }
}

fn get_response(r: &mut Reader) -> Result<Response> {
    Ok(match r.u8()? {
        1 => Response::Registered { rows: r.u64()? },
        2 => {
            let n = r.len()?;
            Response::Health { keys: get_vec(r, n, |r| r.str())? }
        }
        6 => {
            let n = r.len()?;
            let columns =
                get_vec(r, n, |r| Ok(if r.bool()? { Some(get_column_values(r)?) } else { None }))?;
            Response::Partials { columns }
        }
        7 => Response::Rows { table: get_table(r)? },
        8 => Response::Error { message: r.str()? },
        11 => Response::Walked { walked: get_walked(r, get_states, Partitions::Stats)? },
        13 => Response::Walked { walked: get_walked(r, get_cell_columns, Partitions::Exact)? },
        12 => {
            let table = get_table(r)?;
            let rows = get_rows(r)?;
            Response::Picked { picked: Picked { table, rows } }
        }
        t => return Err(DecodeError::new(format!("invalid response tag {t}"))),
    })
}

#[cfg(test)]
mod tests;
