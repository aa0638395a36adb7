//! Binary payload encoding for the shard protocol.
//!
//! Every payload is a tagged union over fixed-width little-endian
//! primitives. Strings are a length followed by UTF-8 bytes; floats travel
//! as `f64::to_bits`, so NaN payloads and signed zeros round-trip exactly,
//! and an [`AggState`] travels as its count plus its five floats' bits.
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

use cvopt_table::agg::AggState;
use cvopt_table::dict::check_first_occurrence;
use cvopt_table::reader::{Fold, Pick, Picked, Walked, WalkedPartition};
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

fn put_walked(w: &mut Writer, walked: &Walked) {
    w.len(walked.keys.len());
    for (key, &size) in walked.keys.iter().zip(&walked.sizes) {
        put_key(w, key);
        w.u64(size);
    }
    w.len(walked.partitions.len());
    for partition in &walked.partitions {
        w.u64(partition.start);
        put_rows(w, &partition.slots);
        w.len(partition.states.len());
        for state in &partition.states {
            put_state(w, state);
        }
    }
}

/// A walk's answer as sent; whether it fits the request is the
/// coordinator's to check.
fn get_walked(r: &mut Reader) -> Result<Walked> {
    let n = r.len()?;
    let (keys, sizes) = get_vec(r, n, |r| Ok((get_key(r)?, r.u64()?)))?.into_iter().unzip();
    let n = r.len()?;
    let partitions = get_vec(r, n, |r| {
        let start = r.u64()?;
        let slots = get_rows(r)?;
        let n = r.len()?;
        Ok(WalkedPartition { start, slots, states: get_vec(r, n, get_state)? })
    })?;
    Ok(Walked { keys, sizes, partitions })
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
            Response::Walked { walked } => {
                w.u8(11);
                put_walked(&mut w, walked);
            }
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
        11 => Response::Walked { walked: get_walked(r)? },
        12 => {
            let table = get_table(r)?;
            let rows = get_rows(r)?;
            Response::Picked { picked: Picked { table, rows } }
        }
        t => return Err(DecodeError::new(format!("invalid response tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
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
                columns: vec![
                    ScalarExpr::col("value"),
                    ScalarExpr::indicator("value", CmpOp::Gt, 1.0),
                ],
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
            picks: vec![
                Pick { key: 3, ordinals: vec![0, 7, 9] },
                Pick { key: 0, ordinals: vec![] },
            ],
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
                partitions: vec![WalkedPartition {
                    start: 65_536,
                    slots: vec![1, 0],
                    states: vec![
                        AggState { count: 2, sum: 3.0, mean: 1.5, m2: 0.5, min: 1.0, max: 2.0 },
                        AggState::default(),
                    ],
                }],
            },
        });
        round_trip_response(Response::Walked { walked: Walked::default() });
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
        let walked = Walked { keys: vec![vec![]], sizes: vec![1], partitions: vec![partition] };
        let payload = Response::Walked { walked }.encode();
        let Response::Walked { walked } = Response::decode(&payload).unwrap() else {
            panic!("wrong variant");
        };
        let got = walked.partitions[0].states[0];
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
}
