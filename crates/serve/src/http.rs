//! Minimal HTTP/1.1 plumbing: request parsing and response writing.
//!
//! Deliberately small: `Content-Length` bodies only (no chunked
//! encoding), bounded header and body sizes. Connections are persistent
//! by default (HTTP/1.1 keep-alive): [`read_request`] reads from a
//! caller-owned [`BufRead`] so pipelined bytes survive between requests,
//! reports `Connection: close` on the parsed [`Request`], and
//! distinguishes a clean close between requests ([`ReadOutcome::Closed`])
//! from a truncated one. Responses carry **no** clock-dependent headers
//! (no `Date`) and no `Connection` header — close is enacted at the
//! socket, never in the bytes — so a response is a pure function of the
//! request and the engine state, byte-identical whether the connection is
//! reused or not. That is the property that lets tests byte-compare
//! responses across servers, worker counts, and cache budgets.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on the request line + headers, in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (e.g. `/query`).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`, or HTTP/1.0 without
    /// `Connection: keep-alive`).
    pub close: bool,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or an error message suitable for a 400.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8".to_string())
    }
}

/// Why a request could not be parsed; maps onto a 4xx response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// HTTP status to answer with (400 or 413).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl BadRequest {
    fn new(status: u16, message: impl Into<String>) -> Self {
        BadRequest { status, message: message.into() }
    }
}

/// What [`read_request`] found on the connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// A malformed request; answer it and close the connection (the
    /// framing can no longer be trusted).
    Bad(BadRequest),
    /// Clean EOF before any request byte — the client finished with the
    /// connection. Not an error; nothing to answer.
    Closed,
}

/// Read and parse one request from `reader`. Bodies above `max_body`
/// bytes are rejected with a 413-shaped [`BadRequest`] without reading
/// them.
///
/// The reader is caller-owned so it can persist across requests on a
/// keep-alive connection: a pipelined second request sits in the
/// reader's buffer, and the next call picks it up without touching the
/// socket. EOF *before* the first request byte is a clean
/// [`ReadOutcome::Closed`]; EOF anywhere later — inside the body included —
/// and a head line that is not UTF-8 are a 400-shaped [`ReadOutcome::Bad`].
/// Only the transport failing (a stall past the socket's timeout, a reset)
/// is an `Err`.
///
/// `interim` receives the `100 Continue` interim response when the
/// client sent `Expect: 100-continue` and the body is acceptable (curl
/// does this for bodies over ~1 KiB and otherwise stalls a second
/// before uploading). Pass the write half of the same connection; tests
/// pass a `Vec<u8>`.
pub fn read_request(
    reader: &mut impl BufRead,
    mut interim: impl Write,
    max_body: usize,
) -> io::Result<ReadOutcome> {
    let request_line = match read_head_line(reader)? {
        HeadLine::Line(line) => line,
        HeadLine::Bad(bad) => return Ok(ReadOutcome::Bad(bad)),
        HeadLine::Eof => return Ok(ReadOutcome::Closed),
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Bad(BadRequest::new(400, "malformed request line")));
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Bad(BadRequest::new(
            400,
            format!("unsupported protocol {version}"),
        )));
    }
    let method = method.to_ascii_uppercase();
    // HTTP/1.0 defaults to close, 1.1 to keep-alive; a Connection header
    // overrides either way.
    let mut close = version.eq_ignore_ascii_case("HTTP/1.0");

    // Headers: we only need Content-Length, Expect, and Connection.
    let mut content_length: usize = 0;
    let mut expect_continue = false;
    let mut head_bytes = request_line.len();
    loop {
        let line = match read_head_line(reader)? {
            HeadLine::Line(line) => line,
            HeadLine::Bad(bad) => return Ok(ReadOutcome::Bad(bad)),
            HeadLine::Eof => {
                return Ok(ReadOutcome::Bad(BadRequest::new(400, "connection closed mid-request")))
            }
        };
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Ok(ReadOutcome::Bad(BadRequest::new(413, "request headers too large")));
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => {
                        return Ok(ReadOutcome::Bad(BadRequest::new(400, "invalid Content-Length")))
                    }
                };
            } else if name.eq_ignore_ascii_case("expect")
                && value.trim().eq_ignore_ascii_case("100-continue")
            {
                expect_continue = true;
            } else if name.eq_ignore_ascii_case("connection") {
                // The value is a comma-separated token list.
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            }
        }
    }
    if content_length > max_body {
        // No interim response: the caller's 413 is the final answer, and
        // the client knows not to send the body.
        return Ok(ReadOutcome::Bad(BadRequest::new(
            413,
            format!("request body of {content_length} bytes exceeds the {max_body}-byte limit"),
        )));
    }
    if expect_continue && content_length > 0 {
        interim.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        interim.flush()?;
    }
    let mut body = vec![0u8; content_length];
    match reader.read_exact(&mut body) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Ok(ReadOutcome::Bad(BadRequest::new(400, "connection closed mid-body")))
        }
        read => read?,
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = match percent_decode(raw_path) {
        Ok(p) => p,
        Err(e) => return Ok(ReadOutcome::Bad(BadRequest::new(400, e))),
    };
    let query = match raw_query.map(parse_query).transpose() {
        Ok(q) => q.unwrap_or_default(),
        Err(e) => return Ok(ReadOutcome::Bad(BadRequest::new(400, e))),
    };
    Ok(ReadOutcome::Request(Request { method, path, query, body, close }))
}

/// One CRLF-terminated head line (request line or header), or why not.
enum HeadLine {
    Line(String),
    Bad(BadRequest),
    Eof,
}

fn read_head_line(reader: &mut impl BufRead) -> io::Result<HeadLine> {
    let mut line = String::new();
    let mut taken = reader.take(MAX_HEAD_BYTES as u64 + 1);
    let n = match taken.read_line(&mut line) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return Ok(HeadLine::Bad(BadRequest::new(400, "request head is not UTF-8")))
        }
        read => read?,
    };
    if n == 0 {
        return Ok(HeadLine::Eof);
    }
    if line.len() > MAX_HEAD_BYTES {
        return Ok(HeadLine::Bad(BadRequest::new(413, "request head line too large")));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(HeadLine::Line(line))
}

/// Decode `%XX` escapes and `+`-for-space in a URL component.
pub fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => return Err(format!("invalid percent escape in '{s}'")),
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent-decoded '{s}' is not valid UTF-8"))
}

/// Split a query string into decoded `(name, value)` pairs.
pub fn parse_query(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for pair in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(out)
}

/// An HTTP response ready to write. Always `Content-Type:
/// application/json` with an explicit `Content-Length`, and never a
/// `Connection` header — whether the server closes afterwards is decided
/// at the socket, so response bytes are identical on persistent and
/// one-shot connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 400, 404, 413, 503, …).
    pub status: u16,
    /// Seconds for a `Retry-After` header (backpressure responses only).
    pub retry_after: Option<u64>,
    /// The JSON body.
    pub body: String,
}

impl Response {
    /// A 200 response with the given JSON body.
    pub fn ok(body: String) -> Response {
        Response { status: 200, retry_after: None, body }
    }

    /// An error response: `{"error": message}` with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        let body = crate::json::Json::object(vec![("error", crate::json::Json::string(message))]);
        Response { status, retry_after: None, body: body.to_string() }
    }

    /// The backpressure response: 503 with `Retry-After`.
    pub fn overloaded(retry_after_seconds: u64) -> Response {
        let mut r = Response::error(503, "server overloaded: request queue is full");
        r.retry_after = Some(retry_after_seconds);
        r
    }

    /// Write the response as one buffer — head and body leave in a single
    /// write, the body copied once. Header order is fixed, and no
    /// clock-dependent header is emitted, so equal responses are equal
    /// byte streams.
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        let retry_after =
            self.retry_after.map(|s| format!("Retry-After: {s}\r\n")).unwrap_or_default();
        let message = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry_after}\r\n{}",
            self.status,
            status_text(self.status),
            self.body.len(),
            self.body
        );
        w.write_all(message.as_bytes())?;
        w.flush()
    }
}

/// Reason phrase for the status codes this server emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: impl AsRef<[u8]>) -> Result<Request, BadRequest> {
        let raw = raw.as_ref();
        match read_request(&mut Cursor::new(raw.to_vec()), Vec::new(), 1024).unwrap() {
            ReadOutcome::Request(req) => Ok(req),
            ReadOutcome::Bad(bad) => Err(bad),
            ReadOutcome::Closed => panic!("unexpected clean close for {raw:?}"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse("GET /explain?sql=SELECT%201&mode=auto HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/explain");
        assert_eq!(req.query_param("sql"), Some("SELECT 1"));
        assert_eq!(req.query_param("mode"), Some("auto"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /query HTTP/1.1\r\nContent-Length: 11\r\nContent-Type: application/json\r\n\r\n{\"sql\":\"x\"}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_utf8().unwrap(), "{\"sql\":\"x\"}");
    }

    #[test]
    fn rejects_oversized_body_and_bad_requests() {
        let bad = parse("POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap_err();
        assert_eq!(bad.status, 413);
        let bad = parse("POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert_eq!(bad.status, 400);
        let bad = parse("garbage\r\n\r\n").unwrap_err();
        assert_eq!(bad.status, 400);
        let bad = parse("GET / SPDY/3\r\n\r\n").unwrap_err();
        assert_eq!(bad.status, 400);
        // Truncation mid-request is a 400; EOF *between* requests is a
        // clean close, not an error.
        let bad = parse("GET / HTTP/1.1\r\nHost: x").unwrap_err();
        assert_eq!(bad.status, 400);
        // So is EOF inside a body, and a head line that is not UTF-8.
        let bad = parse("POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\n{}").unwrap_err();
        assert_eq!((bad.status, bad.message.as_str()), (400, "connection closed mid-body"));
        let bad = parse(b"GET /caf\xE9 HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!((bad.status, bad.message.as_str()), (400, "request head is not UTF-8"));
        let outcome = read_request(&mut Cursor::new(Vec::new()), Vec::new(), 1024).unwrap();
        assert!(matches!(outcome, ReadOutcome::Closed));
    }

    #[test]
    fn connection_header_and_version_decide_close() {
        assert!(!parse("GET / HTTP/1.1\r\n\r\n").unwrap().close, "1.1 defaults to keep-alive");
        assert!(parse("GET / HTTP/1.0\r\n\r\n").unwrap().close, "1.0 defaults to close");
        assert!(parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().close);
        assert!(parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap().close);
        assert!(!parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().close);
        assert!(parse("GET / HTTP/1.1\r\nConnection: Upgrade, close\r\n\r\n").unwrap().close);
    }

    #[test]
    fn pipelined_requests_read_back_to_back_from_one_reader() {
        let raw = "POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}\
                   GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = Cursor::new(raw.as_bytes().to_vec());
        let ReadOutcome::Request(first) = read_request(&mut reader, Vec::new(), 1024).unwrap()
        else {
            panic!("first request must parse");
        };
        assert_eq!((first.method.as_str(), first.path.as_str()), ("POST", "/query"));
        assert_eq!(first.body, b"{}");
        assert!(!first.close);
        let ReadOutcome::Request(second) = read_request(&mut reader, Vec::new(), 1024).unwrap()
        else {
            panic!("second request must parse");
        };
        assert_eq!((second.method.as_str(), second.path.as_str()), ("GET", "/stats"));
        assert!(second.close);
        let done = read_request(&mut reader, Vec::new(), 1024).unwrap();
        assert!(matches!(done, ReadOutcome::Closed));
    }

    #[test]
    fn expect_100_continue_gets_an_interim_response() {
        let raw = "POST /tables HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n{}";
        let mut interim = Vec::new();
        let outcome =
            read_request(&mut Cursor::new(raw.as_bytes().to_vec()), &mut interim, 1024).unwrap();
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
        let ReadOutcome::Request(req) = outcome else { panic!("must parse") };
        assert_eq!(req.body, b"{}");

        // No Expect header, or an over-limit body: no interim response.
        let raw = "POST /t HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let mut interim = Vec::new();
        let outcome =
            read_request(&mut Cursor::new(raw.as_bytes().to_vec()), &mut interim, 1024).unwrap();
        assert!(matches!(outcome, ReadOutcome::Request(_)));
        assert!(interim.is_empty());
        let raw = "POST /t HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 9999\r\n\r\n";
        let mut interim = Vec::new();
        let outcome =
            read_request(&mut Cursor::new(raw.as_bytes().to_vec()), &mut interim, 1024).unwrap();
        let ReadOutcome::Bad(bad) = outcome else { panic!("must reject") };
        assert_eq!(bad.status, 413);
        assert!(interim.is_empty(), "rejected bodies must not be invited");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c%2Fd").unwrap(), "a b c/d");
        assert_eq!(percent_decode("caf%C3%A9").unwrap(), "café");
        assert!(percent_decode("bad%zz").is_err());
        assert!(percent_decode("trunc%2").is_err());
        assert_eq!(
            parse_query("a=1&b=x%20y&flag&=v").unwrap(),
            vec![
                ("a".into(), "1".into()),
                ("b".into(), "x y".into()),
                ("flag".into(), "".into()),
                ("".into(), "v".into()),
            ]
        );
    }

    #[test]
    fn response_bytes_are_deterministic() {
        let mut a = Vec::new();
        Response::ok("{\"x\":1}".into()).write_to(&mut a).unwrap();
        let text = String::from_utf8(a).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"x\":1}"
        );
        assert!(!text.contains("Date:"), "no clock-dependent headers");
        assert!(!text.contains("Connection:"), "close is a socket action, not bytes");

        let mut b = Vec::new();
        Response::overloaded(1).write_to(&mut b).unwrap();
        let text = String::from_utf8(b).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("\"error\""));
    }
}
