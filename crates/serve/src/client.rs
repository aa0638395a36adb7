//! A minimal blocking HTTP client, just big enough to drive the server
//! from tests, examples, benchmarks, and smoke scripts without external
//! tooling.
//!
//! [`Client`] holds one persistent keep-alive connection and reuses it
//! across requests, reconnecting transparently when the server closes it
//! (idle timeout, per-connection request cap). The free functions
//! ([`request_raw`], [`get`], [`post`]) are one-shot: they send
//! `Connection: close` and read to EOF — exactly the bytes the
//! byte-identical determinism tests compare.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side I/O timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A persistent-connection HTTP client.
///
/// Requests reuse one TCP connection until the server closes it; a stale
/// connection (closed between requests) is detected on the next request
/// and replaced with a fresh one, retrying that request once. The
/// [`Client::connects`] counter says how many TCP connects were made —
/// the keep-alive tests pin it to 1 for N requests.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    /// A keep-alive client for `addr`. No connection is opened until the
    /// first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None, connects: 0 }
    }

    /// How many TCP connections this client has opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Send one request and return the raw response bytes (status line,
    /// headers, body — exactly as they came off the wire).
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Vec<u8>> {
        let reused = self.conn.is_some();
        match self.send_on_connection(method, path, body) {
            Ok(raw) => Ok(raw),
            // A reused connection may have been closed by the server
            // (idle timeout, request cap) after our last response: the
            // failure is detected here, on the next use. Reconnect and
            // retry once; a failure on a fresh connection is real.
            Err(_) if reused => self.send_on_connection(method, path, body),
            Err(e) => Err(e),
        }
    }

    /// Send one request and split the response into `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let raw = self.request_raw(method, path, body)?;
        parse_response(&raw)
    }

    /// `GET path` → `(status, body)`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body → `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, Some(body))
    }

    /// One write + one framed read on the current connection (opening it
    /// if needed). Any failure drops the connection so the next attempt
    /// starts fresh.
    fn send_on_connection(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Vec<u8>> {
        if self.conn.is_none() {
            self.conn = Some(BufReader::new(connect(self.addr)?));
            self.connects += 1;
        }
        let reader = self.conn.as_mut().expect("connection just ensured");
        let result = write_request(reader.get_ref(), self.addr, method, path, body, false)
            .and_then(|()| read_one_response(reader));
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

/// Read exactly one `Content-Length`-framed response off a persistent
/// connection, returning its raw bytes (head + body).
fn read_one_response(reader: &mut BufReader<TcpStream>) -> io::Result<Vec<u8>> {
    let mut raw = Vec::new();
    let mut content_length: usize = 0;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        raw.extend_from_slice(line.as_bytes());
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "invalid Content-Length")
                })?;
            }
        }
    }
    let head_len = raw.len();
    raw.resize(head_len + content_length, 0);
    reader.read_exact(&mut raw[head_len..])?;
    Ok(raw)
}

/// Send one request on its own connection and return the raw response
/// bytes (status line, headers, body — exactly as they came off the
/// wire). Sends `Connection: close` and reads to EOF.
pub fn request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Vec<u8>> {
    let stream = connect(addr)?;
    write_request(&stream, addr, method, path, body, true)?;
    read_response_raw(&stream)
}

/// Connect with the client-side timeouts, and with Nagle off: a request is
/// one whole message, never worth holding back for the server's ACK.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Write one request, head and body, as one buffer.
fn write_request(
    mut stream: &TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    close: bool,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    let connection = if close { "Connection: close\r\n" } else { "" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())
}

/// Read a whole to-EOF response off `stream` (the server closes
/// `Connection: close` requests after answering).
pub fn read_response_raw(mut stream: &TcpStream) -> io::Result<Vec<u8>> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Ok(raw)
}

/// Send one request and split the response into `(status, body)`.
pub fn request_parsed(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let raw = request_raw(addr, method, path, body)?;
    parse_response(&raw)
}

/// `GET path` → `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    request_parsed(addr, "GET", path, None)
}

/// `POST path` with a JSON body → `(status, body)`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
    request_parsed(addr, "POST", path, Some(body))
}

/// Split raw response bytes into `(status, body)`.
pub fn parse_response(raw: &[u8]) -> io::Result<(u16, String)> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        let (status, body) = parse_response(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{}");
        assert!(parse_response(b"no header end").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }
}
