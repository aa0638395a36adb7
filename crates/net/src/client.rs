//! Peer: a persistent client connection with retry and circuit breaking.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use crate::circuit::CircuitBreaker;
use crate::frame::{read_head, write_frame, HEAD_LEN};
use crate::wire::{DecodeError, Request, Response};

/// Client-side failure talking to a shard server.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// The peer answered with bytes that do not decode.
    Decode(DecodeError),
    /// The peer processed the request and reported an application error.
    Remote(String),
    /// The circuit breaker is open; the request was not attempted.
    CircuitOpen,
    /// The peer address did not resolve.
    BadAddress(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Decode(e) => write!(f, "{e}"),
            NetError::Remote(msg) => write!(f, "remote error: {msg}"),
            NetError::CircuitOpen => write!(f, "circuit open: peer is unavailable"),
            NetError::BadAddress(addr) => write!(f, "bad peer address: {addr}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Timeouts and resilience knobs for a [`Peer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-frame read/write timeout.
    pub io_timeout: Duration,
    /// Transport retries after the first attempt (reconnecting in between).
    pub retries: u32,
    /// Consecutive transport failures before the circuit opens.
    pub circuit_threshold: u32,
    /// How long an open circuit rejects requests before probing again.
    pub circuit_cooldown: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(10),
            retries: 1,
            circuit_threshold: 3,
            circuit_cooldown: Duration::from_secs(5),
        }
    }
}

/// A persistent connection to one shard server.
///
/// The TCP stream is lazily (re)connected and serialized behind a mutex —
/// the engine's scatter passes issue one in-flight request per peer, so a
/// single keep-alive connection per peer is the right shape. A transport
/// failure drops the connection, retries once on a fresh one, and feeds the
/// circuit breaker; an application-level [`Response::Error`] proves the peer
/// is healthy and does not.
#[derive(Debug)]
pub struct Peer {
    addr: String,
    resolved: SocketAddr,
    config: NetConfig,
    conn: Mutex<Option<TcpStream>>,
    circuit: CircuitBreaker,
}

impl Peer {
    /// Peer with default configuration.
    pub fn connect(addr: impl Into<String>) -> Result<Peer, NetError> {
        Peer::with_config(addr, NetConfig::default())
    }

    /// Peer with explicit timeouts and circuit parameters. Resolves the
    /// address eagerly but connects lazily on first use.
    pub fn with_config(addr: impl Into<String>, config: NetConfig) -> Result<Peer, NetError> {
        let addr = addr.into();
        let resolved = addr
            .to_socket_addrs()
            .map_err(|_| NetError::BadAddress(addr.clone()))?
            .next()
            .ok_or_else(|| NetError::BadAddress(addr.clone()))?;
        let circuit = CircuitBreaker::new(config.circuit_threshold, config.circuit_cooldown);
        Ok(Peer { addr, resolved, config, conn: Mutex::new(None), circuit })
    }

    /// The address this peer was created with.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the circuit breaker is currently rejecting requests.
    pub fn circuit_open(&self) -> bool {
        self.circuit.is_open()
    }

    /// Send one request and wait for its response.
    ///
    /// Retries transport failures up to `config.retries` times on a fresh
    /// connection — safe for every request, since `Register` is an
    /// idempotent replace and every other request is a read. Returns
    /// [`NetError::CircuitOpen`] without touching the network when the
    /// breaker is open.
    pub fn call(&self, request: &Request) -> Result<Response, NetError> {
        crate::record_request();
        if !self.circuit.admit() {
            return Err(NetError::CircuitOpen);
        }
        let payload = request.encode();
        let mut conn = self.conn.lock().unwrap();
        let mut last_err = None;
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                crate::record_retry();
            }
            match self.try_call(&mut conn, &payload) {
                Ok(decoded) => match decoded {
                    Ok(Response::Error { message }) => {
                        // The peer is alive and answered; only the request
                        // was bad. Keep the circuit closed.
                        self.circuit.record_success();
                        return Err(NetError::Remote(message));
                    }
                    Ok(resp) => {
                        self.circuit.record_success();
                        return Ok(resp);
                    }
                    Err(e) => {
                        // Mis-framed bytes poison the stream; reconnect, but
                        // do not retry — the re-sent request would decode to
                        // the same garbage.
                        *conn = None;
                        if self.circuit.record_failure() {
                            crate::record_circuit_open();
                        }
                        return Err(NetError::Decode(e));
                    }
                },
                Err(e) => {
                    *conn = None;
                    last_err = Some(e);
                }
            }
        }
        if self.circuit.record_failure() {
            crate::record_circuit_open();
        }
        Err(NetError::Io(last_err.expect("at least one attempt ran")))
    }

    /// One attempt: connect if needed, write the frame, decode the reply as
    /// it arrives.
    fn try_call(
        &self,
        conn: &mut Option<TcpStream>,
        payload: &[u8],
    ) -> io::Result<Result<Response, DecodeError>> {
        if conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.resolved, self.config.connect_timeout)?;
            stream.set_read_timeout(Some(self.config.io_timeout))?;
            stream.set_write_timeout(Some(self.config.io_timeout))?;
            stream.set_nodelay(true)?;
            *conn = Some(stream);
        }
        let stream = conn.as_mut().expect("connection just established");
        let sent = write_frame(stream, payload)?;
        crate::record_bytes_sent(sent);
        let len = read_head(stream)?;
        let response = Response::decode_from(stream, len)?;
        crate::record_bytes_received(HEAD_LEN + len as u64);
        Ok(response)
    }
}
