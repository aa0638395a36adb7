//! Shardd: an embeddable shard server — the frame service over
//! [`crate::pipeline`], which owns accepting, queueing, the worker pool,
//! idle connections and shutdown.
//!
//! A [`Shardd`] owns registered [`cvopt_table::Table`] shards and answers
//! one request per frame: a plan-level `Walk` (key the shard, fold every
//! partition it holds whole) or `Pick` (the rows a draw's ordinals name), or
//! a `Gather` of the fragment of a partition that straddles a shard
//! boundary. Every pass runs through [`LocalShard`] — the reference
//! implementation of the shard-pass surface — so a remote answer is
//! bit-identical to what the same shard would produce in process.
//!
//! A server's state changes only through `Register`, which replaces any
//! shard already stored under the same key: an idempotent replace, so a
//! coordinator re-registers shards after a server restart, a table changes
//! by being registered again with its new rows, and a `Register` delivered
//! twice leaves what one delivery leaves. Every other request is a read.

use std::collections::HashMap;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use cvopt_table::{LocalShard, Result, ShardReader, TableError};

use crate::frame::{read_head, write_frame};
use crate::pipeline::{lock, Connection, Next, Pipeline, Service};
use crate::wire::{Request, Response};

/// Connections that may wait for a worker. A connection beyond it is
/// dropped, which a [`crate::Peer`] answers with its reconnect-and-retry.
const QUEUE_CAPACITY: usize = 1024;

/// Only ever changed by a single `insert` after the fallible work is done,
/// so a lock poisoned by a panicking pass still guards a consistent map.
type ShardMap = Mutex<HashMap<String, Arc<LocalShard>>>;

/// A running shard server.
///
/// Dropping (or calling [`Shardd::shutdown`]) stops the accept loop, closes
/// every open connection, and joins all threads.
#[derive(Debug)]
pub struct Shardd {
    pipeline: Pipeline,
}

impl Shardd {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting connections, answering requests on `workers` threads.
    ///
    /// Any number of keep-alive connections share the workers; a quiet one
    /// is never expired, so an idle [`crate::Peer`] never meets a stale
    /// socket.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> io::Result<Shardd> {
        let mut pipeline = Pipeline::bind(addr, workers, QUEUE_CAPACITY, None)?;
        pipeline.serve(FrameService { shards: Mutex::new(HashMap::new()) });
        Ok(Shardd { pipeline })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.pipeline.addr()
    }

    /// Stop accepting, close open connections, and join all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.pipeline.shutdown();
    }
}

/// One frame in, one frame out, against the registered shards.
struct FrameService {
    shards: ShardMap,
}

/// The frame is decoded as it arrives, so no buffer ever holds a whole
/// payload. A payload that does not decode costs its request, not the
/// connection: the rest of it is skipped and the answer is an `Error`. A
/// read that fails — the peer hung up or stalled mid-frame — closes the
/// connection, whose stream has lost its place.
impl Service for FrameService {
    fn answer(&self, conn: &mut Connection) -> Next {
        let Ok(len) = read_head(&mut conn.reader) else { return Next::Close };
        let mut body = (&mut conn.reader).take(len as u64);
        let response = match Request::decode_from(&mut body, len) {
            Ok(Ok(request)) => handle_request(&self.shards, request),
            Ok(Err(e)) if skipped(&mut body) => Response::Error { message: e.to_string() },
            _ => return Next::Close,
        };
        match write_frame(&mut conn.writer, &response.encode()) {
            Ok(_) => Next::Keep,
            Err(_) => Next::Close,
        }
    }
}

/// Whether the rest of a frame's body could be read past.
fn skipped(body: &mut io::Take<&mut BufReader<TcpStream>>) -> bool {
    io::copy(body, &mut io::sink()).is_ok() && body.limit() == 0
}

/// Execute one request against the shard map, folding lookup and pass
/// errors into [`Response::Error`].
fn handle_request(shards: &ShardMap, request: Request<'_>) -> Response {
    answer(shards, request).unwrap_or_else(|e| Response::Error { message: e.to_string() })
}

fn answer(shards: &ShardMap, request: Request<'_>) -> Result<Response> {
    match request {
        Request::Register { key, table } => {
            let rows = table.num_rows() as u64;
            lock(shards).insert(key, Arc::new(LocalShard::new(table.into_owned())));
            Ok(Response::Registered { rows })
        }
        Request::Health => {
            let mut keys: Vec<String> = lock(shards).keys().cloned().collect();
            keys.sort();
            Ok(Response::Health { keys })
        }
        Request::Walk { key, first_row, total_rows, exprs, fold } => {
            let [first_row, total_rows] = [first_row, total_rows].map(usize::try_from);
            let (Ok(first_row), Ok(total_rows)) = (first_row, total_rows) else {
                return Err(TableError::invalid("a walk past this platform's row numbers"));
            };
            with_shard(shards, &key, |shard| {
                Ok(Response::Walked { walked: shard.walk(first_row, total_rows, &exprs, &fold)? })
            })
        }
        Request::Pick { key, exprs, picks } => with_shard(shards, &key, |shard| {
            Ok(Response::Picked { picked: shard.pick(&exprs, &picks)? })
        }),
        Request::Gather { key, rows } => {
            with_shard(shards, &key, |shard| Ok(Response::Rows { table: shard.take_rows(&rows)? }))
        }
    }
}

/// Look up a shard and run `f` on it, outside the map's lock.
fn with_shard(
    shards: &ShardMap,
    key: &str,
    f: impl FnOnce(&LocalShard) -> Result<Response>,
) -> Result<Response> {
    let shard = lock(shards).get(key).cloned();
    let missing = || TableError::invalid(format!("no shard registered under key {key:?}"));
    let shard = shard.ok_or_else(missing)?;
    f(&shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Peer;
    use crate::frame::read_frame;
    use cvopt_table::reader::{Fold, Pick};
    use cvopt_table::{DataType, ScalarExpr, Table, TableBuilder, Value};
    use std::borrow::Cow;

    /// Register `table` on a running server via a temporary connection.
    fn register_table(addr: &str, key: &str, table: &Table) -> u64 {
        let peer = Peer::connect(addr).unwrap();
        match peer.call(&Request::Register { key: key.to_string(), table: Cow::Borrowed(table) }) {
            Ok(Response::Registered { rows }) => rows,
            other => panic!("unexpected response {other:?}"),
        }
    }

    fn tiny_table() -> Table {
        let mut b = TableBuilder::new(&[("k", DataType::Str), ("v", DataType::Float64)]);
        for (k, v) in [("a", 1.0), ("b", 2.0), ("a", 3.0)] {
            b.push_row(&[Value::str(k), Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn register_health_and_unknown_key() {
        let mut server = Shardd::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.addr().to_string();
        assert_eq!(register_table(&addr, "t/0", &tiny_table()), 3);

        let peer = Peer::connect(&addr).unwrap();
        match peer.call(&Request::Health).unwrap() {
            Response::Health { keys } => assert_eq!(keys, vec!["t/0".to_string()]),
            other => panic!("unexpected response {other:?}"),
        }

        // Unknown keys are application errors: the connection stays usable
        // and the circuit stays closed.
        let err = peer.call(&Request::Gather { key: "nope".into(), rows: vec![0] }).unwrap_err();
        assert!(matches!(err, crate::NetError::Remote(_)), "got {err}");
        assert!(!peer.circuit_open());
        assert!(peer.call(&Request::Health).is_ok());

        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn frame_arriving_slower_than_the_poll_interval_still_decodes() {
        use std::io::Write as _;

        let mut server = Shardd::bind("127.0.0.1:0", 1).unwrap();
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();

        // Dribble a Health frame with stalls far longer than a worker's
        // linger both inside the length prefix and inside the body; the
        // server must wait the frame out, not restart the read mid-stream.
        let mut frame = Vec::new();
        write_frame(&mut frame, &Request::Health.encode()).unwrap();
        for chunk in frame.chunks(2) {
            raw.write_all(chunk).unwrap();
            raw.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(100));
        }

        match Response::decode(&read_frame(&mut raw).unwrap()).unwrap() {
            Response::Health { keys } => assert!(keys.is_empty()),
            other => panic!("unexpected response {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn more_connections_than_workers_are_all_served() {
        let mut server = Shardd::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.addr().to_string();
        register_table(&addr, "t", &tiny_table());

        // A single worker must round-robin all four keep-alive connections.
        let peers: Vec<Peer> = (0..4).map(|_| Peer::connect(&addr).unwrap()).collect();
        for _round in 0..3 {
            for peer in &peers {
                match peer.call(&Request::Health).unwrap() {
                    Response::Health { keys } => assert_eq!(keys, vec!["t".to_string()]),
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        server.shutdown();
    }

    /// A small frame must not wait out Nagle plus the peer's delayed ACK:
    /// before accepted sockets set `TCP_NODELAY`, each warm call took ~40 ms.
    /// The median is what is bounded, so one scheduling hiccup cannot fail it.
    #[test]
    fn small_frames_are_not_held_back() {
        use std::time::{Duration, Instant};
        let mut server = Shardd::bind("127.0.0.1:0", 1).unwrap();
        let peer = Peer::connect(server.addr().to_string()).unwrap();
        peer.call(&Request::Health).unwrap();
        let mut calls: Vec<Duration> = (0..20)
            .map(|_| {
                let started = Instant::now();
                peer.call(&Request::Health).unwrap();
                started.elapsed()
            })
            .collect();
        calls.sort();
        assert!(calls[10] < Duration::from_millis(20), "median warm call took {:?}", calls[10]);
        server.shutdown();
    }

    #[test]
    fn gather_round_trips_rows() {
        let mut server = Shardd::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.addr().to_string();
        register_table(&addr, "t", &tiny_table());
        let peer = Peer::connect(&addr).unwrap();
        match peer.call(&Request::Gather { key: "t".into(), rows: vec![2, 0] }).unwrap() {
            Response::Rows { table } => {
                assert_eq!(table.num_rows(), 2);
                assert_eq!(format!("{:?}", table.row(0)), format!("{:?}", tiny_table().row(2)));
            }
            other => panic!("unexpected response {other:?}"),
        }
        server.shutdown();
    }

    /// One frame out and its answer back, on a raw connection.
    fn exchange(raw: &mut std::net::TcpStream, request: &Request) -> Response {
        write_frame(&mut *raw, &request.encode()).unwrap();
        Response::decode(&read_frame(raw).unwrap()).unwrap()
    }

    /// A `Register` whose body stops decoding partway costs that request
    /// only: the rest of the frame is skipped, the answer is an `Error`,
    /// and the next frame on the same connection is answered.
    #[test]
    fn a_frame_that_fails_to_decode_costs_one_request_not_the_connection() {
        let mut server = Shardd::bind("127.0.0.1:0", 1).unwrap();
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        let register = Request::Register { key: "t".into(), table: Cow::Owned(tiny_table()) };
        let mut payload = register.encode();
        // Row 1's code in column "k", ahead of column "v"'s three floats,
        // names a string past the dictionary.
        let code = payload.len() - 3 * 8 - 2 * 4;
        payload[code] = 7;
        let mut frames = Vec::new();
        write_frame(&mut frames, &payload).unwrap();
        write_frame(&mut frames, &Request::Health.encode()).unwrap();
        std::io::Write::write_all(&mut raw, &frames).unwrap();
        match Response::decode(&read_frame(&mut raw).unwrap()).unwrap() {
            Response::Error { message } => assert!(message.contains("past"), "{message}"),
            other => panic!("unexpected response {other:?}"),
        }
        match Response::decode(&read_frame(&mut raw).unwrap()).unwrap() {
            Response::Health { keys } => assert!(keys.is_empty()),
            other => panic!("unexpected response {other:?}"),
        }
        server.shutdown();
    }

    /// A peer that hangs up halfway through a frame's body loses its own
    /// connection, unanswered; every other connection is still served.
    #[test]
    fn a_peer_that_hangs_up_mid_body_closes_only_its_own_connection() {
        use std::io::{Read as _, Write as _};
        let mut server = Shardd::bind("127.0.0.1:0", 1).unwrap();
        let mut other = std::net::TcpStream::connect(server.addr()).unwrap();
        assert!(matches!(exchange(&mut other, &Request::Health), Response::Health { .. }));

        let mut quitter = std::net::TcpStream::connect(server.addr()).unwrap();
        quitter.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let register = Request::Register { key: "t".into(), table: Cow::Owned(tiny_table()) };
        let mut frame = Vec::new();
        write_frame(&mut frame, &register.encode()).unwrap();
        quitter.write_all(&frame[..frame.len() / 2]).unwrap();
        quitter.shutdown(std::net::Shutdown::Write).unwrap();
        let mut answer = Vec::new();
        let _ = quitter.read_to_end(&mut answer);
        assert!(answer.is_empty(), "a half frame was answered: {answer:?}");

        match exchange(&mut other, &Request::Health) {
            Response::Health { keys } => assert!(keys.is_empty()),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(register_table(&server.addr().to_string(), "t", &tiny_table()), 3);
        server.shutdown();
    }

    /// The one mutating frame delivered twice on one connection — what a
    /// transport retry after a lost response sends — leaves what one
    /// delivery leaves: both are acknowledged, and the shard then answers
    /// every pass as `LocalShard` does.
    #[test]
    fn duplicate_register_is_an_idempotent_replace() {
        let mut server = Shardd::bind("127.0.0.1:0", 1).unwrap();
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        let register = Request::Register { key: "t".into(), table: Cow::Owned(tiny_table()) };
        let register = register.encode();
        write_frame(&mut raw, &register).unwrap();
        write_frame(&mut raw, &register).unwrap();
        for _ in 0..2 {
            match Response::decode(&read_frame(&mut raw).unwrap()).unwrap() {
                Response::Registered { rows } => assert_eq!(rows, 3),
                other => panic!("unexpected response {other:?}"),
            }
        }
        match exchange(&mut raw, &Request::Health) {
            Response::Health { keys } => assert_eq!(keys, vec!["t".to_string()]),
            other => panic!("unexpected response {other:?}"),
        }

        let local = LocalShard::new(tiny_table());
        let exprs = vec![ScalarExpr::col("k")];
        let fold = Fold::Stats { columns: vec![ScalarExpr::col("v")] };
        let walk = Request::Walk {
            key: "t".into(),
            first_row: 0,
            total_rows: 3,
            exprs: exprs.clone(),
            fold: fold.clone(),
        };
        match exchange(&mut raw, &walk) {
            Response::Walked { walked } => {
                let want = local.walk(0, 3, &exprs, &fold).unwrap();
                assert_eq!(format!("{walked:?}"), format!("{want:?}"));
                assert_eq!(walked.sizes, [2, 1]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let picks = vec![Pick { key: 0, ordinals: vec![1] }, Pick { key: 1, ordinals: vec![0] }];
        let pick = Request::Pick { key: "t".into(), exprs: exprs.clone(), picks: picks.clone() };
        match exchange(&mut raw, &pick) {
            Response::Picked { picked } => {
                let want = local.pick(&exprs, &picks).unwrap();
                assert_eq!((&picked.rows, &want.rows), (&vec![2, 1], &vec![2, 1]));
                for r in 0..want.rows.len() {
                    let row = |t: &Table| format!("{:?}", t.row(r));
                    assert_eq!(row(&picked.table), row(&want.table));
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
        server.shutdown();
    }
}
