//! The connection pipeline both servers run on.
//!
//! ```text
//! accept loop ──► bounded queue ──► worker pool ──► Service::answer
//!      │        (Service::refuse        │  ▲
//!      │           when full)           ▼  │ bytes arrived
//!      └── one thread, blocking      idle watcher (parked connections)
//! ```
//!
//! * The **accept loop** (one thread, blocking `accept`) configures each
//!   new socket — stall timeouts, `TCP_NODELAY` — and `try_send`s it into
//!   a bounded queue. A full queue is answered right there through
//!   [`Service::refuse`] — overload costs one write on the accept thread,
//!   never a worker.
//! * The **worker pool** (a fixed number of threads) drains the queue. A
//!   worker calls [`Service::answer`] only when the connection has bytes
//!   waiting, so a message is read whole under one stall timeout and a
//!   peer that stalls mid-message loses its connection instead of
//!   desyncing it. After an answer the worker lingers a few milliseconds
//!   for the follow-up request; a connection with back-to-back requests
//!   goes to the back of the queue whenever others are waiting, and one
//!   that falls silent is parked instead of pinning the worker. A panic
//!   inside the service closes that one connection; the worker lives on.
//! * The **idle watcher** (one thread) sweeps parked connections with
//!   non-blocking peeks: a readable one re-enters the queue (or is refused,
//!   exactly like a fresh arrival), a closed or expired one is dropped.
//! * **Shutdown** is idempotent: it stops the accept loop (closing the
//!   listener), lets each worker finish the request it is answering,
//!   closes every queued and parked connection, and joins every thread.
//!
//! A protocol plugs in through [`Service`], which only says how to answer
//! one ready request; it never sees the queue, the parked list, the stop
//! flag or a thread. [`Pipeline::bind`] takes the three values the two
//! servers differ on.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a read or write may make no progress before the peer counts
/// as stalled mid-message and loses its connection.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a worker lingers on a connection waiting for its next request
/// before parking it. Long enough to catch a busy client's immediate
/// follow-up, short enough that an idle connection never pins a worker.
const LINGER: Duration = Duration::from_millis(5);

/// How often the idle watcher sweeps its parked connections.
const SWEEP: Duration = Duration::from_millis(1);

/// What to do with a connection after answering one request on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Keep it open for the next request.
    Keep,
    /// Close it.
    Close,
}

/// How a protocol answers the connections the pipeline hands it.
pub trait Service: Send + Sync + 'static {
    /// Answer the one request whose bytes are waiting on `conn`.
    fn answer(&self, conn: &mut Connection) -> Next;

    /// The bounded queue is full and `conn` is being turned away: write
    /// the protocol's overload answer, if it has one. Runs on the accept
    /// or watcher thread; the connection is closed afterwards.
    fn refuse(&self, _conn: &mut Connection) {}
}

/// One accepted connection. The buffered reader lives as long as the
/// connection — a pipelined next request sits in its buffer — and the
/// writer is a clone of the same socket, so a service can write while the
/// reader is borrowed.
#[derive(Debug)]
pub struct Connection {
    /// Buffered read half.
    pub reader: BufReader<TcpStream>,
    /// Write half (the same socket).
    pub writer: TcpStream,
    served: usize,
    /// When the watcher gives up on the connection, while it is parked.
    expires: Option<Instant>,
}

/// What a peek at a connection found.
enum Peek {
    Ready,
    Idle,
    Closed,
}

impl Connection {
    fn new(stream: TcpStream) -> io::Result<Connection> {
        stream.set_read_timeout(Some(STALL_TIMEOUT))?;
        stream.set_write_timeout(Some(STALL_TIMEOUT))?;
        // Every message here is a whole request or response: never hold a
        // small one back waiting for the peer's delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Connection { reader: BufReader::new(stream), writer, served: 0, expires: None })
    }

    /// Requests already answered on this connection.
    pub fn served(&self) -> usize {
        self.served
    }

    /// Whether bytes are waiting, under whatever blocking mode and read
    /// timeout the socket currently has.
    fn peek(&self) -> Peek {
        if !self.reader.buffer().is_empty() {
            return Peek::Ready;
        }
        match self.writer.peek(&mut [0u8; 1]) {
            Ok(0) => Peek::Closed,
            Ok(_) => Peek::Ready,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Peek::Idle
            }
            Err(_) => Peek::Closed,
        }
    }
}

/// What the pipeline's threads share.
#[derive(Debug)]
struct Shared {
    workers: usize,
    /// How long a parked connection may stay silent; `None` is forever.
    idle: Option<Duration>,
    stop: AtomicBool,
    /// The queue; `None` is the shutdown sentinel that stops one worker.
    sender: SyncSender<Option<Connection>>,
    receiver: Mutex<Receiver<Option<Connection>>>,
    /// Connections queued but not yet picked up by a worker.
    depth: Arc<AtomicUsize>,
    parked: Mutex<Vec<Connection>>,
}

/// Lock a mutex whose every critical section leaves its data valid at
/// every step, so that poisoning by a panicking thread is safe to ignore.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// Queue `conn` for a worker, or hand it back when the queue is full.
    fn enqueue(&self, conn: Connection) -> Result<(), Connection> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.sender.try_send(Some(conn)).map_err(|refused| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            let (TrySendError::Full(job) | TrySendError::Disconnected(job)) = refused;
            job.expect("only shutdown sends the sentinel, and it does not use try_send")
        })
    }

    /// The backpressure decision, shared by the accept loop (fresh
    /// connections) and the idle watcher (woken ones): both give the same
    /// answer under the same pressure.
    fn admit(&self, conn: Connection, service: &impl Service) {
        if let Err(mut conn) = self.enqueue(conn) {
            service.refuse(&mut conn);
        }
    }

    /// Hand a silent connection to the watcher (non-blocking from here on,
    /// so a sweep never stalls behind one socket).
    fn park(&self, mut conn: Connection) {
        if conn.writer.set_nonblocking(true).is_ok() {
            conn.expires = self.idle.map(|idle| Instant::now() + idle);
            lock(&self.parked).push(conn);
        }
    }

    /// One pass of the idle watcher over the parked connections.
    fn sweep(&self, service: &impl Service) {
        let mut parked = lock(&self.parked);
        let now = Instant::now();
        let mut i = 0;
        while i < parked.len() {
            match parked[i].peek() {
                Peek::Idle if parked[i].expires.is_none_or(|at| now < at) => i += 1,
                Peek::Ready => {
                    let woken = parked.swap_remove(i);
                    if woken.writer.set_nonblocking(false).is_ok() {
                        self.admit(woken, service);
                    }
                }
                Peek::Idle | Peek::Closed => drop(parked.swap_remove(i)),
            }
        }
    }
}

fn accept_loop<S: Service>(listener: TcpListener, shared: &Shared, service: &S) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.and_then(Connection::new) {
            Ok(conn) => shared.admit(conn, service),
            // Out of descriptors, most likely: do not spin on it.
            Err(_) => thread::sleep(SWEEP),
        }
    }
}

fn worker_loop<S: Service>(shared: &Shared, service: &S) {
    loop {
        // Hold the lock only for the dequeue itself.
        let job = lock(&shared.receiver).recv();
        let Ok(Some(mut conn)) = job else { return };
        shared.depth.fetch_sub(1, Ordering::Relaxed);
        loop {
            let _ = conn.writer.set_read_timeout(Some(LINGER));
            let found = conn.peek();
            let _ = conn.writer.set_read_timeout(Some(STALL_TIMEOUT));
            match found {
                Peek::Ready => {}
                Peek::Idle => {
                    shared.park(conn);
                    break;
                }
                Peek::Closed => break,
            }
            match panic::catch_unwind(AssertUnwindSafe(|| service.answer(&mut conn))) {
                Ok(Next::Keep) => conn.served += 1,
                Ok(Next::Close) => break,
                Err(_) => {
                    eprintln!("cvopt-net: a request handler panicked; closing its connection");
                    break;
                }
            }
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Others are waiting: this connection's next request takes its
            // turn behind them.
            if shared.depth.load(Ordering::Relaxed) > 0 {
                match shared.enqueue(conn) {
                    Ok(()) => break,
                    Err(back) => conn = back,
                }
            }
        }
    }
}

fn watcher_loop<S: Service>(shared: &Shared, service: &S) {
    while !shared.stop.load(Ordering::SeqCst) {
        thread::sleep(SWEEP);
        shared.sweep(service);
    }
}

/// A bound listener and, once [`Pipeline::serve`] is called, the threads
/// answering its connections. Dropping it shuts it down.
#[derive(Debug)]
pub struct Pipeline {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<TcpListener>,
    accept: Option<JoinHandle<()>>,
    threads: Vec<JoinHandle<()>>,
}

impl Pipeline {
    /// Bind `addr` (port 0 for an ephemeral port) for `workers` threads
    /// (at least one) behind a queue of `queue_capacity` connections —
    /// more are refused, and with a capacity of 0 so is every connection
    /// that finds no worker already waiting — closing a parked connection
    /// that stays silent for `idle` (`None`: never). Nothing is accepted
    /// until [`Pipeline::serve`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        workers: usize,
        queue_capacity: usize,
        idle: Option<Duration>,
    ) -> io::Result<Pipeline> {
        let listener = TcpListener::bind(addr)?;
        let (sender, receiver) = mpsc::sync_channel(queue_capacity);
        let shared = Shared {
            workers: workers.max(1),
            idle,
            stop: AtomicBool::new(false),
            sender,
            receiver: Mutex::new(receiver),
            depth: Arc::new(AtomicUsize::new(0)),
            parked: Mutex::new(Vec::new()),
        };
        Ok(Pipeline {
            addr: listener.local_addr()?,
            shared: Arc::new(shared),
            listener: Some(listener),
            accept: None,
            threads: Vec::new(),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gauge of connections queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.shared.depth)
    }

    /// Start the accept loop, the workers and the idle watcher, answering
    /// through `service`. Does nothing when already serving.
    pub fn serve<S: Service>(&mut self, service: S) {
        let Some(listener) = self.listener.take() else { return };
        let service = Arc::new(service);
        let spawn = |run: fn(&Shared, &S)| {
            let (shared, service) = (Arc::clone(&self.shared), Arc::clone(&service));
            thread::spawn(move || run(&shared, &service))
        };
        self.threads = (0..self.shared.workers).map(|_| spawn(worker_loop)).collect();
        self.threads.push(spawn(watcher_loop));
        let shared = Arc::clone(&self.shared);
        self.accept = Some(thread::spawn(move || accept_loop(listener, &shared, &*service)));
    }

    /// Stop accepting, let in-flight requests finish, close every other
    /// connection, and join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with one throwaway connection. When the bound
        // address is not directly connectable (say 0.0.0.0), fall back to
        // loopback on the same port; if neither connects, detach the
        // accept thread instead of hanging the shutdown.
        let loopback = SocketAddr::from(([127, 0, 0, 1], self.addr.port()));
        let woke = [self.addr, loopback]
            .iter()
            .any(|addr| TcpStream::connect_timeout(addr, Duration::from_secs(1)).is_ok());
        if woke {
            let _ = accept.join();
        }
        // One sentinel per worker, behind whatever is already queued.
        for _ in 0..self.shared.workers {
            let _ = self.shared.sender.send(None);
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Every thread is gone: close what they left behind.
        lock(&self.shared.parked).clear();
        while lock(&self.shared.receiver).try_recv().is_ok() {}
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read, Write};

    /// Echoes one line per request, except that `panic` panics.
    struct Echo;

    impl Service for Echo {
        fn answer(&self, conn: &mut Connection) -> Next {
            let mut line = String::new();
            if conn.reader.read_line(&mut line).unwrap_or(0) == 0 {
                return Next::Close;
            }
            assert_ne!(line, "panic\n", "asked to panic");
            match conn.writer.write_all(line.as_bytes()) {
                Ok(()) => Next::Keep,
                Err(_) => Next::Close,
            }
        }

        fn refuse(&self, conn: &mut Connection) {
            let _ = conn.writer.write_all(b"busy\n");
        }
    }

    fn bind(queue_capacity: usize) -> Pipeline {
        Pipeline::bind("127.0.0.1:0", 1, queue_capacity, None).unwrap()
    }

    /// Connect to a pipeline that is not serving yet and accept by hand, so
    /// the test decides where the server-side connection goes.
    fn connect(pipeline: &Pipeline) -> (TcpStream, Connection) {
        let client = TcpStream::connect(pipeline.addr()).unwrap();
        let (stream, _) = pipeline.listener.as_ref().unwrap().accept().unwrap();
        (client, Connection::new(stream).unwrap())
    }

    fn exchange(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply
    }

    #[test]
    fn a_panicking_service_costs_one_connection_not_the_worker() {
        let mut pipeline = bind(4);
        pipeline.serve(Echo);
        let mut doomed = TcpStream::connect(pipeline.addr()).unwrap();
        assert_eq!(exchange(&mut doomed, "panic\n"), "", "closed unanswered");
        let mut next = TcpStream::connect(pipeline.addr()).unwrap();
        assert_eq!(exchange(&mut next, "still here\n"), "still here\n");
    }

    #[test]
    fn a_full_queue_refuses_fresh_and_woken_connections_alike() {
        let pipeline = bind(1);
        let shared = &pipeline.shared;
        let (_queued, conn) = connect(&pipeline);
        shared.admit(conn, &Echo);
        assert_eq!(shared.depth.load(Ordering::Relaxed), 1);

        let (mut fresh, conn) = connect(&pipeline);
        shared.admit(conn, &Echo);
        assert_eq!(exchange(&mut fresh, ""), "busy\n");

        let (mut parked, conn) = connect(&pipeline);
        shared.park(conn);
        shared.sweep(&Echo);
        assert_eq!(lock(&shared.parked).len(), 1, "a silent connection stays parked");
        parked.write_all(b"wake\n").unwrap();
        while !lock(&shared.parked).is_empty() {
            shared.sweep(&Echo);
        }
        assert_eq!(exchange(&mut parked, ""), "busy\n");
        assert_eq!(shared.depth.load(Ordering::Relaxed), 1, "refusals never queue");
    }

    #[test]
    fn shutdown_closes_queued_and_parked_connections_and_is_idempotent() {
        // Queue one connection and park another before any thread exists,
        // then stop right after starting: wherever the worker and the
        // watcher have got to, the shutdown has to close both and return.
        let mut pipeline = bind(4);
        let (mut queued, conn) = connect(&pipeline);
        pipeline.shared.enqueue(conn).unwrap();
        let (mut parked, conn) = connect(&pipeline);
        pipeline.shared.park(conn);

        pipeline.serve(Echo);
        let started = Instant::now();
        pipeline.shutdown();
        assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());
        for stream in [&mut queued, &mut parked] {
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap_or(0), 0, "closed by the shutdown");
        }
        assert!(TcpStream::connect(pipeline.addr()).is_err(), "the listener is closed");
        pipeline.shutdown();
    }
}
