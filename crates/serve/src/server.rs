//! The TCP accept loop and fixed-size worker pool.
//!
//! Everything is plain `std` and blocks instead of polling: the accept
//! loop sits in a blocking `accept`, and a *bounded*
//! `mpsc::sync_channel` feeds a fixed pool of scoped worker threads
//! that block in `recv`. [`StopHandle::stop`] shuts the listening
//! socket down, which wakes the blocked `accept` with an error; the
//! accept loop then drops the channel's sender, and that drop is what
//! wakes and ends each worker. Connections are HTTP/1.1 keep-alive,
//! with per-connection read/write deadlines so a stalled peer can never
//! wedge a worker (the bounded-read property the fuzz suite exercises
//! end to end). A burst of slow clients cannot grow the queue or the
//! open-fd count without bound either: connections arriving while the
//! queue is full are shed with a best-effort 503 and closed.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use nanocost_trace::stack_registry;

use crate::api;
use crate::http::{self, Response};
use crate::state::{ProfileRing, ServerState, WorkerStat};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker thread count (clamped to at least one).
    pub workers: usize,
    /// Per-connection read/write deadline; also how long a kept-alive
    /// connection may sit idle between requests.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            io_timeout: Duration::from_secs(2),
        }
    }
}

/// Per-worker depth of the bounded connection queue. With the default
/// 2s deadline a full queue drains in a few seconds, so a deeper
/// backlog would only hold file descriptors open for peers that will
/// time out anyway — shed them instead.
const QUEUE_DEPTH_PER_WORKER: usize = 8;

/// Write deadline for the best-effort 503 sent to a shed connection;
/// the accept loop must never block on a peer that refuses to read.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// Pause after an `accept` error that is not a dropped handshake (fd
/// exhaustion, kernel memory): the pending connection stays in the
/// backlog, so retrying at once would spin the acceptor and starve the
/// workers whose progress frees descriptors. An idle or healthy server
/// never takes this path.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// A bound server, ready to run.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: ServerState,
    config: ServerConfig,
}

/// Makes a running [`Server::run`] return. It holds a duplicate of the
/// listening socket, so stopping can never touch an unrelated, reused
/// descriptor.
#[derive(Debug)]
pub struct StopHandle {
    listener: TcpListener,
}

impl StopHandle {
    /// Shuts the listening socket down: a blocked `accept` wakes with
    /// an error, and the accept loop ends. Idempotent; stopping before
    /// `run` starts makes `run` return at once.
    pub fn stop(&self) {
        shutdown_listener(self.listener.as_raw_fd());
    }

    /// The descriptor [`shutdown_listener`] takes, for a signal handler
    /// that cannot reach this handle. It stays valid while the handle
    /// lives.
    #[must_use]
    pub fn raw_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }
}

extern "C" {
    #[link_name = "shutdown"]
    fn sys_shutdown(fd: i32, how: i32) -> i32;
}

/// `SHUT_RD` from `<sys/socket.h>`.
const SHUT_RD: i32 = 0;

/// Shuts down the listening socket `fd` for reading, which wakes every
/// thread blocked in `accept` on it. It is one `shutdown(2)` call and
/// so async-signal-safe: a SIGTERM handler may call it. A descriptor
/// that is not a socket only makes the call fail.
pub fn shutdown_listener(fd: RawFd) {
    // SAFETY: shutdown(2) takes plain integers and touches no memory
    // of this process.
    unsafe {
        sys_shutdown(fd, SHUT_RD);
    }
}

impl Server {
    /// Binds the listener and builds fresh default [`ServerState`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_with_state(config, ServerState::new())
    }

    /// Binds the listener around pre-built state (the `serve` bin uses
    /// this to apply `ServerStateConfig::from_env`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with_state(config: ServerConfig, state: ServerState) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            state,
            config,
        })
    }

    /// The bound address (resolves the ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (exposed for in-process tests).
    #[must_use]
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// A handle that stops [`Server::run`] from any thread.
    ///
    /// # Errors
    ///
    /// Propagates the failure to duplicate the listening socket.
    pub fn stop_handle(&self) -> std::io::Result<StopHandle> {
        Ok(StopHandle {
            listener: self.listener.try_clone()?,
        })
    }

    /// Serves until a [`StopHandle`] stops it: accepts connections on
    /// the calling thread and dispatches them to the worker pool
    /// through a bounded queue. Connections arriving while the queue is
    /// full are shed with a 503 rather than queued, and per-connection
    /// I/O errors are contained to their connection. Returns once every
    /// worker has drained: once stopped, each kept-alive connection is
    /// closed after its next response, and one sitting idle closes at
    /// the I/O deadline.
    pub fn run(&self) {
        let workers = self.config.workers.max(1);
        let stats = self.state.install_workers(workers);
        self.start_profiler();
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(workers * QUEUE_DEPTH_PER_WORKER);
        let rx = Mutex::new(rx);
        // Read once per response to choose `Connection: close`; never
        // waited on.
        let stopping = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for stat in &stats {
                scope.spawn(|| {
                    worker_loop(&self.state, &rx, self.config.io_timeout, &stopping, stat);
                });
            }
            self.accept_loop(&tx);
            stopping.store(true, Ordering::Relaxed);
            // The workers' shutdown signal.
            drop(tx);
        });
    }

    /// Accepts until the listener is shut down, queueing each
    /// connection or shedding it when the queue is full.
    fn accept_loop(&self, tx: &mpsc::SyncSender<TcpStream>) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                // A shut-down listener is no longer listening: stop.
                Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => return,
                // The peer gave up before we took it: take the next.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    continue;
                }
            };
            self.state.note_conn_open();
            // Counted before the send so a worker's pop can never
            // precede its push.
            self.state.note_queue_push();
            match tx.try_send(stream) {
                Ok(()) => {}
                // Queue saturated (slowloris burst or plain overload):
                // shed instead of queueing, keeping backlog and open-fd
                // count bounded.
                Err(mpsc::TrySendError::Full(stream)) => {
                    self.state.note_queue_pop();
                    reject_busy(&self.state, stream);
                }
                // Workers only exit once the sender is dropped.
                Err(mpsc::TrySendError::Disconnected(stream)) => {
                    self.state.note_queue_pop();
                    drop(stream);
                    self.state.note_conn_close();
                    return;
                }
            }
        }
    }

    /// Starts the continuous stack profiler (when configured on) and
    /// wires its sample stream into this server's profile ring. The
    /// sink holds a `Weak` so a dropped server (tests bind many) never
    /// keeps its ring alive, and the process-wide sampler keeps running
    /// for whichever servers remain.
    fn start_profiler(&self) {
        let hz = self.state.profile_hz();
        if hz == 0 {
            return;
        }
        let ring: Weak<ProfileRing> = Arc::downgrade(self.state.profile_ring());
        stack_registry::add_sink(Box::new(move |snaps, t_ns| {
            if let Some(ring) = ring.upgrade() {
                ring.push_batch(snaps, t_ns);
            }
        }));
        // Idempotent across servers: the first caller's rate wins.
        let _ = stack_registry::start_sampler(hz);
    }
}

/// Sheds one connection when the worker queue is full: a best-effort
/// 503 under a short write deadline, then close. Each shed feeds the
/// shed-rate SLO objective.
fn reject_busy(state: &ServerState, mut stream: TcpStream) {
    state.note_shed(nanocost_trace::epoch_nanos());
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let _ = Response::error(503, "connection queue full").write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    // A shed connection was counted open by the accept loop.
    state.note_conn_close();
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Serves queued connections until the accept loop drops the sender.
fn worker_loop(
    state: &ServerState,
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    io_timeout: Duration,
    stopping: &AtomicBool,
    stat: &WorkerStat,
) {
    loop {
        let wait_started = Instant::now();
        let next = rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv();
        stat.idle_ns
            .fetch_add(nanos(wait_started.elapsed()), Ordering::Relaxed);
        let Ok(stream) = next else {
            return;
        };
        state.note_queue_pop();
        let started = Instant::now();
        let idle = handle_connection(state, stream, io_timeout, stopping, stat);
        let busy = started.elapsed().saturating_sub(idle);
        stat.idle_ns.fetch_add(nanos(idle), Ordering::Relaxed);
        stat.busy_ns.fetch_add(nanos(busy), Ordering::Relaxed);
        state.note_conn_close();
    }
}

/// Serves one kept-alive connection: parse, route, respond, and repeat
/// until the client asks to close (`Connection: close` or HTTP/1.0),
/// a request fails or gets an error status, the connection sits idle
/// past the deadline, another connection is waiting for a worker, or
/// the server is `stopping`. Parse failures become their mapped 4xx
/// response; a peer that stalls mid-request gets a 408 (or a silent
/// close if it stopped reading too). A reused connection that ends or
/// idles out before its next request's first byte closes silently.
/// Each response counts as one `served` on `stat` as it is written.
/// Returns the time spent waiting for requests after the first.
fn handle_connection(
    state: &ServerState,
    mut stream: TcpStream,
    io_timeout: Duration,
    stopping: &AtomicBool,
    stat: &WorkerStat,
) -> Duration {
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    let mut idle = Duration::ZERO;
    let mut reused = false;
    loop {
        let read_started = Instant::now();
        let read = http::read_next_request(&mut stream, &mut carry);
        if reused {
            idle += read_started.elapsed();
        }
        let (response, keep_alive) = match read {
            Ok(request) => {
                let response = api::handle(state, &request);
                let keep_alive = request.keep_alive()
                    && response.status < 400
                    && !state.has_queued_connections()
                    && !stopping.load(Ordering::Relaxed);
                (response, keep_alive)
            }
            // No byte of a next request arrived: EOF or idle deadline.
            Err(_) if reused && carry.is_empty() => break,
            Err(e) => (Response::error(e.status(), &e.to_string()), false),
        };
        let written = response.write_framed(&mut stream, keep_alive);
        stat.served.fetch_add(1, Ordering::Relaxed);
        if written.is_err() || !keep_alive {
            break;
        }
        reused = true;
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    idle
}
