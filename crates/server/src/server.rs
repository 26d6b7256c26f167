//! The threaded HTTP *connection engine*: listener, bounded worker pool
//! with admission control, keep-alive session management, and the
//! readiness reactor holding idle sessions. What the engine does **not**
//! know is what the requests mean — that lives behind the [`App`] trait,
//! implemented by [`crate::app::IkrqApp`] (the v1 search route table and
//! response cache) and by out-of-crate applications such as the
//! `ikrq-router` front tier, which reuse the exact same parsing,
//! admission, parking and shutdown machinery.
//!
//! # Concurrency model
//!
//! One acceptor thread plus a fixed pool of worker threads. The acceptor
//! never parses HTTP; it only counts. If admitting a connection would push
//! the number of open connections (queued + being served) past
//! [`ServerConfig::max_connections`], the connection is *shed*: a detached
//! helper thread drains one request and answers `429` with the stable
//! `overloaded` error body, so overload degrades into fast, well-formed
//! rejections instead of unbounded queueing.
//!
//! # Connection reuse
//!
//! Connections are persistent sessions, not worker property. A worker
//! serves a session while it has work: it reads requests off a
//! persistent [`HttpConnection`] (so pipelined bytes carry over between
//! requests), answers each, and keeps going while the next request is
//! already arriving. Once a session goes quiet for one poll interval the
//! worker *parks* it — hands the socket to the readiness **reactor**
//! (`crate::reactor`), a single thread that registers every idle session
//! with the kernel poller and blocks until one becomes readable — and
//! moves on, so idle keep-alive clients never pin workers (or cost CPU
//! at all while idle). Fairness: while another session waits for a
//! worker, a session is parked after every request it is served (and
//! within a ~1 ms tick while quiet), wherever its next request is; the
//! reactor re-queues it behind the waiting ones. When bytes arrive on a
//! parked session the reactor re-queues it to the worker pool with its
//! buffer and request count intact; sessions whose
//! [`ServerConfig::idle_timeout`] expires inside the wait are closed on
//! a timer-aware deadline, not a sweep. The reactor needs a unix poller
//! (`netpoll`): where none can start, [`serve`] returns the error. A
//! session ends when the peer asks for `close` (honored on both HTTP/1.0
//! and 1.1), the idle timeout or per-connection request cap fires, or
//! shutdown begins.
//!
//! Admission control is accounted per *request*: each parsed request
//! acquires one of [`ServerConfig::max_in_flight`] slots, and a saturated
//! server answers `429` for that request while keeping the connection
//! usable — a reused connection sheds and recovers without reconnecting.
//! Graceful shutdown finishes the requests being executed, then closes
//! idle and queued sessions within one poll interval.
//!
//! # Caching
//!
//! Successful `POST /v1/search` responses are cached body-verbatim in a
//! sharded LRU ([`ikrq_core::ResponseCache`]) keyed by
//! [`ikrq_core::SearchRequest::cache_key`] — the request's deterministic
//! JSON plus the registry's venue epoch. A hit replays the exact bytes of
//! the original response (including its `timing` block) and is flagged with
//! the `x-ikrq-cache: hit` header; registering or removing a venue bumps
//! the epoch and thereby orphans every cached entry at once.

use crate::http::{HttpConnection, HttpError, Request, Response};
use crate::protocol::{ApiVersion, ErrorBody, ErrorCode};
use ikrq_core::{CacheConfig, CacheStats};
use serde::Serialize;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections (0 means one per available core).
    pub workers: usize,
    /// Admission bound on *requests* being executed at once; a request
    /// arriving past it is answered `429 overloaded` without closing its
    /// connection (0 means `4 × workers`). Note that each worker executes
    /// one request at a time, so in-flight can never exceed the worker
    /// count: this cap only produces 429s when set *below* `workers`. At
    /// or above it (including the default), overload degrades by queueing
    /// connections up to [`max_connections`] instead.
    ///
    /// [`max_connections`]: ServerConfig::max_connections
    pub max_in_flight: usize,
    /// Bound on open connections (queued + being served) before the accept
    /// path sheds new ones with `429` (0 means `4 × max_in_flight`).
    pub max_connections: usize,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
    /// Largest accepted `requests` array in a batch call.
    pub max_batch_size: usize,
    /// Sizing of the response cache.
    pub cache: CacheConfig,
    /// Per-socket read timeout while a request is being received, so a
    /// stalled client cannot pin a worker mid-request.
    pub read_timeout: Duration,
    /// Whether to honor keep-alive at all; `false` restores the PR 2
    /// close-after-one-response behaviour regardless of what clients ask.
    pub keep_alive: bool,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (connection recycling; 0 means unlimited).
    pub max_requests_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            max_in_flight: 0,
            max_connections: 0,
            max_body_bytes: 1024 * 1024,
            max_batch_size: 256,
            cache: CacheConfig::default(),
            read_timeout: Duration::from_secs(10),
            keep_alive: true,
            idle_timeout: Duration::from_secs(30),
            max_requests_per_conn: 0,
        }
    }
}

impl ServerConfig {
    /// Worker threads after resolving the `0 = one per core` default —
    /// what [`App::handle`] implementations report in their stats bodies.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
    }

    pub(crate) fn effective_max_in_flight(&self) -> usize {
        if self.max_in_flight > 0 {
            return self.max_in_flight;
        }
        self.effective_workers() * 4
    }

    pub(crate) fn effective_max_connections(&self) -> usize {
        if self.max_connections > 0 {
            return self.max_connections;
        }
        self.effective_max_in_flight() * 4
    }
}

/// The application half of the server. The connection engine owns sockets,
/// framing, admission and parking; the app owns request *meaning*: it maps
/// one parsed [`Request`] to one [`Response`]. `handle` runs on a worker
/// thread under the in-flight admission slot, wrapped in `catch_unwind`
/// (a panicking handler costs one `500`, not one worker).
pub trait App: Send + Sync + 'static {
    /// Answers one parsed request. `engine` is a point-in-time view of the
    /// connection engine (configuration plus live counters) for stats-style
    /// endpoints.
    fn handle(&self, request: &Request, engine: &EngineView<'_>) -> Response;

    /// Response-cache counters folded into [`ServerStats::cache`]; apps
    /// without a cache report zeros.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// What an [`App`] may observe about the connection engine serving it:
/// the configuration and a snapshot of the live counters.
pub struct EngineView<'a> {
    /// The configuration the engine was started with.
    pub config: &'a ServerConfig,
    /// Effective `RLIMIT_NOFILE` soft limit after the startup raise
    /// (0 when unknown or the platform has no such limit).
    pub nofile_limit: u64,
    /// Resolved [`ServerConfig::max_in_flight`].
    pub max_in_flight: usize,
    /// Resolved [`ServerConfig::max_connections`].
    pub max_connections: usize,
    /// Counter snapshot taken when the request was admitted.
    pub stats: ServerStats,
}

/// Point-in-time server counters, exposed on `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServerStats {
    /// Requests answered by a worker (any status).
    pub requests_served: u64,
    /// Requests answered `429` — shed at accept or past the in-flight cap.
    pub requests_shed: u64,
    /// Requests being executed right now.
    pub in_flight: usize,
    /// Connections admitted since the server started.
    pub connections_accepted: u64,
    /// Connections open right now (queued + being served).
    pub connections_active: usize,
    /// Requests served on a reused connection (the second and later
    /// requests of each keep-alive session).
    pub keep_alive_reuses: u64,
    /// Keep-alive sessions currently parked on the reactor.
    pub connections_parked: usize,
    /// Parked sessions the reactor woke and handed back to the worker
    /// pool because their socket became readable (data, EOF or error —
    /// the worker's read tells them apart).
    pub reactor_wakeups: u64,
    /// Reactor waits that returned without waking a session, expiring
    /// an idle timer, or being asked to (stale timer ticks, EINTR) —
    /// the poll-churn signal.
    pub reactor_spurious_wakeups: u64,
    /// Response-cache counters.
    pub cache: CacheStats,
}

/// Upper bound on concurrent shed-helper threads. Past this, rejected
/// connections are dropped without a response — under a genuine flood the
/// polite 429 path must itself stay bounded.
const MAX_SHED_THREADS: usize = 64;

/// How long a worker lingers on a quiet session before parking it. Long
/// enough that a client firing back-to-back requests stays on its worker
/// while no other session waits (no handoff latency on the hot path),
/// short enough that an idle client frees the worker almost immediately.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The tick size of the linger: the worker waits on a quiet session in
/// [`LINGER_TICK`] slices (up to [`IDLE_POLL`] total) instead of one
/// blocking wait, so queue pressure or shutdown arriving *mid-linger* is
/// observed within a tick. On small pools (one worker on a one-core
/// host) a single blocking [`IDLE_POLL`] would add 50 ms of queueing
/// delay to every waiting connection per exchange; with ticks, a quiet
/// session is parked within ~1 ms of another session queueing.
const LINGER_TICK: Duration = Duration::from_millis(1);

/// How long [`drain_then_close`] reads-and-discards a rejected request's
/// leftover bytes before dropping the socket regardless.
const ERROR_DRAIN_WINDOW: Duration = Duration::from_millis(250);

/// One keep-alive session in flight through the worker/reactor
/// machinery: the connection (with any carried-over buffered bytes) plus
/// how many requests it has answered so far.
pub(crate) struct Session {
    pub(crate) conn: HttpConnection<TcpStream>,
    requests_on_conn: u64,
}

/// State shared by the acceptor, the workers, the reactor and the
/// handle.
pub(crate) struct Shared {
    app: Arc<dyn App>,
    pub(crate) config: ServerConfig,
    max_in_flight: usize,
    max_connections: usize,
    in_flight: AtomicUsize,
    connections: AtomicUsize,
    /// Sessions sent to the worker channel and not yet picked up — the
    /// queue-pressure signal that parks a session after each request and
    /// cuts the idle linger short (see [`serve_session`]).
    queued: AtomicUsize,
    accepted: AtomicU64,
    served: AtomicU64,
    reused: AtomicU64,
    shed: AtomicU64,
    shed_helpers: AtomicUsize,
    pub(crate) shutdown: AtomicBool,
    /// Count of sessions currently parked (reactor inbox + slab).
    pub(crate) parked: AtomicUsize,
    /// Parked sessions woken for readability by the reactor.
    pub(crate) reactor_wakeups: AtomicU64,
    /// Reactor waits that found nothing to do (see [`ServerStats`]).
    pub(crate) reactor_spurious_wakeups: AtomicU64,
    /// The effective `RLIMIT_NOFILE` soft limit after the startup raise
    /// (0 when the platform has no such limit or querying it failed).
    nofile_limit: u64,
    /// The readiness reactor that holds parked sessions.
    pub(crate) reactor: crate::reactor::Reactor,
}

impl Shared {
    /// Ends a session: drops the socket and releases its connection slot.
    pub(crate) fn close_session(&self, session: Session) {
        drop(session);
        self.connections.fetch_sub(1, Ordering::SeqCst);
    }

    /// Closes everything still on the reactor's inbox (the post-join
    /// shutdown sweep; parked sessions are idle by definition). The
    /// reactor's registered slab is drained by the reactor thread itself
    /// before it exits.
    fn close_all_parked(&self) {
        for session in self.reactor.drain_inbox() {
            self.parked.fetch_sub(1, Ordering::SeqCst);
            self.close_session(session);
        }
    }
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            requests_served: self.served.load(Ordering::SeqCst),
            requests_shed: self.shed.load(Ordering::SeqCst),
            in_flight: self.in_flight.load(Ordering::SeqCst),
            connections_accepted: self.accepted.load(Ordering::SeqCst),
            connections_active: self.connections.load(Ordering::SeqCst),
            keep_alive_reuses: self.reused.load(Ordering::SeqCst),
            connections_parked: self.parked.load(Ordering::SeqCst),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::SeqCst),
            reactor_spurious_wakeups: self.reactor_spurious_wakeups.load(Ordering::SeqCst),
            cache: self.app.cache_stats(),
        }
    }
}

/// A running server: joinable threads plus the shared state.
///
/// Dropping the handle shuts the server down and joins every thread.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Stops accepting, finishes requests being executed, closes idle and
    /// queued connections, and joins every thread. Idempotent; also
    /// invoked by `Drop`. The listener is non-blocking, the reactor is
    /// notified out of its wait, and idle connections poll the shutdown
    /// flag, so this returns within a poll interval plus the time the
    /// workers need to finish in-flight requests — no wake-up connection
    /// is involved that could itself fail.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The reactor may be blocked in `wait()` with no deadline; the
        // notify pipe gets it to observe the flag immediately.
        self.shared.reactor.wake();
        self.join_threads();
    }

    /// Joins the acceptor, the reactor and the workers, then closes what
    /// is still parked: a worker may have parked a session after the
    /// reactor already drained and exited.
    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.close_all_parked();
    }

    /// Blocks until the server stops (it only stops via [`shutdown`], so
    /// for a foreground `ikrq serve` this means "forever").
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn join(mut self) {
        self.join_threads();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and starts the v1 search server: the connection engine
/// with the [`crate::app::IkrqApp`] route table and response cache on top.
pub fn serve(
    service: Arc<ikrq_core::IkrqService>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let app = Arc::new(crate::app::IkrqApp::new(service, config.cache));
    serve_app(app, addr, config)
}

/// Like [`serve`], but with a hot-reload source: `POST /v1/admin/reload`
/// re-builds a hosted venue through `reloader` and swaps it in atomically
/// (see [`crate::app::VenueReloader`]).
pub fn serve_with_reloader(
    service: Arc<ikrq_core::IkrqService>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    reloader: crate::app::VenueReloader,
) -> std::io::Result<ServerHandle> {
    let app = Arc::new(crate::app::IkrqApp::new(service, config.cache).with_reloader(reloader));
    serve_app(app, addr, config)
}

/// Binds `addr` and starts the connection engine serving an arbitrary
/// [`App`] — the entry point for non-search applications (the `ikrq-router`
/// front tier) that want the same keep-alive, admission and reactor
/// machinery under a different route table. Fails if the readiness
/// reactor cannot start (no poller on the platform, fd exhaustion).
pub fn serve_app(
    app: Arc<dyn App>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    // Non-blocking accept lets the acceptor poll the shutdown flag instead
    // of parking forever in `accept()` (which would make shutdown depend on
    // a wake-up connection that can fail, e.g. on 0.0.0.0 binds).
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = config.effective_workers();
    let max_in_flight = config.effective_max_in_flight();
    let max_connections = config.effective_max_connections();
    // Lift the fd soft limit toward the hard limit before the first
    // accept: every parked keep-alive session holds an fd, so the
    // default soft limit (often 1024) would cap the very workload the
    // reactor exists for.
    let nofile_limit = effective_nofile_limit();
    let reactor = crate::reactor::Reactor::new()?;
    let shared = Arc::new(Shared {
        app,
        config,
        max_in_flight,
        max_connections,
        in_flight: AtomicUsize::new(0),
        connections: AtomicUsize::new(0),
        queued: AtomicUsize::new(0),
        accepted: AtomicU64::new(0),
        served: AtomicU64::new(0),
        reused: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        shed_helpers: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        parked: AtomicUsize::new(0),
        reactor_wakeups: AtomicU64::new(0),
        reactor_spurious_wakeups: AtomicU64::new(0),
        nofile_limit,
        reactor,
    });

    let (sender, receiver): (Sender<Session>, Receiver<Session>) = channel();
    let receiver = Arc::new(Mutex::new(receiver));
    let mut worker_handles = Vec::with_capacity(workers);
    for index in 0..workers {
        let receiver = Arc::clone(&receiver);
        let shared = Arc::clone(&shared);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("ikrq-worker-{index}"))
                .spawn(move || worker_loop(&shared, &receiver))
                .expect("spawn worker thread"),
        );
    }

    let reactor = {
        let shared = Arc::clone(&shared);
        let sender = sender.clone();
        std::thread::Builder::new()
            .name("ikrq-reactor".into())
            .spawn(move || crate::reactor::reactor_loop(&shared, sender))
            .expect("spawn reactor thread")
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ikrq-acceptor".into())
            .spawn(move || accept_loop(&shared, &listener, sender))
            .expect("spawn acceptor thread")
    };

    Ok(ServerHandle {
        shared,
        addr,
        acceptor: Some(acceptor),
        reactor: Some(reactor),
        workers: worker_handles,
    })
}

/// Raises the `RLIMIT_NOFILE` soft limit toward the hard limit — once
/// per process, logging the outcome once — and returns the effective
/// soft limit (0 when the platform has no such limit or the query
/// failed). Every parked session costs one fd, so this is the knob that
/// decides how many keep-alive connections the server can hold.
#[cfg(unix)]
fn effective_nofile_limit() -> u64 {
    use std::sync::OnceLock;
    static NOFILE: OnceLock<u64> = OnceLock::new();
    *NOFILE.get_or_init(|| match netpoll::raise_nofile_limit() {
        Ok(limit) => {
            if limit.raised() {
                eprintln!(
                    "ikrq-server: raised RLIMIT_NOFILE soft limit {} -> {} (hard {})",
                    limit.previous_soft, limit.soft, limit.hard
                );
            } else {
                eprintln!(
                    "ikrq-server: RLIMIT_NOFILE soft limit already {} (hard {})",
                    limit.soft, limit.hard
                );
            }
            limit.soft
        }
        Err(error) => {
            eprintln!("ikrq-server: could not raise RLIMIT_NOFILE: {error}");
            0
        }
    })
}

#[cfg(not(unix))]
fn effective_nofile_limit() -> u64 {
    0
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, sender: Sender<Session>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                // The listener is non-blocking; the accepted socket must
                // not be (inheritance is platform-dependent).
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Request/response over a persistent connection: Nagle
                // plus the peer's delayed ACK would add ~40 ms to every
                // exchange, so send segments immediately.
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
                stream
            }
            Err(error) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let idle = error.kind() == std::io::ErrorKind::WouldBlock;
                // Idle poll interval, or backoff after real accept failures
                // (EMFILE during an fd flood must not busy-spin a core).
                std::thread::sleep(Duration::from_millis(if idle { 5 } else { 20 }));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let admitted = shared
            .connections
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
                (current < shared.max_connections).then_some(current + 1)
            })
            .is_ok();
        if admitted {
            shared.accepted.fetch_add(1, Ordering::SeqCst);
            let session = Session {
                conn: HttpConnection::new(stream),
                requests_on_conn: 0,
            };
            shared.queued.fetch_add(1, Ordering::SeqCst);
            if sender.send(session).is_err() {
                shared.queued.fetch_sub(1, Ordering::SeqCst);
                shared.connections.fetch_sub(1, Ordering::SeqCst);
                break;
            }
        } else {
            shed(Arc::clone(shared), stream);
        }
    }
    // Dropping the sender disconnects the channel once the reactor drops
    // its clone too; workers then drain what is queued and exit.
}

/// Rejects a connection with `429 overloaded` on a detached helper thread,
/// so a slow peer cannot stall the acceptor. The helpers themselves are
/// capped at [`MAX_SHED_THREADS`]; past that the connection is simply
/// dropped — the overload path must not be a thread/fd amplifier.
fn shed(shared: Arc<Shared>, stream: TcpStream) {
    shared.shed.fetch_add(1, Ordering::SeqCst);
    let capped = shared
        .shed_helpers
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
            (current < MAX_SHED_THREADS).then_some(current + 1)
        })
        .is_err();
    if capped {
        return; // dropping the stream resets the connection
    }
    let read_timeout = shared.config.read_timeout;
    let max_body = shared.config.max_body_bytes;
    let helper_shared = Arc::clone(&shared);
    let spawned = std::thread::Builder::new()
        .name("ikrq-shed".into())
        .spawn(move || {
            let _ = stream.set_read_timeout(Some(read_timeout));
            let _ = stream.set_write_timeout(Some(read_timeout));
            let mut conn = HttpConnection::new(stream);
            // Drain the request so well-behaved clients see the response
            // instead of a reset, then answer and close.
            let _ = conn.read_request(max_body);
            let response = overloaded_response("server is at its connection limit; retry later");
            let _ = conn.write_response(&response, false);
            helper_shared.shed_helpers.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        shared.shed_helpers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: &Shared, receiver: &Mutex<Receiver<Session>>) {
    loop {
        let session = {
            let receiver = receiver.lock().expect("worker receiver lock");
            receiver.recv()
        };
        let Ok(session) = session else {
            break;
        };
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        match serve_session(shared, session) {
            SessionFate::Closed => {}
            SessionFate::Park(session) => park_session(shared, session),
        }
    }
}

/// Whether an I/O error is transient — a read-timeout / would-block tick
/// or a signal-interrupted syscall (EINTR) — rather than a real fault. A
/// profiler's SIGPROF landing mid-read must not cost a healthy connection.
fn is_transient(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// What became of a session a worker served.
enum SessionFate {
    /// The session ended; its connection slot has been released.
    Closed,
    /// The session should move to the reactor: it went quiet, or it
    /// yields its worker to a queued session.
    Park(Session),
}

/// Serves a session while it has work: wait for the next request in
/// [`LINGER_TICK`] slices, read it under the request read-timeout,
/// answer it, and loop while keep-alive holds. A session quiet for one
/// [`IDLE_POLL`] is handed back for parking instead of pinning the
/// worker, and so is one whose worker another session is waiting for.
fn serve_session(shared: &Shared, mut session: Session) -> SessionFate {
    // Whether this turn has served a request or lingered a tick. Only
    // then may the session yield, so every dequeue makes progress: no
    // park/wake livelock when every session has a request waiting.
    let mut progressed = false;
    // When the current wait for the next request began.
    let mut wait_started: Option<Instant> = None;
    loop {
        // Fairness: while another session waits for a worker, yield after
        // every served request and every linger tick, wherever the next
        // request is — in the connection buffer (pipelining), in the
        // kernel (back-to-back sends) or not yet sent. Otherwise a busy
        // client would keep this worker for as long as it keeps sending.
        // The reactor re-queues the session behind the waiting ones.
        if progressed && shared.queued.load(Ordering::SeqCst) > 0 {
            return SessionFate::Park(session);
        }
        // Wait-for-request phase. Pipelined bytes skip the wait entirely.
        if !session.conn.has_buffered_data() {
            if shared.shutdown.load(Ordering::SeqCst) {
                shared.close_session(session);
                return SessionFate::Closed;
            }
            if wait_started.is_none() {
                if session
                    .conn
                    .get_mut()
                    .set_read_timeout(Some(LINGER_TICK))
                    .is_err()
                {
                    shared.close_session(session);
                    return SessionFate::Closed;
                }
                wait_started = Some(Instant::now());
            }
            match session.conn.poll_data() {
                Ok(true) => wait_started = None,
                Ok(false) => {
                    // Peer closed cleanly between requests.
                    shared.close_session(session);
                    return SessionFate::Closed;
                }
                Err(error) if is_transient(&error) => {
                    // A quiet session parks once it has had its full
                    // linger; until then, tick again.
                    if wait_started.is_some_and(|started| started.elapsed() >= IDLE_POLL) {
                        return SessionFate::Park(session);
                    }
                    progressed = true;
                    continue;
                }
                Err(_) => {
                    shared.close_session(session);
                    return SessionFate::Closed;
                }
            }
        }
        // Read phase: the first byte arrived; the rest of the request must
        // land within the per-read timeout.
        if session
            .conn
            .get_mut()
            .set_read_timeout(Some(shared.config.read_timeout))
            .is_err()
        {
            shared.close_session(session);
            return SessionFate::Closed;
        }
        let outcome = session.conn.read_request(shared.config.max_body_bytes);
        let (response, keep_alive, framing_lost) = match outcome {
            Ok(request) => {
                shared.served.fetch_add(1, Ordering::SeqCst);
                if session.requests_on_conn > 0 {
                    shared.reused.fetch_add(1, Ordering::SeqCst);
                }
                session.requests_on_conn += 1;
                let cap = shared.config.max_requests_per_conn as u64;
                let keep = shared.config.keep_alive
                    && request.wants_keep_alive()
                    && (cap == 0 || session.requests_on_conn < cap)
                    && !shared.shutdown.load(Ordering::SeqCst);
                (answer_request(shared, &request), keep, false)
            }
            Err(HttpError::PayloadTooLarge { declared, limit }) => {
                shared.served.fetch_add(1, Ordering::SeqCst);
                // The oversized body was never read, so the request
                // framing is lost — answer, then close.
                (
                    error_response(
                        ErrorCode::PayloadTooLarge,
                        format!("body of {declared} bytes exceeds the {limit} byte limit"),
                    ),
                    false,
                    true,
                )
            }
            Err(HttpError::Malformed(message)) => {
                shared.served.fetch_add(1, Ordering::SeqCst);
                (
                    error_response(ErrorCode::MalformedHttp, message),
                    false,
                    true,
                )
            }
            // Clean close between requests, or the connection died
            // mid-request — nothing to answer either way.
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => {
                shared.close_session(session);
                return SessionFate::Closed;
            }
        };
        let written = session.conn.write_response(&response, keep_alive).is_ok();
        if !written || !keep_alive {
            if written && framing_lost {
                // The rejected request's remaining bytes are still unread;
                // dropping the socket now would RST and could destroy the
                // just-written error response before the peer reads it.
                drain_then_close(shared, session);
            } else {
                shared.close_session(session);
            }
            return SessionFate::Closed;
        }
        progressed = true;
    }
}

/// Closes a session whose request was rejected with bytes still unread on
/// the socket (the payload-too-large / malformed paths). Dropping such a
/// socket makes the OS send RST, which on a real network can discard the
/// just-written error response before the peer reads it (RFC 9112 §9.6
/// recommends a half-close here). So: shut down the write side — the FIN
/// tells the peer to stop sending — then read-and-discard what is already
/// in flight until the peer closes or [`ERROR_DRAIN_WINDOW`] passes; the
/// drain is time-bounded so a hostile peer cannot pin the worker.
fn drain_then_close(shared: &Shared, mut session: Session) {
    use std::io::Read;
    let stream = session.conn.get_mut();
    let deadline = Instant::now() + ERROR_DRAIN_WINDOW;
    if stream.shutdown(std::net::Shutdown::Write).is_ok()
        && stream.set_read_timeout(Some(ERROR_DRAIN_WINDOW)).is_ok()
    {
        let mut sink = [0u8; 4096];
        loop {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) if Instant::now() >= deadline => break,
                Ok(_) => {}
            }
        }
    }
    shared.close_session(session);
}

/// Hands a session to the reactor (its socket stays blocking — the
/// reactor never reads it, the kernel poller watches the fd). During
/// shutdown the reactor may already be gone, so the session closes
/// instead.
fn park_session(shared: &Shared, session: Session) {
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.close_session(session);
        return;
    }
    shared.parked.fetch_add(1, Ordering::SeqCst);
    shared.reactor.park(session);
}

/// Sends a previously parked session back to the worker pool (the
/// reactor's wake path). If the workers are already gone — shutdown won
/// the race — the session closes here.
pub(crate) fn requeue_session(shared: &Shared, sender: &Sender<Session>, session: Session) {
    shared.queued.fetch_add(1, Ordering::SeqCst);
    if let Err(returned) = sender.send(session) {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        shared.close_session(returned.0);
    }
}

/// Runs one parsed request through admission control and the route table.
/// A request past the in-flight cap is answered `429` without touching the
/// connection's keep-alive state, so reused connections shed and recover.
fn answer_request(shared: &Shared, request: &Request) -> Response {
    let admitted = shared
        .in_flight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
            (current < shared.max_in_flight).then_some(current + 1)
        })
        .is_ok();
    if !admitted {
        shared.shed.fetch_add(1, Ordering::SeqCst);
        return overloaded_response("server is at its in-flight request limit; retry later");
    }
    let view = EngineView {
        config: &shared.config,
        nofile_limit: shared.nofile_limit,
        max_in_flight: shared.max_in_flight,
        max_connections: shared.max_connections,
        stats: shared.stats(),
    };
    // A panicking handler must cost one response, not one worker.
    let response = catch_unwind(AssertUnwindSafe(|| shared.app.handle(request, &view)))
        .unwrap_or_else(|_| error_response(ErrorCode::Internal, "request handler panicked"));
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    response
}

/// The stable `429 overloaded` reply; `message` names which admission
/// bound was hit (connection vs in-flight) so operators tune the right
/// knob.
fn overloaded_response(message: &str) -> Response {
    let body = ErrorBody::new(ErrorCode::Overloaded, message);
    Response::json(ErrorCode::Overloaded.http_status(), body.to_json())
        .with_header("retry-after", "1")
}

/// The canonical error reply of the v1 protocol: the stable JSON error
/// body under the code's HTTP status. Shared by every [`App`] so a router
/// in front of a backend produces byte-identical error bodies.
pub fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::json(code.http_status(), ErrorBody::new(code, message).to_json())
}

// ---------------------------------------------------------------------
// Routing helpers shared by every App
// ---------------------------------------------------------------------

/// Splits a request path into its non-empty segments after validating the
/// leading protocol-version segment. `Err` carries the canonical
/// `not_found` / `unsupported_version` response — sharing this between the
/// search app and the router keeps their error bytes identical.
pub fn route_v1(request: &Request) -> Result<Vec<&str>, Response> {
    let segments: Vec<&str> = request
        .path
        .split('/')
        .filter(|segment| !segment.is_empty())
        .collect();
    let Some((&head, rest)) = segments.split_first() else {
        return Err(error_response(
            ErrorCode::NotFound,
            format!("no route at `/`; supported versions: {}", supported()),
        ));
    };
    let Some(version) = ApiVersion::from_segment(head) else {
        // Distinguish "a version we do not speak" from "not an API path".
        let looks_like_version = head.len() >= 2
            && head.starts_with('v')
            && head[1..].chars().all(|c| c.is_ascii_digit());
        return Err(if looks_like_version {
            error_response(
                ErrorCode::UnsupportedVersion,
                format!(
                    "unsupported protocol version `{head}`; supported: {}",
                    supported()
                ),
            )
        } else {
            error_response(
                ErrorCode::NotFound,
                format!("no route at `{}`", request.path),
            )
        });
    };
    debug_assert_eq!(version, ApiVersion::V1, "v1 is the only routed version");
    Ok(rest.to_vec())
}

fn supported() -> String {
    ApiVersion::SUPPORTED
        .iter()
        .map(|v| v.segment())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The canonical `405` reply naming the allowed method.
pub fn method_not_allowed(request: &Request, allow: &str) -> Response {
    error_response(
        ErrorCode::MethodNotAllowed,
        format!("`{}` does not allow {}", request.path, request.method),
    )
    .with_header("allow", allow)
}
