//! The daemon: listeners, admission control, workers, watchdog,
//! graceful drain.
//!
//! Std-only by construction — threads, blocking sockets with accept
//! polling, a `Mutex<VecDeque>` + `Condvar` admission queue. No async
//! runtime: the concurrency story is one reader thread per
//! connection, a fixed worker pool executing requests, and two
//! housekeeping threads (accept loops poll a shutdown flag; the
//! watchdog scans in-flight requests).
//!
//! Robustness envelope:
//!
//! - **Backpressure**: the admission queue is bounded. A request that
//!   arrives when it is full is *shed immediately* with an
//!   `overloaded` response carrying a `retry_after_ms` hint — the
//!   daemon never queues unboundedly and never blocks the reader
//!   thread on a full queue.
//! - **Deadlines & cancellation**: each request carries a
//!   [`CancelToken`] threaded into the SAT core. A disconnecting
//!   client cancels its queued and in-flight requests; the watchdog
//!   cancels requests overrunning their deadline by a configurable
//!   factor and recycles the worker if it still doesn't return.
//! - **Graceful drain**: `shutdown()` (wired to SIGTERM/SIGINT by the
//!   CLI) stops accepting connections, fails new requests with
//!   `shutting-down`, lets in-flight work finish within a drain
//!   budget, then flushes and compacts the proof-cache journal.

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gila_json::Value;
use gila_smt::CancelToken;
use gila_trace::{Event, SpanKind, Tracer};

use gila_verify::{CacheConfig, ProofCache};
use crate::protocol::{
    parse_frame, parse_request, read_frame, response_error, response_ok, response_overloaded,
    response_shutting_down, write_frame, Request, Stream,
};
use crate::service::Service;

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Listen {
    /// A TCP address (`host:port`; port 0 binds ephemerally).
    Tcp(String),
    /// A Unix-domain socket path (removed and re-bound if stale).
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listening endpoints; at least one is required.
    pub listeners: Vec<Listen>,
    /// Proof-cache configuration.
    pub cache: CacheConfig,
    /// Admission-queue bound; requests beyond it are shed.
    pub queue_cap: usize,
    /// Request-executing worker threads.
    pub workers: usize,
    /// Ignored: lint and verification requests each run on one thread.
    /// Kept only because perfbench still sets it.
    pub verify_jobs: Option<usize>,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// The watchdog cancels a request once it overruns its deadline by
    /// this factor, and recycles the worker at twice that.
    pub watchdog_factor: u32,
    /// Watchdog scan interval.
    pub watchdog_poll: Duration,
    /// How long a drain waits for in-flight work before giving up.
    pub drain_budget: Duration,
    /// Telemetry tracer.
    pub tracer: Tracer,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listeners: Vec::new(),
            cache: CacheConfig::default(),
            queue_cap: 64,
            workers: 2,
            verify_jobs: None,
            default_deadline: None,
            watchdog_factor: 4,
            watchdog_poll: Duration::from_millis(25),
            drain_budget: Duration::from_secs(30),
            tracer: Tracer::disabled(),
        }
    }
}

/// Why the daemon exited; the CLI maps these to exit codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every in-flight request finished and the journal was compacted.
    Clean,
    /// The drain budget expired with work still in flight; leftovers
    /// were cancelled. The journal still flushed (it flushes per
    /// record), but was not compacted.
    TimedOut,
}

/// One connection's shared write half: responses from workers and the
/// reader thread interleave at frame granularity under the mutex.
struct Conn {
    writer: Mutex<Stream>,
    alive: AtomicBool,
    /// Cancel tokens of this connection's outstanding requests, keyed
    /// by job sequence number; cancelled en masse when the reader sees
    /// EOF or an error, removed as each job completes.
    tokens: Mutex<Vec<(u64, CancelToken)>>,
}

impl Conn {
    fn send(&self, value: &Value) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let mut w = self.writer.lock().unwrap();
        if write_frame(&mut *w, value).is_err() {
            self.alive.store(false, Ordering::Relaxed);
        }
    }

    fn drop_dead(&self) {
        self.alive.store(false, Ordering::Relaxed);
        for (_, tok) in self.tokens.lock().unwrap().drain(..) {
            tok.cancel();
        }
    }
}

struct QueuedJob {
    /// Server-wide unique sequence number (clients may reuse ids).
    seq: u64,
    req: Request,
    cancel: CancelToken,
    deadline: Option<Duration>,
    conn: Arc<Conn>,
}

struct InFlight {
    cancel: CancelToken,
    started: Instant,
    deadline: Option<Duration>,
    /// Set when the watchdog already cancelled this request.
    watchdog_fired: bool,
    /// The zombie flag of the worker serving this request; setting it
    /// retires that worker after the current job (a replacement is
    /// spawned immediately).
    worker_zombie: Arc<AtomicBool>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    rejected_draining: AtomicU64,
    disconnect_cancelled: AtomicU64,
    watchdog_cancelled: AtomicU64,
    workers_recycled: AtomicU64,
    responses: AtomicU64,
}

struct ServerInner {
    service: Service,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_signal: Condvar,
    shutdown: AtomicBool,
    in_flight: Mutex<HashMap<u64, InFlight>>,
    next_job: AtomicU64,
    counters: Counters,
}

/// A handle for stopping and inspecting a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<ServerInner>,
}

/// A running daemon. Dropping it does *not* stop it; call
/// [`Server::shutdown_and_wait`] (or let the process exit).
pub struct Server {
    inner: Arc<ServerInner>,
    /// Actual bound TCP addresses (resolved ephemeral ports).
    pub tcp_addrs: Vec<std::net::SocketAddr>,
    /// Bound Unix socket paths.
    pub unix_paths: Vec<PathBuf>,
    accept_threads: Vec<thread::JoinHandle<()>>,
    watchdog: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Requests shutdown; returns immediately. The accept loops stop,
    /// queued-but-unstarted work is failed, in-flight work drains.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_signal.notify_all();
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Server + cache counters as a JSON object (the `stats` op).
    pub fn stats(&self) -> Value {
        self.inner.stats()
    }
}

impl ServerInner {
    fn stats(&self) -> Value {
        let c = &self.counters;
        let cache = self.service.cache.stats();
        let memo = self.service.memo_stats();
        Value::object(vec![
            ("requests".into(), (c.requests.load(Ordering::Relaxed) as f64).into()),
            ("responses".into(), (c.responses.load(Ordering::Relaxed) as f64).into()),
            ("shed".into(), (c.shed.load(Ordering::Relaxed) as f64).into()),
            (
                "rejected_draining".into(),
                (c.rejected_draining.load(Ordering::Relaxed) as f64).into(),
            ),
            (
                "disconnect_cancelled".into(),
                (c.disconnect_cancelled.load(Ordering::Relaxed) as f64).into(),
            ),
            (
                "watchdog_cancelled".into(),
                (c.watchdog_cancelled.load(Ordering::Relaxed) as f64).into(),
            ),
            (
                "workers_recycled".into(),
                (c.workers_recycled.load(Ordering::Relaxed) as f64).into(),
            ),
            ("queue_depth".into(), (self.queue.lock().unwrap().len() as f64).into()),
            (
                "in_flight".into(),
                (self.in_flight.lock().unwrap().len() as f64).into(),
            ),
            ("cache_entries".into(), (cache.entries as f64).into()),
            ("cache_bytes".into(), (cache.bytes as f64).into()),
            ("cache_hits".into(), (cache.hits as f64).into()),
            ("cache_misses".into(), (cache.misses as f64).into()),
            ("cache_inserts".into(), (cache.inserts as f64).into()),
            ("cache_evictions".into(), (cache.evictions as f64).into()),
            ("cache_recovered".into(), (cache.recovered as f64).into()),
            (
                "cache_recovery_dropped".into(),
                (cache.recovery_dropped as f64).into(),
            ),
            ("memo_entries".into(), (memo.entries as f64).into()),
            ("memo_hits".into(), (memo.hits as f64).into()),
            ("memo_misses".into(), (memo.misses as f64).into()),
        ])
    }

    /// The reader thread calls this for each parsed request.
    fn dispatch(self: &Arc<Self>, req: Request, conn: &Arc<Conn>) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        match req.op.as_str() {
            // Control-plane ops answer inline on the reader thread:
            // they are cheap and must work even when the queue is full.
            "ping" => {
                conn.send(&response_ok(req.id, Value::String("pong".into())));
                self.counters.responses.fetch_add(1, Ordering::Relaxed);
                return;
            }
            "stats" => {
                conn.send(&response_ok(req.id, self.stats()));
                self.counters.responses.fetch_add(1, Ordering::Relaxed);
                return;
            }
            "shutdown" => {
                conn.send(&response_ok(req.id, Value::String("draining".into())));
                self.counters.responses.fetch_add(1, Ordering::Relaxed);
                self.shutdown.store(true, Ordering::SeqCst);
                self.queue_signal.notify_all();
                return;
            }
            _ => {}
        }
        if self.shutdown.load(Ordering::SeqCst) {
            self.counters.rejected_draining.fetch_add(1, Ordering::Relaxed);
            conn.send(&response_shutting_down(req.id));
            return;
        }
        let mut queue = self.queue.lock().unwrap();
        if queue.len() >= self.cfg.queue_cap {
            // Load shedding: answer *now* with a backoff hint scaled
            // to the backlog, instead of stalling the reader.
            drop(queue);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            let retry_ms = 100 * (1 + self.cfg.queue_cap as u64 / self.cfg.workers.max(1) as u64);
            self.cfg.tracer.record(|| {
                Event::new(SpanKind::Shed)
                    .label(&req.op)
                    .field("id", req.id)
                    .field("retry_after_ms", retry_ms)
            });
            conn.send(&response_overloaded(req.id, retry_ms));
            return;
        }
        let seq = self.next_job.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        conn.tokens.lock().unwrap().push((seq, cancel.clone()));
        let deadline = req.deadline.or(self.cfg.default_deadline);
        queue.push_back(QueuedJob {
            seq,
            req,
            cancel,
            deadline,
            conn: Arc::clone(conn),
        });
        drop(queue);
        self.queue_signal.notify_one();
    }

    /// Worker loop: pull, register, execute, respond — until shutdown
    /// empties the queue or this worker is flagged a zombie.
    fn worker_loop(self: &Arc<Self>, zombie: Arc<AtomicBool>) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if zombie.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let (q, _timeout) = self
                        .queue_signal
                        .wait_timeout(queue, Duration::from_millis(50))
                        .unwrap();
                    queue = q;
                }
            };
            if job.cancel.is_cancelled() {
                // Client disconnected while the job sat queued: all
                // its solver work is saved.
                self.counters.disconnect_cancelled.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.in_flight.lock().unwrap().insert(
                job.seq,
                InFlight {
                    cancel: job.cancel.clone(),
                    started: Instant::now(),
                    deadline: job.deadline,
                    watchdog_fired: false,
                    worker_zombie: Arc::clone(&zombie),
                },
            );
            let response = self
                .service
                .execute(&job.req, job.cancel.clone(), job.deadline);
            self.in_flight.lock().unwrap().remove(&job.seq);
            // Keep the connection's token list from growing without
            // bound on long-lived connections.
            job.conn
                .tokens
                .lock()
                .unwrap()
                .retain(|(seq, _)| *seq != job.seq);
            if job.cancel.is_cancelled() && !job.conn.alive.load(Ordering::Relaxed) {
                // Nobody is listening; don't write into a dead socket.
                self.counters.disconnect_cancelled.fetch_add(1, Ordering::Relaxed);
            } else {
                job.conn.send(&response);
                self.counters.responses.fetch_add(1, Ordering::Relaxed);
            }
            if zombie.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    /// Watchdog: cancel deadline overruns, recycle stuck workers.
    fn watchdog_loop(self: &Arc<Self>) {
        let mut shutdown_seen: Option<Instant> = None;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                // Keep policing deadlines through the drain, but never
                // outlive the drain budget (a wedged job must not pin
                // the watchdog, or shutdown would hang on its join).
                let seen = *shutdown_seen.get_or_insert_with(Instant::now);
                if self.in_flight.lock().unwrap().is_empty()
                    || seen.elapsed() > self.cfg.drain_budget
                {
                    return;
                }
            }
            thread::sleep(self.cfg.watchdog_poll);
            let factor = self.cfg.watchdog_factor.max(1);
            let mut recycle: Vec<Arc<AtomicBool>> = Vec::new();
            {
                let mut in_flight = self.in_flight.lock().unwrap();
                for fl in in_flight.values_mut() {
                    let Some(deadline) = fl.deadline else { continue };
                    let elapsed = fl.started.elapsed();
                    if !fl.watchdog_fired && elapsed > deadline * factor {
                        // Budget enforcement inside the solver should
                        // have returned long ago; force the issue.
                        fl.cancel.cancel();
                        fl.watchdog_fired = true;
                        self.counters.watchdog_cancelled.fetch_add(1, Ordering::Relaxed);
                    } else if fl.watchdog_fired
                        && elapsed > deadline * factor * 2
                        && !fl.worker_zombie.swap(true, Ordering::SeqCst)
                    {
                        // Cancelled and *still* stuck (a job wedged
                        // outside any solver loop): retire the worker
                        // when it eventually returns and backfill now
                        // so throughput doesn't decay.
                        recycle.push(Arc::clone(&fl.worker_zombie));
                    }
                }
            }
            for _ in recycle {
                self.counters.workers_recycled.fetch_add(1, Ordering::Relaxed);
                self.spawn_worker();
            }
        }
    }

    fn spawn_worker(self: &Arc<Self>) {
        let inner = Arc::clone(self);
        let zombie = Arc::new(AtomicBool::new(false));
        thread::Builder::new()
            .name("gila-serve-worker".into())
            .spawn(move || inner.worker_loop(zombie))
            .expect("spawning worker thread");
    }

    fn reader_loop(self: &Arc<Self>, stream: Stream) {
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let conn = Arc::new(Conn {
            writer: Mutex::new(write_half),
            alive: AtomicBool::new(true),
            tokens: Mutex::new(Vec::new()),
        });
        let mut reader = BufReader::new(stream);
        loop {
            match read_frame(&mut reader) {
                Ok(Some(line)) => {
                    let req = parse_frame(&line).and_then(parse_request);
                    match req {
                        Ok(req) => self.dispatch(req, &conn),
                        Err(e) => {
                            // Envelope errors are answerable (id 0 =
                            // "couldn't read yours"); stay connected.
                            conn.send(&response_error(0, &format!("bad request: {e}")));
                        }
                    }
                }
                // EOF or torn/oversized frame: the stream cannot be
                // resynchronized — cancel everything this connection
                // still has outstanding and hang up.
                Ok(None) | Err(_) => {
                    conn.drop_dead();
                    return;
                }
            }
        }
    }
}

impl Server {
    /// Binds every listener, spawns workers, accept loops, and the
    /// watchdog, and returns the running daemon.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let cache = Arc::new(ProofCache::open(cfg.cache.clone())?);
        let service = Service::new(Arc::clone(&cache), cfg.tracer.clone());
        let inner = Arc::new(ServerInner {
            service,
            cfg: cfg.clone(),
            queue: Mutex::new(VecDeque::new()),
            queue_signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            counters: Counters::default(),
        });
        for _ in 0..cfg.workers.max(1) {
            inner.spawn_worker();
        }
        let mut tcp_addrs = Vec::new();
        let mut unix_paths = Vec::new();
        let mut accept_threads = Vec::new();
        for listen in &cfg.listeners {
            match listen {
                Listen::Tcp(addr) => {
                    let listener = TcpListener::bind(addr)?;
                    listener.set_nonblocking(true)?;
                    tcp_addrs.push(listener.local_addr()?);
                    let inner = Arc::clone(&inner);
                    accept_threads.push(
                        thread::Builder::new()
                            .name("gila-serve-accept".into())
                            .spawn(move || accept_tcp(inner, listener))?,
                    );
                }
                #[cfg(unix)]
                Listen::Unix(path) => {
                    // A stale socket file from a killed daemon blocks
                    // rebinding; recovery means removing it.
                    let _ = std::fs::remove_file(path);
                    let listener = UnixListener::bind(path)?;
                    listener.set_nonblocking(true)?;
                    unix_paths.push(path.clone());
                    let inner = Arc::clone(&inner);
                    accept_threads.push(
                        thread::Builder::new()
                            .name("gila-serve-accept".into())
                            .spawn(move || accept_unix(inner, listener))?,
                    );
                }
                #[cfg(not(unix))]
                Listen::Unix(path) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Unsupported,
                        format!("unix sockets unsupported here: {}", path.display()),
                    ));
                }
            }
        }
        let watchdog = {
            let inner = Arc::clone(&inner);
            Some(
                thread::Builder::new()
                    .name("gila-serve-watchdog".into())
                    .spawn(move || inner.watchdog_loop())?,
            )
        };
        Ok(Server {
            inner,
            tcp_addrs,
            unix_paths,
            accept_threads,
            watchdog,
        })
    }

    /// A cloneable handle for signal threads and tests.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Blocks until shutdown is requested (via [`ServerHandle::shutdown`]
    /// or a client `shutdown` op), then drains: in-flight work gets
    /// [`ServeConfig::drain_budget`] to finish, stragglers are
    /// cancelled, and the journal is flushed and compacted.
    pub fn shutdown_and_wait(self) -> DrainOutcome {
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(25));
        }
        let drain_started = Instant::now();
        self.inner.queue_signal.notify_all();
        // Fail whatever never reached a worker: clients get a definite
        // answer instead of a hang.
        {
            let mut queue = self.inner.queue.lock().unwrap();
            for job in queue.drain(..) {
                self.inner
                    .counters
                    .rejected_draining
                    .fetch_add(1, Ordering::Relaxed);
                job.conn.send(&response_shutting_down(job.req.id));
            }
        }
        let mut outcome = DrainOutcome::Clean;
        loop {
            if self.inner.in_flight.lock().unwrap().is_empty() {
                break;
            }
            if drain_started.elapsed() > self.inner.cfg.drain_budget {
                outcome = DrainOutcome::TimedOut;
                for fl in self.inner.in_flight.lock().unwrap().values() {
                    fl.cancel.cancel();
                }
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        for t in self.accept_threads {
            let _ = t.join();
        }
        if let Some(w) = self.watchdog {
            let _ = w.join();
        }
        // Worker threads exit on their own (shutdown flag + empty
        // queue); the cancelled stragglers of a timed-out drain may
        // still be inside a solve, which is why the journal flushes
        // per record and compaction below tolerates their absence.
        self.inner.cfg.tracer.record(|| {
            Event::new(SpanKind::Drain)
                .label(match outcome {
                    DrainOutcome::Clean => "clean",
                    DrainOutcome::TimedOut => "timed-out",
                })
                .field("wall_ns", drain_started.elapsed().as_nanos() as u64)
        });
        self.inner.cfg.tracer.flush();
        if outcome == DrainOutcome::Clean {
            let _ = self.inner.service.cache.flush_and_compact();
        }
        for path in &self.unix_paths {
            let _ = std::fs::remove_file(path);
        }
        outcome
    }
}

fn accept_tcp(inner: Arc<ServerInner>, listener: TcpListener) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let inner = Arc::clone(&inner);
                let _ = thread::Builder::new()
                    .name("gila-serve-conn".into())
                    .spawn(move || inner.reader_loop(Stream::Tcp(stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[cfg(unix)]
fn accept_unix(inner: Arc<ServerInner>, listener: UnixListener) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(&inner);
                let _ = thread::Builder::new()
                    .name("gila-serve-conn".into())
                    .spawn(move || inner.reader_loop(Stream::Unix(stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}
