//! The daemon: connection handlers, bounded FIFO queue, fixed worker
//! pool, and the content-addressed result store.
//!
//! Concurrency model: two handler threads each block in `accept` on
//! their own clone of the listener and serve the connection they get
//! (every request is a cheap parse or a map lookup — the expensive work
//! happens on the workers). A client that sends its request slowly
//! holds one handler, for at most [`READ_TIMEOUT`], while the other
//! keeps answering. Workers block on
//! a `Condvar` over the queue, and all shared state sits behind one
//! `Mutex`. Reports are `Arc<str>`-shared so serving a cached report
//! never copies the bytes.
//!
//! Shutdown: [`Handle::shutdown`] (or a SIGTERM/SIGINT relayed through
//! [`crate::signal`]) flips the drain flag. From then on submissions
//! get 503, reads keep working and workers finish the queue. The worker
//! that finishes the last job wakes [`Server::run`], which wakes each
//! handler out of `accept` with a connection of its own, joins every
//! thread and returns — completed results are never lost mid-drain
//! (regression-tested in `service_e2e`).

use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use killi_obs::serve::{format_job_id, parse_job_id, JobId, ServeEvent, ServeMetrics};

use crate::http::{error_body, read_request, HttpError, Request, Response, READ_TIMEOUT};
use crate::spec::{job_id_for, parse_job_spec, JobSpec};

/// Connection handlers per server. Requests are cheap, so two answer
/// whatever the workers can keep up with, and the second keeps one slow
/// client from stalling everyone else. Each handler costs a thread
/// spawn at start-up and, under glibc, a malloc arena.
const HANDLERS: usize = 2;

/// How often [`Server::run`] looks at [`crate::signal::triggered`]
/// while it waits for a drain, when `heed_signals` is on.
const SIGNAL_POLL: Duration = Duration::from_millis(50);

/// Pause before a handler retries `accept` after the process ran out
/// of file descriptors or memory.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Why taking the state lock can fail.
const POISONED: &str = "a thread panicked while holding the server state";

/// Tuning of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1` unless exposed deliberately).
    pub host: String,
    /// Bind port; 0 asks the OS for an ephemeral one.
    pub port: u16,
    /// Worker threads executing sweeps.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get 429.
    pub queue_depth: usize,
    /// Completed reports kept before FIFO eviction.
    pub cache_cap: usize,
    /// Test-only: milliseconds each worker sleeps before starting a
    /// job, so tests can fill the queue deterministically. Zero in
    /// production.
    pub job_start_delay_ms: u64,
    /// Whether [`Server::run`] watches [`crate::signal::triggered`].
    /// The CLI daemon keeps this on; in-process tests turn it off so a
    /// signal test elsewhere in the binary cannot drain them.
    pub heed_signals: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 2,
            queue_depth: 32,
            cache_cap: 64,
            job_start_delay_ms: 0,
            heed_signals: true,
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Everything known about one submitted job.
struct JobRecord {
    /// Canonical config JSON — kept to detect the astronomically
    /// unlikely id collision and to re-run after cache eviction.
    canonical: String,
    config: JobSpec,
    state: JobState,
    /// The report bytes (`killi-sweep/v2` or `killi-vmin/v1`), exactly
    /// as the engine emits them; `None` until done or after eviction.
    report: Option<Arc<str>>,
    error: Option<String>,
}

/// Mutex-guarded mutable state.
#[derive(Default)]
struct Inner {
    jobs: HashMap<JobId, JobRecord>,
    queue: VecDeque<JobId>,
    running: usize,
    /// Completion order of cached reports, oldest first (FIFO eviction).
    done_order: VecDeque<JobId>,
    events: VecDeque<ServeEvent>,
    metrics: ServeMetrics,
}

/// Cap on the retained event log; old events fall off the front.
const EVENT_LOG_CAP: usize = 4096;

impl Inner {
    fn emit(&mut self, event: ServeEvent) {
        self.metrics.apply(&event);
        if self.events.len() == EVENT_LOG_CAP {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }
}

struct Shared {
    state: Mutex<Inner>,
    work_ready: Condvar,
    /// Notified when a drain may have finished: when it begins and when
    /// a worker completes a job during it.
    drain_done: Condvar,
    /// Set once; from then on submissions are rejected and workers
    /// exit when the queue runs dry.
    draining: AtomicBool,
    /// Set once the drain finished; a handler that accepts a connection
    /// from then on exits instead of serving it.
    stopping: AtomicBool,
    config: ServerConfig,
    local_addr: SocketAddr,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.state.lock().expect(POISONED)
    }

    /// Flips the drain flag and wakes every waiter. The caller holds
    /// the state lock (`_held`), so a thread that checked the flag under
    /// it cannot miss the wake-up.
    fn begin_drain(&self, _held: &Inner) {
        self.draining.store(true, Ordering::SeqCst);
        self.work_ready.notify_all();
        self.drain_done.notify_all();
    }

    /// Whether a drain began and no job is left queued or running.
    fn drained(&self, inner: &Inner) -> bool {
        self.draining.load(Ordering::SeqCst) && inner.queue.is_empty() && inner.running == 0
    }

    /// Blocks until a drain has finished. With `heed_signals`, also
    /// begins one when [`crate::signal::triggered`] turns true.
    fn wait_for_drain(&self) {
        let mut inner = self.lock();
        loop {
            if self.config.heed_signals
                && crate::signal::triggered()
                && !self.draining.load(Ordering::SeqCst)
            {
                self.begin_drain(&inner);
            }
            if self.drained(&inner) {
                return;
            }
            inner = if self.config.heed_signals {
                self.drain_done
                    .wait_timeout(inner, SIGNAL_POLL)
                    .expect(POISONED)
                    .0
            } else {
                self.drain_done.wait(inner).expect(POISONED)
            };
        }
    }
}

/// A cheap cloneable view onto a running server, for shutdown and
/// inspection (the CLI uses it for ctrl-c; tests use it to assert on
/// metrics, events, and drained results without racing the sockets).
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// The bound address (with the OS-assigned port when port 0 was
    /// requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Begins a graceful drain: new submissions get 503, queued and
    /// running jobs finish, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        let inner = self.shared.lock();
        self.shared.begin_drain(&inner);
    }

    /// Whether a drain is in progress (or finished).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Snapshot of the service counters.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.lock().metrics
    }

    /// Snapshot of the event log (the most recent few thousand events;
    /// older ones fall off the front).
    pub fn events(&self) -> Vec<ServeEvent> {
        self.shared.lock().events.iter().copied().collect()
    }

    /// The stored report bytes of a job, if it completed and is still
    /// cached. Lets tests verify drained results without a socket.
    pub fn report(&self, id: JobId) -> Option<Arc<str>> {
        self.shared
            .lock()
            .jobs
            .get(&id)
            .and_then(|j| j.report.clone())
    }

    /// State name of a job (`queued`/`running`/`done`/`failed`).
    pub fn job_state(&self, id: JobId) -> Option<&'static str> {
        self.shared.lock().jobs.get(&id).map(|j| j.state.name())
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (port 0 = ephemeral) without starting work.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(Inner::default()),
                work_ready: Condvar::new(),
                drain_done: Condvar::new(),
                draining: AtomicBool::new(false),
                stopping: AtomicBool::new(false),
                config,
                local_addr,
            }),
        })
    }

    /// A handle for shutdown and inspection.
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Serves requests until a graceful drain completes. When
    /// `heed_signals` is on, a process-level SIGTERM/SIGINT (when
    /// [`crate::signal::install`] was called) starts the drain without
    /// any handle plumbing. Errors from `accept` never end the run: the
    /// handlers retry them.
    pub fn run(self) -> std::io::Result<()> {
        let listeners = (0..HANDLERS)
            .map(|_| self.listener.try_clone())
            .collect::<std::io::Result<Vec<_>>>()?;
        // Handlers first: the first request waits on no worker spawn.
        let handlers: Vec<_> = listeners
            .into_iter()
            .map(|listener| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || handler_loop(&shared, &listener))
            })
            .collect();
        let workers: Vec<_> = (0..self.shared.config.workers.max(1))
            .map(|worker| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker_loop(&shared, worker))
            })
            .collect();

        self.shared.wait_for_drain();

        // Every handler is blocked in `accept` or finishing a request:
        // one connection each wakes them, and each exits on its next
        // accept. Should a connect fail, the handlers stay detached
        // rather than hang the join.
        self.shared.stopping.store(true, Ordering::SeqCst);
        let wake = wake_addr(self.shared.local_addr);
        let woken = (0..HANDLERS)
            .filter(|_| TcpStream::connect(wake).is_ok())
            .count();
        for thread in workers {
            let _ = thread.join();
        }
        if woken == HANDLERS {
            for thread in handlers {
                let _ = thread.join();
            }
        }
        Ok(())
    }
}

/// Where [`Server::run`] connects to wake its handlers: the bound
/// address, with an unspecified IP (`0.0.0.0`, `::`) replaced by
/// loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// One connection handler: accept, serve, repeat, until a finished
/// drain wakes it.
fn handler_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                handle_connection(shared, &stream);
            }
            // Errors about one connection (`ECONNABORTED`, `EPROTO`, ...)
            // leave the listener usable: accept the next one. Running
            // out of descriptors or memory passes as connections close.
            Err(e) if out_of_resources(&e) => std::thread::sleep(ACCEPT_BACKOFF),
            Err(_) => {}
        }
    }
}

/// Whether an `accept` error says the process or system ran out of
/// file descriptors (`EMFILE`, `ENFILE`; the numbers Linux, macOS and
/// the BSDs share) or of memory, rather than something about one
/// connection.
fn out_of_resources(e: &std::io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    e.kind() == ErrorKind::OutOfMemory || matches!(e.raw_os_error(), Some(ENFILE | EMFILE))
}

/// One worker: pull, execute, store; exit when draining finds the queue
/// empty.
fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let job = {
            let mut inner = shared.lock();
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    inner.running += 1;
                    inner.emit(ServeEvent::JobDequeued { job: id, worker });
                    let record = inner.jobs.get_mut(&id).expect("queued job has a record");
                    record.state = JobState::Running;
                    break Some((id, record.config.clone()));
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                inner = shared.work_ready.wait(inner).expect(POISONED);
            }
        };
        let Some((id, config)) = job else {
            return;
        };

        if shared.config.job_start_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.config.job_start_delay_ms));
        }

        // A panicking job (a bug, not a workload) must not take the
        // worker down with it; the job lands as Failed instead.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| config.run()));

        let mut inner = shared.lock();
        inner.running -= 1;
        let record = inner.jobs.get_mut(&id).expect("running job has a record");
        match outcome {
            Ok(report) => {
                record.state = JobState::Done;
                record.report = Some(Arc::from(report));
                inner.emit(ServeEvent::JobCompleted { job: id });
                inner.emit(ServeEvent::CacheInsert { job: id });
                inner.done_order.push_back(id);
                evict_over_capacity(&mut inner, shared.config.cache_cap);
            }
            Err(panic) => {
                record.state = JobState::Failed;
                record.error = Some(panic_message("sweep", &panic));
                inner.emit(ServeEvent::JobFailed { job: id });
            }
        }
        if shared.drained(&inner) {
            shared.drain_done.notify_all();
        }
    }
}

/// Drops the oldest cached reports beyond `cap`. Records stay so the
/// job id remains known; a resubmission re-enqueues the sweep.
fn evict_over_capacity(inner: &mut Inner, cap: usize) {
    while inner.done_order.len() > cap.max(1) {
        let oldest = inner.done_order.pop_front().expect("len checked");
        if let Some(record) = inner.jobs.get_mut(&oldest) {
            record.report = None;
        }
        inner.emit(ServeEvent::CacheEvict { job: oldest });
    }
}

/// `"{what} panicked: {message}"`, with the panic's message when it
/// carries one.
fn panic_message(what: &str, panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("{what} panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("{what} panicked: {s}")
    } else {
        format!("{what} panicked")
    }
}

/// Reads one request, routes it, writes one response, all within
/// [`READ_TIMEOUT`] of the accept.
fn handle_connection(shared: &Shared, stream: &TcpStream) {
    let deadline = Instant::now() + READ_TIMEOUT;
    let response = match read_request(stream, deadline) {
        Ok(request) => guarded(|| route(shared, &request)),
        // The peer went away or ran out of time; nothing to say.
        Err(HttpError::Io(_)) => return,
        Err(e) => {
            shared.lock().emit(ServeEvent::BadRequest);
            Response::json(400, error_body(&e.to_string()))
        }
    };
    let _ = response.write_to(stream, deadline);
}

/// Runs `route`, turning a panic in it (a bug, not a request) into a
/// 500 with an error body, so the handler thread lives on.
fn guarded(route: impl FnOnce() -> Response) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(route))
        .unwrap_or_else(|panic| Response::json(500, error_body(&panic_message("request", &panic))))
}

fn route(shared: &Shared, request: &Request) -> Response {
    let path = request.path.as_str();
    let method = request.method.as_str();
    match (method, path) {
        ("POST", "/v1/jobs") => submit(shared, &request.body),
        ("GET", "/v1/healthz") => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"draining\":{}}}",
                shared.draining.load(Ordering::SeqCst)
            ),
        ),
        ("GET", "/v1/metrics") => {
            let json = shared.lock().metrics.to_json();
            Response::json(200, json)
        }
        ("GET", _) if path.starts_with("/v1/jobs/") => job_get(shared, path),
        (_, "/v1/jobs") | (_, "/v1/healthz") | (_, "/v1/metrics") => Response::json(
            405,
            error_body(&format!("method {method} not allowed on {path}")),
        ),
        (_, _) if path.starts_with("/v1/jobs/") => Response::json(
            405,
            error_body(&format!("method {method} not allowed on {path}")),
        ),
        _ => Response::json(404, error_body(&format!("no such endpoint {path}"))),
    }
}

/// `GET /v1/jobs/:id` and `GET /v1/jobs/:id/report`.
fn job_get(shared: &Shared, path: &str) -> Response {
    let rest = &path["/v1/jobs/".len()..];
    let (id_text, want_report) = match rest.strip_suffix("/report") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Some(id) = parse_job_id(id_text) else {
        shared.lock().emit(ServeEvent::BadRequest);
        return Response::json(
            400,
            error_body(&format!("`{id_text}` is not a 32-hex-char job id")),
        );
    };
    let inner = shared.lock();
    let Some(record) = inner.jobs.get(&id) else {
        return Response::json(404, error_body(&format!("no job {id_text}")));
    };
    if !want_report {
        return Response::json(200, status_body(id, record));
    }
    match (record.state, &record.report) {
        (JobState::Done, Some(report)) => Response::json(200, Arc::clone(report)),
        (JobState::Done, None) => Response::json(
            404,
            error_body("report evicted from cache; resubmit the job to recompute"),
        ),
        (JobState::Failed, _) => Response::json(
            500,
            error_body(record.error.as_deref().unwrap_or("job failed")),
        ),
        (_, _) => Response::json(
            409,
            error_body(&format!("job is {}, report not ready", record.state.name())),
        )
        .with_header("retry-after", "1"),
    }
}

fn status_body(id: JobId, record: &JobRecord) -> Vec<u8> {
    let mut body = format!(
        "{{\"job\":\"{}\",\"state\":\"{}\"",
        format_job_id(id),
        record.state.name()
    );
    if let Some(error) = &record.error {
        body.push_str(&format!(",\"error\":\"{}\"", killi_obs::escape_json(error)));
    }
    body.push('}');
    body.into_bytes()
}

/// The 503 of a submission during a drain.
fn rejected_draining(inner: &mut Inner) -> Response {
    inner.emit(ServeEvent::Draining);
    Response::json(503, error_body("draining; not accepting new jobs"))
        .with_header("retry-after", "5")
}

/// `POST /v1/jobs`.
fn submit(shared: &Shared, body: &[u8]) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return rejected_draining(&mut shared.lock());
    }
    let config = match parse_job_spec(body) {
        Ok(config) => config,
        Err(e) => {
            shared.lock().emit(ServeEvent::BadRequest);
            return Response::json(400, error_body(&e.to_string()));
        }
    };
    let id = job_id_for(&config);
    let canonical = config.canonical_json();
    let id_text = format_job_id(id);

    let mut inner = shared.lock();
    if let Some(record) = inner.jobs.get(&id) {
        if record.canonical != canonical {
            // 2^-128 territory, but the canonical string makes it
            // detectable instead of silently wrong.
            return Response::json(500, error_body("job id collision; change a config knob"));
        }
        if record.report.is_some() || record.state != JobState::Done {
            // Known job, any live state: answer from the store.
            let state = record.state;
            inner.emit(ServeEvent::JobAccepted { job: id });
            inner.emit(ServeEvent::CacheHit { job: id });
            return Response::json(
                200,
                format!(
                    "{{\"job\":\"{id_text}\",\"state\":\"{}\",\"cached\":true}}",
                    state.name()
                ),
            );
        }
        // Done but evicted: fall through and re-enqueue below.
    }

    // A drain that began while the body was parsed may already have
    // found the queue empty; the flag is set under this lock, so
    // checking it here keeps every enqueued job inside the drain.
    if shared.draining.load(Ordering::SeqCst) {
        return rejected_draining(&mut inner);
    }
    if inner.queue.len() >= shared.config.queue_depth {
        let depth = inner.queue.len();
        inner.emit(ServeEvent::QueueFull { depth });
        return Response::json(429, error_body("queue full")).with_header("retry-after", "1");
    }

    let depth = inner.queue.len() + 1;
    inner.jobs.insert(
        id,
        JobRecord {
            canonical,
            config,
            state: JobState::Queued,
            report: None,
            error: None,
        },
    );
    inner.queue.push_back(id);
    inner.emit(ServeEvent::JobAccepted { job: id });
    inner.emit(ServeEvent::JobEnqueued { job: id, depth });
    drop(inner);
    shared.work_ready.notify_one();
    Response::json(
        202,
        format!("{{\"job\":\"{id_text}\",\"state\":\"queued\",\"cached\":false}}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn a_relayed_signal_drains_the_server_and_run_returns() {
        // The only server in this test binary that heeds signals: the
        // triggered flag stays set for the rest of the process.
        let server = Server::bind(ServerConfig {
            heed_signals: true,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        let handle = server.handle();
        let (done, returned) = mpsc::channel();
        let runner = std::thread::spawn(move || done.send(server.run().is_ok()));
        crate::signal::trigger_for_test();
        assert_eq!(
            returned.recv_timeout(Duration::from_secs(5)),
            Ok(true),
            "run() did not return after the signal"
        );
        assert!(handle.is_draining());
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn a_panic_while_routing_answers_500_and_the_thread_lives_on() {
        let response = guarded(|| panic!("routing bug"));
        assert_eq!(response.status, 500);
        assert_eq!(
            response.body.as_bytes(),
            b"{\"error\":\"request panicked: routing bug\"}"
        );
        let next = guarded(|| Response::json(200, "{}".to_string()));
        assert_eq!(next.status, 200);
    }

    #[test]
    fn only_running_out_of_resources_backs_off_accept() {
        for (error, backs_off) in [
            (std::io::Error::from_raw_os_error(24), true), // EMFILE
            (std::io::Error::from_raw_os_error(23), true), // ENFILE
            (std::io::Error::from(ErrorKind::OutOfMemory), true),
            (std::io::Error::from(ErrorKind::ConnectionAborted), false),
            (std::io::Error::from(ErrorKind::Interrupted), false),
        ] {
            assert_eq!(out_of_resources(&error), backs_off, "{error:?}");
        }
    }

    #[test]
    fn handlers_of_an_unspecified_bind_are_woken_through_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:7171", "127.0.0.1:7171"),
            ("[::]:7171", "[::1]:7171"),
            ("127.0.0.1:7171", "127.0.0.1:7171"),
            ("10.1.2.3:80", "10.1.2.3:80"),
        ] {
            assert_eq!(
                wake_addr(bound.parse().unwrap()),
                wake.parse::<SocketAddr>().unwrap()
            );
        }
    }

    #[test]
    fn the_event_log_keeps_the_most_recent_events() {
        let mut inner = Inner::default();
        for depth in 0..EVENT_LOG_CAP + 10 {
            inner.emit(ServeEvent::QueueFull { depth });
        }
        assert_eq!(inner.events.len(), EVENT_LOG_CAP);
        assert_eq!(
            inner.events.front(),
            Some(&ServeEvent::QueueFull { depth: 10 })
        );
        assert_eq!(
            inner.events.back(),
            Some(&ServeEvent::QueueFull {
                depth: EVENT_LOG_CAP + 9
            })
        );
    }
}
