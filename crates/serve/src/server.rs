//! The server: listener, admission, bounded worker pool, drain.
//!
//! One OS thread per connection reads JSON lines and runs *admission*
//! inline: drain gate → circuit breaker → tenant quota → fblas-lint
//! (which builds and plans the program; a program text the server has
//! accepted before comes from its lint cache) → operand bindings →
//! chaos plan → bounded queue. Admission is the only place a request is
//! validated: every rejection is an explicit structured response
//! written before the queue — nothing is ever silently dropped — and
//! an admitted job carries the linted program, its plan and the built
//! fault hook. Admitted jobs cross a bounded queue to a fixed worker
//! pool; each worker enters a per-request seeded
//! [`RunScope`](fblas_metrics::RunScope) (thread-local, so concurrent
//! requests get distinct run IDs and postmortem bundles), binds the
//! operands, executes the carried plan through `execute_plan` in
//! recovery mode with the request's deadline spread across its retry
//! budget, and writes the response back through the connection's
//! shared write half (bounded by a write timeout, so a client that
//! stops reading loses its connection rather than wedging a worker).
//! A worker never rejects: it answers `ok` or `failed`. Worker panics
//! are caught and converted to structured `panic` responses; the
//! listener never dies with a request.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fblas_core::composition::{
    execute_plan, ExecMode, ExecOptions, Plan, Program, RecoveryErrorKind, RetryPolicy,
};
use fblas_core::host::DeviceBuffer;
use fblas_hlssim::env;
use fblas_hlssim::FaultHook;
use fblas_lint::input::OperandDoc;
use fblas_lint::{lint_document_full, Document};
use parking_lot::{Condvar, Mutex};
use serde::{Serialize, Value};

use crate::breaker::{shape_hash, Breakers};
use crate::protocol::{
    fill_operand, parse_line, run_seed, wanted_outputs, Inbound, Request, Response, STATUS_FAILED,
    STATUS_OK, STATUS_REJECTED, STATUS_SHED,
};
use crate::quota::TenantQuotas;

/// Server configuration. [`ServeConfig::from_env`] reads the
/// `FBLAS_SERVE_*` knobs; tests and benches construct it directly
/// (notably with `tenant_qps: 0` for refill-free deterministic quotas).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Execution worker threads.
    pub workers: usize,
    /// Admission queue depth; a full queue sheds.
    pub queue: usize,
    /// Per-tenant token refill, requests/sec (0 = no refill).
    pub tenant_qps: u32,
    /// Per-tenant bucket capacity, requests.
    pub tenant_burst: u32,
    /// Consecutive failures of one (tenant, plan shape) that open its
    /// breaker.
    pub breaker: u32,
    /// Graceful-drain timeout for queued + in-flight requests.
    pub drain: Duration,
    /// Socket write timeout per response line; a client that stops
    /// reading is disconnected once a blocked write exceeds this.
    pub write_timeout: Duration,
}

impl ServeConfig {
    /// The knob-driven configuration (`FBLAS_SERVE_*`).
    pub fn from_env() -> ServeConfig {
        let qps = env::serve_tenant_qps();
        ServeConfig {
            addr: env::serve_addr(),
            workers: env::serve_workers(),
            queue: env::serve_queue(),
            tenant_qps: qps,
            tenant_burst: qps,
            breaker: env::serve_breaker(),
            drain: env::serve_drain(),
            write_timeout: env::serve_write_timeout(),
        }
    }
}

/// Point-in-time server counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ServerStats {
    /// Requests past admission (queued for a worker).
    pub admitted: u64,
    /// Executed successfully.
    pub ok: u64,
    /// Executed and failed terminally (retry budget, deadline, panic).
    pub failed: u64,
    /// Rejected at admission: parse, lint, bad data, bad chaos plan.
    pub rejected: u64,
    /// Shed over-quota.
    pub shed_quota: u64,
    /// Shed on a full queue.
    pub shed_queue: u64,
    /// Shed while draining.
    pub shed_draining: u64,
    /// Fast-failed on an open breaker.
    pub breaker_fastfail: u64,
    /// Worker panics converted to structured responses.
    pub panics: u64,
    /// Requests whose deadline expired before execution started.
    pub deadline_expired: u64,
}

#[derive(Default)]
struct Stats {
    admitted: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    shed_quota: AtomicU64,
    shed_queue: AtomicU64,
    shed_draining: AtomicU64,
    breaker_fastfail: AtomicU64,
    panics: AtomicU64,
    deadline_expired: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed_quota: self.shed_quota.load(Ordering::Relaxed),
            shed_queue: self.shed_queue.load(Ordering::Relaxed),
            shed_draining: self.shed_draining.load(Ordering::Relaxed),
            breaker_fastfail: self.breaker_fastfail.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
        }
    }
}

/// The shared write half of one connection; responses are written
/// line-atomically under the lock.
///
/// Writes are bounded by the configured socket write timeout: a client
/// that pipelines requests but never reads fills its TCP receive window
/// and our send buffer, at which point the blocked `write_all` errors
/// out instead of wedging the calling worker forever. The first failed
/// write marks the connection dead and shuts the socket down — later
/// responses for it are discarded, the reader thread sees EOF and
/// exits, and no worker ever blocks on this connection again. A
/// non-reading tenant can only lose its *own* connection; it can never
/// starve the pool.
struct Conn {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

type Out = Arc<Conn>;

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream: Mutex::new(stream),
            dead: AtomicBool::new(false),
        }
    }

    /// Write one response line, or tear the connection down if the
    /// client has stopped reading (write timeout) or disconnected.
    fn write_line(&self, line: &str) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        let mut s = self.stream.lock();
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        let outcome = s
            .write_all(line.as_bytes())
            .and_then(|()| s.write_all(b"\n"))
            .and_then(|()| s.flush());
        if let Err(e) = outcome {
            self.dead.store(true, Ordering::Release);
            let _ = s.shutdown(Shutdown::Both);
            eprintln!("fblas-serve: dropping unresponsive connection: {e}");
        }
    }
}

/// A program that passed lint, built and planned.
type Planned = Arc<(Program, Plan)>;

struct Job {
    req: Request,
    planned: Planned,
    hook: Option<Arc<dyn FaultHook>>,
    shape: u64,
    admitted_at: Instant,
    deadline_at: Option<Instant>,
    out: Out,
}

#[derive(Debug, PartialEq, Eq)]
enum PushError {
    Full,
    Draining,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Box<Job>>,
    in_flight: usize,
    draining: bool,
    stopped: bool,
}

/// Bounded MPMC job queue with drain support.
struct JobQueue {
    cap: usize,
    state: Mutex<QueueState>,
    pop_cv: Condvar,
    drain_cv: Condvar,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            cap: cap.max(1),
            state: Mutex::new(QueueState::default()),
            pop_cv: Condvar::new(),
            drain_cv: Condvar::new(),
        }
    }

    fn try_push(&self, job: Box<Job>) -> Result<(), (Box<Job>, PushError)> {
        let mut s = self.state.lock();
        if s.draining || s.stopped {
            return Err((job, PushError::Draining));
        }
        if s.jobs.len() >= self.cap {
            return Err((job, PushError::Full));
        }
        s.jobs.push_back(job);
        drop(s);
        self.pop_cv.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<Box<Job>> {
        let mut s = self.state.lock();
        loop {
            if let Some(job) = s.jobs.pop_front() {
                s.in_flight += 1;
                return Some(job);
            }
            if s.stopped {
                return None;
            }
            self.pop_cv.wait(&mut s);
        }
    }

    fn done(&self) {
        let mut s = self.state.lock();
        s.in_flight = s.in_flight.saturating_sub(1);
        if s.jobs.is_empty() && s.in_flight == 0 {
            drop(s);
            self.drain_cv.notify_all();
        }
    }

    /// Stop admitting, wait (up to `timeout`) for queued + in-flight
    /// work to finish, then stop workers. Returns `(clean, lost)`:
    /// whether everything completed, and how many queued jobs were
    /// abandoned on timeout.
    fn drain(&self, timeout: Duration) -> (bool, usize) {
        let deadline = Instant::now() + timeout;
        let mut s = self.state.lock();
        s.draining = true;
        let clean = loop {
            if s.jobs.is_empty() && s.in_flight == 0 {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            self.drain_cv.wait_for(&mut s, deadline - now);
        };
        let lost = s.jobs.len();
        s.jobs.clear();
        s.stopped = true;
        drop(s);
        self.pop_cv.notify_all();
        (clean, lost)
    }
}

/// Accepted programs the lint cache holds. Serving traffic repeats a
/// handful of programs; a fresh program past this many evicts the
/// least recently used one.
const LINT_CACHE: usize = 64;

/// Lint once per program: the accepted artifact of each program text
/// the server has linted, keyed by the program's canonical JSON (its
/// config, coefficients and sizes included, so two programs share an
/// entry only when they are the same program). Rejections are never
/// cached, and bindings and chaos plans stay per request.
#[derive(Default)]
struct LintCache {
    entries: HashMap<String, (Planned, u64)>,
    clock: u64,
}

impl LintCache {
    fn get(&mut self, key: &str) -> Option<Planned> {
        self.clock += 1;
        let (planned, used) = self.entries.get_mut(key)?;
        *used = self.clock;
        Some(Arc::clone(planned))
    }

    fn insert(&mut self, key: String, planned: Planned) {
        if self.entries.len() >= LINT_CACHE && !self.entries.contains_key(&key) {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(k) = oldest {
                self.entries.remove(&k);
            }
        }
        self.clock += 1;
        self.entries.insert(key, (planned, self.clock));
    }
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

struct Inner {
    cfg: ServeConfig,
    queue: JobQueue,
    quotas: TenantQuotas,
    breakers: Breakers,
    lint_cache: Mutex<LintCache>,
    state: AtomicU8,
    stats: Stats,
    /// `(clean, lost)` once a drain has completed.
    finished: Mutex<Option<(bool, usize)>>,
    finished_cv: Condvar,
}

impl Inner {
    fn stopped(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_STOPPED
    }

    fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) != STATE_RUNNING
    }

    fn count(&self, tenant: &str, outcome: &str) {
        if let Some(reg) = fblas_metrics::registry() {
            reg.counter(
                "fblas_serve_requests_total",
                &[("tenant", tenant), ("outcome", outcome)],
            )
            .inc();
        }
    }

    /// Answer a request without queueing it: bump `stat`, count the
    /// `outcome`, write `resp`. Every shed and every 400 leaves here.
    fn refuse(&self, out: &Out, stat: &AtomicU64, outcome: &str, resp: &Response) {
        stat.fetch_add(1, Ordering::Relaxed);
        self.count(&resp.tenant, outcome);
        out.write_line(&resp.to_line());
    }

    fn observe_latency(&self, tenant: &str, us: u64) {
        if let Some(reg) = fblas_metrics::registry() {
            reg.histogram("fblas_serve_latency_us", &[("tenant", tenant)])
                .record(us);
        }
    }
}

/// Outcome of a graceful drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Every queued and in-flight request completed.
    pub clean: bool,
    /// Queued jobs abandoned on timeout (0 when clean).
    pub lost: usize,
    /// Final counters.
    pub stats: ServerStats,
}

/// A running server.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    listener: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the listener, return.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        env::arm_metrics();
        env::arm_flight();
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            quotas: TenantQuotas::new(cfg.tenant_qps, cfg.tenant_burst),
            breakers: Breakers::new(cfg.breaker),
            lint_cache: Mutex::new(LintCache::default()),
            queue: JobQueue::new(cfg.queue),
            state: AtomicU8::new(STATE_RUNNING),
            stats: Stats::default(),
            finished: Mutex::new(None),
            finished_cv: Condvar::new(),
            cfg,
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fblas-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("fblas-serve-listener".to_string())
            .spawn(move || accept_loop(listener, &accept_inner))?;
        Ok(Server {
            inner,
            addr,
            listener: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.snapshot()
    }

    /// Block until a `drain` control request completes, then join every
    /// thread. Returns the drain outcome.
    pub fn wait(mut self) -> DrainOutcome {
        let (clean, lost) = {
            let mut fin = self.inner.finished.lock();
            while fin.is_none() {
                self.inner.finished_cv.wait(&mut fin);
            }
            fin.unwrap_or((false, 0))
        };
        self.join_threads();
        DrainOutcome {
            clean,
            lost,
            stats: self.inner.stats.snapshot(),
        }
    }

    /// Programmatic graceful drain: stop admitting, finish in-flight
    /// work, stop workers, join everything.
    pub fn drain(mut self) -> DrainOutcome {
        let (clean, lost) = initiate_drain(&self.inner);
        self.join_threads();
        DrainOutcome {
            clean,
            lost,
            stats: self.inner.stats.snapshot(),
        }
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Transition to draining, run the queue drain, mark stopped, flush the
/// final metrics snapshot, and wake `Server::wait`.
fn initiate_drain(inner: &Inner) -> (bool, usize) {
    inner.state.store(STATE_DRAINING, Ordering::Release);
    let (clean, lost) = inner.queue.drain(inner.cfg.drain);
    inner.state.store(STATE_STOPPED, Ordering::Release);
    flush_metrics_snapshot();
    let mut fin = inner.finished.lock();
    *fin = Some((clean, lost));
    drop(fin);
    inner.finished_cv.notify_all();
    (clean, lost)
}

/// Persist the final metrics snapshot next to the postmortem bundles
/// when both the registry and `FBLAS_FLIGHT_DIR` are live.
fn flush_metrics_snapshot() {
    let (Some(reg), Some(dir)) = (fblas_metrics::registry(), env::flight_dir()) else {
        return;
    };
    let path = dir.join("serve-final-metrics.json");
    let text = fblas_metrics::expo::snapshot_json(&reg.collect());
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!(
            "fblas-serve: warning: failed to flush metrics snapshot {}: {e}",
            path.display()
        );
    }
}

fn accept_loop(listener: TcpListener, inner: &Arc<Inner>) {
    loop {
        if inner.stopped() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // One JSON line per response: Nagle + delayed ACK would
                // otherwise add ~40ms to every lockstep roundtrip.
                stream.set_nodelay(true).ok();
                let inner = Arc::clone(inner);
                let spawned = std::thread::Builder::new()
                    .name("fblas-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &inner));
                if let Err(e) = spawned {
                    eprintln!("fblas-serve: warning: failed to spawn connection thread: {e}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("fblas-serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn connection_loop(stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(150)));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let out: Out = match stream.try_clone() {
        Ok(w) => Arc::new(Conn::new(w)),
        Err(e) => {
            eprintln!("fblas-serve: failed to clone stream: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    handle_line(trimmed, &out, inner);
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if inner.stopped() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn handle_line(line: &str, out: &Out, inner: &Arc<Inner>) {
    match parse_line(line) {
        Ok(Inbound::Control(verb)) => handle_control(&verb, out, inner),
        Ok(Inbound::Exec(req)) => admit(*req, out, inner),
        Err(e) => {
            // Salvage the id/tenant for correlation when present.
            let (id, tenant) = serde_json::from_str::<Value>(line)
                .map(|v| {
                    (
                        v.get("id").and_then(Value::as_u64).unwrap_or(0),
                        v.get("tenant")
                            .and_then(Value::as_str)
                            .unwrap_or("anonymous")
                            .to_string(),
                    )
                })
                .unwrap_or((0, "anonymous".to_string()));
            let resp = Response::skeleton(id, &tenant, STATUS_REJECTED, 400)
                .with_kind("parse")
                .with_detail(e);
            inner.refuse(out, &inner.stats.rejected, "rejected", &resp);
        }
    }
}

fn handle_control(verb: &str, out: &Out, inner: &Arc<Inner>) {
    match verb {
        "ping" => out.write_line(r#"{"control":"ping","status":"ok"}"#),
        "stats" => {
            let stats = inner.stats.snapshot();
            let body = control_body("stats", "ok", &stats, None);
            out.write_line(&body);
        }
        "reset_breakers" => {
            inner.breakers.reset();
            out.write_line(r#"{"control":"reset_breakers","status":"ok"}"#);
        }
        "drain" => {
            let (clean, lost) = initiate_drain(inner);
            let stats = inner.stats.snapshot();
            let body = control_body(
                "drain",
                if clean { "ok" } else { "timeout" },
                &stats,
                Some(lost),
            );
            out.write_line(&body);
        }
        other => {
            out.write_line(&format!(r#"{{"control":{:?},"status":"unknown"}}"#, other));
        }
    }
}

/// Render a control response with stats attached; field order fixed.
fn control_body(verb: &str, status: &str, stats: &ServerStats, lost: Option<usize>) -> String {
    let mut fields = vec![
        ("control".to_string(), Value::Str(verb.to_string())),
        ("status".to_string(), Value::Str(status.to_string())),
    ];
    if let Some(l) = lost {
        fields.push(("lost".to_string(), Value::U64(l as u64)));
    }
    fields.push(("stats".to_string(), stats.to_value()));
    // Invariant: plain data — serialization cannot fail.
    #[allow(clippy::disallowed_methods)]
    serde_json::to_string(&Value::Object(fields)).expect("control body always serializes")
}

/// Admission: drain gate → breaker → quota → lint → bindings → chaos
/// plan → queue. Every exit is a structured response.
fn admit(req: Request, out: &Out, inner: &Arc<Inner>) {
    let tenant = req.tenant.clone();
    if inner.draining() {
        let resp = Response::skeleton(req.id, &tenant, STATUS_SHED, 503)
            .with_kind("draining")
            .with_detail("server is draining; not admitting new work");
        return inner.refuse(out, &inner.stats.shed_draining, "shed_draining", &resp);
    }

    let shape = shape_hash(&req.program);
    if let Err(open) = inner.breakers.check(&tenant, shape) {
        let mut resp = Response::skeleton(req.id, &tenant, STATUS_SHED, 503)
            .with_kind("breaker_open")
            .with_detail(format!(
                "circuit breaker open for this tenant's plan shape after {} consecutive failures",
                open.failures
            ));
        resp.postmortem = open.last_postmortem;
        return inner.refuse(out, &inner.stats.breaker_fastfail, "breaker_open", &resp);
    }

    if let Err(over) = inner.quotas.admit(&tenant) {
        let mut resp = Response::skeleton(req.id, &tenant, STATUS_SHED, 429)
            .with_kind("quota")
            .with_detail("tenant token bucket empty");
        resp.retry_after_ms = over.retry_after_ms;
        return inner.refuse(out, &inner.stats.shed_quota, "shed_quota", &resp);
    }

    let reject = |kind: &str, detail: String, diagnostics: Option<Value>| {
        let mut resp = Response::skeleton(req.id, &tenant, STATUS_REJECTED, 400)
            .with_kind(kind)
            .with_detail(detail);
        resp.diagnostics = diagnostics;
        inner.refuse(out, &inner.stats.rejected, "rejected", &resp);
    };
    let key = serde_json::to_string(&req.program).ok();
    let cached = key.as_deref().and_then(|k| inner.lint_cache.lock().get(k));
    let planned = match cached {
        Some(planned) => {
            if let Some(reg) = fblas_metrics::registry() {
                reg.counter("fblas_serve_lint_cache_hits_total", &[]).inc();
            }
            planned
        }
        None => {
            let lint = lint_document_full(&Document::Program(req.program.clone()), "<request>");
            let Some(planned) = lint.planned.filter(|_| lint.report.accepted()) else {
                let errors = lint.report.errors();
                let diagnostics = serde_json::to_value(&lint.report.diagnostics).ok();
                let detail = format!("rejected by fblas-lint with {errors} error(s)");
                return reject("lint", detail, diagnostics);
            };
            let planned = Arc::new(planned);
            if let Some(k) = key {
                inner.lint_cache.lock().insert(k, Arc::clone(&planned));
            }
            planned
        }
    };
    if let Err(e) = check_bindings(&req) {
        return reject("data", e, None);
    }
    let hook: Option<Arc<dyn FaultHook>> = match &req.chaos {
        Some(doc) => match doc.to_fault_plan() {
            Ok(plan) => Some(Arc::new(plan)),
            Err(e) => return reject("chaos", e, None),
        },
        None => None,
    };

    let admitted_at = Instant::now();
    let deadline_at = req
        .deadline_ms
        .map(|ms| admitted_at + Duration::from_millis(ms));
    let job = Box::new(Job {
        planned,
        hook,
        shape,
        admitted_at,
        deadline_at,
        out: Arc::clone(out),
        req,
    });
    match inner.queue.try_push(job) {
        Ok(()) => {
            inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
        }
        Err((job, PushError::Full)) => {
            let resp = Response::skeleton(job.req.id, &tenant, STATUS_SHED, 429)
                .with_kind("queue_full")
                .with_detail(format!("admission queue at capacity {}", inner.cfg.queue));
            inner.refuse(&job.out, &inner.stats.shed_queue, "shed_queue", &resp);
        }
        Err((job, PushError::Draining)) => {
            let resp = Response::skeleton(job.req.id, &tenant, STATUS_SHED, 503)
                .with_kind("draining")
                .with_detail("server is draining; not admitting new work");
            inner.refuse(&job.out, &inner.stats.shed_draining, "shed_draining", &resp);
        }
    }
}

/// Every `data` entry names a declared vector or matrix and holds
/// exactly its element count, and every `want` names a declared
/// operand. A request's names are never silently ignored.
fn check_bindings(req: &Request) -> Result<(), String> {
    let declared = |name: &str| req.program.operands.iter().find(|od| od.name == name);
    let mut data: Vec<_> = req.data.iter().flatten().collect();
    data.sort_by(|a, b| a.0.cmp(b.0));
    for (name, values) in data {
        let od = declared(name).ok_or_else(|| format!("data names undeclared operand `{name}`"))?;
        let len = elements(od)
            .ok_or_else(|| format!("operand `{name}` is a scalar; it takes no data"))?;
        if values.len() != len {
            return Err(format!(
                "operand `{name}`: got {} elements, expected {len}",
                values.len()
            ));
        }
    }
    for name in req.want.iter().flatten() {
        if declared(name).is_none() {
            return Err(format!("want names undeclared operand `{name}`"));
        }
    }
    Ok(())
}

/// The element count of a vector or matrix operand; `None` for a
/// scalar.
fn elements(od: &OperandDoc) -> Option<usize> {
    match od.kind.as_str() {
        "vector" => Some(od.len.unwrap_or(0)),
        "matrix" => Some(od.rows.unwrap_or(0) * od.cols.unwrap_or(0)),
        _ => None,
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(job) = inner.queue.pop() {
        let tenant = job.req.tenant.clone();
        let out = Arc::clone(&job.out);
        let t0 = Instant::now();
        let queue_us = t0.duration_since(job.admitted_at).as_micros() as u64;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| execute_job(&job, inner)));
        let mut resp = match result {
            Ok(resp) => resp,
            Err(payload) => {
                inner.stats.panics.fetch_add(1, Ordering::Relaxed);
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Response::skeleton(job.req.id, &tenant, STATUS_FAILED, 500)
                    .with_kind("panic")
                    .with_detail(format!("worker panicked: {what}"))
            }
        };
        let latency_us = t0.elapsed().as_micros() as u64;
        resp.wall = Some(Value::Object(vec![
            ("latency_us".to_string(), Value::U64(latency_us)),
            ("queue_us".to_string(), Value::U64(queue_us)),
        ]));
        match resp.status.as_str() {
            STATUS_OK => {
                inner.stats.ok.fetch_add(1, Ordering::Relaxed);
                inner.count(&tenant, "ok");
            }
            _ => {
                inner.stats.failed.fetch_add(1, Ordering::Relaxed);
                inner.count(&tenant, resp.kind.as_deref().unwrap_or("failed"));
            }
        }
        inner.observe_latency(&tenant, latency_us);
        out.write_line(&resp.to_line());
        inner.queue.done();
    }
}

/// Execute one admitted job to a terminal [`Response`]. Runs on a
/// worker thread inside a per-request seeded run scope.
fn execute_job(job: &Job, inner: &Arc<Inner>) -> Response {
    let req = &job.req;
    let id = req.id;
    let tenant = &req.tenant;

    // Deadline may already have expired in the queue.
    let remaining = match job.deadline_at {
        Some(at) => {
            let now = Instant::now();
            if now >= at {
                inner.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
                return Response::skeleton(id, tenant, STATUS_FAILED, 408)
                    .with_kind("deadline")
                    .with_detail("deadline expired before execution started");
            }
            Some(at - now)
        }
        None => None,
    };

    // Deliberate worker suicide: the chaos switch that validates panic
    // containment end to end. Caught by the worker's catch_unwind and
    // returned as a structured `panic` failure.
    if req
        .chaos
        .as_ref()
        .and_then(|c| c.panic_worker)
        .unwrap_or(false)
    {
        panic!("chaos: panic_worker armed for request {id}");
    }

    let run = fblas_metrics::RunScope::seeded(run_seed(req));
    let run_id = run.id().to_string();
    let cfg = req.program.config.planner_config();

    // Bind every non-scalar operand: explicit data, or deterministic
    // fill from `fill_seed`.
    let fill_seed = req.fill_seed.unwrap_or(0);
    let mut buffers: HashMap<String, DeviceBuffer<f64>> = HashMap::new();
    for od in &req.program.operands {
        let Some(len) = elements(od) else { continue };
        let data = match req.data.as_ref().and_then(|d| d.get(&od.name)) {
            Some(v) => v.clone(),
            None => fill_operand(fill_seed, &od.name, len),
        };
        buffers.insert(od.name.clone(), DeviceBuffer::from_vec(&od.name, data, 0));
    }

    let max_attempts = req.retry_max.unwrap_or_else(env::retry_max).max(1);
    // Spread the remaining end-to-end budget across the attempts so the
    // budget bounds the whole retry loop, not each try.
    let per_attempt = remaining.map(|r| (r / max_attempts).max(Duration::from_millis(1)));
    let policy = RetryPolicy {
        max_attempts,
        deadline: per_attempt,
        backoff: Duration::ZERO,
        abft: true,
    };

    let hook = job.hook.clone();
    let opts = ExecOptions {
        mode: ExecMode::Recover { policy, hook },
        ..ExecOptions::default()
    };
    let (program, plan) = &*job.planned;
    match execute_plan::<f64>(program, plan, &cfg, &buffers, &opts) {
        Ok(outcome) => {
            inner.breakers.record_success(tenant, job.shape);
            let mut resp = Response::skeleton(id, tenant, STATUS_OK, 200);
            resp.scalars = outcome.scalars.into_iter().collect();
            for name in wanted_outputs(req) {
                if let Some(buf) = buffers.get(&name) {
                    resp.outputs.insert(name, buf.to_host());
                }
            }
            resp.recovery = serde_json::to_value(&outcome.recovery).ok();
            resp.run_id = Some(run_id);
            resp
        }
        Err(err) => {
            let kind = RecoveryErrorKind::of(&err.error);
            let postmortem = postmortem_path(&run_id);
            inner
                .breakers
                .record_failure(tenant, job.shape, kind, postmortem.clone());
            let code = if kind == RecoveryErrorKind::Deadline {
                408
            } else {
                500
            };
            let mut resp = Response::skeleton(id, tenant, STATUS_FAILED, code)
                .with_kind(kind.as_str())
                .with_detail(format!(
                    "execution failed terminally after {} attempt(s)",
                    err.report.attempts.len()
                ));
            resp.recovery = serde_json::to_value(&err.report).ok();
            resp.postmortem = postmortem;
            resp.run_id = Some(run_id);
            resp
        }
    }
}

/// The postmortem bundle this run persisted, if capture was armed and
/// the file exists.
fn postmortem_path(run_id: &str) -> Option<String> {
    let dir = env::flight_dir()?;
    let path = dir.join(format!("postmortem-{run_id}.json"));
    std::fs::metadata(&path)
        .is_ok()
        .then(|| path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use fblas_core::composition::{plan, PlannerConfig};

    /// A full cache evicts its least recently used entry, so a program
    /// the traffic keeps repeating survives a run of fresh ones.
    #[test]
    fn lint_cache_evicts_the_least_recently_used_program() {
        let empty = Program::new();
        let planned: Planned = Arc::new((
            empty.clone(),
            plan(&empty, &PlannerConfig::default()).expect("an empty program plans"),
        ));
        let mut cache = LintCache::default();
        for k in 0..LINT_CACHE {
            cache.insert(k.to_string(), Arc::clone(&planned));
        }
        assert!(cache.get("0").is_some());
        cache.insert("fresh".to_string(), Arc::clone(&planned));
        assert_eq!(cache.entries.len(), LINT_CACHE);
        assert!(cache.get("0").is_some() && cache.get("fresh").is_some());
        assert!(cache.get("1").is_none());
    }

    /// A served program is linted once per server, by the same entry
    /// point that records the lint metrics: the first request adds one
    /// lint run, a repeat of it is a cache hit, and a request that
    /// changes only `alpha` is a different program. No other test in
    /// this binary lints, so the global counts are ours.
    #[test]
    fn served_request_counts_one_lint_run() {
        let reg = fblas_metrics::install(1);
        let runs = || reg.counter("fblas_lint_runs_total", &[]).value();
        let hits = || {
            reg.counter("fblas_serve_lint_cache_hits_total", &[])
                .value()
        };
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue: 4,
            tenant_qps: 0,
            tenant_burst: 4,
            breaker: 4,
            drain: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
        })
        .expect("server starts");
        let mut c = Client::connect(server.addr()).expect("client connects");
        let (runs0, hits0) = (runs(), hits());
        let line = |id: u32, alpha: &str| {
            format!(
                r#"{{"id":{id},"tenant":"t","fill_seed":3,"program":{{"operands":[{{"name":"x","kind":"vector","len":8}},{{"name":"o","kind":"vector","len":8}}],"ops":[{{"op":"scal","alpha":{alpha},"x":"x","out":"o"}}]}}}}"#
            )
        };
        let mut serve = |line: String| {
            let resp = crate::parse_response(&c.roundtrip_line(&line).expect("roundtrip"))
                .expect("response parses");
            assert_eq!(resp.status, STATUS_OK, "{:?}", resp.detail);
            resp.outputs["o"].clone()
        };
        let first = serve(line(1, "2.0"));
        assert_eq!((runs() - runs0, hits() - hits0), (1, 0));
        let repeat = serve(line(2, "2.0"));
        assert_eq!((runs() - runs0, hits() - hits0), (1, 1));
        assert_eq!(repeat, first);
        let other = serve(line(3, "3.0"));
        assert_eq!((runs() - runs0, hits() - hits0), (2, 1));
        assert_ne!(other, first);
        assert!(server.drain().clean);
    }
}
