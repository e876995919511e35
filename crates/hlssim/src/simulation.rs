//! Concurrent execution of module graphs with stall detection.
//!
//! Each module runs on its own OS thread, mirroring the true spatial
//! concurrency of circuits configured simultaneously on the FPGA. The
//! context counts the *live* module threads and the *blocked* ones:
//! threads parked on a channel whose condition no peer has made true
//! yet. The channel operation that makes a parked waiter's condition
//! true stops counting it at once, under the channel lock, so the count
//! is exact: it never includes a thread that is merely waiting to be
//! scheduled. The wait that brings `blocked` up to `live`, or the module
//! exit that brings `live` down to `blocked`, therefore proves the
//! composition has deadlocked — the paper's "stalls forever"
//! (Sec. V-B) — with no clock involved. That thread snapshots the
//! wait-for graph and poisons the context, waking every parked waiter
//! into [`SimError::Poisoned`] and reporting [`SimError::Stall`] to the
//! caller. No wait is timed: poisoning wakes everyone it concerns. A
//! module that hangs without waiting on a channel stays live but never
//! blocked; only the run deadline or an external poison ends it.
//!
//! Panic audit: every `unwrap`/`panic!` in this module lives in test
//! code or doc examples. Module closures that panic are caught by the
//! runner and surfaced as [`SimError::Module`]; configuration supplied
//! by users (channel depths) is validated by the fallible constructors
//! ([`crate::try_channel`]) and rejected as [`SimError::Config`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use fblas_trace::{ModuleScope, Tracer};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;

use crate::channel::ChannelStats;
use crate::error::SimError;
use crate::fault::{FaultAction, FaultHook, FaultSite, GuardReport, ModuleFault};
use crate::module::{ModuleKind, ModuleSpec};
use crate::stall::{BlockedModule, StallReport, WaitDirection};

/// Type-erased view of a live channel, registered at creation so the
/// runner can snapshot FIFO statistics into the report — the software
/// analog of dropping signal taps on the hardware FIFOs to size them.
pub(crate) trait ChannelProbe: Send + Sync {
    /// Channel name.
    fn probe_name(&self) -> String;
    /// Statistics snapshot.
    fn probe_stats(&self) -> ChannelStats;
    /// Current queue occupancy.
    fn probe_occupancy(&self) -> usize;
    /// Integrity-guard verdict, if faults were armed and the channel saw
    /// traffic.
    fn probe_guard(&self) -> Option<GuardReport> {
        None
    }
    /// The wait-for edges ending at this channel: one entry per parked
    /// waiter the context counts as blocked, with the FIFO state.
    fn probe_blocked(&self, out: &mut Vec<BlockedModule>);
    /// Wake every waiter parked on this channel, under its lock, so it
    /// re-checks the poison flag.
    fn probe_wake(&self);
}

/// Module threads still running and how many of them are blocked. One
/// lock covers both, so an unblock can never interleave with the check
/// that declares a deadlock.
#[derive(Default)]
pub(crate) struct Liveness {
    pub(crate) live: usize,
    pub(crate) blocked: usize,
}

impl Liveness {
    /// Whether every live module is blocked, so the deadlock exists now.
    /// Nothing can change that until the context is poisoned, so one
    /// thread sees it.
    fn deadlocked(&self, poisoned: bool) -> bool {
        !poisoned && self.live > 0 && self.blocked == self.live
    }
}

/// Shared simulation-wide state observed by channels and the watchdog.
pub(crate) struct CtxShared {
    /// Bumped on every successful channel transfer.
    pub(crate) epoch: AtomicU64,
    /// Live and blocked module threads.
    pub(crate) liveness: Mutex<Liveness>,
    /// Signalled, under `liveness`, when the context is poisoned: an
    /// injected `Hang` waits on it.
    poison_cv: Condvar,
    /// The wait-for snapshot taken by the thread that declared the
    /// deadlock, before it poisoned the context.
    pub(crate) stall: Mutex<Option<StallReport>>,
    /// Once set, all channel operations fail with `Poisoned`. Written
    /// only by [`poison`](Self::poison) and the panic hook's
    /// [`mark_poisoned`](Self::mark_poisoned).
    pub(crate) poisoned: AtomicBool,
    /// Probes of every channel created against this context. Strong
    /// references: a channel's statistics outlive its endpoints so the
    /// final report can include them (the context itself is dropped
    /// when the run ends). The wait-for graph is read through them.
    pub(crate) probes: Mutex<Vec<Arc<dyn ChannelProbe>>>,
    /// Armed fault hook, if any. Channel operations never take this lock
    /// unless `fault_armed` is set.
    pub(crate) fault: Mutex<Option<Arc<dyn FaultHook>>>,
    /// Fast-path flag for `fault`: one relaxed load per channel op is
    /// the entire cost of the fault layer when disarmed.
    pub(crate) fault_armed: AtomicBool,
    /// The module whose failure caused the poisoning, when known. First
    /// writer wins, so cascading failures keep the original culprit.
    pub(crate) poison_cause: Mutex<Option<String>>,
}

impl CtxShared {
    /// Consult the armed hook for a channel-payload fault. Callers check
    /// `fault_armed` first; this takes the hook lock.
    pub(crate) fn fault_for(
        &self,
        site: FaultSite,
        channel: &str,
        index: u64,
    ) -> Option<FaultAction> {
        let hook = self.fault.lock().clone();
        hook.and_then(|h| h.on_channel(site, channel, index))
    }

    /// Consult the armed hook for a module-boundary fault.
    pub(crate) fn module_fault(&self, module: &str) -> Option<ModuleFault> {
        if !self.fault_armed.load(Ordering::Relaxed) {
            return None;
        }
        let hook = self.fault.lock().clone();
        hook.and_then(|h| h.on_module_start(module))
    }

    /// Record `cause` (first cause wins: a cascade of secondary failures
    /// keeps the original culprit) and set the poison flag, waking no
    /// one. Only the panic hook stops here, because it may run under a
    /// channel lock; the runner's post-unwind [`poison`](Self::poison)
    /// does the waking.
    fn mark_poisoned(&self, cause: Option<&str>) {
        if let Some(module) = cause {
            let mut recorded = self.poison_cause.lock();
            if recorded.is_none() {
                *recorded = Some(module.to_string());
            }
        }
        self.poisoned.store(true, Ordering::Release);
    }

    /// Poison the context and wake everyone it concerns: a `Hang` waiting
    /// on the poison condvar and every waiter parked on a channel. Each
    /// wake-up takes the lock its waiter checks the flag under, so none
    /// is lost. The caller holds no channel lock.
    pub(crate) fn poison(&self, cause: Option<&str>) {
        self.mark_poisoned(cause);
        {
            let _liveness = self.liveness.lock();
            self.poison_cv.notify_all();
        }
        for probe in self.probes.lock().iter() {
            probe.probe_wake();
        }
    }

    /// The recorded poison culprit, if any.
    pub(crate) fn poison_cause(&self) -> Option<String> {
        self.poison_cause.lock().clone()
    }

    /// Count one more parked waiter as blocked. Returns true when that
    /// makes every live module blocked: the caller must then release
    /// its channel lock and call [`declare_stall`](Self::declare_stall).
    pub(crate) fn block(&self) -> bool {
        let mut l = self.liveness.lock();
        l.blocked += 1;
        l.deadlocked(self.poisoned.load(Ordering::Acquire))
    }

    /// Stop counting a waiter as blocked: its condition became true, or
    /// it left its wait on poison.
    pub(crate) fn unblock(&self) {
        self.liveness.lock().blocked -= 1;
    }

    /// A module thread finished, its endpoints already dropped (which
    /// unblocked any peer the drop disconnected). If every module still
    /// live is blocked, the exit leaves them deadlocked: declare it.
    fn exit(&self) {
        let deadlocked = {
            let mut l = self.liveness.lock();
            l.live -= 1;
            l.deadlocked(self.poisoned.load(Ordering::Acquire))
        };
        if deadlocked {
            self.declare_stall();
        }
    }

    /// Record the deadlock: snapshot the wait-for graph, then poison.
    /// The snapshot comes first because poisoning wakes every blocked
    /// thread and their wait-for edges vanish as they leave. The caller
    /// holds no channel lock (the snapshot takes each one).
    pub(crate) fn declare_stall(&self) {
        *self.stall.lock() = Some(snapshot_stall(self));
        self.poison(None);
    }

    /// Block until the context is poisoned: an injected `Hang`.
    fn await_poison(&self) {
        let mut liveness = self.liveness.lock();
        while !self.poisoned.load(Ordering::Acquire) {
            self.poison_cv.wait(&mut liveness);
        }
    }
}

#[cfg(test)]
impl CtxShared {
    /// Spin until some thread is counted blocked, or the run is torn
    /// down (a test's deadline then ends a run whose waiter never
    /// marked itself).
    pub(crate) fn await_blocked(&self) {
        while self.liveness.lock().blocked == 0 && !self.poisoned.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }
}

thread_local! {
    /// While a module body runs, names the module and its context so the
    /// process panic hook can poison peers *before* unwinding starts
    /// dropping the module's channel endpoints. Poisoning only after
    /// `catch_unwind` returns would race: the endpoint drops can wake a
    /// blocked peer into a `Disconnected` error before the poison flag
    /// lands, turning a deterministic `Poisoned { by }` into a
    /// timing-dependent coin flip.
    static PANIC_POISON: RefCell<Option<(Arc<CtxShared>, String)>> = const { RefCell::new(None) };
}

/// Install (once per process) a chained panic hook that marks the
/// panicking module's simulation context poisoned, then defers to the
/// previous hook for the usual message/backtrace.
fn install_panic_poison_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANIC_POISON.with(|slot| {
                if let Some((shared, name)) = slot.borrow().as_ref() {
                    shared.mark_poisoned(Some(name));
                }
            });
            prev(info);
        }));
    });
}

/// Clears the thread's `PANIC_POISON` registration on scope exit
/// (normal return *or* unwind, after the hook has already fired).
struct PanicPoisonScope;

impl PanicPoisonScope {
    fn enter(shared: &Arc<CtxShared>, name: &str) -> Self {
        PANIC_POISON.with(|slot| {
            *slot.borrow_mut() = Some((shared.clone(), name.to_string()));
        });
        PanicPoisonScope
    }
}

impl Drop for PanicPoisonScope {
    fn drop(&mut self) {
        PANIC_POISON.with(|slot| {
            *slot.borrow_mut() = None;
        });
    }
}

/// Handle to the shared state; create channels against it and pass it to a
/// [`Simulation`].
#[derive(Clone)]
pub struct SimContext {
    shared: Arc<CtxShared>,
}

impl SimContext {
    /// Create a fresh context with zeroed counters.
    pub fn new() -> Self {
        SimContext {
            shared: Arc::new(CtxShared {
                epoch: AtomicU64::new(0),
                liveness: Mutex::new(Liveness::default()),
                poison_cv: Condvar::new(),
                stall: Mutex::new(None),
                poisoned: AtomicBool::new(false),
                probes: Mutex::new(Vec::new()),
                fault: Mutex::new(None),
                fault_armed: AtomicBool::new(false),
                poison_cause: Mutex::new(None),
            }),
        }
    }

    /// Snapshot the statistics of every channel created against this
    /// context that is still alive, in creation order.
    pub fn channel_stats(&self) -> Vec<(String, ChannelStats)> {
        self.shared
            .probes
            .lock()
            .iter()
            .map(|p| (p.probe_name(), p.probe_stats()))
            .collect()
    }

    pub(crate) fn shared(&self) -> Arc<CtxShared> {
        self.shared.clone()
    }

    pub(crate) fn register_probe(&self, probe: Arc<dyn ChannelProbe>) {
        self.shared.probes.lock().push(probe);
    }

    /// Poison the context for external cancellation: every pending and
    /// future channel operation on channels created from this context
    /// fails with [`SimError::Poisoned`], and a parked operation or an
    /// injected hang is woken to see it.
    pub fn poison(&self) {
        self.shared.poison(None);
    }

    /// Whether the context has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    /// Current progress epoch (total successful channel transfers).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Arm `hook`: every subsequent channel push/pop consults it (keyed
    /// by channel name and element sequence number) and every module
    /// start may be crashed or hung by it. Channels also begin
    /// maintaining integrity guards (see [`SimContext::guard_reports`]).
    ///
    /// While no hook is armed the entire fault layer costs one relaxed
    /// atomic load per channel operation.
    pub fn arm_faults(&self, hook: Arc<dyn FaultHook>) {
        *self.shared.fault.lock() = Some(hook);
        self.shared.fault_armed.store(true, Ordering::Release);
    }

    /// Disarm any armed fault hook, restoring the zero-cost path.
    pub fn disarm_faults(&self) {
        self.shared.fault_armed.store(false, Ordering::Release);
        *self.shared.fault.lock() = None;
    }

    /// Whether a fault hook is currently armed on this context.
    ///
    /// Fused-region execution collapses internal channels into a
    /// straight-line loop, so the per-channel integrity guards that a
    /// fault hook relies on never see the fused traffic. Harnesses that
    /// replace channels with fused loops (the lint fusion differential)
    /// check this and refuse to fuse under an armed hook rather than
    /// silently dropping fault coverage.
    pub fn faults_armed(&self) -> bool {
        self.shared.fault_armed.load(Ordering::Acquire)
    }

    /// Integrity-guard verdicts for every channel that saw traffic while
    /// a fault hook was armed, in creation order. Empty if faults were
    /// never armed.
    pub fn guard_reports(&self) -> Vec<GuardReport> {
        self.shared
            .probes
            .lock()
            .iter()
            .filter_map(|p| p.probe_guard())
            .collect()
    }

    /// The module whose failure poisoned this context, when known.
    pub fn poison_cause(&self) -> Option<String> {
        self.shared.poison_cause()
    }
}

impl Default for SimContext {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of a completed (non-stalled) simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct SimulationReport {
    /// Names of the modules that ran.
    pub modules: Vec<String>,
    /// Wall-clock duration of the concurrent run.
    pub wall_time: Duration,
    /// Total channel transfers across the whole run.
    pub transfers: u64,
    /// Per-channel FIFO statistics (name, stats), in creation order —
    /// occupancy high-water marks and stall counts for FIFO sizing.
    pub channel_stats: Vec<(String, ChannelStats)>,
}

/// A set of modules plus the context their channels were created against.
///
/// Typical use:
/// ```
/// use fblas_hlssim::{channel, Simulation, ModuleKind};
///
/// let mut sim = Simulation::new();
/// let (tx, rx) = channel::<f32>(sim.ctx(), 16, "ch");
/// sim.add_module("producer", ModuleKind::Interface, move || {
///     tx.push_iter((0..100).map(|i| i as f32))
/// });
/// sim.add_module("consumer", ModuleKind::Compute, move || {
///     let v = rx.pop_n(100)?;
///     assert_eq!(v.len(), 100);
///     Ok(())
/// });
/// sim.run().unwrap();
/// ```
pub struct Simulation {
    ctx: SimContext,
    modules: Vec<ModuleSpec>,
    deadline: Option<Duration>,
    tracer: Option<Tracer>,
}

/// Resolve the wait-for graph into a [`StallReport`]: per blocked thread,
/// the module, channel, direction, and the channel's occupancy/capacity,
/// each channel read under its own lock.
fn snapshot_stall(shared: &CtxShared) -> StallReport {
    let epoch = shared.epoch.load(Ordering::Acquire);
    let mut blocked = Vec::new();
    for probe in shared.probes.lock().iter() {
        probe.probe_blocked(&mut blocked);
    }
    blocked.sort_by(|a, b| {
        (a.module.as_str(), a.channel.as_str()).cmp(&(b.module.as_str(), b.channel.as_str()))
    });
    StallReport { epoch, blocked }
}

/// Hand a dying simulation to the flight recorder. Cheap no-op when the
/// recorder is disarmed; otherwise attaches the wait-for graph (if the
/// run produced one) and any non-clean-capable guard reports to the
/// postmortem bundle.
fn capture_sim_postmortem(
    kind: &str,
    detail: String,
    culprit: Option<String>,
    stall: Option<&StallReport>,
    shared: &Arc<CtxShared>,
) {
    if !fblas_metrics::flight::armed() {
        return;
    }
    let guards = SimContext {
        shared: shared.clone(),
    }
    .guard_reports();
    crate::postmortem::capture(
        fblas_metrics::flight::Trigger {
            kind: kind.to_string(),
            detail,
            culprit,
        },
        stall.and_then(|r| serde_json::to_value(r).ok()),
        (!guards.is_empty())
            .then(|| serde_json::to_value(&guards).ok())
            .flatten(),
        None,
        None,
    );
}

impl Simulation {
    /// Create an empty simulation with its own fresh [`SimContext`].
    pub fn new() -> Self {
        Simulation {
            ctx: SimContext::new(),
            modules: Vec::new(),
            deadline: None,
            tracer: None,
        }
    }

    /// Create a simulation over an existing context.
    pub fn with_ctx(ctx: SimContext) -> Self {
        Simulation {
            ctx,
            modules: Vec::new(),
            deadline: None,
            tracer: None,
        }
    }

    /// Attach a tracer: module threads get trace lanes (run span, channel
    /// ops, stall spans) and the watchdog samples channel occupancy into
    /// the tracer's time series on every poll. Without a tracer the
    /// simulation runs with the zero-overhead disabled path.
    pub fn set_tracer(&mut self, tracer: Tracer) -> &mut Self {
        self.tracer = Some(tracer);
        self
    }

    /// The context channels must be created against.
    pub fn ctx(&self) -> &SimContext {
        &self.ctx
    }

    /// Set a wall-clock deadline for the whole run. Stall detection only
    /// fires when every live module is *channel-blocked*; a module that
    /// hangs without touching its FIFOs (an injected `Hang` fault, an
    /// infinite compute loop) stays live but never blocked and evades
    /// it. The deadline closes that gap: when it expires the watchdog
    /// snapshots whatever wait-for edges exist, poisons the context, and
    /// the run returns [`SimError::Deadline`].
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = Some(deadline);
    }

    /// Add a module from its parts.
    pub fn add_module(
        &mut self,
        name: impl Into<String>,
        kind: ModuleKind,
        body: impl FnOnce() -> Result<(), SimError> + Send + 'static,
    ) -> &mut Self {
        self.modules.push(ModuleSpec::new(name, kind, body));
        self
    }

    /// Add a prepared [`ModuleSpec`].
    pub fn add_spec(&mut self, spec: ModuleSpec) -> &mut Self {
        self.modules.push(spec);
        self
    }

    /// Number of modules registered so far.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Run all modules concurrently to completion.
    ///
    /// Returns the first module error encountered, or [`SimError::Stall`]
    /// if every live module ended up blocked on a channel. On success the
    /// report carries the wall time and total transfer count.
    pub fn run(self) -> Result<SimulationReport, SimError> {
        let Simulation {
            ctx,
            modules,
            deadline,
            tracer,
        } = self;
        let shared = ctx.shared();
        let names: Vec<String> = modules.iter().map(|m| m.name.clone()).collect();
        let n = modules.len();
        shared.liveness.lock().live = n;
        install_panic_poison_hook();

        let start = Instant::now();
        let mut deadline_report: Option<StallReport> = None;
        let mut results: Vec<Option<Result<(), SimError>>> = Vec::new();
        results.resize_with(n, || None);

        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for spec in modules {
                let shared = shared.clone();
                let name = spec.name.clone();
                let tracer = tracer.clone();
                handles.push(s.spawn(move || {
                    // The scope installs the module identity for waiter
                    // registration and (when a tracer is attached) a trace
                    // lane; dropping it records the module's run span.
                    let _scope = ModuleScope::enter(&name, tracer.as_ref());
                    let body = spec.body;
                    let injected = shared.module_fault(&name);
                    // A panicking module must still leave `live`, or the
                    // watchdog never returns and no deadlock among the
                    // remaining modules can be declared.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        match injected {
                            Some(ModuleFault::Crash) => {
                                crate::channel::record_fault(&name, "crash");
                                // Poison *before* unwinding drops the
                                // module's endpoints, so peers observe
                                // `Poisoned { by }` rather than racing
                                // into `Disconnected`. `resume_unwind`
                                // skips the panic hook (no stderr noise
                                // for an intentional fault).
                                shared.poison(Some(&name));
                                std::panic::resume_unwind(Box::new("injected crash fault"));
                            }
                            Some(ModuleFault::Hang) => {
                                crate::channel::record_fault(&name, "hang");
                                // Stop making progress while *holding the
                                // body alive*: its channel endpoints stay
                                // open, so peers block on the FIFOs (the
                                // hardware picture of a hung kernel)
                                // instead of seeing a disconnect. Only
                                // poisoning wakes us: the run deadline, a
                                // failing peer or `SimContext::poison`.
                                shared.await_poison();
                                drop(body);
                                Err(SimError::Poisoned {
                                    by: shared.poison_cause(),
                                })
                            }
                            None => {
                                // Register with the panic hook so a
                                // genuine panic poisons peers before the
                                // unwind drops this module's endpoints.
                                let _poison_scope = PanicPoisonScope::enter(&shared, &name);
                                body()
                            }
                        }
                    }))
                    .unwrap_or_else(|_| {
                        // The hook only marked a real panic, so wake the
                        // peers here; the injected crash already woke
                        // them. First cause wins either way.
                        shared.poison(Some(&name));
                        Err(SimError::module(name.clone(), "module thread panicked"))
                    });
                    // The body and its endpoints are dropped by now, so a
                    // peer this exit disconnects is already unblocked.
                    shared.exit();
                    r
                }));
            }

            // Watchdog: poll until all threads finish or the deadline
            // expires. Each poll doubles as a channel-occupancy sampling
            // tick when a tracer is attached.
            let poll = Duration::from_millis(5);
            let metrics_reg = fblas_metrics::registry();
            let flight_rec = fblas_metrics::flight::recorder();
            loop {
                if tracer.is_some() || metrics_reg.is_some() {
                    let t_us = tracer.as_ref().map(|t| t.now_us());
                    for probe in shared.probes.lock().iter() {
                        let occ = probe.probe_occupancy();
                        if let (Some(tracer), Some(t_us)) = (&tracer, t_us) {
                            tracer.record_sample(
                                &format!("occ:{}", probe.probe_name()),
                                t_us,
                                occ as f64,
                            );
                        }
                        if let Some(reg) = &metrics_reg {
                            reg.gauge(
                                "fblas_channel_occupancy",
                                &[("channel", &probe.probe_name())],
                            )
                            .set(occ as f64);
                        }
                    }
                    // Each poll doubles as a flight-recorder tick; the
                    // recorder's own interval gate governs the cadence.
                    if let (Some(reg), Some(fr)) = (&metrics_reg, &flight_rec) {
                        fr.tick(reg);
                    }
                }
                if shared.liveness.lock().live == 0 {
                    break;
                }
                std::thread::sleep(poll);
                if deadline.is_some_and(|dl| start.elapsed() >= dl) {
                    // Same forensics discipline as a stall: snapshot
                    // whatever wait-for edges exist before poisoning
                    // wakes (and deregisters) every blocked thread.
                    deadline_report = Some(snapshot_stall(&shared));
                    shared.poison(None);
                    break;
                }
            }

            for (i, h) in handles.into_iter().enumerate() {
                results[i] = Some(h.join().unwrap_or_else(|_| {
                    Err(SimError::module(names[i].clone(), "module thread panicked"))
                }));
            }
        });

        let wall_time = start.elapsed();

        let stall_report = shared.stall.lock().take();
        if let Some(report) = stall_report {
            if let Some(reg) = fblas_metrics::registry() {
                reg.counter("fblas_sim_stalls_total", &[]).inc();
            }
            // The culprit is the FIFO a blocked producer found full: the
            // under-dimensioned channel of the paper's Sec. V-B.
            let culprit = report
                .blocked
                .iter()
                .find(|b| b.direction == WaitDirection::Full)
                .map(|b| b.channel.clone());
            capture_sim_postmortem(
                "stall",
                format!(
                    "deadlocked: all {} live module(s) channel-blocked",
                    report.blocked.len()
                ),
                culprit,
                Some(&report),
                &shared,
            );
            return Err(SimError::Stall { report });
        }

        if let (Some(report), Some(dl)) = (deadline_report, deadline) {
            if let Some(reg) = fblas_metrics::registry() {
                reg.counter("fblas_sim_deadlines_total", &[]).inc();
            }
            let deadline_ms = u64::try_from(dl.as_millis()).unwrap_or(u64::MAX);
            capture_sim_postmortem(
                "deadline",
                format!(
                    "wall-clock deadline ({deadline_ms} ms) expired with {} module(s) channel-blocked",
                    report.blocked.len()
                ),
                None,
                Some(&report),
                &shared,
            );
            return Err(SimError::Deadline {
                deadline_ms,
                report,
            });
        }

        // Surface the first real module error (ignoring poison cascades).
        let mut saw_poison = false;
        for r in results.into_iter().flatten() {
            match r {
                Ok(()) => {}
                Err(SimError::Poisoned { .. }) => saw_poison = true,
                Err(e) => return Err(e),
            }
        }
        // Poison without any primary failure means the run was cancelled
        // externally via `SimContext::poison` — not a successful
        // completion.
        if saw_poison {
            let by = shared.poison_cause();
            capture_sim_postmortem(
                "poisoned",
                "run cancelled by context poison".to_string(),
                by.clone(),
                None,
                &shared,
            );
            return Err(SimError::Poisoned { by });
        }

        // Under an armed fault hook, a run whose modules all finished must
        // also have drained every FIFO. A leftover element means producer
        // and consumer disagreed on the count, as with an injected
        // duplicate. The rule is one verdict for every surplus element: a
        // disconnect, flagged by the channel's integrity guard or not. It
        // is the verdict the producer meets when the consumer exits before
        // the surplus push, so which of the two exits came first — a
        // matter of thread timing — does not change the outcome.
        if shared.fault_armed.load(Ordering::Relaxed) {
            let leftover = shared
                .probes
                .lock()
                .iter()
                .find(|p| p.probe_occupancy() > 0)
                .map(|p| p.probe_name());
            if let Some(channel) = leftover {
                return Err(SimError::Disconnected { channel });
            }
        }

        let channel_stats = SimContext {
            shared: shared.clone(),
        }
        .channel_stats();
        let transfers = shared.epoch.load(Ordering::Acquire);
        if let Some(reg) = fblas_metrics::registry() {
            reg.counter("fblas_sim_runs_total", &[]).inc();
            reg.counter("fblas_sim_transfers_total", &[]).add(transfers);
            reg.histogram("fblas_sim_run_us", &[])
                .record(u64::try_from(wall_time.as_micros()).unwrap_or(u64::MAX));
            for (name, stats) in &channel_stats {
                reg.gauge("fblas_channel_max_occupancy", &[("channel", name)])
                    .raise(stats.max_occupancy as f64);
            }
        }
        Ok(SimulationReport {
            modules: names,
            wall_time,
            transfers,
            channel_stats,
        })
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;
    use crate::stall::WaitDirection;

    #[test]
    fn occupancy_sampler_handles_an_empty_simulation() {
        // No modules at all: the watchdog's first poll doubles as the
        // sampling tick, must probe the (idle) channel without touching
        // any module state, and the run completes immediately.
        let tracer = fblas_trace::Tracer::new();
        let mut sim = Simulation::new();
        sim.set_tracer(tracer.clone());
        let (_tx, _rx) = channel::<u8>(sim.ctx(), 4, "idle");
        let report = sim.run().unwrap();
        assert!(report.modules.is_empty());
        assert_eq!(report.transfers, 0);

        let series = tracer.series();
        let samples = &series["occ:idle"];
        assert!(!samples.is_empty(), "sampler ticked at least once");
        assert!(samples.iter().all(|(_, occ)| *occ == 0.0));
        // No lanes were flushed.
        assert!(tracer.lanes().is_empty());
    }

    #[test]
    fn two_module_pipeline_completes() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u64>(sim.ctx(), 8, "ch");
        sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..1000));
        sim.add_module("sink", ModuleKind::Compute, move || {
            let v = rx.pop_n(1000)?;
            assert_eq!(v[999], 999);
            Ok(())
        });
        let report = sim.run().unwrap();
        assert_eq!(report.modules.len(), 2);
        assert!(report.transfers >= 2000); // each element: 1 push + 1 pop
    }

    #[test]
    fn three_stage_chain_streams_through() {
        let mut sim = Simulation::new();
        let (tx1, rx1) = channel::<f64>(sim.ctx(), 4, "a");
        let (tx2, rx2) = channel::<f64>(sim.ctx(), 4, "b");
        sim.add_module("src", ModuleKind::Interface, move || {
            tx1.push_iter((0..500).map(f64::from))
        });
        sim.add_module("scale", ModuleKind::Compute, move || {
            for _ in 0..500 {
                tx2.push(rx1.pop()? * 2.0)?;
            }
            Ok(())
        });
        sim.add_module("sink", ModuleKind::Interface, move || {
            let v = rx2.pop_n(500)?;
            assert!((v[499] - 998.0).abs() < 1e-12);
            Ok(())
        });
        sim.run().unwrap();
    }

    #[test]
    fn deadlocked_composition_is_reported_as_stall() {
        // Two modules, each waiting for the other to send first: the
        // canonical invalid composition.
        let mut sim = Simulation::new();
        let (tx_ab, rx_ab) = channel::<u8>(sim.ctx(), 1, "a_to_b");
        let (tx_ba, rx_ba) = channel::<u8>(sim.ctx(), 1, "b_to_a");
        sim.add_module("a", ModuleKind::Compute, move || {
            let v = rx_ba.pop()?; // waits for b
            tx_ab.push(v)?;
            Ok(())
        });
        sim.add_module("b", ModuleKind::Compute, move || {
            let v = rx_ab.pop()?; // waits for a
            tx_ba.push(v)?;
            Ok(())
        });
        match sim.run() {
            Err(SimError::Stall { report }) => {
                assert!(report.to_string().contains("blocked modules"));
                assert_eq!(report.blocked.len(), 2);
                let a = report.blocked_on("a").expect("module a in wait-for graph");
                assert_eq!(a.channel, "b_to_a");
                assert_eq!(a.direction, WaitDirection::Empty);
                assert_eq!(a.occupancy, 0);
                assert_eq!(a.capacity, 1);
                let b = report.blocked_on("b").expect("module b in wait-for graph");
                assert_eq!(b.channel, "a_to_b");
                assert_eq!(b.direction, WaitDirection::Empty);
                assert_eq!(b.occupancy, 0);
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn undersized_channel_between_replaying_modules_stalls() {
        // Miniature ATAX pattern (paper Sec. V-B): a producer pushes N
        // elements; the consumer needs the first element again after
        // consuming all N (replay), which only works if the FIFO can hold
        // all N. With a small FIFO the producer blocks and the pair stalls.
        let n = 64usize;
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.ctx(), 4, "small");
        let (res_tx, res_rx) = channel::<u32>(sim.ctx(), 1, "res");
        sim.add_module("producer", ModuleKind::Interface, move || {
            tx.push_iter(0..(2 * n as u32)) // wants to send everything twice
        });
        sim.add_module("consumer", ModuleKind::Compute, move || {
            // Consumes only n elements, then waits on `res` that nobody
            // feeds until the producer finishes (which it can't).
            let first_pass = rx.pop_n(n)?;
            let _ = res_rx.pop()?; // never arrives
            drop(first_pass);
            Ok(())
        });
        sim.add_module("never", ModuleKind::Compute, move || {
            // Keeps the `res` channel open forever without ever pushing:
            // emulates a module whose producing condition never arrives.
            std::mem::forget(res_tx);
            Ok(())
        });
        // The `never` module exits immediately, so live drops to 2, both
        // blocked => stall. The forensics must name the undersized FIFO
        // (full, at capacity) for the producer and the starved `res`
        // channel (empty) for the consumer.
        match sim.run() {
            Err(SimError::Stall { report }) => {
                let p = report.blocked_on("producer").expect("producer blocked");
                assert_eq!(p.channel, "small");
                assert_eq!(p.direction, WaitDirection::Full);
                assert_eq!(p.occupancy, 4);
                assert_eq!(p.capacity, 4);
                let c = report.blocked_on("consumer").expect("consumer blocked");
                assert_eq!(c.channel, "res");
                assert_eq!(c.direction, WaitDirection::Empty);
                assert_eq!(c.occupancy, 0);
                assert_eq!(c.capacity, 1);
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn module_error_is_propagated() {
        let mut sim = Simulation::new();
        sim.add_module("bad", ModuleKind::Compute, || {
            Err(SimError::module("bad", "boom"))
        });
        match sim.run() {
            Err(SimError::Module { module, detail }) => {
                assert_eq!(module, "bad");
                assert_eq!(detail, "boom");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn module_panic_is_converted_to_error() {
        let mut sim = Simulation::new();
        sim.add_module("panics", ModuleKind::Compute, || panic!("oops"));
        match sim.run() {
            Err(SimError::Module { detail, .. }) => assert!(detail.contains("panicked")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn empty_simulation_completes_immediately() {
        let report = Simulation::new().run().unwrap();
        assert!(report.modules.is_empty());
        assert_eq!(report.transfers, 0);
        assert!(report.channel_stats.is_empty());
    }

    #[test]
    fn report_carries_per_channel_statistics() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>(sim.ctx(), 4, "probed");
        sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..100));
        sim.add_module("sink", ModuleKind::Compute, move || {
            rx.pop_n(100).map(|_| ())
        });
        let report = sim.run().unwrap();
        assert_eq!(report.channel_stats.len(), 1);
        let (name, stats) = &report.channel_stats[0];
        assert_eq!(name, "probed");
        assert_eq!(stats.transferred, 100);
        assert!(stats.max_occupancy <= 4);
    }

    #[test]
    fn tracer_collects_lanes_and_occupancy_series() {
        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        sim.set_tracer(tracer.clone());
        let (tx, rx) = channel::<u64>(sim.ctx(), 2, "traced");
        sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..5000));
        sim.add_module("sink", ModuleKind::Compute, move || {
            rx.pop_n(5000).map(|_| ())
        });
        sim.run().unwrap();

        let lanes = tracer.lanes();
        let mut modules: Vec<&str> = lanes.iter().map(|l| &*l.module).collect();
        modules.sort_unstable();
        assert_eq!(modules, ["sink", "src"]);
        let src = lanes.iter().find(|l| &*l.module == "src").unwrap();
        assert_eq!(src.pushes, 5000);
        // 5000 elements through a depth-2 FIFO outlives several 5 ms
        // watchdog polls, so the occupancy series exists.
        assert!(tracer.series().contains_key("occ:traced"));
    }

    #[test]
    fn report_serializes_to_json() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u8>(sim.ctx(), 4, "ser");
        sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..10));
        sim.add_module("sink", ModuleKind::Compute, move || {
            rx.pop_n(10).map(|_| ())
        });
        let report = sim.run().unwrap();
        let text = serde_json::to_string(&report).unwrap();
        assert!(text.contains("\"modules\""));
        assert!(text.contains("\"ser\""));
        assert!(text.contains("\"max_occupancy\""));
    }

    struct ModuleFaultHook {
        target: &'static str,
        fault: ModuleFault,
    }

    impl FaultHook for ModuleFaultHook {
        fn on_channel(&self, _: FaultSite, _: &str, _: u64) -> Option<FaultAction> {
            None
        }
        fn on_module_start(&self, module: &str) -> Option<ModuleFault> {
            (module == self.target).then_some(self.fault)
        }
    }

    #[test]
    fn injected_crash_surfaces_module_error_and_names_the_culprit() {
        let mut sim = Simulation::new();
        let ctx = sim.ctx().clone();
        ctx.arm_faults(Arc::new(ModuleFaultHook {
            target: "src",
            fault: ModuleFault::Crash,
        }));
        let (tx, rx) = channel::<u32>(sim.ctx(), 4, "ch_crash");
        sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..100));
        sim.add_module("sink", ModuleKind::Compute, move || {
            rx.pop_n(100).map(|_| ())
        });
        match sim.run() {
            Err(SimError::Module { module, detail }) => {
                assert_eq!(module, "src");
                assert!(detail.contains("panicked"), "{detail}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(ctx.poison_cause(), Some("src".to_string()));
    }

    /// Duplicates element 0 pushed into `target`.
    struct DuplicateFirst {
        target: &'static str,
    }

    impl FaultHook for DuplicateFirst {
        fn on_channel(&self, site: FaultSite, channel: &str, index: u64) -> Option<FaultAction> {
            (site == FaultSite::Push && channel == self.target && index == 0)
                .then_some(FaultAction::Duplicate)
        }
        fn on_module_start(&self, _: &str) -> Option<ModuleFault> {
            None
        }
    }

    type SimResult = Result<(), SimError>;

    /// One producer pushing `pushed` elements into a depth-2 FIFO, one
    /// consumer popping a single element and exiting. The consumer
    /// holds its endpoint until the producer signals, on a side channel
    /// outside the simulation, that its last push returned: a sink that
    /// exited first would turn that push into a disconnect.
    fn one_pop_run(hook: Option<Arc<dyn FaultHook>>, pushed: u32) -> (SimContext, SimResult) {
        let mut sim = Simulation::new();
        let ctx = sim.ctx().clone();
        if let Some(hook) = hook {
            ctx.arm_faults(hook);
        }
        let (tx, rx) = channel::<u32>(sim.ctx(), 2, "ch_left");
        let (pushed_all, all_pushed) = std::sync::mpsc::channel::<()>();
        sim.add_module("src", ModuleKind::Interface, move || {
            let result = (0..pushed).try_for_each(|v| tx.push(v));
            // A dropped sender also wakes the sink, so ignore the send.
            let _ = pushed_all.send(());
            result
        });
        sim.add_module("sink", ModuleKind::Compute, move || {
            let popped = rx.pop().map(drop);
            let _ = all_pushed.recv();
            popped
        });
        let result = sim.run().map(drop);
        (ctx, result)
    }

    #[test]
    fn armed_run_that_leaves_an_unflagged_element_reports_a_disconnect() {
        // The duplicate and the original both fit in the FIFO, so neither
        // push waits; the sink reads one and exits. Counts and digests
        // agree (one meant, one read), so only the leftover shows it.
        let (ctx, result) = one_pop_run(Some(Arc::new(DuplicateFirst { target: "ch_left" })), 1);
        assert_eq!(
            result,
            Err(SimError::Disconnected {
                channel: "ch_left".to_string()
            })
        );
        assert!(ctx.guard_reports()[0].clean());

        // A leftover the guard flags is the same disconnect: the verdict
        // of a surplus element does not depend on the guard.
        let (ctx, result) = one_pop_run(Some(Arc::new(DuplicateFirst { target: "none" })), 2);
        assert_eq!(
            result,
            Err(SimError::Disconnected {
                channel: "ch_left".to_string()
            })
        );
        assert!(!ctx.guard_reports()[0].clean());

        // Disarmed runs keep their semantics: no leftover check.
        let (_, result) = one_pop_run(None, 2);
        assert_eq!(result, Ok(()));
    }

    /// A duplicate of element 0 on an 8-element stream through a depth-2
    /// FIFO whose consumer pops the 8 elements it expects: the producer's
    /// last push is a surplus. A side channel outside the simulation
    /// orders the two exits. With `consumer_first` the consumer drops its
    /// endpoint before the producer makes the surplus push; otherwise the
    /// consumer holds it until that push has returned, so the surplus
    /// stays in the FIFO.
    fn surplus_run(consumer_first: bool) -> (SimContext, SimResult) {
        const N: u32 = 8;
        let mut sim = Simulation::new();
        let ctx = sim.ctx().clone();
        ctx.arm_faults(Arc::new(DuplicateFirst {
            target: "ch_surplus",
        }));
        let (tx, rx) = channel::<u32>(sim.ctx(), 2, "ch_surplus");
        // The side that exits first signals; the other waits for it.
        let (signal, wait) = std::sync::mpsc::channel::<()>();
        let (src_signal, sink_wait, sink_signal, src_wait) = if consumer_first {
            (None, None, Some(signal), Some(wait))
        } else {
            (Some(signal), Some(wait), None, None)
        };
        sim.add_module("src", ModuleKind::Interface, move || {
            // With the duplicate, N - 1 values fill the consumer's N.
            (0..N - 1).try_for_each(|v| tx.push(v))?;
            if let Some(wait) = src_wait {
                let _ = wait.recv();
            }
            let surplus = tx.push(N - 1);
            if let Some(signal) = src_signal {
                let _ = signal.send(());
            }
            surplus
        });
        sim.add_module("sink", ModuleKind::Compute, move || {
            let popped = rx.pop_n(N as usize).map(drop);
            if let Some(signal) = sink_signal {
                drop(rx);
                let _ = signal.send(());
            } else if let Some(wait) = sink_wait {
                let _ = wait.recv();
            }
            popped
        });
        let result = sim.run().map(drop);
        (ctx, result)
    }

    #[test]
    fn a_surplus_element_is_a_disconnect_whichever_side_exits_first() {
        let want = Err(SimError::Disconnected {
            channel: "ch_surplus".to_string(),
        });
        // The consumer is gone: the surplus push meets the disconnect.
        let (_, result) = surplus_run(true);
        assert_eq!(result, want);
        // The surplus landed: the leftover check reports the same
        // disconnect, though the guard flags the channel.
        let (ctx, result) = surplus_run(false);
        assert_eq!(result, want);
        assert!(!ctx.guard_reports()[0].clean());
    }

    #[test]
    fn hang_fault_is_caught_by_the_run_deadline() {
        let mut sim = Simulation::new();
        let ctx = sim.ctx().clone();
        ctx.arm_faults(Arc::new(ModuleFaultHook {
            target: "sink",
            fault: ModuleFault::Hang,
        }));
        sim.set_deadline(Duration::from_millis(200));
        let (tx, rx) = channel::<u32>(sim.ctx(), 4, "ch_hang");
        sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..100));
        sim.add_module("sink", ModuleKind::Compute, move || {
            rx.pop_n(100).map(|_| ())
        });
        match sim.run() {
            Err(SimError::Deadline {
                deadline_ms,
                report,
            }) => {
                assert_eq!(deadline_ms, 200);
                // The hung sink holds its endpoints open without popping,
                // so the producer is channel-blocked on the full FIFO and
                // the forensics must say so.
                let p = report.blocked_on("src").expect("src in wait-for graph");
                assert_eq!(p.channel, "ch_hang");
                assert_eq!(p.direction, WaitDirection::Full);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn external_poison_releases_a_hung_module() {
        // No deadline: only the poison from outside the run can end it,
        // and it must wake both the hung sink and the producer parked on
        // the full FIFO.
        let mut sim = Simulation::new();
        let ctx = sim.ctx().clone();
        ctx.arm_faults(Arc::new(ModuleFaultHook {
            target: "sink",
            fault: ModuleFault::Hang,
        }));
        let (tx, rx) = channel::<u32>(sim.ctx(), 4, "ch_hung");
        sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..100));
        sim.add_module("sink", ModuleKind::Compute, move || {
            rx.pop_n(100).map(|_| ())
        });
        std::thread::scope(|s| {
            let run = s.spawn(move || sim.run());
            ctx.shared().await_blocked();
            ctx.poison();
            match run.join().unwrap() {
                Err(SimError::Poisoned { by }) => assert_eq!(by, None),
                other => panic!("expected poisoned, got {other:?}"),
            }
        });
    }

    #[test]
    fn peer_of_a_panicking_module_sees_poisoned_with_the_culprit_named() {
        let mut sim = Simulation::new();
        let ctx = sim.ctx().clone();
        let (tx, rx) = channel::<u32>(sim.ctx(), 4, "ch_panic");
        sim.add_module("boom", ModuleKind::Compute, move || {
            tx.push(1)?;
            panic!("mid-stream failure");
        });
        sim.add_module("sink", ModuleKind::Compute, move || rx.pop_n(2).map(|_| ()));
        // The panicking module's error surfaces (the blocked peer's
        // `Poisoned` is discarded as a cascade), and the poison cause
        // names the panicker — not a stall, not a disconnect.
        match sim.run() {
            Err(SimError::Module { module, .. }) => assert_eq!(module, "boom"),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(ctx.poison_cause(), Some("boom".to_string()));
    }

    #[test]
    fn producer_exit_under_a_parked_consumer_is_a_disconnect_not_a_stall() {
        // The producer exits only once its consumer is parked, so its
        // exit check runs with the consumer counted blocked until the
        // producer's endpoint drop (which precedes the check) clears it.
        for _ in 0..20 {
            let mut sim = Simulation::new();
            sim.set_deadline(Duration::from_secs(10));
            let shared = sim.ctx().shared();
            let (tx, rx) = channel::<u8>(sim.ctx(), 8, "cut");
            sim.add_module("src", ModuleKind::Interface, move || {
                tx.push_iter(0..3)?;
                shared.await_blocked();
                Ok(())
            });
            sim.add_module("sink", ModuleKind::Compute, move || rx.pop_n(4).map(|_| ()));
            match sim.run() {
                Err(SimError::Disconnected { channel }) => assert_eq!(channel, "cut"),
                other => panic!("expected disconnect, got {other:?}"),
            }
        }
    }

    #[test]
    fn count_mismatch_is_disconnect_not_stall() {
        // Producer sends fewer elements than the consumer expects: the
        // consumer must see a Disconnected error naming the channel.
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u8>(sim.ctx(), 8, "short");
        sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..10));
        sim.add_module("sink", ModuleKind::Compute, move || {
            rx.pop_n(20).map(|_| ())
        });
        match sim.run() {
            Err(SimError::Disconnected { channel }) => assert_eq!(channel, "short"),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
