//! Execution of planner-derived compositions.
//!
//! [`execute_plan`] closes the loop on the planner: each
//! [`PlannedComponent`] is instantiated
//! as a real dataflow simulation — interface readers with the right
//! replay counts and tile orders, the computational modules with the
//! planner's GEMV variants, fan-out stages where an output has several
//! sinks, DRAM-replay loops for the partial-result variants, and deep
//! FIFOs where the plan derived them — and run to completion. Components
//! execute sequentially, communicating through the operand buffers,
//! exactly as the paper's Fig. 9 schedule does. A simulation that the
//! rate analysis proves live on the fused backend runs at host depth,
//! and its GEMV/GER tiles read their DRAM operands in place instead of
//! through interface readers (DESIGN.md, "Modelled depth and host
//! depth").
//!
//! Every operand the program names must be bound to a
//! [`DeviceBuffer`] of matching shape; outputs are written back to their
//! buffers (so later components and the host read them), and DOT results
//! are returned in the outcome's scalar map.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fblas_audit::{AuditReport, AuditSpec, ModulePrediction};
use fblas_hlssim::{
    channel, FaultHook, GuardReport, ModuleKind, Receiver, Sender, SimError, Simulation,
};
use fblas_trace::{ModuleScope, Tracer};
use parking_lot::Mutex;
use serde::Serialize;

use super::abft;
use super::fused::{self, Backend};
use super::fusion::EXEC_WIDTH;
use super::mdag::Mdag;
use super::planner::{
    component_mdag, ContractCause, Op, Plan, PlanError, PlannedComponent, PlannerConfig, Program,
};
use super::rates::RateGraph;
use crate::helpers::fanout::duplicate_many;
use crate::helpers::{read_matrix, read_vector_replayed, write_matrix, write_vector};
use crate::host::buffer::DeviceBuffer;
use crate::routines::gemv::{Gemv, GemvVariant};
use crate::routines::{Axpy, Dot, Ger, Input, Scal, VecCopy};
use crate::scalar::Scalar;

/// Errors raised while executing a plan.
#[derive(Debug)]
pub enum ExecError {
    /// The plan or program is malformed.
    Plan(PlanError),
    /// A named operand has no bound buffer.
    MissingBuffer(String),
    /// A bound buffer's length disagrees with the declared shape.
    WrongLength {
        /// Operand name.
        operand: String,
        /// Declared element count.
        expected: usize,
        /// Buffer element count.
        got: usize,
    },
    /// The dataflow simulation failed.
    Sim(SimError),
    /// A component's results failed an integrity check — a channel
    /// digest guard or an ABFT checksum identity — after the simulation
    /// itself completed. Raised only by the recovery path, and only
    /// after the retry budget is exhausted; the caller's buffers still
    /// hold the last committed (pre-component) state.
    Corrupt {
        /// Index of the component in the plan's schedule.
        component: usize,
        /// What tripped: the dirty channels or the violated identity.
        detail: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "plan error: {e}"),
            ExecError::MissingBuffer(n) => write!(f, "no buffer bound for operand `{n}`"),
            ExecError::WrongLength {
                operand,
                expected,
                got,
            } => {
                write!(
                    f,
                    "buffer for `{operand}` holds {got} elements, expected {expected}"
                )
            }
            ExecError::Sim(e) => write!(f, "simulation error: {e}"),
            ExecError::Corrupt { component, detail } => {
                write!(
                    f,
                    "component {component} produced corrupt results: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

/// Result of executing a plan.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome<T> {
    /// DOT results by scalar operand name.
    pub scalars: HashMap<String, T>,
    /// One [`AuditReport`] per component, in schedule order; empty
    /// unless the run was [`ExecMode::Audit`].
    pub audits: Vec<AuditReport>,
    /// The run's component count and run ID, plus — under
    /// [`ExecMode::Recover`] — every attempt.
    pub recovery: RecoveryReport,
    /// Threaded simulations that ran with host-depth FIFOs: the
    /// components and fused-schedule units of a [`Backend::Fused`] run
    /// that the rate analysis proved live (DESIGN.md, "Modelled depth
    /// and host depth"), counted over every simulation that completed,
    /// retried attempts included. Always 0 on [`Backend::Threaded`].
    pub host_depth_sims: u64,
}

/// What [`execute_plan`] does around each component besides running
/// it. Audit and recovery exclude each other: an audit measures the one
/// run of each component, recovery may run a component several times.
#[derive(Clone)]
pub enum ExecMode {
    /// Run each component once, straight into the caller's buffers.
    Plain,
    /// Audit every component: it runs under its own [`Tracer`], the
    /// pipeline costs of the computational modules it instantiates are
    /// recorded as they are attached, and after the run the predicted
    /// and measured sides are joined into one [`AuditReport`].
    ///
    /// A fused region appears in the measured side as a *single*
    /// compute lane (`fused:<name>`) — there are no channels inside a
    /// region, so no per-channel stall ledger to attribute; the
    /// predicted side carries the per-op analytic model, which is
    /// backend-invariant.
    Audit {
        /// Modeled clock the predictions are stated at (use
        /// [`crate::perf::estimate_time`]'s achieved frequency for a
        /// device-accurate figure).
        freq_hz: f64,
        /// Busy-share drift beyond which a module is flagged.
        tolerance: f64,
    },
    /// Transactional write-back, fault detection, and retry.
    ///
    /// Each component's output buffers are **staged**: the simulation
    /// writes into per-attempt scratch copies, and only a fully verified
    /// attempt is committed to the caller's buffers (DOT results are
    /// merged the same way). On failure — stall, deadline, module panic,
    /// poisoned or disconnected channels, a dirty channel digest guard,
    /// or a violated ABFT checksum identity — the attempt's writes are
    /// discarded and the component is re-run from the last committed
    /// state, up to [`RetryPolicy::max_attempts`] times with exponential
    /// backoff. On exhaustion the buffers stay at the last committed
    /// state.
    Recover {
        /// Attempt budget, per-attempt deadline, backoff, ABFT switch.
        policy: RetryPolicy,
        /// Armed on every attempt's simulation context; a one-shot
        /// fault plan (e.g. `fblas-chaos`'s `FaultPlan`) therefore
        /// injects on the first attempt and lets the retry run clean —
        /// the transient-fault model. An armed hook also makes the
        /// fusion analysis reject every region (`recovery-guards`), so
        /// fault-injected attempts run threaded on every backend.
        hook: Option<Arc<dyn FaultHook>>,
    },
}

/// How [`execute_plan`] runs a plan.
#[derive(Clone)]
pub struct ExecOptions<'a> {
    /// Execution backend. The default resolves the `FBLAS_BACKEND`
    /// knob; in-process comparisons (differential tests, benchmarks)
    /// pin it so both backends run side by side without environment
    /// races. Fusion is best-effort: regions whose proof obligations do
    /// not re-verify still run threaded.
    pub backend: Backend,
    /// Tracer for the run: each component gets its own span lane
    /// (`component:<index>`) on the executing thread, every module
    /// inside it a trace lane, and the watchdog samples channel
    /// occupancies. `None` is the zero-overhead untraced path.
    pub tracer: Option<&'a Tracer>,
    /// Plain, audited, or recovering execution.
    pub mode: ExecMode,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            backend: Backend::resolve(),
            tracer: None,
            mode: ExecMode::Plain,
        }
    }
}

/// Execute every component of `plan` sequentially on the selected
/// backend. Vector/matrix operands are read from and written to
/// `buffers`; scalar results are returned.
///
/// On failure returns the error together with the [`RecoveryReport`]
/// built so far, which under [`ExecMode::Recover`] holds the attempt
/// history up to the exhausted budget.
pub fn execute_plan<T: Scalar>(
    program: &Program,
    plan: &Plan,
    cfg: &PlannerConfig,
    buffers: &HashMap<String, DeviceBuffer<T>>,
    opts: &ExecOptions<'_>,
) -> Result<ExecOutcome<T>, Box<RecoveryError>> {
    let mut out = ExecOutcome {
        scalars: HashMap::new(),
        audits: Vec::new(),
        recovery: RecoveryReport {
            components: plan.components.len(),
            run_id: fblas_metrics::current_run_id().map(|id| id.to_string()),
            ..RecoveryReport::default()
        },
        host_depth_sims: 0,
    };
    propagate_run_id(opts.tracer);
    if let Some(t) = opts.tracer {
        t.set_backend(opts.backend.as_str());
    }
    let checked = cfg
        .validate()
        .map_err(ExecError::from)
        .and_then(|()| check_bindings(program, buffers));
    if let Err(error) = checked {
        return Err(Box::new(RecoveryError {
            error,
            report: out.recovery,
        }));
    }

    let run = Run {
        program,
        cfg,
        buffers,
        backend: opts.backend,
        metrics: ExecMetrics::arm(),
        host_depth_sims: Cell::new(0),
    };
    for (ix, component) in plan.components.iter().enumerate() {
        // One span lane per component on this thread; module lanes are
        // created inside the simulation's worker threads.
        let _component_span = ModuleScope::enter(&format!("component:{ix}"), opts.tracer);
        let comp_t0 = run.metrics.as_ref().map(|_| Instant::now());
        let scalars = match &opts.mode {
            ExecMode::Plain => run
                .once(
                    component,
                    &BufRouter::direct(buffers),
                    opts.tracer,
                    &ComponentOptions::default(),
                )
                .map(|(scalars, _)| scalars),
            ExecMode::Audit { freq_hz, tolerance } => run
                .audited(component, *freq_hz, *tolerance)
                .map(|(scalars, audit)| {
                    out.audits.push(audit);
                    scalars
                }),
            ExecMode::Recover { policy, hook } => {
                run.recover(ix, component, policy, hook, opts.tracer, &mut out.recovery)
            }
        };
        match scalars {
            Ok(scalars) => out.scalars.extend(scalars),
            Err(error) => {
                return Err(Box::new(RecoveryError {
                    error,
                    report: out.recovery,
                }))
            }
        }
        if let (Some(m), Some(t0)) = (&run.metrics, comp_t0) {
            m.component_done(t0);
        }
    }
    out.host_depth_sims = run.host_depth_sims.get();
    Ok(out)
}

/// Retry discipline for [`ExecMode::Recover`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per component before giving up (≥ 1). The default is
    /// read from `FBLAS_RETRY_MAX` via [`fblas_hlssim::env::retry_max`].
    pub max_attempts: u32,
    /// Wall-clock deadline per attempt, enforced by the simulator's
    /// watchdog ([`Simulation::set_deadline`]). Catches hung modules
    /// that are live but make no progress — a plain stall check never
    /// fires for those. `None` leaves only stall detection.
    pub deadline: Option<Duration>,
    /// Base delay before a retry; attempt `k` waits `backoff · 2^(k-1)`.
    /// `Duration::ZERO` (the default) retries immediately, which keeps
    /// recovery runs deterministic in time-free reports.
    pub backoff: Duration,
    /// Whether to evaluate the ABFT (Huang–Abraham) checksum identities
    /// on the staged results before committing.
    pub abft: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: fblas_hlssim::env::retry_max(),
            deadline: None,
            backoff: Duration::ZERO,
            abft: true,
        }
    }
}

/// Normalized failure kind of one recovery attempt — the stable
/// vocabulary the serving layer (and any future client) maps to
/// response codes without string matching. Serializes to the same
/// snake-case names `AttemptRecord` has always carried
/// (`"stall"`, `"deadline"`, `"module_panic"`, `"poisoned"`,
/// `"disconnect"`, `"corruption"`, `"plan"`, `"error"`), so seeded
/// recovery reports stay byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryErrorKind {
    /// The watchdog declared the composition deadlocked.
    Stall,
    /// The per-attempt wall-clock deadline expired.
    Deadline,
    /// A module thread panicked.
    ModulePanic,
    /// A peer observed the context poisoned by a dying module.
    Poisoned,
    /// A channel endpoint disconnected mid-stream.
    Disconnect,
    /// A digest guard or ABFT checksum identity failed after the
    /// simulation completed.
    Corruption,
    /// The plan or program was malformed.
    Plan,
    /// Any other execution error (missing/mis-sized buffer bindings).
    Error,
}

impl RecoveryErrorKind {
    /// Every kind, in a stable order (useful for exhaustive client-side
    /// dispatch tables and tests).
    pub const ALL: [RecoveryErrorKind; 8] = [
        RecoveryErrorKind::Stall,
        RecoveryErrorKind::Deadline,
        RecoveryErrorKind::ModulePanic,
        RecoveryErrorKind::Poisoned,
        RecoveryErrorKind::Disconnect,
        RecoveryErrorKind::Corruption,
        RecoveryErrorKind::Plan,
        RecoveryErrorKind::Error,
    ];

    /// Classify an [`ExecError`].
    pub fn of(e: &ExecError) -> RecoveryErrorKind {
        match e {
            ExecError::Sim(SimError::Stall { .. }) => RecoveryErrorKind::Stall,
            ExecError::Sim(SimError::Deadline { .. }) => RecoveryErrorKind::Deadline,
            ExecError::Sim(SimError::Module { .. }) => RecoveryErrorKind::ModulePanic,
            ExecError::Sim(SimError::Poisoned { .. }) => RecoveryErrorKind::Poisoned,
            ExecError::Sim(SimError::Disconnected { .. }) => RecoveryErrorKind::Disconnect,
            ExecError::Corrupt { .. } => RecoveryErrorKind::Corruption,
            ExecError::Plan(_) => RecoveryErrorKind::Plan,
            _ => RecoveryErrorKind::Error,
        }
    }

    /// The stable snake-case name this kind serializes to.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryErrorKind::Stall => "stall",
            RecoveryErrorKind::Deadline => "deadline",
            RecoveryErrorKind::ModulePanic => "module_panic",
            RecoveryErrorKind::Poisoned => "poisoned",
            RecoveryErrorKind::Disconnect => "disconnect",
            RecoveryErrorKind::Corruption => "corruption",
            RecoveryErrorKind::Plan => "plan",
            RecoveryErrorKind::Error => "error",
        }
    }

    /// Parse a stable name back into the kind.
    pub fn parse(s: &str) -> Option<RecoveryErrorKind> {
        RecoveryErrorKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Whether this kind counts against a plan-shape circuit breaker:
    /// integrity and liveness failures indicate the *shape* (or the
    /// faults chasing it) is sick; `plan`/`error` are caller mistakes
    /// that fail deterministically up front and need no breaker.
    pub fn trips_breaker(self) -> bool {
        !matches!(self, RecoveryErrorKind::Plan | RecoveryErrorKind::Error)
    }
}

impl std::fmt::Display for RecoveryErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// Manual impls pin the wire names independently of variant spelling.
impl Serialize for RecoveryErrorKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl serde::Deserialize for RecoveryErrorKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::DeError::custom("expected recovery error kind string"))?;
        RecoveryErrorKind::parse(s)
            .ok_or_else(|| serde::DeError::custom(format!("unknown recovery error kind `{s}`")))
    }
}

/// One component attempt in a [`RecoveryReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AttemptRecord {
    /// Component index in the plan's schedule.
    pub component: usize,
    /// 1-based attempt number.
    pub attempt: u32,
    /// `None` on success; otherwise the normalized failure kind. Kinds —
    /// not raw messages — so two runs of the same seeded fault plan
    /// serialize identically.
    pub error: Option<RecoveryErrorKind>,
    /// Whether a channel digest guard was dirty on this attempt.
    pub guard_flagged: bool,
    /// Whether an ABFT checksum identity failed on this attempt.
    pub abft_flagged: bool,
    /// True on the succeeding attempt of a component that failed at
    /// least once.
    pub recovered: bool,
}

/// Structured outcome of a recovery-enabled execution. Contains only
/// deterministic fields (no wall times): with a seeded fault plan, two
/// runs produce byte-identical serializations.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryReport {
    /// Components in the schedule.
    pub components: usize,
    /// Every attempt, in execution order.
    pub attempts: Vec<AttemptRecord>,
    /// Components that failed at least once and then succeeded.
    pub recovered: usize,
    /// Total retries across all components.
    pub retries: u64,
    /// Correlation run ID (16 lowercase hex digits) captured from the
    /// live [`fblas_metrics::RunScope`], if any. Under
    /// `RunScope::seeded`, two runs of the same seed carry the same ID,
    /// so seeded recovery reports stay byte-stable.
    pub run_id: Option<String>,
}

/// Terminal failure of [`execute_plan`]: the last error plus the
/// attempt history up to it (only [`ExecMode::Recover`] records
/// attempts).
#[derive(Debug)]
pub struct RecoveryError {
    /// The error that exhausted the retry budget (or failed up front).
    pub error: ExecError,
    /// Attempt history, including the failing attempts.
    pub report: RecoveryReport,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.report.attempts.len() {
            0 => write!(f, "{}", self.error),
            n => write!(f, "recovery exhausted after {n} attempt(s): {}", self.error),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Global-metrics handles for one plan execution, resolved once per run
/// when the metrics runtime is armed (`None` when disarmed: the hot
/// path then pays one `Option` branch per component). Dropping the
/// value records the plan's wall latency into `fblas_plan_us`, so the
/// histogram covers failed runs too.
struct ExecMetrics {
    reg: Arc<fblas_metrics::Registry>,
    plan_t0: Instant,
}

impl ExecMetrics {
    fn arm() -> Option<ExecMetrics> {
        fblas_metrics::registry().map(|reg| ExecMetrics {
            reg,
            plan_t0: Instant::now(),
        })
    }

    fn component_done(&self, t0: Instant) {
        self.reg.counter("fblas_exec_components_total", &[]).inc();
        self.reg
            .histogram("fblas_component_us", &[])
            .record(fblas_metrics::elapsed_us(t0));
    }
}

impl Drop for ExecMetrics {
    fn drop(&mut self) {
        self.reg
            .histogram("fblas_plan_us", &[])
            .record(fblas_metrics::elapsed_us(self.plan_t0));
    }
}

/// Stamp the live [`fblas_metrics::RunScope`]'s ID onto the tracer so
/// the Perfetto export carries the same correlation key as the metrics
/// snapshot and the recovery report.
fn propagate_run_id(tracer: Option<&Tracer>) {
    if let (Some(t), Some(id)) = (tracer, fblas_metrics::current_run_id()) {
        t.set_run_id(id.to_string());
    }
}

/// Publish the authoritative flight-recorder bundle when a retry budget
/// is exhausted. Attempt-level captures were suppressed, so this is the
/// only bundle the run emits; it carries the full [`RecoveryReport`]
/// and, for sim-level deaths, the watchdog's wait-for graph.
fn capture_exhaustion_postmortem(
    err: &ExecError,
    report: &RecoveryReport,
    guards: Option<serde::Value>,
) {
    if !fblas_metrics::flight::armed() {
        return;
    }
    let culprit = match err {
        ExecError::Sim(SimError::Poisoned { by }) => by.clone(),
        ExecError::Sim(SimError::Module { module, .. }) => Some(module.clone()),
        ExecError::Sim(SimError::Disconnected { channel }) => Some(channel.clone()),
        ExecError::Corrupt { component, .. } => Some(format!("component:{component}")),
        _ => None,
    };
    let stall = match err {
        ExecError::Sim(SimError::Stall { report })
        | ExecError::Sim(SimError::Deadline { report, .. }) => serde_json::to_value(report).ok(),
        _ => None,
    };
    fblas_hlssim::postmortem::capture(
        fblas_metrics::flight::Trigger {
            kind: RecoveryErrorKind::of(err).as_str().to_string(),
            detail: err.to_string(),
            culprit,
        },
        stall,
        guards,
        serde_json::to_value(report).ok(),
        None,
    );
}

/// [`execute_plan`] under [`ExecMode::Recover`], with the attempt
/// history handed back beside the outcome.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_with_recovery_backend<T: Scalar>(
    program: &Program,
    plan: &Plan,
    cfg: &PlannerConfig,
    buffers: &HashMap<String, DeviceBuffer<T>>,
    policy: &RetryPolicy,
    hook: Option<Arc<dyn FaultHook>>,
    tracer: Option<&Tracer>,
    backend: Backend,
) -> Result<(ExecOutcome<T>, RecoveryReport), Box<RecoveryError>> {
    let mode = ExecMode::Recover {
        policy: policy.clone(),
        hook,
    };
    let opts = ExecOptions {
        backend,
        tracer,
        mode,
    };
    let mut out = execute_plan(program, plan, cfg, buffers, &opts)?;
    let report = std::mem::take(&mut out.recovery);
    Ok((out, report))
}

/// What every component of one [`execute_plan`] run shares.
struct Run<'a, T> {
    program: &'a Program,
    cfg: &'a PlannerConfig,
    buffers: &'a HashMap<String, DeviceBuffer<T>>,
    backend: Backend,
    metrics: Option<ExecMetrics>,
    /// [`ExecOutcome::host_depth_sims`] so far.
    host_depth_sims: Cell<u64>,
}

impl<T: Scalar> Run<'_, T> {
    /// Run `component` once, as its units on the backend
    /// ([`fused::run_component_fused`]), and return its DOT results and
    /// guard reports.
    fn once(
        &self,
        component: &PlannedComponent,
        router: &BufRouter<'_, T>,
        tracer: Option<&Tracer>,
        opts: &ComponentOptions,
    ) -> Result<(HashMap<String, T>, Vec<GuardReport>), ExecError> {
        let run = fused::run_component_fused(
            self.program,
            self.cfg,
            component,
            self.backend,
            router,
            tracer,
            opts,
        )?;
        self.host_depth_sims
            .set(self.host_depth_sims.get() + run.host_depth_sims);
        Ok((run.scalars, run.guards))
    }

    /// [`ExecMode::Audit`]: run `component` under a fresh tracer, which
    /// keeps the audit's lanes (and the busy-share normalization over
    /// them) scoped to the modules that actually ran together, and join
    /// the plan's predictions, one per op in component order, with the
    /// measured lanes.
    fn audited(
        &self,
        component: &PlannedComponent,
        freq_hz: f64,
        tolerance: f64,
    ) -> Result<(HashMap<String, T>, AuditReport), ExecError> {
        let predictions = component
            .ops
            .iter()
            .map(|&oi| op_prediction::<T>(self.program, self.cfg, oi, &component.gemv_variants))
            .collect::<Result<Vec<_>, _>>()?;
        let tracer = Tracer::new();
        tracer.set_backend(self.backend.as_str());
        let (scalars, _) = self.once(
            component,
            &BufRouter::direct(self.buffers),
            Some(&tracer),
            &ComponentOptions::default(),
        )?;
        let mut spec = AuditSpec::new(freq_hz).with_tolerance(tolerance);
        spec.predictions = merge_predictions(predictions);
        Ok((scalars, fblas_audit::report::audit_tracer(&spec, &tracer)))
    }

    /// [`ExecMode::Recover`]: attempt component `ix` until one attempt
    /// completes with clean digest guards and (if enabled) intact ABFT
    /// identities, then commit its staged outputs to the caller's
    /// buffers. Every attempt is appended to `report`.
    fn recover(
        &self,
        ix: usize,
        component: &PlannedComponent,
        policy: &RetryPolicy,
        hook: &Option<Arc<dyn FaultHook>>,
        tracer: Option<&Tracer>,
        report: &mut RecoveryReport,
    ) -> Result<HashMap<String, T>, ExecError> {
        let (program, buffers) = (self.program, self.buffers);
        // Operands this component writes; each attempt stages them.
        let mut out_names: Vec<&str> = component
            .ops
            .iter()
            .map(|&oi| program.ops()[oi].output())
            .collect();
        out_names.sort_unstable();
        out_names.dedup();
        let opts = ComponentOptions {
            hook: hook.clone(),
            deadline: policy.deadline,
            ..ComponentOptions::default()
        };
        // ABFT predictions of the ops whose inputs the component does
        // not write read only committed state, which no attempt
        // changes: with enough input to be worth a thread, they are
        // computed once, beside the first attempt.
        let mut predicted = abft::Predictions::new();
        let beside = if policy.abft {
            abft_beside(program, &component.ops, &out_names, buffers)
        } else {
            Vec::new()
        };
        let mut predict_beside = !beside.is_empty();
        let max = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            // Fresh scratch per attempt, cut from the committed state:
            // a faulted attempt that ran to completion left garbage in
            // the *previous* scratch, never in `buffers`.
            let staged: HashMap<String, DeviceBuffer<T>> = out_names
                .iter()
                .filter_map(|&name| {
                    buffers.get(name).map(|real| {
                        (
                            name.to_string(),
                            DeviceBuffer::from_vec(real.name(), real.to_host(), real.bank()),
                        )
                    })
                })
                .collect();
            // Fused schedules split a component into sequential units
            // that hand values off through the operand buffers, so a
            // later unit must *read* what an earlier unit staged. The
            // overlay map resolves reads staged-first (buffer handles
            // clone shallowly — the overlay aliases the scratch
            // storage); the threaded backend keeps reading committed
            // state only, since its in-component traffic never touches
            // buffers.
            let merged: Option<HashMap<String, DeviceBuffer<T>>> =
                self.backend.fused_allowed().then(|| {
                    let mut m = buffers.clone();
                    for (k, v) in &staged {
                        m.insert(k.clone(), v.clone());
                    }
                    m
                });
            let router = BufRouter {
                inputs: merged.as_ref().unwrap_or(buffers),
                outputs: Some(&staged),
            };
            // Suppress sim-level postmortem capture for the attempt: a
            // retried failure is not terminal, and on exhaustion the
            // executor publishes the one authoritative bundle (with the
            // recovery history attached) below.
            let result = {
                let _supp = fblas_metrics::flight::suppress_capture();
                if std::mem::take(&mut predict_beside) {
                    std::thread::scope(|s| {
                        let helper = s.spawn(|| abft::predict_ops(program, &beside, buffers));
                        let result = self.once(component, &router, tracer, &opts);
                        predicted = helper
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                        result
                    })
                } else {
                    self.once(component, &router, tracer, &opts)
                }
            };

            let mut attempt_guards: Option<serde::Value> = None;
            let mut guard_flagged = false;
            let mut abft_flagged = false;
            let (scalars, failure) = match result {
                Ok((scalars, guards)) => {
                    if fblas_metrics::flight::armed() {
                        attempt_guards = serde_json::to_value(&guards).ok();
                    }
                    guard_flagged = guards.iter().any(|g| !g.clean());
                    let abft_detail = if policy.abft {
                        abft::verify_component(
                            program,
                            &component.ops,
                            &staged,
                            buffers,
                            &scalars,
                            &predicted,
                        )
                        .err()
                    } else {
                        None
                    };
                    abft_flagged = abft_detail.is_some();
                    let failure = if guard_flagged {
                        let dirty: Vec<String> = guards
                            .iter()
                            .filter(|g| !g.clean())
                            .map(|g| g.channel.clone())
                            .collect();
                        Some(ExecError::Corrupt {
                            component: ix,
                            detail: format!(
                                "channel integrity guard(s) tripped on: {}",
                                dirty.join(", ")
                            ),
                        })
                    } else {
                        abft_detail.map(|detail| ExecError::Corrupt {
                            component: ix,
                            detail,
                        })
                    };
                    (scalars, failure)
                }
                Err(e) => (HashMap::new(), Some(e)),
            };

            if let Some(m) = &self.metrics {
                m.reg.counter("fblas_exec_attempts_total", &[]).inc();
                if guard_flagged {
                    m.reg.counter("fblas_exec_guard_trips_total", &[]).inc();
                }
                if abft_flagged {
                    m.reg.counter("fblas_exec_abft_failures_total", &[]).inc();
                }
            }

            let Some(err) = failure else {
                report.attempts.push(AttemptRecord {
                    component: ix,
                    attempt,
                    error: None,
                    guard_flagged: false,
                    abft_flagged: false,
                    recovered: attempt > 1,
                });
                // Commit: publish the verified scratch to the caller's
                // buffers, copied once, straight from its read guard.
                for (name, scratch) in &staged {
                    if let Some(real) = buffers.get(name) {
                        scratch.with_read(|data| real.from_host(data));
                    }
                }
                if attempt > 1 {
                    report.recovered += 1;
                    if let Some(m) = &self.metrics {
                        m.reg.counter("fblas_exec_recovered_total", &[]).inc();
                    }
                }
                return Ok(scalars);
            };
            report.attempts.push(AttemptRecord {
                component: ix,
                attempt,
                error: Some(RecoveryErrorKind::of(&err)),
                guard_flagged,
                abft_flagged,
                recovered: false,
            });
            if let Some(t) = tracer {
                t.record_sample(
                    &format!("recovery:component:{ix}"),
                    t.now_us(),
                    attempt as f64,
                );
            }
            if attempt == max {
                capture_exhaustion_postmortem(&err, report, attempt_guards.take());
                return Err(err);
            }
            report.retries += 1;
            if let Some(m) = &self.metrics {
                m.reg.counter("fblas_exec_retries_total", &[]).inc();
            }
            if !policy.backoff.is_zero() {
                let shift = (attempt - 1).min(16);
                std::thread::sleep(policy.backoff * (1u32 << shift));
            }
        }
    }
}

/// Input elements from which a component's ABFT predictions run on a
/// helper thread beside the component rather than after it. A sweep
/// over 2¹⁴, 2¹⁶ and 2¹⁸ (EXPERIMENTS.md, "Data-independent work once
/// per plan or beside the run") found the thread saving 5–7% of the
/// exec time at 92K and 160K input elements and no measurable
/// difference at 44K; where between 44K and 92K it starts to pay is
/// unmeasured.
const ABFT_BESIDE_MIN: usize = 1 << 16;

/// The ops of a component whose ABFT predictions run beside it: those
/// reading no operand in `written` (sorted), when their inputs hold at
/// least [`ABFT_BESIDE_MIN`] elements; none otherwise.
fn abft_beside<T: Scalar>(
    program: &Program,
    ops: &[usize],
    written: &[&str],
    buffers: &HashMap<String, DeviceBuffer<T>>,
) -> Vec<usize> {
    let beside: Vec<usize> = ops
        .iter()
        .copied()
        .filter(|&oi| {
            program.ops()[oi]
                .inputs()
                .iter()
                .all(|name| written.binary_search(name).is_err())
        })
        .collect();
    let elements: usize = beside
        .iter()
        .flat_map(|&oi| program.ops()[oi].inputs())
        .filter_map(|name| buffers.get(name).map(DeviceBuffer::len))
        .sum();
    if elements >= ABFT_BESIDE_MIN {
        beside
    } else {
        Vec::new()
    }
}

/// Shape-check every operand binding up front.
fn check_bindings<T: Scalar>(
    program: &Program,
    buffers: &HashMap<String, DeviceBuffer<T>>,
) -> Result<(), ExecError> {
    for op in program.ops() {
        for name in op.operands() {
            if let Ok(l) = program.vec_len(name) {
                check_buffer(buffers, name, l)?;
            } else if let Ok((n, m)) = program.mat_dims(name) {
                check_buffer(buffers, name, n * m)?;
            }
            // Scalars need no buffer.
        }
    }
    Ok(())
}

/// Collapse predictions sharing a module name into one entry — two ops
/// of the same kind in one component run on identically named modules,
/// and their trace lanes aggregate the same way. Latencies and
/// iteration counts add (all modules here are `I = 1`).
fn merge_predictions(preds: Vec<ModulePrediction>) -> Vec<ModulePrediction> {
    let mut out: Vec<ModulePrediction> = Vec::new();
    for p in preds {
        if let Some(q) = out.iter_mut().find(|q| q.module == p.module) {
            q.cost.latency += p.cost.latency;
            q.cost.iterations += p.cost.iterations;
            q.elements += p.elements;
        } else {
            out.push(p);
        }
    }
    out
}

fn check_buffer<T: Scalar>(
    buffers: &HashMap<String, DeviceBuffer<T>>,
    name: &str,
    expected: usize,
) -> Result<(), ExecError> {
    let buf = buffers
        .get(name)
        .ok_or_else(|| ExecError::MissingBuffer(name.to_string()))?;
    if buf.len() != expected {
        return Err(ExecError::WrongLength {
            operand: name.to_string(),
            expected,
            got: buf.len(),
        });
    }
    Ok(())
}

fn get_buf<'b, T: Scalar>(
    buffers: &'b HashMap<String, DeviceBuffer<T>>,
    name: &str,
) -> Result<&'b DeviceBuffer<T>, ExecError> {
    buffers
        .get(name)
        .ok_or_else(|| ExecError::MissingBuffer(name.to_string()))
}

/// Routes a component's buffer accesses. The direct router reads and
/// writes the caller's buffers, exactly as [`execute_plan`] always has;
/// the recovery path overlays a scratch map so every *write* target
/// resolves to a staged copy while *reads* keep hitting the committed
/// state (in-component producer→consumer traffic flows through
/// channels, never buffers, so reads never need the overlay).
pub(super) struct BufRouter<'a, T> {
    inputs: &'a HashMap<String, DeviceBuffer<T>>,
    outputs: Option<&'a HashMap<String, DeviceBuffer<T>>>,
}

impl<'a, T: Scalar> BufRouter<'a, T> {
    /// Reads and writes both hit `buffers` (non-transactional).
    fn direct(buffers: &'a HashMap<String, DeviceBuffer<T>>) -> Self {
        BufRouter {
            inputs: buffers,
            outputs: None,
        }
    }

    /// Buffer a module streams *from*.
    pub(super) fn input(&self, name: &str) -> Result<&DeviceBuffer<T>, ExecError> {
        get_buf(self.inputs, name)
    }

    /// Buffer a module writes *into* (staged copy when overlaid).
    pub(super) fn output(&self, name: &str) -> Result<&DeviceBuffer<T>, ExecError> {
        if let Some(staged) = self.outputs {
            if let Some(b) = staged.get(name) {
                return Ok(b);
            }
        }
        get_buf(self.inputs, name)
    }
}

/// Per-run extras for a component's simulation.
#[derive(Clone, Default)]
pub(super) struct ComponentOptions {
    /// Fault hook armed on the simulation context before the run.
    pub(super) hook: Option<Arc<dyn FaultHook>>,
    /// Watchdog wall-clock deadline for the run.
    pub(super) deadline: Option<Duration>,
    /// The backend lets the run use host-depth FIFOs: the fused backend
    /// sets it for a threaded fallback whose [`rates_live`] verdict,
    /// kept with the component, holds; the threaded backend, the
    /// oracle, never does. [`admit_host_depth`] still refuses it under
    /// an armed hook.
    pub(super) host_depth: bool,
}

/// What one threaded simulation (or a component's units) leaves
/// behind.
#[derive(Default)]
pub(super) struct ComponentRun<T> {
    /// DOT results by scalar operand name.
    pub(super) scalars: HashMap<String, T>,
    /// Digest guard reports of the simulated channels.
    pub(super) guards: Vec<GuardReport>,
    /// Threaded simulations that ran with host-depth FIFOs.
    pub(super) host_depth_sims: u64,
}

/// Host capacity of every FIFO of a threaded simulation admitted by
/// [`admit_host_depth`]: a channel gets `max(modelled depth,
/// HOST_DEPTH)`, so a producer and a consumer on different cores park
/// and wake far less often than at the modelled 64. The smallest depth
/// on the wall-clock plateau of a sweep over {256, 1024, 4096, 16384}
/// (EXPERIMENTS.md, "Host-depth FIFOs"); a channel preallocates
/// `min(capacity, 2¹⁶)` slots, so a small request stays cheap.
const HOST_DEPTH: usize = 1024;

/// Depth a burst edge gets above the burst it must buffer (the ATAX
/// row of tiles, `T_N·M`).
const BURST_SLACK: usize = 64;

/// The host-depth rule: a threaded simulation runs every FIFO at host
/// depth only when its backend allows it — which the fused backend does
/// only for a simulation whose [`rates_live`] verdict holds — and no
/// fault hook is armed. Kahn determinism makes the deeper run produce
/// the same bits, and extra capacity never creates a deadlock; a
/// composition that stalls at its modelled depths keeps them, so it
/// still stalls. Fault sites stay at modelled depth so that chaos
/// reports match the threaded backend's.
fn admit_host_depth(opts: &ComponentOptions) -> bool {
    opts.host_depth && opts.hook.is_none()
}

/// Whether the rate analysis of `mdag` completes.
fn completes(mdag: Option<Mdag>) -> bool {
    mdag.is_some_and(|g| RateGraph::from_mdag(&g).analyze().is_completed())
}

/// The rate half of the host-depth rule for the simulation
/// [`run_component`] instantiates for `ops`: whether its MDAG at the
/// depths it would otherwise instantiate completes. It reads no data,
/// so the fused backend keeps the verdict with the component.
pub(super) fn rates_live(
    program: &Program,
    cfg: &PlannerConfig,
    ops: &[usize],
    variants: &HashMap<usize, GemvVariant>,
) -> bool {
    fused::count_analysis(2);
    completes(exec_mdag(program, cfg, ops, variants))
}

/// The MDAG of the simulation [`run_component`] instantiates for `ops`,
/// at the depths it instantiates: the default depth, and
/// [`edge_depth`]'s on a burst edge.
fn exec_mdag(
    program: &Program,
    cfg: &PlannerConfig,
    ops: &[usize],
    variants: &HashMap<usize, GemvVariant>,
) -> Option<Mdag> {
    let mut g = component_mdag(program, ops, variants, cfg).ok()?;
    let bursts: Vec<_> = g
        .edges()
        .filter(|e| e.burst_before_consume > 0)
        .map(|e| (e.id, e.burst_before_consume))
        .collect();
    for (edge, burst) in bursts {
        g.set_channel_depth(edge, burst + BURST_SLACK as u64);
    }
    Some(g)
}

/// The FIFO depths of one threaded simulation. Every channel
/// [`run_component`] creates goes through [`Fifos::open`].
#[derive(Clone, Copy)]
struct Fifos {
    /// Modelled depth of an ordinary channel
    /// ([`PlannerConfig::default_depth`]).
    ordinary: usize,
    /// Admitted by [`admit_host_depth`].
    host: bool,
}

impl Fifos {
    /// A channel of modelled depth `modelled`, at host depth when
    /// admitted.
    fn open<T: Send + 'static>(
        self,
        sim: &Simulation,
        modelled: usize,
        name: String,
    ) -> (Sender<T>, Receiver<T>) {
        let depth = if self.host {
            modelled.max(HOST_DEPTH)
        } else {
            modelled
        };
        channel(sim.ctx(), depth, name)
    }
}

/// Run `ops` as one threaded simulation.
pub(super) fn run_component<T: Scalar>(
    program: &Program,
    cfg: &PlannerConfig,
    ops: &[usize],
    variants: &HashMap<usize, GemvVariant>,
    router: &BufRouter<'_, T>,
    tracer: Option<&Tracer>,
    opts: &ComponentOptions,
) -> Result<ComponentRun<T>, ExecError> {
    let scalars = Arc::new(Mutex::new(HashMap::new()));
    let mut sim = Simulation::new();
    if let Some(t) = tracer {
        sim.set_tracer(t.clone());
    }
    if let Some(hook) = &opts.hook {
        sim.ctx().arm_faults(hook.clone());
    }
    if let Some(deadline) = opts.deadline {
        sim.set_deadline(deadline);
    }
    let fifos = Fifos {
        ordinary: cfg.default_depth as usize,
        host: admit_host_depth(opts),
    };

    // Producer map restricted to this component.
    let mut in_comp: HashMap<&str, usize> = HashMap::new();
    for &oi in ops {
        in_comp.insert(program.ops()[oi].output(), oi);
    }

    // 1. Vector replay multiplicity each consumer needs from its reader.
    let x_reps = |oi: usize| -> usize {
        match (&program.ops()[oi], variants.get(&oi)) {
            (Op::Gemv { .. }, Some(GemvVariant::RowStreamed)) => {
                let (n, _) = gemv_dims(program, oi);
                n.div_ceil(cfg.tn)
            }
            (Op::Gemv { .. }, Some(GemvVariant::TransColStreamed)) => {
                let (_, m) = gemv_dims(program, oi);
                m.div_ceil(cfg.tm)
            }
            _ => 1,
        }
    };

    // 2. In-component consumer lists per produced operand.
    let mut consumers: HashMap<&str, Vec<usize>> = HashMap::new();
    for &oi in ops {
        for inp in program.ops()[oi].inputs() {
            if in_comp.contains_key(inp) {
                consumers.entry(inp).or_default().push(oi);
            }
        }
    }

    // 3. Shared *source* matrices: one read + a duplicator.
    let mut matrix_source_consumers: HashMap<&str, Vec<usize>> = HashMap::new();
    for &oi in ops {
        if let Op::Gemv { a, .. } | Op::Ger { a, .. } = &program.ops()[oi] {
            if !in_comp.contains_key(a.as_str()) {
                matrix_source_consumers
                    .entry(a.as_str())
                    .or_default()
                    .push(oi);
            }
        }
    }

    // 4. In-place operands: in an admitted simulation a GEMV/GER tile
    //    reads each operand it would get from DRAM straight from the
    //    buffer, with no interface reader and no FIFO — the host-depth
    //    rule at its limit, a DRAM edge of unbounded depth. A shared
    //    matrix keeps its reader and `dup_*` stage, a multi-round `y`
    //    its replay loop. An entry is taken by the tile's first use of
    //    the name, so a tile holds one guard per buffer.
    let mut in_place: HashSet<(usize, String)> = HashSet::new();
    if fifos.host {
        for &oi in ops {
            let operands = match &program.ops()[oi] {
                Op::Gemv { a, x, y, .. } => {
                    let single = exec_gemv(program, cfg, a, variants[&oi])?.y_rounds() == 1;
                    vec![Some(a), Some(x), y.as_ref().filter(|_| single)]
                }
                Op::Ger { a, x, y, .. } => vec![Some(a), Some(x), Some(y)],
                _ => continue,
            };
            for name in operands.into_iter().flatten() {
                let sole = matrix_source_consumers
                    .get(name.as_str())
                    .is_none_or(|c| c.len() == 1);
                if sole && !in_comp.contains_key(name.as_str()) {
                    in_place.insert((oi, name.clone()));
                }
            }
        }
    }

    // Incoming channel per (consumer, operand): receivers the op attach
    // step will take.
    let mut incoming: HashMap<(usize, String), Receiver<T>> = HashMap::new();

    for (mat, cons) in &matrix_source_consumers {
        let (n, m) = program.mat_dims(mat)?;
        if cons.len() == 1 {
            // Sole consumer: the reader adopts that consumer's tile
            // order (a ColStreamed GEMV expects tiles by columns).
            let oi = cons[0];
            if in_place.contains(&(oi, (*mat).to_string())) {
                continue;
            }
            let tiling = consumer_tiling(program, cfg, oi, variants);
            let d = edge_depth(program, cfg, oi, mat, &in_comp);
            let (tx, rx) = fifos.open(&sim, d, format!("{mat}->{oi}"));
            read_matrix(&mut sim, router.input(mat)?, n, m, tiling, tx, 1);
            incoming.insert((oi, (*mat).to_string()), rx);
        } else {
            // Shared stream: the planner guarantees all consumers agree
            // on tiles-by-rows.
            let tiling = crate::tiling::Tiling::new(
                cfg.tn.min(n.max(1)),
                cfg.tm.min(m.max(1)),
                crate::tiling::TileOrder::RowTilesRowMajor,
            );
            let (tx, rx) = fifos.open(&sim, fifos.ordinary, format!("read_{mat}"));
            read_matrix(&mut sim, router.input(mat)?, n, m, tiling, tx, 1);
            let mut sinks = Vec::new();
            for &oi in cons.iter() {
                let d = edge_depth(program, cfg, oi, mat, &in_comp);
                let (ctx_tx, ctx_rx) = fifos.open(&sim, d, format!("{mat}->{oi}"));
                sinks.push(ctx_tx);
                incoming.insert((oi, (*mat).to_string()), ctx_rx);
            }
            duplicate_many(&mut sim, format!("dup_{mat}"), n * m, rx, sinks);
        }
    }

    // 5. Attach ops in component order, building source readers and
    //    output fan-out as we go.
    for &oi in ops {
        let op = &program.ops()[oi];

        // --- inputs ---
        let mut take_input =
            |sim: &mut Simulation, name: &str, reps: usize| -> Result<Receiver<T>, ExecError> {
                if let Some(rx) = incoming.remove(&(oi, name.to_string())) {
                    return Ok(rx);
                }
                // Source vector (or scalar-free) read from DRAM.
                program.vec_len(name)?;
                let (tx, rx) = fifos.open(sim, fifos.ordinary, format!("{name}->{oi}"));
                read_vector_replayed(sim, router.input(name)?, tx, reps);
                Ok(rx)
            };
        // A tile's input: the buffer when read in place, else a channel.
        let mut tile_input =
            |sim: &mut Simulation, name: &str, reps: usize| -> Result<Input<T>, ExecError> {
                if in_place.remove(&(oi, name.to_string())) {
                    return Ok(Input::Buffer(router.input(name)?.clone()));
                }
                take_input(sim, name, reps).map(Input::Channel)
            };

        // --- output sinks ---
        // Every vector/matrix output is written to its buffer; outputs
        // consumed in-component additionally fan out to those consumers.
        let out_name = op.output().to_string();
        let out_consumers = consumers
            .get(out_name.as_str())
            .cloned()
            .unwrap_or_default();

        match op {
            Op::Copy { x, .. } | Op::Scal { x, .. } => {
                let n = program.vec_len(x)?;
                let rx = take_input(&mut sim, x, 1)?;
                let tx = vector_output(
                    &mut sim,
                    program,
                    fifos,
                    router,
                    &mut incoming,
                    &out_name,
                    &out_consumers,
                )?;
                match op {
                    Op::Scal { alpha, .. } => {
                        Scal::new(n, scal_width(cfg)).attach(&mut sim, T::from_f64(*alpha), rx, tx);
                    }
                    _ => VecCopy::new(n, EXEC_WIDTH).attach(&mut sim, rx, tx),
                }
            }
            Op::Axpy { alpha, x, y, .. } => {
                let n = program.vec_len(x)?;
                let rx = take_input(&mut sim, x, 1)?;
                let ry = take_input(&mut sim, y, 1)?;
                let tx = vector_output(
                    &mut sim,
                    program,
                    fifos,
                    router,
                    &mut incoming,
                    &out_name,
                    &out_consumers,
                )?;
                Axpy::new(n, EXEC_WIDTH).attach(&mut sim, T::from_f64(*alpha), rx, ry, tx);
            }
            Op::Dot { x, y, out } => {
                let n = program.vec_len(x)?;
                let rx = take_input(&mut sim, x, 1)?;
                let ry = take_input(&mut sim, y, 1)?;
                let (tr, rr) = fifos.open(&sim, 1, format!("{out}_res"));
                Dot::new(n, EXEC_WIDTH).attach(&mut sim, rx, ry, tr);
                let out = out.clone();
                let scalars = scalars.clone();
                sim.add_module(format!("store_{out}"), ModuleKind::Interface, move || {
                    let v = rr.pop()?;
                    scalars.lock().insert(out.clone(), v);
                    Ok(())
                });
            }
            Op::Gemv {
                alpha,
                beta,
                a,
                x,
                y,
                ..
            } => {
                let g = exec_gemv(program, cfg, a, variants[&oi])?;
                let ra = tile_input(&mut sim, a, 1)?;
                let rxv = tile_input(&mut sim, x, x_reps(oi))?;
                // Effective beta: 0 when no y operand is given.
                let eff_beta = if y.is_some() {
                    T::from_f64(*beta)
                } else {
                    T::ZERO
                };
                let y_len = g.y_len();
                let zeros =
                    DeviceBuffer::from_vec(format!("{out_name}_zero"), vec![T::ZERO; y_len], 0);

                if g.y_rounds() == 1 {
                    let ryi = match y {
                        Some(yn) => tile_input(&mut sim, yn, 1)?,
                        None if fifos.host => Input::Buffer(zeros),
                        None => {
                            let (tyi, ryi) =
                                fifos.open(&sim, fifos.ordinary, format!("{out_name}_y_in"));
                            read_vector_replayed(&mut sim, &zeros, tyi, 1);
                            Input::Channel(ryi)
                        }
                    };
                    let tx = vector_output(
                        &mut sim,
                        program,
                        fifos,
                        router,
                        &mut incoming,
                        &out_name,
                        &out_consumers,
                    )?;
                    g.attach(&mut sim, T::from_f64(*alpha), eff_beta, ra, rxv, ryi, tx);
                } else {
                    // The replay initial is read from DRAM by an
                    // interface module; an in-component producer for it
                    // is not a valid streaming plan.
                    if let Some(yn) = y {
                        if in_comp.contains_key(yn.as_str()) {
                            return Err(ExecError::Plan(PlanError::Contract(
                                ContractCause::ReplayFromComputationalProducer {
                                    operand: yn.clone(),
                                    op_index: oi,
                                },
                            )));
                        }
                    }
                    let initial = match y {
                        Some(yn) => router.input(yn)?.clone(),
                        None => zeros,
                    };
                    // Partial replay through DRAM, with a tap for
                    // in-component consumers of the final round.
                    let (tyi, ryi) = fifos.open(&sim, fifos.ordinary, format!("{out_name}_y_in"));
                    let (tyo, ryo) = fifos.open(&sim, fifos.ordinary, format!("{out_name}_y_out"));
                    g.attach(&mut sim, T::from_f64(*alpha), eff_beta, ra, rxv, ryi, tyo);
                    let taps = consumer_channels(
                        &mut sim,
                        fifos,
                        &mut incoming,
                        &out_name,
                        &out_consumers,
                    );
                    replay_with_taps(
                        &mut sim,
                        fifos,
                        &initial,
                        router.output(&out_name)?,
                        y_len,
                        g.y_rounds(),
                        tyi,
                        ryo,
                        taps,
                    );
                }
            }
            Op::Ger { alpha, a, x, y, .. } => {
                let g = exec_ger(program, cfg, a)?;
                let (n, m) = (g.n, g.m);
                let ra = tile_input(&mut sim, a, 1)?;
                let rxv = tile_input(&mut sim, x, 1)?;
                let ryv = tile_input(&mut sim, y, g.y_repetitions())?;
                let tx = matrix_output(
                    &mut sim,
                    cfg,
                    fifos,
                    router,
                    &mut incoming,
                    &out_name,
                    n,
                    m,
                    &out_consumers,
                )?;
                g.attach(&mut sim, T::from_f64(*alpha), ra, rxv, ryv, tx);
            }
        }
    }

    // Guard reports outlive the simulation through the shared context.
    let ctx = sim.ctx().clone();
    sim.run()?;
    // Every module has joined, so the store modules' handles are gone.
    let scalars = Arc::try_unwrap(scalars)
        .map(Mutex::into_inner)
        .unwrap_or_else(|arc| arc.lock().clone());
    Ok(ComponentRun {
        scalars,
        guards: ctx.guard_reports(),
        host_depth_sims: fifos.host as u64,
    })
}

// Invariant: every op's matrix operand was shape-checked by plan().
#[allow(clippy::disallowed_methods)]
fn gemv_dims(program: &Program, oi: usize) -> (usize, usize) {
    match &program.ops()[oi] {
        Op::Gemv { a, .. } => program.mat_dims(a).expect("checked during planning"),
        _ => unreachable!("x_reps only queried for GEMV"),
    }
}

/// The GEMV module the executor instantiates over matrix `a`: the
/// planner's variant, the configured tiles clamped to the matrix, and
/// the executor's width.
pub(super) fn exec_gemv(
    program: &Program,
    cfg: &PlannerConfig,
    a: &str,
    variant: GemvVariant,
) -> Result<Gemv, ExecError> {
    let (n, m) = program.mat_dims(a)?;
    Ok(Gemv::new(
        variant,
        n,
        m,
        cfg.tn.min(n.max(1)),
        cfg.tm.min(m.max(1)),
        EXEC_WIDTH,
    ))
}

/// The GER module the executor instantiates over matrix `a`.
pub(super) fn exec_ger(program: &Program, cfg: &PlannerConfig, a: &str) -> Result<Ger, ExecError> {
    let (n, m) = program.mat_dims(a)?;
    Ok(Ger::new(
        n,
        m,
        cfg.tn.min(n.max(1)),
        cfg.tm.min(m.max(1)),
        EXEC_WIDTH,
    ))
}

/// The vectorization width the executor instantiates `scal` at.
fn scal_width(cfg: &PlannerConfig) -> usize {
    cfg.tm.clamp(1, EXEC_WIDTH)
}

/// The cycle-model prediction for op `oi`, as its module is
/// instantiated. The audit reads it from the plan, per op, because the
/// analytic `C = L + I·M` model is a property of the *plan*, not of the
/// units or the backend that run it.
fn op_prediction<T: Scalar>(
    program: &Program,
    cfg: &PlannerConfig,
    oi: usize,
    variants: &HashMap<usize, GemvVariant>,
) -> Result<ModulePrediction, ExecError> {
    let wide = EXEC_WIDTH as u64;
    Ok(match &program.ops()[oi] {
        Op::Scal { x, .. } => {
            let (n, w) = (program.vec_len(x)?, scal_width(cfg));
            ModulePrediction::compute("scal", Scal::new(n, w).cost::<T>(), n as u64, w as u64)
        }
        Op::Copy { x, .. } => {
            let n = program.vec_len(x)?;
            ModulePrediction::compute(
                "copy",
                VecCopy::new(n, EXEC_WIDTH).cost::<T>(),
                n as u64,
                wide,
            )
        }
        Op::Axpy { x, .. } => {
            let n = program.vec_len(x)?;
            ModulePrediction::compute("axpy", Axpy::new(n, EXEC_WIDTH).cost::<T>(), n as u64, wide)
        }
        Op::Dot { x, .. } => {
            let n = program.vec_len(x)?;
            ModulePrediction::compute("dot", Dot::new(n, EXEC_WIDTH).cost::<T>(), n as u64, wide)
        }
        Op::Gemv { a, .. } => {
            let g = exec_gemv(program, cfg, a, variants[&oi])?;
            let name = if g.variant.transposed() {
                "gemv_t"
            } else {
                "gemv"
            };
            ModulePrediction::compute(name, g.cost::<T>(), (g.n * g.m) as u64, wide)
        }
        Op::Ger { a, .. } => {
            let g = exec_ger(program, cfg, a)?;
            ModulePrediction::compute("ger", g.cost::<T>(), (g.n * g.m) as u64, wide)
        }
    })
}

/// Tile order the matrix reader must use for consumer `oi`.
// Invariant: matrix shapes were checked by plan().
#[allow(clippy::disallowed_methods)]
fn consumer_tiling(
    program: &Program,
    cfg: &PlannerConfig,
    oi: usize,
    variants: &HashMap<usize, GemvVariant>,
) -> crate::tiling::Tiling {
    match &program.ops()[oi] {
        Op::Gemv { a, .. } => exec_gemv(program, cfg, a, variants[&oi]).map(|g| g.a_tiling()),
        Op::Ger { a, .. } => exec_ger(program, cfg, a).map(|g| g.a_tiling()),
        _ => unreachable!("only matrix consumers query tiling"),
    }
    .expect("checked during planning")
}

/// FIFO depth for a matrix edge into `oi`: deep when the consumer also
/// waits for an in-component vector (the ATAX burst), default otherwise.
// Invariant: matrix shapes were checked by plan().
#[allow(clippy::disallowed_methods)]
fn edge_depth(
    program: &Program,
    cfg: &PlannerConfig,
    oi: usize,
    mat: &str,
    in_comp: &HashMap<&str, usize>,
) -> usize {
    if let Op::Gemv { a, x, .. } = &program.ops()[oi] {
        if a == mat && in_comp.contains_key(x.as_str()) {
            let (_, m) = program.mat_dims(a).expect("checked during planning");
            return cfg.tn * m + BURST_SLACK;
        }
    }
    cfg.default_depth as usize
}

/// Create the consumer-side channels for an operand and register them.
fn consumer_channels<T: Scalar>(
    sim: &mut Simulation,
    fifos: Fifos,
    incoming: &mut HashMap<(usize, String), Receiver<T>>,
    name: &str,
    out_consumers: &[usize],
) -> Vec<Sender<T>> {
    let mut sinks = Vec::new();
    for &ci in out_consumers {
        let (tx, rx) = fifos.open(sim, fifos.ordinary, format!("{name}->{ci}"));
        incoming.insert((ci, name.to_string()), rx);
        sinks.push(tx);
    }
    sinks
}

/// Output plumbing for a streamed-once vector: writer + consumers behind
/// a fan-out stage when needed. Returns the sender the op pushes into.
fn vector_output<T: Scalar>(
    sim: &mut Simulation,
    program: &Program,
    fifos: Fifos,
    router: &BufRouter<'_, T>,
    incoming: &mut HashMap<(usize, String), Receiver<T>>,
    name: &str,
    out_consumers: &[usize],
) -> Result<Sender<T>, ExecError> {
    let n = program.vec_len(name)?;
    let (w_tx, w_rx) = fifos.open(sim, fifos.ordinary, format!("write_{name}"));
    write_vector(sim, router.output(name)?, n, w_rx);
    let mut sinks = consumer_channels(sim, fifos, incoming, name, out_consumers);
    if sinks.is_empty() {
        return Ok(w_tx);
    }
    sinks.push(w_tx);
    let (tx, rx) = fifos.open(sim, fifos.ordinary, format!("{name}_fanout"));
    duplicate_many(sim, format!("dup_{name}"), n, rx, sinks);
    Ok(tx)
}

/// Output plumbing for a matrix stream (GER results).
#[allow(clippy::too_many_arguments)]
fn matrix_output<T: Scalar>(
    sim: &mut Simulation,
    cfg: &PlannerConfig,
    fifos: Fifos,
    router: &BufRouter<'_, T>,
    incoming: &mut HashMap<(usize, String), Receiver<T>>,
    name: &str,
    n: usize,
    m: usize,
    out_consumers: &[usize],
) -> Result<Sender<T>, ExecError> {
    let tiling = crate::tiling::Tiling::new(
        cfg.tn.min(n.max(1)),
        cfg.tm.min(m.max(1)),
        crate::tiling::TileOrder::RowTilesRowMajor,
    );
    let (w_tx, w_rx) = fifos.open(sim, fifos.ordinary, format!("write_{name}"));
    write_matrix(sim, router.output(name)?, n, m, tiling, w_rx);
    let mut sinks = consumer_channels(sim, fifos, incoming, name, out_consumers);
    if sinks.is_empty() {
        return Ok(w_tx);
    }
    sinks.push(w_tx);
    let (tx, rx) = fifos.open(sim, fifos.ordinary, format!("{name}_fanout"));
    duplicate_many(sim, format!("dup_{name}"), n * m, rx, sinks);
    Ok(tx)
}

/// DRAM-replay loop with taps: like
/// [`replay_vector_through_memory`](crate::helpers::writers), but the
/// final round is additionally fanned out to in-component consumers.
#[allow(clippy::too_many_arguments)]
fn replay_with_taps<T: Scalar>(
    sim: &mut Simulation,
    fifos: Fifos,
    initial: &DeviceBuffer<T>,
    result: &DeviceBuffer<T>,
    n: usize,
    rounds: usize,
    to_module: Sender<T>,
    from_module: Receiver<T>,
    taps: Vec<Sender<T>>,
) {
    let (loop_tx, loop_rx) =
        fifos.open::<T>(sim, n.max(1), format!("replay_{}_dram", initial.name()));
    let init = initial.clone();
    sim.add_module(
        format!("replay_{}_read", init.name()),
        ModuleKind::Interface,
        move || {
            to_module.push_slice(&init.to_host())?;
            for _ in 0..rounds - 1 {
                for _ in 0..n {
                    to_module.push(loop_rx.pop()?)?;
                }
            }
            Ok(())
        },
    );
    let result = result.clone();
    sim.add_module(
        format!("replay_{}_write", result.name()),
        ModuleKind::Interface,
        move || {
            for _ in 0..rounds - 1 {
                for _ in 0..n {
                    loop_tx.push(from_module.pop()?)?;
                }
            }
            let final_vals = from_module.pop_n(n)?;
            for tap in &taps {
                tap.push_slice(&final_vals)?;
            }
            // The write lock is the module's last step (see
            // `read_matrix`).
            result.from_host(&final_vals);
            Ok(())
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::{plan, PlannerConfig};
    use fblas_refblas as refblas;

    fn seq(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + seed) * 0.357).sin()).collect()
    }

    fn bind(entries: Vec<(&str, Vec<f64>)>) -> HashMap<String, DeviceBuffer<f64>> {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (name, data))| (name.to_string(), DeviceBuffer::from_vec(name, data, i % 4)))
            .collect()
    }

    #[test]
    fn executes_axpydot_plan() {
        let n = 97;
        let mut p = Program::new();
        p.vector("w", n)
            .vector("v", n)
            .vector("u", n)
            .vector("z", n)
            .scalar("beta");
        p.op(Op::Axpy {
            alpha: -0.8,
            x: "v".into(),
            y: "w".into(),
            out: "z".into(),
        });
        p.op(Op::Dot {
            x: "z".into(),
            y: "u".into(),
            out: "beta".into(),
        });
        let cfg = PlannerConfig {
            tn: 8,
            tm: 8,
            ..Default::default()
        };
        let thep = plan(&p, &cfg).unwrap();

        let wv = seq(n, 0.0);
        let vv = seq(n, 1.0);
        let uv = seq(n, 2.0);
        let bufs = bind(vec![
            ("w", wv.clone()),
            ("v", vv.clone()),
            ("u", uv.clone()),
            ("z", vec![0.0; n]),
        ]);
        let out = execute_plan::<f64>(&p, &thep, &cfg, &bufs, &ExecOptions::default()).unwrap();

        let (z_ref, beta_ref) = refblas::apps::axpydot(&wv, &vv, &uv, 0.8);
        let z = bufs["z"].to_host();
        for i in 0..n {
            assert!((z[i] - z_ref[i]).abs() < 1e-12, "z[{i}]");
        }
        assert!((out.scalars["beta"] - beta_ref).abs() < 1e-9);
    }

    #[test]
    fn executes_bicg_plan_with_shared_matrix() {
        let (n, m) = (26, 18);
        let mut p = Program::new();
        p.matrix("A", n, m)
            .vector("p", m)
            .vector("r", n)
            .vector("q", n)
            .vector("s", m);
        p.op(Op::Gemv {
            alpha: 1.0,
            beta: 0.0,
            a: "A".into(),
            transposed: false,
            x: "p".into(),
            y: None,
            out: "q".into(),
        });
        p.op(Op::Gemv {
            alpha: 1.0,
            beta: 0.0,
            a: "A".into(),
            transposed: true,
            x: "r".into(),
            y: None,
            out: "s".into(),
        });
        let cfg = PlannerConfig {
            tn: 7,
            tm: 5,
            ..Default::default()
        };
        let thep = plan(&p, &cfg).unwrap();
        assert_eq!(thep.components.len(), 1);

        let av = seq(n * m, 0.0);
        let pv = seq(m, 1.0);
        let rv = seq(n, 2.0);
        let bufs = bind(vec![
            ("A", av.clone()),
            ("p", pv.clone()),
            ("r", rv.clone()),
            ("q", vec![0.0; n]),
            ("s", vec![0.0; m]),
        ]);
        execute_plan::<f64>(&p, &thep, &cfg, &bufs, &ExecOptions::default()).unwrap();

        let (q_ref, s_ref) = refblas::apps::bicg(n, m, &av, &pv, &rv);
        let q = bufs["q"].to_host();
        let s = bufs["s"].to_host();
        for i in 0..n {
            assert!((q[i] - q_ref[i]).abs() < 1e-9, "q[{i}]");
        }
        for j in 0..m {
            assert!((s[j] - s_ref[j]).abs() < 1e-9, "s[{j}]");
        }
    }

    #[test]
    fn executes_atax_in_both_planner_modes() {
        let (n, m) = (24, 15);
        let build = || {
            let mut p = Program::new();
            p.matrix("A", n, m)
                .vector("x", m)
                .vector("t", n)
                .vector("y", m);
            p.op(Op::Gemv {
                alpha: 1.0,
                beta: 0.0,
                a: "A".into(),
                transposed: false,
                x: "x".into(),
                y: None,
                out: "t".into(),
            });
            p.op(Op::Gemv {
                alpha: 1.0,
                beta: 0.0,
                a: "A".into(),
                transposed: true,
                x: "t".into(),
                y: None,
                out: "y".into(),
            });
            p
        };
        let av = seq(n * m, 3.0);
        let xv = seq(m, 4.0);
        let y_ref = refblas::apps::atax(n, m, &av, &xv);

        for allow_deep in [false, true] {
            let p = build();
            let cfg = PlannerConfig {
                tn: 6,
                tm: 5,
                allow_deep_channels: allow_deep,
                ..Default::default()
            };
            let thep = plan(&p, &cfg).unwrap();
            assert_eq!(thep.components.len(), if allow_deep { 1 } else { 2 });
            let bufs = bind(vec![
                ("A", av.clone()),
                ("x", xv.clone()),
                ("t", vec![0.0; n]),
                ("y", vec![0.0; m]),
            ]);
            execute_plan::<f64>(&p, &thep, &cfg, &bufs, &ExecOptions::default()).unwrap();
            let y = bufs["y"].to_host();
            for j in 0..m {
                assert!(
                    (y[j] - y_ref[j]).abs() < 1e-9,
                    "allow_deep={allow_deep} y[{j}]: {} vs {}",
                    y[j],
                    y_ref[j]
                );
            }
        }
    }

    /// GEMVER over an `n × n` `A` in 4×4 tiles: `B = A + u1·v1ᵀ +
    /// u2·v2ᵀ`, `x = β·Bᵀy + z`, `w = α·B·x`.
    fn gemver_program(n: usize, alpha: f64, beta: f64) -> (Program, PlannerConfig) {
        let mut p = Program::new();
        p.matrix("A", n, n).matrix("B1", n, n).matrix("B", n, n);
        for v in ["u1", "v1", "u2", "v2", "y", "z", "x", "w"] {
            p.vector(v, n);
        }
        p.op(Op::Ger {
            alpha: 1.0,
            a: "A".into(),
            x: "u1".into(),
            y: "v1".into(),
            out: "B1".into(),
        });
        p.op(Op::Ger {
            alpha: 1.0,
            a: "B1".into(),
            x: "u2".into(),
            y: "v2".into(),
            out: "B".into(),
        });
        p.op(Op::Gemv {
            alpha: beta,
            beta: 1.0,
            a: "B".into(),
            transposed: true,
            x: "y".into(),
            y: Some("z".into()),
            out: "x".into(),
        });
        p.op(Op::Gemv {
            alpha,
            beta: 0.0,
            a: "B".into(),
            transposed: false,
            x: "x".into(),
            y: None,
            out: "w".into(),
        });
        let cfg = PlannerConfig {
            tn: 4,
            tm: 4,
            ..Default::default()
        };
        (p, cfg)
    }

    #[test]
    fn executes_gemver_two_component_plan() {
        let n = 14;
        let (alpha, beta) = (1.2, 0.7);
        let (p, cfg) = gemver_program(n, alpha, beta);
        let thep = plan(&p, &cfg).unwrap();
        assert_eq!(thep.components.len(), 2, "{}", thep.describe(&p));

        let av = seq(n * n, 0.0);
        let u1 = seq(n, 1.0);
        let v1 = seq(n, 2.0);
        let u2 = seq(n, 3.0);
        let v2 = seq(n, 4.0);
        let yv = seq(n, 5.0);
        let zv = seq(n, 6.0);
        let bufs = bind(vec![
            ("A", av.clone()),
            ("B1", vec![0.0; n * n]),
            ("B", vec![0.0; n * n]),
            ("u1", u1.clone()),
            ("v1", v1.clone()),
            ("u2", u2.clone()),
            ("v2", v2.clone()),
            ("y", yv.clone()),
            ("z", zv.clone()),
            ("x", vec![0.0; n]),
            ("w", vec![0.0; n]),
        ]);
        execute_plan::<f64>(&p, &thep, &cfg, &bufs, &ExecOptions::default()).unwrap();

        let r = refblas::apps::gemver(n, alpha, beta, &av, &u1, &v1, &u2, &v2, &yv, &zv);
        let b = bufs["B"].to_host();
        let x = bufs["x"].to_host();
        let w = bufs["w"].to_host();
        for i in 0..n * n {
            assert!((b[i] - r.b[i]).abs() < 1e-9, "B[{i}]");
        }
        for i in 0..n {
            assert!(
                (x[i] - r.x[i]).abs() < 1e-9,
                "x[{i}]: {} vs {}",
                x[i],
                r.x[i]
            );
            assert!((w[i] - r.w[i]).abs() < 1e-9, "w[{i}]");
        }
    }

    #[test]
    fn audited_execution_reports_per_component_predictions() {
        let n = 257;
        let mut p = Program::new();
        p.vector("w", n)
            .vector("v", n)
            .vector("u", n)
            .vector("z", n)
            .scalar("beta");
        p.op(Op::Axpy {
            alpha: -0.8,
            x: "v".into(),
            y: "w".into(),
            out: "z".into(),
        });
        p.op(Op::Dot {
            x: "z".into(),
            y: "u".into(),
            out: "beta".into(),
        });
        let cfg = PlannerConfig {
            tn: 8,
            tm: 8,
            ..Default::default()
        };
        let thep = plan(&p, &cfg).unwrap();

        let wv = seq(n, 0.0);
        let vv = seq(n, 1.0);
        let uv = seq(n, 2.0);
        let bufs = bind(vec![
            ("w", wv.clone()),
            ("v", vv.clone()),
            ("u", uv.clone()),
            ("z", vec![0.0; n]),
        ]);
        // A wide tolerance: this checks plumbing, not timing fidelity —
        // wall-clock shares on a loaded test host are not the subject.
        // Pinned threaded: per-module lanes exist only there (the fused
        // backend runs AXPYDOT as one `fused:` lane).
        let opts = ExecOptions {
            backend: Backend::Threaded,
            tracer: None,
            mode: ExecMode::Audit {
                freq_hz: 200.0e6,
                tolerance: 1.0,
            },
        };
        let out = execute_plan::<f64>(&p, &thep, &cfg, &bufs, &opts).unwrap();
        let reports = &out.audits;

        let (_, beta_ref) = refblas::apps::axpydot(&wv, &vv, &uv, 0.8);
        assert!((out.scalars["beta"] - beta_ref).abs() < 1e-9);

        assert_eq!(reports.len(), thep.components.len());
        let all: Vec<&fblas_audit::ModuleAudit> =
            reports.iter().flat_map(|r| r.modules.iter()).collect();
        for routine in ["axpy", "dot"] {
            let row = all
                .iter()
                .find(|m| m.module == routine)
                .unwrap_or_else(|| panic!("no audit row for {routine}"));
            assert!(row.predicted_cycles.is_some(), "{routine} not predicted");
            assert!(row.run_us > 0, "{routine} lane never ran");
        }
        for r in reports {
            assert!(r.predicted_cycles > 0);
            assert!(r.bottleneck.is_some(), "no bottleneck named");
            assert!(!r.memory_bound);
        }
    }

    /// One-shot fault hook for recovery tests: fires a single channel
    /// or module fault on its first match, then stays quiet — the
    /// transient-fault model a retry must absorb.
    struct OneShot {
        channel: Option<(
            fblas_hlssim::FaultSite,
            String,
            u64,
            fblas_hlssim::FaultAction,
        )>,
        module: Option<(String, fblas_hlssim::ModuleFault)>,
        spent: Mutex<bool>,
    }

    impl OneShot {
        fn corrupt(channel: &str, index: u64, bit: u32) -> Arc<Self> {
            Arc::new(OneShot {
                channel: Some((
                    fblas_hlssim::FaultSite::Push,
                    channel.to_string(),
                    index,
                    fblas_hlssim::FaultAction::Corrupt { bit },
                )),
                module: None,
                spent: Mutex::new(false),
            })
        }

        fn crash(module: &str) -> Arc<Self> {
            Arc::new(OneShot {
                channel: None,
                module: Some((module.to_string(), fblas_hlssim::ModuleFault::Crash)),
                spent: Mutex::new(false),
            })
        }
    }

    impl FaultHook for OneShot {
        fn on_channel(
            &self,
            site: fblas_hlssim::FaultSite,
            channel: &str,
            index: u64,
        ) -> Option<fblas_hlssim::FaultAction> {
            let (s, c, i, a) = self.channel.as_ref()?;
            let mut spent = self.spent.lock();
            if !*spent && *s == site && c == channel && *i == index {
                *spent = true;
                return Some(*a);
            }
            None
        }

        fn on_module_start(&self, module: &str) -> Option<fblas_hlssim::ModuleFault> {
            let (m, f) = self.module.as_ref()?;
            let mut spent = self.spent.lock();
            if !*spent && m == module {
                *spent = true;
                return Some(*f);
            }
            None
        }
    }

    fn recover(hook: Option<Arc<OneShot>>) -> ExecOptions<'static> {
        ExecOptions {
            mode: ExecMode::Recover {
                policy: RetryPolicy::default(),
                hook: hook.map(|h| h as Arc<dyn FaultHook>),
            },
            ..ExecOptions::default()
        }
    }

    fn axpydot_setup() -> (
        Program,
        PlannerConfig,
        HashMap<String, DeviceBuffer<f64>>,
        f64,
    ) {
        let n = 97;
        let mut p = Program::new();
        p.vector("w", n)
            .vector("v", n)
            .vector("u", n)
            .vector("z", n)
            .scalar("beta");
        p.op(Op::Axpy {
            alpha: -0.8,
            x: "v".into(),
            y: "w".into(),
            out: "z".into(),
        });
        p.op(Op::Dot {
            x: "z".into(),
            y: "u".into(),
            out: "beta".into(),
        });
        let cfg = PlannerConfig {
            tn: 8,
            tm: 8,
            ..Default::default()
        };
        let wv = seq(n, 0.0);
        let vv = seq(n, 1.0);
        let uv = seq(n, 2.0);
        let (_, beta_ref) = fblas_refblas::apps::axpydot(&wv, &vv, &uv, 0.8);
        let bufs = bind(vec![("w", wv), ("v", vv), ("u", uv), ("z", vec![0.0; n])]);
        (p, cfg, bufs, beta_ref)
    }

    #[test]
    fn recovery_without_faults_matches_plain_execution() {
        let (p, cfg, bufs, beta_ref) = axpydot_setup();
        let thep = plan(&p, &cfg).unwrap();
        let out = execute_plan::<f64>(&p, &thep, &cfg, &bufs, &recover(None)).unwrap();
        let report = &out.recovery;
        assert!((out.scalars["beta"] - beta_ref).abs() < 1e-9);
        assert_eq!(report.retries, 0);
        assert_eq!(report.recovered, 0);
        assert_eq!(report.attempts.len(), thep.components.len());
        assert!(report.attempts.iter().all(|a| a.error.is_none()));
    }

    #[test]
    fn corrupt_channel_fault_is_detected_and_retried_to_success() {
        let (p, cfg, bufs, beta_ref) = axpydot_setup();
        let thep = plan(&p, &cfg).unwrap();
        // Flip the exponent of one element as it enters the write-back
        // channel for z.
        let hook = OneShot::corrupt("write_z", 11, 62);
        let out = execute_plan::<f64>(&p, &thep, &cfg, &bufs, &recover(Some(hook))).unwrap();
        let report = &out.recovery;
        assert!((out.scalars["beta"] - beta_ref).abs() < 1e-9);
        assert_eq!(report.retries, 1);
        assert_eq!(report.recovered, 1);
        let failed = &report.attempts[0];
        assert_eq!(failed.error, Some(RecoveryErrorKind::Corruption));
        assert!(failed.guard_flagged, "digest guard should have tripped");
        let healed = report
            .attempts
            .iter()
            .find(|a| a.recovered)
            .expect("a recovered attempt");
        assert!(healed.error.is_none());
    }

    #[test]
    fn injected_crash_is_retried_and_buffers_commit_once() {
        let (p, cfg, bufs, beta_ref) = axpydot_setup();
        let thep = plan(&p, &cfg).unwrap();
        let hook = OneShot::crash("axpy");
        let out = execute_plan::<f64>(&p, &thep, &cfg, &bufs, &recover(Some(hook))).unwrap();
        let report = &out.recovery;
        assert!((out.scalars["beta"] - beta_ref).abs() < 1e-9);
        assert_eq!(report.retries, 1);
        let failed = &report.attempts[0];
        assert!(
            matches!(
                failed.error,
                Some(RecoveryErrorKind::ModulePanic) | Some(RecoveryErrorKind::Poisoned)
            ),
            "unexpected kind: {:?}",
            failed.error
        );
    }

    #[test]
    fn exhausted_retries_leave_buffers_untouched() {
        let (p, cfg, bufs, _) = axpydot_setup();
        let thep = plan(&p, &cfg).unwrap();
        let z_before = bufs["z"].to_host();
        let hook = OneShot::corrupt("write_z", 3, 60);
        let opts = ExecOptions {
            mode: ExecMode::Recover {
                policy: RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
                hook: Some(hook),
            },
            ..ExecOptions::default()
        };
        let err = execute_plan::<f64>(&p, &thep, &cfg, &bufs, &opts).unwrap_err();
        assert!(
            matches!(err.error, ExecError::Corrupt { component: 0, .. }),
            "got: {}",
            err.error
        );
        assert_eq!(err.report.attempts.len(), 1);
        // Transactional: the corrupted attempt never reached the
        // caller's buffer.
        assert_eq!(bufs["z"].to_host(), z_before);
    }

    #[test]
    fn missing_and_misshapen_buffers_are_reported() {
        let mut p = Program::new();
        p.vector("x", 8).vector("o", 8);
        p.op(Op::Scal {
            alpha: 2.0,
            x: "x".into(),
            out: "o".into(),
        });
        let cfg = PlannerConfig::default();
        let thep = plan(&p, &cfg).unwrap();

        let empty: HashMap<String, DeviceBuffer<f64>> = HashMap::new();
        assert!(matches!(
            execute_plan::<f64>(&p, &thep, &cfg, &empty, &ExecOptions::default()).map_err(|e| e.error),
            Err(ExecError::MissingBuffer(n)) if n == "x" || n == "o"
        ));

        let bad = bind(vec![("x", vec![0.0; 8]), ("o", vec![0.0; 3])]);
        assert!(matches!(
            execute_plan::<f64>(&p, &thep, &cfg, &bad, &ExecOptions::default())
                .map_err(|e| e.error),
            Err(ExecError::WrongLength { .. })
        ));
    }

    #[test]
    fn host_depth_needs_the_fused_backend_a_live_graph_and_no_hook() {
        use crate::composition::rates::atax_mdag;
        // The ATAX burst is 64·8 elements: one slot short, it stalls.
        assert!(completes(Some(atax_mdag(64, 32, 8, 64 * 8))));
        assert!(!completes(Some(atax_mdag(64, 32, 8, 64 * 8 - 1))));
        assert!(!completes(None));
        let fused = ComponentOptions {
            host_depth: true,
            ..ComponentOptions::default()
        };
        assert!(admit_host_depth(&fused));
        assert!(!admit_host_depth(&ComponentOptions::default()));
        let armed = ComponentOptions {
            hook: Some(OneShot::crash("no_such_module")),
            ..fused.clone()
        };
        assert!(!admit_host_depth(&armed));

        // End to end on a lone GEMV. As the program's one tile the
        // fused backend runs it threaded: host depth on the fused
        // backend only, not under an armed hook. Over 3×3 tiles it
        // replays, with no simulation. The same bits on every path.
        let (n, m) = (40, 24);
        let mut p = Program::new();
        p.matrix("A", n, m).vector("x", m).vector("q", n);
        p.op(Op::Gemv {
            alpha: 1.5,
            beta: 0.0,
            a: "A".into(),
            transposed: false,
            x: "x".into(),
            y: None,
            out: "q".into(),
        });
        for ((tn, tm), fused_host_depth) in [((n, m), 1), ((16, 8), 0)] {
            let cfg = PlannerConfig {
                tn,
                tm,
                ..Default::default()
            };
            let thep = plan(&p, &cfg).unwrap();
            let run = |opts: &ExecOptions| {
                let bufs = bind(vec![
                    ("A", seq(n * m, 0.0)),
                    ("x", seq(m, 1.0)),
                    ("q", vec![0.0; n]),
                ]);
                let out = execute_plan::<f64>(&p, &thep, &cfg, &bufs, opts).unwrap();
                let bits: Vec<u64> = bufs["q"].to_host().iter().map(|v| v.to_bits()).collect();
                (bits, out.host_depth_sims)
            };
            let pinned = |backend| ExecOptions {
                backend,
                ..ExecOptions::default()
            };
            let (oracle, threaded_sims) = run(&pinned(Backend::Threaded));
            let (fused_bits, fused_sims) = run(&pinned(Backend::Fused));
            let armed = ExecOptions {
                backend: Backend::Fused,
                ..recover(Some(OneShot::crash("no_such_module")))
            };
            let (armed_bits, armed_sims) = run(&armed);
            assert_eq!(
                (threaded_sims, fused_sims, armed_sims),
                (0, fused_host_depth, 0),
                "tiles {tn}x{tm}"
            );
            assert_eq!(fused_bits, oracle, "tiles {tn}x{tm}");
            assert_eq!(armed_bits, oracle, "tiles {tn}x{tm}");
        }
    }

    /// Lane names and result bits of one traced run of `p`.
    fn traced(
        p: &Program,
        cfg: &PlannerConfig,
        operands: &[(&str, Vec<f64>)],
        result: &str,
        opts: ExecOptions,
    ) -> (Vec<u64>, Vec<String>) {
        let thep = plan(p, cfg).unwrap();
        let bufs = bind(operands.to_vec());
        let tracer = Tracer::new();
        let opts = ExecOptions {
            tracer: Some(&tracer),
            ..opts
        };
        execute_plan::<f64>(p, &thep, cfg, &bufs, &opts).unwrap();
        let bits = bufs[result].to_host().iter().map(|v| v.to_bits()).collect();
        let lanes = tracer.lanes().into_iter().map(|l| l.module).collect();
        (bits, lanes)
    }

    /// Lanes, result bits and host-depth simulations of one
    /// `run_component` call over `ops`, bypassing the fused backend's
    /// units, at host depth or at the modelled depths.
    fn component_lanes(
        p: &Program,
        cfg: &PlannerConfig,
        operands: &[(&str, Vec<f64>)],
        results: &[&str],
        host_depth: bool,
    ) -> (Vec<u64>, Vec<String>, u64) {
        let thep = plan(p, cfg).unwrap();
        let component = &thep.components[0];
        let bufs = bind(operands.to_vec());
        let tracer = Tracer::new();
        let run = run_component(
            p,
            cfg,
            &component.ops,
            &component.gemv_variants,
            &BufRouter::direct(&bufs),
            Some(&tracer),
            &ComponentOptions {
                host_depth,
                ..ComponentOptions::default()
            },
        )
        .unwrap();
        let bits = results
            .iter()
            .flat_map(|o| bufs[*o].to_host())
            .map(f64::to_bits)
            .collect();
        let lanes = tracer.lanes().into_iter().map(|l| l.module).collect();
        (bits, lanes, run.host_depth_sims)
    }

    #[test]
    fn admitted_tiles_read_their_dram_operands_in_place() {
        let (n, m) = (40, 24);
        // The matrix in one tile, and in ⌈40/16⌉ × ⌈24/8⌉ = 3 × 3.
        let one_tile = PlannerConfig {
            tn: n,
            tm: m,
            ..Default::default()
        };
        let cfg = PlannerConfig {
            tn: 16,
            tm: 8,
            ..Default::default()
        };
        let pinned = |backend| ExecOptions {
            backend,
            ..ExecOptions::default()
        };
        let armed = || ExecOptions {
            backend: Backend::Fused,
            ..recover(Some(OneShot::crash("no_such_module")))
        };
        let has = |lanes: &[String], name: &str| lanes.iter().any(|l| l == name);

        // A lone GEMV, untransposed and transposed. As its program's one
        // tile it runs threaded at host depth and reads every operand in
        // place; over 3 × 3 tiles it replays on one `fused:` lane. An
        // armed hook keeps every reader either way.
        for transposed in [false, true] {
            let (xn, yn) = if transposed { (n, m) } else { (m, n) };
            let mut p = Program::new();
            p.matrix("A", n, m)
                .vector("x", xn)
                .vector("y", yn)
                .vector("q", yn);
            p.op(Op::Gemv {
                alpha: 1.5,
                beta: -0.5,
                a: "A".into(),
                transposed,
                x: "x".into(),
                y: Some("y".into()),
                out: "q".into(),
            });
            let operands = [
                ("A", seq(n * m, 0.0)),
                ("x", seq(xn, 1.0)),
                ("y", seq(yn, 2.0)),
                ("q", vec![0.0; yn]),
            ];
            for cfg in [&one_tile, &cfg] {
                let run = |opts| traced(&p, cfg, &operands, "q", opts);
                let (oracle, threaded) = run(pinned(Backend::Threaded));
                let (fused_bits, fused) = run(pinned(Backend::Fused));
                let (armed_bits, armed) = run(armed());
                let at = format!("transposed {transposed}, tiles {}x{}", cfg.tn, cfg.tm);
                assert_eq!(fused_bits, oracle, "{at}");
                assert_eq!(armed_bits, oracle, "{at}");
                let lone = cfg.tn == n;
                // Only the transposed 3 × 3 GEMV sends y several rounds.
                let y_reader = if transposed && !lone {
                    "replay_y_read"
                } else {
                    "read_y"
                };
                for lanes in [&threaded, &armed] {
                    for reader in ["read_A", "read_x", y_reader] {
                        assert!(has(lanes, reader), "{at}: {lanes:?}");
                    }
                }
                assert!(
                    !fused.iter().any(|l| l.starts_with("read_")),
                    "{at}: {fused:?}"
                );
                let gemv = fused.iter().any(|l| l.starts_with("gemv"));
                let replayed = has(&fused, "fused:fuse0");
                assert_eq!((gemv, replayed), (lone, !lone), "{at}: {fused:?}");
            }

            // The 3 × 3 GEMV admitted at host depth outside the fused
            // units: it reads A and x in place, x with its 3 replays
            // when untransposed, and the transposed one keeps the
            // replay loop of its y, which makes 3 rounds through DRAM.
            let (oracle, modelled, sims) = component_lanes(&p, &cfg, &operands, &["q"], false);
            assert_eq!(sims, 0);
            assert!(has(&modelled, "read_A"), "{modelled:?}");
            let (bits, admitted, sims) = component_lanes(&p, &cfg, &operands, &["q"], true);
            assert_eq!((bits, sims), (oracle, 1));
            assert_eq!(has(&admitted, "replay_y_read"), transposed, "{admitted:?}");
            assert!(
                !has(&admitted, "read_A") && !has(&admitted, "read_x"),
                "{admitted:?}"
            );
        }

        // A lone GER, likewise: threaded in one tile, replayed in 3 × 3.
        let mut p = Program::new();
        p.matrix("A", n, m)
            .matrix("B", n, m)
            .vector("u", n)
            .vector("v", m);
        p.op(Op::Ger {
            alpha: 0.75,
            a: "A".into(),
            x: "u".into(),
            y: "v".into(),
            out: "B".into(),
        });
        let operands = [
            ("A", seq(n * m, 0.0)),
            ("u", seq(n, 1.0)),
            ("v", seq(m, 2.0)),
            ("B", vec![0.0; n * m]),
        ];
        for cfg in [&one_tile, &cfg] {
            let run = |opts| traced(&p, cfg, &operands, "B", opts);
            let (oracle, threaded) = run(pinned(Backend::Threaded));
            let (fused_bits, fused) = run(pinned(Backend::Fused));
            let (armed_bits, armed) = run(armed());
            assert_eq!((&fused_bits, &armed_bits), (&oracle, &oracle));
            for lanes in [&threaded, &armed] {
                for reader in ["read_A", "read_u", "read_v"] {
                    assert!(has(lanes, reader), "{lanes:?}");
                }
            }
            let lone = cfg.tn == n;
            let (ger, replayed) = (has(&fused, "ger"), has(&fused, "fused:fuse0"));
            assert_eq!((ger, replayed), (lone, !lone), "{fused:?}");
            assert!(!fused.iter().any(|l| l.starts_with("read_")), "{fused:?}");
        }
        // Admitted at host depth outside the fused units, the 3 × 3 GER
        // reads every operand in place, y with its 3 replays.
        let (oracle, _, _) = component_lanes(&p, &cfg, &operands, &["B"], false);
        let (bits, admitted, sims) = component_lanes(&p, &cfg, &operands, &["B"], true);
        assert_eq!((bits, sims), (oracle, 1));
        assert!(has(&admitted, "ger"), "{admitted:?}");
        assert!(
            !admitted.iter().any(|l| l.starts_with("read_")),
            "{admitted:?}"
        );

        // A matrix shared through `dup_A` keeps its reader in an
        // admitted simulation; the vectors are read in place. BICG's
        // component runs threaded here (the fused backend would replay
        // it tile by tile).
        let mut p = Program::new();
        p.matrix("A", n, m)
            .vector("p", m)
            .vector("r", n)
            .vector("q", n)
            .vector("s", m);
        for (transposed, x, out) in [(false, "p", "q"), (true, "r", "s")] {
            p.op(Op::Gemv {
                alpha: 1.0,
                beta: 0.0,
                a: "A".into(),
                transposed,
                x: x.into(),
                y: None,
                out: out.into(),
            });
        }
        assert_eq!(plan(&p, &cfg).unwrap().components[0].ops.len(), 2);
        let operands = [
            ("A", seq(n * m, 0.0)),
            ("p", seq(m, 1.0)),
            ("r", seq(n, 2.0)),
            ("q", vec![0.0; n]),
            ("s", vec![0.0; m]),
        ];
        let host = |host_depth| component_lanes(&p, &cfg, &operands, &["q", "s"], host_depth);
        let (oracle, modelled, sims) = host(false);
        assert_eq!(sims, 0);
        for reader in ["read_A", "dup_A", "read_p", "read_r"] {
            assert!(has(&modelled, reader), "{modelled:?}");
        }
        let (bits, admitted, sims) = host(true);
        assert_eq!((bits, sims), (oracle, 1));
        assert!(
            has(&admitted, "read_A") && has(&admitted, "dup_A"),
            "{admitted:?}"
        );
        assert!(
            !has(&admitted, "read_p") && !has(&admitted, "read_r"),
            "{admitted:?}"
        );
    }

    /// Faults aim at channels, so a hook-armed attempt keeps every
    /// reader: a corrupted element on the matrix edge must still trip
    /// that edge's digest guard on the fused backend.
    #[test]
    fn an_armed_hook_keeps_the_matrix_channel_and_its_guard() {
        let (n, m) = (40, 24);
        let mut p = Program::new();
        p.matrix("A", n, m).vector("x", m).vector("q", n);
        p.op(Op::Gemv {
            alpha: 1.5,
            beta: 0.0,
            a: "A".into(),
            transposed: false,
            x: "x".into(),
            y: None,
            out: "q".into(),
        });
        let cfg = PlannerConfig {
            tn: 16,
            tm: 8,
            ..Default::default()
        };
        let thep = plan(&p, &cfg).unwrap();
        let bufs = bind(vec![
            ("A", seq(n * m, 0.0)),
            ("x", seq(m, 1.0)),
            ("q", vec![0.0; n]),
        ]);
        let opts = ExecOptions {
            backend: Backend::Fused,
            ..recover(Some(OneShot::corrupt("A->0", 17, 62)))
        };
        let out = execute_plan::<f64>(&p, &thep, &cfg, &bufs, &opts).unwrap();
        let first = &out.recovery.attempts[0];
        assert_eq!(first.error, Some(RecoveryErrorKind::Corruption));
        assert!(first.guard_flagged, "the `A->0` guard should have tripped");
        assert_eq!(out.recovery.recovered, 1);
    }

    /// Analyses the fused backend has run on this thread: fusion,
    /// obligations, rates.
    fn analyses() -> [u32; 3] {
        fused::ANALYSES.with(Cell::get)
    }

    /// Every output of GEMVER `p` executed under `thep`, as bits.
    fn gemver_bits(p: &Program, thep: &Plan, cfg: &PlannerConfig, opts: &ExecOptions) -> Vec<u64> {
        let n = 14;
        let bufs = bind(vec![
            ("A", seq(n * n, 0.0)),
            ("B1", vec![0.0; n * n]),
            ("B", vec![0.0; n * n]),
            ("u1", seq(n, 1.0)),
            ("v1", seq(n, 2.0)),
            ("u2", seq(n, 3.0)),
            ("v2", seq(n, 4.0)),
            ("y", seq(n, 5.0)),
            ("z", seq(n, 6.0)),
            ("x", vec![0.0; n]),
            ("w", vec![0.0; n]),
        ]);
        execute_plan::<f64>(p, thep, cfg, &bufs, opts).unwrap();
        ["B1", "B", "x", "w"]
            .iter()
            .flat_map(|o| bufs[*o].to_host())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn a_plan_executed_twice_is_analysed_once() {
        // GEMVER's two components both replay: each runs the fusion
        // analysis and the obligation check, and neither needs the
        // host-depth rate analysis.
        let (p, cfg) = gemver_program(14, 1.2, 0.7);
        let thep = plan(&p, &cfg).unwrap();
        let opts = ExecOptions::default();
        let start = analyses();
        let first = gemver_bits(&p, &thep, &cfg, &opts);
        let once = analyses();
        assert_eq!(
            [0, 1, 2].map(|k| once[k] - start[k]),
            [2, 2, 0],
            "fusion, obligations, rates"
        );
        assert!(thep.components.iter().all(|c| c.analysis.is_filled()));
        let second = gemver_bits(&p, &thep, &cfg, &opts);
        assert_eq!(analyses(), once, "the second execution re-analysed");
        assert_eq!(first, second);
        // Under recovery too, and bit for bit with the threaded oracle.
        let recovered = gemver_bits(&p, &thep, &cfg, &recover(None));
        assert_eq!(analyses(), once);
        let threaded = ExecOptions {
            backend: Backend::Threaded,
            ..ExecOptions::default()
        };
        assert_eq!(recovered, first);
        assert_eq!(gemver_bits(&p, &thep, &cfg, &threaded), first);
    }

    #[test]
    fn a_plan_re_run_with_changed_coefficients_matches_a_fresh_plan() {
        // AXPYDOT fuses into one region whose loop carries `alpha`.
        let (p, cfg, _, _) = axpydot_setup();
        let run = |p: &Program, thep: &Plan| {
            let (_, _, bufs, _) = axpydot_setup();
            let out = execute_plan::<f64>(p, thep, &cfg, &bufs, &ExecOptions::default()).unwrap();
            let mut bits: Vec<u64> = bufs["z"].to_host().iter().map(|v| v.to_bits()).collect();
            bits.push(out.scalars["beta"].to_bits());
            bits
        };
        let thep = plan(&p, &cfg).unwrap();
        let old = run(&p, &thep);
        assert!(thep.components[0].analysis.is_filled());

        let mut changed = Program::new();
        for name in ["w", "v", "u", "z"] {
            changed.vector(name, 97);
        }
        changed.scalar("beta");
        for op in p.ops() {
            let mut op = op.clone();
            if let Op::Axpy { alpha, .. } = &mut op {
                *alpha = 0.5;
            }
            changed.op(op);
        }
        let before = analyses();
        let reused = run(&changed, &thep);
        assert_eq!(
            analyses()[0],
            before[0] + 1,
            "a changed alpha is analysed afresh"
        );
        let fresh = run(&changed, &plan(&changed, &cfg).unwrap());
        assert_eq!(reused, fresh);
        assert_ne!(reused, old);
        // The memo still answers the program it was filled for.
        let before = analyses();
        assert_eq!(run(&p, &thep), old);
        assert_eq!(analyses(), before);
    }

    #[test]
    fn a_memo_filled_for_a_one_tile_program_does_not_answer_a_composition() {
        // A one-tile GEMV 16 alone stays threaded; beside a GER it
        // replays. Executed under the lone program's plan (which runs
        // op 0 only), the composition's copy of the component must be
        // analysed afresh, and match the composition's own plan.
        let n = 16;
        let gemv = Op::Gemv {
            alpha: 1.5,
            beta: -0.25,
            a: "A".into(),
            transposed: false,
            x: "x".into(),
            y: Some("y".into()),
            out: "o".into(),
        };
        let declare = |p: &mut Program| {
            p.matrix("A", n, n)
                .vector("x", n)
                .vector("y", n)
                .vector("o", n);
        };
        let mut lone = Program::new();
        declare(&mut lone);
        lone.op(gemv.clone());
        let mut composed = Program::new();
        declare(&mut composed);
        composed.matrix("C", n, n).matrix("D", n, n);
        composed.op(gemv);
        composed.op(Op::Ger {
            alpha: 0.5,
            a: "C".into(),
            x: "x".into(),
            y: "y".into(),
            out: "D".into(),
        });
        let cfg = PlannerConfig {
            tn: n,
            tm: n,
            ..Default::default()
        };
        let run = |p: &Program, thep: &Plan| {
            let bufs = bind(vec![
                ("A", seq(n * n, 0.0)),
                ("x", seq(n, 1.0)),
                ("y", seq(n, 2.0)),
                ("o", vec![0.0; n]),
                ("C", seq(n * n, 3.0)),
                ("D", vec![0.0; n * n]),
            ]);
            let out = execute_plan::<f64>(p, thep, &cfg, &bufs, &ExecOptions::default()).unwrap();
            let bits: Vec<u64> = bufs["o"].to_host().iter().map(|v| v.to_bits()).collect();
            (bits, out.host_depth_sims)
        };
        let thep = plan(&lone, &cfg).unwrap();
        let (oracle, sims) = run(&lone, &thep);
        assert_eq!(sims, 1, "the one-tile program runs threaded at host depth");
        assert!(thep.components[0].analysis.is_filled());

        let before = analyses();
        let reused = run(&composed, &thep);
        assert_eq!(
            analyses()[0],
            before[0] + 1,
            "the composition is analysed afresh"
        );
        assert_eq!(reused, (oracle.clone(), 0), "and its GEMV replays");
        assert_eq!(run(&composed, &plan(&composed, &cfg).unwrap()), reused);
        // The memo still answers the program it was filled for.
        let before = analyses();
        assert_eq!(run(&lone, &thep), (oracle, 1));
        assert_eq!(analyses(), before);
    }

    #[test]
    fn an_armed_run_leaves_the_memo_empty() {
        let (p, cfg) = gemver_program(14, 1.2, 0.7);
        let thep = plan(&p, &cfg).unwrap();
        let oracle = gemver_bits(&p, &plan(&p, &cfg).unwrap(), &cfg, &ExecOptions::default());
        let before = analyses();
        let armed = recover(Some(OneShot::crash("no_such_module")));
        assert_eq!(gemver_bits(&p, &thep, &cfg, &armed), oracle);
        assert!(thep.components.iter().all(|c| !c.analysis.is_filled()));
        let after = analyses();
        // The armed analysis rejects every region: no obligations to
        // check, and no simulation may run at host depth.
        assert_eq!([0, 1, 2].map(|k| after[k] - before[k]), [2, 0, 0]);
    }

    /// A GEMV's predictions run beside the component when its inputs
    /// clear the threshold (384² elements do, 16² do not) and the
    /// component writes none of them.
    #[test]
    fn abft_predictions_run_beside_only_above_the_threshold_on_unwritten_inputs() {
        for n in [384, 16] {
            let mut p = Program::new();
            p.matrix("A", n, n)
                .vector("x", n)
                .vector("y", n)
                .vector("q", n);
            p.op(Op::Gemv {
                alpha: 1.5,
                beta: -0.5,
                a: "A".into(),
                transposed: false,
                x: "x".into(),
                y: Some("y".into()),
                out: "q".into(),
            });
            let bufs = bind(vec![
                ("A", seq(n * n, 0.0)),
                ("x", seq(n, 1.0)),
                ("y", seq(n, 2.0)),
                ("q", vec![0.0; n]),
            ]);
            let above = n * n >= ABFT_BESIDE_MIN;
            assert_eq!(
                abft_beside(&p, &[0], &["q"], &bufs),
                if above { vec![0] } else { vec![] }
            );
            assert!(abft_beside(&p, &[0], &["q", "x"], &bufs).is_empty());
        }
    }
}
