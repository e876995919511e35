//! The traced run: per-layer metrics measured from outside the program.
//!
//! Three phases of `--seconds / 3` each:
//!
//! 1. the workload's traffic with the metrics registry disarmed — the
//!    baseline for the tracing overhead;
//! 2. the same traffic with the registry armed, whose histograms and
//!    counters (`fblas_lint_us`, `fblas_sim_run_us`, `fblas_exec_*`, …)
//!    give the served per-layer numbers;
//! 3. an in-process replica of phase 2's requests, in send order,
//!    through the same public calls the server makes (`parse_line` →
//!    `shape_hash` + `Breakers::check` + `TenantQuotas::admit` →
//!    `lint_document_full` → `to_program` + `plan` → `fill_value` bind →
//!    `execute_plan_with_recovery_backend` → `Response::to_line`), one
//!    span per call. Registry deltas over the replica split the
//!    execution span into simulator, fused-region and other time.
//!
//! Nothing is traced inside the program; spans are the benchmark's own.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fblas_core::composition::{execute_plan_with_recovery_backend, plan, Backend, RetryPolicy};
use fblas_core::host::DeviceBuffer;
use fblas_hlssim::FaultHook;
use fblas_lint::{lint_document_full, Document};
use fblas_metrics::{Collected, HistogramSnapshot, RunScope};
use fblas_serve::protocol::{fill_value, run_seed};
use fblas_serve::{
    parse_line, shape_hash, wanted_outputs, Breakers, Inbound, Response, TenantQuotas,
    STATUS_FAILED, STATUS_OK, STATUS_REJECTED,
};
use serde_json::Value;

use crate::drive::{Phase, Record};
use crate::reference::Verifier;
use crate::stats::{median, quantile};
use crate::workload::{Expect, Plan, Workload};
use crate::{serve_phase, Args, Metric};

/// The replica must agree with what was served within this share.
const RECONCILE_PCT: f64 = 15.0;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Self time of a span: its duration minus the part of it its children
/// cover, counting overlapping children once and ignoring any part of
/// a child outside the parent.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    covered += cur.map_or(0.0, |(s, e)| e - s);
    (span.1 - span.0) - covered
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, request: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            request,
            name,
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, ix: usize) {
        self.spans[ix].end_us = self.now_us();
    }

    fn timed<T>(
        &mut self,
        request: u64,
        name: &'static str,
        root: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let ix = self.open(request, name, Some(root));
        let v = f();
        self.close(ix);
        v
    }
}

/// Replay one request line the way `admit` and `execute_job` handle it;
/// returns the response line and the plan's component count.
fn replay(
    tr: &mut Tracer,
    id: u64,
    line: &str,
    breakers: &Breakers,
    quotas: &TenantQuotas,
) -> (String, Option<usize>) {
    let root = tr.open(id, "request", None);
    let parsed = tr.timed(id, "serve.parse", root, || parse_line(line));
    let Ok(Inbound::Exec(req)) = parsed else {
        tr.close(root);
        return ("<unparsable>".into(), None);
    };
    let req = *req;
    let tenant = req.tenant.clone();
    let shape = tr.timed(id, "serve.admit", root, || {
        let shape = shape_hash(&req.program);
        let admitted = breakers.check(&tenant, shape).is_ok() && quotas.admit(&tenant).is_ok();
        assert!(admitted, "replica admission never sheds");
        shape
    });
    let lint = tr.timed(id, "lint", root, || {
        lint_document_full(&Document::Program(req.program.clone()), "<request>")
    });
    if !lint.report.accepted() {
        let out = tr.timed(id, "serve.respond", root, || {
            let mut resp = Response::skeleton(id, &tenant, STATUS_REJECTED, 400)
                .with_kind("lint")
                .with_detail(format!(
                    "rejected by fblas-lint with {} error(s)",
                    lint.report.errors()
                ));
            resp.diagnostics = serde_json::to_value(&lint.report.diagnostics).ok();
            resp.to_line()
        });
        tr.close(root);
        return (out, None);
    }

    let run = RunScope::seeded(run_seed(&req));
    let (program, cfg, planned) = tr.timed(id, "plan", root, || {
        let program = req.program.to_program().expect("replayed program converts");
        let cfg = req.program.config.planner_config();
        let planned = plan(&program, &cfg).expect("replayed program plans");
        (program, cfg, planned)
    });
    let buffers = tr.timed(id, "exec.bind", root, || {
        let seed = req.fill_seed.unwrap_or(0);
        let mut buffers: HashMap<String, DeviceBuffer<f64>> = HashMap::new();
        for od in &req.program.operands {
            let len = match od.kind.as_str() {
                "vector" => od.len.unwrap_or(0),
                "matrix" => od.rows.unwrap_or(0) * od.cols.unwrap_or(0),
                _ => continue,
            };
            let data = (0..len).map(|i| fill_value(seed, &od.name, i)).collect();
            buffers.insert(od.name.clone(), DeviceBuffer::from_vec(&od.name, data, 0));
        }
        buffers
    });
    let result = tr.timed(id, "exec", root, || {
        let policy = RetryPolicy {
            max_attempts: req
                .retry_max
                .unwrap_or_else(fblas_hlssim::env::retry_max)
                .max(1),
            deadline: None,
            backoff: Duration::ZERO,
            abft: true,
        };
        let hook: Option<Arc<dyn FaultHook>> = req.chaos.as_ref().map(|doc| {
            Arc::new(doc.to_fault_plan().expect("replayed chaos plan builds")) as Arc<dyn FaultHook>
        });
        execute_plan_with_recovery_backend::<f64>(
            &program,
            &planned,
            &cfg,
            &buffers,
            &policy,
            hook,
            None,
            Backend::resolve(),
        )
    });
    let out = tr.timed(id, "serve.respond", root, || {
        let resp = match result {
            Ok((outcome, report)) => {
                breakers.record_success(&tenant, shape);
                let mut resp = Response::skeleton(id, &tenant, STATUS_OK, 200);
                resp.scalars = outcome.scalars.into_iter().collect();
                for name in wanted_outputs(&req) {
                    if let Some(buf) = buffers.get(&name) {
                        resp.outputs.insert(name, buf.to_host());
                    }
                }
                resp.recovery = serde_json::to_value(&report).ok();
                resp.run_id = Some(run.id().to_string());
                resp
            }
            Err(err) => {
                let kind = fblas_core::composition::RecoveryErrorKind::of(&err.error);
                breakers.record_failure(&tenant, shape, kind, None);
                let mut resp = Response::skeleton(id, &tenant, STATUS_FAILED, 500)
                    .with_kind(kind.as_str())
                    .with_detail(format!(
                        "execution failed terminally after {} attempt(s)",
                        err.report.attempts.len()
                    ));
                resp.recovery = serde_json::to_value(&err.report).ok();
                resp.run_id = Some(run.id().to_string());
                resp
            }
        };
        resp.to_line()
    });
    tr.close(root);
    (out, Some(planned.components.len()))
}

fn counter(c: &Collected, name: &str) -> u64 {
    c.counters
        .iter()
        .filter(|(k, _)| k.name == name)
        .map(|(_, v)| *v)
        .sum()
}

/// A histogram merged over every label set.
fn hist(c: &Collected, name: &str) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::empty();
    c.histograms
        .iter()
        .filter(|(k, _)| k.name == name)
        .for_each(|(_, s)| h.merge(s));
    h
}

fn hist_p50(c: &Collected, name: &str) -> f64 {
    hist(c, name).quantile(0.5).map_or(0.0, |v| v as f64)
}

fn pct_diff(a: f64, b: f64) -> f64 {
    (a - b) / b * 100.0
}

/// What the traced run reports: the per-layer metrics, figures for the
/// summary, and the span document.
pub struct TraceRun {
    /// The replica measured the program that was served; when false the
    /// per-layer numbers describe something else and the run fails.
    pub reconciled: bool,
    pub metrics: Vec<Metric>,
    pub extra: Vec<(&'static str, Value)>,
    pub spans: Value,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.parse_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.resp_bytes", "bytes"),
    ("serve.queue_p50_us", "us"),
    ("serve.queue_p99_us", "us"),
    ("serve.worker_us", "us"),
    ("serve.repeat_program_ratio", "fraction"),
    ("lint.us", "us"),
    ("lint.reject_ratio", "fraction"),
    ("plan.us", "us"),
    ("plan.components", "count"),
    ("exec.bind_us", "us"),
    ("exec.us", "us"),
    ("exec.component_us", "us"),
    ("exec.attempts", "1/req"),
    ("exec.retries", "1/req"),
    ("exec.guard_trips", "1/req"),
    ("exec.abft_failures", "1/req"),
    ("exec.useful_attempt_ratio", "fraction"),
    ("sim.run_us", "us"),
    ("sim.runs", "1/req"),
    ("sim.transfers", "1/req"),
    ("sim.full_waits", "1/req"),
    ("sim.empty_waits", "1/req"),
    ("sim.wait_us", "us"),
    ("fused.regions", "1/req"),
    ("fused.elems_share", "fraction"),
    ("fused.region_us", "us"),
    ("share.serve", "fraction"),
    ("share.lint", "fraction"),
    ("share.plan", "fraction"),
    ("share.exec_bind", "fraction"),
    ("share.exec_other", "fraction"),
    ("share.sim", "fraction"),
    ("share.fused", "fraction"),
];

pub fn run(args: &Args, plan: &Plan, addr: SocketAddr, verifier: &mut Verifier) -> TraceRun {
    let third = Duration::from_secs_f64(args.seconds as f64 / 3.0);
    let base = serve_phase(plan, addr, third, 1);
    let reg = fblas_metrics::install(fblas_metrics::DEFAULT_SHARDS);
    let traced = serve_phase(plan, addr, third, 2);
    let served = reg.collect();
    for r in base.records.iter().chain(&traced.records) {
        verifier.check(r);
    }

    // Replica: phase 2's requests in send order, for at most a third
    // of the run.
    let mut order: Vec<&Record> = traced.records.iter().collect();
    order.sort_by_key(|r| r.sent);
    let served_lines: HashMap<u64, String> = traced
        .records
        .iter()
        .filter_map(|r| Some((r.id, r.resp.as_ref().ok()?.deterministic_line())))
        .collect();
    let cfg = crate::drive::config();
    let breakers = Breakers::new(cfg.breaker);
    let quotas = TenantQuotas::new(cfg.tenant_qps, cfg.tenant_burst);
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let (mut replayed, mut identical, mut components) = (0u64, 0u64, Vec::new());
    for r in &order {
        if tr.t0.elapsed() >= third {
            break;
        }
        let (line, comps) = replay(&mut tr, r.id, &r.spec.line(r.id), &breakers, &quotas);
        replayed += 1;
        components.extend(comps.map(|c| c as f64));
        let same = fblas_serve::parse_response(&line)
            .is_ok_and(|resp| served_lines.get(&r.id) == Some(&resp.deterministic_line()));
        identical += u64::from(same);
    }
    let after = reg.collect();
    let spans = tr.spans;

    let layer = Layers::of(&spans, &served, &after);
    let identical_ratio = identical as f64 / replayed.max(1) as f64;
    let replica = Replica {
        spans: &spans,
        layers: &layer,
        before: &served,
        after: &after,
        components: &components,
        identical_ratio,
    };
    let (metrics, checks) = per_layer(&base, &traced, &served, &replica);
    let reconciled = checks.passed(plan.workload);
    let name = plan.workload.name();
    for (check, v, unit) in checks.rows() {
        println!("{name} check.{check} {v} {unit}");
    }
    if !reconciled {
        eprintln!("fblas_e2e: the replica does not reconcile with the served run");
    }
    print_layers(name, &layer, replayed);

    let mut extra = vec![
        ("replayed", Value::U64(replayed)),
        ("reconciled", Value::Bool(reconciled)),
        (
            "checks",
            Value::Object(
                checks
                    .rows()
                    .iter()
                    .map(|(k, v, _)| (k.to_string(), Value::F64(*v)))
                    .collect(),
            ),
        ),
        ("self_us", layer.to_value()),
    ];
    extra.extend(traced.summary());
    let doc = Value::Object(vec![
        ("workload".into(), Value::Str(plan.workload.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        (
            "spans".into(),
            Value::Array(
                spans
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        Value::Object(vec![
                            ("id".into(), Value::U64(i as u64)),
                            ("request".into(), Value::U64(s.request)),
                            ("name".into(), Value::Str(s.name.into())),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                            ),
                            ("start_us".into(), Value::F64(s.start_us)),
                            ("end_us".into(), Value::F64(s.end_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    TraceRun {
        reconciled,
        metrics,
        extra,
        spans: doc,
    }
}

/// Self time per layer over the replica, µs.
struct Layers {
    total: f64,
    rows: Vec<(&'static str, f64)>,
}

impl Layers {
    fn of(spans: &[Span], before: &Collected, after: &Collected) -> Layers {
        let mut children: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        let mut by_layer: HashMap<&str, f64> = HashMap::new();
        let mut total = 0.0;
        for (i, s) in spans.iter().enumerate() {
            let own = self_time(
                (s.start_us, s.end_us),
                children.get(&i).map_or(&[][..], Vec::as_slice),
            );
            let layer = match s.name {
                "request" => {
                    total += s.us();
                    "serve"
                }
                n if n.starts_with("serve.") => "serve",
                "exec.bind" => "exec_bind",
                n => n,
            };
            *by_layer.entry(layer).or_default() += own;
        }
        let delta = |name| (hist(after, name).sum - hist(before, name).sum) as f64;
        let sim = delta("fblas_sim_run_us");
        let fused = delta("fblas_fused_region_us");
        let exec = by_layer.get("exec").copied().unwrap_or(0.0);
        let get = |k| by_layer.get(k).copied().unwrap_or(0.0);
        Layers {
            total,
            rows: vec![
                ("serve", get("serve")),
                ("lint", get("lint")),
                ("plan", get("plan")),
                ("exec_bind", get("exec_bind")),
                ("exec_other", (exec - sim - fused).max(0.0)),
                ("sim", sim),
                ("fused", fused),
            ],
        }
    }

    fn share(&self, layer: &str) -> f64 {
        let v = self
            .rows
            .iter()
            .find(|(n, _)| *n == layer)
            .map_or(0.0, |r| r.1);
        v / self.total.max(f64::MIN_POSITIVE)
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.rows
                .iter()
                .map(|(n, v)| (n.to_string(), Value::F64(*v)))
                .collect(),
        )
    }
}

fn print_layers(workload: &str, layers: &Layers, replayed: u64) {
    eprintln!("fblas_e2e: {workload}: self time over {replayed} replayed requests");
    eprintln!("  {:<12} {:>12} {:>8}", "layer", "self_ms", "share");
    for (name, us) in &layers.rows {
        eprintln!(
            "  {name:<12} {:>12.3} {:>8.4}",
            us / 1e3,
            layers.share(name)
        );
    }
    eprintln!("  {:<12} {:>12.3}", "total", layers.total / 1e3);
}

/// What the replica measured.
struct Replica<'a> {
    spans: &'a [Span],
    layers: &'a Layers,
    /// The registry before and after the replica: the program's own
    /// timers for the replayed executions.
    before: &'a Collected,
    after: &'a Collected,
    /// Plan components per executed request.
    components: &'a [f64],
    /// Share of replayed requests whose response matched the served
    /// one byte for byte (wall times aside).
    identical_ratio: f64,
}

/// Whether the replica measured the program that was served, and what
/// arming the registry cost.
struct Checks {
    /// Traced over untraced `mean_ms`.
    trace_overhead_pct: f64,
    /// Mean replica `exec` span over the mean `fblas_plan_us` the program
    /// itself recorded for the same executions: the spans time what the
    /// program's own timer times.
    replica_exec_vs_registry_pct: f64,
    /// Median over executed requests of the replica's worker path
    /// (`plan` → `serve.respond`) over the served `wall.latency_us` of
    /// the same request: the replica runs as long as the served request
    /// did. Paired per request, so a mix of kernels or tenants compares
    /// like with like; a median, so the few served requests that a
    /// neighbour on the other worker slowed by a watchdog tick do not
    /// move it. Required on `small_closed` only: there a request is one
    /// watchdog tick either way, while on the CPU-bound workloads the
    /// seconds between serving and replaying let the host's speed drift
    /// into the comparison.
    replica_worker_vs_served_pct: f64,
    /// Share of replayed requests answered byte for byte as served.
    replica_identical_ratio: f64,
}

impl Checks {
    fn passed(&self, workload: Workload) -> bool {
        self.replica_exec_vs_registry_pct.abs() <= RECONCILE_PCT
            && (workload != Workload::SmallClosed
                || self.replica_worker_vs_served_pct.abs() <= RECONCILE_PCT)
            && self.replica_identical_ratio == 1.0
    }

    fn rows(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("trace_overhead_pct", self.trace_overhead_pct, "%"),
            (
                "replica_exec_vs_registry_pct",
                self.replica_exec_vs_registry_pct,
                "%",
            ),
            (
                "replica_worker_vs_served_pct",
                self.replica_worker_vs_served_pct,
                "%",
            ),
            (
                "replica_identical_ratio",
                self.replica_identical_ratio,
                "fraction",
            ),
        ]
    }
}

fn per_layer(
    base: &Phase,
    traced: &Phase,
    served: &Collected,
    replica: &Replica,
) -> (Vec<Metric>, Checks) {
    let Replica {
        spans,
        layers,
        before,
        after,
        components,
        identical_ratio,
    } = *replica;
    let span_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    };
    let p50 = |v: Vec<f64>| quantile(v, 0.5);
    let answered: Vec<&Record> = traced.records.iter().filter(|r| r.resp.is_ok()).collect();
    let wall =
        |field: &str| -> Vec<f64> { answered.iter().filter_map(|r| r.wall_us(field)).collect() };
    let executed = answered
        .iter()
        .filter(|r| r.spec.expect() != Expect::LintReject)
        .count()
        .max(1) as f64;
    let per_req = |name: &str| counter(served, name) as f64 / executed;
    let transport: Vec<f64> = answered
        .iter()
        .filter_map(|r| {
            Some(r.latency_ms() * 1e3 - r.wall_us("latency_us")? - r.wall_us("queue_us")?)
        })
        .collect();
    let mut seen = HashSet::new();
    let repeats = traced
        .records
        .iter()
        .filter(|r| !seen.insert(r.spec.kernel.program_json()))
        .count();
    let n = traced.records.len().max(1) as f64;
    let rejects = traced
        .records
        .iter()
        .filter(|r| r.spec.expect() == Expect::LintReject)
        .count();
    let attempts = counter(served, "fblas_exec_attempts_total") as f64;
    let fused_elems = counter(served, "fblas_fused_elems_total") as f64;
    let transfers = counter(served, "fblas_sim_transfers_total") as f64;
    let exec_spans = span_us("exec");
    let replica_exec_mean = exec_spans.iter().sum::<f64>() / exec_spans.len().max(1) as f64;
    let (plan_after, plan_before) = (hist(after, "fblas_plan_us"), hist(before, "fblas_plan_us"));
    let registry_exec_mean = plan_after.sum.wrapping_sub(plan_before.sum) as f64
        / plan_after.count.saturating_sub(plan_before.count).max(1) as f64;
    let mut worker_path: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if matches!(s.name, "plan" | "exec.bind" | "exec" | "serve.respond") {
            *worker_path.entry(s.request).or_default() += s.us();
        }
    }
    let worker_ratios: Vec<f64> = answered
        .iter()
        .filter_map(|r| Some(worker_path.get(&r.id)? / r.wall_us("latency_us")?))
        .collect();

    let values: Vec<(&'static str, f64)> = vec![
        ("serve.parse_us", p50(span_us("serve.parse"))),
        ("serve.admit_us", p50(span_us("serve.admit"))),
        ("serve.respond_us", p50(span_us("serve.respond"))),
        ("serve.transport_us", p50(transport)),
        (
            "serve.resp_bytes",
            answered.iter().map(|r| r.bytes as f64).sum::<f64>() / answered.len().max(1) as f64,
        ),
        ("serve.queue_p50_us", quantile(wall("queue_us"), 0.5)),
        ("serve.queue_p99_us", quantile(wall("queue_us"), 0.99)),
        ("serve.worker_us", p50(wall("latency_us"))),
        ("serve.repeat_program_ratio", repeats as f64 / n),
        ("lint.us", p50(span_us("lint"))),
        ("lint.reject_ratio", rejects as f64 / n),
        ("plan.us", p50(span_us("plan"))),
        (
            "plan.components",
            components.iter().sum::<f64>() / components.len().max(1) as f64,
        ),
        ("exec.bind_us", p50(span_us("exec.bind"))),
        ("exec.us", p50(exec_spans)),
        ("exec.component_us", hist_p50(served, "fblas_component_us")),
        ("exec.attempts", per_req("fblas_exec_attempts_total")),
        ("exec.retries", per_req("fblas_exec_retries_total")),
        ("exec.guard_trips", per_req("fblas_exec_guard_trips_total")),
        (
            "exec.abft_failures",
            per_req("fblas_exec_abft_failures_total"),
        ),
        (
            "exec.useful_attempt_ratio",
            counter(served, "fblas_exec_components_total") as f64 / attempts.max(1.0),
        ),
        ("sim.run_us", hist_p50(served, "fblas_sim_run_us")),
        ("sim.runs", per_req("fblas_sim_runs_total")),
        ("sim.transfers", transfers / executed),
        ("sim.full_waits", per_req("fblas_channel_full_waits_total")),
        (
            "sim.empty_waits",
            per_req("fblas_channel_empty_waits_total"),
        ),
        ("sim.wait_us", hist_p50(served, "fblas_channel_wait_us")),
        ("fused.regions", per_req("fblas_fused_regions_total")),
        (
            "fused.elems_share",
            fused_elems / (fused_elems + transfers).max(1.0),
        ),
        ("fused.region_us", hist_p50(served, "fblas_fused_region_us")),
        ("share.serve", layers.share("serve")),
        ("share.lint", layers.share("lint")),
        ("share.plan", layers.share("plan")),
        ("share.exec_bind", layers.share("exec_bind")),
        ("share.exec_other", layers.share("exec_other")),
        ("share.sim", layers.share("sim")),
        ("share.fused", layers.share("fused")),
    ];
    let checks = Checks {
        trace_overhead_pct: pct_diff(traced.mean_ms(), base.mean_ms()),
        replica_exec_vs_registry_pct: pct_diff(replica_exec_mean, registry_exec_mean),
        replica_worker_vs_served_pct: (median(&worker_ratios) - 1.0) * 100.0,
        replica_identical_ratio: identical_ratio,
    };
    assert_eq!(values.len(), PER_LAYER.len(), "one value per listed metric");
    let metrics = values
        .into_iter()
        .zip(PER_LAYER)
        .map(|((name, value), (listed, unit))| {
            assert_eq!(name, listed, "values follow PER_LAYER's order");
            Metric { name, value, unit }
        })
        .collect();
    (metrics, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        // Parent 0..100; children 10..30 and 20..50 overlap (40 µs
        // covered), 60..70 nested, 90..120 sticks out past the parent.
        let children = [(10.0, 30.0), (20.0, 50.0), (60.0, 70.0), (90.0, 120.0)];
        assert_eq!(
            self_time((0.0, 100.0), &children),
            100.0 - 40.0 - 10.0 - 10.0
        );
        assert_eq!(self_time((0.0, 100.0), &[]), 100.0);
        assert_eq!(
            self_time((0.0, 10.0), &[(20.0, 30.0)]),
            10.0,
            "disjoint child"
        );
        assert_eq!(self_time((0.0, 10.0), &[(0.0, 10.0), (2.0, 3.0)]), 0.0);
    }

    #[test]
    fn layer_shares_add_up_to_one() {
        let span = |request, name, parent, start_us, end_us| Span {
            request,
            name,
            parent,
            start_us,
            end_us,
        };
        let spans = vec![
            span(1, "request", None, 0.0, 100.0),
            span(1, "serve.parse", Some(0), 1.0, 5.0),
            span(1, "lint", Some(0), 5.0, 15.0),
            span(1, "plan", Some(0), 15.0, 20.0),
            span(1, "exec.bind", Some(0), 20.0, 30.0),
            span(1, "exec", Some(0), 30.0, 95.0),
        ];
        let empty = fblas_metrics::Registry::new(1).collect();
        let layers = Layers::of(&spans, &empty, &empty);
        let sum: f64 = layers.rows.iter().map(|(n, _)| layers.share(n)).sum();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        assert!(
            (layers.share("serve") - 0.10).abs() < 1e-12,
            "parse + root gaps"
        );
    }

    #[test]
    fn reconciliation_fails_on_any_mismatch() {
        let checks = |registry, worker, identical| Checks {
            trace_overhead_pct: 2.0,
            replica_exec_vs_registry_pct: registry,
            replica_worker_vs_served_pct: worker,
            replica_identical_ratio: identical,
        };
        assert!(checks(0.1, -1.0, 1.0).passed(Workload::SmallClosed));
        assert!(!checks(0.1, -1.0, 0.99).passed(Workload::MixOpen));
        assert!(!checks(16.0, -1.0, 1.0).passed(Workload::StreamClosed));
        assert!(!checks(0.1, 20.0, 1.0).passed(Workload::SmallClosed));
        assert!(
            checks(0.1, 20.0, 1.0).passed(Workload::StreamClosed),
            "served timing is compared on small_closed only"
        );
        assert!(!checks(0.1, f64::NAN, 1.0).passed(Workload::SmallClosed));
    }
}
