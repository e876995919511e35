//! The audit proper: join predicted and measured, attribute the gaps.

use fblas_trace::{Lane, Tracer};
use serde::Serialize;

use crate::measure::{aggregate, derive_edges, ModuleMeasure};
use crate::spec::{AuditSpec, ChannelEdge, ModulePrediction};

/// Where a module's predicted-vs-measured gap comes from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Attribution {
    /// The module was busy computing — its datapath, not its
    /// environment, set the pace. Expected for the bottleneck module.
    Compute,
    /// The design is predicted memory-bound and this interface module
    /// carried the DRAM traffic: the bandwidth ceiling, not the
    /// pipeline, explains the time.
    MemoryBandwidth,
    /// The module lost its time pushing into a full FIFO: whoever drains
    /// that channel is too slow (or the FIFO too shallow for the burst).
    Backpressure {
        /// Channel the module blocked on.
        channel: String,
        /// Module that should have drained it.
        culprit: String,
        /// µs lost to that channel.
        stall_us: u64,
    },
    /// The module lost its time popping from an empty FIFO: whoever
    /// feeds that channel is not keeping up.
    Starvation {
        /// Channel the module blocked on.
        channel: String,
        /// Module that should have fed it.
        culprit: String,
        /// µs lost to that channel.
        stall_us: u64,
    },
}

impl Attribution {
    /// One-line human description of where the module's time went.
    pub fn describe(&self) -> String {
        match self {
            Attribution::Compute => "compute-bound".to_string(),
            Attribution::MemoryBandwidth => "memory-bandwidth ceiling".to_string(),
            Attribution::Backpressure {
                channel, culprit, ..
            } => {
                format!("backpressure from `{culprit}` via `{channel}`")
            }
            Attribution::Starvation {
                channel, culprit, ..
            } => {
                format!("starved by `{culprit}` via `{channel}`")
            }
        }
    }
}

/// One module's audit row: prediction (when the model covers it),
/// measurement, drift, and attribution.
#[derive(Debug, Clone, Serialize)]
pub struct ModuleAudit {
    /// Module name.
    pub module: String,
    /// Predicted cycles `C = L + I·M`, if the model covers this module.
    pub predicted_cycles: Option<u64>,
    /// Predicted busy share `I·M / max_j(I_j·M_j)`, if covered.
    pub predicted_share: Option<f64>,
    /// Measured run span, µs.
    pub run_us: u64,
    /// Measured non-stalled time, µs.
    pub busy_us: u64,
    /// µs blocked on full FIFOs.
    pub full_stall_us: u64,
    /// µs blocked on empty FIFOs.
    pub empty_stall_us: u64,
    /// Measured busy share: this module's busy time relative to the
    /// busiest module's, `busy_i / max_j busy_j`.
    pub measured_share: f64,
    /// Measured throughput, elements per second.
    pub throughput_eps: f64,
    /// `measured_share − predicted_share`, when covered.
    pub drift: Option<f64>,
    /// Whether `|drift|` exceeds the tolerance.
    pub flagged: bool,
    /// Explanation of where the module's time went.
    pub attribution: Attribution,
}

/// Estimated effect of widening the bottleneck module's vectorization.
#[derive(Debug, Clone, Serialize)]
pub struct WhatIf {
    /// Module whose width would be doubled.
    pub module: String,
    /// Current width `W`.
    pub current_width: u64,
    /// Proposed width `2W`.
    pub proposed_width: u64,
    /// Predicted composition cycles today.
    pub current_cycles: u64,
    /// Predicted composition cycles with the bottleneck's iteration
    /// count halved.
    pub projected_cycles: u64,
    /// Speedup in predicted *time* (cycles bounded by the DRAM ceiling,
    /// which widening cannot lift).
    pub projected_speedup: f64,
    /// Whether the DRAM ceiling caps the projection.
    pub memory_capped: bool,
}

/// Verdict on the module that sets the composition's pace.
#[derive(Debug, Clone, Serialize)]
pub struct Bottleneck {
    /// The busiest measured module.
    pub module: String,
    /// Whether the model also predicted this module as the bottleneck
    /// (largest `I·M`).
    pub agrees_with_model: bool,
    /// What the bottleneck's time is attributed to.
    pub attribution: Attribution,
    /// Effect of widening its vectorization, when it is a predicted
    /// compute module.
    pub what_if: Option<WhatIf>,
}

/// Full audit of one simulated run against the analytic model.
#[derive(Debug, Clone, Serialize)]
pub struct AuditReport {
    /// Drift tolerance the flags used.
    pub tolerance: f64,
    /// Modeled clock frequency, Hz.
    pub freq_hz: f64,
    /// Predicted composition cycles `Σ L_i + max_i(I_i·M_i)`.
    pub predicted_cycles: u64,
    /// Predicted completion seconds (pipeline vs DRAM ceiling max).
    pub predicted_secs: f64,
    /// Whether the DRAM ceiling dominates the prediction.
    pub memory_bound: bool,
    /// MDAG critical path (module names), when the caller computed one.
    pub critical_path: Vec<String>,
    /// Per-module rows, prediction order first, then measurement-only
    /// modules in first-seen order.
    pub modules: Vec<ModuleAudit>,
    /// The pace-setting module, when anything was measured.
    pub bottleneck: Option<Bottleneck>,
    /// Faults injected into the audited run (samples on the tracer's
    /// `fault:*` series): nonzero means measured/predicted drift is
    /// partly attributable to deliberate fault injection, not the model.
    pub fault_events: u64,
    /// Failed component attempts the recovery layer recorded during the
    /// run (samples on the tracer's `recovery:component:*` series) — for
    /// a run that completed, its retry count. Retried components execute
    /// their modules more than once, inflating busy shares.
    pub recovery_retries: u64,
}

impl AuditReport {
    /// Modules whose drift exceeded the tolerance.
    pub fn flagged(&self) -> impl Iterator<Item = &ModuleAudit> {
        self.modules.iter().filter(|m| m.flagged)
    }

    /// Whether every model-covered module stayed within tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.modules.iter().all(|m| !m.flagged)
    }

    /// The row for a module, if present.
    pub fn module(&self, name: &str) -> Option<&ModuleAudit> {
        self.modules.iter().find(|m| m.module == name)
    }

    /// Largest absolute drift over the covered modules (0 when none).
    pub fn worst_drift(&self) -> f64 {
        self.modules
            .iter()
            .filter_map(|m| m.drift)
            .fold(0.0f64, |acc, d| acc.max(d.abs()))
    }

    /// Inject the audit's per-module busy and drift percentages into a
    /// tracer's sampled series, so the Perfetto exporter renders them as
    /// counter tracks alongside the occupancy series. Each module gets a
    /// two-sample step (run start and end) per series.
    pub fn record_counters(&self, tracer: &Tracer, lanes: &[Lane]) {
        for m in &self.modules {
            let (t0, t1) = lanes
                .iter()
                .find(|l| l.module == m.module)
                .map(|l| (l.started_us, l.ended_us))
                .unwrap_or((0, 0));
            let busy = format!("audit:busy_pct:{}", m.module);
            tracer.record_sample(&busy, t0, m.measured_share * 100.0);
            tracer.record_sample(&busy, t1.max(t0 + 1), m.measured_share * 100.0);
            if let Some(d) = m.drift {
                let drift = format!("audit:drift_pct:{}", m.module);
                tracer.record_sample(&drift, t0, d * 100.0);
                tracer.record_sample(&drift, t1.max(t0 + 1), d * 100.0);
            }
        }
    }

    /// Render the report as a fixed-width terminal table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== audit: predicted {} cycles @ {:.0} MHz ({:.1} µs{}) ==\n",
            self.predicted_cycles,
            self.freq_hz / 1e6,
            self.predicted_secs * 1e6,
            if self.memory_bound {
                ", memory-bound"
            } else {
                ""
            }
        ));
        if !self.critical_path.is_empty() {
            out.push_str(&format!(
                "critical path: {}\n",
                self.critical_path.join(" -> ")
            ));
        }
        out.push_str(&format!(
            "{:<20} {:>10} {:>8} {:>8} {:>7} {:>9} {:>9} {:>6}  {}\n",
            "module",
            "pred cyc",
            "pred%",
            "meas%",
            "drift%",
            "full(µs)",
            "empty(µs)",
            "flag",
            "verdict"
        ));
        for m in &self.modules {
            out.push_str(&format!(
                "{:<20} {:>10} {:>8} {:>8} {:>7} {:>9} {:>9} {:>6}  {}\n",
                m.module,
                m.predicted_cycles
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
                m.predicted_share
                    .map(|s| format!("{:.1}", s * 100.0))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.1}", m.measured_share * 100.0),
                m.drift
                    .map(|d| format!("{:+.1}", d * 100.0))
                    .unwrap_or_else(|| "-".into()),
                m.full_stall_us,
                m.empty_stall_us,
                if m.flagged { "DRIFT" } else { "ok" },
                m.attribution.describe(),
            ));
        }
        if let Some(b) = &self.bottleneck {
            out.push_str(&format!(
                "bottleneck: `{}` ({}, model {}): {}\n",
                b.module,
                if b.agrees_with_model {
                    "agrees with model"
                } else {
                    "model predicted a different module"
                },
                if self.memory_bound {
                    "mem-bound"
                } else {
                    "pipeline"
                },
                b.attribution.describe(),
            ));
            if let Some(w) = &b.what_if {
                out.push_str(&format!(
                    "what-if: widen `{}` W {} -> {}: {} -> {} cycles, {:.2}x{}\n",
                    w.module,
                    w.current_width,
                    w.proposed_width,
                    w.current_cycles,
                    w.projected_cycles,
                    w.projected_speedup,
                    if w.memory_capped {
                        " (capped by DRAM ceiling)"
                    } else {
                        ""
                    }
                ));
            }
        }
        out
    }
}

/// Minimum share of a module's run that must be lost to one stall kind
/// before the audit blames a neighbour rather than the module itself.
const STALL_ATTRIBUTION_FLOOR: f64 = 0.10;

fn attribute(
    measure: &ModuleMeasure,
    prediction: Option<&ModulePrediction>,
    edges: &[ChannelEdge],
    memory_bound: bool,
) -> Attribution {
    let run = measure.run_us.max(1) as f64;
    let full_frac = measure.full_stall_us as f64 / run;
    let empty_frac = measure.empty_stall_us as f64 / run;
    let floor = STALL_ATTRIBUTION_FLOOR;

    if full_frac.max(empty_frac) >= floor {
        if full_frac >= empty_frac {
            // Blocked pushing: the channel's consumer is the culprit.
            let (channel, stall_us) = measure
                .worst_full_channel()
                .map(|(c, us)| (c.to_string(), us))
                .unwrap_or_else(|| (String::from("?"), measure.full_stall_us));
            let culprit = edges
                .iter()
                .find(|e| e.channel == channel)
                .map(|e| e.consumer.clone())
                .filter(|c| !c.is_empty())
                .unwrap_or_else(|| String::from("?"));
            return Attribution::Backpressure {
                channel,
                culprit,
                stall_us,
            };
        }
        // Blocked popping: the channel's producer is the culprit.
        let (channel, stall_us) = measure
            .worst_empty_channel()
            .map(|(c, us)| (c.to_string(), us))
            .unwrap_or_else(|| (String::from("?"), measure.empty_stall_us));
        let culprit = edges
            .iter()
            .find(|e| e.channel == channel)
            .map(|e| e.producer.clone())
            .filter(|p| !p.is_empty())
            .unwrap_or_else(|| String::from("?"));
        return Attribution::Starvation {
            channel,
            culprit,
            stall_us,
        };
    }
    if memory_bound && prediction.is_some_and(|p| p.interface) {
        return Attribution::MemoryBandwidth;
    }
    Attribution::Compute
}

fn what_if(spec: &AuditSpec, bottleneck: &ModulePrediction) -> WhatIf {
    let current_cycles = spec.predicted_cycles();
    let latency: u64 = spec.predictions.iter().map(|p| p.cost.latency).sum();
    let max_other_work = spec
        .predictions
        .iter()
        .filter(|p| p.module != bottleneck.module)
        .map(|p| p.work())
        .max()
        .unwrap_or(0);
    // Doubling W halves the iteration count of the bottleneck's inner
    // loop; the composition then drains at the next-slowest module's
    // pace if that is larger.
    let halved = bottleneck.work().div_ceil(2);
    let projected_cycles = latency + halved.max(max_other_work);
    let current_secs = (current_cycles as f64 / spec.freq_hz).max(spec.mem_ceiling_secs);
    let projected_secs = (projected_cycles as f64 / spec.freq_hz).max(spec.mem_ceiling_secs);
    let memory_capped = spec.mem_ceiling_secs >= projected_cycles as f64 / spec.freq_hz
        && spec.mem_ceiling_secs > 0.0;
    WhatIf {
        module: bottleneck.module.clone(),
        current_width: bottleneck.width,
        proposed_width: bottleneck.width * 2,
        current_cycles,
        projected_cycles,
        projected_speedup: if projected_secs > 0.0 {
            current_secs / projected_secs
        } else {
            1.0
        },
        memory_capped,
    }
}

/// Audit a simulated run: join `spec`'s predictions with the lanes a
/// tracer collected, attribute every gap, and name the bottleneck.
pub fn audit(spec: &AuditSpec, lanes: &[Lane]) -> AuditReport {
    let measures = aggregate(lanes);
    let edges = derive_edges(lanes, &spec.edges);
    let memory_bound = spec.memory_bound();

    let mut modules: Vec<ModuleAudit> = Vec::new();
    let find_measure = |name: &str| measures.iter().find(|m| m.module == name);

    // Measured share is normalized the same way as the predicted one:
    // each module's busy time relative to the *busiest* module's, just
    // as the predicted share is `I·M` relative to the largest `I·M`.
    // Comparing ratios (instead of each module's own busy fraction)
    // keeps the audit meaningful when the host has fewer cores than
    // modules and concurrent threads timeshare: serialization scales
    // every module's busy time together and cancels in the ratio.
    let max_busy = measures
        .iter()
        .map(ModuleMeasure::busy_us)
        .max()
        .unwrap_or(0);
    let relative_share = |busy: u64| {
        if max_busy == 0 {
            1.0
        } else {
            busy as f64 / max_busy as f64
        }
    };

    // Prediction-covered modules first, in spec order.
    for p in &spec.predictions {
        let empty;
        let m = match find_measure(&p.module) {
            Some(m) => m,
            None => {
                empty = ModuleMeasure {
                    module: p.module.clone(),
                    ..ModuleMeasure::default()
                };
                &empty
            }
        };
        let predicted_share = spec.predicted_share(p);
        let measured_share = relative_share(m.busy_us());
        let drift = measured_share - predicted_share;
        let attribution = attribute(m, Some(p), &edges, memory_bound);
        modules.push(ModuleAudit {
            module: p.module.clone(),
            predicted_cycles: Some(p.cost.cycles()),
            predicted_share: Some(predicted_share),
            run_us: m.run_us,
            busy_us: m.busy_us(),
            full_stall_us: m.full_stall_us,
            empty_stall_us: m.empty_stall_us,
            measured_share,
            throughput_eps: m.throughput_eps(),
            drift: Some(drift),
            flagged: drift.abs() > spec.tolerance,
            attribution,
        });
    }
    // Measurement-only modules (readers, duplicators, writers without a
    // model entry): reported for context, never flagged.
    for m in &measures {
        if spec.predictions.iter().any(|p| p.module == m.module) {
            continue;
        }
        modules.push(ModuleAudit {
            module: m.module.clone(),
            predicted_cycles: None,
            predicted_share: None,
            run_us: m.run_us,
            busy_us: m.busy_us(),
            full_stall_us: m.full_stall_us,
            empty_stall_us: m.empty_stall_us,
            measured_share: relative_share(m.busy_us()),
            throughput_eps: m.throughput_eps(),
            drift: None,
            flagged: false,
            attribution: attribute(m, None, &edges, memory_bound),
        });
    }

    // Bottleneck: the measured module that was busy for the most
    // absolute time sets the pace (busy *share* alone would crown
    // short-lived helpers that never waited).
    let bottleneck = measures.iter().max_by_key(|m| m.busy_us()).map(|m| {
        let predicted_bottleneck = spec
            .predictions
            .iter()
            .max_by_key(|p| p.work())
            .map(|p| p.module.clone());
        let row = modules
            .iter()
            .find(|row| row.module == m.module)
            .expect("every measure has a row");
        let what_if = spec
            .predictions
            .iter()
            .find(|p| p.module == m.module && !p.interface && p.width >= 1)
            .map(|p| what_if(spec, p));
        Bottleneck {
            module: m.module.clone(),
            agrees_with_model: predicted_bottleneck.as_deref() == Some(m.module.as_str()),
            attribution: row.attribution.clone(),
            what_if,
        }
    });

    AuditReport {
        tolerance: spec.tolerance,
        freq_hz: spec.freq_hz,
        predicted_cycles: spec.predicted_cycles(),
        predicted_secs: spec.predicted_secs(),
        memory_bound,
        critical_path: spec.critical_path.clone(),
        modules,
        bottleneck,
        fault_events: 0,
        recovery_retries: 0,
    }
}

/// [`audit`] over everything a tracer recorded, also injecting the
/// audit counter tracks back into the tracer for Perfetto export.
pub fn audit_tracer(spec: &AuditSpec, tracer: &Tracer) -> AuditReport {
    let lanes = tracer.lanes();
    let mut report = audit(spec, &lanes);
    // Attribute chaos to drift: a run that absorbed injected faults or
    // re-executed components is expected to diverge from the model.
    let series = tracer.series();
    let samples = |prefix: &str| {
        series
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s.len() as u64)
            .sum()
    };
    report.fault_events = samples("fault:");
    report.recovery_retries = samples("recovery:component:");
    report.record_counters(tracer, &lanes);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_hlssim::PipelineCost;
    use fblas_hlssim::{channel, ModuleKind, Simulation};
    use fblas_trace::Tracer;

    /// Timing-sensitive tests run simulations whose stall measurements
    /// are only meaningful with the machine to themselves; taking this
    /// lock keeps the default parallel test harness from running them
    /// on top of each other.
    static TIMING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
        TIMING.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spin for roughly `n` units of arithmetic work (keeps a module
    /// measurably busy without sleeping).
    fn burn(n: u64) -> f64 {
        let mut acc = 1.0f64;
        for i in 0..n {
            acc = (acc + i as f64).sqrt().max(1.0);
        }
        acc
    }

    fn run_pair(
        depth: usize,
        producer_work: u64,
        consumer_work: u64,
        n: usize,
    ) -> (Tracer, AuditSpec) {
        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        sim.set_tracer(tracer.clone());
        let (tx, rx) = channel::<f64>(sim.ctx(), depth, "pipe");
        sim.add_module("producer", ModuleKind::Compute, move || {
            for i in 0..n {
                let v = burn(producer_work) + i as f64;
                tx.push(v)?;
            }
            Ok(())
        });
        sim.add_module("consumer", ModuleKind::Compute, move || {
            let mut acc = 0.0;
            for _ in 0..n {
                acc += rx.pop()?;
                acc += burn(consumer_work);
            }
            assert!(acc.is_finite());
            Ok(())
        });
        sim.run().unwrap();

        // The model predicts a balanced pipeline: both modules initiate
        // one element per cycle (equal I·M), so both are predicted ~100%
        // busy. A mis-sized FIFO or lopsided consumer breaks that.
        let spec = AuditSpec::new(200.0e6)
            .with_tolerance(0.5)
            .predict(ModulePrediction::compute(
                "producer",
                PipelineCost::pipelined(10, n as u64),
                n as u64,
                16,
            ))
            .predict(ModulePrediction::compute(
                "consumer",
                PipelineCost::pipelined(10, n as u64),
                n as u64,
                16,
            ));
        (tracer, spec)
    }

    #[test]
    fn missized_fifo_blames_backpressure_on_the_consumer() {
        // Depth-1 FIFO into a consumer doing heavy per-element work: the
        // producer spends its run blocked pushing. The audit must flag
        // the producer's drift and blame the `consumer` via `pipe`.
        let _guard = timing_lock();
        let (tracer, spec) = run_pair(1, 0, 2_000, 4_000);
        let report = audit_tracer(&spec, &tracer);

        let producer = report.module("producer").unwrap();
        assert!(producer.flagged, "producer must drift: {}", report.render());
        match &producer.attribution {
            Attribution::Backpressure {
                channel, culprit, ..
            } => {
                assert_eq!(channel, "pipe");
                assert_eq!(culprit, "consumer");
            }
            other => panic!("expected backpressure, got {other:?}\n{}", report.render()),
        }
        let b = report.bottleneck.as_ref().unwrap();
        assert_eq!(b.module, "consumer");
        assert!(!report.within_tolerance());
        // Audit counters landed in the tracer for Perfetto export.
        assert!(tracer
            .series()
            .keys()
            .any(|k| k.starts_with("audit:drift_pct:producer")));
    }

    #[test]
    fn matched_run_stays_within_tolerance() {
        // Deep FIFO, symmetric work: both modules run close to flat out,
        // matching the balanced prediction. Wall-clock measurement on a
        // loaded single-core host can deschedule one thread long enough
        // to fake a drift, so allow a couple of retries before failing.
        let _guard = timing_lock();
        let mut last = None;
        for _ in 0..3 {
            let (tracer, spec) = run_pair(4096, 400, 400, 30_000);
            let report = audit_tracer(&spec, &tracer);
            if report.within_tolerance() {
                assert!(report.worst_drift() <= spec.tolerance);
                return;
            }
            last = Some(report);
        }
        panic!("matched run must not drift: {}", last.unwrap().render());
    }

    #[test]
    fn starved_consumer_blames_the_producer() {
        // Invert the mis-sizing: the *producer* does the heavy work, so
        // the consumer starves on an empty FIFO.
        let _guard = timing_lock();
        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        sim.set_tracer(tracer.clone());
        let n = 4_000usize;
        let (tx, rx) = channel::<f64>(sim.ctx(), 4, "feed");
        sim.add_module("slow_src", ModuleKind::Compute, move || {
            for i in 0..n {
                let v = burn(2_000) + i as f64;
                tx.push(v)?;
            }
            Ok(())
        });
        sim.add_module("sink", ModuleKind::Compute, move || {
            for _ in 0..n {
                rx.pop()?;
            }
            Ok(())
        });
        sim.run().unwrap();
        let spec = AuditSpec::new(200.0e6)
            .with_tolerance(0.5)
            .predict(ModulePrediction::compute(
                "sink",
                PipelineCost::pipelined(10, n as u64),
                n as u64,
                16,
            ));
        let report = audit_tracer(&spec, &tracer);
        let sink = report.module("sink").unwrap();
        assert!(sink.flagged, "{}", report.render());
        match &sink.attribution {
            Attribution::Starvation {
                channel, culprit, ..
            } => {
                assert_eq!(channel, "feed");
                assert_eq!(culprit, "slow_src");
            }
            other => panic!("expected starvation, got {other:?}"),
        }
    }

    #[test]
    fn what_if_halves_the_bottleneck_and_respects_the_ceiling() {
        let spec = AuditSpec::new(100.0e6)
            .predict(ModulePrediction::compute(
                "dot",
                PipelineCost::pipelined(50, 1_000_000),
                1_000_000,
                16,
            ))
            .predict(ModulePrediction::compute(
                "axpy",
                PipelineCost::pipelined(30, 400_000),
                400_000,
                16,
            ));
        let w = what_if(&spec, &spec.predictions[0]);
        assert_eq!(w.proposed_width, 32);
        assert_eq!(w.current_cycles, 80 + 1_000_000);
        assert_eq!(w.projected_cycles, 80 + 500_000);
        assert!(w.projected_speedup > 1.9 && w.projected_speedup < 2.1);
        assert!(!w.memory_capped);

        // With a DRAM ceiling above the projected pipeline time, the
        // speedup collapses toward the ceiling.
        let mut capped = spec.clone();
        capped.mem_ceiling_secs = 0.009; // 900k cycles at 100 MHz
        let w = what_if(&capped, &capped.predictions[0]);
        assert!(w.memory_capped);
        assert!(w.projected_speedup < 1.5);
    }

    #[test]
    fn report_serializes_and_renders() {
        let _guard = timing_lock();
        let (tracer, spec) = run_pair(64, 100, 100, 10_000);
        let report = audit_tracer(&spec, &tracer);
        let text = serde_json::to_string(&report).unwrap();
        assert!(text.contains("\"modules\""));
        assert!(text.contains("\"attribution\""));
        let table = report.render();
        assert!(table.contains("module"));
        assert!(table.contains("producer"));
        assert!(table.contains("bottleneck"));
    }

    /// One corruption injected into a traced simulation audits as
    /// exactly one fault event, from the `fault:*` series alone.
    #[test]
    fn injected_corruption_audits_as_one_fault_event() {
        use fblas_chaos::{FaultAction, FaultPlan, FaultSite};

        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        sim.set_tracer(tracer.clone());
        sim.ctx()
            .arm_faults(std::sync::Arc::new(FaultPlan::new(Some(11)).channel_fault(
                FaultSite::Push,
                "pipe",
                3,
                FaultAction::Corrupt { bit: 0 },
            )));
        let (tx, rx) = channel::<f64>(sim.ctx(), 8, "pipe");
        sim.add_module("producer", ModuleKind::Compute, move || {
            tx.push_iter((0..64).map(f64::from))
        });
        sim.add_module("consumer", ModuleKind::Compute, move || {
            rx.pop_n(64).map(|_| ())
        });
        sim.run().unwrap();

        let report = audit_tracer(&AuditSpec::new(1e8), &tracer);
        assert_eq!(report.fault_events, 1);
        assert_eq!(report.recovery_retries, 0);
    }

    /// A recovering execution that absorbs one seeded corruption audits
    /// to exactly the retries its `RecoveryReport` counts.
    #[test]
    fn recovered_run_audits_its_retry_count() {
        use fblas_chaos::{FaultAction, FaultPlan, FaultSite};
        use fblas_core::composition::{
            execute_plan, plan, Backend, ExecMode, ExecOptions, Op, PlannerConfig, Program,
            RetryPolicy,
        };
        use fblas_core::host::DeviceBuffer;
        use std::collections::HashMap;

        const N: usize = 16;
        let mut program = Program::new();
        program.matrix("A", N, N).vector("x", N).vector("o", N);
        program.op(Op::Gemv {
            alpha: 1.5,
            beta: 0.0,
            a: "A".into(),
            transposed: false,
            x: "x".into(),
            y: None,
            out: "o".into(),
        });
        let cfg = PlannerConfig {
            tn: N,
            tm: N,
            ..Default::default()
        };
        let planned = plan(&program, &cfg).unwrap();
        let buffers: HashMap<String, DeviceBuffer<f64>> = [
            ("A", (0..N * N).map(|i| i as f64 * 0.25).collect::<Vec<_>>()),
            ("x", (0..N).map(|i| 1.0 - i as f64).collect()),
            ("o", vec![0.0; N]),
        ]
        .into_iter()
        .map(|(name, data)| (name.to_string(), DeviceBuffer::from_vec(name, data, 0)))
        .collect();
        let hook = std::sync::Arc::new(FaultPlan::new(Some(5)).channel_fault(
            FaultSite::Push,
            "write_o",
            4,
            FaultAction::Corrupt { bit: 61 },
        ));
        let tracer = Tracer::new();
        let opts = ExecOptions {
            backend: Backend::Threaded,
            tracer: Some(&tracer),
            mode: ExecMode::Recover {
                policy: RetryPolicy {
                    max_attempts: 3,
                    ..RetryPolicy::default()
                },
                hook: Some(hook),
            },
        };
        let recovery = execute_plan::<f64>(&program, &planned, &cfg, &buffers, &opts)
            .expect("one corruption recovers within budget")
            .recovery;
        assert_eq!(recovery.retries, 1);

        let report = audit_tracer(&AuditSpec::new(1e8), &tracer);
        assert_eq!(report.recovery_retries, recovery.retries);
        assert_eq!(report.fault_events, 1);
    }

    #[test]
    fn unmeasured_prediction_gets_an_empty_row() {
        let spec = AuditSpec::new(1e8).predict(ModulePrediction::compute(
            "ghost",
            PipelineCost::pipelined(5, 100),
            100,
            4,
        ));
        let report = audit(&spec, &[]);
        let ghost = report.module("ghost").unwrap();
        assert_eq!(ghost.run_us, 0);
        // An unmeasured module resolves to full busy share; with a
        // predicted share of 1.0 the drift is zero, not a false flag.
        assert!(!ghost.flagged);
        assert!(report.bottleneck.is_none());
    }
}
