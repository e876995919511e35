//! The analysis passes.
//!
//! Every MDAG-level pass runs over a shared [`AnalysisCtx`] — the
//! graph, its per-module semantics, and the execution assumptions
//! (chunk size, scheduler budget, armed recovery guards, planner
//! channel deepenings):
//!
//! 1. **Rate analysis** — the SDF-style balance/schedulability check:
//!    per-edge element counts, then the abstract Kahn-network execution
//!    of [`fblas_core::composition::rates`] for a deadlock verdict and
//!    exact minimum channel depths (generalizing the paper's multitree
//!    heuristic, Sec. V).
//! 2. **Dataflow passes** ([`fblas_core::composition::dataflow`]) — dead/pass-through
//!    module elimination (FL0023/FL0024/FL0026), channel depth
//!    tightening under the chosen chunk size (FL0021/FL0022), and
//!    fusion legality (FL0019/FL0020/FL0025) with its serializable
//!    [`FusionPlan`] artifact.
//! 3. **Contract checks** — planner-level stream contracts (tile-order
//!    compatibility, replay-from-computational-producer, shapes) and
//!    codegen spec validation.
//! 4. **Resource feasibility** — composes the `fblas-arch` estimates
//!    over the plan and flags DSP/M20K/bandwidth overcommit per device.
//! 5. **Numeric lints** — W-way accumulation reassociation and
//!    mixed-precision hazards.

use fblas_arch::resources::m20ks_for_buffer;
use fblas_arch::{
    design_overhead, estimate_circuit, interface_module, CircuitClass, Device, FrequencyModel,
    Precision, Resources, RoutineClass,
};
use fblas_core::codegen::{generate, CodegenError, RoutineKind, SpecFile};
use fblas_core::composition::dataflow::{solve, FlowGraph, LiveSinks};
use fblas_core::composition::{
    analyze_fusion, infer_sems, plan, sems_for_component, ContractCause, FusionPlan, Mdag,
    ModuleSem, Op, Plan, PlanError, PlanNote, PlannedComponent, PlannerConfig, Program, RateGraph,
    RateOutcome, Validity, EXEC_WIDTH,
};
use fblas_hlssim::ModuleKind;

use crate::diag::{Diagnostic, LintCode, LintReport, Location, Severity};
use crate::input::{Document, GraphDoc, ProgramDoc};

/// A lint run's full result: the diagnostics plus the fusion-plan
/// artifacts the analysis derived (one per analyzable graph document,
/// one per planned program component).
#[derive(Debug)]
pub struct LintOutput {
    /// The diagnostics.
    pub report: LintReport,
    /// Fusion plans, in analysis order.
    pub fusion: Vec<FusionPlan>,
}

/// Lint one classified document; `file` is used for locations.
pub fn lint_document(doc: &Document, file: &str) -> LintReport {
    lint_document_full(doc, file).report
}

/// Lint one classified document and keep the fusion artifacts.
pub fn lint_document_full(doc: &Document, file: &str) -> LintOutput {
    match doc {
        Document::Spec(json) => LintOutput {
            report: lint_spec(json, file),
            fusion: Vec::new(),
        },
        Document::Program(p) => lint_program_doc(p, file),
        Document::Graph(g) => lint_graph_doc(g, file),
    }
}

fn at(file: &str, mut loc: Location) -> Location {
    loc.file = Some(file.to_string());
    loc
}

// ---------------------------------------------------------------------
// The shared analysis context and the MDAG-level passes.
// ---------------------------------------------------------------------

/// Everything the MDAG-level passes read. One context per graph (or
/// per planned component); the passes run in a fixed order and later
/// passes assume the invariants earlier ones established (fusion only
/// runs on balanced, acyclic, schedulable graphs).
pub struct AnalysisCtx<'a> {
    /// Source file, for locations.
    pub file: &'a str,
    /// Label the fusion plan records (programs append `#c<i>`).
    pub plan_label: String,
    /// The graph under analysis.
    pub mdag: &'a Mdag,
    /// Per-node semantics (index == node index).
    pub sems: Vec<ModuleSem>,
    /// Transport chunk size the depth-tightening pass assumes.
    pub chunk: u64,
    /// Abstract-scheduler step budget override.
    pub budget: Option<u64>,
    /// Whether retry/fault guards are armed (blocks fusion).
    pub recovery_armed: bool,
    /// Channels the planner already deepened (`name -> depth`),
    /// applied to the rate graph before the verdict.
    pub deep_channels: &'a [(String, u64)],
}

impl<'a> AnalysisCtx<'a> {
    /// Context for a standalone graph with inferred semantics and
    /// default execution assumptions.
    pub fn for_graph(mdag: &'a Mdag, file: &'a str) -> Self {
        AnalysisCtx {
            file,
            plan_label: file.to_string(),
            mdag,
            sems: infer_sems(mdag, 16),
            chunk: fblas_hlssim::default_chunk() as u64,
            budget: None,
            recovery_armed: false,
            deep_channels: &[],
        }
    }
}

/// Run every MDAG-level pass over `ctx`. Returns the fusion plan when
/// the graph is well-formed enough to have one (balanced, acyclic, and
/// schedulable).
pub fn analyze_mdag(ctx: &AnalysisCtx, r: &mut LintReport) -> Option<FusionPlan> {
    if !pass_balance(ctx, r) {
        return None;
    }
    pass_pass_through(ctx, r);
    pass_dead_modules(ctx, r);
    if !pass_cycle(ctx, r) {
        return None;
    }
    let rg = pass_rates(ctx, r)?;
    pass_depth_tightening(ctx, &rg, r);
    Some(pass_fusion(ctx, r))
}

/// Rate-analyze an MDAG: balance equations first, then the abstract
/// execution. Public so the differential harness and the planner lint
/// share one verdict path. (The dataflow passes — fusion, tightening,
/// dead modules — need semantics and run through [`analyze_mdag`].)
pub fn lint_mdag(g: &Mdag, file: &str, r: &mut LintReport) {
    let ctx = AnalysisCtx::for_graph(g, file);
    if !pass_balance(&ctx, r) {
        return;
    }
    if !pass_cycle(&ctx, r) {
        return;
    }
    pass_rates(&ctx, r);
}

/// Balance check: per-edge element counts must agree for any steady
/// schedule to exist (the SDF balance equations specialize to
/// produced == consumed on a point-to-point FIFO). Returns `false` on
/// any violation — the later passes assume balance.
fn pass_balance(ctx: &AnalysisCtx, r: &mut LintReport) -> bool {
    let g = ctx.mdag;
    let mut ok = true;
    for e in g.edges() {
        if e.produced != e.consumed {
            ok = false;
            let name = format!("{}->{}", g.node_name(e.from), g.node_name(e.to));
            r.push(
                Diagnostic::new(
                    LintCode::FL0001,
                    Severity::Error,
                    at(ctx.file, Location::channel(name)),
                    format!(
                        "stream count mismatch: producer emits {} elements, consumer expects {}",
                        e.produced, e.consumed
                    ),
                )
                .with_fixit("make producer and consumer agree on the element count".to_string()),
            );
        }
    }
    ok
}

/// Pass-through modules: a `scal` by α = 1 and a `copy` relaying one
/// stream to one consumer do nothing a channel would not.
fn pass_pass_through(ctx: &AnalysisCtx, r: &mut LintReport) {
    let g = ctx.mdag;
    let n = g.node_count();
    let mut ins = vec![0usize; n];
    let mut outs = vec![0usize; n];
    for e in g.edges() {
        outs[e.from.0] += 1;
        ins[e.to.0] += 1;
    }
    for (i, sem) in ctx.sems.iter().enumerate() {
        let name = g.node_name(fblas_core::composition::NodeId(i)).to_string();
        match sem {
            ModuleSem::Scal { alpha: Some(a) } if *a == 1.0 => {
                r.push(
                    Diagnostic::new(
                        LintCode::FL0023,
                        Severity::Warning,
                        at(ctx.file, Location::module(name.clone())),
                        format!("`{name}` scales by α = 1: a pass-through module"),
                    )
                    .with_fixit(format!(
                        "delete `{name}` and connect its producer to its consumer directly"
                    )),
                );
            }
            ModuleSem::Copy if ins[i] == 1 && outs[i] == 1 => {
                r.push(
                    Diagnostic::new(
                        LintCode::FL0024,
                        Severity::Warning,
                        at(ctx.file, Location::module(name.clone())),
                        format!("`{name}` copies one stream to a single consumer: a pass-through"),
                    )
                    .with_fixit(format!(
                        "delete `{name}` and connect its producer to its consumer directly"
                    )),
                );
            }
            _ => {}
        }
    }
}

/// Dead modules: backward liveness from the interface writes. A
/// compute module whose fixpoint fact is empty produces values nothing
/// ever observes. Skipped when the graph has no write sink at all
/// (then *everything* would be trivially dead — common in synthetic
/// rate-only fixtures).
fn pass_dead_modules(ctx: &AnalysisCtx, r: &mut LintReport) {
    let g = ctx.mdag;
    let n = g.node_count();
    let mut sink_index = vec![None; n];
    let mut sinks = 0usize;
    for (i, slot) in sink_index.iter_mut().enumerate() {
        if ctx.sems[i] == ModuleSem::Write {
            *slot = Some(sinks);
            sinks += 1;
        }
    }
    if sinks == 0 {
        return;
    }
    let fg = FlowGraph::from_mdag(g);
    let sol = solve(
        &fg,
        &LiveSinks {
            sink_index: &sink_index,
        },
    );
    if !sol.converged {
        return;
    }
    for i in 0..n {
        if g.node_kind(fblas_core::composition::NodeId(i)) != ModuleKind::Compute {
            continue;
        }
        if sol.facts_out[i].is_empty() {
            let name = g.node_name(fblas_core::composition::NodeId(i)).to_string();
            r.push(
                Diagnostic::new(
                    LintCode::FL0026,
                    Severity::Warning,
                    at(ctx.file, Location::module(name.clone())),
                    format!("`{name}` is dead: no interface write observes its results"),
                )
                .with_fixit(format!(
                    "remove `{name}` or route its output to a `write_*` sink"
                )),
            );
        }
    }
}

fn pass_cycle(ctx: &AnalysisCtx, r: &mut LintReport) -> bool {
    if ctx.mdag.validate() == Validity::Cyclic {
        r.push(Diagnostic::new(
            LintCode::FL0005,
            Severity::Error,
            at(ctx.file, Location::default()),
            "cyclic composition: a module's input depends on its own output",
        ));
        return false;
    }
    true
}

/// The abstract Kahn-network execution. Planner-deepened channels are
/// applied to the rate graph up front (the instantiated design runs at
/// those depths, so verdicts must too). Returns the analyzed graph on
/// completion, `None` otherwise.
fn pass_rates(ctx: &AnalysisCtx, r: &mut LintReport) -> Option<RateGraph> {
    let mut rg = RateGraph::from_mdag(ctx.mdag);
    for (name, depth) in ctx.deep_channels {
        for ch in 0..rg.channel_count() {
            if rg.channel_name(ch) == name && rg.capacity(ch) < *depth {
                rg.set_capacity(ch, *depth);
            }
        }
    }
    let outcome = match ctx.budget {
        Some(b) => {
            let caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
            rg.analyze_with_budget(&caps, b)
        }
        None => rg.analyze(),
    };
    match outcome {
        RateOutcome::Completed { .. } => {
            for im in rg.imbalances() {
                r.push(Diagnostic::new(
                    LintCode::FL0001,
                    Severity::Warning,
                    at(ctx.file, Location::channel(rg.channel_name(im.channel))),
                    format!(
                        "channel pushes {} elements but pops {}",
                        im.pushed, im.popped
                    ),
                ));
            }
            Some(rg)
        }
        RateOutcome::Deadlock { blocked } => {
            match rg.repair() {
                Some(fixes) => {
                    for (ch, depth) in &fixes {
                        let name = rg.channel_name(*ch).to_string();
                        r.push(
                            Diagnostic::new(
                                LintCode::FL0004,
                                Severity::Error,
                                at(ctx.file, Location::channel(name.clone())),
                                format!(
                                    "composition deadlocks at depth {}: the consumer buffers a \
                                     burst before draining",
                                    rg.capacity(*ch)
                                ),
                            )
                            .with_fixit(format!("increase the depth of `{name}` to {depth}")),
                        );
                        r.push(Diagnostic::new(
                            LintCode::FL0016,
                            Severity::Note,
                            at(ctx.file, Location::channel(name)),
                            format!("exact minimum depth: {depth} (depth {} stalls)", depth - 1),
                        ));
                    }
                }
                None => {
                    let who = blocked
                        .first()
                        .map(|b| rg.actor_name(b.actor).to_string())
                        .unwrap_or_default();
                    r.push(Diagnostic::new(
                        LintCode::FL0017,
                        Severity::Error,
                        at(ctx.file, Location::module(who)),
                        "composition deadlocks and no finite channel depth removes the deadlock",
                    ));
                }
            }
            None
        }
        RateOutcome::Disconnected { actor, channel, .. } => {
            r.push(Diagnostic::new(
                LintCode::FL0001,
                Severity::Error,
                at(
                    ctx.file,
                    Location {
                        module: Some(rg.actor_name(actor).to_string()),
                        channel: Some(rg.channel_name(channel).to_string()),
                        ..Default::default()
                    },
                ),
                "mid-stream disconnect: producer and consumer disagree on element counts",
            ));
            None
        }
        RateOutcome::Budget => {
            // Fail closed: a graph the analyzer cannot rule on must not
            // pass a gate that certifies schedulability.
            r.push(Diagnostic::new(
                LintCode::FL0017,
                Severity::Error,
                at(ctx.file, Location::default()),
                "rate analysis exceeded its step budget with no verdict; treat the \
                 composition as unschedulable or raise the budget",
            ));
            None
        }
    }
}

/// Channel liveness under the chunk size: which instantiated depths
/// are tight and which are provably slack. Only channels deeper than
/// one transport chunk matter — those are the ones spending M20K
/// blocks — and `trig:` bookkeeping channels are skipped.
fn pass_depth_tightening(ctx: &AnalysisCtx, rg: &RateGraph, r: &mut LintReport) {
    for ch in 0..rg.channel_count() {
        let name = rg.channel_name(ch).to_string();
        if name.starts_with("trig:") {
            continue;
        }
        let cap = rg.capacity(ch);
        if cap <= ctx.chunk {
            continue;
        }
        let min = match rg.min_depth(ch) {
            Some(m) => m,
            None => continue,
        };
        // A FIFO shallower than one chunk re-introduces per-element
        // handshakes, so the recommendation floors at the chunk size.
        let rec = min.max(ctx.chunk);
        if rec < cap {
            r.push(
                Diagnostic::new(
                    LintCode::FL0021,
                    Severity::Warning,
                    at(ctx.file, Location::channel(name.clone())),
                    format!(
                        "channel depth {cap} is slack: {min} suffices for completion \
                         (chunk size {})",
                        ctx.chunk
                    ),
                )
                .with_fixit(format!("shrink `{name}` to depth {rec}")),
            );
        } else {
            r.push(Diagnostic::new(
                LintCode::FL0022,
                Severity::Note,
                at(ctx.file, Location::channel(name.clone())),
                format!(
                    "channel depth {cap} is tight: the exact minimum under chunk size {} \
                     (no M20K to reclaim)",
                    ctx.chunk
                ),
            ));
        }
    }
}

/// Fusion legality: regions become FL0019 notes, rejections become
/// FL0020 (or FL0025 for reassociation) notes with their witnesses.
fn pass_fusion(ctx: &AnalysisCtx, r: &mut LintReport) -> FusionPlan {
    let plan = analyze_fusion(ctx.mdag, &ctx.sems, &ctx.plan_label, ctx.recovery_armed);
    for region in &plan.regions {
        let first = region.modules.first().cloned().unwrap_or_default();
        r.push(
            Diagnostic::new(
                LintCode::FL0019,
                Severity::Note,
                at(ctx.file, Location::module(first)),
                format!(
                    "region `{}` is fusable: {} collapse into one loop over {} elements",
                    region.name,
                    region.modules.join(" -> "),
                    region.elements
                ),
            )
            .with_fixit(format!(
                "the fused backend may emit a single module for `{}`; export the \
                 machine-checkable plan with --fusion-plan",
                region.name
            )),
        );
    }
    for rej in &plan.rejections {
        let code = if rej.reason == "reassociation" {
            LintCode::FL0025
        } else {
            LintCode::FL0020
        };
        let loc = match (&rej.witness_module, &rej.witness_channel) {
            (Some(m), _) => Location::module(m.clone()),
            (None, Some(c)) => Location::channel(c.clone()),
            (None, None) => Location::default(),
        };
        let witness = match (&rej.witness_channel, &rej.witness_module) {
            (Some(c), _) => format!(" (witness channel `{c}`)"),
            (None, Some(m)) => format!(" (witness `{m}`)"),
            (None, None) => String::new(),
        };
        let msg = if rej.reason == "reassociation" {
            format!(
                "`{}` reduces with a W-way adder tree at a width other than the executor's \
                 W = {EXEC_WIDTH}: fusing across it would change the floating-point \
                 association{witness}",
                rej.modules.join(", ")
            )
        } else {
            format!(
                "chain `{}` is not fusable: {}{witness}",
                rej.modules.join(" -> "),
                rej.reason
            )
        };
        r.push(Diagnostic::new(
            code,
            Severity::Note,
            at(ctx.file, loc),
            msg,
        ));
    }
    plan
}

// ---------------------------------------------------------------------
// Graph documents.
// ---------------------------------------------------------------------

fn lint_graph_doc(doc: &GraphDoc, file: &str) -> LintOutput {
    let mut r = LintReport::new();
    let g = match doc.to_mdag() {
        Ok(g) => g,
        Err(e) => {
            r.push(Diagnostic::new(
                LintCode::FL0010,
                Severity::Error,
                at(file, Location::default()),
                e,
            ));
            return LintOutput {
                report: r,
                fusion: Vec::new(),
            };
        }
    };
    let width = doc.config.width.unwrap_or(16);
    let ctx = AnalysisCtx {
        sems: infer_sems(&g, width),
        chunk: doc
            .config
            .chunk
            .unwrap_or(fblas_hlssim::default_chunk() as u64),
        budget: doc.config.budget,
        ..AnalysisCtx::for_graph(&g, file)
    };
    let fusion = analyze_mdag(&ctx, &mut r);
    LintOutput {
        report: r,
        fusion: fusion.into_iter().collect(),
    }
}

// ---------------------------------------------------------------------
// Program documents: contract pass + MDAG passes + resources +
// numerics.
// ---------------------------------------------------------------------

fn lint_program_doc(doc: &ProgramDoc, file: &str) -> LintOutput {
    let mut r = LintReport::new();
    let mut fusion = Vec::new();
    let program = match doc.to_program() {
        Ok(p) => p,
        Err(e) => {
            r.push(Diagnostic::new(
                LintCode::FL0010,
                Severity::Error,
                at(file, Location::default()),
                e,
            ));
            return LintOutput { report: r, fusion };
        }
    };
    let cfg = doc.config.planner_config();
    let recovery_armed = doc.config.retry_max.unwrap_or(1) > 1;

    // Retry-soundness scan (FL0018), on the raw ops and *before*
    // planning: an in-place op may already make the plan invalid, and
    // the unsound-replay warning is useful either way.
    if recovery_armed {
        for (i, op) in doc.ops.iter().enumerate() {
            let out = match &op.out {
                Some(o) => o,
                None => continue,
            };
            let reads_out = [&op.a, &op.x, &op.y]
                .into_iter()
                .flatten()
                .any(|inp| inp == out);
            if reads_out {
                r.push(
                    Diagnostic::new(
                        LintCode::FL0018,
                        Severity::Warning,
                        at(
                            file,
                            Location {
                                operand: Some(out.clone()),
                                op_index: Some(i),
                                ..Default::default()
                            },
                        ),
                        format!(
                            "`{}` writes `{out}` in place while also reading it; with \
                             retry_max > 1 a replayed attempt would consume the partially \
                             updated value, not the original input",
                            op.op
                        ),
                    )
                    .with_fixit(format!(
                        "stage the result through a scratch operand (e.g. `{out}_next`) and \
                         copy it back after the component commits, so every retry re-reads \
                         the untouched `{out}`"
                    )),
                );
            }
        }
    }

    // Pass-through ops at the program level (the planner would build a
    // module for them): scal by 1, and a copy whose output feeds
    // exactly one later op. These fire alongside plan errors.
    for (i, od) in doc.ops.iter().enumerate() {
        if od.op == "scal" && od.alpha.unwrap_or(1.0) == 1.0 {
            r.push(
                Diagnostic::new(
                    LintCode::FL0023,
                    Severity::Warning,
                    at(
                        file,
                        Location {
                            op_index: Some(i),
                            ..Default::default()
                        },
                    ),
                    format!("op #{i}: scal by α = 1 is a pass-through"),
                )
                .with_fixit("drop the op or fold α into the consuming op".to_string()),
            );
        }
        if od.op == "copy" {
            if let Some(out) = &od.out {
                let consumers = doc
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(j, other)| {
                        *j != i
                            && [&other.a, &other.x, &other.y]
                                .into_iter()
                                .flatten()
                                .any(|inp| inp == out)
                    })
                    .count();
                if consumers == 1 {
                    r.push(
                        Diagnostic::new(
                            LintCode::FL0024,
                            Severity::Warning,
                            at(
                                file,
                                Location {
                                    operand: Some(out.clone()),
                                    op_index: Some(i),
                                    ..Default::default()
                                },
                            ),
                            format!(
                                "op #{i}: copy into `{out}` feeds a single consumer — a \
                                 pass-through"
                            ),
                        )
                        .with_fixit(format!(
                            "use `{}` directly in the consuming op and drop the copy",
                            od.x.as_deref().unwrap_or("the source")
                        )),
                    );
                }
            }
        }
    }

    let plan = match plan(&program, &cfg) {
        Ok(plan) => plan,
        Err(e) => {
            r.push(plan_error_diag(&e, file));
            return LintOutput { report: r, fusion };
        }
    };

    // Surface the planner's structured notes as lints.
    for note in &plan.notes {
        match note {
            PlanNote::Split { before_op, cause } => {
                let (code, loc) = cause_code(cause);
                r.push(
                    Diagnostic::new(
                        code,
                        Severity::Note,
                        at(file, loc),
                        format!("op #{before_op} starts a new component: {cause}"),
                    )
                    .with_fixit(
                        "the planner split the program into sequential components \
                         communicating through DRAM (the paper's fix (b))"
                            .to_string(),
                    ),
                );
            }
            PlanNote::DeepChannel {
                component,
                channel,
                depth,
            } => {
                r.push(Diagnostic::new(
                    LintCode::FL0016,
                    Severity::Note,
                    at(file, Location::channel(channel.clone())),
                    format!(
                        "component {} requires channel `{channel}` at depth {depth} \
                         (the paper's fix (a))",
                        component + 1
                    ),
                ));
            }
            // The lint-side fusion pass re-derives these regions with
            // full obligations and witnesses (FL0019); the planner note
            // exists for plan consumers that do not run the linter.
            PlanNote::FusableChain { .. } => {}
        }
    }

    // MDAG-level passes over every planned component, at its
    // instantiated depths and with exact op semantics.
    let width = doc.config.vector_width();
    let chunk = doc
        .config
        .chunk
        .unwrap_or(fblas_hlssim::default_chunk() as u64);
    for (ci, c) in plan.components.iter().enumerate() {
        let ctx = AnalysisCtx {
            file,
            plan_label: format!("{file}#c{ci}"),
            mdag: &c.mdag,
            sems: sems_for_component(&c.mdag, program.ops(), width),
            chunk,
            budget: None,
            recovery_armed,
            deep_channels: &c.deep_channels,
        };
        let mut sub = LintReport::new();
        if let Some(p) = analyze_mdag(&ctx, &mut sub) {
            fusion.push(p);
        }
        for mut d in sub.diagnostics {
            d.message = format!("component {}: {}", ci + 1, d.message);
            r.push(d);
        }
    }

    lint_plan_resources(&program, &plan, doc, file, &mut r);
    lint_program_numerics(&program, doc, file, &mut r);
    LintOutput { report: r, fusion }
}

fn plan_error_diag(e: &PlanError, file: &str) -> Diagnostic {
    match e {
        PlanError::UnknownOperand(n) => Diagnostic::new(
            LintCode::FL0006,
            Severity::Error,
            at(file, Location::operand(n.clone())),
            format!("unknown operand `{n}`"),
        )
        .with_fixit(format!("declare `{n}` as a vector, matrix, or scalar")),
        PlanError::ShapeMismatch { operand, expected } => Diagnostic::new(
            LintCode::FL0007,
            Severity::Error,
            at(file, Location::operand(operand.clone())),
            format!("operand `{operand}`: expected {expected}"),
        )
        .with_fixit(format!("resize `{operand}` to {expected}")),
        PlanError::MultipleWriters(n) => Diagnostic::new(
            LintCode::FL0008,
            Severity::Error,
            at(file, Location::operand(n.clone())),
            format!("operand `{n}` is written more than once"),
        )
        .with_fixit("use a fresh operand name per result (static single assignment)".to_string()),
        PlanError::Cyclic => Diagnostic::new(
            LintCode::FL0005,
            Severity::Error,
            at(file, Location::default()),
            "cyclic data dependencies",
        ),
        PlanError::Contract(cause) => {
            let (code, loc) = cause_code(cause);
            Diagnostic::new(
                code,
                Severity::Error,
                at(file, loc),
                format!("stream contract violation: {cause}"),
            )
        }
        PlanError::InvalidConfig(reason) => Diagnostic::new(
            LintCode::FL0010,
            Severity::Error,
            at(file, Location::default()),
            format!("invalid planner config: {reason}"),
        ),
    }
}

/// Map a structured contract cause to its lint code and location.
fn cause_code(cause: &ContractCause) -> (LintCode, Location) {
    match cause {
        ContractCause::ReplayFromComputationalProducer { operand, op_index } => (
            LintCode::FL0003,
            Location {
                operand: Some(operand.clone()),
                op_index: Some(*op_index),
                ..Default::default()
            },
        ),
        ContractCause::OnChipMatrixColStreamed { matrix, op_index } => (
            LintCode::FL0002,
            Location {
                operand: Some(matrix.clone()),
                op_index: Some(*op_index),
                ..Default::default()
            },
        ),
        ContractCause::TilingOrderConflict { matrix, op_indices } => (
            LintCode::FL0002,
            Location {
                operand: Some(matrix.clone()),
                op_index: op_indices.first().copied(),
                ..Default::default()
            },
        ),
        ContractCause::InvalidEdge { reason } => {
            (LintCode::FL0001, Location::channel(reason.clone()))
        }
        ContractCause::NeedsChannelDepth { channel, .. } => {
            (LintCode::FL0004, Location::channel(channel.clone()))
        }
        ContractCause::Unschedulable { .. } => (LintCode::FL0017, Location::default()),
    }
}

// ---------------------------------------------------------------------
// Resource feasibility over a plan.
// ---------------------------------------------------------------------

fn op_circuit(op: &Op, w: u64) -> CircuitClass {
    match op {
        Op::Copy { .. } | Op::Scal { .. } => CircuitClass::Map { w, ops_per_lane: 1 },
        Op::Axpy { .. } => CircuitClass::MapFused {
            w,
            macs_per_lane: 1,
        },
        Op::Dot { .. } | Op::Gemv { .. } => CircuitClass::MapReduce { w },
        Op::Ger { .. } => CircuitClass::MapFused {
            w,
            macs_per_lane: 1,
        },
    }
}

/// Resources one component demands: its computational circuits, tile
/// buffers, one interface module per DRAM stream, deep-FIFO block RAM,
/// and the fixed design overhead.
fn component_resources(
    program: &Program,
    c: &PlannedComponent,
    cfg: &PlannerConfig,
    device: Device,
    precision: Precision,
    w: u64,
) -> Resources {
    let mut total = design_overhead(device, device.model().hyperflex);
    for &oi in &c.ops {
        let op = &program.ops()[oi];
        let mut est = estimate_circuit(op_circuit(op, w), precision);
        // Level-2 ops buffer a tile of the vector operand on chip.
        if matches!(op, Op::Gemv { .. } | Op::Ger { .. }) {
            est = est.with_buffer(cfg.tn as u64, precision);
        }
        total += est.resources;
    }
    // One interface module per DRAM-facing stream (read_*/write_* nodes).
    let interfaces = c
        .mdag
        .node_ids()
        .filter(|&n| {
            let name = c.mdag.node_name(n);
            name.starts_with("read_") || name.starts_with("write_")
        })
        .count() as u64;
    total += interface_module(precision, w).scaled(interfaces.max(1));
    // Deep FIFOs are spent out of M20K blocks.
    for (_, depth) in &c.deep_channels {
        total.m20ks += m20ks_for_buffer(*depth, precision.elem_bytes());
    }
    total
}

fn lint_plan_resources(
    program: &Program,
    plan: &Plan,
    doc: &ProgramDoc,
    file: &str,
    r: &mut LintReport,
) {
    let device = match doc.config.target_device() {
        Ok(d) => d,
        Err(e) => {
            r.push(Diagnostic::new(
                LintCode::FL0010,
                Severity::Error,
                at(file, Location::default()),
                e,
            ));
            return;
        }
    };
    let precision = match doc.config.target_precision() {
        Ok(p) => p,
        Err(e) => {
            r.push(Diagnostic::new(
                LintCode::FL0010,
                Severity::Error,
                at(file, Location::default()),
                e,
            ));
            return;
        }
    };
    let w = doc.config.vector_width() as u64;
    let cfg = doc.config.planner_config();
    let model = device.model();

    for (ci, c) in plan.components.iter().enumerate() {
        let demand = component_resources(program, c, &cfg, device, precision, w);
        let label = format!("component {} on {}", ci + 1, device.short_name());
        if demand.dsps > model.available.dsps {
            r.push(
                Diagnostic::new(
                    LintCode::FL0011,
                    Severity::Error,
                    at(file, Location::default()),
                    format!(
                        "{label}: DSP overcommit ({} needed, {} available)",
                        demand.dsps, model.available.dsps
                    ),
                )
                .with_fixit("reduce the vectorization width W".to_string()),
            );
        }
        if demand.m20ks > model.available.m20ks {
            r.push(
                Diagnostic::new(
                    LintCode::FL0012,
                    Severity::Error,
                    at(file, Location::default()),
                    format!(
                        "{label}: M20K overcommit ({} needed, {} available)",
                        demand.m20ks, model.available.m20ks
                    ),
                )
                .with_fixit(
                    "shrink tile sizes or split the component instead of deepening channels"
                        .to_string(),
                ),
            );
        }
        // Bandwidth: every interface stream moves W elements per cycle
        // at the achievable clock; concurrent streams share the DRAM
        // banks (paper Sec. VI-B).
        let streams = c
            .mdag
            .node_ids()
            .filter(|&n| {
                let name = c.mdag.node_name(n);
                name.starts_with("read_") || name.starts_with("write_")
            })
            .count() as f64;
        let f = FrequencyModel::new(device).base_hz(RoutineClass::Streaming);
        let demand_bw = streams * w as f64 * precision.elem_bytes() as f64 * f;
        let avail_bw = model.total_dram_bandwidth();
        if demand_bw > avail_bw {
            r.push(
                Diagnostic::new(
                    LintCode::FL0013,
                    Severity::Warning,
                    at(file, Location::default()),
                    format!(
                        "{label}: {} concurrent DRAM streams demand {:.1} GB/s of {:.1} GB/s \
                         available; interface modules will stall",
                        streams as u64,
                        demand_bw / 1e9,
                        avail_bw / 1e9
                    ),
                )
                .with_fixit("lower W or stream fewer operands per component".to_string()),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Numeric lints on programs.
// ---------------------------------------------------------------------

fn lint_program_numerics(program: &Program, doc: &ProgramDoc, file: &str, r: &mut LintReport) {
    let w = doc.config.vector_width();
    let precision = match doc.config.target_precision() {
        Ok(p) => p,
        Err(_) => return, // already reported by the resource pass
    };
    if w > 1 {
        for (i, op) in program.ops().iter().enumerate() {
            if matches!(op, Op::Dot { .. } | Op::Gemv { .. }) {
                r.push(Diagnostic::new(
                    LintCode::FL0014,
                    Severity::Note,
                    at(
                        file,
                        Location {
                            op_index: Some(i),
                            ..Default::default()
                        },
                    ),
                    format!(
                        "op #{i} reduces with a {w}-way adder tree: results differ from \
                         sequential accumulation (floating-point reassociation)"
                    ),
                ));
            }
        }
    }
    if !precision.native_accumulation() {
        r.push(Diagnostic::new(
            LintCode::FL0015,
            Severity::Warning,
            at(file, Location::default()),
            "double precision has no native DSP accumulation on the modeled devices; \
             reductions use the two-stage interleaved accumulator (extra latency and M20K)",
        ));
    }
}

// ---------------------------------------------------------------------
// Spec documents: codegen validation + numeric lints.
// ---------------------------------------------------------------------

fn lint_spec(json: &str, file: &str) -> LintReport {
    let mut r = LintReport::new();
    let spec = match SpecFile::from_json(json) {
        Ok(s) => s,
        Err(e) => {
            r.push(Diagnostic::new(
                LintCode::FL0010,
                Severity::Error,
                at(file, Location::default()),
                format!("specification JSON error: {e}"),
            ));
            return r;
        }
    };
    for rs in &spec.routines {
        let loc = at(file, Location::operand(rs.kernel_name().to_string()));
        match generate(rs) {
            Err(CodegenError::UnknownRoutine(n)) => {
                r.push(
                    Diagnostic::new(
                        LintCode::FL0009,
                        Severity::Error,
                        loc,
                        format!("unknown routine `{n}`"),
                    )
                    .with_fixit(
                        "blas_name is an s/d prefix plus one of the 22 FBLAS routines".to_string(),
                    ),
                );
            }
            Err(e) => {
                r.push(Diagnostic::new(
                    LintCode::FL0010,
                    Severity::Error,
                    loc,
                    e.to_string(),
                ));
            }
            Ok(kernel) => {
                let reduces = matches!(
                    kernel.kind,
                    RoutineKind::Dot
                        | RoutineKind::Sdsdot
                        | RoutineKind::Nrm2
                        | RoutineKind::Asum
                        | RoutineKind::Gemv
                        | RoutineKind::Gemm
                        | RoutineKind::Syrk
                        | RoutineKind::Syr2k
                );
                if reduces && kernel.width > 1 {
                    r.push(Diagnostic::new(
                        LintCode::FL0014,
                        Severity::Note,
                        loc.clone(),
                        format!(
                            "`{}` at W={} reassociates its reduction; bitwise equality with \
                             a sequential reference is not guaranteed",
                            kernel.name, kernel.width
                        ),
                    ));
                }
                if kernel.kind == RoutineKind::Sdsdot {
                    r.push(Diagnostic::new(
                        LintCode::FL0015,
                        Severity::Note,
                        loc.clone(),
                        "sdsdot accumulates single-precision inputs in double precision \
                         (mixed-precision by specification)",
                    ));
                }
                if kernel.precision == Precision::Double && reduces {
                    r.push(Diagnostic::new(
                        LintCode::FL0015,
                        Severity::Warning,
                        loc,
                        format!(
                            "`{}` accumulates in double precision without native DSP support; \
                             the two-stage interleaved accumulator adds latency",
                            kernel.name
                        ),
                    ));
                }
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::classify;

    fn lint_str(json: &str) -> LintReport {
        lint_str_full(json).report
    }

    fn lint_str_full(json: &str) -> LintOutput {
        let doc = classify(json).unwrap();
        lint_document_full(&doc, "test.json")
    }

    #[test]
    fn clean_axpydot_program_is_accepted() {
        let r = lint_str(
            r#"{"program": {
                "operands": [
                    {"name":"w","kind":"vector","len":64},
                    {"name":"v","kind":"vector","len":64},
                    {"name":"u","kind":"vector","len":64},
                    {"name":"z","kind":"vector","len":64},
                    {"name":"beta","kind":"scalar"}
                ],
                "ops": [
                    {"op":"axpy","alpha":-1.0,"x":"v","y":"w","out":"z"},
                    {"op":"dot","x":"z","y":"u","out":"beta"}
                ],
                "config": {"tn":16,"tm":16}
            }}"#,
        );
        assert!(r.accepted(), "{}", r.render_table());
        // The W-way reduction note fires for the DOT.
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::FL0014));
        // At the executor's W = 16 the fusion pass closes the axpy
        // region with the block-replayed DOT (FL0019), so nothing
        // reports reassociation.
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::FL0019 && d.message.contains("dot#1")));
        assert!(!r.diagnostics.iter().any(|d| d.code == LintCode::FL0025));
        // Declared at another width, the DOT would reassociate: fusion
        // still stops at it (FL0025).
        let r8 = lint_str(
            r#"{"program": {
                "operands": [
                    {"name":"w","kind":"vector","len":64},
                    {"name":"v","kind":"vector","len":64},
                    {"name":"u","kind":"vector","len":64},
                    {"name":"z","kind":"vector","len":64},
                    {"name":"beta","kind":"scalar"}
                ],
                "ops": [
                    {"op":"axpy","alpha":-1.0,"x":"v","y":"w","out":"z"},
                    {"op":"dot","x":"z","y":"u","out":"beta"}
                ],
                "config": {"tn":16,"tm":16,"width":8}
            }}"#,
        );
        assert!(r8.accepted(), "{}", r8.render_table());
        assert!(r8.diagnostics.iter().any(|d| d.code == LintCode::FL0025));
    }

    #[test]
    fn shape_mismatch_is_fl0007() {
        let r = lint_str(
            r#"{"program": {
                "operands": [
                    {"name":"x","kind":"vector","len":8},
                    {"name":"y","kind":"vector","len":9},
                    {"name":"d","kind":"scalar"}
                ],
                "ops": [{"op":"dot","x":"x","y":"y","out":"d"}]
            }}"#,
        );
        assert!(!r.accepted());
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::FL0007));
    }

    #[test]
    fn undersized_graph_channel_gets_exact_fixit() {
        let r = lint_str(
            r#"{"graph": {
                "nodes": [
                    {"name":"src","kind":"interface"},
                    {"name":"relay","kind":"compute"},
                    {"name":"join","kind":"compute"}
                ],
                "edges": [
                    {"from":"src","to":"join","produced":96,"consumed":96,"depth":8,"burst":40},
                    {"from":"src","to":"relay","produced":96,"consumed":96,"depth":16},
                    {"from":"relay","to":"join","produced":96,"consumed":96,"depth":16}
                ]
            }}"#,
        );
        assert!(!r.accepted());
        let under = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::FL0004)
            .expect("under-depth finding");
        assert!(under.fixit.as_deref().unwrap().contains("40"));
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::FL0016));
    }

    #[test]
    fn count_mismatch_graph_is_fl0001() {
        let r = lint_str(
            r#"{"graph": {
                "nodes": [
                    {"name":"a","kind":"interface"},
                    {"name":"b","kind":"compute"}
                ],
                "edges": [{"from":"a","to":"b","produced":10,"consumed":8,"depth":4}]
            }}"#,
        );
        assert!(!r.accepted());
        assert_eq!(r.diagnostics[0].code, LintCode::FL0001);
    }

    #[test]
    fn unknown_routine_spec_is_fl0009() {
        let r = lint_str(r#"{"routines": [{"blas_name": "sfrobnicate"}]}"#);
        assert!(!r.accepted());
        assert_eq!(r.diagnostics[0].code, LintCode::FL0009);
    }

    #[test]
    fn inplace_update_with_retries_warns_fl0018() {
        let doc = r#"{"program": {
            "operands": [
                {"name":"x","kind":"vector","len":64},
                {"name":"y","kind":"vector","len":64}
            ],
            "ops": [{"op":"axpy","alpha":2.0,"x":"x","y":"y","out":"y"}],
            "config": {"tn":8,"tm":8,"retry_max":3}
        }}"#;
        let r = lint_str(doc);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::FL0018)
            .expect("FL0018 finding");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.location.operand.as_deref(), Some("y"));
        assert!(d.fixit.as_deref().unwrap().contains("scratch"));

        // Without a retry budget the in-place update is not a replay
        // hazard: no FL0018 (the plan still fails for its own reasons).
        let no_retry = doc.replace(r#","retry_max":3"#, "");
        let r = lint_str(&no_retry);
        assert!(r.diagnostics.iter().all(|d| d.code != LintCode::FL0018));
    }

    #[test]
    fn double_reduction_spec_warns_mixed_precision() {
        let r = lint_str(r#"{"routines": [{"blas_name": "ddot", "width": 8}]}"#);
        assert!(r.accepted());
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::FL0014));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::FL0015 && d.severity == Severity::Warning));
    }

    #[test]
    fn relay_chain_graph_gets_fl0019_and_a_plan() {
        let out = lint_str_full(
            r#"{"graph": {
                "nodes": [
                    {"name":"read_x","kind":"interface"},
                    {"name":"read_y","kind":"interface"},
                    {"name":"scal","kind":"compute"},
                    {"name":"axpy","kind":"compute"},
                    {"name":"write_z","kind":"interface"}
                ],
                "edges": [
                    {"from":"read_x","to":"scal","produced":256,"consumed":256,"depth":16},
                    {"from":"scal","to":"axpy","produced":256,"consumed":256,"depth":16},
                    {"from":"read_y","to":"axpy","produced":256,"consumed":256,"depth":16},
                    {"from":"axpy","to":"write_z","produced":256,"consumed":256,"depth":16}
                ]
            }}"#,
        );
        assert!(out.report.accepted(), "{}", out.report.render_table());
        assert_eq!(out.report.warnings(), 0, "{}", out.report.render_table());
        assert!(out
            .report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::FL0019));
        assert_eq!(out.fusion.len(), 1);
        assert_eq!(out.fusion[0].stats.fused, 1);
    }

    #[test]
    fn slack_channel_depth_warns_fl0021() {
        // Depth 4096 with chunk 8: the rate analysis proves a tiny
        // depth suffices, so the channel is provably over-provisioned.
        let r = lint_str(
            r#"{"graph": {
                "nodes": [
                    {"name":"read_x","kind":"interface"},
                    {"name":"relay","kind":"compute"},
                    {"name":"write_y","kind":"interface"}
                ],
                "edges": [
                    {"from":"read_x","to":"relay","produced":64,"consumed":64,"depth":4096},
                    {"from":"relay","to":"write_y","produced":64,"consumed":64,"depth":16}
                ],
                "config": {"chunk": 8}
            }}"#,
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::FL0021)
            .expect("FL0021 finding");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.fixit.as_deref().unwrap().contains("shrink"));
    }

    #[test]
    fn dead_branch_module_warns_fl0026() {
        let r = lint_str(
            r#"{"graph": {
                "nodes": [
                    {"name":"read_x","kind":"interface"},
                    {"name":"scal","kind":"compute"},
                    {"name":"copy_dead","kind":"compute"},
                    {"name":"write_y","kind":"interface"}
                ],
                "edges": [
                    {"from":"read_x","to":"scal","produced":8,"consumed":8,"depth":4},
                    {"from":"scal","to":"write_y","produced":8,"consumed":8,"depth":4},
                    {"from":"scal","to":"copy_dead","produced":8,"consumed":8,"depth":4}
                ]
            }}"#,
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::FL0026)
            .expect("FL0026 finding");
        assert_eq!(d.location.module.as_deref(), Some("copy_dead"));
    }

    #[test]
    fn program_pass_throughs_warn_fl0023_fl0024() {
        let r = lint_str(
            r#"{"program": {
                "operands": [
                    {"name":"x","kind":"vector","len":64},
                    {"name":"t","kind":"vector","len":64},
                    {"name":"y","kind":"vector","len":64}
                ],
                "ops": [
                    {"op":"copy","x":"x","out":"t"},
                    {"op":"scal","alpha":1.0,"x":"t","out":"y"}
                ],
                "config": {"tn":16,"tm":16}
            }}"#,
        );
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::FL0023));
        assert!(r.diagnostics.iter().any(|d| d.code == LintCode::FL0024));
    }

    #[test]
    fn budget_exhaustion_is_an_error() {
        // A budget of 1 step cannot finish any graph: fail closed.
        let r = lint_str(
            r#"{"graph": {
                "nodes": [
                    {"name":"read_x","kind":"interface"},
                    {"name":"write_y","kind":"interface"}
                ],
                "edges": [
                    {"from":"read_x","to":"write_y","produced":64,"consumed":64,"depth":16}
                ],
                "config": {"budget": 1}
            }}"#,
        );
        assert!(!r.accepted());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::FL0017 && d.severity == Severity::Error));
    }

    #[test]
    fn recovery_armed_program_rejects_fusion_with_guards() {
        // A fusable scal→axpy chain under retry_max > 1: the region is
        // rejected with a recovery-guards witness instead of fused.
        let out = lint_str_full(
            r#"{"program": {
                "operands": [
                    {"name":"x","kind":"vector","len":64},
                    {"name":"y","kind":"vector","len":64},
                    {"name":"t","kind":"vector","len":64},
                    {"name":"z","kind":"vector","len":64}
                ],
                "ops": [
                    {"op":"scal","alpha":2.0,"x":"x","out":"t"},
                    {"op":"axpy","alpha":3.0,"x":"t","y":"y","out":"z"}
                ],
                "config": {"tn":16,"tm":16,"retry_max":3}
            }}"#,
        );
        let plan = out.fusion.first().expect("component fusion plan");
        assert_eq!(plan.stats.fused, 0);
        assert!(plan
            .rejections
            .iter()
            .any(|rej| rej.reason == "recovery-guards"));
        // Without retries the same chain fuses.
        let out2 = lint_str_full(
            r#"{"program": {
                "operands": [
                    {"name":"x","kind":"vector","len":64},
                    {"name":"y","kind":"vector","len":64},
                    {"name":"t","kind":"vector","len":64},
                    {"name":"z","kind":"vector","len":64}
                ],
                "ops": [
                    {"op":"scal","alpha":2.0,"x":"x","out":"t"},
                    {"op":"axpy","alpha":3.0,"x":"t","y":"y","out":"z"}
                ],
                "config": {"tn":16,"tm":16}
            }}"#,
        );
        let plan2 = out2.fusion.first().expect("component fusion plan");
        assert_eq!(plan2.stats.fused, 1, "{}", plan2.to_json());
    }
}
