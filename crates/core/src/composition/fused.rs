//! The fused compiled execution backend.
//!
//! Transport, not compute, dominates the threaded simulator's wall
//! clock, and the fusion analysis ([`super::fusion`]) proves which
//! module chains of a planned component may legally collapse. This
//! module closes the loop: every component runs as one list of
//! **execution units**, in order, on either backend. A unit is one of
//! three kinds:
//!
//! - a `tile-replay` region over the whole component of GEMV/GER
//!   tiles: the ops run in component order, each through its routine's
//!   `replay` — the threaded module's own kernel, fed from the buffers
//!   in the module's stream order, with every `x` replay and `y` round
//!   in place;
//! - a compiled fused region, run as a straight-line single-threaded
//!   loop over the operand buffers (no channels, no locks, no thread
//!   spawns);
//! - a batch of ops run together on one threaded hlssim simulation,
//!   exactly as the threaded backend would run them.
//!
//! The threaded backend runs one threaded unit over the whole
//! component. Units hand off through the operand
//! [`DeviceBuffer`](crate::host::DeviceBuffer)s, which is exactly the
//! boundary the threaded executor already uses: every op output is teed
//! to its buffer, and a consumer whose producer is absent from the
//! simulation reads the buffer back. Splitting therefore changes
//! *where* values travel, not *what* they are.
//!
//! Safety posture: the fused backend re-verifies every region's proof
//! obligations with [`check_obligations`] when it first executes a
//! component (the unit list is kept with the component, in its
//! `AnalysisMemo`) and degrades to one threaded unit whenever
//! anything — obligations, evaluator compilation, an unexpected module
//! name — does not check out. An armed fault hook rejects all regions
//! (`recovery-guards`), so chaos/recovery runs under injection are
//! *identical* to the threaded backend by construction. Value bit-identity of the fused
//! loop itself is by shared semantics: the loop
//! ([`FusedEvaluator::execute`]) applies the per-element function
//! ([`super::fusion::apply_elementwise_t`]) that performs exactly the
//! multiply / fused-multiply-add the production `scal` / `axpy`
//! modules perform, and a region closed by a DOT feeds its lanes to
//! the same [`DotAccumulator`](crate::routines::DotAccumulator) the
//! threaded `Dot` module reduces through — the same `W`-lane blocks,
//! adder tree and running accumulator — and stores the scalar where
//! the module would. Region inputs are read in place, under one read
//! guard per buffer.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fblas_hlssim::SimError;
use fblas_trace::{ModuleScope, Tracer};
use parking_lot::RwLockReadGuard;

use super::executor::{
    exec_gemv, exec_ger, run_component, BufRouter, ComponentOptions, ComponentRun, ExecError,
};
use super::fusion::{
    analyze_fusion, build_evaluator, check_obligations, sems_for_component, FusedEvaluator,
    FusedRegion, FusionPlan, ModuleSem, TileSem, EXEC_WIDTH,
};
use super::planner::{Op, PlannedComponent, PlannerConfig, Program};
use crate::scalar::Scalar;

/// Which execution path a plan runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Every module on the threaded hlssim simulator (the PR-1 path).
    Threaded,
    /// Fuse legally fusable regions into single-loop kernels; fall back
    /// to threaded for everything else. The default: bit-identical to
    /// `Threaded` by the differential keystone, so there is no reason
    /// not to.
    Fused,
}

impl Backend {
    /// Resolve the backend from the `FBLAS_BACKEND` environment knob
    /// (re-read every call; `fused` when unset or invalid).
    pub fn resolve() -> Backend {
        match fblas_hlssim::env::backend() {
            "threaded" => Backend::Threaded,
            _ => Backend::Fused,
        }
    }

    /// Stable lowercase name (metric labels, trace metadata).
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Threaded => "threaded",
            Backend::Fused => "fused",
        }
    }

    /// Whether this backend may run fused regions.
    pub fn fused_allowed(self) -> bool {
        !matches!(self, Backend::Threaded)
    }
}

/// The fusion analysis of one planned component, exactly as the fused
/// backend consumes it: semantics from the component's op list (so
/// coefficients are concrete) and the legality verdict over its MDAG.
/// `recovery_armed` must be true when a fault hook is armed over the
/// run — every region is then rejected with a `recovery-guards`
/// witness and execution stays fully threaded.
///
/// GEMV and GER nodes carry their [`TileSem`]: the modules the executor
/// instantiates at the component's planned tiling, and whether they are
/// the program's only GEMV/GER op.
pub fn fusion_plan_for_component(
    program: &Program,
    component: &PlannedComponent,
    recovery_armed: bool,
) -> (Vec<ModuleSem>, FusionPlan) {
    fusion_plan_at(program, &component.config, component, recovery_armed)
}

/// [`fusion_plan_for_component`] with the tiles instantiated under
/// `cfg` — what the executor runs.
fn fusion_plan_at(
    program: &Program,
    cfg: &PlannerConfig,
    component: &PlannedComponent,
    recovery_armed: bool,
) -> (Vec<ModuleSem>, FusionPlan) {
    let g = &component.mdag;
    let alone = level2_alone(program);
    let mut sems = sems_for_component(g, program.ops(), EXEC_WIDTH);
    for id in g.node_ids() {
        let Some(oi) = node_op_index(g.node_name(id)) else {
            continue;
        };
        let tile = match program.ops().get(oi) {
            Some(Op::Gemv { a, .. }) => component
                .gemv_variants
                .get(&oi)
                .and_then(|v| exec_gemv(program, cfg, a, *v).ok())
                .map(TileSem::Gemv),
            Some(Op::Ger { a, .. }) => exec_ger(program, cfg, a).ok().map(TileSem::Ger),
            _ => None,
        };
        if let Some(tile) = tile {
            sems[id.0] = ModuleSem::Tile { tile, alone };
        }
    }
    let plan = analyze_fusion(g, &sems, "exec", recovery_armed);
    (sems, plan)
}

/// Whether `program` holds at most one GEMV/GER op: the program-level
/// fact the `singleton` rule reads beside a tile's own span.
fn level2_alone(program: &Program) -> bool {
    let level2 = |op: &&Op| matches!(op, Op::Gemv { .. } | Op::Ger { .. });
    program.ops().iter().filter(level2).count() <= 1
}

/// One execution unit of a component: the part of its work that
/// depends on the component and the configuration only, never on the
/// operands' data.
enum Unit {
    /// Replay every tile of the component through its verified
    /// `tile-replay` region.
    Tiles(FusedRegion),
    /// Run a compiled fused region.
    Fused(CompiledRegion),
    /// Run these program op indices together on one threaded
    /// simulation.
    Threaded(Vec<usize>),
}

/// A fused region compiled against the component, with every name
/// already resolved to operand buffers.
struct CompiledRegion {
    /// Region name (`fuse0`, …) for the trace lane.
    name: String,
    /// The straight-line per-element program.
    eval: FusedEvaluator,
    /// Operand name backing each evaluator input stream, in order.
    input_operands: Vec<String>,
    /// Operand name each absorbed write sink drains into, in order.
    sink_operands: Vec<String>,
    /// Scalar the closing DOT stores its result under, if the region
    /// ends in one.
    scalar: Option<String>,
    /// Program op indices fused into this region.
    ops: Vec<usize>,
    /// Program op indices the region's boundary inputs depend on.
    deps: Vec<usize>,
}

/// Operand a channel-producer node resolves to: `read_<v>` sources and
/// `<op>#<oi>` compute nodes both tee/stream their operand's buffer.
fn node_operand(program: &Program, node: &str) -> Option<String> {
    if let Some(v) = node.strip_prefix("read_") {
        return Some(v.to_string());
    }
    let (_, idx) = node.rsplit_once('#')?;
    let oi: usize = idx.parse().ok()?;
    Some(program.ops().get(oi)?.output().to_string())
}

/// Program op index a module name carries (`scal#3` → 3).
fn node_op_index(node: &str) -> Option<usize> {
    node.rsplit_once('#').and_then(|(_, idx)| idx.parse().ok())
}

/// Compile the component's fusion plan into units. `None` means "run
/// the whole component threaded" — the safe fallback for anything this
/// backend does not fully understand.
fn compile_schedule(
    program: &Program,
    cfg: &PlannerConfig,
    component: &PlannedComponent,
    sems: &[ModuleSem],
    plan: &FusionPlan,
) -> Option<Vec<Unit>> {
    if plan.regions.is_empty() {
        return None;
    }
    let comp_ops: HashSet<usize> = component.ops.iter().copied().collect();
    let mut producer: HashMap<&str, usize> = HashMap::new();
    for &oi in &component.ops {
        producer.insert(program.ops()[oi].output(), oi);
    }

    // A region's slot empties once it is scheduled.
    let mut regions: Vec<Option<CompiledRegion>> = Vec::new();
    let mut region_of_op: HashMap<usize, usize> = HashMap::new();
    for (ri, region) in plan.regions.iter().enumerate() {
        let eval = build_evaluator(&component.mdag, sems, region).ok()?;
        // Fused op set: the relay compute members.
        let mut ops = Vec::new();
        for m in &region.modules {
            if let Some(oi) = node_op_index(m) {
                if !comp_ops.contains(&oi) || region_of_op.contains_key(&oi) {
                    return None;
                }
                region_of_op.insert(oi, ri);
                ops.push(oi);
            }
        }
        if ops.is_empty() {
            return None;
        }
        // Every input stream and sink must resolve to a bound vector
        // operand of the program.
        let mut input_operands = Vec::new();
        let mut deps = Vec::new();
        for key in &eval.inputs {
            let node = key.split_once("->").map(|(f, _)| f).unwrap_or(key);
            let operand = node_operand(program, node)?;
            program.vec_len(&operand).ok()?;
            if let Some(oi) = node_op_index(node) {
                deps.push(oi);
            }
            input_operands.push(operand);
        }
        let mut sink_operands = Vec::new();
        for s in &eval.sinks {
            let operand = s.module.strip_prefix("write_")?.to_string();
            program.vec_len(&operand).ok()?;
            sink_operands.push(operand);
        }
        // The closing reduction must be the program's DOT at the
        // threaded module's width; its result is that op's scalar.
        let scalar = match &eval.reduce {
            None => None,
            Some(r) => match program.ops().get(node_op_index(&r.module)?)? {
                Op::Dot { out, .. } if r.width == EXEC_WIDTH => Some(out.clone()),
                _ => return None,
            },
        };
        // A boundary output's values must survive through a sink tee
        // (the planner always tees op outputs to `write_*`); without
        // one the forwarded stream would be lost.
        if let Some(out) = eval.output {
            if !eval.sinks.iter().any(|s| s.src == out) {
                return None;
            }
        }
        regions.push(Some(CompiledRegion {
            name: region.name.clone(),
            eval,
            input_operands,
            sink_operands,
            scalar,
            ops,
            deps,
        }));
    }

    // A multi-round GEMV replays its y initial from DRAM; the threaded
    // executor rejects an in-component producer for it (a replay
    // contract violation). Splitting must not mask that error by
    // pulling the producer into a fused region, so bail out.
    for &oi in &component.ops {
        if let Op::Gemv { a, y: Some(yn), .. } = &program.ops()[oi] {
            if let Some(variant) = component.gemv_variants.get(&oi) {
                let g = exec_gemv(program, cfg, a, *variant).ok()?;
                if g.y_rounds() > 1 {
                    if let Some(p) = producer.get(yn.as_str()) {
                        if region_of_op.contains_key(p) {
                            return None;
                        }
                    }
                }
            }
        }
    }

    // In-component dependencies of each threaded op.
    let threaded: Vec<usize> = component
        .ops
        .iter()
        .copied()
        .filter(|oi| !region_of_op.contains_key(oi))
        .collect();
    let op_deps = |oi: usize| -> Vec<usize> {
        program.ops()[oi]
            .inputs()
            .iter()
            .filter_map(|inp| producer.get(*inp).copied())
            .filter(|p| *p != oi)
            .collect()
    };

    // Alternating fixpoint: a maximal closed batch of ready threaded
    // ops (they stream to each other through channels, exactly as the
    // unsplit component would), then every ready region, until done.
    let mut done: HashSet<usize> = HashSet::new();
    let mut pending: Vec<usize> = threaded;
    let mut units = Vec::new();
    loop {
        let mut batch: Vec<usize> = Vec::new();
        let mut grew = true;
        while grew {
            grew = false;
            for &oi in &pending {
                if batch.contains(&oi) {
                    continue;
                }
                let ready = op_deps(oi)
                    .iter()
                    .all(|d| done.contains(d) || batch.contains(d));
                if ready {
                    batch.push(oi);
                    grew = true;
                }
            }
        }
        let batched = !batch.is_empty();
        if batched {
            // Preserve the component's op order inside the batch.
            batch.sort_by_key(|oi| component.ops.iter().position(|c| c == oi));
            done.extend(batch.iter().copied());
            pending.retain(|oi| !batch.contains(oi));
            units.push(Unit::Threaded(batch));
        }
        let mut launched = false;
        for slot in &mut regions {
            if let Some(region) = slot.take_if(|r| r.deps.iter().all(|d| done.contains(d))) {
                done.extend(region.ops.iter().copied());
                units.push(Unit::Fused(region));
                launched = true;
            }
        }
        if pending.is_empty() && regions.iter().all(Option::is_none) {
            break;
        }
        if !batched && !launched {
            // No progress — a dependency shape this scheduler does not
            // model. Run the whole component threaded.
            return None;
        }
    }
    Some(units)
}

/// Read guards over operand buffers, held in place of copies: one per
/// distinct operand, since a second guard on the same lock may block
/// behind a queued writer. Drop them before writing any buffer.
struct Reads<'r, T> {
    guards: Vec<(&'r str, RwLockReadGuard<'r, Vec<T>>)>,
}

impl<'r, T: Scalar> Reads<'r, T> {
    fn new(
        router: &'r BufRouter<'_, T>,
        operands: impl IntoIterator<Item = &'r str>,
    ) -> Result<Self, ExecError> {
        let mut guards: Vec<(&str, RwLockReadGuard<'r, Vec<T>>)> = Vec::new();
        for name in operands {
            if !guards.iter().any(|(n, _)| *n == name) {
                guards.push((name, router.input(name)?.read()));
            }
        }
        Ok(Reads { guards })
    }

    /// The contents of `operand` (empty if it was not read).
    fn get(&self, operand: &str) -> &[T] {
        self.guards
            .iter()
            .find(|(n, _)| *n == operand)
            .map_or(&[], |(_, g)| g.as_slice())
    }
}

/// Times one executed region into the fused-backend metric series
/// (a no-op unless metrics are armed).
struct RegionTimer(Option<(Arc<fblas_metrics::Registry>, Instant)>);

impl RegionTimer {
    fn start() -> Self {
        RegionTimer(fblas_metrics::registry().map(|reg| (reg, Instant::now())))
    }

    fn done(self, elements: u64) {
        if let Some((reg, t0)) = self.0 {
            reg.counter("fblas_fused_regions_total", &[]).inc();
            reg.counter("fblas_fused_elems_total", &[]).add(elements);
            reg.histogram("fblas_fused_region_us", &[])
                .record(fblas_metrics::elapsed_us(t0));
        }
    }
}

/// Execute a `tile-replay` region: every op of the component, in
/// component order, on the calling thread through
/// [`Gemv::replay`](crate::routines::Gemv::replay) and
/// [`Ger::replay`](crate::routines::Ger::replay) — the threaded
/// modules' own kernels fed from the operand buffers. An op reads its
/// producers' results from the buffers they were written to (the
/// staged overlay under recovery), exactly as fused units hand off.
fn replay_tiles<T: Scalar>(
    program: &Program,
    cfg: &PlannerConfig,
    component: &PlannedComponent,
    region: &FusedRegion,
    router: &BufRouter<'_, T>,
    tracer: Option<&Tracer>,
) -> Result<(), ExecError> {
    let lane = format!("fused:{}", region.name);
    let _span = ModuleScope::enter(&lane, tracer);
    let timer = RegionTimer::start();
    let replayed = |e: SimError| ExecError::from(SimError::module(&lane, e.to_string()));
    for &oi in &component.ops {
        match &program.ops()[oi] {
            Op::Gemv {
                alpha,
                beta,
                a,
                x,
                y,
                out,
                ..
            } => {
                let variant = component.gemv_variants[&oi];
                let g = exec_gemv(program, cfg, a, variant)?;
                // Effective beta: 0 when no y operand is given, as in
                // the threaded executor.
                let (mut yv, beta) = match y {
                    Some(yn) => (router.input(yn)?.to_host(), T::from_f64(*beta)),
                    None => (vec![T::ZERO; g.y_len()], T::ZERO),
                };
                {
                    let reads = Reads::new(router, [a.as_str(), x.as_str()])?;
                    g.replay(
                        T::from_f64(*alpha),
                        beta,
                        reads.get(a),
                        reads.get(x),
                        &mut yv,
                    )
                    .map_err(replayed)?;
                }
                router.output(out)?.from_host(&yv);
            }
            Op::Ger {
                alpha,
                a,
                x,
                y,
                out,
                ..
            } => {
                let g = exec_ger(program, cfg, a)?;
                let mut updated = vec![T::ZERO; g.n * g.m];
                {
                    let reads = Reads::new(router, [a.as_str(), x.as_str(), y.as_str()])?;
                    g.replay(
                        T::from_f64(*alpha),
                        reads.get(a),
                        reads.get(x),
                        reads.get(y),
                        &mut updated,
                    )
                    .map_err(replayed)?;
                }
                router.output(out)?.from_host(&updated);
            }
            other => {
                let detail = format!("`{}` is not a tile", other.output());
                return Err(SimError::module(&lane, detail).into());
            }
        }
    }
    timer.done(region.elements);
    Ok(())
}

/// Execute one compiled region as a straight-line loop over the
/// operand buffers: gather input streams, run the evaluator's loop,
/// write the absorbed sinks back and store a closing DOT's scalar
/// under its op's output name. The boundary output (if any) needs
/// no action — its values are the tail relay's, which the absorbed
/// `write_*` tee already persists, and the downstream unit reads them
/// from that buffer.
fn run_region<T: Scalar>(
    region: &CompiledRegion,
    router: &BufRouter<'_, T>,
    scalars: &mut HashMap<String, T>,
    tracer: Option<&Tracer>,
) -> Result<(), ExecError> {
    let _span = ModuleScope::enter(&format!("fused:{}", region.name), tracer);
    let timer = RegionTimer::start();

    let elements = region.eval.elements as usize;
    let values = {
        let reads = Reads::new(router, region.input_operands.iter().map(String::as_str))?;
        let mut ins: Vec<&[T]> = Vec::with_capacity(region.input_operands.len());
        for operand in &region.input_operands {
            let data = reads.get(operand);
            if data.len() < elements {
                return Err(ExecError::WrongLength {
                    operand: operand.clone(),
                    expected: elements,
                    got: data.len(),
                });
            }
            ins.push(data);
        }
        region
            .eval
            .execute(&ins)
            .map_err(|e| SimError::module(format!("fused:{}", region.name), e))?
    };

    for (vals, operand) in values.sinks.iter().zip(&region.sink_operands) {
        router.output(operand)?.from_host(vals);
    }
    if let (Some(name), Some(v)) = (&region.scalar, values.reduced) {
        scalars.insert(name.clone(), v);
    }

    timer.done(elements as u64);
    Ok(())
}

#[cfg(test)]
thread_local! {
    /// Analyses the fused backend has run on this thread, by kind: the
    /// fusion analysis and its obligation check. Tests read it to see
    /// the memo work.
    pub(super) static ANALYSES: std::cell::Cell<[u32; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Counts one analysis of `kind` (an index into [`ANALYSES`]); a no-op
/// outside tests.
fn count_analysis(_kind: usize) {
    #[cfg(test)]
    ANALYSES.with(|c| {
        let mut n = c.get();
        n[_kind] += 1;
        c.set(n);
    });
}

/// What an analysis was computed from: the component's `Op` values
/// (coefficients included), the shapes of their operands, the
/// configuration the executor instantiates the tiles under, and
/// whether the program holds other GEMV/GER ops (the `singleton` rule
/// reads it).
#[derive(Clone, PartialEq)]
struct AnalysisKey {
    cfg: PlannerConfig,
    ops: Vec<Op>,
    /// Per operand of each op: its length if a vector, its dims if a
    /// matrix.
    shapes: Vec<OperandShape>,
    /// [`level2_alone`] of the program.
    alone: bool,
}

type OperandShape = (Option<usize>, Option<(usize, usize)>);

impl AnalysisKey {
    fn of(program: &Program, cfg: &PlannerConfig, component: &PlannedComponent) -> Self {
        let ops: Vec<Op> = component
            .ops
            .iter()
            .map(|&oi| program.ops()[oi].clone())
            .collect();
        let shapes = ops
            .iter()
            .flat_map(Op::operands)
            .map(|name| (program.vec_len(name).ok(), program.mat_dims(name).ok()))
            .collect();
        AnalysisKey {
            cfg: *cfg,
            ops,
            shapes,
            alone: level2_alone(program),
        }
    }
}

/// A planned component's units, kept with the component after its
/// first execution without a fault hook, so a plan executed again —
/// the server shares one per distinct program — is analysed once. It
/// answers only a program whose [`AnalysisKey`] matches; any other is
/// analysed afresh, and an armed run never reads or fills it.
#[derive(Default)]
pub(crate) struct AnalysisMemo(OnceLock<(AnalysisKey, Vec<Unit>)>);

impl AnalysisMemo {
    /// Whether an execution has filled the memo.
    pub(crate) fn is_filled(&self) -> bool {
        self.0.get().is_some()
    }
}

impl std::fmt::Debug for AnalysisMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisMemo")
            .field("filled", &self.is_filled())
            .finish()
    }
}

/// Analyse `component` for the fused backend into its units: the
/// fusion analysis, the re-verification of every region's obligations
/// (the executor's own check, never one handed over from lint) and the
/// unit schedule. Under an armed hook every region is rejected.
fn analyse(
    program: &Program,
    cfg: &PlannerConfig,
    component: &PlannedComponent,
    recovery_armed: bool,
) -> Vec<Unit> {
    count_analysis(0);
    let (sems, plan) = fusion_plan_at(program, cfg, component, recovery_armed);
    let verified = !plan.regions.is_empty() && {
        count_analysis(1);
        check_obligations(&plan, &component.mdag, &sems, recovery_armed).is_empty()
    };
    if verified {
        let tiles = plan
            .regions
            .iter()
            .find(|r| r.obligations.iter().any(|o| o.kind == "tile-replay"));
        if let Some(region) = tiles {
            return vec![Unit::Tiles(region.clone())];
        }
        if let Some(units) = compile_schedule(program, cfg, component, &sems, &plan) {
            return units;
        }
    }
    vec![Unit::Threaded(component.ops.clone())]
}

/// The units `component` runs as on `backend`. The threaded backend
/// runs one threaded unit over the whole component, with no analysis.
/// The fused backend takes them from the component's memo, filling it
/// on first use, or analyses them afresh (into `fresh`) when the memo
/// answers another program or a hook is armed.
fn units<'c>(
    program: &Program,
    cfg: &PlannerConfig,
    component: &'c PlannedComponent,
    backend: Backend,
    armed: bool,
    fresh: &'c mut Option<Vec<Unit>>,
) -> &'c [Unit] {
    if !backend.fused_allowed() {
        return fresh.insert(vec![Unit::Threaded(component.ops.clone())]);
    }
    if armed {
        return fresh.insert(analyse(program, cfg, component, true));
    }
    let memo = &component.analysis.0;
    let key = AnalysisKey::of(program, cfg, component);
    if memo.get().is_none() {
        // Concurrent first executions may each analyse; one fills.
        let _ = memo.set((key.clone(), analyse(program, cfg, component, false)));
    }
    match memo.get() {
        Some((k, units)) if *k == key => units,
        _ => fresh.insert(analyse(program, cfg, component, false)),
    }
}

/// Run one component as its [`units`], in order: replayed tiles, fused
/// regions, and threaded batches.
pub(super) fn run_component_fused<T: Scalar>(
    program: &Program,
    cfg: &PlannerConfig,
    component: &PlannedComponent,
    backend: Backend,
    router: &BufRouter<'_, T>,
    tracer: Option<&Tracer>,
    opts: &ComponentOptions,
) -> Result<ComponentRun<T>, ExecError> {
    let armed = opts.hook.is_some();
    let mut fresh = None;
    let mut run = ComponentRun::default();
    for unit in units(program, cfg, component, backend, armed, &mut fresh) {
        match unit {
            Unit::Tiles(region) => replay_tiles(program, cfg, component, region, router, tracer)?,
            Unit::Fused(region) => run_region(region, router, &mut run.scalars, tracer)?,
            Unit::Threaded(ops) => {
                let variants = &component.gemv_variants;
                let sim = run_component(program, cfg, ops, variants, router, tracer, opts)?;
                run.scalars.extend(sim.scalars);
                run.guards.extend(sim.guards);
            }
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::{execute_plan, plan, ExecOptions, Op, Plan, PlannerConfig, Program};
    use crate::host::buffer::DeviceBuffer;
    use crate::routines::GemvVariant;

    /// `b = 1.5·x; c = -0.75·b + y; d = c` — a three-relay chain, the
    /// canonical fusable shape.
    fn chain_program(n: usize) -> Program {
        let mut p = Program::new();
        p.vector("x", n)
            .vector("y", n)
            .vector("b", n)
            .vector("c", n)
            .vector("d", n);
        p.op(Op::Scal {
            alpha: 1.5,
            x: "x".into(),
            out: "b".into(),
        });
        p.op(Op::Axpy {
            alpha: -0.75,
            x: "b".into(),
            y: "y".into(),
            out: "c".into(),
        });
        p.op(Op::Copy {
            x: "c".into(),
            out: "d".into(),
        });
        p
    }

    fn bind(n: usize) -> HashMap<String, DeviceBuffer<f32>> {
        let mut bufs = HashMap::new();
        for (i, name) in ["x", "y", "b", "c", "d"].iter().enumerate() {
            let data: Vec<f32> = (0..n)
                .map(|j| ((j as f32 + i as f32 * 13.0) * 0.173).sin())
                .collect();
            bufs.insert(name.to_string(), DeviceBuffer::from_vec(*name, data, i % 4));
        }
        bufs
    }

    fn planned(p: &Program, cfg: &PlannerConfig) -> Plan {
        plan(p, cfg).unwrap()
    }

    /// The compiled regions among `units`, in order.
    fn fused_regions(units: &[Unit]) -> Vec<&CompiledRegion> {
        units
            .iter()
            .filter_map(|u| match u {
                Unit::Fused(region) => Some(region),
                _ => None,
            })
            .collect()
    }

    /// Each unit's kind.
    fn kinds(units: &[Unit]) -> Vec<&'static str> {
        units
            .iter()
            .map(|u| match u {
                Unit::Tiles(_) => "tiles",
                Unit::Fused(_) => "fused",
                Unit::Threaded(_) => "threaded",
            })
            .collect()
    }

    /// Run `p` once under `thep` on the fused backend, with every
    /// operand bound to a constant, and return its one component's
    /// memoised units.
    fn memoised<'p>(p: &Program, thep: &'p Plan, cfg: &PlannerConfig) -> &'p [Unit] {
        let bufs: HashMap<String, DeviceBuffer<f64>> = p
            .ops()
            .iter()
            .flat_map(Op::operands)
            .map(|name| {
                let len = p
                    .vec_len(name)
                    .or_else(|_| p.mat_dims(name).map(|(n, m)| n * m))
                    .unwrap();
                (
                    name.to_string(),
                    DeviceBuffer::from_vec(name, vec![0.5; len], 0),
                )
            })
            .collect();
        let opts = ExecOptions {
            backend: Backend::Fused,
            ..ExecOptions::default()
        };
        execute_plan::<f64>(p, thep, cfg, &bufs, &opts).unwrap();
        assert_eq!(thep.components.len(), 1);
        &thep.components[0].analysis.0.get().expect("memo filled").1
    }

    #[test]
    fn each_component_runs_as_its_memoised_units() {
        // BICG: both GEMVs over one shared A replay as one tile unit.
        let (n, m) = (40, 24);
        let mut bicg = Program::new();
        bicg.matrix("A", n, m);
        for (v, len) in [("p", m), ("r", n), ("q", n), ("s", m)] {
            bicg.vector(v, len);
        }
        for (transposed, x, out) in [(false, "p", "q"), (true, "r", "s")] {
            bicg.op(Op::Gemv {
                alpha: 1.0,
                beta: 0.0,
                a: "A".into(),
                transposed,
                x: x.into(),
                y: None,
                out: out.into(),
            });
        }
        let cfg = PlannerConfig {
            tn: 16,
            tm: 8,
            ..PlannerConfig::default()
        };
        let thep = planned(&bicg, &cfg);
        assert_eq!(kinds(memoised(&bicg, &thep, &cfg)), ["tiles"]);

        // AXPYDOT: one fused region closed by its DOT.
        let p = axpydot_program(100);
        let cfg = PlannerConfig::default();
        let thep = planned(&p, &cfg);
        assert_eq!(kinds(memoised(&p, &thep, &cfg)), ["fused"]);

        // A program that is one GEMV spanning one tile stays threaded.
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
            tn: n,
            tm: m,
            ..PlannerConfig::default()
        };
        let thep = planned(&p, &cfg);
        assert_eq!(kinds(memoised(&p, &thep, &cfg)), ["threaded"]);

        // With a hook armed, or on the threaded backend, the same
        // program runs as one threaded unit, and neither reads nor
        // fills the memo.
        let thep = planned(&p, &cfg);
        let comp = &thep.components[0];
        for (backend, armed) in [(Backend::Fused, true), (Backend::Threaded, false)] {
            let mut fresh = None;
            let units = units(&p, &cfg, comp, backend, armed, &mut fresh);
            assert_eq!(kinds(units), ["threaded"], "{backend:?}, armed {armed}");
            assert!(matches!(&units[0], Unit::Threaded(ops) if *ops == comp.ops));
            assert!(!comp.analysis.is_filled());
        }
    }

    #[test]
    fn relay_chain_fuses_into_one_region_and_schedules() {
        let p = chain_program(64);
        let cfg = PlannerConfig::default();
        let thep = planned(&p, &cfg);
        assert_eq!(thep.components.len(), 1);
        let comp = &thep.components[0];
        let (sems, fplan) = fusion_plan_for_component(&p, comp, false);
        assert_eq!(fplan.regions.len(), 1, "{:?}", fplan.rejections);
        assert!(check_obligations(&fplan, &comp.mdag, &sems, false).is_empty());
        let units = compile_schedule(&p, &cfg, comp, &sems, &fplan).expect("schedulable");
        let regions = fused_regions(&units);
        assert_eq!(regions.len(), 1);
        // All three relay ops live in the region; nothing runs threaded.
        assert_eq!(regions[0].ops.len(), 3);
        assert!(!units.iter().any(|u| matches!(u, Unit::Threaded(_))));
        // Every intermediate is drained to its buffer by an absorbed tee.
        let mut sinks = regions[0].sink_operands.clone();
        sinks.sort();
        assert_eq!(sinks, vec!["b", "c", "d"]);
    }

    #[test]
    fn recovery_armed_rejects_all_regions() {
        let p = chain_program(32);
        let cfg = PlannerConfig::default();
        let thep = planned(&p, &cfg);
        let (_, fplan) = fusion_plan_for_component(&p, &thep.components[0], true);
        assert!(fplan.regions.is_empty());
    }

    #[test]
    fn fused_backend_is_bit_identical_to_threaded_on_the_chain() {
        let n = 257; // not a multiple of any chunk size
        let p = chain_program(n);
        let cfg = PlannerConfig::default();
        let thep = planned(&p, &cfg);

        let bufs_t = bind(n);
        let bufs_f = bind(n);
        for (bufs, backend) in [(&bufs_t, Backend::Threaded), (&bufs_f, Backend::Fused)] {
            let opts = ExecOptions {
                backend,
                ..ExecOptions::default()
            };
            execute_plan::<f32>(&p, &thep, &cfg, bufs, &opts).unwrap();
        }
        for name in ["b", "c", "d"] {
            let t = bufs_t[name].to_host();
            let f = bufs_f[name].to_host();
            assert_eq!(t.len(), f.len());
            for i in 0..t.len() {
                assert_eq!(
                    t[i].to_bits(),
                    f[i].to_bits(),
                    "operand {name}[{i}]: threaded {} vs fused {}",
                    t[i],
                    f[i]
                );
            }
        }
    }

    /// `z = -0.75·v + w; beta = z·u` — AXPYDOT.
    fn axpydot_program(n: usize) -> Program {
        let mut p = Program::new();
        p.vector("w", n)
            .vector("v", n)
            .vector("u", n)
            .vector("z", n)
            .scalar("beta");
        p.op(Op::Axpy {
            alpha: -0.75,
            x: "v".into(),
            y: "w".into(),
            out: "z".into(),
        });
        p.op(Op::Dot {
            x: "z".into(),
            y: "u".into(),
            out: "beta".into(),
        });
        p
    }

    #[test]
    fn axpydot_fuses_into_one_region_closed_by_the_dot() {
        let p = axpydot_program(100);
        let cfg = PlannerConfig::default();
        let thep = planned(&p, &cfg);
        assert_eq!(thep.components.len(), 1);
        let comp = &thep.components[0];
        let (sems, fplan) = fusion_plan_for_component(&p, comp, false);
        assert_eq!(fplan.regions.len(), 1, "{:?}", fplan.rejections);
        let units = compile_schedule(&p, &cfg, comp, &sems, &fplan).expect("schedulable");
        assert_eq!(units.len(), 1);
        let region = fused_regions(&units)[0];
        assert_eq!(region.ops, vec![0, 1]);
        assert_eq!(region.sink_operands, vec!["z"]);
        assert_eq!(region.scalar.as_deref(), Some("beta"));
    }

    fn axpydot_bits<T: Scalar>(backend: Backend, n: usize) -> (Vec<T>, T) {
        let p = axpydot_program(n);
        let cfg = PlannerConfig::default();
        let thep = planned(&p, &cfg);
        let bufs: HashMap<String, DeviceBuffer<T>> = ["w", "v", "u", "z"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let data: Vec<T> = (0..n)
                    .map(|j| T::from_f64(((j as f64 + i as f64 * 13.0) * 0.173).sin()))
                    .collect();
                (name.to_string(), DeviceBuffer::from_vec(*name, data, i))
            })
            .collect();
        let opts = ExecOptions {
            backend,
            ..ExecOptions::default()
        };
        let out = execute_plan::<T>(&p, &thep, &cfg, &bufs, &opts).unwrap();
        (bufs["z"].to_host(), out.scalars["beta"])
    }

    #[test]
    fn fused_dot_is_bit_identical_to_threaded_in_both_precisions() {
        // 1000 = 62 full 16-lane blocks and a partial one; f64 rotates
        // the interleaved accumulator's partials.
        let n = 1000;
        let (zt, bt) = axpydot_bits::<f32>(Backend::Threaded, n);
        let (zf, bf) = axpydot_bits::<f32>(Backend::Fused, n);
        assert_eq!(bt.to_bits(), bf.to_bits(), "f32 beta {bt} vs {bf}");
        assert!(zt.iter().zip(&zf).all(|(a, b)| a.to_bits() == b.to_bits()));
        let (zt, bt) = axpydot_bits::<f64>(Backend::Threaded, n);
        let (zf, bf) = axpydot_bits::<f64>(Backend::Fused, n);
        assert_eq!(bt.to_bits(), bf.to_bits(), "f64 beta {bt} vs {bf}");
        assert!(zt.iter().zip(&zf).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// `q = A·p`, `s = Bᵀ·r + 0.5·y` over a 40×24 `A` and a 24×40 `B`
    /// in 16×16 tiles: ragged tiles, and two `y` rounds for the
    /// transposed GEMV. With
    /// `y_from_q` the transposed GEMV's `y` is `q` instead — an
    /// in-component producer feeding a multi-round `y`.
    fn two_gemv_program(y_from_q: bool) -> (Program, PlannerConfig) {
        let (n, m) = (40, 24);
        let mut p = Program::new();
        p.matrix("A", n, m).matrix("B", m, n);
        for (v, len) in [("p", m), ("r", m), ("q", n), ("s", n), ("y", n)] {
            p.vector(v, len);
        }
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
            beta: 0.5,
            a: "B".into(),
            transposed: true,
            x: "r".into(),
            y: Some(if y_from_q { "q" } else { "y" }.into()),
            out: "s".into(),
        });
        let cfg = PlannerConfig {
            tn: 16,
            tm: 16,
            ..PlannerConfig::default()
        };
        (p, cfg)
    }

    fn tile_replay_errors(errs: &[String]) -> Vec<&String> {
        errs.iter()
            .filter(|e| e.contains("obligation `tile-replay`"))
            .collect()
    }

    #[test]
    fn tile_replay_region_admits_a_multi_round_y_from_dram() {
        let (p, cfg) = two_gemv_program(false);
        let planned = planned(&p, &cfg);
        assert_eq!(planned.components.len(), 1);
        let comp = &planned.components[0];
        let (sems, fplan) = fusion_plan_for_component(&p, comp, false);
        assert_eq!(fplan.regions.len(), 1, "{}", fplan.to_json());
        let kinds: Vec<&str> = fplan.regions[0]
            .obligations
            .iter()
            .map(|o| o.kind.as_str())
            .collect();
        assert_eq!(kinds, ["tile-replay", "no-recovery-hooks"]);
        assert!(check_obligations(&fplan, &comp.mdag, &sems, false).is_empty());
        assert!(sems.iter().any(
            |s| matches!(s, ModuleSem::Tile { tile: TileSem::Gemv(g), .. } if g.y_rounds() == 2)
        ));
        // An armed hook rejects it.
        let (_, armed) = fusion_plan_for_component(&p, comp, true);
        assert!(armed.regions.is_empty());
        assert_eq!(armed.rejections[0].reason, "recovery-guards");
    }

    #[test]
    fn check_obligations_rejects_a_tile_of_the_wrong_variant() {
        let (p, cfg) = two_gemv_program(false);
        let planned = planned(&p, &cfg);
        let comp = &planned.components[0];
        let (mut sems, fplan) = fusion_plan_for_component(&p, comp, false);
        for s in &mut sems {
            if let ModuleSem::Tile {
                tile: TileSem::Gemv(g),
                ..
            } = s
            {
                if g.variant == GemvVariant::RowStreamed {
                    g.variant = GemvVariant::ColStreamed;
                }
            }
        }
        let errs = check_obligations(&fplan, &comp.mdag, &sems, false);
        let tile = tile_replay_errors(&errs);
        assert!(
            tile.iter()
                .any(|e| e.contains("ColStreamed") && e.contains("RowStreamed")),
            "{errs:?}"
        );
    }

    #[test]
    fn check_obligations_rejects_a_tile_of_the_wrong_width() {
        let (p, cfg) = two_gemv_program(false);
        let planned = planned(&p, &cfg);
        let comp = &planned.components[0];
        let (mut sems, fplan) = fusion_plan_for_component(&p, comp, false);
        for s in &mut sems {
            if let ModuleSem::Tile {
                tile: TileSem::Gemv(g),
                ..
            } = s
            {
                g.w = EXEC_WIDTH / 2;
            }
        }
        let errs = check_obligations(&fplan, &comp.mdag, &sems, false);
        assert!(
            tile_replay_errors(&errs)
                .iter()
                .any(|e| e.contains(&format!("W = {}", EXEC_WIDTH / 2))),
            "{errs:?}"
        );
    }

    #[test]
    fn check_obligations_rejects_a_multi_round_y_fed_in_component() {
        // The analysis itself refuses the component, with the producer
        // channel as witness...
        let (p, cfg) = two_gemv_program(true);
        let thep = planned(&p, &cfg);
        assert_eq!(thep.components.len(), 1);
        let comp = &thep.components[0];
        let (sems, fplan) = fusion_plan_for_component(&p, comp, false);
        assert!(fplan.regions.is_empty(), "{}", fplan.to_json());
        let rej = &fplan.rejections[0];
        assert_eq!(rej.reason, "replay-contract");
        assert_eq!(rej.witness_channel.as_deref(), Some("gemv#0->gemv_t#1"));
        // ...a region claimed over it does not re-verify...
        let (dram_p, _) = two_gemv_program(false);
        let dram = planned(&dram_p, &cfg);
        let (_, claimed) = fusion_plan_for_component(&dram_p, &dram.components[0], false);
        let errs = check_obligations(&claimed, &comp.mdag, &sems, false);
        assert!(
            tile_replay_errors(&errs)
                .iter()
                .any(|e| e.contains("computational producer")),
            "{errs:?}"
        );
        // ...and the fused backend raises the threaded path's contract
        // error, as before tile replay existed.
        let bufs: HashMap<String, DeviceBuffer<f32>> = [("A", 40 * 24), ("B", 24 * 40)]
            .into_iter()
            .chain([("p", 24), ("r", 24), ("q", 40), ("s", 40), ("y", 40)])
            .map(|(name, len)| {
                (
                    name.to_string(),
                    DeviceBuffer::from_vec(name, vec![0.5; len], 0),
                )
            })
            .collect();
        let opts = ExecOptions {
            backend: Backend::Fused,
            ..ExecOptions::default()
        };
        let err = execute_plan::<f32>(&p, &thep, &cfg, &bufs, &opts).unwrap_err();
        assert!(
            err.to_string().contains("replay"),
            "expected the replay contract error, got {err}"
        );
    }

    #[test]
    fn backend_resolves_from_env_knob() {
        // Resolution reads the environment on every call; don't leave
        // state behind for other tests.
        std::env::remove_var("FBLAS_BACKEND");
        assert_eq!(Backend::resolve(), Backend::Fused);
        std::env::set_var("FBLAS_BACKEND", "threaded");
        assert_eq!(Backend::resolve(), Backend::Threaded);
        std::env::set_var("FBLAS_BACKEND", "fused");
        assert_eq!(Backend::resolve(), Backend::Fused);
        std::env::set_var("FBLAS_BACKEND", "auto");
        assert_eq!(
            Backend::resolve(),
            Backend::Fused,
            "auto is no longer a value"
        );
        std::env::remove_var("FBLAS_BACKEND");
        assert!(Backend::Fused.fused_allowed());
        assert!(!Backend::Threaded.fused_allowed());
    }
}
