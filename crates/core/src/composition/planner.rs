//! Automatic derivation of valid streaming compositions.
//!
//! The paper leaves "a full general case analysis of MDAGs, that could
//! help the user in deriving valid FBLAS compositions" as future work
//! (Sec. V, Sec. VIII). This module implements that analysis for
//! programs over the Level-1/Level-2 streaming ops:
//!
//! 1. the program's data-dependency DAG is built from operand names;
//! 2. each GEMV picks the streaming variant compatible with where its
//!    vector operands come from (a computational producer cannot replay,
//!    so e.g. `x` produced on-chip forces the tiles-by-columns variant)
//!    and with the tiling order of matrix streams it shares;
//! 3. the resulting MDAG is checked with [`Mdag::validate`]; a
//!    non-multitree composition either gets its channel depth derived
//!    (the ATAX fix (a)) or — when deep channels are not allowed — the
//!    program is *split into sequential multitree components* that
//!    communicate through DRAM (fix (b), the paper's GEMVER schedule of
//!    Fig. 9).
//!
//! The output is a [`Plan`]: per component, the ops it runs, the chosen
//! GEMV variants, the validated MDAG, and the off-chip I/O volume —
//! everything needed to instantiate the simulation or to compare
//! streaming against host-layer execution analytically.

use std::collections::HashMap;

use serde::Serialize;

use super::fused::AnalysisMemo;
use super::mdag::{Mdag, NodeId, Validity};
use super::rates::{Outcome as RateOutcome, RateGraph};
use crate::routines::gemv::GemvVariant;

/// A named operand with known shape.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    Vector(usize),
    Matrix(usize, usize),
    Scalar,
}

/// One streaming operation of a [`Program`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `out = x` (COPY).
    Copy {
        /// Input vector.
        x: String,
        /// Output vector.
        out: String,
    },
    /// `out = α·x` (SCAL).
    Scal {
        /// Scaling factor.
        alpha: f64,
        /// Input vector.
        x: String,
        /// Output vector.
        out: String,
    },
    /// `out = α·x + y` (AXPY).
    Axpy {
        /// Scaling factor on `x`.
        alpha: f64,
        /// Input vector.
        x: String,
        /// Input vector.
        y: String,
        /// Output vector.
        out: String,
    },
    /// `out = xᵀy` (DOT; `out` is a scalar).
    Dot {
        /// Input vector.
        x: String,
        /// Input vector.
        y: String,
        /// Output scalar.
        out: String,
    },
    /// `out = α·op(A)·x + β·y` (GEMV).
    Gemv {
        /// Scaling factor on the product.
        alpha: f64,
        /// Scaling factor on `y` (ignored when `y` is `None`).
        beta: f64,
        /// Matrix operand.
        a: String,
        /// Transposition flag.
        transposed: bool,
        /// Input vector.
        x: String,
        /// Optional `y` input (β side); `None` means β = 0.
        y: Option<String>,
        /// Output vector.
        out: String,
    },
    /// `out = α·x·yᵀ + A` (GER; matrix in, matrix out).
    Ger {
        /// Scaling factor.
        alpha: f64,
        /// Matrix input.
        a: String,
        /// Column operand.
        x: String,
        /// Row operand.
        y: String,
        /// Matrix output.
        out: String,
    },
}

impl Op {
    pub(crate) fn inputs(&self) -> Vec<&str> {
        match self {
            Op::Copy { x, .. } | Op::Scal { x, .. } => vec![x],
            Op::Axpy { x, y, .. } | Op::Dot { x, y, .. } => vec![x, y],
            Op::Gemv { a, x, y, .. } => {
                let mut v = vec![a.as_str(), x.as_str()];
                if let Some(y) = y {
                    v.push(y);
                }
                v
            }
            Op::Ger { a, x, y, .. } => vec![a, x, y],
        }
    }

    /// Every vector and matrix operand the op reads or writes: its
    /// inputs, then its output unless that is a DOT's scalar.
    pub(crate) fn operands(&self) -> Vec<&str> {
        let mut v = self.inputs();
        if !matches!(self, Op::Dot { .. }) {
            v.push(self.output());
        }
        v
    }

    pub(crate) fn output(&self) -> &str {
        match self {
            Op::Copy { out, .. }
            | Op::Scal { out, .. }
            | Op::Axpy { out, .. }
            | Op::Dot { out, .. }
            | Op::Gemv { out, .. }
            | Op::Ger { out, .. } => out,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Op::Copy { .. } => "copy",
            Op::Scal { .. } => "scal",
            Op::Axpy { .. } => "axpy",
            Op::Dot { .. } => "dot",
            Op::Gemv {
                transposed: false, ..
            } => "gemv",
            Op::Gemv {
                transposed: true, ..
            } => "gemv_t",
            Op::Ger { .. } => "ger",
        }
    }
}

/// A linear-algebra program over named operands.
#[derive(Debug, Clone, Default)]
pub struct Program {
    shapes: HashMap<String, Shape>,
    ops: Vec<Op>,
}

/// A structured stream-contract violation: *why* a candidate component
/// cannot stream as one piece. These are the machine-readable causes
/// `fblas-lint` turns into diagnostics; before they existed a rejected
/// program surfaced only as a reason string.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ContractCause {
    /// An operand that must be replayed (consumed once per row of
    /// tiles) is produced by a computational module in the same
    /// component — only interface modules can replay (Sec. III-B).
    ReplayFromComputationalProducer {
        /// The operand that would need replaying.
        operand: String,
        /// The op that consumes it.
        op_index: usize,
    },
    /// A tiles-by-columns GEMV consumes a matrix produced in-component:
    /// producers emit tiles by rows and a compute module cannot
    /// re-order its output stream.
    OnChipMatrixColStreamed {
        /// The matrix operand.
        matrix: String,
        /// The consuming op.
        op_index: usize,
    },
    /// Consumers of a shared matrix stream disagree on tile order
    /// (paper Sec. V condition 2: order incompatibility).
    TilingOrderConflict {
        /// The shared matrix operand.
        matrix: String,
        /// The disagreeing consumer ops.
        op_indices: Vec<usize>,
    },
    /// An MDAG edge violates the element-count or order contract.
    InvalidEdge {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The composition deadlocks unless a channel is deepened
    /// (non-multitree, the ATAX condition) — carries the exact minimum
    /// depth derived by the rate analyzer.
    NeedsChannelDepth {
        /// The channel (named `producer->consumer`).
        channel: String,
        /// Exact minimum FIFO depth at which the deadlock disappears.
        depth: u64,
    },
    /// The rate analyzer found a deadlock that no finite channel depth
    /// fixes, or could not reach a verdict within budget.
    Unschedulable {
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for ContractCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractCause::ReplayFromComputationalProducer { operand, op_index } => write!(
                f,
                "operand `{operand}` of op #{op_index} must replay from DRAM, \
                 but is produced by a computational module in the same component"
            ),
            ContractCause::OnChipMatrixColStreamed { matrix, op_index } => write!(
                f,
                "op #{op_index} would stream matrix `{matrix}` by columns, \
                 but an in-component producer emits it by rows"
            ),
            ContractCause::TilingOrderConflict { matrix, op_indices } => write!(
                f,
                "ops {op_indices:?} consume shared matrix `{matrix}` with \
                 incompatible tile orders"
            ),
            ContractCause::InvalidEdge { reason } => write!(f, "invalid edge: {reason}"),
            ContractCause::NeedsChannelDepth { channel, depth } => write!(
                f,
                "channel `{channel}` deadlocks unless its depth is at least {depth}"
            ),
            ContractCause::Unschedulable { detail } => write!(f, "unschedulable: {detail}"),
        }
    }
}

/// Errors raised while building or planning a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An op references an operand that was never declared.
    UnknownOperand(String),
    /// An operand has the wrong shape for its use.
    ShapeMismatch {
        /// The offending operand.
        operand: String,
        /// Description of the expectation.
        expected: String,
    },
    /// Two ops write the same operand (static single assignment is
    /// required; reuse a new name instead).
    MultipleWriters(String),
    /// The data dependencies are cyclic.
    Cyclic,
    /// A stream-contract violation with a structured cause.
    Contract(ContractCause),
    /// The planner configuration is unusable (zero tile or depth).
    InvalidConfig(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownOperand(n) => write!(f, "unknown operand `{n}`"),
            PlanError::ShapeMismatch { operand, expected } => {
                write!(f, "operand `{operand}`: expected {expected}")
            }
            PlanError::MultipleWriters(n) => write!(f, "operand `{n}` written more than once"),
            PlanError::Cyclic => write!(f, "cyclic data dependencies"),
            PlanError::Contract(cause) => write!(f, "stream contract violation: {cause}"),
            PlanError::InvalidConfig(reason) => write!(f, "invalid planner config: {reason}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Declare a vector operand of length `len` (inputs and outputs).
    pub fn vector(&mut self, name: impl Into<String>, len: usize) -> &mut Self {
        self.shapes.insert(name.into(), Shape::Vector(len));
        self
    }

    /// Declare an `n × m` matrix operand.
    pub fn matrix(&mut self, name: impl Into<String>, n: usize, m: usize) -> &mut Self {
        self.shapes.insert(name.into(), Shape::Matrix(n, m));
        self
    }

    /// Declare a scalar operand (DOT results).
    pub fn scalar(&mut self, name: impl Into<String>) -> &mut Self {
        self.shapes.insert(name.into(), Shape::Scalar);
        self
    }

    /// Append an operation.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The operations, in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub(crate) fn vec_len(&self, name: &str) -> Result<usize, PlanError> {
        match self.shapes.get(name) {
            Some(Shape::Vector(l)) => Ok(*l),
            Some(_) => Err(PlanError::ShapeMismatch {
                operand: name.to_string(),
                expected: "a vector".into(),
            }),
            None => Err(PlanError::UnknownOperand(name.to_string())),
        }
    }

    pub(crate) fn mat_dims(&self, name: &str) -> Result<(usize, usize), PlanError> {
        match self.shapes.get(name) {
            Some(Shape::Matrix(n, m)) => Ok((*n, *m)),
            Some(_) => Err(PlanError::ShapeMismatch {
                operand: name.to_string(),
                expected: "a matrix".into(),
            }),
            None => Err(PlanError::UnknownOperand(name.to_string())),
        }
    }

    fn validate_shapes(&self) -> Result<(), PlanError> {
        for op in &self.ops {
            match op {
                Op::Copy { x, out } | Op::Scal { x, out, .. } => {
                    let a = self.vec_len(x)?;
                    let b = self.vec_len(out)?;
                    if a != b {
                        return Err(PlanError::ShapeMismatch {
                            operand: out.clone(),
                            expected: format!("a vector of length {a}"),
                        });
                    }
                }
                Op::Axpy { x, y, out, .. } => {
                    let a = self.vec_len(x)?;
                    if self.vec_len(y)? != a || self.vec_len(out)? != a {
                        return Err(PlanError::ShapeMismatch {
                            operand: out.clone(),
                            expected: format!("vectors of length {a}"),
                        });
                    }
                }
                Op::Dot { x, y, out } => {
                    let a = self.vec_len(x)?;
                    if self.vec_len(y)? != a {
                        return Err(PlanError::ShapeMismatch {
                            operand: y.clone(),
                            expected: format!("a vector of length {a}"),
                        });
                    }
                    if !matches!(self.shapes.get(out), Some(Shape::Scalar)) {
                        return Err(PlanError::ShapeMismatch {
                            operand: out.clone(),
                            expected: "a scalar".into(),
                        });
                    }
                }
                Op::Gemv {
                    a,
                    transposed,
                    x,
                    y,
                    out,
                    ..
                } => {
                    let (n, m) = self.mat_dims(a)?;
                    let (xl, yl) = if *transposed { (n, m) } else { (m, n) };
                    if self.vec_len(x)? != xl {
                        return Err(PlanError::ShapeMismatch {
                            operand: x.clone(),
                            expected: format!("a vector of length {xl}"),
                        });
                    }
                    if let Some(y) = y {
                        if self.vec_len(y)? != yl {
                            return Err(PlanError::ShapeMismatch {
                                operand: y.clone(),
                                expected: format!("a vector of length {yl}"),
                            });
                        }
                    }
                    if self.vec_len(out)? != yl {
                        return Err(PlanError::ShapeMismatch {
                            operand: out.clone(),
                            expected: format!("a vector of length {yl}"),
                        });
                    }
                }
                Op::Ger { a, x, y, out, .. } => {
                    let (n, m) = self.mat_dims(a)?;
                    if self.vec_len(x)? != n || self.vec_len(y)? != m {
                        return Err(PlanError::ShapeMismatch {
                            operand: a.clone(),
                            expected: format!("x of length {n} and y of length {m}"),
                        });
                    }
                    if self.mat_dims(out)? != (n, m) {
                        return Err(PlanError::ShapeMismatch {
                            operand: out.clone(),
                            expected: format!("a {n}x{m} matrix"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Single writer per operand; returns producer index per name.
    fn producers(&self) -> Result<HashMap<&str, usize>, PlanError> {
        let mut map: HashMap<&str, usize> = HashMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            if map.insert(op.output(), i).is_some() {
                return Err(PlanError::MultipleWriters(op.output().to_string()));
            }
        }
        Ok(map)
    }

    /// Topological order of op indices.
    fn topo_order(&self) -> Result<Vec<usize>, PlanError> {
        let producers = self.producers()?;
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, op) in self.ops.iter().enumerate() {
            for inp in op.inputs() {
                if let Some(&p) = producers.get(inp) {
                    succs[p].push(i);
                    indeg[i] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() != n {
            return Err(PlanError::Cyclic);
        }
        // Stable-ish: sort ready sets by index for determinism.
        Ok(order)
    }
}

/// Reference interpretation of a program: evaluate every op with plain
/// sequential arithmetic over `f64` values. This is the semantic oracle
/// the executor is tested against; it ignores streaming entirely.
///
/// Returns the final value of every operand (vectors and matrices as
/// flat `Vec<f64>`, scalars as single-element vectors).
pub fn interpret(
    program: &Program,
    inputs: &HashMap<String, Vec<f64>>,
) -> Result<HashMap<String, Vec<f64>>, PlanError> {
    program.validate_shapes()?;
    let order = program.topo_order()?;
    let mut env: HashMap<String, Vec<f64>> = inputs.clone();
    let fetch = |env: &HashMap<String, Vec<f64>>, name: &str| -> Result<Vec<f64>, PlanError> {
        env.get(name)
            .cloned()
            .ok_or_else(|| PlanError::UnknownOperand(name.to_string()))
    };
    for oi in order {
        match &program.ops[oi] {
            Op::Copy { x, out } => {
                let v = fetch(&env, x)?;
                env.insert(out.clone(), v);
            }
            Op::Scal { alpha, x, out } => {
                let v = fetch(&env, x)?.iter().map(|v| alpha * v).collect();
                env.insert(out.clone(), v);
            }
            Op::Axpy { alpha, x, y, out } => {
                let xv = fetch(&env, x)?;
                let yv = fetch(&env, y)?;
                let v = xv.iter().zip(&yv).map(|(a, b)| alpha * a + b).collect();
                env.insert(out.clone(), v);
            }
            Op::Dot { x, y, out } => {
                let xv = fetch(&env, x)?;
                let yv = fetch(&env, y)?;
                let d: f64 = xv.iter().zip(&yv).map(|(a, b)| a * b).sum();
                env.insert(out.clone(), vec![d]);
            }
            Op::Gemv {
                alpha,
                beta,
                a,
                transposed,
                x,
                y,
                out,
            } => {
                let (n, m) = program.mat_dims(a)?;
                let av = fetch(&env, a)?;
                let xv = fetch(&env, x)?;
                let out_len = if *transposed { m } else { n };
                let mut acc = vec![0.0f64; out_len];
                for i in 0..n {
                    for j in 0..m {
                        if *transposed {
                            acc[j] += av[i * m + j] * xv[i];
                        } else {
                            acc[i] += av[i * m + j] * xv[j];
                        }
                    }
                }
                let yv = match y {
                    Some(yn) => fetch(&env, yn)?,
                    None => vec![0.0; out_len],
                };
                let eff_beta = if y.is_some() { *beta } else { 0.0 };
                let v = acc
                    .iter()
                    .zip(&yv)
                    .map(|(p, q)| alpha * p + eff_beta * q)
                    .collect();
                env.insert(out.clone(), v);
            }
            Op::Ger {
                alpha,
                a,
                x,
                y,
                out,
            } => {
                let (n, m) = program.mat_dims(a)?;
                let mut av = fetch(&env, a)?;
                let xv = fetch(&env, x)?;
                let yv = fetch(&env, y)?;
                for i in 0..n {
                    for j in 0..m {
                        av[i * m + j] += alpha * xv[i] * yv[j];
                    }
                }
                env.insert(out.clone(), av);
            }
        }
    }
    Ok(env)
}

/// Planner configuration: the tiling every Level-2 op will use, and
/// whether oversized FIFOs may be instantiated for non-multitree graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Tile height `T_N`.
    pub tn: usize,
    /// Tile width `T_M`.
    pub tm: usize,
    /// Allow deep channels (the ATAX fix (a)). When false, non-multitree
    /// graphs are split into sequential components (fix (b)).
    pub allow_deep_channels: bool,
    /// FIFO depth of ordinary channels.
    pub default_depth: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            tn: 1024,
            tm: 1024,
            allow_deep_channels: false,
            default_depth: 64,
        }
    }
}

impl PlannerConfig {
    /// Reject configurations that cannot instantiate hardware: zero
    /// tiles divide by zero in the tiling math, and a zero-depth FIFO
    /// is not constructible (`hlssim` channels need capacity ≥ 1).
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.tn == 0 || self.tm == 0 {
            return Err(PlanError::InvalidConfig(format!(
                "tile sizes must be >= 1 (tn={}, tm={})",
                self.tn, self.tm
            )));
        }
        if self.default_depth == 0 {
            return Err(PlanError::InvalidConfig(
                "default channel depth must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// One sequential component of a plan: a valid multitree (or
/// deep-channel-annotated) MDAG over a subset of the program's ops.
#[derive(Debug)]
pub struct PlannedComponent {
    /// Indices into the program's op list, in execution order.
    pub ops: Vec<usize>,
    /// Chosen GEMV variant per op index (entries only for GEMV ops).
    pub gemv_variants: HashMap<usize, GemvVariant>,
    /// The validated module DAG.
    pub mdag: Mdag,
    /// Off-chip I/O elements of this component.
    pub io_elements: u64,
    /// Operands this component materializes to DRAM for later
    /// components (beyond the program's natural outputs).
    pub materialized: Vec<String>,
    /// Channel depths above the default that validity required
    /// (operand name → depth).
    pub deep_channels: Vec<(String, u64)>,
    /// The configuration the component was planned under: the tiling
    /// its Level-2 modules are laid out for.
    pub config: PlannerConfig,
    /// The fused backend's analysis, filled on first execution.
    pub(super) analysis: AnalysisMemo,
}

/// A structured planning decision worth surfacing to the user — the
/// machine-readable record `fblas-lint` renders as notes. Each one
/// explains *why* the plan looks the way it does.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum PlanNote {
    /// The greedy partition sealed a component because adding `before_op`
    /// violated a stream contract; the violation is recorded verbatim.
    Split {
        /// The op (program index) that could not join the component.
        before_op: usize,
        /// Why it could not.
        cause: ContractCause,
    },
    /// A component streams as one piece only because a channel was
    /// deepened beyond the default (the ATAX fix (a)).
    DeepChannel {
        /// Index of the component in the plan.
        component: usize,
        /// The channel, named `producer->consumer`.
        channel: String,
        /// The instantiated depth.
        depth: u64,
    },
    /// A maximal run of elementwise ops (copy/scal/axpy) each feeding
    /// the next: a fused backend could collapse their modules into one
    /// loop. Advisory — `fblas-lint` derives the full legality proof
    /// (obligations and witnesses) as its `FusionPlan` artifact.
    FusableChain {
        /// Index of the component in the plan.
        component: usize,
        /// Module names, producer to consumer.
        modules: Vec<String>,
    },
}

impl std::fmt::Display for PlanNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanNote::Split { before_op, cause } => {
                write!(f, "split before op #{before_op}: {cause}")
            }
            PlanNote::DeepChannel {
                component,
                channel,
                depth,
            } => write!(
                f,
                "component {} deepens channel `{channel}` to {depth}",
                component + 1
            ),
            PlanNote::FusableChain { component, modules } => write!(
                f,
                "component {} has a fusable chain: {}",
                component + 1,
                modules.join(" -> ")
            ),
        }
    }
}

/// A complete plan: sequential components, each internally streaming.
#[derive(Debug)]
pub struct Plan {
    /// The components, in execution order.
    pub components: Vec<PlannedComponent>,
    /// Structured diagnostics explaining splits and deep channels.
    pub notes: Vec<PlanNote>,
}

impl Plan {
    /// Total off-chip I/O elements across components.
    pub fn io_elements(&self) -> u64 {
        self.components.iter().map(|c| c.io_elements).sum()
    }

    /// Human-readable summary.
    pub fn describe(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (ci, c) in self.components.iter().enumerate() {
            let _ = writeln!(s, "component {}:", ci + 1);
            for &oi in &c.ops {
                let op = &program.ops[oi];
                let variant = c
                    .gemv_variants
                    .get(&oi)
                    .map(|v| format!(" [{v:?}]"))
                    .unwrap_or_default();
                let _ = writeln!(s, "  {} -> {}{}", op.name(), op.output(), variant);
            }
            if !c.materialized.is_empty() {
                let _ = writeln!(s, "  materializes: {}", c.materialized.join(", "));
            }
            for (name, depth) in &c.deep_channels {
                let _ = writeln!(s, "  deep channel on `{name}`: depth {depth}");
            }
            let _ = writeln!(s, "  off-chip I/O: {} elements", c.io_elements);
        }
        for note in &self.notes {
            let _ = writeln!(s, "note: {note}");
        }
        s
    }
}

/// Derive a valid streaming plan for `program`.
///
/// ```
/// use fblas_core::composition::{plan, Op, PlannerConfig, Program};
///
/// // AXPYDOT: z = w - alpha*v; beta = z'u (paper Sec. V-A).
/// let mut p = Program::new();
/// p.vector("w", 1024).vector("v", 1024).vector("u", 1024)
///  .vector("z", 1024).scalar("beta");
/// p.op(Op::Axpy { alpha: -1.0, x: "v".into(), y: "w".into(), out: "z".into() });
/// p.op(Op::Dot { x: "z".into(), y: "u".into(), out: "beta".into() });
///
/// let plan = plan(&p, &PlannerConfig::default()).unwrap();
/// assert_eq!(plan.components.len(), 1, "a multitree streams whole");
/// ```
pub fn plan(program: &Program, cfg: &PlannerConfig) -> Result<Plan, PlanError> {
    cfg.validate()?;
    program.validate_shapes()?;
    let order = program.topo_order()?;
    let producers = program.producers()?;

    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut notes: Vec<PlanNote> = Vec::new();

    // Greedy partition: add ops in topological order; when the candidate
    // component stops validating (and deep channels are not allowed),
    // seal the current component and start a new one.
    for &oi in &order {
        let mut candidate = current.clone();
        candidate.push(oi);
        let built = build_component(program, &producers, &candidate, cfg);
        let (ok, cause) = match built {
            Ok(ref c) if c.deep_channels.is_empty() || cfg.allow_deep_channels => (true, None),
            Ok(ref c) => {
                // Streamable, but only with a deep channel the config
                // forbids — record the need that forced the split.
                let cause = c.deep_channels.first().map(|(channel, depth)| {
                    ContractCause::NeedsChannelDepth {
                        channel: channel.clone(),
                        depth: *depth,
                    }
                });
                (false, cause)
            }
            Err(PlanError::Contract(cause)) => (false, Some(cause)),
            Err(e) => (
                false,
                Some(ContractCause::Unschedulable {
                    detail: e.to_string(),
                }),
            ),
        };
        if ok {
            current = candidate;
        } else {
            if !current.is_empty() {
                components.push(std::mem::take(&mut current));
                if let Some(cause) = cause {
                    notes.push(PlanNote::Split {
                        before_op: oi,
                        cause,
                    });
                }
            }
            current.push(oi);
        }
    }
    if !current.is_empty() {
        components.push(current);
    }

    let mut planned = Vec::with_capacity(components.len());
    let all: Vec<usize> = components.iter().flatten().copied().collect();
    for (ci, ops) in components.iter().enumerate() {
        let mut c = build_component(program, &producers, ops, cfg)?;
        for (channel, depth) in &c.deep_channels {
            notes.push(PlanNote::DeepChannel {
                component: ci,
                channel: channel.clone(),
                depth: *depth,
            });
        }
        // Operands produced here and consumed by later components must
        // be materialized (they already are — every component output is
        // written to DRAM — but record the ones later components read).
        let later: Vec<usize> = all
            .iter()
            .copied()
            .filter(|oi| components[ci + 1..].iter().flatten().any(|l| l == oi))
            .collect();
        for &oi in ops {
            let out = program.ops[oi].output();
            if later
                .iter()
                .any(|&l| program.ops[l].inputs().contains(&out))
            {
                c.materialized.push(out.to_string());
            }
        }
        planned.push(c);
    }

    // Surface maximal elementwise producer→consumer runs as advisory
    // fusable-chain notes (the linter re-derives them with proofs).
    for (ci, c) in planned.iter().enumerate() {
        let mut run: Vec<usize> = Vec::new();
        let flush = |run: &mut Vec<usize>, notes: &mut Vec<PlanNote>| {
            if run.len() >= 2 {
                notes.push(PlanNote::FusableChain {
                    component: ci,
                    modules: run
                        .iter()
                        .map(|&oi| format!("{}#{}", program.ops[oi].name(), oi))
                        .collect(),
                });
            }
            run.clear();
        };
        for &oi in &c.ops {
            let op = &program.ops[oi];
            let elementwise = matches!(op, Op::Copy { .. } | Op::Scal { .. } | Op::Axpy { .. });
            let extends = elementwise
                && run
                    .last()
                    .is_some_and(|&prev| op.inputs().contains(&program.ops[prev].output()));
            if !extends {
                flush(&mut run, &mut notes);
            }
            if elementwise {
                run.push(oi);
            }
        }
        flush(&mut run, &mut notes);
    }

    Ok(Plan {
        components: planned,
        notes,
    })
}

/// Choose variants, build and validate the MDAG for one candidate
/// component. Returns the component unless shapes/graph are broken;
/// non-multitree needs are reported through `deep_channels`.
fn build_component(
    program: &Program,
    producers: &HashMap<&str, usize>,
    ops: &[usize],
    cfg: &PlannerConfig,
) -> Result<PlannedComponent, PlanError> {
    let in_component =
        |name: &str| -> Option<usize> { producers.get(name).copied().filter(|p| ops.contains(p)) };

    // 1. GEMV variant selection.
    //    - x produced in-component cannot be replayed: transposed ops
    //      take TransRowStreamed (x consumed once); non-transposed take
    //      ColStreamed (x once, y replayed through DRAM).
    //    - x from DRAM: prefer the y-streamed-once variants, keeping
    //      every matrix stream in tiles-by-rows so shared reads stay
    //      order-compatible (the BICG adjustment).
    let mut variants: HashMap<usize, GemvVariant> = HashMap::new();
    for &oi in ops {
        match &program.ops[oi] {
            Op::Gemv { transposed, x, .. } => {
                let x_onchip = in_component(x).is_some();
                let v = match (transposed, x_onchip) {
                    (false, false) => GemvVariant::RowStreamed,
                    (false, true) => GemvVariant::ColStreamed,
                    (true, _) => GemvVariant::TransRowStreamed,
                };
                variants.insert(oi, v);
            }
            // GER replays its row operand once per row of tiles — only
            // an interface module may replay, so an in-component
            // producer forces a component split.
            Op::Ger { y, .. } if in_component(y).is_some() => {
                return Err(PlanError::Contract(
                    ContractCause::ReplayFromComputationalProducer {
                        operand: y.clone(),
                        op_index: oi,
                    },
                ));
            }
            _ => {}
        }
    }

    // 1b. A tiles-by-columns GEMV cannot consume a matrix produced
    //     in-component: GER chains emit tiles by rows, and a compute
    //     module cannot re-order its output stream (Sec. III-B). The
    //     rejection forces a split, after which `x` comes from DRAM and
    //     the row-streamed variant applies.
    for &oi in ops {
        if let Op::Gemv { a, .. } = &program.ops[oi] {
            if variants.get(&oi) == Some(&GemvVariant::ColStreamed) && in_component(a).is_some() {
                return Err(PlanError::Contract(
                    ContractCause::OnChipMatrixColStreamed {
                        matrix: a.clone(),
                        op_index: oi,
                    },
                ));
            }
        }
    }

    // 2. Matrix sharing: consumers of the same in-DRAM matrix must agree
    //    on the tile order. RowStreamed/TransRowStreamed agree (rows);
    //    ColStreamed does not — if a conflict arises the component is
    //    rejected by reporting an impossible deep-channel need.
    for (mat, consumers) in &matrix_consumers(program, ops) {
        if consumers.len() > 1 {
            let mut orders: Vec<bool> = Vec::new(); // true = by rows
            for &oi in consumers {
                let by_rows = match variants.get(&oi) {
                    Some(GemvVariant::ColStreamed) => false,
                    _ => true, // GER and row-streamed GEMVs
                };
                orders.push(by_rows);
            }
            if orders.iter().any(|&o| o != orders[0]) {
                // Incompatible tiling schemes on a shared stream.
                return Err(PlanError::Contract(ContractCause::TilingOrderConflict {
                    matrix: (*mat).to_string(),
                    op_indices: consumers.clone(),
                }));
            }
        }
    }

    // 3. Build the MDAG.
    let g = component_mdag(program, ops, &variants, cfg)?;
    let mut deep_channels: Vec<(String, u64)> = Vec::new();

    match g.validate() {
        Validity::Valid => {}
        Validity::RequiresChannelDepth { .. } => {
            // Non-multitree: the heuristic only says "some channel must
            // deepen". Route through the rate analyzer for a verdict on
            // the *actual* depths — it replays the abstract Kahn-network
            // execution and, on deadlock, derives the exact minimum
            // depth per channel (or proves none exists).
            let rg = RateGraph::from_mdag(&g);
            match rg.analyze() {
                RateOutcome::Completed { .. } => {
                    // Default depths already suffice; no deep channel.
                }
                RateOutcome::Deadlock { .. } => match rg.repair() {
                    Some(fixes) => {
                        for (ch, depth) in fixes {
                            deep_channels.push((rg.channel_name(ch).to_string(), depth));
                        }
                    }
                    None => {
                        return Err(PlanError::Contract(ContractCause::Unschedulable {
                            detail: "no finite channel depth removes the deadlock".into(),
                        }))
                    }
                },
                RateOutcome::Disconnected { .. } | RateOutcome::Budget => {
                    return Err(PlanError::Contract(ContractCause::Unschedulable {
                        detail: "rate analysis could not certify the composition".into(),
                    }))
                }
            }
        }
        Validity::InvalidEdge { reason, .. } => {
            return Err(PlanError::Contract(ContractCause::InvalidEdge { reason }))
        }
        Validity::Cyclic => return Err(PlanError::Cyclic),
    }

    let io = g.interface_io_elements();
    Ok(PlannedComponent {
        ops: ops.to_vec(),
        gemv_variants: variants,
        mdag: g,
        io_elements: io,
        materialized: Vec::new(),
        deep_channels,
        config: *cfg,
        analysis: AnalysisMemo::default(),
    })
}

/// The MDAG of `ops` streaming together with GEMV variants `variants`:
/// one node per op, an interface reader per DRAM operand (one reader
/// and a duplicator for a DRAM matrix with several consumers), an
/// interface writer per output, every edge at the default depth, and
/// the ATAX burst annotated on a matrix edge whose consumer also waits
/// for an in-component vector. The planner validates it per candidate
/// component; the executor analyses it per threaded simulation.
pub(super) fn component_mdag(
    program: &Program,
    ops: &[usize],
    variants: &HashMap<usize, GemvVariant>,
    cfg: &PlannerConfig,
) -> Result<Mdag, PlanError> {
    let in_component = |name: &str| -> Option<usize> {
        ops.iter()
            .copied()
            .find(|&oi| program.ops[oi].output() == name)
    };
    let mut g = Mdag::new();
    let mut op_nodes: HashMap<usize, NodeId> = HashMap::new();
    for &oi in ops {
        op_nodes.insert(
            oi,
            g.add_compute(format!("{}#{oi}", program.ops[oi].name())),
        );
    }
    let mut source_nodes: HashMap<&str, NodeId> = HashMap::new();

    // A DRAM matrix with several in-component consumers is read once and
    // fanned out by a duplicator (the BICG pattern): the interface edge
    // is counted once, the dup→consumer edges are on-chip.
    let mut dup_nodes: HashMap<&str, NodeId> = HashMap::new();
    for (mat, consumers) in &matrix_consumers(program, ops) {
        if consumers.len() > 1 && in_component(mat).is_none() {
            let (n, m) = program.mat_dims(mat)?;
            let src = g.add_interface(format!("read_{mat}"));
            let dup = g.add_compute(format!("dup_{mat}"));
            g.add_edge(src, dup, (n * m) as u64, (n * m) as u64, cfg.default_depth);
            source_nodes.insert(mat, src);
            dup_nodes.insert(mat, dup);
        }
    }

    for &oi in ops {
        let op = &program.ops[oi];
        let node = op_nodes[&oi];
        for inp in op.inputs() {
            let elems = match program.shapes.get(inp) {
                Some(Shape::Vector(l)) => *l as u64,
                Some(Shape::Matrix(n, m)) => (*n * *m) as u64,
                Some(Shape::Scalar) => 1,
                None => return Err(PlanError::UnknownOperand(inp.to_string())),
            };
            // Replay multiplicity: GEMV's DRAM-side x replay.
            let reps = match (op, program.shapes.get(inp)) {
                (Op::Gemv { a, x, .. }, Some(Shape::Vector(_))) if x == inp => {
                    let (n, m) = program.mat_dims(a)?;
                    match variants[&oi] {
                        GemvVariant::RowStreamed => n.div_ceil(cfg.tn) as u64,
                        GemvVariant::TransColStreamed => m.div_ceil(cfg.tm) as u64,
                        _ => 1,
                    }
                }
                (Op::Ger { y, .. }, Some(Shape::Vector(_))) if y == inp => {
                    let (n, _) = program.mat_dims(match op {
                        Op::Ger { a, .. } => a,
                        _ => unreachable!(),
                    })?;
                    n.div_ceil(cfg.tn) as u64
                }
                _ => 1,
            };
            let from = match (in_component(inp), dup_nodes.get(inp)) {
                (Some(p), _) => op_nodes[&p],
                (None, Some(&dup)) => dup,
                (None, None) => *source_nodes
                    .entry(inp)
                    .or_insert_with(|| g.add_interface(format!("read_{inp}"))),
            };
            let edge = g.add_edge(from, node, elems * reps, elems * reps, cfg.default_depth);
            // Burst annotation: a matrix stream whose consumer also
            // waits for an in-component vector (the ATAX pattern) must
            // buffer a full row of tiles before the consumer starts.
            if let Op::Gemv { a, x, .. } = op {
                if inp == a && in_component(x).is_some() {
                    let (_, m) = program.mat_dims(a)?;
                    g.set_burst_before_consume(edge, (cfg.tn * m) as u64);
                }
            }
        }
    }
    // Outputs: components always write their results to DRAM (later
    // components or the host read them from there).
    for &oi in ops {
        let op = &program.ops[oi];
        let out = op.output();
        let elems = match program.shapes.get(out) {
            Some(Shape::Vector(l)) => *l as u64,
            Some(Shape::Matrix(n, m)) => (*n * *m) as u64,
            Some(Shape::Scalar) => 1,
            None => return Err(PlanError::UnknownOperand(out.to_string())),
        };
        // y-replay variants write/re-read partials; count the extra I/O.
        let write_mult = match (op, variants.get(&oi)) {
            (Op::Gemv { a, .. }, Some(GemvVariant::ColStreamed)) => {
                let (_, m) = program.mat_dims(a)?;
                (2 * m.div_ceil(cfg.tm) - 1) as u64
            }
            (Op::Gemv { a, .. }, Some(GemvVariant::TransRowStreamed)) => {
                let (n, _) = program.mat_dims(a)?;
                (2 * n.div_ceil(cfg.tn) - 1) as u64
            }
            _ => 1,
        };
        let sink = g.add_interface(format!("write_{out}"));
        g.add_edge(
            op_nodes[&oi],
            sink,
            elems * write_mult,
            elems * write_mult,
            cfg.default_depth,
        );
    }

    Ok(g)
}

/// The ops of `ops` consuming each matrix operand, in `ops` order.
fn matrix_consumers<'p>(program: &'p Program, ops: &[usize]) -> HashMap<&'p str, Vec<usize>> {
    let mut consumers: HashMap<&str, Vec<usize>> = HashMap::new();
    for &oi in ops {
        if let Op::Gemv { a, .. } | Op::Ger { a, .. } = &program.ops[oi] {
            consumers.entry(a.as_str()).or_default().push(oi);
        }
    }
    consumers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axpydot_program(n: usize) -> Program {
        let mut p = Program::new();
        p.vector("w", n)
            .vector("v", n)
            .vector("u", n)
            .vector("z", n)
            .scalar("beta");
        p.op(Op::Axpy {
            alpha: -1.0,
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
    fn axpydot_plans_as_one_component() {
        let p = axpydot_program(4096);
        let plan = plan(&p, &PlannerConfig::default()).unwrap();
        assert_eq!(plan.components.len(), 1);
        let c = &plan.components[0];
        assert!(c.deep_channels.is_empty());
        // w, v, u in + z out + beta out = 4N + 1... the planner
        // materializes z (its consumer is in-component, but the output
        // edge is still written): 3N in + N (z) + 1 (beta).
        assert_eq!(c.io_elements, 4 * 4096 + 1);
        let desc = plan.describe(&p);
        assert!(desc.contains("axpy"));
        assert!(desc.contains("dot"));
    }

    fn bicg_program(n: usize, m: usize) -> Program {
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
        p
    }

    #[test]
    fn bicg_shares_the_matrix_in_one_component() {
        let p = bicg_program(2048, 2048);
        let plan = plan(&p, &PlannerConfig::default()).unwrap();
        assert_eq!(plan.components.len(), 1, "{}", plan.describe(&p));
        let c = &plan.components[0];
        // The planner must pick tiles-by-rows for both so A streams once.
        assert_eq!(c.gemv_variants[&0], GemvVariant::RowStreamed);
        assert_eq!(c.gemv_variants[&1], GemvVariant::TransRowStreamed);
        assert!(c.deep_channels.is_empty());
    }

    fn atax_program(n: usize, m: usize) -> Program {
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
    }

    #[test]
    fn atax_splits_without_deep_channels() {
        let p = atax_program(4096, 4096);
        let cfg = PlannerConfig {
            allow_deep_channels: false,
            ..Default::default()
        };
        let plan = plan(&p, &cfg).unwrap();
        assert_eq!(plan.components.len(), 2, "{}", plan.describe(&p));
        assert_eq!(plan.components[0].materialized, vec!["t".to_string()]);
        // The split carries its structured cause: the transposed GEMV
        // could not join because a channel would need deepening.
        assert!(plan.notes.iter().any(|n| matches!(
            n,
            PlanNote::Split {
                before_op: 1,
                cause: ContractCause::NeedsChannelDepth { .. },
            }
        )));
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let p = axpydot_program(64);
        for bad in [
            PlannerConfig {
                tn: 0,
                ..Default::default()
            },
            PlannerConfig {
                tm: 0,
                ..Default::default()
            },
            PlannerConfig {
                default_depth: 0,
                ..Default::default()
            },
        ] {
            assert!(matches!(plan(&p, &bad), Err(PlanError::InvalidConfig(_))));
        }
    }

    #[test]
    fn ger_replay_violation_reports_structured_cause() {
        // scal -> y; ger replays y: with y produced in-component the
        // sole-op component itself is invalid, so planning fails with
        // the structured replay cause rather than a reason string.
        let n = 32;
        let mut p = Program::new();
        p.matrix("A", n, n).matrix("B", n, n);
        p.vector("u", n).vector("y0", n).vector("y", n);
        p.op(Op::Scal {
            alpha: 2.0,
            x: "y0".into(),
            out: "y".into(),
        });
        p.op(Op::Ger {
            alpha: 1.0,
            a: "A".into(),
            x: "u".into(),
            y: "y".into(),
            out: "B".into(),
        });
        let plan = plan(&p, &PlannerConfig::default()).unwrap();
        // The planner recovers by splitting; the cause is recorded.
        assert_eq!(plan.components.len(), 2, "{}", plan.describe(&p));
        assert!(plan.notes.iter().any(|n| matches!(
            n,
            PlanNote::Split {
                before_op: 1,
                cause: ContractCause::ReplayFromComputationalProducer { .. },
            }
        )));
    }

    #[test]
    fn atax_single_component_with_deep_channel() {
        let p = atax_program(4096, 4096);
        let cfg = PlannerConfig {
            allow_deep_channels: true,
            ..Default::default()
        };
        let plan = plan(&p, &cfg).unwrap();
        assert_eq!(plan.components.len(), 1, "{}", plan.describe(&p));
        let c = &plan.components[0];
        // The dominant fix is the paper's: the matrix stream into the
        // transposed GEMV must hold a full row of tiles, T_N * M
        // (Sec. V-B). The rate analysis names the channel and also
        // derives the smaller depth the t-vector edge needs while the
        // consumer waits out the burst.
        let max = c.deep_channels.iter().map(|(_, d)| *d).max().unwrap();
        assert_eq!(max, 1024 * 4096);
        assert!(c
            .deep_channels
            .iter()
            .any(|(name, d)| name.contains("gemv_t") && *d == 1024 * 4096));
        // Every deep channel surfaces as a structured note.
        assert_eq!(
            plan.notes
                .iter()
                .filter(|n| matches!(n, PlanNote::DeepChannel { .. }))
                .count(),
            c.deep_channels.len()
        );
        // Deep-channel plan moves less data than the split plan.
        let split = plan_split_io(&p);
        assert!(c.io_elements < split);
    }

    fn plan_split_io(p: &Program) -> u64 {
        let cfg = PlannerConfig {
            allow_deep_channels: false,
            ..Default::default()
        };
        plan(p, &cfg).unwrap().io_elements()
    }

    #[test]
    fn elementwise_runs_surface_as_fusable_chain_notes() {
        // t = 2w, z = v - t, beta = z·u: the scal→axpy prefix is a
        // maximal elementwise run; the dot ends it.
        let mut p = Program::new();
        p.vector("w", 256)
            .vector("v", 256)
            .vector("u", 256)
            .vector("t", 256)
            .vector("z", 256)
            .scalar("beta");
        p.op(Op::Scal {
            alpha: 2.0,
            x: "w".into(),
            out: "t".into(),
        });
        p.op(Op::Axpy {
            alpha: -1.0,
            x: "v".into(),
            y: "t".into(),
            out: "z".into(),
        });
        p.op(Op::Dot {
            x: "z".into(),
            y: "u".into(),
            out: "beta".into(),
        });
        let planned = plan(&p, &PlannerConfig::default()).unwrap();
        let chains: Vec<_> = planned
            .notes
            .iter()
            .filter_map(|n| match n {
                PlanNote::FusableChain { component, modules } => Some((component, modules)),
                _ => None,
            })
            .collect();
        assert_eq!(chains.len(), 1, "{}", planned.describe(&p));
        let (component, modules) = &chains[0];
        assert_eq!(**component, 0);
        assert_eq!(modules.as_slice(), ["scal#0", "axpy#1"]);
        // A single elementwise op is not a chain; unrelated ops never
        // join one.
        let mut q = Program::new();
        q.vector("x", 64).vector("y", 64).vector("s", 64);
        q.op(Op::Scal {
            alpha: 3.0,
            x: "x".into(),
            out: "s".into(),
        });
        q.op(Op::Dot {
            x: "s".into(),
            y: "y".into(),
            out: "beta".into(),
        });
        q.scalar("beta");
        let plan2 = plan(&q, &PlannerConfig::default()).unwrap();
        assert!(
            !plan2
                .notes
                .iter()
                .any(|n| matches!(n, PlanNote::FusableChain { .. })),
            "{}",
            plan2.describe(&q)
        );
    }

    fn gemver_program(n: usize) -> Program {
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
            alpha: 0.9,
            beta: 1.0,
            a: "B".into(),
            transposed: true,
            x: "y".into(),
            y: Some("z".into()),
            out: "x".into(),
        });
        p.op(Op::Gemv {
            alpha: 1.1,
            beta: 0.0,
            a: "B".into(),
            transposed: false,
            x: "x".into(),
            y: None,
            out: "w".into(),
        });
        p
    }

    #[test]
    fn gemver_reproduces_the_fig9_schedule() {
        let p = gemver_program(4096);
        let cfg = PlannerConfig {
            allow_deep_channels: false,
            ..Default::default()
        };
        let plan = plan(&p, &cfg).unwrap();
        // Fig. 9: component 1 = GER, GER, GEMVt; component 2 = GEMV.
        assert_eq!(plan.components.len(), 2, "{}", plan.describe(&p));
        assert_eq!(plan.components[0].ops, vec![0, 1, 2]);
        assert_eq!(plan.components[1].ops, vec![3]);
        // B and x cross the component boundary through DRAM.
        let mut mat = plan.components[0].materialized.clone();
        mat.sort();
        assert_eq!(mat, vec!["B".to_string(), "x".to_string()]);
    }

    #[test]
    fn col_streamed_consumer_of_onchip_matrix_forces_split() {
        // ger -> B; scal -> s; gemv(B, x = s): with both B and s
        // produced on-chip the GEMV would need tiles-by-columns on a
        // tiles-by-rows stream — the planner must split instead.
        let n = 64;
        let mut p = Program::new();
        p.matrix("A", n, n).matrix("B", n, n);
        p.vector("u", n)
            .vector("v", n)
            .vector("x0", n)
            .vector("s", n)
            .vector("out", n);
        p.op(Op::Ger {
            alpha: 1.0,
            a: "A".into(),
            x: "u".into(),
            y: "v".into(),
            out: "B".into(),
        });
        p.op(Op::Scal {
            alpha: 2.0,
            x: "x0".into(),
            out: "s".into(),
        });
        p.op(Op::Gemv {
            alpha: 1.0,
            beta: 0.0,
            a: "B".into(),
            transposed: false,
            x: "s".into(),
            y: None,
            out: "out".into(),
        });
        let cfg = PlannerConfig {
            tn: 16,
            tm: 16,
            ..Default::default()
        };
        let plan = plan(&p, &cfg).unwrap();
        assert!(plan.components.len() >= 2, "{}", plan.describe(&p));
        // The GEMV lands in a later component where both operands come
        // from DRAM, so it row-streams.
        let last = plan.components.last().unwrap();
        let gemv_variant = last.gemv_variants.values().next();
        assert_eq!(gemv_variant, Some(&GemvVariant::RowStreamed));
    }

    #[test]
    fn shape_errors_are_caught() {
        let mut p = Program::new();
        p.vector("x", 8).vector("y", 9).scalar("d");
        p.op(Op::Dot {
            x: "x".into(),
            y: "y".into(),
            out: "d".into(),
        });
        assert!(matches!(
            plan(&p, &PlannerConfig::default()),
            Err(PlanError::ShapeMismatch { .. })
        ));

        let mut p = Program::new();
        p.vector("x", 8);
        p.op(Op::Scal {
            alpha: 2.0,
            x: "x".into(),
            out: "missing".into(),
        });
        assert!(matches!(
            plan(&p, &PlannerConfig::default()),
            Err(PlanError::UnknownOperand(_))
        ));
    }

    #[test]
    fn multiple_writers_rejected() {
        let mut p = Program::new();
        p.vector("x", 8).vector("o", 8);
        p.op(Op::Copy {
            x: "x".into(),
            out: "o".into(),
        });
        p.op(Op::Scal {
            alpha: 2.0,
            x: "x".into(),
            out: "o".into(),
        });
        assert!(matches!(
            plan(&p, &PlannerConfig::default()),
            Err(PlanError::MultipleWriters(n)) if n == "o"
        ));
    }

    #[test]
    fn empty_program_plans_to_nothing() {
        let p = Program::new();
        let plan = plan(&p, &PlannerConfig::default()).unwrap();
        assert!(plan.components.is_empty());
        assert_eq!(plan.io_elements(), 0);
    }
}
