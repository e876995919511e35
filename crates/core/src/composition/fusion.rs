//! Fusion legality analysis and the `FusionPlan` artifact.
//!
//! The fused backend needs a static answer to one question: *which
//! module chains of a validated MDAG may be collapsed into a single
//! loop without changing observable values?* This module computes that
//! answer. A **fusable region** is a maximal set of stateless 1:1-rate
//! relay modules (`copy`, `scal`, `axpy`) connected
//! producer-to-single-consumer, plus the interface reads and writes it
//! absorbs. A region may end in one DOT reduction at the executor's
//! adder-tree width [`EXEC_WIDTH`]: the fused loop then replays the
//! threaded module's `W`-lane blocks in stream order through the same
//! [`DotAccumulator`], so the scalar keeps its bits (the `block-replay`
//! obligation). A planned component whose compute modules are all
//! Level-2 tiles ([`ModuleSem::Tile`]: GEMV or GER, plus the planner's
//! `dup_*` of a shared DRAM matrix) is a region of its own kind: with
//! at least two tiles, each instantiated as the planner laid it out,
//! the whole component is replayed op by op on one thread through the
//! threaded modules' own kernels (the `tile-replay` obligation); a lone
//! tile stays threaded (`singleton`, the rule lone relays follow).
//! Everything else — reductions at any other width (reassociation),
//! tiles mixed with relays, rate changes, fanout, bursts, paths that
//! leave and re-enter the region — is a **rejection** carrying a
//! witness that names the blocking module or channel.
//!
//! The output is a serializable [`FusionPlan`] (schema
//! `fblas-fusion-plan-v1`): regions with boundary channels and a
//! machine-checkable proof-obligation list, rejections with witnesses,
//! and summary stats. [`check_obligations`] and [`verify_witnesses`]
//! re-verify a plan against the graph it claims to describe — the
//! contract the differential keystone test enforces — and
//! [`FusedEvaluator`] executes a relay region as a straight-line loop
//! over `W`-lane blocks, sharing [`apply_elementwise`] and
//! [`DotAccumulator`] with the threaded modules so fused and unfused
//! runs are bit-identical by construction.

use std::collections::BTreeMap;

use fblas_hlssim::ModuleKind;
use serde::{Deserialize, Serialize};

use super::dataflow::{solve, ExternalReach, FlowGraph};
use super::rates::RateGraph;
use super::{EdgeInfo, Mdag, Op};
use crate::routines::{DotAccumulator, Gemv, GemvVariant, Ger};
use crate::scalar::Scalar;
use crate::tiling::{TileOrder, Tiling};

/// Version tag of the artifact schema.
pub const FUSION_PLAN_SCHEMA: &str = "fblas-fusion-plan-v1";

/// Vectorization width the executor instantiates its modules at (the
/// threaded `Dot::new(n, EXEC_WIDTH)`). A reduction fuses only at this
/// width: any other `W` groups the sum differently from the module the
/// fused loop stands in for.
pub const EXEC_WIDTH: usize = 16;

// ---------------------------------------------------------------------
// Module semantics.
// ---------------------------------------------------------------------

/// What a module *does*, as far as fusion legality is concerned.
///
/// Scalars are `Option<f64>` because graph documents name modules but
/// carry no coefficients: an unknown α still fuses (legality does not
/// depend on its value), it just disables the α = 1 pass-through lint
/// and requires the caller of the evaluator to supply concrete
/// semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum ModuleSem {
    /// Interface source: replays one stream into each out-edge.
    Read,
    /// Interface sink: drains its single in-edge.
    Write,
    /// `out = x` — stateless 1:1 relay.
    Copy,
    /// `out = α·x` — stateless 1:1 relay.
    Scal {
        /// Scaling factor, when known.
        alpha: Option<f64>,
    },
    /// `out = α·x + y` — stateless 2-in/1-out relay.
    Axpy {
        /// Scaling factor, when known.
        alpha: Option<f64>,
    },
    /// Broadcast relay (the planner's `dup_*` nodes) — fanout.
    Dup,
    /// W-way DOT reduction (`dot`): may close a region at
    /// `W =` [`EXEC_WIDTH`]; any other `W > 1` reassociates the sum.
    Reduce {
        /// Vectorization width of the adder tree.
        width: usize,
    },
    /// Keeps state across elements (`gemv`, `ger` tiles) — what a
    /// graph document's name alone says about a Level-2 module.
    Stateful,
    /// A Level-2 tile exactly as the executor instantiates it: known
    /// only for planned components, where the planner's GEMV variant and
    /// tiling are on record. A component of tiles may be replayed tile
    /// by tile on one thread (the `tile-replay` obligation).
    Tile(TileSem),
    /// Unknown semantics — never fused.
    Opaque,
}

/// The configuration of a [`ModuleSem::Tile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileSem {
    /// `y = αAx + βy` or its transpose, in the planner's variant.
    Gemv(Gemv),
    /// `A' = αxyᵀ + A`.
    Ger(Ger),
}

impl TileSem {
    fn width(&self) -> usize {
        match self {
            TileSem::Gemv(g) => g.w,
            TileSem::Ger(g) => g.w,
        }
    }

    fn a_tiling(&self) -> Tiling {
        match self {
            TileSem::Gemv(g) => g.a_tiling(),
            TileSem::Ger(g) => g.a_tiling(),
        }
    }

    /// Matrix elements the tile streams.
    fn elements(&self) -> u64 {
        match self {
            TileSem::Gemv(g) => (g.n * g.m) as u64,
            TileSem::Ger(g) => (g.n * g.m) as u64,
        }
    }

    /// Elements each input channel carries, in operand order (`A`, `x`,
    /// then `y` if bound), with the replay each interface reader
    /// performs; and whether that operand is replayed (sent more than
    /// once, or — for a multi-round GEMV `y` — re-read from memory).
    fn inputs(&self, with_y: bool) -> Vec<(u64, bool)> {
        match self {
            TileSem::Gemv(g) => {
                let reps = g.x_repetitions();
                let mut v = vec![
                    ((g.n * g.m) as u64, false),
                    ((g.x_len() * reps) as u64, reps > 1),
                ];
                if with_y {
                    v.push((g.y_len() as u64, g.y_rounds() > 1));
                }
                v
            }
            TileSem::Ger(g) => {
                let reps = g.y_repetitions();
                vec![
                    ((g.n * g.m) as u64, false),
                    (g.n as u64, false),
                    ((g.m * reps) as u64, reps > 1),
                ]
            }
        }
    }

    /// Elements the tile sends its write sink: a multi-round GEMV
    /// writes every round's partials.
    fn written(&self) -> u64 {
        match self {
            TileSem::Gemv(g) => (g.y_len() * (2 * g.y_rounds() - 1)) as u64,
            TileSem::Ger(g) => (g.n * g.m) as u64,
        }
    }
}

impl ModuleSem {
    /// Is this a stateless elementwise relay fusion may absorb?
    pub fn is_relay(&self) -> bool {
        matches!(
            self,
            ModuleSem::Copy | ModuleSem::Scal { .. } | ModuleSem::Axpy { .. }
        )
    }

    /// Number of input streams a relay consumes.
    pub fn relay_arity(&self) -> Option<usize> {
        match self {
            ModuleSem::Copy | ModuleSem::Scal { .. } => Some(1),
            ModuleSem::Axpy { .. } => Some(2),
            _ => None,
        }
    }
}

/// Infer per-node semantics from module names and kinds — the best a
/// raw `graph` document offers. Compute nodes are classified by base
/// name (up to `#`); interfaces by whether they source or sink.
pub fn infer_sems(g: &Mdag, width: usize) -> Vec<ModuleSem> {
    let n = g.node_count();
    let mut has_in = vec![false; n];
    let mut has_out = vec![false; n];
    for e in g.edges() {
        has_out[e.from.0] = true;
        has_in[e.to.0] = true;
    }
    g.node_ids()
        .map(|id| {
            let name = g.node_name(id);
            let base = name.split('#').next().unwrap_or(name);
            match g.node_kind(id) {
                ModuleKind::Interface => {
                    if has_out[id.0] && !has_in[id.0] {
                        ModuleSem::Read
                    } else if has_in[id.0] && !has_out[id.0] {
                        ModuleSem::Write
                    } else {
                        ModuleSem::Opaque
                    }
                }
                ModuleKind::Compute => {
                    if base.starts_with("dup") {
                        ModuleSem::Dup
                    } else if base.starts_with("copy") {
                        ModuleSem::Copy
                    } else if base.starts_with("scal") {
                        ModuleSem::Scal { alpha: None }
                    } else if base.starts_with("axpy") {
                        ModuleSem::Axpy { alpha: None }
                    } else if base.starts_with("sdsdot") {
                        // Mixed-precision accumulation: no fused replay
                        // of it exists.
                        ModuleSem::Opaque
                    } else if base.starts_with("dot") {
                        ModuleSem::Reduce { width }
                    } else if base.starts_with("gemv") || base.starts_with("ger") {
                        ModuleSem::Stateful
                    } else {
                        ModuleSem::Opaque
                    }
                }
            }
        })
        .collect()
}

/// Per-node semantics of a planned component: node names carry the
/// program op index (`scal#3`), so coefficients are exact.
pub fn sems_for_component(g: &Mdag, ops: &[Op], width: usize) -> Vec<ModuleSem> {
    let base = infer_sems(g, width);
    g.node_ids()
        .map(|id| {
            let name = g.node_name(id);
            if let Some((_, idx)) = name.rsplit_once('#') {
                if let Ok(oi) = idx.parse::<usize>() {
                    if let Some(op) = ops.get(oi) {
                        return match op {
                            Op::Copy { .. } => ModuleSem::Copy,
                            Op::Scal { alpha, .. } => ModuleSem::Scal {
                                alpha: Some(*alpha),
                            },
                            Op::Axpy { alpha, .. } => ModuleSem::Axpy {
                                alpha: Some(*alpha),
                            },
                            Op::Dot { .. } => ModuleSem::Reduce { width },
                            Op::Gemv { .. } | Op::Ger { .. } => ModuleSem::Stateful,
                        };
                    }
                }
            }
            base[id.0].clone()
        })
        .collect()
}

// ---------------------------------------------------------------------
// The artifact.
// ---------------------------------------------------------------------

/// A channel crossing the region boundary, with its instantiated depth
/// (fusion must preserve boundary depths — only internal channels
/// collapse).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryChannel {
    /// Channel name, `producer->consumer`.
    pub channel: String,
    /// Instantiated FIFO depth.
    pub depth: u64,
}

/// One machine-checkable condition the fused backend may assume and a
/// verifier must re-establish before trusting the region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Obligation {
    /// Stable kind tag (e.g. `uniform-rate`, `convex`).
    pub kind: String,
    /// Human-readable statement of the condition.
    pub detail: String,
}

/// A maximal legally-fusable region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusedRegion {
    /// Region name (`fuse0`, `fuse1`, …).
    pub name: String,
    /// Member modules in topological order, including absorbed
    /// interface reads and writes.
    pub modules: Vec<String>,
    /// Channels entering the region from outside.
    pub inputs: Vec<BoundaryChannel>,
    /// Channel leaving the region, if its tail feeds an external
    /// consumer (`None` when the tail drains into an absorbed write).
    pub output: Option<BoundaryChannel>,
    /// Elements every channel of the region carries.
    pub elements: u64,
    /// Proof obligations the region was admitted under.
    pub obligations: Vec<Obligation>,
}

/// A chain (or single module) that cannot be fused, with the witness
/// that blocks it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusionRejection {
    /// Modules of the rejected chain.
    pub modules: Vec<String>,
    /// Stable reason tag (`stateful`, `reassociation`, `fanout`,
    /// `rate-change`, `burst`, `order-mismatch`, `arity-mismatch`,
    /// `feedback`, `recovery-guards`, `singleton`, `replay-contract`,
    /// `unknown-semantics`).
    pub reason: String,
    /// The blocking module, when one exists in the graph.
    pub witness_module: Option<String>,
    /// The blocking channel (`producer->consumer`), when one exists.
    pub witness_channel: Option<String>,
}

/// Summary counters for the bench artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusionStats {
    /// Chains examined: fused regions plus rejections.
    pub chains_found: u64,
    /// Regions admitted.
    pub fused: u64,
    /// Rejection counts keyed by reason tag.
    pub rejected: BTreeMap<String, u64>,
}

/// The serializable analysis result — the exact input the future fused
/// backend consumes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusionPlan {
    /// Schema tag ([`FUSION_PLAN_SCHEMA`]).
    pub schema: String,
    /// Source file (programs append `#c<i>` per component).
    pub file: String,
    /// Admitted regions.
    pub regions: Vec<FusedRegion>,
    /// Rejected chains with witnesses.
    pub rejections: Vec<FusionRejection>,
    /// Summary counters.
    pub stats: FusionStats,
}

impl FusionPlan {
    /// Pretty JSON. Field order is struct order and all maps are
    /// ordered, so serialization is byte-stable across round trips.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("{}"))
    }

    /// Parse a plan back from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Region discovery.
// ---------------------------------------------------------------------

/// What a relay node looks like from the fusion analysis: its uniform
/// rate, its (at most one) forwarding edge, and the write-sink tees it
/// may keep.
struct RelayShape {
    rate: u64,
    main_out: Option<usize>,
    sink_outs: Vec<usize>,
}

enum RelayVerdict {
    Fusable(RelayShape),
    Blocked {
        reason: &'static str,
        channel: Option<usize>,
    },
}

fn channel_name(g: &Mdag, e: &EdgeInfo) -> String {
    format!("{}->{}", g.node_name(e.from), g.node_name(e.to))
}

fn relay_shape(
    _g: &Mdag,
    sems: &[ModuleSem],
    edges: &[EdgeInfo],
    in_edges: &[Vec<usize>],
    out_edges: &[Vec<usize>],
    node: usize,
) -> RelayVerdict {
    let arity = match sems[node].relay_arity() {
        Some(a) => a,
        None => {
            return RelayVerdict::Blocked {
                reason: "unknown-semantics",
                channel: None,
            }
        }
    };
    if in_edges[node].len() != arity {
        return RelayVerdict::Blocked {
            reason: "arity-mismatch",
            channel: in_edges[node].first().copied(),
        };
    }
    let mut rate = None;
    for &ei in in_edges[node].iter().chain(&out_edges[node]) {
        let e = &edges[ei];
        if e.produced != e.consumed {
            return RelayVerdict::Blocked {
                reason: "rate-change",
                channel: Some(ei),
            };
        }
        if e.burst_before_consume > 0 {
            return RelayVerdict::Blocked {
                reason: "burst",
                channel: Some(ei),
            };
        }
        if !e.order_compatible {
            return RelayVerdict::Blocked {
                reason: "order-mismatch",
                channel: Some(ei),
            };
        }
        match rate {
            None => rate = Some(e.produced),
            Some(r) if r != e.produced => {
                return RelayVerdict::Blocked {
                    reason: "rate-change",
                    channel: Some(ei),
                }
            }
            Some(_) => {}
        }
    }
    // Partition outputs: tees into single-writer interface sinks ride
    // along (the planner tees every op output to a `write_*` node);
    // anything else is the forwarding edge, of which a relay may have
    // at most one ("single computational consumer").
    let mut main_out = None;
    let mut sink_outs = Vec::new();
    for &ei in &out_edges[node] {
        let t = edges[ei].to.0;
        if sems[t] == ModuleSem::Write && in_edges[t].len() == 1 {
            sink_outs.push(ei);
        } else if main_out.is_none() {
            main_out = Some(ei);
        } else {
            return RelayVerdict::Blocked {
                reason: "fanout",
                channel: Some(ei),
            };
        }
    }
    RelayVerdict::Fusable(RelayShape {
        rate: rate.unwrap_or(0),
        main_out,
        sink_outs,
    })
}

/// Why the `width`-wide reduction `node` cannot close a region —
/// `(reason, witness channel)` — or `None` when the fused loop can
/// replay it: a DOT at [`EXEC_WIDTH`] over two same-rate streamed
/// inputs whose scalar drains only into interface writes.
fn reduce_blocker(
    width: usize,
    sems: &[ModuleSem],
    edges: &[EdgeInfo],
    in_edges: &[Vec<usize>],
    out_edges: &[Vec<usize>],
    node: usize,
) -> Option<(&'static str, Option<usize>)> {
    if width != EXEC_WIDTH {
        // Another W groups the sum differently from the threaded Dot;
        // at W = 1 nothing reassociates, but N elements still become 1.
        let reason = if width > 1 {
            "reassociation"
        } else {
            "rate-change"
        };
        return Some((reason, None));
    }
    if in_edges[node].len() != 2 {
        return Some(("arity-mismatch", in_edges[node].first().copied()));
    }
    let rate = edges[in_edges[node][0]].produced;
    for &ei in &in_edges[node] {
        let e = &edges[ei];
        if e.produced != e.consumed || e.produced != rate {
            return Some(("rate-change", Some(ei)));
        }
        if e.burst_before_consume > 0 {
            return Some(("burst", Some(ei)));
        }
        if !e.order_compatible {
            return Some(("order-mismatch", Some(ei)));
        }
    }
    // The scalar is one element: a computational consumer would
    // change the rate across the region boundary.
    for &ei in &out_edges[node] {
        let t = edges[ei].to.0;
        if sems[t] != ModuleSem::Write || in_edges[t].len() != 1 {
            return Some(("rate-change", Some(ei)));
        }
    }
    None
}

fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

fn no_recovery_hooks() -> Obligation {
    Obligation {
        kind: "no-recovery-hooks".to_string(),
        detail: "no fault hook or retry guard is armed over the region's channels".to_string(),
    }
}

/// The obligations a region is admitted under. `reduce` names the DOT
/// that closes it, if any: its `block-replay` obligation then stands in
/// for `no-reassociation`.
fn region_obligations(elements: u64, reduce: Option<&str>) -> Vec<Obligation> {
    let mk = |kind: &str, detail: String| Obligation {
        kind: kind.to_string(),
        detail,
    };
    let (elementwise, order) = match reduce {
        None => (
            "every fused compute module is a stateless 1:1 relay (copy/scal/axpy)".to_string(),
            mk(
                "no-reassociation",
                "the region contains no W-way reduction; fused order equals streamed order"
                    .to_string(),
            ),
        ),
        Some(dot) => (
            format!(
                "every fused compute module but `{dot}` is a stateless 1:1 relay (copy/scal/axpy)"
            ),
            mk(
                "block-replay",
                format!(
                    "`{dot}` is the region's only reduction, follows every relay, reduces at \
                     W = {EXEC_WIDTH} like the threaded Dot, and drains its scalar only into \
                     absorbed writes; the fused loop replays its W-lane blocks in stream order"
                ),
            ),
        ),
    };
    let rate = match reduce {
        None => format!("every channel incident to the region carries exactly {elements} elements"),
        Some(dot) => format!(
            "every channel incident to the region but `{dot}`'s scalar carries exactly \
             {elements} elements"
        ),
    };
    vec![
        mk("uniform-rate", rate),
        mk(
            "spsc",
            "each fused channel has exactly one producer and one computational consumer"
                .to_string(),
        ),
        mk(
            "no-burst",
            "no channel incident to the region carries a burst-before-consume annotation"
                .to_string(),
        ),
        mk(
            "convex",
            "no path leaves the region and re-enters it (fusing cannot deadlock a bypass)"
                .to_string(),
        ),
        mk("elementwise", elementwise),
        order,
        no_recovery_hooks(),
        mk(
            "boundary-depths-preserved",
            "channels crossing the region boundary keep their instantiated depths".to_string(),
        ),
    ]
}

// ---------------------------------------------------------------------
// Tile replay: a component of Level-2 tiles run op by op.
// ---------------------------------------------------------------------

/// One broken `tile-replay` condition: the rejection tag, the message
/// `check_obligations` reports, and the witnesses.
struct TileViolation {
    reason: &'static str,
    detail: String,
    module: usize,
    channel: Option<usize>,
}

/// The tiles of `g` when every compute module is a [`ModuleSem::Tile`]
/// or a duplicator of a DRAM-read matrix — the only components tile
/// replay may run — and `None` otherwise.
fn tile_members(g: &Mdag, sems: &[ModuleSem], edges: &[EdgeInfo]) -> Option<Vec<usize>> {
    let mut tiles = Vec::new();
    for id in g.node_ids() {
        let i = id.0;
        match &sems[i] {
            ModuleSem::Tile(_) => tiles.push(i),
            ModuleSem::Dup => {
                let mut ins = edges.iter().filter(|e| e.to.0 == i);
                let from_read = ins
                    .next()
                    .is_some_and(|e| sems[e.from.0] == ModuleSem::Read);
                if !from_read || ins.next().is_some() {
                    return None;
                }
            }
            _ if g.node_kind(id) == ModuleKind::Compute => return None,
            _ => {}
        }
    }
    (!tiles.is_empty()).then_some(tiles)
}

/// Every way the tiles of `g` break the `tile-replay` obligation, in
/// node order. Each tile must be instantiated the way the planner laid
/// out the graph — the variant its rule picks, `W =` [`EXEC_WIDTH`],
/// the channel counts its replays imply, a tile order its matrix
/// producer emits — every operand it replays must come from DRAM, and
/// the whole graph must complete at its instantiated depths, so replay
/// can never turn a threaded stall into a success.
fn tile_violations(
    g: &Mdag,
    sems: &[ModuleSem],
    edges: &[EdgeInfo],
    tiles: &[usize],
) -> Vec<TileViolation> {
    let mut out = Vec::new();
    let name = |i: usize| g.node_name(super::NodeId(i));
    for &i in tiles {
        let ModuleSem::Tile(tile) = &sems[i] else {
            continue;
        };
        let mut fail = |reason, detail: String, channel| {
            out.push(TileViolation {
                reason,
                detail: format!("`{}` {detail}", name(i)),
                module: i,
                channel,
            })
        };
        if tile.width() != EXEC_WIDTH {
            fail(
                "reassociation",
                format!(
                    "is instantiated at W = {}, the executor's tiles at W = {EXEC_WIDTH}",
                    tile.width()
                ),
                None,
            );
        }
        let ins: Vec<usize> = (0..edges.len()).filter(|&k| edges[k].to.0 == i).collect();
        let from_tile = |k: usize| matches!(sems[edges[k].from.0], ModuleSem::Tile(_));
        if let TileSem::Gemv(gemv) = tile {
            let base = name(i).split('#').next().unwrap_or("");
            let want = if base == "gemv_t" {
                GemvVariant::TransRowStreamed
            } else if ins.get(1).is_some_and(|&k| from_tile(k)) {
                GemvVariant::ColStreamed
            } else {
                GemvVariant::RowStreamed
            };
            if gemv.variant != want {
                fail(
                    "order-mismatch",
                    format!(
                        "is instantiated {:?}, the planner lays it out {want:?}",
                        gemv.variant
                    ),
                    None,
                );
            }
        }
        let want_ins = tile.inputs(ins.len() > 2);
        if ins.len() != want_ins.len() {
            fail(
                "arity-mismatch",
                format!("has {} inputs, expected {}", ins.len(), want_ins.len()),
                ins.first().copied(),
            );
            continue;
        }
        for (&k, &(elements, replayed)) in ins.iter().zip(&want_ins) {
            let e = &edges[k];
            if e.produced != elements || e.consumed != elements {
                fail(
                    "rate-change",
                    format!(
                        "expects {elements} elements on `{}`, which carries {}/{}",
                        channel_name(g, e),
                        e.produced,
                        e.consumed
                    ),
                    Some(k),
                );
            }
            if replayed && sems[e.from.0] != ModuleSem::Read {
                fail(
                    "replay-contract",
                    format!(
                        "replays `{}` through memory, but `{}` is a computational producer",
                        channel_name(g, e),
                        name(e.from.0)
                    ),
                    Some(k),
                );
            }
        }
        // The matrix stream arrives in tiles by rows from a duplicator
        // or a GER; only a DRAM reader adopts the consumer's order.
        let a = &edges[ins[0]];
        let producer_tiling = match &sems[a.from.0] {
            ModuleSem::Read => None,
            ModuleSem::Tile(TileSem::Ger(p)) => Some(p.a_tiling()),
            _ => Some(Tiling::new(
                tile.a_tiling().tn,
                tile.a_tiling().tm,
                TileOrder::RowTilesRowMajor,
            )),
        };
        if producer_tiling.is_some_and(|t| t != tile.a_tiling()) || !a.order_compatible {
            fail(
                "order-mismatch",
                format!(
                    "consumes `{}` as {:?}, which its producer does not emit",
                    channel_name(g, a),
                    tile.a_tiling()
                ),
                Some(ins[0]),
            );
        }
        for (k, e) in edges.iter().enumerate() {
            if e.from.0 == i && sems[e.to.0] == ModuleSem::Write && e.produced != tile.written() {
                fail(
                    "rate-change",
                    format!(
                        "writes {} elements, but `{}` carries {}",
                        tile.written(),
                        channel_name(g, e),
                        e.produced
                    ),
                    Some(k),
                );
            }
        }
    }
    if !RateGraph::from_mdag(g).analyze().is_completed() {
        let burst = edges.iter().position(|e| e.burst_before_consume > 0);
        out.push(TileViolation {
            reason: if burst.is_some() {
                "burst"
            } else {
                "rate-change"
            },
            detail: "the graph does not complete at its instantiated channel depths".to_string(),
            module: tiles[0],
            channel: burst,
        });
    }
    out
}

fn tile_replay_obligation(tiles: usize) -> Obligation {
    Obligation {
        kind: "tile-replay".to_string(),
        detail: format!(
            "every compute module is one of {tiles} GEMV/GER tiles or a duplicator of a \
             DRAM-read matrix; each tile is instantiated as the planner laid it out (its \
             variant, tile order, replay counts and W = {EXEC_WIDTH}); every replayed operand \
             comes from DRAM; the graph completes at its instantiated depths; the tiles run op \
             by op through the threaded modules' kernels"
        ),
    }
}

/// Topological order of the nodes marked in `in_region` (ties broken
/// by node index).
fn region_topo(
    n: usize,
    edges: &[EdgeInfo],
    out_edges: &[Vec<usize>],
    in_region: &[bool],
) -> Vec<usize> {
    let mut indeg = vec![0usize; n];
    for e in edges {
        if in_region[e.from.0] && in_region[e.to.0] {
            indeg[e.to.0] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| in_region[i] && indeg[i] == 0).collect();
    queue.sort_unstable();
    queue.reverse();
    let mut topo = Vec::new();
    while let Some(u) = queue.pop() {
        topo.push(u);
        for &ei in &out_edges[u] {
            let v = edges[ei].to.0;
            if in_region[v] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                    queue.sort_unstable();
                    queue.reverse();
                }
            }
        }
    }
    topo
}

/// The fusion verdict of a component whose compute modules are all
/// tiles (and matrix duplicators): one `tile-replay` region holding the
/// whole graph, or one rejection — `singleton` for a lone tile (a
/// thread-free run of one GEMV is left to the threaded path, like a
/// lone relay), the first broken condition, or `recovery-guards`.
fn analyze_tiles(
    g: &Mdag,
    sems: &[ModuleSem],
    edges: &[EdgeInfo],
    out_edges: &[Vec<usize>],
    tiles: &[usize],
    recovery_armed: bool,
) -> (Option<FusedRegion>, Option<FusionRejection>) {
    let n = g.node_count();
    let name = |i: usize| g.node_name(super::NodeId(i)).to_string();
    let compute: Vec<String> = g
        .node_ids()
        .filter(|&id| g.node_kind(id) == ModuleKind::Compute)
        .map(|id| name(id.0))
        .collect();
    let reject = |reason: &str, module: usize, channel: Option<usize>| FusionRejection {
        modules: compute.clone(),
        reason: reason.to_string(),
        witness_module: Some(name(module)),
        witness_channel: channel.map(|k| channel_name(g, &edges[k])),
    };
    if tiles.len() < 2 {
        return (None, Some(reject("singleton", tiles[0], None)));
    }
    if let Some(v) = tile_violations(g, sems, edges, tiles).into_iter().next() {
        return (None, Some(reject(v.reason, v.module, v.channel)));
    }
    if recovery_armed {
        return (None, Some(reject("recovery-guards", tiles[0], None)));
    }
    let topo = region_topo(n, edges, out_edges, &vec![true; n]);
    let elements = tiles
        .iter()
        .filter_map(|&i| match &sems[i] {
            ModuleSem::Tile(t) => Some(t.elements()),
            _ => None,
        })
        .sum();
    let region = FusedRegion {
        name: "fuse0".to_string(),
        modules: topo.into_iter().map(name).collect(),
        inputs: Vec::new(),
        output: None,
        elements,
        obligations: vec![tile_replay_obligation(tiles.len()), no_recovery_hooks()],
    };
    (Some(region), None)
}

/// Run the fusion legality analysis over one MDAG.
///
/// `recovery_armed` marks graphs executed under retry/fault guards
/// (`retry_max > 1`, or a live [`fblas_hlssim::SimContext`] with
/// `faults_armed()`): fusing would collapse the channels the guards
/// observe, so every candidate region is rejected with a
/// `recovery-guards` witness instead.
pub fn analyze_fusion(
    g: &Mdag,
    sems: &[ModuleSem],
    file: &str,
    recovery_armed: bool,
) -> FusionPlan {
    let n = g.node_count();
    let edges: Vec<EdgeInfo> = g.edges().collect();
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in edges.iter().enumerate() {
        out_edges[e.from.0].push(ei);
        in_edges[e.to.0].push(ei);
    }

    if let Some(tiles) = tile_members(g, sems, &edges) {
        let (region, rejection) =
            analyze_tiles(g, sems, &edges, &out_edges, &tiles, recovery_armed);
        return finish_plan(
            file,
            region.into_iter().collect(),
            rejection.into_iter().collect(),
        );
    }

    let verdicts: Vec<Option<RelayVerdict>> = (0..n)
        .map(|i| {
            sems[i]
                .is_relay()
                .then(|| relay_shape(g, sems, &edges, &in_edges, &out_edges, i))
        })
        .collect();
    let shape = |i: usize| match &verdicts[i] {
        Some(RelayVerdict::Fusable(s)) => Some(s),
        _ => None,
    };
    let reduce_blocked: Vec<Option<(&'static str, Option<usize>)>> = (0..n)
        .map(|i| match sems[i] {
            ModuleSem::Reduce { width } => {
                reduce_blocker(width, sems, &edges, &in_edges, &out_edges, i)
            }
            _ => None,
        })
        .collect();
    let replayable =
        |i: usize| matches!(sems[i], ModuleSem::Reduce { .. }) && reduce_blocked[i].is_none();

    // Union relay-ok nodes along forwarding edges into in-trees; a
    // replayable reduction can only be a tree's root (it forwards
    // nothing), so every region holds at most one.
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 0..n {
        if let Some(s) = shape(i) {
            if let Some(ei) = s.main_out {
                let v = edges[ei].to.0;
                if shape(v).is_some() || replayable(v) {
                    let (ri, rv) = (find(&mut parent, i), find(&mut parent, v));
                    parent[ri.max(rv)] = ri.min(rv);
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        if shape(i).is_some() || replayable(i) {
            groups.entry(find(&mut parent, i)).or_default().push(i);
        }
    }

    let fg = FlowGraph::from_mdag(g);
    let mut regions: Vec<FusedRegion> = Vec::new();
    let mut rejections: Vec<FusionRejection> = Vec::new();
    let mut fused_node = vec![false; n];

    for members in groups.values() {
        let names = |set: &[usize]| -> Vec<String> {
            set.iter()
                .map(|&i| g.node_name(super::NodeId(i)).to_string())
                .collect()
        };
        let reduce = members.iter().copied().find(|&i| replayable(i));
        if reduce.is_none() && members.len() < 2 {
            rejections.push(FusionRejection {
                modules: names(members),
                reason: "singleton".to_string(),
                witness_module: names(members).into_iter().next(),
                witness_channel: None,
            });
            continue;
        }
        let member_set: Vec<bool> = {
            let mut v = vec![false; n];
            for &i in members {
                v[i] = true;
            }
            v
        };
        let rate = match reduce {
            Some(d) => edges[in_edges[d][0]].produced,
            None => members
                .first()
                .and_then(|&i| shape(i))
                .map(|s| s.rate)
                .unwrap_or(0),
        };

        // Absorb interface reads whose every output feeds the region at
        // the region rate, and the write sinks the relays tee into.
        let mut in_region = member_set.clone();
        for r in 0..n {
            if sems[r] != ModuleSem::Read || out_edges[r].is_empty() {
                continue;
            }
            let all_in = out_edges[r].iter().all(|&ei| {
                let e = &edges[ei];
                member_set[e.to.0]
                    && e.produced == e.consumed
                    && e.produced == rate
                    && e.burst_before_consume == 0
                    && e.order_compatible
            });
            if all_in {
                in_region[r] = true;
            }
        }
        // The reduction's scalar drains into its writes.
        for &ei in reduce.iter().flat_map(|&d| &out_edges[d]) {
            in_region[edges[ei].to.0] = true;
        }
        let mut output = None;
        for &i in members {
            if let Some(s) = shape(i) {
                for &ei in &s.sink_outs {
                    in_region[edges[ei].to.0] = true;
                }
                // The tail's forwarding edge either leaves the region
                // (boundary output) or drains into an absorbable sink.
                if let Some(ei) = s.main_out {
                    let t = edges[ei].to.0;
                    if !member_set[t] {
                        if sems[t] == ModuleSem::Write && in_edges[t].len() == 1 {
                            in_region[t] = true;
                        } else {
                            output = Some(BoundaryChannel {
                                channel: channel_name(g, &edges[ei]),
                                depth: edges[ei].channel_depth,
                            });
                        }
                    }
                }
            }
        }

        // Convexity: a path that exits through any member and re-enters
        // the region would deadlock against the collapsed channels.
        let seeded: Vec<bool> = (0..n)
            .map(|i| !in_region[i] && fg.preds(i).iter().any(|&p| in_region[p]))
            .collect();
        let sol = solve(
            &fg,
            &ExternalReach {
                in_region: &in_region,
                seeded: &seeded,
            },
        );
        let reentry = (0..n).find(|&i| in_region[i] && sol.facts_in[i]);
        if let Some(v) = reentry {
            let witness = in_edges[v]
                .iter()
                .map(|&ei| &edges[ei])
                .find(|e| !in_region[e.from.0] && sol.facts_out[e.from.0]);
            rejections.push(FusionRejection {
                modules: names(members),
                reason: "feedback".to_string(),
                witness_module: Some(g.node_name(super::NodeId(v)).to_string()),
                witness_channel: witness.map(|e| channel_name(g, e)),
            });
            continue;
        }
        if recovery_armed {
            rejections.push(FusionRejection {
                modules: names(members),
                reason: "recovery-guards".to_string(),
                witness_module: names(members).into_iter().next(),
                witness_channel: None,
            });
            continue;
        }

        let topo = region_topo(n, &edges, &out_edges, &in_region);

        let mut inputs = Vec::new();
        for &i in members {
            for &ei in &in_edges[i] {
                let e = &edges[ei];
                if !in_region[e.from.0] {
                    inputs.push(BoundaryChannel {
                        channel: channel_name(g, e),
                        depth: e.channel_depth,
                    });
                }
            }
        }

        for &i in &topo {
            fused_node[i] = true;
        }
        regions.push(FusedRegion {
            name: format!("fuse{}", regions.len()),
            modules: names(&topo),
            inputs,
            output,
            elements: rate,
            obligations: region_obligations(rate, reduce.map(|d| g.node_name(super::NodeId(d)))),
        });
    }

    // Every compute module outside a fused region carries a rejection
    // witness — the record of *why* the backend must keep it threaded.
    for i in 0..n {
        if fused_node[i] {
            continue;
        }
        let name = g.node_name(super::NodeId(i)).to_string();
        let (reason, channel) = match (&sems[i], &verdicts[i]) {
            (_, Some(RelayVerdict::Blocked { reason, channel })) => (*reason, *channel),
            // Singleton or rejected group, already recorded.
            (_, Some(RelayVerdict::Fusable(_))) => continue,
            (ModuleSem::Reduce { .. }, _) => match reduce_blocked[i] {
                Some(blocked) => blocked,
                None => continue, // its group was rejected, already recorded
            },
            (ModuleSem::Stateful | ModuleSem::Tile(_), _) => ("stateful", None),
            (ModuleSem::Dup, _) => ("fanout", None),
            (ModuleSem::Opaque, _) if g.node_kind(super::NodeId(i)) == ModuleKind::Compute => {
                ("unknown-semantics", None)
            }
            _ => continue, // interface reads/writes need no witness
        };
        rejections.push(FusionRejection {
            modules: vec![name.clone()],
            reason: reason.to_string(),
            witness_module: Some(name),
            witness_channel: channel.map(|ei| channel_name(g, &edges[ei])),
        });
    }

    finish_plan(file, regions, rejections)
}

fn finish_plan(
    file: &str,
    regions: Vec<FusedRegion>,
    rejections: Vec<FusionRejection>,
) -> FusionPlan {
    let mut rejected: BTreeMap<String, u64> = BTreeMap::new();
    for r in &rejections {
        *rejected.entry(r.reason.clone()).or_insert(0) += 1;
    }
    let stats = FusionStats {
        chains_found: (regions.len() + rejections.len()) as u64,
        fused: regions.len() as u64,
        rejected,
    };
    FusionPlan {
        schema: FUSION_PLAN_SCHEMA.to_string(),
        file: file.to_string(),
        regions,
        rejections,
        stats,
    }
}

// ---------------------------------------------------------------------
// Plan re-verification (the keystone's contract).
// ---------------------------------------------------------------------

fn node_by_name(g: &Mdag, name: &str) -> Option<usize> {
    g.node_ids()
        .find(|&id| g.node_name(id) == name)
        .map(|id| id.0)
}

fn edge_by_name(g: &Mdag, name: &str) -> Option<EdgeInfo> {
    g.edges().find(|e| channel_name(g, e) == name)
}

/// Re-establish every obligation of every region against the graph.
/// Returns one message per violated (or unknown) obligation; an empty
/// vector means the plan is trustworthy.
pub fn check_obligations(
    plan: &FusionPlan,
    g: &Mdag,
    sems: &[ModuleSem],
    recovery_armed: bool,
) -> Vec<String> {
    let mut errs = Vec::new();
    let n = g.node_count();
    let edges: Vec<EdgeInfo> = g.edges().collect();
    let fg = FlowGraph::from_mdag(g);
    for region in &plan.regions {
        let mut in_region = vec![false; n];
        let mut members = Vec::new();
        for m in &region.modules {
            match node_by_name(g, m) {
                Some(i) => {
                    in_region[i] = true;
                    members.push(i);
                }
                None => {
                    errs.push(format!("{}: module `{m}` not in graph", region.name));
                }
            }
        }
        let relays: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| sems[i].is_relay())
            .collect();
        let reduces: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| matches!(sems[i], ModuleSem::Reduce { .. }))
            .collect();
        let block_replay = region.obligations.iter().any(|o| o.kind == "block-replay");
        // Channels the region streams: every edge of a relay, and the
        // inputs (not the scalar) of a reduction.
        let streamed = |e: &&EdgeInfo| {
            relays.contains(&e.from.0) || relays.contains(&e.to.0) || reduces.contains(&e.to.0)
        };
        for ob in &region.obligations {
            let fail = |errs: &mut Vec<String>, msg: String| {
                errs.push(format!("{}: obligation `{}`: {msg}", region.name, ob.kind));
            };
            match ob.kind.as_str() {
                "uniform-rate" => {
                    for e in edges.iter().filter(streamed) {
                        if e.produced != e.consumed || e.produced != region.elements {
                            fail(
                                &mut errs,
                                format!(
                                    "channel `{}` carries {}/{} elements, expected {}",
                                    channel_name(g, e),
                                    e.produced,
                                    e.consumed,
                                    region.elements
                                ),
                            );
                        }
                    }
                }
                "spsc" => {
                    for &i in &relays {
                        let fanout = edges
                            .iter()
                            .filter(|e| {
                                e.from.0 == i
                                    && !(sems[e.to.0] == ModuleSem::Write && in_region[e.to.0])
                            })
                            .count();
                        if fanout > 1 {
                            fail(
                                &mut errs,
                                format!(
                                    "`{}` fans out to {fanout} computational consumers",
                                    g.node_name(super::NodeId(i))
                                ),
                            );
                        }
                    }
                }
                "no-burst" => {
                    for e in edges.iter().filter(streamed) {
                        if e.burst_before_consume > 0 {
                            fail(
                                &mut errs,
                                format!("channel `{}` bursts", channel_name(g, e)),
                            );
                        }
                    }
                }
                "convex" => {
                    let seeded: Vec<bool> = (0..n)
                        .map(|i| !in_region[i] && fg.preds(i).iter().any(|&p| in_region[p]))
                        .collect();
                    let sol = solve(
                        &fg,
                        &ExternalReach {
                            in_region: &in_region,
                            seeded: &seeded,
                        },
                    );
                    if let Some(v) = (0..n).find(|&i| in_region[i] && sol.facts_in[i]) {
                        fail(
                            &mut errs,
                            format!(
                                "external path re-enters at `{}`",
                                g.node_name(super::NodeId(v))
                            ),
                        );
                    }
                }
                "elementwise" => {
                    for &i in &members {
                        // A reduction is `block-replay`'s to vouch for.
                        let replayed = block_replay && reduces.contains(&i);
                        if !sems[i].is_relay()
                            && !replayed
                            && !matches!(sems[i], ModuleSem::Read | ModuleSem::Write)
                        {
                            fail(
                                &mut errs,
                                format!(
                                    "`{}` is not a stateless relay",
                                    g.node_name(super::NodeId(i))
                                ),
                            );
                        }
                    }
                }
                "no-reassociation" => {
                    for &i in &members {
                        if matches!(sems[i], ModuleSem::Reduce { .. }) {
                            fail(
                                &mut errs,
                                format!("`{}` reduces", g.node_name(super::NodeId(i))),
                            );
                        }
                    }
                }
                "block-replay" => {
                    if reduces.len() != 1 {
                        fail(
                            &mut errs,
                            format!("holds {} reductions, block replay needs one", reduces.len()),
                        );
                    }
                    for &d in &reduces {
                        let name = g.node_name(super::NodeId(d));
                        if let ModuleSem::Reduce { width } = sems[d] {
                            if width != EXEC_WIDTH {
                                fail(
                                    &mut errs,
                                    format!(
                                        "`{name}` reduces at W = {width}, the threaded Dot at \
                                         W = {EXEC_WIDTH}"
                                    ),
                                );
                            }
                        }
                        let at = |i: usize| members.iter().position(|&m| m == i);
                        if let Some(&r) = relays.iter().find(|&&r| at(r) > at(d)) {
                            fail(
                                &mut errs,
                                format!(
                                    "`{name}` is not the tail: relay `{}` follows it",
                                    g.node_name(super::NodeId(r))
                                ),
                            );
                        }
                        for e in edges.iter().filter(|e| e.from.0 == d) {
                            if !in_region[e.to.0] || sems[e.to.0] != ModuleSem::Write {
                                fail(
                                    &mut errs,
                                    format!(
                                        "`{name}`'s scalar leaves the region on `{}`",
                                        channel_name(g, e)
                                    ),
                                );
                            }
                        }
                    }
                }
                "tile-replay" => {
                    if let Some(missing) = g.node_ids().find(|id| !in_region[id.0]) {
                        fail(
                            &mut errs,
                            format!("`{}` is outside the region", g.node_name(missing)),
                        );
                    }
                    match tile_members(g, sems, &edges) {
                        None => fail(
                            &mut errs,
                            "a compute module is neither a tile nor a matrix duplicator"
                                .to_string(),
                        ),
                        Some(tiles) if tiles.len() < 2 => fail(
                            &mut errs,
                            format!(
                                "`{}` is the only tile; a singleton stays threaded",
                                g.node_name(super::NodeId(tiles[0]))
                            ),
                        ),
                        Some(tiles) => {
                            for v in tile_violations(g, sems, &edges, &tiles) {
                                fail(&mut errs, v.detail);
                            }
                        }
                    }
                }
                "no-recovery-hooks" => {
                    if recovery_armed {
                        fail(&mut errs, "a recovery guard is armed".to_string());
                    }
                }
                "boundary-depths-preserved" => {
                    for bc in region.inputs.iter().chain(region.output.as_ref()) {
                        match edge_by_name(g, &bc.channel) {
                            Some(e) if e.channel_depth == bc.depth => {}
                            Some(e) => fail(
                                &mut errs,
                                format!(
                                    "boundary `{}` has depth {}, plan says {}",
                                    bc.channel, e.channel_depth, bc.depth
                                ),
                            ),
                            None => {
                                fail(&mut errs, format!("boundary `{}` not in graph", bc.channel))
                            }
                        }
                    }
                }
                other => fail(&mut errs, format!("unknown obligation kind `{other}`")),
            }
        }
    }
    errs
}

/// Check every rejection's witness against the graph: the named
/// modules and channels must exist. Returns one message per dangling
/// witness.
pub fn verify_witnesses(plan: &FusionPlan, g: &Mdag) -> Vec<String> {
    let mut errs = Vec::new();
    for (ri, rej) in plan.rejections.iter().enumerate() {
        for m in rej.modules.iter().chain(rej.witness_module.as_ref()) {
            if node_by_name(g, m).is_none() {
                errs.push(format!(
                    "rejection #{ri} ({}): module `{m}` not in graph",
                    rej.reason
                ));
            }
        }
        if let Some(ch) = &rej.witness_channel {
            if edge_by_name(g, ch).is_none() {
                errs.push(format!(
                    "rejection #{ri} ({}): channel `{ch}` not in graph",
                    rej.reason
                ));
            }
        }
        if rej.witness_module.is_none() && rej.witness_channel.is_none() {
            errs.push(format!("rejection #{ri} ({}): no witness", rej.reason));
        }
    }
    errs
}

// ---------------------------------------------------------------------
// Straight-line evaluation of a fused region.
// ---------------------------------------------------------------------

/// The single floating-point semantics both execution styles share.
/// The threaded value harness applies this per element per module; the
/// fused evaluator applies it per element per step. One function, one
/// operation order — bit-identity between the two is by construction,
/// which is exactly why fusing a relay chain is legal. A region's
/// closing DOT gets the same guarantee from [`DotAccumulator`].
pub fn apply_elementwise(sem: &ModuleSem, ins: &[f32]) -> Option<f32> {
    apply_elementwise_t::<f32>(sem, ins)
}

/// Generic form of [`apply_elementwise`]: the exact operations the
/// production routine modules perform per element — `scal` multiplies
/// (`α·x`), `axpy` uses a fused multiply-add (`α.mul_add(x, y)`), and
/// `copy` forwards. Both the fused backend and the threaded harness
/// route through this one function.
pub fn apply_elementwise_t<T: Scalar>(sem: &ModuleSem, ins: &[T]) -> Option<T> {
    let x = ins.first()?;
    let mut out = [T::ZERO];
    apply_lanes(
        sem,
        std::slice::from_ref(x),
        ins.get(1).map(std::slice::from_ref),
        &mut out,
    )?;
    Some(out[0])
}

/// [`apply_elementwise_t`] over a run of lanes: `out[k]` is the relay
/// applied to `x[k]` (and `y[k]`), with the semantics matched once per
/// run instead of once per element. `None` for a non-relay, or an
/// `axpy` without `y`.
pub fn apply_lanes<T: Scalar>(
    sem: &ModuleSem,
    x: &[T],
    y: Option<&[T]>,
    out: &mut [T],
) -> Option<()> {
    match (sem, y) {
        (ModuleSem::Copy, _) => out.copy_from_slice(x),
        (ModuleSem::Scal { alpha }, _) => {
            let alpha = T::from_f64(alpha.unwrap_or(1.0));
            for (o, x) in out.iter_mut().zip(x) {
                *o = alpha * *x;
            }
        }
        (ModuleSem::Axpy { alpha }, Some(y)) => {
            let alpha = T::from_f64(alpha.unwrap_or(1.0));
            for ((o, x), y) in out.iter_mut().zip(x).zip(y) {
                *o = alpha.mul_add(*x, *y);
            }
        }
        _ => return None,
    }
    Some(())
}

/// Where a step reads a value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// An earlier step's result.
    Slot(usize),
    /// An input stream (index into [`FusedEvaluator::inputs`]).
    Input(usize),
}

/// One fused relay application.
#[derive(Debug, Clone)]
pub struct FusedStep {
    /// Result slot.
    pub slot: usize,
    /// Relay semantics.
    pub sem: ModuleSem,
    /// Operand sources, in the module's input-channel order.
    pub srcs: Vec<Src>,
}

/// One absorbed write sink.
#[derive(Debug, Clone)]
pub struct FusedSink {
    /// Sink module name (keys the output map).
    pub module: String,
    /// Value the sink drains.
    pub src: Src,
}

/// The DOT closing a region: every element feeds one lane pair of a
/// [`DotAccumulator`] after the relay steps ran.
#[derive(Debug, Clone)]
pub struct FusedReduce {
    /// Reduction module name.
    pub module: String,
    /// Adder-tree width `W` of the replayed blocks.
    pub width: usize,
    /// The `x` and `y` lanes, in the module's input-channel order.
    pub srcs: [Src; 2],
    /// Absorbed writes draining the scalar.
    pub sinks: Vec<String>,
}

/// The straight-line per-element program a fused region compiles to.
#[derive(Debug, Clone)]
pub struct FusedEvaluator {
    /// Input stream keys: absorbed read module names, then boundary
    /// channel names.
    pub inputs: Vec<String>,
    /// Relay applications in topological order.
    pub steps: Vec<FusedStep>,
    /// Absorbed write sinks of relay values.
    pub sinks: Vec<FusedSink>,
    /// Value forwarded on the region's output channel, if any.
    pub output: Option<Src>,
    /// The reduction closing the region, if any.
    pub reduce: Option<FusedReduce>,
    /// Elements to process.
    pub elements: u64,
}

/// Outputs of one fused run.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedRun {
    /// Values drained by each absorbed write, keyed by module name.
    pub sinks: BTreeMap<String, Vec<f32>>,
    /// Values forwarded on the region output channel.
    pub output: Vec<f32>,
}

/// Compile a [`FusedRegion`] against its graph into a straight-line
/// evaluator. `sems` must carry concrete coefficients for the region's
/// relays.
pub fn build_evaluator(
    g: &Mdag,
    sems: &[ModuleSem],
    region: &FusedRegion,
) -> Result<FusedEvaluator, String> {
    let edges: Vec<EdgeInfo> = g.edges().collect();
    let n = g.node_count();
    let mut in_region = vec![false; n];
    let mut nodes = Vec::new();
    for m in &region.modules {
        let i = node_by_name(g, m).ok_or_else(|| format!("module `{m}` not in graph"))?;
        in_region[i] = true;
        nodes.push(i);
    }

    let mut inputs: Vec<String> = nodes
        .iter()
        .filter(|&&i| sems[i] == ModuleSem::Read)
        .map(|&i| g.node_name(super::NodeId(i)).to_string())
        .collect();
    inputs.extend(region.inputs.iter().map(|bc| bc.channel.clone()));
    let input_index = |key: &str| -> Option<usize> { inputs.iter().position(|k| k == key) };

    let mut slot_of: Vec<Option<usize>> = vec![None; n];
    let mut steps = Vec::new();
    let mut reduce: Option<FusedReduce> = None;
    for &i in &nodes {
        let width = match sems[i] {
            ModuleSem::Reduce { width } => Some(width),
            _ if sems[i].is_relay() => None,
            _ => continue,
        };
        let mut srcs = Vec::new();
        for e in edges.iter().filter(|e| e.to.0 == i) {
            let f = e.from.0;
            let src = if in_region[f] && sems[f].is_relay() {
                Src::Slot(
                    slot_of[f]
                        .ok_or_else(|| "region modules out of topological order".to_string())?,
                )
            } else if in_region[f] && sems[f] == ModuleSem::Read {
                Src::Input(
                    input_index(g.node_name(e.from))
                        .ok_or_else(|| "absorbed read missing from inputs".to_string())?,
                )
            } else {
                let name = channel_name(g, e);
                Src::Input(
                    input_index(&name)
                        .ok_or_else(|| format!("boundary channel `{name}` missing from plan"))?,
                )
            };
            srcs.push(src);
        }
        let Some(width) = width else {
            let slot = steps.len();
            slot_of[i] = Some(slot);
            steps.push(FusedStep {
                slot,
                sem: sems[i].clone(),
                srcs,
            });
            continue;
        };
        if reduce.is_some() {
            return Err("region holds more than one reduction".to_string());
        }
        let srcs: [Src; 2] = srcs
            .try_into()
            .map_err(|_| "a reduction needs exactly two inputs".to_string())?;
        reduce = Some(FusedReduce {
            module: g.node_name(super::NodeId(i)).to_string(),
            width,
            srcs,
            sinks: Vec::new(),
        });
    }

    let mut sinks = Vec::new();
    for &w in nodes.iter().filter(|&&i| sems[i] == ModuleSem::Write) {
        let feeder = edges
            .iter()
            .find(|e| e.to.0 == w)
            .ok_or_else(|| "absorbed write has no feeder".to_string())?;
        let module = g.node_name(super::NodeId(w)).to_string();
        if let Some(r) = reduce
            .as_mut()
            .filter(|r| r.module == g.node_name(feeder.from))
        {
            r.sinks.push(module);
            continue;
        }
        let slot = slot_of[feeder.from.0]
            .ok_or_else(|| "absorbed write fed from outside the region".to_string())?;
        sinks.push(FusedSink {
            module,
            src: Src::Slot(slot),
        });
    }

    let output = match &region.output {
        None => None,
        Some(bc) => {
            let e = edge_by_name(g, &bc.channel)
                .ok_or_else(|| format!("output channel `{}` not in graph", bc.channel))?;
            Some(Src::Slot(slot_of[e.from.0].ok_or_else(|| {
                "output channel fed from outside the region".to_string()
            })?))
        }
    };

    Ok(FusedEvaluator {
        inputs,
        steps,
        sinks,
        output,
        reduce,
        elements: region.elements,
    })
}

/// `W`-lane blocks per stride of [`FusedEvaluator::execute`]: long
/// enough that interpreting the steps costs little per element, short
/// enough that every slot stays in L1.
const STRIDE_BLOCKS: usize = 64;

/// What one pass of a region's loop produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedValues<T> {
    /// Values of each relay sink, in [`FusedEvaluator::sinks`] order.
    pub sinks: Vec<Vec<T>>,
    /// Values forwarded on the region output channel.
    pub output: Vec<T>,
    /// The closing DOT's scalar, if the region has one.
    pub reduced: Option<T>,
}

/// The lanes `block` of a source: a slot holds the current block from
/// its start, an input stream the whole stream.
fn lanes<'a, T>(
    slots: &'a [Vec<T>],
    ins: &[&'a [T]],
    src: Src,
    block: &std::ops::Range<usize>,
) -> Result<&'a [T], String> {
    match src {
        Src::Slot(i) => slots
            .get(i)
            .map(|s| &s[..block.len()])
            .ok_or_else(|| format!("slot {i} read before it is computed")),
        Src::Input(i) => ins
            .get(i)
            .map(|s| &s[block.clone()])
            .ok_or_else(|| format!("no input #{i}")),
    }
}

impl FusedEvaluator {
    /// The straight-line loop itself, shared by [`FusedEvaluator::run`]
    /// and the fused execution backend. It walks the elements in
    /// strides of 64 `W`-lane blocks aligned to the start of the stream
    /// — `W` is the closing DOT's width, [`EXEC_WIDTH`] otherwise — and
    /// per stride runs every relay step through [`apply_lanes`], reads
    /// the sinks and output off their slots, and hands the closing DOT's
    /// lane pairs to a [`DotAccumulator`], which cuts them into the same
    /// `W`-lane blocks. Relays are elementwise, so the stride changes no
    /// bit. `ins` holds the input streams in [`FusedEvaluator::inputs`]
    /// order, each at least `elements` long.
    pub fn execute<T: Scalar>(&self, ins: &[&[T]]) -> Result<FusedValues<T>, String> {
        let elements = self.elements as usize;
        if let Some(short) = ins.iter().position(|s| s.len() < elements) {
            return Err(format!(
                "input #{short} has {} elements, region needs {elements}",
                ins[short].len()
            ));
        }
        let stride = self.reduce.as_ref().map_or(EXEC_WIDTH, |r| r.width).max(1) * STRIDE_BLOCKS;
        let mut sinks: Vec<Vec<T>> = self
            .sinks
            .iter()
            .map(|_| Vec::with_capacity(elements))
            .collect();
        let mut output = Vec::new();
        let mut dot = self
            .reduce
            .as_ref()
            .map(|r| DotAccumulator::<T>::new(r.width));
        let mut slots = vec![vec![T::ZERO; stride.min(elements)]; self.steps.len()];
        let mut t0 = 0;
        while t0 < elements {
            let len = stride.min(elements - t0);
            let block = t0..t0 + len;
            for step in &self.steps {
                // Topological order: a step reads only earlier slots.
                let (done, rest) = slots.split_at_mut(step.slot.min(self.steps.len()));
                let out = rest
                    .first_mut()
                    .ok_or_else(|| format!("slot {} out of range", step.slot))?;
                let first = *step.srcs.first().ok_or("a relay needs an input")?;
                let x = lanes(done, ins, first, &block)?;
                let y = step
                    .srcs
                    .get(1)
                    .map(|&s| lanes(done, ins, s, &block))
                    .transpose()?;
                apply_lanes(&step.sem, x, y, &mut out[..len])
                    .ok_or_else(|| format!("slot {}: non-relay semantics", step.slot))?;
            }
            for (buf, sink) in sinks.iter_mut().zip(&self.sinks) {
                buf.extend_from_slice(lanes(&slots, ins, sink.src, &block)?);
            }
            if let Some(src) = self.output {
                output.extend_from_slice(lanes(&slots, ins, src, &block)?);
            }
            if let (Some(r), Some(acc)) = (&self.reduce, dot.as_mut()) {
                acc.push_lanes(
                    lanes(&slots, ins, r.srcs[0], &block)?,
                    lanes(&slots, ins, r.srcs[1], &block)?,
                );
            }
            t0 += len;
        }
        Ok(FusedValues {
            sinks,
            output,
            reduced: dot.map(DotAccumulator::finish),
        })
    }

    /// Execute the straight-line loop on named input streams.
    pub fn run(&self, streams: &BTreeMap<String, Vec<f32>>) -> Result<FusedRun, String> {
        let mut ins: Vec<&[f32]> = Vec::with_capacity(self.inputs.len());
        for key in &self.inputs {
            let s = streams
                .get(key)
                .ok_or_else(|| format!("missing input stream `{key}`"))?;
            if (s.len() as u64) < self.elements {
                return Err(format!(
                    "input `{key}` has {} elements, region needs {}",
                    s.len(),
                    self.elements
                ));
            }
            ins.push(s);
        }
        let values = self.execute(&ins)?;
        let mut sinks: BTreeMap<String, Vec<f32>> = self
            .sinks
            .iter()
            .map(|s| s.module.clone())
            .zip(values.sinks)
            .collect();
        if let (Some(r), Some(v)) = (&self.reduce, values.reduced) {
            for module in &r.sinks {
                sinks.insert(module.clone(), vec![v]);
            }
        }
        Ok(FusedRun {
            sinks,
            output: values.output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// read_x, read_y → scal → axpy → write_z, with a tee from scal to
    /// write_t: the canonical two-relay fusable chain.
    fn chain_graph() -> (Mdag, Vec<ModuleSem>) {
        let mut g = Mdag::new();
        let rx = g.add_interface("read_x");
        let ry = g.add_interface("read_y");
        let scal = g.add_compute("scal#0");
        let axpy = g.add_compute("axpy#1");
        let wt = g.add_interface("write_t");
        let wz = g.add_interface("write_z");
        g.add_edge(rx, scal, 64, 64, 16);
        g.add_edge(scal, axpy, 64, 64, 16);
        g.add_edge(ry, axpy, 64, 64, 16);
        g.add_edge(scal, wt, 64, 64, 16);
        g.add_edge(axpy, wz, 64, 64, 16);
        let mut sems = infer_sems(&g, 1);
        sems[scal.0] = ModuleSem::Scal { alpha: Some(3.0) };
        sems[axpy.0] = ModuleSem::Axpy { alpha: Some(-2.0) };
        (g, sems)
    }

    #[test]
    fn relay_chain_fuses_with_absorbed_interfaces() {
        let (g, sems) = chain_graph();
        let plan = analyze_fusion(&g, &sems, "chain", false);
        assert_eq!(plan.stats.fused, 1, "{}", plan.to_json());
        let region = &plan.regions[0];
        assert_eq!(region.elements, 64);
        // Both reads, both relays and both writes are absorbed.
        assert_eq!(region.modules.len(), 6);
        assert!(region.inputs.is_empty(), "all producers absorbed");
        assert!(region.output.is_none(), "tail drains into write_z");
        assert_eq!(region.obligations.len(), 8);
        assert!(check_obligations(&plan, &g, &sems, false).is_empty());
        assert!(verify_witnesses(&plan, &g).is_empty());
    }

    #[test]
    fn evaluator_matches_hand_computation() {
        let (g, sems) = chain_graph();
        let plan = analyze_fusion(&g, &sems, "chain", false);
        let eval = build_evaluator(&g, &sems, &plan.regions[0]).unwrap();
        let mut streams = BTreeMap::new();
        streams.insert("read_x".to_string(), vec![1.0f32; 64]);
        streams.insert("read_y".to_string(), vec![0.5f32; 64]);
        let run = eval.run(&streams).unwrap();
        // scal: 3·1 = 3; axpy: −2·3 + 0.5 = −5.5.
        assert_eq!(run.sinks["write_t"][0], 3.0);
        assert_eq!(run.sinks["write_z"][0], -5.5);
        assert!(run.output.is_empty());
    }

    #[test]
    fn fanout_to_compute_blocks_the_relay() {
        let mut g = Mdag::new();
        let rx = g.add_interface("read_x");
        let scal = g.add_compute("scal#0");
        let c1 = g.add_compute("copy#1");
        let c2 = g.add_compute("copy#2");
        let w1 = g.add_interface("write_a");
        let w2 = g.add_interface("write_b");
        g.add_edge(rx, scal, 8, 8, 4);
        g.add_edge(scal, c1, 8, 8, 4);
        g.add_edge(scal, c2, 8, 8, 4);
        g.add_edge(c1, w1, 8, 8, 4);
        g.add_edge(c2, w2, 8, 8, 4);
        let sems = infer_sems(&g, 1);
        let plan = analyze_fusion(&g, &sems, "fanout", false);
        assert_eq!(plan.stats.fused, 0);
        assert!(plan
            .rejections
            .iter()
            .any(|r| r.reason == "fanout" && r.witness_module.as_deref() == Some("scal#0")));
        assert!(verify_witnesses(&plan, &g).is_empty());
    }

    /// read_x → dot#0 ← read_y, dot#0 → write_d: a bare DOT.
    fn dot_graph() -> Mdag {
        let mut g = Mdag::new();
        let rx = g.add_interface("read_x");
        let ry = g.add_interface("read_y");
        let dot = g.add_compute("dot#0");
        let w = g.add_interface("write_d");
        g.add_edge(rx, dot, 64, 64, 16);
        g.add_edge(ry, dot, 64, 64, 16);
        g.add_edge(dot, w, 1, 1, 1);
        g
    }

    #[test]
    fn wide_reduction_is_rejected_for_reassociation() {
        let g = dot_graph();
        // At the executor's width the DOT replays block by block.
        let sems = infer_sems(&g, EXEC_WIDTH);
        let plan = analyze_fusion(&g, &sems, "dot", false);
        assert_eq!(plan.stats.fused, 1, "{}", plan.to_json());
        assert!(plan.rejections.is_empty());
        // Any other W > 1 groups the sum differently: still rejected,
        // with the reducer as witness.
        let sems8 = infer_sems(&g, 8);
        let plan8 = analyze_fusion(&g, &sems8, "dot", false);
        assert_eq!(plan8.stats.fused, 0);
        assert!(plan8
            .rejections
            .iter()
            .any(|r| r.reason == "reassociation" && r.witness_module.as_deref() == Some("dot#0")));
        // At W = 1 the reduction no longer reassociates but still
        // changes the rate (N in, 1 out).
        let sems1 = infer_sems(&g, 1);
        let plan1 = analyze_fusion(&g, &sems1, "dot", false);
        assert!(plan1.rejections.iter().any(|r| r.reason == "rate-change"));
        // SDSDOT accumulates in f64, which no fused loop replays.
        let mut s = Mdag::new();
        s.add_compute("sdsdot#0");
        assert_eq!(infer_sems(&s, EXEC_WIDTH), vec![ModuleSem::Opaque]);
    }

    /// read_x → scal#0 → dot#1 ← read_y, with a `write_t` tee on the
    /// scal and the scalar drained into `write_d`.
    fn scal_dot_graph() -> (Mdag, Vec<ModuleSem>) {
        let mut g = Mdag::new();
        let rx = g.add_interface("read_x");
        let ry = g.add_interface("read_y");
        let scal = g.add_compute("scal#0");
        let dot = g.add_compute("dot#1");
        let wt = g.add_interface("write_t");
        let wd = g.add_interface("write_d");
        g.add_edge(rx, scal, 37, 37, 16);
        g.add_edge(scal, dot, 37, 37, 16);
        g.add_edge(ry, dot, 37, 37, 16);
        g.add_edge(scal, wt, 37, 37, 16);
        g.add_edge(dot, wd, 1, 1, 1);
        let mut sems = infer_sems(&g, EXEC_WIDTH);
        sems[scal.0] = ModuleSem::Scal { alpha: Some(0.75) };
        (g, sems)
    }

    #[test]
    fn relay_chain_closes_with_a_block_replayed_dot() {
        let (g, sems) = scal_dot_graph();
        let plan = analyze_fusion(&g, &sems, "scal-dot", false);
        assert_eq!(plan.stats.fused, 1, "{}", plan.to_json());
        let region = &plan.regions[0];
        assert_eq!(region.elements, 37);
        assert!(region.output.is_none(), "the scalar drains into write_d");
        let kinds: Vec<&str> = region.obligations.iter().map(|o| o.kind.as_str()).collect();
        assert!(kinds.contains(&"block-replay"));
        assert!(!kinds.contains(&"no-reassociation"));
        assert!(check_obligations(&plan, &g, &sems, false).is_empty());
        // The dot follows the relay; only writes come after it.
        let at = |m: &str| region.modules.iter().position(|x| x == m).unwrap();
        assert!(at("dot#1") > at("scal#0"));

        let eval = build_evaluator(&g, &sems, region).unwrap();
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..37).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut streams = BTreeMap::new();
        streams.insert("read_x".to_string(), x.clone());
        streams.insert("read_y".to_string(), y.clone());
        let run = eval.run(&streams).unwrap();
        let mut acc = DotAccumulator::<f32>::new(EXEC_WIDTH);
        for (a, b) in x.iter().zip(&y) {
            acc.push(0.75 * a, *b);
        }
        assert_eq!(run.sinks["write_d"], vec![acc.finish()]);
        assert_eq!(run.sinks["write_t"][5], 0.75 * x[5]);
    }

    #[test]
    fn recovery_guards_reject_a_replayable_dot() {
        let g = dot_graph();
        let sems = infer_sems(&g, EXEC_WIDTH);
        let plan = analyze_fusion(&g, &sems, "dot", true);
        assert_eq!(plan.stats.fused, 0);
        assert_eq!(plan.rejections.len(), 1, "{}", plan.to_json());
        assert_eq!(plan.rejections[0].reason, "recovery-guards");
    }

    #[test]
    fn block_replay_refuses_a_foreign_width() {
        let (g, sems) = scal_dot_graph();
        let plan = analyze_fusion(&g, &sems, "scal-dot", false);
        let mut narrow = sems.clone();
        for s in &mut narrow {
            if let ModuleSem::Reduce { width } = s {
                *width = EXEC_WIDTH / 2;
            }
        }
        let errs = check_obligations(&plan, &g, &narrow, false);
        assert!(errs.iter().any(|e| e.contains("block-replay")), "{errs:?}");
    }

    #[test]
    fn block_replay_refuses_a_reduce_that_is_not_the_tail() {
        let (g, sems) = scal_dot_graph();
        let mut plan = analyze_fusion(&g, &sems, "scal-dot", false);
        let modules = &mut plan.regions[0].modules;
        let (d, r) = (
            modules.iter().position(|m| m == "dot#1").unwrap(),
            modules.iter().position(|m| m == "scal#0").unwrap(),
        );
        modules.swap(d, r);
        let errs = check_obligations(&plan, &g, &sems, false);
        assert!(
            errs.iter()
                .any(|e| e.contains("block-replay") && e.contains("tail")),
            "{errs:?}"
        );
    }

    #[test]
    fn block_replay_refuses_two_reduces() {
        // Two bare DOTs side by side fuse into two regions; a plan
        // claiming one region over both must not verify.
        let mut g = Mdag::new();
        for k in 0..2 {
            let rx = g.add_interface(format!("read_x{k}"));
            let ry = g.add_interface(format!("read_y{k}"));
            let dot = g.add_compute(format!("dot#{k}"));
            let w = g.add_interface(format!("write_d{k}"));
            g.add_edge(rx, dot, 64, 64, 16);
            g.add_edge(ry, dot, 64, 64, 16);
            g.add_edge(dot, w, 1, 1, 1);
        }
        let sems = infer_sems(&g, EXEC_WIDTH);
        let mut plan = analyze_fusion(&g, &sems, "two-dots", false);
        assert_eq!(plan.stats.fused, 2, "{}", plan.to_json());
        assert!(check_obligations(&plan, &g, &sems, false).is_empty());
        let second = plan.regions.remove(1);
        plan.regions[0].modules.extend(second.modules);
        let errs = check_obligations(&plan, &g, &sems, false);
        assert!(
            errs.iter()
                .any(|e| e.contains("block-replay") && e.contains("2 reductions")),
            "{errs:?}"
        );
    }

    #[test]
    fn bypass_path_rejects_the_region_as_feedback() {
        // scal → copy directly and through an opaque stage: fusing
        // {scal, copy} would deadlock the bypass.
        let mut g = Mdag::new();
        let rx = g.add_interface("read_x");
        let scal = g.add_compute("scal#0");
        let mid = g.add_compute("mystery");
        let copy = g.add_compute("copy#1");
        let w = g.add_interface("write_y");
        g.add_edge(rx, scal, 8, 8, 4);
        g.add_edge(scal, copy, 8, 8, 4);
        g.add_edge(scal, mid, 8, 8, 4);
        g.add_edge(mid, copy, 8, 8, 4);
        g.add_edge(copy, w, 8, 8, 4);
        let sems = infer_sems(&g, 1);
        let plan = analyze_fusion(&g, &sems, "bypass", false);
        // scal fans out to two computes, so the chain never forms; the
        // copy has two inputs (arity mismatch for a 1-in relay).
        assert_eq!(plan.stats.fused, 0);
        assert!(verify_witnesses(&plan, &g).is_empty());
    }

    #[test]
    fn recovery_guards_reject_otherwise_fusable_regions() {
        let (g, sems) = chain_graph();
        let plan = analyze_fusion(&g, &sems, "chain", true);
        assert_eq!(plan.stats.fused, 0);
        assert!(plan
            .rejections
            .iter()
            .any(|r| r.reason == "recovery-guards"));
        assert!(verify_witnesses(&plan, &g).is_empty());
    }

    #[test]
    fn plan_round_trips_byte_stably() {
        let (g, sems) = chain_graph();
        let plan = analyze_fusion(&g, &sems, "chain", false);
        let json = plan.to_json();
        let back = FusionPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json(), json, "round trip must be byte-stable");
    }

    #[test]
    fn corrupted_plans_fail_reverification() {
        let (g, sems) = chain_graph();
        let mut plan = analyze_fusion(&g, &sems, "chain", false);
        plan.regions[0].elements += 1;
        assert!(!check_obligations(&plan, &g, &sems, false).is_empty());
        let mut plan2 = analyze_fusion(&g, &sems, "chain", false);
        plan2.rejections.push(FusionRejection {
            modules: vec!["ghost".to_string()],
            reason: "stateful".to_string(),
            witness_module: Some("ghost".to_string()),
            witness_channel: None,
        });
        assert!(!verify_witnesses(&plan2, &g).is_empty());
    }

    #[test]
    fn singleton_relay_is_recorded_not_fused() {
        let mut g = Mdag::new();
        let rx = g.add_interface("read_x");
        let scal = g.add_compute("scal");
        let w = g.add_interface("write_y");
        g.add_edge(rx, scal, 8, 8, 4);
        g.add_edge(scal, w, 8, 8, 4);
        let sems = infer_sems(&g, 1);
        let plan = analyze_fusion(&g, &sems, "single", false);
        assert_eq!(plan.stats.fused, 0);
        assert!(plan.rejections.iter().any(|r| r.reason == "singleton"));
        assert_eq!(plan.stats.chains_found, 1);
    }

    #[test]
    fn sems_for_component_reads_coefficients_from_ops() {
        let mut g = Mdag::new();
        g.add_compute("scal#1");
        let ops = vec![
            Op::Copy {
                x: "a".into(),
                out: "b".into(),
            },
            Op::Scal {
                alpha: 2.5,
                x: "b".into(),
                out: "c".into(),
            },
        ];
        let sems = sems_for_component(&g, &ops, 16);
        assert_eq!(sems[0], ModuleSem::Scal { alpha: Some(2.5) });
    }
}
