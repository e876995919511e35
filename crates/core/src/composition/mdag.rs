//! Module DAG construction and validity analysis.
//!
//! The paper's rules (Sec. V):
//!
//! * An **edge** between modules is valid iff the number of elements
//!   produced equals the number consumed, and in the same order (order
//!   compatibility is a property of the tiling configurations; here the
//!   caller records it as a boolean witness on the edge).
//! * A **multitree** MDAG (at most one path between any pair of
//!   vertices) with valid edges is always valid.
//! * A **non-multitree** MDAG can stall forever: when two vertex paths
//!   lead from `u` to `v`, data buffered along the short path must wait
//!   for the long path's production pattern — the composition only
//!   terminates if the channel can hold the burst produced before the
//!   consumer starts draining (the ATAX example needs depth ≥ N·T_N).
//!   Each edge therefore carries the `burst_before_consume` its producer
//!   may emit before the consumer pops, and validation demands
//!   `channel_depth ≥ burst` on non-multitree graphs.

use fblas_hlssim::ModuleKind;

/// Handle to a node of an [`Mdag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Handle to an edge of an [`Mdag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub usize);

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: ModuleKind,
}

#[derive(Debug, Clone)]
struct Edge {
    from: NodeId,
    to: NodeId,
    produced: u64,
    consumed: u64,
    order_compatible: bool,
    channel_depth: u64,
    burst_before_consume: u64,
}

/// Result of validating an MDAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validity {
    /// The composition terminates.
    Valid,
    /// The graph has a cycle — not an MDAG at all.
    Cyclic,
    /// An edge's element counts disagree (condition 1 of Sec. V) or the
    /// producer/consumer orders are incompatible (condition 2).
    InvalidEdge {
        /// Offending edge.
        edge: EdgeId,
        /// Human-readable reason.
        reason: String,
    },
    /// The graph is not a multitree and a channel is too shallow for the
    /// burst its producer emits before the consumer drains: the
    /// composition stalls forever unless the channel is enlarged
    /// (paper Sec. V-B, ATAX).
    RequiresChannelDepth {
        /// Offending edge.
        edge: EdgeId,
        /// Minimal FIFO depth that makes the composition terminate.
        min_depth: u64,
    },
}

/// Read-only view of one edge, for analyses layered on top of the
/// MDAG (the rate analyzer, `fblas-lint`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeInfo {
    /// Edge handle.
    pub id: EdgeId,
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// Elements the producer emits on this edge.
    pub produced: u64,
    /// Elements the consumer drains from this edge.
    pub consumed: u64,
    /// Whether producer and consumer element orders agree.
    pub order_compatible: bool,
    /// FIFO depth of the channel realizing the edge.
    pub channel_depth: u64,
    /// Burst the producer emits before the consumer starts draining.
    pub burst_before_consume: u64,
}

/// A module DAG under construction/analysis.
#[derive(Debug, Clone, Default)]
pub struct Mdag {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl Mdag {
    /// Empty MDAG.
    pub fn new() -> Self {
        Mdag::default()
    }

    /// Add an interface module (circle in the paper's figures).
    pub fn add_interface(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, ModuleKind::Interface)
    }

    /// Add a computational module (rectangle).
    pub fn add_compute(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, ModuleKind::Compute)
    }

    fn add_node(&mut self, name: impl Into<String>, kind: ModuleKind) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            kind,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Add an edge carrying `produced` elements from `from`, of which
    /// `to` consumes `consumed`, over a FIFO of `channel_depth` slots.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        produced: u64,
        consumed: u64,
        channel_depth: u64,
    ) -> EdgeId {
        assert!(
            from.0 < self.nodes.len() && to.0 < self.nodes.len(),
            "node out of range"
        );
        self.edges.push(Edge {
            from,
            to,
            produced,
            consumed,
            order_compatible: true,
            channel_depth,
            burst_before_consume: 0,
        });
        EdgeId(self.edges.len() - 1)
    }

    /// Mark an edge's element orders as incompatible (mismatched tiling
    /// schemes between producer and consumer).
    pub fn set_order_incompatible(&mut self, edge: EdgeId) {
        self.edges[edge.0].order_compatible = false;
    }

    /// Record the burst the producer emits on `edge` before its consumer
    /// starts draining (relevant on non-multitree graphs).
    pub fn set_burst_before_consume(&mut self, edge: EdgeId, burst: u64) {
        self.edges[edge.0].burst_before_consume = burst;
    }

    /// Replace the FIFO depth of `edge`.
    pub fn set_channel_depth(&mut self, edge: EdgeId, depth: u64) {
        self.edges[edge.0].channel_depth = depth;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Kind of a node (interface or compute).
    pub fn node_kind(&self, id: NodeId) -> ModuleKind {
        self.nodes[id.0].kind
    }

    /// All node handles in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Read-only view of one edge.
    pub fn edge_info(&self, id: EdgeId) -> EdgeInfo {
        let e = &self.edges[id.0];
        EdgeInfo {
            id,
            from: e.from,
            to: e.to,
            produced: e.produced,
            consumed: e.consumed,
            order_compatible: e.order_compatible,
            channel_depth: e.channel_depth,
            burst_before_consume: e.burst_before_consume,
        }
    }

    /// Read-only views of all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeInfo> + '_ {
        (0..self.edges.len()).map(|i| self.edge_info(EdgeId(i)))
    }

    /// Topological order, or `None` if cyclic.
    fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for e in &self.edges {
                if e.from.0 == u {
                    indeg[e.to.0] -= 1;
                    if indeg[e.to.0] == 0 {
                        queue.push(e.to.0);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Count distinct paths between every ordered pair of nodes
    /// (saturating at 2 — we only care about "more than one").
    fn path_counts(&self) -> Option<Vec<Vec<u8>>> {
        let order = self.topo_order()?;
        let n = self.nodes.len();
        let mut counts = vec![vec![0u8; n]; n];
        // Parallel edges between the same pair already mean two paths.
        for s in 0..n {
            // DP in topological order: paths[v] = Σ over edges (u→v) of
            // paths[u], seeded with paths[s] = 1.
            let mut paths = vec![0u8; n];
            paths[s] = 1;
            for &u in &order {
                if paths[u] == 0 {
                    continue;
                }
                for e in &self.edges {
                    if e.from.0 == u {
                        paths[e.to.0] = paths[e.to.0].saturating_add(paths[u]).min(2);
                    }
                }
            }
            paths[s] = 0;
            counts[s] = paths;
        }
        Some(counts)
    }

    /// Is the MDAG a multitree (at most one path between any pair)?
    /// Returns `None` for cyclic graphs.
    pub fn is_multitree(&self) -> Option<bool> {
        let counts = self.path_counts()?;
        Some(counts.iter().all(|row| row.iter().all(|&c| c <= 1)))
    }

    /// Ordered node pairs connected by more than one path.
    pub fn multipath_pairs(&self) -> Vec<(NodeId, NodeId)> {
        match self.path_counts() {
            None => Vec::new(),
            Some(counts) => {
                let mut out = Vec::new();
                for (u, row) in counts.iter().enumerate() {
                    for (v, &c) in row.iter().enumerate() {
                        if c >= 2 {
                            out.push((NodeId(u), NodeId(v)));
                        }
                    }
                }
                out
            }
        }
    }

    /// Validate the composition per the paper's rules.
    pub fn validate(&self) -> Validity {
        let Some(multitree) = self.is_multitree() else {
            return Validity::Cyclic;
        };
        for (i, e) in self.edges.iter().enumerate() {
            if e.produced != e.consumed {
                return Validity::InvalidEdge {
                    edge: EdgeId(i),
                    reason: format!(
                        "`{}` produces {} elements but `{}` consumes {}",
                        self.nodes[e.from.0].name, e.produced, self.nodes[e.to.0].name, e.consumed
                    ),
                };
            }
            if !e.order_compatible {
                return Validity::InvalidEdge {
                    edge: EdgeId(i),
                    reason: format!(
                        "element orders of `{}` and `{}` are incompatible (mismatched tiling)",
                        self.nodes[e.from.0].name, self.nodes[e.to.0].name
                    ),
                };
            }
        }
        if !multitree {
            for (i, e) in self.edges.iter().enumerate() {
                if e.burst_before_consume > e.channel_depth {
                    return Validity::RequiresChannelDepth {
                        edge: EdgeId(i),
                        min_depth: e.burst_before_consume,
                    };
                }
            }
        }
        Validity::Valid
    }

    /// Longest node-weighted path through the MDAG, producer to
    /// consumer — with per-module predicted cycles as weights this is
    /// the composition's critical path, the chain of modules that bounds
    /// `Σ L_i + max_i (I_i·M_i)` end to end. Returns node names in path
    /// order; `None` for cyclic graphs, `Some(vec![])` for empty ones.
    pub fn critical_path(&self, node_weight: impl Fn(NodeId) -> u64) -> Option<Vec<String>> {
        let order = self.topo_order()?;
        let n = self.nodes.len();
        if n == 0 {
            return Some(Vec::new());
        }
        let mut best = vec![0u64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for &u in &order {
            let mut inc = 0u64;
            let mut p = None;
            for e in &self.edges {
                if e.to.0 != u {
                    continue;
                }
                if p.is_none() || best[e.from.0] > inc {
                    inc = best[e.from.0];
                    p = Some(e.from.0);
                }
            }
            best[u] = node_weight(NodeId(u)) + inc;
            pred[u] = p;
        }
        // Invariant: callers only reach here with a non-empty graph.
        #[allow(clippy::disallowed_methods)]
        let mut at = (0..n).max_by_key(|&i| best[i]).expect("n > 0");
        let mut path = vec![at];
        while let Some(p) = pred[at] {
            path.push(p);
            at = p;
        }
        path.reverse();
        Some(
            path.into_iter()
                .map(|i| self.nodes[i].name.clone())
                .collect(),
        )
    }

    /// Total off-chip I/O operations: elements crossing edges incident
    /// to an interface module — the metric the paper uses to compare
    /// streaming against host-layer execution (e.g. AXPYDOT: 7N → 3N+1).
    pub fn interface_io_elements(&self) -> u64 {
        self.edges
            .iter()
            .filter(|e| {
                self.nodes[e.from.0].kind == ModuleKind::Interface
                    || self.nodes[e.to.0].kind == ModuleKind::Interface
            })
            .map(|e| e.produced)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The AXPYDOT streaming MDAG of paper Fig. 6.
    fn axpydot_mdag(n: u64) -> Mdag {
        let mut g = Mdag::new();
        let w = g.add_interface("read_w");
        let v = g.add_interface("read_v");
        let u = g.add_interface("read_u");
        let axpy = g.add_compute("axpy");
        let dot = g.add_compute("dot");
        let beta = g.add_interface("write_beta");
        g.add_edge(w, axpy, n, n, 16);
        g.add_edge(v, axpy, n, n, 16);
        g.add_edge(axpy, dot, n, n, 16);
        g.add_edge(u, dot, n, n, 16);
        g.add_edge(dot, beta, 1, 1, 1);
        g
    }

    #[test]
    fn axpydot_is_a_valid_multitree() {
        let g = axpydot_mdag(1000);
        assert_eq!(g.is_multitree(), Some(true));
        assert_eq!(g.validate(), Validity::Valid);
        // 3N + 1 interface I/O (paper Sec. V-A).
        assert_eq!(g.interface_io_elements(), 3001);
    }

    /// The BICG MDAG of paper Fig. 7: shared read of A feeding two GEMVs.
    #[test]
    fn bicg_shared_read_is_still_a_multitree() {
        let (n, m) = (64u64, 32u64);
        let mut g = Mdag::new();
        let a = g.add_interface("read_A");
        let p = g.add_interface("read_p");
        let r = g.add_interface("read_r");
        let g1 = g.add_compute("gemv");
        let g2 = g.add_compute("gemv_t");
        let q = g.add_interface("write_q");
        let s = g.add_interface("write_s");
        g.add_edge(a, g1, n * m, n * m, 16);
        g.add_edge(a, g2, n * m, n * m, 16);
        g.add_edge(p, g1, m, m, 16);
        g.add_edge(r, g2, n, n, 16);
        g.add_edge(g1, q, n, n, 16);
        g.add_edge(g2, s, m, m, 16);
        assert_eq!(g.is_multitree(), Some(true));
        assert_eq!(g.validate(), Validity::Valid);
        // A read once: NM + M + N + N + M.
        assert_eq!(g.interface_io_elements(), 2 * n * m + 2 * (n + m));
    }

    /// The ATAX MDAG of paper Fig. 8: NOT a multitree (two paths from
    /// read_A's sibling... from the shared interface to the second GEMV).
    fn atax_mdag(n: u64, m: u64, tn: u64, depth: u64) -> Mdag {
        let mut g = Mdag::new();
        let a = g.add_interface("read_A");
        let x = g.add_interface("read_x");
        let g1 = g.add_compute("gemv");
        let g2 = g.add_compute("gemv_t");
        let y = g.add_interface("write_y");
        g.add_edge(a, g1, n * m, n * m, 16);
        let e_a2 = g.add_edge(a, g2, n * m, n * m, depth);
        g.add_edge(x, g1, m, m, 16);
        let _t = g.add_edge(g1, g2, n, n, 16);
        g.add_edge(g2, y, m, m, 16);
        // The second GEMV cannot consume A until the first produces a
        // block of results: the A stream bursts N·T_N elements first.
        g.set_burst_before_consume(e_a2, n * tn);
        g
    }

    #[test]
    fn atax_detected_as_non_multitree_needing_depth() {
        // a→g2 and a→g1→g2 are two paths from read_A to the second GEMV.
        let g = atax_mdag(64, 32, 8, 16);
        assert_eq!(g.is_multitree(), Some(false));
        assert!(g
            .multipath_pairs()
            .iter()
            .any(|&(u, v)| g.node_name(u) == "read_A" && g.node_name(v) == "gemv_t"));
        match g.validate() {
            Validity::RequiresChannelDepth { min_depth, .. } => {
                assert_eq!(min_depth, 64 * 8);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn atax_valid_once_channel_is_sized() {
        // Paper's fix (a): set the channel size according to input size.
        let g = atax_mdag(64, 32, 8, 64 * 8);
        assert_eq!(g.validate(), Validity::Valid);
    }

    #[test]
    fn count_mismatch_is_invalid_edge() {
        let mut g = Mdag::new();
        let a = g.add_interface("src");
        let b = g.add_compute("sink");
        g.add_edge(a, b, 100, 50, 16);
        match g.validate() {
            Validity::InvalidEdge { reason, .. } => {
                assert!(reason.contains("100") && reason.contains("50"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn order_incompatibility_is_invalid_edge() {
        let mut g = Mdag::new();
        let a = g.add_compute("producer");
        let b = g.add_compute("consumer");
        let e = g.add_edge(a, b, 10, 10, 4);
        g.set_order_incompatible(e);
        match g.validate() {
            Validity::InvalidEdge { reason, .. } => assert!(reason.contains("tiling")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn cycle_is_rejected() {
        let mut g = Mdag::new();
        let a = g.add_compute("a");
        let b = g.add_compute("b");
        g.add_edge(a, b, 1, 1, 1);
        g.add_edge(b, a, 1, 1, 1);
        assert_eq!(g.validate(), Validity::Cyclic);
        assert_eq!(g.is_multitree(), None);
    }

    #[test]
    fn parallel_edges_count_as_two_paths() {
        let mut g = Mdag::new();
        let a = g.add_compute("a");
        let b = g.add_compute("b");
        g.add_edge(a, b, 5, 5, 4);
        g.add_edge(a, b, 7, 7, 4);
        assert_eq!(g.is_multitree(), Some(false));
    }

    #[test]
    fn critical_path_follows_the_heaviest_chain() {
        let g = axpydot_mdag(1000);
        let weight = |id: NodeId| match g.node_name(id) {
            "axpy" => 1030u64,
            "dot" => 1060,
            name if name.starts_with("read_") => 1000,
            _ => 1,
        };
        let path = g.critical_path(weight).unwrap();
        assert_eq!(path.last().unwrap(), "write_beta");
        assert!(path.contains(&"axpy".to_string()));
        assert!(path.contains(&"dot".to_string()));
        // The path enters through one of the reads feeding AXPY, not the
        // shorter read_u → dot hop.
        assert!(path.first().unwrap().starts_with("read_"));
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn critical_path_rejects_cycles_and_handles_empty_graphs() {
        let mut g = Mdag::new();
        assert_eq!(g.critical_path(|_| 1), Some(Vec::new()));
        let a = g.add_compute("a");
        let b = g.add_compute("b");
        g.add_edge(a, b, 1, 1, 1);
        g.add_edge(b, a, 1, 1, 1);
        assert_eq!(g.critical_path(|_| 1), None);
    }

    #[test]
    fn empty_graph_is_trivially_valid() {
        let g = Mdag::new();
        assert_eq!(g.validate(), Validity::Valid);
        assert_eq!(g.interface_io_elements(), 0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn edge_views_expose_the_contract() {
        let g = atax_mdag(64, 32, 8, 16);
        let views: Vec<EdgeInfo> = g.edges().collect();
        assert_eq!(views.len(), g.edge_count());
        assert_eq!(views[1].burst_before_consume, 64 * 8);
        assert_eq!(views[1].channel_depth, 16);
        assert_eq!(g.node_kind(views[1].from), ModuleKind::Interface);
        assert_eq!(g.node_kind(views[1].to), ModuleKind::Compute);
        assert_eq!(g.node_ids().count(), g.node_count());
    }

    // ---- agreement between validate() and the rate analyzer ----------
    //
    // `fblas-lint` subsumes the multitree heuristic with an abstract
    // Kahn-network execution (`composition::rates`). These tests pin
    // the contract between the two analyses on the edge cases the
    // heuristic was known to be weak on, and on every paper fixture.

    use crate::composition::rates::{Outcome, RateGraph};

    fn verdicts_agree(g: &Mdag) {
        let accept_old = g.validate() == Validity::Valid;
        let accept_new = RateGraph::from_mdag(g).analyze().is_completed();
        assert_eq!(accept_old, accept_new, "validate() vs rate analysis");
    }

    #[test]
    fn fixtures_agree_between_old_and_new_analysis() {
        // AXPYDOT (Fig. 6) and BICG (Fig. 7): valid multitrees.
        verdicts_agree(&axpydot_mdag(1000));
        // ATAX (Fig. 8): shallow channel rejected by both, and both
        // derive the same minimum depth N·T_N; sized channel accepted.
        let shallow = atax_mdag(64, 32, 8, 16);
        verdicts_agree(&shallow);
        let old_min = match shallow.validate() {
            Validity::RequiresChannelDepth { min_depth, .. } => min_depth,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(
            RateGraph::from_mdag(&shallow).repair(),
            Some(vec![(1, old_min)])
        );
        verdicts_agree(&atax_mdag(64, 32, 8, 64 * 8));
    }

    /// The GEMVER schedule of paper Fig. 9: the first component
    /// (GER·GER·GEMV) is a multitree both analyses accept.
    #[test]
    fn gemver_component_agrees_between_analyses() {
        let (n, m) = (64u64, 48u64);
        let mut g = Mdag::new();
        let a = g.add_interface("read_A");
        let u1 = g.add_interface("read_u1");
        let v1 = g.add_interface("read_v1");
        let u2 = g.add_interface("read_u2");
        let v2 = g.add_interface("read_v2");
        let y = g.add_interface("read_y");
        let ger1 = g.add_compute("ger#0");
        let ger2 = g.add_compute("ger#1");
        let gemv = g.add_compute("gemv_t#2");
        let wb = g.add_interface("write_B");
        let wx = g.add_interface("write_x");
        g.add_edge(a, ger1, n * m, n * m, 16);
        g.add_edge(u1, ger1, n, n, 16);
        g.add_edge(v1, ger1, m, m, 16);
        g.add_edge(ger1, ger2, n * m, n * m, 16);
        g.add_edge(u2, ger2, n, n, 16);
        g.add_edge(v2, ger2, m, m, 16);
        g.add_edge(ger2, gemv, n * m, n * m, 16);
        g.add_edge(ger2, wb, n * m, n * m, 16);
        g.add_edge(y, gemv, n, n, 16);
        g.add_edge(gemv, wx, m, m, 16);
        assert_eq!(g.is_multitree(), Some(true));
        assert_eq!(g.validate(), Validity::Valid);
        verdicts_agree(&g);
    }

    #[test]
    fn self_loop_rejected_by_both_analyses() {
        let mut g = Mdag::new();
        let a = g.add_compute("a");
        g.add_edge(a, a, 8, 8, 4);
        // The heuristic calls a self-loop Cyclic; the abstract
        // execution agrees nothing can run (the node pops its own
        // output before producing it). Both reject.
        assert_eq!(g.validate(), Validity::Cyclic);
        assert!(matches!(
            RateGraph::from_mdag(&g).analyze(),
            Outcome::Deadlock { .. }
        ));
    }

    #[test]
    fn multi_edge_burst_agrees_on_min_depth() {
        // Two parallel edges a⇉b, one bursty and shallow: both
        // analyses reject and derive the same minimum depth.
        let build = |d0: u64, d1: u64| {
            let mut g = Mdag::new();
            let a = g.add_interface("a");
            let b = g.add_compute("b");
            g.add_edge(a, b, 48, 48, d0);
            let e1 = g.add_edge(a, b, 48, 48, d1);
            g.set_burst_before_consume(e1, 24);
            g
        };
        let shallow = build(16, 8);
        assert_eq!(shallow.is_multitree(), Some(false));
        match shallow.validate() {
            Validity::RequiresChannelDepth { edge, min_depth } => {
                assert_eq!(edge, EdgeId(1));
                assert_eq!(min_depth, 24);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // The rate analysis agrees on the bursty edge's depth (24) and
        // additionally discovers what the heuristic cannot see: the
        // producer interleaves both streams, so the sibling edge backs
        // up to the same 24 while the consumer waits for the burst.
        assert_eq!(
            RateGraph::from_mdag(&shallow).repair(),
            Some(vec![(0, 24), (1, 24)])
        );
        verdicts_agree(&shallow);
        verdicts_agree(&build(24, 24));
    }

    /// A diamond whose long arm delays production: the case the
    /// linter catches and the multitree heuristic provably cannot.
    ///
    /// `a` feeds `c` directly (burst 4, depth 4) and through relay `b`
    /// whose edge to `c` carries a large burst (32): `c` drains nothing
    /// until `b` has produced 32 elements, which requires `a` to have
    /// pushed 32 into *both* arms — so the short arm's channel needs
    /// depth ≈ 32, far beyond its own burst. `validate()` checks each
    /// edge against its own burst only and calls this Valid; the
    /// abstract execution finds the deadlock and the exact repair.
    #[test]
    fn diamond_with_unequal_path_latency_caught_only_by_rates() {
        let n = 64u64; // ≤ WEAVE_ROUNDS, so the abstract run is element-exact
        let mut g = Mdag::new();
        let a = g.add_interface("a");
        let b = g.add_compute("b");
        let c = g.add_compute("c");
        let sink = g.add_interface("sink");
        g.add_edge(a, b, n, n, 16);
        let e_short = g.add_edge(a, c, n, n, 4);
        g.set_burst_before_consume(e_short, 4);
        let e_long = g.add_edge(b, c, n, n, 32);
        g.set_burst_before_consume(e_long, 32);
        g.add_edge(c, sink, n, n, 16);

        // Old analysis: every burst fits its channel, so "valid".
        assert_eq!(g.is_multitree(), Some(false));
        assert_eq!(g.validate(), Validity::Valid);

        // New analysis: deadlock, fixed exactly by deepening the short
        // arm. `a` emits element-by-element into both arms; it blocks
        // once the short arm holds depth+1 elements... strictly: after
        // pushing k to each arm it blocks at k = depth+1, so releasing
        // the long arm's burst (32) needs depth 31.
        let rg = RateGraph::from_mdag(&g);
        assert!(matches!(rg.analyze(), Outcome::Deadlock { .. }));
        assert_eq!(rg.repair(), Some(vec![(e_short.0, 31)]));

        // Self-consistency of the derived depth: 31 completes, 30
        // deadlocks — the exactness contract the differential property
        // suite checks against the real simulator.
        let mut fixed = RateGraph::from_mdag(&g);
        fixed.set_capacity(e_short.0, 31);
        assert!(fixed.analyze().is_completed());
        let mut under = RateGraph::from_mdag(&g);
        under.set_capacity(e_short.0, 30);
        assert!(matches!(under.analyze(), Outcome::Deadlock { .. }));
    }
}
