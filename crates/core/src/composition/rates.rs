//! Static rate analysis of streaming compositions.
//!
//! This is the engine behind `fblas-lint`'s deadlock-freedom verdicts,
//! generalizing [`Mdag::validate`]'s multitree heuristic to arbitrary
//! graphs. The model is an SDF-AP-style abstraction (PAPERS.md:
//! *High-Level Synthesis using SDF-AP*): each module is a sequential
//! *actor* — a fixed program of blocking [`Step::Push`]/[`Step::Pop`]
//! operations on bounded channels. Because actors are sequential
//! programs over blocking SPSC FIFOs, the composition is a Kahn process
//! network: whether it runs to completion, and the exact channel
//! occupancies along the way, are independent of scheduling order. One
//! deterministic abstract execution therefore *decides* termination —
//! the property the simulator otherwise discovers by stalling at
//! runtime — and [`RateGraph::min_depth`] makes the verdict
//! constructive by computing the exact FIFO depth at which a deadlock
//! disappears.
//!
//! Two front ends feed the engine:
//!
//! * [`RateGraph::from_mdag`] converts an [`Mdag`] using the paper's
//!   Sec. V edge contract — per-edge produced/consumed counts plus the
//!   `burst_before_consume` witness. A bursty edge gets a capacity-1
//!   *trigger* channel: the consumer may not drain the edge until the
//!   producer has emitted the burst, which is exactly the paper's ATAX
//!   condition (`depth ≥ N·T_N`) and extends it to cascaded shapes the
//!   multitree check cannot see. Fidelity at this level is bounded by
//!   the burst annotations, like `validate()` — but unlike it, the
//!   scheduler propagates backpressure through diamonds and chains.
//! * The lint differential harness builds actor programs directly, so
//!   its push/pop patterns are element-exact and the abstract verdict
//!   can be compared 1:1 against an `hlssim` run of the same graph.

use super::mdag::Mdag;

/// Abstract-execution budget: total token advances before the analyzer
/// gives up with [`Outcome::Budget`] (guards hostile or absurd inputs;
/// every planner-sized graph fits comfortably).
pub const MAX_ADVANCES: u64 = 200_000_000;

/// Rounds the MDAG front end weaves a node's per-edge traffic into.
/// Totals ≤ `WEAVE_ROUNDS` are modeled element-exact; larger totals
/// move in `ceil(total / WEAVE_ROUNDS)` chunks.
pub const WEAVE_ROUNDS: u64 = 64;

/// One blocking channel operation of an actor program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Push `count` elements into `channel` (blocks while full).
    Push {
        /// Channel index.
        channel: usize,
        /// Elements to push.
        count: u64,
    },
    /// Pop `count` elements from `channel` (blocks while empty).
    Pop {
        /// Channel index.
        channel: usize,
        /// Elements to pop.
        count: u64,
    },
}

/// Which side of a channel an operation is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Producer side (push).
    Push,
    /// Consumer side (pop).
    Pop,
}

/// A bounded FIFO of the abstract graph.
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// Display name (for diagnostics).
    pub name: String,
    /// FIFO capacity in elements. Capacity 0 never passes a token.
    pub capacity: u64,
    /// Known-good depth to try first when repairing (e.g. the MDAG
    /// `burst_before_consume` witness), before binary search.
    pub depth_hint: Option<u64>,
}

/// A sequential actor: a fixed program of blocking channel operations.
#[derive(Debug, Clone)]
pub struct ActorSpec {
    /// Display name (for diagnostics).
    pub name: String,
    /// The program, executed in order.
    pub steps: Vec<Step>,
}

/// An actor stuck on a channel operation when the graph quiesced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedOp {
    /// Actor index.
    pub actor: usize,
    /// Channel index.
    pub channel: usize,
    /// Operation direction.
    pub dir: PortDir,
}

/// Verdict of one abstract execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every actor ran its program to the end.
    Completed {
        /// Peak occupancy observed per channel.
        max_occupancy: Vec<u64>,
    },
    /// No actor can make progress but some are unfinished — the
    /// composition stalls forever (the simulator's `SimError::Stall`).
    Deadlock {
        /// The blocked operations, one per unfinished actor.
        blocked: Vec<BlockedOp>,
    },
    /// An actor touched a channel whose opposite endpoint already
    /// finished: a pop from an empty channel with no live producer, or
    /// a push toward a finished consumer (the simulator's
    /// `SimError::Disconnected`).
    Disconnected {
        /// Actor that hit the dead endpoint.
        actor: usize,
        /// Channel involved.
        channel: usize,
        /// Direction of the failing operation.
        dir: PortDir,
    },
    /// [`MAX_ADVANCES`] exceeded before quiescence — no verdict.
    Budget,
}

impl Outcome {
    /// Whether this outcome is [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }
}

/// A channel whose pushed and popped totals disagree — the paper's
/// Sec. V condition 1 (produced ≠ consumed) at the actor level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Imbalance {
    /// Channel index.
    pub channel: usize,
    /// Total elements pushed by all actors.
    pub pushed: u64,
    /// Total elements popped by all actors.
    pub popped: u64,
}

/// The abstract composition: channels plus actor programs.
#[derive(Debug, Clone, Default)]
pub struct RateGraph {
    channels: Vec<ChannelSpec>,
    actors: Vec<ActorSpec>,
}

impl RateGraph {
    /// Empty graph.
    pub fn new() -> Self {
        RateGraph::default()
    }

    /// Add a channel; returns its index.
    pub fn add_channel(&mut self, name: impl Into<String>, capacity: u64) -> usize {
        self.channels.push(ChannelSpec {
            name: name.into(),
            capacity,
            depth_hint: None,
        });
        self.channels.len() - 1
    }

    /// Add a channel carrying a repair hint; returns its index.
    pub fn add_channel_hinted(
        &mut self,
        name: impl Into<String>,
        capacity: u64,
        hint: u64,
    ) -> usize {
        let id = self.add_channel(name, capacity);
        self.channels[id].depth_hint = Some(hint);
        id
    }

    /// Add an actor program; returns its index. Steps must reference
    /// existing channels.
    pub fn add_actor(&mut self, name: impl Into<String>, steps: Vec<Step>) -> usize {
        for s in &steps {
            let (Step::Push { channel, .. } | Step::Pop { channel, .. }) = s;
            assert!(*channel < self.channels.len(), "channel out of range");
        }
        self.actors.push(ActorSpec {
            name: name.into(),
            steps,
        });
        self.actors.len() - 1
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Channel display name.
    pub fn channel_name(&self, ch: usize) -> &str {
        &self.channels[ch].name
    }

    /// Channel capacity.
    pub fn capacity(&self, ch: usize) -> u64 {
        self.channels[ch].capacity
    }

    /// Replace a channel's capacity.
    pub fn set_capacity(&mut self, ch: usize, capacity: u64) {
        self.channels[ch].capacity = capacity;
    }

    /// Actor display name.
    pub fn actor_name(&self, a: usize) -> &str {
        &self.actors[a].name
    }

    /// Actor program (for harnesses that execute the same graph on a
    /// real simulator).
    pub fn actor_steps(&self, a: usize) -> &[Step] {
        &self.actors[a].steps
    }

    /// Per-channel (pushed, popped) totals across all actor programs.
    pub fn totals(&self) -> Vec<(u64, u64)> {
        let mut t = vec![(0u64, 0u64); self.channels.len()];
        for a in &self.actors {
            for s in &a.steps {
                match *s {
                    Step::Push { channel, count } => t[channel].0 += count,
                    Step::Pop { channel, count } => t[channel].1 += count,
                }
            }
        }
        t
    }

    /// Channels whose pushed/popped totals disagree (rate imbalance —
    /// such a graph cannot complete cleanly regardless of depths).
    pub fn imbalances(&self) -> Vec<Imbalance> {
        self.totals()
            .iter()
            .enumerate()
            .filter(|(_, (pu, po))| pu != po)
            .map(|(channel, &(pushed, popped))| Imbalance {
                channel,
                pushed,
                popped,
            })
            .collect()
    }

    /// Abstract execution with the configured capacities.
    pub fn analyze(&self) -> Outcome {
        let caps: Vec<u64> = self.channels.iter().map(|c| c.capacity).collect();
        self.analyze_with(&caps)
    }

    /// Abstract execution with capacity overrides (`caps[i]` replaces
    /// channel `i`'s configured capacity).
    pub fn analyze_with(&self, caps: &[u64]) -> Outcome {
        self.analyze_with_budget(caps, MAX_ADVANCES)
    }

    /// Abstract execution with capacity overrides and an explicit
    /// advance budget (see [`MAX_ADVANCES`]).
    ///
    /// Event-driven: each actor runs until it blocks; a blocked pusher
    /// is woken by the channel's next pop and vice versa, so the cost is
    /// proportional to tokens moved, not polling rounds.
    pub fn analyze_with_budget(&self, caps: &[u64], budget: u64) -> Outcome {
        assert_eq!(caps.len(), self.channels.len(), "capacity vector length");
        let nch = self.channels.len();
        let nact = self.actors.len();

        // Endpoint maps: which actors ever push/pop each channel.
        let mut pushers: Vec<Vec<usize>> = vec![Vec::new(); nch];
        let mut poppers: Vec<Vec<usize>> = vec![Vec::new(); nch];
        for (ai, a) in self.actors.iter().enumerate() {
            for s in &a.steps {
                match *s {
                    Step::Push { channel, .. } if !pushers[channel].contains(&ai) => {
                        pushers[channel].push(ai)
                    }
                    Step::Pop { channel, .. } if !poppers[channel].contains(&ai) => {
                        poppers[channel].push(ai)
                    }
                    _ => {}
                }
            }
        }

        let mut occ = vec![0u64; nch];
        let mut max_occ = vec![0u64; nch];
        // Per-actor cursor: (step index, tokens already moved in it).
        let mut cursor = vec![(0usize, 0u64); nact];
        let mut done = vec![false; nact];
        // Blocked registries: at most one waiter per side (SPSC).
        let mut wait_push: Vec<Option<usize>> = vec![None; nch];
        let mut wait_pop: Vec<Option<usize>> = vec![None; nch];

        let mut ready: std::collections::VecDeque<usize> = (0..nact).collect();
        let mut queued = vec![true; nact];
        let mut advances: u64 = 0;

        let all_done =
            |done: &[bool], set: &[usize]| set.iter().all(|&a| done[a]) || set.is_empty();

        while let Some(a) = ready.pop_front() {
            queued[a] = false;
            if done[a] {
                continue;
            }
            let steps = &self.actors[a].steps;
            // Run actor `a` until it blocks or finishes.
            loop {
                let (si, moved) = cursor[a];
                let Some(step) = steps.get(si) else {
                    done[a] = true;
                    // Dropping endpoints can unblock (or disconnect)
                    // the other side: wake every waiter on a channel
                    // this actor touched.
                    for (ch, w) in wait_pop.iter_mut().enumerate() {
                        if pushers[ch].contains(&a) {
                            if let Some(p) = w.take() {
                                if !queued[p] {
                                    queued[p] = true;
                                    ready.push_back(p);
                                }
                            }
                        }
                    }
                    for (ch, w) in wait_push.iter_mut().enumerate() {
                        if poppers[ch].contains(&a) {
                            if let Some(p) = w.take() {
                                if !queued[p] {
                                    queued[p] = true;
                                    ready.push_back(p);
                                }
                            }
                        }
                    }
                    break;
                };
                match *step {
                    Step::Push { channel, count } => {
                        let remaining = count - moved;
                        if remaining == 0 {
                            cursor[a] = (si + 1, 0);
                            continue;
                        }
                        // A finished consumer means the receiver is
                        // dropped: pushing errors even with space free.
                        if all_done(&done, &poppers[channel]) {
                            return Outcome::Disconnected {
                                actor: a,
                                channel,
                                dir: PortDir::Push,
                            };
                        }
                        let space = caps[channel].saturating_sub(occ[channel]);
                        if space == 0 {
                            wait_push[channel] = Some(a);
                            break;
                        }
                        let adv = remaining.min(space);
                        occ[channel] += adv;
                        max_occ[channel] = max_occ[channel].max(occ[channel]);
                        cursor[a] = (si, moved + adv);
                        advances += 1;
                        if advances > budget {
                            return Outcome::Budget;
                        }
                        if let Some(p) = wait_pop[channel].take() {
                            if !queued[p] {
                                queued[p] = true;
                                ready.push_back(p);
                            }
                        }
                    }
                    Step::Pop { channel, count } => {
                        let remaining = count - moved;
                        if remaining == 0 {
                            cursor[a] = (si + 1, 0);
                            continue;
                        }
                        if occ[channel] == 0 {
                            // Queued data survives a dropped sender;
                            // an empty channel with no live producer
                            // does not.
                            if all_done(&done, &pushers[channel]) {
                                return Outcome::Disconnected {
                                    actor: a,
                                    channel,
                                    dir: PortDir::Pop,
                                };
                            }
                            wait_pop[channel] = Some(a);
                            break;
                        }
                        let adv = remaining.min(occ[channel]);
                        occ[channel] -= adv;
                        cursor[a] = (si, moved + adv);
                        advances += 1;
                        if advances > budget {
                            return Outcome::Budget;
                        }
                        if let Some(p) = wait_push[channel].take() {
                            if !queued[p] {
                                queued[p] = true;
                                ready.push_back(p);
                            }
                        }
                    }
                }
            }
        }

        if done.iter().all(|&d| d) {
            return Outcome::Completed {
                max_occupancy: max_occ,
            };
        }
        let mut blocked = Vec::new();
        for (ch, w) in wait_push.iter().enumerate() {
            if let Some(a) = w {
                blocked.push(BlockedOp {
                    actor: *a,
                    channel: ch,
                    dir: PortDir::Push,
                });
            }
        }
        for (ch, w) in wait_pop.iter().enumerate() {
            if let Some(a) = w {
                blocked.push(BlockedOp {
                    actor: *a,
                    channel: ch,
                    dir: PortDir::Pop,
                });
            }
        }
        blocked.sort_by_key(|b| b.actor);
        Outcome::Deadlock { blocked }
    }

    /// Capacities that let every channel absorb its whole traffic —
    /// the "unbounded FIFO" proxy used to test repairability.
    fn unbounded_caps(&self) -> Vec<u64> {
        self.totals()
            .iter()
            .map(|&(pu, po)| pu.max(po).max(1))
            .collect()
    }

    /// Exact minimum capacity of `ch` (all other channels at their
    /// configured capacities) for which the graph completes. `None` if
    /// no capacity works — the deadlock is not fixable by deepening
    /// this channel alone. Completion is monotone in capacity (a deeper
    /// FIFO only ever permits more schedules), so binary search is
    /// sound; the channel's `depth_hint` is probed first to make the
    /// common case (the MDAG burst witness is exact) two runs.
    pub fn min_depth(&self, ch: usize) -> Option<u64> {
        let caps: Vec<u64> = self.channels.iter().map(|c| c.capacity).collect();
        let completes = |d: u64| {
            let mut c = caps.clone();
            c[ch] = d;
            self.analyze_with(&c).is_completed()
        };
        let hi = self.unbounded_caps()[ch];
        if let Some(h) = self.channels[ch].depth_hint {
            if h >= 1 && completes(h) && (h == 1 || !completes(h - 1)) {
                return Some(h);
            }
        }
        if !completes(hi) {
            return None;
        }
        let (mut lo, mut hi) = (1u64, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if completes(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// Repair a deadlocking graph by deepening channels: returns the
    /// channels that must grow and their exact minimum depths (each
    /// minimized with the others held at their repaired values), or
    /// `None` if no finite depths help (a structural deadlock —
    /// actors waiting on each other with no full channel to blame).
    /// `Some(vec![])` means the graph already completes as configured.
    ///
    /// Strategy is Parks' demand-driven scheduling: execute with the
    /// configured capacities; on an artificial deadlock (some actor
    /// blocked *pushing* a full channel), deepen the smallest such
    /// channel — to its `depth_hint` when one is ahead, else doubling —
    /// and re-execute. Once the graph completes, each raised channel is
    /// tightened back to its exact minimum (hint probe first, then
    /// binary search), holding the others at their repaired values.
    pub fn repair(&self) -> Option<Vec<(usize, u64)>> {
        let orig: Vec<u64> = self.channels.iter().map(|c| c.capacity).collect();
        let totals = self.totals();
        let mut caps = orig.clone();
        loop {
            match self.analyze_with(&caps) {
                Outcome::Completed { .. } => break,
                Outcome::Deadlock { blocked } => {
                    // Grow the smallest full channel; a deadlock with
                    // no full channel cannot be fixed by depth.
                    let grow = blocked
                        .iter()
                        .filter(|b| b.dir == PortDir::Push && caps[b.channel] < totals[b.channel].0)
                        .map(|b| b.channel)
                        .min_by_key(|&c| caps[c])?;
                    let hint = self.channels[grow].depth_hint.unwrap_or(0);
                    let doubled = caps[grow].saturating_mul(2).max(1);
                    caps[grow] = hint.max(doubled).min(totals[grow].0);
                }
                Outcome::Disconnected { .. } | Outcome::Budget => return None,
            }
        }
        // Tighten each raised channel (monotone per channel ⇒ binary
        // search; the depth hint usually answers in two runs).
        for ch in 0..caps.len() {
            if caps[ch] <= orig[ch] {
                continue;
            }
            let completes = |d: u64, caps: &[u64]| {
                let mut c = caps.to_vec();
                c[ch] = d;
                self.analyze_with(&c).is_completed()
            };
            if let Some(h) = self.channels[ch].depth_hint {
                if h >= orig[ch].max(1)
                    && h <= caps[ch]
                    && completes(h, &caps)
                    && (h <= 1 || !completes(h - 1, &caps))
                {
                    caps[ch] = h;
                    continue;
                }
            }
            let (mut lo, mut hi) = (orig[ch].max(1), caps[ch]);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if completes(mid, &caps) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            caps[ch] = lo;
        }
        Some(
            caps.iter()
                .zip(&orig)
                .enumerate()
                .filter(|(_, (p, o))| p > o)
                .map(|(ch, (&p, _))| (ch, p))
                .collect(),
        )
    }

    /// Build the abstract graph of an [`Mdag`] under the paper's Sec. V
    /// edge contract. Channel `i` corresponds to `EdgeId(i)`; trigger
    /// channels for bursty edges are appended after all edge channels.
    ///
    /// Each node becomes one actor weaving its per-edge traffic in
    /// [`WEAVE_ROUNDS`] rounds (pops before pushes within a round — a
    /// module consumes inputs to produce outputs). A bursty edge's
    /// consumer first pops a capacity-1 trigger that the producer sends
    /// only once its cumulative pushes on that edge reach the burst:
    /// the consumer provably cannot drain the edge before the burst is
    /// buffered, which is the paper's ATAX stall condition.
    pub fn from_mdag(g: &Mdag) -> RateGraph {
        let mut rg = RateGraph::new();
        let edges: Vec<_> = g.edges().collect();
        for e in &edges {
            let name = format!("{}->{}", g.node_name(e.from), g.node_name(e.to));
            let burst = e.burst_before_consume.min(e.produced);
            if burst > 0 {
                rg.add_channel_hinted(name, e.channel_depth, burst);
            } else {
                rg.add_channel(name, e.channel_depth);
            }
        }
        // Trigger channels, one per bursty edge.
        let mut trigger: Vec<Option<usize>> = vec![None; edges.len()];
        for (i, e) in edges.iter().enumerate() {
            if e.burst_before_consume.min(e.produced) > 0 {
                trigger[i] = Some(rg.add_channel(format!("trig:{}", rg.channel_name(i)), 1));
            }
        }
        for node in g.node_ids() {
            let ins: Vec<usize> = (0..edges.len()).filter(|&i| edges[i].to == node).collect();
            let outs: Vec<usize> = (0..edges.len())
                .filter(|&i| edges[i].from == node)
                .collect();
            let mut steps = Vec::new();
            // Wait for every bursty input's trigger before consuming.
            for &i in &ins {
                if let Some(t) = trigger[i] {
                    steps.push(Step::Pop {
                        channel: t,
                        count: 1,
                    });
                }
            }
            let chunk = |total: u64| total.div_ceil(WEAVE_ROUNDS).max(1);
            let mut in_rem: Vec<u64> = ins.iter().map(|&i| edges[i].consumed).collect();
            let mut out_rem: Vec<u64> = outs.iter().map(|&i| edges[i].produced).collect();
            let mut out_sent: Vec<u64> = vec![0; outs.len()];
            while in_rem.iter().any(|&r| r > 0) || out_rem.iter().any(|&r| r > 0) {
                for (k, &i) in ins.iter().enumerate() {
                    if in_rem[k] == 0 {
                        continue;
                    }
                    let take = chunk(edges[i].consumed).min(in_rem[k]);
                    in_rem[k] -= take;
                    steps.push(Step::Pop {
                        channel: i,
                        count: take,
                    });
                }
                for (k, &i) in outs.iter().enumerate() {
                    if out_rem[k] == 0 {
                        continue;
                    }
                    let take = chunk(edges[i].produced).min(out_rem[k]);
                    out_rem[k] -= take;
                    steps.push(Step::Push {
                        channel: i,
                        count: take,
                    });
                    let before = out_sent[k];
                    out_sent[k] += take;
                    if let Some(t) = trigger[i] {
                        let burst = edges[i].burst_before_consume.min(edges[i].produced);
                        if before < burst && out_sent[k] >= burst {
                            steps.push(Step::Push {
                                channel: t,
                                count: 1,
                            });
                        }
                    }
                }
            }
            rg.add_actor(g.node_name(node).to_string(), steps);
        }
        rg
    }
}

/// An ATAX-shaped MDAG (Fig. 8): `A` read twice, the second GEMV
/// draining its copy only after the first emits a burst of `n·tn`
/// elements, through a channel `depth` deep.
#[cfg(test)]
pub(crate) fn atax_mdag(n: u64, m: u64, tn: u64, depth: u64) -> Mdag {
    let mut g = Mdag::new();
    let a = g.add_interface("read_A");
    let x = g.add_interface("read_x");
    let g1 = g.add_compute("gemv");
    let g2 = g.add_compute("gemv_t");
    let y = g.add_interface("write_y");
    g.add_edge(a, g1, n * m, n * m, 16);
    let e_a2 = g.add_edge(a, g2, n * m, n * m, depth);
    g.add_edge(x, g1, m, m, 16);
    g.add_edge(g1, g2, n, n, 16);
    g.add_edge(g2, y, m, m, 16);
    g.set_burst_before_consume(e_a2, n * tn);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(channel: usize, count: u64) -> Step {
        Step::Push { channel, count }
    }
    fn pop(channel: usize, count: u64) -> Step {
        Step::Pop { channel, count }
    }

    #[test]
    fn straight_pipe_completes() {
        let mut g = RateGraph::new();
        let c = g.add_channel("c", 4);
        g.add_actor("src", vec![push(c, 100)]);
        g.add_actor("snk", vec![pop(c, 100)]);
        match g.analyze() {
            Outcome::Completed { max_occupancy } => assert_eq!(max_occupancy[c], 4),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(g.imbalances().is_empty());
    }

    #[test]
    fn pop_before_push_cycle_deadlocks() {
        let mut g = RateGraph::new();
        let ab = g.add_channel("ab", 2);
        let ba = g.add_channel("ba", 2);
        g.add_actor("a", vec![pop(ba, 1), push(ab, 1)]);
        g.add_actor("b", vec![pop(ab, 1), push(ba, 1)]);
        match g.analyze() {
            Outcome::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 2);
                assert!(blocked.iter().all(|b| b.dir == PortDir::Pop));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Structural: no depth fixes a wait cycle with no tokens.
        assert_eq!(g.repair(), None);
    }

    #[test]
    fn imbalance_is_reported_and_ends_in_disconnect() {
        let mut g = RateGraph::new();
        let c = g.add_channel("c", 4);
        g.add_actor("src", vec![push(c, 3)]);
        g.add_actor("snk", vec![pop(c, 5)]);
        assert_eq!(
            g.imbalances(),
            vec![Imbalance {
                channel: c,
                pushed: 3,
                popped: 5
            }]
        );
        match g.analyze() {
            Outcome::Disconnected { channel, dir, .. } => {
                assert_eq!(channel, c);
                assert_eq!(dir, PortDir::Pop);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn push_to_finished_consumer_disconnects() {
        // Capacity 1 forces the producer to observe the sink's exit:
        // after the sink pops its one token and finishes, the next
        // push has nobody left to drain it.
        let mut g = RateGraph::new();
        let c = g.add_channel("c", 1);
        g.add_actor("snk", vec![pop(c, 1)]);
        g.add_actor("src", vec![push(c, 3)]);
        match g.analyze() {
            Outcome::Disconnected { channel, dir, .. } => {
                assert_eq!(channel, c);
                assert_eq!(dir, PortDir::Push);
            }
            other => panic!("unexpected: {other:?}"),
        }

        // With capacity for the surplus the producer finishes before
        // the sink exits — that run completes (matching hlssim, where
        // a sender that drains before the receiver drops never errors)
        // and the leftover tokens show up as an imbalance instead.
        let mut g = RateGraph::new();
        let c = g.add_channel("c", 8);
        g.add_actor("snk", vec![pop(c, 1)]);
        g.add_actor("src", vec![push(c, 3)]);
        assert!(g.analyze().is_completed());
        assert_eq!(g.imbalances().len(), 1);
    }

    /// The deadlock the multitree heuristic exists for: a producer must
    /// emit a burst into one diamond arm before the join can drain it.
    fn burst_diamond(depth: u64, burst: u64, total: u64) -> RateGraph {
        let mut g = RateGraph::new();
        let direct = g.add_channel_hinted("direct", depth, burst);
        let via = g.add_channel("via", 16);
        let relay = g.add_channel("relay", 16);
        let trig = g.add_channel("trig", 1);
        // src feeds the join directly and through a relay; the join
        // refuses to drain the direct arm until the trigger (sent after
        // `burst` elements) arrives.
        let mut src = Vec::new();
        let mut sent = 0;
        while sent < total {
            let take = 4.min(total - sent);
            src.push(push(direct, take));
            let before = sent;
            sent += take;
            if before < burst && sent >= burst {
                src.push(push(trig, 1));
            }
            src.push(push(via, take));
        }
        g.add_actor("src", src);
        let mut rl = Vec::new();
        let mut jn = vec![pop(trig, 1)];
        let mut moved = 0;
        while moved < total {
            let take = 4.min(total - moved);
            rl.push(pop(via, take));
            rl.push(push(relay, take));
            jn.push(pop(direct, take));
            jn.push(pop(relay, take));
            moved += take;
        }
        g.add_actor("relay", rl);
        g.add_actor("join", jn);
        g
    }

    #[test]
    fn burst_diamond_min_depth_is_exact() {
        let g = burst_diamond(8, 40, 96);
        assert!(matches!(g.analyze(), Outcome::Deadlock { .. }));
        assert_eq!(g.min_depth(0), Some(40));
        let repairs = g.repair().expect("repairable by depth");
        assert_eq!(repairs, vec![(0, 40)]);

        let fixed = burst_diamond(40, 40, 96);
        assert!(fixed.analyze().is_completed());
        let almost = burst_diamond(39, 40, 96);
        assert!(matches!(almost.analyze(), Outcome::Deadlock { .. }));
    }

    #[test]
    fn min_depth_without_hint_binary_searches() {
        let mut g = burst_diamond(8, 40, 96);
        g.channels[0].depth_hint = None;
        assert_eq!(g.min_depth(0), Some(40));
    }

    #[test]
    fn capacity_zero_channel_deadlocks() {
        let mut g = RateGraph::new();
        let c = g.add_channel("c", 0);
        g.add_actor("src", vec![push(c, 1)]);
        g.add_actor("snk", vec![pop(c, 1)]);
        assert!(matches!(g.analyze(), Outcome::Deadlock { .. }));
        assert_eq!(g.min_depth(c), Some(1));
    }

    #[test]
    fn budget_guard_trips_on_absurd_traffic() {
        let mut g = RateGraph::new();
        let c = g.add_channel("c", 1);
        g.add_actor("src", vec![push(c, 1 << 40)]);
        g.add_actor("snk", vec![pop(c, 1 << 40)]);
        assert_eq!(g.analyze_with_budget(&[1], 1_000), Outcome::Budget);
    }

    // ---- MDAG front end -------------------------------------------------

    #[test]
    fn atax_mdag_deadlocks_shallow_and_completes_at_burst() {
        let g = RateGraph::from_mdag(&atax_mdag(64, 32, 8, 16));
        assert!(matches!(g.analyze(), Outcome::Deadlock { .. }));
        // EdgeId(1) is the read_A -> gemv_t edge; channel index matches.
        assert_eq!(g.min_depth(1), Some(64 * 8));
        assert_eq!(g.repair(), Some(vec![(1, 64 * 8)]));

        let sized = RateGraph::from_mdag(&atax_mdag(64, 32, 8, 64 * 8));
        assert!(sized.analyze().is_completed());
        let under = RateGraph::from_mdag(&atax_mdag(64, 32, 8, 64 * 8 - 1));
        assert!(matches!(under.analyze(), Outcome::Deadlock { .. }));
    }

    #[test]
    fn multitree_mdags_complete_with_default_depths() {
        // AXPYDOT (paper Fig. 6).
        let mut g = Mdag::new();
        let w = g.add_interface("read_w");
        let v = g.add_interface("read_v");
        let u = g.add_interface("read_u");
        let axpy = g.add_compute("axpy");
        let dot = g.add_compute("dot");
        let beta = g.add_interface("write_beta");
        let n = 1000;
        g.add_edge(w, axpy, n, n, 16);
        g.add_edge(v, axpy, n, n, 16);
        g.add_edge(axpy, dot, n, n, 16);
        g.add_edge(u, dot, n, n, 16);
        g.add_edge(dot, beta, 1, 1, 1);
        assert!(RateGraph::from_mdag(&g).analyze().is_completed());
    }

    #[test]
    fn self_loop_mdag_deadlocks() {
        let mut g = Mdag::new();
        let a = g.add_compute("a");
        g.add_edge(a, a, 8, 8, 4);
        // validate() calls this Cyclic; the scheduler agrees it can
        // never run (the node pops its own output before pushing it).
        assert!(matches!(
            RateGraph::from_mdag(&g).analyze(),
            Outcome::Deadlock { .. }
        ));
    }
}
