//! Differential harness: execute a [`RateGraph`]'s actor programs on
//! the *real* threaded simulator (`fblas-hlssim`).
//!
//! The linter's deadlock verdicts come from an abstract scheduler over
//! the same actor programs. Kahn-network determinism makes the verdict
//! schedule-independent, so the abstract scheduler and the concurrent
//! simulator must agree: lint *accept* ⟺ the simulation completes,
//! lint *deadlock* ⟺ the simulator reports a stall. This module is the
//! bridge that lets property tests assert exactly that, and
//! [`random_graph`] is the seeded corpus they assert it over.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use fblas_core::composition::{
    apply_elementwise, EdgeInfo, FusedRegion, FusedRun, Mdag, ModuleSem, RateGraph, RateOutcome,
    RateStep,
};
use fblas_core::routines::Dot;
use fblas_hlssim::{
    try_channel, FaultHook, ModuleKind, Receiver, Sender, SimError, Simulation, SimulationReport,
};

/// What the threaded simulator said about one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimVerdict {
    /// Every module ran to completion.
    Completed,
    /// Every live module blocked on a channel: a genuine deadlock.
    Stalled,
    /// A channel endpoint died mid-stream (count mismatch).
    Disconnected,
    /// Some other failure (configuration, module error).
    Failed(String),
}

/// Execute the graph's actor programs on `fblas-hlssim` with the given
/// channel capacities.
pub fn run_on_simulator(rg: &RateGraph, caps: &[u64]) -> SimVerdict {
    match simulate(rg, caps, None) {
        Ok(_) => SimVerdict::Completed,
        Err(SimError::Stall { .. }) => SimVerdict::Stalled,
        Err(SimError::Disconnected { .. }) => SimVerdict::Disconnected,
        Err(e) => SimVerdict::Failed(e.to_string()),
    }
}

/// [`run_on_simulator`] with the simulator's own result, and `hook`
/// armed on the run when given (a schedule fuzzer arms one that only
/// delays channel operations).
///
/// Each rate-graph channel becomes a real bounded FIFO carrying `u32`
/// sequence numbers; each actor becomes a module thread replaying its
/// push/pop program. Channels are point-to-point by construction
/// (panics if an actor program shares an endpoint).
pub fn simulate(
    rg: &RateGraph,
    caps: &[u64],
    hook: Option<Arc<dyn FaultHook>>,
) -> Result<SimulationReport, SimError> {
    assert_eq!(caps.len(), rg.channel_count(), "capacity vector length");
    let mut sim = Simulation::new();
    if let Some(hook) = hook {
        sim.ctx().arm_faults(hook);
    }

    let mut senders: Vec<Option<Sender<u32>>> = Vec::with_capacity(rg.channel_count());
    let mut receivers: Vec<Option<Receiver<u32>>> = Vec::with_capacity(rg.channel_count());
    for (ch, &cap) in caps.iter().enumerate() {
        let (s, r) = try_channel::<u32>(sim.ctx(), cap as usize, rg.channel_name(ch))?;
        senders.push(Some(s));
        receivers.push(Some(r));
    }

    for a in 0..rg.actor_count() {
        let steps: Vec<RateStep> = rg.actor_steps(a).to_vec();
        let mut tx: HashMap<usize, Sender<u32>> = HashMap::new();
        let mut rx: HashMap<usize, Receiver<u32>> = HashMap::new();
        for s in &steps {
            match s {
                RateStep::Push { channel, .. } => {
                    if !tx.contains_key(channel) {
                        // Invariant (documented above): actor programs
                        // never share a channel endpoint.
                        #[allow(clippy::disallowed_methods)]
                        let sender = senders[*channel]
                            .take()
                            .expect("each channel has exactly one producer");
                        tx.insert(*channel, sender);
                    }
                }
                RateStep::Pop { channel, .. } => {
                    if !rx.contains_key(channel) {
                        // Invariant: see the producer side above.
                        #[allow(clippy::disallowed_methods)]
                        let receiver = receivers[*channel]
                            .take()
                            .expect("each channel has exactly one consumer");
                        rx.insert(*channel, receiver);
                    }
                }
            }
        }
        sim.add_module(
            rg.actor_name(a).to_string(),
            ModuleKind::Compute,
            move || {
                for s in steps {
                    match s {
                        RateStep::Push { channel, count } => {
                            let t = &tx[&channel];
                            for i in 0..count {
                                t.push(i as u32)?;
                            }
                        }
                        RateStep::Pop { channel, count } => {
                            let r = &rx[&channel];
                            for _ in 0..count {
                                r.pop()?;
                            }
                        }
                    }
                }
                Ok(())
            },
        );
    }

    sim.run()
}

/// Deterministic xorshift64* generator: no time-based seeding, so every
/// generated graph is named by its seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }
    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A random DAG of 2–5 actors: a chain plus up to two forward "skip"
/// edges, each edge carrying a balanced element total with random
/// chunked interleavings on both endpoints. Balance means the only
/// possible outcomes are completion and capacity/ordering deadlock —
/// exactly the property the linter rules on. The same seed always
/// yields the same graph.
pub fn random_graph(seed: u64) -> RateGraph {
    let mut rng = Rng::new(seed);
    let n = rng.range(2, 5) as usize;
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    for i in 0..n - 1 {
        edges.push((i, i + 1, rng.range(1, 6) * rng.range(1, 4)));
    }
    for _ in 0..rng.range(0, 2) {
        let a = rng.range(0, (n - 2) as u64) as usize;
        let b = rng.range((a + 1) as u64, (n - 1) as u64) as usize;
        edges.push((a, b, rng.range(1, 12)));
    }

    let mut rg = RateGraph::new();
    let chans: Vec<usize> = edges
        .iter()
        .enumerate()
        .map(|(i, _)| rg.add_channel(format!("c{i}"), rng.range(1, 6)))
        .collect();

    for a in 0..n {
        // (channel, is_push, remaining)
        let mut ports: Vec<(usize, bool, u64)> = Vec::new();
        for (i, &(f, t, total)) in edges.iter().enumerate() {
            if f == a {
                ports.push((chans[i], true, total));
            }
            if t == a {
                ports.push((chans[i], false, total));
            }
        }
        let mut steps = Vec::new();
        while ports.iter().any(|p| p.2 > 0) {
            let live: Vec<usize> = ports
                .iter()
                .enumerate()
                .filter(|(_, p)| p.2 > 0)
                .map(|(k, _)| k)
                .collect();
            let k = live[(rng.next() % live.len() as u64) as usize];
            let chunk = rng.range(1, 4).min(ports[k].2);
            ports[k].2 -= chunk;
            let (channel, is_push, _) = ports[k];
            steps.push(if is_push {
                RateStep::Push {
                    channel,
                    count: chunk,
                }
            } else {
                RateStep::Pop {
                    channel,
                    count: chunk,
                }
            });
        }
        rg.add_actor(format!("a{a}"), steps);
    }
    rg
}

// ---------------------------------------------------------------------
// Value-level differential: fused straight-line evaluation vs. the
// threaded per-module simulation.
// ---------------------------------------------------------------------

/// Deterministic stream of f32 values for a named input: FNV-1a over
/// the tag mixed with the seed, then xorshift64*. Values are exact
/// multiples of 1/256 in [−8, 8), so every value is exactly
/// representable and a differential mismatch is a real semantic
/// difference, never rounding-of-test-data noise. (Fused-vs-threaded
/// bit identity must hold for *arbitrary* f32s — the evaluator and the
/// threaded modules share one `apply_elementwise` — but exact inputs
/// make failures diagnosable.)
pub fn seeded_stream(seed: u64, tag: &str, len: usize) -> Vec<f32> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut s = h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if s == 0 {
        s = 0x9e37_79b9_7f4a_7c15;
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        let r = s.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let q = ((r >> 32) & 0xFFF) as i64 - 2048;
        out.push(q as f32 / 256.0);
    }
    out
}

/// Seeded streams for every input key of a fused region.
pub fn seeded_streams(keys: &[String], seed: u64, len: usize) -> BTreeMap<String, Vec<f32>> {
    keys.iter()
        .map(|k| (k.clone(), seeded_stream(seed, k, len)))
        .collect()
}

/// Execute one fused region *unfused* — every module of the region as
/// its own thread on the real simulator, every channel a real bounded
/// FIFO — and collect what its absorbed writes and its boundary output
/// drain. This is the reference the fused straight-line evaluator
/// ([`fblas_core::composition::FusedEvaluator`]) must match bit for bit.
///
/// `fault` optionally arms the simulation's fault-injection hook; the
/// runner then *refuses to run*: a fused region has no recovery
/// guards, so a value differential under injected faults would compare
/// executions with different failure semantics. (This mirrors the
/// analyzer's `recovery-guards` fusion rejection.)
pub fn run_region_threaded(
    g: &Mdag,
    sems: &[ModuleSem],
    region: &FusedRegion,
    streams: &BTreeMap<String, Vec<f32>>,
    fault: Option<Arc<dyn FaultHook>>,
) -> Result<FusedRun, String> {
    let mut sim = Simulation::new();
    if let Some(hook) = fault {
        sim.ctx().arm_faults(hook);
    }
    if sim.ctx().faults_armed() {
        return Err(
            "fault injection armed: refusing the value differential (fused regions carry \
             no recovery guards)"
                .into(),
        );
    }

    let name_of = |i: usize| g.node_name(fblas_core::composition::NodeId(i)).to_string();
    let mut in_region = vec![false; g.node_count()];
    for m in &region.modules {
        let i = g
            .node_ids()
            .find(|&n| g.node_name(n) == m)
            .ok_or_else(|| format!("region module `{m}` not in graph"))?;
        in_region[i.0] = true;
    }
    let edges: Vec<EdgeInfo> = g.edges().collect();

    // One real FIFO per edge touching the region, at its instantiated
    // depth.
    let mut senders: HashMap<usize, Sender<f32>> = HashMap::new();
    let mut receivers: HashMap<usize, Receiver<f32>> = HashMap::new();
    for (ei, e) in edges.iter().enumerate() {
        if !in_region[e.from.0] && !in_region[e.to.0] {
            continue;
        }
        let name = format!("{}->{}", name_of(e.from.0), name_of(e.to.0));
        let (s, r) = try_channel::<f32>(sim.ctx(), e.channel_depth.max(1) as usize, name)
            .map_err(|e| e.to_string())?;
        senders.insert(ei, s);
        receivers.insert(ei, r);
    }

    let sinks_shared: Arc<Mutex<BTreeMap<String, Vec<f32>>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    let output_shared: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));

    // Feeders for boundary input channels (producer outside the
    // region) and a drain for the boundary output channel.
    for (ei, e) in edges.iter().enumerate() {
        let chan = format!("{}->{}", name_of(e.from.0), name_of(e.to.0));
        if !in_region[e.from.0] && in_region[e.to.0] {
            let stream = streams
                .get(&chan)
                .ok_or_else(|| format!("missing stream for boundary channel `{chan}`"))?
                .clone();
            let count = e.consumed as usize;
            if stream.len() < count {
                return Err(format!(
                    "stream for `{chan}` has {} elements, channel carries {count}",
                    stream.len()
                ));
            }
            let tx = senders
                .remove(&ei)
                .ok_or_else(|| format!("boundary channel `{chan}` has no sender"))?;
            sim.add_module(format!("feed:{chan}"), ModuleKind::Interface, move || {
                for v in stream.into_iter().take(count) {
                    tx.push(v)?;
                }
                Ok(())
            });
        } else if in_region[e.from.0] && !in_region[e.to.0] {
            let is_output = region.output.as_ref().is_some_and(|bc| bc.channel == chan);
            if !is_output {
                return Err(format!(
                    "edge `{chan}` leaves the region but is not its recorded output"
                ));
            }
            let count = e.produced as usize;
            let rx = receivers
                .remove(&ei)
                .ok_or_else(|| format!("output channel `{chan}` has no receiver"))?;
            let out = Arc::clone(&output_shared);
            sim.add_module(format!("drain:{chan}"), ModuleKind::Interface, move || {
                let mut buf = Vec::with_capacity(count);
                for _ in 0..count {
                    buf.push(rx.pop()?);
                }
                if let Ok(mut o) = out.lock() {
                    *o = buf;
                }
                Ok(())
            });
        }
    }

    // The region's own modules, one thread each.
    for i in 0..g.node_count() {
        if !in_region[i] {
            continue;
        }
        let name = name_of(i);
        match &sems[i] {
            ModuleSem::Read => {
                let stream = streams
                    .get(&name)
                    .ok_or_else(|| format!("missing stream for absorbed read `{name}`"))?
                    .clone();
                let outs: Vec<(Sender<f32>, usize)> = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.from.0 == i)
                    .map(|(ei, e)| {
                        senders
                            .remove(&ei)
                            .map(|s| (s, e.produced as usize))
                            .ok_or_else(|| format!("read `{name}` output channel already taken"))
                    })
                    .collect::<Result<_, _>>()?;
                for (_, count) in &outs {
                    if stream.len() < *count {
                        return Err(format!(
                            "stream for `{name}` has {} elements, needs {count}",
                            stream.len()
                        ));
                    }
                }
                sim.add_module(name, ModuleKind::Interface, move || {
                    for (tx, count) in &outs {
                        for v in stream.iter().take(*count) {
                            tx.push(*v)?;
                        }
                    }
                    Ok(())
                });
            }
            ModuleSem::Write => {
                let (ei, e) = edges
                    .iter()
                    .enumerate()
                    .find(|(_, e)| e.to.0 == i)
                    .ok_or_else(|| format!("absorbed write `{name}` has no feeder"))?;
                let count = e.consumed as usize;
                let rx = receivers
                    .remove(&ei)
                    .ok_or_else(|| format!("write `{name}` input channel already taken"))?;
                let shared = Arc::clone(&sinks_shared);
                let key = name.clone();
                sim.add_module(name, ModuleKind::Interface, move || {
                    let mut buf = Vec::with_capacity(count);
                    for _ in 0..count {
                        buf.push(rx.pop()?);
                    }
                    if let Ok(mut m) = shared.lock() {
                        m.insert(key, buf);
                    }
                    Ok(())
                });
            }
            sem if sem.is_relay() => {
                // Input channels in edge order — the same order
                // `build_evaluator` records operand sources in, so the
                // two execution paths apply `apply_elementwise` to
                // identically ordered operands.
                let ins: Vec<Receiver<f32>> = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.to.0 == i)
                    .map(|(ei, _)| {
                        receivers
                            .remove(&ei)
                            .ok_or_else(|| format!("relay `{name}` input channel already taken"))
                    })
                    .collect::<Result<_, _>>()?;
                let outs: Vec<Sender<f32>> = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.from.0 == i)
                    .map(|(ei, _)| {
                        senders
                            .remove(&ei)
                            .ok_or_else(|| format!("relay `{name}` output channel already taken"))
                    })
                    .collect::<Result<_, _>>()?;
                let elements = region.elements as usize;
                let sem = sem.clone();
                let modname = name.clone();
                sim.add_module(name, ModuleKind::Compute, move || {
                    let mut vals = vec![0.0f32; ins.len()];
                    for _ in 0..elements {
                        for (slot, rx) in vals.iter_mut().zip(&ins) {
                            *slot = rx.pop()?;
                        }
                        let v = apply_elementwise(&sem, &vals).ok_or_else(|| {
                            SimError::module(&modname, "non-relay semantics in fused region")
                        })?;
                        for tx in &outs {
                            tx.push(v)?;
                        }
                    }
                    Ok(())
                });
            }
            ModuleSem::Reduce { width } => {
                // The production DOT module on the region's two input
                // channels (edge order, as `build_evaluator` records
                // its lanes), its scalar fanned out to every out-edge.
                let ins: Vec<Receiver<f32>> = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.to.0 == i)
                    .map(|(ei, _)| {
                        receivers
                            .remove(&ei)
                            .ok_or_else(|| format!("reduce `{name}` input channel already taken"))
                    })
                    .collect::<Result<_, _>>()?;
                let Ok([rx, ry]) = <[Receiver<f32>; 2]>::try_from(ins) else {
                    return Err(format!("reduce `{name}` needs exactly two inputs"));
                };
                let outs: Vec<Sender<f32>> = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.from.0 == i)
                    .map(|(ei, _)| {
                        senders
                            .remove(&ei)
                            .ok_or_else(|| format!("reduce `{name}` output channel already taken"))
                    })
                    .collect::<Result<_, _>>()?;
                let (tres, rres) = try_channel::<f32>(sim.ctx(), 1, format!("{name}_res"))
                    .map_err(|e| e.to_string())?;
                Dot::new(region.elements as usize, *width).attach(&mut sim, rx, ry, tres);
                sim.add_module(format!("fan:{name}"), ModuleKind::Interface, move || {
                    let v = rres.pop()?;
                    for tx in &outs {
                        tx.push(v)?;
                    }
                    Ok(())
                });
            }
            other => {
                return Err(format!(
                    "region module `{name}` has non-fusable semantics {other:?}"
                ));
            }
        }
    }

    match sim.run() {
        Ok(_) => {}
        Err(e) => return Err(format!("threaded region run failed: {e}")),
    }
    let sinks = sinks_shared
        .lock()
        .map(|m| m.clone())
        .map_err(|_| "sink collection poisoned".to_string())?;
    let output = output_shared
        .lock()
        .map(|o| o.clone())
        .map_err(|_| "output collection poisoned".to_string())?;
    Ok(FusedRun { sinks, output })
}

/// Convenience: does the abstract analysis agree with the simulator at
/// the graph's configured capacities? Returns `(abstract, simulated)`
/// for assertion messages.
pub fn verdict_pair(rg: &RateGraph) -> (RateOutcome, SimVerdict) {
    let caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
    let abstracted = rg.analyze();
    let simulated = run_on_simulator(rg, &caps);
    (abstracted, simulated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_core::composition::{analyze_fusion, build_evaluator, infer_sems};

    fn fusable_chain() -> (Mdag, Vec<ModuleSem>) {
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
    fn fused_and_threaded_region_agree_bit_for_bit() {
        let (g, sems) = fusable_chain();
        let plan = analyze_fusion(&g, &sems, "harness", false);
        let region = plan.regions.first().expect("one fused region");
        let ev = build_evaluator(&g, &sems, region).unwrap();
        let streams = seeded_streams(&ev.inputs, 0xfb1a5, 64);
        let fused = ev.run(&streams).unwrap();
        let threaded = run_region_threaded(&g, &sems, region, &streams, None).unwrap();
        assert_eq!(
            fused.sinks.keys().collect::<Vec<_>>(),
            threaded.sinks.keys().collect::<Vec<_>>()
        );
        for (k, v) in &fused.sinks {
            let tv = &threaded.sinks[k];
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                tv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "sink `{k}` diverged"
            );
        }
        assert_eq!(
            fused.output.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            threaded
                .output
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn armed_faults_refuse_the_value_differential() {
        struct Nop;
        impl FaultHook for Nop {
            fn on_channel(
                &self,
                _: fblas_hlssim::FaultSite,
                _: &str,
                _: u64,
            ) -> Option<fblas_hlssim::FaultAction> {
                None
            }
            fn on_module_start(&self, _: &str) -> Option<fblas_hlssim::ModuleFault> {
                None
            }
        }
        let (g, sems) = fusable_chain();
        let plan = analyze_fusion(&g, &sems, "harness", false);
        let region = plan.regions.first().expect("one fused region");
        let ev = build_evaluator(&g, &sems, region).unwrap();
        let streams = seeded_streams(&ev.inputs, 1, 64);
        let err =
            run_region_threaded(&g, &sems, region, &streams, Some(Arc::new(Nop))).unwrap_err();
        assert!(err.contains("fault injection armed"), "{err}");
    }

    #[test]
    fn seeded_streams_are_deterministic_and_exact() {
        let a = seeded_stream(42, "read_x", 256);
        let b = seeded_stream(42, "read_x", 256);
        assert_eq!(a, b);
        let c = seeded_stream(42, "read_y", 256);
        assert_ne!(a, c);
        for v in &a {
            assert!((-8.0..8.0).contains(v));
            assert_eq!(v * 256.0, (v * 256.0).round(), "not a multiple of 1/256");
        }
    }

    #[test]
    fn balanced_pipeline_completes_on_both() {
        let mut rg = RateGraph::new();
        let c0 = rg.add_channel("a_to_b", 4);
        let c1 = rg.add_channel("b_to_c", 4);
        rg.add_actor(
            "a",
            vec![RateStep::Push {
                channel: c0,
                count: 32,
            }],
        );
        rg.add_actor(
            "b",
            (0..32)
                .flat_map(|_| {
                    [
                        RateStep::Pop {
                            channel: c0,
                            count: 1,
                        },
                        RateStep::Push {
                            channel: c1,
                            count: 1,
                        },
                    ]
                })
                .collect(),
        );
        rg.add_actor(
            "c",
            vec![RateStep::Pop {
                channel: c1,
                count: 32,
            }],
        );
        let (a, s) = verdict_pair(&rg);
        assert!(a.is_completed(), "abstract: {a:?}");
        assert_eq!(s, SimVerdict::Completed);
    }

    #[test]
    fn burst_reorder_deadlocks_on_both() {
        // Consumer wants the whole burst from one channel before
        // touching the other — the ATAX shape in miniature.
        let mut rg = RateGraph::new();
        let c0 = rg.add_channel("direct", 2);
        let c1 = rg.add_channel("buffered", 2);
        rg.add_actor(
            "src",
            (0..8)
                .flat_map(|_| {
                    [
                        RateStep::Push {
                            channel: c0,
                            count: 1,
                        },
                        RateStep::Push {
                            channel: c1,
                            count: 1,
                        },
                    ]
                })
                .collect(),
        );
        rg.add_actor(
            "join",
            vec![
                RateStep::Pop {
                    channel: c1,
                    count: 8,
                },
                RateStep::Pop {
                    channel: c0,
                    count: 8,
                },
            ],
        );
        let (a, s) = verdict_pair(&rg);
        assert!(matches!(a, RateOutcome::Deadlock { .. }), "abstract: {a:?}");
        assert_eq!(s, SimVerdict::Stalled);
    }

    #[test]
    fn repaired_depths_complete_on_simulator() {
        let mut rg = RateGraph::new();
        let c0 = rg.add_channel("direct", 2);
        let c1 = rg.add_channel("buffered", 2);
        rg.add_actor(
            "src",
            (0..8)
                .flat_map(|_| {
                    [
                        RateStep::Push {
                            channel: c0,
                            count: 1,
                        },
                        RateStep::Push {
                            channel: c1,
                            count: 1,
                        },
                    ]
                })
                .collect(),
        );
        rg.add_actor(
            "join",
            vec![
                RateStep::Pop {
                    channel: c1,
                    count: 8,
                },
                RateStep::Pop {
                    channel: c0,
                    count: 8,
                },
            ],
        );
        let fixes = rg.repair().expect("depth-repairable");
        let mut caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
        for (ch, depth) in fixes {
            caps[ch] = depth;
        }
        let v = run_on_simulator(&rg, &caps);
        assert_eq!(v, SimVerdict::Completed);
    }
}
