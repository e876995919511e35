//! Keystone differential for the fusion analysis.
//!
//! The dataflow engine's central promise is that **fusion is
//! semantics-preserving and bit-exact**: for every chain the analyzer
//! marks fusable, executing the region as one straight-line loop per
//! element (what a fused backend would instantiate) produces the same
//! f32 bit patterns as executing every module on its own thread with
//! real bounded FIFOs. And every chain it *rejects* must carry a
//! witness that exists in the graph.
//!
//! Three populations:
//!
//! * ~200 seeded random relay pipelines (copy/scal/axpy chains with
//!   extra reads, tee writes, reductions, stateful stages that stream
//!   through into the next chain, and fanout injected at random);
//! * the paper compositions — AXPYDOT, BiCG, GEMVER — routed through
//!   the real planner, with op-derived semantics;
//! * a scaled-AXPYDOT variant whose scal→axpy→dot chain fuses into one
//!   region closed by the block-replayed DOT, so the planner path
//!   exercises a relay chain ending in a reduction, not only a bare
//!   one.
//!
//! Every fusion plan is additionally re-verified (obligations,
//! witnesses) and round-tripped byte-stably through JSON.

// Test/example code may unwrap; the clippy.toml discipline targets
// library code.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;

use fblas_core::composition::{
    analyze_fusion, build_evaluator, check_obligations, infer_sems, plan, sems_for_component,
    verify_witnesses, FusionPlan, Mdag, ModuleSem, Op, PlannerConfig, Program, RateGraph,
    EXEC_WIDTH,
};
use fblas_lint::harness::{run_on_simulator, run_region_threaded, seeded_streams, SimVerdict};
use proptest::prelude::*;

// ------------------------------------------------------------------
// Deterministic xorshift64* generator (same idiom as the rate
// differential suite): every failure names its seed.
// ------------------------------------------------------------------

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
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

// ------------------------------------------------------------------
// Random relay pipelines over real MDAGs.
// ------------------------------------------------------------------

const ELEMS: u64 = 64;

/// A random pipeline: 2–6 compute stages chained head to tail, each a
/// relay (copy/scal/axpy), a W-way reduction, or a stateful module;
/// axpy stages pull a fresh read for their second operand; relays tee
/// to writes at random; stateful stages sometimes stream through into
/// the next chain (a boundary *input* for the region that follows);
/// chains sometimes end in a reduction (closing the region under block
/// replay); relays feeding a stateful stage keep a boundary *output*; and an
/// extra consumer is sometimes attached to a middle relay (fanout — a
/// rejection the analyzer must witness).
fn random_fusion_graph(seed: u64) -> (Mdag, Vec<ModuleSem>) {
    let mut rng = Rng::new(seed);
    let mut g = Mdag::new();
    let mut overrides: Vec<(usize, ModuleSem)> = Vec::new();

    let read0 = g.add_interface("read_x0");
    let mut reads = 1;
    let mut live = read0; // head of the chain under construction
    let mut live_is_relay = false;
    let stages = rng.range(2, 6);
    let mut relay_nodes = Vec::new();

    for si in 0..stages {
        let roll = rng.range(0, 9);
        let (name, sem, arity) = match roll {
            0 | 1 => (format!("copy#{si}"), ModuleSem::Copy, 1),
            2..=4 => (
                format!("scal#{si}"),
                ModuleSem::Scal {
                    alpha: Some((rng.range(1, 9) as f64) / 2.0),
                },
                1,
            ),
            5..=7 => (
                format!("axpy#{si}"),
                ModuleSem::Axpy {
                    alpha: Some(-((rng.range(1, 9) as f64) / 4.0)),
                },
                2,
            ),
            8 => (format!("dot#{si}"), ModuleSem::Reduce { width: 16 }, 2),
            _ => (format!("gemv#{si}"), ModuleSem::Stateful, 2),
        };
        let node = g.add_compute(name);
        overrides.push((node.0, sem.clone()));
        g.add_edge(live, node, ELEMS, ELEMS, 16);
        if arity == 2 {
            let r = g.add_interface(format!("read_x{reads}"));
            reads += 1;
            g.add_edge(r, node, ELEMS, ELEMS, 16);
        }
        if sem.is_relay() {
            relay_nodes.push(node);
            if rng.chance(33) {
                let w = g.add_interface(format!("write_t{si}"));
                g.add_edge(node, w, ELEMS, ELEMS, 16);
            }
            live = node;
            live_is_relay = true;
        } else if matches!(sem, ModuleSem::Stateful) && rng.chance(50) {
            // A gemv-like tile streaming its result into the next
            // chain: whatever fuses downstream sees a boundary input.
            live = node;
            live_is_relay = false;
        } else {
            // Reduction (or drained stateful stage): sink it and
            // restart the chain from a fresh read.
            let w = g.add_interface(format!("write_r{si}"));
            g.add_edge(node, w, 1, 1, 16);
            let r = g.add_interface(format!("read_x{reads}"));
            reads += 1;
            live = r;
            live_is_relay = false;
        }
    }
    if live_is_relay && rng.chance(40) {
        // End in a reduction: the DOT closes the chain's region.
        let dot = g.add_compute("dot#end");
        overrides.push((dot.0, ModuleSem::Reduce { width: 16 }));
        g.add_edge(live, dot, ELEMS, ELEMS, 16);
        let r = g.add_interface(format!("read_x{reads}"));
        g.add_edge(r, dot, ELEMS, ELEMS, 16);
        let w = g.add_interface("write_out");
        g.add_edge(dot, w, 1, 1, 16);
    } else if live_is_relay {
        let w = g.add_interface("write_out");
        g.add_edge(live, w, ELEMS, ELEMS, 16);
    } else {
        // Chain ended on a read or streaming stateful stage: close it
        // with a copy so the graph stays an analyzable pipeline.
        let c = g.add_compute("copy#tail");
        overrides.push((c.0, ModuleSem::Copy));
        relay_nodes.push(c);
        g.add_edge(live, c, ELEMS, ELEMS, 16);
        let w = g.add_interface("write_out");
        g.add_edge(c, w, ELEMS, ELEMS, 16);
    }

    // Random fanout: a second *compute* consumer on a middle relay.
    if !relay_nodes.is_empty() && rng.chance(25) {
        let victim = relay_nodes[(rng.next() % relay_nodes.len() as u64) as usize];
        let extra = g.add_compute("copy#fan");
        overrides.push((extra.0, ModuleSem::Copy));
        g.add_edge(victim, extra, ELEMS, ELEMS, 16);
        let w = g.add_interface("write_fan");
        g.add_edge(extra, w, ELEMS, ELEMS, 16);
    }

    let mut sems = infer_sems(&g, 16);
    for (i, sem) in overrides {
        sems[i] = sem;
    }
    (g, sems)
}

/// Bit-exact fused-vs-threaded comparison for every region of a plan,
/// plus witness and obligation re-verification and a byte-stable JSON
/// round-trip. Returns (regions, rejections) for non-vacuity counts.
fn verify_plan(g: &Mdag, sems: &[ModuleSem], fp: &FusionPlan, label: &str) -> (u64, u64) {
    let witness_errors = verify_witnesses(fp, g);
    assert!(witness_errors.is_empty(), "{label}: {witness_errors:?}");
    let obligation_errors = check_obligations(fp, g, sems, false);
    assert!(
        obligation_errors.is_empty(),
        "{label}: {obligation_errors:?}"
    );

    let json = fp.to_json();
    let back = FusionPlan::from_json(&json).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(&back, fp, "{label}: plan changed across round-trip");
    assert_eq!(
        back.to_json(),
        json,
        "{label}: serialization not byte-stable"
    );

    for region in &fp.regions {
        let ev = build_evaluator(g, sems, region)
            .unwrap_or_else(|e| panic!("{label} {}: {e}", region.name));
        let len = region.elements as usize;
        let streams = seeded_streams(&ev.inputs, 0xfb1a5 ^ region.elements, len);
        let fused = ev
            .run(&streams)
            .unwrap_or_else(|e| panic!("{label} {}: fused run: {e}", region.name));
        let threaded = run_region_threaded(g, sems, region, &streams, None)
            .unwrap_or_else(|e| panic!("{label} {}: threaded run: {e}", region.name));
        let bits = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            fused.sinks.keys().collect::<Vec<_>>(),
            threaded.sinks.keys().collect::<Vec<_>>(),
            "{label} {}: sink sets differ",
            region.name
        );
        for (k, v) in &fused.sinks {
            assert_eq!(
                bits(v),
                bits(&threaded.sinks[k]),
                "{label} {}: sink `{k}` not bit-identical",
                region.name
            );
        }
        assert_eq!(
            bits(&fused.output),
            bits(&threaded.output),
            "{label} {}: output not bit-identical",
            region.name
        );
    }
    (fp.regions.len() as u64, fp.rejections.len() as u64)
}

fn run_fusion_seed_block(seeds: std::ops::Range<u64>, floor_regions: u64) {
    let (mut regions, mut rejections) = (0u64, 0u64);
    for seed in seeds {
        let (g, sems) = random_fusion_graph(seed);
        let fp = analyze_fusion(&g, &sems, &format!("seed{seed}"), false);
        let (r, x) = verify_plan(&g, &sems, &fp, &format!("seed {seed}"));
        regions += r;
        rejections += x;
    }
    // Non-vacuity: the population must exercise both outcomes broadly.
    assert!(
        regions >= floor_regions,
        "population too thin: {regions} fused regions (< {floor_regions})"
    );
    assert!(rejections > 0, "population never rejected a chain");
}

// 4 × 50 = 200 seeded pipelines, split across test threads. Each block
// must produce at least 10 fused regions (≥ 40 total — the keystone's
// non-vacuity floor).
#[test]
fn fused_regions_are_bit_identical_block0() {
    run_fusion_seed_block(0..50, 10);
}
#[test]
fn fused_regions_are_bit_identical_block1() {
    run_fusion_seed_block(50..100, 10);
}
#[test]
fn fused_regions_are_bit_identical_block2() {
    run_fusion_seed_block(100..150, 10);
}
#[test]
fn fused_regions_are_bit_identical_block3() {
    run_fusion_seed_block(150..200, 10);
}

// ------------------------------------------------------------------
// Paper compositions through the real planner.
// ------------------------------------------------------------------

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

/// AXPYDOT with a scaled prefix: t = 2w, z = v − t, beta = z·u. The
/// scal→axpy prefix and the DOT it feeds fuse into one region through
/// the planner.
fn scaled_axpydot_program(n: usize) -> Program {
    let mut p = Program::new();
    p.vector("w", n)
        .vector("v", n)
        .vector("u", n)
        .vector("t", n)
        .vector("z", n)
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
    p
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
fn paper_compositions_verify_through_the_planner() {
    let programs: Vec<(&str, Program)> = vec![
        ("axpydot", axpydot_program(64)),
        ("scaled_axpydot", scaled_axpydot_program(64)),
        ("bicg", bicg_program(32, 32)),
        ("gemver", gemver_program(32)),
    ];
    let cfg = PlannerConfig::default();
    let mut fused_total = 0u64;
    let mut rejected_total = 0u64;
    for (name, program) in &programs {
        let planned = plan(program, &cfg).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for (ci, c) in planned.components.iter().enumerate() {
            let sems = sems_for_component(&c.mdag, program.ops(), 16);
            let fp = analyze_fusion(&c.mdag, &sems, &format!("{name}#c{ci}"), false);
            let (r, x) = verify_plan(&c.mdag, &sems, &fp, &format!("{name}#c{ci}"));
            fused_total += r;
            rejected_total += x;
        }
    }
    // The scaled AXPYDOT must actually fuse its scal→axpy prefix, and
    // the stateful/reducing compositions must produce witnessed
    // rejections.
    assert!(fused_total >= 1, "no fused region across paper programs");
    assert!(
        rejected_total >= 4,
        "expected witnessed rejections from dot/gemv/ger chains, got {rejected_total}"
    );
}

#[test]
fn reassociation_rejections_carry_the_reducing_witness() {
    let program = axpydot_program(64);
    let planned = plan(&program, &PlannerConfig::default()).unwrap();
    let c = &planned.components[0];
    // At the executor's width the DOT closes the axpy's region: the
    // fused loop replays the threaded module's W-lane blocks, so no
    // reduction is rejected.
    let sems = sems_for_component(&c.mdag, program.ops(), EXEC_WIDTH);
    let fp = analyze_fusion(&c.mdag, &sems, "axpydot", false);
    assert_eq!(fp.regions.len(), 1, "{}", fp.to_json());
    let region = &fp.regions[0];
    assert!(region.modules.iter().any(|m| m.starts_with("dot#")));
    assert!(region.obligations.iter().any(|o| o.kind == "block-replay"));
    assert!(fp.rejections.is_empty(), "{}", fp.to_json());
    // At any other W > 1 the adder tree groups the sum differently from
    // the threaded DOT: the rejection stays, naming the reducer.
    let sems8 = sems_for_component(&c.mdag, program.ops(), EXEC_WIDTH / 2);
    let fp8 = analyze_fusion(&c.mdag, &sems8, "axpydot-w8", false);
    assert!(fp8.regions.is_empty(), "{}", fp8.to_json());
    let reassoc: Vec<_> = fp8
        .rejections
        .iter()
        .filter(|r| r.reason == "reassociation")
        .collect();
    assert!(!reassoc.is_empty(), "{}", fp8.to_json());
    for r in &reassoc {
        let w = r.witness_module.as_deref().expect("witness module");
        assert!(w.starts_with("dot#"), "witness should be the reducer: {w}");
    }
    // At W = 1 the adder no longer reassociates, but the reduction
    // still collapses N elements to 1: the rejection must downgrade to
    // `rate-change`, never disappear.
    let sems1 = sems_for_component(&c.mdag, program.ops(), 1);
    let fp1 = analyze_fusion(&c.mdag, &sems1, "axpydot-w1", false);
    assert!(
        fp1.rejections.iter().all(|r| r.reason != "reassociation"),
        "{}",
        fp1.to_json()
    );
    assert!(
        fp1.rejections.iter().any(|r| r.reason == "rate-change"),
        "{}",
        fp1.to_json()
    );
}

// ------------------------------------------------------------------
// Satellite: RateGraph::min_depth exactness on random multi-edge /
// burst graphs — the reported depth admits completion, depth − 1
// deadlocks, on both the abstract engine and (sampled) the simulator.
// ------------------------------------------------------------------

#[derive(Debug, Clone)]
struct BurstEdge {
    elements: u64,
    depth: u64,
    burst: u64,
}

fn burst_edges() -> impl Strategy<Value = Vec<BurstEdge>> {
    prop::collection::vec(
        (1u64..40, 1u64..4, 0u64..40).prop_map(|(elements, depth, burst)| BurstEdge {
            elements,
            depth,
            burst: burst.min(elements),
        }),
        2..5,
    )
}

/// src streams every parallel edge; the join's consumption order and
/// burst prefixes come from the MDAG translation — bursts larger than
/// the configured depth force real buffering before the first pop.
fn burst_mdag(edges: &[BurstEdge]) -> Mdag {
    let mut g = Mdag::new();
    let src = g.add_interface("src");
    let join = g.add_compute("join");
    let sink = g.add_interface("sink");
    let mut total = 0;
    for e in edges {
        let id = g.add_edge(src, join, e.elements, e.elements, e.depth);
        if e.burst > 0 {
            g.set_burst_before_consume(id, e.burst);
        }
        total += e.elements;
    }
    g.add_edge(join, sink, total, total, 8);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn min_depth_is_exact_on_random_burst_graphs(edges in burst_edges()) {
        let g = burst_mdag(&edges);
        let rg = RateGraph::from_mdag(&g);
        let caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
        let mut sim_budget = 2u32;
        for ch in 0..rg.channel_count() {
            let Some(d) = rg.min_depth(ch) else { continue };
            let mut at = caps.clone();
            at[ch] = d;
            prop_assert!(
                rg.analyze_with(&at).is_completed(),
                "channel {}: min depth {} must complete", ch, d
            );
            if d > 1 {
                let mut below = caps.clone();
                below[ch] = d - 1;
                prop_assert!(
                    !rg.analyze_with(&below).is_completed(),
                    "channel {}: depth {} must deadlock", ch, d - 1
                );
                // Sampled simulator agreement: real threads, real FIFOs.
                if d > caps[ch] && sim_budget > 0 {
                    sim_budget -= 1;
                    prop_assert_eq!(
                        run_on_simulator(&rg, &at),
                        SimVerdict::Completed
                    );
                    prop_assert_eq!(
                        run_on_simulator(&rg, &below),
                        SimVerdict::Stalled
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// Satellite: every diagnostic code in the registry has a triggering
// fixture under examples/lint — walking the real files through the
// real linter, exactly as CI does.
// ------------------------------------------------------------------

#[test]
fn every_lint_code_has_a_triggering_fixture() {
    use fblas_lint::{lint_json, LintCode};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lint");
    let mut fired: std::collections::HashSet<LintCode> = std::collections::HashSet::new();
    let mut files = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/lint exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        files += 1;
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let report = lint_json(&text, &path.display().to_string());
        fired.extend(report.diagnostics.iter().map(|d| d.code));
    }
    assert!(files >= 10, "fixture corpus suspiciously small: {files}");
    let missing: Vec<_> = LintCode::ALL
        .iter()
        .filter(|c| !fired.contains(c))
        .collect();
    assert!(
        missing.is_empty(),
        "codes with no triggering fixture under examples/lint: {missing:?}"
    );
}

// ------------------------------------------------------------------
// The fused evaluator is total on its advertised domain: any plan that
// validates must also build and run. (Guards against plans that
// serialize fine but cannot execute.)
// ------------------------------------------------------------------

#[test]
fn every_region_of_every_seed_builds_an_evaluator() {
    for seed in 0..200u64 {
        let (g, sems) = random_fusion_graph(seed);
        let fp = analyze_fusion(&g, &sems, &format!("seed{seed}"), false);
        for region in &fp.regions {
            let ev = build_evaluator(&g, &sems, region)
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", region.name));
            assert_eq!(ev.elements, region.elements);
            let empty: BTreeMap<String, Vec<f32>> = BTreeMap::new();
            if !ev.inputs.is_empty() {
                assert!(ev.run(&empty).is_err(), "missing streams must be an error");
            }
        }
    }
}
