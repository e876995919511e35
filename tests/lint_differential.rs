//! Differential validation of the static analyzer against the threaded
//! simulator.
//!
//! The linter's deadlock verdicts come from an abstract scheduler
//! (`fblas_core::composition::rates`); the simulator runs real threads
//! with blocking bounded FIFOs and declares a stall when every live
//! module is blocked. Kahn-network determinism says the two must agree
//! on every composition:
//!
//! * lint **accept** ⟺ the simulation **completes**;
//! * lint **deadlock** ⟺ the simulator reports a **stall**;
//! * every reported minimum channel depth is **exact** — the depth
//!   completes and depth − 1 stalls.
//!
//! The generated population (`fblas_lint::harness::random_graph`) is
//! seeded and deterministic, so a failure here reproduces byte-for-byte.

// Test/example code may unwrap; the clippy.toml discipline targets
// library code.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;

use fblas_core::composition::{execute_plan, plan, ExecOptions, Mdag, RateGraph, RateOutcome};
use fblas_core::host::DeviceBuffer;
use fblas_lint::harness::{random_graph, run_on_simulator, SimVerdict};
use fblas_lint::input::Document;
use fblas_lint::{classify, lint_json, LintCode};

/// Assert the abstract verdict and the simulator verdict agree for one
/// graph at its configured capacities.
fn assert_agreement(rg: &RateGraph, seed: u64) -> bool {
    let caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
    let abstracted = rg.analyze();
    let simulated = run_on_simulator(rg, &caps);
    match (&abstracted, &simulated) {
        (RateOutcome::Completed { .. }, SimVerdict::Completed) => true,
        (RateOutcome::Deadlock { .. }, SimVerdict::Stalled) => false,
        (a, s) => panic!("seed {seed}: analyzer said {a:?}, simulator said {s:?}"),
    }
}

fn run_seed_block(seeds: std::ops::Range<u64>) {
    let (mut completed, mut deadlocked) = (0u32, 0u32);
    for seed in seeds {
        let rg = random_graph(seed);
        if assert_agreement(&rg, seed) {
            completed += 1;
        } else {
            deadlocked += 1;
        }
    }
    // The population must exercise both verdicts, or the test is vacuous.
    assert!(completed > 0, "population never completed");
    assert!(deadlocked > 0, "population never deadlocked");
}

// 4 × 60 = 240 generated compositions, split so the harness runs the
// blocks on separate test threads.
#[test]
fn generated_graphs_agree_block0() {
    run_seed_block(0..60);
}
#[test]
fn generated_graphs_agree_block1() {
    run_seed_block(60..120);
}
#[test]
fn generated_graphs_agree_block2() {
    run_seed_block(120..180);
}
#[test]
fn generated_graphs_agree_block3() {
    run_seed_block(180..240);
}

// ------------------------------------------------------------------
// Minimum-depth exactness.
// ------------------------------------------------------------------

#[test]
fn reported_min_depths_are_exact() {
    let mut repairable = 0u32;
    let mut simulated = 0u32;
    for seed in 1000..1400 {
        if repairable >= 40 {
            break;
        }
        let rg = random_graph(seed);
        if rg.analyze().is_completed() {
            continue;
        }
        let Some(fixes) = rg.repair() else {
            continue; // unrepairable deadlocks are covered by the blocks above
        };
        repairable += 1;
        let orig: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
        let mut fixed = orig.clone();
        for &(ch, depth) in &fixes {
            fixed[ch] = depth;
        }
        // Abstract exactness for every repaired channel.
        assert!(
            rg.analyze_with(&fixed).is_completed(),
            "seed {seed}: repaired capacities must complete"
        );
        for &(ch, depth) in &fixes {
            assert!(depth > orig[ch], "seed {seed}: repair must raise capacity");
            let mut lowered = fixed.clone();
            lowered[ch] = depth - 1;
            assert!(
                !rg.analyze_with(&lowered).is_completed(),
                "seed {seed}: channel {ch} at depth {} must still deadlock",
                depth - 1
            );
        }
        // Simulator-side exactness on a bounded subset: the repaired
        // depths complete, and shaving one element off any single
        // repaired channel stalls.
        if simulated < 8 {
            simulated += 1;
            assert_eq!(
                run_on_simulator(&rg, &fixed),
                SimVerdict::Completed,
                "seed {seed}: simulator at repaired depths"
            );
            for &(ch, depth) in &fixes {
                let mut lowered = fixed.clone();
                lowered[ch] = depth - 1;
                assert_eq!(
                    run_on_simulator(&rg, &lowered),
                    SimVerdict::Stalled,
                    "seed {seed}: simulator with channel {ch} one short"
                );
            }
        }
    }
    assert!(repairable >= 20, "too few repairable cases: {repairable}");
    assert!(simulated >= 8, "too few simulated subsets: {simulated}");
}

// ------------------------------------------------------------------
// Fixture differentials: the paper's shapes, via Mdag → RateGraph.
// ------------------------------------------------------------------

/// ATAX in miniature: a burst edge (the matrix re-read) next to a
/// direct path, undersized. Both analyses must reject it, and the
/// repaired depths must run on the simulator.
#[test]
fn fixture_atax_shallow_repairs_and_runs() {
    let mut g = Mdag::new();
    let src = g.add_interface("read_a");
    let relay = g.add_compute("gemv");
    let join = g.add_compute("gemv_t");
    let burst = g.add_edge(src, join, 96, 96, 8);
    g.set_burst_before_consume(burst, 40);
    g.add_edge(src, relay, 96, 96, 16);
    g.add_edge(relay, join, 96, 96, 16);

    let rg = RateGraph::from_mdag(&g);
    let caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
    assert!(matches!(rg.analyze(), RateOutcome::Deadlock { .. }));
    assert_eq!(run_on_simulator(&rg, &caps), SimVerdict::Stalled);

    let fixes = rg.repair().expect("depth-repairable");
    assert!(
        fixes
            .iter()
            .any(|&(ch, depth)| { depth == 40 && rg.channel_name(ch).contains("gemv_t") }),
        "burst edge must need exactly the burst depth: {fixes:?}"
    );
    let mut fixed = caps;
    for (ch, depth) in fixes {
        fixed[ch] = depth;
    }
    assert_eq!(run_on_simulator(&rg, &fixed), SimVerdict::Completed);
}

/// Two parallel edges between the same pair where one carries a burst:
/// the case the multitree heuristic misses — the sibling edge needs
/// deepening too.
#[test]
fn fixture_multi_edge_burst_agrees() {
    let mut g = Mdag::new();
    let a = g.add_interface("a");
    let b = g.add_compute("b");
    g.add_edge(a, b, 32, 32, 16);
    let bursty = g.add_edge(a, b, 32, 32, 8);
    g.set_burst_before_consume(bursty, 24);

    let rg = RateGraph::from_mdag(&g);
    let caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
    assert!(matches!(rg.analyze(), RateOutcome::Deadlock { .. }));
    assert_eq!(run_on_simulator(&rg, &caps), SimVerdict::Stalled);
    let fixes = rg.repair().expect("repairable");
    let mut fixed = caps;
    for (ch, depth) in fixes {
        fixed[ch] = depth;
    }
    assert_eq!(run_on_simulator(&rg, &fixed), SimVerdict::Completed);
}

/// AXPYDOT's stream shape is a plain multitree — both sides accept it
/// as-is.
#[test]
fn fixture_axpydot_completes_on_both() {
    let n = 64;
    let mut g = Mdag::new();
    let rw = g.add_interface("read_w");
    let rv = g.add_interface("read_v");
    let ru = g.add_interface("read_u");
    let axpy = g.add_compute("axpy");
    let dot = g.add_compute("dot");
    let wr = g.add_interface("write_beta");
    g.add_edge(rw, axpy, n, n, 4);
    g.add_edge(rv, axpy, n, n, 4);
    g.add_edge(axpy, dot, n, n, 4);
    g.add_edge(ru, dot, n, n, 4);
    g.add_edge(dot, wr, 1, 1, 1);

    let rg = RateGraph::from_mdag(&g);
    let caps: Vec<u64> = (0..rg.channel_count()).map(|c| rg.capacity(c)).collect();
    assert!(rg.analyze().is_completed());
    assert_eq!(run_on_simulator(&rg, &caps), SimVerdict::Completed);
}

// ------------------------------------------------------------------
// Program level: a lint *accept* must execute end-to-end, a lint
// *reject* must map to a planner failure.
// ------------------------------------------------------------------

const AXPYDOT_JSON: &str = r#"{"program": {
    "operands": [
        {"name":"w","kind":"vector","len":48},
        {"name":"v","kind":"vector","len":48},
        {"name":"u","kind":"vector","len":48},
        {"name":"z","kind":"vector","len":48},
        {"name":"beta","kind":"scalar"}
    ],
    "ops": [
        {"op":"axpy","alpha":-1.0,"x":"v","y":"w","out":"z"},
        {"op":"dot","x":"z","y":"u","out":"beta"}
    ],
    "config": {"tn":8,"tm":8}
}}"#;

#[test]
fn accepted_program_executes_on_the_simulator() {
    let report = lint_json(AXPYDOT_JSON, "axpydot.json");
    assert!(report.accepted(), "{}", report.render_table());

    let Document::Program(doc) = classify(AXPYDOT_JSON).unwrap() else {
        panic!("axpydot fixture must classify as a program");
    };
    let program = doc.to_program().unwrap();
    let cfg = doc.config.planner_config();
    let the_plan = plan(&program, &cfg).unwrap();

    let n = 48;
    let mk = |name: &str, seed: f64| {
        let data: Vec<f64> = (0..n).map(|i| ((i as f64 + seed) * 0.37).sin()).collect();
        DeviceBuffer::from_vec(name, data, 0)
    };
    let mut bufs: HashMap<String, DeviceBuffer<f64>> = HashMap::new();
    bufs.insert("w".into(), mk("w", 0.0));
    bufs.insert("v".into(), mk("v", 1.0));
    bufs.insert("u".into(), mk("u", 2.0));
    bufs.insert("z".into(), DeviceBuffer::from_vec("z", vec![0.0; n], 0));

    let out = execute_plan::<f64>(&program, &the_plan, &cfg, &bufs, &ExecOptions::default())
        .expect("lint-accepted program must execute");
    assert!(out.scalars.contains_key("beta"));
}

#[test]
fn rejected_program_fails_both_lint_and_plan() {
    let bad = r#"{"program": {
        "operands": [
            {"name":"x","kind":"vector","len":8},
            {"name":"y","kind":"vector","len":9},
            {"name":"d","kind":"scalar"}
        ],
        "ops": [{"op":"dot","x":"x","y":"y","out":"d"}]
    }}"#;
    let report = lint_json(bad, "bad.json");
    assert!(!report.accepted());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::FL0007));

    let Document::Program(doc) = classify(bad).unwrap() else {
        panic!("fixture must classify as a program");
    };
    let program = doc.to_program().unwrap();
    assert!(plan(&program, &doc.config.planner_config()).is_err());
}
