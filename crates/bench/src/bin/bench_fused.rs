//! Fused-backend throughput vs the threaded dataflow simulator.
//!
//! Runs six planner programs — DOT, a four-op elementwise chain,
//! GEMVER, AXPYDOT, BICG, and a lone GEMV over 3 × 3 tiles — through
//! `execute_plan` in audit mode
//! under `Backend::Threaded` and `Backend::Fused`, each at
//! `FBLAS_CHUNK ∈ {1, 256}`. The fused backend compiles validated
//! fusion regions into straight-line loops (no channels, no threads);
//! everything the analyzer cannot fuse falls back to the threaded
//! simulator, so the two backends must agree exactly.
//!
//! Before writing the report the bin asserts, per routine, that all
//! four (backend, chunk) combinations produce bit-identical buffers and
//! DOT scalars and identical modeled cycle counts: the `C = L + I·M`
//! model is a property of the plan, not the execution strategy.
//!
//! ```text
//! cargo run --release -p fblas-bench --bin bench_fused
//! ```
//!
//! Deterministic columns (`routine`, `backend`, `chunk`, `n`,
//! `elements`, `model_cycles`, `fused_regions`) are gated by
//! bench-diff; wall-clock columns carry the volatile `cpu_` prefix and
//! are exempt.

use std::collections::HashMap;
use std::time::Instant;

use fblas_bench::metrics::{BenchReport, Cell};
use fblas_core::composition::{
    execute_plan, fusion_plan_for_component, plan, Backend, ExecMode, ExecOptions, Op,
    PlannerConfig, Program,
};
use fblas_core::host::DeviceBuffer;

const CHUNKS: [usize; 2] = [1, 256];
const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Fused];
const REPS: usize = 3;

const CHAIN_N: usize = 4096;
const DOT_N: usize = 4096;
const AXPYDOT_N: usize = 4096;
const GEMVER_N: usize = 96;
const BICG_N: usize = 96;
const GEMV_TILES_N: usize = 96;
/// Tile edge of the lone GEMV: its matrix spans 3 × 3 tiles.
const GEMV_TILE: usize = 32;

/// A benchmark program plus the operand shapes the harness must bind.
struct Case {
    program: Program,
    /// (name, element count) for every vector and matrix operand.
    shapes: Vec<(String, usize)>,
    /// Problem size reported in the `n` column.
    n: usize,
    /// The tiling the program is planned and executed under.
    cfg: PlannerConfig,
}

fn seq(n: usize, seed: f64) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f64 + seed) * 0.4371).sin() as f32)
        .collect()
}

/// DOT reduction: one region holding only the reduction — the fused
/// loop replays the threaded module's 16-lane blocks through the same
/// accumulator.
fn case_dot() -> Case {
    let n = DOT_N;
    let mut p = Program::new();
    p.vector("x", n).vector("y", n).scalar("r");
    p.op(Op::Dot {
        x: "x".into(),
        y: "y".into(),
        out: "r".into(),
    });
    Case {
        program: p,
        shapes: vec![("x".into(), n), ("y".into(), n)],
        n,
        cfg: PlannerConfig::default(),
    }
}

/// Four-op elementwise relay chain: fully fusable, the headline case —
/// one region, one loop, zero channels.
fn case_axpy_chain() -> Case {
    let n = CHAIN_N;
    let mut p = Program::new();
    p.vector("x", n).vector("y", n);
    for out in ["a", "b", "c", "d"] {
        p.vector(out, n);
    }
    p.op(Op::Scal {
        alpha: 1.5,
        x: "x".into(),
        out: "a".into(),
    });
    p.op(Op::Axpy {
        alpha: -0.5,
        x: "a".into(),
        y: "y".into(),
        out: "b".into(),
    });
    p.op(Op::Axpy {
        alpha: 0.25,
        x: "b".into(),
        y: "x".into(),
        out: "c".into(),
    });
    p.op(Op::Copy {
        x: "c".into(),
        out: "d".into(),
    });
    Case {
        program: p,
        shapes: ["x", "y", "a", "b", "c", "d"]
            .iter()
            .map(|s| (s.to_string(), n))
            .collect(),
        n,
        cfg: PlannerConfig::default(),
    }
}

/// GEMVER (paper Sec. V): two rank-1 updates then two GEMV passes, in
/// two components — GER→GER→GEMVᵀ and the lone trailing GEMV — each
/// replayed tile by tile.
fn case_gemver() -> Case {
    let n = GEMVER_N;
    let mut p = Program::new();
    p.matrix("A", n, n).matrix("B1", n, n).matrix("B", n, n);
    for v in ["u1", "v1", "u2", "v2", "y", "z", "xv", "w"] {
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
        alpha: 3.0,
        beta: 1.0,
        a: "B".into(),
        transposed: true,
        x: "y".into(),
        y: Some("z".into()),
        out: "xv".into(),
    });
    p.op(Op::Gemv {
        alpha: 2.0,
        beta: 0.0,
        a: "B".into(),
        transposed: false,
        x: "xv".into(),
        y: None,
        out: "w".into(),
    });
    let mut shapes: Vec<(String, usize)> = ["A", "B1", "B"]
        .iter()
        .map(|s| (s.to_string(), n * n))
        .collect();
    shapes.extend(
        ["u1", "v1", "u2", "v2", "y", "z", "xv", "w"]
            .iter()
            .map(|s| (s.to_string(), n)),
    );
    Case {
        program: p,
        shapes,
        n,
        cfg: PlannerConfig::default(),
    }
}

/// AXPYDOT (paper Sec. V): `z = w - α·v`, `r = zᵀu` — one region: the
/// relay, its `z` tee, and the DOT that closes it.
fn case_axpydot() -> Case {
    let n = AXPYDOT_N;
    let mut p = Program::new();
    p.vector("w", n)
        .vector("v", n)
        .vector("u", n)
        .vector("z", n);
    p.scalar("r");
    p.op(Op::Axpy {
        alpha: -0.75,
        x: "v".into(),
        y: "w".into(),
        out: "z".into(),
    });
    p.op(Op::Dot {
        x: "z".into(),
        y: "u".into(),
        out: "r".into(),
    });
    Case {
        program: p,
        shapes: ["w", "v", "u", "z"]
            .iter()
            .map(|s| (s.to_string(), n))
            .collect(),
        n,
        cfg: PlannerConfig::default(),
    }
}

/// BICG (paper Sec. V): `q = A·p`, `s = Aᵀ·r` — two independent GEMVs
/// over the same matrix operand.
fn case_bicg() -> Case {
    let n = BICG_N;
    let mut p = Program::new();
    p.matrix("A", n, n);
    for v in ["p", "r", "q", "s"] {
        p.vector(v, n);
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
        beta: 0.0,
        a: "A".into(),
        transposed: true,
        x: "r".into(),
        y: None,
        out: "s".into(),
    });
    Case {
        program: p,
        shapes: [("A".to_string(), n * n)]
            .into_iter()
            .chain(["p", "r", "q", "s"].iter().map(|s| (s.to_string(), n)))
            .collect(),
        n,
        cfg: PlannerConfig::default(),
    }
}

/// A lone GEMV `o = αAx + βy` whose matrix spans several planner
/// tiles: replayed tile by tile although it is its component's only
/// tile (only a program that is one single-tile GEMV/GER stays
/// threaded).
fn case_gemv_tiles() -> Case {
    let n = GEMV_TILES_N;
    let mut p = Program::new();
    p.matrix("A", n, n);
    for v in ["x", "y", "o"] {
        p.vector(v, n);
    }
    p.op(Op::Gemv {
        alpha: 1.5,
        beta: -0.25,
        a: "A".into(),
        transposed: false,
        x: "x".into(),
        y: Some("y".into()),
        out: "o".into(),
    });
    Case {
        program: p,
        shapes: [("A".to_string(), n * n)]
            .into_iter()
            .chain(["x", "y", "o"].iter().map(|s| (s.to_string(), n)))
            .collect(),
        n,
        cfg: PlannerConfig {
            tn: GEMV_TILE,
            tm: GEMV_TILE,
            ..PlannerConfig::default()
        },
    }
}

struct Sample {
    /// Total operand elements bound into the run (work touched).
    elements: u64,
    /// Summed per-component predicted cycles — must be backend- and
    /// chunk-invariant.
    model_cycles: u64,
    /// Fused regions the plan admits under this backend (0 = threaded).
    fused_regions: u64,
    /// Best-of-REPS wall time in seconds.
    wall: f64,
    /// Bit patterns of every buffer and scalar — must be invariant.
    result_bits: Vec<u32>,
}

fn bind(case: &Case) -> HashMap<String, DeviceBuffer<f32>> {
    case.shapes
        .iter()
        .enumerate()
        .map(|(bi, (name, len))| {
            (
                name.clone(),
                DeviceBuffer::from_vec(name, seq(*len, bi as f64 + 1.0), bi % 4),
            )
        })
        .collect()
}

fn run_case(case: &Case, backend: Backend) -> Sample {
    let cfg = case.cfg;
    let planned = plan(&case.program, &cfg).expect("benchmark program plans");
    let fused_regions = if matches!(backend, Backend::Fused) {
        planned
            .components
            .iter()
            .map(|c| {
                let (_, fp) = fusion_plan_for_component(&case.program, c, false);
                fp.regions.len() as u64
            })
            .sum()
    } else {
        0
    };
    let mut wall = f64::INFINITY;
    let mut result_bits: Vec<u32> = Vec::new();
    let mut model_cycles = 0u64;
    for _ in 0..REPS {
        let bufs = bind(case);
        let t0 = Instant::now();
        let opts = ExecOptions {
            backend,
            tracer: None,
            mode: ExecMode::Audit {
                freq_hz: 200.0e6,
                tolerance: 0.25,
            },
        };
        let out = execute_plan::<f32>(&case.program, &planned, &cfg, &bufs, &opts)
            .expect("benchmark program executes");
        wall = wall.min(t0.elapsed().as_secs_f64());
        model_cycles = out.audits.iter().map(|a| a.predicted_cycles).sum();
        let mut bits: Vec<(String, Vec<u32>)> = case
            .shapes
            .iter()
            .map(|(name, _)| {
                (
                    name.clone(),
                    bufs[name].to_host().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect();
        let mut scalars: Vec<(String, Vec<u32>)> = out
            .scalars
            .iter()
            .map(|(k, v)| (k.clone(), vec![v.to_bits()]))
            .collect();
        bits.append(&mut scalars);
        bits.sort();
        result_bits = bits.into_iter().flat_map(|(_, b)| b).collect();
    }
    Sample {
        elements: case.shapes.iter().map(|(_, l)| *l as u64).sum(),
        model_cycles,
        fused_regions,
        wall,
        result_bits,
    }
}

fn main() {
    let mut report = BenchReport::new("fused");
    fblas_bench::audit::stamp_audit(&mut report, &[]);
    report
        .meta("chain_n", CHAIN_N as u64)
        .meta("gemver_n", GEMVER_N as u64)
        .meta("reps", REPS as u64);

    println!("=== Fused backend vs threaded simulator ===\n");
    println!(
        "{:<12} {:<9} {:>6} {:>9} {:>12} {:>8} {:>14} {:>10}",
        "routine", "backend", "chunk", "elements", "model_cyc", "regions", "elems/sec", "wall_ms"
    );

    type Builder = fn() -> Case;
    let cases: [(&str, Builder); 6] = [
        ("dot", case_dot),
        ("axpy_chain", case_axpy_chain),
        ("gemver", case_gemver),
        ("axpydot", case_axpydot),
        ("bicg", case_bicg),
        ("gemv_tiles", case_gemv_tiles),
    ];

    for (name, builder) in cases {
        let case = builder();
        let mut reference: Option<Sample> = None;
        for backend in BACKENDS {
            for chunk in CHUNKS {
                std::env::set_var("FBLAS_CHUNK", chunk.to_string());
                let s = run_case(&case, backend);
                if let Some(r) = &reference {
                    assert_eq!(
                        r.result_bits, s.result_bits,
                        "{name}: results must be bit-identical across backends and chunks"
                    );
                    assert_eq!(
                        r.model_cycles, s.model_cycles,
                        "{name}: modeled cycles must be backend-invariant"
                    );
                }
                let eps = s.elements as f64 / s.wall;
                println!(
                    "{:<12} {:<9} {:>6} {:>9} {:>12} {:>8} {:>14.0} {:>10.3}",
                    name,
                    backend.as_str(),
                    chunk,
                    s.elements,
                    s.model_cycles,
                    s.fused_regions,
                    eps,
                    s.wall * 1e3
                );
                report.add_row([
                    ("routine", Cell::from(name)),
                    ("backend", Cell::from(backend.as_str())),
                    ("chunk", Cell::from(chunk as u64)),
                    ("n", Cell::from(case.n as u64)),
                    ("elements", Cell::from(s.elements)),
                    ("model_cycles", Cell::from(s.model_cycles)),
                    ("fused_regions", Cell::from(s.fused_regions)),
                    ("cpu_elems_per_sec", Cell::from(eps)),
                    ("cpu_wall_ms", Cell::from(s.wall * 1e3)),
                ]);
                if reference.is_none() {
                    reference = Some(s);
                }
            }
        }
    }
    std::env::remove_var("FBLAS_CHUNK");

    let path = report.write().expect("write BENCH_fused.json");
    println!("\nreport: {}", path.display());
}
