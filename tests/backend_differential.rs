//! Keystone differential for the fused *execution* backend.
//!
//! PR 8's `fusion_differential` proved the analysis: every region the
//! analyzer marks fusable evaluates bit-identically to its threaded
//! module chain, in isolation. This suite proves the **backend**: whole
//! programs routed through the real planner and executed end-to-end
//! must be indistinguishable across `Backend::Threaded` and
//! `Backend::Fused` —
//!
//! * every operand buffer and every DOT scalar bit-identical
//!   (`f32::to_bits`),
//! * the analytic model's predicted cycles identical per component
//!   (the `C = L + I·M` model is a property of the plan, not the
//!   backend),
//! * recovery reports byte-stable: hook-armed seeded chaos degrades
//!   fused runs to pure threaded (the `recovery-guards` obligation), so
//!   reports match by construction, and hook-free recovery exercises
//!   the staged write-back over genuinely fused regions.
//!
//! 220 seeded random programs (relay chains, reductions, GEMVs over
//! shared operands) run in four blocks, with a non-vacuity floor on how
//! many actually fused — a differential that never fuses proves
//! nothing. Two more blocks run seeded Level-2 compositions (BICG-,
//! ATAX- and GEMVER-shaped, over ragged multi-tile matrices) with a
//! floor on components replayed tile by tile, lone tiles included, and
//! one block runs seeded one-tile programs, the shape that stays
//! threaded. Every block also sets a floor on the fused backend's
//! threaded simulations that ran with host-depth FIFOs, so the bit
//! identity covers deepened runs too.

// Test code may unwrap; the clippy.toml discipline targets library code.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::sync::Arc;

use fblas_chaos::{FaultAction, FaultPlan, FaultSite};
use fblas_core::composition::{
    execute_plan, fusion_plan_for_component, plan, Backend, ExecMode, ExecOptions, ModuleSem, Op,
    Plan, PlannerConfig, Program, RetryPolicy, TileSem,
};
use fblas_core::host::DeviceBuffer;

// ------------------------------------------------------------------
// Deterministic xorshift64* generator: every failure names its seed.
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

/// Operand shapes the generator declared, so the harness can build
/// seeded buffers without re-deriving them from the program.
struct Shapes {
    /// (name, element count) for every vector and matrix operand.
    buffers: Vec<(String, usize)>,
}

/// A random planner program: 3–7 ops over equal-length vectors. Relays
/// (scal/copy/axpy) chain over the growing operand pool — consecutive
/// relays are what the fusion analysis collapses — with reductions
/// (which close a region at the executor's width) and square GEMVs
/// mixed in (unfusable: they exercise the fused↔threaded handoff at
/// boundary buffers and the planner's component splits).
fn random_program(seed: u64) -> (Program, Shapes, u64) {
    let mut rng = Rng::new(seed);
    let n = rng.range(33, 72) as usize;
    let mut p = Program::new();
    let mut buffers: Vec<(String, usize)> = Vec::new();
    let mut vecs: Vec<String> = Vec::new();
    for i in 0..3 {
        let name = format!("x{i}");
        p.vector(&name, n);
        buffers.push((name.clone(), n));
        vecs.push(name);
    }

    let ops = rng.range(3, 7);
    for oi in 0..ops {
        let pick = |rng: &mut Rng, vecs: &[String]| -> String {
            vecs[(rng.next() % vecs.len() as u64) as usize].clone()
        };
        // Distinct operands for two-input ops: the executor models each
        // (operand, consumer) pair as one channel, so an op reading the
        // same operand on both ports is out of its domain.
        let pick2 = |rng: &mut Rng, vecs: &[String]| -> (String, String) {
            let a = pick(rng, vecs);
            let b = loop {
                let c = pick(rng, vecs);
                if c != a {
                    break c;
                }
            };
            (a, b)
        };
        let out = format!("t{oi}");
        match rng.range(0, 9) {
            0..=2 => {
                let x = pick(&mut rng, &vecs);
                p.vector(&out, n);
                p.op(Op::Scal {
                    alpha: (rng.range(1, 9) as f64) / 2.0,
                    x,
                    out: out.clone(),
                });
            }
            3 => {
                let x = pick(&mut rng, &vecs);
                p.vector(&out, n);
                p.op(Op::Copy {
                    x,
                    out: out.clone(),
                });
            }
            4..=6 => {
                let (x, y) = pick2(&mut rng, &vecs);
                p.vector(&out, n);
                p.op(Op::Axpy {
                    alpha: -((rng.range(1, 9) as f64) / 4.0),
                    x,
                    y,
                    out: out.clone(),
                });
            }
            7 => {
                let (x, y) = pick2(&mut rng, &vecs);
                let sout = format!("s{oi}");
                p.scalar(&sout);
                p.op(Op::Dot { x, y, out: sout });
                continue; // scalar result: no buffer, not in the pool
            }
            _ => {
                let a = format!("A{oi}");
                p.matrix(&a, n, n);
                buffers.push((a.clone(), n * n));
                let x = pick(&mut rng, &vecs);
                let y = rng.chance(40).then(|| pick(&mut rng, &vecs));
                p.vector(&out, n);
                p.op(Op::Gemv {
                    alpha: (rng.range(1, 5) as f64) / 2.0,
                    beta: 1.0,
                    a,
                    transposed: rng.chance(50),
                    x,
                    y,
                    out: out.clone(),
                });
            }
        }
        buffers.push((out.clone(), n));
        vecs.push(out);
    }
    (p, Shapes { buffers }, seed)
}

/// Seeded deterministic buffer content: a function of (seed, name,
/// index) only, so both backends start from identical bits.
fn bind(shapes: &Shapes, seed: u64) -> HashMap<String, DeviceBuffer<f32>> {
    shapes
        .buffers
        .iter()
        .enumerate()
        .map(|(bi, (name, len))| {
            let phase = (seed as f32).mul_add(0.131, bi as f32 * 7.0);
            let data: Vec<f32> = (0..*len)
                .map(|j| ((j as f32 + phase) * 0.2137).sin())
                .collect();
            (name.clone(), DeviceBuffer::from_vec(name, data, bi % 4))
        })
        .collect()
}

/// Everything observable from one end-to-end run, reduced to exact
/// bits: operand buffers (sorted by name), DOT scalars (sorted), and
/// the analytic model's predicted cycles per component.
struct Observed {
    buffer_bits: Vec<(String, Vec<u32>)>,
    scalar_bits: Vec<(String, u32)>,
    predicted_cycles: Vec<u64>,
    /// Module rows of each component's audit (measured lanes included).
    audit_modules: Vec<Vec<String>>,
    /// Threaded simulations that ran with host-depth FIFOs.
    host_depth_sims: u64,
}

fn run_backend(
    program: &Program,
    planned: &Plan,
    cfg: &PlannerConfig,
    shapes: &Shapes,
    seed: u64,
    opts: &ExecOptions,
) -> Observed {
    let bufs = bind(shapes, seed);
    let out = execute_plan::<f32>(program, planned, cfg, &bufs, opts)
        .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", opts.backend.as_str()));
    let mut buffer_bits: Vec<(String, Vec<u32>)> = shapes
        .buffers
        .iter()
        .map(|(name, _)| {
            (
                name.clone(),
                bufs[name].to_host().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    buffer_bits.sort();
    let mut scalar_bits: Vec<(String, u32)> = out
        .scalars
        .iter()
        .map(|(k, v)| (k.clone(), v.to_bits()))
        .collect();
    scalar_bits.sort();
    Observed {
        buffer_bits,
        scalar_bits,
        predicted_cycles: out.audits.iter().map(|a| a.predicted_cycles).collect(),
        audit_modules: out
            .audits
            .iter()
            .map(|a| a.modules.iter().map(|m| m.module.clone()).collect())
            .collect(),
        host_depth_sims: out.host_depth_sims,
    }
}

/// Run one seed block, asserting non-vacuity floors on how many fused
/// regions the population's plans admitted (legality side, recovery
/// disarmed), how many of those a DOT closes — the regions whose
/// scalars `scalar_bits` compares — and how many threaded simulations
/// of the fused runs used host-depth FIFOs.
fn run_seed_block(
    seeds: std::ops::Range<u64>,
    floor_regions: u64,
    floor_reductions: u64,
    floor_host_depth: u64,
) {
    let cfg = PlannerConfig::default();
    let audit = |backend| ExecOptions {
        backend,
        tracer: None,
        mode: ExecMode::Audit {
            freq_hz: 200.0e6,
            tolerance: 0.25,
        },
    };
    let fused_with = |mode| ExecOptions {
        backend: Backend::Fused,
        tracer: None,
        mode,
    };
    let plain = fused_with(ExecMode::Plain);
    let recover = fused_with(ExecMode::Recover {
        policy: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        hook: None,
    });
    let (mut regions, mut reductions, mut host_depth) = (0u64, 0u64, 0u64);
    for seed in seeds {
        let (program, shapes, seed) = random_program(seed);
        let planned = plan(&program, &cfg).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        for c in &planned.components {
            let (_, fp) = fusion_plan_for_component(&program, c, false);
            regions += fp.regions.len() as u64;
            reductions += fp
                .regions
                .iter()
                .filter(|r| r.obligations.iter().any(|o| o.kind == "block-replay"))
                .count() as u64;
        }
        let threaded = run_backend(
            &program,
            &planned,
            &cfg,
            &shapes,
            seed,
            &audit(Backend::Threaded),
        );
        let fused = run_backend(
            &program,
            &planned,
            &cfg,
            &shapes,
            seed,
            &audit(Backend::Fused),
        );
        for ((tn, tb), (fn_, fb)) in threaded.buffer_bits.iter().zip(&fused.buffer_bits) {
            assert_eq!(tn, fn_, "seed {seed}: buffer sets differ");
            assert_eq!(tb, fb, "seed {seed}: operand `{tn}` not bit-identical");
        }
        assert_eq!(
            threaded.scalar_bits, fused.scalar_bits,
            "seed {seed}: DOT scalars diverged"
        );
        assert_eq!(
            threaded.predicted_cycles, fused.predicted_cycles,
            "seed {seed}: analytic model diverged across backends"
        );
        assert_eq!(
            threaded.host_depth_sims, 0,
            "seed {seed}: the oracle deepened"
        );
        host_depth += fused.host_depth_sims;
        // Staged write-back and commit must not move a bit: one clean
        // recovery attempt matches the plain run exactly.
        let plain = run_backend(&program, &planned, &cfg, &shapes, seed, &plain);
        let recovered = run_backend(&program, &planned, &cfg, &shapes, seed, &recover);
        assert_eq!(
            (plain.buffer_bits, plain.scalar_bits),
            (recovered.buffer_bits, recovered.scalar_bits),
            "seed {seed}: recovery mode not bit-identical to plain"
        );
    }
    assert!(
        regions >= floor_regions,
        "population too thin: {regions} fused regions (< {floor_regions})"
    );
    assert!(
        reductions >= floor_reductions,
        "population too thin: {reductions} fused regions closed by a DOT \
         (< {floor_reductions})"
    );
    assert!(
        host_depth >= floor_host_depth,
        "population too thin: {host_depth} threaded simulations at host depth \
         (< {floor_host_depth})"
    );
}

// 4 × 55 = 220 seeded programs, split across test threads. Each block
// must admit at least 8 fused regions (≥ 32 total), at least 15 of
// them closed by a DOT (≥ 60 total; the population yields 26–31 a block),
// and run at least 40 threaded simulations at host depth (63–68 a block).
#[test]
fn backends_are_bit_identical_block0() {
    run_seed_block(0..55, 8, 15, 40);
}
#[test]
fn backends_are_bit_identical_block1() {
    run_seed_block(55..110, 8, 15, 40);
}
#[test]
fn backends_are_bit_identical_block2() {
    run_seed_block(110..165, 8, 15, 40);
}
#[test]
fn backends_are_bit_identical_block3() {
    run_seed_block(165..220, 8, 15, 40);
}

// ------------------------------------------------------------------
// Recovery under both backends.
// ------------------------------------------------------------------

/// `t = 2·w; z = −t + v; beta-less tail copy` — a fusable chain whose
/// every output channel also exists in the threaded run (fault sites
/// address channels by name, which only the threaded path has).
fn chain_program(n: usize) -> (Program, Shapes) {
    let mut p = Program::new();
    let mut buffers = Vec::new();
    for name in ["w", "v"] {
        p.vector(name, n);
        buffers.push((name.to_string(), n));
    }
    for name in ["t", "z", "d"] {
        p.vector(name, n);
        buffers.push((name.to_string(), n));
    }
    p.op(Op::Scal {
        alpha: 2.0,
        x: "w".into(),
        out: "t".into(),
    });
    p.op(Op::Axpy {
        alpha: -1.0,
        x: "t".into(),
        y: "v".into(),
        out: "z".into(),
    });
    p.op(Op::Copy {
        x: "z".into(),
        out: "d".into(),
    });
    (p, Shapes { buffers })
}

fn recovery_run(backend: Backend, with_hook: bool) -> (String, Vec<(String, Vec<u32>)>) {
    let n = 96;
    let (program, shapes) = chain_program(n);
    let cfg = PlannerConfig::default();
    let planned = plan(&program, &cfg).unwrap();
    let bufs = bind(&shapes, 41);
    let hook = with_hook.then(|| {
        Arc::new(FaultPlan::new(Some(1234)).channel_fault(
            FaultSite::Push,
            "write_z",
            7,
            FaultAction::Corrupt { bit: 5 },
        )) as Arc<dyn fblas_hlssim::FaultHook>
    });
    let opts = ExecOptions {
        backend,
        tracer: None,
        mode: ExecMode::Recover {
            policy: RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::default()
            },
            hook,
        },
    };
    let report = execute_plan::<f32>(&program, &planned, &cfg, &bufs, &opts)
        .expect("recovers within budget")
        .recovery;
    let mut bits: Vec<(String, Vec<u32>)> = shapes
        .buffers
        .iter()
        .map(|(name, _)| {
            (
                name.clone(),
                bufs[name].to_host().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    bits.sort();
    (serde_json::to_string(&report).unwrap(), bits)
}

/// Seeded chaos: the armed hook makes the fusion analysis reject every
/// region (`recovery-guards`), so the fused backend's injected attempts
/// run fully threaded and its deterministic recovery report must be
/// *byte*-identical to the threaded backend's.
#[test]
fn seeded_chaos_recovery_reports_are_byte_identical_across_backends() {
    let (rep_t, out_t) = recovery_run(Backend::Threaded, true);
    let (rep_f, out_f) = recovery_run(Backend::Fused, true);
    assert_eq!(rep_t, rep_f, "recovery reports diverged across backends");
    assert_eq!(out_t, out_f, "recovered outputs diverged across backends");
}

/// Hook-free recovery still stages and commits transactionally; with
/// the fused backend the component actually fuses, so this exercises
/// the staged write-back (and staged-overlay reads) over a real fused
/// region — outputs and reports must match the threaded run exactly.
#[test]
fn hook_free_recovery_is_bit_identical_across_backends() {
    let (rep_t, out_t) = recovery_run(Backend::Threaded, false);
    let (rep_f, out_f) = recovery_run(Backend::Fused, false);
    assert_eq!(rep_t, rep_f, "recovery reports diverged across backends");
    assert_eq!(out_t, out_f, "committed outputs diverged across backends");
}

// ------------------------------------------------------------------
// Level-2 compositions: tile replay.
// ------------------------------------------------------------------

/// A seeded Level-2 composition in one of the paper's three shapes, on
/// tiles small enough that most matrices stream as ragged multi-tile
/// grids — so the transposed GEMVs run several `y` rounds:
///
/// * BICG: `q = A·p (+ β·q0)`, `s = Aᵀ·r (+ β·s0)` over one shared `A`;
/// * ATAX: `t = A·x`, `y = Aᵀ·t` — split by the planner into two
///   one-GEMV components, or kept whole behind a deep channel;
/// * GEMVER: `B1 = A + u1·v1ᵀ`, `B = B1 + u2·v2ᵀ`, `xo = β·Bᵀ·yv + z`,
///   `w = α·B·xo` — a GER→GER→GEMVᵀ component and a lone GEMV.
fn level2_program(seed: u64) -> (Program, Shapes, PlannerConfig) {
    let mut rng = Rng::new(seed ^ 0x1e7e1);
    let (n, m) = (rng.range(9, 40) as usize, rng.range(9, 40) as usize);
    let cfg = PlannerConfig {
        tn: rng.range(4, 24) as usize,
        tm: rng.range(4, 24) as usize,
        allow_deep_channels: rng.chance(50),
        ..PlannerConfig::default()
    };
    let mut p = Program::new();
    let mut buffers: Vec<(String, usize)> = Vec::new();
    let mut declare = |p: &mut Program, name: &str, rows: usize, cols: Option<usize>| {
        match cols {
            Some(c) => p.matrix(name, rows, c),
            None => p.vector(name, rows),
        };
        buffers.push((name.to_string(), rows * cols.unwrap_or(1)));
    };
    let coef = |rng: &mut Rng| (rng.range(1, 9) as f64) / 4.0;
    let gemv =
        |rng: &mut Rng, a: &str, transposed: bool, x: &str, y: Option<&str>, out: &str| Op::Gemv {
            alpha: coef(rng),
            beta: coef(rng),
            a: a.into(),
            transposed,
            x: x.into(),
            y: y.map(Into::into),
            out: out.into(),
        };
    match seed % 3 {
        0 => {
            declare(&mut p, "A", n, Some(m));
            for (name, len) in [("p", m), ("r", n), ("q", n), ("s", m), ("q0", n), ("s0", m)] {
                declare(&mut p, name, len, None);
            }
            let q0 = rng.chance(50).then_some("q0");
            let s0 = rng.chance(50).then_some("s0");
            let op = gemv(&mut rng, "A", false, "p", q0, "q");
            p.op(op);
            let op = gemv(&mut rng, "A", true, "r", s0, "s");
            p.op(op);
        }
        1 => {
            declare(&mut p, "A", n, Some(m));
            for (name, len) in [("x", m), ("t", n), ("y", m)] {
                declare(&mut p, name, len, None);
            }
            let op = gemv(&mut rng, "A", false, "x", None, "t");
            p.op(op);
            let op = gemv(&mut rng, "A", true, "t", None, "y");
            p.op(op);
        }
        _ => {
            for name in ["A", "B1", "B"] {
                declare(&mut p, name, n, Some(m));
            }
            for (name, len) in [
                ("u1", n),
                ("v1", m),
                ("u2", n),
                ("v2", m),
                ("yv", n),
                ("z", m),
                ("xo", m),
                ("w", n),
            ] {
                declare(&mut p, name, len, None);
            }
            for (a, u, v, out) in [("A", "u1", "v1", "B1"), ("B1", "u2", "v2", "B")] {
                p.op(Op::Ger {
                    alpha: coef(&mut rng),
                    a: a.into(),
                    x: u.into(),
                    y: v.into(),
                    out: out.into(),
                });
            }
            let op = gemv(&mut rng, "B", true, "yv", Some("z"), "xo");
            p.op(op);
            let op = gemv(&mut rng, "B", false, "xo", None, "w");
            p.op(op);
        }
    }
    (p, Shapes { buffers }, cfg)
}

/// The matrix reader lanes (`read_<A>`) of the GEMV/GER ops of `ops`.
fn matrix_readers(program: &Program, ops: &[usize]) -> Vec<String> {
    ops.iter()
        .filter_map(|&oi| match &program.ops()[oi] {
            Op::Gemv { a, .. } | Op::Ger { a, .. } => Some(format!("read_{a}")),
            _ => None,
        })
        .collect()
}

/// Run one Level-2 seed block: bit-identity across backends in audit
/// mode, identical predicted cycles, plain vs hook-free recovery on the
/// fused backend, and per component the backend's lane shape — a
/// replayed component shows one `fused:` lane, and a replayed lone
/// tile (ATAX's split GEMVs, GEMVER's trailing GEMV) reads its matrix
/// in place. Every program holds several GEMV/GER ops, so no component
/// is a `singleton`.
fn run_level2_block(
    seeds: std::ops::Range<u64>,
    floor_replays: u64,
    floor_lone_replays: u64,
    floor_host_depth: u64,
) {
    let audit = |backend| ExecOptions {
        backend,
        tracer: None,
        mode: ExecMode::Audit {
            freq_hz: 200.0e6,
            tolerance: 0.25,
        },
    };
    let fused_with = |mode| ExecOptions {
        backend: Backend::Fused,
        tracer: None,
        mode,
    };
    let plain = fused_with(ExecMode::Plain);
    let recover = fused_with(ExecMode::Recover {
        policy: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        hook: None,
    });
    let (mut replays, mut multi_round, mut lone_replays) = (0u64, 0u64, 0u64);
    let mut host_depth = 0u64;
    for seed in seeds {
        let (program, shapes, cfg) = level2_program(seed);
        let planned = plan(&program, &cfg).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        let threaded = run_backend(
            &program,
            &planned,
            &cfg,
            &shapes,
            seed,
            &audit(Backend::Threaded),
        );
        let fused = run_backend(
            &program,
            &planned,
            &cfg,
            &shapes,
            seed,
            &audit(Backend::Fused),
        );
        assert_eq!(
            threaded.buffer_bits, fused.buffer_bits,
            "seed {seed}: operands not bit-identical"
        );
        assert_eq!(
            threaded.predicted_cycles, fused.predicted_cycles,
            "seed {seed}: analytic model diverged across backends"
        );
        assert_eq!(
            threaded.host_depth_sims, 0,
            "seed {seed}: the oracle deepened"
        );
        host_depth += fused.host_depth_sims;
        for (ci, c) in planned.components.iter().enumerate() {
            let (sems, fp) = fusion_plan_for_component(&program, c, false);
            let lanes = &fused.audit_modules[ci];
            let fused_lane = lanes.iter().any(|m| m.starts_with("fused:"));
            let replayed = fp
                .regions
                .iter()
                .any(|r| r.obligations.iter().any(|o| o.kind == "tile-replay"));
            assert!(
                fp.rejections.iter().all(|r| r.reason != "singleton"),
                "seed {seed} c{ci}: a tile of a composition kept threaded: {}",
                fp.to_json()
            );
            if replayed {
                replays += 1;
                multi_round += sems.iter().any(|s| {
                    matches!(s, ModuleSem::Tile { tile: TileSem::Gemv(g), .. } if g.y_rounds() > 1)
                }) as u64;
                assert!(
                    fused_lane,
                    "seed {seed} c{ci}: replayed without a fused lane"
                );
                let tiles = sems
                    .iter()
                    .filter(|s| matches!(s, ModuleSem::Tile { .. }))
                    .count();
                if tiles == 1 {
                    lone_replays += 1;
                    let matrices = matrix_readers(&program, &c.ops);
                    assert!(
                        !lanes.iter().any(|m| matrices.contains(m)),
                        "seed {seed} c{ci}: a replayed lone tile must read its matrix in \
                         place: {lanes:?}"
                    );
                    let oracle = &threaded.audit_modules[ci];
                    assert!(
                        oracle.iter().any(|m| matrices.contains(m)),
                        "seed {seed} c{ci}: the threaded oracle must read the matrix: {oracle:?}"
                    );
                }
            }
        }
        let plain = run_backend(&program, &planned, &cfg, &shapes, seed, &plain);
        let recovered = run_backend(&program, &planned, &cfg, &shapes, seed, &recover);
        assert_eq!(
            plain.buffer_bits, recovered.buffer_bits,
            "seed {seed}: recovery mode not bit-identical to plain"
        );
        assert_eq!(
            plain.buffer_bits, threaded.buffer_bits,
            "seed {seed}: plain fused run diverged from the threaded audit"
        );
    }
    assert!(
        replays >= floor_replays,
        "population too thin: {replays} tile-replay components (< {floor_replays})"
    );
    assert!(
        multi_round >= floor_replays / 2,
        "population too thin: {multi_round} replayed components with a multi-round y \
         (< {})",
        floor_replays / 2
    );
    assert!(
        lone_replays >= floor_lone_replays,
        "population too thin: {lone_replays} replayed lone tiles (< {floor_lone_replays})"
    );
    assert!(
        host_depth >= floor_host_depth,
        "population too thin: {host_depth} threaded simulations at host depth \
         (< {floor_host_depth})"
    );
}

// 2 × 30 seeded Level-2 programs. Each block must replay at least 24
// components tile by tile (the population yields 36–42 a block), 12 of
// them holding a GEMV with a multi-round y (19–22), at least 8 of them
// lone tiles (16–22), and run at least 2 threaded simulations at host
// depth (4–7: the components tile replay rejects).
#[test]
fn level2_compositions_are_bit_identical_block0() {
    run_level2_block(0..30, 24, 8, 2);
}
#[test]
fn level2_compositions_are_bit_identical_block1() {
    run_level2_block(30..60, 24, 8, 2);
}

/// A seeded program that is one GEMV or GER whose matrix fits in one
/// planner tile: the shape the fused backend keeps threaded.
fn one_tile_program(seed: u64) -> (Program, Shapes, PlannerConfig) {
    let mut rng = Rng::new(seed ^ 0x0e711e);
    let (n, m) = (rng.range(1, 40) as usize, rng.range(1, 40) as usize);
    let cfg = PlannerConfig {
        tn: n + rng.range(0, 8) as usize,
        tm: m + rng.range(0, 8) as usize,
        ..PlannerConfig::default()
    };
    let coef = |rng: &mut Rng| (rng.range(1, 9) as f64) / 4.0;
    let mut p = Program::new();
    p.matrix("A", n, m);
    let mut buffers = vec![("A".to_string(), n * m)];
    if rng.chance(25) {
        p.matrix("B", n, m).vector("u", n).vector("v", m);
        buffers.extend([("B".into(), n * m), ("u".into(), n), ("v".into(), m)]);
        p.op(Op::Ger {
            alpha: coef(&mut rng),
            a: "A".into(),
            x: "u".into(),
            y: "v".into(),
            out: "B".into(),
        });
    } else {
        let transposed = rng.chance(50);
        let (xn, yn) = if transposed { (n, m) } else { (m, n) };
        let with_y = rng.chance(50);
        p.vector("x", xn).vector("y", yn).vector("o", yn);
        buffers.extend([("x".into(), xn), ("y".into(), yn), ("o".into(), yn)]);
        p.op(Op::Gemv {
            alpha: coef(&mut rng),
            beta: coef(&mut rng),
            a: "A".into(),
            transposed,
            x: "x".into(),
            y: with_y.then(|| "y".into()),
            out: "o".into(),
        });
    }
    (p, Shapes { buffers }, cfg)
}

/// 40 seeded one-tile programs keep the threaded path: a `singleton`
/// witness naming the tile, and on the fused backend a host-depth run
/// with the module's lane and the matrix read in place, while the
/// threaded oracle keeps the `read_<A>` lane. Bits match the oracle.
#[test]
fn one_tile_programs_stay_threaded() {
    let audit = |backend| ExecOptions {
        backend,
        tracer: None,
        mode: ExecMode::Audit {
            freq_hz: 200.0e6,
            tolerance: 0.25,
        },
    };
    for seed in 0..40 {
        let (program, shapes, cfg) = one_tile_program(seed);
        let planned = plan(&program, &cfg).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        assert_eq!(planned.components.len(), 1, "seed {seed}");
        let threaded = run_backend(
            &program,
            &planned,
            &cfg,
            &shapes,
            seed,
            &audit(Backend::Threaded),
        );
        let fused = run_backend(
            &program,
            &planned,
            &cfg,
            &shapes,
            seed,
            &audit(Backend::Fused),
        );
        assert_eq!(
            threaded.buffer_bits, fused.buffer_bits,
            "seed {seed}: operands not bit-identical"
        );
        assert_eq!((threaded.host_depth_sims, fused.host_depth_sims), (0, 1));
        let c = &planned.components[0];
        let (_, fp) = fusion_plan_for_component(&program, c, false);
        assert!(fp.regions.is_empty(), "seed {seed}: {}", fp.to_json());
        let kernel = if matches!(program.ops()[0], Op::Ger { .. }) {
            "ger"
        } else {
            "gemv"
        };
        let witness = fp
            .rejections
            .iter()
            .find(|r| r.reason == "singleton")
            .and_then(|r| r.witness_module.as_deref())
            .unwrap_or_else(|| panic!("seed {seed}: no singleton: {}", fp.to_json()));
        assert!(
            witness.starts_with(kernel),
            "seed {seed}: singleton witness `{witness}`"
        );
        let matrices = matrix_readers(&program, &c.ops);
        let lanes = &fused.audit_modules[0];
        assert!(
            !lanes.iter().any(|m| m.starts_with("fused:"))
                && lanes.iter().any(|m| m.starts_with(kernel))
                && !lanes.iter().any(|m| matrices.contains(m)),
            "seed {seed}: a one-tile program must run threaded, its matrix read in place: \
             {lanes:?}"
        );
        let oracle = &threaded.audit_modules[0];
        assert!(
            oracle.iter().any(|m| matrices.contains(m)),
            "seed {seed}: the threaded oracle must read the matrix: {oracle:?}"
        );
    }
}

// ------------------------------------------------------------------
// Above the host-side thresholds
// ------------------------------------------------------------------

/// A seeded program above the thresholds from which a served request's
/// data-independent work leaves its serial path: a DOT of 2¹⁷ elements
/// (`seed` even) or a GEMV over a 384 × 384 matrix (`seed` odd),
/// whose inputs clear the ABFT helper thread's 2¹⁶ elements.
fn above_threshold_program(seed: u64) -> (Program, Shapes) {
    let mut rng = Rng::new(seed ^ 0xab0e);
    let mut p = Program::new();
    let mut buffers: Vec<(String, usize)> = Vec::new();
    let mut vector = |p: &mut Program, name: &str, len: usize| {
        p.vector(name, len);
        buffers.push((name.to_string(), len));
    };
    if seed.is_multiple_of(2) {
        let n = 1 << 17;
        vector(&mut p, "x", n);
        vector(&mut p, "y", n);
        p.scalar("s");
        p.op(Op::Dot {
            x: "x".into(),
            y: "y".into(),
            out: "s".into(),
        });
    } else {
        let n = 384;
        let with_y = rng.chance(50);
        vector(&mut p, "x", n);
        vector(&mut p, "y", n);
        vector(&mut p, "q", n);
        p.matrix("A", n, n);
        buffers.push(("A".to_string(), n * n));
        p.op(Op::Gemv {
            alpha: (rng.range(1, 5) as f64) / 2.0,
            beta: -0.5,
            a: "A".into(),
            transposed: rng.chance(50),
            x: "x".into(),
            y: with_y.then(|| "y".into()),
            out: "q".into(),
        });
    }
    (p, Shapes { buffers })
}

/// Every operand and DOT scalar of one run of `program` under
/// `planned`, as `f64` bits (an `f32` widens exactly).
fn run_bits<T: fblas_core::Scalar>(
    program: &Program,
    planned: &Plan,
    cfg: &PlannerConfig,
    shapes: &Shapes,
    seed: u64,
    opts: &ExecOptions,
) -> Vec<(String, Vec<u64>)> {
    let bufs: HashMap<String, DeviceBuffer<T>> = shapes
        .buffers
        .iter()
        .enumerate()
        .map(|(bi, (name, len))| {
            let phase = seed as f64 * 0.131 + bi as f64 * 7.0;
            let data: Vec<T> = (0..*len)
                .map(|j| T::from_f64(((j as f64 + phase) * 0.2137).sin()))
                .collect();
            (name.clone(), DeviceBuffer::from_vec(name, data, bi % 4))
        })
        .collect();
    let out = execute_plan::<T>(program, planned, cfg, &bufs, opts)
        .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", opts.backend.as_str()));
    let mut bits: Vec<(String, Vec<u64>)> = shapes
        .buffers
        .iter()
        .map(|(name, _)| {
            let vals = bufs[name].to_host();
            (
                name.clone(),
                vals.iter().map(|v| v.to_f64().to_bits()).collect(),
            )
        })
        .chain(
            out.scalars
                .iter()
                .map(|(k, v)| (k.clone(), vec![v.to_f64().to_bits()])),
        )
        .collect();
    bits.sort();
    bits
}

/// One plan per seed, executed on the threaded oracle and then three
/// times on the fused backend — plain, under recovery, and under
/// recovery again — so the fused runs after the first reuse the
/// component's analysis and the recovering ones compute their ABFT
/// predictions beside the run: all bit-identical to the oracle.
fn above_threshold_block<T: fblas_core::Scalar>(seeds: std::ops::Range<u64>) {
    let cfg = PlannerConfig::default();
    let opts = |backend, mode| ExecOptions {
        backend,
        tracer: None,
        mode,
    };
    let recover = || ExecMode::Recover {
        policy: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        hook: None,
    };
    for seed in seeds {
        let (program, shapes) = above_threshold_program(seed);
        let planned = plan(&program, &cfg).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        let run = |o: &ExecOptions| run_bits::<T>(&program, &planned, &cfg, &shapes, seed, o);
        let oracle = run(&opts(Backend::Threaded, ExecMode::Plain));
        for (i, mode) in [ExecMode::Plain, recover(), recover()]
            .into_iter()
            .enumerate()
        {
            assert!(
                run(&opts(Backend::Fused, mode)) == oracle,
                "seed {seed}: fused run {i} not bit-identical to the threaded oracle"
            );
        }
    }
}

#[test]
fn above_threshold_runs_are_bit_identical_f32() {
    above_threshold_block::<f32>(0..2);
}

#[test]
fn above_threshold_runs_are_bit_identical_f64() {
    above_threshold_block::<f64>(0..2);
}
