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
//! nothing.

// Test code may unwrap; the clippy.toml discipline targets library code.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::sync::Arc;

use fblas_chaos::{FaultAction, FaultPlan, FaultSite};
use fblas_core::composition::{
    execute_plan, fusion_plan_for_component, plan, Backend, ExecMode, ExecOptions, Op, Plan,
    PlannerConfig, Program, RetryPolicy,
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
    }
}

/// Run one seed block, asserting non-vacuity floors on how many fused
/// regions the population's plans admitted (legality side, recovery
/// disarmed) and how many of those a DOT closes — the regions whose
/// scalars `scalar_bits` compares.
fn run_seed_block(seeds: std::ops::Range<u64>, floor_regions: u64, floor_reductions: u64) {
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
    let (mut regions, mut reductions) = (0u64, 0u64);
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
}

// 4 × 55 = 220 seeded programs, split across test threads. Each block
// must admit at least 8 fused regions (≥ 32 total), at least 15 of
// them closed by a DOT (≥ 60 total; the population yields 26–31 a block).
#[test]
fn backends_are_bit_identical_block0() {
    run_seed_block(0..55, 8, 15);
}
#[test]
fn backends_are_bit_identical_block1() {
    run_seed_block(55..110, 8, 15);
}
#[test]
fn backends_are_bit_identical_block2() {
    run_seed_block(110..165, 8, 15);
}
#[test]
fn backends_are_bit_identical_block3() {
    run_seed_block(165..220, 8, 15);
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
