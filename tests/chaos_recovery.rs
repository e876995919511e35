//! Chaos + recovery integration: seeded fault plans driven through the
//! full planner → executor → hlssim stack must be detected, recovered,
//! and reported deterministically.
//!
//! Covers the robustness contract end to end: mid-chunk panic teardown
//! (poison names the culprit, peers never stall), watchdog deadline
//! expiry of a hung injected module, byte-identical seeded recovery
//! reports across runs, transactional write-back leaving buffers
//! untouched on exhaustion, and 100% detection of single bit flips
//! across the mantissa/exponent/sign range for DOT, GEMV and GER.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use fblas_chaos::{FaultAction, FaultPlan, FaultSite, ModuleFault};
use fblas_core::composition::{
    execute_plan, plan, ExecError, ExecMode, ExecOptions, Op, PlannerConfig, Program,
    RecoveryErrorKind, RetryPolicy,
};
use fblas_core::host::DeviceBuffer;
use fblas_hlssim::{channel, ChunkWriter, FaultHook, ModuleKind, SimError, Simulation};

fn seq(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + phase) * 0.7311).cos())
        .collect()
}

/// Recovery-mode options arming `hook` under `policy`.
fn recover(policy: RetryPolicy, hook: Option<Arc<FaultPlan>>) -> ExecOptions<'static> {
    let hook = hook.map(|h| h as Arc<dyn FaultHook>);
    ExecOptions {
        mode: ExecMode::Recover { policy, hook },
        ..ExecOptions::default()
    }
}

fn bufs(entries: &[(&str, Vec<f64>)]) -> HashMap<String, DeviceBuffer<f64>> {
    entries
        .iter()
        .map(|(name, data)| {
            (
                name.to_string(),
                DeviceBuffer::from_vec(*name, data.clone(), 0),
            )
        })
        .collect()
}

/// A module that panics in the middle of a buffered chunk must not
/// strand its peer: the `ChunkWriter` drop salvage flushes what it can,
/// panic poisoning propagates, the panicking module's error surfaces,
/// and the blocked peer unwinds with `Poisoned { by }` naming the
/// culprit — not a stall, not a silent hang.
#[test]
fn mid_chunk_panic_tears_down_with_culprit_named() {
    let mut sim = Simulation::new();
    let ctx = sim.ctx().clone();
    let (tx, rx) = channel::<u64>(sim.ctx(), 64, "chunked");
    sim.add_module("chunky", ModuleKind::Compute, move || {
        let mut w = ChunkWriter::with_chunk(&tx, 16);
        for i in 0..24u64 {
            w.push(i)?;
            if i == 19 {
                panic!("injected mid-chunk failure");
            }
        }
        w.flush()
    });
    sim.add_module("sink", ModuleKind::Compute, move || {
        rx.pop_n(24).map(|_| ())
    });
    match sim.run() {
        Err(SimError::Module { module, detail }) => {
            assert_eq!(module, "chunky");
            assert!(detail.contains("panicked"), "{detail}");
        }
        other => panic!("expected the panicking module's error, got {other:?}"),
    }
    assert_eq!(ctx.poison_cause(), Some("chunky".to_string()));
}

/// An injected hang (live thread, zero progress) is invisible to stall
/// detection — only the wall-clock deadline can catch it, and the
/// forensics must survive into the error.
#[test]
fn hung_injected_module_expires_on_deadline_with_forensics() {
    let mut sim = Simulation::new();
    sim.set_deadline(Duration::from_millis(300));
    sim.ctx().arm_faults(Arc::new(
        FaultPlan::new(None).module_fault("sink", ModuleFault::Hang),
    ));
    let (tx, rx) = channel::<u32>(sim.ctx(), 4, "starved");
    sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..64));
    sim.add_module("sink", ModuleKind::Compute, move || {
        rx.pop_n(64).map(|_| ())
    });
    match sim.run() {
        Err(SimError::Deadline { report, .. }) => {
            // The hung sink never pops, so the producer fills the FIFO
            // and must appear channel-blocked in the snapshot.
            let b = report.blocked_on("src").expect("src in wait-for graph");
            assert_eq!(b.channel, "starved");
        }
        other => panic!("expected deadline, got {other:?}"),
    }
}

fn gemv_program() -> (Program, PlannerConfig, Vec<(&'static str, Vec<f64>)>) {
    const N: usize = 32;
    let mut p = Program::new();
    p.matrix("A", N, N)
        .vector("x", N)
        .vector("y", N)
        .vector("o", N);
    p.op(Op::Gemv {
        alpha: 1.5,
        beta: -0.25,
        a: "A".into(),
        transposed: false,
        x: "x".into(),
        y: Some("y".into()),
        out: "o".into(),
    });
    let cfg = PlannerConfig {
        tn: N,
        tm: N,
        ..Default::default()
    };
    let bindings = vec![
        ("A", seq(N * N, 0.0)),
        ("x", seq(N, 1.0)),
        ("y", seq(N, 2.0)),
        ("o", vec![0.0; N]),
    ];
    (p, cfg, bindings)
}

/// Two runs of the same seeded fault plan must serialize to
/// byte-identical `FaultReport` and `RecoveryReport` JSON — the
/// determinism guarantee `ci.sh` leans on.
#[test]
fn seeded_recovery_runs_are_byte_identical() {
    let (program, cfg, bindings) = gemv_program();
    let planned = plan(&program, &cfg).unwrap();
    let run = || {
        let hook = Arc::new(
            FaultPlan::new(Some(77))
                .channel_fault(
                    FaultSite::Push,
                    "write_o",
                    9,
                    FaultAction::Corrupt { bit: 3 },
                )
                .module_fault("gemv", ModuleFault::Crash),
        );
        let b = bufs(&bindings);
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let report = execute_plan::<f64>(
            &program,
            &planned,
            &cfg,
            &b,
            &recover(policy, Some(hook.clone())),
        )
        .expect("recovers within budget")
        .recovery;
        (
            serde_json::to_string(&hook.report()).unwrap(),
            serde_json::to_string(&report).unwrap(),
            b["o"].to_host(),
        )
    };
    let (fault_a, rec_a, out_a) = run();
    let (fault_b, rec_b, out_b) = run();
    assert_eq!(
        fault_a, fault_b,
        "fault reports diverged across seeded runs"
    );
    assert_eq!(rec_a, rec_b, "recovery reports diverged across seeded runs");
    assert_eq!(
        out_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "recovered outputs diverged across seeded runs"
    );
}

/// With the retry budget exhausted, the transactional write-back must
/// leave the real buffers exactly as they were — corrupt results never
/// leak out of the staged scratch copies.
#[test]
fn exhausted_retries_do_not_leak_corrupt_writes() {
    let (program, cfg, bindings) = gemv_program();
    let planned = plan(&program, &cfg).unwrap();
    let b = bufs(&bindings);
    let o_before = b["o"].to_host();
    let hook = Arc::new(FaultPlan::new(None).channel_fault(
        FaultSite::Push,
        "write_o",
        5,
        FaultAction::Corrupt { bit: 61 },
    ));
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let err = execute_plan::<f64>(&program, &planned, &cfg, &b, &recover(policy, Some(hook)))
        .expect_err("single attempt cannot absorb the fault");
    assert!(
        matches!(err.error, ExecError::Corrupt { component: 0, .. }),
        "unexpected error: {}",
        err.error
    );
    let rec = &err.report;
    assert_eq!(rec.attempts.len(), 1);
    assert_eq!(rec.attempts[0].error, Some(RecoveryErrorKind::Corruption));
    assert_eq!(
        b["o"].to_host(),
        o_before,
        "failed component leaked staged writes into the real buffer"
    );
}

/// Every single-bit flip on an output stream — from bit 0 (far below
/// any numeric tolerance) through sign bit 63 — must be detected and
/// recovered for DOT, GEMV and GER, with the recovered result
/// bit-identical to a fault-free run.
#[test]
fn single_bit_flips_are_always_detected_across_routines() {
    const N: usize = 16;
    /// (name, program, bindings, write-back channel, elements crossing it).
    type RoutineCase = (
        &'static str,
        Program,
        Vec<(&'static str, Vec<f64>)>,
        &'static str,
        usize,
    );
    let routines: Vec<RoutineCase> = vec![
        {
            let mut p = Program::new();
            p.vector("x", N).vector("y", N).scalar("r");
            p.op(Op::Dot {
                x: "x".into(),
                y: "y".into(),
                out: "r".into(),
            });
            (
                "dot",
                p,
                vec![("x", seq(N, 1.0)), ("y", seq(N, 2.0))],
                "r_res",
                1,
            )
        },
        {
            let (p, _, bindings) = gemv_program();
            ("gemv", p, bindings, "write_o", 32)
        },
        {
            let mut p = Program::new();
            p.matrix("A", N, N)
                .vector("x", N)
                .vector("y", N)
                .matrix("B", N, N);
            p.op(Op::Ger {
                alpha: 0.8,
                a: "A".into(),
                x: "x".into(),
                y: "y".into(),
                out: "B".into(),
            });
            (
                "ger",
                p,
                vec![
                    ("A", seq(N * N, 0.0)),
                    ("x", seq(N, 1.0)),
                    ("y", seq(N, 2.0)),
                    ("B", vec![0.0; N * N]),
                ],
                "write_B",
                N * N,
            )
        },
    ];
    for (name, program, bindings, out_channel, out_len) in routines {
        let cfg = PlannerConfig {
            tn: 32,
            tm: 32,
            ..Default::default()
        };
        let planned = plan(&program, &cfg).unwrap();
        // Fault-free reference.
        let clean = bufs(&bindings);
        let clean_out = execute_plan::<f64>(
            &program,
            &planned,
            &cfg,
            &clean,
            &recover(RetryPolicy::default(), None),
        )
        .unwrap();
        for bit in [0u32, 1, 26, 51, 62, 63] {
            let index = (bit as u64 * 7) % out_len as u64;
            let hook = Arc::new(FaultPlan::new(Some(bit as u64)).channel_fault(
                FaultSite::Push,
                out_channel,
                index,
                FaultAction::Corrupt { bit },
            ));
            let b = bufs(&bindings);
            let policy = RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            };
            let out =
                execute_plan::<f64>(&program, &planned, &cfg, &b, &recover(policy, Some(hook)))
                    .unwrap_or_else(|e| panic!("{name} bit {bit}: not recovered: {e}"));
            let rec = &out.recovery;
            assert_eq!(
                rec.attempts[0].error,
                Some(RecoveryErrorKind::Corruption),
                "{name} bit {bit}: flip escaped detection"
            );
            assert_eq!(rec.recovered, 1, "{name} bit {bit}");
            // Recovered result is bit-identical to the clean run.
            for (k, buf) in clean.iter() {
                let want: Vec<u64> = buf.to_host().iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = b[k].to_host().iter().map(|v| v.to_bits()).collect();
                assert_eq!(want, got, "{name} bit {bit}: buffer `{k}` diverged");
            }
            for (k, v) in &clean_out.scalars {
                assert_eq!(
                    v.to_bits(),
                    out.scalars[k].to_bits(),
                    "{name} bit {bit}: scalar `{k}` diverged"
                );
            }
        }
    }
}
