//! Deterministic fault-injection sweep over the recovery layer.
//!
//! For each routine (DOT, GEMV, GER) a seeded set of fault scenarios is
//! injected into the planned execution via a `fblas-chaos` [`FaultPlan`]
//! and absorbed by [`execute_plan`] in [`ExecMode::Recover`]: payload bit flips on
//! the push and pop sides (including bit 0, far below numeric noise —
//! the digest guards' territory), element drop and duplication, a
//! latency spike (undetectable by design: it changes timing, not
//! values), a module crash, and a module hang caught by the watchdog
//! deadline.
//!
//! The bin asserts the robustness contract before writing the report:
//! every value-corrupting fault is detected, every detected fault is
//! recovered within the retry budget, and recovered outputs are
//! **bit-identical** to a fault-free reference run.
//!
//! ```text
//! cargo run --release -p fblas-bench --bin bench_chaos [--dump-reports PATH]
//! ```
//!
//! All report columns are deterministic for a fixed `FBLAS_CHAOS_SEED`
//! (wall clock carries the volatile `cpu_` prefix): two runs with the
//! same seed must produce byte-identical fault and recovery reports,
//! which `ci.sh` checks by diffing `--dump-reports` output.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fblas_bench::metrics::{BenchReport, Cell};
use fblas_chaos::{ChaosRng, FaultAction, FaultPlan, FaultSite, ModuleFault};
use fblas_core::composition::{
    execute_plan, plan, ExecMode, ExecOptions, Op, PlannerConfig, Program, RecoveryReport,
    RetryPolicy,
};
use fblas_core::host::DeviceBuffer;

const N: usize = 32;
const DEFAULT_SEED: u64 = 0xFB1A5;
const HANG_DEADLINE: Duration = Duration::from_millis(800);

fn seq(n: usize, seed: f64) -> Vec<f64> {
    (0..n).map(|i| ((i as f64 + seed) * 0.4371).sin()).collect()
}

/// One routine under test: its program, operand bindings, and the
/// channel/module names the executor gives its dataflow.
struct Routine {
    name: &'static str,
    program: Program,
    cfg: PlannerConfig,
    bindings: Vec<(&'static str, Vec<f64>)>,
    /// The write-back channel for the routine's output stream.
    out_channel: &'static str,
    /// Elements crossing the write-back channel.
    out_len: usize,
    /// An input channel (reader → compute module).
    in_channel: &'static str,
    /// Elements crossing the input channel.
    in_len: usize,
    /// The computational module to crash/hang.
    module: &'static str,
    /// Output operand read back for the bit-identity check (None for
    /// DOT, whose result lives in the scalar map).
    out_operand: Option<&'static str>,
    /// Scalar result name (DOT).
    scalar: Option<&'static str>,
}

fn dot_routine() -> Routine {
    let mut p = Program::new();
    p.vector("x", N).vector("y", N).scalar("r");
    p.op(Op::Dot {
        x: "x".into(),
        y: "y".into(),
        out: "r".into(),
    });
    Routine {
        name: "dot",
        program: p,
        cfg: PlannerConfig {
            tn: N,
            tm: N,
            ..Default::default()
        },
        bindings: vec![("x", seq(N, 1.0)), ("y", seq(N, 2.0))],
        out_channel: "r_res",
        out_len: 1,
        in_channel: "x->0",
        in_len: N,
        module: "dot",
        out_operand: None,
        scalar: Some("r"),
    }
}

fn gemv_routine() -> Routine {
    let mut p = Program::new();
    p.matrix("A", N, N)
        .vector("x", N)
        .vector("y", N)
        .vector("o", N);
    p.op(Op::Gemv {
        alpha: 1.2,
        beta: 0.7,
        a: "A".into(),
        transposed: false,
        x: "x".into(),
        y: Some("y".into()),
        out: "o".into(),
    });
    Routine {
        name: "gemv",
        program: p,
        cfg: PlannerConfig {
            tn: N,
            tm: N,
            ..Default::default()
        },
        bindings: vec![
            ("A", seq(N * N, 1.0)),
            ("x", seq(N, 2.0)),
            ("y", seq(N, 3.0)),
            ("o", vec![0.0; N]),
        ],
        out_channel: "write_o",
        out_len: N,
        in_channel: "x->0",
        in_len: N,
        module: "gemv",
        out_operand: Some("o"),
        scalar: None,
    }
}

fn ger_routine() -> Routine {
    let mut p = Program::new();
    p.matrix("A", N, N)
        .matrix("B", N, N)
        .vector("x", N)
        .vector("y", N);
    p.op(Op::Ger {
        alpha: -0.9,
        a: "A".into(),
        x: "x".into(),
        y: "y".into(),
        out: "B".into(),
    });
    Routine {
        name: "ger",
        program: p,
        cfg: PlannerConfig {
            tn: N,
            tm: N,
            ..Default::default()
        },
        bindings: vec![
            ("A", seq(N * N, 1.0)),
            ("x", seq(N, 2.0)),
            ("y", seq(N, 3.0)),
            ("B", vec![0.0; N * N]),
        ],
        out_channel: "write_B",
        out_len: N * N,
        in_channel: "x->0",
        in_len: N,
        module: "ger",
        out_operand: Some("B"),
        scalar: None,
    }
}

/// One injected-fault experiment.
struct Scenario {
    label: &'static str,
    site: String,
    index: u64,
    bit: Option<u32>,
    plan: FaultPlan,
    deadline: Option<Duration>,
    /// Whether the fault corrupts/loses values (must be detected) or
    /// only perturbs timing (must be absorbed silently).
    expect_detected: bool,
}

fn scenarios(r: &Routine, rng: &mut ChaosRng, seed: u64) -> Vec<Scenario> {
    let mut v = Vec::new();
    // Push-side bit flips: always cover the lowest and highest bit,
    // plus seeded positions — low mantissa bits are invisible to any
    // numeric tolerance and prove the digest guards carry their weight.
    let mut bits = vec![0u32, 63];
    bits.push(rng.below(64) as u32);
    bits.push(rng.below(64) as u32);
    for bit in bits {
        let index = rng.below(r.out_len as u64);
        v.push(Scenario {
            label: "corrupt_push",
            site: r.out_channel.to_string(),
            index,
            bit: Some(bit),
            plan: FaultPlan::new(Some(seed)).channel_fault(
                FaultSite::Push,
                r.out_channel,
                index,
                FaultAction::Corrupt { bit },
            ),
            deadline: None,
            expect_detected: true,
        });
    }
    // Pop-side flip on an input stream: corrupts what the compute
    // module consumes, caught by the input channel's digest pair.
    let bit = rng.below(64) as u32;
    let index = rng.below(r.in_len as u64);
    v.push(Scenario {
        label: "corrupt_pop",
        site: r.in_channel.to_string(),
        index,
        bit: Some(bit),
        plan: FaultPlan::new(Some(seed)).channel_fault(
            FaultSite::Pop,
            r.in_channel,
            index,
            FaultAction::Corrupt { bit },
        ),
        deadline: None,
        expect_detected: true,
    });
    // Element loss: the consumer starves and sees a disconnect.
    let index = rng.below(r.out_len as u64);
    v.push(Scenario {
        label: "drop",
        site: r.out_channel.to_string(),
        index,
        bit: None,
        plan: FaultPlan::new(Some(seed)).channel_fault(
            FaultSite::Push,
            r.out_channel,
            index,
            FaultAction::DropElement,
        ),
        deadline: None,
        expect_detected: true,
    });
    // Element duplication: shifts the stream; the digest pair differs
    // even though the element counts the consumer sees still balance.
    let index = rng.below((r.out_len as u64).min(16));
    v.push(Scenario {
        label: "duplicate",
        site: r.out_channel.to_string(),
        index,
        bit: None,
        plan: FaultPlan::new(Some(seed)).channel_fault(
            FaultSite::Push,
            r.out_channel,
            index,
            FaultAction::Duplicate,
        ),
        deadline: None,
        expect_detected: true,
    });
    // Latency spike: values are untouched, so nothing may trip.
    let index = rng.below(r.in_len as u64);
    v.push(Scenario {
        label: "delay",
        site: r.in_channel.to_string(),
        index,
        bit: None,
        plan: FaultPlan::new(Some(seed)).channel_fault(
            FaultSite::Pop,
            r.in_channel,
            index,
            FaultAction::Delay { micros: 200 },
        ),
        deadline: None,
        expect_detected: false,
    });
    // Module crash: the panic poisons the composition, naming the
    // culprit; the retry runs clean.
    v.push(Scenario {
        label: "crash",
        site: r.module.to_string(),
        index: 0,
        bit: None,
        plan: FaultPlan::new(Some(seed)).module_fault(r.module, ModuleFault::Crash),
        deadline: None,
        expect_detected: true,
    });
    // Module hang: live but frozen — only the watchdog deadline can
    // call it.
    v.push(Scenario {
        label: "hang",
        site: r.module.to_string(),
        index: 0,
        bit: None,
        plan: FaultPlan::new(Some(seed)).module_fault(r.module, ModuleFault::Hang),
        deadline: Some(HANG_DEADLINE),
        expect_detected: true,
    });
    v
}

fn bind(entries: &[(&str, Vec<f64>)]) -> HashMap<String, DeviceBuffer<f64>> {
    entries
        .iter()
        .enumerate()
        .map(|(i, (name, data))| {
            (
                name.to_string(),
                DeviceBuffer::from_vec(*name, data.clone(), i % 4),
            )
        })
        .collect()
}

/// Output bit pattern of a run: the output operand's buffer (or the
/// scalar result) as raw u64 bits.
fn output_bits(
    r: &Routine,
    bufs: &HashMap<String, DeviceBuffer<f64>>,
    scalars: &HashMap<String, f64>,
) -> Vec<u64> {
    match (r.out_operand, r.scalar) {
        (Some(op), _) => bufs[op].to_host().iter().map(|v| v.to_bits()).collect(),
        (None, Some(s)) => vec![scalars[s].to_bits()],
        _ => unreachable!("routine declares an output"),
    }
}

fn main() {
    let dump_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--dump-reports")
            .and_then(|i| args.get(i + 1).cloned())
    };

    let seed = fblas_hlssim::env::chaos_seed().unwrap_or(DEFAULT_SEED);
    let retry_max = fblas_hlssim::env::retry_max();

    let mut report = BenchReport::new("chaos");
    fblas_bench::audit::stamp_audit(&mut report, &[]);
    report
        .meta("seed", seed)
        .meta("retry_max", retry_max as u64)
        .meta("n", N as u64);

    println!("=== Seeded fault-injection sweep (seed {seed}) ===\n");
    println!(
        "{:<8} {:<14} {:<12} {:>5} {:>4} {:>9} {:>9} {:>10} {:>12}",
        "routine", "fault", "site", "idx", "bit", "detected", "attempts", "recovered", "kind"
    );

    let mut fault_reports = Vec::new();
    let mut recovery_reports: Vec<RecoveryReport> = Vec::new();
    let (mut injected, mut detected_count, mut recovered_count) = (0u64, 0u64, 0u64);

    for (ri, routine) in [dot_routine(), gemv_routine(), ger_routine()]
        .into_iter()
        .enumerate()
    {
        let the_plan = plan(&routine.program, &routine.cfg).expect("plannable routine");
        assert_eq!(
            the_plan.components.len(),
            1,
            "{}: one component",
            routine.name
        );

        // Fault-free reference: the bits every recovered run must match.
        let ref_bufs = bind(&routine.bindings);
        let opts = ExecOptions {
            mode: ExecMode::Recover {
                policy: RetryPolicy::default(),
                hook: None,
            },
            ..ExecOptions::default()
        };
        let ref_out =
            execute_plan::<f64>(&routine.program, &the_plan, &routine.cfg, &ref_bufs, &opts)
                .expect("fault-free run succeeds");
        assert_eq!(
            ref_out.recovery.retries, 0,
            "{}: clean run retried",
            routine.name
        );
        let ref_bits = output_bits(&routine, &ref_bufs, &ref_out.scalars);

        let mut rng = ChaosRng::new(seed ^ (ri as u64).wrapping_mul(0x9e37_79b9));
        for sc in scenarios(&routine, &mut rng, seed) {
            let bufs = bind(&routine.bindings);
            let hook = Arc::new(sc.plan);
            let policy = RetryPolicy {
                max_attempts: retry_max,
                deadline: sc.deadline,
                ..RetryPolicy::default()
            };
            let opts = ExecOptions {
                mode: ExecMode::Recover {
                    policy: policy.clone(),
                    hook: Some(hook.clone()),
                },
                ..ExecOptions::default()
            };
            let t0 = Instant::now();
            let outcome =
                execute_plan::<f64>(&routine.program, &the_plan, &routine.cfg, &bufs, &opts);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

            let out = match outcome {
                Ok(out) => out,
                Err(e) => panic!(
                    "{} / {}: not recovered within {} attempts: {}",
                    routine.name, sc.label, policy.max_attempts, e
                ),
            };
            let rec = &out.recovery;
            let attempts = rec.attempts.len() as u64;
            let first_kind = rec.attempts[0].error;
            let was_detected = first_kind.is_some();
            let recovered = rec.recovered > 0;

            // The robustness contract, asserted scenario by scenario.
            if sc.expect_detected {
                assert!(
                    was_detected,
                    "{} / {} @ {}[{}] bit {:?}: fault escaped detection",
                    routine.name, sc.label, sc.site, sc.index, sc.bit
                );
                assert!(
                    recovered,
                    "{} / {}: detected but not recovered",
                    routine.name, sc.label
                );
            } else {
                assert!(
                    !was_detected && attempts == 1,
                    "{} / {}: timing-only fault tripped a guard",
                    routine.name,
                    sc.label
                );
            }
            let bits = output_bits(&routine, &bufs, &out.scalars);
            assert_eq!(
                bits, ref_bits,
                "{} / {}: recovered output is not bit-identical to the fault-free run",
                routine.name, sc.label
            );

            injected += hook.report().injections.len() as u64;
            detected_count += was_detected as u64;
            recovered_count += recovered as u64;

            let kind = first_kind.map_or("-", |k| k.as_str()).to_string();
            println!(
                "{:<8} {:<14} {:<12} {:>5} {:>4} {:>9} {:>9} {:>10} {:>12}",
                routine.name,
                sc.label,
                sc.site,
                sc.index,
                sc.bit.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
                was_detected as u64,
                attempts,
                recovered as u64,
                kind
            );
            report.add_row([
                ("routine", Cell::from(routine.name)),
                ("fault", Cell::from(sc.label)),
                ("site", Cell::from(sc.site.as_str())),
                ("index", Cell::from(sc.index)),
                (
                    "bit",
                    Cell::from(sc.bit.map(|b| b.to_string()).unwrap_or_else(|| "-".into())),
                ),
                ("detected", Cell::from(was_detected as u64)),
                ("attempts", Cell::from(attempts)),
                ("recovered", Cell::from(recovered as u64)),
                ("kind", Cell::from(kind.as_str())),
                ("cpu_wall_ms", Cell::from(wall_ms)),
            ]);
            fault_reports.push(hook.report());
            recovery_reports.push(out.recovery);
        }
    }

    println!(
        "\n{injected} faults injected, {detected_count} detected, {recovered_count} recovered \
         (timing-only delays are absorbed, not detected — by design)"
    );

    if let Some(path) = dump_path {
        #[derive(serde::Serialize)]
        struct Dump {
            seed: u64,
            fault_reports: Vec<fblas_chaos::FaultReport>,
            recovery_reports: Vec<RecoveryReport>,
        }
        let doc = Dump {
            seed,
            fault_reports,
            recovery_reports,
        };
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serialize"),
        )
        .expect("write dump");
        println!("reports: {path}");
    }

    let path = report.write().expect("write BENCH_chaos.json");
    println!("report: {}", path.display());
}
