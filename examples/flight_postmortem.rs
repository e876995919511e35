//! Flight-recorder postmortem walkthrough: kill a seeded chaos run and
//! inspect the bundle it leaves behind.
//!
//! ```text
//! cargo run --release -p fblas-bench --example flight_postmortem
//! fblas-doctor <the path printed on the last line>
//! ```
//!
//! The example arms the metrics runtime and the flight recorder
//! (`FBLAS_FLIGHT=1` at 500 Hz so even a short run samples several
//! frames), then drives a GEMV composition through the recovery
//! executor with a seeded fault plan that corrupts the output stream on
//! *every* attempt — three stacked one-shot corrupt rules at the same
//! element index, one spent per retry. The retry budget exhausts, the
//! executor captures the authoritative postmortem bundle, and this
//! example verifies the forensics before printing where the bundle
//! landed (the last stdout line, which `ci.sh` feeds to
//! `fblas-doctor`).
//!
//! A `.det.json` sibling holding the deterministic view (wall-clock
//! section nulled) is written next to the bundle; two runs with the
//! same seed produce byte-identical deterministic documents.

use std::collections::HashMap;
use std::sync::Arc;

use fblas_chaos::{FaultAction, FaultPlan, FaultSite};
use fblas_core::composition::{
    execute_plan, plan, ExecError, ExecMode, ExecOptions, Op, PlannerConfig, Program, RetryPolicy,
};
use fblas_core::host::DeviceBuffer;
use fblas_metrics::flight::{self, AnomalyKind};

const SEED: u64 = 4242;
const N: usize = 32;
/// Element index on the write-back stream every attempt corrupts.
const FAULT_INDEX: u64 = 5;
const MAX_ATTEMPTS: u32 = 3;

fn seq(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + phase) * 0.7311).cos())
        .collect()
}

fn main() {
    // Arm via the knobs so the example doubles as a walkthrough of the
    // FBLAS_FLIGHT_* surface. 500 Hz: a ~ms-scale run still samples
    // several frames. The output directory is respected when the caller
    // (ci.sh) set one; otherwise bundles land under the temp dir.
    std::env::set_var("FBLAS_FLIGHT", "1");
    std::env::set_var("FBLAS_FLIGHT_HZ", "500");
    std::env::set_var("FBLAS_FLIGHT_WINDOW", "2");
    if std::env::var_os("FBLAS_FLIGHT_DIR").is_none() {
        let dir = std::env::temp_dir().join("fblas-flight-demo");
        std::env::set_var("FBLAS_FLIGHT_DIR", &dir);
    }
    assert!(
        fblas_hlssim::env::arm_flight(),
        "FBLAS_FLIGHT=1 arms the recorder"
    );
    let _run = fblas_metrics::RunScope::seeded(SEED);
    flight::clear_last_bundle();

    let mut program = Program::new();
    program
        .matrix("A", N, N)
        .vector("x", N)
        .vector("y", N)
        .vector("o", N);
    program.op(Op::Gemv {
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
    let planned = plan(&program, &cfg).expect("gemv plans");
    let buffers: HashMap<String, DeviceBuffer<f64>> = [
        ("A", seq(N * N, 0.0)),
        ("x", seq(N, 1.0)),
        ("y", seq(N, 2.0)),
        ("o", vec![0.0; N]),
    ]
    .into_iter()
    .map(|(name, data)| (name.to_string(), DeviceBuffer::from_vec(name, data, 0)))
    .collect();

    // One-shot rules are spent per attempt and channels restart their
    // element sequence on retry (fresh FIFOs), so stacking one rule per
    // attempt at the same index makes every attempt fail: guaranteed
    // budget exhaustion with MAX_ATTEMPTS-1 retries on the books.
    let mut hook = FaultPlan::new(Some(SEED));
    for _ in 0..MAX_ATTEMPTS {
        hook = hook.channel_fault(
            FaultSite::Push,
            "write_o",
            FAULT_INDEX,
            FaultAction::Corrupt { bit: 7 },
        );
    }
    let opts = ExecOptions {
        mode: ExecMode::Recover {
            policy: RetryPolicy {
                max_attempts: MAX_ATTEMPTS,
                ..RetryPolicy::default()
            },
            hook: Some(Arc::new(hook)),
        },
        ..ExecOptions::default()
    };
    let err = execute_plan::<f64>(&program, &planned, &cfg, &buffers, &opts)
        .expect_err("every attempt is corrupted; the budget must exhaust");
    assert!(
        matches!(err.error, ExecError::Corrupt { .. }),
        "unexpected terminal error: {}",
        err.error
    );

    let bundle = flight::last_bundle().expect("exhaustion captured a bundle");
    assert_eq!(bundle.trigger.kind, "corruption");
    assert!(bundle.recovery.is_some(), "recovery report attached");
    assert!(
        bundle
            .anomalies
            .iter()
            .any(|a| a.kind == AnomalyKind::RetrySpike),
        "retry spike detected in the window: {:?}",
        bundle.anomalies
    );
    let run_id = bundle.run_id.clone().expect("run scope stamps the bundle");

    println!(
        "trigger : {} — {}",
        bundle.trigger.kind, bundle.trigger.detail
    );
    println!("retries : {} before exhaustion", err.report.retries);
    for a in &bundle.anomalies {
        println!(
            "anomaly : {} `{}` — {}",
            a.kind.label(),
            a.culprit,
            a.detail
        );
    }

    let dir = fblas_hlssim::env::flight_dir().expect("FBLAS_FLIGHT_DIR is set above");
    let det_path = dir.join(format!("postmortem-{run_id}.det.json"));
    std::fs::write(&det_path, bundle.deterministic_json() + "\n")
        .expect("write deterministic view");
    println!("deterministic view: {}", det_path.display());
    // Last line: the full bundle path, for piping into fblas-doctor.
    println!(
        "{}",
        dir.join(format!("postmortem-{run_id}.json")).display()
    );
}
