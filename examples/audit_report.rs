//! Audit self-check: run the AXPYDOT paper fixture through the traced
//! composition executor, print the per-component audit reports, and exit
//! nonzero if the measured behavior drifts from the `C = L + I·M` model
//! beyond tolerance. `ci.sh` runs this as the audit gate.
//!
//! ```text
//! cargo run --release -p fblas-bench --example audit_report
//! ```
//!
//! The gate tolerance is deliberately loose (0.5 relative drift unless
//! `FBLAS_AUDIT_TOLERANCE` overrides it): the simulator measures wall
//! clock on whatever host CI lands on, so this is a sanity check that
//! the audit plumbing attributes time to the right modules — the tight
//! model-vs-model comparisons live in `cargo test` and `bench-diff`.

use std::collections::HashMap;
use std::process::ExitCode;

use fblas_core::composition::{
    execute_plan, plan, Backend, ExecMode, ExecOptions, Op, PlannerConfig, Program,
};
use fblas_core::host::DeviceBuffer;
use fblas_refblas as refblas;

/// CI hosts are noisy and often single-core: gate only on gross
/// misattribution, not scheduling jitter.
const GATE_TOLERANCE: f64 = 0.5;

fn main() -> ExitCode {
    // Drift attribution compares modeled busy share against measured
    // wall time, which only tracks the element-at-a-time hardware model
    // when the transport actually moves one element per lock round.
    // Pin the chunked transport to element-wise for the audited run.
    std::env::set_var("FBLAS_CHUNK", "1");

    let tolerance = std::env::var("FBLAS_AUDIT_TOLERANCE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t > 0.0 && *t <= 1.0)
        .unwrap_or(GATE_TOLERANCE);

    let n = 40_000usize;
    let mut p = Program::new();
    p.vector("w", n)
        .vector("v", n)
        .vector("u", n)
        .vector("z", n)
        .scalar("beta");
    p.op(Op::Axpy {
        alpha: -0.8,
        x: "v".into(),
        y: "w".into(),
        out: "z".into(),
    });
    p.op(Op::Dot {
        x: "z".into(),
        y: "u".into(),
        out: "beta".into(),
    });
    let cfg = PlannerConfig {
        tn: 64,
        tm: 64,
        ..Default::default()
    };
    let thep = plan(&p, &cfg).expect("axpydot plans");

    let seq =
        |seed: f64| -> Vec<f64> { (0..n).map(|i| ((i as f64 + seed) * 0.357).sin()).collect() };
    let (wv, vv, uv) = (seq(0.0), seq(1.0), seq(2.0));
    let buffers: HashMap<String, DeviceBuffer<f64>> = [
        ("w", wv.clone()),
        ("v", vv.clone()),
        ("u", uv.clone()),
        ("z", vec![0.0; n]),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, data))| (name.to_string(), DeviceBuffer::from_vec(name, data, i % 4)))
    .collect();

    println!("=== Audit self-check: AXPYDOT, N = {n}, tolerance {tolerance:.2} ===");
    // A module audit: pinned to the threaded backend, the only one with
    // a lane per module (the fused backend runs AXPYDOT as one `fused:`
    // lane, which no per-module prediction can be joined with).
    let opts = ExecOptions {
        backend: Backend::Threaded,
        tracer: None,
        mode: ExecMode::Audit {
            freq_hz: 200.0e6,
            tolerance,
        },
    };
    let out =
        execute_plan::<f64>(&p, &thep, &cfg, &buffers, &opts).expect("audited execution succeeds");

    // The audited path must still compute the right answer.
    let (_, beta_ref) = refblas::apps::axpydot(&wv, &vv, &uv, 0.8);
    if (out.scalars["beta"] - beta_ref).abs() > 1e-9 {
        eprintln!(
            "audit_report: wrong result: beta {} vs {}",
            out.scalars["beta"], beta_ref
        );
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for (i, report) in out.audits.iter().enumerate() {
        println!("\n--- component {i} ---");
        println!("{}", report.render());
        if report.bottleneck.is_none() {
            eprintln!("audit_report: component {i} named no bottleneck");
            failed = true;
        }
        for m in report.flagged() {
            eprintln!(
                "audit_report: component {i}: `{}` drifted {:+.0}% from the model ({})",
                m.module,
                m.drift.unwrap_or(0.0) * 100.0,
                m.attribution.describe()
            );
            failed = true;
        }
    }

    if failed {
        println!("\naudit self-check: FAILED (drift above tolerance {tolerance:.2})");
        ExitCode::FAILURE
    } else {
        println!("\naudit self-check: all modules within tolerance {tolerance:.2}");
        ExitCode::SUCCESS
    }
}
