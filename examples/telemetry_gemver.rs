//! End-to-end telemetry correlation: one seeded GEMVER run, one run ID,
//! four observability surfaces.
//!
//! The example arms the metrics runtime, opens a seeded
//! [`fblas_metrics::RunScope`], and drives the full stack — lint the
//! `examples/lint/gemver.json` program document, build the plan, and
//! execute it with recovery on the threaded backend under a tracer. It
//! then asserts the *same*
//! 16-hex run ID appears in:
//!
//! 1. the Prometheus text dump (`fblas_run_info{run_id="..."} 1`),
//! 2. the JSON snapshot (`"run_id": "..."`, byte-stable round trip),
//! 3. the Perfetto trace (`otherData.run_id`),
//! 4. the `RecoveryReport` (`run_id` field).
//!
//! ci.sh runs this as the snapshot-schema / run-ID correlation
//! self-check.
//!
//! ```text
//! cargo run --release -p fblas-bench --example telemetry_gemver
//! ```

// Test/example code may unwrap; the clippy.toml discipline targets
// library code.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::path::Path;

use fblas_core::composition::{execute_plan, plan, Backend, ExecMode, ExecOptions, RetryPolicy};
use fblas_core::host::DeviceBuffer;
use fblas_lint::{classify, lint_json, Document};
use fblas_metrics::expo;
use fblas_trace::{perfetto, Tracer};
use serde::Value;

fn seq(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + phase) * 0.7311).cos())
        .collect()
}

fn main() {
    // Arm the runtime and pin the run identity: seeded, so a rerun of
    // this example correlates under the same ID.
    fblas_metrics::install(fblas_hlssim::env::metrics_shards());
    let scope = fblas_metrics::RunScope::seeded(0xF_B1A5);
    let run_id = scope.id().to_string();
    println!("run id: {run_id}");

    // Lint the program document (counts into fblas_lint_runs_total).
    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lint/gemver.json");
    let json = std::fs::read_to_string(&doc_path).expect("read examples/lint/gemver.json");
    let lint = lint_json(&json, "gemver.json");
    assert_eq!(
        lint.errors(),
        0,
        "the shipped GEMVER document must lint clean:\n{}",
        lint.to_json()
    );

    // Plan and execute with recovery, traced.
    let (program, cfg) = match classify(&json).expect("document classifies") {
        Document::Program(doc) => (
            doc.to_program().expect("document builds a Program"),
            doc.config.planner_config(),
        ),
        other => panic!("expected a program document, got {other:?}"),
    };
    let planned = plan(&program, &cfg).expect("GEMVER plans");
    let n = 32usize;
    let buffers: HashMap<String, DeviceBuffer<f64>> = [
        ("A", n * n),
        ("B1", n * n),
        ("B", n * n),
        ("u1", n),
        ("v1", n),
        ("u2", n),
        ("v2", n),
        ("y", n),
        ("z", n),
        ("x", n),
        ("w", n),
    ]
    .iter()
    .enumerate()
    .map(|(i, (name, len))| {
        (
            name.to_string(),
            DeviceBuffer::from_vec(*name, seq(*len, i as f64), 0),
        )
    })
    .collect();
    let tracer = Tracer::new();
    // Threaded: on the fused backend both GEMVER components replay tile
    // by tile with no channel, and the dump must carry the simulator's
    // channel series.
    let opts = ExecOptions {
        backend: Backend::Threaded,
        tracer: Some(&tracer),
        mode: ExecMode::Recover {
            policy: RetryPolicy::default(),
            hook: None,
        },
    };
    let report = execute_plan::<f64>(&program, &planned, &cfg, &buffers, &opts)
        .expect("GEMVER executes")
        .recovery;

    // Surface 1: the recovery report.
    assert_eq!(
        report.run_id.as_deref(),
        Some(run_id.as_str()),
        "RecoveryReport must carry the scope's run ID"
    );

    // Surface 2: the Prometheus dump.
    let reg = fblas_metrics::registry().expect("runtime is armed");
    let collected = reg.collect();
    let prom = expo::prometheus_text(&collected);
    assert!(
        prom.contains(&format!("fblas_run_info{{run_id=\"{run_id}\"}} 1")),
        "Prometheus dump must carry fblas_run_info"
    );
    assert!(prom.contains("fblas_exec_attempts_total"));
    assert!(prom.contains("fblas_lint_runs_total 1"));
    assert!(prom.contains("fblas_channel_push_elements_total"));

    // Surface 3: the JSON snapshot — correct ID, byte-stable round trip.
    let snap = expo::snapshot_json(&collected);
    assert!(
        expo::snapshot_round_trips(&snap),
        "snapshot must re-serialize byte-identically"
    );
    let doc: Value = serde_json::from_str(&snap).expect("snapshot parses");
    assert_eq!(
        doc.get("run_id").and_then(Value::as_str),
        Some(run_id.as_str()),
        "snapshot must carry the scope's run ID"
    );
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("fblas-metrics-snapshot-v1")
    );

    // Surface 4: the Perfetto trace.
    let trace: Value = serde_json::from_str(&perfetto::trace_json(&tracer)).expect("trace parses");
    assert_eq!(
        trace
            .get("otherData")
            .and_then(|o| o.get("run_id"))
            .and_then(Value::as_str),
        Some(run_id.as_str()),
        "Perfetto trace must carry the scope's run ID"
    );

    // With FBLAS_SNAPSHOT_OUT set, persist the snapshot so downstream
    // tooling (fblas-top --snapshot, ci.sh) can render and re-check it.
    if let Ok(path) = std::env::var("FBLAS_SNAPSHOT_OUT") {
        std::fs::write(&path, &snap).expect("write snapshot file");
        println!("snapshot written: {path}");
    }

    println!(
        "one run, four surfaces: recovery report, Prometheus dump, \
         JSON snapshot, Perfetto trace all carry run {run_id}"
    );
    println!(
        "attempts {}  components {}  snapshot bytes {}",
        report.attempts.len(),
        report.components,
        snap.len()
    );
}
