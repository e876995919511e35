//! Flight recorder + postmortem forensics, end to end: a declared stall
//! and an exhausted recovery budget must each leave a schema-v1 bundle
//! whose anomaly list names the true culprit, and seeded chaos bundles
//! must render byte-identical deterministic documents.

use std::collections::HashMap;
use std::sync::Arc;

use fblas_chaos::{FaultAction, FaultPlan, FaultSite};
use fblas_core::composition::{
    execute_plan, plan, ExecError, ExecMode, ExecOptions, Op, PlannerConfig, Program, RetryPolicy,
};
use fblas_core::host::DeviceBuffer;
use fblas_hlssim::{channel, ModuleKind, SimError, Simulation};
use fblas_metrics::flight::{self, AnomalyKind, FlightConfig, PostmortemBundle};
use serde::Value;

/// The recorder, registry, and last-bundle slot are process-global;
/// every test takes this lock.
static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Recovery-mode options arming `hook` under a budget of `max_attempts`.
fn recover(hook: FaultPlan, max_attempts: u32) -> ExecOptions<'static> {
    ExecOptions {
        mode: ExecMode::Recover {
            policy: RetryPolicy {
                max_attempts,
                ..RetryPolicy::default()
            },
            hook: Some(Arc::new(hook)),
        },
        ..ExecOptions::default()
    }
}

/// Arm metrics + a fast recorder and clear the last-bundle slot.
fn arm(hz: u32) {
    fblas_metrics::install(fblas_hlssim::env::metrics_shards());
    flight::install(FlightConfig { hz, window_s: 2 });
    flight::clear_last_bundle();
}

fn seq(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + phase) * 0.7311).cos())
        .collect()
}

/// Cross-blocked two-channel deadlock: `src` fills the depth-4 `hot`
/// FIFO before it ever feeds `side`, while `sink` pops `side` first —
/// the classic under-depth composition of the paper's Sec. V-B.
fn deadlocked_sim() -> Simulation {
    let mut sim = Simulation::new();
    let (hot_tx, hot_rx) = channel::<u64>(sim.ctx(), 4, "hot");
    let (side_tx, side_rx) = channel::<u64>(sim.ctx(), 1, "side");
    sim.add_module("src", ModuleKind::Interface, move || {
        hot_tx.push_iter(0..64)?;
        side_tx.push(99)
    });
    sim.add_module("sink", ModuleKind::Compute, move || {
        side_rx.pop()?;
        hot_rx.pop_n(64).map(|_| ())
    });
    sim
}

#[test]
fn watchdog_stall_captures_bundle_naming_the_pinned_channel() {
    let _g = LOCK.lock();
    arm(200);
    let err = deadlocked_sim().run().expect_err("composition deadlocks");
    let report = match err {
        SimError::Stall { report } => report,
        other => panic!("expected a stall, got {other:?}"),
    };
    assert!(report.blocked_on("src").is_some());

    let bundle = flight::last_bundle().expect("stall captured a bundle");
    assert_eq!(bundle.trigger.kind, "stall");
    assert!(bundle
        .trigger
        .detail
        .contains("live module(s) channel-blocked"));
    // The trigger names the FIFO the blocked producer found full.
    assert_eq!(bundle.trigger.culprit.as_deref(), Some("hot"));
    let stall = bundle.stall.as_ref().expect("wait-for graph attached");
    let blocked = stall
        .get("blocked")
        .and_then(Value::as_array)
        .expect("blocked list serialized");
    assert_eq!(blocked.len(), report.blocked.len());

    // The anomaly list names the true culprit: `hot` sits pinned at
    // capacity 4 in the watchdog's samples after the deadlock and in
    // the final capture frame; `side` (empty) stays clean.
    let pinned: Vec<&str> = bundle
        .anomalies
        .iter()
        .filter(|a| a.kind == AnomalyKind::OccupancyPinned)
        .map(|a| a.culprit.as_str())
        .collect();
    assert_eq!(pinned, ["hot"], "anomalies: {:?}", bundle.anomalies);

    // The full document is schema-stamped, byte-stable, and parseable.
    let text = bundle.to_json();
    assert_eq!(text, bundle.to_json());
    let doc: Value = serde_json::from_str(&text).expect("bundle parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(flight::BUNDLE_SCHEMA)
    );
    assert!(
        doc.get("wall")
            .and_then(|w| w.get("frames"))
            .and_then(Value::as_array)
            .is_some_and(|f| f.len() >= 2),
        "watchdog polls sampled at least two frames"
    );
}

fn gemv_exhaustion_case() -> (
    Program,
    PlannerConfig,
    HashMap<String, DeviceBuffer<f64>>,
    FaultPlan,
) {
    const N: usize = 32;
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
    let buffers = [
        ("A", seq(N * N, 0.0)),
        ("x", seq(N, 1.0)),
        ("y", seq(N, 2.0)),
        ("o", vec![0.0; N]),
    ]
    .into_iter()
    .map(|(name, data)| (name.to_string(), DeviceBuffer::from_vec(name, data, 0)))
    .collect();
    // One-shot rules are spent per attempt, so three stacked rules at
    // the same element index fail all three attempts of the budget.
    let mut hook = FaultPlan::new(Some(4242));
    for _ in 0..3 {
        hook = hook.channel_fault(
            FaultSite::Push,
            "write_o",
            5,
            FaultAction::Corrupt { bit: 7 },
        );
    }
    (program, cfg, buffers, hook)
}

/// Run the seeded exhaustion scenario once and return its bundle.
fn run_exhaustion() -> Arc<PostmortemBundle> {
    arm(500);
    let _run = fblas_metrics::RunScope::seeded(0xF11A);
    let (program, cfg, buffers, hook) = gemv_exhaustion_case();
    let planned = plan(&program, &cfg).expect("gemv plans");
    let err = execute_plan::<f64>(&program, &planned, &cfg, &buffers, &recover(hook, 3))
        .expect_err("every attempt is corrupted");
    assert!(matches!(err.error, ExecError::Corrupt { .. }));
    assert_eq!(err.report.retries, 2);
    flight::last_bundle().expect("exhaustion captured a bundle")
}

#[test]
fn recovery_exhaustion_captures_bundle_with_retry_spike() {
    let _g = LOCK.lock();
    let bundle = run_exhaustion();
    assert_eq!(bundle.trigger.kind, "corruption");
    let run_id = bundle
        .run_id
        .as_deref()
        .expect("run scope stamps the bundle");
    assert_eq!(run_id.len(), 16);
    assert!(run_id.chars().all(|c| c.is_ascii_hexdigit()));

    let recovery = bundle.recovery.as_ref().expect("recovery report attached");
    assert_eq!(recovery.get("retries").and_then(Value::as_u64), Some(2));
    assert_eq!(
        recovery
            .get("attempts")
            .and_then(Value::as_array)
            .map(Vec::len),
        Some(3)
    );
    // The attempts completed their simulations, so the per-channel
    // integrity guards rode along and the dirty write-back is visible.
    let guards = bundle.guards.as_ref().expect("guard reports attached");
    assert!(
        guards.as_array().is_some_and(|g| g.iter().any(|r| {
            r.get("channel").and_then(Value::as_str) == Some("write_o")
                && r.get("digests_match").and_then(Value::as_bool) == Some(false)
        })),
        "guards: {guards:?}"
    );
    assert!(
        bundle
            .anomalies
            .iter()
            .any(|a| a.kind == AnomalyKind::RetrySpike && a.culprit == "executor"),
        "anomalies: {:?}",
        bundle.anomalies
    );
}

/// Two *simultaneous* failing runs on different threads — the serving
/// layer's steady state — must each get their own run ID and their own
/// `postmortem-<runid>.json` in `FBLAS_FLIGHT_DIR`. This is the
/// regression test for the old process-global `RunScope`, under which
/// concurrent workers clobbered each other's IDs and one bundle file
/// overwrote the other.
#[test]
fn concurrent_failing_runs_write_distinct_postmortems() {
    let _g = LOCK.lock();
    let dir = std::env::temp_dir().join(format!("fblas-flight-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("FBLAS_FLIGHT_DIR", &dir);
    arm(500);

    let barrier = Arc::new(std::sync::Barrier::new(2));
    let run_ids: Vec<String> = [0xAAAA_u64, 0xBBBB_u64]
        .into_iter()
        .map(|seed| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let run = fblas_metrics::RunScope::seeded(seed);
                let (program, cfg, buffers, hook) = gemv_exhaustion_case();
                let planned = plan(&program, &cfg).expect("gemv plans");
                barrier.wait();
                execute_plan::<f64>(&program, &planned, &cfg, &buffers, &recover(hook, 3))
                    .expect_err("every attempt is corrupted");
                run.id().to_string()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("worker thread survives"))
        .collect();
    std::env::remove_var("FBLAS_FLIGHT_DIR");

    assert_ne!(run_ids[0], run_ids[1], "concurrent runs shared a run ID");
    for id in &run_ids {
        let path = dir.join(format!("postmortem-{id}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing bundle {}: {e}", path.display()));
        let doc: Value = serde_json::from_str(&text).expect("bundle parses");
        assert_eq!(
            doc.get("run_id").and_then(Value::as_str),
            Some(id.as_str()),
            "bundle {} stamped with the wrong run",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two runs of the same seeded chaos scenario must render byte-identical
/// deterministic documents — the invariant ci.sh compares across two
/// full executions of the flight_postmortem example.
#[test]
fn seeded_bundles_render_identical_deterministic_documents() {
    let _g = LOCK.lock();
    let det_a = run_exhaustion().deterministic_json();
    flight::clear_last_bundle();
    let det_b = run_exhaustion().deterministic_json();
    assert_eq!(det_a, det_b, "seeded deterministic bundles diverged");
    assert!(det_a.contains("\"wall\": null"));
    assert!(!det_a.contains("FBLAS_FLIGHT_DIR"));
}
