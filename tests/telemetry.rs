//! Integration tests for the live telemetry runtime: element-accurate
//! channel counters against `ChannelStats`, one chunk event per chunk
//! call even when the chunk splits at capacity, and run-ID correlation
//! across the recovery report, the Prometheus dump, and the JSON
//! snapshot.
//!
//! The metrics runtime is process-global, so every test takes
//! `telemetry_lock()` and isolates its counters with unique channel
//! names.

use std::collections::HashMap;
use std::sync::Arc;

use fblas_arch::Device;
use fblas_core::apps::{
    atax_host_layer, atax_invalid_streaming, atax_streaming, atax_streaming_independent_reads,
    bicg_host_layer, bicg_streaming, gemver_host_layer, gemver_streaming,
};
use fblas_core::composition::{
    execute_plan, plan, Backend, ExecMode, ExecOptions, Op, PlannerConfig, Program, RetryPolicy,
};
use fblas_core::host::{DeviceBuffer, Fpga, GemvTuning};
use fblas_hlssim::{channel, ChannelStats, ModuleKind, Simulation};
use fblas_metrics::expo;
use fblas_trace::{EventKind, Tracer};
use parking_lot::{Mutex, MutexGuard};
use serde::Value;

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

/// Satellite (b): a chunk push that splits at channel capacity must
/// record exactly one chunk trace event, and the element counters must
/// match `ChannelStats::transferred` exactly.
#[test]
fn split_chunk_records_one_event_and_exact_element_counts() {
    let _guard = telemetry_lock();
    let reg = fblas_metrics::install(4);

    const CAP: usize = 64;
    const N: usize = 96; // > CAP: the chunk must split into two sections
    let tracer = Tracer::new();
    let mut sim = Simulation::new();
    sim.set_tracer(tracer.clone());
    let (tx, rx) = channel::<u64>(sim.ctx(), CAP, "telem_split");
    let tx_stats: Arc<Mutex<Option<ChannelStats>>> = Arc::new(Mutex::new(None));
    let slot = tx_stats.clone();
    sim.add_module("src", ModuleKind::Interface, move || {
        let mut buf: Vec<u64> = (0..N as u64).collect();
        tx.push_chunk(&mut buf)?;
        *slot.lock() = Some(tx.stats());
        Ok(())
    });
    sim.add_module("sink", ModuleKind::Compute, move || {
        let got = rx.pop_n(N)?;
        assert_eq!(got.len(), N);
        Ok(())
    });
    sim.run().expect("split-chunk pipeline runs");

    let tx_st = tx_stats.lock().clone().expect("producer recorded stats");
    assert_eq!(tx_st.transferred, N as u64, "stats see every element");

    // Element counters are section-accurate and must agree with the
    // channel's own ledger.
    let labels: &[(&str, &str)] = &[("channel", "telem_split")];
    let pushed = reg
        .counter("fblas_channel_push_elements_total", labels)
        .value();
    let popped = reg
        .counter("fblas_channel_pop_elements_total", labels)
        .value();
    assert_eq!(pushed, tx_st.transferred, "push counter matches stats");
    assert_eq!(popped, N as u64, "pop counter sees every element");

    // One chunk *call*, even though it split at capacity: exactly one
    // chunk-op counter increment and exactly one chunk trace event.
    let chunk_pushes = reg
        .counter(
            "fblas_channel_chunk_ops_total",
            &[("channel", "telem_split"), ("op", "push")],
        )
        .value();
    assert_eq!(chunk_pushes, 1, "one chunk op for one push_chunk call");
    let chunk_events: Vec<u64> = tracer
        .lanes()
        .iter()
        .flat_map(|lane| lane.events.iter())
        .filter(|ev| {
            ev.kind == EventKind::Push
                && ev.count > 1
                && ev.channel.as_deref() == Some("telem_split")
        })
        .map(|ev| ev.count)
        .collect();
    assert_eq!(
        chunk_events,
        vec![N as u64],
        "exactly one chunk trace event carrying the full element count"
    );
}

fn gemv_program() -> (Program, PlannerConfig, HashMap<String, DeviceBuffer<f64>>) {
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
    let seq = |n: usize, s: f64| -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + s) * 0.7311).cos()).collect()
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
    (p, cfg, buffers)
}

fn recover() -> ExecOptions<'static> {
    ExecOptions {
        mode: ExecMode::Recover {
            policy: RetryPolicy::default(),
            hook: None,
        },
        ..ExecOptions::default()
    }
}

/// An audited run feeds the same executor metrics as a plain or
/// recovering one: every component counts once in
/// `fblas_exec_components_total` and `fblas_component_us`, and the plan
/// once in `fblas_plan_us`.
#[test]
fn audited_run_records_executor_metrics_per_component() {
    let _guard = telemetry_lock();
    let reg = fblas_metrics::install(4);
    const N: usize = 24;
    const M: usize = 15;
    // ATAX without deep channels: `t = A·x` and `y = Aᵀ·t` plan as two
    // components.
    let mut program = Program::new();
    program
        .matrix("A", N, M)
        .vector("x", M)
        .vector("t", N)
        .vector("y", M);
    for (transposed, x, out) in [(false, "x", "t"), (true, "t", "y")] {
        program.op(Op::Gemv {
            alpha: 1.0,
            beta: 0.0,
            a: "A".into(),
            transposed,
            x: x.into(),
            y: None,
            out: out.into(),
        });
    }
    let cfg = PlannerConfig {
        tn: 6,
        tm: 5,
        ..Default::default()
    };
    let planned = plan(&program, &cfg).unwrap();
    let components = planned.components.len() as u64;
    assert!(components >= 2, "ATAX must split into components");
    let buffers: HashMap<String, DeviceBuffer<f64>> = [("A", N * M), ("x", M), ("t", N), ("y", M)]
        .into_iter()
        .map(|(name, len)| {
            let data = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            (name.to_string(), DeviceBuffer::from_vec(name, data, 0))
        })
        .collect();

    let components_before = reg.counter("fblas_exec_components_total", &[]).value();
    let component_us_before = reg.histogram("fblas_component_us", &[]).snapshot().count;
    let plan_us_before = reg.histogram("fblas_plan_us", &[]).snapshot().count;
    let opts = ExecOptions {
        mode: ExecMode::Audit {
            freq_hz: 200.0e6,
            tolerance: 1.0,
        },
        ..ExecOptions::default()
    };
    let out = execute_plan::<f64>(&program, &planned, &cfg, &buffers, &opts).unwrap();
    assert_eq!(out.audits.len() as u64, components);

    assert_eq!(
        reg.counter("fblas_exec_components_total", &[]).value() - components_before,
        components,
        "an audited run counts every component"
    );
    assert_eq!(
        reg.histogram("fblas_component_us", &[]).snapshot().count - component_us_before,
        components,
        "an audited run times every component"
    );
    assert_eq!(
        reg.histogram("fblas_plan_us", &[]).snapshot().count - plan_us_before,
        1,
        "an audited run times the plan"
    );
}

/// One recovery run inside a seeded scope: the run ID must surface in
/// the `RecoveryReport`, the Prometheus dump, and the JSON snapshot
/// (which must round-trip byte-identically), and the executor counters
/// must have moved.
#[test]
fn recovery_run_id_correlates_across_exposition_surfaces() {
    let _guard = telemetry_lock();
    let reg = fblas_metrics::install(4);
    let attempts_before = reg.counter("fblas_exec_attempts_total", &[]).value();
    let components_before = reg.counter("fblas_exec_components_total", &[]).value();

    let (program, cfg, buffers) = gemv_program();
    let planned = plan(&program, &cfg).unwrap();
    let scope = fblas_metrics::RunScope::seeded(2024);
    let run_id = scope.id().to_string();
    let report = execute_plan::<f64>(&program, &planned, &cfg, &buffers, &recover())
        .expect("clean gemv recovers trivially")
        .recovery;

    assert_eq!(
        report.run_id.as_deref(),
        Some(run_id.as_str()),
        "RecoveryReport carries the scope's run ID"
    );
    assert!(
        reg.counter("fblas_exec_attempts_total", &[]).value() > attempts_before,
        "attempt counter moved"
    );
    assert!(
        reg.counter("fblas_exec_components_total", &[]).value() > components_before,
        "component counter moved"
    );

    let collected = reg.collect();
    let prom = expo::prometheus_text(&collected);
    assert!(
        prom.contains(&format!("fblas_run_info{{run_id=\"{run_id}\"}} 1")),
        "Prometheus dump carries fblas_run_info:\n{prom}"
    );
    assert!(prom.contains("# TYPE fblas_exec_attempts_total counter"));

    let snap = expo::snapshot_json(&collected);
    assert!(expo::snapshot_round_trips(&snap), "snapshot round-trips");
    let doc: Value = serde_json::from_str(&snap).unwrap();
    assert_eq!(
        doc.get("run_id").and_then(Value::as_str),
        Some(run_id.as_str()),
        "snapshot carries the scope's run ID"
    );
}

/// Outside any scope, the ID surfaces stay silent: no `fblas_run_info`
/// series, a null snapshot `run_id`, and `RecoveryReport.run_id: None` —
/// which keeps unseeded chaos byte-identity intact.
#[test]
fn without_a_scope_no_run_id_leaks_into_any_surface() {
    let _guard = telemetry_lock();
    let reg = fblas_metrics::install(4);

    let (program, cfg, buffers) = gemv_program();
    let planned = plan(&program, &cfg).unwrap();
    let report = execute_plan::<f64>(&program, &planned, &cfg, &buffers, &recover())
        .unwrap()
        .recovery;
    assert_eq!(report.run_id, None);

    let collected = reg.collect();
    assert!(!expo::prometheus_text(&collected).contains("fblas_run_info"));
    let doc: Value = serde_json::from_str(&expo::snapshot_json(&collected)).unwrap();
    assert!(matches!(doc.get("run_id"), Some(Value::Null)));
}

/// Every app entry point records exactly one run and one latency sample
/// per call, including a call that fails (the undersized ATAX stalls).
#[test]
fn app_entry_points_count_each_call_once() {
    let _guard = telemetry_lock();
    let reg = fblas_metrics::install(4);
    let backend = Backend::resolve().as_str();
    let runs = |routine: &str| {
        let l: &[(&str, &str)] = &[("routine", routine), ("backend", backend)];
        (
            reg.counter("fblas_routine_runs_total", l).value(),
            reg.histogram("fblas_routine_us", l).snapshot().count,
        )
    };

    let fpga = Fpga::new(Device::Stratix10Gx2800);
    let n = 12;
    let vec = |name: &str, len: usize| {
        fpga.alloc_from(name, (0..len).map(|i| (i as f64 * 0.37).sin()).collect())
    };
    let (a, x, y, p, r) = (
        vec("a", n * n),
        vec("x", n),
        vec("y", n),
        vec("p", n),
        vec("r", n),
    );
    let (u1, v1, u2, v2, z) = (
        vec("u1", n),
        vec("v1", n),
        vec("u2", n),
        vec("v2", n),
        vec("z", n),
    );
    let (out1, out2, b) = (vec("o1", n), vec("o2", n), vec("b", n * n));
    let tuning = GemvTuning::new(4, 4, 2);

    // Each call reports whether it succeeded; only the undersized ATAX
    // is meant to fail.
    type Call<'a> = Box<dyn Fn() -> bool + 'a>;
    let calls: Vec<(&str, Call)> = vec![
        (
            "atax_streaming",
            Box::new(|| atax_streaming(&fpga, n, n, &a, &x, &out1, &tuning).is_ok()),
        ),
        (
            "atax_invalid_streaming",
            Box::new(|| atax_invalid_streaming(&fpga, n, n, &a, &x, &out1, &tuning).is_err()),
        ),
        (
            "atax_streaming_independent_reads",
            Box::new(|| {
                atax_streaming_independent_reads(&fpga, n, n, &a, &x, &out1, &tuning).is_ok()
            }),
        ),
        (
            "atax_host_layer",
            Box::new(|| atax_host_layer(&fpga, n, n, &a, &x, &out1, &tuning).is_ok()),
        ),
        (
            "bicg_streaming",
            Box::new(|| bicg_streaming(&fpga, n, n, &a, &p, &r, &out1, &out2, &tuning).is_ok()),
        ),
        (
            "bicg_host_layer",
            Box::new(|| bicg_host_layer(&fpga, n, n, &a, &p, &r, &out1, &out2, &tuning).is_ok()),
        ),
        (
            "gemver_streaming",
            Box::new(|| {
                gemver_streaming(
                    &fpga, n, 0.9, 1.1, &a, &u1, &v1, &u2, &v2, &y, &z, &b, &out1, &out2, &tuning,
                )
                .is_ok()
            }),
        ),
        (
            "gemver_host_layer",
            Box::new(|| {
                gemver_host_layer(
                    &fpga, n, 0.9, 1.1, &a, &u1, &v1, &u2, &v2, &y, &z, &b, &out1, &out2, &tuning,
                )
                .is_ok()
            }),
        ),
    ];
    for (routine, call) in &calls {
        let (runs_before, samples_before) = runs(routine);
        assert!(call(), "{routine}: unexpected outcome");
        let (runs_after, samples_after) = runs(routine);
        assert_eq!(runs_after - runs_before, 1, "{routine}: runs per call");
        assert_eq!(
            samples_after - samples_before,
            1,
            "{routine}: samples per call"
        );
    }
}
