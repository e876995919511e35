//! Overhead of the runtime observability subsystems, armed vs disarmed.
//!
//! Runs the `bench_throughput` workloads — DOT, tiled GEMV, and the
//! composed GEMVER pipeline — at the production chunk size
//! (`FBLAS_CHUNK=256`) once per subsystem, with the subsystem disarmed
//! ("off") and armed ("on"), interleaved rep by rep so slow drift in
//! machine load hits both modes equally:
//!
//! * **telemetry** (`BENCH_observe.json`) — the global metrics runtime:
//!   sharded channel counters, wait histograms, watchdog gauges,
//!   per-routine and executor latency histograms;
//! * **flight** (`BENCH_flight.json`) — the flight recorder, with the
//!   metrics runtime armed in both modes so the delta isolates the
//!   recorder itself: the watchdog-driven interval gate plus the
//!   periodic counter/gauge ring samples.
//!
//! The bin enforces each budget in-process: armed DOT may cost at most
//! 3% over disarmed (best-of-reps, with a 0.5 ms absolute floor so
//! timer quantization on very fast runs cannot fail the gate). The
//! flight gate sits on ~10 ms walls, where transient machine load can
//! swamp a 3% margin: an apparent breach re-measures up to two more
//! times (keeping the best wall on both sides) before it counts. A real
//! breach aborts before that subsystem's report is written.
//!
//! ```text
//! cargo run --release -p fblas-bench --bin bench_overhead
//! ```
//!
//! Deterministic columns (`routine`, `mode`, `n`, `elements`) are gated
//! by bench-diff; wall-clock columns carry the volatile `cpu_` prefix
//! and are exempt.

use fblas_bench::metrics::{BenchReport, Cell};
use fblas_bench::runners::{Workload, WORKLOADS};
use fblas_metrics::flight::{self, FlightConfig};

const REPS: usize = 5;
const CHUNK: usize = 256;
/// Hard budget: armed may cost at most this fraction over disarmed on
/// the DOT workload.
const BUDGET: f64 = 0.03;
/// Absolute slack floor guarding the gate against sub-millisecond timer
/// quantization; the 3% relative budget dominates on real runs.
const FLOOR_S: f64 = 0.0005;

/// Recorder cadence under test: the `FBLAS_FLIGHT_HZ` default.
const HZ: u32 = 50;
/// Ring window under test: the `FBLAS_FLIGHT_WINDOW` default.
const WINDOW_S: u32 = 10;

/// One subsystem under test.
struct Subsystem {
    /// Report name (`BENCH_<bench>.json`).
    bench: &'static str,
    /// What the table header and budget message call it.
    what: &'static str,
    arm: fn(),
    disarm: fn(),
    /// Keep the metrics runtime armed in both modes, so the delta is the
    /// subsystem alone.
    metrics_in_both: bool,
    /// Report meta beyond the shared chunk/reps/budget entries.
    meta: &'static [(&'static str, u32)],
    /// Evidence that the armed reps really recorded, read before a
    /// measurement round disarms; must end up nonzero.
    recorded: fn() -> u64,
    /// Measurement rounds an apparent DOT budget breach gets before it
    /// counts as real.
    gate_rounds: usize,
}

const SUBSYSTEMS: [Subsystem; 2] = [
    Subsystem {
        bench: "observe",
        what: "telemetry",
        arm: arm_metrics,
        disarm: fblas_metrics::disarm,
        metrics_in_both: false,
        meta: &[],
        recorded: channel_elements_recorded,
        gate_rounds: 1,
    },
    Subsystem {
        bench: "flight",
        what: "flight-recorder",
        arm: arm_flight,
        disarm: flight::disarm,
        metrics_in_both: true,
        meta: &[("hz", HZ), ("window_s", WINDOW_S)],
        recorded: flight_frames_recorded,
        gate_rounds: 3,
    },
];

fn arm_metrics() {
    fblas_metrics::install(fblas_hlssim::env::metrics_shards());
}

fn arm_flight() {
    flight::install(FlightConfig {
        hz: HZ,
        window_s: WINDOW_S,
    });
}

/// Channel elements the registry (which survives disarm) has counted.
fn channel_elements_recorded() -> u64 {
    let reg = fblas_metrics::registry_any().expect("armed reps installed the registry");
    reg.collect()
        .counters
        .iter()
        .filter(|(k, _)| k.name == "fblas_channel_push_elements_total")
        .map(|(_, v)| *v)
        .sum()
}

/// Frames in the armed recorder's ring.
fn flight_frames_recorded() -> u64 {
    flight::recorder().map_or(0, |rec| rec.frames().len() as u64)
}

/// One measurement round's best walls on both sides.
struct Round {
    elements: u64,
    best_off: f64,
    best_on: f64,
    recorded: u64,
}

/// One best-of-[`REPS`] round, modes interleaved within each rep so load
/// drift hits both sides.
fn measure(sub: &Subsystem, w: &Workload) -> Round {
    let mut round = Round {
        elements: 0,
        best_off: f64::INFINITY,
        best_on: f64::INFINITY,
        recorded: 0,
    };
    for _ in 0..REPS {
        (sub.disarm)();
        let off = (w.run)();
        (sub.arm)();
        let on = (w.run)();
        assert_eq!(
            (off.elements, &off.result_bits),
            (on.elements, &on.result_bits),
            "{}: {}-armed run did different work",
            w.name,
            sub.what
        );
        round.elements = off.elements;
        round.best_off = round.best_off.min(off.wall);
        round.best_on = round.best_on.min(on.wall);
    }
    round.recorded = (sub.recorded)();
    (sub.disarm)();
    round
}

fn within_budget(r: &Round) -> bool {
    r.best_on - r.best_off <= (r.best_off * BUDGET).max(FLOOR_S)
}

fn run(sub: &Subsystem) {
    if sub.metrics_in_both {
        arm_metrics();
    }
    let mut report = BenchReport::new(sub.bench);
    fblas_bench::audit::stamp_audit(&mut report, &[]);
    report
        .meta("chunk", CHUNK as u64)
        .meta("reps", REPS as u64)
        .meta("budget_pct", BUDGET * 100.0);
    for &(key, value) in sub.meta {
        report.meta(key, value);
    }

    println!(
        "=== {} overhead (chunk {CHUNK}, best of {REPS}) ===\n",
        sub.what
    );
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "routine", "elements", "off_ms", "on_ms", "overhead"
    );

    let mut recorded = 0;
    for w in &WORKLOADS {
        let mut r = measure(sub, w);
        if w.name == "dot" {
            // Retry apparent breaches: keep the best wall on both sides
            // across rounds so only a systematic gap survives.
            for _ in 1..sub.gate_rounds {
                if within_budget(&r) {
                    break;
                }
                let again = measure(sub, w);
                r.best_off = r.best_off.min(again.best_off);
                r.best_on = r.best_on.min(again.best_on);
                r.recorded = r.recorded.max(again.recorded);
            }
        }
        recorded = recorded.max(r.recorded);
        let overhead = (r.best_on - r.best_off) / r.best_off;
        println!(
            "{:<8} {:>10} {:>12.2} {:>12.2} {:>9.2}%",
            w.name,
            r.elements,
            r.best_off * 1e3,
            r.best_on * 1e3,
            overhead * 100.0
        );
        for (mode, wall) in [("off", r.best_off), ("on", r.best_on)] {
            report.add_row([
                ("routine", Cell::from(w.name)),
                ("mode", Cell::from(mode)),
                ("n", Cell::from(w.n)),
                ("elements", Cell::from(r.elements)),
                ("cpu_wall_ms", Cell::from(wall * 1e3)),
                ("cpu_overhead_pct", Cell::from(overhead * 100.0)),
            ]);
        }
        if w.name == "dot" {
            assert!(
                within_budget(&r),
                "{} budget breached on dot: armed {:.3} ms vs off {:.3} ms \
                 ({:.2}% > {:.0}% budget)",
                sub.what,
                r.best_on * 1e3,
                r.best_off * 1e3,
                overhead * 100.0,
                BUDGET * 100.0
            );
        }
    }
    assert!(recorded > 0, "{}-armed reps recorded nothing", sub.what);
    if sub.metrics_in_both {
        fblas_metrics::disarm();
    }

    let path = report.write().expect("write overhead report");
    println!("\nreport: {}\n", path.display());
}

fn main() {
    std::env::set_var("FBLAS_CHUNK", CHUNK.to_string());
    for sub in &SUBSYSTEMS {
        run(sub);
    }
    std::env::remove_var("FBLAS_CHUNK");
}
