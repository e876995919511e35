//! Unified environment-knob parsing for the simulator.
//!
//! Every runtime knob the simulator honors is read through this module,
//! so the set of recognized variables lives in one place and an invalid
//! value produces a **one-time warning** on stderr instead of a silent
//! fallback to the default (the failure mode that cost the most
//! debugging time: a fractional millisecond knob quietly behaving like
//! its default):
//!
//! The authoritative knob list is [`KNOBS`]; `fblas-env --list` renders
//! it (with current values) and a test asserts the table stays in sync
//! with the reader functions:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `FBLAS_CHUNK` | elements per batched channel transfer | 256 |
//! | `FBLAS_BACKEND` | execution backend: threaded or fused | fused |
//! | `FBLAS_CHAOS_SEED` | seed for chaos fault plans | unset |
//! | `FBLAS_RETRY_MAX` | recovery attempts per component | 3 |
//! | `FBLAS_METRICS` | arm the global telemetry registry | 0 |
//! | `FBLAS_METRICS_SHARDS` | writer shards per metric | 8 |
//! | `FBLAS_FLIGHT` | arm the flight recorder (implies metrics) | 0 |
//! | `FBLAS_FLIGHT_HZ` | flight-recorder sampling cadence, frames/sec | 50 |
//! | `FBLAS_FLIGHT_WINDOW` | flight-recorder ring window, seconds | 10 |
//! | `FBLAS_FLIGHT_DIR` | directory postmortem bundles are written to | unset |
//! | `FBLAS_SERVE_ADDR` | fblas-serve listen address | 127.0.0.1:8377 |
//! | `FBLAS_SERVE_WORKERS` | fblas-serve worker threads | 4 |
//! | `FBLAS_SERVE_QUEUE` | fblas-serve admission queue depth | 64 |
//! | `FBLAS_SERVE_TENANT_QPS` | per-tenant token-bucket refill, req/s | 50 |
//! | `FBLAS_SERVE_BREAKER` | failures per plan shape to open its breaker | 3 |
//! | `FBLAS_SERVE_DRAIN_MS` | graceful-drain timeout, ms | 5000 |
//! | `FBLAS_SERVE_WRITE_MS` | response write timeout before dropping a non-reading client, ms | 2000 |
//!
//! Every knob is re-read on every call, so benchmarks can sweep the
//! chunk size in-process; only the invalid-value *warning* is
//! deduplicated. The parse functions themselves stay pure and are
//! exercised directly by tests.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::chunk::parse_chunk;

/// Default number of recovery attempts per component when
/// `FBLAS_RETRY_MAX` is unset.
pub const DEFAULT_RETRY_MAX: u32 = 3;

/// One documented environment knob: the row `fblas-env --list` renders.
#[derive(Debug, Clone, Copy)]
pub struct KnobSpec {
    /// Environment variable name.
    pub name: &'static str,
    /// One-line meaning.
    pub meaning: &'static str,
    /// Default rendered as the reader falls back to it.
    pub default: &'static str,
    /// When the variable is (re-)read: `"process"` (cached once) or
    /// `"call"` (re-read every call, sweepable in-process).
    pub cadence: &'static str,
}

/// The authoritative table of every `FBLAS_*` knob the workspace
/// honors. A test asserts this stays in sync with the reader functions:
/// reading every knob must touch exactly these variable names.
pub const KNOBS: &[KnobSpec] = &[
    KnobSpec {
        name: "FBLAS_CHUNK",
        meaning: "elements per batched channel transfer",
        default: "256",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_BACKEND",
        meaning: "execution backend: threaded, or fused (fuse when legal)",
        default: "fused",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_CHAOS_SEED",
        meaning: "seed for deterministic chaos fault plans",
        default: "unset (no fault plan)",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_RETRY_MAX",
        meaning: "recovery attempts per component",
        default: "3",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_METRICS",
        meaning: "arm the global telemetry registry (1/true/on)",
        default: "0 (disarmed)",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_METRICS_SHARDS",
        meaning: "writer shards per metric (rounded up to a power of 2)",
        default: "8",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_FLIGHT",
        meaning: "arm the flight recorder (1/true/on; implies FBLAS_METRICS)",
        default: "0 (disarmed)",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_FLIGHT_HZ",
        meaning: "flight-recorder sampling cadence, frames/sec (1..=1000)",
        default: "50",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_FLIGHT_WINDOW",
        meaning: "flight-recorder ring window, seconds",
        default: "10",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_FLIGHT_DIR",
        meaning: "directory postmortem bundles are written to",
        default: "unset (bundles stay in-memory)",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_SERVE_ADDR",
        meaning: "fblas-serve listen address (host:port)",
        default: "127.0.0.1:8377",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_SERVE_WORKERS",
        meaning: "fblas-serve execution worker threads",
        default: "4",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_SERVE_QUEUE",
        meaning: "fblas-serve admission queue depth before shedding",
        default: "64",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_SERVE_TENANT_QPS",
        meaning: "fblas-serve per-tenant token-bucket refill, requests/sec",
        default: "50",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_SERVE_BREAKER",
        meaning: "fblas-serve consecutive plan-shape failures that open the breaker",
        default: "3",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_SERVE_DRAIN_MS",
        meaning: "fblas-serve graceful-drain timeout for in-flight requests, ms",
        default: "5000",
        cadence: "call",
    },
    KnobSpec {
        name: "FBLAS_SERVE_WRITE_MS",
        meaning: "fblas-serve response write timeout before a non-reading client is dropped, ms",
        default: "2000",
        cadence: "call",
    },
];

/// Variable names observed by [`read_knob`] this process — the ground
/// truth the table-sync test compares [`KNOBS`] against.
fn touched() -> &'static Mutex<HashSet<&'static str>> {
    static TOUCHED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    TOUCHED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Snapshot of every knob name read through this module so far.
pub fn touched_knobs() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = touched()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .copied()
        .collect();
    v.sort_unstable();
    v
}

/// Knobs that already warned once this process; keyed by variable name
/// so each misconfigured knob complains exactly once however often it
/// is read.
fn warned() -> &'static Mutex<HashSet<&'static str>> {
    static WARNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Emit a one-time warning that `var`'s current value is invalid.
fn warn_invalid(var: &'static str, raw: &str, fallback: &str) {
    let mut set = warned().lock().unwrap_or_else(|e| e.into_inner());
    if set.insert(var) {
        eprintln!("fblas: warning: ignoring invalid {var}={raw:?}; using {fallback}");
    }
}

/// Read `var` and parse it with `parse`; `valid` decides (on the raw
/// string) whether the value would survive parsing, so an invalid
/// setting triggers the one-time warning.
fn read_knob<T>(
    var: &'static str,
    fallback_desc: &str,
    parse: impl FnOnce(Option<&str>) -> T,
    valid: impl FnOnce(&str) -> bool,
) -> T {
    touched()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(var);
    let raw = std::env::var(var).ok();
    if let Some(raw) = raw.as_deref() {
        if !valid(raw) {
            warn_invalid(var, raw, fallback_desc);
        }
    }
    parse(raw.as_deref())
}

fn parses_positive_u64(raw: &str) -> bool {
    raw.trim().parse::<u64>().map(|v| v > 0).unwrap_or(false)
}

/// The batched-transfer chunk size: `FBLAS_CHUNK` if valid, else
/// [`crate::DEFAULT_CHUNK`]. Re-read from the environment on **every call**
/// (benchmarks sweep chunk sizes within one process); only the
/// invalid-value warning is one-time.
pub fn chunk() -> usize {
    read_knob("FBLAS_CHUNK", "256", parse_chunk, |raw| {
        raw.trim().parse::<usize>().map(|v| v >= 1).unwrap_or(false)
    })
}

/// The execution backend selector: `FBLAS_BACKEND` as `"threaded"` or
/// `"fused"` (the default — fuse legally fusable regions, keep
/// everything else threaded). Re-read on every call so benchmarks can
/// sweep backends in-process. The simulator itself only reports this
/// knob; `fblas-core`'s plan executor interprets it.
pub fn backend() -> &'static str {
    read_knob(
        "FBLAS_BACKEND",
        "fused",
        |raw| match raw.map(str::trim) {
            Some("threaded") => "threaded",
            _ => "fused",
        },
        |raw| matches!(raw.trim(), "threaded" | "fused" | ""),
    )
}

/// The chaos seed: `FBLAS_CHAOS_SEED` as a u64, `None` when unset or
/// invalid. Re-read on every call so harnesses can run several seeded
/// sweeps in one process.
pub fn chaos_seed() -> Option<u64> {
    read_knob(
        "FBLAS_CHAOS_SEED",
        "no fault plan",
        |raw| raw.and_then(|v| v.trim().parse::<u64>().ok()),
        |raw| raw.trim().parse::<u64>().is_ok(),
    )
}

/// Maximum recovery attempts per component: `FBLAS_RETRY_MAX` if a
/// positive integer, else [`DEFAULT_RETRY_MAX`]. Re-read on every call.
pub fn retry_max() -> u32 {
    read_knob(
        "FBLAS_RETRY_MAX",
        "3 attempts",
        |raw| {
            raw.and_then(|v| v.trim().parse::<u32>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or(DEFAULT_RETRY_MAX)
        },
        |raw| raw.trim().parse::<u32>().map(|v| v >= 1).unwrap_or(false),
    )
}

/// Whether `FBLAS_METRICS` asks for the telemetry registry to be armed:
/// `1`, `true`, or `on` (trimmed). Re-read on every call.
pub fn metrics_enabled() -> bool {
    read_knob(
        "FBLAS_METRICS",
        "disarmed",
        |raw| matches!(raw.map(str::trim), Some("1") | Some("true") | Some("on")),
        |raw| matches!(raw.trim(), "0" | "1" | "true" | "false" | "on" | "off" | ""),
    )
}

/// Writer shards per metric: `FBLAS_METRICS_SHARDS` if a positive
/// integer, else [`fblas_metrics::DEFAULT_SHARDS`]. Re-read every call.
pub fn metrics_shards() -> usize {
    read_knob(
        "FBLAS_METRICS_SHARDS",
        "8",
        |raw| {
            raw.and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or(fblas_metrics::DEFAULT_SHARDS)
        },
        |raw| raw.trim().parse::<usize>().map(|v| v >= 1).unwrap_or(false),
    )
}

/// Whether `FBLAS_FLIGHT` asks for the flight recorder to be armed:
/// `1`, `true`, or `on` (trimmed). Re-read on every call.
pub fn flight_enabled() -> bool {
    read_knob(
        "FBLAS_FLIGHT",
        "disarmed",
        |raw| matches!(raw.map(str::trim), Some("1") | Some("true") | Some("on")),
        |raw| matches!(raw.trim(), "0" | "1" | "true" | "false" | "on" | "off" | ""),
    )
}

/// Flight-recorder sampling cadence in frames/sec: `FBLAS_FLIGHT_HZ`
/// if a positive integer (clamped to 1000), else
/// [`fblas_metrics::flight::DEFAULT_FLIGHT_HZ`]. Re-read every call.
pub fn flight_hz() -> u32 {
    read_knob(
        "FBLAS_FLIGHT_HZ",
        "50",
        |raw| {
            raw.and_then(|v| v.trim().parse::<u32>().ok())
                .filter(|n| *n >= 1)
                .map(|n| n.min(1000))
                .unwrap_or(fblas_metrics::flight::DEFAULT_FLIGHT_HZ)
        },
        |raw| raw.trim().parse::<u32>().map(|v| v >= 1).unwrap_or(false),
    )
}

/// Flight-recorder ring window in seconds: `FBLAS_FLIGHT_WINDOW` if a
/// positive integer, else
/// [`fblas_metrics::flight::DEFAULT_FLIGHT_WINDOW_S`]. Re-read every call.
pub fn flight_window_s() -> u32 {
    read_knob(
        "FBLAS_FLIGHT_WINDOW",
        "10",
        |raw| {
            raw.and_then(|v| v.trim().parse::<u32>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or(fblas_metrics::flight::DEFAULT_FLIGHT_WINDOW_S)
        },
        |raw| raw.trim().parse::<u32>().map(|v| v >= 1).unwrap_or(false),
    )
}

/// Directory postmortem bundles are written to: `FBLAS_FLIGHT_DIR` when
/// set and non-empty, else `None` (bundles stay in-memory, reachable
/// via `fblas_metrics::flight::last_bundle`). Re-read every call.
pub fn flight_dir() -> Option<std::path::PathBuf> {
    read_knob(
        "FBLAS_FLIGHT_DIR",
        "in-memory only",
        |raw| {
            raw.map(str::trim)
                .filter(|v| !v.is_empty())
                .map(std::path::PathBuf::from)
        },
        |raw| !raw.trim().is_empty(),
    )
}

/// Default fblas-serve listen address.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:8377";
/// Default fblas-serve worker-thread count.
pub const DEFAULT_SERVE_WORKERS: usize = 4;
/// Default fblas-serve admission queue depth.
pub const DEFAULT_SERVE_QUEUE: usize = 64;
/// Default fblas-serve per-tenant token-bucket refill rate (requests/sec).
pub const DEFAULT_SERVE_TENANT_QPS: u32 = 50;
/// Default consecutive-failure threshold that opens a plan-shape breaker.
pub const DEFAULT_SERVE_BREAKER: u32 = 3;
/// Default graceful-drain timeout, ms.
pub const DEFAULT_SERVE_DRAIN_MS: u64 = 5000;
/// Default response write timeout before a non-reading client is
/// dropped, ms.
pub const DEFAULT_SERVE_WRITE_MS: u64 = 2000;

/// fblas-serve listen address: `FBLAS_SERVE_ADDR` when set and shaped
/// like `host:port`, else [`DEFAULT_SERVE_ADDR`]. Re-read every call.
pub fn serve_addr() -> String {
    fn valid(raw: &str) -> bool {
        let t = raw.trim();
        matches!(t.rsplit_once(':'), Some((host, port))
            if !host.is_empty() && port.parse::<u16>().is_ok())
    }
    read_knob(
        "FBLAS_SERVE_ADDR",
        DEFAULT_SERVE_ADDR,
        |raw| {
            raw.map(str::trim)
                .filter(|v| valid(v))
                .unwrap_or(DEFAULT_SERVE_ADDR)
                .to_string()
        },
        valid,
    )
}

/// fblas-serve worker threads: `FBLAS_SERVE_WORKERS` if a positive
/// integer (clamped to 256), else [`DEFAULT_SERVE_WORKERS`]. Re-read
/// every call so benches can sweep worker counts in-process.
pub fn serve_workers() -> usize {
    read_knob(
        "FBLAS_SERVE_WORKERS",
        "4",
        |raw| {
            raw.and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|n| *n >= 1)
                .map(|n| n.min(256))
                .unwrap_or(DEFAULT_SERVE_WORKERS)
        },
        |raw| raw.trim().parse::<usize>().map(|v| v >= 1).unwrap_or(false),
    )
}

/// fblas-serve admission queue depth: `FBLAS_SERVE_QUEUE` if a positive
/// integer, else [`DEFAULT_SERVE_QUEUE`]. A full queue sheds with a
/// structured over-capacity response. Re-read every call.
pub fn serve_queue() -> usize {
    read_knob(
        "FBLAS_SERVE_QUEUE",
        "64",
        |raw| {
            raw.and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or(DEFAULT_SERVE_QUEUE)
        },
        |raw| raw.trim().parse::<usize>().map(|v| v >= 1).unwrap_or(false),
    )
}

/// Per-tenant token-bucket refill rate in requests/sec:
/// `FBLAS_SERVE_TENANT_QPS` if a positive integer, else
/// [`DEFAULT_SERVE_TENANT_QPS`]. Re-read every call.
pub fn serve_tenant_qps() -> u32 {
    read_knob(
        "FBLAS_SERVE_TENANT_QPS",
        "50",
        |raw| {
            raw.and_then(|v| v.trim().parse::<u32>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or(DEFAULT_SERVE_TENANT_QPS)
        },
        |raw| raw.trim().parse::<u32>().map(|v| v >= 1).unwrap_or(false),
    )
}

/// Consecutive failures of one plan shape that open its circuit
/// breaker: `FBLAS_SERVE_BREAKER` if a positive integer, else
/// [`DEFAULT_SERVE_BREAKER`]. Re-read every call.
pub fn serve_breaker() -> u32 {
    read_knob(
        "FBLAS_SERVE_BREAKER",
        "3",
        |raw| {
            raw.and_then(|v| v.trim().parse::<u32>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or(DEFAULT_SERVE_BREAKER)
        },
        |raw| raw.trim().parse::<u32>().map(|v| v >= 1).unwrap_or(false),
    )
}

/// Graceful-drain timeout for in-flight requests:
/// `FBLAS_SERVE_DRAIN_MS` if a positive integer of milliseconds, else
/// [`DEFAULT_SERVE_DRAIN_MS`]. Re-read every call.
pub fn serve_drain() -> Duration {
    read_knob(
        "FBLAS_SERVE_DRAIN_MS",
        "5000 ms",
        |raw| {
            Duration::from_millis(
                raw.and_then(|v| v.trim().parse::<u64>().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or(DEFAULT_SERVE_DRAIN_MS),
            )
        },
        parses_positive_u64,
    )
}

/// Response write timeout before fblas-serve drops a client that has
/// stopped reading: `FBLAS_SERVE_WRITE_MS` if a positive integer of
/// milliseconds, else [`DEFAULT_SERVE_WRITE_MS`]. Re-read every call.
pub fn serve_write_timeout() -> Duration {
    read_knob(
        "FBLAS_SERVE_WRITE_MS",
        "2000 ms",
        |raw| {
            Duration::from_millis(
                raw.and_then(|v| v.trim().parse::<u64>().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or(DEFAULT_SERVE_WRITE_MS),
            )
        },
        parses_positive_u64,
    )
}

/// Arm the global telemetry registry if `FBLAS_METRICS` asks for it,
/// with `FBLAS_METRICS_SHARDS` writer shards. Returns whether the
/// registry ended up armed. Call this once at program start (bins) or
/// before building a simulation whose channels should be instrumented
/// — channels resolve their metric handles at creation time.
pub fn arm_metrics() -> bool {
    if metrics_enabled() {
        fblas_metrics::install(metrics_shards());
    }
    fblas_metrics::armed()
}

/// Arm the flight recorder if `FBLAS_FLIGHT` asks for it, sampling at
/// `FBLAS_FLIGHT_HZ` over a `FBLAS_FLIGHT_WINDOW`-second ring. The
/// recorder samples the metrics registry, so arming it arms the
/// registry too (`FBLAS_METRICS_SHARDS` still sets the shard count).
/// Returns whether the recorder ended up armed.
pub fn arm_flight() -> bool {
    if flight_enabled() {
        fblas_metrics::install(metrics_shards());
        fblas_metrics::flight::install(fblas_metrics::flight::FlightConfig {
            hz: flight_hz(),
            window_s: flight_window_s(),
        });
    }
    fblas_metrics::flight::armed()
}

/// Every documented knob with its **resolved** value — what the process
/// would actually use right now, defaults applied — rendered as strings
/// in [`KNOBS`] table order. Postmortem bundles embed this so a crash
/// document records the configuration that produced it.
pub fn resolved_knobs() -> Vec<(String, String)> {
    KNOBS
        .iter()
        .map(|k| {
            let v = match k.name {
                "FBLAS_CHUNK" => chunk().to_string(),
                "FBLAS_BACKEND" => backend().to_string(),
                "FBLAS_CHAOS_SEED" => chaos_seed()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "unset".to_string()),
                "FBLAS_RETRY_MAX" => retry_max().to_string(),
                "FBLAS_METRICS" => u8::from(metrics_enabled()).to_string(),
                "FBLAS_METRICS_SHARDS" => metrics_shards().to_string(),
                "FBLAS_FLIGHT" => u8::from(flight_enabled()).to_string(),
                "FBLAS_FLIGHT_HZ" => flight_hz().to_string(),
                "FBLAS_FLIGHT_WINDOW" => flight_window_s().to_string(),
                "FBLAS_FLIGHT_DIR" => flight_dir()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "unset".to_string()),
                "FBLAS_SERVE_ADDR" => serve_addr(),
                "FBLAS_SERVE_WORKERS" => serve_workers().to_string(),
                "FBLAS_SERVE_QUEUE" => serve_queue().to_string(),
                "FBLAS_SERVE_TENANT_QPS" => serve_tenant_qps().to_string(),
                "FBLAS_SERVE_BREAKER" => serve_breaker().to_string(),
                "FBLAS_SERVE_DRAIN_MS" => serve_drain().as_millis().to_string(),
                "FBLAS_SERVE_WRITE_MS" => serve_write_timeout().as_millis().to_string(),
                other => unreachable!("KNOBS row {other} missing from resolved_knobs"),
            };
            (k.name.to_string(), v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Environment-variable tests mutate process-global state, so each
    // knob test uses its own variable and restores it.

    #[test]
    fn retry_max_parses_and_rejects_garbage() {
        std::env::remove_var("FBLAS_RETRY_MAX");
        assert_eq!(retry_max(), DEFAULT_RETRY_MAX);
        std::env::set_var("FBLAS_RETRY_MAX", "7");
        assert_eq!(retry_max(), 7);
        std::env::set_var("FBLAS_RETRY_MAX", "0");
        assert_eq!(retry_max(), DEFAULT_RETRY_MAX);
        std::env::set_var("FBLAS_RETRY_MAX", "many");
        assert_eq!(retry_max(), DEFAULT_RETRY_MAX);
        std::env::remove_var("FBLAS_RETRY_MAX");
    }

    #[test]
    fn chaos_seed_is_optional() {
        std::env::remove_var("FBLAS_CHAOS_SEED");
        assert_eq!(chaos_seed(), None);
        std::env::set_var("FBLAS_CHAOS_SEED", "12345");
        assert_eq!(chaos_seed(), Some(12345));
        std::env::set_var("FBLAS_CHAOS_SEED", "xyz");
        assert_eq!(chaos_seed(), None);
        std::env::remove_var("FBLAS_CHAOS_SEED");
    }

    #[test]
    fn backend_parses_and_rejects_garbage() {
        std::env::remove_var("FBLAS_BACKEND");
        assert_eq!(backend(), "fused");
        std::env::set_var("FBLAS_BACKEND", "threaded");
        assert_eq!(backend(), "threaded");
        std::env::set_var("FBLAS_BACKEND", "fused");
        assert_eq!(backend(), "fused");
        // `auto` is no longer a value: it warns and falls back like any
        // other invalid one.
        std::env::set_var("FBLAS_BACKEND", "auto");
        assert_eq!(backend(), "fused");
        std::env::set_var("FBLAS_BACKEND", "quantum");
        assert_eq!(backend(), "fused");
        std::env::remove_var("FBLAS_BACKEND");
    }

    #[test]
    fn warnings_fire_once_per_knob() {
        warn_invalid("FBLAS_TEST_KNOB", "bad", "default");
        warn_invalid("FBLAS_TEST_KNOB", "bad", "default");
        assert!(warned().lock().unwrap().contains("FBLAS_TEST_KNOB"));
    }

    #[test]
    fn metrics_shards_parses_and_rejects_garbage() {
        std::env::remove_var("FBLAS_METRICS_SHARDS");
        assert_eq!(metrics_shards(), fblas_metrics::DEFAULT_SHARDS);
        std::env::set_var("FBLAS_METRICS_SHARDS", "4");
        assert_eq!(metrics_shards(), 4);
        std::env::set_var("FBLAS_METRICS_SHARDS", "0");
        assert_eq!(metrics_shards(), fblas_metrics::DEFAULT_SHARDS);
        std::env::set_var("FBLAS_METRICS_SHARDS", "lots");
        assert_eq!(metrics_shards(), fblas_metrics::DEFAULT_SHARDS);
        std::env::remove_var("FBLAS_METRICS_SHARDS");
    }

    #[test]
    fn flight_hz_parses_clamps_and_rejects_garbage() {
        std::env::remove_var("FBLAS_FLIGHT_HZ");
        assert_eq!(flight_hz(), fblas_metrics::flight::DEFAULT_FLIGHT_HZ);
        std::env::set_var("FBLAS_FLIGHT_HZ", "200");
        assert_eq!(flight_hz(), 200);
        std::env::set_var("FBLAS_FLIGHT_HZ", "9999");
        assert_eq!(flight_hz(), 1000, "cadence is clamped to 1 kHz");
        std::env::set_var("FBLAS_FLIGHT_HZ", "0");
        assert_eq!(flight_hz(), fblas_metrics::flight::DEFAULT_FLIGHT_HZ);
        std::env::set_var("FBLAS_FLIGHT_HZ", "fast");
        assert_eq!(flight_hz(), fblas_metrics::flight::DEFAULT_FLIGHT_HZ);
        std::env::remove_var("FBLAS_FLIGHT_HZ");
    }

    #[test]
    fn flight_window_and_dir_parse() {
        std::env::remove_var("FBLAS_FLIGHT_WINDOW");
        assert_eq!(
            flight_window_s(),
            fblas_metrics::flight::DEFAULT_FLIGHT_WINDOW_S
        );
        std::env::set_var("FBLAS_FLIGHT_WINDOW", "3");
        assert_eq!(flight_window_s(), 3);
        std::env::remove_var("FBLAS_FLIGHT_WINDOW");

        std::env::remove_var("FBLAS_FLIGHT_DIR");
        assert_eq!(flight_dir(), None);
        std::env::set_var("FBLAS_FLIGHT_DIR", "/tmp/flight");
        assert_eq!(flight_dir(), Some(std::path::PathBuf::from("/tmp/flight")));
        std::env::set_var("FBLAS_FLIGHT_DIR", "  ");
        assert_eq!(flight_dir(), None, "blank value means unset");
        std::env::remove_var("FBLAS_FLIGHT_DIR");
    }

    #[test]
    fn serve_knobs_parse_and_reject_garbage() {
        std::env::remove_var("FBLAS_SERVE_ADDR");
        assert_eq!(serve_addr(), DEFAULT_SERVE_ADDR);
        std::env::set_var("FBLAS_SERVE_ADDR", "0.0.0.0:9000");
        assert_eq!(serve_addr(), "0.0.0.0:9000");
        std::env::set_var("FBLAS_SERVE_ADDR", "no-port-here");
        assert_eq!(serve_addr(), DEFAULT_SERVE_ADDR);
        std::env::set_var("FBLAS_SERVE_ADDR", "host:99999");
        assert_eq!(serve_addr(), DEFAULT_SERVE_ADDR, "port must fit u16");
        std::env::remove_var("FBLAS_SERVE_ADDR");

        std::env::remove_var("FBLAS_SERVE_WORKERS");
        assert_eq!(serve_workers(), DEFAULT_SERVE_WORKERS);
        std::env::set_var("FBLAS_SERVE_WORKERS", "8");
        assert_eq!(serve_workers(), 8);
        std::env::set_var("FBLAS_SERVE_WORKERS", "0");
        assert_eq!(serve_workers(), DEFAULT_SERVE_WORKERS);
        std::env::set_var("FBLAS_SERVE_WORKERS", "100000");
        assert_eq!(serve_workers(), 256, "worker count is clamped");
        std::env::remove_var("FBLAS_SERVE_WORKERS");

        std::env::remove_var("FBLAS_SERVE_QUEUE");
        assert_eq!(serve_queue(), DEFAULT_SERVE_QUEUE);
        std::env::set_var("FBLAS_SERVE_QUEUE", "2");
        assert_eq!(serve_queue(), 2);
        std::env::set_var("FBLAS_SERVE_QUEUE", "none");
        assert_eq!(serve_queue(), DEFAULT_SERVE_QUEUE);
        std::env::remove_var("FBLAS_SERVE_QUEUE");

        std::env::remove_var("FBLAS_SERVE_TENANT_QPS");
        assert_eq!(serve_tenant_qps(), DEFAULT_SERVE_TENANT_QPS);
        std::env::set_var("FBLAS_SERVE_TENANT_QPS", "5");
        assert_eq!(serve_tenant_qps(), 5);
        std::env::set_var("FBLAS_SERVE_TENANT_QPS", "0");
        assert_eq!(serve_tenant_qps(), DEFAULT_SERVE_TENANT_QPS);
        std::env::remove_var("FBLAS_SERVE_TENANT_QPS");

        std::env::remove_var("FBLAS_SERVE_BREAKER");
        assert_eq!(serve_breaker(), DEFAULT_SERVE_BREAKER);
        std::env::set_var("FBLAS_SERVE_BREAKER", "2");
        assert_eq!(serve_breaker(), 2);
        std::env::set_var("FBLAS_SERVE_BREAKER", "-1");
        assert_eq!(serve_breaker(), DEFAULT_SERVE_BREAKER);
        std::env::remove_var("FBLAS_SERVE_BREAKER");

        std::env::remove_var("FBLAS_SERVE_DRAIN_MS");
        assert_eq!(serve_drain(), Duration::from_millis(DEFAULT_SERVE_DRAIN_MS));
        std::env::set_var("FBLAS_SERVE_DRAIN_MS", "250");
        assert_eq!(serve_drain(), Duration::from_millis(250));
        std::env::set_var("FBLAS_SERVE_DRAIN_MS", "forever");
        assert_eq!(serve_drain(), Duration::from_millis(DEFAULT_SERVE_DRAIN_MS));
        std::env::remove_var("FBLAS_SERVE_DRAIN_MS");

        std::env::remove_var("FBLAS_SERVE_WRITE_MS");
        assert_eq!(
            serve_write_timeout(),
            Duration::from_millis(DEFAULT_SERVE_WRITE_MS)
        );
        std::env::set_var("FBLAS_SERVE_WRITE_MS", "500");
        assert_eq!(serve_write_timeout(), Duration::from_millis(500));
        std::env::set_var("FBLAS_SERVE_WRITE_MS", "0");
        assert_eq!(
            serve_write_timeout(),
            Duration::from_millis(DEFAULT_SERVE_WRITE_MS),
            "zero would disable the timeout entirely"
        );
        std::env::remove_var("FBLAS_SERVE_WRITE_MS");
    }

    #[test]
    fn resolved_knobs_covers_every_documented_knob() {
        // `resolved_knobs` matches on knob names; a KNOBS row it does
        // not know would hit the unreachable arm and fail here.
        let rows = resolved_knobs();
        assert_eq!(rows.len(), KNOBS.len());
        for ((name, value), spec) in rows.iter().zip(KNOBS) {
            assert_eq!(name, spec.name);
            assert!(!value.is_empty(), "{name} resolved to an empty string");
        }
    }

    #[test]
    fn knob_table_stays_in_sync_with_readers() {
        // Read every knob through its reader function, then require the
        // set of variables actually consulted to be exactly the
        // documented table. A knob added to the code without a KNOBS row
        // (or vice versa) fails here.
        let _ = chunk();
        let _ = backend();
        let _ = chaos_seed();
        let _ = retry_max();
        let _ = metrics_enabled();
        let _ = metrics_shards();
        let _ = flight_enabled();
        let _ = flight_hz();
        let _ = flight_window_s();
        let _ = flight_dir();
        let _ = serve_addr();
        let _ = serve_workers();
        let _ = serve_queue();
        let _ = serve_tenant_qps();
        let _ = serve_breaker();
        let _ = serve_drain();
        let _ = serve_write_timeout();
        let mut documented: Vec<&'static str> = KNOBS.iter().map(|k| k.name).collect();
        documented.sort_unstable();
        assert_eq!(touched_knobs(), documented);
        // Table rows are well-formed for rendering.
        for k in KNOBS {
            assert!(k.name.starts_with("FBLAS_"), "{}", k.name);
            assert!(!k.meaning.is_empty() && !k.default.is_empty());
            assert!(matches!(k.cadence, "process" | "call"), "{}", k.cadence);
        }
    }
}
