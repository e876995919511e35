//! fblas-metrics: the always-on telemetry runtime.
//!
//! Everything the future serving layer scrapes mid-flight lives here:
//!
//! - **Sharded lock-free counters/gauges** ([`mod@registry`]) — per-thread
//!   shards of relaxed atomics aggregated on read, registered by
//!   name + labels. Threaded through hlssim channels, the composition
//!   executor, and the chaos fault hooks.
//! - **Log-linear latency histograms** ([`hist`]) — HDR-style buckets
//!   with exact min/max and mergeable shards, recording per-routine and
//!   per-plan wall latency plus per-channel wait times in microseconds.
//! - **Request-scoped spans** ([`span`]) — a [`RunScope`] carries a
//!   [`RunId`] through lint → plan → execute → recovery so metric
//!   samples, trace events, and RecoveryReports correlate to one
//!   logical request.
//! - **Exposition** ([`expo`]) — Prometheus text format and a
//!   byte-stable JSON snapshot, both rendered from one aggregate.
//! - **Flight recorder** ([`flight`]) — a bounded ring of sampled
//!   counter/gauge frames, a rule-based anomaly detector, and the
//!   postmortem bundle captured when a run dies.
//!
//! # Arming
//!
//! The runtime is **disarmed by default**: every instrumentation site
//! first checks [`armed`], a single relaxed atomic load, so the
//! disarmed cost is one predictable branch. [`install`] arms the global
//! registry explicitly; [`arm_from_env`] arms it when `FBLAS_METRICS=1`
//! (shard count from `FBLAS_METRICS_SHARDS`). `bench_observe` measures
//! the armed-vs-disarmed gap and holds it under 3%.

pub mod expo;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Collected, Counter, Gauge, Hist, Key, Registry, DEFAULT_SHARDS};
pub use span::{current_run_id, RunId, RunScope};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static ARMED: AtomicBool = AtomicBool::new(false);

fn global() -> &'static OnceLock<Arc<Registry>> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    &GLOBAL
}

/// Whether the global registry is armed. One relaxed load — the fast
/// path every instrumentation site pays when telemetry is off.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm the global registry with `shards` writer shards. The first call
/// wins the registry identity; later calls just re-arm it. Returns the
/// installed registry.
pub fn install(shards: usize) -> Arc<Registry> {
    let reg = global()
        .get_or_init(|| Arc::new(Registry::new(shards)))
        .clone();
    ARMED.store(true, Ordering::Release);
    reg
}

/// Disarm the global registry: instrumentation sites go back to the
/// one-branch no-op. The registry and its accumulated values survive,
/// so `bench_observe` can flip arming per rep without re-registering.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// The global registry when armed, else `None`. Instrumentation sites
/// call this after [`armed`] returns true.
#[inline]
pub fn registry() -> Option<Arc<Registry>> {
    if !armed() {
        return None;
    }
    global().get().cloned()
}

/// The global registry regardless of arming (for exposition tools that
/// want to read after a run disarms). `None` if never installed.
pub fn registry_any() -> Option<Arc<Registry>> {
    global().get().cloned()
}

/// Arm from the environment: `FBLAS_METRICS=1` (or `true`/`on`) arms
/// with `FBLAS_METRICS_SHARDS` shards (default [`DEFAULT_SHARDS`]).
/// Returns whether the registry ended up armed.
pub fn arm_from_env() -> bool {
    let on = std::env::var("FBLAS_METRICS")
        .map(|v| matches!(v.trim(), "1" | "true" | "on"))
        .unwrap_or(false);
    if on {
        let shards = std::env::var("FBLAS_METRICS_SHARDS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|n| *n >= 1)
            .unwrap_or(DEFAULT_SHARDS);
        install(shards);
    }
    armed()
}

/// Elapsed-microseconds helper: returns µs since `start`, saturating
/// into u64 — the unit every fblas histogram records.
#[inline]
pub fn elapsed_us(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_flips_fast_path_and_keeps_registry() {
        // Global state: run the whole lifecycle in one test.
        assert!(registry().is_none() || armed());
        let reg = install(2);
        assert!(armed());
        reg.counter("lifecycle_total", &[]).add(3);
        disarm();
        assert!(!armed());
        assert!(registry().is_none());
        // Values survive disarm and are visible via registry_any.
        let again = registry_any().unwrap();
        assert_eq!(again.counter("lifecycle_total", &[]).value(), 3);
        install(2);
        assert!(registry().is_some());
        disarm();
    }
}
