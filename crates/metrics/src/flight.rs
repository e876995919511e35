//! Flight recorder: a bounded ring of metrics time-series frames, a
//! rule-based anomaly detector over it, and the postmortem bundle that
//! is assembled when a run dies.
//!
//! The live registry ([`crate::registry()`]) only answers "what are the
//! totals *now*" — by the time a stall, deadline, or exhausted retry
//! budget surfaces, the trajectory that caused it (occupancy collapse,
//! retry storm, throughput cliff) is gone. The flight recorder closes
//! that gap the way a black box does: the simulator watchdog calls
//! [`FlightRecorder::tick`] on its poll loop, the recorder samples the
//! registry's counters and gauges on a configurable cadence into a
//! bounded delta-ring, and on any terminal failure the failure site
//! captures a [`PostmortemBundle`] carrying the last-window frames, the
//! anomalies [`detect`] found in them, and the forensic attachments
//! (stall report, guard reports, recovery report) the caller has.
//!
//! # Determinism
//!
//! The bundle's JSON document (schema [`BUNDLE_SCHEMA`]) is rendered
//! byte-stably, and every wall-clock-dependent field — the frames, the
//! anomalies detected over them, the final metrics snapshot — is
//! isolated under the single `"wall"` key. [`PostmortemBundle::deterministic_json`]
//! renders the document with that key nulled, so two seeded chaos runs
//! serialize to byte-identical deterministic documents (ci.sh compares
//! them) while the full document keeps the forensics.
//!
//! Like the rest of the runtime the recorder is disarmed by default;
//! [`recorder`] costs one relaxed load when off. Arming is wired to the
//! `FBLAS_FLIGHT*` knobs by `fblas_hlssim::env::arm_flight`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use serde::Value;

use crate::registry::{Key, Registry};

/// Schema identifier stamped on every postmortem bundle.
pub const BUNDLE_SCHEMA: &str = "fblas-flight-bundle-v1";

/// Default sampling cadence when `FBLAS_FLIGHT_HZ` is unset.
pub const DEFAULT_FLIGHT_HZ: u32 = 50;
/// Default ring window (seconds) when `FBLAS_FLIGHT_WINDOW` is unset.
pub const DEFAULT_FLIGHT_WINDOW_S: u32 = 10;

/// Occupancy must sit at capacity for at least this many consecutive
/// frames *ending at the failure* before [`AnomalyKind::OccupancyPinned`] fires.
pub const PIN_MIN_FRAMES: usize = 2;
/// Minimum full-wait events across the window before
/// [`AnomalyKind::FullWaitSustained`] can fire.
pub const FULL_WAIT_MIN_EVENTS: u64 = 4;
/// Fraction of sampled frame pairs that must show new full-waits for the
/// ratio to count as "sustained".
pub const FULL_WAIT_MIN_FRACTION: f64 = 0.75;
/// Retry-counter delta across the window that counts as a spike.
pub const RETRY_SPIKE_MIN: u64 = 2;
/// Peak per-frame element throughput below which
/// [`AnomalyKind::ThroughputCollapse`] never fires (too little flow to
/// call anything a collapse).
pub const COLLAPSE_MIN_PEAK: u64 = 256;
/// Trailing frame pairs that must sit under the collapse floor.
pub const COLLAPSE_TAIL_PAIRS: usize = 3;
/// Collapse floor as a fraction of the window's peak throughput.
pub const COLLAPSE_FRACTION: f64 = 0.1;

/// Sampling configuration for the recorder ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Frames per second the ring samples at (clamped to 1..=1000).
    pub hz: u32,
    /// Seconds of history the ring retains.
    pub window_s: u32,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            hz: DEFAULT_FLIGHT_HZ,
            window_s: DEFAULT_FLIGHT_WINDOW_S,
        }
    }
}

/// One sampled frame: registry counter totals and gauge values at
/// `t_us` microseconds after the recorder was installed. Histograms are
/// deliberately not sampled per-frame (their 976-slot snapshots are the
/// expensive part of a collection); the final postmortem snapshot
/// carries them once.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Microseconds since the recorder's origin.
    pub t_us: u64,
    /// Counter totals, sorted by key.
    pub counters: Vec<(Key, u64)>,
    /// Gauge values, sorted by key.
    pub gauges: Vec<(Key, f64)>,
}

/// The rule a detected anomaly came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// A channel's occupancy sat at capacity through the frames leading
    /// into the failure — the backpressure signature of a deadlocked or
    /// under-depth FIFO.
    OccupancyPinned,
    /// A sustained fraction of frames showed new full-capacity waits on
    /// one channel — producer-side thrashing.
    FullWaitSustained,
    /// The executor retry counter jumped within the window — a recovery
    /// storm preceding budget exhaustion.
    RetrySpike,
    /// Aggregate element throughput fell off a cliff relative to the
    /// window's peak and stayed down.
    ThroughputCollapse,
}

impl AnomalyKind {
    /// Stable snake_case label used in the bundle JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AnomalyKind::OccupancyPinned => "occupancy_pinned",
            AnomalyKind::FullWaitSustained => "full_wait_sustained",
            AnomalyKind::RetrySpike => "retry_spike",
            AnomalyKind::ThroughputCollapse => "throughput_collapse",
        }
    }
}

/// One detected anomaly: which rule fired, on what, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// The rule that fired.
    pub kind: AnomalyKind,
    /// Culprit channel name, or `"executor"`/`"pipeline"` for the
    /// non-channel rules.
    pub culprit: String,
    /// Onset: `t_us` of the first frame exhibiting the anomaly.
    pub onset_us: u64,
    /// Number of frames (or frame pairs) the anomaly spans.
    pub frames: usize,
    /// Human-readable evidence line.
    pub detail: String,
}

/// What killed the run: normalized kind (`"stall"`, `"deadline"`,
/// `"poisoned"`, `"corruption"`, ...), the error's own description, and
/// the culprit module/channel when the error names one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trigger {
    /// Normalized failure kind, matching the executor's error kinds.
    pub kind: String,
    /// The error's rendered detail.
    pub detail: String,
    /// Culprit module or channel named by the error, when known.
    pub culprit: Option<String>,
}

/// Bounded ring of [`Frame`]s with interval-gated sampling.
pub struct FlightRecorder {
    origin: Instant,
    interval_us: u64,
    capacity: usize,
    /// `u64::MAX` = never sampled.
    last_us: AtomicU64,
    ring: Mutex<VecDeque<Frame>>,
}

impl FlightRecorder {
    /// Build a recorder from a sampling config: `hz` frames/sec kept
    /// for `window_s` seconds.
    pub fn new(cfg: FlightConfig) -> Self {
        let hz = cfg.hz.clamp(1, 1000);
        let window = cfg.window_s.max(1);
        FlightRecorder::with_params(
            1_000_000 / u64::from(hz),
            (hz as usize).saturating_mul(window as usize).max(4),
        )
    }

    /// Build a recorder with an explicit interval and ring capacity
    /// (tests size the ring directly).
    pub fn with_params(interval_us: u64, capacity: usize) -> Self {
        FlightRecorder {
            origin: Instant::now(),
            interval_us: interval_us.max(1),
            capacity: capacity.max(2),
            last_us: AtomicU64::new(u64::MAX),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Microseconds between retained frames.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Maximum frames the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX - 1)
    }

    /// Sample `reg` if at least one interval elapsed since the last
    /// frame; returns whether a frame was recorded. The watchdog calls
    /// this on every poll, so the recorder — not the poll rate —
    /// governs the cadence.
    pub fn tick(&self, reg: &Registry) -> bool {
        let now = self.now_us();
        let last = self.last_us.load(Ordering::Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < self.interval_us {
            return false;
        }
        self.last_us.store(now, Ordering::Relaxed);
        self.push_frame(now, reg);
        true
    }

    /// Sample `reg` unconditionally — the final frame a postmortem
    /// capture records at the moment of death.
    pub fn sample_now(&self, reg: &Registry) {
        let now = self.now_us();
        self.last_us.store(now, Ordering::Relaxed);
        self.push_frame(now, reg);
    }

    fn push_frame(&self, t_us: u64, reg: &Registry) {
        let (counters, gauges) = reg.collect_scalars();
        let mut ring = self.ring.lock();
        while ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(Frame {
            t_us,
            counters,
            gauges,
        });
    }

    /// The retained frames, oldest first.
    pub fn frames(&self) -> Vec<Frame> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Drop all retained frames and reset the cadence gate.
    pub fn clear(&self) {
        self.ring.lock().clear();
        self.last_us.store(u64::MAX, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Global arming — mirrors the registry's arm/disarm discipline.

static FLIGHT_ARMED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<FlightRecorder>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FlightRecorder>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Whether the flight recorder is armed: one relaxed load.
#[inline(always)]
pub fn armed() -> bool {
    FLIGHT_ARMED.load(Ordering::Relaxed)
}

/// Install (or replace) the global recorder with `cfg` and arm it.
pub fn install(cfg: FlightConfig) -> Arc<FlightRecorder> {
    let rec = Arc::new(FlightRecorder::new(cfg));
    *slot().lock() = Some(rec.clone());
    FLIGHT_ARMED.store(true, Ordering::Release);
    rec
}

/// Disarm the recorder; its frames survive until the next install.
pub fn disarm() {
    FLIGHT_ARMED.store(false, Ordering::Release);
}

/// The global recorder when armed, else `None`.
#[inline]
pub fn recorder() -> Option<Arc<FlightRecorder>> {
    if !armed() {
        return None;
    }
    slot().lock().clone()
}

// ---------------------------------------------------------------------------
// Capture suppression — the recovery executor runs each attempt's
// simulation with sim-level capture suppressed so a retried (and maybe
// recovered) attempt doesn't publish a bundle; the executor itself
// captures the authoritative bundle once the budget is exhausted.

thread_local! {
    static SUPPRESS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// RAII guard holding sim-level capture suppressed on this thread.
pub struct CaptureSuppressed(());

impl Drop for CaptureSuppressed {
    fn drop(&mut self) {
        SUPPRESS.with(|c| c.set(c.get() - 1));
    }
}

/// Suppress sim-level postmortem capture on this thread until the guard
/// drops. Nestable.
pub fn suppress_capture() -> CaptureSuppressed {
    SUPPRESS.with(|c| c.set(c.get() + 1));
    CaptureSuppressed(())
}

/// Whether capture is currently suppressed on this thread.
pub fn capture_suppressed() -> bool {
    SUPPRESS.with(|c| c.get() > 0)
}

// ---------------------------------------------------------------------------
// Anomaly detection: pure rules over a frame window.

fn label<'a>(key: &'a Key, name: &str) -> Option<&'a str> {
    key.labels
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn gauge_value(frame: &Frame, name: &str, channel: &str) -> Option<f64> {
    frame
        .gauges
        .iter()
        .find(|(k, _)| k.name == name && label(k, "channel") == Some(channel))
        .map(|(_, v)| *v)
}

fn counter_value(frame: &Frame, name: &str, channel: Option<&str>) -> Option<u64> {
    frame
        .counters
        .iter()
        .find(|(k, _)| k.name == name && channel.is_none_or(|c| label(k, "channel") == Some(c)))
        .map(|(_, v)| *v)
}

fn channel_names(frames: &[Frame], metric: &str, gauge: bool) -> Vec<String> {
    let mut names: Vec<String> = frames
        .iter()
        .flat_map(|f| {
            let keys: Vec<&Key> = if gauge {
                f.gauges.iter().map(|(k, _)| k).collect()
            } else {
                f.counters.iter().map(|(k, _)| k).collect()
            };
            keys.into_iter()
                .filter(|k| k.name == metric)
                .filter_map(|k| label(k, "channel").map(str::to_string))
                .collect::<Vec<_>>()
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Run every anomaly rule over `frames` (oldest first). Pure: the same
/// window always yields the same anomalies, sorted by onset then kind.
pub fn detect(frames: &[Frame]) -> Vec<Anomaly> {
    let mut out = Vec::new();
    if frames.len() < 2 {
        return out;
    }
    let last = frames.last().expect("len checked");

    // Rule: occupancy pinned at capacity into the failure.
    for ch in channel_names(frames, "fblas_channel_occupancy", true) {
        let cap = gauge_value(last, "fblas_channel_capacity", &ch).unwrap_or(0.0);
        if cap < 1.0 {
            continue;
        }
        let run = frames
            .iter()
            .rev()
            .take_while(|f| {
                gauge_value(f, "fblas_channel_occupancy", &ch).is_some_and(|occ| occ + 0.5 >= cap)
            })
            .count();
        if run >= PIN_MIN_FRAMES {
            out.push(Anomaly {
                kind: AnomalyKind::OccupancyPinned,
                onset_us: frames[frames.len() - run].t_us,
                frames: run,
                detail: format!("occupancy pinned at capacity {cap:.0} for the final {run} frames"),
                culprit: ch,
            });
        }
    }

    // Rule: sustained full-wait ratio on one channel.
    for ch in channel_names(frames, "fblas_channel_full_waits_total", false) {
        let series: Vec<Option<u64>> = frames
            .iter()
            .map(|f| counter_value(f, "fblas_channel_full_waits_total", Some(&ch)))
            .collect();
        let (Some(Some(first)), Some(Some(last_v))) = (series.first(), series.last()) else {
            continue;
        };
        let total = last_v.saturating_sub(*first);
        if total < FULL_WAIT_MIN_EVENTS {
            continue;
        }
        let mut pairs = 0usize;
        let mut active = 0usize;
        let mut onset = None;
        for i in 1..series.len() {
            if let (Some(a), Some(b)) = (series[i - 1], series[i]) {
                pairs += 1;
                if b > a {
                    active += 1;
                    onset.get_or_insert(frames[i - 1].t_us);
                }
            }
        }
        if pairs > 0 && active as f64 / pairs as f64 >= FULL_WAIT_MIN_FRACTION {
            out.push(Anomaly {
                kind: AnomalyKind::FullWaitSustained,
                onset_us: onset.unwrap_or(frames[0].t_us),
                frames: active,
                detail: format!(
                    "{total} full-capacity waits across {active}/{pairs} sampled frame pairs"
                ),
                culprit: ch,
            });
        }
    }

    // Rule: executor retry spike. The counter is created lazily on the
    // first retry, so a frame without it reads as 0 — otherwise a spike
    // starting mid-window would be invisible.
    let retries: Vec<u64> = frames
        .iter()
        .map(|f| counter_value(f, "fblas_exec_retries_total", None).unwrap_or(0))
        .collect();
    let first = *retries.first().expect("len checked");
    let delta = retries.last().expect("len checked").saturating_sub(first);
    if delta >= RETRY_SPIKE_MIN {
        let onset_ix = retries
            .iter()
            .position(|v| *v > first)
            .unwrap_or(frames.len() - 1);
        out.push(Anomaly {
            kind: AnomalyKind::RetrySpike,
            culprit: "executor".to_string(),
            onset_us: frames[onset_ix].t_us,
            frames: frames.len() - onset_ix,
            detail: format!("{delta} recovery retries within the window"),
        });
    }

    // Rule: aggregate element throughput collapse.
    let totals: Vec<u64> = frames
        .iter()
        .map(|f| {
            f.counters
                .iter()
                .filter(|(k, _)| k.name == "fblas_channel_push_elements_total")
                .map(|(_, v)| *v)
                .sum()
        })
        .collect();
    let deltas: Vec<u64> = totals
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]))
        .collect();
    let peak = deltas.iter().copied().max().unwrap_or(0);
    if peak >= COLLAPSE_MIN_PEAK && deltas.len() > COLLAPSE_TAIL_PAIRS {
        let floor = (peak as f64 * COLLAPSE_FRACTION) as u64;
        let tail = deltas.iter().rev().take_while(|d| **d <= floor).count();
        if (COLLAPSE_TAIL_PAIRS..deltas.len()).contains(&tail) {
            // Name the channel whose own flow dropped hardest from its
            // window peak; fall back to "pipeline" when none stands out.
            let mut culprit = "pipeline".to_string();
            let mut worst = 0u64;
            for ch in channel_names(frames, "fblas_channel_push_elements_total", false) {
                let series: Vec<u64> = frames
                    .iter()
                    .filter_map(|f| {
                        counter_value(f, "fblas_channel_push_elements_total", Some(&ch))
                    })
                    .collect();
                let ch_deltas: Vec<u64> = series
                    .windows(2)
                    .map(|w| w[1].saturating_sub(w[0]))
                    .collect();
                let ch_peak = ch_deltas.iter().copied().max().unwrap_or(0);
                let ch_last = ch_deltas.last().copied().unwrap_or(0);
                let drop = ch_peak.saturating_sub(ch_last);
                if drop > worst && ch_peak >= COLLAPSE_MIN_PEAK / 4 {
                    worst = drop;
                    culprit = ch;
                }
            }
            out.push(Anomaly {
                kind: AnomalyKind::ThroughputCollapse,
                culprit,
                onset_us: frames[frames.len() - tail].t_us,
                frames: tail,
                detail: format!(
                    "per-frame throughput fell from a peak of {peak} elements to <= {floor} for the final {tail} frame pairs"
                ),
            });
        }
    }

    out.sort_by(|a, b| {
        (a.onset_us, a.kind, a.culprit.as_str()).cmp(&(b.onset_us, b.kind, b.culprit.as_str()))
    });
    out
}

// ---------------------------------------------------------------------------
// The postmortem bundle.

/// Everything a failed run leaves behind, in one document.
///
/// Foreign reports (stall report, guard reports, recovery report, fault
/// report) arrive as pre-serialized [`Value`] trees so this crate needs
/// no dependency on the crates that define them.
#[derive(Debug, Clone)]
pub struct PostmortemBundle {
    /// Run ID from the live [`crate::span::RunScope`], if any.
    pub run_id: Option<String>,
    /// What killed the run.
    pub trigger: Trigger,
    /// Resolved `FBLAS_*` knob values at capture time.
    pub knobs: Vec<(String, String)>,
    /// Wait-for-graph `StallReport`, when the failure produced one.
    pub stall: Option<Value>,
    /// Channel integrity `GuardReport`s, when faults were armed.
    pub guards: Option<Value>,
    /// Executor `RecoveryReport`, when the failure exhausted a budget.
    pub recovery: Option<Value>,
    /// Chaos `FaultReport`, when a harness attaches one.
    pub fault: Option<Value>,
    /// The last-window time series (wall-clock section).
    pub frames: Vec<Frame>,
    /// Anomalies detected over `frames` (wall-clock section).
    pub anomalies: Vec<Anomaly>,
    /// Final full metrics snapshot (wall-clock section).
    pub snapshot: Value,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn key_value(key: &Key) -> Vec<(String, Value)> {
    vec![
        ("name".to_string(), Value::Str(key.name.clone())),
        (
            "labels".to_string(),
            Value::Object(
                key.labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]
}

fn frame_value(frame: &Frame) -> Value {
    let row_u64 = |k: &Key, v: u64| {
        let mut entries = key_value(k);
        entries.push(("value".to_string(), Value::U64(v)));
        Value::Object(entries)
    };
    let row_f64 = |k: &Key, v: f64| {
        let mut entries = key_value(k);
        entries.push(("value".to_string(), Value::F64(v)));
        Value::Object(entries)
    };
    obj(vec![
        ("t_us", Value::U64(frame.t_us)),
        (
            "counters",
            Value::Array(frame.counters.iter().map(|(k, v)| row_u64(k, *v)).collect()),
        ),
        (
            "gauges",
            Value::Array(frame.gauges.iter().map(|(k, v)| row_f64(k, *v)).collect()),
        ),
    ])
}

fn anomaly_value(a: &Anomaly) -> Value {
    obj(vec![
        ("kind", Value::Str(a.kind.label().to_string())),
        ("culprit", Value::Str(a.culprit.clone())),
        ("onset_us", Value::U64(a.onset_us)),
        ("frames", Value::U64(a.frames as u64)),
        ("detail", Value::Str(a.detail.clone())),
    ])
}

impl PostmortemBundle {
    fn value_with_wall(&self, wall: Value) -> Value {
        let opt = |v: &Option<Value>| v.clone().unwrap_or(Value::Null);
        obj(vec![
            ("schema", Value::Str(BUNDLE_SCHEMA.to_string())),
            (
                "run_id",
                match &self.run_id {
                    Some(id) => Value::Str(id.clone()),
                    None => Value::Null,
                },
            ),
            (
                "trigger",
                obj(vec![
                    ("kind", Value::Str(self.trigger.kind.clone())),
                    ("detail", Value::Str(self.trigger.detail.clone())),
                    (
                        "culprit",
                        match &self.trigger.culprit {
                            Some(c) => Value::Str(c.clone()),
                            None => Value::Null,
                        },
                    ),
                ]),
            ),
            (
                "knobs",
                Value::Object(
                    self.knobs
                        .iter()
                        // The bundle's own output directory is where the
                        // document lands, not how the run behaved — it
                        // stays out of the deterministic view, so keep
                        // the full view consistent by key order only.
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("stall", opt(&self.stall)),
            ("guards", opt(&self.guards)),
            ("recovery", opt(&self.recovery)),
            ("fault", opt(&self.fault)),
            ("wall", wall),
        ])
    }

    /// The full document as an insertion-ordered value tree.
    pub fn to_value(&self) -> Value {
        self.value_with_wall(obj(vec![
            (
                "frames",
                Value::Array(self.frames.iter().map(frame_value).collect()),
            ),
            (
                "anomalies",
                Value::Array(self.anomalies.iter().map(anomaly_value).collect()),
            ),
            ("snapshot", self.snapshot.clone()),
        ]))
    }

    /// Full document rendered as byte-stable pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("bundle value tree serializes")
    }

    /// The document with every wall-clock-dependent field removed: the
    /// `"wall"` section is nulled and the environment-specific
    /// `FBLAS_FLIGHT_DIR` knob (the bundle's own output location) is
    /// dropped. Two seeded chaos runs render byte-identical
    /// deterministic documents.
    pub fn deterministic_value(&self) -> Value {
        let mut v = self.value_with_wall(Value::Null);
        if let Value::Object(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "knobs" {
                    if let Value::Object(knobs) = val {
                        knobs.retain(|(name, _)| name != "FBLAS_FLIGHT_DIR");
                    }
                }
            }
        }
        v
    }

    /// Deterministic document rendered as byte-stable pretty JSON.
    pub fn deterministic_json(&self) -> String {
        serde_json::to_string_pretty(&self.deterministic_value())
            .expect("bundle value tree serializes")
    }
}

fn last_slot() -> &'static Mutex<Option<Arc<PostmortemBundle>>> {
    static LAST: OnceLock<Mutex<Option<Arc<PostmortemBundle>>>> = OnceLock::new();
    LAST.get_or_init(|| Mutex::new(None))
}

/// Publish `bundle` as the process's most recent postmortem and return
/// the shared handle. Last writer wins.
pub fn record_bundle(bundle: PostmortemBundle) -> Arc<PostmortemBundle> {
    let bundle = Arc::new(bundle);
    *last_slot().lock() = Some(bundle.clone());
    bundle
}

/// The most recently captured postmortem bundle, if any.
pub fn last_bundle() -> Option<Arc<PostmortemBundle>> {
    last_slot().lock().clone()
}

/// Forget the last captured bundle (tests isolate themselves with this).
pub fn clear_last_bundle() {
    *last_slot().lock() = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str, channel: Option<&str>) -> Key {
        match channel {
            Some(c) => Key::new(name, &[("channel", c)]),
            None => Key::new(name, &[]),
        }
    }

    fn frame(
        t_us: u64,
        counters: &[(&str, Option<&str>, u64)],
        gauges: &[(&str, &str, f64)],
    ) -> Frame {
        Frame {
            t_us,
            counters: counters.iter().map(|(n, c, v)| (key(n, *c), *v)).collect(),
            gauges: gauges
                .iter()
                .map(|(n, c, v)| (key(n, Some(c)), *v))
                .collect(),
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let rec = FlightRecorder::with_params(1, 3);
        let reg = Registry::new(1);
        let c = reg.counter("ticks_total", &[]);
        for i in 0..10u64 {
            c.add(1);
            rec.sample_now(&reg);
            std::thread::sleep(std::time::Duration::from_micros(5));
            let _ = i;
        }
        let frames = rec.frames();
        assert_eq!(frames.len(), 3);
        // Newest frames retained: the final counter totals.
        assert_eq!(frames.last().unwrap().counters[0].1, 10);
        assert!(frames.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn tick_honors_the_sampling_interval() {
        let rec = FlightRecorder::with_params(60_000_000, 8);
        let reg = Registry::new(1);
        assert!(rec.tick(&reg), "first tick always samples");
        assert!(!rec.tick(&reg), "second tick inside the interval skips");
        assert_eq!(rec.frames().len(), 1);
        rec.clear();
        assert!(rec.frames().is_empty());
        assert!(rec.tick(&reg), "clear resets the cadence gate");
    }

    #[test]
    fn detector_flags_occupancy_pinned_at_capacity() {
        let frames: Vec<Frame> = (0..6)
            .map(|i| {
                let occ = if i < 2 { 1.0 } else { 4.0 };
                frame(
                    i * 1000,
                    &[],
                    &[
                        ("fblas_channel_occupancy", "hot", occ),
                        ("fblas_channel_capacity", "hot", 4.0),
                        ("fblas_channel_occupancy", "cool", 1.0),
                        ("fblas_channel_capacity", "cool", 8.0),
                    ],
                )
            })
            .collect();
        let anomalies = detect(&frames);
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].kind, AnomalyKind::OccupancyPinned);
        assert_eq!(anomalies[0].culprit, "hot");
        assert_eq!(anomalies[0].onset_us, 2000);
        assert_eq!(anomalies[0].frames, 4);
    }

    #[test]
    fn detector_flags_sustained_full_waits() {
        let frames: Vec<Frame> = (0..5)
            .map(|i| {
                frame(
                    i * 1000,
                    &[("fblas_channel_full_waits_total", Some("hot"), i * 3)],
                    &[],
                )
            })
            .collect();
        let anomalies = detect(&frames);
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].kind, AnomalyKind::FullWaitSustained);
        assert_eq!(anomalies[0].culprit, "hot");
        assert_eq!(anomalies[0].onset_us, 0);
    }

    #[test]
    fn detector_flags_retry_spike() {
        let frames: Vec<Frame> = (0..4)
            .map(|i| {
                frame(
                    i * 1000,
                    &[("fblas_exec_retries_total", None, if i < 2 { 0 } else { i })],
                    &[],
                )
            })
            .collect();
        let anomalies = detect(&frames);
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].kind, AnomalyKind::RetrySpike);
        assert_eq!(anomalies[0].culprit, "executor");
        assert_eq!(anomalies[0].onset_us, 2000);
    }

    #[test]
    fn detector_flags_throughput_collapse_with_channel_culprit() {
        // Channel "fast" moves 1000 elements/frame then flatlines;
        // "slow" idles throughout.
        let frames: Vec<Frame> = (0..8)
            .map(|i| {
                let fast_total = if i < 4 { i * 1000 } else { 3000 };
                frame(
                    i * 1000,
                    &[
                        (
                            "fblas_channel_push_elements_total",
                            Some("fast"),
                            fast_total,
                        ),
                        ("fblas_channel_push_elements_total", Some("slow"), i),
                    ],
                    &[],
                )
            })
            .collect();
        let anomalies = detect(&frames);
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].kind, AnomalyKind::ThroughputCollapse);
        assert_eq!(anomalies[0].culprit, "fast");
        assert_eq!(anomalies[0].frames, 4);
    }

    #[test]
    fn detector_stays_quiet_on_healthy_frames() {
        let frames: Vec<Frame> = (0..6)
            .map(|i| {
                frame(
                    i * 1000,
                    &[
                        ("fblas_channel_push_elements_total", Some("hot"), i * 500),
                        ("fblas_exec_retries_total", None, 0),
                    ],
                    &[
                        ("fblas_channel_occupancy", "hot", (i % 3) as f64),
                        ("fblas_channel_capacity", "hot", 8.0),
                    ],
                )
            })
            .collect();
        assert!(detect(&frames).is_empty());
        assert!(detect(&frames[..1]).is_empty(), "one frame is never enough");
    }

    fn sample_bundle() -> PostmortemBundle {
        PostmortemBundle {
            run_id: Some("00000000deadbeef".to_string()),
            trigger: Trigger {
                kind: "stall".to_string(),
                detail: "deadlocked: all 2 live module(s) channel-blocked".to_string(),
                culprit: None,
            },
            knobs: vec![
                ("FBLAS_CHUNK".to_string(), "256".to_string()),
                ("FBLAS_FLIGHT_DIR".to_string(), "/tmp/xyz".to_string()),
            ],
            stall: Some(Value::Str("stall-report".to_string())),
            guards: None,
            recovery: None,
            fault: None,
            frames: vec![frame(
                0,
                &[("fblas_channel_push_elements_total", Some("hot"), 4)],
                &[("fblas_channel_occupancy", "hot", 4.0)],
            )],
            anomalies: vec![Anomaly {
                kind: AnomalyKind::OccupancyPinned,
                culprit: "hot".to_string(),
                onset_us: 0,
                frames: 1,
                detail: "pinned".to_string(),
            }],
            snapshot: Value::Str("snapshot".to_string()),
        }
    }

    #[test]
    fn bundle_json_is_byte_stable_and_round_trips() {
        let b = sample_bundle();
        let text = b.to_json();
        assert_eq!(text, b.to_json());
        assert!(crate::expo::snapshot_round_trips(&text), "round trip");
        assert!(text.contains(BUNDLE_SCHEMA));
        assert!(text.contains("occupancy_pinned"));
    }

    #[test]
    fn deterministic_json_excludes_wall_and_output_dir() {
        let b = sample_bundle();
        let det = b.deterministic_json();
        assert!(det.contains("\"wall\": null"));
        assert!(!det.contains("occupancy_pinned"), "anomalies are wall data");
        assert!(!det.contains("FBLAS_FLIGHT_DIR"));
        assert!(det.contains("FBLAS_CHUNK"));
        assert!(b.to_json().contains("FBLAS_FLIGHT_DIR"));
    }

    #[test]
    fn global_arming_and_last_bundle_slot() {
        // Process-global state: exercise the lifecycle in one test.
        disarm();
        assert!(recorder().is_none());
        let rec = install(FlightConfig::default());
        assert!(armed());
        assert_eq!(rec.capacity(), 500);
        assert_eq!(rec.interval_us(), 20_000);
        let _s = suppress_capture();
        assert!(capture_suppressed());
        {
            let _nested = suppress_capture();
            assert!(capture_suppressed());
        }
        assert!(capture_suppressed());
        drop(_s);
        assert!(!capture_suppressed());
        let b = record_bundle(sample_bundle());
        assert_eq!(last_bundle().unwrap().trigger.kind, b.trigger.kind);
        clear_last_bundle();
        assert!(last_bundle().is_none());
        disarm();
        assert!(recorder().is_none());
    }
}
