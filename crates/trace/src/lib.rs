//! # fblas-trace — observability for the streaming simulator
//!
//! The FBLAS paper reasons about compositions in terms of *module*
//! activity over time: circuits compute concurrently, FIFO channels
//! apply backpressure (Sec. IV), and an invalid composition "stalls
//! forever" (Sec. V-B). This crate makes those dynamics visible for the
//! software simulator:
//!
//! * an **event layer** ([`TraceEvent`], [`ModuleScope`]) — per-thread
//!   ring buffers recording module start/end, channel push/pop, and
//!   full/empty stall spans with monotonic timestamps. When no tracer is
//!   attached the instrumentation reduces to one thread-local read per
//!   channel operation;
//! * **exporters** — Chrome/Perfetto `trace_event` JSON
//!   ([`perfetto`]) with one lane per module and stall spans colored,
//!   plus a plain-text run summary ([`summary`]);
//! * **sampled series** ([`Tracer::record_sample`]) — channel occupancy,
//!   injected faults (`fault:<target>`), and recovery attempts
//!   (`recovery:component:<ix>`), rendered as Perfetto counter tracks
//!   and counted by the audit layer.
//!
//! Counters, gauges, and histograms live in the `fblas-metrics` crate;
//! this crate records events and series only.
//!
//! Stall forensics (the wait-for snapshot carried by
//! `SimError::Stall`) live in the simulator crate, which owns the
//! channel state; this crate supplies the module-identity thread-local
//! the snapshot draws names from ([`current_module`]).

#![warn(missing_docs)]

pub mod perfetto;
pub mod summary;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

/// What a single trace event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    /// A module's whole execution, from thread start to completion.
    ModuleRun,
    /// Elements pushed into a channel (instant for a single element,
    /// span for a batched chunk — see [`TraceEvent::count`]).
    Push,
    /// Elements popped from a channel (instant for a single element,
    /// span for a batched chunk).
    Pop,
    /// The producer waited on a full FIFO for the span's duration.
    FullStall,
    /// The consumer waited on an empty FIFO for the span's duration.
    EmptyStall,
}

/// One recorded event: a span (`dur_us > 0` possible) or an instant
/// (`dur_us == 0`). Timestamps are microseconds from the owning
/// [`Tracer`]'s creation, so all lanes share one monotonic clock.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    /// Event class.
    pub kind: EventKind,
    /// Channel involved, if any (`None` for [`EventKind::ModuleRun`]).
    pub channel: Option<Arc<str>>,
    /// Start timestamp, µs since tracer creation.
    pub start_us: u64,
    /// Duration in µs; 0 for instants.
    pub dur_us: u64,
    /// Elements covered by this event: 1 for element-wise channel ops
    /// and non-channel events, the chunk length for batched transfers
    /// (which record one aggregated event per chunk, not one per
    /// element).
    pub count: u64,
}

/// Everything one module (thread) recorded, flushed when its
/// [`ModuleScope`] drops.
#[derive(Debug, Clone, Serialize)]
pub struct Lane {
    /// Module name.
    pub module: String,
    /// Scope entry timestamp (µs since tracer creation).
    pub started_us: u64,
    /// Scope exit timestamp.
    pub ended_us: u64,
    /// Recorded events, oldest first. The ring drops the *oldest*
    /// events on overflow — the tail of a run matters most when
    /// diagnosing a stall.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
    /// Total pushes performed by this module.
    pub pushes: u64,
    /// Total pops performed by this module.
    pub pops: u64,
    /// Cumulative µs spent blocked on full FIFOs.
    pub full_stall_us: u64,
    /// Cumulative µs spent blocked on empty FIFOs.
    pub empty_stall_us: u64,
    /// Per-channel µs blocked pushing into a full FIFO. Exact counters,
    /// maintained alongside the ring — unlike the ring they never drop,
    /// so downstream consumers (the audit layer) can attribute stall
    /// time even for runs far longer than the ring.
    pub full_stall_by_channel: Vec<(Arc<str>, u64)>,
    /// Per-channel µs blocked popping from an empty FIFO.
    pub empty_stall_by_channel: Vec<(Arc<str>, u64)>,
    /// Per-channel push counts.
    pub pushes_by_channel: Vec<(Arc<str>, u64)>,
    /// Per-channel pop counts.
    pub pops_by_channel: Vec<(Arc<str>, u64)>,
}

impl Lane {
    /// Length of the module's run span in µs.
    pub fn run_us(&self) -> u64 {
        self.ended_us.saturating_sub(self.started_us)
    }

    /// Time the module was not blocked on any FIFO, in µs (saturating:
    /// the stall ledgers can exceed the span by a few µs of bookkeeping
    /// skew).
    pub fn busy_us(&self) -> u64 {
        self.run_us()
            .saturating_sub(self.full_stall_us)
            .saturating_sub(self.empty_stall_us)
    }
}

/// Default per-lane event-ring capacity.
const DEFAULT_LANE_CAPACITY: usize = 4096;

struct TracerInner {
    origin: Instant,
    lane_capacity: usize,
    lanes: Mutex<Vec<Lane>>,
    /// Sampled time series, e.g. channel occupancy: name → (t_us, value).
    series: Mutex<BTreeMap<String, Vec<(u64, f64)>>>,
    /// Correlation key of the logical request this trace belongs to
    /// (16-hex-digit run ID); exported as Perfetto metadata.
    run_id: Mutex<Option<String>>,
    /// Execution backend the traced run used (`threaded` / `fused` /
    /// `auto`); exported as Perfetto metadata.
    backend: Mutex<Option<String>>,
}

/// Collects lanes and series for one (or several) simulation runs.
/// Cheap to clone; all clones share the same store and clock.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer with the default per-lane ring capacity.
    pub fn new() -> Self {
        Self::with_lane_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A tracer whose per-module event rings hold `capacity` events.
    pub fn with_lane_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                origin: Instant::now(),
                lane_capacity: capacity.max(16),
                lanes: Mutex::new(Vec::new()),
                series: Mutex::new(BTreeMap::new()),
                run_id: Mutex::new(None),
                backend: Mutex::new(None),
            }),
        }
    }

    /// Microseconds elapsed since this tracer was created.
    pub fn now_us(&self) -> u64 {
        self.inner.origin.elapsed().as_micros() as u64
    }

    /// Append one sample to a named time series (used by the simulator
    /// watchdog to record channel occupancy).
    pub fn record_sample(&self, series: &str, t_us: u64, value: f64) {
        let mut s = self.inner.series.lock();
        s.entry(series.to_string()).or_default().push((t_us, value));
    }

    /// Snapshot of all flushed lanes, in flush order.
    pub fn lanes(&self) -> Vec<Lane> {
        self.inner.lanes.lock().clone()
    }

    /// Snapshot of all sampled time series.
    pub fn series(&self) -> BTreeMap<String, Vec<(u64, f64)>> {
        self.inner.series.lock().clone()
    }

    /// Tag this trace with the run ID of the logical request it belongs
    /// to. The executor sets this automatically from the current
    /// `RunScope`; the Perfetto exporter emits it as metadata so traces
    /// correlate with metric snapshots and RecoveryReports.
    pub fn set_run_id(&self, run_id: impl Into<String>) {
        *self.inner.run_id.lock() = Some(run_id.into());
    }

    /// The tagged run ID, if any.
    pub fn run_id(&self) -> Option<String> {
        self.inner.run_id.lock().clone()
    }

    /// Tag this trace with the execution backend that produced it
    /// (`threaded`, `fused`, or `auto`); the Perfetto exporter emits it
    /// as metadata so a trace records which execution path it observed.
    pub fn set_backend(&self, backend: impl Into<String>) {
        *self.inner.backend.lock() = Some(backend.into());
    }

    /// The tagged backend name, if any.
    pub fn backend(&self) -> Option<String> {
        self.inner.backend.lock().clone()
    }

    fn flush_lane(&self, lane: Lane) {
        self.inner.lanes.lock().push(lane);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

// ------------------------------------------------- thread-local scope

/// Per-thread recording state while a module body runs.
struct ScopeData {
    module: Arc<str>,
    /// Present only when a tracer is attached; module identity alone is
    /// enough for stall forensics.
    rec: Option<Recorder>,
}

struct Recorder {
    tracer: Tracer,
    started_us: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
    pushes: u64,
    pops: u64,
    full_stall_us: u64,
    empty_stall_us: u64,
    full_stall_by_channel: Vec<(Arc<str>, u64)>,
    empty_stall_by_channel: Vec<(Arc<str>, u64)>,
    pushes_by_channel: Vec<(Arc<str>, u64)>,
    pops_by_channel: Vec<(Arc<str>, u64)>,
}

/// Add `amount` to `channel`'s entry in a per-channel ledger. Modules
/// touch a handful of channels, so a linear scan (pointer comparison
/// first — channel names are shared `Arc`s) beats a map and allocates
/// only on first sight of a channel.
fn bump(ledger: &mut Vec<(Arc<str>, u64)>, channel: &Arc<str>, amount: u64) {
    if let Some(entry) = ledger
        .iter_mut()
        .find(|(c, _)| Arc::ptr_eq(c, channel) || **c == **channel)
    {
        entry.1 += amount;
    } else {
        ledger.push((channel.clone(), amount));
    }
}

impl Recorder {
    fn record(&mut self, ev: TraceEvent) {
        let cap = self.tracer.inner.lane_capacity;
        if self.events.len() >= cap {
            // Drop-oldest: shift out the front half in one move so the
            // amortized cost stays O(1) per event.
            let keep = cap / 2;
            let excess = self.events.len() - keep;
            self.events.drain(..excess);
            self.dropped += excess as u64;
        }
        self.events.push(ev);
    }
}

thread_local! {
    static SCOPE: RefCell<Option<ScopeData>> = const { RefCell::new(None) };
}

/// RAII marker that the current thread is executing a named module.
///
/// Installs the module identity (always) and an event recorder (when a
/// tracer is given) in a thread-local; on drop, records the module's
/// run span and flushes the lane to the tracer. The previous scope, if
/// any, is restored — nested scopes (e.g. a composition component
/// around a host call) each get their own lane.
pub struct ModuleScope {
    prev: Option<ScopeData>,
}

impl ModuleScope {
    /// Enter a module scope on the current thread.
    pub fn enter(module: &str, tracer: Option<&Tracer>) -> ModuleScope {
        let rec = tracer.map(|t| Recorder {
            tracer: t.clone(),
            started_us: t.now_us(),
            events: Vec::new(),
            dropped: 0,
            pushes: 0,
            pops: 0,
            full_stall_us: 0,
            empty_stall_us: 0,
            full_stall_by_channel: Vec::new(),
            empty_stall_by_channel: Vec::new(),
            pushes_by_channel: Vec::new(),
            pops_by_channel: Vec::new(),
        });
        let data = ScopeData {
            module: Arc::from(module),
            rec,
        };
        let prev = SCOPE.with(|s| s.borrow_mut().replace(data));
        ModuleScope { prev }
    }
}

impl Drop for ModuleScope {
    fn drop(&mut self) {
        let data = SCOPE.with(|s| {
            let mut slot = s.borrow_mut();
            let cur = slot.take();
            *slot = self.prev.take();
            cur
        });
        let Some(data) = data else { return };
        let Some(mut rec) = data.rec else { return };
        let ended_us = rec.tracer.now_us();
        rec.record(TraceEvent {
            kind: EventKind::ModuleRun,
            channel: None,
            start_us: rec.started_us,
            dur_us: ended_us.saturating_sub(rec.started_us),
            count: 1,
        });
        let tracer = rec.tracer.clone();
        tracer.flush_lane(Lane {
            module: data.module.to_string(),
            started_us: rec.started_us,
            ended_us,
            events: rec.events,
            dropped: rec.dropped,
            pushes: rec.pushes,
            pops: rec.pops,
            full_stall_us: rec.full_stall_us,
            empty_stall_us: rec.empty_stall_us,
            full_stall_by_channel: rec.full_stall_by_channel,
            empty_stall_by_channel: rec.empty_stall_by_channel,
            pushes_by_channel: rec.pushes_by_channel,
            pops_by_channel: rec.pops_by_channel,
        });
    }
}

/// Name of the module the current thread is executing, if any. The
/// simulator's stall forensics use this to attribute blocked channel
/// waits to modules.
pub fn current_module() -> Option<Arc<str>> {
    SCOPE.with(|s| s.borrow().as_ref().map(|d| d.module.clone()))
}

/// Timestamp the start of a channel operation — `Some(now)` only when
/// the current thread is actively recording. The `None` path is the
/// tracing-disabled fast path: one thread-local read and a branch.
#[inline]
pub fn op_start() -> Option<u64> {
    SCOPE.with(|s| {
        s.borrow()
            .as_ref()
            .and_then(|d| d.rec.as_ref())
            .map(|r| r.tracer.now_us())
    })
}

/// Record a completed channel operation. `kind` must be
/// [`EventKind::Push`] or [`EventKind::Pop`]; `started_us` is the value
/// [`op_start`] returned before the operation; `waited` says whether
/// the operation blocked (producing a stall span from `started_us` to
/// now).
pub fn record_channel_op(kind: EventKind, channel: &Arc<str>, started_us: u64, waited: bool) {
    record_channel_chunk(kind, channel, started_us, waited, 1);
}

/// Record a completed *batched* channel operation covering `count`
/// elements moved by one `push_chunk`/`pop_chunk` call. Element
/// counters and per-channel ledgers advance by `count`; the ring gets
/// ONE aggregated event spanning the whole chunk operation (plus one
/// stall span when the operation blocked) instead of `count` per-element
/// instants — the trace stays proportional to chunk operations, not to
/// elements.
pub fn record_channel_chunk(
    kind: EventKind,
    channel: &Arc<str>,
    started_us: u64,
    waited: bool,
    count: u64,
) {
    if count == 0 {
        return;
    }
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        let Some(rec) = slot.as_mut().and_then(|d| d.rec.as_mut()) else {
            return;
        };
        let now = rec.tracer.now_us();
        if waited {
            let dur = now.saturating_sub(started_us);
            let stall_kind = match kind {
                EventKind::Push => EventKind::FullStall,
                _ => EventKind::EmptyStall,
            };
            match stall_kind {
                EventKind::FullStall => {
                    rec.full_stall_us += dur;
                    bump(&mut rec.full_stall_by_channel, channel, dur);
                }
                _ => {
                    rec.empty_stall_us += dur;
                    bump(&mut rec.empty_stall_by_channel, channel, dur);
                }
            }
            rec.record(TraceEvent {
                kind: stall_kind,
                channel: Some(channel.clone()),
                start_us: started_us,
                dur_us: dur,
                count: 1,
            });
        }
        match kind {
            EventKind::Push => {
                rec.pushes += count;
                bump(&mut rec.pushes_by_channel, channel, count);
            }
            _ => {
                rec.pops += count;
                bump(&mut rec.pops_by_channel, channel, count);
            }
        }
        // A single element is an instant at completion time; a chunk is
        // a span covering the whole operation.
        let (start, dur) = if count == 1 {
            (now, 0)
        } else {
            (started_us, now.saturating_sub(started_us))
        };
        rec.record(TraceEvent {
            kind,
            channel: Some(channel.clone()),
            start_us: start,
            dur_us: dur,
            count,
        });
    });
}

/// Record an injected fault against `target` (a channel or module
/// name): one sample on the `fault:<target>` series, rendered by the
/// Perfetto exporter as a counter track and counted by the audit layer
/// as one fault event. No-op when the current thread is not recording —
/// fault injection works with tracing disabled; only the evidence trail
/// needs a tracer.
pub fn record_fault(target: &str) {
    SCOPE.with(|s| {
        let slot = s.borrow();
        let Some(rec) = slot.as_ref().and_then(|d| d.rec.as_ref()) else {
            return;
        };
        let t = rec.tracer.now_us();
        rec.tracer.record_sample(&format!("fault:{target}"), t, 1.0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_flushes_a_lane_with_run_span() {
        let tracer = Tracer::new();
        {
            let _scope = ModuleScope::enter("m0", Some(&tracer));
            assert_eq!(current_module().unwrap().as_ref(), "m0");
            let ch: Arc<str> = Arc::from("ch");
            let t0 = op_start().expect("recording active");
            record_channel_op(EventKind::Push, &ch, t0, false);
            record_channel_op(EventKind::Pop, &ch, t0, true);
        }
        let lanes = tracer.lanes();
        assert_eq!(lanes.len(), 1);
        let lane = &lanes[0];
        assert_eq!(lane.module, "m0");
        assert_eq!(lane.pushes, 1);
        assert_eq!(lane.pops, 1);
        let runs: Vec<_> = lane
            .events
            .iter()
            .filter(|e| e.kind == EventKind::ModuleRun)
            .collect();
        assert_eq!(runs.len(), 1);
        assert!(lane.events.iter().any(|e| e.kind == EventKind::EmptyStall));
    }

    #[test]
    fn no_tracer_means_no_recording_but_identity_is_kept() {
        let _scope = ModuleScope::enter("bare", None);
        assert_eq!(current_module().unwrap().as_ref(), "bare");
        assert!(op_start().is_none());
    }

    #[test]
    fn nested_scopes_restore_the_outer_module() {
        let tracer = Tracer::new();
        let _outer = ModuleScope::enter("outer", Some(&tracer));
        {
            let _inner = ModuleScope::enter("inner", Some(&tracer));
            assert_eq!(current_module().unwrap().as_ref(), "inner");
        }
        assert_eq!(current_module().unwrap().as_ref(), "outer");
        assert_eq!(tracer.lanes().len(), 1); // only the inner lane flushed so far
    }

    #[test]
    fn chunk_op_records_one_event_counting_all_elements() {
        let tracer = Tracer::new();
        {
            let _scope = ModuleScope::enter("bulk", Some(&tracer));
            let ch: Arc<str> = Arc::from("ch");
            let t0 = op_start().expect("recording active");
            record_channel_chunk(EventKind::Push, &ch, t0, false, 64);
            record_channel_chunk(EventKind::Pop, &ch, t0, true, 3);
            record_channel_chunk(EventKind::Push, &ch, t0, false, 0); // no-op
        }
        let lane = &tracer.lanes()[0];
        // Element counters advance by the chunk length...
        assert_eq!(lane.pushes, 64);
        assert_eq!(lane.pops, 3);
        assert_eq!(lane.pushes_by_channel[0].1, 64);
        assert_eq!(lane.pops_by_channel[0].1, 3);
        // ...but the ring holds one aggregated event per chunk (plus the
        // stall span for the waited pop and the ModuleRun span).
        let pushes: Vec<_> = lane
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Push)
            .collect();
        assert_eq!(pushes.len(), 1);
        assert_eq!(pushes[0].count, 64);
        let pops: Vec<_> = lane
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Pop)
            .collect();
        assert_eq!(pops.len(), 1);
        assert_eq!(pops[0].count, 3);
        assert!(lane.events.iter().any(|e| e.kind == EventKind::EmptyStall));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tracer = Tracer::with_lane_capacity(16);
        {
            let _scope = ModuleScope::enter("hot", Some(&tracer));
            let ch: Arc<str> = Arc::from("c");
            for _ in 0..100 {
                record_channel_op(EventKind::Push, &ch, 0, false);
            }
        }
        let lane = &tracer.lanes()[0];
        assert_eq!(lane.pushes, 100);
        assert!(lane.dropped > 0);
        assert!(lane.events.len() <= 17); // ring + the final ModuleRun span

        // The per-channel ledgers are exact counters: they survive the
        // ring's drop-oldest policy untouched.
        assert_eq!(lane.pushes_by_channel.len(), 1);
        assert_eq!(lane.pushes_by_channel[0].0.as_ref(), "c");
        assert_eq!(lane.pushes_by_channel[0].1, 100);
    }

    #[test]
    fn stall_ledgers_are_bucketed_by_channel() {
        let tracer = Tracer::new();
        {
            let _scope = ModuleScope::enter("m", Some(&tracer));
            let a: Arc<str> = Arc::from("a");
            let b: Arc<str> = Arc::from("b");
            record_channel_op(EventKind::Push, &a, 0, true);
            record_channel_op(EventKind::Push, &a, 0, true);
            record_channel_op(EventKind::Pop, &b, 0, true);
        }
        let lane = &tracer.lanes()[0];
        assert_eq!(lane.full_stall_by_channel.len(), 1);
        assert_eq!(lane.full_stall_by_channel[0].0.as_ref(), "a");
        assert_eq!(lane.empty_stall_by_channel.len(), 1);
        assert_eq!(lane.empty_stall_by_channel[0].0.as_ref(), "b");
        assert_eq!(lane.pops_by_channel[0].1, 1);
        assert!(lane.busy_us() <= lane.run_us());
    }

    #[test]
    fn series_accumulate_in_order() {
        let tracer = Tracer::new();
        tracer.record_sample("occ:ch", 1, 0.0);
        tracer.record_sample("occ:ch", 2, 3.0);
        let series = tracer.series();
        assert_eq!(series["occ:ch"], vec![(1, 0.0), (2, 3.0)]);
    }
}
