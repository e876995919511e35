//! Bounded single-producer/single-consumer FIFO channels.
//!
//! These are the software equivalent of the HLS `channel`/`stream` FIFOs the
//! FBLAS paper builds on: typed, bounded queues with blocking semantics on
//! both ends. A `push` into a full channel and a `pop` from an empty channel
//! block — this is the *backpressure* that makes module composition behave
//! like the hardware (an under-dimensioned downstream module slows its
//! producers, Sec. IV-B; an invalid composition stalls, Sec. V-B).
//!
//! Channels are registered with a [`SimContext`], which counts global
//! progress (a monotonically increasing *epoch*, bumped on every
//! successful transfer) and the module threads currently blocked.
//!
//! Every push and pop waits through one helper. A side that finds the
//! FIFO full or empty first runs a bounded backoff — a fixed number of
//! `yield_now` rounds, re-checking after each — because a streaming peer
//! usually frees a slot within microseconds, and a futex sleep plus wake
//! per FIFO depth of elements costs far more. Only when the backoff runs
//! out does the waiter mark itself blocked and park on the condvar, with
//! no timeout: a peer's transfer or endpoint drop wakes it, and so does
//! poisoning, which wakes the parked waiters of every channel of the
//! context under their channel locks.
//!
//! The blocked mark is channel state: a channel is SPSC, so each side
//! has at most one parked waiter. The operation that makes that
//! waiter's condition true — a transfer by its peer or the peer's
//! endpoint drop — clears the mark under the channel lock, before the
//! waiter's thread runs, so the context's blocked count is exact. A
//! transfer touches the condvar and the mark only when the other side
//! is parked.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fblas_trace::EventKind;
use parking_lot::{Condvar, Mutex};
use serde::Serialize;

use crate::chunk::default_chunk;
use crate::error::SimError;
use crate::fault::{duplicate_value, flip_bit, FaultAction, FaultSite, GuardReport, GuardState};
use crate::simulation::{ChannelProbe, CtxShared, SimContext};
use crate::stall::{BlockedModule, WaitDirection};

/// Occupancy and stall statistics for one channel, taken as a snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ChannelStats {
    /// Total elements transferred through the channel.
    pub transferred: u64,
    /// Highest queue occupancy observed.
    pub max_occupancy: usize,
    /// Number of times the producer found the channel full and had to wait.
    pub full_stalls: u64,
    /// Number of times the consumer found the channel empty and had to wait.
    pub empty_stalls: u64,
}

/// Rounds of the bounded backoff a waiter runs before it parks: each
/// yields the CPU once, then re-checks the FIFO under the lock. Busy
/// spinning between re-checks measured slower on a 2-vCPU host, where
/// module threads outnumber cores and a spinning waiter holds the core
/// its peer needs (sweep in EXPERIMENTS.md, "Spin-then-park FIFOs").
const BACKOFF_ROUNDS: u32 = 32;

struct ChanState<T> {
    queue: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
    stats: ChannelStats,
    /// Integrity guard; only updated while a fault hook is armed.
    guard: GuardState,
    /// The pusher waiting on `not_full` and the popper waiting on
    /// `not_empty`.
    full: Side,
    empty: Side,
}

/// The waiter on one side of a channel.
#[derive(Default)]
struct Side {
    /// Threads parked on this side's condvar: a transfer skips the
    /// notify when none is (a thread still in its backoff re-checks on
    /// its own).
    parked: usize,
    /// The module of the parked waiter the context counts as blocked.
    /// Set by the waiter when it first parks, cleared by whichever
    /// operation makes its condition true.
    blocked: Option<Arc<str>>,
}

impl<T> ChanState<T> {
    fn side(&mut self, dir: WaitDirection) -> &mut Side {
        match dir {
            WaitDirection::Full => &mut self.full,
            WaitDirection::Empty => &mut self.empty,
        }
    }
}

/// Lock-free telemetry handles for one channel, resolved once at channel
/// creation when the global metrics runtime is armed. Every increment is
/// a relaxed atomic on a per-thread shard; when the runtime is disarmed
/// at creation time the whole struct is absent and each operation pays
/// one `Option` branch.
struct ChanMetrics {
    push_elements: fblas_metrics::Counter,
    pop_elements: fblas_metrics::Counter,
    full_waits: fblas_metrics::Counter,
    empty_waits: fblas_metrics::Counter,
    chunk_push_ops: fblas_metrics::Counter,
    chunk_pop_ops: fblas_metrics::Counter,
    wait_us: fblas_metrics::Hist,
}

impl ChanMetrics {
    fn new(reg: &fblas_metrics::Registry, channel: &str, capacity: usize) -> Self {
        let l: &[(&str, &str)] = &[("channel", channel)];
        // Capacity is fixed for the channel's lifetime; publishing it as
        // a gauge lets the flight recorder's occupancy-pinned rule
        // compare the occupancy gauge against it frame by frame.
        reg.gauge("fblas_channel_capacity", l).set(capacity as f64);
        ChanMetrics {
            push_elements: reg.counter("fblas_channel_push_elements_total", l),
            pop_elements: reg.counter("fblas_channel_pop_elements_total", l),
            full_waits: reg.counter("fblas_channel_full_waits_total", l),
            empty_waits: reg.counter("fblas_channel_empty_waits_total", l),
            chunk_push_ops: reg.counter(
                "fblas_channel_chunk_ops_total",
                &[("channel", channel), ("op", "push")],
            ),
            chunk_pop_ops: reg.counter(
                "fblas_channel_chunk_ops_total",
                &[("channel", channel), ("op", "pop")],
            ),
            wait_us: reg.histogram("fblas_channel_wait_us", l),
        }
    }

    /// Record the wall time of a completed blocked wait.
    #[inline]
    fn record_wait(&self, since: Option<Instant>) {
        if let Some(t0) = since {
            self.wait_us.record(fblas_metrics::elapsed_us(t0));
        }
    }
}

struct ChannelCore<T> {
    ctx: Arc<CtxShared>,
    name: Arc<str>,
    capacity: usize,
    state: Mutex<ChanState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    /// Per-channel element sequence numbers, advanced only on the armed
    /// path. SPSC discipline makes them reproducible across runs, which
    /// is what lets a `FaultHook` target "element 17 of channel X"
    /// deterministically.
    push_seq: AtomicU64,
    pop_seq: AtomicU64,
    /// Telemetry handles, present only when the metrics runtime was
    /// armed when the channel was created.
    metrics: Option<ChanMetrics>,
}

/// Record one injected fault against `target` (a channel or module
/// name): a `fault:<target>` sample on the attached tracer, if any, and
/// a `fblas_fault_injected_total` count labeled by action in the global
/// registry, if armed. Cold: only reachable while a fault hook is armed.
#[cold]
pub(crate) fn record_fault(target: &str, action: &str) {
    fblas_trace::record_fault(target);
    if let Some(reg) = fblas_metrics::registry() {
        reg.counter("fblas_fault_injected_total", &[("action", action)])
            .inc();
    }
}

impl<T> ChannelCore<T> {
    fn poisoned(&self) -> bool {
        self.ctx.poisoned.load(Ordering::Acquire)
    }

    /// The error a poisoned operation surfaces, naming the module whose
    /// failure caused the poisoning when that is known.
    fn poison_err(&self) -> SimError {
        SimError::Poisoned {
            by: self.ctx.poison_cause(),
        }
    }

    fn fault_armed(&self) -> bool {
        self.ctx.fault_armed.load(Ordering::Relaxed)
    }

    fn disconnected(&self) -> SimError {
        SimError::Disconnected {
            channel: self.name.to_string(),
        }
    }

    fn cond(&self, dir: WaitDirection) -> &Condvar {
        match dir {
            WaitDirection::Full => &self.not_full,
            WaitDirection::Empty => &self.not_empty,
        }
    }

    /// The waiter on `dir` can proceed: wake it if it is parked, and stop
    /// counting it as blocked now rather than when its thread runs.
    fn wake(&self, st: &mut ChanState<T>, dir: WaitDirection) {
        let side = st.side(dir);
        if side.parked > 0 {
            self.cond(dir).notify_one();
            if side.blocked.take().is_some() {
                self.ctx.unblock();
            }
        }
    }

    /// Account `k` elements just moved through the FIFO by the side that
    /// waits on `dir` (`Full` for a push, `Empty` for a pop): advance the
    /// progress epoch and element counters, and wake the other side if it
    /// is parked.
    fn moved(&self, st: &mut ChanState<T>, dir: WaitDirection, k: usize) {
        self.ctx.epoch.fetch_add(k as u64, Ordering::Release);
        match dir {
            WaitDirection::Full => {
                st.stats.transferred += k as u64;
                st.stats.max_occupancy = st.stats.max_occupancy.max(st.queue.len());
                self.wake(st, WaitDirection::Empty);
                if let Some(m) = &self.metrics {
                    m.push_elements.add(k as u64);
                }
            }
            WaitDirection::Empty => {
                self.wake(st, WaitDirection::Full);
                if let Some(m) = &self.metrics {
                    m.pop_elements.add(k as u64);
                }
            }
        }
    }

    /// Count one wait on `dir` in the channel stats and telemetry.
    fn count_wait(&self, st: &mut ChanState<T>, dir: WaitDirection) {
        match dir {
            WaitDirection::Full => {
                st.stats.full_stalls += 1;
                if let Some(m) = &self.metrics {
                    m.full_waits.inc();
                }
            }
            WaitDirection::Empty => {
                st.stats.empty_stalls += 1;
                if let Some(m) = &self.metrics {
                    m.empty_waits.inc();
                }
            }
        }
    }

    /// The blocking wait every push and pop shares.
    ///
    /// Runs `attempt` under the state lock until it returns `Some`; it
    /// moves what it can and errors on a disconnect. Elements it moves are
    /// accounted here (see [`moved`](Self::moved)), so a chunk split at
    /// capacity advances stats and wakes its peer per transfer section.
    /// Returns the result and whether the operation waited.
    ///
    /// A miss starts a wait episode: one stall count, then the bounded
    /// backoff ([`BACKOFF_ROUNDS`] `yield_now` rounds with the lock
    /// dropped, re-checking after each). When the backoff runs out the
    /// thread parks until it is woken, counting one stall per park. Its
    /// first park marks it blocked; the mark stays until the peer clears
    /// it, so a split chunk that resumes and must park again marks itself
    /// anew. The mark that makes every live module blocked declares the
    /// deadlock. The poison flag is checked under the lock the park
    /// releases, and poisoning wakes parked waiters under that lock, so
    /// no poison is missed.
    fn transfer<R>(
        &self,
        dir: WaitDirection,
        mut attempt: impl FnMut(&mut ChanState<T>) -> Result<Option<R>, SimError>,
    ) -> Result<(R, bool), SimError> {
        let mut waited = false;
        let mut wait_from: Option<Instant> = None;
        // Backoff rounds spent in the current wait episode, if one is open.
        let mut episode: Option<u32> = None;
        let mut st = self.state.lock();
        loop {
            if self.poisoned() {
                // The one way out that leaves this waiter's mark set.
                if st.side(dir).blocked.take().is_some() {
                    self.ctx.unblock();
                }
                return Err(self.poison_err());
            }
            let before = st.queue.len();
            let done = attempt(&mut st)?;
            let k = st.queue.len().abs_diff(before);
            if k > 0 {
                self.moved(&mut st, dir, k);
                episode = None;
            }
            if let Some(r) = done {
                drop(st);
                if let Some(m) = &self.metrics {
                    m.record_wait(wait_from);
                }
                return Ok((r, waited));
            }
            let round = match episode {
                Some(round) => round,
                None => {
                    waited = true;
                    self.count_wait(&mut st, dir);
                    if self.metrics.is_some() && wait_from.is_none() {
                        wait_from = Some(Instant::now());
                    }
                    0
                }
            };
            if round < BACKOFF_ROUNDS {
                drop(st);
                std::thread::yield_now();
                episode = Some(round + 1);
                st = self.state.lock();
                continue;
            }
            self.count_wait(&mut st, dir);
            if st.side(dir).blocked.is_none() {
                let module = fblas_trace::current_module().unwrap_or_else(|| Arc::from("?"));
                st.side(dir).blocked = Some(module);
                if self.ctx.block() {
                    // This park would leave every live module blocked:
                    // the deadlock exists now. The snapshot reads every
                    // channel, this one included, so release it first.
                    drop(st);
                    self.ctx.declare_stall();
                    st = self.state.lock();
                    continue;
                }
            }
            st.side(dir).parked += 1;
            self.cond(dir).wait(&mut st);
            st.side(dir).parked -= 1;
        }
    }
}

impl<T: Send + 'static> ChannelProbe for ChannelCore<T> {
    fn probe_name(&self) -> String {
        self.name.to_string()
    }

    fn probe_stats(&self) -> ChannelStats {
        self.state.lock().stats.clone()
    }

    fn probe_occupancy(&self) -> usize {
        self.state.lock().queue.len()
    }

    fn probe_guard(&self) -> Option<GuardReport> {
        self.state.lock().guard.report(&self.name)
    }

    fn probe_blocked(&self, out: &mut Vec<BlockedModule>) {
        let st = self.state.lock();
        for (side, direction) in [
            (&st.full, WaitDirection::Full),
            (&st.empty, WaitDirection::Empty),
        ] {
            if let Some(module) = &side.blocked {
                out.push(BlockedModule {
                    module: module.to_string(),
                    channel: self.name.to_string(),
                    direction,
                    occupancy: st.queue.len(),
                    capacity: self.capacity,
                });
            }
        }
    }

    fn probe_wake(&self) {
        let _st = self.state.lock();
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Producer endpoint of a bounded SPSC channel.
///
/// Not [`Clone`]: the single-producer discipline of hardware FIFOs is
/// enforced by the type system.
pub struct Sender<T> {
    core: Arc<ChannelCore<T>>,
}

/// Consumer endpoint of a bounded SPSC channel.
pub struct Receiver<T> {
    core: Arc<ChannelCore<T>>,
}

/// Create a bounded SPSC channel registered with `ctx`.
///
/// `capacity` is the FIFO depth (must be ≥ 1); `name` identifies the channel
/// in error messages and statistics. In the paper's terms this instantiates
/// an on-chip FIFO buffer of the given depth between two modules.
///
/// # Panics
/// Panics if `capacity == 0` — hardware FIFOs have at least one slot.
pub fn channel<T: Send + 'static>(
    ctx: &SimContext,
    capacity: usize,
    name: impl Into<String>,
) -> (Sender<T>, Receiver<T>) {
    try_channel(ctx, capacity, name).expect("channel capacity must be at least 1")
}

/// Fallible form of [`channel`]: returns [`SimError::Config`] instead of
/// panicking when `capacity == 0`. Use this when the depth comes from
/// user input (a planner config, a lint document) rather than from code
/// that already validated it.
pub fn try_channel<T: Send + 'static>(
    ctx: &SimContext,
    capacity: usize,
    name: impl Into<String>,
) -> Result<(Sender<T>, Receiver<T>), SimError> {
    let name = name.into();
    if capacity == 0 {
        return Err(SimError::Config {
            detail: format!("channel `{name}` has capacity 0; hardware FIFOs need >= 1 slot"),
        });
    }
    let metrics = fblas_metrics::registry().map(|reg| ChanMetrics::new(&reg, &name, capacity));
    let core = Arc::new(ChannelCore {
        ctx: ctx.shared(),
        name: Arc::from(name),
        capacity,
        state: Mutex::new(ChanState {
            queue: VecDeque::with_capacity(capacity.min(1 << 16)),
            sender_alive: true,
            receiver_alive: true,
            stats: ChannelStats::default(),
            guard: GuardState::default(),
            full: Side::default(),
            empty: Side::default(),
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        push_seq: AtomicU64::new(0),
        pop_seq: AtomicU64::new(0),
        metrics,
    });
    ctx.register_probe(core.clone());
    Ok((Sender { core: core.clone() }, Receiver { core }))
}

impl<T: Send + 'static> Sender<T> {
    /// Push one element, blocking while the FIFO is full.
    ///
    /// Fails with [`SimError::Poisoned`] if the simulation was torn down
    /// (e.g. after stall detection) and [`SimError::Disconnected`] if the
    /// consumer is gone — which for fixed-count BLAS streams means the
    /// producer and consumer disagree on element counts (an invalid edge).
    pub fn push(&self, value: T) -> Result<(), SimError> {
        if self.core.fault_armed() {
            return self.push_armed(value);
        }
        self.push_raw(value)
    }

    /// The unarmed push path: the fault layer costs it only one relaxed
    /// atomic load in [`push`](Self::push).
    fn push_raw(&self, value: T) -> Result<(), SimError> {
        let core = &self.core;
        let trace_from = fblas_trace::op_start();
        let mut value = Some(value);
        let ((), waited) = core.transfer(WaitDirection::Full, |st| {
            if !st.receiver_alive {
                return Err(core.disconnected());
            }
            if st.queue.len() < core.capacity {
                st.queue.extend(value.take());
                return Ok(Some(()));
            }
            Ok(None)
        })?;
        if let Some(from) = trace_from {
            fblas_trace::record_channel_op(EventKind::Push, &core.name, from, waited);
        }
        Ok(())
    }

    /// Push with the fault hook consulted: records the integrity guard
    /// **before** injection (so the digest captures what the producer
    /// meant to send), then applies any fault targeted at this
    /// element's sequence number.
    #[cold]
    fn push_armed(&self, mut value: T) -> Result<(), SimError> {
        let core = &self.core;
        core.state.lock().guard.record_push(&value);
        let seq = core.push_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(action) = core.ctx.fault_for(FaultSite::Push, &core.name, seq) {
            record_fault(&core.name, action.label());
            match action {
                FaultAction::Corrupt { bit } => {
                    flip_bit(&mut value, bit);
                }
                // The element vanishes before reaching the FIFO; the
                // producer proceeds as if the transfer happened.
                FaultAction::DropElement => return Ok(()),
                FaultAction::Duplicate => {
                    if let Some(dup) = duplicate_value(&value) {
                        self.push_raw(dup)?;
                    }
                }
                FaultAction::Delay { micros } => {
                    std::thread::sleep(Duration::from_micros(micros));
                }
            }
        }
        self.push_raw(value)
    }

    /// Push every element of `buf`, in order, moving whole chunks under
    /// one lock acquisition. On success `buf` is left empty (its
    /// allocation retained, so callers can refill and reuse it).
    ///
    /// Backpressure semantics are identical to pushing the elements one
    /// by one: a chunk larger than the free capacity transfers what
    /// fits, then waits (counting `full_stalls` and, once parked,
    /// registering in the wait-for table) until the consumer makes
    /// room, and resumes with the remainder. Stats, the progress epoch,
    /// and the trace advance by the number of elements moved — once per
    /// lock acquisition instead of once per element.
    ///
    /// On error the already-transferred prefix has been delivered and
    /// `buf` retains the unsent tail.
    pub fn push_chunk(&self, buf: &mut Vec<T>) -> Result<(), SimError> {
        if self.core.fault_armed() {
            return self.push_chunk_armed(buf);
        }
        self.push_chunk_raw(buf)
    }

    fn push_chunk_raw(&self, buf: &mut Vec<T>) -> Result<(), SimError> {
        let core = &self.core;
        if buf.is_empty() {
            return Ok(());
        }
        let trace_from = fblas_trace::op_start();
        let total = buf.len() as u64;
        // A chunk larger than the free capacity moves what fits, then
        // waits exactly like a sequential push finding the FIFO full.
        let ((), waited) = core.transfer(WaitDirection::Full, |st| {
            if !st.receiver_alive {
                return Err(core.disconnected());
            }
            let k = (core.capacity - st.queue.len()).min(buf.len());
            st.queue.extend(buf.drain(..k));
            Ok(buf.is_empty().then_some(()))
        })?;
        if let Some(m) = &core.metrics {
            m.chunk_push_ops.inc();
        }
        if let Some(from) = trace_from {
            fblas_trace::record_channel_chunk(EventKind::Push, &core.name, from, waited, total);
        }
        Ok(())
    }

    /// Chunked push with the fault hook consulted: degrades to
    /// element-wise [`push_armed`](Self::push_armed) so every element
    /// gets its own sequence number and fault opportunity, keeping
    /// injection points identical across chunk-size sweeps. On error
    /// `buf` retains the not-yet-attempted tail (the element in flight
    /// when the error surfaced is consumed).
    #[cold]
    fn push_chunk_armed(&self, buf: &mut Vec<T>) -> Result<(), SimError> {
        let rest = std::mem::take(buf);
        let mut iter = rest.into_iter();
        while let Some(v) = iter.next() {
            if let Err(e) = self.push_armed(v) {
                *buf = iter.collect();
                return Err(e);
            }
        }
        Ok(())
    }

    /// Non-blocking best-effort push of as much of `buf` as currently
    /// fits, under one lock acquisition; elements that do not fit stay
    /// in `buf`. Never waits and never consults the fault hook — this
    /// exists for teardown paths ([`ChunkWriter`](crate::ChunkWriter)'s
    /// drop salvage) that must not block during unwinding.
    pub fn try_push_chunk(&self, buf: &mut Vec<T>) -> Result<(), SimError> {
        let core = &self.core;
        if buf.is_empty() {
            return Ok(());
        }
        let mut st = core.state.lock();
        if core.poisoned() {
            return Err(core.poison_err());
        }
        if !st.receiver_alive {
            return Err(core.disconnected());
        }
        let k = (core.capacity - st.queue.len()).min(buf.len());
        if k > 0 {
            st.queue.extend(buf.drain(..k));
            core.moved(&mut st, WaitDirection::Full, k);
        }
        Ok(())
    }

    /// Push every element of an iterator, in order, batching transfers
    /// into chunks of the configured size (`FBLAS_CHUNK`, default 256).
    pub fn push_iter<I: IntoIterator<Item = T>>(&self, iter: I) -> Result<(), SimError> {
        let chunk = default_chunk();
        if chunk <= 1 {
            for v in iter {
                self.push(v)?;
            }
            return Ok(());
        }
        let mut buf = Vec::with_capacity(chunk);
        for v in iter {
            buf.push(v);
            if buf.len() == chunk {
                self.push_chunk(&mut buf)?;
            }
        }
        self.push_chunk(&mut buf)
    }

    /// Snapshot of this channel's statistics.
    pub fn stats(&self) -> ChannelStats {
        self.core.state.lock().stats.clone()
    }

    /// The channel's configured FIFO depth.
    pub fn capacity(&self) -> usize {
        self.core.capacity
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.core.name
    }
}

impl<T: Clone + Send + 'static> Sender<T> {
    /// Push every element of a slice, in order, cloning each chunk in
    /// bulk and transferring it under one lock acquisition.
    pub fn push_slice(&self, values: &[T]) -> Result<(), SimError> {
        let chunk = default_chunk();
        if chunk <= 1 {
            for v in values {
                self.push(v.clone())?;
            }
            return Ok(());
        }
        let mut buf = Vec::with_capacity(chunk.min(values.len()));
        for part in values.chunks(chunk) {
            buf.extend_from_slice(part);
            self.push_chunk(&mut buf)?;
        }
        Ok(())
    }
}

impl<T: Send + 'static> Receiver<T> {
    /// Pop one element, blocking while the FIFO is empty.
    ///
    /// Fails with [`SimError::Disconnected`] if the FIFO is empty and the
    /// producer endpoint has been dropped: the consumer expected more
    /// elements than were produced (count-mismatched composition).
    pub fn pop(&self) -> Result<T, SimError> {
        if self.core.fault_armed() {
            return self.pop_armed();
        }
        self.pop_raw()
    }

    /// The unarmed pop path (see [`Sender::push_raw`] on zero-cost
    /// disarming).
    fn pop_raw(&self) -> Result<T, SimError> {
        let core = &self.core;
        let trace_from = fblas_trace::op_start();
        let (v, waited) = core.transfer(WaitDirection::Empty, |st| match st.queue.pop_front() {
            Some(v) => Ok(Some(v)),
            None if st.sender_alive => Ok(None),
            None => Err(core.disconnected()),
        })?;
        if let Some(from) = trace_from {
            fblas_trace::record_channel_op(EventKind::Pop, &core.name, from, waited);
        }
        Ok(v)
    }

    /// Pop with the fault hook consulted: applies any fault targeted at
    /// this element's sequence number, then records the integrity guard
    /// **after** injection (so the digest captures what the consumer
    /// actually observed).
    #[cold]
    fn pop_armed(&self) -> Result<T, SimError> {
        let core = &self.core;
        loop {
            let mut value = self.pop_raw()?;
            let seq = core.pop_seq.fetch_add(1, Ordering::Relaxed);
            if let Some(action) = core.ctx.fault_for(FaultSite::Pop, &core.name, seq) {
                record_fault(&core.name, action.label());
                match action {
                    FaultAction::Corrupt { bit } => {
                        flip_bit(&mut value, bit);
                    }
                    // The element is consumed and discarded; the
                    // consumer keeps waiting for the next one.
                    FaultAction::DropElement => continue,
                    // Duplication is a push-side fault; ignored here.
                    FaultAction::Duplicate => {}
                    FaultAction::Delay { micros } => {
                        std::thread::sleep(Duration::from_micros(micros));
                    }
                }
            }
            core.state.lock().guard.record_pop(&value);
            return Ok(value);
        }
    }

    /// Pop up to `max` elements into `out` under one lock acquisition,
    /// returning how many were appended.
    ///
    /// Blocks only until *at least one* element is available (or the
    /// producer disconnects / the simulation is poisoned), then takes
    /// whatever is queued up to `max` — it never waits to fill the
    /// chunk, so a consumer using `pop_chunk` in a loop observes the
    /// same element sequence and liveness as one calling [`Self::pop`] per
    /// element. Stats, the progress epoch, and the trace advance by the
    /// number of elements taken.
    pub fn pop_chunk(&self, out: &mut Vec<T>, max: usize) -> Result<usize, SimError> {
        if max == 0 {
            return Ok(0);
        }
        if self.core.fault_armed() {
            // Degrade to one element per call so every element gets its
            // own sequence number and fault opportunity; callers loop
            // until satisfied, so semantics are unchanged.
            let v = self.pop_armed()?;
            out.push(v);
            return Ok(1);
        }
        self.pop_chunk_raw(out, max)
    }

    fn pop_chunk_raw(&self, out: &mut Vec<T>, max: usize) -> Result<usize, SimError> {
        let core = &self.core;
        let trace_from = fblas_trace::op_start();
        let (k, waited) = core.transfer(WaitDirection::Empty, |st| {
            if st.queue.is_empty() {
                return if st.sender_alive {
                    Ok(None)
                } else {
                    Err(core.disconnected())
                };
            }
            let k = st.queue.len().min(max);
            out.extend(st.queue.drain(..k));
            Ok(Some(k))
        })?;
        if let Some(m) = &core.metrics {
            m.chunk_pop_ops.inc();
        }
        if let Some(from) = trace_from {
            fblas_trace::record_channel_chunk(EventKind::Pop, &core.name, from, waited, k as u64);
        }
        Ok(k)
    }

    /// Pop exactly `n` elements into a fresh `Vec`, batching transfers
    /// into chunks of the configured size (`FBLAS_CHUNK`, default 256).
    pub fn pop_n(&self, n: usize) -> Result<Vec<T>, SimError> {
        let chunk = default_chunk();
        let mut out = Vec::with_capacity(n);
        if chunk <= 1 {
            for _ in 0..n {
                out.push(self.pop()?);
            }
            return Ok(out);
        }
        while out.len() < n {
            let want = (n - out.len()).min(chunk);
            self.pop_chunk(&mut out, want)?;
        }
        Ok(out)
    }

    /// Pop elements until the producer disconnects, collecting everything.
    ///
    /// Unlike [`pop`](Self::pop), a disconnect here is the *expected* end of
    /// stream. Any other error is propagated.
    pub fn drain(&self) -> Result<Vec<T>, SimError> {
        let chunk = default_chunk().max(1);
        let mut out = Vec::new();
        loop {
            match self.pop_chunk(&mut out, chunk) {
                Ok(_) => {}
                Err(SimError::Disconnected { .. }) => return Ok(out),
                Err(e) => return Err(e),
            }
        }
    }

    /// Snapshot of this channel's statistics.
    pub fn stats(&self) -> ChannelStats {
        self.core.state.lock().stats.clone()
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.core.name
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.core.state.lock();
        st.sender_alive = false;
        self.core.wake(&mut st, WaitDirection::Empty);
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.core.state.lock();
        st.receiver_alive = false;
        self.core.wake(&mut st, WaitDirection::Full);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModuleKind, SimContext, Simulation};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_is_preserved() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 4, "ch");
        thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100 {
                    tx.push(i).unwrap();
                }
            });
            let got = rx.pop_n(100).unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 3, "ch");
        thread::scope(|s| {
            s.spawn(move || tx.push_iter(0..50).unwrap());
            let all = rx.pop_n(50).unwrap();
            assert_eq!(all.len(), 50);
            assert!(rx.stats().max_occupancy <= 3);
        });
    }

    #[test]
    fn producer_blocks_when_full() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 1, "ch");
        thread::scope(|s| {
            s.spawn(move || {
                tx.push(1).unwrap();
                tx.push(2).unwrap(); // must wait until consumer pops
            });
            thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.pop().unwrap(), 1);
            assert_eq!(rx.pop().unwrap(), 2);
            assert!(rx.stats().full_stalls >= 1);
        });
    }

    #[test]
    fn pop_after_sender_drop_reports_disconnect() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 2, "ch_x");
        tx.push(7).unwrap();
        drop(tx);
        assert_eq!(rx.pop().unwrap(), 7);
        match rx.pop() {
            Err(SimError::Disconnected { channel }) => assert_eq!(channel, "ch_x"),
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn push_after_receiver_drop_reports_disconnect() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 2, "ch_y");
        drop(rx);
        assert!(matches!(tx.push(1), Err(SimError::Disconnected { .. })));
    }

    #[test]
    fn drain_collects_until_eos() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 8, "ch");
        thread::scope(|s| {
            s.spawn(move || {
                tx.push_slice(&[1, 2, 3]).unwrap();
            });
            assert_eq!(rx.drain().unwrap(), vec![1, 2, 3]);
        });
    }

    #[test]
    fn poisoning_unblocks_a_stuck_producer() {
        let ctx = SimContext::new();
        let (tx, _rx) = channel::<u8>(&ctx, 1, "ch");
        let ctx2 = ctx.clone();
        thread::scope(|s| {
            let h = s.spawn(move || {
                tx.push(1).unwrap();
                tx.push(2) // blocks: capacity 1, nobody pops
            });
            thread::sleep(Duration::from_millis(20));
            ctx2.poison();
            assert_eq!(h.join().unwrap(), Err(SimError::Poisoned { by: None }));
        });
    }

    use crate::fault::{FaultHook, ModuleFault};

    struct ChannelFaultAt {
        site: FaultSite,
        index: u64,
        action: FaultAction,
    }

    impl FaultHook for ChannelFaultAt {
        fn on_channel(&self, site: FaultSite, _channel: &str, index: u64) -> Option<FaultAction> {
            (site == self.site && index == self.index).then_some(self.action)
        }
        fn on_module_start(&self, _: &str) -> Option<ModuleFault> {
            None
        }
    }

    #[test]
    fn armed_corrupt_fault_flips_the_targeted_element_and_trips_the_guard() {
        let ctx = SimContext::new();
        ctx.arm_faults(Arc::new(ChannelFaultAt {
            site: FaultSite::Push,
            index: 2,
            action: FaultAction::Corrupt { bit: 0 },
        }));
        let (tx, rx) = channel::<u64>(&ctx, 8, "chaos");
        tx.push_slice(&[10, 20, 30, 40]).unwrap();
        drop(tx);
        assert_eq!(rx.drain().unwrap(), vec![10, 20, 31, 40]);
        let guards = ctx.guard_reports();
        assert_eq!(guards.len(), 1);
        let g = &guards[0];
        assert_eq!((g.pushed, g.popped), (4, 4));
        assert!(g.tracked && !g.digests_match && !g.clean());
    }

    #[test]
    fn armed_pop_side_corruption_is_also_caught() {
        // Push-side digest records the intended value; the pop-side
        // digest records what the consumer saw post-fault.
        let ctx = SimContext::new();
        ctx.arm_faults(Arc::new(ChannelFaultAt {
            site: FaultSite::Pop,
            index: 0,
            action: FaultAction::Corrupt { bit: 63 },
        }));
        let (tx, rx) = channel::<u64>(&ctx, 4, "chaos_pop");
        tx.push_slice(&[5]).unwrap();
        drop(tx);
        assert_eq!(rx.drain().unwrap(), vec![5 | (1 << 63)]);
        assert!(!ctx.guard_reports()[0].clean());
    }

    #[test]
    fn armed_drop_and_duplicate_faults_skew_the_guard_counts() {
        let ctx = SimContext::new();
        ctx.arm_faults(Arc::new(ChannelFaultAt {
            site: FaultSite::Push,
            index: 1,
            action: FaultAction::DropElement,
        }));
        let (tx, rx) = channel::<u64>(&ctx, 8, "chaos_drop");
        tx.push_slice(&[10, 20, 30]).unwrap();
        drop(tx);
        assert_eq!(rx.drain().unwrap(), vec![10, 30]);
        let g = &ctx.guard_reports()[0];
        assert_eq!((g.pushed, g.popped), (3, 2));
        assert!(!g.clean());

        let ctx = SimContext::new();
        ctx.arm_faults(Arc::new(ChannelFaultAt {
            site: FaultSite::Push,
            index: 1,
            action: FaultAction::Duplicate,
        }));
        let (tx, rx) = channel::<u64>(&ctx, 8, "chaos_dup");
        tx.push_slice(&[10, 20, 30]).unwrap();
        drop(tx);
        assert_eq!(rx.drain().unwrap(), vec![10, 20, 20, 30]);
        let g = &ctx.guard_reports()[0];
        assert_eq!((g.pushed, g.popped), (3, 4));
        assert!(!g.clean());
    }

    #[test]
    fn disarmed_context_keeps_guards_silent() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u64>(&ctx, 8, "quiet");
        tx.push_slice(&[1, 2, 3]).unwrap();
        drop(tx);
        assert_eq!(rx.drain().unwrap(), vec![1, 2, 3]);
        assert!(ctx.guard_reports().is_empty());
    }

    #[test]
    fn try_push_chunk_moves_what_fits_without_blocking() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 2, "try");
        let mut buf = vec![1, 2, 3, 4];
        tx.try_push_chunk(&mut buf).unwrap();
        assert_eq!(buf, vec![3, 4], "overflow stays in the buffer");
        assert_eq!(rx.pop_n(2).unwrap(), vec![1, 2]);
        tx.try_push_chunk(&mut buf).unwrap();
        assert!(buf.is_empty());
        drop(tx);
        assert_eq!(rx.drain().unwrap(), vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let ctx = SimContext::new();
        let _ = channel::<u8>(&ctx, 0, "bad");
    }

    #[test]
    fn try_channel_reports_zero_capacity_as_config_error() {
        let ctx = SimContext::new();
        match try_channel::<u8>(&ctx, 0, "bad") {
            Err(SimError::Config { detail }) => {
                assert!(detail.contains("`bad`"), "{detail}");
                assert!(detail.contains("capacity 0"), "{detail}");
            }
            other => panic!("expected Config error, got {:?}", other.map(|_| ())),
        }
        // The happy path is identical to `channel`.
        let (tx, rx) = try_channel::<u8>(&ctx, 2, "ok").unwrap();
        tx.push(9).unwrap();
        drop(tx);
        assert_eq!(rx.pop().unwrap(), 9);
    }

    #[test]
    fn stats_track_transfers() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 16, "ch");
        tx.push_slice(&[1, 2, 3, 4]).unwrap();
        let _ = rx.pop_n(4).unwrap();
        assert_eq!(tx.stats().transferred, 4);
        assert_eq!(tx.stats().max_occupancy, 4);
    }

    #[test]
    fn push_chunk_splits_at_capacity_and_preserves_order() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 4, "ch");
        thread::scope(|s| {
            s.spawn(move || {
                let mut buf: Vec<u32> = (0..64).collect();
                tx.push_chunk(&mut buf).unwrap();
                assert!(buf.is_empty(), "successful push_chunk drains the buffer");
                assert!(
                    tx.stats().full_stalls >= 1,
                    "a 64-element chunk into a depth-4 FIFO must stall"
                );
            });
            // Slow consumer: forces the producer to split repeatedly.
            let mut got = Vec::new();
            while got.len() < 64 {
                thread::sleep(Duration::from_millis(1));
                rx.pop_chunk(&mut got, 64).unwrap();
            }
            assert_eq!(got, (0..64).collect::<Vec<_>>());
            assert!(rx.stats().max_occupancy <= 4);
        });
    }

    #[test]
    fn pop_chunk_takes_what_is_available_without_waiting_to_fill() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 8, "ch");
        tx.push_slice(&[1, 2, 3]).unwrap();
        let mut out = Vec::new();
        // Asks for up to 100 but must return the 3 queued elements now.
        assert_eq!(rx.pop_chunk(&mut out, 100).unwrap(), 3);
        assert_eq!(out, vec![1, 2, 3]);
        // max == 0 is a no-op even on an empty channel.
        assert_eq!(rx.pop_chunk(&mut out, 0).unwrap(), 0);
    }

    #[test]
    fn pop_chunk_reports_disconnect_only_when_empty() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 8, "ch_z");
        tx.push_slice(&[9, 8]).unwrap();
        drop(tx);
        let mut out = Vec::new();
        assert_eq!(rx.pop_chunk(&mut out, 10).unwrap(), 2);
        match rx.pop_chunk(&mut out, 10) {
            Err(SimError::Disconnected { channel }) => assert_eq!(channel, "ch_z"),
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn push_chunk_error_keeps_unsent_tail() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u8>(&ctx, 2, "ch");
        drop(rx);
        let mut buf = vec![1, 2, 3, 4];
        assert!(matches!(
            tx.push_chunk(&mut buf),
            Err(SimError::Disconnected { .. })
        ));
        assert_eq!(buf, vec![1, 2, 3, 4], "nothing sent to a dead consumer");
    }

    #[test]
    fn empty_push_chunk_is_a_no_op() {
        let ctx = SimContext::new();
        let (tx, _rx) = channel::<u8>(&ctx, 1, "ch");
        let mut buf = Vec::new();
        tx.push_chunk(&mut buf).unwrap();
        assert_eq!(tx.stats().transferred, 0);
    }

    #[test]
    fn handoff_satisfied_in_the_backoff_is_one_wait_with_a_waited_span() {
        // The producer watches for the consumer's miss and, holding the
        // state lock from that moment, hands the element over while the
        // consumer is still in its backoff: the consumer cannot park
        // without the lock. A consumer descheduled long enough to park
        // before the producer looked does not exercise the backoff; that
        // trial is retried.
        for _ in 0..1000 {
            let ctx = SimContext::new();
            let (tx, rx) = channel::<u32>(&ctx, 1, "hand");
            let tracer = fblas_trace::Tracer::new();
            let parked = thread::scope(|s| {
                let consumer = s.spawn(|| {
                    let _scope = fblas_trace::ModuleScope::enter("sink", Some(&tracer));
                    rx.pop()
                });
                let core = &tx.core;
                let parked = loop {
                    let mut st = core.state.lock();
                    if st.stats.empty_stalls == 0 {
                        drop(st);
                        thread::yield_now();
                        continue;
                    }
                    if st.empty.parked > 0 {
                        break true;
                    }
                    assert_eq!(
                        ctx.shared().liveness.lock().blocked,
                        0,
                        "a thread in its backoff is not counted as blocked"
                    );
                    st.queue.push_back(7);
                    core.moved(&mut st, WaitDirection::Full, 1);
                    break false;
                };
                if parked {
                    tx.push(7).unwrap();
                }
                assert_eq!(consumer.join().unwrap(), Ok(7));
                parked
            });
            if parked {
                continue;
            }
            assert_eq!(rx.stats().empty_stalls, 1, "one wait episode, no park");
            let lane = &tracer.lanes()[0];
            assert_eq!(lane.empty_stall_by_channel.len(), 1);
            assert_eq!(lane.empty_stall_by_channel[0].0.as_ref(), "hand");
            assert!(
                lane.events.iter().any(|e| e.kind == EventKind::EmptyStall),
                "the pop is traced as a waited operation"
            );
            return;
        }
        panic!("the consumer parked in every trial");
    }

    #[test]
    fn satisfied_waiter_stops_counting_as_blocked_before_it_runs() {
        // The producer waits until the consumer has parked, then, holding
        // the state lock the consumer needs to wake, hands it an element.
        // The consumer cannot have run, yet it must already be off the
        // blocked count: the notifier does the accounting.
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 1, "exact");
        thread::scope(|s| {
            let consumer = s.spawn(|| rx.pop());
            let core = &tx.core;
            loop {
                let mut st = core.state.lock();
                if st.empty.parked == 0 {
                    drop(st);
                    thread::yield_now();
                    continue;
                }
                assert_eq!(ctx.shared().liveness.lock().blocked, 1, "parked waiter");
                assert!(st.empty.blocked.is_some());
                st.queue.push_back(7);
                core.moved(&mut st, WaitDirection::Full, 1);
                assert_eq!(
                    ctx.shared().liveness.lock().blocked,
                    0,
                    "a satisfied waiter is runnable, not blocked"
                );
                assert!(st.empty.blocked.is_none());
                assert_eq!(st.empty.parked, 1, "the consumer has not run yet");
                break;
            }
            assert_eq!(consumer.join().unwrap(), Ok(7));
        });
        assert_eq!(ctx.shared().liveness.lock().blocked, 0);
    }

    #[test]
    fn a_parked_waiter_counts_one_stall_per_park() {
        // The consumer parks on an empty FIFO and stays parked until the
        // push 25 ms later: one count opens the wait episode and one
        // counts the park, however long it lasts.
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 1, "parked");
        thread::scope(|s| {
            let consumer = s.spawn(|| rx.pop());
            ctx.shared().await_blocked();
            thread::sleep(Duration::from_millis(25));
            tx.push(7).unwrap();
            assert_eq!(consumer.join().unwrap(), Ok(7));
        });
        assert_eq!(rx.stats().empty_stalls, 2);
    }

    #[test]
    fn split_chunk_marks_itself_again_when_it_parks_again() {
        // The producer parks mid-chunk; the consumer's pop unblocks it,
        // it moves what fits and must park again, now blocked anew. Only
        // then does the consumer park on a channel nobody feeds, which
        // makes both blocked: the stall names the producer mid-chunk.
        let mut sim = Simulation::new();
        let ctx = sim.ctx().clone();
        let (tx, rx) = channel::<u32>(sim.ctx(), 4, "narrow");
        let (never_tx, never_rx) = channel::<u8>(sim.ctx(), 1, "never");
        sim.set_deadline(Duration::from_secs(10));
        sim.add_module("bulk", ModuleKind::Compute, move || {
            let mut buf: Vec<u32> = (0..64).collect();
            tx.push_chunk(&mut buf)?;
            never_tx.push(1)
        });
        sim.add_module("sink", ModuleKind::Compute, move || {
            ctx.shared().await_blocked();
            let mut out = Vec::new();
            rx.pop_chunk(&mut out, 2)?;
            ctx.shared().await_blocked();
            never_rx.pop().map(drop)
        });
        match sim.run() {
            Err(SimError::Stall { report }) => {
                assert_eq!(report.blocked.len(), 2);
                let b = report.blocked_on("bulk").expect("producer blocked");
                assert_eq!(b.channel, "narrow");
                assert_eq!(b.direction, WaitDirection::Full);
                assert_eq!((b.occupancy, b.capacity), (4, 4));
                let c = report.blocked_on("sink").expect("consumer blocked");
                assert_eq!(c.channel, "never");
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn parked_pair_still_yields_a_stall_report_naming_the_channels() {
        // Each module fills its depth-1 output and pushes again before
        // reading: both back off and park, and the second to park makes
        // every live module blocked.
        let mut sim = Simulation::new();
        let ctx = sim.ctx().clone();
        let (tx_ab, rx_ab) = channel::<u8>(sim.ctx(), 1, "full_ab");
        let (tx_ba, rx_ba) = channel::<u8>(sim.ctx(), 1, "full_ba");
        sim.add_module("a", ModuleKind::Compute, move || {
            tx_ab.push(1)?;
            tx_ab.push(2)?;
            rx_ba.pop().map(drop)
        });
        sim.add_module("b", ModuleKind::Compute, move || {
            tx_ba.push(1)?;
            tx_ba.push(2)?;
            rx_ab.pop().map(drop)
        });
        match sim.run() {
            Err(SimError::Stall { report }) => {
                assert_eq!(report.blocked.len(), 2);
                for (module, chan) in [("a", "full_ab"), ("b", "full_ba")] {
                    let w = report.blocked_on(module).expect("module in wait-for graph");
                    assert_eq!(w.channel, chan);
                    assert_eq!(w.direction, WaitDirection::Full);
                    assert_eq!((w.occupancy, w.capacity), (1, 1));
                }
            }
            other => panic!("expected stall, got {other:?}"),
        }
        for (name, st) in ctx.channel_stats() {
            // One count for the wait episode plus one per park.
            assert!(st.full_stalls >= 2, "{name}: {st:?}");
        }
    }

    #[test]
    fn chunked_and_elementwise_transfers_agree_on_stats() {
        // Same seeded stream moved both ways: transferred and
        // max_occupancy must match exactly (stall counts are timing
        // dependent, so only checked for presence under pressure).
        let data: Vec<u64> = (0..5000).map(|i: u64| i.wrapping_mul(2654435761)).collect();
        let run = |chunked: bool| -> (ChannelStats, Vec<u64>) {
            let ctx = SimContext::new();
            let (tx, rx) = channel::<u64>(&ctx, 16, "ch");
            let data = data.clone();
            thread::scope(|s| {
                s.spawn(move || {
                    if chunked {
                        let mut buf = Vec::new();
                        for part in data.chunks(64) {
                            buf.extend_from_slice(part);
                            tx.push_chunk(&mut buf).unwrap();
                        }
                    } else {
                        for v in data {
                            tx.push(v).unwrap();
                        }
                    }
                });
                let mut got = Vec::new();
                while got.len() < 5000 {
                    if chunked {
                        rx.pop_chunk(&mut got, 64).unwrap();
                    } else {
                        got.push(rx.pop().unwrap());
                    }
                }
                (rx.stats(), got)
            })
        };
        let (st_elem, got_elem) = run(false);
        let (st_chunk, got_chunk) = run(true);
        assert_eq!(got_elem, got_chunk);
        assert_eq!(st_elem.transferred, st_chunk.transferred);
        assert_eq!(st_chunk.transferred, 5000);
        // Both runs bound occupancy by the FIFO depth.
        assert!(st_elem.max_occupancy <= 16 && st_chunk.max_occupancy <= 16);
    }
}
