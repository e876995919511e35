//! Deterministic fault-injection hooks and channel integrity guards.
//!
//! Real FPGA deployments face transient faults the happy-path simulator
//! never exercises: SEU bit flips in FIFO payloads, dropped or
//! duplicated beats, memory-bank latency spikes, crashed or hung
//! kernels. This module defines the *hook* layer those faults are
//! injected through — the policy (which fault, where, when) lives in
//! the `fblas-chaos` crate, which implements [`FaultHook`] with seeded,
//! reproducible plans.
//!
//! # Zero cost when disarmed
//!
//! A channel operation consults the hook only after observing the
//! context's `fault_armed` flag — a single relaxed atomic load. With no
//! hook armed the data path is byte-identical to a build without this
//! module, which the committed benchmark baselines verify.
//!
//! # Integrity guards
//!
//! While a hook is armed every channel additionally maintains an
//! *integrity guard*: element counts on both endpoints plus
//! order-sensitive FNV-1a digests over the element bit patterns, taken
//! **before** fault injection on the push side and **after** it on the
//! pop side. Any corruption the FIFO carried — a flipped bit, a dropped
//! or duplicated element — shows up as a count or digest mismatch in
//! the channel's [`GuardReport`], independent of whether the numeric
//! error is large enough for an ABFT checksum to notice.

use std::any::Any;

use serde::Serialize;

/// Which side of a channel a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FaultSite {
    /// The producer's `push` (payload faults corrupt what enters the
    /// FIFO).
    Push,
    /// The consumer's `pop` (payload faults corrupt what leaves it).
    Pop,
}

impl FaultSite {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSite::Push => "push",
            FaultSite::Pop => "pop",
        }
    }
}

/// A fault applied to one channel payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultAction {
    /// Flip one bit of the element's binary representation (an SEU).
    Corrupt {
        /// Bit index, modulo the payload width.
        bit: u32,
    },
    /// Lose the element: pushed but never enqueued (push side), or
    /// consumed and discarded (pop side).
    DropElement,
    /// Deliver the element twice (push side only; ignored on pop).
    Duplicate,
    /// Stall this transfer for a latency spike of the given length.
    Delay {
        /// Injected delay in microseconds.
        micros: u64,
    },
}

impl FaultAction {
    /// Stable lowercase label for reports and trace series.
    pub fn label(&self) -> &'static str {
        match self {
            FaultAction::Corrupt { .. } => "corrupt",
            FaultAction::DropElement => "drop",
            FaultAction::Duplicate => "duplicate",
            FaultAction::Delay { .. } => "delay",
        }
    }
}

/// A fault applied to a module as a whole, at the moment its thread
/// starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ModuleFault {
    /// The module panics before doing any work (a crashed kernel). The
    /// runner converts the panic to
    /// [`SimError::Module`](crate::SimError::Module) and poisons peers
    /// with the module named.
    Crash,
    /// The module stops making progress while holding its endpoints
    /// open (a hung kernel): peers block on its channels and only a
    /// [`Simulation::set_deadline`](crate::Simulation::set_deadline)
    /// can end the run.
    Hang,
}

impl ModuleFault {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ModuleFault::Crash => "crash",
            ModuleFault::Hang => "hang",
        }
    }
}

/// Decides, per channel payload and per module start, whether to inject
/// a fault. Implementations must be deterministic in their inputs: the
/// simulator guarantees `index` is the per-channel element sequence
/// number (SPSC channels make it reproducible across runs).
pub trait FaultHook: Send + Sync {
    /// Fault to apply to element `index` of `channel` at `site`, if any.
    fn on_channel(&self, site: FaultSite, channel: &str, index: u64) -> Option<FaultAction>;

    /// Fault to apply to `module` as its thread starts, if any.
    fn on_module_start(&self, module: &str) -> Option<ModuleFault>;
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_step(mut acc: u64, bits: u64) -> u64 {
    for byte in bits.to_le_bytes() {
        acc ^= byte as u64;
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Fold `value`'s bit pattern into an order-sensitive FNV-1a digest.
/// Returns `None` for payload types the guard does not understand
/// (guards then fall back to count-only tracking).
pub fn hash_bits(value: &dyn Any, acc: u64) -> Option<u64> {
    macro_rules! try_types {
        ($($t:ty => $conv:expr),+ $(,)?) => {
            $(if let Some(v) = value.downcast_ref::<$t>() {
                #[allow(clippy::redundant_closure_call)]
                return Some(fnv_step(acc, ($conv)(*v)));
            })+
        };
    }
    try_types!(
        f64 => |v: f64| v.to_bits(),
        f32 => |v: f32| v.to_bits() as u64,
        u64 => |v: u64| v,
        u32 => |v: u32| v as u64,
        u16 => |v: u16| v as u64,
        u8 => |v: u8| v as u64,
        i64 => |v: i64| v as u64,
        i32 => |v: i32| v as u64,
        i16 => |v: i16| v as u64,
        i8 => |v: i8| v as u64,
        usize => |v: usize| v as u64,
        isize => |v: isize| v as u64,
    );
    None
}

/// Flip bit `bit` (modulo the payload width) of a supported scalar
/// payload in place. Returns `false` (no-op) for unsupported types.
pub fn flip_bit<T: Any>(value: &mut T, bit: u32) -> bool {
    let any: &mut dyn Any = value;
    macro_rules! try_types {
        ($($t:ty : $bits:ty),+ $(,)?) => {
            $(if let Some(v) = any.downcast_mut::<$t>() {
                let w = <$bits>::BITS;
                let flipped = <$t>::from_bits(v.to_bits() ^ (1 << (bit % w)));
                *v = flipped;
                return true;
            })+
        };
    }
    try_types!(f64: u64, f32: u32);
    macro_rules! try_ints {
        ($($t:ty),+ $(,)?) => {
            $(if let Some(v) = any.downcast_mut::<$t>() {
                *v ^= 1 << (bit % <$t>::BITS);
                return true;
            })+
        };
    }
    try_ints!(u64, u32, u16, u8, i64, i32, i16, i8, usize, isize);
    false
}

/// Bitwise copy of a supported scalar payload (the `Duplicate` fault
/// needs a second value without requiring `T: Clone` on the channel).
/// Returns `None` for unsupported types, in which case the duplicate is
/// silently skipped.
pub fn duplicate_value<T: Any>(value: &T) -> Option<T> {
    let any: &dyn Any = value;
    macro_rules! try_types {
        ($($t:ty),+ $(,)?) => {
            $(if let Some(v) = any.downcast_ref::<$t>() {
                let boxed: Box<dyn Any> = Box::new(*v);
                return boxed.downcast::<T>().ok().map(|b| *b);
            })+
        };
    }
    try_types!(f64, f32, u64, u32, u16, u8, i64, i32, i16, i8, usize, isize);
    None
}

/// Integrity verdict for one channel after a run with faults armed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GuardReport {
    /// Channel name.
    pub channel: String,
    /// Elements the producer pushed (counted before any push-side
    /// fault, so dropped elements still count).
    pub pushed: u64,
    /// Elements the consumer received (counted after any pop-side
    /// fault, so discarded elements do not count).
    pub popped: u64,
    /// Whether the payload type supports bit-pattern digests; when
    /// `false` only the counts are meaningful.
    pub tracked: bool,
    /// Whether the push-side and pop-side digests agree (`true` for
    /// untracked payloads — counts are the only evidence there).
    pub digests_match: bool,
}

impl GuardReport {
    /// Whether the channel carried every element unmodified: counts
    /// agree, and (for tracked payloads) the digests agree.
    pub fn clean(&self) -> bool {
        self.pushed == self.popped && self.digests_match
    }
}

/// Per-channel guard accumulator; lives inside the channel's state
/// mutex and is only touched while a fault hook is armed.
#[derive(Debug)]
pub(crate) struct GuardState {
    pushed: u64,
    popped: u64,
    push_digest: u64,
    pop_digest: u64,
    tracked: bool,
    used: bool,
}

impl Default for GuardState {
    fn default() -> Self {
        GuardState {
            pushed: 0,
            popped: 0,
            push_digest: FNV_OFFSET,
            pop_digest: FNV_OFFSET,
            tracked: true,
            used: false,
        }
    }
}

impl GuardState {
    pub(crate) fn record_push<T: Any>(&mut self, value: &T) {
        self.used = true;
        self.pushed += 1;
        if self.tracked {
            match hash_bits(value, self.push_digest) {
                Some(d) => self.push_digest = d,
                None => self.tracked = false,
            }
        }
    }

    pub(crate) fn record_pop<T: Any>(&mut self, value: &T) {
        self.used = true;
        self.popped += 1;
        if self.tracked {
            match hash_bits(value, self.pop_digest) {
                Some(d) => self.pop_digest = d,
                None => self.tracked = false,
            }
        }
    }

    /// Report for this channel, `None` if no armed operation touched it.
    pub(crate) fn report(&self, channel: &str) -> Option<GuardReport> {
        if !self.used {
            return None;
        }
        Some(GuardReport {
            channel: channel.to_string(),
            pushed: self.pushed,
            popped: self.popped,
            tracked: self.tracked,
            digests_match: !self.tracked || self.push_digest == self.pop_digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_bit_round_trips() {
        let mut v = 1.5f64;
        assert!(flip_bit(&mut v, 3));
        assert_ne!(v, 1.5);
        assert!(flip_bit(&mut v, 3));
        assert_eq!(v, 1.5);
        let mut u = 0u32;
        assert!(flip_bit(&mut u, 35)); // 35 % 32 == 3
        assert_eq!(u, 8);
        let mut s = "text".to_string();
        assert!(!flip_bit(&mut s, 0), "unsupported types are no-ops");
    }

    #[test]
    fn duplicate_copies_supported_scalars_only() {
        assert_eq!(duplicate_value(&2.5f32), Some(2.5f32));
        assert_eq!(duplicate_value(&7u64), Some(7u64));
        assert_eq!(duplicate_value(&String::from("x")), None);
    }

    #[test]
    fn digests_are_order_sensitive() {
        let a = hash_bits(&1.0f64, FNV_OFFSET).unwrap();
        let ab = hash_bits(&2.0f64, a).unwrap();
        let b = hash_bits(&2.0f64, FNV_OFFSET).unwrap();
        let ba = hash_bits(&1.0f64, b).unwrap();
        assert_ne!(ab, ba, "swapped element order must change the digest");
    }

    #[test]
    fn guard_flags_corruption_drop_and_duplication() {
        // Clean stream.
        let mut g = GuardState::default();
        for v in [1.0f64, 2.0, 3.0] {
            g.record_push(&v);
        }
        for v in [1.0f64, 2.0, 3.0] {
            g.record_pop(&v);
        }
        assert!(g.report("ch").unwrap().clean());

        // One low-order bit flipped in transit: counts agree, digest not.
        let mut g = GuardState::default();
        g.record_push(&1.0f64);
        let mut corrupted = 1.0f64;
        flip_bit(&mut corrupted, 0);
        g.record_pop(&corrupted);
        let r = g.report("ch").unwrap();
        assert!(!r.clean() && !r.digests_match && r.pushed == r.popped);

        // Dropped element: counts disagree.
        let mut g = GuardState::default();
        g.record_push(&1.0f64);
        g.record_push(&2.0f64);
        g.record_pop(&1.0f64);
        assert!(!g.report("ch").unwrap().clean());
    }

    #[test]
    fn untracked_payloads_fall_back_to_counts() {
        let mut g = GuardState::default();
        g.record_push(&(1usize, 2.0f64));
        g.record_pop(&(1usize, 2.0f64));
        let r = g.report("ch").unwrap();
        assert!(!r.tracked);
        assert!(r.clean(), "matching counts are clean without digests");
    }

    #[test]
    fn untouched_guard_yields_no_report() {
        assert!(GuardState::default().report("idle").is_none());
    }
}
