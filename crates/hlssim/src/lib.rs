//! # fblas-hlssim — streaming dataflow simulator substrate
//!
//! This crate is the software stand-in for the FPGA fabric targeted by the
//! FBLAS paper (De Matteis et al., SC 2020). The paper's HLS modules are
//! independent hardware circuits that exchange data through typed, bounded,
//! single-producer/single-consumer FIFO *channels*. Everything that matters
//! for the paper's composition semantics — backpressure, pipeline-parallel
//! execution of simultaneously configured modules, and the possibility of a
//! composition that "stalls forever" (Sec. V-B) — is channel semantics, and
//! is reproduced here exactly:
//!
//! * [`channel()`] provides the bounded SPSC FIFO ([`Sender`] / [`Receiver`])
//!   with blocking `push`/`pop` and poisoning for orderly teardown.
//! * [`Simulation`] runs a set of modules ([`ModuleSpec`]) concurrently (one OS thread per
//!   module, mirroring the spatial concurrency of circuits) and counts the
//!   modules blocked on a channel operation exactly: the moment every live
//!   module is blocked the run is declared *stalled* and every channel is
//!   poisoned, turning the paper's "stalls forever" into a deterministic
//!   [`SimError::Stall`] without any timeout.
//! * [`cycles`] implements the paper's pipeline cost model `C = L + I·M`
//!   (Sec. IV) and the sequential-vs-streamed completion-time formulas of
//!   Sec. V-A, used by the benchmark harness to regenerate the figures.
//! * [`fault`] is the deterministic fault-injection hook layer: a
//!   [`FaultHook`] armed on a [`SimContext`] can flip payload bits, drop
//!   or duplicate elements, delay transfers, and crash or hang whole
//!   modules — with per-channel integrity guards ([`GuardReport`])
//!   catching every corruption the FIFO carried. Zero cost when
//!   disarmed; the seeded plan implementation lives in `fblas-chaos`.
//! * [`mod@env`] centralizes every `FBLAS_*` environment knob with one-time
//!   warnings on invalid values.
//! * [`postmortem`] captures a flight-recorder bundle (time series,
//!   anomalies, stall forensics, knob values) when a run dies; arm it
//!   with `FBLAS_FLIGHT=1` and read it with `fblas-doctor`.
//!
//! The simulator computes *real numerics*: data actually flows through the
//! FIFOs and modules perform the same reduction shapes (e.g. the W-way
//! unrolled accumulation tree of DOT) as the synthesized circuits.

#![warn(missing_docs)]

pub mod channel;
pub mod chunk;
pub mod cycles;
pub mod env;
pub mod error;
pub mod fault;
pub mod module;
pub mod postmortem;
pub mod simulation;
pub mod stall;

pub use channel::{channel, try_channel, ChannelStats, Receiver, Sender};
pub use chunk::{default_chunk, parse_chunk, ChunkReader, ChunkWriter, DEFAULT_CHUNK};
pub use cycles::{streamed_cycles, CompositionCost, PipelineCost};
pub use error::SimError;
pub use fault::{
    duplicate_value, flip_bit, hash_bits, FaultAction, FaultHook, FaultSite, GuardReport,
    ModuleFault,
};
pub use module::{ModuleKind, ModuleSpec};
pub use simulation::{SimContext, Simulation, SimulationReport};
pub use stall::{BlockedModule, StallReport, WaitDirection};
