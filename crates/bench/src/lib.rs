//! Shared machinery for the fblas-rs benchmark harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! FBLAS paper's evaluation (Sec. VI). Functional correctness of the
//! streaming modules is established by the test suite at verification
//! sizes; the harness then evaluates the *models* (cycle, frequency,
//! resource, memory-contention) at the paper's full problem sizes —
//! exactly the quantities the paper reports — and measures the CPU
//! comparator for the CPU columns.
//!
//! [`model`] computes FPGA execution-time estimates for paper-scale
//! problems; [`cpu`] times the `fblas-refblas` comparator, extrapolating
//! linearly in flops where the paper's sizes exceed what a test machine
//! can hold or compute in reasonable time (each such extrapolation is
//! printed alongside the measurement basis). [`runners`] holds the
//! simulator workloads the CPU-timed throughput and overhead binaries
//! share.

#![warn(missing_docs)]

pub mod audit;
pub mod cpu;
pub mod metrics;
pub mod model;
pub mod runners;

/// Pretty-print seconds in the paper's table units (microseconds, or
/// seconds for the long GEMM rows).
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} (sec)")
    } else {
        format!("{:.0}", seconds * 1e6)
    }
}
