//! # fblas-audit — closing the loop between model and measurement
//!
//! The FBLAS paper's central analytic claim is the pipeline cycle model
//! `C = L + I·M` (Sec. IV) and its composition rule
//! `C_streamed = Σ L_i + max_i (I_i·M_i)` (Sec. V-A). The simulator
//! (`fblas-hlssim`) *measures* what a composition actually does —
//! per-module run spans, FIFO stall time, element counts — but nothing in
//! the stack compared prediction to measurement, so model drift was
//! invisible.
//!
//! This crate is that comparison:
//!
//! * an [`AuditSpec`] carries the *predicted* side — per-module
//!   [`PipelineCost`](fblas_hlssim::PipelineCost)s, the clock
//!   frequency, the DRAM ceiling, and the MDAG critical path;
//! * [`measure::aggregate`] condenses the *measured* side from
//!   [`fblas_trace::Lane`]s into per-module cycle/throughput/stall
//!   figures;
//! * [`audit`] joins the two into an [`AuditReport`]: per-module drift
//!   between predicted and measured busy share, each gap attributed to
//!   compute, the memory-bandwidth ceiling, or upstream/downstream
//!   backpressure, plus a bottleneck verdict with a what-if estimate for
//!   widening the bottleneck's vectorization `W`.
//!
//! The report is serde-serializable, renders as a terminal table
//! ([`AuditReport::render`]), and can inject its per-module busy/drift
//! figures into a [`Tracer`](fblas_trace::Tracer) as counter tracks for
//! the Perfetto exporter ([`AuditReport::record_counters`]).
//!
//! The normalization that makes the comparison meaningful: the software
//! simulator is not cycle-accurate, so absolute wall-clock cannot be
//! held against absolute cycles. What *is* comparable is each module's
//! **busy share**. In a streaming composition the model says module `i`
//! initiates work for `I_i·M_i` of the `max_j (I_j·M_j)` cycles the
//! pipeline drains over, so its predicted busy share is
//! `I_i·M_i / max_j (I_j·M_j)`. The measured side is normalized the
//! same way: the lane's non-stalled time `run − full_wait − empty_wait`
//! relative to the *busiest* lane's, `busy_i / max_j busy_j`. Using the
//! ratio (rather than each module's own busy fraction) keeps the
//! comparison valid on core-starved hosts, where concurrent module
//! threads timeshare and every busy time is scaled together. A module
//! whose measured share falls short of prediction is losing time the
//! model did not account for — and the stall ledger says to whom.
//!
//! **Fused-backend caveat.** When the executor compiles a validated
//! fusion region into a single loop (`FBLAS_BACKEND=fused`/`auto`),
//! that whole region runs as one compute lane named `fused:<region>`:
//! there are no channels inside it, so no per-channel stall ledger and
//! no per-module busy split within the region. Modeled cycles are
//! still emitted per fused *op* and remain backend-invariant; only
//! wall-clock drift *attribution* loses intra-region resolution. Runs
//! that need per-module drift attribution should pin `FBLAS_CHUNK=1`
//! **and** `FBLAS_BACKEND=threaded`.

#![warn(missing_docs)]

pub mod measure;
pub mod report;
pub mod spec;

pub use measure::{aggregate, ModuleMeasure};
pub use report::{audit, Attribution, AuditReport, ModuleAudit, WhatIf};
pub use spec::{AuditSpec, ChannelEdge, ModulePrediction};

/// Default relative drift tolerance: a module is flagged when its
/// measured busy share deviates from the predicted share by more than
/// this fraction.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Tolerance for audits that do not pass one explicitly:
/// [`DEFAULT_TOLERANCE`] unless the `FBLAS_AUDIT_TOLERANCE` environment
/// variable overrides it with a finite value in `(0, 1]`.
pub fn default_tolerance() -> f64 {
    parse_tolerance(std::env::var("FBLAS_AUDIT_TOLERANCE").ok().as_deref())
}

/// Parse a tolerance override; out-of-range and garbage values fall back
/// to [`DEFAULT_TOLERANCE`].
pub fn parse_tolerance(raw: Option<&str>) -> f64 {
    raw.and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t > 0.0 && *t <= 1.0)
        .unwrap_or(DEFAULT_TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_parsing_rejects_garbage_and_out_of_range() {
        assert_eq!(parse_tolerance(None), DEFAULT_TOLERANCE);
        assert_eq!(parse_tolerance(Some("0.4")), 0.4);
        assert_eq!(parse_tolerance(Some(" 0.1 ")), 0.1);
        assert_eq!(parse_tolerance(Some("0")), DEFAULT_TOLERANCE);
        assert_eq!(parse_tolerance(Some("-0.3")), DEFAULT_TOLERANCE);
        assert_eq!(parse_tolerance(Some("2.5")), DEFAULT_TOLERANCE);
        assert_eq!(parse_tolerance(Some("NaN")), DEFAULT_TOLERANCE);
        assert_eq!(parse_tolerance(Some("soon")), DEFAULT_TOLERANCE);
    }
}
