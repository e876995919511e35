//! `fblas-lint` — static stream-contract analysis for fBLAS
//! compositions.
//!
//! The FBLAS paper (Sec. V) checks module compositions with a
//! *multitree* heuristic: sufficient for trees of streams, silent on
//! general module DAGs. This crate is the general tool: a multi-pass
//! analyzer that **proves a composition deadlock-free before any
//! simulation runs**, and explains — with stable diagnostic codes,
//! precise locations, and fix-it hints — why a rejected composition
//! cannot work.
//!
//! # Passes
//!
//! 1. **Rate analysis** ([`passes`]) — synchronous-dataflow balance
//!    equations plus an abstract Kahn-network execution
//!    ([`fblas_core::composition::rates`]). Computes the *exact*
//!    minimum depth of every channel; the fix-it on an under-depth
//!    finding is the number you paste into your config (the paper's
//!    fix (a)); a planner split is fix (b).
//! 2. **Contract checks** — the planner's streaming contracts: replay
//!    from a computational producer, tiling-order conflicts, operand
//!    shape and count mismatches, single-writer violations.
//! 3. **Resource feasibility** — composes `fblas-arch` estimates over
//!    the planned components and flags DSP / M20K / DRAM-bandwidth
//!    overcommit for the selected device.
//! 4. **Numeric lints** — W-way accumulation reassociation and
//!    mixed-precision hazards.
//!
//! # Trusting the analyzer
//!
//! A linter that disagrees with the simulator is worse than no linter.
//! The [`harness`] module replays the analyzer's abstract actor
//! programs on the real threaded simulator (`fblas-hlssim`), and the
//! `lint_differential` suite asserts, over hundreds of generated
//! graphs, that *lint accept ⟺ simulation completes* and *lint
//! deadlock ⟺ watchdog stall* — and that every reported minimum
//! channel depth is exact (the depth completes, depth − 1 stalls).
//! Kahn-network determinism is what makes this a theorem rather than a
//! coincidence: blocking point-to-point FIFOs make deadlock
//! schedule-independent, and completion is monotone in capacity.
//!
//! # Input dialects
//!
//! The `fblas-lint` binary (and [`input::classify`]) accepts three
//! JSON document shapes:
//!
//! * `{"routines": [...]}` — a codegen spec file (same schema as
//!   `fblas_core::codegen`);
//! * `{"program": {...}}` — operands + BLAS ops for the composition
//!   planner;
//! * `{"graph": {...}}` — a raw module DAG with explicit per-edge
//!   element counts, depths, and burst annotations.

// Tests may unwrap freely; library code must not (see clippy.toml).
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod diag;
pub mod harness;
pub mod input;
pub mod passes;

pub use diag::{Diagnostic, LintCode, LintReport, Location, Severity, REPORT_VERSION};
pub use harness::{
    differential_grace, run_on_simulator, run_region_threaded, seeded_stream, seeded_streams,
    SimVerdict,
};
pub use input::{classify, Document};
pub use passes::{lint_document, lint_document_full, lint_mdag, LintOutput};

/// Lint a raw JSON document: classify the dialect, run the passes
/// ([`lint_document_full`], which also records the lint metrics).
pub fn lint_json(json: &str, file: &str) -> LintReport {
    lint_json_full(json, file).report
}

/// Like [`lint_json`], but also returns the fusion-plan artifacts the
/// analysis derived (one per analyzable graph, one per planned program
/// component) and a program document's plan.
pub fn lint_json_full(json: &str, file: &str) -> LintOutput {
    match classify(json) {
        Ok(doc) => lint_document_full(&doc, file),
        Err(e) => {
            let mut r = LintReport::new();
            r.push(Diagnostic::new(
                LintCode::FL0010,
                Severity::Error,
                Location {
                    file: Some(file.to_string()),
                    ..Default::default()
                },
                e,
            ));
            LintOutput::report_only(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_json_reports_unparseable_input() {
        let r = lint_json("not json at all", "junk.json");
        assert!(!r.accepted());
        assert_eq!(r.diagnostics[0].code, LintCode::FL0010);
        assert_eq!(r.diagnostics[0].location.file.as_deref(), Some("junk.json"));
    }

    #[test]
    fn lint_json_routes_to_the_right_pass() {
        let r = lint_json(r#"{"routines": [{"blas_name": "sdot"}]}"#, "spec.json");
        assert!(r.accepted(), "{}", r.render_table());
    }
}
