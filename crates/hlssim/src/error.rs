//! Error type shared by channels, modules, and the simulation runner.

use std::fmt;

use crate::stall::StallReport;

/// Errors surfaced by the dataflow simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The composition deadlocked: every live module was blocked on a
    /// channel operation that only another blocked module could
    /// complete. This is the deterministic rendering of the paper's
    /// "the composition would stall forever" (Sec. V-B).
    Stall {
        /// Wait-for graph snapshot taken at detection time, before
        /// poisoning: per blocked module, the channel it waited on, the
        /// direction (full vs. empty), and the FIFO state.
        report: StallReport,
    },
    /// A channel was poisoned (by stall detection or by a peer module
    /// failing); the pending operation cannot complete.
    Poisoned {
        /// The module whose failure triggered the poisoning, when known
        /// (a panicking peer is named here; poisoning by a declared stall
        /// or an expired deadline leaves it `None` because the error
        /// itself carries the forensics).
        by: Option<String>,
    },
    /// The simulation exceeded the wall-clock deadline configured with
    /// [`crate::Simulation::set_deadline`] while at least one module
    /// was still live. Unlike [`SimError::Stall`] this fires even when
    /// the hung module is not blocked on any channel (e.g. an injected
    /// hang fault spinning without touching its FIFOs).
    Deadline {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
        /// Wait-for graph snapshot taken at expiry, before poisoning:
        /// whatever modules *were* channel-blocked at that moment.
        report: StallReport,
    },
    /// A `pop` found the channel empty with the producer gone, or a `push`
    /// found the consumer gone; under an armed fault hook, also a run
    /// that ended with an element left in the channel that its integrity
    /// guard does not flag. For BLAS modules all element counts are
    /// statically known, so a disconnect mid-stream indicates a protocol
    /// mismatch between producer and consumer (e.g. incompatible tiling
    /// schemes — an *invalid edge* in the paper's MDAG terminology).
    Disconnected {
        /// Name of the channel on which the mismatch was detected.
        channel: String,
    },
    /// A module returned an application-level error.
    Module {
        /// Name of the failing module.
        module: String,
        /// Error description.
        detail: String,
    },
    /// A simulation object was configured with parameters that cannot
    /// describe hardware (e.g. a zero-capacity FIFO). Returned by the
    /// fallible constructors ([`crate::try_channel`]) so callers driven
    /// by user input can reject bad configs without panicking.
    Config {
        /// What was wrong.
        detail: String,
    },
}

impl SimError {
    /// Convenience constructor for module-level failures.
    pub fn module(module: impl Into<String>, detail: impl Into<String>) -> Self {
        SimError::Module {
            module: module.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stall { report } => write!(f, "composition stalled: {report}"),
            SimError::Poisoned { by: None } => write!(f, "channel poisoned during teardown"),
            SimError::Poisoned { by: Some(module) } => {
                write!(
                    f,
                    "channel poisoned during teardown (module `{module}` failed)"
                )
            }
            SimError::Deadline {
                deadline_ms,
                report,
            } => {
                write!(
                    f,
                    "simulation deadline ({deadline_ms} ms) exceeded: {report}"
                )
            }
            SimError::Disconnected { channel } => {
                write!(
                    f,
                    "channel `{channel}` disconnected mid-stream (protocol mismatch)"
                )
            }
            SimError::Module { module, detail } => {
                write!(f, "module `{module}` failed: {detail}")
            }
            SimError::Config { detail } => write!(f, "invalid configuration: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stall::{BlockedModule, WaitDirection};

    fn stall_report() -> StallReport {
        StallReport {
            epoch: 3,
            blocked: vec![BlockedModule {
                module: "a".into(),
                channel: "ch".into(),
                direction: WaitDirection::Empty,
                occupancy: 0,
                capacity: 1,
            }],
        }
    }

    #[test]
    fn display_formats_are_informative() {
        let e = SimError::Stall {
            report: stall_report(),
        };
        assert!(e.to_string().contains("stalled"));
        assert!(e.to_string().contains("blocked modules"));
        assert!(e.to_string().contains("`ch`"));
        let e = SimError::Disconnected {
            channel: "ch_x".into(),
        };
        assert!(e.to_string().contains("ch_x"));
        let e = SimError::module("dot", "bad N");
        assert!(e.to_string().contains("dot") && e.to_string().contains("bad N"));
        assert_eq!(
            SimError::Poisoned { by: None }.to_string(),
            "channel poisoned during teardown"
        );
        let e = SimError::Poisoned {
            by: Some("gemv".into()),
        };
        assert!(e.to_string().contains("`gemv`"));
        let e = SimError::Deadline {
            deadline_ms: 800,
            report: stall_report(),
        };
        assert!(e.to_string().contains("deadline (800 ms)"));
    }

    #[test]
    fn equality_distinguishes_variants() {
        assert_ne!(
            SimError::Poisoned { by: None },
            SimError::Stall {
                report: stall_report()
            }
        );
        assert_eq!(
            SimError::module("a", "b"),
            SimError::Module {
                module: "a".into(),
                detail: "b".into()
            }
        );
    }
}
