//! Structured stall forensics.
//!
//! When a composition is declared stalled (the paper's "stalls forever",
//! Sec. V-B), the interesting question is *why*: which modules were
//! blocked, on which channels, in which direction, and how full those
//! FIFOs were at the moment of detection. That wait-for snapshot is taken
//! **before** the context is poisoned — poisoning cascades `Poisoned`
//! errors through every module and destroys the evidence — and carried
//! inside [`SimError::Stall`](crate::SimError::Stall) as a [`StallReport`].

use std::fmt;

use serde::Serialize;

/// Which condition a blocked module was waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WaitDirection {
    /// Blocked in `push`: the FIFO was full (waiting for space).
    Full,
    /// Blocked in `pop`: the FIFO was empty (waiting for data).
    Empty,
}

impl fmt::Display for WaitDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitDirection::Full => write!(f, "full"),
            WaitDirection::Empty => write!(f, "empty"),
        }
    }
}

/// One edge of the wait-for graph: a module blocked on a channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BlockedModule {
    /// Name of the blocked module (`"?"` when the wait happened outside a
    /// named module thread).
    pub module: String,
    /// Name of the channel it is blocked on.
    pub channel: String,
    /// Whether it found the channel full (push side) or empty (pop side).
    pub direction: WaitDirection,
    /// FIFO occupancy at the moment of detection.
    pub occupancy: usize,
    /// FIFO capacity.
    pub capacity: usize,
}

/// Wait-for graph snapshot taken when a stall is declared (or a run
/// deadline expires).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StallReport {
    /// Progress epoch (total successful transfers) at detection.
    pub epoch: u64,
    /// Every module blocked on a channel operation, with the channel's
    /// state at detection. For a true deadlock this is the full cycle.
    pub blocked: Vec<BlockedModule>,
}

impl StallReport {
    /// The entry for a given module name, if that module was blocked.
    pub fn blocked_on(&self, module: &str) -> Option<&BlockedModule> {
        self.blocked.iter().find(|b| b.module == module)
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blocked modules at epoch {}: [", self.epoch)?;
        for (i, b) in self.blocked.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{} waiting on `{}` ({}, {}/{})",
                b.module, b.channel, b.direction, b.occupancy, b.capacity
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StallReport {
        StallReport {
            epoch: 7,
            blocked: vec![
                BlockedModule {
                    module: "producer".into(),
                    channel: "small".into(),
                    direction: WaitDirection::Full,
                    occupancy: 4,
                    capacity: 4,
                },
                BlockedModule {
                    module: "consumer".into(),
                    channel: "res".into(),
                    direction: WaitDirection::Empty,
                    occupancy: 0,
                    capacity: 1,
                },
            ],
        }
    }

    #[test]
    fn display_names_every_blocked_module() {
        let text = sample().to_string();
        assert!(text.contains("blocked modules"));
        assert!(text.contains("producer waiting on `small` (full, 4/4)"));
        assert!(text.contains("consumer waiting on `res` (empty, 0/1)"));
    }

    #[test]
    fn lookup_by_module_name() {
        let report = sample();
        assert_eq!(report.blocked_on("consumer").unwrap().channel, "res");
        assert!(report.blocked_on("ghost").is_none());
    }

    #[test]
    fn report_serializes_to_json() {
        let text = serde_json::to_string(&sample()).unwrap();
        assert!(text.contains("\"epoch\""));
        assert!(text.contains("\"Full\""));
        assert!(text.contains("\"occupancy\""));
    }
}
