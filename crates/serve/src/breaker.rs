//! Per-(tenant, plan-shape) circuit breakers.
//!
//! A *plan shape* is the content hash of everything the planner and
//! executor see — ops, operand kinds and dimensions, planner config —
//! but **not** operand data. Requests that keep failing with
//! infrastructure kinds (stall, deadline, corruption, panic…) charge
//! their tenant's breaker for that shape; after a threshold of
//! *consecutive* failures the breaker opens and further requests
//! fast-fail at admission with the last postmortem bundle path instead
//! of burning a worker on a run that is going to die again. One
//! success closes the breaker.
//!
//! Breakers are keyed by **(tenant, shape)**, not shape alone: a
//! tenant whose requests keep failing for reasons of its own making —
//! a chaos-armed corruption storm, a deadline too tight to ever meet —
//! opens only *its* breaker. A neighbor submitting the structurally
//! identical program is admitted normally; one tenant can never
//! fast-fail another's valid traffic (cross-tenant denial of service).
//!
//! Caller-error kinds (`plan`, `error`) never trip a breaker — see
//! [`RecoveryErrorKind::trips_breaker`].

use std::collections::HashMap;

use fblas_core::composition::RecoveryErrorKind;
use fblas_lint::input::ProgramDoc;
use parking_lot::Mutex;

use crate::protocol::fnv1a;

/// Content-hash of a program's *shape* (FNV-1a; data-independent).
/// Operand references are mixed with their field tag (`a:`/`x:`/`y:`/
/// `out:`, absence as `-`) so the same name in different roles — or a
/// present operand vs an absent one — hashes differently.
pub fn shape_hash(doc: &ProgramDoc) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |s: &str| h = fnv1a(s.as_bytes()) ^ h.rotate_left(7);
    for od in &doc.operands {
        mix(&od.name);
        mix(&od.kind);
        mix(&format!(
            "{}x{}x{}",
            od.len.unwrap_or(0),
            od.rows.unwrap_or(0),
            od.cols.unwrap_or(0)
        ));
    }
    for op in &doc.ops {
        mix(&op.op);
        for (tag, v) in [("a", &op.a), ("x", &op.x), ("y", &op.y), ("out", &op.out)] {
            match v {
                Some(name) => mix(&format!("{tag}:{name}")),
                None => mix(&format!("{tag}:-")),
            }
        }
        mix(&format!("t{}", op.transposed.unwrap_or(false)));
    }
    mix(&format!(
        "cfg{}:{}:{}:{}",
        doc.config.tn.unwrap_or(0),
        doc.config.tm.unwrap_or(0),
        doc.config.default_depth.unwrap_or(0),
        doc.config.allow_deep_channels.unwrap_or(false)
    ));
    h
}

#[derive(Default)]
struct ShapeState {
    consecutive: u32,
    open: bool,
    last_postmortem: Option<String>,
}

/// What an open breaker tells the shed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerOpen {
    /// Consecutive failures that opened it.
    pub failures: u32,
    /// Path of the last postmortem bundle of this (tenant, shape), if
    /// one was persisted.
    pub last_postmortem: Option<String>,
}

/// Breakers for every (tenant, shape) pair seen this process.
pub struct Breakers {
    threshold: u32,
    states: Mutex<HashMap<(String, u64), ShapeState>>,
}

impl Breakers {
    /// Breakers opening after `threshold` consecutive breaker-eligible
    /// failures.
    pub fn new(threshold: u32) -> Breakers {
        Breakers {
            threshold: threshold.max(1),
            states: Mutex::new(HashMap::new()),
        }
    }

    /// Admission check: `Err` when this tenant's breaker for the shape
    /// is open.
    pub fn check(&self, tenant: &str, shape: u64) -> Result<(), BreakerOpen> {
        let states = self.states.lock();
        match states.get(&(tenant.to_string(), shape)) {
            Some(s) if s.open => Err(BreakerOpen {
                failures: s.consecutive,
                last_postmortem: s.last_postmortem.clone(),
            }),
            _ => Ok(()),
        }
    }

    /// A request of this (tenant, shape) completed: close and reset the
    /// breaker.
    pub fn record_success(&self, tenant: &str, shape: u64) {
        let mut states = self.states.lock();
        if let Some(s) = states.get_mut(&(tenant.to_string(), shape)) {
            s.consecutive = 0;
            s.open = false;
        }
    }

    /// A request of this (tenant, shape) failed terminally with `kind`;
    /// returns whether this failure opened the breaker.
    pub fn record_failure(
        &self,
        tenant: &str,
        shape: u64,
        kind: RecoveryErrorKind,
        postmortem: Option<String>,
    ) -> bool {
        if !kind.trips_breaker() {
            return false;
        }
        let mut states = self.states.lock();
        let s = states.entry((tenant.to_string(), shape)).or_default();
        s.consecutive += 1;
        if postmortem.is_some() {
            s.last_postmortem = postmortem;
        }
        if !s.open && s.consecutive >= self.threshold {
            s.open = true;
            return true;
        }
        false
    }

    /// Close every breaker (the `reset_breakers` control verb).
    pub fn reset(&self) {
        self.states.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_lint::input::{ConfigDoc, OpDoc, OperandDoc};

    fn doc(len: usize) -> ProgramDoc {
        ProgramDoc {
            operands: vec![
                OperandDoc {
                    name: "x".into(),
                    kind: "vector".into(),
                    len: Some(len),
                    rows: None,
                    cols: None,
                },
                OperandDoc {
                    name: "o".into(),
                    kind: "vector".into(),
                    len: Some(len),
                    rows: None,
                    cols: None,
                },
            ],
            ops: vec![OpDoc {
                op: "scal".into(),
                alpha: Some(2.0),
                beta: None,
                a: None,
                x: Some("x".into()),
                y: None,
                out: Some("o".into()),
                transposed: None,
            }],
            config: ConfigDoc::default(),
        }
    }

    #[test]
    fn shape_hash_tracks_shape_not_data() {
        assert_eq!(shape_hash(&doc(8)), shape_hash(&doc(8)));
        assert_ne!(shape_hash(&doc(8)), shape_hash(&doc(16)));
        let mut alpha_differs = doc(8);
        alpha_differs.ops[0].alpha = Some(99.0);
        // α is data, not shape: the planner builds the same MDAG.
        assert_eq!(shape_hash(&doc(8)), shape_hash(&alpha_differs));
        // Deep channels change the plan, so they change the shape.
        let mut deep = doc(8);
        deep.config.allow_deep_channels = Some(true);
        assert_ne!(shape_hash(&doc(8)), shape_hash(&deep));
    }

    #[test]
    fn shape_hash_distinguishes_operand_roles() {
        // Same operand name, different field: `x:"x"` vs `a:"x"` must
        // not collide into one breaker state.
        let base = doc(8);
        let mut moved = doc(8);
        moved.ops[0].a = moved.ops[0].x.take();
        assert_ne!(shape_hash(&base), shape_hash(&moved));
        // Absence is mixed too: dropping `y` (already absent) is a
        // no-op, but dropping `out` changes the hash.
        let mut no_out = doc(8);
        no_out.ops[0].out = None;
        assert_ne!(shape_hash(&base), shape_hash(&no_out));
    }

    #[test]
    fn opens_after_threshold_and_closes_on_success() {
        let b = Breakers::new(2);
        let s = shape_hash(&doc(8));
        assert!(b.check("t", s).is_ok());
        assert!(!b.record_failure("t", s, RecoveryErrorKind::Corruption, None));
        assert!(b.check("t", s).is_ok(), "one failure below threshold");
        assert!(b.record_failure(
            "t",
            s,
            RecoveryErrorKind::Deadline,
            Some("/tmp/pm.json".into())
        ));
        let open = b.check("t", s).unwrap_err();
        assert_eq!(open.failures, 2);
        assert_eq!(open.last_postmortem.as_deref(), Some("/tmp/pm.json"));
        b.record_success("t", s);
        assert!(b.check("t", s).is_ok(), "success closes the breaker");
    }

    #[test]
    fn breakers_are_tenant_scoped() {
        // One tenant failing a shape must never open the breaker for a
        // neighbor submitting the structurally identical program.
        let b = Breakers::new(1);
        let s = shape_hash(&doc(8));
        assert!(b.record_failure("chaos", s, RecoveryErrorKind::Corruption, None));
        assert!(b.check("chaos", s).is_err(), "own breaker opens");
        assert!(
            b.check("healthy", s).is_ok(),
            "neighbor with the same shape is unaffected"
        );
        // And the neighbor's own failures charge only its key.
        assert!(b.record_failure("healthy", s, RecoveryErrorKind::Stall, None));
        b.record_success("chaos", s);
        assert!(b.check("chaos", s).is_ok());
        assert!(b.check("healthy", s).is_err());
    }

    #[test]
    fn caller_errors_never_trip() {
        let b = Breakers::new(1);
        let s = shape_hash(&doc(8));
        assert!(!b.record_failure("t", s, RecoveryErrorKind::Plan, None));
        assert!(!b.record_failure("t", s, RecoveryErrorKind::Error, None));
        assert!(b.check("t", s).is_ok());
        b.reset();
    }
}
