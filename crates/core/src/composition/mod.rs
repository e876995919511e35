//! Streaming composition analysis (paper Sec. V).
//!
//! Computations are modeled as *module DAGs* (MDAGs): vertices are
//! hardware modules (interface or computational), edges are FIFO
//! channels. [`mdag`] implements the paper's validity analysis — edge
//! validity, multitree detection, channel-depth requirements for
//! non-multitree graphs — plus the I/O-volume accounting used to reason
//! about the benefit of streaming compositions. [`rates`] generalizes
//! that analysis to arbitrary graphs: an abstract Kahn-network
//! execution over per-module push/pop programs that decides
//! deadlock-freedom and computes exact minimum channel depths; the
//! planner routes its channel-sizing decisions through it and
//! `fblas-lint` builds its verdicts on it.

mod abft;
pub mod dataflow;
pub mod executor;
pub mod fused;
pub mod fusion;
pub mod mdag;
pub mod planner;
pub mod rates;

pub use executor::{
    execute_plan, execute_plan_with_recovery_backend, AttemptRecord, ExecError, ExecMode,
    ExecOptions, ExecOutcome, RecoveryError, RecoveryErrorKind, RecoveryReport, RetryPolicy,
};
pub use fused::{fusion_plan_for_component, Backend};
pub use fusion::{
    analyze_fusion, apply_elementwise, apply_elementwise_t, build_evaluator, check_obligations,
    infer_sems, sems_for_component, verify_witnesses, BoundaryChannel, FusedEvaluator, FusedReduce,
    FusedRegion, FusedRun, FusedValues, FusionPlan, FusionRejection, FusionStats, ModuleSem,
    Obligation, TileSem, EXEC_WIDTH, FUSION_PLAN_SCHEMA,
};
pub use mdag::{EdgeId, EdgeInfo, Mdag, NodeId, Validity};
pub use planner::{
    interpret, plan, ContractCause, Op, Plan, PlanError, PlanNote, PlannedComponent, PlannerConfig,
    Program,
};
pub use rates::{Outcome as RateOutcome, RateGraph, Step as RateStep};
