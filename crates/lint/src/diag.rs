//! Diagnostics: stable codes, severities, locations, and renderers.
//!
//! Every finding the analyzer emits is a [`Diagnostic`] with a stable
//! [`LintCode`] (the `FL....` namespace, mirroring rustc's `E....`), a
//! severity, a span-like [`Location`] naming the module/edge/operand it
//! anchors to, a human message, and — where the analysis can compute
//! one — a fix-it hint. Reports render as a human table or as JSON that
//! round-trips through serde (validated in CI).

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Stable diagnostic codes. Codes are append-only: a released code never
/// changes meaning, so downstream tooling can gate on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum LintCode {
    /// Element-count contract violation on a stream (produced ≠ consumed,
    /// or a mid-stream disconnect).
    FL0001,
    /// Tile-order incompatibility between consumers of a shared stream.
    FL0002,
    /// Replay demanded from a computational producer (only interface
    /// modules can replay a stream, paper Sec. III-B).
    FL0003,
    /// Channel depth too small: the composition deadlocks at the
    /// instantiated FIFO depth but a finite deeper FIFO fixes it.
    FL0004,
    /// Cyclic composition (self-loop or dependency cycle).
    FL0005,
    /// Reference to an undeclared operand.
    FL0006,
    /// Operand shape mismatch.
    FL0007,
    /// Static-single-assignment violation: an operand written twice.
    FL0008,
    /// Unknown BLAS routine in a codegen spec.
    FL0009,
    /// Invalid routine or planner parameters.
    FL0010,
    /// DSP overcommit: the design does not fit the device's DSP budget.
    FL0011,
    /// M20K overcommit: on-chip buffers (including deep FIFOs) exceed
    /// the device's block-RAM budget.
    FL0012,
    /// Memory-bandwidth overcommit: concurrent interface streams demand
    /// more than the device's aggregate DRAM bandwidth.
    FL0013,
    /// W-way accumulation reassociates floating-point reduction order.
    FL0014,
    /// Mixed-precision accumulation hazard.
    FL0015,
    /// Derived minimum channel depth (informational: the exact depth at
    /// which the deadlock disappears).
    FL0016,
    /// Unschedulable: no finite channel depth removes the deadlock, or
    /// the analysis could not reach a verdict.
    FL0017,
    /// Retry-unsound in-place update: recovery retries are enabled but
    /// an op writes an operand it also reads, so replaying the
    /// component would consume the partially updated value instead of
    /// the original input.
    FL0018,
    /// Fusable module chain: a maximal run of stateless 1:1-rate relays,
    /// possibly closed by a DOT at the executor's width, that may
    /// legally collapse into a single loop (see the `FusionPlan`
    /// artifact for the proof obligations).
    FL0019,
    /// Fusion blocked: a relay chain cannot be fused; the diagnostic
    /// names the witness (the blocking edge or module).
    FL0020,
    /// Channel depth slack: the instantiated FIFO depth is provably
    /// deeper than the exact minimum under the chosen chunk size.
    FL0021,
    /// Channel depth tight: the instantiated FIFO depth equals the
    /// exact minimum — shrinking it by one deadlocks the composition.
    FL0022,
    /// Pass-through scal: `scal` by 1.0 is the identity; the module
    /// forwards its input unchanged.
    FL0023,
    /// Pass-through copy: a `copy` whose output feeds exactly one
    /// consumer can be spliced out of the pipeline.
    FL0024,
    /// Fusion stops at a W-way reduction whose width differs from the
    /// executor's (`EXEC_WIDTH` = 16): the fused loop replays only the
    /// threaded DOT's own block order, and any other `W` would change
    /// the floating-point reduction order, so the fused result would
    /// not stay bit-identical.
    FL0025,
    /// Dead module: a compute module whose results never reach an
    /// interface write — the values are computed and discarded.
    FL0026,
}

impl LintCode {
    /// The stable code string (`"FL0001"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::FL0001 => "FL0001",
            LintCode::FL0002 => "FL0002",
            LintCode::FL0003 => "FL0003",
            LintCode::FL0004 => "FL0004",
            LintCode::FL0005 => "FL0005",
            LintCode::FL0006 => "FL0006",
            LintCode::FL0007 => "FL0007",
            LintCode::FL0008 => "FL0008",
            LintCode::FL0009 => "FL0009",
            LintCode::FL0010 => "FL0010",
            LintCode::FL0011 => "FL0011",
            LintCode::FL0012 => "FL0012",
            LintCode::FL0013 => "FL0013",
            LintCode::FL0014 => "FL0014",
            LintCode::FL0015 => "FL0015",
            LintCode::FL0016 => "FL0016",
            LintCode::FL0017 => "FL0017",
            LintCode::FL0018 => "FL0018",
            LintCode::FL0019 => "FL0019",
            LintCode::FL0020 => "FL0020",
            LintCode::FL0021 => "FL0021",
            LintCode::FL0022 => "FL0022",
            LintCode::FL0023 => "FL0023",
            LintCode::FL0024 => "FL0024",
            LintCode::FL0025 => "FL0025",
            LintCode::FL0026 => "FL0026",
        }
    }

    /// Short lint name, for the code table in the docs.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::FL0001 => "stream-count-mismatch",
            LintCode::FL0002 => "tile-order-conflict",
            LintCode::FL0003 => "replay-from-compute",
            LintCode::FL0004 => "channel-under-depth",
            LintCode::FL0005 => "cyclic-composition",
            LintCode::FL0006 => "unknown-operand",
            LintCode::FL0007 => "shape-mismatch",
            LintCode::FL0008 => "multiple-writers",
            LintCode::FL0009 => "unknown-routine",
            LintCode::FL0010 => "invalid-parameters",
            LintCode::FL0011 => "dsp-overcommit",
            LintCode::FL0012 => "m20k-overcommit",
            LintCode::FL0013 => "bandwidth-overcommit",
            LintCode::FL0014 => "reassociated-reduction",
            LintCode::FL0015 => "mixed-precision",
            LintCode::FL0016 => "derived-min-depth",
            LintCode::FL0017 => "unschedulable",
            LintCode::FL0018 => "retry-unsound-inplace",
            LintCode::FL0019 => "fusable-chain",
            LintCode::FL0020 => "fusion-blocked",
            LintCode::FL0021 => "channel-depth-slack",
            LintCode::FL0022 => "channel-depth-tight",
            LintCode::FL0023 => "pass-through-scal",
            LintCode::FL0024 => "pass-through-copy",
            LintCode::FL0025 => "fusion-reassociation",
            LintCode::FL0026 => "dead-module",
        }
    }

    /// Every code the analyzer can emit, in numeric order. The fixture
    /// coverage test walks this registry: a code that no committed
    /// fixture triggers is a code whose behavior nothing pins down.
    pub const ALL: &'static [LintCode] = &[
        LintCode::FL0001,
        LintCode::FL0002,
        LintCode::FL0003,
        LintCode::FL0004,
        LintCode::FL0005,
        LintCode::FL0006,
        LintCode::FL0007,
        LintCode::FL0008,
        LintCode::FL0009,
        LintCode::FL0010,
        LintCode::FL0011,
        LintCode::FL0012,
        LintCode::FL0013,
        LintCode::FL0014,
        LintCode::FL0015,
        LintCode::FL0016,
        LintCode::FL0017,
        LintCode::FL0018,
        LintCode::FL0019,
        LintCode::FL0020,
        LintCode::FL0021,
        LintCode::FL0022,
        LintCode::FL0023,
        LintCode::FL0024,
        LintCode::FL0025,
        LintCode::FL0026,
    ];
}

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: a derived fact worth surfacing.
    Note,
    /// Suspicious but not plan-blocking.
    Warning,
    /// The composition cannot run as written.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Span-like anchor for a diagnostic: the document it came from and the
/// graph object (module, channel, operand, op) it points at. All fields
/// optional — a rate-analysis finding names a channel, a spec finding a
/// routine, a program finding an operand.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Location {
    /// Source file the document was read from.
    #[serde(default)]
    pub file: Option<String>,
    /// Module (MDAG node / simulator module) name.
    #[serde(default)]
    pub module: Option<String>,
    /// Channel (MDAG edge) name, `producer->consumer`.
    #[serde(default)]
    pub channel: Option<String>,
    /// Operand or routine name.
    #[serde(default)]
    pub operand: Option<String>,
    /// Index of the offending op in the program.
    #[serde(default)]
    pub op_index: Option<usize>,
}

impl Location {
    /// Location naming only a channel.
    pub fn channel(name: impl Into<String>) -> Self {
        Location {
            channel: Some(name.into()),
            ..Default::default()
        }
    }

    /// Location naming only an operand/routine.
    pub fn operand(name: impl Into<String>) -> Self {
        Location {
            operand: Some(name.into()),
            ..Default::default()
        }
    }

    /// Location naming only a module.
    pub fn module(name: impl Into<String>) -> Self {
        Location {
            module: Some(name.into()),
            ..Default::default()
        }
    }

    fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(m) = &self.module {
            parts.push(format!("module `{m}`"));
        }
        if let Some(c) = &self.channel {
            parts.push(format!("channel `{c}`"));
        }
        if let Some(o) = &self.operand {
            parts.push(format!("`{o}`"));
        }
        if let Some(i) = self.op_index {
            parts.push(format!("op #{i}"));
        }
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: LintCode,
    /// Severity.
    pub severity: Severity,
    /// Where in the composition it anchors.
    #[serde(default)]
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
    /// Machine-actionable suggestion, when the analysis derived one.
    #[serde(default)]
    pub fixit: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(
        code: LintCode,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            location,
            message: message.into(),
            fixit: None,
        }
    }

    /// Attach a fix-it hint.
    pub fn with_fixit(mut self, fixit: impl Into<String>) -> Self {
        self.fixit = Some(fixit.into());
        self
    }
}

/// Report schema version; bumped when the JSON layout changes.
pub const REPORT_VERSION: u64 = 1;

/// A full lint report over one or more documents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    /// Producing tool, always `"fblas-lint"`.
    pub tool: String,
    /// Schema version of this report.
    pub version: u64,
    /// Findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Default for LintReport {
    fn default() -> Self {
        LintReport::new()
    }
}

impl LintReport {
    /// Empty report.
    pub fn new() -> Self {
        LintReport {
            tool: "fblas-lint".into(),
            version: REPORT_VERSION,
            diagnostics: Vec::new(),
        }
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append every finding of another report.
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Whether the composition is accepted (no errors).
    pub fn accepted(&self) -> bool {
        self.errors() == 0
    }

    /// Serialize to the machine-readable JSON form.
    // Invariant: the report is plain data (strings, enums, counters) —
    // serde_json cannot fail on it.
    #[allow(clippy::disallowed_methods)]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Serialize to a JSON value.
    // Invariant: same as `to_json`.
    #[allow(clippy::disallowed_methods)]
    pub fn to_value(&self) -> Value {
        serde_json::to_value(self).expect("report serialization cannot fail")
    }

    /// Parse a report back from its JSON text (the round-trip CI checks).
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Render the rustc-style human table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(s, "{}[{}]: {}", d.severity, d.code.as_str(), d.message);
            let _ = writeln!(s, "  --> {}", d.location.render());
            if let Some(fixit) = &d.fixit {
                let _ = writeln!(s, "  help: {fixit}");
            }
        }
        let _ = writeln!(
            s,
            "{} error(s), {} warning(s), {} note(s)",
            self.errors(),
            self.warnings(),
            self.notes()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport::new();
        r.push(
            Diagnostic::new(
                LintCode::FL0004,
                Severity::Error,
                Location::channel("read_A->gemv_t#1"),
                "composition deadlocks at depth 64",
            )
            .with_fixit("increase the channel depth to 4096"),
        );
        r.push(Diagnostic::new(
            LintCode::FL0016,
            Severity::Note,
            Location::channel("read_A->gemv_t#1"),
            "exact minimum depth: 4096",
        ));
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = r.to_json();
        let back = LintReport::from_json(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn table_renders_code_location_and_fixit() {
        let t = sample().render_table();
        assert!(t.contains("error[FL0004]"));
        assert!(t.contains("read_A->gemv_t#1"));
        assert!(t.contains("help: increase the channel depth to 4096"));
        assert!(t.contains("1 error(s), 0 warning(s), 1 note(s)"));
    }

    #[test]
    fn counters_and_acceptance() {
        let r = sample();
        assert_eq!(r.errors(), 1);
        assert_eq!(r.notes(), 1);
        assert!(!r.accepted());
        assert!(LintReport::new().accepted());
    }

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(LintCode::FL0001.as_str(), "FL0001");
        assert_eq!(LintCode::FL0017.as_str(), "FL0017");
        assert_eq!(LintCode::FL0018.as_str(), "FL0018");
        assert_eq!(LintCode::FL0018.name(), "retry-unsound-inplace");
        assert_eq!(LintCode::FL0004.name(), "channel-under-depth");
        assert_eq!(LintCode::FL0019.as_str(), "FL0019");
        assert_eq!(LintCode::FL0026.as_str(), "FL0026");
        assert_eq!(LintCode::FL0021.name(), "channel-depth-slack");
        assert_eq!(LintCode::FL0025.name(), "fusion-reassociation");
    }

    #[test]
    fn registry_is_complete_and_ordered() {
        assert_eq!(LintCode::ALL.len(), 26);
        for (i, code) in LintCode::ALL.iter().enumerate() {
            assert_eq!(code.as_str(), format!("FL{:04}", i + 1));
        }
    }
}
