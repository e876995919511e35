//! The JSON-lines wire protocol.
//!
//! One request per line, one response per line. A request is either an
//! **execution request** (a planner program plus operand data and
//! robustness envelope — tenant, deadline, retry budget, optional chaos
//! arming) or a **control request** (`{"control": "drain" | "stats" |
//! "ping" | "reset_breakers"}`). Responses carry a coarse `status`
//! (`ok` / `shed` / `rejected` / `failed`), an HTTP-flavored `code`,
//! and a machine-readable `kind` drawn from a stable vocabulary:
//! admission kinds (`quota`, `queue_full`, `draining`, `breaker_open`,
//! `parse`, `lint`, `data`, `chaos`) plus the executor's
//! [`RecoveryErrorKind`] names and `panic` for a poisoned worker.
//! Every `400` (`rejected`: `parse`, `lint`, `data`, `chaos`) comes
//! from admission, before the request takes a queue slot; a worker
//! answers only `ok` or `failed`.
//!
//! Field order is declaration order and map keys are sorted, so a
//! seeded request always serializes to byte-identical response bodies —
//! except the `wall` object, which carries wall-clock timings and is
//! the one field a deterministic byte-compare must drop
//! ([`Response::deterministic_line`] does).

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use fblas_chaos::FaultPlan;
use fblas_core::composition::RecoveryErrorKind;
use fblas_hlssim::{FaultAction, FaultSite, ModuleFault};
use fblas_lint::input::ProgramDoc;
use serde::{Deserialize, Serialize, Value};

/// One execution request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen request ID, echoed on the response.
    pub id: u64,
    /// Tenant the request is accounted against.
    #[serde(default = "default_tenant")]
    pub tenant: String,
    /// End-to-end deadline from admission, milliseconds. Propagated to
    /// the per-attempt [`RetryPolicy`](fblas_core::composition::RetryPolicy)
    /// deadline and the simulator's wall-clock watchdog.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Retry budget override (default: `FBLAS_RETRY_MAX`).
    #[serde(default)]
    pub retry_max: Option<u32>,
    /// Seed for deterministic operand fill when `data` omits an operand.
    #[serde(default)]
    pub fill_seed: Option<u64>,
    /// Explicit operand data by name (row-major for matrices). Each
    /// key must name a declared vector or matrix and hold exactly its
    /// element count.
    #[serde(default)]
    pub data: Option<HashMap<String, Vec<f64>>>,
    /// Operand buffers to return (default: every op's `out` operand).
    /// Each name must be a declared operand; a scalar's value comes
    /// back in `scalars` either way.
    #[serde(default)]
    pub want: Option<Vec<String>>,
    /// Deterministic fault arming for this request (chaos tenants).
    #[serde(default)]
    pub chaos: Option<ChaosDoc>,
    /// The program to execute, in the lint `"program"` dialect.
    pub program: ProgramDoc,
}

fn default_tenant() -> String {
    "anonymous".to_string()
}

/// Deterministic fault plan riding on a request.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChaosDoc {
    /// Fault-plan RNG seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Stack each rule this many times — one-shot rules are spent per
    /// attempt, so `repeat: 3` makes three consecutive attempts fail.
    #[serde(default)]
    pub repeat: Option<u32>,
    /// Panic the worker thread itself instead of running — validates
    /// the server's panic containment (the request must come back as a
    /// structured `panic` failure and the worker must survive).
    #[serde(default)]
    pub panic_worker: Option<bool>,
    /// The rules.
    #[serde(default)]
    pub faults: Vec<FaultDoc>,
}

/// One fault rule. Channel rules name `site`/`channel`/`index` plus an
/// `action` (`corrupt` with `bit`, `drop`, `duplicate`, `delay` with
/// `micros`); module rules name `module` plus `action` (`crash`/`hang`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultDoc {
    /// `"push"` or `"pop"` (channel rules).
    #[serde(default)]
    pub site: Option<String>,
    /// Channel name (channel rules).
    #[serde(default)]
    pub channel: Option<String>,
    /// Element index the rule fires at (channel rules).
    #[serde(default)]
    pub index: Option<u64>,
    /// Bit to flip for `corrupt`.
    #[serde(default)]
    pub bit: Option<u32>,
    /// Injected delay for `delay`, microseconds.
    #[serde(default)]
    pub micros: Option<u64>,
    /// Module name (module rules).
    #[serde(default)]
    pub module: Option<String>,
    /// `corrupt` (default when `bit` is set), `drop`, `duplicate`,
    /// `delay`, `crash`, `hang`.
    #[serde(default)]
    pub action: Option<String>,
}

impl ChaosDoc {
    /// Build the executable [`FaultPlan`], or explain why the spec is
    /// malformed.
    pub fn to_fault_plan(&self) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(self.seed);
        let repeat = self.repeat.unwrap_or(1).max(1);
        for _ in 0..repeat {
            for (i, f) in self.faults.iter().enumerate() {
                plan = f.apply(plan, i)?;
            }
        }
        Ok(plan)
    }
}

impl FaultDoc {
    fn apply(&self, plan: FaultPlan, i: usize) -> Result<FaultPlan, String> {
        if let Some(module) = &self.module {
            let fault = match self.action.as_deref() {
                Some("crash") | None => ModuleFault::Crash,
                Some("hang") => ModuleFault::Hang,
                Some(other) => {
                    return Err(format!(
                        "fault #{i}: module action `{other}` (expected crash/hang)"
                    ))
                }
            };
            return Ok(plan.module_fault(module.clone(), fault));
        }
        let channel = self
            .channel
            .as_ref()
            .ok_or_else(|| format!("fault #{i}: needs `channel` or `module`"))?;
        let site = match self.site.as_deref() {
            Some("push") | None => FaultSite::Push,
            Some("pop") => FaultSite::Pop,
            Some(other) => return Err(format!("fault #{i}: site `{other}` (expected push/pop)")),
        };
        let index = self.index.unwrap_or(0);
        let action = match self.action.as_deref() {
            Some("corrupt") | None => FaultAction::Corrupt {
                bit: self.bit.unwrap_or(7),
            },
            Some("drop") => FaultAction::DropElement,
            Some("duplicate") => FaultAction::Duplicate,
            Some("delay") => FaultAction::Delay {
                micros: self.micros.unwrap_or(1000),
            },
            Some(other) => {
                return Err(format!(
                    "fault #{i}: channel action `{other}` (expected corrupt/drop/duplicate/delay)"
                ))
            }
        };
        Ok(plan.channel_fault(site, channel.clone(), index, action))
    }
}

/// Coarse response status.
pub const STATUS_OK: &str = "ok";
/// Over-quota or over-capacity: retry later; nothing executed.
pub const STATUS_SHED: &str = "shed";
/// Malformed, lint-rejected, or bound to undeclared or mis-sized
/// operands: retrying is pointless. Only admission sends it.
pub const STATUS_REJECTED: &str = "rejected";
/// Admitted and executed, but execution failed terminally.
pub const STATUS_FAILED: &str = "failed";

/// One response line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request ID (0 when the ID could not be parsed).
    pub id: u64,
    /// Echo of the tenant.
    pub tenant: String,
    /// `ok` / `shed` / `rejected` / `failed`.
    pub status: String,
    /// HTTP-flavored numeric code: 200 ok, 400 rejected, 408 deadline,
    /// 429 shed (quota/queue), 500 execution failure, 503 unavailable
    /// (draining or open breaker).
    pub code: u32,
    /// Machine-readable failure kind; `None` on success.
    #[serde(default)]
    pub kind: Option<String>,
    /// Human-readable one-liner for logs; never needed to dispatch.
    #[serde(default)]
    pub detail: Option<String>,
    /// DOT results by scalar operand name.
    #[serde(default)]
    pub scalars: BTreeMap<String, f64>,
    /// Returned operand buffers by name.
    #[serde(default)]
    pub outputs: BTreeMap<String, Vec<f64>>,
    /// Full serialized [`RecoveryReport`](fblas_core::composition::RecoveryReport).
    #[serde(default)]
    pub recovery: Option<Value>,
    /// Lint diagnostics when `kind` is `lint`.
    #[serde(default)]
    pub diagnostics: Option<Value>,
    /// For `quota` sheds with a refilling bucket: when to retry.
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
    /// Path of the postmortem bundle this failure produced, when the
    /// flight recorder is armed and `FBLAS_FLIGHT_DIR` is set.
    #[serde(default)]
    pub postmortem: Option<String>,
    /// Correlation run ID (16 hex digits) of the execution.
    #[serde(default)]
    pub run_id: Option<String>,
    /// Wall-clock timings (`latency_us`, `queue_us`). The only
    /// nondeterministic field; byte-compares must strip it.
    #[serde(default)]
    pub wall: Option<Value>,
}

impl Response {
    /// A skeleton response echoing `id`/`tenant` with empty payloads.
    pub fn skeleton(id: u64, tenant: &str, status: &str, code: u32) -> Response {
        Response {
            id,
            tenant: tenant.to_string(),
            status: status.to_string(),
            code,
            kind: None,
            detail: None,
            scalars: BTreeMap::new(),
            outputs: BTreeMap::new(),
            recovery: None,
            diagnostics: None,
            retry_after_ms: None,
            postmortem: None,
            run_id: None,
            wall: None,
        }
    }

    /// Set the machine-readable kind.
    pub fn with_kind(mut self, kind: impl Into<String>) -> Response {
        self.kind = Some(kind.into());
        self
    }

    /// Set the human-readable detail.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Response {
        self.detail = Some(detail.into());
        self
    }

    /// The executor failure kind, when `kind` names one.
    pub fn recovery_kind(&self) -> Option<RecoveryErrorKind> {
        self.kind.as_deref().and_then(RecoveryErrorKind::parse)
    }

    /// Serialize to one wire line (no trailing newline).
    ///
    /// Invariant: the response is plain data — serialization cannot
    /// fail.
    #[allow(clippy::disallowed_methods)]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("response always serializes")
    }

    /// The wire line with the `wall` object nulled — byte-stable across
    /// two runs of the same seeded workload.
    pub fn deterministic_line(&self) -> String {
        let mut r = self.clone();
        r.wall = None;
        r.to_line()
    }
}

/// Parse one wire line into a [`Response`] (client side).
pub fn parse_response(line: &str) -> Result<Response, String> {
    serde_json::from_str(line).map_err(|e| format!("bad response line: {e}"))
}

/// A classified inbound line.
#[derive(Debug)]
pub enum Inbound {
    /// An execution request.
    Exec(Box<Request>),
    /// A control verb: `drain`, `stats`, `ping`, `reset_breakers`.
    Control(String),
}

/// Classify and parse one request line.
pub fn parse_line(line: &str) -> Result<Inbound, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if let Some(verb) = v.get("control").and_then(Value::as_str) {
        return Ok(Inbound::Control(verb.to_string()));
    }
    Request::from_value(&v)
        .map(|r| Inbound::Exec(Box::new(r)))
        .map_err(|e| format!("malformed request: {e}"))
}

/// The operand names an executed request returns: the explicit `want`
/// list, or every op's non-scalar `out` operand (deduplicated, in
/// program order).
pub fn wanted_outputs(req: &Request) -> Vec<String> {
    if let Some(w) = &req.want {
        return w.clone();
    }
    let mut outs = Vec::new();
    for op in &req.program.ops {
        if let Some(out) = &op.out {
            let is_scalar = req
                .program
                .operands
                .iter()
                .any(|o| &o.name == out && o.kind == "scalar");
            if !is_scalar && !outs.contains(out) {
                outs.push(out.clone());
            }
        }
    }
    outs
}

/// FNV-1a over bytes — the workspace's standing content-hash primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The run seed a request executes under: deterministic in (tenant,
/// id, chaos seed), so two runs of the same seeded workload produce
/// identical run IDs, reports, and postmortem filenames.
pub fn run_seed(req: &Request) -> u64 {
    fnv1a(req.tenant.as_bytes())
        ^ req.id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ req
            .chaos
            .as_ref()
            .and_then(|c| c.seed)
            .unwrap_or(0)
            .rotate_left(17)
}

/// SplitMix64's increment: element `i` of an operand's fill stream
/// starts from `base + i·GAMMA`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic operand fill: element `i` of operand `name` under
/// `fill_seed`, in `[-1, 1)`. SplitMix64 over the mixed seed.
pub fn fill_value(fill_seed: u64, name: &str, i: usize) -> f64 {
    splitmix_unit(fill_base(fill_seed, name).wrapping_add((i as u64).wrapping_mul(GAMMA)))
}

/// Operand length from which [`fill_operand`] splits the index range
/// across the cores. Below it the threads cost more than they save: at
/// 2¹⁶ an 80 000-element operand filled slower split than on one core.
const SPLIT_FILL_MIN: usize = 1 << 17;

/// The cores a split fill uses, read once: the lookup reads cgroup
/// files, too slow to repeat per operand.
fn fill_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The first `len` fill values of operand `name` under `fill_seed`:
/// element `i` is [`fill_value`]`(fill_seed, name, i)`, bit for bit,
/// with the name hashed once for the whole operand. An operand of 2¹⁷
/// elements or more is filled in one chunk per core, chunk `k` starting
/// from element `k·chunk`'s state.
pub fn fill_operand(fill_seed: u64, name: &str, len: usize) -> Vec<f64> {
    let base = fill_base(fill_seed, name);
    let cores = fill_cores();
    if len < SPLIT_FILL_MIN || cores < 2 {
        // A running state in place of `i·GAMMA` keeps the loop scalar:
        // the compiler vectorises the indexed form with emulated 64-bit
        // multiplies, which measured slower.
        let (mut state, mut out) = (base, Vec::with_capacity(len));
        for _ in 0..len {
            out.push(splitmix_unit(state));
            state = state.wrapping_add(GAMMA);
        }
        return out;
    }
    let mut out = vec![0.0; len];
    let chunk = len.div_ceil(cores);
    let start = |k: usize| base.wrapping_add(((k * chunk) as u64).wrapping_mul(GAMMA));
    std::thread::scope(|s| {
        let mut parts = out.chunks_mut(chunk).enumerate();
        let first = parts.next();
        for (k, part) in parts {
            s.spawn(move || fill_slice(start(k), part));
        }
        if let Some((k, part)) = first {
            fill_slice(start(k), part);
        }
    });
    out
}

/// Fill `out` with consecutive fill values from `state` on.
fn fill_slice(mut state: u64, out: &mut [f64]) {
    for slot in out {
        *slot = splitmix_unit(state);
        state = state.wrapping_add(GAMMA);
    }
}

/// The per-operand part of the fill seed.
fn fill_base(fill_seed: u64, name: &str) -> u64 {
    fill_seed.wrapping_add(fnv1a(name.as_bytes()))
}

/// SplitMix64's output for state `z`, mapped to `[-1, 1)`.
fn splitmix_unit(mut z: u64) -> f64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
}

/// The stub for a fault hook shared across attempts.
pub type SharedFaultPlan = Arc<FaultPlan>;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> &'static str {
        r#"{"id": 7, "tenant": "t0", "program": {"operands": [
              {"name":"x","kind":"vector","len":8},
              {"name":"o","kind":"vector","len":8}],
             "ops": [{"op":"scal","alpha":2.0,"x":"x","out":"o"}]}}"#
    }

    #[test]
    fn classifies_exec_and_control_lines() {
        match parse_line(tiny_program()).unwrap() {
            Inbound::Exec(r) => {
                assert_eq!(r.id, 7);
                assert_eq!(r.tenant, "t0");
                assert_eq!(wanted_outputs(&r), ["o"]);
            }
            other => panic!("expected exec, got {other:?}"),
        }
        match parse_line(r#"{"control": "drain"}"#).unwrap() {
            Inbound::Control(v) => assert_eq!(v, "drain"),
            other => panic!("expected control, got {other:?}"),
        }
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"neither": 1}"#).is_err());
    }

    #[test]
    fn chaos_doc_builds_stacked_plans() {
        let doc = ChaosDoc {
            seed: Some(42),
            repeat: Some(3),
            panic_worker: None,
            faults: vec![FaultDoc {
                channel: Some("write_o".into()),
                index: Some(5),
                bit: Some(7),
                ..FaultDoc::default()
            }],
        };
        let plan = doc.to_fault_plan().unwrap();
        assert_eq!(plan.planned(), 3, "repeat stacks one-shot rules");
        let bad = ChaosDoc {
            faults: vec![FaultDoc::default()],
            ..ChaosDoc::default()
        };
        assert!(bad.to_fault_plan().is_err(), "rule without target rejected");
    }

    #[test]
    fn response_line_is_deterministic_modulo_wall() {
        let mut r = Response::skeleton(3, "t", STATUS_OK, 200);
        r.scalars.insert("beta".into(), 1.5);
        let a = r.to_line();
        r.wall = Some(Value::U64(12345));
        assert_ne!(r.to_line(), a);
        assert_eq!(r.deterministic_line(), a);
        let parsed = parse_response(&a).unwrap();
        assert_eq!(parsed.id, 3);
        assert_eq!(parsed.scalars["beta"], 1.5);
    }

    #[test]
    fn run_seed_and_fill_are_stable() {
        match parse_line(tiny_program()).unwrap() {
            Inbound::Exec(r) => {
                assert_eq!(run_seed(&r), run_seed(&r));
                let v = fill_value(9, "x", 3);
                assert_eq!(v, fill_value(9, "x", 3));
                assert!((-1.0..1.0).contains(&v));
                assert_ne!(v, fill_value(9, "x", 4));
                assert_ne!(v, fill_value(9, "y", 3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bulk_fill_equals_fill_value_bit_for_bit() {
        for name in ["x", "A_long_operand"] {
            for seed in [0, 0xE2E0_5EED] {
                for len in [
                    0,
                    1,
                    17,
                    4096,
                    (1 << 17) - 1,
                    1 << 17,
                    (1 << 17) + 1,
                    (1 << 19) + 3,
                ] {
                    let bulk = fill_operand(seed, name, len);
                    assert_eq!(bulk.len(), len);
                    for (i, v) in bulk.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            fill_value(seed, name, i).to_bits(),
                            "{name} seed={seed} len={len} i={i}"
                        );
                    }
                }
            }
        }
        // Pinned values: clients compute references from these bits.
        assert_eq!(fill_value(0, "x", 0).to_bits(), 0xbfe4_e1f5_4f75_dbba);
        assert_eq!(fill_value(9, "x", 3).to_bits(), 0x3fe8_ccdf_8bb3_c1d2);
        assert_eq!(
            fill_operand(0xE2E0, "A", 4096)[4095].to_bits(),
            0x3fde_64aa_9b1c_8c84
        );
    }
}
