//! fblas_e2e — the repository's end-to-end benchmark.
//!
//! Drives an in-process `fblas-serve` server through its JSON-lines
//! protocol on one of four workloads, checks every answer against a
//! plain-Rust reference, and prints one line per metric
//! (`<workload> <metric> <value> <unit>`) followed by a one-line JSON
//! result. `--trace 1` runs the per-layer measurement instead: the same
//! traffic with the metrics registry armed, then an in-process replica
//! of every request timed call by call.
//!
//! ```text
//! cargo run --release -q --manifest-path benchmarks/e2e/Cargo.toml -- \
//!     --workload small_closed --seed 1 --seconds 20 --trace 0 [--out DIR]
//! ```
//!
//! Exits non-zero when any output is wrong, when a traced run's replica
//! does not reconcile with the served run, when an `FBLAS_*` variable is
//! set (the program must see only generated inputs), or on bad
//! arguments.

mod drive;
mod reference;
mod stats;
mod trace;
mod workload;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use serde_json::Value;

use drive::Phase;
use reference::Verifier;
use stats::median;
use workload::{Plan, Workload, REFERENCE_RPS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: fblas_e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::SmallClosed,
        seed: 1,
        seconds: 20,
        trace: false,
        out: PathBuf::from("target/fblas_e2e"),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let bad = || -> ! {
            eprintln!("fblas_e2e: bad value `{value}` for {flag}");
            usage()
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| bad())),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s >= 3)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => usage(),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage());
    args
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The end-to-end metrics every untraced run reports, in order: the
/// ones every workload has and that are steady on every workload.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("mean_ms", "ms"),
    ("rps", "1/s"),
    ("expected_ratio", "fraction"),
];

/// Run one phase of the workload's traffic against `addr`.
pub fn serve_phase(plan: &Plan, addr: SocketAddr, window: Duration, salt: u64) -> Phase {
    let id_base = salt * 1_000_000_000;
    match plan.workload {
        Workload::MixOpen => {
            let schedule = plan.open_schedule(REFERENCE_RPS, window, salt);
            drive::open_loop(addr, &schedule, id_base)
        }
        _ => drive::closed_loop(addr, plan, window, id_base),
    }
}

/// What a run reports: the metrics of its JSON line, figures it prints
/// and writes to the summary only, and the rest of the summary.
struct Report {
    metrics: Vec<Metric>,
    figures: Vec<Metric>,
    extra: Vec<(&'static str, Value)>,
}

/// The untraced run: the end-to-end metrics over one window of the
/// workload's traffic.
fn run_untraced(
    args: &Args,
    plan: &Plan,
    setup_s: f64,
    addr: SocketAddr,
    verifier: &mut Verifier,
) -> Report {
    let phase = serve_phase(plan, addr, Duration::from_secs(args.seconds), 1);
    phase.records.iter().for_each(|r| verifier.check(r));
    let values = [
        setup_s,
        phase.mean_ms(),
        phase.rps(),
        verifier.expected_ratio(),
    ];
    let metrics = E2E
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    Report {
        metrics,
        figures: phase.figures(),
        extra: phase.summary(),
    }
}

/// The commit the checkout was made from, read from `.git` in the
/// working directory (no subprocess, nothing read outside it).
fn git_head() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_metrics(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() {
    let args = parse_args();
    let pinned: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("FBLAS_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "fblas_e2e: refusing to run with {} set: the program must see only generated inputs",
            pinned.join(", ")
        );
        std::process::exit(2);
    }

    let plan = Plan::new(args.workload, args.seed);
    let (server, setups, warm) = drive::set_up(&plan, SETUP_REPS);
    let setup_s = median(&setups);
    let addr = server.addr();
    let mut verifier = Verifier::default();
    warm.iter().for_each(|r| verifier.check(r));

    let (report, trace_doc, reconciled) = if args.trace {
        let t = trace::run(&args, &plan, addr, &mut verifier);
        let report = Report {
            metrics: t.metrics,
            figures: Vec::new(),
            extra: t.extra,
        };
        (report, Some(t.spans), t.reconciled)
    } else {
        let report = run_untraced(&args, &plan, setup_s, addr, &mut verifier);
        (report, None, true)
    };
    let drained = server.drain();
    if !drained.clean {
        eprintln!("fblas_e2e: server did not drain cleanly: {drained:?}");
        verifier.failed += 1;
    }

    let name = args.workload.name();
    for m in report.metrics.iter().chain(&report.figures) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for w in verifier.wrong.iter().take(10) {
        eprintln!("fblas_e2e: WRONG: {w}");
    }
    if !verifier.wrong.is_empty() {
        eprintln!("fblas_e2e: {} wrong answers in all", verifier.wrong.len());
    }
    let correct = verifier.wrong.is_empty() && reconciled;

    let knobs = fblas_hlssim::env::resolved_knobs()
        .into_iter()
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut summary = vec![
        ("workload".to_string(), Value::Str(name.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::U64(nproc)),
        ("git_head".into(), Value::Str(git_head())),
        ("knobs".into(), Value::Object(knobs)),
        (
            "setup_s_samples".into(),
            Value::Array(setups.iter().map(|s| Value::F64(*s)).collect()),
        ),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(verifier.attempted)),
        ("failed".into(), Value::U64(verifier.failed)),
        ("metrics".into(), json_metrics(&report.metrics)),
        ("figures".into(), json_metrics(&report.figures)),
    ];
    summary.extend(report.extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    let kind = if args.trace {
        "trace-summary"
    } else {
        "summary"
    };
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        let text =
            serde_json::to_string_pretty(&Value::Object(summary)).expect("summary is plain data");
        std::fs::write(args.out.join(format!("{name}.{kind}.json")), text + "\n")?;
        if let Some(doc) = trace_doc {
            let text = serde_json::to_string(&doc).expect("trace is plain data");
            std::fs::write(args.out.join(format!("{name}.trace.json")), text + "\n")?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("fblas_e2e: cannot write to {}: {e}", args.out.display());
        std::process::exit(1);
    }

    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(verifier.attempted)),
        ("failed".into(), Value::U64(verifier.failed)),
        ("metrics".into(), json_metrics(&report.metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result is plain data")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lists `{key}`"))
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(rows: &[(&str, &str)]) -> Vec<(String, String)> {
        rows.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_binary_emits() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(names(&doc, "end_to_end"), owned(&E2E));
        assert_eq!(names(&doc, "per_layer"), owned(&trace::PER_LAYER));

        let well_formed = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let all = workloads
            .iter()
            .map(String::as_str)
            .chain(E2E.iter().map(|m| m.0))
            .chain(trace::PER_LAYER.iter().map(|m| m.0));
        for name in all {
            assert!(well_formed(name), "`{name}` is not [A-Za-z0-9_.-]+");
        }
    }
}
