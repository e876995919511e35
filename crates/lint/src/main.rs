//! `fblas-lint` command-line interface.
//!
//! ```text
//! fblas-lint [--format table|json] [--validate] [--deny-warnings]
//!            [--fusion-plan OUT.json] PATH...
//! ```
//!
//! Each `PATH` is a JSON document (codegen spec, program, or graph) or
//! a directory searched recursively for `*.json`. Files named
//! `*.rejected.json` are *negative fixtures*: the linter must find at
//! least one error in them, and the process fails if it does not —
//! which keeps the rejected examples in the repo honest.
//!
//! `--deny-warnings` promotes warnings to failures: a clean file must
//! be warning-free (negative fixtures are unaffected — they are judged
//! on errors). `--fusion-plan OUT.json` writes the serializable fusion
//! plans (schema `fblas-fusion-plan-v1`) the dataflow analysis derived,
//! as a JSON array in analysis order.
//!
//! Exit codes: `0` all files matched expectations, `1` lint errors (or
//! a clean bill on a `.rejected.json`), `2` usage/IO error.
//!
//! With `FBLAS_BENCH_DIR` set, a `BENCH_lint.json` artifact summarizing
//! per-file diagnostic counts and fusion-pass statistics is written for
//! the bench-diff gate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fblas_bench::metrics::{BenchReport, Cell};
use fblas_core::composition::FusionPlan;
use fblas_lint::{lint_json_full, LintReport};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Table,
    Json,
}

struct Options {
    format: Format,
    validate: bool,
    deny_warnings: bool,
    fusion_plan: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: fblas-lint [--format table|json] [--validate] [--deny-warnings]\n\
     \u{20}                 [--fusion-plan OUT.json] PATH...\n\
     \n\
     Statically analyzes fBLAS composition documents (codegen specs,\n\
     programs, module graphs) for deadlocks, contract violations,\n\
     resource overcommit, numeric hazards, dead and pass-through\n\
     modules, over-provisioned channel depths, and fusion legality.\n\
     \n\
     Files named *.rejected.json must produce at least one error.\n\
     --deny-warnings additionally fails any clean file that produced\n\
     warnings. --fusion-plan writes the fblas-fusion-plan-v1 artifacts\n\
     derived for every analyzable graph/component. --validate\n\
     round-trips every JSON report and every fusion plan through the\n\
     serializer and fails on any mismatch."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut format = Format::Table;
    let mut validate = false;
    let mut deny_warnings = false;
    let mut fusion_plan = None;
    let mut paths = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("table") => format = Format::Table,
                    Some("json") => format = Format::Json,
                    other => return Err(format!("--format expects table|json, got {other:?}")),
                }
            }
            "--validate" => validate = true,
            "--deny-warnings" => deny_warnings = true,
            "--fusion-plan" => {
                i += 1;
                match args.get(i) {
                    Some(p) => fusion_plan = Some(PathBuf::from(p)),
                    None => return Err("--fusion-plan expects an output path".to_string()),
                }
            }
            "--help" | "-h" => return Err(usage().to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            p => paths.push(PathBuf::from(p)),
        }
        i += 1;
    }
    if paths.is_empty() {
        return Err(usage().to_string());
    }
    Ok(Options {
        format,
        validate,
        deny_warnings,
        fusion_plan,
        paths,
    })
}

/// Recursively collect `*.json` files under `path` (sorted for
/// deterministic output), or the file itself.
fn collect_inputs(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for e in entries {
            if e.is_dir() || e.extension().is_some_and(|x| x == "json") {
                collect_inputs(&e, out)?;
            }
        }
        Ok(())
    } else if path.is_file() {
        out.push(path.to_path_buf());
        Ok(())
    } else {
        Err(format!("{}: no such file or directory", path.display()))
    }
}

/// `true` when the report matched the file's expectation.
fn expectation_met(file: &Path, report: &LintReport, deny_warnings: bool) -> bool {
    let rejected_fixture = file
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".rejected.json"));
    if rejected_fixture {
        report.errors() > 0
    } else {
        report.accepted() && (!deny_warnings || report.warnings() == 0)
    }
}

/// Round-trip the report through its JSON representation.
fn validate_round_trip(report: &LintReport) -> Result<(), String> {
    let json = report.to_json();
    let back = LintReport::from_json(&json)?;
    if &back != report {
        return Err("report changed across a JSON round-trip".to_string());
    }
    Ok(())
}

/// Round-trip a fusion plan and check byte stability: parse(json) must
/// equal the plan, and re-serializing the parse must reproduce the
/// bytes.
fn validate_plan_round_trip(plan: &FusionPlan) -> Result<(), String> {
    let json = plan.to_json();
    let back = FusionPlan::from_json(&json)?;
    if &back != plan {
        return Err("fusion plan changed across a JSON round-trip".to_string());
    }
    if back.to_json() != json {
        return Err("fusion plan serialization is not byte-stable".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut files = Vec::new();
    for p in &opts.paths {
        if let Err(e) = collect_inputs(p, &mut files) {
            eprintln!("fblas-lint: {e}");
            return ExitCode::from(2);
        }
    }
    if files.is_empty() {
        eprintln!("fblas-lint: no .json inputs found");
        return ExitCode::from(2);
    }

    let mut all_ok = true;
    let mut bench = BenchReport::new("lint");
    bench.meta("files", files.len() as u64);
    let mut json_reports = Vec::new();
    let mut all_plans: Vec<FusionPlan> = Vec::new();
    let (mut chains_total, mut fused_total) = (0u64, 0u64);
    let mut rejected_by_reason: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();

    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fblas-lint: {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        let display = file.display().to_string();
        let out = lint_json_full(&text, &display);
        let report = &out.report;

        if opts.validate {
            if let Err(e) = validate_round_trip(report) {
                eprintln!("fblas-lint: {display}: validation failed: {e}");
                all_ok = false;
            }
            for plan in &out.fusion {
                if let Err(e) = validate_plan_round_trip(plan) {
                    eprintln!(
                        "fblas-lint: {display}: fusion plan `{}`: validation failed: {e}",
                        plan.file
                    );
                    all_ok = false;
                }
            }
        }

        let met = expectation_met(file, report, opts.deny_warnings);
        if !met {
            all_ok = false;
        }

        let (mut chains, mut fused, mut rejected) = (0u64, 0u64, 0u64);
        for plan in &out.fusion {
            chains += plan.stats.chains_found;
            fused += plan.stats.fused;
            for (reason, n) in &plan.stats.rejected {
                rejected += n;
                *rejected_by_reason.entry(reason.clone()).or_insert(0) += n;
            }
        }
        chains_total += chains;
        fused_total += fused;

        match opts.format {
            Format::Table => {
                let verdict = if met { "ok" } else { "FAIL" };
                println!("== {display} [{verdict}]");
                println!("{}", report.render_table());
            }
            Format::Json => json_reports.push((display.clone(), report.clone())),
        }

        bench.add_row([
            ("file", Cell::S(display)),
            ("errors", Cell::U(report.errors() as u64)),
            ("warnings", Cell::U(report.warnings() as u64)),
            ("notes", Cell::U(report.notes() as u64)),
            ("expectation_met", Cell::U(met as u64)),
            ("fusion_chains", Cell::U(chains)),
            ("fusion_fused", Cell::U(fused)),
            ("fusion_rejected", Cell::U(rejected)),
        ]);
        all_plans.extend(out.fusion);
    }

    if opts.format == Format::Json {
        // One top-level array of {file, report} objects.
        let mut out = String::from("[\n");
        for (i, (file, report)) in json_reports.iter().enumerate() {
            let comma = if i + 1 < json_reports.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"file\": {:?}, \"report\": {}}}{comma}\n",
                file,
                report.to_json()
            ));
        }
        out.push(']');
        println!("{out}");
    }

    if let Some(path) = &opts.fusion_plan {
        let mut body = String::from("[\n");
        for (i, plan) in all_plans.iter().enumerate() {
            body.push_str(&plan.to_json());
            if i + 1 < all_plans.len() {
                body.push(',');
            }
            body.push('\n');
        }
        body.push_str("]\n");
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("fblas-lint: {}: {e}", path.display());
            all_ok = false;
        }
    }

    if std::env::var("FBLAS_BENCH_DIR").is_ok() {
        bench.meta("fusion_chains", chains_total);
        bench.meta("fusion_fused", fused_total);
        for (reason, n) in &rejected_by_reason {
            bench.meta(format!("fusion_rejected_{reason}"), *n);
        }
        if let Err(e) = bench.write() {
            eprintln!("fblas-lint: failed to write bench artifact: {e}");
            all_ok = false;
        }
    }

    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
