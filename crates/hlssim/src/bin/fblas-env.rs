//! `fblas-env`: render the documented `FBLAS_*` environment-knob table.
//!
//! ```text
//! fblas-env --list    # markdown table with current values (default)
//! fblas-env --json    # machine-readable dump
//! ```
//!
//! The table is [`fblas_hlssim::env::KNOBS`] — the same source the
//! sync test checks against the reader functions — so this bin cannot
//! drift from what the simulator actually honors.

use fblas_hlssim::env::KNOBS;
use serde::Value;

fn current(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

fn print_list() {
    println!("| variable | meaning | default | current |");
    println!("|---|---|---|---|");
    for k in KNOBS {
        let cur = current(k.name).unwrap_or_else(|| "(unset)".to_string());
        println!("| `{}` | {} | {} | {} |", k.name, k.meaning, k.default, cur);
    }
}

fn print_json() {
    let rows: Vec<Value> = KNOBS
        .iter()
        .map(|k| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(k.name.to_string())),
                ("meaning".to_string(), Value::Str(k.meaning.to_string())),
                ("default".to_string(), Value::Str(k.default.to_string())),
                (
                    "current".to_string(),
                    match current(k.name) {
                        Some(v) => Value::Str(v),
                        None => Value::Null,
                    },
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![("knobs".to_string(), Value::Array(rows))]);
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("knob table serializes")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--list") => print_list(),
        Some("--json") => print_json(),
        Some(other) => {
            eprintln!("fblas-env: unknown option `{other}` (use --list or --json)");
            std::process::exit(2);
        }
    }
}
