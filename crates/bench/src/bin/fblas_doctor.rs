//! `fblas-doctor`: render a flight-recorder postmortem bundle as a
//! diagnosis.
//!
//! ```text
//! fblas-doctor postmortem-<run>.json          # render the diagnosis
//! fblas-doctor postmortem-<run>.json --check  # verify byte-stable round trip
//! ```
//!
//! The input is the `fblas-flight-bundle-v1` JSON document the runtime
//! writes to `FBLAS_FLIGHT_DIR` when a run dies with the flight
//! recorder armed (`FBLAS_FLIGHT=1`). The diagnosis mirrors the audit
//! crate's bottleneck-attribution style: what killed the run, the
//! per-channel occupancy trajectory leading into the failure as
//! sparklines, the anomaly timeline, the forensic attachments, and a
//! one-line verdict naming the most likely culprit.
//!
//! `--check` parses the document and re-renders it, asserting the bytes
//! match — the guarantee ci.sh leans on for bundle stability.
//!
//! Exit codes: 0 rendered/verified, 1 bad bundle or failed check,
//! 2 usage.

use serde::Value;

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Most frames a sparkline renders; older frames are elided.
const SPARK_WIDTH: usize = 60;

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.get(key)
}

fn str_of<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    field(v, key).and_then(Value::as_str)
}

fn u64_of(v: &Value, key: &str) -> Option<u64> {
    field(v, key).and_then(Value::as_u64)
}

fn fmt_ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

/// Label value for `name` on a metric row (`{"name":..,"labels":{..}}`).
fn row_label<'a>(row: &'a Value, label: &str) -> Option<&'a str> {
    field(row, "labels")
        .and_then(Value::as_object)
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == label))
        .and_then(|(_, v)| v.as_str())
}

/// The gauge value for `name{channel=ch}` in one frame, if sampled.
fn frame_gauge(frame: &Value, name: &str, ch: &str) -> Option<f64> {
    field(frame, "gauges")
        .and_then(Value::as_array)?
        .iter()
        .find(|row| str_of(row, "name") == Some(name) && row_label(row, "channel") == Some(ch))
        .and_then(|row| field(row, "value").and_then(Value::as_f64))
}

/// Every channel that ever reported `name` across the frames, sorted.
fn gauge_channels(frames: &[Value], name: &str) -> Vec<String> {
    let mut out: Vec<String> = frames
        .iter()
        .filter_map(|f| field(f, "gauges").and_then(Value::as_array))
        .flatten()
        .filter(|row| str_of(row, "name") == Some(name))
        .filter_map(|row| row_label(row, "channel").map(str::to_string))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// One sparkline: occupancy per frame scaled against the channel's
/// capacity (8 glyph levels, missing samples render as spaces).
fn sparkline(frames: &[Value], ch: &str) -> (String, f64, f64) {
    let tail = &frames[frames.len().saturating_sub(SPARK_WIDTH)..];
    let cap = tail
        .iter()
        .rev()
        .find_map(|f| frame_gauge(f, "fblas_channel_capacity", ch))
        .unwrap_or(0.0);
    let mut last = 0.0;
    let line: String = tail
        .iter()
        .map(|f| match frame_gauge(f, "fblas_channel_occupancy", ch) {
            Some(occ) => {
                last = occ;
                let scale = if cap >= 1.0 { occ / cap } else { 0.0 };
                let ix = ((scale * 7.0).round() as usize).min(7);
                SPARK[ix]
            }
            None => ' ',
        })
        .collect();
    (line, last, cap)
}

fn render_trigger(doc: &Value) {
    let trigger = field(doc, "trigger").unwrap_or(&Value::Null);
    println!(
        "fblas-doctor · schema {} · run {}",
        str_of(doc, "schema").unwrap_or("?"),
        str_of(doc, "run_id").unwrap_or("-"),
    );
    println!(
        "\ntrigger: {} — {}",
        str_of(trigger, "kind").unwrap_or("?"),
        str_of(trigger, "detail").unwrap_or("?"),
    );
    if let Some(culprit) = str_of(trigger, "culprit") {
        println!("named culprit: `{culprit}`");
    }
}

fn render_knobs(doc: &Value) {
    let Some(knobs) = field(doc, "knobs").and_then(Value::as_object) else {
        return;
    };
    println!("\nknobs at capture:");
    for (name, value) in knobs {
        println!("  {:<24} {}", name, value.as_str().unwrap_or("?"));
    }
}

fn render_occupancy(frames: &[Value]) {
    let channels = gauge_channels(frames, "fblas_channel_occupancy");
    if channels.is_empty() || frames.is_empty() {
        return;
    }
    let t0 = u64_of(&frames[0], "t_us").unwrap_or(0);
    let t1 = frames.last().and_then(|f| u64_of(f, "t_us")).unwrap_or(t0);
    println!(
        "\nchannel occupancy, final {} frames ({} ms window):",
        frames.len().min(SPARK_WIDTH),
        fmt_ms(t1.saturating_sub(t0)),
    );
    for ch in channels {
        let (line, last, cap) = sparkline(frames, &ch);
        println!("  {ch:<20} {line}  {last:.0}/{cap:.0}");
    }
}

fn render_anomalies(doc: &Value, frames: &[Value]) -> Vec<(String, String)> {
    let t0 = frames.first().and_then(|f| u64_of(f, "t_us")).unwrap_or(0);
    let rows: Vec<&Value> = field(doc, "wall")
        .and_then(|w| field(w, "anomalies"))
        .and_then(Value::as_array)
        .map(|a| a.iter().collect())
        .unwrap_or_default();
    if rows.is_empty() {
        println!("\nanomalies: none detected in the window");
        return Vec::new();
    }
    println!("\nanomaly timeline:");
    let mut found = Vec::new();
    for a in rows {
        let kind = str_of(a, "kind").unwrap_or("?");
        let culprit = str_of(a, "culprit").unwrap_or("?");
        let onset = u64_of(a, "onset_us").unwrap_or(0);
        println!(
            "  +{:>8} ms  {:<20} `{}`: {}",
            fmt_ms(onset.saturating_sub(t0)),
            kind,
            culprit,
            str_of(a, "detail").unwrap_or(""),
        );
        found.push((kind.to_string(), culprit.to_string()));
    }
    found
}

fn render_attachments(doc: &Value) {
    if let Some(stall) = field(doc, "stall").filter(|v| !v.is_null()) {
        let blocked = field(stall, "blocked")
            .and_then(Value::as_array)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        println!(
            "\nwait-for graph: {} module(s) blocked at epoch {}:",
            blocked.len(),
            u64_of(stall, "epoch").unwrap_or(0),
        );
        for b in blocked {
            println!(
                "  `{}` waiting on `{}` ({}, occupancy {}/{})",
                str_of(b, "module").unwrap_or("?"),
                str_of(b, "channel").unwrap_or("?"),
                str_of(b, "direction").unwrap_or("?"),
                u64_of(b, "occupancy").unwrap_or(0),
                u64_of(b, "capacity").unwrap_or(0),
            );
        }
    }
    if let Some(guards) = field(doc, "guards")
        .filter(|v| !v.is_null())
        .and_then(Value::as_array)
    {
        let dirty: Vec<&Value> = guards
            .iter()
            .filter(|g| field(g, "digests_match").and_then(Value::as_bool) == Some(false))
            .collect();
        println!(
            "\nintegrity guards: {} channel(s) checked, {} dirty",
            guards.len(),
            dirty.len()
        );
        for g in dirty {
            println!(
                "  `{}`: pushed {} / popped {}, digests diverge",
                str_of(g, "channel").unwrap_or("?"),
                u64_of(g, "pushed").unwrap_or(0),
                u64_of(g, "popped").unwrap_or(0),
            );
        }
    }
    if let Some(rec) = field(doc, "recovery").filter(|v| !v.is_null()) {
        let attempts = field(rec, "attempts")
            .and_then(Value::as_array)
            .map_or(0, Vec::len);
        println!(
            "\nrecovery: {} attempt(s) across {} component(s), {} retries, {} recovered — budget exhausted",
            attempts,
            u64_of(rec, "components").unwrap_or(0),
            u64_of(rec, "retries").unwrap_or(0),
            u64_of(rec, "recovered").unwrap_or(0),
        );
    }
}

/// One-line verdict in the audit crate's attribution style: the
/// highest-priority anomaly names the culprit, the trigger breaks ties.
fn render_verdict(doc: &Value, anomalies: &[(String, String)]) {
    let priority = [
        (
            "occupancy_pinned",
            "backpressure deadlock — the FIFO is under-depth or its consumer died",
        ),
        (
            "full_wait_sustained",
            "producer-side thrashing — the channel spent the window at capacity",
        ),
        (
            "retry_spike",
            "recovery storm — injected or persistent faults burned the retry budget",
        ),
        (
            "throughput_collapse",
            "flow stopped ahead of the failure — an upstream module went quiet",
        ),
    ];
    let verdict = priority.iter().find_map(|(kind, diagnosis)| {
        anomalies
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, culprit)| (*kind, culprit.clone(), *diagnosis))
    });
    match verdict {
        Some((kind, culprit, diagnosis)) => {
            println!("\nverdict: `{culprit}` ({kind}): {diagnosis}");
        }
        None => {
            let trigger = field(doc, "trigger").unwrap_or(&Value::Null);
            println!(
                "\nverdict: no window anomaly — trust the trigger: {} ({})",
                str_of(trigger, "detail").unwrap_or("?"),
                str_of(trigger, "kind").unwrap_or("?"),
            );
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: fblas-doctor BUNDLE.json [--check]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut check = false;
    for a in &args {
        match a.as_str() {
            "--check" => check = true,
            _ if a.starts_with('-') => usage(),
            _ if path.is_none() => path = Some(a.clone()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fblas-doctor: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc: Value = match serde_json::from_str(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fblas-doctor: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    if str_of(&doc, "schema") != Some("fblas-flight-bundle-v1") {
        eprintln!("fblas-doctor: {path} is not a flight-recorder bundle");
        std::process::exit(1);
    }

    if check {
        // Byte-stable round trip: parse → pretty-print must reproduce
        // the document exactly (modulo one trailing newline).
        let rendered = serde_json::to_string_pretty(&doc).expect("parsed value tree re-serializes");
        if rendered != text.trim_end_matches('\n') {
            eprintln!("fblas-doctor: {path} does not round-trip byte-identically");
            std::process::exit(1);
        }
        println!("fblas-doctor: {path} round-trips byte-identically");
        return;
    }

    let frames: Vec<Value> = field(&doc, "wall")
        .and_then(|w| field(w, "frames"))
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();

    render_trigger(&doc);
    render_knobs(&doc);
    render_occupancy(&frames);
    let anomalies = render_anomalies(&doc, &frames);
    render_attachments(&doc);
    render_verdict(&doc, &anomalies);
}
