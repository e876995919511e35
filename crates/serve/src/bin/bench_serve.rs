//! Serving benchmark and deterministic smoke driver.
//!
//! Two modes:
//!
//! - `bench_serve --smoke [--dump-responses PATH]` — drive a fixed
//!   lockstep workload (one request outstanding at a time) against an
//!   in-process server with refill-free quotas, printing every
//!   response's
//!   [`Response::deterministic_line`](fblas_serve::Response::deterministic_line).
//!   Two runs of this mode must produce byte-identical dumps — `ci.sh`
//!   compares them — because lockstep serializes every admission
//!   decision and all wall-clock material lives in the stripped `wall`
//!   field. Exercises the whole robustness surface: success, lint
//!   rejection, quota shed, chaos exhaustion, breaker
//!   open/fast-fail/reset, the admission rejections of bad operand
//!   data, a malformed chaos plan and an undeclared name, stats,
//!   graceful drain.
//!
//! - `bench_serve` (default) — closed-loop latency/throughput sweep: at
//!   1, 4, and 8 workers, four healthy tenants (and, in the `armed`
//!   rows, one chaos tenant whose every request dies through the full
//!   retry budget) each run a lockstep request stream from their own
//!   connection. Reports RPS and p50/p95/p99 latency. Deterministic
//!   columns (`workers`, `chaos`, `requests`, `ok`, `failed`) are gated
//!   by bench-diff; wall-clock columns carry the volatile `cpu_` prefix
//!   and are exempt.
//!
//! ```text
//! cargo run --release -p fblas-serve --bin bench_serve [-- --smoke]
//! ```

use std::io::Write as _;
use std::time::{Duration, Instant};

use fblas_bench::metrics::{BenchReport, Cell};
use fblas_serve::{parse_response, Client, ServeConfig, Server};

/// A gemv request in the lint `"program"` dialect. `n` picks the plan
/// shape; `chaos_repeat` arms a stacked write-channel corruption that
/// outlives the retry budget when `>= retry_max`.
fn gemv_request(
    id: u64,
    tenant: &str,
    n: usize,
    fill_seed: u64,
    chaos_repeat: Option<u32>,
) -> String {
    let chaos = match chaos_repeat {
        Some(repeat) => format!(
            r#","retry_max":3,"chaos":{{"seed":4242,"repeat":{repeat},"faults":[{{"channel":"write_o","index":5,"bit":7}}]}}"#
        ),
        None => String::new(),
    };
    format!(
        r#"{{"id":{id},"tenant":"{tenant}","fill_seed":{fill_seed}{chaos},"program":{{"operands":[{{"name":"A","kind":"matrix","rows":{n},"cols":{n}}},{{"name":"x","kind":"vector","len":{n}}},{{"name":"y","kind":"vector","len":{n}}},{{"name":"o","kind":"vector","len":{n}}}],"ops":[{{"op":"gemv","alpha":1.5,"beta":-0.25,"a":"A","x":"x","y":"y","out":"o"}}],"config":{{"tn":{n},"tm":{n}}}}}}}"#
    )
}

/// A structurally broken program: `x` is referenced but never declared.
fn broken_request(id: u64, tenant: &str) -> String {
    format!(
        r#"{{"id":{id},"tenant":"{tenant}","program":{{"operands":[{{"name":"o","kind":"vector","len":8}}],"ops":[{{"op":"scal","alpha":2.0,"x":"x","out":"o"}}]}}}}"#
    )
}

/// The fixed smoke workload. Returns every deterministic response line
/// in order.
fn run_smoke() -> Vec<String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 8,
        tenant_qps: 0, // refill-free: every quota decision is exact
        tenant_burst: 4,
        breaker: 3,
        drain: Duration::from_secs(10),
        write_timeout: Duration::from_secs(5),
    })
    .expect("smoke server binds an ephemeral port");
    let mut c = Client::connect(server.addr()).expect("smoke client connects");
    let mut dump = Vec::new();
    let mut roundtrip = |line: &str, dump: &mut Vec<String>| {
        let resp = c.roundtrip_line(line).expect("smoke roundtrip");
        // Control responses carry no wall field; exec responses get it
        // stripped by re-serializing deterministically.
        let det = match parse_response(&resp) {
            Ok(r) => r.deterministic_line(),
            Err(_) => resp,
        };
        dump.push(det);
    };

    roundtrip(r#"{"control":"ping"}"#, &mut dump);
    // Healthy tenant: the same seeded request twice — identical bodies.
    roundtrip(&gemv_request(1, "alpha", 16, 7, None), &mut dump);
    roundtrip(&gemv_request(2, "alpha", 16, 7, None), &mut dump);
    // Admission: structurally broken program bounces with diagnostics.
    roundtrip(&broken_request(3, "badly"), &mut dump);
    // Quota: burst 4 admits four, sheds the fifth.
    for id in 4..=8 {
        roundtrip(&gemv_request(id, "bursty", 16, 1, None), &mut dump);
    }
    // Chaos tenant on its own 24×24 shape: three exhaustion failures
    // open that shape's breaker…
    for id in 9..=11 {
        roundtrip(&gemv_request(id, "chaos", 24, 2, Some(5)), &mut dump);
    }
    // …so the fourth fast-fails at admission without debiting quota,
    roundtrip(&gemv_request(12, "chaos", 24, 2, None), &mut dump);
    // while the healthy 16×16 shape is untouched by the neighbor's
    // breaker (alpha's quota: 2 spent + this = 3 ≤ 4).
    roundtrip(&gemv_request(13, "alpha", 16, 7, None), &mut dump);
    // Operators can close breakers; the shape then executes again.
    roundtrip(r#"{"control":"reset_breakers"}"#, &mut dump);
    roundtrip(&gemv_request(14, "chaos", 24, 2, None), &mut dump);
    // Admission refuses bad bindings and chaos plans before the queue:
    // three 400s counted as `rejected`, none admitted.
    let with = |id: u64, field: &str| {
        gemv_request(id, "sloppy", 16, 3, None).replacen(
            "\"tenant\"",
            &format!("{field},\"tenant\""),
            1,
        )
    };
    roundtrip(&with(15, r#""data":{"x":[1.0,2.0]}"#), &mut dump);
    roundtrip(
        &with(
            16,
            r#""chaos":{"faults":[{"site":"sideways","channel":"write_o"}]}"#,
        ),
        &mut dump,
    );
    roundtrip(&with(17, r#""want":["ghost"]"#), &mut dump);
    roundtrip(r#"{"control":"stats"}"#, &mut dump);
    roundtrip(r#"{"control":"drain"}"#, &mut dump);
    let outcome = server.wait();
    assert!(outcome.clean, "smoke drain must complete cleanly");
    dump
}

/// One tenant's closed-loop stream: `count` lockstep requests on a
/// dedicated connection; returns per-request latencies in µs and the
/// (ok, failed) split.
fn drive_tenant(
    addr: std::net::SocketAddr,
    tenant: String,
    base_id: u64,
    count: usize,
    chaos: bool,
) -> (Vec<u64>, u64, u64) {
    let mut c = Client::connect(addr).expect("bench client connects");
    let mut lat = Vec::with_capacity(count);
    let (mut ok, mut failed) = (0u64, 0u64);
    for i in 0..count {
        let line = gemv_request(
            base_id + i as u64,
            &tenant,
            16,
            base_id + i as u64,
            chaos.then_some(5),
        );
        let t0 = Instant::now();
        let resp = c.roundtrip_line(&line).expect("bench roundtrip");
        lat.push(t0.elapsed().as_micros() as u64);
        let parsed = parse_response(&resp).expect("bench response parses");
        if parsed.status == "ok" {
            ok += 1;
        } else {
            failed += 1;
        }
    }
    (lat, ok, failed)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One sweep point: `workers` workers, optionally a chaos tenant
/// alongside the four healthy ones.
fn bench_point(workers: usize, armed: bool, per_tenant: usize) -> Vec<(&'static str, Cell)> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue: 1024,
        tenant_qps: 1_000_000, // never shed: counts stay deterministic
        tenant_burst: 1_000_000,
        breaker: 1_000_000, // never trip: chaos rows measure full retries
        drain: Duration::from_secs(30),
        write_timeout: Duration::from_secs(10),
    })
    .expect("bench server binds");
    let addr = server.addr();
    let t0 = Instant::now();
    let mut handles: Vec<std::thread::JoinHandle<(Vec<u64>, u64, u64)>> = (0..4)
        .map(|t| {
            let tenant = format!("tenant-{t}");
            std::thread::spawn(move || {
                drive_tenant(addr, tenant, (t as u64 + 1) * 10_000, per_tenant, false)
            })
        })
        .collect();
    if armed {
        handles.push(std::thread::spawn(move || {
            drive_tenant(addr, "chaos".to_string(), 90_000, per_tenant, true)
        }));
    }
    let mut lat = Vec::new();
    let (mut ok, mut failed) = (0u64, 0u64);
    for h in handles {
        let (l, o, f) = h.join().expect("bench tenant thread joins");
        lat.extend(l);
        ok += o;
        failed += f;
    }
    let wall = t0.elapsed().as_secs_f64();
    let outcome = server.drain();
    assert!(outcome.clean, "bench drain must complete cleanly");
    lat.sort_unstable();
    let total = ok + failed;
    vec![
        ("workers", Cell::U(workers as u64)),
        ("chaos", Cell::S(if armed { "armed" } else { "off" }.into())),
        ("requests", Cell::U(total)),
        ("ok", Cell::U(ok)),
        ("failed", Cell::U(failed)),
        ("cpu_rps", Cell::F(total as f64 / wall)),
        ("cpu_p50_us", Cell::U(percentile(&lat, 0.50))),
        ("cpu_p95_us", Cell::U(percentile(&lat, 0.95))),
        ("cpu_p99_us", Cell::U(percentile(&lat, 0.99))),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        let dump = run_smoke();
        let path = args
            .iter()
            .position(|a| a == "--dump-responses")
            .and_then(|i| args.get(i + 1));
        match path {
            Some(p) => {
                let mut f = std::fs::File::create(p).expect("create dump file");
                for line in &dump {
                    writeln!(f, "{line}").expect("write dump line");
                }
                println!("bench_serve --smoke: {} responses -> {p}", dump.len());
            }
            None => {
                for line in &dump {
                    println!("{line}");
                }
            }
        }
        return;
    }

    let per_tenant = args
        .iter()
        .position(|a| a == "--requests")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(20);
    let mut report = BenchReport::new("serve");
    report.meta("suite", Cell::S("serve-latency".into()));
    report.meta("tenants", Cell::U(4));
    report.meta("per_tenant_requests", Cell::U(per_tenant as u64));
    report.meta("gemv_n", Cell::U(16));
    println!(
        "{:>7} {:>6} {:>9} {:>6} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "workers", "chaos", "requests", "ok", "failed", "rps", "p50_us", "p95_us", "p99_us"
    );
    for &workers in &[1usize, 4, 8] {
        for &armed in &[false, true] {
            let row = bench_point(workers, armed, per_tenant);
            let get_u = |k: &str| {
                row.iter()
                    .find(|(n, _)| *n == k)
                    .map(|(_, c)| match c {
                        Cell::U(v) => *v,
                        _ => 0,
                    })
                    .unwrap_or(0)
            };
            let rps = row
                .iter()
                .find(|(n, _)| *n == "cpu_rps")
                .map(|(_, c)| match c {
                    Cell::F(v) => *v,
                    _ => 0.0,
                })
                .unwrap_or(0.0);
            println!(
                "{:>7} {:>6} {:>9} {:>6} {:>7} {:>10.1} {:>10} {:>10} {:>10}",
                workers,
                if armed { "armed" } else { "off" },
                get_u("requests"),
                get_u("ok"),
                get_u("failed"),
                rps,
                get_u("cpu_p50_us"),
                get_u("cpu_p95_us"),
                get_u("cpu_p99_us"),
            );
            report.add_row(row);
        }
    }
    report.write().expect("write BENCH_serve.json");
}
