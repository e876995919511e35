//! End-to-end robustness tests for fblas-serve.
//!
//! Every test starts a real server on an ephemeral port and drives it
//! over TCP with the lockstep [`Client`] — the same path production
//! traffic takes. Quotas are refill-free (`tenant_qps: 0`) so every
//! admission decision is exact and repeatable.
//!
//! The invariants under test are the tenancy story of the crate:
//! sheds are explicit (never silent drops), one tenant's chaos cannot
//! perturb a neighbor's *bits*, a worker panic kills one request and
//! nothing else, and drain finishes what it admitted.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use fblas_core::composition::{execute_plan, plan, Backend, ExecOptions};
use fblas_core::host::DeviceBuffer;
use fblas_serve::protocol::fill_value;
use fblas_serve::{parse_line, parse_response, Client, Inbound, Response, ServeConfig, Server};

fn cfg(workers: usize, burst: u32, breaker: u32) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue: 32,
        tenant_qps: 0,
        tenant_burst: burst,
        breaker,
        drain: Duration::from_secs(20),
        write_timeout: Duration::from_secs(5),
    }
}

/// A seeded gemv request in the wire dialect; `n` picks the plan shape.
fn gemv_line(id: u64, tenant: &str, n: usize, fill_seed: u64, chaos_repeat: Option<u32>) -> String {
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

fn exec(c: &mut Client, line: &str) -> Response {
    let raw = c.roundtrip_line(line).expect("roundtrip");
    parse_response(&raw).expect("response parses")
}

fn output_bits(r: &Response) -> Vec<u64> {
    r.outputs
        .get("o")
        .expect("response returns operand `o`")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Over-quota requests shed with an explicit 429, and the shed leaves
/// the admitted requests' results bit-identical to a solo run of the
/// same seeded request on a fresh server.
#[test]
fn quota_sheds_explicitly_and_results_match_solo_run() {
    let server = Server::start(cfg(2, 2, 1_000)).expect("server starts");
    let mut c = Client::connect(server.addr()).expect("client connects");

    let r1 = exec(&mut c, &gemv_line(1, "t", 16, 7, None));
    assert_eq!((r1.status.as_str(), r1.code), ("ok", 200));
    let r2 = exec(&mut c, &gemv_line(2, "t", 16, 7, None));
    assert_eq!(r2.status, "ok");
    // Same seeded request → same bits, even with quota pressure around.
    assert_eq!(output_bits(&r1), output_bits(&r2));

    let shed = exec(&mut c, &gemv_line(3, "t", 16, 7, None));
    assert_eq!((shed.status.as_str(), shed.code), ("shed", 429));
    assert_eq!(shed.kind.as_deref(), Some("quota"));
    assert_eq!(
        shed.retry_after_ms, None,
        "refill-free bucket has no retry ETA"
    );
    assert!(shed.scalars.is_empty() && shed.outputs.is_empty());

    // Other tenants have their own bucket.
    let other = exec(&mut c, &gemv_line(4, "u", 16, 7, None));
    assert_eq!(other.status, "ok");
    let busy_bits = output_bits(&r1);
    assert!(server.drain().clean);

    // Solo run on a fresh server: identical bits for the same request.
    let solo_srv = Server::start(cfg(1, 2, 1_000)).expect("solo server starts");
    let mut solo = Client::connect(solo_srv.addr()).expect("solo client connects");
    let solo_resp = exec(&mut solo, &gemv_line(1, "t", 16, 7, None));
    assert_eq!(solo_resp.status, "ok");
    assert_eq!(
        output_bits(&solo_resp),
        busy_bits,
        "multi-tenant execution changed result bits vs solo"
    );
    assert_eq!(
        solo_resp.run_id, r1.run_id,
        "run seed must be request-determined"
    );
    assert!(solo_srv.drain().clean);
}

/// A chaos tenant burning its whole retry budget on every request —
/// and eventually tripping its shape's breaker — must not perturb a
/// healthy neighbor: same bits as solo, no stalls, and the neighbor's
/// shape never fast-fails.
#[test]
fn chaos_tenant_cannot_perturb_healthy_neighbor() {
    // Solo baseline first.
    let solo_srv = Server::start(cfg(1, 1_000, 1_000)).expect("solo server starts");
    let mut solo = Client::connect(solo_srv.addr()).expect("solo client connects");
    let baseline = exec(&mut solo, &gemv_line(100, "healthy", 16, 9, None));
    assert_eq!(baseline.status, "ok");
    let baseline_bits = output_bits(&baseline);
    assert!(solo_srv.drain().clean);

    // Breaker threshold 3: the chaos tenant's own 24×24 shape opens.
    let server = Server::start(cfg(2, 1_000, 3)).expect("server starts");
    let mut chaos = Client::connect(server.addr()).expect("chaos client connects");
    let mut healthy = Client::connect(server.addr()).expect("healthy client connects");

    for round in 0..3u64 {
        let bad = exec(&mut chaos, &gemv_line(200 + round, "chaos", 24, 2, Some(5)));
        assert_eq!(
            (bad.status.as_str(), bad.code),
            ("failed", 500),
            "chaos request must fail terminally, round {round}"
        );
        assert_eq!(bad.kind.as_deref(), Some("corruption"));
        // The neighbor keeps getting bit-exact results between failures.
        let good = exec(&mut healthy, &gemv_line(100, "healthy", 16, 9, None));
        assert_eq!(good.status, "ok", "healthy request failed in round {round}");
        assert_eq!(
            output_bits(&good),
            baseline_bits,
            "chaos neighbor changed healthy tenant's bits, round {round}"
        );
    }

    // The chaos shape's breaker is now open: fast-fail at admission.
    let tripped = exec(&mut chaos, &gemv_line(300, "chaos", 24, 2, None));
    assert_eq!((tripped.status.as_str(), tripped.code), ("shed", 503));
    assert_eq!(tripped.kind.as_deref(), Some("breaker_open"));

    // The healthy shape is untouched by the neighbor's breaker.
    let still_good = exec(&mut healthy, &gemv_line(101, "healthy", 16, 9, None));
    assert_eq!(still_good.status, "ok");
    assert_eq!(output_bits(&still_good), baseline_bits);
    assert!(server.drain().clean);
}

/// Breakers are keyed by (tenant, shape): a tenant whose requests keep
/// failing on a shape opens only *its own* breaker — a neighbor
/// submitting the structurally identical program is never fast-failed
/// (no cross-tenant denial of service through a shared plan shape).
#[test]
fn breaker_is_tenant_scoped_for_identical_shapes() {
    let server = Server::start(cfg(2, 1_000, 2)).expect("server starts");
    let mut chaos = Client::connect(server.addr()).expect("chaos client connects");
    let mut healthy = Client::connect(server.addr()).expect("healthy client connects");

    // Both tenants use the same 16×16 gemv shape. The chaos tenant
    // burns its retry budget twice — threshold 2 opens its breaker.
    for round in 0..2u64 {
        let bad = exec(&mut chaos, &gemv_line(400 + round, "chaos", 16, 2, Some(5)));
        assert_eq!(
            (bad.status.as_str(), bad.code),
            ("failed", 500),
            "chaos request must fail terminally, round {round}"
        );
    }
    let tripped = exec(&mut chaos, &gemv_line(410, "chaos", 16, 2, None));
    assert_eq!((tripped.status.as_str(), tripped.code), ("shed", 503));
    assert_eq!(tripped.kind.as_deref(), Some("breaker_open"));

    // The neighbor's structurally identical request still executes.
    let good = exec(&mut healthy, &gemv_line(420, "healthy", 16, 2, None));
    assert_eq!(
        good.status, "ok",
        "neighbor must not inherit the chaos tenant's open breaker"
    );
    assert!(server.drain().clean);
}

/// A deliberately panicking request comes back as a structured `panic`
/// failure, and the worker that caught it keeps serving.
#[test]
fn worker_panic_is_contained_to_one_request() {
    // One worker: if the panic killed it, the follow-up would hang.
    let server = Server::start(cfg(1, 1_000, 1_000)).expect("server starts");
    let mut c = Client::connect(server.addr()).expect("client connects");

    let line = r#"{"id":1,"tenant":"t","chaos":{"panic_worker":true},"program":{"operands":[{"name":"x","kind":"vector","len":8},{"name":"o","kind":"vector","len":8}],"ops":[{"op":"scal","alpha":2.0,"x":"x","out":"o"}]}}"#;
    let boom = exec(&mut c, line);
    assert_eq!((boom.status.as_str(), boom.code), ("failed", 500));
    assert_eq!(boom.kind.as_deref(), Some("panic"));

    // The single worker survived and still executes real work.
    let after = exec(&mut c, &gemv_line(2, "t", 16, 3, None));
    assert_eq!(after.status, "ok");
    let outcome = server.drain();
    assert!(outcome.clean);
    assert_eq!(outcome.stats.panics, 1);
    assert_eq!(outcome.stats.ok, 1);
}

/// An already-expired deadline fails fast with a structured 408 before
/// burning a simulator run, and a generous deadline doesn't interfere.
#[test]
fn expired_deadline_fails_fast_with_408() {
    let server = Server::start(cfg(1, 1_000, 1_000)).expect("server starts");
    let mut c = Client::connect(server.addr()).expect("client connects");

    // deadline_ms: 0 is expired by the time a worker picks it up.
    let mut line = gemv_line(1, "t", 16, 5, None);
    line = line.replacen("\"tenant\"", "\"deadline_ms\":0,\"tenant\"", 1);
    let late = exec(&mut c, &line);
    assert_eq!((late.status.as_str(), late.code), ("failed", 408));
    assert_eq!(late.kind.as_deref(), Some("deadline"));
    assert!(late.outputs.is_empty(), "expired request must not execute");

    // A generous deadline still slices into per-attempt budgets and
    // completes normally.
    let mut ok_line = gemv_line(2, "t", 16, 5, None);
    ok_line = ok_line.replacen("\"tenant\"", "\"deadline_ms\":30000,\"tenant\"", 1);
    let fine = exec(&mut c, &ok_line);
    assert_eq!(fine.status, "ok");
    let outcome = server.drain();
    assert!(outcome.clean);
    assert_eq!(outcome.stats.deadline_expired, 1);
}

/// Drain finishes every admitted request (zero loss), refuses new work
/// with an explicit shed, and reports clean.
#[test]
fn graceful_drain_loses_nothing_and_sheds_latecomers() {
    let server = Server::start(cfg(2, 1_000, 1_000)).expect("server starts");
    let addr = server.addr();

    // Four tenants in flight on their own connections while the drain
    // fires from a fifth.
    let workers: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("tenant connects");
                let mut ok = 0u64;
                for i in 0..3u64 {
                    // After the drain completes the server closes the
                    // connection; a latecomer seeing EOF is fine — what
                    // is not fine is an admitted request vanishing.
                    let Ok(raw) =
                        c.roundtrip_line(&gemv_line(t * 10 + i, &format!("t{t}"), 16, i, None))
                    else {
                        break;
                    };
                    let r = parse_response(&raw).expect("response parses");
                    match r.status.as_str() {
                        "ok" => ok += 1,
                        "shed" => {
                            assert_eq!(r.kind.as_deref(), Some("draining"));
                            assert_eq!(r.code, 503);
                        }
                        other => panic!("unexpected status {other}: {:?}", r.detail),
                    }
                }
                ok
            })
        })
        .collect();
    // Let some requests get admitted before draining.
    std::thread::sleep(Duration::from_millis(50));
    let mut ctl = Client::connect(addr).expect("control client connects");
    let drain_raw = ctl.control("drain").expect("drain roundtrip");
    assert!(
        drain_raw.contains(r#""status":"ok""#),
        "drain must complete cleanly: {drain_raw}"
    );
    let completed: u64 = workers
        .into_iter()
        .map(|h| h.join().expect("tenant thread joins"))
        .sum();

    let outcome = server.wait();
    assert!(outcome.clean, "drain reported unclean");
    assert_eq!(
        outcome.stats.ok, completed,
        "admitted-and-executed count must equal responses the tenants saw"
    );
    assert_eq!(
        outcome.stats.admitted, outcome.stats.ok,
        "every admitted request must have executed (zero loss)"
    );
    assert_eq!(outcome.stats.failed, 0);
}

/// Requests that would bind data to an undeclared operand, to a
/// scalar or at the wrong length, return an undeclared operand, or arm
/// a malformed chaos plan are refused at admission: a 400 with its
/// kind, counted as `rejected`, and never queued — `admitted` and
/// `failed` do not move.
#[test]
fn admission_rejects_bad_bindings_and_chaos_before_the_queue() {
    let server = Server::start(cfg(1, 1_000, 1_000)).expect("server starts");
    let mut c = Client::connect(server.addr()).expect("client connects");
    let dot = |id: u64, field: &str| {
        format!(
            r#"{{"id":{id},{field},"tenant":"t","fill_seed":3,"program":{{"operands":[{{"name":"x","kind":"vector","len":16}},{{"name":"y","kind":"vector","len":16}},{{"name":"d","kind":"scalar"}}],"ops":[{{"op":"dot","x":"x","y":"y","out":"d"}}]}}}}"#
        )
    };
    let cases = [
        (
            dot(1, r#""data":{"x":[1.0,2.0]}"#),
            "data",
            "got 2 elements, expected 16",
        ),
        (
            dot(
                2,
                r#""chaos":{"faults":[{"site":"sideways","channel":"write_x"}]}"#,
            ),
            "chaos",
            "site `sideways`",
        ),
        (
            dot(3, r#""data":{"ghost":[1.0]}"#),
            "data",
            "undeclared operand `ghost`",
        ),
        (dot(4, r#""data":{"d":[1.0]}"#), "data", "`d` is a scalar"),
        (
            dot(5, r#""want":["d","ghost"]"#),
            "data",
            "undeclared operand `ghost`",
        ),
    ];
    for (i, (line, kind, detail)) in cases.iter().enumerate() {
        let r = exec(&mut c, line);
        assert_eq!(
            (r.status.as_str(), r.code, r.kind.as_deref()),
            ("rejected", 400, Some(*kind)),
            "case {i}: {:?}",
            r.detail
        );
        let got = r.detail.as_deref().unwrap_or_default();
        assert!(got.contains(detail), "case {i}: detail {got:?}");
        let stats = server.stats();
        assert_eq!(stats.rejected, i as u64 + 1, "case {i}");
        assert_eq!((stats.admitted, stats.failed), (0, 0), "case {i}");
    }

    // A `want` naming a declared scalar is not an error: the value
    // comes back in `scalars`, as every DOT result does.
    let r = exec(&mut c, &dot(6, r#""want":["d"]"#));
    assert_eq!(r.status, "ok", "{:?}", r.detail);
    assert!(r.outputs.is_empty() && r.scalars.contains_key("d"));
    let outcome = server.drain();
    assert!(outcome.clean);
    assert_eq!(
        (
            outcome.stats.admitted,
            outcome.stats.ok,
            outcome.stats.rejected
        ),
        (1, 1, 5)
    );
    assert_eq!(outcome.stats.failed, 0);
}

/// The five `stream_closed` kernels of the repository benchmark, plus
/// a lone GEMV over 3 × 3 tiles. Each is served twice — the second
/// time from the server's lint cache — and run cold on the same fill
/// (`to_program` → `plan` → `execute_plan`) on the threaded backend,
/// the oracle: both served outputs and scalars — fused, replayed tile
/// by tile (BICG, both GEMVER components, the 3 × 3 GEMV), or threaded
/// (the one-tile GEMV) — must match bit for bit, so neither the plan
/// admission built or cached nor the backend that ran it changes
/// anything.
#[test]
fn served_kernels_match_the_cold_path_bit_for_bit() {
    let vec = |name: &str, n: usize| format!(r#"{{"name":"{name}","kind":"vector","len":{n}}}"#);
    let mat_n = |name: &str, n: usize| {
        format!(r#"{{"name":"{name}","kind":"matrix","rows":{n},"cols":{n}}}"#)
    };
    let mat = |name: &str| mat_n(name, 16);
    let scalar = |name: &str| format!(r#"{{"name":"{name}","kind":"scalar"}}"#);
    let kernels: [(&str, Vec<String>, &str); 6] = [
        (
            "dot",
            vec![vec("x", 64), vec("y", 64), scalar("d")],
            r#"{"op":"dot","x":"x","y":"y","out":"d"}"#,
        ),
        (
            "axpydot",
            vec![
                vec("w", 64),
                vec("v", 64),
                vec("u", 64),
                vec("z", 64),
                scalar("beta"),
            ],
            r#"{"op":"axpy","alpha":-0.75,"x":"v","y":"w","out":"z"},{"op":"dot","x":"z","y":"u","out":"beta"}"#,
        ),
        (
            "gemv",
            vec![mat("A"), vec("x", 16), vec("y", 16), vec("o", 16)],
            r#"{"op":"gemv","alpha":1.5,"beta":-0.25,"a":"A","x":"x","y":"y","out":"o"}"#,
        ),
        (
            "gemv 40",
            vec![mat_n("A", 40), vec("x", 40), vec("y", 40), vec("o", 40)],
            r#"{"op":"gemv","alpha":1.5,"beta":-0.25,"a":"A","x":"x","y":"y","out":"o"}"#,
        ),
        (
            "bicg",
            vec![
                mat("A"),
                vec("p", 16),
                vec("r", 16),
                vec("q", 16),
                vec("s", 16),
            ],
            r#"{"op":"gemv","alpha":1.0,"a":"A","x":"p","out":"q"},{"op":"gemv","alpha":1.0,"a":"A","transposed":true,"x":"r","out":"s"}"#,
        ),
        (
            "gemver",
            vec![
                mat("A"),
                mat("B1"),
                mat("B"),
                vec("u1", 16),
                vec("v1", 16),
                vec("u2", 16),
                vec("v2", 16),
                vec("y", 16),
                vec("z", 16),
                vec("x", 16),
                vec("w", 16),
            ],
            r#"{"op":"ger","alpha":1.0,"a":"A","x":"u1","y":"v1","out":"B1"},{"op":"ger","alpha":1.0,"a":"B1","x":"u2","y":"v2","out":"B"},{"op":"gemv","alpha":0.5,"beta":1.0,"a":"B","transposed":true,"x":"y","y":"z","out":"x"},{"op":"gemv","alpha":1.25,"a":"B","x":"x","out":"w"}"#,
        ),
    ];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let fill_seed = 11;
    let server = Server::start(cfg(1, 1_000, 1_000)).expect("server starts");
    let mut c = Client::connect(server.addr()).expect("client connects");
    for (id, (name, operands, ops)) in kernels.iter().enumerate() {
        let line = |id: usize| {
            format!(
                r#"{{"id":{id},"tenant":"t","fill_seed":{fill_seed},"program":{{"operands":[{}],"ops":[{ops}],"config":{{"tn":16,"tm":16}}}}}}"#,
                operands.join(",")
            )
        };
        let Ok(Inbound::Exec(req)) = parse_line(&line(id)) else {
            panic!("{name}: request parses")
        };
        let program = req.program.to_program().expect("program converts");
        let cfg = req.program.config.planner_config();
        let planned = plan(&program, &cfg).expect("program plans");
        let buffers: HashMap<String, DeviceBuffer<f64>> = req
            .program
            .operands
            .iter()
            .filter_map(|od| {
                let len = match od.kind.as_str() {
                    "vector" => od.len?,
                    "matrix" => od.rows? * od.cols?,
                    _ => return None,
                };
                let data = (0..len)
                    .map(|i| fill_value(fill_seed, &od.name, i))
                    .collect();
                Some((od.name.clone(), DeviceBuffer::from_vec(&od.name, data, 0)))
            })
            .collect();
        let threaded = ExecOptions {
            backend: Backend::Threaded,
            ..ExecOptions::default()
        };
        let cold = execute_plan::<f64>(&program, &planned, &cfg, &buffers, &threaded)
            .expect("cold run succeeds");
        let cold_scalars: BTreeMap<String, f64> = cold.scalars.into_iter().collect();

        for round in 0..2 {
            let served = exec(&mut c, &line(id + round * kernels.len()));
            assert_eq!(served.status, "ok", "{name} #{round}: {:?}", served.detail);
            assert!(!served.outputs.is_empty() || !served.scalars.is_empty());
            for (out, values) in &served.outputs {
                let cold_values = buffers[out].to_host();
                assert_eq!(
                    bits(values),
                    bits(&cold_values),
                    "{name} #{round}: output `{out}`"
                );
            }
            assert_eq!(
                served.scalars.keys().collect::<Vec<_>>(),
                cold_scalars.keys().collect::<Vec<_>>(),
                "{name} #{round}: scalar names"
            );
            for (s, v) in &served.scalars {
                assert_eq!(
                    v.to_bits(),
                    cold_scalars[s].to_bits(),
                    "{name} #{round}: scalar `{s}`"
                );
            }
        }
    }
    assert!(server.drain().clean);
}
