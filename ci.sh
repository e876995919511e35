#!/usr/bin/env bash
# CI gate: build, tests, lints, formatting, and the bench-output schema.
# Run from the repository root. Fails fast on the first broken step.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n=== %s ===\n' "$*"; }

step "cargo build --release"
cargo build --release

# Channel parks and an injected hang have no timeout: only a peer or a
# poison wakes them, so a lost wake-up can hang a test for good. Each
# test step runs under `timeout`, far above its measured time (compile
# included); it signals the whole process group, test binaries too.
step "cargo test -q"
timeout -k 10 900 cargo test -q

step "core unit tests, backend differential and chaos recovery, release build"
# The Level-2 kernels' arithmetic and the FMA dispatch (the only
# `unsafe` in crates/) are compiled as shipped here: the row-segment
# kernels against their element-wise oracles, the slice FMA primitives
# against the scalar loop, and every seeded program bit for bit
# against the threaded backend. Armed and retried components run
# through the same unit loop as optimised code too.
timeout -k 10 600 cargo test --release -q -p fblas-core
timeout -k 10 600 cargo test --release -q -p fblas-bench --test backend_differential
timeout -k 10 600 cargo test --release -q -p fblas-bench --test chaos_recovery

step "chunked transport under FBLAS_CHUNK=1"
# The chunk-invariance tests again with every bulk helper degraded to
# element-wise push/pop, so both transfer paths through the channel's
# shared wait helper run under the same assertions.
FBLAS_CHUNK=1 timeout -k 10 300 cargo test -q -p fblas-bench --test chunked_transport

step "scheduler fuzzer, full sweep"
# tier-1 runs one 60-seed block of the lint corpus jittered and
# oversubscribed; this is the 240-seed sweep under seeded channel-op
# delays, 4 concurrent simulations, and both at once. Every stall
# verdict and blocked set must match lint and the unperturbed run.
timeout -k 10 600 cargo test --release -q -p fblas-lint --test schedule_fuzz -- --ignored

step "cargo clippy -- -D warnings"
# crates/lint/clippy.toml and crates/core/clippy.toml additionally
# disallow unwrap/expect in those crates' library code (analyzer
# discipline: diagnostics, not panics); clippy discovers them per crate.
cargo clippy --workspace --all-targets -- -D warnings

step "cargo fmt --check"
cargo fmt --check

step "cargo doc -D warnings"
# Unresolved, ambiguous, redundant or private intra-doc links fail the
# gate, so no doc comment keeps pointing at a removed item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "BENCH_*.json schema"
# table1 is the cheapest bin (pure model, no CPU measurement); its output
# must match the stable schema every bench binary shares.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
FBLAS_BENCH_DIR="$tmpdir" cargo run --release -q -p fblas-bench --bin table1 >/dev/null
python3 - "$tmpdir/BENCH_table1.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, "schema_version must be 1"
assert isinstance(doc["bench"], str)
assert isinstance(doc["rows"], list) and doc["rows"], "rows must be a non-empty list"
for i, row in enumerate(doc["rows"]):
    assert isinstance(row, dict), f"row {i} must be an object"
    for k, v in row.items():
        assert isinstance(v, (int, float, str)), f"row {i} field {k} must be number or string"
print(f"BENCH_table1.json ok: {len(doc['rows'])} rows")
EOF

step "fblas-lint self-check (static analysis examples)"
# Lints every fixture under examples/lint: clean fixtures must produce
# zero errors AND zero warnings (--deny-warnings), *.rejected.json
# fixtures must produce at least one error, --validate round-trips
# every report and every fusion plan byte-stably, and --fusion-plan
# dumps the fblas-fusion-plan-v1 artifacts the dataflow analysis
# derived. Emits BENCH_lint.json for the bench-diff gate below.
FBLAS_BENCH_DIR="$tmpdir" cargo run --release -q -p fblas-lint -- \
    --validate --deny-warnings --fusion-plan "$tmpdir/fusion_plans.json" examples/lint
cargo run --release -q -p fblas-lint -- --format json examples/lint >/dev/null
python3 - "$tmpdir/fusion_plans.json" <<'EOF'
import json, sys
plans = json.load(open(sys.argv[1]))
assert isinstance(plans, list) and plans, "fusion plan dump must be a non-empty array"
fused = sum(p["stats"]["fused"] for p in plans)
rejected = sum(sum(p["stats"]["rejected"].values()) for p in plans)
for p in plans:
    assert p["schema"] == "fblas-fusion-plan-v1", f"bad schema {p['schema']}"
assert fused >= 1, "fixtures must produce at least one fused region"
assert rejected >= 1, "fixtures must produce at least one witnessed rejection"
print(f"fusion plans ok: {len(plans)} plans, {fused} fused regions, {rejected} rejections")
EOF

step "chaos smoke (seeded fault injection + recovery)"
# bench_chaos sweeps seeded faults (bit flips incl. bit 0, element
# drop/duplication, latency spikes, module crashes and hangs) over
# DOT/GEMV/GER and asserts in-bin that every value-corrupting fault is
# detected, recovered within the retry budget, and that recovered
# outputs are bit-identical to fault-free runs. Two runs with the same
# FBLAS_CHAOS_SEED must dump byte-identical fault/recovery reports —
# the determinism contract of the chaos harness.
FBLAS_BENCH_DIR="$tmpdir" FBLAS_CHAOS_SEED=12345 cargo run --release -q -p fblas-bench --bin bench_chaos -- \
    --dump-reports "$tmpdir/chaos_run_a.json" >/dev/null
FBLAS_BENCH_DIR="$tmpdir" FBLAS_CHAOS_SEED=12345 cargo run --release -q -p fblas-bench --bin bench_chaos -- \
    --dump-reports "$tmpdir/chaos_run_b.json" >/dev/null
cmp "$tmpdir/chaos_run_a.json" "$tmpdir/chaos_run_b.json"
echo "seeded chaos fault/recovery reports are byte-identical across runs"
# The same seeded sweep pinned to each execution backend: hook-armed
# attempts degrade fused regions to threaded (the recovery-guards
# obligation), and fault-free reference runs exercise the fused staged
# write-back, so the dumped fault/recovery reports must match byte for
# byte across FBLAS_BACKEND=threaded and FBLAS_BACKEND=fused.
FBLAS_BENCH_DIR="$tmpdir" FBLAS_CHAOS_SEED=12345 FBLAS_BACKEND=threaded \
    cargo run --release -q -p fblas-bench --bin bench_chaos -- \
    --dump-reports "$tmpdir/chaos_run_threaded.json" >/dev/null
FBLAS_BENCH_DIR="$tmpdir" FBLAS_CHAOS_SEED=12345 FBLAS_BACKEND=fused \
    cargo run --release -q -p fblas-bench --bin bench_chaos -- \
    --dump-reports "$tmpdir/chaos_run_fused.json" >/dev/null
cmp "$tmpdir/chaos_run_threaded.json" "$tmpdir/chaos_run_fused.json"
echo "seeded chaos recovery reports are byte-identical across backends"

step "bench-diff against committed baselines"
# Regenerate every bench artifact and gate it against
# benchmarks/baselines/. Model columns are deterministic, so any drift
# is a model change: intentional ones are refreshed with
# `bench-diff --bless` (see README).
for bin in table3 table4 table5 table6 fig10 fig11 hbm_scaling bench_throughput bench_chaos bench_overhead bench_fused; do
    FBLAS_BENCH_DIR="$tmpdir" cargo run --release -q -p fblas-bench --bin "$bin" >/dev/null
done
# bench_serve lives in fblas-serve (the server crate), not fblas-bench:
# its deterministic columns (workers/chaos/requests/ok/failed) gate the
# serving layer's admission arithmetic the same way.
FBLAS_BENCH_DIR="$tmpdir" cargo run --release -q -p fblas-serve --bin bench_serve >/dev/null
cargo run --release -q -p fblas-bench --bin bench-diff -- \
    --baselines benchmarks/baselines --current "$tmpdir"

step "throughput perf smoke (batched transport vs element-wise)"
# bench_throughput (regenerated above) sweeps FBLAS_CHUNK; the batched
# channel layer must keep at least a 5x elements/sec advantage on the
# lock-bound DOT stream, or the chunked transport has regressed.
python3 - "$tmpdir/BENCH_throughput.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = {(r["routine"], r["chunk"]): r for r in doc["rows"]}
slow = rows[("dot", 1)]["cpu_elems_per_sec"]
fast = rows[("dot", 256)]["cpu_elems_per_sec"]
ratio = fast / slow
assert ratio >= 5.0, f"dot chunk=256 must be >= 5x chunk=1 (got {ratio:.1f}x)"
print(f"dot chunk=256 vs chunk=1: {ratio:.1f}x elements/sec")
EOF

step "fused backend perf smoke (compiled loop vs threaded modules)"
# bench_fused (regenerated above) runs the same planner programs under
# both backends with in-bin bit-identity asserts; the compiled
# single-loop execution of the fusable elementwise chain must keep at
# least a 5x elements/sec advantage over the threaded simulator at
# chunk size 1, or region compilation has regressed.
python3 - "$tmpdir/BENCH_fused.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = {(r["routine"], r["backend"], r["chunk"]): r for r in doc["rows"]}
slow = rows[("axpy_chain", "threaded", 1)]["cpu_elems_per_sec"]
fast = rows[("axpy_chain", "fused", 1)]["cpu_elems_per_sec"]
ratio = fast / slow
assert ratio >= 5.0, f"fused axpy_chain must be >= 5x threaded (got {ratio:.1f}x)"
regions = rows[("axpy_chain", "fused", 1)]["fused_regions"]
assert regions >= 1, "axpy_chain must actually fuse"
print(f"axpy_chain fused vs threaded at chunk=1: {ratio:.1f}x elements/sec")
# DOT and AXPYDOT fuse into regions closed by the block-replayed
# reduction; at each chunk size the fused loop must keep at least a
# 10x elements/sec advantage over the threaded modules.
for routine in ("dot", "axpydot"):
    for chunk in (1, 256):
        fused = rows[(routine, "fused", chunk)]
        assert fused["fused_regions"] >= 1, f"{routine} must actually fuse"
        slow = rows[(routine, "threaded", chunk)]["cpu_elems_per_sec"]
        ratio = fused["cpu_elems_per_sec"] / slow
        assert ratio >= 10.0, f"fused {routine} must be >= 10x threaded at chunk={chunk} (got {ratio:.1f}x)"
        print(f"{routine} fused vs threaded at chunk={chunk}: {ratio:.1f}x elements/sec")
# BICG, both GEMVER components (GER->GER->GEMV^T and the lone trailing
# GEMV) and a lone GEMV over 3x3 tiles replay tile by tile, with no
# threaded simulation left: each must stay >= 10x.
for routine, regions in (("bicg", 1), ("gemver", 2), ("gemv_tiles", 1)):
    for chunk in (1, 256):
        fused = rows[(routine, "fused", chunk)]
        assert fused["fused_regions"] >= regions, f"{routine} must replay {regions} tile region(s)"
        slow = rows[(routine, "threaded", chunk)]["cpu_elems_per_sec"]
        ratio = fused["cpu_elems_per_sec"] / slow
        assert ratio >= 10.0, f"fused {routine} must be >= 10x threaded at chunk={chunk} (got {ratio:.1f}x)"
        print(f"{routine} fused vs threaded at chunk={chunk}: {ratio:.1f}x elements/sec")
EOF

step "telemetry overhead gate (armed vs disarmed)"
# bench_overhead (regenerated above) interleaves armed and disarmed runs
# and aborts in-bin past the 3% budget; this re-checks the committed
# report so the gate also fires on a stale artifact.
python3 - "$tmpdir/BENCH_observe.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
budget = doc["meta"]["budget_pct"]
for row in doc["rows"]:
    if row["routine"] == "dot" and row["mode"] == "on":
        pct = row["cpu_overhead_pct"]
        assert pct <= budget, f"dot telemetry overhead {pct:.2f}% > {budget:.0f}% budget"
        print(f"dot telemetry overhead: {pct:.2f}% (budget {budget:.0f}%)")
        break
else:
    raise AssertionError("BENCH_observe.json has no armed dot row")
EOF

step "flight-recorder overhead gate (recorder armed vs off)"
# bench_overhead (regenerated above) interleaves recorder-armed and
# recorder-off runs on the armed metrics runtime and aborts in-bin past
# the 3% budget; this re-checks the committed report so the gate also
# fires on a stale artifact.
python3 - "$tmpdir/BENCH_flight.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
budget = doc["meta"]["budget_pct"]
for row in doc["rows"]:
    if row["routine"] == "dot" and row["mode"] == "on":
        pct = row["cpu_overhead_pct"]
        assert pct <= budget, f"dot flight overhead {pct:.2f}% > {budget:.0f}% budget"
        print(f"dot flight-recorder overhead: {pct:.2f}% (budget {budget:.0f}%)")
        break
else:
    raise AssertionError("BENCH_flight.json has no recorder-armed dot row")
EOF

step "fblas-doctor self-check (postmortem bundle forensics)"
# The example kills a seeded chaos run by exhausting its retry budget;
# the flight recorder must emit a schema-v1 bundle whose deterministic
# view is byte-identical across two runs, and fblas-doctor must render
# it and verify the full document round-trips byte-stably.
bundle_a="$(FBLAS_FLIGHT_DIR="$tmpdir/flight_a" \
    cargo run --release -q -p fblas-bench --example flight_postmortem | tail -n 1)"
bundle_b="$(FBLAS_FLIGHT_DIR="$tmpdir/flight_b" \
    cargo run --release -q -p fblas-bench --example flight_postmortem | tail -n 1)"
cmp "${bundle_a%.json}.det.json" "${bundle_b%.json}.det.json"
echo "seeded postmortem deterministic views are byte-identical across runs"
cargo run --release -q -p fblas-bench --bin fblas-doctor -- "$bundle_a"
cargo run --release -q -p fblas-bench --bin fblas-doctor -- "$bundle_a" --check

step "telemetry snapshot schema + run-ID correlation"
# The example executes a seeded GEMVER run and asserts one run ID across
# the recovery report, Prometheus dump, JSON snapshot (byte-stable
# round trip: serialize -> deserialize -> re-serialize identical), and
# Perfetto trace; fblas-top must then render the persisted snapshot.
FBLAS_SNAPSHOT_OUT="$tmpdir/metrics_snapshot.json" \
    cargo run --release -q -p fblas-lint --example telemetry_gemver
cargo run --release -q -p fblas-bench --bin fblas-top -- \
    --snapshot "$tmpdir/metrics_snapshot.json" >/dev/null
echo "fblas-top renders the snapshot"

step "serve smoke (lockstep determinism + daemon drain)"
# The fixed lockstep smoke workload — success, lint rejection, quota
# shed, chaos exhaustion, breaker open/fast-fail/reset, the admission
# rejections of bad data, a bad chaos plan and an undeclared name,
# stats, drain —
# must produce byte-identical response transcripts across two runs:
# lockstep serializes every admission decision and wall-clock material
# lives only in the stripped `wall` field.
cargo run --release -q -p fblas-serve --bin bench_serve -- \
    --smoke --dump-responses "$tmpdir/serve_smoke_a.txt"
cargo run --release -q -p fblas-serve --bin bench_serve -- \
    --smoke --dump-responses "$tmpdir/serve_smoke_b.txt"
cmp "$tmpdir/serve_smoke_a.txt" "$tmpdir/serve_smoke_b.txt"
echo "serve smoke transcripts are byte-identical across runs"
# The daemon must exit 0 on a clean client-driven drain, and a request
# with mis-sized data must be rejected at admission, never queued. A
# DOT of 2^18 sent twice must answer identically: the second request
# reuses the first one's plan and its fusion analysis, and both fill
# their operands on every core and compute the ABFT predictions beside
# the run.
cargo run --release -q -p fblas-serve --bin fblas-serve -- \
    --addr 127.0.0.1:0 --workers 2 --tenant-qps 0 2>"$tmpdir/serve_daemon.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$tmpdir/serve_daemon.log" && break
    sleep 0.1
done
serve_addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$tmpdir/serve_daemon.log")"
python3 - "$serve_addr" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=30)
f = s.makefile("rw")
req = {"id": 1, "tenant": "ci", "fill_seed": 3, "program": {
    "operands": [{"name": "x", "kind": "vector", "len": 16},
                 {"name": "o", "kind": "vector", "len": 16}],
    "ops": [{"op": "scal", "alpha": 2.0, "x": "x", "out": "o"}]}}
f.write(json.dumps(req) + "\n"); f.flush()
resp = json.loads(f.readline())
assert resp["status"] == "ok", resp
bad = dict(req, id=2, tenant="ci-bad", data={"x": [1.0, 2.0]})
f.write(json.dumps(bad) + "\n"); f.flush()
resp = json.loads(f.readline())
assert (resp["status"], resp["code"], resp["kind"]) == ("rejected", 400, "data"), resp
n = 1 << 18
dot = {"fill_seed": 11, "program": {
    "operands": [{"name": "x", "kind": "vector", "len": n},
                 {"name": "y", "kind": "vector", "len": n},
                 {"name": "s", "kind": "scalar"}],
    "ops": [{"op": "dot", "x": "x", "y": "y", "out": "s"}]}}
answers = []
for i in (3, 4):
    f.write(json.dumps(dict(dot, id=i, tenant=f"ci-dot-{i}")) + "\n"); f.flush()
    resp = json.loads(f.readline())
    assert resp["status"] == "ok", resp
    answers.append((resp.get("scalars"), resp.get("outputs"), resp["recovery"]["attempts"]))
assert answers[0] == answers[1], answers
f.write('{"control":"drain"}\n'); f.flush()
drain = json.loads(f.readline())
assert drain["status"] == "ok", drain
assert drain["stats"]["rejected"] == 1, drain
assert drain["stats"]["admitted"] == drain["stats"]["ok"] == 3, drain
print("daemon served and drained:", drain["stats"]["ok"], "request,",
      drain["stats"]["rejected"], "rejected at admission")
EOF
wait "$serve_pid"
echo "fblas-serve exited 0 after graceful drain"

step "env knob table sync (fblas-env)"
# The documented FBLAS_* table must render; the sync test in
# fblas-hlssim already asserts it matches the reader functions.
cargo run --release -q -p fblas-hlssim --bin fblas-env -- --list

step "audit self-check (model vs traced simulation)"
# Runs the AXPYDOT fixture through the audited executor, pinned to the
# threaded backend, and fails on per-module drift beyond tolerance or a
# missing bottleneck verdict.
cargo run --release -q -p fblas-bench --example audit_report

step "end-to-end benchmark (unit tests + traced stream_closed, small_closed, chaos_closed and mix_open smoke)"
# benchmarks/e2e is a package of its own, outside the workspace, so the
# steps above never compile it. Its unit tests fail on any change to the
# public items it imports; the short traced run checks every served
# answer against its f64 reference and exits nonzero unless the traced
# replica reconciles with the served run.
cargo test --release -q --offline --manifest-path benchmarks/e2e/Cargo.toml
cargo run --release -q --offline --manifest-path benchmarks/e2e/Cargo.toml -- \
    --workload stream_closed --seed 1 --seconds 3 --trace 1 --out "$tmpdir/e2e" >/dev/null
echo "stream_closed traced smoke run reconciled"
# small_closed is the one workload whose replica check
# (replica_worker_vs_served_pct) is gated: a change that moves the
# per-request floor fails here before it fails in the benchmark run.
cargo run --release -q --offline --manifest-path benchmarks/e2e/Cargo.toml -- \
    --workload small_closed --seed 1 --seconds 3 --trace 1 --out "$tmpdir/e2e" >/dev/null
echo "small_closed traced smoke run reconciled"
# chaos_closed is the only workload whose requests are corrupted on
# purpose: every corrupted attempt must still be flagged by the guards
# and ABFT, so the chaos tenant fails terminally as expected and the
# healthy tenant's answers stay right.
cargo run --release -q --offline --manifest-path benchmarks/e2e/Cargo.toml -- \
    --workload chaos_closed --seed 1 --seconds 3 --trace 1 --out "$tmpdir/e2e" >/dev/null
echo "chaos_closed traced smoke run reconciled"
# mix_open is the only workload that sends fresh program shapes and
# lint rejects, so the server's lint cache takes its miss path here
# (the other workloads repeat a few programs and mostly hit it).
cargo run --release -q --offline --manifest-path benchmarks/e2e/Cargo.toml -- \
    --workload mix_open --seed 1 --seconds 3 --trace 1 --out "$tmpdir/e2e" >/dev/null
echo "mix_open traced smoke run reconciled"

printf '\nci.sh: all checks passed\n'
