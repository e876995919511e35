#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric's spread.

Runs the command in BENCHMARK.json once per (workload, seed), from the
root of the checkout, and writes a JSON summary: per workload and
metric, the values, their median, quartiles and spread (the distance
between the quartiles over the median), next to the metric's bound.
Besides the gated metrics of the JSON line it collects the figures a
run prints on its own lines (p50, tail mean, p99, SLO share, chaos
time to failure, streaming rate), which have no bound.
--compare checks two such summaries against the bounds. --pair runs a
parent and a change checkout alternately, one pair per seed, each
building into its own .bench_build, and gives a verdict per metric.

    python3 benchmarks/e2e/agree.py --runs 10 --out benchmarks/e2e/agreement-a.json
    python3 benchmarks/e2e/agree.py --compare benchmarks/e2e/agreement-a.json \
        benchmarks/e2e/agreement-b.json
    python3 benchmarks/e2e/agree.py --pair ../parent . --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Which way is better for each printed figure that is not gated.
FIGURES = {
    "p50_ms": "lower",
    "tail_mean_ms": "lower",
    "p99_ms": "lower",
    "elems_per_s": "higher",
    "chaos_p50_ms": "lower",
    "slo_hit_ratio": "higher",
    "gen_late_p99_ms": "lower",
}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench, workload, seed, root=ROOT, env=None):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload and parts[1] in FIGURES:
            values[parts[1]] = float(parts[2])
    return values


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def better(bench):
    return {**FIGURES, **{m["name"]: m["better"] for m in bench["end_to_end"]}}


def measure(args):
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    doc = {"runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    for w in workloads:
        per_metric = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            for name, value in run_once(bench, w, seed).items():
                per_metric.setdefault(name, []).append(value)
            print(f"{w} seed {seed} done", file=sys.stderr)
        doc["workloads"][w] = {}
        for name, values in per_metric.items():
            s = summarise(values)
            s["bound"] = bounds.get(name)
            doc["workloads"][w][name] = s
            wide = s["bound"] is not None and name != "setup_s" and s["spread"] > s["bound"] / 3
            flag = "  WIDE" if wide else ""
            print(f"{w:14} {name:12} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" bound {s['bound']}{flag}")
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")


def compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())["workloads"]
    b = json.loads(Path(b_path).read_text())["workloads"]
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    direction = better(bench)
    ok = True
    for w, metrics in a.items():
        for name, sa in metrics.items():
            sb = b[w].get(name)
            if sb is None:
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if direction[name] == "lower" else -change
            bound = bounds.get(name)
            if bound is None:
                verdict = "figure"
            else:
                verdict = "ok" if worse <= bound else "WORSE"
            ok &= verdict != "WORSE"
            print(f"{w:14} {name:12} {sa['median']:.6g} -> {sb['median']:.6g}"
                  f" ({change:+.2%}, bound {bound}) {verdict}")
    return ok


def pair(args):
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    direction = better(bench)
    roots = {"parent": Path(args.pair[0]).resolve(), "change": Path(args.pair[1]).resolve()}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    doc = {"runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    ok = True
    for w in workloads:
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            sides = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in sides:
                env = dict(os.environ, CARGO_TARGET_DIR=str(roots[side] / ".bench_build"))
                for name, value in run_once(bench, w, seed, roots[side], env).items():
                    values.setdefault(name, {"parent": [], "change": []})[side].append(value)
            print(f"{w} seed {seed} done", file=sys.stderr)
        doc["workloads"][w] = values
        for name, v in values.items():
            if len(v["parent"]) != len(v["change"]) or len(v["parent"]) < 2:
                continue
            p, c = summarise(v["parent"]), summarise(v["change"])
            lower = direction[name] == "lower"
            wins = sum((b < a) if lower else (b > a) for a, b in zip(v["parent"], v["change"]))
            change = (c["median"] - p["median"]) / p["median"]
            worse = change if lower else -change
            bound = bounds.get(name)
            gain = args.runs >= 10 and wins >= 0.9 * args.runs
            if gain and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]:
                verdict = "GAIN"
            elif bound is None:
                verdict = "figure"
            elif worse > bound:
                verdict = "WORSE"
            elif p["spread"] > bound:
                verdict = "unresolved"
            else:
                verdict = "no worse"
            ok &= verdict != "WORSE"
            print(f"{w:14} {name:12} {p['median']:.6g} -> {c['median']:.6g} ({change:+.2%})"
                  f" parent spread {p['spread']:.3f} wins {wins}/{args.runs} {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--pair", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    args = p.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    if args.pair:
        sys.exit(0 if pair(args) else 1)
    if not args.out:
        p.error("--out is required when measuring")
    measure(args)


if __name__ == "__main__":
    main()
