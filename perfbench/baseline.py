#!/usr/bin/env python3
"""Measures the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/baseline.json]

Runs every workload run.py knows untraced once per seed (seeds 1..N) and
traced once (seed 1), then writes, per workload, each end-to-end metric's
median, quartiles and spread (interquartile distance over the median, the
figure compared against the metric's bound in BENCHMARK.json), and the
traced run's per-layer values.  Workloads that BENCHMARK.json does not
list are measured too and marked "gated": false.  Run from the repository
root; each run goes through perfbench/run.py exactly as a single
measurement does.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    info = dict(line[5:].split("=", 1) for line in lines if line.startswith("info ")
                and "=" in line)
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: a correctness check failed")
    return result, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    gated = {w["name"] for w in spec["workloads"]}
    for workload in WORKLOADS:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.seeds + 1):
            result, info = run(workload, seed, seconds, 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            end_to_end[metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": round(spread, 4),
                "bound": metric["bound"], "unit": metric["unit"]}
            print(f"  {metric['name']:16s} median {med:.5g} spread {spread:.3f} "
                  f"(bound {metric['bound']})", flush=True)
        traced, _ = run(workload, 1, seconds, 1)
        baseline["workloads"][workload] = {
            "gated": workload in gated,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        baseline["host"] = {k: info.get(k) for k in (
            "nproc", "spin_ns_per_iter", "build_type", "git_sha", "source_digest",
            "volume_fs", "io_uring")}
    Path(args.out).write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
