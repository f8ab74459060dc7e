#!/usr/bin/env python3
"""Repository benchmark: builds the stack from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark prints one line per metric (name,
value, unit, sample count) and per correctness check, then a closing JSON
line: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The exit status is nonzero when the build fails, the sources
are missing, or a correctness check fails.  Build outputs go to
.bench_build/, volumes, node logs, span dumps and the stamped results file
to .bench_run/.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("bank_durable", "read_inmem", "cluster_tcp")
RUN_TIMEOUT_S = 170

# Checks each workload must report as executed (and passed).
CHECKS = {
    "bank_durable": ["reopened_caps_validate", "conservation", "ledger"],
    "read_inmem": ["balances_match_minted"],
    "cluster_tcp": ["conservation", "caps_validate", "one_transfer_per_sink"],
}
TRACE_CHECKS = ["replay_opens", "replay_validates_one_way_xor",
                "replay_validates_commutative"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in (ROOT / "src" / "CMakeLists.txt",
                   ROOT / "cluster" / "cluster_node.cpp"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time is cheap and keeps a reused build directory
        # in step with the build file.
        steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "cluster_node"]]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed", 3)


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "none"


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "cluster", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(BUILD_DIR / "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", str(RUN_DIR / f"{workload}-{os.getpid()}"),
           "--out-dir", str(RUN_DIR / "out"),
           "--node-bin", str(BUILD_DIR / "cluster_node"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(RUN_TIMEOUT_S,
                            lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    finally:
        timer.cancel()
        try:  # nothing the run started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return code, lines


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_test():
    """Short run of every workload, untraced and traced: every named metric
    is emitted with its unit and a sample count, and every correctness
    check runs and passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_workload(workload, 1, 1, trace, echo=False)
            label = f"{workload} trace={trace}"
            result = result_of(lines)
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, result line {'ok' if result else 'missing'}")
                continue
            counted = {line.split()[1] for line in lines
                       if line.startswith("metric ") and " n=" in line}
            for metric in kinds[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or wrong unit")
                elif metric["name"] not in counted:
                    problems.append(f"{label}: {metric['name']} printed without sample count")
            extra = set(result["metrics"]) - {m["name"] for m in kinds[trace]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            checks = [line.split()[1:3] for line in lines if line.startswith("check ")]
            passed = {name.rstrip(":") for name, verdict in checks if verdict == "pass"}
            problems += [f"{label}: check {name.rstrip(':')} failed"
                         for name, verdict in checks if verdict != "pass"]
            for check in CHECKS[workload] + (TRACE_CHECKS if trace else []):
                if check not in passed:
                    problems.append(f"{label}: check {check} did not run and pass")
            print(f"self-test {label}: {len(result['metrics'])} metrics, "
                  f"{len(passed)} checks passed")
    for problem in problems:
        print(f"self-test FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    code, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if code == 0 and result_of(lines) is None:
        print("perfbench: the run printed no result", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
