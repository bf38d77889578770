#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run, as BENCHMARK.json at the repository root defines it:

    python3 perfbench/run.py --workload batch_full --seed 1 --seconds 10 --trace 0

builds the harness (perfbench/main.cc) and the library from source into
.bench_build/perfbench with CMake, runs one workload, checks the metric
names and units against BENCHMARK.json and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics and a Chrome trace in
.bench_build/traces/. The exit code is 0 when every correctness check
passed, 1 when one failed, 2 when the benchmark could not run.

Every metric by name, with its unit, median, quartiles and sample count,
over seeds 1..--runs, for one workload or all of them:

    python3 perfbench/run.py --report [--workload all] [--runs 5]
        [--seconds 10] [--record perfbench/trajectory.jsonl]

--record appends that summary as one row (commit, date, nproc) to the
benchmark's trajectory file.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
HARNESS = os.path.join(BUILD_DIR, "perfbench")
SELFTEST = os.path.join(BUILD_DIR, "perfbench_selftest")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally. Build output goes to
    stderr so the result stays the last line of stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    commands = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", BUILD_DIR, "-j", str(min(4, nproc())),
                     "--target", "perfbench", "perfbench_selftest"])
    for cmd in commands:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            raise BenchError(f"build failed: {e}")


def check_result(result, spec, trace):
    """The result line must carry exactly BENCHMARK.json's metrics for
    its mode, with their units, in their order."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError(f"result keys are not {sorted(RESULT_KEYS)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        raise BenchError(f"metrics {list(got)} do not match BENCHMARK.json")
    for m in wanted:
        value = got[m["name"]]
        if value.get("unit") != m["unit"]:
            raise BenchError(f"{m['name']}: unit {value.get('unit')} is not {m['unit']}")
        if not isinstance(value.get("value"), (int, float)):
            raise BenchError(f"{m['name']}: value is not a number")


def run_once(spec, workload, seed, seconds, trace):
    """Run the harness once; returns (exit code, result)."""
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload}")
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACE_DIR, f"{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"harness did not finish: {e}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"harness exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    check_result(result, spec, trace)
    if (proc.returncode == 0) != (result["correct"] and result["failed"] == 0):
        raise BenchError("harness exit code and result disagree")
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_head():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def report(spec, args, seconds):
    """Run every asked workload on --runs seeds, untraced and traced, and
    print each metric's median, quartiles and sample count."""
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload in (None, "all") else [args.workload]
    seeds = list(range(1, args.runs + 1))
    summary = {}
    status = 0
    print(f"{'workload':<14} {'metric':<30} {'unit':<8} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}")
    for workload in workloads:
        values, units = {}, {}
        attempted = failed = 0
        for trace in (0, 1):
            for seed in seeds:
                code, result = run_once(spec, workload, seed, seconds, trace)
                status = max(status, code)
                attempted += result["attempted"]
                failed += result["failed"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
        values["fail_ratio"] = [failed / attempted]
        units["fail_ratio"] = "ratio"
        rows = summary[workload] = {}
        for name, vals in values.items():
            q1, q3 = quartiles(vals)
            rows[name] = {"unit": units[name], "median": statistics.median(vals),
                          "q1": q1, "q3": q3, "n": len(vals)}
            print(f"{workload:<14} {name:<30} {units[name]:<8} "
                  f"{rows[name]['median']:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{len(vals):>3}")
    if args.record:
        row = {"commit": args.commit or git_head() or "unknown",
               "date": datetime.date.today().isoformat(), "nproc": nproc(),
               "seconds": seconds, "seeds": seeds, "workloads": summary}
        with open(args.record, "a") as f:
            f.write(json.dumps(row) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="summarize --runs seeds per workload")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--record", help="append the report to this file")
    parser.add_argument("--commit", help="commit to record (default: git HEAD)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.runs < 1:
        parser.error("--seed must be >= 0 and --runs >= 1")
    if not args.report and args.workload is None:
        parser.error("--workload is required")
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if seconds < 1:
            raise BenchError("--seconds must be at least 1")
        build()
        if args.report:
            return report(spec, args, seconds)
        code, result = run_once(spec, args.workload, args.seed, seconds, args.trace)
        print(json.dumps(result))
        return code
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
