#!/usr/bin/env python3
"""Builds and runs the EDMS benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form builds perfbench/ (and the layer libraries it links) into
.bench_build/perfbench, runs one benchmark run and prints the benchmark's
output; the last line is the result JSON. The exit code is non-zero when the
build fails, the run fails a correctness check or its output is malformed.

--self-test runs a short mode of every workload, traced and untraced, and
checks that every metric named in BENCHMARK.json is printed with its unit and
that the correctness check passes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "edms_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(workload, seed, seconds, trace, short=False, echo=True):
    """Runs the benchmark once; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source", source_id()]
    if short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return proc.returncode or 1, None
    return proc.returncode, result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, 1, 0, trace, short=True, echo=False)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m.get("unit") for name, m in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(printed))}, "
                                f"extra {sorted(set(printed) - set(expected))}, "
                                f"units {[n for n in expected if n in printed and printed[n] != expected[n]]}")
                continue
            print(f"ok  {label}: {len(printed)} metrics, "
                  f"{result['attempted']} offers checked")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the program sources (src/) are missing; run from a full checkout")
    build()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        parser.error("--workload is required")
    code, result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        fail("the benchmark printed no result")
    sys.exit(code)


if __name__ == "__main__":
    main()
