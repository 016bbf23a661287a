#!/usr/bin/env python3
"""Runs one workload of the SAQL live-session benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload apt-demo --seed 1 --seconds 35 --trace 0

Builds the SAQL library and saql_perfbench (perfbench/CMakeLists.txt) into
.bench_build/ on first use, runs saql_perfbench, echoes its report and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}, where metrics
holds every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). Exits non-zero without that line when the
build, the run or the report fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "saql_perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def commit_id():
    """The git commit when run from a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "queries", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build()
    scratch = os.path.join(BUILD, "scratch")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "saql_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--queries", os.path.join(ROOT, "queries"),
           "--scratch", scratch, "--commit", commit_id()]
    if args.trace:
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("saql_perfbench exited with %d" % proc.returncode)

    metrics, result = {}, None
    for line in proc.stdout.splitlines():
        print(line)
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) >= 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[:1] == ["result"]:
            result = dict(p.split("=", 1) for p in parts[1:])
    if result is None:
        fail("saql_perfbench printed no result line")
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            fail("metric %s missing from the %s run" %
                 (m["name"], args.workload))
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (m["name"], unit, m["unit"]))
        out[m["name"]] = {"value": value, "unit": unit}
    sys.stdout.flush()
    print(json.dumps({"correct": result["correct"] == "1",
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))


if __name__ == "__main__":
    main()
