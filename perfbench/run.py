#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench (perfbench/CMakeLists.txt,
which builds the repository's `mvp` library from ../src in Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, prints the run context and every metric by name with its unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). `failed` counts the operations the
program did not complete (error results, missing replies, refuted
optimality certificates); they do not stop the run. `correct` is false
when an output check failed (an illegal schedule, a reply that differs
from the offline pipeline) or the run did not repeat itself. Exit
codes: 0 correct, 1 not correct, 2 the benchmark could not build or run.

Counters and fingerprints of every run are kept under the build
directory; a later run of the same workload and seed must repeat them
exactly, and a traced run must repeat the untraced run's fingerprint.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail("refusing to measure a '%s' build" % build_type)
    return build_type


def commit(root):
    """The checked-out commit, when the checkout is a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def check_repeat(record_path, record):
    """Counters and fingerprint must repeat those of an earlier run of
    the same binary, workload and seed (in either trace mode)."""
    failures = []
    old = None
    if os.path.exists(record_path):
        with open(record_path) as f:
            old = json.load(f)
        if old.get("binary") != record["binary"]:
            old = None
    if old is not None:
        if old["fingerprint"] != record["fingerprint"]:
            failures.append("fingerprint %s differs from the earlier run's %s"
                            % (record["fingerprint"], old["fingerprint"]))
        for name, value in record["counters"].items():
            if name in old["counters"] and old["counters"][name] != value:
                failures.append("counter %s=%d differs from the earlier "
                                "run's %d" % (name, value,
                                              old["counters"][name]))
    with open(record_path, "w") as f:
        json.dump(record, f)
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(os.path.join(root, "CMakeLists.txt")):
        fail("no CMakeLists.txt in %s: run from the repository root" % root)
    with open(spec_path) as f:
        spec = json.load(f)
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, base, "perfbench"))
    build_type = build(root, build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("result "):
        fail("workload ended (exit %d) without a result" % done.returncode)
    res = json.loads(lines[-1][len("result "):])

    load1, load5, load15 = os.getloadavg()
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": build_type, "compiler": res["compiler"],
        "assertions": "off", "nproc": os.cpu_count(),
        "loadavg": [load1, load5, load15],
        "commit": commit(root),
    }
    print("context " + json.dumps(context))
    for line in lines[:-1]:
        print(line)

    record = {"binary": os.stat(cmd[0]).st_mtime_ns,
              "fingerprint": res["fingerprint"], "counters": res["counters"]}
    record_path = os.path.join(
        build_dir, "record-%s-%d.json" % (args.workload, args.seed))
    failures = check_repeat(record_path, record)
    for f in failures:
        print("incorrect: " + f, file=sys.stderr)

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[key]:
        if m["name"] not in res["metrics"]:
            fail("workload reported no metric '%s'" % m["name"])
        metrics[m["name"]] = {"value": res["metrics"][m["name"]]["value"],
                              "unit": m["unit"]}
    correct = (done.returncode == 0 and res["incorrect"] == 0
               and not failures)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
