#!/usr/bin/env python3
# Copyright 2026 The LearnRisk Authors
"""Builds and runs the repository benchmark (see erbench/README.md).

One workload:
    python3 erbench/run.py --workload bulk_resolve --seed 1 --seconds 20 --trace 0
Every workload, each in its own process:
    python3 erbench/run.py --workload all --seed 1
The traced run (per-layer metrics and a span dump):
    python3 erbench/run.py --workload stream_ingest --trace 1

Run from the repository root. The first run configures and builds the
erbench binary under $CARGO_TARGET_DIR (default .bench_build) from the
sources in src/ and erbench/src/. Each metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero when the sources are
missing, the build or a workload fails, or an output check mismatches.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_resolve", "stream_ingest", "review_loop")
RUN_TIMEOUT_S = 170


def fail(message):
    print("erbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "erbench")


def build():
    """Configures (once) and builds the erbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gateway", "gateway.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    # At most four compile jobs: each can take hundreds of MB of memory.
    jobs = min(4, os.cpu_count() or 1)
    steps.append(["cmake", "--build", out, "-j", str(jobs)])
    for step in steps:
        # Build output goes to stderr: stdout carries only the results.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "erbench")


def provenance():
    """Git revision when available, plus a digest of the built sources."""
    rev = "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            rev = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.join("erbench", "src")):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_rev": rev, "source_sha256": digest.hexdigest()[:16]}


def cpu_jiffies():
    """(steal, total) CPU time of the host's view from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the parsed result."""
    before = cpu_jiffies()
    work = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        shutil.rmtree(work, ignore_errors=True)
        fail("%s exited with %d" % (workload, done.returncode))
    result = json.loads(lines[-1])
    after = cpu_jiffies()
    if before and after and after[1] > before[1]:
        # Share of CPU time the hypervisor gave to other guests during the
        # run: a high value explains slow timings that the code did not cause.
        result["params"]["host_steal_share"] = round(
            (after[0] - before[0]) / (after[1] - before[1]), 4)
    spans = os.path.join(work, "spans.json")
    if trace and os.path.isfile(spans):
        kept = os.path.join(build_dir(), "spans",
                            "%s-seed%d.json" % (workload, seed))
        os.makedirs(os.path.dirname(kept), exist_ok=True)
        shutil.copyfile(spans, kept)
        result["params"]["span_dump"] = os.path.relpath(kept, ROOT)
    shutil.rmtree(work, ignore_errors=True)

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        got = result["metrics"].get(name)
        if got is None and trace:
            # A layer this workload never calls did no work here.
            got = {"value": 0.0, "unit": entry["unit"]}
        if got is None:
            result["errors"].append("missing end-to-end metric " + name)
            result["correct"] = False
            continue
        if got["unit"] != entry["unit"]:
            result["errors"].append("unit of %s is %s, not %s"
                                    % (name, got["unit"], entry["unit"]))
            result["correct"] = False
        if got["value"] is None:  # the binary writes non-finite values as null
            result["errors"].append("%s is not finite" % name)
            result["correct"] = False
            got = {"value": 0.0, "unit": entry["unit"]}
        metrics[name] = got
    result["metrics"] = metrics
    return result


def print_result(workload, result):
    for key, value in sorted(result["params"].items()):
        print("param %s.%s = %s" % (workload, key, value))
    for name, metric in result["metrics"].items():
        print("metric %s.%s = %.6g %s" % (workload, name, metric["value"],
                                          metric["unit"]))
    for error in result["errors"]:
        print("error %s: %s" % (workload, error))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    for key, value in provenance().items():
        print("param %s = %s" % (key, value))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        results[workload] = run_workload(binary, spec, workload, args.seed,
                                         seconds, args.trace == 1)
        print_result(workload, results[workload])

    if len(names) == 1:
        only = results[names[0]]
        final = {key: only[key]
                 for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, name): metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
