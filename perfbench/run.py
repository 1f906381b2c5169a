#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload cold-topn --seed 1 --seconds 10 --trace 0

Run from the repository root. The simulator and the driver are compiled
from source with optimisation into $CARGO_TARGET_DIR (default .bench_build)
on first use. The driver's report is checked (invariants for every seed,
pinned virtual outputs for the pinned seed), a readable summary is printed,
and the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the run's spans to <build>/spans/<workload>.spans.tsv.
--write-pins records this run's virtual outputs as the pins (pinned seed
only). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("cold-topn", "warm-zipf", "serve-mix")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def configured_source(directory):
    """Source directory an existing build tree was configured for, or None."""
    try:
        with open(os.path.join(directory, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        return None
    return None


def build(directory):
    """Configures (once) and builds the driver; returns its path or None."""
    configure = ["cmake", "-S", HERE, "-B", directory,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [configure, ["cmake", "--build", directory, "-j", jobs]]
    home = configured_source(directory)
    generated = any(os.path.exists(os.path.join(directory, name))
                    for name in ("build.ninja", "Makefile"))
    if home == HERE and generated:
        steps = steps[1:]
    elif home is not None:
        shutil.rmtree(directory)  # stale, or configured for another tree
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return None
    binary = os.path.join(directory, "perfbench")
    return binary if os.path.exists(binary) else None


def load_pins():
    with open(PINS) as handle:
        return json.load(handle)


def check_pins(report, pins):
    """Returns the pinned fields that differ (empty when not pinned)."""
    if report["seed"] != pins["seed"]:
        return []
    expected = pins["workloads"].get(report["workload"])
    if expected is None:
        return ["no pins recorded for " + report["workload"]]
    seen = report["observables"]
    return ["%s: pinned %s, got %s" % (key, value, seen.get(key))
            for key, value in expected.items() if seen.get(key) != value]


def write_pins(report, pins):
    if report["seed"] != pins["seed"]:
        log("perfbench: --write-pins needs --seed %d" % pins["seed"])
        return False
    pins["workloads"][report["workload"]] = report["observables"]
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return True


def summarize(report, pin_problems, pinned):
    host = report["host"]
    print("perfbench %s seed=%d trace=%d" % (
        report["workload"], report["seed"], int(report["trace"])))
    print("  host: nproc=%d affinity_cpus=%d cgroup_cpus=%s (%s) build=%s "
          "flags='%s' optimised=%s sanitized=%s" % (
              host["nproc"], host["affinity_cpus"],
              host["cgroup_cpus"] or "unlimited", host["cgroup_source"],
              host["build_type"], host["flags"].strip(), host["optimised"],
              host["sanitized"]))
    for name, metric in report["metrics"].items():
        samples = metric.get("samples")
        print("  %-30s %14.6g %-6s%s" % (
            name, metric["value"], metric["unit"],
            "  (n=%d)" % samples if samples else ""))
    print("  %-30s %14.6g %-6s  (%d failed of %d attempted)" % (
        "error_rate", report["error_rate"], "ratio", report["failed"],
        report["attempted"]))
    print("  rounds: %d; timed ops: %.3f s; fewest samples beyond a "
          "round's p99: %d" % (
        report["rounds"], report["timed_s"], report["p99_beyond"]))
    seen = report["observables"]
    print("  virtual outputs of every round (%d ops): case2=%d dlv=%d "
          "leaked=%d bytes=%d evicted=%d virtual_us=%d rcodes=%s digest=%s" % (
              seen["ops"], seen["case2"], seen["dlv_queries"],
              seen["distinct_leaked"], seen["bytes_total"],
              seen["cache_evicted"], seen["virtual_us"], seen["rcodes"],
              seen["digest"]))
    print("  pins: %s" % ("checked" if pinned else "not pinned for this seed"))
    for problem in report["problems"] + pin_problems:
        print("  FAIL: " + problem)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(directory, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-dir", spans]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    lines = result.stdout.strip().splitlines()
    if not lines:
        log("perfbench: driver exited %d without a report" % result.returncode)
        return 2
    report = json.loads(lines[-1])

    pins = load_pins()
    if args.write_pins and not write_pins(report, pins):
        return 2
    pin_problems = check_pins(report, pins)
    correct = report["correct"] and not pin_problems
    summarize(report, pin_problems, report["seed"] == pins["seed"])

    metrics = {name: {"value": metric["value"], "unit": metric["unit"]}
               for name, metric in report["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
