#!/usr/bin/env python3
"""Build the synergy library and the perfbench harness, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chaos-long --seed 1 --seconds 20 --trace 0

The harness is a CMake project of its own (perfbench/CMakeLists.txt) that
compiles ../src. It is built under $CARGO_TARGET_DIR (default .bench_build)
inside the checkout; the first run configures and builds it, later runs
only rebuild what changed. Build output goes to stderr. --trace 1 runs the
traced variant, which measures the per-layer metrics and writes its spans
to <build dir>/perfbench-traces/.

The metric catalogue has one home: names, units and directions come from
BENCHMARK.json, exact flags and the layers each workload never enters from
perfbench/workloads.json. This script checks the harness's result against
them, prints the metric table, and prints as the last line of stdout one
JSON result object with every catalogued metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chaos-long", "sweep-mix", "general-star")
# The harness stops once --seconds of loop time have passed and the pass in
# flight is done; the margin covers that pass, the untimed first-pass work
# and start-up. Only a hung run reaches the timeout.
TIMEOUT_MARGIN_S = 140


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def load_catalogue(workload, trace):
    """The metrics a run must print, in order, and what the workload skips.

    Returns (specs, exact names, prefixes of layers the workload never
    enters). A traced run reports 0 for a metric of such a layer.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        info = json.load(f)
    specs = bench["per_layer" if trace else "end_to_end"]
    exact = set(info["exact_end_to_end"])
    exact.update(row["metric"] for row in info["layer_map"] if row["exact"])
    unentered = info["workloads"][workload]["unentered_layers"] if trace else []
    return specs, exact, unentered


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate key in %s" % keys)
    return dict(pairs)


def check_metrics(measured, specs, unentered):
    """Every catalogued metric, in catalogue order, and the problems found."""
    problems = []
    known = {spec["name"] for spec in specs}
    for name in measured:
        if name not in known:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    metrics = {}
    for spec in specs:
        name = spec["name"]
        skipped = any(name.startswith(p) for p in unentered)
        m = measured.get(name)
        if m is None and skipped:
            m = {"value": 0, "unit": spec["unit"]}
        elif m is None:
            problems.append("metric %s missing" % name)
            continue
        elif skipped:
            problems.append("metric %s is of a layer the workload is listed "
                            "as never entering" % name)
        if m["unit"] != spec["unit"]:
            problems.append("metric %s in %s, not %s"
                            % (name, m["unit"], spec["unit"]))
        metrics[name] = {"value": m["value"], "unit": spec["unit"]}
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("library sources not found at " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    trace = args.trace == "1"
    specs, exact, unentered = load_catalogue(args.workload, trace)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(build_dir)
    except subprocess.CalledProcessError as e:
        return fail("build failed: " + " ".join(e.cmd))

    trace_dir = os.path.join(build_root, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-dir", trace_dir]
    timeout = args.seconds + TIMEOUT_MARGIN_S
    try:
        proc = subprocess.run(command, timeout=timeout, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %g s" % timeout)
    lines = proc.stdout.splitlines()

    if proc.returncode < 0:
        # A mission tripped a library contract (SYNERGY_ASSERT aborts the
        # process): that mission is a failed operation and ends the run.
        print("\n".join(lines))
        print("perfbench: harness killed by signal %d" % -proc.returncode)
        attempted = 1
        for line in lines:
            if line.startswith("mission set: "):
                attempted = int(line.split()[2])
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": 1, "metrics": {}}))
        return 1
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except (IndexError, ValueError) as e:
        print("\n".join(lines))
        return fail("harness printed no result (%s), exit code %d"
                    % (e, proc.returncode))

    metrics, problems = check_metrics(result["metrics"], specs, unentered)
    print("\n".join(lines[:-1]))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    for spec in specs:
        name = spec["name"]
        if name in metrics:
            print("%-42s %14.6g %-9s %-6s%s"
                  % (name, metrics[name]["value"], spec["unit"],
                     spec["better"], " exact" if name in exact else ""))
    correct = bool(result["correct"]) and not problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
