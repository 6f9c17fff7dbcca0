#!/usr/bin/env python3
"""Real-engine benchmark of record for the ALTER reproduction.

Builds the driver from the checkout's sources, runs one workload for a
fixed time, checks every run's output, and prints the metrics. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload barneshut --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload barneshut --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload barneshut --input 0 ...   # held-out input
    python3 perfbench/run.py --workload all --seed 1 --trace 0  # each in turn
    python3 perfbench/run.py --report     # all 11 loops, not gated

See perfbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("barneshut", "gsdense", "genome-ooo", "ssca2")
# The driver stops measuring by 40 s (or --seconds, if longer); this only
# guards against a hung run.
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the driver; build output goes to stderr so the
    result line stays last on stdout."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", jobs],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_driver(args):
    try:
        proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if proc.returncode:
        fail("driver exited with status %d" % proc.returncode)
    return proc.stdout


def print_table(title, values, host):
    print("# %s  workload=%s input=%s (%s) seed=%s" % (
        title, host["workload"], host["input"], host["input_name"],
        host["seed"]))
    print("# host: " + json.dumps(host, sort_keys=True))
    for name, (value, unit, n) in values.items():
        print("%-42s %14.6g %-6s n=%d" % (name, value, unit, n))


def run_workload(workload, opts):
    """Runs one workload and prints its table, then the result line."""
    args = ["--workload", workload, "--input", str(opts.input),
            "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--trace", str(opts.trace)]
    if opts.corrupt_reference:
        args.append("--corrupt-reference")
    raw = json.loads(run_driver(args))

    if opts.trace:
        values = metrics.per_layer(raw)
        title = "per-layer metrics (traced run)"
    else:
        values = metrics.end_to_end(raw)
        title = "end-to-end metrics (untraced run)"
    line = metrics.result_line(raw, opts.trace)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-input%d-seed%d-trace%d.json" % (
        workload, opts.input, opts.seed, opts.trace))
    with open(path, "w") as f:
        json.dump({"raw": raw, "metrics": values, "result": line}, f)

    print_table(title, values, raw["host"])
    picks = raw["alter"]["schedule"]
    print("# schedule picked: " + ", ".join(
        "%s %d/%d" % (k, picks.count(k), len(picks))
        for k in sorted(set(picks))))
    print("# measured for %.1f s; host CPU steal %.2f%% of its capacity" % (
        raw["measure_ns"] / 1e9, 100 * metrics.steal_frac(raw)))
    if not opts.trace:
        n = values["wall_ms_p90"][2]
        tail = metrics.tail_percentile(n)
        print("# highest percentile with %d samples beyond it: %s (n=%d)" % (
            metrics.MIN_BEYOND, "p%g" % tail if tail else "none", n))
    a, q = raw["alter"], raw["seq"]
    print("# disturbed by host steal (> %g of the CPU capacity): %d of %d "
          "ALTER runs, %d of %d sequential runs; timings come from the "
          "others, or from the %d least disturbed" % (
              raw["max_steal_share"], sum(metrics.disturbed(a, raw)),
              len(a["steal_share"]), sum(metrics.disturbed(q, raw)),
              len(q["steal_share"]), metrics.MIN_UNDISTURBED))
    for reason in sorted({f for f in raw["alter"]["failure"] if f}):
        print("# failed runs: %s" % reason)
    for problem in (raw["setup_failure"], raw["seq_failure"]):
        if problem:
            print("# incorrect: " + problem)
    print("# spans and raw samples: " + os.path.relpath(path, ROOT))
    print(json.dumps(line))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input", type=int, default=1,
                        help="registry input index (1; 0 is held out)")
    parser.add_argument("--report", action="store_true",
                        help="sweep every parallelizable loop (not gated)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if not opts.report and not opts.workload:
        parser.error("--workload is required")
    if opts.seed < 0 or opts.seconds <= 0 or opts.input < 0:
        parser.error("--seed and --input must be >= 0, --seconds > 0")

    build()
    if opts.report:
        sys.stdout.flush()
        sys.exit(subprocess.run([DRIVER, "--report"]).returncode)

    for workload in WORKLOADS if opts.workload == "all" else [opts.workload]:
        run_workload(workload, opts)


if __name__ == "__main__":
    main()
