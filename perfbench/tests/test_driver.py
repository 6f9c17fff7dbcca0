"""End-to-end tests of the benchmark: they build and run the driver.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
The first test to run builds the driver (about 30 s on 4 cores).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import metrics  # noqa: E402

RUN = os.path.join(PERFBENCH, "run.py")


def bench(*args, env=None, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, run] + list(args), cwd=cwd,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def probe_servers():
    """Pids of this checkout's probe servers still alive."""
    driver = os.path.join(ROOT, ".bench_build", "perfbench",
                          "perfbench_driver")
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv = f.read().split(b"\0")
            exe = os.readlink("/proc/%s/exe" % pid)
        except OSError:
            continue
        if b"--probe-server" in argv and exe == driver:
            pids.append(int(pid))
    return pids


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Driver(unittest.TestCase):
    def test_corrupted_reference_fails_every_sample(self):
        proc = bench("--workload", "ssca2", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--corrupt-reference")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = result(proc)
        self.assertGreater(line["attempted"], 0)
        self.assertEqual(line["failed"], line["attempted"])
        self.assertFalse(line["correct"])

    def test_host_probe_runs_beside_every_pair_and_stops(self):
        proc = bench("--workload", "ssca2", "--seed", "3", "--seconds", "1",
                     "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = result(proc)
        # The probe server is a child of the driver, but not a leaked one.
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        path = os.path.join(ROOT, ".bench_build", "results",
                            "ssca2-input1-seed3-trace0.json")
        with open(path) as f:
            raw = json.load(f)["raw"]
        for key in ("probe_one_ns", "probe_all_ns"):
            self.assertEqual(len(raw[key]), len(raw["alter"]["wall_ns"]))
            self.assertTrue(all(ns > 0 for ns in raw[key]))
        self.assertEqual(probe_servers(), [])

    def test_traced_run_reports_every_layer_metric(self):
        proc = bench("--workload", "barneshut", "--seed", "2", "--seconds",
                     "2", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = result(proc)
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertEqual(list(line["metrics"]),
                         [n for n, _, _ in metrics.PER_LAYER])
        m = line["metrics"]
        self.assertEqual(m["runtime.runner.invocations"]["value"], 4)
        self.assertEqual(m["runtime.runner.sched_chunked_frac"]["value"], 1)
        self.assertGreater(m["runtime.txn.ns_per_iter"]["value"], 0)
        self.assertGreater(m["runtime.wire.frame_bytes"]["value"], 0)

    def test_refuses_env_that_changes_the_program(self):
        env = dict(os.environ, ALTER_METRICS="1")
        proc = bench("--workload", "barneshut", "--seed", "1", "--seconds",
                     "1", "--trace", "0", env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)

    def test_fails_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench("--workload", "gsdense", "--seed", "1", "--seconds",
                         "1", "--trace", "0", cwd=bare,
                         run=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
