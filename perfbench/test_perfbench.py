#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs run.py at smoke size (tiny inputs, one second per run) from the
checkout root: every workload must emit every metric BENCHMARK.json names
for each mode, with its unit and 0 failed operations; an injected counter
or digest mismatch must raise `failed`; bad arguments and a directory
without the library sources must exit non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def smoke(workload, trace="0", seed="7", extra=()):
    out = run("--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace,
              "--smoke", *extra)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: {out.stderr}")
    return out.stdout.strip().splitlines()


class MetricsTest(unittest.TestCase):
    def check_mode(self, workload, trace, section):
        lines = smoke(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        table = {line.split()[1]: line.split() for line in lines if line.startswith("# ")}
        for name, unit in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            # Table row: "# name value unit samples".
            self.assertEqual(table[name][3], unit, name)
            self.assertTrue(table[name][4].isdigit(), name)
        provenance = next(line for line in lines if line.startswith("# provenance "))
        prov = json.loads(provenance[len("# provenance "):])
        for key in ("commit", "build_type", "compiler", "cpu_model", "nproc", "loadavg_at_start"):
            self.assertIn(key, prov)
        return result

    def test_end_to_end_metrics_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_mode(workload, "0", "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{workload} {name}")

    def test_per_layer_metrics_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_mode(workload, "1", "per_layer")
                self.assertGreater(result["metrics"]["trace.overhead_ratio"]["value"], 0)
                self.assertEqual(result["metrics"]["parallel.serial_fallback"]["value"], 0)


class InjectionTest(unittest.TestCase):
    def assert_fails(self, workload, inject):
        result = json.loads(smoke(workload, extra=("--inject", inject))[-1])
        self.assertFalse(result["correct"], f"{workload} {inject}")
        self.assertGreater(result["failed"], 0, f"{workload} {inject}")

    def test_counter_mismatch_raises_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_fails(workload, "counter")

    def test_digest_mismatch_raises_failed(self):
        self.assert_fails("leafspine_deep", "digest")


class ArgumentsTest(unittest.TestCase):
    def assert_rejected(self, *args, cwd=ROOT, script=RUN):
        out = run(*args, cwd=cwd, script=script)
        self.assertNotEqual(out.returncode, 0, args)
        self.assertNotIn('"correct"', out.stdout)

    def test_unknown_workload(self):
        self.assert_rejected("--workload", "no_such", "--seed", "1", "--seconds", "1",
                             "--trace", "0")

    def test_bad_seeds(self):
        for seed in ("-1", "x", "1.5", ""):
            with self.subTest(seed=seed):
                self.assert_rejected("--workload", "fig_link", "--seed", seed, "--seconds", "1",
                                     "--trace", "0")

    def test_bad_trace_and_seconds(self):
        self.assert_rejected("--workload", "fig_link", "--seed", "1", "--seconds", "1",
                             "--trace", "2")
        self.assert_rejected("--workload", "fig_link", "--seed", "1", "--seconds", "0",
                             "--trace", "0")
        # Longer than fits the run timeout: refused up front, not timed out.
        self.assert_rejected("--workload", "fig_link", "--seed", "1", "--seconds", "121",
                             "--trace", "0")

    def test_directory_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            self.assert_rejected("--workload", "fig_link", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=bare,
                                 script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
