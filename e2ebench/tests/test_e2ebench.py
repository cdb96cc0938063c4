#!/usr/bin/env python3
"""Self-test of the e2ebench benchmark.

Run from the root of a fadingcr checkout:

    python3 e2ebench/tests/test_e2ebench.py

Checks that
  * the metric names and units the harness prints match BENCHMARK.json,
    in both modes, both from --metrics and from a real short run;
  * the workload names match BENCHMARK.json;
  * the C++ self-test passes (a flipped reception is caught by the oracle,
    traced spans nest, layer shares lie in [0, 1]);
  * the benchmark sources name none of the engine internals the roadmap
    plans to delete, so deleting them never forces a benchmark edit;
  * run.py fails without printing a result when the library sources are
    absent (a directory holding only the benchmark).
"""
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

spec = importlib.util.spec_from_file_location("e2e_run", os.path.join(BENCH, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

# Symbols slated for deletion (SIMD lanes, resolver modes and internals,
# forced engine paths). The benchmark may only use kAuto.
PLANNED_DELETIONS = [
    "ExecutionPath::kVirtual", "ExecutionPath::kColumnar", "kColumnarScalar",
    "kColumnarLanes", "LaneRng", "rng_lanes", "lane_decide", "lane_kernel_id",
    "kernel_certificates", "kernel_simd_certified", "BatchResolveOptions",
    "BatchResolver", "resolve_mask_filtered", "resolve_plain",
    "far_field_tiles", "FCR_LANE_DISPATCH",
]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    bdir = run.build_dir()
    run.build(bdir)
    subprocess.run(["cmake", "--build", bdir, "--target", "e2ebench_selftest",
                    "-j", "4"], check=True, stdout=subprocess.DEVNULL)
    return bdir


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.bdir = build()
        cls.binary = os.path.join(cls.bdir, "e2ebench")

    def expected(self, section):
        return [(m["name"], m["unit"]) for m in self.bench[section]]

    def test_metric_specs_match_benchmark_json(self):
        out = subprocess.run([self.binary, "--metrics"], check=True,
                             capture_output=True, text=True).stdout
        printed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            section, name, unit = line.split()
            printed[section].append((name, unit))
        self.assertEqual(printed["end_to_end"], self.expected("end_to_end"))
        self.assertEqual(printed["per_layer"], self.expected("per_layer"))

    def test_workload_names_match_benchmark_json(self):
        out = subprocess.run([self.binary, "--list"], check=True,
                             capture_output=True, text=True).stdout
        self.assertEqual(out.split(), [w["name"] for w in self.bench["workloads"]])

    def test_short_runs_print_exactly_the_declared_metrics(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                 "instrumented-ext-1024", "--seed", "5", "--seconds", "0.3",
                 "--trace", trace], cwd=ROOT, capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            self.assertEqual(got, self.expected(section))

    def test_harness_selftest(self):
        scratch = os.path.join(self.bdir, "selftest-scratch")
        proc = subprocess.run([os.path.join(self.bdir, "e2ebench_selftest"), scratch],
                              capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_no_planned_deletion_symbols(self):
        me = os.path.abspath(__file__)
        hits = []
        for dirpath, _, files in os.walk(BENCH):
            for name in files:
                path = os.path.join(dirpath, name)
                if os.path.abspath(path) == me or not re.search(
                        r"\.(cpp|hpp|h|py|txt)$", name):
                    continue
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                hits += ["%s: %s" % (os.path.relpath(path, ROOT), s)
                         for s in PLANNED_DELETIONS if s in text]
        self.assertEqual(hits, [])

    def test_fails_without_library_sources(self):
        iso = os.path.join(self.bdir, "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(iso, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload",
                 "fading-sinr-4096", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=iso, env=env, capture_output=True,
                text=True, timeout=170)
        finally:
            shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
