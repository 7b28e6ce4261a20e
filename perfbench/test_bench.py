#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the source tree root:

    python3 perfbench/test_bench.py

The small-scale tests run every workload in this process at a fifth of
the benchmark's genome scale, untraced and traced, so they build the
benchmark first if needed (about a minute).
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.getcwd()
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


SMALL_SCALE = 0.05  # 1/5 of the benchmark's genome scale


def bench_run(workload, trace):
    """run.main() in this process at SMALL_SCALE: (exit code, the JSON
    result of the last stdout line, or None)."""
    stdout = io.StringIO()
    with mock.patch.object(run, "SCALE", SMALL_SCALE), \
            contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)])
    lines = stdout.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def flip_first_base(path):
    """Replaces the first base of the first read in the FASTQ at `path`
    with another base."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    at = data.index(b"\n") + 1
    data[at] = ord("A") if data[at] != ord("A") else ord("C")
    with open(path, "wb") as f:
        f.write(data)


class PercentileRule(unittest.TestCase):
    def test_refuses_p99_with_fewer_than_ten_samples_above(self):
        value, above = run.percentile_with_tail(range(1, 1000), 0.99)
        self.assertIsNone(value)
        self.assertEqual(above, 9)

    def test_reports_p99_with_ten_samples_above(self):
        value, above = run.percentile_with_tail(range(1, 1001), 0.99)
        self.assertEqual(value, 990)
        self.assertEqual(above, 10)

    def test_ties_at_the_percentile_are_not_above_it(self):
        samples = [1.0] * 995 + [2.0] * 5
        self.assertEqual(run.percentile_with_tail(samples, 0.5), (None, 5))

    def test_median_needs_only_ten_samples_above(self):
        value, above = run.percentile_with_tail(range(21), 0.5)
        self.assertEqual((value, above), (10, 10))


class FailureCount(unittest.TestCase):
    REFERENCE = b"@r0\nACGTACGT\n+\nIIIIIIII\n@r1\nTTTTACGT\n+\nIIIIIIII\n"

    def test_identical_outputs_do_not_fail(self):
        self.assertEqual(
            run.count_failures([self.REFERENCE] * 3, self.REFERENCE), 0)

    def test_corrupted_output_fails(self):
        corrupted = bytearray(self.REFERENCE)
        corrupted[5] = ord("T")
        self.assertEqual(
            run.count_failures([self.REFERENCE, bytes(corrupted)],
                               self.REFERENCE), 1)

    def test_truncated_and_missing_outputs_fail(self):
        outputs = [self.REFERENCE[:-1], None, self.REFERENCE]
        self.assertEqual(run.count_failures(outputs, self.REFERENCE), 2)


class SmallScaleRuns(unittest.TestCase):
    """Every workload, untraced and traced, at SMALL_SCALE: each prints
    every metric of its table by name with its unit, and every output
    check passes; a corrupted reference fails the output check."""

    def test_every_metric_is_printed_with_its_unit(self):
        with open(BENCHMARK) as f:
            bench = json.load(f)
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in bench[key]}
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_reference_fails_the_run(self):
        make_reference = run.Run.make_reference

        def corrupted(self):
            make_reference(self)
            flip_first_base(self.reference)
            with open(self.reference, "rb") as f:
                return f.read()

        with mock.patch.object(run.Run, "make_reference", corrupted):
            code, result = bench_run("correct_sap", 0)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_served_batch_differing_from_reference_is_mismatched(self):
        with mock.patch.object(run, "SCALE", SMALL_SCALE):
            run.build()
            bench = run.Run("serve_sap", 3, 1)
            bench.generate()
            bench.make_reference()
            flip_first_base(bench.reference)
            daemon, _, _ = bench.serve_setup()
            try:
                load = bench.load("--seconds", "0")
            finally:
                code, *_ = daemon.stop()
        self.assertEqual(code, 0)
        self.assertEqual(load["mismatched"], 2)  # batch 0 of each connection
        self.assertEqual(load["busy"] + load["errors"], 0)

    def test_fails_without_the_source_tree(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        shutil.copy(BENCHMARK, bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "correct_sap",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
