#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny sizes.

    python3 perfbench/test_perfbench.py      # from the repository root

Builds perfbench like run.py does, then checks that every workload repeats
its model-exact outputs, that every metric BENCHMARK.json names is printed
with its unit, and that a corrupted pinned value fails the run.
"""
import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0", "--size", "tiny"]


def perfbench(*args):
    return subprocess.run([str(bench.BINARY), *args], capture_output=True,
                          text=True, timeout=bench.RUN_TIMEOUT_S)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pin_lines(proc):
    return [line for line in proc.stdout.splitlines()
            if line.startswith("pin ")]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def test_gated_workloads_exist(self):
        gated = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(set(bench.WORKLOADS) - gated, {"thm11_sharded"})

    def test_model_exact_outputs_repeat(self):
        for workload in bench.WORKLOADS:
            for seed in ("1", "5"):
                args = ["--workload", workload, "--seed", seed, "--trace", "0",
                        "--dump-outputs", *TINY]
                first, second = perfbench(*args), perfbench(*args)
                self.assertEqual(first.returncode, 0, first.stdout)
                self.assertTrue(pin_lines(first))
                self.assertEqual(pin_lines(first), pin_lines(second))

    def test_every_metric_printed_with_unit(self):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            for workload in bench.WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", "1", "--trace", trace, *TINY],
                    capture_output=True, text=True, timeout=600)
                self.assertEqual(proc.returncode, 0, proc.stdout)
                res = result(proc)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                units = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(units, expected)
                for name, unit in expected.items():
                    self.assertRegex(proc.stdout,
                                     rf"\n  {name} = \S+ {unit}\n")
                stamp = json.loads(proc.stdout.split("stamp: ", 1)[1]
                                   .splitlines()[0])
                for key in ("nproc", "cpu", "compiler", "cxx_flags",
                            "build_type", "git_sha"):
                    self.assertIn(key, stamp)

    def test_corrupted_pin_fails_the_run(self):
        lines = bench.PINS.read_text().splitlines()
        for workload in bench.WORKLOADS:
            prefix = f"{workload} tiny 1 "
            index = next(i for i, line in enumerate(lines)
                         if line.startswith(prefix))
            fields = lines[index].split()
            fields[-1] = str(int(fields[-1]) + 1)
            corrupt = lines[:index] + [" ".join(fields)] + lines[index + 1:]
            path = bench.ROOT / ".bench_build" / f"corrupt-pins-{workload}.txt"
            path.write_text("\n".join(corrupt) + "\n")
            proc = perfbench("--workload", workload, "--seed", "1", "--trace",
                             "0", "--pins", str(path), *TINY)
            self.assertNotEqual(proc.returncode, 0)
            res = result(proc)
            self.assertFalse(res["correct"])
            self.assertGreater(res["failed"] / res["attempted"], 0)
            self.assertIn("pinned", proc.stdout)


if __name__ == "__main__":
    unittest.main()
