"""The workloads' inputs depend on the seed and on nothing else.

    python3 -m unittest discover -s perfbench/tests -p 'selftest_*.py'
"""

import importlib
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

DUMP = """
import importlib, json, sys
sys.path.insert(0, {here!r})
wl = importlib.import_module("workloads." + {name!r})
rounds = [wl.make_round({seed}, j) for j in range(3)]
extra = wl.generators({seed}) if hasattr(wl, "generators") else None
sys.stdout.write(json.dumps([rounds, extra], sort_keys=True))
"""


def dump_here(name: str, seed: int) -> bytes:
    wl = importlib.import_module(f"workloads.{name}")
    rounds = [wl.make_round(seed, j) for j in range(3)]
    extra = wl.generators(seed) if hasattr(wl, "generators") else None
    return json.dumps([rounds, extra], sort_keys=True).encode()


def dump_in_fresh_process(name: str, seed: int) -> bytes:
    code = DUMP.format(here=HERE, name=name, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED="random")
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          env=env, timeout=60).stdout


class InputTest(unittest.TestCase):
    def test_workload_list_matches_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), WORKLOADS)

    def test_same_seed_gives_byte_identical_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(dump_here(name, 5), dump_in_fresh_process(name, 5))

    def test_different_seeds_give_different_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(dump_here(name, 5), dump_here(name, 6))

    def test_rounds_differ_but_keep_their_op_classes(self):
        for name in WORKLOADS:
            wl = importlib.import_module(f"workloads.{name}")
            a, b = wl.make_round(1, 0), wl.make_round(1, 1)
            with self.subTest(workload=name):
                self.assertNotEqual(a, b)
                self.assertEqual(sorted(map(wl.op_class, a)), sorted(map(wl.op_class, b)))


if __name__ == "__main__":
    unittest.main()
