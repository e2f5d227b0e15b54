"""A broken first passage at low omega is a failure, not a known defect.

    python3 -m unittest discover -s perfbench/tests -p 'selftest_*.py'
"""

import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from harness import NullTracer  # noqa: E402
from workloads import trajectory  # noqa: E402


class FirstPassageCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as d:
            cls.ctx = trajectory.setup(d, 1)
        n = len(trajectory.LINDBLAD_LABELS)
        cls.inp = {"gen": n, "tau": 2.0}  # omega stratum 0: omega in [1, 3.2]
        cls.omega = cls.ctx.models[n][0]["omega"]
        cls.out = trajectory.run_op(cls.ctx, trajectory.prepare(cls.ctx, cls.inp), NullTracer())

    def violations(self, passage):
        out = dict(self.out, passage=passage)
        args = trajectory.prepare(self.ctx, self.inp)
        return trajectory.check(self.ctx, self.inp, args, out, None)

    def test_correct_passage_passes(self):
        want = trajectory.earliest_passage(2.0, self.omega)
        self.assertGreater(want, trajectory.SCAN_STEP)
        self.assertEqual(self.violations(self.out["passage"]), [])

    def test_late_passage_at_low_omega_is_not_a_known_defect(self):
        late = self.out["passage"] + math.pi / self.omega
        bad = self.violations(late)
        self.assertIn("unitary_first_passage_not_earliest:omega_stratum_0", bad)
        self.assertTrue(all(v not in trajectory.KNOWN_DEFECTS for v in bad))


if __name__ == "__main__":
    unittest.main()
