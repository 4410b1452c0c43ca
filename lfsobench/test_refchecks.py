"""Each output check catches a planted fault, and passes the unplanted output.

    python3 -m pytest -q lfsobench
"""

import io
import math
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import lfso.cli as cli  # noqa: E402
from lfso.oracles import ConstantLfsoParams  # noqa: E402
from lfso.problems import make_lp_regression  # noqa: E402

import refchecks  # noqa: E402
from layers import Patcher  # noqa: E402


def figure_csv(figure: str, p: int, max_iters: int) -> str:
    with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()):
        cli.reproduce_figure(figure, out, max_iters=max_iters)
        with open(os.path.join(out, f"{figure}_p{p}.csv")) as fh:
            return fh.read()


def verify_report(seed: int) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["verify", "--seed", str(seed), "--include-controls"])
    return out.getvalue()


class PlantedFaults(unittest.TestCase):

    def test_spec_norm_one_part_in_a_million_low(self):
        # Well-separated extreme singular values, on which the power
        # iteration reaches full precision.
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        a = u @ np.diag([4.0, 0.5, 0.4, 0.3, 0.1]) @ v.T
        problem, _ = make_lp_regression(a, rng.standard_normal(5), 2)
        sv = np.linalg.svd(a, compute_uv=False)
        self.assertEqual(refchecks.check_structure_constants(
            problem.spec_norm, problem.cond, sv, a.shape), [])
        found = refchecks.check_structure_constants(
            problem.spec_norm * (1.0 - 1e-6), problem.cond, sv, a.shape)
        self.assertTrue(any("||A||_2" in msg for msg in found))

    def test_csv_value_changed_in_tenth_digit(self):
        text = figure_csv("fig2b", 3, max_iters=200)
        self.assertEqual(refchecks.check_figure_run(
            "fig2b", 3, text, "max-iterations", 200), [])
        lines = text.splitlines()
        fields = lines[51].split(",")
        value = float(fields[-1])
        fields[-1] = repr(value + 10.0 ** (math.floor(math.log10(value)) - 9))
        lines[51] = ",".join(fields)
        found = refchecks.check_figure_run(
            "fig2b", 3, "\n".join(lines) + "\n", "max-iterations", 200)
        self.assertTrue(any("grad_ratio[50]" in msg for msg in found))

    def test_fixed_run_stopped_early(self):
        text = figure_csv("fig1b", 3, max_iters=400)
        self.assertEqual(refchecks.check_figure_run(
            "fig1b", 3, text, "max-iterations", 400), [])
        patcher = Patcher()
        patcher.wrap(cli, "run_fixed_gd", lambda run: lambda *args, **kwargs: run(
            *args, **dict(kwargs, max_iters=kwargs["max_iters"] // 2)))
        try:
            text = figure_csv("fig1b", 3, max_iters=400)
        finally:
            patcher.restore()
        found = refchecks.check_figure_run("fig1b", 3, text, "max-iterations", 400)
        self.assertTrue(any("200 of 400 steps" in msg for msg in found))

    def test_undersized_constant_oracle(self):
        self.assertEqual(refchecks.check_verify_report(verify_report(3), 3), [])
        patcher = Patcher()
        patcher.wrap(cli, "constant_lfso", lambda make: lambda params: make(
            ConstantLfsoParams(l_f=params.l_f / 2)))
        try:
            text = verify_report(3)
        finally:
            patcher.restore()
        found = refchecks.check_verify_report(text, 3)
        self.assertTrue(any(msg.startswith("lfso-validity quadratic+constant")
                            for msg in found))

    def test_broken_svg(self):
        self.assertTrue(refchecks.check_svg("<svg"))
        self.assertTrue(refchecks.check_svg(
            '<svg xmlns="http://www.w3.org/2000/svg"><polyline/></svg>'))


if __name__ == "__main__":
    unittest.main()
