"""The three workloads: their inputs, one round of program work, and the
checks of that work.

A run repeats whole rounds of the same operations, so the share of failed
operations is the same in every run.  ``round`` does only the program's work
and returns its wall time and a fingerprint of everything it produced; the
runner requires the fingerprints of all rounds to be equal.  ``check`` then
runs once, outside every timed region, on the last round's outputs and
returns ``(operations, failed, problems)``: the operations in a round, the
names of those that failed their checks with the reasons, and problems with
the outputs as a whole.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

import lfso.cli as cli
import lfso.core as core
import lfso.problems as problems
import lfso.verify as verify

import refchecks

# Faults of the program that make an operation fail every time, on inputs
# that do not depend on --seed.  They are counted in ``failed``; any other
# failure makes the run incorrect.
KNOWN_FAULTS = {
    "figures": {
        # The default eta = 1e-5 jumps to the minimizer in one step.
        "fig1a p=5",
        # Both report stationary-exact where the gradient norm underflowed.
        "fig2a p=2",
        "fig2b p=2",
    },
    # Power iteration stops at its cap on the clustered spectrum, so the
    # cached ||A||_2 falls 2.8e-5 (relative) below the SVD value.
    "regression": {"build"},
    "verify": set(),
}


def _remove(paths) -> None:
    """Delete last round's outputs, so the program writes new files: on
    ext4, truncating and rewriting a file starts its writeback at close,
    which makes write times vary with the disk."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class Figures:
    """``lfso reproduce`` for each figure: 20 runs at d = 10 with up to 10^4
    iterations, trace CSVs, one SVG per figure and the summary lines.  The
    seed sets the order in which the four figures are made."""

    MAX_ITERS = 10_000

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.order = [refchecks.FIGURES[i] for i in rng.permutation(4)]
        self.out_dir = out_dir
        self.paths = sorted(
            [os.path.join(out_dir, f"{fig}_p{p}.csv")
             for fig in refchecks.FIGURES for p in range(1, 6)]
            + [os.path.join(out_dir, f"{fig}.svg") for fig in refchecks.FIGURES])
        self.stdout = ""

    def round(self):
        _remove(self.paths)
        stdout = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(stdout):
            for fig in self.order:
                status = cli.main(["reproduce", "--figure", fig,
                                   "--out-dir", self.out_dir])
                print(f"exit {status}")
        wall = perf_counter() - t0
        self.stdout = stdout.getvalue()
        return wall, (self.stdout, _sha256_files(self.paths))

    def check(self):
        problems_ = []
        text = self.stdout
        if text.count("exit 0") != len(self.order):
            problems_.append("lfso reproduce did not exit 0")
        termination = {}
        for line in text.splitlines():
            words = line.split()
            if len(words) > 3 and words[0] in refchecks.FIGURES:
                fields = dict(w.split("=", 1) for w in words[1:] if "=" in w)
                termination[(words[0], int(fields["p"]))] = fields["termination"]
        failed = []
        for fig in refchecks.FIGURES:
            for p in range(1, 6):
                with open(os.path.join(self.out_dir, f"{fig}_p{p}.csv")) as fh:
                    found = refchecks.check_figure_run(
                        fig, p, fh.read(), termination.get((fig, p), "missing"),
                        self.MAX_ITERS)
                if found:
                    failed.append((f"{fig} p={p}", found))
            with open(os.path.join(self.out_dir, f"{fig}.svg")) as fh:
                problems_ += [f"{fig}.svg: {msg}" for msg in refchecks.check_svg(fh.read())]
        return 20, failed, problems_


class Regression:
    """One ``make_lp_regression`` build and one ``run_lfso_gd`` solve with
    the residual-inf radius policy and the gradient-norm bound, run to a
    relative gradient tolerance; then the trace CSV and summary line that
    ``lfso run`` writes, and the Q-linear residual check that the theory
    regime promises (it reads every stored iterate, one matvec each).

    A is a wide 200 x 80000 matrix (122 MB, several times the last-level
    cache) with singular values spread evenly over [1, 1.001], so
    cond(A)^4 < n/(n-1) (the paper's theory regime).  A is fixed, so the
    build's known fault does not depend on the seed; b is drawn from it.
    """

    N, D, P = 200, 80_000, 2
    SPREAD = 1e-3
    MATRIX_SEED = 2311_08615
    REL_TOL = 1e-12
    MAX_ITERS = 10_000

    def __init__(self, seed: int, out_dir: str):
        self.a = self.make_matrix()
        self.b = np.random.default_rng(seed).standard_normal(self.N)
        self.x0 = np.zeros(self.D)
        g0 = refchecks.regression_gradient(self.a, self.b, self.P, self.x0)
        self.grad_tol = self.REL_TOL * float(np.linalg.norm(g0))
        self.csv_path = os.path.join(out_dir, "regression.csv")
        self.result = None

    @classmethod
    def make_matrix(cls) -> np.ndarray:
        """Rows orthonormalised by two passes of Cholesky QR, then scaled to
        the target singular values; built in place to keep memory at A."""
        a = np.random.default_rng(cls.MATRIX_SEED).standard_normal((cls.N, cls.D))
        for _ in range(2):
            inv_l = np.linalg.inv(np.linalg.cholesky(a @ a.T))
            for j in range(0, cls.D, 2048):
                a[:, j:j + 2048] = inv_l @ a[:, j:j + 2048]
        a *= (1.0 + cls.SPREAD * np.linspace(0.0, 1.0, cls.N))[:, None]
        return a

    def round(self):
        _remove([self.csv_path])
        t0 = perf_counter()
        problem, oracle = problems.make_lp_regression(self.a, self.b, self.P)
        config = core.SolverConfig(
            r_policy=core.RPolicy.residual_inf_norm(problem.a, problem.b),
            max_iters=self.MAX_ITERS, grad_tol=self.grad_tol,
            use_grad_bound=True)
        trace = core.run_lfso_gd(oracle, problem.objective(), self.x0, config,
                                 keep_iterates=True)
        cli.write_trace_csv(self.csv_path, trace)
        summary = cli.summarize_trace(trace, f"regression n={self.N} d={self.D} p={self.P}")
        report = verify.check_regression_qlinear(problem, trace)
        wall = perf_counter() - t0
        with open(self.csv_path) as fh:
            csv_text = fh.read()
        self.result = (problem.spec_norm, problem.cond, trace.final_x,
                       trace.termination.value, csv_text, report)
        x_digest = hashlib.sha256(trace.final_x.tobytes()).hexdigest()
        return wall, (problem.spec_norm, problem.cond, x_digest, csv_text, summary,
                      report.violations, repr(report.stats))

    def check(self):
        spec_norm, cond, x, termination, csv_text, report = self.result
        sv = np.linalg.svd(self.a, compute_uv=False)
        failed = []
        for name, found in (
                ("build", refchecks.check_structure_constants(
                    spec_norm, cond, sv, self.a.shape)),
                ("solve", refchecks.check_regression_solve(
                    self.a, self.b, self.P, x, termination, self.grad_tol, csv_text)),
                ("qlinear", refchecks.check_qlinear_report(
                    report.violations, report.stats,
                    float(np.linalg.norm(self.a @ x - self.b))))):
            if found:
                failed.append((name, found))
        return 3, failed, []


class Verify:
    """``lfso verify --include-controls`` for ten seeds drawn from the run's
    seed: sampled remainder, monotonicity and power-mean checks, short solver
    runs with their trace checks, plus the two deliberately broken controls."""

    SEEDS_PER_ROUND = 10

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**32, self.SEEDS_PER_ROUND)]
        self.reports = ()

    def round(self):
        texts = []
        t0 = perf_counter()
        for seed in self.seeds:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                cli.main(["verify", "--seed", str(seed), "--include-controls"])
            texts.append(stdout.getvalue())
        wall = perf_counter() - t0
        self.reports = tuple(texts)
        return wall, self.reports

    def check(self):
        failed = []
        for seed, text in zip(self.seeds, self.reports):
            found = refchecks.check_verify_report(text, seed)
            if found:
                failed.append((f"seed {seed}", found))
        return len(self.seeds), failed, []


WORKLOADS = {"figures": Figures, "regression": Regression, "verify": Verify}
