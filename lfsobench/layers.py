"""Timing and counting wrappers around the calls into each layer of lfso.

Two sets of wrappers are installed by patching module and class attributes
of the imported package; no file of the package changes.

- ``Phases`` times the few coarse calls that make up the end-to-end metrics:
  problem builds, solver runs and check-suite calls.  A round makes at most
  a few hundred of these calls, so they stay on in every run.
- ``Tracer`` wraps every call into each layer, including the objective,
  gradient, oracle and radius-policy callables the solver makes on every
  iteration.  It is installed only in the traced run.
"""

from __future__ import annotations

import os
import statistics
import warnings
from collections import Counter
from time import perf_counter

import numpy as np

import lfso._svg as svg
import lfso.cli as cli
import lfso.core as core
import lfso.problems as problems
import lfso.verify as verify
from lfso.core import GradientOracle, Lfso, RPolicy
from lfso.errors import NoConvergenceWarning

SOLVERS = ("lfso", "fixed")
SOLVER_ENTRIES = ((cli, "run_lfso_gd", "lfso"), (cli, "run_fixed_gd", "fixed"),
                  (core, "run_lfso_gd", "lfso"))
BUILDERS = ((cli, "make_norm_power"), (cli, "make_lp_regression"),
            (problems, "make_lp_regression"))
CHECKS = {
    "check_lfso_validity": "verify.validity",
    "check_monotone_in_R": "verify.monotone",
    "check_trace": "verify.trace",
    "check_composition_run": "verify.composition",
    "check_regression_qlinear": "verify.qlinear",
    "check_holder": "verify.holder",
    "check_quartic_threshold": "verify.quartic",
    "fit_linear_rate": "verify.fit",
    "fit_powerlaw_rate": "verify.fit",
    "classify_rate": "verify.fit",
}
CALLEE_PARTS = ("grad", "f", "bound", "policy")


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def wrap(self, owner, name, make):
        """Replace ``owner.name`` by ``make(current)``."""
        self.set(owner, name, make(getattr(owner, name)))

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class _Spans:
    """Accumulates the time of the outermost call under each key."""

    def __init__(self):
        self.time = Counter()
        self.count = Counter()
        self._depth = Counter()

    def span(self, key, fn, after=None):
        def wrapped(*args, **kwargs):
            if self._depth[key]:
                return fn(*args, **kwargs)
            self._depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.time[key] += perf_counter() - t0
                self.count[key] += 1
                self._depth[key] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapped


class Phases(_Spans):
    """The end-to-end split of a round: setup, solve and verify time, plus
    the solver steps taken."""

    def install(self, patcher: Patcher) -> None:
        for owner, name in BUILDERS:
            patcher.wrap(owner, name, lambda fn: self.span("setup", fn))
        for owner, name, _ in SOLVER_ENTRIES:
            patcher.wrap(owner, name, lambda fn: self.span("solve", fn, self._steps))
        patcher.wrap(cli, "cmd_verify", lambda fn: self.span("verify", fn))
        for name in CHECKS:
            patcher.wrap(verify, name, lambda fn: self.span("verify", fn))

    def _steps(self, args, kwargs, trace):
        self.count["steps"] += trace.num_steps

    def take(self) -> dict:
        """This round's phase times and steps; resets the totals."""
        out = {"setup": self.time["setup"], "solve": self.time["solve"],
               "verify": self.time["verify"], "steps": self.count["steps"]}
        self.time.clear()
        self.count.clear()
        return out


class Tracer(_Spans):
    """Per-layer times and call counts.  Calls the solver makes are
    attributed to the solver (``lfso`` or ``fixed``) running at the time."""

    def __init__(self):
        super().__init__()
        self.scope = None
        self.in_suite = 0
        self.built = []
        self._sigma_max = {}

    # -- the callables a solver calls on every iteration -------------------

    def callee(self, part, fn, matvecs=0, nbytes=0):
        time, count = self.time, self.count
        keys = {s: f"core.{s}.{part}" for s in SOLVERS}

        def wrapped(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                if part == "oracle":
                    time["oracles.eval"] += dt
                    count["oracles.eval"] += 1
                scope = self.scope
                if scope is not None:
                    key = keys[scope]
                    time[key] += dt
                    count[key] += 1
                    count[f"core.{scope}.matvecs"] += matvecs
                    count[f"core.{scope}.bytes"] += matvecs * nbytes
        return wrapped

    def _objective(self, method):
        def objective(problem):
            obj = method(problem)
            if isinstance(problem, problems.LpRegressionProblem):
                mv, nbytes = (1, 2, 1), problem.a.nbytes
            else:
                mv, nbytes = (0, 0, 0), 0
            bound = obj.grad_norm_bound
            return GradientOracle(
                dim=obj.dim,
                eval=self.callee("f", obj.eval, mv[0], nbytes),
                grad=self.callee("grad", obj.grad, mv[1], nbytes),
                grad_norm_bound=None if bound is None
                else self.callee("bound", bound, mv[2], nbytes))
        return objective

    def _oracle(self, make, regression=False):
        def constructor(*args):
            oracle = make(*args)
            mv, nbytes = 0, 0
            if regression and args[0].p >= 2:
                mv, nbytes = 1, args[0].a.nbytes
            return Lfso(eval=self.callee("oracle", oracle.eval, mv, nbytes))
        return constructor

    def _policy(self, make, matvecs=0):
        def constructor(*args):
            policy = make(*args)
            nbytes = np.asarray(args[0]).nbytes if matvecs else 0
            return RPolicy(policy.kind, self.callee("policy", policy.fn, matvecs, nbytes))
        return staticmethod(constructor)

    def _solver(self, kind, fn):
        def wrapped(*args, **kwargs):
            previous, self.scope = self.scope, kind
            t0 = perf_counter()
            try:
                trace = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.scope = previous
            self.time[f"core.{kind}.solve"] += dt
            self.count[f"core.{kind}.iters"] += trace.num_steps
            if self.in_suite:
                self.time["verify.solver"] += dt
            return trace
        return wrapped

    def _suite(self, fn):
        def wrapped(*args, **kwargs):
            self.in_suite += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_suite -= 1
        return wrapped

    # -- problem builds ----------------------------------------------------

    def _build(self, fn):
        def wrapped(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            self.count["problems.warnings"] += sum(
                issubclass(w.category, NoConvergenceWarning) for w in caught)
            self.built.append(result[0])
            return result
        return self.span("problems.build", wrapped)

    def _file_size(self, key):
        def after(args, kwargs, result):
            self.count[key] += os.path.getsize(args[0])
        return after

    def install(self, patcher: Patcher) -> None:
        for cls in (problems.CompositionProblem, problems.LpRegressionProblem,
                    problems.QuarticProblem):
            patcher.set(cls, "objective", self._objective(cls.objective))
        patcher.set(problems.QuarticProblem, "lfso",
                    self._oracle(problems.QuarticProblem.lfso))
        patcher.wrap(problems, "composition_lfso", self._oracle)
        patcher.wrap(problems, "lp_regression_lfso",
                     lambda fn: self._oracle(fn, regression=True))
        patcher.wrap(cli, "constant_lfso", self._oracle)
        patcher.set(RPolicy, "constant", self._policy(RPolicy.constant))
        patcher.set(RPolicy, "grad_g_norm", self._policy(RPolicy.grad_g_norm))
        patcher.set(RPolicy, "residual_inf_norm",
                    self._policy(RPolicy.residual_inf_norm, matvecs=1))
        for owner, name, kind in SOLVER_ENTRIES:
            patcher.wrap(owner, name, lambda fn, kind=kind: self._solver(kind, fn))
        for owner, name in BUILDERS:
            patcher.wrap(owner, name, self._build)
        patcher.wrap(problems, "spectral_norm",
                     lambda fn: self.span("problems.spectral_norm", fn))
        patcher.wrap(problems, "condition_number",
                     lambda fn: self.span("problems.condition_number", fn))
        patcher.wrap(cli, "write_trace_csv", lambda fn: self.span(
            "cli.csv_write", fn, self._file_size("cli.csv_bytes")))
        patcher.wrap(cli, "summarize_trace", lambda fn: self.span("cli.summary", fn))
        patcher.wrap(svg, "write_log_plot", lambda fn: self.span(
            "svg.write", fn, self._file_size("svg.bytes")))
        patcher.wrap(cli, "cmd_verify", self._suite)
        for name, key in CHECKS.items():
            after = self._samples if name == "check_lfso_validity" else None
            patcher.wrap(verify, name,
                         lambda fn, key=key, after=after: self.span(key, fn, after))
        patcher.set(verify.CheckReport, "render",
                    self.span("verify.render", verify.CheckReport.render))

    def _samples(self, args, kwargs, result):
        spec = kwargs.get("spec", args[2] if len(args) > 2 else None)
        self.count["verify.samples"] += spec.num_points

    # -- per-round results -------------------------------------------------

    def spec_norm_shortfall(self) -> float:
        """Largest relative gap of a cached ||A||_2 below the dense SVD's
        sigma_max, over the regression problems built this round."""
        worst = 0.0
        for problem in self.built:
            if not isinstance(problem, problems.LpRegressionProblem):
                continue
            key = id(problem.a)
            if key not in self._sigma_max:
                # Holding A keeps its id from being reused by another array.
                self._sigma_max[key] = (problem.a, float(
                    np.linalg.svd(problem.a, compute_uv=False)[0]))
            sigma = self._sigma_max[key][1]
            worst = max(worst, (sigma - problem.spec_norm) / sigma)
        return worst

    def take(self):
        """This round's (times, counts, shortfall); resets the totals."""
        shortfall = self.spec_norm_shortfall()
        times, counts = dict(self.time), dict(self.count)
        self.time.clear()
        self.count.clear()
        self.built.clear()
        return times, counts, shortfall


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(rounds, overhead_s: float) -> dict:
    """Per-layer metrics from the traced rounds: times are medians over the
    rounds, counts come from the first round (they repeat exactly)."""
    def t(*keys, minus=()):
        return statistics.median(
            sum(times.get(k, 0.0) for k in keys) - sum(times.get(k, 0.0) for k in minus)
            for times, _, _ in rounds)

    _, c, _ = rounds[0]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("problems.build_s", t("problems.build"), "s")
    put("problems.spectral_norm_s", t("problems.spectral_norm"), "s")
    put("problems.spectral_norm_calls", c.get("problems.spectral_norm", 0), "count")
    put("problems.condition_number_s", t("problems.condition_number"), "s")
    put("problems.build_warnings", c.get("problems.warnings", 0), "count")
    put("problems.spec_norm_shortfall",
        max(shortfall for _, _, shortfall in rounds), "ratio")
    for s in SOLVERS:
        iters = c.get(f"core.{s}.iters", 0)
        inside = [f"core.{s}.{part}" for part in CALLEE_PARTS + ("oracle",)]
        put(f"core.{s}.iters", iters, "count")
        put(f"core.{s}.iter_us", _per(t(f"core.{s}.solve"), iters) * 1e6, "us")
        put(f"core.{s}.self_s", t(f"core.{s}.solve", minus=inside), "s")
        for part in CALLEE_PARTS:
            put(f"core.{s}.{part}_calls_per_iter",
                _per(c.get(f"core.{s}.{part}", 0), iters), "1/iter")
            put(f"core.{s}.{part}_s", t(f"core.{s}.{part}"), "s")
        put(f"core.{s}.computed_matvecs_per_iter",
            _per(c.get(f"core.{s}.matvecs", 0), iters), "1/iter")
        put(f"core.{s}.computed_bytes_per_iter",
            _per(c.get(f"core.{s}.bytes", 0), iters), "B/iter")
    put("oracles.calls_per_iter",
        _per(c.get("core.lfso.oracle", 0), c.get("core.lfso.iters", 0)), "1/iter")
    put("oracles.eval_s", t("oracles.eval"), "s")
    put("cli.csv_write_s", t("cli.csv_write"), "s")
    put("cli.csv_mb", c.get("cli.csv_bytes", 0) / 1e6, "MB")
    put("cli.summary_s", t("cli.summary"), "s")
    put("svg.write_s", t("svg.write"), "s")
    put("svg.kb", c.get("svg.bytes", 0) / 1e3, "KB")
    validity = t("verify.validity")
    put("verify.validity_s", validity, "s")
    put("verify.validity_samples_per_s", _per(c.get("verify.samples", 0), validity), "1/s")
    for name in ("monotone", "trace", "composition", "qlinear", "holder",
                 "solver", "fit", "render"):
        put(f"verify.{name}_s", t(f"verify.{name}"), "s")
    put("trace.overhead_s", overhead_s, "s")
    return out

