import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfso import cli, core, verify
from lfso.cli import shipped_pairs, summarize_trace
from lfso.core import (GradientOracle, Lfso, RPolicy, SolverConfig,
                       euclidean_norm, run_fixed_gd, run_lfso_gd)
from lfso.errors import (AssumptionUnmetError, InsufficientDataError,
                         MissingDiagnosticsError)
from lfso.oracles import ConstantLfsoParams, constant_lfso
from lfso.problems import (QuarticProblem, make_lp_regression,
                           make_norm_power)
from lfso.verify import (SampleSpec, _residual_norms, check_composition_run,
                         check_holder, check_lfso_validity, check_monotone_in_R,
                         check_quartic_threshold, check_regression_qlinear,
                         check_trace, classify_rate, fit_linear_rate,
                         fit_powerlaw_rate)
from test_problems import count_products

QUARTIC = QuarticProblem()


def quartic_run(x0=1.0, eta=1.0, r=0.1, iters=100):
    config = SolverConfig(r_policy=RPolicy.constant(r), eta=eta,
                          max_iters=iters)
    return run_lfso_gd(QUARTIC.lfso(), QUARTIC.objective(),
                       np.array([x0]), config)


def reference_validity(problem, oracle, spec):
    """The validity check as a per-sample loop: the four sample blocks
    rebuilt in their documented order, each ball point formed as the
    former per-sample ``_ball_point`` formed it, and the comparison
    written out sample by sample."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.num_points, problem.dim
    xs = rng.uniform(spec.x_box[0], spec.x_box[1], (n, d))
    radii = rng.uniform(spec.r_range[0], spec.r_range[1], n)
    dirs = rng.standard_normal((n, d))
    us = rng.uniform(size=n)
    violations = 0
    worst_ratio = 0.0
    eps = float(np.finfo(np.float64).eps)
    for x, radius, v, u in zip(xs, radii.tolist(), dirs, us.tolist()):
        nv = math.sqrt(v.dot(v))
        if nv == 0.0:
            v = np.ones(d)
            nv = math.sqrt(v.dot(v))
        y = x + (radius * u ** (1.0 / d) / nv) * v
        diff = y - x
        dist_sq = float(diff @ diff)
        if dist_sq == 0.0:
            continue
        lin = float(problem.grad(x) @ diff)
        fx = float(problem.eval(x))
        rhs = 0.5 * float(oracle.eval(x, radius)) * dist_sq
        fy = float(problem.eval(y))
        lhs = abs(fy - fx - lin)
        noise = 8.0 * eps * (abs(fx) + abs(fy) + abs(lin)) + 1e-300
        worst_ratio = max(worst_ratio, lhs / (rhs + noise))
        if lhs > rhs * (1.0 + 1e-10) + noise:
            violations += 1
    return violations, worst_ratio


def recording_pair(problem, oracle):
    """Copies of ``problem`` and ``oracle`` that log every call as
    (kind, point, radius), in call order."""
    calls = []

    def logged(kind, fn):
        def wrapped(x, *radius):
            calls.append((kind, np.array(x), *radius))
            return fn(x, *radius)
        return wrapped

    return (GradientOracle(dim=problem.dim, eval=logged("f", problem.eval),
                           grad=logged("grad", problem.grad)),
            Lfso(eval=logged("L", oracle.eval)), calls)


def quadratic(dim):
    return GradientOracle(dim=dim, eval=lambda x: float(x @ x),
                          grad=lambda x: 2.0 * x)


_DEFAULT_RNG = np.random.default_rng


class _ZeroFirstDirection:
    """A PCG64 generator whose first ``standard_normal`` block starts with a
    zero row, the draw the ball-point guard exists for."""

    def __init__(self, seed):
        self._rng = _DEFAULT_RNG(seed)

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)

    def standard_normal(self, size):
        block = self._rng.standard_normal(size)
        block[0] = 0.0
        return block


def sampled_pairs():
    """Objective-oracle pairs for the layout test, by label."""
    pairs = {"quartic": (QUARTIC.objective(), QUARTIC.lfso()),
             "wrong constant": (quadratic(10),
                                constant_lfso(ConstantLfsoParams(1.0)))}
    for p in (1, 3, 5):
        problem, oracle = make_norm_power(10, p)
        pairs[f"norm2-pow p={p}"] = (problem.objective(), oracle)
        problem, oracle = make_lp_regression(np.eye(10), np.zeros(10), p)
        pairs[f"lp-norm p={p}"] = (problem.objective(), oracle)
    return pairs


SAMPLED_PAIRS = sampled_pairs()


class TestValidityCheck:
    """Remainder-bound validity by ball sampling, and its sample layout:
    four blocks from the spec's generator (X, R, V, U, in that order),
    ball points y_i = x_i + (R_i U_i^(1/d) / ||v_i||) v_i, and per sample
    the evaluations grad f(x), f(x), L(x, R), f(y)."""

    def test_quartic_pair_clean(self):
        report = check_lfso_validity(
            QUARTIC.objective(), QUARTIC.lfso(),
            SampleSpec(num_points=1000, seed=0, x_box=(-2.0, 2.0),
                       r_range=(1e-3, 2.0)))
        assert report.violations == 0

    def test_tight_pair_ratio_is_one(self):
        problem = GradientOracle(dim=4, eval=lambda x: float(x @ x),
                                 grad=lambda x: 2.0 * x)
        report = check_lfso_validity(problem,
                                     constant_lfso(ConstantLfsoParams(2.0)),
                                     SampleSpec(num_points=1000, seed=1))
        assert report.violations == 0
        assert report.stats["worst_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_wrong_oracle_flagged(self):
        problem = GradientOracle(dim=4, eval=lambda x: float(x @ x),
                                 grad=lambda x: 2.0 * x)
        report = check_lfso_validity(problem,
                                     constant_lfso(ConstantLfsoParams(1.0)),
                                     SampleSpec(num_points=200, seed=2))
        assert report.violations > 0
        assert report.stats["worst_ratio"] > 1.5

    def test_deterministic_given_seed(self):
        problem = GradientOracle(dim=3, eval=lambda x: float(x @ x),
                                 grad=lambda x: 2.0 * x)
        oracle = constant_lfso(ConstantLfsoParams(2.0))
        spec = SampleSpec(num_points=100, seed=42)
        first = check_lfso_validity(problem, oracle, spec)
        second = check_lfso_validity(problem, oracle, spec)
        assert first.render() == second.render()

    @pytest.mark.parametrize("label", sorted(SAMPLED_PAIRS))
    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_matches_per_sample_reference(self, label, seed):
        problem, oracle = SAMPLED_PAIRS[label]
        spec = SampleSpec(num_points=300, seed=seed)
        report = check_lfso_validity(problem, oracle, spec)
        violations, worst_ratio = reference_validity(problem, oracle, spec)
        assert report.violations == violations
        assert report.stats["worst_ratio"] == worst_ratio

    @pytest.mark.parametrize("dim", [1, 3, 10])
    def test_evaluation_order_and_ball(self, dim):
        spec = SampleSpec(num_points=200, seed=5, r_range=(1e-3, 2.0))
        problem, oracle, calls = recording_pair(
            quadratic(dim), constant_lfso(ConstantLfsoParams(2.0)))
        assert check_lfso_validity(problem, oracle, spec).violations == 0
        rng = np.random.default_rng(spec.seed)
        xs = rng.uniform(spec.x_box[0], spec.x_box[1], (spec.num_points, dim))
        radii = rng.uniform(spec.r_range[0], spec.r_range[1], spec.num_points)
        assert len(calls) == 4 * spec.num_points
        eps = float(np.finfo(np.float64).eps)
        for i in range(spec.num_points):
            grad_x, f_x, l_x, f_y = calls[4 * i:4 * i + 4]
            assert [c[0] for c in (grad_x, f_x, l_x, f_y)] == \
                ["grad", "f", "L", "f"]
            x = grad_x[1]
            assert x.tobytes() == xs[i].tobytes()
            assert f_x[1].tobytes() == l_x[1].tobytes() == x.tobytes()
            assert l_x[2] == radii[i]
            assert np.linalg.norm(f_y[1] - x) <= radii[i] * (1.0 + 4.0 * eps)

    def test_zero_direction_replaced_by_ones(self, monkeypatch):
        monkeypatch.setattr(verify.np.random, "default_rng", _ZeroFirstDirection)
        d = 4
        spec = SampleSpec(num_points=5, seed=3)
        problem, oracle, calls = recording_pair(
            quadratic(d), constant_lfso(ConstantLfsoParams(2.0)))
        assert check_lfso_validity(problem, oracle, spec).violations == 0
        rng = _DEFAULT_RNG(spec.seed)
        x = rng.uniform(spec.x_box[0], spec.x_box[1], (spec.num_points, d))[0]
        radius = rng.uniform(spec.r_range[0], spec.r_range[1], spec.num_points)[0]
        rng.standard_normal((spec.num_points, d))
        u = rng.uniform(size=spec.num_points)[0]
        y = x + (float(radius) * float(u) ** (1.0 / d) / 2.0) * np.ones(d)
        assert calls[3][1].tobytes() == y.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_wrong_oracle_control_flagged(self, seed):
        name, objective, _ = shipped_pairs()[1]
        assert name == "quadratic+constant"
        report = check_lfso_validity(objective,
                                     constant_lfso(ConstantLfsoParams(1.0)),
                                     SampleSpec(num_points=1000, seed=seed))
        assert report.violations > 0
        assert report.stats["worst_ratio"] > 1.5

    def test_planted_undersized_constant_flagged(self):
        # the remainder of |x|^2 is exactly |y - x|^2, so a constant 1.9
        # against the true L = 2 undercuts it at every sample
        report = check_lfso_validity(quadratic(10),
                                     constant_lfso(ConstantLfsoParams(1.9)),
                                     SampleSpec(num_points=1000, seed=0))
        assert report.violations == 1000
        assert report.stats["worst_ratio"] == pytest.approx(2.0 / 1.9)


def scalar_only(objective, oracle):
    """The pair rebuilt from its scalar fields alone, as a tracer that wraps
    each callable rebuilds it."""
    return (GradientOracle(dim=objective.dim, eval=objective.eval,
                           grad=objective.grad,
                           grad_norm_bound=objective.grad_norm_bound),
            Lfso(eval=oracle.eval))


def suite_pairs():
    """{name: (objective, oracle)} of the suite's validity blocks, the
    wrong-oracle control included."""
    pairs = {name: (objective, oracle)
             for name, objective, oracle in shipped_pairs()}
    pairs["CONTROL wrong-oracle"] = (pairs["quadratic+constant"][0],
                                     constant_lfso(ConstantLfsoParams(1.0)))
    return pairs


SUITE_PAIRS = suite_pairs()


def one_ulp_low_at_first_sample(oracle):
    """``oracle`` with a row form one ulp below ``oracle.eval`` at row 0,
    a sample the checks also evaluate through the scalar callables."""
    def eval_rows(xs, radii):
        values = oracle.eval_rows(xs, radii)
        values[0] = np.nextafter(values[0], -np.inf)
        return values
    return Lfso(eval=oracle.eval, eval_rows=eval_rows)


class TestRowFormEquivalence:
    """The row forms change no report: with them and without them, the
    validity and monotone blocks render identically."""

    def test_every_pair_has_row_forms(self):
        # the scalar path stays covered by the scalar_only pairs below
        assert [name for name, (objective, oracle) in SUITE_PAIRS.items()
                if None in (objective.eval_rows, objective.grad_rows,
                            oracle.eval_rows)] == []

    @pytest.mark.parametrize("name", sorted(SUITE_PAIRS))
    @pytest.mark.parametrize("seed", [0, 123456])
    def test_same_report_without_row_forms(self, name, seed):
        objective, oracle = SUITE_PAIRS[name]
        bare_objective, bare_oracle = scalar_only(objective, oracle)
        spec = SampleSpec(num_points=1000, seed=seed)
        assert (check_lfso_validity(objective, oracle, spec, name).render()
                == check_lfso_validity(bare_objective, bare_oracle, spec,
                                       name).render())
        spec = SampleSpec(num_points=32, seed=seed)
        assert (check_monotone_in_R(oracle, spec, objective.dim).render()
                == check_monotone_in_R(bare_oracle, spec,
                                       objective.dim).render())

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_row_values_compare_as_float64(self, dtype):
        # the scalar form returns the int 2; row values of 2 as int64 or
        # float32 agree with it once both are stored as float64
        objective = SUITE_PAIRS["quadratic+constant"][0]
        oracle = Lfso(eval=lambda x, r: 2,
                      eval_rows=lambda xs, radii: np.full(len(xs), 2,
                                                          dtype=dtype))
        bare_objective, bare_oracle = scalar_only(objective, oracle)
        spec = SampleSpec(num_points=1000, seed=0)
        report = check_lfso_validity(objective, oracle, spec)
        assert report.violations == 0
        assert report.render() == check_lfso_validity(
            bare_objective, bare_oracle, spec).render()
        spec = SampleSpec(num_points=32, seed=0)
        report = check_monotone_in_R(oracle, spec, objective.dim)
        assert report.violations == 0
        assert report.render() == check_monotone_in_R(
            bare_oracle, spec, objective.dim).render()

    @pytest.mark.parametrize("name", sorted(SUITE_PAIRS))
    def test_monotone_grid_in_one_rows_call(self, name):
        objective, oracle = SUITE_PAIRS[name]
        calls = []

        def eval_rows(xs, radii):
            calls.append((len(xs), len(radii)))
            return oracle.eval_rows(xs, radii)

        spec = SampleSpec(num_points=32, seed=0)
        report = check_monotone_in_R(replace(oracle, eval_rows=eval_rows),
                                     spec, objective.dim)
        assert calls == [(32 * 12, 32 * 12)]
        assert report.render() == check_monotone_in_R(
            Lfso(eval=oracle.eval), spec, objective.dim).render()

    def test_row_one_ulp_off_is_a_violation(self):
        objective, oracle = SUITE_PAIRS["norm2-pow p=3"]
        planted = one_ulp_low_at_first_sample(oracle)
        spec = SampleSpec(num_points=1000, seed=0)
        assert check_lfso_validity(objective, oracle, spec).violations == 0
        assert check_lfso_validity(objective, planted, spec).violations == 1
        spec = SampleSpec(num_points=32, seed=0)
        assert check_monotone_in_R(oracle, spec, 10).violations == 0
        assert check_monotone_in_R(planted, spec, 10).violations == 1


class TestSuiteSampleDraws:
    """``verify_all`` draws the validity samples of each (spec, dim) once
    per call and hands them to its checks read-only; direct calls of the
    check draw afresh."""

    @staticmethod
    def count_draws(monkeypatch):
        draws = []
        draw = verify._validity_samples

        def counted(spec, d):
            samples = draw(spec, d)
            draws.append((spec, d, samples))
            return samples

        monkeypatch.setattr(verify, "_validity_samples", counted)
        return draws

    def test_once_per_spec_and_dim_per_suite_run(self, monkeypatch):
        draws = self.count_draws(monkeypatch)
        first = cli.verify_all(3, include_controls=True)[0]
        # 12 validity blocks and the wrong-oracle control: the quartic
        # samples d = 1, the other 12 d = 10
        assert first.count("[lfso-validity ") == 12
        assert "[CONTROL wrong-oracle]" in first
        assert [(spec.seed, d) for spec, d, _ in draws] == [(3, 1), (3, 10)]
        for _, _, (xs, _, ys) in draws:
            assert not xs.flags.writeable and not ys.flags.writeable
        # nothing carries over to the next call
        second = cli.verify_all(3, include_controls=True)[0]
        assert second == first
        assert len(draws) == 4
        assert draws[2][2][0] is not draws[0][2][0]

    def test_direct_calls_draw_afresh(self, monkeypatch):
        draws = self.count_draws(monkeypatch)
        objective, oracle = SUITE_PAIRS["quartic"]
        spec = SampleSpec(num_points=100, seed=0)
        for _ in range(2):
            check_lfso_validity(objective, oracle, spec)
        assert len(draws) == 2
        assert all(xs.flags.writeable for _, _, (xs, _, _) in draws)


class TestFastFormCheck:
    """The validity check also compares the solver's fast forms,
    ``evaluate``, ``fast_bound`` and ``at``, with the scalar callables on
    its stride of samples, on the row path and the scalar path, handing
    them one ``shared`` dict per sample in the solver loop's order."""

    SPEC = SampleSpec(num_points=1000, seed=0)

    @staticmethod
    def pair(with_rows, name="norm2-pow p=3"):
        objective, oracle = SUITE_PAIRS[name]
        if not with_rows:
            objective = replace(objective, eval_rows=None, grad_rows=None)
        return objective, oracle

    def first_centre(self, dim):
        return verify._validity_samples(self.SPEC, dim)[0][0]

    @pytest.mark.parametrize("with_rows", [True, False])
    def test_one_ulp_off_evaluate_is_a_violation(self, with_rows):
        objective, oracle = self.pair(with_rows)
        x0 = self.first_centre(objective.dim)

        def evaluate(x, shared):
            f, g = objective.evaluate(x, shared)
            if np.array_equal(x, x0):
                f = float(np.nextafter(f, -np.inf))
            return f, g

        assert check_lfso_validity(objective, oracle, self.SPEC).violations == 0
        planted = replace(objective, evaluate=evaluate)
        assert check_lfso_validity(planted, oracle, self.SPEC).violations == 1

    @pytest.mark.parametrize("with_rows", [True, False])
    def test_one_ulp_off_at_is_a_violation(self, with_rows):
        objective, oracle = self.pair(with_rows)
        x0 = self.first_centre(objective.dim)

        def at(x, shared):
            at_x = oracle.at(x, shared)
            if np.array_equal(x, x0):
                return lambda r: float(np.nextafter(at_x(r), -np.inf))
            return at_x

        planted = replace(oracle, at=at)
        assert check_lfso_validity(objective, planted, self.SPEC).violations == 1

    @staticmethod
    def regression_pair(with_rows):
        """The suite's ``lp-norm p=3`` pair, built here to know A and b."""
        problem, oracle = make_lp_regression(np.eye(10), np.zeros(10), 3)
        objective = problem.objective()
        if not with_rows:
            objective = replace(objective, eval_rows=None, grad_rows=None)
        return problem, objective, oracle

    @pytest.mark.parametrize("with_rows", [True, False])
    def test_one_ulp_off_fast_bound_is_a_violation(self, with_rows):
        _, objective, oracle = self.regression_pair(with_rows)
        x0 = self.first_centre(objective.dim)

        def fast_bound(x, shared):
            value = objective.fast_bound(x, shared)
            if np.array_equal(x, x0):
                value = float(np.nextafter(value, np.inf))
            return value

        assert check_lfso_validity(objective, oracle, self.SPEC).violations == 0
        planted = replace(objective, fast_bound=fast_bound)
        assert check_lfso_validity(planted, oracle, self.SPEC).violations == 1

    @pytest.mark.parametrize("with_rows", [True, False])
    def test_colliding_key_is_a_violation(self, with_rows):
        # at the first sample the bound reader stores its own value under
        # the key of the residual power the oracle's at reads next, as a
        # reader built with that key would: the bound itself is right, and
        # only the check's one dict per sample, in the loop's order, shows
        # the wrong L(x, R)
        problem, objective, oracle = self.regression_pair(with_rows)
        x0 = self.first_centre(objective.dim)
        key = core.shared_key("residual-inf^4", problem.a, problem.b)

        def fast_bound(x, shared):
            value = objective.fast_bound(x, shared)
            assert key in shared
            if np.array_equal(x, x0):
                shared[key] = (value, value)
            return value

        planted = replace(objective, fast_bound=fast_bound)
        assert check_lfso_validity(planted, oracle, self.SPEC).violations == 1

    def test_report_unchanged_without_fast_forms(self):
        for name in ("norm2-pow p=3", "lp-norm p=3"):
            objective, oracle = self.pair(True, name)
            assert (check_lfso_validity(objective, oracle, self.SPEC).render()
                    == check_lfso_validity(
                        replace(objective, evaluate=None, fast_bound=None),
                        replace(oracle, at=None), self.SPEC).render())


class TestMonotoneCheck:
    def test_draws_match_per_sample_calls(self):
        spec = SampleSpec(num_points=16, seed=9, x_box=(-1.5, 0.5))
        dim = 7
        problem, oracle, calls = recording_pair(
            quadratic(dim), constant_lfso(ConstantLfsoParams(3.0)))
        check_monotone_in_R(oracle, spec, dim)
        rng = np.random.default_rng(spec.seed)
        expected = [rng.uniform(spec.x_box[0], spec.x_box[1], dim)
                    for _ in range(spec.num_points)]
        # one call per sample and grid radius, 12 radii
        assert len(calls) == 12 * spec.num_points
        seen = [call[1] for call in calls[::12]]
        assert [x.tobytes() for x in seen] == [x.tobytes() for x in expected]

    def test_constant_passes(self):
        oracle = constant_lfso(ConstantLfsoParams(3.0))
        report = check_monotone_in_R(oracle, SampleSpec(num_points=10, seed=3),
                                     dim=2)
        assert report.violations == 0

    def test_decreasing_map_fails(self):
        bad = Lfso(eval=lambda x, r: max(1.0, 2.0 - r))
        report = check_monotone_in_R(bad, SampleSpec(num_points=5, seed=3),
                                     dim=1)
        assert report.violations > 0


class TestNonFiniteSamples:
    """A NaN or infinite value fails the sampling checks, on the row and the
    scalar path alike, and no sample is counted twice."""

    @staticmethod
    def oracle(scalar, rows, with_rows):
        return Lfso(eval=scalar, eval_rows=rows if with_rows else None)

    @pytest.mark.parametrize("with_rows", [True, False])
    @pytest.mark.parametrize("value, row_value", [
        (math.nan, math.nan), (math.inf, math.inf), (-math.inf, -math.inf),
        # rows inf where the scalar form gives NaN: the cross-checked
        # samples both differ and are non-finite, and still count once
        (math.nan, math.inf)])
    def test_constant_non_finite_oracle_fails_each_sample_once(
            self, value, row_value, with_rows):
        objective = SUITE_PAIRS["quadratic+constant"][0]
        oracle = self.oracle(lambda x, r: value,
                             lambda xs, radii: np.full(len(xs), row_value),
                             with_rows)
        report = check_lfso_validity(objective, oracle,
                                     SampleSpec(num_points=200, seed=0))
        assert report.violations == 200
        report = check_monotone_in_R(oracle, SampleSpec(num_points=32, seed=0),
                                     objective.dim)
        assert report.violations == 32

    @pytest.mark.parametrize("with_rows", [True, False])
    def test_non_finite_sample_drops_are_not_counted(self, with_rows):
        # max(1, 2 - R) drops at 9 of the 11 grid steps; samples with
        # x[0] > 1 turn inf at R > 1.5 and count once instead
        def scalar(x, r):
            return math.inf if x[0] > 1.0 and r > 1.5 else max(1.0, 2.0 - r)

        def rows(xs, radii):
            return np.where((xs[:, 0] > 1.0) & (radii > 1.5), math.inf,
                            np.maximum(1.0, 2.0 - radii))

        oracle = self.oracle(scalar, rows, with_rows)
        spec = SampleSpec(num_points=40, seed=3)
        xs = np.random.default_rng(spec.seed).uniform(
            spec.x_box[0], spec.x_box[1], (spec.num_points, 2))
        blown = int(np.count_nonzero(xs[:, 0] > 1.0))
        assert 0 < blown < spec.num_points
        report = check_monotone_in_R(oracle, spec, 2)
        assert report.violations == blown + 9 * (spec.num_points - blown)

    def test_non_finite_objective_fails_its_samples(self):
        # f is NaN at every point with x[0] > 1, whether at x or at y
        objective = GradientOracle(
            dim=2, eval=lambda x: math.nan if x[0] > 1.0 else float(x @ x),
            grad=lambda x: 2.0 * x)
        spec = SampleSpec(num_points=300, seed=1)
        xs, _, ys = verify._validity_samples(spec, 2)
        blown = int(np.count_nonzero((xs[:, 0] > 1.0) | (ys[:, 0] > 1.0)))
        assert 0 < blown < spec.num_points
        report = check_lfso_validity(
            objective, constant_lfso(ConstantLfsoParams(2.0)), spec)
        assert report.violations == blown

    def test_overflowing_oracle_fails_its_samples(self):
        # exp(400 R) raises OverflowError for R above about 1.7745, inside
        # the default r_range; below that it is far above the quartic's L
        bad = Lfso(eval=lambda x, r: math.exp(400.0 * float(r)))
        spec = SampleSpec(num_points=50)
        _, radii, _ = verify._validity_samples(spec, 1)
        blown = sum(400.0 * r > math.log(sys.float_info.max) for r in radii)
        assert 0 < blown < spec.num_points
        report = check_lfso_validity(QUARTIC.objective(), bad, spec)
        assert report.violations == blown
        # the top grid radius, 2.0, overflows at every sample
        report = check_monotone_in_R(bad, SampleSpec(num_points=4), 1)
        assert report.violations == 4

    def test_huge_radii_fail_each_sample_without_warning(self):
        # at R up to 1e200 the ball offsets square past float64 in the
        # check's own arithmetic (scalar path) and in the oracle's rows
        spec = SampleSpec(num_points=4, r_range=(0.1, 1e200))
        report = check_lfso_validity(QUARTIC.objective(), QUARTIC.lfso(), spec)
        assert report.violations == 4
        problem, oracle = make_norm_power(3, 2)
        spec = replace(spec, num_points=50)
        report = check_lfso_validity(problem.objective(), oracle, spec)
        assert report.violations == 50
        assert check_monotone_in_R(oracle, spec, 3).violations == 50


def plant_sample_at_centre(monkeypatch, i):
    """Make ball point i of every validity check its own centre, y = x,
    a draw no seed gives."""
    draw = verify._validity_samples

    def planted(spec, d):
        xs, radii, ys = draw(spec, d)
        ys[i] = xs[i]
        return xs, radii, ys
    monkeypatch.setattr(verify, "_validity_samples", planted)


class TestSampleAtCentre:
    """A sample with y = x is evaluated like every other: its remainder and
    bound are both 0, so it passes, unless a value is not finite."""

    def test_passes_on_both_paths(self, monkeypatch):
        objective, oracle = SUITE_PAIRS["norm2-pow p=2"]
        spec = SampleSpec(num_points=200, seed=0)
        clean = check_lfso_validity(objective, oracle, spec)
        plant_sample_at_centre(monkeypatch, 5)
        rows = check_lfso_validity(objective, oracle, spec)
        assert rows.violations == 0
        assert rows.stats["worst_ratio"] <= clean.stats["worst_ratio"]
        assert (check_lfso_validity(*scalar_only(objective, oracle),
                                    spec).render() == rows.render())

    @pytest.mark.parametrize("with_rows", [True, False])
    def test_non_finite_value_counts_once(self, monkeypatch, with_rows):
        # sample 5 is not one the row path also sends through the scalar
        # callables, so only its NaN oracle value can fail it
        plant_sample_at_centre(monkeypatch, 5)
        objective = SUITE_PAIRS["quadratic+constant"][0]
        spec = SampleSpec(num_points=200, seed=0)
        centre = verify._validity_samples(spec, objective.dim)[0][5]
        oracle = Lfso(
            eval=lambda x, r: math.nan if np.array_equal(x, centre) else 2.0,
            eval_rows=(lambda xs, radii: np.where(
                (xs == centre).all(axis=1), math.nan, 2.0))
            if with_rows else None)
        assert check_lfso_validity(objective, oracle, spec).violations == 1


class TestTraceCheck:
    def test_quartic_run_clean_and_inflates_early(self):
        trace = quartic_run()
        report = check_trace(trace, 1.0)
        assert report.violations == 0
        first = trace.records[0]
        assert first.r_tilde_k > first.r_k

    def test_tampered_f_value_flagged(self):
        trace = quartic_run()
        trace.records[3].f_val *= 2.0
        report = check_trace(trace, 1.0)
        assert report.violations >= 1

    def test_tampered_containment_flagged(self):
        trace = quartic_run()
        trace.records[0].r_tilde_k = trace.records[0].step_norm / 2.0
        report = check_trace(trace, 1.0)
        assert report.violations >= 1

    def test_fixed_trace_rejected(self):
        problem = GradientOracle(dim=2, eval=lambda x: float(x @ x),
                                 grad=lambda x: 2.0 * x)
        trace = run_fixed_gd(problem, np.ones(2), 0.1, max_iters=5)
        with pytest.raises(ValueError):
            check_trace(trace, 1.0)

    @staticmethod
    def huge_start_run(max_iters):
        problem, oracle = make_lp_regression(np.eye(10), np.zeros(10), 2)
        config = SolverConfig(
            r_policy=RPolicy.residual_inf_norm(problem.a, problem.b),
            max_iters=max_iters, use_grad_bound=True)
        return run_lfso_gd(oracle, problem.objective(), np.full(10, 1e52),
                           config)

    def test_overflowing_squared_gradient_norm_reported(self):
        # from 1e52 * ones, f = 1e209 and ||g|| = 1.26e157, whose square
        # overflows though the descent gain does not
        trace = self.huge_start_run(3)
        assert trace.records[0].grad_norm == pytest.approx(
            4e156 * math.sqrt(10.0))
        report = check_trace(trace, 1.0)
        assert report.stats["steps"] == 3
        assert report.violations == 0

    def test_subnormal_squared_gradient_norm_keeps_its_gain(self):
        # the same run to gradient-underflow: below ||g|| = 1.5e-154 the
        # square is subnormal or 0, and at k = 2813 (||g|| = 1.6e-162)
        # the gain formed from it was 2.04e-217, not 1.06e-217
        trace = self.huge_start_run(10_000)
        assert trace.num_steps == 4100
        assert trace.termination.value == "gradient-underflow"
        rec = trace.records[2813]
        assert rec.grad_norm ** 2 < np.finfo(np.float64).tiny
        assert check_trace(trace, 1.0).violations == 0

    def test_empty_trace_passes(self):
        problem = GradientOracle(dim=2, eval=lambda x: float(x @ x),
                                 grad=lambda x: 2.0 * x)
        config = SolverConfig(r_policy=RPolicy.constant(1.0),
                              grad_tol=float("inf"))
        trace = run_lfso_gd(constant_lfso(ConstantLfsoParams(2.0)), problem,
                            np.ones(2), config)
        assert check_trace(trace, 1.0).violations == 0


def quartic_raw_step(r):
    """||grad f(1)|| / L(1, R) of the shipped quartic pair, eta = 1."""
    x = np.array([1.0])
    return (euclidean_norm(QUARTIC.objective().grad(x))
            / QUARTIC.lfso().eval(x, r))


class TestQuarticThreshold:
    def test_root_location(self):
        root = check_quartic_threshold().stats["root"]
        assert root == 0.16238477273100216
        assert abs(6.0 * root ** 3 + 6.0 * root - 1.0) <= 1e-11

    def test_report_clean(self):
        report = check_quartic_threshold()
        assert report.violations == 0
        assert 0.162375 <= report.stats["root"] <= 0.162385
        assert report.stats["restored_radii"] == 50
        assert report.stats["tested_radii"] == 50
        root = report.stats["root"]
        assert report.stats["gap_at_root"] == quartic_raw_step(root) - root

    def test_raw_step_sides(self):
        root = check_quartic_threshold().stats["root"]
        raw = quartic_raw_step
        assert raw(0.9 * root) > 0.9 * root
        assert raw(0.99 * root) > 0.99 * root
        assert raw(1.01 * root) < 1.01 * root
        assert raw(1.1 * root) < 1.1 * root
        # frozen spot value: raw step at R = 0.1 overshoots its ball
        assert raw(0.1) == pytest.approx(1.0 / 6.06, rel=1e-15)
        assert raw(0.1) > 0.1
        assert raw(0.5) == pytest.approx(1.0 / 7.5, rel=1e-15)
        assert raw(0.5) < 0.5

    def test_half_strength_oracle_is_flagged(self, monkeypatch):
        shipped = QuarticProblem.lfso

        def halved(self):
            oracle = shipped(self)
            return Lfso(eval=lambda x, r: 0.5 * oracle.eval(x, r))

        monkeypatch.setattr(QuarticProblem, "lfso", halved)
        report = check_quartic_threshold()
        # 3 R^3 + 3 R - 1 = 0: the root moves out of its interval
        assert report.stats["root"] == pytest.approx(0.30497, abs=1e-5)
        assert report.violations >= 1

    def test_uninflated_solver_step_is_flagged(self, monkeypatch):
        # a step rule that moves by eta / L(x, R_k) and records R~_k = R_k
        def uninflated(oracle, bound, config):
            def rule(x, g, grad_norm, g_max):
                r_k = config.r_policy(x)
                l_k = oracle.eval(x, r_k)
                step = (config.eta / l_k) * g
                return step, (r_k, r_k, l_k, euclidean_norm(step))
            return rule

        monkeypatch.setattr(core, "_oracle_step", uninflated)
        report = check_quartic_threshold()
        # below the root the raw step leaves the ball; at the root it does not
        assert report.stats["restored_radii"] == 1
        assert report.violations == 49


class TestCompositionCheck:
    def run_norm_power(self, p, iters=200):
        problem, oracle = make_norm_power(10, p)
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                              max_iters=iters)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config,
                            keep_iterates=True)
        return problem, trace

    def test_p2_inflation_factor_pinned_at_one(self):
        problem, trace = self.run_norm_power(2)
        report = check_composition_run(problem, trace, 1.0)
        assert report.violations == 0
        assert report.stats["max_d"] == pytest.approx(1.0)
        assert report.stats["min_effective_step"] <= 1.0 / problem.l_g

    def test_p1_effective_step_exact(self):
        problem, trace = self.run_norm_power(1)
        report = check_composition_run(problem, trace, 1.0)
        assert report.violations == 0
        assert report.stats["min_effective_step"] == 0.5  # eta / l_g exactly

    def test_d_cap_formula(self):
        problem, trace = self.run_norm_power(2, iters=5)
        report = check_composition_run(problem, trace, 1.0)
        assert report.stats["d_cap"] == 1.0
        # bound arithmetic for a hypothetical eta above l_g
        assert max(1.0, 3.0 / problem.l_g) == 1.5

    def test_trace_without_iterates_raises(self):
        problem, oracle = make_norm_power(10, 2)
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                              max_iters=20)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config)
        with pytest.raises(MissingDiagnosticsError, match="iterates"):
            check_composition_run(problem, trace, 1.0)

    def test_constant_radius_run_raises(self):
        problem, oracle = make_norm_power(10, 2)
        config = SolverConfig(r_policy=RPolicy.constant(1.0), max_iters=20)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config,
                            keep_iterates=True)
        with pytest.raises(MissingDiagnosticsError, match="k=0"):
            check_composition_run(problem, trace, 1.0)

    @pytest.mark.parametrize("p", range(1, 6))
    def test_same_report_without_row_forms(self, p):
        problem, trace = self.run_norm_power(p)
        bare = replace(problem, g=replace(problem.g, eval_rows=None,
                                          grad_rows=None))
        assert (check_composition_run(problem, trace, 1.0).render()
                == check_composition_run(bare, trace, 1.0).render())

    @staticmethod
    def tampered(trace, **scale):
        """A copy of ``trace`` with the named record fields multiplied."""
        records = [replace(rec, **{key: getattr(rec, key) * factor
                                   for key, factor in scale.items()})
                   for rec in trace.records]
        return replace(trace, records=records)

    def test_tampered_radius_inflation_flagged(self):
        problem, trace = self.run_norm_power(2, iters=20)
        assert check_composition_run(problem, trace, 1.0).violations == 0
        report = check_composition_run(
            problem, self.tampered(trace, r_tilde_k=2.0), 1.0)
        assert report.violations == trace.num_steps
        assert report.stats["max_d"] == pytest.approx(2.0)

    def test_tampered_oracle_value_flagged(self):
        # at p = 1 the effective step sits exactly at its cap eta / l_g (at
        # p = 2 it is 1/27 of eta, so halving L_k would not reach the cap)
        problem, trace = self.run_norm_power(1, iters=20)
        assert check_composition_run(problem, trace, 1.0).violations == 0
        report = check_composition_run(
            problem, self.tampered(trace, l_k=0.5), 1.0)
        assert report.violations == trace.num_steps > 0
        assert report.stats["min_effective_step"] == 2.0 / problem.l_g


class TestHolderCheck:
    def test_spot_values(self):
        # t = 2, all equal: equality; cancellation keeps slack; t = 3 case
        assert abs(1.0 + 1.0) ** 2 == 2.0 * (1.0 + 1.0)
        assert abs(1.0 - 1.0) ** 2 <= 2.0 * (1.0 + 1.0)
        assert abs(3.0 + 4.0) ** 3 == 343.0
        assert 2.0 ** 2 * (27.0 + 64.0) == 364.0

    def test_sampled_inequality_clean(self):
        report = check_holder(SampleSpec(num_points=300, seed=4,
                                         x_box=(-3.0, 3.0)),
                              t_values=[1.0, 1.5, 2.0, 3.0, 4.0])
        assert report.violations == 0
        assert report.stats["worst_ratio"] <= 1.0 + 1e-12

    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            check_holder(SampleSpec(num_points=10, seed=0), t_values=[0.5])


class TestRateFitting:
    def test_exact_geometric(self):
        values = [0.5 ** k for k in range(60)]
        fit = fit_linear_rate(values)
        assert fit.slope == pytest.approx(math.log(0.5), rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_indices(self):
        values = [0.9 ** k for k in range(100)]
        fit = fit_linear_rate(values)
        assert fit.window == (50, 99)
        assert fit_linear_rate(values[:99]).window == (49, 98)

    def test_harmonic_poorly_log_linear(self):
        values = [1.0 / (k + 1.0) for k in range(10_000)]
        lin = fit_linear_rate(values)
        power = fit_powerlaw_rate(values)
        # over the tail half, k in [5000, 9999], ln(1/(k + 1)) bends too
        # little to fall far from a line, but the power law is exact
        assert lin.r_squared < 0.995
        assert power.r_squared == pytest.approx(1.0, abs=1e-12)
        assert power.slope == pytest.approx(-1.0, rel=1e-9)

    def test_truncates_at_underflow(self):
        values = [0.5 ** k for k in range(30)] + [0.0, 0.0]
        fit = fit_linear_rate(values)
        assert fit.window == (15, 29)
        assert fit.slope == pytest.approx(math.log(0.5), rel=1e-10)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_linear_rate([1.0, 0.5, 0.25, 0.125])
        with pytest.raises(InsufficientDataError):
            fit_linear_rate([1.0, 0.5, 0.25, 0.125, 0.0, 0.0])
        assert fit_linear_rate([1.0, 0.5, 0.25, 0.125, 0.0625,
                                0.03125]).window == (3, 5)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(1e-6, 1e6))
    def test_scale_invariance(self, scale):
        base = [0.8 ** k * (1.0 + 0.01 * math.sin(k)) for k in range(50)]
        fit_a = fit_linear_rate(base)
        fit_b = fit_linear_rate([scale * v for v in base])
        assert fit_b.slope == pytest.approx(fit_a.slope, rel=1e-9)
        assert fit_b.r_squared == pytest.approx(fit_a.r_squared, rel=1e-9)

    def test_classify(self):
        assert classify_rate([0.5 ** k for k in range(50)]) == "linear"
        harmonic = [1.0 / (k + 1) for k in range(2000)]
        assert classify_rate(harmonic) == "sublinear"
        assert classify_rate([1.0, 0.0]) == "exact"
        # a tail that does not fall fits a line too, with slope >= 0
        assert classify_rate([1.0] * 50) == "indeterminate"
        # too short to fit, and never reaches zero: a stalled run's ratios
        assert classify_rate([1.0, 1.0]) == "indeterminate"
        assert classify_rate([1.0]) == "indeterminate"
        assert classify_rate([1.1 ** k for k in range(50)]) == "indeterminate"

    def test_norm_power_run_slope_matches_recursion(self):
        problem, oracle = make_norm_power(10, 2)
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                              max_iters=1000)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config)
        fit = fit_linear_rate(trace.grad_ratios())
        # gradient scales with ||x||^3, so the decay factor is (26/27)^3
        assert fit.slope == pytest.approx(3.0 * math.log(26.0 / 27.0),
                                          rel=1e-9)
        assert fit.r_squared >= 1.0 - 1e-9


def reference_window(values):
    """The rate fits' window as a per-value loop over a list."""
    usable = []
    for v in values:
        if not v > verify.RATE_FLOOR:
            break
        usable.append(float(v))
    n = len(usable)
    start = n // 2
    return usable[start:], start, n


def reference_fit(values, abscissa):
    window, start, n = reference_window(values)
    if len(window) < 3:
        raise InsufficientDataError(
            f"rate fit needs >= 3 positive values, got {len(window)}")
    xs = abscissa(np.arange(start, n, dtype=np.float64))
    ys = np.log(window)
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return verify.RateFit(slope=float(coef[0]), r_squared=r_squared,
                          window=(start, n - 1))


def reference_linear(values):
    return reference_fit(values, lambda ks: ks)


def reference_powerlaw(values):
    return reference_fit(values, lambda ks: np.log(ks + 1.0))


def reference_classify(values):
    _, _, n = reference_window(values)
    if n <= 2 and n < len(values):
        return "exact"
    try:
        lin = reference_linear(values)
        power = reference_powerlaw(values)
    except InsufficientDataError:
        return "indeterminate"
    if (lin.r_squared >= 0.99 and lin.r_squared >= power.r_squared
            and lin.slope < 0.0):
        return "linear"
    if power.r_squared > lin.r_squared and power.slope < 0.0:
        return "sublinear"
    return "indeterminate"


def outcome(fn, values):
    """What ``fn(values)`` gives, with floats as their bits and an error as
    its type and message."""
    try:
        result = fn(values)
    except InsufficientDataError as exc:
        return type(exc), str(exc)
    if isinstance(result, str):
        return result
    return (np.float64(result.slope).view(np.uint64),
            np.float64(result.r_squared).view(np.uint64), result.window)


# Positive normal values well above the fit's floor, so that windows are
# long, with a few values planted that are subnormal, +-0.0, negative, NaN,
# the smallest normal, or at the floor.
_SPECIAL = st.one_of(
    st.floats(min_value=5e-324, max_value=2.2e-308),
    st.sampled_from([0.0, -0.0, math.nan, verify.RATE_FLOOR,
                     float(np.nextafter(verify.RATE_FLOOR, 1.0)), 2.3e-308]),
    st.floats(max_value=-5e-324, allow_infinity=False))


@st.composite
def rate_sequences(draw):
    size = draw(st.integers(0, 300))
    values = draw(st.lists(st.floats(min_value=1e-200, max_value=1e200),
                           min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 3)) if values else 0):
        values[draw(st.integers(0, len(values) - 1))] = draw(_SPECIAL)
    return values


class TestRateFitsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(values=rate_sequences())
    def test_fits_and_label_bit_for_bit(self, values):
        want = [outcome(fn, values) for fn in
                (reference_linear, reference_powerlaw, reference_classify)]
        for given_values in (values, tuple(values),
                             [np.float64(v) for v in values]):
            got = [outcome(fn, given_values) for fn in
                   (fit_linear_rate, fit_powerlaw_rate, classify_rate)]
            assert got == want


class TestRateFitWork:
    @staticmethod
    def counted(monkeypatch, owner, name, calls):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    def test_summary_line_scans_twice_and_fits_three_lines(self,
                                                           monkeypatch):
        problem, oracle = make_norm_power(10, 2)
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                              max_iters=200)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config)
        calls = {"_window": 0, "lstsq": 0}
        self.counted(monkeypatch, verify, "_window", calls)
        self.counted(monkeypatch, np.linalg, "lstsq", calls)
        line = summarize_trace(trace, "t")
        assert "rate=linear slope=" in line
        assert calls == {"_window": 2, "lstsq": 3}


class TestInfiniteRatios:
    @staticmethod
    def inf_ratio_trace():
        # f = ||x||^2 with eta = 1.5 steps x to -2x, so ||grad f|| doubles
        # from about 6e-300 and its ratio to the first overflows at k = 1024
        # while both norms stay finite
        problem, _ = make_norm_power(10, 1)
        return run_fixed_gd(problem.objective(), np.full(10, 1e-300), 1.5,
                            max_iters=1500)

    def test_fit_ends_before_the_first_inf(self):
        trace = self.inf_ratio_trace()
        ratios = trace.grad_ratios()
        cut = ratios.index(math.inf)
        assert all(math.isfinite(g) for g in trace.grad_norms())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_linear_rate(ratios)
            label = classify_rate(ratios)
        assert fit.window == (cut // 2, cut - 1)
        assert fit.slope == pytest.approx(math.log(2.0), rel=1e-9)
        assert math.isfinite(fit.r_squared)
        assert label == "indeterminate"

    def test_summary_line_has_no_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = summarize_trace(self.inf_ratio_trace(), "t")
        assert "nan" not in line
        assert "final_grad_ratio=inf rate=indeterminate" in line

    def test_overflow_is_not_an_exact_stop(self):
        # the cut at inf within two values is a blow-up, not a value that died
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify_rate([1.0, math.inf]
                                 + [0.5 ** k for k in range(10)]) \
                == "indeterminate"
            assert classify_rate([1.0, -math.inf]) == "exact"


class TestRegressionQlinear:
    @staticmethod
    def run(a, b, x0, p=2, iters=200, grad_tol=0.0):
        problem, oracle = make_lp_regression(a, b, p)
        config = SolverConfig(
            r_policy=RPolicy.residual_inf_norm(problem.a, problem.b),
            max_iters=iters, grad_tol=grad_tol, use_grad_bound=True)
        trace = run_lfso_gd(oracle, problem.objective(), x0, config,
                            keep_iterates=True)
        return problem, trace

    def lp_trace(self, p, d=10, iters=200):
        return self.run(np.eye(d), np.zeros(d), np.ones(d), p, iters)

    def wide_trace(self, n=6, d=2000):
        """A wide A with orthonormal rows scaled into [1, 1.01], so
        cond(A)^4 < n/(n-1), and a 200-step run from 0."""
        rng = np.random.default_rng(20231108)
        q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        a = np.linspace(1.0, 1.01, n)[:, None] * q.T
        return self.run(np.ascontiguousarray(a), rng.standard_normal(n),
                        np.zeros(d))

    @staticmethod
    def block_width(trace):
        return verify._QLINEAR_BLOCK_BYTES // (8 * len(trace.iterates))

    @staticmethod
    def direct_norms(problem, trace):
        return [float(np.linalg.norm(problem.a @ x - problem.b))
                for x in trace.iterates]

    def test_identity_norms_bit_equal(self):
        rng = np.random.default_rng(5)
        problem, trace = self.run(np.eye(10), rng.standard_normal(10),
                                  rng.standard_normal(10))
        assert len(trace.iterates) == 201
        norms = _residual_norms(problem.a, problem.b, trace.iterates)
        assert norms == self.direct_norms(problem, trace)

    def test_wide_matrix_over_several_blocks(self):
        problem, trace = self.wide_trace()
        width = self.block_width(trace)
        assert problem.theory_ok
        assert problem.d > 2 * width and problem.d % width != 0
        norms = _residual_norms(problem.a, problem.b, trace.iterates)
        # against correctly rounded residuals, to 1e-12 of the size of the
        # terms summed: near the solution A x_k - b cancels, and there the
        # per-iterate A @ x_k - b is itself off by 2e-9 relative
        b_norm = float(np.linalg.norm(problem.b))
        for x, got in zip(trace.iterates, norms):
            exact = [math.fsum([*(row * x), -b_i])
                     for row, b_i in zip(problem.a, problem.b)]
            want = math.sqrt(math.fsum(v * v for v in exact))
            scale = problem.spec_norm * float(np.linalg.norm(x)) + b_norm
            assert abs(got - want) <= 1e-12 * scale
        report = check_regression_qlinear(problem, trace)
        assert report.violations == 0
        assert report.stats["steps"] == 200
        assert report.stats["final_residual"] == norms[-1]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="needs BINARY_OP and instruction positions")
    def test_one_product_per_column_block(self):
        problem, trace = self.wide_trace()
        _, counts = count_products(
            lambda: check_regression_qlinear(problem, trace))
        blocks = math.ceil(problem.d / self.block_width(trace))
        assert blocks < len(trace.iterates)
        assert counts == {"forward": blocks}

    def test_tampered_iterate_flagged(self):
        problem, trace = self.lp_trace(2)
        trace.iterates[5] = 2.0 * trace.iterates[5]
        report = check_regression_qlinear(problem, trace)
        assert report.violations == 1
        assert report.stats["rho"] == pytest.approx(2.0 * 11.0 / 12.0)

    def test_single_iterate(self):
        problem, trace = self.run(np.eye(4), np.zeros(4), np.ones(4),
                                  grad_tol=float("inf"))
        assert len(trace.iterates) == 1
        report = check_regression_qlinear(problem, trace)
        assert report.violations == 0
        assert report.stats == {"steps": 0, "rho": 0.0,
                                "initial_residual": 2.0,
                                "final_residual": 2.0}

    def test_identity_p2_ratio(self):
        problem, trace = self.lp_trace(2)
        report = check_regression_qlinear(problem, trace)
        assert report.violations == 0
        assert abs(report.stats["rho"] - 11.0 / 12.0) <= 1e-12

    def test_p1_annihilates(self):
        problem, trace = self.lp_trace(1)
        report = check_regression_qlinear(problem, trace)
        assert report.stats["rho"] == 0.0

    def test_near_identity_diagonal_contracts(self):
        d = 8
        a = np.diag(np.linspace(1.0, 1.01, d))
        assert (1.01 ** 4) < d / (d - 1)
        x_star = np.arange(1.0, d + 1.0)
        b = a @ x_star
        problem, oracle = make_lp_regression(a, b, 2)
        config = SolverConfig(r_policy=RPolicy.residual_inf_norm(a, b),
                              max_iters=100, use_grad_bound=True)
        trace = run_lfso_gd(oracle, problem.objective(), np.zeros(d), config,
                            keep_iterates=True)
        report = check_regression_qlinear(problem, trace)
        assert report.violations == 0
        assert report.stats["rho"] < 1.0

    def test_assumption_unmet_raises(self):
        a = np.diag([3.0, 1.0, 1.0, 1.0])
        problem, oracle = make_lp_regression(a, np.zeros(4), 2)
        config = SolverConfig(r_policy=RPolicy.residual_inf_norm(a, problem.b),
                              max_iters=10, use_grad_bound=True)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(4), config,
                            keep_iterates=True)
        with pytest.raises(AssumptionUnmetError):
            check_regression_qlinear(problem, trace)

    def test_missing_iterates_raises(self):
        problem, oracle = make_lp_regression(np.eye(4), np.zeros(4), 2)
        config = SolverConfig(
            r_policy=RPolicy.residual_inf_norm(problem.a, problem.b),
            max_iters=10, use_grad_bound=True)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(4), config)
        with pytest.raises(MissingDiagnosticsError):
            check_regression_qlinear(problem, trace)


class TestSampleSpec:
    def test_validation(self):
        for n in (0, 2.5, math.inf, math.nan, np.float64(1.5)):
            with pytest.raises(ValueError, match=re.escape(
                    f"num_points must be a whole number >= 1, got {n}")):
                SampleSpec(num_points=n)
        quartic = QuarticProblem()
        for n in (3.0, np.float64(3.0)):
            spec = SampleSpec(num_points=n)
            assert spec.num_points == 3 and type(spec.num_points) is int
            report = check_lfso_validity(quartic.objective(), quartic.lfso(),
                                         spec)
            assert report.stats["samples"] == 3
        with pytest.raises(ValueError):
            SampleSpec(x_box=(1.0, -1.0))
        with pytest.raises(ValueError):
            SampleSpec(r_range=(0.0, 1.0))

    @pytest.mark.parametrize("field", ["x_box", "r_range"])
    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_endpoint_rejected(self, field, end, value):
        bounds = list(getattr(SampleSpec(), field))
        bounds[end] = value
        with pytest.raises(ValueError, match=f"{field} endpoints must be finite"):
            SampleSpec(**{field: tuple(bounds)})

    @pytest.mark.parametrize("field", ["x_box", "r_range"])
    def test_nan_endpoint_names_field(self, field):
        with pytest.raises(ValueError, match=field):
            SampleSpec(**{field: (math.nan, 1.0)})
