import contextlib
import dis
import functools
import gc
import linecache
import math
import os
import re
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import lfso
import lfso.problems as problems_module
from lfso.core import (GradientOracle, Lfso, RPolicy, SolverConfig,
                       euclidean_norm, inner_grad_norm, inner_grad_norm_reader,
                       residual, residual_inf, residual_inf_reader, row_dots,
                       run_lfso_gd)
from lfso.errors import (NegativeCurvatureError, NonFiniteValueError,
                         ShapeMismatchError, ZeroOracleError)
from lfso.oracles import (ConstantLfsoParams, composition_lfso, constant_lfso,
                          ipow)
from lfso.problems import (CompositionProblem, QuarticProblem, condition_number,
                           load_regression_data, make_lp_regression,
                           make_norm_power, regression_constants,
                           spectral_norm)
from lfso.verify import SampleSpec, _validity_samples


def central_diff_grad(f, x, h=6e-6):
    """Independent gradient reference by central differences."""
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


class TestNormPower:
    def test_p2_values_at_ones(self):
        problem, _ = make_norm_power(10, 2)
        objective = problem.objective()
        x = np.ones(10)
        assert objective.eval(x) == 100.0
        assert np.array_equal(objective.grad(x), 40.0 * np.ones(10))
        assert euclidean_norm(objective.grad(x)) == pytest.approx(
            40.0 * math.sqrt(10.0), rel=1e-15)

    def test_structure_constants(self):
        problem, _ = make_norm_power(3, 4)
        assert problem.l_g == 2.0
        assert problem.mu_g == 2.0

    def test_sandwich_saturates_for_norm_squared(self):
        # ||grad g||^2 = 4 ||x||^2 = 2 * 2 * g exactly, both sides tight
        problem, _ = make_norm_power(6, 3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.uniform(-3, 3, 6)
            g_val = problem.g.eval(x)
            grad_sq = float(problem.g.grad(x) @ problem.g.grad(x))
            assert grad_sq == pytest.approx(2.0 * problem.mu_g * g_val, rel=1e-12)
            assert grad_sq == pytest.approx(2.0 * problem.l_g * g_val, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for p in range(1, 6):
            problem, _ = make_norm_power(5, p)
            objective = problem.objective()
            x = rng.uniform(0.5, 1.5, 5)
            fd = central_diff_grad(objective.eval, x)
            g = objective.grad(x)
            assert euclidean_norm(fd - g) <= 1e-6 * euclidean_norm(g)

    def test_outer_function_triple_well_behaved(self):
        # h' > 0 off zero, h'' >= 0, and h'' non-decreasing on a grid
        grid = np.linspace(0.0, 5.0, 41)
        for p in range(1, 6):
            problem, _ = make_norm_power(3, p)
            h_p = [problem.h_prime(t) for t in grid]
            h_pp = [problem.h_double_prime(t) for t in grid]
            assert all(v > 0 for v in h_p[1:])
            assert all(v >= 0 for v in h_pp)
            assert all(a <= b + 1e-14 for a, b in zip(h_pp, h_pp[1:]))

    def test_bad_arguments(self):
        # truncating a non-integer would build another problem: p = 2.5
        # as p = 2
        for d, p in [(0, 1), (3, 0), (3, 2.5), (3.9, 2), (3, math.inf),
                     (math.inf, 2), (3, math.nan), (math.nan, 2)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"need integers d >= 1 and p >= 1, got d={d}, p={p}")):
                make_norm_power(d, p)

    @pytest.mark.parametrize("d, p, name", [(10**400, 2, "d"),
                                            (3, 10**400, "p")],
                             ids=["d", "p"])
    def test_int_beyond_float_range_rejected(self, d, p, name):
        # float() of such an int overflows; the builder says why instead
        with pytest.raises(ValueError, match=f"^{name} is out of range: "):
            make_norm_power(d, p)

    def test_integral_arguments_of_other_types_accepted(self):
        problem, _ = make_norm_power(np.int64(3), 2.0)
        assert problem.g.dim == 3
        assert problem.h(2.0) == 4.0

    def test_p1_second_derivative_is_positive_zero(self):
        problem, _ = make_norm_power(3, 1)
        for t in (0.0, 1.0, math.inf, math.nan):
            value = problem.h_double_prime(t)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestLpRegression:
    def test_identity_values_at_ones(self):
        problem, _ = make_lp_regression(np.eye(10), np.zeros(10), 2)
        objective = problem.objective()
        x = np.ones(10)
        assert objective.eval(x) == 10.0
        assert np.array_equal(objective.grad(x), 4.0 * np.ones(10))
        norm = euclidean_norm(objective.grad(x))
        bound = objective.grad_norm_bound(x)
        assert bound == pytest.approx(4.0 * math.sqrt(10.0), rel=1e-12)
        assert bound >= norm * (1.0 - 1e-12)

    @pytest.mark.parametrize("p", [2.7, math.inf, math.nan])
    def test_non_integer_p_rejected(self, p):
        with pytest.raises(ValueError, match=re.escape(
                f"p must be an integer >= 1, got {p}")):
            make_lp_regression(np.eye(3), np.zeros(3), p)

    def test_p1_is_least_squares(self):
        problem, _ = make_lp_regression(np.eye(4), np.zeros(4), 1)
        objective = problem.objective()
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert objective.eval(x) == pytest.approx(float(x @ x))
        assert np.allclose(objective.grad(x), 2.0 * x)

    def test_max_row_norm_matches_rows(self):
        a = np.random.default_rng(5).normal(size=(7, 13))
        problem, _ = make_lp_regression(a, np.zeros(7), 2)
        expected = max(math.sqrt(math.fsum(v * v for v in row)) for row in a)
        assert problem.max_row_norm == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("entry, shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "inf"),
        (1e200, "inf")])
    def test_non_finite_row_norm_rejected_before_gram(self, monkeypatch,
                                                      entry, shown):
        # 1e200 is finite, but its square overflows the row norm
        def no_gram(a):
            raise AssertionError("Gram matrix formed")
        monkeypatch.setattr(problems_module, "_spectral_constants", no_gram)
        a = np.eye(4)
        a[2, 1] = entry
        with pytest.raises(NonFiniteValueError,
                           match=f"matrix A has max row norm {shown}"):
            make_lp_regression(a, np.zeros(4), 2)

    def test_overflowing_gram_rejected(self):
        # every row norm is 1e154, but A^T A = [4e308] overflows
        with pytest.raises(NonFiniteValueError,
                           match="Gram matrix entry that is not finite"):
            make_lp_regression(np.full((4, 1), 1e154), np.ones(4), 2)

    def test_overflowing_coef_rejected(self):
        # 2p(2p-1) 2^{2p-3} is finite up to p = 503; from p = 514 on the
        # power of two alone overflows
        problem, _ = make_lp_regression(np.eye(2), np.zeros(2), 503)
        assert math.isfinite(problem.coef)
        for p in (504, 514, 10**300):
            with pytest.raises(NonFiniteValueError,
                               match=f"^p = {p} is too large for this A"):
                make_lp_regression(np.eye(2), np.zeros(2), p)

    def test_p_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="^p is out of range: "):
            make_lp_regression(np.eye(2), np.zeros(2), 10**400)

    def test_all_nan_matrix_rejected(self):
        with pytest.raises(NonFiniteValueError,
                           match="matrix A has max row norm nan"):
            make_lp_regression(np.full((3, 5), math.nan), np.zeros(3), 1)

    def test_bound_dominates_gradient_norm(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=5)
        for p in (1, 2, 3):
            problem, _ = make_lp_regression(a, b, p)
            objective = problem.objective()
            for _ in range(20):
                x = rng.uniform(-2, 2, 8)
                assert objective.grad_norm_bound(x) >= \
                    euclidean_norm(objective.grad(x)) * (1.0 - 1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        for p in range(1, 6):
            problem, _ = make_lp_regression(a, b, p)
            objective = problem.objective()
            x = rng.uniform(-1, 1, 6)
            fd = central_diff_grad(objective.eval, x)
            g = objective.grad(x)
            assert euclidean_norm(fd - g) <= 1e-6 * max(euclidean_norm(g), 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            make_lp_regression(np.eye(3), np.zeros(4), 1)
        with pytest.raises(ShapeMismatchError):
            make_lp_regression(np.ones(3), np.zeros(3), 1)

    def test_identity_meets_conditioning_requirement(self):
        problem, _ = make_lp_regression(np.eye(10), np.zeros(10), 2)
        assert problem.cond == pytest.approx(1.0, rel=1e-9)
        assert problem.theory_ok

    def test_bad_conditioning_fails_theory_ok(self):
        a = np.diag([3.0, 1.0, 1.0, 1.0])  # cond^4 = 81 >= 4/3
        problem, _ = make_lp_regression(a, np.zeros(4), 2)
        assert not problem.theory_ok


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)

    def test_matches_svd_on_random_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 8))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_condition_number_matches_svd(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 9))
        svals = np.linalg.svd(a, compute_uv=False)
        assert condition_number(a) == pytest.approx(svals[0] / svals[-1],
                                                    rel=1e-8)

    def test_condition_number_singular(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert condition_number(a) == float("inf")

    def test_clustered_spectrum_within_svd_rounding(self):
        # Singular values spread evenly over [1, 1.001]: power iteration
        # converges slowly on such a spectrum and stops short of sigma_max.
        n, d = 40, 400
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((d, n)))
        a = (1.0 + 1e-3 * np.linspace(0.0, 1.0, n))[:, None] * q.T
        svals = np.linalg.svd(a, compute_uv=False)
        slack = max(n, d) * np.finfo(np.float64).eps * svals[0]
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm_a = spectral_norm(a)
            cond = condition_number(a)
        assert abs(norm_a - svals[0]) <= slack
        ref = svals[0] / svals[-1]
        assert cond >= ref - ref * (slack / svals[0] + slack / svals[-1])

    def test_transpose_has_same_norm(self):
        a = np.random.default_rng(9).normal(size=(6, 11))
        assert spectral_norm(a.T) == spectral_norm(a)

    def test_tall_rank_deficient_is_singular(self):
        a = np.random.default_rng(10).normal(size=(12, 4))
        a[:, 3] = a[:, 1]
        assert condition_number(a) == float("inf")


class TestRegressionConstants:
    def test_identity_p2(self):
        problem, _ = make_lp_regression(np.eye(10), np.zeros(10), 2)
        c1, c2 = regression_constants(problem, 1.0)
        assert c1 == 1.0  # sqrt(10)/12 < 1
        assert c2 == pytest.approx(12.0, rel=1e-12)

    def test_p1_convention(self):
        # the p = 1 oracle is 2 ||A||_2^2 and the bound 2 ||A||_2 sqrt(n),
        # so c1 = max(1, eta sqrt(n) / (2 ||A||_2)) and c2 = ||A||_2^2
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 5))
        problem, _ = make_lp_regression(a, np.zeros(3), 1)
        c1, c2 = regression_constants(problem, 0.5)
        expected = max(1.0, 0.5 * math.sqrt(3.0) / (2.0 * problem.spec_norm))
        assert c1 == pytest.approx(expected, rel=1e-15)
        assert c2 == problem.spec_norm ** 2
        identity, _ = make_lp_regression(np.eye(10), np.zeros(10), 1)
        c1, c2 = regression_constants(identity, 1.0)
        assert c1 == pytest.approx(math.sqrt(10.0), rel=1e-15)
        assert c2 == 1.0

    def test_c1_inflates_for_small_matrices(self):
        problem, _ = make_lp_regression(0.1 * np.eye(10), np.zeros(10), 2)
        c1, _ = regression_constants(problem, 1.0)
        # eta sqrt(n) / (3 * 0.1 * 2 * 1.01) > 1
        assert c1 > 1.0

    def test_closed_form_matches_oracle_at_inflated_radius(self):
        problem, oracle = make_lp_regression(np.eye(10), np.zeros(10), 2)
        c1, c2 = regression_constants(problem, 1.0)
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(-2, 2, 10)
            res_inf = float(np.max(np.abs(residual(problem.a, problem.b, x))))
            closed = 2 * problem.p * c2 * res_inf ** 2
            assert oracle.eval(x, c1 * res_inf) == pytest.approx(closed, rel=1e-12)


class ZeroResidualError(ValueError):
    """Residual-space step requested at an exact solution."""


def residual_iterate(problem, r, eta):
    """One step of the residual-space form of the regression iteration,

        r_next = r - eta / (c2 ||r||_inf^{2p-2}) * A A^T r^{2p-1},

    the reference that mapping the solver's x-space step through
    x -> Ax - b must agree with."""
    res_inf = float(np.max(np.abs(r)))
    if res_inf == 0.0:
        raise ZeroResidualError("residual is zero; already optimal")
    p = int(problem.p)
    _, c2 = regression_constants(problem, eta)
    scale = float(eta) / (c2 * ipow(res_inf, 2 * p - 2))
    return r - scale * (problem.a @ (problem.a.T @ ipow(r, 2 * p - 1)))


class TestResidualIterate:
    def test_identity_ones(self):
        problem, _ = make_lp_regression(np.eye(10), np.zeros(10), 2)
        r_next = residual_iterate(problem, np.ones(10), 1.0)
        assert np.allclose(r_next, (11.0 / 12.0) * np.ones(10), rtol=1e-15)

    def test_p1_linear_contraction(self):
        problem, _ = make_lp_regression(np.eye(6), np.zeros(6), 1)
        rng = np.random.default_rng(9)
        r = rng.normal(size=6)
        for eta in (0.3, 1.0):
            assert np.allclose(residual_iterate(problem, r, eta),
                               (1.0 - eta) * r, rtol=1e-12)

    def test_single_nonzero_entry(self):
        problem, _ = make_lp_regression(np.eye(10), np.zeros(10), 2)
        r = np.zeros(10)
        r[3] = 2.5
        r_next = residual_iterate(problem, r, 1.0)
        assert r_next[3] == pytest.approx(2.5 * 11.0 / 12.0, rel=1e-15)
        assert np.all(r_next[np.arange(10) != 3] == 0.0)

    def test_zero_residual_rejected(self):
        problem, _ = make_lp_regression(np.eye(4), np.zeros(4), 2)
        with pytest.raises(ZeroResidualError):
            residual_iterate(problem, np.zeros(4), 1.0)

    def test_commutes_with_x_space_step(self):
        # map the solver iterates through x -> Ax - b and compare, for
        # ||A||_2 near 1 (c1 = 1) and near 0.2 (c1 > 1)
        rng = np.random.default_rng(10)
        u, _, vt = np.linalg.svd(rng.normal(size=(6, 9)), full_matrices=False)
        x_star = rng.normal(size=9)
        for scale, inflated in ((1.0, False), (0.2, True)):
            a = scale * (u @ np.diag(np.linspace(0.99, 1.01, 6)) @ vt)
            b = a @ x_star
            problem, oracle = make_lp_regression(a, b, 2)
            assert problem.theory_ok
            assert (regression_constants(problem, 1.0)[0] > 1.0) == inflated
            config = SolverConfig(r_policy=RPolicy.residual_inf_norm(a, b),
                                  max_iters=20, use_grad_bound=True)
            trace = run_lfso_gd(oracle, problem.objective(), np.zeros(9),
                                config, keep_iterates=True)
            r = residual(problem.a, problem.b, np.zeros(9))
            for x in trace.iterates[1:]:
                r = residual_iterate(problem, r, 1.0)
                direct = residual(problem.a, problem.b, x)
                assert euclidean_norm(direct - r) <= 1e-10 * euclidean_norm(r)


def _semi_orthogonal(n, d, seed):
    """An n x d matrix with orthonormal rows."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, n)))
    return q.T


CLOSED_FORM_MATRICES = {
    "0.1*I_100": lambda: 0.1 * np.eye(100),
    "0.3*I_50": lambda: 0.3 * np.eye(50),
    "0.2*Q_6x9": lambda: 0.2 * _semi_orthogonal(6, 9, seed=11),
    "I_10": lambda: np.eye(10),
}


class TestClosedFormSolverStep:
    """One solver step with the gradient-norm bound is the closed form:
    R~_0 = c1 ||r_0||_inf, L_0 = 2p c2 ||r_0||_inf^{2p-2}, and
    ``residual_iterate(r_0)`` is A x_1 - b, for any A."""

    @pytest.mark.parametrize("label", list(CLOSED_FORM_MATRICES))
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_first_step(self, label, p):
        a = CLOSED_FORM_MATRICES[label]()
        n, d = a.shape
        # ||b||_inf = 2 exactly, a power of two, so R~_0 / ||r_0||_inf is
        # the quotient that c1 rounds
        b = np.random.default_rng(p).uniform(-2.0, 2.0, n)
        b[n // 2] = -2.0
        problem, oracle = make_lp_regression(a, b, p)
        c1, c2 = regression_constants(problem, 1.0)
        if p == 2:
            # every matrix but I_10 inflates the radius
            assert (c1 > 1.0) == (label != "I_10")
        config = SolverConfig(r_policy=RPolicy.residual_inf_norm(a, b),
                              eta=1.0, max_iters=1, use_grad_bound=True)
        trace = run_lfso_gd(oracle, problem.objective(), np.zeros(d), config,
                            keep_iterates=True)
        record = trace.records[0]
        res_inf = record.r_k
        assert res_inf == 2.0
        assert record.r_tilde_k / res_inf == c1
        assert record.l_k == pytest.approx(
            2 * p * c2 * res_inf ** (2 * p - 2), rel=1e-12)
        # at p = 1 an orthogonal-rows A is solved in one step, so compare
        # on the scale of r_0
        r_1 = residual_iterate(problem, -b, 1.0)
        direct = a @ trace.iterates[1] - b
        assert euclidean_norm(direct - r_1) <= 1e-12 * euclidean_norm(b)


class TestQuarticProblem:
    def test_objective_values(self):
        objective = QuarticProblem().objective()
        assert objective.eval(np.array([2.0])) == 16.0
        assert objective.grad(np.array([2.0]))[0] == 32.0

    def test_oracle_values(self):
        oracle = QuarticProblem().lfso()
        assert oracle.eval(np.array([1.0]), 0.1) == pytest.approx(24.24)
        assert oracle.eval(np.array([0.0]), 0.0) == 0.0

    def test_is_the_lp_family_at_one_by_one_identity(self):
        # x^4 = ||A x - b||_4^4 at A = [[1]], b = 0, p = 2, whose oracle
        # coef * (|x|^2 + row_pow * R^2) has coef = 24 and row_pow = 1.
        # f and grad f take the same float operations.  L takes five
        # roundings on the quartic side (x**2, r**2, two products by 24,
        # the sum) and four on the lp side (the two squares, the sum, the
        # product by coef), each of nonnegative terms, so both lie within
        # gamma_5 and gamma_4 of the exact 24 (x^2 + R^2), and
        # gamma_5 + gamma_4 <= gamma_9 (Higham's gamma_n = n u / (1 - n u)).
        quartic = QuarticProblem()
        lp, lp_oracle = make_lp_regression(np.eye(1), np.zeros(1), 2)
        assert (lp.coef, lp.row_pow) == (24.0, 1.0)
        q_obj, lp_obj = quartic.objective(), lp.objective()
        q_oracle = quartic.lfso()
        u = float(np.finfo(np.float64).eps) / 2.0

        def gamma(n):
            return n * u / (1.0 - n * u)

        for t in np.linspace(-3.0, 3.0, 61).tolist():
            x = np.array([t])
            assert bits(q_obj.eval(x)) == bits(lp_obj.eval(x))
            assert q_obj.grad(x).tobytes() == lp_obj.grad(x).tobytes()
            for r in np.geomspace(1e-3, 3.0, 31).tolist():
                q_val, lp_val = q_oracle.eval(x, r), lp_oracle.eval(x, r)
                # the exact value is at most q_val / (1 - gamma_5)
                assert (abs(q_val - lp_val)
                        <= gamma(9) / (1.0 - gamma(5)) * q_val)


def squared_norm(d, rows=True):
    """g(x) = ||x||^2, with its row forms unless ``rows`` is false."""
    return GradientOracle(
        dim=d, eval=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
        eval_rows=(lambda xs: row_dots(xs, xs)) if rows else None,
        grad_rows=(lambda xs: 2.0 * xs) if rows else None)


def regression_operands():
    """{label: (A, b)} of the regression row-form families: I, and a
    general A with more rows than the 128-entry block of numpy's pairwise
    sum."""
    rng = np.random.default_rng(2311)
    return {"lp-norm": (np.eye(10), np.zeros(10)),
            "lp-regression 150x10": (rng.standard_normal((150, 10)),
                                     rng.standard_normal(150))}


REGRESSION_OPERANDS = regression_operands()


def row_form_families():
    """{label: (objective, oracle, scale, policy)} for every family that
    supplies row forms.  ``scale`` is the largest factor by which the
    sampled rows can be blown up before a value overflows; ``policy`` is
    the family's own radius policy, built on the same operands."""
    quadratic, _ = make_norm_power(10, 1)
    families = {
        "quadratic+constant": (quadratic.objective(),
                               constant_lfso(ConstantLfsoParams(2.0)), 1e141,
                               RPolicy.grad_g_norm(quadratic.g.grad)),
    }
    # a user's scalar h, called on each entry by the row forms
    exp_problem = CompositionProblem(g=squared_norm(3), l_g=2.0, mu_g=2.0,
                                     h=math.exp, h_prime=math.exp,
                                     h_double_prime=math.exp)
    families["user exp composition"] = (
        exp_problem.objective(), composition_lfso(exp_problem), 1.0,
        RPolicy.grad_g_norm(exp_problem.g.grad))
    for p in range(1, 6):
        scale = 1e141 if p == 1 else 1.0
        problem, oracle = make_norm_power(10, p)
        families[f"norm2-pow p={p}"] = (problem.objective(), oracle, scale,
                                        RPolicy.grad_g_norm(problem.g.grad))
        for label, (a, b) in REGRESSION_OPERANDS.items():
            problem, oracle = make_lp_regression(a, b, p)
            families[f"{label} p={p}"] = (
                problem.objective(), oracle, scale,
                RPolicy.residual_inf_norm(problem.a, problem.b))
    return families


ROW_FORM_FAMILIES = row_form_families()


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


class TestRowForms:
    """Each row form equals its scalar callable bit for bit: f(x), grad f(x),
    L(x, R) and f(y) on the validity check's full sample draws."""

    @staticmethod
    def samples(dim, scale):
        """(seed, xs, radii, ys) of the validity check's draws for each
        seed, with 50 rows also scaled below the plain range of
        euclidean_norm, and above it where the values stay finite."""
        for seed in (0, 7, 42, 99, 123456):
            xs, radii, ys = _validity_samples(
                SampleSpec(num_points=1000, seed=seed), dim)
            radii = np.array(radii)
            factors = (1e-150, scale) if scale > 1.0 else (1e-150,)
            xs = np.vstack([xs] + [f * xs[:50] for f in factors])
            ys = np.vstack([ys] + [f * ys[:50] for f in factors])
            radii = np.concatenate([radii] + [f * radii[:50] for f in factors])
            yield seed, xs, radii, ys

    @pytest.mark.parametrize("label", sorted(ROW_FORM_FAMILIES))
    def test_rows_equal_scalar_calls(self, label):
        objective, oracle, scale, _ = ROW_FORM_FAMILIES[label]
        for seed, xs, radii, ys in self.samples(objective.dim, scale):
            grads = objective.grad_rows(xs)
            fx = objective.eval_rows(xs)
            lvals = oracle.eval_rows(xs, radii)
            fy = objective.eval_rows(ys)
            for i, (x, y, r) in enumerate(zip(xs, ys, radii.tolist())):
                assert bits(grads[i]) == bits(objective.grad(x)), (seed, i)
                assert bits(fx[i]) == bits(objective.eval(x)), (seed, i)
                assert bits(lvals[i]) == bits(oracle.eval(x, r)), (seed, i)
                assert bits(fy[i]) == bits(objective.eval(y)), (seed, i)

    @pytest.mark.parametrize("label", sorted(ROW_FORM_FAMILIES))
    def test_fast_forms_equal_scalar_calls(self, label):
        # evaluate(x, shared) is (f(x), grad f(x)), the policy's fast(x,
        # shared) is its fn(x), fast_bound(x, shared) is grad_norm_bound(x)
        # and at(x, shared)(R) is L(x, R), bit for bit, where the pair has
        # them: called in the solver loop's order on one dict, and each on
        # a dict of its own
        objective, oracle, scale, policy = ROW_FORM_FAMILIES[label]
        assert objective.evaluate is not None or label == "quadratic+constant"
        assert policy.fast is not None
        regression = label.startswith("lp-")
        assert (objective.fast_bound is not None) == regression
        for seed, xs, radii, _ in self.samples(objective.dim, scale):
            for i, (x, r) in enumerate(zip(xs, radii.tolist())):
                f, g = objective.eval(x), objective.grad(x)
                radius = policy(x)
                bound = objective.grad_norm_bound(x) if regression else None
                value = oracle.eval(x, r)
                shared = {}
                # one dict for all readers, then a new dict for each
                for dict_for in (lambda: shared, dict):
                    if objective.evaluate is not None:
                        got_f, got_g = objective.evaluate(x, dict_for())
                        assert bits(got_f) == bits(f), (seed, i)
                        assert bits(got_g) == bits(g), (seed, i)
                    assert (bits(policy.fast(x, dict_for()))
                            == bits(radius)), (seed, i)
                    if regression:
                        assert (bits(objective.fast_bound(x, dict_for()))
                                == bits(bound)), (seed, i)
                    if oracle.at is not None:
                        assert (bits(oracle.at(x, dict_for())(r))
                                == bits(value)), (seed, i)

    @pytest.mark.parametrize("label", sorted(REGRESSION_OPERANDS))
    def test_dot_products_equal_matmul_and_rows(self, label):
        # the solver's a.dot(x) and a.T.dot(q) give the bits of a @ x and
        # a.T @ q, and the row forms' stacked products give the bits of
        # .dot, row by row, on the validity draws and their scaled rows
        a, b = REGRESSION_OPERANDS[label]
        for seed, xs, _, _ in self.samples(a.shape[1], 1e141):
            qs = np.vstack([a.dot(x) - b for x in xs])
            forward = np.matmul(a, xs[:, :, None])[:, :, 0]
            transpose = np.matmul(a.T, qs[:, :, None])[:, :, 0]
            for i, (x, q) in enumerate(zip(xs, qs)):
                assert bits(a.dot(x)) == bits(a @ x), (seed, i)
                assert bits(a.T.dot(q)) == bits(a.T @ q), (seed, i)
                assert bits(forward[i]) == bits(a.dot(x)), (seed, i)
                assert bits(transpose[i]) == bits(a.T.dot(q)), (seed, i)

    def test_composition_without_inner_rows_keeps_scalar_path(self):
        problem = CompositionProblem(g=squared_norm(3, rows=False), l_g=2.0,
                                     mu_g=2.0, h=math.exp, h_prime=math.exp,
                                     h_double_prime=math.exp)
        objective = problem.objective()
        assert objective.eval_rows is None and objective.grad_rows is None
        assert composition_lfso(problem).eval_rows is None

    def test_negative_curvature_raises_as_scalar_form_does(self):
        problem = CompositionProblem(g=squared_norm(3), l_g=2.0, mu_g=2.0,
                                     h=math.exp, h_prime=math.exp,
                                     h_double_prime=lambda t: 1.0 - t)
        oracle = composition_lfso(problem)
        # row 0 keeps h'' >= 0; rows 1 and 2 are the first to go negative
        xs = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [3.0, 0.0, 0.0]])
        with pytest.raises(NegativeCurvatureError) as scalar:
            oracle.eval(xs[1], 0.0)
        with pytest.raises(NegativeCurvatureError) as rows:
            oracle.eval_rows(xs, np.zeros(3))
        assert str(rows.value) == str(scalar.value)


class TestRegressionDataFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "system.txt"
        path.write_text("2 3\n1.0 2.0 3.0\n4.0 5.0 6.5\n7.0 -8.0\n")
        a, b = load_regression_data(path)
        assert a.shape == (2, 3)
        assert a[1, 2] == 6.5
        assert np.array_equal(b, np.array([7.0, -8.0]))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(ValueError):
            load_regression_data(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 3\n1 2\n0\n")
        with pytest.raises(ValueError):
            load_regression_data(path)

    def test_wrong_b_length(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n1 2\n0 0\n")
        with pytest.raises(ValueError):
            load_regression_data(path)


def count_products(run):
    """Run ``run()`` and count the matrix products that lfso's own source
    makes, as ``transpose`` or ``forward``: each ``@`` whose left operand
    is written ``<name>.T`` is a transpose product and any other ``@`` a
    forward one, and each ``ndarray.dot`` call on a 2-D array is a product
    too, a transpose one when that array is F- but not C-ordered, as the
    ``A.T`` of a C-ordered A is.  The opcodes and C calls are traced, so
    every product is seen whatever object it is made on and whichever
    function makes it."""
    package = os.path.dirname(lfso.__file__) + os.sep
    kinds = {}
    counts = Counter()

    def products(code):
        if code not in kinds:
            kinds[code] = {}
            for ins in dis.get_instructions(code):
                if ins.opname == "BINARY_OP" and ins.argrepr == "@":
                    line = linecache.getline(code.co_filename, ins.positions.lineno)
                    left = line[ins.positions.col_offset:].split("@")[0]
                    kinds[code][ins.offset] = (
                        "transpose" if left.strip().endswith(".T") else "forward")
        return kinds[code]

    def opcode(frame, event, arg):
        if event == "opcode":
            kind = products(frame.f_code).get(frame.f_lasti)
            if kind is not None:
                counts[kind] += 1
        return opcode

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_opcodes = True
        return opcode

    def c_call(frame, event, arg):
        if (event != "c_call" or getattr(arg, "__name__", None) != "dot"
                or not frame.f_code.co_filename.startswith(package)):
            return
        matrix = getattr(arg, "__self__", None)
        if isinstance(matrix, np.ndarray) and matrix.ndim == 2:
            flags = matrix.flags
            counts["transpose" if flags.f_contiguous and not flags.c_contiguous
                   else "forward"] += 1

    previous, previous_profile = sys.gettrace(), sys.getprofile()
    sys.settrace(call)
    sys.setprofile(c_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        sys.setprofile(previous_profile)
    return result, counts


class TestSharedResidual:
    """One ``A x - b`` per iterate, shared by f, grad f, the gradient-norm
    bound, the oracle and the residual-inf radius."""

    @staticmethod
    def build(seed=0, n=5, d=8, p=2):
        rng = np.random.default_rng(seed)
        problem, oracle = make_lp_regression(rng.normal(size=(n, d)),
                                             rng.normal(size=n), p)
        return problem, oracle, rng

    def test_other_b_at_same_x_gets_its_own_residual(self):
        # the objective leaves A x - b in the step's dict; a reader on
        # another b, even one equal to b, reads its own residual
        problem, _, rng = self.build()
        a, b = problem.a, problem.b
        x = rng.normal(size=a.shape[1])
        for other_b in (b + 1.0, b.copy()):
            shared = {}
            problem.objective().evaluate(x, shared)
            assert (residual_inf_reader(a, other_b)(x, shared)
                    == float(np.max(np.abs(a @ x - other_b))))
            assert residual_inf_reader(a, b)(x, shared) == residual_inf(a, b, x)
            assert len(shared) == 4  # two residuals, two inf-norms

    def test_inf_norm_is_not_shared_across_a_or_b(self):
        # readers on other operands, in turn on one dict, never read a
        # value stored by a reader on different ones
        problem, _, rng = self.build()
        a, b = problem.a, problem.b
        other_a, other_b = a * 2.0, b + 10.0
        x = rng.normal(size=a.shape[1])
        shared = {}
        for m, v in [(a, b), (other_a, b), (a, other_b), (a, b)]:
            assert (residual_inf_reader(m, v)(x, shared)
                    == float(np.max(np.abs(m @ x - v))))
            assert residual_inf(m, v, x) == float(np.max(np.abs(m @ x - v)))

    def test_returned_array_is_read_only(self):
        # residual's array, and the one the objective's evaluate leaves in
        # the step's dict for the other readers
        problem, _, rng = self.build()
        x = rng.normal(size=problem.d)
        shared = {}
        problem.objective().evaluate(x, shared)
        (left,) = shared.values()
        for r in (residual(problem.a, problem.b, x), left):
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[0] = 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_every_reader_matches_the_direct_formula(self, p):
        problem, oracle, rng = self.build(seed=p, p=p)
        a, b, two_p = problem.a, problem.b, 2 * p
        objective = problem.objective()
        policy = RPolicy.residual_inf_norm(a, b)
        coef = 2 * p * (2 * p - 1) * problem.spec_norm ** 2 * float(2 ** (2 * p - 3))
        row_pow = ipow(problem.max_row_norm, 2 * p - 2)
        bound_coef = two_p * problem.spec_norm * float(np.sqrt(problem.n))
        readers = {
            "f": objective.eval,
            "grad": lambda x: objective.grad(x).tobytes(),
            "bound": objective.grad_norm_bound,
            "oracle": lambda x: oracle.eval(x, 0.3),
            "policy": policy,
            "residual": lambda x: residual(problem.a, problem.b, x).tobytes(),
        }

        def direct(name, x):
            r = a @ x - b
            res_inf = float(np.max(np.abs(r)))
            if name == "oracle" and p == 1:
                return 2.0 * problem.spec_norm ** 2
            return {
                "f": lambda: float(np.sum(ipow(r, two_p))),
                "grad": lambda: (two_p * (a.T @ ipow(r, two_p - 1))).tobytes(),
                "bound": lambda: bound_coef * ipow(res_inf, two_p - 1),
                "oracle": lambda: coef * (ipow(res_inf, 2 * p - 2)
                                          + row_pow * ipow(0.3, 2 * p - 2)),
                "policy": lambda: res_inf,
                "residual": lambda: r.tobytes(),
            }[name]()

        names = list(readers)
        for _ in range(8):
            x = rng.normal(size=problem.d)
            for _ in range(2):
                for name in rng.permutation(names):
                    assert readers[name](x) == direct(name, x), name
                x[3] += 1.0  # then the same x, changed in place

    def test_inf_norm_matches_the_direct_formula(self):
        problem, _, rng = self.build(n=40, d=60)
        a, b = problem.a, problem.b
        for scale in (1e-150, 1e-3, 1.0, 1e100):
            x = rng.normal(size=a.shape[1]) * scale
            direct = float(np.max(np.abs(a @ x - b)))
            residual(a, b, x)  # the residual first, then its inf-norm
            assert residual_inf(a, b, x) == direct
            assert residual_inf(a, b, x.copy()) == direct

    def test_run_keeps_no_matrix_alive(self):
        # the shared values live in one dict per iterate, which the run
        # drops; nothing outside the run's objects refers to A afterwards
        problem, oracle, rng = self.build()
        a_ref = weakref.ref(problem.a)
        policy = RPolicy.residual_inf_norm(problem.a, problem.b)
        config = SolverConfig(r_policy=policy, max_iters=3, use_grad_bound=True)
        run_lfso_gd(oracle, problem.objective(), np.zeros(problem.d), config)
        del problem, oracle, policy, config
        gc.collect()
        assert a_ref() is None

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="needs BINARY_OP and instruction positions")
    def test_one_product_each_way_per_iterate(self):
        # one A x for every evaluated iterate and one A^T v for every
        # gradient, on a residual-inf run that also reads the bound
        problem, oracle, _ = self.build(n=6, d=9)
        config = SolverConfig(
            r_policy=RPolicy.residual_inf_norm(problem.a, problem.b),
            max_iters=6, use_grad_bound=True)
        trace, counts = count_products(lambda: run_lfso_gd(
            oracle, problem.objective(), np.zeros(problem.d), config))
        assert trace.num_steps == 6
        evaluated = trace.num_steps + 1
        assert counts == {"forward": evaluated, "transpose": evaluated}

    def test_raising_run_keeps_no_matrix_alive(self):
        # the radius policy reads the step's residual, then the zero oracle
        # raises; once the error is dropped nothing refers to A, and the
        # same x gets a residual of its own
        problem, _, _ = self.build()
        a_ref = weakref.ref(problem.a)
        seen = []

        def radius(x, shared):
            seen.append((x.copy(), shared_residual(shared)))
            return 1.0

        def shared_residual(shared):
            (r,) = [v for key, v in shared.items() if key[0] == "residual"]
            return r

        config = SolverConfig(r_policy=RPolicy("callback", lambda x: 1.0,
                                               fast=radius), max_iters=3)
        with pytest.raises(ZeroOracleError):
            run_lfso_gd(Lfso(eval=lambda x, r: 0.0), problem.objective(),
                        np.zeros(problem.d), config)
        (x, r), = seen
        again = residual(problem.a, problem.b, x)
        assert again is not r
        assert np.array_equal(again, r)
        del problem, config
        gc.collect()
        assert a_ref() is None

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="needs BINARY_OP and instruction positions")
    def test_nested_run_in_policy_keeps_the_outer_scope(self):
        # a radius policy that runs a composition solve at every outer step
        # changes neither the outer trace nor its products per iterate
        problem, oracle, _ = self.build(n=6, d=9)
        a, b = problem.a, problem.b
        inner, inner_oracle = TestSharedInnerGradNorm.build()
        inner_config = SolverConfig(r_policy=RPolicy.grad_g_norm(inner.g.grad),
                                    max_iters=2)
        nested = []
        read_inf = residual_inf_reader(a, b)

        def radius(x, shared):
            nested.append(run_lfso_gd(inner_oracle, inner.objective(),
                                      np.ones(6), inner_config).num_steps)
            return read_inf(x, shared)

        def run(policy):
            config = SolverConfig(r_policy=policy, max_iters=6,
                                  use_grad_bound=True)
            return run_lfso_gd(oracle, problem.objective(),
                               np.zeros(problem.d), config)

        plain = run(RPolicy.residual_inf_norm(a, b))
        trace, counts = count_products(lambda: run(RPolicy(
            "callback", functools.partial(residual_inf, a, b), fast=radius)))
        assert nested == [2] * 6
        assert (TestConcurrentRuns.fingerprint(trace)
                == TestConcurrentRuns.fingerprint(plain))
        evaluated = trace.num_steps + 1
        assert counts == {"forward": evaluated, "transpose": evaluated}


    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="needs BINARY_OP and instruction positions")
    @pytest.mark.parametrize("extra_forward", [
        1,
        pytest.param(0, id="shares-the-residual", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="known loss: a one-argument policy gets no shared dict"))])
    def test_nested_run_in_one_argument_policy_keeps_the_outer_trace(
            self, extra_forward):
        # the same policy as a one-argument callback, which gets no shared
        # dict: the outer trace is unchanged, and the callback's
        # residual_inf forms A x - b afresh, one more product with A per
        # step than the fast form; the xfail case is the count when the
        # step's A x - b was shared with one-argument readers too
        problem, oracle, _ = self.build(n=6, d=9)
        a, b = problem.a, problem.b
        inner, inner_oracle = TestSharedInnerGradNorm.build()
        inner_config = SolverConfig(r_policy=RPolicy.grad_g_norm(inner.g.grad),
                                    max_iters=2)
        nested = []

        def radius(x):
            nested.append(run_lfso_gd(inner_oracle, inner.objective(),
                                      np.ones(6), inner_config).num_steps)
            return residual_inf(a, b, x)

        def run(policy):
            config = SolverConfig(r_policy=policy, max_iters=6,
                                  use_grad_bound=True)
            return run_lfso_gd(oracle, problem.objective(),
                               np.zeros(problem.d), config)

        plain = run(RPolicy.residual_inf_norm(a, b))
        trace, counts = count_products(
            lambda: run(RPolicy("callback", radius)))
        assert nested == [2] * 6
        assert (TestConcurrentRuns.fingerprint(trace)
                == TestConcurrentRuns.fingerprint(plain))
        evaluated = trace.num_steps + 1
        assert counts == {
            "forward": evaluated + extra_forward * trace.num_steps,
            "transpose": evaluated}


class TestSharedInnerGradNorm:
    """One ||grad g(x)|| per iterate, shared by the grad-g-norm radius and
    both composition-oracle calls."""

    @staticmethod
    def build(p=3, d=6, calls=None):
        """||x||_2^{2p} with an inner gradient that counts its calls."""
        def grad_g(x):
            if calls is not None:
                calls.append(1)
            return 2.0 * x
        g = GradientOracle(dim=d, eval=lambda x: float(x.dot(x)), grad=grad_g)
        problem = CompositionProblem(
            g=g, l_g=2.0, mu_g=2.0, h=lambda t: ipow(t, p),
            h_prime=lambda t: p * ipow(t, p - 1),
            h_double_prime=lambda t: p * (p - 1) * ipow(t, p - 2))
        return problem, lfso.composition_lfso(problem)

    def test_not_shared_across_inner_gradients(self):
        # readers on other inner gradients, in turn on one dict that the
        # objective's evaluate filled, never read each other's values
        problem, _ = self.build()
        grad_g = problem.g.grad

        def other_grad(x):
            return 3.0 * x

        x = np.arange(1.0, 7.0)
        shared = {}
        problem.objective().evaluate(x, shared)
        for grad, factor in [(grad_g, 2.0), (other_grad, 3.0), (grad_g, 2.0)]:
            assert (inner_grad_norm_reader(grad)(x, shared)
                    == euclidean_norm(factor * x))
            assert inner_grad_norm(grad, x) == euclidean_norm(factor * x)

    def test_every_reader_matches_the_direct_formula(self):
        p = 3
        problem, oracle = self.build(p=p)
        policy = RPolicy.grad_g_norm(problem.g.grad)

        def direct_oracle(x, r):
            w = 2.0 * r + euclidean_norm(2.0 * x)
            v = w * w
            u = v / 4.0
            return p * (p - 1) * ipow(u, p - 2) * v + p * ipow(u, p - 1) * 2.0

        rng = np.random.default_rng(3)
        names = ["policy", "oracle", "norm", "ufunc"]
        for _ in range(8):
            x = rng.normal(size=6) * rng.choice([1e-160, 1e-3, 1.0, 1e3])
            for _ in range(2):
                for name in rng.permutation(names):
                    if name == "policy":
                        assert policy(x) == euclidean_norm(2.0 * x)
                    elif name == "oracle":
                        assert oracle.eval(x, 0.7) == direct_oracle(x, 0.7)
                    elif name == "norm":
                        assert (inner_grad_norm(problem.g.grad, x)
                                == euclidean_norm(2.0 * x))
                    else:
                        # g(x) = ||x||^2 / 2 has grad g = np.positive, a ufunc
                        assert inner_grad_norm(np.positive, x) == euclidean_norm(x)
                        assert (RPolicy.grad_g_norm(np.positive)(x)
                                == euclidean_norm(x))
                x[2] *= -40.0  # then the same x, changed in place

    def test_formed_once_per_iterate(self):
        # the objective's evaluate makes the one call per iterate, and the
        # norm that the radius and both oracle calls read takes its value,
        # however many readers there are
        calls = []
        problem, oracle = self.build(calls=calls)
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                              max_iters=5)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(6), config)
        assert trace.num_steps == 5
        assert len(calls) == trace.num_steps + 1

    def test_inner_value_formed_once_per_iterate(self):
        # the objective's evaluate calls g once per iterate; its scalar
        # eval and grad called it once each
        problem, oracle = self.build()
        inner, calls = problem.g, []

        def g_eval(x):
            calls.append(1)
            return inner.eval(x)

        problem = replace(problem, g=replace(inner, eval=g_eval))
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                              max_iters=5)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(6), config)
        assert trace.num_steps == 5
        assert len(calls) == trace.num_steps + 1

    def test_run_keeps_no_gradient_alive(self):
        # the shared values live in one dict per iterate, which the run
        # drops, so nothing outside the run's objects refers to grad_g,
        # after a run that returns or one that raises
        for raising in (False, True):
            problem, oracle = self.build()
            if raising:
                oracle = Lfso(eval=lambda x, r: 0.0)
            grad_ref = weakref.ref(problem.g.grad)
            config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                                  max_iters=3)
            with (pytest.raises(ZeroOracleError) if raising
                  else contextlib.nullcontext()):
                run_lfso_gd(oracle, problem.objective(), np.ones(6), config)
            del problem, oracle, config
            gc.collect()
            assert grad_ref() is None


class TestConcurrentRuns:
    """Each run keeps its shared values in its own per-iterate dicts, so
    runs in threads share none of them; their results must not change."""

    @staticmethod
    def runs():
        """Two regression and two composition runs, each with its own
        problem objects."""
        rng = np.random.default_rng(5)
        runs = []
        for p in (2, 3):
            a = np.eye(12) + 0.01 * rng.normal(size=(12, 12))
            problem, oracle = make_lp_regression(a, rng.normal(size=12), p)
            config = SolverConfig(r_policy=RPolicy.residual_inf_norm(a, problem.b),
                                  max_iters=400, use_grad_bound=True)
            runs.append((oracle, problem.objective(), np.zeros(12), config))
        for p in (2, 3):
            problem, oracle = make_norm_power(10, p)
            config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                                  max_iters=400)
            runs.append((oracle, problem.objective(), np.ones(10), config))
        return runs

    @staticmethod
    def fingerprint(trace):
        rows = np.array([[rec.k, rec.f_val, rec.grad_norm, rec.r_k,
                          rec.r_tilde_k, rec.l_k, rec.step_norm]
                         for rec in trace.records])
        return (trace.termination, rows.tobytes(), trace.final_x.tobytes(),
                np.array([trace.final_f, trace.final_grad_norm]).tobytes())

    def test_threads_match_sequential_runs_bit_for_bit(self):
        runs = self.runs()
        sequential = [self.fingerprint(run_lfso_gd(*run)) for run in runs]
        barrier = threading.Barrier(len(runs))

        def solve(run):
            barrier.wait()
            return self.fingerprint(run_lfso_gd(*run))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so steps interleave
        try:
            with ThreadPoolExecutor(max_workers=len(runs)) as pool:
                concurrent = list(pool.map(solve, runs))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential
