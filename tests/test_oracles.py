import numpy as np
import pytest

from lfso.core import GradientOracle, Lfso
from lfso.errors import (GridEmptyError, NegativeCurvatureError,
                         NonFiniteValueError)
from lfso.oracles import (ConstantLfsoParams, HessianLipschitzLfsoParams,
                          composition_lfso, constant_lfso,
                          hessian_lipschitz_lfso, ipow, majorize_monotone)
from lfso.problems import (QuarticProblem, make_lp_regression,
                           make_norm_power)
from lfso.verify import SampleSpec, check_lfso_validity, check_monotone_in_R


class TestIpow:
    def test_scalar_values(self):
        assert ipow(2.0, 0) == 1.0
        assert ipow(2.0, 3) == 8.0
        assert ipow(0.0, 0) == 1.0
        assert ipow(-3.0, 3) == -27.0

    def test_elementwise(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(ipow(v, 3), np.array([1.0, -8.0, 0.125]))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ipow(2.0, -1)


class TestConstantLfso:
    def test_constant_everywhere(self):
        oracle = constant_lfso(ConstantLfsoParams(l_f=2.0))
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=4)
            assert oracle.eval(x, rng.uniform(0.01, 10.0)) == 2.0

    def test_valid_for_quadratic(self):
        problem = GradientOracle(dim=3, eval=lambda x: float(x @ x),
                                 grad=lambda x: 2.0 * x)
        oracle = constant_lfso(ConstantLfsoParams(l_f=2.0))
        report = check_lfso_validity(problem, oracle,
                                     SampleSpec(num_points=500, seed=5))
        assert report.violations == 0
        # the quadratic remainder meets the bound with equality
        assert report.stats["worst_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError):
            ConstantLfsoParams(l_f=0.0)


class TestHessianLipschitzLfso:
    def test_cubic_hand_value(self):
        # f(x) = x^3: |f''(x)| = |6x|, f'' is 6-Lipschitz
        oracle = hessian_lipschitz_lfso(HessianLipschitzLfsoParams(
            hess_norm=lambda x: abs(6.0 * float(x[0])), l_h=6.0))
        assert oracle.eval(np.array([1.0]), 0.5) == 9.0
        assert oracle.eval(np.array([1.0]), 0.0) == 6.0

    def test_zero_l_h_is_constant(self):
        oracle = hessian_lipschitz_lfso(HessianLipschitzLfsoParams(
            hess_norm=lambda x: 7.0, l_h=0.0))
        assert oracle.eval(np.zeros(2), 0.1) == 7.0
        assert oracle.eval(np.ones(2), 100.0) == 7.0

    def test_valid_for_scalar_cubic(self):
        problem = GradientOracle(dim=1,
                                 eval=lambda x: float(x[0]) ** 3,
                                 grad=lambda x: np.array([3.0 * x[0] ** 2]))
        oracle = hessian_lipschitz_lfso(HessianLipschitzLfsoParams(
            hess_norm=lambda x: abs(6.0 * float(x[0])), l_h=6.0))
        report = check_lfso_validity(problem, oracle,
                                     SampleSpec(num_points=500, seed=2))
        assert report.violations == 0

    def test_non_finite_hessian_raises(self):
        oracle = hessian_lipschitz_lfso(HessianLipschitzLfsoParams(
            hess_norm=lambda x: float("nan"), l_h=1.0))
        with pytest.raises(NonFiniteValueError):
            oracle.eval(np.zeros(1), 1.0)


class TestCompositionLfso:
    def test_linear_outer_reduces_to_constant(self):
        problem, oracle = make_norm_power(6, 1)
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.normal(size=6)
            assert oracle.eval(x, rng.uniform(0.0, 5.0)) == 2.0

    def test_hand_value_quadratic_outer(self):
        problem, oracle = make_norm_power(1, 2)
        # x=1, R=2: w = 2*2 + 2 = 6, v = 36, u = 9, L = 2*36 + 18*2 = 108
        assert oracle.eval(np.array([1.0]), 2.0) == pytest.approx(108.0, rel=1e-15)

    def test_degenerate_at_minimizer(self):
        _, oracle = make_norm_power(1, 2)
        assert oracle.eval(np.array([0.0]), 0.0) == 0.0

    def test_monotone_in_radius(self):
        _, oracle = make_norm_power(4, 2)
        report = check_monotone_in_R(oracle, SampleSpec(num_points=40, seed=7),
                                     dim=4)
        assert report.violations == 0

    def test_negative_curvature_rejected(self):
        problem, _ = make_norm_power(2, 2)
        broken = composition_lfso(type(problem)(
            g=problem.g, l_g=2.0, mu_g=2.0, h=problem.h,
            h_prime=problem.h_prime, h_double_prime=lambda t: -1.0))
        with pytest.raises(NegativeCurvatureError):
            broken.eval(np.ones(2), 1.0)


class TestLpRegressionLfso:
    def test_p1_constant_identity(self):
        _, oracle = make_lp_regression(np.eye(10), np.zeros(10), 1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert oracle.eval(rng.normal(size=10), rng.uniform(0, 3)) \
                == pytest.approx(2.0, rel=1e-10)

    def test_p1_matches_twice_spectral_norm_squared(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 7))
        _, oracle = make_lp_regression(a, rng.normal(size=4), 1)
        expected = 2.0 * np.linalg.svd(a, compute_uv=False)[0] ** 2
        assert oracle.eval(np.zeros(7), 1.0) == pytest.approx(expected, rel=1e-9)

    def test_p2_hand_values(self):
        _, oracle = make_lp_regression(np.eye(2), np.zeros(2), 2)
        x = np.array([1.0, 0.0])
        assert oracle.eval(x, 1.0) == pytest.approx(48.0, rel=1e-12)
        assert oracle.eval(x, 0.0) == pytest.approx(24.0, rel=1e-12)

    def test_monotone_in_radius(self):
        _, oracle = make_lp_regression(np.eye(5), np.zeros(5), 3)
        report = check_monotone_in_R(oracle, SampleSpec(num_points=40, seed=9),
                                     dim=5)
        assert report.violations == 0


class TestMajorizeMonotone:
    def test_constant_raw_unchanged(self):
        oracle = majorize_monotone(lambda x, r: 5.0)
        assert oracle.eval(np.zeros(1), 0.3) == 5.0
        assert oracle.eval(np.zeros(1), 3000.0) == 5.0

    def test_running_max_over_grid(self):
        raw = lambda x, r: max(1.0, 2.0 - r)
        oracle = majorize_monotone(raw, grid=[0.0, 1.0, 2.0])
        assert oracle.eval(np.zeros(1), 2.0) == 2.0

    def test_query_below_grid_uses_raw_alone(self):
        raw = lambda x, r: max(1.0, 2.0 - r)
        oracle = majorize_monotone(raw, grid=[1.0, 2.0])
        assert oracle.eval(np.zeros(1), 0.5) == raw(None, 0.5) == 1.5

    def test_empty_grid_rejected(self):
        with pytest.raises(GridEmptyError):
            majorize_monotone(lambda x, r: 1.0, grid=[])

    def test_default_grid_covers_experiment_radii(self):
        calls = []

        def raw(x, r):
            calls.append(r)
            return 1.0

        oracle = majorize_monotone(raw)
        oracle.eval(np.zeros(1), 1e4)
        assert min(calls) == pytest.approx(1e-8)
        assert len(calls) == 65  # 64 grid points plus the query itself

    def test_majorization_restores_monotonicity(self):
        raw = lambda x, r: max(1.0, 2.0 - r)
        bare = Lfso(eval=raw)
        fixed = majorize_monotone(raw, grid=np.linspace(0.0, 4.0, 32))
        spec = SampleSpec(num_points=10, seed=1, r_range=(0.05, 4.0))
        assert check_monotone_in_R(bare, spec, dim=1).violations > 0
        assert check_monotone_in_R(fixed, spec, dim=1).violations == 0


class TestShippedPairValidity:
    """Sampled remainder-bound checks for every shipped oracle pairing.

    The acceptance suite repeats these at full sample counts.
    """

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_norm_power(self, p):
        problem, oracle = make_norm_power(10, p)
        report = check_lfso_validity(problem.objective(), oracle,
                                     SampleSpec(num_points=300, seed=13 + p))
        assert report.violations == 0

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_lp_regression(self, p):
        problem, oracle = make_lp_regression(np.eye(10), np.zeros(10), p)
        report = check_lfso_validity(problem.objective(), oracle,
                                     SampleSpec(num_points=300, seed=17 + p))
        assert report.violations == 0

    def test_lp_regression_general_matrix(self, ):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        problem, oracle = make_lp_regression(a, b, 2)
        report = check_lfso_validity(problem.objective(), oracle,
                                     SampleSpec(num_points=300, seed=29))
        assert report.violations == 0

    def test_quartic(self):
        quartic = QuarticProblem()
        report = check_lfso_validity(
            quartic.objective(), quartic.lfso(),
            SampleSpec(num_points=500, seed=31, r_range=(1e-3, 2.0)))
        assert report.violations == 0
