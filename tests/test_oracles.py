import numpy as np
import pytest

from lfso.core import GradientOracle
from lfso.errors import NegativeCurvatureError, NonFiniteValueError
from lfso.oracles import (ConstantLfsoParams, composition_lfso, constant_lfso,
                          hessian_lipschitz_lfso, ipow)
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


def reference_ipow(base, exponent):
    """ipow with its products starting from a one."""
    result = np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
    for _ in range(exponent):
        result = result * base
    return result


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.5, 0.3, 1e155, -1e-160]


class TestIpowFastPath:
    """Starting the products from ``base`` changes no bit and no type."""

    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("exponent", range(10))
    def test_scalars(self, exponent):
        with np.errstate(all="ignore"):
            for base in SPECIAL + [np.float64(-2.5), np.float64(np.nan), 3, -2]:
                self.assert_same(ipow(base, exponent), reference_ipow(base, exponent))

    @pytest.mark.parametrize("exponent", range(10))
    def test_arrays(self, exponent):
        rng = np.random.default_rng(exponent)
        arrays = [np.array(SPECIAL), rng.normal(size=1000),
                  rng.integers(-3, 4, size=20),
                  rng.normal(size=7).astype(np.float32)]
        with np.errstate(all="ignore"):
            for base in arrays:
                self.assert_same(ipow(base, exponent), reference_ipow(base, exponent))

    @pytest.mark.parametrize("exponent", range(10))
    def test_result_is_never_the_callers_array(self, exponent):
        base = np.array([1.5, -2.0, 0.0])
        before = base.copy()
        result = ipow(base, exponent)
        assert not np.shares_memory(result, base)
        result[...] = 7.0
        assert np.array_equal(base, before)


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
        for l_f in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="l_f must be positive"):
                constant_lfso(ConstantLfsoParams(l_f=l_f))


class TestHessianLipschitzLfso:
    def test_cubic_hand_value(self):
        # f(x) = x^3: |f''(x)| = |6x|, f'' is 6-Lipschitz
        oracle = hessian_lipschitz_lfso(
            hess_norm=lambda x: abs(6.0 * float(x[0])), l_h=6.0)
        assert oracle.eval(np.array([1.0]), 0.5) == 9.0
        assert oracle.eval(np.array([1.0]), 0.0) == 6.0

    def test_zero_l_h_is_constant(self):
        oracle = hessian_lipschitz_lfso(hess_norm=lambda x: 7.0, l_h=0.0)
        assert oracle.eval(np.zeros(2), 0.1) == 7.0
        assert oracle.eval(np.ones(2), 100.0) == 7.0

    def test_valid_for_scalar_cubic(self):
        problem = GradientOracle(dim=1,
                                 eval=lambda x: float(x[0]) ** 3,
                                 grad=lambda x: np.array([3.0 * x[0] ** 2]))
        oracle = hessian_lipschitz_lfso(
            hess_norm=lambda x: abs(6.0 * float(x[0])), l_h=6.0)
        report = check_lfso_validity(problem, oracle,
                                     SampleSpec(num_points=500, seed=2))
        assert report.violations == 0

    def test_non_finite_hessian_raises(self):
        oracle = hessian_lipschitz_lfso(hess_norm=lambda x: float("nan"),
                                        l_h=1.0)
        with pytest.raises(NonFiniteValueError):
            oracle.eval(np.zeros(1), 1.0)

    @pytest.mark.parametrize("l_h", [-1.0, float("inf"), float("nan")])
    def test_bad_l_h_rejected(self, l_h):
        with pytest.raises(ValueError, match="l_h must be >= 0"):
            hessian_lipschitz_lfso(lambda x: 1.0, l_h)


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
