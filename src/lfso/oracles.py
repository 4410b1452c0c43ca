"""Constructors for local smoothness oracles.

Each constructor returns an :class:`~lfso.core.Lfso` whose value bounds the
first-order Taylor remainder of its paired objective on ``B(x, R)`` and is
non-decreasing in ``R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .core import (Lfso, Vector, each_float, euclidean_norm_rows,
                   inner_grad_norm, residual_inf)
from .errors import (GridEmptyError, NegativeCurvatureError,
                     NonFiniteValueError, RadiusAboveGridError)

if TYPE_CHECKING:
    from .problems import CompositionProblem, LpRegressionProblem


def ipow(base, exponent: int):
    """Integer power by repeated multiplication (scalar or elementwise).

    Keeps small-integer powers exact instead of routing through pow().  The
    products run ``base * base * ...`` left to right, with a scalar first
    made ``1.0 * base`` (so an int gives a float); an array result is
    always a new array, never ``base``.
    """
    if exponent < 1:
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
    if not isinstance(base, np.ndarray):
        base = 1.0 * base
    elif exponent == 1:
        return base.copy()
    result = base
    for _ in range(exponent - 1):
        result = result * base
    return result


@dataclass(frozen=True)
class ConstantLfsoParams:
    """Global Lipschitz constant of the objective gradient.

    :func:`constant_lfso` takes it in place of ``l_f`` only because
    ``lfsobench/test_refchecks.py`` builds one to wrap ``cli.constant_lfso``."""

    l_f: float

    def __post_init__(self) -> None:
        if not (self.l_f > 0 and np.isfinite(self.l_f)):
            raise ValueError(f"l_f must be positive, got {self.l_f}")


def constant_lfso(params: ConstantLfsoParams) -> Lfso:
    """Oracle for globally smooth objectives: L(x, R) = l_f everywhere."""
    l_f = float(params.l_f)
    return Lfso(eval=lambda x, r: l_f,
                eval_rows=lambda xs, radii: np.full(len(xs), l_f))


def hessian_lipschitz_lfso(hess_norm: Callable[[Vector], float],
                           l_h: float) -> Lfso:
    """L(x, R) = ||hessian(x)|| + l_h * R, from a pointwise Hessian norm and
    a Lipschitz constant of the Hessian; monotone in R by construction."""
    if not (l_h >= 0 and np.isfinite(l_h)):
        raise ValueError(f"l_h must be >= 0, got {l_h}")
    l_h = float(l_h)

    def evaluate(x: Vector, r: float) -> float:
        h = float(hess_norm(x))
        if not np.isfinite(h):
            raise NonFiniteValueError(f"hess_norm returned {h}")
        return h + l_h * float(r)

    return Lfso(eval=evaluate)


def composition_lfso(problem: "CompositionProblem") -> Lfso:
    """Oracle for f = h(g(x)) with g smooth and gradient-dominated.

    With w = l_g * R + ||grad g(x)|| and u = w^2 / (2 mu_g),

        L(x, R) = h''(u) * w^2 + h'(u) * l_g.

    Monotone in R because h' and h'' are non-decreasing and h'' >= 0.

    The oracle has a row form when the inner ``g`` has ``grad_rows``; it
    calls ``h'`` and ``h''`` on each entry, as the scalar form does.
    """
    g = problem.g
    grad_g = g.grad
    l_g = float(problem.l_g)
    mu_g = float(problem.mu_g)
    h_prime = problem.h_prime
    h_double_prime = problem.h_double_prime

    def evaluate(x: Vector, r: float) -> float:
        w = l_g * float(r) + inner_grad_norm(grad_g, x)
        v = w * w
        u = v / (2.0 * mu_g)
        hpp = float(h_double_prime(u))
        if hpp < 0.0:
            raise NegativeCurvatureError(
                f"h'' evaluated negative ({hpp}) at t={u}; "
                "the outer function must be convex")
        value = hpp * v + float(h_prime(u)) * l_g
        if not math.isfinite(value):
            raise NonFiniteValueError(f"composition oracle value is {value}")
        return value

    if g.grad_rows is None:
        return Lfso(eval=evaluate)

    def evaluate_rows(xs: np.ndarray, radii: np.ndarray) -> np.ndarray:
        w = l_g * radii + euclidean_norm_rows(g.grad_rows(xs))
        v = w * w
        u = v / (2.0 * mu_g)
        hpp = each_float(h_double_prime, u)
        negative = np.flatnonzero(hpp < 0.0)
        if negative.size:
            i = negative[0]
            raise NegativeCurvatureError(
                f"h'' evaluated negative ({hpp[i]}) at t={u[i]}; "
                "the outer function must be convex")
        values = hpp * v + each_float(h_prime, u) * l_g
        if not np.isfinite(values).all():
            raise NonFiniteValueError("composition oracle value is not finite")
        return values

    return Lfso(eval=evaluate, eval_rows=evaluate_rows)


def lp_regression_lfso(problem: "LpRegressionProblem") -> Lfso:
    """Oracle for f(x) = ||Ax - b||_{2p}^{2p}.

    For p >= 2,

        L(x, R) = 2p(2p-1) ||A||_2^2 2^{2p-3}
                  * [ ||Ax-b||_inf^{2p-2} + (max_i ||a_i||_2^{2p-2}) R^{2p-2} ],

    and for p = 1 the constant 2 ||A||_2^2 (the same formula with the zero
    exponents collapsing to 1).
    """
    p = int(problem.p)
    a = problem.a
    b = problem.b
    norm_a_sq = float(problem.spec_norm) ** 2
    if p == 1:
        const = 2.0 * norm_a_sq
        return Lfso(eval=lambda x, r: const,
                    eval_rows=lambda xs, radii: np.full(len(xs), const))
    coef = 2 * p * (2 * p - 1) * norm_a_sq * float(2 ** (2 * p - 3))
    row_pow = ipow(float(problem.max_row_norm), 2 * p - 2)

    def evaluate(x: Vector, r: float) -> float:
        res_inf = residual_inf(a, b, x)
        value = coef * (ipow(res_inf, 2 * p - 2) + row_pow * ipow(float(r), 2 * p - 2))
        if not math.isfinite(value):
            raise NonFiniteValueError(f"regression oracle value is {value}")
        return value

    def evaluate_rows(xs: np.ndarray, radii: np.ndarray) -> np.ndarray:
        res_inf = np.abs(problem.residual_rows(xs)).max(axis=1)
        values = coef * (ipow(res_inf, 2 * p - 2) + row_pow * ipow(radii, 2 * p - 2))
        if not np.isfinite(values).all():
            raise NonFiniteValueError("regression oracle value is not finite")
        return values

    return Lfso(eval=evaluate, eval_rows=evaluate_rows)


def majorize_monotone(raw: Callable[[Vector, float], float],
                      grid: Optional[Sequence[float]] = None) -> Lfso:
    """Monotone envelope of ``raw`` on a radius grid: L(x, R) is the max of
    raw(x, R') over the grid points R' up to the first one >= R.

    That first grid point R' covers B(x, R), so L(x, R) is a valid oracle
    wherever ``raw`` is, and the max over a longer prefix of the grid never
    falls as R grows.  A radius above the largest grid point raises
    :class:`RadiusAboveGridError`.  The default grid is 64 log-spaced radii
    spanning [1e-8, 1e4].
    """
    if grid is None:
        grid = np.logspace(-8.0, 4.0, 64)
    grid = np.sort(np.asarray(grid, dtype=np.float64)).tolist()
    if not grid:
        raise GridEmptyError("majorize_monotone needs a nonempty radius grid")

    def evaluate(x: Vector, r: float) -> float:
        r = float(r)
        best = -math.inf
        for g in grid:
            best = max(best, float(raw(x, g)))
            if g >= r:
                return best
        raise RadiusAboveGridError(
            f"radius {r} lies above the largest grid radius {grid[-1]}")

    return Lfso(eval=evaluate)
