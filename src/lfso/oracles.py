"""Constructors for local smoothness oracles.

Each constructor returns an :class:`~lfso.core.Lfso` whose value bounds the
first-order Taylor remainder of its paired objective on ``B(x, R)`` and is
non-decreasing in ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .core import Lfso, Vector, euclidean_norm, residual
from .errors import (GridEmptyError, NegativeCurvatureError,
                     NonFiniteValueError)

if TYPE_CHECKING:
    from .problems import CompositionProblem, LpRegressionProblem


def ipow(base, exponent: int):
    """Integer power by repeated multiplication (scalar or elementwise).

    Keeps small-integer powers exact instead of routing through pow().
    """
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    result = np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
    for _ in range(exponent):
        result = result * base
    return result


@dataclass(frozen=True)
class ConstantLfsoParams:
    """Global Lipschitz constant of the objective gradient."""

    l_f: float

    def __post_init__(self) -> None:
        if not (self.l_f > 0 and np.isfinite(self.l_f)):
            raise ValueError(f"l_f must be positive, got {self.l_f}")


@dataclass(frozen=True)
class HessianLipschitzLfsoParams:
    """Pointwise Hessian norm plus a Lipschitz constant for the Hessian."""

    hess_norm: Callable[[Vector], float]
    l_h: float

    def __post_init__(self) -> None:
        if not (self.l_h >= 0 and np.isfinite(self.l_h)):
            raise ValueError(f"l_h must be >= 0, got {self.l_h}")


def constant_lfso(params: ConstantLfsoParams) -> Lfso:
    """Oracle for globally smooth objectives: L(x, R) = l_f everywhere."""
    l_f = float(params.l_f)
    return Lfso(eval=lambda x, r: l_f)


def hessian_lipschitz_lfso(params: HessianLipschitzLfsoParams) -> Lfso:
    """L(x, R) = ||hessian(x)|| + l_h * R; monotone in R by construction."""
    hess_norm = params.hess_norm
    l_h = float(params.l_h)

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
    """
    g = problem.g
    l_g = float(problem.l_g)
    mu_g = float(problem.mu_g)
    h_prime = problem.h_prime
    h_double_prime = problem.h_double_prime

    def evaluate(x: Vector, r: float) -> float:
        w = l_g * float(r) + euclidean_norm(g.grad(x))
        v = w * w
        u = v / (2.0 * mu_g)
        hpp = float(h_double_prime(u))
        if hpp < 0.0:
            raise NegativeCurvatureError(
                f"h'' evaluated negative ({hpp}) at t={u}; "
                "the outer function must be convex")
        value = hpp * v + float(h_prime(u)) * l_g
        if not np.isfinite(value):
            raise NonFiniteValueError(f"composition oracle value is {value}")
        return value

    return Lfso(eval=evaluate)


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
        return Lfso(eval=lambda x, r: const)
    coef = 2 * p * (2 * p - 1) * norm_a_sq * float(2 ** (2 * p - 3))
    row_pow = ipow(float(problem.max_row_norm), 2 * p - 2)

    def evaluate(x: Vector, r: float) -> float:
        res_inf = float(np.max(np.abs(residual(a, b, x))))
        value = coef * (ipow(res_inf, 2 * p - 2) + row_pow * ipow(float(r), 2 * p - 2))
        if not np.isfinite(value):
            raise NonFiniteValueError(f"regression oracle value is {value}")
        return value

    return Lfso(eval=evaluate)


def majorize_monotone(raw: Callable[[Vector, float], float],
                      grid: Optional[Sequence[float]] = None) -> Lfso:
    """Monotone envelope of ``raw``: the running max of raw(x, R') over the
    cached grid points R' <= R, together with R itself.

    The default grid is 64 log-spaced radii spanning [1e-8, 1e4], wide
    enough to cover the inflated radii arising in the shipped experiments.
    """
    if grid is None:
        grid = np.logspace(-8.0, 4.0, 64)
    grid = np.sort(np.asarray(grid, dtype=np.float64))
    if grid.size == 0:
        raise GridEmptyError("majorize_monotone needs a nonempty radius grid")

    def evaluate(x: Vector, r: float) -> float:
        r = float(r)
        best = float(raw(x, r))
        for g in grid:
            if g > r:
                break
            best = max(best, float(raw(x, float(g))))
        return best

    return Lfso(eval=evaluate)
