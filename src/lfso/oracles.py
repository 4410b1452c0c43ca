"""Constructors for local smoothness oracles.

Each constructor returns an :class:`~lfso.core.Lfso` whose value bounds the
first-order Taylor remainder of its paired objective on ``B(x, R)`` and is
non-decreasing in ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import (Lfso, Vector, each_float, euclidean_norm_rows,
                   inner_grad_norm_reader, residual_inf_reader, shared_key)
from .errors import NegativeCurvatureError

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


def residual_pow_reader(a: np.ndarray, b: Vector, k: int) -> Callable:
    """``(x, shared) -> (||A x - b||_inf, ipow(||A x - b||_inf, k))``,
    stored in the step's ``shared`` dict, with the inf-norm read through
    :func:`~lfso.core.residual_inf_reader`: the gradient-norm bound and the
    oracle of a regression step form the power once."""
    key = shared_key(f"residual-inf^{k}", a, b)
    read_inf = residual_inf_reader(a, b)

    def read(x: Vector, shared: dict) -> tuple:
        pair = shared.get(key)
        if pair is None:
            res_inf = read_inf(x, shared)
            pair = shared[key] = (res_inf, ipow(res_inf, k))
        return pair

    return read


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
        return float(hess_norm(x)) + l_h * float(r)

    return Lfso(eval=evaluate)


def composition_lfso(problem: "CompositionProblem") -> Lfso:
    """Oracle for f = h(g(x)) with g smooth and gradient-dominated.

    With w = l_g * R + ||grad g(x)|| and u = w^2 / (2 mu_g),

        L(x, R) = h''(u) * w^2 + h'(u) * l_g.

    Monotone in R because h' and h'' are non-decreasing and h'' >= 0.
    ``at(x, shared)`` reads ||grad g(x)|| once through
    :func:`~lfso.core.inner_grad_norm_reader`, and ``eval(x, R)`` is
    ``at(x, {})(R)``.

    The oracle has a row form when the inner ``g`` has ``grad_rows``; it
    calls ``h'`` and ``h''`` on each entry, as the scalar form does.
    """
    g = problem.g
    read_norm = inner_grad_norm_reader(g.grad)
    l_g = float(problem.l_g)
    two_mu_g = 2.0 * float(problem.mu_g)
    h_prime = problem.h_prime
    h_double_prime = problem.h_double_prime

    def at(x: Vector, shared: dict) -> Callable[[float], float]:
        grad_norm = read_norm(x, shared)

        def at_x(r: float) -> float:
            w = l_g * float(r) + grad_norm
            v = w * w
            u = v / two_mu_g
            hpp = float(h_double_prime(u))
            if hpp < 0.0:
                raise NegativeCurvatureError(
                    f"h'' evaluated negative ({hpp}) at t={u}; "
                    "the outer function must be convex")
            return hpp * v + float(h_prime(u)) * l_g

        return at_x

    def evaluate(x: Vector, r: float) -> float:
        return at(x, {})(r)

    if g.grad_rows is None:
        return Lfso(eval=evaluate, at=at)

    def evaluate_rows(xs: np.ndarray, radii: np.ndarray) -> np.ndarray:
        w = l_g * radii + euclidean_norm_rows(g.grad_rows(xs))
        v = w * w
        u = v / two_mu_g
        hpp = each_float(h_double_prime, u)
        negative = np.flatnonzero(hpp < 0.0)
        if negative.size:
            i = negative[0]
            raise NegativeCurvatureError(
                f"h'' evaluated negative ({hpp[i]}) at t={u[i]}; "
                "the outer function must be convex")
        return hpp * v + each_float(h_prime, u) * l_g

    return Lfso(eval=evaluate, eval_rows=evaluate_rows, at=at)


def lp_regression_lfso(problem: "LpRegressionProblem") -> Lfso:
    """Oracle for f(x) = ||Ax - b||_{2p}^{2p}, for every p >= 1:

        L(x, R) = coef * [ ||Ax-b||_inf^{2p-2} + row_pow * R^{2p-2} ],

    with ``coef = 2p(2p-1) ||A||_2^2 2^{2p-3}`` and ``row_pow = max_i
    ||a_i||_2^{2p-2}`` read from the problem.  At p = 1 both powers are 1,
    giving the constant 2 ||A||_2^2.  ``at(x, shared)`` reads
    ||Ax-b||_inf^{2p-2} through :func:`residual_pow_reader`, as the
    objective's ``fast_bound`` does, and ``eval(x, R)`` is ``at(x, {})(R)``.
    """
    a, b, k = problem.a, problem.b, 2 * int(problem.p) - 2
    coef, row_pow = problem.coef, problem.row_pow
    read_pow = residual_pow_reader(a, b, k)

    def value(res_pow, r):
        return coef * (res_pow + row_pow * ipow(r, k))

    def at(x: Vector, shared: dict) -> Callable[[float], float]:
        res_pow = read_pow(x, shared)[1]
        return lambda r: value(res_pow, float(r))

    return Lfso(eval=lambda x, r: at(x, {})(r), at=at,
                eval_rows=lambda xs, radii: value(ipow(
                    np.abs(problem.residual_rows(xs)).max(axis=1), k), radii))
