"""Benchmark problem families with analytic gradients and paired oracles.

Two structured families ship here: compositions f = h(g(x)) of an outer
convex increasing function with a smooth gradient-dominated inner function
(covering f = ||x||_2^{2p}), and regression objectives f = ||Ax - b||_{2p}^{2p}
(covering f = ||x||_{2p}^{2p} via A = I, b = 0).  Both come with the
structure constants their oracles need, plus a scalar quartic toy problem.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (GradientOracle, Lfso, Vector, as_vector, each_float,
                   residual, row_dots, shared_key)
from .errors import NonFiniteValueError, ShapeMismatchError
from .oracles import (composition_lfso, ipow, lp_regression_lfso,
                      residual_pow_reader)


@dataclass(frozen=True)
class CompositionProblem:
    """f = h(g(x)) with g smooth (constant l_g) and gradient-dominated
    (constant mu_g), h increasing and convex with non-decreasing h''.

    When ``g`` has row forms, the objective and
    :func:`~lfso.oracles.composition_lfso` get them too, calling ``h``,
    ``h_prime`` and ``h_double_prime`` on each entry.
    """

    g: GradientOracle
    l_g: float
    mu_g: float
    h: Callable[[float], float]
    h_prime: Callable[[float], float]
    h_double_prime: Callable[[float], float]

    def __post_init__(self) -> None:
        if not (self.l_g > 0 and self.mu_g > 0):
            raise ValueError("l_g and mu_g must be positive")
        if self.mu_g > self.l_g:
            raise ValueError(f"mu_g ({self.mu_g}) cannot exceed l_g ({self.l_g})")

    def objective(self) -> GradientOracle:
        """The composed objective with grad f = h'(g(x)) grad g(x).  Its
        ``evaluate`` leaves ``grad g(x)`` in the step's ``shared`` dict for
        :func:`~lfso.core.inner_grad_norm_reader`."""
        g = self.g
        h = self.h
        h_prime = self.h_prime
        grad_g = g.grad
        grad_key = shared_key("grad-g", grad_g)
        rows = g.eval_rows is not None and g.grad_rows is not None

        def evaluate(x: Vector, shared: dict):
            t = float(g.eval(x))
            factor = float(h_prime(t))
            inner = shared[grad_key] = grad_g(x)
            return float(h(t)), factor * inner

        return GradientOracle(
            dim=g.dim,
            eval=lambda x: float(h(float(g.eval(x)))),
            grad=lambda x: float(h_prime(float(g.eval(x)))) * grad_g(x),
            evaluate=evaluate,
            eval_rows=(lambda xs: each_float(h, g.eval_rows(xs)))
            if rows else None,
            grad_rows=(lambda xs: each_float(h_prime, g.eval_rows(xs))[:, None]
                       * g.grad_rows(xs)) if rows else None,
        )


@dataclass(frozen=True, eq=False)
class LpRegressionProblem:
    """f(x) = ||Ax - b||_{2p}^{2p} with cached structure constants."""

    a: np.ndarray
    b: Vector
    p: int
    spec_norm: float
    max_row_norm: float
    cond: float

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]

    @property
    def bound_coef(self) -> float:
        """2p ||A||_2 sqrt(n), of the bound on ||grad f||."""
        return 2 * self.p * float(self.spec_norm) * float(np.sqrt(self.n))

    @property
    def coef(self) -> float:
        """2p(2p-1) ||A||_2^2 2^{2p-3}, the oracle's leading factor; inf
        when it overflows."""
        p, norm_sq = self.p, float(self.spec_norm) ** 2
        try:
            return math.ldexp(2 * p * (2 * p - 1) * norm_sq, 2 * p - 3)
        except OverflowError:
            return math.inf

    @property
    def row_pow(self) -> float:
        """max_i ||a_i||_2^{2p-2}, the oracle's weight on R^{2p-2}."""
        return ipow(float(self.max_row_norm), 2 * self.p - 2)

    @property
    def theory_ok(self) -> bool:
        """Conditioning requirement for the Q-linear residual guarantee:
        full rank, n <= d, and cond(A)^4 < n / (n - 1)."""
        if self.n > self.d or not np.isfinite(self.cond):
            return False
        if self.n == 1:
            return True
        return self.cond ** 4 < self.n / (self.n - 1)

    def residual_rows(self, xs: np.ndarray) -> np.ndarray:
        """``A x - b`` for every row x of ``xs``.  Each product is the gemv
        of a single ``A.dot(x)``, so every row equals
        :func:`lfso.core.residual` bit for bit."""
        return np.matmul(self.a, xs[:, :, None])[:, :, 0] - self.b

    def objective(self) -> GradientOracle:
        """f(x) = sum(q * r) and grad f(x) = 2p A^T q, from one residual
        r = A x - b and one power q = r^(2p-1): ``ipow`` multiplies left to
        right, so q * r equals r^(2p) bit for bit.

        ``evaluate`` leaves r, read-only, in the step's ``shared`` dict,
        where :func:`~lfso.core.residual_inf_reader` finds it.
        ``fast_bound`` reads ``||r||_inf^(2p-2)`` through
        :func:`~lfso.oracles.residual_pow_reader`, as the oracle's ``at``
        does, and returns ``bound_coef * (||r||_inf^(2p-2) * ||r||_inf)``,
        ``bound_coef * ||r||_inf^(2p-1)`` for the same reason;
        ``grad_norm_bound(x)`` is ``fast_bound`` on a dict of its own."""
        a, b, two_p, bound_coef = self.a, self.b, 2 * int(self.p), self.bound_coef
        a_t = a.T
        res_key = shared_key("residual", a, b)
        read_pow = residual_pow_reader(a, b, two_p - 2)

        def power(x: Vector):
            r = residual(a, b, x)
            return ipow(r, two_p - 1), r

        def value(x: Vector) -> float:
            q, r = power(x)
            return float(np.add.reduce(q * r))

        def gradient(x: Vector) -> Vector:
            return two_p * a_t.dot(power(x)[0])

        def evaluate(x: Vector, shared: dict):
            q, r = power(x)
            shared[res_key] = r
            return float(np.add.reduce(q * r)), two_p * a_t.dot(q)

        def fast_bound(x: Vector, shared: dict) -> float:
            res_inf, res_pow = read_pow(x, shared)
            return bound_coef * (res_pow * res_inf)

        def value_rows(xs: np.ndarray) -> np.ndarray:
            return ipow(self.residual_rows(xs), two_p).sum(axis=1)

        def gradient_rows(xs: np.ndarray) -> np.ndarray:
            powers = ipow(self.residual_rows(xs), two_p - 1)
            return two_p * np.matmul(a_t, powers[:, :, None])[:, :, 0]

        return GradientOracle(dim=self.d, eval=value, grad=gradient,
                              grad_norm_bound=lambda x: fast_bound(x, {}),
                              eval_rows=value_rows, grad_rows=gradient_rows,
                              evaluate=evaluate, fast_bound=fast_bound)


class QuarticProblem:
    """Scalar f(x) = x^4 with the hand-derived oracle 24 x^2 + 24 R^2."""

    dim = 1

    def objective(self) -> GradientOracle:
        return GradientOracle(
            dim=1,
            eval=lambda x: float(ipow(float(x[0]), 4)),
            grad=lambda x: np.array([4.0 * ipow(float(x[0]), 3)]),
        )

    def lfso(self) -> Lfso:
        return Lfso(eval=lambda x, r: 24.0 * float(x[0]) ** 2 + 24.0 * float(r) ** 2)


def _whole(name: str, value) -> bool:
    """Whether ``value`` is a whole number >= 1; one too large for a float
    raises ``ValueError`` saying so."""
    try:
        return value >= 1 and float(value).is_integer()
    except OverflowError:
        raise ValueError(f"{name} is out of range: above the largest "
                         "float64, about 1.8e308") from None


def make_norm_power(d: int, p: int):
    """Problem f(x) = ||x||_2^{2p} as the composition of g = ||x||_2^2
    (l_g = mu_g = 2) with h(t) = t^p, paired with its oracle.
    """
    if not (_whole("d", d) and _whole("p", p)):
        raise ValueError(f"need integers d >= 1 and p >= 1, got d={d}, p={p}")
    p = int(p)
    g = GradientOracle(dim=int(d),
                       eval=lambda x: float(x.dot(x)),
                       grad=lambda x: 2.0 * x,
                       eval_rows=lambda xs: row_dots(xs, xs),
                       grad_rows=lambda xs: 2.0 * xs)
    problem = CompositionProblem(
        g=g, l_g=2.0, mu_g=2.0, h=_scaled_power(1, p),
        h_prime=_scaled_power(p, p - 1),
        h_double_prime=_scaled_power(p * (p - 1), max(p - 2, 0)))
    return problem, composition_lfso(problem)


def _scaled_power(c: int, k: int) -> Callable[[float], float]:
    """``t -> c * ipow(float(t), k)``, bit for bit, in one call: h, h' and
    h'' of :func:`make_norm_power`, which a solver step calls up to six
    times.  The powers multiply left to right, as ``ipow`` does."""
    def power(t) -> float:
        t = float(t)
        result = t if k else 1.0
        for _ in range(k - 1):
            result = result * t
        return c * result

    return power


def make_lp_regression(a: np.ndarray, b, p: int):
    """Problem f(x) = ||Ax - b||_{2p}^{2p} paired with its oracle.

    Structure constants (max row norm, ||A||_2, condition number) are
    computed once here and cached on the problem, whose ``bound_coef``,
    ``coef`` and ``row_pow`` every reader takes; a max row norm, Gram
    matrix or ``coef`` that is not finite raises
    :class:`NonFiniteValueError`.  The objective's ``evaluate`` leaves the
    residual ``Ax - b`` in the step's ``shared`` dict, and the fast forms of
    the gradient-norm bound, the oracle and
    ``RPolicy.residual_inf_norm`` read its inf-norm from there, so one
    solver iterate costs one product with A and one with A^T.  Both the
    cached constants and the shared residual assume that A and b do not
    change in place while the problem is in use.
    ``theory_ok`` on the problem says whether the conditioning requirement
    for the Q-linear guarantee holds; the solver runs either way.
    """
    a = np.asarray(a, dtype=np.float64)
    b = as_vector(b)
    if a.ndim != 2:
        raise ShapeMismatchError(f"matrix must be 2-D, got shape {a.shape}")
    if a.shape[0] != b.size:
        raise ShapeMismatchError(
            f"matrix has {a.shape[0]} rows but b has length {b.size}")
    if not _whole("p", p):
        raise ValueError(f"p must be an integer >= 1, got {p}")
    max_row_norm = float(np.sqrt(np.max(np.einsum("ij,ij->i", a, a))))
    if not math.isfinite(max_row_norm):
        raise NonFiniteValueError(
            f"matrix A has max row norm {max_row_norm}: an entry is not "
            "finite or a row's squared norm overflows")
    spec_norm, cond = _spectral_constants(a)
    problem = LpRegressionProblem(a=a, b=b, p=int(p), spec_norm=spec_norm,
                                  max_row_norm=max_row_norm, cond=cond)
    if not math.isfinite(problem.coef):
        raise NonFiniteValueError(
            f"p = {problem.p} is too large for this A: the oracle's factor "
            "2p(2p-1) ||A||_2^2 2^(2p-3) overflows")
    return problem, lp_regression_lfso(problem)


def _spectral_constants(a: np.ndarray):
    """(||A||_2, cond(A)) from one eigendecomposition of the smaller Gram
    matrix G (A A^T if n <= d, else A^T A), whose eigenvalues are the squared
    singular values of A.

    cond is inf when lambda_min(G) <= m * eps * lambda_max(G), m the side of
    G: below that the rounding of G itself hides sigma_min(A).  A G with an
    entry that is not finite raises :class:`NonFiniteValueError`: for n > d,
    A^T A can overflow though every row norm is finite.
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    if not np.isfinite(gram).all():
        raise NonFiniteValueError(
            "matrix A has a Gram matrix entry that is not finite: "
            "||A||_2 overflows")
    lam = np.linalg.eigvalsh(gram)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    sigma_max = float(np.sqrt(max(lam_max, 0.0)))
    if lam_min <= gram.shape[0] * float(np.finfo(np.float64).eps) * lam_max:
        return sigma_max, float("inf")
    return sigma_max, sigma_max / float(np.sqrt(lam_min))


def spectral_norm(a: np.ndarray) -> float:
    """||A||_2, the largest singular value of A.

    The package reads the cached ``LpRegressionProblem.spec_norm``; this
    stays only because ``lfsobench/layers.py`` wraps it."""
    return _spectral_constants(a)[0]


def condition_number(a: np.ndarray) -> float:
    """2-norm condition number sigma_max / sigma_min; inf for rank-deficient
    (numerically singular) matrices.

    The package reads the cached ``LpRegressionProblem.cond``; this stays
    only because ``lfsobench/layers.py`` wraps it."""
    return _spectral_constants(a)[1]


def regression_constants(problem: LpRegressionProblem, eta: float):
    """Constants (c1, c2) of the closed-form regression iteration.

    With R_k = ||Ax_k - b||_inf and the gradient-norm bound in place of the
    exact norm, the solver inflates the radius to c1 * ||Ax_k - b||_inf and
    the oracle there is 2p * c2 * ||Ax_k - b||_inf^{2p-2}, for every A and
    p >= 1: c1 = max(1, eta * bound_coef / (coef * (1 + row_pow))) and
    c2 = coef * (1 + row_pow * c1^{2p-2}) / (2p).
    """
    p = int(problem.p)
    coef, row_pow = problem.coef, problem.row_pow
    c1 = max(1.0, float(eta) * problem.bound_coef / (coef * (1.0 + row_pow)))
    c2 = coef * (1.0 + row_pow * ipow(c1, 2 * p - 2)) / (2 * p)
    return float(c1), float(c2)


def _line_floats(path, lineno: int, line: str) -> list:
    """The finite floats of line ``lineno`` of ``path``; errors name both."""
    vals = []
    for tok in line.split():
        try:
            vals.append(float(tok))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not math.isfinite(vals[-1]):
            raise ValueError(f"{path}:{lineno}: entry {tok!r} is not finite")
    return vals


def load_regression_data(path):
    """Read (A, b) from plain text: first line "n d", then n rows of d
    floats, then b on one final line; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty data file")
    lineno, header = lines[0]
    shape = re.fullmatch(r"([1-9]\d*)\s+([1-9]\d*)", header)
    if shape is None:
        raise ValueError(f"{path}:{lineno}: first line must be 'n d' with "
                         f"integers n, d >= 1, got {header!r}")
    n, d = map(int, shape.groups())
    if len(lines) != n + 2:
        raise ValueError(
            f"{path}: expected {n} matrix rows plus b, found {len(lines) - 1} lines")
    rows = []
    for lineno, ln in lines[1:n + 1]:
        vals = _line_floats(path, lineno, ln)
        if len(vals) != d:
            raise ValueError(f"{path}:{lineno}: expected {d} values, got {len(vals)}")
        rows.append(vals)
    lineno, ln = lines[n + 1]
    b_vals = _line_floats(path, lineno, ln)
    if len(b_vals) != n:
        raise ValueError(
            f"{path}:{lineno}: b must have {n} values, got {len(b_vals)}")
    return np.array(rows, dtype=np.float64), np.array(b_vals, dtype=np.float64)
