"""Gradient descent with stepsizes driven by a local smoothness oracle.

The oracle ``L(x, R)`` bounds the first-order Taylor remainder of the
objective on the ball of radius ``R`` around ``x`` and is non-decreasing in
``R``.  Each iteration picks a trial radius ``R_k``, inflates it to
``R~_k = max(R_k, eta * ||grad f(x_k)|| / L(x_k, R_k))`` so the next iterate
cannot leave the ball where the bound holds, and then moves by

    x_{k+1} = x_k - (eta / L(x_k, R~_k)) * grad f(x_k).

For ``0 < eta < 2`` every step strictly decreases the objective by at least
``eta * (2 - eta) / (2 L_k) * ||grad f(x_k)||^2``.  A fixed-stepsize baseline
sharing the same iteration loop and trace schema is included for comparison
runs.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (LfsoError, NonFiniteValueError, ShapeMismatchError,
                     ZeroOracleError)

Vector = np.ndarray


def as_vector(values) -> Vector:
    """Coerce to a finite 1-D float64 array of length >= 1."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ShapeMismatchError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValueError("vector entries must be finite")
    return x


def euclidean_norm(v: Vector) -> float:
    """2-norm with rescaling outside [1e-140, 1e140], where squaring the
    entries would under- or overflow and report a spurious 0 or inf."""
    m = float(np.abs(v).max(initial=0.0))
    if m == 0.0 or 1e-140 < m < 1e140:
        return float(np.linalg.norm(v))
    if not np.isfinite(m):
        return m
    return m * float(np.linalg.norm(v / m))


# (weakref A, weakref b, key of x, A x - b), read and replaced as one tuple so
# concurrent callers never see a torn entry.
_last_residual = None


def residual(a: np.ndarray, b: Vector, x: Vector) -> Vector:
    """``A x - b``, remembered for the last ``(A, b, x)`` asked about.

    The objective, gradient, gradient-norm bound, oracle and radius policy
    of a regression problem all read the residual of the same iterate, so
    one product with A serves them all.  A repeat call returns the
    remembered (read-only) array when ``a`` and ``b`` are the same objects
    and ``x`` has the same shape, dtype and bytes; the key is the value of
    ``x``, so an ``x`` changed in place is recomputed.  ``a`` and ``b`` must
    not change in place while in use.  They are held by weak reference, so
    the memo keeps no matrix alive.
    """
    global _last_residual
    x = np.asarray(x)
    key = (x.shape, x.dtype, x.tobytes())
    last = _last_residual
    if last is not None and last[0]() is a and last[1]() is b and last[2] == key:
        return last[3]
    r = a @ x - b
    r.setflags(write=False)
    _last_residual = (weakref.ref(a), weakref.ref(b), key, r)
    return r


@dataclass(frozen=True)
class GradientOracle:
    """First-order access to an objective: values, gradients, and an
    optional computable upper bound on the gradient norm."""

    dim: int
    eval: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    grad_norm_bound: Optional[Callable[[Vector], float]] = None


@dataclass(frozen=True)
class Lfso:
    """Local smoothness oracle: ``eval(x, R)`` bounds the Taylor remainder
    factor on ``B(x, R)`` and is non-decreasing in ``R``."""

    eval: Callable[[Vector, float], float]


@dataclass(frozen=True)
class RPolicy:
    """Rule producing the trial radius ``R_k`` from the current iterate."""

    kind: str
    fn: Callable[[Vector], float]

    def __call__(self, x: Vector) -> float:
        return float(self.fn(x))

    @staticmethod
    def constant(c: float) -> "RPolicy":
        if not (c > 0 and np.isfinite(c)):
            raise ValueError(f"constant radius must be positive, got {c}")
        return RPolicy("constant", lambda x: c)

    @staticmethod
    def grad_g_norm(grad_g: Callable[[Vector], Vector]) -> "RPolicy":
        """R_k = ||grad g(x_k)||_2 for an inner function g."""
        return RPolicy("grad-g-norm", lambda x: euclidean_norm(grad_g(x)))

    @staticmethod
    def residual_inf_norm(a: np.ndarray, b: Vector) -> "RPolicy":
        """R_k = ||A x_k - b||_inf, read from :func:`residual`."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return RPolicy("residual-inf",
                       lambda x: float(np.max(np.abs(residual(a, b, x)))))

    @staticmethod
    def callback(fn: Callable[[Vector], float]) -> "RPolicy":
        return RPolicy("callback", fn)


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.  ``eta`` must lie in (0, 2), the range in which the
    per-step descent guarantee holds.  ``use_grad_bound`` substitutes the
    problem's gradient-norm bound for the exact norm when inflating R_k."""

    r_policy: RPolicy
    eta: float = 1.0
    max_iters: int = 10_000
    grad_tol: float = 0.0
    use_grad_bound: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < 2.0):
            raise ValueError(f"eta must be in (0, 2), got {self.eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.grad_tol >= 0.0):
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")


class Termination(enum.Enum):
    GRADIENT_TOLERANCE = "gradient-tolerance"
    MAX_ITERATIONS = "max-iterations"
    STATIONARY_EXACT = "stationary-exact"
    ORACLE_ZERO = "oracle-zero"


@dataclass
class IterationRecord:
    """Per-iteration ledger row: state at x_k plus the step taken from it.

    Fixed-stepsize baseline rows use the sentinel ``r_k = r_tilde_k = 0``
    and the convention ``l_k = 1/eta`` so both solvers share one schema.
    ``d_k`` is ``R~_k / ||grad g(x_k)||`` on composition runs; ``g_val`` is
    the inner-function value when the caller asks for it.
    """

    k: int
    f_val: float
    grad_norm: float
    r_k: float
    r_tilde_k: float
    l_k: float
    step_norm: float
    d_k: Optional[float] = None
    g_val: Optional[float] = None


@dataclass
class RunTrace:
    """Full record of one solver run, including the final point."""

    records: list = field(default_factory=list)
    final_x: Vector = None
    termination: Termination = Termination.MAX_ITERATIONS
    final_f: float = float("nan")
    final_grad_norm: float = float("nan")
    iterates: Optional[list] = None
    algorithm: str = "lfso"

    @property
    def num_steps(self) -> int:
        return len(self.records)

    def f_values(self) -> list:
        """Objective values at x_0 .. x_K (K = number of steps taken)."""
        return [rec.f_val for rec in self.records] + [self.final_f]

    def grad_norms(self) -> list:
        return [rec.grad_norm for rec in self.records] + [self.final_grad_norm]

    def grad_ratios(self) -> list:
        """Gradient norms normalized by the starting gradient norm."""
        norms = self.grad_norms()
        g0 = norms[0]
        if g0 == 0.0:
            return [0.0 for _ in norms]
        return [g / g0 for g in norms]


def _checked(value: float, what: str) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise NonFiniteValueError(f"{what} is not finite: {value}")
    return value


def _call(fn: Callable, x: Vector, what: str):
    """Invoke a problem callback, mapping Python float overflow to the
    package's divergence error."""
    try:
        return fn(x)
    except OverflowError as exc:
        raise NonFiniteValueError(f"{what} overflowed: {exc}") from exc


class _OracleStep:
    """Step rule of the oracle-driven solver: the radius policy gives R_k,
    which is inflated to R~_k so the step stays inside B(x_k, R~_k), and the
    step is ``(eta / L(x_k, R~_k)) * grad f(x_k)``."""

    algorithm = "lfso"
    diverged = None

    def __init__(self, oracle: Lfso, problem: GradientOracle,
                 config: SolverConfig):
        self.oracle = oracle
        self.config = config
        self.bound = problem.grad_norm_bound if config.use_grad_bound else None

    def __call__(self, x: Vector, g: Vector, grad_norm: float):
        config, oracle = self.config, self.oracle
        r_k = config.r_policy(x)
        big_g = grad_norm
        if self.bound is not None:
            big_g = _checked(self.bound(x), "gradient-norm bound")
        if not (r_k > 0 and np.isfinite(r_k)):
            raise ValueError(f"r_k must be positive and finite, got {r_k}")
        l_at_r = _checked(oracle.eval(x, r_k), "oracle value L(x, R_k)")
        if l_at_r < 0:
            raise ValueError(f"oracle value must be >= 0, got {l_at_r}")
        if l_at_r == 0.0:
            raise ZeroOracleError(
                "L(x, R_k) = 0 at a point with nonzero gradient; "
                "the oracle does not match this objective")
        r_tilde = _checked(max(r_k, config.eta * big_g / l_at_r), "inflated radius")
        l_k = _checked(oracle.eval(x, r_tilde), "oracle value L(x, R~_k)")
        if l_k <= 0.0:
            raise ZeroOracleError(
                "L(x, R~_k) = 0 at a point with nonzero gradient")
        step = (config.eta / l_k) * g
        fields = dict(r_k=float(r_k), r_tilde_k=r_tilde, l_k=l_k,
                      step_norm=_checked(euclidean_norm(step), "step norm"))
        if config.r_policy.kind == "grad-g-norm":
            fields["d_k"] = r_tilde / float(r_k)
        return step, fields

    def stationary(self, x: Vector) -> Termination:
        """At an exact stationary point, report whether the oracle has also
        collapsed to zero there (degenerate minimizer) or is still positive."""
        try:
            r_probe = max(0.0, self.config.r_policy(x))
            l_probe = float(self.oracle.eval(x, r_probe))
        except (LfsoError, ValueError, ArithmeticError):
            return Termination.STATIONARY_EXACT
        if l_probe == 0.0:
            return Termination.ORACLE_ZERO
        return Termination.STATIONARY_EXACT


class _FixedStep:
    """Step rule of the fixed-stepsize baseline: the step is
    ``eta * grad f(x_k)``, recorded with the sentinel row."""

    algorithm = "fixed"

    def __init__(self, eta: float):
        self.eta = eta

    def __call__(self, x: Vector, g: Vector, grad_norm: float):
        eta = self.eta
        return eta * g, dict(r_k=0.0, r_tilde_k=0.0, l_k=1.0 / eta,
                             step_norm=eta * grad_norm)

    def stationary(self, x: Vector) -> Termination:
        return Termination.STATIONARY_EXACT

    def diverged(self, k: int) -> str:
        return f"fixed-step iteration diverged at k={k} (eta={self.eta})"


def _descend(problem: GradientOracle, x0: Vector, rule, max_iters: int,
             grad_tol: float, keep_iterates: bool,
             inner_value: Optional[Callable[[Vector], float]] = None) -> RunTrace:
    """The iteration both solvers share.  Each iterate is evaluated once;
    ``rule(x, g, grad_norm)`` returns the step and the record's step fields.
    The evaluation of the last iterate gives the final values.  Once
    ``max_iters`` steps are taken the run stops on the budget, whatever the
    gradient at the last iterate."""
    x = as_vector(x0).copy()
    if x.size != problem.dim:
        raise ShapeMismatchError(
            f"x0 has dimension {x.size}, problem expects {problem.dim}")
    records = []
    iterates = [x.copy()] if keep_iterates else None
    termination = Termination.MAX_ITERATIONS
    for k in range(max_iters + 1):
        try:
            g = _call(problem.grad, x, "gradient")
            grad_norm = _checked(euclidean_norm(g), "gradient norm")
            f_val = _checked(_call(problem.eval, x, "objective"), "objective value")
            if k == max_iters:
                break
            if grad_norm == 0.0:
                termination = rule.stationary(x)
                break
            if grad_norm <= grad_tol:
                termination = Termination.GRADIENT_TOLERANCE
                break
            step, fields = rule(x, g, grad_norm)
            next_x = x - step
            if not np.all(np.isfinite(next_x)):
                raise NonFiniteValueError("next iterate is not finite")
        except NonFiniteValueError as exc:
            if rule.diverged is None:
                raise
            raise NonFiniteValueError(f"{rule.diverged(k)}: {exc}") from exc
        record = IterationRecord(k=k, f_val=f_val, grad_norm=grad_norm, **fields)
        if inner_value is not None:
            record.g_val = float(inner_value(x))
        records.append(record)
        x = next_x
        if keep_iterates:
            iterates.append(x.copy())
    return RunTrace(records=records, final_x=x, termination=termination,
                    final_f=f_val, final_grad_norm=grad_norm,
                    iterates=iterates, algorithm=rule.algorithm)


def run_lfso_gd(oracle: Lfso, problem: GradientOracle, x0: Vector,
                config: SolverConfig,
                inner_value: Optional[Callable[[Vector], float]] = None,
                keep_iterates: bool = False) -> RunTrace:
    """Run the oracle-driven solver from ``x0`` until the gradient tolerance
    is met, the iterate is exactly stationary, or the budget is exhausted.

    ``inner_value``, when given, is evaluated at each iterate and stored on
    the record (used to diagnose composition runs).  ``keep_iterates``
    stores every iterate on the trace, final point included.
    """
    return _descend(problem, x0, _OracleStep(oracle, problem, config),
                    config.max_iters, config.grad_tol, keep_iterates,
                    inner_value)


def run_fixed_gd(problem: GradientOracle, x0: Vector, eta: float,
                 max_iters: int = 10_000, grad_tol: float = 0.0,
                 keep_iterates: bool = False) -> RunTrace:
    """Fixed-stepsize baseline ``x_{k+1} = x_k - eta * grad f(x_k)``.

    Raises :class:`NonFiniteValueError` if the iteration diverges.  Trace
    rows use the sentinel ``r_k = r_tilde_k = 0`` and ``l_k = 1/eta``.
    """
    if not (eta > 0 and np.isfinite(eta)):
        raise ValueError(f"eta must be positive, got {eta}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    return _descend(problem, x0, _FixedStep(eta), max_iters, grad_tol,
                    keep_iterates)
