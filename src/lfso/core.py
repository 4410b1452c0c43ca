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
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteValueError, ShapeMismatchError, ZeroOracleError

Vector = np.ndarray

# Smallest positive normal float64; a gradient norm below it is subnormal.
_NORMAL_FLOOR = float(np.finfo(np.float64).tiny)


def as_vector(values) -> Vector:
    """Coerce to a finite 1-D float64 array of length >= 1."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ShapeMismatchError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValueError("vector entries must be finite")
    return x


def _abs_max(v: Vector) -> float:
    """``max |v_i|`` with the bits of ``np.max(np.abs(v), initial=0.0)``:
    the scan of :func:`euclidean_norm`.  ``argmax`` finds the same entry
    in about half the time on short vectors; an empty ``v``, and a NaN,
    whose payload the reduction may change, take the reduction."""
    a = np.abs(v)
    if a.size:
        m = float(a[a.argmax()])
        if m == m:
            return m
    return float(np.maximum.reduce(a, initial=0.0))


def euclidean_norm(v: Vector) -> float:
    """2-norm of a 1-D float vector, with rescaling outside [1e-140, 1e140],
    where squaring the entries would under- or overflow and report a
    spurious 0 or inf.

    Inside that range it is ``sqrt(v . v)``, the expression NumPy's
    ``linalg.norm`` evaluates for a 1-D vector, so the bits are the same.
    The scan for the largest entry guards the dot product, which would
    raise an overflow warning on huge entries.
    """
    m = _abs_max(v)
    if m == 0.0 or 1e-140 < m < 1e140:
        return math.sqrt(v.dot(v))
    if not math.isfinite(m):
        return m
    return m * float(np.linalg.norm(v / m))


# Bounds on s = v . v inside which euclidean_norm's scan is sure to pick
# sqrt(s), for v of n < 2**52 entries whose largest absolute entry is m.
# A rounded square, or a rounded sum of nonnegative terms, is never below
# any of its terms, so m >= 1e140 gives s >= fl(1e140 * 1e140).  For
# 0 < m <= 1e-140 every rounded square is at most T = fl(1e-140 * 1e-140),
# and each of the dot's n roundings grows its value by a factor of at most
# 1 + 2**-53, plus at most 2**-1075 where it is subnormal, so s < 2 n T.
_DOT_HIGH = 1e140 * 1e140
_DOT_LOW = 2.0 * (1e-140 * 1e-140)


def _loop_norm(v: Vector) -> float:
    """:func:`euclidean_norm` of ``v``, bit for bit, for a caller under
    ``np.errstate(over="raise")``: ``sqrt(v . v)`` when ``v . v`` lies in
    the range where the scan would take it, without the scan; any other
    ``v . v``, NaN included, or an overflowing one goes through
    :func:`euclidean_norm`."""
    try:
        s = v.dot(v)
    except FloatingPointError:
        return euclidean_norm(v)
    if v.size * _DOT_LOW < s < _DOT_HIGH:
        return math.sqrt(s)
    return euclidean_norm(v)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` of every row pair, each from the same dot kernel a
    single ``u @ v`` of 1-D vectors uses (``matmul`` of a 1 x d row by its
    d x 1 column)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def each_float(fn: Callable[[float], float], ts: np.ndarray) -> np.ndarray:
    """``float(fn(t))`` for every entry ``t`` of a 1-D array, each passed as
    a Python float: the row form of a scalar callable, bit for bit.

    A ``fn`` with a ``rows`` attribute gets the whole float64 array in one
    call ``fn.rows(ts)``, which must return those values bit for bit as a
    float64 array; any other ``fn`` is called once per entry."""
    ts = np.asarray(ts, dtype=np.float64)
    rows = getattr(fn, "rows", None)
    if rows is not None:
        return rows(ts)
    return np.array([float(fn(t)) for t in ts.tolist()])


def euclidean_norm_rows(v: np.ndarray) -> np.ndarray:
    """:func:`euclidean_norm` of every row of a 2-D array, bit for bit.

    Rows whose largest entry lies in the plain range take ``sqrt`` of
    :func:`row_dots`, the kernel of ``v . v``; the others go through
    :func:`euclidean_norm` one at a time.
    """
    m = np.abs(v).max(axis=1, initial=0.0)
    plain = (m == 0.0) | ((m > 1e-140) & (m < 1e140))
    if plain.all():
        return np.sqrt(row_dots(v, v))
    norms = np.empty(len(v))
    norms[plain] = np.sqrt(row_dots(v[plain], v[plain]))
    norms[~plain] = [euclidean_norm(row) for row in v[~plain]]
    return norms


def shared_key(name: str, *operands) -> tuple:
    """The key under which a reader stores its value in a step's ``shared``
    dict: ``name`` and the ids of its operands.  A reader forms it once,
    when it is built, and holds its operands, so while the reader lives no
    other object takes their ids and readers on other operands never read
    its value."""
    return (name, *map(id, operands))


def residual(a: np.ndarray, b: Vector, x: Vector) -> Vector:
    """``A x - b`` as a read-only array."""
    r = a.dot(np.asarray(x)) - b
    r.setflags(write=False)
    return r


def residual_inf_reader(a: np.ndarray, b: Vector) -> Callable:
    """``(x, shared) -> ||A x - b||_inf``, stored in ``shared`` and formed
    from the residual ``A x - b`` found there, where a reader on the same
    ``a`` and ``b`` (the objective's ``evaluate``) left it.  So the radius
    policy, the gradient-norm bound and the oracle of one regression step
    scan one residual, and make no product with A of their own.  ``a`` and
    ``b`` must not change in place while in use."""
    res_key = shared_key("residual", a, b)
    inf_key = shared_key("residual-inf", a, b)

    def read(x: Vector, shared: dict) -> float:
        r_inf = shared.get(inf_key)
        if r_inf is None:
            r = shared.get(res_key)
            if r is None:
                r = shared[res_key] = residual(a, b, x)
            r_inf = shared[inf_key] = _abs_max(r)
        return r_inf

    return read


def inner_grad_norm_reader(grad_g: Callable[[Vector], Vector]) -> Callable:
    """``(x, shared) -> ||grad_g(x)||_2``, stored in ``shared`` and formed
    from the ``grad_g(x)`` found there, where the composition objective's
    ``evaluate`` left it.  So the grad-g-norm radius and both oracle calls
    of a composition step take one norm, and ``grad_g`` is called once per
    iterate.  ``grad_g`` must be a pure function of ``x``."""
    grad_key = shared_key("grad-g", grad_g)
    norm_key = shared_key("grad-g-norm", grad_g)

    def read(x: Vector, shared: dict) -> float:
        norm = shared.get(norm_key)
        if norm is None:
            grad = shared.get(grad_key)
            if grad is None:
                grad = shared[grad_key] = grad_g(np.asarray(x))
            norm = shared[norm_key] = euclidean_norm(grad)
        return norm

    return read


@dataclass(frozen=True)
class GradientOracle:
    """First-order access to an objective: values, gradients, and an
    optional computable upper bound on the gradient norm.

    The solver reads the objective through two per-iterate forms, each
    handed one ``shared`` dict per iterate, where its readers leave values
    for each other (see :func:`shared_key`): ``evaluate(x, shared)``
    returns ``(eval(x), grad(x))`` and ``fast_bound(x, shared)`` returns
    ``grad_norm_bound(x)``, bit for bit.  A form not given is formed at
    construction, ``evaluate`` calling ``grad`` and then ``eval``, so only
    an objective without ``grad_norm_bound`` has ``fast_bound`` None.
    ``dataclasses.replace`` keeps formed forms too: a copy with new scalar
    callables passes None for a form to have it formed again from them.

    ``eval_rows(X)`` and ``grad_rows(X)``, when given, evaluate every row of
    a 2-D ``X`` at once: ``eval_rows(X)[i]`` and ``grad_rows(X)[i]`` must
    equal ``eval(X[i])`` and ``grad(X[i])`` bit for bit.  The solver never
    calls them; the sampling checks of :mod:`lfso.verify` do.
    """

    dim: int
    eval: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    grad_norm_bound: Optional[Callable[[Vector], float]] = None
    eval_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    evaluate: Optional[Callable[[Vector, dict], tuple]] = None
    fast_bound: Optional[Callable[[Vector, dict], float]] = None

    def __post_init__(self) -> None:
        bound = self.grad_norm_bound
        if self.fast_bound is None:
            if bound is not None:
                object.__setattr__(self, "fast_bound",
                                   lambda x, shared: bound(x))
        elif bound is None:
            raise ValueError("fast_bound stands in for grad_norm_bound, "
                             "which this objective does not have")
        if self.evaluate is None:
            value, gradient = self.eval, self.grad

            def evaluate(x: Vector, shared: dict) -> tuple:
                g = gradient(x)
                return value(x), g

            object.__setattr__(self, "evaluate", evaluate)


@dataclass(frozen=True)
class Lfso:
    """Local smoothness oracle: ``eval(x, R)`` bounds the Taylor remainder
    factor on ``B(x, R)`` and is non-decreasing in ``R``.

    ``at(x, shared)`` returns ``R -> eval(x, R)``, bit for bit; the solver
    calls it once per step and evaluates it at R_k and R~_k.  One not
    given is formed as ``functools.partial(eval, x)``, as the forms of
    :class:`GradientOracle` are.

    ``eval_rows(X, R)``, when given, returns ``eval(X[i], R[i])`` for every
    row of a 2-D ``X`` and entry of a 1-D ``R``, bit for bit.
    """

    eval: Callable[[Vector, float], float]
    eval_rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    at: Optional[Callable[[Vector, dict], Callable[[float], float]]] = None

    def __post_init__(self) -> None:
        if self.at is None:
            value = self.eval
            object.__setattr__(self, "at", lambda x, shared:
                               functools.partial(value, x))


@dataclass(frozen=True)
class RPolicy:
    """Rule producing the trial radius ``R_k`` from the current iterate.

    ``fast(x, shared)`` returns ``float(fn(x))`` bit for bit; the solver
    calls it in place of ``fn``.  One not given is formed as
    ``float(fn(x))``, as the forms of :class:`GradientOracle` are.
    ``kind`` names the rule for readers of a policy; nothing in the
    package branches on it."""

    kind: str
    fn: Callable[[Vector], float]
    fast: Optional[Callable[[Vector, dict], float]] = None

    def __post_init__(self) -> None:
        if self.fast is None:
            fn = self.fn
            object.__setattr__(self, "fast", lambda x, shared: float(fn(x)))

    def __call__(self, x: Vector) -> float:
        return float(self.fn(x))

    @staticmethod
    def constant(c: float) -> "RPolicy":
        if not (c > 0 and np.isfinite(c)):
            raise ValueError("constant radius must be positive and finite, "
                             f"got {c}")
        return RPolicy("constant", lambda x: c)

    @staticmethod
    def grad_g_norm(grad_g: Callable[[Vector], Vector]) -> "RPolicy":
        """R_k = ||grad g(x_k)||_2 for an inner function g."""
        read = inner_grad_norm_reader(grad_g)
        return RPolicy("grad-g-norm", lambda x: read(x, {}), read)

    @staticmethod
    def residual_inf_norm(a: np.ndarray, b: Vector) -> "RPolicy":
        """R_k = ||A x_k - b||_inf."""
        read = residual_inf_reader(np.asarray(a, dtype=np.float64),
                                   np.asarray(b, dtype=np.float64))
        return RPolicy("residual-inf", lambda x: read(x, {}), read)


def _whole_count(name: str, value) -> int:
    """``value`` as an int, if it is a whole number >= 1."""
    if not (value >= 1 and (isinstance(value, int)
                            or float(value).is_integer())):
        raise ValueError(f"{name} must be a whole number >= 1, got {value}")
    return int(value)


def _budget(max_iters, grad_tol: float) -> int:
    """Both solvers' check of their stopping settings; returns max_iters as
    an int."""
    max_iters = _whole_count("max_iters", max_iters)
    if not (grad_tol >= 0.0):
        raise ValueError(f"grad_tol must be >= 0, got {grad_tol}")
    return max_iters


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
        object.__setattr__(self, "max_iters",
                           _budget(self.max_iters, self.grad_tol))


class Termination(enum.Enum):
    """Why a run stopped, tested in this order at each iterate x_k:

    - ``max-iterations``: the budget of steps is spent;
    - ``stationary-exact``: grad f(x_k) is exactly 0;
    - ``gradient-tolerance``: ||grad f(x_k)|| <= grad_tol;
    - ``gradient-underflow``: 0 < ||grad f(x_k)|| < the smallest normal
      float64 (``np.finfo(float).tiny``).  A subnormal gradient has lost
      relative precision, so further steps would follow rounding, not f;
    - ``stalled``: x_k equals x_{k-1} bit for bit.  The step was lost to
      rounding, so every further step would repeat it.
    """

    GRADIENT_TOLERANCE = "gradient-tolerance"
    GRADIENT_UNDERFLOW = "gradient-underflow"
    MAX_ITERATIONS = "max-iterations"
    STATIONARY_EXACT = "stationary-exact"
    STALLED = "stalled"


@dataclass
class IterationRecord:
    """Per-iteration ledger row: state at x_k plus the step taken from it.

    Fixed-stepsize baseline rows use the sentinel ``r_k = r_tilde_k = 0``
    and the convention ``l_k = 1/eta`` so both solvers share one schema.
    The row holds only what the step computes; quantities of a particular
    problem class are derived from the stored iterates by the checks.
    """

    k: int
    f_val: float
    grad_norm: float
    r_k: float
    r_tilde_k: float
    l_k: float
    step_norm: float


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
    if not math.isfinite(value):
        raise NonFiniteValueError(f"{what} is not finite: {value}")
    return value


def _oracle_step(oracle: Lfso, bound: Optional[Callable[[Vector, dict], float]],
                 config: SolverConfig) -> Callable:
    """Step rule of the oracle-driven solver: the radius policy gives R_k,
    which is inflated to R~_k so the step stays inside B(x_k, R~_k), and the
    step is ``(eta / L(x_k, R~_k)) * grad f(x_k)``.  ``bound(x, shared)``,
    when given, stands in for ``||grad f(x_k)||`` in the inflation.  The
    policy is read through ``fast`` and the oracle is fixed at x_k once
    through ``at``, each with the step's ``shared`` dict."""
    eta, radius, at = config.eta, config.r_policy.fast, oracle.at

    def rule(x: Vector, g: Vector, grad_norm: float, shared: dict):
        r_k = radius(x, shared)
        big_g = grad_norm
        if bound is not None:
            big_g = _checked(bound(x, shared), "gradient-norm bound")
        if not 0.0 < r_k < math.inf:
            _checked(r_k, "radius R_k")
            raise ValueError(f"r_k must be positive, got {r_k}")
        oracle_at_x = at(x, shared)
        l_at_r = _checked(oracle_at_x(r_k), "oracle value L(x, R_k)")
        if l_at_r < 0:
            raise ValueError(f"oracle value must be >= 0, got {l_at_r}")
        if l_at_r == 0.0:
            raise ZeroOracleError(
                "L(x, R_k) = 0 at a point with nonzero gradient; "
                "the oracle does not match this objective")
        r_tilde = _checked(max(r_k, eta * big_g / l_at_r), "inflated radius")
        l_k = _checked(oracle_at_x(r_tilde), "oracle value L(x, R~_k)")
        if l_k < 0:
            raise ValueError(f"oracle value must be >= 0, got {l_k}")
        if l_k == 0.0:
            raise ZeroOracleError(
                "L(x, R~_k) = 0 at a point with nonzero gradient")
        stepsize = eta / l_k
        if stepsize == math.inf:  # eta / L > 0, so only inf is not finite
            raise NonFiniteValueError(
                "stepsize eta / L(x, R~_k) is not finite: inf")
        step = stepsize * g
        step_norm = _checked(_loop_norm(step), "step norm")
        return step, (float(r_k), r_tilde, l_k, step_norm)

    return rule


def _fixed_step(eta: float) -> Callable:
    """Step rule of the fixed-stepsize baseline: the step is
    ``eta * grad f(x_k)``, recorded with the sentinel row."""
    l_k = 1.0 / eta

    def rule(x: Vector, g: Vector, grad_norm: float, shared: dict):
        return eta * g, (0.0, 0.0, l_k, eta * grad_norm)

    return rule


def _descend(problem: GradientOracle, x0: Vector, rule: Callable,
             algorithm: str, max_iters: int, grad_tol: float,
             keep_iterates: bool) -> RunTrace:
    """The iteration both solvers share, and the one place that decides why
    a run stops (see :class:`Termination`).  Each iterate gets one
    ``shared`` dict, which the loop hands to every per-iterate form that
    reads the iterate.  Each iterate is evaluated once, by
    ``problem.evaluate``.  Where that fails, the loop calls ``grad``,
    checks the gradient norm, calls ``eval`` and checks its value, in that
    order, and then raises the error ``evaluate`` gave: so the run ends
    with the first error of the scalar callables, as long as ``grad``
    computes no objective value and ``eval`` no gradient.
    ``rule(x, g, grad_norm, shared)`` returns the step and the record's
    step fields in :class:`IterationRecord` order, from ``r_k`` on.  The
    evaluation of the last iterate gives the final values.
    Once ``max_iters`` steps are taken the run stops on the budget,
    whatever the gradient at the last iterate.  An iterate is compared with
    the one before only when its gradient norm is the same, so an iterate
    whose gradient norm changed costs no array comparison.  A non-finite
    value, an ``OverflowError`` or a numpy overflow in any callback ends
    the run in one :class:`NonFiniteValueError` naming ``algorithm`` and k."""
    x = as_vector(x0).copy()
    if x.size != problem.dim:
        raise ShapeMismatchError(
            f"x0 has dimension {x.size}, problem expects {problem.dim}")
    records = []
    iterates = [x.copy()] if keep_iterates else None
    termination = Termination.MAX_ITERATIONS
    last_x, last_grad_norm = None, math.nan
    evaluate = problem.evaluate
    try:
        with np.errstate(over="raise"):
            for k in range(max_iters + 1):
                shared = {}
                try:
                    f_val, g = evaluate(x, shared)
                except (NonFiniteValueError, OverflowError,
                        FloatingPointError):
                    # grad, its norm check and eval, in that order, say
                    # which value fails first
                    _checked(_loop_norm(problem.grad(x)), "gradient norm")
                    _checked(problem.eval(x), "objective value")
                    raise
                grad_norm = _checked(_loop_norm(g), "gradient norm")
                f_val = _checked(f_val, "objective value")
                if k == max_iters:
                    break
                if grad_norm == 0.0:
                    termination = Termination.STATIONARY_EXACT
                    break
                if grad_norm <= grad_tol:
                    termination = Termination.GRADIENT_TOLERANCE
                    break
                if grad_norm < _NORMAL_FLOOR:
                    termination = Termination.GRADIENT_UNDERFLOW
                    break
                if grad_norm == last_grad_norm and np.array_equal(x, last_x):
                    termination = Termination.STALLED
                    break
                step, fields = rule(x, g, grad_norm, shared)
                records.append(IterationRecord(k, f_val, grad_norm, *fields))
                last_x, last_grad_norm = x, grad_norm
                # finite: x and the step are, and an overflow raises
                x = x - step
                if keep_iterates:
                    iterates.append(x.copy())
    except (NonFiniteValueError, OverflowError, FloatingPointError) as exc:
        why = f"overflow {exc}" if isinstance(exc, OverflowError) else exc
        raise NonFiniteValueError(f"{algorithm} iteration "
                                  f"diverged at k={k}: {why}") from exc
    return RunTrace(records=records, final_x=x, termination=termination,
                    final_f=f_val, final_grad_norm=grad_norm,
                    iterates=iterates, algorithm=algorithm)


def run_lfso_gd(oracle: Lfso, problem: GradientOracle, x0: Vector,
                config: SolverConfig,
                keep_iterates: bool = False) -> RunTrace:
    """Run the oracle-driven solver from ``x0`` until the gradient tolerance
    is met, the gradient norm turns subnormal, the iterate is exactly
    stationary, a step leaves it unchanged, or the budget is exhausted (see
    :class:`Termination`).

    Each step reads ``problem.evaluate``, ``config.r_policy.fast``,
    ``oracle.at`` and, with ``config.use_grad_bound``, ``fast_bound``.

    ``keep_iterates`` stores every iterate on the trace, final point
    included; the composition and Q-linear checks read them.  Raises
    ``ValueError`` when ``config.use_grad_bound`` is set and ``problem``
    has no ``grad_norm_bound``, and :class:`NonFiniteValueError`, naming
    k, when the objective, gradient, gradient-norm bound, radius policy
    or oracle gives a non-finite value or overflows (see :func:`_descend`).
    An exact stationary point ends the run with no policy or oracle call.
    """
    bound = None
    if config.use_grad_bound:
        if problem.grad_norm_bound is None:
            raise ValueError("use_grad_bound needs an objective with a "
                             "grad_norm_bound; this one has none")
        bound = problem.fast_bound
    return _descend(problem, x0, _oracle_step(oracle, bound, config), "lfso",
                    config.max_iters, config.grad_tol, keep_iterates)


def run_fixed_gd(problem: GradientOracle, x0: Vector, eta: float,
                 max_iters: int = 10_000, grad_tol: float = 0.0,
                 keep_iterates: bool = False) -> RunTrace:
    """Fixed-stepsize baseline ``x_{k+1} = x_k - eta * grad f(x_k)``.

    Raises :class:`NonFiniteValueError`, naming k, if the iteration
    diverges: the objective or gradient is not finite, or the objective,
    gradient or next iterate overflows.  Trace rows use the sentinel
    ``r_k = r_tilde_k = 0`` and ``l_k = 1/eta``.
    """
    if not (eta > 0 and np.isfinite(eta)):
        raise ValueError(f"eta must be positive, got {eta}")
    return _descend(problem, x0, _fixed_step(eta), "fixed",
                    _budget(max_iters, grad_tol), grad_tol, keep_iterates)
