"""Executable checks for the inequalities the solver and oracles promise.

Every check is deterministic given its sample spec, reports violations
instead of raising on bad numerics, and renders as a plain-text key-value
block.  Sampling uses numpy's PCG64 generator; the identifier is recorded
in each report so sample sets can be regenerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (_NORMAL_FLOOR, GradientOracle, Lfso, RPolicy, RunTrace,
                   SolverConfig, _whole_count, euclidean_norm, row_dots,
                   run_lfso_gd)
from .errors import (AssumptionUnmetError, InsufficientDataError,
                     MissingDiagnosticsError)
from .problems import CompositionProblem, LpRegressionProblem, QuarticProblem

GENERATOR_ID = "numpy-pcg64"

# Positive values below this are treated as underflow and cut from rate fits.
RATE_FLOOR = 1e-300

# Size of the buffer that holds one column block of every stored iterate
# in the Q-linear check.
_QLINEAR_BLOCK_BYTES = 1 << 20

# The sampling checks evaluate row forms where a pair supplies them, and
# then also send every 17th sample, the first included, through the scalar
# callables (59 of 1000 validity samples, 2 of 32 monotone samples); the
# validity check sends the same samples through the solver's fast forms,
# ``evaluate``, ``fast_bound`` and ``at``, where the pair has them.  Any
# bit difference is a violation.
_CROSS_CHECK_STRIDE = 17


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan: how many points, from where."""

    num_points: int = 1000
    seed: int = 0
    x_box: tuple = (-2.0, 2.0)
    r_range: tuple = (0.1, 2.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_points",
                           _whole_count("num_points", self.num_points))
        for label, (low, high) in (("x_box", self.x_box),
                                   ("r_range", self.r_range)):
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError(f"{label} endpoints must be finite, "
                                 f"got {(low, high)}")
        if not self.x_box[0] < self.x_box[1]:
            raise ValueError(f"x_box must be (low, high), got {self.x_box}")
        if not (0.0 < self.r_range[0] < self.r_range[1]):
            raise ValueError(f"r_range must be (low > 0, high), got {self.r_range}")


@dataclass
class RateFit:
    """Least-squares fit of ln(value_k) against k over a tail window."""

    slope: float
    r_squared: float
    window: tuple


@dataclass
class CheckReport:
    """Outcome of one check: a violation count plus summary statistics."""

    name: str
    violations: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def render(self) -> str:
        lines = [f"[{self.name}]"]
        for key, value in self.stats.items():
            lines.append(f"{key} = {value}")
        lines.append(f"violations = {self.violations}")
        lines.append(f"status = {'ok' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _rows_differing(scalar: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each row of two float64 arrays differs in any bit (so 0.0
    differs from -0.0, and a NaN equals the same NaN)."""
    return (scalar.view(np.uint64) != rows.view(np.uint64)).any(axis=1)


def _or_inf(fn: Callable, *args):
    """``fn(*args)``, or inf where it raises ``OverflowError``."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _scalar_values(problem: GradientOracle, oracle: Lfso, xs, radii, ys,
                   picks: np.ndarray) -> np.ndarray:
    """Row j holds grad f(x), f(x), L(x, R) and f(y) of sample ``picks[j]``
    from the scalar callables, called in the order
    :func:`check_lfso_validity` states; a call that overflows gives inf."""
    values = np.empty((len(picks), problem.dim + 3))
    for row, i in zip(values, picks.tolist()):
        x = xs[i]
        row[:-3] = _or_inf(problem.grad, x)
        row[-3] = _or_inf(problem.eval, x)
        row[-2] = _or_inf(oracle.eval, x, radii[i])
        row[-1] = _or_inf(problem.eval, ys[i])
    return values


def _fast_differing(problem: GradientOracle, oracle: Lfso, xs, radii,
                    picks: np.ndarray, scalar: np.ndarray) -> np.ndarray:
    """Whether a value the solver takes from a fast form differs in any bit
    from its scalar callable's, for each sample of ``picks``.  The fast
    forms get one ``shared`` dict per sample and are called in the solver
    loop's order: ``problem.evaluate`` for grad f(x) and f(x), then
    ``problem.fast_bound`` for the gradient-norm bound, then ``oracle.at``
    for L(x, R).  ``scalar`` holds the scalar grad f(x), f(x) and L(x, R)
    of each sample in its leading columns; the scalar bound is formed
    here.  A call that overflows gives inf."""
    picks = picks.tolist()
    bound = problem.fast_bound
    want = scalar[:, :problem.dim + 2]
    if bound is not None:
        want = np.column_stack((want, [_or_inf(problem.grad_norm_bound, xs[i])
                                       for i in picks]))
    got = want.copy()
    for row, i in zip(got, picks):
        x, r, shared = xs[i], radii[i], {}
        if problem.evaluate is not None:
            try:
                f, g = problem.evaluate(x, shared)
            except OverflowError:
                f = g = math.inf
            row[:problem.dim] = g
            row[problem.dim] = f
        if bound is not None:
            row[-1] = _or_inf(bound, x, shared)
        if oracle.at is not None:
            row[problem.dim + 1] = _or_inf(lambda: oracle.at(x, shared)(r))
    return _rows_differing(want, got)


def _validity_samples(spec: SampleSpec, d: int):
    """The (X, R, Y) samples of :func:`check_lfso_validity`: n x d centres,
    the n radii as a list and the n x d ball points."""
    rng = np.random.default_rng(spec.seed)
    n = spec.num_points
    xs = rng.uniform(spec.x_box[0], spec.x_box[1], (n, d))
    radii = rng.uniform(spec.r_range[0], spec.r_range[1], n).tolist()
    dirs = rng.standard_normal((n, d))
    shrinks = rng.uniform(size=n).tolist()
    dir_sq = row_dots(dirs, dirs)
    zero = dir_sq == 0.0
    if zero.any():
        dirs[zero] = 1.0
        dir_sq[zero] = float(d)
    inv_d = 1.0 / d
    # U_i^(1/d) per sample in Python floats (C pow); numpy's vectorised
    # power may round differently
    scales = [radius * u ** inv_d / nv for radius, u, nv in
              zip(radii, shrinks, np.sqrt(dir_sq).tolist())]
    ys = xs + np.array(scales)[:, None] * dirs
    return xs, radii, ys


def check_lfso_validity(problem: GradientOracle, oracle: Lfso,
                        spec: SampleSpec, name: str = "lfso-validity") -> CheckReport:
    """Sample (x, R, y in B(x, R)) triples and test the remainder bound

        |f(y) - f(x) - grad f(x)^T (y - x)| <= L(x, R)/2 * ||y - x||^2.

    The n = ``spec.num_points`` samples are drawn as four blocks, in this
    order: the centres X ~ U(x_box)^(n x d), the radii R ~ U(r_range)^n,
    the directions V ~ N(0, 1)^(n x d) and U ~ U(0, 1)^n.  Row i gives the
    uniform ball point y_i = x_i + (R_i U_i^(1/d) / ||v_i||) v_i, with a
    zero row of V replaced by ones.

    Comparisons carry a 1e-10 relative slack plus an absolute floor sized
    to the float cancellation in evaluating the left side.

    Every sample calls grad f(x), f(x), L(x, R) and f(y), in that order.
    When the objective has ``eval_rows`` and ``grad_rows`` and the oracle
    has ``eval_rows``, the samples are evaluated as rows instead, and a
    stride of them also through the scalar callables: a sample whose
    values differ in any bit is a violation.  The same stride of samples
    goes through the solver's fast forms, ``problem.evaluate``,
    ``problem.fast_bound`` and ``oracle.at``, where the pair has them, with
    one ``shared`` dict per sample, and a value that differs in any bit
    from its scalar callable's is a violation too.  So is a sample any of whose
    values is NaN or infinite, from a call that raised
    ``OverflowError`` or from overflow (huge radii).  ``violations`` counts
    each failing sample once, so it never exceeds ``spec.num_points``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xs, radii, ys = _validity_samples(spec, problem.dim)
        diffs = ys - xs
        failed = np.zeros(spec.num_points, dtype=bool)
        picks = np.arange(0, spec.num_points, _CROSS_CHECK_STRIDE)
        if (problem.eval_rows is None or problem.grad_rows is None
                or oracle.eval_rows is None):
            values = _scalar_values(problem, oracle, xs, radii, ys,
                                    np.arange(spec.num_points))
            scalar = values[picks]
        else:
            values = np.column_stack((
                problem.grad_rows(xs), problem.eval_rows(xs),
                oracle.eval_rows(xs, np.array(radii)),
                problem.eval_rows(ys))).astype(np.float64, copy=False)
            scalar = _scalar_values(problem, oracle, xs, radii, ys, picks)
            failed[picks] = _rows_differing(scalar, values[picks])
        if (problem.evaluate is not None or problem.fast_bound is not None
                or oracle.at is not None):
            failed[picks] |= _fast_differing(problem, oracle, xs, radii,
                                             picks, scalar)
        lin = row_dots(values[:, :-3], diffs)
        fx, lvals, fy = values[:, -3], values[:, -2], values[:, -1]
        rhs = 0.5 * lvals * row_dots(diffs, diffs)
        lhs = np.abs(fy - fx - lin)
        eps = float(np.finfo(np.float64).eps)
        noise = 8.0 * eps * (np.abs(fx) + np.abs(fy) + np.abs(lin)) + 1e-300
        # as in a running max from 0.0, a NaN ratio is never the worst
        worst_ratio = float(np.fmax.reduce(lhs / (rhs + noise), initial=0.0))
        failed |= (~np.isfinite(values).all(axis=1)
                   | (lhs > rhs * (1.0 + 1e-10) + noise))
    return CheckReport(name=name, violations=int(failed.sum()), stats={
        "generator": GENERATOR_ID,
        "seed": spec.seed,
        "samples": spec.num_points,
        "worst_ratio": worst_ratio,
    })


def check_monotone_in_R(oracle: Lfso, spec: SampleSpec, dim: int,
                        name: str = "monotone-in-R") -> CheckReport:
    """On sampled x and 12 radii R_i log-spaced over ``spec.r_range``,
    require L(x, R_i) <= L(x, R_{i+1}) * (1 + 1e-14).

    Each drop is a violation.  An oracle with ``eval_rows`` is evaluated
    at all samples per grid radius, and a stride of the samples is also
    evaluated through ``oracle.eval``; each sample whose values differ in
    any bit counts as one violation.  So does each sample with a NaN or
    infinite value on the grid, from a call that raised ``OverflowError``
    or a row form that overflowed, whose drops are not counted as well."""
    rng = np.random.default_rng(spec.seed)
    low, high = spec.x_box
    grid = np.geomspace(spec.r_range[0], spec.r_range[1], 12).tolist()
    xs = rng.uniform(low, high, (spec.num_points, dim))

    def scalar_values(points):
        return np.array([[_or_inf(oracle.eval, x, r) for r in grid]
                         for x in points], dtype=np.float64)

    failed = np.zeros(spec.num_points, dtype=bool)
    if oracle.eval_rows is None:
        values = scalar_values(xs)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.column_stack([
                oracle.eval_rows(xs, np.full(len(xs), r))
                for r in grid]).astype(np.float64, copy=False)
        picks = np.arange(0, spec.num_points, _CROSS_CHECK_STRIDE)
        failed[picks] = _rows_differing(scalar_values(xs[picks]), values[picks])
    non_finite = ~np.isfinite(values).all(axis=1)
    lo_vals, hi_vals = values[:, :-1], values[:, 1:]
    drops = (lo_vals > hi_vals * (1.0 + 1e-14)) & ~non_finite[:, None]
    violations = int(np.count_nonzero(failed | non_finite) + drops.sum())
    worst_drop = float(np.max(lo_vals[drops] - hi_vals[drops], initial=0.0))
    return CheckReport(name=name, violations=violations, stats={
        "generator": GENERATOR_ID,
        "seed": spec.seed,
        "samples": spec.num_points,
        "grid_size": len(grid),
        "worst_drop": worst_drop,
    })


def check_trace(trace: RunTrace, eta: float,
                name: str = "trace") -> CheckReport:
    """Check a solver trace against the per-step guarantees:

    - quantified descent: f(x_k) - f(x_{k+1}) >= eta(2-eta)/(2 L_k) ||g_k||^2
      up to relative slack 1e-12 (absolute floor 1e-300),
    - step containment: ||x_{k+1} - x_k|| <= R~_k,
    - radius inflation: R~_k >= R_k,
    - monotone objective values.

    Only oracle-driven traces qualify; baseline rows use sentinel radii.
    """
    if trace.algorithm != "lfso":
        raise ValueError("check_trace expects a trace from run_lfso_gd")
    f_values = trace.f_values()
    violations = 0
    worst_descent = float("inf")
    worst_containment = 0.0
    for idx, rec in enumerate(trace.records):
        f_cur, f_next = f_values[idx], f_values[idx + 1]
        slack = 1e-12 * abs(f_cur) + 1e-300
        scale = eta * (2.0 - eta) / (2.0 * rec.l_k)
        try:
            square = rec.grad_norm ** 2
        except OverflowError:
            square = math.inf
        if _NORMAL_FLOOR <= square < math.inf:
            gain = scale * square
        else:
            # ||g_k||^2 alone over- or underflows though the gain may not
            gain = scale * rec.grad_norm * rec.grad_norm
        margin = (f_cur - f_next) - gain
        worst_descent = min(worst_descent, margin)
        if margin < -slack:
            violations += 1
        if f_next > f_cur + slack:
            violations += 1
        if rec.step_norm > rec.r_tilde_k * (1.0 + 1e-14) + 1e-300:
            violations += 1
        worst_containment = max(worst_containment,
                                rec.step_norm - rec.r_tilde_k)
        if rec.r_tilde_k < rec.r_k:
            violations += 1
    return CheckReport(name=name, violations=violations, stats={
        "steps": len(trace.records),
        "worst_descent_margin": worst_descent if trace.records else 0.0,
        "worst_containment_excess": worst_containment,
        "termination": trace.termination.value,
    })


def check_quartic_threshold(name: str = "quartic-threshold") -> CheckReport:
    """On the shipped quartic pair at x = 1, eta = 1, bisect to 1e-12 for
    the radius where the raw step ||grad f(x)|| / L(x, R) equals R, the
    root of 6 R^3 + 6 R - 1; confirm the raw step leaves the ball below the
    root and stays inside above it; and take one solver step from each of
    50 radii in [1e-3, root], whose inflated radius must hold the step."""
    problem = QuarticProblem()
    objective, oracle = problem.objective(), problem.lfso()
    x = np.array([1.0])
    grad_norm = euclidean_norm(objective.grad(x))
    raw_step = lambda r: grad_norm / oracle.eval(x, r)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if raw_step(mid) > mid:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    violations = int(not 0.162375 <= root <= 0.162385)
    violations += sum(not raw_step(f * root) > f * root for f in (0.9, 0.99))
    violations += sum(not raw_step(f * root) < f * root for f in (1.01, 1.1))
    restored = 0
    radii = np.geomspace(1e-3, root, 50)
    for r in radii:
        config = SolverConfig(r_policy=RPolicy.constant(float(r)), max_iters=1)
        rec = run_lfso_gd(oracle, objective, x, config).records[0]
        restored += rec.step_norm <= rec.r_tilde_k * (1.0 + 1e-14)
    violations += len(radii) - restored
    return CheckReport(name=name, violations=violations, stats={
        "root": root,
        "gap_at_root": raw_step(root) - root,
        "restored_radii": restored,
        "tested_radii": len(radii),
    })


def check_composition_run(problem: CompositionProblem, trace: RunTrace,
                          eta: float,
                          name: str = "composition-run") -> CheckReport:
    """For a composition run with R_k = ||grad g(x_k)||, check the inflation
    factor D_k = R~_k / ||grad g(x_k)|| stays in [1, max(1, eta/l_g)] and
    the effective inner stepsize eta h'(g(x_k)) / L_k never exceeds
    eta / l_g.  Reports the smallest effective stepsize seen.

    Both quantities are derived from the stored iterates, so the run needs
    ``keep_iterates=True``; a record whose R_k is not ||grad g(x_k)|| raises
    :class:`MissingDiagnosticsError`."""
    if trace.algorithm != "lfso":
        raise ValueError("check_composition_run expects a trace from run_lfso_gd")
    if trace.iterates is None:
        raise MissingDiagnosticsError(
            "trace lacks iterates; run with keep_iterates=True")
    d_cap = max(1.0, eta / problem.l_g)
    eff_cap = eta / problem.l_g
    violations = 0
    min_eff = float("inf")
    max_d = 0.0
    for rec, x in zip(trace.records, trace.iterates):
        if rec.r_k != euclidean_norm(problem.g.grad(x)):
            raise MissingDiagnosticsError(
                f"R_k at k={rec.k} is not ||grad g(x_k)||; "
                "run with RPolicy.grad_g_norm(problem.g.grad)")
        inflation = rec.r_tilde_k / rec.r_k
        max_d = max(max_d, inflation)
        if not (1.0 - 1e-12 <= inflation <= d_cap + 1e-12):
            violations += 1
        eff = eta * float(problem.h_prime(float(problem.g.eval(x)))) / rec.l_k
        min_eff = min(min_eff, eff)
        if eff > eff_cap * (1.0 + 1e-12):
            violations += 1
    return CheckReport(name=name, violations=violations, stats={
        "steps": len(trace.records),
        "d_cap": d_cap,
        "max_d": max_d,
        "min_effective_step": min_eff if trace.records else 0.0,
        "effective_step_cap": eff_cap,
    })


def check_holder(spec: SampleSpec, t_values: Sequence[float],
                 name: str = "power-mean") -> CheckReport:
    """Sample real tuples and check |sum x_i|^t <= m^{t-1} sum |x_i|^t
    for each t >= 1."""
    for t in t_values:
        if t < 1.0:
            raise ValueError(f"t values must be >= 1, got {t}")
    rng = np.random.default_rng(spec.seed)
    low, high = spec.x_box
    violations = 0
    worst_ratio = 0.0
    for _ in range(spec.num_points):
        m = int(rng.integers(1, 9))
        x = rng.uniform(low, high, m)
        for t in t_values:
            lhs = abs(float(np.sum(x))) ** t
            rhs = m ** (t - 1.0) * float(np.sum(np.abs(x) ** t))
            if rhs > 0:
                worst_ratio = max(worst_ratio, lhs / rhs)
            if lhs > rhs * (1.0 + 1e-12) + 1e-300:
                violations += 1
    return CheckReport(name=name, violations=violations, stats={
        "generator": GENERATOR_ID,
        "seed": spec.seed,
        "samples": spec.num_points,
        "t_values": list(t_values),
        "worst_ratio": worst_ratio,
    })


def _window(values: Sequence[float]):
    usable = []
    for v in values:
        if not v > RATE_FLOOR:
            break
        usable.append(float(v))
    n = len(usable)
    start = n // 2
    return usable[start:], start, n


def fit_linear_rate(values: Sequence[float]) -> RateFit:
    """Fit ln(value_k) against k over the tail window: the sequence is cut
    at its first value not above ``RATE_FLOOR``, and the window is the last
    half of what remains, from index floor(n/2) of those n values.  Needs
    at least 3 points in the window."""
    return _fit_tail(values, lambda ks: ks)


def fit_powerlaw_rate(values: Sequence[float]) -> RateFit:
    """Fit ln(value_k) against ln(k + 1) over the same tail window; a high
    r_squared here with a poor log-linear fit signals a sublinear decay."""
    return _fit_tail(values, lambda ks: np.log(ks + 1.0))


def _fit_tail(values: Sequence[float],
              abscissa: Callable[[np.ndarray], np.ndarray]) -> RateFit:
    """Least-squares line through (abscissa(k), ln value_k) over the tail
    window of ``values``."""
    window, start, n = _window(values)
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
    return RateFit(slope=float(coef[0]), r_squared=r_squared,
                   window=(start, n - 1))


def classify_rate(values: Sequence[float]) -> str:
    """Label a decay sequence from the fits over the tail window of
    :func:`fit_linear_rate`: "exact" if it dies within two recorded
    values, "linear" if the tail log-linear fit has R^2 >= 0.99, beats the
    power-law fit and falls, "sublinear" if the power-law fit wins and
    falls.  A tail that does not fall (constant or growing), and a sequence
    too short to fit that never dies, is "indeterminate"."""
    _, _, n = _window(values)
    if n <= 2 and n < len(values):
        return "exact"
    try:
        lin = fit_linear_rate(values)
        power = fit_powerlaw_rate(values)
    except InsufficientDataError:
        return "indeterminate"
    if (lin.r_squared >= 0.99 and lin.r_squared >= power.r_squared
            and lin.slope < 0.0):
        return "linear"
    if power.r_squared > lin.r_squared and power.slope < 0.0:
        return "sublinear"
    return "indeterminate"


def _residual_norms(a: np.ndarray, b: np.ndarray, iterates: Sequence) -> list:
    """``||A x_k - b||_2`` of every iterate, from one pass over A.

    The columns of A are taken in blocks J; each block of every iterate,
    ``x_k[J]``, is copied into one reused K x |J| buffer of at most
    ``_QLINEAR_BLOCK_BYTES``, and one matrix product adds its share to all
    K residuals at once.  This reads A once where K matrix-vector products
    would read it K times.  On A = I with d columns in one block the sums
    are exact, so the norms equal those of ``A.dot(x_k) - b`` bit for bit.
    """
    count = len(iterates)
    d = a.shape[1]
    width = min(d, max(1, _QLINEAR_BLOCK_BYTES // (8 * max(1, count))))
    res = np.zeros((count, a.shape[0]))
    buf = np.empty((count, width))
    for start in range(0, d, width):
        stop = min(start + width, d)
        block = buf[:, :stop - start]
        for row, x in zip(block, iterates):
            row[:] = x[start:stop]
        res += block @ a[:, start:stop].T
    res -= b
    return [float(np.linalg.norm(row)) for row in res]


def check_regression_qlinear(problem: LpRegressionProblem, trace: RunTrace,
                             name: str = "regression-qlinear") -> CheckReport:
    """Measure the worst per-step residual contraction ratio
    rho = max_k ||r_{k+1}||_2 / ||r_k||_2 over a regression trace and
    require rho < 1.  Needs the stored iterates; their residuals come from
    one pass over A in column blocks (:func:`_residual_norms`), not from
    the solver's one product ``A.dot(x_k)`` per iterate, which reads A
    once per iterate.

    Raises :class:`AssumptionUnmetError` when the conditioning requirement
    cond(A)^4 < n/(n-1) fails, since the guarantee does not apply.
    """
    if not problem.theory_ok:
        raise AssumptionUnmetError(
            f"cond(A)^4 = {problem.cond ** 4:.6g} is not below n/(n-1); "
            "Q-linear check skipped")
    if trace.iterates is None:
        raise MissingDiagnosticsError(
            "trace lacks iterates; run with keep_iterates=True")
    norms = _residual_norms(problem.a, problem.b, trace.iterates)
    violations = 0
    rho = 0.0
    ratios = 0
    for cur, nxt in zip(norms, norms[1:]):
        if cur == 0.0:
            break
        ratio = nxt / cur
        rho = max(rho, ratio)
        ratios += 1
        if ratio >= 1.0:
            violations += 1
    return CheckReport(name=name, violations=violations, stats={
        "steps": ratios,
        "rho": rho,
        "initial_residual": norms[0] if norms else 0.0,
        "final_residual": norms[-1] if norms else 0.0,
    })
