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

from .core import Lfso, GradientOracle, RunTrace
from .errors import (AssumptionUnmetError, InsufficientDataError,
                     MissingDiagnosticsError)
from .problems import CompositionProblem, LpRegressionProblem

GENERATOR_ID = "numpy-pcg64"

# Positive values below this are treated as underflow and cut from rate fits.
RATE_FLOOR = 1e-300


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan: how many points, from where."""

    num_points: int = 1000
    seed: int = 0
    x_box: tuple = (-2.0, 2.0)
    r_range: tuple = (0.1, 2.0)

    def __post_init__(self) -> None:
        if self.num_points < 1:
            raise ValueError("num_points must be >= 1")
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


def _ball_point(rng: np.random.Generator, x: np.ndarray, radius: float) -> np.ndarray:
    """Uniform draw from the closed ball B(x, radius)."""
    d = x.size
    v = rng.standard_normal(d)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v = np.ones(d)
        nv = np.linalg.norm(v)
    u = rng.uniform() ** (1.0 / d)
    return x + (radius * u / nv) * v


def check_lfso_validity(problem: GradientOracle, oracle: Lfso,
                        spec: SampleSpec, name: str = "lfso-validity") -> CheckReport:
    """Sample (x, R, y in B(x, R)) triples and test the remainder bound

        |f(y) - f(x) - grad f(x)^T (y - x)| <= L(x, R)/2 * ||y - x||^2.

    Comparisons carry a 1e-10 relative slack plus an absolute floor sized
    to the float cancellation in evaluating the left side.
    """
    rng = np.random.default_rng(spec.seed)
    low, high = spec.x_box
    violations = 0
    worst_ratio = 0.0
    eps = float(np.finfo(np.float64).eps)
    for _ in range(spec.num_points):
        x = rng.uniform(low, high, problem.dim)
        radius = rng.uniform(spec.r_range[0], spec.r_range[1])
        y = _ball_point(rng, x, radius)
        diff = y - x
        dist_sq = float(diff @ diff)
        if dist_sq == 0.0:
            continue
        fx = float(problem.eval(x))
        fy = float(problem.eval(y))
        lin = float(problem.grad(x) @ diff)
        lhs = abs(fy - fx - lin)
        rhs = 0.5 * float(oracle.eval(x, radius)) * dist_sq
        noise = 8.0 * eps * (abs(fx) + abs(fy) + abs(lin)) + 1e-300
        ratio = lhs / (rhs + noise)
        worst_ratio = max(worst_ratio, ratio)
        if lhs > rhs * (1.0 + 1e-10) + noise:
            violations += 1
    return CheckReport(name=name, violations=violations, stats={
        "generator": GENERATOR_ID,
        "seed": spec.seed,
        "samples": spec.num_points,
        "worst_ratio": worst_ratio,
    })


def check_monotone_in_R(oracle: Lfso, spec: SampleSpec, dim: int,
                        grid_size: int = 12,
                        name: str = "monotone-in-R") -> CheckReport:
    """On sampled x and an increasing radius grid, require
    L(x, R_i) <= L(x, R_{i+1}) * (1 + 1e-14)."""
    rng = np.random.default_rng(spec.seed)
    low, high = spec.x_box
    grid = np.geomspace(spec.r_range[0], spec.r_range[1], grid_size)
    violations = 0
    worst_drop = 0.0
    for _ in range(spec.num_points):
        x = rng.uniform(low, high, dim)
        values = [float(oracle.eval(x, float(r))) for r in grid]
        for lo_val, hi_val in zip(values, values[1:]):
            if lo_val > hi_val * (1.0 + 1e-14):
                violations += 1
                worst_drop = max(worst_drop, lo_val - hi_val)
    return CheckReport(name=name, violations=violations, stats={
        "generator": GENERATOR_ID,
        "seed": spec.seed,
        "samples": spec.num_points,
        "grid_size": grid_size,
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
        gain = eta * (2.0 - eta) / (2.0 * rec.l_k) * rec.grad_norm ** 2
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


def quartic_containment_threshold(tol: float = 1e-12) -> float:
    """Radius below which the raw step of the scalar quartic at x = 1,
    eta = 1 leaves the trust ball: the root of 6 R^3 + 6 R - 1.

    The raw step has length 1/(6 + 6 R^2), so containment
    1/(6 + 6 R^2) <= R rearranges to 6 R^3 + 6 R - 1 >= 0.
    """
    poly = lambda r: 6.0 * r ** 3 + 6.0 * r - 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if poly(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_quartic_threshold(name: str = "quartic-threshold") -> CheckReport:
    """Locate the quartic containment threshold and confirm the raw step
    overshoots below it, stays contained above it, and that radius
    inflation restores containment for every tested radius below it."""
    violations = 0
    root = quartic_containment_threshold()
    if not (0.162375 <= root <= 0.162385):
        violations += 1
    raw_step = lambda r: 1.0 / (6.0 + 6.0 * r * r)
    for factor in (0.9, 0.99):
        if not raw_step(factor * root) > factor * root:
            violations += 1
    for factor in (1.01, 1.1):
        if not raw_step(factor * root) < factor * root:
            violations += 1
    restored = 0
    radii = np.geomspace(1e-3, root, 50)
    for r in radii:
        r_tilde = max(float(r), raw_step(float(r)))
        if raw_step(r_tilde) <= r_tilde * (1.0 + 1e-14):
            restored += 1
        else:
            violations += 1
    return CheckReport(name=name, violations=violations, stats={
        "root": root,
        "poly_at_root": 6.0 * root ** 3 + 6.0 * root - 1.0,
        "restored_radii": restored,
        "tested_radii": len(radii),
    })


def check_composition_run(problem: CompositionProblem, trace: RunTrace,
                          eta: float,
                          name: str = "composition-run") -> CheckReport:
    """For a composition run with R_k = ||grad g(x_k)||, check the inflation
    factor D_k = R~_k / ||grad g(x_k)|| stays in [1, max(1, eta/l_g)] and
    the effective inner stepsize eta h'(g(x_k)) / L_k never exceeds
    eta / l_g.  Reports the smallest effective stepsize seen."""
    if trace.algorithm != "lfso":
        raise ValueError("check_composition_run expects a trace from run_lfso_gd")
    d_cap = max(1.0, eta / problem.l_g)
    eff_cap = eta / problem.l_g
    violations = 0
    min_eff = float("inf")
    max_d = 0.0
    for rec in trace.records:
        if rec.d_k is None:
            raise MissingDiagnosticsError(
                "trace lacks d_k; run with the grad-g-norm radius policy")
        if rec.g_val is None:
            raise MissingDiagnosticsError(
                "trace lacks inner-function values; pass inner_value to the solver")
        max_d = max(max_d, rec.d_k)
        if not (1.0 - 1e-12 <= rec.d_k <= d_cap + 1e-12):
            violations += 1
        eff = eta * float(problem.h_prime(rec.g_val)) / rec.l_k
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


def _window(values: Sequence[float], window_fraction: float):
    if not (0.0 < window_fraction <= 1.0):
        raise ValueError(f"window_fraction must be in (0, 1], got {window_fraction}")
    usable = []
    for v in values:
        if not v > RATE_FLOOR:
            break
        usable.append(float(v))
    n = len(usable)
    start = int(math.floor(n * (1.0 - window_fraction)))
    return usable[start:], start, n


def fit_linear_rate(values: Sequence[float],
                    window_fraction: float = 0.5) -> RateFit:
    """Fit ln(value_k) against k over the tail window (the last
    ``window_fraction`` of the sequence, cut at the first underflowed
    value).  Needs at least 3 points."""
    return _fit_tail(values, window_fraction, lambda ks: ks)


def fit_powerlaw_rate(values: Sequence[float],
                      window_fraction: float = 0.5) -> RateFit:
    """Fit ln(value_k) against ln(k + 1) over the same tail window; a high
    r_squared here with a poor log-linear fit signals a sublinear decay."""
    return _fit_tail(values, window_fraction, lambda ks: np.log(ks + 1.0))


def _fit_tail(values: Sequence[float], window_fraction: float,
              abscissa: Callable[[np.ndarray], np.ndarray]) -> RateFit:
    """Least-squares line through (abscissa(k), ln value_k) over the tail
    window of ``values``."""
    window, start, n = _window(values, window_fraction)
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


def classify_rate(values: Sequence[float],
                  window_fraction: float = 0.5) -> str:
    """Label a decay sequence: "exact" if it dies within two recorded
    values, "linear" if the tail log-linear fit has R^2 >= 0.99 and beats
    the power-law fit, "sublinear" if the power-law fit wins."""
    _, _, n = _window(values, window_fraction)
    if n <= 2:
        return "exact"
    try:
        lin = fit_linear_rate(values, window_fraction)
        power = fit_powerlaw_rate(values, window_fraction)
    except InsufficientDataError:
        return "indeterminate"
    if lin.r_squared >= 0.99 and lin.r_squared >= power.r_squared:
        return "linear"
    if power.r_squared > lin.r_squared:
        return "sublinear"
    return "indeterminate"


def check_regression_qlinear(problem: LpRegressionProblem, trace: RunTrace,
                             name: str = "regression-qlinear") -> CheckReport:
    """Measure the worst per-step residual contraction ratio
    rho = max_k ||r_{k+1}||_2 / ||r_k||_2 over a regression trace and
    require rho < 1.  Needs the stored iterates.

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
    norms = [float(np.linalg.norm(problem.residual(x))) for x in trace.iterates]
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
