"""Checks of the program's outputs against references computed here.

Nothing in this module imports ``lfso``: every reference is either a
computation made apart from the program (a scalar recursion, a least-squares
fit, a dense SVD, a gradient from our own matrix-vector products) or a
property the method must have.  Each check returns a list of problems found;
an empty list means the output passed.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

FIGURES = ("fig1a", "fig1b", "fig2a", "fig2b")
ORACLE_FIGURES = ("fig2a", "fig2b")
DIM = 10

# Relative agreement required between a CSV's grad_ratio column and the
# scalar recursion.  The seed code agrees to about 3e-12 after 10^4 steps; a
# change of one unit in the tenth significant digit is at least 1e-10.
RATIO_REL_TOL = 3e-11
# Below this the reference is outside the normal float range, where the
# program's value has underflowed as well and only has to be tiny.
UNDERFLOW = 1e-290
TINY = 1e-280
# Least-squares fits use the tail half of the positive values.
MIN_FIT_POINTS = 10
LOG_LINEAR_R2 = 0.999
STATIONARY = ("stationary-exact", "oracle-zero")
# The suite holds 47 checks today; a report with far fewer did not run it.
MIN_SUITE_CHECKS = 40


def oracle_contraction(figure: str, p: int) -> float:
    """Per-step factor c of the oracle runs, x_{k+1} = c x_k, from x0 = 1."""
    if figure == "fig2a":
        return 1.0 - 1.0 / (9.0 ** (p - 1) * (2 * p - 1))
    return 1.0 - 1.0 / ((2 * p - 1) * 2.0 ** (2 * p - 2))


def fixed_gain(figure: str, p: int) -> float:
    """m in the fixed-step recursion t_{k+1} = t_k - eta m t_k^{2p-1}."""
    if figure == "fig1a":
        return 2.0 * p * DIM ** (p - 1)
    return 2.0 * p


def radial_iterates(figure: str, p: int, eta: float, steps: int) -> list:
    """t_0 .. t_steps of the radial recursion x_k = t_k * ones(10)."""
    t = 1.0
    out = [t]
    if figure in ORACLE_FIGURES:
        c = oracle_contraction(figure, p)
        for _ in range(steps):
            t = c * t
            out.append(t)
    else:
        m = fixed_gain(figure, p)
        for _ in range(steps):
            t = t - eta * m * t ** (2 * p - 1)
            out.append(t)
    return out


def fit_line(xs, ys):
    """Slope and R^2 of the least-squares line through (xs, ys)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    xm, ym = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - xm) ** 2))
    sxy = float(np.sum((xs - xm) * (ys - ym)))
    syy = float(np.sum((ys - ym) ** 2))
    slope = sxy / sxx
    r2 = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return slope, r2


def decay_kind(ratios) -> str:
    """'log-linear', 'sublinear' or 'neither', from our own fits of ln(ratio)
    against k and against ln(k + 1) over the tail half of the values above
    the underflow threshold."""
    usable = []
    for v in ratios:
        if not v > UNDERFLOW:
            break
        usable.append(v)
    start = len(usable) // 2
    if len(usable) - start < MIN_FIT_POINTS:
        return "neither"
    ks = np.arange(start, len(usable), dtype=np.float64)
    logs = np.log(usable[start:])
    lin_slope, lin_r2 = fit_line(ks, logs)
    pow_slope, pow_r2 = fit_line(np.log(ks + 1.0), logs)
    if lin_slope < 0 and lin_r2 >= LOG_LINEAR_R2 and lin_r2 >= pow_r2:
        return "log-linear"
    if pow_slope < 0 and pow_r2 > lin_r2:
        return "sublinear"
    return "neither"


def read_csv_columns(text: str) -> dict:
    lines = text.splitlines()
    names = lines[0].split(",")
    cols = {name: [] for name in names}
    for line in lines[1:]:
        for name, tok in zip(names, line.split(",")):
            cols[name].append(float(tok))
    return cols


def check_figure_run(figure: str, p: int, csv_text: str, termination: str,
                     max_iters: int) -> list:
    """Check one figure run's trace CSV and reported termination.

    - grad_ratio agrees with (t_k)^{2p-1} from the radial recursion;
    - the termination reason is truthful: a stationary stop needs the exact
      iterate to be 0, a budget stop needs all max_iters steps, any other
      reason needs the gradient to have left the normal float range;
    - for p >= 2 the oracle runs decay log-linearly and the fixed runs
      sublinearly.
    """
    cols = read_csv_columns(csv_text)
    ratios = cols["grad_ratio"]
    steps = len(ratios) - 1
    if [int(k) for k in cols["k"]] != list(range(steps + 1)):
        return ["k column is not 0..K"]
    # Baseline rows record L = 1/eta (the step the run actually used).
    eta = 1.0 if figure in ORACLE_FIGURES else 1.0 / cols["L"][0]
    ts = radial_iterates(figure, p, eta, steps)
    problems = []
    for k, (t, got) in enumerate(zip(ts, ratios)):
        want = t ** (2 * p - 1)
        if want > UNDERFLOW:
            if abs(got - want) > RATIO_REL_TOL * want:
                problems.append(f"grad_ratio[{k}] = {got!r}, recursion gives {want!r}")
                break
        elif not 0.0 <= got <= TINY:
            problems.append(f"grad_ratio[{k}] = {got!r}, recursion underflows ({want!r})")
            break
    final_ratio = ts[-1] ** (2 * p - 1)
    if termination in STATIONARY:
        if ts[-1] != 0.0:
            problems.append(f"termination={termination} at x = {ts[-1]!r} * ones, "
                            "which is not stationary")
    elif termination == "max-iterations":
        if steps != max_iters:
            problems.append(f"termination=max-iterations after {steps} of {max_iters} steps")
    elif final_ratio > UNDERFLOW:
        problems.append(f"termination={termination} while the gradient ratio is "
                        f"{final_ratio!r}")
    if p >= 2:
        want_kind = "log-linear" if figure in ORACLE_FIGURES else "sublinear"
        kind = decay_kind(ratios)
        if kind != want_kind:
            problems.append(f"decay is {kind}, expected {want_kind}")
    return problems


def check_svg(svg_text: str, curves: int = 5) -> list:
    """The figure must parse as XML and hold one polyline per curve."""
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != curves:
        return [f"SVG has {len(lines)} curves, expected {curves}"]
    return []


def svd_rounding(shape, sigma_max: float) -> float:
    """Backward-error scale of a dense SVD: max(n, d) * eps * sigma_max."""
    return max(shape) * float(np.finfo(np.float64).eps) * sigma_max


def check_structure_constants(spec_norm: float, cond: float, singular_values,
                              shape) -> list:
    """The cached ||A||_2 and cond(A) must not fall below the dense-SVD
    values by more than the SVD's own rounding."""
    sv = np.asarray(singular_values, dtype=np.float64)
    s_max, s_min = float(sv[0]), float(sv[-1])
    slack = svd_rounding(shape, s_max)
    problems = []
    if spec_norm < s_max - slack:
        problems.append(f"cached ||A||_2 = {spec_norm!r} is {(s_max - spec_norm) / s_max:.3g} "
                        f"(relative) below the SVD value {s_max!r}")
    cond_ref = s_max / s_min
    cond_slack = cond_ref * (slack / s_max + slack / s_min)
    if cond < cond_ref - cond_slack:
        problems.append(f"cached cond(A) = {cond!r} is below the SVD value {cond_ref!r}")
    return problems


def regression_gradient(a, b, p: int, x) -> np.ndarray:
    """grad ||Ax - b||_{2p}^{2p} = 2p A^T (Ax - b)^{2p-1}, from our own matvecs."""
    r = a @ x - b
    return 2.0 * p * (a.T @ r ** (2 * p - 1))


def check_regression_solve(a, b, p: int, x, termination: str, grad_tol: float,
                           csv_text: str) -> list:
    """The returned iterate meets the gradient tolerance by our own
    gradient, the run says so, and its trace CSV ends at that gradient."""
    problems = []
    gnorm = float(np.linalg.norm(regression_gradient(a, b, p, x)))
    if not gnorm <= grad_tol * (1.0 + 1e-9):
        problems.append(f"||grad f(x_K)|| = {gnorm!r} exceeds the tolerance {grad_tol!r}")
    if termination != "gradient-tolerance":
        problems.append(f"termination={termination}, expected gradient-tolerance")
    cols = read_csv_columns(csv_text)
    last = cols["grad_norm"][-1]
    if not math.isclose(last, gnorm, rel_tol=1e-6):
        problems.append(f"trace CSV ends at grad_norm {last!r}, recomputed {gnorm!r}")
    return problems


def check_qlinear_report(violations: int, stats: dict, final_residual: float) -> list:
    """The Q-linear residual check of a theory-regime run is clean, every
    step contracted, and it ends at the residual we compute ourselves."""
    problems = []
    if violations != 0:
        problems.append(f"Q-linear check reports {violations} violations")
    if not stats["rho"] < 1.0:
        problems.append(f"worst residual contraction rho = {stats['rho']!r}")
    if not math.isclose(stats["final_residual"], final_residual, rel_tol=1e-9):
        problems.append(f"Q-linear check ends at residual {stats['final_residual']!r}, "
                        f"recomputed {final_residual!r}")
    return problems


def report_blocks(text: str) -> dict:
    """Map each ``[name]`` block of a verify report to its violation count."""
    blocks = {}
    name = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
        elif name is not None and line.startswith("violations = "):
            blocks[name] = int(line.split("=", 1)[1])
            name = None
    return blocks


def check_verify_report(text: str, seed: int) -> list:
    """Every check of a clean suite reports zero violations, and both
    deliberately broken controls are flagged."""
    if f"seed={seed}" not in text.splitlines()[0]:
        return [f"report header does not name seed {seed}"]
    blocks = report_blocks(text)
    problems = [f"{name}: {count} violations" for name, count in blocks.items()
                if not name.startswith("CONTROL") and count != 0]
    controls = {name: count for name, count in blocks.items()
                if name.startswith("CONTROL")}
    if len(controls) != 2:
        problems.append(f"expected 2 control checks, found {len(controls)}")
    problems += [f"{name} was not flagged" for name, count in controls.items()
                 if count == 0]
    if len(blocks) - len(controls) < MIN_SUITE_CHECKS:
        problems.append(f"only {len(blocks) - len(controls)} checks in the report")
    return problems
