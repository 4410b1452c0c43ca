"""Command-line harness: single runs, figure reproduction, verification.

Subcommands:
  run        one experiment -> trace CSV + summary line
  reproduce  a figure set (fig1a, fig1b, fig2a, fig2b) -> CSVs + SVG
  verify     the full check suite -> plain-text report, exit 0 iff clean

Exit statuses: 0 ok, 1 check violations, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _svg
from .core import (GradientOracle, Lfso, RPolicy, RunTrace, SolverConfig,
                   run_fixed_gd, run_lfso_gd)
from .errors import LfsoError
from .oracles import ConstantLfsoParams, constant_lfso
from .problems import (CompositionProblem, LpRegressionProblem,
                       QuarticProblem, _line_floats, load_regression_data,
                       make_lp_regression, make_norm_power)
from . import verify as checks

TRACE_HEADER = "k,f,grad_norm,R,R_tilde,L,step_norm,grad_ratio"

PROBLEMS = ("norm2-pow", "lp-norm", "quartic", "regression-file")

# (option, value) -> the run flags it leaves unused, by the field each sets
UNUSED_FLAGS = {
    ("problem", "norm2-pow"): {"data_path": "--data"},
    ("problem", "lp-norm"): {"data_path": "--data"},
    ("problem", "quartic"): {"d": "--d", "p": "--p", "data_path": "--data"},
    ("problem", "regression-file"): {"d": "--d"},
    ("solver", "fixed"): {"r_policy": "--r-policy"},
}

# figure -> (problem, solver, eta, title); eta None takes fig1a's per-p
# stepsizes.  Every figure runs p in FIGURE_PS at d = 10 from x0 = ones.
FIGURE_RUNS = {
    "fig1a": ("norm2-pow", "fixed", None,
              "fixed stepsize on f = |x|_2^2p (per-p stepsizes)"),
    "fig1b": ("lp-norm", "fixed", 1e-2,
              "fixed stepsize on f = |x|_2p^2p (eta = 1e-2)"),
    "fig2a": ("norm2-pow", "lfso", 1.0,
              "oracle stepsizes on f = |x|_2^2p (eta = 1)"),
    "fig2b": ("lp-norm", "lfso", 1.0,
              "oracle stepsizes on f = |x|_2p^2p (eta = 1)"),
}
FIGURES = tuple(FIGURE_RUNS)
FIGURE_PS = (1, 2, 3, 4, 5)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    problem: str = "norm2-pow"
    d: int = 10
    p: int = 1
    eta: float = 1.0
    max_iters: int = 10_000
    grad_tol: float = 0.0
    r_policy: str = "default"
    x0: str = "ones"
    out_path: str = "trace.csv"
    solver: str = "lfso"
    data_path: Optional[str] = None

    def validate(self) -> None:
        """Check d and p before any build or file read.  build_experiment
        rejects an unknown problem and a regression-file run without a data
        path, execute an unknown solver, the problem builders check p again,
        and the solvers check eta, max_iters and grad_tol."""
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")


@dataclass
class ExperimentBundle:
    """Everything a run needs: objective, oracle, radius policy, and the
    structured problem behind them (when there is one)."""

    objective: GradientOracle
    lfso: Lfso
    r_policy: RPolicy
    x0: np.ndarray
    composition: Optional[CompositionProblem] = None
    regression: Optional[LpRegressionProblem] = None


def fig1a_eta(p: int, x0) -> float:
    """The fig1a stepsize for f = ||x||_2^{2p} from ``x0``: the largest power
    of ten strictly below 1 / (2p ||x0||_2^{2p-2}), found in exact arithmetic.

    The gradient 2p ||x||_2^{2p-2} x is radial, so the fixed step scales x
    by 1 - 2p eta ||x||_2^{2p-2}.  Below the bound that factor lies in
    (0, 1) at x0, and stays there as ||x||_2 shrinks: the run approaches
    the minimizer without reaching or crossing it.  At the bound itself the
    first step lands exactly on the minimizer.
    """
    norm_sq = sum(Fraction(float(v)) ** 2 for v in x0)
    bound = 1 / (2 * p * norm_sq ** (p - 1))
    k = 0
    while Fraction(10) ** k >= bound:
        k -= 1
    while Fraction(10) ** (k + 1) < bound:
        k += 1
    return float(Fraction(10) ** k)


def _load_x0(spec: str, d: int) -> np.ndarray:
    if spec == "ones":
        return np.ones(d)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            vals = [v for lineno, line in enumerate(fh, start=1)
                    for v in _line_floats(spec, lineno, line)]
    except OSError as exc:
        raise ConfigError(f"cannot read x0 file {spec}: {exc}") from exc
    if len(vals) != d:
        raise ConfigError(f"x0 file {spec} has {len(vals)} values, expected {d}")
    return np.array(vals, dtype=np.float64)


def _constant_policy(selector: str) -> RPolicy:
    if not selector.startswith("constant:"):
        raise ConfigError(f"unknown r_policy selector: {selector!r}")
    text = selector.split(":", 1)[1]
    try:
        c = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for r_policy: {text!r}") from exc
    return RPolicy.constant(c)


def build_experiment(cfg: ExperimentConfig) -> ExperimentBundle:
    """Build ``cfg.problem`` with its own radius policy, replaced by a
    constant one when ``cfg.r_policy`` is ``constant:<c>``."""
    composition = None
    regression = None
    if cfg.problem == "norm2-pow":
        composition, lfso = make_norm_power(cfg.d, cfg.p)
        objective = composition.objective()
        policy = RPolicy.grad_g_norm(composition.g.grad)
    elif cfg.problem in ("lp-norm", "regression-file"):
        if cfg.problem == "lp-norm":
            a, b = np.eye(cfg.d), np.zeros(cfg.d)
        elif not cfg.data_path:
            raise ConfigError("regression-file needs data_path (--data)")
        else:
            a, b = load_regression_data(cfg.data_path)
        regression, lfso = make_lp_regression(a, b, cfg.p)
        objective = regression.objective()
        policy = RPolicy.residual_inf_norm(regression.a, regression.b)
    elif cfg.problem == "quartic":
        quartic = QuarticProblem()
        objective = quartic.objective()
        lfso = quartic.lfso()
        policy = RPolicy.constant(0.1)
    else:
        raise ConfigError(f"unknown problem: {cfg.problem!r}")
    if cfg.r_policy != "default":
        policy = _constant_policy(cfg.r_policy)
    return ExperimentBundle(objective=objective, lfso=lfso, r_policy=policy,
                            x0=_load_x0(cfg.x0, objective.dim),
                            composition=composition, regression=regression)


def execute(cfg: ExperimentConfig, bundle: ExperimentBundle,
            keep_iterates: bool = False) -> RunTrace:
    if cfg.solver == "fixed":
        return run_fixed_gd(bundle.objective, bundle.x0, cfg.eta,
                            max_iters=cfg.max_iters, grad_tol=cfg.grad_tol,
                            keep_iterates=keep_iterates)
    if cfg.solver != "lfso":
        raise ConfigError(f"unknown solver: {cfg.solver!r}")
    solver_cfg = SolverConfig(r_policy=bundle.r_policy, eta=cfg.eta,
                              max_iters=cfg.max_iters, grad_tol=cfg.grad_tol,
                              use_grad_bound=bundle.regression is not None)
    return run_lfso_gd(bundle.lfso, bundle.objective, bundle.x0, solver_cfg,
                       keep_iterates=keep_iterates)


def write_trace_csv(path: str, trace: RunTrace, *,
                    ratios: Optional[list] = None) -> None:
    """One row per iterate; the final row carries sentinel step fields.
    ``ratios``, when given, is ``trace.grad_ratios()``, formed once by the
    caller."""
    if ratios is None:
        ratios = trace.grad_ratios()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec, ratio in zip(trace.records, ratios):
            fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                rec.k, rec.f_val, rec.grad_norm, rec.r_k, rec.r_tilde_k,
                rec.l_k, rec.step_norm, ratio))
        fh.write("%d,%.17g,%.17g,0,0,0,0,%.17g\n" % (
            len(trace.records), trace.final_f, trace.final_grad_norm,
            ratios[-1]))


def summarize_trace(trace: RunTrace, label: str, *,
                    ratios: Optional[list] = None) -> str:
    """The run's one-line summary; ``ratios`` as in
    :func:`write_trace_csv`."""
    if ratios is None:
        ratios = trace.grad_ratios()
    final_ratio = ratios[-1]
    rate = checks.classify_rate(ratios)
    parts = [label,
             f"steps={trace.num_steps}",
             f"termination={trace.termination.value}",
             "final_grad_ratio=%.17g" % final_ratio,
             f"rate={rate}"]
    try:
        fit = checks.fit_linear_rate(ratios)
        parts.append("slope=%.12g" % fit.slope)
        parts.append("r2=%.12g" % fit.r_squared)
    except LfsoError:
        pass
    return " ".join(parts)


def cmd_run(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name) is not None}
    cfg = ExperimentConfig(**given)
    for (option, value), unused in UNUSED_FLAGS.items():
        for name, flag in unused.items():
            if name in given and getattr(cfg, option) == value:
                raise ConfigError(f"{flag} does not apply to --{option} {value}")
    cfg.validate()
    bundle = build_experiment(cfg)
    trace = execute(cfg, bundle)
    write_trace_csv(cfg.out_path, trace)
    label = (f"run problem={_suite_label(cfg)} d={bundle.objective.dim} "
             f"eta={cfg.eta:g} solver={cfg.solver}")
    print(summarize_trace(trace, label))
    print(f"trace written to {cfg.out_path}")
    return 0


def reproduce_figure(figure: str, out_dir: str,
                     max_iters: int = 10_000) -> list:
    """Run one figure's five experiments, write per-p CSVs and one SVG.

    Deterministic: repeated invocations produce byte-identical files.
    """
    if figure not in FIGURES:
        raise ConfigError(f"figure must be one of {FIGURES}, got {figure!r}")
    problem, solver, eta, title = FIGURE_RUNS[figure]
    os.makedirs(out_dir, exist_ok=True)
    written = []
    curves = []
    for p in FIGURE_PS:
        cfg = ExperimentConfig(
            problem=problem, solver=solver, p=p, d=10, max_iters=max_iters,
            eta=fig1a_eta(p, np.ones(10)) if eta is None else eta)
        bundle = build_experiment(cfg)
        trace = execute(cfg, bundle)
        path = os.path.join(out_dir, f"{figure}_p{p}.csv")
        ratios = trace.grad_ratios()
        write_trace_csv(path, trace, ratios=ratios)
        written.append(path)
        curves.append((f"p={p}", list(range(len(ratios))), ratios))
        print(summarize_trace(trace, f"{figure} p={p} eta={cfg.eta:g}",
                              ratios=ratios))
    svg_path = os.path.join(out_dir, f"{figure}.svg")
    _svg.write_log_plot(svg_path, curves, title,
                        "iteration k", "grad norm ratio")
    written.append(svg_path)
    return written


def cmd_reproduce(args) -> int:
    figures = FIGURES if args.figure == "all" else (args.figure,)
    for figure in figures:
        written = reproduce_figure(figure, args.out_dir,
                                   max_iters=args.max_iters)
        for path in written:
            print(f"wrote {path}")
    return 0


# The verify suite's solver runs.  Their builds also supply the pairs the
# validity and monotone checks sample.
SUITE_RUNS = (*(ExperimentConfig(problem=problem, p=p, max_iters=500)
                for problem in ("norm2-pow", "lp-norm") for p in range(1, 6)),
              ExperimentConfig(problem="quartic", max_iters=200))


def _suite_label(cfg: ExperimentConfig) -> str:
    return cfg.problem + ("" if cfg.problem == "quartic" else f" p={cfg.p}")


def shipped_pairs(bundles: Optional[list] = None):
    """Every (name, objective, oracle) pair the suite verifies, taken from
    ``bundles``, the builds of :data:`SUITE_RUNS` (built here if not given).
    ``quadratic+constant`` pairs the objective of ``norm2-pow p=1`` with the
    constant oracle ``L = 2``."""
    if bundles is None:
        bundles = [build_experiment(cfg) for cfg in SUITE_RUNS]
    named = {_suite_label(cfg): bundle
             for cfg, bundle in zip(SUITE_RUNS, bundles)}
    quartic = named.pop("quartic")
    quadratic = named["norm2-pow p=1"].objective
    return ([("quartic", quartic.objective, quartic.lfso),
             ("quadratic+constant", quadratic,
              constant_lfso(ConstantLfsoParams(l_f=2.0)))]
            + [(name, bundle.objective, bundle.lfso)
               for name, bundle in named.items()])


@checks._draw_once()
def verify_all(seed: int, include_controls: bool = False):
    """Run every check on every shipped pair plus short solver runs.

    Returns (report_text, total_violations, seconds).  With
    ``include_controls`` the deliberately broken inputs join the suite, so
    violations are expected and the exit status is nonzero.  ``seconds``
    maps each report block's name to the wall seconds of its check,
    ``"run <label>"`` to those of each solver run, and ``"total"`` to
    those of the whole suite.  The validity samples of each (spec, dim)
    are drawn once per call and shared read-only by its checks.
    """
    suite_start = time.perf_counter()
    reports = []
    seconds = {}

    def timed(check, *args, **kwargs):
        start = time.perf_counter()
        report = check(*args, **kwargs)
        seconds[report.name] = time.perf_counter() - start
        reports.append(report)

    bundles = [build_experiment(cfg) for cfg in SUITE_RUNS]
    pairs = shipped_pairs(bundles)
    spec = checks.SampleSpec(num_points=1000, seed=seed)
    for name, objective, lfso in pairs:
        timed(checks.check_lfso_validity, objective, lfso, spec,
              name=f"lfso-validity {name}")
        timed(checks.check_monotone_in_R, lfso,
              checks.SampleSpec(num_points=32, seed=seed), objective.dim,
              name=f"monotone-in-R {name}")

    for cfg, bundle in zip(SUITE_RUNS, bundles):
        label = _suite_label(cfg)
        start = time.perf_counter()
        trace = execute(cfg, bundle, keep_iterates=True)
        seconds[f"run {label}"] = time.perf_counter() - start
        timed(checks.check_trace, trace, cfg.eta, name=f"trace {label}")
        if bundle.composition is not None:
            timed(checks.check_composition_run, bundle.composition, trace,
                  cfg.eta, name=f"composition {label}")
        if bundle.regression is not None:
            timed(checks.check_regression_qlinear, bundle.regression, trace,
                  name=f"qlinear {label}")

    timed(checks.check_quartic_threshold)
    timed(checks.check_holder,
          checks.SampleSpec(num_points=200, seed=seed, x_box=(-3.0, 3.0)),
          t_values=[1.0, 1.5, 2.0, 3.0, 4.0])

    if include_controls:
        quad_objective = pairs[1][1]
        wrong = constant_lfso(ConstantLfsoParams(l_f=1.0))
        timed(checks.check_lfso_validity, quad_objective, wrong, spec,
              name="CONTROL wrong-oracle")
        decreasing = Lfso(eval=lambda x, r: max(1.0, 2.0 - r))
        timed(checks.check_monotone_in_R, decreasing,
              checks.SampleSpec(num_points=8, seed=seed), 1,
              name="CONTROL decreasing-oracle")

    total = sum(rep.violations for rep in reports)
    lines = [f"verification suite  seed={seed}  generator={checks.GENERATOR_ID}",
             ""]
    for rep in reports:
        lines.append(rep.render())
        lines.append("")
    lines.append(f"total_violations = {total}")
    lines.append(f"overall = {'ok' if total == 0 else 'FAIL'}")
    seconds["total"] = time.perf_counter() - suite_start
    return "\n".join(lines) + "\n", total, seconds


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    # opened before the suite runs, so a bad path fails fast
    with (contextlib.nullcontext() if args.timings is None
          else open(args.timings, "w", encoding="utf-8")) as timings_file:
        text, total, seconds = verify_all(args.seed, args.include_controls)
        print(text, end="")
        if timings_file is not None:
            json.dump(seconds, timings_file, indent=1)
            timings_file.write("\n")
    return 0 if total == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfso",
        description="Gradient descent with local smoothness-oracle stepsizes")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment, write a trace CSV")
    run.add_argument("--problem", choices=PROBLEMS, default=None)
    run.add_argument("--d", type=int, default=None)
    run.add_argument("--p", type=int, default=None)
    run.add_argument("--eta", type=float, default=None)
    run.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    run.add_argument("--grad-tol", dest="grad_tol", type=float, default=None)
    run.add_argument("--r-policy", dest="r_policy", default=None,
                     help="default | constant:<c>")
    run.add_argument("--x0", default=None, help="'ones' or a file of floats")
    run.add_argument("--out", dest="out_path", default=None)
    run.add_argument("--solver", choices=("lfso", "fixed"), default=None)
    run.add_argument("--data", dest="data_path", default=None,
                     help="matrix file for regression-file problems")
    run.set_defaults(handler=cmd_run)

    rep = sub.add_parser("reproduce", help="reproduce a figure's runs")
    rep.add_argument("--figure", choices=FIGURES + ("all",), required=True)
    rep.add_argument("--out-dir", default="figures")
    rep.add_argument("--max-iters", dest="max_iters", type=int, default=10_000)
    rep.set_defaults(handler=cmd_reproduce)

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--include-controls", action="store_true",
                     help="also run the deliberately broken control inputs")
    ver.add_argument("--timings", default=None, metavar="PATH",
                     help="write each check's wall seconds as JSON to PATH")
    ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (LfsoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
