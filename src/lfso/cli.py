"""Command-line harness: single runs, figure reproduction, verification.

Subcommands:
  run        one experiment -> trace CSV + summary line
  reproduce  a figure set (fig1a, fig1b, fig2a, fig2b) -> CSVs + SVG
  verify     the full check suite -> plain-text report, exit 0 iff clean

Exit statuses: 0 ok, 1 check violations, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
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
        """The checks no later step makes: argparse already limits problem
        and solver, and the solvers check eta, max_iters and grad_tol."""
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.problem == "regression-file" and not self.data_path:
            raise ConfigError("regression-file needs data_path (--data)")


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


def _policy_from_selector(selector: str, bundle_kind: str,
                          composition: Optional[CompositionProblem],
                          regression: Optional[LpRegressionProblem]) -> RPolicy:
    if selector == "default":
        selector = {"norm2-pow": "grad-g-norm",
                    "lp-norm": "residual-inf",
                    "regression-file": "residual-inf",
                    "quartic": "constant:0.1"}[bundle_kind]
    if selector.startswith("constant:"):
        text = selector.split(":", 1)[1]
        try:
            c = float(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for r_policy: {text!r}") from exc
        return RPolicy.constant(c)
    if selector == "grad-g-norm":
        if composition is None:
            raise ConfigError("grad-g-norm radius policy needs a composition problem")
        return RPolicy.grad_g_norm(composition.g.grad)
    if selector == "residual-inf":
        if regression is None:
            raise ConfigError("residual-inf radius policy needs a regression problem")
        return RPolicy.residual_inf_norm(regression.a, regression.b)
    raise ConfigError(f"unknown r_policy selector: {selector!r}")


def build_experiment(cfg: ExperimentConfig) -> ExperimentBundle:
    composition = None
    regression = None
    if cfg.problem == "norm2-pow":
        composition, lfso = make_norm_power(cfg.d, cfg.p)
        objective = composition.objective()
        d = cfg.d
    elif cfg.problem == "lp-norm":
        regression, lfso = make_lp_regression(np.eye(cfg.d), np.zeros(cfg.d), cfg.p)
        objective = regression.objective()
        d = cfg.d
    elif cfg.problem == "regression-file":
        a, b = load_regression_data(cfg.data_path)
        regression, lfso = make_lp_regression(a, b, cfg.p)
        objective = regression.objective()
        d = regression.d
    else:
        quartic = QuarticProblem()
        objective = quartic.objective()
        lfso = quartic.lfso()
        d = 1
    policy = _policy_from_selector(cfg.r_policy, cfg.problem,
                                   composition, regression)
    return ExperimentBundle(objective=objective, lfso=lfso, r_policy=policy,
                            x0=_load_x0(cfg.x0, d),
                            composition=composition, regression=regression)


def execute(cfg: ExperimentConfig, bundle: ExperimentBundle,
            keep_iterates: bool = False) -> RunTrace:
    if cfg.solver == "fixed":
        return run_fixed_gd(bundle.objective, bundle.x0, cfg.eta,
                            max_iters=cfg.max_iters, grad_tol=cfg.grad_tol,
                            keep_iterates=keep_iterates)
    solver_cfg = SolverConfig(r_policy=bundle.r_policy, eta=cfg.eta,
                              max_iters=cfg.max_iters, grad_tol=cfg.grad_tol,
                              use_grad_bound=bundle.regression is not None)
    return run_lfso_gd(bundle.lfso, bundle.objective, bundle.x0, solver_cfg,
                       keep_iterates=keep_iterates)


def write_trace_csv(path: str, trace: RunTrace) -> None:
    """One row per iterate; the final row carries sentinel step fields."""
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


def summarize_trace(trace: RunTrace, label: str) -> str:
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
    cfg = ExperimentConfig(**{f.name: getattr(args, f.name)
                              for f in fields(ExperimentConfig)
                              if getattr(args, f.name) is not None})
    cfg.validate()
    bundle = build_experiment(cfg)
    trace = execute(cfg, bundle)
    write_trace_csv(cfg.out_path, trace)
    p_part = "" if cfg.problem == "quartic" else f" p={cfg.p}"
    label = (f"run problem={cfg.problem}{p_part} d={bundle.objective.dim} "
             f"eta={cfg.eta:g} solver={cfg.solver}")
    print(summarize_trace(trace, label))
    print(f"trace written to {cfg.out_path}")
    return 0


def _figure_runs(figure: str, max_iters: int):
    """Yield (p, config) pairs for one figure's five runs."""
    problem, solver, eta, _ = FIGURE_RUNS[figure]
    for p in FIGURE_PS:
        yield p, ExperimentConfig(
            problem=problem, solver=solver, p=p, d=10, max_iters=max_iters,
            eta=fig1a_eta(p, np.ones(10)) if eta is None else eta)


def reproduce_figure(figure: str, out_dir: str,
                     max_iters: int = 10_000) -> list:
    """Run one figure's five experiments, write per-p CSVs and one SVG.

    Deterministic: repeated invocations produce byte-identical files.
    """
    if figure not in FIGURES:
        raise ConfigError(f"figure must be one of {FIGURES}, got {figure!r}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    curves = []
    for p, cfg in _figure_runs(figure, max_iters):
        bundle = build_experiment(cfg)
        trace = execute(cfg, bundle)
        path = os.path.join(out_dir, f"{figure}_p{p}.csv")
        write_trace_csv(path, trace)
        written.append(path)
        ratios = trace.grad_ratios()
        curves.append((f"p={p}", list(range(len(ratios))), ratios))
        print(summarize_trace(trace, f"{figure} p={p} eta={cfg.eta:g}"))
    svg_path = os.path.join(out_dir, f"{figure}.svg")
    _svg.write_log_plot(svg_path, curves, FIGURE_RUNS[figure][3],
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


def verify_all(seed: int, include_controls: bool = False,
               timings: Optional[dict] = None):
    """Run every check on every shipped pair plus short solver runs.

    Returns (report_text, total_violations).  With ``include_controls``
    the deliberately broken inputs join the suite, so violations are
    expected and the exit status is nonzero.  A ``timings`` dict receives
    the wall seconds of each check under its report block's name, of each
    solver run under ``"run <label>"``, and of the whole suite under
    ``"total"``; the report text does not depend on it.
    """
    suite_start = time.perf_counter()
    reports = []
    seconds = {} if timings is None else timings

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
    return "\n".join(lines) + "\n", total


def cmd_verify(args) -> int:
    timings_file = None
    if args.timings is not None:
        # opened before the suite runs, so a bad path fails fast
        timings_file = open(args.timings, "w", encoding="utf-8")
    timings = {}
    text, total = verify_all(args.seed, include_controls=args.include_controls,
                             timings=timings)
    print(text, end="")
    if timings_file is not None:
        with timings_file:
            json.dump(timings, timings_file, indent=1)
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
                     help="default | constant:<c> | grad-g-norm | residual-inf")
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
    except (ConfigError, LfsoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
