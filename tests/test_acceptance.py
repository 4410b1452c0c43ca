"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Expected values come from independent references implemented here, not from
the solver under test: closed-form radial recursions for the two shipped
families, central finite differences for gradients, a dense SVD for the
spectral constants, direct evaluation for the scalar quartic, and the
residual-space regression step of ``test_problems.residual_iterate``.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from lfso.cli import fig1a_eta, reproduce_figure, shipped_pairs
from lfso.core import (RPolicy, SolverConfig, euclidean_norm, residual,
                       run_fixed_gd, run_lfso_gd)
from lfso.oracles import ConstantLfsoParams, constant_lfso
from lfso.problems import QuarticProblem, make_lp_regression, make_norm_power
from lfso.verify import (SampleSpec, check_composition_run,
                         check_lfso_validity, check_quartic_threshold,
                         check_regression_qlinear, check_trace,
                         fit_linear_rate)
from test_problems import residual_iterate

PS = (1, 2, 3, 4, 5)


def norm_power_factor(p):
    """Per-step contraction of the radial recursion for f = ||x||_2^{2p}
    with unit stepsize factor and radius ||grad g||: derived by and for
    the symmetric iterate x = c * ones."""
    return 1.0 - 1.0 / (9 ** (p - 1) * (2 * p - 1))


def lp_norm_factor(p):
    """Per-step contraction for f = ||x||_{2p}^{2p} (A = I, b = 0) with
    radius ||x||_inf, from the one-coordinate reduction of the residual
    recursion."""
    return 1.0 - 1.0 / ((2 * p - 1) * 2 ** (2 * p - 2))


def run_norm_power(p, max_iters, keep_iterates=False):
    problem, oracle = make_norm_power(10, p)
    config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                          eta=1.0, max_iters=max_iters)
    trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config,
                        keep_iterates=keep_iterates)
    return problem, trace


def run_lp_norm(p, max_iters, keep_iterates=False):
    problem, oracle = make_lp_regression(np.eye(10), np.zeros(10), p)
    config = SolverConfig(
        r_policy=RPolicy.residual_inf_norm(problem.a, problem.b),
        eta=1.0, max_iters=max_iters, use_grad_bound=True)
    trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config,
                        keep_iterates=keep_iterates)
    return problem, trace


@pytest.fixture(scope="module")
def fig2a_traces():
    return {p: run_norm_power(p, 10_000, keep_iterates=True) for p in PS}


@pytest.fixture(scope="module")
def fig2b_traces():
    return {p: run_lp_norm(p, 10_000) for p in PS}


@pytest.fixture(scope="module")
def fig1b_traces():
    traces = {}
    for p in PS:
        problem, _ = make_lp_regression(np.eye(10), np.zeros(10), p)
        traces[p] = run_fixed_gd(problem.objective(), np.ones(10), 1e-2,
                                 max_iters=10_000)
    return traces


def test_criterion_1_norm_power_closed_form():
    for p in PS:
        _, trace = run_norm_power(p, 200, keep_iterates=True)
        factor = norm_power_factor(p)
        if p == 1:
            assert trace.num_steps == 1
            assert np.all(trace.iterates[1] == 0.0)
            continue
        assert trace.num_steps == 200
        for k, x in enumerate(trace.iterates):
            expected = factor ** k
            assert np.max(np.abs(x - expected)) <= 1e-9 * expected
    print("[acceptance 1] norm-power trajectories match the radial "
          "recursion to 1e-9 for p=1..5, k<=200: PASS")


def test_criterion_2_lp_closed_form():
    problem, trace = run_lp_norm(2, 200, keep_iterates=True)
    for k, x in enumerate(trace.iterates):
        expected = (11.0 / 12.0) ** k
        assert np.max(np.abs(x - expected)) <= 1e-9 * expected
    report = check_regression_qlinear(problem, trace)
    assert report.violations == 0
    assert abs(report.stats["rho"] - 11.0 / 12.0) <= 1e-12
    print("[acceptance 2] lp-norm p=2 trajectory matches (11/12)^k to 1e-9 "
          f"and rho = {report.stats['rho']!r}: PASS")


def _slope_magnitudes(traces, family):
    magnitudes = {}
    for p in PS:
        _, trace = traces[p]
        ratios = trace.grad_ratios()
        if p == 1:
            # exact annihilation in one step: infinitely steep decay
            assert trace.num_steps <= 2
            assert trace.final_grad_norm == 0.0
            magnitudes[p] = float("inf")
            continue
        fit = fit_linear_rate(ratios)
        assert fit.r_squared >= 0.99, f"{family} p={p}: R^2 = {fit.r_squared}"
        magnitudes[p] = abs(fit.slope)
    return magnitudes


def test_criterion_3_linear_rates_ordered(fig2a_traces, fig2b_traces):
    for family, traces in (("norm2-pow", fig2a_traces),
                           ("lp-norm", fig2b_traces)):
        magnitudes = _slope_magnitudes(traces, family)
        for p in (2, 3, 4, 5):
            assert magnitudes[p - 1] > magnitudes[p], \
                f"{family}: |slope| not decreasing at p={p}"
    print("[acceptance 3] both families: tail log-linear fits R^2 >= 0.99 "
          "and |slope| strictly decreasing in p: PASS")


def test_criterion_4_fixed_step_contrast(fig1b_traces, fig2b_traces):
    p1_final = fig1b_traces[1].grad_ratios()[-1]
    assert fig1b_traces[1].num_steps <= 10_000
    assert p1_final <= 1e-8
    for p in (2, 3, 4, 5):
        fixed_final = fig1b_traces[p].grad_ratios()[-1]
        _, lfso_trace = fig2b_traces[p]
        lfso_final = lfso_trace.grad_ratios()[-1]
        assert fixed_final >= 1e3 * lfso_final, \
            f"p={p}: fixed {fixed_final} vs oracle {lfso_final}"
    print("[acceptance 4] fixed-step p=1 reaches <= 1e-8; each p >= 2 ends "
          ">= 1e3 x above the oracle-driven run: PASS")


def quartic_containment_root():
    """Root of 6 R^3 + 6 R - 1 by bisection to 1e-12: where the raw step
    1/(6 + 6 R^2) of the scalar quartic at x = 1, eta = 1, equals R."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if 6.0 * mid ** 3 + 6.0 * mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_5_quartic_threshold():
    root = quartic_containment_root()
    assert abs(root - 0.16238) <= 5e-6
    report = check_quartic_threshold()
    assert report.violations == 0
    assert report.stats["root"] == root
    raw_step = lambda r: 1.0 / (6.0 + 6.0 * r * r)
    assert raw_step(0.9 * root) > 0.9 * root      # containment violated
    assert raw_step(1.1 * root) < 1.1 * root      # containment satisfied
    quartic = QuarticProblem()
    objective, oracle = quartic.objective(), quartic.lfso()
    for r in np.geomspace(1e-3, root, 60):
        config = SolverConfig(r_policy=RPolicy.constant(float(r)), eta=1.0,
                              max_iters=1)
        trace = run_lfso_gd(oracle, objective, np.array([1.0]), config)
        rec = trace.records[0]
        assert rec.step_norm <= rec.r_tilde_k * (1.0 + 1e-14)
        assert abs(trace.final_x[0] - 1.0) == pytest.approx(rec.step_norm, rel=1e-15)
    print(f"[acceptance 5] containment threshold root = {root!r} within "
          "5e-6 of 0.16238; raw step flips at the root; inflation restores "
          "containment on [1e-3, root]: PASS")


def test_criterion_6_descent_suite(fig2a_traces, fig2b_traces):
    total = 0
    checked = 0
    for traces in (fig2a_traces, fig2b_traces):
        for p in PS:
            _, trace = traces[p]
            report = check_trace(trace, 1.0)
            total += report.violations
            checked += report.stats["steps"]
    quartic = QuarticProblem()
    config = SolverConfig(r_policy=RPolicy.constant(0.1), max_iters=500)
    trace = run_lfso_gd(quartic.lfso(), quartic.objective(), np.array([1.0]),
                        config)
    report = check_trace(trace, 1.0)
    total += report.violations
    checked += report.stats["steps"]
    assert total == 0
    print(f"[acceptance 6] descent and containment hold on all {checked} "
          "recorded steps across every oracle-driven trace: PASS")


def test_criterion_7_validity_suite():
    worst = 0.0
    for name, objective, oracle in shipped_pairs():
        r_range = (1e-3, 2.0) if name == "quartic" else (0.1, 2.0)
        report = check_lfso_validity(
            objective, oracle,
            SampleSpec(num_points=1000, seed=2024, r_range=r_range),
            name=name)
        assert report.violations == 0, f"{name}: {report.render()}"
        assert report.stats["worst_ratio"] <= 1.0 + 1e-10, name
        worst = max(worst, report.stats["worst_ratio"])
    quad = shipped_pairs()[1][1]
    control = check_lfso_validity(quad, constant_lfso(ConstantLfsoParams(1.0)),
                                  SampleSpec(num_points=1000, seed=2024))
    assert control.violations >= 1
    print(f"[acceptance 7] 1000-sample remainder bound holds for every "
          f"shipped pair (worst ratio {worst!r}); wrong-oracle control "
          f"flagged {control.violations} violations: PASS")


def test_criterion_8_composition_diagnostics(fig2a_traces):
    for p in PS:
        problem, trace = fig2a_traces[p]
        report = check_composition_run(problem, trace, 1.0)
        assert report.violations == 0, f"p={p}: {report.render()}"
        assert report.stats["max_d"] <= max(1.0, 1.0 / problem.l_g) + 1e-12
    print("[acceptance 8] D_k in [1, max(1, eta/l_g)] and effective inner "
          "stepsize <= eta/l_g on all composition traces: PASS")


def _random_well_conditioned(n, d, seed):
    rng = np.random.default_rng(seed)
    u, _, vt = np.linalg.svd(rng.normal(size=(n, d)), full_matrices=False)
    singular_values = np.linspace(0.99, 1.01, n)
    return u @ np.diag(singular_values) @ vt


def test_criterion_9_residual_equivalence():
    cases = []
    identity, _ = make_lp_regression(np.eye(10), np.zeros(10), 2)
    cases.append(("identity 10x10", identity, np.ones(10)))
    a = _random_well_conditioned(8, 12, seed=99)
    x_star = np.random.default_rng(100).normal(size=12)
    random_problem, _ = make_lp_regression(a, a @ x_star, 2)
    assert random_problem.theory_ok  # cond^4 < n/(n-1) by construction
    cases.append(("random 8x12", random_problem, np.zeros(12)))
    for label, problem, x0 in cases:
        _, oracle = make_lp_regression(problem.a, problem.b, problem.p)
        config = SolverConfig(
            r_policy=RPolicy.residual_inf_norm(problem.a, problem.b),
            eta=1.0, max_iters=100, use_grad_bound=True)
        trace = run_lfso_gd(oracle, problem.objective(), x0, config,
                            keep_iterates=True)
        assert trace.num_steps == 100
        r = residual(problem.a, problem.b, x0)
        for x in trace.iterates[1:]:
            r = residual_iterate(problem, r, 1.0)
            direct = residual(problem.a, problem.b, x)
            assert euclidean_norm(direct - r) <= 1e-10 * euclidean_norm(r), label
    print("[acceptance 9] x-space and residual-space iterations agree to "
          "1e-10 over 100 steps for the identity and a random well-"
          "conditioned 8x12 system: PASS")


def central_diff_grad(f, x, h=6e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(7)
    problems = []
    for p in PS:
        comp, _ = make_norm_power(10, p)
        problems.append((f"norm2-pow p={p}", comp.objective()))
        reg, _ = make_lp_regression(np.eye(10), np.zeros(10), p)
        problems.append((f"lp-norm p={p}", reg.objective()))
    problems.append(("quartic", QuarticProblem().objective()))
    for name, objective in problems:
        for _ in range(10):
            x = rng.uniform(0.3, 1.7, objective.dim) * rng.choice([-1.0, 1.0])
            fd = central_diff_grad(objective.eval, x)
            g = objective.grad(x)
            assert euclidean_norm(fd - g) <= 1e-6 * euclidean_norm(g), name
    print("[acceptance 10] central differences match analytic gradients to "
          "1e-6 at 10 random points per problem, p=1..5: PASS")


def test_criterion_11_fig1a_stepsizes_keep_fixed_step_sublinear(tmp_path,
                                                                capsys):
    assert [fig1a_eta(p, np.ones(10)) for p in PS] == \
        [1e-1, 1e-2, 1e-3, 1e-4, 1e-6]
    reproduce_figure("fig1a", str(tmp_path))
    rates = {}
    for line in capsys.readouterr().out.splitlines():
        fields = dict(word.split("=", 1) for word in line.split()[1:])
        p = int(fields["p"])
        # the printed stepsize is the one the rule gives, and the one that ran
        assert fields["eta"] == f"{fig1a_eta(p, np.ones(10)):g}"
        rates[p] = fields["rate"]
    assert sorted(rates) == list(PS)
    for p in (2, 3, 4, 5):
        assert rates[p] == "sublinear", f"fig1a p={p}: rate={rates[p]}"
    print("[acceptance 11] fig1a stepsizes 1e-1 .. 1e-4, 1e-6 from the "
          "stated rule; every fixed-step run with p >= 2 is sublinear: PASS")
