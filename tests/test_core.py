import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfso
from lfso import cli, core
from lfso.core import (GradientOracle, Lfso, RPolicy, SolverConfig,
                       Termination, as_vector, euclidean_norm,
                       euclidean_norm_rows, run_fixed_gd, run_lfso_gd)
from lfso.errors import (NonFiniteValueError, ShapeMismatchError,
                         ZeroOracleError)
from lfso.problems import QuarticProblem, make_lp_regression, make_norm_power
from lfso.verify import check_trace
from test_problems import TestConcurrentRuns


def quadratic(dim):
    """f(x) = ||x||^2 with its exact constant-curvature oracle."""
    problem = GradientOracle(dim=dim, eval=lambda x: float(x @ x),
                             grad=lambda x: 2.0 * x)
    return problem, Lfso(eval=lambda x, r: 2.0)


def quartic_chain(x, eta, r):
    """Hand evaluation of one quartic step: radius, oracle value, next point."""
    l_at_r = 24.0 * x * x + 24.0 * r * r
    r_tilde = max(r, eta * abs(4.0 * x ** 3) / l_at_r)
    l_k = 24.0 * x * x + 24.0 * r_tilde * r_tilde
    return r_tilde, l_k, x - eta * 4.0 * x ** 3 / l_k


QUARTIC = QuarticProblem()


def one_step(oracle, problem, x, r, eta=1.0, use_grad_bound=False,
             r_policy=None):
    """A single oracle-driven step from ``x`` with trial radius ``r``."""
    config = SolverConfig(r_policy=r_policy or RPolicy.constant(r), eta=eta,
                          max_iters=1, use_grad_bound=use_grad_bound)
    return run_lfso_gd(oracle, problem, np.asarray(x, dtype=float), config)


class TestComputeRTilde:
    """The inflated radius R~_k recorded by a one-step run."""

    def test_quartic_inflates_small_radius(self):
        rec = one_step(QUARTIC.lfso(), QUARTIC.objective(), [1.0], 0.1).records[0]
        assert rec.r_tilde_k == pytest.approx(4.0 / 24.24, rel=1e-15)
        assert rec.r_tilde_k == pytest.approx(0.16501650165016502, rel=1e-15)

    def test_quartic_keeps_large_radius(self):
        rec = one_step(QUARTIC.lfso(), QUARTIC.objective(), [1.0], 0.5).records[0]
        assert rec.r_tilde_k == 0.5
        assert 4.0 / 30.0 < 0.5

    def test_zero_oracle_with_gradient_raises(self):
        problem, _ = quadratic(2)
        dead = Lfso(eval=lambda x, r: 0.0)
        with pytest.raises(ZeroOracleError):
            one_step(dead, problem, np.ones(2), 0.3)

    def test_negative_oracle_at_inflated_radius_names_it(self):
        # L = 1 at R_k = 0.1 inflates R~_k to ||grad f(ones)|| = 2 sqrt(2),
        # where the oracle turns negative
        problem, _ = quadratic(2)
        oracle = Lfso(eval=lambda x, r: 1.0 if r < 1.0 else -3.0)
        with pytest.raises(ValueError,
                           match=r"^oracle value must be >= 0, got -3\.0$"):
            one_step(oracle, problem, np.ones(2), 0.1)

    def test_gradient_bound_substitution(self):
        problem = GradientOracle(
            dim=2, eval=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
            grad_norm_bound=lambda x: 2.0 * euclidean_norm(2.0 * x))
        oracle = Lfso(eval=lambda x, r: 2.0)
        x = np.array([3.0, 4.0])
        plain = one_step(oracle, problem, x, 1e-6).records[0]
        bounded = one_step(oracle, problem, x, 1e-6,
                           use_grad_bound=True).records[0]
        assert plain.r_tilde_k == pytest.approx(5.0)
        assert bounded.r_tilde_k == pytest.approx(10.0)

    def test_result_never_below_r_k(self):
        problem, oracle = quadratic(4)
        for r in (1e-8, 0.1, 5.0, 100.0):
            rec = one_step(oracle, problem, np.ones(4), r, eta=0.5).records[0]
            assert rec.r_k == r
            assert rec.r_tilde_k >= r

    def test_no_inflation_when_radius_already_covers_step(self):
        # eta * ||grad|| <= L * r_k leaves the radius untouched
        problem, oracle = quadratic(4)
        gnorm = euclidean_norm(problem.grad(np.ones(4)))
        for eta in (0.5, 1.0, 1.9):
            r = eta * gnorm / 2.0
            for radius in (r, 2 * r):
                rec = one_step(oracle, problem, np.ones(4), radius,
                               eta=eta).records[0]
                assert rec.r_tilde_k == radius


class TestLfsoStep:
    """The record and the next iterate of a one-step run."""

    def test_quartic_chain_frozen_values(self):
        trace = one_step(QUARTIC.lfso(), QUARTIC.objective(), [1.0], 0.1)
        rec, next_x = trace.records[0], trace.final_x
        r_tilde, l_k, expected_next = quartic_chain(1.0, 1.0, 0.1)
        assert rec.r_tilde_k == pytest.approx(r_tilde, rel=1e-15)
        assert rec.l_k == pytest.approx(l_k, rel=1e-15)
        assert next_x[0] == pytest.approx(expected_next, rel=1e-15)
        assert rec.r_tilde_k == pytest.approx(0.16501650165016502, rel=1e-14)
        assert rec.l_k == pytest.approx(24.653530699604612, rel=1e-14)
        assert next_x[0] == pytest.approx(0.83775143411551389, rel=1e-14)
        assert rec.step_norm <= rec.r_tilde_k

    def test_quadratic_one_step_to_minimizer(self):
        problem, oracle = quadratic(5)
        x = np.array([3.0, -1.0, 0.5, 2.0, -4.0])
        trace = one_step(oracle, problem, x, 0.1)
        assert np.all(trace.final_x == 0.0)
        assert trace.records[0].step_norm == pytest.approx(euclidean_norm(x))

    def test_norm_power_step_factor(self):
        problem, oracle = make_norm_power(10, 2)
        x0 = np.ones(10)
        trace = one_step(oracle, problem.objective(), x0, None,
                         r_policy=RPolicy.grad_g_norm(problem.g.grad))
        assert np.allclose(trace.final_x, (1.0 - 1.0 / 27.0) * x0, rtol=1e-15)
        rec = trace.records[0]
        assert rec.r_tilde_k / rec.r_k == pytest.approx(1.0)

    def test_oracle_overflow_raises(self):
        problem, _ = quadratic(2)
        bad = Lfso(eval=lambda x, r: float("inf"))
        with pytest.raises(NonFiniteValueError, match=(
                r"^lfso iteration diverged at k=0: "
                r"oracle value L\(x, R_k\) is not finite: inf$")):
            one_step(bad, problem, np.ones(2), 0.1)


def counted(problem, calls):
    """``problem`` with its objective and gradient counting their calls."""
    def count(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped
    return GradientOracle(dim=problem.dim, eval=count("eval", problem.eval),
                          grad=count("grad", problem.grad))


@pytest.mark.parametrize("solver", ["lfso", "fixed"])
@pytest.mark.parametrize("eta, max_iters, grad_tol, termination, steps", [
    pytest.param(0.5, 4, 0.0, Termination.MAX_ITERATIONS, 4, id="budget"),
    pytest.param(0.5, 100, 0.1, Termination.GRADIENT_TOLERANCE, 6, id="tol"),
    pytest.param(1.0, 100, 0.0, Termination.STATIONARY_EXACT, 1, id="stationary"),
])
def test_each_iterate_evaluated_once(solver, eta, max_iters, grad_tol,
                                     termination, steps):
    # on ||x||^2 with L = 2 both solvers halve x (eta = 0.5) or jump to 0
    problem, oracle = quadratic(3)
    calls = {"eval": 0, "grad": 0}
    if solver == "lfso":
        config = SolverConfig(r_policy=RPolicy.constant(1.0), eta=eta,
                              max_iters=max_iters, grad_tol=grad_tol)
        trace = run_lfso_gd(oracle, counted(problem, calls), np.ones(3), config)
    else:
        trace = run_fixed_gd(counted(problem, calls), np.ones(3), eta / 2.0,
                             max_iters=max_iters, grad_tol=grad_tol)
    assert trace.termination is termination
    assert trace.num_steps == steps
    assert calls == {"eval": steps + 1, "grad": steps + 1}


@pytest.mark.parametrize("solver", ["lfso", "fixed"])
def test_evaluate_replaces_eval_and_grad(solver):
    # an objective with evaluate is evaluated by it alone, once per iterate
    problem, oracle = quadratic(3)
    calls = {"eval": 0, "grad": 0, "evaluate": 0}

    def evaluate(x):
        calls["evaluate"] += 1
        return problem.eval(x), problem.grad(x)

    fast = replace(counted(problem, calls), evaluate=evaluate)
    if solver == "lfso":
        config = SolverConfig(r_policy=RPolicy.constant(1.0), eta=0.5,
                              max_iters=4)
        trace = run_lfso_gd(oracle, fast, np.ones(3), config)
    else:
        trace = run_fixed_gd(fast, np.ones(3), 0.25, max_iters=4)
    assert trace.num_steps == 4
    assert calls == {"eval": 0, "grad": 0, "evaluate": 5}


def shipped_runs():
    """{label: (config, bundle)} of the 20 figure runs at 1000 iterations,
    the verify suite's 11 runs and the oracle runs of both families from
    1e52 * ones."""
    runs = {}
    for figure, (problem, solver, eta, _) in cli.FIGURE_RUNS.items():
        for p in cli.FIGURE_PS:
            cfg = cli.ExperimentConfig(
                problem=problem, solver=solver, p=p, max_iters=1000,
                eta=cli.fig1a_eta(p, np.ones(10)) if eta is None else eta)
            runs[f"{figure} p={p}"] = cfg, cli.build_experiment(cfg)
    for cfg in cli.SUITE_RUNS:
        runs[f"suite {cli._suite_label(cfg)}"] = cfg, cli.build_experiment(cfg)
    for problem in ("lp-norm", "norm2-pow"):
        cfg = cli.ExperimentConfig(problem=problem, p=2)
        bundle = replace(cli.build_experiment(cfg), x0=np.full(10, 1e52))
        runs[f"{problem} p=2 from 1e52"] = cfg, bundle
    return runs


SHIPPED_RUNS = shipped_runs()


@pytest.mark.parametrize("label", sorted(SHIPPED_RUNS))
def test_fast_forms_leave_every_trace_unchanged(label):
    # the solvers give the same bits with evaluate and at as with the
    # scalar callables alone, as a tracer that rebuilds the pair runs them
    cfg, bundle = SHIPPED_RUNS[label]
    objective, oracle = bundle.objective, bundle.lfso
    structured = cfg.problem != "quartic"
    assert (objective.evaluate is not None) == structured
    assert (oracle.at is not None) == structured
    fingerprint = TestConcurrentRuns.fingerprint
    fast = fingerprint(cli.execute(cfg, bundle))
    for without in (replace(bundle, objective=replace(objective, evaluate=None)),
                    replace(bundle, lfso=replace(oracle, at=None)),
                    replace(bundle, objective=replace(objective, evaluate=None),
                            lfso=replace(oracle, at=None))):
        assert fingerprint(cli.execute(cfg, without)) == fast


def outcome(cfg, bundle):
    """The trace's fingerprint, or the message of the error the run ends
    with."""
    try:
        return TestConcurrentRuns.fingerprint(cli.execute(cfg, bundle))
    except NonFiniteValueError as exc:
        return str(exc)


@pytest.mark.parametrize("problem", ["lp-norm", "norm2-pow"])
@pytest.mark.parametrize("solver", ["lfso", "fixed"])
def test_fast_forms_end_diverging_runs_with_the_same_error(problem, solver):
    # from huge starts the gradient norm, the objective or a product
    # overflows; an iterate where evaluate fails is evaluated by grad, its
    # norm check and eval, so the run names the value they name first
    for p in (2, 3, 5):
        cfg = cli.ExperimentConfig(problem=problem, p=p, solver=solver,
                                   max_iters=3)
        bundle = cli.build_experiment(cfg)
        scalar = replace(bundle,
                         objective=replace(bundle.objective, evaluate=None),
                         lfso=replace(bundle.lfso, at=None))
        for scale in np.geomspace(1e20, 1e160, 57):
            x0 = np.full(10, scale)
            assert (outcome(cfg, replace(bundle, x0=x0))
                    == outcome(cfg, replace(scalar, x0=x0))), (p, scale)


TINY = float(np.finfo(np.float64).tiny)


def identity_gradient():
    """f(x) = ||x||^2 / 2, whose gradient is x itself, with oracle 1."""
    problem = GradientOracle(dim=1, eval=lambda x: 0.5 * float(x @ x),
                             grad=lambda x: x.copy())
    return problem, Lfso(eval=lambda x, r: 1.0)


@pytest.mark.parametrize("solver", ["lfso", "fixed"])
class TestGradientUnderflow:
    """A run stops with ``gradient-underflow`` at the first iterate whose
    gradient norm is positive but below the smallest normal float64."""

    @staticmethod
    def run(solver, x0, eta=0.5, max_iters=10_000, grad_tol=0.0):
        problem, oracle = quadratic(3)
        x0 = np.full(3, x0)
        if solver == "lfso":
            config = SolverConfig(r_policy=RPolicy.constant(1.0), eta=eta,
                                  max_iters=max_iters, grad_tol=grad_tol)
            return run_lfso_gd(oracle, problem, x0, config)
        return run_fixed_gd(problem, x0, eta / 2.0, max_iters=max_iters,
                            grad_tol=grad_tol)

    def test_stops_at_first_subnormal_gradient(self, solver):
        # x halves each step, so ||grad f|| = 2 sqrt(3) x falls below tiny
        trace = self.run(solver, 1e-300)
        assert trace.termination is Termination.GRADIENT_UNDERFLOW
        assert 0.0 < trace.final_grad_norm < TINY
        assert min(rec.grad_norm for rec in trace.records) >= TINY
        steps = 0
        while 2.0 * math.sqrt(3.0) * 1e-300 * 0.5 ** steps >= TINY:
            steps += 1
        assert trace.num_steps == steps
        assert np.all(trace.final_x > 0.0)

    def test_subnormal_start_takes_no_step(self, solver):
        trace = self.run(solver, 1e-310)
        assert trace.num_steps == 0
        assert trace.termination is Termination.GRADIENT_UNDERFLOW

    def test_tolerance_checked_first(self, solver):
        trace = self.run(solver, 1e-310, grad_tol=1e-300)
        assert trace.termination is Termination.GRADIENT_TOLERANCE

    def test_exact_zero_checked_first(self, solver):
        # eta = 1 jumps to the minimizer, whose gradient is exactly 0
        trace = self.run(solver, 1e-300, eta=1.0)
        assert trace.termination is Termination.STATIONARY_EXACT

    def test_smallest_normal_gradient_is_not_underflow(self, solver):
        # from grad = tiny one step lands on a subnormal gradient, where the
        # budget of one step is spent: the budget is tested first
        problem, oracle = identity_gradient()
        for x0, want in ((TINY, Termination.MAX_ITERATIONS),
                         (np.nextafter(TINY, 0.0), Termination.GRADIENT_UNDERFLOW)):
            if solver == "lfso":
                config = SolverConfig(r_policy=RPolicy.constant(1.0),
                                      eta=0.5, max_iters=1)
                trace = run_lfso_gd(oracle, problem, np.array([x0]), config)
            else:
                trace = run_fixed_gd(problem, np.array([x0]), 0.5, max_iters=1)
            assert trace.termination is want
            assert 0.0 < trace.final_grad_norm < TINY


@pytest.mark.parametrize("solver", ["lfso", "fixed"])
class TestStalled:
    """A run stops with ``stalled`` at the first iterate equal to the one
    before it, after that one no-op step."""

    @staticmethod
    def run(solver, problem, x0, step, max_iters=100):
        # both solvers move x by step * grad f(x)
        if solver == "lfso":
            config = SolverConfig(r_policy=RPolicy.constant(1.0), eta=1.0,
                                  max_iters=max_iters)
            oracle = Lfso(eval=lambda x, r: 1.0 / step)
            return run_lfso_gd(oracle, problem, x0, config)
        return run_fixed_gd(problem, x0, step, max_iters=max_iters)

    def test_step_below_rounding_stops_after_one_step(self, solver):
        # 1e-17 is below half an ulp of 1, so x + step rounds back to x
        problem, _ = identity_gradient()
        trace = self.run(solver, problem, np.array([1.0]), 1e-17)
        assert trace.termination is Termination.STALLED
        assert trace.num_steps == 1
        assert trace.records[0].step_norm == 1e-17
        assert trace.final_x.tolist() == [1.0]
        assert trace.final_grad_norm == trace.records[0].grad_norm

    def test_budget_checked_first(self, solver):
        problem, _ = identity_gradient()
        trace = self.run(solver, problem, np.array([1.0]), 1e-17, max_iters=1)
        assert trace.termination is Termination.MAX_ITERATIONS

    def test_same_gradient_norm_with_moving_x_runs_on(self, solver, monkeypatch):
        # f = sum(x) has the same gradient everywhere, so every iterate
        # after the first is compared with the one before, and differs
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal",
                            lambda a, b: compared.append(1) or array_equal(a, b))
        linear = GradientOracle(dim=2, eval=lambda x: float(x.sum()),
                                grad=lambda x: np.ones(2))
        trace = self.run(solver, linear, np.zeros(2), 0.5, max_iters=20)
        assert trace.termination is Termination.MAX_ITERATIONS
        assert len(compared) == 19

    def test_changing_gradient_norm_pays_no_comparison(self, solver,
                                                        monkeypatch):
        compared = []
        monkeypatch.setattr(np, "array_equal",
                            lambda a, b: compared.append(1))
        problem, _ = identity_gradient()
        trace = self.run(solver, problem, np.array([1.0]), 0.5, max_iters=50)
        assert trace.num_steps == 50
        assert compared == []


class TestRunLfsoGd:
    def test_grad_bound_requested_without_one_rejected(self):
        # norm-power objectives carry no gradient-norm bound
        problem, oracle = make_norm_power(10, 2)
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                              use_grad_bound=True)
        with pytest.raises(ValueError, match="has none"):
            run_lfso_gd(oracle, problem.objective(), np.ones(10), config)

    def test_p1_composition_one_step_stationary(self):
        problem, oracle = make_norm_power(10, 1)
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad))
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config)
        assert trace.num_steps == 1
        assert trace.termination is Termination.STATIONARY_EXACT
        assert np.all(trace.final_x == 0.0)

    def test_lp_p2_closed_form_trajectory(self):
        problem, oracle = make_lp_regression(np.eye(10), np.zeros(10), 2)
        config = SolverConfig(
            r_policy=RPolicy.residual_inf_norm(problem.a, problem.b),
            max_iters=60, use_grad_bound=True)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config,
                            keep_iterates=True)
        for k, x in enumerate(trace.iterates):
            assert np.allclose(x, (11.0 / 12.0) ** k * np.ones(10), rtol=1e-9)
            assert np.all(x == x[0])  # symmetry preserved bit for bit
        ratios = trace.grad_ratios()
        for k in (1, 10, 60):
            assert ratios[k] == pytest.approx((11.0 / 12.0) ** (3 * k), rel=1e-9)

    def test_infinite_tolerance_stops_immediately(self):
        problem, oracle = quadratic(3)
        config = SolverConfig(r_policy=RPolicy.constant(1.0),
                              grad_tol=float("inf"))
        trace = run_lfso_gd(oracle, problem, np.ones(3), config)
        assert trace.num_steps == 0
        assert trace.termination is Termination.GRADIENT_TOLERANCE
        assert np.all(trace.final_x == 1.0)

    def test_grad_tol_triggers(self):
        config = SolverConfig(r_policy=RPolicy.constant(0.1), grad_tol=1e-3,
                              max_iters=10_000)
        trace = run_lfso_gd(QUARTIC.lfso(), QUARTIC.objective(),
                            np.array([1.0]), config)
        assert trace.termination is Termination.GRADIENT_TOLERANCE
        assert trace.final_grad_norm <= 1e-3
        assert trace.records[-1].grad_norm > 1e-3

    def test_degenerate_minimizer_stops_without_probe(self):
        # the oracle is 0 at x = 0 too, but the loop stops on the gradient
        # alone, before it calls the policy or the oracle
        problem, oracle = make_norm_power(4, 2)
        calls = []
        policy = RPolicy.grad_g_norm(problem.g.grad)
        config = SolverConfig(r_policy=RPolicy(
            "counted", lambda x: calls.append("policy") or policy(x)))
        counted = Lfso(eval=lambda x, r: calls.append("oracle") or
                       oracle.eval(x, r))
        trace = run_lfso_gd(counted, problem.objective(), np.zeros(4), config)
        assert trace.num_steps == 0
        assert trace.termination is Termination.STATIONARY_EXACT
        assert calls == []
        assert oracle.eval(np.zeros(4), 0.0) == 0.0

    def test_shape_mismatch(self):
        problem, oracle = quadratic(3)
        config = SolverConfig(r_policy=RPolicy.constant(1.0))
        with pytest.raises(ShapeMismatchError):
            run_lfso_gd(oracle, problem, np.ones(4), config)

    def test_budget_exhaustion_records_reason(self):
        config = SolverConfig(r_policy=RPolicy.constant(0.1), max_iters=5)
        trace = run_lfso_gd(QUARTIC.lfso(), QUARTIC.objective(),
                            np.array([1.0]), config)
        assert trace.num_steps == 5
        assert trace.termination is Termination.MAX_ITERATIONS

    def test_finite_sum_surrogate(self):
        # telescoping the per-step descent bounds the weighted gradient sum
        problem, oracle = make_norm_power(10, 3)
        eta = 0.8
        config = SolverConfig(r_policy=RPolicy.grad_g_norm(problem.g.grad),
                              eta=eta, max_iters=400)
        trace = run_lfso_gd(oracle, problem.objective(), np.ones(10), config)
        total = sum(rec.grad_norm ** 2 / rec.l_k for rec in trace.records)
        f_values = trace.f_values()
        bound = 2.0 * (f_values[0] - f_values[-1]) / (eta * (2.0 - eta))
        assert total <= bound * (1.0 + 1e-9)


class TestTraceProperties:
    @settings(max_examples=40, deadline=None)
    @given(x0=st.floats(0.2, 3.0), eta=st.floats(0.05, 1.95),
           r=st.floats(0.01, 1.0))
    def test_quartic_runs_satisfy_descent_and_containment(self, x0, eta, r):
        config = SolverConfig(r_policy=RPolicy.constant(r), eta=eta,
                              max_iters=60)
        trace = run_lfso_gd(QUARTIC.lfso(), QUARTIC.objective(),
                            np.array([x0]), config)
        report = check_trace(trace, eta)
        assert report.violations == 0

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.1, 2.0))
    def test_grad_bound_keeps_containment(self, scale):
        problem, oracle = make_lp_regression(np.eye(6), np.zeros(6), 3)
        config = SolverConfig(
            r_policy=RPolicy.residual_inf_norm(problem.a, problem.b),
            max_iters=50, use_grad_bound=True)
        trace = run_lfso_gd(oracle, problem.objective(),
                            scale * np.ones(6), config)
        for rec in trace.records:
            assert rec.step_norm <= rec.r_tilde_k * (1.0 + 1e-14)
            assert rec.r_tilde_k >= rec.r_k


class TestRunFixedGd:
    def test_quadratic_geometric_decay(self):
        problem, _ = quadratic(10)
        trace = run_fixed_gd(problem, np.ones(10), 1e-2, max_iters=100,
                             keep_iterates=True)
        for k, x in enumerate(trace.iterates):
            assert np.allclose(x, 0.98 ** k * np.ones(10), rtol=1e-12)

    def test_oscillating_convergence(self):
        # f(x) = x^2 / 2 with eta = 1.5 flips sign each step and contracts
        problem = GradientOracle(dim=1, eval=lambda x: 0.5 * float(x[0]) ** 2,
                                 grad=lambda x: x.copy())
        trace = run_fixed_gd(problem, np.array([1.0]), 1.5, max_iters=30,
                             keep_iterates=True)
        for k, x in enumerate(trace.iterates):
            assert x[0] == pytest.approx((-0.5) ** k, rel=1e-12, abs=1e-300)

    def test_divergence_raises(self):
        problem = GradientOracle(dim=1, eval=lambda x: float(x[0]) ** 2,
                                 grad=lambda x: 2.0 * x)
        with pytest.raises(NonFiniteValueError,
                           match="^fixed iteration diverged at k="):
            run_fixed_gd(problem, np.array([1.0]), 10.0, max_iters=1000)

    def test_sentinel_trace_conventions(self):
        problem, _ = quadratic(3)
        trace = run_fixed_gd(problem, np.ones(3), 0.25, max_iters=10)
        assert trace.algorithm == "fixed"
        for rec in trace.records:
            assert rec.r_k == 0.0
            assert rec.r_tilde_k == 0.0
            assert rec.l_k == 4.0
            assert rec.step_norm == pytest.approx(0.25 * rec.grad_norm)

    def test_bad_eta_rejected(self):
        problem, _ = quadratic(2)
        with pytest.raises(ValueError):
            run_fixed_gd(problem, np.ones(2), 0.0)

    @pytest.mark.parametrize("grad_tol", [-1.0, float("nan")])
    def test_bad_grad_tol_rejected(self, grad_tol):
        problem, _ = quadratic(2)
        with pytest.raises(ValueError, match="grad_tol"):
            run_fixed_gd(problem, np.ones(2), 0.1, grad_tol=grad_tol)


def overflowing_below(threshold, fn):
    """``fn``, except that at an x with x[0] < threshold it overflows a
    Python float, as ``float(r) ** 2`` does for a huge r."""
    def wrapped(x, *radius):
        if x[0] < threshold:
            return math.exp(1e4)
        return fn(x, *radius)
    return wrapped


class TestNonFiniteStep:
    """A non-finite value or a float overflow in any callback ends a run of
    either solver in one NonFiniteValueError naming the solver and k.  On
    ||x||^2 both runs below halve x from ones, so x_2 = 0.25 is the first
    iterate below 0.3."""

    @pytest.mark.parametrize("part", ["eval", "grad", "bound", "policy",
                                      "oracle"])
    def test_lfso_overflow_names_k(self, part):
        problem, _ = quadratic(2)
        parts = {"eval": problem.eval, "grad": problem.grad,
                 "bound": lambda x: 2.0 * euclidean_norm(x),
                 "policy": lambda x: 1.0, "oracle": lambda x, r: 2.0}
        parts[part] = overflowing_below(0.3, parts[part])
        objective = GradientOracle(dim=2, eval=parts["eval"],
                                   grad=parts["grad"],
                                   grad_norm_bound=parts["bound"])
        config = SolverConfig(r_policy=RPolicy("callback", parts["policy"]),
                              eta=0.5, use_grad_bound=True)
        with pytest.raises(NonFiniteValueError,
                           match="^lfso iteration diverged at k=2: overflow "):
            run_lfso_gd(Lfso(eval=parts["oracle"]), objective, np.ones(2),
                        config)

    @pytest.mark.parametrize("part", ["eval", "grad"])
    def test_fixed_overflow_names_k(self, part):
        problem, _ = quadratic(2)
        parts = {"eval": problem.eval, "grad": problem.grad}
        parts[part] = overflowing_below(0.3, parts[part])
        with pytest.raises(NonFiniteValueError,
                           match="^fixed iteration diverged at k=2: overflow "):
            run_fixed_gd(GradientOracle(dim=2, **parts), np.ones(2), 0.25)

    def test_fixed_numpy_overflow_names_k(self):
        # from ones the step on sum(x^4) reaches |x| ~ 6e187 at k = 6, where
        # x ** 3 overflows in numpy; the caller's error state comes back
        problem = GradientOracle(dim=2, eval=lambda x: float(np.sum(x ** 4)),
                                 grad=lambda x: 4.0 * x ** 3)
        before = np.geterr()
        with pytest.raises(NonFiniteValueError, match=(
                "^fixed iteration diverged at k=6: "
                "overflow encountered in power$")):
            run_fixed_gd(problem, np.ones(2), 1.0)
        assert np.geterr() == before

    def test_lfso_numpy_overflow_names_k(self):
        problem, _ = quadratic(2)
        oracle = Lfso(eval=lambda x, r: float(np.square(np.full(2, r)).max()))
        config = SolverConfig(r_policy=RPolicy.constant(1e200))
        with pytest.raises(NonFiniteValueError, match=(
                "^lfso iteration diverged at k=0: "
                "overflow encountered in square$")):
            run_lfso_gd(oracle, problem, np.ones(2), config)

    def test_overflowing_stepsize_names_k(self):
        # eta / L is inf at the subnormal L = 1e-310, and inf * 0 in the
        # product with g = (1e-10, 0) would be NaN with a numpy warning
        problem, _ = quadratic(2)
        config = SolverConfig(r_policy=RPolicy.constant(1e300), max_iters=3)
        with pytest.raises(NonFiniteValueError, match=(
                r"^lfso iteration diverged at k=0: "
                r"stepsize eta / L\(x, R~_k\) is not finite: inf$")):
            run_lfso_gd(Lfso(eval=lambda x, r: 1e-310), problem,
                        np.array([5e-11, 0.0]), config)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_radius_names_k(self, radius):
        config = SolverConfig(r_policy=RPolicy("callback", lambda x: radius))
        with pytest.raises(NonFiniteValueError, match=(
                r"^lfso iteration diverged at k=0: "
                r"radius R_k is not finite: (inf|nan)$")):
            run_lfso_gd(QUARTIC.lfso(), QUARTIC.objective(), np.array([1.0]),
                        config)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_radius_raises_value_error(self, radius):
        config = SolverConfig(r_policy=RPolicy("callback", lambda x: radius))
        with pytest.raises(ValueError, match="^r_k must be positive, got "):
            run_lfso_gd(QUARTIC.lfso(), QUARTIC.objective(), np.array([1.0]),
                        config)

    @pytest.mark.parametrize("family", ["norm2-pow", "lp-norm"])
    def test_structured_oracle_overflow_raises(self, family):
        # at R = 1e100 both p = 3 oracles hold a term near 1e400, which is
        # inf in float64; the step's own check catches it
        if family == "norm2-pow":
            problem, oracle = make_norm_power(4, 3)
        else:
            problem, oracle = make_lp_regression(np.eye(4), np.zeros(4), 3)
        config = SolverConfig(r_policy=RPolicy.constant(1e100))
        with pytest.raises(NonFiniteValueError, match=(
                r"^lfso iteration diverged at k=0: "
                r"oracle value L\(x, R_k\) is not finite: inf$")):
            run_lfso_gd(oracle, problem.objective(), np.ones(4), config)


class TestConfigAndTypes:
    @pytest.mark.parametrize("eta", [0.0, -1.0, 2.0, 2.5, float("nan")])
    def test_eta_outside_open_interval_rejected(self, eta):
        with pytest.raises(ValueError):
            SolverConfig(r_policy=RPolicy.constant(1.0), eta=eta)

    def test_eta_near_boundaries_accepted(self):
        SolverConfig(r_policy=RPolicy.constant(1.0), eta=1e-9)
        SolverConfig(r_policy=RPolicy.constant(1.0), eta=1.999999)

    def test_nonpositive_constant_radius_rejected(self):
        with pytest.raises(ValueError):
            RPolicy.constant(0.0)
        for c in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                RPolicy.constant(c)

    def test_callback_policy(self):
        problem, oracle = quadratic(3)
        policy = RPolicy("callback", lambda x: 0.5 * euclidean_norm(x))
        config = SolverConfig(r_policy=policy, max_iters=4)
        trace = run_lfso_gd(oracle, problem, np.ones(3), config)
        assert policy.kind == "callback"
        assert trace.records[0].r_k == pytest.approx(0.5 * math.sqrt(3.0))

    def test_bad_grad_tol_and_budget(self):
        problem, oracle = quadratic(2)
        policy = RPolicy.constant(1.0)
        for grad_tol in (-1.0, math.nan):
            with pytest.raises(ValueError, match="grad_tol must be >= 0"):
                SolverConfig(r_policy=policy, grad_tol=grad_tol)
            with pytest.raises(ValueError, match="grad_tol must be >= 0"):
                run_fixed_gd(problem, np.ones(2), 0.1, grad_tol=grad_tol)
        for max_iters in (0, -3, 2.5, math.inf, math.nan, np.float64(0.5)):
            message = f"max_iters must be a whole number >= 1, got {max_iters}"
            with pytest.raises(ValueError, match=re.escape(message)):
                SolverConfig(r_policy=policy, max_iters=max_iters)
            with pytest.raises(ValueError, match=re.escape(message)):
                run_fixed_gd(problem, np.ones(2), 0.1, max_iters=max_iters)
        huge = 10 ** 400  # too large for a float, but a whole number
        assert SolverConfig(r_policy=policy, max_iters=huge).max_iters == huge
        # a whole float is a budget of that many steps, in both solvers;
        # both steps halve x, so no run stops early
        for max_iters in (3.0, np.float64(3.0), np.int64(3)):
            config = SolverConfig(r_policy=policy, eta=0.5, max_iters=max_iters)
            assert config.max_iters == 3 and type(config.max_iters) is int
            for trace in (run_lfso_gd(oracle, problem, np.ones(2), config),
                          run_fixed_gd(problem, np.ones(2), 0.25,
                                       max_iters=max_iters)):
                assert trace.num_steps == 3
                assert trace.termination is Termination.MAX_ITERATIONS

    def test_as_vector_rejects_matrices_and_nans(self):
        with pytest.raises(ShapeMismatchError):
            as_vector(np.ones((2, 2)))
        with pytest.raises(NonFiniteValueError):
            as_vector([1.0, float("nan")])

    def test_grad_ratios_normalized(self):
        problem, oracle = quadratic(4)
        config = SolverConfig(r_policy=RPolicy.constant(1.0), max_iters=3)
        trace = run_lfso_gd(oracle, problem, np.ones(4), config)
        ratios = trace.grad_ratios()
        assert ratios[0] == 1.0


class TestEuclideanNorm:
    def test_matches_numpy_in_normal_range(self):
        v = np.array([3.0, -4.0, 12.0])
        assert euclidean_norm(v) == np.linalg.norm(v)

    def test_tiny_entries_do_not_underflow(self):
        v = np.full(10, 1e-200)
        assert euclidean_norm(v) == pytest.approx(math.sqrt(10) * 1e-200,
                                                  rel=1e-12)
        assert np.linalg.norm(v) == 0.0  # the naive norm loses these

    def test_huge_entries_do_not_overflow(self):
        v = np.full(4, 1e200)
        assert euclidean_norm(v) == pytest.approx(2e200, rel=1e-12)

    def test_zero_vector(self):
        assert euclidean_norm(np.zeros(5)) == 0.0


def reference_norm(v):
    """The norm without the ``sqrt(v . v)`` path: scan, then linalg.norm."""
    m = float(np.max(np.abs(v), initial=0.0))
    if m == 0.0 or 1e-140 < m < 1e140:
        return float(np.linalg.norm(v))
    if not np.isfinite(m):
        return m
    return m * float(np.linalg.norm(v / m))


def same_bits(a, b):
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


class TestEuclideanNormFastPath:
    """``sqrt(v . v)`` in the normal range gives the bits of the reference."""

    EDGE = 1e-140
    SCALES = [np.nextafter(EDGE, 0.0), EDGE, np.nextafter(EDGE, 1.0), 1.0,
              np.nextafter(1e140, 0.0), 1e140, np.nextafter(1e140, np.inf),
              1e-300, 1e300, 5e-324]

    @pytest.mark.parametrize("d", [1, 10, 1000, 80000])
    def test_random_vectors_at_every_scale(self, d):
        rng = np.random.default_rng(d)
        for scale in self.SCALES:
            for _ in range(3):
                u = rng.normal(size=d)
                v = u / np.abs(u).max() * scale  # largest entry is +-scale
                assert same_bits(euclidean_norm(v), reference_norm(v)), (d, scale)

    @pytest.mark.parametrize("d", [1, 10, 1000, 80000])
    def test_zero_subnormal_and_inf_entries(self, d):
        rng = np.random.default_rng(d + 1)
        tiny = np.finfo(np.float64).smallest_subnormal
        cases = [np.zeros(d), np.full(d, -0.0), np.full(d, tiny),
                 rng.integers(1, 4, size=d) * tiny]
        for special in (np.inf, -np.inf, np.nan, 0.0, tiny):
            v = rng.normal(size=d)
            v[rng.integers(d)] = special
            cases.append(v)
        for v in cases:
            assert same_bits(euclidean_norm(v), reference_norm(v)), v[:3]

    @pytest.mark.parametrize("d", [1, 10, 300])
    def test_row_form_matches_per_row(self, d):
        # rows at every scale, both sides of the rescaling range, plus
        # zero, subnormal, inf and NaN rows
        rng = np.random.default_rng(d + 2)
        rows = []
        for scale in self.SCALES:
            u = rng.normal(size=(3, d))
            rows.extend(u / np.abs(u).max(axis=1, keepdims=True) * scale)
        tiny = np.finfo(np.float64).smallest_subnormal
        rows += [np.zeros(d), np.full(d, -0.0), np.full(d, tiny)]
        for special in (np.inf, -np.inf, np.nan):
            v = rng.normal(size=d)
            v[rng.integers(d)] = special
            rows.append(v)
        vs = np.array(rows)
        # the rows at scale 1 alone take the all-plain path
        for block in (vs, vs[np.abs(vs).max(axis=1) == 1.0]):
            for v, norm in zip(block, euclidean_norm_rows(block).tolist()):
                assert same_bits(norm, euclidean_norm(v)), v[:3]

    @pytest.mark.parametrize("d", [1, 10, 1000])
    def test_step_norm_from_the_gradient_scan(self, d):
        # the solver's step c * g has largest entry c * max|g_i| (rounding
        # is monotone and symmetric in sign), so its norm takes that m:
        # stepsizes that carry m across 1e-140 and 1e140, to subnormal
        # steps and to 0
        rng = np.random.default_rng(d + 3)
        tiny = np.finfo(np.float64).smallest_subnormal
        for g_scale in (1e-300, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e300):
            u = rng.normal(size=d)
            g = u / np.abs(u).max() * g_scale
            g_max = core._abs_max(g)
            stepsizes = [0.0, tiny, 1e-320, 1e-310]
            for edge in (self.EDGE, 1e140):
                m = edge / g_max
                stepsizes += [np.nextafter(m, 0.0), m, np.nextafter(m, np.inf)]
            for c in stepsizes:
                c = float(c)
                if not 0.0 <= c * g_max < np.inf:
                    continue
                step = c * g
                assert core._abs_max(step) == c * g_max, (g_scale, c)
                assert same_bits(core._norm_given_max(step, c * g_max),
                                 euclidean_norm(step)), (g_scale, c)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=12))
    def test_any_finite_or_special_entries(self, entries):
        v = np.array(entries, dtype=np.float64)
        assert same_bits(euclidean_norm(v), reference_norm(v))


def test_public_names_pinned():
    # A name added to or dropped from the package's public surface shows up
    # here; the submodules that importing binds in the package stay out.
    assert sorted(lfso.__all__) == [
        'AssumptionUnmetError', 'CheckReport', 'CompositionProblem',
        'ConstantLfsoParams', 'GradientOracle', 'InsufficientDataError', 'IterationRecord', 'Lfso', 'LfsoError',
        'LpRegressionProblem', 'MissingDiagnosticsError',
        'NegativeCurvatureError', 'NoConvergenceWarning', 'NonFiniteValueError',
        'QuarticProblem', 'RPolicy', 'RateFit',
        'RunTrace', 'SampleSpec', 'ShapeMismatchError', 'SolverConfig',
        'Termination', 'Vector',
        'ZeroOracleError', 'as_vector',
        'check_composition_run', 'check_holder', 'check_lfso_validity',
        'check_monotone_in_R', 'check_quartic_threshold',
        'check_regression_qlinear', 'check_trace', 'classify_rate',
        'composition_lfso', 'condition_number', 'constant_lfso',
        'euclidean_norm', 'fit_linear_rate', 'fit_powerlaw_rate',
        'hessian_lipschitz_lfso', 'load_regression_data', 'lp_regression_lfso',
        'make_lp_regression', 'make_norm_power',
        'regression_constants', 'run_fixed_gd',
        'run_lfso_gd', 'spectral_norm']
    assert len(lfso.__all__) == 48
