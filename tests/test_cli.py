import json
import math
from dataclasses import fields

import numpy as np
import pytest

from lfso import _svg, cli
from lfso.core import euclidean_norm
from lfso.problems import load_regression_data
from lfso.verify import fit_linear_rate


def write_system(tmp_path):
    """A 3 x 4 regression-file system; returns its path."""
    data = tmp_path / "system.txt"
    data.write_text("3 4\n1 0 0 0\n0 1 0 0\n0 0 1 1\n1 -2 0.5\n")
    return data


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    """A trace CSV as a dict of float columns keyed by the header names."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != cli.TRACE_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        names = header.split(",")
        columns = {name: [] for name in names}
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(names):
                raise ValueError(f"{path}: malformed row {line!r}")
            for name, tok in zip(names, parts):
                columns[name].append(float(tok))
    return columns


class TestRunCommand:
    def test_norm_power_p2_ratio_column(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli(["run", "--problem", "norm2-pow", "--d", "10",
                        "--p", "2", "--eta", "1", "--max-iters", "100",
                        "--out", out]) == 0
        columns = read_csv(out)
        for k in (0, 1, 10, 50, 100):
            expected = (26.0 / 27.0) ** (3 * k)
            assert columns["grad_ratio"][k] == pytest.approx(expected, rel=1e-9)
        summary = capsys.readouterr().out
        assert "termination=max-iterations" in summary
        assert "rate=linear" in summary

    def test_lp_norm_p2_ratio_column(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run_cli(["run", "--problem", "lp-norm", "--d", "10", "--p", "2",
                        "--eta", "1", "--max-iters", "80", "--out", out]) == 0
        columns = read_csv(out)
        for k in (1, 40, 80):
            expected = (11.0 / 12.0) ** (3 * k)
            assert columns["grad_ratio"][k] == pytest.approx(expected, rel=1e-9)

    def test_norm_power_p1_one_step(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run_cli(["run", "--problem", "norm2-pow", "--p", "1",
                        "--out", out]) == 0
        summary = capsys.readouterr().out
        assert "termination=stationary-exact" in summary
        assert "final_grad_ratio=0" in summary
        columns = read_csv(out)
        assert columns["k"] == [0.0, 1.0]
        assert columns["grad_ratio"][-1] == 0.0

    def test_quartic_default_policy(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run_cli(["run", "--problem", "quartic", "--max-iters", "50",
                        "--out", out]) == 0
        columns = read_csv(out)
        assert columns["R"][0] == 0.1
        assert columns["R_tilde"][0] == pytest.approx(4.0 / 24.24, rel=1e-12)

    def test_quartic_summary_reports_run_dimension(self, tmp_path, capsys):
        assert run_cli(["run", "--problem", "quartic", "--max-iters", "3",
                        "--out", tmp_path / "q.csv"]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("run problem=quartic d=1 eta=1 solver=lfso ")

    def test_fixed_solver_quadratic(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli(["run", "--problem", "norm2-pow", "--p", "1",
                        "--solver", "fixed", "--eta", "0.01",
                        "--max-iters", "200", "--out", out]) == 0
        columns = read_csv(out)
        assert columns["grad_ratio"][100] == pytest.approx(0.98 ** 100, rel=1e-10)
        assert columns["L"][0] == 100.0  # 1/eta sentinel

    def test_csv_header_and_consistency(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(["run", "--problem", "norm2-pow", "--p", "3",
                 "--max-iters", "40", "--out", out])
        with open(out) as fh:
            assert fh.readline().strip() == \
                "k,f,grad_norm,R,R_tilde,L,step_norm,grad_ratio"
        columns = read_csv(out)
        g0 = columns["grad_norm"][0]
        for gn, ratio in zip(columns["grad_norm"], columns["grad_ratio"]):
            assert ratio == gn / g0
        assert columns["k"] == list(map(float, range(41)))

    def test_csv_round_trip_reproduces_fit(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(["run", "--problem", "lp-norm", "--p", "3",
                 "--max-iters", "300", "--out", out])
        ratios = read_csv(out)["grad_ratio"]
        fit = fit_linear_rate(ratios)
        expected_slope = 5.0 * math.log(1.0 - 1.0 / 80.0)
        assert fit.slope == pytest.approx(expected_slope, rel=1e-9)
        # 17 significant digits round-trip exactly
        refit = fit_linear_rate([float(v) for v in ratios])
        assert refit.slope == fit.slope

    def test_regression_file_problem(self, tmp_path, capsys):
        data = tmp_path / "system.txt"
        data.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n0.5 -1 2\n")
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--problem", "regression-file", "--data", data,
                        "--p", "2", "--max-iters", "300", "--grad-tol", "1e-12",
                        "--out", out]) == 0
        assert " p=2 d=3 " in capsys.readouterr().out
        columns = read_csv(out)
        assert columns["grad_ratio"][-1] <= 1e-9

    def test_regression_file_with_nan_entry_exits_2(self, tmp_path, capsys):
        data = tmp_path / "system.txt"
        data.write_text("2 2\n1 nan\n0 1\n1 1\n")
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--problem", "regression-file", "--data", data,
                        "--p", "2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}:2: entry 'nan' is not finite" in err
        assert not out.exists()

    def test_x0_from_file(self, tmp_path):
        x0 = tmp_path / "start.txt"
        x0.write_text("2.0\n")
        out = tmp_path / "q.csv"
        assert run_cli(["run", "--problem", "quartic", "--x0", x0,
                        "--max-iters", "5", "--out", out]) == 0
        columns = read_csv(out)
        assert columns["f"][0] == 16.0

    def test_run_starting_at_minimizer(self, tmp_path):
        x0 = tmp_path / "zeros.txt"
        x0.write_text(" ".join(["0.0"] * 10))
        out = tmp_path / "z.csv"
        assert run_cli(["run", "--problem", "norm2-pow", "--p", "2",
                        "--x0", x0, "--out", out]) == 0
        columns = read_csv(out)
        assert columns["k"] == [0.0]
        assert columns["grad_ratio"] == [0.0]

    def test_custom_constant_policy(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--problem", "quartic", "--r-policy",
                        "constant:0.5", "--max-iters", "3", "--out", out]) == 0
        assert read_csv(out)["R"][0] == 0.5

    @pytest.mark.parametrize("problem", cli.PROBLEMS)
    @pytest.mark.parametrize("name", ["grad-g-norm", "residual-inf"])
    def test_policy_kind_names_are_unknown_selectors(self, tmp_path, capsys,
                                                     problem, name):
        # each problem's own radius is its default, not a selector
        out = tmp_path / "t.csv"
        args = ["run", "--problem", problem, "--r-policy", name, "--out", out]
        if problem == "regression-file":
            args += ["--data", write_system(tmp_path)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown r_policy selector: {name!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("problem", cli.PROBLEMS)
    def test_each_problem_builds_its_own_radius(self, tmp_path, problem):
        data = write_system(tmp_path)
        x0 = cli.build_experiment(cli.ExperimentConfig(
            problem=problem, p=2, data_path=data)).x0
        if problem == "norm2-pow":
            expected = euclidean_norm(2.0 * x0)  # ||grad g(x0)||, g = ||x||^2
        elif problem == "lp-norm":
            expected = np.max(np.abs(x0))
        elif problem == "regression-file":
            a, b = load_regression_data(data)
            expected = np.max(np.abs(a @ x0 - b))
        else:
            expected = 0.1
        for r_policy, radius in (("default", expected),
                                 ("constant:0.25", 0.25)):
            bundle = cli.build_experiment(cli.ExperimentConfig(
                problem=problem, p=2, data_path=data, r_policy=r_policy))
            assert bundle.r_policy(bundle.x0) == radius

    def test_unknown_policy_exits_2(self, tmp_path):
        assert run_cli(["run", "--problem", "quartic", "--r-policy",
                        "biggest", "--out", tmp_path / "t.csv"]) == 2

    def test_stalled_run_stops_after_one_step(self, tmp_path, capsys):
        # at p = 40 the oracle step from ones is lost to rounding
        out = tmp_path / "x.csv"
        assert run_cli(["run", "--p", "40", "--out", out]) == 0
        summary = capsys.readouterr().out
        assert " steps=1 termination=stalled final_grad_ratio=1 " in summary
        assert "rate=indeterminate" in summary
        assert read_csv(out)["k"] == [0.0, 1.0]


class TestRunFlags:
    def test_each_field_has_one_flag_of_its_type(self):
        run = cli.build_parser()._subparsers._group_actions[0].choices["run"]
        flags = [action for action in run._actions if action.dest != "help"]
        # one flag per field, and no other flag or positional
        assert sorted(action.dest for action in flags) == \
            sorted(f.name for f in fields(cli.ExperimentConfig))
        assert all(action.option_strings for action in flags)
        flags = {action.dest: action for action in flags}
        for name in ("d", "p", "max_iters"):
            assert flags[name].type is int, name
        for name in ("eta", "grad_tol"):
            assert flags[name].type is float, name
        assert tuple(flags["problem"].choices) == cli.PROBLEMS
        assert tuple(flags["solver"].choices) == ("lfso", "fixed")

    def test_non_integer_d_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--d", "1.5"])
        assert exc.value.code == 2


class TestUsageErrors:
    def test_missing_data_file_flag(self, tmp_path):
        assert run_cli(["run", "--problem", "regression-file",
                        "--out", tmp_path / "x.csv"]) == 2

    def test_eta_out_of_range_for_lfso(self, tmp_path):
        assert run_cli(["run", "--problem", "norm2-pow", "--eta", "2.5",
                        "--out", tmp_path / "x.csv"]) == 2

    def test_unknown_problem_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "banana"])
        assert exc.value.code == 2

    def test_divergent_fixed_run_exits_2(self, tmp_path, capsys):
        assert run_cli(["run", "--problem", "norm2-pow", "--p", "2",
                        "--solver", "fixed", "--eta", "1.0",
                        "--out", tmp_path / "x.csv"]) == 2
        assert "diverged" in capsys.readouterr().err

    def test_numpy_overflow_exits_2(self, tmp_path, capsys):
        # the residual powers of the p = 5 run overflow in numpy at k = 3
        out = tmp_path / "x.csv"
        assert run_cli(["run", "--problem", "lp-norm", "--p", "5",
                        "--solver", "fixed", "--eta", "1.9",
                        "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: fixed iteration diverged at k=3: "
            "overflow encountered in multiply\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["lp-norm", "--p", "2"],
         "lfso iteration diverged at k=0: gradient norm is not finite: inf"),
        (["lp-norm", "--p", "2", "--solver", "fixed", "--eta", "1e-2"],
         "fixed iteration diverged at k=0: gradient norm is not finite: inf"),
        (["norm2-pow", "--p", "2"],
         "lfso iteration diverged at k=0: overflow encountered in multiply")],
        ids=["lp-norm-lfso", "lp-norm-fixed", "norm2-pow-lfso"])
    def test_huge_start_names_the_first_failing_value(self, tmp_path, capsys,
                                                      args, message):
        # from x0 = 2.9e102 * ones the objective's evaluate overflows, and
        # grad, its norm check and eval, in that order, name the error
        x0 = tmp_path / "x0.txt"
        x0.write_text(" ".join(["2.9e102"] * 10) + "\n")
        out = tmp_path / "x.csv"
        assert run_cli(["run", "--problem", *args, "--x0", x0,
                        "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_overflowing_oracle_exits_2(self, tmp_path, capsys):
        # the quartic oracle squares R = 1e200, a Python float overflow
        out = tmp_path / "x.csv"
        assert run_cli(["run", "--problem", "quartic", "--r-policy",
                        "constant:1e200", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lfso iteration diverged at k=0: overflow ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["norm2-pow", "--d", 10**400], "d is out of range: "),
        (["norm2-pow", "--p", 10**400], "p is out of range: "),
        (["lp-norm", "--p", 10**400], "p is out of range: "),
        (["lp-norm", "--p", 513], "p = 513 is too large for this A: "),
        (["lp-norm", "--p", 514, "--solver", "fixed", "--eta", "1e-2"],
         "p = 514 is too large for this A: "),
        (["regression-file", "--p", 600], "p = 600 is too large for this A: ")],
        ids=["norm2-pow-huge-d", "norm2-pow-huge-p", "lp-norm-huge-p",
             "lp-norm-p513", "lp-norm-fixed-p514", "regression-file-p600"])
    def test_p_or_d_out_of_range_exits_2(self, tmp_path, capsys, args,
                                         message):
        # rejected while the problem is built, before any step
        out = tmp_path / "x.csv"
        if args[0] == "regression-file":
            args = args + ["--data", write_system(tmp_path)]
        assert run_cli(["run", "--problem", *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("problem, r_policy", [
        ("quartic", "constant:0.5"), ("norm2-pow", "default")])
    def test_r_policy_with_fixed_solver_exits_2(self, tmp_path, capsys,
                                                 problem, r_policy):
        out = tmp_path / "x.csv"
        assert run_cli(["run", "--problem", problem, "--solver", "fixed",
                        "--r-policy", r_policy, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error: --r-policy does not apply to --solver fixed" in err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["lfso", "fixed"])
    @pytest.mark.parametrize("grad_tol", ["-1", "nan"])
    def test_bad_grad_tol_exits_2(self, tmp_path, capsys, solver, grad_tol):
        assert run_cli(["run", "--solver", solver, "--eta", "0.1",
                        "--grad-tol", grad_tol,
                        "--out", tmp_path / "x.csv"]) == 2
        assert "grad_tol" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag, value, solver, message", [
        ("--eta", "3.0", "lfso", "eta must be in (0, 2), got 3.0"),
        ("--eta", "-1", "fixed", "eta must be positive, got -1.0"),
        ("--max-iters", "0", "lfso",
         "max_iters must be a whole number >= 1, got 0"),
        ("--max-iters", "0", "fixed",
         "max_iters must be a whole number >= 1, got 0")])
    def test_bad_solver_setting_exits_2(self, tmp_path, capsys, flag, value,
                                        solver, message):
        # the solvers make these checks before the run writes anything
        assert run_cli(["run", "--solver", solver, flag, value,
                        "--out", tmp_path / "x.csv"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("2.5 2\n1 2\n3\n", ":1: first line must be 'n d' with integers "
         "n, d >= 1, got '2.5 2'"),
        ("-1 2\n1 2\n3\n", ":1: first line must be 'n d'"),
        ("0 2\n1 2\n3\n", ":1: first line must be 'n d'"),
        ("2 2\n1 0\n\n0 a\n1 1\n", ":4: could not convert string to float: 'a'"),
        ("1 2\n1 0\nb\n", ":3: could not convert string to float: 'b'"),
        ("1 2\n1 0\nnan\n", ":3: entry 'nan' is not finite")])
    def test_bad_regression_file_names_file_and_line(self, tmp_path, capsys,
                                                     text, message):
        data = tmp_path / "system.txt"
        data.write_text(text)
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--problem", "regression-file", "--data", data,
                        "--out", out]) == 2
        assert f"error: {data}{message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("1\n2 x\n", ":2: could not convert string to float: 'x'"),
        ("inf", ":1: entry 'inf' is not finite")])
    def test_bad_x0_file_names_file(self, tmp_path, capsys, text, message):
        x0 = tmp_path / "start.txt"
        x0.write_text(text)
        out = tmp_path / "q.csv"
        assert run_cli(["run", "--problem", "quartic", "--x0", x0,
                        "--out", out]) == 2
        assert f"{x0}{message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem, flag, value", [
        ("quartic", "--d", "5"),
        ("quartic", "--p", "3"),
        ("quartic", "--data", "missing.txt"),
        ("regression-file", "--d", "3"),
        ("norm2-pow", "--data", "missing.txt"),
        ("lp-norm", "--data", "missing.txt")])
    def test_flag_the_problem_cannot_use_exits_2(self, tmp_path, capsys,
                                                  problem, flag, value):
        # named before any file is read: --data names a file that is absent
        if flag == "--data":
            value = tmp_path / value
        args = ["run", "--problem", problem, flag, value,
                "--out", tmp_path / "x.csv"]
        if problem == "regression-file":
            data = tmp_path / "system.txt"
            data.write_text("1 2\n1 0\n1\n")
            args += ["--data", data]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} does not apply to --problem {problem}" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("r_policy", ["default", "constant:0.1"])
    def test_library_unknown_problem_raises(self, r_policy):
        cfg = cli.ExperimentConfig(problem="banana", r_policy=r_policy)
        with pytest.raises(cli.ConfigError, match="unknown problem: 'banana'"):
            cli.build_experiment(cfg)

    def test_library_regression_file_needs_data_path(self):
        cfg = cli.ExperimentConfig(problem="regression-file")
        with pytest.raises(cli.ConfigError, match="needs data_path \\(--data\\)"):
            cli.build_experiment(cfg)

    def test_library_unknown_solver_raises(self):
        cfg = cli.ExperimentConfig(solver="slow", max_iters=3)
        bundle = cli.build_experiment(cfg)
        with pytest.raises(cli.ConfigError, match="unknown solver: 'slow'"):
            cli.execute(cfg, bundle)

    def test_run_takes_no_seed(self, capsys):
        # run draws no random numbers; only verify takes a seed
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestReproduce:
    def test_fig2a_deterministic(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert run_cli(["reproduce", "--figure", "fig2a", "--out-dir", dir_a,
                        "--max-iters", "300"]) == 0
        assert run_cli(["reproduce", "--figure", "fig2a", "--out-dir", dir_b,
                        "--max-iters", "300"]) == 0
        for p in range(1, 6):
            name = f"fig2a_p{p}.csv"
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        assert (dir_a / "fig2a.svg").read_bytes() == \
            (dir_b / "fig2a.svg").read_bytes()

    def test_fig2a_curves_decrease(self, tmp_path):
        out = tmp_path / "figs"
        run_cli(["reproduce", "--figure", "fig2a", "--out-dir", out,
                 "--max-iters", "400"])
        for p in range(2, 6):
            ratios = read_csv(out / f"fig2a_p{p}.csv")["grad_ratio"]
            assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_svg_self_contained(self, tmp_path):
        out = tmp_path / "figs"
        run_cli(["reproduce", "--figure", "fig2b", "--out-dir", out,
                 "--max-iters", "200"])
        svg = (out / "fig2b.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        for banned in ("<image", "@import", "url(", "href="):
            assert banned not in svg
        assert svg.count("<polyline") == 5

    def test_all_figures(self, tmp_path):
        out = tmp_path / "figs"
        assert run_cli(["reproduce", "--figure", "all", "--out-dir", out,
                        "--max-iters", "40"]) == 0
        for figure in ("fig1a", "fig1b", "fig2a", "fig2b"):
            assert (out / f"{figure}.svg").exists()
            for p in range(1, 6):
                assert (out / f"{figure}_p{p}.csv").exists()

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["reproduce", "--figure", "fig3"])
        assert exc.value.code == 2


class TestLogPlot:
    @staticmethod
    def polyline_points(tmp_path, ys):
        path = tmp_path / "plot.svg"
        _svg.write_log_plot(path, [("c", list(range(len(ys))), ys)],
                            "t", "x", "y")
        svg = path.read_text()
        assert svg.count("<polyline") == 1
        return svg.split('<polyline points="')[1].split('"')[0].split()

    def test_zero_ends_the_polyline(self, tmp_path):
        # no segment may bridge the zero at k = 1
        assert len(self.polyline_points(tmp_path, [1.0, 0.0, 0.5])) == 1

    def test_nan_ends_the_polyline(self, tmp_path):
        points = self.polyline_points(tmp_path, [1.0, 0.5, math.nan, 0.25])
        assert len(points) == 2

    def test_inf_ends_the_polyline(self, tmp_path):
        points = self.polyline_points(tmp_path, [1.0, 0.5, math.inf, 0.25])
        assert len(points) == 2

    def test_long_curve_keeps_every_stride_th_point_and_its_last(self,
                                                                 tmp_path):
        # 3001 points: stride ceil(3001 / 1500) = 3 keeps k = 0, 3, ..., 3000
        # and then k = 3000 again as the last point
        points = self.polyline_points(tmp_path,
                                      [0.999 ** k for k in range(3001)])
        assert len(points) == 1002
        assert points[-1] == points[-2]


class TestVerifyCommand:
    def test_clean_suite_exits_0(self, capsys):
        assert run_cli(["verify", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "total_violations = 0" in out
        assert "overall = ok" in out

    def test_controls_exit_1(self, capsys):
        assert run_cli(["verify", "--seed", "3", "--include-controls"]) == 1
        out = capsys.readouterr().out
        assert "CONTROL wrong-oracle" in out
        assert "overall = FAIL" in out

    def test_report_deterministic(self, capsys):
        run_cli(["verify", "--seed", "11"])
        first = capsys.readouterr().out
        run_cli(["verify", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second

    def test_timings_name_every_block(self, tmp_path, capsys):
        path = tmp_path / "timings.json"
        assert run_cli(["verify", "--seed", "5", "--include-controls",
                        "--timings", path]) == 1
        with_flag = capsys.readouterr().out
        assert run_cli(["verify", "--seed", "5", "--include-controls"]) == 1
        assert capsys.readouterr().out == with_flag
        blocks = [line[1:-1] for line in with_flag.splitlines()
                  if line.startswith("[") and line.endswith("]")]
        runs = ["run " + cli._suite_label(cfg) for cfg in cli.SUITE_RUNS]
        assert len(runs) == 11
        timings = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(timings) == sorted(blocks + runs + ["total"])
        assert len(blocks) == len(set(blocks))
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert timings["total"] >= sum(seconds for name, seconds
                                       in timings.items() if name != "total")

    def test_timings_unwritable_path_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "timings.json"
        assert run_cli(["verify", "--seed", "5", "--timings", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timings.json" in captured.err

    def test_timings_file_closed_when_suite_fails(self, tmp_path, capsys,
                                                   monkeypatch):
        # a leaked file would warn ResourceWarning, an error in this suite
        def failing(seed, include_controls):
            raise ValueError("suite failed")

        monkeypatch.setattr(cli, "verify_all", failing)
        path = tmp_path / "timings.json"
        assert run_cli(["verify", "--timings", path]) == 2
        assert capsys.readouterr().err == "error: suite failed\n"
        assert path.read_text(encoding="utf-8") == ""

    def test_negative_seed_exits_2_before_timings_opened(self, tmp_path,
                                                         capsys):
        path = tmp_path / "timings.json"
        assert run_cli(["verify", "--seed", "-1", "--timings", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --seed must be >= 0, got -1" in captured.err
        assert not path.exists()

    def test_controls_suite_builds_and_runs_through_cli_names(self, monkeypatch,
                                                              capsys):
        # The benchmark times builds and solver runs by wrapping these cli
        # names, so every build and run of the suite must go through them.
        calls = {"build": 0, "run": 0}

        def counted(kind, fn):
            def wrapped(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name, kind in (("make_norm_power", "build"),
                           ("make_lp_regression", "build"),
                           ("run_lfso_gd", "run"), ("run_fixed_gd", "run")):
            monkeypatch.setattr(cli, name, counted(kind, getattr(cli, name)))
        assert run_cli(["verify", "--seed", "3", "--include-controls"]) == 1
        capsys.readouterr()
        # one build per solver run, shared by the validity and monotone
        # checks; the quartic run builds nothing through these names
        assert calls == {"build": 10, "run": 11}
