import json

import pytest

from rqode.cli import main


def run_cli(args):
    return main(args)


class TestSolveCommand:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "solve.json"
        code = run_cli(["solve", "--fixture", "sin_flow", "--mode",
                        "deterministic", "--n", "4", "--m", "4", "--N", "4",
                        "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["n"] == 4
        assert len(rep["y_grid"]) == 5
        assert rep["cost"]["total"] > 0
        assert rep["cost"]["f_evals"] == 4 * 4 + 4 * 4 * 4

    def test_stochastic_mode(self, tmp_path):
        out = tmp_path / "solve.json"
        code = run_cli(["solve", "--fixture", "sin_flow", "--mode",
                        "quantum_sim", "--n", "3", "--seed", "9",
                        "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["cost"]["quantum_queries"] > 0

    def test_unknown_fixture_is_error(self, capsys):
        assert run_cli(["solve", "--fixture", "nope", "--n", "4"]) == 1
        assert "error" in capsys.readouterr().err

    def test_key_error_message_is_unquoted(self, capsys):
        assert run_cli(["ladder", "--fixture", "nope", "--n", "4", "8"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: unknown fixture 'nope'")


class TestBisectCommand:
    def test_emits_trace_record(self, tmp_path):
        out = tmp_path / "bisect.json"
        code = run_cli(["bisect", "--fixture", "inv1p", "--eps", "1e-3",
                        "--delta", "0.1", "--mode", "quantum_sim",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert set(rep) >= {"y_out", "iters", "cost", "success_event_trace"}
        assert abs(rep["y_out"] - 1.0) <= 1e-3
        assert rep["success_event_trace"]["history"]

    def test_non_scalar_fixture_is_error(self):
        assert run_cli(["bisect", "--fixture", "sin_flow", "--eps", "1e-3"]) == 1


class TestLadderCommands:
    def test_deterministic_ladder_passes(self, tmp_path):
        out = tmp_path / "ladder.json"
        code = run_cli(["ladder", "--fixture", "sin_flow", "--mode",
                        "deterministic", "--n", "4", "8", "16", "32",
                        "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True

    def test_failing_slope_exits_2(self, monkeypatch, tmp_path):
        # a two-rung deterministic ladder whose verdict is marked failed
        import dataclasses

        import rqode.cli as cli

        run_ladder = cli.run_ladder

        def failing(plan):
            return dataclasses.replace(run_ladder(plan), passed=False)
        monkeypatch.setattr(cli, "run_ladder", failing)
        out = tmp_path / "r.json"
        code = run_cli(["ladder", "--fixture", "sin_flow", "--n", "4", "8",
                        "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["passed"] is False

    @pytest.mark.filterwarnings("error")
    def test_exact_rung_named(self, capsys):
        code = run_cli(["ladder", "--fixture", "constant", "--n", "1", "2",
                        "3"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ladder rung 1: error is 0.0, but the log-log fit needs "
            "values > 0\n")

    def test_scalar_ladder_runs(self, tmp_path):
        out = tmp_path / "sl.csv"
        code = run_cli(["scalar-ladder", "--fixture", "inv1p", "--mode",
                        "deterministic", "--eps", "1e-2", "1e-3", "--trials",
                        "1", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rung,cost,deflated_cost,error"
        assert len(lines) == 3

    def test_scalar_rung_outside_unit_interval_named(self, capsys):
        code = run_cli(["scalar-ladder", "--fixture", "inv1p", "--eps", "1",
                        "0.1", "--mode", "randomized"])
        assert code == 1
        assert "rung eps = 1 is outside (0, 1)" in capsys.readouterr().err

    def test_bad_worker_count_named(self, monkeypatch, capsys):
        monkeypatch.setenv("RQODE_WORKERS", "two")
        code = run_cli(["ladder", "--fixture", "sin_flow", "--n", "4", "8"])
        assert code == 1
        assert "RQODE_WORKERS must be a positive integer: 'two'" in \
            capsys.readouterr().err


class TestValidateCommand:
    def test_pass_exit_zero(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["validate-class", "--fixture", "sin_flow",
                        "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_nan_tol_named(self, capsys):
        code = run_cli(["validate-class", "--fixture", "sin_flow",
                        "--tol", "nan"])
        assert code == 1
        assert capsys.readouterr().err == "error: tol must be finite\n"

    @pytest.mark.parametrize("option, value, message", [
        ("--lo", "nan", "grid must be finite"),
        ("--grid", "-5", "--grid must be a positive integer, got -5")])
    def test_bad_grid_named(self, option, value, message, capsys):
        code = run_cli(["validate-class", "--fixture", "sin_flow",
                        option, value])
        assert code == 1
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.filterwarnings("error")
    def test_infinite_bound_named_before_the_grid(self, capsys):
        # the bounds are checked before np.linspace, which warns on inf
        code = run_cli(["validate-class", "--fixture", "sin_flow", "--hi",
                        "inf"])
        assert code == 1
        assert capsys.readouterr().err == "error: grid must be finite\n"


class TestPlantCommand:
    def test_emits_loadable_fixture(self, tmp_path):
        out = tmp_path / "planted.json"
        code = run_cli(["plant", "--n", "8", "--seed", "4", "--out", str(out)])
        assert code == 0
        from rqode.fixtures import load_fixture_file
        (fx,) = load_fixture_file(out)
        assert fx.problem.dim == 1
        assert len(fx.meta["lambdas"]) == 8

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_non_positive_n_named(self, n, capsys):
        assert run_cli(["plant", "--n", n]) == 1
        assert capsys.readouterr().err == (
            "error: --n must be a positive integer, got %s\n" % n)

    def test_negative_seed_named(self, capsys):
        assert run_cli(["plant", "--n", "4", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, got -1\n")


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "--fixture", "sin_flow", "--n", "2"],
        ["bisect", "--fixture", "inv1p", "--eps", "1e-2"],
        ["ladder", "--fixture", "sin_flow", "--n", "2", "3"],
        ["scalar-ladder", "--fixture", "inv1p", "--eps", "1e-3", "1e-2",
         "--trials", "1"],
    ])
    @pytest.mark.parametrize("mode", ["deterministic", "quantum_sim"])
    def test_negative_seed_named(self, argv, mode, capsys):
        assert run_cli(argv + ["--mode", mode, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, got -1\n")

    def test_non_positive_trials_named(self, capsys):
        assert run_cli(["ladder", "--fixture", "sin_flow", "--n", "4", "8",
                        "--trials", "-3"]) == 1
        assert capsys.readouterr().err == (
            "error: trials must be a positive integer, got -3\n")

    @pytest.mark.parametrize("flags,message", [
        (["--eps", "-1"], "eps1 must be non-negative"),
        (["--delta", "3"], "delta must lie in (0, 1/2)"),
        (["--eps", "-1", "--delta", "3"], "eps1 must be non-negative"),
    ])
    def test_deterministic_solve_options_named(self, flags, message, capsys):
        assert run_cli(["solve", "--fixture", "sin_flow", "--n", "2"]
                       + flags) == 1
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_bad_arguments_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--fixture", "sin_flow"])  # missing --n
        assert exc.value.code == 1

    def test_unknown_subcommand_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 1
