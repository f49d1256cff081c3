import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from rqode.bench import (RESIDUAL_THRESHOLD, SLOPE_TOLERANCE, ExperimentPlan,
                         SlopeReport, _passes, exponent_hierarchy,
                         fit_loglog, report_bytes, run_ladder,
                         run_scalar_ladder)
from rqode.core import HolderParams
from rqode.fixtures import (Fixture, fixture_names, get_fixture,
                            load_fixture_file)
from rqode.planted import make_planted

GOLDEN = Path(__file__).parent / "data" / "golden_ladder.json"


def golden_ladder_bytes() -> bytes:
    """Report bytes of the frozen-seed miniature ladder pinned in GOLDEN."""
    plan = ExperimentPlan(fixture="sin_flow", mode="deterministic",
                          ladder=[4, 8], seed=123)
    return report_bytes(run_ladder(plan))


def synthetic_report(rungs, costs, errors, slope=None, target=-1.5):
    return SlopeReport(
        fixture="synthetic", mode="deterministic", kind="ivp",
        points=[[math.log10(c), math.log10(e)] for c, e in zip(costs, errors)],
        slope=slope, raw_slope=slope, residual=0.0 if slope is not None else None,
        target=target, tolerance=0.12,
        passed=None if slope is None else abs(slope - target) <= 0.12,
        rungs=list(rungs), errors=list(errors), costs=list(costs),
        deflated_costs=list(costs), trials=1, seed=0)


class TestFit:
    def test_exact_power_law(self):
        xs = np.array([10.0, 100.0, 1000.0])
        ys = 5.0 * xs ** -1.5
        slope, resid = fit_loglog(xs, ys)
        assert slope == pytest.approx(-1.5, abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_single_point_undefined(self):
        slope, resid = fit_loglog([10.0], [1.0])
        assert slope is None and resid is None

    def test_passes_verdict(self):
        assert _passes(-1.5, 0.0, -1.5) is True
        assert _passes(-1.5 - 2 * SLOPE_TOLERANCE, 0.0, -1.5) is False
        assert _passes(-1.5, 2 * RESIDUAL_THRESHOLD, -1.5) is False
        assert _passes(None, None, -1.5) is None


class TestPlans:
    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentPlan(fixture="sin_flow", mode="deterministic",
                           ladder=[4, 4, 8])

    def test_stochastic_needs_trials(self):
        with pytest.raises(ValueError):
            ExperimentPlan(fixture="sin_flow", mode="randomized",
                           ladder=[2, 3], trials=5)

    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, mode, trials):
        with pytest.raises(ValueError,
                           match="^trials must be a positive integer"):
            ExperimentPlan(fixture="sin_flow", mode=mode, ladder=[2, 3],
                           trials=trials)

    @pytest.mark.parametrize("delta", [0.7, 0.5, 0.0, -0.1, float("nan")])
    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    def test_delta_outside_range_rejected(self, mode, delta):
        # at construction, not at the first rung (in a worker if pooled)
        with pytest.raises(ValueError,
                           match=r"^delta must lie in \(0, 1/2\)"):
            ExperimentPlan(fixture="sin_flow", mode=mode, ladder=[2, 3],
                           delta=delta, workers=2)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentPlan(fixture="sin_flow", mode="deterministic",
                           ladder=[2, 3], workers=0)

    @pytest.mark.parametrize("field, value", [
        ("trials", 30.5), ("trials", float("nan")), ("det_N", 2.5),
        ("workers", 1.5)])
    def test_fractional_count_rejected(self, field, value):
        # at construction: trials = 30.5 used to fail in a rung, and
        # det_N = 2.5 to run with N = 2
        rule = "a non-negative integer" if field == "det_N" \
            else "a whole number"
        with pytest.raises(ValueError, match="^%s must be %s, got %r$"
                           % (field, rule, value)):
            ExperimentPlan(fixture="sin_flow", mode="randomized",
                           ladder=[2, 3], **{field: value})

    @pytest.mark.parametrize("det_N", [-3, -1.0])
    def test_negative_det_N_rejected(self, det_N):
        with pytest.raises(ValueError, match="^det_N must be a non-negative "
                           "integer, got %r$" % det_N):
            ExperimentPlan(fixture="sin_flow", mode="deterministic",
                           ladder=[2, 3], det_N=det_N)
        assert ExperimentPlan(fixture="sin_flow", mode="deterministic",
                              ladder=[2, 3], det_N=0).det_N == 0

    def test_integral_floats_run_as_ints(self):
        plan = ExperimentPlan(fixture="sin_flow", mode="randomized",
                              ladder=[2, 3], trials=31.0, det_N=2.0,
                              workers=1.0, seed=5.0)
        assert (plan.trials, plan.det_N, plan.workers, plan.seed) == (
            31, 2, 1, 5)
        assert all(type(v) is int for v in (plan.trials, plan.det_N,
                                            plan.workers, plan.seed))

    @pytest.mark.parametrize("seed", [2.7, float("nan")])
    def test_fractional_seed_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative "
                           "integer, got %r$" % seed):
            ExperimentPlan(fixture="sin_flow", mode="deterministic",
                           ladder=[2, 3], seed=seed)

    @pytest.mark.parametrize("fixture,mode", [("sin_flow", "deterministic"),
                                              ("inv1p", "randomized")])
    def test_negative_seed_rejected_at_construction(self, fixture, mode):
        with pytest.raises(ValueError, match="seed must be a non-negative "
                           "integer, got -1"):
            ExperimentPlan(fixture=fixture, mode=mode, ladder=[2, 3],
                           seed=-1)

    @pytest.mark.parametrize("ladder, bad", [([2.2, 2.7], "2.2"),
                                             ([0.5, 2], "0.5")])
    def test_ivp_rung_must_be_positive_integer(self, monkeypatch, ladder, bad):
        # named before any rung runs (_map_rungs is never reached), not
        # truncated by int()
        from rqode import bench
        monkeypatch.setattr(bench, "_map_rungs", None)
        with pytest.raises(ValueError, match="^ladder rung n must be a whole "
                           "number, got %s$" % bad):
            run_ladder(ExperimentPlan(fixture="sin_flow", mode="deterministic",
                                      ladder=ladder))

    def test_workers_used_as_given(self, monkeypatch):
        # the ladders read plan.workers only; RQODE_WORKERS is the CLI's
        from rqode import bench
        seen = []

        def serial(fn, jobs, workers):
            seen.append(workers)
            return [fn(job) for job in jobs]
        monkeypatch.setenv("RQODE_WORKERS", "4")
        monkeypatch.setattr(bench, "_map_rungs", serial)
        run_ladder(ExperimentPlan(fixture="sin_flow", mode="deterministic",
                                  ladder=[2, 3]))
        run_scalar_ladder(ExperimentPlan(fixture="inv1p", mode="deterministic",
                                         ladder=[1e-3, 1e-2], trials=1))
        assert seen == [1, 1]


class TestWorkers:
    """Rungs in worker processes rebuild the plan's fixture from its entry."""

    def both_worker_counts(self, run, **plan):
        return [report_bytes(run(ExperimentPlan(workers=w, **plan)))
                for w in (1, 2)]

    def test_stock_name(self):
        serial, pooled = self.both_worker_counts(
            run_ladder, fixture="sin_flow", mode="randomized", ladder=[2, 3],
            trials=30, seed=3)
        assert pooled == serial

    def test_stock_fixture_object(self):
        serial, pooled = self.both_worker_counts(
            run_ladder, fixture=get_fixture("sin_flow"), mode="randomized",
            ladder=[2, 3], trials=30, seed=3)
        assert pooled == serial

    def test_planted_fixture_from_file(self, tmp_path):
        pl = make_planted(np.random.default_rng(2024).uniform(-1, 1, 16),
                          HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0))
        path = tmp_path / "planted.json"
        path.write_text(json.dumps([pl.to_entry("planted_l16")]))
        (fx,) = load_fixture_file(path)
        serial, pooled = self.both_worker_counts(
            run_scalar_ladder, fixture=fx, mode="deterministic",
            ladder=[1e-3, 1e-2], trials=1)
        assert pooled == serial
        assert json.loads(serial)["fixture"] == "planted_l16"

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown fixture 'nope'"):
            ExperimentPlan(fixture="nope", mode="deterministic", ladder=[2, 3])

    def test_hand_built_fixture_needs_one_worker(self):
        pl = make_planted([0.1], HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0))
        fx = Fixture(name="by_hand", problem=pl.problem, params=pl.params_f,
                     reference=None)
        with pytest.raises(ValueError, match="'by_hand'.*workers=1"):
            ExperimentPlan(fixture=fx, mode="deterministic", ladder=[2, 4],
                           workers=2)
        assert ExperimentPlan(fixture=fx, mode="deterministic",
                              ladder=[2, 4]).fixture is fx
        with pytest.raises(TypeError, match="'by_hand' has no entry"):
            pickle.dumps(fx)

    @pytest.mark.parametrize("name", fixture_names())
    def test_stock_fixture_pickles_as_its_entry(self, name):
        fx = get_fixture(name)
        copy = pickle.loads(pickle.dumps(fx))
        assert copy.params == fx.params
        eta = fx.problem.eta
        assert copy.problem.f(eta).tobytes() == fx.problem.f(eta).tobytes()


class TestLadders:
    def test_deterministic_slope(self):
        plan = ExperimentPlan(fixture="sin_flow", mode="deterministic",
                              ladder=[4, 8, 16, 32, 64], seed=0)
        rep = run_ladder(plan)
        # m = n ladder, unit midpoint count: error ~ cost^-(r+rho+1/2)
        assert rep.target == -1.5
        assert rep.passed
        assert abs(rep.slope - (-1.5)) <= 0.12

    def test_missing_reference_rejected(self):
        from rqode.planted import make_planted
        from rqode.core import HolderParams
        from rqode.fixtures import Fixture
        params = HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0)
        pl = make_planted([0.1], params)
        fx = Fixture(name="x", problem=pl.problem, params=pl.params_f,
                     reference=None)
        plan = ExperimentPlan(fixture=fx, mode="deterministic", ladder=[2, 4])
        with pytest.raises(ValueError, match="reference"):
            run_ladder(plan)

    def test_quantum_header_present(self):
        plan = ExperimentPlan(fixture="sin_flow", mode="quantum_sim",
                              ladder=[2, 3, 4], trials=40, seed=1)
        rep = run_ladder(plan)
        assert "not real quantum execution" in rep.header

    def test_scalar_ladder_deterministic(self):
        plan = ExperimentPlan(fixture="inv1p", mode="deterministic",
                              ladder=[1e-4, 1e-3, 1e-2], trials=1, seed=0)
        rep = run_scalar_ladder(plan)
        assert rep.target == pytest.approx(1.0)
        assert rep.passed
        # errors stay within their accuracy targets
        for eps, err in zip(rep.rungs, rep.errors):
            assert err <= eps

    def test_scalar_rungs_get_distinct_seeds(self, monkeypatch):
        # 1e-7 and 2e-7 are closer than 1e-6; trial seeds are keyed by rung
        # index, so the two rungs still run independent trials
        from rqode import bench
        from rqode.core import CostLedger
        from rqode.scalar import BisectionResult
        fx = get_fixture("inv1p")
        seeds = {}

        def fake_bisection(problem, params, eps, delta, mode, seed):
            seeds.setdefault(eps, []).append(seed)
            ledger = CostLedger()
            ledger.f_evals = 10
            return BisectionResult(y_out=fx.y_star, iters=1, ledger=ledger)
        monkeypatch.setattr(bench, "bisection_solve", fake_bisection)
        plan = ExperimentPlan(fixture="inv1p", mode="randomized",
                              ladder=[1e-7, 2e-7], trials=30, seed=5)
        run_scalar_ladder(plan)
        assert sorted(seeds) == [1e-7, 2e-7]
        assert len(set(seeds[1e-7]) | set(seeds[2e-7])) == 60

    def test_ivp_rungs_get_distinct_seeds(self, monkeypatch):
        # run_trials keys trial t by (t,) under its rung's seed, and each rung
        # gets its own seed, so trial t does not repeat its draws across rungs
        from rqode import solver
        seeds = {}
        real_solve = solver.solve

        def recorded(problem, params, config):
            seeds.setdefault(config.n, []).append(config.seed)
            return real_solve(problem, params, config)
        monkeypatch.setattr(solver, "solve", recorded)
        plan = ExperimentPlan(fixture="sin_flow", mode="randomized",
                              ladder=[2, 3], trials=30, seed=5)
        run_ladder(plan)
        assert sorted(seeds) == [2, 3]
        assert len(set(seeds[2]) | set(seeds[3])) == 60

    @pytest.mark.parametrize("mode, eps", [("randomized", 1.0),
                                           ("quantum_sim", 2.0),
                                           ("deterministic", 0.0)])
    def test_scalar_rungs_outside_unit_interval_rejected(self, mode, eps):
        # the log-power deflation divides by log2(1/eps)^log_power
        plan = ExperimentPlan(fixture="inv1p", mode=mode,
                              ladder=sorted([0.1, eps]), trials=30)
        with pytest.raises(ValueError,
                           match=r"rung eps = %g is outside \(0, 1\)" % eps):
            run_scalar_ladder(plan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fixture, mode", [
        ("constant", "deterministic"), ("constant_r1", "quantum_sim")])
    def test_exact_rung_named(self, fixture, mode):
        # the n = 1 solve of a constant field is exact: its error is 0.0,
        # which the log-log fit cannot take
        plan = ExperimentPlan(fixture=fixture, mode=mode, ladder=[1, 2],
                              trials=30)
        with pytest.raises(ValueError, match=r"^ladder rung 1: error is 0\.0, "
                                             r"but the log-log fit needs "
                                             r"values > 0$"):
            run_ladder(plan)

    def test_non_positive_scalar_cost_named(self, monkeypatch):
        # the scalar ladder fits costs, not errors: a rung that costs
        # nothing is named before any log
        from rqode import bench
        from rqode.core import CostLedger
        from rqode.scalar import BisectionResult
        fx = get_fixture("inv1p")
        monkeypatch.setattr(bench, "bisection_solve", lambda *a, **k:
                            BisectionResult(y_out=fx.y_star, iters=1,
                                            ledger=CostLedger()))
        plan = ExperimentPlan(fixture="inv1p", mode="deterministic",
                              ladder=[1e-3, 1e-2], trials=1)
        with pytest.raises(ValueError, match=r"^ladder rung 0\.01: deflated "
                                             r"is 0\.0, but"):
            run_scalar_ladder(plan)

    def test_deterministic_scalar_rung_bisects_once(self, monkeypatch):
        # an exact backend's bisection does not depend on the seed, so each
        # rung runs one of the plan's trials; the report still names them all
        from rqode import bench
        calls = []
        bisect = bench.bisection_solve

        def counted(*args, **kwargs):
            calls.append(args[2])
            return bisect(*args, **kwargs)
        monkeypatch.setattr(bench, "bisection_solve", counted)
        plan = ExperimentPlan(fixture="inv1p", mode="deterministic",
                              ladder=[1e-3, 1e-2], trials=30, seed=0)
        rep = run_scalar_ladder(plan)
        assert calls == [1e-2, 1e-3]
        assert rep.trials == 30


class TestHierarchy:
    def test_cost_exponent_ordering(self):
        out = exponent_hierarchy("sin_flow", [2, 3, 4, 6, 8], trials=30, seed=2)
        ex = out["exponents"]
        assert out["ordered"]
        assert ex["deterministic"] >= ex["randomized"] >= ex["quantum_sim"]


class TestEmission:
    def test_empty_ladder_header_only_csv(self):
        rep = synthetic_report([], [], [])
        assert report_bytes(rep, "csv") == b"rung,cost,deflated_cost,error\n"

    def test_single_rung_pass_absent(self):
        rep = synthetic_report([4], [100.0], [0.25])
        data = json.loads(report_bytes(rep, "json"))
        assert data["passed"] is None
        assert data["slope"] is None
        csv = report_bytes(rep, "csv").decode().strip().splitlines()
        assert len(csv) == 2

    def test_deterministic_bytes(self):
        plan = ExperimentPlan(fixture="sin_flow", mode="deterministic",
                              ladder=[4, 8, 16], seed=5)
        assert report_bytes(run_ladder(plan)) == report_bytes(run_ladder(plan))

    def test_markdown_table(self):
        rep = synthetic_report([4, 8], [100.0, 800.0], [0.25, 0.03125],
                               slope=-1.0)
        text = report_bytes(rep, "markdown-table").decode()
        assert "| rung | cost | deflated_cost | error |" in text
        assert "slope=-1" in text

    def test_float_formatting_12_digits(self):
        rep = synthetic_report([4], [1234.567890123456789], [0.1 + 1e-17])
        data = json.loads(report_bytes(rep, "json"))
        assert data["costs"][0] == float("%.12g" % 1234.567890123456789)

    def test_unknown_format(self):
        rep = synthetic_report([4], [1.0], [0.1])
        with pytest.raises(ValueError):
            report_bytes(rep, "yaml")

    def test_golden_bytes(self):
        # frozen-seed miniature ladder; a missing golden file fails, and
        # regeneration is explicit (see tests/data/README)
        assert golden_ladder_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_bytes(golden_ladder_bytes())
    print("wrote %s" % GOLDEN)
