import json
import math

import numpy as np
import pytest

from rqode.bench import (ExperimentPlan, SlopeReport, emit_report,
                         exponent_hierarchy, fit_loglog, report_bytes,
                         run_ladder, run_scalar_ladder)
from rqode.fixtures import get_fixture


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


class TestPlans:
    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentPlan(fixture="sin_flow", mode="deterministic",
                           ladder=[4, 4, 8])

    def test_stochastic_needs_trials(self):
        with pytest.raises(ValueError):
            ExperimentPlan(fixture="sin_flow", mode="randomized",
                           ladder=[2, 3], trials=5)


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

    def test_deterministic_bytes(self, tmp_path):
        plan = ExperimentPlan(fixture="sin_flow", mode="deterministic",
                              ladder=[4, 8, 16], seed=5)
        r1 = run_ladder(plan)
        r2 = run_ladder(plan)
        assert report_bytes(r1) == report_bytes(r2)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        emit_report(r1, p1)
        emit_report(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

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

    def test_golden_bytes(self, tmp_path):
        # frozen-seed miniature ladder; regenerate via tests/data/README
        import pathlib
        golden = pathlib.Path(__file__).parent / "data" / "golden_ladder.json"
        plan = ExperimentPlan(fixture="sin_flow", mode="deterministic",
                              ladder=[4, 8], seed=123)
        data = report_bytes(run_ladder(plan))
        if not golden.exists():  # pragma: no cover - first generation
            golden.parent.mkdir(exist_ok=True)
            golden.write_bytes(data)
        assert data == golden.read_bytes()
