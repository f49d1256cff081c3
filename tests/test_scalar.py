import dataclasses
import json
import math
import re

import numpy as np
import pytest

from rqode import scalar
from rqode.core import CostLedger, HolderParams, IvpProblem
from rqode.estimators import Workspace, full_mean, mc_mean, quantum_sim_mean
from rqode.fixtures import get_fixture
from rqode.rng import RngStream
from rqode.planted import make_planted
from rqode.scalar import (CellGeometry, CellResidualFamily,
                          ClassViolationError, bisection_solve,
                          inverse_class_params)
from rqode.solver import ResidualFamily, SolveConfig, solve
from rqode.taylor import fetch_jet


def defect_closed_form(y):
    # for f(s) = 1/(1+s) on [0, 1.5]: H(y) = y + y^2/2 - 1.5
    return y + 0.5 * y * y - 1.5


def constant_field_problem(c=0.8):
    def derivs(k, y):
        return [np.full_like(np.asarray(y, dtype=float), c)] + [
            np.zeros((1,) * (q + 1)) for q in range(1, k + 1)]
    prob = IvpProblem(1, derivs, [0.0], (0.0, 1.0))
    params = HolderParams(r=0, rho=1.0, D=(1.0,), H=1e-9, p=0.5)
    return prob, params


class TestInverseClassParams:
    def test_r0_bounds(self):
        p = HolderParams(r=0, rho=1.0, D=(1.0,), H=1.0, p=0.4)
        inv = inverse_class_params(p, span=1.5)
        assert inv["Dt"][0] == pytest.approx(2.5)
        assert inv["Ht"] == pytest.approx(1.0 / 0.16)
        assert inv["M"] == pytest.approx(inv["Ht"])

    def test_sampled_closure_on_fixture(self):
        # sampled derivative bounds of 1/f stay below the derived constants
        fx = get_fixture("inv1p_r1")
        inv = inverse_class_params(fx.params, span=1.5)
        ys = np.linspace(0.0, 1.5, 97)
        phi = 1.0 + ys                      # 1/f in closed form
        dphi = np.ones_like(ys)
        assert np.max(np.abs(phi)) <= inv["Dt"][0] + 1e-12
        assert np.max(np.abs(dphi)) <= inv["Dt"][1] + 1e-12
        # Holder constant of phi' (which is constant) is far below Ht
        assert inv["Ht"] >= 1.0

    def test_requires_p(self):
        p = HolderParams(r=0, rho=1.0, D=(1.0,), H=1.0)
        with pytest.raises(ValueError):
            inverse_class_params(p, 1.0)


def defect(problem, params, y, eps1, mode, rng=None, ledger=None):
    """One estimate (k = 1) of the arrival-time defect at y, from the
    inputs ``bisection_solve`` builds: the mode's backend, the inverse-class
    bounds over the bracket's width D_0 (b - a), and a workspace."""
    ledger = ledger if ledger is not None else CostLedger()
    rng = rng if rng is not None else RngStream(0, ledger)
    inv = inverse_class_params(params, params.D[0] * (problem.b - problem.a))
    return scalar._defect(problem, params, y, eps1, scalar.get_backend(mode),
                          inv, 1, rng, ledger, Workspace())


class TestEstimateDefect:
    def test_unit_field_exact_zero(self):
        prob, params = constant_field_problem(1.0)
        A = defect(prob, params, 1.0, 1e-9, "deterministic")
        assert A == pytest.approx(0.0, abs=1e-12)

    def test_inv1p_root_closed_form(self):
        fx = get_fixture("inv1p")
        A = defect(fx.problem, fx.params, 1.0, 1e-7, "deterministic")
        assert A == pytest.approx(0.0, abs=1e-7)

    def test_inv1p_interior_value(self):
        fx = get_fixture("inv1p")
        A = defect(fx.problem, fx.params, 0.5, 1e-7, "deterministic")
        assert A == pytest.approx(-0.875, abs=1e-7)

    @pytest.mark.parametrize("mode", ["randomized", "quantum_sim"])
    def test_stochastic_contract(self, mode):
        fx = get_fixture("inv1p")
        led = CostLedger()
        hits = 0
        T = 200
        for t in range(T):
            A = defect(fx.problem, fx.params, 0.5, 0.01, mode,
                       RngStream(7000 + t, led), led)
            hits += abs(A + 0.875) <= 0.01
        # contract: within eps1 with probability >= 3/4 (allow 4 sigma)
        assert hits / T >= 0.75 - 4 * math.sqrt(0.75 * 0.25 / T)

    def test_class_violation_detected(self):
        def derivs(k, y):
            # crosses below p on the probed range
            return [1.0 - np.asarray(y, dtype=float), np.full((1, 1), -1.0),
                    np.zeros((1, 1, 1))][:k + 1]
        prob = IvpProblem(1, derivs, [0.0], (0.0, 1.0))
        params = HolderParams(r=0, rho=1.0, D=(1.0,), H=1.0, p=0.5)
        with pytest.raises(ClassViolationError):
            defect(prob, params, 0.9, 1e-3, "deterministic")

    def test_cost_receipt_matches_ledger(self, monkeypatch):
        # the ledger holds the anchors' jet, one f evaluation per cell at
        # r = 0, plus the estimator's receipt, and no other charge
        fx = get_fixture("inv1p")
        seen = []

        def recorded(family, *args, **kwargs):
            est = mc_mean(family, *args, **kwargs)
            seen.append((family.cells, est.cost))
            return est
        monkeypatch.setattr(scalar, "mc_mean", recorded)
        led = CostLedger()
        defect(fx.problem, fx.params, 0.8, 1e-4, "randomized",
               RngStream(1, led), led)
        ((cells, receipt),) = seen
        assert receipt["f_evals"] + cells == led.f_evals
        assert led.total == led.f_evals


def planted_r2_problem():
    # an r = 2 planted field on the bump region [0, 1/2], eta in its middle
    # so that cells on either side of eta cross bumps
    pl = make_planted([0.5, -0.25, 0.75, -1.0],
                      HolderParams(r=2, rho=0.5, D=(1.2, 1.0, 1.0), H=1.0))
    return IvpProblem(1, pl.derivs, [0.25], (0.0, 1.0)), pl.params_f


def cell_family(prob, params, y):
    def family():
        led = CostLedger()
        geom = CellGeometry(prob, params, y, 37, led)
        return CellResidualFamily(prob, params, geom, 5, 1.0, led)
    return family


def residual_family(prob, params):
    # the first coarse step of a deterministic solve, m = 8 pieces and
    # N = 5 midpoints, jets refetched at the piece starts
    res = solve(prob, params, SolveConfig(n=2, m=8, N=5))
    C = res.approx.coeffs[:8]
    jets = [np.stack(t) for t in
            zip(*(fetch_jet(prob, c[0], params.r) for c in C))]

    def family():
        return ResidualFamily(prob, params, C, jets, res.approx.mesh.hbar, 5,
                              CostLedger())
    return family


def fixture_family(name, y=None):
    fx = get_fixture(name)
    if y is None:
        return residual_family(fx.problem, fx.params)
    return cell_family(fx.problem, fx.params, y)


TABLE_CASES = {
    "inv1p-True": lambda: fixture_family("inv1p", 1.2),
    "inv1p-False": lambda: fixture_family("inv1p", -0.3),
    "inv1p_r1-True": lambda: fixture_family("inv1p_r1", 1.2),
    "inv1p_r1-False": lambda: fixture_family("inv1p_r1", -0.3),
    "planted_r2-True": lambda: cell_family(*planted_r2_problem(), 0.48),
    "planted_r2-False": lambda: cell_family(*planted_r2_problem(), 0.02),
    "ivp-sin_flow": lambda: fixture_family("sin_flow"),
    "ivp-cos_time_r1": lambda: fixture_family("cos_time_r1"),
    "ivp-planted_r2": lambda: residual_family(*planted_r2_problem()),
}


class TestCellGeometryInput:
    @pytest.mark.parametrize("cells, message", [
        (0, "cells must be a positive integer, got 0"),
        (2.5, "cells must be a whole number, got 2.5")])
    def test_cell_count_named(self, cells, message):
        fx = get_fixture("inv1p")
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            CellGeometry(fx.problem, fx.params, 1.2, cells, CostLedger())


class TestCellTable:
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_table_equals_compute(self, case):
        # the broadcast table, the flat-index items and the per-index items
        # of an untabulated twin agree bit for bit: cell families for y on
        # either side of eta, and IVP residual families (d = 1 and 2,
        # r = 0, 1 and 2)
        family = TABLE_CASES[case]()
        fam, twin = family(), family()
        table = fam.tabulate()
        assert table.shape == (fam.size, fam.dim) and np.any(table != 0.0)
        idx = np.random.default_rng(4).integers(0, fam.size, 400)
        assert np.array_equal(table[idx], twin.access(idx))
        assert twin._table is None
        assert table.tobytes() == twin.access(np.arange(fam.size)).tobytes()


class FreshBuffers(Workspace):
    """A workspace that hands out a new array at every request: no reuse."""

    def array(self, name, shape):
        return np.empty(shape)


def shares_a_buffer(value, workspace) -> bool:
    return any(np.shares_memory(value, buf)
               for buf in workspace._buffers.values())


def leaves(obj):
    """Every leaf value in a result's fields, recursively."""
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [leaf for item in obj for leaf in leaves(item)]
    return [obj]


REUSE_PROBLEMS = {
    "inv1p": lambda: (get_fixture("inv1p").problem,
                      get_fixture("inv1p").params, (1.4, 0.2, 1.2)),
    "inv1p_r1": lambda: (get_fixture("inv1p_r1").problem,
                         get_fixture("inv1p_r1").params, (1.4, 0.2, -0.3)),
    "planted_r2": lambda: planted_r2_problem() + ((0.48, 0.3, 0.02),),
}


class TestBufferReuse:
    """One bisection builds every cell family on one workspace: the reused
    buffers change no bit, and no estimate or result holds a view of them."""

    def test_workspace_grows_only_when_needed(self):
        ws = Workspace()
        a = ws.array("grid", (6, 5))
        b = ws.array("grid", (2, 3))
        assert b.shape == (2, 3) and np.shares_memory(a, b)
        assert not np.shares_memory(a, ws.array("table", (2, 3)))
        c = ws.array("grid", (31,))
        assert not np.shares_memory(a, c)
        assert np.shares_memory(c, ws.array("grid", (30,)))

    @pytest.mark.parametrize("name", sorted(REUSE_PROBLEMS))
    def test_reused_tables_equal_fresh_ones(self, name):
        # a larger table, then a smaller one, leave their values in the
        # buffers; the next family's items equal a fresh family's bit for
        # bit, tabulated, gathered and computed index by index
        prob, params, (y_big, y_small, y) = REUSE_PROBLEMS[name]()

        def family(y, cells, n_mid, workspace):
            led = CostLedger()
            geom = CellGeometry(prob, params, y, cells, led)
            return CellResidualFamily(prob, params, geom, n_mid, 1.0, led,
                                      workspace)
        ws = Workspace()
        family(y_big, 61, 9, ws).tabulate()
        family(y_small, 7, 3, ws).tabulate()
        big = ws._buffers["table"].size
        fam, fresh = family(y, 37, 5, ws), family(y, 37, 5, None)
        idx = np.random.default_rng(6).integers(0, fam.size, (3, 120))
        assert (fam.access(idx[0]).tobytes()
                == fresh.access(idx[0]).tobytes())
        table = fam.tabulate()
        assert np.shares_memory(table, ws._buffers["table"])
        assert ws._buffers["table"].size == big
        assert table.tobytes() == fresh.tabulate().tobytes()
        assert fam.mean_at(idx).tobytes() == fresh.mean_at(idx).tobytes()
        assert np.shares_memory(fam._table, ws._buffers["table"])

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_index_out_of_range_raises(self, tabulated):
        # the gather into the workspace keeps numpy's bounds, [-s, s)
        fx = get_fixture("inv1p")
        led = CostLedger()
        geom = CellGeometry(fx.problem, fx.params, 1.2, 37, led)
        fam = CellResidualFamily(fx.problem, fx.params, geom, 5, 1.0, led,
                                 Workspace())
        fresh = CellResidualFamily(fx.problem, fx.params, geom, 5, 1.0, led)
        if tabulated:
            fam.tabulate()
        for bad in (fam.size, -fam.size - 1):
            with pytest.raises(IndexError):
                fam.access([0, bad])
            with pytest.raises(IndexError):
                fam.mean_at([[0, 1], [bad, 2]])
        assert (fam.mean_at([[-1, -fam.size]]).tobytes()
                == fresh.mean_at([[fam.size - 1, 0]]).tobytes())

    @pytest.mark.parametrize("backend, eps1", [
        (full_mean, 0.1),
        (mc_mean, 0.2),     # k runs read less than the family: no table
        (mc_mean, 0.1),     # k runs read it all: sampled from the table
        (mc_mean, 0.01),    # enumeration
        (quantum_sim_mean, 0.01),
        (quantum_sim_mean, 1e-4),   # the charge clamps: exact runs
    ])
    def test_estimates_hold_no_buffer_view(self, backend, eps1):
        # 37 cells x 50 midpoints, bound 1: mc_mean's sigma is 100, 400 and
        # 40,000 against s = 1,850, and the stub's charge 100 and 10,000
        fx = get_fixture("inv1p_r1")
        ws = Workspace()
        led = CostLedger()
        geom = CellGeometry(fx.problem, fx.params, 1.2, 37, led)
        fam = CellResidualFamily(fx.problem, fx.params, geom, 50, 1.0, led,
                                 ws)
        for k in (1, 5):
            est = backend(fam, eps1, RngStream(k, led), k=k)
            assert ws._buffers and not shares_a_buffer(est.value, ws)

    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    def test_bisection_holds_no_buffer_view(self, monkeypatch, mode):
        fx = get_fixture("inv1p")
        checked = []
        name = scalar.get_backend(mode).estimator
        backend = getattr(scalar, name)

        def checked_backend(family, *args, **kwargs):
            est = backend(family, *args, **kwargs)
            checked.append(not shares_a_buffer(est.value, family._workspace))
            return est
        made = []
        monkeypatch.setattr(scalar, name, checked_backend)
        monkeypatch.setattr(scalar, "Workspace",
                            lambda: made.append(Workspace()) or made[-1])
        res = bisection_solve(fx.problem, fx.params, 1e-3, 0.1, mode=mode,
                              seed=4)
        (ws,) = made
        assert ws._buffers and len(checked) == res.iters and all(checked)
        assert not any(shares_a_buffer(leaf, ws) for leaf in leaves(res))

    def test_bisections_in_turn_equal_fresh_runs(self, monkeypatch):
        # what one process runs before a bisection changes none of its bytes
        runs = [("inv1p", "randomized", 1e-4, 21),
                ("inv1p_r1", "quantum_sim", 1e-4, 22),
                ("inv1p", "randomized", 1e-4, 23)]

        def reports():
            return [json.dumps(bisection_solve(
                get_fixture(name).problem, get_fixture(name).params, eps,
                0.1, mode=mode, seed=seed).to_report())
                for name, mode, eps, seed in runs]
        reused = reports()
        monkeypatch.setattr(scalar, "Workspace", FreshBuffers)
        assert reports() == reused


def field_with_hole(r, hole, bad=np.nan, bad_order=0):
    """inv1p's field and jet, with ``bad`` in place of order ``bad_order``
    wherever ``hole(y)`` holds."""
    fx = get_fixture("inv1p_r1" if r else "inv1p")
    base = fx.problem.derivs

    def derivs(k, y):
        y = np.asarray(y, dtype=float)
        out = base(k, y)
        if k >= bad_order:
            out[bad_order] = np.where(
                hole(y).reshape(y.shape[:-1] + (1,) * (bad_order + 1)),
                bad, out[bad_order])
        return out
    return IvpProblem(1, derivs, [0.0], (0.0, 1.5)), fx.params


class TestNonFinite:
    @pytest.mark.parametrize("r, bad, bad_order", [(0, np.nan, 0),
                                                   (0, np.inf, 0),
                                                   (1, np.nan, 1)])
    def test_bisection_rejects_at_anchors(self, r, bad, bad_order):
        # first midpoint y = 0.75 of the bracket [0, 1.5]; its cell anchors
        # reach past 0.5
        prob, params = field_with_hole(r, lambda y: y > 0.5, bad, bad_order)
        with pytest.raises(ClassViolationError,
                           match=r"not finite .*midpoint y = 0\.75"):
            bisection_solve(prob, params, 1e-3, 0.1, mode="deterministic")

    def test_rejects_at_cell_midpoints(self):
        # one cell anchored at 0; its midpoints 0.625 and 0.875 fall in the
        # hole, its anchor does not
        prob, params = field_with_hole(0, lambda y: y > 0.5)
        led = CostLedger()
        geom = CellGeometry(prob, params, 1.0, 1, led)

        def family():
            return CellResidualFamily(prob, params, geom, 4, 1.0, led)
        assert np.isfinite(family().access([0, 1])).all()
        for read in (lambda fam: fam.access([3]),
                     lambda fam: fam.tabulate()):
            with pytest.raises(ClassViolationError,
                               match=r"cell midpoints .*midpoint y = 1\b"):
                read(family())


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    def test_bisection_rejects_eps(self, mode, bad):
        fx = get_fixture("inv1p")
        with pytest.raises(ValueError, match="^eps must be finite"):
            bisection_solve(fx.problem, fx.params, bad, 0.25, mode=mode)

    @pytest.mark.parametrize("seed", [2.7, np.nan])
    def test_bisection_rejects_fractional_seed(self, seed):
        # a seed of 2.7 used to run on stream 2 and be reported as 2.7
        fx = get_fixture("inv1p")
        with pytest.raises(ValueError, match="^seed must be a non-negative "
                           "integer, got %r$" % seed):
            bisection_solve(fx.problem, fx.params, 1e-2, 0.25, seed=seed)

    def test_bisection_reports_the_seed_used(self):
        fx = get_fixture("inv1p")
        res = bisection_solve(fx.problem, fx.params, 1e-2, 0.25, seed=3.0)
        ref = bisection_solve(fx.problem, fx.params, 1e-2, 0.25, seed=3)
        assert type(res.to_report()["seed"]) is int
        assert res.to_report() == ref.to_report()


class TestSandwich:
    def test_defect_increment_bounds(self):
        # (1/D0)|y - y'| <= |H(y) - H(y')| <= (1/p)|y - y'| on a probe grid
        fx = get_fixture("inv1p")
        D0, p = fx.params.D[0], fx.params.p
        ys = np.linspace(0.0, 1.5, 41)
        H = defect_closed_form(ys)
        for i in range(len(ys)):
            for j in range(i + 1, len(ys)):
                gap = abs(ys[i] - ys[j])
                dH = abs(H[i] - H[j])
                assert gap / D0 - 1e-12 <= dH <= gap / p + 1e-12


class TestBisection:
    def test_constant_field_deterministic(self):
        prob, params = constant_field_problem(0.8)
        eps = 1e-6
        res = bisection_solve(prob, params, eps, 0.1, mode="deterministic")
        assert abs(res.y_out - 0.8) <= eps
        eps1 = eps / (3.0 * params.D[0])
        bound = math.ceil(math.log2(params.D[0] * 1.0 / (params.p * eps1)))
        assert res.iters <= bound
        assert not res.breached

    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    def test_field_returning_its_input(self, mode):
        # exp_flow's f(y) = y hands back the array it is given; on [1, 2]
        # it obeys |f| >= 1, and z(1/2) = e^(1/2)
        fx = get_fixture("exp_flow")
        params = dataclasses.replace(fx.params, p=1.0)
        res = bisection_solve(fx.problem, params, 1e-4, 0.1, mode=mode,
                              seed=3)
        assert abs(res.y_out - math.exp(0.5)) <= 1e-4

    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    def test_f_eta_charged_through_the_jet_fetch(self, monkeypatch, mode):
        # f(eta) is one fetch_jet of order 0, so f itself only ever sees
        # the cell families' (B, 1) batches
        fx = get_fixture("inv1p")
        shapes = []
        f = fx.problem.f

        def recorded(y):
            shapes.append(np.shape(y))
            return f(y)
        monkeypatch.setattr(fx.problem, "f", recorded)
        bisection_solve(fx.problem, fx.params, 1e-3, 0.1, mode=mode, seed=4)
        assert shapes and all(len(shape) == 2 for shape in shapes)

    def test_negative_field_mirrored_bracket(self):
        prob, params = constant_field_problem(-0.8)
        res = bisection_solve(prob, params, 1e-6, 0.1, mode="deterministic")
        assert abs(res.y_out - (-0.8)) <= 1e-6

    def test_inv1p_deterministic(self):
        fx = get_fixture("inv1p")
        res = bisection_solve(fx.problem, fx.params, 1e-5, 0.1,
                              mode="deterministic")
        assert abs(res.y_out - 1.0) <= 1e-5

    @pytest.mark.parametrize("mode", ["randomized", "quantum_sim"])
    def test_stochastic_solve_contract(self, mode):
        fx = get_fixture("inv1p")
        eps, delta, T = 1e-3, 0.1, 60
        eps1 = eps / 3.0
        bound = math.ceil(math.log2(1.5 / (0.4 * eps1)))
        ok = 0
        for t in range(T):
            res = bisection_solve(fx.problem, fx.params, eps, delta,
                                  mode=mode, seed=500 + t)
            if abs(res.y_out - 1.0) <= eps and not res.breached:
                ok += 1
                assert res.iters <= bound
        assert ok / T >= 1 - delta - 4 * math.sqrt(delta * (1 - delta) / T)

    def test_bracket_validity_under_success_event(self):
        # instrumented check: whenever the estimate is within eps1 of the
        # closed-form defect and |A| > 2 eps1, the bracket keeps the root
        fx = get_fixture("inv1p")
        eps = 1e-3
        eps1 = eps / 3.0
        for seed in range(25):
            res = bisection_solve(fx.problem, fx.params, eps, 0.1,
                                  mode="randomized", seed=seed)
            lo, hi = 0.0, 1.5
            event = all(abs(A - defect_closed_form(y)) <= eps1
                        for (y, A, _) in res.history)
            if not event:
                continue
            for (y, A, side) in res.history:
                if side == "stop":
                    break
                if side == "left":
                    hi = y
                else:
                    lo = y
                assert lo <= 1.0 <= hi

    def test_history_records_midpoints(self):
        fx = get_fixture("inv1p")
        res = bisection_solve(fx.problem, fx.params, 1e-3, 0.1,
                              mode="quantum_sim", seed=1)
        assert len(res.history) == res.iters
        rep = res.to_report()
        assert set(rep) == {"y_out", "iters", "cost", "success_event_trace",
                            "seed"}
        assert rep["success_event_trace"]["history"][0].keys() == \
            {"midpoint", "estimate", "side"}

    def test_breach_exit(self, monkeypatch):
        # a defect that never falls within 2 eps1 runs the whole budget
        monkeypatch.setattr("rqode.scalar._defect", lambda *args: 1.0)
        fx = get_fixture("inv1p")
        res = bisection_solve(fx.problem, fx.params, 1e-3, 0.1,
                              mode="deterministic")
        assert res.breached
        assert res.iters == res.max_iters == len(res.history)
        assert all(side != "stop" for (_, _, side) in res.history)
        assert res.y_out == res.history[-1][0]

    def test_parameter_validation(self):
        fx = get_fixture("inv1p")
        with pytest.raises(ValueError):
            bisection_solve(fx.problem, fx.params, -1.0, 0.1)
        with pytest.raises(ValueError):
            bisection_solve(fx.problem, fx.params, 1e-3, 0.6)
        fx2 = get_fixture("sin_flow")  # no lower bound p declared
        with pytest.raises(ValueError):
            bisection_solve(fx2.problem, fx2.params, 1e-3, 0.1)
        # a 2-D problem fails, even with p declared
        fx3 = get_fixture("cos_time")
        params = dataclasses.replace(fx3.params, p=0.5)
        with pytest.raises(ValueError, match="scalar problems only"):
            bisection_solve(fx3.problem, params, 1e-3, 0.1)


class TestCostScaling:
    def test_randomized_cost_exponent(self):
        # per-call cost of the defect estimator scales like
        # (1/eps1)^(1/(r+rho+1/2)); slope test over a tolerance ladder
        fx = get_fixture("inv1p")
        led_costs = []
        eps_list = [1e-2, 1e-3, 1e-4]
        for eps1 in eps_list:
            led = CostLedger()
            defect(fx.problem, fx.params, 1.2, eps1, "randomized",
                   RngStream(3, led), led)
            led_costs.append(led.total)
        slopes = [math.log(led_costs[i + 1] / led_costs[i]) / math.log(10.0)
                  for i in range(2)]
        for s in slopes:
            assert abs(s - 2.0 / 3.0) <= 0.12

    def test_quantum_cost_exponent(self):
        fx = get_fixture("inv1p")
        led_costs = []
        for eps1 in (1e-2, 1e-3, 1e-4):
            led = CostLedger()
            defect(fx.problem, fx.params, 1.2, eps1, "quantum_sim",
                   RngStream(3, led), led)
            led_costs.append(led.total)
        slopes = [math.log(led_costs[i + 1] / led_costs[i]) / math.log(10.0)
                  for i in range(2)]
        for s in slopes:
            assert abs(s - 0.5) <= 0.12
