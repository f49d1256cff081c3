import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqode.core import (ClassViolationError, CostLedger, HolderParams,
                        IvpProblem, build_mesh, require_count, require_delta,
                        require_nonnegative, require_nonnegative_int,
                        require_positive, residual_bound,
                        residual_bound_vector, validate_holder)
from rqode.fixtures import get_fixture
from rqode.planted import make_planted


def make_linear_problem(slope=2.0, eta=1.0):
    def derivs(k, y):
        y = np.asarray(y, dtype=float)
        return [slope * y] + [np.full((1, 1), slope) if q == 1
                              else np.zeros((1,) * (q + 1))
                              for q in range(1, k + 1)]
    return IvpProblem(1, derivs, [eta], (0.0, 1.0))


class TestMesh:
    def test_basic_arithmetic(self):
        mesh = build_mesh(0, 1, 4, 2)
        assert mesh.h == 0.25
        assert mesh.hbar == 0.125
        assert mesh.x[2] == 0.5
        assert mesh.pieces()[0][0, 1] == 0.125

    def test_degenerate_single_interval(self):
        mesh = build_mesh(0, 1, 1, 1)
        starts, steps = mesh.pieces()
        assert (starts.tolist(), steps.tolist()) == ([[0.0]], [[1.0]])

    def test_endpoint_identity(self):
        mesh = build_mesh(-1, 3, 8, 4)
        assert mesh.h == 0.5
        assert mesh.hbar == 0.125
        assert mesh.x[8] == 3.0

    def test_coarse_points_are_fine_points(self):
        # z_0^i = x_i opens every coarse cell and z_m^i = x_{i+1} closes it
        mesh = build_mesh(0.0, 2.0, 5, 3)
        starts, steps = mesh.pieces()
        assert starts.shape == steps.shape == (mesh.n, mesh.m)
        assert np.array_equal(starts[:, 0], mesh.x[:-1])
        assert np.array_equal(starts[:, -1] + steps[:, -1], mesh.x[1:])

    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_dyadic_spacing_exact(self, np2, mp2, span):
        # dyadic meshes: consecutive fine points differ by exactly hbar
        n, m = 2 ** np2, 2 ** mp2
        mesh = build_mesh(0.0, float(2 ** span), n, m)
        starts, steps = mesh.pieces()
        pts = np.append(starts, mesh.b)
        assert np.max(np.abs(np.diff(pts) - mesh.hbar)) == 0.0
        assert np.all(steps == mesh.hbar)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_mesh(0, 1, 0, 2)
        with pytest.raises(ValueError):
            build_mesh(0, 1, 4, -1)
        with pytest.raises(ValueError):
            build_mesh(1, 1, 4, 4)


class TestInputRules:
    def test_count(self):
        assert type(require_count("n", 31.0)) is int
        for bad, text in [(2.5, "whole number"), (float("nan"), "whole number"),
                          (0, "positive integer"), (-2.0, "positive integer")]:
            with pytest.raises(ValueError, match="^n must be a %s, got %r$"
                               % (text, bad)):
                require_count("n", bad)

    def test_delta(self):
        require_delta(0.25)
        for bad in (0.0, 0.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"^delta must lie in \(0, "):
                require_delta(bad)

    def test_positive(self):
        assert require_positive("eps", np.float64(0.5)) == 0.5
        for bad, text in [(0.0, "positive"), (-1, "positive"),
                          (float("nan"), "finite"), (float("inf"), "finite")]:
            with pytest.raises(ValueError, match="^eps must be %s$" % text):
                require_positive("eps", bad)

    def test_nonnegative_int(self):
        # one test and one message, whatever is wrong with the value
        assert require_nonnegative_int("seed", 0) == 0
        assert type(require_nonnegative_int("seed", 31.0)) is int
        for bad in (-1, -1.0, 2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError) as err:
                require_nonnegative_int("seed", bad)
            assert str(err.value) == (
                "seed must be a non-negative integer, got %r" % bad)

    def test_nonnegative(self):
        assert require_nonnegative("tol", 0) == 0.0
        assert type(require_nonnegative("tol", np.float64(0.5))) is float
        for bad, text in [(-1, "non-negative"), (-1e-300, "non-negative"),
                          (float("nan"), "finite"), (float("-inf"), "finite"),
                          (float("inf"), "finite")]:
            with pytest.raises(ValueError, match="^tol must be %s$" % text):
                require_nonnegative("tol", bad)


class TestHolderParams:
    def test_rho_forced_for_r0(self):
        with pytest.raises(ValueError):
            HolderParams(r=0, rho=0.5, D=(1.0,), H=1.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            HolderParams(r=0, rho=1.0, D=(0.0,), H=1.0)
        with pytest.raises(ValueError):
            HolderParams(r=0, rho=1.0, D=(1.0,), H=0.0)
        with pytest.raises(ValueError):
            HolderParams(r=0, rho=1.0, D=(1.0,), H=1.0, p=2.0)

    def test_supported_orders_only(self):
        for r in (-1, 1.5, 3):
            with pytest.raises(ValueError, match="r <= 2"):
                HolderParams(r=r, rho=1.0, D=(1.0,) * 4, H=1.0)
        for r in (0, 1, 2):
            assert HolderParams(r=r, rho=1.0, D=(1.0,) * (r + 1), H=1.0).r == r

    def test_lipschitz_selection(self):
        p0 = HolderParams(r=0, rho=1.0, D=(1.0,), H=3.0)
        p1 = HolderParams(r=1, rho=1.0, D=(1.0, 2.5), H=3.0)
        assert p0.lipschitz == 3.0
        assert p1.lipschitz == 2.5

    def test_component_bounds(self):
        p = HolderParams(r=0, rho=1.0, D=(1.0,), H=1.0, component_H=(0.0, 1.0))
        vec = residual_bound_vector(p, 2)
        assert vec[0] == 0.0
        assert vec[1] == residual_bound(p, 2)
        with pytest.raises(ValueError):
            HolderParams(r=0, rho=1.0, D=(1.0,), H=1.0, component_H=(2.0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, kwargs", [
        ("D", lambda x: {"D": (1.0, x)}),
        ("H", lambda x: {"H": x}),
        ("p", lambda x: {"p": x}),
        ("component_H", lambda x: {"component_H": (0.5, x)}),
    ])
    def test_non_finite_rejected(self, name, kwargs, bad):
        fields = dict(r=1, rho=1.0, D=(1.0, 1.0), H=1.0)
        fields.update(kwargs(bad))
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            HolderParams(**fields)


class TestProblemConstruction:
    def test_zero_initial_field_rejected(self):
        def derivs(k, y):
            return [np.zeros((1,) * (q + 1)) for q in range(k + 1)]
        with pytest.raises(ValueError, match="nonzero"):
            IvpProblem(1, derivs, [1.0], (0, 1))

    def test_batch_blind_oracle_named(self):
        # an order-0 oracle that ignores the batch axis fails here, not in
        # the first residual family that evaluates a batch
        def derivs(k, y):
            return [np.array([0.5])] + [np.zeros((1,) * (q + 1))
                                        for q in range(1, k + 1)]
        with pytest.raises(ValueError, match=r"^problem 'blind': f maps a "
                           r"\(2, 1\) batch to shape \(1,\)$"):
            IvpProblem(1, derivs, [1.0], (0, 1), name="blind")

    def test_bare_array_oracle_named(self):
        # an oracle that returns order k alone instead of the list of orders
        # 0..k fails here, not with a misleading shape message
        def derivs(k, y):
            return np.asarray(y, dtype=float) + 1.0 if k == 0 \
                else np.zeros((1,) * (k + 1))
        with pytest.raises(ValueError, match=r"^problem 'bare': derivs\(k, y\) "
                           r"must return the list of orders 0\.\.k, \[f\(y\)\] "
                           r"for k = 0; derivs\(0, eta\) returned ndarray$"):
            IvpProblem(1, derivs, [1.0], (0, 1), name="bare")

    @pytest.mark.parametrize("name", ["sin_flow", "inv1p_r1", "cos_time_r1",
                                      "constant", "planted"])
    def test_f_is_the_order_0_oracle(self, name):
        if name == "planted":
            prob = make_planted([0.5, -1.0], HolderParams(
                r=1, rho=1.0, D=(1.2, 1.0), H=1.0)).problem
        else:
            prob = get_fixture(name).problem
        point = prob.eta + 0.125
        batch = prob.eta + np.linspace(-0.25, 0.25, 5)[:, None]
        for y in (point, batch):
            got, want = prob.f(y), prob.derivs(0, y)[0]
            assert got.shape == want.shape == y.shape
            assert got.tobytes() == want.tobytes()

    def test_f_bypasses_a_rebound_derivs(self):
        # a tracer that rebinds problem.derivs must not count f calls as
        # derivs calls: f keeps the oracle it was built from
        prob = make_linear_problem()
        calls = []
        derivs = prob.derivs

        def counting(k, y):
            calls.append(k)
            return derivs(k, y)
        prob.derivs = counting
        assert prob.f(np.array([0.5])).tolist() == [1.0]
        assert calls == []
        prob.derivs(1, np.array([0.5]))
        assert calls == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, eta, interval", [
        ("eta", lambda x: [1.0, x], lambda x: (0.0, 1.0)),
        ("interval", lambda x: [1.0, 1.0], lambda x: (0.0, x)),
        ("interval", lambda x: [1.0, 1.0], lambda x: (x, 1.0)),
    ])
    def test_non_finite_rejected(self, name, eta, interval, bad):
        def derivs(k, y):
            return [np.asarray(y, dtype=float)]
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            IvpProblem(2, derivs, eta(bad), interval(bad))

    @pytest.mark.parametrize("dim, message", [
        (1.5, r"^dim must be a whole number, got 1\.5$"),
        (0, r"^dim must be a positive integer, got 0$")],
        ids=["fractional", "zero"])
    def test_dim_must_be_count(self, dim, message):
        # named, not truncated to dim = 1
        def derivs(k, y):
            return [np.ones_like(np.asarray(y, dtype=float))]
        with pytest.raises(ValueError, match=message):
            IvpProblem(dim, derivs, [1.0], (0.0, 1.0))
        assert IvpProblem(1.0, derivs, [1.0], (0.0, 1.0)).dim == 1


class TestLedger:
    def test_totals_and_merge(self):
        a = CostLedger()
        a.f_evals += 3
        a.deriv_evals += 2
        a.quantum_queries += 5
        a.rng_draws += 11
        assert a.total == 10
        b = CostLedger()
        b.f_evals += 1
        b.merge(a)
        assert b.total == 11
        assert b.rng_draws == 11

    def test_counter_names_listed_once(self):
        led = CostLedger()
        for i, name in enumerate(CostLedger.COUNTERS):
            setattr(led, name, i + 1)
        assert led.snapshot() == (1, 2, 3, 4, 5)
        assert list(led.as_dict().items()) == [
            ("f_evals", 1), ("deriv_evals", 2), ("quantum_queries", 3),
            ("rng_draws", 4), ("sim_evals", 5), ("total", 6)]
        assert led.delta_since((1, 1, 1, 1, 1)) == {
            "f_evals": 0, "deriv_evals": 1, "quantum_queries": 2,
            "rng_draws": 3, "sim_evals": 4}
        assert CostLedger().merge(led).merge(led).snapshot() == (
            2, 4, 6, 8, 10)

    def test_delta_since(self):
        led = CostLedger()
        snap = led.snapshot()
        led.f_evals += 4
        assert led.delta_since(snap)["f_evals"] == 4


class TestValidateHolder:
    def test_sin_r1_passes(self):
        # |sin| <= 1, |cos| <= 1, |cos(y)-cos(z)| <= |y-z|; brute-force grid scan
        fx = get_fixture("sin_flow_r1")
        grid = np.linspace(-3, 3, 101)[:, None]
        assert validate_holder(fx.problem, fx.params, grid).passed

    def test_constructed_violation_reported(self):
        prob = make_linear_problem(slope=2.0)
        params = HolderParams(r=0, rho=1.0, D=(1.0,), H=3.0)
        rep = validate_holder(prob, params, np.array([[0.2], [1.0]]))
        assert not rep.passed
        v = rep.violations[0]
        assert v["kind"] == "derivative_bound"
        assert v["point"] == [1.0]
        assert v["value"] == 2.0

    def test_constant_passes_any_class(self):
        fx = get_fixture("constant")
        grid = np.tile(fx.problem.eta, (9, 1))
        grid[:, 0] = np.linspace(-2, 2, 9)
        assert validate_holder(fx.problem, fx.params, grid).passed

    def test_monotone_in_bounds(self):
        # enlarging D or H never turns a pass into a fail
        prob = make_linear_problem(slope=2.0)
        grid = np.array([[0.2], [1.0]])
        tight = HolderParams(r=0, rho=1.0, D=(2.0,), H=2.0)
        assert validate_holder(prob, tight, grid).passed
        for Dscale, Hscale in [(1.5, 1.0), (1.0, 4.0), (2.0, 2.0)]:
            loose = HolderParams(r=0, rho=1.0, D=(2.0 * Dscale,), H=2.0 * Hscale)
            assert validate_holder(prob, loose, grid).passed

    def test_oracle_failure_identifies_point(self):
        def derivs(k, y):
            if k and float(np.asarray(y)[0]) > 0.5:
                raise RuntimeError("boom")
            return [np.asarray(y, dtype=float) + 1.0] + [np.ones((1, 1))] * k
        prob = IvpProblem(1, derivs, [0.0], (0, 1))
        params = HolderParams(r=1, rho=1.0, D=(2.0, 1.0), H=1.0)
        with pytest.raises(RuntimeError, match="order 1"):
            validate_holder(prob, params, np.array([[0.0], [1.0]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_grid_point_rejected(self, bad):
        # every comparison with a NaN point is False: any class would pass
        fx = get_fixture("sin_flow")
        with pytest.raises(ValueError, match="^grid must be finite$"):
            validate_holder(fx.problem, fx.params, np.array([[0.0], [bad]]))

    def test_non_finite_oracle_value_identifies_point(self):
        def derivs(k, y):
            y = np.asarray(y, dtype=float)
            value = np.where(y > 0.5, np.nan, 0.5)
            return [value] + [np.zeros(y.shape[:-1] + (1, 1))] * k
        prob = IvpProblem(1, derivs, [0.0], (0, 1))
        params = HolderParams(r=1, rho=1.0, D=(1.0, 1.0), H=1.0)
        with pytest.raises(ClassViolationError, match=r"at point \[1\.0\]"):
            validate_holder(prob, params, np.array([[0.0], [1.0]]))

    def test_empty_grid_rejected(self):
        fx = get_fixture("sin_flow")
        with pytest.raises(ValueError):
            validate_holder(fx.problem, fx.params, [])

    @pytest.mark.parametrize("tol, message", [
        (float("nan"), "tol must be finite"),
        (float("inf"), "tol must be finite"),
        (-1.0, "tol must be non-negative")])
    def test_tol_finite_and_non_negative(self, tol, message):
        # a NaN or infinite tol would pass any class
        fx = get_fixture("sin_flow")
        tight = HolderParams(r=0, rho=1.0, D=(1e-3,), H=1e-3)
        grid = np.linspace(-3, 3, 16)[:, None]
        assert not validate_holder(fx.problem, tight, grid).passed
        with pytest.raises(ValueError, match="^%s$" % message):
            validate_holder(fx.problem, tight, grid, tol=tol)


class TestResidualBound:
    def test_scaled_by_holder_constant(self):
        p1 = HolderParams(r=0, rho=1.0, D=(1.0,), H=1.0)
        p2 = HolderParams(r=0, rho=1.0, D=(1.0,), H=2.0)
        assert residual_bound(p2, 1) == 2.0 * residual_bound(p1, 1)

    def test_r0_matches_hand_formula(self):
        p = HolderParams(r=0, rho=1.0, D=(3.0,), H=0.5)
        assert residual_bound(p, 1) == pytest.approx(0.5 * 3.0)
