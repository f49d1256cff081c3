import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqode.core import (CostLedger, HolderParams, IvpProblem, build_mesh,
                        residual_bound, residual_bound_vector, validate_holder)
from rqode.fixtures import get_fixture


def make_linear_problem(slope=2.0, eta=1.0):
    def f(y):
        return slope * np.asarray(y, dtype=float)

    def derivs(k, y):
        y = np.asarray(y, dtype=float)
        if k == 0:
            return slope * y
        if k == 1:
            return np.full((1, 1), slope)
        return np.zeros((1,) * (k + 1))
    return IvpProblem(1, f, derivs, [eta], (0.0, 1.0))


class TestMesh:
    def test_basic_arithmetic(self):
        mesh = build_mesh(0, 1, 4, 2)
        assert mesh.h == 0.25
        assert mesh.hbar == 0.125
        assert mesh.x[2] == 0.5
        assert mesh.all_fine_points()[1] == 0.125

    def test_degenerate_single_interval(self):
        mesh = build_mesh(0, 1, 1, 1)
        assert mesh.all_fine_points().tolist() == [0.0, 1.0]

    def test_endpoint_identity(self):
        mesh = build_mesh(-1, 3, 8, 4)
        assert mesh.h == 0.5
        assert mesh.hbar == 0.125
        assert mesh.x[8] == 3.0

    def test_coarse_points_are_fine_points(self):
        # z_0^i = x_i opens every coarse cell and z_m^i = x_{i+1} closes it
        mesh = build_mesh(0.0, 2.0, 5, 3)
        pts = mesh.all_fine_points()
        assert pts.size == mesh.n * mesh.m + 1
        assert np.array_equal(pts[::mesh.m], mesh.x)

    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_dyadic_spacing_exact(self, np2, mp2, span):
        # dyadic meshes: consecutive fine points differ by exactly hbar
        n, m = 2 ** np2, 2 ** mp2
        mesh = build_mesh(0.0, float(2 ** span), n, m)
        pts = mesh.all_fine_points()
        assert np.max(np.abs(np.diff(pts) - mesh.hbar)) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_mesh(0, 1, 0, 2)
        with pytest.raises(ValueError):
            build_mesh(0, 1, 4, -1)
        with pytest.raises(ValueError):
            build_mesh(1, 1, 4, 4)


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


class TestProblemConstruction:
    def test_zero_initial_field_rejected(self):
        def f(y):
            return np.zeros_like(np.asarray(y, dtype=float))

        def derivs(k, y):
            return np.zeros((1,) * (k + 1))
        with pytest.raises(ValueError, match="nonzero"):
            IvpProblem(1, f, derivs, [1.0], (0, 1))

    def test_deriv0_must_match_f(self):
        def f(y):
            return np.asarray(y, dtype=float)

        def derivs(k, y):
            if k == 0:
                return np.asarray(y, dtype=float) + 0.5
            return np.zeros((1, 1))
        with pytest.raises(ValueError, match="disagrees"):
            IvpProblem(1, f, derivs, [1.0], (0, 1))


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
        def f(y):
            return np.asarray(y, dtype=float) + 1.0

        def derivs(k, y):
            if k == 0:
                return np.asarray(y, dtype=float) + 1.0
            if float(np.asarray(y)[0]) > 0.5:
                raise RuntimeError("boom")
            return np.ones((1, 1))
        prob = IvpProblem(1, f, derivs, [0.0], (0, 1))
        params = HolderParams(r=1, rho=1.0, D=(2.0, 1.0), H=1.0)
        with pytest.raises(RuntimeError, match="order 1"):
            validate_holder(prob, params, np.array([[0.0], [1.0]]))

    def test_empty_grid_rejected(self):
        fx = get_fixture("sin_flow")
        with pytest.raises(ValueError):
            validate_holder(fx.problem, fx.params, [])


class TestResidualBound:
    def test_scaled_by_holder_constant(self):
        p1 = HolderParams(r=0, rho=1.0, D=(1.0,), H=1.0)
        p2 = HolderParams(r=0, rho=1.0, D=(1.0,), H=2.0)
        assert residual_bound(p2, 1) == 2.0 * residual_bound(p1, 1)

    def test_r0_matches_hand_formula(self):
        p = HolderParams(r=0, rho=1.0, D=(3.0,), H=0.5)
        assert residual_bound(p, 1) == pytest.approx(0.5 * 3.0)
