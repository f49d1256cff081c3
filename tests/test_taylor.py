import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from rqode.core import CostLedger, HolderParams, IvpProblem, build_mesh
from rqode import solver
from rqode.fixtures import fixture_names, get_fixture
from rqode.planted import make_planted
from rqode.solver import ResidualFamily, SolveConfig, solve
from rqode.taylor import (PiecewiseTaylorApprox, fetch_jet, fine_chain,
                          flow_coeffs_from_jet, horner, integrate_field_along)


def quadratic_problem():
    def derivs(k, y):
        y = np.asarray(y, dtype=float)
        if k > 2:
            raise ValueError(k)
        lead = y.shape[:-1]
        return [y ** 2, (2.0 * y).reshape(lead + (1, 1)),
                np.full(lead + (1, 1, 1), 2.0)][:k + 1]
    return IvpProblem(1, derivs, [1.0], (0.0, 0.5))


def flow_coeffs(problem, y, order, ledger=None):
    """Flow coefficients through y, fetching the tensors the order needs."""
    y = np.asarray(y, dtype=float).reshape(problem.dim)
    return np.array(flow_coeffs_from_jet(
        y, fetch_jet(problem, y, order - 1, ledger), order))


def step_end(problem, y, hbar, order):
    """Endpoint of one fine step, evaluated through the piece arrays."""
    coeffs = flow_coeffs(problem, y, order)
    approx = PiecewiseTaylorApprox(build_mesh(0.0, hbar, 1, 1), coeffs[None],
                                   np.zeros(1))
    return approx.eval(hbar)


def stacked(jet):
    """One piece's jet as the per-order stacks the solver keeps."""
    return [np.asarray(t, dtype=float)[None] for t in jet]


def one_step_family(problem, params, y, hbar, N):
    """Residual family of a single fine piece starting at y."""
    y = np.asarray(y, dtype=float).reshape(problem.dim)
    jet = fetch_jet(problem, y, params.r)
    coeffs = np.array(flow_coeffs_from_jet(y, jet, params.r + 1))[None]
    return ResidualFamily(problem, params, coeffs, stacked(jet), hbar, N,
                          CostLedger())


class TestFlowCoeffs:
    def test_constant_field_straight_line(self):
        fx = get_fixture("constant")
        c = np.asarray(fx.meta["c"])
        coeffs = flow_coeffs(fx.problem, fx.problem.eta, 3)
        assert np.array_equal(coeffs[0], fx.problem.eta)
        assert np.array_equal(coeffs[1], c)
        assert np.all(coeffs[2:] == 0.0)

    def test_exponential_hand_recurrence(self):
        # z' = z, z'' = z: coefficients 1, 1, 1/2
        fx = get_fixture("exp_flow")
        coeffs = flow_coeffs(fx.problem, [1.0], 2)
        assert coeffs.ravel().tolist() == [1.0, 1.0, 0.5]

    def test_quadratic_hand_recurrence_and_series(self):
        # z' = z^2 from 1: z(t) = 1/(1-t), all Taylor coefficients equal 1.
        prob = quadratic_problem()
        coeffs = flow_coeffs(prob, [1.0], 3)
        assert coeffs.ravel().tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_order_exceeding_tensors_rejected(self):
        fx = get_fixture("sin_flow")
        jet = fetch_jet(fx.problem, [1.0], 2)
        with pytest.raises(ValueError, match="exceeds"):
            flow_coeffs_from_jet(np.array([1.0]), jet, 5)
        with pytest.raises(ValueError, match="order <= 3"):
            flow_coeffs_from_jet(np.array([1.0]), [np.zeros(1)] * 4, 4)

    def test_jet_cost_accounting(self):
        led = CostLedger()
        fx = get_fixture("sin_flow_r1")
        flow_coeffs(fx.problem, [1.0], 2, led)
        assert led.f_evals == 1 and led.deriv_evals == 1

    @pytest.mark.parametrize("name", ["inv1p", "inv1p_r1"])
    def test_batched_jet_charges_per_point(self, name):
        # a (B, d) batch charges B evaluations per order, a (d,) point one;
        # row b of the batch equals the single-point jet at Y[b]
        fx = get_fixture(name)
        r = fx.params.r
        Y = np.linspace(0.0, 1.5, 7)[:, None]
        led = CostLedger()
        jet = fetch_jet(fx.problem, Y, r, led)
        assert (led.f_evals, led.deriv_evals) == (7, 7 * r)
        for b in range(7):
            one = CostLedger()
            single = fetch_jet(fx.problem, Y[b], r, one)
            assert (one.f_evals, one.deriv_evals) == (1, r)
            assert [t[b].tobytes() for t in jet] == [
                t.tobytes() for t in single]

    @pytest.mark.parametrize("name", ["sin_flow", "cos_time"])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_one_oracle_call_per_jet(self, name, r):
        # one derivs(r, .) call per point or batch, and none to f
        prob = get_fixture(name).problem
        calls, derivs = [], prob.derivs

        def counting(k, y):
            calls.append((k, np.shape(y)))
            return derivs(k, y)
        prob.derivs = counting
        prob.f = lambda y: pytest.fail("fetch_jet called f")
        Y = prob.eta + np.linspace(0.0, 0.5, 4)[:, None]
        fetch_jet(prob, Y[0], r)
        fetch_jet(prob, Y, r)
        assert calls == [(r, Y[0].shape), (r, Y.shape)]


class TestTaylorStep:
    def test_constant_field_exact(self):
        fx = get_fixture("constant")
        c = np.asarray(fx.meta["c"])
        ny = step_end(fx.problem, fx.problem.eta, 0.25, 1)
        assert np.allclose(ny, fx.problem.eta + 0.25 * c, rtol=0, atol=0)

    def test_exponential_degree2_value(self):
        fx = get_fixture("exp_flow")
        ny = step_end(fx.problem, [1.0], 0.1, 2)
        assert abs(ny[0] - 1.105) < 1e-15

    def test_local_order_on_sin(self):
        # halving hbar shrinks the one-step error by 2^(r+rho+1), within 15%
        fx = get_fixture("sin_flow_r1")
        ref = fx.reference
        order = fx.params.order + 1.0
        errs = []
        for hbar in (0.2, 0.1, 0.05, 0.025):
            ny = step_end(fx.problem, fx.problem.eta, hbar, fx.params.r + 1)
            errs.append(abs(ny[0] - ref(hbar)[0]))
        for e0, e1 in zip(errs, errs[1:]):
            log_ratio = math.log2(e0 / e1)
            assert abs(log_ratio - order) <= 0.15 * order


class TestFieldPolynomial:
    """The degree-r field expansion, seen through the integral and the
    residual family (residual = f - expansion along the piece)."""

    def test_degree0_is_constant(self):
        # the r = 0 expansion about 1.2 is sin(1.2) wherever the piece goes
        fx = get_fixture("sin_flow")
        jet = fetch_jet(fx.problem, [1.2], fx.params.r)
        out = integrate_field_along(stacked(jet), np.array([[[1.2], [1.8]]]),
                                    np.array([1.0]))
        assert out[0, 0] == math.sin(1.2)

    def test_hand_expansion_quadratic(self):
        # f(y) = y^2 about 2 at degree 1: 4 + 4(y-2), so the residual at
        # y = 2, 3, 1.5 is 0, 9 - 8 = 1 and 2.25 - 2 = 0.25
        prob = quadratic_problem()
        params = HolderParams(r=1, rho=1.0, D=(4.0, 4.0), H=2.0)
        ys = np.array([2.0, 3.0, 1.5])
        jet = fetch_jet(prob, [2.0], 1)
        coeffs = np.zeros((3, 3, 1))
        coeffs[:, 0, 0] = 2.0
        coeffs[:, 1, 0] = 2.0 * (ys - 2.0)     # the cell midpoint lands on y
        jets = [np.repeat(t[None], 3, axis=0) for t in jet]
        fam = ResidualFamily(prob, params, coeffs, jets, 1.0, 1, CostLedger())
        assert fam.peek_all()[:, 0].tolist() == [0.0, 1.0, 0.25]

    def test_center_value_exact_on_fixtures(self):
        # at its centre the expansion returns f exactly: zero residual
        for name in ("sin_flow", "sin_flow_r1", "exp_flow_r1", "cos_time"):
            fx = get_fixture(name)
            y = fx.problem.eta + 0.1
            jet = fetch_jet(fx.problem, y, fx.params.r)
            coeffs = np.zeros((1, fx.params.r + 2, fx.problem.dim))
            coeffs[0, 0] = y
            fam = ResidualFamily(fx.problem, fx.params, coeffs, stacked(jet),
                                 0.5, 1, CostLedger())
            assert np.all(fam.peek_all() == 0.0)


def field_value_mp(jet, center, y):
    """Degree-r expansion sum_k T_k[y - c]^k / k! in mpmath arithmetic."""
    d = len(center)
    delta = [mpmath.mpf(float(y[a])) - mpmath.mpf(float(center[a]))
             for a in range(d)]
    out = [mpmath.mpf(float(v)) for v in jet[0]]
    for k in range(1, len(jet)):
        T = jet[k]
        for i in range(d):
            for idx in np.ndindex(*(d,) * k):
                term = mpmath.mpf(float(T[(i,) + idx]))
                for a in idx:
                    term *= delta[a]
                out[i] += term / math.factorial(k)
    return out


class TestIntegrateFieldAlong:
    def test_constant_field(self):
        out = integrate_field_along([np.array([[2.5]])],
                                    np.array([[[1.0], [3.0]]]), np.array([0.5]))
        assert out[0, 0] == pytest.approx(1.25, abs=1e-15)

    def test_linear_in_linear(self):
        # w(y) = y along l(t) = 1 + t over [0, 0.5]: 0.625
        jets = [np.array([[1.0]]), np.array([[[1.0]]])]
        out = integrate_field_along(jets, np.array([[[1.0], [1.0], [0.0]]]),
                                    np.array([0.5]))
        assert out[0, 0] == pytest.approx(0.625)

    def test_hand_integration_quadratic_piece(self):
        # w(y) = 4 + 4(y-2) along l(t) = 2 + t^2 over [0,1]: 16/3
        jets = [np.array([[4.0]]), np.array([[[4.0]]])]
        out = integrate_field_along(jets, np.array([[[2.0], [0.0], [1.0]]]),
                                    np.array([1.0]))
        assert out[0, 0] == pytest.approx(16.0 / 3.0, rel=1e-15)

    def test_matches_adaptive_quadrature(self):
        # exactness: five random pieces in one batched call agree with scipy
        # quad at 1e-12 relative tolerance
        rng = np.random.default_rng(7)
        m = 5
        t0, t1, t2, t3 = rng.normal(size=(4, m))
        w0, w1, w2 = rng.normal(size=(3, m))
        steps = rng.uniform(0.1, 0.9, size=m)
        coeffs = np.stack([t0, t1, t2, t3], axis=1)[:, :, None]
        jets = [w0[:, None], w1[:, None, None], w2[:, None, None, None]]
        exact = integrate_field_along(jets, coeffs, steps)[:, 0]
        for j in range(m):
            def integrand(t):
                dy = t1[j] * t + t2[j] * t * t + t3[j] * t ** 3
                return w0[j] + w1[j] * dy + 0.5 * w2[j] * dy * dy
            ref, _ = quad(integrand, 0.0, steps[j], epsabs=1e-13, epsrel=1e-13)
            assert exact[j] == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_matches_mpmath_quadrature(self, r, d):
        # random jets and pieces of every supported degree and dimension,
        # batched, against 30-digit quadrature of the composed expansion
        rng = np.random.default_rng(100 * r + d)
        m = 3
        coeffs = rng.normal(size=(m, r + 2, d))
        jets = [rng.normal(size=(m, d) + (d,) * k) for k in range(r + 1)]
        steps = rng.uniform(0.05, 0.6, size=m)
        exact = integrate_field_along(jets, coeffs, steps)
        assert exact.shape == (m, d)
        with mpmath.workdps(30):
            for j in range(m):
                jet_j = [t[j] for t in jets]

                def piece(tau):
                    return [sum(mpmath.mpf(float(coeffs[j, q, a])) * tau ** q
                                for q in range(r + 2)) for a in range(d)]
                for i in range(d):
                    ref = mpmath.quad(
                        lambda tau: field_value_mp(jet_j, coeffs[j, 0],
                                                   piece(tau))[i],
                        [0, float(steps[j])])
                    assert exact[j, i] == pytest.approx(float(ref), rel=1e-12,
                                                        abs=1e-14)

    def test_multivariate_composition(self):
        # 2-d field with coupling, checked against dense sampling + trapezoid
        fx = get_fixture("cos_time_r1")
        center = np.array([0.3, 0.1])
        jet = fetch_jet(fx.problem, center, fx.params.r)
        coeffs = np.array([[[0.3, 0.1], [1.0, 0.95], [0.0, 0.0]]])
        out = integrate_field_along(stacked(jet), coeffs, np.array([0.25]))[0]
        ts = np.linspace(0.0, 0.25, 2001)
        path = center + ts[:, None] * coeffs[0, 1]
        vals = jet[0] + (path - center) @ jet[1].T
        ref = np.trapezoid(vals, ts, axis=0)
        assert np.allclose(out, ref, atol=5e-9)


class TestScaledResidual:
    def test_constant_field_zero(self):
        fx = get_fixture("constant")
        fam = one_step_family(fx.problem, fx.params, fx.problem.eta, 0.125, 4)
        assert np.all(fam.peek_all() == 0.0)

    def test_identity_field_hand_algebra(self):
        # f(y) = y, r = 0: the residual at u is u * y_j, here u_k = (k+1/2)/4
        fx = get_fixture("exp_flow")
        fam = one_step_family(fx.problem, fx.params, [1.0], 0.125, 4)
        for k, g in enumerate(fam.peek_all()[:, 0]):
            assert g == pytest.approx((k + 0.5) / 4 * 1.0, rel=1e-15)

    def test_costs_one_evaluation(self):
        fx = get_fixture("sin_flow")
        fam = one_step_family(fx.problem, fx.params, fx.problem.eta, 0.125, 4)
        fam.access(2)
        assert fam.ledger.f_evals == 1

    def test_bounded_by_class_bound_and_stable_as_hbar_shrinks(self):
        from rqode.core import residual_bound
        for name in ("sin_flow", "sin_flow_r1", "cos_time"):
            fx = get_fixture(name)
            M = residual_bound(fx.params, fx.problem.dim)
            sup_by_hbar = []
            for hbar in (0.25, 0.125, 0.0625, 0.03125):
                fam = one_step_family(fx.problem, fx.params, fx.problem.eta,
                                      hbar, 21)
                worst = float(np.max(np.abs(fam.peek_all())))
                assert worst <= M + 1e-12
                sup_by_hbar.append(worst)
            # the 1/hbar^(r+rho) normalization cancels: no blow-up as hbar -> 0
            assert sup_by_hbar[-1] <= 2.0 * max(sup_by_hbar[0], 1e-9)


class TestPieceTiling:
    def test_chained_pieces_continuous_bitwise(self):
        fx = get_fixture("sin_flow_r1")
        res = solve(fx.problem, fx.params, SolveConfig(n=3, m=4, N=2))
        mesh = res.approx.mesh
        C, bases = res.approx.coeffs, res.approx.basepoints
        for i in range(mesh.n):
            for j in range(mesh.m - 1):
                p = i * mesh.m + j
                tau = bases[p + 1] - bases[p]
                end = C[p, -1]
                for q in range(C.shape[1] - 2, -1, -1):
                    end = end * tau + C[p, q]
                assert np.array_equal(end, C[p + 1, 0])

    def test_eval_at_boundaries(self):
        # n = 9, 11, 12 and 17 on [0, 1] and n = 9 and 13 on [0, 1.5] are
        # meshes whose floored (t - a) / h once put a coarse point on the
        # piece before it
        cases = [("sin_flow", n) for n in list(range(2, 18)) + [33]]
        cases += [("inv1p", 9), ("inv1p", 13)]
        for name, n in cases:
            fx = get_fixture(name)
            res = solve(fx.problem, fx.params, SolveConfig(n=n, m=2, N=2))
            approx = res.approx
            # left endpoint returns the initial value exactly
            assert np.array_equal(approx.eval(fx.problem.a), fx.problem.eta)
            # coarse points return the corrected states (right-piece rule)
            for i, x in enumerate(approx.mesh.x[:-1]):
                assert np.array_equal(approx.eval(float(x)), res.y_grid[i]), \
                    (name, n, i)
            # every piece start returns that piece's constant term
            assert np.array_equal(approx.eval(approx.basepoints),
                                  approx.coeffs[:, 0])
            # b is right-closed: evaluated on the final piece
            tail = approx.coeffs[-1:]
            tau = np.array([fx.problem.b - approx.basepoints[-1]])
            assert np.array_equal(approx.eval(fx.problem.b),
                                  horner(tail, tau)[0])
            for t in (float("nan"), [0.5, float("nan")]):
                with pytest.raises(ValueError, match="domain"):
                    approx.eval(t)

    @pytest.mark.parametrize("bases", [[0.25, 0.5], [0.0, 0.0], [0.0, -0.5]])
    def test_basepoints_must_increase_from_a(self, bases):
        # eval finds a piece among the starts, so they must tile [a, b]
        coeffs = np.zeros((2, 2, 1))
        with pytest.raises(ValueError, match="basepoints must increase"):
            PiecewiseTaylorApprox(build_mesh(0.0, 1.0, 1, 2), coeffs,
                                  np.array(bases))

    def test_out_of_domain_rejected(self):
        fx = get_fixture("sin_flow")
        res = solve(fx.problem, fx.params, SolveConfig(n=2, m=2, N=2))
        with pytest.raises(ValueError, match="domain"):
            res.approx.eval(1.0000001)


def reference_chain(problem, y, steps, r, ledger):
    """The per-piece loop that ``fine_chain`` replaced, kept as its
    reference: one ``fetch_jet`` per piece, the recurrence written into a
    float64 row, then Horner over that row to the next piece's start."""
    m, d, order = len(steps), problem.dim, r + 1
    C = np.empty((m, order + 1, d))
    jets = [np.empty((m, d) + (d,) * k) for k in range(r + 1)]
    y_j = y
    for j, tau in enumerate(steps.tolist()):
        jet = fetch_jet(problem, y_j, r, ledger)
        c = C[j]
        c[0] = y_j
        if order >= 1:
            y1 = jet[0]
            c[1] = y1
        if order >= 2:
            y2 = jet[1] @ y1
            c[2] = y2 / 2.0
        if order >= 3:
            y3 = np.einsum("ijk,j,k->i", jet[2], y1, y1) + jet[1] @ y2
            c[3] = y3 / 6.0
        for k in range(r + 1):
            jets[k][j] = jet[k]
        y_j = c[order]
        for q in range(order - 1, -1, -1):
            y_j = y_j * tau + c[q]
    return C, jets


def chain_fixtures():
    """Every stock fixture, and planted problems at r = 0, 1 and 2."""
    out = [(name, get_fixture(name).problem, get_fixture(name).params)
           for name in fixture_names()]
    lambdas = np.random.default_rng(3).uniform(-1.0, 1.0, 5)
    for r in (0, 1, 2):
        pl = make_planted(lambdas, HolderParams(r=r, rho=1.0, D=(1.0,) * (r + 1),
                                                H=1.0))
        out.append(("planted_r%d" % r, pl.problem, pl.params_f))
    return out


def retyped(problem, cast):
    """The r = 0 part of ``problem``'s oracle, its value passed through
    ``cast``."""
    base = problem.derivs

    def derivs(k, y):
        assert k == 0
        return [cast(base(0, y)[0])]
    return IvpProblem(problem.dim, derivs, problem.eta, problem.interval)


class TestFineChain:
    @pytest.mark.parametrize("name, problem, params", chain_fixtures(),
                             ids=[c[0] for c in chain_fixtures()])
    def test_equals_the_per_piece_loop(self, name, problem, params):
        # bit for bit on the mesh's own steps, chained across coarse steps,
        # and charged once per step as m single-point fetches
        r = params.r
        mesh = build_mesh(problem.a, problem.b, 3, 7)
        _, steps = mesh.pieces()
        y = problem.eta
        for i in range(mesh.n):
            led, ref_led = CostLedger(), CostLedger()
            C, jets = fine_chain(problem, y, steps[i], r, led)
            C_ref, jets_ref = reference_chain(problem, y, steps[i], r, ref_led)
            assert C.dtype == np.float64 and C.shape == C_ref.shape
            assert C.tobytes() == C_ref.tobytes()
            assert len(jets) == r + 1
            for t, t_ref in zip(jets, jets_ref):
                assert t.shape == t_ref.shape and t.tobytes() == t_ref.tobytes()
            assert led.as_dict() == ref_led.as_dict()
            assert (led.f_evals, led.deriv_evals) == (mesh.m, r * mesh.m)
            y = horner(C_ref[-1], np.array(steps[i, -1]))

    def test_covers_d_1_and_d_2(self):
        assert {p.dim for _, p, _ in chain_fixtures()} == {1, 2}

    @pytest.mark.parametrize("name", ["sin_flow", "cos_time_r1", "inv1p_r1"])
    @pytest.mark.parametrize("mode, n", [("deterministic", 4),
                                         ("randomized", 3),
                                         ("quantum_sim", 3)])
    def test_solve_bytes_equal_the_per_piece_loop(self, name, mode, n,
                                                  monkeypatch):
        fx = get_fixture(name)
        cfg = SolveConfig(n=n, mode=mode, seed=5)
        got = solve(fx.problem, fx.params, cfg).to_report(include_pieces=True)
        monkeypatch.setattr(solver, "fine_chain", reference_chain)
        ref = solve(fx.problem, fx.params, cfg).to_report(include_pieces=True)
        assert json.dumps(got) == json.dumps(ref)

    @pytest.mark.parametrize("cast", [
        lambda v: v.tolist(), lambda v: v.astype(np.float32)],
        ids=["list", "float32"])
    @pytest.mark.parametrize("name", ["sin_flow", "cos_time"])
    def test_oracle_values_cast_to_float64(self, name, cast, monkeypatch):
        # an r = 0 oracle that returns a list or float32 still solves in
        # float64: its values reach Horner through float64 rows
        fx = get_fixture(name)
        problem = retyped(fx.problem, cast)
        cfg = SolveConfig(n=3)      # steps 1/9 of the interval: not exact
        res = solve(problem, fx.params, cfg)
        assert res.approx.coeffs.dtype == np.float64
        monkeypatch.setattr(solver, "fine_chain", reference_chain)
        ref = solve(problem, fx.params, cfg)
        assert res.y_grid.tobytes() == ref.y_grid.tobytes()
        assert res.approx.coeffs.tobytes() == ref.approx.coeffs.tobytes()
