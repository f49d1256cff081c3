import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqode.core import HolderParams, validate_holder
from rqode.fixtures import reference_solver
from rqode.planted import (TEMPLATE_SUP_DERIV, TEMPLATE_UNIT_INTEGRAL,
                           bump_template, default_peak_coeff, make_planted,
                           recover_mean)

PARAMS_R0 = HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0)
PARAMS_R1 = HolderParams(r=1, rho=1.0, D=(1.2, 1.0), H=1.0)
PARAMS_R2 = HolderParams(r=2, rho=0.5, D=(1.2, 1.0, 1.0), H=1.0)


class TestTemplate:
    def test_unit_integral_against_quadrature(self):
        mp.mp.dps = 30

        def psi(u):
            if u <= 0 or u >= 1:
                return mp.mpf(0)
            return mp.e ** (-1 / (u * (1 - u)))
        ref = mp.quad(psi, [0, mp.mpf("0.5"), 1]) / mp.e ** -4
        assert TEMPLATE_UNIT_INTEGRAL == pytest.approx(float(ref), rel=1e-12)

    def test_derivatives_against_mpmath(self):
        mp.mp.dps = 30

        def psihat(u):
            return mp.e ** (4 - 1 / (u * (1 - u)))
        for k in (1, 2, 3):
            for u in (0.15, 0.3, 0.5, 0.62, 0.85):
                num = float(mp.diff(psihat, mp.mpf(repr(u)), k))
                assert bump_template(u, k) == pytest.approx(num, rel=1e-9,
                                                            abs=1e-12)

    def test_sup_norm_constants(self):
        # frozen sup norms dominate a dense grid scan of |psi^(k)|
        us = np.linspace(1e-4, 1 - 1e-4, 20001)
        for k in (1, 2, 3):
            grid_sup = float(np.max(np.abs(bump_template(us, k))))
            assert grid_sup <= TEMPLATE_SUP_DERIV[k] * (1 + 1e-6)
            assert grid_sup >= 0.98 * TEMPLATE_SUP_DERIV[k]

    def test_compact_support(self):
        for k in (0, 1, 2, 3):
            assert bump_template(0.0, k) == 0.0
            assert bump_template(1.0, k) == 0.0
            assert bump_template(-0.5, k) == 0.0
        # just inside an edge psi underflows to 0 while its weight w
        # overflows; every order is 0 there, not 0 * inf = nan
        assert bump_template(1e-200, 1) == 0.0
        assert bump_template(1e-80, 2) == 0.0
        us = np.concatenate([np.logspace(-323, -3, 200),
                             1.0 - np.logspace(-16, -3, 50)])
        for k in (0, 1, 2, 3):
            assert np.all(np.isfinite(bump_template(us, k))), k
        pl = make_planted([0.5, -1.0], PARAMS_R2)
        jet = pl.derivs(2, np.array([1e-200]))
        assert [t.tolist() for t in jet] == [[1.0], [[0.0]], [[[0.0]]]]
        jet = pl.derivs(2, us[:, None] * pl.width)
        assert all(np.all(np.isfinite(t)) for t in jet)


def one_hot(i, n):
    lam = np.zeros(n)
    lam[i] = 1.0
    return lam


class TestBump:
    # a one-hot lambda plants bump i alone: g - 1 is that bump's profile

    def test_scaling_identity(self):
        # mass = mean_scale * n^-(r+rho+1)
        #      = peak_coeff * unit_integral * width^(r+rho+1)
        pl = make_planted(one_hot(0, 4), PARAMS_R0)
        assert pl.width == 0.125
        assert pl.peak_coeff == default_peak_coeff(0, 1.0, 1.0)
        mass = pl.mean_scale * 4.0 ** -2
        assert mass == pytest.approx(pl.peak_coeff * TEMPLATE_UNIT_INTEGRAL
                                     * pl.width ** 2)
        # numerical mass agrees
        ys = np.linspace(0.0, pl.width, 40001)
        num_mass = np.trapezoid(pl.g(ys) - 1.0, ys)
        assert num_mass == pytest.approx(mass, rel=1e-6)

    def test_vanishing_at_support_endpoints(self):
        pl = make_planted(one_hot(1, 4), PARAMS_R1)
        for y in (pl.width, 2 * pl.width):
            assert pl.g(y) == 1.0
            for k in (1, 2):
                assert pl.g(y, k) == 0.0

    def test_peak_at_midpoint(self):
        n = 4
        pl = make_planted(one_hot(2, n), PARAMS_R0)
        lo, hi = 2 * pl.width, 3 * pl.width
        mid = 0.5 * (lo + hi)
        c1 = default_peak_coeff(0, 1.0, 1.0)
        assert pl.g(mid) - 1.0 == pytest.approx(c1 * (1.0 / (2 * n)) ** 1.0)
        ys = np.linspace(lo, hi, 1001)
        assert np.max(pl.g(ys)) <= pl.g(mid) * (1 + 1e-12)


class TestPlantedProblem:
    def test_zero_coefficients_unperturbed(self):
        pl = make_planted(np.zeros(4), PARAMS_R0)
        ys = np.linspace(-0.2, 1.2, 101)
        assert np.all(pl.problem.f(ys[:, None]) == 1.0)
        assert pl.closed_form_endpoint() == 1.0

    def test_single_bump_endpoint_vs_reference(self):
        pl = make_planted([1.0], PARAMS_R0)
        expect = pl.eta + 1.0 - pl.mean_scale     # n = 1
        assert pl.closed_form_endpoint() == pytest.approx(expect, abs=0)
        ref = reference_solver(pl.problem, rtol=1e-13, atol=1e-13,
                               max_step=pl.width / 3.0)
        assert float(ref(1.0)[0]) == pytest.approx(expect, abs=1e-10)

    def test_field_stays_in_band(self):
        rng = np.random.default_rng(0)
        for n in (1, 8, 32):
            pl = make_planted(rng.uniform(-1, 1, n), PARAMS_R0)
            ys = np.linspace(0.0, 0.5, 2001)
            fv = pl.problem.f(ys[:, None])
            assert np.all(fv >= 0.75) and np.all(fv <= 1.5)

    def test_arrival_identity(self):
        # integral of 1/f over the bump region plus the tail reproduces the
        # unit arrival time
        rng = np.random.default_rng(1)
        pl = make_planted(rng.uniform(-1, 1, 8), PARAMS_R0)
        ys = np.linspace(0.0, 0.5, 200001)
        glob = np.trapezoid(pl.g(ys), ys)
        z1 = pl.closed_form_endpoint()
        assert glob + (z1 - pl.eta - 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_derivative_oracles_consistent(self):
        # quotient-rule derivatives agree with finite differences of the
        # order below, up to order r
        rng = np.random.default_rng(2)
        h = 1e-6
        for params in (PARAMS_R1, PARAMS_R2):
            pl = make_planted(rng.uniform(-1, 1, 4), params)
            for k in range(1, params.r + 1):
                for y in (0.06, 0.21, 0.3):
                    dk = float(pl.derivs(k, np.array([y]))[k].ravel()[0])
                    lo, hi = (pl.derivs(k - 1, np.array([y + s]))[k - 1]
                              .ravel()[0] for s in (-h, h))
                    fd = (hi - lo) / (2 * h)
                    assert dk == pytest.approx(fd, rel=5e-5, abs=1e-8), (k, y)

    def test_class_membership_sampled(self):
        # derived class declaration for f = 1/g validates on a fine grid for
        # every n at or above the documented threshold (n >= 1 here)
        rng = np.random.default_rng(3)
        for n in (1, 8, 16):
            pl = make_planted(rng.uniform(-1, 1, n), PARAMS_R0)
            grid = np.linspace(1e-3, 0.499, 301)[:, None]
            rep = validate_holder(pl.problem, pl.params_f, grid, tol=1e-9)
            assert rep.passed, rep.violations[:2]

    def test_no_coefficients_rejected(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            make_planted([], PARAMS_R0)

    @pytest.mark.parametrize("lambdas, message", [
        ([0.5, np.nan], r"must be finite: \[0\.5 +nan\]"),
        ([-np.inf, 0.5], r"must be finite: \[-inf +0\.5\]"),
        ([[0.5, 0.2], [0.1, 0.3]], r"as a 1-D sequence; got shape \(2, 2\)"),
        (0.5, r"as a 1-D sequence; got shape \(\)"),
    ], ids=["nan", "inf", "2-D", "scalar"])
    def test_bad_coefficients_named(self, lambdas, message):
        with pytest.raises(ValueError, match=message):
            make_planted(lambdas, PARAMS_R0)


class TestRecoverMean:
    def test_unperturbed_recovers_zero(self):
        pl = make_planted(np.zeros(8), PARAMS_R0)
        assert recover_mean(pl.eta + 1.0, pl.eta, 8, pl.mean_scale, 1.0) == 0.0

    def test_reference_solve_recovers_mean(self):
        rng = np.random.default_rng(4)
        for n in (8, 16):
            lam = rng.uniform(-1, 1, n)
            pl = make_planted(lam, PARAMS_R0)
            ref = reference_solver(pl.problem, rtol=1e-13, atol=1e-13,
                                   max_step=pl.width / 3.0)
            rec = recover_mean(float(ref(1.0)[0]), pl.eta, n,
                               pl.mean_scale, 1.0)
            bound = 1e-9 * n ** 1.0 / pl.mean_scale
            assert abs(rec - lam.mean()) <= bound

    def test_affine_amplification_exact(self):
        pl = make_planted(np.zeros(16), PARAMS_R0)
        z = pl.eta + 1.0
        base = recover_mean(z, pl.eta, 16, pl.mean_scale, 1.0)
        for e in (1e-9, 1e-6, 1e-3):
            shifted = recover_mean(z + e, pl.eta, 16, pl.mean_scale, 1.0)
            assert shifted - base == pytest.approx(
                -e * 16.0 / pl.mean_scale, rel=1e-12)

    @given(lambdas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
           e=st.floats(1e-4, 0.25), sign=st.sampled_from((-1.0, 1.0)),
           params=st.sampled_from((PARAMS_R0, PARAMS_R1)))
    @settings(max_examples=100, deadline=None)
    def test_amplification_exact_for_any_lambdas(self, lambdas, e, sign,
                                                 params):
        pl = make_planted(lambdas, params)
        n, order = pl.n, params.order
        z = pl.closed_form_endpoint()
        base = recover_mean(z, pl.eta, n, pl.mean_scale, order)
        gain = n ** order / pl.mean_scale
        assert base == pytest.approx(np.mean(lambdas), rel=0,
                                     abs=1e-15 * gain)
        shift = (z + sign * e) - z      # the shift the float endpoint holds
        moved = recover_mean(z + shift, pl.eta, n, pl.mean_scale, order)
        assert moved - base == pytest.approx(-shift * gain, rel=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            recover_mean(1.0, 0.0, 0, 0.1, 1.0)
        with pytest.raises(ValueError):
            recover_mean(1.0, 0.0, 4, -0.1, 1.0)
        with pytest.raises(ValueError,
                           match=r"^n must be a whole number, got 2\.5$"):
            recover_mean(1.0, 0.0, 2.5, 0.1, 1.0)
        with pytest.raises(ValueError, match="^mean_scale must be finite$"):
            recover_mean(1.0, 0.0, 4, float("nan"), 1.0)
        with pytest.raises(ValueError):
            make_planted([1.5], PARAMS_R0)
