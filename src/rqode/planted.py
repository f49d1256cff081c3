"""Planted scalar problems whose endpoint value encodes a hidden mean.

A vector of coefficients ``lambda_0..lambda_{n-1}`` in [-1, 1] is planted
into ``g(y) = 1 + sum_i lambda_i h_i(y)`` via disjoint smooth bumps on the
uniform partition of [eta, eta + 1/2]; the problem to solve is
``z' = f(z) = 1/g(z)`` on [0, 1].  Integrating 1/f across the bump region
shows that the endpoint satisfies

    z(1) = eta + 1 - mean_scale * n^-(r+rho+1) * sum_i lambda_i,

so any estimate of z(1) recovers the planted mean after an affine map that
amplifies errors by exactly ``n^(r+rho) / mean_scale``.  These problems are
verification fixtures: solving them and recovering the mean checks solver
accuracy at the amplification scale.  The jet oracle ``derivs(k, y)`` finds
each point's bump, evaluates the template once and returns f's orders 0..k.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import HolderParams, IvpProblem, require_count, require_positive
from .scalar import inverse_class_params, reciprocal_jet

__all__ = [
    "PlantedProblem",
    "make_planted",
    "recover_mean",
    "bump_template",
    "TEMPLATE_UNIT_INTEGRAL",
    "TEMPLATE_SUP_DERIV",
]

# One-time constants of the unit-peak template psi(u)/psi(1/2) with
# psi(u) = exp(-1/(u(1-u))): its integral over [0, 1] and the sup norms of
# its first three derivatives.  Frozen from a high-precision quadrature and
# extrema scan; cross-checked in the test suite.
TEMPLATE_UNIT_INTEGRAL = 0.3838172639958343
TEMPLATE_SUP_DERIV = {
    0: 1.0,
    1: 4.235640422134888,
    2: 32.254257570540753,
    3: 456.74360320333440,
}


def _bump_jet(x, bins: int, k: int):
    """Bin index, support mask and template orders 0..k at x in bin units:
    the bin is floor(x) clamped to [0, bins), the mask 1e-3 < u < 1 on the
    offset u in it is false for NaN and +-inf, and orders exist only where it
    holds (every order is +0.0 at u <= 1e-3, where 0 * inf could give NaN)."""
    if k not in (0, 1, 2, 3):
        raise ValueError("template derivatives available up to order 3")
    idx = np.minimum(np.maximum(np.floor(x), 0.0), bins - 1.0)
    u = x - idx
    mask = (1e-3 < u) & (u < 1.0)
    ui = u[mask]
    if not ui.size:
        return idx, mask, []
    s = ui * (1.0 - ui)
    psi = np.exp(4.0 - 1.0 / s)  # includes the 1/peak normalization
    jet = [psi]
    if k >= 1:
        sp = 1.0 - 2.0 * ui
        w = sp / s ** 2
        jet.append(psi * w)
    if k >= 2:
        wp = -2.0 / s ** 2 - 2.0 * sp ** 2 / s ** 3
        jet.append(psi * (w ** 2 + wp))
    if k >= 3:
        wpp = 12.0 * sp / s ** 3 + 6.0 * sp ** 3 / s ** 4
        jet.append(psi * (w ** 3 + 3.0 * w * wp + wpp))
    return idx, mask, jet


def bump_template(u, order: int = 0):
    """Derivatives of the unit-peak bump template, vanishing outside (0, 1)."""
    u = np.asarray(u, dtype=float)
    _, inside, jet = _bump_jet(u, 1, order)
    out = np.zeros_like(u)
    out[inside] = jet[order] if jet else 0.0
    return out if out.ndim else float(out)


def default_peak_coeff(r: int, rho: float, H: float) -> float:
    """Largest peak coefficient keeping the bump sums inside the class.

    The binding constraints are the Holder condition of the r-th derivative
    for nearby points (template derivative of order r+1) and for far pairs
    (twice the order-r sup); a 5% safety margin absorbs the frozen-constant
    rounding.
    """
    near = TEMPLATE_SUP_DERIV[r + 1]
    far = 2.0 * TEMPLATE_SUP_DERIV[r]
    return 0.95 * H / max(near, far)


class PlantedProblem:
    """A hidden-mean problem: g = 1 + sum lambda_i h_i, f = 1/g on [0, 1]."""

    def __init__(self, lambdas, params: HolderParams, eta: float = 0.0,
                 peak_coeff: Optional[float] = None):
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.ndim != 1 or lambdas.size == 0:
            raise ValueError("planted problems need at least one coefficient, "
                             "as a 1-D sequence; got shape %s" % (lambdas.shape,))
        if not np.all(np.isfinite(lambdas)):
            raise ValueError("planted coefficients must be finite: %s" % lambdas)
        if np.any(np.abs(lambdas) > 1.0):
            raise ValueError("planted coefficients must lie in [-1, 1]")
        self.lambdas = lambdas
        self.n = lambdas.size
        self.params_g = params
        self.eta = float(eta)
        if peak_coeff is None:
            peak_coeff = default_peak_coeff(params.r, params.rho, params.H)
        self.peak_coeff = require_positive("peak_coeff", peak_coeff)
        self.width = 1.0 / (2.0 * self.n)
        self.mass_coeff = self.peak_coeff * TEMPLATE_UNIT_INTEGRAL
        # bump mass = mass_coeff * (1/(2n))^(r+rho+1) = mean_scale * n^-(r+rho+1)
        self.mean_scale = self.mass_coeff * 0.5 ** (params.order + 1.0)
        self._bump_scale = self.peak_coeff * self.width ** params.order
        self.problem = IvpProblem(1, self.derivs, np.array([self.eta]),
                                  (0.0, 1.0), name="planted_n%d" % self.n)
        self.params_f = self._derive_f_params()

    # -- g and its jet in one pass (supports are disjoint: one bump per point)

    def g(self, y, order: int = 0):
        return self._jet(y, order)[order]

    def _jet(self, y, k: int) -> list:
        y = np.asarray(y, dtype=float)
        idx, inside, tmpl = _bump_jet((y - self.eta) / self.width, self.n, k)
        jet = [np.full(y.shape, 1.0 if q == 0 else 0.0) for q in range(k + 1)]
        if tmpl:
            lam = self.lambdas[idx[inside].astype(int)] * self._bump_scale
            for q, t in enumerate(tmpl):
                jet[q][inside] += lam * (t / self.width ** q)
        return jet

    def derivs(self, k: int, y):
        if k not in (0, 1, 2):
            raise ValueError("planted problems supply derivatives up to order 2")
        y = np.asarray(y, dtype=float)
        lead = y.shape[:-1]
        return [t.reshape(lead + (1,) * (q + 1)) for q, t in
                enumerate(reciprocal_jet(self._jet(y.reshape(-1), k)))]

    def _derive_f_params(self) -> HolderParams:
        """Class declaration for f = 1/g from the g-construction bounds."""
        pg = self.params_g
        gamma = self.peak_coeff * 0.5 ** pg.order    # sup |g - 1|, any n >= 1
        if gamma >= 1.0:
            raise ValueError("peak_coeff %r gives sup |g - 1| = peak_coeff * "
                             "2^-(r + rho) = %r >= 1, so g reaches 0"
                             % (self.peak_coeff, gamma))
        g_lo = 1.0 - gamma
        Dg = [1.0 + gamma]
        for k in range(1, pg.r + 1):
            Dg.append(self.peak_coeff * 0.5 ** (pg.order - k)
                      * TEMPLATE_SUP_DERIV[k])
        Hg = self.peak_coeff * max(TEMPLATE_SUP_DERIV[pg.r + 1],
                                   2.0 * TEMPLATE_SUP_DERIV[pg.r])
        g_params = HolderParams(r=pg.r, rho=pg.rho, D=tuple(Dg), H=Hg, p=g_lo)
        inv = inverse_class_params(g_params, span=0.5)
        return HolderParams(r=pg.r, rho=pg.rho, D=tuple(inv["Dt"]),
                            H=inv["Ht"], p=1.0 / (1.0 + gamma))

    def true_mean(self) -> float:
        return float(np.mean(self.lambdas))

    def closed_form_endpoint(self) -> float:
        """z(1) from the time-1 arrival identity (exact up to rounding)."""
        total = self.mean_scale * self.n ** (-(self.params_g.order + 1.0)) \
            * float(np.sum(self.lambdas))
        return self.eta + 1.0 - total

    def to_entry(self, name: str) -> dict:
        """Declarative fixture entry (loadable by the fixtures module)."""
        return {
            "name": name, "family": "planted", "d": 1,
            "r": self.params_g.r, "rho": self.params_g.rho,
            "D": list(self.params_g.D), "H": self.params_g.H,
            "a": 0.0, "b": 1.0, "eta": [self.eta],
            "lambdas": self.lambdas.tolist(),
            "peak_coeff": self.peak_coeff,
            "mass_coeff": self.mass_coeff,
            "mean_scale": self.mean_scale,
        }


def make_planted(lambdas, params: HolderParams, eta: float = 0.0,
                 peak_coeff: Optional[float] = None) -> PlantedProblem:
    """Build the planted problem for the given coefficients and class."""
    return PlantedProblem(lambdas, params, eta=eta, peak_coeff=peak_coeff)


def recover_mean(z1_est: float, eta: float, n: int, mean_scale: float,
                 order: float) -> float:
    """Invert the endpoint identity: estimate of mean(lambda) from z(1).

    Affine in the estimate; an endpoint error of e maps to a mean error of
    exactly ``e * n^order / mean_scale``.
    """
    n = require_count("n", n)
    mean_scale = require_positive("mean_scale", mean_scale)
    return (1.0 - z1_est + eta) / (mean_scale * float(n) ** (-float(order)))

