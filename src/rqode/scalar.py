"""Endpoint solver for scalar autonomous problems with |f| bounded below.

For d = 1 and |f| >= p the endpoint value y* = z(b) is the root of the
arrival-time defect

    defect(y) = integral_eta^y ds / f(s)  -  (b - a),

which is monotone with slope between 1/D_0 and 1/p in absolute value.  The
solver bisects on noisy estimates of the defect: each estimate subtracts the
degree-r Taylor polynomial of 1/f on a partition of [eta, y] (integrated
exactly) and hands the scaled cell residuals, sampled at cell midpoints, to
one of the mean backends.  Estimates are median-boosted so that the whole
bisection succeeds with probability 1 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import CostLedger, HolderParams, IvpProblem
from .estimators import (IndexedFamily, full_mean, mc_mean, median_rep_count,
                         quantum_sim_mean, MC_CALIBRATION, QUANTUM_COST_CONSTANT)
from .rng import RngStream

__all__ = [
    "ClassViolationError",
    "inverse_class_params",
    "estimate_H",
    "bisection_solve",
    "BisectionResult",
    "CellGeometry",
]


class ClassViolationError(RuntimeError):
    """Raised when sampled values of f violate the declared |f| >= p bound."""


def inverse_class_params(params: HolderParams, span: float) -> dict:
    """Derived smoothness data for phi = 1/f on an interval of width span.

    Returns the derivative bounds ``Dt[0..r]``, the Holder constant ``Ht``
    of phi^(r), the cell-residual sup bound ``M`` and the residual Lipschitz
    bound ``L`` used to pick midpoint counts.  Quotient-rule bounds, r <= 2.
    """
    if params.p is None:
        raise ValueError("inverse-class bounds need the lower bound p")
    r, rho, p, H = params.r, params.rho, params.p, params.H
    D = params.D
    bridge = span ** (1.0 - rho)  # |y-z| <= span^(1-rho) |y-z|^rho on the bracket
    Dt = [1.0 / p]
    if r >= 1:
        Dt.append(D[1] / p ** 2)
    if r >= 2:
        Dt.append(D[2] / p ** 2 + 2.0 * D[1] ** 2 / p ** 3)
    if r > 2:
        raise ValueError("inverse-class bounds implemented for r <= 2")
    if r == 0:
        Ht = H / p ** 2
    elif r == 1:
        Ht = H / p ** 2 + 2.0 * D[0] * D[1] ** 2 / p ** 4 * bridge
    else:
        Ht = (H / p ** 2
              + (2.0 * D[0] * D[1] * D[2] / p ** 4
                 + 4.0 * D[1] * D[2] / p ** 3
                 + 6.0 * D[0] ** 2 * D[1] ** 3 / p ** 6) * bridge)
    M = Ht * math.gamma(rho + 1.0) / math.gamma(r + rho + 1.0)
    L = Ht * math.gamma(rho + 1.0) / math.gamma(r + rho)
    return {"Dt": Dt, "Ht": Ht, "M": M, "L": L}


def _phi_jet(problem: IvpProblem, pts: np.ndarray, r: int,
             ledger: CostLedger) -> list:
    """Jet of phi = 1/f at an array of points; one ledger call per order."""
    Y = pts[:, None]
    fv = np.asarray(problem.f(Y), dtype=float).ravel()
    ledger.f_evals += pts.size
    jet = [1.0 / fv]
    if r >= 1:
        f1 = np.array([float(np.asarray(problem.derivs(1, np.array([y])))[0, 0])
                       for y in pts])
        ledger.deriv_evals += pts.size
        jet.append(-f1 / fv ** 2)
    if r >= 2:
        f2 = np.array([float(np.asarray(problem.derivs(2, np.array([y])))[0, 0, 0])
                       for y in pts])
        ledger.deriv_evals += pts.size
        jet.append(-f2 / fv ** 2 + 2.0 * f1 ** 2 / fv ** 3)
    return jet, fv


class CellGeometry:
    """Cells, Taylor data of 1/f at the anchors, and the exact polynomial part."""

    def __init__(self, problem: IvpProblem, params: HolderParams, y: float,
                 cells: int, ledger: CostLedger):
        eta = float(problem.eta[0])
        self.sign = 1.0 if y >= eta else -1.0
        self.width = abs(y - eta)
        self.cells = int(cells)
        self.delta = self.width / self.cells if self.cells else 0.0
        self.anchors = eta + self.sign * self.delta * np.arange(self.cells)
        jet, fv = _phi_jet(problem, self.anchors, params.r, ledger)
        if np.min(np.abs(fv)) < params.p:
            worst = self.anchors[int(np.argmin(np.abs(fv)))]
            raise ClassViolationError(
                "|f| >= p violated at y = %.6g: |f| = %.3g < p = %.3g"
                % (worst, float(np.min(np.abs(fv))), params.p))
        self.jet = jet
        step = self.sign * self.delta
        # exact integral of the degree-r Taylor polynomials over their cells
        total = 0.0
        for k, coeffs in enumerate(jet):
            total += coeffs.sum() * step ** (k + 1) / math.factorial(k + 1)
        self.exact_part = float(total)


class CellResidualFamily(IndexedFamily):
    """Scaled residuals of 1/f against its per-cell Taylor polynomials.

    Item (i, k) is the residual of cell i at midpoint (k + 1/2)/N_c, scaled
    by delta^(r+rho); each access costs one f evaluation.
    """

    def __init__(self, problem: IvpProblem, params: HolderParams,
                 geom: CellGeometry, n_mid: int, bound: float,
                 ledger: CostLedger):
        self._problem = problem
        self._params = params
        self._geom = geom
        self._n_mid = int(n_mid)
        super().__init__(geom.cells * self._n_mid, 1, bound, ledger)

    def _compute(self, idx: np.ndarray) -> np.ndarray:
        g = self._geom
        i = idx // self._n_mid
        k = idx % self._n_mid
        off = g.sign * (k + 0.5) / self._n_mid * g.delta
        zeta = g.anchors[i] + off
        phi = 1.0 / np.asarray(self._problem.f(zeta[:, None]), dtype=float).ravel()
        taylor = np.zeros_like(phi)
        for q, coeffs in enumerate(g.jet):
            taylor += coeffs[i] * off ** q / math.factorial(q)
        out = (phi - taylor) / g.delta ** self._params.order
        return out[:, None]


def _cell_count(params: HolderParams, width: float, eps1: float, mode: str,
                inv: dict) -> int:
    """Cell counts balancing discretization bias against estimator cost."""
    order = params.order
    if width == 0.0:
        return 1
    if mode == "randomized":
        raw = (2.0 * MC_CALIBRATION * inv["M"] * width ** (order + 1.0)
               / eps1) ** (1.0 / (order + 0.5))
    elif mode == "quantum_sim":
        raw = (2.0 * QUANTUM_COST_CONSTANT * inv["M"] * width ** (order + 1.0)
               / eps1) ** (1.0 / (order + 1.0))
    else:
        raw = (inv["L"] * width ** (order + 1.0) / (4.0 * eps1)) ** (1.0 / order)
    return max(1, int(math.ceil(raw)))


def _mid_count(params: HolderParams, geom: CellGeometry, eps1: float,
               mode: str, inv: dict) -> int:
    """Midpoints per cell keeping the quadrature bias within budget."""
    if mode == "deterministic":
        return 1
    bias_scale = geom.width * geom.delta ** params.order * inv["L"]
    return max(1, int(math.ceil(bias_scale / (2.0 * eps1))))


def _build_family(problem, params, geom, eps1, mode, inv, ledger):
    if geom.width == 0.0:
        return None
    n_mid = _mid_count(params, geom, eps1, mode, inv)
    return CellResidualFamily(problem, params, geom, n_mid, inv["M"], ledger)


def _estimate_once(problem, params, geom, family, eps1, mode, inv, rng):
    """One defect estimate from a prepared geometry and residual family.

    The family is shared across median repetitions.  Its item table, built
    by ``mc_mean`` once a run reads at least as many items as the family
    holds, is the memoization the cost model allows: every call still
    charges its own estimation cost, one f evaluation per index drawn.
    """
    b_minus_a = problem.b - problem.a
    if family is None:
        return -b_minus_a
    resid_scale = geom.sign * geom.width * geom.delta ** params.order
    if mode == "deterministic":
        est = full_mean(family)
    else:
        # estimator budget: eps1/2 after scaling back by width * delta^(r+rho)
        eps_fam = eps1 / (2.0 * geom.width * geom.delta ** params.order)
        if mode == "randomized":
            est = mc_mean(family, eps_fam, rng)
        else:
            est = quantum_sim_mean(family, eps_fam, rng)
    return geom.exact_part + resid_scale * float(est.value[0]) - b_minus_a


def estimate_H(problem: IvpProblem, params: HolderParams, y: float,
               eps1: float, mode: str, rng: Optional[RngStream] = None,
               ledger: Optional[CostLedger] = None):
    """Estimate the arrival-time defect at y to within eps1, w.p. >= 3/4.

    The [eta, y] interval is split into cells; the degree-r Taylor part of
    1/f is integrated exactly and the scaled cell residuals are averaged by
    the mode's mean backend (bias and estimation error each budgeted at
    eps1/2).  Deterministic mode enumerates every midpoint and is certain.
    Returns ``(A, cost_receipt)``.
    """
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    if problem.dim != 1:
        raise ValueError("the endpoint solver handles scalar problems only")
    if params.p is None:
        raise ValueError("params must declare the lower bound p")
    ledger = ledger if ledger is not None else CostLedger()
    rng = rng if rng is not None else RngStream(0, ledger)
    snap = ledger.snapshot()
    width = abs(float(y) - float(problem.eta[0]))
    span = max(width, params.D[0] * (problem.b - problem.a))
    inv = inverse_class_params(params, span)
    cells = _cell_count(params, width, eps1, mode, inv)
    geom = CellGeometry(problem, params, float(y), cells, ledger)
    family = _build_family(problem, params, geom, eps1, mode, inv, ledger)
    A = _estimate_once(problem, params, geom, family, eps1, mode, inv, rng)
    return A, ledger.delta_since(snap)


@dataclass
class BisectionResult:
    """Outcome of a noisy-oracle bisection run."""

    y_out: float
    iters: int
    ledger: CostLedger
    history: list = field(default_factory=list)
    breached: bool = False
    eps1: float = 0.0
    k_rep: int = 1
    max_iters: int = 0
    seed: int = 0

    def to_report(self) -> dict:
        return {
            "y_out": self.y_out,
            "iters": self.iters,
            "cost": self.ledger.as_dict(),
            "success_event_trace": {
                "history": [
                    {"midpoint": m, "estimate": a, "side": s}
                    for (m, a, s) in self.history
                ],
                "breached": self.breached,
                "eps1": self.eps1,
                "k_rep": self.k_rep,
                "max_iters": self.max_iters,
            },
            "seed": self.seed,
        }


def bisection_solve(problem: IvpProblem, params: HolderParams, eps: float,
                    delta: float, mode: str = "randomized",
                    seed: int = 0) -> BisectionResult:
    """Compute z(b) to within eps with probability at least 1 - delta.

    Per-estimate tolerance eps1 = eps / (3 D_0); the starting bracket is
    [eta, eta + D_0 (b-a)] (mirrored when f < 0) and each midpoint defect is
    the median of k boosted estimates, k chosen so all iterates succeed
    jointly w.p. 1 - delta.  Iteration stops once |estimate| <= 2 eps1,
    which the success event guarantees within the iteration budget; running
    past the budget is reported as a (low-probability) contract breach.
    """
    if params.p is None:
        raise ValueError("params must declare the lower bound p")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode not in ("deterministic", "randomized", "quantum_sim"):
        raise ValueError("unknown mode %r" % mode)

    ledger = CostLedger()
    rng = RngStream(seed, ledger)
    eta = float(problem.eta[0])
    D0, p = params.D[0], params.p
    b_minus_a = problem.b - problem.a
    eps1 = eps / (3.0 * D0)
    max_iters = int(math.ceil(math.log2(D0 * b_minus_a / (p * eps1))))
    max_iters = max(max_iters, 1)
    k_rep = 1 if mode == "deterministic" else median_rep_count(max_iters, delta)

    f_eta = float(np.asarray(problem.f(problem.eta))[0])
    ledger.f_evals += 1
    if abs(f_eta) < p:
        raise ClassViolationError("|f(eta)| = %.3g < p = %.3g" % (abs(f_eta), p))
    increasing = f_eta > 0  # sign of d defect / dy = 1/f
    if increasing:
        lo, hi = eta, eta + D0 * b_minus_a
    else:
        lo, hi = eta - D0 * b_minus_a, eta

    span = D0 * b_minus_a
    inv = inverse_class_params(params, span)
    history = []
    y_mid = 0.5 * (lo + hi)

    for it in range(1, max_iters + 1):
        y_mid = 0.5 * (lo + hi)
        width = abs(y_mid - eta)
        cells = _cell_count(params, width, eps1, mode, inv)
        geom = CellGeometry(problem, params, y_mid, cells, ledger)
        family = _build_family(problem, params, geom, eps1, mode, inv, ledger)
        if mode == "deterministic":
            A = _estimate_once(problem, params, geom, family, eps1, mode, inv, rng)
        else:
            reps = [
                _estimate_once(problem, params, geom, family, eps1, mode, inv, s)
                for s in rng.spawn(k_rep)
            ]
            A = float(np.median(reps))
        if abs(A) <= 2.0 * eps1:
            history.append((y_mid, A, "stop"))
            return BisectionResult(y_out=y_mid, iters=it, ledger=ledger,
                                   history=history, breached=False, eps1=eps1,
                                   k_rep=k_rep, max_iters=max_iters, seed=seed)
        # positive defect means the arrival time is already past b - a
        go_left = (A > 0) == increasing
        if go_left:
            hi = y_mid
        else:
            lo = y_mid
        history.append((y_mid, A, "left" if go_left else "right"))

    return BisectionResult(y_out=y_mid, iters=max_iters, ledger=ledger,
                           history=history, breached=True, eps1=eps1,
                           k_rep=k_rep, max_iters=max_iters, seed=seed)
