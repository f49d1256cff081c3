"""Endpoint solver for scalar autonomous problems with |f| bounded below.

For d = 1 and |f| >= p the endpoint value y* = z(b) is the root of the
arrival-time defect

    defect(y) = integral_eta^y ds / f(s)  -  (b - a),

which is monotone with slope between 1/D_0 and 1/p in absolute value.  The
solver bisects on noisy estimates of the defect: each estimate subtracts the
degree-r Taylor polynomial of 1/f on a partition of [eta, y] (integrated
exactly) and hands the scaled cell residuals, sampled at cell midpoints, to
the mode's mean backend.  In the sampled modes each estimate is the median
of k runs, taken by the backend in one call, k chosen so that the whole
bisection succeeds with probability 1 - delta.  The mode's
:class:`~rqode.estimators.Backend` record also sets the cell-count law and
the midpoint rule.

:func:`bisection_solve` is the one entry point and checks the inputs once;
the defect estimate it bisects on is internal to it.

One bisection builds every iteration's cell family on one
:class:`~rqode.estimators.Workspace`, freed with the bisection, under the
buffer rule of :class:`~rqode.estimators.IndexedFamily`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (ClassViolationError, CostLedger, HolderParams, IvpProblem,
                   require_count, require_delta, require_finite,
                   require_nonnegative_int, require_positive)
from .estimators import (IndexedFamily, Workspace, full_mean, get_backend,
                         mc_mean, quantum_sim_mean)
from .rng import RngStream
from .taylor import fetch_jet

__all__ = [
    "ClassViolationError",
    "inverse_class_params",
    "bisection_solve",
    "BisectionResult",
    "CellGeometry",
    "reciprocal_jet",
]


def inverse_class_params(params: HolderParams, span: float) -> dict:
    """Derived smoothness data for phi = 1/f on an interval of width span.

    Returns the derivative bounds ``Dt[0..r]``, the Holder constant ``Ht``
    of phi^(r), the cell-residual sup bound ``M`` and the residual Lipschitz
    bound ``L`` used to pick midpoint counts.  Quotient-rule bounds, which
    cover every supported order (``HolderParams`` rejects r > 2).
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


def reciprocal_jet(jet: list) -> list:
    """Jet ``[1/g, (1/g)', (1/g)'']`` of 1/g from the jet ``[g, g', g'']``.

    Takes and returns the first r + 1 orders, r <= 2; entries may be arrays.
    """
    g = jet[0]
    out = [1.0 / g]
    if len(jet) > 1:
        out.append(-jet[1] / g ** 2)
    if len(jet) > 2:
        out.append(-jet[2] / g ** 2 + 2.0 * jet[1] ** 2 / g ** 3)
    return out


class CellGeometry:
    """Cells, Taylor data of 1/f at the anchors, and the exact polynomial part.

    Oracle values at the anchors that are not finite, or with |f| < p, raise
    ``ClassViolationError``.
    """

    def __init__(self, problem: IvpProblem, params: HolderParams, y: float,
                 cells: int, ledger: CostLedger):
        eta = float(problem.eta[0])
        self.y = y
        self.sign = 1.0 if y >= eta else -1.0
        self.width = abs(y - eta)
        self.cells = require_count("cells", cells)
        self.delta = self.width / self.cells
        self.anchors = eta + self.sign * self.delta * np.arange(self.cells)
        f_jet = [t.reshape(self.cells) for t in fetch_jet(
            problem, self.anchors[:, None], params.r, ledger)]
        require_finite(f_jet, "f or its derivatives at the cell anchors not "
                       "finite for the bisection midpoint y = %.6g", y)
        fv = f_jet[0]
        if np.min(np.abs(fv)) < params.p:
            worst = self.anchors[int(np.argmin(np.abs(fv)))]
            raise ClassViolationError(
                "|f| >= p violated at y = %.6g: |f| = %.3g < p = %.3g"
                % (worst, float(np.min(np.abs(fv))), params.p))
        self.jet = reciprocal_jet(f_jet)
        step = self.sign * self.delta
        # exact integral of the degree-r Taylor polynomials over their cells
        total = 0.0
        for k, coeffs in enumerate(self.jet):
            total += coeffs.sum() * step ** (k + 1) / math.factorial(k + 1)
        self.exact_part = float(total)


class CellResidualFamily(IndexedFamily):
    """Scaled residuals of 1/f against its per-cell Taylor polynomials.

    Item (i, k), flattened as i*N_c + k, is the residual of cell i at
    midpoint (k + 1/2)/N_c, scaled by delta^(r+rho); each access costs one f
    evaluation.  ``_items`` computes in its workspace's buffers (the
    bisection's): ``"grid"`` (the midpoints, then the Taylor sum and the
    result) and ``"table"`` (each Taylor term, then 1/f).
    """

    def __init__(self, problem: IvpProblem, params: HolderParams,
                 geom: CellGeometry, n_mid: int, bound: float,
                 ledger: CostLedger, workspace: Optional[Workspace] = None):
        self._problem = problem
        self._params = params
        self._geom = geom
        super().__init__(geom.cells, n_mid, 1, bound, ledger,
                         workspace=workspace)

    def _items(self, i: np.ndarray, k: np.ndarray) -> np.ndarray:
        g = self._geom
        off = g.sign * (k + 0.5) / self.n_mid * g.delta
        # in place, in the grid's buffer and one more: fresh pages cost
        # more than the arithmetic on tables this size
        shape = np.broadcast_shapes(np.shape(i), np.shape(off))
        zeta = np.add(g.anchors[i], off, out=self._buffer("grid", shape))
        fz = np.asarray(self._problem.f(zeta.reshape(-1, 1)),
                        dtype=float).reshape(shape)
        if np.may_share_memory(fz, zeta):   # f may hand back its input
            fz = fz.copy()
        # the order-0 term is its coefficient (1/f, never 0): no power,
        # no factorial and no zero start, so no pass for them
        taylor, term = zeta, self._buffer("table", shape)
        taylor[...] = g.jet[0][i]
        for q in range(1, len(g.jet)):
            np.multiply(g.jet[q][i], off ** q, out=term)
            term /= math.factorial(q)
            taylor += term
        out = np.subtract(np.divide(1.0, fz, out=term), taylor, out=taylor)
        out /= g.delta ** self._params.order
        require_finite((fz, out), "f or the residual at the cell midpoints "
                       "not finite for the bisection midpoint y = %.6g", g.y)
        return out[..., None]


def _defect(problem, params, y, eps1, backend, inv, k, rng, ledger,
            workspace):
    """One estimate of the arrival-time defect at y.

    The cell count balances discretization bias against estimator cost; a
    cell gets enough midpoints to keep the quadrature bias in budget.  One
    estimator call gives the median of k runs of the family mean, k from
    ``Backend.run_count`` (1 when exact); the defect is a monotone affine
    map of that mean, so for odd k this is the median of k defect
    estimates.  The runs share the family's item table, built by ``mc_mean``
    once they together read at least as many items as it holds (and by the
    quantum stub, which needs the exact mean): the memoization the cost
    model allows, as every run still charges one f evaluation per index.
    """
    order = params.order
    b_minus_a = problem.b - problem.a
    width = abs(y - float(problem.eta[0]))
    if width == 0.0:
        CellGeometry(problem, params, y, 1, ledger)   # charges the anchor jet
        return -b_minus_a
    exponent = 1.0 / (order + backend.scalar_offset)
    raw = (backend.cell_coeff * inv["M" if backend.boosted else "L"]
           * width ** (order + 1.0) / eps1) ** exponent
    geom = CellGeometry(problem, params, y, max(1, int(math.ceil(raw))), ledger)
    scale = width * geom.delta ** order
    n_mid = max(1, int(math.ceil(scale * inv["L"] / (2.0 * eps1)))) \
        if backend.boosted else 1
    family = CellResidualFamily(problem, params, geom, n_mid, inv["M"], ledger,
                                workspace)
    # looked up by name at call time: see Backend.estimator; the estimator
    # budget is eps1/2 after scaling back by width * delta^(r+rho)
    est = globals()[backend.estimator](family, eps1 / (2.0 * scale), rng, k=k)
    return (geom.exact_part + geom.sign * width * geom.delta ** order
            * float(est.value[0]) - b_minus_a)


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
    backend = get_backend(mode)
    seed = require_nonnegative_int("seed", seed)
    if problem.dim != 1:
        raise ValueError("the endpoint solver handles scalar problems only")
    if params.p is None:
        raise ValueError("params must declare the lower bound p")
    require_delta(delta)
    require_positive("eps", eps)

    ledger = CostLedger()
    rng = RngStream(seed, ledger)
    eta = float(problem.eta[0])
    D0, p = params.D[0], params.p
    b_minus_a = problem.b - problem.a
    eps1 = eps / (3.0 * D0)
    max_iters = int(math.ceil(math.log2(D0 * b_minus_a / (p * eps1))))
    max_iters = max(max_iters, 1)
    k_rep = backend.run_count(max_iters, delta)

    f_eta = float(fetch_jet(problem, problem.eta, 0, ledger)[0][0])
    if abs(f_eta) < p:
        raise ClassViolationError("|f(eta)| = %.3g < p = %.3g" % (abs(f_eta), p))
    increasing = f_eta > 0  # sign of d defect / dy = 1/f
    if increasing:
        lo, hi = eta, eta + D0 * b_minus_a
    else:
        lo, hi = eta - D0 * b_minus_a, eta

    span = D0 * b_minus_a
    inv = inverse_class_params(params, span)
    workspace = Workspace()
    history = []
    for _ in range(max_iters):
        y_mid = 0.5 * (lo + hi)
        A = _defect(problem, params, y_mid, eps1, backend, inv, k_rep, rng,
                    ledger, workspace)
        if abs(A) <= 2.0 * eps1:
            history.append((y_mid, A, "stop"))
            break
        # positive defect means the arrival time is already past b - a
        go_left = (A > 0) == increasing
        if go_left:
            hi = y_mid
        else:
            lo = y_mid
        history.append((y_mid, A, "left" if go_left else "right"))

    return BisectionResult(y_out=y_mid, iters=len(history), ledger=ledger,
                           history=history, breached=history[-1][2] != "stop",
                           eps1=eps1, k_rep=k_rep, max_iters=max_iters,
                           seed=seed)
