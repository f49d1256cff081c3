"""Local Taylor machinery: jet fetches, the fine chain, exact integrals.

Each fine step advances along the degree-(r+1) Taylor polynomial of the local
flow.  The right-hand side is expanded to degree r about the step's start
state (its "field expansion"); composing that expansion with the flow
polynomial gives a plain univariate polynomial whose integral is computed
exactly, with no quadrature error and no oracle calls.  What remains is the
scaled residual, the only object the stochastic estimators ever touch.

Pieces are stored as arrays, never as objects: ``coeffs[j, q]`` is the
degree-q flow coefficient of piece j, and ``jets[k][j]`` is the order-k
derivative tensor of f at the piece's start state.  ``fine_chain`` makes a
coarse step's rows in one pass, the recurrence ``flow_coeffs_from_jet``
returning each piece's coefficients as a list, and charges the step once.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .core import CostLedger, IvpProblem

__all__ = [
    "PiecewiseTaylorApprox",
    "fetch_jet",
    "fine_chain",
    "flow_coeffs_from_jet",
    "horner",
    "integrate_field_along",
]


def fetch_jet(problem: IvpProblem, y: np.ndarray, r: int,
              ledger: Optional[CostLedger] = None) -> List[np.ndarray]:
    """Derivative tensors of f, orders 0..r, at a ``(d,)`` point or a
    ``(B, d)`` batch: one ``derivs(r, y)`` call, charged one evaluation per
    order per point."""
    y = np.asarray(y, dtype=float)
    jet = problem.derivs(r, y)
    if ledger is not None:
        points = 1 if y.ndim == 1 else y.shape[0]
        ledger.f_evals += points
        ledger.deriv_evals += r * points
    return jet


def flow_coeffs_from_jet(y: np.ndarray, jet: List[np.ndarray],
                         order: int) -> List[np.ndarray]:
    """Taylor coefficients c_k = z^(k)(t0)/k! of z' = f(z), z(t0) = y.

    Uses the chain-rule recurrence on the derivative tensors; supported up to
    order 3 (cubic flow polynomials, i.e. r <= 2), which is all the solvers
    need for exponent verification.  Returns the order + 1 ``(d,)``
    coefficients as a list, c_0 = y and c_1 = ``jet[0]`` as given.
    """
    if order > len(jet):
        raise ValueError("order %d exceeds available derivative tensors" % order)
    if order > 3:
        raise ValueError("the flow recurrence supports order <= 3 "
                         "(smoothness r <= 2), got order %d" % order)
    c = [y]
    if order >= 1:
        y1 = jet[0]
        c.append(y1)
    if order >= 2:
        y2 = jet[1] @ y1
        c.append(y2 / 2.0)
    if order >= 3:
        y3 = np.einsum("ijk,j,k->i", jet[2], y1, y1) + jet[1] @ y2
        c.append(y3 / 6.0)
    return c


def fine_chain(problem: IvpProblem, y: np.ndarray, steps: np.ndarray, r: int,
               ledger: CostLedger) -> tuple:
    """Flow coefficients (m, r+2, d) and per-order jet stacks of the m pieces
    chained from y: piece j makes one ``derivs(r, .)`` call and runs for
    ``steps[j]``.  Charged once, as ``fetch_jet`` charges m points."""
    rows, jets = [], []
    for tau in steps.tolist():
        jets.append(problem.derivs(r, y))
        c = flow_coeffs_from_jet(y, jets[-1], r + 1)
        rows.append(c)
        y = np.asarray(c[-1], dtype=float)      # float64 whatever f returns
        for q in range(r, -1, -1):
            y = y * tau + c[q]
    ledger.f_evals += len(rows)
    ledger.deriv_evals += r * len(rows)
    return (np.array(rows, dtype=float),
            [np.array(t, dtype=float) for t in zip(*jets)][:r + 1])


def horner(C: np.ndarray, tau: np.ndarray,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Values sum_q C[..., q, :] tau^q of (deg+1, d) polynomials ``C[...]``
    at points ``tau`` whose shape broadcasts with ``C.shape[:-2]``, written
    into ``out`` when given."""
    if out is None:
        out = np.empty(np.broadcast_shapes(C.shape[:-2], np.shape(tau))
                       + C.shape[-1:])
    out[...] = C[..., -1, :]
    for q in range(C.shape[-2] - 2, -1, -1):
        out *= tau[..., None]
        out += C[..., q, :]
    return out


def integrate_field_along(jets: List[np.ndarray], coeffs: np.ndarray,
                          steps: np.ndarray) -> np.ndarray:
    """Exact integrals of m field expansions along their flow pieces.

    Piece j is l_j(tau) = sum_q coeffs[j, q] tau^q, and its field expansion
    is the degree-r Taylor polynomial of f about l_j(0) with tensors
    ``jets[k][j]`` of shape (d, d, ..., d) (k trailing axes).  Returns the
    (m, d) integrals of the expansion composed with l_j over tau in
    [0, steps[j]].  Pure coefficient arithmetic: degree <= r * (r+1), no
    oracle calls, no quadrature error.
    """
    m, width, d = coeffs.shape
    r = len(jets) - 1
    if r > 2:
        raise NotImplementedError("field expansions are supported for degree r <= 2")
    P = coeffs.copy()                   # displacement l_j(tau) - l_j(0)
    P[:, 0] = 0.0
    comp = np.zeros((m, r * (width - 1) + 1, d))
    comp[:, 0] += jets[0]
    power = P
    for k in range(1, r + 1):
        if k == 2:                      # outer square of the displacement
            power = np.zeros((m, 2 * width - 1, d, d))
            for i in range(width):
                power[:, i:i + width] += P[:, i, None, :, None] * P[:, :, None, :]
        # contract T_k (d, d^k) against the k trailing axes of power
        term = (power.reshape(m, power.shape[1], -1)
                @ jets[k].reshape(m, d, -1).transpose(0, 2, 1)) / math.factorial(k)
        comp[:, :term.shape[1]] += term
    powers = np.arange(1, comp.shape[1] + 1, dtype=float)
    weights = np.asarray(steps, dtype=float)[:, None] ** powers / powers
    return (weights[:, None, :] @ comp)[:, 0]


class PiecewiseTaylorApprox:
    """The global approximation: n*m flow pieces tiling [a, b].

    ``coeffs`` has shape (n*m, r+2, d) and ``basepoints`` shape (n*m,), the
    increasing piece starts; piece p is sum_q coeffs[p, q]
    (t - basepoints[p])^q.  t is evaluated on the piece with the last start
    <= t, so a coarse point x_i returns the value of the piece starting
    there (the corrected state y_i), and b the final piece's value.
    """

    def __init__(self, mesh, coeffs: np.ndarray, basepoints: np.ndarray):
        if coeffs.shape[0] != mesh.n * mesh.m or basepoints.shape != (coeffs.shape[0],):
            raise ValueError("expected %d pieces, got %d coefficient rows and "
                             "%d basepoints" % (mesh.n * mesh.m, coeffs.shape[0],
                                                basepoints.size))
        if basepoints[0] != mesh.a or np.any(np.diff(basepoints) <= 0):
            raise ValueError("basepoints must increase from a = %g" % mesh.a)
        self.mesh = mesh
        self.coeffs = coeffs
        self.basepoints = basepoints

    def eval(self, t):
        """Value of the covering piece at scalar or array t in [a, b]."""
        a, b = self.mesh.a, self.mesh.b
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((a <= t_arr) & (t_arr <= b)):
            raise ValueError("t outside the domain [%g, %g]" % (a, b))
        p = np.searchsorted(self.basepoints, t_arr, side="right") - 1
        out = horner(self.coeffs[p], t_arr - self.basepoints[p])
        return out if np.ndim(t) else out[0]
