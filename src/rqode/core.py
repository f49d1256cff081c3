"""Problem data model: smoothness classes, meshes, and cost accounting.

The solvers operate on autonomous systems ``z'(t) = f(z(t))``, ``z(a) = eta``
whose right-hand side lies in a Holder smoothness class: ``r`` bounded
continuous derivatives, the ``r``-th of which is Holder continuous with
exponent ``rho`` and constant ``H``.  Every complexity statement in this
package is a statement about the :class:`CostLedger`, which counts oracle
subroutine calls (evaluations of ``f`` or its derivative tensors, plus
simulated quantum queries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "HolderParams",
    "IvpProblem",
    "TwoLevelMesh",
    "CostLedger",
    "ValidationReport",
    "build_mesh",
    "validate_holder",
    "residual_bound",
]


@dataclass(frozen=True)
class HolderParams:
    """Smoothness-class parameters (r, rho, D_0..D_r, H [, p]).

    ``D[i]`` bounds every order-``i`` partial of every component of ``f``
    uniformly; ``H`` is the Holder constant of the order-``r`` partials.
    ``p``, when present, is a uniform lower bound on ``|f|`` (used only by
    the scalar endpoint solver).
    """

    r: int
    rho: float
    D: tuple
    H: float
    p: Optional[float] = None
    component_H: Optional[tuple] = None  # per-component Holder constants <= H

    def __post_init__(self):
        if self.r < 0 or self.r != int(self.r):
            raise ValueError("r must be a nonnegative integer")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        if self.r == 0 and self.rho != 1.0:
            raise ValueError("rho must equal 1 when r = 0")
        D = tuple(float(x) for x in self.D)
        if len(D) != self.r + 1:
            raise ValueError("D must list r+1 derivative bounds D_0..D_r")
        if any(x <= 0 for x in D):
            raise ValueError("all derivative bounds D_i must be positive")
        object.__setattr__(self, "D", D)
        if self.H <= 0:
            raise ValueError("H must be positive")
        if self.p is not None:
            if self.p <= 0:
                raise ValueError("p must be positive when given")
            if self.p > D[0]:
                raise ValueError("p must not exceed D_0")
        if self.component_H is not None:
            cH = tuple(float(x) for x in self.component_H)
            if any(x < 0 or x > self.H for x in cH):
                raise ValueError("component_H entries must lie in [0, H]")
            object.__setattr__(self, "component_H", cH)

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant for f: D_1 if r >= 1, else H (rho = 1)."""
        return self.D[1] if self.r >= 1 else self.H

    @property
    def order(self) -> float:
        """The smoothness exponent r + rho driving every rate."""
        return self.r + self.rho


class CostLedger:
    """Counts of oracle subroutine calls; the unit of every cost claim.

    ``total`` = f_evals + deriv_evals + quantum_queries.  ``rng_draws`` and
    ``sim_evals`` are audit counters outside the total: draws track
    reproducibility, sim_evals track classical work done *inside* the
    quantum-cost-model stub (which charges queries, not evaluations).
    """

    __slots__ = ("f_evals", "deriv_evals", "quantum_queries", "rng_draws", "sim_evals")

    def __init__(self):
        self.f_evals = 0
        self.deriv_evals = 0
        self.quantum_queries = 0
        self.rng_draws = 0
        self.sim_evals = 0

    @property
    def total(self) -> int:
        return self.f_evals + self.deriv_evals + self.quantum_queries

    def snapshot(self) -> tuple:
        return (self.f_evals, self.deriv_evals, self.quantum_queries,
                self.rng_draws, self.sim_evals)

    def delta_since(self, snap: tuple) -> dict:
        now = self.snapshot()
        keys = ("f_evals", "deriv_evals", "quantum_queries", "rng_draws", "sim_evals")
        return {k: now[i] - snap[i] for i, k in enumerate(keys)}

    def merge(self, other: "CostLedger") -> "CostLedger":
        self.f_evals += other.f_evals
        self.deriv_evals += other.deriv_evals
        self.quantum_queries += other.quantum_queries
        self.rng_draws += other.rng_draws
        self.sim_evals += other.sim_evals
        return self

    def as_dict(self) -> dict:
        return {
            "f_evals": self.f_evals,
            "deriv_evals": self.deriv_evals,
            "quantum_queries": self.quantum_queries,
            "rng_draws": self.rng_draws,
            "sim_evals": self.sim_evals,
            "total": self.total,
        }

    def __repr__(self):
        return "CostLedger(%s)" % ", ".join("%s=%d" % kv for kv in self.as_dict().items())


class IvpProblem:
    """An initial-value problem with evaluation and derivative oracles.

    ``f`` maps arrays of shape ``(d,)`` or ``(batch, d)`` to the same shape.
    ``derivs(k, y)`` returns the full order-``k`` derivative tensor of f at a
    single point ``y``: shape ``(d,)`` for k=0, ``(d, d)`` for the Jacobian,
    ``(d, d, d)`` for the stacked Hessians, and so on.  Oracles must be pure
    functions of their arguments.
    """

    def __init__(self, dim: int, f: Callable, derivs: Callable,
                 eta, interval: tuple, name: str = ""):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        a, b = float(interval[0]), float(interval[1])
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        self.dim = int(dim)
        self.f = f
        self.derivs = derivs
        self.eta = np.asarray(eta, dtype=float).reshape(self.dim)
        self.interval = (a, b)
        self.name = name
        self._check_construction()

    def _check_construction(self):
        f_eta = np.asarray(self.f(self.eta), dtype=float)
        if f_eta.shape != (self.dim,):
            raise ValueError("f must map (d,) arrays to (d,) arrays")
        if np.all(f_eta == 0.0):
            raise ValueError("f(eta) must be nonzero")
        # derivs(0, .) must agree with f at sampled points
        for probe in (self.eta, self.eta + 0.03125, self.eta - 0.0625):
            d0 = np.asarray(self.derivs(0, probe), dtype=float)
            fv = np.asarray(self.f(probe), dtype=float)
            if not np.allclose(d0, fv, rtol=1e-12, atol=1e-12):
                raise ValueError("derivs(0, y) disagrees with f(y) at y=%r" % (probe,))

    @property
    def a(self) -> float:
        return self.interval[0]

    @property
    def b(self) -> float:
        return self.interval[1]


@dataclass(frozen=True)
class TwoLevelMesh:
    """Uniform coarse partition refined by m equal fine steps per interval.

    Coarse points ``x_i = a + i*h``; fine points ``z_j^i = x_i + j*hbar``
    for j < m.  The closing point ``z_m^i`` is ``x_{i+1}`` itself, never an
    accumulated ``x_i + m*hbar``.
    """

    a: float
    b: float
    n: int
    m: int
    h: float
    hbar: float
    x: np.ndarray = field(repr=False, compare=False)

    def fine_offsets(self) -> np.ndarray:
        """Offsets j*hbar for j = 0..m-1 (piece base points within a coarse cell)."""
        return np.arange(self.m) * self.hbar

    def all_fine_points(self) -> np.ndarray:
        """Every z_j^i for j = 0..m-1 plus the final endpoint b."""
        pts = (self.x[:-1, None] + self.fine_offsets()[None, :]).ravel()
        return np.append(pts, self.b)


def build_mesh(a: float, b: float, n: int, m: int) -> TwoLevelMesh:
    """Construct the two-level mesh over [a, b] with n coarse, m fine cells."""
    if n < 1 or m < 1 or n != int(n) or m != int(m):
        raise ValueError("n and m must be positive integers")
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError("mesh requires a < b")
    n, m = int(n), int(m)
    h = (b - a) / n
    x = np.linspace(a, b, n + 1)
    return TwoLevelMesh(a=a, b=b, n=n, m=m, h=h, hbar=h / m, x=x)


@dataclass
class ValidationReport:
    """Outcome of a sample-based smoothness-class check.

    This is a necessary check only: bounds are verified on the supplied grid,
    not on all of R^d.
    """

    passed: bool
    violations: list
    grid_size: int
    tol: float

    def __bool__(self):
        return self.passed


def validate_holder(problem: IvpProblem, params: HolderParams,
                    grid: Sequence, tol: float = 0.0) -> ValidationReport:
    """Check the derivative bounds and the Holder condition on a point grid.

    Records a violation whenever a sampled order-``i`` partial exceeds
    ``D_i + tol``, or a grid pair violates the order-``r`` Holder bound by
    more than ``tol``.  Oracle failures propagate with the point identified.
    """
    pts = [np.asarray(g, dtype=float).reshape(problem.dim) for g in grid]
    if not pts:
        raise ValueError("grid must be non-empty")
    violations = []

    tensors = []
    for y in pts:
        row = []
        for k in range(params.r + 1):
            try:
                row.append(np.asarray(problem.derivs(k, y), dtype=float))
            except Exception as exc:
                raise RuntimeError(
                    "derivative oracle failed at order %d, point %r" % (k, y.tolist())
                ) from exc
        tensors.append(row)

    for y, row in zip(pts, tensors):
        for k, tens in enumerate(row):
            worst = float(np.max(np.abs(tens)))
            if worst > params.D[k] + tol:
                violations.append({
                    "kind": "derivative_bound", "order": k,
                    "point": y.tolist(), "value": worst, "bound": params.D[k],
                })

    # Holder condition on the top-order tensors, all grid pairs
    top = np.stack([row[params.r].reshape(-1) for row in tensors])
    P = np.stack(pts)
    for i in range(len(pts)):
        diff_t = np.max(np.abs(top[i + 1:] - top[i]), axis=1)
        dist = np.max(np.abs(P[i + 1:] - P[i]), axis=1)
        bound = params.H * dist ** params.rho
        bad = np.nonzero(diff_t > bound + tol)[0]
        for j in bad:
            violations.append({
                "kind": "holder", "order": params.r,
                "point": pts[i].tolist(), "point2": pts[i + 1 + j].tolist(),
                "value": float(diff_t[j]), "bound": float(bound[j]),
            })

    return ValidationReport(passed=not violations, violations=violations,
                            grid_size=len(pts), tol=tol)


def residual_bound(params: HolderParams, dim: int = 1) -> float:
    """A priori sup-norm bound on the scaled Taylor residuals.

    Bounds ``|f(y) - T_r f(y)| / ||y - c||^(r+rho)`` along a flow step, where
    ``T_r f`` is the degree-r Taylor polynomial of f about c and the step
    moves at most ``kappa * D_0 * hbar`` from c (kappa = 1 for r = 0, where
    the local polynomial is an exact Euler segment; 2 otherwise, valid for
    step sizes small against 1/(d*D_1)).
    """
    r, rho = params.r, params.rho
    kappa = 1.0 if r == 0 else 2.0
    coeff = params.H * math.gamma(rho + 1.0) / math.gamma(r + rho + 1.0)
    return coeff * (kappa * params.D[0]) ** (r + rho) * dim ** r


def residual_bound_vector(params: HolderParams, dim: int = 1) -> np.ndarray:
    """Per-component residual bounds (see :func:`residual_bound`).

    Components with a declared Holder constant of zero (e.g. the constant
    clock equation added when embedding a nonautonomous system) get a zero
    bound, which the quantum-cost-model oracle's clamp turns into exactness.
    """
    base = residual_bound(params, dim)
    if params.component_H is None:
        return np.full(dim, base)
    if len(params.component_H) != dim:
        raise ValueError("component_H must list one constant per component")
    return base * np.asarray(params.component_H) / params.H
