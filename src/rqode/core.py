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
import numbers
import operator
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
    "ClassViolationError",
    "require_finite",
    "require_finite_input",
    "is_whole",
    "require_whole",
    "require_count",
    "require_nonnegative_int",
    "require_delta",
    "require_positive",
    "require_nonnegative",
]


class ClassViolationError(RuntimeError):
    """Raised when oracle values leave the declared class: values that are
    not finite, or |f| below the declared lower bound p."""


def require_finite(arrays, message: str, *args) -> None:
    """Raise ``ClassViolationError`` with ``message % args`` unless every
    value is finite; one check per array, the message built only on failure."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ClassViolationError(message % args)


def require_finite_input(name: str, *values) -> None:
    """Raise ``ValueError`` naming the input ``name`` unless every value is
    finite."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError("%s must be finite" % name)


def is_whole(value) -> bool:
    """Whether ``value`` is a whole number: an integer, or an integral real
    such as 31.0 (not NaN, an infinity or 2.5)."""
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())


def require_whole(name: str, value) -> int:
    """``value`` as an int; raise ``ValueError`` naming the input ``name``
    unless it is whole, rather than truncate it."""
    if not is_whole(value):
        raise ValueError("%s must be a whole number, got %r" % (name, value))
    return int(value)


def require_count(name: str, value) -> int:
    """As :func:`require_whole`, and the count must be at least 1."""
    count = require_whole(name, value)
    if count < 1:
        raise ValueError("%s must be a positive integer, got %r"
                         % (name, value))
    return count


def require_nonnegative_int(name: str, value) -> int:
    """As :func:`require_whole`, and >= 0: one test, one message."""
    if not (is_whole(value) and value >= 0):
        raise ValueError("%s must be a non-negative integer, got %r"
                         % (name, value))
    return int(value)


def require_delta(delta) -> None:
    """Raise ``ValueError`` unless the confidence delta lies in (0, 1/2)."""
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")


def require_positive(name: str, value) -> float:
    """Finite, positive ``value`` as a float; else ``ValueError`` naming it."""
    require_finite_input(name, value)
    if value <= 0:
        raise ValueError("%s must be positive" % name)
    return float(value)


def require_nonnegative(name: str, value) -> float:
    """As :func:`require_positive`, but 0 passes."""
    require_finite_input(name, value)
    if value < 0:
        raise ValueError("%s must be non-negative" % name)
    return float(value)


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
        if self.r not in (0, 1, 2):
            raise ValueError("r must be 0, 1 or 2 (supported orders r <= 2)")
        object.__setattr__(self, "r", int(self.r))
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        if self.r == 0 and self.rho != 1.0:
            raise ValueError("rho must equal 1 when r = 0")
        D = tuple(float(x) for x in self.D)
        if len(D) != self.r + 1:
            raise ValueError("D must list r+1 derivative bounds D_0..D_r")
        for x in D:
            require_positive("D", x)
        object.__setattr__(self, "D", D)
        require_positive("H", self.H)
        if self.p is not None:
            require_positive("p", self.p)
            if self.p > D[0]:
                raise ValueError("p must not exceed D_0")
        if self.component_H is not None:
            cH = tuple(float(x) for x in self.component_H)
            require_finite_input("component_H", *cH)
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

    COUNTERS = ("f_evals", "deriv_evals", "quantum_queries", "rng_draws",
                "sim_evals")
    __slots__ = COUNTERS
    _read = operator.attrgetter(*COUNTERS)

    def __init__(self):
        for name in self.COUNTERS:
            setattr(self, name, 0)

    @property
    def total(self) -> int:
        return self.f_evals + self.deriv_evals + self.quantum_queries

    def snapshot(self) -> tuple:
        return self._read(self)

    def delta_since(self, snap: tuple) -> dict:
        return {name: now - then for name, now, then
                in zip(self.COUNTERS, self.snapshot(), snap)}

    def merge(self, other: "CostLedger") -> "CostLedger":
        for name, value in zip(self.COUNTERS, other.snapshot()):
            setattr(self, name, getattr(self, name) + value)
        return self

    def as_dict(self) -> dict:
        return dict(zip(self.COUNTERS, self.snapshot()), total=self.total)

    def __repr__(self):
        return "CostLedger(%s)" % ", ".join("%s=%d" % kv for kv in self.as_dict().items())


class IvpProblem:
    """An initial-value problem given by one exact jet oracle.

    ``derivs(k, y)`` returns the list of the derivative tensors of f of
    orders 0..k, as float arrays, at a point ``y`` of shape ``(d,)`` or at a
    batch of shape ``(B, d)``: order q has shape ``lead + (d,) * (q + 1)``
    with ``lead`` empty or ``(B,)``, and row b of a batch is the
    single-point value at ``Y[b]``.  ``f(y)`` is order 0 of ``derivs(0, y)``,
    bound to the ``derivs`` given here.  Oracles must be pure functions of
    their arguments.
    """

    def __init__(self, dim: int, derivs: Callable, eta, interval: tuple,
                 name: str = ""):
        self.dim = require_count("dim", dim)
        a, b = float(interval[0]), float(interval[1])
        require_finite_input("interval", a, b)
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        self.f = lambda y: derivs(0, y)[0]
        self.derivs = derivs
        eta = np.asarray(eta, dtype=float)
        if eta.size != self.dim:
            raise ValueError("problem %r: eta has %d entries but dim is %d"
                             % (name, eta.size, self.dim))
        self.eta = eta.reshape(self.dim)
        require_finite_input("eta", *self.eta)
        self.interval = (a, b)
        self.name = name
        self._check_construction()

    def _check_construction(self):
        jet = self.derivs(0, self.eta)
        if not isinstance(jet, list) or len(jet) != 1:
            raise ValueError("problem %r: derivs(k, y) must return the list of "
                             "orders 0..k, [f(y)] for k = 0; derivs(0, eta) "
                             "returned %s" % (self.name, type(jet).__name__))
        f_eta = np.asarray(jet[0], dtype=float)
        if f_eta.shape != (self.dim,):
            raise ValueError("f must map (d,) arrays to (d,) arrays")
        if np.all(f_eta == 0.0):
            raise ValueError("f(eta) must be nonzero")
        shape = np.shape(self.f(np.stack([self.eta, self.eta])))
        if shape != (2, self.dim):
            raise ValueError("problem %r: f maps a (2, %d) batch to shape %s"
                             % (self.name, self.dim, shape))

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

    def pieces(self) -> tuple:
        """Starts z_j^i and step lengths of the fine pieces, each (n, m).

        Piece j of coarse cell i starts at x_i + j*hbar; the last piece of a
        cell ends on x_{i+1} itself, so its step absorbs the rounding.
        """
        starts = self.x[:-1, None] + (np.arange(self.m) * self.hbar)[None, :]
        ends = np.concatenate([starts[:, 1:], self.x[1:, None]], axis=1)
        return starts, ends - starts


def build_mesh(a: float, b: float, n: int, m: int) -> TwoLevelMesh:
    """Construct the two-level mesh over [a, b] with n coarse, m fine cells."""
    n, m = require_count("n", n), require_count("m", m)
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError("mesh requires a < b")
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
    more than ``tol``, which must be finite and >= 0.  Grid points must be
    finite.  Oracle failures propagate, and oracle values that are not
    finite raise ``ClassViolationError``, with the point identified.
    """
    require_nonnegative("tol", tol)
    pts = [np.asarray(g, dtype=float).reshape(problem.dim) for g in grid]
    if not pts:
        raise ValueError("grid must be non-empty")
    require_finite_input("grid", *np.concatenate(pts))
    violations = []

    tensors = []
    for y in pts:
        try:
            row = problem.derivs(params.r, y)
        except Exception as exc:
            raise RuntimeError("derivative oracle failed up to order %d at "
                               "point %r" % (params.r, y.tolist())) from exc
        require_finite(row, "derivative oracle not finite up to order %d at "
                       "point %r", params.r, y.tolist())
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
