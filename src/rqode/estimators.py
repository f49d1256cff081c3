"""Interchangeable mean-computation backends and the median booster.

Three backends estimate the mean of an indexed family of bounded vectors:

* ``full_mean``       -- exact enumeration, cost = family size;
* ``mc_mean``         -- uniform with-replacement sampling, cost
  ``min(s, ceil((c_mc * M / eps1)^2))``, within ``eps1`` w.p. >= 3/4
  (Chebyshev on the calibrated sample size);
* ``quantum_sim_mean`` -- a cost-accounted stub of the quantum mean
  primitive: charges ``min(s, ceil(c_q * M / eps1))`` queries and returns
  the true mean plus modeled noise, within ``eps1`` w.p. >= 3/4.

``median_boost`` raises any 3/4-success estimator to success probability
``(1 - delta)^(1/n)`` by taking the component-wise median of
``median_rep_count(n, delta)`` independent runs; the count comes from an
exact binomial-tail computation, not an asymptotic formula.

Charges are per index requested, whether an item is computed or read back
from the family's item table: ``mc_mean`` tabulates the whole family once
when a single run reads at least as many items as the family holds, so the
boosted runs that follow share it, but the ledger still pays for every draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .core import CostLedger
from .rng import RngStream

__all__ = [
    "IndexedFamily",
    "ArrayFamily",
    "MeanEstimate",
    "full_mean",
    "mc_mean",
    "quantum_sim_mean",
    "median_boost",
    "median_rep_count",
    "binomial_fail_tail",
    "inner_rep_count",
    "MC_CALIBRATION",
    "QUANTUM_COST_CONSTANT",
]

# Calibration knobs.  MC_CALIBRATION = c in sigma = ceil((c*M/eps1)^2); the
# default 2 makes the per-component standard error at most eps1/2, so
# deviations beyond eps1 have probability <= 1/4.  QUANTUM_COST_CONSTANT is
# c_q in the query-cost law; exponent checks are invariant to it.
MC_CALIBRATION = 2.0
QUANTUM_COST_CONSTANT = 1.0


class IndexedFamily:
    """An indexed family of bounded d-vectors behind a charging oracle.

    Subclasses implement ``_compute(idx)``; ``access`` charges one f
    evaluation per index requested.  ``bound`` is a uniform sup-norm bound
    on the items, used by the sampled backends for calibration.

    ``tabulate`` fills an item table once, free of charge; ``access`` then
    reads items from it instead of computing them, and still charges per
    index.  The table holds exactly what ``_compute`` returns, so reading it
    changes no value.
    """

    def __init__(self, size: int, dim: int, bound: float,
                 ledger: Optional[CostLedger] = None,
                 bound_vec: Optional[np.ndarray] = None):
        if size < 1:
            raise ValueError("family must contain at least one item")
        self.size = int(size)
        self.dim = int(dim)
        self.bound = float(bound)
        self.bound_vec = np.full(self.dim, self.bound) if bound_vec is None \
            else np.asarray(bound_vec, dtype=float)
        self.ledger = ledger if ledger is not None else CostLedger()
        self._table = None
        self._peeked = False

    def _compute(self, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tabulate(self, block: int) -> np.ndarray:
        """All items, computed once in index blocks of at most ``block``.

        Charges nothing; later calls return the same table.
        """
        if self._table is None:
            table = np.empty((self.size, self.dim))
            for start in range(0, self.size, block):
                stop = min(start + block, self.size)
                table[start:stop] = self._compute(np.arange(start, stop))
            self._table = table
        return self._table

    def access(self, idx) -> np.ndarray:
        """Items at the given indices, charged to the ledger."""
        idx = np.atleast_1d(np.asarray(idx, dtype=int))
        out = self._compute(idx) if self._table is None else self._table[idx]
        self.ledger.f_evals += idx.size
        return out

    def peek_all(self) -> np.ndarray:
        """All items without ledger charges (simulation overhead only).

        Used by the quantum-cost-model stub, which must know the true mean
        it perturbs; the classical work is recorded as ``sim_evals``, once
        per family, even when the table was already built for sampling.
        """
        items = self.tabulate(self.size)
        if not self._peeked:
            self._peeked = True
            self.ledger.sim_evals += self.size
        return items


class ArrayFamily(IndexedFamily):
    """A family backed by an explicit (size, dim) array (tests, fixtures)."""

    def __init__(self, values, bound=None, ledger=None):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        self._values = values
        b = float(np.max(np.abs(values))) if bound is None else float(bound)
        super().__init__(values.shape[0], values.shape[1], b, ledger)

    def _compute(self, idx):
        return self._values[idx]


@dataclass
class MeanEstimate:
    """An estimated mean plus its cost receipt and nominal contract."""

    value: np.ndarray
    cost: dict
    eps_target: float
    success_prob: float


def _receipt(ledger: CostLedger, snap) -> dict:
    return ledger.delta_since(snap)


def full_mean(family: IndexedFamily) -> MeanEstimate:
    """Exact arithmetic mean of the whole family; cost = size accesses."""
    snap = family.ledger.snapshot()
    items = family.access(np.arange(family.size))
    value = items.mean(axis=0)
    return MeanEstimate(value=value, cost=_receipt(family.ledger, snap),
                        eps_target=0.0, success_prob=1.0)


def _sample_size(family: IndexedFamily, eps1: float, calibration: float) -> int:
    if family.bound == 0.0:
        return 0
    return min(family.size, int(math.ceil((calibration * family.bound / eps1) ** 2)))


def mc_mean(family: IndexedFamily, eps1: float, rng: RngStream,
            calibration: float = None) -> MeanEstimate:
    """Monte Carlo mean: with-replacement sample of calibrated size.

    The sample size ``min(s, ceil((c*M/eps1)^2))`` keeps the per-component
    standard error at most ``eps1/c``, hence (Chebyshev, c = 2) deviations
    beyond ``eps1`` have probability at most 1/4.  When the formula clamps
    at the family size the sample is replaced by full enumeration and the
    estimate is exact.

    When one run reads at least as many items as the family holds
    (``reps * sigma >= s``, enumeration included), the family is tabulated
    first, in blocks of at most sigma items, and the draws read the table;
    the median repetitions of ``median_boost`` then share it.  The charge is
    unchanged: every drawn index costs one f evaluation.
    """
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    c = MC_CALIBRATION if calibration is None else float(calibration)
    snap = family.ledger.snapshot()
    sigma = _sample_size(family, eps1, c)
    reps = inner_rep_count(family.dim)
    if reps * sigma >= family.size:
        family.tabulate(sigma)
    if family.bound == 0.0:
        value = np.zeros(family.dim)
    elif sigma >= family.size:
        value = family.access(np.arange(family.size)).mean(axis=0)
    else:
        draws = np.empty((reps, family.dim))
        for t in range(reps):
            idx = rng.integers(0, family.size, size=sigma)
            draws[t] = family.access(idx).mean(axis=0)
        value = draws[0] if reps == 1 else np.median(draws, axis=0)
    return MeanEstimate(value=value, cost=_receipt(family.ledger, snap),
                        eps_target=float(eps1), success_prob=0.75)


def quantum_sim_mean(family: IndexedFamily, eps1: float, rng: RngStream,
                     cost_constant: float = None) -> MeanEstimate:
    """Quantum mean primitive as a cost model, not a circuit simulation.

    Charges ``min(s, ceil(c_q*M/eps1))`` quantum queries.  If the charge
    clamps at the family size the mean is returned exactly (s classical
    accesses always suffice); otherwise the returned value is the true mean
    plus per-component noise: uniform in [-eps1, eps1] with probability 3/4,
    uniform in [-2M, 2M] otherwise, the output clamped into [-2M, 2M].
    Clamping projects toward the box containing the true mean, so it never
    hurts the contract.
    """
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    c_q = QUANTUM_COST_CONSTANT if cost_constant is None else float(cost_constant)
    snap = family.ledger.snapshot()
    M = family.bound
    q = family.size if M == 0.0 else min(
        family.size, int(math.ceil(c_q * M / eps1)))
    if q >= family.size:
        items = family.peek_all()
        family.ledger.quantum_queries += family.size
        value = items.mean(axis=0)
        return MeanEstimate(value=value, cost=_receipt(family.ledger, snap),
                            eps_target=float(eps1), success_prob=1.0)

    truth = family.peek_all().mean(axis=0)
    family.ledger.quantum_queries += q
    M_c = family.bound_vec
    reps = inner_rep_count(family.dim)
    draws = np.empty((reps, family.dim))
    for t in range(reps):
        fail = rng.uniform(size=family.dim) < 0.25
        noise = np.where(
            fail,
            rng.uniform(-1.0, 1.0, size=family.dim) * 2.0 * M_c,
            rng.uniform(-eps1, eps1, size=family.dim),
        )
        draws[t] = np.clip(truth + noise, -2.0 * M_c, 2.0 * M_c)
    value = draws[0] if reps == 1 else np.median(draws, axis=0)
    return MeanEstimate(value=value, cost=_receipt(family.ledger, snap),
                        eps_target=float(eps1), success_prob=0.75)


def median_boost(base: Callable[..., MeanEstimate], family: IndexedFamily,
                 eps1: float, k: int, rng: RngStream) -> MeanEstimate:
    """Component-wise median of k independent runs of ``base``.

    k must be odd.  Cost is the sum of the k receipts.  With k from
    ``median_rep_count(n, delta)`` the nominal success probability is
    ``(1 - delta)^(1/n)``.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd positive integer")
    snap = family.ledger.snapshot()
    if k == 1:
        est = base(family, eps1, rng)
        return MeanEstimate(value=est.value, cost=_receipt(family.ledger, snap),
                            eps_target=float(eps1), success_prob=est.success_prob)
    streams = rng.spawn(k)
    values = np.stack([base(family, eps1, s).value for s in streams])
    value = np.median(values, axis=0)
    success = 1.0 - float(binomial_fail_tail(k))
    return MeanEstimate(value=value, cost=_receipt(family.ledger, snap),
                        eps_target=float(eps1), success_prob=success)


@functools.lru_cache(maxsize=None)
def binomial_fail_tail(k: int, fail_prob: Fraction = Fraction(1, 4)) -> Fraction:
    """P(Bin(k, fail_prob) >= ceil(k/2)), exactly."""
    t = math.ceil(k / 2)
    num = fail_prob.numerator
    den = fail_prob.denominator
    total = Fraction(0)
    for j in range(t, k + 1):
        total += Fraction(math.comb(k, j) * num ** j * (den - num) ** (k - j),
                          den ** k)
    return total


def median_rep_count(n: int, delta: float, max_k: int = 2001) -> int:
    """Smallest odd k whose exact binomial failure tail meets the target.

    The target is ``1 - (1 - delta)^(1/n)``: k median repetitions of a
    3/4-success base then make all n boosted estimates succeed jointly with
    probability at least ``1 - delta``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    target = 1.0 - (1.0 - delta) ** (1.0 / n)
    k = 1
    while k <= max_k:
        if binomial_fail_tail(k) <= target:
            return k
        k += 2
    raise RuntimeError("no odd k <= %d meets the failure target %g" % (max_k, target))


@functools.lru_cache(maxsize=None)
def inner_rep_count(dim: int) -> int:
    """Per-component repetitions keeping the vector-norm success at 3/4.

    For d > 1 each component's failure probability is pushed below 1/(4d)
    by an inner median, so a union bound over components leaves the
    max-norm event with probability at least 3/4.  d = 1 needs none.
    """
    if dim <= 1:
        return 1
    target = Fraction(1, 4 * dim)
    k = 1
    while binomial_fail_tail(k) > target:
        k += 2
    return k
