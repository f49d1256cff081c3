"""Interchangeable mean-computation backends and the median booster.

Three backends estimate the mean of an indexed family of bounded vectors:

* ``full_mean``       -- exact enumeration, cost = family size;
* ``mc_mean``         -- uniform with-replacement sampling, cost
  ``min(s, ceil((c_mc * M / eps1)^2))``, within ``eps1`` w.p. >= 3/4
  (Chebyshev on the calibrated sample size);
* ``quantum_sim_mean`` -- a cost-accounted stub of the quantum mean
  primitive: charges ``min(s, ceil(c_q * M / eps1))`` queries and returns
  the true mean plus modeled noise, within ``eps1`` w.p. >= 3/4.

A 3/4-success estimate is raised to success probability
``(1 - delta)^(1/n)`` by the component-wise median of
``median_rep_count(n, delta)`` independent runs; the count comes from an
exact binomial-tail computation, not an asymptotic formula.  Every backend
takes that run count k itself and returns the median of its k runs (k exact
runs are one enumeration); sampled runs draw in turn from one stream in a
few large blocks, so no child stream is built.  The IVP solvers boost every
step's residual mean this way, and the endpoint bisection every midpoint's
defect estimate.  ``median_boost`` applies the same median rule to any
``(family, eps1, rng)`` base, one call per run.

Charges are per index requested, whether an item is computed or read back
from the family's item table: ``mc_mean`` tabulates the whole family once
when its k runs draw at least as many items in total as the family holds,
so the runs share one table, but the ledger still pays for every draw.

A family's items have one layout, ``(..., d)`` rows, and one reader,
``IndexedFamily.access``, which charges them.  Every mean of a family,
sampled or exact, is one ``_row_means`` reduction of items read there, in
the order numpy's ``items.mean(axis=0)`` takes (pairwise for d = 1, row
after row for d >= 2), so a table changes wall time only, never a value or
a charge.

``BACKENDS`` holds one :class:`Backend` record per oracle-cost model, keyed
by mode name (``MODES``): everything the solvers, the endpoint bisection and
the ladders do differently per model.  A new cost model is one entry and
its mean function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .core import (CostLedger, require_count, require_delta,
                   require_positive, require_whole)
from .rng import RngStream

__all__ = [
    "IndexedFamily",
    "ArrayFamily",
    "Workspace",
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
    "Backend",
    "BACKENDS",
    "MODES",
    "get_backend",
]

# Constants.  MC_CALIBRATION = c in sigma = ceil((c*M/eps1)^2); the value 2
# makes the per-component standard error at most eps1/2, so deviations
# beyond eps1 have probability <= 1/4.  QUANTUM_COST_CONSTANT is c_q in the
# query-cost law; exponent checks are invariant to it.
MC_CALIBRATION = 2.0
QUANTUM_COST_CONSTANT = 1.0


class Workspace:
    """Named float buffers that one owner reuses for family after family.

    ``array(name, shape)`` is a view of buffer ``name`` with that shape and
    whatever values its last use left; the buffer grows only when a larger
    shape needs it.  A view stays valid until the next ``array`` call with
    the same name.
    """

    def __init__(self):
        self._buffers = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


class IndexedFamily:
    """A (cells x n_mid) grid of bounded d-vectors behind a charging oracle.

    Item ``i*n_mid + k`` is ``_items(i, k)``: subclasses implement
    ``_items`` over index arrays ``i`` (cell) and ``k`` (midpoint) that
    broadcast together, returning their broadcast shape plus ``(dim,)``, and
    must put every element through the same operations in the same order
    whatever the shapes.  ``access`` feeds it flat index arrays and
    ``tabulate`` the whole grid, so the two agree bit for bit.  ``bound`` is
    a uniform sup-norm bound on the items, used by the sampled backends for
    calibration.

    ``access`` is the one reader: it checks the indices' bounds, computes
    the items or, once ``tabulate`` has filled the item table (free of
    charge, one C-contiguous ``(s, d)`` array), gathers them from it, and
    charges one f evaluation per index either way.  ``mean_at`` and
    ``exact_mean`` reduce items with ``_row_means``.  Whether tabulating
    pays is the caller's call: ``mc_mean`` tabulates when its k runs
    together read at least s items.

    Every family computes in a :class:`Workspace`, its own unless it is
    given one: ``_buffer(name, shape)`` is a view of buffer ``name``, and
    ``_gather`` takes rows straight into one (``access`` has checked the
    bounds).  A shared workspace belongs to whoever builds the families on
    it, for that owner's own life: a solve for its steps' residual
    families, a bisection for its iterations' cell families; no estimate
    and no result holds a view of it.  Buffer ``"table"`` holds the table,
    and ``"grid"`` what ``_items`` computes, then ``access``'s table
    gathers.  ``_items`` runs only while there is no table, so it may use
    ``"table"`` and names of its own as scratch (a subclass lists them),
    and it returns a new array or a buffer.  So what ``access`` returns is
    scratch, valid until the next read on the workspace, and the table is
    valid until the next family on the workspace computes items: for the
    family's life on a workspace of its own.  Table-sized intermediates go
    in buffers on the paths the perfbench workloads run.
    """

    def __init__(self, cells: int, n_mid: int, dim: int, bound: float,
                 ledger: Optional[CostLedger] = None,
                 bound_vec: Optional[np.ndarray] = None,
                 workspace: Optional[Workspace] = None):
        self.cells, self.n_mid = int(cells), int(n_mid)
        self.size = self.cells * self.n_mid
        if self.size < 1:
            raise ValueError("family must contain at least one item")
        self.dim = int(dim)
        self.bound = float(bound)
        self.bound_vec = np.full(self.dim, self.bound) if bound_vec is None \
            else np.asarray(bound_vec, dtype=float)
        self.ledger = ledger if ledger is not None else CostLedger()
        self._workspace = workspace if workspace is not None else Workspace()
        self._table = None
        self._peeked = False

    def _items(self, i: np.ndarray, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _buffer(self, name: str, shape: tuple) -> np.ndarray:
        return self._workspace.array(name, shape)

    def _gather(self, name: str, rows: np.ndarray, idx) -> np.ndarray:
        """``rows[idx]`` for indices known to lie in [-len(rows), len(rows)),
        gathered into buffer ``name``: ``"wrap"`` writes straight into it,
        where ``"raise"`` would gather into a temporary and copy that."""
        out = self._buffer(name, np.shape(idx) + rows.shape[1:])
        return np.take(rows, idx, axis=0, mode="wrap", out=out)

    def tabulate(self) -> np.ndarray:
        """All items from one broadcast over the grid; charges nothing.

        Midpoints run on the outer axis so the elementwise loops are long;
        one transposed copy into buffer ``"table"``, shaped ``(cells, n_mid,
        d)``, puts the items in index order, and the result is its ``(s,
        d)`` reshape.  Later calls return the same table, until the next
        family on the workspace computes items.
        """
        if self._table is None:
            grid = self._items(np.arange(self.cells),
                               np.arange(self.n_mid)[:, None])
            table = self._buffer("table", (self.cells, self.n_mid, self.dim))
            np.copyto(table, grid.transpose(1, 0, 2))
            self._table = table.reshape(self.size, self.dim)
        return self._table

    def access(self, idx) -> np.ndarray:
        """Items at the given indices, ``idx.shape + (d,)``, charged to the
        ledger one f evaluation per index.  Indices take numpy's bounds,
        [-s, s).  Without a table the items are computed; with one they are
        gathered into buffer ``"grid"``."""
        idx = np.atleast_1d(np.asarray(idx, dtype=int))
        if idx.size and (idx.min() < -self.size or idx.max() >= self.size):
            raise IndexError("index out of range for a family of %d items"
                             % self.size)
        if self._table is None:
            flat = idx.reshape(-1)
            i = flat // self.n_mid
            items = self._items(i, flat - i * self.n_mid).reshape(
                idx.shape + (self.dim,))
        else:
            items = self._gather("grid", self._table, idx)
        self.ledger.f_evals += idx.size
        return items

    def mean_at(self, idx) -> np.ndarray:
        """Row means of a ``(sigma,)`` or ``(rows, sigma)`` index block: one
        ``_row_means`` over the items ``access`` reads, charged like it, in
        place, as they are scratch."""
        items = self.access(idx)
        return _row_means(items, items)

    def peek_all(self) -> np.ndarray:
        """All items without ledger charges (simulation overhead only).

        Used by the quantum-cost-model stub, which must know the true mean
        it perturbs; the classical work is recorded as ``sim_evals``, once
        per family, even when the table was already built for sampling.
        """
        items = self.tabulate()
        if not self._peeked:
            self._peeked = True
            self.ledger.sim_evals += self.size
        return items

    def exact_mean(self) -> np.ndarray:
        """The mean of all items, from ``peek_all`` and booked like it."""
        return _row_means(self.peek_all())


def _row_means(items: np.ndarray, out=None) -> np.ndarray:
    """The ``(..., d)`` means of a ``(..., sigma, d)`` block over its sigma
    axis, summed as ``.mean(axis=0)`` sums ``(sigma, d)`` items: pairwise
    for d = 1, row after row (into ``out`` if given) for d >= 2."""
    if items.shape[-1] == 1:
        total = items[..., 0].sum(axis=-1)[..., None]
    else:
        total = np.cumsum(items, axis=-2, out=out)[..., -1, :]
    return total / items.shape[-2]


class ArrayFamily(IndexedFamily):
    """A family backed by an explicit (size, dim) array (tests, fixtures):
    the grid with one midpoint per cell."""

    def __init__(self, values, bound=None, ledger=None):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        self._values = values
        b = float(np.max(np.abs(values))) if bound is None else float(bound)
        super().__init__(values.shape[0], 1, values.shape[1], b, ledger)

    def _items(self, i, k):
        return self._values[i + k]      # k == 0; adding it broadcasts i


@dataclass
class MeanEstimate:
    """An estimated mean plus its cost receipt and nominal contract."""

    value: np.ndarray
    cost: dict
    eps_target: float
    success_prob: float


def full_mean(family: IndexedFamily, eps1: float = 0.0,
              rng: Optional[RngStream] = None, k: int = 1) -> MeanEstimate:
    """Exact mean of the whole family: k exact runs are one reduction,
    charged ``k * size`` accesses; eps1 and rng are not used."""
    k = _run_count(k)
    snap = family.ledger.snapshot()
    value = family.mean_at(np.arange(family.size))
    family.ledger.f_evals += (k - 1) * family.size
    return MeanEstimate(value=value, cost=family.ledger.delta_since(snap),
                        eps_target=float(eps1), success_prob=1.0)


def _sample_size(family: IndexedFamily, eps1: float) -> int:
    if family.bound == 0.0:
        return 0
    # clamped at s before squaring: a root above s is a sample above s
    root = min(MC_CALIBRATION * family.bound / eps1, family.size)
    return min(family.size, int(math.ceil(root ** 2)))


def _run_count(k) -> int:
    k = require_whole("k", k)
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be an odd positive integer, got %d" % k)
    return k


def _median(values, axis: int = 0) -> np.ndarray:
    """``np.median`` of an odd count along ``axis``: the middle element of
    one ``np.partition``, bit for bit the same, but NaN wherever the count
    holds one (a partition sorts NaN last, so its middle can miss it) and a
    -0.0 middle keeping its sign."""
    values = np.asarray(values)
    n = values.shape[axis]
    mid = np.partition(values, n // 2, axis=axis).take(n // 2, axis)
    nan = np.isnan(values).any(axis=axis)
    if nan.any():
        mid[nan] = np.nan
    return mid


def _median_of_runs(values, success: float):
    """The median-of-k rule: the value and nominal success of k odd runs,
    each of nominal success ``success`` (3/4, or 1.0 for exact runs).  One
    run passes through, and so does the first of k exact runs: they are
    equal, so it is their median, zeros keeping their sign."""
    if len(values) == 1 or success == 1.0:
        return values[0], success
    return _median(values), 1.0 - float(binomial_fail_tail(len(values)))


def mc_mean(family: IndexedFamily, eps1: float, rng: RngStream,
            k: int = 1) -> MeanEstimate:
    """Monte Carlo mean: the median of k with-replacement sample runs.

    The sample size ``min(s, ceil((c*M/eps1)^2))`` keeps the per-component
    standard error at most ``eps1/c``, hence (Chebyshev, c = 2) one run
    (k = 1) deviates beyond ``eps1`` with probability at most 1/4.  When
    the formula clamps at the family size the sample is replaced by full
    enumeration, ``full_mean``'s k exact runs.

    When the k runs draw at least as many items in total as the family
    holds (``k * reps * sigma >= s``, enumeration included), they share one
    table built first; every drawn index is still charged one f evaluation.

    A run takes the median of ``reps`` means of sigma draws.  The runs draw
    in turn from ``rng`` in ``(g * reps, sigma)`` index blocks of
    ``g = max(1, s // (reps * sigma))`` runs, so that a block holds no more
    indices than the family has items, each reduced by one ``mean_at``.
    Philox continues a draw across calls, so the value is
    ``median_boost(mc_mean, ..., k)``'s bit for bit.
    """
    eps1 = require_positive("eps1", eps1)
    k = _run_count(k)
    snap = family.ledger.snapshot()
    s, dim = family.size, family.dim
    sigma = _sample_size(family, eps1)
    reps = inner_rep_count(dim)
    if k * reps * sigma >= s:
        family.tabulate()
    if family.bound == 0.0:
        values = np.zeros((k, dim))
    elif sigma >= s:
        return full_mean(family, eps1, rng, k)
    else:
        g = max(1, s // (reps * sigma))
        means = []
        for j in range(0, k, g):
            idx = rng.integers(0, s, size=(min(g, k - j) * reps, sigma))
            means.append(family.mean_at(idx))
        draws = np.concatenate(means).reshape(k, reps, dim)
        values = draws[:, 0] if reps == 1 else _median(draws, axis=1)
    value, success = _median_of_runs(values, 0.75)
    return MeanEstimate(value=value, cost=family.ledger.delta_since(snap),
                        eps_target=float(eps1), success_prob=success)


def quantum_sim_mean(family: IndexedFamily, eps1: float, rng: RngStream,
                     k: int = 1) -> MeanEstimate:
    """Quantum mean primitive as a cost model, not a circuit simulation.

    Returns the median of k runs; k = 1 is one run.  A run charges
    ``min(s, ceil(c_q*M/eps1))`` quantum queries.  If the charge clamps at
    the family size the mean is returned exactly (s classical accesses
    always suffice); otherwise the returned value is the true mean plus
    per-component noise: uniform in [-eps1, eps1] with probability 3/4,
    uniform in [-2M, 2M] otherwise, the output clamped into [-2M, 2M].
    Clamping projects toward the box containing the true mean, so it never
    hurts the contract.  A run's noise is a ``(3, reps, d)`` uniform block
    (the failure mask, the wide and the narrow noise), and the k runs draw
    one ``(k, 3, reps, d)`` block: what k runs drawing in turn would draw,
    so the value is ``median_boost(quantum_sim_mean, ..., k)``'s bit for bit.
    """
    eps1 = require_positive("eps1", eps1)
    k = _run_count(k)
    snap = family.ledger.snapshot()
    M = family.bound
    q = family.size if M == 0.0 else int(math.ceil(
        min(QUANTUM_COST_CONSTANT * M / eps1, family.size)))
    truth = family.exact_mean()
    family.ledger.quantum_queries += k * q
    if q >= family.size:
        values, success = np.tile(truth, (k, 1)), 1.0
    else:
        M_c = family.bound_vec
        reps = inner_rep_count(family.dim)
        fail, wide, narrow = rng.uniform(
            size=(k, 3, reps, family.dim)).swapaxes(0, 1)
        noise = np.where(fail < 0.25, (2.0 * wide - 1.0) * 2.0 * M_c,
                         (2.0 * narrow - 1.0) * eps1)
        draws = np.clip(truth + noise, -2.0 * M_c, 2.0 * M_c)
        values = draws[:, 0] if reps == 1 else _median(draws, axis=1)
        success = 0.75
    value, success = _median_of_runs(values, success)
    return MeanEstimate(value=value, cost=family.ledger.delta_since(snap),
                        eps_target=float(eps1), success_prob=success)


def median_boost(base: Callable[..., MeanEstimate], family: IndexedFamily,
                 eps1: float, k: int, rng: RngStream) -> MeanEstimate:
    """Component-wise median of k independent runs of ``base``.

    The generic booster for any ``(family, eps1, rng)`` base, one call per
    run; the stock backends boost themselves, from their ``k`` argument, by
    the same median rule.  The runs draw in turn from ``rng``; a base must
    draw only from the stream it is given.  k must be odd.  Cost is the sum
    of the k receipts.  With k from ``median_rep_count(n, delta)`` the
    nominal success probability is ``(1 - delta)^(1/n)``.
    """
    k = _run_count(k)
    snap = family.ledger.snapshot()
    runs = [base(family, eps1, rng) for _ in range(k)]
    value, success = _median_of_runs([est.value for est in runs],
                                     min(est.success_prob for est in runs))
    return MeanEstimate(value=value, cost=family.ledger.delta_since(snap),
                        eps_target=float(eps1), success_prob=success)


@functools.lru_cache(maxsize=None)
def binomial_fail_tail(k: int) -> Fraction:
    """P(Bin(k, 1/4) >= ceil(k/2)), exactly."""
    t = math.ceil(k / 2)
    total = Fraction(0)
    for j in range(t, k + 1):
        total += Fraction(math.comb(k, j) * 3 ** (k - j), 4 ** k)
    return total


def _smallest_odd_run(target) -> int:
    """Smallest odd k <= 2001 whose exact binomial failure tail is at most
    ``target``."""
    for k in range(1, 2002, 2):
        if binomial_fail_tail(k) <= target:
            return k
    raise RuntimeError("no odd k <= 2001 meets the failure target %g" % target)


def median_rep_count(n: int, delta: float) -> int:
    """Smallest odd k whose exact binomial failure tail meets the target.

    The target is ``1 - (1 - delta)^(1/n)``: k median repetitions of a
    3/4-success base then make all n boosted estimates succeed jointly with
    probability at least ``1 - delta``.
    """
    n = require_count("n", n)
    require_delta(delta)
    return _smallest_odd_run(1.0 - (1.0 - delta) ** (1.0 / n))


@functools.lru_cache(maxsize=None)
def inner_rep_count(dim: int) -> int:
    """Per-component repetitions keeping the vector-norm success at 3/4.

    Each component's failure probability is pushed to at most 1/(4d) by an
    inner median of that many runs, so a union bound over components leaves
    the max-norm event with probability at least 3/4; d = 1 gets one run.
    """
    return _smallest_odd_run(Fraction(1, 4 * require_count("dim", dim)))


def rms_error(errors, delta=None) -> float:
    """Empirical second-moment error: sqrt(mean of squared sup errors)."""
    return float(np.sqrt(np.mean(np.asarray(errors) ** 2)))


def empirical_quantile(errors, delta: float) -> float:
    """Smallest alpha with an empirical exceedance fraction at most delta."""
    e = np.sort(np.asarray(errors, dtype=float))
    T = e.size
    k = int(math.ceil((1.0 - delta) * T))
    k = min(max(k, 1), T)
    return float(e[k - 1])


@dataclass(frozen=True)
class Backend:
    """One oracle-cost model: its mean backend and every law that follows.

    Every mean backend takes ``(family, eps1, rng, k)`` and returns the
    median of k runs, k from ``run_count``; the exact one ignores eps1 and
    rng.  ``estimator`` is the *name* of the mean function.  ``solver`` and
    ``scalar`` look it up among their own module attributes at each call, so
    whatever rebinds those attributes (instrumentation wraps ``mc_mean`` and
    friends there to count, time and audit estimates) sees every call; a
    record holding the function object would bypass it.
    """

    estimator: str
    # sampled: runs of 3/4 success, boosted by a median of k runs, so
    # solves default eps1 = 1/n; else exact, one run
    boosted: bool
    mesh_power: int         # default m = N = n**mesh_power
    ivp_offset: float       # IVP error ~ cost^-(order + ivp_offset)
    # bisection cost ~ (1/eps)^(1/(order + scalar_offset)); the cell law
    # (cell_coeff * bound * width^(order+1) / eps1) has that power, with the
    # bound M of a boosted backend (which also takes enough midpoints per
    # cell to hold the bias to eps1/2) and L of an exact one (one midpoint)
    scalar_offset: float
    cell_coeff: float
    log_power: int          # power of log2(1/eps) the scalar ladder divides out
    ivp_error: Callable[..., float]     # ladder-rung statistic of sup errors
    header: str = ""

    def run_count(self, n: int, delta: float) -> int:
        """Runs per estimate: all n estimates succeed w.p. >= 1 - delta."""
        return median_rep_count(n, delta) if self.boosted else 1


# in the paper's speed-up order: each model's accuracy-cost exponent is
# expected to be no larger than the one before (see exponent_hierarchy)
BACKENDS = {
    "deterministic": Backend(
        estimator="full_mean", boosted=False, mesh_power=1, ivp_offset=0.5,
        scalar_offset=0.0, cell_coeff=0.25, log_power=0,
        ivp_error=empirical_quantile),
    "randomized": Backend(
        estimator="mc_mean", boosted=True, mesh_power=2, ivp_offset=1.0 / 3.0,
        scalar_offset=0.5, cell_coeff=2.0 * MC_CALIBRATION, log_power=2,
        ivp_error=rms_error),
    "quantum_sim": Backend(
        estimator="quantum_sim_mean", boosted=True, mesh_power=1,
        ivp_offset=0.5, scalar_offset=1.0,
        cell_coeff=2.0 * QUANTUM_COST_CONSTANT, log_power=1,
        ivp_error=empirical_quantile,
        header="quantum_sim results validate the algorithm against the "
               "modeled oracle cost law min(s, c_q*M/eps1), not real "
               "quantum execution"),
}
MODES = tuple(BACKENDS)


def get_backend(mode: str) -> Backend:
    """The record of ``mode``; an unknown mode raises ``ValueError``."""
    try:
        return BACKENDS[mode]
    except KeyError:
        raise ValueError("unknown mode %r; known modes: %s"
                         % (mode, ", ".join(MODES))) from None
