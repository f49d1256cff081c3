"""End-to-end solvers: deterministic, randomized, and quantum-cost-model.

Each coarse step chains m fine Taylor pieces, integrates the local field
expansions exactly, and corrects with an estimated mean of the scaled
residuals sampled at fine-cell midpoints.  The modes differ only in their
:class:`~rqode.estimators.Backend` record: the mean backend (the exact
midpoint mean, Monte Carlo subsampling or the quantum-cost-model stub, the
last two median-boosted) and the mesh defaults that go with it.

Every mode estimates each step's residual mean with one call to its mean
backend, which returns the median of the step's k runs (one when exact).
Residual families are lazy: items are computed on demand, or tabulated once
when the k Monte Carlo runs of a step read at least as many items in total
as the family holds.  Either way the backends pay per index they touch.

One solve builds every step's residual family on one
:class:`~rqode.estimators.Workspace`, freed with the solve, under the buffer
rule of :class:`~rqode.estimators.IndexedFamily`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (CostLedger, HolderParams, IvpProblem, build_mesh,
                   require_count, require_delta, require_finite,
                   require_nonnegative, require_nonnegative_int, require_whole,
                   residual_bound, residual_bound_vector)
from .estimators import (MODES, IndexedFamily, Workspace, full_mean,
                         get_backend, mc_mean, quantum_sim_mean)
from .rng import RngStream, child_seed
# fetch_jet and flow_coeffs_from_jet stay bound here for instrumentation
from .taylor import (PiecewiseTaylorApprox, fetch_jet, fine_chain,
                     flow_coeffs_from_jet, horner, integrate_field_along)

__all__ = [
    "SolveConfig",
    "SolveResult",
    "ResidualFamily",
    "solve",
    "sup_error",
    "run_trials",
    "MODES",
]


@dataclass(frozen=True)
class SolveConfig:
    """Solver configuration; unset mesh fields fall back to mode defaults.

    Mode defaults come from the mode's backend record: m = N = n^mesh_power
    (n^2 randomized, n otherwise), and boosted modes default eps1 = 1/n.
    Each estimate is the median of k = ``Backend.run_count(n, delta)`` runs
    (1 when exact).  Every mode needs delta in (0, 1/2) and eps1 >= 0;
    n, m and N are counts (31.0 runs as 31) and seed is whole and >= 0.
    """

    n: int
    mode: str = "deterministic"
    m: Optional[int] = None
    N: Optional[int] = None
    eps1: Optional[float] = None
    delta: float = 0.25
    seed: int = 0

    def resolved(self) -> "SolveConfig":
        backend = get_backend(self.mode)
        n = require_count("n", self.n)
        mesh = n ** backend.mesh_power
        m = mesh if self.m is None else require_count("m", self.m)
        N = mesh if self.N is None else require_count("N", self.N)
        eps1 = self.eps1
        if eps1 is None:
            eps1 = 1.0 / n if backend.boosted else 0.0
        eps1 = require_nonnegative("eps1", eps1)
        if backend.boosted and eps1 == 0:
            raise ValueError("stochastic modes need eps1 > 0")
        require_delta(self.delta)
        return replace(self, n=n, m=m, N=N, eps1=eps1,
                       seed=require_nonnegative_int("seed", self.seed))


class ResidualFamily(IndexedFamily):
    """Lazy family of the m*N scaled residuals of one coarse step.

    Item (j, k), flattened as j*N + k, is the residual of piece j evaluated
    at the composite midpoint u_k = (k + 1/2)/N of its fine cell.  Each
    access costs one f evaluation; the field-expansion value is free.
    Residuals that are not finite raise ``ClassViolationError`` naming the
    coarse step ``step``.

    ``solve`` builds every step's family on one workspace, its own for the
    solve's life.  For r <= 1, the orders the perfbench workloads run,
    ``_items`` computes every table-sized array in a buffer of it, and only
    the oracle's output is a new array: ``"C"``, ``"jet0"`` and ``"jet1"``
    hold the gathered piece rows, ``"tau"`` the midpoint offsets, ``"Y"``
    the flow values and then their displacement from the piece start,
    ``"order1"`` the expansion's order-1 products, and ``"grid"`` the
    expansion's value W and then the result.  The order-2 term is one plain
    expression in new arrays.
    """

    def __init__(self, problem: IvpProblem, params: HolderParams,
                 piece_coeffs: np.ndarray, jets: list, hbar: float, N: int,
                 ledger: CostLedger, step: int = 0,
                 workspace: Optional[Workspace] = None):
        self._problem = problem
        self._params = params
        self._C = piece_coeffs              # (m, deg+1, d)
        self._T = jets                      # list of stacked tensors by order
        self._hbar = float(hbar)
        self._step = int(step)
        super().__init__(piece_coeffs.shape[0], N, problem.dim,
                         residual_bound(params, problem.dim), ledger,
                         bound_vec=residual_bound_vector(params, problem.dim),
                         workspace=workspace)

    def _items(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        d = self.dim
        shape = np.broadcast_shapes(np.shape(j), np.shape(k)) + (d,)
        C = self._gather("C", self._C, j)
        tau = np.add(k, 0.5, out=self._buffer("tau", np.shape(k)))
        tau /= self.n_mid
        tau *= self._hbar
        Y = horner(C, tau, out=self._buffer("Y", shape))
        F = np.asarray(self._problem.f(Y.reshape(-1, d)),
                       dtype=float).reshape(shape)
        if np.may_share_memory(F, Y):   # f may hand back its input
            F = F.copy()
        grid = self._buffer("grid", shape)
        W = self._gather("jet0", self._T[0], j)
        # products summed over trailing axes: np.einsum is several times
        # slower on the broadcast grid of ``tabulate``
        if len(self._T) >= 2:
            delta = np.subtract(Y, C[..., 0, :], out=Y)[..., None, :]
            prod = np.multiply(self._gather("jet1", self._T[1], j), delta,
                               out=self._buffer("order1", shape + (d,)))
            W = np.add(np.sum(prod, axis=-1, out=grid), W, out=grid)
        if len(self._T) >= 3:
            W += 0.5 * np.sum(self._T[2][j] * delta[..., None]
                              * delta[..., None, :], axis=(-2, -1))
        out = np.subtract(F, W, out=grid)
        out /= self._hbar ** self._params.order
        require_finite((out,), "f or the residual at the fine-cell midpoints "
                       "not finite at coarse step %d", self._step)
        return out


@dataclass
class SolveResult:
    """A solve's approximation, trajectory, and cost receipt."""

    approx: PiecewiseTaylorApprox
    y_grid: np.ndarray
    ledger: CostLedger
    config: SolveConfig
    k_rep: int
    step_receipts: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_report(self, include_pieces: bool = False) -> dict:
        rep = {
            "config": asdict(self.config),
            "seed": self.config.seed,
            "k_rep": self.k_rep,
            "y_grid": self.y_grid.tolist(),
            "cost": self.ledger.as_dict(),
            "step_receipts": self.step_receipts,
            "warnings": list(self.warnings),
        }
        if include_pieces:
            rep["pieces"] = {
                "basepoints": self.approx.basepoints.tolist(),
                "coeffs": self.approx.coeffs.tolist(),
            }
        return rep


def solve(problem: IvpProblem, params: HolderParams,
          config: SolveConfig) -> SolveResult:
    """Run one solve of z' = f(z), z(a) = eta over the two-level mesh."""
    cfg = config.resolved()
    mesh = build_mesh(problem.a, problem.b, cfg.n, cfg.m)
    ledger = CostLedger()
    notes = []

    Lh = params.lipschitz * mesh.h
    if Lh > math.log(2.0):
        msg = ("step-smallness condition violated: L*h = %.4g > ln 2; "
               "the stability bound is not guaranteed" % Lh)
        warnings.warn(msg)
        notes.append(msg)

    backend = get_backend(cfg.mode)
    # looked up by name at call time: see Backend.estimator
    estimator = globals()[backend.estimator]
    k_rep = backend.run_count(cfg.n, cfg.delta)

    root = RngStream(cfg.seed, ledger)
    step_streams = root.spawn(cfg.n) if backend.boosted else [None] * cfg.n
    scale = cfg.m * mesh.hbar ** (params.order + 1.0)

    # piece j of coarse step i starts at bases[i, j] and runs for steps[i, j]
    bases, steps = mesh.pieces()
    pieces = []

    workspace = Workspace()
    y = problem.eta.copy()
    y_grid = np.empty((cfg.n + 1, problem.dim))
    y_grid[0] = y
    step_receipts = []

    for i in range(cfg.n):
        snap = ledger.snapshot()
        C, jets = fine_chain(problem, y, steps[i], params.r, ledger)
        pieces.append(C)
        require_finite(jets + [C], "f, its derivatives or the flow "
                       "coefficients not finite at coarse step %d", i)
        # a sequential sum in piece order (not pairwise) keeps y_grid equal,
        # bit for bit, to a running sum along the chain
        w_integral = np.cumsum(integrate_field_along(jets, C, steps[i]),
                               axis=0)[-1]

        family = ResidualFamily(problem, params, C, jets, mesh.hbar, cfg.N,
                                ledger, step=i, workspace=workspace)
        est = estimator(family, cfg.eps1, step_streams[i], k=k_rep)

        y = y + w_integral + scale * est.value
        y_grid[i + 1] = y
        step_receipts.append(ledger.delta_since(snap))

    # ledger totals must equal the sum of the per-step receipts
    for key in ("f_evals", "deriv_evals", "quantum_queries"):
        spent = sum(rec[key] for rec in step_receipts)
        if spent != getattr(ledger, key):
            raise RuntimeError("ledger invariant broken: step receipts sum to "
                               "%d %s but the ledger holds %d"
                               % (spent, key, getattr(ledger, key)))

    return SolveResult(
        approx=PiecewiseTaylorApprox(mesh, np.concatenate(pieces),
                                     bases.ravel()),
        y_grid=y_grid, ledger=ledger, config=cfg, k_rep=k_rep,
        step_receipts=step_receipts, warnings=notes,
    )


def sup_error(result: SolveResult, reference: Callable,
              probe_count: int = 256) -> float:
    """Max-norm distance to a reference trajectory on a probe grid.

    The grid is ``probe_count`` uniform points joined with every piece's
    start and b, so piece boundaries are always probed.
    """
    probe_count = require_whole("probe_count", probe_count)
    if probe_count < 2:
        raise ValueError("probe_count must be at least 2")
    mesh = result.approx.mesh
    ts = np.union1d(np.linspace(mesh.a, mesh.b, probe_count),
                    np.append(result.approx.basepoints, mesh.b))
    approx = result.approx.eval(ts)
    ref = np.asarray(reference(ts), dtype=float)
    if ref.shape != approx.shape:
        raise ValueError("reference values have shape %s; expected "
                         "(len(ts), d) = %s" % (ref.shape, approx.shape))
    return float(np.max(np.abs(approx - ref)))


@dataclass
class TrialStats:
    """Per-trial sup errors and cost receipts for repeated stochastic solves."""

    errors: np.ndarray
    costs: np.ndarray
    deflated_costs: np.ndarray
    k_rep: int


def run_trials(problem: IvpProblem, params: HolderParams, config: SolveConfig,
               trials: int, reference: Callable,
               probe_count: int = 256) -> TrialStats:
    """Run independent solves on spawned seeds and collect error/cost stats.

    ``deflated_costs`` divides the stochastic ledger component by the median
    repetition count, removing the logarithmic factor that boosting adds to
    the raw cost.
    """
    trials = require_count("trials", trials)
    errors = np.empty(trials)
    costs = np.empty(trials)
    deflated = np.empty(trials)
    k_rep = 1
    for t in range(trials):
        res = solve(problem, params,
                    replace(config, seed=child_seed(config.seed, t)))
        errors[t] = sup_error(res, reference, probe_count)
        costs[t] = res.ledger.total
        det_part = res.ledger.deriv_evals
        pieces_part = res.config.n * res.config.m  # f evals spent on pieces
        stoch_part = res.ledger.total - det_part - pieces_part
        deflated[t] = det_part + pieces_part + stoch_part / res.k_rep
        k_rep = res.k_rep
    return TrialStats(errors=errors, costs=costs, deflated_costs=deflated,
                      k_rep=k_rep)
