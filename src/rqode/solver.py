"""End-to-end solvers: deterministic, randomized, and quantum-cost-model.

Each coarse step chains m fine Taylor pieces, integrates the local field
expansions exactly, and corrects with an estimated mean of the scaled
residuals sampled at fine-cell midpoints.  The three modes differ only in
the mean backend:

* deterministic -- the full midpoint mean, computed exactly;
* randomized    -- Monte Carlo subsampling, median-boosted;
* quantum_sim   -- the quantum-cost-model stub, median-boosted.

Residual families are lazy: items are computed on demand, or tabulated once
when a Monte Carlo run reads at least as many items as the family holds.
Either way the backends pay per index they touch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (CostLedger, HolderParams, IvpProblem, build_mesh,
                   residual_bound, residual_bound_vector)
from .estimators import (IndexedFamily, full_mean, mc_mean, median_boost,
                         median_rep_count, quantum_sim_mean)
from .rng import RngStream
from .taylor import (PiecewiseTaylorApprox, fetch_jet, flow_coeffs_from_jet,
                     integrate_field_along)

__all__ = [
    "SolveConfig",
    "SolveResult",
    "ResidualFamily",
    "solve",
    "sup_error",
    "run_trials",
    "estimate_rand_error",
    "estimate_quant_error",
    "MODES",
]

MODES = ("deterministic", "randomized", "quantum_sim")


@dataclass(frozen=True)
class SolveConfig:
    """Solver configuration; unset mesh fields fall back to mode defaults.

    Mode defaults: randomized uses m = n^2, N = n^2; quantum_sim and
    deterministic use m = n, N = n; stochastic modes default eps1 = 1/n.
    ``k_override`` forces the median repetition count (k = 1 disables
    boosting, used by the degeneracy checks); ``record_estimate_errors``
    audits per-step estimator errors against the exact first-stage means
    (classical work only, booked as sim_evals).
    """

    n: int
    mode: str = "deterministic"
    m: Optional[int] = None
    N: Optional[int] = None
    eps1: Optional[float] = None
    delta: float = 0.25
    seed: int = 0
    strict: bool = False
    k_override: Optional[int] = None
    record_estimate_errors: bool = False

    def resolved(self) -> "SolveConfig":
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        m = self.m
        N = self.N
        eps1 = self.eps1
        if m is None:
            m = self.n ** 2 if self.mode == "randomized" else self.n
        if N is None:
            N = self.n ** 2 if self.mode == "randomized" else self.n
        if eps1 is None:
            eps1 = 0.0 if self.mode == "deterministic" else 1.0 / self.n
        if m < 1 or N < 1:
            raise ValueError("m and N must be positive integers")
        if self.mode != "deterministic":
            if eps1 <= 0:
                raise ValueError("stochastic modes need eps1 > 0")
            if not 0.0 < self.delta < 0.5:
                raise ValueError("delta must lie in (0, 1/2)")
        return replace(self, m=int(m), N=int(N), eps1=float(eps1))

    def as_dict(self) -> dict:
        cfg = self.resolved()
        return {
            "n": cfg.n, "m": cfg.m, "N": cfg.N, "eps1": cfg.eps1,
            "delta": cfg.delta, "mode": cfg.mode, "seed": cfg.seed,
        }


class ResidualFamily(IndexedFamily):
    """Lazy family of the m*N scaled residuals of one coarse step.

    Item (j, k), flattened as j*N + k, is the residual of piece j evaluated
    at the composite midpoint u_k = (k + 1/2)/N of its fine cell.  Each
    access costs one f evaluation; the field-expansion value is free.
    """

    def __init__(self, problem: IvpProblem, params: HolderParams,
                 piece_coeffs: np.ndarray, jets: list, hbar: float, N: int,
                 ledger: CostLedger, bound: Optional[float] = None):
        self._problem = problem
        self._params = params
        self._C = piece_coeffs              # (m, deg+1, d)
        self._centers = piece_coeffs[:, 0, :]
        self._T = jets                      # list of stacked tensors by order
        self._hbar = float(hbar)
        self._N = int(N)
        m = piece_coeffs.shape[0]
        b = residual_bound(params, problem.dim) if bound is None else bound
        super().__init__(m * self._N, problem.dim, b, ledger,
                         bound_vec=residual_bound_vector(params, problem.dim))

    def _compute(self, idx: np.ndarray) -> np.ndarray:
        j = idx // self._N
        k = idx % self._N
        tau = (k + 0.5) / self._N * self._hbar
        C = self._C[j]
        Y = C[:, -1, :].copy()
        for q in range(C.shape[1] - 2, -1, -1):
            Y = Y * tau[:, None] + C[:, q, :]
        F = np.asarray(self._problem.f(Y), dtype=float)
        delta = Y - self._centers[j]
        W = self._T[0][j].copy()
        if len(self._T) >= 2:
            W += np.einsum("bij,bj->bi", self._T[1][j], delta)
        if len(self._T) >= 3:
            W += 0.5 * np.einsum("bijk,bj,bk->bi", self._T[2][j], delta, delta)
        return (F - W) / self._hbar ** self._params.order


@dataclass
class SolveResult:
    """A solve's approximation, trajectory, and cost receipt."""

    approx: PiecewiseTaylorApprox
    y_grid: np.ndarray
    ledger: CostLedger
    config: SolveConfig
    seed: int
    k_rep: int
    step_receipts: list = field(default_factory=list)
    est_errors: Optional[np.ndarray] = None
    warnings: list = field(default_factory=list)

    def to_report(self, include_pieces: bool = False) -> dict:
        rep = {
            "config": self.config.as_dict(),
            "seed": self.seed,
            "k_rep": self.k_rep,
            "y_grid": self.y_grid.tolist(),
            "cost": self.ledger.as_dict(),
            "step_receipts": self.step_receipts,
            "warnings": list(self.warnings),
        }
        if self.est_errors is not None:
            rep["estimate_errors"] = self.est_errors.tolist()
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
        if cfg.strict:
            raise ValueError(msg)
        warnings.warn(msg)
        notes.append(msg)

    if cfg.mode == "deterministic":
        k_rep = 1
    elif cfg.k_override is not None:
        k_rep = int(cfg.k_override)
    else:
        k_rep = median_rep_count(cfg.n, cfg.delta)

    d = problem.dim
    order = params.r + 1
    root = RngStream(cfg.seed, ledger)
    step_streams = root.spawn(cfg.n) if cfg.mode != "deterministic" else [None] * cfg.n
    bound = residual_bound(params, d)
    scale = cfg.m * mesh.hbar ** (params.order + 1.0)

    # piece j of coarse step i starts at bases[i, j] and runs for steps[i, j];
    # the last piece of a cell ends on x[i+1] itself, not on x[i] + m*hbar
    bases = mesh.x[:-1, None] + mesh.fine_offsets()[None, :]
    steps = np.concatenate([bases[:, 1:], mesh.x[1:, None]], axis=1) - bases
    coeffs = np.empty((cfg.n, cfg.m, order + 1, d))

    y = problem.eta.copy()
    y_grid = np.empty((cfg.n + 1, d))
    y_grid[0] = y
    step_receipts = []
    est_errors = [] if cfg.record_estimate_errors else None

    for i in range(cfg.n):
        snap = ledger.snapshot()
        C = coeffs[i]
        jets = [np.empty((cfg.m, d) + (d,) * k) for k in range(params.r + 1)]
        y_j = y
        for j, tau in enumerate(steps[i].tolist()):
            jet = fetch_jet(problem, y_j, params.r, ledger)
            c = flow_coeffs_from_jet(y_j, jet, order, C[j])
            for k in range(params.r + 1):
                jets[k][j] = jet[k]
            y_j = c[order]
            for q in range(order - 1, -1, -1):
                y_j = y_j * tau + c[q]
        # a sequential sum in piece order (not pairwise) keeps y_grid equal,
        # bit for bit, to a running sum along the chain
        w_integral = np.cumsum(integrate_field_along(jets, C, steps[i]),
                               axis=0)[-1]

        family = ResidualFamily(problem, params, C, jets,
                                mesh.hbar, cfg.N, ledger, bound=bound)
        if cfg.mode == "deterministic":
            est = full_mean(family)
        elif cfg.mode == "randomized":
            est = median_boost(mc_mean, family, cfg.eps1, k_rep, step_streams[i])
        else:
            est = median_boost(quantum_sim_mean, family, cfg.eps1, k_rep,
                               step_streams[i])

        if est_errors is not None:
            truth = family.peek_all().mean(axis=0)
            est_errors.append(float(np.max(np.abs(est.value - truth))))

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
        approx=PiecewiseTaylorApprox(mesh, coeffs.reshape(-1, order + 1, d),
                                     bases.ravel()),
        y_grid=y_grid, ledger=ledger, config=cfg, seed=cfg.seed, k_rep=k_rep,
        step_receipts=step_receipts,
        est_errors=None if est_errors is None else np.asarray(est_errors),
        warnings=notes,
    )


def _reference_values(reference: Callable, ts: np.ndarray, dim: int) -> np.ndarray:
    vals = np.asarray(reference(ts), dtype=float)
    if vals.shape == (ts.size, dim):
        return vals
    return np.stack([np.asarray(reference(float(t)), dtype=float).reshape(dim)
                     for t in ts])


def sup_error(result: SolveResult, reference: Callable,
              probe_count: int = 256) -> float:
    """Max-norm distance to a reference trajectory on a probe grid.

    The grid is ``probe_count`` uniform points joined with every fine mesh
    point, so piece boundaries are always probed.
    """
    if probe_count < 2:
        raise ValueError("probe_count must be at least 2")
    mesh = result.approx.mesh
    ts = np.union1d(np.linspace(mesh.a, mesh.b, probe_count),
                    mesh.all_fine_points())
    approx = result.approx.eval(ts)
    ref = _reference_values(reference, ts, result.y_grid.shape[1])
    return float(np.max(np.abs(approx - ref)))


@dataclass
class TrialStats:
    """Per-trial sup errors and cost receipts for repeated stochastic solves."""

    errors: np.ndarray
    costs: np.ndarray
    deflated_costs: np.ndarray
    k_rep: int
    ledger: CostLedger
    seeds: list


def run_trials(problem: IvpProblem, params: HolderParams, config: SolveConfig,
               trials: int, reference: Callable,
               probe_count: int = 256) -> TrialStats:
    """Run independent solves on spawned seeds and collect error/cost stats.

    ``deflated_costs`` divides the stochastic ledger component by the median
    repetition count, removing the logarithmic factor that boosting adds to
    the raw cost.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    errors = np.empty(trials)
    costs = np.empty(trials)
    deflated = np.empty(trials)
    merged = CostLedger()
    k_rep = 1
    seeds = []
    for t in range(trials):
        child = int(np.random.SeedSequence(
            entropy=config.seed, spawn_key=(t,)).generate_state(1)[0])
        seeds.append(child)
        res = solve(problem, params, replace(config, seed=child))
        errors[t] = sup_error(res, reference, probe_count)
        costs[t] = res.ledger.total
        det_part = res.ledger.deriv_evals
        pieces_part = res.config.n * res.config.m  # f evals spent on pieces
        stoch_part = res.ledger.total - det_part - pieces_part
        deflated[t] = det_part + pieces_part + stoch_part / res.k_rep
        merged.merge(res.ledger)
        k_rep = res.k_rep
    return TrialStats(errors=errors, costs=costs, deflated_costs=deflated,
                      k_rep=k_rep, ledger=merged, seeds=seeds)


def estimate_rand_error(problem: IvpProblem, params: HolderParams,
                        config: SolveConfig, trials: int,
                        reference: Callable, probe_count: int = 256) -> float:
    """Empirical second-moment error: sqrt(mean of squared sup errors)."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if config.mode == "deterministic":
        raise ValueError("second-moment error is for stochastic modes")
    stats = run_trials(problem, params, config, trials, reference, probe_count)
    return float(np.sqrt(np.mean(stats.errors ** 2)))


def empirical_quantile(errors: np.ndarray, delta: float) -> float:
    """Smallest alpha with an empirical exceedance fraction at most delta."""
    e = np.sort(np.asarray(errors, dtype=float))
    T = e.size
    k = int(math.ceil((1.0 - delta) * T))
    k = min(max(k, 1), T)
    return float(e[k - 1])


def estimate_quant_error(problem: IvpProblem, params: HolderParams,
                         config: SolveConfig, trials: int, delta: float,
                         reference: Callable, probe_count: int = 256) -> float:
    """Empirical (1 - delta)-quantile of the sup error over trials."""
    if trials < math.ceil(10.0 / delta):
        raise ValueError("need at least ceil(10/delta) = %d trials to resolve "
                         "the delta-quantile" % math.ceil(10.0 / delta))
    stats = run_trials(problem, params, config, trials, reference, probe_count)
    return empirical_quantile(stats.errors, delta)
