"""The four benchmark workloads: inputs from a seed, operations, checks.

A workload runs a fixed list of operations per round; one operation is one
``run_ladder``, ``solve`` or ``bisection_solve`` call.  Every operation's
seed comes from ``SeedSequence(seed).spawn``, keyed by operation index, so
the same workload seed gives the same inputs and a round repeats exactly.
Each operation's output is checked; a failed check counts the operation as
failed.  ``tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import math

import numpy as np

from rqode import bench, fixtures, planted, scalar, solver
from rqode.core import CostLedger, HolderParams

COST_KEYS = ("f_evals", "deriv_evals", "quantum_queries")


def op_seeds(seed: int, count: int) -> list:
    """One integer seed per operation, keyed by operation index."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


def receipts_match(res) -> bool:
    """Per-step receipts sum to the solve's ledger totals (explicit check)."""
    return all(sum(rec[k] for rec in res.step_receipts)
               == getattr(res.ledger, k) for k in COST_KEYS)


class SolveHook:
    """Replaces ``solve`` in rqode's namespaces to check and count every solve.

    Solves issued inside ``run_ladder`` are otherwise invisible to the
    benchmark; the hook checks each one's receipts and merges its ledger.
    """

    def __init__(self):
        self.ledger = CostLedger()
        self.bad = 0
        self._solve = None

    def __call__(self, problem, params, config):
        res = self._solve(problem, params, config)
        if not receipts_match(res):
            self.bad += 1
        self.ledger.merge(res.ledger)
        return res

    def install(self):
        self._solve = solver.solve
        solver.solve = bench.solve = self

    def remove(self):
        solver.solve = bench.solve = self._solve


class Workload:
    """Base class: ``call(i)`` runs operation i, ``check(i, out)`` judges it.

    ``ledger(i, out)`` returns the operation's CostLedger; solve-based
    workloads read it from the solve hook instead.
    """

    name = ""

    def __init__(self, seed: int, tiny: bool):
        self.seed = int(seed)
        self.tiny = bool(tiny)

    def setup(self):
        raise NotImplementedError

    def problems(self) -> list:
        raise NotImplementedError

    def call(self, i):
        raise NotImplementedError

    def check(self, i, out) -> bool:
        raise NotImplementedError

    def ledger(self, i, out):
        return None


class IvpLadder(Workload):
    """Criterion-2 and criterion-3 ladders on ``sin_flow``."""

    name = "ivp_ladder"
    MODES = (("randomized", 30), ("quantum_sim", 40))

    def setup(self):
        self.fx = fixtures.get_fixture("sin_flow")
        rungs = (2, 3, 4) if self.tiny else (2, 3, 4, 6, 8, 11, 16)
        seeds = op_seeds(self.seed, len(self.MODES))
        self.plans = [bench.ExperimentPlan(fixture=self.fx, mode=mode,
                                           ladder=rungs, trials=trials,
                                           delta=0.25, seed=s, workers=1)
                      for (mode, trials), s in zip(self.MODES, seeds)]
        bench.run_ladder(bench.ExperimentPlan(
            fixture=self.fx, mode="randomized", ladder=(2, 3), trials=30,
            seed=seeds[0], workers=1))
        self.n_ops = len(self.plans)
        self.verdicts = {}

    def problems(self):
        return [self.fx.problem]

    def call(self, i):
        return bench.run_ladder(self.plans[i])

    def check(self, i, rep):
        # The slope verdict is a statistical test that can fail on a valid
        # run; it is recorded, not counted as a failed operation.
        self.verdicts[i] = (rep.mode, rep.passed, rep.slope, rep.target)
        values = np.asarray(rep.errors + rep.costs + rep.deflated_costs)
        return (rep.slope is not None and math.isfinite(rep.slope)
                and len(rep.errors) == len(self.plans[i].ladder)
                and bool(np.all(np.isfinite(values)) and np.all(values > 0)))


class IvpRand2d(Workload):
    """``cos_time_r1`` (d=2, r=1) randomized at n=16 over a few seeds."""

    name = "ivp_rand_2d"
    SOLVES = 2
    # sup error measured 6.2e-10 at n=16 and 9.8e-6 at n=4 (the same for
    # every seed tried); pinned 10-16x above
    SUP_ERROR_BOUND = {16: 1e-8, 4: 1e-4}

    def setup(self):
        self.fx = fixtures.get_fixture("cos_time_r1")
        self.n = 4 if self.tiny else 16
        self.configs = [solver.SolveConfig(n=self.n, mode="randomized", seed=s)
                        for s in op_seeds(self.seed, self.SOLVES)]
        solver.solve(self.fx.problem, self.fx.params,
                     solver.SolveConfig(n=2, mode="randomized", seed=0))
        self.n_ops = len(self.configs)

    def problems(self):
        return [self.fx.problem]

    def call(self, i):
        return solver.solve(self.fx.problem, self.fx.params, self.configs[i])

    def check(self, i, res):
        if not np.all(np.isfinite(res.y_grid)):
            return False
        err = solver.sup_error(res, self.fx.reference)
        return err <= self.SUP_ERROR_BOUND[self.n]


class BisectScalar(Workload):
    """``bisection_solve`` on inv1p and inv1p_r1, both stochastic modes."""

    name = "bisect_scalar"
    # The four cases' latencies form separate clusters.  With equal shares
    # the median operation falls between two clusters (op_p50_ref_ms had a
    # quartile spread of 0.12 over ten seeds); with one case taking 40% and
    # the others 20%, every cluster boundary lies at least 10 ranks from the
    # median and the 90th percentile, whichever order the clusters come in.
    CASES = (("inv1p", "randomized"), ("inv1p", "randomized"),
             ("inv1p", "quantum_sim"), ("inv1p_r1", "randomized"),
             ("inv1p_r1", "quantum_sim"))
    DELTA = 0.1

    def setup(self):
        self.fixtures = {name: fixtures.get_fixture(name)
                         for name in ("inv1p", "inv1p_r1")}
        self.eps = 1e-2 if self.tiny else 1e-4
        per_case = 2 if self.tiny else 20
        self.n_ops = per_case * len(self.CASES)
        self.seeds = op_seeds(self.seed, self.n_ops)
        for name, mode in dict.fromkeys(self.CASES):
            fx = self.fixtures[name]
            scalar.bisection_solve(fx.problem, fx.params, 1e-2, self.DELTA,
                                   mode=mode, seed=0)

    def problems(self):
        return [fx.problem for fx in self.fixtures.values()]

    def _case(self, i):
        name, mode = self.CASES[i % len(self.CASES)]
        return self.fixtures[name], mode

    def call(self, i):
        fx, mode = self._case(i)
        return scalar.bisection_solve(fx.problem, fx.params, self.eps,
                                      self.DELTA, mode=mode,
                                      seed=self.seeds[i])

    def check(self, i, res):
        # The exact iteration bound is checked through ``breached``: the
        # solver reports a breach exactly when it spends its whole budget of
        # ceil(log2(D0 (b-a) / (p eps1))) iterations without stopping.  The
        # history must record one midpoint per iteration, the last a stop.
        fx, _ = self._case(i)
        return (abs(res.y_out - fx.y_star) <= self.eps and not res.breached
                and len(res.history) == res.iters
                and res.history[-1][2] == "stop")

    def ledger(self, i, res):
        return res.ledger


class PlantedDet(Workload):
    """Deterministic solves of planted hidden-mean problems."""

    name = "planted_det"
    PARAMS = {0: HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0),
              1: HolderParams(r=1, rho=1.0, D=(1.2, 1.0), H=1.0)}
    # Endpoint tolerance C * h * hbar^(r+rho) with C = 0.5: measured errors
    # are at least 50x below it (r=0) or at rounding level (r=1).
    ERROR_CONSTANT = 0.5

    def setup(self):
        sizes = (4, 8) if self.tiny else (16, 32, 64)
        self.mesh = 16 if self.tiny else 64
        # An r=0 solve takes about half as long as an r=1 solve.  With as
        # many of each, the median operation fell between the two latency
        # clusters (op_p50_ref_ms had a quartile spread of 0.086 over ten
        # seeds); with every r=0 case twice (other hidden means) it lies
        # inside the r=0 cluster.
        cases = [(r, n) for r in (0, 1, 0) for n in sizes]
        seeds = op_seeds(self.seed, len(cases))
        self.cases = []
        for (r, n), s in zip(cases, seeds):
            lam = np.random.default_rng(s).uniform(-1.0, 1.0, n)
            self.cases.append((r, planted.make_planted(lam, self.PARAMS[r])))
        self.config = solver.SolveConfig(n=self.mesh, m=self.mesh, N=8)
        pl = self.cases[0][1]
        solver.solve(pl.problem, pl.params_f,
                     solver.SolveConfig(n=4, m=4, N=8))
        self.n_ops = len(self.cases)

    def problems(self):
        return [pl.problem for _, pl in self.cases]

    def call(self, i):
        pl = self.cases[i][1]
        return solver.solve(pl.problem, pl.params_f, self.config)

    def check(self, i, res):
        r, pl = self.cases[i]
        order = self.PARAMS[r].order
        h = 1.0 / self.mesh
        tol = self.ERROR_CONSTANT * h * (h / self.mesh) ** order
        mean = planted.recover_mean(float(res.y_grid[-1, 0]), pl.eta, pl.n,
                                    pl.mean_scale, order)
        amplified = tol * pl.n ** order / pl.mean_scale
        return abs(mean - pl.true_mean()) <= amplified


WORKLOADS = {w.name: w
             for w in (IvpLadder, IvpRand2d, BisectScalar, PlantedDet)}
