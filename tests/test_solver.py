import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rqode.core import (ClassViolationError, CostLedger, HolderParams,
                        IvpProblem, residual_bound)
from rqode.fixtures import fixture_names, get_fixture, reference_solver
from rqode.estimators import Workspace, empirical_quantile, rms_error
from rqode.solver import (ResidualFamily, SolveConfig, run_trials, solve,
                          sup_error)
from rqode.taylor import fetch_jet


class TestConfigDefaults:
    def test_randomized_defaults(self):
        cfg = SolveConfig(n=5, mode="randomized").resolved()
        assert (cfg.m, cfg.N, cfg.eps1) == (25, 25, 0.2)

    def test_quantum_defaults(self):
        cfg = SolveConfig(n=5, mode="quantum_sim").resolved()
        assert (cfg.m, cfg.N, cfg.eps1) == (5, 5, 0.2)

    def test_overrides_respected(self):
        cfg = SolveConfig(n=5, mode="randomized", m=7, N=3, eps1=0.5).resolved()
        assert (cfg.m, cfg.N, cfg.eps1) == (7, 3, 0.5)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SolveConfig(n=4, mode="annealed").resolved()

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            SolveConfig(n=4, mode="randomized", delta=0.7).resolved()

    @pytest.mark.parametrize("delta", [3.0, 0.5, 0.0, -0.1, np.nan])
    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    def test_delta_outside_range_rejected(self, mode, delta):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1/2\)"):
            SolveConfig(n=4, mode=mode, delta=delta).resolved()

    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    def test_negative_eps1_rejected(self, mode):
        with pytest.raises(ValueError, match="^eps1 must be non-negative"):
            SolveConfig(n=4, mode=mode, eps1=-1.0).resolved()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["deterministic", "randomized",
                                      "quantum_sim"])
    def test_non_finite_eps1_rejected(self, mode, bad):
        with pytest.raises(ValueError, match="^eps1 must be finite"):
            SolveConfig(n=4, mode=mode, eps1=bad).resolved()

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("m", 2.5), ("N", 3.7), ("N", np.nan), ("m", np.inf)])
    def test_fractional_mesh_size_rejected(self, field, value):
        # named, not truncated by int(): m = 2.5 used to run with m = 2
        kwargs = dict({"n": 4}, **{field: value})
        with pytest.raises(ValueError, match="^%s must be a whole number, "
                           "got %r$" % (field, value)):
            SolveConfig(**kwargs).resolved()

    def test_integral_floats_run_as_ints(self):
        cfg = SolveConfig(n=4.0, m=3.0, N=np.float64(5.0), seed=7.0).resolved()
        assert (cfg.n, cfg.m, cfg.N, cfg.seed) == (4, 3, 5, 7)
        assert all(type(v) is int for v in (cfg.n, cfg.m, cfg.N, cfg.seed))

    @pytest.mark.parametrize("mode", ["deterministic", "randomized"])
    def test_integral_float_order_solves_as_int(self, mode):
        # r indexes the jet orders, so r = 1.0 must solve as r = 1
        fx = get_fixture("sin_flow_r1")
        params = dataclasses.replace(fx.params, r=1.0)
        assert type(params.r) is int and params == fx.params
        cfg = SolveConfig(n=4, mode=mode, seed=7)
        got = solve(fx.problem, params, cfg)
        ref = solve(fx.problem, fx.params, cfg)
        assert got.y_grid.tobytes() == ref.y_grid.tobytes()
        assert got.ledger.as_dict() == ref.ledger.as_dict()

    @pytest.mark.parametrize("seed", [2.7, np.nan, -1])
    def test_seed_must_be_whole(self, seed):
        # the seed is checked before it is used, so a report's seed is the
        # seed its streams were built from
        fx = get_fixture("sin_flow")
        with pytest.raises(ValueError, match="^seed must be a non-negative "
                           "integer, got %r$" % seed):
            solve(fx.problem, fx.params,
                  SolveConfig(n=2, mode="randomized", seed=seed))


class TestConstantField:
    @pytest.mark.parametrize("mode", ["deterministic", "randomized", "quantum_sim"])
    def test_solved_to_machine_precision(self, mode):
        fx = get_fixture("constant")
        c = np.asarray(fx.meta["c"])
        res = solve(fx.problem, fx.params, SolveConfig(n=4, mode=mode, seed=5))
        for i, x in enumerate(res.approx.mesh.x):
            expect = fx.problem.eta + c * (x - 0.0)
            assert np.max(np.abs(res.y_grid[i] - expect)) < 1e-14

    def test_residual_cost_only_probes(self):
        # all residuals vanish; the stochastic budget collapses to one probe
        # per estimator call (the class bound is essentially zero)
        from rqode.estimators import inner_rep_count
        fx = get_fixture("constant")
        res = solve(fx.problem, fx.params,
                    SolveConfig(n=4, mode="randomized", seed=1))
        probes = res.ledger.f_evals - res.config.n * res.config.m
        calls = res.config.n * res.k_rep * inner_rep_count(fx.problem.dim)
        assert probes <= calls


class TestDeterministicSolve:
    def test_exponential_endpoint(self):
        # closed form e^0.5 = 1.6487212707...
        fx = get_fixture("exp_flow_r1")
        res = solve(fx.problem, fx.params, SolveConfig(n=8, m=8, N=8))
        assert abs(res.y_grid[-1][0] - math.exp(0.5)) <= 1e-4

    def test_augmented_clock_component_exact(self):
        fx = get_fixture("cos_time")
        for mode in ("deterministic", "randomized", "quantum_sim"):
            res = solve(fx.problem, fx.params, SolveConfig(n=4, mode=mode, seed=3))
            ts = np.linspace(0, 1, 33)
            vals = res.approx.eval(ts)
            assert np.max(np.abs(vals[:, 0] - ts)) == 0.0
            assert np.max(np.abs(res.y_grid[:, 1] -
                                 np.sin(res.approx.mesh.x))) < 5e-2

    def test_ledger_decomposition_exact(self):
        # deterministic part: (1 + r) calls per fine piece, plus N residual
        # probes per piece for the full midpoint mean
        for name, n, m, N in [("sin_flow", 3, 4, 5), ("sin_flow_r1", 2, 6, 3)]:
            fx = get_fixture(name)
            res = solve(fx.problem, fx.params, SolveConfig(n=n, m=m, N=N))
            r = fx.params.r
            assert res.ledger.deriv_evals == r * n * m
            assert res.ledger.f_evals == n * m + n * m * N
            assert res.ledger.quantum_queries == 0

    def test_step_receipts_sum_to_ledger(self):
        fx = get_fixture("sin_flow")
        res = solve(fx.problem, fx.params, SolveConfig(n=4, m=4, N=4))
        assert sum(rec["f_evals"] for rec in res.step_receipts) == res.ledger.f_evals

    def test_telescoping_to_reference(self):
        # with exact means and a large midpoint count, the approximation
        # converges at rate h * hbar^(r+rho): with m = n each doubling of n
        # shrinks the sup error by 2^(2(r+rho)+1) = 32
        fx = get_fixture("sin_flow_r1")
        errs = []
        for n in (4, 8, 16):
            res = solve(fx.problem, fx.params, SolveConfig(n=n, m=n, N=64))
            errs.append(sup_error(res, fx.reference))
        assert errs[0] / errs[1] == pytest.approx(32, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(32, rel=0.25)

    def test_smallness_warning(self):
        fx = get_fixture("sin_flow")
        with pytest.warns(UserWarning, match="ln 2"):
            res = solve(fx.problem, fx.params, SolveConfig(n=1, m=2, N=2))
        assert res.warnings


class TestResidualItemBound:
    @pytest.mark.filterwarnings("ignore:step-smallness")
    @pytest.mark.parametrize("name", fixture_names())
    def test_items_within_declared_bound(self, monkeypatch, name):
        # every residual item of a deterministic solve obeys |item| <= bound,
        # the M the sampled backends calibrate on
        from rqode import solver
        families = []
        full = solver.full_mean

        def recording(family, *args, **kwargs):
            families.append(family)
            return full(family, *args, **kwargs)
        monkeypatch.setattr(solver, "full_mean", recording)
        fx = get_fixture(name)
        for n in (2, 4, 8):
            solve(fx.problem, fx.params, SolveConfig(n=n))
        assert len(families) == 2 + 4 + 8
        for fam in families:
            assert np.max(np.abs(fam.peek_all())) <= fam.bound


class TestLedgerInvariant:
    def test_tampered_receipts_raise(self, monkeypatch):
        # every step receipt under-reports one f evaluation
        delta_since = CostLedger.delta_since

        def short(self, snap):
            rec = delta_since(self, snap)
            rec["f_evals"] -= 1
            return rec
        monkeypatch.setattr(CostLedger, "delta_since", short)
        fx = get_fixture("sin_flow")
        with pytest.raises(RuntimeError, match="f_evals"):
            solve(fx.problem, fx.params,
                  SolveConfig(n=2, mode="randomized", seed=1))

    def test_check_kept_under_python_O(self):
        # the invariant is an explicit check, not an assert that -O strips
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from rqode.core import CostLedger\n"
            "from rqode.fixtures import get_fixture\n"
            "from rqode.solver import SolveConfig, solve\n"
            "assert False, 'asserts are live'\n"
            "orig = CostLedger.delta_since\n"
            "def short(self, snap):\n"
            "    rec = orig(self, snap)\n"
            "    rec['deriv_evals'] -= 1\n"
            "    return rec\n"
            "CostLedger.delta_since = short\n"
            "fx = get_fixture('sin_flow_r1')\n"
            "try:\n"
            "    solve(fx.problem, fx.params, SolveConfig(n=2))\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env=dict(os.environ, PYTHONPATH=str(src)),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "deriv_evals" in out.stdout


def clock_with_hole(r, hole, bad_order=0):
    """z' = 1 on [0, 1] whose order-``bad_order`` oracle is NaN where
    ``hole(y)``; the chain visits 0, 0.25, 0.5, 0.75 at n = m = 2."""
    def derivs(k, y):
        y = np.asarray(y, dtype=float)
        jet = [np.where(hole(y) & (bad_order == 0), np.nan, 1.0)]
        for q in range(1, k + 1):
            out = np.zeros(y.shape + (1,) * q)
            jet.append(np.where(hole(y).reshape(out.shape) & (bad_order == q),
                                np.nan, out))
        return jet
    params = HolderParams(r=r, rho=1.0, D=(1.0,) * (r + 1), H=1.0)
    return IvpProblem(1, derivs, [0.0], (0.0, 1.0)), params


class TestNonFinite:
    def _solve(self, prob, params, mode="deterministic"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return solve(prob, params, SolveConfig(n=2, m=2, N=2, mode=mode,
                                                   seed=3))

    @pytest.mark.parametrize("r, bad_order", [(0, 0), (1, 1)])
    def test_chain_rejected_at_its_coarse_step(self, r, bad_order):
        # the chain point 0.75 (step 1) is in the hole; no earlier point is
        prob, params = clock_with_hole(r, lambda y: y > 0.6, bad_order)
        with pytest.raises(ClassViolationError,
                           match=r"derivatives or the flow coefficients not "
                                 r"finite at coarse step 1$"):
            self._solve(prob, params)

    @pytest.mark.parametrize("mode", ["deterministic", "quantum_sim"])
    def test_residual_rejected_at_its_coarse_step(self, mode):
        # the fine-cell midpoint 0.3125 of step 0 is in the hole; no chain
        # point is
        prob, params = clock_with_hole(0, lambda y: (y > 0.3) & (y < 0.35))
        with pytest.raises(ClassViolationError,
                           match=r"fine-cell midpoints not finite at coarse "
                                 r"step 0$"):
            self._solve(prob, params, mode)

    def test_finite_field_passes(self):
        prob, params = clock_with_hole(1, lambda y: y > 2.0, 1)
        res = self._solve(prob, params)
        assert np.isfinite(res.y_grid).all()


class TestModeDegeneracy:
    def test_bit_for_bit_reproduction(self):
        # every one of the k boosted runs is clamped to the exact mean, so
        # their median is the deterministic estimate
        fx = get_fixture("sin_flow")
        n, m, N = 4, 4, 6
        s = m * N
        M = residual_bound(fx.params, 1)
        det = solve(fx.problem, fx.params, SolveConfig(n=n, m=m, N=N))
        rnd = solve(fx.problem, fx.params,
                    SolveConfig(n=n, mode="randomized", m=m, N=N,
                                eps1=2 * M / math.sqrt(s) * 0.999, seed=10))
        qt = solve(fx.problem, fx.params,
                   SolveConfig(n=n, mode="quantum_sim", m=m, N=N,
                               eps1=M / s * 0.999, seed=10))
        assert rnd.k_rep > 1 and qt.k_rep > 1
        assert np.array_equal(det.y_grid, rnd.y_grid)
        assert np.array_equal(det.y_grid, qt.y_grid)

    def test_deterministic_equivalent_rand_error(self):
        # with clamped sampling the second-moment error equals the
        # deterministic sup error, at the boosted k
        fx = get_fixture("sin_flow")
        n, m, N = 4, 4, 4
        M = residual_bound(fx.params, 1)
        cfg = SolveConfig(n=n, mode="randomized", m=m, N=N,
                          eps1=2 * M / math.sqrt(m * N) * 0.999, seed=0)
        stats = run_trials(fx.problem, fx.params, cfg, 3, fx.reference)
        assert stats.k_rep > 1
        err = rms_error(stats.errors)
        det = solve(fx.problem, fx.params, SolveConfig(n=n, m=m, N=N))
        assert err == sup_error(det, fx.reference)


class TestEvalAndSupError:
    def test_eval_at_left_endpoint(self):
        fx = get_fixture("sin_flow")
        res = solve(fx.problem, fx.params, SolveConfig(n=2, m=2, N=2))
        assert np.array_equal(res.approx.eval(0.0), fx.problem.eta)

    def test_sup_error_of_self_is_zero(self):
        fx = get_fixture("sin_flow")
        res = solve(fx.problem, fx.params, SolveConfig(n=2, m=2, N=2))
        assert sup_error(res, lambda t: res.approx.eval(t)) == 0.0

    def test_sup_error_constant_fixture(self):
        fx = get_fixture("constant")
        res = solve(fx.problem, fx.params, SolveConfig(n=3, m=2, N=2))
        assert sup_error(res, fx.reference) < 1e-14

    def test_exp_value_inside_interval(self):
        fx = get_fixture("exp_flow")
        res = solve(fx.problem, fx.params, SolveConfig(n=8, m=8, N=16))
        assert res.approx.eval(0.25)[0] == pytest.approx(math.exp(0.25), abs=1e-3)

    def test_order_ladder_cost_matched(self):
        # n = m = 8 versus n = m = 16: error drops by about 2^(2(r+rho)+1)
        fx = get_fixture("sin_flow")
        errs = []
        for n in (8, 16):
            res = solve(fx.problem, fx.params, SolveConfig(n=n, m=n, N=16))
            errs.append(sup_error(res, fx.reference))
        ratio = errs[0] / errs[1]
        target = 2.0 ** (2 * fx.params.order + 1)
        assert abs(math.log(ratio) - math.log(target)) <= 0.2 * math.log(target)

    def test_probe_count_validation(self):
        fx = get_fixture("sin_flow")
        res = solve(fx.problem, fx.params, SolveConfig(n=2, m=2, N=2))
        with pytest.raises(ValueError):
            sup_error(res, fx.reference, probe_count=1)
        with pytest.raises(ValueError, match=r"^probe_count must be a whole "
                           r"number, got 2\.5$"):
            sup_error(res, fx.reference, probe_count=2.5)
        assert sup_error(res, fx.reference, probe_count=256.0) == \
            sup_error(res, fx.reference)

    def test_misshapen_reference_rejected(self):
        # a reference giving (len(ts),) values for a d = 1 problem would
        # broadcast against the (len(ts), 1) approximation without a word
        fx = get_fixture("sin_flow")
        res = solve(fx.problem, fx.params, SolveConfig(n=2, m=2, N=2))
        with pytest.raises(ValueError, match=r"shape \(\d+,\); expected "
                           r"\(len\(ts\), d\) = \(\d+, 1\)"):
            sup_error(res, lambda t: np.squeeze(fx.reference(t), -1))


class TestTrialEstimates:
    def test_identical_trials_quantile(self):
        assert empirical_quantile(np.full(40, 0.125), 0.25) == 0.125

    def test_quantile_definition(self):
        errs = np.arange(1, 41, dtype=float)
        # smallest alpha with at most 25% exceedances among 40 trials
        assert empirical_quantile(errs, 0.25) == 30.0

    def test_constant_error_zero_all_modes(self):
        fx = get_fixture("constant")
        cfg = SolveConfig(n=3, mode="randomized", seed=8)
        err = rms_error(run_trials(fx.problem, fx.params, cfg, 4,
                                   fx.reference).errors)
        assert err < 1e-13

    def test_trials_reproducible(self):
        fx = get_fixture("sin_flow")
        cfg = SolveConfig(n=3, mode="quantum_sim", seed=21)
        s1 = run_trials(fx.problem, fx.params, cfg, 5, fx.reference)
        s2 = run_trials(fx.problem, fx.params, cfg, 5, fx.reference)
        assert np.array_equal(s1.errors, s2.errors)
        assert np.array_equal(s1.costs, s2.costs)

    def test_negative_seed_named(self):
        fx = get_fixture("sin_flow")
        with pytest.raises(ValueError, match="^seed must be a non-negative "
                           "integer, got -1$"):
            run_trials(fx.problem, fx.params, SolveConfig(n=2, seed=-1), 1,
                       fx.reference)

    def test_fractional_trial_count_named(self):
        fx = get_fixture("sin_flow")
        with pytest.raises(ValueError, match="^trials must be a whole "
                           "number, got 2.5$"):
            run_trials(fx.problem, fx.params, SolveConfig(n=2), 2.5,
                       fx.reference)

    def test_integral_float_trial_count_runs(self):
        fx = get_fixture("sin_flow")
        cfg = SolveConfig(n=2, mode="randomized", seed=5)
        s1 = run_trials(fx.problem, fx.params, cfg, 2.0, fx.reference)
        s2 = run_trials(fx.problem, fx.params, cfg, 2, fx.reference)
        assert s1.errors.shape == (2,)
        assert s1.errors.tobytes() == s2.errors.tobytes()
        assert s1.costs.tobytes() == s2.costs.tobytes()


def leaves(obj):
    """Every leaf value in a result's fields, recursively."""
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__"):
        obj = list(vars(obj).values())
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [leaf for item in obj for leaf in leaves(item)]
    return [obj]


def shares_a_buffer(value, workspace) -> bool:
    return any(np.shares_memory(value, buf)
               for buf in workspace._buffers.values())


def class_r2(name):
    # a stock oracle (it supplies orders 0..2) under an r = 2 class
    fx = get_fixture(name)
    return fx.problem, HolderParams(r=2, rho=1.0, D=(1.0,) * 3, H=1.0,
                                    component_H=fx.params.component_H)


# (d, r) in {(1, 0), (1, 1), (1, 2), (2, 1), (2, 2)}; exp_flow's f hands
# back its input
REUSE_PROBLEMS = {
    "sin_flow": lambda: (get_fixture("sin_flow").problem,
                         get_fixture("sin_flow").params),
    "exp_flow_r1": lambda: (get_fixture("exp_flow_r1").problem,
                            get_fixture("exp_flow_r1").params),
    "sin_flow_r2": lambda: class_r2("sin_flow"),
    "cos_time_r1": lambda: (get_fixture("cos_time_r1").problem,
                            get_fixture("cos_time_r1").params),
    "cos_time_r2": lambda: class_r2("cos_time"),
}


def residual_family(prob, params, m, N, workspace=None):
    # the first coarse step of a deterministic solve with m pieces, jets
    # refetched at the piece starts, and N midpoints per piece
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = solve(prob, params, SolveConfig(n=2, m=m, N=N))
    C = res.approx.coeffs[:m]
    jets = [np.stack(t) for t in
            zip(*(fetch_jet(prob, c[0], params.r) for c in C))]
    return ResidualFamily(prob, params, C, jets, res.approx.mesh.hbar, N,
                          CostLedger(), workspace=workspace)


def reference_items(fam, idx):
    """The residual items at ``idx`` by the textbook formula, in new arrays:
    f at the flow value minus the degree-r field expansion about the piece
    start, over hbar^(r+rho)."""
    j, k = np.divmod(idx, fam.n_mid)
    C = fam._C[j]
    Y = C[:, -1]
    for q in range(C.shape[1] - 2, -1, -1):
        Y = Y * ((k + 0.5) / fam.n_mid * fam._hbar)[:, None] + C[:, q]
    F = np.asarray(fam._problem.f(Y), dtype=float)
    delta = (Y - C[:, 0])[:, None, :]
    W = fam._T[0][j]
    if len(fam._T) >= 2:
        W = W + (fam._T[1][j] * delta).sum(-1)
    if len(fam._T) >= 3:
        W = W + 0.5 * (fam._T[2][j] * delta[..., None]
                       * delta[..., None, :]).sum((-2, -1))
    return (F - W) / fam._hbar ** fam._params.order


class TestBufferReuse:
    """One solve builds every step's residual family on one workspace: the
    reused buffers change no bit, and no estimate or result holds a view of
    them."""

    @pytest.mark.parametrize("name", sorted(REUSE_PROBLEMS))
    def test_reused_buffers_equal_fresh_ones(self, name):
        # a larger family, then a smaller one, leave their values in every
        # buffer; the next family's items equal a fresh family's and the
        # textbook formula's bit for bit, computed, tabulated and averaged
        prob, params = REUSE_PROBLEMS[name]()
        ws = Workspace()
        rng = np.random.default_rng(8)
        for m, N in ((12, 9), (3, 2)):
            fam = residual_family(prob, params, m, N, ws)
            fam.access(rng.integers(0, fam.size, 150))
            fam.tabulate()
        fam = residual_family(prob, params, 8, 5, ws)
        fresh = residual_family(prob, params, 8, 5)
        idx = rng.integers(-fam.size, fam.size, (3, 30))
        flat = idx.ravel()
        expected = reference_items(fresh, flat)
        assert fam.access(flat).tobytes() == expected.tobytes()
        assert fresh.access(flat).tobytes() == expected.tobytes()
        means = fresh.mean_at(idx).tobytes()
        assert fam.mean_at(idx).tobytes() == means
        all_items = reference_items(fresh, np.arange(fam.size)).tobytes()
        table = fam.tabulate()
        assert np.shares_memory(table, ws._buffers["table"])
        assert table.tobytes() == fresh.tabulate().tobytes() == all_items
        assert fam.mean_at(idx).tobytes() == means

    @pytest.mark.parametrize("name", ["sin_flow", "cos_time_r1"])  # d = 1, 2
    def test_own_workspace_reads_share_a_buffer(self, name):
        # a family built without a workspace computes in one of its own
        prob, params = REUSE_PROBLEMS[name]()
        fam = residual_family(prob, params, 8, 5)
        first = fam.access([0, 3, 7])
        assert np.shares_memory(first, fam.access([1, 2, 39]))

    @pytest.mark.filterwarnings("ignore:step-smallness")
    @pytest.mark.parametrize("name, mode, n", [
        ("sin_flow", "deterministic", 8),
        ("sin_flow", "randomized", 8),     # k runs read less: no table
        ("sin_flow", "quantum_sim", 8),
        ("cos_time_r1", "randomized", 8),  # enumerated from the table
        ("cos_time_r1", "randomized", 12),  # sampled from the table
        ("exp_flow_r1", "randomized", 4),  # f hands back its input
    ])
    def test_solve_holds_no_buffer_view(self, monkeypatch, name, mode, n):
        from rqode import solver
        fx = get_fixture(name)
        checked = []
        est_name = solver.get_backend(mode).estimator
        backend = getattr(solver, est_name)

        def checked_backend(family, *args, **kwargs):
            est = backend(family, *args, **kwargs)
            checked.append(not shares_a_buffer(est.value, family._workspace))
            return est
        made = []
        monkeypatch.setattr(solver, est_name, checked_backend)
        monkeypatch.setattr(solver, "Workspace",
                            lambda: made.append(Workspace()) or made[-1])
        res = solve(fx.problem, fx.params, SolveConfig(n=n, mode=mode,
                                                       seed=3))
        (ws,) = made
        assert ws._buffers and len(checked) == n and all(checked)
        arrays = [leaf for leaf in leaves(res)
                  if isinstance(leaf, np.ndarray)]
        assert any(a is res.approx.coeffs for a in arrays)
        assert not any(shares_a_buffer(leaf, ws) for leaf in arrays)


class TestErrorRecursionSanity:
    def test_per_step_defect_bounded(self):
        # measured-constant form of the one-step error inequality: the
        # defect beyond the Lipschitz growth of e_i is O(h^2 hbar^(r+rho))
        # plus the estimator tolerance contribution h hbar^(r+rho) eps1
        fx = get_fixture("sin_flow_r1")
        ref = reference_solver(fx.problem)
        L = fx.params.lipschitz
        # calibrate the constant on one configuration
        def defects(n, m, N):
            res = solve(fx.problem, fx.params, SolveConfig(n=n, m=m, N=N))
            mesh = res.approx.mesh
            e = np.max(np.abs(res.y_grid - ref(mesh.x)), axis=1)
            growth = 1.0 + mesh.h * L * math.exp(mesh.h * L)
            raw = e[1:] - growth * e[:-1]
            scale = mesh.h ** 2 * mesh.hbar ** fx.params.order
            return raw / scale
        cal = np.max(defects(4, 4, 32))
        for n, m in [(8, 4), (4, 8), (8, 8)]:
            assert np.max(defects(n, m, 32)) <= 1.5 * max(cal, 1e-9)
