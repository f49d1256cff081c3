import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rqode.core import CostLedger, residual_bound
from rqode.fixtures import fixture_names, get_fixture, reference_solver
from rqode.solver import (SolveConfig, empirical_quantile,
                          estimate_quant_error, estimate_rand_error,
                          run_trials, solve, sup_error)


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
        with pytest.raises(ValueError, match="ln 2"):
            solve(fx.problem, fx.params,
                  SolveConfig(n=1, m=2, N=2, strict=True))


class TestResidualItemBound:
    @pytest.mark.filterwarnings("ignore:step-smallness")
    @pytest.mark.parametrize("name", fixture_names())
    def test_items_within_declared_bound(self, monkeypatch, name):
        # every residual item of a deterministic solve obeys |item| <= bound,
        # the M the sampled backends calibrate on
        from rqode import solver
        families = []
        full = solver.full_mean

        def recording(family):
            families.append(family)
            return full(family)
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


class TestModeDegeneracy:
    def test_bit_for_bit_reproduction(self):
        fx = get_fixture("sin_flow")
        n, m, N = 4, 4, 6
        s = m * N
        M = residual_bound(fx.params, 1)
        det = solve(fx.problem, fx.params, SolveConfig(n=n, m=m, N=N))
        rnd = solve(fx.problem, fx.params,
                    SolveConfig(n=n, mode="randomized", m=m, N=N,
                                eps1=2 * M / math.sqrt(s) * 0.999,
                                k_override=1, seed=10))
        qt = solve(fx.problem, fx.params,
                   SolveConfig(n=n, mode="quantum_sim", m=m, N=N,
                               eps1=M / s * 0.999, k_override=1, seed=10))
        assert np.array_equal(det.y_grid, rnd.y_grid)
        assert np.array_equal(det.y_grid, qt.y_grid)

    def test_deterministic_equivalent_rand_error(self):
        # with clamped sampling and k = 1 the second-moment error equals the
        # deterministic sup error
        fx = get_fixture("sin_flow")
        n, m, N = 4, 4, 4
        M = residual_bound(fx.params, 1)
        cfg = SolveConfig(n=n, mode="randomized", m=m, N=N,
                          eps1=2 * M / math.sqrt(m * N) * 0.999,
                          k_override=1, seed=0)
        err = estimate_rand_error(fx.problem, fx.params, cfg, trials=3,
                                  reference=fx.reference)
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


class TestTrialEstimates:
    def test_identical_trials_quantile(self):
        assert empirical_quantile(np.full(40, 0.125), 0.25) == 0.125

    def test_quantile_definition(self):
        errs = np.arange(1, 41, dtype=float)
        # smallest alpha with at most 25% exceedances among 40 trials
        assert empirical_quantile(errs, 0.25) == 30.0

    def test_rand_error_requires_stochastic_mode(self):
        fx = get_fixture("sin_flow")
        with pytest.raises(ValueError):
            estimate_rand_error(fx.problem, fx.params,
                                SolveConfig(n=2, mode="deterministic"),
                                trials=2, reference=fx.reference)

    def test_quant_error_requires_enough_trials(self):
        fx = get_fixture("sin_flow")
        cfg = SolveConfig(n=2, mode="quantum_sim", seed=0)
        with pytest.raises(ValueError, match="trials"):
            estimate_quant_error(fx.problem, fx.params, cfg, trials=10,
                                 delta=0.25, reference=fx.reference)

    def test_constant_error_zero_all_modes(self):
        fx = get_fixture("constant")
        cfg = SolveConfig(n=3, mode="randomized", seed=8)
        err = estimate_rand_error(fx.problem, fx.params, cfg, trials=4,
                                  reference=fx.reference)
        assert err < 1e-13

    def test_trials_reproducible(self):
        fx = get_fixture("sin_flow")
        cfg = SolveConfig(n=3, mode="quantum_sim", seed=21)
        s1 = run_trials(fx.problem, fx.params, cfg, 5, fx.reference)
        s2 = run_trials(fx.problem, fx.params, cfg, 5, fx.reference)
        assert np.array_equal(s1.errors, s2.errors)
        assert np.array_equal(s1.costs, s2.costs)


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
