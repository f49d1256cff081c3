import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqode.core import CostLedger
from rqode.estimators import (ArrayFamily, IndexedFamily, MeanEstimate,
                              Workspace,
                              _median, _sample_size, binomial_fail_tail,
                              full_mean,
                              inner_rep_count, mc_mean, median_boost,
                              median_rep_count, quantum_sim_mean)
from rqode.fixtures import get_fixture
from rqode.rng import RngStream


def exact_tail(k):
    # independent oracle: P(Bin(k, 1/4) >= ceil(k/2)) by integer arithmetic
    t = math.ceil(k / 2)
    num = sum(math.comb(k, j) * 3 ** (k - j) for j in range(t, k + 1))
    return Fraction(num, 4 ** k)


class TestFullMean:
    def test_all_equal(self):
        fam = ArrayFamily(np.full((17, 2), 0.3))
        est = full_mean(fam)
        assert np.allclose(est.value, 0.3, rtol=1e-15, atol=0)
        assert est.cost["f_evals"] == 17
        assert est.success_prob == 1.0 and est.eps_target == 0.0

    def test_two_items(self):
        est = full_mean(ArrayFamily([0.0, 1.0]))
        assert est.value[0] == 0.5

    def test_matches_compensated_sum(self):
        rng = np.random.default_rng(123)
        vals = rng.uniform(-1, 1, size=1000)
        est = full_mean(ArrayFamily(vals))
        assert est.value[0] == pytest.approx(math.fsum(vals) / 1000, abs=1e-15)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            ArrayFamily(np.empty((0, 1)))

    @pytest.mark.parametrize("counts, name", [
        ((2.5, 3, 1), "cells"), ((2, 3.9, 1), "n_mid"), ((2, 3, 1.5), "dim")
    ], ids=["cells", "n_mid", "dim"])
    def test_fractional_counts_rejected(self, counts, name):
        # counts are never truncated: 2.5 cells is an error, not 2 cells
        with pytest.raises(ValueError, match="^%s must be a whole number, "
                                             "got" % name):
            IndexedFamily(*counts, 1.0)

    def test_k_runs_are_one_reduction(self):
        vals = np.random.default_rng(5).uniform(-1, 1, size=(37, 2))
        one = full_mean(ArrayFamily(vals))
        led = CostLedger()
        est = full_mean(ArrayFamily(vals, ledger=led), 0.3, RngStream(0, led),
                        k=5)
        assert est.value.tobytes() == one.value.tobytes()
        assert est.cost["f_evals"] == led.f_evals == 5 * 37
        assert led.rng_draws == 0
        assert est.success_prob == 1.0 and est.eps_target == 0.3
        with pytest.raises(ValueError, match="odd positive"):
            full_mean(ArrayFamily(vals), 0.3, None, k=4)


class TestMcMean:
    def test_all_equal_any_sample(self):
        fam = ArrayFamily(np.full((50, 1), 0.7))
        est = mc_mean(fam, eps1=0.3, rng=RngStream(0))
        assert est.value[0] == pytest.approx(0.7, rel=1e-14)

    def test_clamps_to_enumeration(self):
        # eps1 small enough that the sample-size formula reaches the family
        # size: sampling becomes enumeration and the mean is exact
        vals = np.tile([-1.0, 1.0], 50)
        fam = ArrayFamily(vals, bound=1.0)
        eps1 = 2.0 / math.sqrt(100) * 0.99
        est = mc_mean(fam, eps1, RngStream(1))
        assert est.value[0] == 0.0
        assert est.cost["f_evals"] == 100

    def test_sample_size_law(self):
        fam = ArrayFamily(np.zeros((10 ** 6, 1)), bound=1.0)
        est = mc_mean(fam, eps1=0.01, rng=RngStream(2))
        assert est.cost["f_evals"] == int(math.ceil((2.0 / 0.01) ** 2))

    def test_contract_on_solver_residuals(self):
        # residuals of one coarse block of the sin fixture; the estimate is
        # within eps1 of the exact mean in at least 75% of seeded trials
        from rqode.fixtures import get_fixture
        from rqode.solver import ResidualFamily
        from rqode.taylor import fetch_jet, flow_coeffs_from_jet
        fx = get_fixture("sin_flow")
        m, N = 400, 256
        hbar = 1.0 / m
        coeffs = np.empty((m, 2, 1))
        jets = [np.empty((m, 1))]
        y = fx.problem.eta.copy()
        for j in range(m):
            jet = fetch_jet(fx.problem, y, 0)
            coeffs[j] = flow_coeffs_from_jet(y, jet, 1)
            jets[0][j] = jet[0]
            y = coeffs[j][0] + hbar * coeffs[j][1]
        ledger = CostLedger()
        fam = ResidualFamily(fx.problem, fx.params, coeffs, jets, hbar, N, ledger)
        truth = fam.peek_all().mean(axis=0)
        eps1 = 0.01
        hits = 0
        rng = RngStream(99)
        for _ in range(400):
            est = mc_mean(fam, eps1, rng)
            hits += abs(est.value[0] - truth[0]) <= eps1
        assert hits / 400 >= 0.75

    def test_unbiased_over_many_trials(self):
        rng_data = np.random.default_rng(5)
        vals = rng_data.uniform(-1, 1, size=512)
        fam = ArrayFamily(vals, bound=1.0)
        truth = vals.mean()
        eps1 = 0.2
        sigma = int(math.ceil((2.0 / eps1) ** 2))
        trials = 10_000
        rng = RngStream(17)
        ests = np.array([mc_mean(fam, eps1, rng).value[0] for _ in range(trials)])
        se = vals.std() / math.sqrt(sigma * trials)
        assert abs(ests.mean() - truth) <= 3.0 * se

    def test_zero_bound_shortcut(self):
        fam = ArrayFamily(np.zeros((40, 1)), bound=0.0)
        est = mc_mean(fam, 0.5, RngStream(0))
        assert est.value[0] == 0.0
        assert est.cost["f_evals"] == 0

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            mc_mean(ArrayFamily([1.0]), 0.0, RngStream(0))


class TestQuantumSimMean:
    def test_cost_law_exact_on_grid(self):
        # cost = min(s, ceil(c_q * M / eps1)) exactly
        for s in (1, 7, 100, 4096, 10 ** 6):
            for eps1 in (1e-4, 1e-3, 0.05, 0.5, 2.0):
                for M in (0.5, 1.0, 2.0):
                    fam = ArrayFamily(np.zeros((s, 1)), bound=M)
                    est = quantum_sim_mean(fam, eps1, RngStream(3))
                    assert est.cost["quantum_queries"] == \
                        min(s, int(math.ceil(M / eps1)))

    def test_large_tolerance_cheap(self):
        fam = ArrayFamily(np.zeros((10 ** 6, 1)), bound=1.0)
        est = quantum_sim_mean(fam, 1e-3, RngStream(0))
        assert est.cost["quantum_queries"] == 1000

    def test_success_probability_constant_family(self):
        fam = ArrayFamily(np.full((1000, 1), 0.6), bound=1.0)
        rng = RngStream(42)
        hits = sum(abs(quantum_sim_mean(fam, 0.05, rng).value[0] - 0.6) <= 0.05
                   for _ in range(400))
        # modeled success is exactly 3/4; allow 4 sigma of binomial noise
        assert hits / 400 >= 0.75 - 4 * math.sqrt(0.75 * 0.25 / 400)

    def test_degenerate_tolerance_indistinguishable(self):
        # eps1 >= 2M: even the failure branch stays within eps1 after clamping
        fam = ArrayFamily(np.full((50, 1), 0.3), bound=0.5)
        rng = RngStream(11)
        for _ in range(300):
            est = quantum_sim_mean(fam, 1.2, rng)
            assert abs(est.value[0] - 0.3) <= 1.2

    def test_clamp_box(self):
        fam = ArrayFamily(np.full((50, 1), 0.9), bound=1.0)
        rng = RngStream(12)
        for _ in range(200):
            est = quantum_sim_mean(fam, 0.5, rng)
            assert abs(est.value[0]) <= 2.0

    def test_exact_when_cost_clamps(self):
        # the median of k exact runs is exact too: success 1.0 at every k
        vals = np.linspace(-0.5, 0.5, 64)
        for k in (1, 5):
            fam = ArrayFamily(vals, bound=1.0)
            est = quantum_sim_mean(fam, eps1=1.0 / 64 * 0.99,
                                   rng=RngStream(0), k=k)
            assert est.value[0] == vals.mean()
            assert est.success_prob == 1.0, k
            assert est.cost["quantum_queries"] == k * 64

    def test_clamped_runs_keep_a_negative_zero(self):
        # the smallest negative subnormal over 3 items: the mean rounds to
        # -0.0, and the median of k exact runs is the first run, sign kept
        fam = ArrayFamily([-5e-324, 0.0, 0.0], bound=1.0)
        for k in (1, 5):
            est = quantum_sim_mean(fam, 1e-3, RngStream(0), k=k)
            assert est.value[0] == 0.0 and np.signbit(est.value[0]), k
            assert est.success_prob == 1.0

    def test_sim_evals_audited_not_charged(self):
        led = CostLedger()
        fam = ArrayFamily(np.zeros((100, 1)), bound=1.0, ledger=led)
        quantum_sim_mean(fam, 0.1, RngStream(0, led))
        assert led.sim_evals == 100
        assert led.f_evals == 0
        assert led.total == led.quantum_queries

    def test_zero_component_bound_is_exact(self):
        fam = ArrayFamily(np.zeros((100, 2)), bound=1.0)
        fam.bound_vec = np.array([0.0, 1.0])
        est = quantum_sim_mean(fam, 0.05, RngStream(9))
        assert est.value[0] == 0.0

    def test_vector_run_succeeds_in_max_norm(self):
        # d = 2: the inner median of reps = 5 draws holds each component's
        # miss rate near 0.1 (<= 1/8), so a run misses in max norm w.p.
        # <= 1/4; without it the miss rate would be 1 - (3/4)^2 = 0.44
        fam = ArrayFamily(np.full((1000, 2), 0.3), bound=1.0)
        rng = RngStream(13)
        misses = sum(np.max(np.abs(quantum_sim_mean(fam, 0.05, rng).value
                                   - 0.3)) > 0.05 for _ in range(400))
        assert misses / 400 <= 0.25 + 4 * math.sqrt(0.25 * 0.75 / 400)


class TestMedianBoost:
    def test_k1_identical_to_base(self):
        fam = ArrayFamily(np.linspace(-1, 1, 33), bound=1.0)
        e1 = mc_mean(fam, 0.4, RngStream(77))
        e2 = median_boost(mc_mean, fam, 0.4, 1, RngStream(77))
        assert e1.value[0] == e2.value[0]

    def test_median_of_stubbed_sequence(self):
        outputs = iter([np.array([0.9]), np.array([1.0]), np.array([5.0])])

        def stub(family, eps1, rng):
            return MeanEstimate(value=next(outputs), cost={}, eps_target=eps1,
                                success_prob=0.75)
        fam = ArrayFamily([0.0])
        est = median_boost(stub, fam, 0.1, 3, RngStream(0))
        assert est.value[0] == 1.0

    def test_first_run_exact_later_sampled_takes_the_median(self):
        # only k exact runs pass the first one through
        runs = iter([(5.0, 1.0), (0.9, 0.75), (1.0, 0.75)])

        def stub(family, eps1, rng):
            value, success = next(runs)
            return MeanEstimate(value=np.array([value]), cost={},
                                eps_target=eps1, success_prob=success)
        est = median_boost(stub, ArrayFamily([0.0]), 0.1, 3, RngStream(0))
        assert est.value[0] == 1.0
        assert est.success_prob == 1.0 - float(binomial_fail_tail(3))

    def test_exact_base_stays_exact(self):
        vals = np.linspace(-0.5, 0.5, 64)
        est = median_boost(full_mean, ArrayFamily(vals), 0.1, 5, RngStream(0))
        assert est.value[0] == vals.mean()
        assert est.success_prob == 1.0
        assert est.cost["f_evals"] == 5 * 64

    def test_exact_base_keeps_a_negative_zero(self):
        fam = ArrayFamily([-5e-324, 0.0, 0.0])
        assert np.signbit(full_mean(fam).value[0])
        est = median_boost(full_mean, fam, 0.1, 5, RngStream(0))
        assert est.value[0] == 0.0 and np.signbit(est.value[0])
        assert est.success_prob == 1.0

    def test_cost_sums_over_repetitions(self):
        fam = ArrayFamily(np.zeros((10 ** 6, 1)), bound=1.0)
        est = median_boost(quantum_sim_mean, fam, 1e-2, 5, RngStream(4))
        assert est.cost["quantum_queries"] == 5 * 100

    def test_quantum_boost_k15_empirical(self):
        # 3/4-success base boosted by a 15-fold median: empirical success
        # exceeds 0.99 over 1000 seeded trials
        fam = ArrayFamily(np.full((10 ** 5, 1), 0.25), bound=1.0)
        rng = RngStream(2024)
        eps1 = 0.01
        hits = sum(
            abs(median_boost(quantum_sim_mean, fam, eps1, 15, rng).value[0]
                - 0.25) <= eps1
            for _ in range(1000))
        assert hits / 1000 >= 0.99

    def test_even_k_rejected(self):
        fam = ArrayFamily([1.0])
        with pytest.raises(ValueError):
            median_boost(mc_mean, fam, 0.1, 4, RngStream(0))

    def test_runs_draw_in_turn_from_one_stream(self):
        seen, draws = [], []

        def stub(family, eps1, rng):
            seen.append(rng)
            draws.append(rng.uniform())
            return MeanEstimate(value=np.zeros(1), cost={}, eps_target=eps1,
                                success_prob=0.75)
        rng = RngStream(31)
        median_boost(stub, ArrayFamily([0.0]), 0.1, 7, rng)
        assert len(seen) == 7 and all(s is rng for s in seen)
        fresh = RngStream(31)
        assert draws == [fresh.uniform() for _ in range(7)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rng_draws_of_one_boost(self, dim):
        # sigma = (2/0.4)^2 = 25 < s = 400 and q = ceil(1/0.4) = 3 < s
        k, reps = 5, inner_rep_count(dim)
        vals = np.random.default_rng(4).uniform(-1, 1, size=(400, dim))
        for base, per_run in ((mc_mean, reps * 25),
                              (quantum_sim_mean, 3 * reps * dim)):
            led = CostLedger()
            fam = ArrayFamily(vals, bound=1.0, ledger=led)
            median_boost(base, fam, 0.4, k, RngStream(6, led))
            assert led.rng_draws == k * per_run

    def test_in_turn_quantum_runs_fail_a_quarter(self):
        # 800 boosts of k = 5 runs on one stream: each run misses the true
        # mean by more than eps1 w.p. 1/4 * (1 - eps1/2) = 0.24875
        fam = ArrayFamily(np.full((1000, 1), 0.25), bound=1.0)
        misses = []

        def run(family, eps1, rng):
            est = quantum_sim_mean(family, eps1, rng)
            misses.append(abs(est.value[0] - 0.25) > eps1)
            return est
        rng = RngStream(2026)
        for _ in range(800):
            median_boost(run, fam, 0.01, 5, rng)
        assert len(misses) == 4000
        assert abs(np.mean(misses) - 0.25) <= 0.03


class TestOddMedian:
    """``_median``, the median of the k runs and of the inner repetitions,
    against ``np.median``."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("k", range(1, 22, 2))
    def test_bit_equal_to_np_median(self, k, axis):
        rng = np.random.default_rng(100 * k + axis)
        shape = [4, 3, 2]
        shape[axis] = k
        for _ in range(5):
            block = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8)
            assert (_median(block, axis).tobytes()
                    == np.median(block, axis=axis).tobytes())

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nan_run_gives_nan(self, axis):
        # one NaN run in a column is NaN there, as with np.median, even
        # when the middle element of the partition is a number
        block = np.random.default_rng(9).standard_normal((9, 9))
        block[0, 2] = block[3, 2] = block[2, 5] = np.nan
        if axis == 1:
            block = block.T
        med = _median(block, axis)
        assert np.isnan(med).tolist() == np.isnan(
            np.median(block, axis=axis)).tolist()
        assert np.flatnonzero(np.isnan(med)).tolist() == [2, 5]
        others = ~np.isnan(med)
        assert (med[others].tobytes()
                == np.median(block, axis=axis)[others].tobytes())

    def test_negative_zero_keeps_its_sign(self):
        # np.median's mean of the one middle element turns it into +0.0
        med = _median(np.array([[-0.0, 1.0], [-0.0, -2.0], [3.0, -0.0]]))
        assert med.tolist() == [0.0, 0.0]
        assert np.signbit(med).tolist() == [True, True]


class TestRepetitionCounts:
    def test_single_call_suffices_at_quarter(self):
        # one 3/4-success call meets delta = 1/4 for n = 1
        assert median_rep_count(1, 0.25) == 1

    def test_fractional_estimate_count_named(self):
        with pytest.raises(ValueError,
                           match=r"^n must be a whole number, got 2\.5$"):
            median_rep_count(2.5, 0.1)
        assert median_rep_count(3.0, 0.1) == median_rep_count(3, 0.1)

    def test_exact_tail_values(self):
        # frozen from the exact binomial oracle (see exact_tail above)
        assert exact_tail(9) == Fraction(12826, 262144)
        assert float(exact_tail(9)) == pytest.approx(0.04892730712890625)
        assert float(exact_tail(15)) == pytest.approx(0.017299838364124298)
        for k in (1, 3, 9, 15, 21):
            assert binomial_fail_tail(k) == exact_tail(k)

    def test_smallest_odd_k_against_oracle(self):
        # independent scan with the oracle tail
        def oracle(n, delta):
            target = 1 - (1 - delta) ** (1.0 / n)
            k = 1
            while exact_tail(k) > target:
                k += 2
            return k
        for n, delta in [(1, 0.25), (1, 0.1), (1, 0.01), (4, 0.25),
                         (16, 0.25), (17, 0.1), (100, 0.05)]:
            assert median_rep_count(n, delta) == oracle(n, delta)

    def test_frozen_values(self):
        assert median_rep_count(1, 0.1) == 7
        assert median_rep_count(1, 0.01) == 19
        assert median_rep_count(4, 0.25) == 9
        assert median_rep_count(16, 0.25) == 15

    @given(st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_n(self, n1, n2):
        if n1 > n2:
            n1, n2 = n2, n1
        assert median_rep_count(n1, 0.2) <= median_rep_count(n2, 0.2)

    @given(st.floats(0.01, 0.49), st.floats(0.01, 0.49))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_delta(self, d1, d2):
        if d1 < d2:
            d1, d2 = d2, d1
        assert median_rep_count(5, d1) <= median_rep_count(5, d2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            median_rep_count(0, 0.1)
        with pytest.raises(ValueError):
            median_rep_count(3, 0.5)
        with pytest.raises(ValueError):
            median_rep_count(3, 0.0)

    def test_inner_reps(self):
        assert inner_rep_count(1) == 1
        assert inner_rep_count(2) == 5  # first odd k with tail <= 1/8

    def test_inner_reps_need_a_count(self):
        # the search has no d <= 1 shortcut, so d = 0 is a named error
        with pytest.raises(ValueError,
                           match=r"^dim must be a positive integer, got 0$"):
            inner_rep_count(0)

    def test_counts_pinned(self):
        # both counts are one search for the smallest odd k; recorded from
        # the two searches it replaced
        assert [inner_rep_count(d) for d in range(1, 65)] == (
            [1, 5, 7, 9, 9, 11, 11] + [13] * 3 + [15] * 4 + [17] * 6
            + [19] * 8 + [21] * 10 + [23] * 15 + [25] * 11)
        ns = (1, 2, 3, 4, 8, 16, 64, 256, 1024)
        deltas = (0.01, 0.05, 0.1, 0.25, 0.49)
        assert [[median_rep_count(n, d) for d in deltas] for n in ns] == [
            [19, 9, 7, 1, 1], [23, 13, 9, 5, 1], [27, 17, 11, 7, 3],
            [27, 17, 13, 9, 5], [33, 23, 17, 11, 7], [37, 27, 21, 15, 11],
            [45, 35, 31, 25, 19], [55, 45, 39, 33, 27], [63, 53, 49, 41, 37]]


class TestCostExactness:
    def test_no_hidden_accesses(self):
        # the reported receipt equals the instrumented ledger delta
        led = CostLedger()
        fam = ArrayFamily(np.linspace(-1, 1, 2048), bound=1.0, ledger=led)
        before = led.snapshot()
        est = mc_mean(fam, 0.05, RngStream(0, led))
        delta = led.delta_since(before)
        assert est.cost["f_evals"] == delta["f_evals"]
        assert delta["f_evals"] == int(math.ceil((2.0 / 0.05) ** 2))

    @pytest.mark.parametrize("eps1", [1e-160, 5e-324])
    @pytest.mark.parametrize("backend, counter", [
        (mc_mean, "f_evals"), (quantum_sim_mean, "quantum_queries")])
    def test_tiny_tolerance_enumerates(self, backend, counter, eps1):
        # (2M/eps1)^2 overflows a float and M/eps1 is inf at 5e-324: a run
        # that would charge more than s items charges s and is exact
        vals = np.linspace(-0.7, 0.7, 61)
        est = backend(ArrayFamily(vals, bound=1.0), eps1, RngStream(0))
        assert est.value[0] == full_mean(ArrayFamily(vals)).value[0]
        assert est.cost[counter] == 61
        assert est.success_prob == 1.0

    def test_full_vs_clamped_mc_equivalence(self):
        # when the sample-size formula clamps, mc enumerates: identical to
        # full_mean bit for bit
        vals = np.linspace(-0.7, 0.7, 61)
        f1 = ArrayFamily(vals, bound=1.0)
        f2 = ArrayFamily(vals, bound=1.0)
        a = full_mean(f1)
        b = mc_mean(f2, eps1=2.0 / math.sqrt(61) * 0.9, rng=RngStream(0))
        assert a.value[0] == b.value[0]


class _Captured(Exception):
    pass


def _first_family(monkeypatch, module, name, run):
    """The (family, eps1) of the first call to ``module.name`` during run()."""
    def stop(*args, **kwargs):
        raise _Captured(args[0], args[1])
    monkeypatch.setattr(module, name, stop)
    with pytest.raises(_Captured) as info:
        run()
    return info.value.args


class CountingFamily(ArrayFamily):
    """Counts the items its ``_items`` is asked for."""

    computed = 0

    def _items(self, i, k):
        self.computed += np.broadcast(i, k).size
        return super()._items(i, k)


class UntabulatedFamily(ArrayFamily):
    """Never builds an item table: every access computes its items."""

    def tabulate(self):
        return None


class TestItemTable:
    def _residual_family(self, monkeypatch):
        # cos_time_r1 randomized n=12: sigma = 9,216 < s = 20,736
        from rqode import solver
        fx = get_fixture("cos_time_r1")
        return _first_family(monkeypatch, solver, "mc_mean", lambda: (
            solver.solve(fx.problem, fx.params,
                         solver.SolveConfig(n=12, mode="randomized"))))

    def _cell_family(self, monkeypatch):
        # inv1p_r1's randomized defect estimate at y = 1.2, eps1 = 1e-4, on
        # a workspace of its own, as a bisection builds it
        from rqode import scalar
        fx = get_fixture("inv1p_r1")
        span = fx.params.D[0] * (fx.problem.b - fx.problem.a)
        inv = scalar.inverse_class_params(fx.params, span)
        return _first_family(monkeypatch, scalar, "mc_mean", lambda: (
            scalar._defect(fx.problem, fx.params, 1.2, 1e-4,
                           scalar.get_backend("randomized"), inv, 1,
                           RngStream(3), CostLedger(), Workspace())))

    @pytest.mark.parametrize("which", ["residual", "cell"])
    def test_tabulate_bit_identical_to_compute(self, monkeypatch, which):
        fam, _ = (self._residual_family(monkeypatch) if which == "residual"
                  else self._cell_family(monkeypatch))
        # a copy: on a workspace, tabulate() reuses the buffer that holds
        # what access returned
        whole = fam.access(np.arange(fam.size)).copy()
        assert fam.tabulate().tobytes() == whole.tobytes()

    def test_access_charges_per_index_from_table(self):
        led = CostLedger()
        fam = CountingFamily(np.linspace(-1, 1, 40), bound=1.0, ledger=led)
        fam.tabulate()
        assert fam.computed == 40 and led.f_evals == 0
        out = fam.access(np.array([3, 3, 39]))
        assert out[:, 0].tolist() == fam._values[[3, 3, 39], 0].tolist()
        assert led.f_evals == 3 and fam.computed == 40

    def test_boosted_runs_share_one_table(self):
        # d = 2: reps = 5 inner medians of sigma = (2/0.4)^2 = 25 draws each,
        # so one run reads 125 >= s = 100 items and tabulates the family
        vals = np.random.default_rng(1).uniform(-1, 1, size=(100, 2))
        fam = CountingFamily(vals, bound=1.0)
        est = median_boost(mc_mean, fam, 0.4, 5, RngStream(8))
        assert fam.computed == 100
        assert est.cost["f_evals"] == 5 * 5 * 25
        plain = UntabulatedFamily(vals, bound=1.0)
        ref = median_boost(mc_mean, plain, 0.4, 5, RngStream(8))
        assert est.value.tobytes() == ref.value.tobytes()
        assert est.cost == ref.cost

    def test_boosted_runs_tabulate_up_front(self):
        # d = 1: reps = 1 and sigma = (2/0.4)^2 = 25, so one run reads
        # 25 < s = 100 items but the k = 5 runs read 125 >= s together
        vals = np.random.default_rng(3).uniform(-1, 1, 100)
        fam = CountingFamily(vals, bound=1.0)
        est = mc_mean(fam, 0.4, RngStream(9), k=5)
        assert fam._table is not None and fam.computed == 100
        assert est.cost["f_evals"] == 5 * 25
        plain = UntabulatedFamily(vals, bound=1.0)
        ref = median_boost(mc_mean, plain, 0.4, 5, RngStream(9))
        assert est.value.tobytes() == ref.value.tobytes()
        assert est.cost == ref.cost

    def test_cell_family_tabulated_for_boosted_runs(self, monkeypatch):
        # inv1p_r1 at y = 1.2, eps1 = 1e-4: sigma < s <= 23 * sigma, so the
        # 23 runs of a boosted estimate share one table
        fam, eps1 = self._cell_family(monkeypatch)
        twin, _ = self._cell_family(monkeypatch)
        twin.tabulate = lambda: None
        k = 23
        sigma = _sample_size(fam, eps1)
        assert sigma < fam.size <= k * sigma
        est = mc_mean(fam, eps1, RngStream(5), k=k)
        assert fam._table is not None
        assert est.cost["f_evals"] == k * sigma
        ref = median_boost(mc_mean, twin, eps1, k, RngStream(5))
        assert twin._table is None
        assert est.value.tobytes() == ref.value.tobytes()
        assert est.cost == ref.cost

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_quantum_boost_books_sim_evals_once(self, dim):
        # q = ceil(1/0.05) = 20 < s = 400: every run perturbs the exact
        # mean, whose items are computed once and booked as s sim_evals once
        vals = np.linspace(-1, 1, 400 * dim).reshape(400, dim) ** 3
        fam = CountingFamily(vals, bound=1.0)
        est = median_boost(quantum_sim_mean, fam, 0.05, 7, RngStream(2))
        assert est.cost["sim_evals"] == 400
        assert est.cost["quantum_queries"] == 7 * 20
        assert fam.computed == 400
        assert fam.exact_mean().tobytes() == vals.mean(axis=0).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tabulated_read_copies_no_items(self, dim):
        # the table is the one copy of the items: a first read from it
        # allocates far less than another s * d floats
        fam = ArrayFamily(np.random.default_rng(dim).uniform(
            -1, 1, size=(4096, dim)))
        fam.tabulate()
        tracemalloc.start()
        try:
            fam.mean_at(np.arange(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fam.size * dim * 8 / 2

    def test_no_table_when_one_run_reads_less(self):
        vals = np.random.default_rng(2).uniform(-1, 1, size=(1000, 2))
        fam = CountingFamily(vals, bound=1.0)
        est = median_boost(mc_mean, fam, 0.4, 5, RngStream(8))
        assert fam._table is None
        assert fam.computed == est.cost["f_evals"] == 5 * 5 * 25

    def test_enumeration_tabulates_once(self):
        fam = CountingFamily(np.linspace(-1, 1, 30), bound=1.0)
        est = median_boost(mc_mean, fam, 0.01, 7, RngStream(0))
        assert fam.computed == 30
        assert est.cost["f_evals"] == 7 * 30

    def test_peek_all_after_tabulate_books_sim_evals_once(self):
        led = CostLedger()
        fam = CountingFamily(np.linspace(-1, 1, 50), bound=1.0, ledger=led)
        table = fam.tabulate()
        assert led.sim_evals == 0
        assert fam.peek_all() is table
        fam.peek_all()
        assert led.sim_evals == 50 and led.f_evals == 0
        assert fam.computed == 50


class TestMeanAt:
    """``mean_at`` reads and reduces in one step, bit for bit like
    ``access(idx).mean(axis=0)`` and with the same charge."""

    @given(dim=st.integers(1, 4), size=st.integers(1, 3000),
           sigma=st.integers(1, 20000), tabulated=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_access_mean(self, dim, size, sigma, tabulated, seed):
        gen = np.random.default_rng(seed)
        vals = gen.standard_normal((size, dim)) * 10.0 ** gen.uniform(-3, 3)
        led = CostLedger()
        fam = ArrayFamily(vals, ledger=led)
        if tabulated:
            fam.tabulate()
        idx = gen.integers(0, size, size=sigma)
        got = fam.mean_at(idx)
        assert led.f_evals == sigma
        ref = fam.access(idx).mean(axis=0)
        assert led.f_evals == 2 * sigma
        assert got.shape == (dim,)
        assert got.tobytes() == ref.tobytes()
        assert got.tobytes() == vals[idx].mean(axis=0).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("tabulated", [False, True])
    def test_special_values_keep_bytes(self, dim, tabulated):
        # a pair of components is summed as one complex128 column: each
        # component, first or second of its pair or an odd d's last, keeps
        # its own sum, its infinities and its NaN, and starts from +0.0 as
        # numpy's mean does, so rows of -0.0 average to +0.0
        gen = np.random.default_rng(dim)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])
        vals = gen.choice(special, size=(40, dim))
        vals[:8] = -0.0
        vals[8:16] = gen.choice([0.0, -0.0], size=(8, dim))
        vals[16:24] = gen.choice([np.inf, 1.0, -0.0], size=(8, dim))
        vals[24:28, -1] = -np.inf
        idx = np.stack([gen.integers(0, 8, 30), gen.integers(0, 16, 30),
                        gen.integers(8, 24, 30), gen.integers(16, 28, 30),
                        gen.integers(0, 40, 30)])
        fam = ArrayFamily(vals, bound=1.0)
        if tabulated:
            fam.tabulate()
        ref = np.stack([vals[row].mean(axis=0) for row in idx])
        assert (ref[0] == 0.0).all() and not np.signbit(ref[0]).any()
        assert np.isnan(ref[4]).any()
        assert np.isposinf(ref[2]).any() and np.isnan(ref[3, -1])
        assert fam.mean_at(idx).tobytes() == ref.tobytes()
        for row, want in zip(idx, ref):
            assert fam.mean_at(row).tobytes() == want.tobytes()
        assert fam.exact_mean().tobytes() == vals.mean(axis=0).tobytes()
        assert fam.mean_at(idx).tobytes() == ref.tobytes()  # from the table

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_index_out_of_range_raises(self, tabulated):
        # numpy's bounds, [-s, s), with a table or without one
        led = CostLedger()
        fam = ArrayFamily(np.arange(10.0), ledger=led)
        if tabulated:
            fam.tabulate()
        for bad in (10, -11):
            with pytest.raises(IndexError):
                fam.access([0, bad])
            with pytest.raises(IndexError):
                fam.mean_at([[0, 1], [bad, 2]])
        assert led.f_evals == 0
        assert fam.mean_at([[-1, -10]]).tolist() == [[4.5]]

    def test_boosted_tabulated_d2_keeps_bytes(self):
        # d = 2: sigma = (2/0.2)^2 = 100 and reps = 5, so one run reads
        # 500 >= s = 400 items and every draw is reduced from the table; the
        # value was recorded when the k runs drew in turn from one stream,
        # and it equals the untabulated twin's (sigma, 2) row gathers
        # reduced by .mean(axis=0)
        vals = np.random.default_rng(5).uniform(-1, 1, size=(400, 2))
        led = CostLedger()
        fam = ArrayFamily(vals, bound=1.0, ledger=led)
        est = median_boost(mc_mean, fam, 0.2, 5, RngStream(17, led))
        assert fam._table is not None
        assert [float(v).hex() for v in est.value] == [
            "-0x1.fb53490fbbc28p-5", "-0x1.08565a2c3e81dp-4"]
        assert est.cost == {"f_evals": 2500, "deriv_evals": 0,
                            "quantum_queries": 0, "rng_draws": 2500,
                            "sim_evals": 0}
        twin_led = CostLedger()
        twin = UntabulatedFamily(vals, bound=1.0, ledger=twin_led)
        ref = median_boost(mc_mean, twin, 0.2, 5, RngStream(17, twin_led))
        assert twin._table is None
        assert ref.value.tobytes() == est.value.tobytes()
        assert ref.cost == est.cost


class TestOneReadPath:
    """``access`` is the one place that reads and charges items, and every
    layout reduces to ``exact_mean``'s bits."""

    def test_access_sees_every_charged_read(self, monkeypatch):
        # wrapped as an instrumenting tracer wraps it: the indices it sees
        # sum to what each read charged, tabulated or not, for d = 1 and 2,
        # 1-D and (rows, sigma) blocks, mc_mean draws and full_mean
        seen = []
        access = IndexedFamily.access

        def counted(family, idx):
            seen.append(np.size(idx))
            return access(family, idx)
        monkeypatch.setattr(IndexedFamily, "access", counted)
        gen = np.random.default_rng(11)
        reads = {
            "block": lambda fam: fam.mean_at(gen.integers(0, fam.size, 300)),
            "rows": lambda fam: fam.mean_at(
                gen.integers(0, fam.size, (3, 100))),
            "mc_mean": lambda fam: mc_mean(fam, 0.5, RngStream(2), k=3),
            "full_mean": lambda fam: full_mean(fam),
        }
        for dim in (1, 2):
            for tabulated in (False, True):
                for name, read in reads.items():
                    led = CostLedger()
                    fam = ArrayFamily(gen.uniform(-1, 1, (2000, dim)),
                                      bound=1.0, ledger=led)
                    if tabulated:
                        fam.tabulate()
                    seen.clear()
                    read(fam)
                    assert led.f_evals > 0
                    assert sum(seen) == led.f_evals, (dim, tabulated, name)

    def test_peek_all_mean_is_exact_mean(self):
        # the table is (s, d) rows, so numpy's own mean of it sums as
        # exact_mean does, bit for bit
        for dim in (1, 2, 3):
            vals = np.random.default_rng(dim).standard_normal(
                (65536, dim)) * 1e3
            fam = ArrayFamily(vals)
            truth = fam.peek_all().mean(axis=0)
            assert truth.tobytes() == fam.exact_mean().tobytes(), dim


class TestOneBufferRule:
    """Every family computes in a workspace, its own unless it is given
    one: what ``access`` returns is scratch, valid until the next read, and
    ``mean_at`` reduces it in place; the table lasts the family's life."""

    def test_tabulated_reads_share_a_buffer(self):
        vals = np.random.default_rng(4).uniform(-1, 1, (60, 2))
        fam = ArrayFamily(vals)
        table = fam.tabulate()
        first = fam.access([0, 1, 2])
        assert np.shares_memory(first, fam.access([57, 58, 59]))
        fam.mean_at(np.arange(60).reshape(3, 20))
        full_mean(fam)
        assert fam.tabulate() is table
        assert table.tobytes() == vals.tobytes()

    def test_untabulated_d2_mean_at_reduces_in_place(self, monkeypatch):
        from rqode import estimators
        handed = []
        row_means = estimators._row_means

        def recorded(items, out=None):
            handed.append(out is items)
            return row_means(items, out)
        monkeypatch.setattr(estimators, "_row_means", recorded)
        vals = np.random.default_rng(5).uniform(-1, 1, (500, 2))
        fam = ArrayFamily(vals)
        idx = np.random.default_rng(6).integers(0, 500, 300)
        got = fam.mean_at(idx)
        assert fam._table is None and handed == [True]
        assert got.tobytes() == vals[idx].mean(axis=0).tobytes()


class TestBoostedRuns:
    """``mc_mean`` and ``quantum_sim_mean`` with ``k`` runs equal
    ``median_boost`` over k single runs bit for bit, in every regime."""

    EPS1 = 0.4          # sigma = (2/0.4)^2 = 25 and q = ceil(1/0.4) = 3

    @staticmethod
    def _family(regime, dim, k):
        """(base, size, bound) putting the k-form of base in ``regime``."""
        reps = inner_rep_count(dim)
        return {
            "bound_zero": (mc_mean, 40, 0.0),
            "enumeration": (mc_mean, 20, 1.0),
            "table_blocks": (mc_mean, max(2, k // 3) * reps * 25 + 1, 1.0),
            "table_one_run_per_block": (mc_mean, reps * 25 + 1, 1.0),
            "untabulated": (mc_mean, k * reps * 25 + 1, 1.0),
            "quantum_exact": (quantum_sim_mean, 3, 1.0),
            "quantum_sampled": (quantum_sim_mean, 50, 1.0),
        }[regime]

    @staticmethod
    def _regime(base, fam, eps1, k):
        s, reps = fam.size, inner_rep_count(fam.dim)
        if base is quantum_sim_mean:
            q = min(s, math.ceil(fam.bound / eps1))
            return "quantum_exact" if q >= s else "quantum_sampled"
        sigma = _sample_size(fam, eps1)
        if fam.bound == 0.0:
            return "bound_zero"
        if sigma >= s:
            return "enumeration"
        if k * reps * sigma < s:
            return "untabulated"
        return ("table_blocks" if s // (reps * sigma) > 1
                else "table_one_run_per_block")

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("regime", [
        "bound_zero", "enumeration", "table_blocks", "table_one_run_per_block",
        "untabulated", "quantum_exact", "quantum_sampled"])
    def test_equals_median_boost(self, regime, dim):
        checked = 0
        for k in range(1, 26, 2):
            base, size, bound = self._family(regime, dim, k)
            vals = np.random.default_rng(k * 10 + dim).uniform(
                -1, 1, size=(size, dim))
            led, ref_led = CostLedger(), CostLedger()
            fam = ArrayFamily(vals, bound=bound, ledger=led)
            if self._regime(base, fam, self.EPS1, k) != regime:
                continue    # the tabulated regimes need k >= 3
            # the quantum stub needs the exact mean, so only mc_mean's
            # reference runs on a family that never builds a table
            ref_fam = (ArrayFamily if base is quantum_sim_mean
                       else UntabulatedFamily)(vals, bound=bound,
                                               ledger=ref_led)
            rng, ref_rng = RngStream(k, led), RngStream(k, ref_led)
            est = base(fam, self.EPS1, rng, k=k)
            ref = median_boost(base, ref_fam, self.EPS1, k, ref_rng)
            assert est.value.tobytes() == ref.value.tobytes(), (k, dim)
            assert est.cost == ref.cost and led.as_dict() == ref_led.as_dict()
            assert est.success_prob == ref.success_prob
            assert est.eps_target == ref.eps_target
            assert rng.uniform() == ref_rng.uniform()
            tabulated = regime.startswith(("table", "enumeration", "quantum"))
            assert (fam._table is not None) == tabulated
            checked += 1
        assert checked >= 12

    def test_even_k_rejected(self):
        fam = ArrayFamily(np.zeros(10), bound=1.0)
        for base in (mc_mean, quantum_sim_mean):
            for k in (0, 2, -1):
                with pytest.raises(ValueError, match="odd positive"):
                    base(fam, 0.1, RngStream(0), k=k)

    @pytest.mark.parametrize("base", [full_mean, mc_mean, quantum_sim_mean])
    def test_fractional_k_named(self, base):
        # named, not truncated to an even k = 2 (median success 0.5625)
        led = CostLedger()
        fam = ArrayFamily(np.linspace(0.0, 1.0, 64), bound=1.0, ledger=led)
        with pytest.raises(ValueError,
                           match=r"^k must be a whole number, got 2\.5$"):
            base(fam, 0.1, RngStream(0, led), k=2.5)
        assert led.total == led.rng_draws == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("base", [mc_mean, quantum_sim_mean])
    def test_non_finite_eps1_rejected(self, base, bad):
        # named before any draw or charge: an infinite eps1 would otherwise
        # divide by a zero sample size, or charge no query for a value
        led = CostLedger()
        fam = ArrayFamily([[0.1], [0.2], [0.3], [0.5]], ledger=led)
        with pytest.raises(ValueError, match="^eps1 must be finite"):
            base(fam, bad, RngStream(0, led))
        assert led.total == led.rng_draws == 0

    @pytest.mark.parametrize("size, sigma, reps, g", [
        (3, 1, 1, 5), (100, 25, 1, 4), (1000003, 17, 5, 3),
        (65537, 16385, 7, 2), (2 ** 32 + 5, 3, 5, 4)])
    def test_numpy_continues_draws_across_calls(self, size, sigma, reps, g):
        # the premise of the blocks: Philox continues a bounded-integer or a
        # uniform draw where the last call stopped
        why = "numpy %s splits draws by call" % np.__version__
        one, turn = RngStream(size), RngStream(size)
        block = one.integers(0, size, size=(g * reps, sigma))
        runs = [turn.integers(0, size, size=(reps, sigma)) for _ in range(g)]
        assert np.array_equal(block, np.concatenate(runs)), why
        noise = one.uniform(size=(g, 3, reps, 2))
        assert np.array_equal(noise, np.stack(
            [turn.uniform(size=(3, reps, 2)) for _ in range(g)])), why
        assert one.integers(0, size) == turn.integers(0, size), why

    @staticmethod
    def _block_shapes(monkeypatch):
        shapes = []
        draw = RngStream.integers

        def recorded(self, low, high=None, size=None):
            shapes.append(size)
            return draw(self, low, high, size)
        monkeypatch.setattr(RngStream, "integers", recorded)
        return shapes

    def test_large_family_draws_one_run_per_block(self, monkeypatch):
        # shaped like the 2-D randomized solve at n = 16: s = 65,536, d = 2,
        # sigma = (2/(1/64))^2 = 16,384, reps = 5 and k = 15
        shapes = self._block_shapes(monkeypatch)
        vals = np.random.default_rng(0).uniform(-1, 1, size=(65536, 2))
        fam = ArrayFamily(vals, bound=1.0)
        est = mc_mean(fam, 1.0 / 64, RngStream(1), k=15)
        assert fam._table is not None
        assert shapes == [(5, 16384)] * 15
        assert est.cost["f_evals"] == 15 * 5 * 16384

    def test_small_family_shares_blocks(self, monkeypatch):
        # s = 100 and sigma = 25 give g = 4 runs per block: 9 runs in
        # blocks of 4, 4 and 1
        shapes = self._block_shapes(monkeypatch)
        fam = ArrayFamily(np.linspace(-1, 1, 100), bound=1.0)
        mc_mean(fam, self.EPS1, RngStream(2), k=9)
        assert shapes == [(4, 25), (4, 25), (1, 25)]
        shapes.clear()
        mc_mean(ArrayFamily(np.linspace(-1, 1, 1000), bound=1.0), self.EPS1,
                RngStream(2), k=9)
        assert shapes == [(9, 25)]
