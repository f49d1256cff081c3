import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqode.core import CostLedger
from rqode.estimators import (MC_CALIBRATION, ArrayFamily, MeanEstimate,
                              _sample_size, binomial_fail_tail, full_mean,
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
        vals = np.linspace(-0.5, 0.5, 64)
        fam = ArrayFamily(vals, bound=1.0)
        est = quantum_sim_mean(fam, eps1=1.0 / 64 * 0.99, rng=RngStream(0))
        assert est.value[0] == vals.mean()
        assert est.success_prob == 1.0
        assert est.cost["quantum_queries"] == 64

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


class TestRepetitionCounts:
    def test_single_call_suffices_at_quarter(self):
        # one 3/4-success call meets delta = 1/4 for n = 1
        assert median_rep_count(1, 0.25) == 1

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
        if name == "median_boost":
            raise _Captured(args[1], args[2])
        raise _Captured(args[0], args[1])
    monkeypatch.setattr(module, name, stop)
    with pytest.raises(_Captured) as info:
        run()
    return info.value.args


class CountingFamily(ArrayFamily):
    """Counts the items its ``_compute`` is asked for."""

    computed = 0

    def _compute(self, idx):
        self.computed += idx.size
        return super()._compute(idx)


class UntabulatedFamily(ArrayFamily):
    """Never builds an item table: every access computes its items."""

    def tabulate(self, block):
        return None


class TestItemTable:
    def _residual_family(self, monkeypatch):
        # cos_time_r1 randomized n=12: sigma = 9,216 < s = 20,736
        from rqode import solver
        fx = get_fixture("cos_time_r1")
        return _first_family(monkeypatch, solver, "median_boost", lambda: (
            solver.solve(fx.problem, fx.params,
                         solver.SolveConfig(n=12, mode="randomized"))))

    def _cell_family(self, monkeypatch):
        from rqode import scalar
        fx = get_fixture("inv1p_r1")
        return _first_family(monkeypatch, scalar, "mc_mean", lambda: (
            scalar.estimate_H(fx.problem, fx.params, 1.2, 1e-4, "randomized",
                              RngStream(3))))

    @pytest.mark.parametrize("which", ["residual", "cell"])
    def test_tabulate_bit_identical_to_compute(self, monkeypatch, which):
        fam, eps1 = (self._residual_family(monkeypatch) if which == "residual"
                     else self._cell_family(monkeypatch))
        sigma = _sample_size(fam, eps1, MC_CALIBRATION)
        assert 7 < sigma < fam.size
        whole = fam._compute(np.arange(fam.size))
        for block in (1, 7, sigma, fam.size):
            fam._table = None
            table = fam.tabulate(block)
            assert table.tobytes() == whole.tobytes(), block

    def test_access_charges_per_index_from_table(self):
        led = CostLedger()
        fam = CountingFamily(np.linspace(-1, 1, 40), bound=1.0, ledger=led)
        fam.tabulate(16)
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
        table = fam.tabulate(7)
        assert led.sim_evals == 0
        assert fam.peek_all() is table
        fam.peek_all()
        assert led.sim_evals == 50 and led.f_evals == 0
        assert fam.computed == 50
