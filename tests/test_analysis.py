import math
import random
import time
from fractions import Fraction

import pytest

from acdope import analysis, flattening, gacd
from acdope.analysis import SortedSample

import reference
from conftest import gen_of, seed_of


class TestSortedSample:
    def test_empty_rejected(self):
        with pytest.raises(analysis.EmptyInputError):
            SortedSample((), 100)

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            SortedSample((5, 3), 100)

    def test_ties_allowed(self):
        s = SortedSample((3, 3, 5), 100)
        assert s.n == 3


class TestEstimateK:
    def test_exact_value(self):
        s = SortedSample((100, 5000, 9900), 100)
        assert analysis.estimate_k(s) == Fraction(99)

    def test_consistency_improves_with_n(self):
        params = gacd.SchemeParams(M=2**10, lam=28)
        g = gen_of(61)
        key = gacd.keygen(params, g)
        errs = []
        for n in (50, 5000):
            cts = sorted(
                gacd.encrypt(g.uniform_int(0, 2**10), key, g) for _ in range(n)
            )
            k_hat = analysis.estimate_k(SortedSample(tuple(cts), 2**10))
            errs.append(abs(float(k_hat) - key.k) / key.k)
        assert errs[1] < errs[0]

    def test_underestimates(self):
        # the sample max never exceeds M*k + max-noise, so k_hat stays near
        # but slightly above or below k; with the max plaintext present it
        # overshoots by at most the noise fraction
        params = gacd.SchemeParams(M=2**10, lam=28)
        g = gen_of(62)
        key = gacd.keygen(params, g)
        c_top = gacd.encrypt(2**10, key, g)
        k_hat = analysis.estimate_k(SortedSample((c_top,), 2**10))
        assert key.k <= k_hat < key.k * (1 + 2 ** -9)


class TestWindowAttack:
    def test_exact_when_max_is_clean(self):
        s = SortedSample((50, 900, 100 * 73), 100)
        est = analysis.window_attack(730, s)
        assert est.k_hat == 73
        assert est.m_hat == 10


class TestSuccessProbability:
    def test_single_trial(self):
        assert reference.success_probability(Fraction(1, 2), 1) == Fraction(1, 2)

    def test_hundred_trials(self):
        v = reference.success_probability(Fraction(1, 100), 100)
        assert v == 1 - Fraction(99, 100) ** 100
        assert abs(float(v) - (1 - math.exp(-1))) < 0.01

    def test_certainty_edges(self):
        assert reference.success_probability(Fraction(0), 10) == 0
        assert reference.success_probability(Fraction(1), 10) == 1

    def test_union_bound_bracketing(self):
        for num in (1, 7, 50):
            eps = Fraction(num, 1000)
            for n in (1, 10, 400):
                v = reference.success_probability(eps, n)
                assert v <= n * eps
                assert float(v) >= 1 - math.exp(-n * float(eps)) - 1e-12

    def test_invalid(self):
        with pytest.raises(gacd.ParameterError):
            reference.success_probability(Fraction(3, 2), 1)
        with pytest.raises(gacd.ParameterError):
            reference.success_probability(Fraction(1, 2), 0)


class TestLeakageBits:
    def test_powers_of_two(self):
        assert analysis.leakage_bits(1024) == 10.0
        assert analysis.leakage_bits(1) == 0.0

    def test_invalid(self):
        with pytest.raises(gacd.ParameterError):
            analysis.leakage_bits(0)

    def test_rank_leak_far_below_full_plaintext(self):
        # a 1000-row sorted sample leaks ~10 bits of a 20-bit plaintext;
        # a deterministic OPF would expose the full 20
        assert analysis.leakage_bits(1000) + analysis.LEAKAGE_BAND_BITS < 20


class TestBcloInvert:
    def test_midpoint(self):
        M, N = 1 << 10, 1 << 20
        m_hat, sigma = reference.bclo_invert_estimate(N // 2, M, N)
        assert m_hat == M // 2
        assert abs(sigma - math.sqrt(M / 2)) < 1e-9

    def test_bottom_edge(self):
        m_hat, sigma = reference.bclo_invert_estimate(0, 1 << 10, 1 << 20)
        assert m_hat == 0 and sigma == 0.0

    def test_domain(self):
        with pytest.raises(gacd.DomainError):
            reference.bclo_invert_estimate(-1, 1 << 10, 1 << 20)

    def test_calibrated_against_random_increasing_map(self):
        # a uniformly random increasing [0,M] -> [1,N] map is a sorted
        # sample without replacement; the estimate should cover ~all points
        # within four reported standard deviations
        M, N = 1 << 10, 1 << 20
        random.seed(42)
        f = sorted(random.sample(range(1, N + 1), M + 1))
        bad = 0
        for m, c in enumerate(f):
            m_hat, sigma = reference.bclo_invert_estimate(c, M, N)
            if abs(m - float(m_hat)) > max(4 * sigma, 1e-9):
                bad += 1
        assert bad <= (M + 1) // 100


def bruteforce_fixture():
    params = gacd.SchemeParams(M=2**6, lam=17)
    g = gen_of(60)
    key = gacd.keygen(params, g)
    cts = [gacd.encrypt(g.uniform_int(0, 63), key, g) for _ in range(50)]
    return key, cts


class TestBruteforce:
    def test_band_consistency_of_real_ciphertexts(self):
        key, cts = bruteforce_fixture()
        assert all(analysis.noise_band_consistent(c, key.k) for c in cts)

    def test_true_key_found(self):
        key, cts = bruteforce_fixture()
        cand = analysis.bruteforce_gacd(cts, 1 << 17, 1 << 18)
        assert key.k in cand
        # every surviving candidate really is band-consistent
        for kk in cand[:50]:
            assert all(analysis.noise_band_consistent(c, kk) for c in cts)

    def test_single_ciphertext_leaves_huge_candidate_set(self):
        _, cts = bruteforce_fixture()
        cand = analysis.bruteforce_gacd(cts[:1], 1 << 17, 1 << 18)
        assert len(cand) > 10_000

    def test_empty_input(self):
        with pytest.raises(analysis.EmptyInputError):
            analysis.bruteforce_gacd([], 2, 100)

    def test_budget(self):
        with pytest.raises(analysis.BudgetExceededError):
            analysis.bruteforce_gacd([100], 2, 2 + (1 << 25))


class TestFlattenLeakageReport:
    def test_uniform_model_leaks_nothing(self):
        rep = analysis.flatten_leakage_report(flattening.uniform_model(16, 1 << 16))
        assert rep.max_bits == 0.0
        assert all(abs(bits) < 1e-12 for _, bits in rep.entries)

    def test_two_level_step_bounded_by_one_bit(self):
        model = flattening.model_from_frequencies([1] * 8 + [2] * 8, 1 << 16)
        rep = analysis.flatten_leakage_report(model)
        assert rep.max_bits <= 1.0

    def test_polynomial_growth_stays_below_half_log(self):
        M = 64
        model = flattening.model_from_frequencies([(i + 1) ** 2 for i in range(M)], 1 << 16)
        rep = analysis.flatten_leakage_report(model)
        assert rep.max_bits < 0.5 * math.log2(M)


    @staticmethod
    def fraction_report(model):
        # the formula on the model's Fraction values, as the report once ran it
        return [(m, math.log2(float(m * model.p(m) / model.F[m]))) for m in range(1, model.M)]

    @pytest.mark.parametrize("model", [
        flattening.model_from_frequencies([2**i for i in range(16, 0, -1)], 1 << 16),
        flattening.uniform_model(16, 1 << 16),
        flattening.uniform_model(7, 1000),
    ])
    def test_equals_fraction_formula(self, model):
        rep = analysis.flatten_leakage_report(model)
        expected = self.fraction_report(model)
        assert list(rep.entries) == expected
        assert rep.max_bits == max([0.0] + [bits for _, bits in expected])

    def test_linear_in_M(self):
        # reads the integer numerators only: no Fraction table is built, and
        # the cost per entry at M = 2^16 stays that of M = 2^12
        def per_entry_s(M):
            counts = [int(2.0**40 / (i + 1) ** 1.1) for i in range(M)]
            model = flattening.model_from_frequencies(counts, 1 << 40)
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                rep = analysis.flatten_leakage_report(model)
                best = min(best, time.perf_counter() - t0)
            assert len(rep.entries) == M - 1
            assert "F" not in vars(model)
            return best / M

        assert per_entry_s(1 << 16) < 4 * per_entry_s(1 << 12)


class TestWindowSuccessRate:
    def test_deterministic_and_plausible(self):
        kwargs = dict(
            n=200,
            M=2**20,
            lam=60,
            trials=40,
            radius=lambda m: Fraction(int(m * math.log(2) * 2**20), int(200 * 2**20)) if m else Fraction(1),
            seed=seed_of(9),
        )
        r1 = analysis.window_success_rate(**kwargs)
        r2 = analysis.window_success_rate(**kwargs)
        assert r1 == r2
        assert 0.1 <= r1 <= 0.9

    def test_default_lambda(self):
        rate = analysis.window_success_rate(
            n=20, M=2**10, lam=None, trials=5, radius=lambda m: Fraction(m + 1, 2), seed=seed_of(10)
        )
        assert 0.0 <= rate <= 1.0

    def test_trial_streams_are_separate(self, monkeypatch):
        # the key, the plaintexts and the noise of a trial each come from
        # their own seed; told apart by the range each draw is made from
        seeds = {}

        class Recording(analysis.DeterministicGenerator):
            __slots__ = ()

            def uniform_int(self, lo, hi):
                seeds.setdefault((lo, hi), set()).add(self._seed)
                return super().uniform_int(lo, hi)

            def uniform_ints(self, lo, hi, n):
                seeds.setdefault((lo, hi), set()).add(self._seed)
                return super().uniform_ints(lo, hi, n)

        monkeypatch.setattr(analysis, "DeterministicGenerator", Recording)
        M, lam = 2**10, 40
        analysis.window_success_rate(
            n=20, M=M, lam=lam, trials=1, radius=lambda m: Fraction(1), seed=seed_of(10)
        )
        key = seeds.pop((1 << lam, (1 << lam + 1) - 1))
        plain = seeds.pop((0, M - 1))
        (noise,) = seeds.values()
        assert len(key) == len(plain) == len(noise) == 1
        assert len(key | plain | noise) == 3


class TestReportValue:
    def test_float_where_it_fits(self):
        for value in (Fraction(0), Fraction(5, 128), Fraction(10**300, 3), Fraction(1, 10**310)):
            got = analysis.report_value(value)
            assert isinstance(got, float) and got == float(value)
            assert analysis.report_text(got) == f"{float(value):.6g}"

    def test_decimal_beyond_float_range(self):
        big = analysis.report_value(Fraction(10**400 - 1, 128))
        tiny = analysis.report_value(Fraction(128, 10**400 - 1))
        assert analysis.report_text(big) == "7.8125e+397"
        assert analysis.report_text(tiny) == "1.28e-398"
        assert analysis.report_text(big * 3) == "2.34375e+398"
