import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdope import gacd
from acdope.prng import DeterministicGenerator, derive_seed

from conftest import ForcedGen, gen_of, seed_of


def small_key(gen_byte=20):
    params = gacd.SchemeParams(M=2**7, lam=19)
    return gacd.keygen(params, gen_of(gen_byte))


class TestMinLambda:
    @pytest.mark.parametrize("M,expected", [(2**7, 19), (2**3, 9), (2, 3), (100, 18)])
    def test_values(self, M, expected):
        assert gacd.min_lambda(M) == expected

    def test_strictness(self):
        # lambda must be strictly above (8/3) lg M: exact comparison
        for M in (2, 8, 128, 2**15, 1000, 12345):
            lam = gacd.min_lambda(M)
            assert 2 ** (3 * lam) > M**8
            assert 2 ** (3 * (lam - 1)) <= M**8

    def test_invalid_domain(self):
        with pytest.raises(gacd.DomainError):
            gacd.min_lambda(1)


class TestBeta0Bound:
    def test_rational_square_case_is_exact(self):
        assert gacd.beta0_bound(Fraction(8, 11)) == Fraction(6, 11)

    def test_zero(self):
        assert gacd.beta0_bound(Fraction(0)) == 0

    def test_two_thirds(self):
        assert gacd.beta0_bound(Fraction(2, 3)) == Fraction(1, 3)

    def test_irrational_case_precision(self):
        v = gacd.beta0_bound(Fraction(1, 2))
        # 1 - 1/4 - sqrt(3/8), with sqrt(3/8) = sqrt(6)/4 taken to 80 bits
        root = Fraction(math.isqrt(6 << 160), 4 << 80)
        expected = Fraction(3, 4) - root
        assert abs(v - expected) < Fraction(1, 1 << 64)

    def test_negative_radicand(self):
        with pytest.raises(gacd.DomainError):
            gacd.beta0_bound(Fraction(9, 10))


class TestValidateParams:
    def test_minimal_lambda_passes(self):
        rep = gacd.validate_params(gacd.SchemeParams(M=2**7, lam=19))
        assert rep.ok
        assert rep.ciphertext_bits == 27

    def test_below_bound_fails(self):
        rep = gacd.validate_params(gacd.SchemeParams(M=2**7, lam=18))
        assert not rep.ok
        assert any("lambda" in r for r in rep.reasons)

    def test_n_hint_too_large_fails(self):
        rep = gacd.validate_params(gacd.SchemeParams(M=2**20, lam=60, n_hint=2**19))
        assert not rep.ok

    def test_empty_noise_band_fails(self):
        # M=2 meets lambda > (8/3) lg M at lambda=3, but no k below 2^5 has
        # an integer strictly inside (k^(3/4), k - k^(3/4)) for every k
        for lam in (3, 4):
            rep = gacd.validate_params(gacd.SchemeParams(M=2, lam=lam))
            assert not rep.ok
            assert any("noise band" in r for r in rep.reasons)
        assert gacd.validate_params(gacd.SchemeParams(M=2, lam=5)).ok

    def test_n_hint_warning_band(self):
        rep = gacd.validate_params(gacd.SchemeParams(M=10_000, lam=36, n_hint=500))
        assert rep.ok
        assert rep.warnings


class TestKeygen:
    def test_k_in_range(self):
        g = gen_of(21)
        params = gacd.SchemeParams(M=2**7, lam=19)
        for _ in range(2000):
            k = gacd.keygen(params, g).k
            assert 2**19 <= k < 2**20

    def test_k_exceeds_M_to_eight_thirds(self):
        # 2^19 > (2^7)^(8/3) = 2^(56/3)
        key = small_key()
        assert key.k ** 3 > key.params.M ** 8

    def test_deterministic(self):
        assert small_key(22).k == small_key(22).k

    def test_noise_band_strict(self):
        key = small_key()
        f4 = gacd.floor_pow34(key.k)
        assert key.noise_lo == f4 + 1
        assert key.noise_hi == key.k - f4 - 1
        assert key.noise_lo < key.noise_hi

    def test_invalid_params_raise(self):
        with pytest.raises(gacd.ParameterError):
            gacd.keygen(gacd.SchemeParams(M=2**7, lam=18), gen_of(23))


class TestFloorPow34:
    @given(k=st.integers(min_value=2, max_value=10**40))
    @settings(max_examples=300, deadline=None)
    def test_exact_floor(self, k):
        f4 = gacd.floor_pow34(k)
        assert f4**4 <= k**3 < (f4 + 1) ** 4


class TestEncryptDecrypt:
    def test_worked_example(self):
        lo, hi = gacd._noise_band(524309)
        key = gacd.SecretKey(
            k=524309, noise_lo=lo, noise_hi=hi, params=gacd.SchemeParams(M=2**7, lam=19)
        )
        c = gacd.encrypt(100, key, ForcedGen(forced_int=100_000))
        assert c == 52_530_900
        assert gacd.decrypt(c, key) == 100

    def test_zero_plaintext_isolates_noise(self):
        key = small_key()
        c = gacd.encrypt(0, key, gen_of(24))
        assert key.noise_lo <= c <= key.noise_hi

    def test_pure_noise_decrypts_to_zero(self):
        key = small_key()
        assert gacd.decrypt(key.k - 1, key) == 0

    def test_roundtrip_exhaustive(self):
        key = small_key()
        g = gen_of(25)
        for m in range(key.params.M + 1):
            assert gacd.decrypt(gacd.encrypt(m, key, g), key) == m

    def test_out_of_domain(self):
        key = small_key()
        with pytest.raises(gacd.DomainError):
            gacd.encrypt(key.params.M + 1, key, gen_of(26))
        with pytest.raises(gacd.DomainError):
            gacd.encrypt(-1, key, gen_of(26))

    def test_foreign_ciphertext_flagged(self):
        key = small_key()
        with pytest.raises(gacd.ForeignCiphertextError):
            gacd.decrypt((key.params.M + 5) * key.k, key)

    def test_repeated_encryption_randomises(self):
        key = small_key()
        g = gen_of(27)
        pairs = [(gacd.encrypt(60, key, g), gacd.encrypt(60, key, g)) for _ in range(5000)]
        distinct = sum(1 for a, b in pairs if a != b)
        assert distinct >= 4995
        frac_gt = sum(1 for a, b in pairs if b > a) / len(pairs)
        assert abs(frac_gt - 0.5) < 0.03

    def test_noise_draw_in_band(self):
        key = small_key()
        g = gen_of(28)
        for _ in range(1000):
            r = gacd.encrypt(17, key, g) - 17 * key.k
            assert key.noise_lo <= r <= key.noise_hi

    @given(
        m1=st.integers(min_value=0, max_value=2**7),
        m2=st.integers(min_value=0, max_value=2**7),
    )
    @settings(max_examples=300, deadline=None)
    def test_order_preserved(self, m1, m2):
        key = small_key()
        g = gen_of(29)
        c1 = gacd.encrypt(m1, key, g)
        c2 = gacd.encrypt(m2, key, g)
        if m1 < m2:
            assert c1 < c2
        elif m1 > m2:
            assert c1 > c2

    def test_adjacent_pairs_strict(self):
        key = small_key()
        g = gen_of(30)
        for m in range(1, key.params.M + 1):
            assert gacd.encrypt(m - 1, key, g) < gacd.encrypt(m, key, g)

    def test_ciphertext_bit_bound(self):
        key = small_key()
        g = gen_of(31)
        bound = 7 + 19 + 1
        for m in (0, 1, 64, 127, 128):
            assert gacd.encrypt(m, key, g).bit_length() <= bound


class TestBatch:
    def test_matches_single_ops_and_noise_order(self):
        key = small_key()
        ms = [5, 0, 128, 5, 77]
        cts = gacd.encrypt_many(ms, key, gen_of(60))
        gen = gen_of(60)
        assert cts == [gacd.encrypt(m, key, gen) for m in ms]
        assert gacd.decrypt_many(cts, key) == ms

    def test_golden_ciphertexts_rho127(self):
        # recorded on the generator that hashed one block per pass
        seed = seed_of(0x47)
        M = 1 << 127
        key = gacd.keygen(gacd.SchemeParams(M=M, lam=gacd.min_lambda(M)),
                          DeterministicGenerator(seed))
        pgen = DeterministicGenerator(derive_seed(seed, b"plain"))
        ms = [pgen.uniform_int(0, M - 1) for _ in range(500)]
        cts = gacd.encrypt_many(ms, key, DeterministicGenerator(derive_seed(seed, b"gacd/noise")))
        digest = hashlib.sha256("".join(f"{c}\n" for c in cts).encode()).hexdigest()
        assert digest == "a61bd8a217b169575592016c106c3a43c48a46ea28327466ddc7da072a9e6d4e"
        assert gacd.decrypt_many(cts, key) == ms

    def test_failing_position(self):
        key = small_key()
        with pytest.raises(gacd.DomainError) as info:
            gacd.encrypt_many([1, 2, 129, -1], key, gen_of(61))
        assert info.value.index == 2
        with pytest.raises(gacd.ForeignCiphertextError) as info:
            gacd.decrypt_many([key.k, 200 * key.k, -key.k], key)
        assert info.value.index == 1


    @pytest.mark.parametrize("ms, index, bad", [
        ([129], 0, 129),
        ([0, 128, -1, 500], 2, -1),
        ([3] * 5000 + [129] + [-1] * 3, 5000, 129),
    ])
    def test_first_bad_plaintext_and_message(self, ms, index, bad):
        key = small_key()
        gen = gen_of(62)
        with pytest.raises(gacd.DomainError) as info:
            gacd.encrypt_many(ms, key, gen)
        assert info.value.index == index
        assert str(info.value) == f"plaintext {bad} outside [0, 128]"
        # no noise is drawn for the valid prefix
        assert gen.bytes(64) == gen_of(62).bytes(64)

    @pytest.mark.parametrize("factors, index, quotient", [
        ([-1], 0, -1),
        ([0, 128, 129, -5], 2, 129),
        ([7] * 5000 + [-1, 200], 5000, -1),
    ])
    def test_first_foreign_ciphertext_and_message(self, factors, index, quotient):
        key = small_key()
        with pytest.raises(gacd.ForeignCiphertextError) as info:
            gacd.decrypt_many([f * key.k + 1 for f in factors], key)
        assert info.value.index == index
        assert str(info.value) == (
            f"quotient {quotient} outside [0, 128]: not a ciphertext for this key")

    def test_empty_batches(self):
        key = small_key()
        gen = gen_of(63)
        assert gacd.encrypt_many([], key, gen) == []
        assert gacd.decrypt_many([], key) == []
        assert gen.bytes(64) == gen_of(63).bytes(64)


class TestKeyFile:
    def test_roundtrip(self, tmp_path):
        key = small_key()
        path = str(tmp_path / "k.key")
        gacd.save_key(key, path)
        loaded = gacd.load_key(path)
        assert loaded == key

    @pytest.mark.parametrize("M", [2, 2**7])
    def test_load_validates_params(self, tmp_path, M):
        path = str(tmp_path / "k.key")
        with open(path, "w") as fh:
            fh.write(f"scheme=gacd-ope/1\nlambda=3\nM={M}\nk=9\n")
        with pytest.raises(gacd.ParameterError):
            gacd.load_key(path)

    def test_format_lines(self, tmp_path):
        key = small_key()
        path = str(tmp_path / "k.key")
        gacd.save_key(key, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "scheme=gacd-ope/1"
        assert lines[1].startswith("lambda=")
        assert lines[2].startswith("M=")
        assert lines[3].startswith("k=")
