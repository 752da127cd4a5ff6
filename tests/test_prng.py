import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from acdope.prng import (
    SEED_BYTES,
    DeterministicGenerator,
    PrecisionError,
    RangeError,
    Seed,
    derive_seed,
    fresh_seed,
)

from conftest import gen_of, seed_of


class TestSeed:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Seed(b"\x00" * 7)

    def test_hex_roundtrip(self):
        s = fresh_seed()
        assert Seed.from_hex(s.hex()) == s

    def test_zero_seed_is_valid(self):
        g = DeterministicGenerator(Seed(b"\x00" * SEED_BYTES))
        assert len(g.bytes(16)) == 16


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = gen_of(3).bytes(1024)
        b = gen_of(3).bytes(1024)
        assert a == b

    def test_nearby_seeds_diverge(self):
        # 1000 pairs differing in one byte: streams must differ early
        for i in range(1000):
            base = bytearray(seed_of(i % 251).data)
            base[i % SEED_BYTES] ^= 0x01
            a = gen_of(i % 251).bytes(64)
            b = DeterministicGenerator(Seed(bytes(base))).bytes(64)
            assert a != b

    def test_derive_seed_independent(self):
        parent = seed_of(9)
        c1 = derive_seed(parent, b"left")
        c2 = derive_seed(parent, b"right")
        assert c1 != c2
        assert DeterministicGenerator(c1).bytes(32) != DeterministicGenerator(c2).bytes(32)


class TestUniformInt:
    def test_singleton(self, fixed_gen):
        assert fixed_gen.uniform_int(5, 5) == 5

    def test_invalid_range(self, fixed_gen):
        with pytest.raises(RangeError):
            fixed_gen.uniform_int(3, 2)

    def test_big_range_membership(self):
        g = gen_of(4)
        hi = 1 << 130
        for _ in range(10**5):
            v = g.uniform_int(0, hi)
            assert 0 <= v <= hi
            assert v.bit_length() <= 131

    def test_chi_square_uniformity(self):
        g = gen_of(5)
        counts = [0] * 10
        for _ in range(10**5):
            counts[g.uniform_int(0, 9)] += 1
        assert chisquare(counts).pvalue > 0.001

    def test_unbiased_small_range(self):
        # every value within 5 sigma of T/R
        g = gen_of(6)
        R, T = 8, 64000
        counts = [0] * R
        for _ in range(T):
            counts[g.uniform_int(0, R - 1)] += 1
        expect = T / R
        sigma = math.sqrt(T * (1 / R) * (1 - 1 / R))
        for c in counts:
            assert abs(c - expect) < 5 * sigma

    @given(
        lo=st.integers(min_value=-(10**30), max_value=10**30),
        span=st.integers(min_value=0, max_value=10**12),
        seed_byte=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_range(self, lo, span, seed_byte):
        g = gen_of(seed_byte)
        v = g.uniform_int(lo, lo + span)
        assert lo <= v <= lo + span


def loop_reference(g, lo, hi, n):
    return [g.uniform_int(lo, hi) for _ in range(n)]


def bytes_read(g):
    """Stream bytes a generator has handed out so far."""
    return g._counter * 32 - (len(g._buf) - g._pos)


class TestUniformInts:
    @given(
        bits=st.integers(min_value=1, max_value=600),
        delta=st.sampled_from((-1, 0, 1)),
        n=st.sampled_from((0, 1, 4095, 4096, 4097, 10**4)),
        lo=st.integers(min_value=-(10**40), max_value=10**40),
        seed_byte=st.integers(min_value=0, max_value=255),
        offset=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_uniform_int_loop(self, bits, delta, n, lo, seed_byte, offset):
        # spans 2^k - 1, 2^k and 2^k + 1, from a stream already offset
        hi = lo + (1 << bits) + delta - 1
        g, ref = gen_of(seed_byte), gen_of(seed_byte)
        for h in (g, ref):
            h.bytes(offset)
        assert g.uniform_ints(lo, hi, n) == loop_reference(ref, lo, hi, n)
        assert g.bytes(64) == ref.bytes(64)

    @pytest.mark.parametrize("n", [0, 1, 4097])
    def test_singleton_range_reads_nothing(self, n):
        g = gen_of(12)
        assert g.uniform_ints(-7, -7, n) == [-7] * n
        assert g.bytes(64) == gen_of(12).bytes(64)

    @pytest.mark.parametrize("n", [0, 5, -1])
    def test_invalid_range_raises_even_when_nothing_is_drawn(self, n):
        with pytest.raises(RangeError):
            gen_of(1).uniform_ints(3, 2, n)

    def test_negative_count_is_empty(self):
        # as range(n) is in the loop
        g = gen_of(14)
        assert g.uniform_ints(0, 9, -3) == []
        assert bytes_read(g) == 0


class TestUniformFraction:
    def test_two_point_case(self):
        g = gen_of(7)
        counts = {Fraction(0): 0, Fraction(1, 2): 0}
        for _ in range(10**4):
            counts[g.uniform_fraction(1)] += 1
        assert abs(counts[Fraction(0)] / 10**4 - 0.5) < 0.02

    def test_strictly_below_one(self):
        g = gen_of(8)
        for _ in range(1000):
            assert g.uniform_fraction(5) < 1

    def test_mean_at_53_bits(self):
        g = gen_of(9)
        total = sum(g.uniform_fraction(53) for _ in range(10**5))
        assert abs(total / 10**5 - 0.5) < 0.01

    def test_dyadic_denominator(self):
        g = gen_of(10)
        for _ in range(100):
            f = g.uniform_fraction(16)
            d = f.denominator
            assert d & (d - 1) == 0  # power of two

    def test_invalid_precision(self, fixed_gen):
        with pytest.raises(PrecisionError):
            fixed_gen.uniform_fraction(0)


def reference_stream(seed: Seed, nblocks: int) -> bytes:
    """The sha256-ctr/1 stream, one block at a time."""
    return b"".join(
        hashlib.sha256(seed.data + i.to_bytes(8, "big")).digest() for i in range(nblocks)
    )


def draw_mix_digest(g: DeterministicGenerator) -> str:
    """SHA-256 of a scripted mix of draws: byte counts across block and run
    boundaries, bit counts, worst-case rejection spans 2^k + 1 and dyadic
    fractions, three rounds so each starts at a new buffer offset."""
    h = hashlib.sha256()
    for _ in range(3):
        for n in (0, 1, 31, 32, 33, 64, 100, 2100):
            h.update(g.bytes(n))
        for k in (0, 1, 7, 8, 9, 64, 340, 2049):
            h.update(b"%d\n" % g.bits(k))
        for k in (1, 2, 7, 64, 127, 340):
            for _ in range(5):
                h.update(b"%d\n" % g.uniform_int(-3, -3 + (1 << k)))
        for p in (1, 53, 56, 200):
            f = g.uniform_fraction(p)
            h.update(b"%d/%d\n" % (f.numerator, f.denominator))
    return h.hexdigest()


# draw_mix_digest per seed byte, recorded on the generator that hashed one
# block per pass; the stream and every draw on it must not move.
STREAM_GOLDEN = {
    0x00: "48458b7e3d14ffee01d1b6093c70c83558312cab4ac14a201e1af0637603e089",
    0x3C: "2b33a0ed64a90b4f96a4a94bee5e3d0897f185ba19358ceebf73143bdd1c8964",
    0xA5: "bbb28445bd6e4d359dadcc4b08d5d835b6bc0c2eb8120009fb2665ab025bc6c7",
}


class TestStreamFormat:
    @pytest.mark.parametrize("seed_byte", sorted(STREAM_GOLDEN))
    def test_golden_draw_mix(self, seed_byte):
        assert draw_mix_digest(gen_of(seed_byte)) == STREAM_GOLDEN[seed_byte]

    @given(
        sizes=st.lists(st.integers(min_value=-2, max_value=3000), max_size=30),
        seed_byte=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_cut_reads_the_reference_stream(self, sizes, seed_byte):
        g = gen_of(seed_byte)
        got = b"".join(g.bytes(n) for n in sizes)
        assert got == reference_stream(seed_of(seed_byte), -(-len(got) // 32))[: len(got)]


class TestLookAhead:
    def test_one_frame_draw_hashes_one_block(self):
        # an opf frame's generator makes one bits(64) draw
        g = gen_of(11)
        g.bits(64)
        assert g._counter == 1

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=5000), max_size=60),
        seed_byte=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=100, deadline=None)
    def test_blocks_hashed_stay_near_bytes_read(self, sizes, seed_byte):
        g = gen_of(seed_byte)
        n = 0
        for size in sizes:
            g.bytes(size)
            n += size
            needed = -(-n // 32)
            assert g._counter <= 2 * needed + 1
            assert g._counter <= needed + 64

    @given(
        bits=st.integers(min_value=1, max_value=600),
        n=st.sampled_from((1, 4095, 4096, 4097, 10**4)),
        seed_byte=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_draw_reads_no_further_than_the_loop(self, bits, n, seed_byte):
        span = (1 << bits) + 1
        g, ref = gen_of(seed_byte), gen_of(seed_byte)
        g.uniform_ints(0, span - 1, n)
        loop_reference(ref, 0, span - 1, n)
        assert bytes_read(g) == bytes_read(ref)
        needed = -(-bytes_read(g) // 32)
        assert g._counter <= 2 * needed + 1
        assert g._counter <= needed + 64
