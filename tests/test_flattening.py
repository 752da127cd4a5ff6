import hashlib
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from acdope import flattening
from acdope.flattening import CdfModel, model_from_frequencies, uniform_model

from conftest import ForcedGen, gen_of


def skewed_model(M=16, N=1 << 16):
    # heavy head, light tail; steps still clear the 1/N floor
    counts = [2**i for i in range(M, 0, -1)]
    return model_from_frequencies(counts, N)


def odd_model():
    # N not a power of two, a zero count, F values with unlike denominators
    return model_from_frequencies([5, 3, 0, 9, 1, 7, 2], 1000)


def zipf_model():
    # the Zipf(1.1) frequency table over 2^16 values at N = 2^40
    return model_from_frequencies(
        [int(2.0**40 / (i + 1) ** 1.1) for i in range(1 << 16)], 1 << 40
    )


def sha256_lines(values):
    return hashlib.sha256("".join(f"{v}\n" for v in values).encode()).hexdigest()


class TestCdfModel:
    def test_uniform_model_values(self):
        model = uniform_model(4, 16)
        assert model.F == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
        assert model.p(2) == Fraction(1, 4)

    def test_wrong_length(self):
        with pytest.raises(flattening.ModelError):
            CdfModel(4, 16, (Fraction(0), Fraction(1)))

    def test_bad_endpoints(self):
        with pytest.raises(flattening.ModelError):
            CdfModel(2, 16, (Fraction(1, 16), Fraction(1, 2), Fraction(1)))
        with pytest.raises(flattening.ModelError):
            CdfModel(2, 16, (Fraction(0), Fraction(1, 2), Fraction(15, 16)))

    def test_step_below_floor(self):
        with pytest.raises(flattening.ModelError):
            CdfModel(2, 16, (Fraction(0), Fraction(1, 32), Fraction(1)))


class TestModelFromFrequencies:
    def test_smoothing_formula(self):
        model = model_from_frequencies([3, 1], 16)
        # p' = (1 - M/N) * c/total + 1/N with M=2, N=16
        scale = 1 - Fraction(2, 16)
        assert model.p(0) == scale * Fraction(3, 4) + Fraction(1, 16)
        assert model.p(1) == scale * Fraction(1, 4) + Fraction(1, 16)
        assert model.F[-1] == 1

    def test_zero_count_still_above_floor(self):
        model = model_from_frequencies([10, 0, 5], 64)
        assert model.p(1) == Fraction(1, 64)

    def test_all_zero_counts_give_uniform(self):
        model = model_from_frequencies([0, 0, 0, 0], 64)
        assert model.F == uniform_model(4, 64).F

    def test_negative_count_rejected(self):
        with pytest.raises(flattening.ModelError):
            model_from_frequencies([1, -1], 64)

    def test_empty_rejected(self):
        with pytest.raises(flattening.ModelError):
            model_from_frequencies([], 64)


class TestFlatten:
    def test_worked_example_midpoint(self):
        # uniform M=4, N=16, m=2, u=1/2: 16 * ((1/2)(1/2) + (1/2)(3/4)) = 10
        model = uniform_model(4, 16)
        out = flattening.flatten(2, model, ForcedGen(forced_fraction=Fraction(1, 2)))
        assert out == 10
        assert flattening.unflatten(10, model) == 2

    def test_zero_offset_hits_left_edge(self):
        model = uniform_model(4, 16)
        assert flattening.flatten(2, model, ForcedGen(forced_fraction=Fraction(0))) == 8

    def test_domain_check(self):
        model = uniform_model(4, 16)
        with pytest.raises(flattening.DomainError):
            flattening.flatten(4, model, gen_of(50))
        with pytest.raises(flattening.DomainError):
            flattening.flatten(-1, model, gen_of(50))

    def test_output_in_half_open_interval(self):
        model = skewed_model()
        g = gen_of(51)
        for m in range(model.M):
            for _ in range(20):
                mbar = flattening.flatten(m, model, g)
                assert 0 <= mbar < model.N

    def test_order_nondecreasing(self):
        model = skewed_model()
        g = gen_of(52)
        for _ in range(200):
            m1 = g.uniform_int(0, model.M - 2)
            m2 = g.uniform_int(m1 + 1, model.M - 1)
            assert flattening.flatten(m1, model, g) < flattening.flatten(m2, model, g)

    def test_precision_bits(self):
        assert flattening.u_precision_bits(uniform_model(4, 1 << 20)) == 36


class TestUnflatten:
    def test_exact_inverse_exhaustive(self):
        model = skewed_model()
        g = gen_of(53)
        for m in range(model.M):
            for _ in range(10):
                assert flattening.unflatten(flattening.flatten(m, model, g), model) == m

    def test_every_cell_maps_back(self):
        # small model: check the inverse over the whole output range
        model = uniform_model(4, 16)
        for mbar in range(16):
            m = flattening.unflatten(mbar, model)
            assert model.F[m] <= Fraction(mbar, 16) < model.F[m + 1]

    def test_domain_check(self):
        model = uniform_model(4, 16)
        with pytest.raises(flattening.DomainError):
            flattening.unflatten(16, model)
        with pytest.raises(flattening.DomainError):
            flattening.unflatten(-1, model)


class TestNearUniformity:
    def test_flatten_output_passes_chi_square(self):
        # a strongly skewed source becomes statistically flat after the
        # transform; 64 output bins over [0, N)
        model = skewed_model(M=16, N=1 << 16)
        g = gen_of(54)
        pgen = gen_of(55)
        bins = [0] * 64
        shift = 16 - 6
        draws = 100_000
        # sample plaintexts from the model itself so output uniformity is the
        # transform's doing, not the input's
        cumulative = [float(v) for v in model.F[1:]]
        for _ in range(draws):
            u = pgen.uniform_fraction(32)
            m = next(i for i, c in enumerate(cumulative) if u < c)
            bins[flattening.flatten(m, model, g) >> shift] += 1
        assert chisquare(bins).pvalue > 0.001


class CountingGen(ForcedGen):
    """ForcedGen that counts the u draws, i.e. one plus the redraws."""

    def __init__(self, forced_fraction):
        super().__init__(forced_fraction=forced_fraction)
        self.draws = 0

    def uniform_fraction(self, precision_bits):
        self.draws += 1
        return super().uniform_fraction(precision_bits)


class TestGoldenVectors:
    """Outputs recorded on the Fraction implementation; any change to the
    flattening arithmetic must reproduce them bit for bit."""

    FLATTEN = {
        "uniform": [3, 6, 8, 14, 2, 5, 9, 14, 1, 6, 10, 12],
        "skewed": [
            29374, 33261, 51915, 59915, 62534, 63649, 64653, 65252, 65341, 65457, 65499,
            65507, 65523, 65529, 65533, 65535, 3956, 40470, 50718, 59024, 62212, 64386,
            64570, 65247, 65321, 65427, 65490, 65504, 65524, 65529, 65532, 65535, 21275,
            40985, 49178, 57382, 63424, 64275, 64567, 65080, 65351, 65410, 65470, 65507,
            65520, 65530, 65533, 65535,
        ],
        "odd": [165, 188, 297, 472, 661, 919, 956, 130, 254, 297, 443, 644, 701, 989, 22,
                237, 297, 340, 663, 765, 955],
    }
    # ceil(N*F(m)) - 1 and ceil(N*F(m)) for every m, then N - 1
    EDGES = {
        "uniform": ([0, 3, 4, 7, 8, 11, 12, 15], [0, 0, 1, 1, 2, 2, 3, 3]),
        "skewed": (
            [0, 32761, 32762, 49142, 49143, 57333, 57334, 61429, 61430, 63478, 63479, 64503,
             64504, 65016, 65017, 65273, 65274, 65402, 65403, 65467, 65468, 65500, 65501,
             65517, 65518, 65526, 65527, 65531, 65532, 65534, 65535, 65535],
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12,
             12, 13, 13, 14, 14, 15, 15],
        ),
        "odd": ([0, 184, 185, 296, 297, 297, 298, 629, 630, 666, 667, 925, 926, 999],
                [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]),
    }
    @staticmethod
    def model(name):
        return {"uniform": lambda: uniform_model(4, 16), "skewed": skewed_model,
                "odd": odd_model, "zipf": zipf_model}[name]()

    @pytest.fixture(scope="class")
    def zipf(self):
        return zipf_model()

    @pytest.mark.parametrize("name", ["uniform", "skewed", "odd"])
    def test_flatten(self, name):
        model, g = self.model(name), gen_of(71)
        out = [flattening.flatten(m, model, g) for _ in range(3) for m in range(model.M)]
        assert out == self.FLATTEN[name]

    @pytest.mark.parametrize("name", ["uniform", "skewed", "odd"])
    def test_unflatten_at_cell_edges(self, name):
        model = self.model(name)
        edges, expected = self.EDGES[name]
        assert [flattening.unflatten(v, model) for v in edges] == expected

    def test_zipf_flatten(self, zipf):
        g, pg = gen_of(72), gen_of(73)
        ms = [pg.uniform_int(0, zipf.M - 1) if i % 2 else pg.uniform_int(0, 15)
              for i in range(2000)]
        out = [flattening.flatten(m, zipf, g) for m in ms]
        assert out[:8] == [421277743576, 1095821542613, 357383832987, 1090865111669,
                           420407335126, 997243618203, 432563943715, 1021429869585]
        assert sha256_lines(out) == \
            "ad29bddbeee60ba39be82c3c2103d92cd924e2823d8a5fa6c0d6c3fd5664277b"
        assert [flattening.unflatten(v, zipf) for v in out] == ms

    def test_zero_offset_below_a_partial_cell_falls_back(self):
        # u = 0 lands in the partial cell of m - 1 on every draw; after the
        # redraw budget the output is clamped to ceil(N*F(m))
        model = odd_model()
        assert [flattening.flatten(m, model, ForcedGen(forced_fraction=Fraction(0)))
                for m in range(model.M)] == [0, 185, 297, 298, 630, 667, 926]

    @pytest.mark.parametrize("m, j, out, draws", [
        (0, 362967, 0, 1), (0, 362968, 0, 64), (0, 362969, 1, 1),
        (1, 669748, 185, 1), (1, 669749, 185, 64), (1, 669750, 186, 1),
        (3, 359350, 298, 1), (3, 359351, 298, 64), (3, 359352, 299, 1),
        (4, 3158063, 630, 1), (4, 3158064, 630, 64), (4, 3158065, 631, 1),
        (5, 259663, 667, 1), (5, 259664, 667, 64), (5, 259665, 668, 1),
        (6, 1400183, 926, 1), (6, 1400184, 926, 64), (6, 1400185, 927, 1),
    ])
    def test_straddling_draw_is_redrawn(self, m, j, out, draws):
        # u = j / 2^26 just below, at and above a cell boundary: the middle
        # draw's truncated tail straddles the boundary and is rejected
        model = odd_model()
        g = CountingGen(Fraction(j, 1 << flattening.u_precision_bits(model)))
        assert flattening.flatten(m, model, g) == out
        assert g.draws == draws
