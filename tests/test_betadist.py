from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdope import betadist

import reference
from conftest import gen_of


class TestCdf:
    def test_beta_1_1_is_identity(self):
        for z in (Fraction(1, 3), Fraction(7, 16), Fraction(99, 100)):
            assert reference.beta_cdf(1, 1, z) == z

    def test_beta_2_2_median(self):
        # I_{1/2}(2,2) = (C(3,2) + C(3,3)) / 8
        assert reference.beta_cdf(2, 2, Fraction(1, 2)) == Fraction(1, 2)

    def test_beta_2_1(self):
        # I_z(2,1) = z^2
        assert reference.beta_cdf(2, 1, Fraction(1, 4)) == Fraction(1, 16)

    def test_beta_1_2(self):
        # I_z(1,2) = 1 - (1-z)^2
        assert reference.beta_cdf(1, 2, Fraction(1, 3)) == Fraction(5, 9)

    def test_boundaries(self):
        assert reference.beta_cdf(3, 5, Fraction(0)) == 0
        assert reference.beta_cdf(3, 5, Fraction(1)) == 1
        assert reference.beta_cdf(3, 5, Fraction(-1, 2)) == 0
        assert reference.beta_cdf(3, 5, Fraction(3, 2)) == 1

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            reference.beta_cdf(0, 1, Fraction(1, 2))

    @given(
        x=st.integers(min_value=1, max_value=6),
        b=st.integers(min_value=1, max_value=6),
        num=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_cdf_is_integral_of_pdf_at_grid(self, x, b, num):
        # finite-difference check: CDF increments dominate a left Riemann sum
        # and are dominated by a right one on each monotone piece is overkill;
        # instead verify the CDF is nondecreasing and hits 0/1.
        z = Fraction(num, 64)
        z2 = Fraction(num + 1, 65)
        c1 = reference.beta_cdf(x, b, z)
        assert 0 <= c1 <= 1
        if z2 >= z:
            assert reference.beta_cdf(x, b, z2) >= c1


def oracle_icdf(x, b, un, prec):
    """Reference inversion by pure bisection over the dyadic grid."""
    D = 1 << prec
    u = Fraction(un, D)
    lo, hi = 0, D  # invariant: cdf(lo/D) <= u, hi is a sentinel
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference.beta_cdf(x, b, Fraction(mid, D)) <= u:
            lo = mid
        else:
            hi = mid
    return lo


class TestInverse:
    def test_beta_1_1_shortcut(self):
        assert betadist.beta_icdf_bits(1, 1, 12345, 16) == 12345

    def test_range_checks(self):
        with pytest.raises(ValueError):
            betadist.beta_icdf_bits(2, 2, 1 << 16, 16)
        with pytest.raises(ValueError):
            betadist.beta_icdf_bits(2, 2, -1, 16)

    def test_endpoints(self):
        assert betadist.beta_icdf_bits(3, 4, 0, 16) == 0
        w = betadist.beta_icdf_bits(3, 4, (1 << 16) - 1, 16)
        assert w < (1 << 16)

    @given(
        x=st.integers(min_value=1, max_value=8),
        b=st.integers(min_value=1, max_value=8),
        un=st.integers(min_value=0, max_value=(1 << 16) - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bisection_oracle(self, x, b, un):
        assert betadist.beta_icdf_bits(x, b, un, 16) == oracle_icdf(x, b, un, 16)

    def test_grid_definition_holds_at_64_bits(self):
        g = gen_of(40)
        prec = 64
        for _ in range(25):
            x = g.uniform_int(1, 16)
            b = g.uniform_int(1, 16)
            un = g.bits(prec)
            wn = betadist.beta_icdf_bits(x, b, un, prec)
            # wn is the largest grid point whose CDF stays at or below u
            assert betadist._cdf_leq(x, b, wn, prec, un)
            assert not betadist._cdf_leq(x, b, wn + 1, prec, un)

    def test_monotone_in_target(self):
        prec = 20
        prev = -1
        for un in range(0, 1 << prec, 1 << 14):
            w = betadist.beta_icdf_bits(5, 6, un, prec)
            assert w >= prev
            prev = w

    def test_high_precision_newton_path(self):
        # at 96 bits the grid search may take a second Newton step; the
        # result is still pinned to the grid
        prec = 96
        un = 0x5A5A5A5A5A5A5A5A5A5A5A5A
        wn = betadist.beta_icdf_bits(4, 5, un, prec)
        assert betadist._cdf_leq(4, 5, wn, prec, un)
        assert not betadist._cdf_leq(4, 5, wn + 1, prec, un)

    def test_high_precision_search_stays_short(self, monkeypatch):
        # each grid Newton step about doubles the bits of the point, from the
        # ~50 of the float guess, so the step cap follows the precision; with
        # a fixed cap of four steps the search fell through to a 480-step
        # bisection here.  A CDF evaluation is an exact numerator or a
        # fixed-point tail sum
        prec = 480
        calls = []
        for name in ("_cdf_num", "_tail_fixed"):
            real = getattr(betadist, name)
            monkeypatch.setattr(betadist, name, lambda *a, real=real: calls.append(a) or real(*a))
        g = gen_of(42)
        for x, b in ((64, 65), (8, 9), (2, 3)):
            un = g.bits(prec)
            calls.clear()
            wn = betadist.beta_icdf_bits(x, b, un, prec)
            assert len(calls) <= 20
            lo, hi = 0, 1 << prec  # plain bisection over the grid
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if betadist._cdf_leq(x, b, mid, prec, un) else (lo, mid)
            assert wn == lo
        # normal path: the seed is the float standard quantile, good to
        # ~2^-52 in units of sigma, and each grid Newton step doubles its
        # bits: 2 to 5 steps here, the last one pinned by its own evaluation
        # (2 evaluations per draw at h = 2^120, 12 for its 6 draws; the
        # budget is TestNormalBudget's 3 per draw).  A seed formed as a
        # float q = mu + sigma z loses sigma ~ 2^-62 below q's ulp there and
        # takes 6 to 12
        evals = []
        real_erf = betadist._erf_fixed
        monkeypatch.setattr(betadist, "_erf_fixed", lambda *a: evals.append(a) or real_erf(*a))
        for x, b, prec, draws, budget in (
            (300, 301, 480, 1, 7), (2**20, 2**20 + 1, 1000, 1, 8), (2**120, 2**120 + 1, 254, 6, 18),
        ):
            evals.clear()
            for _ in range(draws):
                un = g.bits(prec)
                assert pinned(x, b, betadist.beta_icdf_bits(x, b, un, prec), un, prec)
            assert len(evals) <= budget

    def test_beyond_double_range_bisects(self):
        # 2^-1100 underflows a double, so the float guess is skipped
        prec = 1100
        un = (1 << prec) // 3
        wn = betadist.beta_icdf_bits(2, 3, un, prec)
        assert betadist._cdf_leq(2, 3, wn, prec, un)
        assert not betadist._cdf_leq(2, 3, wn + 1, prec, un)

    @given(
        x=st.integers(min_value=1, max_value=20),
        b=st.integers(min_value=1, max_value=20),
        wn=st.integers(min_value=1, max_value=(1 << 32) - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_cdf_numerator_matches_fraction_reference(self, x, b, wn):
        d = x + b - 1
        exact = reference.beta_cdf(x, b, Fraction(wn, 1 << 32))
        assert Fraction(betadist._cdf_num(x, b, wn, 32), 1 << (32 * d)) == exact


# symmetric, skewed and one-sided shapes of degree 2 to 128
FIXED_SHAPES = (
    (1, 2), (2, 1), (2, 3), (3, 3), (5, 4), (1, 31), (16, 17), (31, 2),
    (32, 33), (50, 14), (1, 128), (128, 1), (2, 127), (64, 65), (100, 29),
)


class TestFixedWidth:
    @pytest.mark.parametrize("prec", (16, 32, 64, 96, 126, 254, 480))
    def test_comparator_against_exact(self, prec, monkeypatch):
        # the fixed-point pass at every width, on the grid points around each
        # pinned draw, at both ends of the grid and for targets in both tails
        monkeypatch.setattr(betadist, "_FIXED_MIN_BITS", 0)
        exact_leq = betadist._cdf_leq
        fallbacks = []
        monkeypatch.setattr(betadist, "_cdf_leq", lambda *a: fallbacks.append(a) or exact_leq(*a))
        fast_leq = betadist._cdf_leq_fast
        decisions = []
        monkeypatch.setattr(betadist, "_cdf_leq_fast", lambda *a: decisions.append(a) or fast_leq(*a))
        D = 1 << prec
        tail = 1 << max(prec - 40, 1)
        g = gen_of(prec % 256)
        for x, b in FIXED_SHAPES:
            d = x + b - 1
            for un in (g.bits(prec), g.uniform_int(0, tail - 1), D - 1 - g.uniform_int(0, tail - 1)):
                wn = betadist.beta_icdf_bits(x, b, un, prec)
                assert wn == 0 or exact_leq(x, b, wn, prec, un)
                assert wn == D - 1 or not exact_leq(x, b, wn + 1, prec, un)
                for w in {1, D - 1} | {w for w in range(wn - 1, wn + 3) if 0 < w < D}:
                    # the error bound of each tail, against its exact numerator
                    for lead, wl in ((x, w), (b, D - w)):
                        a, err, F, _ = betadist._tail_fixed(lead, d, wl, D - wl, prec)
                        exact = betadist._cdf_num(lead, d + 1 - lead, wl, prec)
                        assert a << (prec * d) <= exact << F <= (a + err) << (prec * d)
                    # the lower bound on the CDF's rise to the next grid point,
                    # from the fixed-point pass and from the exact one
                    if w < D - 1:
                        step = betadist._cdf_num(x, b, w + 1, prec) - betadist._cdf_num(x, b, w, prec)
                        for bits in (1 << 30, 0):
                            monkeypatch.setattr(betadist, "_FIXED_MIN_BITS", bits)
                            _, _, F, rise = betadist._cdf_gap(x, b, w, prec, un)
                            assert rise << (prec * d) <= step << (prec + F)
                    assert betadist._cdf_leq_fast(x, b, w, prec, un) == exact_leq(x, b, w, prec, un)
        # next to a pinned point about one decision in 2^22 is left undecided
        assert len(fallbacks) * 100 <= len(decisions)


def exact_pinned(x, b, wn, un, prec):
    """wn is the largest grid point with I_w <= u, decided on exact numerators."""
    return (wn == 0 or betadist._cdf_leq(x, b, wn, prec, un)) and \
        (wn == (1 << prec) - 1 or not betadist._cdf_leq(x, b, wn + 1, prec, un))


# the exact-path shapes of opf-beta frames: Beta(h, h+1) at degree d = 2h
DENSE_SHAPES = [(1 << k, (1 << k) + 1) for k in range(7)]


class TestExactPin:
    """The pass that takes a grid Newton step also pins the point it lands on."""

    @pytest.mark.parametrize("fixed_min_bits", (0, 1 << 30), ids=("fixed", "exact"))
    @pytest.mark.parametrize("prec", (64, 96, 254))
    @pytest.mark.parametrize("d", (2, 16, 64, 128))
    def test_boundary_targets(self, d, prec, fixed_min_bits, monkeypatch):
        # u at I(w) exactly and one ulp below, so u - I lies at either edge of
        # the pin's window [0, rise) at the landing point.  I(w) 2^prec is an
        # integer where w is a multiple of 2^-m with m d <= prec; elsewhere u
        # is its ceiling.  Every pass is a fixed-point one, or every pass exact
        monkeypatch.setattr(betadist, "_FIXED_MIN_BITS", fixed_min_bits)
        D = 1 << prec
        g = gen_of(d + prec % 7)
        m = max(min(prec // d, 6), 1)
        points = [k << (prec - m) for k in range(1, 1 << m)]
        points += [g.uniform_int(1, D - 2) for _ in range(4)]
        for x, b in ((d // 2, d - d // 2 + 1), (d - d // 8, 1 + d // 8)):
            for w in points:
                num = betadist._cdf_num(x, b, w, prec)
                un = -(-num >> (prec * (x + b - 2)))  # ceil(I(w) 2^prec)
                if not 0 < un < D:
                    continue
                at, below = betadist.beta_icdf_bits(x, b, un, prec), betadist.beta_icdf_bits(x, b, un - 1, prec)
                assert at >= w > below, (x, b, w)
                assert exact_pinned(x, b, at, un, prec) and exact_pinned(x, b, below, un - 1, prec)

    @pytest.mark.parametrize("factor", (1 - 2**-20, 1 + 2**-30, 0.5, 1.9))
    def test_pinned_from_a_poor_guess(self, factor, monkeypatch):
        # a float guess that is off leaves the draw to further steps or to
        # the comparisons; the draw is the same grid point
        g = gen_of(47)
        cases = [(x, b, prec, g.bits(prec)) for x, b in DENSE_SHAPES for prec in (64, 96, 254)]
        cases += [(x, b, 64, un) for x, b in ((3, 5), (40, 2)) for un in (1, 1 << 63, (1 << 64) - 2)]
        expected = [betadist.beta_icdf_bits(x, b, un, prec) for x, b, prec, un in cases]
        guess = betadist._quantile_guess
        monkeypatch.setattr(betadist, "_quantile_guess", lambda x, b, v: guess(x, b, v) * factor)
        pins = []
        pin = betadist._pin
        monkeypatch.setattr(betadist, "_pin", lambda *a: pins.append(a) or pin(*a))
        assert [betadist.beta_icdf_bits(x, b, un, prec) for x, b, prec, un in cases] == expected
        if abs(factor - 1) > 0.1:
            assert pins  # the comparisons were reached


class TestExactBudget:
    """CDF passes (_cdf_num and _tail_fixed calls) per exact draw."""

    def count(self, monkeypatch, prec, draws, seed):
        calls = []
        for name in ("_cdf_num", "_tail_fixed"):
            real = getattr(betadist, name)
            monkeypatch.setattr(betadist, name, lambda *a, real=real: calls.append(a) or real(*a))
        g = gen_of(seed)
        cases = [(x, b, g.bits(prec)) for x, b in DENSE_SHAPES for _ in range(draws)]
        got = [betadist.beta_icdf_bits(x, b, un, prec) for x, b, un in cases]
        n = len(calls)
        monkeypatch.undo()
        assert all(exact_pinned(x, b, wn, un, prec) for (x, b, un), wn in zip(cases, got))
        return n / len(cases)

    def test_one_pass_at_64_bits(self, monkeypatch):
        # the opf-beta-dense shapes: the pass that takes the one Newton step
        # pins its landing point; a second pass per draw would read 2
        assert self.count(monkeypatch, 64, 40, 48) <= 1.05

    def test_budget_at_96_bits(self, monkeypatch):
        # a step of ~2^46 ulps from the float guess can land within an ulp
        # only at small degree; the others take a second pass
        assert self.count(monkeypatch, 96, 20, 49) <= 1.35

    def test_budget_at_254_bits(self, monkeypatch):
        # two steps to get within an ulp, the second one pinned by the pass
        # that takes it
        assert self.count(monkeypatch, 254, 10, 50) <= 3.05


# Outputs of beta_icdf_bits(x, b, un, prec) for the targets of
# golden_targets(prec), recorded from the scipy-seeded search that preceded
# the stdlib one.  The draw is defined as a grid point, so any correct search
# must reproduce them bit for bit.
ICDF_GOLDEN = {
    (1, 2, 64): (
        0x0, 0x0, 0x4afb0ccc06219b7b,
        0xffffffff00000000, 0x1377fe26aea324cb, 0x59aa638aaa8576a7,
        0xb4d049e25b62d465, 0x47595df553fff03a, 0x8f281b1cc3561acf,
        0x88e3e12d96256d30, 0x4bdc3cc21f6b9b4d, 0x4c88b3ebb3a06b0b,
    ),
    (2, 3, 64): (
        0x0, 0x6882f5c0, 0x62bf0aba4b5252d6,
        0xfffffbfffffbffff, 0x2d44e60ee58564d5, 0x6e5fc795a7d28032,
        0xb257670d57d316fc, 0x5fc96c19ffb6f294, 0x96507dcfd8b40a41,
        0x91b6fe451ae63a19, 0x63751b3fccab014e, 0x64002e8b0239acfc,
    ),
    (3, 4, 64): (
        0x0, 0x256d6c1d972, 0x6be1577650db6f87,
        0xffff7deae8b01199, 0x3c23c260172b0c5f, 0x75a9cbe31fd168a4,
        0xae6dedcbbec36761, 0x695f12a0d1eee2be, 0x96dd42c324fe2ae2,
        0x930a7a122ccdf153, 0x6c7b5b0f66bc7194, 0x6cf0ebe7af91ec4d,
    ),
    (4, 5, 64): (
        0x0, 0x588140c21375, 0x70ae02f1120cbb49,
        0xfffbe440591fed8d, 0x459b613fe8413383, 0x7944366aeceeaf99,
        0xab173a329d1adad2, 0x6e78750d740b54d9, 0x964b7f948cce7a72,
        0x92f25422fc6c6960, 0x713580d3c83ff6c4, 0x719ce61a6bd365ee,
    ),
    (8, 9, 64): (
        0x0, 0x4e86487ba8bf74, 0x782b23ea70ff9d35,
        0xff57dc95a175cc28, 0x57f8f8a3acd95217, 0x7e59f3619257ef96,
        0xa273e176b553f2a0, 0x7692543176554c20, 0x93358640edc5177c,
        0x90ca6462de62f3c1, 0x788cf7992d67b0e0, 0x78d797ad0780a7c8,
    ),
    (16, 17, 64): (
        0x0, 0x499d4392520f3ad, 0x7c0abac2bcfb2e9a,
        0xfa21d9132d35b53e, 0x64b73b6ead6f7b72, 0x807333b715963a63,
        0x9a5ea7e6a8545bf6, 0x7ae6e0158d827aa9, 0x8f56d0bda3914c6e,
        0x8d9af01d72121d4d, 0x7c508a05af69df94, 0x7c85c8ef23eec04e,
    ),
    (32, 33, 64): (
        0x0, 0x127dad6a2f34f1e0, 0x7e02acbd189625bc,
        0xebdfe079ee4ba1be, 0x6d55b444d1ab2a0c, 0x8123c962e3b8b52d,
        0x93a19f7695c9d2cb, 0x7d3364d019df55b2, 0x8bb9ad6ef69da656,
        0x8a7d38ea65165490, 0x7e343f4b59cf7b29, 0x7e5a0e474779f32a,
    ),
    (64, 65, 64): (
        0x0, 0x2747c4a46fd20de6, 0x7f00aaedf286483b,
        0xd76e75c14fd0b031, 0x7326bdbc6f2eccc2, 0x81383f65b1863e13,
        0x8e5c19049f957958, 0x7e6dca851df45fae, 0x88ba2f6d094118a1,
        0x87d962881f6a95f2, 0x7f23cac724a82bbb, 0x7f3e94acc61526db,
    ),
    (5, 2, 64): (
        0x0, 0x66c0aa454b276, 0xbc4d01825140be6e,
        0xffffffffbde6ad74, 0x89171600b95be09b, 0xc4af2b10cdb6aed5,
        0xea35fc9316087571, 0xba0cd654cc8f9e13, 0xdcd3f3a70a7567a5,
        0xda5e847b5fab390e, 0xbcd592aac0903cc7, 0xbd3d688e4297aa65,
    ),
    (100, 29, 64): (
        0x0, 0x623f3a92b053a887, 0xc6d084545c680d5b,
        0xf9d4d8ac3c2e65d3, 0xbc87d7346e37e34d, 0xc8a57e26a0eb6515,
        0xd2ec4c2fc82951f8, 0xc655f673a208e9c2, 0xcea38dae1e8c6971,
        0xcdf465e61b09422d, 0xc6edc07e38d99378, 0xc70407ac450b3e08,
    ),
    (1, 128, 64): (
        0x0, 0x0, 0x161eea3847077b4,
        0x4afb0ccc06219b7b, 0x50f1fe6be91fe3, 0x1b80a986b12cbec,
        0x4daadfbf02b2336, 0x14db2eee02b3efc, 0x3417dddaee9224a,
        0x30ad4648eb2a2d3, 0x166e4a6b7021cd9, 0x16ab575281fb243,
    ),
    (1, 2, 96): (
        0x0, 0x0, 0x4afb0ccc06219b7ba682764c,
        0xffffffffffff000000000000, 0x1bb878c98c909745cda7472c, 0x628761f099cfc708093efaf6,
        0x4b18d769bccb2b16de26c056, 0x2b08678278c32062c3e79fc0, 0x68ea994ec10b96e6a60d6469,
        0x18204a49edf7e8b9c70184d6, 0x473edbe841950deee2017de9, 0x5c3bc9c6181d4bb5213dd9a0,
    ),
    (2, 3, 96): (
        0x0, 0x6882f5c030b1, 0x62bf0aba4b5252d64849101c,
        0xffffffff5ebae8337b05aa49, 0x37227dc95473618c5de837ed, 0x752fcffb480d7541aadf837a,
        0x62d728ddebd4a21bd9060246, 0x46e6f03a140b6dbbd87fbdc3, 0x7a0661e5f4637791869c50ba,
        0x33001bf81296a000c1fa65c3, 0x5fb3ac5bddfa6ad9969e0d44, 0x705c8503accb075537b68180,
    ),
    (3, 4, 96): (
        0x0, 0x5e4fab3882df8bfe, 0x6be1577650db6f87b55c2f09,
        0xffffff7deb030635b2b79cff, 0x4580a1ac4c80026b146ac832, 0x7b5a4d1bec8aed5c020551a5,
        0x6bf5c02e22843831df93d5ad, 0x53d0151413d02943d5251f35, 0x7f615029bee9c90700d6f0c6,
        0x41a013c5397a27e48e2696ee, 0x694c99e04080c80fae07b334, 0x7753566d07a129483ea21e6c,
    ),
    (4, 5, 96): (
        0x0, 0x588128601018cd97d4, 0x70ae02f1120cbb496fed88cb,
        0xfffff38bcb073106be112ca0, 0x4e4bbb27f17810f52ef85d0d, 0x7e3ecd967622049d2d6fa56d,
        0x70bff8024917d5a6281dbb0e, 0x5b4ca58263898e343fbc8b01, 0x81c40039b1a031dcece43081,
        0x4ab7d617058f6908e1b19948, 0x6e682dc1274333cb3aeeeb88, 0x7ab8d401fff1fbefd1553d1e,
    ),
    (8, 9, 96): (
        0x0, 0x4e7235a2514bb6b9f854a, 0x782b23ea70ff9d358148a626,
        0xfff1b933eb6610e6a88ceced, 0x5eb941d100b9f566d5bcda20, 0x81ecc1653e75cf428c767c67,
        0x78381bada7d28af45784afd5, 0x6888620dec07126abc935e68, 0x8472f8625e5a9c340ed16cab,
        0x5bf757e2d7a19c33456c1bdf, 0x76868cce80ba63ec8b734c97, 0x7f6589d2c04b476934f1efd2,
    ),
    (16, 17, 96): (
        0x0, 0x122b13125d483b7f50e7e13, 0x7c0abac2bcfb2e9a76cb1038,
        0xfe6e4a8c98358416612dc06f, 0x69b13e4acea03d5221a03848, 0x82fedf57d26ace27649d382a,
        0x7c13fbea4128f58ffa923754, 0x70d35d9ca2bca0120e8be99b, 0x84cb3b2e34cd9bfa8230cd39,
        0x67aad43786575563604e1ab7, 0x7ade768d4b9a5e4a2d458aa5, 0x8131d5ea301086f9f0fce781,
    ),
    (32, 33, 96): (
        0x0, 0x8e5fda6d1071292e44eb4d6, 0x7e02acbd189625bcffc5b820,
        0xf61cdf855e382a4525d85824, 0x70ebb959d0956dd358d9818c, 0x82f25b07d54f9051ebf96cdc,
        0x7e093f237dc3132e5458f33d, 0x760745c9103ef5143a267e4d, 0x8439325fde0f790d54709c9f,
        0x6f76d45c7d01b79d6c78146f, 0x7d2d6b1c4c64268af2a787cd, 0x81ab18d908734f948f0c3b69,
    ),
    (64, 65, 96): (
        0x0, 0x1a3aa0b8faa9b101e3c5939c, 0x7f00aaedf286483bd15e3983,
        0xe4c219b5f81b20b490987213, 0x75b595da8d3ff232f6b7f66b, 0x827ffce642a25d1af83d2e11,
        0x7f0552ff89d58094e46b945c, 0x79577f35f65771a71452a7be, 0x83679a32b9dab11e84fefb31,
        0x74abd0fa5cc6ec33ac91a0de, 0x7e698e88bea8696cea34619c, 0x81981d0ecb6dc5c21b3dfbc5,
    ),
    (5, 2, 96): (
        0x0, 0x1377b8be39b9cf524af9, 0xbc4d01825140be6e6070edc5,
        0xffffffffffffbde6ad74ac24, 0x94b9c44d7785e13fc63ea56b, 0xc948581d8b02c46a44777bb1,
        0xbc5f236469cab59b50b234c7, 0xa4dce335c3302b48ab61bf71, 0xcc6b2c282a4d4c4a19afd4eb,
        0x900534c5eaa2e62dbeaf1c15, 0xb9fc1b44de1ed2c0d0a7705c, 0xc60c6120f48fced1995b69e2,
    ),
    (100, 29, 96): (
        0x0, 0x4be22b2616b64d336398e715, 0xc6d084545c680d5bc55e02cf,
        0xfd4140fcb5cb2cb8c0185e0f, 0xbed241cfabbe3a851fbfa071, 0xc9b0f7fef6da801ad05d6cf9,
        0xc6d464ef6015157a8e51ea8b, 0xc201aec14a8b08a65a24defa, 0xca6c87e7ef255dc64bea9e84,
        0xbde57b6b863d4f6b21b1cc0b, 0xc6526c1a34604576e17043b8, 0xc8f3fb82b6d7cfc622d538ca,
    ),
    (1, 128, 96): (
        0x0, 0x0, 0x161eea3847077b4522da66a,
        0x67c80fae72475690b952dce7, 0x7540adc52f546767daefd8, 0x1efb697cb1859b0b873d1bd,
        0x162964ec2bd0c83faa078d1, 0xbc2f877a6ebaeb7b38a91e, 0x219c820f118a755f3a112a9,
        0x6547fad733ece50b71d273, 0x14d20b81aa22c7c9023bb6a, 0x1c7dd698d759514a9d59078,
    ),
    (1, 2, 126): (
        0x0, 0x0, 0x12bec333018866dee9a09d9322ad5058,
        0x3fffffffffffffff8000000000000000, 0x168b4e9d27aa1b353d54c584bfc226c9, 0x1dacc8f33d5116b7435bf4fe637f6f7b,
        0x2e1716cea4ce830c53bcdaa2c23935a4, 0x4ef3522fd247fb785800611b7c8e00e, 0xbec9302f4524d1c8301f0f344c5673d,
        0xa1b77d84f0d1d949f9830e8bd3f84d, 0x213658e5f82a943059cb5c54a3132ff8, 0x29b2d3bc5eef43717ead695bbea7c15c,
    ),
    (2, 3, 126): (
        0x0, 0x34417ae018587bf8, 0x18afc2ae92d494b5921244072461bfbc,
        0x3ffffffffff5ebae83394654f6f37c34, 0x1bb151891cb9683c881ffc5de7852322, 0x211432f49df87b910c56d7f78cdec7d1,
        0x2d43db154c0e20980e276e8b830829ae, 0xb6747ffb7bc834555b47ab8fe31afa4, 0x12d29b3eae2a08985fbb58481cbcda48,
        0x3d0214cce148a96a03aa6f74aab6afc, 0x23afd519b3eb658faaaeae221a2daf11, 0x29f149aa901c261d04b27e89d428c951,
    ),
    (3, 4, 126): (
        0x0, 0x5e4fab3868d71bd529085, 0x1af855dd9436dbe1ed570bc24a86312c,
        0x3fffffffd20252a6d935b3a7e632863f, 0x1d7faf735b18ad5d28762e4701a252eb, 0x21fb26ee3f088a110920933401c5e7d4,
        0x2c30553aab182654f7b6aa93f0907ab7, 0xf1e4f192409230627aee6f0ce5a39db, 0x15ec20382b8da6020f4486c634d0d0e5,
        0x6eb645ff27dfff3226ccd8d04bb2a61, 0x2424f1280467d601e9b9a3005ba59ebd, 0x295de40fae15a1d318deb96201697c65,
    ),
    (4, 5, 126): (
        0x0, 0x1f4a83c9f3e10bef4b442603, 0x1c2b80bc44832ed25bfb6232fe4ba07b,
        0x3ffffff38bcb5387af9809153c6fad3d, 0x1e63a701d1d7da07cf35313c6ab180b5, 0x224ea9e1f3a1b6b7350e228973c67646,
        0x2b4a93adc9355cd80f614caa165f7e6d, 0x117adec059b2f1153d5e379dc0d0dab8, 0x17b1c1cf978dde2044c888a8d9b41898,
        0x95f424bcf08d8883c0d20817c2c4980, 0x2432a1d6e688f4d24543abbcbc2dac46, 0x28c8f6bc448b1f8b34ab44a0b712317b,
    ),
    (8, 9, 126): (
        0x0, 0x17521becb9a142cf597eb52c547c, 0x1e0ac8fa9c3fe74d60522989aa3ef962,
        0x3fffa55cac1614fe7d703816e508b4ff, 0x1fa3d8f3d1066b7144b0342efc9458a2, 0x22734ca22ff30c0cacf4b044e5984d21,
        0x290031ed4c16b279df7b7f84cc03555e, 0x160e045f3df8a60f3e511355ef9dc69b, 0x1ac70e032d20f3726ecc498844dd411e,
        0xf24c0c8243fd82fbe6993623a816473, 0x23cf2b221e785f807ba034914f6965ce, 0x27245fe58aa9318d4f037bcf67fa7e12,
    ),
    (16, 17, 126): (
        0x0, 0x13c09926d58e6eaf63a93a583503dd, 0x1f02aeb0af3ecba69db2c40e04f546b4,
        0x3fe28d70ba742fa24bb83ea199bd01f3, 0x20265194a06b9f7c80d197d67520c767, 0x22270634aa245154ac24fea9746b7fbf,
        0x26e04dbb30be5ff59e4e7ac8b05f4741, 0x1939829b0116937759e7a8a9a50d24cf, 0x1cabd83cf6ea6bb6913ff96cf1d2edc5,
        0x13e613ac70f0aba9fe072aa0595c47f0, 0x231f8dba151dfb4f0564d4c63bae0288, 0x25858dc44f8c08eac1ca58d4dff33c45,
    ),
    (32, 33, 126): (
        0x0, 0x12465a1af685c5de114b454a05e5bd5, 0x1f80ab2f4625896f3ff16e081889db5f,
        0x3eb4cc3c1783e1845c49903327623c37, 0x204fb3dc9ed920dc0c4d777ee265f5f2, 0x21bbcb3298258a7a775de03e069f4159,
        0x251cce7105ee52d4b0cb7bfbf4ade4e9, 0x1b5de230f6133ac940ddf3ac608734c6, 0x1dd6b7125f946832f2e15f0d62b22ae3,
        0x1772306f4f27ef958ea05c019bad8510, 0x226c9a33301f257b9b5b4417ac3f572d, 0x24234c19e81d69fc49ad905a7a49907d,
    ),
    (64, 65, 126): (
        0x0, 0x4956c63b69934a3b8454e88ffc97ea2, 0x1fc02abb7ca1920ef4578e60ca741ac7,
        0x3b371ddcf2a10b511aca05b00a622a61, 0x2052d92db5bdd2f1dbc1d61cb5b64763, 0x2154e5620bb44fde98087cd53b3b8ae9,
        0x23bc7c2ef16b6f9b16b32c4bc0c43064, 0x1ccfba1265aeca0907ca91e498493ae1, 0x1e92260e3968286b2c40b0ba13ad82eb,
        0x19fc4e61160d585f98bc5ef8c37ba95a, 0x21d25873ba85ce1df136aee7c6abee26, 0x230a5a2edb2313c29fe916f53f52011f,
    ),
    (5, 2, 126): (
        0x0, 0x1377b8800c24dfc69fb31b6706, 0x2f13406094502f9b981c3b716af68346,
        0x3fffffffffffffffdef356ba56124afe, 0x313d4e98057426d5c53ef57082678ff8, 0x34b0432656cb08facaf6ba68b066e89d,
        0x3ad7894b4bb3982bcefb1b981c800db6, 0x22616206c4275ec6a53e41144e8da024, 0x2a3ba07f7376701b8fffc4d4829129e6,
        0x15c91eb57d552664d81c32ea704fbf79, 0x362f77c8c2647166a993a0dbde7d96d4, 0x395e95dd9670a8b189e7d225d4b79e4f,
    ),
    (100, 29, 126): (
        0x0, 0xf0f2076e225391d611331d381c4970e, 0x31b42115171a0356f15780b3c386ec5f,
        0x3fabcee4c0fbfb10ead6d1f35b2ff7fd, 0x322d4bd597db14a70bc226367357a710, 0x32fdbb91ee1621d9f74330d185881c9e,
        0x34d6e8085e3e3555d2474e3a0d0e744f, 0x2f276a6146369f3aee50d4fa203d9791, 0x30b473e1d2bda4df12cbebb266a3db18,
        0x2c810cdb186925f465c73fc75730db9a, 0x3360e6a540b8b71b502d29fa0cb158b2, 0x345173279c3833cd2568f3ec17b48dfc,
    ),
    (1, 128, 126): (
        0x0, 0x0, 0x587ba8e11c1ded148b699a8618b43d,
        0x1fa6cb8310ff3e232106a6b610bac842, 0x6ecaf88423dd1631debf8620fc0911, 0x9eb754ae3acf74671e22d17fea41a9,
        0x142cd6f4fee1a490900f9cff12261c0, 0x1486f398e2e35b75e956b38665b446, 0x34b28bef162756f12e82df33539d58,
        0x28a07be1db2e2b48ad4eaed9f5718, 0xba43ff5c50846239442bf655381e72, 0x10bac296151ada7ef330b1f97d157fd,
    ),
}


def golden_targets(prec):
    g = gen_of(prec)
    return [0, 1, 1 << (prec - 1), (1 << prec) - 1] + [g.bits(prec) for _ in range(8)]


class TestGoldenVectors:
    @pytest.mark.parametrize("shape", sorted(ICDF_GOLDEN))
    def test_icdf_bits(self, shape):
        x, b, prec = shape
        got = tuple(betadist.beta_icdf_bits(x, b, un, prec) for un in golden_targets(prec))
        assert got == ICDF_GOLDEN[shape]


class TestNormalFallback:
    # degree x + b - 1 above EXACT_DEGREE_LIMIT routes through the
    # normal-quantile substitute

    def shapes(self):
        h = betadist.EXACT_DEGREE_LIMIT
        return h + 10, h + 11

    def test_deterministic(self):
        x, b = self.shapes()
        un = 0xDEADBEEF00112233
        assert betadist.beta_icdf_bits(x, b, un, 64) == betadist.beta_icdf_bits(x, b, un, 64)

    def test_median_near_mean(self):
        x, b = self.shapes()
        w = betadist.beta_icdf_bits(x, b, 1 << 63, 64)
        assert abs(w / 2**64 - x / (x + b)) < 1e-3

    def test_monotone_in_target(self):
        x, b = self.shapes()
        prev = -1
        for un in range(0, 1 << 64, 1 << 59):
            w = betadist.beta_icdf_bits(x, b, un, 64)
            assert w >= prev
            prev = w

    def test_extreme_targets_stay_in_range(self):
        x, b = self.shapes()
        assert betadist.beta_icdf_bits(x, b, 0, 64) == 0
        w = betadist.beta_icdf_bits(x, b, (1 << 64) - 1, 64)
        assert 0 <= w < 1 << 64


# Outputs of beta_icdf_bits(x, b, un, prec) on the normal path as (un, wn)
# pairs, recorded from the mpmath erfinv quantile that preceded the
# grid-pinned one: targets 1/2 and four from gen_of(prec), plus 1 and
# 2^64 - 1 at 64 bits, each kept only where that quantile agreed with
# mpmath at prec + 300 bits.  The draw is a grid point, so any correct
# search must reproduce them bit for bit.
NORMAL_GOLDEN = {
    (65, 66, 64): (
        (0x8000000000000000, 0x7f05dcd30dadec75),
        (0x2574f4555b12ee10, 0x734c82618db7d24a),
        (0x93ecdc768f9b1c8e, 0x8135dc975c5238d2),
        (0xe9eb0266411b4d3f, 0x8e38780450ab279c),
        (0x7ad00a9a1c57571d, 0x7e74f103dd8869c5),
        (0x1, 0x19dd367b2f6b91a7),
        (0xffffffffffffffff, 0xe42e832aebf04743),
    ),
    (1000, 1001, 64): (
        (0x8000000000000000, 0x7fef9fcac75307cd),
        (0x2574f4555b12ee10, 0x7cececea3046465d),
        (0x93ecdc768f9b1c8e, 0x807f6c3ffbb1da7f),
        (0xe9eb0266411b4d3f, 0x83d6ab2af3562aa6),
        (0x7ad00a9a1c57571d, 0x7fca692a03c39b30),
        (0x1, 0x65f5c9149d0f7931),
        (0xffffffffffffffff, 0x99e97680f1969669),
    ),
    (65539, 65541, 64): (
        (0x8000000000000000, 0x7fff8001fff8001f),
        (0x2574f4555b12ee10, 0x7fa041066919e104),
        (0x93ecdc768f9b1c8e, 0x80114570338e83f0),
        (0xe9eb0266411b4d3f, 0x807af747299b74b7),
        (0x7ad00a9a1c57571d, 0x7ffae6ab4a2b044b),
        (0x1, 0x7cc9afb92b09a362),
        (0xffffffffffffffff, 0x8335504ad4e65cdd),
    ),
    (2147483647, 2147483648, 64): (
        (0x8000000000000000, 0x7fffffff7fffffff),
        (0x2574f4555b12ee10, 0x7fff794b923b730f),
        (0x93ecdc768f9b1c8e, 0x8000192196506af0),
        (0xe9eb0266411b4d3f, 0x8000ae9c76f9ef5f),
        (0x7ad00a9a1c57571d, 0x7ffff97e6f390628),
        (0x1, 0x7ffb75bcfa1407cf),
        (0xffffffffffffffff, 0x80048a4205ebf82f),
    ),
    (140737488355328, 140737488355329, 64): (
        (0x8000000000000000, 0x7fffffffffff8000),
        (0x2574f4555b12ee10, 0x7fffff794c11bb73),
        (0x93ecdc768f9b1c8e, 0x800000192215d06a),
        (0xe9eb0266411b4d3f, 0x800000ae9cf679ef),
        (0x7ad00a9a1c57571d, 0x7ffffff97eeeb906),
        (0x1, 0x7ffffb75bd799407),
        (0xffffffffffffffff, 0x8000048a42856bf8),
    ),
    (4611686018427387904, 4611686018427387905, 64): (
        (0x8000000000000000, 0x7fffffffffffffff),
        (0x2574f4555b12ee10, 0x7fffffff41805c37),
        (0x93ecdc768f9b1c8e, 0x80000000238b2c5e),
        (0xe9eb0266411b4d3f, 0x80000000f6f0b5e9),
        (0x7ad00a9a1c57571d, 0x7ffffffff6cd3de1),
        (0x1, 0x7ffffff99450fc38),
        (0xffffffffffffffff, 0x800000066baf03c5),
    ),
    (40, 200, 64): (
        (0x8000000000000000, 0x2aaaaaaaaaaaaaaa),
        (0x2574f4555b12ee10, 0x243300eac35ca522),
        (0x93ecdc768f9b1c8e, 0x2bdf957bda48b0d8),
        (0xe9eb0266411b4d3f, 0x330ce04f8fd11c77),
        (0x7ad00a9a1c57571d, 0x2a5ab8f86fc12131),
        (0x1, 0x0),
        (0xffffffffffffffff, 0x627843ca94a96a8d),
    ),
    (65, 66, 96): (
        (0x800000000000000000000000, 0x7f05dcd30dadec75407d1196),
        (0x3470832abac30c53d7883156, 0x75d6867cb0e0b216ac3e17f5),
        (0x9f22d54c8ca209d9ca1cb2bd, 0x827946f7c1297d06a9c6d1b1),
        (0x802a1e326be11e0c95945a48, 0x7f0a74fcf5395383a440cc5a),
        (0x4ed4fbf87af2e806709f5052, 0x796eff05113220cfc943f2db),
    ),
    (1000, 1001, 96): (
        (0x800000000000000000000000, 0x7fef9fcac75307cdd95d026e),
        (0x3470832abac30c53d7883156, 0x7d93d6c8cb1692054b81ac3d),
        (0x9f22d54c8ca209d9ca1cb2bd, 0x80d27880014f2051feee5b73),
        (0x802a1e326be11e0c95945a48, 0x7ff0cdcfd38089b08ffc8057),
        (0x4ed4fbf87af2e806709f5052, 0x7e8033715ebbdd4c30911b1b),
    ),
    (65539, 65541, 96): (
        (0x800000000000000000000000, 0x7fff8001fff8001fff8001ff),
        (0x3470832abac30c53d7883156, 0x7fb4e1c0bc70aefdfd25b0e7),
        (0x9f22d54c8ca209d9ca1cb2bd, 0x801b88dd66f1505289f502f0),
        (0x802a1e326be11e0c95945a48, 0x7fffa5552633a6235ed27ef8),
        (0x4ed4fbf87af2e806709f5052, 0x7fd217a7878a65ef16c09d78),
    ),
    (2147483647, 2147483648, 96): (
        (0x800000000000000000000000, 0x7fffffff7fffffff7fffffff),
        (0x3470832abac30c53d7883156, 0x7fff9677e78f9180202221c6),
        (0x9f22d54c8ca209d9ca1cb2bd, 0x800027a574fef8899591527a),
        (0x802a1e326be11e0c95945a48, 0x80000034497c586e0786f116),
        (0x4ed4fbf87af2e806709f5052, 0x7fffbfc79e0c6069e194e85c),
    ),
    (140737488355328, 140737488355329, 96): (
        (0x800000000000000000000000, 0x7fffffffffff800000000000),
        (0x3470832abac30c53d7883156, 0x7fffff9678670f918109a985),
        (0x9f22d54c8ca209d9ca1cb2bd, 0x80000027a5f47ef889edeb71),
        (0x802a1e326be11e0c95945a48, 0x8000000034c8fc586e875228),
        (0x4ed4fbf87af2e806709f5052, 0x7fffffbfc81d8c606aa1ccaa),
    ),
    (4611686018427387904, 4611686018427387905, 96): (
        (0x800000000000000000000000, 0x7fffffffffffffff00000000),
        (0x3470832abac30c53d7883156, 0x7fffffff6ac22db0facf1f4e),
        (0x9f22d54c8ca209d9ca1cb2bd, 0x80000000381234f45c0c69cc),
        (0x802a1e326be11e0c95945a48, 0x80000000004aa6f36ce07230),
        (0x4ed4fbf87af2e806709f5052, 0x7fffffffa52e7eb94624a062),
    ),
    (40, 200, 96): (
        (0x800000000000000000000000, 0x2aaaaaaaaaaaaaaaaaaaaaaa),
        (0x3470832abac30c53d7883156, 0x259993e310eb9e3ec82fad1c),
        (0x9f22d54c8ca209d9ca1cb2bd, 0x2c91fe141e7705b8cede7bc3),
        (0x802a1e326be11e0c95945a48, 0x2aad337bf809cb2df23a990e),
        (0x4ed4fbf87af2e806709f5052, 0x2795585c1dd227b94f283e83),
    ),
    (65, 66, 126): (
        (0x20000000000000000000000000000000, 0x1fc17734c36b7b1d501f44659e4a4271),
        (0x2525a7f468da663a5bc08307408afdbd, 0x205230306e9e9f19acbc51f3a2f5431a),
        (0x2d97294f78b3414db025a70047a0647a, 0x2150efb6c97527ec9b484d085034047b),
        (0x3afcf47fd00d08c42a54f855a95bce56, 0x23b3734037cc76125bca647970dc369b),
        (0x97d05909133c078e40ea8865d5f6c83, 0x1cd921e75426f1d618efad707cc15d3f),
    ),
    (1000, 1001, 126): (
        (0x20000000000000000000000000000000, 0x1ffbe7f2b1d4c1f37657409b91f99a6b),
        (0x2525a7f468da663a5bc08307408afdbd, 0x202111864fd889fde202f928b83697a8),
        (0x2d97294f78b3414db025a70047a0647a, 0x20627bcfb5744cbfb047f1f7986df78d),
        (0x3afcf47fd00d08c42a54f855a95bce56, 0x20ff40f001e3f599a762aaacc2a99662),
        (0x97d05909133c078e40ea8865d5f6c83, 0x1f3cc5fc0811063786e5d801b1a64de4),
    ),
    (65539, 65541, 126): (
        (0x20000000000000000000000000000000, 0x1fffe0007ffe0007ffe0007ffe0007ff),
        (0x2525a7f468da663a5bc08307408afdbd, 0x200477ba4c4262566ae65bf851a24daf),
        (0x2d97294f78b3414db025a70047a0647a, 0x200c8d4cf95885fff5b8e53c8ec13b92),
        (0x3afcf47fd00d08c42a54f855a95bce56, 0x201fed1cd37727792bde6e7232492b0e),
        (0x97d05909133c078e40ea8865d5f6c83, 0x1fe8410ab09edf80433835bf8c36bf90),
    ),
    (2147483647, 2147483648, 126): (
        (0x20000000000000000000000000000000, 0x1fffffffdfffffffdfffffffdfffffff),
        (0x2525a7f468da663a5bc08307408afdbd, 0x2000067ea8cfa4fa63b9ee22478a4b9b),
        (0x2d97294f78b3414db025a70047a0647a, 0x200011ed93fa788d21777a17c7473df7),
        (0x3afcf47fd00d08c42a54f855a95bce56, 0x20002d540d58f7fd9047bb2bb14e62f6),
        (0x97d05909133c078e40ea8865d5f6c83, 0x1fffde97e366ab84a124ff2a5d6caa1c),
    ),
    (140737488355328, 140737488355329, 126): (
        (0x20000000000000000000000000000000, 0x1fffffffffffe000000000001fffffff),
        (0x2525a7f468da663a5bc08307408afdbd, 0x200000067ec8afa4fa7d3b28b226f7a7),
        (0x2d97294f78b3414db025a70047a0647a, 0x20000011edb3da788d2f89cf3448b75c),
        (0x3afcf47fd00d08c42a54f855a95bce56, 0x2000002d542d38f7fd82f3a49ceffd89),
        (0x97d05909133c078e40ea8865d5f6c83, 0x1fffffde980346ab84e28ceb2fd39afb),
    ),
    (4611686018427387904, 4611686018427387905, 126): (
        (0x20000000000000000000000000000000, 0x1fffffffffffffffc000000000000000),
        (0x2525a7f468da663a5bc08307408afdbd, 0x20000000092f8842fa3387aa47e58d71),
        (0x2d97294f78b3414db025a70047a0647a, 0x20000000195ad1fe19ae481aae1c4d93),
        (0x3afcf47fd00d08c42a54f855a95bce56, 0x20000000401ac8e12f91f53f5724ead6),
        (0x97d05909133c078e40ea8865d5f6c83, 0x1fffffffd0c1aa160f8f05d2d6332170),
    ),
    (40, 200, 126): (
        (0x20000000000000000000000000000000, 0xaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa),
        (0x2525a7f468da663a5bc08307408afdbd, 0xafa80533cba2fa1666e5d634fa4b1c5),
        (0x2d97294f78b3414db025a70047a0647a, 0xb8707be0b8b7aac30828ce69791a399),
        (0x3afcf47fd00d08c42a54f855a95bce56, 0xcd7d039ebef1863a17d309ca106cec2),
        (0x97d05909133c078e40ea8865d5f6c83, 0x9101044adf62a8f1e302db77ad8be64),
    ),
}


# deep-tail targets below 2^(prec - 100) at 126 bits, mirrored to the top
DEEP_TAILS = (1, 2, 3, 0x2F00001, (1 << 26) - 1)


def mp_leq(x, b, wn, un, prec):
    """Phi((wn/2^prec - mu)/sigma) <= un/2^prec in mpmath at 2 prec + 64 bits."""
    D = 1 << prec
    with mpmath.mp.workprec(2 * prec + 64):
        s = x + b
        sigma = mpmath.sqrt(mpmath.mpf(x) * b / (s + 1)) / s
        t = (mpmath.mpf(wn) / D - mpmath.mpf(x) / s) / sigma
        if t > 0:  # compare upper tails, which keep their relative precision
            return mpmath.ncdf(-t) >= mpmath.mpf(D - un) / D
        return mpmath.ncdf(t) <= mpmath.mpf(un) / D


def pinned(x, b, wn, un, prec):
    """wn is the largest grid point with Phi <= u, or 0 when none is."""
    D = 1 << prec
    return ((wn == 0 or mp_leq(x, b, wn, un, prec))
            and (wn == D - 1 or not mp_leq(x, b, wn + 1, un, prec)))


class TestNormalPath:
    @pytest.mark.parametrize("shape", sorted(NORMAL_GOLDEN))
    def test_golden(self, shape):
        x, b, prec = shape
        pairs = NORMAL_GOLDEN[shape]
        assert tuple((un, betadist.beta_icdf_bits(x, b, un, prec)) for un, _ in pairs) == pairs

    @pytest.mark.parametrize("shape", sorted(NORMAL_GOLDEN))
    def test_pinned_against_mpmath(self, shape):
        x, b, prec = shape
        D = 1 << prec
        targets = [un for un, _ in NORMAL_GOLDEN[shape]]
        if prec == 126:
            targets += [un for t in DEEP_TAILS for un in (t, D - t)]
        for un in targets:
            assert pinned(x, b, betadist.beta_icdf_bits(x, b, un, prec), un, prec), hex(un)

    @given(
        h=st.integers(min_value=65, max_value=2**62),
        prec=st.sampled_from((64, 126)),
        un=st.integers(min_value=1, max_value=2**126),
        gap=st.integers(min_value=1, max_value=2**40),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_target(self, h, prec, un, gap):
        D = 1 << prec
        lo, hi = un % D, min(un % D + gap, D - 1)
        assert betadist.beta_icdf_bits(h, h + 1, lo, prec) <= betadist.beta_icdf_bits(h, h + 1, hi, prec)

    @given(
        h=st.integers(min_value=65, max_value=2**62),
        prec=st.sampled_from((64, 96, 254)),
        tail=st.sampled_from((None, "half") + DEEP_TAILS),
        mirror=st.booleans(),
        un=st.integers(min_value=0, max_value=2**254),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_evaluation_pin(self, h, prec, tail, mirror, un):
        # a draw that the Newton evaluation pins by itself is the grid point,
        # for random targets, 1 and D - 1, 1/2 and the deep tails at both ends
        D = 1 << prec
        un = D >> 1 if tail == "half" else un % (D - 1) + 1 if tail is None else tail
        if mirror:
            un = D - un
        assert pinned(h, h + 1, betadist.beta_icdf_bits(h, h + 1, un, prec), un, prec)

    @pytest.mark.parametrize("h, prec", ((2**100, 64), (2**62, 126), (2**120, 254)),
                             ids=("2^100-64", "2^62-126", "2^120-254"))
    def test_boundary_targets(self, h, prec):
        # u at or just above Phi at a grid point w, where a grid step's rise
        # spans many ulps of u: the draw is w, and w - 1 for the next target
        # down.  Such a point lies within the pin's error bounds of a grid
        # boundary, and so does the landing point of a long last step (2^87
        # ulps at h = 2^120), whose Taylor remainder then decides
        D = 1 << prec
        s = 2 * h + 1
        g = gen_of(46)
        with mpmath.mp.workprec(2 * prec + 64):
            sigma = mpmath.sqrt(mpmath.mpf(h) * (h + 1) / (s + 1)) / s
            for k in range(-12, 13):
                w = int((mpmath.mpf(h) / s + k * sigma / 4) * D) + g.uniform_int(0, 255)
                t = (mpmath.mpf(w) / D - mpmath.mpf(h) / s) / sigma
                un = int(mpmath.ceil(mpmath.ncdf(t) * D))
                assert betadist.beta_icdf_bits(h, h + 1, un, prec) == w, k
                assert betadist.beta_icdf_bits(h, h + 1, un - 1, prec) == w - 1, k

    @pytest.mark.parametrize("shift", (-40.0, -1e-3, 1e-3, 40.0))
    def test_pinned_from_a_poor_guess(self, shift, monkeypatch):
        # a float guess that is off, or past the cutoff, leaves the draw to
        # the comparisons; the draw is the same grid point
        g = gen_of(43)
        cases = [(h, h + 1, prec, g.bits(prec)) for h, prec in ((2**10, 64), (2**40, 126), (300, 254))]
        cases += [(x, b, 126, un) for x, b, prec in NORMAL_GOLDEN if prec == 126
                  for un in (1, 1 << 125, (1 << 126) - 3)]
        expected = [betadist.beta_icdf_bits(x, b, un, prec) for x, b, prec, un in cases]
        guess = betadist._normal_quantile_guess
        monkeypatch.setattr(betadist, "_normal_quantile_guess", lambda v: guess(v) + shift)
        pins = []
        pin = betadist._pin
        monkeypatch.setattr(betadist, "_pin", lambda *a: pins.append(a) or pin(*a))
        assert [betadist.beta_icdf_bits(x, b, un, prec) for x, b, prec, un in cases] == expected
        if abs(shift) > 1:
            assert pins  # the comparisons were reached


class TestNormalBudget:
    """Phi evaluations (_erf_fixed calls) per normal draw."""

    def count(self, monkeypatch, shapes, draws, seed):
        evals = []
        real_erf = betadist._erf_fixed
        monkeypatch.setattr(betadist, "_erf_fixed", lambda *a: evals.append(a) or real_erf(*a))
        g = gen_of(seed)
        n = 0
        for x, b, prec in shapes:
            for _ in range(draws):
                un = g.bits(prec)
                wn = betadist.beta_icdf_bits(x, b, un, prec)
                n += 1
                assert pinned(x, b, wn, un, prec)
        return len(evals) / n

    def test_one_evaluation_at_dense_shapes(self, monkeypatch):
        # the normal-path frames of an opf-beta encrypt at rho = 15: the
        # first Newton step's evaluation pins its landing point
        shapes = [(1 << k, (1 << k) + 1, 64) for k in range(7, 15)]
        assert self.count(monkeypatch, shapes, 25, 44) <= 1.1

    def test_at_most_three_at_254_bits(self, monkeypatch):
        # a staged first step and the pinning one
        assert self.count(monkeypatch, [(2**120, 2**120 + 1, 254)], 20, 45) <= 3


class TestErfFixed:
    # t^2/2 values from 0 to past prec ln 2 (the cutoff of the normal path),
    # as fractions rn/rd with an odd rd
    @pytest.mark.parametrize("P", (96, 128, 256))
    def test_bounds_against_mpmath(self, P):
        rd = (3 << 70) + 12345
        g = gen_of(P % 256)
        rs = [0, 1e-12, 0.01, 0.5, 1, 2, 7.5, 30, 0.5 * P * 0.6931, P * 0.6931, 1.3 * P * 0.6931]
        rns = [int(r * rd) for r in rs] + [1, g.uniform_int(1, 100 * rd)]
        with mpmath.mp.workprec(3 * P + 64):
            for rn in rns:
                value, err, e_sq = betadist._erf_fixed(rn, rd, P)
                r = mpmath.mpf(rn) / rd
                assert abs(value - mpmath.erf(mpmath.sqrt(r)) * 2**P) <= err, rn
                e_true = mpmath.exp(r)
                assert e_sq <= e_true * 2**P < e_sq + err * e_true, rn
                assert 2 * err < 2**P
            k_erf, k_sq2pi = betadist._constants(P)
            assert abs(k_erf - 2 / mpmath.sqrt(mpmath.pi) * 2**P) <= 2
            assert abs(k_sq2pi - mpmath.sqrt(2 * mpmath.pi) * 2**P) <= 2


class TestDraw:
    def test_returns_dyadic_fraction(self):
        g = gen_of(41)
        for _ in range(50):
            f = reference.draw(g, 2, 3, 32)
            assert 0 <= f < 1
            d = f.denominator
            assert d & (d - 1) == 0

    def test_mean_beta_2_3(self):
        g = gen_of(42)
        n = 2000
        total = sum(reference.draw(g, 2, 3, 32) for _ in range(n))
        assert abs(total / n - Fraction(2, 5)) < Fraction(3, 100)
