"""Beta(x, b) sampling with integer shapes at fixed dyadic precision.

For integer shape parameters the regularised incomplete beta function is the
binomial tail

    I_z(x, b) = sum_{j=x}^{d} C(d, j) z^j (1-z)^(d-j),   d = x + b - 1,

which we evaluate exactly in integer arithmetic for dyadic z.  Inversion is
pinned to the dyadic grid: the draw for target u is the largest multiple w of
2^-prec with I_w(x, b) <= u, so the result is independent of how the search
for it was seeded.  The search needs only the standard library: Newton's
method in floating point on log I against log z gives a guess good to about
2^-50, Newton steps on the grid (one exact CDF evaluation each; one step at
64 bits, two at 126) bring it within an ulp, and two exact comparisons pin
the grid point, with bisection as the fallback.

When the polynomial degree exceeds EXACT_DEGREE_LIMIT, exact evaluation is
intractable and we substitute the normal quantile with the Beta's exact mean
and variance, computed with mpmath at fixed precision so draws stay
deterministic and monotone in u.  The Beta(x, x+1) distributions met in the
bisection recursion concentrate as 1/sqrt(x), so the substitution error
vanishes precisely where it is used.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, exp, floor, ldexp, log, log1p

EXACT_DEGREE_LIMIT = 128

# Iteration cap of the float Newton, which climbs monotonically and
# converges in a handful of steps.  The grid Newton's cap, 2 + prec // 40,
# follows the precision, since each of its steps gains only ~50 bits (the
# density is a float).
_GUESS_MAX_STEPS = 64
# Above this many bits, 2^-prec and 2^prec leave the range of a double, and
# the search falls back to bisection over the grid.
_FLOAT_PREC_LIMIT = 1000


@lru_cache(maxsize=EXACT_DEGREE_LIMIT)
def _binomial_row(d: int) -> tuple:
    """C(d, 0), ..., C(d, d): the coefficients of every CDF of degree d."""
    return tuple(comb(d, j) for j in range(d + 1))


@lru_cache(maxsize=EXACT_DEGREE_LIMIT)
def _float_row(d: int) -> tuple:
    """The binomial row as floats, for the float guess."""
    return tuple(map(float, _binomial_row(d)))


def _cdf_num(x: int, b: int, wn: int, prec: int) -> int:
    """2^(prec*d) * I_{wn/2^prec}(x, b) as an exact integer, for 0 < wn < 2^prec.

    Homogeneous Horner over the binomial row: each step multiplies by a
    prec-bit integer, and nothing is divided."""
    d = x + b - 1
    row = _binomial_row(d)
    wc = (1 << prec) - wn
    acc = 1  # C(d, d)
    wc_pow = 1
    for j in range(d - 1, x - 1, -1):
        wc_pow *= wc
        acc = acc * wn + row[j] * wc_pow
    return acc * wn**x


def _cdf_leq(x: int, b: int, wn: int, prec: int, un: int) -> bool:
    """I_{wn/2^prec}(x, b) <= un/2^prec, exactly, without huge Fractions."""
    if wn <= 0:
        return un >= 0
    D = 1 << prec
    if wn >= D:
        return un >= D
    # total / D^d <= un / D  <=>  total <= un * D^(d-1)
    return _cdf_num(x, b, wn, prec) <= un << (prec * (x + b - 2))


def _quantile_guess(x: int, b: int, v: float) -> float:
    """Float Beta(x, b) quantile for a lower-tail target 0 < v <= 1/2.

    Newton's method on g(s) = log I_{e^s}(x, b) - log v, with

        I_z(x, b) = z^x (1-z)^(b-1) S(z/(1-z)),   S(t) = sum_i C(d, x+i) t^i,

    so that g'(s) = x C(d, x) / S.  The Beta density is log-concave, so g is
    concave in s; the start z = (v / C(d, x))^(1/x) lies left of the root
    because I_z <= C(d, x) z^x, and from there the iterates climb to the root
    without overshooting.  Summing the tail that holds v keeps every term
    positive, so the result is good to about 2^-50 relative.
    """
    d = x + b - 1
    coef = _float_row(d)[d : x - 1 : -1]  # C(d, d), ..., C(d, x)
    lead = coef[-1]
    target = log(v)
    s = (target - log(lead)) / x
    for _ in range(_GUESS_MAX_STEPS):
        z = exp(s)
        t = z / (1 - z)
        poly = 0.0
        for c in coef:
            poly = poly * t + c
        g = x * s + (b - 1) * log1p(-z) + log(poly) - target
        step = g * poly / (x * lead)
        s -= step
        if abs(step) < 1e-9:
            break
    return exp(s)


def _icdf_exact(x: int, b: int, un: int, prec: int) -> int:
    """Largest wn with I_{wn/2^prec}(x, b) <= un/2^prec, for small degree.

    The float guess solves the tail that holds the target (the upper one
    through I_z(x, b) = 1 - I_{1-z}(b, x)), so it stays accurate in relative
    terms on both sides.  While its predicted error exceeds half an ulp, a
    Newton step on the grid, one exact CDF evaluation each, refines it; the
    predicted error after a step of s ulps is |f'/f| s^2 / (2 * 2^prec) plus
    the float rounding of s.  Two exact comparisons then pin the grid point.
    """
    D = 1 << prec
    if un <= 0:
        return 0
    if prec > _FLOAT_PREC_LIMIT:  # the float guess would leave double range
        q, wn = 0.0, D >> 1
    elif 2 * un <= D:
        q = _quantile_guess(x, b, un / D)
        wn = int(q * D)
    else:
        q = _quantile_guess(b, x, (D - un) / D)
        wn = D - 1 - int(q * D)
    d = x + b - 1
    shift = prec * (d - 1)
    log_norm = log(x * _binomial_row(d)[x])  # log 1/B(x, b)
    err = ldexp(q, prec - 42)  # in ulps: the guess is good to ~2^-50
    for _ in range(2 + prec // 40):
        if err < 0.5 or not 0 < wn < D:
            break
        z, zc = wn / D, (D - wn) / D
        pdf = exp(log_norm + (x - 1) * log(z) + (b - 1) * log(zc))
        step = ((un << shift) - _cdf_num(x, b, wn, prec)) / (1 << shift) / pdf
        wn += floor(step)
        curvature = abs((x - 1) / z - (b - 1) / zc)
        err = 4 * (curvature * step * step / (2 * D) + abs(step) * 2.0**-52)
    wn = min(max(wn, 0), D - 1)
    # pin to the grid definition; Newton should be within a couple of ulps
    for _ in range(8):
        if not _cdf_leq(x, b, wn, prec, un):
            wn -= 1
        elif _cdf_leq(x, b, wn + 1, prec, un):
            wn += 1
        else:
            return max(wn, 0)
        wn = min(max(wn, 0), D - 1)
    # Newton landed far off (pathological endpoint); fall back to bisection
    lo, hi = 0, D  # invariant: cdf(lo) <= u, cdf(hi) > u (hi=D sentinel)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _cdf_leq(x, b, mid, prec, un):
            lo = mid
        else:
            hi = mid
    return lo


def _icdf_normal(x: int, b: int, un: int, prec: int) -> int:
    """Normal-quantile stand-in for huge shapes; deterministic via mpmath."""
    import mpmath  # only this path needs it; keeps it out of every CLI start

    D = 1 << prec
    if un <= 0:
        return 0
    with mpmath.mp.workprec(prec + 48):
        u = mpmath.mpf(un) / D
        s = x + b
        mean = mpmath.mpf(x) / s
        var = mpmath.mpf(x) * b / (mpmath.mpf(s) ** 2 * (s + 1))
        q = mean + mpmath.sqrt(2 * var) * mpmath.erfinv(2 * u - 1)
        wn = int(mpmath.floor(q * D))
    return min(max(wn, 0), D - 1)


def beta_icdf_bits(x: int, b: int, un: int, prec: int) -> int:
    """Dyadic inverse CDF: numerator of the Beta(x, b) draw for target
    un/2^prec, at prec fractional bits."""
    if x < 1 or b < 1:
        raise ValueError("shape parameters must be positive integers")
    if not 0 <= un < (1 << prec):
        raise ValueError("target numerator outside [0, 2^prec)")
    if x == 1 and b == 1:
        return un  # Beta(1,1) is uniform
    if x + b - 1 <= EXACT_DEGREE_LIMIT:
        return _icdf_exact(x, b, un, prec)
    return _icdf_normal(x, b, un, prec)

