"""Beta(x, b) sampling with integer shapes at fixed dyadic precision.

For integer shape parameters the regularised incomplete beta function is the
binomial tail

    I_z(x, b) = sum_{j=x}^{d} C(d, j) z^j (1-z)^(d-j),   d = x + b - 1,

which we can evaluate exactly in integer arithmetic for dyadic z.  Inversion
is pinned to the dyadic grid: the draw for target u is the largest multiple w
of 2^-prec with I_w(x, b) <= u, so the result is independent of how the
search for it was seeded.  The search needs only the standard library:
Newton's method in floating point on log I against log z gives a guess good
to about 2^-50, and Newton steps on the grid (one CDF evaluation each; one
step at 64 bits, two at 126) bring it within an ulp.  The evaluation that
takes the last step also pins the point it lands on, through a bound on how
far the density moves over the step: one evaluation per draw at 64 bits.
Where it cannot, the evaluation at that point pins it (u - I lies below a
lower bound on the CDF's rise to the next grid point), and otherwise
comparisons do, with bisection as the fallback.  Where the exact numerator
would be _FIXED_MIN_BITS wide or more, each evaluation is instead done in
truncated fixed point at prec + 32 bits, with a relative error bound that
holds because every term of the tail it sums is positive; a comparison the
bound cannot separate falls back to the exact one, so every draw is the one
exact arithmetic gives.

When the polynomial degree exceeds EXACT_DEGREE_LIMIT, exact evaluation is
intractable and we substitute the normal law with the Beta's exact mean
mu = x/s and variance sigma^2 = xb/(s^2 (s+1)), s = x + b.  That draw is
pinned to the same grid: the largest w with Phi((w - mu)/sigma) <= u.  Phi is
evaluated in integer fixed point with a proven error bound.  Newton steps on
the grid from the float standard quantile, each one evaluation at about
twice the bits its point is good to, bring the search within an ulp, and the
last evaluation pins its landing point through a Taylor bound on Phi there:
one evaluation per draw at 64 bits, two or three at 254.  Only a point it
cannot pin is pinned by comparisons, each redone at higher precision while
the bound cannot decide it.  So the draw needs only the standard library and does not
depend on how its search was seeded.  The Beta(x, x+1) distributions met in
the bisection recursion concentrate as 1/sqrt(x), so the substitution error
vanishes precisely where it is used.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, erfc, exp, isqrt, ldexp, log, log1p, pi, sqrt

EXACT_DEGREE_LIMIT = 128

# Iteration cap of the float Newton, which climbs monotonically and
# converges in a handful of steps.  The grid Newtons of both paths stop at
# 2 + prec.bit_length() steps, which follows the precision: each step about
# doubles the bits the point is good to, from the ~50 of the float guess.
_GUESS_MAX_STEPS = 64
# Above this many bits, 2^-prec and 2^prec leave the range of a double, and
# the search falls back to bisection over the grid.
_FLOAT_PREC_LIMIT = 1000
# Below this width prec*d of the exact CDF numerator, it costs no more than
# the fixed-point pass.  The two break even near d = 30 at 64 bits, d = 18 at
# 126 and d = 10 at 254; at 64 bits and d = 128 the numerator costs 70 us
# against 15.
_FIXED_MIN_BITS = 2048
# Fractional bits of the fixed-point pass beyond prec.  At d <= 128 its error
# stays below 2^(10-_GUARD_BITS) of the CDF's rise over one grid step, so
# about one comparison in 2^22 next to a pinned point falls back to exact.
_GUARD_BITS = 32
_LN2 = log(2)
_SQRT2 = sqrt(2)
_LN_SQRT_2PI = 0.5 * log(2 * pi)


@lru_cache(maxsize=EXACT_DEGREE_LIMIT)
def _binomial_row(d: int) -> tuple:
    """C(d, 0), ..., C(d, d): the coefficients of every CDF of degree d."""
    return tuple(comb(d, j) for j in range(d + 1))


@lru_cache(maxsize=EXACT_DEGREE_LIMIT)
def _shifted_row(d: int, Q: int) -> tuple:
    """The binomial row shifted to Q fractional bits, for _tail_fixed."""
    return tuple(c << Q for c in _binomial_row(d))


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
    """I_{wn/2^prec}(x, b) <= un/2^prec, decided on the exact numerator: the
    reference for every comparison, and the fallback of the fixed-point one."""
    if wn <= 0:
        return un >= 0
    D = 1 << prec
    if wn >= D:
        return un >= D
    # total / D^d <= un / D  <=>  total <= un * D^(d-1)
    return _cdf_num(x, b, wn, prec) <= un << (prec * (x + b - 2))


def _pow_fixed(a: int, n: int, Q: int) -> tuple:
    """a^n, for 0 < a < 2^Q, as (m, e, k): m 2^e <= a^n < m 2^e / (1 - k 2^(1-Q)).

    Binary powering that truncates to Q bits after each square (and multiply
    by the exact a).  A truncated m has Q bits, so it loses less than
    2^(1-Q) of itself, and a square doubles the relative loss so far: k
    follows both, k -> 2k + 1 on a truncating step and k -> 2k on another."""
    if not n:
        return 1, 0, 0
    m = a
    e = k = 0
    for bit in bin(n)[3:]:
        m *= m
        e += e
        k += k
        if bit == "1":
            m *= a
        s = m.bit_length() - Q
        if s > 0:
            m >>= s
            e += s
            k += 1
    return m, e, k


def _tail_fixed(x: int, d: int, wn: int, wc: int, prec: int) -> tuple:
    """T = sum_{j=x}^{d} C(d, j) w^j (1-w)^(d-j) for w = wn/2^prec, with
    wc = 2^prec - wn and 0 < x <= d, 0 < wn < 2^prec, in truncated fixed point
    at Q = prec + _GUARD_BITS bits: (a, err, F, dens) with

        a / 2^F  <=  T  <=  (a + err) / 2^F,   dens <= g(w) 2^F < (dens + 1)(1 + d 2^(2-Q)),

    where g = x C(d, x) w^(x-1) (1-w)^(d-x) is the density at w of the
    Beta(x, d-x+1) law, whose CDF T is; dens comes from the same truncated
    powers, each low.

    T = w^x (1-w)^(d-x) S(t) with S(t) = sum_i C(d, x+i) t^i and t = w/(1-w).
    Every step truncates, so each quantity is low by a relative amount, and
    as every term is positive those amounts add up, in units of 2^-Q:
      - Horner for S: t, truncated to a Q-bit mantissa, is low by less than
        2, which each of the d - x steps carries on to S; each step also
        truncates at Q fractional bits a sum of at least C(d, j), and these
        floors total less than sum_j 1/C(d, j) <= 1;
      - the two powers: 2k each, with k from _pow_fixed.
    Their product a is exact, so T's relative shortfall delta is below
    K 2^-Q, K = 2(d-x+k1+k2) + 1, and T <= (a/2^F)/(1 - delta), where
    1/(1 - delta) - 1 <= delta + 2 delta^2 < (K + 1) 2^-Q while 2K^2 < 2^Q
    (k <= n - 1 in _pow_fixed, so K < 4d).  dens floors the product of the
    powers alone, whose shortfall is below (k1 + k2) 2^(1-Q) <= d 2^(1-Q) <= 1/2,
    so g(w) 2^F < (dens + 1) / (1 - d 2^(1-Q)) <= (dens + 1)(1 + d 2^(2-Q))."""
    Q = prec + _GUARD_BITS
    sh = Q + prec - wn.bit_length()
    t = (wn << sh) // wc  # >= 2^(Q-1), since wc < 2^prec
    row = _shifted_row(d, Q)
    s = row[d]
    for c in row[d - 1 : x - 1 : -1]:
        s = (s * t >> sh) + c
    m1, e1, k1 = _pow_fixed(wn, x, Q)
    m2, e2, k2 = _pow_fixed(wc, d - x, Q)
    p = m1 * m2  # 2^(prec*d - e1 - e2) w^x (1-w)^(d-x), low
    a = p * s
    dens = (x * _binomial_row(d)[x] * p << (prec + Q)) // wn
    return a, (a * (2 * (d - x + k1 + k2) + 2) >> Q) + 1, prec * d + Q - e1 - e2, dens


def _cdf_gap(x: int, b: int, wn: int, prec: int, un: int) -> tuple:
    """(u - I_w(x, b)) 2^(prec + F) for w = wn/2^prec, u = un/2^prec and
    0 < wn < 2^prec, as (gap, width, F, rise): the value lies in
    [gap, gap + width], and rise is at most the rise of I from w to the next
    grid point, in the same units.

    Below _FIXED_MIN_BITS it is exact (width 0).  From there it comes from
    _tail_fixed on the tail that holds less than the density allows for: the
    lower one up to the mode (x-1)/(d-1) and the upper one, through
    I_w(x, b) = 1 - I_{1-w}(b, x), beyond it.  The density is monotone on
    either side of the mode, so that tail is at most f(w) times the distance
    to its end, and the error of its sum stays below about 2^(10-_GUARD_BITS)
    of f(w)/2^prec, the rise of the CDF over one grid step, however small
    the density gets.

    The density f is unimodal, so over [w, w + 2^-prec] it stays above the
    smaller of its values at the two ends, and f(w + 2^-prec) / f(w) is at
    least (1 - 1/wc)^(b-1) >= 1 - (b-1)/wc, with wc = 2^prec - wn.  rise is
    f(w) 2^F times that factor, from below: it is the density's floor dens
    (exact below _FIXED_MIN_BITS, from _tail_fixed above) less
    floor(dens (b-1)/wc) + 1.  So rise <= f(w) 2^F.  Where wc >= 2b, let
    m = wc.bit_length(); then a = (b-1)/(wc-b+1) < (b-1) 2^(2-m) and a <= 1,
    and dens <= (rise + 1)(1 + a) and _tail_fixed's bound give, at
    Q = prec + _GUARD_BITS > m + 1,

        f(w) 2^F  <  (rise + 2)(1 + a)(1 + d 2^(2-Q))
                  <=  rise + 2 + (rise + 2)(a + d 2^(3-Q))
                  <   rise + 3 + floor((rise + 2)(b - 1 + d) 2^(2-m))."""
    d = x + b - 1
    D = 1 << prec
    wc = D - wn
    if prec * d < _FIXED_MIN_BITS:
        F = prec * (d - 1)
        gap, width = (un << F) - _cdf_num(x, b, wn, prec), 0
        dens = x * _binomial_row(d)[x] * wn ** (x - 1) * wc ** (b - 1)  # f(w) 2^F
    elif wn * (d - 1) <= (x - 1) * D:
        a, width, F, dens = _tail_fixed(x, d, wn, wc, prec)
        gap = (un << F) - ((a + width) << prec)
    else:
        a, width, F, dens = _tail_fixed(b, d, wc, wn, prec)
        gap = (a << prec) - ((D - un) << F)
    return gap, width << prec, F, dens - dens * (b - 1) // wc - 1


def _cdf_leq_fast(x: int, b: int, wn: int, prec: int, un: int) -> bool:
    """_cdf_leq's answer, from a _cdf_gap pass when its interval excludes 0
    and from _cdf_leq itself otherwise (Ziv's scheme), for wn < 2^prec."""
    if wn <= 0:
        return True
    gap, width, _, _ = _cdf_gap(x, b, wn, prec, un)
    if gap >= 0 or gap + width < 0:
        return gap >= 0
    return _cdf_leq(x, b, wn, prec, un)


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
    terms on both sides.  Each _cdf_gap pass on the grid first tries to pin
    its point: it is the draw when u - I lies between 0 and the pass's lower
    bound on the rise of I to the next grid point.  Otherwise the pass's u - I
    over that rise, which is the density f to within about (b-1)/2^prec of
    itself, gives a Newton step in whole ulps; the predicted error after a
    step of s ulps is |f'/f| s^2 / (2 * 2^prec).  The same pass then tries to
    pin the point the step lands on, as below, and while the predicted error
    exceeds half an ulp the search steps on.  A point no pass pinned is
    pinned by comparisons, each decided by a _cdf_gap pass whose interval
    excludes 0 and otherwise by the exact _cdf_leq, so the draw is what exact
    arithmetic makes it.

    The pin.  All values are in the pass's units 2^-(prec+F), and grid
    points are counted in ulps.  The pass at w gives A = u - I(w) in
    [gap, gap + width], and with f^ = f(w) 2^F, rise <= f^ < top
    (_cdf_gap's bounds, which need wc >= 2b).  The step is
    s = floor(gap / rise), so frac = gap - s rise lies in [0, rise), and it
    lands on c = w + s.  On [lo, hi] = [min(w, c), max(w, c) + 1],
    f'/f = (x-1)/t - (b-1)/(1-t) falls with t, so per ulp
    |f'/f| <= L = (x-1)/lo + (b-1)/(2^prec - hi), and f stays within
    e^(+-L |t - w|) of f^.  While L (n + 1) <= 1/2, n = |s|:
      - the rise of I over the step, I(c) - I(w), is f^ s + R with
        |R| <= f^ L n^2 e^(L n) / 2 <= f^ L n^2;
      - the rise from c to c + 1 is at least f^ e^(-L (n+1)) >= f^ (1 - L (n+1)).
    So u - I(c) = A - f^ s - R, where gap - f^ s = frac - (f^ - rise) s, and
    with E = (top - rise) n + top L (n^2 + n + 1), c is the draw,
    0 <= u - I(c) < I(c + 1) - I(c), when E <= frac and frac + width + E < rise
    (rise <= f^ on the right); the code multiplies both by L's denominator,
    so they are decided exactly.  Those two need E < rise / 2, and as
    E >= rise L (n^2 + n + 1), they give L (n + 1) < 1/2 themselves.
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
    err = int(ldexp(q, prec - 41))  # in half ulps: the guess is good to ~2^-50
    for _ in range(2 + prec.bit_length()):
        if not 0 < wn < D:
            break
        gap, width, _, rise = _cdf_gap(x, b, wn, prec, un)
        if 0 <= gap and gap + width < rise:
            return wn  # I_w <= u < I_{w + 2^-prec}
        if not err or rise <= 0:
            break
        step = gap // rise
        c = wn + step
        wc = D - wn
        if 0 < c < D - 1 and 2 * b <= wc:
            # the pin of the docstring, both sides times ld, L's denominator:
            # t = top L (n^2 + n + 1) ld and low = (frac - (top - rise) n) ld
            n = abs(step)
            lo, hi = (wn, c + 1) if step >= 0 else (c, wn + 1)
            ld = lo * (D - hi)
            slack = 3 + ((rise + 2) * (b - 1 + d) >> (wc.bit_length() - 2))  # top - rise
            t = (rise + slack) * (n * n + n + 1) * ((x - 1) * (D - hi) + (b - 1) * lo)
            low = (gap - step * rise - slack * n) * ld
            if t <= low and t < (rise - width - 2 * slack * n) * ld - low:
                return c
        # 4 |f'/f| step^2 / (2 D) ulps with f'/f = (x-1)/w - (b-1)/(1-w), in half ulps
        err = 4 * abs((x - 1) * wc - (b - 1) * wn) * step * step // (wn * wc)
        wn = c
    return _pin(lambda w: _cdf_leq_fast(x, b, w, prec, un), wn, D)


def _pin(leq, wn: int, D: int) -> int:
    """Largest w in [0, D-1] with leq(w), or 0 when there is none, for a
    predicate that holds up to some point and fails after it.

    Walks from wn, which the search should have left within a grid point or
    two, and falls back to bisection if the walk runs long."""
    wn = min(max(wn, 0), D - 1)
    if leq(wn):
        for _ in range(8):
            if wn == D - 1 or not leq(wn + 1):
                return wn
            wn += 1
    else:
        for _ in range(8):
            if wn == 0:
                return 0
            wn -= 1
            if leq(wn):
                return wn
    lo, hi = 0, D  # invariant: leq(lo) or lo = 0, not leq(hi) (hi=D sentinel)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if leq(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _arctan_inv(k: int, bits: int) -> int:
    """arctan(1/k) * 2^bits, within 2 ulps per series term."""
    power = (1 << bits) // k
    total, n = power, 0
    while power:
        n += 1
        power //= k * k
        total += -(power // (2 * n + 1)) if n & 1 else power // (2 * n + 1)
    return total


@lru_cache(maxsize=64)
def _constants(P: int) -> tuple:
    """(2/sqrt(pi), sqrt(2 pi)) at P fractional bits, each within 2 ulps.

    pi comes from Machin's formula 16 arctan(1/5) - 4 arctan(1/239) at P + 32
    bits, whose error of a few ulps per term is far below an ulp at P bits."""
    Q = P + 32
    pi_q = 16 * _arctan_inv(5, Q) - 4 * _arctan_inv(239, Q)
    return isqrt((4 << (2 * P + Q)) // pi_q), isqrt((pi_q << (2 * P + 1)) >> Q)


def _erf_fixed(rn: int, rd: int, P: int) -> tuple:
    """erf(y) for y = sqrt(rn/rd) at P fractional bits: the value, a bound err
    on its error in ulps, and e^(y^2) at P fractional bits, which is low by
    less than (n + 4) e^(y^2) ulps, and so by less than err e^(y^2).

    erf(y) = (2/sqrt(pi)) y h(y^2) with h(r) = S(r)/e^r and
    S(r) = sum_n (2r)^n / (1*3*...*(2n+1)).  S and e^r = sum_n r^n/n! are
    summed together from r truncated to P bits; each has positive terms,
    which the truncating steps leave low by at most (n+2)^2 ulps relative to
    the sum over n terms, the tail left once a term is 0 past n = 2r included.
    So h <= 1 is within 2(n+3)^2 ulps (|h'| <= 1/3 covers the truncated r),
    and erf within (floor(y) + 2)(3(n+3)^2 + 8) ulps, however large y is.

    For e^r alone: the k-th term is floored once from the one before (two
    floors of a quotient by an integer make one), so its shortfall is at most
    r/k times the last one's plus an ulp, which sums to at most
    sum_{j<k} r^j/j! < e^r ulps; the n shortfalls total less than n e^r.  The
    tail after the zero n-th term, n >= 2r, is below the true n-th term,
    which is its shortfall, so below e^r; and e^(y^2) < e^r (1 + 2^(1-P))
    covers the truncated r.
    """
    one = 1 << P
    y = isqrt((rn << (2 * P)) // rd)  # sqrt(rn/rd) 2^P, less than 2 low
    r = (rn << P) // rd
    r2 = 2 * r
    e_term = s_term = e_sum = s_sum = one
    n = 0
    while e_term or n * one < r2:  # the S terms stay below the e^r terms
        n += 1
        e_term = (e_term * r >> P) // n
        s_term = (s_term * r2 >> P) // (2 * n + 1)
        e_sum += e_term
        s_sum += s_term
    k_erf, _ = _constants(P)
    value = k_erf * y * ((s_sum << P) // e_sum) >> (2 * P)
    return value, ((y >> P) + 2) * (3 * (n + 3) ** 2 + 8), e_sum


def _normal_quantile_guess(log_v: float) -> float:
    """Float z <= 0 with log Phi(z) = log_v, for log_v <= log(1/2).

    Newton's method on log Phi, which is concave, from z = -sqrt(-2 log 2v):
    Phi(z) <= e^(-z^2/2)/2 = v there, so the start lies left of the root and
    the iterates climb to it without overshooting.  Below z = -37, where
    erfc leaves double range, log Phi comes from its asymptotic series."""
    z = -sqrt(max(-2 * (log_v + _LN2), 0.0))
    for _ in range(_GUESS_MAX_STEPS):
        if z > -37:
            cdf = 0.5 * erfc(-z / _SQRT2)
            g = log(cdf) - log_v
            slope = exp(-0.5 * z * z - _LN_SQRT_2PI) / cdf
        else:
            w = 1 / (z * z)
            tail = log1p(w * (-1 + w * (3 + w * (-15 + 105 * w))))
            g = -0.5 * z * z - log(-z) - _LN_SQRT_2PI + tail - log_v
            slope = -z - 1 / z
        step = g / slope
        z -= step
        if abs(step) < 1e-10:
            break
    return z


def _icdf_normal(x: int, b: int, un: int, prec: int) -> int:
    """Largest wn with Phi((wn/2^prec - mu)/sigma) <= un/2^prec, for huge shapes.

    With s = x + b and dev = wn s - x 2^prec, the standardised point t has
    t^2/2 = dev^2 (s+1) / (2 x b 4^prec) exactly, so every evaluation starts
    from integers.  The float standard quantile z0 of the target gives the
    first grid point floor(2^prec (mu + sigma z0)), with an error near 2^-50
    in z.  Each Newton step on the grid evaluates Phi once and squares the
    error in z, so a step from a point good to B bits of z runs at about
    2B + 40 bits, and only the step predicted to land within an ulp runs at
    the full precision, whose error is 2^-40 of the CDF's rise over a grid
    step.  That evaluation pins its landing point by itself, as below.  A
    point it does not pin (the bound cannot separate, or the walk leaves the
    grid or passes the cutoff where Phi or 1 - Phi is below 2^-prec) is
    pinned by comparisons, each redone wider while its bound cannot decide.

    The pin.  The evaluation at t gives Phi(t) within err/2 ulps at P
    fractional bits and E with e^(t^2/2) (2^P - err) <= E <= e^(t^2/2) 2^P
    (_erf_fixed); K = sqrt(2 pi) 2^P is within 2 ulps (_constants), and
    phi(t) = e^(-t^2/2) / sqrt(2 pi).  A grid step is g = 2^64/dsig' in units
    of sigma, with the exact dsig' in [dsig, dsig + 1).  The Newton step is
    step = floor(y), for y the value of

        Y = (u - Phi(t)) / (phi(t) g) = (u - Phi(t)) sqrt(2 pi) e^(t^2/2) dsig'/2^64

    that the evaluation, K, E and dsig give, and it lands on c = wn + step,
    at t + h with h = step g.  By Taylor,
    Phi(t + h) = Phi(t) + phi(t) h + R with R = -xi phi(xi) h^2/2 for some xi
    between t and t + h, where phi(xi) <= phi(t) e^(|t h|), so

        |R| / (phi(t) g) <= step^2 g (|t| + |h|) e^(|t h|) / 2.

    Within H = (|step| + 1) g of t, phi stays above phi(t) e^(-|t| H - H^2/2),
    so the rise of Phi from c to c + 1, over phi(t) g, is at least
    1 - |t| H - H^2/2.  Hence c is the draw, Phi(t + h) <= u < Phi(t + h + g),
    when X = (u - Phi(t + h)) / (phi(t) g) = Y - step - R / (phi(t) g) lies in
    [0, 1 - |t| H - H^2/2).  The code decides that at S fractional bits, with
    every piece rounded the safe way, for a landing point predicted exact,
    with 0 <= c < D - 1 (so c + 1 is on the grid) and 2 err < 2^P:
      - Y lies within spread of y, from Phi's err, K +- 2, E's bound and
        dsig';
      - |t| <= T = isqrt(2 (floor(t^2/2) + 1)) + 1, and g <= G 2^-Q for G
        rounded up at Q = zbits + 64 bits (g is about 2^-zbits), so h, exact
        as step g, is bounded through G alone;
      - it asks |t| H + H^2 < 1/4, which gives e^(|t h|) < 2 in the R bound.
    At dev = 0 the evaluation gives Phi(0) = 1/2 within err and E = 2^P, and
    nothing else changes.  Past the cutoff the walk stops before evaluating,
    and leq decides those points exactly without an evaluation.
    """
    D = 1 << prec
    if un <= 0:
        return 0
    s = x + b
    rd = 2 * x * b << (2 * prec)  # t^2/2 = dev^2 (s+1) / rd
    # 2^prec sigma at 64 fractional bits; zbits grid bits span one sigma
    dsig = isqrt((x * b << (2 * prec + 128)) // (s * s * (s + 1)))
    zunit = max(dsig >> 64, 1)
    zbits = (dsig >> 64).bit_length()
    Q = zbits + 64
    G = -((-1 << (Q + 64)) // dsig)  # g 2^Q, rounded up

    def precision(rn: int, slack: int = 0) -> int:
        # the CDF gap between neighbouring grid points is about
        # 2^-zbits e^(-t^2/2); 40 guard bits leave ~20 past the error bound.
        # A step predicted to land slack bits of ulps off needs slack fewer
        bits = max(zbits + 3 * (rn // rd) // 2 + 40 - slack, 64)
        return -(-bits // 32) * 32

    def leq(wn: int) -> bool:
        dev = wn * s - x * D
        if not dev:
            return 2 * un >= D  # Phi(0) = 1/2 exactly
        rn = dev * dev * (s + 1)
        if 10000 * rn >= 6932 * prec * rd:
            # t^2/2 >= prec ln 2: Phi(t) or 1 - Phi(t) is at most
            # e^(-t^2/2)/2 < 2^-prec, beyond every target
            return dev < 0
        P = precision(rn)
        while P <= 64 * prec + 4096:
            value, err, _ = _erf_fixed(rn, rd, P)
            phi = ((1 << P) + value if dev > 0 else (1 << P) - value) >> 1
            if (phi + err) << prec <= un << P:
                return True
            if (phi - err) << prec >= un << P:
                return False
            P = -(-(P + P // 2) // 32) * 32  # undecided: retry wider (Ziv)
        return True  # equal to within 2^-P: a tie counts as Phi <= u

    vn = min(un, D - un)
    v = vn / D  # correctly rounded; log(vn) - prec ln 2 would cancel
    z = _normal_quantile_guess(log(v) if v > 1e-300 else log(vn) - prec * _LN2)
    if vn != un:
        z = -z
    zn, zd = z.as_integer_ratio()
    wn = ((x * zd << (prec + 64)) + s * dsig * zn) // (s * zd << 64)
    err = (dsig >> 64) * (int(abs(z)) + 2) >> 48  # predicted, in ulps
    for _ in range(2 + prec.bit_length()):
        dev = wn * s - x * D
        rn = dev * dev * (s + 1)
        if not 0 <= wn < D or 10000 * rn >= 6932 * prec * rd:
            break
        curv = rn // rd + 1  # Phi^-1 has curvature |t| <= t^2/2 + 1 in units of sigma
        slack = (curv * err * err // zunit).bit_length()  # of the point this step lands on
        P = precision(rn, slack)
        value, verr, e_sq = _erf_fixed(rn, rd, P)
        k = _constants(P)[1]
        S = 3 * P + 65 + prec
        gap = (un << (P + 1)) - (((1 << P) + (value if dev > 0 else -value)) << prec)
        y = gap * k * e_sq * dsig  # y 2^S
        step = y >> S
        if not slack and 0 <= wn + step < D - 1 and 2 * verr < 1 << P:
            # the pin of the docstring, in units of 2^-S
            c_hi = (k + 2) * ((e_sq << P) // ((1 << P) - verr) + 1) * (dsig + 1)
            spread = (verr << prec) * c_hi + abs(gap) * (c_hi - (k - 2) * e_sq * dsig)
            H = (abs(step) + 1) * G
            T = isqrt(2 * curv) + 1
            W = T * H + (H * H >> Q) + 1  # (|t| H + H^2) 2^Q, rounded up
            margin = spread + (((step * step * G * ((T << Q) + H) >> Q) + 1) << (S - Q))
            frac = y - (step << S)
            if 4 * W < 1 << Q and margin <= frac and frac + margin < ((1 << Q) - W) << (S - Q):
                return wn + step
        if not err:
            break
        err = curv * step * step // zunit
        wn += step
    return _pin(leq, wn, D)


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

