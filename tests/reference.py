"""Reference oracles that only the tests call: the exact Beta CDF, a Beta
draw through the package's dyadic inverse CDF, the per-frame seed of an OPF
key as the length-prefixed encoding defines it, the window attack's success
law 1 - (1-eps)^n, and the inversion estimate for a random increasing map
(the attack on Boldyreva-style deterministic OPFs)."""

import hashlib
import hmac
import math
from fractions import Fraction
from math import comb

from acdope import gacd
from acdope.betadist import beta_icdf_bits


def beta_cdf(x: int, b: int, z: Fraction) -> Fraction:
    """Exact regularised incomplete beta I_z(x, b) for integer shapes."""
    if x < 1 or b < 1:
        raise ValueError("shape parameters must be positive integers")
    z = Fraction(z)
    if z <= 0:
        return Fraction(0)
    if z >= 1:
        return Fraction(1)
    d = x + b - 1
    p, q = z.numerator, z.denominator
    pc = q - p  # numerator of 1 - z
    # running powers: p^j ascending, pc^(d-j) descending
    a_pow = p**x
    b_pow = pc ** (d - x)
    total = 0
    for j in range(x, d + 1):
        total += comb(d, j) * a_pow * b_pow
        if j < d:
            a_pow *= p
            b_pow //= pc
    return Fraction(total, q**d)


def draw(gen, x: int, b: int, prec: int) -> Fraction:
    """One Beta(x, b) variate at prec dyadic fractional bits."""
    un = gen.bits(prec)
    return Fraction(beta_icdf_bits(x, b, un, prec), 1 << prec)


def encode_int(v: int) -> bytes:
    """One frame value as the seed derivation encodes it: a 4-byte big-endian
    length, then the value's big-endian bytes (one byte for 0)."""
    raw = v.to_bytes(max((v.bit_length() + 7) // 8, 1), "big")
    return len(raw).to_bytes(4, "big") + raw


def frame_seed(master, a: int, b: int, fa: int, fb: int) -> bytes:
    """HMAC-SHA256 under the master seed of the frame (a, b, fa, fb)'s
    encoding: the bytes of an OPF key's seed for that frame."""
    msg = b"".join(encode_int(v) for v in (a, b, fa, fb))
    return hmac.new(master.data, msg, hashlib.sha256).digest()


def success_probability(epsilon: Fraction, n: int) -> Fraction:
    """Exact probability 1 - (1 - eps)^n that the sample maximum lands within
    relative eps of the top of the range."""
    epsilon = Fraction(epsilon)
    if not 0 <= epsilon <= 1:
        raise gacd.ParameterError("epsilon must lie in [0, 1]")
    if n < 1:
        raise gacd.ParameterError("n must be >= 1")
    return 1 - (1 - epsilon) ** n


def bclo_invert_estimate(c: int, M: int, N: int) -> tuple[Fraction, float]:
    """Inversion estimate for a uniformly random increasing map [0,M]->[1,N]:
    m_hat = M*c/N with standard deviation ~ sqrt(2*m_hat*(1 - m_hat/M))."""
    if not 0 <= c <= N:
        raise gacd.DomainError(f"ciphertext {c} outside [0, {N}]")
    m_hat = Fraction(M * c, N)
    sigma = math.sqrt(2 * float(m_hat) * (1 - float(m_hat) / M))
    return m_hat, sigma
