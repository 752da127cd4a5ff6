"""Randomised order-preserving encryption from approximate common divisors.

Encryption is c = m*k + r with a secret (lambda+1)-bit k and fresh noise r
drawn uniformly from the open band (k^(3/4), k - k^(3/4)); decryption is
floor(c / k).  Order is preserved because k*(m - m') >= k always beats the
noise difference, while equal plaintexts encrypt to randomly ordered
ciphertexts.  Parameter validation enforces lambda > (8/3)*lg M, which keeps
the lattice-based approximate-common-divisor attacks outside their working
range, and the noise band keeps offsets above the attack threshold k^(3/4).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import keyfile
from .errors import DomainError, ParameterError
from .prng import DeterministicGenerator
from .record import Record

KEY_FILE_SCHEME = keyfile.GACD_SCHEME

#: Ciphertexts are opaque arbitrary-precision integers.
Ciphertext = int


class ForeignCiphertextError(DomainError):
    """Ciphertext decrypts outside the plaintext domain for this key."""


def floor_root4(n: int) -> int:
    """Exact floor(n^(1/4)) for nonnegative integers."""
    return math.isqrt(math.isqrt(n))


def floor_pow34(k: int) -> int:
    """Exact floor(k^(3/4)), computed without floating point."""
    return floor_root4(k**3)


def min_lambda(M: int) -> int:
    """Smallest integer lambda with lambda > (8/3)*lg M, exactly.

    lambda > (8/3)*lg M  <=>  2^(3*lambda) > M^8, which is an exact integer
    comparison for every M (power of two or not).
    """
    if M < 2:
        raise DomainError("plaintext bound M must be >= 2")
    e = (M**8).bit_length() - 1  # floor(lg M^8)
    # smallest lambda with 3*lambda >= e + 1
    return (e + 3) // 3


def beta0_bound(alpha0: Fraction) -> Fraction:
    """Offset-exponent threshold 1 - a/2 - sqrt(1 - a - a^2/2) of the
    lattice attack, exact when the radicand is a rational square, otherwise
    correct to at least 64 fractional bits."""
    alpha0 = Fraction(alpha0)
    if not 0 <= alpha0 <= 1:
        raise DomainError("alpha0 must lie in (0, 1]")
    radicand = 1 - alpha0 - alpha0 * alpha0 / 2
    if radicand < 0:
        raise DomainError("radicand negative: alpha0 out of the attack's domain")
    p, q = radicand.numerator, radicand.denominator
    sp, sq = math.isqrt(p), math.isqrt(q)
    if sp * sp == p and sq * sq == q:
        root = Fraction(sp, sq)
    else:
        # sqrt(p/q) = sqrt(p*q)/q, truncated at 96 fractional bits
        scale = 1 << 96
        root = Fraction(math.isqrt(p * q * scale * scale), q * scale)
    return 1 - alpha0 / 2 - root


class SchemeParams(Record):
    __slots__ = ("M", "lam", "n_hint")

    def __init__(self, M: int, lam: int, n_hint: Optional[int] = None):
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "n_hint", n_hint)


class ValidationReport(Record):
    __slots__ = ("ok", "reasons", "warnings", "ciphertext_bits", "expansion_ratio")

    def __init__(self, ok: bool, reasons: tuple = (), warnings: tuple = (),
                 ciphertext_bits: int = 0, expansion_ratio: Optional[float] = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reasons", reasons)
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "ciphertext_bits", ciphertext_bits)
        object.__setattr__(self, "expansion_ratio", expansion_ratio)


def validate_params(params: SchemeParams) -> ValidationReport:
    """Structured pass/fail check of SchemeParams; never raises."""
    reasons = []
    warnings = []
    if params.M < 2:
        reasons.append(f"M={params.M} below minimum 2")
        return ValidationReport(False, tuple(reasons))
    lam_min = min_lambda(params.M)
    if params.lam < lam_min:
        reasons.append(
            f"lambda={params.lam} below bound: need lambda > (8/3)*lg M, "
            f"i.e. lambda >= {lam_min}"
        )
    elif params.lam > keyfile.MAX_KEY_BITS:  # before 2^lambda is built
        reasons.append(
            f"lambda={params.lam} exceeds the {keyfile.MAX_KEY_BITS}-bit key size limit"
        )
    else:
        lo, hi = _noise_band(1 << params.lam)  # the narrowest band a key can get
        if lo > hi:
            reasons.append(
                f"lambda={params.lam} leaves the noise band (k^(3/4), k - k^(3/4)) empty"
            )
    if params.n_hint is not None:
        if params.n_hint > params.M // 10:
            reasons.append(
                f"n_hint={params.n_hint} too large versus M={params.M} "
                f"(sorting-attack risk; need n << M)"
            )
        elif params.n_hint > params.M // 100:
            warnings.append(
                f"n_hint={params.n_hint} above M/100; sorting-attack margin is thin"
            )
    rho = max(params.M.bit_length() - 1, 1)  # ceil(lg M) for power-of-two M
    if params.M & (params.M - 1):
        rho = params.M.bit_length()
    bits = rho + params.lam + 1
    ratio = bits / rho if params.lam == lam_min else None
    return ValidationReport(not reasons, tuple(reasons), tuple(warnings), bits, ratio)


class SecretKey(Record):
    __slots__ = ("k", "noise_lo", "noise_hi", "params")

    def __init__(self, k: int, noise_lo: int, noise_hi: int, params: SchemeParams):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "noise_lo", noise_lo)
        object.__setattr__(self, "noise_hi", noise_hi)
        object.__setattr__(self, "params", params)

    def __repr__(self):  # params left out
        return f"SecretKey(k={self.k!r}, noise_lo={self.noise_lo!r}, noise_hi={self.noise_hi!r})"

    @property
    def M(self) -> int:
        return self.params.M


def _noise_band(k: int) -> tuple[int, int]:
    # open interval (k^(3/4), k - k^(3/4)) tightened to integers in the
    # strict direction
    f4 = floor_pow34(k)
    return f4 + 1, k - f4 - 1


def keygen(params: SchemeParams, gen: DeterministicGenerator,
           report: Optional[ValidationReport] = None) -> SecretKey:
    """A key for params, with k drawn from gen; params that validate_params
    fails raise ParameterError.  A caller that has already validated params
    (for its warnings) passes that report, so they are checked once."""
    if report is None:
        report = validate_params(params)
    if not report.ok:
        raise ParameterError("; ".join(report.reasons))
    k = gen.uniform_int(1 << params.lam, (1 << (params.lam + 1)) - 1)
    lo, hi = _noise_band(k)
    return SecretKey(k=k, noise_lo=lo, noise_hi=hi, params=params)


def encrypt(m: int, key: SecretKey, gen: DeterministicGenerator) -> Ciphertext:
    if not 0 <= m <= key.params.M:
        raise DomainError(f"plaintext {m} outside [0, {key.params.M}]")
    r = gen.uniform_int(key.noise_lo, key.noise_hi)
    return m * key.k + r


def decrypt(c: Ciphertext, key: SecretKey) -> int:
    m = c // key.k
    if not 0 <= m <= key.params.M:
        raise ForeignCiphertextError(
            f"quotient {m} outside [0, {key.params.M}]: not a ciphertext for this key"
        )
    return m


def _first_outside(values: list, M: int) -> Optional[int]:
    """Position of the first value outside [0, M], or None.  min and max
    scan the list at C speed; it is walked only when one of them fails."""
    if not values or (0 <= min(values) and max(values) <= M):
        return None
    return next(i for i, v in enumerate(values) if not 0 <= v <= M)


def encrypt_many(ms: list, key: SecretKey, gen: DeterministicGenerator) -> list:
    """[encrypt(m, key, gen) for m in ms], noise drawn in list order in one
    uniform_ints call.  A DomainError carries the position of the first
    failing plaintext as `index`; no noise is drawn then."""
    i = _first_outside(ms, key.params.M)
    if i is not None:
        try:
            encrypt(ms[i], key, gen)  # raises before it draws noise
        except DomainError as exc:
            exc.index = i
            raise
    k = key.k
    return [m * k + r for m, r in zip(ms, gen.uniform_ints(key.noise_lo, key.noise_hi, len(ms)))]


def decrypt_many(cs: list, key: SecretKey) -> list:
    """[decrypt(c, key) for c in cs].  A ForeignCiphertextError carries the
    position of the first failing ciphertext as `index`."""
    k = key.k
    ms = [c // k for c in cs]
    i = _first_outside(ms, key.params.M)
    if i is not None:
        try:
            decrypt(cs[i], key)
        except ForeignCiphertextError as exc:
            exc.index = i
            raise
    return ms


def save_key(key: SecretKey, path: str) -> None:
    keyfile.write(path, KEY_FILE_SCHEME,
                  {"lambda": key.params.lam, "M": key.params.M, "k": key.k})


def load_key(path: str) -> SecretKey:
    """Read a key file; a malformed file or a key that fails validate_params
    raises ParameterError."""
    return key_from_fields(keyfile.read_scheme(path, KEY_FILE_SCHEME), path)


def key_from_fields(fields: dict, path: str) -> SecretKey:
    """The key that a gacd key file's fields hold, checked as keygen checks
    a generated one; path names the file in errors."""
    try:
        params = SchemeParams(M=int(fields["M"]), lam=int(fields["lambda"]))
        k = int(fields["k"])
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed key file {path!r}: {exc!r}") from exc
    # first, so that lambda is bounded by the k the file holds
    if k < 1 or k.bit_length() != params.lam + 1:
        raise ParameterError("key k outside [2^lambda, 2^(lambda+1))")
    report = validate_params(params)
    if not report.ok:
        raise ParameterError("; ".join(report.reasons))
    lo, hi = _noise_band(k)
    return SecretKey(k=k, noise_lo=lo, noise_hi=hi, params=params)
