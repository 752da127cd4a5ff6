"""Security estimators and desk-scale attack oracles.

Implements the adversary's side of the window one-wayness game (estimate the
secret multiplier from the sample maximum, then localise a challenge),
leakage accounting, and a brute-force approximate-common-divisor search used
as a test oracle against deliberately weakened keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import gacd
from .errors import ParameterError
from .prng import DeterministicGenerator, Seed, derive_seed


class EmptyInputError(ValueError):
    pass


class BudgetExceededError(ParameterError):
    pass


@dataclass(frozen=True)
class SortedSample:
    ciphertexts: tuple
    M: int

    def __post_init__(self):
        if not self.ciphertexts:
            raise EmptyInputError("sample must be nonempty")
        if any(b < a for a, b in zip(self.ciphertexts, self.ciphertexts[1:])):
            raise ValueError("ciphertexts must be nondecreasing")

    @property
    def n(self) -> int:
        return len(self.ciphertexts)


@dataclass(frozen=True)
class WindowEstimate:
    m_hat: Fraction
    k_hat: Fraction


def estimate_k(sample: SortedSample) -> Fraction:
    """Maximum-likelihood estimate c_n / M of the secret multiplier; the
    sample maximum is a sufficient statistic for the range."""
    return Fraction(sample.ciphertexts[-1], sample.M)


def window_attack(c: int, sample: SortedSample) -> WindowEstimate:
    k_hat = estimate_k(sample)
    return WindowEstimate(m_hat=c / k_hat, k_hat=k_hat)


def report_value(value: Fraction):
    """value as a float, or as a Decimal of 28 significant digits where the
    float would overflow or underflow to 0, so a report has no range limit."""
    try:
        f = float(value)
        if f or not value:
            return f
    except OverflowError:
        pass
    return Decimal(value.numerator) / value.denominator


def report_text(value) -> str:
    """A report value in '.6g'; a Decimal drops trailing zeros as a float does."""
    text = f"{value:.6g}"
    return f"{Decimal(text).normalize():.6g}" if isinstance(value, Decimal) else text


def leakage_bits(n: int) -> float:
    """Bits of a plaintext leaked by its rank among n sorted ciphertexts:
    lg n, up to an O(1) term reported as a band by callers, never asserted."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return math.log2(n)


LEAKAGE_BAND_BITS = 2.0  # reporting band for the O(1) term


BRUTEFORCE_BUDGET = 1 << 24


def noise_band_consistent(c: int, k: int) -> bool:
    """Residue of c mod k strictly inside the scheme's noise band."""
    f4 = gacd.floor_pow34(k)
    r = c % k
    return f4 < r < k - f4


def bruteforce_gacd(ciphertexts: Sequence[int], k_min: int, k_max: int) -> list:
    """Every k' in [k_min, k_max] whose residues all sit strictly inside its
    noise band (k'^(3/4), k' - k'^(3/4)); exactly what an adversary against
    this scheme can verify."""
    if not ciphertexts:
        raise EmptyInputError("need at least one ciphertext")
    if k_max - k_min > BRUTEFORCE_BUDGET:
        raise BudgetExceededError(
            f"candidate range {k_max - k_min} exceeds desk-scale budget {BRUTEFORCE_BUDGET}"
        )
    cts = list(ciphertexts)
    out = []
    for k in range(max(k_min, 2), k_max + 1):
        f4 = gacd.floor_pow34(k)
        hi = k - f4
        ok = True
        for c in cts:
            r = c % k
            if not f4 < r < hi:
                ok = False
                break
        if ok:
            out.append(k)
    return out


@dataclass(frozen=True)
class LeakageReport:
    """Per-plaintext leakage increment lg(m * p_m / F(m)) from flattening."""

    entries: tuple  # (m, bits) for m = 1 .. M-1
    max_bits: float


def flatten_leakage_report(model) -> LeakageReport:
    A = model.A
    entries = []
    worst = 0.0
    for m in range(1, model.M):
        # m * p_m / F(m) over the model's integer numerators; int true
        # division is correctly rounded, as float() of the Fraction is
        bits = math.log2(m * (A[m + 1] - A[m]) / A[m])
        entries.append((m, bits))
        worst = max(worst, bits)
    return LeakageReport(entries=tuple(entries), max_bits=worst)


def window_success_rate(
    *,
    n: int,
    M: int,
    lam: Optional[int],
    trials: int,
    radius: Callable[[int], Fraction],
    seed: Seed,
) -> float:
    """Monte-Carlo estimate of the window adversary's success rate.

    Each trial keys a fresh scheme, encrypts n uniform plaintexts plus a
    uniform challenge, runs window_attack and scores a hit when the true
    plaintext lies within radius(m) of the estimate.  Trials use derived
    seeds, so batches are reproducible and embarrassingly parallel; within a
    trial the key, the plaintexts and the noise each come from their own
    child of the trial's seed, as in the CLI.
    """
    if lam is None:
        lam = gacd.min_lambda(M)
    params = gacd.SchemeParams(M=M, lam=lam)
    hits = 0
    for t in range(trials):
        trial = derive_seed(seed, b"window-trial-%d" % t)
        key = gacd.keygen(params, DeterministicGenerator(derive_seed(trial, b"key")))
        ms = DeterministicGenerator(derive_seed(trial, b"plain")).uniform_ints(0, M - 1, n + 1)
        cts = gacd.encrypt_many(ms, key, DeterministicGenerator(derive_seed(trial, b"gacd/noise")))
        m, c = ms.pop(), cts.pop()  # the challenge
        est = window_attack(c, SortedSample(tuple(sorted(cts)), M))
        if abs(m - est.m_hat) < radius(m):
            hits += 1
    return hits / trials
