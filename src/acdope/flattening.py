"""Distribution flattening.

Flattening maps a plaintext m with known distribution function F to
mbar = floor(N * F(x)) where F is interpolated linearly between F(m) and
F(m+1) at a random offset u.  Because F is strictly increasing (each step is
at least 1/N), the transform is exactly invertible: unflatten finds the
unique m with F(m) <= mbar/N < F(m+1).  The output is near-uniform on [0, N),
which restores the uniformity assumption the window one-wayness analysis
needs.

A model stores its CDF as integer numerators A[0..M] over one common
denominator Q, F(m) = A[m]/Q in lowest terms, and u is dyadic, j/2^bits.
Flatten and unflatten are then integer floor divisions over Q*2^bits: the
same exact rationals, floored, so the inversion proof holds verbatim in code,
not just up to rounding.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .errors import DomainError
from .prng import DeterministicGenerator

#: Extra dyadic bits for u beyond lg N; truncation then moves the
#: interpolated value across an integer boundary with probability < 2^-16,
#: and such draws are rejected and redrawn.
_U_GUARD_BITS = 16


class ModelError(ValueError):
    """CDF table violates the strict-increase or boundary invariants."""


@dataclass(frozen=True, init=False)
class CdfModel:
    """CDF F(m) = A[m] / Q for m = 0..M, with each step F(m+1) - F(m) at
    least 1/N.  (A, Q) is in lowest terms, so equal CDFs compare equal."""

    M: int
    N: int
    A: tuple  # integer numerators of F(0..M)
    Q: int  # their common denominator

    def __init__(self, M: int, N: int, F: Sequence) -> None:
        """Model from the exact CDF values F(0..M) (Fractions or ints)."""
        Q = math.lcm(*(v.denominator for v in F))
        self._set(M, N, [v.numerator * (Q // v.denominator) for v in F], Q)

    @classmethod
    def from_numerators(cls, M: int, N: int, A: Sequence[int], Q: int) -> CdfModel:
        """Model with F(m) = A[m] / Q; (A, Q) need not be in lowest terms."""
        model = cls.__new__(cls)
        model._set(M, N, A, Q)
        return model

    def _set(self, M, N, A, Q):
        if len(A) != M + 1:
            raise ModelError(f"need {M + 1} CDF values, got {len(A)}")
        g = math.gcd(Q, *A)
        A, Q = tuple(a // g for a in A), Q // g
        if A[0] != 0 or A[-1] != Q:
            raise ModelError("CDF must have F(0)=0 and F(M)=1")
        for m in range(M):
            if (A[m + 1] - A[m]) * N < Q:
                raise ModelError(f"CDF step at m={m} below 1/N: not strictly increasing")
        for name, value in (("M", M), ("N", N), ("A", A), ("Q", Q)):
            object.__setattr__(self, name, value)

    @cached_property
    def F(self) -> tuple:
        """The CDF values F(0..M) as Fractions."""
        return tuple(Fraction(a, self.Q) for a in self.A)

    def p(self, m: int) -> Fraction:
        """Frequency function Pr(m) = F(m+1) - F(m)."""
        return Fraction(self.A[m + 1] - self.A[m], self.Q)


def uniform_model(M: int, N: int) -> CdfModel:
    return CdfModel.from_numerators(M, N, range(M + 1), M)


def model_from_frequencies(counts: Sequence[int], N: int) -> CdfModel:
    """Build a model from empirical counts for values 0..M-1, smoothing with
    a 1/N floor so every step satisfies the strict-increase invariant:
    Pr(m) = (1 - M/N) c_m/total + 1/N = ((N - M) c_m + total) / (N total)."""
    M = len(counts)
    if M < 1:
        raise ModelError("need at least one frequency")
    if any(c < 0 for c in counts):
        raise ModelError("negative count")
    total = sum(counts)
    if total == 0:
        return uniform_model(M, N)
    steps = ((N - M) * c + total for c in counts)
    return CdfModel.from_numerators(M, N, [0, *accumulate(steps)], N * total)


def u_precision_bits(model: CdfModel) -> int:
    return (model.N - 1).bit_length() + _U_GUARD_BITS


def flatten(m: int, model: CdfModel, gen: DeterministicGenerator) -> int:
    """Randomised transform m -> floor(N * ((1-u)F(m) + u F(m+1))) in [0, N)."""
    if not 0 <= m < model.M:
        raise DomainError(f"plaintext {m} outside [0, {model.M})")
    bits = u_precision_bits(model)
    N, Q, a = model.N, model.Q, model.A[m]
    # with u = j/2^bits, N * ((1-u)F(m) + u F(m+1)) = (base + j*step) / den,
    # and one ulp of u moves it by step/den < 1
    step = (model.A[m + 1] - a) * N
    base = a * N << bits
    den = Q << bits
    # invertibility needs the output in [ceil(N*F(m)), ceil(N*F(m+1)) - 1];
    # the partial cell below ceil(N*F(m)) belongs to m-1 under unflatten
    min_cell = -(a * N // -Q)
    for _ in range(64):
        u = gen.uniform_fraction(bits)
        cell, rem = divmod(base + u.numerator * ((1 << bits) // u.denominator) * step, den)
        # reject draws whose truncated tail could straddle an integer: accept
        # if [val, val + step/den] ends at or before the next integer
        if cell >= min_cell and rem + step <= den:
            return cell
    return max(cell, min_cell)  # vanishing probability; clamp and accept


def unflatten(mbar: int, model: CdfModel) -> int:
    """Exact inverse: the unique m with F(m) <= mbar/N < F(m+1), i.e. the
    last m with A[m] <= floor(mbar*Q/N)."""
    if not 0 <= mbar < model.N:
        raise DomainError(f"flattened value {mbar} outside [0, {model.N})")
    m = bisect_right(model.A, mbar * model.Q // model.N) - 1
    return min(m, model.M - 1)
