"""Seedable deterministic randomness over arbitrary-precision integer ranges.

Stream construction (format "sha256-ctr/1", fixed): the raw byte stream is
the concatenation of SHA-256(seed || block_index) blocks, with the block
index an 8-byte big-endian counter starting at 0.  Seeds are 32 bytes.  The
stream is a pure function of the seed, so draws made while encrypting can be
replayed bit-exactly while decrypting, on any platform.

A generator hashes the stream in runs of consecutive blocks: a refill
hashes max(blocks the draw needs, min(blocks hashed so far, 64)) blocks.
The run doubles with use up to 64 blocks (2 KiB), so a short-lived generator
(one opf frame's single draw) hashes only what it reads, while a long-lived
one (a noise or plaintext stream) pays the per-block Python overhead once
per run.  Look-ahead is bounded: after n bytes are read, at most
min(2*ceil(n/32), ceil(n/32) + 64) blocks have been hashed.  How the stream
is cut into runs never changes its bytes.

Generators are single-owner.  Independent streams come from child seeds via
derive_seed(), never from sharing one generator between tasks.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from fractions import Fraction

SEED_BYTES = 32
STREAM_FORMAT = "sha256-ctr/1"

_BLOCK = hashlib.sha256().digest_size
#: Longest run of blocks one refill hashes (2 KiB).
_MAX_RUN = 64
#: Most candidates uniform_ints reads in one pass.
_MAX_PASS = 4096


class RangeError(ValueError):
    """uniform_int called with lo > hi."""


class PrecisionError(ValueError):
    """uniform_fraction called with precision_bits < 1."""


@dataclass(frozen=True)
class Seed:
    data: bytes

    def __post_init__(self):
        if len(self.data) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(self.data)}")

    @classmethod
    def from_hex(cls, text: str) -> "Seed":
        return cls(bytes.fromhex(text))

    def hex(self) -> str:
        return self.data.hex()


def fresh_seed() -> Seed:
    """A new seed from system entropy (keygen only; everything else derives)."""
    return Seed(os.urandom(SEED_BYTES))


def derive_seed(parent: Seed, label: bytes) -> Seed:
    """Child seed for an independent stream, keyed off the parent."""
    return Seed(hmac.new(parent.data, label, hashlib.sha256).digest())


def seed_from_material(material: bytes) -> Seed:
    """Map arbitrary byte material (e.g. a short user-supplied hex string)
    onto a full-width seed."""
    if len(material) == SEED_BYTES:
        return Seed(material)
    return Seed(hashlib.sha256(material).digest())


class DeterministicGenerator:
    """Byte/integer stream that is a pure function of its seed."""

    __slots__ = ("_seed", "_counter", "_buf", "_pos")

    def __init__(self, seed: Seed):
        self._seed = seed.data
        self._counter = 0  # blocks hashed so far
        self._buf = b""
        self._pos = 0

    def bytes(self, n: int) -> bytes:
        if n <= 0:
            return b""
        pos, buf = self._pos, self._buf
        end = pos + n
        if end > len(buf):
            # hash the next run of blocks and keep the unread tail before it
            start = self._counter
            run = max(-(-(end - len(buf)) // _BLOCK), min(start, _MAX_RUN))
            seed, sha256 = self._seed, hashlib.sha256
            if run == 1:  # a short-lived generator (one opf frame): no comprehension frame
                blocks = sha256(seed + start.to_bytes(8, "big")).digest()
            else:
                blocks = b"".join([
                    sha256(seed + i.to_bytes(8, "big")).digest()
                    for i in range(start, start + run)
                ])
            buf = self._buf = buf[pos:] + blocks
            self._counter = start + run
            pos, end = 0, n
        self._pos = end
        return buf[pos:end]

    def bits(self, k: int) -> int:
        """Uniform integer in [0, 2^k)."""
        if k <= 0:
            return 0
        nbytes = (k + 7) // 8
        return int.from_bytes(self.bytes(nbytes), "big") >> (nbytes * 8 - k)

    def uniform_int(self, lo: int, hi: int) -> int:
        """Exactly uniform on [lo, hi] via rejection sampling (no modulo bias)."""
        if lo > hi:
            raise RangeError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span == 1:
            return lo
        k = (span - 1).bit_length()
        while True:
            v = self.bits(k)
            if v < span:
                return lo + v

    def uniform_ints(self, lo: int, hi: int, n: int) -> list:
        """[self.uniform_int(lo, hi) for _ in range(n)]: the same draws and
        rejections, and the stream left at the same position.  Raises
        RangeError for lo > hi even when n <= 0.

        Each pass reads at most the candidates still needed (and at most
        _MAX_PASS) with one bytes() call, so the last candidate read is
        always accepted and nothing is read ahead of the loop.
        """
        if lo > hi:
            raise RangeError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span == 1:
            return [lo] * max(n, 0)
        k = (span - 1).bit_length()
        nb = (k + 7) // 8
        shift = nb * 8 - k
        from_bytes = int.from_bytes
        out = []
        while len(out) < n:
            buf = self.bytes(nb * min(n - len(out), _MAX_PASS))
            out += [lo + v for i in range(0, len(buf), nb)
                    if (v := from_bytes(buf[i:i + nb], "big") >> shift) < span]
        return out

    def uniform_fraction(self, precision_bits: int) -> Fraction:
        """Dyadic rational j / 2^precision_bits, j uniform on [0, 2^precision_bits).

        Always strictly below 1; never a binary float.
        """
        if precision_bits < 1:
            raise PrecisionError("precision_bits must be >= 1")
        return Fraction(self.bits(precision_bits), 1 << precision_bits)
