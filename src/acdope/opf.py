"""Deterministic order-preserving functions by recursive range bisection.

A key fixes a random increasing map f: [0, M] -> [1, N] (M = 2^r, N >= M^2)
without ever materialising it.  Encryption bisects the domain; each frame
(a, b, f(a), f(b)) reseeds the generator through a keyed hash, draws the
midpoint image f((a+b)/2) = f(a) + z with z in [0, f(b) - f(a)], and recurses
into the half containing the plaintext.  Decryption replays exactly the same
frames and pseudorandom choices, so it reconstructs the identical f values
and walks down to the preimage.  opf_encrypt_many and opf_decrypt_many do
the same for a batch, visiting it in sorted order so that a frame shared by
neighbouring values is drawn once.

Two midpoint samplers are supported.  "uniform" draws z uniformly (the
CryptDB-style ope-exp baseline; it deliberately ignores the tail condition
and is kept as a labelled baseline only).  "beta" draws z = floor(y * w) with
w ~ Beta(h, h+1) for half-width h, clamped into [y/4, 3y/4] so the subrange
cannot collapse (the clamp count is tracked in CLAMP_COUNT).
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from typing import Optional

from . import betadist, keyfile
from .errors import DomainError
from .keyfile import KeyFormatError
from .prng import DeterministicGenerator, Seed, fresh_seed
from .record import Record

KEY_FILE_SCHEME = keyfile.OPF_SCHEME


class Sampler(enum.Enum):
    UNIFORM = "uniform"
    BETA = "beta"


class NotACiphertextError(DomainError):
    """Value is not in the image of this key's order-preserving function."""


#: Number of beta-mode midpoint draws clamped into [y/4, 3y/4] so far.
CLAMP_COUNT = 0


def reset_clamp_count() -> None:
    global CLAMP_COUNT
    CLAMP_COUNT = 0


class OpfKey(Record):
    __slots__ = ("master_seed", "r_bits", "N", "sampler")

    def __init__(self, master_seed: Seed, r_bits: int, N: int, sampler: Sampler):
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "r_bits", r_bits)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "sampler", sampler)

    @property
    def M(self) -> int:
        return 1 << self.r_bits


def make_opf_key(
    r_bits: int,
    sampler: Sampler,
    N: Optional[int] = None,
    master_seed: Optional[Seed] = None,
) -> OpfKey:
    """Build a key for the power-of-two domain [0, 2^r_bits].

    N defaults to M^2, the smallest allowed range bound.
    """
    if r_bits < 1:
        raise DomainError("r_bits must be >= 1 (domain [0, 2^r])")
    if N is None:
        N = 1 << 2 * r_bits
    elif N < 1 or N.bit_length() <= 2 * r_bits:  # N < M^2, compared without building M
        raise DomainError(f"N={N} below M^2=2^{2 * r_bits}")
    if N < 5:  # init_endpoints needs 1 <= f(0) < f(M) <= N with f(M) - f(0) > 3N/4
        raise DomainError(f"N={N} leaves no room for the endpoints; need N >= 5")
    if master_seed is None:
        master_seed = fresh_seed()
    return OpfKey(master_seed=master_seed, r_bits=r_bits, N=N, sampler=sampler)


class RangeFrame(Record):
    __slots__ = ("a", "b", "fa", "fb")

    def __init__(self, a: int, b: int, fa: int, fb: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "fa", fa)
        object.__setattr__(self, "fb", fb)


def _encode_int(v: int) -> bytes:
    raw = v.to_bytes(max((v.bit_length() + 7) // 8, 1), "big")
    return len(raw).to_bytes(4, "big") + raw


def seed_fn(master: Seed, frame: RangeFrame) -> Seed:
    """Per-frame seed: keyed hash of the length-prefixed frame encoding.

    Length prefixes make the encoding injective, so distinct frames cannot
    alias to the same generator stream.
    """
    msg = b"".join(_encode_int(v) for v in (frame.a, frame.b, frame.fa, frame.fb))
    return Seed(hmac.new(master.data, msg, hashlib.sha256).digest())


def init_endpoints(key: OpfKey) -> tuple[int, int]:
    """Pseudorandom (f(0), f(M)) with f(M) - f(0) > 3N/4, inside [1, N]."""
    N = key.N
    gen = DeterministicGenerator(
        Seed(hmac.new(key.master_seed.data, b"opf/endpoints", hashlib.sha256).digest())
    )
    f0 = gen.uniform_int(1, max(N // 4 - 1, 1))
    fM = gen.uniform_int(f0 + 3 * N // 4 + 1, N)
    return f0, fM


def _beta_precision(key: OpfKey) -> int:
    return max((key.N - 1).bit_length(), 64)


def sample_mid(
    gen: DeterministicGenerator,
    y: int,
    x: int,
    a: int,
    sampler: Sampler,
    prec: int = 64,
) -> int:
    """Midpoint offset z in [0, y] for a subdomain of width a with relative
    midpoint x.  Beta mode clamps into [y/4, 3y/4] (tail condition)."""
    global CLAMP_COUNT
    if y < 1:
        raise DomainError("degenerate range: y must be >= 1")
    if sampler is Sampler.UNIFORM:
        return gen.uniform_int(0, y)
    wn = betadist.beta_icdf_bits(x, a - x + 1, gen.bits(prec), prec)
    z = (y * wn) >> prec
    lo, hi = -(-y // 4), (3 * y) // 4
    if lo > hi:  # y <= 3: the tail window is empty, nothing to clamp into
        return z
    if z < lo or z > hi:
        CLAMP_COUNT += 1
        z = min(max(z, lo), hi)
    return z


def _midpoint_value(key: OpfKey, frame: RangeFrame, prec: int) -> int:
    y = frame.fb - frame.fa
    if y == 0:
        return frame.fa  # earlier collision flattened this subrange
    gen = DeterministicGenerator(seed_fn(key.master_seed, frame))
    width = frame.b - frame.a
    z = sample_mid(gen, y, width // 2, width, key.sampler, prec)
    return frame.fa + z


def opf_encrypt(m: int, key: OpfKey, trace: Optional[list] = None) -> int:
    """Deterministic ciphertext f(m) in [1, N]; nondecreasing in m."""
    M = key.M
    if not 0 <= m <= M:
        raise DomainError(f"plaintext {m} outside [0, {M}]")
    f0, fM = init_endpoints(key)
    if m == 0:
        return f0
    if m == M:
        return fM
    prec = _beta_precision(key)
    a, b, fa, fb = 0, M, f0, fM
    while True:
        frame = RangeFrame(a, b, fa, fb)
        fx = _midpoint_value(key, frame, prec)
        x = (a + b) // 2
        if trace is not None:
            trace.append((frame, fx))
        if x == m:
            return fx
        if m < x:
            b, fb = x, fx
        else:
            a, fa = x, fx


def opf_decrypt(c: int, key: OpfKey, trace: Optional[list] = None) -> int:
    """Preimage of c under the key's function, by bit-exact replay."""
    M, N = key.M, key.N
    if not 1 <= c <= N:
        raise DomainError(f"ciphertext {c} outside [1, {N}]")
    f0, fM = init_endpoints(key)
    if c == f0:
        return 0
    if c == fM:
        return M
    if not f0 < c < fM:
        raise NotACiphertextError(f"{c} outside the image interval [{f0}, {fM}]")
    prec = _beta_precision(key)
    a, b, fa, fb = 0, M, f0, fM
    while True:
        if b - a == 1:
            raise NotACiphertextError(f"{c} falls in a gap of the function image")
        frame = RangeFrame(a, b, fa, fb)
        fx = _midpoint_value(key, frame, prec)
        x = (a + b) // 2
        if trace is not None:
            trace.append((frame, fx))
        if fx == c:
            return x
        if c < fx:
            b, fb = x, fx
        else:
            a, fa = x, fx


def _shared_midpoints(key: OpfKey):
    """Midpoint lookup for a batch of descents made in sorted order.

    A node's frame is fixed by (a, b), so consecutive descents share the top
    of their paths.  The lookup keeps the previous descent, one (a, b, fx)
    per depth, and computes a frame only where (a, b) differs from it; below
    the first difference the kept entries are dropped.  Memory stays O(depth).
    """
    prec = _beta_precision(key)
    path = []

    def mid(depth: int, a: int, b: int, fa: int, fb: int) -> int:
        if depth < len(path):
            pa, pb, fx = path[depth]
            if pa == a and pb == b:
                return fx
            del path[depth:]
        fx = _midpoint_value(key, RangeFrame(a, b, fa, fb), prec)
        path.append((a, b, fx))
        return fx

    return mid


def _sorted_positions(values: list) -> list:
    return sorted(range(len(values)), key=values.__getitem__)


def opf_encrypt_many(ms: list, key: OpfKey) -> list:
    """[opf_encrypt(m, key) for m in ms], visiting the plaintexts in sorted
    order so that each shared frame is drawn once.  On a plaintext outside
    [0, M] the DomainError of the first one in input order is raised, with
    its position in ms as the attribute `index`."""
    M = key.M
    for i, m in enumerate(ms):
        if not 0 <= m <= M:
            exc = DomainError(f"plaintext {m} outside [0, {M}]")
            exc.index = i
            raise exc
    f0, fM = init_endpoints(key)
    mid = _shared_midpoints(key)

    def encrypt(m: int) -> int:
        if m == 0:
            return f0
        if m == M:
            return fM
        a, b, fa, fb, depth = 0, M, f0, fM, 0
        while True:
            fx = mid(depth, a, b, fa, fb)
            x = (a + b) // 2
            if x == m:
                return fx
            if m < x:
                b, fb = x, fx
            else:
                a, fa = x, fx
            depth += 1

    out = [0] * len(ms)
    for i in _sorted_positions(ms):
        out[i] = encrypt(ms[i])
    return out


def opf_decrypt_many(cs: list, key: OpfKey) -> list:
    """[opf_decrypt(c, key) for c in cs], visiting the ciphertexts in sorted
    order so that each shared frame is drawn once.  If any ciphertext fails,
    the error that opf_decrypt raises on the first failing one in input order
    is raised, with its position in cs as the attribute `index`."""
    M, N = key.M, key.N
    f0, fM = init_endpoints(key)
    mid = _shared_midpoints(key)

    def decrypt(c: int) -> int:
        if not 1 <= c <= N:
            raise DomainError(f"ciphertext {c} outside [1, {N}]")
        if c == f0:
            return 0
        if c == fM:
            return M
        if not f0 < c < fM:
            raise NotACiphertextError(f"{c} outside the image interval [{f0}, {fM}]")
        a, b, fa, fb, depth = 0, M, f0, fM, 0
        while True:
            if b - a == 1:
                raise NotACiphertextError(f"{c} falls in a gap of the function image")
            fx = mid(depth, a, b, fa, fb)
            x = (a + b) // 2
            if fx == c:
                return x
            if c < fx:
                b, fb = x, fx
            else:
                a, fa = x, fx
            depth += 1

    out = [0] * len(cs)
    failure = None
    for i in _sorted_positions(cs):
        if failure is not None and i > failure.index:
            continue  # cannot be the first failure in input order
        try:
            out[i] = decrypt(cs[i])
        except DomainError as exc:
            exc.index = i
            failure = exc
    if failure is not None:
        raise failure
    return out


def save_key(key: OpfKey, path: str) -> None:
    keyfile.write(path, KEY_FILE_SCHEME, {
        "sampler": key.sampler.value, "r_bits": key.r_bits, "N": key.N,
        "seed_hex": key.master_seed.hex(),
    })


def load_key(path: str) -> OpfKey:
    """Read a key file; a malformed file or parameters that make_opf_key
    rejects raise KeyFormatError."""
    return key_from_fields(keyfile.read_scheme(path, KEY_FILE_SCHEME), path)


def key_from_fields(fields: dict, path: str) -> OpfKey:
    """The key that an opf key file's fields hold, checked as make_opf_key
    checks a new one; path names the file in errors."""
    try:
        return make_opf_key(
            r_bits=int(fields["r_bits"]),
            sampler=Sampler(fields["sampler"]),
            N=int(fields["N"]),
            master_seed=Seed.from_hex(fields["seed_hex"]),
        )
    except (KeyError, ValueError) as exc:  # DomainError is a ValueError too
        raise KeyFormatError(f"malformed key file {path!r}: {exc!r}") from exc
