"""Deterministic order-preserving functions by recursive range bisection.

A key fixes a random increasing map f: [0, M] -> [1, N] (M = 2^r, N >= M^2)
without ever materialising it.  Encryption bisects the domain; each frame
(a, b, f(a), f(b)) reseeds the generator through a keyed hash (seed_fn:
HMAC-SHA256 under the key's master seed of the frame's length-prefixed
encoding, from an HMAC the key keeps keyed and copies per frame), draws the
midpoint image f((a+b)/2) = f(a) + z with z in [0, f(b) - f(a)], and recurses
into the half containing the plaintext.  Decryption replays exactly the same
frames and pseudorandom choices, so it reconstructs the identical f values
and walks down to the preimage.  There is one encrypt walk and one decrypt
walk, each fed by a midpoint lookup.  opf_encrypt and opf_decrypt give it a
fresh lookup that shares the top of the tree through the key: each key keeps
a memo, filled by its first single-value calls, of the endpoints and of the
frames above depth TOP_DEPTH, which every descent passes through.  That is
at most 2^TOP_DEPTH - 1 frames, each an integer below N: about 0.6 MB at
r = 127.  A traced call bypasses the memo and computes every frame it
visits.  opf_encrypt_many and opf_decrypt_many keep one lookup across the
batch in sorted order, so that a frame shared by neighbouring values is
drawn once; they leave the memo alone.

Two midpoint samplers are supported.  "uniform" draws z uniformly (the
CryptDB-style ope-exp baseline; it deliberately ignores the tail condition
and is kept as a labelled baseline only).  "beta" draws z = floor(y * w) with
w ~ Beta(h, h+1) for half-width h, clamped into [y/4, 3y/4] so the subrange
cannot collapse.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from typing import Optional

from . import betadist, keyfile
from .errors import DomainError, ParameterError
from .keyfile import KeyFormatError
from .prng import DeterministicGenerator, Seed, fresh_seed
from .record import Record

KEY_FILE_SCHEME = keyfile.OPF_SCHEME

#: Depths of the bisection tree whose frames a key's memo keeps for its
#: single-value calls: at most 2^TOP_DEPTH - 1 frames per key.
TOP_DEPTH = 12


class Sampler(enum.Enum):
    UNIFORM = "uniform"
    BETA = "beta"


class NotACiphertextError(DomainError):
    """Value is not in the image of this key's order-preserving function."""


class OpfKey(type("OpfKeyState", (Record,), {"__slots__": ("_memo", "_mac")})):
    """The fields fix the function.  Two values derived from them sit in
    slots of the unnamed base, outside the fields (this class's __slots__),
    so ==, hash, repr, pickle and copy see only the fields, and a pickled or
    copied key builds its own: the HMAC-SHA256 keyed with the master seed,
    which seed_fn copies for each frame, and the memo of the single-value
    calls, which starts empty.  The memo maps None to the endpoints
    (f(0), f(M)) and a midpoint x to f(x), for the frames above TOP_DEPTH.
    Concurrent callers may both compute one entry; they store the same
    value, so no lock is needed."""

    __slots__ = ("master_seed", "r_bits", "N", "sampler")

    def __init__(self, master_seed: Seed, r_bits: int, N: int, sampler: Sampler):
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "r_bits", r_bits)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "sampler", sampler)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_mac", hmac.new(master_seed.data, digestmod=hashlib.sha256))

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

    N defaults to M^2, the smallest allowed range bound.  Parameters outside
    these rules, an N wider than keyfile.MAX_KEY_BITS, or for the beta
    sampler an N above 2^betadist._FLOAT_PREC_LIMIT, raise ParameterError.
    """
    if r_bits < 1:
        raise ParameterError("r_bits must be >= 1 (domain [0, 2^r])")
    if 2 * r_bits >= keyfile.MAX_KEY_BITS:  # M^2 is too wide; checked before it is built
        raise ParameterError(f"N >= M^2=2^{2 * r_bits} exceeds the "
                             f"{keyfile.MAX_KEY_BITS}-bit key size limit")
    if N is None:
        N = 1 << 2 * r_bits
    elif N < 1 or N.bit_length() <= 2 * r_bits:  # N < M^2, compared without building M
        raise ParameterError(f"N={N} below M^2=2^{2 * r_bits}")
    elif N.bit_length() > keyfile.MAX_KEY_BITS:
        raise ParameterError(f"N exceeds the {keyfile.MAX_KEY_BITS}-bit key size limit")
    if N < 5:  # init_endpoints needs 1 <= f(0) < f(M) <= N with f(M) - f(0) > 3N/4
        raise ParameterError(f"N={N} leaves no room for the endpoints; need N >= 5")
    if sampler is Sampler.BETA and _beta_precision(N) > betadist._FLOAT_PREC_LIMIT:
        # past it the float guesses leave double range and exact draws bisect
        # the grid; an encrypt takes ~0.5 s at 2^1000, minutes near the size limit
        raise ParameterError(f"a beta key's N is capped at 2^{betadist._FLOAT_PREC_LIMIT} "
                             f"for cost; got a {N.bit_length()}-bit N")
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


def seed_fn(key: OpfKey, frame: RangeFrame) -> Seed:
    """Per-frame seed: HMAC-SHA256 under the key's master seed of the frame
    encoding, which gives each of a, b, fa, fb as a 4-byte big-endian length
    and then its big-endian bytes (one byte for 0).

    Length prefixes make the encoding injective, so distinct frames cannot
    alias to the same generator stream.  The encoding is built as one
    integer and converted once, and the keyed HMAC is the key's, copied.
    """
    msg = size = 0
    for v in (frame.a, frame.b, frame.fa, frame.fb):
        n = (v.bit_length() + 7) >> 3 or 1
        msg = (msg << 32 | n) << 8 * n | v
        size += 4 + n
    mac = key._mac.copy()
    mac.update(msg.to_bytes(size, "big"))
    return Seed(mac.digest())


def init_endpoints(key: OpfKey) -> tuple[int, int]:
    """Pseudorandom (f(0), f(M)) with f(M) - f(0) > 3N/4, inside [1, N]."""
    N = key.N
    gen = DeterministicGenerator(
        Seed(hmac.new(key.master_seed.data, b"opf/endpoints", hashlib.sha256).digest())
    )
    f0 = gen.uniform_int(1, max(N // 4 - 1, 1))
    fM = gen.uniform_int(f0 + 3 * N // 4 + 1, N)
    return f0, fM


def _beta_precision(N: int) -> int:
    return max((N - 1).bit_length(), 64)


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
    if y < 1:
        raise DomainError("degenerate range: y must be >= 1")
    if sampler is Sampler.UNIFORM:
        return gen.uniform_int(0, y)
    wn = betadist.beta_icdf_bits(x, a - x + 1, gen.bits(prec), prec)
    z = (y * wn) >> prec
    lo, hi = -(-y // 4), (3 * y) // 4
    if lo > hi:  # y <= 3: the tail window is empty, nothing to clamp into
        return z
    return min(max(z, lo), hi)


def _midpoint_value(key: OpfKey, frame: RangeFrame, prec: int) -> int:
    y = frame.fb - frame.fa
    if y == 0:
        return frame.fa  # earlier collision flattened this subrange
    gen = DeterministicGenerator(seed_fn(key, frame))
    width = frame.b - frame.a
    z = sample_mid(gen, y, width // 2, width, key.sampler, prec)
    return frame.fa + z


def _encrypt_walk(m: int, key: OpfKey, f0: int, fM: int, mid) -> int:
    """f(m), descending through the frames that the lookup mid gives."""
    M = key.M
    if not 0 <= m <= M:
        raise DomainError(f"plaintext {m} outside [0, {M}]")
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


def _decrypt_walk(c: int, key: OpfKey, f0: int, fM: int, mid) -> int:
    """Preimage of c, replaying the frames that the lookup mid gives."""
    M, N = key.M, key.N
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


def _shared_midpoints(key: OpfKey, trace: Optional[list] = None, memo: bool = False):
    """(f(0), f(M), mid): the endpoints and a midpoint lookup for descents
    made in sorted order.

    A node's frame is fixed by (a, b), so consecutive descents share the top
    of their paths.  The lookup keeps the previous descent, one (a, b, fx)
    per depth, and computes a frame only where (a, b) differs from it; below
    the first difference the kept entries are dropped.  Memory stays O(depth).
    With memo (the single-value calls), the endpoints and the frames above
    TOP_DEPTH come from the key's memo, a frame there keyed by its midpoint
    x (M is a power of two, so no two nodes share one), and each one
    computed is stored in it; the kept descent then starts at TOP_DEPTH.  The memo adds at most
    2^TOP_DEPTH - 1 frames per key.  With trace, the memo is bypassed and
    each frame computed is appended as (RangeFrame, fx); a fresh lookup
    without the memo computes every frame its one descent visits.
    """
    prec = _beta_precision(key.N)
    path = []
    table = key._memo if memo and trace is None else None
    if table is None:
        top = 0
        f0, fM = init_endpoints(key)
    else:
        top = TOP_DEPTH
        ends = table.get(None)
        if ends is None:
            ends = table[None] = init_endpoints(key)
        f0, fM = ends

    def mid(depth: int, a: int, b: int, fa: int, fb: int) -> int:
        if depth < top:
            x = (a + b) // 2
            fx = table.get(x)
            if fx is None:
                fx = table[x] = _midpoint_value(key, RangeFrame(a, b, fa, fb), prec)
            return fx
        depth -= top
        if depth < len(path):
            pa, pb, fx = path[depth]
            if pa == a and pb == b:
                return fx
            del path[depth:]
        frame = RangeFrame(a, b, fa, fb)
        fx = _midpoint_value(key, frame, prec)
        path.append((a, b, fx))
        if trace is not None:
            trace.append((frame, fx))
        return fx

    return f0, fM, mid


def opf_encrypt(m: int, key: OpfKey, trace: Optional[list] = None) -> int:
    """Deterministic ciphertext f(m) in [1, N]; nondecreasing in m."""
    return _encrypt_walk(m, key, *_shared_midpoints(key, trace, memo=True))


def opf_decrypt(c: int, key: OpfKey, trace: Optional[list] = None) -> int:
    """Preimage of c under the key's function, by bit-exact replay."""
    return _decrypt_walk(c, key, *_shared_midpoints(key, trace, memo=True))


def _walk_sorted(values: list, key: OpfKey, walk) -> list:
    """[walk(v, ...) for v in values] over one shared lookup, visiting the
    values in sorted order.  If any value fails, the error of the first
    failing one in input order is raised, with its position in values as the
    attribute `index`."""
    f0, fM, mid = _shared_midpoints(key)
    out = [0] * len(values)
    failure = None
    for i in sorted(range(len(values)), key=values.__getitem__):
        if failure is not None and i > failure.index:
            continue  # cannot be the first failure in input order
        try:
            out[i] = walk(values[i], key, f0, fM, mid)
        except DomainError as exc:
            exc.index = i
            failure = exc
    if failure is not None:
        raise failure
    return out


def opf_encrypt_many(ms: list, key: OpfKey) -> list:
    """[opf_encrypt(m, key) for m in ms], drawing each frame the sorted
    plaintexts share once.  The first plaintext outside [0, M] in input
    order raises, with its position in ms as `index`."""
    return _walk_sorted(ms, key, _encrypt_walk)


def opf_decrypt_many(cs: list, key: OpfKey) -> list:
    """[opf_decrypt(c, key) for c in cs], drawing each frame the sorted
    ciphertexts share once.  The first failing ciphertext in input order
    raises opf_decrypt's error, with its position in cs as `index`."""
    return _walk_sorted(cs, key, _decrypt_walk)


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
    except (KeyError, ValueError) as exc:  # ParameterError is a ValueError too
        raise KeyFormatError(f"malformed key file {path!r}: {exc!r}") from exc
