"""Timing harness: init / per-op encrypt / per-op decrypt / local sort.

Replaces the cluster sort of the original experiment with an in-process
numeric sort (sort time is scheme-insensitive; the crypto-relevant numbers
are the per-op encrypt/decrypt means).  Monotonic clock, warm-up batch
discarded, single-threaded so per-op means stay meaningful.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from .cli import SCHEMES, make_key
from .errors import ParameterError
from .keyfile import MAX_KEY_BITS
from .prng import DeterministicGenerator, Seed, derive_seed, fresh_seed

#: opf-beta stops at rho = 63 for cost, not precision: at rho = 127 the
#: frames wider than 128 take the 254-bit normal path (120 draws per encrypt,
#: against ~6 exact ones for the narrower frames, at 2.6 Phi evaluations per
#: normal draw), and an encrypt costs 13-21 ms in process (best of 3 over 20
#: values, 2 cores, Python 3.11, by the host's speed; the normal draws
#: dominate it), so the default 10 000 values would take two to four
#: minutes per repeat.  Larger rho is reported as unsupported.
BETA_MAX_RHO = 63


class UnsupportedConfig(ValueError):
    pass


@dataclass(frozen=True)
class BenchResult:
    scheme: str
    rho: int
    init_ms: float
    enc_us_mean: float
    dec_us_mean: float
    sort_ms: float
    count: int
    enc_batch_means_us: tuple = field(default=(), repr=False)
    dec_batch_means_us: tuple = field(default=(), repr=False)
    sort_batch_ms: tuple = field(default=(), repr=False)
    init_batch_ms: tuple = field(default=(), repr=False)


def _make_ops(scheme: str, rho: int, seed: Seed):
    """Returns (init_fn) -> (enc, dec) closures for one configuration."""
    def init():
        module, key = make_key(scheme, 1 << rho, derive_seed(seed, b"key"))
        if scheme == "gacd":
            gen = DeterministicGenerator(derive_seed(seed, b"noise"))
            return (lambda m: module.encrypt(m, key, gen)), (lambda c: module.decrypt(c, key))
        module.opf_encrypt(0, key)  # an opf key's set-up: its endpoints, kept in its memo
        return (lambda m: module.opf_encrypt(m, key)), (lambda c: module.opf_decrypt(c, key))
    return init


def bench_scheme(
    scheme: str,
    rho: int,
    count: int = 10_000,
    repeat: int = 5,
    seed: Optional[Seed] = None,
) -> BenchResult:
    """Times scheme at M = 2^rho.  An unknown scheme, rho outside
    [1, MAX_KEY_BITS], opf-beta above BETA_MAX_RHO, or a key that keygen's
    rules refuse (with the default lambda or N) raises UnsupportedConfig;
    the first timed init builds the first key, so no key is built only to
    check."""
    if scheme not in SCHEMES or not 1 <= rho <= MAX_KEY_BITS or \
            (scheme == "opf-beta" and rho > BETA_MAX_RHO):
        raise UnsupportedConfig(f"{scheme} at rho={rho} is not supported")
    if seed is None:
        seed = fresh_seed()

    init = _make_ops(scheme, rho, seed)
    init_times = []
    for _ in range(repeat):  # every init is the same; the ops of the last are timed
        t0 = time.perf_counter()
        try:
            enc, dec = init()
        except ParameterError as exc:  # raised by the first, as every init builds the same key
            raise UnsupportedConfig(f"{scheme} at rho={rho} is not supported") from exc
        init_times.append((time.perf_counter() - t0) * 1e3)

    pgen = DeterministicGenerator(derive_seed(seed, b"plain"))
    plaintexts = pgen.uniform_ints(0, (1 << rho) - 1, count)

    # warm-up batch, discarded
    for m in plaintexts[: min(count, 256)]:
        dec(enc(m))

    enc_means = []
    dec_means = []
    sort_times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        cts = [enc(m) for m in plaintexts]
        enc_means.append((time.perf_counter() - t0) / count * 1e6)

        t0 = time.perf_counter()
        cts.sort()
        sort_times.append((time.perf_counter() - t0) * 1e3)

        t0 = time.perf_counter()
        for c in cts:
            dec(c)
        dec_means.append((time.perf_counter() - t0) / count * 1e6)

    return BenchResult(
        scheme=scheme,
        rho=rho,
        init_ms=statistics.median(init_times),
        enc_us_mean=statistics.fmean(enc_means),
        dec_us_mean=statistics.fmean(dec_means),
        sort_ms=statistics.median(sort_times),
        count=count,
        enc_batch_means_us=tuple(enc_means),
        dec_batch_means_us=tuple(dec_means),
        sort_batch_ms=tuple(sort_times),
        init_batch_ms=tuple(init_times),
    )


def format_table(results) -> str:
    lines = [
        f"{'scheme':<12} {'rho':>4} {'init(ms)':>9} {'enc(us)':>9} {'dec(us)':>9} "
        f"{'sort(ms)':>9} {'count':>7}"
    ]
    for r in results:
        lines.append(
            f"{r.scheme:<12} {r.rho:>4} {r.init_ms:>9.2f} {r.enc_us_mean:>9.2f} "
            f"{r.dec_us_mean:>9.2f} {r.sort_ms:>9.2f} {r.count:>7}"
        )
    return "\n".join(lines)


def _spread(samples) -> float:
    """Population standard deviation over the repeats; 0 for a single one."""
    return statistics.pstdev(samples) if len(samples) > 1 else 0.0


def metric_lines(result: BenchResult) -> list:
    tag = f"{result.scheme}.rho{result.rho}"
    return [
        f"metric={tag}.init_ms value={result.init_ms:.3f} "
        f"band={_spread(result.init_batch_ms):.3f}",
        f"metric={tag}.enc_us value={result.enc_us_mean:.3f} "
        f"band={_spread(result.enc_batch_means_us):.3f}",
        f"metric={tag}.dec_us value={result.dec_us_mean:.3f} "
        f"band={_spread(result.dec_batch_means_us):.3f}",
        f"metric={tag}.sort_ms value={result.sort_ms:.3f} "
        f"band={_spread(result.sort_batch_ms):.3f}",
    ]
