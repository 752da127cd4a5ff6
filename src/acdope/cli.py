"""Command-line driver: key management, bulk encrypt/decrypt, the
encrypt -> sort -> decrypt -> verify pipeline, timing benchmarks, and the
ciphertext-only analysis report.

Exit codes are fixed for shell-level integration: 0 ok, 2 bad parameters,
3 bad data (domain/foreign values), 4 order violation.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
import time
from itertools import islice

from . import keyfile
from .errors import DomainError, ParameterError
from .prng import DeterministicGenerator, Seed, derive_seed, fresh_seed, seed_from_material

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_DATA = 3
EXIT_ORDER = 4

SEED_ENV = "OPE_SEED_HEX"

#: The scheme names that keygen and bench take.
SCHEMES = ("gacd", "opf-uniform", "opf-beta")


def _resolve_seed(arg_seed):
    hexstr = arg_seed or os.environ.get(SEED_ENV)
    if not hexstr:
        return fresh_seed()
    try:
        material = bytes.fromhex(hexstr)
    except ValueError:
        print(f"error: seed is not a hex string: {hexstr!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARAMS)
    return seed_from_material(material)


def _load_any_key(path):
    """(scheme, key): the key in the key file at path and the module of the
    scheme that its scheme= tag names.  Only that module is imported, so a
    command loads one scheme."""
    tag, fields = keyfile.read(path)
    if tag == keyfile.GACD_SCHEME:
        from . import gacd as scheme
    elif tag == keyfile.OPF_SCHEME:
        from . import opf as scheme
    else:
        raise keyfile.KeyFormatError(f"unrecognised key file {path!r}")
    return scheme, scheme.key_from_fields(fields, path)


def _encrypt_many(scheme, key, plaintexts, seed):
    if scheme.KEY_FILE_SCHEME == keyfile.OPF_SCHEME:
        return scheme.opf_encrypt_many(plaintexts, key)
    # the noise stream is a child of the seed, never the stream keygen drew k from
    noise = DeterministicGenerator(derive_seed(seed, b"gacd/noise"))
    return scheme.encrypt_many(plaintexts, key, noise)


def _decrypt_many(scheme, key, cts):
    if scheme.KEY_FILE_SCHEME == keyfile.OPF_SCHEME:
        return scheme.opf_decrypt_many(cts, key)
    return scheme.decrypt_many(cts, key)


def _decrypt_prefix(scheme, key, cts):
    """The plaintexts of cts before the first one that fails to decrypt, and
    that failure (None if every one decrypts)."""
    try:
        return _decrypt_many(scheme, key, cts), None
    except DomainError as exc:  # a batch call's error carries the bad value's `index`
        return _decrypt_many(scheme, key, cts[:exc.index]), exc


def _read_ints(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return list(map(int, fh))
        except ValueError:  # a blank or bad line, or bytes that are not UTF-8
            pass
    # slow path: skips blank lines, and names the first bad one
    values = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values.append(int(line))
            except ValueError:
                print(f"error: line {lineno}: not an integer in {path}: {line.strip()[:40]!r}",
                      file=sys.stderr)
                raise SystemExit(EXIT_DATA)
    return values


def _line_of(path, index):
    """The file line of the index-th value _read_ints read from path (blank
    lines hold no value); read again only to report a bad value."""
    lineno = 0
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                if index == 0:
                    break
                index -= 1
    return lineno


def _data_error(path, exc) -> int:
    """Report a batch call's bad value by its line in path."""
    print(f"error: line {_line_of(path, exc.index)}: {exc}", file=sys.stderr)
    return EXIT_DATA


#: Lines _write_ints joins into one write.  One string for the whole file
#: would be slower and double a large step's peak memory.
_WRITE_CHUNK = 4096


def _write_ints(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, len(values), _WRITE_CHUNK):
            fh.write("".join([f"{v}\n" for v in values[i:i + _WRITE_CHUNK]]))


def make_key(scheme: str, M: int, seed: Seed, lam=None, N=None, n_hint=None) -> tuple:
    """(module, key): a new key of the named scheme for plaintexts in [0, M],
    drawn from seed, and the module of that scheme.  gacd takes lam (by
    default the least the bound allows) and n_hint, whose warnings are
    printed; opf takes N (by default M^2).  A key the scheme's rules refuse
    raises ParameterError."""
    if scheme == "gacd":
        from . import gacd as module  # each scheme's module only where it is used

        if lam is None:
            lam = module.min_lambda(M) if M >= 2 else 0  # validate_params reports M < 2
        params = module.SchemeParams(M=M, lam=lam, n_hint=n_hint)
        report = module.validate_params(params)  # one check: its warnings here, its refusal in keygen
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
        return module, module.keygen(params, DeterministicGenerator(seed), report)
    from . import opf as module

    if M & (M - 1):
        raise ParameterError(f"scheme {scheme} needs a power-of-two M")
    sampler = module.Sampler.BETA if scheme == "opf-beta" else module.Sampler.UNIFORM
    return module, module.make_opf_key(M.bit_length() - 1, sampler, N, seed)


def cmd_keygen(args) -> int:
    if args.M is not None:
        M = args.M
    elif args.rho is None:
        raise ParameterError("need --M or --rho")
    elif not 0 <= args.rho <= keyfile.MAX_KEY_BITS:  # before 1 << rho is built
        raise ParameterError(f"--rho must be in [0, {keyfile.MAX_KEY_BITS}], got {args.rho}")
    else:
        M = 1 << args.rho
    module, key = make_key(args.scheme, M, _resolve_seed(args.seed), args.lam, args.N, args.n_hint)
    module.save_key(key, args.out)
    return EXIT_OK


def cmd_encrypt(args) -> int:
    scheme, key = _load_any_key(args.key)
    seed = _resolve_seed(args.seed)

    if args.random is not None:
        pgen = DeterministicGenerator(derive_seed(seed, b"plain"))
        plaintexts = pgen.uniform_ints(0, key.M - 1, args.random)
        source = args.out + ".plain"
        _write_ints(source, plaintexts)
    else:
        source = args.infile
        plaintexts = _read_ints(source)

    try:
        cts = _encrypt_many(scheme, key, plaintexts, seed)
    except DomainError as exc:
        return _data_error(source, exc)
    _write_ints(args.out, cts)
    return EXIT_OK


def cmd_decrypt(args) -> int:
    scheme, key = _load_any_key(args.key)
    try:
        out = _decrypt_many(scheme, key, _read_ints(args.infile))
    except DomainError as exc:
        return _data_error(args.infile, exc)
    _write_ints(args.out, out)
    return EXIT_OK


def cmd_sort_verify(args) -> int:
    scheme, key = _load_any_key(args.key)
    cts = _read_ints(args.infile)

    plain_of = None
    if args.plain:
        sidecar = _read_ints(args.plain)
        if len(sidecar) != len(cts):
            print("error: sidecar length mismatch", file=sys.stderr)
            return EXIT_ORDER
        ms, exc = _decrypt_prefix(scheme, key, cts)
        if ms != sidecar[:len(ms)]:
            # slow path, taken only to name the first mismatch
            i = next(i for i, (m, m_expected) in enumerate(zip(ms, sidecar)) if m != m_expected)
            print(f"error: plaintext cross-check failed at index {i}", file=sys.stderr)
            return EXIT_ORDER
        if exc is not None:
            return _data_error(args.infile, exc)
        # decryption is a pure function of the ciphertext: the order check
        # reuses this pass instead of decrypting again
        plain_of = dict(zip(cts, ms))

    t0 = time.perf_counter()
    cts.sort()
    sort_ms = (time.perf_counter() - t0) * 1e3

    if plain_of is None:
        ms, exc = _decrypt_prefix(scheme, key, cts)
    else:
        ms, exc = list(map(plain_of.__getitem__, cts)), None
    if not all(map(operator.le, ms, islice(ms, 1, None))):
        # slow path, taken only to name the first violation
        i = next(i for i in range(1, len(ms)) if ms[i] < ms[i - 1])
        print(f"error: order violation at sorted index {i}", file=sys.stderr)
        return EXIT_ORDER
    if exc is not None:
        print(f"error: sorted index {exc.index}: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"ok: {len(cts)} ciphertexts, plaintext order verified, sort {sort_ms:.2f} ms")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench  # only this command needs it; keeps it out of every CLI start

    seed = _resolve_seed(args.seed)
    results = []
    for scheme in args.schemes:
        for rho in args.rho:
            try:
                r = bench.bench_scheme(scheme, rho, count=args.count, repeat=args.repeat, seed=seed)
            except bench.UnsupportedConfig:
                print(f"warning: skipping {scheme} at rho={rho} (unsupported)", file=sys.stderr)
                continue
            results.append(r)
            for line in bench.metric_lines(r):
                print(line)
    print(bench.format_table(results))
    return EXIT_OK


def cmd_analyze(args) -> int:
    from decimal import Decimal  # loaded with analysis anyway

    from . import analysis  # only this command needs it; keeps it out of every CLI start

    if args.M < 1:
        print(f"error: --M must be positive, got {args.M}", file=sys.stderr)
        return EXIT_PARAMS
    cts = _read_ints(args.infile)
    if not cts:
        print("error: empty ciphertext sample", file=sys.stderr)
        return EXIT_DATA
    sample = analysis.SortedSample(tuple(sorted(cts)), args.M)
    n = sample.n
    k_hat = analysis.report_value(analysis.estimate_k(sample))
    if args.challenge is not None:
        try:
            m_hat = analysis.report_value(analysis.window_attack(args.challenge, sample).m_hat)
        except ZeroDivisionError:
            print("error: sample maximum is 0, so no challenge estimate", file=sys.stderr)
            return EXIT_DATA
    print(f"metric=k_hat value={analysis.report_text(k_hat)} band=0")
    print(
        f"metric=leakage_bits value={analysis.leakage_bits(n):.4f} "
        f"band={analysis.LEAKAGE_BAND_BITS}"
    )
    if args.challenge is not None:
        print(f"metric=m_hat value={analysis.report_text(m_hat)} band=0")
        print(f"metric=radius_fail value={analysis.report_text(m_hat / (2 * n))} band=0")
        ln2 = math.log(2) if isinstance(m_hat, float) else Decimal(2).ln()
        print(f"metric=radius_succeed value={analysis.report_text(m_hat * ln2 / n)} band=0")
    if args.bruteforce:
        k_min, k_max = args.bruteforce
        candidates = analysis.bruteforce_gacd(cts, k_min, k_max)
        print(f"metric=bruteforce_candidates value={len(candidates)} band=0")
        for k in candidates:
            print(f"candidate_k={k}")
    return EXIT_OK


def _k_range(text):
    """--bruteforce value: k_min..k_max, two decimal integers."""
    lo, sep, hi = text.partition("..")
    if not (sep and lo.isdecimal() and hi.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected k_min..k_max, got {text!r}")
    return int(lo), int(hi)


def _positive_int(text):
    """--count and --repeat value: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="acdope", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key file")
    kg.add_argument("--scheme", choices=SCHEMES, required=True)
    kg.add_argument("--M", type=int)
    kg.add_argument("--rho", type=int, help="plaintext bit length; M = 2^rho")
    kg.add_argument("--lambda", dest="lam", type=int)
    kg.add_argument("--N", type=int, help="range bound for opf schemes (default M^2)")
    kg.add_argument("--n-hint", type=int)
    kg.add_argument("--seed", help="hex seed (default: system entropy)")
    kg.add_argument("--out", required=True)
    kg.set_defaults(func=cmd_keygen)

    enc = sub.add_parser("encrypt", help="bulk encrypt newline-separated decimals")
    enc.add_argument("--key", required=True)
    source = enc.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile")
    source.add_argument("--random", type=int, help="generate this many random plaintexts")
    enc.add_argument("--seed")
    enc.add_argument("--out", required=True)
    enc.set_defaults(func=cmd_encrypt)

    dec = sub.add_parser("decrypt", help="bulk decrypt")
    dec.add_argument("--key", required=True)
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", required=True)
    dec.set_defaults(func=cmd_decrypt)

    sv = sub.add_parser("sort-verify", help="sort ciphertexts, decrypt, verify order")
    sv.add_argument("--key", required=True)
    sv.add_argument("--in", dest="infile", required=True)
    sv.add_argument("--plain", help="plaintext sidecar for cross-check")
    sv.set_defaults(func=cmd_sort_verify)

    bn = sub.add_parser("bench", help="timing comparison across schemes")
    bn.add_argument("--schemes", nargs="+", choices=SCHEMES, default=list(SCHEMES))
    bn.add_argument("--rho", nargs="+", type=int, default=[7, 15, 31, 63, 127])
    bn.add_argument("--count", type=_positive_int, default=10_000)
    bn.add_argument("--repeat", type=_positive_int, default=5)
    bn.add_argument("--seed")
    bn.set_defaults(func=cmd_bench)

    an = sub.add_parser("analyze", help="ciphertext-only estimators")
    an.add_argument("--in", dest="infile", required=True)
    an.add_argument("--M", type=int, required=True)
    an.add_argument("--challenge", type=int)
    an.add_argument("--bruteforce", type=_k_range, help="k_min..k_max candidate range")
    an.set_defaults(func=cmd_analyze)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParameterError, OSError) as exc:  # bad parameters; key, input or output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # argparse, _resolve_seed, _read_ints
        return int(exc.code)


if __name__ == "__main__":
    sys.exit(main())
