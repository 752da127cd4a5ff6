"""The four benchmark workloads: inputs from the workload seed, set-up, the
three pipeline steps, query calls, and the checks on every output.

The CLI workloads drive `python3 -m acdope.cli` as one child process at a
time (or `cli.main` in-process for the traced run).  flatten-skewed calls the
library in-process, because the CLI has no flattening.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
import traceback
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import acdope.cli
import acdope.flattening
from acdope import gacd, opf
from acdope.prng import DeterministicGenerator, seed_from_material

ROOT = Path(__file__).resolve().parent.parent

# Why each workload is there; the "why" fields of BENCHMARK.json say the same.
# `queries` is the number of single-value queries of an untraced run: fewer
# than 1000, so that the tail is p90 (see perfbench/README.md).
CONFIGS = {
    # The paper's scheme at its widest setting: prng, big-integer arithmetic,
    # CLI file I/O and imports; opf, betadist and flattening are bypassed.
    "gacd-bulk": dict(scheme="gacd", rho=127, batch=100_000, queries=999),
    # Dense enough in 2^15 that the top of the bisection tree repeats across
    # plaintexts; betadist (exact and normal paths) dominates.
    "opf-beta-dense": dict(scheme="opf-beta", rho=15, batch=64, queries=150),
    # The only workload that runs flattening (Fraction-heavy), and gacd on
    # other inputs than gacd-bulk's: Zipf(1.1) plaintexts over 2^16.
    "flatten-skewed": dict(scheme="flatten", rho=16, N=1 << 40, zipf=1.1,
                           batch=25_000, queries=999),
}


def child_env():
    """Environment for CLI children: the checkout's sources, no seed override."""
    env = {k: v for k, v in os.environ.items() if k != acdope.cli.SEED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _seed_hex(workload, seed, purpose):
    """Hex seed for one purpose.  The key is the same on every run of a
    workload (seed None), so runs on different seeds measure one deployment
    and differ only in plaintexts and noise; a key's rejection-sampling
    acceptance alone moves gacd encrypt cost by up to 2x."""
    return hashlib.sha256(f"perfbench/{workload}/{seed}/{purpose}".encode()).hexdigest()


def _gen(workload, seed, purpose):
    return DeterministicGenerator(seed_from_material(bytes.fromhex(
        _seed_hex(workload, seed, purpose))))


def ciphertext_sha256(cts):
    return hashlib.sha256("".join(f"{c}\n" for c in cts).encode()).hexdigest()


def _write_ints(path, values):
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")


def _read_ints(path):
    try:
        return [int(line) for line in path.read_text(encoding="utf-8").split()]
    except (OSError, ValueError):
        return None


class StepResult:
    def __init__(self, seconds, ok, output=None):
        self.seconds, self.ok, self.output = seconds, ok, output


class Checks:
    """Attempted and failed operations.  `unexplained` counts failures that
    are not a documented property of the scheme, and makes the run incorrect;
    a round trip m -> c -> m' != m where m' also encrypts to c is a collision
    of a non-injective function (opf-uniform collapses subranges), counted as
    failed but explained."""

    def __init__(self):
        self.attempted = self.failed = self.unexplained = 0

    def add(self, attempted, failed=0, unexplained=None):
        self.attempted += attempted
        self.failed += failed
        self.unexplained += failed if unexplained is None else unexplained


class Workload:
    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        cfg = CONFIGS[name]
        self.cfg = cfg
        self.n = cfg["batch"]
        rng = random.Random(f"{name}/{seed}/plaintexts")
        self.plain = self.draw_plaintexts(rng, self.n)
        self.queries = self.draw_plaintexts(rng, cfg["queries"])

    def round_trip_failures(self, plain, decrypted, cts):
        """(failed, unexplained) over one decrypt of a batch."""
        failed = unexplained = 0
        for m, m2, c in zip(plain, decrypted, cts):
            if m2 != m:
                failed += 1
                if m2 is None or not self.is_collision(m2, c):
                    unexplained += 1
        return failed, unexplained

    def is_collision(self, m, c):
        return False


class CliWorkload(Workload):
    """gacd or opf through the acdope CLI."""

    def __init__(self, name, seed, workdir, in_process=False):
        super().__init__(name, seed, workdir)
        self.in_process = in_process
        self.key_path = workdir / "bench.key"
        self.plain_path = workdir / "plain.txt"
        self.ct_path = workdir / "ct.txt"
        self.dec_path = workdir / "dec.txt"
        _write_ints(self.plain_path, self.plain)
        self.env = child_env()
        self.key = None

    def draw_plaintexts(self, rng, count):
        return [rng.getrandbits(self.cfg["rho"]) for _ in range(count)]

    def _cli(self, argv):
        argv = [str(a) for a in argv]
        if self.in_process:
            out = io.StringIO()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    rc = acdope.cli.main(argv)
            except Exception:  # a traceback is a failed step, as in a child
                traceback.print_exc()
                rc = 1
            return StepResult(perf_counter() - t0, rc == 0, out.getvalue())
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "acdope.cli", *argv],
            env=self.env, cwd=self.workdir, capture_output=True, text=True,
        )
        return StepResult(perf_counter() - t0, proc.returncode == 0, proc.stdout)

    def setup(self):
        res = self._cli(["keygen", "--scheme", self.cfg["scheme"], "--rho", self.cfg["rho"],
                         "--seed", _seed_hex(self.name, None, "keygen"),
                         "--out", self.key_path])
        if not res.ok:
            raise RuntimeError(f"keygen failed for {self.name}")
        kind = self.cfg["scheme"]
        self.key = gacd.load_key(self.key_path) if kind == "gacd" else opf.load_key(self.key_path)
        return res.seconds

    def encrypt(self):
        return self._cli(["encrypt", "--key", self.key_path, "--in", self.plain_path,
                          "--seed", _seed_hex(self.name, self.seed, "encrypt"),
                          "--out", self.ct_path])

    def sort_verify(self):
        res = self._cli(["sort-verify", "--key", self.key_path, "--in", self.ct_path])
        res.ok = res.ok and res.output.startswith(f"ok: {self.n} ciphertexts")
        return res

    def decrypt(self):
        return self._cli(["decrypt", "--key", self.key_path, "--in", self.ct_path,
                          "--out", self.dec_path])

    def ciphertexts(self):
        return _read_ints(self.ct_path)

    def decrypted(self):
        return _read_ints(self.dec_path)

    def is_collision(self, m, c):
        return self.cfg["scheme"] != "gacd" and 0 <= m <= self.key.M and \
            opf.opf_encrypt(m, self.key) == c

    def query_ops(self):
        """Single-value calls with a long-lived key, as a query rewriter
        makes them."""
        if self.cfg["scheme"] == "gacd":
            key, gen = self.key, _gen(self.name, self.seed, "query-noise")
            return (lambda m: gacd.encrypt(m, key, gen)), (lambda c: gacd.decrypt(c, key))
        key = self.key
        return (lambda m: opf.opf_encrypt(m, key)), (lambda c: opf.opf_decrypt(c, key))


class FlattenWorkload(Workload):
    """Zipf plaintexts -> flatten -> gacd at M = N, in-process."""

    def __init__(self, name, seed, workdir, in_process=True):
        cfg = CONFIGS[name]
        M = 1 << cfg["rho"]
        # Integer frequency table of the Zipf law, most frequent value 0.
        self.counts = [int(2.0**40 / (i + 1) ** cfg["zipf"]) for i in range(M)]
        self.cum = []
        total = 0
        for c in self.counts:
            total += c
            self.cum.append(total)
        super().__init__(name, seed, workdir)
        self.model = self.key = self.cts = self.dec = None

    def draw_plaintexts(self, rng, count):
        cum, total = self.cum, self.cum[-1]
        return [bisect_right(cum, rng.randrange(total)) for _ in range(count)]

    def setup(self):
        N = self.cfg["N"]
        t0 = perf_counter()
        self.model = acdope.flattening.model_from_frequencies(self.counts, N)
        params = gacd.SchemeParams(M=N, lam=gacd.min_lambda(N))
        self.key = gacd.keygen(params, _gen(self.name, None, "keygen"))
        return perf_counter() - t0

    def encrypt(self):
        flatten, encrypt = acdope.flattening.flatten, gacd.encrypt
        model, key = self.model, self.key
        fgen = _gen(self.name, self.seed, "flatten")
        ngen = _gen(self.name, self.seed, "noise")
        t0 = perf_counter()
        try:
            self.cts = [encrypt(flatten(m, model, fgen), key, ngen) for m in self.plain]
        except ValueError:  # every acdope error is one
            self.cts = None
        return StepResult(perf_counter() - t0, self.cts is not None)

    def _open(self, c):
        return acdope.flattening.unflatten(gacd.decrypt(c, self.key), self.model)

    def sort_verify(self):
        t0 = perf_counter()
        ok = self.cts is not None
        try:
            ms = [self._open(c) for c in sorted(self.cts)] if ok else []
        except ValueError:
            ok, ms = False, []
        ok = ok and all(a <= b for a, b in zip(ms, ms[1:]))
        return StepResult(perf_counter() - t0, ok)

    def decrypt(self):
        t0 = perf_counter()
        try:
            self.dec = [self._open(c) for c in self.cts]
        except (TypeError, ValueError):  # TypeError: no ciphertexts
            self.dec = None
        return StepResult(perf_counter() - t0, self.dec is not None)

    def ciphertexts(self):
        return self.cts

    def decrypted(self):
        return self.dec

    def query_ops(self):
        model, key = self.model, self.key
        fgen = _gen(self.name, self.seed, "query-flatten")
        ngen = _gen(self.name, self.seed, "query-noise")
        return (lambda m: gacd.encrypt(acdope.flattening.flatten(m, model, fgen), key, ngen)), \
            self._open


def make(name, seed, workdir, in_process=False):
    cls = FlattenWorkload if CONFIGS[name]["scheme"] == "flatten" else CliWorkload
    return cls(name, seed, workdir, in_process)
