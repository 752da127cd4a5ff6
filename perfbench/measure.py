"""End-to-end (untraced) and per-layer (traced) measurement of one workload."""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

import acdope
import hostspeed
import workloads
from tracing import Tracer
from workloads import ROOT

OUT = ROOT / ".perfbench_out"

#: Untimed warm-up calls before the query latencies are sampled.
QUERY_WARMUP = 10
#: cli.import_s takes the median of this many children of each kind.
IMPORT_REPEATS = 5
#: Set-ups timed in an untraced run: one before the first round, then one
#: in each later round until there are this many.
SETUPS = 5
#: Rounds an untraced run makes even when its budget is used up first.
MIN_ROUNDS = 3
#: Longest stretch of query calls scaled by one pair of reference samples.
STRETCH_S = 0.25
#: Traced set-ups; the per-layer metrics sum over them and one traced pass.
TRACED_SETUPS = 3
#: Percentiles a tail may be reported at; the tail is the highest one that
#: leaves at least TAIL_BEYOND samples above it.
PERCENTILES = (90, 99, 99.9, 99.99)
TAIL_BEYOND = 10


def percentile(sorted_vals, p):
    """Nearest-rank percentile."""
    return sorted_vals[max(math.ceil(p / 100 * len(sorted_vals)) - 1, 0)]


def tail_percentile(n):
    best = None
    for p in PERCENTILES:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            best = p
    return best


def latency_stats(samples):
    """(p50, tail, tail label).  With too few samples for any percentile the
    tail is the largest sample; with none (every call failed) both are 0."""
    if not samples:
        return 0.0, 0.0, "none"
    s = sorted(samples)
    p = tail_percentile(len(s))
    return percentile(s, 50), percentile(s, p) if p else s[-1], f"p{p}" if p else "max"


class QuerySampler:
    """Times single-value encrypt and decrypt calls with a long-lived key.
    The calls run in chunks between rounds, each chunk as many as keep the
    share of queries done equal to the share of the run's budget used, so
    the samples spread over the whole run.  Each latency is scaled by the
    host's slowdown over its stretch of calls, at most STRETCH_S long."""

    def __init__(self, wl, checks, clock, t_start, seconds):
        self.wl, self.checks, self.clock = wl, checks, clock
        self.t_start, self.seconds = t_start, seconds
        self.enc, self.dec = wl.query_ops()
        self.done = 0
        self.enc_us, self.dec_us = [], []
        for m in wl.queries[:QUERY_WARMUP]:
            c = self._timed(self.enc, m, [])
            if c is not None:
                self._timed(self.dec, c, [])

    def chunk(self, share=None):
        if share is None:
            share = min((perf_counter() - self.t_start) / self.seconds, 1.0)
        end = math.ceil(len(self.wl.queries) * share)
        plain, self.done = self.wl.queries[self.done:end], max(self.done, end)
        self.clock.mark()
        cts = self._scaled(self.enc, plain, self.enc_us)
        ok = [(m, c) for m, c in zip(plain, cts) if c is not None]
        out = self._scaled(self.dec, [c for _, c in ok], self.dec_us)
        failed, unexplained = self.wl.round_trip_failures(
            [m for m, _ in ok], out, [c for _, c in ok])
        errors = 2 * (len(plain) - len(ok))  # encrypt raised: no decrypt either
        self.checks.add(2 * len(plain), failed + errors, unexplained + errors)

    def _scaled(self, fn, values, samples):
        results, stretch, t0 = [], [], perf_counter()
        for i, v in enumerate(values):
            results.append(self._timed(fn, v, stretch))
            if perf_counter() - t0 >= STRETCH_S or i == len(values) - 1:
                f = self.clock.factor()
                samples.extend(x / f for x in stretch)
                stretch, t0 = [], perf_counter()
        return results

    @staticmethod
    def _timed(fn, value, samples):
        """One timed call; None if it raised (every acdope error is a
        ValueError), which is a failed operation with no latency sample."""
        t0 = perf_counter_ns()
        try:
            result = fn(value)
        except ValueError:
            return None
        samples.append((perf_counter_ns() - t0) / 1e3)
        return result


def order_violations(plain, cts):
    """Encrypt ops whose ciphertext is below that of a smaller plaintext."""
    order = sorted(range(len(plain)), key=plain.__getitem__)
    bad, below, i = 0, None, 0  # below: largest ciphertext of smaller plaintexts
    while i < len(order):
        j = i
        while j < len(order) and plain[order[j]] == plain[order[i]]:
            j += 1
        group = [cts[k] for k in order[i:j]]
        if below is not None:
            bad += sum(1 for c in group if c < below)
        below = max(group) if below is None else max(below, *group)
        i = j
    return bad


def check_rep(wl, enc, sv, dec, checks):
    """Count every operation of one pipeline pass; return the ciphertexts."""
    n, plain = wl.n, wl.plain
    cts = wl.ciphertexts() if enc.ok else None
    if cts is None or len(cts) != n:
        checks.add(n, n)
        cts = None
    else:
        checks.add(n, order_violations(plain, cts))
    checks.add(n, 0 if sv.ok else n)
    out = wl.decrypted() if dec.ok else None
    if out is None or cts is None or len(out) != n:
        checks.add(n, n)
    else:
        failed, unexplained = wl.round_trip_failures(plain, out, cts)
        checks.add(n, failed, unexplained)
    return cts


def pipeline(wl, tracer=None):
    """encrypt -> sort-verify -> decrypt once; returns the step results."""
    results = []
    for step in (wl.encrypt, wl.sort_verify, wl.decrypt):
        if tracer is not None:
            tracer.begin_batch()
        results.append(step())
        if tracer is not None:
            tracer.end_batch()
    return results


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(wl, seconds, checks, notes):
    """Rounds of set-up (until SETUPS are timed), one pipeline pass and one
    chunk of queries, while another round fits in the budget, so every kind
    of work is spread over the whole run.  The host reference is sampled between all timed pieces;
    step and set-up times are scaled by the run's mean host slowdown, query
    latencies by the slowdown over their stretch of calls."""
    t_start = perf_counter()
    clock = hostspeed.HostClock()
    setups = [wl.setup()]  # the first set-up of a checkout writes bytecode caches
    clock.mark()
    queries = QuerySampler(wl, checks, clock, t_start, seconds)
    rounds, hashes, last = [], set(), 0.0
    while len(rounds) < MIN_ROUNDS or perf_counter() - t_start + last <= seconds:
        t0 = perf_counter()
        if rounds and len(setups) < SETUPS:
            setups.append(wl.setup())
            clock.mark()
        steps = []
        for step in (wl.encrypt, wl.sort_verify, wl.decrypt):
            steps.append(step())
            clock.mark()
        cts = check_rep(wl, *steps, checks)
        hashes.add(workloads.ciphertext_sha256(cts) if cts is not None else None)
        queries.chunk()
        rounds.append([r.seconds for r in steps])
        last = perf_counter() - t0
    queries.chunk(share=1.0)
    if len(hashes) != 1:  # the same seeds must give the same ciphertexts
        checks.unexplained += 1

    if isinstance(wl, workloads.CliWorkload):
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    med = statistics.median
    slow = clock.run_factor()
    step_s = [med(r[i] for r in rounds) / slow for i in range(3)]
    pipeline_s = med(sum(r) for r in rounds)
    m = {
        "setup_s": metric(med(setups) / slow, "s"),
        "pipeline_ops_per_s": metric(wl.n * slow / pipeline_s, "1/s"),
        "encrypt_ops_per_s": metric(wl.n / step_s[0], "1/s"),
        "sort_verify_ops_per_s": metric(wl.n / step_s[1], "1/s"),
        "decrypt_ops_per_s": metric(wl.n / step_s[2], "1/s"),
    }
    for label, lat in (("encrypt", queries.enc_us), ("decrypt", queries.dec_us)):
        p50, tail, which = latency_stats(lat)
        m[f"query_{label}_us_p50"] = metric(p50, "us")
        m[f"query_{label}_us_tail"] = metric(tail, "us")
        notes.append(f"query_{label}_us_tail percentile={which} samples={len(lat)}")
    m["peak_rss_mb"] = metric(rss_kb / 1024, "MB")
    m["correct_ops_frac"] = metric(1 - checks.failed / checks.attempted, "ratio")
    notes.append(f"rounds={len(rounds)} setups={len(setups)} batch={wl.n}")
    notes.append(f"host_slowdown={slow:.4f} reference_samples={len(clock.samples)} "
                 f"unscaled_pipeline_ops_per_s={wl.n / pipeline_s:.6g} "
                 f"unscaled_setup_s={med(setups):.6g}")
    notes.append(f"failed_ops_frac={checks.failed / checks.attempted}")
    notes.append(f"ciphertext_sha256={next(iter(hashes))}")
    return m


def import_seconds(env):
    """Median wall time of a child that imports acdope.cli, minus that of a
    bare interpreter start."""
    def child(code):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return perf_counter() - t0

    bare = statistics.median(child("pass") for _ in range(IMPORT_REPEATS))
    full = statistics.median(child("import acdope.cli") for _ in range(IMPORT_REPEATS))
    return full - bare


def timed_pass(wl, tracer=None):
    """One pipeline pass and its total seconds, with the given wrappers
    installed for the pass only."""
    if tracer is not None:
        tracer.install_layers(acdope)
    try:
        steps = pipeline(wl, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return steps, sum(r.seconds for r in steps)


def run_traced(wl, seconds, checks, notes):
    t_start = perf_counter()
    import_s = import_seconds(workloads.child_env())
    wl.setup()
    steps, untraced_s = timed_pass(wl)
    reference = check_rep(wl, *steps, checks)

    # The per-layer metrics: traced set-ups, then one traced pass.
    tracer = Tracer()
    tracer.install_layers(acdope)
    try:
        for _ in range(TRACED_SETUPS):
            wl.setup()
    finally:
        tracer.uninstall()
    layered, traced_s = timed_pass(wl, tracer)

    def check_same(steps):  # the wrappers must not change outputs
        if check_rep(wl, *steps, checks) != reference or reference is None:
            checks.unexplained += 1

    check_same(layered)
    # The overhead: passes alternate without and with wrappers (fresh ones,
    # so the per-layer metrics above stay one pass) while the budget lasts,
    # ending without.  Each traced pass is compared with the mean of the
    # untraced passes on either side of it, so that both see the same host.
    untraced, traced, last = [untraced_s], [traced_s], 0.0
    while len(untraced) <= len(traced) or perf_counter() - t_start + 2 * last <= seconds:
        with_wrappers = len(untraced) > len(traced)
        steps, last = timed_pass(wl, Tracer() if with_wrappers else None)
        check_same(steps)
        (traced if with_wrappers else untraced).append(last)
    overhead = statistics.median(
        t / ((u0 + u1) / 2) for t, u0, u1 in zip(traced, untraced, untraced[1:]))

    sort_s = 0.0
    if layered[1].output and " sort " in layered[1].output:
        sort_s = float(layered[1].output.rsplit(" sort ", 1)[1].split()[0]) / 1e3
    m = {name: metric(v, unit) for name, (v, unit) in tracer.layer_metrics().items()}
    m["cli.import_s"] = metric(import_s, "s")
    m["cli.sort_s"] = metric(sort_s, "s")
    m["trace.pipeline_ops_per_s"] = metric(wl.n / statistics.median(traced), "1/s")
    m["trace.untraced_pipeline_ops_per_s"] = metric(
        wl.n / statistics.median(untraced), "1/s")
    m["trace.overhead_x"] = metric(overhead, "ratio")
    notes.append(f"overhead_passes untraced={len(untraced)} traced={len(traced)}")
    if reference is not None:
        notes.append(f"ciphertext_sha256={workloads.ciphertext_sha256(reference)}")
    return m
