"""Span tracing for the per-layer run, installed from outside the package.

Each wrapped callable is replaced on its module or class with a wrapper that
times a span (name, parent) around the original call.
Every call named here is looked up through its module's globals or its
class at call time, so a wrapped attribute also catches the calls the
package makes internally.  Self time is a span's duration minus the time its
child spans cover; children of one span never overlap (one thread), so that
is the sum of their durations.

Counters that the layers do not expose (frames, clamps, rejection draws) are
derived here from the values the wrapped calls take and return.  Work done
by these hooks is excluded from every span's self time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.child_calls = Counter()  # (parent name, child name) -> calls
        self.counts = Counter()
        self._stack = []  # open spans: [child seconds, name]
        self._installed = []
        self._batch_frames = set()
        self._last_wn = None

    # -- span timing ----------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Wrapper timing a span around fn.  name is a string or a
        function of the call's arguments; after(args, kwargs, result) runs
        outside the span and outside its parent's self time."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            parent = stack[-1] if stack else None
            frame = [0.0, span_name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.calls[span_name] += 1
                self.total_s[span_name] += dur
                self.self_s[span_name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    self.child_calls[(parent[1], span_name)] += 1
            if after is not None:
                h0 = perf_counter()
                after(args, kwargs, result)
                if parent is not None:
                    parent[0] += perf_counter() - h0
            return result

        return wrapper

    def install(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- derived counters -----------------------------------------------

    def begin_batch(self):
        """Distinct frames are counted per batch (one CLI step)."""
        self._batch_frames = set()

    def end_batch(self):
        self.counts["opf.distinct_frames"] += len(self._batch_frames)
        self._batch_frames = set()

    def _record_frames(self, trace):
        for fr, _ in trace:
            self._batch_frames.add((fr.a, fr.b, fr.fa, fr.fb))
            if fr.fa == fr.fb:
                self.counts["opf.collapsed_frames"] += 1
        self.counts["opf.frames"] += len(trace)
        self.counts["opf.ops"] += 1

    def wrap_opf_op(self, owner, attr):
        """opf_encrypt/opf_decrypt: pass a trace list to see every frame,
        collapsed ones included (those never reach seed_fn)."""
        original = getattr(owner, attr)
        traced = self.wrap("opf.op", original)

        @functools.wraps(original)
        def op(v, key, trace=None):
            frames = [] if trace is None else trace
            result = traced(v, key, frames)
            h0 = perf_counter()
            self._record_frames(frames)
            if self._stack:
                self._stack[-1][0] += perf_counter() - h0
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, op)

    def _beta_done(self, args, kwargs, wn):
        self._last_wn = wn

    def _mid_done(self, args, kwargs, z):
        """A beta draw was clamped iff sample_mid returned another offset
        than the unclamped floor(y * w) of the draw it made."""
        wn, self._last_wn = self._last_wn, None
        if wn is None:
            return
        y = args[1]
        prec = args[5] if len(args) > 5 else kwargs.get("prec", 64)
        if z != (y * wn) >> prec:
            self.counts["opf.clamps"] += 1

    def install_layers(self, acdope):
        """Wrap every layer boundary the per-layer metrics name."""
        betadist, cli, flattening, gacd, opf, prng = (
            acdope.betadist, acdope.cli, acdope.flattening,
            acdope.gacd, acdope.opf, acdope.prng,
        )
        gen_cls = prng.DeterministicGenerator
        self.install(gen_cls, "bits", "prng.bits")
        self.install(gen_cls, "uniform_int", "prng.uniform_int")
        self.install(gen_cls, "uniform_fraction", "prng.uniform_fraction")

        self.install(opf, "seed_fn", "opf.seed_fn")
        self.install(opf, "init_endpoints", "opf.init_endpoints")
        self.install(opf, "sample_mid", "opf.sample_mid", after=self._mid_done)
        self.wrap_opf_op(opf, "opf_encrypt")
        self.wrap_opf_op(opf, "opf_decrypt")

        def beta_path(args):
            x, b = args[0], args[1]
            if x == 1 and b == 1:
                return "betadist.uniform"
            if x + b - 1 <= betadist.EXACT_DEGREE_LIMIT:
                return "betadist.exact"
            return "betadist.normal"

        self.install(betadist, "beta_icdf_bits", beta_path, after=self._beta_done)

        self.install(gacd, "keygen", "gacd.keygen")
        self.install(gacd, "encrypt", "gacd.encrypt")
        self.install(gacd, "decrypt", "gacd.decrypt")

        self.install(flattening, "model_from_frequencies", "flattening.model_build")
        self.install(flattening, "flatten", "flattening.flatten")
        self.install(flattening, "unflatten", "flattening.unflatten")

        self.install(cli, "cmd_encrypt", "cli.encrypt")
        self.install(cli, "cmd_sort_verify", "cli.sort_verify")
        self.install(cli, "cmd_decrypt", "cli.decrypt")

    # -- reporting ------------------------------------------------------

    def layer_metrics(self):
        c, s, t, k = self.calls, self.self_s, self.total_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def mean_total(name):
            return ratio(t[name], c[name])

        return {
            "prng.bits.calls": (c["prng.bits"], "count"),
            "prng.bits.self_s": (s["prng.bits"], "s"),
            "prng.uniform_int.calls": (c["prng.uniform_int"], "count"),
            "prng.uniform_int.self_s": (s["prng.uniform_int"], "s"),
            "prng.uniform_int.accept_ratio": (
                ratio(c["prng.uniform_int"],
                      self.child_calls[("prng.uniform_int", "prng.bits")]),
                "ratio",
            ),
            "opf.seed_fn.calls": (c["opf.seed_fn"], "count"),
            "opf.seed_fn.self_s": (s["opf.seed_fn"], "s"),
            "opf.init_endpoints.calls": (c["opf.init_endpoints"], "count"),
            "opf.init_endpoints.self_s": (s["opf.init_endpoints"], "s"),
            "opf.sample_mid.self_s": (s["opf.sample_mid"], "s"),
            "opf.op.self_s": (s["opf.op"], "s"),
            "opf.frames_per_op": (ratio(k["opf.frames"], k["opf.ops"]), "frames/op"),
            "opf.distinct_frame_ratio": (
                ratio(k["opf.distinct_frames"], k["opf.frames"]), "ratio"
            ),
            "opf.collapsed_frames": (k["opf.collapsed_frames"], "count"),
            "opf.clamps": (k["opf.clamps"], "count"),
            "betadist.exact.calls": (c["betadist.exact"], "count"),
            "betadist.exact.self_s": (s["betadist.exact"], "s"),
            "betadist.normal.calls": (c["betadist.normal"], "count"),
            "betadist.normal.self_s": (s["betadist.normal"], "s"),
            "gacd.keygen_s": (mean_total("gacd.keygen"), "s"),
            "gacd.encrypt.calls": (c["gacd.encrypt"], "count"),
            "gacd.encrypt.self_s": (s["gacd.encrypt"], "s"),
            "gacd.decrypt.calls": (c["gacd.decrypt"], "count"),
            "gacd.decrypt.self_s": (s["gacd.decrypt"], "s"),
            "flattening.model_build_s": (mean_total("flattening.model_build"), "s"),
            "flattening.flatten.calls": (c["flattening.flatten"], "count"),
            "flattening.flatten.self_s": (s["flattening.flatten"], "s"),
            "flattening.flatten.accept_ratio": (
                ratio(c["flattening.flatten"],
                      self.child_calls[("flattening.flatten", "prng.uniform_fraction")]),
                "ratio",
            ),
            "flattening.unflatten.calls": (c["flattening.unflatten"], "count"),
            "flattening.unflatten.self_s": (s["flattening.unflatten"], "s"),
            "cli.encrypt.self_s": (s["cli.encrypt"], "s"),
            "cli.sort_verify.self_s": (s["cli.sort_verify"], "s"),
            "cli.decrypt.self_s": (s["cli.decrypt"], "s"),
        }
