"""The host reference: a fixed routine that uses the standard library only,
never acdope, timed between the timed pieces of a run.

The benchmark runs on a shared host whose speed flips between two levels
about 1.6x apart, often several times a second, and at times holds one
level for tens of seconds, so a whole run can fall mostly in one speed.
The untraced run therefore samples the reference between all its timed
pieces and scales its timings by the host's slowdown, the reference's mean
time over NOMINAL_S: a step or set-up (0.4 to 2 s, many flips long) by the
mean over the whole run, a query by the mean just before and after its
stretch of calls.  A change to acdope moves the timed work and not the
reference; the host moves both.

The routine does the kinds of work acdope does: HMAC-SHA256 over big
integers (prng), modular big-integer arithmetic (gacd), Fractions
(flattening, betadist) and decimal formatting and parsing (CLI I/O).
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import random
import statistics
from fractions import Fraction
from time import perf_counter

#: Reference time on an unloaded host (seconds).  It fixes the scale of the
#: reported timings: they read as wall times on a host where the reference
#: takes this long.  Changing it rescales every timing metric; never change it
#: between a baseline and a comparison.
NOMINAL_S = 0.010

#: Runs of the routine at each sampling point.
REPEATS = 3

_KEY = b"perfbench/hostspeed"
_P = (1 << 255) - 19


def _routine():
    t0 = perf_counter()
    rng = random.Random(7)
    xs = [rng.getrandbits(128) for _ in range(2000)]
    acc = 0
    for x in xs:
        mac = hmac.new(_KEY, x.to_bytes(16, "big"), hashlib.sha256).digest()
        acc = (acc * x + int.from_bytes(mac, "big")) % _P
    back = [int(line) for line in "".join(f"{x}\n" for x in sorted(xs)).split()]
    frac = sum(Fraction(x % 997, 1 + x % 991) for x in back[:200])
    if acc < 0 or frac < 0:  # keep the work observable
        raise AssertionError
    return perf_counter() - t0


def reference_seconds():
    """One timed run of the routine.  The garbage collector is off while it
    runs: a collection would walk the benchmark's own data (its plaintext
    and ciphertext lists), which is not host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _routine()
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Reference samples taken between the timed pieces of a run."""

    def __init__(self):
        self.samples = []
        self.mark()

    def mark(self):
        """Sample the reference REPEATS times, between two pieces, after one
        untimed run: the first run after the process sat idle (waiting for
        a CLI child) reads about 10% slow."""
        reference_seconds()
        self.samples.extend(reference_seconds() for _ in range(REPEATS))

    def factor(self):
        """A short piece ended: the host's slowdown over it, the mean of
        the reference times just before and just after it ÷ NOMINAL_S."""
        self.mark()
        return statistics.fmean(self.samples[-2 * REPEATS:]) / NOMINAL_S

    def run_factor(self):
        """The host's mean slowdown over the run so far."""
        return statistics.fmean(self.samples) / NOMINAL_S
