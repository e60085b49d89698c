"""Timing and output-check bookkeeping shared by the three workloads."""

import contextlib
import io
import statistics
import time
from collections import defaultdict

import numpy as np


def subseed(seed, *path):
    """Independent integer seed for one input family of a workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Clock:
    """Per-phase samples of (seconds, units, key); tags tracer spans with the phase.

    ``key`` names the input a sample ran on (a slice of the workload's inputs),
    so repetitions of the same work can be compared with each other.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)

    def record(self, phase, seconds, units, key=None):
        self.samples[phase].append((seconds, units, key))

    @contextlib.contextmanager
    def timed(self, phase, key=None):
        """Time the block as one sample of ``phase``; units set on the yielded box."""
        if self.tracer is not None:
            self.tracer.phase = phase
        box = {"units": 1}
        start = time.perf_counter()
        yield box
        self.record(phase, time.perf_counter() - start, box["units"], key)

    def upper_quartile(self, phase):
        """Seconds per unit of the phase's inputs, each at the upper quartile
        of its repetitions."""
        reps = defaultdict(list)
        for s, u, key in self.samples[phase]:
            reps[key].append((s, u))
        seconds = units = 0.0
        for runs in reps.values():
            seconds += float(np.quantile([s for s, _ in runs], 0.75))
            units += statistics.median(u for _, u in runs)
        return seconds / units

    def per_unit(self, phase):
        """Seconds per unit, one value per sample."""
        return [s / u for s, u, _ in self.samples[phase]]

    def rate(self, phase):
        """Median units per second over the phase's samples."""
        return statistics.median(u / s for s, u, _ in self.samples[phase])


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def ops(self, oks, what):
        for ok in oks:
            self.op(bool(ok), what)


def quiet(fn, *args, **kwargs):
    """Call ``fn`` with its standard output discarded (CLI progress lines)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)
