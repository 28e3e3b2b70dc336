"""Reference probes: fixed work, timed between a workload's steps, that tells
how fast the host runs at that moment.

The benchmark runs on a few cores of a shared host.  Other work on that host
slows the same code by up to about 2x, in phases that last from seconds to
minutes, so a raw wall time says as much about the neighbours as about the
library.  A probe is a fixed piece of work in this file; it never changes with
the library.  :class:`Clock` runs the workload's probe before every step of a
repetition and once after the last one, and reports the repetition's time
scaled to a host on which the probe takes ``reference_s``::

    reference time = measured time * reference_s / mean probe time

The scaling cancels the host's speed only as far as the probe slows down
like the workload does, so each workload uses the probe whose work resembles
its own (README.md gives the measurements).  Raw times stay in the manifest.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_RNG = np.random.default_rng(20150623)
_SMALL_A, _SMALL_B = _RNG.random(12), _RNG.random(12)
_SMALL_IDX = np.arange(12)[::-1].copy()
_MID_A, _MID_B = _RNG.random(6561), _RNG.random(6561)
_MID_IDX = _RNG.permutation(6561)
_LARGE = _RNG.random(100_000)
_MATRIX = _RNG.random((120, 120))


def _array_ops(a, b, idx, rounds):
    """Elementwise, gather and reduction calls of the kind the library makes."""
    total = 0.0
    for _ in range(rounds):
        c = np.maximum(a, b) ** 1.5
        c = np.where(c > 0.5, c, 0.0)
        total += float(np.sum(c[idx]) + np.dot(a, b))
        np.cumsum(c)
        np.argmax(c)
        np.concatenate([a, b])
        total += float(np.abs(a - b).max())
    return total


def mixed_work():
    """Interpreted Python, then NumPy calls on 12- and 6561-element arrays."""
    table = {}
    total = 0
    for i in range(25_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + key % 7
    total += _array_ops(_SMALL_A, _SMALL_B, _SMALL_IDX, 450)
    total += _array_ops(_MID_A, _MID_B, _MID_IDX, 65)
    return total


def large_work():
    """NumPy calls on 10^5-element arrays and a 120 x 120 matrix product."""
    total = 0.0
    for _ in range(30):
        total += float(np.sort(_LARGE)[-1] + _LARGE @ _LARGE)
        total += float(np.maximum.accumulate(_LARGE)[-1])
        total += float((_MATRIX @ _MATRIX).sum() + np.exp(_LARGE).sum())
    return total


@dataclass(frozen=True)
class Probe:
    name: str
    work: Callable[[], object]
    reference_s: float   # the probe's time on a 2-vCPU Xeon VM in a quiet phase

    def __call__(self) -> float:
        """Run the probe once; return its wall time in seconds."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


MIXED = Probe("mixed", mixed_work, 0.020)
LARGE = Probe("large", large_work, 0.060)


class Clock:
    """Times the steps of one repetition, with a probe run around each step."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.seconds = 0.0   # time inside steps
        self.probes = []     # probe times, one before each step and one after

    @contextlib.contextmanager
    def step(self):
        self.probes.append(self.probe())
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start

    def close(self):
        """Probe once more after the last step, so every step is bracketed."""
        self.probes.append(self.probe())

    @property
    def reference_seconds(self) -> float:
        """The steps' time scaled to a host on which the probe takes reference_s."""
        return self.seconds * self.probe.reference_s / statistics.fmean(self.probes)
