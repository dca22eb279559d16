"""Times calls in reference seconds, which do not move with the machine's speed.

The benchmark runs on shared virtual machines whose speed swings by 20-50%
within a second and drifts by 10-30% over minutes, with other tenants' load.
A wall-clock time alone then measures the machine as much as the program.

So every timed call is paired with a fixed reference workload, run in short
chunks: one right before the call, one right after, and one every
``PERIOD_S`` during the call from a ``SIGALRM`` handler. The chunks see the
same machine states as the call. The call's own time is its wall time minus
the time spent in the handler, and it is reported as

    own time * REFERENCE_CHUNK_S / mean chunk time of the call,

the time the call would take on a machine that runs a chunk in
``REFERENCE_CHUNK_S``. Within one process this cuts the spread of the
trains-narrow search from about 0.2 to about 0.04.

A call that waits on other processes (the cluster search) gets no chunks
during it, since they would take processor time from those processes, and
the two around it are too few to pair with. Its own time is scaled instead
by the mean of every chunk of the run (``run_scale``), which follows the
slow drift but not the fast swings.

The chunk is pure Python plus a little numpy, shaped like the program's own
work: sorting records by nested tuple keys, integer hashing over bytes,
dict and set upkeep, splitting text lines, and boolean array algebra. It
never calls the program, so no change to the program can move it. The
garbage collector is off while a chunk runs, so that the program's objects
alive in the same process do not slow the chunk down.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

import numpy as np

# Mean chunk time on a 2-vCPU Intel Xeon virtual machine (2.1 GHz),
# Python 3.11.7: a fixed constant, so that scaled times read as seconds.
REFERENCE_CHUNK_S = 0.0017
PERIOD_S = 0.04

_rng = random.Random(20241130)
_ROWS = [(_rng.randrange(50), _rng.randrange(8), _rng.randrange(1000),
          _rng.random() < 0.5) for _ in range(1000)]
_BLOBS = [bytes(_rng.randrange(256) for _ in range(12)) for _ in range(120)]
_LINES = [f"fact hasCar t{_rng.randrange(4000)} c{_rng.randrange(16000)}"
          for _ in range(1000)]
_MASKS = np.array([[_rng.random() < 0.3 for _ in range(8000)]
                   for _ in range(8)])


def _key(row):
    return (-row[0], (row[1], row[3], (row[2],)))


def _work() -> int:
    ordered = sorted(_ROWS, key=_key)
    acc = len(ordered)
    for blob in _BLOBS:
        h = 0xCBF29CE484222325
        for b in blob:
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        acc ^= h
    seen: dict[int, int] = {}
    for i, row in enumerate(ordered):
        seen.setdefault(row[2], i)
    acc += len(seen) + len({r[1] * 1000 + r[2] for r in _ROWS})
    names: dict[str, int] = {}
    for line in _LINES:
        _, _role, subj, obj = line.split()
        names.setdefault(subj, len(names))
        names.setdefault(obj, len(names))
    acc += len(names)
    for i in range(len(_MASKS) - 1):
        acc += int(np.count_nonzero(_MASKS[i] & ~_MASKS[i + 1]))
    return acc


def chunk() -> float:
    """Run the reference chunk once with the collector off; its seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Meter:
    """Times calls in reference seconds and keeps what it measured."""

    def __init__(self):
        self.chunks: list[float] = []  # every chunk time, in seconds
        self.own: dict[str, list[float]] = {}  # label: own times, in seconds

    def time(self, label: str, fn, *args, sample_during: bool = True):
        """``(seconds, fn(*args))``; the own time is kept under ``label``.

        With ``sample_during`` the seconds are reference seconds. Without
        it, no chunk runs during the call and the seconds are its own time:
        multiply them by ``run_scale()`` once the run is over."""
        chunks = [chunk()]
        in_handler = 0.0

        def handler(_signum, _frame):
            nonlocal in_handler
            t0 = time.perf_counter()
            chunks.append(chunk())
            in_handler += time.perf_counter() - t0

        if sample_during:
            previous = signal.signal(signal.SIGALRM, handler)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            if sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - t0
            if sample_during:
                signal.signal(signal.SIGALRM, previous)
        own = elapsed - in_handler
        chunks.append(chunk())
        self.chunks += chunks
        self.own.setdefault(label, []).append(own)
        if not sample_during:
            return own, result
        return own * REFERENCE_CHUNK_S / statistics.fmean(chunks), result

    def run_scale(self) -> float:
        """Reference seconds per second, over every chunk run so far."""
        return REFERENCE_CHUNK_S / statistics.fmean(self.chunks)
