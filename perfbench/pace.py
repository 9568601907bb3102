"""Reference pace: converts wall time on a shared core into steady seconds.

This benchmark runs on one core of a shared host, and that core's speed
drifts with the neighbours' load.  On a 2-core VM the median honest claim
took 0.43 s in one 12-second window and 0.74 s in another a minute later,
with the same inputs, and within one run claims alternated between about
0.40 s and 0.70 s in spells of seconds: wall time measured the neighbours
more than the program.

So the benchmark also times a fixed reference loop, which calls only the
standard library and numpy (never fedzkp), on the same core, between the
measured operations.  An operation's paced time is its wall time scaled
by ``REFERENCE_S`` over the mean of the loops just before and just after
it:

    paced = wall * REFERENCE_S / mean(loop before, loop after)

It reads in seconds on a core that runs the loop in ``REFERENCE_S``.  A
change to fedzkp moves the operations and not the loop, so it shows in
full; a slower spell moves both and cancels out.  The loop mixes bit
packing, hashing, JSON and interpreted Python.  Over six 20-second claim
runs on different seeds on that VM, the spread of the median latency
(interquartile range over median) was 15% in wall time and 7% paced.
Pacing a whole run by the median of its loops did worse (11%), and so
did a loop weighted towards uint8 matrix products like the claim's own
(8% paced per session, 13% per run).

Training is paced differently.  One call lasts about ten seconds and
streams a 32 MB float64 matrix through matrix-vector products, so loops
before and after it say little about its pace.  A side thread on the
same core times a streaming loop (``_stream``: a product with a 16 MB
matrix, a column gather, small dense products) by its thread CPU time
every ``STREAM_EVERY_S`` during the call, and the call is scaled by
``STREAM_REFERENCE_S`` over the median of those.
The run record keeps the wall times beside the paced ones.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import threading
import time

import numpy as np

# Nominal time of one reference loop: about its median in a quiet spell on
# the 2-core VM the bounds were set on (7.5 ms; 11.6 ms in busy spells).
# A constant, so paced times from two commits compare directly.
REFERENCE_S = 0.0075
# The same for the streaming loop, which takes 9.6 ms fastest, 10.4 ms median.
STREAM_REFERENCE_S = 0.010
STREAM_EVERY_S = 0.5  # the side thread's share of the core stays near 2%


class Pace:
    """The reference loops and their timings."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._bits = rng.integers(0, 2, (1536, 800), dtype=np.uint8)
        self._blob = rng.bytes(1 << 20)
        self._doc = {"round": 1, "items": [format(i * 2654435761 % 2**32, "08x")
                                           for i in range(18000)]}
        self._mat = rng.standard_normal((2048, 1024))
        self._vec = rng.standard_normal(2048)
        self._small = rng.standard_normal((32, 64)), rng.standard_normal((64, 1024))
        self.samples: list = []
        self.stream_samples: list = []

    def _loop(self) -> int:
        acc = 0
        for row in np.packbits(self._bits, axis=1):
            acc ^= int(np.bitwise_xor.reduce(row))
        acc ^= hashlib.sha256(self._blob).digest()[0]
        acc ^= len(json.loads(json.dumps(self._doc))["items"])
        for i in range(36000):
            acc = (acc * 31 + i) & 0xFFFF
        return acc

    def _stream(self) -> float:
        u = self._vec @ self._mat
        acc = float(self._mat[:, u > 0].sum())
        a, b = self._small
        for _ in range(8):
            acc += float((a @ b)[0, 0])
        return acc

    def sample(self) -> float:
        """Time one reference loop now; returns its wall seconds.

        A first, untimed loop refills the caches the measured work evicted,
        so the timed one reads the core's pace, not the program's cache use.
        """
        self._loop()
        t0 = time.perf_counter()
        self._loop()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from wall to paced seconds for work between two loop samples."""
        return REFERENCE_S / ((before + after) / 2)

    def run_streaming(self, fn):
        """(fn(), its wall seconds, its paced seconds), the streaming loop
        timed on a side thread meanwhile.

        The first loop starts at once, so even a short call gets a sample.
        Thread CPU time leaves out the time the call holds the core.
        """
        first = len(self.stream_samples)
        stop = threading.Event()

        def sampler():
            while True:
                t0 = time.thread_time()
                self._stream()
                self.stream_samples.append(time.thread_time() - t0)
                if stop.wait(STREAM_EVERY_S):
                    return

        thread = threading.Thread(target=sampler, name="pace", daemon=True)
        thread.start()
        try:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        finally:
            stop.set()
            thread.join()
        pace = statistics.median(self.stream_samples[first:])
        return result, wall, wall * STREAM_REFERENCE_S / pace

    def summary(self) -> dict:
        out = {"reference_s": REFERENCE_S, "stream_reference_s": STREAM_REFERENCE_S}
        for name, s in (("loop", self.samples), ("stream", self.stream_samples)):
            out[f"{name}_samples"] = len(s)
            out[f"{name}_median_s"] = statistics.median(s) if s else None
            out[f"{name}_min_s"] = min(s) if s else None
            out[f"{name}_max_s"] = max(s) if s else None
        return out
