"""Reference-speed timing for a shared, noisy machine.

On a virtual machine whose neighbours come and go, the same work can take
20-40% longer for tens of seconds at a time. `Clock` runs a fixed reference
kernel (dict churn like the decoder's merge, FFT correlation like the
front-end, a small matmul like the conv layers) next to every timed piece of
work and rescales the work's wall time by how slow the kernel ran around it:

    reference seconds = wall seconds * REFERENCE_KERNEL_MS / kernel ms

REFERENCE_KERNEL_MS is the kernel's median on the machine the benchmark was
tuned on (2 vCPUs, OpenBLAS 0.3.31 pinned to one thread), so reference
seconds read as wall seconds there at its usual speed. The kernel does not
touch convspeech, so a change to convspeech moves the work's time and not
the divisor. Raw wall times are kept beside every rescaled one.

The rescaling only follows slowdowns that last longer than one item, so items
are kept short (a fraction of a second) and a run reports medians over many.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_KERNEL_MS = 2.0
REPEATS = 3  # kernel runs per sample; the sample is their median


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        # every array stays well under glibc's mmap threshold, so the kernel's
        # time does not depend on the allocator state the work left behind
        self._x = rng.normal(size=(8, 1000))
        self._w = rng.normal(size=(16, 8))
        self._h = np.empty((16, 1000))
        self.kernel_ms: list[float] = []   # every sample
        self.bracket_ms: list[float] = []  # per scale() call: mean of the samples around the work
        self._last = self._sample()

    def _kernel(self) -> float:
        counts: dict = {}
        for i in range(4000):
            key = (i & 63, i & 7)
            counts[key] = counts.get(key, 0.0) + i
        total = 0.0
        for _ in range(8):
            spec = np.fft.rfft(self._x, n=1024, axis=1)
            total += float(np.fft.irfft(spec * spec.conj(), n=1024, axis=1)[:, :8].sum())
            np.matmul(self._w, self._x, out=self._h)
            np.tanh(self._h, out=self._h)
            total += float(self._h.sum())
        return total

    def _sample(self) -> float:
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t0)
        ms = 1000.0 * statistics.median(runs)
        self.kernel_ms.append(ms)
        return ms

    def restart(self):
        """Take a fresh sample to stand before the next piece of work."""
        self._last = self._sample()

    def scale(self) -> float:
        """Reference factor for the work done since the previous call."""
        before, self._last = self._last, self._sample()
        self.bracket_ms.append((before + self._last) / 2.0)
        return REFERENCE_KERNEL_MS / self.bracket_ms[-1]
