"""Machine-speed reference: a fixed numpy kernel timed between instances.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x for minutes at a time, and the swing shows in CPU time as much as in
wall time. The reference kernel below is benchmark code, independent of
``cpnorm``, and resembles the program's work (small complex products, a
Hermitian eigensolve, a few Python-level steps), so it slows and speeds up
with the machine as the program does. It is timed between instances, for a
twentieth of the loop's time, and a time the benchmark measures is reported
both as measured and rescaled to the reference speed:

    adjusted = measured * NOMINAL_S[size] / (reference time of the run)

Single samples are bimodal (about 3 or 5 ms at 6x6, the mode changing every
fraction of a second), so the reference time of a run must summarise them
the way the program's latencies summarise the modes:

* ``median`` where instances are short against a mode (iterate-small,
  iterate-large): each latency falls in one mode, the class medians the
  benchmark reports follow the mode the run spent most time in, and so does
  the samples' median;
* ``mean`` (trimmed of the fastest and slowest tenth) where instances last
  seconds (certify, verify, and set-up): each latency already averages over
  the modes.

Over two sets of ten seeds per workload, with the machine's speed swinging
1.4x or more, the matching summary gave throughput spreads of 0.01-0.08 of the
median, the other one 0.06-0.17 on the same runs. A change to the program
moves the adjusted times exactly as it moves the measured ones; a change in
the machine's speed moves the reference as well and cancels.
"""

from __future__ import annotations

import time

import numpy as np

# Reference kernel per matrix size: repetitions, and its nominal time in
# seconds (a typical time of one call on an Intel Xeon 2-vCPU virtual machine
# with Python 3.11, numpy 2.4 and OpenBLAS); it only sets the scale.
REPS = {6: 60, 48: 10}
NOMINAL_S = {6: 4.2e-3, 48: 9.2e-3}
# Share of a timed loop's time spent timing the reference, between instances.
SHARE = 0.05


def _operators(size: int) -> list[np.ndarray]:
    rng = np.random.default_rng(size)
    return [rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            for _ in range(4)]


def kernel(ops: list[np.ndarray], reps: int) -> float:
    """A fixed power-iteration-like loop: X -> sqrt of sum_i A_i X A_i^*."""
    x = np.eye(ops[0].shape[0], dtype=complex)
    total = 0.0
    for _ in range(reps):
        h = sum(a @ x @ a.conj().T for a in ops)
        w, v = np.linalg.eigh((h + h.conj().T) / 2)
        w = np.sqrt(np.abs(w))
        x = (v * w) @ v.conj().T
        x /= np.trace(x).real
        total += float(w.sum())
    return total


class SpeedProbe:
    """Samples the reference kernel's time; ``summary`` is "median" or "mean"."""

    def __init__(self, size: int, summary: str):
        self.size = size
        self.summary = summary
        self.reps = REPS[size]
        self.nominal = NOMINAL_S[size]
        self.ops = _operators(size)
        self.durations: list[float] = []  # time of one kernel call
        kernel(self.ops, self.reps)       # warm-up, not recorded

    def sample(self):
        """Time one call of the kernel now."""
        t0 = time.perf_counter()
        kernel(self.ops, self.reps)
        self.durations.append(time.perf_counter() - t0)

    def keep_share(self, elapsed: float, first: int = 0):
        """Sample until the samples from index ``first`` on have taken SHARE
        of ``elapsed`` seconds, so they follow the loop's time whatever the
        instances' length."""
        while (len(self.durations) <= first
               or sum(self.durations[first:]) < SHARE * elapsed):
            self.sample()

    def factor(self, start: int = 0, stop: int | None = None,
               summary: str | None = None) -> float:
        """Nominal ÷ reference time of samples ``start:stop``."""
        samples = sorted(self.durations[start:stop])
        if (summary or self.summary) == "median":
            return self.nominal / float(np.median(samples))
        cut = len(samples) // 10
        kept = samples[cut:len(samples) - cut]
        return self.nominal / (sum(kept) / len(kept))
