"""Machine-speed reference for timing on a shared host.

On a small shared machine the same work runs up to 1.7x slower for seconds
to minutes at a time while neighbours are busy, so raw wall times from
different runs do not compare. The benchmark therefore times a fixed
reference kernel before every chunk of the program's work and rescales every
time measured in the run to the speed at which the kernel takes NOMINAL_S:

    time at reference speed = wall time * NOMINAL_S / median kernel time

One factor per run, from the median over all the run's kernel timings.
Each timing is a single run of the kernel right after the program's work,
in the same cache state the program leaves behind. Three other schemes were
tried and spread more from run to run: scaling each chunk by its own
neighbouring timings, timing bursts of back-to-back kernel runs (the warm
kernel tracks the program less well), and timing the kernel from a timer
signal inside the work.

The kernel has to slow down as much as the program does when the host is
busy. A tight numeric loop does not: the program's calls run through far
more interpreter and numpy code, which neighbours evict from the shared
caches. So the kernel is a frozen copy of the shape of a single-vector solve
(input validation, a bracketed bisection over masked powers, a frozen
dataclass of the support), plus dict and sort work in the interpreter,
small matrix products and threshold counts over a long score vector. It
never calls the program, so a change to the program cannot move it.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

# The kernel's time on the 2-vCPU Intel Xeon machine the benchmark was tuned
# on, while that ran at its quiet speed; it only sets the unit of the
# rescaled times.
NOMINAL_S = 0.005


@dataclass(frozen=True)
class _Support:
    indices: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if len(np.unique(self.indices)) != len(self.indices) or np.any(self.probs <= 0.0):
            raise ValueError("invalid support")


def _clip_pow(z, e):
    out = np.zeros_like(z)
    pos = z > 0.0
    out[pos] = z[pos] ** e
    return out


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)  # fixed: independent of the workload seed
        self.theta = rng.uniform(-8.0, 8.0, (4, 128))
        self.q = rng.uniform(0.1, 2.0, (4, 128))
        self.words = [f"w{i}" for i in range(2500)]
        self.a = rng.standard_normal((128, 64))
        self.b = rng.standard_normal((64, 200))
        self.s = rng.uniform(-1.0, 1.0, 20000)
        self.t = np.sort(rng.uniform(-1.0, 1.0, 20))
        self.samples = []

    def _solve(self):
        for theta, q in zip(self.theta, self.q):
            theta = np.asarray(theta, dtype=np.float64)
            if not np.all(np.isfinite(theta)) or np.any(q <= 0.0):
                raise ValueError("invalid input")
            j = int(np.argmax(theta))
            lo = theta[j] - ((1.0 / q[j]) ** 0.25 - 1.0) / 0.25
            hi = theta[j] - ((1.0 / q.sum()) ** 0.25 - 1.0) / 0.25
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if float((q * _clip_pow(1.0 + 0.25 * (theta - mid), 4.0)).sum()) > 1.0:
                    lo = mid
                else:
                    hi = mid
            p = q * _clip_pow(1.0 + 0.25 * (theta - lo), 4.0)
            nz = np.flatnonzero(p)
            _Support(nz, p[nz])

    def _interpreter(self):
        counts = {}
        for i, word in enumerate(self.words):
            counts[word] = counts.get(word, 0) + i
        sorted(counts.items(), key=lambda kv: kv[1] % 97)

    def _arrays(self):
        for _ in range(4):
            np.tanh(self.a @ self.b)
        for t in self.t:
            np.mean(self.s >= t)

    def sample(self):
        """Time one run of the kernel and keep the timing."""
        t0 = time.perf_counter()
        self._solve()
        self._interpreter()
        self._arrays()
        self.samples.append(time.perf_counter() - t0)

    def scale(self):
        """Factor that converts the run's wall times to reference speed."""
        return NOMINAL_S / statistics.median(self.samples)
