"""A fixed reference computation that measures how fast the core runs right now.

On a shared host the same pass can take 1.0 s or 1.9 s depending on what
the neighbours do, and slow spells last from a fraction of a second to
minutes (measured on the host in README.md).  The benchmark therefore
runs a short slice of this reference loop before every operation and
after the last one, and rescales each operation's wall time by the speed
the slices on either side of it measured.

The loop is the benchmark's own explicit flux-difference step with a
dense convolution, at the grid size of the workload it sits beside, so
it stresses the core the way that workload does.  It never calls
fracflux: a change to the program cannot change the reference.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal duration of one slice.  Times are rescaled to a core that runs
# one slice in exactly this long; each workload's slice length is chosen
# so that this is about what a slice takes on an idle core of the host
# the README describes.
SLICE_S = 0.003

# Set-up is import work: interpreter-bound, like the small-grid loop, for
# every workload alike.
SETUP_REFERENCE = (100, 270)


class Reference:
    def __init__(self, n: int, steps: int):
        self.n = n
        self.steps = steps
        j = np.arange(n + 1)
        self.w = 1.0 / (1.0 + j) ** 1.5
        self.u0 = np.sin(np.pi * j / n) + 1.0

    def slice(self) -> float:
        """Run one slice; return its wall time."""
        t = time.perf_counter()
        u = self.u0.copy()
        n = self.n
        for _ in range(self.steps):
            q = np.convolve(self.w, u[:-1] - u[1:])[:n]
            nxt = np.empty_like(u)
            nxt[1:-1] = u[1:-1] + 1e-3 * (q[:-1] - q[1:])
            nxt[0] = u[0] - 2e-3 * q[0]
            nxt[-1] = u[-1] + 2e-3 * q[-1]
            float(np.abs(nxt - u).max())
            u = nxt
        return time.perf_counter() - t


def rescaled(op_times: list[float], slices: list[float]) -> float:
    """Sum of operation times, each rescaled by the slices either side of it.

    ``slices`` has one entry more than ``op_times``: slice k ran just
    before operation k, and the last one after the last operation.
    """
    return sum(2.0 * SLICE_S * t / (before + after)
               for t, before, after in zip(op_times, slices, slices[1:]))
