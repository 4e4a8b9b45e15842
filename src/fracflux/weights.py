"""Shifted Grunwald weight sequences for one-sided fractional-difference fluxes.

Every non-local flux law in this package is assembled from two related
weight sequences.  The raw coefficients follow the one-term recurrence

    g_0 = 1,        g_j = (j - 1 - alpha) / j * g_{j-1},

so g_1 = -alpha and every later coefficient stays non-positive for
0 < alpha <= 1.  The cumulative weights

    W_j = dx**(1 - alpha) * (g_0 + g_1 + ... + g_j)

are non-negative and non-increasing in j; they are the memory kernel that
turns a stack of local gradients into a one-sided fractional derivative.
At alpha = 1 both sequences degenerate, g = (1, -1, 0, ...) and
W = (1, 0, 0, ...), which collapses every flux law built on them to the
plain local gradient.

:func:`build_table` caches one :class:`GrunwaldTable` per (alpha, dx, n).
A table holds O(n) data, W and, on the FFT route, its transform, and
nothing else.  The memory sum and the solver's step operators are taken
from those arrays directly: no n x n matrix is built from a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Smallest face count whose memory sum goes through the FFT; below it the
# sum is one direct sum with the weights, np.convolve.  It is also where
# solver.run stops taking a step as one product with its face operator F
# and calls face_fluxes every step instead.  A fixed constant, not a config
# key, so the kernel (and hence every output bit) is a function of n alone.
# Direct sum / FFT product per call on a 2-vCPU x86 host, numpy 2.4 with
# one OpenBLAS thread, best of 40 interleaved rounds, lowest to highest of
# three such runs: 18-23 / 20-22 us at n = 350, 23-25 / 21-22 us at 399,
# 21-27 / 20-23 us at 400, 26-30 / 21-22 us at 450, 35-38 / 21-23 us at
# 511.  The two meet between 350 and 400, inside the spread of the direct
# sum's own time, which moves by up to a quarter with heap alignment.  The
# constant stays at 400: moving it would move routes and bits.
FFT_MIN_N = 400

# How many weight tables build_table keeps.  A table holds O(n) doubles,
# its weights and, from FFT_MIN_N faces up, their transform: about 0.1 MB
# at n = 4000.  An unbounded cache would still grow with every order a
# sweep visits.
TABLE_CACHE_SIZE = 32


@dataclass(frozen=True, eq=False)
class GrunwaldTable:
    """Immutable weight table for one (alpha, dx, n) combination.

    The arrays are marked read-only so a cached table can be shared across
    concurrent readers without copying.  A table hashes and compares by
    identity, so it can key what is built from it.  A table holds O(n)
    data: the cumulative weights ``w`` and, from :data:`FFT_MIN_N` faces
    up, ``w_hat``, ``rfft(W_0..W_{n-1}, L)`` with L = 2**ceil(log2(2n - 1)),
    long enough that the circular convolution it serves does not wrap into
    the first n faces; below :data:`FFT_MIN_N` ``w_hat`` is None.  A table
    has no other state: nothing is built on it later.
    """

    alpha: float
    dx: float
    w: np.ndarray  # cumulative weights W_0..W_n, units of dx**(1 - alpha)
    w_hat: np.ndarray | None  # rfft of W_0..W_{n-1}, length L/2 + 1, from FFT_MIN_N up

    @property
    def n(self) -> int:
        return self.w.size - 1


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def build_table(alpha: float, dx: float, n: int) -> GrunwaldTable:
    """Build and cache the weight table with the cumulative weights W_0..W_n.

    The recurrence and the cumulative sums run in the widest native float
    available (80-bit extended on x86) before rounding to float64: the
    partial sums decay to zero through near-cancelling terms and benefit
    from the extra headroom.  Flux evaluation never recomputes weights;
    one table per (alpha, dx, n) is built here and reused as it is.  The
    cache keeps the :data:`TABLE_CACHE_SIZE` most recently used tables, so a
    long sweep over orders holds bounded memory.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (np.isfinite(dx) and dx > 0.0):
        raise ValueError(f"dx must be positive and finite, got {dx}")
    if n < 1:
        raise ValueError(f"need at least one interior face, got n={n}")

    a = np.longdouble(alpha)
    j = np.arange(1, n + 1, dtype=np.longdouble)
    g_ext = np.empty(n + 1, dtype=np.longdouble)
    g_ext[0] = 1.0
    np.cumprod((j - 1.0 - a) / j, out=g_ext[1:])
    scale = np.longdouble(dx) ** (1.0 - a)
    w = (scale * np.cumsum(g_ext)).astype(np.float64)
    w.flags.writeable = False
    w_hat = None
    if n >= FFT_MIN_N:
        w_hat = np.fft.rfft(w[:n], 1 << (2 * n - 2).bit_length())
        w_hat.flags.writeable = False
    return GrunwaldTable(alpha=float(alpha), dx=float(dx), w=w, w_hat=w_hat)
