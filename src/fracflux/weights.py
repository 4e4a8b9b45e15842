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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Smallest face count whose memory sum goes through the FFT.  A fixed
# constant, not a config key, so the kernel (and hence every output bit)
# is a function of n alone.  Direct summation / FFT per call on a 2-vCPU
# x86 host with numpy 2.4: 15.6 / 25.0 us at n = 256, 33.6 / 31.4 us at
# 400, 50.0 / 27.5 us at 512, 162 / 50 us at 1000.  512 sits just above
# the crossover and keeps every n = 100 and n = 200 run on the direct
# route.
FFT_MIN_N = 512


@dataclass(frozen=True)
class GrunwaldTable:
    """Immutable weight table for one (alpha, dx, n) combination.

    The arrays are marked read-only so a cached table can be shared across
    concurrent readers without copying.  ``w_hat`` is ``rfft(W_0..W_{n-1}, L)``
    with L = 2**ceil(log2(2n - 1)), long enough that the circular
    convolution it serves does not wrap into the first n faces; it is None
    below :data:`FFT_MIN_N` faces.
    """

    alpha: float
    dx: float
    g: np.ndarray  # raw coefficients g_0..g_n, dimensionless
    w: np.ndarray  # cumulative weights W_0..W_n, units of dx**(1 - alpha)
    w_hat: np.ndarray | None  # rfft of W_0..W_{n-1}, length L/2 + 1

    @property
    def n(self) -> int:
        return self.g.size - 1


@lru_cache(maxsize=None)
def build_table(alpha: float, dx: float, n: int) -> GrunwaldTable:
    """Build and cache the weight table with entries g_0..g_n and W_0..W_n.

    The recurrence and the cumulative sums run in the widest native float
    available (80-bit extended on x86) before rounding to float64: the
    partial sums decay to zero through near-cancelling terms and benefit
    from the extra headroom.  Flux evaluation never recomputes weights;
    one table per (alpha, dx, n) is built here and reused, weight
    transform included.
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
    w_ext = scale * np.cumsum(g_ext)

    g = g_ext.astype(np.float64)
    w = w_ext.astype(np.float64)
    g.flags.writeable = False
    w.flags.writeable = False
    w_hat = None
    if n >= FFT_MIN_N:
        w_hat = np.fft.rfft(w[:n], 1 << (2 * n - 2).bit_length())
        w_hat.flags.writeable = False
    return GrunwaldTable(alpha=float(alpha), dx=float(dx), g=g, w=w, w_hat=w_hat)
