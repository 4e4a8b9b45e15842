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
from numpy.lib.stride_tricks import sliding_window_view

# Smallest face count whose memory sum goes through the FFT; below it the
# sum is a dense product with the n x n matrix T(W).  A fixed constant, not
# a config key, so the kernel (and hence every output bit) is a function of
# n alone.  Dense product / FFT product / np.convolve per call on a 2-vCPU
# x86 host, numpy 2.4 with one OpenBLAS thread, best of 40 interleaved
# rounds: 3.4 / 16.8 / 5.2 us at n = 100, 8.7 / 18.9 / 9.8 us at 200,
# 21.7 / 29.1 / 23.1 us at 350, 26.6 / 23.9 / 23.6 us at 400,
# 36.9 / 23.9 / 28.6 us at 450, 78 / 30 / 46 us at 511.  The FFT product
# starts beating the dense one near 400; on each side of 400 the route
# taken is as fast as np.convolve or faster, to within the spread of
# np.convolve's own time, which moves by up to a third with heap alignment.
FFT_MIN_N = 400

# How many weight tables build_table keeps.  A table below FFT_MIN_N faces
# holds an n x n matrix (up to 1.3 MB), so an unbounded cache would grow
# with every order a sweep visits.
TABLE_CACHE_SIZE = 32


@dataclass(frozen=True)
class GrunwaldTable:
    """Immutable weight table for one (alpha, dx, n) combination.

    The arrays are marked read-only so a cached table can be shared across
    concurrent readers without copying.  Each table carries the memory
    operator T(W) in exactly one form.  Below :data:`FFT_MIN_N` faces it is
    ``toeplitz``, the C-contiguous n x n lower-triangular Toeplitz matrix
    with T[i, j] = W_{i-j} for j <= i and zeros above the diagonal.  From
    :data:`FFT_MIN_N` faces up it is ``w_hat``, ``rfft(W_0..W_{n-1}, L)``
    with L = 2**ceil(log2(2n - 1)), long enough that the circular
    convolution it serves does not wrap into the first n faces.  The other
    field is None.
    """

    alpha: float
    dx: float
    w: np.ndarray  # cumulative weights W_0..W_n, units of dx**(1 - alpha)
    toeplitz: np.ndarray | None  # T(W), n x n, below FFT_MIN_N faces
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
    one table per (alpha, dx, n) is built here and reused, memory operator
    included.  The cache keeps the :data:`TABLE_CACHE_SIZE` most recently
    used tables, so a long sweep over orders holds bounded memory.
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
    toeplitz = w_hat = None
    if n < FFT_MIN_N:
        # Row i of the windows over (0, ..., 0, W_0, ..., W_{n-1}), read
        # backwards, is W_i, ..., W_0, 0, ..., 0; the copy is the one n x n
        # allocation.
        padded = np.zeros(2 * n - 1)
        padded[n - 1:] = w[:n]
        toeplitz = sliding_window_view(padded, n)[:, ::-1].copy()
        toeplitz.flags.writeable = False
    else:
        w_hat = np.fft.rfft(w[:n], 1 << (2 * n - 2).bit_length())
        w_hat.flags.writeable = False
    return GrunwaldTable(alpha=float(alpha), dx=float(dx), w=w, toeplitz=toeplitz, w_hat=w_hat)
