"""Discrete face fluxes for the four interchangeable flux laws.

All laws produce fluxes at the n interior control-volume faces
x = (i + 1/2) * dx, i = 0..n-1, of a grid with n + 1 nodes on [0, 1].
Boundary faces at x = 0 and x = 1 are never evaluated here; fixed-flux
boundary values are injected by the solver instead.

Sign convention: the flux is minus the (possibly fractional) derivative
of u, and that minus sign is folded into the gradient fluxes
grad_i u = (u_i - u_{i+1}) / dx.  Every law is the one kernel

    q = kappa * (T(w) grad u + advection)

with its row of :data:`LAWS` choosing the memory kernel T(w) (the
identity for the local ``fourier`` law, else the convolution with the
cumulative weights W, a sum of the gradient fluxes at and left of the
face) and whether the apparent advection -(u_0 / dx) * W_{i+1} of
:func:`apparent_advection` is added.  ``caputo`` is the weighted sum
alone and annihilates constants.  ``rl``, the one-sided fractional
derivative of u, adds the advection term: a speed proportional to the
value at the left end.  ``parsimonious`` is ``rl`` applied to u - u(0);
that field has a zero left value and the same gradient fluxes, so the
law is exactly ``caputo`` and shares its row.

The memory sum T(w) grad u is one direct sum with the weights W,
``np.convolve``, below :data:`fracflux.weights.FFT_MIN_N` faces and a
zero-padded FFT product from there up; the two agree to round-off.  No
n x n matrix is built for it.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .weights import GrunwaldTable


class FluxKind(Enum):
    """Selector for the flux law used at control-volume faces."""

    FOURIER = "fourier"
    RIEMANN_LIOUVILLE = "rl"
    CAPUTO = "caputo"
    PARSIMONIOUS = "parsimonious"

    @classmethod
    def from_name(cls, name: str) -> "FluxKind":
        for kind in cls:
            if kind.value == name:
                return kind
        valid = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown flux law {name!r}; valid names: {valid}")


class FluxLaw(NamedTuple):
    """One row of the law table."""

    local: bool  # the memory kernel is the identity, not the weights W
    advection: bool  # adds apparent_advection(u[0], table)

    def order(self, alpha: float) -> float:
        """Order of the law's derivative: 2 if local, else 1 + alpha."""
        return 2.0 if self.local else 1.0 + alpha


LAWS = {
    FluxKind.FOURIER: FluxLaw(local=True, advection=False),
    FluxKind.RIEMANN_LIOUVILLE: FluxLaw(local=False, advection=True),
    FluxKind.CAPUTO: FluxLaw(local=False, advection=False),
    FluxKind.PARSIMONIOUS: FluxLaw(local=False, advection=False),
}


def apparent_advection(u0: float, table: GrunwaldTable) -> np.ndarray:
    """The rl law's addend -(u0 / dx) * W_{i+1} at the n interior faces:
    an advection driven by the left-end value u0."""
    return -(u0 / table.dx) * table.w[1:]


def face_fluxes(u, kind: FluxKind, table: GrunwaldTable, kappa: float = 1.0) -> np.ndarray:
    """Fluxes at the n interior faces under the law ``LAWS[kind]``;
    q[i] sits at x = (i + 0.5) * dx.

    kappa is a scalar diffusivity multiplier applied uniformly; the
    default of 1 matches the nondimensional form used everywhere else.
    """
    try:
        law = LAWS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        valid = ", ".join(map(str, FluxKind))
        raise ValueError(f"unknown flux law {kind!r}: not a FluxKind; valid laws: {valid}") from None
    arr = np.asarray(u, dtype=np.float64)
    if arr.shape != (table.n + 1,):
        raise ValueError(f"field has shape {arr.shape}, table expects {table.n + 1} nodes")
    q = arr[:-1] - arr[1:]
    q /= table.dx
    if not law.local:
        # q[i] = sum_{j=0..i} W_j * grad[i-j], as a direct sum, or as an FFT
        # product when the table carries w_hat.  The gradient is formed
        # first, so a constant field gives exact zeros.
        if table.w_hat is None:
            q = np.convolve(q, table.w[: table.n])[: table.n]
        else:
            size = 2 * (table.w_hat.size - 1)
            spectrum = np.fft.rfft(q, size) * table.w_hat
            q = np.fft.irfft(spectrum, size)[: table.n]
    if law.advection:
        q += apparent_advection(arr.item(0), table)
    q *= kappa
    return q
