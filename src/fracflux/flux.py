"""Discrete face fluxes for the four interchangeable flux laws.

All laws produce fluxes at the n interior control-volume faces
x = (i + 1/2) * dx, i = 0..n-1, of a grid with n + 1 nodes on [0, 1].
Boundary faces at x = 0 and x = 1 are never evaluated here; fixed-flux
boundary values are injected by the solver instead.

Sign convention: the flux is minus the (possibly fractional) derivative
of u, and that minus sign is folded into the gradient fluxes
grad_i v = (v_i - v_{i+1}) / dx.  Every law is the one kernel

    q = kappa * (T(w) grad v + advection)

with its row of :data:`LAWS` choosing the memory kernel T(w) (the
identity for the local ``fourier`` law, else the convolution with the
cumulative weights W, a sum of the gradient fluxes at and left of the
face), whether the apparent-advection term -(v_0 / dx) * W_{i+1} is
added, and whether v is u or u - u(0).  ``caputo`` is the weighted sum
alone and annihilates constants.  ``rl``, the one-sided fractional
derivative of u, adds the advection term: a speed proportional to the
value at the left end.  ``parsimonious`` is ``rl`` applied to u - u(0),
so it coincides with ``caputo``.

The memory sum T(w) grad v is summed directly below
:data:`fracflux.weights.FFT_MIN_N` faces and taken as a zero-padded FFT
product from there up; the two agree to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    advection: bool  # adds -(v_0 / dx) * W[1:]
    shifted: bool  # v = u - u(0) instead of u

    def order(self, alpha: float) -> float:
        """Order of the law's derivative: 2 if local, else 1 + alpha."""
        return 2.0 if self.local else 1.0 + alpha


LAWS = {
    FluxKind.FOURIER: FluxLaw(local=True, advection=False, shifted=False),
    FluxKind.RIEMANN_LIOUVILLE: FluxLaw(local=False, advection=True, shifted=False),
    FluxKind.CAPUTO: FluxLaw(local=False, advection=False, shifted=False),
    FluxKind.PARSIMONIOUS: FluxLaw(local=False, advection=True, shifted=True),
}


@dataclass
class FaceFluxes:
    """Fluxes at the n interior faces; q[i] sits at x = (i + 0.5) * dx.

    Laws with the advection term keep the two addends, q = diffusive +
    advective; both are None for the other laws.
    """

    q: np.ndarray
    diffusive: np.ndarray | None = None
    advective: np.ndarray | None = None


def _as_field(u, n: int | None = None) -> np.ndarray:
    arr = np.asarray(u, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("field must be a 1-D array with at least 2 nodes")
    if n is not None and arr.size - 1 != n:
        raise ValueError(f"field has {arr.size - 1} intervals, table expects {n}")
    return arr


def _gradient(arr: np.ndarray, dx: float) -> np.ndarray:
    return (arr[:-1] - arr[1:]) / dx


def face_fluxes(u, kind: FluxKind, table: GrunwaldTable, kappa: float = 1.0) -> FaceFluxes:
    """Evaluate the interior face fluxes under the law ``LAWS[kind]``.

    kappa is a scalar diffusivity multiplier applied uniformly; the
    default of 1 matches the nondimensional form used everywhere else.
    """
    law = LAWS[kind]
    v = _as_field(u, table.n)
    if law.shifted:
        v = v - v[0]
    diffusive = _gradient(v, table.dx)
    if not law.local:
        # q[i] = sum_{j=0..i} W_j * grad[i-j], summed directly in a fixed
        # order, or as an FFT product when the table carries w_hat.
        if table.w_hat is None:
            diffusive = np.convolve(table.w, diffusive)[: table.n]
        else:
            size = 2 * (table.w_hat.size - 1)
            spectrum = np.fft.rfft(diffusive, size) * table.w_hat
            diffusive = np.fft.irfft(spectrum, size)[: table.n]
    if not law.advection:
        return FaceFluxes(q=diffusive if kappa == 1.0 else kappa * diffusive)
    advective = -(v[0] / table.dx) * table.w[1:]
    q = diffusive + advective
    if kappa != 1.0:
        q, diffusive, advective = kappa * q, kappa * diffusive, kappa * advective
    return FaceFluxes(q=q, diffusive=diffusive, advective=advective)


def fourier_faces(u, dx: float) -> FaceFluxes:
    """Local gradient flux q_i = (u_i - u_{i+1}) / dx at the interior faces."""
    arr = _as_field(u)
    if not (np.isfinite(dx) and dx > 0.0):
        raise ValueError(f"dx must be positive and finite, got {dx}")
    return FaceFluxes(q=_gradient(arr, dx))


def caputo_faces(u, table: GrunwaldTable) -> FaceFluxes:
    """Cumulative-weight sum of the gradient fluxes; zero on constant fields."""
    return face_fluxes(u, FluxKind.CAPUTO, table)


def rl_faces_weighted(u, table: GrunwaldTable) -> FaceFluxes:
    """Weighted-gradient form of the one-sided fractional flux, with the
    caputo sum and -(W_{i+1} / dx) * u[0] as the diffusive / advective split."""
    return face_fluxes(u, FluxKind.RIEMANN_LIOUVILLE, table)


def parsimonious_faces(u, table: GrunwaldTable) -> FaceFluxes:
    """The rl flux of u - u[0]: no advective part, so caputo up to rounding."""
    return face_fluxes(u, FluxKind.PARSIMONIOUS, table)
