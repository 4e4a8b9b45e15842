"""Independent routes to quantities the package computes another way.

The tests compare the package against these; the package never calls
them.
"""

import numpy as np

from fracflux.flux import LAWS, FaceFluxes, FluxKind
from fracflux.weights import GrunwaldTable


def rl_faces_grunwald(u, table: GrunwaldTable) -> FaceFluxes:
    """Shifted-Grunwald form of the one-sided fractional flux.

    q[i] = -dx**(-alpha) * sum_{j=0..i+1} g_j * u[i+1-j].  Algebraically
    identical to :func:`fracflux.flux.rl_faces_weighted`, which sums the
    cumulative weights W against the gradient fluxes instead.
    """
    arr = np.asarray(u, dtype=np.float64)
    if arr.shape != (table.n + 1,):
        raise ValueError(f"field has shape {arr.shape}, table expects {table.n + 1} nodes")
    coeff = table.dx ** (-table.alpha)
    return FaceFluxes(q=-coeff * np.convolve(table.g, arr)[1 : table.n + 1])


def partial_g_sum(table: GrunwaldTable, j: int) -> float:
    """Partial sum g_0 + ... + g_j, i.e. W_j with the dx scaling stripped."""
    if not 0 <= j <= table.n:
        raise IndexError(f"index {j} outside the table range 0..{table.n}")
    return float(table.w[j] / table.dx ** (1.0 - table.alpha))


def face_fluxes_direct(u, kind: FluxKind, table: GrunwaldTable, kappa: float = 1.0) -> FaceFluxes:
    """The face-flux kernel with the memory sum always summed directly.

    Follows :func:`fracflux.flux.face_fluxes` operation for operation but
    convolves with ``np.convolve`` at every n, so it matches the package bit
    for bit where the package sums directly and is the reference for its
    FFT route.  (Multiplying by kappa = 1 is exact, so scaling
    unconditionally changes no bits.)
    """
    law = LAWS[kind]
    v = np.asarray(u, dtype=np.float64)
    if law.shifted:
        v = v - v[0]
    diffusive = (v[:-1] - v[1:]) / table.dx
    if not law.local:
        diffusive = np.convolve(table.w, diffusive)[: table.n]
    if not law.advection:
        return FaceFluxes(q=kappa * diffusive)
    advective = -(v[0] / table.dx) * table.w[1:]
    return FaceFluxes(
        q=kappa * (diffusive + advective),
        diffusive=kappa * diffusive,
        advective=kappa * advective,
    )
