"""Independent routes to quantities the package computes another way.

The tests compare the package against these; the package never calls
them.
"""

import numpy as np

from fracflux.flux import FaceFluxes
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
