"""Independent routes to quantities the package computes another way.

The tests compare the package against these; the package never calls
them.
"""

import numpy as np

from fracflux.diagnostics import DiagnosticTrace, total_mass
from fracflux.flux import FluxKind, face_fluxes
from fracflux.solver import InstabilityError, RunResult, SimConfig, step
from fracflux.weights import GrunwaldTable, build_table


def grunwald_coefficients(alpha: float, n: int) -> np.ndarray:
    """Raw Grunwald coefficients g_0..g_n of the recurrence

        g_0 = 1,    g_j = (j - 1 - alpha) / j * g_{j-1},

    run in the widest native float and rounded to float64, the way the
    package builds its cumulative weights W from them.  The package keeps
    only W; the tests take g from here.
    """
    a = np.longdouble(alpha)
    j = np.arange(1, n + 1, dtype=np.longdouble)
    g = np.empty(n + 1, dtype=np.longdouble)
    g[0] = 1.0
    np.cumprod((j - 1.0 - a) / j, out=g[1:])
    return g.astype(np.float64)


def rl_faces_grunwald(u, table: GrunwaldTable) -> np.ndarray:
    """Shifted-Grunwald form of the one-sided fractional flux.

    q[i] = -dx**(-alpha) * sum_{j=0..i+1} g_j * u[i+1-j].  Algebraically
    identical to ``face_fluxes(u, FluxKind.RIEMANN_LIOUVILLE, table)``,
    which sums the cumulative weights W against the gradient fluxes instead.
    """
    arr = np.asarray(u, dtype=np.float64)
    if arr.shape != (table.n + 1,):
        raise ValueError(f"field has shape {arr.shape}, table expects {table.n + 1} nodes")
    coeff = table.dx ** (-table.alpha)
    g = grunwald_coefficients(table.alpha, table.n)
    return -coeff * np.convolve(g, arr)[1 : table.n + 1]


def partial_g_sum(table: GrunwaldTable, j: int) -> float:
    """Partial sum g_0 + ... + g_j, i.e. W_j with the dx scaling stripped."""
    if not 0 <= j <= table.n:
        raise IndexError(f"index {j} outside the table range 0..{table.n}")
    return float(table.w[j] / table.dx ** (1.0 - table.alpha))


def face_fluxes_direct(u, kind: FluxKind, table: GrunwaldTable, kappa: float = 1.0) -> np.ndarray:
    """The face-flux kernel with the memory sum always summed directly.

    Follows :func:`fracflux.flux.face_fluxes` operation for operation but
    takes the memory sum with ``np.convolve`` at every n, a summation order
    of its own, so it is the reference for both of the package's routes,
    the dense matrix product and the FFT product; for ``fourier``, which has
    no memory sum, it matches the package bit for bit.  The laws are
    spelled out here rather than read from :data:`fracflux.flux.LAWS`: every
    law but ``fourier`` takes the memory sum, and only ``rl`` adds the
    apparent advection.
    """
    u = np.asarray(u, dtype=np.float64)
    q = (u[:-1] - u[1:]) / table.dx
    if kind is not FluxKind.FOURIER:
        q = np.convolve(table.w, q)[: table.n]
    if kind is FluxKind.RIEMANN_LIOUVILLE:
        q = q + -(u[0] / table.dx) * table.w[1:]
    return kappa * q


def run_stepwise(cfg: SimConfig, u0) -> RunResult:
    """:func:`fracflux.solver.run` one explicit step at a time, every n.

    Below the FFT crossover the package takes one or several steps per
    matrix product; this is the plain loop it replaces there, and the one
    it runs from the crossover up: one ``face_fluxes`` and one ``step``
    per time level, with the same runaway guard, steady stop and snapshot
    rules.  No Dirichlet consistency check, no stability warning
    and no rl flux decomposition.
    """
    u = np.asarray(u0, dtype=np.float64)
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    snap_steps = sorted({int(round(t / cfg.dt)): t for t in cfg.snapshot_times}.items())
    limit = 1e12 * max(np.abs(u).max(), 1.0)
    fields, mass, u_min, u_max, change = [u], [total_mass(u)], [u.min()], [u.max()], []
    steady_time = None
    for k in range(1, cfg.n_steps + 1):
        nxt = step(u, face_fluxes(u, cfg.flux, table, kappa=cfg.kappa), cfg, step_index=k)
        peak = np.abs(nxt).max()
        if peak > limit:
            raise InstabilityError(k, k * cfg.dt, f"|u| reached {peak:.3g}, over 1e12 x initial scale")
        change.append(np.abs(nxt - u).max())
        u = nxt
        fields.append(u)
        mass.append(total_mass(u))
        u_min.append(u.min())
        u_max.append(u.max())
        if cfg.stop_when_steady and change[-1] < cfg.steady_eps:
            steady_time = k * cfg.dt
            break
    steps = len(change)
    trace = DiagnosticTrace(
        t=np.arange(steps + 1) * cfg.dt, mass=np.array(mass), u_min=np.array(u_min),
        u_max=np.array(u_max), step_change=np.array(change),
    )
    return RunResult(
        cfg=cfg,
        snapshot_times=tuple(t for _, t in snap_steps),
        snapshots=[fields[min(k, steps)] for k, _ in snap_steps],
        trace=trace,
        final=u,
        steps_taken=steps,
        steady_stop_time=steady_time,
    )
