"""Independent routes to quantities the package computes another way.

The tests compare the package against these; the package never calls
them.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from fracflux.diagnostics import DiagnosticTrace, max_principle_check, total_mass
from fracflux.flux import FluxKind, face_fluxes
from fracflux.solver import Dirichlet, InstabilityError, RunRecord, RunResult, SimConfig
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


def toeplitz(table: GrunwaldTable) -> np.ndarray:
    """T(W), the read-only, C-contiguous n x n lower-triangular Toeplitz
    matrix with T[i, j] = W_{i-j} for j <= i and zeros above the diagonal.

    The package never forms it: its memory sum and its step operators are
    taken from W directly.  The tests build the face operator F from this
    matrix too, as the reference for the package's build from W.
    """
    n = table.n
    # Row i of the windows over (0, ..., 0, W_0, ..., W_{n-1}), read
    # backwards, is W_i, ..., W_0, 0, ..., 0; the copy is the one n x n
    # allocation.
    padded = np.zeros(2 * n - 1)
    padded[n - 1:] = table.w[:n]
    matrix = sliding_window_view(padded, n)[:, ::-1].copy()
    matrix.flags.writeable = False
    return matrix


def face_fluxes_direct(u, kind: FluxKind, table: GrunwaldTable, kappa: float = 1.0) -> np.ndarray:
    """The face-flux kernel with the memory sum always summed directly.

    Follows :func:`fracflux.flux.face_fluxes` operation for operation but
    takes the memory sum with ``np.convolve(w, grad)`` at every n, a
    summation order of its own, so it is the reference for both of the
    package's routes, the direct sum ``np.convolve(grad, w)`` and the FFT
    product; for ``fourier``, which has no memory sum, it matches the
    package bit for bit.  The laws are spelled out here rather than read
    from :data:`fracflux.flux.LAWS`: every law but ``fourier`` takes the
    memory sum, and only ``rl`` adds the apparent advection.
    """
    u = np.asarray(u, dtype=np.float64)
    q = (u[:-1] - u[1:]) / table.dx
    if kind is not FluxKind.FOURIER:
        q = np.convolve(table.w, q)[: table.n]
    if kind is FluxKind.RIEMANN_LIOUVILLE:
        q = q + -(u[0] / table.dx) * table.w[1:]
    return kappa * q


def explicit_step(u: np.ndarray, q: np.ndarray, cfg: SimConfig, step_index: int = 0) -> np.ndarray:
    """:func:`fracflux.solver.step` with the boundary treatment spelled
    out end by end, where the package reads it from one place: a
    fixed-flux end's half-size volume updates with a factor 2 and its
    prescribed flux in place of the missing face, a Dirichlet end is
    assigned its value."""
    r = cfg.dt / cfg.dx

    nxt = np.empty_like(u)
    interior = nxt[1:-1]
    np.subtract(q[:-1], q[1:], out=interior)
    interior *= r
    interior += u[1:-1]
    left, right = cfg.bc.left, cfg.bc.right
    if isinstance(left, Dirichlet):
        nxt[0] = left.value
    else:
        nxt[0] = u.item(0) + 2.0 * r * (left.value - q.item(0))
    if isinstance(right, Dirichlet):
        nxt[-1] = right.value
    else:
        nxt[-1] = u.item(-1) + 2.0 * r * (q.item(-1) - right.value)

    if not np.isfinite(nxt).all():
        raise InstabilityError(step_index, step_index * cfg.dt, "non-finite value produced")
    return nxt


def record_of(trace: DiagnosticTrace, cfg: SimConfig) -> RunRecord:
    """The :class:`~fracflux.solver.RunRecord` of a run of cfg, from its
    full trace, by scans over the whole trace.

    The windows are the summary writer's from before the block pass
    reduced them: entry 0 alone, then windows of ceil(n_steps / 999) steps
    of the configured n_steps, cut by ``reduceat`` at their first entries,
    each ending at the entry before the next window's first.  The first
    violation is :func:`~fracflux.diagnostics.max_principle_check`'s for
    the bounds of entry 0, the quiet step the first with a step change
    below steady_eps.
    """
    steps = trace.t.size - 1
    width = max(1, math.ceil(cfg.n_steps / 999))
    starts = np.concatenate(([0], np.arange(1, steps + 1, width)))
    ends = np.append(starts[1:] - 1, steps)
    quiet = np.nonzero(trace.step_change < cfg.steady_eps)[0]
    return RunRecord(
        t=trace.t[ends],
        mass=trace.mass[ends],
        u_min=np.minimum.reduceat(trace.u_min, starts),
        u_max=np.maximum.reduceat(trace.u_max, starts),
        first_violation=max_principle_check(trace, (trace.u_min[0], trace.u_max[0])).first_step,
        quiet_step=int(quiet[0]) + 1 if quiet.size else None,
        max_mass_change=float(np.abs(trace.mass - trace.mass[0]).max()),
        final_mass=float(trace.mass[-1]),
    )


def run_stepwise(cfg: SimConfig, u0) -> RunResult:
    """:func:`fracflux.solver.run` one explicit step at a time, every n.

    The package fills blocks of steps and reads its boundary treatment
    from one place; this is the plain loop: one ``face_fluxes`` and one
    :func:`explicit_step` per time level, an update that owns its encoding
    of the boundary treatment, with the same runaway guard, steady stop
    and snapshot rules.  No Dirichlet consistency check and no stability
    warning.
    """
    u = np.asarray(u0, dtype=np.float64)
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    snap_steps = sorted({int(round(t / cfg.dt)): t for t in cfg.snapshot_times}.items())
    limit = 1e12 * max(np.abs(u).max(), 1.0)
    fields, mass, u_min, u_max, change = [u], [total_mass(u)], [u.min()], [u.max()], []
    steady_time = None
    for k in range(1, cfg.n_steps + 1):
        nxt = explicit_step(u, face_fluxes(u, cfg.flux, table, kappa=cfg.kappa), cfg, step_index=k)
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
        record=record_of(trace, cfg),
        trace=trace,
        final=u,
        steps_taken=steps,
        steady_stop_time=steady_time,
    )
