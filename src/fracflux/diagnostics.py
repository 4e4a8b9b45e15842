"""Quantitative checks behind the qualitative claims: bound monitoring and
steady-state detection on a run's trace, and affine-rescaling tests.  The
trace type and the discrete mass, :func:`~fracflux.solver.total_mass`, live
in :mod:`fracflux.solver`, whose recorder fills them; both may be imported
from here too."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .flux import FluxKind
from .scenarios import Scenario, build_initial
from .solver import BOUND_TOL, BoundarySpec, DiagnosticTrace, Dirichlet, FixedFlux, SimConfig, run_block, total_mass


@dataclass
class MaxPrincipleReport:
    violated: bool
    first_step: int | None
    first_time: float | None
    lower: float
    upper: float
    tol: float


def max_principle_check(trace: DiagnosticTrace, g, tol: float = BOUND_TOL) -> MaxPrincipleReport:
    """Report the first step (if any) that leaves the initial-data bounds.

    The admissible band is [min(g), max(g)] widened by tol; for
    non-negative data with zero boundary values this is the classical
    statement that the solution stays between 0 and the initial maximum.
    Report-only: some flux laws are expected to violate it, and recording
    where that happens is the point.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    g_arr = np.asarray(g, dtype=np.float64)
    if g_arr.size == 0 or not np.isfinite(g_arr).all():
        raise ValueError(f"g must be non-empty and finite, got {g!r}")
    lower = float(g_arr.min())
    upper = float(g_arr.max())
    below = trace.u_min < lower - tol
    above = trace.u_max > upper + tol
    bad = np.nonzero(below | above)[0]
    if bad.size == 0:
        return MaxPrincipleReport(False, None, None, lower, upper, tol)
    k = int(bad[0])
    return MaxPrincipleReport(True, k, float(trace.t[k]), lower, upper, tol)


def steady_state_time(trace: DiagnosticTrace, eps: float = SimConfig.steady_eps) -> float | None:
    """First time at which the per-step max-norm change drops below eps."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    idx = np.nonzero(trace.step_change < eps)[0]
    if idx.size == 0:
        return None
    return float(trace.t[int(idx[0]) + 1])


@dataclass
class EquivarianceReport:
    """Deviation of a run from the affine image of another run.

    For initial data g and boundary data mapped through v -> a*v + b, the
    entries are max-norm distances between the transformed-data solution
    and a*u + b at each snapshot time.
    """

    law: FluxKind
    a: float
    b: float
    snapshot_times: tuple[float, ...]
    deviations: tuple[float, ...]
    max_deviation: float


def equivariance_test(
    scenario: Scenario,
    law: FluxKind,
    a: float,
    b: float,
    *,
    t_end: float | None = None,
    snapshot_times: tuple[float, ...] | None = None,
) -> EquivarianceReport:
    """Run a scenario and its affine-transformed twin, compare snapshots.

    Dirichlet values map to a*v + b and fixed-flux values to a*v (a
    constant offset does not add flux under any of the gradient-built
    laws).  Both runs use a fixed horizon, never the steady-state early
    stop, so snapshots are always taken at identical step counts.  They
    share their step operator and march as one block
    (:func:`fracflux.solver.run_block`).
    """
    cfg = scenario.cfg
    eff_t_end = cfg.t_end if t_end is None else float(t_end)
    if snapshot_times is not None:
        snaps = tuple(snapshot_times)
        if not snaps:
            raise ValueError("snapshot_times must name at least one time to compare")
    elif t_end is None and cfg.snapshot_times:
        snaps = cfg.snapshot_times
    else:
        snaps = (eff_t_end,)

    def transform(bc):
        if isinstance(bc, Dirichlet):
            return Dirichlet(a * bc.value + b)
        return FixedFlux(a * bc.value)

    base_cfg = replace(
        cfg, flux=law, t_end=eff_t_end, snapshot_times=snaps, stop_when_steady=False
    )
    mapped_cfg = replace(
        base_cfg, bc=BoundarySpec(transform(cfg.bc.left), transform(cfg.bc.right))
    )

    u0 = build_initial(cfg.initial, cfg.x)
    base, mapped = run_block([base_cfg, mapped_cfg], [u0, a * u0 + b])

    deviations = tuple(
        float(np.abs(um - (a * ub + b)).max())
        for ub, um in zip(base.snapshots, mapped.snapshots)
    )
    return EquivarianceReport(
        law=law,
        a=float(a),
        b=float(b),
        snapshot_times=base.snapshot_times,
        deviations=deviations,
        max_deviation=max(deviations),
    )
