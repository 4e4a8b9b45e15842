"""Explicit control-volume time stepping of the conserved balance.

The update at every interior node is

    u_i <- u_i + (dt / dx) * (q_{i-1/2} - q_{i+1/2}),

a forward-Euler step of the flux-difference form, so any flux law plugged
in through :mod:`fracflux.flux` inherits the same conservation structure.
End nodes own half-size volumes: under a fixed-flux condition they update
with a factor 2 and the prescribed boundary flux replaces the missing
face; under a Dirichlet condition they are pinned to the boundary value
and no flux is ever evaluated at x = 0 or x = 1.

With fixed-flux conditions at both ends the discrete mass

    M = dx * (u_0 / 2 + u_1 + ... + u_{n-1} + u_n / 2)

changes by exactly dt * (q_left - q_right) per step; the interior flux
differences telescope away.

Every route of :func:`run` makes each new field by one update: the field
before it plus the volume rates times the face differences of fluxes at
all n + 2 faces, with the Dirichlet nodes assigned.  Every law is linear
and every boundary condition affine, so below the FFT crossover (see
:func:`leap_steps`) one matrix-vector product gives, for j = 1..K, the
face fluxes summed over the next j steps, F (I + S + ... + S^(j-1)) u
plus a boundary offset, with F the face-flux operator and S the one-step
matrix.  The stacked leap carries each field from leap end to leap end,
one small product with the rows for j = K each, and then fills the K - 1
fields between the ends of many leaps with one matrix-matrix product of
the rows for j < K.  Where K would be small, one loop takes a step at a
time from one of two flux sources: the product F u + g, or, from the FFT
crossover up and for the local law wherever it does not leap, each
field's :func:`~fracflux.flux.face_fluxes` inside its boundary fluxes g.
The interior differences telescope, so the mass moves only through the
ends, to round-off.  :func:`step` is the same update for one field given
its interior fluxes.  Every route fills a block of fields, and the run
records each block in one vectorised pass.

A run keeps one route to its end; one that fails the runaway guard on a
dense route is marched again from t = 0 on single steps, so every abort
has the step and the message of the single-step loop, bit for bit.

:func:`run_block` marches several fields whose configurations differ
only in their boundary values, and so share the step operator: it is
built once and one recorder pass serves the whole block, and where one
product with F makes one step, a matrix-matrix product makes it for
every field at once.  :func:`run` is a block of one.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import ClassVar

import numpy as np

from . import __version__
from .diagnostics import DiagnosticTrace, total_mass
from .flux import LAWS, FluxKind, apparent_advection, face_fluxes
from .weights import FFT_MIN_N, GrunwaldTable, build_table

# Abort threshold for runaway explicit steps, relative to the initial
# magnitude (floored at 1 so an all-zero start still has a usable scale).
_BLOWUP_FACTOR = 1e12

# A StabilityWarning fires when stability_ratio exceeds this value.
_STABILITY_WARN_RATIO = 0.5

# Below the FFT crossover run() leaps K steps per matrix-vector product
# with the last n + 2 rows of the leap operator, whose K (n+1)^2 stacked
# doubles are held within LEAP_BYTES, where that allows K >= LEAP_MIN_STEPS:
# up to n = 141.  Its other rows fill the fields inside the leaps of a
# chunk with one matrix-matrix product.  Every other dense grid takes
# K = 1, one product with the face-flux operator F per step.  Fixed
# constants, not config keys, so the route, and hence every output bit, is
# a function of n and the step count alone.  On a 2-vCPU x86 host with one
# OpenBLAS thread, n = 100 and K = 15 took the bundled experiments from
# 0.72 to 0.32 s (benchmark `reproduce`, median of 10 pairs), and the
# chunked fill took a `pulse-reflective`/`rl` run from 5.0 to 4.0 us a step
# (6833 steps, best of 7, operator build included); at n = 200 a leap of
# K = 4 made a 300-step run slower than single steps (rl 9.2 -> 11.4 ms,
# caputo 8.6 -> 8.9 ms, operator build included), while K = 1 took the
# `alpha-sweep` benchmark from 0.33 to 0.17 s (median of 10 pairs).
LEAP_BYTES = 1_300_000
LEAP_MIN_STEPS = 8

# Fields per recorded block, per field.  On the K = 1 and FFT routes:
# BLOCK_ROWS, or fewer where that many would hold more than BLOCK_BYTES
# (from n = 512 up), so that a block and its step differences add little
# to a run's peak memory.  On the stacked leap a block is a chunk of whole
# leaps, as many as BLOCK_BYTES holds (10 leaps of K = 15 at n = 100) and
# at least one.  The first chunk is one leap and each next one doubles up
# to that size, so a run that goes quiet at once fills one leap only.
BLOCK_ROWS = 32
BLOCK_BYTES = 131_072


class ConfigurationError(ValueError):
    """Inconsistent or incomplete run configuration."""


class InstabilityError(RuntimeError):
    """The explicit step produced a non-finite or runaway field."""

    def __init__(self, step_index: int, t: float, detail: str):
        self.step_index = step_index
        self.t = t
        super().__init__(f"unstable at step {step_index} (t={t:g}): {detail}")


class StabilityWarning(UserWarning):
    """Advisory: the time step exceeds the recommended ratio."""


@dataclass(frozen=True)
class Dirichlet:
    """Fixed boundary value (absorbing when the value is 0)."""

    kind: ClassVar[str] = "dirichlet"
    value: float


@dataclass(frozen=True)
class FixedFlux:
    """Prescribed boundary flux (reflective when the value is 0)."""

    kind: ClassVar[str] = "fixed-flux"
    value: float


BoundaryCondition = Dirichlet | FixedFlux

# The boundary kinds a config file or a --bc-left/--bc-right flag may name.
BOUNDARY_KINDS = {cls.kind: cls for cls in (Dirichlet, FixedFlux)}


def _decode_scalar(default, value):
    """Decode a scalar field strictly: a boolean field takes only a JSON
    boolean, a number field only a number, and an int field an integral one."""
    if (
        isinstance(default, bool) != isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or type(default) is int and not float(value).is_integer()
    ):
        raise TypeError(f"expected {type(default).__name__}, got {value!r}")
    return type(default)(value)


def boundary_condition(kind: str, value: float) -> BoundaryCondition:
    """Build a boundary condition from its kind name and value."""
    try:
        cls = BOUNDARY_KINDS[kind]
    except KeyError:
        valid = ", ".join(BOUNDARY_KINDS)
        raise ConfigurationError(
            f"unknown boundary kind {kind!r}; valid kinds: {valid}"
        ) from None
    value = _decode_scalar(0.0, value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{kind} boundary value must be finite, got {value}")
    return cls(value)


@dataclass(frozen=True)
class BoundarySpec:
    left: BoundaryCondition
    right: BoundaryCondition

    @classmethod
    def reflective(cls) -> "BoundarySpec":
        return cls(FixedFlux(0.0), FixedFlux(0.0))

    def to_mapping(self) -> dict:
        return {
            side: {"kind": bc.kind, "value": bc.value}
            for side, bc in (("left", self.left), ("right", self.right))
        }

    @classmethod
    def from_mapping(cls, data: dict) -> "BoundarySpec":
        left, right = (
            boundary_condition(data[side]["kind"], data[side]["value"])
            for side in ("left", "right")
        )
        return cls(left, right)


@dataclass(frozen=True)
class InitialSpec:
    """Named initial profile plus its parameters (see fracflux.scenarios)."""

    profile: str
    params: dict = field(default_factory=dict)

    def to_mapping(self) -> dict:
        return {"profile": self.profile, "params": dict(self.params)}

    @classmethod
    def from_mapping(cls, data: dict) -> "InitialSpec":
        params = dict(data.get("params", {}))
        return cls(data["profile"], {k: _decode_scalar(0.0, v) for k, v in params.items()})


def _decode_times(times) -> tuple[float, ...]:
    """Decode snapshot times: a JSON list of numbers."""
    if not isinstance(times, list):
        raise TypeError(f"expected a list of numbers, got {times!r}")
    return tuple(_decode_scalar(0.0, t) for t in times)


# (encode, decode) between the JSON form and the field value, for the
# fields that are not plain numbers, booleans or strings.
_FIELD_CODECS = {
    "snapshot_times": (list, _decode_times),
    "flux": (lambda kind: kind.value, FluxKind.from_name),
    "bc": (BoundarySpec.to_mapping, BoundarySpec.from_mapping),
    "initial": (InitialSpec.to_mapping, InitialSpec.from_mapping),
}


# Keys from_mapping skips: the derived keys a manifest adds to the
# configuration, and the retired stability_warn_ratio (now the fixed
# _STABILITY_WARN_RATIO), so every manifest ever written is a valid
# configuration.
_IGNORED_KEYS = ("tool", "version", "dx", "stability_ratio", "stability_warn_ratio")


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """Fully resolved run configuration.

    The defaults are the desk-scale resolution and setup; only the initial
    profile has none.  Snapshot times are rounded to the nearest step
    multiple at construction; duplicates after rounding collapse to one
    snapshot.  ``stop_when_steady`` truncates the run once the per-step
    max-norm change drops below ``steady_eps``; later snapshot times then
    receive the frozen final field.
    """

    # Field order is the key order of manifest.json.
    scenario: str | None = None
    alpha: float = 0.5
    n: int = 100
    dt: float = 0.0005
    t_end: float = 1.0
    snapshot_times: tuple[float, ...] = ()
    flux: FluxKind = FluxKind.CAPUTO
    bc: BoundarySpec = field(default_factory=BoundarySpec.reflective)
    initial: InitialSpec
    kappa: float = 1.0
    stop_when_steady: bool = False
    steady_eps: float = 1e-10
    force_inconsistent_bc: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigurationError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ConfigurationError(
                f"t_end must be finite and positive, got {self.t_end}"
            )
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ConfigurationError(
                f"kappa must be finite and positive, got {self.kappa}"
            )
        if self.n_steps < 1:
            raise ConfigurationError("t_end shorter than one time step")
        if not (math.isfinite(self.steady_eps) and self.steady_eps > 0.0):
            raise ConfigurationError(
                f"steady_eps must be finite and positive, got {self.steady_eps}"
            )
        snapped = []
        for t in self.snapshot_times:
            t = float(t)
            if not math.isfinite(t):
                raise ConfigurationError(f"snapshot time {t} is not finite")
            k = self.steps_to(t)
            if k < 0 or k > self.n_steps:
                raise ConfigurationError(
                    f"snapshot time {t} outside [0, {self.t_end}]"
                )
            snapped.append(k * self.dt)
        object.__setattr__(self, "snapshot_times", tuple(sorted(set(snapped))))

    @property
    def n_steps(self) -> int:
        return self.steps_to(self.t_end)

    def steps_to(self, t: float) -> int:
        """The whole number of steps nearest time t.  Raises
        :class:`ConfigurationError` where t / dt overflows."""
        steps = t / self.dt
        if not math.isfinite(steps):
            raise ConfigurationError(f"time {t:g} over dt = {self.dt:g} overflows the step count")
        return int(round(steps))

    @property
    def dx(self) -> float:
        """Node spacing of the n + 1 equispaced nodes on [0, 1]."""
        return 1.0 / self.n

    @property
    def x(self) -> np.ndarray:
        """Node positions; the end volumes have half width."""
        return np.arange(self.n + 1) * self.dx

    def to_mapping(self) -> dict:
        """JSON-ready form of every field, in field order."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, (encode, _) in _FIELD_CODECS.items():
            out[name] = encode(out[name])
        return out

    @classmethod
    def from_mapping(cls, data: dict) -> "SimConfig":
        """Inverse of :meth:`to_mapping`; missing keys take the defaults.

        Keys that are not fields raise :class:`ConfigurationError`, except
        the derived keys a manifest adds and the retired
        ``stability_warn_ratio``, which are ignored.
        """
        by_name = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(by_name) - set(_IGNORED_KEYS))
        if unknown:
            valid = ", ".join(by_name)
            raise ConfigurationError(
                f"unknown configuration key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {valid}"
            )
        kwargs = {}
        for name, f in by_name.items():
            if name not in data:
                continue
            value = data[name]
            try:
                if name in _FIELD_CODECS:
                    value = _FIELD_CODECS[name][1](value)
                elif f.default is not None:
                    value = _decode_scalar(f.default, value)
            except KeyError as exc:
                raise ConfigurationError(f"{name!r} is missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad value for {name!r}: {exc}") from None
            kwargs[name] = value
        missing = [
            name for name, f in by_name.items()
            if f.default is f.default_factory is MISSING and name not in kwargs
        ]
        if missing:
            raise ConfigurationError(
                f"configuration is missing key(s) {', '.join(map(repr, missing))}; "
                "name a scenario or give a complete configuration"
            )
        return cls(**kwargs)

    def manifest(self) -> dict:
        """The configuration plus tool, version, dx and stability ratio."""
        return {
            "tool": "fracflux",
            "version": __version__,
            **self.to_mapping(),
            "dx": self.dx,
            "stability_ratio": stability_ratio(self),
        }


@dataclass
class RunResult:
    """Snapshots plus per-step diagnostics of a completed run.

    Every time is a step count times dt: the final field sits at
    ``trace.t[-1]``.
    """

    cfg: SimConfig
    snapshot_times: tuple[float, ...]
    snapshots: list[np.ndarray]
    trace: DiagnosticTrace
    final: np.ndarray
    steps_taken: int
    steady_stop_time: float | None = None
    # rl law only: the final field's flux as (caputo part, apparent advection)
    decomposition: tuple[np.ndarray, np.ndarray] | None = None


def stability_ratio(cfg: SimConfig) -> float:
    """kappa * dt / dx**order, the advisory explicit-step ratio.

    The order is the flux law's own (see :data:`fracflux.flux.LAWS`):
    2 for the local gradient law and 1 + alpha for the others.
    """
    return cfg.kappa * cfg.dt / cfg.dx ** LAWS[cfg.flux].order(cfg.alpha)


def step(u: np.ndarray, q: np.ndarray, cfg: SimConfig, step_index: int = 0) -> np.ndarray:
    """Advance the nodal values u one explicit step, given the interior
    face fluxes q; step_index dates an :class:`InstabilityError`."""
    if q.size != u.size - 1:
        raise ValueError(f"expected {u.size - 1} face fluxes, got {q.size}")
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


def _check_dirichlet_consistency(cfg: SimConfig, u0: np.ndarray) -> None:
    for side, bc, val in (("left", cfg.bc.left, u0[0]), ("right", cfg.bc.right, u0[-1])):
        if isinstance(bc, Dirichlet):
            if abs(val - bc.value) > 1e-12 * max(1.0, abs(bc.value)):
                raise ConfigurationError(
                    f"initial value {val!r} at the {side} end does not match the "
                    f"Dirichlet value {bc.value!r}; pass force_inconsistent_bc=True "
                    "to run anyway"
                )


def leap_steps(n: int, n_steps: int, local: bool = False) -> int:
    """Steps per matrix-vector product on :func:`run`'s dense route for n
    intervals and a run of n_steps, or 0 where the run takes single steps:
    from FFT_MIN_N up, and for a local law (``LAWS[kind].local``) wherever
    it does not leap, its face fluxes being O(n) a step to F's O(n^2)."""
    k = min(LEAP_BYTES // (8 * (n + 1) ** 2), n_steps)
    if n >= FFT_MIN_N or local and k < LEAP_MIN_STEPS:
        return 0
    return k if k >= LEAP_MIN_STEPS else 1


def _block_rows(n: int, stride: int = 1) -> int:
    """Most fields per recorded block, per field, for n intervals: whole
    leaps on the stacked leap of stride K > 1, else single steps."""
    if stride > 1:
        return stride * max(1, BLOCK_BYTES // (8 * (n + 1) * stride))
    return max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 * (n + 1))))


def _pinned(cfg: SimConfig) -> list[tuple[int, float]]:
    """(node, value) of each Dirichlet end."""
    return [
        (node, bc.value)
        for node, bc in ((0, cfg.bc.left), (cfg.n, cfg.bc.right))
        if isinstance(bc, Dirichlet)
    ]


def _boundary_fluxes(cfg: SimConfig) -> np.ndarray:
    """The n + 2 face fluxes of the zero field: a fixed-flux end's
    prescribed flux at its boundary face, zero everywhere else."""
    g = np.zeros(cfg.n + 2)
    for face, bc in ((0, cfg.bc.left), (-1, cfg.bc.right)):
        if isinstance(bc, FixedFlux):
            g[face] = bc.value
    return g


def _face_operator(cfg: SimConfig, table: GrunwaldTable) -> tuple[np.ndarray, np.ndarray]:
    """(F, g) with F @ u + g the fluxes at all n + 2 faces of u, to round-off.

    Face 0 is the left boundary, faces 1..n are the interior faces of
    :func:`~fracflux.flux.face_fluxes`, kappa (T(W) G + a e_0^T) u with G
    the gradient and a the apparent advection of a unit left value, and
    face n + 1 is the right boundary.  A fixed-flux end's face carries its
    prescribed flux in g; a Dirichlet end's face is zero.  F depends on
    the boundary kinds, not their values.  Needs the dense memory matrix,
    so n < FFT_MIN_N.
    """
    n = cfg.n
    law = LAWS[cfg.flux]
    memory = np.eye(n) if law.local else table.toeplitz
    f = np.zeros((n + 2, n + 1))
    inner = f[1:-1]
    inner[:, :-1] = memory
    inner[:, 1:] -= memory
    inner /= cfg.dx
    if law.advection:
        inner[:, 0] += apparent_advection(1.0, table)
    inner *= cfg.kappa
    return f, _boundary_fluxes(cfg)


def _volume_rates(cfg: SimConfig) -> np.ndarray:
    """dt over each node's control-volume width: r = dt / dx inside and 2r
    at the half-size end volumes.  A node gains its rate times the flux
    through its left face minus the flux through its right face."""
    rates = np.full(cfg.n + 1, cfg.dt / cfg.dx)
    rates[[0, -1]] *= 2.0
    return rates


def _step_operator(cfg: SimConfig, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, b) with step(u, face_fluxes(u, ...), cfg) = S @ u + b to round-off,
    from the face operator (F, g) of :func:`_face_operator`."""
    rates = _volume_rates(cfg)
    s = (f[:-1] - f[1:]) * rates[:, None]
    s[np.diag_indices_from(s)] += 1.0
    b = (g[:-1] - g[1:]) * rates
    for node, value in _pinned(cfg):
        s[node] = 0.0
        b[node] = value
    return s, b


def _leap_operators(
    cfgs: list[SimConfig], table: GrunwaldTable, k: int, shifts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """(P, p) giving the face fluxes of the next k steps summed, for a
    block of configs that differ only in their boundary values, each
    field with its own shift, to which its law is blind: a column of any
    values for caputo, parsimonious and fourier, None (no shift) for rl.
    From the fields U, the fluxes through the n + 2 faces summed over the
    next j steps are

        ((U - shifts) @ P.T).reshape(-1, k, n + 2)[:, j - 1] + p[:, j - 1],

    and each field j steps on is its field now plus the volume rates
    times their face differences, off the Dirichlet nodes.  P, shared by
    the block, stacks P_j = F + F S + ... + F S^(j-1), with S the step
    matrix, each new term one matrix product from the last; p[i, j - 1]
    sums the face fluxes of the first j steps of the zero field under
    config i, with the Dirichlet values lowered by field i's shift.  So P
    starts with F and p with g.
    """
    f, _ = _face_operator(cfgs[0], table)
    gs = [_boundary_fluxes(cfg) for cfg in cfgs]
    s, b = _step_operator(cfgs[0], f, gs[0])
    # the other fields' b (S is shared)
    bs = [b] + [_step_operator(cfg, f, g)[1] for cfg, g in zip(cfgs[1:], gs[1:])]
    fluxes = np.empty((k,) + f.shape)
    fluxes[0] = term = f
    for j in range(1, k):
        term = term @ s
        np.add(fluxes[j - 1], term, out=fluxes[j])

    offsets = np.empty((len(cfgs), k, f.shape[0]))
    lowered = np.zeros(len(cfgs)) if shifts is None else shifts[:, 0]
    for cfg, g, b, shift, out in zip(cfgs, gs, bs, lowered, offsets):
        for node, _ in _pinned(cfg):
            b[node] -= shift
        total = np.zeros(f.shape[0])
        w = np.zeros(f.shape[1])
        for j in range(k):
            total = total + (f @ w + g)
            out[j] = total
            w = s @ w + b
    return fluxes.reshape(-1, f.shape[1]), offsets


def _product_fluxes(
    f: np.ndarray, g: np.ndarray, shifts: np.ndarray | None, v: np.ndarray, summed: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Flux source of the F route: (u - shifts) @ F.T + g for the fields u,
    one row each, with g a row of boundary fluxes per field, written into
    summed.  v and summed are per-run buffers of the shapes of u and g."""
    if shifts is None:
        v = u
    else:
        np.subtract(u, shifts, out=v)
    # One GEMM of F for the block's fields; numpy calls a GEMV for a
    # single field with less overhead than a one-row GEMM.
    if len(v) > 1:
        np.matmul(v, f.T, out=summed)
    else:
        np.matmul(f, v[0], out=summed[0])
    summed += g
    return summed


def _kernel_fluxes(cfg: SimConfig, table: GrunwaldTable, faces: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Flux source of single steps: faces, with each field's face_fluxes
    written inside its row, whose ends hold the field's boundary fluxes."""
    for field, out in zip(u, faces):
        out[1:-1] = face_fluxes(field, cfg.flux, table, kappa=cfg.kappa)
    return faces


def _advance(summed: np.ndarray, u: np.ndarray, rates: np.ndarray, pinned: list, out: np.ndarray) -> None:
    """out = u + rates (summed[..., :-1] - summed[..., 1:]) with the
    Dirichlet nodes assigned: the fields u moved on by the fluxes through
    their n + 2 faces, along the last axis, with u broadcast against out.
    pinned holds (node, a value per field of out, or one for all)."""
    np.subtract(summed[..., :-1], summed[..., 1:], out=out)
    out *= rates
    out += u
    for node, values in pinned:
        out[..., node] = values


def _step_fill(source, u: np.ndarray, rows: np.ndarray, rates: np.ndarray, pinned: list) -> None:
    """Fill the block rows with the fields of the next m steps from the
    fields u, m = len(rows) // len(u): field i's steps are rows i m to
    i m + m - 1, each made by :func:`_advance` from the flux source, which
    gives every field's fluxes at all n + 2 faces for one step.  pinned
    holds (node, one value per field)."""
    m = len(rows) // len(u)
    for j in range(m):
        row = rows[j::m]  # step j of every field
        _advance(source(u), u, rates, pinned, row)
        u = row


def _leap_fill(
    stacked: np.ndarray, offsets: np.ndarray, shifts: np.ndarray | None, k: int,
    bases: np.ndarray, starts: np.ndarray, inner: np.ndarray,
    u: np.ndarray, rows: np.ndarray, rates: np.ndarray, pinned: list,
) -> None:
    """:func:`_step_fill` on the stacked leap (P, p, shifts) of
    :func:`_leap_operators` with K = k, in leaps of k steps, the last of
    which may be shorter.  Field by field, the leap ends come one after
    the other, each the leap's start moved on by one GEMV with the n + 2
    rows of P that sum its steps: the carried state.  Then one GEMM of
    the leap starts with the rows of P for 1..k - 1 steps gives the fields
    between the ends.  One GEMM per field, so a field of a block equals
    its solo run bit for bit.  bases, starts and inner are per-run
    buffers of leaps + 1, leaps and leaps rows, inner's of (k - 1)(n + 2)
    doubles."""
    width = len(u)
    m = len(rows) // width
    size = rates.size + 1  # faces
    full, last = divmod(m, k)  # whole leaps, and the steps of a short one
    leaps = full + (last > 0)
    between = stacked[: (k - 1) * size].T
    summed = inner[:leaps].reshape(leaps, k - 1, size)
    for i in range(width):
        field = rows[i * m : (i + 1) * m]
        pins = [(node, values[i]) for node, values in pinned]
        v = bases[:leaps] if shifts is None else starts[:leaps]
        bases[0] = u[i]
        for j in range(leaps):
            steps = k if j < full else last
            if shifts is not None:
                np.subtract(bases[j], shifts[i], out=v[j])
            end = stacked[(steps - 1) * size : steps * size] @ v[j]
            end += offsets[i, steps - 1]
            _advance(end, bases[j], rates, pins, bases[j + 1])
        # The face differences come after the product, so the interior
        # fluxes still telescope.
        np.matmul(v, between, out=inner[:leaps])
        summed += offsets[i, : k - 1]
        inside = field[: full * k].reshape(full, k, size - 1)
        _advance(summed[:full], bases[:full, None], rates, pins, inside[:, :-1])
        inside[:, -1] = bases[1 : full + 1]
        if last:
            _advance(summed[full, : last - 1], bases[full], rates, pins, field[full * k : -1])
            field[-1] = bases[leaps]


def _block_key(cfg: SimConfig) -> tuple:
    """What the configs of one block must share: the step operator (up to
    the boundary values) and the steps and snapshot times."""
    return (
        cfg.n, cfg.alpha, cfg.dt, cfg.t_end, cfg.snapshot_times, cfg.flux, cfg.kappa,
        cfg.bc.left.kind, cfg.bc.right.kind,
    )


def run(cfg: SimConfig, u0) -> RunResult:
    """March the initial nodal values u0 forward from t = 0 under cfg and
    collect snapshots and traces.

    Deterministic: identical configurations produce bit-identical results.
    Raises :class:`InstabilityError` if the field turns non-finite or its
    magnitude exceeds 1e12 times the initial scale, and
    :class:`ConfigurationError` for Dirichlet data that contradicts the
    initial profile (unless ``force_inconsistent_bc`` is set).  The same
    as ``run_block([cfg], [u0])[0]``.
    """
    return _run_block([cfg], [u0])[0]


def run_block(cfgs, u0s) -> list[RunResult]:
    """:func:`run` for several fields at once: the result of each config
    with its initial values, in order.

    The configs may differ only in their boundary values (the kinds must
    agree), labels and ``force_inconsistent_bc``, so the fields share one
    step operator, built once.  Each field's results equal its solo
    :func:`run` bit for bit, except where one product with F makes a
    step (K = 1 in :func:`leap_steps`): there one matrix-matrix product
    serves every field and sums in its own order, so they agree to
    round-off.  If a field fails the runaway guard the fields are run
    again from t = 0, alone and on single steps, in order, so the first
    failing one raises the error of the single-step loop; if none fails
    alone, the block returns those single-step results.
    ``stop_when_steady`` needs a block of one.  Raises
    ValueError for configs that do not share an operator.
    """
    return _run_block(cfgs, u0s)


def _run_block(cfgs, u0s) -> list[RunResult]:
    """:func:`run_block`, called straight from :func:`run` or :func:`run_block`,
    so that a StabilityWarning two frames up names their caller."""
    cfgs = list(cfgs)
    if not cfgs or len(cfgs) != len(u0s):
        raise ValueError(f"need one initial field per config, got {len(cfgs)} configs and {len(u0s)} fields")
    if any(_block_key(cfg) != _block_key(cfgs[0]) for cfg in cfgs):
        raise ValueError(
            "a block's configs must agree on n, alpha, dt, t_end, snapshot times, "
            "flux law, kappa and boundary kinds"
        )
    if len(cfgs) > 1 and any(cfg.stop_when_steady for cfg in cfgs):
        raise ValueError("stop_when_steady needs a block of one field")
    starts = []
    for cfg, u0 in zip(cfgs, u0s):
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.shape != (cfg.n + 1,):
            raise ConfigurationError(
                f"initial field must have {cfg.n + 1} nodes, got shape {u0.shape}"
            )
        if not np.all(np.isfinite(u0)):
            raise ConfigurationError("initial field contains non-finite values")
        if not cfg.force_inconsistent_bc:
            _check_dirichlet_consistency(cfg, u0)
        starts.append(u0)

    cfg = cfgs[0]
    ratio = stability_ratio(cfg)
    if ratio > _STABILITY_WARN_RATIO:
        warnings.warn(
            f"kappa*dt/dx^order = {ratio:.3g} exceeds the advisory threshold "
            f"{_STABILITY_WARN_RATIO:g}; the explicit step may diverge",
            StabilityWarning,
            stacklevel=3,
        )

    results = _march(cfgs, np.array(starts), leap_steps(cfg.n, cfg.n_steps, LAWS[cfg.flux].local))
    if results is None:  # each field alone on single steps, from t = 0
        results = [_march([cfg], u0[None], 0)[0] for cfg, u0 in zip(cfgs, starts)]
    return results


def _march(cfgs: list[SimConfig], u0s: np.ndarray, stride: int) -> list[RunResult] | None:
    """The results of the checked fields u0s (one row each) under the
    block's configs, marched stride steps per product (0: single steps,
    see :func:`leap_steps`), or None if the runaway guard fails in a block
    of more than one field or on a dense route."""
    cfg = cfgs[0]
    width = len(cfgs)
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    n_steps = cfg.n_steps
    snap_steps = {cfg.steps_to(t): t for t in cfg.snapshot_times}

    # One row per field.
    mass = np.empty((width, n_steps + 1))
    u_min = np.empty((width, n_steps + 1))
    u_max = np.empty((width, n_steps + 1))
    step_change = np.empty((width, n_steps))

    mass[:, 0] = [total_mass(u0) for u0 in u0s]
    u_min[:, 0] = u0s.min(axis=-1)
    u_max[:, 0] = u0s.max(axis=-1)

    snapshots: dict[int, np.ndarray] = {}
    if 0 in snap_steps:
        snapshots[0] = u0s.copy()

    # In Python floats, which overflow without a warning, and capped at the
    # largest double, so that no non-finite field passes.
    limits = [
        min(_BLOWUP_FACTOR * max(np.abs(u0).max().item(), 1.0), sys.float_info.max)
        for u0 in u0s
    ]
    lowest = min(limits)
    limits = np.array(limits)[:, None]
    u = u0s
    steps_taken = n_steps
    steady_time = None

    # Each field's boundary fluxes, rates and Dirichlet values, and the
    # route that fills a block, with its per-run buffers.  The partials are
    # positional: keywords would cost some 0.3 us a step.
    faces = np.array([_boundary_fluxes(c) for c in cfgs])
    rates = _volume_rates(cfg)
    values = np.array([[value for _, value in _pinned(c)] for c in cfgs])
    pinned = [(node, values[:, j]) for j, (node, _) in enumerate(_pinned(cfg))]
    shifts = None if LAWS[cfg.flux].advection else u0s[:, :1]
    if stride > 1:
        leaps = _block_rows(cfg.n, stride) // stride
        fill = partial(
            _leap_fill, *_leap_operators(cfgs, table, stride, shifts), shifts, stride,
            np.empty((leaps + 1, cfg.n + 1)), np.empty((leaps, cfg.n + 1)),
            np.empty((leaps, (stride - 1) * (cfg.n + 2))),
        )
    elif stride:
        source = partial(
            _product_fluxes, _face_operator(cfg, table)[0], faces, shifts,
            np.empty_like(u0s), np.empty_like(faces),
        )
        fill = partial(_step_fill, source)
    else:
        fill = partial(_step_fill, partial(_kernel_fluxes, cfg, table, faces))
    most = _block_rows(cfg.n, stride)
    block = stride if stride > 1 else most  # the first block: one leap
    # A block of m steps is the first width * m rows, field by field.
    buffer = np.empty((width * most, cfg.n + 1))
    deltas = np.empty_like(buffer)
    dx = cfg.dx
    k = 0
    # A field that overflows past a blow-up is reported below as an
    # InstabilityError; numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_steps:
            m = min(block, n_steps - k)
            rows = buffer[: width * m]
            fill(u, rows, rates, pinned)

            # One pass over the block's rows: step change and steady stop,
            # runaway guard, mass, extrema and snapshots.  The reductions
            # call the ufuncs' own, without the wrappers of the ndarray
            # methods: the same sums in fewer microseconds.
            delta = deltas[: width * m]
            np.subtract(rows[1:], rows[:-1], out=delta[1:])
            np.subtract(rows[::m], u, out=delta[::m])  # each field's first step
            change = np.maximum.reduce(np.abs(delta, out=delta), axis=1)
            quiet = cfg.stop_when_steady and (change < cfg.steady_eps).any()
            if quiet:  # a block of one field
                m = int((change < cfg.steady_eps).argmax()) + 1
                rows, change = rows[:m], change[:m]
            lo, hi = np.minimum.reduce(rows, axis=1), np.maximum.reduce(rows, axis=1)
            peak = np.maximum(hi, -lo)
            # Under the lowest field limit the block passes at once; else
            # each field is held to its own limit.
            if not np.maximum.reduce(peak) <= lowest and not (peak.reshape(width, m) <= limits).all():
                if width > 1 or stride:
                    return None
                j = int(np.argmin(peak <= lowest))
                detail = (
                    f"|u| reached {peak[j]:.3g}, over 1e12 x initial scale"
                    if np.isfinite(peak[j]) else "non-finite value produced"
                )
                raise InstabilityError(k + j + 1, (k + j + 1) * cfg.dt, detail)
            mass[:, k + 1 : k + m + 1] = (dx * (
                0.5 * rows[:, 0] + np.add.reduce(rows[:, 1:-1], axis=1) + 0.5 * rows[:, -1]
            )).reshape(width, m)
            u_min[:, k + 1 : k + m + 1] = lo.reshape(width, m)
            u_max[:, k + 1 : k + m + 1] = hi.reshape(width, m)
            step_change[:, k : k + m] = change.reshape(width, m)
            for ks in snap_steps:
                if k < ks <= k + m:
                    snapshots[ks] = rows[ks - k - 1 :: m].copy()
            u = rows[m - 1 :: m].copy()
            k += m
            block = min(2 * block, most)
            if quiet:
                steps_taken = k
                steady_time = k * cfg.dt
                break

    # Later snapshot times inherit the frozen steady field.
    for k in snap_steps:
        if k > steps_taken:
            snapshots[k] = u.copy()
    end = steps_taken + 1
    ordered = sorted(snap_steps.items())
    results = []
    for i, cfg in enumerate(cfgs):
        trace = DiagnosticTrace(
            t=np.arange(end) * cfg.dt, mass=mass[i, :end],
            u_min=u_min[i, :end], u_max=u_max[i, :end], step_change=step_change[i, :steps_taken],
        )
        decomposition = None
        if cfg.flux is FluxKind.RIEMANN_LIOUVILLE:
            decomposition = (
                face_fluxes(u[i], FluxKind.CAPUTO, table, kappa=cfg.kappa),
                cfg.kappa * apparent_advection(u[i, 0], table),
            )
        results.append(RunResult(
            cfg=cfg,
            snapshot_times=tuple(t for _, t in ordered),
            snapshots=[snapshots[k][i] for k, _ in ordered],
            trace=trace,
            final=u[i],
            steps_taken=steps_taken,
            steady_stop_time=steady_time,
            decomposition=decomposition,
        ))
    return results
