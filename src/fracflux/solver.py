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

Every route of :func:`run` makes each new field by one update,
:func:`_advance`, the only code that moves a field: the field before it
plus the volume rates times the face differences of fluxes at all n + 2
faces, with the Dirichlet nodes assigned.  Every law is linear
and every boundary condition affine, so a field's state x, its n + 1
nodal values followed by its two boundary values, steps by one matrix T,
and below the FFT crossover (see :func:`leap_steps`) one matrix-vector
product gives, for j = 1..K, the face fluxes summed over the next j
steps, G (I + T + ... + T^(j-1)) x, with G the face-flux operator F
extended to the state.  The stacked leap carries each field from leap
end to leap end, one small product with the rows for j = K each, and
then fills the K - 1 fields between the ends of many leaps with one
matrix-matrix product of the rows for j < K.  Where K would be small,
one loop, :func:`_step_fill`, takes a step at a time with the fluxes
written inline: the product F u, plus g where a fixed-flux
end prescribes a nonzero flux, or, from the FFT crossover up and for the
local law wherever it does not leap, each field's
:func:`~fracflux.flux.face_fluxes` inside its boundary fluxes g.
The interior differences telescope, so the mass moves only through the
ends, to round-off.  The boundary treatment, g, the volume rates and the
Dirichlet nodes, comes from one place, :func:`_boundaries`, for every
route, for :func:`step`, the same update for one field given its
interior fluxes, and for the initial field's Dirichlet check.  Every
route writes the fields it makes into one block, (field, step, node),
whose step 0 holds the fields it starts from: u0, or the last block's
last step.  One vectorised pass over each block's steps 0..m is the only
writer of the per-step record, (field, step, quantity) of mass, min, max
and step change, and of the snapshots, which share one (time, field,
node) array; a step that ends one block and starts the next is recorded
twice, with the same bits.  The per-step record holds a few thousand
steps and is reduced as it fills into each field's :class:`RunRecord`,
whose size n_steps fixes, so a run's memory does not grow with its
length.  Only a run asked for it keeps every step, each field's
:class:`DiagnosticTrace`.

A run keeps one route to its end and is marched once: a field that fails
the runaway guard raises from the route that ran, at the earliest failing
step.  Only where a product's sums overflow, a step before single steps'
fields would, is the block filled again from its own step 0 on single
steps, which the run then keeps.

:func:`run_block` marches several fields whose configurations differ
only in their boundary values, and so share the step operator: one
recorder pass serves the whole block, and where one product with F makes
one step, a matrix-matrix product makes it for every field at once.
:func:`run` is a block of one.  The stacked leap's P is cached per weight
table (:func:`_stacked_operator`): a block, and every later run that
leaps with the same P while it is among the :data:`OPERATOR_CACHE_SIZE`
most recently used, reads it without building it again.  F costs a small
part of a run, so the K = 1 route builds it for every run.
"""

from __future__ import annotations

import bisect
import math
import numbers
import sys
import threading
import warnings
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import ClassVar

import numpy as np

from . import __version__
from .flux import LAWS, FluxKind, FluxLaw, apparent_advection, face_fluxes
from .weights import FFT_MIN_N, GrunwaldTable, build_table

# Abort threshold for runaway explicit steps, relative to the initial
# magnitude (floored at 1 so an all-zero start still has a usable scale).
_BLOWUP_FACTOR = 1e12

# A StabilityWarning fires when stability_ratio exceeds this value.
_STABILITY_WARN_RATIO = 0.5

# Below the FFT crossover run() leaps K steps per matrix-vector product
# with the last n + 2 rows of the leap operator, K steps of (n+1)^2
# doubles each held within LEAP_BYTES, where that allows K >= LEAP_MIN_STEPS:
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

# How many stacked P _stacked_operator keeps, the most recently used, each
# of at most LEAP_BYTES.
# The bundled experiments make 19 stacked leaps from 6 distinct P; in the
# seed-permuted order of benchmark `reproduce` (seeds 1-40) a cache of
# 1 / 2 / 3 / 4 / 5 entries leaves a median of 15 / 11 / 8 / 6 / 6 builds
# a pass, of 0.75 ms each at n = 100, K = 15 (2-vCPU x86 host, one
# OpenBLAS thread).  With 3 entries `reproduce` took 0.202 -> 0.188 s a
# pass and its peak RSS 43.9 -> 45.6 MB (medians of 20 pairs).  A fourth
# entry would save two builds more, under 1% of a pass, for up to 1.3 MB.
OPERATOR_CACHE_SIZE = 3

# Fields per recorded block, per field.  On the K = 1 and FFT routes:
# BLOCK_ROWS, or fewer where that many would hold more than BLOCK_BYTES
# (from n = 512 up), so that a block and its step differences add little
# to a run's peak memory.  On the stacked leap a block is a chunk of whole
# leaps, as many as BLOCK_BYTES holds (10 leaps of K = 15 at n = 100) and
# at least one.  The first chunk is one leap and each next one doubles up
# to that size, so a run that goes quiet at once fills one leap only.
BLOCK_ROWS = 32
BLOCK_BYTES = 131_072

# The record's windows per field: step 0, then at most TRACE_WINDOWS - 1
# windows of ceil(n_steps / (TRACE_WINDOWS - 1)) steps (see RunRecord).
TRACE_WINDOWS = 1_000

# Steps of per-step record a run holds, or one block's where that is more,
# before it reduces them into its RunRecord: up to 128 KiB per field.  One
# reduction of 150 steps took 48 us (2-vCPU x86 host), and the bundled
# experiments fill 265 blocks, most of 150 steps: reduced block by block
# they would add a tenth to a `reproduce` pass, in 20 reductions about 1%.
RECORD_ROWS = 4096

# How far a field may leave the min and max of its step 0 before the record
# notes its first violation: max_principle_check's default tolerance.
BOUND_TOL = 1e-6


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
    boolean, a number field only a number, an int field an integral one,
    and a field that defaults to None (the scenario name) a string or null."""
    if default is None:
        if value is None or isinstance(value, str):
            return value
        raise TypeError(f"expected a string or null, got {value!r}")
    if (
        isinstance(default, bool) != isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or type(default) is int and not float(value).is_integer()
    ):
        raise TypeError(f"expected {type(default).__name__}, got {value!r}")
    return type(default)(value)


def _object(data, keys=None, ignored=()) -> dict:
    """data, checked to be a JSON object with no keys but keys (any keys
    where None) and the ignored ones."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {data!r}")
    unknown = sorted(set(data) - set(keys or data) - set(ignored))
    if unknown:
        raise ConfigurationError(f"unknown key(s) {', '.join(map(repr, unknown))}; valid keys: {', '.join(keys)}")
    return data


def boundary_condition(kind: str, value: float) -> BoundaryCondition:
    """Build a boundary condition from its kind name and value."""
    cls = BOUNDARY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"unknown boundary kind {kind!r}: must be a string, one of {', '.join(BOUNDARY_KINDS)}")
    try:
        value = _decode_scalar(0.0, value)
    except (TypeError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ConfigurationError(f"bad {kind} boundary value: {exc}") from None
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
        data = _object(data, ("left", "right"))
        left, right = (
            boundary_condition(side["kind"], side["value"])
            for side in (_object(data[name], ("kind", "value")) for name in ("left", "right"))
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
        data = _object(data, ("profile", "params"))
        if not isinstance(data.get("profile", ""), str):
            raise TypeError(f"expected a profile name, got {data['profile']!r}")
        params = _object(data.get("params", {}))  # the profile names its own
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
        for name in ("dt", "t_end", "kappa", "steady_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        try:
            ratio = stability_ratio(self)
        except ZeroDivisionError:  # dx ** order underflows to 0
            ratio = math.inf
        if not math.isfinite(ratio):
            raise ConfigurationError(f"kappa*dt/dx^order = {ratio:g} is not finite")
        if self.n_steps < 1:
            raise ConfigurationError("t_end shorter than one time step")
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
        :class:`ConfigurationError` where t / dt overflows, or reaches
        2**53, past which a double no longer holds every step count."""
        steps = t / self.dt
        if not (math.isfinite(steps) and steps < 2.0**53):
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
        _object(data, by_name, _IGNORED_KEYS)
        kwargs = {name: cls.decode(name, data[name]) for name in by_name if name in data}
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

    @classmethod
    def decode(cls, name: str, value):
        """The value of the field name from its JSON form.  Raises
        :class:`ConfigurationError`, naming the key, for a value of the
        wrong type or shape."""
        try:
            if name in _FIELD_CODECS:
                return _FIELD_CODECS[name][1](value)
            # the class attribute of a field with a plain default is that default
            return _decode_scalar(getattr(cls, name), value)
        except KeyError as exc:
            raise ConfigurationError(f"{name!r} is missing key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
            raise ConfigurationError(f"bad value for {name!r}: {exc}") from None

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
class DiagnosticTrace:
    """Per-step record of a run: times, discrete mass and field extrema.

    All arrays cover the initial state plus one entry per completed step;
    step_change is the max-norm change of each step, aligned with t[1:].
    """

    t: np.ndarray
    mass: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    step_change: np.ndarray


@dataclass
class RunRecord:
    """What a run keeps of its steps, of a size fixed by n_steps alone.

    The steps 0..N the run takes are cut into windows: step 0 alone, then
    windows of ceil(n_steps / 999) steps of the configured n_steps, the
    last ending at step N, so at most :data:`TRACE_WINDOWS` in all.  t and
    mass hold each window's last time and mass, u_min and u_max the least
    field minimum and the greatest field maximum over its steps.  Of all
    the steps: first_violation, the first whose min or max leaves step 0's
    by more than :data:`BOUND_TOL` (the step
    :func:`~fracflux.diagnostics.max_principle_check` finds for those
    bounds); quiet_step, the first whose max-norm change is below
    steady_eps (that of :func:`~fracflux.diagnostics.steady_state_time`);
    max_mass_change, max |M_k - M_0|; and final_mass, M_N.
    """

    t: np.ndarray
    mass: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    first_violation: int | None
    quiet_step: int | None
    max_mass_change: float
    final_mass: float


def total_mass(u) -> float | np.ndarray:
    """Discrete integral over [0, 1] of the nodal values u along the last
    axis, one per field: half-weight end nodes (half-size end volumes),
    full weight in the interior.  The nodes are equispaced, so
    dx = 1 / (number of nodes - 1)."""
    arr = np.asarray(u, dtype=np.float64)
    dx = 1.0 / (arr.shape[-1] - 1)
    return dx * (0.5 * arr[..., 0] + np.add.reduce(arr[..., 1:-1], axis=-1) + 0.5 * arr[..., -1])


@dataclass
class RunResult:
    """Snapshots plus the diagnostics of a completed run.

    Every time is a step count times dt: the final field sits at
    ``steps_taken * cfg.dt``.  ``record`` is the run's fixed-size
    :class:`RunRecord`; ``trace``, the exact per-step
    :class:`DiagnosticTrace`, is None unless the run was asked for it
    (``full_trace=True``).  A result holds the march only; what is a
    function of a field, such as the rl law's flux split, is derived from
    it.
    """

    cfg: SimConfig
    snapshot_times: tuple[float, ...]
    snapshots: list[np.ndarray]
    record: RunRecord
    final: np.ndarray
    steps_taken: int
    steady_stop_time: float | None = None
    trace: DiagnosticTrace | None = None


def stability_ratio(cfg: SimConfig) -> float:
    """kappa * dt / dx**order, the advisory explicit-step ratio.

    The order is the flux law's own (see :data:`fracflux.flux.LAWS`):
    2 for the local gradient law and 1 + alpha for the others.
    """
    return cfg.kappa * cfg.dt / cfg.dx ** LAWS[cfg.flux].order(cfg.alpha)


def step(u: np.ndarray, q: np.ndarray, cfg: SimConfig, step_index: int = 0) -> np.ndarray:
    """Advance the nodal values u one explicit step, given the interior
    face fluxes q; step_index dates an :class:`InstabilityError`."""
    if u.shape != (cfg.n + 1,):
        raise ValueError(f"field must have {cfg.n + 1} nodes, got shape {u.shape}")
    if q.size != u.size - 1:
        raise ValueError(f"expected {u.size - 1} face fluxes, got {q.size}")
    faces, rates, pinned = _boundaries([cfg])
    faces[0, 1:-1] = q
    nxt = np.empty_like(u)
    _advance(faces[:, :-1], faces[:, 1:], u, rates, pinned, nxt[None])  # a block of one field
    if not np.isfinite(nxt).all():
        raise InstabilityError(step_index, step_index * cfg.dt, "non-finite value produced")
    return nxt


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


def _boundaries(cfgs: list[SimConfig]) -> tuple[np.ndarray, np.ndarray, list]:
    """(faces, rates, pinned), the discrete boundary treatment of a block
    of configs that differ only in their boundary values: each field's
    fluxes at the n + 2 faces of the zero field (a fixed-flux end's
    prescribed flux at its boundary face, 0 elsewhere); the volume rates
    of :func:`_rates`, by which a node gains the flux through its left
    face less that through its right; and (node, one value per field)
    for each Dirichlet end."""
    cfg = cfgs[0]
    faces = np.zeros((len(cfgs), cfg.n + 2))
    pinned = []
    for node, face, side in ((0, 0, "left"), (cfg.n, -1, "right")):
        values = np.array([getattr(c.bc, side).value for c in cfgs])
        if isinstance(getattr(cfg.bc, side), Dirichlet):
            pinned.append((node, values))
        else:
            faces[:, face] = values
    return faces, _rates(cfg.dt, cfg.dx, cfg.n), pinned


def _rates(dt: float, dx: float, n: int) -> np.ndarray:
    """The volume rates of n intervals of width dx: dt over each node's
    control-volume width, dt / dx inside and 2 dt / dx at the half-size
    end volumes."""
    rates = np.full(n + 1, dt / dx)
    rates[[0, -1]] *= 2.0
    return rates


def _face_operator(table: GrunwaldTable, law: FluxLaw, kappa: float) -> np.ndarray:
    """F with F @ u the fluxes at all n + 2 faces of u, to round-off, less
    the boundary fluxes of :func:`_boundaries`.

    Face 0 is the left boundary, faces 1..n are the interior faces of
    :func:`~fracflux.flux.face_fluxes`, kappa (T(W) G + a e_0^T) u with G
    the gradient and a the apparent advection of a unit left value, and
    face n + 1 is the right boundary, whose rows are zero.  F does not
    depend on the boundary conditions.  Needs the dense memory matrix,
    so n < FFT_MIN_N.
    """
    n = table.n
    memory = np.eye(n) if law.local else table.toeplitz
    f = np.zeros((n + 2, n + 1))
    inner = f[1:-1]
    inner[:, :-1] = memory
    inner[:, 1:] -= memory
    inner /= table.dx
    if law.advection:
        inner[:, 0] += apparent_advection(1.0, table)
    inner *= kappa
    return f


def _leap_operator(f: np.ndarray, rates: np.ndarray, nodes: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, P), the stacked leap of K = k steps on a field's state, from the
    face operator F, the volume rates of :func:`_rates` and the Dirichlet
    nodes of :func:`_boundaries`.

    The state x = (u - s, left value, right value) of a field u has n + 3
    entries: u less a shift s to which its law is blind (0 for rl), then
    its two boundary values, a Dirichlet value lowered by s.  G, F with the
    unit boundary-face column of each fixed-flux end appended, gives the
    fluxes at the n + 2 faces from x; T steps x, each Dirichlet row copying
    its tail entry and the two tail rows the identity.  P stacks
    P_j = G (I + T + ... + T^(j-1)), j = 1..k, each new term one matrix
    product from the last: (x @ P.T).reshape(k, n + 2)[j - 1] sums the face
    fluxes of the next j steps, and the field j steps on is u plus the
    volume rates times their face differences, off the Dirichlet nodes.
    So P starts with G, and it depends on the physics alone: n, alpha, dt,
    kappa, the law, the boundary kinds and k.  A run does not call this
    itself: it reads P from :func:`_stacked_operator`, which builds it once
    for every run that shares these while it stays cached.
    """
    n = rates.size - 1
    ends = ((0, 0, n + 1), (n, n + 1, n + 2))  # (node, face, tail entry)
    g = np.zeros((n + 2, n + 3))
    g[:, : n + 1] = f
    for node, face, tail in ends:
        if node not in nodes:
            g[face, tail] = 1.0
    t = np.eye(n + 3)
    t[: n + 1] += (g[:-1] - g[1:]) * rates[:, None]
    for node, _, tail in ends:
        if node in nodes:
            t[node] = 0.0
            t[node, tail] = 1.0
    fluxes = np.empty((k, n + 2, n + 3))
    fluxes[0] = term = g
    for j in range(1, k):
        term = term @ t
        np.add(fluxes[j - 1], term, out=fluxes[j])
    return t, fluxes.reshape(-1, n + 3)


# _stacked_operator's entries, its arguments -> P, least recently used first.
_operators: dict[tuple, np.ndarray] = {}
_operators_lock = threading.Lock()


def _stacked_operator(
    table: GrunwaldTable, law: FluxLaw, kappa: float, dt: float, nodes: tuple, k: int,
) -> np.ndarray:
    """P of :func:`_leap_operator`: K = k steps of dt under law, a row of
    LAWS, and kappa on table's grid, with Dirichlet ends at nodes;
    read-only and shared by every run that leaps with it.

    The key is the arguments: the table, which fixes alpha, dx and n, by
    identity, and the law's row, so parsimonious shares caputo's.  No
    boundary value or shift enters it.  The key holds its table, so the P
    of a table built afresh (as after ``build_table.cache_clear()``) is
    built afresh.  The :data:`OPERATOR_CACHE_SIZE` most recently used are
    kept.
    """
    key = (table, law, kappa, dt, nodes, k)
    with _operators_lock:
        stacked = _operators.pop(key, None)
        if stacked is None:
            # Room first, so that no more than the cache's size are ever held.
            while len(_operators) >= OPERATOR_CACHE_SIZE:
                del _operators[next(iter(_operators))]
            f = _face_operator(table, law, kappa)
            _, stacked = _leap_operator(f, _rates(dt, table.dx, table.n), nodes, k)
            stacked.flags.writeable = False
        _operators[key] = stacked  # now the most recently used
    return stacked


def _advance(
    left: np.ndarray, right: np.ndarray, u: np.ndarray, rates: np.ndarray, pinned: list, out: np.ndarray,
) -> None:
    """out = u + rates (left - right) with the Dirichlet nodes assigned:
    the fields u moved on by the fluxes through their n + 2 faces, left
    and right the views of those fluxes without the last face and without
    the first, along the last axis, with u broadcast against out.  pinned
    holds (node, a value per field of out, or one for all).  The one code
    that moves a field, on every route and in :func:`step`."""
    np.subtract(left, right, out=out)
    out *= rates
    out += u
    for node, values in pinned:
        out[..., node] = values


def _step_fill(
    cfg: SimConfig, table: GrunwaldTable, ft: np.ndarray | None, shifts: np.ndarray | None,
    faces: np.ndarray, block: np.ndarray, rates: np.ndarray, pinned: list,
) -> None:
    """Fill the block, (field, step, node), from its step 0 on, a step at
    a time: every field's fluxes at its n + 2 faces, then the update of
    :func:`_advance`, so the interior fluxes still telescope.
    The fluxes are (u - shifts) @ ft, u alone where shifts is None, plus
    the boundary fluxes faces where a fixed-flux end prescribes a nonzero
    one; or, where ft is None, each field's face_fluxes inside its row of
    faces, whose ends hold them.  pinned holds (node, one value per
    field)."""
    by_step = block.swapaxes(0, 1)  # (step, field, node)
    summed = faces if ft is None else np.empty_like(faces)
    left, right = summed[..., :-1], summed[..., 1:]
    offset = faces.any()
    for u, out in zip(by_step, by_step[1:]):
        if ft is None:
            for field, fluxes in zip(u, summed):
                fluxes[1:-1] = face_fluxes(field, cfg.flux, table, kappa=cfg.kappa)
        else:  # out holds the shifted fields until the update overwrites it
            np.matmul(u if shifts is None else np.subtract(u, shifts, out=out), ft, out=summed)
            if offset:
                summed += faces
        _advance(left, right, u, rates, pinned, out)


def _leap_fill(
    stacked: np.ndarray, shifts: np.ndarray, k: int, states: np.ndarray, inner: np.ndarray,
    block: np.ndarray, rates: np.ndarray, pinned: list,
) -> None:
    """:func:`_step_fill` on the stacked leap P of :func:`_leap_operator`
    with K = k, in leaps of k steps, the last of which may be shorter.
    Field by field, the leap ends come one after the other, each written
    at its step from the leap's start moved on by one GEMV of its state
    (the field less its shift, then its boundary values) with the n + 2
    rows of P that sum the leap's steps.  Then one GEMM of the leap
    starts' states with the rows of P for 1..k - 1 steps gives the fields
    between the ends.  One GEMM per field, so a field of a block equals
    its solo run bit for bit.  inner is a per-run buffer, (leap, j, face),
    of the face fluxes summed over j = 1..k - 1 steps of each leap, and
    states holds leaps states per field, their tails written once per run."""
    m = block.shape[1] - 1
    size = rates.size + 1  # faces
    full, last = divmod(m, k)  # whole leaps, and the steps of a short one
    leaps = full + (last > 0)
    between = stacked[: (k - 1) * size].T
    left, right = inner[..., :-1], inner[..., 1:]
    for i, field in enumerate(block):
        pins = [(node, values[i]) for node, values in pinned]
        state = states[i, :leaps]
        for j in range(leaps):
            steps = k if j < full else last
            np.subtract(field[j * k], shifts[i], out=state[j, :-2])
            end = stacked[(steps - 1) * size : steps * size] @ state[j]
            _advance(end[:-1], end[1:], field[j * k], rates, pins, field[j * k + steps])
        # The face differences come after the product, so the interior
        # fluxes still telescope.
        np.matmul(state, between, out=inner[:leaps].reshape(leaps, -1))
        inside = field[1 : full * k + 1].reshape(full, k, size - 1)
        _advance(left[:full], right[:full], field[: full * k : k, None], rates, pins, inside[:, :-1])
        if last:
            short = np.s_[full, : last - 1]  # the short leap's sums
            _advance(left[short], right[short], field[full * k], rates, pins, field[full * k + 1 : -1])


def _note_first(found: np.ndarray, hits: np.ndarray, step: int) -> None:
    """Where found, one step per field, is still -1 and the field's row of
    hits, (field, step) from step on, holds a True, set it to that step."""
    new = (found < 0) & hits.any(axis=1)
    found[new] = step + hits[new].argmax(axis=1)


class _Recorder:
    """The :class:`RunRecord` of each field of a block, reduced from its
    per-step record a stretch of steps at a time, in arrays of a size
    fixed by n_steps."""

    def __init__(self, cfgs: list[SimConfig], u0s: np.ndarray):
        n_steps = cfgs[0].n_steps
        width = len(cfgs)
        self.every = -(-n_steps // (TRACE_WINDOWS - 1))  # steps per window
        windows = 1 + -(-n_steps // self.every)
        # Per window and field: the mass at its last step so far, its min
        # and its max.
        self.mass = np.empty((width, windows))
        self.low = np.full((width, windows), np.inf)
        self.high = np.full((width, windows), -np.inf)
        self.lower = np.minimum.reduce(u0s, axis=-1)[:, None] - BOUND_TOL
        self.upper = np.maximum.reduce(u0s, axis=-1)[:, None] + BOUND_TOL
        self.eps = np.array([cfg.steady_eps for cfg in cfgs])[:, None]
        self.violation = np.full(width, -1)  # -1: none yet
        self.quiet = np.full(width, -1)
        self.mass_change = np.zeros(width)

    def add(self, stretch: np.ndarray, k: int) -> None:
        """Take in stretch, the per-step record, (field, step, quantity) of
        mass, min, max and change, of steps k..k + m.  Step k was the last
        of the stretch before, if any: taken in again, it leaves the record
        as it was."""
        m = stretch.shape[1] - 1
        every = self.every
        first = (k + every - 1) // every  # the window of step k
        # The windows' first and last steps, from k, the first window's
        # first clipped to k
        heads = np.arange((first - 1) * every + 1 - k, m + 1, every)
        tails = np.minimum(heads + (every - 1), m)
        heads[0] = 0
        windows = np.s_[:, first : first + heads.size]
        mass, lo, hi = stretch[..., 0], stretch[..., 1], stretch[..., 2]
        np.minimum(self.low[windows], np.minimum.reduceat(lo, heads, axis=1), out=self.low[windows])
        np.maximum(self.high[windows], np.maximum.reduceat(hi, heads, axis=1), out=self.high[windows])
        self.mass[windows] = mass[:, tails]
        change = np.maximum.reduce(np.abs(mass - self.mass[:, :1]), axis=1)  # M_0 is window 0's
        np.maximum(self.mass_change, change, out=self.mass_change)
        if (self.violation < 0).any():
            _note_first(self.violation, (lo < self.lower) | (hi > self.upper), k)
        if (self.quiet < 0).any():
            _note_first(self.quiet, stretch[:, 1:, 3] < self.eps, k + 1)

    def record(self, i: int, steps: int, dt: float) -> RunRecord:
        """Field i's record of a run of steps steps of dt."""
        used = (steps + self.every - 1) // self.every + 1  # the windows through that step
        ends = np.minimum(np.arange(used) * self.every, steps)  # their last steps
        violation, quiet = (int(step) if step >= 0 else None for step in (self.violation[i], self.quiet[i]))
        return RunRecord(
            ends * dt, self.mass[i, :used], self.low[i, :used], self.high[i, :used],
            violation, quiet, float(self.mass_change[i]), float(self.mass[i, used - 1]),
        )


def _block_key(cfg: SimConfig) -> tuple:
    """What the configs of one block must share: the step operator (up to
    the boundary values) and the steps and snapshot times."""
    return (
        cfg.n, cfg.alpha, cfg.dt, cfg.t_end, cfg.snapshot_times, cfg.flux, cfg.kappa,
        cfg.bc.left.kind, cfg.bc.right.kind,
    )


def run(cfg: SimConfig, u0, *, full_trace: bool = False) -> RunResult:
    """March the initial nodal values u0 forward from t = 0 under cfg and
    collect snapshots and the run's record.

    Deterministic: identical configurations produce bit-identical results.
    With ``full_trace`` the result also holds the exact per-step
    :class:`DiagnosticTrace`, one entry per step taken plus the initial
    state; without it the run keeps no per-step array.
    Raises :class:`InstabilityError` if the field turns non-finite or its
    magnitude exceeds 1e12 times the initial scale, and
    :class:`ConfigurationError` for Dirichlet data that contradicts the
    initial profile (unless ``force_inconsistent_bc`` is set).  The same
    as ``run_block([cfg], [u0], full_trace=full_trace)[0]``.
    """
    return _march([cfg], [u0], full_trace)[0]


def run_block(cfgs, u0s, *, full_trace: bool = False) -> list[RunResult]:
    """:func:`run` for several fields at once: the result of each config
    with its initial values, in order.

    The configs may differ only in their boundary values (the kinds must
    agree), labels, ``steady_eps`` and ``force_inconsistent_bc``, so the
    fields share one step operator, built once.  Each field's results
    equal its solo :func:`run` bit for bit, except where one product with
    F makes a step (K = 1 in :func:`leap_steps`): there one matrix-matrix
    product serves every field and sums in its own order, so they agree
    to round-off.  Each field is held to its own runaway limit.  If any
    field fails it, the block raises one :class:`InstabilityError`, for
    the earliest failing step and, of the fields that fail there, the
    lowest index, with the message the guard writes for that field.
    ``stop_when_steady`` needs a block of one.  Raises
    ValueError for configs that do not share an operator.
    """
    return _march(cfgs, u0s, full_trace)


def _march(cfgs, u0s, full_trace: bool) -> list[RunResult]:
    """:func:`run_block`, called straight from :func:`run` or
    :func:`run_block`, so that a StabilityWarning two frames up names
    their caller.

    The route takes stride = :func:`leap_steps` steps per product (0:
    single steps).  Where the guard's earliest failure is a non-finite
    value on a product route, the block is filled again from its step 0
    with each field's face_fluxes, and the run keeps single steps from
    there.  The record is reduced by the block pass alone, step 0 of the
    run included: no step has code of its own.  A steady stop ends the
    run at the block's quiet step k, and the snapshot times past k take
    the field there."""
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
    faces, rates, pinned = _boundaries(cfgs)
    starts = []
    for i, (cfg, u0) in enumerate(zip(cfgs, u0s)):
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.shape != (cfg.n + 1,):
            raise ConfigurationError(
                f"initial field must have {cfg.n + 1} nodes, got shape {u0.shape}"
            )
        if not np.all(np.isfinite(u0)):
            raise ConfigurationError("initial field contains non-finite values")
        for node, values in pinned:
            val, value = u0[node], values[i].item()
            if not cfg.force_inconsistent_bc and abs(val - value) > 1e-12 * max(1.0, abs(value)):
                raise ConfigurationError(
                    f"initial value {val!r} at the {'right' if node else 'left'} end does not "
                    f"match the Dirichlet value {value!r}; pass force_inconsistent_bc=True "
                    "to run anyway"
                )
        starts.append(u0)
    u0s = np.array(starts)

    cfg = cfgs[0]
    ratio = stability_ratio(cfg)
    if ratio > _STABILITY_WARN_RATIO:
        warnings.warn(
            f"kappa*dt/dx^order = {ratio:.3g} exceeds the advisory threshold "
            f"{_STABILITY_WARN_RATIO:g}; the explicit step may diverge",
            StabilityWarning,
            stacklevel=3,
        )

    width = len(cfgs)
    stride = leap_steps(cfg.n, cfg.n_steps, LAWS[cfg.flux].local)
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    n_steps = cfg.n_steps
    snap_steps = [cfg.steps_to(t) for t in cfg.snapshot_times]  # sorted, distinct: see SimConfig
    snapshots = np.empty((len(snap_steps), width, cfg.n + 1))

    # In Python floats, which overflow without a warning, and capped at the
    # largest double, so that no non-finite field passes.
    limits = [
        min(_BLOWUP_FACTOR * max(np.abs(u0).max().item(), 1.0), sys.float_info.max)
        for u0 in u0s
    ]
    lowest = min(limits)
    limits = np.array(limits)[:, None]

    recorder = _Recorder(cfgs, u0s)
    most = _block_rows(cfg.n, stride)
    block = stride if stride > 1 else most  # the first block: one leap
    # A block of m steps is (field, step, node) over steps 0..m of the
    # buffer; its step 0 holds the fields it starts from.
    buffer = np.empty((width, most + 1, cfg.n + 1))
    buffer[:, 0] = u0s
    deltas = np.empty_like(buffer)  # the change into step j at step j
    # The per-step record, (field, step, quantity): mass, min, max and the
    # change into the step, step 0's unused.  It holds the steps from
    # k - at on, block after block, up to RECORD_ROWS (no more than the
    # run's) or one block, until the recorder takes them in; a full trace
    # keeps a copy of each stretch taken.
    held = max(min(RECORD_ROWS, n_steps), most)
    spans = np.empty((width, held + 1, 4))
    kept = []

    def take(stretch: np.ndarray, k: int) -> None:
        recorder.add(stretch, k)
        if full_trace:
            kept.append(stretch[:, 1 if kept else 0 :].copy())

    k = at = 0
    # A field that overflows past a blow-up, or an operator built from an
    # overflowing kappa or dt, is reported below as an InstabilityError;
    # numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        # The route that fills a block, with its per-run buffers.  Each
        # field is shifted by its left value at t = 0, to which its law is
        # blind, except under rl, which is not.
        law = LAWS[cfg.flux]
        blind = not law.advection
        shifts = u0s[:, :1] if blind else np.zeros((width, 1))
        if stride > 1:
            nodes = tuple(node for node, _ in pinned)
            stacked = _stacked_operator(table, law, cfg.kappa, cfg.dt, nodes, stride)
            tails = faces[:, [0, -1]]  # the fixed-flux values, and the Dirichlet ones less the shift
            for node, values in pinned:
                tails[:, -1 if node else 0] = values - shifts[:, 0]
            leaps = most // stride
            states = np.empty((width, leaps, cfg.n + 3))
            states[..., -2:] = tails[:, None]
            fill = partial(
                _leap_fill, stacked, shifts, stride, states, np.empty((leaps, stride - 1, cfg.n + 2)),
            )
        else:  # single steps, with F's transpose taken once per run where they take its product
            ft = _face_operator(table, law, cfg.kappa).T if stride else None
            fill = partial(_step_fill, cfg, table, ft, shifts if blind else None, faces)
        while k < n_steps:
            m = min(block, n_steps - k)
            if at + m > held:  # the recorder takes what is held, and step k starts afresh
                take(spans[:, : at + 1], k - at)
                spans[:, 0] = spans[:, at]
                at = 0
            rows, span = buffer[:, : m + 1], spans[:, at : at + m + 1]
            fill(rows, rates, pinned)

            # One pass over the block, steps 0..m, by (field, step): step
            # change and steady stop, runaway guard, mass, extrema and
            # snapshots.  Step 0 is u0 or the last block's last step: it
            # passes the guard, and recorded again it gets the same bits.
            # The reductions call the ufuncs' own, without the wrappers of
            # the ndarray methods: the same sums in fewer microseconds.
            delta = np.subtract(rows[:, 1:], rows[:, :-1], out=deltas[:, 1 : m + 1])
            change = np.maximum.reduce(np.abs(delta, out=delta), axis=-1, out=span[:, 1:, 3])
            quiet = cfg.stop_when_steady and (change < cfg.steady_eps).any()
            if quiet:  # a block of one field
                m = int((change < cfg.steady_eps).argmax()) + 1
                rows, span = rows[:, : m + 1], span[:, : m + 1]
            lo = np.minimum.reduce(rows, axis=-1, out=span[..., 1])
            hi = np.maximum.reduce(rows, axis=-1, out=span[..., 2])
            peak = np.maximum(hi, -lo)
            # Under the lowest field limit the block passes at once; else
            # each field is held to its own limit, and the earliest failing
            # step, at the lowest field index there, raises.
            if not np.maximum.reduce(peak, axis=None) <= lowest and not (peak <= limits).all():
                over = ~(peak <= limits)  # a NaN fails too
                j = int(over.any(axis=0).argmax())
                i = int(over[:, j].argmax())
                if stride and not np.isfinite(peak[i, j]):  # fill the block again on single steps
                    stride, fill = 0, partial(_step_fill, cfg, table, None, None, faces)
                    continue
                detail = (
                    f"|u| reached {peak[i, j]:.3g}, over 1e12 x initial scale"
                    if np.isfinite(peak[i, j]) else "non-finite value produced"
                )
                raise InstabilityError(k + j, (k + j) * cfg.dt, detail)
            span[..., 0] = total_mass(rows)
            for s, ks in enumerate(snap_steps):
                if k <= ks <= k + m:
                    snapshots[s] = rows[:, ks - k]
            buffer[:, 0] = rows[:, m]  # the next block starts where this one ends
            k += m
            at += m
            block = min(2 * block, most)
            if quiet:
                break
        take(spans[:, : at + 1], k - at)

    steps_taken, steady_time = k, k * cfg.dt if quiet else None
    u = buffer[:, 0].copy()
    snapshots[bisect.bisect(snap_steps, k) :] = u  # later times get the frozen steady field
    record = np.concatenate(kept, axis=1) if full_trace else None  # (field, step, quantity)
    results = []
    for i, cfg in enumerate(cfgs):
        results.append(RunResult(
            cfg=cfg,
            snapshot_times=cfg.snapshot_times,
            snapshots=list(snapshots[:, i]),
            record=recorder.record(i, steps_taken, cfg.dt),
            final=u[i],
            steps_taken=steps_taken,
            steady_stop_time=steady_time,
            # t, then views of the field's record: mass, min, max and change
            trace=DiagnosticTrace(
                np.arange(steps_taken + 1) * cfg.dt, *record[i, :, :3].T, record[i, 1:, 3],
            ) if full_trace else None,
        ))
    return results
