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

Every law is linear and every boundary condition affine, so below the
FFT crossover (see :func:`leap_steps`) :func:`run` advances K steps per
matrix-vector product without leaving the flux-difference form.  One
product gives, for j = 1..K, the face fluxes summed over the next j
steps, F (I + S + ... + S^(j-1)) u plus a boundary offset, with F the
face-flux operator and S the one-step matrix; the field j steps on is u
plus the rate-weighted face differences of those sums.  Where K would be
small the product is F u alone, one step per product.  The interior
differences still telescope, so the mass still moves only through the
ends, to round-off.  From the FFT crossover up each step is one
:func:`~fracflux.flux.face_fluxes` and one :func:`step`.  Every route
fills a block of fields, and the run records each block in one
vectorised pass.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
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

# Below the FFT crossover run() leaps K steps per matrix-vector product,
# with the K (n+1)^2 stacked doubles of the leap operator held within
# LEAP_BYTES, where that allows K >= LEAP_MIN_STEPS: up to n = 141.  Every
# other dense grid takes K = 1, one product with the face-flux operator F
# per step.  Fixed constants, not config keys, so the route, and hence
# every output bit, is a function of n and the step count alone.  On a
# 2-vCPU x86 host with one OpenBLAS thread, n = 100 and K = 15 took the
# bundled experiments from 0.72 to 0.32 s (benchmark `reproduce`, median
# of 10 pairs); at n = 200 a leap of K = 4 made a 300-step run slower than
# single steps (rl 9.2 -> 11.4 ms, caputo 8.6 -> 8.9 ms, operator build
# included), while K = 1 took the `alpha-sweep` benchmark from 0.33 to
# 0.17 s (median of 10 pairs).
LEAP_BYTES = 1_300_000
LEAP_MIN_STEPS = 8

# Fields per recorded block on the K = 1 and FFT routes: BLOCK_ROWS, or
# fewer where that many would hold more than BLOCK_BYTES (from n = 512 up),
# so that a block and its step differences add little to a run's peak
# memory.  The K >= 8 route records one product's K fields at a time.
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
            k = int(round(t / self.dt))
            if k < 0 or k > self.n_steps:
                raise ConfigurationError(
                    f"snapshot time {t} outside [0, {self.t_end}]"
                )
            snapped.append(k * self.dt)
        object.__setattr__(self, "snapshot_times", tuple(sorted(set(snapped))))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

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


def step(
    u: np.ndarray, q: np.ndarray, cfg: SimConfig, step_index: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Advance the nodal values u one explicit step, given the interior
    face fluxes q; step_index dates an :class:`InstabilityError`.  The new
    field goes to out if given (it must not be u), which holds it even when
    the step raises."""
    if q.size != u.size - 1:
        raise ValueError(f"expected {u.size - 1} face fluxes, got {q.size}")
    r = cfg.dt / cfg.dx

    nxt = np.empty_like(u) if out is None else out
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


def leap_steps(n: int, n_steps: int) -> int:
    """Steps per matrix-vector product on :func:`run`'s dense route for n
    intervals and a run of n_steps, or 0 where n takes the FFT route."""
    if n >= FFT_MIN_N:
        return 0
    k = min(LEAP_BYTES // (8 * (n + 1) ** 2), n_steps)
    return k if k >= LEAP_MIN_STEPS else 1


def _block_rows(n: int) -> int:
    """Fields per recorded block on the K = 1 and FFT routes for n intervals."""
    return max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 * (n + 1))))


def _pinned(cfg: SimConfig) -> list[tuple[int, float]]:
    """(node, value) of each Dirichlet end."""
    return [
        (node, bc.value)
        for node, bc in ((0, cfg.bc.left), (cfg.n, cfg.bc.right))
        if isinstance(bc, Dirichlet)
    ]


def _face_operator(cfg: SimConfig, table: GrunwaldTable) -> tuple[np.ndarray, np.ndarray]:
    """(F, g) with F @ u + g the fluxes at all n + 2 faces of u, to round-off.

    Face 0 is the left boundary, faces 1..n are the interior faces of
    :func:`~fracflux.flux.face_fluxes`, kappa (T(W) G + a e_0^T) u with G
    the gradient and a the apparent advection of a unit left value, and
    face n + 1 is the right boundary.  A fixed-flux end's face carries its
    prescribed flux in g; a Dirichlet end's face is zero.  Needs the dense
    memory matrix, so n < FFT_MIN_N.
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
    g = np.zeros(n + 2)
    for face, bc in ((0, cfg.bc.left), (-1, cfg.bc.right)):
        if isinstance(bc, FixedFlux):
            g[face] = bc.value
    return f, g


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
    cfg: SimConfig, table: GrunwaldTable, k: int, shift: float
) -> tuple[np.ndarray, np.ndarray]:
    """(P, p) giving the face fluxes of the next k steps summed, for a law
    blind to the constant shift (any value for caputo, parsimonious and
    fourier, 0 for rl).  From a field u, the fluxes through the n + 2
    faces summed over the next j steps are

        (P @ (u - shift)).reshape(k, n + 2)[j - 1] + p[j - 1],

    and the field j steps on is u plus the volume rates times their
    face differences, off the Dirichlet nodes.  P stacks
    P_j = F + F S + ... + F S^(j-1), with S the step matrix, each new term
    one matrix product from the last; p_j sums the face fluxes of the
    first j steps of the zero field with the Dirichlet values lowered by
    the shift.  So P starts with F and p with g, and for k = 1 they are
    just (F, g), with no S built.
    """
    f, g = _face_operator(cfg, table)
    if k == 1:
        return f, g[None]
    s, b = _step_operator(cfg, f, g)
    fluxes = np.empty((k,) + f.shape)
    fluxes[0] = term = f
    for j in range(1, k):
        term = term @ s
        np.add(fluxes[j - 1], term, out=fluxes[j])

    for node, _ in _pinned(cfg):
        b[node] -= shift
    offsets = np.empty((k, f.shape[0]))
    total = np.zeros(f.shape[0])
    w = np.zeros(f.shape[1])
    for j in range(k):
        total = total + (f @ w + g)
        offsets[j] = total
        w = s @ w + b
    return fluxes.reshape(-1, f.shape[1]), offsets


def _dense_rows(
    u: np.ndarray, rows: np.ndarray, fluxes: np.ndarray, offsets: np.ndarray,
    shift: float, rates: np.ndarray, pinned: list,
) -> None:
    """Fill rows with the fields of the next len(rows) steps from u, with
    the (P, p) of :func:`_leap_operators` for K steps: one product for all
    of them if K > 1 (then len(rows) <= K), else one product with F per
    row.  Each field is the last one plus the volume rates times the face
    differences of the summed fluxes, with the Dirichlet nodes assigned."""
    if len(offsets) > 1:
        m, faces = rows.shape[0], rates.size + 1
        summed = (fluxes[: m * faces] @ (u - shift)).reshape(m, faces)
        summed += offsets[:m]
        np.subtract(summed[:, :-1], summed[:, 1:], out=rows)
        rows *= rates
        rows += u
        for node, value in pinned:
            rows[:, node] = value
        return
    f, g = fluxes, offsets[0]
    for row in rows:
        summed = f @ (u - shift)
        summed += g
        np.subtract(summed[:-1], summed[1:], out=row)
        row *= rates
        row += u
        for node, value in pinned:
            row[node] = value
        u = row


def _single_rows(u: np.ndarray, rows: np.ndarray, k: int, cfg: SimConfig, table: GrunwaldTable) -> int:
    """Fill rows with the fields of the steps after step k from u, one
    face_fluxes and one step each, and return how many it filled: all of
    them, or up to and including the first non-finite field."""
    for j, row in enumerate(rows):
        q = face_fluxes(u, cfg.flux, table, kappa=cfg.kappa)
        try:
            step(u, q, cfg, step_index=k + j + 1, out=row)
        except InstabilityError:
            return j + 1
        u = row
    return len(rows)


def run(cfg: SimConfig, u0) -> RunResult:
    """March the initial nodal values u0 forward from t = 0 under cfg and
    collect snapshots and traces.

    Deterministic: identical configurations produce bit-identical results.
    Raises :class:`InstabilityError` if the field turns non-finite or its
    magnitude exceeds 1e12 times the initial scale, and
    :class:`ConfigurationError` for Dirichlet data that contradicts the
    initial profile (unless ``force_inconsistent_bc`` is set).
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (cfg.n + 1,):
        raise ConfigurationError(
            f"initial field must have {cfg.n + 1} nodes, got shape {u0.shape}"
        )
    if not np.all(np.isfinite(u0)):
        raise ConfigurationError("initial field contains non-finite values")
    if not cfg.force_inconsistent_bc:
        _check_dirichlet_consistency(cfg, u0)

    ratio = stability_ratio(cfg)
    if ratio > _STABILITY_WARN_RATIO:
        warnings.warn(
            f"kappa*dt/dx^order = {ratio:.3g} exceeds the advisory threshold "
            f"{_STABILITY_WARN_RATIO:g}; the explicit step may diverge",
            StabilityWarning,
            stacklevel=2,
        )

    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    n_steps = cfg.n_steps
    snap_steps = {int(round(t / cfg.dt)): t for t in cfg.snapshot_times}

    mass = np.empty(n_steps + 1)
    u_min = np.empty(n_steps + 1)
    u_max = np.empty(n_steps + 1)
    step_change = np.empty(n_steps)

    mass[0] = total_mass(u0)
    u_min[0] = u0.min()
    u_max[0] = u0.max()

    snapshots: dict[int, np.ndarray] = {}
    if 0 in snap_steps:
        snapshots[0] = u0.copy()

    # In Python floats, which overflow without a warning, and capped at the
    # largest double, so that no non-finite field passes.
    limit = min(_BLOWUP_FACTOR * max(np.abs(u0).max().item(), 1.0), sys.float_info.max)
    u = u0
    steps_taken = n_steps
    steady_time = None

    stride = leap_steps(cfg.n, n_steps)  # steps per product; 0 on the FFT route
    if stride:
        shift = 0.0 if LAWS[cfg.flux].advection else u0.item(0)
        fluxes, flux_offsets = _leap_operators(cfg, table, stride, shift)
        dense = (fluxes, flux_offsets, shift, _volume_rates(cfg), _pinned(cfg))
    block = stride if stride > 1 else _block_rows(cfg.n)
    buffer = np.empty((block, cfg.n + 1))
    k = 0
    redo = False  # the dense block at k failed the guard: take it step by step
    # A field that overflows past a blow-up is reported below as an
    # InstabilityError; numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_steps:
            rows = buffer[: min(block, n_steps - k)]
            if stride and not redo:
                _dense_rows(u, rows, *dense)
            else:
                rows = rows[: _single_rows(u, rows, k, cfg, table)]

            # One pass over the block's fields: step change and steady stop,
            # runaway guard, mass, extrema and snapshots.
            delta = np.empty_like(rows)
            np.subtract(rows[0], u, out=delta[0])
            np.subtract(rows[1:], rows[:-1], out=delta[1:])
            change = np.abs(delta, out=delta).max(axis=1)
            quiet = np.flatnonzero(change < cfg.steady_eps) if cfg.stop_when_steady else ()
            if len(quiet):
                rows, change = rows[: quiet[0] + 1], change[: quiet[0] + 1]
            lo, hi = rows.min(axis=1), rows.max(axis=1)
            peak = np.maximum(hi, -lo)
            if not peak.max() <= limit:
                if stride and not redo:
                    # Redone with single steps, so an abort has the step
                    # and the message of the single-step loop, bit for bit,
                    # overflow included.
                    redo = True
                    continue
                j = int(np.argmin(peak <= limit))
                detail = (
                    f"|u| reached {peak[j]:.3g}, over 1e12 x initial scale"
                    if np.isfinite(peak[j]) else "non-finite value produced"
                )
                raise InstabilityError(k + j + 1, (k + j + 1) * cfg.dt, detail)
            m = len(rows)
            mass[k + 1 : k + m + 1] = cfg.dx * (
                0.5 * rows[:, 0] + rows[:, 1:-1].sum(axis=1) + 0.5 * rows[:, -1]
            )
            u_min[k + 1 : k + m + 1] = lo
            u_max[k + 1 : k + m + 1] = hi
            step_change[k : k + m] = change
            for ks in snap_steps:
                if k < ks <= k + m:
                    snapshots[ks] = rows[ks - k - 1].copy()
            u = rows[-1].copy()
            k += m
            redo = False
            if len(quiet):
                steps_taken = k
                steady_time = k * cfg.dt
                break

    # Later snapshot times inherit the frozen steady field.
    for k in snap_steps:
        if k > steps_taken:
            snapshots[k] = u.copy()
    end = steps_taken + 1
    trace = DiagnosticTrace(
        t=np.arange(end) * cfg.dt, mass=mass[:end],
        u_min=u_min[:end], u_max=u_max[:end], step_change=step_change[:steps_taken],
    )
    ordered = sorted(snap_steps.items())
    decomposition = None
    if cfg.flux is FluxKind.RIEMANN_LIOUVILLE:
        decomposition = (
            face_fluxes(u, FluxKind.CAPUTO, table, kappa=cfg.kappa),
            cfg.kappa * apparent_advection(u[0], table),
        )
    return RunResult(
        cfg=cfg,
        snapshot_times=tuple(t for _, t in ordered),
        snapshots=[snapshots[k] for k, _ in ordered],
        trace=trace,
        final=u,
        steps_taken=steps_taken,
        steady_stop_time=steady_time,
        decomposition=decomposition,
    )
