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
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import __version__
from .diagnostics import DiagnosticTrace, total_mass
from .flux import LAWS, FluxKind, apparent_advection, face_fluxes
from .weights import build_table

# Abort threshold for runaway explicit steps, relative to the initial
# magnitude (floored at 1 so an all-zero start still has a usable scale).
_BLOWUP_FACTOR = 1e12

# A StabilityWarning fires when stability_ratio exceeds this value.
_STABILITY_WARN_RATIO = 0.5


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

    limit = _BLOWUP_FACTOR * max(np.abs(u0).max(), 1.0)
    u = u0
    steps_taken = n_steps
    steady_time = None

    for k in range(1, n_steps + 1):
        q = face_fluxes(u, cfg.flux, table, kappa=cfg.kappa)
        advanced = step(u, q, cfg, step_index=k)
        lo, hi = advanced.min(), advanced.max()
        peak = max(hi, -lo)
        if peak > limit:
            raise InstabilityError(
                k, k * cfg.dt, f"|u| reached {peak:.3g}, over 1e12 x initial scale"
            )
        diff = advanced - u
        change = np.abs(diff, out=diff).max()
        u = advanced
        mass[k] = total_mass(u)
        u_min[k] = lo
        u_max[k] = hi
        step_change[k - 1] = change
        if k in snap_steps:
            snapshots[k] = u.copy()
        if cfg.stop_when_steady and change < cfg.steady_eps:
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
