"""Named experiment setups: initial profiles plus fully resolved configs.

Each scenario pins every numerical parameter, so a single name reproduces
a complete experiment.  A scenario lists only what differs from the
SimConfig defaults: n = 100 (dx = 0.01), dt = 0.0005, alpha = 0.5, the
caputo law and reflective walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .solver import BoundarySpec, ConfigurationError, Dirichlet, InitialSpec, SimConfig

_BUMP_AMPLITUDE = 64.0 * np.pi**3 / (np.pi**2 - 4.0)


def triangular_pulse(x):
    """Unit-area triangle: rises from 0.3 to a peak of 5 at 0.5, back to 0 at 0.7."""
    xs = np.asarray(x, dtype=np.float64)
    out = np.where(
        xs < 0.3,
        0.0,
        np.where(
            xs < 0.5,
            25.0 * xs - 7.5,
            np.where(xs < 0.7, -25.0 * xs + 17.5, 0.0),
        ),
    )
    return float(out) if out.ndim == 0 else out


def fig7_bump(x, offset: float = 0.0):
    """Non-negative unit-area bump supported on (0, 0.25), zero elsewhere.

    The quadratic-times-sine shape vanishes with its value (not its slope)
    at both ends of the support; the prefactor normalizes the area to 1.
    An optional constant offset shifts the whole profile.
    """
    xs = np.asarray(x, dtype=np.float64)
    inside = (xs > 0.0) & (xs < 0.25)
    out = (
        np.where(inside, _BUMP_AMPLITUDE * (xs - 0.25) ** 2 * np.sin(4.0 * np.pi * xs), 0.0)
        + offset
    )
    return float(out) if out.ndim == 0 else out


def constant_profile(x, value: float = 0.0):
    xs = np.asarray(x, dtype=np.float64)
    out = np.full_like(xs, float(value))
    return float(out) if out.ndim == 0 else out


PROFILES: dict[str, Callable] = {
    "triangular-pulse": triangular_pulse,
    "fig7-bump": fig7_bump,
    "constant": constant_profile,
}


def build_initial(spec: InitialSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate an initial profile at the node positions x (``cfg.x``)."""
    try:
        profile = PROFILES[spec.profile]
    except KeyError:
        valid = ", ".join(sorted(PROFILES))
        raise ConfigurationError(
            f"unknown initial profile {spec.profile!r}; valid profiles: {valid}"
        ) from None
    return np.asarray(profile(x, **spec.params), dtype=np.float64)


@dataclass(frozen=True)
class Scenario:
    """A named, fully parameterized experiment."""

    name: str
    cfg: SimConfig
    expected_qualitative: str


def _dirichlet(value: float) -> BoundarySpec:
    return BoundarySpec(Dirichlet(value), Dirichlet(value))


# name -> (SimConfig fields that differ from the defaults, expected behaviour)
_SCENARIOS = {
    "pulse-reflective": (
        dict(
            t_end=10.0,
            snapshot_times=(0.01, 0.1, 1.0, 10.0),
            initial=InitialSpec("triangular-pulse"),
        ),
        "mass stays at 1; caputo flattens to a line of unit height, rl piles "
        "the conserved quantity against the left wall",
    ),
    "ice-warsaw": (
        dict(
            snapshot_times=(0.25, 0.5, 1.0),
            bc=_dirichlet(0.0),
            initial=InitialSpec("constant", {"value": 0.0}),
        ),
        "stays identically 0 for every flux law",
    ),
    "ice-minneapolis": (
        dict(
            t_end=100.0,
            snapshot_times=(100.0,),
            bc=_dirichlet(32.0),
            initial=InitialSpec("constant", {"value": 32.0}),
            stop_when_steady=True,
        ),
        "caputo/fourier/parsimonious hold 32 forever; rl decays near the left "
        "wall into a non-flat steady profile",
    ),
    "fig7-zero": (
        dict(
            t_end=0.2,
            snapshot_times=(0.01, 0.04, 0.2),
            bc=_dirichlet(0.0),
            initial=InitialSpec("fig7-bump", {"offset": 0.0}),
        ),
        "rl and caputo solutions coincide pointwise (zero left boundary)",
    ),
    "fig7-shifted": (
        dict(
            t_end=0.2,
            snapshot_times=(0.01, 0.04, 0.2),
            bc=_dirichlet(5.0),
            initial=InitialSpec("fig7-bump", {"offset": 5.0}),
        ),
        "caputo solution is the fig7-zero one displaced by 5; rl dips below "
        "the initial minimum",
    ),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def make_scenario(name: str, *, alpha: float = SimConfig.alpha) -> Scenario:
    """Construct one of the built-in scenarios.

    alpha defaults to the SimConfig default (0.5) and is echoed into the
    run manifest; override it to sweep the fractional order.
    """
    try:
        overrides, note = _SCENARIOS[name]
    except KeyError:
        valid = ", ".join(SCENARIO_NAMES)
        raise ConfigurationError(
            f"unknown scenario {name!r}; valid names: {valid}"
        ) from None
    cfg = SimConfig(scenario=name, alpha=alpha, **overrides)
    return Scenario(name=name, cfg=cfg, expected_qualitative=note)
