import json
from dataclasses import replace

import numpy as np
import pytest

from fracflux.diagnostics import total_mass
from fracflux.flux import FluxKind
from fracflux.scenarios import (
    PROFILES,
    SCENARIO_NAMES,
    build_initial,
    constant_profile,
    fig7_bump,
    make_scenario,
    triangular_pulse,
)
from fracflux.solver import ConfigurationError, Dirichlet, InitialSpec, SimConfig

X100 = np.arange(101) * 0.01  # the nodes of an n = 100 configuration


def _simpson(f, a, b, intervals=1_000_000):
    # composite Simpson rule, the independent quadrature used as oracle
    x = np.linspace(a, b, intervals + 1)
    y = f(x)
    h = (b - a) / intervals
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


# ----------------------------------------------------------- pulse profile


def test_pulse_peak_and_breakpoints():
    assert triangular_pulse(0.5) == 5.0
    assert triangular_pulse(0.3) == pytest.approx(0.0, abs=1e-14)
    assert triangular_pulse(0.7) == 0.0
    assert triangular_pulse(0.0) == 0.0
    assert triangular_pulse(0.95) == 0.0
    assert triangular_pulse(0.4) == pytest.approx(2.5)


def test_pulse_vectorized_matches_scalar():
    x = np.linspace(0.0, 1.0, 11)
    values = triangular_pulse(x)
    assert values.shape == x.shape
    assert values[5] == triangular_pulse(0.5)


def test_pulse_discrete_mass_is_one():
    # breakpoints 0.3 / 0.5 / 0.7 are grid nodes at n=100, so the
    # half-weighted nodal sum is exact on each linear piece
    assert total_mass(triangular_pulse(X100)) == pytest.approx(1.0, abs=1e-12)


def test_pulse_exact_integral_is_one():
    assert _simpson(triangular_pulse, 0.0, 1.0) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ bump profile


def test_bump_vanishes_outside_support():
    assert fig7_bump(0.5) == 0.0
    assert fig7_bump(0.25) == 0.0
    assert fig7_bump(0.0) == 0.0
    assert fig7_bump(0.125) > 0.0


def test_bump_is_nonnegative_on_grid():
    assert np.all(fig7_bump(X100) >= 0.0)


def test_bump_integral_matches_quadrature_oracle():
    # frozen constant: composite Simpson at 1e6 intervals gives 1.0, i.e.
    # the amplitude normalizes the bump to unit area
    assert _simpson(fig7_bump, 0.0, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_bump_offset_shifts_uniformly():
    x = np.linspace(0.0, 1.0, 21)
    np.testing.assert_array_equal(fig7_bump(x, offset=5.0), fig7_bump(x) + 5.0)


# ----------------------------------------------------------- construction


def test_all_scenarios_build_and_are_bc_consistent():
    for name in SCENARIO_NAMES:
        scenario = make_scenario(name)
        assert scenario.name == name
        assert scenario.cfg.scenario == name
        u = build_initial(scenario.cfg.initial, scenario.cfg.x)
        assert u.shape == (101,)
        bc = scenario.cfg.bc
        if isinstance(bc.left, Dirichlet):
            assert u[0] == pytest.approx(bc.left.value, abs=1e-12)
        if isinstance(bc.right, Dirichlet):
            assert u[-1] == pytest.approx(bc.right.value, abs=1e-12)


def test_unknown_scenario_lists_valid_names():
    with pytest.raises(ConfigurationError, match="pulse-reflective"):
        make_scenario("does-not-exist")


def test_pulse_reflective_parameters():
    cfg = make_scenario("pulse-reflective").cfg
    assert cfg.alpha == 0.5
    assert cfg.n == 100
    assert cfg.dt == 0.0005
    assert not isinstance(cfg.bc.left, Dirichlet)
    assert cfg.bc.left.value == 0.0 and cfg.bc.right.value == 0.0


def test_ice_scenarios_parameters():
    warsaw = make_scenario("ice-warsaw").cfg
    assert warsaw.bc.left == Dirichlet(0.0) and warsaw.bc.right == Dirichlet(0.0)
    minneapolis = make_scenario("ice-minneapolis").cfg
    assert minneapolis.bc.left == Dirichlet(32.0)
    assert minneapolis.stop_when_steady
    assert np.all(build_initial(minneapolis.initial, minneapolis.x) == 32.0)


def test_fig7_scenarios_share_snapshots_and_shift():
    zero = make_scenario("fig7-zero")
    shifted = make_scenario("fig7-shifted")
    assert zero.cfg.snapshot_times == (0.01, 0.04, 0.2)
    assert shifted.cfg.snapshot_times == zero.cfg.snapshot_times
    assert shifted.cfg.bc.left == Dirichlet(5.0)
    np.testing.assert_array_equal(
        build_initial(shifted.cfg.initial, X100), build_initial(zero.cfg.initial, X100) + 5.0
    )


def test_alpha_override_is_recorded():
    scenario = make_scenario("fig7-zero", alpha=0.75)
    assert scenario.cfg.alpha == 0.75


def test_default_flux_law_is_caputo():
    assert make_scenario("pulse-reflective").cfg.flux is FluxKind.CAPUTO


# ------------------------------------------------------------- profiles


def test_profile_registry_and_build_initial():
    x = np.arange(11) * 0.1
    assert set(PROFILES) == {"triangular-pulse", "fig7-bump", "constant"}
    u = build_initial(InitialSpec("constant", {"value": 3.0}), x)
    assert np.all(u == 3.0)
    with pytest.raises(ConfigurationError, match="constant"):
        build_initial(InitialSpec("nope"), x)


def test_constant_profile_scalar():
    assert constant_profile(0.3, value=7.0) == 7.0


# ---------------------------------------------------------- config codec


@pytest.mark.parametrize("law", list(FluxKind), ids=lambda law: law.value)
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_config_mapping_round_trip(name, law):
    cfg = replace(make_scenario(name).cfg, flux=law)
    assert SimConfig.from_mapping(json.loads(json.dumps(cfg.to_mapping()))) == cfg
