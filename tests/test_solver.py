import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracflux.flux import FluxKind, face_fluxes
from fracflux.solver import (
    BoundarySpec,
    ConfigurationError,
    Dirichlet,
    FixedFlux,
    InitialSpec,
    InstabilityError,
    SimConfig,
    StabilityWarning,
    run,
    stability_ratio,
    step,
)
from fracflux.weights import build_table


def _config(**overrides):
    base = dict(
        alpha=0.5,
        n=100,
        dt=0.0005,
        t_end=0.01,
        snapshot_times=(0.01,),
        flux=FluxKind.CAPUTO,
        bc=BoundarySpec.reflective(),
        initial=InitialSpec("constant", {"value": 0.0}),
    )
    base.update(overrides)
    return SimConfig(**base)


def _pulse(cfg):
    from fracflux.scenarios import triangular_pulse

    return triangular_pulse(cfg.x)


# ----------------------------------------------------------------- grid


def test_grid_geometry():
    cfg = _config()
    assert cfg.dx == 0.01
    assert cfg.x.shape == (101,)
    assert cfg.x[0] == 0.0
    assert cfg.x[-1] == pytest.approx(1.0)


# ----------------------------------------------------------------- step


def test_constant_field_is_a_fixed_point_of_caputo_reflective():
    cfg = _config(initial=InitialSpec("constant", {"value": 4.0}))
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    u = np.full(101, 4.0)
    faces = face_fluxes(u, cfg.flux, table)
    advanced = step(u, faces.q, cfg)
    assert np.array_equal(advanced, u)


def test_zero_field_stays_zero_under_rl_absorbing():
    cfg = _config(
        flux=FluxKind.RIEMANN_LIOUVILLE,
        bc=BoundarySpec(Dirichlet(0.0), Dirichlet(0.0)),
        t_end=0.05,
        snapshot_times=(0.05,),
    )
    result = run(cfg, np.zeros(101))
    assert np.all(result.trace.u_min == 0.0)
    assert np.all(result.trace.u_max == 0.0)
    assert np.all(result.final == 0.0)


def test_rl_pulls_down_wall_neighbourhood_of_warm_constant():
    # constant 32 with matching Dirichlet values: the advective part of the
    # rl flux drains the near-wall nodes on the very first step
    cfg = _config(
        flux=FluxKind.RIEMANN_LIOUVILLE,
        bc=BoundarySpec(Dirichlet(32.0), Dirichlet(32.0)),
        initial=InitialSpec("constant", {"value": 32.0}),
    )
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    u = np.full(101, 32.0)
    faces = face_fluxes(u, cfg.flux, table)
    advanced = step(u, faces.q, cfg)
    assert advanced[0] == 32.0  # pinned
    assert advanced[1] < 32.0


def test_step_rejects_wrong_face_count():
    cfg = _config()
    table = build_table(0.5, 0.02, 50)
    faces = face_fluxes(np.zeros(51), cfg.flux, table)
    with pytest.raises(ValueError):
        step(np.zeros(101), faces.q, cfg)


# ----------------------------------------------------------- conservation


@pytest.mark.parametrize("kind", list(FluxKind))
def test_mass_changes_by_exactly_the_boundary_fluxes(kind):
    # M_{k+1} - M_k = dt * (q_left - q_right), telescoping of the interior
    rng = np.random.default_rng(31)
    q_left, q_right = 0.375, 0.125
    cfg = _config(
        flux=kind,
        dt=2e-5,  # inside the gradient-law stability bound as well
        t_end=8e-4,
        snapshot_times=(8e-4,),
        bc=BoundarySpec(FixedFlux(q_left), FixedFlux(q_right)),
    )
    result = run(cfg, rng.normal(size=101))
    increments = np.diff(result.trace.mass)
    expected = cfg.dt * (q_left - q_right)
    scale = max(1.0, np.abs(result.trace.mass).max())
    assert np.abs(increments - expected).max() <= 1e-13 * scale


def test_reflective_mass_is_constant():
    cfg = _config(t_end=0.25, snapshot_times=(0.25,))
    result = run(cfg, _pulse(cfg))
    assert np.abs(result.trace.mass - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "kind,dt,t_end",
    [
        (FluxKind.RIEMANN_LIOUVILLE, 0.0005, 50.0),
        (FluxKind.CAPUTO, 0.0005, 50.0),
        (FluxKind.PARSIMONIOUS, 0.0005, 50.0),
        # the gradient law needs its own stable step size
        (FluxKind.FOURIER, 2e-5, 2.0),
    ],
)
def test_mass_constant_to_1e10_over_1e5_steps(kind, dt, t_end):
    cfg = _config(flux=kind, dt=dt, t_end=t_end, snapshot_times=(t_end,))
    assert cfg.n_steps == 100_000
    result = run(cfg, _pulse(cfg))
    assert np.abs(result.trace.mass - 1.0).max() <= 1e-10


def test_parsimonious_holds_any_constant_fixed():
    cfg = _config(flux=FluxKind.PARSIMONIOUS, initial=InitialSpec("constant", {"value": -7.5}))
    result = run(cfg, np.full(101, -7.5))
    assert np.all(result.trace.u_min == -7.5)
    assert np.all(result.trace.u_max == -7.5)


def test_rl_moves_a_nonzero_constant_under_reflective_walls():
    cfg = _config(flux=FluxKind.RIEMANN_LIOUVILLE, initial=InitialSpec("constant", {"value": 4.0}))
    result = run(cfg, np.full(101, 4.0))
    assert result.trace.u_max[-1] > 4.0  # piles up against the left wall
    assert result.final[0] > 4.0


# ------------------------------------------------------------ run basics


def test_run_is_deterministic():
    cfg = _config(t_end=0.25, snapshot_times=(0.1, 0.25))
    a = run(cfg, _pulse(cfg))
    b = run(cfg, _pulse(cfg))
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.trace.mass, b.trace.mass)
    for ua, ub in zip(a.snapshots, b.snapshots):
        assert np.array_equal(ua, ub)


def test_snapshots_snap_to_step_multiples():
    cfg = _config(t_end=0.02, snapshot_times=(0.01490, 0.01510))
    # both round to step 30 and collapse to one snapshot
    assert cfg.snapshot_times == (30 * cfg.dt,)
    result = run(cfg, _pulse(cfg))
    assert result.snapshot_times == cfg.snapshot_times
    assert len(result.snapshots) == 1


def test_snapshot_outside_horizon_rejected():
    with pytest.raises(ConfigurationError):
        _config(t_end=0.01, snapshot_times=(0.5,))


def test_trace_covers_every_step():
    cfg = _config(t_end=0.005, snapshot_times=(0.005,))
    result = run(cfg, _pulse(cfg))
    assert result.trace.t.shape == (11,)
    assert result.trace.step_change.shape == (10,)
    assert result.trace.t[0] == 0.0
    assert result.trace.t[-1] == pytest.approx(0.005)


def test_steady_stop_freezes_later_snapshots():
    cfg = _config(
        initial=InitialSpec("constant", {"value": 2.0}),
        stop_when_steady=True,
        t_end=1.0,
        snapshot_times=(0.5, 1.0),
    )
    result = run(cfg, np.full(101, 2.0))
    assert result.steps_taken == 1
    assert result.steady_stop_time == pytest.approx(cfg.dt)
    assert len(result.snapshots) == 2
    for u in result.snapshots:
        assert np.all(u == 2.0)


def test_decomposition_reported_for_rl_only():
    cfg_rl = _config(flux=FluxKind.RIEMANN_LIOUVILLE)
    cfg_c = _config(flux=FluxKind.CAPUTO)
    res_rl = run(cfg_rl, _pulse(cfg_rl))
    res_c = run(cfg_c, _pulse(cfg_c))
    assert res_rl.decomposition is not None
    assert res_rl.decomposition.advective is not None
    assert res_c.decomposition is None


def test_rl_advective_part_zero_at_every_step_with_pinned_zero_boundary():
    from fracflux.scenarios import fig7_bump

    cfg = _config(
        flux=FluxKind.RIEMANN_LIOUVILLE,
        bc=BoundarySpec(Dirichlet(0.0), Dirichlet(0.0)),
    )
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    u = fig7_bump(cfg.x)
    for k in range(30):
        faces = face_fluxes(u, cfg.flux, table)
        assert np.all(faces.advective == 0.0)
        u = step(u, faces.q, cfg, step_index=k + 1)


# ------------------------------------------------------------- validation


def test_inconsistent_dirichlet_data_rejected_unless_forced():
    cfg = _config(bc=BoundarySpec(Dirichlet(1.0), Dirichlet(0.0)))
    with pytest.raises(ConfigurationError, match="force_inconsistent_bc"):
        run(cfg, _pulse(cfg))
    forced = replace(cfg, force_inconsistent_bc=True)
    result = run(forced, _pulse(cfg))
    assert result.final[0] == 1.0


def test_grid_and_field_shape_mismatches():
    cfg = _config()
    with pytest.raises(ConfigurationError):
        run(cfg, np.zeros(51))


def test_non_finite_initial_rejected():
    cfg = _config()
    u = np.zeros(101)
    u[3] = np.nan
    with pytest.raises(ConfigurationError):
        run(cfg, u)


def test_bad_config_values_rejected():
    with pytest.raises(ConfigurationError):
        _config(alpha=0.0)
    with pytest.raises(ConfigurationError):
        _config(dt=-1e-3)
    with pytest.raises(ConfigurationError):
        _config(t_end=0.0)
    with pytest.raises(ConfigurationError):
        _config(n=0)


# -------------------------------------------------------------- stability


def test_stability_ratio_values():
    assert stability_ratio(_config()) == pytest.approx(0.5, rel=1e-12)
    assert stability_ratio(_config(alpha=1.0)) == pytest.approx(5.0, rel=1e-12)
    # the gradient law is of order 2 whatever alpha says
    fourier = _config(flux=FluxKind.FOURIER)
    assert stability_ratio(fourier) == pytest.approx(5.0, rel=1e-12)
    tiny = _config(dt=1e-12, t_end=1e-12, snapshot_times=())
    assert stability_ratio(tiny) < 1e-8


def test_warning_fires_above_advisory_ratio():
    cfg = _config(alpha=1.0, t_end=0.001, snapshot_times=(0.001,))
    with pytest.warns(StabilityWarning):
        run(cfg, np.zeros(101))


def test_no_warning_at_the_advisory_ratio():
    cfg = _config(t_end=0.001, snapshot_times=(0.001,))  # ratio exactly 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        run(cfg, _pulse(cfg))


def test_gradient_law_diverges_at_fractional_ratio():
    # dt/dx^2 = 5 here: the explicit gradient step amplifies round-off and
    # must abort with a step index instead of returning garbage
    cfg = _config(flux=FluxKind.FOURIER, t_end=10.0, snapshot_times=(10.0,))
    with pytest.raises(InstabilityError) as excinfo:
        run(cfg, _pulse(cfg))
    assert excinfo.value.step_index <= 100
    assert "step" in str(excinfo.value)
