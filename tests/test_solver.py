import sys
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from fracflux import solver
from fracflux.diagnostics import max_principle_check, steady_state_time, total_mass
from fracflux.flux import LAWS, FluxKind, apparent_advection, face_fluxes
from fracflux.solver import (
    LEAP_BYTES,
    LEAP_MIN_STEPS,
    OPERATOR_CACHE_SIZE,
    BoundarySpec,
    ConfigurationError,
    DiagnosticTrace,
    Dirichlet,
    FixedFlux,
    InitialSpec,
    InstabilityError,
    RunRecord,
    RunResult,
    SimConfig,
    StabilityWarning,
    leap_steps,
    run,
    run_block,
    stability_ratio,
    step,
)
from fracflux.weights import FFT_MIN_N, build_table
from oracles import explicit_step, face_fluxes_direct, record_of, run_stepwise, toeplitz


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
    advanced = step(u, face_fluxes(u, cfg.flux, table), cfg)
    assert np.array_equal(advanced, u)


def test_zero_field_stays_zero_under_rl_absorbing():
    cfg = _config(
        flux=FluxKind.RIEMANN_LIOUVILLE,
        bc=BoundarySpec(Dirichlet(0.0), Dirichlet(0.0)),
        t_end=0.05,
        snapshot_times=(0.05,),
    )
    result = run(cfg, np.zeros(101), full_trace=True)
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
    advanced = step(u, face_fluxes(u, cfg.flux, table), cfg)
    assert advanced[0] == 32.0  # pinned
    assert advanced[1] < 32.0


def test_step_rejects_wrong_face_count():
    cfg = _config()
    table = build_table(0.5, 0.02, 50)
    q = face_fluxes(np.zeros(51), cfg.flux, table)
    with pytest.raises(ValueError):
        step(np.zeros(101), q, cfg)


# ----------------------------------------------------------- conservation


@pytest.mark.parametrize("kind", list(FluxKind))
@pytest.mark.parametrize("n", [100, 200, FFT_MIN_N])
def test_mass_changes_by_exactly_the_boundary_fluxes(n, kind):
    # M_{k+1} - M_k = dt * (q_left - q_right), telescoping of the interior,
    # on every route: the stacked leap (n = 100, 40 steps), the F product
    # (n = 200, where fourier takes single steps) and the FFT route
    rng = np.random.default_rng(31)
    q_left, q_right = 0.375, 0.125
    dt = 0.2 * (1.0 / n) ** LAWS[kind].order(0.5)  # inside each law's stability bound
    cfg = _config(
        flux=kind,
        n=n,
        dt=dt,
        t_end=40 * dt,
        snapshot_times=(),
        bc=BoundarySpec(FixedFlux(q_left), FixedFlux(q_right)),
    )
    result = run(cfg, rng.normal(size=n + 1), full_trace=True)
    increments = np.diff(result.trace.mass)
    expected = cfg.dt * (q_left - q_right)
    scale = max(1.0, np.abs(result.trace.mass).max())
    assert np.abs(increments - expected).max() <= 1e-13 * scale


def test_reflective_mass_is_constant():
    cfg = _config(t_end=0.25, snapshot_times=(0.25,))
    result = run(cfg, _pulse(cfg), full_trace=True)
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
    result = run(cfg, _pulse(cfg), full_trace=True)
    assert np.abs(result.trace.mass - 1.0).max() <= 1e-10


@pytest.mark.parametrize("kind", [FluxKind.CAPUTO, FluxKind.RIEMANN_LIOUVILLE])
def test_reflective_mass_drifts_by_round_off_alone_over_20000_f_route_steps(kind):
    # One product with F per step and then the face differences: the interior
    # fluxes telescope, so the mass moves by a few ulps, not by 20 000 steps'
    # worth of rounding in a step matrix that folds the differences into F.
    n = 200
    dt = 0.4 * (1.0 / n) ** 1.5
    cfg = _config(flux=kind, n=n, dt=dt, t_end=20_000 * dt, snapshot_times=())
    assert cfg.n_steps == 20_000 and leap_steps(n, cfg.n_steps) == 1
    mass = run(cfg, _pulse(cfg), full_trace=True).trace.mass
    assert np.abs(mass - mass[0]).max() <= 2e-14 * mass[0]


def test_parsimonious_holds_any_constant_fixed():
    cfg = _config(flux=FluxKind.PARSIMONIOUS, initial=InitialSpec("constant", {"value": -7.5}))
    result = run(cfg, np.full(101, -7.5), full_trace=True)
    assert np.all(result.trace.u_min == -7.5)
    assert np.all(result.trace.u_max == -7.5)


def test_rl_moves_a_nonzero_constant_under_reflective_walls():
    cfg = _config(flux=FluxKind.RIEMANN_LIOUVILLE, initial=InitialSpec("constant", {"value": 4.0}))
    result = run(cfg, np.full(101, 4.0), full_trace=True)
    assert result.trace.u_max[-1] > 4.0  # piles up against the left wall
    assert result.final[0] > 4.0


# ------------------------------------------------------------ run basics


def test_run_is_deterministic():
    cfg = _config(t_end=0.25, snapshot_times=(0.1, 0.25))
    a = run(cfg, _pulse(cfg), full_trace=True)
    b = run(cfg, _pulse(cfg), full_trace=True)
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
    result = run(cfg, _pulse(cfg), full_trace=True)
    assert result.trace.t.shape == (11,)
    assert result.trace.step_change.shape == (10,)
    assert result.trace.t[0] == 0.0
    assert result.trace.t[-1] == pytest.approx(0.005)
    assert run(cfg, _pulse(cfg)).trace is None  # kept only when asked for


@pytest.mark.parametrize("steps", [1, 2, 998, 999, 1_000, 1_001, 1_998, 1_999, 9_998, 10_000, 20_001])
def test_record_windows_partition_the_steps_within_the_limit(steps):
    dt = 2.0**-10  # t / dt is the step count exactly
    cfg = _config(n=4, dt=dt, t_end=steps * dt, snapshot_times=())
    record = run(cfg, np.linspace(0.0, 1.0, 5)).record
    ends = record.t / dt
    assert ends.size <= solver.TRACE_WINDOWS
    # step 0 alone, then windows of ceil(steps / 999) steps that cover
    # steps 1..N in order, each once, the last ending at N
    width = -(-steps // 999)
    assert list(ends) == [0, *range(width, steps, width), steps]
    assert record.mass.size == record.u_min.size == record.u_max.size == ends.size
    if steps <= 999:
        assert width == 1 and list(ends) == list(range(steps + 1))


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


def test_rl_advective_part_zero_at_every_step_with_pinned_zero_boundary():
    from fracflux.scenarios import fig7_bump

    cfg = _config(
        flux=FluxKind.RIEMANN_LIOUVILLE,
        bc=BoundarySpec(Dirichlet(0.0), Dirichlet(0.0)),
    )
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    u = fig7_bump(cfg.x)
    for k in range(30):
        assert np.all(apparent_advection(u[0], table) == 0.0)
        u = step(u, face_fluxes(u, cfg.flux, table), cfg, step_index=k + 1)


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
    # step counts past the largest double
    for overrides in (
        dict(dt=1e-320), dict(t_end=1e300, dt=1e-10), dict(snapshot_times=(1e300,), dt=1e-10),
    ):
        with pytest.raises(ConfigurationError, match="overflows the step count"):
            _config(**overrides)


@pytest.mark.parametrize("kind", ["dirichlet", "fixed-flux"])
@pytest.mark.parametrize("value", [10**400, True, "1.0"], ids=["huge-int", "bool", "string"])
def test_boundary_condition_rejects_a_bad_value(kind, value):
    # an int past float range, a boolean and a string, as for an unknown kind
    with pytest.raises(ConfigurationError, match=f"bad {kind} boundary value"):
        solver.boundary_condition(kind, value)


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


def test_stability_warning_names_the_caller_of_run_and_run_block():
    # the warning points at the line that called run or run_block, not
    # into the solver
    cfg = _config(alpha=1.0, t_end=0.001, snapshot_times=(0.001,))
    for march in (lambda: run(cfg, np.zeros(101)), lambda: run_block([cfg, cfg], [np.zeros(101)] * 2)):
        with pytest.warns(StabilityWarning) as caught:
            march()
        assert [w.filename for w in caught] == [__file__]


def test_no_warning_at_the_advisory_ratio():
    cfg = _config(t_end=0.001, snapshot_times=(0.001,))  # ratio exactly 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        run(cfg, _pulse(cfg))


def test_gradient_law_diverges_at_fractional_ratio():
    # dt/dx^2 = 5 here: the explicit gradient step amplifies round-off and
    # must abort with a step index instead of returning garbage
    cfg = _config(flux=FluxKind.FOURIER, t_end=10.0, snapshot_times=(10.0,))
    with pytest.warns(StabilityWarning), pytest.raises(InstabilityError) as excinfo:
        run(cfg, _pulse(cfg))
    assert excinfo.value.step_index <= 100
    assert "step" in str(excinfo.value)


# ------------------------------------------------- positivity certificate
#
# With rho = kappa * dt / dx**(1 + alpha), the explicit step matrix S of a
# fractional law is entrywise non-negative for rho <= 1/2 when an end is
# fixed-flux (the half-volume end row has diagonal 1 - 2 rho) and, on the
# interior block, for rho <= 1/(1 + alpha) when both ends are Dirichlet
# (interior diagonal 1 - (1 + alpha) rho); every off-diagonal entry is a
# non-negative Grunwald weight.  This covers positivity, not the spectral
# step limit.

_EPS = np.finfo(np.float64).eps


def _step_matrix(kind, alpha, kappa, rho, bc, n=40):
    """S built column by column: column j is one step of the unit field e_j
    less one step of the zero field, which is the boundary term b."""
    dx = 1.0 / n
    cfg = _config(
        flux=kind, alpha=alpha, kappa=kappa, n=n, dt=rho * dx ** (1.0 + alpha) / kappa,
        t_end=1.0, snapshot_times=(), bc=bc,
    )
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    zero = np.zeros(n + 1)
    b = step(zero, face_fluxes(zero, kind, table, kappa=kappa), cfg)
    columns = [step(e, face_fluxes(e, kind, table, kappa=kappa), cfg) - b for e in np.eye(n + 1)]
    return cfg, np.column_stack(columns)


@pytest.mark.parametrize("kappa", [1.0, 1.5])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("kind", [FluxKind.CAPUTO, FluxKind.RIEMANN_LIOUVILLE])
def test_step_matrix_is_nonnegative_at_the_reflective_certificate(kind, alpha, kappa):
    cfg, s = _step_matrix(kind, alpha, kappa, 0.5, BoundarySpec.reflective())
    assert stability_ratio(cfg) == pytest.approx(0.5, rel=1e-12)
    assert s.min() >= -4 * _EPS
    # the step conserves the half-weight mass: m^T S = m^T
    m = np.full(cfg.n + 1, cfg.dx)
    m[[0, -1]] *= 0.5
    np.testing.assert_allclose(m @ s, m, rtol=0.0, atol=4 * _EPS * cfg.dx)
    if kind is FluxKind.CAPUTO:  # constants are fixed points: S is stochastic
        np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=0.0, atol=4 * _EPS)
    # the bound is sharp: 2% past it the end row's diagonal is -0.02
    _, past = _step_matrix(kind, alpha, kappa, 0.51, BoundarySpec.reflective())
    assert past.min() <= -1e-2


@pytest.mark.parametrize("kappa", [1.0, 1.5])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("kind", [FluxKind.CAPUTO, FluxKind.RIEMANN_LIOUVILLE])
def test_step_matrix_is_nonnegative_at_the_dirichlet_certificate(kind, alpha, kappa):
    bc = BoundarySpec(Dirichlet(0.0), Dirichlet(0.0))
    rho = 1.0 / (1.0 + alpha)
    _, s = _step_matrix(kind, alpha, kappa, rho, bc)
    assert s[1:-1, 1:-1].min() >= -4 * _EPS
    _, past = _step_matrix(kind, alpha, kappa, 1.02 * rho, bc)
    assert past[1:-1, 1:-1].min() <= -1e-2


# ------------------------------------------------------------ leap route
#
# On grids small enough for leap_steps, run() sums the face fluxes of up
# to K steps with one matrix-vector product and applies their face
# differences.  The checks below hold it to the column-by-column step
# matrix and to the step-by-step loop of tests/oracles.py.

_LEAP_BCS = {
    "reflective": BoundarySpec.reflective(),
    "dirichlet": BoundarySpec(Dirichlet(0.75), Dirichlet(-0.5)),
    "fixed-flux": BoundarySpec(FixedFlux(0.375), FixedFlux(0.125)),
    "mixed": BoundarySpec(Dirichlet(0.75), FixedFlux(0.125)),
}


def test_leap_size_follows_the_byte_rule():
    assert leap_steps(100, 10**6) == LEAP_BYTES // (8 * 101**2) == 15
    assert leap_steps(100, 12) == 12  # capped at the run's length
    assert leap_steps(141, 10**6) == LEAP_MIN_STEPS
    # where the byte rule leaves fewer than LEAP_MIN_STEPS, a dense grid
    # takes one step per product with F: short runs at n <= 141 and every
    # run from n = 142 to FFT_MIN_N - 1, the n = 200 alpha sweeps included
    assert leap_steps(100, LEAP_MIN_STEPS - 1) == 1
    assert leap_steps(1, 1) == 1
    for n in (142, 200, FFT_MIN_N - 1):
        assert leap_steps(n, 10**6) == leap_steps(n, 1) == 1
    # from FFT_MIN_N up every step takes one face_fluxes per field
    for n in (FFT_MIN_N, 4000):
        assert leap_steps(n, 10**6) == leap_steps(n, 1) == 0
    # the local law leaps where the byte rule allows and takes single steps
    # wherever it does not, F being dense even for it: short runs at
    # n <= 141 and every run from n = 142 up
    assert leap_steps(141, 10**6, local=True) == LEAP_MIN_STEPS
    assert leap_steps(100, LEAP_MIN_STEPS - 1, local=True) == 0
    for n in (142, 200, FFT_MIN_N - 1, FFT_MIN_N):
        assert leap_steps(n, 10**6, local=True) == leap_steps(n, 1, local=True) == 0


def _face_operator_from_toeplitz(table, law, kappa):
    """F built from the n x n T(W) of tests/oracles.toeplitz: T(W) into
    every column but the last, less T(W) from every column but the first,
    then the same scaling and advection as solver._face_operator."""
    n = table.n
    memory = np.eye(n) if law.local else toeplitz(table)
    f = np.zeros((n + 2, n + 1))
    inner = f[1:-1]
    inner[:, :-1] = memory
    inner[:, 1:] -= memory
    inner /= table.dx
    if law.advection:
        inner[:, 0] += apparent_advection(1.0, table)
    inner *= kappa
    return f


@pytest.mark.parametrize("n", [1, 2, 3, 100, 141, 142, 200, FFT_MIN_N - 1])
def test_face_operator_from_w_is_the_toeplitz_build_bit_for_bit(n):
    # every entry is the same subtraction of the same two weights (or a
    # weight less 0.0), so the bytes agree: signed zeros, and the
    # overflows of kappa = 1e308, included
    def check(table, law, kappa):
        got = solver._face_operator(table, law, kappa)
        assert got.tobytes() == _face_operator_from_toeplitz(table, law, kappa).tobytes()

    for alpha in (0.3, 0.5, 1.0):
        table = build_table(alpha, 1.0 / n, n)
        for law in LAWS.values():
            for kappa in (1.0, 1.5):
                check(table, law, kappa)
            with np.errstate(over="ignore", invalid="ignore"):
                check(table, law, 1e308)


def test_a_table_holds_its_four_fields_alone_after_every_route_and_law():
    # the stacked leap (n = 100), the F route (200) and the FFT route
    # (FFT_MIN_N) build from W, and face_fluxes below FFT_MIN_N takes a
    # direct sum, so no table gains a field or holds more than O(n)
    build_table.cache_clear()
    tables = []
    for n, k in ((100, 15), (200, 1), (FFT_MIN_N, 0)):
        cfg, u0 = _route_case(FluxKind.CAPUTO, "mixed", n, 2 * solver.BLOCK_ROWS + 16)
        assert leap_steps(cfg.n, cfg.n_steps) == k
        run(cfg, u0)
        tables.append(build_table(cfg.alpha, cfg.dx, cfg.n))
    for n in (1, 2, 100, 141, 200, FFT_MIN_N - 1):
        table = build_table(0.5, 1.0 / n, n)
        u = 3.0 + np.random.default_rng(n).normal(size=n + 1)
        for kind in FluxKind:
            face_fluxes(u, kind, table)
        tables.append(table)
    for table in tables:
        n = table.n
        assert set(vars(table)) == {"alpha", "dx", "w", "w_hat"}
        size = 1 << (2 * n - 2).bit_length()  # L = 2**ceil(log2(2n - 1))
        for value in vars(table).values():
            assert np.size(value) <= max(n + 1, size // 2 + 1)


@pytest.mark.parametrize("bc", list(_LEAP_BCS))
@pytest.mark.parametrize("kappa", [1.0, 1.5])
@pytest.mark.parametrize("kind", list(FluxKind))
def test_leap_operators_match_the_column_by_column_step_matrix(kind, kappa, bc):
    rho, k, n = 0.4, 12, 40
    cfg, s_cols = _step_matrix(kind, 0.5, kappa, rho, _LEAP_BCS[bc], n=n)
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    f = solver._face_operator(table, LAWS[kind], kappa)
    _, rates, pinned = solver._boundaries([cfg])
    t, fluxes = solver._leap_operator(f, rates, [node for node, _ in pinned], k)
    # the state is (u, left value, right value): S is T's top-left block,
    # the step of the zero field is T's tail columns times the tail, and
    # the tail rows keep the tail
    s, tail = t[:-2, :-2], np.array([cfg.bc.left.value, cfg.bc.right.value])
    zero = np.zeros(n + 1)
    # entries are O(1); the two builds round each entry in their own order
    np.testing.assert_allclose(s, s_cols, rtol=0.0, atol=8 * _EPS * np.abs(s_cols).max())
    np.testing.assert_allclose(
        t[:-2, -2:] @ tail, step(zero, face_fluxes(zero, kind, table, kappa=kappa), cfg),
        rtol=0.0, atol=8 * _EPS,
    )
    assert np.array_equal(t[-2:], np.eye(n + 3)[-2:])

    # E_j = rates (P_j[:-1] - P_j[1:]) is the j-step increment: E_j + I = S^j
    # off the Dirichlet rows, each of the j products off by at most
    # gamma_{n+1} of entries that stay O(1) at this stable ratio
    free = [i for i in range(n + 1) if i not in dict(pinned)]
    power = np.eye(n + 1)
    for j, summed in enumerate(fluxes.reshape(k, n + 2, n + 3), start=1):
        power = s_cols @ power
        e_j = rates[:, None] * (summed[:-1, :-2] - summed[1:, :-2]) + np.eye(n + 1)
        bound = j * (n + 1) * _EPS * max(1.0, np.abs(power).max())
        assert np.abs(e_j - power)[free].max() <= bound


def _leap_case(kind, bc, **overrides):
    # n = 100 leaps 15 steps at a time: 50 steps are three full leaps and a
    # short one, in chunks of one, two and the rest (see _CHUNK_EDGES);
    # snapshots at leap and chunk edges (15, 45) and inside (7, 50)
    cfg = _config(
        flux=kind, bc=_LEAP_BCS[bc], dt=0.0002, t_end=0.01,
        snapshot_times=(0.0, 7 * 0.0002, 15 * 0.0002, 45 * 0.0002, 0.01), **overrides,
    )
    u0 = _pulse(cfg) + 0.25  # u(0) != 0: the rl advection is live
    for node, (value,) in solver._boundaries([cfg])[2]:
        u0[node] = value
    return cfg, u0


@pytest.mark.parametrize("bc", list(_LEAP_BCS))
@pytest.mark.parametrize("kind", list(FluxKind))
def test_step_is_the_oracles_update_bit_for_bit(kind, bc):
    # step reads the boundary treatment from solver._boundaries, the oracle
    # spells it out end by end; a non-finite field raises the same error,
    # and a field of the wrong node count a ValueError
    cfg, u0 = _leap_case(kind, bc)
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    q = face_fluxes(u0, kind, table, kappa=cfg.kappa)
    assert np.array_equal(step(u0, q, cfg), explicit_step(u0, q, cfg))
    with pytest.raises(ValueError, match=f"must have {cfg.n + 1} nodes"):
        step(np.zeros(51), np.zeros(50), cfg)
    q[50] = np.inf
    with pytest.raises(InstabilityError) as got:
        step(u0, q, cfg, step_index=7)
    with pytest.raises(InstabilityError) as want:
        explicit_step(u0, q, cfg, step_index=7)
    assert str(got.value) == str(want.value)


def _assert_runs_agree(got, want, bound):
    assert got.steps_taken == want.steps_taken
    # the trace shows the steps taken and no record entry past them
    assert got.trace.step_change.shape == (got.steps_taken,)
    for name in ("t", "mass", "u_min", "u_max"):
        assert getattr(got.trace, name).shape == (got.steps_taken + 1,)
    if got.steady_stop_time is not None:
        assert got.trace.step_change[-1] < got.cfg.steady_eps
    assert got.steady_stop_time == want.steady_stop_time
    assert got.snapshot_times == want.snapshot_times
    for a, b in zip(got.snapshots, want.snapshots):
        assert np.abs(a - b).max() <= bound
    assert np.abs(got.final - want.final).max() <= bound
    for name in ("mass", "u_min", "u_max", "step_change"):
        assert np.abs(getattr(got.trace, name) - getattr(want.trace, name)).max() <= bound
    assert np.array_equal(got.trace.t, want.trace.t)
    # the record the block pass reduced is the one its own trace gives
    assert _as_bytes(got.record) == _as_bytes(record_of(got.trace, got.cfg))


@pytest.mark.parametrize("bc", list(_LEAP_BCS))
@pytest.mark.parametrize("kind", list(FluxKind))
def test_leap_run_matches_the_stepwise_oracle(kind, bc):
    cfg, u0 = _leap_case(kind, bc, kappa=1.5 if kind is FluxKind.FOURIER else 1.0)
    if kind is FluxKind.FOURIER:
        cfg = replace(cfg, dt=1e-5, t_end=5e-4, snapshot_times=(7e-5, 15e-5, 45e-5, 5e-4))
    assert leap_steps(cfg.n, cfg.n_steps) == 15 and cfg.n_steps == 50
    got, want = run(cfg, u0, full_trace=True), run_stepwise(cfg, u0)
    # 50 steps of sums over ~n terms, each in its own order: a few ulps of
    # the field's scale per step
    _assert_runs_agree(got, want, 50 * 8 * _EPS * np.abs(u0).max())


def _replay_matrix(cfg):
    """T of the state (u, left value, right value), built column by column
    from the oracle's update: column j <= n is one step of the unit field
    e_j with zero boundary values, the two tail columns one step of the
    zero field with a unit value at that end; the tail rows keep the tail."""
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    left, right = type(cfg.bc.left), type(cfg.bc.right)

    def one_step(u, left_value, right_value):
        bc = BoundarySpec(left(left_value), right(right_value))
        return explicit_step(u, face_fluxes_direct(u, cfg.flux, table, kappa=cfg.kappa), replace(cfg, bc=bc))

    columns = [np.r_[one_step(e, 0.0, 0.0), 0.0, 0.0] for e in np.eye(cfg.n + 1)]
    columns += [np.r_[one_step(np.zeros(cfg.n + 1), *e), e] for e in np.eye(2)]
    return np.column_stack(columns)


@pytest.mark.parametrize("n,k", [(100, 15), (141, LEAP_MIN_STEPS)])
@pytest.mark.parametrize("bc", list(_LEAP_BCS))
@pytest.mark.parametrize("kind", list(FluxKind))
def test_leap_and_stepwise_runs_match_the_k_step_replay(kind, bc, n, k):
    # every law is linear and every boundary condition affine, so k steps
    # of the state x = (u, left value, right value) are x_k = T^k x_0,
    # replayed here by repeated squaring
    cfg, u0 = _leap_case(kind, bc, n=n, kappa=1.5 if kind is FluxKind.FOURIER else 1.0)
    if kind is FluxKind.FOURIER:
        cfg = replace(cfg, dt=1e-5, t_end=5e-4, snapshot_times=(0.0, 7e-5, 15e-5, 45e-5, 5e-4))
    assert leap_steps(cfg.n, cfg.n_steps) == k and cfg.n_steps % k  # ends in a short leap
    t = _replay_matrix(cfg)
    x0 = np.r_[u0, cfg.bc.left.value, cfg.bc.right.value]
    got, want = run(cfg, u0), run_stepwise(cfg, u0)
    for time, a, b in zip(got.snapshot_times, got.snapshots, want.snapshots):
        steps = cfg.steps_to(time)
        power = np.linalg.matrix_power(t, steps)
        # k steps of sums over at most n + 1 terms, each off by gamma_{n+1}
        # times entries that stay O(1) at these stable ratios (row sums of
        # |T^k| below 5), and as many for the log2 k squarings of the replay
        assert np.abs(power).sum(axis=1).max() < 5.0
        replay = (power @ x0)[:-2]
        bound = steps * (cfg.n + 1) * _EPS * np.abs(x0).max()
        assert np.abs(a - replay).max() <= bound
        assert np.abs(b - replay).max() <= bound


@pytest.mark.parametrize("kind,steps", [(FluxKind.RIEMANN_LIOUVILLE, 6833), (FluxKind.CAPUTO, 3376)])
def test_leap_run_stops_at_the_oracles_steady_step(kind, steps):
    from fracflux.scenarios import make_scenario

    cfg = replace(make_scenario("pulse-reflective").cfg, flux=kind, stop_when_steady=True)
    u0 = _pulse(cfg)
    got, want = run(cfg, u0, full_trace=True), run_stepwise(cfg, u0)
    assert got.steps_taken == want.steps_taken == steps
    assert steps % leap_steps(cfg.n, cfg.n_steps) != 0  # the stop falls inside a block
    # a stable run forgets its round-off: a few ulps of the field's scale
    # (2.5) over thousands of steps
    _assert_runs_agree(got, want, 64 * _EPS * np.abs(u0).max())
    # the leap moves the conserved mass no more than single steps do
    assert np.abs(got.trace.mass - 1.0).max() <= 5e-15


def test_leap_run_aborts_at_the_oracles_step(monkeypatch):
    # pulse-reflective under the gradient law at dt/dx^2 = 5 passes the
    # 1e12 guard at step 12, inside the first block, and the leap raises
    # without a single step
    cfg = _config(flux=FluxKind.FOURIER, t_end=10.0, snapshot_times=())
    calls = _count_face_fluxes(monkeypatch)
    with pytest.warns(StabilityWarning), pytest.raises(InstabilityError) as got:
        run(cfg, _pulse(cfg))
    assert calls == []
    with pytest.raises(InstabilityError) as want:
        run_stepwise(cfg, _pulse(cfg))
    assert got.value.step_index == want.value.step_index == 12
    assert "over 1e12" in str(got.value)


def test_non_finite_leap_block_is_redone_one_step_at_a_time():
    # At a scale of 1e300 the guard limit overflows to inf, so the first
    # sign of the blow-up is a non-finite value: the leap's block turns
    # non-finite, and that block, filled again on single steps from its
    # own step 0, must find the exact step.
    cfg = _config(flux=FluxKind.FOURIER, t_end=10.0, snapshot_times=())
    u0 = 1e300 * _pulse(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(StabilityWarning), pytest.raises(InstabilityError) as got:
            run(cfg, u0)
        with pytest.raises(InstabilityError) as want:
            run_stepwise(cfg, u0)
    assert got.value.step_index == want.value.step_index
    assert 1 < got.value.step_index < leap_steps(cfg.n, cfg.n_steps)
    assert "non-finite" in str(got.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("n,alpha", [(100, 0.5), (200, 0.9)])
def test_leap_keeps_constant_runs_exact(n, alpha):
    # caputo, parsimonious and fourier are blind to the constant left
    # value, which the stacked (n = 100) and F (n = 200) routes subtract
    # before the product; at n = 200 and alpha = 0.9 the product with F
    # alone moves the constant by an ulp
    for kind in (FluxKind.CAPUTO, FluxKind.PARSIMONIOUS, FluxKind.FOURIER):
        cfg = _config(
            flux=kind, n=n, alpha=alpha, dt=1e-5, t_end=5e-4, snapshot_times=(1e-4, 5e-4),
            bc=BoundarySpec(Dirichlet(32.0), Dirichlet(32.0)),
        )
        result = run(cfg, np.full(n + 1, 32.0), full_trace=True)
        assert all(np.all(u == 32.0) for u in result.snapshots)
        assert np.all(result.trace.step_change == 0.0)


# The stacked leap records a chunk of whole leaps at a time: one leap
# first, then twice as many each time up to solver._block_rows(n, K) steps,
# 10 leaps of K = 15 at n = 100.  So chunks end at steps 15, 45, 105, 225,
# 375, ..., and a 400-step run takes six, the last of 25 steps: one leap
# and a short one of 10.  Each chunk carries the leap ends from one to
# the next and fills the fields between them with one matrix product.

_CHUNK_EDGES = (15, 45, 105, 225, 375)
# chunk edges, leap edges inside a chunk (60, 240, 390), fields inside a
# leap, and the end
_CHUNK_SNAPS = (0, 7, 15, 45, 52, 60, 105, 225, 233, 240, 375, 380, 390, 398, 400)


def _chunk_case(kind, bc):
    cfg, u0 = _leap_case(kind, bc, kappa=1.5 if kind is FluxKind.FOURIER else 1.0)
    dt = 1e-5 if kind is FluxKind.FOURIER else cfg.dt
    cfg = replace(cfg, dt=dt, t_end=400 * dt, snapshot_times=tuple(k * dt for k in _CHUNK_SNAPS))
    assert leap_steps(cfg.n, cfg.n_steps) == 15 and solver._block_rows(cfg.n, 15) == 150
    return cfg, u0


@pytest.mark.parametrize("bc", list(_LEAP_BCS))
@pytest.mark.parametrize("kind", list(FluxKind))
def test_leap_chunks_match_the_stepwise_oracle(kind, bc):
    cfg, u0 = _chunk_case(kind, bc)
    last = cfg.n_steps - _CHUNK_EDGES[-1]
    assert last < 150 and last % 15  # a short last chunk, ending in a short leap
    got, want = run(cfg, u0, full_trace=True), run_stepwise(cfg, u0)
    assert [cfg.steps_to(t) for t in got.snapshot_times] == list(_CHUNK_SNAPS)
    _assert_runs_agree(got, want, cfg.n_steps * 8 * _EPS * np.abs(u0).max())


@pytest.mark.parametrize("bc", ["dirichlet", "mixed"])
@pytest.mark.parametrize("kind", list(FluxKind))
def test_leap_end_snapshot_equals_the_truncated_runs_final(kind, bc):
    # the leap ends are the carried state: the field j leaps in is the
    # final field of the run cut there, bit for bit, whatever chunk
    # either one ends in
    cfg, u0 = _chunk_case(kind, bc)
    ends = (1, 3, 7, 15, 16, 26)
    cfg = replace(cfg, snapshot_times=tuple(15 * j * cfg.dt for j in ends))
    result = run(cfg, u0)
    for j, snapshot in zip(ends, result.snapshots):
        cut = replace(cfg, t_end=15 * j * cfg.dt, snapshot_times=())
        assert cut.n_steps == 15 * j
        assert np.array_equal(snapshot, run(cut, u0).final)


def test_leap_steady_stop_inside_a_later_chunk_is_the_oracles():
    # a threshold between the step changes of steps 306 and 307, which
    # fall steadily here: the stop lands inside a leap of the fifth chunk
    cfg, u0 = _chunk_case(FluxKind.CAPUTO, "reflective")
    change = run_stepwise(cfg, u0).trace.step_change
    cfg = replace(cfg, stop_when_steady=True, steady_eps=0.5 * (change[305] + change[306]))
    got, want = run(cfg, u0, full_trace=True), run_stepwise(cfg, u0)
    assert got.steps_taken == want.steps_taken == 307
    assert _CHUNK_EDGES[3] < 307 <= _CHUNK_EDGES[4] and 307 % 15
    _assert_runs_agree(got, want, 307 * 8 * _EPS * np.abs(u0).max())
    # the snapshots past the stop hold the frozen field
    assert np.array_equal(got.snapshots[-1], got.final)


def _chunk_abort_config():
    # rl just over its stable ratio, on the stacked leap
    dt = 0.86 * 0.01 ** 1.3
    return _config(
        flux=FluxKind.RIEMANN_LIOUVILLE, alpha=0.3, dt=dt, t_end=400 * dt, snapshot_times=(),
        bc=BoundarySpec(FixedFlux(0.0), FixedFlux(0.0)),
    )


@pytest.mark.parametrize("scale,abort", [(1.0, 285), (1e300, 147)])
def test_leap_abort_inside_a_later_chunk_is_the_oracles(scale, abort):
    # round-off grows until the field passes the 1e12 guard at a leap end
    # of the fifth chunk, or, from a field of scale 1e300, overflows inside
    # a leap of the fourth; the chain of leap ends carries the non-finite
    # values on to the chunk's end
    cfg = _chunk_abort_config()
    u0 = scale * _pulse(cfg)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstabilityError) as want:
        run_stepwise(cfg, u0)
    assert want.value.step_index == abort > _CHUNK_EDGES[2]
    with pytest.warns(StabilityWarning) as caught, pytest.raises(InstabilityError) as got:
        run(cfg, u0)
    assert [w.category for w in caught] == [StabilityWarning]
    assert got.value.step_index == abort
    assert str(got.value) == str(want.value)
    assert ("non-finite" if scale == 1e300 else "over 1e12") in str(got.value)


@pytest.mark.parametrize("n,stride", [(100, 15), (200, 1)])
def test_overflowing_operator_aborts_like_single_steps(n, stride):
    # kappa = 1e308 overflows the face operator as it is built, for the
    # stacked leap (n = 100) and the F route (n = 200); the build runs
    # under the march's error state, so the StabilityWarning is the only
    # warning and the abort is the single-step loop's
    cfg = _config(kappa=1e308, n=n, snapshot_times=())
    u0 = _pulse(cfg)
    assert leap_steps(cfg.n, cfg.n_steps) == stride
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstabilityError) as want:
        run_stepwise(cfg, u0)
    with pytest.warns(StabilityWarning) as caught, pytest.raises(InstabilityError) as got:
        run(cfg, u0)
    assert [w.category for w in caught] == [StabilityWarning]
    assert got.value.step_index == want.value.step_index == 1
    assert str(got.value) == str(want.value)


# ------------------------------------------------- F route and FFT route
#
# From n = 142 to FFT_MIN_N - 1 run() takes one product with the face
# operator F per step; from FFT_MIN_N up, one face_fluxes per step, and
# so does the local fourier law wherever it does not leap (from n = 142
# up, and short runs below).  Both feed the update
# the stacked leap uses, which the stepwise oracle encodes on its own.
# Both fill a block of fields before recording them, solver.BLOCK_ROWS of
# them at the n below, so the cases run past two block edges and take
# snapshots on and inside them.

# "mixed" holds a nonzero boundary flux at one end only.
_ROUTE_BCS = _LEAP_BCS


def _route_case(kind, bc, n, steps):
    rows = solver.BLOCK_ROWS
    assert solver._block_rows(n) == rows
    dt = 0.4 * (1.0 / n) ** (2.0 if kind is FluxKind.FOURIER else 1.5)
    snaps = tuple(k * dt for k in (0, 7, rows, 2 * rows, 2 * rows + 5, steps) if k <= steps)
    cfg = _config(flux=kind, bc=_ROUTE_BCS[bc], n=n, dt=dt, t_end=steps * dt, snapshot_times=snaps)
    u0 = _pulse(cfg) + 0.25  # u(0) != 0: the rl advection is live
    for node, (value,) in solver._boundaries([cfg])[2]:
        u0[node] = value
    return cfg, u0


def _count_face_fluxes(monkeypatch) -> list:
    """The calls of solver.face_fluxes from now on, one entry each: the
    single-step source, which no product route calls."""
    calls, fluxes = [], solver.face_fluxes
    monkeypatch.setattr(solver, "face_fluxes", lambda *args, **kw: calls.append(args) or fluxes(*args, **kw))
    return calls


def _count_advance(monkeypatch) -> list:
    """The calls of solver._advance from now on, one entry each."""
    calls, advance = [], solver._advance
    monkeypatch.setattr(solver, "_advance", lambda *args: calls.append(args) or advance(*args))
    return calls


@pytest.mark.parametrize(
    "kind,n,stride",
    [
        (FluxKind.CAPUTO, 100, 15),  # the stacked leap
        (FluxKind.RIEMANN_LIOUVILLE, 200, 1),  # the F route
        (FluxKind.CAPUTO, FFT_MIN_N, 0),  # face_fluxes
        (FluxKind.FOURIER, 200, 0),  # face_fluxes of the local law
    ],
)
def test_every_route_moves_its_fields_through_advance(kind, n, stride, monkeypatch):
    cfg, u0 = _route_case(kind, "mixed", n, 2 * solver.BLOCK_ROWS + 16)
    assert leap_steps(cfg.n, cfg.n_steps, LAWS[kind].local) == stride
    want = run(cfg, u0, full_trace=True)
    calls = _count_advance(monkeypatch)
    got = run(cfg, u0, full_trace=True)
    _assert_runs_agree(got, want, 0.0)
    if stride > 1:  # one update per leap end, and one per chunk for the fields inside its leaps
        assert 0 < len(calls) < cfg.n_steps
    else:  # one update a step
        assert len(calls) == cfg.n_steps


def test_step_moves_the_field_through_advance(monkeypatch):
    cfg = _config(bc=_ROUTE_BCS["mixed"])
    u = _pulse(cfg)
    q = face_fluxes(u, cfg.flux, build_table(cfg.alpha, cfg.dx, cfg.n))
    want = step(u, q, cfg)
    calls = _count_advance(monkeypatch)
    assert np.array_equal(step(u, q, cfg), want)
    assert len(calls) == 1


@pytest.mark.parametrize("bc", list(_ROUTE_BCS))
@pytest.mark.parametrize("kind", list(FluxKind))
def test_f_route_matches_the_stepwise_oracle(kind, bc):
    steps = 2 * solver.BLOCK_ROWS + 16
    cfg, u0 = _route_case(kind, bc, 200, steps)
    # fourier takes single steps here
    assert leap_steps(cfg.n, cfg.n_steps, LAWS[kind].local) == (0 if kind is FluxKind.FOURIER else 1)
    got, want = run(cfg, u0, full_trace=True), run_stepwise(cfg, u0)
    _assert_runs_agree(got, want, steps * 8 * _EPS * np.abs(u0).max())
    # at n = 100 a run too short for the stacked leap takes F products,
    # and fourier single steps, bit for bit
    steps = LEAP_MIN_STEPS - 1
    cfg, u0 = _route_case(kind, bc, 100, steps)
    single = kind is FluxKind.FOURIER
    assert leap_steps(cfg.n, cfg.n_steps, LAWS[kind].local) == (0 if single else 1)
    got, want = run(cfg, u0, full_trace=True), run_stepwise(cfg, u0)
    _assert_runs_agree(got, want, 0.0 if single else steps * 8 * _EPS * np.abs(u0).max())


@pytest.mark.parametrize("kind", list(FluxKind))
def test_f_route_stops_at_the_oracles_steady_step(kind):
    # a threshold between the step changes of steps 76 and 77, which fall
    # steadily here: the stop lands inside the third block
    cfg, u0 = _route_case(kind, "reflective", 200, 120)
    change = run_stepwise(cfg, u0).trace.step_change
    cfg = replace(cfg, stop_when_steady=True, steady_eps=0.5 * (change[75] + change[76]))
    got, want = run(cfg, u0, full_trace=True), run_stepwise(cfg, u0)
    assert got.steps_taken == want.steps_taken == 77
    _assert_runs_agree(got, want, 77 * 8 * _EPS * np.abs(u0).max())
    # the snapshots past the stop hold the frozen field
    assert np.array_equal(got.snapshots[-1], got.final)


@pytest.mark.parametrize("bc", list(_ROUTE_BCS))
@pytest.mark.parametrize("kind", list(FluxKind))
def test_fft_route_equals_the_stepwise_oracle_bit_for_bit(kind, bc):
    cfg, u0 = _route_case(kind, bc, FFT_MIN_N, 2 * solver.BLOCK_ROWS + 16)
    assert leap_steps(cfg.n, cfg.n_steps) == 0
    got, want = run(cfg, u0, full_trace=True), run_stepwise(cfg, u0)
    _assert_runs_agree(got, want, 0.0)
    for name in ("mass", "u_min", "u_max", "step_change"):
        assert np.array_equal(getattr(got.trace, name), getattr(want.trace, name))


@pytest.mark.parametrize("bc", list(_ROUTE_BCS))
@pytest.mark.parametrize("kind", list(FluxKind))
@pytest.mark.parametrize("n", [100, 200, FFT_MIN_N])
def test_traced_mass_is_the_total_mass_of_each_snapshot(n, kind, bc):
    # the recorder takes its mass with diagnostics.total_mass on every
    # route: the stacked leap (n = 100), the F product (n = 200, where
    # fourier takes single steps) and the FFT route
    if n == 100:
        cfg, u0 = _leap_case(kind, bc)
        if kind is FluxKind.FOURIER:
            cfg = replace(cfg, dt=1e-5, t_end=5e-4, snapshot_times=(0.0, 7e-5, 15e-5, 45e-5, 5e-4))
        assert leap_steps(cfg.n, cfg.n_steps, LAWS[kind].local) == 15
    else:
        cfg, u0 = _route_case(kind, bc, n, 2 * solver.BLOCK_ROWS + 16)
    result = run(cfg, u0, full_trace=True)
    assert len(result.snapshots) >= 5
    for t, snapshot in zip(result.snapshot_times, result.snapshots):
        assert result.trace.mass[cfg.steps_to(t)] == total_mass(snapshot)


def _record_cases():
    """(label, configs, initial fields) on each route, over more than 999
    steps, so that windows of several steps straddle the blocks."""
    for label, kind, n, steps in (
        ("leap", FluxKind.RIEMANN_LIOUVILLE, 100, 3000),
        ("f-route", FluxKind.CAPUTO, 200, 2500),
        ("fft-route", FluxKind.RIEMANN_LIOUVILLE, FFT_MIN_N, 1200),
        ("fourier", FluxKind.FOURIER, 100, 3000),
    ):
        cfg, u0 = _route_case(kind, "reflective", n, steps)
        if kind is FluxKind.RIEMANN_LIOUVILLE:
            u0 = _pulse(cfg)  # u(0) = 0: rl leaves the bounds late, not at step 1
        yield label, [cfg], [u0]
    # a block of three on the stacked leap, each field with its own
    # steady_eps, one of them signed zeros
    cfg, u0 = _route_case(FluxKind.CAPUTO, "reflective", 100, 2000)
    signed = np.where(np.arange(cfg.n + 1) % 2, -0.0, 0.0)
    cfgs = [replace(cfg, steady_eps=eps) for eps in (1e-4, 1e-10, 1e-6)]
    yield "block", cfgs, [u0, signed, -1.0 - 2.0 * u0]


@pytest.mark.parametrize("held", [solver.RECORD_ROWS, 1], ids=["held", "taken-every-block"])
@pytest.mark.parametrize("steady", [False, True], ids=["horizon", "steady-stop"])
@pytest.mark.parametrize("case", ["leap", "f-route", "fft-route", "fourier", "block"])
def test_record_of_each_route_and_block_is_that_of_its_full_trace(monkeypatch, case, steady, held):
    # held = 1: the recorder takes in each block's steps before the next
    # block, so windows straddle what it takes in
    monkeypatch.setattr(solver, "RECORD_ROWS", held)
    label, cfgs, u0s = next(c for c in _record_cases() if c[0] == case)
    if steady and len(cfgs) == 1:
        # stop between the step changes into steps stop - 1 and stop (they
        # fall steadily here), halfway through the run, inside a window
        stop = cfgs[0].n_steps // 2 + 1
        change = run(cfgs[0], u0s[0], full_trace=True).trace.step_change
        cfgs = [replace(cfgs[0], steady_eps=0.5 * (change[stop - 2] + change[stop - 1]))]

    def march(full_trace):
        if steady:  # a block cannot stop: each field alone
            return [run(replace(cfg, stop_when_steady=True), u0, full_trace=full_trace)
                    for cfg, u0 in zip(cfgs, u0s)]
        return run_block(cfgs, u0s, full_trace=full_trace)

    results = march(True)
    for got, result in zip(march(False), results):
        assert got.trace is None and _as_bytes(got.record) == _as_bytes(result.record)
    for cfg, u0, result in zip(cfgs, u0s, results):
        trace, record = result.trace, result.record
        assert _as_bytes(record) == _as_bytes(record_of(trace, cfg))
        principle = max_principle_check(trace, u0)
        assert record.first_violation == principle.first_step
        if record.first_violation is not None:
            assert record.first_violation * cfg.dt == principle.first_time
        quiet = steady_state_time(trace, cfg.steady_eps)
        assert (None if record.quiet_step is None else record.quiet_step * cfg.dt) == quiet
        steps = result.steps_taken
        assert record.t.size == 1 + -(-steps // -(-cfg.n_steps // 999))
        assert record.final_mass == trace.mass[-1] == record.mass[-1]
        if steady:
            assert record.quiet_step == steps < cfg.n_steps or record.quiet_step is None
        if steady and len(cfgs) == 1:
            assert steps == stop
    if case == "leap":
        assert results[0].record.first_violation == 346  # rl leaves the bounds in a later block
    if case == "block":
        quiet = [result.record.quiet_step for result in results]
        assert quiet[1] == 1 and len(set(quiet)) == 3  # signed zeros are quiet at once


def _runaway_config(kind, n):
    # the gradient law at dt/dx^2 >= 5, caputo at dt/dx^1.5 = 5
    if kind is FluxKind.FOURIER:
        return _config(flux=kind, n=n, t_end=10.0, snapshot_times=())
    dt = 5.0 * (1.0 / n) ** 1.5
    return _config(flux=kind, n=n, dt=dt, t_end=2000 * dt, snapshot_times=())


@pytest.mark.parametrize("scale", [1.0, 1e290, 1e300])
@pytest.mark.parametrize("n", [100, 200, FFT_MIN_N])
@pytest.mark.parametrize("kind", [FluxKind.FOURIER, FluxKind.CAPUTO])
def test_abort_step_and_message_equal_the_oracles_on_every_route(kind, n, scale):
    # the stacked (n = 100), F (caputo at n = 200) and single-step routes
    # (fourier at n = 200, and n = FFT_MIN_N): at scale 1 the field passes
    # the 1e12 guard; at 1e290 it does so and overflows a few steps on, in
    # the same block; at 1e300 the guard limit is out of range and the
    # field first turns non-finite
    cfg = _runaway_config(kind, n)
    u0 = scale * _pulse(cfg)
    with pytest.warns(StabilityWarning) as caught, pytest.raises(InstabilityError) as got:
        run(cfg, u0)
    # the fields computed past the blow-up raise no numpy warnings
    assert [w.category for w in caught] == [StabilityWarning]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstabilityError) as want:
        run_stepwise(cfg, u0)
    assert got.value.step_index == want.value.step_index > 1
    assert str(got.value) == str(want.value)
    assert ("non-finite" if scale == 1e300 else "over 1e12") in str(got.value)


# Just over the stable ratio, round-off takes hundreds of steps to pass
# the guard: many leaps on the stacked route (caputo and rl at n = 100)
# and blocks on the F route (caputo at n = 200).  The run, and a block
# with a quiet field first, raise from the route that ran, with the
# single-step loop's step and message.
_LATE_ABORTS = {
    "caputo-100": (FluxKind.CAPUTO, 0.5, 0.75, 100, Dirichlet(0.0), 552),
    "caputo-200": (FluxKind.CAPUTO, 0.5, 0.75, 200, Dirichlet(0.0), 323),
    "rl-100": (FluxKind.RIEMANN_LIOUVILLE, 0.3, 0.9, 100, FixedFlux(0.0), 163),
}


@pytest.mark.parametrize("case", list(_LATE_ABORTS))
def test_late_abort_equals_the_oracles_solo_and_in_a_block(case, monkeypatch):
    kind, alpha, ratio, n, end, abort = _LATE_ABORTS[case]
    dt = ratio * (1.0 / n) ** (1.0 + alpha)
    cfg = _config(
        flux=kind, alpha=alpha, n=n, dt=dt, t_end=2 * abort * dt, snapshot_times=(),
        bc=BoundarySpec(end, end),
    )
    wild = _pulse(cfg)
    with pytest.raises(InstabilityError) as want:
        run_stepwise(cfg, wild)
    assert want.value.step_index == abort
    stride = leap_steps(n, cfg.n_steps)
    assert abort > 10 * (stride if stride > 1 else solver.BLOCK_ROWS)  # ten leaps or blocks in
    calls = _count_face_fluxes(monkeypatch)
    for march in (lambda: run(cfg, wild), lambda: run_block([cfg, cfg], [np.zeros(n + 1), wild])):
        with pytest.warns(StabilityWarning), pytest.raises(InstabilityError) as got:
            march()
        assert got.value.step_index == abort
        assert str(got.value) == str(want.value)
    assert calls == []  # no field marched again on single steps


# ------------------------------------------------------------ field blocks
#
# run_block marches fields whose configs differ only in their boundary
# values and records them together.  On the F route (n = 200) one GEMM
# per step serves every field; on the stacked route (n = 100) each field
# takes its own products with the shared operator, a GEMV per leap end
# and a GEMM per chunk, and from FFT_MIN_N up its own face_fluxes.  Each
# field must match its solo run: to round-off where one GEMM serves every
# field and sums in its own order, else bit for bit.  The blocks have three
# fields, so the indexing is checked past a first and a last one.

_BLOCK_BCS = {
    "dirichlet": (BoundarySpec(Dirichlet(0.75), Dirichlet(-0.5)),
                  BoundarySpec(Dirichlet(-1.25), Dirichlet(2.0)),
                  BoundarySpec(Dirichlet(3.5), Dirichlet(1.5))),
    "fixed-flux": (BoundarySpec(FixedFlux(0.375), FixedFlux(0.125)),
                   BoundarySpec(FixedFlux(-0.5), FixedFlux(0.25)),
                   BoundarySpec(FixedFlux(0.0), FixedFlux(-0.625))),
    "mixed": (BoundarySpec(Dirichlet(0.75), FixedFlux(0.125)),
              BoundarySpec(Dirichlet(-1.0), FixedFlux(-0.375)),
              BoundarySpec(Dirichlet(2.5), FixedFlux(0.5))),
}


def _block_case(kind, bc, n, steps=2 * solver.BLOCK_ROWS + 16):
    base, _ = _route_case(kind, "reflective", n, steps)
    cfgs, u0s = [], []
    for spec, (a, b) in zip(_BLOCK_BCS[bc], [(1.0, 0.25), (-2.0, 1.0), (0.5, 3.0)]):
        cfg = replace(base, bc=spec)
        u0 = a * _pulse(cfg) + b  # u(0) != 0: the rl advection is live
        for node, (value,) in solver._boundaries([cfg])[2]:
            u0[node] = value
        cfgs.append(cfg)
        u0s.append(u0)
    return cfgs, u0s


@pytest.mark.parametrize("bc", list(_BLOCK_BCS))
@pytest.mark.parametrize("kind", list(FluxKind))
@pytest.mark.parametrize("n", [100, 200, FFT_MIN_N])
def test_block_fields_match_their_solo_runs(n, kind, bc):
    runs = [2 * solver.BLOCK_ROWS + 16]
    if n == 100:
        # a run too short for the stacked leap: one GEMM of F per step;
        # and one past six leap chunks (see _CHUNK_EDGES)
        runs += [LEAP_MIN_STEPS - 1, 400]
    for steps in runs:
        cfgs, u0s = _block_case(kind, bc, n, steps)
        block = run_block(cfgs, u0s, full_trace=True)
        gemm = leap_steps(n, steps, LAWS[kind].local) == 1
        for got, cfg, u0 in zip(block, cfgs, u0s):
            assert got.cfg is cfg
            want = run(cfg, u0, full_trace=True)
            # a few ulps of the field's scale per step after a GEMM, else none
            _assert_runs_agree(got, want, steps * 8 * _EPS * np.abs(u0).max() if gemm else 0.0)
        # the fields differ, so a mix-up of rows or offsets shows
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                assert np.abs(a.final - b.final).max() > 0.1


@pytest.mark.parametrize("width", [4, 5, 8])
@pytest.mark.parametrize("n", [200, FFT_MIN_N - 1])
def test_wide_f_route_block_is_its_pairs_bit_for_bit(n, width):
    # a block of more than three fields takes its products with F two
    # fields at a time: each pair, and a last field alone, has the bits of
    # its own block, which sum in an order the BLAS thread count does not
    # reach
    for kind in (FluxKind.RIEMANN_LIOUVILLE, FluxKind.CAPUTO):
        three, starts = _block_case(kind, "fixed-flux", n)
        cfgs = [three[i % 3] for i in range(width)]
        u0s = [starts[i % 3] + i for i in range(width)]  # no Dirichlet end to match
        assert leap_steps(n, cfgs[0].n_steps) == 1
        block = run_block(cfgs, u0s, full_trace=True)
        for i in range(0, width, 2):
            pair = run_block(cfgs[i : i + 2], u0s[i : i + 2], full_trace=True)
            assert _as_bytes(block[i : i + 2]) == _as_bytes(pair)


@pytest.mark.parametrize("n", [100, 200, FFT_MIN_N])
def test_block_of_one_is_run_bit_for_bit(n):
    for kind in FluxKind:
        cfg, u0 = _route_case(kind, "dirichlet", n, 2 * solver.BLOCK_ROWS + 16)
        _assert_runs_agree(run_block([cfg], [u0], full_trace=True)[0], run(cfg, u0, full_trace=True), 0.0)
    # the steady stop is open to a block of one
    cfg, u0 = _route_case(FluxKind.CAPUTO, "reflective", n, 120)
    change = run(cfg, u0, full_trace=True).trace.step_change
    cfg = replace(cfg, stop_when_steady=True, steady_eps=0.5 * (change[75] + change[76]))
    got, want = run_block([cfg], [u0], full_trace=True)[0], run(cfg, u0, full_trace=True)
    assert got.steady_stop_time is not None
    _assert_runs_agree(got, want, 0.0)


@pytest.mark.parametrize("n", [100, 200, FFT_MIN_N])
def test_block_holds_each_field_to_its_own_runaway_limit(n, monkeypatch):
    # the second field runs past 1e12 times the first one's scale: held to
    # the lowest limit, the block would fail the guard; held to its own,
    # each field passes in the block's one march, with its solo results
    cfg, u0 = _route_case(FluxKind.CAPUTO, "dirichlet", n, 2 * solver.BLOCK_ROWS + 16)
    big = replace(cfg, bc=BoundarySpec(*(Dirichlet(1e13 * bc.value + 3e13) for bc in (cfg.bc.left, cfg.bc.right))))
    cfgs, u0s = [cfg, big], [u0, 1e13 * u0 + 3e13]
    march, marches = solver._march, []
    monkeypatch.setattr(solver, "_march", lambda *args: marches.append(args) or march(*args))
    block = run_block(cfgs, u0s, full_trace=True)
    assert len(marches) == 1
    gemm = leap_steps(n, cfg.n_steps) == 1
    for got, cfg, u0 in zip(block, cfgs, u0s):
        _assert_runs_agree(got, run(cfg, u0, full_trace=True), cfg.n_steps * 8 * _EPS * np.abs(u0).max() if gemm else 0.0)


@pytest.mark.parametrize("order", ["quiet-first", "runaway-first", "both-run-away"])
@pytest.mark.parametrize("scale", [1.0, 1e300])
@pytest.mark.parametrize("n", [100, 200, FFT_MIN_N])
@pytest.mark.parametrize("kind", [FluxKind.FOURIER, FluxKind.CAPUTO])
def test_block_with_a_runaway_field_raises_the_solo_error(kind, n, scale, order):
    # a constant field stays put under an unstable step; the pulse runs
    # away, and so does a third of it, with another message at scale 1
    cfg = _runaway_config(kind, n)
    quiet, wild = np.full(n + 1, 2.0), scale * _pulse(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(StabilityWarning), pytest.raises(InstabilityError) as want:
            run(cfg, wild)
    u0s = {
        "quiet-first": [quiet, wild], "runaway-first": [wild, quiet],
        "both-run-away": [wild, wild / 3.0],
    }[order]
    with pytest.warns(StabilityWarning) as caught, pytest.raises(InstabilityError) as got:
        run_block([cfg, cfg], u0s)
    # one warning for the block, and no numpy warnings from the fields
    # computed past the blow-up
    assert [w.category for w in caught] == [StabilityWarning]
    assert got.value.step_index == want.value.step_index
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [100, 200, FFT_MIN_N])
def test_block_abort_raises_the_earliest_failing_step(n):
    # a millionth of the pulse is held to the floor limit, 1e12, and passes
    # it at step 18; the pulse passes its own limit at step 13, and so does
    # twice the pulse, whose fields and limit are twice the pulse's, bit for
    # bit.  A block raises the solo error of its earliest failing step, and
    # on a tie that of its lowest field index.
    cfg = _runaway_config(FluxKind.CAPUTO, n)
    pulse = _pulse(cfg)

    def error(*u0s):
        with pytest.warns(StabilityWarning), pytest.raises(InstabilityError) as got:
            run_block([cfg] * len(u0s), u0s)
        return got.value.step_index, str(got.value)

    small, one, two = error(1e-6 * pulse), error(pulse), error(2.0 * pulse)
    assert (small[0], one[0], two[0]) == (18, 13, 13) and one[1] != two[1]
    assert error(1e-6 * pulse, pulse) == one
    assert error(pulse, 2.0 * pulse) == one
    assert error(2.0 * pulse, pulse) == two


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("case", ["fourier-100", "caputo-100", "caputo-200", "rl-chunk"])
def test_overflow_abort_fills_one_block_again_on_single_steps(case, width, monkeypatch):
    # from a field of scale 1e300 a product's sums overflow a step before
    # single steps' fields do: the block where they do is filled again,
    # from its own step 0, with face_fluxes, and raises the oracle's error;
    # the stacked leap (n = 100, rl in its fourth chunk) and the F route
    # (n = 200)
    if case == "rl-chunk":
        cfg = _chunk_abort_config()
    else:
        kind, n = case.split("-")
        cfg = _runaway_config(FluxKind.from_name(kind), int(n))
    stride = leap_steps(cfg.n, cfg.n_steps, LAWS[cfg.flux].local)
    assert stride >= 1
    u0 = 1e300 * _pulse(cfg)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstabilityError) as want:
        run_stepwise(cfg, u0)
    calls = _count_face_fluxes(monkeypatch)
    with pytest.warns(StabilityWarning) as caught, pytest.raises(InstabilityError) as got:
        run_block([cfg] * width, [u0, u0 / 3.0][:width])
    assert [w.category for w in caught] == [StabilityWarning]
    assert str(got.value) == str(want.value)
    assert 0 < len(calls) <= width * solver._block_rows(cfg.n, stride)


def test_block_configs_must_share_the_operator():
    cfgs, u0s = _block_case(FluxKind.CAPUTO, "mixed", 100)
    cfg = cfgs[0]
    for other in (
        replace(cfg, bc=BoundarySpec(FixedFlux(0.75), FixedFlux(0.125))),
        replace(cfg, bc=BoundarySpec(Dirichlet(0.75), Dirichlet(0.125))),
        replace(cfg, n=101),
        replace(cfg, alpha=0.6),
        replace(cfg, dt=cfg.dt / 2),
        replace(cfg, t_end=2 * cfg.t_end),
        replace(cfg, snapshot_times=(cfg.t_end,)),
        replace(cfg, flux=FluxKind.RIEMANN_LIOUVILLE),
        replace(cfg, kappa=1.5),
    ):
        with pytest.raises(ValueError, match="must agree"):
            run_block([cfg, other], [u0s[0], u0s[0]])
    with pytest.raises(ValueError, match="stop_when_steady"):
        run_block([cfg, replace(cfgs[1], stop_when_steady=True)], u0s[:2])
    with pytest.raises(ValueError, match="one initial field per config"):
        run_block(cfgs, u0s[:1])
    with pytest.raises(ValueError, match="one initial field per config"):
        run_block([], [])
    # each field is checked as run checks it
    with pytest.raises(ConfigurationError, match="left end"):
        run_block(cfgs, [u0s[0]] * len(cfgs))


# --------------------------------------------------------- operator cache
#
# The stacked leap reads its P from solver._stacked_operator, which keeps
# the OPERATOR_CACHE_SIZE most recently used, keyed on its own arguments,
# the weight table by identity among them; the K = 1 route builds its F
# for every run.  What the cache holds must not reach any output bit.


@pytest.fixture
def builds(monkeypatch):
    """An empty operator cache for the test, the suite's own left as it
    was, and the builds made from it on: every build makes one F, and a
    leap's one P from it."""
    counts = {"face": 0, "leap": 0}

    def counted(name, build):
        def wrapper(*args):
            counts[name] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(solver, "_operators", {})
    monkeypatch.setattr(solver, "_face_operator", counted("face", solver._face_operator))
    monkeypatch.setattr(solver, "_leap_operator", counted("leap", solver._leap_operator))
    return counts


def _cache_case(n, kind=FluxKind.RIEMANN_LIOUVILLE, bc="dirichlet"):
    """A run on the stacked leap (n = 100, K = 15) or the F route (n = 200)."""
    cfg, u0 = _route_case(kind, bc, n, 2 * solver.BLOCK_ROWS + 16)
    assert leap_steps(cfg.n, cfg.n_steps) == {100: 15, 200: 1}[n]
    return cfg, u0


def _as_bytes(value):
    """Every field of a RunResult, each array as its dtype, shape and bytes."""
    if isinstance(value, (RunResult, RunRecord, DiagnosticTrace)):
        return {f.name: _as_bytes(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, list):
        return [_as_bytes(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


@pytest.mark.parametrize("n", [100, 200])
def test_operator_cache_state_reaches_no_output_bit(builds, n):
    # the leap builds F only for a P the cache lacks, the K = 1 route
    # builds F for every run and leaves the cache empty
    every_run = n == 200
    cfg, u0 = _cache_case(n)
    cold = _as_bytes(run(cfg, u0, full_trace=True))
    assert builds["face"] == 1
    assert _as_bytes(run(cfg, u0, full_trace=True)) == cold  # warm
    assert builds["face"] == 1 + every_run
    # as many other operators as the cache holds evict this one
    for j in range(1, OPERATOR_CACHE_SIZE + 1):
        run(replace(cfg, kappa=1.0 - j / 16), u0)
    assert builds["face"] == 1 + every_run + OPERATOR_CACHE_SIZE
    assert _as_bytes(run(cfg, u0, full_trace=True)) == cold
    assert builds["face"] == 2 + every_run + OPERATOR_CACHE_SIZE
    assert len(solver._operators) == (0 if every_run else OPERATOR_CACHE_SIZE)


def test_operator_cache_entries_are_read_only(builds):
    for n in (100, 200):
        run(*_cache_case(n))
    operators = list(solver._operators.values())
    assert [operator.shape for operator in operators] == [(15 * 102, 103)]
    for operator in operators:
        with pytest.raises(ValueError, match="read-only"):
            operator[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(operator, 1.0, out=operator)


def test_operator_cache_is_left_as_it_was_by_the_face_operator_route(builds):
    # the K = 1 route builds its F for every run and caches nothing, so a
    # leap's P stays warm across it
    leap, u0 = _cache_case(100)
    cold = _as_bytes(run(leap, u0, full_trace=True))
    before = dict(solver._operators)
    cfg, v0 = _cache_case(200)
    first = _as_bytes(run(cfg, v0, full_trace=True))
    assert _as_bytes(run(cfg, v0, full_trace=True)) == first
    assert builds == {"face": 3, "leap": 1}
    assert list(solver._operators) == list(before)
    assert all(solver._operators[key] is stacked for key, stacked in before.items())
    assert _as_bytes(run(leap, u0, full_trace=True)) == cold
    assert builds == {"face": 3, "leap": 1}


def test_operator_cache_builds_afresh_for_a_rebuilt_table(builds):
    cfg, u0 = _cache_case(100)
    run(cfg, u0)
    run(cfg, u0)
    assert builds["leap"] == 1
    build_table.cache_clear()
    run(cfg, u0)
    assert builds["leap"] == 2
    # the stale key holds its own table, and the new key the rebuilt one
    stale, fresh = (key[0] for key in solver._operators)
    assert stale is not fresh
    assert fresh is build_table(cfg.alpha, cfg.dx, cfg.n)


def test_operator_cache_holds_at_most_its_size(builds):
    cfg, u0 = _cache_case(100)
    cfgs = [replace(cfg, kappa=1.0 - j / 16) for j in range(OPERATOR_CACHE_SIZE + 2)]
    for j, other in enumerate(cfgs):
        run(other, u0)
        assert len(solver._operators) == min(j + 1, OPERATOR_CACHE_SIZE)
    assert builds["leap"] == len(cfgs)
    # the most recently used stay, the least recently used go first
    run(cfgs[-OPERATOR_CACHE_SIZE], u0)
    assert builds["leap"] == len(cfgs)
    run(cfgs[0], u0)
    assert builds["leap"] == len(cfgs) + 1
    assert len(solver._operators) == OPERATOR_CACHE_SIZE
    run(cfgs[-OPERATOR_CACHE_SIZE], u0)  # used since, so not evicted
    assert builds["leap"] == len(cfgs) + 1


def test_operator_cache_serves_concurrent_runs(builds):
    # more threads than cores, switching often, each running more distinct
    # operators than the cache holds: every run keeps its bits and the
    # cache its bound
    cfg, u0 = _cache_case(100)
    cfg = replace(cfg, t_end=16 * cfg.dt, snapshot_times=(cfg.dt, 16 * cfg.dt))
    cfgs = [replace(cfg, kappa=1.0 - j / 16) for j in range(OPERATOR_CACHE_SIZE + 2)]
    want = [_as_bytes(run(other, u0, full_trace=True)) for other in cfgs]
    got, sizes, errors = {}, [], []

    def worker(w):
        try:
            for j in range(len(cfgs)):
                i = (j + w) % len(cfgs)
                got[w, i] = _as_bytes(run(cfgs[i], u0, full_trace=True))
                sizes.append(len(solver._operators))
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == len(threads) * len(cfgs)
    assert all(result == want[i] for (_, i), result in got.items())
    assert max(sizes) <= OPERATOR_CACHE_SIZE


@pytest.mark.parametrize("n", [100, 200])
def test_operator_cache_serves_parsimonious_with_caputos_operator(builds, n):
    cfg, u0 = _cache_case(n, FluxKind.CAPUTO)
    caputo = _as_bytes(run(cfg, u0, full_trace=True))
    parsimonious = _as_bytes(run(replace(cfg, flux=FluxKind.PARSIMONIOUS), u0, full_trace=True))
    # one cached P on the leap, an F for each run on the K = 1 route
    assert builds["face"] == {100: 1, 200: 2}[n]
    # the same law row, so the same operator and the same bits
    assert {**parsimonious, "cfg": None} == {**caputo, "cfg": None}


@pytest.mark.parametrize("n", [100, 200])
def test_operator_cache_key_is_what_the_operator_depends_on(builds, n):
    cfg, u0 = _cache_case(n)
    # boundary values and shifts are not in the key: rl takes no shift,
    # caputo each field's left value at t = 0; the K = 1 route has no key
    # and builds F for each of the four runs
    moved = replace(cfg, bc=BoundarySpec(Dirichlet(0.25), Dirichlet(1.5)))
    shifted = u0 + 1.0
    shifted[[0, -1]] = 0.25, 1.5
    for kind in (FluxKind.RIEMANN_LIOUVILLE, FluxKind.CAPUTO):
        run(replace(cfg, flux=kind), u0)
        run(replace(moved, flux=kind), shifted)
    assert builds["face"] == {100: 2, 200: 4}[n]
    # P steps dt and pins the Dirichlet nodes
    halved = replace(cfg, dt=cfg.dt / 2, t_end=cfg.t_end / 2, snapshot_times=())
    reflective = _cache_case(n, bc="reflective")
    for other, u in ((halved, u0), reflective):
        before = builds["face"]
        run(other, u)
        assert builds["face"] == before + 1
    # kappa and the table, alpha's here, are in every key
    for other in (
        replace(cfg, kappa=0.75),
        replace(cfg, alpha=0.75, dt=cfg.dt / 8, t_end=cfg.t_end / 8, snapshot_times=()),
    ):
        assert leap_steps(other.n, other.n_steps) == leap_steps(cfg.n, cfg.n_steps)
        before = builds["face"]
        run(other, u0)
        assert builds["face"] == before + 1
    # a P is built from each F on the leap, none on the K = 1 route
    assert builds["leap"] == {100: builds["face"], 200: 0}[n]
