"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``;
the test outcome itself carries the same information).  Runs use the
desk-scale resolution n = 100 and the scenario time step dt = 0.0005,
except where the explicit gradient law needs a step inside its own
stability bound dt <= dx^2 / 2.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from fracflux.diagnostics import equivariance_test, steady_state_time
from fracflux.flux import FluxKind, apparent_advection, face_fluxes
from fracflux.scenarios import build_initial, make_scenario
from fracflux.solver import InstabilityError, run, step
from fracflux.weights import build_table
from oracles import grunwald_coefficients, rl_faces_grunwald


@contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")


def _run_scenario(name, law, **overrides):
    scenario = make_scenario(name)
    cfg = replace(scenario.cfg, flux=law, **overrides)
    return run(cfg, build_initial(cfg.initial, cfg.x))


# 1. Conservation: pulse-reflective, every law, |M(t) - 1| <= 1e-9 at every
#    step up to t = 10.  The fractional laws run at the scenario step
#    dt = 0.0005 (20,000 steps).  The explicit gradient law is stable only
#    for dt/dx^2 <= 1/2, so it runs at dt = dx^2/4 = 2.5e-5 (400,000 steps);
#    its divergence at the scenario step is pinned by
#    test_solver.py::test_gradient_law_diverges_at_fractional_ratio and
#    test_cli.py::test_unstable_run_exits_nonzero.
@pytest.mark.parametrize("law", ["rl", "caputo", "parsimonious", "fourier"])
def test_criterion_01_conservation(law):
    with criterion(1, f"conservation under zero-flux walls ({law})"):
        kind = FluxKind.from_name(law)
        overrides = {"dt": 2.5e-5} if kind is FluxKind.FOURIER else {}
        try:
            result = _run_scenario("pulse-reflective", kind, **overrides)
        except InstabilityError as exc:
            pytest.fail(
                f"{law} aborted before t=10: {exc}. Every law here runs at a "
                "step inside its own explicit stability bound, so a runaway "
                "field points at the flux law or the balance update."
            )
        cfg = result.cfg
        assert cfg.t_end == 10.0
        assert result.steps_taken == cfg.n_steps
        assert np.abs(result.trace.mass - 1.0).max() <= 1e-9


# 2. Caputo flat steady state: per-step change < 1e-10, field within 1e-3
#    of the unit height.
def test_criterion_02_caputo_flat_steady_state():
    with criterion(2, "caputo steady state is flat at unit height"):
        result = _run_scenario(
            "pulse-reflective",
            FluxKind.CAPUTO,
            stop_when_steady=True,
            t_end=100.0,
            snapshot_times=(100.0,),
        )
        assert result.steady_stop_time is not None
        assert steady_state_time(result.trace, 1e-10) == pytest.approx(
            result.steady_stop_time
        )
        assert np.abs(result.final - 1.0).max() <= 1e-3


# 3. RL left accumulation: steady profile piles up against the left wall.
def test_criterion_03_rl_left_accumulation():
    with criterion(3, "rl steady state accumulates at the left wall"):
        result = _run_scenario(
            "pulse-reflective",
            FluxKind.RIEMANN_LIOUVILLE,
            stop_when_steady=True,
            t_end=100.0,
            snapshot_times=(100.0,),
        )
        assert result.steady_stop_time is not None
        u = result.final
        assert u[0] > 1.5 * u.mean()
        assert np.all(np.diff(u[:11]) < 0.0)  # strictly decreasing, 10 nodes


# 4. Temperature-scale demonstration: all laws hold the zero field; the
#    gradient-built laws hold 32 exactly; rl decays near the wall into a
#    non-flat steady profile.
def test_criterion_04_ice_invariance_failure():
    with criterion(4, "freezing-point runs: only rl reshapes the constant"):
        for law in (FluxKind.RIEMANN_LIOUVILLE, FluxKind.CAPUTO, FluxKind.FOURIER):
            result = _run_scenario("ice-warsaw", law)
            assert np.all(result.trace.u_min == 0.0)
            assert np.all(result.trace.u_max == 0.0)

        for law in (FluxKind.CAPUTO, FluxKind.FOURIER, FluxKind.PARSIMONIOUS):
            result = _run_scenario(
                "ice-minneapolis",
                law,
                stop_when_steady=False,
                t_end=1.0,
                snapshot_times=(1.0,),
            )
            assert np.abs(result.trace.u_min - 32.0).max() <= 1e-12
            assert np.abs(result.trace.u_max - 32.0).max() <= 1e-12

        # rl: strictly decreasing near-wall value over the first 100 steps
        scenario = make_scenario("ice-minneapolis")
        cfg = replace(scenario.cfg, flux=FluxKind.RIEMANN_LIOUVILLE)
        table = build_table(cfg.alpha, cfg.dx, cfg.n)
        u = build_initial(cfg.initial, cfg.x)
        near_wall = [u[1]]
        for k in range(100):
            u = step(u, face_fluxes(u, cfg.flux, table), cfg, step_index=k + 1)
            near_wall.append(u[1])
        assert all(b < a for a, b in zip(near_wall, near_wall[1:]))

        # and a non-flat steady profile
        result = _run_scenario("ice-minneapolis", FluxKind.RIEMANN_LIOUVILLE)
        assert result.steady_stop_time is not None
        assert result.final.max() - result.final.min() > 1.0


# 5. Zero-boundary bump: rl and caputo solutions coincide at all three
#    snapshot times.
def test_criterion_05_fig7_rl_caputo_coincide():
    with criterion(5, "rl and caputo coincide on the zero-boundary bump"):
        res_rl = _run_scenario("fig7-zero", FluxKind.RIEMANN_LIOUVILLE)
        res_c = _run_scenario("fig7-zero", FluxKind.CAPUTO)
        assert res_rl.snapshot_times == res_c.snapshot_times == (0.01, 0.04, 0.2)
        for u_rl, u_c in zip(res_rl.snapshots, res_c.snapshots):
            assert np.abs(u_rl - u_c).max() <= 1e-10


# 6. Shifted bump: caputo just displaces by 5; rl falls below the initial
#    minimum at t = 0.04 and t = 0.2.
def test_criterion_06_shift_experiment():
    with criterion(6, "shifted bump: caputo displaces, rl undershoots"):
        res_zero = _run_scenario("fig7-zero", FluxKind.CAPUTO)
        res_shift = _run_scenario("fig7-shifted", FluxKind.CAPUTO)
        for u0, u5 in zip(res_zero.snapshots, res_shift.snapshots):
            assert np.abs(u5 - (u0 + 5.0)).max() <= 1e-10

        res_rl = _run_scenario("fig7-shifted", FluxKind.RIEMANN_LIOUVILLE)
        by_time = dict(zip(res_rl.snapshot_times, res_rl.snapshots))
        assert by_time[0.04].min() < 5.0 - 1e-3
        assert by_time[0.2].min() < 5.0 - 1e-3


# 7. Flux-law identities over random fields, no time stepping involved.
def test_criterion_07_flux_law_identities():
    with criterion(7, "flux-law identities over 1000+ random fields"):
        rng = np.random.default_rng(20250810)
        alphas = np.arange(1, 11) / 10.0
        checked = 0
        for _ in range(1050):
            n = int(rng.integers(3, 257))
            alpha = float(rng.choice(alphas))
            dx = 1.0 / n
            u = rng.normal(size=n + 1)
            table = build_table(alpha, dx, n)
            q_grun = rl_faces_grunwald(u, table)
            q_rl = face_fluxes(u, FluxKind.RIEMANN_LIOUVILLE, table)
            q_cap = face_fluxes(u, FluxKind.CAPUTO, table)
            q_par = face_fluxes(u, FluxKind.PARSIMONIOUS, table)
            q_rl_shifted = face_fluxes(u - u[0], FluxKind.RIEMANN_LIOUVILLE, table)
            scale = max(np.abs(q_grun).max(), 1.0)
            assert np.abs(q_grun - q_rl).max() <= 1e-12 * scale
            assert np.abs(q_cap + apparent_advection(u[0], table) - q_rl).max() <= 1e-13 * scale
            assert np.array_equal(q_par, q_cap)
            assert np.abs(q_par - q_rl_shifted).max() <= 1e-14 * scale
            checked += 1
        assert checked >= 1000

        # constants are annihilated exactly by the caputo law
        table = build_table(0.5, 1.0 / 32, 32)
        for value in (-3.5, 0.0, 1.0, 32.0, 7e6):
            assert np.all(face_fluxes(np.full(33, value), FluxKind.CAPUTO, table) == 0.0)

        # every law collapses to the gradient law at alpha = 1
        for _ in range(200):
            n = int(rng.integers(3, 257))
            dx = 1.0 / n
            u = rng.normal(size=n + 1)
            table = build_table(1.0, dx, n)
            q_f = face_fluxes(u, FluxKind.FOURIER, table)
            scale = max(np.abs(q_f).max(), 1.0)
            assert np.abs(rl_faces_grunwald(u, table) - q_f).max() <= 1e-14 * scale
            for kind in FluxKind:
                assert np.abs(face_fluxes(u, kind, table) - q_f).max() <= 1e-14 * scale


# 8. Weight-sequence properties up to n = 10^4.
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_criterion_08_weight_properties(alpha):
    with criterion(8, f"weight-sequence properties (alpha={alpha})"):
        import math

        n, dx = 10_000, 0.01
        table = build_table(alpha, dx, n)
        g = grunwald_coefficients(alpha, n)
        assert g[0] == 1.0
        assert np.all(g[1:] <= 0.0)
        assert np.all(table.w >= 0.0)
        assert np.all(np.diff(table.w) <= 0.0)

        # recompute from scratch: plain float64 recurrence, exactly rounded
        # prefix sums
        g64 = np.empty(n + 1)
        g64[0] = 1.0
        for j in range(1, n + 1):
            g64[j] = (j - 1 - alpha) / j * g64[j - 1]
        scale = dx ** (1.0 - alpha)
        for j in (0, 1, 2, 3, 10, 31, 100, 316, 1_000, 3_162, 10_000):
            recomputed = scale * math.fsum(g64[: j + 1])
            if alpha == 1.0 and j >= 1:
                assert recomputed == table.w[j] == 0.0
            else:
                assert abs(recomputed - table.w[j]) <= 1e-13 * table.w[j]


# 9. Affine-rescaling equivariance: holds for the gradient-built laws and
#    for pure scaling under rl; fails measurably for rl under a shift.
def test_criterion_09_equivariance_suite():
    with criterion(9, "affine-rescaling equivariance per contract"):
        holds = [
            (make_scenario("fig7-zero"), FluxKind.CAPUTO, 1.0, 5.0, {}),
            (
                make_scenario("pulse-reflective"),
                FluxKind.CAPUTO,
                -2.0,
                3.0,
                dict(t_end=0.5, snapshot_times=(0.1, 0.5)),
            ),
            (make_scenario("fig7-zero"), FluxKind.PARSIMONIOUS, 2.0, -1.0, {}),
            (
                make_scenario("pulse-reflective"),
                FluxKind.RIEMANN_LIOUVILLE,
                2.0,
                0.0,
                dict(t_end=1.0, snapshot_times=(0.5, 1.0)),
            ),
        ]
        # the gradient law needs dt below its own stability bound
        bump = make_scenario("fig7-zero")
        gradient_safe = replace(bump, cfg=replace(bump.cfg, dt=2e-5))
        holds.append(
            (
                gradient_safe,
                FluxKind.FOURIER,
                3.0,
                2.0,
                dict(t_end=0.02, snapshot_times=(0.01, 0.02)),
            )
        )
        for scenario, law, a, b, kwargs in holds:
            report = equivariance_test(scenario, law, a, b, **kwargs)
            assert report.max_deviation <= 1e-10, (scenario.name, law, a, b)

        # rl with a pure shift: the ice configuration drifts visibly and
        # keeps drifting toward its reshaped steady state
        report = equivariance_test(
            make_scenario("ice-warsaw"),
            FluxKind.RIEMANN_LIOUVILLE,
            1.0,
            32.0,
            t_end=0.1,
            snapshot_times=(0.025, 0.05, 0.1),
        )
        assert report.max_deviation > 1e-6
        assert report.deviations[0] < report.deviations[1] < report.deviations[2]
