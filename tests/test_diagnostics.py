import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracflux
from fracflux import solver
from fracflux.diagnostics import (
    DiagnosticTrace,
    equivariance_test,
    max_principle_check,
    steady_state_time,
    total_mass,
)
from fracflux.flux import FluxKind
from fracflux.scenarios import build_initial, make_scenario, triangular_pulse
from fracflux.solver import BoundarySpec, InitialSpec, SimConfig, run


def _trace(mins, maxs, changes=None, dt=0.1, masses=None):
    k = len(mins)
    t = np.arange(k) * dt
    if changes is None:
        changes = np.ones(k - 1)
    if masses is None:
        masses = np.zeros(k)
    return DiagnosticTrace(
        t=t,
        mass=np.asarray(masses, dtype=float),
        u_min=np.asarray(mins, dtype=float),
        u_max=np.asarray(maxs, dtype=float),
        step_change=np.asarray(changes, dtype=float),
    )


# ------------------------------------------------------------ total mass


def test_total_mass_of_unit_field():
    assert total_mass(np.ones(101)) == 1.0


def test_total_mass_of_zero_field():
    assert total_mass(np.zeros(11)) == 0.0


def test_total_mass_of_pulse():
    x = np.arange(101) * 0.01
    assert total_mass(triangular_pulse(x)) == pytest.approx(1.0, abs=1e-12)


def test_total_mass_takes_dx_from_the_node_count():
    # 5 nodes span 4 intervals of 0.25; a list is accepted like an array
    assert total_mass([1.0, 1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert total_mass(np.ones(5)) == pytest.approx(1.0)


def test_total_mass_halves_end_nodes():
    # 3 nodes: dx = 0.5
    assert total_mass(np.array([4.0, 0.0, 0.0])) == 1.0


# --------------------------------------------------------- steady state


def test_steady_state_time_first_quiet_step():
    trace = _trace([0] * 5, [1] * 5, changes=[1.0, 0.5, 1e-12, 1e-13], dt=0.1)
    assert steady_state_time(trace, eps=1e-10) == pytest.approx(0.3)


def test_steady_state_time_none_when_never_quiet():
    trace = _trace([0] * 4, [1] * 4, changes=[1.0, 1.0, 1.0])
    assert steady_state_time(trace, eps=1e-10) is None


@pytest.mark.parametrize("eps", [0.0, -1e-10, float("nan"), float("inf")])
def test_steady_state_time_rejects_bad_eps(eps):
    # a NaN eps compares false with every change and would answer None
    trace = _trace([0] * 3, [1] * 3, changes=[1.0, 0.0])
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        steady_state_time(trace, eps=eps)


def test_constant_field_is_steady_after_one_step():
    cfg = SimConfig(
        alpha=0.5,
        n=50,
        dt=0.001,
        t_end=0.01,
        snapshot_times=(0.01,),
        flux=FluxKind.CAPUTO,
        bc=BoundarySpec.reflective(),
        initial=InitialSpec("constant", {"value": 3.0}),
    )
    result = run(cfg, np.full(51, 3.0), full_trace=True)
    assert steady_state_time(result.trace, eps=1e-10) == pytest.approx(cfg.dt)


# ------------------------------------------------------- max principle


def test_max_principle_clean_trace():
    g = np.array([0.0, 1.0, 0.0])
    report = max_principle_check(_trace([0, 0, 0], [1.0, 0.9, 0.8]), g)
    assert not report.violated
    assert report.first_step is None
    assert report.lower == 0.0 and report.upper == 1.0


def test_max_principle_flags_first_dip():
    g = np.array([0.0, 1.0, 0.0])
    report = max_principle_check(
        _trace([0, -1e-9, -1e-3, -2e-3], [1, 1, 1, 1], dt=0.5), g, tol=1e-6
    )
    assert report.violated
    assert report.first_step == 2
    assert report.first_time == pytest.approx(1.0)


def test_max_principle_flags_overshoot():
    g = np.array([0.0, 2.0])
    report = max_principle_check(_trace([0, 0], [2.0, 2.1], dt=1.0), g, tol=1e-6)
    assert report.violated and report.first_step == 1


def test_max_principle_respects_shifted_lower_bound():
    # data bounded below by 5: dipping under 5 is a violation even though
    # the values stay positive
    g = np.full(4, 5.0)
    g[1] = 9.0
    report = max_principle_check(_trace([5.0, 4.9], [9.0, 8.0], dt=1.0), g, tol=1e-6)
    assert report.violated


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
def test_max_principle_rejects_a_tol_not_finite_and_non_negative(tol):
    # a NaN tol compares false with every value and would report no violation
    trace = _trace([0, -1.0], [1, 1], dt=1.0)
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        max_principle_check(trace, np.array([0.0, 1.0]), tol)
    assert max_principle_check(trace, np.array([0.0, 1.0])).violated


@pytest.mark.parametrize("g", [[], [0.0, float("nan"), 1.0], [0.0, float("inf")], [-float("inf"), 1.0]])
def test_max_principle_rejects_bounds_empty_or_not_finite(g):
    # NaN bounds compare false with every value and would report no
    # violation; an empty g has no bounds at all
    trace = _trace([0, -5.0], [1, 1], dt=1.0)
    with pytest.raises(ValueError, match="g must be non-empty and finite"):
        max_principle_check(trace, g)
    assert max_principle_check(trace, [0.0, 1.0]).violated


def test_max_principle_on_real_runs():
    zero = make_scenario("fig7-zero").cfg
    u0 = build_initial(zero.initial, zero.x)
    res = run(replace(zero, flux=FluxKind.CAPUTO), u0, full_trace=True)
    assert not max_principle_check(res.trace, u0).violated

    shifted = make_scenario("fig7-shifted").cfg
    u0 = build_initial(shifted.initial, shifted.x)
    res = run(replace(shifted, flux=FluxKind.RIEMANN_LIOUVILLE), u0, full_trace=True)
    report = max_principle_check(res.trace, u0)
    assert report.violated
    assert report.lower == 5.0


# -------------------------------------------------------- equivariance


def test_caputo_shift_equivariance_on_bump():
    report = equivariance_test(make_scenario("fig7-zero"), FluxKind.CAPUTO, 1.0, 5.0)
    assert report.max_deviation <= 1e-12
    assert len(report.deviations) == len(report.snapshot_times) == 3


def test_rl_pure_scaling_equivariance():
    report = equivariance_test(
        make_scenario("pulse-reflective"),
        FluxKind.RIEMANN_LIOUVILLE,
        2.0,
        0.0,
        t_end=0.5,
        snapshot_times=(0.25, 0.5),
    )
    assert report.max_deviation <= 1e-12


def test_rl_shift_equivariance_fails_measurably():
    report = equivariance_test(
        make_scenario("ice-warsaw"),
        FluxKind.RIEMANN_LIOUVILLE,
        1.0,
        32.0,
        t_end=0.05,
        snapshot_times=(0.01, 0.05),
    )
    assert report.max_deviation > 1e-6
    assert report.deviations[0] < report.deviations[1]


def test_affine_equivariance_of_gradient_built_laws():
    for law in (FluxKind.CAPUTO, FluxKind.PARSIMONIOUS):
        report = equivariance_test(
            make_scenario("fig7-zero"), law, -1.5, 2.0, t_end=0.04,
            snapshot_times=(0.02, 0.04),
        )
        assert report.max_deviation <= 1e-12


def test_equivariance_test_compares_at_t_end_alone_without_snapshot_times():
    # fig7-zero's own times (0.01, 0.04, 0.2) give way to the shorter run's end
    report = equivariance_test(make_scenario("fig7-zero"), FluxKind.CAPUTO, 1.0, 5.0, t_end=0.01)
    assert report.snapshot_times == (pytest.approx(0.01, rel=1e-12),)
    assert len(report.deviations) == 1 and report.max_deviation <= 1e-12


def test_equivariance_test_rejects_empty_snapshot_times(monkeypatch):
    # with no time to compare there is no deviation: refuse before any run
    def no_run(*args, **kwargs):
        raise AssertionError("run_block called")

    monkeypatch.setattr(solver, "run_block", no_run)
    with pytest.raises(ValueError, match="snapshot_times must name at least one time"):
        equivariance_test(
            make_scenario("fig7-shifted"), FluxKind.CAPUTO, 2.0, 1.0, t_end=0.01,
            snapshot_times=(),
        )


# The base and the mapped run march as one block: at n = 200 one GEMM of
# the face operator per step, at n = 100 one stacked product per block.
_EQUIVARIANCE_BY_THREADS = """
from dataclasses import replace
from fracflux.diagnostics import equivariance_test
from fracflux.flux import FluxKind
from fracflux.scenarios import make_scenario
for n in (100, 200):
    scenario = make_scenario("fig7-shifted")
    dt = 0.4 * (1.0 / n) ** 1.5
    scenario = replace(scenario, cfg=replace(scenario.cfg, n=n, dt=dt))
    for law in (FluxKind.RIEMANN_LIOUVILLE, FluxKind.CAPUTO):
        for a, b in ((-1.75, 6.5), (2.5, 0.0)):
            report = equivariance_test(
                scenario, law, a, b, t_end=100 * dt, snapshot_times=(10 * dt, 100 * dt)
            )
            print(law.value, n, a, b, *map(float.hex, report.deviations))
"""


def test_equivariance_deviations_do_not_depend_on_blas_threads():
    src = str(Path(fracflux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _EQUIVARIANCE_BY_THREADS],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 8
    assert outputs[0] == outputs[1]


_SWEEP_OVER_ORDERS = """
import resource, sys
from dataclasses import replace
from fracflux.diagnostics import equivariance_test
from fracflux.flux import FluxKind
from fracflux.scenarios import make_scenario
for k in range(int(sys.argv[1])):
    alpha = 0.05 + 0.9 * k / 31
    dt = 0.4 * (1 / 399) ** (1 + alpha)
    scenario = make_scenario("fig7-shifted", alpha=alpha)
    scenario = replace(scenario, cfg=replace(scenario.cfg, n=399, dt=dt))
    equivariance_test(scenario, FluxKind.CAPUTO, -1.75, 6.5, t_end=20 * dt)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
def test_sweep_over_orders_keeps_no_dense_matrix_per_order():
    # 32 orders at n = 399, 20 F-route steps each, against one order, each
    # in a fresh process: while every cached table held its 1.3 MB T(W),
    # the sweep peaked 37.8 MB above one order
    src = str(Path(fracflux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    peaks = []
    for orders in ("1", "32"):
        done = subprocess.run(
            [sys.executable, "-c", _SWEEP_OVER_ORDERS, orders],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        peaks.append(int(done.stdout.split()[-1]) / 1024)  # MiB
    assert abs(peaks[1] - peaks[0]) <= 8.0, peaks
