import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracflux
from fracflux import cli
from fracflux.cli import main
from fracflux.diagnostics import DiagnosticTrace
from fracflux.flux import FluxKind
from fracflux.scenarios import build_initial, make_scenario
from fracflux.solver import StabilityWarning, run


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def test_scenarios_command_lists_names(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in (
        "pulse-reflective",
        "ice-warsaw",
        "ice-minneapolis",
        "fig7-zero",
        "fig7-shifted",
    ):
        assert name in out


def test_run_writes_expected_files(tmp_path):
    out = tmp_path / "f7"
    assert main(["run", "--scenario", "fig7-zero", "--flux", "rl", "--out-dir", str(out)]) == 0
    for name in ("snapshots.csv", "summary.json", "manifest.json"):
        assert (out / name).exists()

    header, rows = _read_csv(out / "snapshots.csv")
    assert header == ["t", "x", "u"]
    assert len(rows) == 3 * 101  # three snapshots, 101 nodes, time-major order
    times = sorted({row[0] for row in rows})
    assert times == pytest.approx([0.01, 0.04, 0.2])
    assert [row[1] for row in rows[:101]] == pytest.approx(list(np.arange(101) * 0.01))

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "fig7-zero"
    assert manifest["flux"] == "rl"
    assert manifest["alpha"] == 0.5
    assert manifest["n"] == 100
    assert manifest["dx"] == pytest.approx(0.01)
    assert manifest["stability_ratio"] == pytest.approx(0.5, rel=1e-12)
    assert manifest["bc"]["left"] == {"kind": "dirichlet", "value": 0.0}

    summary = json.loads((out / "summary.json").read_text())
    assert summary["manifest"] == manifest
    assert len(summary["mass_trace"]["t"]) <= 10_001
    assert "max_principle" in summary
    assert "flux_decomposition" in summary  # rl law reports the split


def test_run_values_render_with_17_significant_digits(tmp_path):
    out = tmp_path / "render"
    assert main(["run", "--scenario", "fig7-zero", "--flux", "caputo",
                 "--t-end", "0.01", "--snapshots", "0.01", "--out-dir", str(out)]) == 0
    lines = (out / "snapshots.csv").read_text().splitlines()
    assert lines[0] == "t,x,u"
    for line in lines[1:3]:
        assert "," in line and "e" not in line.split(",")[0]
    # 17 significant digits round-trip: rewriting the parsed value at the
    # same precision reproduces the text
    for line in lines[1:20]:
        for token in line.split(","):
            assert format(float(token), ".17g") == token


def test_manifest_round_trip_reproduces_csv_bytes(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", "--scenario", "fig7-zero", "--flux", "caputo", "--out-dir", str(first)]) == 0
    assert main(["run", "--config", str(first / "manifest.json"), "--out-dir", str(second)]) == 0
    assert (first / "snapshots.csv").read_bytes() == (second / "snapshots.csv").read_bytes()
    assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()


def test_ice_warsaw_rl_outputs_exact_zeros(tmp_path):
    out = tmp_path / "warsaw"
    assert main(["run", "--scenario", "ice-warsaw", "--flux", "rl", "--out-dir", str(out)]) == 0
    _, rows = _read_csv(out / "snapshots.csv")
    assert all(row[2] == 0.0 for row in rows)


def test_pulse_caputo_reaches_flat_unit_height(tmp_path):
    out = tmp_path / "pulse"
    assert main(["run", "--scenario", "pulse-reflective", "--flux", "caputo",
                 "--out-dir", str(out)]) == 0
    _, rows = _read_csv(out / "snapshots.csv")
    final_time = max(row[0] for row in rows)
    final_u = [row[2] for row in rows if row[0] == final_time]
    assert np.abs(np.array(final_u) - 1.0).max() <= 1e-3


def test_compare_rl_caputo_coincide_on_fig7_zero(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", "fig7-zero", "--flux-a", "rl",
                 "--flux-b", "caputo", "--out-dir", str(out)]) == 0
    header, rows = _read_csv(out / "compare.csv")
    assert header == ["t", "x", "u_a", "u_b", "diff"]
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["flux_a"] == "rl" and verdict["flux_b"] == "caputo"
    assert len(verdict["per_snapshot"]) == 3
    assert verdict["max_abs_diff"] <= 1e-10


def test_compare_rl_caputo_split_on_fig7_shifted(tmp_path):
    out = tmp_path / "cmp5"
    assert main(["compare", "--scenario", "fig7-shifted", "--flux-a", "rl",
                 "--flux-b", "caputo", "--out-dir", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    by_time = {round(e["t"], 6): e["max_abs_diff"] for e in verdict["per_snapshot"]}
    assert by_time[0.2] > 0.1
    # frozen magnitude from an independent reference run of this build
    assert by_time[0.2] == pytest.approx(2.3757986413094314, rel=1e-9)


def test_compare_parsimonious_caputo_definitional(tmp_path):
    out = tmp_path / "cmppc"
    assert main(["compare", "--scenario", "fig7-shifted", "--flux-a", "parsimonious",
                 "--flux-b", "caputo", "--out-dir", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["max_abs_diff"] <= 1e-14


def test_flag_overrides_beat_scenario(tmp_path):
    out = tmp_path / "ovr"
    assert main(["run", "--scenario", "fig7-zero", "--flux", "caputo", "--alpha", "0.3",
                 "--t-end", "0.02", "--snapshots", "0.01,0.02", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["alpha"] == 0.3
    assert manifest["t_end"] == 0.02
    assert manifest["snapshot_times"] == [0.01, 0.02]


@pytest.mark.parametrize("source", ["flag", "file"])
def test_shorter_t_end_drops_scenario_snapshots_past_it(tmp_path, source):
    # pulse-reflective snapshots at 0.01, 0.1, 1 and 10; the run's end
    # takes the place of those past it
    out = tmp_path / "short"
    args = ["run", "--scenario", "pulse-reflective", "--out-dir", str(out)]
    if source == "flag":
        args += ["--t-end", "0.05"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "pulse-reflective", "t_end": 0.05}))
        args += ["--config", str(path)]
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["snapshot_times"] == [0.01, 0.05]
    _, rows = _read_csv(out / "snapshots.csv")
    assert sorted({row[0] for row in rows}) == [0.01, 0.05]


def test_bc_override_requires_force_for_inconsistent_data(tmp_path):
    args = ["run", "--scenario", "pulse-reflective", "--flux", "caputo",
            "--t-end", "0.01", "--snapshots", "0.01",
            "--bc-left", "dirichlet:1.0", "--out-dir", str(tmp_path / "bc")]
    assert main(args) == 2
    assert main(args + ["--force-inconsistent-bc"]) == 0


def test_missing_scenario_and_config_is_an_error(tmp_path):
    assert main(["run", "--flux", "caputo", "--out-dir", str(tmp_path)]) == 2


def test_unknown_scenario_in_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "nope"}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


def test_unstable_run_exits_nonzero(tmp_path):
    assert main(["run", "--scenario", "pulse-reflective", "--flux", "fourier",
                 "--out-dir", str(tmp_path / "blow")]) == 3


@pytest.mark.parametrize(
    "command", [["run"], ["compare", "--flux-a", "rl", "--flux-b", "caputo"]], ids=["run", "compare"]
)
def test_input_too_large_for_memory_is_an_error(tmp_path, capsys, command):
    # 1e17 steps: the per-step traces would take 711 PiB, beyond any 64-bit
    # address space, so the allocation fails at once
    out = tmp_path / "out"
    args = [*command, "--scenario", "fig7-zero", "--dt", "2e-18", "--out-dir", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["run"], ["compare", "--flux-a", "rl", "--flux-b", "caputo"]], ids=["run", "compare"]
)
@pytest.mark.parametrize(
    "flags",
    [
        ["--scenario", "fig7-zero", "--dt", "1e-320"],
        ["--scenario", "fig7-zero", "--t-end", "1e300", "--dt", "1e-10"],
        ["--scenario", "fig7-zero", "--snapshots", "1e300", "--dt", "1e-10"],
        # the scenario's own snapshot times, filtered against the run's end
        ["--scenario", "ice-minneapolis", "--t-end", "1e-300", "--dt", "1e-320"],
    ],
    ids=["t-end", "t-end-flag", "snapshot", "inherited-snapshot"],
)
def test_step_count_overflow_is_a_configuration_error(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    assert main([*command, *flags, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "overflows the step count" in err
    assert not out.exists()


def test_config_file_without_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "alpha": 0.5,
        "n": 50,
        "dt": 0.001,
        "t_end": 0.01,
        "snapshot_times": [0.01],
        "flux": "caputo",
        "bc": {"left": {"kind": "fixed-flux", "value": 0.0},
               "right": {"kind": "fixed-flux", "value": 0.0}},
        "initial": {"profile": "constant", "params": {"value": 2.0}},
    }))
    out = tmp_path / "bare"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    _, rows = _read_csv(out / "snapshots.csv")
    assert all(row[2] == 2.0 for row in rows)


@pytest.mark.parametrize(
    "flags",
    [
        ["--t-end", "inf"],
        ["--kappa", "nan"],
        ["--kappa", "-1"],
        ["--snapshots", "0.1,nan"],
        ["--bc-left", "neumann:0"],
        ["--config", {"kapa": 3}],
        ["--config", {"stop_when_steady": "false"}],
        ["--config", {"force_inconsistent_bc": "no"}],
        ["--config", {"n": 100.9}],
        ["--config", {"n": True}],
        ["--config", {"alpha": True}],
        ["--config", {"initial": {"profile": "fig7-bump", "params": {"ofset": 1.0}}}],
        ["--config", {"initial": {"profile": "fig7-bump", "params": {"offset": "1"}}}],
        ["--config", {"initial": {"profile": "constant", "params": {"value": True}},
                      "force_inconsistent_bc": True}],
        ["--config", {"bc": {"left": {"kind": "fixed-flux", "value": True},
                             "right": {"kind": "dirichlet", "value": 0.0}}}],
        ["--config", {"bc": {"left": {"kind": "dirichlet", "value": "0"},
                             "right": {"kind": "dirichlet", "value": 0.0}}}],
        ["--config", {"snapshot_times": ["0.01"]}],
        ["--config", {"snapshot_times": [True], "t_end": 1.0}],
        ["--config", {"snapshot_times": "0"}],
        ["--config", {"steady_eps": float("inf")}, "--stop-when-steady"],
        # times the user gave must lie within the run, unlike inherited ones
        ["--t-end", "0.02", "--snapshots", "0.04"],
        ["--config", {"t_end": 0.02, "snapshot_times": [0.04]}],
    ],
    ids=["t-end-inf", "kappa-nan", "kappa-negative", "snapshot-nan", "bc-kind", "key-typo",
         "bool-string", "bool-word", "n-fraction", "n-true", "alpha-true", "param-typo",
         "param-string", "param-true", "bc-value-true", "bc-value-string",
         "snapshot-string", "snapshot-true", "snapshots-not-a-list", "steady-eps-inf",
         "snapshot-flag-past-end", "snapshot-file-past-end"],
)
def test_bad_input_is_a_configuration_error(tmp_path, capsys, flags):
    out = tmp_path / "out"
    args = ["run", "--scenario", "fig7-zero", "--out-dir", str(out)]
    for flag in flags:
        if isinstance(flag, dict):  # a fig7-zero config file with these keys
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"scenario": "fig7-zero", **flag}))
            flag = str(path)
        args.append(flag)
    assert main(args) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_stability_ratio_includes_kappa(tmp_path):
    out = tmp_path / "kappa"
    with pytest.warns(StabilityWarning):
        assert main(["run", "--scenario", "fig7-zero", "--kappa", "1.5", "--t-end", "0.001",
                     "--snapshots", "0.001", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stability_ratio"] == pytest.approx(0.75, rel=1e-12)


def test_boundary_flags_accept_both_flux_spellings(tmp_path):
    out = tmp_path / "bcflags"
    assert main(["run", "--scenario", "fig7-zero", "--t-end", "0.001", "--snapshots", "0.001",
                 "--bc-left", "flux:0.5", "--bc-right", "fixed-flux:-0.5",
                 "--force-inconsistent-bc", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["bc"] == {"left": {"kind": "fixed-flux", "value": 0.5},
                              "right": {"kind": "fixed-flux", "value": -0.5}}


def test_summary_traces_share_one_time_axis(tmp_path):
    out = tmp_path / "axis"
    assert main(["run", "--scenario", "fig7-zero", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    t = summary["mass_trace"]["t"]
    assert len(t) == summary["steps_taken"] + 1
    assert set(summary["extrema_trace"]) == {"min", "max"}
    assert len(summary["extrema_trace"]["min"]) == len(summary["extrema_trace"]["max"]) == len(t)


# A manifest with every key an earlier build wrote, derived keys included
# (tool, version, dx, stability_ratio), and the retired stability_warn_ratio:
# it must stay a valid --config.
_EARLIER_MANIFEST = {
    "tool": "fracflux",
    "version": "0.1.0",
    "scenario": "fig7-shifted",
    "alpha": 0.5,
    "n": 100,
    "dt": 0.0005,
    "t_end": 0.2,
    "snapshot_times": [0.01, 0.04, 0.2],
    "flux": "rl",
    "bc": {"left": {"kind": "dirichlet", "value": 5.0},
           "right": {"kind": "dirichlet", "value": 5.0}},
    "initial": {"profile": "fig7-bump", "params": {"offset": 5.0}},
    "stability_warn_ratio": 0.5,
    "kappa": 1.0,
    "stop_when_steady": False,
    "steady_eps": 1e-10,
    "force_inconsistent_bc": False,
    "dx": 0.01,
    "stability_ratio": 0.5,
}


def test_earlier_manifest_reruns_to_the_same_csv_bytes(tmp_path):
    cfg = tmp_path / "manifest.json"
    cfg.write_text(json.dumps(_EARLIER_MANIFEST, indent=2) + "\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "again")]) == 0
    assert main(["run", "--scenario", "fig7-shifted", "--flux", "rl",
                 "--out-dir", str(tmp_path / "direct")]) == 0
    for name in ("snapshots.csv", "manifest.json"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()
    rewritten = {k: v for k, v in _EARLIER_MANIFEST.items() if k != "stability_warn_ratio"}
    assert json.loads((tmp_path / "again" / "manifest.json").read_text()) == rewritten


def test_flux_decomposition_time_is_the_last_trace_time(tmp_path):
    out = tmp_path / "shifted"
    assert main(["run", "--scenario", "fig7-shifted", "--flux", "rl", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["flux_decomposition"]["t"] == summary["mass_trace"]["t"][-1]


def test_retired_warn_ratio_key_cannot_silence_the_warning(tmp_path):
    # NaN used to be accepted as the threshold, and ratio > NaN is never true
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "pulse-reflective", "stability_warn_ratio": float("nan")}))
    out = tmp_path / "nan"
    with pytest.warns(StabilityWarning, match=r"= 5 exceeds"):
        assert main(["run", "--config", str(cfg), "--flux", "fourier", "--t-end", "0.005",
                     "--snapshots", "0.005", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stability_ratio"] == pytest.approx(5.0, rel=1e-12)
    assert "stability_warn_ratio" not in manifest


def test_fft_route_run_conserves_keeps_bounds_and_reruns_bit_for_bit(tmp_path):
    # n = 1000 takes the FFT memory sum; reflective walls and an offset
    # bump, so u(0) != 0 and rl's apparent advection is live
    n, alpha, steps = 1000, 0.5, 50
    dt = 0.4 * (1.0 / n) ** (1.0 + alpha)
    for law in ("rl", "caputo"):
        cfg = tmp_path / f"{law}.json"
        cfg.write_text(json.dumps({
            "alpha": alpha,
            "n": n,
            "dt": dt,
            "t_end": steps * dt,
            "snapshot_times": [0.0, steps * dt],
            "flux": law,
            "bc": {"left": {"kind": "fixed-flux", "value": 0.0},
                   "right": {"kind": "fixed-flux", "value": 0.0}},
            "initial": {"profile": "fig7-bump", "params": {"offset": 2.0}},
        }))
        first, again = tmp_path / law, tmp_path / f"{law}-again"
        assert main(["run", "--config", str(cfg), "--out-dir", str(first)]) == 0
        assert main(["run", "--config", str(first / "manifest.json"), "--out-dir", str(again)]) == 0
        assert (first / "snapshots.csv").read_bytes() == (again / "snapshots.csv").read_bytes()

        summary = json.loads((first / "summary.json").read_text())
        assert summary["steps_taken"] == steps
        # the flux differences telescope whatever the kernel
        mass = np.array(summary["mass_trace"]["mass"])
        assert np.abs(mass - mass[0]).max() <= 1e-13 * mass[0]
        if law == "caputo":
            _, rows = _read_csv(first / "snapshots.csv")
            u0 = np.array([row[2] for row in rows[: n + 1]])
            tol = 1e-12 * np.abs(u0).max()
            assert min(summary["extrema_trace"]["min"]) >= u0.min() - tol
            assert max(summary["extrema_trace"]["max"]) <= u0.max() + tol


def test_output_bits_do_not_depend_on_blas_threads(tmp_path):
    # at n = 100 a run leaps 15 steps per BLAS matrix-vector product and
    # fills the fields between the leap ends with a matrix-matrix product,
    # both of operators built from BLAS matrix products; their summation
    # order, and so every output bit, must not follow the thread count.
    # The run spans seven leaps in three chunks, with snapshots on and
    # inside leap and chunk edges; the compare runs two laws.
    src = str(Path(fracflux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = {
        "run": ["run", "--scenario", "pulse-reflective", "--flux", "rl", "--t-end", "0.05",
                "--snapshots", "0,0.0075,0.02,0.05"],
        "compare": ["compare", "--scenario", "fig7-shifted", "--flux-a", "rl",
                    "--flux-b", "caputo"],
    }
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        files = {}
        for name, argv in commands.items():
            out = tmp_path / f"{name}-threads-{threads}"
            subprocess.run(
                [sys.executable, "-m", "fracflux", *argv, "--out-dir", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            files.update({f"{name}/{f.name}": f.read_bytes() for f in out.iterdir()})
        outputs.append(files)
    assert set(outputs[0]) >= {"run/snapshots.csv", "run/summary.json", "compare/compare.csv"}
    assert outputs[0] == outputs[1]


def test_a_flag_of_one_call_does_not_carry_into_the_next(tmp_path):
    # main builds its parser once per process, as the experiment script and
    # the benchmark call it many times in one; each call still parses its
    # own command line from the defaults
    argv = ["run", "--scenario", "pulse-reflective", "--flux", "caputo", "--t-end", "0.05"]
    assert main([*argv, "--stop-when-steady", "--out-dir", str(tmp_path / "steady")]) == 0
    assert main([*argv, "--out-dir", str(tmp_path / "plain")]) == 0
    steady, plain = (
        json.loads((tmp_path / name / "manifest.json").read_text()) for name in ("steady", "plain")
    )
    assert steady["stop_when_steady"] is True and plain["stop_when_steady"] is False
    fresh = cli.resolve_config(cli.build_parser().parse_args([*argv, "--out-dir", "."]))
    assert plain == json.loads(json.dumps(fresh.manifest()))
    assert cli._parser() is cli._parser()


def _summary_case(case):
    # rl, stopped when steady: a flux decomposition follows the traces
    cfg = replace(
        make_scenario("pulse-reflective").cfg, flux=FluxKind.RIEMANN_LIOUVILLE,
        stop_when_steady=True,
    )
    if case == "decimated":
        # 12 000 steps
        cfg = replace(cfg, n=4, dt=0.01, t_end=120.0, snapshot_times=(120.0,), stop_when_steady=False)
    if case == "fine-grid":
        # a 4000-face flux decomposition, spliced like the traces
        dt = 0.4 * (1.0 / 4000) ** 1.5
        cfg = replace(cfg, n=4000, dt=dt, t_end=20 * dt, snapshot_times=(20 * dt,), stop_when_steady=False)
    if case == "caputo":
        # no flux decomposition
        cfg = replace(cfg, flux=FluxKind.CAPUTO, t_end=0.05, snapshot_times=(0.05,), stop_when_steady=False)
    u0 = build_initial(cfg.initial, cfg.x)
    result = run(cfg, u0)
    if case == "one-point":
        t = result.trace
        result = replace(result, trace=DiagnosticTrace(
            t=t.t[:1], mass=t.mass[:1], u_min=t.u_min[:1], u_max=t.u_max[:1],
            step_change=t.step_change[:0],
        ))
    return cfg, result, u0


@pytest.mark.parametrize("case", ["steady-stop", "one-point", "decimated", "fine-grid", "caputo"])
def test_summary_writer_matches_json_dumps(tmp_path, case):
    cfg, result, u0 = _summary_case(case)
    path = tmp_path / "summary.json"
    cli.write_summary_json(path, cfg.manifest(), result, u0)
    summary = cli._summary(cfg.manifest(), result, u0)
    assert path.read_text(encoding="utf-8") == json.dumps(summary, indent=2) + "\n"
    # 12 001 points exceed 10^4, so the decimated trace keeps every second one
    points = {
        "steady-stop": result.steps_taken + 1, "one-point": 1, "decimated": 6001,
        "fine-grid": 21, "caputo": 101,
    }[case]
    assert len(summary["mass_trace"]["t"]) == points
    if case == "caputo":
        assert "flux_decomposition" not in summary
    else:
        # every digit of the decomposition survives the round trip
        written = json.loads(path.read_text(encoding="utf-8"))["flux_decomposition"]
        assert written["diffusive"] == result.decomposition[0].tolist()
        assert written["advective"] == result.decomposition[1].tolist()
        assert len(written["advective"]) == cfg.n
    if case == "steady-stop":
        assert result.steady_stop_time is not None


@pytest.mark.parametrize("section,key", [("extrema_trace", "max"), ("flux_decomposition", "advective")])
def test_summary_writer_refuses_a_non_finite_trace_value(tmp_path, section, key):
    # json.dumps would write it as NaN; a run that goes non-finite aborts first
    cfg, result, u0 = _summary_case("one-point")
    summary = cli._summary(cfg.manifest(), result, u0)
    summary[section][key][0] = float("nan")
    with pytest.raises(ValueError, match=f"{section}.{key}"):
        cli._write_summary(tmp_path / "summary.json", summary)
