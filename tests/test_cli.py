import copy
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracflux
from fracflux import cli
from fracflux.cli import main
from fracflux.diagnostics import max_principle_check
from fracflux.flux import LAWS, FluxKind, apparent_advection, face_fluxes
from fracflux.scenarios import build_initial, make_scenario, triangular_pulse
from fracflux.solver import BoundarySpec, InitialSpec, SimConfig, StabilityWarning, run
from fracflux.weights import build_table


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
    # 400 steps: every step is kept, the initial state included
    traces = (summary["mass_trace"]["t"], summary["mass_trace"]["mass"],
              summary["extrema_trace"]["min"], summary["extrema_trace"]["max"])
    assert [len(v) for v in traces] == [401] * 4
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


def _long_csv_text(header, x, rows):
    """The text of a long-format CSV, built a value at a time: for each
    (t, arrays) of rows, one line per node of t, x and the arrays there."""
    lines = [header]
    for t, arrays in rows:
        lines += [",".join(f"{v:.17g}" for v in (t, xi, *values)) for xi, *values in zip(x, *arrays)]
    return "\n".join(lines) + "\n"


# Config files for the CSV checks: a scenario's, and one whose field holds
# -0.0 at t = 0, which the files must write as "-0".
_CSV_CONFIGS = {
    "fig7-shifted": {"scenario": "fig7-shifted"},
    "signed-zero": {
        "n": 20, "dt": 0.001, "t_end": 0.01, "snapshot_times": [0.0, 0.005, 0.01],
        "initial": {"profile": "constant", "params": {"value": -0.0}},
    },
}


def _csv_config(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_CSV_CONFIGS[name]))
    return str(path)


@pytest.mark.parametrize("name", list(_CSV_CONFIGS))
def test_snapshots_csv_holds_every_value_of_the_run(tmp_path, name):
    out = tmp_path / "run"
    assert main(["run", "--config", _csv_config(tmp_path, name), "--flux", "rl", "--out-dir", str(out)]) == 0
    cfg = SimConfig.from_mapping(json.loads((out / "manifest.json").read_text()))
    result = run(cfg, build_initial(cfg.initial, cfg.x))
    rows = [(t, [u]) for t, u in zip(result.snapshot_times, result.snapshots)]
    text = (out / "snapshots.csv").read_bytes().decode()
    assert text == _long_csv_text("t,x,u", cfg.x, rows)
    assert len(rows) == 3 and (name != "signed-zero" or "\n0,0,-0\n" in text)


@pytest.mark.parametrize("name", list(_CSV_CONFIGS))
def test_compare_csv_holds_every_value_of_both_runs(tmp_path, name):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", _csv_config(tmp_path, name), "--flux-a", "rl",
                 "--flux-b", "caputo", "--out-dir", str(out)]) == 0
    cfg = SimConfig.from_mapping(json.loads((out / "verdict.json").read_text())["manifest"])
    u0 = build_initial(cfg.initial, cfg.x)
    a, b = run(cfg, u0), run(replace(cfg, flux=FluxKind.CAPUTO), u0)
    rows = [(t, [ua, ub, ua - ub]) for t, ua, ub in zip(a.snapshot_times, a.snapshots, b.snapshots)]
    text = (out / "compare.csv").read_bytes().decode()
    assert text == _long_csv_text("t,x,u_a,u_b,diff", cfg.x, rows)
    assert len(rows) == 3 and (name != "signed-zero" or "\n0,0,-0,-0,0\n" in text)


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


@pytest.mark.parametrize(
    "command", [["run"], ["compare", "--flux-a", "rl", "--flux-b", "caputo"]], ids=["run", "compare"]
)
@pytest.mark.parametrize(
    "scenario", ["nope", ["x"], {"a": 1}, []], ids=["unknown", "list", "object", "empty-list"]
)
def test_unknown_scenario_in_config_file(tmp_path, capsys, command, scenario):
    # a scenario name must be a string (or null); the initial data are
    # complete, so an empty list would otherwise pass for no scenario
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "initial": {"profile": "triangular-pulse"}}))
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_unstable_run_exits_nonzero(tmp_path):
    with pytest.warns(StabilityWarning):  # dt/dx^2 = 5
        assert main(["run", "--scenario", "pulse-reflective", "--flux", "fourier",
                     "--out-dir", str(tmp_path / "blow")]) == 3


@pytest.mark.parametrize(
    "argv",
    [["--kappa", "1e308", "--n", "5"], ["--kappa", "1e308", "--n", "200"],
     ["--dt", "1e300", "--t-end", "1e301", "--n", "50"]],
    ids=["leap", "f-route", "dt"],
)
def test_overflowing_operator_exits_3_with_numpy_warnings_as_errors(tmp_path, argv):
    # an overflowing kappa or dt overflows the dense route's operators as
    # they are built; numpy warnings must not leak past the abort
    src = str(Path(fracflux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracflux", "run",
         "--scenario", "fig7-zero", *argv, "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "run aborted: unstable at step 1" in proc.stderr
    assert "Traceback" not in proc.stderr


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
        # 1e17 steps, past the 2**53 a double counts exactly: refused before
        # a run that would march for millennia
        ["--scenario", "fig7-zero", "--dt", "2e-18"],
    ],
    ids=["t-end", "t-end-flag", "snapshot", "inherited-snapshot", "past-2**53"],
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
        ["--config", {"initial": "fig7-bump"}],
        ["--config", {"initial": 1.0}],
        ["--config", {"initial": ["fig7-bump"]}],
        ["--config", {"initial": None}],
        ["--config", {"initial": {"profile": ["x"]}}],
        ["--config", {"initial": {"profile": {"a": 1}}}],
        ["--config", {"initial": {"profile": "fig7-bump", "params": {"ofset": 1.0}}}],
        ["--config", {"initial": {"profile": "fig7-bump", "params": {"offset": "1"}}}],
        ["--config", {"initial": {"profile": "constant", "params": {"value": True}},
                      "force_inconsistent_bc": True}],
        ["--config", {"initial": {"profile": "fig7-bump", "params": [["offset", 0.0]]}}],
        ["--config", {"initial": {"profile": "fig7-bump", "offset": 0.0}}],
        ["--config", {"bc": {"left": {"kind": "dirichlet", "value": 0.0},
                             "right": {"kind": "dirichlet", "value": 0.0}, "middle": 3}}],
        ["--config", {"bc": {"left": {"kind": "dirichlet", "value": 0.0, "junk": 1},
                             "right": {"kind": "dirichlet", "value": 0.0}}}],
        ["--config", {"bc": {"left": {"kind": ["dirichlet"], "value": 0.0},
                             "right": {"kind": "dirichlet", "value": 0.0}}}],
        ["--config", {"bc": {"left": {"kind": "fixed-flux", "value": True},
                             "right": {"kind": "dirichlet", "value": 0.0}}}],
        ["--config", {"bc": {"left": {"kind": "dirichlet", "value": "0"},
                             "right": {"kind": "dirichlet", "value": 0.0}}}],
        ["--config", {"snapshot_times": ["0.01"]}],
        ["--config", {"snapshot_times": [True], "t_end": 1.0}],
        ["--config", {"snapshot_times": "0"}],
        ["--config", {"steady_eps": float("inf")}, "--stop-when-steady"],
        # integer literals past float range
        ["--config", {"n": 10**400}],
        ["--config", {"alpha": 10**400}],
        ["--config", {"snapshot_times": [10**400]}],
        ["--config", {"bc": {"left": {"kind": "dirichlet", "value": 10**400},
                             "right": {"kind": "dirichlet", "value": 0.0}}}],
        ["--config", {"initial": {"profile": "fig7-bump", "params": {"offset": 10**400}}}],
        # times the user gave must lie within the run, unlike inherited ones
        ["--t-end", "0.02", "--snapshots", "0.04"],
        ["--config", {"t_end": 0.02, "snapshot_times": [0.04]}],
    ],
    ids=["t-end-inf", "kappa-nan", "kappa-negative", "snapshot-nan", "bc-kind", "key-typo",
         "bool-string", "bool-word", "n-fraction", "n-true", "alpha-true",
         "initial-string", "initial-number", "initial-list", "initial-null",
         "profile-list", "profile-object", "param-typo",
         "param-string", "param-true", "params-list", "initial-key-typo", "bc-key-typo",
         "bc-side-key-typo", "bc-kind-list", "bc-value-true", "bc-value-string",
         "snapshot-string", "snapshot-true", "snapshots-not-a-list", "steady-eps-inf",
         "n-huge-int", "alpha-huge-int", "snapshot-huge-int", "bc-value-huge-int",
         "param-huge-int",
         "snapshot-flag-past-end", "snapshot-file-past-end"],
)
def test_bad_input_is_a_configuration_error(tmp_path, capsys, flags):
    assert "configuration error:" in _refused_run(tmp_path, capsys, flags)


def _refused_run(tmp_path, capsys, flags):
    """stderr of a fig7-zero run with flags, which must exit 2 and write
    nothing.  A dict flag is a fig7-zero config file with these keys, a
    list one a config file holding that JSON array, a bytes one a config
    file holding those bytes."""
    out = tmp_path / "out"
    args = ["run", "--scenario", "fig7-zero", "--out-dir", str(out)]
    for flag in flags:
        if isinstance(flag, (dict, list, bytes)):
            path = tmp_path / "config.json"
            if isinstance(flag, bytes):
                path.write_bytes(flag)
            else:
                path.write_text(json.dumps({"scenario": "fig7-zero", **flag} if isinstance(flag, dict) else flag))
            flag = str(path)
        args.append(flag)
    assert main(args) == 2
    assert not out.exists()
    return capsys.readouterr().err


_DIRICHLET_0 = {"kind": "dirichlet", "value": 0.0}


@pytest.mark.parametrize(
    "flags, fault",
    [
        (["--bc-left", "dirichlet:nan"], "dirichlet boundary value must be finite, got nan"),
        (["--config", {"bc": {"left": {"kind": "dirichlet", "value": float("nan")}, "right": _DIRICHLET_0}}],
         "dirichlet boundary value must be finite, got nan"),
        (["--bc-left", "dirichlet"], "boundary override 'dirichlet' must look like dirichlet:VALUE"),
        (["--dt", "1", "--t-end", "0.1"], "t_end shorter than one time step"),
        (["--config", {"bc": {"left": {"kind": "dirichlet"}, "right": _DIRICHLET_0}}],
         "'bc' is missing key 'value'"),
        (["--config", {"bc": {"right": _DIRICHLET_0}}], "'bc' is missing key 'left'"),
        (["--config", ["fig7-zero"]], "does not hold a JSON object"),
        (["--config", b""], "config.json does not hold valid JSON: Expecting value: line 1 column 1"),
        (["--config", b"\xff{}"], "config.json does not hold valid JSON: 'utf-8' codec can't decode"),
        # a stability ratio that overflows would be written as Infinity, which is not JSON
        (["--config", {"n": 1, "dt": 10.0, "t_end": 10.0, "kappa": 1e308, "flux": "fourier",
                       "initial": {"profile": "constant", "params": {"value": 0.0}}}],
         "kappa*dt/dx^order = inf is not finite"),
        (["--config", {"n": 10**200, "dt": 1.0, "t_end": 1.0, "flux": "fourier"}],
         "kappa*dt/dx^order = inf is not finite"),
    ],
    ids=["bc-nan-flag", "bc-nan-file", "bc-flag-no-value", "t-end-below-dt", "bc-side-no-value",
         "bc-no-left", "config-array", "config-not-json", "config-not-utf8", "ratio-kappa-dt",
         "ratio-dx-underflow"],
)
def test_bad_input_names_its_fault(tmp_path, capsys, flags, fault):
    err = _refused_run(tmp_path, capsys, flags)
    assert "configuration error:" in err and fault in err


@pytest.mark.parametrize("command", [["run"], ["compare", "--flux-a", "rl", "--flux-b", "caputo"]])
@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"scenario": "fig7-zero", "initial": ' + '{"a": ' * 200_000 + "1" + "}" * 200_001,
], ids=["array", "initial-object"])
def test_deeply_nested_config_is_a_configuration_error(tmp_path, capsys, command, text):
    # json.loads gives up with a RecursionError
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--out-dir", str(out)]) == 2
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


def test_long_run_summary_holds_at_most_a_thousand_points(tmp_path):
    # 19 999 steps: windows of 21 steps, the last one of 7
    out = tmp_path / "long"
    assert main(["run", "--scenario", "fig7-zero", "--n", "10", "--dt", "1e-5",
                 "--t-end", "0.19999", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps_taken"] == 19_999
    t = summary["mass_trace"]["t"]
    assert len(t) <= 1_000
    assert t[0] == 0.0 and t[-1] == 19_999 * 1e-5
    assert len(summary["extrema_trace"]["min"]) == len(summary["mass_trace"]["mass"]) == len(t)


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
@pytest.mark.parametrize("steady", [[], ["--stop-when-steady"]], ids=["horizon", "stop-when-steady"])
def test_peak_memory_does_not_follow_the_step_count(tmp_path, steady):
    # fig7-zero at n = 10 for 2 000 and 200 000 steps, each in a fresh
    # process: a record of every step took the second 10 MB higher
    src = str(Path(fracflux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import resource, sys; from fracflux.cli import main; assert main(sys.argv[1:]) == 0; "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    peaks = []
    for dt in ("1e-4", "1e-6"):
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", "--scenario", "fig7-zero", "--n", "10", "--dt", dt,
             *steady, "--out-dir", str(tmp_path / dt)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout.split()[-1]) / 1024)  # MiB
    assert abs(peaks[1] - peaks[0]) <= 2.0, peaks


def test_trace_windows_never_hide_a_bound_violation(tmp_path):
    # 6833 of 20 000 steps in windows of 21; the first violation, at step
    # 277, ends none
    out = tmp_path / "pulse"
    assert main(["run", "--scenario", "pulse-reflective", "--flux", "rl", "--stop-when-steady",
                 "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    cfg = SimConfig.from_mapping(summary["manifest"])
    trace = run(cfg, build_initial(cfg.initial, cfg.x), full_trace=True).trace
    assert summary["steps_taken"] == trace.t.size - 1 == 6833
    lo, hi = summary["extrema_trace"]["min"], summary["extrema_trace"]["max"]
    assert min(lo) == trace.u_min.min() and max(hi) == trace.u_max.max()
    # step k lies in the window j with t[j - 1] < t_k <= t[j]
    t = summary["mass_trace"]["t"]
    window = np.searchsorted(t, trace.t)
    for j in range(len(t)):
        assert lo[j] == trace.u_min[window == j].min() and hi[j] == trace.u_max[window == j].max()

    report = summary["max_principle"]
    assert report["violated"] and report["first_step"] == 277
    outside = (np.array(lo) < report["lower"] - report["tol"]) | (np.array(hi) > report["upper"] + report["tol"])
    first = int(np.nonzero(outside)[0][0])
    assert t[first - 1] < report["first_time"] < t[first]
    assert summary["max_mass_change"] == np.abs(trace.mass - trace.mass[0]).max()


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
    # inside leap and chunk edges; the compare runs two laws.  At n = 200 a
    # run takes one product with the face operator per step, past three
    # block edges.
    src = str(Path(fracflux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = {
        "run": ["run", "--scenario", "pulse-reflective", "--flux", "rl", "--t-end", "0.05",
                "--snapshots", "0,0.0075,0.02,0.05"],
        "run-200": ["run", "--scenario", "pulse-reflective", "--flux", "rl", "--n", "200",
                    "--dt", "0.0001", "--t-end", "0.01", "--snapshots", "0,0.005,0.01"],
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
    assert "run-200/snapshots.csv" in outputs[0]
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


def _rl_split(result):
    """The final field's rl flux as (caputo flux, apparent advection), by
    the two public calls."""
    cfg, u = result.cfg, result.final
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    return (
        face_fluxes(u, FluxKind.CAPUTO, table, kappa=cfg.kappa),
        cfg.kappa * apparent_advection(u[0], table),
    )


@pytest.mark.parametrize("kind", list(FluxKind))
def test_flux_decomposition_written_for_rl_only(tmp_path, kind):
    # kappa = 1.5 and u(0) = 1: the advection is live; the local law takes
    # a step short enough for its second-order ratio
    cfg = SimConfig(
        alpha=0.5, n=100, dt=0.00002 if LAWS[kind].local else 0.0002, t_end=0.01,
        snapshot_times=(0.01,), flux=kind, bc=BoundarySpec.reflective(), kappa=1.5,
        initial=InitialSpec("constant", {"value": 0.0}),
    )
    u0 = triangular_pulse(cfg.x) + 1.0
    result = run(cfg, u0)
    path = tmp_path / "summary.json"
    cli.write_summary_json(path, result)
    summary = json.loads(path.read_text(encoding="utf-8"))
    if kind is not FluxKind.RIEMANN_LIOUVILLE:
        assert "flux_decomposition" not in summary
        return
    # the final field's rl flux, split into the caputo flux and the advection
    diffusive = np.array(summary["flux_decomposition"]["diffusive"])
    advective = np.array(summary["flux_decomposition"]["advective"])
    table = build_table(cfg.alpha, cfg.dx, cfg.n)
    u = result.final
    assert np.array_equal(diffusive, face_fluxes(u, FluxKind.CAPUTO, table, kappa=1.5))
    assert np.array_equal(advective, 1.5 * apparent_advection(u[0], table))
    assert np.all(advective < 0.0)
    np.testing.assert_allclose(
        diffusive + advective, face_fluxes(u, cfg.flux, table, kappa=1.5), rtol=1e-13
    )


@pytest.mark.parametrize("law,violated", [("rl", True), ("caputo", False)])
def test_summary_bound_check_is_that_of_the_initial_field(tmp_path, law, violated):
    # the writer reads the bounds from the trace; they are u0's min and max
    out = tmp_path / law
    assert main(["run", "--scenario", "fig7-shifted", "--flux", law, "--out-dir", str(out)]) == 0
    cfg = SimConfig.from_mapping(json.loads((out / "manifest.json").read_text()))
    u0 = build_initial(cfg.initial, cfg.x)
    result = run(cfg, u0, full_trace=True)
    report = json.loads((out / "summary.json").read_text())["max_principle"]
    assert report == asdict(max_principle_check(result.trace, u0))
    assert report["violated"] is violated


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
        r = result.record
        result = replace(result, record=replace(
            r, t=r.t[:1], mass=r.mass[:1], u_min=r.u_min[:1], u_max=r.u_max[:1],
        ))
    return cfg, result, u0


@pytest.mark.parametrize("case", ["steady-stop", "one-point", "decimated", "fine-grid", "caputo"])
def test_summary_writer_matches_json_dumps(tmp_path, case):
    cfg, result, u0 = _summary_case(case)
    path = tmp_path / "summary.json"
    cli.write_summary_json(path, result)
    summary = cli._summary(result)
    assert path.read_text(encoding="utf-8") == json.dumps(summary, indent=2) + "\n"
    # steady-stop: 6833 of 20 000 steps in windows of 21 make 326 windows;
    # decimated: 12 000 steps in windows of 13 make 924; the initial entry
    # adds one
    points = {
        "steady-stop": 327, "one-point": 1, "decimated": 925,
        "fine-grid": 21, "caputo": 101,
    }[case]
    assert len(summary["mass_trace"]["t"]) == points
    if case == "caputo":
        assert "flux_decomposition" not in summary
    else:
        # every digit of the decomposition survives the round trip
        written = json.loads(path.read_text(encoding="utf-8"))["flux_decomposition"]
        diffusive, advective = _rl_split(result)
        assert written["diffusive"] == diffusive.tolist()
        assert written["advective"] == advective.tolist()
        assert len(written["advective"]) == cfg.n
    if case == "steady-stop":
        assert result.steady_stop_time is not None


@pytest.mark.parametrize("section,key", [("extrema_trace", "max"), ("flux_decomposition", "advective")])
def test_summary_writer_refuses_a_non_finite_trace_value(tmp_path, section, key):
    # json.dumps would write it as NaN; a run that goes non-finite aborts first
    cfg, result, u0 = _summary_case("one-point")
    summary = cli._summary(result)
    summary[section][key][0] = float("nan")
    with pytest.raises(ValueError, match=f"{section}.{key}"):
        cli._write_json(tmp_path / "summary.json", summary)


# -0.0 and subnormal numbers included; st.text() draws non-ASCII and
# control characters too
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | _FINITE | st.text()
    | st.lists(_FINITE, max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300)
@given(doc=_DOCUMENTS)
@example(doc={
    "floats": [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1],
    "mixed": [1, 1.5, True, None, "a", [], {}, [2.5], {"k": -0.0}],
    "ints": [2**100, -(2**100), 0],
    "\x00\x1f\u00e9\u2603\U0001f600": "\x7f\n\t\"\\\u00e9\U0001f600",
    "": {"": [[], [{}]]},
})
@example(doc=[])
@example(doc=-0.0)
def test_json_writer_matches_json_dumps(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    cli._write_json(path, doc)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"


@given(doc=_DOCUMENTS, bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
def test_json_writer_refuses_a_non_finite_value_at_any_depth(tmp_path_factory, doc, bad, data):
    # walk down from {"doc": doc} and put bad in place of the value reached
    root = holder = {"doc": copy.deepcopy(doc)}
    key = key_path = "doc"
    while isinstance(holder[key], (dict, list)) and holder[key] and data.draw(st.booleans()):
        holder = holder[key]
        if isinstance(holder, dict):
            key = data.draw(st.sampled_from(sorted(holder)))
            key_path += "." + key
        else:
            key = data.draw(st.integers(0, len(holder) - 1))
            key_path += f"[{key}]"
    holder[key] = bad
    path = tmp_path_factory.getbasetemp() / "refused.json"
    with pytest.raises(ValueError) as refused:
        cli._write_json(path, root)
    assert str(refused.value) == f"{key_path} holds the non-finite value {bad!r}"
    assert not path.exists()
