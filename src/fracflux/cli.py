"""Command line front end: resolve a configuration, run it, write results.

Outputs per run: ``snapshots.csv`` (long format, header t,x,u),
``summary.json`` (manifest, traces, reports) and ``manifest.json`` (the
fully resolved configuration; feeding it back through ``--config``
reproduces the CSV byte for byte).  ``compare`` runs two flux laws on one
configuration and writes ``compare.csv`` plus ``verdict.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import max_principle_check, steady_state_time
from .flux import FluxKind
from .scenarios import SCENARIO_NAMES, build_initial, make_scenario
from .solver import (
    BoundaryCondition,
    ConfigurationError,
    InstabilityError,
    RunResult,
    SimConfig,
    boundary_condition,
    run,
)

_FLUX_CHOICES = tuple(kind.value for kind in FluxKind)
_TRACE_POINT_LIMIT = 10_000


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _boundary_flag(text: str) -> BoundaryCondition:
    # --bc-left dirichlet:5.0 | --bc-left fixed-flux:0.0, or its alias flux:0.0
    kind, _, raw = text.partition(":")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"boundary override {text!r} must look like dirichlet:VALUE or flux:VALUE"
        ) from None
    return boundary_condition("fixed-flux" if kind == "flux" else kind, value)


def snapshot_times(text: str) -> list[float]:
    """Parse --snapshots; argparse names this function in its error message."""
    return [float(t) for t in text.split(",") if t]


def resolve_config(args: argparse.Namespace) -> SimConfig:
    """Merge scenario defaults, config-file values and flag overrides.

    Precedence: flags beat the file, the file beats the scenario template,
    and the template beats the SimConfig defaults.  A flag overrides the
    field its argparse destination is named after; the boundary flags
    replace one side of ``bc``.  Snapshot times inherited from the
    scenario template that lie past the run's end give way to the end
    itself, so a shorter ``t_end`` needs no ``--snapshots``; times given
    by the file or a flag must lie within the run.  Without snapshot
    times the run keeps only its final field.
    """
    file_data: dict = {}
    if args.config:
        file_data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_data, dict):
            raise ConfigurationError(f"{args.config} does not hold a JSON object")
    scenario_name = args.scenario or file_data.get("scenario")

    mapping = make_scenario(scenario_name).cfg.to_mapping() if scenario_name else {}
    mapping.update(file_data)
    flags = vars(args)
    mapping.update(
        (f.name, flags[f.name])
        for f in fields(SimConfig)
        if flags.get(f.name) is not None
    )
    inherited = ()
    if scenario_name and "snapshot_times" not in file_data and args.snapshot_times is None:
        inherited = mapping.pop("snapshot_times")
    cfg = SimConfig.from_mapping(mapping)
    if inherited:
        kept = [t for t in inherited if cfg.steps_to(t) <= cfg.n_steps]
        if len(kept) < len(inherited):
            kept.append(cfg.t_end)
        cfg = replace(cfg, snapshot_times=kept)

    bc = cfg.bc
    if args.bc_left is not None:
        bc = replace(bc, left=_boundary_flag(args.bc_left))
    if args.bc_right is not None:
        bc = replace(bc, right=_boundary_flag(args.bc_right))
    return replace(cfg, bc=bc, snapshot_times=cfg.snapshot_times or (cfg.t_end,))


def _downsample_indices(length: int, limit: int = _TRACE_POINT_LIMIT) -> list[int]:
    if length <= limit:
        return list(range(length))
    stride = math.ceil(length / limit)
    idx = list(range(0, length, stride))
    if idx[-1] != length - 1:
        idx.append(length - 1)
    return idx


def _write_long_csv(path: Path, header: str, x: np.ndarray, rows) -> None:
    """Long-format CSV: for each (t, arrays) in rows, one line per node
    holding t, x and the arrays' values there, all to 17 significant digits."""
    x_strs = [_fmt(v) for v in x]
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for t, arrays in rows:
            t_str = _fmt(t)
            for values in zip(x_strs, *([_fmt(v) for v in a] for a in arrays)):
                fh.write(f"{t_str},{','.join(values)}\n")


def write_snapshots_csv(path: Path, result: RunResult) -> None:
    rows = ((t, (u,)) for t, u in zip(result.snapshot_times, result.snapshots))
    _write_long_csv(path, "t,x,u", result.cfg.x, rows)


def _summary(manifest: dict, result: RunResult, initial_u: np.ndarray) -> dict:
    """The summary.json document of a run."""
    trace = result.trace
    idx = _downsample_indices(trace.t.size)
    principle = max_principle_check(trace, initial_u)
    summary = {
        "manifest": manifest,
        "steps_taken": result.steps_taken,
        "steady_stop_time": result.steady_stop_time,
        "steady_state_time": steady_state_time(trace, result.cfg.steady_eps),
        "max_principle": asdict(principle),
        "mass_trace": {
            "t": trace.t[idx].tolist(),
            "mass": trace.mass[idx].tolist(),
        },
        # min/max sampled at the same times as mass_trace.t
        "extrema_trace": {
            "min": trace.u_min[idx].tolist(),
            "max": trace.u_max[idx].tolist(),
        },
    }
    if result.decomposition is not None:
        diffusive, advective = result.decomposition
        summary["flux_decomposition"] = {
            "t": float(trace.t[-1]),
            "diffusive": diffusive.tolist(),
            "advective": advective.tolist(),
        }
    return summary


# The float lists of summary.json as (section, key), in document order;
# only an rl run has the flux_decomposition section.  json.dumps(indent=2)
# puts their items six spaces deep and their closing brackets four.
_FLOAT_LISTS = (
    ("mass_trace", "t"), ("mass_trace", "mass"),
    ("extrema_trace", "min"), ("extrema_trace", "max"),
    ("flux_decomposition", "diffusive"), ("flux_decomposition", "advective"),
)


def _write_summary(path: Path, summary: dict) -> None:
    """Write json.dumps(summary, indent=2) + "\n" to path, byte for byte.

    With an indent, json.dumps takes its pure-Python encoder, one call per
    list item.  Here each float list (the traces, and an rl run's flux
    decomposition) is one join of float.__repr__ strings, which is what
    that encoder writes for a finite float, spliced in where json.dumps
    put a placeholder string, and written chunk by chunk.
    """
    skeleton = dict(summary)
    slots = []
    for section, key in _FLOAT_LISTS:
        if section not in summary:
            continue
        values = summary[section][key]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"summary {section}.{key} holds a non-finite value")
        skeleton[section] = {**skeleton[section], key: f"{section}.{key}"}
        slots.append((json.dumps(f"{section}.{key}"), values))
    head = json.dumps(skeleton, indent=2)
    # Only the manifest, which precedes the float lists, holds free text, so
    # searching back from the end finds each placeholder and no look-alike.
    tails = []
    for slot, values in reversed(slots):
        head, _, tail = head.rpartition(slot)
        tails.append((values, tail))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(head)
        # never empty: t[0] is always there, and n >= 1 faces
        for values, tail in reversed(tails):
            fh.write("[\n      ")
            fh.write(",\n      ".join(map(float.__repr__, values)))
            fh.write("\n    ]")
            fh.write(tail)
        fh.write("\n")


def write_summary_json(
    path: Path, manifest: dict, result: RunResult, initial_u: np.ndarray
) -> None:
    _write_summary(path, _summary(manifest, result, initial_u))


def run_command(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    u0 = build_initial(cfg.initial, cfg.x)
    result = run(cfg, u0)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = cfg.manifest()
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    write_snapshots_csv(out_dir / "snapshots.csv", result)
    write_summary_json(out_dir / "summary.json", manifest, result, u0)

    final_mass = result.trace.mass[-1]
    print(
        f"run finished: {result.steps_taken} steps, final t={result.trace.t[-1]:g}, "
        f"mass={final_mass:.12g}, outputs in {out_dir}"
    )
    return 0


def compare_command(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    cfg_a = replace(cfg, flux=FluxKind.from_name(args.flux_a))
    cfg_b = replace(cfg, flux=FluxKind.from_name(args.flux_b))
    u0 = build_initial(cfg.initial, cfg.x)
    result_a = run(cfg_a, u0)
    result_b = run(cfg_b, u0)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    times = result_a.snapshot_times
    columns = [
        (ua, ub, ua - ub) for ua, ub in zip(result_a.snapshots, result_b.snapshots)
    ]
    _write_long_csv(out_dir / "compare.csv", "t,x,u_a,u_b,diff", cfg.x, zip(times, columns))
    per_snapshot = [
        {"t": t, "max_abs_diff": float(np.abs(diff).max())}
        for t, (_, _, diff) in zip(times, columns)
    ]
    verdict = {
        "manifest": cfg_a.manifest(),
        "flux_a": cfg_a.flux.value,
        "flux_b": cfg_b.flux.value,
        "per_snapshot": per_snapshot,
        "max_abs_diff": max(entry["max_abs_diff"] for entry in per_snapshot),
    }
    (out_dir / "verdict.json").write_text(
        json.dumps(verdict, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"compare finished: {cfg_a.flux.value} vs {cfg_b.flux.value}, "
        f"max|diff|={verdict['max_abs_diff']:.6g}, outputs in {out_dir}"
    )
    return 0


def scenarios_command(_: argparse.Namespace) -> int:
    for name in SCENARIO_NAMES:
        scenario = make_scenario(name)
        print(f"{name}: {scenario.expected_qualitative}")
    return 0


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=SCENARIO_NAMES, help="built-in scenario name")
    parser.add_argument("--config", help="path to a JSON config or an emitted manifest.json")
    parser.add_argument("--alpha", type=float, help="fractional order in (0, 1]")
    parser.add_argument("--n", type=int, help="number of grid intervals (n+1 nodes)")
    parser.add_argument("--dt", type=float, help="time step")
    parser.add_argument("--t-end", type=float, dest="t_end", help="final time")
    parser.add_argument(
        "--snapshots",
        dest="snapshot_times",
        type=snapshot_times,
        help="comma-separated snapshot times, e.g. 0.01,0.04,0.2",
    )
    parser.add_argument(
        "--bc-left", help="left boundary override, dirichlet:VALUE or flux:VALUE"
    )
    parser.add_argument(
        "--bc-right", help="right boundary override, dirichlet:VALUE or flux:VALUE"
    )
    parser.add_argument("--kappa", type=float, help="scalar diffusivity multiplier")
    parser.add_argument(
        "--stop-when-steady",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="stop once the per-step change drops below the steady threshold",
    )
    parser.add_argument(
        "--force-inconsistent-bc",
        action="store_true",
        default=None,
        help="run even if the initial data contradicts a Dirichlet value",
    )
    parser.add_argument("--out-dir", default=".", help="directory for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracflux",
        description="Control-volume diffusion runs with interchangeable flux laws",
    )
    parser.add_argument("--version", action="version", version=f"fracflux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one configuration and write outputs")
    _add_common_options(run_parser)
    run_parser.add_argument("--flux", choices=_FLUX_CHOICES, help="flux law to use")
    run_parser.set_defaults(handler=run_command)

    cmp_parser = sub.add_parser("compare", help="run two flux laws side by side")
    _add_common_options(cmp_parser)
    cmp_parser.add_argument("--flux-a", required=True, choices=_FLUX_CHOICES)
    cmp_parser.add_argument("--flux-b", required=True, choices=_FLUX_CHOICES)
    cmp_parser.set_defaults(handler=compare_command)

    sc_parser = sub.add_parser("scenarios", help="list built-in scenario names")
    sc_parser.set_defaults(handler=scenarios_command)
    return parser


# The parser of main, built once per process: building it costs some
# fifteen times what parsing one command line does, and parse_args keeps
# no state between calls.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
