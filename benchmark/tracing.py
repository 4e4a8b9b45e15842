"""Span tracing of fracflux from outside the package.

The tracer replaces public functions at the module attributes their
callers look up (``fracflux.solver.face_fluxes`` is what ``solver.run``
calls, ``fracflux.cli.run`` is what the CLI calls, and so on) with
wrappers that record one span per call: name, start, end and parent.
Spans stay in memory; :meth:`Tracer.take` hands one pass's spans over as
a :class:`PassTrace`, which folds them into per-layer figures and writes
them out.
Nothing under ``src/`` changes, and :meth:`Tracer.uninstall` restores
every attribute it replaced.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import time
from pathlib import Path

import fracflux.cli
import fracflux.diagnostics
import fracflux.scenarios
import fracflux.solver
from fracflux.flux import FluxKind

# (module, attribute, span name).  A function reachable under two
# attributes (solver.run is also cli.run) gets the same span name at both.
WRAPPED = (
    (fracflux.solver, "build_table", "weights.build_table"),
    (fracflux.solver, "face_fluxes", "flux.face_fluxes"),
    (fracflux.solver, "step", "solver.step"),
    (fracflux.solver, "run", "solver.run"),
    (fracflux.cli, "run", "solver.run"),
    (fracflux.solver, "total_mass", "diagnostics.total_mass"),
    (fracflux.cli, "max_principle_check", "diagnostics.max_principle_check"),
    (fracflux.cli, "steady_state_time", "diagnostics.steady_state_time"),
    (fracflux.diagnostics, "equivariance_test", "diagnostics.equivariance_test"),
    (fracflux.cli, "make_scenario", "scenarios.make_scenario"),
    (fracflux.scenarios, "make_scenario", "scenarios.make_scenario"),
    (fracflux.cli, "build_initial", "scenarios.build_initial"),
    (fracflux.cli, "resolve_config", "cli.resolve_config"),
    (fracflux.cli, "write_snapshots_csv", "cli.write_snapshots_csv"),
    (fracflux.cli, "write_summary_json", "cli.write_summary_json"),
    (fracflux.cli, "main", "cli.main"),
)

# Per-layer metrics reported by a traced run, with their units.  The
# README says which end-to-end metric each should move, on which workload.
LAYER_METRICS = {
    "weights.build_table_s": "s",
    "weights.build_table_calls": "count",
    "weights.cache_hit_ratio": "ratio",
    "flux.face_fluxes_s": "s",
    "flux.face_fluxes_calls": "count",
    "flux.face_fluxes_us_per_call": "us",
    "flux.nominal_macs": "count",
    "solver.run_s": "s",
    "solver.run_calls": "count",
    "solver.run_self_s": "s",
    "solver.step_s": "s",
    "solver.step_us_per_call": "us",
    "solver.steps": "count",
    "solver.us_per_step": "us",
    "diagnostics.total_mass_s": "s",
    "diagnostics.report_s": "s",
    "diagnostics.equivariance_test_self_s": "s",
    "scenarios.make_scenario_s": "s",
    "scenarios.build_initial_s": "s",
    "cli.resolve_config_s": "s",
    "cli.write_snapshots_csv_s": "s",
    "cli.write_summary_json_s": "s",
    "cli.main_self_s": "s",
    "cli.bytes_written": "B",
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        # Computed, not measured: multiply-adds of the direct truncated
        # convolution, n(n+1)/2 per call of a non-local law.
        self.nominal_macs = 0

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap_face_fluxes(self, fn):
        timed = self._wrap("flux.face_fluxes", fn)

        @functools.wraps(fn)
        def wrapper(u, kind, table, *args, **kwargs):
            if kind is not FluxKind.FOURIER:
                self.nominal_macs += table.n * (table.n + 1) // 2
            return timed(u, kind, table, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            if attr == "face_fluxes":
                wrapper = self._wrap_face_fluxes(original)
            else:
                wrapper = self._wrap(name, original)
            self._originals.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def take(self) -> "PassTrace":
        """Hand over the spans recorded so far and start afresh."""
        taken = PassTrace(list(self.names), list(self.starts), list(self.ends),
                          list(self.parents), self.nominal_macs)
        # Cleared in place: the installed wrappers hold these lists.
        for spans in (self.names, self.starts, self.ends, self.parents, self._stack):
            spans.clear()
        self.nominal_macs = 0
        return taken


@dataclasses.dataclass
class PassTrace:
    """The spans of one pass: parallel lists, parent -1 for a root span."""

    names: list[str]
    starts: list[float]
    ends: list[float]
    parents: list[int]
    nominal_macs: int

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], float]:
        """Per-name total time, self time and calls, plus the root-span time.

        Self time is a span's duration minus its children's, so the self
        times of all spans add up to the root-span time.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        roots = 0.0
        for d, p in zip(durations, self.parents):
            if p >= 0:
                child[p] += d
            else:
                roots += d
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, d, c in zip(self.names, durations, child):
            total[name] = total.get(name, 0.0) + d
            self_time[name] = self_time.get(name, 0.0) + d - c
            calls[name] = calls.get(name, 0) + 1
        return total, self_time, calls, roots

    def metrics(self, pass_s: float, cache_hits: int, cache_calls: int,
                bytes_written: int) -> dict[str, float]:
        """The per-layer metrics of this pass.

        ``trace.overhead_s`` needs the untraced passes and is left to the caller.
        """
        total, self_time, calls, roots = self.totals()

        def per_call_us(name: str, count: int) -> float:
            return 1e6 * total.get(name, 0.0) / count if count else 0.0

        steps = calls.get("solver.step", 0)
        return {
            "weights.build_table_s": total.get("weights.build_table", 0.0),
            "weights.build_table_calls": calls.get("weights.build_table", 0),
            "weights.cache_hit_ratio": cache_hits / cache_calls if cache_calls else 0.0,
            "flux.face_fluxes_s": total.get("flux.face_fluxes", 0.0),
            "flux.face_fluxes_calls": calls.get("flux.face_fluxes", 0),
            "flux.face_fluxes_us_per_call": per_call_us(
                "flux.face_fluxes", calls.get("flux.face_fluxes", 0)),
            "flux.nominal_macs": self.nominal_macs,
            "solver.run_s": total.get("solver.run", 0.0),
            "solver.run_calls": calls.get("solver.run", 0),
            "solver.run_self_s": self_time.get("solver.run", 0.0),
            "solver.step_s": total.get("solver.step", 0.0),
            "solver.step_us_per_call": per_call_us("solver.step", steps),
            "solver.steps": steps,
            "solver.us_per_step": per_call_us("solver.run", steps),
            "diagnostics.total_mass_s": total.get("diagnostics.total_mass", 0.0),
            "diagnostics.report_s": total.get("diagnostics.max_principle_check", 0.0)
            + total.get("diagnostics.steady_state_time", 0.0),
            "diagnostics.equivariance_test_self_s":
                self_time.get("diagnostics.equivariance_test", 0.0),
            "scenarios.make_scenario_s": total.get("scenarios.make_scenario", 0.0),
            "scenarios.build_initial_s": total.get("scenarios.build_initial", 0.0),
            "cli.resolve_config_s": self_time.get("cli.resolve_config", 0.0),
            "cli.write_snapshots_csv_s": total.get("cli.write_snapshots_csv", 0.0),
            "cli.write_summary_json_s": self_time.get("cli.write_summary_json", 0.0),
            "cli.main_self_s": self_time.get("cli.main", 0.0),
            "cli.bytes_written": bytes_written,
            "trace.pass_s": pass_s,
            "trace.unattributed_s": pass_s - roots,
        }

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans as gzipped JSON, times relative to the first start."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [index[nm], round(s - t0, 9), round(e - t0, 9), p]
            for nm, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        doc = {"meta": meta, "fields": ["name", "start_s", "end_s", "parent"],
               "names": names, "spans": spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
