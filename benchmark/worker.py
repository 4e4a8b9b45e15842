"""One workload in one fresh process: set up, run timed passes, check outputs.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
Prints one JSON line with the raw measurements for run.py to fold into
metrics.  With ``--setup-only`` it stops after set-up.
"""

import time

_T0 = time.perf_counter()
import fracflux.cli  # noqa: E402  (timed: importing the program is part of set-up)

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import SETUP_REFERENCE, SLICE_S, Reference, rescaled  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import fracflux  # noqa: E402
import fracflux.weights  # noqa: E402


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Passes:
    """Timed passes of one workload, each in its own output directory."""

    def __init__(self, workload, workdir: Path, reference: Reference):
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.dirs: list[Path] = []
        self.outcomes: list = []

    def _one(self, passdir: Path) -> tuple[float, float]:
        """Run one pass; return its wall time and its time at reference speed."""
        fracflux.weights.build_table.cache_clear()
        op_times, slices, outcome = [], [self.reference.slice()], []
        for op in self.workload.operations(passdir):
            t = time.perf_counter()
            outcome.append(op())
            op_times.append(time.perf_counter() - t)
            slices.append(self.reference.slice())
        self.dirs.append(passdir)
        self.outcomes.append(outcome)
        return sum(op_times), rescaled(op_times, slices)

    def run(self, budget_s: float, minimum: int, tracer: Tracer | None = None):
        """Run whole passes until their summed wall time reaches budget_s.

        Returns the wall times, the times at reference speed and, when
        traced, (wall, layer metrics, spans) of the fastest pass.
        """
        walls, scaled, fastest = [], [], None
        while len(walls) < minimum or sum(walls) < budget_s:
            passdir = self.workdir / f"pass-{len(self.dirs):03d}"
            passdir.mkdir()
            wall, at_ref = self._one(passdir)
            if tracer is not None:
                spans = tracer.take()
                if fastest is None or wall < fastest[0]:
                    info = fracflux.weights.build_table.cache_info()
                    metrics = spans.metrics(wall, info.hits, info.hits + info.misses,
                                            _bytes_under(passdir))
                    fastest = (wall, metrics, spans)
            walls.append(wall)
            scaled.append(at_ref)
        return walls, scaled, fastest

    def check(self) -> dict:
        attempted = failed = 0
        node_steps = set()
        problems: list[str] = []
        for passdir, outcome in zip(self.dirs, self.outcomes):
            checked = self.workload.check(passdir, outcome)
            attempted += checked.attempted
            failed += checked.failed
            node_steps.add(checked.node_steps)
            problems += [f"{passdir.name}: {p}" for p in checked.problems]
            shutil.rmtree(passdir)
        if len(node_steps) != 1:
            problems.append(f"node-steps differ between passes: {sorted(node_steps)}")
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "node_steps": max(node_steps)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", help="where to write the fastest traced pass's spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="one pass at minimal size")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    t = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    setup_s = _IMPORT_S + time.perf_counter() - t
    setup_reference = Reference(*SETUP_REFERENCE)
    speed = SLICE_S / statistics.median(setup_reference.slice() for _ in range(5))
    result = {"setup_s": setup_s, "setup_at_ref_s": setup_s * speed,
              "fracflux_file": fracflux.__file__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    passes = Passes(workload, workdir, Reference(*workload.REFERENCE))
    minimum = 1 if args.smoke else 3
    if args.trace:
        # Untraced passes for the overhead baseline, then traced passes.
        budget = 0.0 if args.smoke else args.seconds / 2
        walls, scaled, _ = passes.run(budget, minimum)
        tracer = Tracer()
        tracer.install()
        try:
            traced_walls, traced_scaled, (best, metrics, spans) = passes.run(
                budget, minimum, tracer)
        finally:
            tracer.uninstall()
        metrics["trace.overhead_s"] = (statistics.median(traced_scaled)
                                       - statistics.median(scaled))
        result["layers"] = {name: {"value": metrics[name], "unit": unit}
                            for name, unit in LAYER_METRICS.items()}
        result["self_times"] = spans.totals()[1]
        if args.trace_out:
            spans.dump(Path(args.trace_out), {"workload": args.workload, "seed": args.seed,
                                              "pass_s": best})
        walls += traced_walls
        scaled += traced_scaled
    else:
        walls, scaled, _ = passes.run(args.seconds, minimum)
        # Peak resident set of the passes, taken before the checks read any output.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["walls"] = walls
    result["walls_at_ref"] = scaled
    result.update(passes.check())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
