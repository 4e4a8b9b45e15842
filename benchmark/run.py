#!/usr/bin/env python3
"""fracflux benchmark: three workloads, end-to-end metrics and traced layer times.

Run from the root of a checkout:

    python3 benchmark/run.py --workload reproduce --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke

Each invocation sets up the workload in several fresh processes (set-up
time is their median), then runs it in one more fresh process for
``--seconds`` of whole timed passes, checks every pass's outputs and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``--smoke`` runs every workload once at minimal length, traced and
untraced, and exits 0 only if all checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("reproduce", "grid-scaling", "alpha-sweep")
# Fresh processes that only set up; with the measuring process's own
# set-up this makes setup_s a median of seven.
SETUP_PROBES = 6
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread per library: the workloads are single-threaded numpy, and
    # capped pools keep the figures from depending on other load.
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    expected = (ROOT / "src" / "fracflux" / "__init__.py").resolve()
    if Path(result["fracflux_file"]).resolve() != expected:
        raise BenchError(f"worker imported fracflux from {result['fracflux_file']}")
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            deadline: float) -> dict:
    """Run one workload and return its result line."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        setups = []
        for k in range(0 if smoke else SETUP_PROBES):
            probe = workdir / f"setup-{k}"
            probe.mkdir()
            setups.append(run_worker(common + ["--workdir", str(probe), "--setup-only"],
                                     deadline))
        extra = ["--smoke"] if smoke else []
        if trace:
            extra += ["--trace", "1", "--trace-out", str(OUT / f"trace-{workload}.json.gz")]
        passes = workdir / "passes"
        passes.mkdir()
        worker = run_worker(common + ["--workdir", str(passes)] + extra, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(worker)

    for problem in worker["problems"]:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    walls, at_ref = worker["walls"], worker["walls_at_ref"]
    print(f"{workload}: seed {seed}, {len(walls)} passes; wall time median "
          f"{statistics.median(walls):.4f} s, fastest {min(walls):.4f} s; at reference "
          f"speed median {statistics.median(at_ref):.4f} s; set-up median "
          f"{statistics.median(s['setup_s'] for s in setups):.4f} s; "
          f"{worker['attempted']} operations attempted, {worker['failed']} failed")
    if trace:
        metrics = worker["layers"]
        pass_s = metrics["trace.pass_s"]["value"]
        print(f"  self time of the fastest traced pass ({pass_s:.4f} s) by span:")
        for name, value in sorted(worker["self_times"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:40s} {value:10.4f} s {100 * value / pass_s:5.1f} %")
    else:
        # Pass times at reference speed (reference.py), not raw wall times:
        # on a shared host the raw times move by up to 2x with the load.
        wall = statistics.median(at_ref)
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_at_ref_s"] for s in setups),
                        "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "node_steps_per_s": {"value": worker["node_steps"] / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    return {"correct": not worker["problems"], "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at minimal length, traced")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "fracflux" / "__init__.py").is_file():
        print(f"error: no fracflux sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.smoke:
            lines = [measure(w, args.seed, 0.0, True, True, deadline) for w in WORKLOADS]
            ok = all(line["correct"] and not line["failed"] for line in lines)
            print(json.dumps({"smoke": "passed" if ok else "failed"}))
            return 0 if ok else 1
        line = measure(args.workload, args.seed, args.seconds, bool(args.trace), False, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
