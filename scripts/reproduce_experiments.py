#!/usr/bin/env python3
"""Reproduce every built-in experiment and the side-by-side comparisons.

Each run lands in its own directory under the output root (manifest,
snapshots, summary); a compact verdict table is printed at the end.
Exits 1 if a run exits with anything but 0 (or 3, the abort of an
unstable run, for the run listed in DIVERGES) or a comparison exits
non-zero, else 0.
"""

import argparse
import json
from pathlib import Path

from fracflux.cli import main as fracflux

RUNS = [
    # scenario, flux law, extra flags
    ("pulse-reflective", "rl", ["--stop-when-steady"]),
    ("pulse-reflective", "caputo", ["--stop-when-steady"]),
    ("pulse-reflective", "parsimonious", ["--stop-when-steady"]),
    ("pulse-reflective", "fourier", []),
    ("ice-warsaw", "rl", []),
    ("ice-warsaw", "caputo", []),
    ("ice-warsaw", "fourier", []),
    ("ice-minneapolis", "rl", []),
    ("ice-minneapolis", "caputo", []),
    ("fig7-zero", "rl", []),
    ("fig7-zero", "caputo", []),
    ("fig7-shifted", "rl", []),
    ("fig7-shifted", "caputo", []),
]

# The gradient law diverges at the scenario dt (dt/dx^2 = 5 > 1/2); this
# run is kept to show the instability guard at work.
DIVERGES = {("pulse-reflective", "fourier")}

COMPARISONS = [
    ("fig7-zero", "rl", "caputo"),
    ("fig7-shifted", "rl", "caputo"),
    ("fig7-shifted", "parsimonious", "caputo"),
]


def summarize_run(out_dir: Path) -> str:
    summary = json.loads((out_dir / "summary.json").read_text())
    drift = summary["max_mass_change"]
    # Only a closed run (zero flux through both ends) conserves its mass;
    # through a Dirichlet end mass flows in or out, so max|M_k - M_0| is a
    # change, not a conservation error.
    closed = all(
        bc == {"kind": "fixed-flux", "value": 0.0}
        for bc in summary["manifest"]["bc"].values()
    )
    label = "mass drift" if closed else "mass change"
    steady = summary["steady_state_time"]
    steady_txt = f"steady at t={steady:g}" if steady is not None else "no steady state"
    principle = "violated" if summary["max_principle"]["violated"] else "respected"
    return (
        f"{summary['steps_taken']:>6} steps, {label} {drift:.2e}, "
        f"{steady_txt}, bounds {principle}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-root", default="results", help="output directory root")
    args = parser.parse_args()
    root = Path(args.out_root)

    lines = []
    failed = False
    for scenario, law, extra in RUNS:
        out_dir = root / f"{scenario}--{law}"
        code = fracflux(
            ["run", "--scenario", scenario, "--flux", law, "--out-dir", str(out_dir)]
            + extra
        )
        if code == 0:
            lines.append(f"run      {scenario:<18} {law:<13} {summarize_run(out_dir)}")
        elif code == 3 and (scenario, law) in DIVERGES:
            lines.append(
                f"run      {scenario:<18} {law:<13} diverged (expected: dt above "
                "the gradient-law bound dx^2/2)"
            )
        else:
            lines.append(f"run      {scenario:<18} {law:<13} FAILED with exit {code}")
            failed = True

    for scenario, law_a, law_b in COMPARISONS:
        out_dir = root / f"compare--{scenario}--{law_a}-vs-{law_b}"
        code = fracflux(
            ["compare", "--scenario", scenario, "--flux-a", law_a, "--flux-b", law_b,
             "--out-dir", str(out_dir)]
        )
        if code == 0:
            verdict = json.loads((out_dir / "verdict.json").read_text())
            lines.append(
                f"compare  {scenario:<18} {law_a} vs {law_b}: "
                f"max|diff| = {verdict['max_abs_diff']:.3e}"
            )
        else:
            lines.append(f"compare  {scenario:<18} {law_a} vs {law_b}: FAILED with exit {code}")
            failed = True

    print()
    print("=" * 78)
    for line in lines:
        print(line)
    print("=" * 78)
    print(f"outputs under {root}/")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
