"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload builds its inputs once (``__init__``, timed as set-up) and
hands out one pass at a time as a list of operations (``operations``):
calls into fracflux and nothing else, each timed on its own.  After the
timed passes, ``check`` tests each pass's outputs against properties of
the method or against values the benchmark computes itself, never
against stored copies of earlier output.  ``REFERENCE`` is the grid size
and step count of the reference slice that runs between operations (see
reference.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

import fracflux.cli
import fracflux.diagnostics
import fracflux.scenarios
from fracflux.flux import FluxKind

# Round-off tolerance, relative to the scale of the field.  Every check
# below that says "to round-off" measured 1e-13 relative or less.
ROUNDOFF = 1e-11


@dataclasses.dataclass
class Checked:
    attempted: int
    failed: int
    node_steps: int
    problems: list[str]


def _snapshots(path: Path) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Read a long-format t,x,u CSV into (times, one u array per time, x)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times = np.unique(data[:, 0])
    fields = [data[data[:, 0] == t, 2] for t in times]
    x = data[data[:, 0] == times[0], 1]
    return times, fields, x


def _trapezoid_mass(u: np.ndarray, dx: float) -> float:
    return dx * (float(np.sum(u)) - 0.5 * (u[0] + u[-1]))


# Initial profiles written out here from their definitions in the paper's
# experiments, to bound the data independently of fracflux.scenarios.
def _pulse(x):
    return np.clip(np.minimum(25.0 * x - 7.5, 17.5 - 25.0 * x), 0.0, None)


def _bump(x, offset=0.0):
    amp = 64.0 * np.pi**3 / (np.pi**2 - 4.0)
    inside = (x > 0.0) & (x < 0.25)
    return np.where(inside, amp * (x - 0.25) ** 2 * np.sin(4.0 * np.pi * x), 0.0) + offset


def _call_main(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = fracflux.cli.main(argv)
    return code, err.getvalue()


def _cli_operations(ops: list, passdir: Path) -> list:
    """One CLI call per (label, _, argv), each writing to its own directory."""
    return [functools.partial(_call_main, argv + ["--out-dir", str(passdir / label)])
            for label, _, argv in ops]


class Reproduce:
    """The paper's experiment matrix through ``fracflux.cli.main``.

    13 runs and 3 compares at the scenario defaults (n = 100, dt = 0.0005,
    alpha = 0.5), the matrix of scripts/reproduce_experiments.py, copied
    here so a change to that script does not change the workload.  The
    seed only permutes the order of the 16 operations.
    """

    REFERENCE = (100, 270)

    RUNS = (
        ("pulse-reflective", "rl", ("--stop-when-steady",)),
        ("pulse-reflective", "caputo", ("--stop-when-steady",)),
        ("pulse-reflective", "parsimonious", ("--stop-when-steady",)),
        # dt/dx^2 = 5, ten times the gradient law's bound: the README
        # promises an abort with exit code 3, which counts as success.
        ("pulse-reflective", "fourier", ()),
        ("ice-warsaw", "rl", ()),
        ("ice-warsaw", "caputo", ()),
        ("ice-warsaw", "fourier", ()),
        ("ice-minneapolis", "rl", ()),
        ("ice-minneapolis", "caputo", ()),
        ("fig7-zero", "rl", ()),
        ("fig7-zero", "caputo", ()),
        ("fig7-shifted", "rl", ()),
        ("fig7-shifted", "caputo", ()),
    )
    COMPARES = (
        ("fig7-zero", "rl", "caputo"),
        ("fig7-shifted", "rl", "caputo"),
        ("fig7-shifted", "parsimonious", "caputo"),
    )

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        ops = []
        for scenario, law, extra in self.RUNS:
            expected = 3 if (scenario, law) == ("pulse-reflective", "fourier") else 0
            ops.append((f"run--{scenario}--{law}", expected,
                        ["run", "--scenario", scenario, "--flux", law, *extra]))
        for scenario, a, b in self.COMPARES:
            ops.append((f"compare--{scenario}--{a}-vs-{b}", 0,
                        ["compare", "--scenario", scenario, "--flux-a", a, "--flux-b", b]))
        order = np.random.default_rng(seed).permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def operations(self, passdir: Path) -> list:
        return _cli_operations(self.ops, passdir)

    def check(self, passdir: Path, outcome: list[tuple[int, str]]) -> Checked:
        problems: list[str] = []
        failed = 0
        ok: set[str] = set()
        for (label, expected, _), (code, err) in zip(self.ops, outcome):
            if code != expected:
                failed += 1
                problems.append(f"{label}: exit {code}, expected {expected}: {err.strip()}")
            elif expected == 3 and "unstable" not in err:
                problems.append(f"{label}: exit 3 without an instability message")
            else:
                ok.add(label)

        node_steps = 0
        runs: dict[str, tuple[np.ndarray, list[np.ndarray], np.ndarray]] = {}
        for scenario, law, _ in self.RUNS:
            label = f"run--{scenario}--{law}"
            if label not in ok or (scenario, law) == ("pulse-reflective", "fourier"):
                continue
            out = passdir / label
            summary = json.loads((out / "summary.json").read_text())
            node_steps += summary["steps_taken"] * (summary["manifest"]["n"] + 1)
            runs[label] = _snapshots(out / "snapshots.csv")

        def field(scenario, law):
            return runs.get(f"run--{scenario}--{law}")

        for law in ("rl", "caputo", "parsimonious"):
            got = field("pulse-reflective", law)
            if got is None:
                continue
            times, fields, x = got
            for t, u in zip(times, fields):
                mass = _trapezoid_mass(u, x[1] - x[0])
                if abs(mass - 1.0) > ROUNDOFF:
                    problems.append(f"pulse-reflective/{law}: mass {mass:.17g} at t={t:g}, not 1")
        for law in ("rl", "caputo", "fourier"):
            got = field("ice-warsaw", law)
            if got is not None and any(np.any(u != 0.0) for u in got[1]):
                problems.append(f"ice-warsaw/{law}: field left 0")
        got = field("ice-minneapolis", "caputo")
        if got is not None and any(np.any(u != 32.0) for u in got[1]):
            problems.append("ice-minneapolis/caputo: field left 32")
        got = field("ice-minneapolis", "rl")
        if got is not None and np.ptp(got[1][-1]) < 1.0:
            problems.append(f"ice-minneapolis/rl: final field flat (spread {np.ptp(got[1][-1]):g})")

        # caputo stays inside the bounds of the initial data.
        profiles = {
            "pulse-reflective": _pulse,
            "ice-warsaw": lambda x: np.zeros_like(x),
            "ice-minneapolis": lambda x: np.full_like(x, 32.0),
            "fig7-zero": _bump,
            "fig7-shifted": lambda x: _bump(x, 5.0),
        }
        for scenario, profile in profiles.items():
            got = field(scenario, "caputo")
            if got is None:
                continue
            g = profile(got[2])
            lo, hi = float(g.min()), float(g.max())
            tol = ROUNDOFF * max(1.0, abs(lo), abs(hi))
            for t, u in zip(got[0], got[1]):
                if u.min() < lo - tol or u.max() > hi + tol:
                    problems.append(
                        f"{scenario}/caputo: [{u.min():.17g}, {u.max():.17g}] leaves "
                        f"[{lo:.17g}, {hi:.17g}] at t={t:g}"
                    )
        zero, shifted = field("fig7-zero", "caputo"), field("fig7-shifted", "caputo")
        if zero is not None and shifted is not None:
            gap = max(np.abs(us - (uz + 5.0)).max() for uz, us in zip(zero[1], shifted[1]))
            if gap > ROUNDOFF * 20.0:
                problems.append(f"fig7-shifted/caputo differs from fig7-zero/caputo + 5 by {gap:g}")

        for scenario, a, b in self.COMPARES:
            label = f"compare--{scenario}--{a}-vs-{b}"
            if label not in ok:
                continue
            out = passdir / label
            manifest = json.loads((out / "verdict.json").read_text())["manifest"]
            if manifest["stop_when_steady"]:
                problems.append(f"{label}: steady stop on, step count unknown")
            steps = round(manifest["t_end"] / manifest["dt"])
            node_steps += 2 * steps * (manifest["n"] + 1)
            data = np.loadtxt(out / "compare.csv", delimiter=",", skiprows=1, ndmin=2)
            diff = np.abs(data[:, 2] - data[:, 3]).max()
            scale = np.abs(data[:, 2:4]).max()
            agree = diff <= ROUNDOFF * scale
            if agree != (a != "rl" or scenario == "fig7-zero"):
                problems.append(f"{label}: max|u_a - u_b| = {diff:g} (scale {scale:g})")
        return Checked(len(self.ops), failed, node_steps, problems)


class GridScaling:
    """rl and caputo at n = 1000, 2000 and 4000 through ``fracflux.cli.main --config``.

    Reflective walls, a fig7 bump on a seeded offset (so u(0) != 0 and the
    rl apparent-advection term is live), a seeded alpha per grid size,
    dt = 0.4 dx^(1+alpha), a fixed number of steps, and snapshots at 0,
    dt and the end.
    """

    REFERENCE = (2000, 6)
    SIZES = (1000, 2000, 4000)
    STEPS = 100
    RATIO = 0.4

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = np.random.default_rng(seed)
        self.steps = 2 if smoke else self.STEPS
        self.ops = []
        for n in self.SIZES:
            alpha = float(rng.uniform(0.3, 0.7))
            offset = float(rng.uniform(1.0, 5.0))
            dt = self.RATIO * (1.0 / n) ** (1.0 + alpha)
            for law in ("rl", "caputo"):
                cfg = {
                    "alpha": alpha,
                    "n": n,
                    "dt": dt,
                    "t_end": self.steps * dt,
                    "snapshot_times": [0.0, dt, self.steps * dt],
                    "flux": law,
                    "bc": {"left": {"kind": "fixed-flux", "value": 0.0},
                           "right": {"kind": "fixed-flux", "value": 0.0}},
                    "initial": {"profile": "fig7-bump", "params": {"offset": offset}},
                }
                path = workdir / f"grid-{n}-{law}.json"
                path.write_text(json.dumps(cfg), encoding="utf-8")
                self.ops.append((f"grid-{n}-{law}", cfg, ["run", "--config", str(path)]))

    def operations(self, passdir: Path) -> list:
        return _cli_operations(self.ops, passdir)

    @staticmethod
    def first_step(u0: np.ndarray, cfg: dict) -> np.ndarray:
        """One explicit step with weights from the closed form of their partial sums.

        g_0 + ... + g_j = Gamma(j+1-alpha) / (Gamma(1-alpha) Gamma(j+1)),
        independent of the recurrence fracflux.weights uses.
        """
        n, alpha, dt = cfg["n"], cfg["alpha"], cfg["dt"]
        dx = 1.0 / n
        lg = math.lgamma
        partial = np.array([math.exp(lg(j + 1 - alpha) - lg(1 - alpha) - lg(j + 1))
                            for j in range(n + 1)])
        w = dx ** (1.0 - alpha) * partial
        q = np.convolve(w, (u0[:-1] - u0[1:]) / dx)[:n]
        if cfg["flux"] == "rl":
            q = q - w[1:] * u0[0] / dx
        r = dt / dx
        u1 = np.empty_like(u0)
        u1[1:-1] = u0[1:-1] + r * (q[:-1] - q[1:])
        u1[0] = u0[0] - 2.0 * r * q[0]
        u1[-1] = u0[-1] + 2.0 * r * q[-1]
        return u1

    def check(self, passdir: Path, outcome: list[tuple[int, str]]) -> Checked:
        problems: list[str] = []
        failed = 0
        node_steps = 0
        for (label, cfg, _), (code, err) in zip(self.ops, outcome):
            if code != 0:
                failed += 1
                problems.append(f"{label}: exit {code}: {err.strip()}")
                continue
            out = passdir / label
            n = cfg["n"]
            steps = json.loads((out / "summary.json").read_text())["steps_taken"]
            node_steps += steps * (n + 1)
            if steps != self.steps:
                problems.append(f"{label}: {steps} steps taken, expected {self.steps}")
            times, fields, _ = _snapshots(out / "snapshots.csv")
            if len(fields) != 3:
                problems.append(f"{label}: {len(fields)} snapshots, expected 3")
                continue
            u0, u1 = fields[:2]
            g = _bump(np.arange(n + 1) / n, cfg["initial"]["params"]["offset"])
            scale = float(np.abs(g).max())
            if np.abs(u0 - g).max() > ROUNDOFF * scale:
                problems.append(f"{label}: initial field is not the offset fig7 bump")
            m0 = _trapezoid_mass(u0, 1.0 / n)
            for t, u in zip(times, fields):
                if abs(_trapezoid_mass(u, 1.0 / n) - m0) > ROUNDOFF * abs(m0):
                    problems.append(f"{label}: mass moved from {m0:.17g} at t={t:g}")
            if cfg["flux"] == "caputo":
                tol = ROUNDOFF * scale
                low = min(u.min() for u in fields)
                high = max(u.max() for u in fields)
                if low < g.min() - tol or high > g.max() + tol:
                    problems.append(f"{label}: caputo left the initial data bounds")
            # Compare increments, which are small against u itself.
            inc_ref = self.first_step(u0, cfg) - u0
            err1 = np.abs((u1 - u0) - inc_ref).max()
            if err1 > 1e-9 * np.abs(inc_ref).max():
                problems.append(f"{label}: first step off the closed-form weights by {err1:g}")
        return Checked(len(self.ops), failed, node_steps, problems)


class AlphaSweep:
    """``diagnostics.equivariance_test`` on fig7-shifted over seeded orders.

    Five seeded orders in [0.05, 0.95] plus alpha = 1; for each, rl and
    caputo under a seeded affine map with b != 0 and one with b = 0.
    n = 200, dt = 0.4 dx^(1+alpha) per order and a fixed number of steps.
    The worker clears the weight-table cache at the start of every pass,
    so each order is a cold table once per pass.
    """

    REFERENCE = (200, 185)
    N = 200
    STEPS = 300
    RATIO = 0.4

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = np.random.default_rng(seed)
        count = 1 if smoke else 5
        self.steps = 10 if smoke else self.STEPS
        alphas = sorted(float(a) for a in rng.uniform(0.05, 0.95, count)) + [1.0]
        self.cases = []
        for alpha in alphas:
            maps = []
            for with_offset in (True, False):
                a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
                b = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 10.0)) if with_offset else 0.0
                maps.append((a, b))
            dt = self.RATIO * (1.0 / self.N) ** (1.0 + alpha)
            t_end = self.steps * dt
            snaps = (self.steps // 10 * dt, self.steps // 3 * dt, t_end)
            for law in (FluxKind.RIEMANN_LIOUVILLE, FluxKind.CAPUTO):
                for a, b in maps:
                    self.cases.append((alpha, dt, law, a, b, t_end, snaps))
        self.umax = float(_bump(np.arange(self.N + 1) / self.N, 5.0).max())

    def _case(self, alpha, dt, law, a, b, t_end, snaps):
        try:
            scenario = fracflux.scenarios.make_scenario("fig7-shifted", alpha=alpha)
            scenario = dataclasses.replace(
                scenario, cfg=dataclasses.replace(scenario.cfg, n=self.N, dt=dt)
            )
            return fracflux.diagnostics.equivariance_test(
                scenario, law, a, b, t_end=t_end, snapshot_times=snaps
            )
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            return exc

    def operations(self, passdir: Path) -> list:
        return [functools.partial(self._case, *case) for case in self.cases]

    def check(self, passdir: Path, outcome: list) -> Checked:
        problems: list[str] = []
        failed = 0
        for (alpha, _, law, a, b, _, snaps), report in zip(self.cases, outcome):
            label = f"alpha={alpha:.4f} {law.value} a={a:.3f} b={b:.3f}"
            if isinstance(report, Exception):
                failed += 1
                problems.append(f"{label}: {report!r}")
                continue
            if len(report.deviations) != len(snaps):
                problems.append(f"{label}: {len(report.deviations)} snapshots, expected {len(snaps)}")
            scale = abs(a) * self.umax + abs(b)
            dev = report.max_deviation
            equivariant = law is FluxKind.CAPUTO or b == 0.0 or alpha == 1.0
            if equivariant and not dev <= ROUNDOFF * scale:
                problems.append(f"{label}: deviation {dev:g} above round-off")
            if not equivariant and not dev > 1e-6 * scale:
                problems.append(f"{label}: deviation {dev:g}, rl should break the shift")
        node_steps = 2 * self.steps * (self.N + 1) * len(self.cases)
        return Checked(len(self.cases), failed, node_steps, problems)


WORKLOADS = {"reproduce": Reproduce, "grid-scaling": GridScaling, "alpha-sweep": AlphaSweep}
