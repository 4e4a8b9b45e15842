#!/usr/bin/env python3
"""Print one SHA-256 over the outputs of a fixed matrix of runs.

    PYTHONPATH=src python3 scripts/hash_runs.py [--cases PATH]

prints ``runs N sha256 H``.  The hash covers, in a fixed order, the
snapshots, finals, full per-step traces, step counts and steady-stop
times of every result, and the message of every abort, of:

- n = 20, 100, 141, 200, 399, 400 and 600, so every route of
  ``fracflux.solver.run`` (the stacked leap, one product with F per step,
  and one ``face_fluxes`` per field and step, dense and FFT), and the
  crossovers between them;
- the four flux laws, each under reflective, Dirichlet, mixed and nonzero
  fixed-flux ends;
- solo runs and blocks of two and three fields (``run_block``);
- all-negative, all-zero and signed-zero fields, which show a sign of zero
  that an update lets slip;
- one steady stop and one abort per law and grid, solo, and two aborts in
  a block, one of them with a second field that fails before the first;
- the README's late ``caputo`` abort at n = 100 and 200, hundreds of
  steps into the stacked leap and the F route.

Two source trees that print the same line give the same bits on all of
these; run it under several OPENBLAS_NUM_THREADS to check that the thread
count reaches no output bit.  ``--cases PATH`` also writes one line per
case to PATH, its index and label, then the SHA-256 of what that case adds
to the hash, so that two listings tell which cases differ.  The traces
come from ``full_trace=True``, or from ``result.trace`` alone in source
trees whose ``run_block`` keeps it without being asked.  Blocks of four or more fields are left out:
at n = 399 their one product with F per step rounds differently under one
and two OpenBLAS threads.
"""

import argparse
import hashlib
import inspect
import warnings
from dataclasses import replace

import numpy as np

from fracflux.flux import FluxKind
from fracflux.scenarios import triangular_pulse
from fracflux.solver import (
    BoundarySpec,
    Dirichlet,
    FixedFlux,
    InitialSpec,
    InstabilityError,
    SimConfig,
    StabilityWarning,
    run,
    run_block,
)

GRIDS = (20, 100, 141, 200, 399, 400, 600)
STEPS = 80  # past two recorded blocks on the single-step routes

# Three fields' boundary pairs per kind pair; a solo run takes the first.
BCS = {
    "reflective": (BoundarySpec.reflective(),) * 3,
    "dirichlet": (BoundarySpec(Dirichlet(0.75), Dirichlet(-0.5)),
                  BoundarySpec(Dirichlet(-1.25), Dirichlet(2.0)),
                  BoundarySpec(Dirichlet(3.5), Dirichlet(1.5))),
    "mixed": (BoundarySpec(Dirichlet(0.75), FixedFlux(0.125)),
              BoundarySpec(Dirichlet(-1.0), FixedFlux(0.0)),
              BoundarySpec(Dirichlet(2.5), FixedFlux(-0.5))),
    "fixed-flux": (BoundarySpec(FixedFlux(0.375), FixedFlux(0.125)),
                   BoundarySpec(FixedFlux(-0.5), FixedFlux(0.25)),
                   BoundarySpec(FixedFlux(0.0), FixedFlux(-0.625))),
}
SCALES = ((1.0, 0.25), (-2.0, 1.0), (0.5, 3.0))  # field = a * pulse + b

FULL_TRACE = {"full_trace": True} if "full_trace" in inspect.signature(run_block).parameters else {}


def config(kind, n, bc, steps=STEPS, ratio=0.4):
    order = 2.0 if kind is FluxKind.FOURIER else 1.5  # alpha = 0.5
    dt = ratio * (1.0 / n) ** order
    snaps = tuple(k * dt for k in (0, 7, 32, steps) if k <= steps)
    return SimConfig(
        alpha=0.5, n=n, dt=dt, t_end=steps * dt, snapshot_times=snaps, flux=kind, bc=bc,
        initial=InitialSpec("constant", {"value": 0.0}),
    )


def pinned(cfg, u0):
    """u0 with its Dirichlet nodes set to their boundary values."""
    u0 = u0.copy()
    for node, bc in ((0, cfg.bc.left), (-1, cfg.bc.right)):
        if isinstance(bc, Dirichlet):
            u0[node] = bc.value
    return u0


def cases():
    """(label, configs, initial fields) of every run, in order."""
    for n in GRIDS:
        x = np.arange(n + 1) / n
        pulse = triangular_pulse(x)
        for kind in FluxKind:
            for name, specs in BCS.items():
                cfgs = [config(kind, n, spec) for spec in specs]
                u0s = [pinned(cfg, a * pulse + b) for cfg, (a, b) in zip(cfgs, SCALES)]
                for width in (1, 2, 3):
                    yield f"{n} {kind.value} {name} x{width}", cfgs[:width], u0s[:width]
            signed = np.where(np.arange(n + 1) % 2, -0.0, 0.0)
            for name, spec in (("reflective", BoundarySpec.reflective()),
                               ("zero", BoundarySpec(Dirichlet(-0.0), Dirichlet(0.0)))):
                cfg = config(kind, n, spec, steps=20)
                fields = [pinned(cfg, -1.0 - pulse), np.zeros(n + 1), np.full(n + 1, -0.0), signed]
                for field in fields:
                    yield f"{n} {kind.value} {name} signs", [cfg], [field]
                yield f"{n} {kind.value} {name} signs x2", [cfg] * 2, fields[:2]
                yield f"{n} {kind.value} {name} signs x3", [cfg] * 3, fields[1:]
            if kind in (FluxKind.CAPUTO, FluxKind.FOURIER):
                cfg = config(kind, n, BoundarySpec.reflective(), steps=300)
                change = run_block([cfg], [pulse + 0.25], **FULL_TRACE)[0].trace.step_change
                eps = 0.5 * (change[149] + change[150])
                yield f"{n} {kind.value} steady", [replace(cfg, stop_when_steady=True, steady_eps=eps)], [pulse + 0.25]
                cfg = config(kind, n, BoundarySpec.reflective(), steps=2000, ratio=5.0)
                yield f"{n} {kind.value} abort", [cfg], [pulse]
                if kind is FluxKind.CAPUTO:
                    yield f"{n} {kind.value} abort x2", [cfg] * 2, [pulse, 1e290 * pulse]
                    yield f"{n} {kind.value} abort order x2", [cfg] * 2, [1e-6 * pulse, pulse]
                    if n in (100, 200):
                        zero = BoundarySpec(Dirichlet(0.0), Dirichlet(0.0))
                        late = config(kind, n, zero, steps=1200, ratio=0.75)
                        yield f"{n} {kind.value} late abort", [late], [pulse]


def outputs(label, cfgs, u0s):
    """(the bytes a case adds to the hash, in order, its count of runs)."""
    pieces = [label.encode()]
    try:
        results = run_block(cfgs, u0s, **FULL_TRACE)
    except InstabilityError as exc:
        return pieces + [str(exc).encode()], 1
    for result in results:
        trace = result.trace
        for array in (*result.snapshots, result.final, trace.t, trace.mass, trace.u_min,
                      trace.u_max, trace.step_change):
            pieces.append(np.ascontiguousarray(array).tobytes())
        pieces.append(f"{result.steps_taken} {result.steady_stop_time!r}".encode())
    return pieces, len(results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cases", help="also write one 'index label sha256' line per case to this file")
    args = parser.parse_args()
    digest = hashlib.sha256()
    count = 0
    listing = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for index, (label, cfgs, u0s) in enumerate(cases()):
            pieces, runs = outputs(label, cfgs, u0s)
            for piece in pieces:
                digest.update(piece)
            count += runs
            listing.append(f"{index} {label} {hashlib.sha256(b''.join(pieces)).hexdigest()}\n")
    if args.cases:
        with open(args.cases, "w", encoding="utf-8") as fh:
            fh.writelines(listing)
    print(f"runs {count} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
