#!/usr/bin/env bash
# Reproduce the experiments with one and with two BLAS threads, check that
# both give the same files, and rerun every bundled run from its manifest.
#
#   bash -eo pipefail scripts/check_reproduce.sh OUT_ROOT
#
# Run it from the root of a checkout.  OUT_ROOT receives results-1,
# results-2 and rerun.  Exits non-zero on the first check that fails.
set -eo pipefail
root=${1:?usage: scripts/check_reproduce.sh OUT_ROOT}

# The leap route's matrix products must not let the thread count into any
# output bit.  Numpy warnings are errors: fields computed past a blow-up
# must not leak them.
PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 -W error::RuntimeWarning scripts/reproduce_experiments.py --out-root "$root/results-1"
PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python3 -W error::RuntimeWarning scripts/reproduce_experiments.py --out-root "$root/results-2"
diff -r "$root/results-1" "$root/results-2"

# Every run that wrote a manifest, fed it back through --config, writes the
# same snapshots and summary, and the summary carries that manifest.
for manifest in "$root"/results-1/*/manifest.json; do
  first=$(dirname "$manifest")
  again="$root/rerun/$(basename "$first")"
  PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 -W error::RuntimeWarning -m fracflux run --config "$manifest" --out-dir "$again"
  cmp "$first/snapshots.csv" "$again/snapshots.csv"
  cmp "$first/summary.json" "$again/summary.json"
  python3 -c 'import json, sys; assert json.load(open(sys.argv[1]))["manifest"] == json.load(open(sys.argv[2])), sys.argv[2]' "$again/summary.json" "$manifest"
  # The traces: at most 10^3 windows on one time axis, the last at the run's
  # end: step 0, then windows of ceil(n_steps / 999) steps of the configured
  # n_steps over the N steps taken, so 1 + ceil(N / that) entries.
  python3 -c '
import json, sys
s = json.load(open(sys.argv[1]))
t = s["mass_trace"]["t"]
lists = (t, s["mass_trace"]["mass"], s["extrema_trace"]["min"], s["extrema_trace"]["max"])
assert len(t) <= 1000 and {len(v) for v in lists} == {len(t)}, sys.argv[1]
assert t[-1] == s["steps_taken"] * s["manifest"]["dt"], sys.argv[1]
every = -(-round(s["manifest"]["t_end"] / s["manifest"]["dt"]) // 999)
assert len(t) == 1 + -(-s["steps_taken"] // every), sys.argv[1]
' "$first/summary.json"
done

# Every JSON file written, reruns included, is strict JSON (RFC 8259): the
# parser refuses NaN, Infinity and -Infinity.
find "$root" -name '*.json' -print0 | xargs -0 python3 -c '
import json, sys
def refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        json.load(fh, parse_constant=refuse)
print(f"{len(sys.argv) - 1} JSON files parse as strict JSON")
'
