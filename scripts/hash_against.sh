#!/usr/bin/env bash
# Check that this tree's src/ gives the bits of REV's src/ on every run of
# scripts/hash_runs.py, under one and under two OpenBLAS threads.
#
#   bash scripts/hash_against.sh REV
#
# Run it from the root of a checkout.  REV's src/ is unpacked with
# `git archive` into a temporary directory, which is removed on exit; the
# repository is only read.  This tree's scripts/hash_runs.py then runs
# against both sources.  Prints the four lines and exits 1 if they do not
# all agree, after naming each case whose hash differs from that of REV
# under one thread.
set -eo pipefail
rev=${1:?usage: scripts/hash_against.sh REV}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" src | tar -x -C "$tmp"

lines=()
names=()
for threads in 1 2; do
  for side in "$rev=$tmp/src" "this tree=$PWD/src"; do
    name="${side%=*}, $threads thread(s)"
    line=$(PYTHONPATH=${side##*=} OPENBLAS_NUM_THREADS=$threads python3 scripts/hash_runs.py --cases "$tmp/cases.${#lines[@]}")
    echo "$name: $line"
    lines+=("$line")
    names+=("$name")
  done
done
if [ "$(printf '%s\n' "${lines[@]}" | sort -u | wc -l)" -ne 1 ]; then
  # Both listings come from this tree's script: the same cases, in order.
  for i in 1 2 3; do
    awk -v name="${names[i]}" 'NR == FNR { want[FNR] = $NF; next }
      $NF != want[FNR] { sub(/ [0-9a-f]+$/, ""); print name " differs on case " $0 }' "$tmp/cases.0" "$tmp/cases.$i"
  done
  echo "mismatch" >&2
  exit 1
fi
