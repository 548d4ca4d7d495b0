#!/bin/sh
# One set of runs: ten untraced runs per workload at seeds 1-10, one
# workload after another, then one traced run per workload at seed 1.
#
#     sh bench/ten_seeds.sh OUTDIR [SECONDS]
#
# Run it from the repository root.  It writes the result line of every run
# to OUTDIR/<workload>.jsonl, the full output to OUTDIR/<workload>-<seed>.txt,
# a copy of bench/results/ to OUTDIR/results and how the set was run to
# OUTDIR/set.json; bench/summarize.py reads them.  About 27 minutes at
# SECONDS=32 (the default).
set -eu
out=$1
seconds=${2:-32}
workloads="deep-bracket exact-subset cli-sweep suites"
mkdir -p "$out"
rm -rf bench/results
for w in $workloads; do
  for s in 1 2 3 4 5 6 7 8 9 10; do
    python3 bench/run.py --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
      > "$out/$w-$s.txt"
    tail -n 1 "$out/$w-$s.txt" >> "$out/$w.jsonl"
  done
done
for w in $workloads; do
  python3 bench/run.py --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
    > "$out/$w-trace.txt"
done
cp -r bench/results "$out/results"
printf '{"seconds": %s, "order": "consecutive: ten seeds of one workload, then the next"}\n' \
  "$seconds" > "$out/set.json"
