"""Summarize sets of runs into a baseline file.

    python3 bench/summarize.py OUT.json BASELINE_SET [OTHER_SET ...] [--earlier OLD.json]

Each set is a directory that ``ten_seeds.sh`` wrote: ``set.json`` (how the
set was run), ``<workload>.jsonl`` (the result line of each run) and
``results/`` (the records ``run.py`` wrote).  For every set, OUT.json
records the median and spread of each end-to-end metric per workload, so
that every set made is reported, not only a calm one.  For the baseline
set it also records the median and quartiles of the printed figures and
the per-layer metrics of its traced runs.  The spread is the interquartile
range as a share of the median, as ``statistics.quantiles(values, n=4)``
gives the quartiles.  With ``--earlier``, the sets recorded in an older
baseline file are kept under ``earlier_sets``, so no set made is dropped
when the harness changes.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def describe(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def summarize_set(set_dir):
    """Per-workload medians and spreads of the result lines of one set."""
    with open(os.path.join(set_dir, "set.json"), encoding="utf-8") as fh:
        entry = {"name": os.path.basename(os.path.normpath(set_dir)), **json.load(fh)}
    entry["workloads"] = {}
    for path in sorted(glob.glob(os.path.join(set_dir, "*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(ln) for ln in fh if ln.strip()]
        metrics = lines[0]["metrics"]
        entry["workloads"][os.path.basename(path)[:-len(".jsonl")]] = {
            "runs": len(lines),
            "correct": all(ln["correct"] for ln in lines),
            **{name: describe([ln["metrics"][name]["value"] for ln in lines]) for name in metrics},
        }
    return entry


def detail(results_dir):
    """Every metric, printed figure and per-layer metric of one set's records."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs.setdefault(rec["args"]["workload"], []).append(rec)
    doc = {}
    for workload, recs in sorted(runs.items()):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            chosen = [r for r in recs if r["args"]["trace"] == trace]
            if not chosen:
                continue
            entry[key] = {
                name: {"unit": m["unit"],
                       **describe([r["metrics"][name]["value"] for r in chosen])}
                for name, m in chosen[0]["metrics"].items()
            }
            entry[key + "_printed"] = {
                name: describe([r["printed"][name] for r in chosen])
                for name, value in chosen[0]["printed"].items() if value is not None
            }
            entry[key + "_seeds"] = sorted(r["args"]["seed"] for r in chosen)
            entry[key + "_failed"] = sum(
                len(p["failures"]) for r in chosen for p in r["passes"] + r["reference"])
        doc[workload] = entry
    return doc, recs[0]


def main(out_path, set_dirs, earlier=None):
    workloads, rec = detail(os.path.join(set_dirs[0], "results"))
    doc = {
        "python": rec["python"],
        "nproc": rec["nproc"],
        "run_seconds": rec["args"]["seconds"],
        "baseline_set": os.path.basename(os.path.normpath(set_dirs[0])),
        "workloads": workloads,
        "sets": [summarize_set(d) for d in set_dirs],
    }
    if earlier:
        with open(earlier, encoding="utf-8") as fh:
            old = json.load(fh)
        doc["earlier_sets"] = old.get("earlier_sets", []) + old["sets"]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    argv = sys.argv[1:]
    earlier = None
    if "--earlier" in argv:
        i = argv.index("--earlier")
        earlier = argv[i + 1]
        del argv[i:i + 2]
    if len(argv) < 2:
        sys.exit("usage: python3 bench/summarize.py OUT.json BASELINE_SET [OTHER_SET ...] "
                 "[--earlier OLD.json]")
    main(argv[0], argv[1:], earlier)
