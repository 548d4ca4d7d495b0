"""Regenerate ``pins.json``: ``python3 bench/pin.py``.

Run it only at a commit whose counts are trusted; the pins in the repo
come from the commit that introduced the benchmark.  It runs every
workload once at seed 0 and records every result and its mode (``exact``,
``bracket`` or ``bracket-fallback``).  Then, for each result
that came back as a bracket, it computes the exact count in exact mode
with the default state budget and pins that too, so the check can demand
containment instead of overlap.  That takes about 20 minutes on a 2-vCPU
Xeon VM, most of it ``deep-bracket`` fold 2; fold 3 of ``deep-bracket`` is
left out, because its exact count is out of reach.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import workloads  # noqa: E402

NO_EXACT = {("deep", 3)}  # (label, fold) whose exact counts are out of reach


def record_workloads(workdir):
    """Pins from one seed-0 pass of every workload, and each count key's spec."""
    pins = {"calls": {}, "counts": {}, "exact": {}, "modes": {}, "off": {}}
    specs = {}
    for name in workloads.NAMES:
        for call in workloads.SETUP[name](0, workdir):
            with contextlib.redirect_stdout(io.StringIO()):
                obs = workloads.observe(call, call.function()(*call.args, **call.kwargs))
            if obs.get("rc", 0) != 0:
                sys.exit(f"{call.id} exited {obs['rc']}; nothing pinned")
            want = {k: v for k, v in obs.items() if k not in ("rc", "bytes")}
            counts = want.pop("counts", {})
            want["counts"] = sorted(counts)
            for key, (lo, up, mode) in counts.items():
                # a library call's first argument is its spec; a CLI count names the spec file
                argv = call.args[0]
                source = argv if call.out is None else argv[argv.index("--set") + 1]
                pins["counts"][key] = [hex(lo), hex(up)]
                pins["modes"][key] = mode
                specs[key] = source
            if "off" in want:
                pins["off"].update(want["off"])
                want["off"] = sorted(want["off"])
            pins["calls"][call.id] = want
    bad = [cid for cid, want in pins["calls"].items()
           if "oracle" in want and want["oracle"]["verdict"] != "verdict: MATCH"
           or any(not s["ok"] for s in want.get("suites", {}).values())]
    if bad:
        sys.exit(f"oracle or suite failures in {bad}; nothing pinned")
    return pins, specs


def pin_exact(pins, specs):
    """Exact counts for every result that is a bracket, where reachable."""
    import sumdim
    from sumdim.cli import load_spec

    todo = {}
    for key, (lo, up) in pins["counts"].items():
        label, fold, scale = key.rsplit(":", 2)
        if lo != up and (label, int(fold)) not in NO_EXACT:
            todo.setdefault((label, int(fold)), []).append((int(scale), key))
    for (label, fold), items in sorted(todo.items()):
        source = specs[items[0][1]]
        spec = load_spec(source) if isinstance(source, str) else source
        res = sumdim.sum_prefix_counts(spec, fold, [j for j, _ in items], mode="exact")
        for j, key in items:
            r = res[j]
            if r.fell_back:
                print(f"{key}: no exact count within the default budget")
                continue
            pins["exact"][key] = hex(r.bracket.lower)
            lo, up = (int(x, 16) for x in pins["counts"][key])
            if not lo <= r.bracket.lower <= up:
                sys.exit(f"{key}: the bracket misses the exact count; nothing pinned")
        print(f"{label} fold {fold}: {len(items)} exact counts", flush=True)


def main():
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        pins, specs = record_workloads(workdir)
        pin_exact(pins, specs)
    with open(check.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins['calls'])} calls, {len(pins['counts'])} results, "
          f"{len(pins['exact'])} exact counts for brackets")


if __name__ == "__main__":
    main()
