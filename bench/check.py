"""Correctness check of one pass's observations against ``pins.json``.

Rules, per (fold, scale) result ``[lower, upper]``:

* a pinned exact count must lie inside the result, so an exact result
  must equal it and a bracket must contain it;
* otherwise the result must overlap the bracket pinned from the commit
  that introduced the benchmark, so a tighter correct bracket passes and
  a wrong one fails;
* a result pinned as ``exact`` must come back ``exact``, so an engine
  change that falls back to brackets fails the check, however cheap the
  brackets are.  A pinned bracket may come back exact.

Counts are written and hashed through ``hex()``: ``str()`` of a count
past 4,300 digits raises under Python's int-to-str limit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

DIMS_EXACT_FIELDS = ("fold", "scales", "deepest_scale", "predicted_max", "predicted_at_deepest")


def load_pins(path=PINS_PATH):
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["counts"] = {k: (int(lo, 16), int(up, 16)) for k, (lo, up) in raw["counts"].items()}
    raw["exact"] = {k: int(v, 16) for k, v in raw["exact"].items()}
    return raw


def check_count(key, lower, upper, mode, pins):
    """Failure messages for one result against its pins; empty when it passes."""
    if key not in pins["counts"]:
        return [f"{key}: no pinned result"]
    if not 1 <= lower <= upper:
        return [f"{key}: bracket [{hex(lower)}, {hex(upper)}] is empty"]
    if pins["modes"][key] == "exact" and mode != "exact":
        return [f"{key}: pinned exact, came back {mode}"]
    if mode == "exact" and lower != upper:
        return [f"{key}: exact result [{hex(lower)}, {hex(upper)}] is a bracket"]
    plo, pup = pins["counts"][key]
    exact = pins["exact"].get(key, plo if plo == pup else None)
    if exact is not None:
        if not lower <= exact <= upper:
            return [f"{key}: [{hex(lower)}, {hex(upper)}] misses the pinned count {hex(exact)}"]
    elif upper < plo or lower > pup:
        return [f"{key}: [{hex(lower)}, {hex(upper)}] misses the pinned bracket "
                f"[{hex(plo)}, {hex(pup)}]"]
    return []


def _check_dims(rows, want):
    msgs = []
    if sorted(rows) != sorted(want):
        return [f"dims folds {sorted(rows)} != {sorted(want)}"]
    for fold, row in rows.items():
        ref = want[fold]
        for name in DIMS_EXACT_FIELDS:
            if not math.isclose(row[name], ref[name], rel_tol=1e-12, abs_tol=1e-12):
                msgs.append(f"dims fold {fold}: {name} {row[name]} != {ref[name]}")
        if not (row["exp_lower_min"] <= row["exp_lower_max"] <= row["exp_upper_max"]
                and row["exp_lower_min"] <= row["exp_upper_min"] <= row["exp_upper_max"]):
            msgs.append(f"dims fold {fold}: exponent summary out of order")
        # each bracket overlaps its pinned one, so the summary can move
        # only inward from the pinned extremes
        if row["exp_lower_max"] > ref["exp_upper_max"] + 1e-9:
            msgs.append(f"dims fold {fold}: exp_lower_max above the pinned exp_upper_max")
        if row["exp_upper_min"] < ref["exp_lower_min"] - 1e-9:
            msgs.append(f"dims fold {fold}: exp_upper_min below the pinned exp_lower_min")
    return msgs


def check_call(call_id, obs, pins):
    """Failure messages for one call's observations; empty when it passes."""
    if obs.get("rc", 0) != 0:
        return [f"exit code {obs['rc']}"]
    want = pins["calls"].get(call_id)
    if want is None:
        return ["no pins for this call"]
    msgs = []
    counts = obs.get("counts", {})
    if sorted(counts) != sorted(want.get("counts", [])):
        msgs.append(f"result keys {sorted(counts)} != pinned {sorted(want.get('counts', []))}")
    for key, (lower, upper, mode) in counts.items():
        msgs += check_count(key, lower, upper, mode, pins)
    if "off" in want or "off" in obs:
        got = obs.get("off", {})
        if sorted(got) != sorted(want.get("off", [])):
            msgs.append("off scales differ from the pinned ones")
        msgs += [f"{k}: off {v} != pinned {pins['off'].get(k)}"
                 for k, v in got.items() if pins["off"].get(k) != v]
    for field in ("spec", "oracle", "suites"):
        if want.get(field) != obs.get(field):
            msgs.append(f"{field} {obs.get(field)} != pinned {want.get(field)}")
    if "dims" in want or "dims" in obs:
        msgs += _check_dims(obs.get("dims", {}), want.get("dims", {}))
    return msgs


def log2(n):
    """log2 of a positive integer of any size."""
    shift = max(n.bit_length() - 53, 0)
    return math.log2(n >> shift) + shift


def pass_stats(observations):
    """Deterministic summaries of one pass: result quality and output sizes.

    ``observations`` is a list of (call id, observation dict).
    """
    results = [(key, lo, up, mode) for _, obs in observations
               for key, (lo, up, mode) in obs.get("counts", {}).items()]
    widths = [(log2(up) - log2(lo)) / int(key.rsplit(":", 1)[1]) for key, lo, up, _ in results]
    digest = hashlib.sha256()
    for call_id, obs in sorted(observations, key=lambda item: item[0]):
        for key, (lo, up, mode) in sorted(obs.get("counts", {}).items()):
            digest.update(f"{call_id}|{key}|{hex(lo)}|{hex(up)}|{mode}\n".encode())
    suites = [s for _, obs in observations for s in obs.get("suites", {}).values()]
    return {
        "results": len(results),
        "exact_results": sum(1 for r in results if r[3] == "exact"),
        "bracket_exp_width": sum(widths) / len(widths) if widths else None,
        "count_digest": digest.hexdigest(),
        "out_bytes": sum(obs.get("bytes", 0) for _, obs in observations),
        "nonzero_exits": sum(1 for _, obs in observations if obs.get("rc", 0) != 0),
        "suite_cases": sum(s["cases"] for s in suites),
        "suite_failures": sum(s["failures"] for s in suites),
    }
