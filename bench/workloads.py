"""The benchmark's four workloads, driven through the package's public API.

Each workload has a set-up that imports ``sumdim`` and builds (or
writes) its inputs from the workload seed, and returns the ordered list
of top-level calls that make one pass.  ``observe`` turns a call's
return value (and, for CLI commands, its output file) into plain
observations that ``check.py`` compares with the pins.

Why these four, and what each exercises or bypasses, is in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

NAMES = ("deep-bracket", "exact-subset", "cli-sweep", "suites")

# acceptance 7's two all-dims-3 halves, interleaved at blocks 22 and 72
PRIME_TARGETS = (("1/4", "1/2", "5/8"), ("1/4", "1/2", "5/8"), ("1/4", "1/2", "3/4"))
FLAT_TARGETS = (("1/2",) * 3,) * 3
DEEP_HORIZON = 120
DEEP_MARKS = (1, 22, 72, DEEP_HORIZON + 1)
DEEP_PROBE_BLOCKS = (22, 47, 72)

EXACT_BUDGET = 4096  # fold 3 at scale 102 peaks at 3,489 states, then overflows

# acceptance 8's haus-lowbox config and the CLI tests' small one
CLI_CONFIGS = {
    "pair-hausdorff": {"construction": "pair-hausdorff"},
    "triple-hausdorff": {"construction": "triple-hausdorff"},
    "haus-lowbox": {"construction": "haus-lowbox"},
    "all-dims-2": {"construction": "all-dims-2"},
    "all-dims-3": {"construction": "all-dims-3"},
    "haus-lowbox-acc8": {
        "construction": "haus-lowbox",
        "alpha": ["1/4", "1/2"],
        "beta": ["1/2", "1"],
        "scale_policy": "scaled",
        "scale_base": 8,
        "horizon": 12,
        "folds": [1, 2],
        "seed": 0,
    },
    "small": {
        "construction": "haus-lowbox",
        "alpha": ["1/4", "1/2"],
        "beta": ["1/2", "1"],
        "scale_policy": "scaled",
        "scale_base": 4,
        "horizon": 3,
    },
}
SHALLOW_CHUNKED = ("haus-lowbox", "haus-lowbox-acc8", "all-dims-2", "all-dims-3")
ORACLE_CONFIG = "small"
ORACLE_FOLDS = (1, 2, 3)

# The suite seed is fixed: 500 cover cases cost 10-20% more or less from
# one suite seed to the next, more than the bound on run_s.
SUITE_SEED = 0


@dataclasses.dataclass
class Call:
    """One top-level call: the unit of latency, failure and checking."""

    id: str  # stable across seeds; pins are keyed by it
    span: str  # span name of the call in a traced pass
    target: tuple  # (module, attribute), looked up when the call runs
    args: tuple
    kwargs: dict = dataclasses.field(default_factory=dict)
    label: str = ""  # prefix of the count keys this call produces
    out: str | None = None  # CLI output file

    def function(self):
        """The target as bound when the call runs (traced or not)."""
        return getattr(sys.modules[self.target[0]], self.target[1])


def shuffled(spec, seed):
    """The same spec with its component order shuffled by ``seed``.

    Counts, brackets and peak-state counts do not depend on component
    order, so every seed has the same expected values.
    """
    order = list(range(len(spec.components)))
    random.Random(seed).shuffle(order)
    changes = {"components": tuple(spec.components[i] for i in order)}
    if len(spec.schedule) == len(order):
        changes["schedule"] = tuple(spec.schedule[i] for i in order)
    return dataclasses.replace(spec, **changes)


def _targets(sumdim, fams):
    return sumdim.DimensionTargets(*(tuple(Fraction(x) for x in fam) for fam in fams))


def setup_deep_bracket(seed, workdir):
    import sumdim

    scales = sumdim.make_scale_sequence("scaled", DEEP_HORIZON, 4)
    prime = sumdim.build_example("all-dims-3", _targets(sumdim, PRIME_TARGETS), scales)
    flat = sumdim.build_example("all-dims-3", _targets(sumdim, FLAT_TARGETS), scales)
    spec = shuffled(sumdim.interleave(prime, flat, DEEP_MARKS), seed)
    probes = sorted({scales.start(k) - 1 for k in DEEP_PROBE_BLOCKS} | {spec.depth})
    plan = ((1, probes), (2, probes), (3, [spec.depth]))
    return [
        Call(f"deep:fold{fold}", "engine.sum_prefix_counts",
             ("sumdim.engine", "sum_prefix_counts"), (spec, fold, js),
             {"mode": "bracket"}, label="deep")
        for fold, js in plan
    ]


def setup_exact_subset(seed, workdir):
    import sumdim

    spec = shuffled(sumdim.build_canonical("all-dims-3"), seed)
    plan = (
        ("fold2", (spec, 2), {"scales": "boundaries"}),
        ("fold3-56", (spec, 3), {"scales": [56]}),
        ("fold3-102", (spec, 3), {"scales": [spec.depth], "state_budget": EXACT_BUDGET}),
    )
    return [
        Call(f"exact:{name}", "analysis.count_trace", ("sumdim.analysis", "count_trace"),
             args, {**kwargs, "mode": "exact"}, label="exact")
        for name, args, kwargs in plan
    ]


def _cli(call_id, argv, out, label=""):
    return Call(call_id, "cli.main", ("sumdim.cli", "main"), (argv + ["--out", out],),
                label=label, out=out)


def setup_cli_sweep(seed, workdir):
    import sumdim.cli  # noqa: F401  (set-up pays the import, as a user's first command does)

    names = list(CLI_CONFIGS)
    random.Random(seed).shuffle(names)
    calls = []
    for name in names:
        cfg = os.path.join(workdir, f"{name}.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(CLI_CONFIGS[name], fh)
        spec = os.path.join(workdir, f"{name}.spec.json")
        reuse = ["--config", cfg, "--set", spec]

        def add(suffix, argv):
            out = os.path.join(workdir, f"{name}.{suffix}.out".replace(":", "."))
            calls.append(_cli(f"cli:{name}:{suffix}", argv, out, label=name))

        calls.append(_cli(f"cli:{name}:construct", ["construct", "--config", cfg], spec))
        for fold in (1, 2):
            add(f"count:{fold}", ["count", *reuse, "--fold", str(fold)])
        add("dims", ["dims", *reuse])
        add("off", ["off", *reuse])
        if name in SHALLOW_CHUNKED:
            add("count:2:all", ["count", *reuse, "--fold", "2", "--scales", "all"])
            add("off:all", ["off", *reuse, "--scales", "all"])
        if name == ORACLE_CONFIG:
            for fold in ORACLE_FOLDS:
                add(f"oracle:{fold}", ["oracle", *reuse, "--fold", str(fold), "--scales", "all"])
    return calls


def setup_suites(seed, workdir):
    import sumdim.cli  # noqa: F401

    out = os.path.join(workdir, "plunnecke.out")
    return [_cli("suites:plunnecke", ["plunnecke", "--seed", str(SUITE_SEED)], out)]


SETUP = {
    "deep-bracket": setup_deep_bracket,
    "exact-subset": setup_exact_subset,
    "cli-sweep": setup_cli_sweep,
    "suites": setup_suites,
}


# ---------------------------------------------------------------------------
# observations


def _counts_from_engine(call, results):
    fold = call.args[1]
    return {
        f"{call.label}:{fold}:{j}": (r.bracket.lower, r.bracket.upper,
                                     "bracket-fallback" if r.fell_back else r.mode)
        for j, r in results.items()
    }


def _counts_from_trace(call, trace):
    return {
        f"{call.label}:{e.fold}:{e.scale}": (e.lower, e.upper, e.mode) for e in trace.entries
    }


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def observe(call, result):
    """Plain observations of one call's outcome, for checking and pinning."""
    if call.target[1] == "sum_prefix_counts":
        return {"counts": _counts_from_engine(call, result)}
    if call.target[1] == "count_trace":
        return {"counts": _counts_from_trace(call, result)}
    obs = {"rc": result}
    if result != 0:
        return obs
    with open(call.out, encoding="utf-8") as fh:
        text = fh.read()
    obs["bytes"] = len(text.encode())
    kind = call.args[0][0]  # the CLI subcommand
    if kind == "construct":
        spec = json.loads(text)["spec"]
        comps = sorted(spec["components"])
        obs["spec"] = {
            "depth": spec["depth"],
            "components": len(comps),
            "sha256": hashlib.sha256("\n".join(comps).encode()).hexdigest(),
        }
    elif kind == "count":
        obs["counts"] = {
            f"{call.label}:{row['fold']}:{row['j']}": (int(row["lower"]), int(row["upper"]),
                                                       row["mode"])
            for row in _csv_rows(text)
        }
    elif kind == "off":
        obs["off"] = {
            f"{call.label}:{row['n']}": f"{row['off_num']}/{row['off_den']}"
            for row in _csv_rows(text)
        }
    elif kind == "dims":
        doc = json.loads(text)
        obs["dims"] = {str(row["fold"]): row for row in doc["folds"]}
    elif kind == "oracle":
        lines = text.splitlines()
        obs["oracle"] = {
            "verdict": lines[-1],
            "scales": sum(1 for ln in lines if ln.startswith("j=")),
            "matches": sum(1 for ln in lines if ln.startswith("j=") and ln.endswith(" MATCH")),
        }
    elif kind == "plunnecke":
        doc = json.loads(text)
        obs["suites"] = {
            rep["suite"]: {"cases": rep["cases"], "failures": len(rep["failures"]),
                           "ok": rep["ok"]}
            for rep in doc["reports"]
        }
    return obs
