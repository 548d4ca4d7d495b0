"""Acceptance gate: eight end-to-end checks, one verdict line each.

Each test prints ``acceptance N (<label>): PASS|FAIL`` before asserting,
so the verdict survives in captured output either way.  Tolerances and
time budgets are asserted, not just measured.
"""

import itertools
import json
import math
import time
from fractions import Fraction

from sumdim.analysis import (
    count_trace,
    default_scales,
    log2_big,
    off_trace,
    predicted_exponent,
)
from sumdim.cli import main
from sumdim.constructions import (
    CONSTRUCTION_NAMES,
    BlockParams,
    DimensionTargets,
    build_canonical,
    build_example,
    chunk_symbols,
    interleave,
    make_scale_sequence,
    validate_targets,
)
from sumdim.engine import branching_min_average, brute_force_oracle, sum_prefix_counts
from sumdim.errors import AdmissibilityError
from sumdim.patterns import DigitPattern
from sumdim.plunnecke import cover_suite, prop31_suite, ruzsa_suite

F = Fraction


def _verdict(num, label, ok):
    print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# 1. counting engine == brute-force oracle on a broad generated corpus


_SCALED_SEQS = ((2, 4), (3, 3), (4, 3), (2, 5), (3, 4))

_CORPUS_TARGETS = {
    "pair-hausdorff": (
        DimensionTargets((F(1, 8), F(1, 4))),
        DimensionTargets((F(1, 4), F(1, 2))),
        DimensionTargets((F(1, 4), F(1, 4))),
        DimensionTargets((F(0), F(1, 2))),
    ),
    "triple-hausdorff": (
        DimensionTargets((F(1, 8), F(1, 4), F(3, 8))),
        DimensionTargets((F(1, 4), F(1, 4), F(1, 2))),
        DimensionTargets((F(0), F(1, 4), F(1, 2))),
    ),
    "haus-lowbox": (
        DimensionTargets((F(1, 8), F(1, 4)), (F(1, 4), F(1, 2))),
        DimensionTargets((F(1, 4), F(1, 2)), (F(1, 2), F(1))),
        DimensionTargets((F(1, 4), F(1, 4)), (F(1, 2), F(1, 2))),
    ),
    "all-dims-2": (
        DimensionTargets((F(1, 8), F(1, 4)), (F(1, 4), F(1, 2)), (F(3, 8), F(3, 4))),
        DimensionTargets((F(1, 8), F(1, 8)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2))),
        DimensionTargets((F(1, 4), F(1, 2)), (F(1, 2), F(1)), (F(1, 2), F(1))),
    ),
    "all-dims-3": (
        DimensionTargets(
            (F(1, 8), F(1, 4), F(3, 8)),
            (F(1, 4), F(1, 2), F(5, 8)),
            (F(1, 2), F(3, 4), F(7, 8)),
        ),
        DimensionTargets(
            (F(1, 8), F(1, 8), F(1, 8)),
            (F(1, 4), F(1, 4), F(1, 4)),
            (F(1, 2), F(1, 2), F(1, 2)),
        ),
        DimensionTargets(
            (F(1, 4), F(1, 4), F(1, 4)),
            (F(1, 4), F(1, 4), F(1, 4)),
            (F(1, 2), F(1, 2), F(1, 2)),
        ),
    ),
}


def _oracle_corpus():
    """Specs from all five families whose 3-fold enumeration fits 2^24."""
    specs = []
    for name in CONSTRUCTION_NAMES:
        for targets in _CORPUS_TARGETS[name]:
            for base, horizon in _SCALED_SEQS:
                seq = make_scale_sequence("scaled", horizon, base)
                try:
                    spec = build_example(name, targets, seq)
                except AdmissibilityError:
                    continue
                total = sum(1 << c.free_count() for c in spec.components)
                if total > 256:  # keeps total**3 <= 2^24, the oracle budget
                    continue
                specs.append(spec)
    return specs


def test_acceptance_1_oracle_equivalence():
    t0 = time.monotonic()
    specs = _oracle_corpus()
    constructions = {s.name for s in specs}
    mismatches = []
    for spec in specs:
        assert spec.depth <= 20
        scales = list(range(0, spec.depth + 1))
        for fold in (1, 2, 3):
            results = sum_prefix_counts(spec, fold, scales, mode="exact")
            for j in scales:
                want = brute_force_oracle(spec, fold, j).lower
                got = results[j].bracket
                if not (got.lower == got.upper == want):
                    mismatches.append((spec.name, fold, j, got, want))
    elapsed = time.monotonic() - t0
    ok = len(specs) >= 50 and constructions == set(CONSTRUCTION_NAMES) and \
        not mismatches and elapsed < 300
    _verdict(1, "oracle equivalence", ok)
    assert len(specs) >= 50, len(specs)
    assert constructions == set(CONSTRUCTION_NAMES)
    assert not mismatches, mismatches[:5]
    assert elapsed < 300, elapsed


# ---------------------------------------------------------------------------
# 2. block templates match an independent re-expansion for all k <= 64


_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def _template_by_positions(index, k, floors):
    """Re-expansion of the quoted templates from their free-position sets."""
    if index == 1:
        (a,) = floors
        free = set(range(1, a + 1))
    elif index == 2:
        a, b = floors
        free = set(range(b - a + 1, b + 1))
    else:
        a, b, c = floors
        free = set(range(b - a + 1, 2 * b - c + 1)) | set(range(b + 1, c + 1))
    return "".join("a" if i in free else "0" for i in range(1, k + 1))


def _grid_families(length):
    for fam in itertools.combinations_with_replacement(_GRID, length):
        if length == 3 and fam[2] > 2 * fam[1] - fam[0]:
            continue  # outside the sumset recursion: never generated
        yield fam


def test_acceptance_2_template_fidelity():
    checked = 0
    degenerate = 0
    for length in (2, 3):
        for fam in _grid_families(length):
            for k in range(1, 65):
                floors = tuple((k * x).__floor__() for x in fam)
                beta = BlockParams(k, *floors)
                gamma = BlockParams(
                    k, 0, p=floors[0], q=floors[1],
                    s=None, v=floors[2] if length == 3 else None,
                )
                for famname, params in (("beta", beta), ("gamma", gamma)):
                    for index in range(1, length + 1):
                        kind = f"{famname}{index}"
                        try:
                            got = chunk_symbols(kind, params)
                        except AdmissibilityError:
                            # only the floor inequality may fail, and only
                            # genuinely: c > a + b at this specific k
                            assert index == 3 and floors[2] > floors[0] + floors[1]
                            degenerate += 1
                            continue
                        want = _template_by_positions(index, k, floors[:index])
                        assert got == want, (kind, k, fam)
                        free = got.count("a")
                        assert F(free, k) == F(floors[0], k), (kind, k, fam)
                        checked += 1
    ok = checked > 0
    _verdict(2, "template fidelity", ok)
    assert checked >= 10000, checked
    assert degenerate > 0  # the grid does exercise the degenerate corner


# ---------------------------------------------------------------------------
# 3. measured brackets contain the schedule prediction (haus-lowbox)


def test_acceptance_3_bracket_containment():
    t0 = time.monotonic()
    spec = build_canonical("haus-lowbox")
    boundaries = tuple(b - 1 for b in spec.boundaries[1:])
    failures = []
    for fold in (1, 2):
        trace = count_trace(spec, fold, scales=boundaries)
        for e in trace.entries:
            p = float(e.predicted)
            if not e.exp_lower - 1e-12 <= p <= e.exp_upper + 1e-12:
                failures.append(("containment", fold, e.scale))
            if (e.exp_upper - e.exp_lower) / 2 > math.log2(6) / e.scale + 1e-12:
                failures.append(("half-width", fold, e.scale))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600
    _verdict(3, "bracket containment", ok)
    assert not failures, failures
    assert elapsed < 600, elapsed


# ---------------------------------------------------------------------------
# 4. target validator


def test_acceptance_4_target_validator():
    bad = validate_targets(
        DimensionTargets((F(1, 5), F(1, 2)), (F(1, 5), F(1, 2)))
    )
    good = validate_targets(
        DimensionTargets(
            (F(1, 4), F(1, 2), F(5, 8)), (F(1, 4), F(1, 2), F(5, 8))
        )
    )
    constants = [
        validate_targets(DimensionTargets((x, x, x), (x, x, x), (x, x, x)))
        for x in _GRID
    ]
    ok = (
        not bad.ok
        and "beta_2 <= 2*beta_1" in bad.violations
        and good.ok
        and all(rep.ok for rep in constants)
    )
    _verdict(4, "target validator", ok)
    assert not bad.ok
    assert "beta_2 <= 2*beta_1" in bad.violations
    assert good.ok, good.violations
    for rep in constants:
        assert rep.ok, rep.violations


# ---------------------------------------------------------------------------
# 5. minimal-branching traces are consistent and hit the schedule value


def _isolation_reference(spec, n):
    """Cheapest branching witness: ride one component out of the union.

    Pay every union-free digit until the chosen component's first free
    position, flip that digit to leave the other components, then pay
    only the component's own free digits.
    """
    union = 0
    for c in spec.components:
        union |= c.free_mask
    best = None
    for c in spec.components:
        own = c.free_mask >> (spec.depth - n)
        if own == 0:
            continue
        first = n - own.bit_length() + 1
        before = union >> (spec.depth - (first - 1)) if first > 1 else 0
        cost = before.bit_count() + 1 + (own.bit_count() - 1)
        if best is None or cost < best:
            best = cost
    return F(best, n)


def test_acceptance_5_off_consistency():
    failures = []
    for name in CONSTRUCTION_NAMES:
        spec = build_canonical(name)
        scales = default_scales(spec)
        offs = off_trace(spec, scales)
        upper = count_trace(spec, 1, scales=scales)
        for (n, off), e in zip(offs, upper.entries):
            if n * float(off) > log2_big(e.upper) + 1e-9:
                failures.append((name, n, off, e.upper))
    hl = build_canonical("haus-lowbox")
    pins = []
    for n, want in ((48, F(7, 48)), (99, F(4, 33))):
        got = branching_min_average(hl, [n])[n]
        ref = _isolation_reference(hl, n)
        pins.append((n, got, ref, want))
        if not got == ref == want:
            failures.append(("haus-lowbox pin", n, got, ref, want))
    ok = not failures
    _verdict(5, "branching consistency", ok)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 6. sumset inequality suites


def test_acceptance_6_plunnecke_suites():
    t0 = time.monotonic()
    reports = [
        ruzsa_suite(0),
        cover_suite(0),
        prop31_suite(0),
    ]
    elapsed = time.monotonic() - t0
    ok = all(r["ok"] for r in reports) and elapsed < 120
    _verdict(6, "sumset inequality suites", ok)
    for r in reports:
        assert r["ok"], (r["suite"], r["failures"][:3])
    assert reports[0]["cases"] == 2000
    assert reports[1]["cases"] == 500
    assert reports[2]["cases"] == 500
    assert elapsed < 120, elapsed


# ---------------------------------------------------------------------------
# 7. three-fold sums can exceed two-fold sums while folds 1 and 2 agree


def test_acceptance_7_fold3_excess():
    scales = make_scale_sequence("scaled", 240, 4)
    prime = build_example(
        "all-dims-3",
        DimensionTargets(
            (F(1, 4), F(1, 2), F(5, 8)),
            (F(1, 4), F(1, 2), F(5, 8)),
            (F(1, 4), F(1, 2), F(3, 4)),
        ),
        scales,
    )
    flat = build_example(
        "all-dims-3",
        DimensionTargets(
            (F(1, 2), F(1, 2), F(1, 2)),
            (F(1, 2), F(1, 2), F(1, 2)),
            (F(1, 2), F(1, 2), F(1, 2)),
        ),
        scales,
    )
    spec = interleave(prime, flat, (1, 22, 72, 241))
    depth = spec.depth
    probes = sorted(
        {scales.start(k) - 1 for k in (22, 47, 72, 160, 200)} | {depth}
    )
    upper = {}
    for fold, js in ((1, probes), (2, probes), (3, [depth])):
        res = sum_prefix_counts(spec, fold, js, mode="bracket")
        upper[fold] = {j: log2_big(res[j].bracket.upper) / j for j in js}
    gap = upper[3][depth] - upper[2][depth]
    diff = abs(max(upper[1].values()) - max(upper[2].values()))
    ok = gap >= 0.15 and diff <= 0.05
    _verdict(7, "fold-3 excess", ok)
    assert gap >= 0.15, gap
    assert diff <= 0.05, diff


# ---------------------------------------------------------------------------
# 8. byte-identical outputs for identical config and seed


def test_acceptance_8_determinism(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "construction": "haus-lowbox",
                "alpha": ["1/4", "1/2"],
                "beta": ["1/2", "1"],
                "scale_policy": "scaled",
                "scale_base": 8,
                "horizon": 12,
                "folds": [1, 2],
                "seed": 0,
            }
        )
    )
    commands = {
        "spec.json": ["construct", "--config", str(cfg)],
        "counts.csv": ["count", "--config", str(cfg), "--fold", "2"],
        "dims.json": ["dims", "--config", str(cfg)],
        "off.csv": ["off", "--config", str(cfg)],
        "plun.json": ["plunnecke", "--config", str(cfg)],
    }
    mismatched = []
    for fname, argv in commands.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run / fname
            out.parent.mkdir(exist_ok=True)
            rc = main(argv + ["--out", str(out)])
            assert rc == 0, (fname, rc)
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatched.append(fname)
    ok = not mismatched
    _verdict(8, "deterministic outputs", ok)
    assert not mismatched, mismatched
