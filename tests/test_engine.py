"""Counting engine vs the definitional brute-force oracle."""

import collections
import dataclasses
import random
import types
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdim import engine
from sumdim.analysis import count_trace, predicted_exponent, resolve_scales
from sumdim.constructions import (
    CANONICAL_EXAMPLES,
    DimensionTargets,
    build_canonical,
    build_example,
    build_from_keys,
    interleave,
    make_scale_sequence,
)
from sumdim.engine import (
    CellCountBracket,
    _absorb_run,
    _antichain,
    _carry_tables,
    _carry_values_mask,
    _combos,
    _initial_carry_masks,
    _lane_order,
    _lone_counts,
    _run_rule,
    _segments,
    _slice_moves,
    _stretch_plan,
    branching_min_average,
    brute_force_oracle,
    iterated_pattern_sums,
    sum_prefix_counts,
    undominated_masks,
)
from sumdim.errors import BudgetExceededError, ScaleError
from sumdim.patterns import DigitPattern, SetSpec

from helpers import (
    _run_steps,
    free_count_runs,
    from_rows,
    lane_major_count_outputs,
    lane_major_prefix_counts,
    lone_setup,
    matrix_times,
    per_position_branching_min_average,
    per_position_carry_masks,
    per_position_columns,
    run_stepped_lone_counts,
    transfer_power,
    unpruned_count_outputs,
    unpruned_prefix_counts,
)
from test_acceptance import _oracle_corpus


def all_free(depth):
    return from_rows(["a" * depth])


def test_bracket_invariants():
    b = CellCountBracket(3, 7)
    assert b.lower != b.upper
    b = CellCountBracket(4, 4)
    assert b.lower == b.upper
    with pytest.raises(ValueError):
        CellCountBracket(5, 4)
    with pytest.raises(ValueError):
        CellCountBracket(0, 4)


def test_single_free_component_fold2_doubles_per_scale():
    # sums of two length-N free words fill every aligned window: 2^j cells
    spec = all_free(8)
    for j in range(0, 9):
        r = sum_prefix_counts(spec, 2, [j])[j]
        assert r.bracket.lower == r.bracket.upper == 1 << j


def test_single_free_component_fold3_closed_form():
    # 3-fold sums are 0..3*(2^N - 1); scale-j windows keep the top j-2 digit
    # pairs plus the carry, giving floor(M / 2^(N+2-j)) + 1 distinct values
    spec = all_free(7)
    top = 3 * ((1 << 7) - 1)
    for j in range(0, 8):
        r = sum_prefix_counts(spec, 3, [j])[j]
        want = (top >> (7 + 2 - j)) + 1
        assert r.bracket.lower == r.bracket.upper == want


def test_deep_tail_stays_invisible_at_shallow_scales():
    spec = from_rows(["0" * 8 + "aa"])
    for fold in (1, 2, 3):
        for j in range(0, 5):
            r = sum_prefix_counts(spec, fold, [j])[j]
            assert r.bracket.lower == r.bracket.upper == 1, (fold, j)


def test_fold1_counts_equal_prefix_counts():
    spec = from_rows(["a0a0aa", "0aa00a", "aaa000"])
    for j in range(0, 7):
        r = sum_prefix_counts(spec, 1, [j])[j]
        assert r.bracket == brute_force_oracle(spec, 1, j)


def test_oracle_agrees_on_mixed_spec():
    spec = from_rows(["a00a0a", "0aaa00"])
    for fold in (1, 2, 3):
        for j in range(0, 7):
            got = sum_prefix_counts(spec, fold, [j])[j].bracket
            want = brute_force_oracle(spec, fold, j)
            assert got == want, (fold, j)


@st.composite
def small_specs(draw, max_rows=3, max_free=6):
    # at most 3 rows of 6 free positions keeps the 3-fold enumeration
    # (sum of 2^frees, cubed) inside the default oracle budget
    depth = draw(st.integers(4, 11))
    ncomp = draw(st.integers(1, max_rows))
    rows = []
    for _ in range(ncomp):
        frees = draw(st.sets(st.integers(0, depth - 1), max_size=max_free))
        rows.append("".join("a" if i in frees else "0" for i in range(depth)))
    return from_rows(rows)


@st.composite
def specs_with_fold(draw):
    fold = draw(st.integers(1, 5))
    # folds 4-5 stay inside the oracle budget with 2 rows of 3 free positions
    spec = draw(small_specs() if fold <= 3 else small_specs(max_rows=2, max_free=3))
    return spec, fold


@given(specs_with_fold())
@settings(max_examples=80, deadline=None)
def test_exact_mode_matches_oracle_everywhere(spec_fold):
    spec, fold = spec_fold
    scales = list(range(0, spec.depth + 1))
    results = sum_prefix_counts(spec, fold, scales, mode="exact")
    sums = iterated_pattern_sums(spec, fold)
    width = (fold - 1).bit_length()
    for j in scales:
        got = results[j].bracket
        want = len({y >> (spec.depth + width - j) for y in sums})
        assert got.lower == got.upper == want, j


@given(specs_with_fold())
@settings(max_examples=50, deadline=None)
def test_bracket_mode_contains_exact_count(spec_fold):
    spec, fold = spec_fold
    scales = list(range(1, spec.depth + 1))
    brackets = sum_prefix_counts(spec, fold, scales, mode="bracket")
    exacts = sum_prefix_counts(spec, fold, scales, mode="exact")
    for j in scales:
        b = brackets[j].bracket
        e = exacts[j].bracket.lower
        assert b.lower <= e <= b.upper, j


@given(small_specs(max_rows=1, max_free=4), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_bracket_mode_is_exact_on_one_component(spec, fold):
    # a single combination: each per-combination count is the union's
    scales = list(range(0, spec.depth + 1))
    results = sum_prefix_counts(spec, fold, scales, mode="bracket")
    for j in scales:
        assert results[j].bracket == brute_force_oracle(spec, fold, j), j


@st.composite
def specs_with_redundant_rows(draw):
    # the spec, and the spec plus a duplicate of one component and a strict
    # submask of another (strict unless that component has no free digit)
    spec, fold = draw(specs_with_fold())
    comps = spec.components
    dup = draw(st.sampled_from(comps))
    host = draw(st.sampled_from(comps)).free_mask
    sub = host & draw(st.integers(0, host))
    if sub == host:
        sub &= sub - 1
    padded = SetSpec(comps + (dup, DigitPattern(spec.depth, sub)), spec.depth)
    return spec, padded, fold


@given(specs_with_redundant_rows())
@settings(max_examples=60, deadline=None)
def test_dominated_components_change_no_result(case):
    spec, padded, fold = case
    scales = list(range(0, spec.depth + 1))
    for mode in ("exact", "bracket"):
        want = sum_prefix_counts(spec, fold, scales, mode=mode)
        got = sum_prefix_counts(padded, fold, scales, mode=mode)
        for j in scales:
            assert (got[j].bracket, got[j].mode) == (want[j].bracket, want[j].mode), (mode, j)
            if mode == "exact":
                assert got[j].bracket == brute_force_oracle(padded, fold, j), j


def per_position_lone_counts(spec, fold, scales):
    """{scale: [count]}: each combination alone through the per-position kernel."""
    masks, combos, shifts = lone_setup(spec, fold, scales)
    tops = sorted({e for e, _ in shifts.values()}, reverse=True)
    out = {j: [] for j in scales}
    for column in per_position_columns(masks, spec.depth, combos):
        init = per_position_carry_masks(column, fold, tops)
        for j, (e, shift) in shifts.items():
            count, _ = unpruned_count_outputs([column], e, [init[e]], fold, shift, 1 << fold)
            out[j].append(count)
    return out


def test_runs_cover_the_depth_with_each_columns_counts():
    spec = from_rows(["aa00a0aaa", "0aaa00a0a", "a0000a00a"])
    masks, combos, _ = lone_setup(spec, 3, [])
    columns = per_position_columns(masks, spec.depth, combos)
    runs = free_count_runs(_segments(masks, spec.depth, combos))
    for (starts, counts), column in zip(runs, columns, strict=True):
        assert starts[0] == 1 and starts[-1] == spec.depth + 1
        assert all(a != b for a, b in zip(counts, counts[1:]))  # adjacent runs differ
        for i, f in enumerate(counts):
            assert set(column[starts[i]:starts[i + 1]]) == {f}


@given(specs_with_fold())
@settings(max_examples=80, deadline=None)
def test_run_stepping_matches_the_per_position_kernel(spec_fold):
    spec, fold = spec_fold
    scales = list(range(0, spec.depth + 1))
    assert run_stepped_lone_counts(spec, fold, scales) == per_position_lone_counts(
        spec, fold, scales
    )


@given(small_specs(max_rows=1, max_free=4), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_run_stepping_matches_the_oracle_on_one_component(spec, fold):
    scales = list(range(0, spec.depth + 1))
    got = run_stepped_lone_counts(spec, fold, scales)
    for j in scales:
        assert got[j] == [brute_force_oracle(spec, fold, j).lower], j


def test_run_stepping_matches_the_per_position_kernel_on_the_oracle_corpus():
    specs = _oracle_corpus()
    assert len(specs) == 57
    for spec in specs:
        scales = list(range(0, spec.depth + 1))
        for fold in (1, 2, 3):
            want = per_position_lone_counts(spec, fold, scales)
            assert run_stepped_lone_counts(spec, fold, scales) == want, (spec.name, fold)


def shared_walk_lone_counts(spec, fold, scales):
    """{scale: [count]}: each combination alone, one shared walk per call."""
    masks, combos, shifts = lone_setup(spec, fold, scales)
    out = {j: [] for j in scales}
    tops = sorted({e for e, _ in shifts.values()}, reverse=True)
    starts, columns = _segments(masks, spec.depth, combos)
    positive = [e for e in tops if e]
    plan = _stretch_plan(starts, positive)
    rows = {}
    for column in columns:
        init = _initial_carry_masks(starts, column, fold, tops)
        lone = dict(zip(positive, _lone_counts(starts, column, plan, init, fold, rows)))
        for j, (e, shift) in shifts.items():
            out[j].append(lone[e] if e else _carry_values_mask(init[0], shift).bit_count())
    return out


def reference_brackets(spec, fold, scales, lone=None):
    """{scale: bracket}: [max, min(sum, sup)] over the per-scale reference walks.

    ``lone``, if given, is ``run_stepped_lone_counts(spec, fold, scales)``.
    """
    width = (fold - 1).bit_length()
    return {
        j: CellCountBracket(max(counts), min(sum(counts), ((fold << j) >> width) + 1))
        for j, counts in (lone or run_stepped_lone_counts(spec, fold, scales)).items()
    }


# block sizes for the lone walk's row memo: small ones make small specs hold
# whole blocks, partial pieces at both ends of a stretch and vectors of two
# or more carry sets entering a block
BLOCK_SIZES = (1, 2, 3, engine.BLOCK_SEGMENTS)


@given(specs_with_fold(), st.data())
@settings(max_examples=80, deadline=None)
def test_shared_walk_matches_per_scale_walks(spec_fold, data):
    # random scale subsets, with duplicates, scale 0, and at folds 3-5
    # several scales that share emit position 0
    spec, fold = spec_fold
    scales = data.draw(st.lists(st.integers(0, spec.depth), min_size=1, max_size=12))
    lone = run_stepped_lone_counts(spec, fold, scales)
    want = reference_brackets(spec, fold, scales, lone)
    for block in BLOCK_SIZES:
        with mock.patch.object(engine, "BLOCK_SEGMENTS", block):
            assert shared_walk_lone_counts(spec, fold, scales) == lone, block
            got = sum_prefix_counts(spec, fold, scales, mode="bracket")
            assert list(got) == sorted(set(scales))
            for j, bracket in want.items():
                assert got[j] == sum_prefix_counts(spec, fold, [j], mode="bracket")[j], (block, j)
                assert (got[j].bracket, got[j].mode, got[j].peak_states) == (bracket, "bracket", 0)
                assert not got[j].fell_back


def check_shared_walk(spec, fold, step=1):
    """One bracket call over every scale against the per-scale references.

    Every step-th scale, and the depth, is checked: each combination's
    count against its run-stepped walk from that scale, and the call's
    result against a call for that scale alone and the reference bracket.
    Over every scale most stretches are one position long, so they lie
    inside one run.
    """
    scales = range(0, spec.depth + 1)
    checked = [*scales[::step], spec.depth]
    got = sum_prefix_counts(spec, fold, scales, mode="bracket")
    shared = shared_walk_lone_counts(spec, fold, scales)
    lone = run_stepped_lone_counts(spec, fold, checked)
    want = reference_brackets(spec, fold, checked, lone)
    for j in checked:
        alone = sum_prefix_counts(spec, fold, [j], mode="bracket")[j]
        assert shared[j] == lone[j], (spec.name, fold, j)
        assert got[j] == alone, (spec.name, fold, j)
        assert alone.bracket == want[j], (spec.name, fold, j)


def test_shared_walk_matches_per_scale_walks_on_the_oracle_corpus():
    for spec in _oracle_corpus():
        for fold in (1, 2, 3):
            check_shared_walk(spec, fold)
            # every third scale in blocks of 1 and 2 segments: stretches of
            # three positions hold whole blocks and partial pieces at both ends
            scales = range(spec.depth, -1, -3)
            lone = run_stepped_lone_counts(spec, fold, scales)
            want = reference_brackets(spec, fold, scales, lone)
            for block in (1, 2):
                with mock.patch.object(engine, "BLOCK_SEGMENTS", block):
                    assert shared_walk_lone_counts(spec, fold, scales) == lone, (spec.name, block)
                    got = sum_prefix_counts(spec, fold, scales, mode="bracket")
                    assert {j: r.bracket for j, r in got.items()} == want, (spec.name, block)


@pytest.mark.parametrize("name", sorted(CANONICAL_EXAMPLES))
def test_shared_walk_matches_per_scale_walks_on_the_canonical_specs(name):
    # every scale in one call at folds 1-3; the per-scale references check
    # every scale at folds 1-2 and every seventh at fold 3, and on the two
    # deep hausdorff specs every 31st of those, as each costs a walk from
    # its scale down
    spec = build_canonical(name)
    step = 31 if spec.depth > 1000 else 1
    for fold in (1, 2, 3):
        check_shared_walk(spec, fold, 7 * step if fold == 3 else step)


@pytest.mark.parametrize("budget", [3, 6])
def test_exact_fallbacks_match_per_scale_walks_on_the_oracle_corpus(budget):
    # the scales that overflow share one lone walk per combination, while
    # the rest of the call stays exact
    mixed = 0
    for spec in _oracle_corpus():
        scales = list(range(0, spec.depth + 1))
        for fold in (1, 2, 3):
            got = sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=budget)
            fell = [j for j in scales if got[j].fell_back]
            for j, bracket in reference_brackets(spec, fold, fell).items():
                alone = sum_prefix_counts(spec, fold, [j], mode="exact", state_budget=budget)[j]
                assert got[j] == alone, (spec.name, fold, j)
                assert (alone.bracket, alone.mode) == (bracket, "bracket"), (spec.name, fold, j)
            mixed += 0 < len(fell) < len(scales)
    assert mixed


def record_walks(monkeypatch):
    """Patch the lone walk to log what it walks, per bracket call.

    ``log.lookups`` holds (column, hi, lo, rule key) for each ``_run_rule``
    lookup that ``_lone_counts`` makes itself, for a stretch inside one run.
    ``log.blocks`` holds, for each ``_block_walk``, its (column, pieces,
    carry set), the call's row memo, the memo keys it read in order and the
    (hi, lo, carry set) of each ``_stretch`` it made to build a row.
    ``_lone_counts`` makes no ``_stretch`` of its own: that would fail.
    """
    log = types.SimpleNamespace(lookups=[], blocks=[])
    real_lone, real_rule = engine._lone_counts, engine._run_rule
    real_stretch, real_block = engine._stretch, engine._block_walk
    memos = {}  # id of a call's memo: (that memo, the recording one used instead)
    current = []  # the block walk in progress
    here = []  # the combination's column and the (hi, lo) of the stretch it walks

    class Memo(dict):
        def get(self, key):
            current[-1].lookups.append(key)
            return super().get(key)

    class Plan(list):
        def __iter__(self):  # the walk down, one stretch at a time
            for entry in super().__iter__():
                here[1:] = entry[:2]
                yield entry

    def lone_counts(starts, column, plan, init, fold, rows):
        here[:] = [column]
        try:
            return real_lone(starts, column, Plan(plan), init, fold, rows)
        finally:
            here.clear()

    def rule(fold, f, r, s):
        if here and not current:  # not for a block walk's rows
            log.lookups.append((*here, (fold, f, r, s)))
        return real_rule(fold, f, r, s)

    def stretch(starts, column, hi, lo, carry_set, fold):
        assert current, (hi, lo)  # only a block walk builds rows
        current[-1].builds.append((hi, lo, carry_set))
        return real_stretch(starts, column, hi, lo, carry_set, fold)

    def block_walk(starts, column, pieces, carry_set, fold, rows):
        memo = memos.setdefault(id(rows), (rows, Memo()))[1]
        current.append(types.SimpleNamespace(
            column=column, pieces=pieces, carry_set=carry_set, memo=memo, lookups=[], builds=[],
        ))
        try:
            return real_block(starts, column, pieces, carry_set, fold, memo)
        finally:
            log.blocks.append(current.pop())

    monkeypatch.setattr(engine, "_lone_counts", lone_counts)
    monkeypatch.setattr(engine, "_run_rule", rule)
    monkeypatch.setattr(engine, "_stretch", stretch)
    monkeypatch.setattr(engine, "_block_walk", block_walk)
    return log


def covered_positions(log):
    """Per combination (keyed by the id of its column), how often each position was walked."""
    out = collections.defaultdict(collections.Counter)
    for column, hi, lo, _ in log.lookups:
        out[id(column)].update(range(lo, hi + 1))
    for walk in log.blocks:
        for hi, lo, _, _ in walk.pieces:
            out[id(walk.column)].update(range(lo, hi + 1))
    return out


def check_block_rows(log):
    """Each block walk reads one row per carry set a piece, in order; no row is built twice.

    Returns (rows built, rows read).
    """
    built = set()
    reads = 0
    for walk in log.blocks:
        pieces = {hi: (lo, walk.column[a:z]) for hi, lo, a, z in walk.pieces}
        order = []
        for hi, pattern, s in walk.lookups:
            assert pattern == pieces[hi][1], (hi, pattern)
            order.append(hi)
            reads += 1
        # the pieces top down, each read once per carry set of its vector
        assert list(dict.fromkeys(order)) == [p[0] for p in walk.pieces]
        assert len(set(walk.lookups)) == len(walk.lookups)
        for hi, lo, s in walk.builds:
            assert lo == pieces[hi][0], (hi, lo)
            key = (id(walk.memo), hi, pieces[hi][1], s)
            assert key not in built, key  # built at most once per call
            built.add(key)
    return len(built), reads


@pytest.mark.parametrize("name, fold", [("all-dims-3", 2), ("haus-lowbox", 3)])
def test_bracket_mode_walks_each_combination_once_for_every_scale(monkeypatch, name, fold):
    spec = build_canonical(name)
    masks = undominated_masks(c.free_mask for c in spec.components)
    ncombos = len(_combos(len(masks), fold))
    emit = spec.depth - (fold - 1).bit_length()
    log = record_walks(monkeypatch)
    # one scale: each position from the scale down to 1 is covered once per
    # combination, by a rule lookup or a block row; whole blocks share rows
    sum_prefix_counts(spec, fold, [spec.depth], mode="bracket")
    covered = covered_positions(log)
    assert len(covered) == ncombos
    for positions in covered.values():
        assert positions == collections.Counter(range(1, emit + 1))
    built, reads = check_block_rows(log)
    assert log.blocks and built < reads
    # every scale: a stretch is walked once from each nonempty carry set
    # met there, so at most 2^fold - 1 walks cover any position
    log.lookups.clear()
    log.blocks.clear()
    sum_prefix_counts(spec, fold, range(1, spec.depth + 1), mode="bracket")
    covered = covered_positions(log)
    assert len(covered) == ncombos
    most = max(max(positions.values()) for positions in covered.values())
    assert 1 < most <= 2**fold - 1


def deep_interleave(horizon, marks):
    """The benchmark's deep-bracket construction, acceptance 7's interleave, at a given horizon."""
    scales = make_scale_sequence("scaled", horizon, 4)

    def half(fams):
        targets = DimensionTargets(*(tuple(map(Fraction, f)) for f in fams))
        return build_example("all-dims-3", targets, scales)

    prime = half((("1/4", "1/2", "5/8"), ("1/4", "1/2", "5/8"), ("1/4", "1/2", "3/4")))
    flat = half((("1/2",) * 3,) * 3)
    return interleave(prime, flat, marks), scales


def test_deep_interleave_shares_block_rows_across_combinations(monkeypatch):
    # horizon 40 (depth 831, 135 segments): the stretches below the probes
    # hold whole blocks, and most combinations repeat a block's free counts
    spec, scales = deep_interleave(40, (1, 8, 24, 41))
    probes = sorted({scales.start(k) - 1 for k in (8, 16, 24)} | {spec.depth})
    masks = undominated_masks(c.free_mask for c in spec.components)
    segments = len(_segments(masks, spec.depth, _combos(len(masks), 1))[0]) - 1
    nblocks = -(-segments // engine.BLOCK_SEGMENTS)
    log = record_walks(monkeypatch)
    for fold in (1, 2, 3):
        log.blocks.clear()
        got = sum_prefix_counts(spec, fold, probes, mode="bracket")
        want = reference_brackets(spec, fold, probes)
        assert {j: r.bracket for j, r in got.items()} == want, fold
        built, reads = check_block_rows(log)
        # rows built against one per combination and block: at fold 3 (560
        # combinations) 732 against 5,040
        most = len(_combos(len(masks), fold)) * nblocks
        assert built < reads and 2 * built < most and (fold < 3 or 5 * built < most), fold


@pytest.mark.parametrize("fold", [engine.MAX_FOLD + 1, 256])
def test_fold_above_max_fold_is_refused_before_any_table(monkeypatch, fold):
    def no_tables(fold):
        raise AssertionError(f"carry tables built for fold {fold}")

    monkeypatch.setattr(engine, "_carry_tables", no_tables)
    spec = from_rows(["a0a"])
    with pytest.raises(AssertionError, match="carry tables built"):
        sum_prefix_counts(spec, engine.MAX_FOLD, [2])  # the stub is in the way
    for mode in ("exact", "bracket"):
        with pytest.raises(ValueError, match=f"1..{engine.MAX_FOLD}, got {fold}"):
            sum_prefix_counts(spec, fold, [2], mode=mode)
    with pytest.raises(ValueError, match=f"1..{engine.MAX_FOLD}, got {fold}"):
        predicted_exponent(spec, fold, 2)


@pytest.mark.parametrize("budget", [True, 2.5, 1.0, float("inf"), "3", None])
def test_a_state_budget_that_is_not_an_int_is_a_value_error(budget):
    # True used to count as a budget of 1, 2.5 and inf were taken as
    # ceilings, and "3" and None raised a bare TypeError
    spec = from_rows(["0000aa", "000a0a"])
    for mode in ("exact", "bracket"):
        with pytest.raises(ValueError, match=f"state_budget must be an int of at least 1, got {budget!r}"):
            sum_prefix_counts(spec, 2, [3], mode=mode, state_budget=budget)
        with pytest.raises(ValueError, match="state_budget"):
            count_trace(spec, 2, [3], mode=mode, state_budget=budget)


def test_state_budget_below_one_is_rejected():
    # a budget of 0 used to pass through: the mode then followed the
    # zero-digit skip (scales 1-3 exact, 4-6 fallback), not the budget
    spec = from_rows(["0000aa", "000a0a"])
    for mode in ("exact", "bracket"):
        for budget in (0, -5):
            with pytest.raises(ValueError, match="state_budget"):
                sum_prefix_counts(spec, 2, range(1, 7), mode=mode, state_budget=budget)
    res = sum_prefix_counts(spec, 2, range(1, 7), mode="exact", state_budget=1)
    for j, r in res.items():
        want = brute_force_oracle(spec, 2, j).lower
        assert r.bracket.lower <= want <= r.bracket.upper, j
        assert r.fell_back == (r.mode == "bracket") and r.peak_states <= 1, j


EDGE_ROWS = [
    ["a"],
    ["0"],
    ["a0000"],  # free at position 1 only
    ["0000a"],  # free at the last position only
    ["a000a"],
    ["00000"],  # all zero: one run
    ["aaaaa"],  # all free: one run
    ["00000", "a000a"],
    ["0aaaa"],  # the first segment has count 0
    ["a0a0a"],  # the count changes on every segment
    ["0a0a0"],  # both
]

# the runs of the one column at fold 1, for the rows that pin them
PINNED_RUNS = {
    ("aaaaa",): ([1, 6], [1]),  # a one-segment table
    ("0aaaa",): ([1, 2, 6], [0, 1]),
    ("a0a0a",): ([1, 2, 3, 4, 5, 6], [1, 0, 1, 0, 1]),
    ("0a0a0",): ([1, 2, 3, 4, 5, 6], [0, 1, 0, 1, 0]),
}


def check_segment_table(spec, fold):
    """The segment table against the plain per-position columns."""
    depth = spec.depth
    masks = undominated_masks(c.free_mask for c in spec.components)
    combos = _combos(len(masks), fold)
    starts, columns = _segments(masks, depth, combos)
    assert starts[0] == 1 and starts[-1] == depth + 1
    assert all(a < b for a, b in zip(starts, starts[1:]))
    for s in starts[1:-1]:  # every cut is a digit change of some mask
        assert any((m >> (depth - s) ^ m >> (depth - s + 1)) & 1 for m in masks), s
    for column, plain in zip(columns, per_position_columns(masks, depth, combos), strict=True):
        assert len(column) == len(starts) - 1
        for i, f in enumerate(column):
            assert set(plain[starts[i]:starts[i + 1]]) == {f}, i


@given(specs_with_fold())
@settings(max_examples=80, deadline=None)
def test_segment_table_matches_the_per_position_columns(spec_fold):
    check_segment_table(*spec_fold)


def plain_runs(table):
    """The runs of each column, cut where a segment's count differs from the one before."""
    starts, columns = table
    for column in columns:
        firsts = [0] + [i for i in range(1, len(column)) if column[i] != column[i - 1]]
        yield [starts[i] for i in firsts] + [starts[-1]], [column[i] for i in firsts]


def test_segment_table_indexing():
    # positions 1-2 free in both rows, 3 in the second only, 5 in the first only
    masks = [c.free_mask for c in from_rows(["aa00a", "aaa00"]).components]
    starts, columns = _segments(masks, 5, _combos(2, 1))
    assert starts == [1, 3, 4, 5, 6]
    assert columns == [bytes([1, 0, 0, 1]), bytes([1, 1, 0, 0])]
    starts, columns = _segments(masks, 5, _combos(2, 2))
    assert columns == [bytes([2, 0, 0, 2]), bytes([2, 1, 0, 1]), bytes([2, 2, 0, 0])]


@pytest.mark.parametrize("rows", EDGE_ROWS)
def test_run_stepping_edge_cases(rows):
    spec = from_rows(rows)
    scales = list(range(0, spec.depth + 1))
    for fold in range(1, 6):
        check_segment_table(spec, fold)
        got = run_stepped_lone_counts(spec, fold, scales)
        assert got == per_position_lone_counts(spec, fold, scales), fold
        if len(undominated_masks(c.free_mask for c in spec.components)) == 1:
            for j in scales:
                assert got[j] == [brute_force_oracle(spec, fold, j).lower], (fold, j)
        masks, combos, _ = lone_setup(spec, fold, [])
        table = _segments(masks, spec.depth, combos)
        assert list(free_count_runs(table)) == list(plain_runs(table)), fold
    masks, combos, _ = lone_setup(spec, 1, [])
    runs = list(free_count_runs(_segments(masks, spec.depth, combos)))
    if not any(masks):
        assert runs == [([1, spec.depth + 1], [0])]
    if tuple(rows) in PINNED_RUNS:
        assert runs == [PINNED_RUNS[tuple(rows)]]


def check_low_phase(spec, fold):
    """Each combination's low phase against nextany applied position by position.

    Top sets: every position, the default scales' emit positions, [0], the
    depth alone (nothing absorbed) and, per combination, a lowest top that
    falls inside one of its runs, so the run found on the column's tail
    starts above that top's segment.
    """
    masks, combos, _ = lone_setup(spec, fold, [])
    starts, columns = table = _segments(masks, spec.depth, combos)
    plain = per_position_columns(masks, spec.depth, combos)
    width = (fold - 1).bit_length()
    default = sorted({max(j - width, 0) for j in resolve_scales(spec, "boundaries")}, reverse=True)
    shared = [range(spec.depth, -1, -1), default, [0], [spec.depth]]
    inside = 0
    for column, flat, (run_starts, _) in zip(columns, plain, free_count_runs(table), strict=True):
        tops = list(shared)
        i = max(range(len(run_starts) - 1), key=lambda i: run_starts[i + 1] - run_starts[i])
        if run_starts[i + 1] - run_starts[i] > 1:  # a run of two positions or more
            tops.append([(run_starts[i] + run_starts[i + 1] - 2) // 2])
            inside += 1
        for t in tops:
            got = _initial_carry_masks(starts, column, fold, t)
            assert got == per_position_carry_masks(flat, fold, t), (spec.name, fold, t)
            assert list(got) == list(t)
    return inside


@pytest.mark.parametrize("rows", EDGE_ROWS)
def test_low_phase_matches_nextany_position_by_position_on_the_edge_rows(rows):
    spec = from_rows(rows)
    for fold in (1, 2, 3):
        check_low_phase(spec, fold)


def test_low_phase_matches_nextany_position_by_position_on_the_oracle_corpus():
    inside = 0
    for spec in _oracle_corpus():
        for fold in (1, 2, 3):
            inside += check_low_phase(spec, fold)
    assert inside


@pytest.mark.parametrize("name", sorted(CANONICAL_EXAMPLES))
def test_low_phase_matches_nextany_position_by_position_on_the_canonical_specs(name):
    spec = build_canonical(name)
    for fold in (1, 2, 3):
        assert check_low_phase(spec, fold), fold


def long_run_spec():
    """haus-lowbox on a geometric skeleton: depth 4,096 over 4,034 segments.

    A fold-2 combination has about 2,558 runs, some of them hundreds of
    segments long.
    """
    keys = dict(CANONICAL_EXAMPLES["haus-lowbox"], scale_policy="geometric", scale_base=8)
    return build_from_keys("haus-lowbox", dict(keys, horizon=3))


def test_bracket_mode_matches_the_reference_on_long_runs():
    # the walks find each run on the column bytes.  The call over every 37th
    # scale is checked at every ninth of those and the depth, as the
    # per-scale reference walks from each scale down
    spec = long_run_spec()
    masks = undominated_masks(c.free_mask for c in spec.components)
    assert (spec.depth, len(_segments(masks, spec.depth, [])[0]) - 1) == (4096, 4034)
    every = range(0, spec.depth + 1, 37)
    checked = [*every[::9], every[-1]]
    for fold in (1, 2, 3):
        for scales, probes in (resolve_scales(spec, "boundaries"), None), (every, checked):
            want = reference_brackets(spec, fold, probes or scales)
            for block in (1, 2, 16):
                with mock.patch.object(engine, "BLOCK_SEGMENTS", block):
                    got = sum_prefix_counts(spec, fold, scales, mode="bracket")
                assert {j: got[j].bracket for j in want} == want, (fold, block)


def test_a_walk_reads_only_the_bytes_of_its_own_segments():
    # _stretch steps over equal adjacent bytes to find a run, yet never past
    # the segments of positions hi..lo, however far the run goes on; its
    # result is the reference's product over the runs found on the whole column
    spec = long_run_spec()
    fold = 2
    masks = undominated_masks(c.free_mask for c in spec.components)
    starts, columns = table = _segments(masks, spec.depth, _combos(len(masks), fold))
    runs = dict(zip(columns, free_count_runs(table)))
    reads = []

    class Column(bytes):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    rng = random.Random(26)
    for _ in range(100):
        column = rng.choice(columns)
        hi = rng.randrange(1, spec.depth + 1)
        lo = max(1, hi - rng.randrange(400))
        carry_set = rng.randrange(1, 1 << fold)
        reads.clear()
        vec, d = engine._stretch(starts, Column(column), hi, lo, carry_set, fold)
        a, z = bisect_right(starts, lo) - 1, bisect_right(starts, hi)
        assert reads and a <= min(reads) and max(reads) < z, (hi, lo)
        want = ((carry_set, 1),)
        for f, r in _run_steps(runs[column], hi, lo):
            for k in range(r.bit_length()):
                if r >> k & 1:
                    want = matrix_times(want, transfer_power(fold, f, k))
        assert {t: x << d for t, x in vec} == dict(want), (hi, lo)


def test_undominated_masks_drops_duplicates_and_submasks():
    assert undominated_masks([0b0110, 0b1110, 0b0110, 0b0001, 0b0000]) == [0b1110, 0b0001]
    assert undominated_masks([0b101, 0b011]) == [0b101, 0b011]
    canonical = build_canonical("all-dims-3")
    assert len(canonical.components) == 18
    assert len(undominated_masks(c.free_mask for c in canonical.components)) == 15
    # the benchmark's deep-bracket spec: acceptance 7's interleave at horizon 120
    deep, _ = deep_interleave(120, (1, 22, 72, 121))
    assert len(deep.components) == 18
    assert len(undominated_masks(c.free_mask for c in deep.components)) == 14


def test_scale_bounds_checked():
    spec = all_free(4)
    for mode in ("exact", "bracket"):
        assert sum_prefix_counts(spec, 2, [], mode=mode) == {}
        with pytest.raises(ScaleError):
            sum_prefix_counts(spec, 2, [5], mode=mode)
    with pytest.raises(ScaleError):
        brute_force_oracle(spec, 1, -1)


def test_enumeration_budget_enforced():
    spec = all_free(30)
    with pytest.raises(BudgetExceededError):
        iterated_pattern_sums(spec, 2, budget=1 << 10)


def test_enumeration_budget_counts_set_work():
    # 40 copies of one 4-free row: 640 digit strings, 640^3 > 2^24 addend
    # triples, but only 16 distinct strings and 31 distinct pair sums
    spec = from_rows(["aaaa"] * 40)
    assert iterated_pattern_sums(spec, 3) == tuple(range(46))
    assert brute_force_oracle(spec, 3, 4) == sum_prefix_counts(spec, 3, [4])[4].bracket
    # the last fold step adds 16 strings to each of 31 pair sums
    one = from_rows(["aaaa"])
    assert len(iterated_pattern_sums(one, 3, budget=16 * 31)) == 46
    with pytest.raises(BudgetExceededError):
        iterated_pattern_sums(one, 3, budget=16 * 31 - 1)


def test_pruned_kernel_matches_the_unpruned_one_on_the_oracle_corpus():
    # merging tied combinations and dropping dominated members keeps every
    # count and never adds a state
    for spec in _oracle_corpus():
        scales = list(range(0, spec.depth + 1))
        for fold in (2, 3):
            got = sum_prefix_counts(spec, fold, scales, mode="exact")
            want = unpruned_prefix_counts(spec, fold, scales)
            for j in scales:
                count, peak = want[j]
                oracle = brute_force_oracle(spec, fold, j).lower
                assert got[j].bracket.lower == got[j].bracket.upper == count == oracle
                assert got[j].peak_states <= peak, (spec.name, fold, j)


def test_canonical_fold3_stays_exact_under_a_small_state_budget():
    # the peaks pin how much the canonical form merges and prunes: the
    # unpruned kernel peaks at 3,071 states at scale 56 and overflows at 102
    spec = build_canonical("all-dims-3")
    res = sum_prefix_counts(spec, 3, [56, spec.depth], mode="exact", state_budget=4096)
    assert [(r.mode, r.fell_back, r.peak_states) for r in res.values()] == [
        ("exact", False, 878),
        ("exact", False, 3115),
    ]
    assert res[56].bracket.lower == res[56].bracket.upper == 692887472
    assert res[spec.depth].bracket.lower == res[spec.depth].bracket.upper == 4526985846313008


@pytest.mark.parametrize("name, fold", [("all-dims-2", 3), ("all-dims-3", 2)])
def test_component_order_changes_no_count_and_no_peak(name, fold):
    # tied combinations merge into the lowest index: the choice must not
    # leak into counts or state counts
    spec = build_canonical(name)
    scales = list(range(1, spec.depth + 1, 7))
    want = sum_prefix_counts(spec, fold, scales, mode="exact")
    comps = list(spec.components)
    random.Random(1).shuffle(comps)
    assert comps != list(spec.components)
    shuffled = dataclasses.replace(spec, components=tuple(comps), schedule=())
    got = sum_prefix_counts(shuffled, fold, scales, mode="exact")
    for j in scales:
        assert (got[j].bracket, got[j].peak_states) == (want[j].bracket, want[j].peak_states)


@pytest.mark.parametrize("budget", [engine.DEFAULT_STATE_BUDGET, 6])
def test_one_sweep_matches_per_scale_calls_on_the_oracle_corpus(budget):
    # every scale of a call shares one walk, yet keeps the bracket, mode,
    # peak and fallback of a call for that scale alone; at budget 6 some
    # scales of one call fall back while the others stay exact
    mixed = 0
    for spec in _oracle_corpus():
        scales = list(range(0, spec.depth + 1))
        for fold in (1, 2, 3):
            got = sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=budget)
            for j in scales:
                alone = sum_prefix_counts(spec, fold, [j], mode="exact", state_budget=budget)
                assert got[j] == alone[j], (spec.name, fold, j)
            mixed += {r.fell_back for r in got.values()} == {False, True}
    assert bool(mixed) == (budget == 6)


def test_exact_mode_runs_the_subset_construction_once_per_call(monkeypatch):
    calls = []
    real = engine._count_outputs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "_count_outputs", counted)
    spec = from_rows(["aaaa000", "a0a0a0a", "0a0a0a0"])
    scales = list(range(0, spec.depth + 1))
    for budget in (engine.DEFAULT_STATE_BUDGET, 3):
        res = sum_prefix_counts(spec, 3, scales, mode="exact", state_budget=budget)
        assert len(calls) == 1
        calls.clear()
        assert any(r.fell_back for r in res.values()) == (budget == 3)
    sum_prefix_counts(spec, 3, scales, mode="bracket")
    assert not calls


@pytest.mark.parametrize("name", sorted(CANONICAL_EXAMPLES))
def test_lane_order_puts_each_levels_merge_targets_first(name):
    spec = build_canonical(name)
    masks = undominated_masks(c.free_mask for c in spec.components)
    for fold in (2, 3):
        table = _segments(masks, spec.depth, _combos(len(masks), fold))
        starts, columns = ordered = _lane_order(table)
        assert starts == table[0] and sorted(columns) == sorted(table[1])
        _, targets, undo = _antichain(ordered, spec.depth + 1)
        targets = list(targets)
        for k in range(len(undo) - 1, -1, -1):
            # level k: combinations with equal counts on the first k segments
            # merge into the lowest-index one, and those targets lead the lanes
            first = {}
            for ci, column in enumerate(columns):
                first.setdefault(column[:k], ci)
            assert targets == [first[column[:k]] for column in columns], (fold, k)
            assert sorted(first.values()) == list(range(len(first))), (fold, k)
            changes = undo[k]
            for i in range(0, len(changes), 3):
                targets[changes[i]] = changes[i + 2]


def test_state_budget_falls_back_to_bracket():
    rows = ["aaaa000", "a0a0a0a", "0a0a0a0"]  # no row contains another
    spec = from_rows(rows)
    res = sum_prefix_counts(spec, 3, [7], mode="exact", state_budget=2)[7]
    assert res.fell_back
    assert res.mode == "bracket"
    assert res.peak_states == 2  # the most states seen within the budget
    want = brute_force_oracle(spec, 3, 7).lower
    assert res.bracket.lower <= want <= res.bracket.upper


def test_branching_min_average_prefers_quiet_paths():
    # choosing digit 1 at position 1 isolates the first component,
    # whose remaining positions are forced
    spec = from_rows(["a000", "0aaa"])
    assert branching_min_average(spec, [4])[4].numerator == 1
    # the all-zero path still sees union branching at every position
    dense = from_rows(["aaaa"])
    assert branching_min_average(dense, [4]) == {4: 1}


@given(small_specs())
@settings(max_examples=30, deadline=None)
def test_branching_bound_is_attained_by_some_leaf(spec):
    # 2^(n * OFF_n) never exceeds the number of distinct prefixes
    n = spec.depth
    off = branching_min_average(spec, [n])[n]
    assert 2 ** (n * float(off)) <= brute_force_oracle(spec, 1, n).lower + 1e-9


@given(small_specs())
@settings(max_examples=80, deadline=None)
def test_segment_stepped_branching_matches_the_per_position_dp(spec):
    scales = range(1, spec.depth + 1)
    assert branching_min_average(spec, scales) == per_position_branching_min_average(spec, scales)


def test_segment_stepped_branching_matches_the_per_position_dp_on_the_oracle_corpus():
    for spec in _oracle_corpus():
        scales = range(1, spec.depth + 1)
        got = branching_min_average(spec, scales)
        assert got == per_position_branching_min_average(spec, scales), spec.name


def test_slice_moves_step_one_lane_like_the_carry_tables():
    # a one-lane state through the move list, for every fold, free count
    # and carry set: slices b * fold + c' must spell next_b[f][g]
    for fold in range(1, engine.MAX_FOLD + 1):
        next0, next1, _ = _carry_tables(fold)
        for f in range(fold + 1):
            moves = _slice_moves([int(s <= f) for s in range(fold + 1)])
            for g in range(1 << fold):
                slices = [0] * (2 * fold)
                for slot, pairs in enumerate(moves):
                    for c, mask in pairs:
                        slices[slot] |= g >> c & mask
                halves = slices[:fold], slices[fold:]
                got = [sum(x << c for c, x in enumerate(half)) for half in halves]
                assert got == [next0[f][g], next1[f][g]], (fold, f, g)


RUN_LENGTHS = {*range(1, 34), 64, 255, 1000}


def run_cases():
    """(fold, f, carry set): every f and nonempty set at folds 1-4, a sample at fold 8."""
    cases = [
        (fold, f, s) for fold in range(1, 5) for f in range(fold + 1) for s in range(1, 1 << fold)
    ]
    rng = random.Random(8)
    return cases + [(8, rng.randrange(9), rng.randrange(1, 256)) for _ in range(12)]


def test_run_rows_equal_single_steps_of_the_transfer_matrix():
    # row s of M_f^r, the rule's row shifted by its doublings, against r
    # single steps of M_f from the unit vector at s; row s of M_f^(2^k)
    # against the reference's whole squaring
    for fold, f, s in run_cases():
        one = transfer_power(fold, f, 0)
        vec = ((s, 1),)
        for r in range(1, max(RUN_LENGTHS) + 1):
            vec = matrix_times(vec, one)
            if r in RUN_LENGTHS:
                row, d = _run_rule(fold, f, r, s)
                assert {t: x << d for t, x in row} == dict(vec), (fold, f, r, s)
        assert _run_rule(fold, f, 0, s) == (((s, 1),), 0)
        for k in range(6):  # the engine's lazy rows of the squarings
            assert dict(engine._power_row(fold, f, k, s)) == dict(transfer_power(fold, f, k)[s])


def test_absorb_runs_equal_nextany_iterated():
    # the low phase's run table against nextany[f] applied r times
    for fold, f, s in run_cases():
        nextany = _carry_tables(fold)[2][f]
        cur = s
        for r in range(1, max(RUN_LENGTHS) + 1):
            cur = nextany[cur]
            if r in RUN_LENGTHS:
                assert _absorb_run(fold, f, r, s) == cur, (fold, f, r, s)


def test_bracket_walk_makes_one_vector_product_per_run(monkeypatch):
    # a run's overlap with a stretch or a block row, r positions with f
    # addends free, is one product with rows of M_f^r, read from the rule
    # keyed by that run's r: no stepping by powers of two, each carry set of
    # the vector looked up once.  The runs are the reference's, found on the
    # whole column.  A block walk reads one memo row per carry set of its
    # vector a piece, and builds each (piece, free counts, carry set) row at
    # most once in the call
    spec = build_canonical("all-dims-3")
    fold = 3
    walks = []  # per _stretch: its runs' (f, r) and the rules it looked up
    walking = []  # the _stretch in progress
    real_rule, real_stretch = engine._run_rule, engine._stretch

    def rule(fold, f, r, s):
        if walking:
            walks[-1][1].append((f, r, s))
        return real_rule(fold, f, r, s)

    def stretch(starts, column, hi, lo, carry_set, fold):
        runs = next(free_count_runs((starts, [column])))
        walks.append((list(_run_steps(runs, hi, lo)), []))
        walking.append(hi)
        try:
            return real_stretch(starts, column, hi, lo, carry_set, fold)
        finally:
            walking.pop()

    monkeypatch.setattr(engine, "_run_rule", rule)
    monkeypatch.setattr(engine, "_stretch", stretch)
    log = record_walks(monkeypatch)  # wraps the counting _stretch above
    sum_prefix_counts(spec, fold, [spec.depth], mode="bracket")
    products = 0
    for steps, lookups in walks:
        i = 0
        for key in steps:  # each run takes the lookups of at most one product
            seen = set()
            while i < len(lookups) and lookups[i][:2] == key and lookups[i][2] not in seen:
                seen.add(lookups[i][2])
                i += 1
            products += bool(seen)
        assert i == len(lookups), (steps, lookups)
    assert len(walks) > 1 and products > len(walks)
    built, reads = check_block_rows(log)
    assert built == sum(len(w.builds) for w in log.blocks) and built < reads
    # a row read with a vector of two or more carry sets
    assert any(len(w.lookups) > len(w.pieces) for w in log.blocks)


@pytest.mark.parametrize("name, fold", [("all-dims-3", 2), ("haus-lowbox", 3)])
def test_a_stretch_inside_one_run_is_one_rule_lookup(monkeypatch, name, fold):
    # a stretch inside one run reads the shared rule once per carry set met
    # there, and walks nothing, even where it holds whole blocks: over every
    # scale most stretches are such, and over the default scales, in blocks
    # of 2 segments, some combinations lie in one run across whole blocks.
    # The runs are the reference's, found on the whole column
    spec = build_canonical(name)
    lookups = []
    real_rule = engine._run_rule

    def rule(fold, f, r, s):
        lookups.append((fold, f, r, s))
        return real_rule(fold, f, r, s)

    monkeypatch.setattr(engine, "_run_rule", rule)
    monkeypatch.setattr(engine, "BLOCK_SEGMENTS", 2)
    log = record_walks(monkeypatch)
    real_stretch = engine._stretch
    seen = {}  # per _stretch call: the rule lookups it made

    def stretch(starts, column, hi, lo, carry_set, fold):
        before = len(lookups)
        out = real_stretch(starts, column, hi, lo, carry_set, fold)
        seen[id(column), hi, lo, carry_set] = lookups[before:]
        return out

    monkeypatch.setattr(engine, "_stretch", stretch)
    masks = undominated_masks(c.free_mask for c in spec.components)
    table = _segments(masks, spec.depth, _combos(len(masks), fold))
    starts = table[0]
    runs = dict(zip(table[1], free_count_runs(table)))  # by column
    n, size = len(starts) - 1, engine.BLOCK_SEGMENTS
    # block b holds positions starts[b] up to starts[min(b + size, n)] - 1
    blocks = [(starts[b], starts[min(b + size, n)] - 1) for b in range(0, n, size)]
    for scales in (range(1, spec.depth + 1), resolve_scales(spec, "boundaries")):
        log.lookups.clear()
        log.blocks.clear()
        sum_prefix_counts(spec, fold, scales, mode="bracket")
        met = collections.defaultdict(list)  # per combination and stretch: the carry sets
        across = 0
        for column, hi, lo, key in log.lookups:  # only for a stretch inside one run
            run_starts, counts = runs[column]
            i = bisect_right(run_starts, hi) - 1
            assert run_starts[i] <= lo, (hi, lo)
            assert key[:3] == (fold, counts[i], hi - lo + 1), (hi, lo)
            met[id(column), hi].append(key[3])
            across += any(lo <= a and b <= hi for a, b in blocks)
        for sets in met.values():  # one lookup per carry set met
            assert len(set(sets)) == len(sets), sets
        for walk in log.blocks:  # a block walk only where the stretch crosses a run edge
            run_starts = runs[walk.column][0]
            hi, lo = walk.pieces[0][0], walk.pieces[-1][1]
            assert run_starts[bisect_right(run_starts, hi) - 1] > lo
            for hi, lo, carry_set in walk.builds:
                # a rule lookup for each run the row's walk crosses, at least
                rules = seen[id(walk.column), hi, lo, carry_set]
                crossed = bisect_right(run_starts, hi) - bisect_right(run_starts, lo) + 1
                assert len(rules) >= crossed, (hi, lo)
        if len(scales) == spec.depth:  # every scale: most stretches lie inside one run
            assert len(log.lookups) > len(log.blocks)
        else:  # the default scales: some lie inside one run across whole blocks
            assert across


def test_a_fixed_step_waits_for_the_reach_groups_too():
    # A step can return the very states it was given while a walk's reach
    # set still grows: the walk that joins at position 3 holds A = (lane 0
    # at carry 0, lane 1 at carry 1), and A reaches {A, B} and then {A, B,
    # C}, states the top walk already holds.  The second step is not a
    # repeat of the first; reusing it would leave that walk's peak at 2.
    # Lane 1 kills lane 0's carries here by a hand-built dominator table
    # (its free count is the lower one), since no small real antichain
    # gives this shape.
    fold, depth = 3, 6
    table = ([1, depth + 1], [bytes([3]), bytes([1])])
    antichain = ([0b10, 0], [0, 1], [[], []])
    init = [[0] * (depth + 1) for _ in range(2)]
    init[0][depth] = init[1][depth] = 0b010  # the top walk: both lanes at carry 1
    init[0][3], init[1][3] = 0b001, 0b010  # A
    args = (table, {depth: depth, 3: 3}, {depth: 0, 3: 0}, init, fold, 10**6, antichain)
    got = engine._count_outputs(*args)
    assert got == lane_major_count_outputs(*args)
    assert got[3][1] == 3


@pytest.mark.parametrize("budget", [engine.DEFAULT_STATE_BUDGET, 3, 6, 12])
def test_carry_major_kernel_matches_the_lane_major_one_on_the_oracle_corpus(budget):
    fell = 0
    for spec in _oracle_corpus():
        scales = range(0, spec.depth + 1)
        for fold in (1, 2, 3):
            got = sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=budget)
            assert got == lane_major_prefix_counts(spec, fold, scales, budget), (spec.name, fold)
            fell += any(r.fell_back for r in got.values())
    assert bool(fell) == (budget < engine.DEFAULT_STATE_BUDGET)


@pytest.mark.parametrize("name", sorted(CANONICAL_EXAMPLES))
def test_carry_major_kernel_matches_the_lane_major_one_on_the_canonical_specs(name):
    # every scale at folds 1-2 and every seventh at fold 3; the two deep
    # hausdorff specs take every 31st scale, since the reference packs one
    # count field per scale into each state and every scale costs it seconds
    spec = build_canonical(name)
    step = 31 if spec.depth > 1000 else 1
    budget = 4096 if name == "all-dims-3" else engine.DEFAULT_STATE_BUDGET
    for fold in (1, 2, 3):
        scales = range(0, spec.depth + 1, 7 * step if fold == 3 else step)
        got = sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=budget)
        assert got == lane_major_prefix_counts(spec, fold, scales, budget), fold


@pytest.mark.parametrize("name", ["pair-hausdorff", "triple-hausdorff"])
def test_one_exact_call_serves_every_scale_of_a_deep_spec(name):
    # every scale of thousands in one call: each result equals a call for
    # that scale alone, sampled, and every count lies in bracket mode's bracket
    spec = build_canonical(name)
    scales = range(0, spec.depth + 1)
    got = sum_prefix_counts(spec, 2, scales, mode="exact")
    brackets = sum_prefix_counts(spec, 2, scales, mode="bracket")
    for j in scales:
        b = brackets[j].bracket
        assert got[j].mode == "exact" and b.lower <= got[j].bracket.lower <= b.upper, j
    for j in [*scales[::128], spec.depth]:
        assert got[j] == sum_prefix_counts(spec, 2, [j], mode="exact")[j], j


@pytest.mark.parametrize("name", ["pair-hausdorff", "triple-hausdorff"])
@pytest.mark.parametrize("fold", [2, 3])
def test_carry_major_kernel_matches_the_lane_major_one_over_fixed_steps(name, fold):
    # at the default scales the sweep repeats one fixed step for hundreds of
    # positions between two joins, where the canonical-spec comparison joins
    # a walk every 31st scale; the smaller budgets make groups leave the sweep
    spec = build_canonical(name)
    scales = resolve_scales(spec, "boundaries")
    got = sum_prefix_counts(spec, fold, scales, mode="exact")
    assert got == lane_major_prefix_counts(spec, fold, scales)
    assert not any(r.fell_back for r in got.values())
    peak = max(r.peak_states for r in got.values())
    for budget in (peak - 1, 2):
        got = sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=budget)
        assert got == lane_major_prefix_counts(spec, fold, scales, budget), budget
        assert any(r.fell_back for r in got.values()), budget


@given(specs_with_fold(), st.data())
@settings(max_examples=80, deadline=None)
def test_carry_major_kernel_matches_the_lane_major_one_on_random_scales(spec_fold, data):
    spec, fold = spec_fold
    scales = data.draw(st.lists(st.integers(0, spec.depth), min_size=1, max_size=12))
    scales += [0, scales[0]]  # scale 0 and a duplicate
    budget = data.draw(st.sampled_from([2, 6, engine.DEFAULT_STATE_BUDGET]))
    got = sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=budget)
    assert got == lane_major_prefix_counts(spec, fold, scales, budget)


def test_canonical_fold3_falls_back_under_a_smaller_state_budget():
    spec = build_canonical("all-dims-3")
    res = sum_prefix_counts(spec, 3, [102], mode="exact", state_budget=2048)[102]
    assert (res.mode, res.fell_back, res.peak_states) == ("bracket", True, 1687)
    # the exact count of test_canonical_fold3_stays_exact_under_a_small_state_budget
    assert res.bracket.lower <= 4526985846313008 <= res.bracket.upper
