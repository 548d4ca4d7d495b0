"""Counting engine vs the definitional brute-force oracle."""

import collections
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdim import engine
from sumdim.analysis import predicted_exponent
from sumdim.constructions import (
    CANONICAL_EXAMPLES,
    DimensionTargets,
    build_canonical,
    build_example,
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
    _free_count_runs,
    _initial_carry_masks,
    _lane_order,
    _lone_counts,
    _run_row,
    _segments,
    _slice_moves,
    _times,
    _transfer_power,
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
    from_rows,
    lane_major_prefix_counts,
    lone_setup,
    per_position_branching_min_average,
    per_position_columns,
    run_stepped_lone_counts,
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
    nextany = _carry_tables(fold)[2]
    out = {j: [] for j in scales}
    for column in per_position_columns(masks, spec.depth, combos):
        for j, (e, shift) in shifts.items():
            init = 1
            for t in range(spec.depth, e, -1):
                init = nextany[column[t]][init]
            count, _ = unpruned_count_outputs([column], e, [init], fold, shift, 1 << fold)
            out[j].append(count)
    return out


def test_runs_cover_the_depth_with_each_columns_counts():
    spec = from_rows(["aa00a0aaa", "0aaa00a0a", "a0000a00a"])
    masks, combos, _ = lone_setup(spec, 3, [])
    columns = per_position_columns(masks, spec.depth, combos)
    runs = _free_count_runs(_segments(masks, spec.depth, combos))
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
    for runs in _free_count_runs(_segments(masks, spec.depth, combos)):
        init = _initial_carry_masks(runs, fold, [e for e, _ in shifts.values()])
        lone = _lone_counts(runs, {e: init[e] for e in init if e}, fold)
        for j, (e, shift) in shifts.items():
            out[j].append(lone[e] if e else _carry_values_mask(init[0], shift).bit_count())
    return out


def reference_brackets(spec, fold, scales):
    """{scale: bracket}: [max, min(sum, sup)] over the per-scale reference walks."""
    width = (fold - 1).bit_length()
    return {
        j: CellCountBracket(max(counts), min(sum(counts), ((fold << j) >> width) + 1))
        for j, counts in run_stepped_lone_counts(spec, fold, scales).items()
    }


@given(specs_with_fold(), st.data())
@settings(max_examples=80, deadline=None)
def test_shared_walk_matches_per_scale_walks(spec_fold, data):
    # random scale subsets, with duplicates, scale 0, and at folds 3-5
    # several scales that share emit position 0
    spec, fold = spec_fold
    scales = data.draw(st.lists(st.integers(0, spec.depth), min_size=1, max_size=12))
    assert shared_walk_lone_counts(spec, fold, scales) == run_stepped_lone_counts(
        spec, fold, scales
    )
    got = sum_prefix_counts(spec, fold, scales, mode="bracket")
    assert list(got) == sorted(set(scales))
    for j, bracket in reference_brackets(spec, fold, scales).items():
        assert got[j] == sum_prefix_counts(spec, fold, [j], mode="bracket")[j], j
        assert (got[j].bracket, got[j].mode, got[j].peak_states) == (bracket, "bracket", 0), j
        assert not got[j].fell_back


def test_shared_walk_matches_per_scale_walks_on_the_oracle_corpus():
    for spec in _oracle_corpus():
        scales = list(range(0, spec.depth + 1))
        for fold in (1, 2, 3):
            got = sum_prefix_counts(spec, fold, scales, mode="bracket")
            want = reference_brackets(spec, fold, scales)
            for j in scales:
                alone = sum_prefix_counts(spec, fold, [j], mode="bracket")[j]
                assert got[j] == alone, (spec.name, fold, j)
                assert alone.bracket == want[j], (spec.name, fold, j)


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
    """Patch the stretch walk to log, per combination, how often each position is walked."""
    walks = {}
    real = engine._stretch

    def counted(runs, hi, lo, carry_set, fold):
        # keying by id is safe: holding ``runs`` keeps its id from reuse
        _, positions = walks.setdefault(id(runs), (runs, collections.Counter()))
        positions.update(range(lo, hi + 1))
        return real(runs, hi, lo, carry_set, fold)

    monkeypatch.setattr(engine, "_stretch", counted)
    return walks


@pytest.mark.parametrize("name, fold", [("all-dims-3", 2), ("haus-lowbox", 3)])
def test_bracket_mode_walks_each_combination_once_for_every_scale(monkeypatch, name, fold):
    spec = build_canonical(name)
    masks = undominated_masks(c.free_mask for c in spec.components)
    ncombos = len(_combos(len(masks), fold))
    emit = spec.depth - (fold - 1).bit_length()
    walks = record_walks(monkeypatch)
    # one scale: one walk per combination, from the scale down to position 1
    sum_prefix_counts(spec, fold, [spec.depth], mode="bracket")
    assert len(walks) == ncombos
    for _, positions in walks.values():
        assert positions == collections.Counter(range(1, emit + 1))
    walks.clear()
    # every scale: a stretch is walked once from each nonempty carry set
    # met there, so at most 2^fold - 1 walks cover any position
    sum_prefix_counts(spec, fold, range(1, spec.depth + 1), mode="bracket")
    assert len(walks) == ncombos
    most = max(max(positions.values()) for _, positions in walks.values())
    assert 1 < most <= 2**fold - 1


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
        assert list(_free_count_runs(table)) == list(plain_runs(table)), fold
    masks, combos, _ = lone_setup(spec, 1, [])
    runs = list(_free_count_runs(_segments(masks, spec.depth, combos)))
    if not any(masks):
        assert runs == [([1, spec.depth + 1], [0])]
    if tuple(rows) in PINNED_RUNS:
        assert runs == [PINNED_RUNS[tuple(rows)]]


def test_undominated_masks_drops_duplicates_and_submasks():
    assert undominated_masks([0b0110, 0b1110, 0b0110, 0b0001, 0b0000]) == [0b1110, 0b0001]
    assert undominated_masks([0b101, 0b011]) == [0b101, 0b011]
    canonical = build_canonical("all-dims-3")
    assert len(canonical.components) == 18
    assert len(undominated_masks(c.free_mask for c in canonical.components)) == 15
    # the benchmark's deep-bracket spec: acceptance 7's interleave at horizon 120
    scales = make_scale_sequence("scaled", 120, 4)

    def half(fams):
        targets = DimensionTargets(*(tuple(map(Fraction, f)) for f in fams))
        return build_example("all-dims-3", targets, scales)

    prime = half((("1/4", "1/2", "5/8"), ("1/4", "1/2", "5/8"), ("1/4", "1/2", "3/4")))
    flat = half((("1/2",) * 3,) * 3)
    deep = interleave(prime, flat, (1, 22, 72, 121))
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
    # row s of M_f^r against r single steps of M_f from the unit vector at s
    for fold, f, s in run_cases():
        one = _transfer_power(fold, f, 0)
        vec = ((s, 1),)
        for r in range(1, max(RUN_LENGTHS) + 1):
            vec = _times(vec, one)
            if r in RUN_LENGTHS:
                assert dict(_run_row(fold, f, r, s)) == dict(vec), (fold, f, r, s)
        assert _run_row(fold, f, 0, s) == ((s, 1),)


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
    # a run's overlap with a stretch, r positions with f addends free, is one
    # product with rows of M_f^r (r clamped to the carry width when f = 0):
    # no stepping by powers of two, each carry set of the vector looked up once
    spec = build_canonical("pair-hausdorff")
    fold = 3
    width = (fold - 1).bit_length()
    walks = []  # per stretch: its runs' (f, r) and the rows it looked up
    real_row, real_stretch = engine._run_row, engine._stretch

    def row(fold, f, r, s):
        walks[-1][1].append((f, r, s))
        return real_row(fold, f, r, s)

    def stretch(runs, hi, lo, carry_set, fold):
        steps = [(f, r if f else min(r, width)) for f, r in _run_steps(runs, hi, lo)]
        walks.append((steps, []))
        return real_stretch(runs, hi, lo, carry_set, fold)

    monkeypatch.setattr(engine, "_run_row", row)
    monkeypatch.setattr(engine, "_stretch", stretch)
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
