"""Counting engine vs the definitional brute-force oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdim.engine import (
    CellCountBracket,
    branching_min_average,
    brute_force_oracle,
    free_position_sets,
    iterated_pattern_sums,
    sum_prefix_counts,
)
from sumdim.errors import BudgetExceededError, ScaleError
from sumdim.patterns import DigitPattern, SetSpec


def all_free(depth):
    return SetSpec((DigitPattern.all_free(depth),), depth)


def test_bracket_invariants():
    b = CellCountBracket(3, 7)
    assert not b.is_exact
    assert CellCountBracket(4, 4).is_exact
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
    spec = SetSpec.from_rows(["0" * 8 + "aa"])
    for fold in (1, 2, 3):
        for j in range(0, 5):
            r = sum_prefix_counts(spec, fold, [j])[j]
            assert r.bracket.lower == r.bracket.upper == 1, (fold, j)


def test_fold1_counts_equal_prefix_counts():
    spec = SetSpec.from_rows(["a0a0aa", "0aa00a", "aaa000"])
    for j in range(0, 7):
        r = sum_prefix_counts(spec, 1, [j])[j]
        assert r.bracket == brute_force_oracle(spec, 1, j)


def test_oracle_agrees_on_mixed_spec():
    spec = SetSpec.from_rows(["a00a0a", "0aaa00"])
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
    return SetSpec.from_rows(rows)


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


def test_scale_bounds_checked():
    spec = all_free(4)
    with pytest.raises(ScaleError):
        sum_prefix_counts(spec, 2, [5])
    with pytest.raises(ScaleError):
        brute_force_oracle(spec, 1, -1)


def test_enumeration_budget_enforced():
    spec = all_free(30)
    with pytest.raises(BudgetExceededError):
        iterated_pattern_sums(spec, 2, budget=1 << 10)


def test_state_budget_falls_back_to_bracket():
    rows = ["a" * 7, "a0a0a00", "0a0a0a0"]
    spec = SetSpec.from_rows(rows)
    res = sum_prefix_counts(spec, 3, [7], mode="exact", state_budget=2)[7]
    assert res.fell_back
    assert res.mode == "bracket"
    want = brute_force_oracle(spec, 3, 7).lower
    assert res.bracket.lower <= want <= res.bracket.upper


def test_free_position_sets_indexing():
    spec = SetSpec.from_rows(["a00", "0a0"])
    fs = free_position_sets(spec)
    assert fs[1] == 0b01  # component 0 free at position 1
    assert fs[2] == 0b10
    assert fs[3] == 0


def test_branching_min_average_prefers_quiet_paths():
    # choosing digit 1 at position 1 isolates the first component,
    # whose remaining positions are forced
    spec = SetSpec.from_rows(["a000", "0aaa"])
    assert branching_min_average(spec, [4])[4].numerator == 1
    # the all-zero path still sees union branching at every position
    dense = SetSpec.from_rows(["aaaa"])
    assert branching_min_average(dense, [4]) == {4: 1}


@given(small_specs())
@settings(max_examples=30, deadline=None)
def test_branching_bound_is_attained_by_some_leaf(spec):
    # 2^(n * OFF_n) never exceeds the number of distinct prefixes
    n = spec.depth
    off = branching_min_average(spec, [n])[n]
    assert 2 ** (n * float(off)) <= brute_force_oracle(spec, 1, n).lower + 1e-9
