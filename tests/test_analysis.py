"""Dimension diagnostics: exponent traces, OFF, rendering."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdim.analysis import (
    CountTrace,
    TraceEntry,
    count_trace,
    default_scales,
    log2_big,
    off_trace,
    predicted_exponent,
    render_count_trace_csv,
    render_off_trace_csv,
)
from sumdim.constructions import CANONICAL_EXAMPLES, build_canonical
from sumdim.engine import brute_force_oracle, sum_prefix_counts
from sumdim.errors import ScaleError
from sumdim.patterns import from_json_dict

from helpers import from_rows, reference_predicted_exponent
from test_acceptance import _oracle_corpus

F = Fraction


def test_log2_big_handles_word_sized_and_huge_counts():
    assert log2_big(1) == 0.0
    assert log2_big(1 << 10) == 10.0
    assert log2_big(1 << 200) == 200.0
    assert abs(log2_big(3 << 100) - (math.log2(3) + 100)) < 1e-9
    with pytest.raises(ValueError):
        log2_big(0)


def test_predicted_exponent_picks_best_multiset():
    spec = from_rows(["a0a0", "0aaa"])
    assert predicted_exponent(spec, 1, 4) == F(3, 4)
    # fold 2 window sits one digit higher: masks shift by 1
    assert predicted_exponent(spec, 2, 4) == F(3, 4)
    assert predicted_exponent(spec, 2, 2) == F(1, 2)
    with pytest.raises(ScaleError):
        predicted_exponent(spec, 1, 0)
    with pytest.raises(ScaleError):
        predicted_exponent(spec, 1, 5)


def test_predicted_exponent_matches_the_reference_on_the_oracle_corpus():
    for spec in _oracle_corpus():
        for fold in (1, 2, 3, 4):
            for j in range(1, spec.depth + 1):
                want = reference_predicted_exponent(spec, fold, j)
                assert predicted_exponent(spec, fold, j) == want, (spec.name, fold, j)


@pytest.mark.parametrize("scale", [2.5, "5", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda spec, j: count_trace(spec, 2, scales=[j]), id="count_trace"),
        pytest.param(lambda spec, j: off_trace(spec, scales=[j]), id="off_trace"),
        pytest.param(lambda spec, j: sum_prefix_counts(spec, 2, [j]), id="sum_prefix_counts"),
        pytest.param(lambda spec, j: brute_force_oracle(spec, 2, j), id="brute_force_oracle"),
    ],
)
def test_a_scale_that_is_not_an_int_is_a_scale_error(call, scale):
    # none of them rounds, parses or keys a result by a non-int scale
    with pytest.raises(ScaleError, match="is not an integer"):
        call(from_rows(["a0a0", "0aaa"]), scale)


@pytest.mark.parametrize("name", sorted(CANONICAL_EXAMPLES))
def test_predicted_exponent_matches_the_reference_on_the_canonical_specs(name):
    # every scale covers the default ones; the deepest spec has 4,098
    spec = build_canonical(name)
    for fold in (1, 2, 3):
        for j in range(1, spec.depth + 1):
            want = reference_predicted_exponent(spec, fold, j)
            assert predicted_exponent(spec, fold, j) == want, (fold, j)
        trace = count_trace(spec, fold)  # default scales, bracket mode
        for e in trace.entries:
            assert e.predicted == reference_predicted_exponent(spec, fold, e.scale)


@st.composite
def specs(draw):
    depth = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << depth) - 1), min_size=1, max_size=6))
    return from_rows([format(m, f"0{depth}b").replace("1", "a") for m in masks])


@given(specs(), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_predicted_exponent_matches_the_reference_on_random_specs(spec, fold):
    for j in range(1, spec.depth + 1):
        assert predicted_exponent(spec, fold, j) == reference_predicted_exponent(spec, fold, j)


def test_predicted_exponent_shifts_by_each_specs_own_depth():
    # "0a" and "a" share the free-mask int 1, and so the cached unions
    deep, shallow = from_rows(["0a"]), from_rows(["a"])
    assert predicted_exponent(deep, 1, 1) == 0
    assert predicted_exponent(shallow, 1, 1) == 1
    assert predicted_exponent(deep, 1, 2) == F(1, 2)
    for spec in (deep, shallow, deep):
        for j in range(1, spec.depth + 1):
            assert predicted_exponent(spec, 1, j) == reference_predicted_exponent(spec, 1, j)


def test_default_scales_merges_boundaries_and_notables():
    spec = build_canonical("haus-lowbox")
    got = default_scales(spec)
    boundary = {15, 23, 32, 40, 50, 62, 76, 84, 93, 103, 114, 126}
    notable = {16, 32, 48, 65, 81, 99, 126}
    assert got == tuple(sorted(boundary | notable))
    bare = from_rows(["a0a"])
    assert default_scales(bare) == (3,)


def test_default_scales_rejects_a_token_that_is_not_an_integer():
    spec = from_json_dict({"components": ["a0a"], "depth": 3, "params": {"notable_scales": "2,y"}})
    with pytest.raises(ScaleError, match="'y'"):
        default_scales(spec)


def test_count_trace_exact_mode_entries():
    spec = from_rows(["a0a0", "0aaa"])
    tr = count_trace(spec, 2, scales=[4, 2, 2], mode="exact")
    assert tr.fold == 2
    assert tuple(e.scale for e in tr.entries) == (2, 4)  # deduplicated and sorted
    for e in tr.entries:
        assert e.lower == e.upper
        assert e.mode == "exact"
        assert e.exp_lower == e.exp_upper == log2_big(e.lower) / e.scale
        assert e.predicted == predicted_exponent(spec, 2, e.scale)


def test_count_trace_bracket_mode_brackets_exact():
    spec = build_canonical("haus-lowbox")
    scales = default_scales(spec)[:4]
    br = count_trace(spec, 2, scales=scales)  # bracket is the default mode
    ex = count_trace(spec, 2, scales=scales, mode="exact")
    for b, e in zip(br.entries, ex.entries):
        assert b.lower <= e.lower <= e.upper <= b.upper
        assert b.mode == "bracket" and e.mode == "exact"


def test_count_trace_all_scales():
    spec = from_rows(["aa0"])
    tr = count_trace(spec, 1, scales="all", mode="exact")
    assert tuple(e.scale for e in tr.entries) == (1, 2, 3)
    assert [e.lower for e in tr.entries] == [2, 4, 4]


def test_off_trace_exact_rationals():
    spec = from_rows(["a000", "0aaa"])
    assert off_trace(spec, [4]) == ((4, F(1, 4)),)
    dense = from_rows(["aaaa"])
    assert off_trace(dense, [2, 4]) == ((2, F(1)), (4, F(1)))


def test_render_count_trace_csv():
    spec = from_rows(["aa0"])
    tr = count_trace(spec, 1, scales=[3], mode="exact")
    text = render_count_trace_csv(tr, header="hdr")
    lines = text.splitlines()
    assert lines[0] == "# hdr"
    assert lines[1] == "j,fold,lower,upper,exp_lower,exp_upper,predicted,mode"
    assert lines[2].startswith("3,1,4,4,")
    assert lines[2].endswith(",exact")
    assert text.endswith("\n")
    assert render_count_trace_csv(tr).splitlines()[0].startswith("j,fold")


def test_render_count_trace_csv_writes_counts_of_any_size():
    big = 10**4999 + 7  # 5,000 digits: past the interpreter's int-to-str limit
    entry = TraceEntry(9000, 2, big, 3 * big, 1.0, 1.0, F(1), "bracket")
    line = render_count_trace_csv(CountTrace(2, (entry,))).splitlines()[1]
    assert line.split(",")[2:4] == ["1" + "0" * 4998 + "7", "3" + "0" * 4997 + "21"]


def test_render_off_trace_csv():
    text = render_off_trace_csv(((4, F(1, 4)),), header="off")
    assert text == "# off\nn,off,off_num,off_den\n4,0.25,1,4\n"
