"""Dimension diagnostics: exponent traces, OFF, freedom checks, rendering."""

import math
from fractions import Fraction

import pytest

from sumdim.analysis import (
    CountTrace,
    TraceEntry,
    count_trace,
    default_scales,
    frequency_report,
    interval_freedom_check,
    log2_big,
    off_trace,
    predicted_exponent,
    render_count_trace_csv,
    render_off_trace_csv,
    targets_of,
)
from sumdim.constructions import DimensionTargets, build_canonical
from sumdim.errors import ScaleError
from sumdim.patterns import SetSpec

F = Fraction


def test_log2_big_handles_word_sized_and_huge_counts():
    assert log2_big(1) == 0.0
    assert log2_big(1 << 10) == 10.0
    assert log2_big(1 << 200) == 200.0
    assert abs(log2_big(3 << 100) - (math.log2(3) + 100)) < 1e-9
    with pytest.raises(ValueError):
        log2_big(0)


def test_predicted_exponent_picks_best_multiset():
    spec = SetSpec.from_rows(["a0a0", "0aaa"])
    assert predicted_exponent(spec, 1, 4) == F(3, 4)
    # fold 2 window sits one digit higher: masks shift by 1
    assert predicted_exponent(spec, 2, 4) == F(3, 4)
    assert predicted_exponent(spec, 2, 2) == F(1, 2)
    with pytest.raises(ScaleError):
        predicted_exponent(spec, 1, 0)
    with pytest.raises(ScaleError):
        predicted_exponent(spec, 1, 5)


def test_default_scales_merges_boundaries_and_notables():
    spec = build_canonical("haus-lowbox")
    got = default_scales(spec)
    boundary = {15, 23, 32, 40, 50, 62, 76, 84, 93, 103, 114, 126}
    notable = {16, 32, 48, 65, 81, 99, 126}
    assert got == tuple(sorted(boundary | notable))
    bare = SetSpec.from_rows(["a0a"])
    assert default_scales(bare) == (3,)


def test_count_trace_exact_mode_entries():
    spec = SetSpec.from_rows(["a0a0", "0aaa"])
    tr = count_trace(spec, 2, scales=[4, 2, 2], mode="exact")
    assert tr.fold == 2
    assert tr.scales == (2, 4)  # deduplicated and sorted
    for e in tr.entries:
        assert e.lower == e.upper
        assert e.mode == "exact"
        assert e.exp_lower == e.exp_upper == log2_big(e.lower) / e.scale
        assert e.predicted == predicted_exponent(spec, 2, e.scale)
    assert tr.max_upper() >= tr.min_lower()


def test_count_trace_bracket_mode_brackets_exact():
    spec = build_canonical("haus-lowbox")
    scales = default_scales(spec)[:4]
    br = count_trace(spec, 2, scales=scales)  # bracket is the default mode
    ex = count_trace(spec, 2, scales=scales, mode="exact")
    for b, e in zip(br.entries, ex.entries):
        assert b.lower <= e.lower <= e.upper <= b.upper
        assert b.mode == "bracket" and e.mode == "exact"


def test_count_trace_all_scales():
    spec = SetSpec.from_rows(["aa0"])
    tr = count_trace(spec, 1, scales="all", mode="exact")
    assert tr.scales == (1, 2, 3)
    assert [e.lower for e in tr.entries] == [2, 4, 4]


def test_off_trace_exact_rationals():
    spec = SetSpec.from_rows(["a000", "0aaa"])
    assert off_trace(spec, [4]) == ((4, F(1, 4)),)
    dense = SetSpec.from_rows(["aaaa"])
    assert off_trace(dense, [2, 4]) == ((2, F(1)), (4, F(1)))


def test_interval_freedom_check_small_specs():
    assert interval_freedom_check(SetSpec.from_rows(["aa"]), 1) == (True, 0)
    assert interval_freedom_check(SetSpec.from_rows(["0a"]), 1) == (True, 1)
    # a forced tail digit blocks interval filling entirely
    assert interval_freedom_check(SetSpec.from_rows(["a0"]), 1) == (False, 2)


def test_interval_freedom_check_canonicals():
    pair = build_canonical("pair-hausdorff")
    # single components keep dipping forever; the pair sum is Free everywhere
    assert interval_freedom_check(pair, 1) == (True, 161)
    assert interval_freedom_check(pair, 2) == (True, 0)
    # no triple of all-dims-3 components covers the deepest beta run
    assert interval_freedom_check(build_canonical("all-dims-3"), 3) == (False, 102)


def test_targets_of_round_trip():
    spec = build_canonical("haus-lowbox")
    t = targets_of(spec)
    assert t == DimensionTargets((F(1, 4), F(1, 2)), (F(1, 2), F(1)))
    pair = build_canonical("pair-hausdorff")
    assert targets_of(pair).beta is None
    with pytest.raises(ValueError):
        targets_of(SetSpec.from_rows(["aa"]))


def test_frequency_report_extremal_pair():
    spec = build_canonical("haus-lowbox")
    rec = frequency_report(spec, 12)
    assert rec.k == 12
    assert rec.kinds == ("alpha1", "beta1", "alpha2", "alpha2", "beta2", "alpha1")
    # the mirrored chunk pair covers the whole block
    assert rec.extremal == ("beta1", "beta2")
    assert rec.extremal_frequency == 1
    assert len(rec.frequencies) == 10  # multisets of 2 from 4 kinds
    assert all(0 <= f <= 1 for _, f in rec.frequencies)


def test_frequency_report_needs_chunked_schedule():
    with pytest.raises(ValueError):
        frequency_report(build_canonical("pair-hausdorff"), 3)
    with pytest.raises(ValueError):
        frequency_report(SetSpec.from_rows(["aa"]), 1)


def test_render_count_trace_csv():
    spec = SetSpec.from_rows(["aa0"])
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
