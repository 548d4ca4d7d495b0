"""Exact sumset growth and window-count checks."""

import hashlib
import json
import random
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import string_values
from sumdim import plunnecke
from sumdim.errors import ScaleError
from sumdim.plunnecke import (
    DENSE_POINTS,
    GRID,
    GRID_SCALE,
    FiniteIntSet,
    cells,
    cover_suite,
    dyadic_count,
    prop31_check,
    prop31_suite,
    random_int_set,
    random_point_sample,
    ruzsa_check,
    ruzsa_suite,
    sumset_cover_bound_check,
)


def grid(*points):
    """The point sample of rationals given as (numerator, denominator) pairs."""
    return FiniteIntSet.of(num * GRID // den for num, den in points)


def reference_dyadic_count(points, scale, width=1):
    """Window count through Python sets, the differential reference."""
    cell_set = {(v << scale) // GRID for v in points.values}
    return len({c - s for c in cell_set for s in range(width) if c >= s})


def test_finite_int_set_basics():
    s = FiniteIntSet.of([1, 0, 1])
    assert len(s) == 2
    assert s.values == (0, 1)
    assert s.sumset(FiniteIntSet.of([0, 2])).values == (0, 1, 2, 3)
    assert FiniteIntSet(0).values == ()
    with pytest.raises(ValueError):
        FiniteIntSet.of([-1])


@given(
    st.one_of(
        st.frozensets(st.integers(0, (1 << 16) - 1), max_size=2000),
        st.integers(0, 16).map(lambda b: {(1 << b) - 1}),
    )
)
@example(frozenset())
@example({(1 << 16) - 1})
@settings(max_examples=300, deadline=None)
def test_values_match_the_string_decoder(bits):
    # up to 2,000 bits over 2^16 positions, and a single high bit (or bit 0)
    mask = sum(1 << v for v in bits)
    assert FiniteIntSet(mask).values == string_values(mask) == tuple(sorted(bits))


def test_a_negative_mask_is_refused():
    # -3 is ...11101 in two's complement: it read as {0, 1} before
    with pytest.raises(ValueError):
        FiniteIntSet(-3)


@pytest.mark.parametrize("mask", [True, 1.5, -1])
def test_a_mask_that_is_not_a_nonnegative_int_is_refused(mask):
    # True read as {0}, and 1.5 was accepted until formatting it failed
    with pytest.raises(ValueError, match="mask must be"):
        FiniteIntSet(mask)


def test_point_sample_sorts_and_dedupes():
    s = grid((1, 2), (2, 4), (1, 4))
    assert s.values == (GRID // 4, GRID // 2)
    assert len(s) == 2
    t = s.sumset(grid((0, 1), (1, 4)))
    assert t.values == (GRID // 4, GRID // 2, 3 * GRID // 4)
    # thirds lie on the grid too
    assert grid((1, 3), (2, 3)).values == (GRID // 3, 2 * GRID // 3)


def test_dyadic_count_point_samples_and_int_sets():
    assert dyadic_count(grid((0, 1), (1, 1)), 1) == 2
    # 1/3 and 1/2 lie in cells 1 and 2 at scale 2; at width 2 the windows
    # meeting them, {0, 1} and {1, 2}, share window 1: three in all
    thirds = grid((1, 3), (1, 2))
    assert dyadic_count(thirds, 2) == 2
    assert dyadic_count(thirds, 2, width=2) == 3
    # windows start at i >= 0: a point in cell 0 meets one window
    assert dyadic_count(grid((0, 1)), 5, width=3) == 1
    with pytest.raises(ScaleError):
        dyadic_count(grid((0, 1)), -1)
    with pytest.raises(ValueError):
        dyadic_count(grid((0, 1)), 1, width=0)


def test_cells_are_the_scale_cells_the_points_meet():
    # 1/3 and 1/2 lie in cells 1 and 2 at scale 2, both in cell 0 at scale 0
    thirds = grid((1, 3), (1, 2))
    assert cells(thirds, 2).values == (1, 2)
    assert cells(thirds, 0).values == (0,)
    # past the grid's own scale a point still lands in one cell
    assert cells(grid((1, 3)), 14).values == ((1 << 14) // 3,)
    assert cells(FiniteIntSet(0), 5) == FiniteIntSet(0)
    with pytest.raises(ScaleError):
        cells(thirds, -1)




@st.composite
def dense_point_sets(draw):
    """Sumsets of 2-3 point samples, or 64-2,000 numerators drawn at random."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        parts = [random_point_sample(rng) for _ in range(draw(st.integers(2, 3)))]
        return reduce(FiniteIntSet.sumset, parts)
    return FiniteIntSet.of(rng.sample(range(2 * GRID), draw(st.integers(DENSE_POINTS, 2000))))


@given(
    st.one_of(
        st.frozensets(st.integers(0, 2 * GRID - 1), max_size=40).map(FiniteIntSet.of),
        dense_point_sets(),
    ),
    st.integers(0, 14),
    st.integers(1, 4),
)
@settings(max_examples=500, deadline=None)
def test_dyadic_count_matches_the_set_reference(points, scale, width):
    # small sets take the per-point map of ``cells``, dense ones its fold
    assert dyadic_count(points, scale, width) == reference_dyadic_count(points, scale, width)


@pytest.mark.parametrize("scale", range(GRID_SCALE + 1))
def test_dense_cells_split_at_every_block_edge(scale):
    # a cell is a block of m numerators: c * m - 1 ends cell c - 1, c * m starts cell c
    m = GRID >> scale
    edges = range(2, 2 + 3 * DENSE_POINTS // 2, 3)
    points = FiniteIntSet.of(v for c in edges for v in (c * m - 1, c * m))
    assert len(points) >= DENSE_POINTS
    assert cells(points, scale).values == tuple(x for c in edges for x in (c - 1, c))


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_ruzsa_chain_matches_a_sumset_per_fold(seed, folds):
    # the suite builds E + F once and lF as F, 2F, 3F, ...; the reference
    # builds both afresh at every fold
    rng = random.Random(seed)
    e, f = random_int_set(rng), random_int_set(rng)
    for fold, res in zip(folds, plunnecke._ruzsa_checks(e, f, folds), strict=True):
        assert res == ruzsa_check(e, f, fold)
        assert res["fold"] == fold
        assert res["size_e_plus_f"] == len({x + y for x in e.values for y in f.values})
        assert res["size_fold_f"] == len(reduce(FiniteIntSet.sumset, [f] * fold))


def test_ruzsa_check_pinned_pair():
    e = FiniteIntSet.of([0, 1])
    res = ruzsa_check(e, e, 2)
    assert res["ok"]
    assert res["ratio"] == "3/2"
    assert res["size_e_plus_f"] == 3
    assert res["size_fold_f"] == 3
    assert ruzsa_check(e, e, 1)["ok"]
    # l-fold sums of F = {0, 1, 3}: {0, 1, 3}, {0..4, 6}, {0..7, 9}
    f = FiniteIntSet.of([0, 1, 3])
    assert [ruzsa_check(e, f, fold)["size_fold_f"] for fold in (1, 2, 3)] == [3, 6, 9]
    assert [ruzsa_check(e, e, fold)["size_fold_f"] for fold in (1, 2, 3)] == [2, 3, 4]
    with pytest.raises(ValueError):
        ruzsa_check(e, e, 0)
    with pytest.raises(ValueError):
        ruzsa_check(FiniteIntSet(0), e, 2)


@pytest.mark.parametrize("fold", [True, 2.5, "2"])
def test_a_fold_that_is_not_a_positive_int_is_a_value_error(fold):
    # True ran as fold 1 and 2.5 raised a bare TypeError
    e = FiniteIntSet.of([0, 1])
    with pytest.raises(ValueError):
        ruzsa_check(e, e, fold)
    with pytest.raises(ValueError):
        prop31_check(grid((0, 1)), grid((1, 2)), fold, [1])


@pytest.mark.parametrize("width", [0, True, 2.0])
def test_a_width_that_is_not_a_positive_int_is_refused_before_any_cell(width, monkeypatch):
    # True counted at width 1, and width 0 was refused only after the cells were built
    def no_cells(points, scale):
        raise AssertionError("cells built before the width was checked")

    monkeypatch.setattr(plunnecke, "cells", no_cells)
    with pytest.raises(ValueError):
        dyadic_count(grid((0, 1)), 2, width)


@pytest.mark.parametrize("scale", [True, 2.0, 1.5])
def test_a_scale_that_is_not_a_nonnegative_int_is_a_scale_error(scale):
    # 2.0 and 1.5 raised a bare TypeError
    points = grid((0, 1), (1, 2))
    with pytest.raises(ScaleError):
        cells(points, scale)
    with pytest.raises(ScaleError):
        dyadic_count(points, scale)
    with pytest.raises(ScaleError):
        prop31_check(points, points, 2, [1, scale])


def test_sumset_cover_bound_check_fields():
    a = grid((0, 1), (1, 2))
    b = grid((0, 1), (1, 4))
    res = sumset_cover_bound_check([a, b], 2)
    assert res["ok"]
    assert res["fold"] == 2
    assert res["width"] == 2
    assert res["count_sumset"] == 4
    assert res["count_index_sums"] == 4
    with pytest.raises(ValueError):
        sumset_cover_bound_check([], 2)


def test_prop31_check_fields():
    a = grid((0, 1), (1, 2))
    b = grid((0, 1), (1, 4), (1, 2))
    res = prop31_check(a, b, 2, [1, 2, 4])
    assert res.keys() == {"check", "fold", "scales", "ok"}
    assert res["ok"]
    assert len(res["scales"]) == 3
    assert all(row["ok"] for row in res["scales"])
    with pytest.raises(ValueError):
        prop31_check(a, b, 2, [])
    with pytest.raises(ValueError):
        prop31_check(a, b, 0, [1])


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 14), min_size=1, max_size=5),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_prop31_rows_match_a_count_per_scale(seed, scales, fold):
    # prop31 coarsens A + B's cells from its finest scale, past GRID_SCALE
    # too; the reference counts A + B afresh at every scale
    rng = random.Random(seed)
    a, b = (random_point_sample(rng) for _ in range(2))
    ab = a.sumset(b)
    rows = prop31_check(a, b, fold, scales)["scales"]
    assert [row["scale"] for row in rows] == sorted(set(scales))
    for row in rows:
        j = row["scale"]
        assert row["count_ab_width2"] == dyadic_count(ab, j, 2)
        assert row["count_a"] == dyadic_count(a, j)
        assert row["count_b_width_fold"] == dyadic_count(b, j, fold)


def test_random_generators_are_bounded():
    rng = random.Random(3)
    for _ in range(200):
        s = random_int_set(rng)
        assert 1 <= len(s) <= 64
        assert all(v < 4096 for v in s.values)
        # points in [0, 2) on the grid, whose denominator 3 * 2^12 is the finest drawn
        p = random_point_sample(rng)
        assert 1 <= len(p) <= 24
        assert all(0 <= v < 2 * GRID for v in p.values)


def test_empty_sets_are_refused_before_any_cell_is_built(monkeypatch):
    # an empty A once reached log2_big's "nonpositive count" in prop31, and
    # an empty sample passed the cover check
    built = []
    real = plunnecke.cells
    monkeypatch.setattr(plunnecke, "cells", lambda points, scale: built.append(scale) or real(points, scale))
    a, empty = grid((0, 1), (1, 2)), FiniteIntSet(0)
    calls = [
        lambda: ruzsa_check(empty, a, 2),
        lambda: ruzsa_check(a, empty, 2),
        lambda: prop31_check(empty, a, 2, [1, 2]),
        lambda: prop31_check(a, empty, 3, [1]),
        lambda: sumset_cover_bound_check([empty], 1),
        lambda: sumset_cover_bound_check([a, empty, a], 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="sets must be nonempty"):
            call()
    assert not built


@pytest.mark.parametrize("suite", [ruzsa_suite, cover_suite, prop31_suite],
                         ids=["ruzsa", "cover", "prop31"])
def test_a_negative_seed_is_a_value_error(suite):
    # Random(-1) draws as Random(1) does: the report would record seed 1's
    # cases under seed -1
    assert random.Random(-1).random() == random.Random(1).random()
    with pytest.raises(ValueError, match="at least 0, got -1"):
        suite(-1)


def sha256_json(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "suite, digest, records_digest",
    [
        (
            ruzsa_suite,
            "216a1502bcec91c90c1054956bcc539f4cfa57ab04e2293371939c3b4dca8e23",
            "34c6a29f32deb4c674ccf31a611dee13410519bd278fc81536334c91997e5de9",
        ),
        (
            cover_suite,
            "45c1ade87623f3aa27cced25bd45660be7d38d07767c98f648ca74efc42c3356",
            "64527cd094bfcd1a4013a4c1612d0237ba56af9fd2f1946eb0cca881b2fc0dc7",
        ),
        (
            prop31_suite,
            "7fab99bcbc0f8640115b52c5ab58040d481dd4f2e1e3bb94e8bc0d1e9ab2d837",
            "f9cdd9895daadb9839529955dbb7a6ab8f12705bc55a1046206a83083b468175",
        ),
    ],
    ids=["ruzsa", "cover", "prop31"],
)
def test_full_size_suite_reports_are_pinned(suite, digest, records_digest, monkeypatch):
    # the cover and prop31 digests were taken from reports computed with
    # Fraction points, the ruzsa digest before ruzsa_check took over the
    # l-fold sumset from FiniteIntSet.iterated.  A report lists only the
    # failures, so every case's (ok, record) pair is pinned too, passing
    # ones included
    records = []
    run_suite = plunnecke._run_suite

    def recording_run_suite(name, seed, cases):
        def recorded(rng):
            for ok, record in cases(rng):
                records.append([ok, record])
                yield ok, record

        return run_suite(name, seed, recorded)

    monkeypatch.setattr(plunnecke, "_run_suite", recording_run_suite)
    report = suite(0)
    assert len(records) == report["cases"]
    assert sha256_json(report) == digest
    assert sha256_json(records) == records_digest
