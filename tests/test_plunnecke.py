"""Exact sumset growth and window-count checks."""

import hashlib
import json
import random

import pytest

from sumdim.errors import ScaleError
from sumdim.plunnecke import (
    GRID,
    FiniteIntSet,
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


def test_finite_int_set_basics():
    s = FiniteIntSet.of([1, 0, 1])
    assert len(s) == 2
    assert s.values == (0, 1)
    assert s.sumset(FiniteIntSet.of([0, 2])).values == (0, 1, 2, 3)
    assert s.iterated(3).values == (0, 1, 2, 3)
    assert FiniteIntSet(0).values == ()
    with pytest.raises(ValueError):
        FiniteIntSet.of([-1])
    with pytest.raises(ValueError):
        s.iterated(0)


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


def test_ruzsa_check_pinned_pair():
    e = FiniteIntSet.of([0, 1])
    res = ruzsa_check(e, e, 2)
    assert res["ok"]
    assert res["ratio"] == "3/2"
    assert res["size_e_plus_f"] == 3
    assert res["size_fold_f"] == 3
    assert ruzsa_check(e, e, 1)["ok"]
    with pytest.raises(ValueError):
        ruzsa_check(e, e, 0)
    with pytest.raises(ValueError):
        ruzsa_check(FiniteIntSet(0), e, 2)


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
    assert res["ok"]
    assert res["j_star"] in (1, 2, 4)
    assert len(res["scales"]) == 3
    assert all(row["ok"] for row in res["scales"])
    assert res["derived_exponent"] == pytest.approx(
        2 * res["dim_ab_at_j_star"] - res["dim_a_at_j_star"]
    )
    with pytest.raises(ValueError):
        prop31_check(a, b, 2, [])
    with pytest.raises(ValueError):
        prop31_check(a, b, 0, [1])


def test_random_generators_are_bounded():
    rng = random.Random(3)
    for _ in range(20):
        s = random_int_set(rng, max_size=10, max_value=64)
        assert 1 <= len(s) <= 10
        assert all(v < 64 for v in s.values)
        p = random_point_sample(rng, max_size=6, max_scale=4)
        assert 1 <= len(p) <= 6
        # points in [0, 2) with denominators dividing 3 * 2^4
        assert all(0 <= v < 2 * GRID and v % (GRID // 48) == 0 for v in p.values)
    with pytest.raises(ValueError):
        random_point_sample(rng, max_scale=13)


def test_suites_pass_and_are_deterministic():
    r1 = ruzsa_suite(7, pairs=25)
    assert r1 == ruzsa_suite(7, pairs=25)
    assert r1["ok"] and r1["cases"] == 50 and r1["failures"] == []
    c1 = cover_suite(7, samples=20, max_scale=8)
    assert c1 == cover_suite(7, samples=20, max_scale=8)
    assert c1["ok"] and c1["cases"] == 20
    p1 = prop31_suite(7, samples=20, max_scale=8)
    assert p1 == prop31_suite(7, samples=20, max_scale=8)
    assert p1["ok"] and p1["cases"] == 20


@pytest.mark.parametrize(
    "suite, digest",
    [
        (cover_suite, "45c1ade87623f3aa27cced25bd45660be7d38d07767c98f648ca74efc42c3356"),
        (prop31_suite, "7fab99bcbc0f8640115b52c5ab58040d481dd4f2e1e3bb94e8bc0d1e9ab2d837"),
    ],
    ids=["cover", "prop31"],
)
def test_full_size_suite_reports_are_pinned(suite, digest):
    # the digests were taken from reports computed with Fraction points
    report = json.dumps(suite(0), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest
