"""Exact sumset growth and window-count checks."""

from fractions import Fraction

import pytest

from sumdim.errors import BudgetExceededError, ScaleError
from sumdim.patterns import DigitPattern, SetSpec
from sumdim.plunnecke import (
    FiniteIntSet,
    PointSample,
    cover_suite,
    dyadic_count,
    parse_points,
    prop31_check,
    prop31_suite,
    random_int_set,
    random_point_sample,
    render_points,
    ruzsa_check,
    ruzsa_suite,
    sample_from_spec,
    sumset_cover_bound_check,
)

F = Fraction


def test_finite_int_set_basics():
    s = FiniteIntSet.of([1, 0, 1])
    assert len(s) == 2
    assert s.values == (0, 1)
    assert s.sumset(FiniteIntSet.of([0, 2])).values == (0, 1, 2, 3)
    assert s.iterated(3).values == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        FiniteIntSet.of([-1])
    with pytest.raises(ValueError):
        s.iterated(0)


def test_point_sample_sorts_and_dedupes():
    s = PointSample.of(["1/2", F(1, 2), "0.25"])
    assert s.points == (F(1, 4), F(1, 2))
    assert len(s) == 2
    t = s.sumset(PointSample.of([0, F(1, 4)]))
    assert t.points == (F(1, 4), F(1, 2), F(3, 4))
    with pytest.raises(ValueError):
        PointSample.of([F(-1, 2)])


def test_parse_and_render_points_round_trip():
    text = "# sample\n1/2\n0.625\n\n3\n"
    s = parse_points(text)
    assert s.points == (F(1, 2), F(5, 8), F(3))
    assert render_points(s) == "1/2\n5/8\n3\n"
    assert parse_points(render_points(s)) == s
    with pytest.raises(ValueError, match="line 2"):
        parse_points("1/2\nnope\n")


def test_dyadic_count_point_samples_and_int_sets():
    assert dyadic_count(PointSample.of([0, 1]), 1) == 2
    # width-2 windows ending at cells 0 and 3: three windows total
    assert dyadic_count(FiniteIntSet.of([0, 3]), 5, width=2) == 3
    with pytest.raises(ScaleError):
        dyadic_count(PointSample.of([0]), -1)
    with pytest.raises(ValueError):
        dyadic_count(PointSample.of([0]), 1, width=0)
    with pytest.raises(TypeError):
        dyadic_count([0, 1], 1)


def test_dyadic_count_specs():
    dense = SetSpec((DigitPattern.all_free(3),), 3)
    assert dyadic_count(dense, 3, width=2) == 8
    point = SetSpec.from_rows(["000"])
    assert dyadic_count(point, 2, width=2) == 1
    # scales past the depth spread the same cells 2^(j - depth) apart
    assert dyadic_count(dense, 4) == 8
    with pytest.raises(BudgetExceededError):
        dyadic_count(SetSpec((DigitPattern.all_free(30),), 30), 5, budget=4)


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
    a = PointSample.of([0, F(1, 2)])
    b = PointSample.of([0, F(1, 4)])
    res = sumset_cover_bound_check([a, b], 2)
    assert res["ok"]
    assert res["fold"] == 2
    assert res["width"] == 2
    assert res["count_sumset"] == 4
    assert res["count_index_sums"] == 4
    with pytest.raises(ValueError):
        sumset_cover_bound_check([], 2)


def test_prop31_check_fields():
    a = PointSample.of([0, F(1, 2)])
    b = PointSample.of([0, F(1, 4), F(1, 2)])
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


def test_sample_from_spec_is_seeded_and_admissible():
    spec = SetSpec.from_rows(["a0a"])
    s1 = sample_from_spec(spec, 40, seed=11)
    s2 = sample_from_spec(spec, 40, seed=11)
    assert s1 == s2
    valid = {F(x, 8) for x in (0b000, 0b001, 0b100, 0b101)}
    assert set(s1.points) <= valid
    wide = SetSpec((DigitPattern.all_free(16),), 16)
    assert sample_from_spec(wide, 8, seed=1) != sample_from_spec(wide, 8, seed=2)


def test_random_generators_are_bounded():
    import random

    rng = random.Random(3)
    for _ in range(20):
        s = random_int_set(rng, max_size=10, max_value=64)
        assert 1 <= len(s) <= 10
        assert all(v < 64 for v in s.values)
        p = random_point_sample(rng, max_size=6, max_scale=4)
        assert 1 <= len(p) <= 6
        assert all(0 <= q < 2 for q in p.points)


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
