"""Scale skeletons, block templates, named families, and combinators."""

import itertools
import random
from fractions import Fraction

import pytest

from sumdim.constructions import (
    ALL_DIMS_2_ROWS,
    ALL_DIMS_3_TABLE,
    CANONICAL_EXAMPLES,
    CONSTRUCTION_NAMES,
    HAUS_LOWBOX_ROWS,
    BlockParams,
    DimensionTargets,
    PastingPlan,
    ScaleSequence,
    block_params,
    build_canonical,
    build_example,
    chunk_symbols,
    interleave,
    make_block,
    make_scale_sequence,
    paste,
    star_floor,
    validate_targets,
)
from sumdim.errors import AdmissibilityError, ConstructionError, ScaleError

from helpers import from_rows

F = Fraction


# ---------------------------------------------------------------------------
# scale sequences


def test_tower_policy_matches_hand_values():
    seq = make_scale_sequence("tower", 3)
    assert seq.values == (4, 16, 256, 65536)
    assert seq.horizon == 3
    assert seq.depth == 65535


def test_tower_policy_refuses_deep_horizons():
    with pytest.raises(ScaleError):
        make_scale_sequence("tower", 6)


def test_scaled_policy_gap_is_smallest_multiple_of_k():
    seq = make_scale_sequence("scaled", 12, base=8)
    assert seq.values == (8, 16, 24, 33, 41, 51, 63, 77, 85, 94, 104, 115, 127)
    for k in range(1, 13):
        gap = seq.gap(k)
        assert gap % k == 0
        assert gap >= 8
        assert gap - k < 8 or gap == k  # smallest such multiple


def test_geometric_policy_growth_and_divisibility():
    seq = make_scale_sequence("geometric", 6, base=3)
    assert seq.values == (3, 9, 27, 81, 245, 735, 2205)
    for k in range(1, 7):
        assert seq.values[k] >= 3 * seq.values[k - 1]
        assert seq.gap(k) % k == 0


def test_scale_sequence_validation():
    with pytest.raises(ScaleError):
        ScaleSequence((1, 2))  # n_1 too small
    with pytest.raises(ScaleError):
        ScaleSequence((4,))  # no block
    with pytest.raises(ScaleError):
        ScaleSequence((4, 4))  # not increasing
    with pytest.raises(ScaleError):
        ScaleSequence((4, 8, 13))  # block 2 width 5 not divisible by 2
    with pytest.raises(ScaleError):
        make_scale_sequence("scaled", 1)
    with pytest.raises(ScaleError):
        make_scale_sequence("geometric", 4, base=1)
    with pytest.raises(ScaleError):
        make_scale_sequence("cubic", 4)


def test_star_floor():
    assert star_floor(4, F(1, 2), 100, 1) == 8
    assert star_floor(4, F(1, 3), 5, 1) == 9  # clipped to start + gap
    assert star_floor(4, 0, 100, 2) == 8  # vanishing target: index * start
    assert star_floor(5, F(1, 3), 100, 1) == 15
    with pytest.raises(AdmissibilityError):
        star_floor(4, F(3, 2), 100, 1)


# ---------------------------------------------------------------------------
# block templates


HL = DimensionTargets((F(1, 4), F(1, 2)), (F(1, 2), F(1, 1)))


def test_block_params_floors_and_zero_runs():
    scales = make_scale_sequence("scaled", 12, base=8)
    par = block_params(4, HL, scales, "lower-box-only")
    assert (par.l, par.m) == (2, 4)
    assert par.s is None and par.p is None
    # deficit n_k*(beta_i - alpha_i)/alpha_i = 33 for both indices at k=4
    assert par.d == (32, 32)


def test_chunk_symbols_templates():
    par = BlockParams(k=4, l=2, m=4)
    assert chunk_symbols("beta1", par) == "aa00"
    assert chunk_symbols("beta2", par) == "00aa"
    par12 = BlockParams(k=12, l=6, m=12)
    assert chunk_symbols("beta1", par12) == "a" * 6 + "0" * 6
    assert chunk_symbols("beta2", par12) == "0" * 6 + "a" * 6
    par3 = BlockParams(k=8, l=4, m=6, s=7, p=4, q=6, v=7)
    assert chunk_symbols("beta3", par3) == "00aaa0a0"
    assert chunk_symbols("gamma3", par3) == "00aaa0a0"


def test_chunk_template_inequalities_enforced():
    with pytest.raises(AdmissibilityError, match="l_k <= m_k"):
        chunk_symbols("beta2", BlockParams(k=4, l=3, m=2))
    with pytest.raises(AdmissibilityError, match="s_k <= l_k"):
        chunk_symbols("beta3", BlockParams(k=8, l=2, m=3, s=6))
    with pytest.raises(AdmissibilityError, match="m_k <= s_k"):
        chunk_symbols("beta3", BlockParams(k=8, l=2, m=3, s=2))
    with pytest.raises(ConstructionError):
        chunk_symbols("delta1", BlockParams(k=4, l=2))


def test_make_block_tiles_and_saturates():
    scales = make_scale_sequence("scaled", 12, base=8)
    par = block_params(4, HL, scales, "lower-box-only")
    blk = make_block("beta1", 4, par, scales)
    assert blk.symbols() == "aa00" * 2  # gap(4) = 8 tiled by k = 4
    # both alpha zero runs exceed the block: fully forced
    assert make_block("alpha1", 4, par, scales).symbols() == "0" * 8
    assert make_block("alpha2", 4, par, scales).symbols() == "0" * 8


def test_block_params_rejects_misfit_kinds():
    scales = make_scale_sequence("scaled", 12, base=8)
    with pytest.raises(AdmissibilityError):
        block_params(4, HL, scales, "lower-box-only", kinds=["beta3"])
    with pytest.raises(ScaleError):
        block_params(13, HL, scales, "lower-box-only")
    with pytest.raises(ConstructionError):
        block_params(4, HL, scales, "boxes-only")


# ---------------------------------------------------------------------------
# schedules


def test_schedule_tables_have_specular_halves():
    assert len(HAUS_LOWBOX_ROWS) == 6
    assert HAUS_LOWBOX_ROWS[0] == ("alpha1", "alpha2", "beta1")
    assert HAUS_LOWBOX_ROWS[3] == ("alpha2", "alpha1", "beta2")
    assert len(ALL_DIMS_2_ROWS) == 6
    assert all(len(r) == 6 for r in ALL_DIMS_2_ROWS)
    assert len(ALL_DIMS_3_TABLE) == 18
    assert all(len(r) == 12 for r in ALL_DIMS_3_TABLE)
    # every kind of every family appears somewhere in the 3-fold table
    kinds = {k for row in ALL_DIMS_3_TABLE for k in row}
    assert kinds == {
        f"{fam}{i}" for fam in ("alpha", "beta", "gamma") for i in (1, 2, 3)
    }


# ---------------------------------------------------------------------------
# named families


def test_canonical_registry_is_complete():
    assert set(CANONICAL_EXAMPLES) == set(CONSTRUCTION_NAMES)


@pytest.mark.parametrize("name", CONSTRUCTION_NAMES)
def test_canonical_examples_build(name):
    spec = build_canonical(name)
    keys = CANONICAL_EXAMPLES[name]
    seq = make_scale_sequence(keys["scale_policy"], keys["horizon"], keys["scale_base"])
    assert spec.depth == seq.depth
    assert spec.boundaries == seq.values
    assert spec.param("construction") == name
    assert spec.name == name


def test_canonical_component_counts():
    assert len(build_canonical("pair-hausdorff").components) == 2
    assert len(build_canonical("triple-hausdorff").components) == 3
    assert len(build_canonical("haus-lowbox").components) == 6
    assert len(build_canonical("all-dims-2").components) == 6
    assert len(build_canonical("all-dims-3").components) == 18


def test_haus_lowbox_notable_scales():
    spec = build_canonical("haus-lowbox")
    got = [int(t) for t in spec.param("notable_scales").split(",")]
    assert got == [16, 32, 48, 65, 81, 99, 126]


def test_pair_hausdorff_vanishing_top_target_drops_component():
    scales = make_scale_sequence("geometric", 4, base=3)
    spec = build_example(
        "pair-hausdorff", DimensionTargets((F(0), F(0))), scales
    )
    assert len(spec.components) == 1


def test_build_example_rejects_bad_targets():
    scales = make_scale_sequence("scaled", 3, base=4)
    with pytest.raises(ConstructionError):
        build_example("pentuple", HL, scales)
    with pytest.raises(AdmissibilityError, match="alpha_1 <= alpha_2"):
        build_example(
            "pair-hausdorff", DimensionTargets((F(1, 2), F(1, 4))), scales
        )
    with pytest.raises(AdmissibilityError, match=r"beta_2 <= 2\*beta_1"):
        build_example(
            "haus-lowbox",
            DimensionTargets((F(1, 8), F(1, 4)), (F(1, 5), F(1, 2))),
            scales,
        )
    with pytest.raises(AdmissibilityError, match="alpha_1 <= beta_1"):
        build_example(
            "haus-lowbox",
            DimensionTargets((F(1, 2), F(1, 2)), (F(1, 4), F(1, 2))),
            scales,
        )


_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))

# construction -> (targets it needs, how many of alpha, beta, gamma it reads)
_READS = {
    "pair-hausdorff": (2, 1),
    "triple-hausdorff": (3, 1),
    "haus-lowbox": (2, 2),
    "all-dims-2": (2, 3),
    "all-dims-3": (3, 3),
}


def _target_grid(nfam, length, rng):
    """Families of ``length`` grid values: all of them where that is at most
    625 cases; else every case whose families each rise and lie pointwise in
    order (there only the sumset recursion decides), plus 100 drawn at random."""
    tuples = list(itertools.product(_GRID, repeat=length))
    if len(tuples) ** nfam <= 625:
        yield from itertools.product(tuples, repeat=nfam)
        return
    rising = [t for t in tuples if list(t) == sorted(t)]

    def chains(prefix):
        if len(prefix) == nfam:
            yield prefix
            return
        for t in rising:
            if not prefix or all(a <= b for a, b in zip(prefix[-1], t)):
                yield from chains(prefix + (t,))

    yield from chains(())
    for _ in range(100):
        yield tuple(rng.choice(tuples) for _ in range(nfam))


def test_build_example_accepts_exactly_what_validate_accepts():
    rng = random.Random(0)
    scales = make_scale_sequence("scaled", 3, base=2)  # blocks k = 1, 2, 3
    built = dict.fromkeys(_READS, 0)
    for nread in (1, 2, 3):
        names = [name for name, (_, n) in _READS.items() if n == nread]
        for length in (1, 2, 3):
            # the families a construction does not read are left inadmissible
            unread = ((F(1),) + (F(0),) * (length - 1),) * (3 - nread)
            for fams in _target_grid(nread, length, rng):
                violations = validate_targets(DimensionTargets(*fams)).violations
                targets = DimensionTargets(*fams, *unread)
                for name in names:
                    arity = _READS[name][0]
                    try:
                        build_example(name, targets, scales)
                    except AdmissibilityError as exc:
                        if length >= arity:
                            assert violations and str(exc) == violations[0], (name, fams)
                    else:
                        assert length >= arity and not violations, (name, fams)
                        built[name] += 1
    assert min(built.values()) >= 35, built


def test_third_floor_rounding_is_absorbed():
    # (1/4, 1/2, 3/4) is admissible, but its floors at k = 3 are (0, 1, 2)
    # and 2 > 0 + 1: the third floor drops to the sum of the first two
    scales = make_scale_sequence("scaled", 3, base=2)
    fam = (F(1, 4), F(1, 2), F(3, 4))
    targets = DimensionTargets(fam, fam, fam)
    par = block_params(3, targets, scales, "full")
    assert (par.l, par.m, par.s) == (0, 1, 1)
    assert (par.p, par.q, par.v) == (0, 1, 1)
    assert len(build_example("all-dims-3", targets, scales).components) == 18
    # a third target above the sum of the first two is not rounding
    over = DimensionTargets((F(0),) * 3, (F(1, 4), F(1, 4), F(3, 4)))
    with pytest.raises(AdmissibilityError, match=r"s_k <= l_k \+ m_k"):
        block_params(3, over, scales, "lower-box-only")


def test_interval_components_are_free_outside_zero_runs():
    scales = make_scale_sequence("geometric", 4, base=3)
    spec = build_example(
        "pair-hausdorff", DimensionTargets((F(1, 2), F(1))), scales
    )
    symbols = spec.components[0].symbols()
    # block 3 opens at n_3 = 27 with residue 0: the alpha_1 zero run covers
    # positions [27, floor(27/(1/2))) = [27, 54), 1-indexed
    assert symbols[27 - 1 : 54 - 1] == "0" * 27
    assert symbols[54 - 1] == "a"


# ---------------------------------------------------------------------------
# targets and admissibility


def test_targets_validation():
    with pytest.raises(AdmissibilityError):
        DimensionTargets(())
    with pytest.raises(AdmissibilityError):
        DimensionTargets((F(1, 2), F(5, 4)))
    with pytest.raises(AdmissibilityError):
        DimensionTargets((F(1, 2), F(1, 2)), (F(1, 2),))
    t = DimensionTargets((F(1, 3), F(1, 2)))
    assert t.fold_capacity == 2
    with pytest.raises(AdmissibilityError):
        t.family("beta")


def test_validator_flags_sumset_recursion():
    t = DimensionTargets((F(1, 5), F(1, 2)), (F(1, 5), F(1, 2)))
    rep = validate_targets(t)
    assert not rep.ok
    assert "beta_2 <= 2*beta_1" in rep.violations
    assert rep.violations[0] == "beta_2 <= 2*beta_1"


def test_validator_accepts_admissible_triple():
    t = DimensionTargets(
        (F(1, 4), F(1, 2), F(5, 8)), (F(1, 4), F(1, 2), F(5, 8))
    )
    assert validate_targets(t).ok


def test_validator_accepts_constant_families():
    for x in (F(0), F(1, 3), F(1)):
        t = DimensionTargets((x, x, x), (x, x, x), (x, x, x))
        assert validate_targets(t).ok, x


def test_validator_fold_cap():
    # the targets' fold capacity (3) reaches the fold-3 recursion violation
    t = DimensionTargets(
        (F(1, 4), F(1, 2), F(1, 1)), (F(1, 4), F(1, 2), F(1, 1))
    )
    assert not validate_targets(t).ok


def test_validator_orders_families_pointwise():
    t = DimensionTargets((F(1, 2), F(1, 2)), (F(1, 4), F(1, 2)))
    rep = validate_targets(t)
    assert "alpha_1 <= beta_1" in rep.violations


# ---------------------------------------------------------------------------
# combinators


def test_pasting_plan_offsets_and_ordering():
    plan = PastingPlan((2, 2, 4))
    assert plan.offsets == (0, 2, 4, 8)
    with pytest.raises(ConstructionError):
        PastingPlan((3, 2))
    with pytest.raises(ConstructionError):
        PastingPlan(())


def test_paste_concatenates_digit_constraints():
    first = from_rows(["aa"])
    second = from_rows(["0a", "a0"])
    out = paste([first, second], PastingPlan((2, 2)))
    assert out.depth == 4
    assert sorted(c.symbols() for c in out.components) == ["aa0a", "aaa0"]
    assert out.boundaries == (1, 3, 5)
    with pytest.raises(ConstructionError):
        paste([first], PastingPlan((2, 2)))
    with pytest.raises(ConstructionError):
        paste([first, second], PastingPlan((2, 3)))


def test_paste_respects_block_boundaries():
    scales = make_scale_sequence("scaled", 3, base=4)
    spec = build_example("haus-lowbox", HL, scales)
    # scale values (4, 8, 12, 18): the first block ends at position 7
    plan = PastingPlan((7, spec.depth))
    out = paste([spec, spec], plan)
    assert out.depth == 7 + spec.depth
    with pytest.raises(ConstructionError):
        paste([spec, spec], PastingPlan((6, spec.depth)))


def test_interleave_alternates_block_ranges():
    scales = make_scale_sequence("scaled", 4, base=4)
    a = build_example("haus-lowbox", HL, scales)
    b = build_example(
        "haus-lowbox",
        DimensionTargets((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        scales,
    )
    out = interleave(a, b, (1, 3, 5))
    assert out.depth == a.depth
    assert out.boundaries == a.boundaries
    assert len(out.components) == len(a.components)
    n1, n3, n5 = scales.start(1), scales.start(3), scales.values[4]
    for oc, ac, bc in zip(out.components, a.components, b.components):
        assert oc.window(n1, n3) == ac.window(n1, n3)
        assert oc.window(n3, n5) == bc.window(n3, n5)
    assert out.param("construction") == "interleave"
    assert out.param("marks") == "1,3,5"


def test_interleave_validates_marks_and_skeletons():
    scales = make_scale_sequence("scaled", 4, base=4)
    a = build_example("haus-lowbox", HL, scales)
    b = build_example(
        "haus-lowbox",
        DimensionTargets((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        scales,
    )
    with pytest.raises(ConstructionError):
        interleave(a, b, (2, 5))
    with pytest.raises(ConstructionError):
        interleave(a, b, (1, 3, 3, 5))
    other = build_example("haus-lowbox", HL, make_scale_sequence("scaled", 3, base=4))
    with pytest.raises(ConstructionError):
        interleave(a, other, (1, 3, 4))
