"""Scale skeletons, block templates, named families, and combinators."""

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumdim import patterns
from sumdim.constructions import (
    ALL_DIMS_2_ROWS,
    ALL_DIMS_3_TABLE,
    CANONICAL_EXAMPLES,
    CONSTRUCTION_NAMES,
    HAUS_LOWBOX_ROWS,
    PAIR_RESIDUES,
    TRIPLE_RESIDUES,
    BlockParams,
    DimensionTargets,
    ScaleSequence,
    block_params,
    block_plan,
    build_canonical,
    build_example,
    build_from_keys,
    chunk_symbols,
    interleave,
    make_scale_sequence,
    star_floor,
    validate_targets,
)
from sumdim.errors import AdmissibilityError, ConstructionError, ScaleError

from helpers import from_rows, rational_block_params, rational_star_floor

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


def test_scale_inputs_must_be_integers():
    # a float or bool is refused, not truncated: "scaled" with base 2.5
    # used to give (2, 5, 9, 12), and (2.7, 5.2) used to become (2, 5)
    with pytest.raises(ScaleError, match="base 2.5"):
        make_scale_sequence("scaled", 3, 2.5)
    with pytest.raises(ScaleError, match="base True"):
        make_scale_sequence("geometric", 3, True)
    with pytest.raises(ScaleError, match="horizon 3.0"):
        make_scale_sequence("scaled", 3.0)
    with pytest.raises(ScaleError, match="horizon True"):
        make_scale_sequence("tower", True)
    with pytest.raises(ScaleError, match="scale value 2.7"):
        ScaleSequence((2.7, 5.2))
    with pytest.raises(ScaleError, match="scale value False"):
        ScaleSequence((2, False))


def test_start_and_gap_refuse_indices_outside_the_skeleton():
    seq = make_scale_sequence("scaled", 3, 4)
    assert seq.values == (4, 8, 12, 18)
    assert [seq.start(k) for k in (1, 4)] == [4, 18] and seq.gap(3) == 6
    # a negative index used to read from the end: start(0) gave 18,
    # start(-1) 12 and gap(0) -14; start(5) was a bare IndexError
    for k in (0, -1, 5):
        with pytest.raises(ScaleError, match=f"scale index {k} outside 1..4"):
            seq.start(k)
    for k in (0, -1, 4):
        with pytest.raises(ScaleError, match=f"block index {k} outside 1..3"):
            seq.gap(k)


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
    par = block_params(4, HL, scales)
    assert (par.l, par.m) == (2, 4)
    assert par.s is None and par.p is None
    # deficit n_k*(beta_i - alpha_i)/alpha_i = 33 for both indices at k=4
    assert par.d == (32, 32)


MAX_DENOMINATOR = 10**6


@st.composite
def fractions_between(draw, lo, hi):
    """A Fraction in [lo, hi] with a denominator up to MAX_DENOMINATOR, else lo."""
    q = draw(st.integers(1, MAX_DENOMINATOR))
    low, high = -(-lo.numerator * q // lo.denominator), hi.numerator * q // hi.denominator
    return F(draw(st.integers(low, high)), q) if low <= high else lo


@st.composite
def admissible_targets(draw):
    """Targets that pass ``validate_targets``, with beta and maybe gamma, and
    alphas that are often 0: beta first by the sumset recursion, then alpha
    under it and gamma over it."""
    nfold = draw(st.integers(1, 3))
    beta = []
    for i in range(nfold):
        lo = beta[-1] if beta else F(0)
        hi = F(1) if not beta else min(F(1), 2 * beta[-1] - (beta[0] if i == 2 else 0))
        beta.append(draw(fractions_between(lo, hi)))
    alpha = []
    for b in beta:
        lo = alpha[-1] if alpha else F(0)
        alpha.append(lo if lo == 0 and draw(st.booleans()) else draw(fractions_between(lo, b)))
    gamma = None
    if draw(st.booleans()):
        gamma = []
        for i, b in enumerate(beta):
            lo = max(b, gamma[-1]) if gamma else b
            hi = F(1) if not gamma else min(F(1), 2 * gamma[-1] - (gamma[0] if i == 2 else 0))
            assume(lo <= hi)
            gamma.append(draw(fractions_between(lo, hi)))
    targets = DimensionTargets(tuple(alpha), tuple(beta), gamma and tuple(gamma))
    assert validate_targets(targets).ok, targets
    return targets


@st.composite
def skeletons(draw, least=2):
    """A hand-built ScaleSequence from n_1 >= least, each block a random multiple of k wide."""
    values = [draw(st.integers(least, 2 * least + 100))]
    for k in range(1, draw(st.integers(1, 6)) + 1):
        values.append(values[-1] + k * draw(st.integers(1, max(least, 100))))
    return ScaleSequence(tuple(values))


@given(admissible_targets(), skeletons(), st.data())
@settings(max_examples=200, deadline=None)
def test_block_params_match_the_rational_formulas(targets, scales, data):
    k = data.draw(st.integers(1, scales.horizon))
    assert block_params(k, targets, scales) == rational_block_params(k, targets, scales)


@given(admissible_targets(), skeletons(least=2**64), st.data())
@settings(max_examples=60, deadline=None)
def test_block_params_match_the_rational_formulas_past_2_to_the_64(targets, scales, data):
    # make_scale_sequence stops at MAX_SCALE; a hand-built skeleton does not
    k = data.draw(st.integers(1, scales.horizon))
    assert block_params(k, targets, scales) == rational_block_params(k, targets, scales)


@given(
    st.one_of(st.integers(2, 10**4), st.integers(2**64, 2**80)),
    fractions_between(F(0), F(1)),
    st.integers(0, 2**80),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_star_floor_matches_the_rational_formula(start, alpha, gap, index):
    assert star_floor(start, alpha, gap, index) == rational_star_floor(start, alpha, gap, index)


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


def _block_pieces(pieces, scales, k):
    return [p for p in pieces if scales.start(k) <= p[0] < scales.values[k]]


def _expand(pieces):
    return "".join(t * ((hi - lo) // len(t)) for lo, hi, t in pieces)


def test_block_plan_tiles_and_saturates():
    scales = make_scale_sequence("scaled", 12, base=8)
    rows = (("beta1",), ("alpha1",), ("alpha2",))
    comps, notable = block_plan(HL, scales, rows)
    beta1, alpha1, alpha2 = (_block_pieces(c, scales, 4) for c in comps)
    # block 4 is [33, 41): gap(4) = 8 tiled by k = 4
    assert beta1 == [(33, 41, "aa00")]
    # both alpha zero runs exceed the block: fully forced, and the dip past
    # the block's end, at 33 + d = 65, is still a notable scale
    assert alpha1 == alpha2 == [(33, 41, "0")]
    assert block_params(4, HL, scales).d == (32, 32) and 65 in notable
    # zero runs of none, one chunk, and at or past the gap of 8
    for a, d, want in (
        (F(1, 2), 0, "aa00aa00"),
        (F(3, 7), 4, "0000aa00"),
        (F(2, 5), 8, "0" * 8),
        (F(7, 20), 12, "0" * 8),
    ):
        targets = DimensionTargets((a, F(1)), HL.beta)
        assert block_params(4, targets, scales).d == (d, 0)
        comps, notable = block_plan(targets, scales, rows)
        assert _expand(_block_pieces(comps[1], scales, 4)) == want, d
        assert (33 + d in notable) == (d > 0), d
        assert _expand(_block_pieces(comps[2], scales, 4)) == "00aa00aa"


def test_misfit_kinds_fail_their_template():
    scales = make_scale_sequence("scaled", 12, base=8)
    par = block_params(4, HL, scales)
    with pytest.raises(AdmissibilityError, match="targets of length >= 3"):
        block_plan(HL, scales, (("beta1",), ("beta3",)))
    with pytest.raises(AdmissibilityError, match="targets of length >= 3"):
        chunk_symbols("alpha3", par)
    with pytest.raises(AdmissibilityError, match="targets of length >= 1"):
        chunk_symbols("gamma1", par)  # no gamma targets, no p_k
    with pytest.raises(ScaleError):
        block_params(13, HL, scales)


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


# sha256 of patterns.dumps(build_canonical(name)): a refactor of the
# builders must leave every canonical spec's bytes as they are
CANONICAL_SHA256 = {
    "pair-hausdorff": "cc5f48344a67e8d63e124c3f1bfc10e4495dae4894a108ad0a6c7eef7c32546d",
    "triple-hausdorff": "7c98c237cb7de0b4c8e992c24227cb139f2693e3be0e46ee8963cced44375f41",
    "haus-lowbox": "0917177b01d4bf992865de47f74a5155ac5e5f6ff404b9b974887d280a1b1d65",
    "all-dims-2": "39eb2ba88cfe0932b2f3701b1c76d6538fc88821219113aa0fc29fb8d0260af3",
    "all-dims-3": "cb0092013277debff54d3c5923ee0688c0b63f942661e957b0a71c40b259ff5b",
}


@pytest.mark.parametrize("name", CONSTRUCTION_NAMES)
def test_canonical_spec_bytes_are_pinned(name):
    text = patterns.dumps(build_canonical(name))
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_SHA256[name]


# sha256 over patterns.dumps of the deep-bracket benchmark's inputs, acceptance
# 7's two all-dims-3 halves on the scaled base-4 horizon-120 skeleton, then of
# their interleave at marks (1, 22, 72, 121): deep blocks are pinned too
DEEP_SHA256 = "d6709e55f3b3ce3d4b8124e80bbc564f67c934384f5aa2a58ff8af04ac002a02"


def test_deep_interleave_bytes_are_pinned():
    scales = make_scale_sequence("scaled", 120, 4)
    prime = build_example("all-dims-3", DimensionTargets(
        (F(1, 4), F(1, 2), F(5, 8)), (F(1, 4), F(1, 2), F(5, 8)), (F(1, 4), F(1, 2), F(3, 4))
    ), scales)
    flat = build_example("all-dims-3", DimensionTargets(*((F(1, 2),) * 3,) * 3), scales)
    digest = hashlib.sha256()
    for spec in (prime, flat, interleave(prime, flat, (1, 22, 72, 121))):
        digest.update(patterns.dumps(spec).encode())
    assert digest.hexdigest() == DEEP_SHA256


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


LACUNARY = {
    **CANONICAL_EXAMPLES["haus-lowbox"], "scale_policy": "geometric", "scale_base": 8, "horizon": 4
}
TOWER_PAIR = {**CANONICAL_EXAMPLES["pair-hausdorff"], "scale_policy": "tower", "horizon": 3}

# sha256 over patterns.dumps of every spec the sweep below builds, in build
# order, then of LACUNARY's haus-lowbox and TOWER_PAIR's pair-hausdorff: the
# bytes of these non-canonical specs are pinned as the canonical ones are
SWEEP_SHA256 = "14f7af307c090d27c3c5177207f20d3efd2a11272615287645a83a5b9df3a1be"


def test_build_example_accepts_exactly_what_validate_accepts():
    rng = random.Random(0)
    scales = make_scale_sequence("scaled", 3, base=2)  # blocks k = 1, 2, 3
    built = dict.fromkeys(_READS, 0)
    digest = hashlib.sha256()
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
                        spec = build_example(name, targets, scales)
                    except AdmissibilityError as exc:
                        if length >= arity:
                            assert violations and str(exc) == violations[0], (name, fams)
                    else:
                        assert length >= arity and not violations, (name, fams)
                        built[name] += 1
                        digest.update(patterns.dumps(spec).encode())
    assert min(built.values()) >= 35, built
    for name, keys in (("haus-lowbox", LACUNARY), ("pair-hausdorff", TOWER_PAIR)):
        digest.update(patterns.dumps(build_from_keys(name, keys)).encode())
    assert digest.hexdigest() == SWEEP_SHA256


def test_third_floor_rounding_is_absorbed():
    # (1/4, 1/2, 3/4) is admissible, but its floors at k = 3 are (0, 1, 2)
    # and 2 > 0 + 1: the third floor drops to the sum of the first two
    scales = make_scale_sequence("scaled", 3, base=2)
    fam = (F(1, 4), F(1, 2), F(3, 4))
    targets = DimensionTargets(fam, fam, fam)
    par = block_params(3, targets, scales)
    assert (par.l, par.m, par.s) == (0, 1, 1)
    assert (par.p, par.q, par.v) == (0, 1, 1)
    assert len(build_example("all-dims-3", targets, scales).components) == 18
    # a third target above the sum of the first two is not rounding
    over = DimensionTargets((F(0),) * 3, (F(1, 4), F(1, 4), F(3, 4)))
    par = block_params(3, over, scales)
    assert (par.l, par.m, par.s) == (0, 0, 2)
    with pytest.raises(AdmissibilityError, match=r"s_k <= l_k \+ m_k"):
        chunk_symbols("beta3", par)
    with pytest.raises(AdmissibilityError, match=r"s_k <= l_k \+ m_k"):
        block_plan(over, scales, (("alpha3",),))


_ROWS = {
    "pair-hausdorff": PAIR_RESIDUES,
    "triple-hausdorff": TRIPLE_RESIDUES,
    "haus-lowbox": HAUS_LOWBOX_ROWS,
    "all-dims-2": ALL_DIMS_2_ROWS,
    "all-dims-3": ALL_DIMS_3_TABLE,
}


def test_block_plan_lays_out_the_built_specs():
    saturated = 0
    for name, keys in (*CANONICAL_EXAMPLES.items(), ("haus-lowbox", LACUNARY)):
        spec = build_from_keys(name, keys)
        scales = make_scale_sequence(keys["scale_policy"], keys["horizon"], keys["scale_base"])
        families = ("alpha", "beta", "gamma")[: _READS[name][1]]
        targets = DimensionTargets(*(keys[fam] for fam in families))
        comps, _ = block_plan(targets, scales, _ROWS[name])
        assert len(comps) == len(spec.components), name
        for pieces, comp in zip(comps, spec.components):
            # the pieces tile 1..depth with no gap, each a whole number of templates
            assert pieces[0][0] == 1 and pieces[-1][1] == spec.depth + 1, name
            assert [p[1] for p in pieces[:-1]] == [p[0] for p in pieces[1:]], name
            assert all(lo < hi and (hi - lo) % len(t) == 0 for lo, hi, t in pieces), name
            assert _expand(pieces) == comp.symbols(), name
        if targets.beta is None:
            continue
        for k in range(1, scales.horizon + 1):
            d = block_params(k, targets, scales).d
            for kind in {row[k % len(row)] for row in _ROWS[name]}:
                dip = scales.start(k) + d[int(kind[-1]) - 1]
                # a zero run that saturates its block still leaves its dip notable
                if kind.startswith("alpha") and scales.values[k] <= dip <= spec.depth:
                    assert dip in spec.notable_scales(), (name, k, kind)
                    saturated += 1
    assert saturated > 0


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


def test_interleave_marks_must_be_integers():
    # a mark that is not an int, or is a bool, is refused: 5.7 used to be
    # truncated to 5, and True and "5" were taken for 1 and 5
    a = build_canonical("all-dims-2")
    for marks, bad in (((1, 5.7, 13), "5.7"), ((True, 5, 13), "True"), ((1, "5", 13), "'5'")):
        with pytest.raises(ConstructionError, match=f"mark {bad} is not an integer"):
            interleave(a, a, marks)
    assert interleave(a, a, (1, 5, 13)).param("marks") == "1,5,13"


def test_interleave_merges_notable_scales_and_rejects_one_that_is_not_an_integer():
    # interleave reads each spec's notable scales with SetSpec.notable_scales
    # and writes their union with notable_param; a bad token is a ScaleError
    a = build_example("haus-lowbox", HL, make_scale_sequence("scaled", 4, base=4))

    def with_notable(text):
        params = {**dict(a.params), "notable_scales": text}
        return dataclasses.replace(a, params=tuple(params.items()))

    merged = interleave(a, with_notable("7,3"), (1, 3, 5)).notable_scales()
    assert merged == sorted({3, 7, *a.notable_scales()})
    with pytest.raises(ScaleError, match="'x'"):
        interleave(a, with_notable("5,x"), (1, 3, 5))
