"""Builders for the digit-pattern families with prescribed sum dimensions.

Two construction styles share the same scale skeleton n_1 < n_2 < ... :
"interval" components are Free everywhere except for a run of forced
zeros at the start of selected blocks, and "chunked" components tile
each block [n_k, n_{k+1}) with a length-k template chosen per block from
a cyclic schedule.  The template floors l_k, m_k, s_k (and p_k, q_k, v_k
for the upper-box family) are exact rational floors, so every block is
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import AdmissibilityError, ConstructionError, ScaleError
from .patterns import DigitPattern, SetSpec

# make_scale_sequence refuses skeletons past this many positions: every
# component of a spec holds a mask that wide, and counting walks it.
MAX_SCALE = 1 << 20


def _as_fraction_tuple(values):
    out = tuple(Fraction(v) for v in values)
    for v in out:
        if not 0 <= v <= 1:
            raise AdmissibilityError("0 <= target <= 1", f"got {v}")
    return out


@dataclass(frozen=True)
class DimensionTargets:
    """Per-fold dimension targets: alpha (Hausdorff), beta (lower box), gamma (upper box).

    beta and gamma are optional; the interval constructions prescribe
    Hausdorff dimensions only and accept any nondecreasing alpha.
    """

    alpha: tuple
    beta: tuple | None = None
    gamma: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_fraction_tuple(self.alpha))
        if not self.alpha:
            raise AdmissibilityError("at least one alpha target")
        for name in ("beta", "gamma"):
            fam = getattr(self, name)
            if fam is not None:
                fam = _as_fraction_tuple(fam)
                object.__setattr__(self, name, fam)
                if len(fam) != len(self.alpha):
                    raise AdmissibilityError(
                        "target families have equal length",
                        f"len({name}) = {len(fam)} != {len(self.alpha)}",
                    )

    @property
    def fold_capacity(self):
        return len(self.alpha)

    def family(self, fam):
        got = getattr(self, fam)
        if got is None:
            raise AdmissibilityError(f"{fam} targets required", "family not set")
        return got


@dataclass(frozen=True)
class ScaleSequence:
    """Block start positions n_1 .. n_{K+1}; block k spans [n_k, n_{k+1})."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        v = self.values
        if len(v) < 2 or v[0] < 2:
            raise ScaleError("need n_1 >= 2 and at least one block")
        for k in range(1, len(v)):
            if v[k] <= v[k - 1]:
                raise ScaleError(f"scale values must increase (n_{k} -> n_{k + 1})")
            if (v[k] - v[k - 1]) % k:
                raise ScaleError(
                    f"block {k} width {v[k] - v[k - 1]} not divisible by {k}"
                )

    @property
    def horizon(self):
        return len(self.values) - 1

    def start(self, k):
        return self.values[k - 1]

    def gap(self, k):
        return self.values[k] - self.values[k - 1]

    @property
    def depth(self):
        """Deepest constrained position: the last block ends at n_{K+1} - 1."""
        return self.values[-1] - 1


def make_scale_sequence(policy, horizon, base=2):
    """Scale skeleton under one of three growth policies.

    "tower" uses the doubly exponential rule n_k = min{n >= 2^(2^k) :
    (k-1) | n - n_(k-1)}.  "scaled" keeps the divisibility invariant with
    additive gaps: each block is the smallest multiple of k that is
    >= base.  "geometric" grows by a factor >= base instead.  A skeleton
    that passes MAX_SCALE positions is refused as soon as it does.
    """
    if horizon < 2:
        raise ScaleError("horizon must be at least 2")
    if policy not in ("tower", "scaled", "geometric"):
        raise ScaleError(f"unknown scale policy {policy!r}")
    if policy != "tower" and base < 2:
        raise ScaleError("base must be at least 2")
    vals = [4 if policy == "tower" else base]
    for k in range(1, horizon + 1):
        if policy == "tower":
            n = 1 << (1 << (k + 1))
        elif policy == "scaled":
            n = vals[-1] + base
        else:
            n = base * vals[-1]
        n += -(n - vals[-1]) % k  # block k's width is a multiple of k
        if n > MAX_SCALE:
            raise ScaleError(
                f"{policy} skeleton passes {MAX_SCALE} positions at block {k}"
            )
        vals.append(n)
    return ScaleSequence(tuple(vals))


def star_floor(start, alpha, gap, index):
    """End (exclusive) of the forced-zero run opening an interval block.

    The run [start, end) realizes a ratio of roughly alpha between start
    and end; alpha = 0 stretches to index*start, and the run never leaves
    the block.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise AdmissibilityError("0 <= alpha <= 1", f"got {alpha}")
    if alpha == 0:
        end = index * start
    else:
        end = (start / alpha).__floor__()
    return min(end, start + gap)


@dataclass(frozen=True)
class BlockParams:
    """Exact template floors for one block index k."""

    k: int
    l: int
    m: int | None = None
    s: int | None = None
    p: int | None = None
    q: int | None = None
    v: int | None = None
    d: tuple = ()

    def template_floors(self, family, index):
        """The (a, b, c) floors of the index-i template within a family."""
        trio = (self.p, self.q, self.v) if family == "gamma" else (self.l, self.m, self.s)
        return trio[:index]


_KIND_FAMILIES = ("alpha", "beta", "gamma")


def parse_kind(kind):
    fam, idx = kind[:-1], int(kind[-1])
    if fam not in _KIND_FAMILIES or not 1 <= idx <= 3:
        raise ConstructionError(f"unknown block kind {kind!r}")
    return fam, idx


def _check_template(kind, floors):
    """Well-definedness of the chunk template, named like the source inequality."""
    fam, idx = parse_kind(kind)
    names = ("p", "q", "v") if fam == "gamma" else ("l", "m", "s")
    if idx >= 2 and floors[0] > floors[1]:
        raise AdmissibilityError(
            f"{names[0]}_k <= {names[1]}_k",
            f"kind {kind}, k with {names[0]}={floors[0]}, {names[1]}={floors[1]}",
        )
    if idx == 3:
        a, b, c = floors
        if c < b:
            raise AdmissibilityError(
                f"{names[1]}_k <= {names[2]}_k", f"kind {kind}, {names[2]}={c}"
            )
        if c > a + b:
            raise AdmissibilityError(
                f"{names[2]}_k <= {names[0]}_k + {names[1]}_k",
                f"kind {kind}, {c} > {a} + {b}",
            )


def block_params(k, targets, scales, variant, kinds=None):
    """Floors l_k, m_k, s_k / p_k, q_k, v_k and the zero-run lengths d_i(k).

    variant "lower-box-only" measures the alpha deficit against beta,
    "full" against gamma.  Validation is lazy: only the template
    inequalities of the block kinds actually requested are enforced, since
    a schedule may use e.g. the third gamma template only at even k where
    it is well defined.  A third floor that only rounding lifts past the sum
    of the first two is lowered to that sum, so admissible targets
    (``validate_targets``) never fail a template.
    """
    if not 1 <= k <= scales.horizon:
        raise ScaleError(f"block index {k} outside 1..{scales.horizon}")
    if variant not in ("lower-box-only", "full"):
        raise ConstructionError(f"unknown variant {variant!r}")
    alpha = targets.alpha
    beta = targets.family("beta")
    nfold = len(alpha)

    def floors(fam):
        out = [(k * x).__floor__() for x in fam[:3]] + [None] * (3 - nfold)
        # with x_3 <= x_1 + x_2, floor(k x_3) passes floor(k x_1) + floor(k x_2)
        # by at most one rounding digit; dropping it keeps the template defined
        if nfold >= 3 and out[2] > out[0] + out[1] and fam[2] <= fam[0] + fam[1]:
            out[2] = out[0] + out[1]
        return out

    l, m, s = floors(beta)
    p = q = v = None
    x = beta
    if variant == "full":
        gamma = targets.family("gamma")
        p, q, v = floors(gamma)
        x = gamma
    n_k = scales.start(k)
    d = []
    for i in range(nfold):
        if alpha[i] == 0:
            d.append(k * n_k)
        else:
            deficit = n_k * (x[i] - alpha[i]) / alpha[i]
            d.append(k * (deficit / k).__floor__())
    params = BlockParams(k, l, m, s, p, q, v, tuple(d))
    if kinds is None:
        kinds = [f"{fam}{i}" for fam in ("beta", "alpha") for i in range(1, nfold + 1)]
        if variant == "full":
            kinds += [f"gamma{i}" for i in range(1, nfold + 1)]
    for kind in kinds:
        fam, idx = parse_kind(kind)
        if idx > nfold:
            raise AdmissibilityError(
                f"targets of length >= {idx}", f"kind {kind} with {nfold} targets"
            )
        _check_template(kind, params.template_floors("gamma" if fam == "gamma" else "beta", idx))
        if fam == "alpha" and params.d[idx - 1] < 0:
            xname = "gamma" if variant == "full" else "beta"
            raise AdmissibilityError(
                f"alpha_{idx} <= {xname}_{idx}", f"negative zero run at k={k}"
            )
    return params


def chunk_symbols(kind, params):
    """The length-k template of one chunk, as a '0'/'a' string (most significant first)."""
    fam, idx = parse_kind(kind)
    family = "gamma" if fam == "gamma" else "beta"
    floors = params.template_floors(family, idx)
    if any(f is None for f in floors):
        raise AdmissibilityError(
            f"targets of length >= {idx}", f"kind {kind} lacks its floors"
        )
    _check_template(kind, floors)
    k = params.k
    if idx == 1:
        a = floors[0]
        return "a" * a + "0" * (k - a)
    if idx == 2:
        a, b = floors
        return "0" * (b - a) + "a" * a + "0" * (k - b)
    a, b, c = floors
    return "0" * (b - a) + "a" * (a + b - c) + "0" * (c - b) + "a" * (c - b) + "0" * (k - c)


def make_block(kind, k, params, scales):
    """One block [n_k, n_{k+1}) as a DigitPattern.

    beta/gamma kinds tile the whole block with the chunk; alpha kinds
    prefix d_i(k) forced zeros (saturating to an all-Zero block) before
    tiling the remainder.
    """
    if params.k != k:
        raise ConstructionError(f"params are for k={params.k}, not {k}")
    gap = scales.gap(k)
    fam, idx = parse_kind(kind)
    chunk = DigitPattern.from_symbols(chunk_symbols(kind, params))
    if fam != "alpha":
        return chunk.repeat(gap // k)
    d = params.d[idx - 1]
    if d < 0:
        raise AdmissibilityError(f"alpha_{idx} <= companion target", f"d={d} at k={k}")
    if d >= gap:
        return DigitPattern.all_zero(gap)
    if d % k:
        raise ConstructionError(f"zero run {d} not aligned to chunk length {k}")
    zeros = DigitPattern.all_zero(d)
    return zeros.concat(chunk.repeat((gap - d) // k))


# ---------------------------------------------------------------------------
# schedules


def _specular(row):
    """Swap the two lowest family indices, the mirror pairing of the six-row tables."""
    swap = {"1": "2", "2": "1"}
    return tuple(kind[:-1] + swap.get(kind[-1], kind[-1]) for kind in row)


_HL_BASE = (
    ("alpha1", "alpha2", "beta1"),
    ("beta1", "alpha1", "alpha2"),
    ("alpha2", "beta1", "alpha1"),
)
HAUS_LOWBOX_ROWS = _HL_BASE + tuple(_specular(r) for r in _HL_BASE)

_AD2_BASE = (
    ("gamma1", "alpha1", "gamma2", "alpha2", "gamma1", "beta1"),
    ("gamma1", "beta1", "gamma1", "alpha1", "gamma2", "alpha2"),
    ("gamma2", "alpha2", "gamma1", "beta1", "gamma1", "alpha1"),
)
ALL_DIMS_2_ROWS = _AD2_BASE + tuple(_specular(r) for r in _AD2_BASE)

# Eighteen components, twelve-block cycle.  Row r is phase-shifted so that
# every Hausdorff-critical alpha block is preceded by the matching gamma
# block, and each third of the table carries one beta escape per cycle.
_G1, _G2, _G3 = "gamma1", "gamma2", "gamma3"
_A1, _A2, _A3 = "alpha1", "alpha2", "alpha3"
_B1, _B2, _B3 = "beta1", "beta2", "beta3"
ALL_DIMS_3_TABLE = (
    (_G1, _A1, _G2, _A2, _G3, _A3, _G1, _A1, _G2, _A2, _G3, _B1),
    (_G1, _A1, _G2, _A2, _G3, _A3, _G1, _A1, _G2, _B1, _G3, _A3),
    (_G1, _A1, _G2, _A2, _G3, _A3, _G1, _B1, _G2, _A2, _G3, _A3),
    (_G1, _A1, _G2, _A2, _G3, _B1, _G1, _A1, _G2, _A2, _G3, _A3),
    (_G1, _A1, _G2, _B1, _G3, _A3, _G1, _A1, _G2, _A2, _G3, _A3),
    (_G1, _B1, _G2, _A2, _G3, _A3, _G1, _A1, _G2, _A2, _G3, _A3),
    (_G2, _A2, _G3, _A3, _G1, _A1, _G3, _A3, _G1, _A1, _G2, _B2),
    (_G2, _A2, _G3, _A3, _G1, _A1, _G3, _A3, _G1, _B2, _G2, _A2),
    (_G2, _A2, _G3, _A3, _G1, _A1, _G3, _B2, _G1, _A1, _G2, _A2),
    (_G2, _A2, _G3, _A3, _G1, _B2, _G3, _A3, _G1, _A1, _G2, _A2),
    (_G2, _A2, _G3, _B2, _G1, _A1, _G3, _A3, _G1, _A1, _G2, _A2),
    (_G2, _B2, _G3, _A3, _G1, _A1, _G3, _A3, _G1, _A1, _G2, _A2),
    (_G3, _A3, _G1, _A1, _G2, _A2, _G2, _A2, _G3, _A3, _G1, _B3),
    (_G3, _A3, _G1, _A1, _G2, _A2, _G2, _A2, _G3, _B3, _G1, _A1),
    (_G3, _A3, _G1, _A1, _G2, _A2, _G2, _B3, _G3, _A3, _G1, _A1),
    (_G3, _A3, _G1, _A1, _G2, _B3, _G2, _A2, _G3, _A3, _G1, _A1),
    (_G3, _A3, _G1, _B3, _G2, _A2, _G2, _A2, _G3, _A3, _G1, _A1),
    (_G3, _B3, _G1, _A1, _G2, _A2, _G2, _A2, _G3, _A3, _G1, _A1),
)

# Interval constructions: residue of the block index -> alpha index whose
# zero run opens that block; unlisted residues leave the block fully Free.
PAIR_RESIDUES = ({0: 1, 2: 2}, {1: 1, 2: 2})
TRIPLE_RESIDUES = (
    {0: 1, 2: 2, 4: 2, 5: 3},
    {1: 1, 2: 2, 3: 2, 5: 3},
    {0: 1, 3: 2, 4: 2, 5: 3},
)


def _fmt_fracs(fam):
    return ",".join(str(x) for x in fam)


def _build_chunked(name, targets, scales, variant, rows):
    period = len(rows[0])
    K = scales.horizon
    depth = scales.depth
    head_len = scales.start(1) - 1
    kinds_at = [sorted({row[k % period] for row in rows}) for k in range(1, K + 1)]
    params_at = [
        block_params(k, targets, scales, variant, kinds=kinds_at[k - 1])
        for k in range(1, K + 1)
    ]
    blocks = {}
    for k in range(1, K + 1):
        for kind in kinds_at[k - 1]:
            blocks[(k, kind)] = make_block(kind, k, params_at[k - 1], scales)
    comps = []
    for row in rows:
        mask = 0
        length = head_len
        for k in range(1, K + 1):
            b = blocks[(k, row[k % period])]
            mask = (mask << b.length) | b.free_mask
            length += b.length
        comps.append(DigitPattern(length, mask))
    notable = set()
    for k in range(1, K + 1):
        par = params_at[k - 1]
        for kind in kinds_at[k - 1]:
            fam, idx = parse_kind(kind)
            if fam == "alpha" and par.d[idx - 1] > 0:
                # first position past the zero run, kept even when the run
                # saturates its block: the frequency dip bottoms out there
                j = scales.start(k) + par.d[idx - 1]
                if j <= depth:
                    notable.add(j)
    params = [("construction", name), ("variant", variant)]
    params.append(("alpha", _fmt_fracs(targets.alpha)))
    params.append(("beta", _fmt_fracs(targets.beta)))
    if variant == "full":
        params.append(("gamma", _fmt_fracs(targets.gamma)))
    params.append(("notable_scales", ",".join(str(n) for n in sorted(notable))))
    return SetSpec(
        tuple(comps),
        depth,
        name=name,
        params=tuple(params),
        boundaries=scales.values,
        schedule=tuple(tuple(row) for row in rows),
    )


def _build_interval(name, alpha, scales, residue_maps):
    K = scales.horizon
    depth = scales.depth
    modulus = 3 if residue_maps is PAIR_RESIDUES else 6
    comps = []
    notable = set()
    for rmap in residue_maps:
        mask = (1 << depth) - 1
        for k in range(1, K + 1):
            idx = rmap.get(k % modulus)
            if idx is None:
                continue
            start = scales.start(k)
            end = star_floor(start, alpha[idx - 1], scales.gap(k), idx)
            if end <= start:
                continue
            run = end - start
            mask &= ~(((1 << run) - 1) << (depth - (start + run - 1)))
            if end <= depth:
                notable.add(end)
        comps.append(DigitPattern(depth, mask))
    # a vanishing top target means unbounded zero runs: the component
    # degenerates to finitely many points, so it is dropped outright
    if name == "pair-hausdorff" and alpha[1] == 0:
        comps = comps[:1]
        residue_maps = residue_maps[:1]
    params = (
        ("construction", name),
        ("alpha", _fmt_fracs(alpha)),
        ("notable_scales", ",".join(str(n) for n in sorted(notable))),
    )
    schedule = tuple(
        tuple(f"{r}:alpha{idx}" for r, idx in sorted(rmap.items()))
        for rmap in residue_maps
    )
    return SetSpec(
        tuple(comps),
        depth,
        name=name,
        params=params,
        boundaries=scales.values,
        schedule=schedule,
    )


# name -> (targets it needs, families it reads, schedule)
_EXAMPLES = {
    "pair-hausdorff": (2, ("alpha",), PAIR_RESIDUES),
    "triple-hausdorff": (3, ("alpha",), TRIPLE_RESIDUES),
    "haus-lowbox": (2, ("alpha", "beta"), HAUS_LOWBOX_ROWS),
    "all-dims-2": (2, _KIND_FAMILIES, ALL_DIMS_2_ROWS),
    "all-dims-3": (3, _KIND_FAMILIES, ALL_DIMS_3_TABLE),
}
CONSTRUCTION_NAMES = tuple(_EXAMPLES)


def build_example(name, targets, scales):
    """One of the five named families over the given scale skeleton.

    The targets must be at least as long as the construction needs and
    admissible, by ``validate_targets``, on the families it reads; the
    first violation is raised.
    """
    if name not in _EXAMPLES:
        raise ConstructionError(f"unknown construction {name!r}")
    arity, families, schedule = _EXAMPLES[name]
    if targets.fold_capacity < arity:
        raise AdmissibilityError(
            f"at least {arity} targets", f"{name} got {targets.fold_capacity}"
        )
    read = DimensionTargets(*(targets.family(fam) for fam in families))
    violations = validate_targets(read).violations
    if violations:
        raise AdmissibilityError(violations[0])
    if len(families) == 1:
        return _build_interval(name, read.alpha, scales, schedule)
    variant = "lower-box-only" if read.gamma is None else "full"
    return _build_chunked(name, read, scales, variant, schedule)


# ---------------------------------------------------------------------------
# combinators


@dataclass(frozen=True)
class PastingPlan:
    """Segment lengths M_1 <= M_2 <= ...; segment l covers positions S_l+1 .. S_{l+1}."""

    lengths: tuple

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(m) for m in self.lengths))
        if not self.lengths or self.lengths[0] < 1:
            raise ConstructionError("need at least one positive segment")
        for a, b in itertools.pairwise(self.lengths):
            if b < a:
                raise ConstructionError("segment lengths must be nondecreasing")

    @property
    def offsets(self):
        out = [0]
        for m in self.lengths:
            out.append(out[-1] + m)
        return tuple(out)


def paste(specs, plan):
    """Dyadic concatenation: segment l follows spec l's digit constraints.

    Each output component picks one source component per segment and
    concatenates their truncations, so the result ranges over all such
    choices (duplicates collapsed).
    """
    specs = tuple(specs)
    if len(specs) != len(plan.lengths):
        raise ConstructionError(
            f"{len(specs)} specs for {len(plan.lengths)} segments"
        )
    for spec, m in zip(specs, plan.lengths):
        if m > spec.depth:
            raise ConstructionError(f"segment {m} deeper than spec depth {spec.depth}")
        if m != spec.depth and spec.boundaries and (m + 1) not in spec.boundaries:
            raise ConstructionError(
                f"segment length {m} does not end on a block boundary"
            )
    comps = []
    seen = set()
    for choice in itertools.product(*(s.components for s in specs)):
        mask = 0
        for comp, m in zip(choice, plan.lengths):
            mask = (mask << m) | (comp.free_mask >> (comp.length - m))
        if mask not in seen:
            seen.add(mask)
            comps.append(DigitPattern(plan.offsets[-1], mask))
    return SetSpec(
        tuple(comps),
        plan.offsets[-1],
        name="paste(" + "+".join(s.name or "?" for s in specs) + ")",
        params=(
            ("construction", "paste"),
            ("segments", ",".join(str(m) for m in plan.lengths)),
        ),
        boundaries=tuple(s + 1 for s in plan.offsets),
    )


def interleave(spec_a, spec_b, marks):
    """Alternate block ranges between two same-skeleton specs.

    Blocks k in [marks[0], marks[1]) come from spec_a, the next range from
    spec_b, and so on; marks must start at block 1 and end one past the
    final block.
    """
    if spec_a.depth != spec_b.depth or spec_a.boundaries != spec_b.boundaries:
        raise ConstructionError("specs use different scale skeletons")
    if len(spec_a.components) != len(spec_b.components):
        raise ConstructionError("specs have different component counts")
    if not spec_a.boundaries:
        raise ConstructionError("specs carry no block boundaries")
    marks = tuple(int(m) for m in marks)
    K = len(spec_a.boundaries) - 1
    if len(marks) < 2 or marks[0] != 1 or marks[-1] != K + 1:
        raise ConstructionError(f"marks must run from 1 to {K + 1}")
    for a, b in itertools.pairwise(marks):
        if b <= a:
            raise ConstructionError("marks must be strictly increasing")
    bounds = spec_a.boundaries
    head_end = bounds[0]  # head is [1, n_1)
    comps = []
    for ca, cb in zip(spec_a.components, spec_b.components):
        if ca.window(1, head_end).free_mask != cb.window(1, head_end).free_mask:
            raise ConstructionError("specs disagree on the pre-block head")
        mask = ca.window(1, head_end).free_mask
        length = head_end - 1
        for r in range(len(marks) - 1):
            src = ca if r % 2 == 0 else cb
            lo, hi = bounds[marks[r] - 1], bounds[marks[r + 1] - 1]
            win = src.window(lo, hi)
            mask = (mask << win.length) | win.free_mask
            length += win.length
        comps.append(DigitPattern(length, mask))
    def pick(spec, key):
        return spec.param(key, "")
    merged_notables = sorted(
        set(
            int(t)
            for spec in (spec_a, spec_b)
            for t in pick(spec, "notable_scales").split(",")
            if t
        )
    )
    return SetSpec(
        tuple(comps),
        spec_a.depth,
        name=f"interleave({spec_a.name or '?'},{spec_b.name or '?'})",
        params=(
            ("construction", "interleave"),
            ("marks", ",".join(str(m) for m in marks)),
            ("first", spec_a.name or ""),
            ("second", spec_b.name or ""),
            ("notable_scales", ",".join(str(n) for n in merged_notables)),
        ),
        boundaries=bounds,
        schedule=(),
    )


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violations: tuple = ()


def _recursion_bound(fam, l):
    # fam is 0-indexed; bound for fam_l, l >= 2
    bound = fam[l - 2] + fam[0]
    for k in range(2, l):
        bound -= (l - k) * (fam[k - 2] + fam[0] - fam[k - 1])
    return bound


def _recursion_name(name, l):
    if l == 2:
        return f"{name}_2 <= 2*{name}_1"
    if l == 3:
        return f"{name}_3 <= 2*{name}_2 - {name}_1"
    return (
        f"{name}_{l} <= {name}_{l - 1} + {name}_1 - "
        f"sum((({l}-k))*({name}_(k-1) + {name}_1 - {name}_k), k=2..{l - 1})"
    )


def validate_targets(targets):
    """Admissibility of a target triple up to its fold capacity.

    Checks monotonicity within each family, pointwise alpha <= beta <=
    gamma, and the sumset recursion for the beta and gamma families
    (Hausdorff targets are unconstrained beyond monotonicity).  Returns a
    report; never raises.
    """
    fold_max = targets.fold_capacity
    violations = []
    fams = [("alpha", targets.alpha)]
    if targets.beta is not None:
        fams.append(("beta", targets.beta))
    if targets.gamma is not None:
        fams.append(("gamma", targets.gamma))
    for name, fam in fams:
        for i in range(fold_max - 1):
            if fam[i] > fam[i + 1]:
                violations.append(f"{name}_{i + 1} <= {name}_{i + 2}")
    for low, high in itertools.pairwise(fams):
        lname, lfam = low
        hname, hfam = high
        for i in range(fold_max):
            if lfam[i] > hfam[i]:
                violations.append(f"{lname}_{i + 1} <= {hname}_{i + 1}")
    for name, fam in fams[1:]:
        for l in range(2, fold_max + 1):
            if fam[l - 1] > _recursion_bound(fam, l):
                violations.append(_recursion_name(name, l))
    return AdmissibilityReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# canonical registry


# The run-config keys a canonical entry fixes; a config that names a
# canonical construction without alpha may set none of the others.
CANONICAL_KEYS = ("alpha", "beta", "gamma", "scale_policy", "scale_base", "horizon")

CANONICAL_EXAMPLES = {
    # interval families need geometric gaps: with additive gaps the star
    # floor n_k/alpha overshoots the whole block and every run saturates
    "pair-hausdorff": {
        "alpha": ("1/2", "1"),
        "scale_policy": "geometric",
        "scale_base": 3,
        "horizon": 6,
    },
    "triple-hausdorff": {
        "alpha": ("1/3", "1/2", "2/3"),
        "scale_policy": "geometric",
        "scale_base": 4,
        "horizon": 5,
    },
    "haus-lowbox": {
        "alpha": ("1/4", "1/2"),
        "beta": ("1/2", "1"),
        "scale_policy": "scaled",
        "scale_base": 8,
        "horizon": 12,
    },
    # gamma_2 = 2 * gamma_1 keeps specular sum blocks bit-disjoint, so the
    # fold-2 brackets stay tight at block boundaries
    "all-dims-2": {
        "alpha": ("1/8", "1/4"),
        "beta": ("1/4", "1/2"),
        "gamma": ("3/8", "3/4"),
        "scale_policy": "scaled",
        "scale_base": 4,
        "horizon": 12,
    },
    "all-dims-3": {
        "alpha": ("1/8", "1/4", "3/8"),
        "beta": ("1/4", "1/2", "5/8"),
        "gamma": ("1/2", "3/4", "7/8"),
        "scale_policy": "scaled",
        "scale_base": 4,
        "horizon": 13,
    },
}


def build_from_keys(name, keys):
    """The named construction from a mapping of ``CANONICAL_KEYS`` (beta, gamma optional)."""
    targets = DimensionTargets(keys["alpha"], keys.get("beta"), keys.get("gamma"))
    scales = make_scale_sequence(keys["scale_policy"], keys["horizon"], keys["scale_base"])
    return build_example(name, targets, scales)


def build_canonical(name):
    return build_from_keys(name, CANONICAL_EXAMPLES[name])
