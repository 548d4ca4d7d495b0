"""Builders for the digit-pattern families with prescribed sum dimensions.

Two construction styles share the same scale skeleton n_1 < n_2 < ... :
"interval" components are Free everywhere except for a run of forced
zeros at the start of selected blocks, and "chunked" components tile
each block [n_k, n_{k+1}) with a length-k template chosen per block from
a cyclic schedule.  Both read a schedule the same way: row r gives block
k the kind ``row[k % len(row)]``.  The template floors l_k, m_k, s_k (and
p_k, q_k, v_k for the upper-box family) and the zero runs are integer
floor divisions of the targets' numerators and denominators, so every
block is reproducible bit for bit.

Each rule is checked in one place: the targets in ``validate_targets``
(which ``build_example`` runs first), the templates in ``chunk_symbols``.
The block layout has one home too: ``block_plan`` lays out every block
of every family as pieces, and one builder makes the masks from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import AdmissibilityError, ConstructionError, ScaleError
from .patterns import DigitPattern, SetSpec, notable_param

# make_scale_sequence refuses skeletons past this many positions: every
# component of a spec holds a mask that wide, and counting walks it.
MAX_SCALE = 1 << 20
SCALE_POLICIES = ("tower", "scaled", "geometric")  # make_scale_sequence's growth rules


def _integer(name, value, error=ScaleError):
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} {value!r} is not an integer")
    return value


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
        object.__setattr__(self, "values", tuple(_integer("scale value", v) for v in self.values))
        v = self.values
        if len(v) < 2 or v[0] < 2:
            raise ScaleError("need n_1 >= 2 and at least one block")
        for k in range(1, len(v)):
            if v[k] <= v[k - 1]:
                raise ScaleError(f"scale values must increase (n_{k} -> n_{k + 1})")
            if (v[k] - v[k - 1]) % k:
                raise ScaleError(f"block {k} width {v[k] - v[k - 1]} not divisible by {k}")

    @property
    def horizon(self):
        return len(self.values) - 1

    def start(self, k):
        if not 1 <= _integer("scale index", k) <= len(self.values):
            raise ScaleError(f"scale index {k} outside 1..{len(self.values)}")
        return self.values[k - 1]

    def gap(self, k):
        if not 1 <= _integer("block index", k) <= self.horizon:
            raise ScaleError(f"block index {k} outside 1..{self.horizon}")
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
    if _integer("horizon", horizon) < 2:
        raise ScaleError("horizon must be at least 2")
    if policy not in SCALE_POLICIES:
        raise ScaleError(f"unknown scale policy {policy!r}")
    if _integer("base", base) < 2 and policy != "tower":
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
            raise ScaleError(f"{policy} skeleton passes {MAX_SCALE} positions at block {k}")
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
    end = start * alpha.denominator // alpha.numerator if alpha else index * start
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


_KIND_FAMILIES = ("alpha", "beta", "gamma")


def parse_kind(kind):
    fam, idx = kind[:-1], int(kind[-1])
    if fam not in _KIND_FAMILIES or not 1 <= idx <= 3:
        raise ConstructionError(f"unknown block kind {kind!r}")
    return fam, idx


def block_params(k, targets, scales):
    """Floors l_k, m_k, s_k (p_k, q_k, v_k when gamma is set) and the zero-run lengths d_i(k).

    Each is an integer floor division of the targets' numerators and
    denominators.  The alpha deficit is measured against gamma when it is
    set, else beta.  Only k is checked: the templates are checked where
    they are drawn, in ``chunk_symbols``.  A third floor that only rounding
    lifts past the sum of the first two is lowered to that sum, so
    admissible targets (``validate_targets``) never fail a template.
    """
    scales.gap(k)  # checks 1 <= k <= K
    alpha = targets.alpha
    beta = targets.family("beta")
    nfold = len(alpha)

    def floors(fam):
        out = [k * x.numerator // x.denominator for x in fam[:3]] + [None] * (3 - nfold)
        # with x_3 <= x_1 + x_2, floor(k x_3) passes floor(k x_1) + floor(k x_2)
        # by at most one rounding digit; dropping it keeps the template defined
        if nfold >= 3 and out[2] > out[0] + out[1] and fam[2] <= fam[0] + fam[1]:
            out[2] = out[0] + out[1]
        return out

    x = beta if targets.gamma is None else targets.gamma
    upper = (None,) * 3 if targets.gamma is None else floors(x)
    n_k = scales.start(k)
    # d_i(k): the deficit n_k (x_i - alpha_i) / alpha_i, down to a multiple of k
    d = tuple(
        k * (n_k * (b.numerator * a.denominator - a.numerator * b.denominator)
             // (a.numerator * b.denominator * k)) if a else k * n_k
        for a, b in zip(alpha, x)
    )
    return BlockParams(k, *floors(beta), *upper, d)


def chunk_symbols(kind, params):
    """The length-k template of one chunk, as a '0'/'a' string (most significant first).

    This is the one place the template rules are checked: the kind's
    floors a <= b <= c exist and c <= a + b, named like the source
    inequalities.  gamma kinds read p, q, v; alpha and beta kinds l, m, s.
    A shorter kind is the third template with its missing floors equal to
    its last one.
    """
    fam, idx = parse_kind(kind)
    names = ("p", "q", "v") if fam == "gamma" else ("l", "m", "s")
    floors = tuple(getattr(params, n) for n in names[:idx])
    if None in floors:
        raise AdmissibilityError(f"targets of length >= {idx}", f"kind {kind} lacks its floors")
    a, b, c = floors + floors[-1:] * (3 - idx)
    if a > b:
        raise AdmissibilityError(
            f"{names[0]}_k <= {names[1]}_k",
            f"kind {kind}, k with {names[0]}={a}, {names[1]}={b}",
        )
    if c < b:
        raise AdmissibilityError(f"{names[1]}_k <= {names[2]}_k", f"kind {kind}, {names[2]}={c}")
    if c > a + b:
        raise AdmissibilityError(
            f"{names[2]}_k <= {names[0]}_k + {names[1]}_k", f"kind {kind}, {c} > {a} + {b}"
        )
    return "0" * (b - a) + "a" * (a + b - c) + "0" * (c - b) + "a" * (c - b) + "0" * (params.k - c)


def block_plan(targets, scales, rows):
    """Each component's pieces (start, end, template) in order, and the notable scales.

    The pieces tile positions 1..depth, each repeating its '0'/'a' template;
    a zero run's template is "0".  Block k of component r has kind
    ``rows[r][k % len(rows[r])]``.  With beta targets the head [1, n_1) is
    zero, and a block repeats its kind's ``chunk_symbols`` template after,
    for an alpha kind, d_i(k) zeros cut at the block's end.  Alpha-only
    targets (the interval families) leave all free but, for a kind that is
    not None, the zero run from n_k to ``star_floor``.
    """
    interval = targets.beta is None
    comps = [[(1, scales.start(1), "a" if interval else "0")] for _ in rows]
    notable = set()
    for k in range(1, scales.horizon + 1):
        start, end = scales.start(k), scales.values[k]
        par = None if interval else block_params(k, targets, scales)
        pieces = {}  # each kind's pieces are laid out once per block
        for row, comp in zip(rows, comps):
            kind = row[k % len(row)]
            if kind not in pieces:
                if interval:
                    fill, dip = "a", start
                    if kind is not None:
                        idx = int(kind[-1])
                        dip = star_floor(start, targets.alpha[idx - 1], end - start, idx)
                else:
                    fam, idx = parse_kind(kind)
                    fill = chunk_symbols(kind, par)
                    dip = start + par.d[idx - 1] if fam == "alpha" else start
                if start < dip <= scales.depth:
                    # the first position past the zero run, kept even when the
                    # run saturates its block: the frequency dip bottoms out there
                    notable.add(dip)
                cut = min(max(dip, start), end)
                pieces[kind] = [p for p in ((start, cut, "0"), (cut, end, fill)) if p[0] < p[1]]
            comp.extend(pieces[kind])
    return comps, notable


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

# Interval constructions: the kind at residue k % len(row) names the alpha
# index whose zero run opens block k; None leaves the block fully Free.
PAIR_RESIDUES = (("alpha1", None, "alpha2"), (None, "alpha1", "alpha2"))
TRIPLE_RESIDUES = (
    ("alpha1", None, "alpha2", None, "alpha2", "alpha3"),
    (None, "alpha1", "alpha2", "alpha2", None, "alpha3"),
    ("alpha1", None, None, "alpha2", "alpha2", "alpha3"),
)


def _build(name, targets, scales, rows):
    """The spec whose masks and notable scales come from ``block_plan``."""
    comps, notable = block_plan(targets, scales, rows)
    tiles = {}  # components share their kinds' pieces: each is tiled once
    for lo, hi, fill in {p for pieces in comps for p in pieces}:
        tiles[lo, hi, fill] = fill.replace("a", "1") * ((hi - lo) // len(fill))
    masks = [int("".join(map(tiles.get, pieces)), 2) for pieces in comps]
    params = [("construction", name), notable_param(notable)]
    for fam in _KIND_FAMILIES:
        if getattr(targets, fam) is not None:
            params.append((fam, ",".join(map(str, getattr(targets, fam)))))
    if targets.beta is None:
        schedule = tuple(tuple(f"{r}:{kind}" for r, kind in enumerate(row) if kind) for row in rows)
        # a vanishing top target means unbounded zero runs: the component
        # degenerates to finitely many points, so it is dropped outright
        if name == "pair-hausdorff" and targets.alpha[1] == 0:
            masks, schedule = masks[:1], schedule[:1]
    else:
        params.append(("variant", "lower-box-only" if targets.gamma is None else "full"))
        schedule = tuple(tuple(row) for row in rows)
    return SetSpec(
        tuple(DigitPattern(scales.depth, mask) for mask in masks),
        scales.depth,
        name=name,
        params=tuple(params),
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
        raise AdmissibilityError(f"at least {arity} targets", f"{name} got {targets.fold_capacity}")
    read = DimensionTargets(*(targets.family(fam) for fam in families))
    violations = validate_targets(read).violations
    if violations:
        raise AdmissibilityError(violations[0])
    return _build(name, read, scales, schedule)


# ---------------------------------------------------------------------------
# combinators


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
    marks = tuple(_integer("mark", m, ConstructionError) for m in marks)
    top = len(spec_a.boundaries)
    if len(marks) < 2 or marks[0] != 1 or marks[-1] != top:
        raise ConstructionError(f"marks must run from 1 to {top}")
    for a, b in itertools.pairwise(marks):
        if b <= a:
            raise ConstructionError("marks must be strictly increasing")
    bounds = spec_a.boundaries
    head_end = bounds[0]  # head is [1, n_1)
    comps = []
    for ca, cb in zip(spec_a.components, spec_b.components):
        mask = ca.window(1, head_end).free_mask
        if mask != cb.window(1, head_end).free_mask:
            raise ConstructionError("specs disagree on the pre-block head")
        length = head_end - 1
        for r in range(len(marks) - 1):
            src = ca if r % 2 == 0 else cb
            lo, hi = bounds[marks[r] - 1], bounds[marks[r + 1] - 1]
            win = src.window(lo, hi)
            mask = (mask << win.length) | win.free_mask
            length += win.length
        comps.append(DigitPattern(length, mask))
    return SetSpec(
        tuple(comps),
        spec_a.depth,
        name=f"interleave({spec_a.name or '?'},{spec_b.name or '?'})",
        params=(
            ("construction", "interleave"),
            ("marks", ",".join(map(str, marks))),
            ("first", spec_a.name or ""),
            ("second", spec_b.name or ""),
            notable_param({*spec_a.notable_scales(), *spec_b.notable_scales()}),
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
    fams = [(n, getattr(targets, n)) for n in _KIND_FAMILIES if getattr(targets, n) is not None]
    for name, fam in fams:
        for i in range(fold_max - 1):
            if fam[i] > fam[i + 1]:
                violations.append(f"{name}_{i + 1} <= {name}_{i + 2}")
    for (lname, lfam), (hname, hfam) in itertools.pairwise(fams):
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
