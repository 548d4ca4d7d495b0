"""Finite-scale sumset inequalities over dyadic window families.

The window family at scale j and width l is the set of half-open
intervals [i * 2^-j, (i + l) * 2^-j) with integer i >= 0; the count
D(j, l, X) is how many of them meet X.  With the scale-j cells of X as
a bitmask (``cells``), window i meets X iff one of bits i..i+l-1 is
set, so D(j, l, X) is the popcount of the mask OR-ed with its shifts
right by 1..l-1.  ``cells`` maps a sparse set point by point and folds
a dense one (a sumset, say) over its whole bitmask, which is cheaper
once a set has more than a few dozen points.  Everything here is exact:
points are rationals on the 1/GRID grid (a point sample is the
FiniteIntSet of their numerators), counts are integers, ratios are
Fractions, and every check compares cross-multiplied integers rather
than floats.

Three checks are provided.

* ``ruzsa_check``: for finite integer sets E, F with ratio
  K = |E + F| / |E|, the l-fold sumset obeys |lF| <= K^l * |E|.
* ``sumset_cover_bound_check``: windows meeting a sumset are covered by
  sums of the addends' window indices, up to the factor l + 1.
* ``prop31_check``: the window count of B at width l is bounded through
  the width-2 counts of A + B and the plain cell counts of A.

Each suite is a case generator that ``_run_suite`` runs from its seed
into a plain, JSON-ready report dict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .errors import ScaleError

# Point samples are rationals k / GRID: every denominator 2^j or 3 * 2^j
# with j <= GRID_SCALE divides GRID.
GRID_SCALE = 12
GRID = 3 << GRID_SCALE

# ``cells`` folds sets of at least this many points.  In process, the
# suites at seed 0 (best of 5, twice, 2-core Xeon, Python 3.11) ran
# 36-41% faster than on the map alone at thresholds 32-256, 29-32% at
# 16, and 14-15% folding every set; 64 was the fastest both times.
DENSE_POINTS = 64


@dataclass(frozen=True)
class FiniteIntSet:
    """Distinct nonnegative integers as a characteristic bitmask.

    Bit v of ``mask`` is set iff v is in the set, so a sumset is a
    shift-or sweep and its size a popcount; both stay exact at any size.
    """

    mask: int

    def __post_init__(self):
        if isinstance(self.mask, bool) or not isinstance(self.mask, int):
            kind = type(self.mask).__name__
            raise ValueError(f"an integer set's mask must be an int, got {kind}")
        if self.mask < 0:
            raise ValueError("an integer set's mask must be nonnegative")

    @classmethod
    def of(cls, iterable):
        mask = 0
        for v in iterable:
            if v < 0:
                raise ValueError("negative element in integer set")
            mask |= 1 << v
        return cls(mask)

    @cached_property
    def values(self):
        """The elements in increasing order, decoded from the highest bit down.

        Each step copies the rest of the mask, so the decoder suits sparse
        sets: 24 points over 24,576 bits decode 4x faster than through the
        mask's binary string.  A dense mask decodes about 2x slower than
        that string decoder, which ``tests/helpers.py`` keeps as the
        reference (1.4-3x for 2,000-24,576 points over 2^14-2^16 bits, on
        a 2-core Xeon under Python 3.11); no suite decodes one.
        """
        m, out = self.mask, []
        while m:
            v = m.bit_length() - 1
            out.append(v)
            m ^= 1 << v
        out.reverse()
        return tuple(out)

    def __len__(self):
        return self.mask.bit_count()

    def sumset(self, other):
        shifts, base = sorted((self, other), key=len)
        acc = 0
        for v in shifts.values:
            acc |= base.mask << v
        return FiniteIntSet(acc)


def _check_count(name, value):
    """ValueError unless ``value`` is an int (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


def _check_nonempty(*sets):
    """ValueError unless every set holds a point: an empty one has no count to compare."""
    if not all(map(len, sets)):
        raise ValueError("sets must be nonempty")


def _check_scale(scale):
    """``scale`` if it is an int (not a bool) of at least 0, else ScaleError."""
    if isinstance(scale, bool) or not isinstance(scale, int) or scale < 0:
        raise ScaleError(f"scale must be a nonnegative integer, got {scale!r}")
    return scale


def _merge_blocks(mask, block):
    """The mask whose bit c is set iff one of bits c * block .. (c + 1) * block - 1 is.

    An OR-fold by doubling shifts, then every block-th bit by a strided
    string slice: C passes over the mask, not a Python step per set bit.
    """
    span = 1
    while span < block:
        step = min(span, block - span)
        mask |= mask >> step
        span += step
    bits = format(mask, "b")
    return int(bits[(len(bits) - 1) % block :: block], 2)


def _window_count(mask, width):
    """How many windows of ``width`` cells meet the cells set in ``mask``."""
    return reduce(int.__or__, (mask >> s for s in range(width))).bit_count()


def cells(points, scale):
    """The cells [c * 2^-scale, (c + 1) * 2^-scale) holding a point, as indices c.

    ``points`` holds numerators over ``GRID``.  A sparse set, or any
    scale past ``GRID_SCALE``, maps each point v to (v << scale) // GRID.
    Otherwise cell c is the block of m = GRID >> scale numerators from
    c * m, so a set of ``DENSE_POINTS`` or more merges its mask's blocks
    of m bits.  That wins on sumsets but loses on a few dozen already
    decoded points.
    """
    _check_scale(scale)
    if scale > GRID_SCALE or len(points) < DENSE_POINTS:
        mask = 0
        for v in points.values:
            mask |= 1 << ((v << scale) // GRID)
        return FiniteIntSet(mask)
    return FiniteIntSet(_merge_blocks(points.mask, GRID >> scale))


def dyadic_count(points, scale, width=1):
    """Number of scale-``scale`` windows of ``width`` cells meeting the points.

    Window i covers [i * 2^-scale, (i + width) * 2^-scale), i >= 0, and
    meets the points iff one of cells i..i+width-1 holds one.
    """
    _check_count("width", width)
    return _window_count(cells(points, scale).mask, width)


# ---------------------------------------------------------------------------
# checks


def ruzsa_check(e, f, fold):
    """Exact l-fold sumset growth check for finite integer sets.

    With K = |E + F| / |E|, verifies |lF| <= K^l * |E| by comparing
    |lF| * |E|^(l-1) against |E + F|^l in exact integer arithmetic.
    """
    return _ruzsa_checks(e, f, (fold,))[0]


def _ruzsa_checks(e, f, folds):
    """``ruzsa_check`` at each fold, from one E + F and one chain F, 2F, 3F, ..."""
    for fold in folds:
        _check_count("fold", fold)
    _check_nonempty(e, f)
    ef = e.sumset(f)
    chain = [f]
    while len(chain) < max(folds, default=0):
        chain.append(chain[-1].sumset(f))
    return [
        {
            "check": "ruzsa",
            "fold": fold,
            "size_e": len(e),
            "size_f": len(f),
            "size_e_plus_f": len(ef),
            "size_fold_f": len(chain[fold - 1]),
            "ratio": str(Fraction(len(ef), len(e))),
            "ok": len(chain[fold - 1]) * len(e) ** (fold - 1) <= len(ef) ** fold,
        }
        for fold in folds
    ]


def sumset_cover_bound_check(samples, scale):
    """Windows of a sumset are covered by sums of addend window indices.

    For samples A_1..A_l, verifies

        D(j, l, A_1 + ... + A_l) <= (l + 1) * |I_1 + ... + I_l|

    where I_i is the set of scale-j cell indices of A_i.
    """
    samples = tuple(samples)
    if not samples:
        raise ValueError("need at least one sample")
    _check_nonempty(*samples)
    fold = len(samples)
    lhs = dyadic_count(reduce(FiniteIntSet.sumset, samples), scale, fold)
    idx = reduce(FiniteIntSet.sumset, (cells(s, scale) for s in samples))
    rhs = (fold + 1) * len(idx)
    return {
        "check": "sumset-cover",
        "scale": scale,
        "fold": fold,
        "width": fold,
        "count_sumset": lhs,
        "count_index_sums": len(idx),
        "ok": lhs <= rhs,
    }


def prop31_check(a, b, fold, scales):
    """Window-count transfer from A and A + B to B, scale by scale.

    At each scale j the verified inequality is

        D(j, l, B) * D(j, 1, A)^(l-1)  <=  (l + 1) * D(j, 2, A + B)^l,

    the cross-multiplied form of D(j,l,B) <= (l+1) K^l D(j,1,A) with
    K = D(j,2,A+B) / D(j,1,A).
    """
    _check_count("fold", fold)
    scales = sorted({_check_scale(j) for j in scales})
    if not scales:
        raise ValueError("need at least one scale")
    _check_nonempty(a, b)
    # A + B's cells once, at the finest scale; each coarser scale j merges
    # the cells of the next finer one, j + d, in blocks of 2^d, as
    # floor(floor(v * 2^(j+d) / GRID) / 2^d) = floor(v * 2^j / GRID)
    ab_cells = [cells(a.sumset(b), scales[-1]).mask]
    for j, finer in zip(scales[-2::-1], scales[::-1]):
        ab_cells.append(_merge_blocks(ab_cells[-1], 1 << (finer - j)))
    rows = []
    for j, ab in zip(scales, reversed(ab_cells)):
        ca = dyadic_count(a, j, 1)
        cab2 = _window_count(ab, 2)
        cb = dyadic_count(b, j, fold)
        lhs = cb * ca ** (fold - 1)
        rhs = (fold + 1) * cab2**fold
        rows.append(
            {
                "scale": j,
                "count_a": ca,
                "count_ab_width2": cab2,
                "count_b_width_fold": cb,
                "ok": lhs <= rhs,
            }
        )
    return {"check": "prop31", "fold": fold, "scales": rows,
            "ok": all(r["ok"] for r in rows)}


# ---------------------------------------------------------------------------
# seeded case generators and suites


def random_int_set(rng):
    """1 to 64 random integers below 4,096 (fewer if two draws meet)."""
    mask = 0
    for _ in range(rng.randint(1, 64)):
        mask |= 1 << rng.randrange(4096)
    return FiniteIntSet(mask)


def random_point_sample(rng):
    """1 to 24 random rationals k / (2^j) or k / (3 * 2^j) in [0, 2), j <= GRID_SCALE.

    The points come back as their numerators over ``GRID``.
    """
    mask = 0
    for _ in range(rng.randint(1, 24)):
        j = rng.randint(0, GRID_SCALE)
        num = rng.randrange(1 << (j + 1))
        den = 1 << j
        if rng.random() < 0.25:
            den *= 3
            num = rng.randrange(2 * den)
        mask |= 1 << (num * (GRID // den))
    return FiniteIntSet(mask)


def _run_suite(name, seed, cases):
    """Run ``cases(Random(seed))``, which yields (ok, failure record) per case.

    A negative seed is a ValueError: ``Random(-s)`` draws as ``Random(s)``
    does, so it would record seed s's cases under another seed.
    """
    if seed < 0:
        raise ValueError(f"a suite seed must be at least 0, got {seed}")
    failures, count = [], 0
    for count, (ok, failure) in enumerate(cases(random.Random(seed)), 1):
        if not ok:
            failures.append(failure)
    return {"suite": name, "seed": seed, "cases": count,
            "failures": failures, "ok": not failures}


def ruzsa_suite(seed):
    """1,000 seeded pairs of exact sumset growth checks, each at folds 2 and 3."""

    def cases(rng):
        for i in range(1000):
            e = random_int_set(rng)
            f = random_int_set(rng)
            for res in _ruzsa_checks(e, f, (2, 3)):
                yield res["ok"], {"pair": i, **res}

    return _run_suite("ruzsa", seed, cases)


def cover_suite(seed):
    """500 seeded sumset window-cover checks, at folds 2 and 3 in turn."""

    def cases(rng):
        for i in range(500):
            parts = [random_point_sample(rng) for _ in range(2 + i % 2)]
            res = sumset_cover_bound_check(parts, rng.randint(1, GRID_SCALE))
            yield res["ok"], {"sample": i, **res}

    return _run_suite("sumset-cover", seed, cases)


def prop31_suite(seed):
    """500 seeded window-count transfer checks, at folds 2 and 3 in turn."""

    def cases(rng):
        for i in range(500):
            fold = 2 + i % 2
            a = random_point_sample(rng)
            b = random_point_sample(rng)
            js = sorted(rng.sample(range(1, GRID_SCALE + 1), rng.randint(1, 4)))
            res = prop31_check(a, b, fold, js)
            yield res["ok"], {"sample": i, "fold": fold, "scales": js,
                              "rows": res["scales"]}

    return _run_suite("prop31", seed, cases)
