"""Finite-scale sumset inequalities over dyadic window families.

The window family at scale j and width l is the set of half-open
intervals [i * 2^-j, (i + l) * 2^-j) with integer i >= 0; the count
D(j, l, X) is how many of them meet X.  Everything here is exact:
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
  the width-2 counts of A + B and the plain cell counts of A.  Note the
  direction: the inequality controls B by quantities of A and A + B,
  while the derived-exponent summary reports the A-side combination
  l * dim(A + B) - (l - 1) * dim(A); both appear in the report.

Reports are plain dicts, JSON-ready, with the seed recorded whenever a
generator produced the cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .analysis import log2_big
from .errors import ScaleError

__all__ = [
    "ruzsa_check",
    "sumset_cover_bound_check",
    "prop31_check",
    "ruzsa_suite",
    "cover_suite",
    "prop31_suite",
]

# Point samples are rationals k / GRID: every denominator 2^j or 3 * 2^j
# with j <= GRID_SCALE divides GRID.
GRID_SCALE = 12
GRID = 3 << GRID_SCALE


@dataclass(frozen=True)
class FiniteIntSet:
    """Distinct nonnegative integers as a characteristic bitmask.

    Bit v of ``mask`` is set iff v is in the set, so a sumset is a
    shift-or sweep and its size a popcount; both stay exact at any size.
    """

    mask: int

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
        bits = format(self.mask, "b")[::-1]
        out = []
        v = bits.find("1")
        while v >= 0:
            out.append(v)
            v = bits.find("1", v + 1)
        return tuple(out)

    def __len__(self):
        return self.mask.bit_count()

    def sumset(self, other):
        shifts, base = sorted((self, other), key=len)
        acc = 0
        for v in shifts.values:
            acc |= base.mask << v
        return FiniteIntSet(acc)

    def iterated(self, fold):
        if fold < 1:
            raise ValueError("fold must be at least 1")
        acc = self
        for _ in range(fold - 1):
            acc = acc.sumset(self)
        return acc


def dyadic_count(points, scale, width=1):
    """Number of scale-``scale`` windows of ``width`` cells meeting the points.

    ``points`` holds numerators over ``GRID``.  Window i covers
    [i * 2^-scale, (i + width) * 2^-scale), i >= 0.
    """
    if scale < 0:
        raise ScaleError("scale must be nonnegative")
    if width < 1:
        raise ValueError("width must be at least 1")
    cells = {(v << scale) // GRID for v in points.values}
    return len({c - s for c in cells for s in range(width) if c >= s})


# ---------------------------------------------------------------------------
# checks


def ruzsa_check(e, f, fold):
    """Exact l-fold sumset growth check for finite integer sets.

    With K = |E + F| / |E|, verifies |lF| <= K^l * |E| by comparing
    |lF| * |E|^(l-1) against |E + F|^l in exact integer arithmetic.
    """
    if fold < 1:
        raise ValueError("fold must be at least 1")
    if not len(e) or not len(f):
        raise ValueError("sets must be nonempty")
    ef = e.sumset(f)
    lf = f.iterated(fold)
    lhs = len(lf) * len(e) ** (fold - 1)
    rhs = len(ef) ** fold
    return {
        "check": "ruzsa",
        "fold": fold,
        "size_e": len(e),
        "size_f": len(f),
        "size_e_plus_f": len(ef),
        "size_fold_f": len(lf),
        "ratio": str(Fraction(len(ef), len(e))),
        "ok": lhs <= rhs,
    }


def sumset_cover_bound_check(samples, scale, width=None):
    """Windows of a sumset are covered by sums of addend window indices.

    For samples A_1..A_l and the default width l, verifies

        D(j, l, A_1 + ... + A_l) <= (l + 1) * |I_1 + ... + I_l|

    where I_i is the set of scale-j cell indices of A_i.
    """
    samples = tuple(samples)
    if not samples:
        raise ValueError("need at least one sample")
    fold = len(samples)
    if width is None:
        width = fold
    total = samples[0]
    for s in samples[1:]:
        total = total.sumset(s)
    lhs = dyadic_count(total, scale, width)
    idx = None
    for s in samples:
        cells = FiniteIntSet.of((v << scale) // GRID for v in s.values)
        idx = cells if idx is None else idx.sumset(cells)
    rhs = (fold + 1) * len(idx)
    return {
        "check": "sumset-cover",
        "scale": scale,
        "fold": fold,
        "width": width,
        "count_sumset": lhs,
        "count_index_sums": len(idx),
        "ok": lhs <= rhs,
    }


def prop31_check(a, b, fold, scales):
    """Window-count transfer from A and A + B to B, scale by scale.

    At each scale j the verified inequality is

        D(j, l, B) * D(j, 1, A)^(l-1)  <=  (l + 1) * D(j, 2, A + B)^l,

    the cross-multiplied form of D(j,l,B) <= (l+1) K^l D(j,1,A) with
    K = D(j,2,A+B) / D(j,1,A).  The report also locates j* minimizing
    log2 D(j,2,A+B) / j and summarizes the derived exponent combination
    l * dim(A+B) - (l-1) * dim(A) evaluated at j* (dims as log2-count
    over scale).  The inequality itself bounds B; the summary combination
    deliberately mirrors the statement shape, using A-side quantities.
    """
    if fold < 1:
        raise ValueError("fold must be at least 1")
    scales = sorted(set(scales))
    if not scales:
        raise ValueError("need at least one scale")
    ab = a.sumset(b)
    rows = []
    best = None
    for j in scales:
        ca = dyadic_count(a, j, 1)
        cab2 = dyadic_count(ab, j, 2)
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
        # minimize log2(cab2)/j without floats: compare cab2^j' vs cab2'^j
        if j > 0 and (best is None or cab2 ** best[1] < best[0] ** j):
            best = (cab2, j)
    j_star = best[1] if best else scales[0]
    ca_star = dyadic_count(a, j_star, 1)
    cab_star = dyadic_count(ab, j_star, 2)
    dim_ab = log2_big(cab_star) / j_star if j_star else 0.0
    dim_a = log2_big(ca_star) / j_star if j_star else 0.0
    return {
        "check": "prop31",
        "fold": fold,
        "scales": rows,
        "j_star": j_star,
        "dim_a_at_j_star": dim_a,
        "dim_ab_at_j_star": dim_ab,
        "derived_exponent": fold * dim_ab - (fold - 1) * dim_a,
        "ok": all(r["ok"] for r in rows),
    }


# ---------------------------------------------------------------------------
# seeded case generators and suites


def random_int_set(rng, max_size=64, max_value=4096):
    size = rng.randint(1, max_size)
    return FiniteIntSet.of(rng.randrange(max_value) for _ in range(size))


def random_point_sample(rng, max_size=48, max_scale=GRID_SCALE):
    """Random dyadic-plus-odd rationals in [0, 2), denominators <= 3 * 2^j.

    The points come back as their numerators over ``GRID``.
    """
    if max_scale > GRID_SCALE:
        raise ValueError(f"max_scale {max_scale} is finer than the 1/GRID grid")
    size = rng.randint(1, max_size)
    pts = []
    for _ in range(size):
        j = rng.randint(0, max_scale)
        num = rng.randrange(1 << (j + 1))
        den = 1 << j
        if rng.random() < 0.25:
            den *= 3
            num = rng.randrange(2 * den)
        pts.append(num * (GRID // den))
    return FiniteIntSet.of(pts)


def ruzsa_suite(seed, pairs=1000, folds=(2, 3)):
    """Seeded batch of exact sumset growth checks."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    for i in range(pairs):
        e = random_int_set(rng)
        f = random_int_set(rng)
        for fold in folds:
            res = ruzsa_check(e, f, fold)
            cases += 1
            if not res["ok"]:
                failures.append({"pair": i, **res})
    return {"suite": "ruzsa", "seed": seed, "cases": cases,
            "failures": failures, "ok": not failures}


def cover_suite(seed, samples=500, max_scale=12, folds=(2, 3)):
    """Seeded batch of sumset window-cover checks."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    for i in range(samples):
        fold = folds[i % len(folds)]
        parts = [random_point_sample(rng, max_size=24, max_scale=max_scale)
                 for _ in range(fold)]
        j = rng.randint(1, max_scale)
        res = sumset_cover_bound_check(parts, j)
        cases += 1
        if not res["ok"]:
            failures.append({"sample": i, **res})
    return {"suite": "sumset-cover", "seed": seed, "cases": cases,
            "failures": failures, "ok": not failures}


def prop31_suite(seed, samples=500, max_scale=12, folds=(2, 3)):
    """Seeded batch of window-count transfer checks."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    for i in range(samples):
        fold = folds[i % len(folds)]
        a = random_point_sample(rng, max_size=24, max_scale=max_scale)
        b = random_point_sample(rng, max_size=24, max_scale=max_scale)
        js = sorted(rng.sample(range(1, max_scale + 1), rng.randint(1, 4)))
        res = prop31_check(a, b, fold, js)
        cases += 1
        if not res["ok"]:
            failures.append({"sample": i, "fold": fold, "scales": js,
                             "rows": res["scales"]})
    return {"suite": "prop31", "seed": seed, "cases": cases,
            "failures": failures, "ok": not failures}
