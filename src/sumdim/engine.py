"""Exact counting of distinct prefixes and distinct sum prefixes.

Value model
-----------
A component with free mask F at depth N stands for the integer set
L = {X : X & ~F == 0}; the reals it truncates are X * 2^-N.  For a fold
``l`` the object of interest is the set of l-term sums Y = X_1 + ... + X_l
with each X_i drawn from any component.  Sums reach up to l * (2^N - 1),
so the natural output word has N + W digits, where W = bitlength(l - 1)
is the width of the final carry (W = 0, 1, 2 for l = 1, 2, 3).  What we
count at scale j is the number of distinct top-j digit windows,

    |{ Y >> (N + W - j) }|,

so that a single all-free component at fold 2 opens exactly 2^j windows
at scale j, not 2^j plus carry spill.  Each start s pins its sums to the
real interval [s * 2^(W-j), (s+1) * 2^(W-j)) exactly.  The brute-force
oracle below is the definition; everything else must agree with it.

Carry automaton
---------------
Split each addend at the effective scale e = j - W: X = H * 2^(N-e) + L.
Then

    Y >> (N - e)  =  (sum of H_i)  +  ((sum of L_i) >> (N - e)),

and the second term is a carry in 0..l-1.  Digits are processed least
significant first.  While positions N..e+1 are absorbed only the set of
achievable carries matters ("low phase"); positions e..1 then emit output
digits one by one, and the final carry supplies the top W digits ("high
phase").  Y >> (N + W - j) = word * 2^W + carry with carry < 2^W, so
distinct outputs correspond exactly to distinct (word, carry) pairs.
For j < W no digits are emitted and the count is over carries shifted by
W - j.

States are carry *sets* encoded as bitmasks (carry c achievable <=> bit c
set).  Exact mode runs one subset construction over all addend
combinations at once; bracket mode counts each combination exactly on its
own and reports [max, sum] over combinations, which brackets the union;
the sum is clamped to the count of windows meeting [0, l], the most the
union can occupy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, ScaleError

DEFAULT_STATE_BUDGET = 10**6
DEFAULT_ENUM_BUDGET = 1 << 24


@dataclass(frozen=True)
class CellCountBracket:
    """Certified two-sided bound on a count of dyadic cells."""

    lower: int
    upper: int

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"bad bracket [{self.lower}, {self.upper}]")

    @property
    def is_exact(self):
        return self.lower == self.upper


@dataclass(frozen=True)
class DistinctCountResult:
    scale: int
    fold: int
    bracket: CellCountBracket
    mode: str  # "exact" or "bracket"
    peak_states: int
    fell_back: bool


def free_position_sets(spec):
    """Per position 1..depth, the bitmask of components free there (index 0 unused)."""
    n = spec.depth
    out = [0] * (n + 1)
    for ci, comp in enumerate(spec.components):
        m = comp.free_mask
        while m:
            low = m & -m
            out[n - low.bit_length() + 1] |= 1 << ci
            m ^= low
    return out


def _check_scale(spec, scale):
    if not 0 <= scale <= spec.depth:
        raise ScaleError(f"scale {scale} outside 0..{spec.depth}")


def branching_min_average(spec, n):
    """Minimum over depth-n prefixes of the average branching count, exact.

    A position counts as branching when the prefix read so far can be
    extended by both digits, i.e. some still-consistent component is free
    there (the 0-extension always exists).  Returns a Fraction in [0, 1].
    """
    if not 1 <= n <= spec.depth:
        raise ScaleError(f"scale {n} outside 1..{spec.depth}")
    fs = free_position_sets(spec)
    full = (1 << len(spec.components)) - 1
    dp = {full: 0}
    for t in range(1, n + 1):
        ndp = {}
        for s, cost in dp.items():
            s1 = s & fs[t]
            c = cost + (1 if s1 else 0)
            prev = ndp.get(s)
            if prev is None or c < prev:
                ndp[s] = c
            if s1:
                prev = ndp.get(s1)
                if prev is None or c < prev:
                    ndp[s1] = c
        dp = ndp
    return Fraction(min(dp.values()), n)


def _submasks(m):
    """Every submask of ``m``: the admissible digit strings of free mask ``m``."""
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def enumerate_prefixes(spec, scale, budget=DEFAULT_ENUM_BUDGET):
    """Sorted distinct length-``scale`` prefixes of the union, as integers."""
    _check_scale(spec, scale)
    total = sum(1 << c.free_count_prefix(scale) for c in spec.components)
    if total > budget:
        raise BudgetExceededError(f"prefix enumeration needs {total} > budget {budget}")
    seen = set()
    for comp in spec.components:
        seen.update(_submasks(comp.free_mask >> (spec.depth - scale)))
    return sorted(seen)


# ---------------------------------------------------------------------------
# brute-force oracle


@lru_cache(maxsize=8)
def iterated_pattern_sums(spec, fold, budget=DEFAULT_ENUM_BUDGET):
    """Sorted l-fold sums of the union set, by exhaustive enumeration."""
    if fold < 1:
        raise ValueError("fold must be at least 1")
    total = sum(1 << c.free_count() for c in spec.components)
    if total**fold > budget:
        raise BudgetExceededError(
            f"enumeration of {total}^{fold} addend tuples exceeds budget {budget}"
        )
    base = set()
    for comp in spec.components:
        base.update(_submasks(comp.free_mask))
    sums = base
    for _ in range(fold - 1):
        sums = {x + y for x in sums for y in base}
    return tuple(sorted(sums))


def brute_force_oracle(spec, fold, scale, budget=DEFAULT_ENUM_BUDGET):
    """Definitionally exact count of distinct sum prefixes at one scale."""
    _check_scale(spec, scale)
    sums = iterated_pattern_sums(spec, fold, budget)
    shift = spec.depth + (fold - 1).bit_length() - scale
    count = len({y >> shift for y in sums})
    return CellCountBracket(count, count)


# ---------------------------------------------------------------------------
# carry automaton


@lru_cache(maxsize=None)
def _carry_tables(fold):
    """Carry-set transitions for a given fold.

    next0[f][mask] / next1[f][mask]: successor carry-set when f addends are
    free here and the emitted output bit is 0 / 1.  nextany ignores the
    output bit (low phase).  From carry c with digit sum c + sigma,
    sigma in 0..f, the bit is the parity and the next carry the half;
    carries never leave 0..fold-1.
    """
    size = 1 << fold
    next0 = []
    next1 = []
    nextany = []
    for f in range(fold + 1):
        single0 = [0] * fold
        single1 = [0] * fold
        for c in range(fold):
            m0 = m1 = 0
            for sigma in range(f + 1):
                s = c + sigma
                if s & 1:
                    m1 |= 1 << (s >> 1)
                else:
                    m0 |= 1 << (s >> 1)
            single0[c], single1[c] = m0, m1
        t0 = [0] * size
        t1 = [0] * size
        ta = [0] * size
        for mask in range(1, size):
            lsb = mask & -mask
            rest = mask ^ lsb
            c = lsb.bit_length() - 1
            t0[mask] = t0[rest] | single0[c]
            t1[mask] = t1[rest] | single1[c]
            ta[mask] = t0[mask] | t1[mask]
        next0.append(t0)
        next1.append(t1)
        nextany.append(ta)
    return next0, next1, nextany


def _combos(ncomp, fold):
    return tuple(itertools.combinations_with_replacement(range(ncomp), fold))


def _initial_carry_masks(spec, fold, scales, free_sets, combos):
    """Carry-set per combination after absorbing digits below each scale.

    One pass per combination from the deepest position upward, recording the
    reachable-carry mask whenever a requested scale boundary is crossed.
    Returns {scale: [mask per combination]}.
    """
    _, _, nextany = _carry_tables(fold)
    want = sorted(set(scales), reverse=True)
    out = {j: [0] * len(combos) for j in want}
    depth = spec.depth
    for ci, combo in enumerate(combos):
        cur = 1  # carry 0 only
        wi = 0
        for t in range(depth, 0, -1):
            if wi < len(want) and want[wi] == t:
                out[t][ci] = cur
                wi += 1
            fs = free_sets[t]
            f = 0
            for c in combo:
                f += (fs >> c) & 1
            cur = nextany[f][cur]
        while wi < len(want):  # scale 0: everything absorbed
            out[want[wi]][ci] = cur
            wi += 1
    return out


def _bracket_count_one(free_sets, scale, init_mask, combo, fold):
    """Exact distinct-sum-prefix count for a single combination.

    Path counts are kept per carry-set state; a word's contribution is the
    number of distinct final carries, since output = word + carry * 2^scale.
    """
    next0, next1, _ = _carry_tables(fold)
    size = 1 << fold
    cur = [0] * size
    cur[init_mask] = 1
    settled = init_mask == 1  # exactly {carry 0}: zero digits are no-ops
    for t in range(scale, 0, -1):
        fs = free_sets[t]
        f = 0
        for c in combo:
            f += (fs >> c) & 1
        if f == 0 and settled:
            continue
        t0 = next0[f]
        t1 = next1[f]
        new = [0] * size
        for g in range(1, size):
            cnt = cur[g]
            if cnt:
                a = t0[g]
                if a:
                    new[a] += cnt
                b = t1[g]
                if b:
                    new[b] += cnt
        cur = new
        settled = cur[1] != 0 and not any(cur[2:])
    total = 0
    for g in range(1, size):
        cnt = cur[g]
        if cnt:
            total += cnt * g.bit_count()
    return total


def _exact_count(free_sets, scale, init_masks, combos, fold, state_budget):
    """Distinct sum prefixes across all combinations at once.

    Subset state: a big integer whose bit (ci*fold + c) means combination ci
    can reach the current output word with carry c.  Returns (count, peak)
    or (None, peak) when the state budget is exceeded.
    """
    next0, next1, _ = _carry_tables(fold)
    gmask = (1 << fold) - 1
    s0 = 0
    for ci, mask in enumerate(init_masks):
        s0 |= mask << (ci * fold)
    # f per (position, combination), packed as bytes rows
    fvals = [None] * (scale + 1)
    for t in range(1, scale + 1):
        fs = free_sets[t]
        fvals[t] = bytes(
            sum((fs >> c) & 1 for c in combo) for combo in combos
        )
    dp = {s0: 1}
    peak = 1
    for t in range(scale, 0, -1):
        fv = fvals[t]
        ndp = {}
        get = ndp.get
        for state, cnt in dp.items():
            a = 0
            b = 0
            rem = state
            while rem:
                lsb = rem & -rem
                ci = (lsb.bit_length() - 1) // fold
                shift = ci * fold
                g = (state >> shift) & gmask
                f = fv[ci]
                a |= next0[f][g] << shift
                b |= next1[f][g] << shift
                rem &= ~(gmask << shift)
            if a:
                ndp[a] = get(a, 0) + cnt
            if b:
                ndp[b] = get(b, 0) + cnt
        dp = ndp
        if len(dp) > state_budget:
            return None, peak
        if len(dp) > peak:
            peak = len(dp)
    total = 0
    for state, cnt in dp.items():
        union = 0
        rem = state
        while rem:
            union |= rem & gmask
            rem >>= fold
        total += cnt * union.bit_count()
    return total, peak


def _carry_values_mask(carry_set, shift):
    """Bitmask of distinct ``carry >> shift`` values over a carry-set mask."""
    out = 0
    while carry_set:
        low = carry_set & -carry_set
        out |= 1 << ((low.bit_length() - 1) >> shift)
        carry_set ^= low
    return out


def sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=DEFAULT_STATE_BUDGET):
    """Distinct-sum-prefix counts at several scales, sharing the low phase.

    Returns {scale: DistinctCountResult}.  In exact mode a state-budget
    overflow falls back to bracket mode for that scale, flagged in the
    result, never silently.
    """
    if fold < 1:
        raise ValueError("fold must be at least 1")
    if mode not in ("exact", "bracket"):
        raise ValueError(f"unknown mode {mode!r}")
    width = (fold - 1).bit_length()
    scales = sorted(set(scales))
    for j in scales:
        _check_scale(spec, j)
    free_sets = free_position_sets(spec)
    combos = _combos(len(spec.components), fold)
    emit = sorted({max(j - width, 0) for j in scales})
    init = _initial_carry_masks(spec, fold, emit, free_sets, combos)
    results = {}
    for j in scales:
        e = j - width
        sup = ((fold << j) >> width) + 1  # windows meeting [0, fold]
        peak = 0
        fell_back = False
        count = None
        if e < 0:
            # every digit is absorbed; outputs are shifted final carries
            if mode == "exact":
                union = 0
                for m in init[0]:
                    union |= m
                count = _carry_values_mask(union, -e).bit_count()
                bracket = CellCountBracket(count, count)
                used = "exact"
            else:
                per = [_carry_values_mask(m, -e).bit_count() for m in init[0]]
                bracket = CellCountBracket(max(per), min(sum(per), sup))
                used = "bracket"
            results[j] = DistinctCountResult(j, fold, bracket, used, peak, fell_back)
            continue
        if mode == "exact":
            count, peak = _exact_count(free_sets, e, init[e], combos, fold, state_budget)
            if count is None:
                fell_back = True
        if count is not None:
            bracket = CellCountBracket(count, count)
            used = "exact"
        else:
            per = [
                _bracket_count_one(free_sets, e, init[e][ci], combo, fold)
                for ci, combo in enumerate(combos)
            ]
            bracket = CellCountBracket(max(per), min(sum(per), sup))
            used = "bracket"
        results[j] = DistinctCountResult(j, fold, bracket, used, peak, fell_back)
    return results
