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
set).  Combinations are drawn from the undominated free masks only: a
duplicate mask, or one contained in another, adds nothing to any l-fold
sum set (``undominated_masks``).  That rule assumes every digit is
forced 0 or free; a forced-1 symbol must revisit it.  Exact mode runs a
subset construction on all combinations at once, position by position,
reading each combination's free counts from one bytes column.  Bracket
mode, and exact mode when its state budget overflows, counts each
combination alone and reports [max, sum] over combinations, which
brackets the union; the sum is clamped to the count of windows meeting
[0, l], the most the union can occupy.

Runs
----
A lone combination's state is one nonempty carry set, and a position
where f of its addends are free acts on those states as a small integer
transfer matrix M_f: entry (S, S') counts the output bits that take S to
S'.  The positions where any mask changes digit cut the depth into
segments shared by every combination.  A combination's free count is
constant on each segment, and adjacent segments with equal count merge
into runs.  A run of r positions is one vector product with M_f^r (the
transfer-matrix method), built from cached squarings M_f^(2^k).  The low
phase steps the same runs with nextany[f] composed by squaring.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
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


def branching_min_average(spec, scales):
    """Minimum over depth-n prefixes of the average branching count, exact.

    A position counts as branching when the prefix read so far can be
    extended by both digits, i.e. some still-consistent component is free
    there (the 0-extension always exists).  One pass serves every requested
    scale n: returns {n: Fraction in [0, 1]}.
    """
    want = set(scales)
    for n in want:
        if not 1 <= n <= spec.depth:
            raise ScaleError(f"scale {n} outside 1..{spec.depth}")
    fs = free_position_sets(spec)
    full = (1 << len(spec.components)) - 1
    dp = {full: 0}
    out = {}
    for t in range(1, max(want, default=0) + 1):
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
        if t in want:
            out[t] = Fraction(min(dp.values()), t)
    return out


def _submasks(m):
    """Every submask of ``m``: the admissible digit strings of free mask ``m``."""
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


# ---------------------------------------------------------------------------
# brute-force oracle


@lru_cache(maxsize=8)
def iterated_pattern_sums(spec, fold, budget=DEFAULT_ENUM_BUDGET):
    """Sorted l-fold sums of the union set, by exhaustive enumeration."""
    if fold < 1:
        raise ValueError("fold must be at least 1")
    total = sum(1 << c.free_count() for c in spec.components)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration of {total} component digit strings exceeds budget {budget}"
        )
    base = set()
    for comp in spec.components:
        base.update(_submasks(comp.free_mask))
    sums = base
    for _ in range(fold - 1):
        if len(sums) * len(base) > budget:
            raise BudgetExceededError(
                f"enumeration of {len(sums)} x {len(base)} pair sums exceeds budget {budget}"
            )
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


def undominated_masks(masks):
    """The distinct free masks that no other mask contains, in first-seen order.

    A component whose free mask lies inside another's adds no digit string,
    so no l-fold sum, that the other does not: dropping it leaves every
    union, and so every count, unchanged.  This holds because digits are
    forced 0 or free; a forced-1 symbol would need its own rule.
    """
    distinct = list(dict.fromkeys(masks))
    return [m for m in distinct if not any(k != m and m & ~k == 0 for k in distinct)]


def _combos(ncomp, fold):
    return tuple(itertools.combinations_with_replacement(range(ncomp), fold))


def _free_count_columns(masks, depth, combos):
    """Per combination, how many of its addends are free at each position.

    Exact mode's per-position input.  Yields one bytes column per
    combination of indices into ``masks``: byte t (1..depth) is the free
    count at position t, byte 0 is unused.  Each free mask is spread to
    one byte per digit by reading its binary string as bytes, so a column
    is a big-int sum of its addends' spread masks.
    """
    zero = int.from_bytes(b"0" * depth, "big")
    spread = [int.from_bytes(format(m, f"0{depth}b").encode(), "big") - zero for m in masks]
    for combo in combos:
        yield sum(spread[c] for c in combo).to_bytes(depth + 1, "big")


def _free_count_runs(masks, depth, combos):
    """Per combination, its runs of positions with one free count.

    Bit i of ``m ^ (m >> 1)`` is set where the digit at position depth - i
    differs from the one at position depth - i - 1, so the OR over the
    masks marks where a segment starts.  Each mask is spread to one byte
    per segment, and a combination's counts are the byte-wise sum of its
    addends' spreads, like a bytes column with one byte per segment.
    Adjacent segments with equal count merge.  Yields ``(starts, counts)``:
    run i covers positions starts[i]..starts[i+1]-1 with counts[i] addends
    free; starts ends with depth + 1.
    """
    change = 0
    for m in masks:
        change |= m ^ (m >> 1)
    change &= (1 << (depth - 1)) - 1  # bit depth - 1 would compare position 1 with 0
    marks = format(change, f"0{depth}b")  # character t - 1 is position t
    seg = [1] + [t + 1 for t in range(1, depth) if marks[t] == "1"]
    spread = [int.from_bytes(bytes((m >> (depth - t)) & 1 for t in seg), "big") for m in masks]
    seg.append(depth + 1)
    for combo in combos:
        column = sum(spread[c] for c in combo).to_bytes(len(seg) - 1, "big")
        runs = [m.start() for m in re.finditer(rb"(.)\1*", column, re.S)]
        yield [seg[i] for i in runs] + [depth + 1], [column[i] for i in runs]


def _run_steps(runs, hi, lo):
    """(free count, length) of each run's overlap with positions hi down to lo."""
    starts, counts = runs
    i = bisect_right(starts, hi) - 1
    while hi >= lo:
        start = max(starts[i], lo)
        yield counts[i], hi - start + 1
        hi = start - 1
        i -= 1


@lru_cache(maxsize=None)
def _absorb_power(fold, f, k):
    """nextany[f] composed 2^k times, as a table over carry sets."""
    if k == 0:
        return tuple(_carry_tables(fold)[2][f])
    half = _absorb_power(fold, f, k - 1)
    return tuple(half[s] for s in half)


def _initial_carry_masks(runs, fold, scales):
    """Carry-set of one combination after absorbing every digit below each scale.

    One pass from the deepest position upward, a run at a time; returns
    {scale: mask}.
    """
    out = {}
    cur = 1  # carry 0 only
    top = runs[0][-1] - 1
    for j in sorted(set(scales), reverse=True):
        for f, r in _run_steps(runs, top, j + 1):
            for k in range(r.bit_length()):
                if r >> k & 1:
                    cur = _absorb_power(fold, f, k)[cur]
        top = j
        out[j] = cur
    return out


def _times(vec, rows):
    """A sparse row vector times a matrix of sparse rows.

    A sparse vector is a tuple of (carry set, count) pairs with nonzero
    counts; row S of a matrix is such a vector.
    """
    acc = {}
    get = acc.get
    for s, x in vec:
        for t, m in rows[s]:
            acc[t] = get(t, 0) + x * m
    return tuple(acc.items())


@lru_cache(maxsize=None)
def _transfer_power(fold, f, k):
    """M_f^(2^k): paths of 2^k output bits between nonempty carry sets."""
    if k == 0:
        next0, next1, _ = _carry_tables(fold)
        rows = [()]  # the empty carry set is dropped
        for s in range(1, 1 << fold):
            row = {}
            for t in (next0[f][s], next1[f][s]):
                if t:
                    row[t] = row.get(t, 0) + 1
            rows.append(tuple(row.items()))
        return tuple(rows)
    half = _transfer_power(fold, f, k - 1)
    return tuple(_times(row, half) for row in half)


def _lone_count(runs, scale, init_mask, fold, carry_shift):
    """Distinct outputs of one combination, stepping positions scale..1 by runs.

    Equals ``_count_outputs`` on the combination's column alone.
    """
    width = (fold - 1).bit_length()
    vec = ((init_mask, 1),)
    doublings = 0  # the counts in ``vec`` are times 2^doublings
    for f, r in _run_steps(runs, scale, 1):
        if f < 2 and vec[0][0] == 1 and len(vec) == 1:
            # carry 0 stays alone: each position has 2^f output bits
            doublings += f * r
            continue
        if not f:
            # with no addend free the carries halve: after ``width``
            # positions every carry set is {0}
            r = min(r, width)
        for k in range(r.bit_length()):
            if r >> k & 1:
                vec = _times(vec, _transfer_power(fold, f, k))
    return sum(x * _carry_values_mask(s, carry_shift).bit_count() for s, x in vec) << doublings


def _count_outputs(columns, scale, init_masks, fold, carry_shift, state_budget):
    """Distinct outputs of the given combinations together, by subset construction.

    Subset state: a big integer whose bit (ci*fold + c) means combination ci
    can reach the current output word with carry c.  Positions scale..1 emit
    the word; an output is the word with its final carry shifted right by
    ``carry_shift``.  Returns (count, peak), or (None, peak) when the state
    budget is exceeded.
    """
    next0, next1, _ = _carry_tables(fold)
    gmask = (1 << fold) - 1
    s0 = quiet = busy = 0
    for ci, (column, mask) in enumerate(zip(columns, init_masks)):
        s0 |= mask << (ci * fold)
        quiet |= 1 << (ci * fold)  # carry 0 in every combination
        busy |= int.from_bytes(column, "big")
    busy = busy.to_bytes(len(columns[0]), "big")  # byte t > 0 iff an addend is free at t
    dp = {s0: 1}
    peak = 1
    settled = s0 == quiet
    for t in range(scale, 0, -1):
        if settled and not busy[t]:
            continue  # zero digits leave carry 0 where it is
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
                f = columns[ci][t]
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
        settled = len(dp) == 1 and quiet in dp
    total = 0
    for state, cnt in dp.items():
        union = 0
        rem = state
        while rem:
            union |= rem & gmask
            rem >>= fold
        total += cnt * _carry_values_mask(union, carry_shift).bit_count()
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
    masks = undominated_masks(c.free_mask for c in spec.components)
    combos = _combos(len(masks), fold)
    emit = {j: max(j - width, 0) for j in scales}
    shift = {j: max(width - j, 0) for j in scales}
    results = {}
    peaks = {}
    if mode == "exact":
        columns = list(_free_count_columns(masks, spec.depth, combos))
        runs = _free_count_runs(masks, spec.depth, combos)
        init = [_initial_carry_masks(rn, fold, emit.values()) for rn in runs]
        for j in scales:
            e = emit[j]
            inits = [m[e] for m in init]
            count, peaks[j] = _count_outputs(columns, e, inits, fold, shift[j], state_budget)
            if count is not None:
                bracket = CellCountBracket(count, count)
                results[j] = DistinctCountResult(j, fold, bracket, "exact", peaks[j], False)
    # bracket mode, and exact mode's fallbacks: each combination alone,
    # its runs built when it is counted
    rest = [j for j in scales if j not in results]
    per = {j: [] for j in rest}
    for rn in _free_count_runs(masks, spec.depth, combos) if rest else ():
        init = _initial_carry_masks(rn, fold, [emit[j] for j in rest])
        for j in rest:
            per[j].append(_lone_count(rn, emit[j], init[emit[j]], fold, shift[j]))
    for j in rest:
        sup = ((fold << j) >> width) + 1  # windows meeting [0, fold]
        bracket = CellCountBracket(max(per[j]), min(sum(per[j]), sup))
        results[j] = DistinctCountResult(
            j, fold, bracket, "bracket", peaks.get(j, 0), mode == "exact"
        )
    return {j: results[j] for j in scales}
