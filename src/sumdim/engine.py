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
prunes each state (below), and serves every requested scale from one
sweep (below).  Bracket mode, and exact mode for a scale whose states
overflow the budget, counts each combination alone and reports
[max, sum] over combinations, which brackets the union; the sum is
clamped to the count of windows meeting [0, l], the most the union can
occupy.

Segments and runs
-----------------
The positions where any mask changes digit cut the depth into segments
shared by every combination, and a combination's free count is constant
on each.  One segment table per call, built by ``_segments``, holds the
segment starts and one bytes column per combination with its free count
on each segment; every counting path reads free counts from it.  A lone
combination's state is one nonempty carry set, and a position where f of
its addends are free acts on those states as a small integer transfer
matrix M_f: entry (S, S') counts the output bits that take S to S'.
Adjacent segments with equal count merge into runs.  A run of r
positions is one sparse product of the vector with rows of M_f^r (the
transfer-matrix method).  Row S of M_f^r is built on first use, from the
cached squarings M_f^(2^k), and kept: the same (f, r, S) recur across
combinations, so nearly every run reuses rows.  The low phase likewise
looks up one cached entry of nextany[f] composed r times per run.

A lone combination is walked once per call, not once per scale.  The
call's emit positions e_1 > ... > e_m cut its positions into stretches,
and each stretch is walked once from every carry set met at its top: the
scale's own initial set and those the walks from above reach, so at most
2^l - 1 walks share a stretch.  The count is linear in the vector, so a
bottom-up pass combines the stretch walks into every scale's count.

Pruning
-------
A subset state's output language is the union of what its members
(combination, carry) can still emit at the positions left, t-1..1.  The
exact kernel keeps each successor in a canonical form by two rules read
over those positions.  Merge: combinations whose free counts are equal
there emit the same from each carry, so their lanes fold into the
lowest-index one, which takes the OR of their carry sets.  Prune: when
B's free count is at least A's at every remaining position, B can pick
every digit sum A can, so (B, c) emits all that (A, c) does, and (A, c)
is dropped while B holds carry c.  After the merge such a B differs from
A somewhere, so dominance is a strict partial order and every dropped
member keeps an undominated witness.  Neither rule changes a state's
language, so states that coincide afterwards add their word counts and
the count stays exact; this is the counting analogue of antichain
subsumption (De Wulf, Doyen, Henzinger and Raskin, CAV 2006).  Both
relations change only at the segment cuts and only grow as positions
are consumed: ``_antichain`` finds them once per call, as bitmasks over
combination indices, which are the kernel's lanes.

Bit slices
----------
Exact mode's state is carry-major, Boolean coordinates bit-sliced into
machine-wide words (Biham, FSE 1997): slice c is the bitmask of the
lanes (combinations) that hold carry c.  From carry c a lane with f
addends free reaches carry c' with output bit b when s = 2c' + b - c
lies in 0..f, so a step ANDs slices with the segment's lanes of at least
s free: at most fold * (fold + 1) ANDs a state, however many lanes are
occupied.  A merge moves the bits of lanes whose target is another; a
slice's kill mask, the OR of what its killers dominate, is memoised per
slice and level, and found before any drop as dominance is transitive.

One sweep
---------
A step of the subset construction depends only on its position, through
its segment and antichain level, never on the scale the walk began at.
So exact mode walks once per call, from the largest emit position down
to 1, and each scale's initial state, built from its low-phase carry
sets, joins just before the scale's first position.  No state carries a
count on the way down: each step records every state's two successors,
and one pass back up sums each state's count from theirs (a backward
transfer-matrix count over the forward-reachable pruned states).  Peaks
and budgets are kept per reach group, the states that some scales reach
exactly: the step is deterministic, so a group's next reach set is the
image of its current one, and groups with equal images merge.  A group
whose reach set passes the budget leaves with its scales, which fall
back alone.  The forward ``settled`` skip is kept, so a one-scale call
does the work it did on its own.  The combinations are put in lane order
once per call (``_lane_order``): each level's merge targets come first,
so the occupied lanes form a prefix and every slice stays a short integer.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, ScaleError

DEFAULT_STATE_BUDGET = 10**6
DEFAULT_ENUM_BUDGET = 1 << 24
# The carry automaton tabulates 2^fold carry sets, and free counts are
# packed one byte per segment, so larger folds would exhaust time or memory.
MAX_FOLD = 8
# Entries kept by each run cache, ``_absorb_run`` and ``_run_row``.  A deep
# interleave at fold 3 fills at most about a thousand, so none is evicted.
RUN_CACHE_SIZE = 4096


@dataclass(frozen=True)
class CellCountBracket:
    """Certified two-sided bound on a count of dyadic cells."""

    lower: int
    upper: int

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"bad bracket [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class DistinctCountResult:
    scale: int
    fold: int
    bracket: CellCountBracket
    mode: str  # "exact" or "bracket"
    peak_states: int
    fell_back: bool


def _check_scale(spec, scale):
    if isinstance(scale, bool) or not isinstance(scale, int):
        raise ScaleError(f"scale {scale!r} is not an integer")
    if not 0 <= scale <= spec.depth:
        raise ScaleError(f"scale {scale} outside 0..{spec.depth}")


def branching_min_average(spec, scales):
    """Minimum over depth-n prefixes of the average branching count, exact.

    A position counts as branching when the prefix read so far can be
    extended by both digits, i.e. some still-consistent component is free
    there (the 0-extension always exists).  A dominated component is
    consistent only where its dominator is, so the undominated masks
    suffice.  The state is the set of consistent masks; a segment of r
    positions with free set F takes S to S and, if S & F is nonempty, to
    S & F, each at cost r when S & F is nonempty.  One pass serves every
    requested scale n: returns {n: Fraction in [0, 1]}.
    """
    want = sorted(set(scales), reverse=True)
    for n in want:
        if not 1 <= n <= spec.depth:
            raise ScaleError(f"scale {n} outside 1..{spec.depth}")
    masks = undominated_masks(c.free_mask for c in spec.components)
    starts, columns = _segments(masks, spec.depth, _combos(len(masks), 1))
    dp = {(1 << len(masks)) - 1: 0}
    out = {}
    for i, start in enumerate(starts[:-1]):
        free = sum(column[i] << ci for ci, column in enumerate(columns))
        end = starts[i + 1]
        while want and want[-1] < end:
            n = want.pop()
            out[n] = Fraction(min(c + (n - start + 1) * bool(s & free) for s, c in dp.items()), n)
        if not want:
            break
        ndp = {}
        for s, cost in dp.items():
            s1 = s & free
            c = cost + (end - start if s1 else 0)
            for t in (s, s1) if s1 else (s,):
                if t not in ndp or c < ndp[t]:
                    ndp[t] = c
        dp = ndp
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


def _segments(masks, depth, combos):
    """The segment table: where the masks cut the depth, and each combination's free counts.

    Bit i of ``m ^ (m >> 1)`` is set where the digit at position depth - i
    differs from the one at position depth - i - 1, so the OR over the
    masks marks where a segment starts.  Returns ``(starts, columns)``:
    segment i covers positions starts[i]..starts[i+1]-1, from starts[0] = 1
    to starts[-1] = depth + 1, and byte i of columns[ci] is how many of
    combination ci's addends are free there.  Each mask is spread to one
    byte per segment, so a column is the big-int sum of its addends'
    spreads.
    """
    change = 0
    for m in masks:
        change |= m ^ (m >> 1)
    change &= (1 << (depth - 1)) - 1  # bit depth - 1 would compare position 1 with 0
    marks = format(change, f"0{depth}b")  # character t - 1 is position t
    starts = [1] + [t + 1 for t in range(1, depth) if marks[t] == "1"]
    spread = [int.from_bytes(bytes((m >> (depth - t)) & 1 for t in starts), "big") for m in masks]
    columns = [sum(spread[c] for c in combo).to_bytes(len(starts), "big") for combo in combos]
    return starts + [depth + 1], columns


def _lane_order(table):
    """The segment table with its columns in lane order: each level's merge targets first.

    Sorted as byte strings (segment 0 first), the columns that tie over the
    first k segments form a block led by the one that shares fewer than k
    bytes with the column before it.  A stable sort by that shared length
    then puts, at every level k, the block leaders (shared length < k) ahead
    of the rest, and each leader is the lowest-index member of its block:
    the merge targets of every level are a prefix of the lanes, the lanes
    past it are empty, and so a subset state's bit slices stay as short as
    that prefix: the bits past the highest occupied lane are all zero.
    """
    starts, columns = table
    columns = sorted(columns)
    shared = [0] + [
        len(a) - ((int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).bit_length() + 7) // 8
        for a, b in zip(columns, columns[1:])
    ]
    return starts, [columns[i] for i in sorted(range(len(columns)), key=shared.__getitem__)]


def _free_count_runs(table):
    """Per combination of the segment table, its runs of positions with one free count.

    Adjacent segments with equal count merge.  Yields ``(starts, counts)``:
    run i covers positions starts[i]..starts[i+1]-1 with counts[i] addends
    free; starts ends with depth + 1.  Byte i of ``x ^ x >> 8``, for x the
    column read as one integer, is nonzero where segment i's count differs
    from segment i - 1's; the top bit marks segment 0.
    """
    starts, columns = table
    n = len(starts) - 1
    first = 1 << 8 * n - 1
    for column in columns:
        x = int.from_bytes(column, "big")
        runs = list(itertools.compress(range(n), (x ^ x >> 8 | first).to_bytes(n, "big")))
        yield [starts[i] for i in runs] + [starts[-1]], [column[i] for i in runs]


@lru_cache(maxsize=None)
def _count_map(v, at_least):
    """A bytes.translate table: byte b to "1" if b >= v (or b == v), else "0"."""
    return bytes.maketrans(
        bytes(range(256)), bytes(49 if (b >= v if at_least else b == v) else 48 for b in range(256))
    )


@lru_cache(maxsize=None)
def _bit_map(c):
    """A bytes.translate table: byte b to "1" if bit c of b is set, else "0"."""
    return bytes.maketrans(bytes(range(256)), bytes(49 if b >> c & 1 else 48 for b in range(256)))


def _antichain(table, top):
    """Merge targets and strict dominators over positions 1..p, for p < ``top``.

    Level k stands for the positions of the first k segments of the
    segment table (level 0 for none).  At a level, combination A merges
    into the lowest-index combination whose free counts equal A's there,
    and B strictly dominates A when B's counts are at least A's everywhere
    there and differ somewhere.  Both come from one running AND per
    combination, over the segments' "count = v" and "count >= v" sets of
    combinations, kept as bitmasks in combination-index space.  Only a
    combination that is its own merge target gets dominators: a merged one
    has no lane.  The tables are stored at the top level with, per level
    k, ``undo[k]``: the flat triples A, dominators, target that hold at
    level k - 1 for each A that changed on entering level k.  Combinations
    that tie at a level share one dominator set.  Returns ``(dominators,
    targets, undo)``.
    """
    starts, columns = table
    n = len(columns)
    full = (1 << n) - 1
    ge = [full] * n
    eq = [full] * n
    dominators = [0] * n
    targets = [0] * n
    undo = [[]]
    active = range(n)
    for k in range(bisect_right(starts, top - 1)):
        row = bytes(col[k] for col in reversed(columns))  # combination 0 is the low bit
        ge_v = {}
        eq_v = {}
        shared = {}
        changed = []
        for a in active:
            v = columns[a][k]
            if v not in ge_v:
                ge_v[v] = int(row.translate(_count_map(v, True)), 2)
                eq_v[v] = int(row.translate(_count_map(v, False)), 2)
            g = ge[a] = ge[a] & ge_v[v]
            e = eq[a] = eq[a] & eq_v[v]
            r = (e & -e).bit_length() - 1
            d = g & ~e if r == a else 0  # a merged lane is empty: nothing to drop
            if d != dominators[a] or r != targets[a]:
                changed += (a, dominators[a], targets[a])
                dominators[a], targets[a] = shared.setdefault(d, d), r
        undo.append(changed)
        active = [a for a in active if ge[a] != 1 << a]
    return dominators, targets, undo


@lru_cache(maxsize=None)
def _absorb_power(fold, f, k):
    """nextany[f] composed 2^k times, as a table over carry sets."""
    if k == 0:
        return tuple(_carry_tables(fold)[2][f])
    half = _absorb_power(fold, f, k - 1)
    return tuple(half[s] for s in half)


@lru_cache(maxsize=RUN_CACHE_SIZE)
def _absorb_run(fold, f, r, s):
    """Carry set s after r positions with f addends free: nextany[f] composed r times."""
    for k in range(r.bit_length()):
        if r >> k & 1:
            s = _absorb_power(fold, f, k)[s]
    return s


def _initial_carry_masks(runs, fold, scales):
    """Carry-set of one combination after absorbing every digit below each scale.

    One pass from the deepest position upward, one cached lookup per run
    (or part of a run above and below a scale); returns {scale: mask}.
    """
    starts, counts = runs
    out = {}
    cur = 1  # carry 0 only
    hi = starts[-1] - 1
    i = len(counts) - 1  # the run that holds position hi
    for j in sorted(set(scales), reverse=True):
        while hi > j:
            lo = max(starts[i], j + 1)
            cur = _absorb_run(fold, counts[i], hi - lo + 1, cur)
            hi = lo - 1
            if lo == starts[i]:
                i -= 1
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


@lru_cache(maxsize=RUN_CACHE_SIZE)
def _run_row(fold, f, r, s):
    """Row s of M_f^r: the carry sets that r positions with f addends free reach from s.

    Built on first use, from the unit vector at s times the cached
    squarings M_f^(2^k) for the set bits k of r.  The rows are bounded by
    RUN_CACHE_SIZE; the squarings are not, but they stay small: (fold + 1)
    * log2(depth) matrices per fold.
    """
    vec = ((s, 1),)
    for k in range(r.bit_length()):
        if r >> k & 1:
            vec = _times(vec, _transfer_power(fold, f, k))
    return vec


def _stretch(runs, hi, lo, carry_set, fold):
    """One combination's walk over positions hi down to lo from one carry set, by runs.

    Each run's overlap with hi..lo, r positions with f addends free, is one
    sparse product of the vector with cached rows of M_f^r (``_run_row``).
    A one-entry vector (S, x) is kept as the row of S times a common factor,
    so its product copies nothing.  Returns ``(vec, doublings)``: the
    sparse vector of the carry sets reached, whose counts are to be
    multiplied by 2^doublings.
    """
    starts, counts = runs
    width = (fold - 1).bit_length()
    vec = ((carry_set, 1),)
    factor = 1  # the counts in ``vec`` are times factor
    doublings = 0
    i = bisect_right(starts, hi) - 1  # the run that holds position hi
    while hi >= lo:
        start = starts[i] if starts[i] > lo else lo
        f = counts[i]
        r = hi - start + 1
        hi = start - 1
        i -= 1
        if f < 2 and vec[0][0] == 1 and len(vec) == 1:
            # carry 0 stays alone: each position has 2^f output bits
            doublings += f * r
            continue
        if not f:
            # with no addend free the carries halve: after ``width``
            # positions every carry set is {0}
            r = min(r, width)
        if len(vec) == 1:
            s, x = vec[0]
            factor *= x
            vec = _run_row(fold, f, r, s)
        else:
            acc = {}
            get = acc.get
            for s, x in vec:
                for t, m in _run_row(fold, f, r, s):
                    acc[t] = get(t, 0) + x * m
            vec = tuple(acc.items())
    if factor != 1:
        vec = tuple((t, x * factor) for t, x in vec)
    return vec, doublings


def _lone_counts(runs, init, fold):
    """Distinct outputs of one combination from carry set init[e] at each emit position e.

    Every e in ``init`` must be positive; the final carry is not shifted.
    The walk goes down through the emit positions e_1 > ... > e_m, and each
    stretch between two of them is walked once from every carry set met
    there: the scale's own init[e_i] and those the walks from above reach.
    The count is linear in the vector, so a bottom-up pass combines them:
    count(e_i, S) = (sum of v_S(S') * count(e_{i+1}, S')) << doublings, with
    count(0, S) = popcount(S).  Returns {e: count}.
    """
    tops = sorted(init, reverse=True)
    walked = []  # per stretch: {carry set: (vec, doublings)}
    met = set()
    for hi, lo in zip(tops, tops[1:] + [0]):
        met.add(init[hi])
        walked.append({s: _stretch(runs, hi, lo + 1, s, fold) for s in met})
        met = {t for vec, _ in walked[-1].values() for t, _ in vec}
    out = {}
    below = int.bit_count
    for hi, walks in zip(reversed(tops), reversed(walked)):
        here = {s: sum(x * below(t) for t, x in vec) << d for s, (vec, d) in walks.items()}
        out[hi] = here[init[hi]]
        below = here.__getitem__
    return out


def _bits(x):
    """Indices of the set bits of ``x``."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _slice_moves(ge):
    """One step over bit slices, from ge[s], the lanes with at least s addends free.

    From carry c the digit sum c + s emits bit (c + s) & 1 and carries
    (c + s) >> 1, so entry b * fold + c' lists the pairs (c, ge[s]), s in
    0..fold with ge[s] nonzero, where c + s = 2c' + b: slice c' of the
    b-successor is the OR of slice c & ge[s] over them.
    """
    fold = len(ge) - 1
    moves = [[] for _ in range(2 * fold)]
    for c in range(fold):
        for s, g in enumerate(ge):
            if g:
                moves[(c + s) % 2 * fold + (c + s) // 2].append((c, g))
    return moves


def _count_outputs(table, emit, carry_shift, init, fold, state_budget, antichain):
    """Distinct outputs of all the combinations together, at every scale, in one sweep.

    Subset state: a tuple of ``fold`` slices ("Bit slices" above), bit ci
    of slice c meaning combination (lane) ci can reach the current output
    word with carry c.  Scale j emits its word at positions emit[j]..1 from
    the state that holds carry set init[ci][emit[j]] in lane ci, each
    position stepping by the ``_slice_moves`` of its segment; an output is
    the word with its final carry shifted right by carry_shift[j].  Each
    successor is kept canonical over the positions still to come, by
    the ``_antichain`` tables: a lane moves into its merge target's, and a
    member whose carry a live strict dominator holds is dropped.

    Scales with one emit position share a walk, whose initial state joins
    the sweep just before its first position ("One sweep" above).  Each
    stepped position records the indices of each state's two successors,
    -1 for none; the pass back up counts count[x] = count[a] + count[b],
    and a walk reads its initial state's count at the row it joined.  A
    walk's peak is the largest reach set of the groups it was in; a group
    over the state budget leaves the sweep with its walks.  Returns {j:
    (count, peak)}, with count None where the walk left.
    """
    starts, columns = table
    dominators, targets, undo = antichain
    dominators = list(dominators)
    targets = list(targets)
    # dominated[B]: every A that B has strictly dominated since the top level.
    # An A that later ties B shares B's merge target, so it has no lane of
    # its own and B's kills can never reach a live member of A.
    dominated = [0] * len(columns)
    for a, d in enumerate(dominators):
        for b in _bits(d):
            dominated[b] |= 1 << a

    def level():
        """This level's movers and killers; empty memos of merges and of kept (unkilled) lanes."""
        movers = sum(1 << a for a, r in enumerate(targets) if r != a)
        killers = sum(1 << a for a, r in enumerate(targets) if r == a and dominated[a])
        return movers, killers, {}, {}

    # ``groups`` maps each reach set, a frozenset of state indices, to a node.
    # A walk joins as a new node; when two reach sets coincide, a new node
    # becomes the parent of both.  A node is [peak, parent]: the largest
    # reach set its group had while the node was on top, and its parent's
    # index, or -1 while the group is in the sweep and -2 once it left.
    nodes = []

    def group(into, reach, n):
        """File node n under ``reach`` in ``into``, merging it with a node filed there."""
        m = into.get(reach)
        if m is not None:
            nodes[m][1] = nodes[n][1] = len(nodes)
            n = len(nodes)
            nodes.append([0, -1])
        into[reach] = n

    walks = sorted(set(emit.values()))  # the next walk to join is walks[-1]
    top = walks[-1]
    k = len(undo) - 1  # the tables stop at the level that holds position top
    movers, killers, merged, kills = level()
    busy = 0
    for column in columns:
        busy |= int.from_bytes(column, "big")
    busy = busy.to_bytes(len(columns[0]), "big")  # byte i > 0 iff an addend is free on segment i
    index = {}  # each state at this position, to its index
    rows = []  # per stepped position, each state's successors on bits 0 and 1
    joins = {}  # per row, the (walk, initial state index) pairs that join there
    node = {}  # per walk, its node
    groups = {}
    settled = True
    moves = None  # this segment's _slice_moves
    moving = True  # lanes that move to a merge target may be occupied
    i = bisect_right(starts, top) - 1  # the segment that holds position t
    for t in range(top, -1, -1):
        if walks and walks[-1] == t:
            walks.pop()
            row = bytes(m[t] for m in reversed(init))  # lane 0 is the low bit
            s0 = tuple(int(row.translate(_bit_map(c)), 2) for c in range(fold))
            x = index.setdefault(s0, len(index))
            joins.setdefault(len(rows), []).append((t, x))
            node[t] = len(nodes)
            nodes.append([1, -1])
            group(groups, frozenset([x]), node[t])
            settled = settled and not any(s0[1:])
            moving = True
        if not t or not index and not walks:  # done, or every walk left
            break
        if t < starts[i]:  # free counts change
            i -= 1
            moves = None
        if k and starts[k - 1] == t:  # positions below t leave level k
            changes = undo[k]
            for n in range(0, len(changes), 3):
                a, d, r = changes[n : n + 3]
                for b in _bits(d & ~dominators[a]):
                    dominated[b] |= 1 << a
                dominators[a], targets[a] = d, r
            k -= 1
            movers, killers, merged, kills = level()
            moving = True
        if not index or settled and not busy[i]:
            continue  # nothing to step, or zero digits leave carry 0 where it is
        if moves is None:
            row = bytes(col[i] for col in reversed(columns))  # lane 0 is the low bit
            ge = [int(row.translate(_count_map(s, True)), 2) for s in range(fold + 1)]
            moves = _slice_moves(ge)
        new = {}
        succ = []  # state x's successors on bits 0 and 1 at 2x and 2x + 1
        for state in index:
            out = []
            for pairs in moves:
                x = 0
                for c, g in pairs:
                    x |= state[c] & g
                if moving and x & movers:
                    m = x & movers
                    to = merged.get(m)
                    if to is None:
                        to = merged[m] = sum({1 << targets[a] for a in _bits(m)})
                    x = x ^ m | to
                key = x & killers
                if key:
                    keep = kills.get(key)
                    if keep is None:
                        kill = 0
                        for b in _bits(key):
                            kill |= dominated[b]
                        keep = kills[key] = ~kill
                    x &= keep
                out.append(x)
            for s in tuple(out[:fold]), tuple(out[fold:]):
                succ.append(new.setdefault(s, len(new)) if any(s) else -1)
        moving = False
        zero, one = succ[::2], succ[1::2]
        images = {}
        for reach, n in groups.items():
            if len(reach) == len(index):  # every state reaches every successor
                image = frozenset(new.values())
            else:
                image = frozenset(map(zero.__getitem__, reach)).union(map(one.__getitem__, reach))
                image -= {-1}
            group(images, image, n)
        groups = images
        left = [reach for reach in groups if len(reach) > state_budget]
        for reach in left:
            nodes[groups.pop(reach)][1] = -2  # its walks leave, each with its last peak
        for reach, n in groups.items():
            nodes[n][0] = max(nodes[n][0], len(reach))
        if left:  # drop the states no group reaches
            kept = {x: y for y, x in enumerate(sorted(set().union(*groups)))}
            succ = [kept.get(x, -1) for x in succ]
            new = {s: kept[x] for s, x in new.items() if x in kept}
            groups = {frozenset(map(kept.get, reach)): n for reach, n in groups.items()}
        rows.append(array("i", succ))  # 32-bit indices: 4 bytes a successor
        index = new
        settled = max(map(len, groups), default=0) <= 1 and not any(any(s[1:]) for s in index)
    for n in reversed(nodes):  # a parent comes after its children
        if n[1] >= 0:
            n[:] = max(n[0], nodes[n[1]][0]), nodes[n[1]][1]
    count = [fold - s.count(0) for s in index]  # each final state's number of carries
    reads = {}
    for r in range(len(rows), -1, -1):
        for e, x in joins.get(r, ()):
            reads[e] = count[x] if nodes[node[e]][1] == -1 else None
        if r:
            succ = rows[r - 1]
            count.append(0)  # at index -1: no successor
            count = [count[a] + count[b] for a, b in zip(succ[::2], succ[1::2])]
    union = sum(1 << c for c, x in enumerate(s0) if x)  # emit 0's walk joins last, as s0
    values = {j: _carry_values_mask(union, s).bit_count() for j, s in carry_shift.items() if s}
    return {j: (values.get(j, reads[e]), nodes[node[e]][0]) for j, e in emit.items()}


def _carry_values_mask(carry_set, shift):
    """Bitmask of distinct ``carry >> shift`` values over a carry-set mask."""
    return sum({1 << (c >> shift) for c in _bits(carry_set)})


def sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=DEFAULT_STATE_BUDGET):
    """Distinct-sum-prefix counts at several scales, sharing the work.

    The scales share the low phase and, in exact mode, one sweep of the
    subset construction; in bracket mode, and for exact mode's fallbacks,
    they share one walk down per combination.  Returns {scale:
    DistinctCountResult}.  In exact mode a state-budget overflow falls back
    to bracket mode for that scale alone, flagged in the result, never
    silently.  A fold outside 1..MAX_FOLD or a state budget below 1 is a
    ValueError.
    """
    if not 1 <= fold <= MAX_FOLD:
        raise ValueError(f"fold must lie in 1..{MAX_FOLD}, got {fold}")
    if state_budget < 1:
        raise ValueError("state_budget must be at least 1")
    if mode not in ("exact", "bracket"):
        raise ValueError(f"unknown mode {mode!r}")
    width = (fold - 1).bit_length()
    scales = list(scales)
    for j in scales:
        _check_scale(spec, j)
    scales = sorted(set(scales))
    masks = undominated_masks(c.free_mask for c in spec.components)
    combos = _combos(len(masks), fold)
    emit = {j: max(j - width, 0) for j in scales}
    shift = {j: max(width - j, 0) for j in scales}
    results = {}
    peaks = {}
    table = _segments(masks, spec.depth, combos)
    if mode == "exact" and scales:
        table = _lane_order(table)
        init = [_initial_carry_masks(rn, fold, emit.values()) for rn in _free_count_runs(table)]
        antichain = _antichain(table, max(emit.values()))
        counts = _count_outputs(table, emit, shift, init, fold, state_budget, antichain)
        for j, (count, peaks[j]) in counts.items():
            if count is not None:
                bracket = CellCountBracket(count, count)
                results[j] = DistinctCountResult(j, fold, bracket, "exact", peaks[j], False)
    # bracket mode, and exact mode's fallbacks: each combination alone, its
    # runs built when it is counted, one walk down serving every scale
    rest = [j for j in scales if j not in results]
    per = {j: [] for j in rest}
    for rn in _free_count_runs(table) if rest else ():
        init = _initial_carry_masks(rn, fold, [emit[j] for j in rest])
        lone = _lone_counts(rn, {e: init[e] for e in init if e}, fold)
        for j in rest:
            e = emit[j]
            per[j].append(lone[e] if e else _carry_values_mask(init[0], shift[j]).bit_count())
    for j in rest:
        sup = ((fold << j) >> width) + 1  # windows meeting [0, fold]
        bracket = CellCountBracket(max(per[j]), min(sum(per[j]), sup))
        results[j] = DistinctCountResult(
            j, fold, bracket, "bracket", peaks.get(j, 0), mode == "exact"
        )
    return {j: results[j] for j in scales}
