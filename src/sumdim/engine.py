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
positions is one vector product with M_f^r (the transfer-matrix method),
built from cached squarings M_f^(2^k).  The low phase steps the same runs
with nextany[f] composed by squaring.

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
combination indices, and the kernel spreads what a combination dominates
to lane form when it first needs it.

One sweep
---------
A step of the subset construction depends only on its position, through
the position's segment and antichain level, never on the scale the walk
began at.  So exact mode walks once per call, from the largest emit
position down to 1 (the forward transfer-matrix method over the pruned
states).  Each scale's initial state, built from its low-phase carry
sets, joins just before the scale's first position; each state carries a
separate word count for every scale that reaches it, packed as fields of
one integer, and each scale reads its own count at the end with its own
carry shift.  Peaks and budgets stay per scale: a scale's state count is
the number of states that carry its count, and a scale whose count
passes the budget leaves the sweep and falls back alone.  The forward
``settled`` skip is kept, so a one-scale call does the work it did on
its own.  The combinations are put in lane order once per call
(``_lane_order``): each level's merge targets come first, so the lanes
past them stay empty and the states stay short integers.
"""

from __future__ import annotations

import itertools
import re
import struct
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
    the merge targets of every level are a prefix of the lanes, and the
    lanes past it are empty.
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
    free; starts ends with depth + 1.
    """
    starts, columns = table
    for column in columns:
        runs = [m.start() for m in re.finditer(rb"(.)\1*", column, re.S)]
        yield [starts[i] for i in runs] + [starts[-1]], [column[i] for i in runs]


@lru_cache(maxsize=None)
def _count_map(v, at_least):
    """A bytes.translate table: byte b to "1" if b >= v (or b == v), else "0"."""
    return bytes.maketrans(
        bytes(range(256)), bytes(49 if (b >= v if at_least else b == v) else 48 for b in range(256))
    )


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


def _stretch(runs, hi, lo, carry_set, fold):
    """One combination's walk over positions hi down to lo from one carry set, by runs.

    Returns ``(vec, doublings)``: the sparse vector of the carry sets
    reached, whose counts are to be multiplied by 2^doublings.
    """
    width = (fold - 1).bit_length()
    vec = ((carry_set, 1),)
    doublings = 0
    for f, r in _run_steps(runs, hi, lo):
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


class _Kills(dict):
    """What one combination B kills, per carry set g it holds in a successor.

    Entry g is the lane-form mask of the members (A, c) with A strictly
    dominated by B and c in g; entries are built on first use.
    """

    __slots__ = ("dominated", "fold")

    def __init__(self, dominated, fold):
        super().__init__({0: 0})
        self.dominated = dominated
        self.fold = fold

    def __missing__(self, g):
        fold = self.fold
        spread = {48: "0" * fold, 49: "0" * (fold - 1) + "1"}  # bit A to bit A * fold
        lanes = int(format(self.dominated, "b").translate(spread), 2)
        out = self[g] = sum(lanes << c for c in _bits(g))
        return out


def _count_outputs(table, emit, carry_shift, init, fold, state_budget, antichain):
    """Distinct outputs of all the combinations together, at every scale, in one sweep.

    Subset state: a big integer whose bit (ci*fold + c) means combination
    (lane) ci can reach the current output word with carry c.  Scale j
    emits its word at positions emit[j]..1 from the state that holds carry
    set init[ci][emit[j]] in lane ci, each position reading its segment's
    free counts from the segment table; an output is the word with its
    final carry shifted right by carry_shift[j].  Each successor is kept
    canonical over the positions still to come, by the ``_antichain``
    tables: a lane moves into its merge target's, and a member whose carry
    a live strict dominator holds is dropped.

    A step depends only on its position, so one walk down from the largest
    emit position serves every scale; scales with one emit position share
    a walk.  A walk's initial state joins just before its first position,
    and each state keeps the word count of every walk that reaches it, one
    field each of a packed integer.  A walk's peak is the most states that
    carry its count after a step; a walk whose state count passes the
    state budget leaves the sweep.  Returns {j: (count, peak)}, with count
    None where the walk left.
    """
    next0, next1, _ = _carry_tables(fold)
    steps = [tuple(zip(next0[f], next1[f])) for f in range(fold + 1)]
    gmask = (1 << fold) - 1
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
    none = _Kills(0, fold)
    kills = [_Kills(x, fold) if x and targets[b] == b else none for b, x in enumerate(dominated)]

    def descend(k):
        """Move the tables from level k to level k - 1."""
        changes = undo[k]
        grown = set()
        for i in range(0, len(changes), 3):
            a, d = changes[i], changes[i + 1]
            for b in _bits(d & ~dominators[a]):
                dominated[b] |= 1 << a
                grown.add(b)
            dominators[a], targets[a] = d, changes[i + 2]
        for b in grown:
            kills[b] = _Kills(dominated[b], fold) if targets[b] == b else none

    # walk w starts at position walks[w]; its word count, at most 2^walks[w],
    # is the field of walks[w] + 1 bits at offset[w] of a state's count
    walks = sorted(set(emit.values()), reverse=True)
    offset = list(itertools.accumulate((e + 1 for e in walks), initial=0))
    top = walks[0]
    k = len(undo) - 1  # the tables stop at the level that holds position top
    quiet = busy = 0
    for ci, column in enumerate(columns):
        quiet |= 1 << (ci * fold)  # carry 0 in every combination
        busy |= int.from_bytes(column, "big")
    busy = busy.to_bytes(len(columns[0]), "big")  # byte i > 0 iff an addend is free on segment i
    lifted = ((quiet << fold) - quiet) ^ quiet  # every carry but 0
    dp = {}
    # With several walks, pres[state] has a 1 in the 32-bit field of each
    # walk that reaches the state, so the sum over states counts each walk's
    # states (no state count nears 2^32).  A lone walk's states are all of dp.
    pres = {} if len(walks) > 1 else None
    unpack = struct.Struct(f"<{len(walks)}I").unpack
    peaks = [0] * len(walks)
    gone = set()  # walks that left the sweep
    joined = 0
    settled = True
    lanes = None  # per state bit: its lane's shift, steps, target shift and kills
    i = bisect_right(starts, top) - 1  # the segment that holds position t
    for t in range(top, -1, -1):
        if joined < len(walks) and walks[joined] == t:
            s0 = 0
            for ci, masks in enumerate(init):
                s0 |= masks[t] << (ci * fold)
            dp[s0] = dp.get(s0, 0) + (1 << offset[joined])
            if pres is not None:
                pres[s0] = pres.get(s0, 0) | 1 << (32 * joined)
            peaks[joined] = 1
            joined += 1
            settled = settled and not s0 & lifted
            lanes = None
        if not t or (not dp and joined == len(walks)):  # done, or every walk left
            break
        if t < starts[i]:  # free counts change
            i -= 1
            lanes = None
        if k and starts[k - 1] == t:  # positions below t leave level k
            descend(k)
            k -= 1
            lanes = None
        if not dp or settled and not busy[i]:
            continue  # nothing to step, or zero digits leave carry 0 where it is
        if lanes is None:
            # a lane moves only to a lower target, so no lane past the
            # highest one occupied now fills before the next walk joins
            used = -(-max(dp).bit_length() // fold)
            lanes = [
                (ci * fold, steps[column[i]], r * fold, kills[r])
                for ci, (column, r) in enumerate(zip(columns[:used], targets))
                for _ in range(fold)
            ]
        ndp = {}
        get = ndp.get
        npres = {}
        pget = npres.get
        for state, cnt in dp.items():
            a = b = ka = kb = 0
            rem = state
            while rem:
                shift, step, to, kill = lanes[(rem & -rem).bit_length() - 1]
                g = (rem >> shift) & gmask
                rem ^= g << shift
                g0, g1 = step[g]
                a |= g0 << to
                b |= g1 << to
                ka |= kill[g0]
                kb |= kill[g1]
            a &= ~ka
            b &= ~kb
            if a:
                ndp[a] = get(a, 0) + cnt
            if b:
                ndp[b] = get(b, 0) + cnt
            if pres is not None:
                p = pres[state]
                if a:
                    npres[a] = pget(a, 0) | p
                if b:
                    npres[b] = pget(b, 0) | p
        dp = ndp
        if pres is None:
            sizes = [len(dp)]
        else:
            pres = npres
            sizes = list(unpack(sum(pres.values()).to_bytes(4 * len(walks), "little")))
        if max(sizes) > state_budget:
            for w, n in enumerate(sizes):
                if n > state_budget:  # walk w leaves; its peak stays the last one
                    sizes[w] = 0
                    gone.add(w)
                    if pres is None:
                        dp.clear()
                        continue
                    bit = 1 << (32 * w)
                    field = (1 << offset[w + 1]) - (1 << offset[w])
                    for state in [s for s, p in pres.items() if p & bit]:
                        pres[state] ^= bit
                        if pres[state]:
                            dp[state] &= ~field
                        else:
                            del pres[state], dp[state]
        peaks = list(map(max, peaks, sizes))
        settled = max(sizes) <= 1 and not any(s & lifted for s in dp)
    unions = []
    for state, cnt in dp.items():
        union = 0
        rem = state
        while rem:
            union |= rem & gmask
            rem >>= fold
        unions.append((union, cnt))
    out = {}
    walk = {e: w for w, e in enumerate(walks)}
    for j, e in emit.items():
        w = walk[e]
        if w in gone:
            out[j] = None, peaks[w]
            continue
        field = (1 << (e + 1)) - 1
        total = 0
        for union, cnt in unions:
            values = _carry_values_mask(union, carry_shift[j]).bit_count()
            total += (cnt >> offset[w] & field) * values
        out[j] = total, peaks[w]
    return out


def _carry_values_mask(carry_set, shift):
    """Bitmask of distinct ``carry >> shift`` values over a carry-set mask."""
    out = 0
    while carry_set:
        low = carry_set & -carry_set
        out |= 1 << ((low.bit_length() - 1) >> shift)
        carry_set ^= low
    return out


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
    scales = sorted(set(scales))
    for j in scales:
        _check_scale(spec, j)
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
