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
achievable carries matters ("low phase"), and from carry 0 it is always
0..h: one number, its largest carry h.  The low phase is local: h forgets
what lies below two long runs in a row, so each scale reads only the
positions just below it ("Segments and runs").  Positions e..1 then emit
output digits one by one, and the final carry supplies the top W digits
("high phase").  Y >> (N + W - j) = word * 2^W + carry with carry < 2^W, so
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
Adjacent segments with equal count merge into runs, found on the column
bytes where a walk reads them; no run list is built.  A run of r
positions is one sparse product of the vector with rows of M_f^r (the
transfer-matrix method).  One cached rule, ``_run_rule``, says what a
run does to S: it builds row S of M_f^r on first use, from the rows of
the squarings M_f^(2^k), each itself built on first use (``_power_row``),
and keeps it, as the same (f, r, S) recur across combinations, so nearly
every run reuses rows.  It also holds the walk's two shortcuts: carry 0
alone with f < 2 only doubles its count, and a run with no addend free
is cut to the carry width.

The low phase reads runs as maps on the largest carry.  From carries
0..h a position with f addends free reaches 0..(h + f) >> 1, a monotone
step whose fixed points are f - 1 and f; h below f climbs to f - 1, the
rest falls to f, each within W steps.  So a run of r positions is min(r,
W) steps (``_run_maps``), and a run of W positions or more leaves h one
of f - 1 and f, or one value when f is 0 or the fold.  The long run
above it has another count, f' <= f - 1 or f' >= f + 1, so it sends
both of those to one value: the composed map of two long runs in a row
is constant, and nothing below them can change h.  The call's emit positions cut the tail into
stretches; ``_initial_carries`` composes each stretch's runs downward
from its top, stops once the map is constant, and applies the maps from
the deepest stretch up.  On the lacunary constructions a stretch reads a
run or two, not the thousands of runs below it.

A lone combination is walked once per call, not once per scale.  The
call's emit positions e_1 > ... > e_m, sorted once per call, cut its
positions into stretches, and each stretch is walked once from every
carry set met at its top: the scale's own initial set {0..h} and those
the walks from above reach, kept as one bitmask over carry sets.  The
carry steps map an interval of carries to an interval or to nothing, so
every set met is an interval and at most l(l + 1)/2 walks share a
stretch.  A stretch inside one run, as most are when a call asks for
every scale, is one cached step for all the sets met (``_run_walks``):
the rule of each, and the mask of the sets they reach.  One test on the
stretch's segment bytes decides it, and a one-segment stretch needs
none.  The count is linear in the vector, so a bottom-up pass combines
the stretch walks into every scale's count, in two lists indexed by
carry set that swap at each stretch.

The constructions build their sets block by block, so over a short
stretch of segments many combinations have the same free counts.  Cut
the segment table into blocks of BLOCK_SEGMENTS consecutive segments;
once per call, ``_stretch_plan`` cuts each stretch that holds a whole
block into pieces: the partial piece above the first whole block, each
whole block, and the partial piece below the last; a stretch with no
whole block is one piece.  A piece's row from carry set S depends only
on the combination's free counts over the piece's segments, so one memo
per call keys it by (piece, those counts, S), builds it with one
``_stretch`` and shares it across combinations (``_block_walk``), for
every stretch not inside one run.  On a deep interleave at fold 3, 560
combinations over 27 blocks make 15,120 (block, counts) pairs, of which
1,764 are distinct.

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
the kernel's lanes, by stepping groups of tied combinations.

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
slice and per level that changes something, and found before any drop as
dominance is transitive.

One sweep
---------
A step of the subset construction depends only on its position, through
its segment and antichain level, never on the scale the walk began at.
So exact mode walks once per call, from the largest emit position down
to 1, and each scale's initial state, built from its lanes' largest
low-phase carries, joins just before the scale's first position.  No
state carries a count on the way down: each step records every state's
two successors, and one pass back up sums each state's count from
theirs (a backward transfer-matrix count over the forward-reachable
pruned states).  Peaks and budgets are kept per reach group, the states
that some scales reach exactly: the step is deterministic, so a group's
next reach set is the image of its current one, and groups with equal
images merge.  A group whose reach set passes the budget leaves with its
scales, which fall back alone.  The forward ``settled`` skip is kept, so
a one-scale call does the work it did on its own.  A step that leaves
the states and the reach groups as they were is a fixed point: every
later step repeats it until a walk joins, the segment ends or the level
changes something, so those steps record its successor row again without
stepping a state.  On the deep interval specs nearly every step between
two scales is one.  The combinations are put in lane order once per call
(``_lane_order``): each level's merge targets come first, so the
occupied lanes form a prefix and every slice stays a short integer.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, ScaleError

DEFAULT_STATE_BUDGET = 10**6
DEFAULT_ENUM_BUDGET = 1 << 24
# The carry automaton tabulates 2^fold carry sets, and free counts are
# packed one byte per segment, so larger folds would exhaust time or memory.
MAX_FOLD = 8
MODES = ("exact", "bracket")  # sum_prefix_counts's counting modes
# Entries kept by each run cache, ``_compose``, ``_run_rule`` and ``_run_walks``.
# The benchmark's deep-bracket pass fills 962 of ``_run_rule``'s, 1 of
# ``_compose``'s (pairs of carry maps) and none of ``_run_walks``'s; its
# cli-sweep pass fills 134, 8 and 80.  None is evicted.
RUN_CACHE_SIZE = 4096
# Segments per block of the lone walk's row memo (``_stretch_plan``).  On a
# deep interleave 12-24 were best; 4 gave up a third of the gain, 64 nearly all.
BLOCK_SEGMENTS = 16
# A bytes.translate table: byte b to 1 if b is nonzero, else 0 (``_initial_carries``).
_RUN_MARKS = bytes.maketrans(bytes(range(256)), bytes(1 if b else 0 for b in range(256)))


@dataclass(frozen=True)
class CellCountBracket:
    """Certified two-sided bound on a count of dyadic cells."""

    lower: int
    upper: int

    def __post_init__(self):
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"bad bracket [{self.lower}, {self.upper}]")

    def __repr__(self):  # Decimal renders counts of any size; int's repr stops at 4,300 digits
        return f"CellCountBracket(lower={Decimal(self.lower)}, upper={Decimal(self.upper)})"


@dataclass(frozen=True)
class DistinctCountResult:
    scale: int
    fold: int
    bracket: CellCountBracket
    mode: str  # one of MODES
    peak_states: int
    fell_back: bool


def check_fold(fold):
    """ValueError unless ``fold`` is an int (not a bool) in 1..MAX_FOLD: the one fold rule."""
    if isinstance(fold, bool) or not isinstance(fold, int) or not 1 <= fold <= MAX_FOLD:
        raise ValueError(f"fold must lie in 1..{MAX_FOLD}, got {fold!r}")


def check_scale(spec, scale, lowest=0):
    """``scale`` if it is an int (not a bool) in lowest..depth, else ScaleError: the one scale rule.

    Counts take scale 0 (one window); exponents and OFF_n divide by the
    scale, so their callers pass ``lowest=1``.
    """
    if isinstance(scale, bool) or not isinstance(scale, int):
        raise ScaleError(f"scale {scale!r} is not an integer")
    if not lowest <= scale <= spec.depth:
        raise ScaleError(f"scale {scale} outside {lowest}..{spec.depth}")
    return scale


def check_scales(spec, scales, lowest=0):
    """The distinct scales, sorted, each checked by ``check_scale`` before any dedup."""
    return tuple(sorted({check_scale(spec, j, lowest) for j in scales}))


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
    want = sorted(check_scales(spec, scales, 1), reverse=True)
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


@lru_cache(maxsize=8, typed=True)  # untyped, fold True or 2.0 would hit 1 or 2 past check_fold
def iterated_pattern_sums(spec, fold, budget=DEFAULT_ENUM_BUDGET):
    """Sorted l-fold sums of the union set, by exhaustive enumeration."""
    check_fold(fold)
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


def window_shift(spec, fold, scale):
    """The shift that takes an l-fold sum word Y to its top-``scale`` window.

    Y has depth + W digits, W = bitlength(fold - 1) ("Value model" above),
    so the window is Y >> (depth + W - scale): the one place W meets a scale.
    """
    return spec.depth + (fold - 1).bit_length() - scale


def brute_force_oracle(spec, fold, scale, budget=DEFAULT_ENUM_BUDGET):
    """Definitionally exact count of distinct sum prefixes at one scale."""
    check_scale(spec, scale)
    sums = iterated_pattern_sums(spec, fold, budget)
    shift = window_shift(spec, fold, scale)
    count = len({y >> shift for y in sums})
    return CellCountBracket(count, count)


# ---------------------------------------------------------------------------
# carry automaton


@lru_cache(maxsize=None)
def _carry_tables(fold):
    """Carry-set transitions for a given fold: ``(next0, next1)``.

    next0[f][mask] / next1[f][mask]: successor carry-set when f addends are
    free here and the emitted output bit is 0 / 1.  From carry c with digit
    sum c + sigma, sigma in 0..f, the bit is the parity and the next carry
    the half; carries never leave 0..fold-1.  Both map an interval of
    carries to an interval or to the empty set, so every carry set a walk
    from {0..h} meets is an interval: at most fold * (fold + 1) / 2 of them.
    """
    size = 1 << fold
    next0, next1 = [], []
    for f in range(fold + 1):
        t0, t1 = [0] * size, [0] * size
        for mask in range(1, size):
            lsb = mask & -mask
            c = lsb.bit_length() - 1
            m = [t0[mask ^ lsb], t1[mask ^ lsb]]  # the other carries' successors, by bit
            for s in range(c, c + f + 1):
                m[s & 1] |= 1 << (s >> 1)
            t0[mask], t1[mask] = m
        next0.append(t0)
        next1.append(t1)
    return next0, next1


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
    combination ci's addends are free there.  Each mask is formatted once
    and spread to one byte per segment, its digit at the segment's start,
    so a column is the big-int sum of its addends' spreads.
    """
    change = 0
    for m in masks:
        change |= m ^ (m >> 1)
    change &= (1 << (depth - 1)) - 1  # bit depth - 1 would compare position 1 with 0
    marks = format(change, f"0{depth}b")  # character t - 1 is position t
    starts = [1] + [t + 1 for t in range(1, depth) if marks[t] == "1"]
    digits = [format(m, f"0{depth}b").encode() for m in masks]  # byte t - 1 is position t
    spread = [int.from_bytes(bytes(d[t - 1] & 1 for t in starts), "big") for d in digits]
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


@lru_cache(maxsize=None)
def _count_map(v):
    """A bytes.translate table: byte b to "1" if b >= v, else "0"."""
    return bytes.maketrans(bytes(range(256)), bytes(49 if b >= v else 48 for b in range(256)))


def _antichain(table, top):
    """Merge targets and strict dominators over positions 1..p, for p < ``top``.

    Level k stands for the positions of the first k segments (level 0 for
    none).  There combination A merges into its leader, the lowest-index
    combination whose free counts equal A's, and B strictly dominates A
    when B's counts are at least A's everywhere and differ somewhere; only
    a leader has dominators, as a merged combination has no lane.  Tied
    combinations share a leader and the set of those at least as free, so
    the tables step tie groups, as bitmasks over combination indices: a
    level splits a group by one AND per count value v with "count = v",
    ANDs each part's set with "count >= v", and drops a group that no
    other is at least as free as.  Only a split or a leader's new
    dominators touch a combination.  Returns ``(dominators, targets,
    undo)``: the tables at the top level and, per level k, the flat
    triples A, dominators, target at level k - 1 for each A that changed
    on entering level k, in any order.
    """
    starts, columns = table
    n = len(columns)
    dominators, targets, undo = [0] * n, [0] * n, [[]]
    groups = [((1 << n) - 1,) * 2]  # (members, those at least as free)
    rows = map(bytes, zip(*reversed(columns)))  # combination 0 is the low bit
    for _, row in zip(range(bisect_right(starts, top - 1)), rows):
        at_least = [int(row.translate(_count_map(v)), 2) for v in sorted(set(row))]
        cuts = [(g, g & ~h) for g, h in zip(at_least, at_least[1:] + [0])]  # ">= v", "= v"
        changed, split = [], []
        for members, ge in groups:
            r0 = (members & -members).bit_length() - 1
            for ge_v, eq_v in cuts:
                part = members & eq_v
                if not part:
                    continue
                g = ge & ge_v
                r = (part & -part).bit_length() - 1
                if r == r0:  # the leader's part: only its dominators can change
                    if g & ~part != dominators[r]:
                        changed += (r, dominators[r], r)
                else:  # a new group: each member leaves r0 for its lowest one
                    m = part
                    while m:
                        a = m.bit_length() - 1
                        changed += (a, 0, r0)
                        targets[a] = r
                        m ^= 1 << a
                dominators[r] = g & ~part
                if g & (g - 1):
                    split.append((part, g))
        undo.append(changed)
        groups = split
    return dominators, targets, undo


@lru_cache(maxsize=None)
def _run_maps(fold):
    """Each run's map on the largest carry: entry [f][r] for f addends free over r positions.

    A map acts on the largest carry h in 0..fold - 1 as a tuple: h goes to
    m[h].  From carries 0..h a position with f addends free reaches
    0..(h + f) >> 1, as every digit sum in 0..h + f occurs.  That step is
    monotone and reaches its fixed point within the carry width W =
    bitlength(fold - 1) steps, so r runs over 0..W and a longer run is
    looked up at W.
    """
    maps = []
    for f in range(fold + 1):
        row = [tuple(range(fold))]
        for _ in range((fold - 1).bit_length()):
            row.append(tuple((h + f) >> 1 for h in row[-1]))
        maps.append(tuple(row))
    return tuple(maps)


@lru_cache(maxsize=RUN_CACHE_SIZE)
def _compose(m, g):
    """The map m after the map g: h goes to m[g[h]]."""
    return tuple(m[h] for h in g)


def _initial_carries(starts, column, fold, tops):
    """Largest carry of one combination after absorbing every digit below each position.

    The low phase starts at carry 0 and reaches every carry up to the
    largest, so that one number h stands for the carry set {0..h}.
    ``tops`` lists distinct positions in descending order; they cut the
    positions below them into stretches, one between each two adjacent
    tops and one below the deepest.  A stretch's map on h is its runs'
    maps composed downward from its top.  The composition stops when the
    map is constant, as no deeper run can change it ("Segments and runs"
    above), or when the stretch ends; the maps are then applied from the
    deepest stretch up, from h = 0.  A stretch inside one segment is one
    table lookup.  Runs are found at C level on the column's tail below
    the lowest top: byte i of ``x ^ x >> 8``, x the tail as one integer,
    is nonzero where segment i's count differs from the one before.  Those
    bytes become 0/1 marks once per column, and each next run start is one
    ``bytes.find``.  Returns {position: h}, in the order of ``tops``.
    """
    w = (fold - 1).bit_length()
    runs = _run_maps(fold)
    a = bisect_right(starts, tops[-1] + 1) - 1  # the segment of the last position absorbed
    n = len(column) - a  # the tail's segments
    x = int.from_bytes(column[a:], "big")
    # byte n marks the end: its segment, past the last, starts at depth + 1
    marks = (x ^ x >> 8).to_bytes(n, "big").translate(_RUN_MARKS) + b"\x01"
    out = {}
    h = 0
    s = len(column) - 1  # the segment of the stretch's top
    bottom = starts[-1] - 1  # the stretch's deepest position
    for j in tops:
        if j < bottom:  # the stretch is j + 1..bottom
            if starts[s] > j + 1:
                s = bisect_right(starts, j + 1, a, s) - 1
            if starts[s + 1] > bottom:  # inside one segment
                r = bottom - j
                h = runs[column[s]][r if r < w else w][h]
            else:
                m = runs[0][0]  # the identity
                t, p = s, j + 1  # the next run piece starts at position p, in segment t
                while p <= bottom and m[0] != m[-1]:
                    k = a + marks.find(1, t - a + 1)  # the segment that starts the next run
                    e = min(starts[k], bottom + 1)
                    r = e - p
                    m = _compose(m, runs[column[t]][r if r < w else w])
                    t, p = k, e
                h = m[h]
            bottom = j
        out[j] = h
    return out


@lru_cache(maxsize=None)
def _power_row(fold, f, k, s):
    """Row s of M_f^(2^k): paths of 2^k output bits from carry set s to each nonempty set.

    A sparse row is a tuple of (carry set, count) pairs with nonzero
    counts.  Row s of M_f^(2^k) is row s of M_f^(2^(k-1)) times that
    matrix, so only the rows some walk reaches are ever squared.
    """
    if k == 0:
        next0, next1 = _carry_tables(fold)
        row = {}
        for t in (next0[f][s], next1[f][s]):
            if t:  # the empty carry set is dropped
                row[t] = row.get(t, 0) + 1
        return tuple(row.items())
    return _times(_power_row(fold, f, k - 1, s), fold, f, k - 1)


def _times(vec, fold, f, k):
    """A sparse row vector times M_f^(2^k), read row by row from ``_power_row``."""
    acc = {}
    get = acc.get
    for s, x in vec:
        for t, m in _power_row(fold, f, k, s):
            acc[t] = get(t, 0) + x * m
    return tuple(acc.items())


@lru_cache(maxsize=RUN_CACHE_SIZE)
def _run_rule(fold, f, r, s):
    """Carry set s through r positions with f addends free: ``(row, doublings)``.

    The row is row s of M_f^r with its counts divided by 2^doublings, built
    on first use from the unit vector at s times the cached rows of the
    squarings M_f^(2^k) for the set bits k of r (``_power_row``).  The
    rules are bounded by RUN_CACHE_SIZE; the squarings' rows are not, but
    they stay few: at most (fold + 1) * log2(depth) * fold * (fold + 1) / 2
    per fold, as every carry set a walk meets is an interval.  Two
    shortcuts live here and nowhere else.  Carry 0 alone with f < 2 stays
    alone, each position having 2^f output bits, so the row is (({0}, 1),)
    with f * r doublings and no big count.  With no addend
    free the carries halve, so after ``width`` positions every carry set
    is {0}: r is clamped to the carry width.
    """
    if f < 2 and s == 1:
        return ((1, 1),), f * r
    if not f:
        r = min(r, (fold - 1).bit_length())
    vec = ((s, 1),)
    for k in range(r.bit_length()):
        if r >> k & 1:
            vec = _times(vec, fold, f, k)
    return vec, 0


def _stretch(starts, column, hi, lo, carry_set, fold):
    """One combination's walk over positions hi down to lo from one carry set, by runs.

    Each run is found by stepping down over the column's equal adjacent
    bytes, a bounded walk: ``_block_walk`` builds a row for one piece, which
    spans at most one block or, for a stretch with no whole block, fewer
    than two, and never for a stretch inside one run.  A run's overlap
    with hi..lo, r positions with f addends free, applies the same
    ``_run_rule`` to every carry set of the vector: one sparse product with
    cached rows of M_f^r.  A one-entry vector (S, x) is kept as the rule's
    row of S times a common factor, so its product copies nothing.  Returns
    ``(vec, doublings)``: the sparse vector of the carry sets reached, whose
    counts are to be multiplied by 2^doublings.
    """
    i = bisect_right(starts, hi) - 1  # the segment that holds position hi
    vec = ((carry_set, 1),)
    factor = 1  # the counts in ``vec`` are times factor
    doublings = 0
    while hi >= lo:
        f = column[i]
        while starts[i] > lo and column[i - 1] == f:
            i -= 1
        start = starts[i] if starts[i] > lo else lo
        r = hi - start + 1
        hi = start - 1
        i -= 1
        if len(vec) == 1:
            s, x = vec[0]
            factor *= x
            vec, d = _run_rule(fold, f, r, s)
            doublings += d
        else:
            acc = {}
            get = acc.get
            for s, x in vec:
                row, d = _run_rule(fold, f, r, s)
                if d:  # a shift by 0 would still copy a big count
                    x <<= d
                for t, m in row:
                    acc[t] = get(t, 0) + x * m
            vec = tuple(acc.items())
    if factor != 1:
        vec = tuple((t, x * factor) for t, x in vec)
    return vec, doublings


def _stretch_plan(starts, tops):
    """The stretches of ``_lone_counts``, each cut at the edges of the whole blocks inside it.

    ``tops`` lists the emit positions e_1 > ... > e_m, all positive; the
    stretch below e_i covers positions e_i down to e_{i+1} + 1, or down to
    1 for the last.  Block b is segments b*B..(b+1)*B - 1 of the segment
    table, B = BLOCK_SEGMENTS, the last one possibly shorter.  Returns per
    stretch ``(hi, lo, a, z, pieces)``, positions hi..lo over segments
    a..z-1, with the stretch top down as pieces of the same form
    ``(hi, lo, a, z)``: the partial piece above the first whole block, each
    whole block, and the partial piece below the last; a stretch with no
    whole block is one piece.
    """
    n = len(starts) - 1
    cuts = [*range(0, n, BLOCK_SEGMENTS), n]
    edges = [starts[a] for a in cuts]  # block b: positions edges[b]..edges[b+1]-1
    plan = []
    for hi, lo in zip(tops, tops[1:] + [0]):
        lo += 1
        a, z = bisect_right(starts, lo) - 1, bisect_right(starts, hi)
        first = bisect_left(edges, lo)
        last = bisect_right(edges, hi + 1) - 2
        if first > last:
            plan.append((hi, lo, a, z, [(hi, lo, a, z)]))
            continue
        pieces = [
            (edges[b + 1] - 1, edges[b], cuts[b], cuts[b + 1]) for b in range(last, first - 1, -1)
        ]
        if hi >= edges[last + 1]:
            pieces.insert(0, (hi, edges[last + 1], cuts[last + 1], z))
        if lo < edges[first]:
            pieces.append((edges[first] - 1, lo, a, cuts[first]))
        plan.append((hi, lo, a, z, pieces))
    return plan


def _block_walk(starts, column, pieces, carry_set, fold, rows):
    """One combination's walk over a stretch's pieces from one carry set.

    Returns ``_stretch``'s result.  A piece's row for carry set S depends
    only on the combination's free counts over the piece's segments, so
    ``rows``, one memo per call, keys it by (the piece's top position,
    which no other piece of the call shares, those counts, S) and builds it
    with ``_stretch`` on first use.  The vector goes through the pieces as
    ``_stretch`` takes it through runs, one lookup per entry a piece.
    """
    vec = ((carry_set, 1),)
    factor = 1  # the counts in ``vec`` are times factor
    doublings = 0
    for hi, lo, a, z in pieces:
        pattern = column[a:z]
        if len(vec) == 1:
            s, x = vec[0]
            factor *= x
            key = (hi, pattern, s)
            rule = rows.get(key)
            if rule is None:
                rule = rows[key] = _stretch(starts, column, hi, lo, s, fold)
            vec, d = rule
            doublings += d
        else:
            acc = {}
            get = acc.get
            for s, x in vec:
                key = (hi, pattern, s)
                rule = rows.get(key)
                if rule is None:
                    rule = rows[key] = _stretch(starts, column, hi, lo, s, fold)
                row, d = rule
                if d:  # a shift by 0 would still copy a big count
                    x <<= d
                for t, m in row:
                    acc[t] = get(t, 0) + x * m
            vec = tuple(acc.items())
    if factor != 1:
        vec = tuple((t, x * factor) for t, x in vec)
    return vec, doublings


@lru_cache(maxsize=RUN_CACHE_SIZE)
def _run_walks(fold, f, r, met):
    """A run of r positions with f addends free, from every carry set of ``met``.

    ``met`` is a bitmask over carry sets: bit S is set when carry set S is
    met.  Returns ``(walks, reached)``: walks holds ``(S, row,
    doublings)``, the ``_run_rule`` of each S in increasing order, and
    reached is the bitmask of the carry sets those rows reach.  A stretch
    inside one run is then one lookup for all the sets met at its top.
    """
    walks = tuple((s, *_run_rule(fold, f, r, s)) for s in range(met.bit_length()) if met >> s & 1)
    return walks, sum({1 << t for _, vec, _ in walks for t, _ in vec})  # distinct bits: sum is OR


def _lone_counts(starts, column, plan, init, fold, rows):
    """Distinct outputs of one combination from carries 0..init[e] at each emit position e.

    ``plan`` is the call's ``_stretch_plan`` and ``column`` the
    combination's column of the segment table; the final carry is not
    shifted.  The walk goes down through the emit positions, and each
    stretch between two of them is walked once from every carry set met
    there: the scale's own {0..init[e]}, as the mask (2 << init[e]) - 1,
    and those the walks from above reach, kept as one bitmask over carry
    sets.  A stretch inside one run, found by one test on its segments'
    bytes (none for a one-segment stretch), is one ``_run_walks`` lookup
    for all its sets; otherwise its pieces share ``rows`` with the call's
    other combinations (``_block_walk``), once per set.  The count is
    linear in the vector, so a bottom-up pass combines them: count(e_i, S)
    = (sum of v_S(S') * count(e_{i+1}, S')) << doublings, with count(0, S)
    = popcount(S).  The pass keeps two lists indexed by carry set, swapped
    at each stretch: every set a walk reaches was met, so written, at the
    stretch below.  Returns the counts in ``plan`` order.
    """
    walked = []  # per stretch: (carry set, vec, doublings) per walk
    met = 0
    for hi, lo, a, z, pieces in plan:
        met |= 1 << ((2 << init[hi]) - 1)
        # every segment of the stretch has one count: a test with no slice for one segment
        if z - a == 1 or not column[a + 1 : z].strip(column[a : a + 1]):
            walks, met = _run_walks(fold, column[a], hi - lo + 1, met)
        else:
            walks = []
            reached = 0
            for s in range(met.bit_length()):
                if met >> s & 1:
                    vec, d = _block_walk(starts, column, pieces, s, fold, rows)
                    walks.append((s, vec, d))
                    for t, _ in vec:
                        reached |= 1 << t
            met = reached
        walked.append(walks)
    out = []
    below = [s.bit_count() for s in range(1 << fold)]
    here = [0] * (1 << fold)
    for (hi, _, _, _, _), walks in zip(reversed(plan), reversed(walked)):
        for s, vec, d in walks:
            n = 0
            for t, x in vec:
                n += x * below[t]
            here[s] = n << d
        out.append(here[(2 << init[hi]) - 1])
        below, here = here, below
    out.reverse()
    return out


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
    the state that holds carries 0..init[ci][emit[j]] in lane ci, each
    position stepping by the ``_slice_moves`` of its segment; an output is
    the word with its final carry shifted right by carry_shift[j].  Each
    successor is kept canonical over the positions still to come, by
    the ``_antichain`` tables: a lane moves into its merge target's, and a
    member whose carry a live strict dominator holds is dropped.  The top
    level's tables enter as changes, as every level's do; the merge and
    kill memos are emptied only at a level that changes something.

    Scales with one emit position share a walk, whose initial state joins
    the sweep just before its first position ("One sweep" above).  Each
    stepped position records the indices of each state's two successors,
    -1 for none; the pass back up counts count[x] = count[a] + count[b],
    and a walk reads its initial state's count at the row it joined.  A
    step whose states and reach groups come out as they went in is fixed:
    until a join, a segment cut or a level that changes something, each
    later position records that step's row again and steps nothing.  A
    walk's peak is the largest reach set of the groups it was in; a group
    over the state budget leaves the sweep with its walks.  Returns {j:
    (count, peak)}, with count None where the walk left.
    """
    starts, columns = table
    dominators, targets, undo = antichain
    lanes = range(len(columns))
    changes = [x for change in zip(lanes, dominators, targets) for x in change]
    # dominated[B]: every A that B has strictly dominated since the top level,
    # B then a killer.  An A that later ties B shares B's target, so it has no
    # lane and B's kills reach no live member of it; a killer that moves holds no bit.
    dominators, targets, dominated = [0] * len(lanes), list(lanes), [0] * len(lanes)
    movers = killers = 0  # lanes that move to a merge target, and killers

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
    fixed = False  # the last step left the states and groups as they were
    i = bisect_right(starts, top) - 1  # the segment that holds position t
    for t in range(top, -1, -1):
        if walks and walks[-1] == t:
            walks.pop()
            row = bytes(m[t] for m in reversed(init))  # lane 0 is the low bit
            s0 = tuple(int(row.translate(_count_map(c)), 2) for c in range(fold))
            x = index.setdefault(s0, len(index))
            joins.setdefault(len(rows), []).append((t, x))
            node[t] = len(nodes)
            nodes.append([1, -1])
            group(groups, frozenset([x]), node[t])
            settled = settled and not any(s0[1:])
            moving = True
            fixed = False
        if not t or not index and not walks:  # done, or every walk left
            break
        if t < starts[i]:  # free counts change
            i -= 1
            moves = None
            fixed = False
        if k and starts[k - 1] == t:  # positions below t leave level k
            changes, k = undo[k], k - 1
        if changes:  # a level that changes nothing keeps its memos
            for n in range(0, len(changes), 3):
                a, d, r = changes[n : n + 3]
                d, dominators[a], targets[a] = d & ~dominators[a], d, r
                while d:  # the lanes a is newly dominated by
                    b = d.bit_length() - 1
                    dominated[b] |= 1 << a
                    killers |= 1 << b
                    d ^= 1 << b
                movers |= (r != a) << a  # targets only move down: a mover stays one
            changes = None
            merged, kills = {}, {}  # memos of merges and of kept (unkilled) lanes
            moving, fixed = True, False
        if not index or settled and not busy[i]:
            continue  # nothing to step, or zero digits leave carry 0 where it is
        if fixed:  # this step would repeat the last one
            rows.append(rows[-1])
            continue
        if moves is None:
            row = bytes(col[i] for col in reversed(columns))  # lane 0 is the low bit
            ge = [int(row.translate(_count_map(s)), 2) for s in range(fold + 1)]
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
                        to, y = 0, m
                        while y:
                            b = y.bit_length() - 1
                            to |= 1 << targets[b]
                            y ^= 1 << b
                        merged[m] = to
                    x = x ^ m | to
                key = x & killers
                if key:
                    keep = kills.get(key)
                    if keep is None:
                        kill, y = 0, key
                        while y:
                            b = y.bit_length() - 1
                            kill |= dominated[b]
                            y ^= 1 << b
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
        # a step that leaves the states and groups as they were (none then
        # over the budget) repeats until a walk joins, the segment ends or
        # the level changes something
        fixed = new == index and images == groups
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
    top = fold - s0.count(0) - 1  # emit 0's walk joins last, as s0: its largest carry
    values = {j: (top >> s) + 1 for j, s in carry_shift.items() if s}
    return {j: (values.get(j, reads[e]), nodes[node[e]][0]) for j, e in emit.items()}


def sum_prefix_counts(spec, fold, scales, mode="exact", state_budget=DEFAULT_STATE_BUDGET):
    """Distinct-sum-prefix counts at several scales, sharing the work.

    The scales share the low phase and, in exact mode, one sweep of the
    subset construction; in bracket mode, and for exact mode's fallbacks,
    they share one walk down per combination.  Returns {scale:
    DistinctCountResult}.  In exact mode a state-budget overflow falls back
    to bracket mode for that scale alone, flagged in the result, never
    silently.  The fold and each scale pass ``check_fold`` and
    ``check_scale``; a state budget that is not an int (not a bool) of at
    least 1 is a ValueError.
    """
    check_fold(fold)
    if isinstance(state_budget, bool) or not isinstance(state_budget, int) or state_budget < 1:
        raise ValueError(f"state_budget must be an int of at least 1, got {state_budget!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    width = (fold - 1).bit_length()
    scales = check_scales(spec, scales)
    if not scales:
        return {}
    masks = undominated_masks(c.free_mask for c in spec.components)
    combos = _combos(len(masks), fold)
    emit = {j: max(j - width, 0) for j in scales}
    shift = {j: max(width - j, 0) for j in scales}
    results = {}
    peaks = {}
    table = _segments(masks, spec.depth, combos)
    if mode == "exact":
        table = _lane_order(table)
    starts, columns = table
    tops = sorted(set(emit.values()), reverse=True)
    # the low phase, once per call: each combination's largest carry at every emit position
    init = [_initial_carries(starts, column, fold, tops) for column in columns]
    if mode == "exact":
        antichain = _antichain(table, tops[0])
        counts = _count_outputs(table, emit, shift, init, fold, state_budget, antichain)
        for j, (count, peaks[j]) in counts.items():
            if count is not None:
                bracket = CellCountBracket(count, count)
                results[j] = DistinctCountResult(j, fold, bracket, "exact", peaks[j], False)
    # bracket mode, and exact mode's fallbacks: each combination alone, its
    # runs found on its column where a walk reads them, one walk down serving
    # every scale, and block rows shared across the combinations; each emit
    # position keeps the max and the sum of its counts, not each one
    rest = [j for j in scales if j not in results]
    positive = [e for e in sorted({emit[j] for j in rest}, reverse=True) if e]
    low = [j for j in rest if not emit[j]]  # these read init[0], each at its own shift
    most = total = [0] * (len(positive) + len(low))
    plan = _stretch_plan(starts, positive)
    rows = {}  # the pieces' rows, shared by the combinations (``_block_walk``)
    for column, carries in zip(columns, init) if rest else ():
        counts = _lone_counts(starts, column, plan, carries, fold, rows)
        if low:
            counts += [(carries[0] >> shift[j]) + 1 for j in low]
        most = list(map(max, most, counts))
        total = list(map(operator.add, total, counts))
    slot = {e: i for i, e in enumerate(positive)}
    for j in rest:
        i = slot[emit[j]] if emit[j] else len(positive) + low.index(j)
        sup = ((fold << j) >> width) + 1  # windows meeting [0, fold]
        bracket = CellCountBracket(most[i], min(total[i], sup))
        results[j] = DistinctCountResult(
            j, fold, bracket, "bracket", peaks.get(j, 0), mode == "exact"
        )
    return {j: results[j] for j in scales}
