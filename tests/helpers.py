"""Spec helpers and reference kernels that only the tests use."""

import itertools
import struct
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from unittest import mock

from sumdim import engine
from sumdim.constructions import BlockParams
from sumdim.engine import (
    _bits,
    _carry_tables,
    _carry_values_mask,
    _combos,
    _segments,
    undominated_masks,
)
from sumdim.patterns import DigitPattern, SetSpec


def from_rows(rows, name="", **kwargs):
    """A spec from symbol strings of equal length, one per component."""
    comps = tuple(DigitPattern.from_symbols(r) for r in rows)
    if not comps:
        raise ValueError("a spec needs at least one component")
    return SetSpec(comps, comps[0].length, name=name, **kwargs)


def rational_block_params(k, targets, scales):
    """``block_params`` by Fraction arithmetic, its differential reference.

    The floors are floor(k x) and the zero runs k floor(n_k (x - a) / a / k)
    on Fractions, each step normalised by a gcd, with the same third-floor
    rule; k is not checked.
    """
    alpha = targets.alpha
    beta = targets.family("beta")
    nfold = len(alpha)

    def floors(fam):
        out = [(k * x).__floor__() for x in fam[:3]] + [None] * (3 - nfold)
        if nfold >= 3 and out[2] > out[0] + out[1] and fam[2] <= fam[0] + fam[1]:
            out[2] = out[0] + out[1]
        return out

    x = beta if targets.gamma is None else targets.gamma
    upper = (None,) * 3 if targets.gamma is None else floors(x)
    n_k = scales.start(k)
    d = tuple(
        k * n_k if a == 0 else k * (n_k * (b - a) / a / k).__floor__()
        for a, b in zip(alpha, x)
    )
    return BlockParams(k, *floors(beta), *upper, d)


def rational_star_floor(start, alpha, gap, index):
    """``star_floor`` by Fraction arithmetic, its differential reference."""
    alpha = Fraction(alpha)
    end = index * start if alpha == 0 else (start / alpha).__floor__()
    return min(end, start + gap)


def per_position_columns(masks, depth, combos):
    """Per combination, its free count at every position, read bit by bit.

    Byte t (1..depth) of a column counts the combination's addends whose
    mask has bit depth - t set; byte 0 is unused.  The plain reference for
    the segment table.
    """
    digits = [[0] + [m >> (depth - t) & 1 for t in range(1, depth + 1)] for m in masks]
    return [bytes(map(sum, zip(*(digits[c] for c in combo)))) for combo in combos]


def per_position_carry_masks(column, fold, tops):
    """{position: carry set}: nextany applied position by position below each top.

    ``column`` is a per-position column (``per_position_columns``) and
    ``tops`` lists distinct positions in descending order.  The plain
    reference for the low phase, ``engine._initial_carry_masks``.
    """
    nextany = _carry_tables(fold)[2]
    out = {}
    cur = 1  # carry 0 only
    t = len(column) - 1  # the deepest position
    for j in tops:
        while t > j:
            cur = nextany[column[t]][cur]
            t -= 1
        out[j] = cur
    return out


def free_count_runs(table):
    """Per combination of the segment table, its runs of positions with one free count.

    Adjacent segments with equal count merge.  Yields ``(starts, counts)``:
    run i covers positions starts[i]..starts[i+1]-1 with counts[i] addends
    free; starts ends with depth + 1.  Byte i of ``x ^ x >> 8``, for x the
    column read as one integer, is nonzero where segment i's count differs
    from segment i - 1's; the top bit marks segment 0.  The engine finds
    runs on the column bytes where its walks read them; these whole run
    lists are the references' view of the same table.
    """
    starts, columns = table
    n = len(starts) - 1
    first = 1 << 8 * n - 1
    for column in columns:
        x = int.from_bytes(column, "big")
        runs = list(itertools.compress(range(n), (x ^ x >> 8 | first).to_bytes(n, "big")))
        yield [starts[i] for i in runs] + [starts[-1]], [column[i] for i in runs]


def per_position_branching_min_average(spec, scales):
    """{n: OFF_n}: the branching DP one position at a time, over every component.

    The differential reference for ``engine.branching_min_average``: the
    state is the set of components consistent with the prefix read so far.
    """
    n = spec.depth
    free = [0] * (n + 1)  # free[t]: the components free at position t
    for ci, comp in enumerate(spec.components):
        for t in range(1, n + 1):
            free[t] |= (comp.free_mask >> (n - t) & 1) << ci
    want = set(scales)
    dp = {(1 << len(spec.components)) - 1: 0}
    out = {}
    for t in range(1, max(want, default=0) + 1):
        ndp = {}
        for s, cost in dp.items():
            s1 = s & free[t]
            c = cost + (1 if s1 else 0)
            for state in (s, s1) if s1 else (s,):
                if state not in ndp or c < ndp[state]:
                    ndp[state] = c
        dp = ndp
        if t in want:
            out[t] = Fraction(min(dp.values()), t)
    return out


def reference_predicted_exponent(spec, fold, scale):
    """Best free density at one scale, one combination at a time.

    The per-scale loop that ``analysis.predicted_exponent`` replaced with
    cached unions: the differential reference for it.
    """
    shift = spec.depth + (fold - 1).bit_length() - scale
    masks = [m >> shift for m in undominated_masks(c.free_mask for c in spec.components)]
    best = 0
    for combo in itertools.combinations_with_replacement(masks, fold):
        acc = 0
        for m in combo:
            acc |= m
        best = max(best, acc.bit_count())
    return Fraction(best, scale)


def unpruned_count_outputs(columns, scale, init_masks, fold, carry_shift, state_budget):
    """Distinct outputs of the given combinations together, by plain subset construction.

    The exact kernel without merging or pruning: the differential reference
    for ``engine._count_outputs``.

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


def unpruned_prefix_counts(spec, fold, scales, state_budget=10**6):
    """{scale: (count, peak)}: exact mode's inputs through ``unpruned_count_outputs``.

    The count is None where the state budget overflowed.
    """
    width = (fold - 1).bit_length()
    masks = undominated_masks(c.free_mask for c in spec.components)
    combos = _combos(len(masks), fold)
    columns = per_position_columns(masks, spec.depth, combos)
    emit = {j: max(j - width, 0) for j in scales}
    tops = sorted(set(emit.values()), reverse=True)
    init = [per_position_carry_masks(column, fold, tops) for column in columns]
    return {
        j: unpruned_count_outputs(
            columns, e, [m[e] for m in init], fold, max(width - j, 0), state_budget
        )
        for j, e in emit.items()
    }


def matrix_times(vec, rows):
    """A sparse row vector times a matrix of sparse rows, each a tuple of (carry set, count)."""
    acc = {}
    for s, x in vec:
        for t, m in rows[s]:
            acc[t] = acc.get(t, 0) + x * m
    return tuple(acc.items())


@lru_cache(maxsize=None)
def transfer_power(fold, f, k):
    """M_f^(2^k), every row at once: paths of 2^k output bits between nonempty carry sets.

    Whole squarings, kept apart from the engine's lazily built rows
    (``engine._power_row``) so that ``per_scale_lone_count`` stays an
    independent reference.
    """
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
    half = transfer_power(fold, f, k - 1)
    return tuple(matrix_times(row, half) for row in half)


def lone_setup(spec, fold, scales):
    """The undominated masks, their combinations and {scale: (emit, carry shift)}."""
    width = (fold - 1).bit_length()
    masks = undominated_masks(c.free_mask for c in spec.components)
    shifts = {j: (max(j - width, 0), max(width - j, 0)) for j in scales}
    return masks, _combos(len(masks), fold), shifts


def _run_steps(runs, hi, lo):
    """(free count, length) of each run's overlap with positions hi down to lo."""
    starts, counts = runs
    i = bisect_right(starts, hi) - 1
    while hi >= lo:
        start = max(starts[i], lo)
        yield counts[i], hi - start + 1
        hi = start - 1
        i -= 1


def per_scale_lone_count(runs, scale, init_mask, fold, carry_shift):
    """Distinct outputs of one combination, stepping positions scale..1 by runs.

    One walk per scale, from the scale down to position 1: the
    differential reference for ``engine._lone_counts``, which walks once
    per call.  Equals ``unpruned_count_outputs`` on the combination's
    column alone.
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
                vec = matrix_times(vec, transfer_power(fold, f, k))
    return sum(x * _carry_values_mask(s, carry_shift).bit_count() for s, x in vec) << doublings


def run_stepped_lone_counts(spec, fold, scales):
    """{scale: [count]}: each combination alone, one run-stepped walk per scale."""
    masks, combos, shifts = lone_setup(spec, fold, scales)
    out = {j: [] for j in scales}
    tops = sorted({e for e, _ in shifts.values()}, reverse=True)
    table = _segments(masks, spec.depth, combos)
    columns = per_position_columns(masks, spec.depth, combos)
    for runs, column in zip(free_count_runs(table), columns, strict=True):
        init = per_position_carry_masks(column, fold, tops)
        for j, (e, shift) in shifts.items():
            out[j].append(per_scale_lone_count(runs, e, init[e], fold, shift))
    return out


class _LaneKills(dict):
    """What one combination B kills, per carry set g it holds in a successor.

    Entry g is the lane-form mask of the members (A, c) with A strictly
    dominated by B and c in g; entries are built on first use.  ``lanes``
    has bit A * fold for each dominated A and g < 2^fold, so lanes * g is
    the sum of lanes << c over the carries c in g, without overlap.
    """

    __slots__ = ("lanes",)

    def __init__(self, dominated, fold):
        super().__init__({0: 0})
        spread = {48: "0" * fold, 49: "0" * (fold - 1) + "1"}  # bit A to bit A * fold
        self.lanes = int(format(dominated, "b").translate(spread), 2)

    def __missing__(self, g):
        out = self[g] = self.lanes * g
        return out


def lane_major_count_outputs(table, emit, carry_shift, init, fold, state_budget, antichain):
    """Distinct outputs of all the combinations together, at every scale, in one sweep.

    The exact kernel with a lane-major state, stepping one lane at a time:
    the differential reference for the carry-major ``engine._count_outputs``,
    which takes the same arguments and returns the same results.

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
    none = _LaneKills(0, fold)
    kills = [
        _LaneKills(x, fold) if x and targets[b] == b else none for b, x in enumerate(dominated)
    ]

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
            kills[b] = _LaneKills(dominated[b], fold) if targets[b] == b else none

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


def lane_major_prefix_counts(spec, fold, scales, state_budget=engine.DEFAULT_STATE_BUDGET):
    """``sum_prefix_counts`` in exact mode, run on ``lane_major_count_outputs``."""
    with mock.patch.object(engine, "_count_outputs", lane_major_count_outputs):
        return engine.sum_prefix_counts(spec, fold, scales, "exact", state_budget)
