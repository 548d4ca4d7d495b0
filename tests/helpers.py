"""Spec helpers and reference kernels that only the tests use."""

from sumdim.engine import (
    _carry_tables,
    _carry_values_mask,
    _combos,
    _free_count_columns,
    _free_count_runs,
    _initial_carry_masks,
    undominated_masks,
)
from sumdim.patterns import DigitPattern, SetSpec


def from_rows(rows, name="", **kwargs):
    """A spec from symbol strings of equal length, one per component."""
    comps = tuple(DigitPattern.from_symbols(r) for r in rows)
    if not comps:
        raise ValueError("a spec needs at least one component")
    return SetSpec(comps, comps[0].length, name=name, **kwargs)


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
    columns = list(_free_count_columns(masks, spec.depth, combos))
    emit = {j: max(j - width, 0) for j in scales}
    init = [
        _initial_carry_masks(runs, fold, emit.values())
        for runs in _free_count_runs(masks, spec.depth, combos)
    ]
    return {
        j: unpruned_count_outputs(
            columns, e, [m[e] for m in init], fold, max(width - j, 0), state_budget
        )
        for j, e in emit.items()
    }
