"""Finite-scale dimension diagnostics over pattern specs.

Everything here reports per-scale quantities and leaves the limit
statements alone: liminf/limsup become min/max over an explicit scale
set, which is echoed alongside the numbers.  Exponents are log2(count)/j;
the schedule prediction is the exact cumulative Free-count of the best
component combination, so prediction and measurement share arithmetic.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .engine import (
    DEFAULT_STATE_BUDGET,
    MAX_FOLD,
    branching_min_average,
    sum_prefix_counts,
    undominated_masks,
)
from .errors import ScaleError


def log2_big(n):
    """log2 for arbitrarily large positive integers, float-safe."""
    if n <= 0:
        raise ValueError("log2 of a nonpositive count")
    bl = n.bit_length()
    if bl <= 53:
        return math.log2(n)
    return math.log2(n >> (bl - 53)) + (bl - 53)


@dataclass(frozen=True)
class TraceEntry:
    scale: int
    fold: int
    lower: int
    upper: int
    exp_lower: float
    exp_upper: float
    predicted: Fraction
    mode: str


@dataclass(frozen=True)
class CountTrace:
    fold: int
    entries: tuple


@functools.lru_cache(maxsize=64)
def _fold_unions(free_masks, fold):
    """The distinct ORs of the fold-multisets of the undominated masks."""
    masks = undominated_masks(free_masks)
    return frozenset(
        functools.reduce(operator.or_, combo)
        for combo in itertools.combinations_with_replacement(masks, fold)
    )


def predicted_exponent(spec, fold, scale):
    """Best cumulative Free density of any fold-multiset of components.

    The positionwise OR of the chosen masks, truncated to the digits a
    scale-``scale`` output window retains, counts the digits that are
    free in the carry-free sum block; its density is the schedule's own
    exponent prediction.  The window is the top ``scale`` digits of the
    sum word, whose low end sits ``(fold - 1).bit_length()`` digits above
    the same-scale prefix cut, matching the counting engine.  A fold
    outside 1..MAX_FOLD is a ValueError, as in the engine.

    The unions do not depend on the scale, so ``_fold_unions`` caches them
    per key (the tuple of component free masks, fold); each scale then
    only shifts and counts them.  The key holds no depth: the shift comes
    from this spec's own depth.
    """
    if not 1 <= fold <= MAX_FOLD:
        raise ValueError(f"fold must lie in 1..{MAX_FOLD}, got {fold}")
    if not 1 <= scale <= spec.depth:
        raise ScaleError(f"scale {scale} outside 1..{spec.depth}")
    shift = spec.depth + (fold - 1).bit_length() - scale
    unions = _fold_unions(tuple(c.free_mask for c in spec.components), fold)
    best = max(((u >> shift).bit_count() for u in unions), default=0)
    return Fraction(best, scale)


def default_scales(spec):
    """Block-complete prefixes plus the dips at the end of forced-zero runs."""
    out = set()
    if spec.boundaries:
        out.update(b - 1 for b in spec.boundaries[1:])
    for token in spec.param("notable_scales", "").split(","):
        if token:
            try:
                out.add(int(token))
            except ValueError as exc:
                raise ScaleError(f"notable_scales token {token!r} is not an integer") from exc
    out = {j for j in out if 1 <= j <= spec.depth}
    if not out:
        out = {spec.depth}
    return tuple(sorted(out))


def resolve_scales(spec, scales):
    """The sorted scales a ``scales`` value names on ``spec``.

    None and "boundaries" name the default scales, "all" every prefix
    length; any other value lists its scales, each an int in 1..depth.
    """
    if scales is None or scales == "boundaries":
        return default_scales(spec)
    if scales == "all":
        return tuple(range(1, spec.depth + 1))
    chosen = tuple(scales)
    for j in chosen:
        if isinstance(j, bool) or not isinstance(j, int):
            raise ScaleError(f"scale {j!r} is not an integer")
    chosen = tuple(sorted(set(chosen)))
    for j in chosen:
        if not 1 <= j <= spec.depth:
            raise ScaleError(f"scale {j} outside 1..{spec.depth}")
    return chosen


def count_trace(spec, fold, scales=None, mode="bracket", state_budget=DEFAULT_STATE_BUDGET):
    """Certified count brackets and exponents for one fold across scales.

    Bracket mode is the default: its lower edge is the exact count of the
    best single combination, which at block boundaries of the chunked
    constructions is the quantity the schedule predicts.
    """
    chosen = resolve_scales(spec, scales)
    results = sum_prefix_counts(spec, fold, chosen, mode=mode, state_budget=state_budget)
    entries = []
    for j in chosen:
        r = results[j]
        b = r.bracket
        used = r.mode if not r.fell_back else "bracket-fallback"
        entries.append(
            TraceEntry(
                j,
                fold,
                b.lower,
                b.upper,
                log2_big(b.lower) / j,
                log2_big(b.upper) / j,
                predicted_exponent(spec, fold, j),
                used,
            )
        )
    return CountTrace(fold, tuple(entries))


def off_trace(spec, scales=None):
    """Minimum average branching along prefixes, the Hausdorff lower proxy.

    Returns (n, OFF_n) pairs with exact rational OFF values; the running
    minimum over the reported scales lower-bounds every deeper dip.
    """
    chosen = resolve_scales(spec, scales)
    offs = branching_min_average(spec, chosen)
    return tuple((n, offs[n]) for n in chosen)


# ---------------------------------------------------------------------------
# rendering


def _g12(x):
    return format(float(x), ".12g")


def render_count_trace_csv(trace, header=None):
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append("j,fold,lower,upper,exp_lower,exp_upper,predicted,mode")
    for e in trace.entries:
        # Decimal renders counts of any size; str(int) stops at 4,300 digits
        lower, upper = decimal.Decimal(e.lower), decimal.Decimal(e.upper)
        lines.append(
            f"{e.scale},{e.fold},{lower},{upper},"
            f"{_g12(e.exp_lower)},{_g12(e.exp_upper)},{_g12(e.predicted)},{e.mode}"
        )
    return "\n".join(lines) + "\n"


def render_off_trace_csv(entries, header=None):
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append("n,off,off_num,off_den")
    for n, off in entries:
        lines.append(f"{n},{_g12(off)},{off.numerator},{off.denominator}")
    return "\n".join(lines) + "\n"
