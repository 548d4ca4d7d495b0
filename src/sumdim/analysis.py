"""Finite-scale dimension diagnostics over pattern specs.

Everything here reports per-scale quantities and leaves the limit
statements alone: liminf/limsup become min/max over an explicit scale
set, which is echoed alongside the numbers.  Exponents are log2(count)/j;
the schedule prediction is the exact cumulative Free-count of the best
component combination, so prediction and measurement share arithmetic.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .constructions import (
    DimensionTargets,
    ScaleSequence,
    block_params,
    chunk_symbols,
)
from .engine import (
    DEFAULT_STATE_BUDGET,
    branching_min_average,
    sum_prefix_counts,
    undominated_masks,
)
from .errors import ScaleError
from .patterns import DigitPattern


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

    @property
    def scales(self):
        return tuple(e.scale for e in self.entries)

    def max_upper(self):
        return max(e.exp_upper for e in self.entries)

    def min_lower(self):
        return min(e.exp_lower for e in self.entries)


def predicted_exponent(spec, fold, scale):
    """Best cumulative Free density of any fold-multiset of components.

    The positionwise OR of the chosen masks, truncated to the digits a
    scale-``scale`` output window retains, counts the digits that are
    free in the carry-free sum block; its density is the schedule's own
    exponent prediction.  The window is the top ``scale`` digits of the
    sum word, whose low end sits ``(fold - 1).bit_length()`` digits above
    the same-scale prefix cut, matching the counting engine.
    """
    if not 1 <= scale <= spec.depth:
        raise ScaleError(f"scale {scale} outside 1..{spec.depth}")
    shift = spec.depth + (fold - 1).bit_length() - scale
    masks = [m >> shift for m in undominated_masks(c.free_mask for c in spec.components)]
    best = 0
    for combo in itertools.combinations_with_replacement(masks, fold):
        acc = 0
        for m in combo:
            acc |= m
        pc = acc.bit_count()
        if pc > best:
            best = pc
    return Fraction(best, scale)


def default_scales(spec):
    """Block-complete prefixes plus the dips at the end of forced-zero runs."""
    out = set()
    if spec.boundaries:
        out.update(b - 1 for b in spec.boundaries[1:])
    for token in spec.param("notable_scales", "").split(","):
        if token:
            out.add(int(token))
    out = {j for j in out if 1 <= j <= spec.depth}
    if not out:
        out = {spec.depth}
    return tuple(sorted(out))


def _resolve_scales(spec, scales):
    if scales is None or scales == "boundaries":
        return default_scales(spec)
    if scales == "all":
        return tuple(range(1, spec.depth + 1))
    return tuple(sorted(set(int(j) for j in scales)))


def count_trace(spec, fold, scales=None, mode="bracket", state_budget=DEFAULT_STATE_BUDGET):
    """Certified count brackets and exponents for one fold across scales.

    Bracket mode is the default: its lower edge is the exact count of the
    best single combination, which at block boundaries of the chunked
    constructions is the quantity the schedule predicts.
    """
    chosen = _resolve_scales(spec, scales)
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
    chosen = _resolve_scales(spec, scales)
    offs = branching_min_average(spec, chosen)
    return tuple((n, offs[n]) for n in chosen)


def sum_block_frequency(kinds, k, params):
    """Exact Free frequency of the carry-free sum of same-index blocks.

    Implements the convention that a sum of blocks is Free wherever any
    addend is Free: the positionwise OR of the chunk templates.
    """
    acc = 0
    for kind in kinds:
        acc |= DigitPattern.from_symbols(chunk_symbols(kind, params)).free_mask
    return Fraction(acc.bit_count(), k)


@dataclass(frozen=True)
class FrequencyRecord:
    k: int
    kinds: tuple
    frequencies: tuple  # ((kind, ...), Fraction) pairs, sorted by kind tuple
    extremal: tuple

    @property
    def extremal_frequency(self):
        return dict(self.frequencies)[self.extremal]


def targets_of(spec):
    """DimensionTargets reconstructed from a built spec's parameters."""

    def fam(key):
        raw = spec.param(key, "")
        return tuple(Fraction(t) for t in raw.split(",")) if raw else None

    alpha = fam("alpha")
    if alpha is None:
        raise ValueError("spec carries no target parameters")
    return DimensionTargets(alpha, fam("beta"), fam("gamma"))


def frequency_report(spec, k, fold=2):
    """All fold-wise sum-block frequencies at block index k of a chunked spec."""
    if not spec.schedule or any(":" in entry for entry in spec.schedule[0]):
        raise ValueError("frequency reports need a chunked schedule")
    period = len(spec.schedule[0])
    kinds = tuple(row[k % period] for row in spec.schedule)
    variant = spec.param("variant", "full")
    scales = ScaleSequence(spec.boundaries)
    params = block_params(
        k, targets_of(spec), scales, variant, kinds=sorted(set(kinds))
    )
    freqs = []
    for combo in sorted(set(itertools.combinations_with_replacement(sorted(set(kinds)), fold))):
        freqs.append((combo, sum_block_frequency(combo, k, params)))
    extremal = max(freqs, key=lambda cf: (cf[1], cf[0]))[0]
    return FrequencyRecord(k, kinds, tuple(freqs), extremal)


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
