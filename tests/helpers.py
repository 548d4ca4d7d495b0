"""Spec helpers that only the tests use."""

from sumdim.patterns import DigitPattern, SetSpec


def from_rows(rows, name="", **kwargs):
    """A spec from symbol strings of equal length, one per component."""
    comps = tuple(DigitPattern.from_symbols(r) for r in rows)
    if not comps:
        raise ValueError("a spec needs at least one component")
    return SetSpec(comps, comps[0].length, name=name, **kwargs)
