"""Digit patterns over {Zero, Free} and unions of them.

A pattern of length N constrains the first N binary digits of a real in
[0, 1]: position t (1-indexed from the binary point) is either forced to 0
or free.  Symbol strings use '0' for Zero and 'a' for Free, most significant
position first, so "a0" means digit 1 free, digit 2 forced zero.

Internally a pattern is a free-position bitmask: bit (N - t) of ``free_mask``
is set when position t is free.  With that convention the admissible digit
strings of a component are exactly the submasks of ``free_mask``, and integer
arithmetic on them matches arithmetic on the truncated reals scaled by 2^N.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ScaleError

ZERO = "0"
FREE = "a"


@dataclass(frozen=True)
class DigitPattern:
    length: int
    free_mask: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if not 0 <= self.free_mask < 1 << self.length:
            raise ValueError("free_mask does not fit in length bits")

    @classmethod
    def from_symbols(cls, symbols):
        bad = set(symbols) - {ZERO, FREE}
        if bad:
            raise ValueError(f"unknown symbols {sorted(bad)!r}")
        if not symbols:
            return cls(0, 0)
        return cls(len(symbols), int(symbols.replace(FREE, "1"), 2))

    def symbols(self):
        if self.length == 0:
            return ""
        return format(self.free_mask, f"0{self.length}b").replace("1", FREE)

    def free_count(self):
        return self.free_mask.bit_count()

    def window(self, lo, hi):
        """Subpattern on positions [lo, hi), half-open."""
        if not 1 <= lo <= hi <= self.length + 1:
            raise IndexError(f"window [{lo}, {hi}) outside 1..{self.length}")
        width = hi - lo
        return DigitPattern(width, (self.free_mask >> (self.length - hi + 1)) & ((1 << width) - 1))


@dataclass(frozen=True)
class SetSpec:
    """A finite union of equal-depth digit patterns, plus build metadata.

    ``params`` is a tuple of (key, value) string pairs, kept sorted, so the
    whole spec stays hashable and equals its JSON round trip; ``boundaries``
    holds the scale sequence n_1..n_{K+1} when the spec was built from
    blocks, and ``schedule`` the per-block kind of each component (one row
    per component, one entry per block).
    """

    components: tuple
    depth: int
    name: str = ""
    params: tuple = field(default=())
    boundaries: tuple = field(default=())
    schedule: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if not self.components:
            raise ValueError("a spec needs at least one component")
        for comp in self.components:
            if comp.length != self.depth:
                raise ValueError(
                    f"component length {comp.length} != spec depth {self.depth}"
                )
        prev = 0
        for n in self.boundaries:
            if n <= prev:
                raise ValueError("boundaries must be strictly increasing and positive")
            prev = n

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def notable_scales(self):
        """The scales ``notable_param`` wrote; a token that is not an integer is a ScaleError."""
        out = []
        for token in self.param("notable_scales", "").split(","):
            if token:
                try:
                    out.append(int(token))
                except ValueError as exc:
                    raise ScaleError(f"notable_scales token {token!r} is not an integer") from exc
        return out


def notable_param(scales):
    """The ``notable_scales`` param of a spec: its scales, sorted and comma-separated."""
    return ("notable_scales", ",".join(str(n) for n in sorted(scales)))


def to_json_dict(spec):
    return {
        "name": spec.name,
        "depth": spec.depth,
        "components": [c.symbols() for c in spec.components],
        "params": {k: v for k, v in spec.params},
        "boundaries": list(spec.boundaries),
        "schedule": [list(row) for row in spec.schedule],
    }


def _json_list(key, value):
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON array, not {type(value).__name__}")
    return value


def _json_int(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be a JSON integer, not {value!r}")
    return value


def _json_str(key, value):
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a JSON string, not {value!r}")
    return value


def from_json_dict(data):
    """The SetSpec of a ``to_json_dict`` document; a mistyped field is a TypeError."""
    symbols = _json_list("components", data["components"])
    comps = tuple(DigitPattern.from_symbols(_json_str("a component", s)) for s in symbols)
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise TypeError(f"params must be a JSON object, not {type(params).__name__}")
    boundaries = _json_list("boundaries", data.get("boundaries", []))
    return SetSpec(
        comps,
        _json_int("depth", data["depth"]),
        name=_json_str("name", data.get("name", "")),
        params=tuple((k, _json_str(f"param {k}", v)) for k, v in params.items()),
        boundaries=tuple(_json_int("a boundary", n) for n in boundaries),
        schedule=tuple(
            tuple(_json_str("a schedule entry", k) for k in _json_list("a schedule row", row))
            for row in data.get("schedule", ())
        ),
    )


def dumps(spec):
    return json.dumps(to_json_dict(spec), sort_keys=True, separators=(",", ":")) + "\n"


def loads(text):
    return from_json_dict(json.loads(text))
