import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumdim.constructions import CANONICAL_EXAMPLES, build_canonical
from sumdim.patterns import DigitPattern, SetSpec, dumps, loads

from helpers import from_rows


def test_symbols_round_trip():
    p = DigitPattern.from_symbols("a00a0")
    assert p.length == 5
    assert p.free_mask == 0b10010
    assert p.symbols() == "a00a0"


def test_from_symbols_rejects_junk():
    with pytest.raises(ValueError):
        DigitPattern.from_symbols("a0b")


def test_position_queries():
    p = DigitPattern.from_symbols("a00a0")
    # position t is bit (length - t) of the free mask
    assert [(p.free_mask >> (p.length - t)) & 1 for t in range(1, 6)] == [1, 0, 0, 1, 0]
    assert p.free_count() == 2
    with pytest.raises(IndexError):
        p.window(6, 7)


def test_window_and_prefix():
    p = DigitPattern.from_symbols("a0aa00")
    assert DigitPattern(3, p.free_mask >> 3).symbols() == "a0a"
    assert p.window(2, 5).symbols() == "0aa"
    assert p.window(1, 7).symbols() == p.symbols()
    assert p.window(3, 3).length == 0


def test_concat_repeat():
    a = DigitPattern.from_symbols("a0")
    assert a.concat(a).symbols() == "a0a0"
    assert a.repeat(3).symbols() == "a0a0a0"
    assert a.repeat(0).length == 0
    assert DigitPattern.all_zero(3).symbols() == "000"


@given(st.text(alphabet="0a", min_size=1, max_size=40))
def test_symbols_round_trip_property(s):
    p = DigitPattern.from_symbols(s)
    assert p.symbols() == s
    assert p.free_count() == s.count("a")


@given(st.text(alphabet="0a", min_size=1, max_size=20), st.integers(1, 4))
def test_repeat_matches_concat(s, times):
    p = DigitPattern.from_symbols(s)
    assert p.repeat(times).symbols() == s * times


def test_spec_validation():
    with pytest.raises(ValueError):
        SetSpec((), 3)
    with pytest.raises(ValueError):
        SetSpec((DigitPattern.from_symbols("a0"),), 3)
    with pytest.raises(ValueError):
        from_rows(["a0", "a0"], boundaries=(2, 2))


def test_spec_params_lookup():
    spec = from_rows(["a0"], name="tiny", params=(("alpha", "1/2"),))
    assert spec.param("alpha") == "1/2"
    assert spec.param("missing", "x") == "x"


def test_json_round_trip():
    spec = from_rows(
        ["a0a", "0aa"],
        name="pair",
        params=(("construction", "adhoc"),),
        boundaries=(2, 4),
        schedule=(("x", "y"), ("y", "x")),
    )
    again = loads(dumps(spec))
    assert again == spec


def test_dumps_is_stable():
    spec = from_rows(["a0"], name="t")
    assert dumps(spec) == dumps(loads(dumps(spec)))


@pytest.mark.parametrize("name", sorted(CANONICAL_EXAMPLES))
def test_canonical_specs_round_trip(name):
    spec = build_canonical(name)
    again = loads(dumps(spec))
    assert again == spec
