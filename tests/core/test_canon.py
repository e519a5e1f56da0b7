"""Tests for canonical serialization and hashing (repro.core.canon)."""

import dataclasses
import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import spp1000
from repro.core.canon import (
    canonical,
    canonical_json,
    config_dict,
    stable_hash,
)


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclasses.dataclass(frozen=True)
class Inner:
    x: int
    tags: tuple


def test_scalars_pass_through():
    assert canonical(3) == 3
    assert canonical(2.5) == 2.5
    assert canonical("s") == "s"
    assert canonical(True) is True
    assert canonical(None) is None


def test_dataclass_becomes_field_dict():
    assert canonical(Inner(1, ("a", "b"))) == {"x": 1, "tags": ["a", "b"]}


def test_enum_becomes_value():
    assert canonical(Colour.RED) == "red"
    assert canonical({"c": Colour.BLUE}) == {"c": "blue"}


def test_scalar_subclass_enums_become_plain_scalars():
    # an enum that subclasses a scalar type is not an exact scalar
    assert type(canonical(Level.HIGH)) is int
    assert canonical(Level.HIGH) == 2
    assert type(canonical(Mode.FAST)) is str
    assert canonical(Mode.FAST) == "fast"
    assert canonical_json([Level.LOW, Mode.SLOW]) == '[1,"slow"]'


def test_sets_are_order_independent():
    assert canonical_json({"s": {3, 1, 2}}) == canonical_json({"s": {2, 3, 1}})


def test_dict_key_order_does_not_matter():
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


def test_numpy_values_become_plain():
    assert canonical(np.int64(7)) == 7
    assert type(canonical(np.float64(0.5))) is float
    assert canonical(np.bool_(True)) is True
    assert canonical(np.array([1.0, 2.0])) == [1.0, 2.0]


def test_canonical_json_is_compact_ascii():
    s = canonical_json({"b": [1, 2], "a": "x"})
    assert s == '{"a":"x","b":[1,2]}'


def test_unserializable_object_is_rejected_loudly():
    with pytest.raises(TypeError) as exc:
        canonical(object())
    assert "canonicalise" in str(exc.value)


def test_machine_config_roundtrip_is_stable():
    a = config_dict(spp1000())
    b = config_dict(spp1000())
    assert a == b
    assert canonical_json(a) == canonical_json(b)
    assert a["n_hypernodes"] == 2


def test_different_configs_hash_differently():
    assert stable_hash(spp1000()) != stable_hash(spp1000(n_hypernodes=4))


def test_stable_hash_length_and_determinism():
    h = stable_hash({"k": 1}, length=16)
    assert len(h) == 16
    assert h == stable_hash({"k": 1}, length=16)
    assert stable_hash({"k": 1}).startswith(h)


def test_float_int_distinction_preserved():
    # 1 and 1.0 canonicalise to JSON "1" and "1.0" respectively
    assert canonical_json(1) != canonical_json(1.0)


def _full_path_canonical(obj):
    """``canonical`` without its early return for exact scalars: every
    value takes the enum, dataclass and container checks first."""
    if isinstance(obj, enum.Enum):
        return _full_path_canonical(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _full_path_canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _full_path_canonical(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        items = [_full_path_canonical(v) for v in obj]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(obj, (list, tuple)):
        return [_full_path_canonical(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, str):
        return obj
    if hasattr(obj, "tolist"):
        return _full_path_canonical(obj.tolist())
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from(Level), st.sampled_from(Mode),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64), st.booleans().map(np.bool_))

_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.tuples(inner, inner),
    st.sets(_LEAVES, max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.text()), inner,
                    max_size=4)), max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_canonical_json_matches_the_full_path(obj):
    full = json.dumps(_full_path_canonical(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)
    assert canonical_json(obj) == full
