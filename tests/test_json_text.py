"""The canonical JSON writer against ``json.dumps(obj, indent=2)``.

Every saved file and every JSON report goes through ``render.json_text``, so
it must give the standard encoder's bytes for every tree that encoder
accepts, and raise TypeError wherever the encoder does.
"""

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge.render import json_text


class Color(enum.IntEnum):
    RED = 1
    BLUE = 20


class Name(str):
    pass


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.just(-0.0),
    st.floats().map(np.float64),
    st.sampled_from(list(Color)),
    st.text(),
    st.text().map(Name),
)
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none(), st.sampled_from(list(Color)))
# Values and keys json.dumps rejects without a ``default``.
BAD_VALUES = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.sets(st.integers(), max_size=2),
    st.just(np.bool_(True)),
    st.builds(object),
)
BAD_KEYS = st.one_of(st.tuples(st.integers()), st.frozensets(st.integers(), max_size=1))


def _trees(leaves, keys):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=30,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree=_trees(SCALARS, KEYS))
def test_matches_json_dumps(tree):
    assert json_text(tree) == json.dumps(tree, indent=2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree=_trees(st.one_of(SCALARS, BAD_VALUES), st.one_of(KEYS, BAD_KEYS)))
def test_raises_type_error_where_json_dumps_does(tree):
    try:
        expected = json.dumps(tree, indent=2)
    except TypeError:
        with pytest.raises(TypeError):
            json_text(tree)
    else:
        assert json_text(tree) == expected


@pytest.mark.parametrize(
    "tree",
    [
        {},
        [],
        (),
        [[], {}, [[]], {"a": {}}],
        -0.0,
        [float("nan"), float("inf"), -float("inf")],
        {float("nan"): 1, 1.5: 2, True: 3, False: 4, None: 5, 7: 6, Color.BLUE: 7},
        ["é中\U0001f600", "\ud800", "\"quoted\"\n\t"],
        {"x": (1, np.float64(2.5), 10**300, Color.RED)},
        Name("top"),
        10**4000,
    ],
)
def test_edge_cases(tree):
    assert json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "tree", [np.int64(3), {1, 2}, [1.0, {"a": {2}}], {(1,): 2}, {"k": np.bool_(False)}, object()]
)
def test_unencodable_values_raise_type_error(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, indent=2)
    with pytest.raises(TypeError):
        json_text(tree)
