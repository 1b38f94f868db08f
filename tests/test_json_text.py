"""The canonical JSON writer against ``json.dumps(obj, indent=2)``.

Every saved file and every JSON report goes through ``render.json_text``, so
it must give the standard encoder's bytes for every tree that encoder
accepts, and raise TypeError wherever the encoder does. The savers that
write records from templates use ``json_template``, ``json_list`` and
``json_texts``, which must give the same bytes at every nesting level.
"""

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge.render import SLOT, json_list, json_template, json_text, json_texts


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


def _nest(value, level):
    for _ in range(level):
        value = [value]
    return value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(record=st.dictionaries(st.text(), SCALARS, max_size=5), level=st.integers(0, 4))
def test_a_filled_template_gives_the_bytes_of_json_dumps(record, level):
    # Keys may hold "%", which the template must keep as it is.
    outer = json_template(_nest(SLOT, level))
    inner = json_template({key: SLOT for key in record}, level) % tuple(json_texts(list(record.values())))
    assert outer % inner == json.dumps(_nest(record, level), indent=2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=st.lists(SCALARS, max_size=5), level=st.integers(0, 4))
def test_a_list_from_its_item_texts_gives_the_bytes_of_json_dumps(values, level):
    filled = json_template(_nest(SLOT, level)) % json_list(json_texts(values), level)
    assert filled == json.dumps(_nest(values, level), indent=2)


def test_a_template_doubles_every_other_percent_sign():
    template = json_template({"100%": SLOT, "%s": ["%d", SLOT]})
    assert template % ("1", "2") == json.dumps({"100%": 1, "%s": ["%d", 2]}, indent=2)
