"""The record layouts of ``render`` against ``json.dumps(obj, indent=2)``.

Every JSON file has the bytes of ``json.dumps(obj, indent=2)``. The savers
that write records fill ``json_template``s with ``json_texts`` and join
them with ``json_list``, which must give the same bytes at every nesting
level, take every value the encoder takes and raise TypeError wherever it
does. A template holds a layout, never data, so a data string that looks
like a slot or a format directive is written as it is.
"""

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge import fileio
from egoforge.render import SLOT, json_list, json_template, json_texts


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
# The key names of a template's layout: any text but "\0", which is the
# text of SLOT there.
LAYOUT_KEYS = st.text().filter(lambda key: key != "\0")


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
    expected = json.dumps(tree, indent=2)
    assert json_texts([tree]) == [expected]
    assert json_texts([tree, 0]) == [expected, "0"]
    assert json_template({"v": [tree, SLOT]}) % "0" == json.dumps({"v": [tree, 0]}, indent=2)


@pytest.mark.parametrize(
    "tree", [np.int64(3), {1, 2}, [1.0, {"a": {2}}], {(1,): 2}, {"k": np.bool_(False)}, object()]
)
def test_unencodable_values_raise_type_error(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, indent=2)
    with pytest.raises(TypeError):
        json_texts([tree])
    with pytest.raises(TypeError):
        json_template({"v": [tree, SLOT]})


def _nest(value, level):
    for _ in range(level):
        value = [value]
    return value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(record=st.dictionaries(LAYOUT_KEYS, SCALARS, max_size=5), level=st.integers(0, 4))
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


@pytest.mark.parametrize("video_id", ["\0", "%s", "100% %d"])
def test_header_data_round_trips(tmp_path, video_id):
    # Header strings are data: a NUL or a format directive in one stays as
    # it is, and a non-ASCII id is escaped as json.dumps escapes it.
    mq = {
        "schema": "mq/1",
        "num_classes": 2,
        "videos": [{"video_id": video_id, "num_frames": 30, "fps": 15.0}, {"video_id": "v", "num_frames": 7, "fps": 30.0}],
        "instances": [{"video_id": video_id, "start_s": 0.5, "end_s": 1.25, "class_id": 1}],
    }
    sta = {
        "schema": "sta/1",
        "images": [{"keyframe_id": video_id, "width": 640, "height": 480}, {"keyframe_id": "é中\U0001f600", "width": 1920, "height": 1080}],
        "instances": [{"keyframe_id": "é中\U0001f600", "box": [0.0, 1.5, 10.0, 20.0], "noun": 3, "verb": 0, "ttc_s": 0.75}],
    }
    for tree, load, save in ((mq, fileio.load_mq_gt, fileio.save_mq_gt), (sta, fileio.load_sta_gt, fileio.save_sta_gt)):
        src, out = tmp_path / "src.json", tmp_path / "out.json"
        src.write_text(json.dumps(tree), encoding="utf-8")
        save(out, load(src))
        assert out.read_text(encoding="utf-8") == json.dumps(tree, indent=2) + "\n"
        assert json.loads(out.read_text(encoding="utf-8")) == tree
        save(src, load(out))
        assert src.read_bytes() == out.read_bytes()
