"""A fuzzer for ``egoforge eval`` on the ranked tracks (mq, nlq, sta, scod).

It edits synth ground truth and predictions with the mutations of
``test_columns`` (edge values, wrong types, dropped and extra keys, shuffled
records, anywhere in the tree, headers included) and runs the CLI on them.
Every run must exit 0 or 2: on 2 with exactly one ``error:`` line on
stderr, on 0 with nothing on stderr and no warning other than an unknown
key. A traceback fails the test.
"""

import copy
import io
import json
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from egoforge import cli
from test_columns import _edits, _get, _paths, _set

TRACKS = ("mq", "nlq", "sta", "scod")


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(out), "--seed", "5", "--num-videos", "2"]) == 0
    return {
        (track, kind): json.loads((out / f"{kind}_{track}.json").read_text(encoding="utf-8"))
        for track in TRACKS
        for kind in ("gt", "pred")
    }


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutate(tree, data, rng):
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        if data.draw(st.booleans(), label="shuffle"):
            rng.shuffle(tree["instances"])
        path = data.draw(st.sampled_from(list(_paths(tree))), label="path")
        value = data.draw(st.sampled_from(_edits(tree, path, _get(tree, path), rng)), label="value")
        _set(tree, path, copy.deepcopy(value))


@pytest.mark.parametrize("track", TRACKS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_exits_0_or_2_with_one_line(trees, scratch, track, data):
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    paths = {}
    mutated = data.draw(st.sampled_from([("gt",), ("pred",), ("gt", "pred")]), label="files")
    for kind in ("gt", "pred"):
        tree = copy.deepcopy(trees[track, kind])
        if kind in mutated:
            _mutate(tree, data, rng)
        paths[kind] = scratch / f"{kind}.json"
        paths[kind].write_text(json.dumps(tree), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["eval", track, "--gt", str(paths["gt"]), "--pred", str(paths["pred"])])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == ""
        assert out.getvalue()
        assert all("unknown key" in str(w.message) for w in caught), [str(w.message) for w in caught]
