"""A fuzzer for ``egoforge eval`` on every track (mq, nlq, fhp, lta, sta,
scod), and for ``vote``, ``fuse post`` and ``fuse sta``.

It edits synth ground truth and predictions, and per-clip probability
files, with the mutations of ``test_columns`` (edge values, wrong types,
dropped and extra keys, shuffled records, anywhere in the tree, headers
included) and runs the CLI on them. Every run must exit 0 or 2: on 2 with
exactly one ``error:`` line on stderr, on 0 with nothing on stderr and no
warning other than an unknown key. A traceback fails the test.
"""

import copy
import io
import json
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge import cli, fileio
from egoforge.model import ScoreMatrix
from test_columns import _edits, _get, _paths, _set

TRACKS = ("mq", "nlq", "fhp", "lta", "sta", "scod")


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
    _exits_0_or_2(["eval", track, "--gt", str(paths["gt"]), "--pred", str(paths["pred"])])


def _exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == ""
        assert out.getvalue()
        assert all("unknown key" in str(w.message) for w in caught), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def fusion_trees(tmp_path_factory, trees):
    rng = np.random.default_rng(5)

    def rows(z, width):
        r = rng.random((z, width)) + 0.01
        return r / r.sum(axis=1, keepdims=True)

    probs = {(vid, ci): [ScoreMatrix(verb=rows(3, 4), noun=rows(3, 5)) for _ in range(3)] for vid, ci in (("a", 0), ("a", 2), ("b", 1))}
    path = tmp_path_factory.mktemp("clips") / "clips.json"
    fileio.save_lta_clip_probs(path, probs)
    return {"vote": json.loads(path.read_text(encoding="utf-8")), "post": trees["nlq", "pred"], "sta": trees["sta", "pred"]}


@pytest.mark.parametrize("command", ["vote", "post", "sta"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fusion_exits_0_or_2_with_one_line(fusion_trees, scratch, command, data):
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    paths = []
    # fuse pools two files, the first always mutated, the second sometimes.
    for i in range(1 if command == "vote" else 2):
        tree = copy.deepcopy(fusion_trees[command])
        if i == 0 or data.draw(st.booleans(), label="both"):
            _mutate(tree, data, rng)
        paths.append(scratch / f"{command}_{i}.json")
        paths[-1].write_text(json.dumps(tree), encoding="utf-8")
    args = ["vote"] if command == "vote" else ["fuse", command]
    _exits_0_or_2([*args, "--pred", *map(str, paths), "--out", str(scratch / "fused.json")])
