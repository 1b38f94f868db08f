"""A fuzzer for ``egoforge eval`` on every track (mq, nlq, fhp, lta, sta,
scod), for ``vote`` and ``fuse post``, ``sta`` and ``pre``, and for the
options of ``train lta|fhp`` and ``schedule``.

It edits synth ground truth and predictions, and per-clip probability
files, with the mutations of ``test_columns`` (edge values, wrong types,
dropped and extra keys, shuffled records, anywhere in the tree, headers
included), in one example in twenty a value nested deeper than
``json.loads`` reads, and runs the CLI on them. Every run must exit 0 or 2: on 2 with exactly one ``error:``
line on stderr, on 0 with nothing on stderr, and either way with no warning
other than an unknown key. A traceback fails the test.

``fuse pre`` gets feature files that are truncated, extended and
bit-flipped, and an ``--out`` that may be an input under its own path, a
hard link or a symlink. It must end as loading both files whole, fusing
them and saving the result ends: the same bytes, or the same one-line
error, the first file's fault before the second's; an aliased ``--out`` is
refused and the input keeps its bytes.

``train`` and ``schedule`` get each option left out or set to an edge value
of its type: ints far past every cap, and every float, nan, infinities and
subnormals included. Epoch and frame counts that would be accepted stay
small, so the runs take milliseconds; the same exit and stderr rules hold.
"""

import copy
import io
import json
import os
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge import cli, fileio
from egoforge.errors import DataError
from egoforge.model import FeatureMatrix, ScoreMatrix
from egoforge.snippets import prefuse_features
from egoforge.synth import SynthConfig
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


# Stands for a value nested 100,000 lists deep, which ``json.loads`` refuses
# with a RecursionError on every Python from 3.10 on.
_NEST = "<nested 100,000 deep>"


def _mutate(tree, data, rng):
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        if data.draw(st.booleans(), label="shuffle"):
            rng.shuffle(tree["instances"])
        path = data.draw(st.sampled_from(list(_paths(tree))), label="path")
        value = data.draw(st.sampled_from(_edits(tree, path, _get(tree, path), rng)), label="value")
        _set(tree, path, copy.deepcopy(value))
    # Rarely, as a file nested too deeply is refused before any walk.
    if data.draw(st.integers(0, 19), label="nest") == 0:
        _set(tree, data.draw(st.sampled_from(list(_paths(tree))), label="nest path"), _NEST)


def _write(path, tree):
    path.write_text(json.dumps(tree).replace(json.dumps(_NEST), "[" * 100_000 + "]" * 100_000), encoding="utf-8")


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
        _write(paths[kind], tree)
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
    return code == 0


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
        _write(paths[-1], tree)
    args = ["vote"] if command == "vote" else ["fuse", command]
    _exits_0_or_2([*args, "--pred", *map(str, paths), "--out", str(scratch / "fused.json")])


def _feature_bytes(path, dim, rows, seed):
    rows = np.random.default_rng(seed).standard_normal((rows, dim))
    fileio.save_features(path, FeatureMatrix(dim=dim, rows=rows, provenance="verb"))
    return path.read_bytes()


def _edit_features(blob, data):
    """``blob`` truncated, extended, with one bit flipped or with a value
    that is not finite, once or twice."""
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        kind = data.draw(st.sampled_from(["truncate", "extend", "flip", "not finite"]), label="kind")
        if kind == "truncate":
            blob = blob[: len(blob) - data.draw(st.integers(1, max(1, len(blob))), label="cut")]
        elif kind == "extend":
            blob += data.draw(st.binary(min_size=1, max_size=12), label="tail")
        elif kind == "flip" and blob:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob = blob[: bit // 8] + bytes([blob[bit // 8] ^ 1 << bit % 8]) + blob[bit // 8 + 1 :]
        elif kind == "not finite" and len(blob) >= 24:
            at = 20 + 4 * data.draw(st.integers(0, (len(blob) - 24) // 4), label="value")
            blob = blob[:at] + np.float32(data.draw(st.sampled_from([np.inf, -np.inf, np.nan]), label="value")).tobytes() + blob[at + 4 :]
    return blob


def _fused_whole(first, second, out):
    """What loading both files whole, fusing and saving gives: None, with
    ``out`` written, or the error line."""
    try:
        fileio.save_features(out, prefuse_features(fileio.load_features(first), fileio.load_features(second)))
    except (DataError, ValueError) as e:
        return f"error: {e}"
    return None


def _feature_inputs(scratch, data):
    """Two feature files, each edited or not, of drawn widths and row
    counts (mostly equal); returns their paths and bytes."""
    rows = data.draw(st.sampled_from([0, 1, 5]), label="rows")
    sizes = [(data.draw(st.sampled_from([1, 2, 7]), label="dim"), rows) for _ in range(2)]
    if data.draw(st.integers(0, 3), label="other rows") == 0:
        sizes[1] = (sizes[1][0], data.draw(st.sampled_from([0, 1, 5]), label="rows b"))
    paths = [scratch / "pre_a.bin", scratch / "pre_b.bin"]
    blobs = [_feature_bytes(path, dim, n, seed) for seed, (path, (dim, n)) in enumerate(zip(paths, sizes))]
    for i, path in enumerate(paths):
        if data.draw(st.booleans(), label=f"edit {i}"):
            blobs[i] = _edit_features(blobs[i], data)
        path.write_bytes(blobs[i])
    return paths, blobs


def _fuse_pre(paths, out):
    out_text, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out_text), redirect_stderr(err):
        code = cli.main(["fuse", "pre", "--features", *map(str, paths), "--out", str(out)])
    return code, err.getvalue().splitlines(), out_text.getvalue()


def _unlink(*paths):
    for path in paths:
        if path.is_symlink() or path.exists():
            path.unlink()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuse_pre_ends_as_fusing_whole_files(scratch, data):
    paths, blobs = _feature_inputs(scratch, data)
    out, reference = scratch / "pre_out.bin", scratch / "pre_reference.bin"
    _unlink(out, reference)
    expected = _fused_whole(*paths, reference)
    code, err, printed = _fuse_pre(paths, out)
    assert [path.read_bytes() for path in paths] == blobs
    if expected is None:
        assert (code, err, printed) == (0, [], f"wrote {out}\n")
        assert out.read_bytes() == reference.read_bytes()
    else:
        assert (code, err, printed) == (2, [expected], "")
        assert not out.exists()


@pytest.mark.parametrize("alias", ["path", "hard link", "symlink"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuse_pre_refuses_an_out_that_is_an_input(scratch, alias, data):
    paths, blobs = _feature_inputs(scratch, data)
    target = paths[data.draw(st.integers(0, 1), label="aliased")]
    out = scratch / "pre_alias.bin"
    _unlink(out)
    if alias == "path":
        out = target
    else:
        (os.link if alias == "hard link" else os.symlink)(target, out)
    code, err, printed = _fuse_pre(paths, out)
    assert (code, err, printed) == (2, [f"error: {out}: is the input {target}; the fused file must go elsewhere"], "")
    assert [path.read_bytes() for path in paths] == blobs


# Small counts, and counts past every cap, negative ones included.
_INTS = st.one_of(st.integers(-2, 4), st.sampled_from([10_001, 2**63, -(2**63), 10**30]))


def _options(data, spec):
    """``--name=value`` for each option in ``spec`` the draw keeps (a
    separate ``-1e+16`` would read as an option)."""
    return [f"{name}={data.draw(values, label=name)!r}" for name, values in spec.items() if data.draw(st.booleans(), label=f"{name} given")]


@pytest.fixture(scope="module")
def train_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("train") / "config.json"
    fileio.save_config(path, SynthConfig(seed=5, num_videos=2, feature_dim=8))
    return path


@pytest.mark.parametrize("task", ["lta", "fhp"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_train_exits_0_or_2_with_one_line(train_config, scratch, task, data):
    # An accepted epoch count stays at most 4; the window options are lta's
    # alone, and fhp leaves them out of its call.
    spec = {"--epochs": _INTS, "--seed": _INTS}
    spec.update(dict.fromkeys(["--lr", "--momentum", "--alpha", "--clip-len", "--clip-stride"], st.floats()))
    out = scratch / "train.head"
    argv = ["train", task, "--config", str(train_config), "--out", str(out), *_options(data, spec)]
    _unlink(out)
    assert _exits_0_or_2(argv) == out.exists()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_schedule_exits_0_or_2_with_one_line(data):
    # An accepted schedule has at most a few thousand snippets.
    frames = st.one_of(st.integers(-2, 3_000), st.sampled_from([10**7, 10**20, -(10**20)]))
    spec = {"--fps": st.floats(), "--snippet-len": _INTS, "--stride": _INTS}
    _exits_0_or_2(["schedule", f"--num-frames={data.draw(frames, label='frames')}", *_options(data, spec)])
