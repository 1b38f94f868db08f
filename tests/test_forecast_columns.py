"""Columnar loading of the forecasting schemas (lta, lta-pred, fhp, fhp-pred).

The column scans of ``model._walk`` and its per-record loops agree on every
tree: the same violations, unknown keys and arrays, whichever of them
accepts it. Mutated synth files check that broadly; named cases pin the
inputs each scan must refuse or take (a bool id, ids beyond int64, mixed
candidate lengths, matrices of several widths, int-valued coordinates, a
one-hand visibility map, rows at the edge of the 1e-6 row-sum rule). ``egoforge eval lta`` scores the
action mode with codes that stay distinct across the two files' ids.
"""

import copy
import io
import json
import math
import random
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge import cli, fileio, model
from egoforge.model import Columns, LtaColumns, _walk
from test_columns import _edits, _get, _paths, _scan_accepts, _set

FORECAST_FILES = ("gt_lta", "pred_lta", "gt_fhp", "pred_fhp")


def _scored_tree(widths=(4, 4, 4)):
    """Forecasts with two candidates and a score matrix each, whose verb
    rows have the episode's width."""
    rng = np.random.default_rng(3)
    instances = []
    for e, width in enumerate(widths):
        verb, noun = rng.random((3, width)) + 0.05, rng.random((3, 5)) + 0.05
        instances.append(
            {
                "video_id": f"v{e}",
                "clip_index": e,
                "candidates": [[[int(rng.integers(4)), int(rng.integers(5))] for _ in range(3)] for _ in range(2)],
                "score_matrix": {"verb": (verb / verb.sum(1, keepdims=True)).tolist(), "noun": (noun / noun.sum(1, keepdims=True)).tolist()},
            }
        )
    return {"schema": "lta-pred/1", "instances": instances}


def _clips_tree():
    tree = _scored_tree()
    for slot, rec in enumerate(tree["instances"]):
        del rec["candidates"]
        rec.update(video_id="v", clip_index=0, clip=slot)
    return tree


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(out), "--seed", "9", "--num-videos", "3"]) == 0
    raw = {name: json.loads((out / f"{name}.json").read_text(encoding="utf-8")) for name in FORECAST_FILES}
    raw["scored_lta"] = _scored_tree()
    raw["clips_lta"] = _clips_tree()
    return raw


def _picture(cols):
    """Every array of the columns, with its dtype and bytes."""
    if cols is None:
        return None

    def bytes_of(a):
        return (str(a.dtype), a.shape, a.tolist() if a.dtype == object else a.tobytes())

    if isinstance(cols, Columns):
        return cols.groups, bytes_of(cols.starts), bytes_of(cols.coords), bytes_of(cols.score), bytes_of(cols.visible)
    assert isinstance(cols, LtaColumns)
    scores = None if cols.scores is None else [s and tuple(map(bytes_of, s)) for s in cols.scores]
    return cols.episodes, cols.config, bytes_of(cols.counts), bytes_of(cols.lengths), bytes_of(cols.pairs), scores


def _walked(tree, scan):
    """``_walk`` with the column scans on, or with every file sent to the loop."""
    saved = model._scan
    if not scan:
        model._scan = lambda raw, names: None
    try:
        violations, extras, header, cols = _walk(tree)
    finally:
        model._scan = saved
    return violations, extras, repr(header), _picture(cols)


def _agree(tree):
    """The scan's and the loop's walks of ``tree``, which must be equal."""
    scanned = _walked(tree, scan=True)
    assert scanned == _walked(tree, scan=False)
    return scanned


@pytest.mark.parametrize("name", sorted(FORECAST_FILES + ("scored_lta", "clips_lta")))
def test_scan_takes_the_files_synth_and_vote_inputs_are(trees, name):
    assert _scan_accepts(trees[name])
    assert _agree(trees[name])[0] == []


@pytest.mark.parametrize("name", sorted(FORECAST_FILES + ("scored_lta", "clips_lta")))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_scan_and_loop_agree_on_mutated_trees(trees, name, data):
    tree = copy.deepcopy(trees[name])
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        if data.draw(st.booleans(), label="shuffle"):
            rng.shuffle(tree["instances"])
        paths = [p for p in _paths(tree) if p[0] == "instances"] or list(_paths(tree))
        path = data.draw(st.sampled_from(paths), label="path")
        _set(tree, path, copy.deepcopy(data.draw(st.sampled_from(_edits(tree, path, _get(tree, path), rng)), label="value")))
    _agree(tree)


# ---------------------------------------------------------------------------
# Named cases.
# ---------------------------------------------------------------------------


def test_a_bool_verb_id_is_a_violation(trees):
    tree = copy.deepcopy(trees["gt_lta"])
    tree["instances"][1]["sequence"][2][0] = True
    assert not _scan_accepts(tree)
    assert _agree(tree)[0] == ["instances[1].sequence[2]: action must be a [verb, noun] pair of ints >= 0"]


def test_ids_beyond_int64_in_a_config_less_prediction(trees):
    tree = copy.deepcopy(trees["pred_lta"])
    tree["instances"][0]["candidates"][0][1] = [2**63, 2**64 + 3]
    assert not _scan_accepts(tree)
    assert _agree(tree)[0] == []
    cols = _walk(tree)[3]
    assert cols.pairs.dtype == object and cols.pairs[1].tolist() == [2**63, 2**64 + 3]


def test_mixed_candidate_lengths_without_a_config(trees):
    tree = copy.deepcopy(trees["scored_lta"])
    for rec in tree["instances"]:
        del rec["score_matrix"]
    tree["instances"][1]["candidates"] = [[[0, 0]], [[1, 1]]]
    assert _scan_accepts(tree)
    _agree(tree)
    cols = _walk(tree)[3]
    assert cols.lengths.tolist() == [3, 1, 3]
    assert cols[("v1", 1)].candidates.tolist() == [[[0, 0]], [[1, 1]]]
    # One row of one length per row: a row mixing lengths is a violation.
    tree["instances"][1]["candidates"] = [[[0, 0]], [[1, 1], [1, 1]]]
    assert _agree(tree)[0] == ["instances[1].candidates[1]: candidate length 2 != 1"]


def test_matrices_of_several_widths_go_to_the_loop():
    tree = _scored_tree(widths=(4, 6, 4))
    assert not _scan_accepts(tree)
    assert _agree(tree)[0] == []
    cols = _walk(tree)[3]
    assert [verb.shape for verb, _ in cols.scores] == [(3, 4), (3, 6), (3, 4)]


def test_empty_candidates_beside_a_score_matrix_are_a_violation(trees):
    tree = copy.deepcopy(trees["scored_lta"])
    tree["instances"][2]["candidates"] = []
    assert _agree(tree)[0] == ["instances[2]: candidates must be a non-empty list"]


def test_int_valued_coordinates_load_as_floats(trees):
    tree = copy.deepcopy(trees["pred_fhp"])
    point = tree["instances"][0]["keyframes"]["p1"]
    point["left"] = [round(v) for v in point["left"]]
    assert not _scan_accepts(tree)
    assert _agree(tree)[0] == []
    cols = _walk(tree)[3]
    assert cols.coords.dtype == np.float64 and cols.coords[0, 2, 0].tolist() == [float(v) for v in point["left"]]


@pytest.mark.parametrize("visible", [{"left": False}, {"right": False}, {}])
def test_visible_naming_one_hand_leaves_the_other_visible(trees, visible):
    tree = copy.deepcopy(trees["gt_fhp"])
    tree["instances"][0]["keyframes"]["c"]["visible"] = visible
    del tree["instances"][1]["keyframes"]["p"]["visible"]
    assert _scan_accepts(tree)
    assert _agree(tree)[0] == []
    cols = _walk(tree)[3]
    assert cols.visible[0, 0].tolist() == [visible.get("left", True), visible.get("right", True)]
    assert cols.visible[1, 1].tolist() == [True, True]


def _edge_rows():
    """Rows whose fsum lies a few ulps either side of 1 +- 1e-6."""
    rows = []
    for edge in (1.0 + 1e-6, 1.0 - 1e-6):
        x = edge - 0.25
        for step in range(-3, 4):
            y = x
            for _ in range(abs(step)):
                y = math.nextafter(y, math.inf if step > 0 else -math.inf)
            rows.append([0.25, y])
    return rows


@pytest.mark.parametrize("row", _edge_rows())
def test_row_sums_at_the_tolerance_edge(trees, row):
    tree = copy.deepcopy(trees["clips_lta"])
    for rec in tree["instances"]:
        rec["score_matrix"]["verb"] = [[0.5, 0.5], row, [1.0, 0.0]]
    within = abs(math.fsum(row) - 1.0) <= 1e-6
    assert _scan_accepts(tree) == within
    violations = _agree(tree)[0]
    assert (violations == []) == within


def test_the_edge_rows_fall_on_both_sides():
    verdicts = {abs(math.fsum(row) - 1.0) <= 1e-6 for row in _edge_rows()}
    assert verdicts == {True, False}


def _eval_lta(tmp_path, gt_tree, pred_tree):
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    gt_path.write_text(json.dumps(gt_tree), encoding="utf-8")
    pred_path.write_text(json.dumps(pred_tree), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["eval", "lta", "--gt", str(gt_path), "--pred", str(pred_path), "--format", "json"]) == 0
    return {r["name"]: r["value"] for r in json.loads(out.getvalue())["reports"]}


def test_action_codes_stay_distinct_across_the_two_files(tmp_path):
    # verb * c_n + noun is 2 for the truth (1, 0) and for the config-less
    # prediction (0, 2) when c_n = 2; the pairs differ, so Action is 1.
    gt = {"schema": "lta/1", "config": {"z": 1, "c_v": 2, "c_n": 2, "k": 1}, "instances": [{"video_id": "v", "clip_index": 0, "sequence": [[1, 0]]}]}
    pred = {"schema": "lta-pred/1", "instances": [{"video_id": "v", "clip_index": 0, "candidates": [[[0, 2]]]}]}
    assert _eval_lta(tmp_path, gt, pred) == {"Verb": 1.0, "Noun": 1.0, "Action": 1.0}
    pred["instances"][0]["candidates"] = [[[0, 2]], [[1, 0]]]
    gt["config"]["k"] = 2
    assert _eval_lta(tmp_path, gt, pred) == {"Verb": 0.0, "Noun": 0.0, "Action": 0.0}


def test_action_codes_past_int64(tmp_path):
    big = 2**62
    gt = {"schema": "lta/1", "config": {"z": 2, "c_v": 2**63, "c_n": big + 1, "k": 1}, "instances": [{"video_id": "v", "clip_index": 0, "sequence": [[3, big], [4, 0]]}]}
    pred = {"schema": "lta-pred/1", "instances": [{"video_id": "v", "clip_index": 0, "candidates": [[[3, big], [2**64, 0]]]}]}
    assert _eval_lta(tmp_path, gt, pred) == {"Verb": 0.5, "Noun": 0.0, "Action": 0.5}
