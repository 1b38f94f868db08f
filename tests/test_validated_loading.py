"""Loaders check once with ``validate_dataset`` and then skip the constructor
checks; these tests keep that single check from drifting away from the
constructors.

Each loader is compared against a reference builder that passes the raw
values through the public, checked constructors, on the files ``synth``
writes, on a noisy copy of them (integer-valued reals, hidden hands,
shuffled keyframes and keys), and on trees mutated by hypothesis.
"""

import copy
import dataclasses
import json
import math
import random
import warnings
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge import cli, fileio
from egoforge.errors import DataError, SchemaError
from egoforge.model import (
    ActionLabel,
    BoundingBox,
    Detection,
    HandKeyframes,
    HandPoint,
    LtaForecast,
    MomentInstance,
    NlqInstance,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    TemporalSegment,
    VideoMeta,
    validate_dataset,
)

# ---------------------------------------------------------------------------
# Reference builders: raw values through the checked constructors.
# ---------------------------------------------------------------------------


def _ref_videos(raw):
    return {
        r["video_id"]: VideoMeta(video_id=r["video_id"], num_frames=r["num_frames"], fps=r["fps"])
        for r in raw["videos"]
    }


def _ref_segment(rec):
    return TemporalSegment(start_s=rec["start_s"], end_s=rec["end_s"])


def _ref_mq_gt(raw):
    videos = _ref_videos(raw)
    instances = {vid: [] for vid in videos}
    for rec in raw["instances"]:
        instances[rec["video_id"]].append(MomentInstance(segment=_ref_segment(rec), class_id=rec["class_id"]))
    return fileio.MqGt(
        videos=videos, num_classes=raw["num_classes"], instances={k: tuple(v) for k, v in instances.items()}
    )


def _ref_ranked(group_key, label_key):
    def build(raw):
        out = {}
        for rec in raw["instances"]:
            out.setdefault(rec[group_key], []).append(
                RankedSegment(segment=_ref_segment(rec), score=rec["score"], label=rec[label_key])
            )
        return {k: tuple(v) for k, v in out.items()}

    return build


def _ref_nlq_gt(raw):
    return fileio.NlqGt(
        videos=_ref_videos(raw),
        queries={r["query_id"]: NlqInstance(segment=_ref_segment(r), query_id=r["query_id"]) for r in raw["instances"]},
        video_of={r["query_id"]: r["video_id"] for r in raw["instances"]},
    )


def _ref_keyframes(kf):
    points = {}
    for tag, p in kf.items():  # file order; the constructor puts tags in canonical order
        visible = p.get("visible", {})
        points[tag] = HandPoint(
            left=p["left"],
            right=p["right"],
            left_visible=visible.get("left", True),
            right_visible=visible.get("right", True),
        )
    return HandKeyframes(points=points)


def _ref_fhp_pred(raw):
    return {r["video_id"]: _ref_keyframes(r["keyframes"]) for r in raw["instances"]}


def _ref_fhp_gt(raw):
    return fileio.FhpGt(resolution=tuple(raw["resolution"]), instances=_ref_fhp_pred(raw))


def _ref_actions(seq):
    return tuple(ActionLabel(verb_id=v, noun_id=n) for v, n in seq)


def _ref_lta_gt(raw):
    cfg = raw["config"]
    return fileio.LtaGt(
        z=cfg["z"],
        c_v=cfg["c_v"],
        c_n=cfg["c_n"],
        k=cfg["k"],
        sequences={(r["video_id"], r["clip_index"]): _ref_actions(r["sequence"]) for r in raw["instances"]},
    )


def _ref_matrix(rec):
    return ScoreMatrix(verb=rec["score_matrix"]["verb"], noun=rec["score_matrix"]["noun"])


def _ref_lta_pred(raw):
    # Rows the loader refuses for file-level reasons (no candidates, several
    # rows per episode) are still built, so every record's checks run.
    return {
        (r["video_id"], r["clip_index"]): LtaForecast(
            clip_index=r["clip_index"],
            candidates=tuple(_ref_actions(seq) for seq in r["candidates"]),
            score_matrix=_ref_matrix(r) if "score_matrix" in r else None,
        )
        for r in raw["instances"]
        if "candidates" in r
    }


def _ref_clip_probs(raw):
    out = {}
    for r in raw["instances"]:
        if "score_matrix" in r:
            out.setdefault((r["video_id"], r["clip_index"]), []).append(_ref_matrix(r))
    return out


def _ref_images(raw):
    return {r["keyframe_id"]: (r["width"], r["height"]) for r in raw["images"]}


def _ref_boxes(container, make):
    def build(raw):
        images = _ref_images(raw)
        instances = {kid: [] for kid in images}
        for rec in raw["instances"]:
            instances[rec["keyframe_id"]].append(make(rec, BoundingBox(*rec["box"])))
        return container(images=images, instances={k: tuple(v) for k, v in instances.items()})

    return build


def _sta(pred):
    return lambda rec, box: StaInstance(
        box=box, noun_id=rec["noun"], verb_id=rec["verb"], ttc_s=rec["ttc_s"], score=rec["score"] if pred else 1.0
    )


def _scod(pred):
    return lambda rec, box: Detection(box=box, class_id=rec["noun"], score=rec["score"] if pred else 1.0)


SYNTH_FILES = tuple(f"{kind}_{track}" for track in ("mq", "nlq", "fhp", "lta", "sta", "scod") for kind in ("gt", "pred"))

# Tree name -> (loader, reference builder). One tree per JSON schema, plus a
# forecast file with several candidates and score matrices (with and without
# the optional config block) and a per-clip file for the vote loader.
LOADERS = {
    "gt_mq": (fileio.load_mq_gt, _ref_mq_gt),
    "pred_mq": (fileio.load_mq_pred, _ref_ranked("video_id", "class_id")),
    "gt_nlq": (fileio.load_nlq_gt, _ref_nlq_gt),
    "pred_nlq": (fileio.load_nlq_pred, _ref_ranked("query_id", "query_id")),
    "gt_fhp": (fileio.load_fhp_gt, _ref_fhp_gt),
    "pred_fhp": (fileio.load_fhp_pred, _ref_fhp_pred),
    "gt_lta": (fileio.load_lta_gt, _ref_lta_gt),
    "pred_lta": (fileio.load_lta_pred, _ref_lta_pred),
    "pred_lta_scored": (fileio.load_lta_pred, _ref_lta_pred),
    "pred_lta_config": (fileio.load_lta_pred, _ref_lta_pred),
    "clips_lta": (fileio.load_lta_clip_probs, _ref_clip_probs),
    "gt_sta": (fileio.load_sta_gt, _ref_boxes(fileio.StaGt, _sta(pred=False))),
    "pred_sta": (fileio.load_sta_pred, _ref_boxes(fileio.StaGt, _sta(pred=True))),
    "gt_scod": (fileio.load_scod_gt, _ref_boxes(fileio.ScodGt, _scod(pred=False))),
    "pred_scod": (fileio.load_scod_pred, _ref_boxes(fileio.ScodGt, _scod(pred=True))),
}


def _scored_lta_tree(config: bool) -> dict[str, Any]:
    """Forecasts with three Z = 3 candidates and a score matrix each."""
    rng = np.random.default_rng(4)
    instances = []
    for e in range(3):
        verb = rng.random((3, 4)) + 0.05
        noun = rng.random((3, 5)) + 0.05
        candidates = [[[int(rng.integers(4)), int(rng.integers(5))] for _ in range(3)] for _ in range(3)]
        instances.append(
            {
                "video_id": f"v{e}",
                "clip_index": e,
                "candidates": candidates,
                "score_matrix": {
                    "verb": (verb / verb.sum(1, keepdims=True)).tolist(),
                    "noun": (noun / noun.sum(1, keepdims=True)).tolist(),
                },
            }
        )
    # One-hot integer rows are valid probabilities too.
    instances[0]["score_matrix"]["verb"][1] = [0, 1, 0, 0]
    tree: dict[str, Any] = {"schema": "lta-pred/1", "instances": instances}
    if config:
        tree["config"] = {"z": 3, "c_v": 4, "c_n": 5, "k": 3}
    return tree


def _clips_tree() -> dict[str, Any]:
    tree = _scored_lta_tree(config=False)
    for slot, rec in enumerate(tree["instances"]):
        del rec["candidates"]
        rec["clip"] = slot
        rec["video_id"] = "v"
    return tree


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert cli.main(["synth", "--out", str(out), "--seed", "5", "--num-videos", "2"]) == 0
    raw = {name: json.loads((out / f"{name}.json").read_text(encoding="utf-8")) for name in SYNTH_FILES}
    raw["pred_lta_scored"] = _scored_lta_tree(config=False)
    raw["pred_lta_config"] = _scored_lta_tree(config=True)
    raw["clips_lta"] = _clips_tree()
    assert set(raw) == set(LOADERS)
    return raw


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("trees")


def _load(name, tree, directory):
    path = directory / f"{name}.json"
    path.write_text(json.dumps(tree), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return LOADERS[name][0](path)


def _records(obj):
    """Every dataclass instance inside a loader's result."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield obj
        for f in dataclasses.fields(obj):
            yield from _records(getattr(obj, f.name))
    elif isinstance(obj, Mapping):
        for value in obj.values():
            yield from _records(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _records(value)


# ---------------------------------------------------------------------------
# A noisy copy of a valid tree that stays valid.
# ---------------------------------------------------------------------------


def _shuffled(d: dict, rng: random.Random) -> dict:
    items = list(d.items())
    rng.shuffle(items)
    return dict(items)


def _noisy(raw: dict, seed: int) -> dict:
    """Integer-valued reals, hidden hands, shuffled keyframe and key order."""
    rng = random.Random(seed)
    tree = copy.deepcopy(raw)
    for video in tree.get("videos", []):
        video["fps"] = math.ceil(video["fps"])
    instances = tree["instances"]
    for i, rec in enumerate(instances):
        if "start_s" in rec and rng.random() < 0.6:
            rec["start_s"], rec["end_s"] = math.floor(rec["start_s"]), math.ceil(rec["end_s"])
        if "score" in rec and rng.random() < 0.6:
            rec["score"] = rng.randint(-3, 3)
        if "ttc_s" in rec and rng.random() < 0.6:
            rec["ttc_s"] = math.ceil(rec["ttc_s"])
        if "box" in rec and rng.random() < 0.6:
            x1, y1, x2, y2 = rec["box"]
            rec["box"] = [math.floor(x1), math.floor(y1), math.ceil(x2), math.ceil(y2)]
        if "keyframes" in rec:
            for point in rec["keyframes"].values():
                point["left"] = [round(v) for v in point["left"]]
                choice = rng.randrange(4)
                if choice == 0:
                    del point["visible"]
                elif choice == 1:
                    point["visible"] = {"right": False}
                elif choice == 2:
                    point["visible"] = {"left": False, "right": False}
            rec["keyframes"] = _shuffled(rec["keyframes"], rng)
        instances[i] = _shuffled(rec, rng)
    return tree


# ---------------------------------------------------------------------------
# The guards.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("noisy", [False, True], ids=["synth", "noisy"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaded_records_equal_checked_construction(trees, scratch, name, noisy):
    tree = _noisy(trees[name], seed=len(name)) if noisy else trees[name]
    assert validate_dataset(tree) == []
    loaded = _load(name, tree, scratch)
    records = list(_records(loaded))
    assert len(records) > 1
    for obj in records:
        # replace() re-runs the checked constructor on the stored values; the
        # repr tells 3 from 3.0 and shows keyframe order.
        assert repr(dataclasses.replace(obj)) == repr(obj)
    assert repr(loaded) == repr(LOADERS[name][1](tree))


_BAD_VISIBLE = (None, {}, {"left": 1}, {"middle": True}, [True], "yes", {"right": False})


def _mutations(value: Any) -> list[Any]:
    """Replacement values for one node of a raw tree."""
    if isinstance(value, bool):
        return [int(value), not value, None, "true"]
    if isinstance(value, int):
        return [-1, -value - 1, True, False, float(value), value + 1000, None]
    if isinstance(value, float):
        whole = [int(value)] if math.isfinite(value) else []
        return whole + [-value, math.nan, math.inf, -math.inf, True, None, str(value)]
    if isinstance(value, str):
        return ["", 0, None]
    if isinstance(value, list):
        half = len(value) // 2
        return [value[:-1], value + value[-1:], value[half:] + value[:half], value[::-1], [], {}]
    if isinstance(value, dict):
        out: list[Any] = [{k: v for k, v in value.items() if k != drop} for drop in value]
        if "start_s" in value and "end_s" in value:
            out.append({**value, "start_s": value["end_s"], "end_s": value["start_s"]})
        if "left" in value:
            out.extend({**value, "visible": v} for v in _BAD_VISIBLE)
        return out + [[]]
    return [0]


def _paths(node: Any, path: tuple = ()):
    """Paths to every node below the root, except the schema tag."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if path == () and key == "schema":
            continue
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _set(tree: Any, path: tuple, value: Any) -> None:
    for key in path[:-1]:
        tree = tree[key]
    tree[path[-1]] = value


def _get(tree: Any, path: tuple) -> Any:
    for key in path:
        tree = tree[key]
    return tree


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_trees_are_rejected_or_load_as_checked(trees, scratch, name, data):
    tree = copy.deepcopy(trees[name])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(_paths(tree))), label="path")
        _set(tree, path, data.draw(st.sampled_from(_mutations(_get(tree, path))), label="value"))
    if validate_dataset(tree):
        with pytest.raises(SchemaError):
            _load(name, tree, scratch)
        return
    # Accepted by the single check: the checked constructors must accept
    # every record too, and build exactly what the loader built.
    reference = LOADERS[name][1](tree)
    try:
        loaded = _load(name, tree, scratch)
    except DataError as e:
        # Only a file-level rule of the forecast loaders (rows per episode,
        # candidates or matrices present) may still refuse the file.
        assert not isinstance(e, SchemaError)
        return
    assert repr(loaded) == repr(reference)
