"""Columnar loading of the ranked schemas (mq, nlq, sta, scod).

Three guards:
- the column scan and the per-record loop agree on every tree: the same
  violations, unknown keys and columns, whichever of them accepts it;
- ``egoforge eval`` scores columns exactly as the public metric functions
  score typed records, and as the brute-force oracles do, on inputs built
  around the tie rules: equal scores, groups interleaved in the file, an
  ``images`` list in another order than the records, and equal IoU with
  two ground-truth rows;
- ``egoforge eval`` builds no record objects, for ground truth or
  predictions; nor do ``eval lta``, ``eval fhp`` and ``vote``.
"""

import copy
import io
import json
import math
import random
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from egoforge import cli, fileio, model
from egoforge.metrics import (
    BOX_AP_IOUS,
    DEFAULT_MAP_TIOUS,
    STA_REPORT_NAMES,
    average_map,
    box_ap,
    recall_at_k,
    recall_at_kx,
    sta_report,
)
from egoforge.metrics import _columns
from egoforge.model import Columns, _walk
from egoforge.oracles import oracle_average_map, oracle_box_ap, oracle_recall_at_k, oracle_sta_ap

RANKED_FILES = tuple(f"{kind}_{track}" for track in ("mq", "nlq", "sta", "scod") for kind in ("gt", "pred"))


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(out), "--seed", "9", "--num-videos", "3"]) == 0
    return {name: json.loads((out / f"{name}.json").read_text(encoding="utf-8")) for name in RANKED_FILES}


def _picture(cols):
    """Every column, with its dtype and bytes (so -0.0 differs from 0.0)."""
    if cols is None:
        return None
    arrays = {
        name: getattr(cols, name) for name in ("starts", "coords", "score", "label", "verb", "ttc") if getattr(cols, name) is not None
    }
    return (
        cols.groups,
        cols.video,
        {name: (str(a.dtype), a.shape, a.tolist() if a.dtype == object else a.tobytes()) for name, a in arrays.items()},
    )


def _walked(tree, scan):
    """``_walk`` with the column scan on, or with every file sent to the loop."""
    saved = model._scan
    if not scan:
        model._scan = lambda raw, names: None
    try:
        violations, extras, header, cols = _walk(tree)
    finally:
        model._scan = saved
    return violations, extras, repr(header), _picture(cols)


def _scan_accepts(tree):
    """Whether the scan alone takes the file: the loop is never entered."""
    entered = []
    saved = model._records

    def spy(*args):
        entered.append(True)
        return saved(*args)

    model._records = spy
    try:
        _walk(tree)
    finally:
        model._records = saved
    return not entered


# Values that keep a record well typed (so the scan still reads it) and
# values that break it in every way the schemas know.
_EDGE_REALS = (0.0, -0.0, 1.5, -2.0, 1e200, 1e308, -1e308, 8.98846567431158e307, math.nan, math.inf, 3, True, None)
_EDGE_INTS = (0, 1, 5, -1, 2**63 - 1, 2**63, 10**30, 2.0, False, None)


def _edits(tree, path, value, rng):
    if isinstance(value, bool):
        return [not value, 1, None]
    if isinstance(value, int):
        return list(_EDGE_INTS)
    if isinstance(value, float):
        return list(_EDGE_REALS) + [value + rng.random(), -value]
    if isinstance(value, str):
        # An earlier edit may have left a list or object, which a set cannot hold.
        found = (rec.get(path[-1]) for rec in tree["instances"] if isinstance(rec, dict))
        ids = sorted({v for v in found if not isinstance(v, (list, dict))} - {value, None}, key=str)
        return ids + ["", "new-id", 7, [], {}]
    if isinstance(value, list):
        out = [value[::-1], value[:-1], value + value[-1:], value[1:] + value[:1]]
        if len(value) == 4:  # a box; its area or width overflows when doubled
            out += [[0.0, 0.0, 1e200, 1e200], [-1e308, 0.0, 1e308, 1.0], [0.0, 0.0, 1e154, 1e154]]
        return out
    if isinstance(value, dict):
        return [{k: v for k, v in value.items() if k != drop} for drop in value] + [{**value, "note": 1}, dict(reversed(value.items()))]
    return [0]


def _paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if path == () and key == "schema":
            continue
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _set(tree, path, value):
    for key in path[:-1]:
        tree = tree[key]
    tree[path[-1]] = value


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@pytest.mark.parametrize("name", RANKED_FILES)
def test_scan_takes_the_files_synth_writes(trees, name):
    assert _scan_accepts(trees[name])
    assert _walked(trees[name], scan=True) == _walked(trees[name], scan=False)


@pytest.mark.parametrize("name", RANKED_FILES)
@settings(max_examples=80, deadline=None, derandomize=True)
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
    assert _walked(tree, scan=True) == _walked(tree, scan=False)


def test_ids_beyond_int64_load_as_python_ints(trees, tmp_path):
    tree = copy.deepcopy(trees["pred_sta"])
    tree["instances"][0]["noun"] = 10**30
    tree["instances"][1]["verb"] = 2**63
    assert not _scan_accepts(tree)
    cols = _walk(tree)[3]
    assert cols.label.dtype == object and cols.verb.dtype == object
    path = tmp_path / "pred_sta.json"
    path.write_text(json.dumps(tree), encoding="utf-8")
    nouns = [inst.noun_id for items in fileio.load_sta_pred(path).instances.values() for inst in items]
    assert 10**30 in nouns and all(type(n) is int for n in nouns)


def test_columns_are_a_mapping_of_row_ranges(trees, tmp_path):
    path = tmp_path / "pred_mq.json"
    path.write_text(json.dumps(trees["pred_mq"]), encoding="utf-8")
    cols = fileio.load_mq_pred(path).columns
    typed = fileio.load_mq_pred(path)
    assert isinstance(cols, Columns)
    assert list(cols) == list(typed)
    assert [len(rows) for rows in cols.values()] == [len(items) for items in typed.values()]
    for key, rows in cols.items():
        assert cols.score[rows.start : rows.stop].tolist() == [p.score for p in typed[key]]


@pytest.mark.parametrize("track", ["mq", "nlq", "sta", "scod"])
def test_ground_truth_columns_are_the_typed_records_as_columns(trees, tmp_path, track):
    path = tmp_path / f"gt_{track}.json"
    path.write_text(json.dumps(trees[f"gt_{track}"]), encoding="utf-8")
    typed = getattr(fileio, f"load_{track}_gt")(path)
    # A plain dict of the records, since _columns takes a view's columns as they are.
    groups = {qid: [q] for qid, q in typed.queries.items()} if track == "nlq" else dict(typed.instances)
    expected = _picture(_columns(groups, 2 if track in ("mq", "nlq") else 4))
    got = _picture((typed.queries if track == "nlq" else typed.instances).columns)
    assert got[0] == expected[0] and got[2] == expected[2]
    # nlq ground truth also carries each query's video, which typed groups do not.
    assert got[1] == (tuple(typed.video_of[qid] for qid in got[0]) if track == "nlq" else None)


# ---------------------------------------------------------------------------
# Tie order.
# ---------------------------------------------------------------------------

# Two ground-truth segments A = [0, 2] and B = [1, 3]: the first prediction
# [0.5, 2.5] has IoU 0.6 with both, so it takes the lower index (A), and the
# second, [0, 1.9], overlaps only A and stays a false positive.
_A, _B, _TIE, _ONLY_A = (0.0, 2.0), (1.0, 3.0), (0.5, 2.5), (0.0, 1.9)


def _mq_trees():
    videos = [{"video_id": v, "num_frames": 900, "fps": 30.0} for v in ("v0", "v1", "v2")]
    gt = [
        ("v1", _A, 0), ("v0", (4.0, 6.0), 1), ("v1", _B, 0), ("v2", (1.0, 2.0), 0),
        ("v0", (7.0, 9.0), 0), ("v2", (5.0, 8.0), 1), ("v1", (10.0, 12.0), 1),
    ]
    # First appearance: v2, v0, v1; equal scores across and within videos.
    pred = [
        ("v2", (1.0, 2.0), 0, 0.5), ("v0", (4.0, 6.5), 1, 0.5), ("v1", _TIE, 0, 0.9), ("v2", (5.5, 8.0), 1, 0.5),
        ("v1", _ONLY_A, 0, 0.9), ("v0", (7.0, 8.0), 0, 0.5), ("v1", (10.0, 12.0), 1, 0.5), ("v2", (0.0, 0.5), 0, 0.5),
        ("v0", (20.0, 21.0), 1, 0.9), ("v1", (2.0, 3.0), 0, 0.5), ("v0", (7.5, 9.0), 0, 0.5),
    ]
    return (
        {
            "schema": "mq/1",
            "num_classes": 2,
            "videos": videos,
            "instances": [{"video_id": v, "start_s": s, "end_s": e, "class_id": c} for v, (s, e), c in gt],
        },
        {
            "schema": "mq-pred/1",
            "instances": [{"video_id": v, "start_s": s, "end_s": e, "class_id": c, "score": p} for v, (s, e), c, p in pred],
        },
    )


def _nlq_trees():
    videos = [{"video_id": v, "num_frames": 900, "fps": 30.0} for v in ("v0", "v1")]
    gt = [("q1", "v0", _A), ("q0", "v1", (3.0, 5.0)), ("q2", "v0", (6.0, 7.0))]
    pred = [
        ("q0", (3.0, 4.0), 0.5), ("q1", _ONLY_A, 0.5), ("q2", (6.5, 9.0), 0.5), ("q0", (3.0, 5.0), 0.5),
        ("q1", _TIE, 0.5), ("q2", (6.0, 7.0), 0.5), ("q0", (8.0, 9.0), 0.7), ("q1", (5.0, 6.0), 0.5),
        ("q2", (0.0, 1.0), 0.7), ("q1", (0.0, 2.0), 0.5), ("q0", (3.0, 4.9), 0.5), ("q2", (6.0, 6.9), 0.5),
    ]
    return (
        {
            "schema": "nlq/1",
            "videos": videos,
            "instances": [{"video_id": v, "start_s": s, "end_s": e, "query_id": q} for q, v, (s, e) in gt],
        },
        {"schema": "nlq-pred/1", "instances": [{"query_id": q, "start_s": s, "end_s": e, "score": p} for q, (s, e), p in pred]},
    )


def _box(seg, row=0.0):
    return [seg[0], row, seg[1], row + 1.0]


def _box_trees(sta):
    # ``images`` lists k2, k0, k1; the records come k0, k1, k2 interleaved.
    images = [{"keyframe_id": k, "width": 100, "height": 100} for k in ("k2", "k0", "k1")]
    gt = [
        ("k0", _box(_A), 0, 1, 1.0), ("k1", _box((5.0, 7.0)), 1, 0, 0.5), ("k0", _box(_B), 0, 2, 1.0),
        ("k2", _box((1.0, 2.0), 3.0), 0, 1, 2.0), ("k1", _box((0.0, 1.0)), 0, 1, 0.5), ("k2", _box((4.0, 6.0)), 1, 1, 1.0),
    ]
    pred = [
        ("k0", _box(_TIE), 0, 2, 1.1, 0.5), ("k1", _box((5.0, 6.5)), 1, 0, 0.5, 0.5), ("k2", _box((1.0, 2.0), 3.0), 0, 1, 2.0, 0.5),
        ("k0", _box(_ONLY_A), 0, 1, 1.0, 0.5), ("k1", _box((0.0, 1.0)), 0, 2, 0.5, 0.5), ("k2", _box((4.0, 6.0)), 1, 1, 1.6, 0.5),
        ("k0", _box((8.0, 9.0)), 1, 0, 1.0, 0.5), ("k1", _box((0.2, 1.0)), 0, 1, 0.5, 0.8), ("k2", _box((4.5, 6.0)), 1, 1, 1.0, 0.5),
        ("k0", _box(_A), 0, 1, 1.0, 0.5), ("k1", _box((5.0, 7.0)), 1, 0, 0.6, 0.5), ("k2", _box((0.0, 2.0), 3.0), 0, 1, 2.0, 0.8),
    ]

    def record(k, box, noun, verb, ttc, score=None):
        rec = {"keyframe_id": k, "box": box, "noun": noun}
        if sta:
            rec.update(verb=verb, ttc_s=ttc)
        if score is not None:
            rec["score"] = score
        return rec

    schema = "sta" if sta else "scod"
    return (
        {"schema": f"{schema}/1", "images": images, "instances": [record(*r) for r in gt]},
        {"schema": f"{schema}-pred/1", "images": images, "instances": [record(*r) for r in pred]},
    )


_TIE_TREES = {"mq": _mq_trees, "nlq": _nlq_trees, "sta": lambda: _box_trees(True), "scod": lambda: _box_trees(False)}


def _eval_json(track, gt_path, pred_path, *extra):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["eval", track, "--gt", str(gt_path), "--pred", str(pred_path), "--format", "json", *extra]) == 0
    return {r["name"]: r for r in json.loads(out.getvalue())["reports"]}


def _object_path(track, gt_path, pred_path, top_k):
    """The reports of the public functions on typed records, and the oracles'
    headline values, as name -> (value, breakdown) and name -> value."""
    if track == "mq":
        gt, preds = fileio.load_mq_gt(gt_path), fileio.load_mq_pred(pred_path)
        by_gt, by_pred = {}, {}
        for vid, items in gt.instances.items():
            for m in items:
                by_gt.setdefault((vid, m.class_id), []).append(m)
        for vid, items in preds.items():
            for p in items:
                by_pred.setdefault((vid, p.label), []).append(p)
        reports = [average_map(preds, gt.instances, DEFAULT_MAP_TIOUS)]
        got = {"Recall@1x tIoU=0.5": (recall_at_kx(by_pred, by_gt, 1, 0.5), {})}
        hits = sum(oracle_recall_at_k({g: by_pred.get(g, [])}, {g: v}, len(v), 0.5) * len(v) for g, v in by_gt.items())
        oracle = {"Recall@1x tIoU=0.5": hits / sum(len(v) for v in by_gt.values()), "mAP": oracle_average_map(preds, gt.instances, DEFAULT_MAP_TIOUS)}
    elif track == "nlq":
        gt, preds = fileio.load_nlq_gt(gt_path), fileio.load_nlq_pred(pred_path)
        grouped = {qid: [q] for qid, q in gt.queries.items()}
        got = {f"R{k}@{t:g}": (recall_at_k(preds, grouped, k, t), {}) for k in (5, 1) for t in (0.3, 0.5)}
        oracle = {f"R{k}@{t:g}": oracle_recall_at_k(preds, grouped, k, t) for k in (5, 1) for t in (0.3, 0.5)}
        reports = []
    elif track == "sta":
        gt, preds = fileio.load_sta_gt(gt_path), fileio.load_sta_pred(pred_path)
        reports = sta_report(preds.instances, gt.instances, top_k=top_k)
        got = {}
        oracle = {name: oracle_sta_ap(preds.instances, gt.instances, c, top_k=top_k) for c, name in STA_REPORT_NAMES}
    else:
        gt, preds = fileio.load_scod_gt(gt_path), fileio.load_scod_pred(pred_path)
        reports = [box_ap(preds.instances, gt.instances)]
        got = {}
        oracle = {"AP": oracle_box_ap(preds.instances, gt.instances, BOX_AP_IOUS)}
    got.update({r.name: (r.value, dict(r.breakdown)) for r in reports})
    return got, oracle


@pytest.mark.parametrize("track", sorted(_TIE_TREES))
def test_eval_keeps_the_tie_rules(tmp_path, track):
    gt_tree, pred_tree = _TIE_TREES[track]()
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    gt_path.write_text(json.dumps(gt_tree), encoding="utf-8")
    pred_path.write_text(json.dumps(pred_tree), encoding="utf-8")
    for top_k in (1, 2, 5) if track == "sta" else (5,):
        reports = _eval_json(track, gt_path, pred_path, *(["--top-k", str(top_k)] if track == "sta" else []))
        got, oracle = _object_path(track, gt_path, pred_path, top_k)
        assert set(reports) == set(got) == set(oracle)
        for name, (value, breakdown) in got.items():
            assert reports[name]["value"] == value
            assert reports[name]["breakdown"] == breakdown
            assert abs(value - oracle[name]) <= 1e-9
        # The inputs exercise the rules: nothing here is perfect, nothing zero.
        assert any(0 < v < 1 for v, _ in got.values())


# ---------------------------------------------------------------------------
# No record objects in eval.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("track", ["mq", "nlq", "sta", "scod"])
def test_eval_builds_no_record_objects(trees, tmp_path, monkeypatch, track):
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    gt_path.write_text(json.dumps(trees[f"gt_{track}"]), encoding="utf-8")
    pred_path.write_text(json.dumps(trees[f"pred_{track}"]), encoding="utf-8")
    built = Counter()
    validated = model._validated

    def counting(cls, /, **fields):
        built[cls.__name__] += 1
        return validated(cls, **fields)

    # The typed views' builders live in model, next to the column types.
    monkeypatch.setattr(model, "_validated", counting)
    # Reading the typed loader's records builds one row object and one
    # segment or box per ground-truth row, which is what the count would
    # catch in eval.
    gt = getattr(fileio, f"load_{track}_gt")(gt_path)
    dict(gt.queries if track == "nlq" else gt.instances)
    n_gt = len(trees[f"gt_{track}"]["instances"])
    row_class = {"mq": "MomentInstance", "nlq": "NlqInstance", "sta": "StaInstance", "scod": "Detection"}[track]
    assert n_gt > 0
    assert built[row_class] == built["TemporalSegment"] + built["BoundingBox"] == n_gt
    built.clear()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["eval", track, "--gt", str(gt_path), "--pred", str(pred_path)]) == 0
    # eval builds only the ground truth's video list, never a row.
    assert set(built) <= {"VideoMeta"}


_FORECAST_RECORDS = ("ActionLabel", "LtaForecast", "HandPoint", "HandKeyframes")


@pytest.mark.parametrize("command", ["eval lta", "eval fhp", "vote"])
def test_forecast_commands_build_no_record_objects(tmp_path, monkeypatch, command):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(tmp_path), "--seed", "9", "--num-videos", "3"]) == 0
    if command == "vote":
        clips = {key: [model.ScoreMatrix(verb=[[0.5, 0.5]] * 20, noun=[[1.0]] * 20)] * 2 for key in (("a", 0), ("b", 1))}
        fileio.save_lta_clip_probs(tmp_path / "clips.json", clips)
        argv = ["vote", "--pred", str(tmp_path / "clips.json"), "--out", str(tmp_path / "voted.json")]
    else:
        track = command.split()[1]
        argv = ["eval", track, "--gt", str(tmp_path / f"gt_{track}.json"), "--pred", str(tmp_path / f"pred_{track}.json")]
    built = Counter()
    validated = model._validated

    def counting(cls, /, **fields):
        built[cls.__name__] += 1
        return validated(cls, **fields)

    monkeypatch.setattr(model, "_validated", counting)
    for name in _FORECAST_RECORDS:
        cls = getattr(model, name)
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=cls.__post_init__: (built.update([type(self).__name__]), check(self)))
    # Reading the typed loaders' records does build them, which is what the
    # count would catch.
    dict(fileio.load_lta_pred(tmp_path / "pred_lta.json"))
    dict(fileio.load_fhp_pred(tmp_path / "pred_fhp.json"))
    assert all(built[name] for name in _FORECAST_RECORDS)
    built.clear()
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert not set(built) & set(_FORECAST_RECORDS), built


def test_recall_at_kx_sums_each_labels_recall_times_its_support():
    # 7 of 25 instances hit: 7 / 25 * 25 is not 7 in floats, and the report
    # keeps that rounding, summed label by label in ground-truth order.
    from egoforge.model import MomentInstance, RankedSegment, TemporalSegment

    gts = {"a": [MomentInstance(TemporalSegment(10.0 * i, 10.0 * i + 1), 0) for i in range(25)], "b": [MomentInstance(TemporalSegment(0.0, 1.0), 0)]}
    preds = {"a": [RankedSegment(TemporalSegment(10.0 * i, 10.0 * i + 1 if i < 7 else 10.0 * i + 0.1), 1.0, 0) for i in range(25)]}
    expected = (7 / 25 * 25 + 0 / 1 * 1) / 26
    assert 7 / 25 * 25 != 7
    assert recall_at_kx(preds, gts, 1, 0.5) == expected
