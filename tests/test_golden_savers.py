"""Golden bytes of the JSON savers.

Round trips load and save with the same code, so they cannot see a change
in key order or number format. These tests freeze the sha256 of the files
``egoforge synth`` writes and of the eight ranked savers' output on a
hand-built input with edge values: negative zero, the smallest subnormal,
1e308, an id past int64, non-ASCII ids and empty groups. The fhp and lta
savers are held to the text of ``json.dumps(..., indent=2)`` on such
values, and ``synth`` followed by ``vote`` to the same bytes under two hash
seeds.
"""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import egoforge
from egoforge import cli, fileio
from egoforge.model import (
    KEYFRAME_TAGS,
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
)

SYNTH_SEED_7 = {
    "gt_fhp.json": "8473ea8511d56f7c443ccb885c1158f69a689cc3a07f093cc9fb2cfbaa35c8ed",
    "gt_lta.json": "7beee87e6d2778771e72b55561df801606ee4e86db3433cf2348bb1d58bfcf26",
    "gt_mq.json": "65509bec8abf440589bda727bf701e144fd005f66442eedecc18a5434a333dc4",
    "gt_nlq.json": "c04fd93167a0963dfde10f719e25e0d738f5dc847d601909a7c7dc6655d0fb82",
    "gt_scod.json": "926be94968cc966c6ed77f8959cc489f74ef0d4db5a10489bbe86fe62c59f175",
    "gt_sta.json": "46a6e5204da61c4e958e2c0142a129006365e78adb4fee113b69379db3376936",
    "pred_fhp.json": "f965a9feb5f80f76dc46697a60abc7f1a5829dd7b8323c7e36f7d8ac1c4035e5",
    "pred_lta.json": "2938b07d8145987657462e048f1d74bacab2d49653ac2773447412f279626ad2",
    "pred_mq.json": "01f8078b25a1b63cdc6462e1ea324bd2faa39bb3595d78baf4e1671946eee4d8",
    "pred_nlq.json": "1825f0631aa31e248cf0dd2ed380dae37e7f06a822ff1db79a8a092212ed9e55",
    "pred_scod.json": "103c92244fb6627d73195a038bb0b5a570b6cc823df2d68a15e10437503a857b",
    "pred_sta.json": "0ad33e7d6a6a6742413fcb0c18300af6a85bbcc46eb48d38a35765f0bbcecf38",
}

# 60 videos reach the branches of the box and segment draws that 4 do not.
SYNTH_SEED_11 = {
    "config.json": "d23ce17ea9946860615956776fefd4644427c01694c1b3b26074f75fb66d196c",
    "gt_fhp.json": "72717dcfa5a934c2da60702a9650839763a8efd09baf8c1e5f89d66bc9292066",
    "gt_lta.json": "c1d9ec94faab211e28d4983f62fbd0bcb3ba35f42ee90c5efb3cf30676e831b8",
    "gt_mq.json": "c68cd3774c48ce0f3fa5709e974dcc8764feaeee3cbd257445c14dc93b43e048",
    "gt_nlq.json": "73e29f103f99df7cb397e714887f8a73422d13cf6ec659e5448347ee0586a593",
    "gt_scod.json": "e7a81e7ddfcacc7652ded73e8a959d57b5de28abf7a7186d559ad84a33a1ffb1",
    "gt_sta.json": "aa67dda0e8c71fe1371bbbee5dd6cb78208d26d912246ddb2ea6a8645e2c0f20",
    "pred_fhp.json": "e979f164b1cb3139b718cb68c10306334ad5d77d180b90082c2277365249cdd6",
    "pred_lta.json": "6bf44e7b888aa000abb100ea7f26c8885829933356fc9d8ef940f1e2235d2cf5",
    "pred_mq.json": "826c06134f51e525768a4b9fb73699d700b4ebf6ceb20a6d7b23f87ef644c1fb",
    "pred_nlq.json": "6ef215aa2bd359bdf5cc42c616f89abd650e22318180634d51b61b9ac93d80dc",
    "pred_scod.json": "65858fc9d5725c2076b8f3dc7e196f7032260f2891f0dc170ba44349487f974d",
    "pred_sta.json": "ba1b855b61fbd31340c9317386a11d2c2925784ae946cdba7efb1d0fb2c52853",
}

EDGE = {
    "mq_gt": "b94d033967da3f4bbd05296728be47a50a71b1c1f314507d5019f58f6601f3f0",
    "mq_pred": "7a08c22b2e3d8d4e8f8ded55f7ba09c69609967ef2c6f5417084c7f5414e3618",
    "nlq_gt": "b257ddc198d45b9832c1e6d6e5955b13dcd41ba472c186f3022e4a97a59d5e15",
    "nlq_pred": "932143424f7a5656797fb822b6e5c4249fe18b539242f300ffeec10a7f6d8e29",
    "sta_gt": "0cca9dc6d626e9ed92ededc6b5b877cf2a781aeb959d7866ed4c34a8cf53cf74",
    "sta_pred": "a08f02c8b653f216a2da45efac1adb5677ab0aef7339f8c733b8ef151cdfc042",
    "scod_gt": "3362e63cac8d4273603103e7c32687a5c833dd05d068959a0c32d9abddabacc3",
    "scod_pred": "ff497444542089d73a8c01ccf552646c29d2fc8c512e18342b1e01adb64599f2",
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_files_keep_their_bytes(tmp_path):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(tmp_path), "--seed", "7", "--num-videos", "4"]) == 0
    assert {name: _sha(tmp_path / name) for name in SYNTH_SEED_7} == SYNTH_SEED_7


def test_synth_files_keep_their_bytes_at_sixty_videos(tmp_path):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(tmp_path), "--seed", "11", "--num-videos", "60"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SYNTH_SEED_11)
    assert {name: _sha(tmp_path / name) for name in SYNTH_SEED_11} == SYNTH_SEED_11


def _edge_inputs():
    """One typed input per ranked saver."""
    big = 2**63  # one past int64
    videos = {vid: VideoMeta(vid, 300, 29.97) for vid in ("vidé", "видео", "v-empty")}
    seg = (TemporalSegment(-0.0, 5e-324), TemporalSegment(5e307, 1e308), TemporalSegment(1.25, 1.25))
    boxes = (BoundingBox(-0.0, 5e-324, 1.0, 1e307), BoundingBox(0.5, 0.5, 0.5, 0.5))
    images = {"鍵-1": (640, 480), "kf-empty": (1, 1), "🎥": (2**31, 7)}
    return {
        "mq_gt": fileio.MqGt(
            videos=videos,
            num_classes=big + 1,
            instances={
                "vidé": (MomentInstance(seg[0], big), MomentInstance(seg[1], 0)),
                "v-empty": (),
                "видео": (MomentInstance(seg[2], 3),),
            },
        ),
        "mq_pred": {
            "видео": (RankedSegment(seg[1], -0.0, big), RankedSegment(seg[0], 1e308, 0)),
            "v-empty": (),
            "vidé": (RankedSegment(seg[2], 5e-324, 7),),
        },
        "nlq_gt": fileio.NlqGt(
            videos=videos,
            queries={"q-ü": NlqInstance(seg[1], "q-ü"), "запрос": NlqInstance(seg[0], "запрос")},
            video_of={"запрос": "vidé", "q-ü": "видео"},
        ),
        "nlq_pred": {
            "запрос": (
                RankedSegment(seg[0], 0.25, "запрос"),
                RankedSegment(seg[2], -1e308, "запрос"),
            ),
            "q-empty": (),
            "q-ü": (RankedSegment(seg[1], -0.0, "q-ü"),),
        },
        "sta_gt": fileio.StaGt(
            images=images,
            instances={
                "🎥": (StaInstance(boxes[0], big, 0, 1e308),),
                "kf-empty": (),
                "鍵-1": (StaInstance(boxes[1], 2, big, 5e-324),),
            },
        ),
        "sta_pred": fileio.StaGt(
            images=images,
            instances={
                "鍵-1": (StaInstance(boxes[1], 0, 1, 0.5, -0.0), StaInstance(boxes[0], big, 3, 1e308, 5e-324)),
                "kf-empty": (),
            },
        ),
        "scod_gt": fileio.ScodGt(
            images=images, instances={"kf-empty": (), "🎥": (Detection(boxes[0], big), Detection(boxes[1], 0))}
        ),
        "scod_pred": fileio.ScodGt(
            images=images,
            instances={
                "🎥": (Detection(boxes[1], 1, 1e308),),
                "鍵-1": (Detection(boxes[0], big, -0.0),),
                "kf-empty": (),
            },
        ),
    }


@pytest.mark.parametrize("name", sorted(EDGE))
def test_ranked_savers_keep_their_bytes_on_edge_values(tmp_path, name):
    path = tmp_path / f"{name}.json"
    getattr(fileio, f"save_{name}")(path, _edge_inputs()[name])
    assert _sha(path) == EDGE[name]


def test_a_record_without_an_int_label_is_refused_not_written(tmp_path):
    # mq predictions are labelled with class ids; a query id label would
    # give a file that its loader rejects.
    path = tmp_path / "pred_mq.json"
    with pytest.raises(ValueError, match="class_id"):
        fileio.save_mq_pred(path, {"v": (RankedSegment(TemporalSegment(0.0, 1.0), 0.5, "q1"),)})
    assert not path.exists()


def test_a_forecast_for_another_clip_is_refused_not_written(tmp_path):
    # The file keeps one clip index per forecast, the key's; a forecast that
    # names another would load back unequal to what was saved.
    path = tmp_path / "pred_lta.json"
    forecast = LtaForecast(clip_index=3, candidates=((ActionLabel(0, 1),),))
    with pytest.raises(ValueError, match=r"\('v', 7\)"):
        fileio.save_lta_pred(path, {("v", 7): forecast})
    assert not path.exists()


# ---------------------------------------------------------------------------
# The fhp and lta savers write the text of json.dumps.
# ---------------------------------------------------------------------------


def _dumps(tree):
    return json.dumps(tree, indent=2) + "\n"


def _keyframes_tree(kf):
    return {
        tag: {
            "left": list(kf[tag].left),
            "right": list(kf[tag].right),
            "visible": {"left": kf[tag].left_visible, "right": kf[tag].right_visible},
        }
        for tag in KEYFRAME_TAGS
    }


def _hands():
    points = [
        HandPoint((-0.0, 5e-324), (1e308, -1e308)),
        HandPoint((0, 1), (2.5, -0.0), left_visible=False),
        HandPoint((1e-300, 3), (4, 5), right_visible=False),
        HandPoint((6.0, 7.0), (8.0, 9.0), left_visible=False, right_visible=False),
        HandPoint((-1.5, 0.1), (0.2, 0.30000000000000004)),
    ]
    first = HandKeyframes(dict(zip(KEYFRAME_TAGS, points)))
    return {"vidé": first, "видео": HandKeyframes(dict(zip(KEYFRAME_TAGS, points[::-1]))), "v": first}


def test_fhp_savers_give_the_text_of_json_dumps(tmp_path):
    hands = _hands()
    instances = [{"video_id": vid, "keyframes": _keyframes_tree(kf)} for vid, kf in hands.items()]
    fileio.save_fhp_gt(tmp_path / "gt.json", fileio.FhpGt(resolution=(2**31, 1), instances=hands))
    expected = {"schema": "fhp/1", "resolution": [2**31, 1], "instances": instances}
    assert (tmp_path / "gt.json").read_text(encoding="utf-8") == _dumps(expected)
    fileio.save_fhp_pred(tmp_path / "pred.json", hands)
    assert (tmp_path / "pred.json").read_text(encoding="utf-8") == _dumps({"schema": "fhp-pred/1", "instances": instances})
    fileio.save_fhp_pred(tmp_path / "empty.json", {})
    assert (tmp_path / "empty.json").read_text(encoding="utf-8") == _dumps({"schema": "fhp-pred/1", "instances": []})


def test_lta_ground_truth_saver_gives_the_text_of_json_dumps(tmp_path):
    big = 2**63
    seq = (ActionLabel(big, 0), ActionLabel(3, big + 7))
    gt = fileio.LtaGt(z=2, c_v=big + 1, c_n=big + 8, k=big, sequences={("vidé", big): seq, ("v", 0): seq[::-1], ("鍵", 5): seq})
    expected = {
        "schema": "lta/1",
        "config": {"z": 2, "c_v": big + 1, "c_n": big + 8, "k": big},
        "instances": [
            {"video_id": vid, "clip_index": ci, "sequence": [[a.verb_id, a.noun_id] for a in s]}
            for (vid, ci), s in gt.sequences.items()
        ],
    }
    fileio.save_lta_gt(tmp_path / "gt.json", gt)
    assert (tmp_path / "gt.json").read_text(encoding="utf-8") == _dumps(expected)


def test_lta_clip_probability_saver_gives_the_text_of_json_dumps(tmp_path):
    a = ScoreMatrix(verb=[[5e-324, 1.0], [-0.0, 1.0]], noun=[[0.1, 0.2, 0.7], [1.0, 0.0, 0.0]])
    b = ScoreMatrix(verb=[[0.5, 0.5]], noun=[[1.0]])
    probs = {("vidé", 2**63): [a, a], ("v", 0): [b], ("鍵", 1): []}
    expected = {
        "schema": "lta-pred/1",
        "instances": [
            {"video_id": vid, "clip_index": ci, "clip": slot, "score_matrix": {"verb": m.verb.tolist(), "noun": m.noun.tolist()}}
            for (vid, ci), clips in probs.items()
            for slot, m in enumerate(clips)
        ],
    }
    fileio.save_lta_clip_probs(tmp_path / "clips.json", probs)
    assert (tmp_path / "clips.json").read_text(encoding="utf-8") == _dumps(expected)


def test_lta_prediction_saver_gives_the_text_of_json_dumps(tmp_path):
    # Forecasts with and without a score matrix in one file, typed and in
    # the (candidates, verb, noun) form vote writes, pairs as tuples and as
    # lists.
    big = 2**63
    a = ScoreMatrix(verb=[[5e-324, 1.0], [-0.0, 1.0]], noun=[[0.1, 0.2, 0.7], [1.0, 0.0, 0.0]])
    b = ScoreMatrix(verb=[[0.5, 0.5]], noun=[[1.0]])
    preds = {
        ("vidé", big): LtaForecast(big, ((ActionLabel(big, 0), ActionLabel(3, big + 7)), (ActionLabel(0, 1), ActionLabel(2, 2))), a),
        ("v", 0): LtaForecast(0, ((ActionLabel(1, 1),),)),
        ("鍵", 5): ([[(4, big + 1)], [[0, 0]]], b.verb, b.noun),
        ("видео", 2): ([[[7, 8], (9, 10)]], a.verb, a.noun),
    }
    instances = []
    for (vid, ci), forecast in preds.items():
        if isinstance(forecast, LtaForecast):
            candidates = [[[x.verb_id, x.noun_id] for x in seq] for seq in forecast.candidates]
            matrix = forecast.score_matrix
            scores = None if matrix is None else (matrix.verb, matrix.noun)
        else:
            candidates = [[list(pair) for pair in seq] for seq in forecast[0]]
            scores = forecast[1:]
        record = {"video_id": vid, "clip_index": ci, "candidates": candidates}
        if scores is not None:
            record["score_matrix"] = {"verb": scores[0].tolist(), "noun": scores[1].tolist()}
        instances.append(record)
    fileio.save_lta_pred(tmp_path / "pred.json", preds)
    assert (tmp_path / "pred.json").read_text(encoding="utf-8") == _dumps({"schema": "lta-pred/1", "instances": instances})
    fileio.save_lta_pred(tmp_path / "empty.json", {})
    assert (tmp_path / "empty.json").read_text(encoding="utf-8") == _dumps({"schema": "lta-pred/1", "instances": []})


def _refused_inputs():
    """(saver, input, message) for inputs that each saver used to write
    although its own loader refuses the file (or, for a query without a
    video, failed on with a KeyError, and for a resolution or image size
    that is not a pair, with a TypeError): bad headers, ids that are empty,
    missing or not listed in the header, class ids past ``num_classes``;
    and keys that are not the ids inside their records, which the file
    would not keep."""
    video = {"v": VideoMeta("v", 300, 30.0)}
    seg = TemporalSegment(0.0, 1.0)
    box = BoundingBox(0.0, 0.0, 1.0, 1.0)
    kf = _hands()["v"]
    return [
        ("mq_gt", fileio.MqGt(video, 2, {"v": (MomentInstance(seg, 5),)}), "mq/1: 'v': class_id 5 out of range [0, 2)"),
        ("mq_gt", fileio.MqGt(video, 0, {"v": (MomentInstance(seg, 0),)}), "mq/1: num_classes: must be an int >= 1"),
        ("mq_gt", fileio.MqGt(video, 2, {"w": (MomentInstance(seg, 0),)}), "mq/1: 'w': unknown video_id 'w'"),
        ("nlq_gt", fileio.NlqGt(video, {"q": NlqInstance(seg, "q")}, {"q": "w"}), "nlq/1: 'q': unknown video_id 'w'"),
        ("nlq_gt", fileio.NlqGt(video, {"q": NlqInstance(seg, "q")}, {}), "nlq/1: 'q': video_id must be a non-empty string"),
        ("sta_gt", fileio.StaGt({"k": (0, 480)}, {"k": (StaInstance(box, 0, 0, 1.0),)}), "sta/1: images[0]: width must be an int >= 1"),
        ("scod_gt", fileio.ScodGt({"k": (640, 0)}, {"k": (Detection(box, 0),)}), "scod/1: images[0]: height must be an int >= 1"),
        ("sta_pred", fileio.StaGt({"k": (640, 480)}, {"x": (StaInstance(box, 0, 0, 1.0, 0.5),)}), "sta-pred/1: 'x': unknown keyframe_id 'x'"),
        ("scod_pred", fileio.ScodGt({"k": (640, 480)}, {"x": (Detection(box, 0, 0.5),)}), "scod-pred/1: 'x': unknown keyframe_id 'x'"),
        ("mq_pred", {"": (RankedSegment(seg, 0.5, 0),)}, "mq-pred/1: '': video_id must be a non-empty string"),
        ("nlq_pred", {"": (RankedSegment(seg, 0.5, "q"),)}, "nlq-pred/1: '': query_id must be a non-empty string"),
        ("fhp_pred", {"": kf}, "fhp-pred/1: '': video_id must be a non-empty string"),
        ("fhp_gt", fileio.FhpGt((0, 0), {"v": kf}), "fhp/1: resolution: must be a [width, height] pair of ints >= 1"),
        ("fhp_gt", fileio.FhpGt(None, {"v": kf}), "fhp/1: resolution: must be a [width, height] pair of ints >= 1"),
        ("fhp_gt", fileio.FhpGt(5, {"v": kf}), "fhp/1: resolution: must be a [width, height] pair of ints >= 1"),
        ("sta_gt", fileio.StaGt({"k": None}, {"k": (StaInstance(box, 0, 0, 1.0),)}), "sta/1: images[0]: width must be an int >= 1"),
        ("sta_pred", fileio.StaGt({"k": None}, {"k": (StaInstance(box, 0, 0, 1.0, 0.5),)}), "sta-pred/1: images[0]: width must be an int >= 1"),
        ("scod_gt", fileio.ScodGt({"k": None}, {"k": (Detection(box, 0),)}), "scod/1: images[0]: width must be an int >= 1"),
        ("scod_pred", fileio.ScodGt({"k": None}, {"k": (Detection(box, 0, 0.5),)}), "scod-pred/1: images[0]: width must be an int >= 1"),
        ("lta_clip_probs", {("", -1): [ScoreMatrix([[1.0]], [[1.0]])]}, "lta-pred/1: ('', -1): video_id must be a non-empty string"),
        ("mq_gt", fileio.MqGt({"a": VideoMeta("b", 300, 30.0)}, 2, {}), "mq/1: key 'a' holds video_id 'b'"),
        ("nlq_gt", fileio.NlqGt({"a": VideoMeta("b", 300, 30.0)}, {}, {}), "nlq/1: key 'a' holds video_id 'b'"),
        ("nlq_gt", fileio.NlqGt(video, {"q": NlqInstance(seg, "r")}, {"q": "v"}), "nlq/1: key 'q' holds query_id 'r'"),
    ]


REFUSED = _refused_inputs()


@pytest.mark.parametrize("name, value, message", REFUSED, ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(REFUSED)])
def test_every_saver_refuses_what_its_loader_refuses(tmp_path, name, value, message):
    # Each input passes the record constructors; only the file's own rules
    # (the header, listed ids, the class bound) refuse it, on save as on load.
    path = tmp_path / f"{name}.json"
    with pytest.raises(ValueError) as refused:
        getattr(fileio, f"save_{name}")(path, value)
    assert str(refused.value) == message
    assert not path.exists()


@pytest.mark.parametrize("name, value, message", REFUSED, ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(REFUSED)])
def test_a_refused_save_leaves_the_file_there_as_it_was(tmp_path, name, value, message):
    path = tmp_path / f"{name}.json"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        getattr(fileio, f"save_{name}")(path, value)
    assert path.read_bytes() == b"kept"


# ---------------------------------------------------------------------------
# Records are written a block at a time.
# ---------------------------------------------------------------------------


def _saver_inputs(directory):
    """(saver, input) pairs: the edge values, the files synth writes loaded
    back, and per-clip probabilities, each of several records."""
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(directory), "--seed", "7", "--num-videos", "4"]) == 0
    pairs = list(_edge_inputs().items())
    for name in SYNTH_SEED_7:
        if name != "config.json":
            kind, track = name.removesuffix(".json").split("_")
            pairs.append((f"{track}_{kind}", getattr(fileio, f"load_{track}_{kind}")(directory / name)))
    a = ScoreMatrix(verb=[[5e-324, 1.0], [-0.0, 1.0]], noun=[[0.1, 0.2, 0.7], [1.0, 0.0, 0.0]])
    pairs.append(("lta_clip_probs", {("vidé", 2**63): [a, a], ("v", 0): [a], ("鍵", 1): []}))
    return pairs


def test_every_saver_writes_the_same_bytes_a_record_at_a_time(tmp_path, monkeypatch):
    pairs = _saver_inputs(tmp_path / "synth")
    assert {name for name, _ in pairs} == {name.removeprefix("save_") for name in dir(fileio) if name.startswith("save_")} - {
        "config", "features", "head", "reports"
    }
    for i, (name, value) in enumerate(pairs):
        save = getattr(fileio, f"save_{name}")
        save(tmp_path / f"{i}.json", value)
        monkeypatch.setattr(fileio, "WRITE_RECORDS", 1)
        save(tmp_path / f"{i}-one.json", value)
        monkeypatch.undo()
        text = (tmp_path / f"{i}.json").read_text(encoding="utf-8")
        assert len(json.loads(text)["instances"]) > 1, name
        assert (tmp_path / f"{i}-one.json").read_text(encoding="utf-8") == text == _dumps(json.loads(text)), name


# ---------------------------------------------------------------------------
# No byte depends on the hash seed.
# ---------------------------------------------------------------------------

# Synth, then a vote on per-clip probabilities made from its lta ground
# truth: each episode's one-hot truth and a copy smoothed towards uniform.
_SYNTH_AND_VOTE = """
import sys
from pathlib import Path

import numpy as np

from egoforge import cli, fileio
from egoforge.model import ScoreMatrix

out = Path(sys.argv[1])
assert cli.main(["synth", "--out", str(out), "--seed", "3", "--num-videos", "4"]) == 0
gt = fileio.load_lta_gt(out / "gt_lta.json")
probs = {}
for key, seq in gt.sequences.items():
    verb, noun = np.zeros((gt.z, gt.c_v)), np.zeros((gt.z, gt.c_n))
    for pos, action in enumerate(seq):
        verb[pos, action.verb_id] = noun[pos, action.noun_id] = 1.0
    smooth = ScoreMatrix(verb=(verb + 1 / gt.c_v) / 2, noun=(noun + 1 / gt.c_n) / 2)
    probs[key] = [ScoreMatrix(verb=verb, noun=noun), smooth]
fileio.save_lta_clip_probs(out / "clips.json", probs)
assert cli.main(["vote", "--pred", str(out / "clips.json"), "--out", str(out / "voted.json"), "--k", "3"]) == 0
"""


def test_synth_and_vote_write_the_same_bytes_under_any_hash_seed(tmp_path):
    src = str(Path(egoforge.__file__).resolve().parents[1])
    files = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed-{seed}"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run([sys.executable, "-c", _SYNTH_AND_VOTE, str(out)], env=env, check=True, capture_output=True)
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(files[0]) == 15 and "voted.json" in files[0]
    assert files[0].keys() == files[1].keys()
    assert [name for name in files[0] if files[0][name] != files[1][name]] == []
