"""Records the public constructors accept load back equal from their savers.

The strategies draw raw field values on both sides of each check (negative
ids, non-finite and overflowing reals, empty ids, score rows at the edge of
the 1e-6 tolerance). Each test keeps the records the constructors build,
drops the ones they refuse, writes the kept records with the typed saver
and loads the file back: a record a constructor accepts but the loader
refuses fails here. Group keys, image sizes and class ids below
``num_classes`` are cross-record rules of the files, not constructor
invariants, so the strategies draw them valid.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from egoforge import fileio
from egoforge.model import (
    HALF_MAX,
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

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _mostly(valid, *edges):
    """``valid`` about nine times in ten, else one of ``edges``: a record of
    several fields then passes its constructor often enough to be saved."""
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(edges) if i == 0 else valid)


REALS = _mostly(
    st.one_of(st.floats(0.5, 100.0), st.integers(1, 3)),
    0, 0.0, -0.0, -1.0, 5e-324, 1e308, HALF_MAX, float("nan"), float("inf"), True,
)
INTS = _mostly(st.integers(0, 4), -1, 2**63, True, 1.0)
IDS = _mostly(st.text(min_size=1, max_size=3), "", "鍵", 7)
KEYS = st.text(min_size=1, max_size=3)
# Pairs of reals, half of them in order, for segments and box sides.
PAIRS = st.one_of(st.tuples(REALS, REALS), st.tuples(REALS, REALS).map(sorted))
SEGMENTS = PAIRS
BOXES = st.tuples(PAIRS, PAIRS).map(lambda p: (p[0][0], p[1][0], p[0][1], p[1][1]))

# Rows at the edge of "sums to 1 within 1e-6". The exact sums of the first
# two are within it and past it, and a plain left-to-right sum() (Python
# before 3.12) judges both the other way.
EDGE_ROWS = ([0.1000001] * 10, [0.05882358823529413] * 17, [0.5, 0.5000001], [0.5, 0.5001], [1e308, 1e308], [0, 1])


def _row(width):
    normalised = st.lists(st.floats(0.01, 1.0), min_size=width, max_size=width).map(lambda r: [v / sum(r) for v in r])
    edges = [row for row in EDGE_ROWS if len(row) == width]
    return st.one_of(normalised, st.sampled_from(edges)) if edges else normalised


@st.composite
def _clip(draw, z, widths):
    return tuple([draw(_row(w)) for _ in range(z)] for w in widths)


EPISODES = st.lists(
    st.tuples(
        KEYS,
        st.integers(0, 3),
        st.tuples(st.integers(1, 2), st.sampled_from([1, 2, 10, 17]), st.sampled_from([1, 2, 10, 17])).flatmap(
            lambda s: st.lists(_clip(s[0], s[1:]), min_size=1, max_size=3)
        ),
    ),
    max_size=3,
)


def _accepted(build, *args):
    """``build(*args)``, or None when the constructor refuses the values."""
    try:
        return build(*args)
    except ValueError:
        return None


def _round_trip(save, load, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.json"
        save(path, value)
        return load(path)


def _ranked(build, groups):
    """Groups of the records ``build`` makes of a segment and its other
    fields; refused records dropped, then empty groups."""
    out = {}
    for key, rows in groups.items():
        records = []
        for seg, *rest in rows:
            segment = _accepted(TemporalSegment, *seg)
            record = segment and _accepted(build, segment, *rest)
            if record is not None:
                records.append(record)
        if records:
            out[key] = tuple(records)
    return out


def _videos(raw):
    metas = (_accepted(VideoMeta, *v) for v in raw)
    return {m.video_id: m for m in metas if m is not None}


@SETTINGS
@given(groups=st.dictionaries(KEYS, st.lists(st.tuples(SEGMENTS, REALS, INTS), max_size=3), max_size=3))
@example(groups={"v": [((0.0, 1.0), 0.5, -1)]})
def test_mq_predictions(groups):
    preds = _ranked(RankedSegment, groups)
    assert _round_trip(fileio.save_mq_pred, fileio.load_mq_pred, preds) == preds


@SETTINGS
@given(groups=st.dictionaries(KEYS, st.lists(st.tuples(SEGMENTS, REALS), max_size=3), max_size=3))
def test_nlq_predictions(groups):
    preds = _ranked(RankedSegment, {qid: [(seg, score, qid) for seg, score in rows] for qid, rows in groups.items()})
    assert _round_trip(fileio.save_nlq_pred, fileio.load_nlq_pred, preds) == preds


@SETTINGS
@given(
    videos=st.lists(st.tuples(IDS, INTS, REALS), max_size=3),
    num_classes=st.sampled_from([1, 3, 2**63 + 1]),
    rows=st.lists(st.tuples(SEGMENTS, INTS), max_size=5),
)
def test_mq_ground_truth(videos, num_classes, rows):
    videos = _videos(videos)
    rows = [row for row in rows if not isinstance(row[1], int) or row[1] < num_classes]
    instances = {vid: () for vid in videos}
    if videos:
        instances.update(_ranked(MomentInstance, {vid: rows[i :: len(videos)] for i, vid in enumerate(videos)}))
    gt = fileio.MqGt(videos=videos, num_classes=num_classes, instances=instances)
    assert vars(_round_trip(fileio.save_mq_gt, fileio.load_mq_gt, gt)) == vars(gt)


@SETTINGS
@given(videos=st.lists(st.tuples(IDS, INTS, REALS), max_size=3), queries=st.dictionaries(IDS, SEGMENTS, max_size=4))
def test_nlq_ground_truth(videos, queries):
    videos = _videos(videos)
    listed = list(videos) or [None]
    found = _ranked(NlqInstance, {qid: [(seg, qid)] for qid, seg in queries.items()} if videos else {})
    gt = fileio.NlqGt(
        videos=videos,
        queries={qid: q for (qid, (q,)) in found.items()},
        video_of={qid: listed[i % len(listed)] for i, qid in enumerate(found)},
    )
    assert vars(_round_trip(fileio.save_nlq_gt, fileio.load_nlq_gt, gt)) == vars(gt)


def _boxes(build, images, rows):
    """Each image's records ``build`` makes of a box and its other fields,
    refused ones dropped; every image keeps its (maybe empty) group."""
    instances = {kid: [] for kid in images}
    for i, (box, *rest) in enumerate(rows):
        box = _accepted(BoundingBox, *box)
        record = box and _accepted(build, box, *rest)
        if record is not None and images:
            instances[list(images)[i % len(images)]].append(record)
    return {kid: tuple(records) for kid, records in instances.items()}


IMAGES = st.dictionaries(KEYS, st.tuples(st.integers(1, 2**31), st.integers(1, 9)), max_size=3)


@SETTINGS
@given(images=IMAGES, rows=st.lists(st.tuples(BOXES, INTS, INTS, REALS), max_size=5))
def test_sta_ground_truth(images, rows):
    gt = fileio.StaGt(images=images, instances=_boxes(StaInstance, images, rows))
    assert vars(_round_trip(fileio.save_sta_gt, fileio.load_sta_gt, gt)) == vars(gt)


@SETTINGS
@given(images=IMAGES, rows=st.lists(st.tuples(BOXES, INTS, INTS, REALS, REALS), max_size=5))
def test_sta_predictions(images, rows):
    pred = fileio.StaGt(images=images, instances=_boxes(StaInstance, images, rows))
    assert vars(_round_trip(fileio.save_sta_pred, fileio.load_sta_pred, pred)) == vars(pred)


@SETTINGS
@given(images=IMAGES, rows=st.lists(st.tuples(BOXES, INTS), max_size=5))
def test_scod_ground_truth(images, rows):
    gt = fileio.ScodGt(images=images, instances=_boxes(Detection, images, rows))
    assert vars(_round_trip(fileio.save_scod_gt, fileio.load_scod_gt, gt)) == vars(gt)


@SETTINGS
@given(images=IMAGES, rows=st.lists(st.tuples(BOXES, INTS, REALS), max_size=5))
def test_scod_predictions(images, rows):
    pred = fileio.ScodGt(images=images, instances=_boxes(Detection, images, rows))
    assert vars(_round_trip(fileio.save_scod_pred, fileio.load_scod_pred, pred)) == vars(pred)


POINTS = st.tuples(_mostly(st.tuples(REALS, REALS), [0.0], [0.0, 1.0, 2.0], "xy"), PAIRS, st.booleans(), st.booleans())


def _keyframes(raw):
    """The videos whose five keyframe points the constructors all accept."""
    out = {}
    for vid, points in raw.items():
        built = {tag: _accepted(HandPoint, *p) for tag, p in zip(KEYFRAME_TAGS, points)}
        if None not in built.values():
            out[vid] = HandKeyframes(points=built)
    return out


KEYFRAMES = st.dictionaries(KEYS, st.lists(POINTS, min_size=5, max_size=5), max_size=3)


@SETTINGS
@given(resolution=st.tuples(st.integers(1, 4000), st.integers(1, 4000)), videos=KEYFRAMES)
def test_fhp_ground_truth(resolution, videos):
    gt = fileio.FhpGt(resolution=resolution, instances=_keyframes(videos))
    assert vars(_round_trip(fileio.save_fhp_gt, fileio.load_fhp_gt, gt)) == vars(gt)


@SETTINGS
@given(videos=KEYFRAMES)
def test_fhp_predictions(videos):
    preds = _keyframes(videos)
    assert _round_trip(fileio.save_fhp_pred, fileio.load_fhp_pred, preds) == preds


@SETTINGS
@given(episodes=EPISODES)
@example(episodes=[("v", 0, [([[0.1000001] * 10], [[1.0]])])])
@example(episodes=[("v", 0, [([[0.05882358823529413] * 17], [[1.0]])])])
def test_lta_clip_probabilities(episodes):
    probs = {}
    for vid, ci, clips in episodes:
        matrices = [m for m in (_accepted(ScoreMatrix, *clip) for clip in clips) if m is not None]
        if matrices:
            probs[vid, ci] = matrices
    assert _round_trip(fileio.save_lta_clip_probs, fileio.load_lta_clip_probs, probs) == probs


# Episode keys: non-ASCII video ids and clip indices past int64 included.
EPISODE_KEYS = st.tuples(st.one_of(KEYS, st.just("鍵")), st.one_of(st.integers(0, 3), st.just(2**63)))
ACTIONS = st.tuples(_mostly(st.integers(0, 2), -1, 2**63, True, 1.0), _mostly(st.integers(0, 2), -1, 2**63, True, 1.0))


def _actions(pairs):
    """The actions of ``pairs`` when ActionLabel accepts every one, else None."""
    labels = tuple(_accepted(ActionLabel, *pair) for pair in pairs)
    return None if None in labels else labels


@SETTINGS
@given(
    z=st.integers(1, 3),
    vocab=st.tuples(st.sampled_from([3, 2**63 + 1]), st.sampled_from([3, 2**63 + 1])),
    k=st.integers(1, 5),
    episodes=st.dictionaries(EPISODE_KEYS, st.lists(ACTIONS, min_size=3, max_size=3), max_size=3),
)
@example(z=1, vocab=(2**63 + 1, 3), k=1, episodes={("鍵", 2**63): [(2**63, 2)] * 3})
def test_lta_ground_truth(z, vocab, k, episodes):
    c_v, c_n = vocab
    sequences = {}
    for key, pairs in episodes.items():
        seq = _actions(pairs[:z])
        # Ids below the vocabulary sizes are a rule of the file, not of ActionLabel.
        if seq is not None and all(a.verb_id < c_v and a.noun_id < c_n for a in seq):
            sequences[key] = seq
    gt = fileio.LtaGt(z=z, c_v=c_v, c_n=c_n, k=k, sequences=sequences)
    assert vars(_round_trip(fileio.save_lta_gt, fileio.load_lta_gt, gt)) == vars(gt)


@st.composite
def _forecast_parts(draw):
    """Candidates of one length z, and a z-row score matrix or None."""
    z = draw(st.integers(1, 3))
    candidates = draw(st.lists(st.lists(ACTIONS, min_size=z, max_size=z), min_size=1, max_size=3))
    widths = draw(st.tuples(st.sampled_from([1, 2, 10, 17]), st.sampled_from([1, 2, 10, 17])))
    matrix = draw(st.one_of(st.none(), _clip(z, widths)))
    return candidates, matrix


@SETTINGS
@given(episodes=st.dictionaries(EPISODE_KEYS, _forecast_parts(), max_size=3))
@example(episodes={("鍵", 2**63): ([[(2**63, 0)], [(0, 2**63 + 5)]], ([[-0.0, 1.0]], [[5e-324, 1.0]]))})
def test_lta_predictions(episodes):
    forecasts = {}
    for key, (candidates, matrix) in episodes.items():
        seqs = [_actions(seq) for seq in candidates]
        scores = matrix and _accepted(ScoreMatrix, *matrix)
        if None not in seqs and (matrix is None or scores is not None):
            forecasts[key] = LtaForecast(clip_index=key[1], candidates=tuple(seqs), score_matrix=scores)
    assert _round_trip(fileio.save_lta_pred, fileio.load_lta_pred, forecasts) == forecasts


@SETTINGS
@given(
    z=st.integers(1, 3),
    vocab=st.tuples(st.sampled_from([1, 3, 2**63 + 1]), st.sampled_from([1, 3, 2**63 + 1])),
    episodes=st.dictionaries(EPISODE_KEYS, st.lists(ACTIONS, min_size=1, max_size=4), max_size=3),
)
@example(z=3, vocab=(2, 2), episodes={("v", 0): [(5, 0)]})
def test_lta_ground_truth_saver_refuses_what_its_loader_refuses(z, vocab, episodes):
    # Sequences of any length, ids in and out of the vocabulary: the saver
    # writes exactly the files load_lta_gt accepts, and names the episode
    # of the first record it refuses.
    c_v, c_n = vocab
    sequences = {key: seq for key, seq in ((key, _actions(pairs)) for key, pairs in episodes.items()) if seq is not None}
    gt = fileio.LtaGt(z=z, c_v=c_v, c_n=c_n, k=1, sequences=sequences)
    bad = [key for key, seq in sequences.items() if len(seq) != z or any(a.verb_id >= c_v or a.noun_id >= c_n for a in seq)]
    if bad:
        with pytest.raises(ValueError, match=re.escape(f"lta/1: {bad[0]!r}")):
            _round_trip(fileio.save_lta_gt, fileio.load_lta_gt, gt)
    else:
        assert vars(_round_trip(fileio.save_lta_gt, fileio.load_lta_gt, gt)) == vars(gt)


@SETTINGS
@given(episodes=st.dictionaries(EPISODE_KEYS, _forecast_parts().filter(lambda parts: parts[1] is not None), max_size=3))
def test_lta_predictions_in_both_saver_forms(episodes):
    # save_lta_pred takes an LtaForecast or (candidates, verb, noun), the
    # form vote writes, with pairs as tuples or lists: each form of one
    # forecast writes the same bytes, or is refused with a ValueError
    # naming its episode, never a TypeError.
    forecasts, raw, listed = {}, {}, {}
    for key, (candidates, matrix) in episodes.items():
        seqs = [_actions(seq) for seq in candidates]
        scores = _accepted(ScoreMatrix, *matrix)
        if None not in seqs and scores is not None:
            forecasts[key] = LtaForecast(clip_index=key[1], candidates=tuple(seqs), score_matrix=scores)
            pairs = [[(a.verb_id, a.noun_id) for a in seq] for seq in seqs]
            raw[key] = (pairs, scores.verb, scores.noun)
            listed[key] = ([[list(p) for p in seq] for seq in pairs], scores.verb, scores.noun)
    with tempfile.TemporaryDirectory() as tmp:
        texts = []
        for i, preds in enumerate((forecasts, raw, listed)):
            path = Path(tmp) / f"{i}.json"
            fileio.save_lta_pred(path, preds)
            texts.append(path.read_text(encoding="utf-8"))
            assert fileio.load_lta_pred(path) == forecasts
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize(
    "candidates, message",
    [
        ([[[1, 2, 3]]], "('v', 0).candidates[0][0]: action must be a [verb, noun] pair of ints >= 0"),
        ([[(True, 0)]], "('v', 0).candidates[0][0]: action must be a [verb, noun] pair of ints >= 0"),
        ([[7]], "('v', 0).candidates[0][0]: action must be a [verb, noun] pair of ints >= 0"),
        ([[[0, 0]], [[0, 0], [1, 1]]], "('v', 0).candidates[1]: candidate length 2 != 1"),
        ([[[0, 0], [1, 1]]], "('v', 0).score_matrix: 1 rows, candidates have length 2"),
        ([], "('v', 0): candidates must be a non-empty list"),
    ],
)
def test_lta_prediction_saver_names_the_episode_of_a_bad_candidate(tmp_path, candidates, message):
    verb, noun = np.array([[1.0]]), np.array([[1.0]])
    with pytest.raises(ValueError) as caught:
        fileio.save_lta_pred(tmp_path / "pred.json", {("v", 0): (candidates, verb, noun)})
    assert str(caught.value) == f"lta-pred/1: {message}"
    assert not (tmp_path / "pred.json").exists()
