"""Random case generators shared by the oracle equivalence tests.

Cases are deliberately tie-heavy: scores and coordinates come from small
grids so equal scores, equal overlaps, and boundary IoUs appear often and
the tie-breaking rules are actually exercised.
"""

import numpy as np

from egoforge.model import (
    ActionLabel,
    BoundingBox,
    Detection,
    LtaForecast,
    MomentInstance,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    TemporalSegment,
)


def _score(rng):
    # Half the draws land on a coarse grid to force ties.
    if rng.random() < 0.5:
        return float(rng.integers(0, 10)) / 10.0
    return float(rng.random())


def _segment(rng):
    a = float(rng.integers(0, 12)) / 2.0
    length = float(rng.integers(0, 8)) / 2.0
    return TemporalSegment(start_s=a, end_s=a + length)


def _box(rng):
    x1 = float(rng.integers(0, 8))
    y1 = float(rng.integers(0, 8))
    w = float(rng.integers(0, 8))
    h = float(rng.integers(0, 8))
    return BoundingBox(x1=x1, y1=y1, x2=x1 + w, y2=y1 + h)


def temporal_ap_case(rng):
    videos = [f"v{i}" for i in range(int(rng.integers(1, 4)))]
    classes = list(range(int(rng.integers(1, 4))))
    gts = {}
    total = 0
    for v in videos:
        n = int(rng.integers(0, 3))
        n = min(n, 5 - total)
        gts[v] = [MomentInstance(segment=_segment(rng), class_id=int(rng.choice(classes))) for _ in range(n)]
        total += n
    if total == 0:
        v = videos[0]
        gts[v] = [MomentInstance(segment=_segment(rng), class_id=classes[0])]
    preds = {}
    remaining = int(rng.integers(0, 21))
    for v in videos:
        n = int(rng.integers(0, remaining + 1)) if v != videos[-1] else remaining
        remaining -= n
        preds[v] = [
            RankedSegment(segment=_segment(rng), score=_score(rng), label=int(rng.choice(classes)))
            for _ in range(n)
        ]
    thresholds = sorted(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.75], size=int(rng.integers(1, 4)), replace=False))
    return preds, gts, [float(t) for t in thresholds]


def box_ap_case(rng):
    images = [f"img{i}" for i in range(int(rng.integers(1, 4)))]
    classes = list(range(int(rng.integers(1, 4))))
    gts = {}
    total = 0
    for im in images:
        n = min(int(rng.integers(0, 3)), 5 - total)
        gts[im] = [Detection(box=_box(rng), class_id=int(rng.choice(classes))) for _ in range(n)]
        total += n
    if total == 0:
        gts[images[0]] = [Detection(box=_box(rng), class_id=classes[0])]
    preds = {}
    remaining = int(rng.integers(0, 21))
    for im in images:
        n = int(rng.integers(0, remaining + 1)) if im != images[-1] else remaining
        remaining -= n
        preds[im] = [
            Detection(box=_box(rng), class_id=int(rng.choice(classes)), score=_score(rng))
            for _ in range(n)
        ]
    thresholds = sorted(rng.choice([0.25, 0.5, 0.75, 0.95], size=int(rng.integers(1, 4)), replace=False))
    return preds, gts, [float(t) for t in thresholds]


def sta_case(rng):
    frames = [f"kf{i}" for i in range(int(rng.integers(1, 3)))]
    nouns = list(range(3))
    verbs = list(range(2))
    ttcs = [0.5, 0.75, 1.0, 1.5]

    def inst(score):
        return StaInstance(
            box=_box(rng),
            noun_id=int(rng.choice(nouns)),
            verb_id=int(rng.choice(verbs)),
            ttc_s=float(rng.choice(ttcs)),
            score=score,
        )

    gts = {}
    total = 0
    for f in frames:
        n = min(int(rng.integers(0, 4)), 5 - total)
        gts[f] = [inst(1.0) for _ in range(n)]
        total += n
    if total == 0:
        gts[frames[0]] = [inst(1.0)]
    preds = {f: [inst(_score(rng)) for _ in range(int(rng.integers(0, 11)))] for f in frames}
    criteria = str(rng.choice(["noun", "noun_verb", "noun_ttc", "overall"]))
    top_k = int(rng.integers(1, 7))
    return preds, gts, criteria, top_k


def recall_case(rng):
    labels = [f"q{i}" for i in range(int(rng.integers(1, 4)))]
    gts = {}
    total = 0
    for lab in labels:
        n = min(int(rng.integers(0, 3)), 5 - total)
        gts[lab] = [MomentInstance(segment=_segment(rng), class_id=0) for _ in range(n)]
        total += n
    if total == 0:
        gts[labels[0]] = [MomentInstance(segment=_segment(rng), class_id=0)]
    preds = {
        lab: [
            RankedSegment(segment=_segment(rng), score=_score(rng), label=lab)
            for _ in range(int(rng.integers(0, 8)))
        ]
        for lab in labels
    }
    k = int(rng.integers(1, 6))
    thresh = float(rng.choice([0.1, 0.3, 0.5, 0.7, 1.0]))
    return preds, gts, k, thresh


def nms_case(rng):
    n = int(rng.integers(0, 21))
    boxes = [_box(rng) for _ in range(n)]
    scores = [_score(rng) for _ in range(n)]
    thresh = float(rng.choice([0.3, 0.5, 0.75, 1.0]))
    return boxes, scores, thresh


def box_pool(rng, n):
    return [_box(rng) for _ in range(n)], [_score(rng) for _ in range(n)]


def temporal_nms_case(rng):
    n = int(rng.integers(0, 21))
    segments = [RankedSegment(segment=_segment(rng), score=_score(rng), label=0) for _ in range(n)]
    thresh = float(rng.choice([1 / 3, 0.5, 0.75, 1.0]))
    return segments, thresh


def _prob_rows(rng, z, c):
    # A third of the matrices come from small integer weights and a third
    # from weights of 0 or 1, so rows hold equal and zero (-inf log)
    # probabilities and totals tie across positions; the rest are tie-free.
    kind = rng.integers(3)
    if kind < 2:
        w = rng.integers(0, 4 if kind == 0 else 2, size=(z, c)).astype(float)
        w[w.sum(axis=1) == 0, 0] = 1.0
    else:
        w = rng.random((z, c)) + 1e-3
    return w / w.sum(axis=1, keepdims=True)


def top_k_case(rng):
    c_v = int(rng.integers(1, 4))
    c_n = int(rng.integers(1, 4))
    z = int(rng.integers(1, 5))
    # Keep the enumeration of every rank tuple small.
    while z > 1 and (c_v * c_n) ** z > 800:
        z -= 1
    matrix = ScoreMatrix(verb=_prob_rows(rng, z, c_v), noun=_prob_rows(rng, z, c_n))
    # One case in four asks for every sequence or more.
    count = (c_v * c_n) ** z
    k = count + int(rng.integers(0, 3)) if rng.random() < 0.25 else int(rng.integers(1, 13))
    return matrix, k


def edit_distance_case(rng):
    z = int(rng.integers(1, 7))
    n_instances = int(rng.integers(1, 4))
    n_candidates = int(rng.integers(1, 6))

    def label():
        return ActionLabel(verb_id=int(rng.integers(0, 3)), noun_id=int(rng.integers(0, 3)))

    gts = {}
    forecasts = {}
    for i in range(n_instances):
        key = ("v", i)
        gts[key] = tuple(label() for _ in range(z))
        candidates = tuple(tuple(label() for _ in range(z)) for _ in range(n_candidates))
        forecasts[key] = LtaForecast(clip_index=i + 1, candidates=candidates)
    mode = str(rng.choice(["verb", "noun", "action"]))
    return forecasts, gts, mode


def sequence_pair(rng):
    alphabet = [0, 1, 2]
    a = tuple(int(rng.choice(alphabet)) for _ in range(int(rng.integers(0, 7))))
    b = tuple(int(rng.choice(alphabet)) for _ in range(int(rng.integers(0, 7))))
    return a, b
