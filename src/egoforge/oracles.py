"""Brute-force reference implementations of the matching-based metrics.

These recompute everything the slow way: ranking by repeated max
extraction, a fresh greedy matching pass for every score cutoff, and the
precision envelope by explicit scans. They share no code with the fast
evaluators, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from .model import ActionLabel, BoundingBox, LtaForecast, RankedSegment, ScoreMatrix, TemporalSegment


def _seg_iou(a: TemporalSegment, b: TemporalSegment) -> float:
    lo = a.start_s if a.start_s > b.start_s else b.start_s
    hi = a.end_s if a.end_s < b.end_s else b.end_s
    inter = hi - lo if hi > lo else 0.0
    union = (a.end_s - a.start_s) + (b.end_s - b.start_s) - inter
    if union <= 0.0:
        return 1.0 if a.start_s == b.start_s else 0.0
    return inter / union


def _bx_iou(a: BoundingBox, b: BoundingBox) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
    else:
        inter = iw * ih
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _rank_desc(scores: Sequence[float]) -> list[int]:
    # Repeated max extraction; the first occurrence wins ties, which keeps
    # input order among equal scores.
    remaining = list(range(len(scores)))
    out: list[int] = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        out.append(best)
        remaining.remove(best)
    return out


def _match_count(
    prefix: Sequence[tuple[Hashable, Any]],
    gts_by_group: Mapping[Hashable, Sequence[Any]],
    iou_fn: Callable[[Any, Any], float],
    iou_thresh: float,
    pair_ok: Callable[[Any, Any], bool] | None,
) -> int:
    # A from-scratch greedy pass over one ranked prefix.
    taken: dict[Hashable, list[bool]] = {g: [False] * len(v) for g, v in gts_by_group.items()}
    matched = 0
    for group, pred in prefix:
        pool = gts_by_group.get(group, ())
        flags = taken.get(group, [])
        best_j = -1
        best_iou = -1.0
        for j, gt in enumerate(pool):
            if flags[j]:
                continue
            if pair_ok is not None and not pair_ok(pred, gt):
                continue
            overlap = iou_fn(pred, gt)
            if overlap >= iou_thresh and overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0:
            flags[best_j] = True
            matched += 1
    return matched


def _oracle_class_ap(
    preds: Sequence[tuple[float, Hashable, Any]],
    gts_by_group: Mapping[Hashable, Sequence[Any]],
    iou_fn: Callable[[Any, Any], float],
    iou_thresh: float,
    pair_ok: Callable[[Any, Any], bool] | None,
) -> float:
    npos = sum(len(v) for v in gts_by_group.values())
    if npos == 0:
        raise ValueError("AP is undefined with no positives")
    ranked = [(preds[i][1], preds[i][2]) for i in _rank_desc([p[0] for p in preds])]
    precisions: list[float] = []
    recalls: list[float] = []
    for m in range(1, len(ranked) + 1):
        tp = _match_count(ranked[:m], gts_by_group, iou_fn, iou_thresh, pair_ok)
        precisions.append(tp / m)
        recalls.append(tp / npos)
    ap = 0.0
    prev_recall = 0.0
    for m in range(len(ranked)):
        best_later = 0.0
        for p in precisions[m:]:
            if p > best_later:
                best_later = p
        ap += (recalls[m] - prev_recall) * best_later
        prev_recall = recalls[m]
    return ap


def _oracle_map(
    preds: Mapping[Hashable, Sequence[Any]],
    gts: Mapping[Hashable, Sequence[Any]],
    class_of: Callable[[Any], int],
    score_of: Callable[[Any], float],
    iou_fn: Callable[[Any, Any], float],
    iou_thresh: float,
    pair_ok: Callable[[Any, Any], bool] | None = None,
) -> float:
    classes: dict[int, dict[Hashable, list[Any]]] = {}
    for group, items in gts.items():
        for gt in items:
            classes.setdefault(class_of(gt), {}).setdefault(group, []).append(gt)
    if not classes:
        raise ValueError("AP is undefined with no ground-truth instances")
    by_class: dict[int, list[tuple[float, Hashable, Any]]] = {c: [] for c in classes}
    for group, items in preds.items():
        for pred in items:
            cls = class_of(pred)
            if cls in by_class:
                by_class[cls].append((score_of(pred), group, pred))
    total = 0.0
    for cls in sorted(classes):
        total += _oracle_class_ap(by_class[cls], classes[cls], iou_fn, iou_thresh, pair_ok)
    return total / len(classes)


def oracle_average_map(
    preds: Mapping[Hashable, Sequence[Any]],
    gts: Mapping[Hashable, Sequence[Any]],
    tiou_thresholds: Sequence[float],
) -> float:
    """Reference mean AP over classes and tIoU thresholds for segments."""
    total = 0.0
    for t in tiou_thresholds:
        total += _oracle_map(
            preds,
            gts,
            class_of=lambda x: x.label if hasattr(x, "label") else x.class_id,
            score_of=lambda x: x.score,
            iou_fn=lambda p, g: _seg_iou(p.segment, g.segment),
            iou_thresh=float(t),
        )
    return total / len(tiou_thresholds)


def oracle_box_ap(
    preds: Mapping[str, Sequence[Any]],
    gts: Mapping[str, Sequence[Any]],
    iou_thresholds: Sequence[float],
) -> float:
    """Reference mean AP over classes and IoU thresholds for boxes."""
    total = 0.0
    for t in iou_thresholds:
        total += _oracle_map(
            preds,
            gts,
            class_of=lambda x: x.class_id,
            score_of=lambda x: x.score,
            iou_fn=lambda p, g: _bx_iou(p.box, g.box),
            iou_thresh=float(t),
        )
    return total / len(iou_thresholds)


def oracle_sta_ap(
    preds: Mapping[str, Sequence[Any]],
    gts: Mapping[str, Sequence[Any]],
    criteria: str,
    box_iou_thresh: float = 0.5,
    ttc_tol_s: float = 0.25,
    top_k: int = 5,
) -> float:
    """Reference anticipation AP with per-keyframe top-k preselection."""
    kept: dict[str, list[Any]] = {}
    for frame, items in preds.items():
        order = _rank_desc([p.score for p in items])[:top_k]
        kept[frame] = [items[i] for i in order]

    def ok(pred: Any, gt: Any) -> bool:
        if criteria in ("noun_verb", "overall") and pred.verb_id != gt.verb_id:
            return False
        if criteria in ("noun_ttc", "overall"):
            delta = pred.ttc_s - gt.ttc_s
            if delta < 0:
                delta = -delta
            if delta > ttc_tol_s:
                return False
        return True

    return _oracle_map(
        kept,
        gts,
        class_of=lambda x: x.noun_id,
        score_of=lambda x: x.score,
        iou_fn=lambda p, g: _bx_iou(p.box, g.box),
        iou_thresh=box_iou_thresh,
        pair_ok=ok,
    )


def oracle_recall_at_k(
    preds: Mapping[Hashable, Sequence[Any]],
    gts: Mapping[Hashable, Sequence[Any]],
    k: int,
    tiou_thresh: float,
) -> float:
    """Reference recall: exhaustive scan of each label's top-k candidates."""
    total = 0
    hits = 0
    for label, instances in gts.items():
        pool = list(preds.get(label, ()))
        top = [pool[i] for i in _rank_desc([p.score for p in pool])[:k]]
        for inst in instances:
            total += 1
            for p in top:
                if _seg_iou(p.segment, inst.segment) >= tiou_thresh:
                    hits += 1
                    break
    if total == 0:
        raise ValueError("recall is undefined with no ground-truth instances")
    return hits / total


def oracle_nms(
    boxes: Sequence[BoundingBox],
    scores: Sequence[float],
    iou_thresh: float,
) -> list[int]:
    """Reference greedy suppression by linear rescanning."""
    n = len(boxes)
    alive = [True] * n
    kept: list[int] = []
    while True:
        best = -1
        for i in range(n):
            if alive[i] and (best < 0 or scores[i] > scores[best]):
                best = i
        if best < 0:
            break
        kept.append(best)
        alive[best] = False
        for j in range(n):
            if alive[j] and _bx_iou(boxes[best], boxes[j]) > iou_thresh:
                alive[j] = False
    return kept


def oracle_temporal_nms(segments: Sequence[RankedSegment], tiou_thresh: float) -> list[int]:
    """Reference greedy suppression over scored segments by linear rescanning."""
    n = len(segments)
    alive = [True] * n
    kept: list[int] = []
    while True:
        best = -1
        for i in range(n):
            if alive[i] and (best < 0 or segments[i].score > segments[best].score):
                best = i
        if best < 0:
            break
        kept.append(best)
        alive[best] = False
        for j in range(n):
            if alive[j] and _seg_iou(segments[best].segment, segments[j].segment) > tiou_thresh:
                alive[j] = False
    return kept


def oracle_top_k_sequences(matrix: ScoreMatrix, k: int) -> tuple[tuple[ActionLabel, ...], ...]:
    """Reference k most probable label sequences by full enumeration.

    Ranks every (verb, noun) pair of each position by falling joint
    log-probability (equal values by flat index), scores every tuple of
    ranks by its left-to-right sum, and sorts all tuples by (-total, ranks).
    Exponential in Z: for small matrices only.
    """
    with np.errstate(divide="ignore"):
        log_v = np.log(matrix.verb).tolist()
        log_n = np.log(matrix.noun).tolist()
    tables = []
    for lv, ln in zip(log_v, log_n):
        pairs = [(v, n, a + b) for v, a in enumerate(lv) for n, b in enumerate(ln)]
        ranked = sorted(range(len(pairs)), key=lambda i: (-pairs[i][2], i))
        tables.append([pairs[i] for i in ranked])
    scored = []
    for ranks in itertools.product(range(len(tables[0])), repeat=len(tables)):
        total = 0.0
        for table, r in zip(tables, ranks):
            total += table[r][2]
        scored.append((-total, ranks))
    scored.sort()
    return tuple(
        tuple(ActionLabel(verb_id=tables[p][r][0], noun_id=tables[p][r][1]) for p, r in enumerate(ranks))
        for _, ranks in scored[:k]
    )


def oracle_levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Reference edit distance straight off the recursive definition."""
    ta, tb = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(ta):
            return len(tb) - j
        if j == len(tb):
            return len(ta) - i
        return min(
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
            go(i + 1, j + 1) + (ta[i] != tb[j]),
        )

    return go(0, 0)


def oracle_edit_distance_at_z(
    forecasts: Mapping[Hashable, LtaForecast],
    gts: Mapping[Hashable, Sequence[ActionLabel]],
    mode: str,
) -> float:
    """Reference normalized edit distance, minimum over candidates."""

    def project(seq: Sequence[ActionLabel]) -> tuple[Hashable, ...]:
        if mode == "verb":
            return tuple(a.verb_id for a in seq)
        if mode == "noun":
            return tuple(a.noun_id for a in seq)
        return tuple((a.verb_id, a.noun_id) for a in seq)

    total = 0.0
    count = 0
    for key, truth in gts.items():
        target = project(truth)
        best = None
        for cand in forecasts[key].candidates:
            d = oracle_levenshtein(project(cand), target)
            if best is None or d < best:
                best = d
        total += best / len(truth)
        count += 1
    if count == 0:
        raise ValueError("edit distance is undefined with no ground-truth instances")
    return total / count
