"""Evaluators for the five task tracks.

All metrics return plain fractions (recall, AP, and edit distance live in
[0, 1]; displacements are in pixels). Rendering to percent happens at the
reporting layer, never here. Matching everywhere is greedy in score order:
ties keep the grouped input order (below), each ground-truth item is
matched at most once, and
a prediction takes the highest-overlap unmatched item. Average precision
uses all-point interpolation (the running precision envelope).

The AP, recall and displacement metrics work on ``model.Columns``: the
records as arrays, rows in the loader's group order. Every public AP,
recall and displacement function takes a loader's columns or a mapping of
group key -> typed records, which ``_columns`` (or, for hand keyframes,
``_fhp_columns``) turns into columns at entry (rows in the mapping's
order), so there is one kernel. Edit distance works the same way on
``model.LtaColumns``, which ``_lta_columns`` makes of typed records.

Ties follow that grouped order. Equal scores rank in group order (first
appearance for mq and nlq predictions, the ``images`` list for sta and
scod), then in file order within a group; sta's per-keyframe top-k breaks
ties the same way. A prediction with equal IoU to several ground-truth rows
takes the earliest, in ``videos`` / ``images`` order and then file order.
``recall_at_kx`` adds each label's recall times its support in ground-truth
order.

The AP metrics share one pair-array kernel. Predictions are ranked once by
(class, descending score, row) with one stable lexsort, every same-class,
same-group (prediction rank, ground-truth position) pair is listed in flat
arrays, and the pairs' IoU is computed in one vectorized call that repeats
the scalar IoU's operations, so it agrees bit for bit. Each cut of the grid
(an IoU threshold, or an anticipation criterion) keeps its eligible pairs,
sorts them by rank, then IoU descending, then ground-truth position, and one
pass takes each rank's first pair whose ground truth is still unused: the
greedy rule above. Edit distance scores all candidates of all instances
with the same length at once, with Myers' bit-vector algorithm in Hyyrö's
edit-distance form: one uint64 lane per (candidate, truth) pair and one pass
of word operations per candidate position. Truth longer than 64 actions
takes an integer DP, one row per candidate position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .model import (
    HANDS,
    KEYFRAME_TAGS,
    ActionLabel,
    BoundingBox,
    Columns,
    Detection,
    HandKeyframes,
    LtaColumns,
    LtaForecast,
    MomentInstance,
    RankedSegment,
    StaInstance,
    TemporalSegment,
    TypedView,
    _finite,
    _grouped_columns,
    _is_int,
    _require,
)

# Track-conventional threshold grids.
DEFAULT_MAP_TIOUS = (0.1, 0.2, 0.3, 0.4, 0.5)
BOX_AP_IOUS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))

STA_CRITERIA = ("noun", "noun_verb", "noun_ttc", "overall")

ED_MODES = ("verb", "noun", "action")

REPORT_FAMILIES = ("percent", "pixels", "edit")


@dataclass(frozen=True)
class MetricReport:
    """One evaluated metric with its per-key breakdown."""

    name: str
    value: float
    breakdown: Mapping[str, float] = field(default_factory=dict)
    count: int = 0
    family: str = "percent"

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and self.name != "", "name must be a non-empty string")
        _require(_finite(self.value), f"value must be finite, got {self.value!r}")
        _require(_is_int(self.count) and self.count >= 0, "count must be an int >= 0")
        _require(self.family in REPORT_FAMILIES, f"family must be one of {REPORT_FAMILIES}")
        items = dict(self.breakdown)
        _require(all(isinstance(k, str) and _finite(v) for k, v in items.items()), "breakdown must map strings to finite reals")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "breakdown", items)


def temporal_iou(a: TemporalSegment, b: TemporalSegment) -> float:
    """Intersection over union of two segments.

    Two zero-length segments overlap fully (1.0) only when they are the same
    point; a zero-length segment against a proper one never overlaps.
    """
    inter = max(0.0, min(a.end_s, b.end_s) - max(a.start_s, b.start_s))
    union = a.length_s + b.length_s - inter
    if union <= 0.0:
        return 1.0 if a.start_s == b.start_s else 0.0
    return inter / union


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; zero-area boxes match nothing."""
    iw = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    ih = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _columns(groups: Mapping[Hashable, Sequence[Any]], width: int) -> Columns:
    """Groups of typed records as columns; a loader's or a view's as they are.

    Records hold a ``segment`` (width 2: ``RankedSegment``,
    ``MomentInstance``, ``NlqInstance``) or a ``box`` (width 4:
    ``StaInstance``, ``Detection``). The label is the class id, the noun or
    ``RankedSegment.label``; the label column is None unless every label is
    an int.
    """
    groups = groups.columns if isinstance(groups, TypedView) else groups
    if isinstance(groups, Columns):
        return groups
    keys: list[Hashable] = []
    records: list[Any] = []
    for key, group in groups.items():
        keys.extend([key] * len(group))
        records.extend(group)
    if width == 4:
        coords = [(b.x1, b.y1, b.x2, b.y2) for b in (x.box for x in records)]
    else:
        coords = [(x.segment.start_s, x.segment.end_s) for x in records]
    labels = [
        x.label if isinstance(x, RankedSegment) else x.noun_id if isinstance(x, StaInstance) else getattr(x, "class_id", None)
        for x in records
    ]
    sta = all(isinstance(x, StaInstance) for x in records)
    return _grouped_columns(
        {key: g for g, key in enumerate(groups)},
        keys,
        np.array(coords, dtype=np.float64).reshape(-1, width),
        [getattr(x, "score", 1.0) for x in records],
        labels if all(_is_int(label) for label in labels) else None,
        [x.verb_id for x in records] if sta else None,
        [x.ttc_s for x in records] if sta else None,
    )


def _top(cols: Columns, budget: np.ndarray) -> np.ndarray:
    # The rows among the budget[g] highest-scored of each group g, in row
    # order; equal scores keep row order.
    order = np.lexsort((-cols.score, cols.code))
    rank = np.arange(len(order)) - cols.starts[cols.code[order]]
    return np.sort(order[rank < budget[cols.code[order]]])


def _pairs(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Every (i, j) with first[i] <= j < first[i] + count[i], i ascending.
    i = np.repeat(np.arange(len(first)), count)
    return i, np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(i))


def _gt_groups(preds: Columns, gts: Columns) -> np.ndarray:
    # The ground-truth group number of each prediction group's key, or -1.
    return np.array([gts.index.get(key, -1) for key in preds.groups], dtype=np.intp)


def _recall_hits(preds: Columns, gts: Columns, budget: np.ndarray, tiou_thresh: float) -> np.ndarray:
    # Ground-truth rows hit by one of the budget[g] highest-scored
    # predictions under their group key g.
    to_gt = _gt_groups(preds, gts)
    rows = _top(preds, np.where(to_gt >= 0, budget[to_gt], 0))
    group = to_gt[preds.code[rows]]
    i, pair_g = _pairs(gts.starts[group], np.diff(gts.starts)[group])
    iou = _temporal_iou_pairs(preds.coords[rows[i]], gts.coords[pair_g])
    hit = np.zeros(len(gts.score), dtype=bool)
    hit[pair_g[iou >= tiou_thresh]] = True
    return hit


def recall_at_k(
    preds: Mapping[Hashable, Sequence[RankedSegment]],
    gts: Mapping[Hashable, Sequence[Any]],
    k: int,
    tiou_thresh: float,
) -> float:
    """Fraction of ground-truth segments hit by a top-k prediction.

    Predictions and ground truth are grouped under a shared label key (a
    class id, a query id, or any composite). A ground-truth segment counts
    as recalled when any of the k highest-scored predictions under its label
    reaches the tIoU threshold.
    """
    _require(isinstance(k, int) and k >= 1, "k must be an int >= 1")
    _require(0 < tiou_thresh <= 1, f"tiou_thresh must be in (0, 1], got {tiou_thresh}")
    preds, gts = _columns(preds, 2), _columns(gts, 2)
    total = len(gts.score)
    if total == 0:
        raise ValueError("recall is undefined with no ground-truth instances")
    budget = np.full(len(gts.groups), min(k, len(preds.score)))
    return int(_recall_hits(preds, gts, budget, tiou_thresh).sum()) / total


def recall_at_kx(
    preds: Mapping[Hashable, Sequence[RankedSegment]],
    gts: Mapping[Hashable, Sequence[Any]],
    kx: int,
    tiou_thresh: float,
) -> float:
    """Recall where the prediction budget scales with the label's support.

    A label with n ground-truth instances gets kx * n top predictions; this
    is the convention for moment retrieval, where a class can occur several
    times per video and a flat k would cap recall below one.
    """
    _require(isinstance(kx, int) and kx >= 1, "kx must be an int >= 1")
    preds, gts = _columns(preds, 2), _columns(gts, 2)
    total = len(gts.score)
    if total == 0:
        raise ValueError("recall is undefined with no ground-truth instances")
    _require(0 < tiou_thresh <= 1, f"tiou_thresh must be in (0, 1], got {tiou_thresh}")
    support = np.diff(gts.starts)
    hit = _recall_hits(preds, gts, min(kx, len(preds.score)) * support, tiou_thresh)
    # Each label's recall times its support, summed in ground-truth order.
    hits = 0.0
    for h, n in zip(np.bincount(gts.code[hit], minlength=len(support)).tolist(), support.tolist()):
        if n:
            hits += h / n * n
    return hits / total


def _ap_from_tp(tp: np.ndarray, npos: int) -> float:
    # All-point interpolated AP from per-rank hit flags; npos >= 1.
    if tp.size == 0:
        return 0.0
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(1.0 - tp)
    recall = tp_cum / npos
    precision = tp_cum / (tp_cum + fp_cum)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * envelope))


def _temporal_iou_pairs(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    # temporal_iou over paired (start, end) rows, in the same operation order.
    inter = np.maximum(0.0, np.minimum(p[:, 1], g[:, 1]) - np.maximum(p[:, 0], g[:, 0]))
    union = (p[:, 1] - p[:, 0]) + (g[:, 1] - g[:, 0]) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = inter / union
    degenerate = union <= 0.0
    iou[degenerate] = p[degenerate, 0] == g[degenerate, 0]
    return iou


def _box_iou_pairs(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    # box_iou over paired (x1, y1, x2, y2, ...) rows, in the same operation order.
    with np.errstate(over="ignore"):  # only far-apart boxes overflow here, to -inf, clipped to 0
        iw = np.maximum(0.0, np.minimum(p[:, 2], g[:, 2]) - np.maximum(p[:, 0], g[:, 0]))
        ih = np.maximum(0.0, np.minimum(p[:, 3], g[:, 3]) - np.maximum(p[:, 1], g[:, 1]))
    inter = iw * ih
    area_p = (p[:, 2] - p[:, 0]) * (p[:, 3] - p[:, 1])
    area_g = (g[:, 2] - g[:, 0]) * (g[:, 3] - g[:, 1])
    union = area_p + area_g - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = inter / union
    iou[union <= 0.0] = 0.0
    return iou


def _grid_map(
    preds: Columns,
    gts: Columns,
    iou_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cuts: Callable[[np.ndarray, np.ndarray, np.ndarray], list[np.ndarray]],
    rows: np.ndarray | None = None,
) -> list[float]:
    # Mean AP over the classes present in ground truth, once per cut: cuts
    # maps (pair IoU, pair prediction rows, pair GT rows) to one eligibility
    # mask per cut. Only the prediction rows in ``rows`` (default: all)
    # compete, and those of classes absent from ground truth are dropped.
    if len(gts.score) == 0:
        raise ValueError("AP is undefined with no ground-truth instances")
    classes = np.unique(gts.label)
    g_cls = np.searchsorted(classes, gts.label)
    npos = np.bincount(g_cls, minlength=len(classes)).tolist()
    # Ground-truth rows by (class, group, row), and each (class, group)
    # block's key in that order.
    g_order = np.argsort(g_cls, kind="stable")
    g_key = (g_cls * len(gts.groups) + gts.code)[g_order]
    if rows is None:
        rows = np.arange(len(preds.score))
    p_cls = np.minimum(np.searchsorted(classes, preds.label[rows]), len(classes) - 1)
    known = classes[p_cls] == preds.label[rows]
    rows, p_cls = rows[known], p_cls[known]
    # Ranks: class, then descending score, then row order on ties.
    rank = np.lexsort((-preds.score[rows], p_cls))
    rows, p_cls = rows[rank], p_cls[rank]
    bounds = np.searchsorted(p_cls, np.arange(len(classes) + 1)).tolist()
    group = _gt_groups(preds, gts)[preds.code[rows]]
    p_key = np.where(group >= 0, p_cls * len(gts.groups) + group, -1)
    first = np.searchsorted(g_key, p_key)
    # Every same-class, same-group (rank, GT position) pair, ranks ascending.
    pair_rank, pair_gt = _pairs(first, np.searchsorted(g_key, p_key, side="right") - first)
    p, g = rows[pair_rank], g_order[pair_gt]
    iou = iou_of(preds.coords[p], gts.coords[g])
    hits_per_cut = []
    for eligible in cuts(iou, p, g):
        # Per rank, the highest-IoU unused GT wins; IoU ties go to the lower
        # position, which is the earlier group and then the earlier row.
        sel = np.flatnonzero(eligible)
        sel = sel[np.lexsort((pair_gt[sel], -iou[sel], pair_rank[sel]))]
        used = bytearray(len(g_order))
        hits: list[int] = []
        for r, j in zip(pair_rank[sel].tolist(), pair_gt[sel].tolist()):
            if not used[j] and (not hits or hits[-1] != r):
                used[j] = 1
                hits.append(r)
        tp = np.zeros(len(rows))
        tp[hits] = 1.0
        hits_per_cut.append(tp)
    totals: list[float] | None = None
    for c in range(len(classes)):
        aps = [_ap_from_tp(tp[bounds[c] : bounds[c + 1]], npos[c]) for tp in hits_per_cut]
        totals = aps if totals is None else [t + ap for t, ap in zip(totals, aps)]
    return [t / len(classes) for t in totals]


def average_map(
    preds: Mapping[Hashable, Sequence[RankedSegment]],
    gts: Mapping[Hashable, Sequence[MomentInstance]],
    tiou_thresholds: Sequence[float] = DEFAULT_MAP_TIOUS,
) -> MetricReport:
    """Mean AP over classes, averaged over a grid of tIoU thresholds.

    Both maps are keyed by video id. Prediction labels are class ids;
    classes never seen in ground truth are excluded from the mean, classes
    with ground truth but no predictions contribute zero.
    """
    thresholds = [float(t) for t in tiou_thresholds]
    _require(len(thresholds) >= 1, "need at least one tIoU threshold")
    _require(all(0 < t <= 1 for t in thresholds), "tIoU thresholds must be in (0, 1]")
    if not isinstance(preds, Columns):
        for group, items in preds.items():
            for p in items:
                _require(isinstance(p.label, int), f"prediction in group {group!r} has a non-integer class label")
    preds, gts = _columns(preds, 2), _columns(gts, 2)
    _require(preds.label is not None, "predictions carry no class labels")
    maps = _grid_map(preds, gts, _temporal_iou_pairs, lambda iou, p, g: [iou >= t for t in thresholds])
    breakdown = {f"mAP@{t:.2f}": m for t, m in zip(thresholds, maps)}
    value = sum(breakdown.values()) / len(thresholds)
    count = len(gts.score)
    return MetricReport(name="mAP", value=value, breakdown=breakdown, count=count, family="percent")


@dataclass(frozen=True)
class HandDisplacement:
    """Per-instance displacement of one hand, in pixels."""

    mean_px: float | None
    contact_px: float | None


def _fhp_columns(groups: Mapping[str, HandKeyframes]) -> Columns:
    """Hand keyframes by video as columns of one row per video; a loader's
    or a view's as they are."""
    groups = groups.columns if isinstance(groups, TypedView) else groups
    if isinstance(groups, Columns):
        return groups
    points = [kf[tag] for kf in groups.values() for tag in KEYFRAME_TAGS]
    frames = (len(groups), len(KEYFRAME_TAGS), 2)
    coords = np.array([(*p.left, *p.right) for p in points], dtype=np.float64).reshape(*frames, 2)
    visible = np.array([(p.left_visible, p.right_visible) for p in points], dtype=bool).reshape(frames)
    return _grouped_columns({}, list(groups), coords, np.ones(len(groups)), visible=visible)


def _hand_displacements(pred: np.ndarray, gt: np.ndarray, visible: np.ndarray) -> list[list[tuple[float | None, float | None]]]:
    # Per instance and hand, the (mean, contact) distances of the (n, 5, 2,
    # 2) coordinates, over the keyframes where ground truth shows the hand:
    # math.hypot per point, each mean a sum in keyframe order.
    with np.errstate(over="ignore"):  # an infinite distance; displacement_report refuses it
        diff = (pred - gt).reshape(-1, 2)
    dist = np.array(list(map(math.hypot, diff[:, 0].tolist(), diff[:, 1].tolist())))
    by_hand = dist.reshape(visible.shape).transpose(0, 2, 1).tolist()
    out = []
    for dists, shown in zip(by_hand, visible.transpose(0, 2, 1).tolist()):
        hands = []
        for d, v in zip(dists, shown):
            vals = list(compress(d, v))
            hands.append((sum(vals) / len(vals) if vals else None, d[0] if v[0] else None))
        out.append(hands)
    return out


def hand_displacement(pred: HandKeyframes, gt: HandKeyframes) -> dict[str, HandDisplacement]:
    """Mean and contact-frame distances between predicted and true positions.

    Only keyframes where ground truth marks the hand visible enter the
    average; a hand never visible yields None for both numbers.
    """
    p, g = _fhp_columns({"": pred}), _fhp_columns({"": gt})
    (hands,) = _hand_displacements(p.coords, g.coords, g.visible)
    return {hand: HandDisplacement(mean_px=m, contact_px=c) for hand, (m, c) in zip(HANDS, hands)}


def displacement_report(
    preds: Mapping[str, HandKeyframes],
    gts: Mapping[str, HandKeyframes],
) -> list[MetricReport]:
    """Dataset-level displacement, averaged per instance then over instances.

    Returns up to four reports (left/right, mean/contact); a hand with no
    visible ground truth anywhere is omitted rather than reported as zero.
    Takes typed keyframes or a loader's ``Columns``.
    """
    preds, gts = _fhp_columns(preds), _fhp_columns(gts)
    if not gts:
        raise ValueError("displacement is undefined with no ground-truth instances")
    missing = [key for key in gts if key not in preds.index]
    if missing:
        raise DataError(f"predictions missing for instances: {missing[:5]}")
    rows = [preds.index[key] for key in gts]
    per_instance = _hand_displacements(preds.coords[rows], gts.coords, gts.visible)
    reports: list[MetricReport] = []
    for h, tag in enumerate(("L", "R")):
        for a, kind in enumerate(("M", "C")):
            vals = [d[h][a] for d in per_instance if d[h][a] is not None]
            if not vals:
                continue
            value = sum(vals) / len(vals)
            if not math.isfinite(value):
                raise DataError(f"{tag}-{kind}.Disp: the displacements overflow the float range")
            reports.append(
                MetricReport(
                    name=f"{tag}-{kind}.Disp",
                    value=value,
                    count=len(vals),
                    family="pixels",
                )
            )
    return reports


def _edit_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Unit-cost edit distance of each row pair of the integer arrays a (M, m)
    # and b (M, n): the bit-vector kernel when 1 <= n <= 64 and m >= 1, else
    # one DP row per position of a for all M pairs at once.
    if 1 <= b.shape[1] <= 64 and a.shape[1]:
        return _bit_parallel_distances(a, b)
    # With t[j] = min(prev[j] + 1, prev[j - 1] + cost), the row is
    # cur[j] = min(t[j], cur[j - 1] + 1), so cur[j] - j is a running minimum
    # of t[k] - k. Every step writes into the same three arrays: fresh
    # (M, n) temporaries each step would be new pages for the allocator to
    # map and fault in, once a step's arrays outgrow its mmap threshold.
    j = np.arange(b.shape[1] + 1)
    prev = np.empty((len(a), len(j)), dtype=np.int64)
    prev[:] = j
    t = np.empty_like(prev)
    diag = np.empty_like(b, dtype=np.int64)
    for i in range(a.shape[1]):
        t[:, 0] = i + 1
        np.not_equal(a[:, i : i + 1], b, out=diag)
        np.add(diag, prev[:, :-1], out=diag)
        np.add(prev[:, 1:], 1, out=t[:, 1:])
        np.minimum(t[:, 1:], diag, out=t[:, 1:])
        np.subtract(t, j, out=t)
        np.minimum.accumulate(t, axis=1, out=prev)
        np.add(prev, j, out=prev)
    return prev[:, -1]


def _bit_parallel_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Myers' bit-vector algorithm in Hyyrö's edit-distance form: bit j of a
    # pair's uint64 lane is row j + 1 of its DP column over b, Pv and Mv mark
    # where that column rises or falls by one going down, and one step per
    # position of a moves every lane a column to the right. score follows
    # the column's last row, bit n - 1. Carries and shifts only move bits
    # up, so the bits above n - 1 never reach it and are never masked.
    n = b.shape[1]
    # At step i, e has bit j set in each lane where a[:, i] == b[:, j]. Made
    # one position a step, the compare holds (M, n) booleans, not (m, M, n):
    # 1.8 against 12.4 MB (tracemalloc) at 20,000 lanes of 20, no slower.
    e8 = np.zeros((len(a), 8), dtype=np.uint8)
    e = e8.view("<u8")[:, 0]
    pv = np.full(len(a), ~np.uint64(0))
    mv = np.zeros(len(a), dtype=np.uint64)
    score = np.full(len(a), n, dtype=np.uint64)
    top, one = np.uint64(n - 1), np.uint64(1)
    for i in range(a.shape[1]):
        e8[:, : (n + 7) // 8] = np.packbits(a[:, i, None] == b, axis=1, bitorder="little")
        xv = e | mv
        xh = (((e & pv) + pv) ^ pv) | e
        ph = mv | ~(xh | pv)
        mh = pv & xh
        score += (ph >> top) & one
        score -= (mh >> top) & one
        ph = (ph << one) | one
        pv = (mh << one) | ~(xv | ph)
        mv = ph & xv
    return score.view(np.int64)


def levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Unit-cost edit distance between two sequences."""
    codes: dict[Hashable, int] = {}
    a_row, b_row = ([codes.setdefault(x, len(codes)) for x in seq] for seq in (a, b))
    return int(_edit_distances(np.array([a_row], dtype=np.int64), np.array([b_row], dtype=np.int64))[0])


def _lta_columns(groups: Mapping[Hashable, Any]) -> LtaColumns:
    """Typed lta records as columns; a loader's or a view's as they are. A
    value is an ``LtaForecast``, whose candidates are its row's sequences,
    or one sequence of ``ActionLabel``."""
    groups = groups.columns if isinstance(groups, TypedView) else groups
    if isinstance(groups, LtaColumns):
        return groups
    rows = [v.candidates if isinstance(v, LtaForecast) else (v,) for v in groups.values()]
    return LtaColumns.of_rows(groups, [[[(a.verb_id, a.noun_id) for a in seq] for seq in row] for row in rows])


def _mode_codes(preds: np.ndarray, gts: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    # int64 codes of the mode's projection of each [verb, noun] pair of the
    # two arrays, equal exactly where the projections are: the verb, the
    # noun, or for an action verb * width + noun, width being the largest
    # noun + 1. Where that or an id leaves int64, the codes are ranks among
    # the distinct values, computed on Python ints.
    both = (preds, gts)
    width = max((int(p[:, 1].max()) for p in both if len(p)), default=0) + 1
    top = max((int(p[:, 0].max()) for p in both if len(p)), default=0)
    column = ED_MODES.index(mode)
    if object not in (preds.dtype, gts.dtype) and (mode != "action" or top * width + width <= np.iinfo(np.int64).max):
        return tuple(p[:, 0] * width + p[:, 1] if mode == "action" else p[:, column] for p in both)
    pairs = np.concatenate(both).astype(object)
    values = pairs[:, 0] * width + pairs[:, 1] if mode == "action" else pairs[:, column]
    codes = np.unique(values, return_inverse=True)[1].astype(np.int64)
    return codes[: len(preds)], codes[len(preds) :]


def _edit_distance_means(
    forecasts: Mapping[Hashable, LtaForecast], gts: Mapping[Hashable, Sequence[ActionLabel]], modes: Sequence[str]
) -> list[float]:
    # The mean normalized best-candidate edit distance in each mode: one
    # projection of both files' pairs per mode, one _edit_distances call per
    # mode and sequence length, and a Python sum in ground-truth order.
    preds, gts = _lta_columns(forecasts), _lta_columns(gts)
    if not gts:
        raise ValueError("edit distance is undefined with no ground-truth instances")
    missing = [key for key in gts if key not in preds.index]
    if missing:
        raise DataError(f"forecasts missing for instances: {missing[:5]}")
    extra = [key for key in preds if key not in gts.index]
    if extra:
        raise DataError(f"forecasts for unknown instances: {extra[:5]}")
    row = np.array([preds.index[key] for key in gts], dtype=np.intp)
    z, length = gts.lengths, preds.lengths[row]
    bad = np.flatnonzero((z < 1) | (length != z)).tolist()
    if bad:
        key = gts.episodes[bad[0]]
        _require(z[bad[0]] >= 1, f"instance {key!r} has an empty ground-truth sequence")
        raise DataError(f"instance {key!r}: candidate length {length[bad[0]]} != {z[bad[0]]}")
    count = preds.counts[row]
    means = []
    for mode in modes:
        p, g = _mode_codes(preds.pairs, gts.pairs, mode)
        best = np.empty(len(z), dtype=np.int64)
        for size in sorted(set(z.tolist())):
            # Instances of one length share one kernel call over all their
            # candidates, each against its instance's truth.
            sel = np.flatnonzero(z == size)
            a = p[_pairs(preds.starts[row[sel]], count[sel] * size)[1]].reshape(-1, size)
            b = np.repeat(g[gts.starts[sel][:, None] + np.arange(size)], count[sel], axis=0)
            best[sel] = np.minimum.reduceat(_edit_distances(a, b), np.cumsum(count[sel]) - count[sel])
        values = (best / z).tolist()
        means.append(sum(values) / len(values))
    return means


def edit_distance_at_z(
    forecasts: Mapping[Hashable, LtaForecast],
    gts: Mapping[Hashable, Sequence[ActionLabel]],
    mode: str = "action",
) -> float:
    """Mean over instances of the best candidate's normalized edit distance.

    Each forecast offers up to K candidate sequences; the minimum edit
    distance to the true sequence, divided by its length Z, scores the
    instance. Modes project sequences to verbs, nouns, or full pairs. Takes
    typed records or a loader's ``LtaColumns``.
    """
    _require(mode in ED_MODES, f"mode must be one of {ED_MODES}")
    return _edit_distance_means(forecasts, gts, (mode,))[0]


def edit_distance_report(
    forecasts: Mapping[Hashable, LtaForecast],
    gts: Mapping[Hashable, Sequence[ActionLabel]],
) -> list[MetricReport]:
    """Verb, noun, and action edit distance over one forecast set."""
    means = _edit_distance_means(forecasts, gts, ED_MODES)
    return [
        MetricReport(name=mode.capitalize(), value=value, count=len(gts), family="edit")
        for mode, value in zip(ED_MODES, means)
    ]


def _sta_maps(
    preds: Mapping[str, Sequence[StaInstance]],
    gts: Mapping[str, Sequence[StaInstance]],
    criteria: Sequence[str],
    box_iou_thresh: float,
    ttc_tol_s: float,
    top_k: int,
) -> list[float]:
    # Mean AP for each of the criteria over one top-k selection and one
    # box IoU pass.
    _require(0 < box_iou_thresh <= 1, "box_iou_thresh must be in (0, 1]")
    _require(ttc_tol_s > 0, "ttc_tol_s must be positive")
    _require(isinstance(top_k, int) and top_k >= 1, "top_k must be an int >= 1")
    preds, gts = _columns(preds, 4), _columns(gts, 4)
    kept = _top(preds, np.full(len(preds.groups), min(top_k, len(preds.score))))

    def cuts(iou: np.ndarray, p: np.ndarray, g: np.ndarray) -> list[np.ndarray]:
        noun = iou >= box_iou_thresh
        verb = preds.verb[p] == gts.verb[g]
        ttc = np.abs(preds.ttc[p] - gts.ttc[g]) <= ttc_tol_s
        masks = {"noun": noun, "noun_verb": noun & verb, "noun_ttc": noun & ttc, "overall": noun & verb & ttc}
        return [masks[c] for c in criteria]

    return _grid_map(preds, gts, _box_iou_pairs, cuts, kept)


def sta_ap(
    preds: Mapping[str, Sequence[StaInstance]],
    gts: Mapping[str, Sequence[StaInstance]],
    criteria: str = "noun",
    box_iou_thresh: float = 0.5,
    ttc_tol_s: float = 0.25,
    top_k: int = 5,
) -> float:
    """Mean AP over noun classes for short-term interaction anticipation.

    Only the top_k highest-scored predictions per keyframe compete. A match
    needs box IoU at the threshold, an equal noun (implicit in the per-class
    grouping), and, depending on criteria, an equal verb and/or a time to
    contact within the tolerance.
    """
    _require(criteria in STA_CRITERIA, f"criteria must be one of {STA_CRITERIA}")
    return _sta_maps(preds, gts, (criteria,), box_iou_thresh, ttc_tol_s, top_k)[0]


STA_REPORT_NAMES = (
    ("noun", "Noun"),
    ("noun_verb", "Noun+Verb"),
    ("noun_ttc", "Noun+TTC"),
    ("overall", "Overall"),
)


def sta_report(
    preds: Mapping[str, Sequence[StaInstance]],
    gts: Mapping[str, Sequence[StaInstance]],
    box_iou_thresh: float = 0.5,
    ttc_tol_s: float = 0.25,
    top_k: int = 5,
) -> list[MetricReport]:
    """The four anticipation AP variants on one prediction set."""
    count = sum(len(v) for v in gts.values())
    criteria = [c for c, _ in STA_REPORT_NAMES]
    maps = _sta_maps(preds, gts, criteria, box_iou_thresh, ttc_tol_s, top_k)
    return [
        MetricReport(name=name, value=value, count=count, family="percent")
        for (_, name), value in zip(STA_REPORT_NAMES, maps)
    ]


def box_ap(
    preds: Mapping[str, Sequence[Detection]],
    gts: Mapping[str, Sequence[Detection]],
    iou_thresholds: Sequence[float] = BOX_AP_IOUS,
) -> MetricReport:
    """Detection AP averaged over classes and an IoU threshold grid.

    The default grid is 0.50 to 0.95 in steps of 0.05; the breakdown keeps
    every per-threshold value (AP50 and AP75 are the usual single-threshold
    cuts when present in the grid).
    """
    thresholds = [float(t) for t in iou_thresholds]
    _require(len(thresholds) >= 1, "need at least one IoU threshold")
    _require(all(0 < t <= 1 for t in thresholds), "IoU thresholds must be in (0, 1]")
    gts = _columns(gts, 4)
    aps = _grid_map(_columns(preds, 4), gts, _box_iou_pairs, lambda iou, p, g: [iou >= t for t in thresholds])
    breakdown = {f"AP@{t:.2f}": ap for t, ap in zip(thresholds, aps)}
    value = sum(breakdown.values()) / len(thresholds)
    for cut, label in ((0.50, "AP50"), (0.75, "AP75")):
        key = f"AP@{cut:.2f}"
        if key in breakdown:
            breakdown[label] = breakdown[key]
    count = len(gts.score)
    return MetricReport(name="AP", value=value, breakdown=breakdown, count=count, family="percent")
