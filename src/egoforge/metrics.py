"""Evaluators for the five task tracks.

All metrics return plain fractions (recall, AP, and edit distance live in
[0, 1]; displacements are in pixels). Rendering to percent happens at the
reporting layer, never here. Matching everywhere is greedy in score order:
ties keep input order, each ground-truth item is matched at most once, and
a prediction takes the highest-overlap unmatched item. Average precision
uses all-point interpolation (the running precision envelope).

The AP metrics share one pair-array kernel. Per class, predictions are
ranked once, every same-group (prediction rank, ground-truth index) pair is
listed in flat arrays, and the pairs' IoU is computed in one vectorized call
that repeats the scalar IoU's operations, so it agrees bit for bit. Each
cut of the grid (an IoU threshold, or an anticipation criterion) keeps its
eligible pairs, sorts them by rank, then IoU descending, then ground-truth
index, and one pass takes each rank's first pair whose ground truth is still
unused: the greedy rule above. Edit distance runs one integer DP row at a
time over all candidates of all instances with the same length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .model import (
    ActionLabel,
    BoundingBox,
    Detection,
    HandKeyframes,
    LtaForecast,
    MomentInstance,
    RankedSegment,
    StaInstance,
    TemporalSegment,
    _finite,
    _is_int,
    _require,
)

# Track-conventional threshold grids.
DEFAULT_MAP_TIOUS = (0.1, 0.2, 0.3, 0.4, 0.5)
BOX_AP_IOUS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))

STA_CRITERIA = ("noun", "noun_verb", "noun_ttc", "overall")

ED_MODES = ("verb", "noun", "action")

REPORT_FAMILIES = ("percent", "pixels", "edit")


@dataclass(frozen=True, eq=False)
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricReport):
            return NotImplemented
        return (
            self.name == other.name
            and self.value == other.value
            and dict(self.breakdown) == dict(other.breakdown)
            and self.count == other.count
            and self.family == other.family
        )


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


def _ranked(items: Sequence[Any], score_of: Callable[[Any], float]) -> list[int]:
    # Descending score; equal scores keep input order.
    return sorted(range(len(items)), key=lambda i: (-score_of(items[i]), i))


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
    total = sum(len(v) for v in gts.values())
    if total == 0:
        raise ValueError("recall is undefined with no ground-truth instances")
    hits = 0
    for label, instances in gts.items():
        candidates = list(preds.get(label, ()))
        order = _ranked(candidates, lambda p: p.score)[:k]
        top = [candidates[i] for i in order]
        for inst in instances:
            if any(temporal_iou(p.segment, inst.segment) >= tiou_thresh for p in top):
                hits += 1
    return hits / total


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
    total = sum(len(v) for v in gts.values())
    if total == 0:
        raise ValueError("recall is undefined with no ground-truth instances")
    hits = 0.0
    for label, instances in gts.items():
        if not instances:
            continue
        group = {label: instances}
        budget = kx * len(instances)
        hits += recall_at_k({label: preds.get(label, ())}, group, budget, tiou_thresh) * len(instances)
    return hits / total


def _ap_from_tp(tp: np.ndarray, npos: int) -> float:
    # All-point interpolated AP from per-rank hit flags.
    if npos == 0:
        raise ValueError("AP is undefined with no positives")
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


def _box_row(x: Any) -> tuple[float, ...]:
    b = x.box
    return (b.x1, b.y1, b.x2, b.y2)


def _grid_map(
    preds: Mapping[Hashable, Sequence[Any]],
    gts: Mapping[Hashable, Sequence[Any]],
    class_of: Callable[[Any], int],
    row_of: Callable[[Any], tuple[float, ...]],
    iou_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cuts: Callable[[np.ndarray, np.ndarray, np.ndarray], list[np.ndarray]],
) -> list[float]:
    # Mean AP over the classes present in ground truth, once per cut: cuts
    # maps (pair IoU, pair prediction rows, pair GT rows) to one eligibility
    # mask per cut. Predictions for absent classes are dropped.
    gt_rows: dict[int, dict[Hashable, list[tuple[float, ...]]]] = {}
    for group, items in gts.items():
        for gt in items:
            gt_rows.setdefault(class_of(gt), {}).setdefault(group, []).append(row_of(gt))
    if not gt_rows:
        raise ValueError("AP is undefined with no ground-truth instances")
    pred_rows: dict[int, list[tuple[float, Hashable, tuple[float, ...]]]] = {}
    for group, items in preds.items():
        for pred in items:
            cls = class_of(pred)
            if cls in gt_rows:
                pred_rows.setdefault(cls, []).append((pred.score, group, row_of(pred)))
    totals: list[float] | None = None
    for cls in sorted(gt_rows):
        span: dict[Hashable, tuple[int, int]] = {}
        flat: list[tuple[float, ...]] = []
        for group, rows in gt_rows[cls].items():
            span[group] = (len(flat), len(rows))
            flat.extend(rows)
        g = np.array(flat)
        entries = pred_rows.get(cls, [])
        # Ranks: descending score, input order on ties.
        rank = np.argsort(-np.array([e[0] for e in entries], dtype=float), kind="stable")
        first, count = np.array([span.get(e[1], (0, 0)) for e in entries], dtype=np.intp).reshape(-1, 2)[rank].T
        # Every same-group (rank, GT index) pair, ranks ascending.
        pair_rank = np.repeat(np.arange(len(entries)), count)
        pair_gt = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(pair_rank))
        p = np.array([e[2] for e in entries], dtype=float).reshape(-1, g.shape[1])[rank[pair_rank]]
        g = g[pair_gt]
        iou = iou_of(p, g)
        aps = []
        for eligible in cuts(iou, p, g):
            # Per rank, the highest-IoU unused GT wins; IoU ties go to the lower index.
            sel = np.flatnonzero(eligible)
            sel = sel[np.lexsort((pair_gt[sel], -iou[sel], pair_rank[sel]))]
            used = bytearray(len(flat))
            hits: list[int] = []
            for r, j in zip(pair_rank[sel].tolist(), pair_gt[sel].tolist()):
                if not used[j] and (not hits or hits[-1] != r):
                    used[j] = 1
                    hits.append(r)
            tp = np.zeros(len(entries))
            tp[hits] = 1.0
            aps.append(_ap_from_tp(tp, len(flat)))
        totals = aps if totals is None else [t + ap for t, ap in zip(totals, aps)]
    return [t / len(gt_rows) for t in totals]


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
    for group, items in preds.items():
        for p in items:
            _require(isinstance(p.label, int), f"prediction in group {group!r} has a non-integer class label")
    maps = _grid_map(
        preds,
        gts,
        class_of=lambda x: x.label if isinstance(x, RankedSegment) else x.class_id,
        row_of=lambda x: (x.segment.start_s, x.segment.end_s),
        iou_of=_temporal_iou_pairs,
        cuts=lambda iou, p, g: [iou >= t for t in thresholds],
    )
    breakdown = {f"mAP@{t:.2f}": m for t, m in zip(thresholds, maps)}
    value = sum(breakdown.values()) / len(thresholds)
    count = sum(len(v) for v in gts.values())
    return MetricReport(name="mAP", value=value, breakdown=breakdown, count=count, family="percent")


@dataclass(frozen=True)
class HandDisplacement:
    """Per-instance displacement of one hand, in pixels."""

    mean_px: float | None
    contact_px: float | None


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def hand_displacement(pred: HandKeyframes, gt: HandKeyframes) -> dict[str, HandDisplacement]:
    """Mean and contact-frame distances between predicted and true positions.

    Only keyframes where ground truth marks the hand visible enter the
    average; a hand never visible yields None for both numbers.
    """
    out: dict[str, HandDisplacement] = {}
    for hand in ("left", "right"):
        dists = [
            _distance(pred[tag].coords(hand), gt[tag].coords(hand))
            for tag in gt.points
            if gt[tag].visible(hand)
        ]
        mean_px = sum(dists) / len(dists) if dists else None
        contact_px = (
            _distance(pred["c"].coords(hand), gt["c"].coords(hand))
            if gt["c"].visible(hand)
            else None
        )
        out[hand] = HandDisplacement(mean_px=mean_px, contact_px=contact_px)
    return out


def displacement_report(
    preds: Mapping[str, HandKeyframes],
    gts: Mapping[str, HandKeyframes],
) -> list[MetricReport]:
    """Dataset-level displacement, averaged per instance then over instances.

    Returns up to four reports (left/right, mean/contact); a hand with no
    visible ground truth anywhere is omitted rather than reported as zero.
    """
    if not gts:
        raise ValueError("displacement is undefined with no ground-truth instances")
    missing = [key for key in gts if key not in preds]
    if missing:
        raise DataError(f"predictions missing for instances: {missing[:5]}")
    per_instance = [hand_displacement(preds[key], gts[key]) for key in gts]
    reports: list[MetricReport] = []
    for hand, tag in (("left", "L"), ("right", "R")):
        for attr, kind in (("mean_px", "M"), ("contact_px", "C")):
            vals = [getattr(d[hand], attr) for d in per_instance if getattr(d[hand], attr) is not None]
            if not vals:
                continue
            reports.append(
                MetricReport(
                    name=f"{tag}-{kind}.Disp",
                    value=sum(vals) / len(vals),
                    count=len(vals),
                    family="pixels",
                )
            )
    return reports


def _edit_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Unit-cost edit distance of each row pair of the integer arrays a (M, m)
    # and b (M, n), one DP row per position of a for all M pairs at once.
    # With t[j] = min(prev[j] + 1, prev[j - 1] + cost), the row is
    # cur[j] = min(t[j], cur[j - 1] + 1), so cur[j] - j is a running minimum
    # of t[k] - k.
    j = np.arange(b.shape[1] + 1)
    prev = np.broadcast_to(j, (len(a), len(j)))
    t = np.empty(prev.shape, dtype=np.int64)
    for i in range(a.shape[1]):
        t[:, 0] = i + 1
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (a[:, i : i + 1] != b), out=t[:, 1:])
        prev = np.minimum.accumulate(t - j, axis=1) + j
    return prev[:, -1]


def levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Unit-cost edit distance between two sequences."""
    codes: dict[Hashable, int] = {}
    a_row, b_row = ([codes.setdefault(x, len(codes)) for x in seq] for seq in (a, b))
    return int(_edit_distances(np.array([a_row], dtype=np.int64), np.array([b_row], dtype=np.int64))[0])


def _project(seq: Sequence[ActionLabel], mode: str) -> tuple[Hashable, ...]:
    if mode == "verb":
        return tuple(a.verb_id for a in seq)
    if mode == "noun":
        return tuple(a.noun_id for a in seq)
    return tuple((a.verb_id, a.noun_id) for a in seq)


def edit_distance_at_z(
    forecasts: Mapping[Hashable, LtaForecast],
    gts: Mapping[Hashable, Sequence[ActionLabel]],
    mode: str = "action",
) -> float:
    """Mean over instances of the best candidate's normalized edit distance.

    Each forecast offers up to K candidate sequences; the minimum edit
    distance to the true sequence, divided by its length Z, scores the
    instance. Modes project sequences to verbs, nouns, or full pairs.
    """
    _require(mode in ED_MODES, f"mode must be one of {ED_MODES}")
    if not gts:
        raise ValueError("edit distance is undefined with no ground-truth instances")
    missing = [key for key in gts if key not in forecasts]
    if missing:
        raise DataError(f"forecasts missing for instances: {missing[:5]}")
    extra = [key for key in forecasts if key not in gts]
    if extra:
        raise DataError(f"forecasts for unknown instances: {extra[:5]}")

    # Instances of one Z share one batched DP over integer label codes.
    by_z: dict[int, list[Hashable]] = {}
    for key in gts:
        z = len(gts[key])
        _require(z >= 1, f"instance {key!r} has an empty ground-truth sequence")
        if forecasts[key].z != z:
            raise DataError(f"instance {key!r}: candidate length {forecasts[key].z} != {z}")
        by_z.setdefault(z, []).append(key)
    codes: dict[Hashable, int] = {}
    best: dict[Hashable, int] = {}
    for z, keys in by_z.items():
        cands = [forecasts[key].candidates for key in keys]
        a = [codes.setdefault(x, len(codes)) for cs in cands for c in cs for x in _project(c, mode)]
        b = [[codes.setdefault(x, len(codes)) for x in _project(gts[key], mode)] for key in keys]
        counts = [len(cs) for cs in cands]
        dist = _edit_distances(
            np.array(a, dtype=np.int64).reshape(-1, z), np.repeat(np.array(b, dtype=np.int64), counts, axis=0)
        )
        starts = np.cumsum(counts) - counts
        best.update(zip(keys, np.minimum.reduceat(dist, starts).tolist()))
    values = [best[key] / len(gts[key]) for key in gts]
    return sum(values) / len(values)


def edit_distance_report(
    forecasts: Mapping[Hashable, LtaForecast],
    gts: Mapping[Hashable, Sequence[ActionLabel]],
) -> list[MetricReport]:
    """Verb, noun, and action edit distance over one forecast set."""
    return [
        MetricReport(
            name=mode.capitalize(),
            value=edit_distance_at_z(forecasts, gts, mode),
            count=len(gts),
            family="edit",
        )
        for mode in ED_MODES
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
    kept: dict[str, list[StaInstance]] = {}
    for frame, items in preds.items():
        order = _ranked(list(items), lambda p: p.score)[:top_k]
        kept[frame] = [items[i] for i in order]
    # Verb ids become small dense codes so they compare exactly as floats.
    verb_code: dict[int, int] = {}

    def cuts(iou: np.ndarray, p: np.ndarray, g: np.ndarray) -> list[np.ndarray]:
        noun = iou >= box_iou_thresh
        verb = p[:, 4] == g[:, 4]
        ttc = np.abs(p[:, 5] - g[:, 5]) <= ttc_tol_s
        masks = {"noun": noun, "noun_verb": noun & verb, "noun_ttc": noun & ttc, "overall": noun & verb & ttc}
        return [masks[c] for c in criteria]

    return _grid_map(
        kept,
        gts,
        class_of=lambda x: x.noun_id,
        row_of=lambda x: (*_box_row(x), verb_code.setdefault(x.verb_id, len(verb_code)), x.ttc_s),
        iou_of=_box_iou_pairs,
        cuts=cuts,
    )


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
    aps = _grid_map(
        preds,
        gts,
        class_of=lambda x: x.class_id,
        row_of=_box_row,
        iou_of=_box_iou_pairs,
        cuts=lambda iou, p, g: [iou >= t for t in thresholds],
    )
    breakdown = {f"AP@{t:.2f}": ap for t, ap in zip(thresholds, aps)}
    value = sum(breakdown.values()) / len(thresholds)
    for cut, label in ((0.50, "AP50"), (0.75, "AP75")):
        key = f"AP@{cut:.2f}"
        if key in breakdown:
            breakdown[label] = breakdown[key]
    count = sum(len(v) for v in gts.values())
    return MetricReport(name="AP", value=value, breakdown=breakdown, count=count, family="percent")
