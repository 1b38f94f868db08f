"""Combining predictions: across clips, views, models, and score ranks.

Cheap, deterministic ensembling is the workhorse here: averaging class
probabilities over clips, averaging coordinates over augmented views, and
deduplicating boxes or segments that several models agree on. Averages are
taken in a canonical operand order, so every operation is exactly invariant
to permutations of its inputs.

Suppression takes its IoU from the ``metrics`` pair kernels
(``_box_iou_pairs``, ``_temporal_iou_pairs``), so box and temporal IoU are
defined in one place: each greedy pass computes the IoU of a block of rows
against the whole pool in one vectorized call, under a fixed pair cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    ActionLabel,
    BoundingBox,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    _require,
    _validated,
)
from .metrics import _box_iou_pairs, _temporal_iou_pairs

VOTE_RULES = ("mean_prob", "majority")


@dataclass(frozen=True)
class VoteConfig:
    """How per-clip probabilities are combined into one decision."""

    combine_rule: str = "mean_prob"
    tie_break: str = "lowest_index"
    clip_weighting: str = "uniform"

    def __post_init__(self) -> None:
        _require(self.combine_rule in VOTE_RULES, f"combine_rule must be one of {VOTE_RULES}")
        _require(self.tie_break == "lowest_index", "only lowest_index tie breaking is supported")
        _require(self.clip_weighting == "uniform", "only uniform clip weighting is supported")


@dataclass(frozen=True)
class FusionConfig:
    """Thresholds for result-level fusion across models."""

    box_nms_iou: float = 0.75
    temporal_nms_tiou: float = 0.5
    top_k: int = 5

    def __post_init__(self) -> None:
        _require(0 < self.box_nms_iou <= 1, "box_nms_iou must be in (0, 1]")
        _require(0 < self.temporal_nms_tiou <= 1, "temporal_nms_tiou must be in (0, 1]")
        _require(isinstance(self.top_k, int) and self.top_k >= 1, "top_k must be an int >= 1")


def _canonical_mean(arrays: Sequence[np.ndarray]) -> np.ndarray:
    # Sum in byte-order of the operands: permutation invariance becomes
    # exact instead of up-to-rounding.
    ordered = sorted(arrays, key=lambda a: a.tobytes())
    if ordered[0].tobytes() == ordered[-1].tobytes():
        # All operands identical; skip the sum so the mean of n copies is
        # the copy itself for every n, not only powers of two.
        return np.array(ordered[0], dtype=np.float64)
    total = np.zeros_like(ordered[0], dtype=np.float64)
    for a in ordered:
        total += a
    return total / len(ordered)


def _argmax_row(row: np.ndarray) -> int:
    # First maximum, so equal probabilities resolve to the lowest index.
    return int(np.argmax(row))


def multi_clips_vote(
    clip_probs: Sequence[ScoreMatrix],
    config: VoteConfig = VoteConfig(),
) -> tuple[tuple[ActionLabel, ...], ScoreMatrix]:
    """Combine per-clip probability matrices into one label sequence.

    mean_prob averages the probability rows and takes the per-position
    argmax. majority lets each clip vote with its own argmax and takes the
    plurality, breaking ties by the higher mean probability and then the
    lower class index. The averaged matrix is returned either way, for
    downstream candidate expansion.
    """
    clips = list(clip_probs)
    _require(len(clips) >= 1, "need at least one clip to vote")
    z = clips[0].z
    for m in clips:
        _require(m.verb.shape == clips[0].verb.shape, "verb matrices must share a shape")
        _require(m.noun.shape == clips[0].noun.shape, "noun matrices must share a shape")
    fused = ScoreMatrix(
        verb=_canonical_mean([m.verb for m in clips]),
        noun=_canonical_mean([m.noun for m in clips]),
    )
    labels: list[ActionLabel] = []
    for pos in range(z):
        if config.combine_rule == "mean_prob":
            verb = _argmax_row(fused.verb[pos])
            noun = _argmax_row(fused.noun[pos])
        else:
            verb = _plurality([_argmax_row(m.verb[pos]) for m in clips], fused.verb[pos])
            noun = _plurality([_argmax_row(m.noun[pos]) for m in clips], fused.noun[pos])
        labels.append(ActionLabel(verb_id=verb, noun_id=noun))
    return tuple(labels), fused


def _plurality(votes: Sequence[int], mean_row: np.ndarray) -> int:
    counts = np.bincount(votes, minlength=mean_row.shape[0])
    # Most votes, then highest mean probability, then lowest index.
    best = min(range(mean_row.shape[0]), key=lambda c: (-counts[c], -mean_row[c], c))
    return int(best)


def multi_view_average(view_preds: Sequence[np.ndarray]) -> np.ndarray:
    """Average coordinate vectors predicted from several augmented views."""
    views = [np.asarray(v, dtype=np.float64) for v in view_preds]
    _require(len(views) >= 1, "need at least one view")
    for v in views:
        _require(v.ndim == 1 and v.shape == views[0].shape, "views must be 1-D vectors of one shape")
        _require(bool(np.isfinite(v).all()), "views must be finite")
    return _canonical_mean(views)


# Most IoU pairs one suppression block computes at once, so a large pool
# never holds its whole n x n IoU matrix.
_PAIR_CAP = 1 << 16


def _greedy_suppress(
    rows: np.ndarray,
    scores: Sequence[float],
    thresh: float,
    iou_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> list[int]:
    # Greedy suppression over coordinate rows: the highest score left is
    # kept (ties keep the earlier index) and suppresses every item strictly
    # above the threshold. Rows are taken in score order, in blocks of at
    # most _PAIR_CAP pairs, skipping rows already suppressed when the block
    # starts; each block's IoU against all rows is one vectorized call.
    n = len(rows)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    suppressed = np.zeros(n, dtype=bool)
    kept: list[int] = []
    step = max(1, _PAIR_CAP // max(n, 1))
    for start in range(0, n, step):
        heads = [i for i in order[start : start + step] if not suppressed[i]]
        if not heads:
            continue
        hits = iou_pairs(np.repeat(rows[heads], n, axis=0), np.tile(rows, (len(heads), 1))) > thresh
        for i, hit in zip(heads, hits.reshape(len(heads), n)):
            if not suppressed[i]:
                kept.append(i)
                suppressed |= hit
    return kept


def nms(
    boxes: Sequence[BoundingBox],
    scores: Sequence[float],
    iou_thresh: float,
) -> list[int]:
    """Greedy non-maximum suppression; returns kept indices by falling score.

    The highest score wins each round (ties keep the earlier index) and
    suppresses every remaining box strictly above the IoU threshold.
    """
    _require(len(boxes) == len(scores), "boxes and scores must align")
    _require(0 < iou_thresh <= 1, f"iou_thresh must be in (0, 1], got {iou_thresh}")
    svals = [float(s) for s in scores]
    _require(all(np.isfinite(svals)), "scores must be finite")
    rows = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)
    return _greedy_suppress(rows, svals, iou_thresh, _box_iou_pairs)


def temporal_nms(
    segments: Sequence[RankedSegment],
    tiou_thresh: float,
) -> list[int]:
    """Greedy suppression over scored segments by temporal IoU."""
    _require(0 < tiou_thresh <= 1, f"tiou_thresh must be in (0, 1], got {tiou_thresh}")
    rows = np.array([(s.segment.start_s, s.segment.end_s) for s in segments], dtype=np.float64).reshape(-1, 2)
    return _greedy_suppress(rows, [s.score for s in segments], tiou_thresh, _temporal_iou_pairs)


def topk_by_noun_score(instances: Sequence[StaInstance], k: int) -> list[StaInstance]:
    """Keep the k best-scored anticipation boxes of one keyframe."""
    _require(isinstance(k, int) and k >= 1, "k must be an int >= 1")
    order = sorted(range(len(instances)), key=lambda i: (-instances[i].score, i))
    return [instances[i] for i in order[:k]]


def splice_and_nms(
    model_results: Sequence[Sequence[StaInstance]],
    iou_thresh: float = 0.75,
) -> list[StaInstance]:
    """Merge per-model box lists for one keyframe and deduplicate.

    Suppression is label-agnostic: two models predicting the same region
    with different nouns still collapse to the higher-scored box. Ties go to
    the earlier model. The threshold is deliberately higher than a plain
    detector's, so only near-identical boxes merge.
    """
    pool: list[StaInstance] = [inst for result in model_results for inst in result]
    kept = nms([p.box for p in pool], [p.score for p in pool], iou_thresh)
    return [pool[i] for i in kept]


def post_fuse_segments(
    ranked_lists: Sequence[Sequence[RankedSegment]],
    tiou_thresh: float = 0.5,
) -> list[RankedSegment]:
    """Merge ranked segment lists from several models for one label group.

    Lists are spliced in order (earlier lists win score ties) and greedily
    deduplicated by temporal IoU; survivors come back highest score first.
    """
    pool: list[RankedSegment] = [seg for ranked in ranked_lists for seg in ranked]
    kept = temporal_nms(pool, tiou_thresh)
    return [pool[i] for i in kept]


def box_positional_encoding(
    box: BoundingBox,
    image_w: float,
    image_h: float,
    dim: int,
) -> np.ndarray:
    """Sinusoidal code of a box's normalized corner coordinates.

    Each of the four coordinates is normalized by the image size and
    expanded into dim/8 (sin, cos) pairs at geometrically spaced
    frequencies, laid out coordinate-major. The code lives in [-1, 1] and
    is added to region features, so its width must match theirs.
    """
    _require(image_w > 0 and image_h > 0, "image size must be positive")
    _require(isinstance(dim, int) and dim >= 8 and dim % 8 == 0, "dim must be a positive multiple of 8")
    coords = np.array(
        [box.x1 / image_w, box.y1 / image_h, box.x2 / image_w, box.y2 / image_h]
    )
    pairs = dim // 8
    # Frequency ladder matching the usual transformer position code: pair j
    # divides by 10000^(2j / (dim/4)).
    scales = np.power(10000.0, 2.0 * np.arange(pairs) / (dim // 4))
    out = np.empty(dim, dtype=np.float64)
    for c, value in enumerate(coords):
        angles = value / scales
        block = out[c * 2 * pairs : (c + 1) * 2 * pairs]
        block[0::2] = np.sin(angles)
        block[1::2] = np.cos(angles)
    return out


def top_k_sequences(matrix: ScoreMatrix, k: int) -> tuple[tuple[ActionLabel, ...], ...]:
    """Most probable label sequences under a per-position probability matrix.

    Positions are treated as independent and verb/noun as a product, so a
    sequence's probability is the product of its per-position verb and noun
    probabilities. Sequences come back in falling probability; ties resolve
    to lower class indices earlier. The first sequence is always the
    per-position argmax.
    """
    _require(isinstance(k, int) and k >= 1, "k must be an int >= 1")
    z = matrix.z
    c_n = matrix.noun.shape[1]
    with np.errstate(divide="ignore"):
        log_v = np.log(matrix.verb)
        log_n = np.log(matrix.noun)
    # Rank table: each position's (verb, noun) pairs by falling joint
    # log-probability, equal values in flat-index order. A sequence with
    # rank r anywhere has r strictly earlier sequences (the same with a
    # lower rank there), so the first k sequences only use ranks below k.
    joint = (log_v[:, :, None] + log_n[:, None, :]).reshape(z, -1)
    order = np.argsort(-joint, axis=1, kind="stable")[:, :k]
    logp = np.take_along_axis(joint, order, axis=1).tolist()
    labels = [
        [_validated(ActionLabel, verb_id=v, noun_id=n) for v, n in zip(verbs, nouns)]
        for verbs, nouns in zip((order // c_n).tolist(), (order % c_n).tolist())
    ]
    width = order.shape[1]

    def running(ranks: tuple[int, ...], sums: list[float], pos: int) -> list[float]:
        # A candidate's running totals, summed left to right over positions;
        # those before pos are its parent's.
        acc = sums[pos - 1] if pos else 0.0
        out = sums[:pos]
        for row, r in zip(logp[pos:], ranks[pos:]):
            acc += row[r]
            out.append(acc)
        return out

    start = (0,) * z
    sums = running(start, [], 0)
    heap = [(-sums[-1], start, sums)]
    seen = {start}
    out: list[tuple[ActionLabel, ...]] = []
    while heap and len(out) < k:
        _, ranks, sums = heapq.heappop(heap)
        out.append(tuple(labels[pos][r] for pos, r in enumerate(ranks)))
        for pos in range(z):
            if ranks[pos] + 1 < width:
                nxt = ranks[:pos] + (ranks[pos] + 1,) + ranks[pos + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    child = running(nxt, sums, pos)
                    heapq.heappush(heap, (-child[-1], nxt, child))
    return tuple(out)
