"""Combining predictions: across clips, views, models, and score ranks.

Cheap, deterministic ensembling is the workhorse here: averaging class
probabilities over clips, averaging coordinates over augmented views, and
deduplicating boxes or segments that several models agree on. Averages are
taken in a canonical operand order, so every operation is exactly invariant
to permutations of its inputs.

Suppression takes its IoU from the ``metrics`` pair kernels
(``_box_iou_pairs``, ``_temporal_iou_pairs``), so box and temporal IoU are
defined in one place: each step of the greedy pass takes the next-ranked
row of every pool, and computes the IoU of those still alive against their
pools' later rows in one vectorized call.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import add
from typing import Callable, Hashable, Sequence

import numpy as np

from .model import (
    ActionLabel,
    BoundingBox,
    Columns,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    _grouped_columns,
    _int_text,
    _require,
    _sums_to_one,
    _validated,
)
from .metrics import _box_iou_pairs, _pairs, _temporal_iou_pairs

VOTE_RULES = ("mean_prob", "majority")
MAX_TOP_K = 1000  # the best-first search takes time linear in k


@dataclass(frozen=True)
class VoteConfig:
    """How per-clip probabilities are combined into one decision."""

    combine_rule: str = "mean_prob"

    def __post_init__(self) -> None:
        _require(self.combine_rule in VOTE_RULES, f"combine_rule must be one of {VOTE_RULES}")


@dataclass(frozen=True)
class FusionConfig:
    """Thresholds for result-level fusion across models."""

    box_nms_iou: float = 0.75
    temporal_nms_tiou: float = 0.5
    top_k: int = 5

    def __post_init__(self) -> None:
        _require(0 < self.box_nms_iou <= 1, f"box_nms_iou must be in (0, 1], got {self.box_nms_iou!r}")
        _require(0 < self.temporal_nms_tiou <= 1, f"temporal_nms_tiou must be in (0, 1], got {self.temporal_nms_tiou!r}")
        if not (isinstance(self.top_k, int) and self.top_k >= 1):  # repr only on failure: a huge int has none
            raise ValueError(f"top_k must be an int >= 1, got {self.top_k!r}")
        _require(self.top_k <= MAX_TOP_K, f"top_k must be at most {MAX_TOP_K}, got {_int_text(self.top_k)}")


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


def _mean_matrix(verbs: Sequence[np.ndarray], nouns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The canonical means of per-clip matrices of one shape, read-only."""
    means = _canonical_mean(verbs), _canonical_mean(nouns)
    for name, mean in zip(("verb", "noun"), means):
        # Rounding can take a mean row past the tolerance; the lta-pred/1
        # walk's row rule checks it here, so the file written loads.
        _require(all(map(_sums_to_one, mean.tolist())), f"{name} rows must sum to 1 within 1e-6")
        mean.setflags(write=False)
    return means


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
    verb, noun = _mean_matrix([m.verb for m in clips], [m.noun for m in clips])
    # Means of valid matrices of one shape, with rows that sum to 1.
    fused = _validated(ScoreMatrix, verb=verb, noun=noun)
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


def _greedy_suppress(
    rows: np.ndarray,
    scores: np.ndarray,
    starts: np.ndarray,
    thresh: float,
    iou_pairs: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """The rows greedy suppression keeps in each pool ``starts[g]`` to
    ``starts[g + 1]`` of coordinate rows, pool by pool, each pool's by
    falling score.

    In each pool the highest score left is kept (ties keep the earlier row)
    and suppresses every row of its pool strictly above the threshold. Rows
    are ranked in (pool, falling score, row) order, and step r takes the
    r-th row of every pool at once: each one still alive is kept, and one
    vectorized IoU call against its pool's later rows suppresses theirs.
    """
    sizes = np.diff(starts)
    order = np.lexsort((-scores, np.repeat(np.arange(len(sizes)), sizes)))
    ranked = rows[order]
    # Pools largest first, so the reach[r] pools with an r-th row are a prefix.
    pools = np.argsort(-sizes, kind="stable")
    first, size = starts[pools], sizes[pools]
    reach = np.searchsorted(-size, -np.arange(size.max(initial=0)), side="left")
    alive = np.ones(len(rows), dtype=bool)
    for r, k in enumerate(reach.tolist()):
        live = alive[first[:k] + r]
        head, count = first[:k][live] + r, size[:k][live] - r - 1
        i, later = _pairs(head + 1, count)
        alive[later[iou_pairs(ranked[head[i]], ranked[later]) > thresh]] = False
    return order[np.flatnonzero(alive)]


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
    svals = np.array([float(s) for s in scores], dtype=np.float64)
    _require(bool(np.isfinite(svals).all()), "scores must be finite")
    rows = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)
    return _greedy_suppress(rows, svals, np.array([0, len(rows)]), iou_thresh, _box_iou_pairs).tolist()


def temporal_nms(
    segments: Sequence[RankedSegment],
    tiou_thresh: float,
) -> list[int]:
    """Greedy suppression over scored segments by temporal IoU."""
    _require(0 < tiou_thresh <= 1, f"tiou_thresh must be in (0, 1], got {tiou_thresh}")
    rows = np.array([(s.segment.start_s, s.segment.end_s) for s in segments], dtype=np.float64).reshape(-1, 2)
    scores = np.array([s.score for s in segments], dtype=np.float64)
    return _greedy_suppress(rows, scores, np.array([0, len(rows)]), tiou_thresh, _temporal_iou_pairs).tolist()


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


def fuse_columns(files: Sequence[Columns], groups: Sequence[Hashable], thresh: float) -> Columns:
    """``splice_and_nms`` (boxes) or ``post_fuse_segments`` (segments) for
    every group at once, on the columns of several prediction files.

    Each group's pool holds its rows of every file, in file order. The
    result holds the kept rows with all their fields, grouped as in
    ``groups`` (which must name every group of every file), each group's
    by falling score.
    """
    _require(0 < thresh <= 1, f"threshold must be in (0, 1], got {thresh}")
    number = {key: g for g, key in enumerate(groups)}
    code = np.concatenate([np.array([number[key] for key in f.groups], dtype=np.intp)[f.code] for f in files])
    order = np.argsort(code, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(code, minlength=len(number)))))

    def column(name: str, rows: np.ndarray) -> np.ndarray | None:
        parts = [getattr(f, name) for f in files]
        return None if parts[0] is None else np.concatenate(parts)[rows]

    coords, score = column("coords", order), column("score", order)
    iou_pairs = _box_iou_pairs if coords.shape[1] == 4 else _temporal_iou_pairs
    # Kept rows come pool by pool, so regrouping them keeps their order.
    kept = order[_greedy_suppress(coords, score, starts, thresh, iou_pairs)]
    keys = [groups[g] for g in code[kept].tolist()]
    return _grouped_columns(number, keys, *(column(name, kept) for name in ("coords", "score", "label", "verb", "ttc")))


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


def mean_forecast(
    clips: Sequence[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[list[list[tuple[int, int]]], np.ndarray, np.ndarray]:
    """The fused matrix of ``multi_clips_vote`` and its ``k`` best sequences
    (``top_k_sequences``) for one episode's per-clip (verb, noun)
    probability matrices, which must share their shapes; the sequences as
    (verb id, noun id) pairs."""
    verbs, nouns = zip(*clips)
    verb, noun = _mean_matrix(verbs, nouns)
    return _top_k_pairs(verb, noun, k), verb, noun


def top_k_sequences(matrix: ScoreMatrix, k: int) -> tuple[tuple[ActionLabel, ...], ...]:
    """Most probable label sequences under a per-position probability matrix.

    Positions are treated as independent and verb/noun as a product, so a
    sequence's probability is the product of its per-position verb and noun
    probabilities. Sequences come back in falling probability; ties resolve
    to lower class indices earlier. The first sequence is always the
    per-position argmax. The search is best-first over a tree of rank
    vectors (``_top_k_pairs``) and costs O(k·z²) additions.
    """
    _require(isinstance(k, int) and 1 <= k <= MAX_TOP_K, f"k must be an int in [1, {MAX_TOP_K}]")
    pairs = _top_k_pairs(matrix.verb, matrix.noun, k)
    return tuple(tuple(_validated(ActionLabel, verb_id=v, noun_id=n) for v, n in seq) for seq in pairs)


def _top_k_pairs(verb: np.ndarray, noun: np.ndarray, k: int) -> list[list[tuple[int, int]]]:
    """``top_k_sequences`` of the matrix (verb, noun), each sequence as its
    (verb id, noun id) pairs.

    A best-first search over a tree of rank vectors: a vector's parent
    lowers its last nonzero rank by one, so a popped vector pushes only the
    children that raise one position at or after its own last raised one,
    and no vector is pushed twice. A child holds rank 0 after the position
    it raises, so its running totals are its parent's up to there, one new
    term, then the rank-0 column, summed left to right. A lower rank never
    has a lower log-probability and float addition is monotone, so a
    child's key (-total, ranks) is above its parent's and vectors pop in
    key order. k pops push at most z children each, built in at most z
    additions: O(k·z²) additions.
    """
    z = verb.shape[0]
    c_n = noun.shape[1]
    with np.errstate(divide="ignore"):
        log_v = np.log(verb)
        log_n = np.log(noun)
    # Rank table: each position's (verb, noun) pairs by falling joint
    # log-probability, equal values in flat-index order. A sequence with
    # rank r anywhere has r strictly earlier sequences (the same with a
    # lower rank there), so the first k sequences only use ranks below k.
    joint = (log_v[:, :, None] + log_n[:, None, :]).reshape(z, -1)
    order = np.argsort(-joint, axis=1, kind="stable")[:, :k]
    logp = np.take_along_axis(joint, order, axis=1).tolist()
    pairs = [list(zip(verbs, nouns)) for verbs, nouns in zip((order // c_n).tolist(), (order % c_n).tolist())]
    width = order.shape[1]
    first = [row[0] for row in logp]
    # A heap entry: (-total, ranks, last raised position p, the running
    # total before p); its running totals from p on are built when popped.
    heap = [(-reduce(add, first, 0.0), (0,) * z, 0, 0.0)]
    out: list[list[tuple[int, int]]] = []
    while heap:
        _, ranks, last, before = heapq.heappop(heap)
        out.append([row[r] for row, r in zip(pairs, ranks)])
        if len(out) == k:
            break
        # The popped vector's running total before each position from p on.
        tail = accumulate(first[last + 1 :], initial=before + logp[last][ranks[last]])
        for pos, acc in zip(range(last, z), chain((before,), tail)):
            r = ranks[pos] + 1
            if r < width:
                child = (*ranks[:pos], r, *ranks[pos + 1 :])
                heapq.heappush(heap, (-reduce(add, first[pos + 1 :], acc + logp[pos][r]), child, pos, acc))
    return out
