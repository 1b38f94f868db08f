"""Domain types for egocentric video tasks, plus raw annotation validation.

Every type validates its invariants at construction time and is immutable
afterwards, so downstream code never re-checks shapes or ranges.
``validate_dataset`` is the complementary entry point for *parsed but
untyped* annotation trees: it reports violations as strings instead of
raising, which lets loaders surface every problem in a file at once.

The loaders in ``fileio`` check each file once, with ``validate_dataset``,
and then build the per-record objects with ``_validated``, which does not
re-run the constructor checks. ``validate_dataset`` must therefore cover
every constructor invariant of the types the loaders build that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, TypeVar

import numpy as np

# Keyframe tags, in canonical order: contact, pre-contact, and the three
# half-second steps before pre-contact.
KEYFRAME_TAGS = ("c", "p", "p1", "p2", "p3")

HANDS = ("left", "right")

FEATURE_PROVENANCES = ("verb", "noun", "fused", "stub")

_T = TypeVar("_T")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _validated(cls: type[_T], **fields: Any) -> _T:
    """Build ``cls`` from values ``validate_dataset`` has already accepted.

    Skips ``__post_init__``, so the caller passes every field in the form
    the constructor would store: ``float`` for real-valued fields, tuples
    of floats for points, keyframes in ``KEYFRAME_TAGS`` order.
    """
    obj = object.__new__(cls)
    # Set attributes one by one, as the dataclass __init__ does: touching
    # obj.__dict__ would give every record its own dict, 2.5x the memory.
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class VideoMeta:
    """Identity and timing of one source video."""

    video_id: str
    num_frames: int
    fps: float

    def __post_init__(self) -> None:
        _require(isinstance(self.video_id, str) and self.video_id != "", "video_id must be a non-empty string")
        _require(isinstance(self.num_frames, int) and not isinstance(self.num_frames, bool), "num_frames must be an int")
        _require(self.num_frames >= 0, f"num_frames must be >= 0, got {self.num_frames}")
        _require(_finite(self.fps) and self.fps > 0, f"fps must be a positive finite real, got {self.fps!r}")
        object.__setattr__(self, "fps", float(self.fps))

    @property
    def duration_s(self) -> float:
        return self.num_frames / self.fps


@dataclass(frozen=True)
class TemporalSegment:
    """A closed time interval [start_s, end_s] in seconds."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _require(_finite(self.start_s) and _finite(self.end_s), "segment bounds must be finite reals")
        _require(self.start_s >= 0, f"segment start must be >= 0, got {self.start_s}")
        _require(self.start_s <= self.end_s, f"segment reversed ({self.start_s} > {self.end_s})")
        object.__setattr__(self, "start_s", float(self.start_s))
        object.__setattr__(self, "end_s", float(self.end_s))

    @property
    def length_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class MomentInstance:
    """Ground-truth action moment: a segment with a category."""

    segment: TemporalSegment
    class_id: int

    def __post_init__(self) -> None:
        _require(isinstance(self.segment, TemporalSegment), "segment must be a TemporalSegment")
        _require(isinstance(self.class_id, int) and not isinstance(self.class_id, bool), "class_id must be an int")
        _require(self.class_id >= 0, f"class_id must be >= 0, got {self.class_id}")


@dataclass(frozen=True)
class NlqInstance:
    """Ground-truth answer segment for one natural-language query."""

    segment: TemporalSegment
    query_id: str

    def __post_init__(self) -> None:
        _require(isinstance(self.segment, TemporalSegment), "segment must be a TemporalSegment")
        _require(isinstance(self.query_id, str) and self.query_id != "", "query_id must be a non-empty string")


@dataclass(frozen=True)
class RankedSegment:
    """A scored candidate segment carrying its class or query label."""

    segment: TemporalSegment
    score: float
    label: int | str

    def __post_init__(self) -> None:
        _require(isinstance(self.segment, TemporalSegment), "segment must be a TemporalSegment")
        _require(_finite(self.score), f"score must be a finite real, got {self.score!r}")
        ok_label = (isinstance(self.label, int) and not isinstance(self.label, bool)) or isinstance(self.label, str)
        _require(ok_label, "label must be an int class id or a string query id")
        object.__setattr__(self, "score", float(self.score))


@dataclass(frozen=True)
class ActionLabel:
    """A (verb, noun) pair identifying one action step."""

    verb_id: int
    noun_id: int

    def __post_init__(self) -> None:
        for name, value in (("verb_id", self.verb_id), ("noun_id", self.noun_id)):
            _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an int")
            _require(value >= 0, f"{name} must be >= 0, got {value}")


def _as_prob_rows(name: str, arr: Any) -> np.ndarray:
    rows = np.asarray(arr, dtype=np.float64)
    _require(rows.ndim == 2 and rows.shape[0] >= 1 and rows.shape[1] >= 1, f"{name} must be a 2-D matrix")
    _require(bool(np.isfinite(rows).all()), f"{name} must be finite")
    _require(bool((rows >= 0).all()), f"{name} must be non-negative")
    sums = rows.sum(axis=1)
    _require(bool(np.abs(sums - 1.0).max() <= 1e-6), f"{name} rows must sum to 1 within 1e-6")
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Per-position class probabilities: verb is (Z, C_v), noun is (Z, C_n)."""

    verb: np.ndarray
    noun: np.ndarray

    def __post_init__(self) -> None:
        verb = _as_prob_rows("verb", self.verb)
        noun = _as_prob_rows("noun", self.noun)
        _require(verb.shape[0] == noun.shape[0], "verb and noun must cover the same number of positions")
        object.__setattr__(self, "verb", verb)
        object.__setattr__(self, "noun", noun)

    @property
    def z(self) -> int:
        return self.verb.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreMatrix):
            return NotImplemented
        return np.array_equal(self.verb, other.verb) and np.array_equal(self.noun, other.noun)


@dataclass(frozen=True, eq=False)
class LtaForecast:
    """Candidate future action sequences predicted after one clip."""

    clip_index: int
    candidates: tuple[tuple[ActionLabel, ...], ...]
    score_matrix: ScoreMatrix | None = None

    def __post_init__(self) -> None:
        _require(isinstance(self.clip_index, int) and not isinstance(self.clip_index, bool), "clip_index must be an int")
        _require(self.clip_index >= 0, f"clip_index must be >= 0, got {self.clip_index}")
        cands = tuple(tuple(seq) for seq in self.candidates)
        _require(len(cands) >= 1, "at least one candidate sequence is required")
        z = len(cands[0])
        _require(z >= 1, "candidate sequences must be non-empty")
        for seq in cands:
            _require(len(seq) == z, f"candidate length {len(seq)} != {z}")
            _require(all(isinstance(a, ActionLabel) for a in seq), "candidates must contain ActionLabel entries")
        if self.score_matrix is not None:
            _require(isinstance(self.score_matrix, ScoreMatrix), "score_matrix must be a ScoreMatrix")
            _require(self.score_matrix.z == z, f"score_matrix has {self.score_matrix.z} positions, candidates have {z}")
        object.__setattr__(self, "candidates", cands)

    @property
    def z(self) -> int:
        return len(self.candidates[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LtaForecast):
            return NotImplemented
        return (
            self.clip_index == other.clip_index
            and self.candidates == other.candidates
            and self.score_matrix == other.score_matrix
        )


def _as_point(name: str, value: Any) -> tuple[float, float]:
    _require(
        isinstance(value, (tuple, list)) and len(value) == 2 and all(_finite(v) for v in value),
        f"{name} must be a finite (x, y) pair",
    )
    return (float(value[0]), float(value[1]))


@dataclass(frozen=True)
class HandPoint:
    """Left and right hand coordinates at one keyframe, with visibility."""

    left: tuple[float, float]
    right: tuple[float, float]
    left_visible: bool = True
    right_visible: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", _as_point("left", self.left))
        object.__setattr__(self, "right", _as_point("right", self.right))
        _require(isinstance(self.left_visible, bool) and isinstance(self.right_visible, bool), "visibility flags must be bools")

    def coords(self, hand: str) -> tuple[float, float]:
        _require(hand in HANDS, f"unknown hand {hand!r}")
        return self.left if hand == "left" else self.right

    def visible(self, hand: str) -> bool:
        _require(hand in HANDS, f"unknown hand {hand!r}")
        return self.left_visible if hand == "left" else self.right_visible


@dataclass(frozen=True, eq=False)
class HandKeyframes:
    """Hand positions at the five keyframes c, p, p1, p2, p3."""

    points: Mapping[str, HandPoint]

    def __post_init__(self) -> None:
        _require(isinstance(self.points, Mapping), "points must be a mapping")
        _require(set(self.points) == set(KEYFRAME_TAGS), f"keyframe tags must be exactly {set(KEYFRAME_TAGS)}")
        _require(all(isinstance(p, HandPoint) for p in self.points.values()), "points must map tags to HandPoint")
        ordered = {tag: self.points[tag] for tag in KEYFRAME_TAGS}
        object.__setattr__(self, "points", ordered)

    def __getitem__(self, tag: str) -> HandPoint:
        return self.points[tag]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HandKeyframes):
            return NotImplemented
        return self.points == other.points


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned box (x1, y1, x2, y2) with x1 <= x2 and y1 <= y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        vals = (self.x1, self.y1, self.x2, self.y2)
        _require(all(_finite(v) for v in vals), "box coordinates must be finite reals")
        _require(self.x1 <= self.x2, f"box reversed in x ({self.x1} > {self.x2})")
        _require(self.y1 <= self.y2, f"box reversed in y ({self.y1} > {self.y2})")
        for name, v in zip(("x1", "y1", "x2", "y2"), vals):
            object.__setattr__(self, name, float(v))

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class StaInstance:
    """A short-term anticipation record: box, noun, verb, and time to contact."""

    box: BoundingBox
    noun_id: int
    verb_id: int
    ttc_s: float
    score: float = 1.0

    def __post_init__(self) -> None:
        _require(isinstance(self.box, BoundingBox), "box must be a BoundingBox")
        for name, value in (("noun_id", self.noun_id), ("verb_id", self.verb_id)):
            _require(isinstance(value, int) and not isinstance(value, bool) and value >= 0, f"{name} must be an int >= 0")
        _require(_finite(self.ttc_s) and self.ttc_s > 0, f"ttc_s must be a positive finite real, got {self.ttc_s!r}")
        _require(_finite(self.score), f"score must be a finite real, got {self.score!r}")
        object.__setattr__(self, "ttc_s", float(self.ttc_s))
        object.__setattr__(self, "score", float(self.score))


@dataclass(frozen=True)
class Detection:
    """A scored class-labelled box for plain object detection."""

    box: BoundingBox
    class_id: int
    score: float = 1.0

    def __post_init__(self) -> None:
        _require(isinstance(self.box, BoundingBox), "box must be a BoundingBox")
        _require(isinstance(self.class_id, int) and not isinstance(self.class_id, bool) and self.class_id >= 0, "class_id must be an int >= 0")
        _require(_finite(self.score), f"score must be a finite real, got {self.score!r}")
        object.__setattr__(self, "score", float(self.score))


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """A stack of fixed-width float32 feature rows with provenance."""

    dim: int
    rows: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        _require(isinstance(self.dim, int) and not isinstance(self.dim, bool) and self.dim >= 1, "dim must be an int >= 1")
        _require(self.provenance in FEATURE_PROVENANCES, f"provenance must be one of {FEATURE_PROVENANCES}")
        rows = np.asarray(self.rows, dtype=np.float32)
        if rows.ndim == 1 and rows.size == 0:
            rows = rows.reshape(0, self.dim)
        _require(rows.ndim == 2, "rows must be a 2-D array")
        _require(rows.shape[1] == self.dim, f"rows have width {rows.shape[1]}, expected {self.dim}")
        _require(bool(np.isfinite(rows).all()), "feature rows must be finite")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def num_rows(self) -> int:
        return int(self.rows.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.provenance == other.provenance
            and np.array_equal(self.rows, other.rows)
        )


# ---------------------------------------------------------------------------
# Raw annotation validation.
#
# Loaders parse JSON first and call validate_dataset on the untyped tree, so
# a malformed file reports every violation instead of failing at the first
# constructor. The checks below cover the constructor invariants, which the
# loaders do not check again, plus the cross-field rules (vocabulary ranges,
# duplicate keys) that single values cannot see.
# ---------------------------------------------------------------------------

GT_SCHEMAS = ("mq/1", "nlq/1", "fhp/1", "lta/1", "sta/1", "scod/1")
PRED_SCHEMAS = ("mq-pred/1", "nlq-pred/1", "fhp-pred/1", "lta-pred/1", "sta-pred/1", "scod-pred/1")

# Allowed top-level and per-record keys, used both for strict validation and
# for unknown-key warnings at load time.
_TOP_KEYS: dict[str, set[str]] = {
    "mq/1": {"schema", "num_classes", "videos", "instances"},
    "mq-pred/1": {"schema", "instances"},
    "nlq/1": {"schema", "videos", "instances"},
    "nlq-pred/1": {"schema", "instances"},
    "fhp/1": {"schema", "resolution", "instances"},
    "fhp-pred/1": {"schema", "instances"},
    "lta/1": {"schema", "config", "instances"},
    "lta-pred/1": {"schema", "config", "instances"},
    "sta/1": {"schema", "images", "instances"},
    "sta-pred/1": {"schema", "images", "instances"},
    "scod/1": {"schema", "images", "instances"},
    "scod-pred/1": {"schema", "images", "instances"},
}

_INSTANCE_KEYS: dict[str, set[str]] = {
    "mq/1": {"video_id", "start_s", "end_s", "class_id"},
    "mq-pred/1": {"video_id", "start_s", "end_s", "class_id", "score"},
    "nlq/1": {"video_id", "start_s", "end_s", "query_id"},
    "nlq-pred/1": {"query_id", "start_s", "end_s", "score"},
    "fhp/1": {"video_id", "keyframes"},
    "fhp-pred/1": {"video_id", "keyframes"},
    "lta/1": {"video_id", "clip_index", "sequence"},
    "lta-pred/1": {"video_id", "clip_index", "clip", "candidates", "score_matrix"},
    "sta/1": {"keyframe_id", "box", "noun", "verb", "ttc_s"},
    "sta-pred/1": {"keyframe_id", "box", "noun", "verb", "ttc_s", "score"},
    "scod/1": {"keyframe_id", "box", "noun"},
    "scod-pred/1": {"keyframe_id", "box", "noun", "score"},
}


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_segment(rec: Mapping[str, Any], where: str, out: list[str]) -> None:
    start, end = rec.get("start_s"), rec.get("end_s")
    for name, v in (("start_s", start), ("end_s", end)):
        if v is None:
            out.append(f"{where}: missing key '{name}'")
        elif not _is_real(v):
            out.append(f"{where}: {name} must be a finite real")
    if _is_real(start) and _is_real(end):
        if start < 0:
            out.append(f"{where}: segment start is negative")
        if start > end:
            out.append(f"{where}: segment reversed")


def _check_videos(raw: Mapping[str, Any], out: list[str]) -> set[str]:
    ids: set[str] = set()
    videos = raw.get("videos")
    if not isinstance(videos, list):
        out.append("videos: missing or not a list")
        return ids
    for i, v in enumerate(videos):
        where = f"videos[{i}]"
        if not isinstance(v, Mapping):
            out.append(f"{where}: not an object")
            continue
        vid = v.get("video_id")
        if not isinstance(vid, str) or vid == "":
            out.append(f"{where}: video_id must be a non-empty string")
        elif vid in ids:
            out.append(f"{where}: duplicate video_id '{vid}'")
        else:
            ids.add(vid)
        nf = v.get("num_frames")
        if not _is_int(nf) or nf < 0:
            out.append(f"{where}: num_frames must be an int >= 0")
        fps = v.get("fps")
        if not _is_real(fps) or fps <= 0:
            out.append(f"{where}: fps must be a positive finite real")
    return ids


def _instances(raw: Mapping[str, Any], out: list[str]) -> list[Any]:
    inst = raw.get("instances")
    if not isinstance(inst, list):
        out.append("instances: missing or not a list")
        return []
    return inst


def _check_video_ref(rec: Mapping[str, Any], where: str, known: set[str] | None, out: list[str]) -> None:
    vid = rec.get("video_id")
    if not isinstance(vid, str) or vid == "":
        out.append(f"{where}: video_id must be a non-empty string")
    elif known is not None and vid not in known:
        out.append(f"{where}: unknown video_id '{vid}'")


def _validate_mq(raw: Mapping[str, Any], pred: bool) -> list[str]:
    out: list[str] = []
    known: set[str] | None = None
    num_classes = None
    if not pred:
        known = _check_videos(raw, out)
        num_classes = raw.get("num_classes")
        if not _is_int(num_classes) or num_classes < 1:
            out.append("num_classes: must be an int >= 1")
            num_classes = None
    for i, rec in enumerate(_instances(raw, out)):
        where = f"instances[{i}]"
        if not isinstance(rec, Mapping):
            out.append(f"{where}: not an object")
            continue
        _check_video_ref(rec, where, known, out)
        _check_segment(rec, where, out)
        cid = rec.get("class_id")
        if not _is_int(cid) or cid < 0:
            out.append(f"{where}: class_id must be an int >= 0")
        elif num_classes is not None and cid >= num_classes:
            out.append(f"{where}: class_id {cid} out of range [0, {num_classes})")
        if pred and not _is_real(rec.get("score")):
            out.append(f"{where}: score must be a finite real")
    return out


def _validate_nlq(raw: Mapping[str, Any], pred: bool) -> list[str]:
    out: list[str] = []
    known: set[str] | None = None
    if not pred:
        known = _check_videos(raw, out)
    seen_queries: set[str] = set()
    for i, rec in enumerate(_instances(raw, out)):
        where = f"instances[{i}]"
        if not isinstance(rec, Mapping):
            out.append(f"{where}: not an object")
            continue
        if not pred:
            _check_video_ref(rec, where, known, out)
        _check_segment(rec, where, out)
        qid = rec.get("query_id")
        if not isinstance(qid, str) or qid == "":
            out.append(f"{where}: query_id must be a non-empty string")
        elif not pred:
            if qid in seen_queries:
                out.append(f"{where}: duplicate query_id '{qid}'")
            seen_queries.add(qid)
        if pred and not _is_real(rec.get("score")):
            out.append(f"{where}: score must be a finite real")
    return out


def _check_keyframes(kf: Any, where: str, out: list[str]) -> None:
    if not isinstance(kf, Mapping):
        out.append(f"{where}: keyframes must be an object")
        return
    if set(kf) != set(KEYFRAME_TAGS):
        out.append(f"{where}: keyframe tags must be exactly {sorted(KEYFRAME_TAGS)}")
        return
    for tag in KEYFRAME_TAGS:
        point = kf[tag]
        pwhere = f"{where}.keyframes[{tag}]"
        if not isinstance(point, Mapping):
            out.append(f"{pwhere}: not an object")
            continue
        for hand in HANDS:
            xy = point.get(hand)
            if not (isinstance(xy, list) and len(xy) == 2 and all(_is_real(v) for v in xy)):
                out.append(f"{pwhere}: {hand} must be a finite [x, y] pair")
        if "visible" in point:
            visible = point["visible"]
            ok = isinstance(visible, Mapping) and set(visible) <= set(HANDS) and all(
                isinstance(v, bool) for v in visible.values()
            )
            if not ok:
                out.append(f"{pwhere}: visible must map hands to bools")


def _check_resolution(res: Any, out: list[str]) -> None:
    if not (isinstance(res, list) and len(res) == 2 and all(_is_int(v) and v > 0 for v in res)):
        out.append("resolution: must be a [width, height] pair of ints >= 1")


def _validate_fhp(raw: Mapping[str, Any], pred: bool) -> list[str]:
    out: list[str] = []
    if not pred:
        _check_resolution(raw.get("resolution"), out)
    seen: set[str] = set()
    for i, rec in enumerate(_instances(raw, out)):
        where = f"instances[{i}]"
        if not isinstance(rec, Mapping):
            out.append(f"{where}: not an object")
            continue
        vid = rec.get("video_id")
        if not isinstance(vid, str) or vid == "":
            out.append(f"{where}: video_id must be a non-empty string")
        else:
            if vid in seen:
                out.append(f"{where}: duplicate video_id '{vid}'")
            seen.add(vid)
        _check_keyframes(rec.get("keyframes"), where, out)
    return out


def _check_label_pair(pair: Any, c_v: int | None, c_n: int | None, where: str, out: list[str]) -> None:
    ok = isinstance(pair, list) and len(pair) == 2 and all(_is_int(v) and v >= 0 for v in pair)
    if not ok:
        out.append(f"{where}: action must be a [verb, noun] pair of ints >= 0")
        return
    if c_v is not None and pair[0] >= c_v:
        out.append(f"{where}: verb id {pair[0]} out of range [0, {c_v})")
    if c_n is not None and pair[1] >= c_n:
        out.append(f"{where}: noun id {pair[1]} out of range [0, {c_n})")


def _lta_config(raw: Mapping[str, Any], out: list[str]) -> tuple[int | None, int | None, int | None, int | None]:
    cfg = raw.get("config")
    if not isinstance(cfg, Mapping):
        out.append("config: missing or not an object")
        return (None, None, None, None)
    vals = []
    for name in ("z", "c_v", "c_n", "k"):
        v = cfg.get(name)
        if not _is_int(v) or v < 1:
            out.append(f"config.{name}: must be an int >= 1")
            vals.append(None)
        else:
            vals.append(v)
    return tuple(vals)  # type: ignore[return-value]


def _check_prob_rows(rows: Any, z: int | None, where: str, out: list[str]) -> bool:
    """Report bad probability rows; True when ``rows`` is a Z x C matrix."""
    if not isinstance(rows, list) or not rows or (z is not None and len(rows) != z):
        out.append(f"{where}: must be a list of {z if z is not None else 'Z'} probability rows")
        return False
    width = None
    for r, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) >= 1 and all(_is_real(v) and v >= 0 for v in row)):
            out.append(f"{where}[{r}]: must be a list of non-negative finite reals")
            return False
        if width is None:
            width = len(row)
        elif len(row) != width:
            out.append(f"{where}[{r}]: ragged row width")
            return False
        if abs(sum(row) - 1.0) > 1e-6:
            out.append(f"{where}[{r}]: row does not sum to 1 within 1e-6")
    return True


def _validate_lta(raw: Mapping[str, Any], pred: bool) -> list[str]:
    out: list[str] = []
    if pred and raw.get("config") is None:
        # Prediction files may omit the config block; lengths are checked
        # against ground truth at evaluation time instead.
        z = c_v = c_n = k = None
    else:
        z, c_v, c_n, k = _lta_config(raw, out)
    seen: set[tuple[str, int, int]] = set()
    for i, rec in enumerate(_instances(raw, out)):
        where = f"instances[{i}]"
        if not isinstance(rec, Mapping):
            out.append(f"{where}: not an object")
            continue
        vid = rec.get("video_id")
        if not isinstance(vid, str) or vid == "":
            out.append(f"{where}: video_id must be a non-empty string")
            vid = None
        ci = rec.get("clip_index")
        if not _is_int(ci) or ci < 0:
            out.append(f"{where}: clip_index must be an int >= 0")
            ci = None
        clip = rec.get("clip", 0) if pred else 0
        if not _is_int(clip) or clip < 0:
            out.append(f"{where}: clip must be an int >= 0")
            clip = None
        if vid is not None and ci is not None and clip is not None:
            key = (vid, ci, clip)
            if key in seen:
                out.append(f"{where}: duplicate (video_id, clip_index, clip) {key}")
            seen.add(key)
        if not pred:
            seq = rec.get("sequence")
            if not isinstance(seq, list):
                out.append(f"{where}: sequence must be a list")
            else:
                if z is not None and len(seq) != z:
                    out.append(f"{where}: sequence length {len(seq)} != {z}")
                for j, pair in enumerate(seq):
                    _check_label_pair(pair, c_v, c_n, f"{where}.sequence[{j}]", out)
        else:
            cands = rec.get("candidates")
            matrix = rec.get("score_matrix")
            if cands is None and matrix is None:
                out.append(f"{where}: needs candidates or score_matrix")
            # Without a config block, the first candidate sets the length
            # every other candidate and the score matrix must share.
            length = z
            if cands is not None:
                if not isinstance(cands, list) or len(cands) < 1:
                    out.append(f"{where}: candidates must be a non-empty list")
                else:
                    if k is not None and len(cands) > k:
                        out.append(f"{where}: {len(cands)} candidates exceed k={k}")
                    for c, seq in enumerate(cands):
                        cwhere = f"{where}.candidates[{c}]"
                        if not isinstance(seq, list):
                            out.append(f"{cwhere}: not a list")
                            continue
                        if not seq:
                            out.append(f"{cwhere}: candidate sequence is empty")
                        elif length is None:
                            length = len(seq)
                        elif len(seq) != length:
                            out.append(f"{cwhere}: candidate length {len(seq)} != {length}")
                        for j, pair in enumerate(seq):
                            _check_label_pair(pair, c_v, c_n, f"{cwhere}[{j}]", out)
            if matrix is not None:
                mwhere = f"{where}.score_matrix"
                if not isinstance(matrix, Mapping) or set(matrix) != {"verb", "noun"}:
                    out.append(f"{where}: score_matrix must have exactly 'verb' and 'noun' rows")
                else:
                    verb_ok = _check_prob_rows(matrix["verb"], z, f"{mwhere}.verb", out)
                    noun_ok = _check_prob_rows(matrix["noun"], z, f"{mwhere}.noun", out)
                    if verb_ok and noun_ok:
                        rows = len(matrix["verb"])
                        if len(matrix["noun"]) != rows:
                            out.append(f"{mwhere}: verb has {rows} rows, noun has {len(matrix['noun'])}")
                        elif length is not None and rows != length:
                            out.append(f"{mwhere}: {rows} rows, candidates have length {length}")
    return out


def _check_images(raw: Mapping[str, Any], out: list[str]) -> set[str]:
    ids: set[str] = set()
    images = raw.get("images")
    if not isinstance(images, list):
        out.append("images: missing or not a list")
        return ids
    for i, im in enumerate(images):
        where = f"images[{i}]"
        if not isinstance(im, Mapping):
            out.append(f"{where}: not an object")
            continue
        kid = im.get("keyframe_id")
        if not isinstance(kid, str) or kid == "":
            out.append(f"{where}: keyframe_id must be a non-empty string")
        elif kid in ids:
            out.append(f"{where}: duplicate keyframe_id '{kid}'")
        else:
            ids.add(kid)
        for name in ("width", "height"):
            v = im.get(name)
            if not _is_int(v) or v < 1:
                out.append(f"{where}: {name} must be an int >= 1")
    return ids


def _check_box(box: Any, where: str, out: list[str]) -> None:
    ok = isinstance(box, list) and len(box) == 4 and all(_is_real(v) for v in box)
    if not ok:
        out.append(f"{where}: box must be a finite [x1, y1, x2, y2] list")
        return
    if box[0] > box[2] or box[1] > box[3]:
        out.append(f"{where}: box reversed")


def _validate_boxes(raw: Mapping[str, Any], pred: bool, with_sta_fields: bool) -> list[str]:
    out: list[str] = []
    known = _check_images(raw, out)
    for i, rec in enumerate(_instances(raw, out)):
        where = f"instances[{i}]"
        if not isinstance(rec, Mapping):
            out.append(f"{where}: not an object")
            continue
        kid = rec.get("keyframe_id")
        if not isinstance(kid, str) or kid == "":
            out.append(f"{where}: keyframe_id must be a non-empty string")
        elif kid not in known:
            out.append(f"{where}: unknown keyframe_id '{kid}'")
        _check_box(rec.get("box"), where, out)
        if not _is_int(rec.get("noun")) or rec.get("noun") < 0:
            out.append(f"{where}: noun must be an int >= 0")
        if with_sta_fields:
            if not _is_int(rec.get("verb")) or rec.get("verb") < 0:
                out.append(f"{where}: verb must be an int >= 0")
            ttc = rec.get("ttc_s")
            if not _is_real(ttc) or ttc <= 0:
                out.append(f"{where}: ttc_s must be a positive finite real")
        if pred and not _is_real(rec.get("score")):
            out.append(f"{where}: score must be a finite real")
    return out


def validate_dataset(raw: Any) -> list[str]:
    """Check a parsed annotation tree and return a list of violations.

    An empty list means the tree is valid for its declared schema. The input
    is never mutated. Unknown keys are tolerated here (loaders warn about
    them separately); missing or ill-typed required fields are violations.
    """
    if not isinstance(raw, Mapping):
        return ["top level: not an object"]
    schema = raw.get("schema")
    if not isinstance(schema, str):
        return ["schema: missing or not a string"]
    if schema == "mq/1":
        return _validate_mq(raw, pred=False)
    if schema == "mq-pred/1":
        return _validate_mq(raw, pred=True)
    if schema == "nlq/1":
        return _validate_nlq(raw, pred=False)
    if schema == "nlq-pred/1":
        return _validate_nlq(raw, pred=True)
    if schema == "fhp/1":
        return _validate_fhp(raw, pred=False)
    if schema == "fhp-pred/1":
        return _validate_fhp(raw, pred=True)
    if schema == "lta/1":
        return _validate_lta(raw, pred=False)
    if schema == "lta-pred/1":
        return _validate_lta(raw, pred=True)
    if schema == "sta/1":
        return _validate_boxes(raw, pred=False, with_sta_fields=True)
    if schema == "sta-pred/1":
        return _validate_boxes(raw, pred=True, with_sta_fields=True)
    if schema == "scod/1":
        return _validate_boxes(raw, pred=False, with_sta_fields=False)
    if schema == "scod-pred/1":
        return _validate_boxes(raw, pred=True, with_sta_fields=False)
    return [f"schema: unknown schema '{schema}'"]


def unknown_keys(raw: Mapping[str, Any]) -> list[str]:
    """List unrecognized keys in a parsed annotation tree (for warnings)."""
    schema = raw.get("schema")
    if schema not in _TOP_KEYS:
        return []
    extras = [f"top level: '{k}'" for k in raw if k not in _TOP_KEYS[schema]]
    allowed = _INSTANCE_KEYS[schema]
    inst = raw.get("instances")
    if isinstance(inst, list):
        for i, rec in enumerate(inst):
            if isinstance(rec, Mapping) and not rec.keys() <= allowed:
                extras.extend(f"instances[{i}]: '{k}'" for k in rec if k not in allowed)
    return extras
