"""Domain types for egocentric video tasks, plus the raw annotation walk.

Every type validates its invariants at construction time and is immutable
afterwards, so downstream code never re-checks shapes or ranges.

``_walk`` is the entry point for *parsed but untyped* annotation trees, and
the loaders in ``fileio`` call it once per file. It reads each field of each
record once: it checks the field, reporting violations as strings instead of
raising so that a loader can surface every problem in a file at once, and
it notes keys the schema does not know. The records of the ranked schemas
(mq, nlq, sta, scod) come back as ``Columns``: group codes in the loader's
group order, int ids, float64 scores and TTCs, (n, 2) segments or (n, 4)
boxes. Such a file is checked a column at a time; one the column scan does
not accept goes through the per-record loop, which keeps every message and
its order. Loaders build typed records from the columns, and fhp and lta
records in the walk itself, with ``_validated``, which does not re-run the
constructor checks, so the walk must cover every constructor invariant of
the types loaded. ``validate_dataset`` and ``unknown_keys`` are its public
views.

Segments and boxes must stay small enough that twice a length, width,
height or area is finite (``HALF_MAX``), so every IoU union is finite.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Any, TypeVar

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


def _finite(x: Any) -> bool:
    if type(x) is float:  # what JSON gives for almost every real
        return math.isfinite(x)
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


# The largest length, width, height or area a segment or box may have: twice
# it is still finite, so the union of two of them in an IoU is finite too.
HALF_MAX = sys.float_info.max / 2


def _box_fits(x1: float, y1: float, x2: float, y2: float) -> bool:
    width, height = x2 - x1, y2 - y1
    return width <= HALF_MAX and height <= HALF_MAX and width * height <= HALF_MAX


_new = object.__new__
_set = object.__setattr__


def _validated(cls: type[_T], /, **fields: Any) -> _T:
    """Build ``cls`` from values that have already been checked.

    Skips ``__post_init__``, so the caller passes every field in the form
    the constructor would store: ``float`` for real-valued fields, tuples
    of floats for points, keyframes in ``KEYFRAME_TAGS`` order.
    """
    obj = _new(cls)
    # Set attributes one by one, as the dataclass __init__ does: touching
    # obj.__dict__ would give every record its own dict, 2.5x the memory.
    for name in fields:
        _set(obj, name, fields[name])
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
        _require(self.end_s - self.start_s <= HALF_MAX, "segment too long: its doubled length overflows")

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
        _require(_box_fits(self.x1, self.y1, self.x2, self.y2), "box too large: its doubled width, height or area overflows")

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
# Ranked records as columns.
# ---------------------------------------------------------------------------


def _int_column(values: Any) -> np.ndarray:
    """int64 ids; object dtype for ids beyond int64, since JSON ints are
    unbounded and a valid file may hold them."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class Columns(Mapping):
    """The records of one mq, nlq, sta or scod file as struct-of-arrays.

    Rows are in the loader's group order: the groups in ``groups`` order,
    and each group's rows in file order. Group ``g`` holds rows
    ``starts[g]`` to ``starts[g + 1]``. As a mapping, each group key gives
    its range of rows, so ``len`` of a value is the group's size.

    - ``coords``: float64 (n, 2) segments or (n, 4) boxes;
    - ``score``: float64, 1.0 in ground truth;
    - ``label``: the class id (mq, scod) or noun (sta), None for nlq;
    - ``verb`` and ``ttc``: sta only;
    - ``video``: the video of each query, nlq ground truth only.

    Id columns are int64, or object arrays of Python ints when an id does
    not fit in int64.
    """

    groups: tuple
    starts: np.ndarray
    coords: np.ndarray
    score: np.ndarray
    label: np.ndarray | None = None
    verb: np.ndarray | None = None
    ttc: np.ndarray | None = None
    video: tuple[str, ...] | None = None

    @cached_property
    def code(self) -> np.ndarray:
        """Each row's group number."""
        return np.repeat(np.arange(len(self.groups)), np.diff(self.starts))

    @cached_property
    def index(self) -> dict[Any, int]:
        """Group number by key."""
        return {key: g for g, key in enumerate(self.groups)}

    def __getitem__(self, key: Any) -> range:
        g = self.index[key]
        return range(self.starts[g], self.starts[g + 1])

    def __iter__(self) -> Iterator[Any]:
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def by_label(self) -> Columns:
        """The same rows regrouped by (group key, label), groups in order of
        first appearance and rows in their present order."""
        keys = list(zip([self.groups[g] for g in self.code.tolist()], self.label.tolist()))
        return _grouped_columns({}, keys, self.coords, self.score, self.label, self.verb, self.ttc, self.video)


def _grouped_columns(
    groups: dict[Any, int],
    keys: Sequence[Any],
    coords: np.ndarray,
    score: Any,
    label: Any = None,
    verb: Any = None,
    ttc: Any = None,
    video: Sequence[str] | None = None,
) -> Columns:
    """Columns from rows in file order, ``keys`` holding each row's group.

    ``groups`` numbers the groups known in advance (the ``videos`` or
    ``images`` list); other keys are numbered in order of first appearance.
    """
    for key in dict.fromkeys(keys):
        groups.setdefault(key, len(groups))
    code = np.fromiter(map(groups.__getitem__, keys), dtype=np.intp, count=len(keys))
    order = np.argsort(code, kind="stable")
    starts = np.zeros(len(groups) + 1, dtype=np.intp)
    np.cumsum(np.bincount(code, minlength=len(groups)), out=starts[1:])

    def take(values: Any, convert: Any) -> Any:
        return None if values is None else convert(values)[order]

    return Columns(
        groups=tuple(groups),
        starts=starts,
        coords=coords[order],
        score=take(score, lambda v: np.asarray(v, dtype=np.float64)),
        label=take(label, _int_column),
        verb=take(verb, _int_column),
        ttc=take(ttc, lambda v: np.asarray(v, dtype=np.float64)),
        video=None if video is None else tuple(video[i] for i in order.tolist()),
    )


# ---------------------------------------------------------------------------
# The raw annotation walk.
#
# Loaders parse JSON and hand the untyped tree to _walk, which reads every
# field of every record once. It checks the field, reporting every violation
# in the file instead of failing at the first, and it notes keys the schema
# does not know. For a clean file it returns the records: as Columns for the
# mq, nlq, sta and scod schemas, and as typed objects built through
# _validated for fhp and lta, applying the constructors' normalisations
# (float reals, coordinate tuples, keyframes in KEYFRAME_TAGS order). The
# checks cover the constructor invariants, which nothing checks again, plus
# the cross-field rules (vocabulary ranges, duplicate keys) that single
# values cannot see.
#
# A ranked file is first checked a column at a time (_scan and the _plain_*
# checks): plain dicts that hold exactly the schema's keys, exact types
# (plain floats for reals, plain ints for ids), set membership for ids and
# vectorised range and order checks. The scan accepts only files in which
# the per-record loop would find nothing, and gives the same columns. Any
# other file (a violation, an unknown key, an int-valued real, a bool, an
# id beyond int64) goes through the per-record loop, which writes every
# message in its order and, on a valid file, fills the columns.
# ---------------------------------------------------------------------------

# Allowed top-level and per-record keys; any other key is reported as
# unknown, which loaders turn into warnings.
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
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def _is_object(x: Any) -> bool:
    return type(x) is dict or isinstance(x, Mapping)


def _records(raw: Mapping[str, Any], schema: str, out: list[str], extras: list[str]) -> Iterator[tuple[str, Any]]:
    """Each object in ``instances`` with its location; notes unknown keys."""
    inst = raw.get("instances")
    if not isinstance(inst, list):
        out.append("instances: missing or not a list")
        return
    allowed = _INSTANCE_KEYS[schema]
    for i, rec in enumerate(inst):
        if not _is_object(rec):
            out.append(f"instances[{i}]: not an object")
            continue
        if not rec.keys() <= allowed:
            extras.extend(f"instances[{i}]: '{k}'" for k in rec if k not in allowed)
        yield f"instances[{i}]", rec


def _segment(rec: Mapping[str, Any], where: str, out: list[str]) -> tuple[float, float] | None:
    start, end = rec.get("start_s"), rec.get("end_s")
    if not (_finite(start) and _finite(end)):
        for name, v in (("start_s", start), ("end_s", end)):
            if v is None:
                out.append(f"{where}: missing key '{name}'")
            elif not _finite(v):
                out.append(f"{where}: {name} must be a finite real")
        return None
    if start < 0:
        out.append(f"{where}: segment start is negative")
    if start > end:
        out.append(f"{where}: segment reversed")
    if start < 0 or start > end:
        return None
    start, end = float(start), float(end)
    if end - start > HALF_MAX:
        out.append(f"{where}: segment too long (its doubled length overflows)")
        return None
    return start, end


def _scan(raw: Mapping[str, Any], names: tuple[str, ...]) -> list[list] | None:
    """The ``names`` columns of ``instances`` when it is a list of plain
    dicts that each hold exactly those keys; None otherwise."""
    inst = raw.get("instances")
    if type(inst) is not list or not set(map(type, inst)) <= {dict} or not set(map(len, inst)) <= {len(names)}:
        return None
    try:
        return [list(map(itemgetter(name), inst)) for name in names]
    except KeyError:
        return None


def _only(col: list, kind: type) -> bool:
    return set(map(type, col)) <= {kind}


def _plain_ids(col: list, known: Any = None) -> bool:
    """Non-empty strings, all in ``known`` when given."""
    if not _only(col, str):
        return False
    ids = set(col)
    return "" not in ids and (known is None or ids.issubset(known))


def _plain_ints(col: list, bound: int | None = None) -> np.ndarray | None:
    """Plain ints in [0, bound) that fit in int64, as an array."""
    if not _only(col, int):
        return None
    try:
        ids = np.array(col, dtype=np.int64)
    except OverflowError:
        return None
    if ids.size and (ids.min() < 0 or (bound is not None and ids.max() >= bound)):
        return None
    return ids


def _plain_reals(col: list) -> np.ndarray | None:
    """Plain finite floats, as an array."""
    if not _only(col, float):
        return None
    reals = np.array(col, dtype=np.float64)
    return reals if np.isfinite(reals).all() else None


def _plain_segments(starts: list, ends: list) -> np.ndarray | None:
    """Valid [start, end] segments as an (n, 2) array."""
    start, end = _plain_reals(starts), _plain_reals(ends)
    if start is None or end is None:
        return None
    if not ((start >= 0) & (start <= end) & (end - start <= HALF_MAX)).all():
        return None
    return np.stack((start, end), axis=1)


def _plain_boxes(col: list) -> np.ndarray | None:
    """Valid [x1, y1, x2, y2] boxes as an (n, 4) array."""
    if not (_only(col, list) and set(map(len, col)) <= {4}):
        return None
    boxes = _plain_reals(list(chain.from_iterable(col)))
    if boxes is None:
        return None
    boxes = boxes.reshape(-1, 4)
    with np.errstate(over="ignore"):  # an overflow is the violation checked for
        width, height = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
        ok = (width >= 0) & (height >= 0) & (width <= HALF_MAX) & (height <= HALF_MAX) & (width * height <= HALF_MAX)
    return boxes if ok.all() else None


def _segment_array(rows: list) -> np.ndarray:
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def _walk_videos(raw: Mapping[str, Any], out: list[str]) -> tuple[set[str], dict[str, VideoMeta]]:
    """The ids of the well-formed entries, and the videos of a clean list."""
    ids: set[str] = set()
    videos: dict[str, VideoMeta] = {}
    listed = raw.get("videos")
    if not isinstance(listed, list):
        out.append("videos: missing or not a list")
        return ids, videos
    for i, v in enumerate(listed):
        where = f"videos[{i}]"
        if not _is_object(v):
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
        if not _finite(fps) or fps <= 0:
            out.append(f"{where}: fps must be a positive finite real")
        if not out:
            videos[vid] = _validated(VideoMeta, video_id=vid, num_frames=nf, fps=float(fps))
    return ids, videos


def _video_ref(rec: Mapping[str, Any], where: str, known: set[str] | None, out: list[str]) -> Any:
    vid = rec.get("video_id")
    if not isinstance(vid, str) or vid == "":
        out.append(f"{where}: video_id must be a non-empty string")
    elif known is not None and vid not in known:
        out.append(f"{where}: unknown video_id '{vid}'")
    return vid


def _walk_mq(raw: Mapping[str, Any], schema: str, out: list[str], extras: list[str]) -> tuple[Any, Columns | None]:
    """Header (videos, num_classes) for ground truth; columns grouped by
    video, with the class id as label."""
    pred = schema == "mq-pred/1"
    known = num_classes = header = None
    groups: dict[Any, int] = {}
    if not pred:
        known, videos = _walk_videos(raw, out)
        num_classes = raw.get("num_classes")
        if not _is_int(num_classes) or num_classes < 1:
            out.append("num_classes: must be an int >= 1")
            num_classes = None
        header = (videos, num_classes)
        groups = {vid: g for g, vid in enumerate(videos)}
    rows = _scan_mq(raw, pred, known, num_classes) or _loop_mq(raw, schema, pred, known, num_classes, out, extras)
    if out:
        return header, None
    vids, segments, labels, scores = rows
    return header, _grouped_columns(groups, vids, segments, scores, labels)


def _scan_mq(raw: Mapping[str, Any], pred: bool, known: set[str] | None, num_classes: int | None) -> tuple | None:
    names = ("video_id", "start_s", "end_s", "class_id") + (("score",) if pred else ())
    cols = _scan(raw, names)
    if cols is None or not _plain_ids(cols[0], known):
        return None
    segments, labels = _plain_segments(cols[1], cols[2]), _plain_ints(cols[3], num_classes)
    scores = _plain_reals(cols[4]) if pred else np.ones(len(cols[0]))
    if segments is None or labels is None or scores is None:
        return None
    return cols[0], segments, labels, scores


def _loop_mq(
    raw: Mapping[str, Any], schema: str, pred: bool, known: set[str] | None, num_classes: int | None, out: list[str], extras: list[str]
) -> tuple:
    vids, segments, labels, scores = [], [], [], []
    for where, rec in _records(raw, schema, out, extras):
        n = len(out)
        vid = _video_ref(rec, where, known, out)
        segment = _segment(rec, where, out)
        cid = rec.get("class_id")
        if not _is_int(cid) or cid < 0:
            out.append(f"{where}: class_id must be an int >= 0")
        elif num_classes is not None and cid >= num_classes:
            out.append(f"{where}: class_id {cid} out of range [0, {num_classes})")
        score = rec.get("score") if pred else 1.0
        if not _finite(score):
            out.append(f"{where}: score must be a finite real")
        if len(out) == n:
            vids.append(vid)
            segments.append(segment)
            labels.append(cid)
            scores.append(float(score))
    return vids, _segment_array(segments), labels, scores


def _walk_nlq(raw: Mapping[str, Any], schema: str, out: list[str], extras: list[str]) -> tuple[Any, Columns | None]:
    """Header videos for ground truth; columns grouped by query, with each
    query's video in ground truth."""
    pred = schema == "nlq-pred/1"
    known = videos = None
    if not pred:
        known, videos = _walk_videos(raw, out)
    rows = _scan_nlq(raw, pred, known) or _loop_nlq(raw, schema, pred, known, out, extras)
    if out:
        return videos, None
    qids, vids, segments, scores = rows
    return videos, _grouped_columns({}, qids, segments, scores, video=None if pred else vids)


def _scan_nlq(raw: Mapping[str, Any], pred: bool, known: set[str] | None) -> tuple | None:
    names = ("query_id", "start_s", "end_s") + (("score",) if pred else ("video_id",))
    cols = _scan(raw, names)
    if cols is None or not _plain_ids(cols[0]) or not (pred or len(set(cols[0])) == len(cols[0])):
        return None
    if not (pred or _plain_ids(cols[3], known)):
        return None
    segments = _plain_segments(cols[1], cols[2])
    scores = _plain_reals(cols[3]) if pred else np.ones(len(cols[0]))
    if segments is None or scores is None:
        return None
    return cols[0], None if pred else cols[3], segments, scores


def _loop_nlq(
    raw: Mapping[str, Any], schema: str, pred: bool, known: set[str] | None, out: list[str], extras: list[str]
) -> tuple:
    seen_queries: set[str] = set()
    qids, vids, segments, scores = [], [], [], []
    for where, rec in _records(raw, schema, out, extras):
        n = len(out)
        vid = None if pred else _video_ref(rec, where, known, out)
        segment = _segment(rec, where, out)
        qid = rec.get("query_id")
        if not isinstance(qid, str) or qid == "":
            out.append(f"{where}: query_id must be a non-empty string")
        elif not pred:
            if qid in seen_queries:
                out.append(f"{where}: duplicate query_id '{qid}'")
            seen_queries.add(qid)
        score = rec.get("score") if pred else 1.0
        if not _finite(score):
            out.append(f"{where}: score must be a finite real")
        if len(out) == n:
            qids.append(qid)
            vids.append(vid)
            segments.append(segment)
            scores.append(float(score))
    return qids, vids, _segment_array(segments), scores


def _xy(value: Any) -> tuple[float, float] | None:
    if isinstance(value, list) and len(value) == 2:
        x, y = value
        if _finite(x) and _finite(y):
            return (float(x), float(y))
    return None


def _keyframes(kf: Any, where: str, out: list[str]) -> HandKeyframes | None:
    if not _is_object(kf):
        out.append(f"{where}: keyframes must be an object")
        return None
    if set(kf) != set(KEYFRAME_TAGS):
        out.append(f"{where}: keyframe tags must be exactly {sorted(KEYFRAME_TAGS)}")
        return None
    n = len(out)
    points = {}
    for tag in KEYFRAME_TAGS:
        point = kf[tag]
        pwhere = f"{where}.keyframes[{tag}]"
        if not _is_object(point):
            out.append(f"{pwhere}: not an object")
            continue
        left, right = _xy(point.get("left")), _xy(point.get("right"))
        for hand, xy in (("left", left), ("right", right)):
            if xy is None:
                out.append(f"{pwhere}: {hand} must be a finite [x, y] pair")
        visible = point.get("visible", {})
        if "visible" in point:
            ok = _is_object(visible) and set(visible) <= set(HANDS) and all(isinstance(v, bool) for v in visible.values())
            if not ok:
                out.append(f"{pwhere}: visible must map hands to bools")
        if len(out) == n:
            left_visible, right_visible = visible.get("left", True), visible.get("right", True)
            points[tag] = _validated(HandPoint, left=left, right=right, left_visible=left_visible, right_visible=right_visible)
    return _validated(HandKeyframes, points=points) if len(out) == n else None


def _resolution(res: Any, out: list[str]) -> tuple[int, int] | None:
    if not (isinstance(res, list) and len(res) == 2 and all(_is_int(v) and v > 0 for v in res)):
        out.append("resolution: must be a [width, height] pair of ints >= 1")
        return None
    return (res[0], res[1])


def _walk_fhp(raw: Mapping[str, Any], schema: str, out: list[str], extras: list[str]) -> tuple[Any, list]:
    """Header resolution for ground truth; keyframes keyed by video."""
    pred = schema == "fhp-pred/1"
    resolution = None if pred else _resolution(raw.get("resolution"), out)
    seen: set[str] = set()
    records: list[tuple[Any, Any]] = []
    for where, rec in _records(raw, schema, out, extras):
        vid = rec.get("video_id")
        if not isinstance(vid, str) or vid == "":
            out.append(f"{where}: video_id must be a non-empty string")
        else:
            if vid in seen:
                out.append(f"{where}: duplicate video_id '{vid}'")
            seen.add(vid)
        keyframes = _keyframes(rec.get("keyframes"), where, out)
        if not out:
            records.append((vid, keyframes))
    return resolution, records


def _labels(
    seq: list, c_v: int | None, c_n: int | None, where: str, out: list[str], shared: dict
) -> tuple[ActionLabel, ...] | None:
    """The actions of ``where``, a list of [verb, noun] pairs.

    A file repeats a few hundred pairs many times, so equal pairs share one
    (immutable) ActionLabel, kept in ``shared``.
    """
    n = len(out)
    labels = []
    for j, pair in enumerate(seq):
        if isinstance(pair, list) and len(pair) == 2:
            verb, noun = pair
            if _is_int(verb) and verb >= 0 and _is_int(noun) and noun >= 0:
                if c_v is not None and verb >= c_v:
                    out.append(f"{where}[{j}]: verb id {verb} out of range [0, {c_v})")
                if c_n is not None and noun >= c_n:
                    out.append(f"{where}[{j}]: noun id {noun} out of range [0, {c_n})")
                label = shared.get((verb, noun))
                if label is None:
                    label = shared[verb, noun] = _validated(ActionLabel, verb_id=verb, noun_id=noun)
                labels.append(label)
                continue
        out.append(f"{where}[{j}]: action must be a [verb, noun] pair of ints >= 0")
    return tuple(labels) if len(out) == n else None


def _lta_config(raw: Mapping[str, Any], out: list[str]) -> tuple[int | None, int | None, int | None, int | None]:
    cfg = raw.get("config")
    if not _is_object(cfg):
        out.append("config: missing or not an object")
        return (None, None, None, None)
    vals = {name: cfg.get(name) for name in ("z", "c_v", "c_n", "k")}
    for name, v in vals.items():
        if not _is_int(v) or v < 1:
            out.append(f"config.{name}: must be an int >= 1")
            vals[name] = None
    return tuple(vals.values())  # type: ignore[return-value]


def _plain_row_sum(row: Any) -> float | None:
    """``sum(row)`` for a non-empty list of plain floats that are all finite
    and >= 0; None for any other row, which the per-value checks judge."""
    if type(row) is list and row and set(map(type, row)) == {float}:
        total = sum(row)
        if math.isfinite(total) and min(row) >= 0:
            return total
    return None


def _check_prob_rows(rows: Any, z: int | None, where: str, out: list[str]) -> bool:
    """Report bad probability rows; True when ``rows`` is a Z x C matrix."""
    if not isinstance(rows, list) or not rows or (z is not None and len(rows) != z):
        out.append(f"{where}: must be a list of {z if z is not None else 'Z'} probability rows")
        return False
    width = None
    for r, row in enumerate(rows):
        total = _plain_row_sum(row)
        if total is None:
            if not (isinstance(row, list) and len(row) >= 1 and all(_finite(v) and v >= 0 for v in row)):
                out.append(f"{where}[{r}]: must be a list of non-negative finite reals")
                return False
            total = sum(row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            out.append(f"{where}[{r}]: ragged row width")
            return False
        if abs(total - 1.0) > 1e-6:
            out.append(f"{where}[{r}]: row does not sum to 1 within 1e-6")
    return True


def _forecast(rec: Mapping[str, Any], where: str, config: tuple, out: list[str], shared: dict) -> tuple[Any, Any]:
    """A prediction row's candidate actions and raw score matrix, each None
    when the row has none."""
    z, c_v, c_n, k = config
    cands, matrix = rec.get("candidates"), rec.get("score_matrix")
    if cands is None and matrix is None:
        out.append(f"{where}: needs candidates or score_matrix")
    # Without a config block, the first candidate sets the length every
    # other candidate and the score matrix must share.
    length = z
    candidates = None
    if cands is not None:
        if not isinstance(cands, list) or len(cands) < 1:
            out.append(f"{where}: candidates must be a non-empty list")
        else:
            if k is not None and len(cands) > k:
                out.append(f"{where}: {len(cands)} candidates exceed k={k}")
            built = []
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
                built.append(_labels(seq, c_v, c_n, cwhere, out, shared))
            candidates = tuple(built)
    if matrix is not None:
        mwhere = f"{where}.score_matrix"
        if not _is_object(matrix) or set(matrix) != {"verb", "noun"}:
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
    return candidates, matrix


def _walk_lta(raw: Mapping[str, Any], schema: str, out: list[str], extras: list[str]) -> tuple[Any, list]:
    """Header config (z, c_v, c_n, k); records keyed by (video, clip index):
    action sequences for ground truth, (candidates, score matrix) pairs for
    predictions."""
    pred = schema == "lta-pred/1"
    if pred and raw.get("config") is None:
        # Prediction files may omit the config block; lengths are checked
        # against ground truth at evaluation time instead.
        config: tuple = (None, None, None, None)
    else:
        config = _lta_config(raw, out)
    z, c_v, c_n, _ = config
    seen: set[tuple[str, int, int]] = set()
    shared: dict[tuple[int, int], ActionLabel] = {}
    records: list[tuple[Any, Any]] = []
    for where, rec in _records(raw, schema, out, extras):
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
        if pred:
            item = _forecast(rec, where, config, out, shared)
        else:
            item = None
            seq = rec.get("sequence")
            if not isinstance(seq, list):
                out.append(f"{where}: sequence must be a list")
            else:
                if z is not None and len(seq) != z:
                    out.append(f"{where}: sequence length {len(seq)} != {z}")
                item = _labels(seq, c_v, c_n, f"{where}.sequence", out, shared)
        if not out:
            records.append(((vid, ci), item))
    return config, records


def _walk_images(raw: Mapping[str, Any], out: list[str]) -> dict[str, tuple[int, int]]:
    """(width, height) by keyframe id, for every entry with a well-formed
    unique id; the sizes are checked, but only a clean file's are used."""
    images: dict[str, tuple[int, int]] = {}
    listed = raw.get("images")
    if not isinstance(listed, list):
        out.append("images: missing or not a list")
        return images
    for i, im in enumerate(listed):
        where = f"images[{i}]"
        if not _is_object(im):
            out.append(f"{where}: not an object")
            continue
        kid = im.get("keyframe_id")
        size = (im.get("width"), im.get("height"))
        if not isinstance(kid, str) or kid == "":
            out.append(f"{where}: keyframe_id must be a non-empty string")
        elif kid in images:
            out.append(f"{where}: duplicate keyframe_id '{kid}'")
        else:
            images[kid] = size
        for name, v in zip(("width", "height"), size):
            if not _is_int(v) or v < 1:
                out.append(f"{where}: {name} must be an int >= 1")
    return images


def _box(box: Any, where: str, out: list[str]) -> tuple[float, float, float, float] | None:
    if isinstance(box, list) and len(box) == 4:
        x1, y1, x2, y2 = box
        if _finite(x1) and _finite(y1) and _finite(x2) and _finite(y2):
            if x1 > x2 or y1 > y2:
                out.append(f"{where}: box reversed")
                return None
            x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
            if not _box_fits(x1, y1, x2, y2):
                out.append(f"{where}: box too large (its doubled width, height or area overflows)")
                return None
            return x1, y1, x2, y2
    out.append(f"{where}: box must be a finite [x1, y1, x2, y2] list")
    return None


def _walk_boxes(raw: Mapping[str, Any], schema: str, out: list[str], extras: list[str]) -> tuple[Any, Columns | None]:
    """Header images; columns grouped by keyframe in ``images`` order, with
    the noun as label, plus verb and TTC for sta, and score 1.0 in ground
    truth."""
    pred = schema.endswith("-pred/1")
    sta = schema.startswith("sta")
    images = _walk_images(raw, out)
    rows = _scan_boxes(raw, pred, sta, images) or _loop_boxes(raw, schema, pred, sta, images, out, extras)
    if out:
        return images, None
    kids, boxes, nouns, verbs, ttcs, scores = rows
    groups = {kid: g for g, kid in enumerate(images)}
    return images, _grouped_columns(groups, kids, boxes, scores, nouns, verbs, ttcs)


def _scan_boxes(raw: Mapping[str, Any], pred: bool, sta: bool, images: dict[str, Any]) -> tuple | None:
    names = ("keyframe_id", "box", "noun") + (("verb", "ttc_s") if sta else ()) + (("score",) if pred else ())
    cols = _scan(raw, names)
    if cols is None or not _plain_ids(cols[0], images):
        return None
    boxes, nouns = _plain_boxes(cols[1]), _plain_ints(cols[2])
    verbs = ttcs = None
    if sta:
        verbs, ttcs = _plain_ints(cols[3]), _plain_reals(cols[4])
        if verbs is None or ttcs is None or not (ttcs > 0).all():
            return None
    scores = _plain_reals(cols[-1]) if pred else np.ones(len(cols[0]))
    if boxes is None or nouns is None or scores is None:
        return None
    return cols[0], boxes, nouns, verbs, ttcs, scores


def _loop_boxes(
    raw: Mapping[str, Any], schema: str, pred: bool, sta: bool, images: dict[str, Any], out: list[str], extras: list[str]
) -> tuple:
    kids, boxes, nouns, verbs, ttcs, scores = [], [], [], [], [], []
    for where, rec in _records(raw, schema, out, extras):
        n = len(out)
        kid = rec.get("keyframe_id")
        if not isinstance(kid, str) or kid == "":
            out.append(f"{where}: keyframe_id must be a non-empty string")
        elif kid not in images:
            out.append(f"{where}: unknown keyframe_id '{kid}'")
        box = _box(rec.get("box"), where, out)
        noun = rec.get("noun")
        if not _is_int(noun) or noun < 0:
            out.append(f"{where}: noun must be an int >= 0")
        if sta:
            verb, ttc = rec.get("verb"), rec.get("ttc_s")
            if not _is_int(verb) or verb < 0:
                out.append(f"{where}: verb must be an int >= 0")
            if not _finite(ttc) or ttc <= 0:
                out.append(f"{where}: ttc_s must be a positive finite real")
        score = rec.get("score") if pred else 1.0
        if not _finite(score):
            out.append(f"{where}: score must be a finite real")
        if len(out) == n:
            kids.append(kid)
            boxes.append(box)
            nouns.append(noun)
            if sta:
                verbs.append(verb)
                ttcs.append(float(ttc))
            scores.append(float(score))
    box_array = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    return kids, box_array, nouns, verbs if sta else None, ttcs if sta else None, scores


# One walker per track serves its ground-truth and prediction schemas.
_WALKERS = {"mq": _walk_mq, "nlq": _walk_nlq, "fhp": _walk_fhp, "lta": _walk_lta, "sta": _walk_boxes, "scod": _walk_boxes}


def _walk(raw: Any) -> tuple[list[str], list[str], Any, Any]:
    """Check, scan and build a parsed annotation tree in one pass.

    Returns the violations, the unknown keys, the file-level part and the
    records: Columns for the mq, nlq, sta and scod schemas, (group key,
    typed record) pairs in file order for fhp and lta. The last two are
    complete only when there are no violations. The input is never mutated.
    """
    if not _is_object(raw):
        return ["top level: not an object"], [], None, None
    schema = raw.get("schema")
    if not isinstance(schema, str):
        return ["schema: missing or not a string"], [], None, None
    if schema not in _TOP_KEYS:
        return [f"schema: unknown schema '{schema}'"], [], None, None
    out: list[str] = []
    extras = [f"top level: '{k}'" for k in raw if k not in _TOP_KEYS[schema]]
    walker = _WALKERS[schema.split("/")[0].removesuffix("-pred")]
    header, records = walker(raw, schema, out, extras)
    return out, extras, header, records


def validate_dataset(raw: Any) -> list[str]:
    """Check a parsed annotation tree and return a list of violations.

    An empty list means the tree is valid for its declared schema. The input
    is never mutated. Unknown keys are tolerated here (loaders warn about
    them separately); missing or ill-typed required fields are violations.
    """
    return _walk(raw)[0]


def unknown_keys(raw: Mapping[str, Any]) -> list[str]:
    """List unrecognized keys in a parsed annotation tree (for warnings)."""
    return _walk(raw)[1]
