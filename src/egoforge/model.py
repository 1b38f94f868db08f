"""Domain types for egocentric video tasks, plus the raw annotation walk.

Every type validates its invariants at construction time and is immutable
afterwards, so downstream code never re-checks shapes or ranges.

``_walk_sliced`` is the one walk of annotation files: the loaders in
``fileio`` give it a file's top-level keys and its records in slices, and
``_walk`` gives it a parsed tree's records as one slice, after checking the
top level. It reads each field of each record once: it checks the field,
reporting violations as strings instead of raising so that a loader can
surface every problem in a file at once, and it notes keys the schema does
not know. The records come back as arrays: ``Columns`` for mq, nlq, sta,
scod and fhp, ground truth and predictions, with group codes in the
loader's group order, int ids, float64 scores and TTCs, (n, 2) segments,
(n, 4) boxes or (n, 5, 2, 2) keyframes with their (n, 5, 2) bool
visibility; ``LtaColumns`` for lta (int64 [verb, noun] pairs with per-row
sequence counts and lengths, score matrices as read-only float64 arrays).
One field spec per schema, in ``_RANKED``, drives its walk and its allowed
keys, and gives the savers' records. Each slice is checked a column at a
time (``_scan_columns``, which the generator runs too); one the scan does
not accept goes through the per-record loop, which keeps every message and
its order, with one set of ids across slices, so every message is the one
a walk of the whole list gives. The walk joins the scan's columns; only a
file without violations whose scan refused one of several slices it
leaves to ``_walk`` whole. The typed views of the arrays (``TypedView``,
which the loaders and the generator give, builds them on first access)
make records with ``_validated``, which skips the constructor checks: the
walk has made them, since it and the constructors check each field kind
with one shared checker (a constructor raises its first message, located
at the type).
``validate_dataset`` and ``unknown_keys`` are its public views.

Segments and boxes must stay small enough that twice a length, width,
height or area is finite (``HALF_MAX``), so every IoU union is finite.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Any, NamedTuple, TypeVar

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


def _is_int(x: Any) -> bool:
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def _is_object(x: Any) -> bool:
    return type(x) is dict or isinstance(x, Mapping)


# The largest length, width, height or area a segment or box may have: twice
# it is still finite, so the union of two of them in an IoU is finite too.
HALF_MAX = sys.float_info.max / 2


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


# ---------------------------------------------------------------------------
# Field checkers.
#
# One checker per field kind or nested part (keyframe tags, actions, forecast
# candidates), shared by the walk and the constructors. Each takes the
# value, then ``where`` (the location that starts its messages) and
# ``out``; it appends one message per fault, formatted only then, and
# returns the value in the form the types store it (None on a fault), or
# whether the value passed.
# ---------------------------------------------------------------------------


def _int_text(value: int) -> str:
    """``value`` as messages print it: past 30 digits, ``1000…0 (402 digits)``.

    Computed without ``str()``, which refuses ints past 4,300 digits: a bit
    length b gives floor(b * log10(2)) + 1 digits or one fewer."""
    n = abs(int(value))
    d = int(n.bit_length() * math.log10(2)) + 1
    d -= d > 1 and n < 10 ** (d - 1)
    return str(value) if d <= 30 else f"{'-' * (value < 0)}{n // 10 ** (d - 4)}…{n % 10} ({d} digits)"


def _checked(where: str, checker: Callable[..., _T], *args: Any) -> _T:
    """``checker(*args, where, out)``, for a constructor: raises ValueError
    with the first fault, located at ``where``, the type's name."""
    out: list[str] = []
    value = checker(*args, where, out)
    if out:
        raise ValueError(out[0])
    return value


def _id(value: Any, key: str, where: str, out: list[str]) -> bool:
    """A non-empty string."""
    if isinstance(value, str) and value != "":
        return True
    out.append(f"{where}: {key} must be a non-empty string")
    return False


def _int(value: Any, key: str, bound: int | None, where: str, out: list[str]) -> bool:
    """An int >= 0, below ``bound`` when there is one."""
    if not _is_int(value) or value < 0:
        out.append(f"{where}: {key} must be an int >= 0")
    elif bound is not None and value >= bound:
        out.append(f"{where}: {key} {_int_text(value)} out of range [0, {_int_text(bound)})")
    else:
        return True
    return False


def _real(value: Any, key: str, positive: bool, where: str, out: list[str]) -> float | None:
    """A finite real, > 0 when ``positive``, as a float."""
    if _finite(value) and (not positive or value > 0):
        return float(value)
    out.append(f"{where}: {key} must be a {'positive ' if positive else ''}finite real")
    return None


def _segment(start: Any, end: Any, where: str, out: list[str]) -> tuple[float, float] | None:
    """A [start, end] pair of finite reals, 0 <= start <= end, whose
    doubled length is finite, as floats; a None bound is a missing key."""
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


def _box(box: Any, where: str, out: list[str]) -> tuple[float, float, float, float] | None:
    """An [x1, y1, x2, y2] list of finite reals, x1 <= x2 and y1 <= y2,
    whose doubled width, height and area are finite, as floats."""
    if isinstance(box, list) and len(box) == 4:
        x1, y1, x2, y2 = box
        if _finite(x1) and _finite(y1) and _finite(x2) and _finite(y2):
            if x1 > x2 or y1 > y2:
                out.append(f"{where}: box reversed")
                return None
            x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
            width, height = x2 - x1, y2 - y1
            if width > HALF_MAX or height > HALF_MAX or width * height > HALF_MAX:
                out.append(f"{where}: box too large (its doubled width, height or area overflows)")
                return None
            return x1, y1, x2, y2
    out.append(f"{where}: box must be a finite [x1, y1, x2, y2] list")
    return None


def _point(value: Any, hand: str, where: str, out: list[str]) -> tuple[float, float] | None:
    """A finite [x, y] pair, as a tuple of floats."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        x, y = value
        if _finite(x) and _finite(y):
            return (float(x), float(y))
    out.append(f"{where}: {hand} must be a finite [x, y] pair")
    return None


def _sums_to_one(row: Sequence[Any]) -> bool:
    """The score-row rule: a row of probabilities sums to 1 within 1e-6.

    ``math.fsum`` rounds the exact sum once, so the verdict is the same on
    every Python version (``sum`` is compensated only from 3.12 on). A sum
    that overflows does not sum to 1.
    """
    try:
        return abs(math.fsum(row) - 1.0) <= 1e-6
    except OverflowError:
        return False


def _check_prob_rows(rows: Any, z: int | None, where: str, out: list[str]) -> bool:
    """Report bad probability rows; True when ``rows`` is a Z x C matrix."""
    if not isinstance(rows, list) or not rows or (z is not None and len(rows) != z):
        out.append(f"{where}: must be a list of {'Z' if z is None else _int_text(z)} probability rows")
        return False
    width = None
    for r, row in enumerate(rows):
        # Plain floats, the least >= 0, that sum to 1: a nan or an infinity
        # would have made the sum one too, so no value needs its own check.
        good = type(row) is list and row and set(map(type, row)) == {float} and min(row) >= 0 and _sums_to_one(row)
        if not good and not (isinstance(row, list) and len(row) >= 1 and all(_finite(v) and v >= 0 for v in row)):
            out.append(f"{where}[{r}]: must be a list of non-negative finite reals")
            return False
        if width is None:
            width = len(row)
        elif len(row) != width:
            out.append(f"{where}[{r}]: ragged row width")
            return False
        if not good and not _sums_to_one(row):
            out.append(f"{where}[{r}]: row does not sum to 1 within 1e-6")
    return True


def _score_matrix(verb: Any, noun: Any, z: int | None, where: str, out: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Verb and noun probability rows, Z of each (as many as each other
    when ``z`` is None), as read-only float64 matrices. 2-D float64 arrays
    that ``_prob_block`` accepts skip the list check; it gives the messages."""
    pair = (verb, noun)
    if not all(type(m) is np.ndarray and m.dtype == np.float64 and m.ndim == 2 and m.size and z in (None, len(m)) and _prob_block(m) for m in pair):
        verb, noun = (m.tolist() if isinstance(m, np.ndarray) else m for m in pair)
        verb_ok = _check_prob_rows(verb, z, f"{where}.verb", out)
        noun_ok = _check_prob_rows(noun, z, f"{where}.noun", out)
        if not (verb_ok and noun_ok):
            return None
    if len(noun) != len(verb):
        out.append(f"{where}: verb has {len(verb)} rows, noun has {len(noun)}")
        return None
    matrices = np.array(verb, dtype=np.float64), np.array(noun, dtype=np.float64)
    for matrix in matrices:
        matrix.setflags(write=False)
    return matrices


def _prob_block(block: np.ndarray) -> bool:
    """Whether ``_check_prob_rows`` accepts every row of ``block``, a 2-D
    float64 array with at least one row and column. Its numpy row sums
    settle every row but those within a rounding margin of the 1e-6 edge,
    which go to ``_sums_to_one``."""
    with np.errstate(over="ignore"):  # an overflow is a row that does not sum to 1
        off = np.abs(block.sum(axis=1) - 1.0)
    margin = max(1e-12, block.shape[1] * 1e-15)
    # >= 0 also refuses a nan.
    if not (block >= 0).all() or (off > 1e-6 + margin).any():
        return False
    return all(_sums_to_one(block[i].tolist()) for i in np.flatnonzero(off >= 1e-6 - margin).tolist())


def _tags(kf: Any, where: str, out: list[str]) -> bool:
    """An object keyed by exactly the keyframe tags."""
    if not _is_object(kf):
        out.append(f"{where}: keyframes must be an object")
    elif set(kf) != set(KEYFRAME_TAGS):
        out.append(f"{where}: keyframe tags must be exactly {sorted(KEYFRAME_TAGS)}")
    else:
        return True
    return False


def _labels(seq: list, c_v: int | None, c_n: int | None, where: str, out: list[str]) -> bool:
    """The actions of ``where``, a list of [verb, noun] pairs of ints >= 0
    below ``c_v`` and ``c_n``; a pair may also be a tuple, as savers get it."""
    n = len(out)
    for j, pair in enumerate(seq):
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            verb, noun = pair
            # type() first: what JSON and the savers give, without a call.
            if (type(verb) is int or _is_int(verb)) and verb >= 0 and (type(noun) is int or _is_int(noun)) and noun >= 0:
                if (c_v is not None and verb >= c_v) or (c_n is not None and noun >= c_n):
                    at = f"{where}[{j}]"
                    # & runs both checks, so both ids are reported.
                    _int(verb, "verb id", c_v, at, out) & _int(noun, "noun id", c_n, at, out)
                continue
        out.append(f"{where}[{j}]: action must be a [verb, noun] pair of ints >= 0")
    return len(out) == n


# An lta config, (z, c_v, c_n, k), that bounds nothing.
_NO_CONFIG = (None, None, None, None)


def _sequence(seq: Any, config: tuple, where: str, out: list[str]) -> bool:
    """A ground-truth action sequence: a list of z actions (``_labels``)."""
    z, c_v, c_n, _ = config
    if not isinstance(seq, list):
        out.append(f"{where}: sequence must be a list")
        return False
    n = len(out)
    if z is not None and len(seq) != z:
        out.append(f"{where}: sequence length {len(seq)} != {_int_text(z)}")
    return _labels(seq, c_v, c_n, f"{where}.sequence", out) and len(out) == n


def _candidates(cands: Any, config: tuple, rows: int | None, actions: bool, where: str, out: list[str]) -> list | None:
    """Candidate action sequences: a non-empty list of at most k lists, none
    empty and all of one length, each checked through ``_labels`` when
    ``actions`` (a constructor's ActionLabel entries need no check). The
    length is the config's z, else the first candidate's, and it must be
    the ``rows`` of the score matrix when there is one."""
    z, c_v, c_n, k = config
    if not isinstance(cands, list) or not cands:
        out.append(f"{where}: candidates must be a non-empty list")
        return None
    n = len(out)
    if k is not None and len(cands) > k:
        out.append(f"{where}: {len(cands)} candidates exceed k={_int_text(k)}")
    length = z
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
            out.append(f"{cwhere}: candidate length {len(seq)} != {_int_text(length)}")
        if actions:
            _labels(seq, c_v, c_n, cwhere, out)
    if rows is not None and length is not None and rows != length:
        out.append(f"{where}.score_matrix: {rows} rows, candidates have length {_int_text(length)}")
    return cands if len(out) == n else None


@dataclass(frozen=True)
class VideoMeta:
    """Identity and timing of one source video."""

    video_id: str
    num_frames: int
    fps: float

    def __post_init__(self) -> None:
        _checked("VideoMeta", _id, self.video_id, "video_id")
        _checked("VideoMeta", _int, self.num_frames, "num_frames", None)
        _set(self, "fps", _checked("VideoMeta", _real, self.fps, "fps", True))

    @property
    def duration_s(self) -> float:
        return self.num_frames / self.fps


@dataclass(frozen=True)
class TemporalSegment:
    """A closed time interval [start_s, end_s] in seconds."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        start, end = _checked("TemporalSegment", _segment, self.start_s, self.end_s)
        _set(self, "start_s", start)
        _set(self, "end_s", end)

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
        _checked("MomentInstance", _int, self.class_id, "class_id", None)


@dataclass(frozen=True)
class NlqInstance:
    """Ground-truth answer segment for one natural-language query."""

    segment: TemporalSegment
    query_id: str

    def __post_init__(self) -> None:
        _require(isinstance(self.segment, TemporalSegment), "segment must be a TemporalSegment")
        _checked("NlqInstance", _id, self.query_id, "query_id")


@dataclass(frozen=True)
class RankedSegment:
    """A scored candidate segment labelled with its class id (an int >= 0)
    or its query id (a non-empty string)."""

    segment: TemporalSegment
    score: float
    label: int | str

    def __post_init__(self) -> None:
        _require(isinstance(self.segment, TemporalSegment), "segment must be a TemporalSegment")
        _set(self, "score", _checked("RankedSegment", _real, self.score, "score", False))
        if isinstance(self.label, str):
            _checked("RankedSegment", _id, self.label, "label")
        else:
            _checked("RankedSegment", _int, self.label, "label", None)


@dataclass(frozen=True)
class ActionLabel:
    """A (verb, noun) pair identifying one action step."""

    verb_id: int
    noun_id: int

    def __post_init__(self) -> None:
        _checked("ActionLabel", _int, self.verb_id, "verb_id", None)
        _checked("ActionLabel", _int, self.noun_id, "noun_id", None)


class _ArrayRecord:
    """Equality over every dataclass field, arrays compared by value; like
    any class that defines ``__eq__`` alone, unhashable."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class ScoreMatrix(_ArrayRecord):
    """Per-position class probabilities: verb is (Z, C_v), noun is (Z, C_n),
    given as arrays or lists of rows and stored as read-only float64 arrays."""

    verb: np.ndarray
    noun: np.ndarray

    def __post_init__(self) -> None:
        verb, noun = _checked("ScoreMatrix", _score_matrix, self.verb, self.noun, None)
        _set(self, "verb", verb)
        _set(self, "noun", noun)

    @property
    def z(self) -> int:
        return self.verb.shape[0]


@dataclass(frozen=True)
class LtaForecast:
    """Candidate future action sequences predicted after one clip."""

    clip_index: int
    candidates: tuple[tuple[ActionLabel, ...], ...]
    score_matrix: ScoreMatrix | None = None

    def __post_init__(self) -> None:
        _checked("LtaForecast", _int, self.clip_index, "clip_index", None)
        cands = tuple(map(tuple, self.candidates))
        _require(all(isinstance(a, ActionLabel) for seq in cands for a in seq), "candidates must contain ActionLabel entries")
        matrix = self.score_matrix
        _require(matrix is None or isinstance(matrix, ScoreMatrix), "score_matrix must be a ScoreMatrix")
        # Each ActionLabel has checked its ids; the shape is left to check.
        _checked("LtaForecast", _candidates, list(map(list, cands)), _NO_CONFIG, None if matrix is None else matrix.z, False)
        _set(self, "candidates", cands)

    @property
    def z(self) -> int:
        return len(self.candidates[0])


@dataclass(frozen=True)
class HandPoint:
    """Left and right hand coordinates at one keyframe, with visibility."""

    left: tuple[float, float]
    right: tuple[float, float]
    left_visible: bool = True
    right_visible: bool = True

    def __post_init__(self) -> None:
        _set(self, "left", _checked("HandPoint", _point, self.left, "left"))
        _set(self, "right", _checked("HandPoint", _point, self.right, "right"))
        _require(isinstance(self.left_visible, bool) and isinstance(self.right_visible, bool), "visibility flags must be bools")

    def coords(self, hand: str) -> tuple[float, float]:
        _require(hand in HANDS, f"unknown hand {hand!r}")
        return self.left if hand == "left" else self.right

    def visible(self, hand: str) -> bool:
        _require(hand in HANDS, f"unknown hand {hand!r}")
        return self.left_visible if hand == "left" else self.right_visible


@dataclass(frozen=True)
class HandKeyframes:
    """Hand positions at the five keyframes c, p, p1, p2, p3."""

    points: Mapping[str, HandPoint]

    def __post_init__(self) -> None:
        _checked("HandKeyframes", _tags, self.points)
        _require(all(isinstance(p, HandPoint) for p in self.points.values()), "points must map tags to HandPoint")
        _set(self, "points", {tag: self.points[tag] for tag in KEYFRAME_TAGS})

    def __getitem__(self, tag: str) -> HandPoint:
        return self.points[tag]


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned box (x1, y1, x2, y2) with x1 <= x2 and y1 <= y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        box = _checked("BoundingBox", _box, [self.x1, self.y1, self.x2, self.y2])
        for name, v in zip(("x1", "y1", "x2", "y2"), box):
            _set(self, name, v)

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
        _checked("StaInstance", _int, self.noun_id, "noun_id", None)
        _checked("StaInstance", _int, self.verb_id, "verb_id", None)
        _set(self, "ttc_s", _checked("StaInstance", _real, self.ttc_s, "ttc_s", True))
        _set(self, "score", _checked("StaInstance", _real, self.score, "score", False))


@dataclass(frozen=True)
class Detection:
    """A scored class-labelled box for plain object detection."""

    box: BoundingBox
    class_id: int
    score: float = 1.0

    def __post_init__(self) -> None:
        _require(isinstance(self.box, BoundingBox), "box must be a BoundingBox")
        _checked("Detection", _int, self.class_id, "class_id", None)
        _set(self, "score", _checked("Detection", _real, self.score, "score", False))


def _finite_rows(rows: np.ndarray) -> None:
    """The feature-row rule; ``fileio`` checks a file's rows by it too."""
    _require(bool(np.isfinite(rows).all()), "feature rows must be finite")


@dataclass(frozen=True, eq=False)
class FeatureMatrix(_ArrayRecord):
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
        _finite_rows(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def num_rows(self) -> int:
        return int(self.rows.shape[0])


# ---------------------------------------------------------------------------
# Records as columns.
# ---------------------------------------------------------------------------


def _int_column(values: Any) -> np.ndarray:
    """int64 ids; object dtype for ids beyond int64, since JSON ints are
    unbounded and a valid file may hold them."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class _Keyed(Mapping):
    """A mapping keyed by the tuple in the field that ``_key_field`` names:
    iteration and length are those of the tuple, and ``index`` gives each
    key's position in it."""

    _key_field: str

    @cached_property
    def index(self) -> dict[Any, int]:
        return {key: i for i, key in enumerate(getattr(self, self._key_field))}

    def __iter__(self) -> Iterator[Any]:
        return iter(getattr(self, self._key_field))

    def __len__(self) -> int:
        return len(getattr(self, self._key_field))


@dataclass(frozen=True, eq=False)
class Columns(_Keyed):
    """The records of one mq, nlq, sta, scod or fhp file as struct-of-arrays.

    Rows are in the loader's group order: the groups in ``groups`` order,
    and each group's rows in file order. Group ``g`` holds rows
    ``starts[g]`` to ``starts[g + 1]``. As a mapping, each group key gives
    its range of rows, so ``len`` of a value is the group's size.

    - ``coords``: float64 (n, 2) segments, (n, 4) boxes or (n, 5, 2, 2)
      keyframes (in ``KEYFRAME_TAGS`` order, the hands in ``HANDS``
      order, then (x, y));
    - ``score``: float64, 1.0 in ground truth and in fhp;
    - ``label``: the class id (mq, scod) or noun (sta), None for nlq;
    - ``verb`` and ``ttc``: sta only;
    - ``video``: the video of each query, nlq ground truth only;
    - ``visible``: bool (n, 5, 2), keyframes and hands in ``coords``
      order, fhp only.

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
    visible: np.ndarray | None = None
    _key_field = "groups"

    @cached_property
    def code(self) -> np.ndarray:
        """Each row's group number."""
        return np.repeat(np.arange(len(self.groups)), np.diff(self.starts))

    def __getitem__(self, key: Any) -> range:
        g = self.index[key]
        return range(self.starts[g], self.starts[g + 1])

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
    visible: np.ndarray | None = None,
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
        visible=take(visible, np.asarray),
    )


class LtaRow(NamedTuple):
    """One row of ``LtaColumns``: its action sequences as an int (count,
    length, 2) array of [verb, noun] pairs (a prediction's candidates,
    ground truth's one sequence), and its score matrix, a (verb, noun) pair
    of arrays, or None."""

    candidates: np.ndarray
    score_matrix: tuple[np.ndarray, np.ndarray] | None


@dataclass(frozen=True, eq=False)
class LtaColumns(_Keyed):
    """The rows of one lta/1 or lta-pred/1 file as arrays, in file order.

    Row ``r`` holds ``counts[r]`` action sequences of ``lengths[r]``
    [verb, noun] pairs each: a ground-truth row its one sequence, a
    prediction row its candidates (none in a row that has only scores).
    The rows' pairs follow one another in ``pairs``, int64 (p, 2), or an
    object array of Python ints when an id does not fit in int64.

    - ``episodes``: each row's (video id, clip index);
    - ``scores``: each prediction row's score matrix, a (verb, noun) pair
      of read-only float64 arrays, or None; None in ground truth;
    - ``config``: the file's (z, c_v, c_n, k), None where it sets none;
    - ``clips``: each row's clip number, written when given (vote's input).

    As a mapping, which needs one row per episode (ground truth, and the
    predictions ``fileio.load_lta_pred`` accepts), each episode gives its
    row as an ``LtaRow`` of views into the arrays.
    """

    episodes: tuple
    counts: np.ndarray
    lengths: np.ndarray
    pairs: np.ndarray
    scores: tuple | None = None
    config: tuple = _NO_CONFIG
    clips: Sequence[int] | None = None
    _key_field = "episodes"

    @classmethod
    def of_rows(
        cls, episodes: Sequence, rows: Sequence, scores: Sequence | None = None, config: tuple = _NO_CONFIG, clips: Sequence[int] | None = None
    ) -> LtaColumns:
        """The columns of ``rows``: each row's action sequences, of one length, of [verb, noun] pairs."""
        counts = np.array(list(map(len, rows)), dtype=np.intp)
        lengths = np.array([len(row[0]) if row else 0 for row in rows], dtype=np.intp)
        pairs = _int_column([pair for row in rows for seq in row for pair in seq]).reshape(-1, 2)
        return cls(tuple(episodes), counts, lengths, pairs, None if scores is None else tuple(scores), config, clips)

    @cached_property
    def starts(self) -> np.ndarray:
        """The first row of ``pairs`` of each row."""
        sizes = self.counts * self.lengths
        return np.cumsum(sizes) - sizes

    def __getitem__(self, key: Any) -> LtaRow:
        r = self.index[key]
        count, length, start = int(self.counts[r]), int(self.lengths[r]), int(self.starts[r])
        candidates = self.pairs[start : start + count * length].reshape(count, length, 2)
        return LtaRow(candidates, None if self.scores is None else self.scores[r])


class TypedView(Mapping):
    """A read-only mapping of typed records over checked ``columns``: the
    dict ``build(columns)`` gives, built on first access. It reads,
    compares and prints as that dict; the savers and the metrics take its
    ``columns`` as they are. The builders below make records with
    ``_validated`` from arrays a walk, or the generator, has checked."""

    def __init__(self, columns: Any, build: Callable[[Any], dict]) -> None:
        self.columns, self._build = columns, build

    @cached_property
    def _records(self) -> dict:
        return self._build(self.columns)

    def __getitem__(self, key: Any) -> Any:
        return self._records[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other: object) -> bool:
        return self._records == (other._records if isinstance(other, TypedView) else other)

    def __repr__(self) -> str:
        return repr(self._records)


def _grouped(cols: Columns, records: list) -> dict[Any, tuple]:
    """``records``, one per row of ``cols``, as tuples by group key."""
    s = cols.starts.tolist()
    return {key: tuple(records[s[g] : s[g + 1]]) for g, key in enumerate(cols.groups)}


def _segments(cols: Columns) -> list[TemporalSegment]:
    return [_validated(TemporalSegment, start_s=a, end_s=b) for a, b in cols.coords.tolist()]


def _ranked(cols: Columns) -> dict[Any, tuple[RankedSegment, ...]]:
    """Predictions by group, labelled with the class id (mq) or, where
    there is no label column (nlq), their query id."""
    labels = cols.label.tolist() if cols.label is not None else [cols.groups[g] for g in cols.code.tolist()]
    rows = zip(_segments(cols), cols.score.tolist(), labels)
    return _grouped(cols, [_validated(RankedSegment, segment=seg, score=score, label=label) for seg, score, label in rows])


def _moments(cols: Columns) -> dict[str, tuple[MomentInstance, ...]]:
    rows = zip(_segments(cols), cols.label.tolist())
    return _grouped(cols, [_validated(MomentInstance, segment=seg, class_id=cid) for seg, cid in rows])


def _answers(cols: Columns) -> dict[str, NlqInstance]:
    """The answer of each query of nlq ground truth, by query id."""
    return {qid: _validated(NlqInstance, segment=seg, query_id=qid) for seg, qid in zip(_segments(cols), cols.groups)}


def _boxes(cols: Columns) -> dict[str, tuple]:
    """sta records (``cols`` has a verb column) or scod detections by keyframe."""
    boxes = [_validated(BoundingBox, x1=x1, y1=y1, x2=x2, y2=y2) for x1, y1, x2, y2 in cols.coords.tolist()]
    nouns, scores = cols.label.tolist(), cols.score.tolist()
    if cols.verb is None:
        return _grouped(cols, [_validated(Detection, box=b, class_id=n, score=s) for b, n, s in zip(boxes, nouns, scores)])
    rows = zip(boxes, nouns, cols.verb.tolist(), cols.ttc.tolist(), scores)
    return _grouped(cols, [_validated(StaInstance, box=b, noun_id=n, verb_id=v, ttc_s=t, score=s) for b, n, v, t, s in rows])


def _hand_keyframes(cols: Columns) -> dict[str, HandKeyframes]:
    """Keyframes by video."""
    flags = cols.visible.reshape(-1, 2).tolist()
    points = [
        _validated(HandPoint, left=(lx, ly), right=(rx, ry), left_visible=lv, right_visible=rv)
        for (lx, ly, rx, ry), (lv, rv) in zip(cols.coords.reshape(-1, 4).tolist(), flags)
    ]
    frames = len(KEYFRAME_TAGS)
    return {
        vid: _validated(HandKeyframes, points=dict(zip(KEYFRAME_TAGS, points[r * frames : (r + 1) * frames])))
        for r, vid in enumerate(cols.groups)
    }


def _action_sequences(cols: LtaColumns) -> list[tuple[ActionLabel, ...]]:
    """Each sequence of ``cols`` as ActionLabels. A file repeats a few
    hundred pairs many times, so equal pairs share one (immutable) label."""
    pairs = list(map(tuple, cols.pairs.tolist()))
    shared = {p: _validated(ActionLabel, verb_id=p[0], noun_id=p[1]) for p in set(pairs)}
    labels = list(map(shared.__getitem__, pairs))
    sizes = np.repeat(cols.lengths, cols.counts)
    return [tuple(labels[end - size : end]) for end, size in zip(np.cumsum(sizes).tolist(), sizes.tolist())]


def _sequences(cols: LtaColumns) -> dict[tuple[str, int], tuple[ActionLabel, ...]]:
    """Ground truth's one sequence by episode."""
    return dict(zip(cols.episodes, _action_sequences(cols)))


def _matrix(scores: tuple[np.ndarray, np.ndarray]) -> ScoreMatrix:
    # The walk checked the rows and stores them as ScoreMatrix does.
    return _validated(ScoreMatrix, verb=scores[0], noun=scores[1])


def _forecasts(cols: LtaColumns) -> dict[tuple[str, int], LtaForecast]:
    """One forecast by episode: its row's candidates and score matrix."""
    seqs = _action_sequences(cols)
    ends = np.cumsum(cols.counts).tolist()
    scores = cols.scores or [None] * len(ends)
    return {
        key: _validated(LtaForecast, clip_index=key[1], candidates=tuple(seqs[end - count : end]), score_matrix=matrix and _matrix(matrix))
        for key, end, count, matrix in zip(cols.episodes, ends, cols.counts.tolist(), scores)
    }


# ---------------------------------------------------------------------------
# The raw annotation walk.
#
# Loaders hand the untyped records of a file, parsed a slice at a time, to
# _walk_sliced, and a parsed tree goes to _walk; the walk reads every field
# of every record once. It checks the field, reporting every violation
# in the file instead of failing at the first, and it notes keys the schema
# does not know. For a clean file it returns the records as arrays: Columns
# for the mq, nlq, sta, scod and fhp schemas and LtaColumns for lta. Each
# field goes through the checker of its kind that the constructors call
# too; the walk adds the cross-field rules (vocabulary ranges, duplicate
# keys) that single values cannot see.
#
# Each of the twelve schemas (mq, nlq, sta, scod, fhp and lta, ground truth
# and predictions) has one _Ranked field spec in _RANKED, which drives the
# column scan, the per-record loop and the allowed keys here, and the
# savers' records in fileio. The header lists of objects (videos, images)
# have one each in _HEADERS, walked the same way, by _walk_list. Every
# slice of a list is first checked a column at a time: _scan takes each
# key's values out of plain dicts that hold exactly the record's keys (those
# a record may omit as the list's first record has them), and _scan_columns
# checks them with the _plain_* checks: exact types (plain floats for reals,
# plain ints for ids) over flattened lists, set membership for ids and
# vectorised range and order checks. The score matrices of a slice are
# checked as one float64 block of verb rows and one of noun rows
# (_plain_matrices), whose numpy row sums settle every row but those near
# the 1e-6 edge, which go to _sums_to_one. A scan accepts only slices in
# which the per-record loop
# would find nothing, and gives the same arrays. Any other slice (a
# violation, an unknown key, an int-valued real, a bool, an id beyond
# int64, an id an earlier slice holds) goes through the per-record loop
# (_loop_ranked), which writes every message in its order and, on a valid
# list, fills the same arrays; _built makes the records of either's, and of
# the generator's draws.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ranked:
    """The layout of one schema, ground truth or predictions; or of the
    entries of a header list.

    ``header`` holds the top-level keys besides ``schema`` and ``instances``
    in file order: ``videos`` (with ``num_classes`` for mq ground truth),
    ``images``, ``resolution`` (fhp ground truth), ``config`` (lta), or
    none. ``fields`` holds each record field as (key, kind, column), in the
    order the per-record loop checks it; a kind that reads several keys
    holds them as a tuple. The kinds:

    - ``id``: a non-empty string; ``listed``: one the header lists;
      ``unique``: one no other record has;
    - ``segment``: the ``start_s``, ``end_s`` pair; ``box``: [x1, y1, x2, y2];
    - ``int``: >= 0, and below the header's ``num_classes`` where it has one;
      ``size``: an int >= 1;
    - ``real``: finite; ``positive``: finite and > 0;
    - ``keyframes``: the hands at the five keyframe tags (``_keyframes``);
    - ``episode``: a ``video_id`` and an int ``clip_index``, with a
      ``clip`` number (0 where a record has none) when it is one of the
      keys, unique together;
    - ``sequence``: one action sequence within the header's ``config``
      (``_sequence``); ``forecast``: ``candidates`` and ``score_matrix``
      (``_forecast``), either of which a record may leave out.

    The column is the ``Columns`` field the values fill (``keyframes``
    fills ``coords`` and ``visible``), or ``group`` for the field that
    groups the rows (a header list's id, an episode); the two action kinds
    fill ``pairs``, ``LtaColumns``'s counts, lengths and pairs, and a
    forecast its scores too. A header list's other columns are named by
    their keys. ``order`` gives the record keys in file order where that is
    not the check order, and ``optional`` the header and record keys a file
    may leave out.
    """

    header: tuple[str, ...]
    fields: tuple[tuple[Any, str, str], ...]
    order: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()

    @property
    def keys(self) -> tuple[str, ...]:
        """The record keys in file order, the order the savers write them."""
        return self.order or tuple(chain.from_iterable(key if type(key) is tuple else (key,) for key, _, _ in self.fields))


_SEGMENT = (("start_s", "end_s"), "segment", "coords")
_CLASS = ("class_id", "int", "label")
_SCORE = ("score", "real", "score")
_SCOD = (("keyframe_id", "listed", "group"), ("box", "box", "coords"), ("noun", "int", "label"))
_STA = _SCOD + (("verb", "int", "verb"), ("ttc_s", "positive", "ttc"))
_FHP = (("video_id", "unique", "group"), ("keyframes", "keyframes", "coords"))
_EPISODE = ("video_id", "clip_index")
_FORECAST = ("candidates", "score_matrix")
_RANKED: dict[str, _Ranked] = {
    "mq/1": _Ranked(("num_classes", "videos"), (("video_id", "listed", "group"), _SEGMENT, _CLASS)),
    "mq-pred/1": _Ranked((), (("video_id", "id", "group"), _SEGMENT, _CLASS, _SCORE)),
    "nlq/1": _Ranked(("videos",), (("video_id", "listed", "video"), _SEGMENT, ("query_id", "unique", "group"))),
    # Files write the query id first; the loop checks it after the segment.
    "nlq-pred/1": _Ranked((), (_SEGMENT, ("query_id", "id", "group"), _SCORE),
                          ("query_id", "start_s", "end_s", "score")),
    "sta/1": _Ranked(("images",), _STA),
    "sta-pred/1": _Ranked(("images",), _STA + (_SCORE,)),
    "scod/1": _Ranked(("images",), _SCOD),
    "scod-pred/1": _Ranked(("images",), _SCOD + (_SCORE,)),
    "fhp/1": _Ranked(("resolution",), _FHP),
    "fhp-pred/1": _Ranked((), _FHP),
    "lta/1": _Ranked(("config",), ((_EPISODE, "episode", "group"), ("sequence", "sequence", "pairs"))),
    # Predictions may leave out the config; their lengths are then checked
    # against ground truth at evaluation time.
    "lta-pred/1": _Ranked(("config",), ((_EPISODE + ("clip",), "episode", "group"), (_FORECAST, "forecast", "pairs")),
                          optional=("config", "clip", *_FORECAST)),
}

# The header lists of objects: one entry per video or keyframe. Not a
# schema, so they stay out of _TOP_KEYS.
_HEADERS: dict[str, _Ranked] = {
    "videos": _Ranked((), (("video_id", "unique", "group"), ("num_frames", "int", "num_frames"), ("fps", "positive", "fps"))),
    "images": _Ranked((), (("keyframe_id", "unique", "group"), ("width", "size", "width"), ("height", "size", "height"))),
}

# Allowed top-level keys; any other key, or a record key not in its spec's
# keys, is reported as unknown, which loaders turn into warnings.
_TOP_KEYS: dict[str, set[str]] = {schema: {"schema", *spec.header, "instances"} for schema, spec in _RANKED.items()}


def _records(listed: Any, name: str, start: int, keys: tuple[str, ...], out: list[str], extras: list[str]) -> Iterator[tuple[str, Any]]:
    """Each object of ``listed``, the ``name`` list's records from index
    ``start`` on, with its location; notes keys not in ``keys``."""
    if not isinstance(listed, list):
        out.append(f"{name}: missing or not a list")
        return
    allowed = set(keys)
    for i, rec in enumerate(listed, start):
        where = f"{name}[{i}]"
        if not _is_object(rec):
            out.append(f"{where}: not an object")
            continue
        if not rec.keys() <= allowed:
            extras.extend(f"{where}: '{k}'" for k in rec if k not in allowed)
        yield where, rec


def _scan(listed: Any, names: tuple[str, ...]) -> list[list] | None:
    """The ``names`` columns of ``listed`` when it is a list of plain dicts
    that each hold exactly those keys; None otherwise."""
    if type(listed) is not list or not set(map(type, listed)) <= {dict} or not set(map(len, listed)) <= {len(names)}:
        return None
    try:
        return [list(map(itemgetter(name), listed)) for name in names]
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
    with np.errstate(over="ignore"):  # an overflow is the violation checked for
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


def _keyframes(kf: Any, where: str, out: list[str]) -> tuple[list[float], list[bool]] | None:
    """The five keyframes' coordinates and visibility flags, in
    ``KEYFRAME_TAGS`` order, each keyframe's hands in ``HANDS`` order."""
    if not _tags(kf, where, out):
        return None
    n = len(out)
    coords: list[float] = []
    flags: list[bool] = []
    for tag in KEYFRAME_TAGS:
        point = kf[tag]
        pwhere = f"{where}.keyframes[{tag}]"
        if not _is_object(point):
            out.append(f"{pwhere}: not an object")
            continue
        left = _point(point.get("left"), "left", pwhere, out)
        right = _point(point.get("right"), "right", pwhere, out)
        visible = point.get("visible", {})
        if "visible" in point:
            ok = _is_object(visible) and set(visible) <= set(HANDS) and all(isinstance(v, bool) for v in visible.values())
            if not ok:
                out.append(f"{pwhere}: visible must map hands to bools")
        if len(out) == n:
            coords += (*left, *right)
            flags += (visible.get("left", True), visible.get("right", True))
    return (coords, flags) if len(out) == n else None


def _resolution(res: Any, out: list[str]) -> tuple[int, int] | None:
    if not (isinstance(res, (list, tuple)) and len(res) == 2 and all(_is_int(v) and v > 0 for v in res)):
        out.append("resolution: must be a [width, height] pair of ints >= 1")
        return None
    return (res[0], res[1])


def _plain_keyframes(col: list) -> tuple[np.ndarray, list[bool]] | None:
    """Valid keyframes: every record's coordinates as one flat array and its
    visibility flags, each in the order ``_keyframes`` gives them."""
    if not _only(col, dict):
        return None
    try:
        points = list(chain.from_iterable(map(itemgetter(*KEYFRAME_TAGS), col)))
        # Each point holds the hands and at most a visibility map besides.
        if not (set(map(len, col)) <= {len(KEYFRAME_TAGS)} and _only(points, dict)):
            return None
        hands = list(chain.from_iterable(map(itemgetter(*HANDS), points)))
    except KeyError:
        return None
    marks = [p.get("visible", {}) for p in points]
    if sum(map(len, points)) != 2 * len(points) + sum("visible" in p for p in points):
        return None
    if not (_only(marks, dict) and set(chain.from_iterable(marks)) <= set(HANDS)):
        return None
    if not (_only(list(chain.from_iterable(map(dict.values, marks))), bool) and _only(hands, list)):
        return None
    coords = _plain_reals(list(chain.from_iterable(hands))) if set(map(len, hands)) <= {2} else None
    return None if coords is None else (coords, [mark.get(hand, True) for mark in marks for hand in HANDS])


def _lta_config(cfg: Any, out: list[str]) -> tuple[int | None, int | None, int | None, int | None]:
    if not _is_object(cfg):
        out.append("config: missing or not an object")
        return _NO_CONFIG
    vals = {name: cfg.get(name) for name in ("z", "c_v", "c_n", "k")}
    for name, v in vals.items():
        if not _is_int(v) or v < 1:
            out.append(f"config.{name}: must be an int >= 1")
            vals[name] = None
    return tuple(vals.values())  # type: ignore[return-value]


def _forecast(rec: Mapping[str, Any], where: str, config: tuple, out: list[str]) -> tuple[Any, Any]:
    """A prediction row's candidates and its score matrix as a (verb, noun)
    pair of read-only float64 arrays, each None when the row has none."""
    cands, matrix = rec.get("candidates"), rec.get("score_matrix")
    if cands is None and matrix is None:
        out.append(f"{where}: needs candidates or score_matrix")
    # The matrix is checked first, since the candidates must match its row
    # count, but its messages follow theirs.
    matrix_out: list[str] = []
    scores = None
    if matrix is not None:
        if not _is_object(matrix) or set(matrix) != {"verb", "noun"}:
            matrix_out.append(f"{where}: score_matrix must have exactly 'verb' and 'noun' rows")
        else:
            scores = _score_matrix(matrix["verb"], matrix["noun"], config[0], f"{where}.score_matrix", matrix_out)
    candidates = None
    if cands is not None:
        rows = None if scores is None else len(scores[0])
        candidates = _candidates(cands, config, rows, True, where, out)
    out += matrix_out
    return candidates, scores


def _plain_matrices(mats: list, z: int | None) -> list[np.ndarray] | None:
    """Probability matrices of plain float rows of one width, z rows each
    when ``z`` is set, as read-only float64 views of one block; None unless
    ``_check_prob_rows`` accepts every matrix (matrices of several widths
    are left to it), as ``_prob_block`` finds."""
    if not _only(mats, list):
        return None
    counts = list(map(len, mats))
    rows = list(chain.from_iterable(mats))
    if 0 in counts or (z is not None and not set(counts) <= {z}) or not _only(rows, list):
        return None
    if not rows:
        return []
    values = list(chain.from_iterable(rows))
    if not rows[0] or len(set(map(len, rows))) > 1 or not _only(values, float):
        return None
    block = np.array(values, dtype=np.float64).reshape(len(rows), -1)
    if not _prob_block(block):
        return None
    block.setflags(write=False)
    return np.split(block, np.cumsum(counts)[:-1].tolist())


def _plain_forecasts(cands: list | None, mats: list | None, config: tuple) -> tuple | None:
    """Valid rows of candidates (action sequences of one length per row)
    and score matrices, either list None where a file has none, as (counts,
    lengths, pairs, scores); a ground-truth sequence is its row's one."""
    z, c_v, c_n, k = config
    if cands is None and mats is None:
        return None
    given, cands = cands is not None, [[]] * len(mats) if cands is None else cands
    if not _only(cands, list):
        return None
    counts = list(map(len, cands))
    seqs = list(chain.from_iterable(cands))
    if (given and 0 in counts) or (k is not None and counts and max(counts) > k) or not _only(seqs, list):
        return None
    # One length per row, z or its first sequence's, never 0; every row has
    # sequences unless the rows hold only scores.
    sizes = np.array(list(map(len, seqs)), dtype=np.intp)
    lengths = sizes[np.cumsum(counts, dtype=np.intp) - counts] if seqs else np.zeros(len(cands), dtype=np.intp)
    if seqs and (0 in sizes or not np.array_equal(sizes, np.repeat(lengths, counts))):
        return None
    if z is not None and (sizes != z).any():
        return None
    flat = list(chain.from_iterable(seqs))
    if not (_only(flat, list) and set(map(len, flat)) <= {2}):
        return None
    verb_ids, noun_ids = (_plain_ints(list(map(itemgetter(i), flat)), bound) for i, bound in ((0, c_v), (1, c_n)))
    if verb_ids is None or noun_ids is None:
        return None
    scores: list = [None] * len(cands)
    if mats is not None:
        if not (_only(mats, dict) and set(map(len, mats)) <= {2}):
            return None
        try:
            verbs, nouns = (list(map(itemgetter(name), mats)) for name in ("verb", "noun"))
        except KeyError:
            return None
        verb, noun = _plain_matrices(verbs, z), _plain_matrices(nouns, z)
        rows = list(map(len, verbs))
        if verb is None or noun is None or rows != list(map(len, nouns)) or (seqs and rows != lengths.tolist()):
            return None
        scores = list(zip(verb, noun))
    return counts, lengths, np.stack((verb_ids, noun_ids), axis=1), scores


def _ranked_header(raw: Mapping[str, Any], spec: _Ranked, out: list[str]) -> tuple[Any, int | None]:
    """The header's ``resolution`` as a (width, height) pair, its
    ``config`` as (z, c_v, c_n, k), or its ``videos`` or ``images`` list
    (its last key), walked by its ``_HEADERS`` spec: each entry's other
    fields by its id, for every entry whose id is a string, in list order;
    and the class bound. Builds no record."""
    known = bound = None
    header = spec.header
    if "resolution" in header:
        known = _resolution(raw.get("resolution"), out)
    elif "config" in header:
        cfg = raw.get("config")
        known = _NO_CONFIG if cfg is None and "config" in spec.optional else _lta_config(cfg, out)
    elif header:
        name = header[-1]
        # Unknown keys in an entry are not reported.
        (cols,), _ = _walk_list(name, [raw.get(name)], _HEADERS[name], None, None, out, [])
        ids, *fields = (col.tolist() if isinstance(col, np.ndarray) else col for col in cols.values())
        # A duplicate keeps its first place; only a clean list's values are used.
        known = {eid: value for eid, value in zip(ids, zip(*fields)) if isinstance(eid, str)}
    if "num_classes" in header:
        bound = raw.get("num_classes")
        if not _is_int(bound) or bound < 1:
            out.append("num_classes: must be an int >= 1")
            bound = None
    return known, bound


def _names(spec: _Ranked, listed: Any) -> tuple[str, ...]:
    """The record keys a scan reads: every record holds the keys a record
    may omit that the first record of ``listed`` holds."""
    first = listed[0] if type(listed) is list and listed and type(listed[0]) is dict else {}
    return tuple(key for key in spec.keys if key in first or key not in spec.optional)


def _episodes(col: Mapping[str, Sequence[Any]]) -> list[tuple]:
    """Each record's (video_id, clip_index, clip); a file without clip
    numbers has them all 0."""
    return list(zip(col["video_id"], col["clip_index"], col.get("clip", [0] * len(col["video_id"]))))


def _scan_columns(col: Mapping[str, Sequence[Any]], spec: _Ranked, known: Any, bound: int | None) -> dict[str, Any] | None:
    """The spec's columns of ``col``, each record key's values in file
    order, when the loop would find nothing in them; None otherwise."""
    columns = {}
    for key, kind, column in spec.fields:
        if kind == "segment":
            value = _plain_segments(*map(col.get, key))
        elif kind == "box":
            value = _plain_boxes(col[key])
        elif kind == "keyframes":
            value = _plain_keyframes(col[key])
        elif kind in ("int", "size"):
            value = _plain_ints(col[key], bound)
        elif kind in ("real", "positive"):
            value = _plain_reals(col[key])
        elif kind == "episode":
            videos, indices = col["video_id"], col["clip_index"]
            plain = _plain_ids(videos) and _plain_ints(indices) is not None and _plain_ints(col.get("clip", [])) is not None
            value = list(zip(videos, indices)) if plain and len(set(_episodes(col))) == len(videos) else None
        elif kind == "sequence":
            value = _plain_forecasts([[seq] for seq in col[key]], None, known)
        elif kind == "forecast":
            value = _plain_forecasts(*map(col.get, key), known)
        else:
            ids = col[key]
            # The types first: a list or object id cannot go in a set.
            plain = _plain_ids(ids, known if kind == "listed" else None)
            value = ids if plain and (kind != "unique" or len(set(ids)) == len(ids)) else None
        if value is None or (kind in ("positive", "size") and not (value > 0).all()):
            return None
        columns[column] = value
    return columns


def _loop_ranked(
    listed: Any, name: str, start: int, spec: _Ranked, known: Any, bound: int | None, seen: set, out: list[str], extras: list[str]
) -> dict[str, list]:
    """The spec's columns of ``listed``, the ``name`` list's records from
    index ``start`` on, each entry's fields checked in the spec's order
    against the ids and episodes in ``seen``, which it adds to. Every entry
    adds its row, faults and all: a walk uses the columns only of a list
    without violations."""
    columns: dict[str, list] = {column: [] for _, _, column in spec.fields}
    for where, rec in _records(listed, name, start, spec.keys, out, extras):
        for key, kind, column in spec.fields:
            value = rec.get(key)
            if kind == "segment":
                value = _segment(*map(rec.get, key), where, out)
            elif kind == "box":
                value = _box(value, where, out)
            elif kind == "keyframes":
                value = _keyframes(value, where, out)
            elif kind == "int":
                _int(value, key, bound, where, out)
            elif kind == "size":
                if not _is_int(value) or value < 1:
                    out.append(f"{where}: {key} must be an int >= 1")
            elif kind in ("real", "positive"):
                value = _real(value, key, kind == "positive", where, out)
            elif kind == "episode":
                value = vid, ci = rec.get("video_id"), rec.get("clip_index")
                clip = rec.get("clip", 0) if "clip" in key else 0
                # & runs every check, so each field is reported.
                if _id(vid, "video_id", where, out) & _int(ci, "clip_index", None, where, out) & _int(clip, "clip", None, where, out):
                    if (vid, ci, clip) in seen:
                        out.append(f"{where}: duplicate (video_id, clip_index, clip) ({vid!r}, {_int_text(ci)}, {_int_text(clip)})")
                    seen.add((vid, ci, clip))
            elif kind == "sequence":
                value = ([value] if _sequence(value, known, where, out) else None), None
            elif kind == "forecast":
                value = _forecast(rec, where, known, out)
            elif _id(value, key, where, out):
                if kind == "listed" and value not in known:
                    out.append(f"{where}: unknown {key} '{value}'")
                elif kind == "unique":
                    if value in seen:
                        out.append(f"{where}: duplicate {key} '{value}'")
                    seen.add(value)
            columns[column].append(value)
    return columns


def _built(spec: _Ranked, cols: dict[str, Any], known: Any) -> Columns | LtaColumns:
    """The records of a clean list's columns, the scan's or the loop's:
    ``LtaColumns`` of one row per episode in file order, or ``Columns`` by
    the group field, in ``known`` order when the header lists its ids, else
    in order of first appearance; ground truth and fhp score 1.0."""
    kinds = {column: kind for _, kind, column in spec.fields}
    if kinds["group"] == "episode":
        actions, forecast = cols["pairs"], kinds["pairs"] == "forecast"
        if type(actions) is list:  # the loop gives each row's (sequences, scores), the scan the arrays
            return LtaColumns.of_rows(cols["group"], [row or () for row, _ in actions], [s for _, s in actions] if forecast else None, known)
        counts, lengths, pairs, scores = actions
        return LtaColumns(tuple(cols["group"]), np.array(counts, dtype=np.intp), lengths, pairs, tuple(scores) if forecast else None, known)
    shape = {"segment": (2,), "box": (4,), "keyframes": (len(KEYFRAME_TAGS), 2, 2)}[kinds["coords"]]
    if kinds["coords"] == "keyframes":  # the scan gives one pair for all records, the loop one each
        kf = cols["coords"]
        cols["coords"], visible = kf if type(kf) is tuple else ([c for c, _ in kf], [v for _, v in kf])
        cols["visible"] = np.asarray(visible, dtype=bool).reshape(-1, *shape[:2])
    groups = {key: g for g, key in enumerate(known)} if kinds["group"] == "listed" else {}
    coords = np.asarray(cols["coords"], dtype=np.float64).reshape(-1, *shape)
    score = cols.get("score", np.ones(len(cols["group"])))
    optional = (cols.get(name) for name in ("label", "verb", "ttc", "video", "visible"))
    return _grouped_columns(groups, cols["group"], coords, score, *optional)


def _walk(raw: Any) -> tuple[list[str], list[str], Any, Any]:
    """Check, scan and build a parsed annotation tree in one pass: its top
    level here, the rest as ``_walk_sliced`` of its ``instances`` as one
    slice.

    Returns the violations, the unknown keys, the file-level part and the
    records, the last two None when there are violations. The file-level
    part is the header as the loaders take it: the resolution, the config,
    or image sizes or ``VideoMeta`` by id, the latter with the class bound
    for mq ground truth. The records are as ``_built`` gives them. The
    input is never mutated.
    """
    if not _is_object(raw):
        return ["top level: not an object"], [], None, None
    schema = raw.get("schema")
    if not isinstance(schema, str):
        return ["schema: missing or not a string"], [], None, None
    if schema not in _TOP_KEYS:
        return [f"schema: unknown schema '{schema}'"], [], None, None
    return _walk_sliced(raw, [raw.get("instances")])  # type: ignore[return-value]  # one slice is never refused


def _joined(parts: list) -> Any:
    """One column of several slices' scans, joined: arrays end to end,
    lists one after another, and a tuple of columns column by column."""
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if type(first) is list:
        return list(chain.from_iterable(parts))
    return tuple(map(_joined, map(list, zip(*parts))))


def _walk_list(
    name: str, slices: Iterable[Any], spec: _Ranked, known: Any, bound: int | None, out: list[str], extras: list[str]
) -> tuple[list[dict[str, Any]], bool]:
    """The spec's columns of each slice of the ``name`` list, and whether
    the scan took every slice. A slice goes through the column scan, with
    the record keys of the list's first record, when the scan takes it and
    none of its ids or episodes is one an earlier slice holds; else through
    the per-record loop, located from the slice's first index. One set of
    ids and episodes spans the slices, so every message and warning is the
    one the loop over the whole list gives. Once ``out`` holds a violation,
    each slice's columns are dropped before the next slice is walked: of a
    faulty list only ``_ranked_header`` reads columns, and its list is one
    slice."""
    parts: list[dict[str, Any]] = []
    seen: set = set()
    start, names, scanned = 0, None, True
    for listed in slices:
        if out:
            parts.clear()
        names = names or _names(spec, listed)
        found = _scan(listed, names)
        col = dict(zip(names, found or ()))
        cols = None if found is None else _scan_columns(col, spec, known, bound)
        keys: list = []  # what no two records may share
        for key, kind, _ in spec.fields if cols is not None else ():
            keys += col[key] if kind == "unique" else _episodes(col) if kind == "episode" else []
        if cols is None or not seen.isdisjoint(keys):
            cols, scanned = _loop_ranked(listed, name, start, spec, known, bound, seen, out, extras), False
        seen.update(keys)
        parts.append(cols)
        start += len(listed) if type(listed) is list else 0
    return parts, scanned


def _walk_sliced(head: Mapping[str, Any], slices: Iterable[Any]) -> tuple[list[str], list[str], Any, Any] | None:
    """What ``_walk`` gives a file of the top-level keys ``head`` whose
    ``instances`` are the records of ``slices`` one after another, as
    ``_walk_list`` walks them; ``head["schema"]`` is one of ``_RANKED``.
    None only for a file without violations whose scan refused one of
    several slices, since the loop's columns do not join the scan's:
    ``_walk`` must read it whole."""
    schema = head["schema"]
    spec = _RANKED[schema]
    out: list[str] = []
    extras = [f"top level: '{k}'" for k in head if k not in _TOP_KEYS[schema]]
    known, bound = _ranked_header(head, spec, out)
    parts, scanned = _walk_list("instances", slices, spec, known, bound, out, extras)
    if out:
        return out, extras, None, None
    if not scanned and len(parts) > 1:
        return None
    header = known
    if "videos" in spec.header:
        header = {vid: _validated(VideoMeta, video_id=vid, num_frames=nf, fps=fps) for vid, (nf, fps) in known.items()}
    records = _built(spec, {column: _joined([p[column] for p in parts]) for column in parts[0]}, known)
    return out, extras, (header, bound) if bound else header, records


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
