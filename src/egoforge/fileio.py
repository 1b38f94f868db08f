"""File formats: JSON annotation schemas, binary features, saved heads.

Every JSON file is tagged with a top-level ``schema`` string. Loading is
strict: missing required fields are errors (SchemaError carries the full
violation list), unrecognized extra keys only warn. Serialization is
canonical, so for every saver save -> load is the identity, and identical
inputs produce byte-identical files: every JSON file has the bytes of
``json.dumps(obj, indent=2)``, the one encoder. Config and report files go
whole through it; the savers of records fill ``render``'s templates, which
hold the layout (key names and nesting) and never data, with the texts of
the values.

Loaders make one walk over each file, ``model._walk_sliced``, which checks
every record and notes its unknown keys; a loader raises the file's
violations as one ``SchemaError`` or warns about its unknown keys. A loader
reads its file a slice at a time, so that its memory is bounded by a slice
and the columns, not by the file's text and its parsed tree: the top-level
keys before ``instances`` one value at a time, then the records in slices
of about ``SLICE_CHARS`` characters, each ending at a record's "}", parsed
by ``json.loads`` and checked by the column scan or, where the scan does
not take a slice, by the per-record loop, with one set of ids across the
slices; the walk joins the scan's columns. A file is read whole, parsed
and walked by ``model._walk``, only when the slices cannot read its text
(a syntax error, a key given twice or after ``instances``, bytes that are
not UTF-8, a read error, a pipe), when it declares another schema, or when
it has no violations but the scan refused one of its several slices; every
message and warning is the whole-file walk's either way. The walk
gives the records as arrays: ``model.Columns`` for mq, nlq, sta, scod and
fhp (ids, scores, TTCs, coordinates and hand visibility, rows in the
loader's group order), and ``model.LtaColumns`` for lta ([verb, noun] pairs
with per-row sequence counts and lengths, and score matrices as read-only
float64 arrays).
Every loader returns its records as a ``model.TypedView`` over those
arrays: typed records, built on first read, and the arrays themselves as
its ``.columns``, which is how ``egoforge eval`` and ``egoforge vote`` work
without one object per row (``load_lta_clip_probs(p).columns`` gives each
clip's (verb, noun) arrays by episode).

Every saver of records writes from columns: typed records become columns
through ``metrics._columns``, ``_fhp_columns`` and ``_lta_columns`` (lta
rows through ``LtaColumns.of_rows``), and the columns of a loaded or
generated ``model.TypedView`` pass as they are.
All twelve savers share ``_save_ranked``, which writes each row through
one ``render.json_template`` of the keys of the schema's field spec,
``model._RANKED``, filled from the ``render.json_texts`` of each column (an
fhp row's keyframes through one more template, ``_KEYFRAMES``; all of an
lta file's ids, and all of its scores, in one call each). A key that
records may leave out is one slot, for the key and its value or nothing.
Every saver first checks what it would write with the walk's own checkers
(the ``videos`` or ``images`` field spec and the ``num_classes``,
``resolution`` and ``config`` rules of ``_ranked_header``, the resolution's
also as ``_resolution``; ``_id``, ``_int`` and ``_sequence``) and refuses
what its loader would refuse, before writing, with a ValueError naming the
schema and the record's key (an lta key that is not a (video_id,
clip_index) pair before anything unpacks it); the checks build no record.
A refused file is neither created nor truncated. ``_write_records`` then
writes the header's text, the records ``WRITE_RECORDS`` at a time as the
template fills them, and the closing text, through one handle, so no text
of the whole file is held in memory.
"""

from __future__ import annotations

import gc
import json
import os
import re
import struct
import warnings
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError, SchemaError
from .heads import LinearHead
from .metrics import MetricReport, _columns, _fhp_columns, _lta_columns
from .model import (
    ActionLabel,
    Columns,
    Detection,
    FeatureMatrix,
    HandKeyframes,
    KEYFRAME_TAGS,
    LtaColumns,
    LtaForecast,
    MomentInstance,
    NlqInstance,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    TypedView,
    VideoMeta,
    _NO_CONFIG,
    _RANKED,
    _answers,
    _boxes,
    _candidates,
    _finite_rows,
    _forecasts,
    _hand_keyframes,
    _id,
    _int,
    _matrix,
    _moments,
    _ranked,
    _ranked_header,
    _resolution,
    _sequence,
    _sequences,
    _walk,
    _walk_sliced,
)
from .render import SLOT, json_list, json_template, json_texts, render_reports
from .synth import SynthConfig

FEATURE_MAGIC = b"EGFT"
HEAD_MAGIC = b"EGHD"
FORMAT_VERSION = 1


def _opened(path: str | Path) -> TextIO:
    try:
        return Path(path).open(encoding="utf-8")
    except OSError as e:
        raise DataError(f"{path}: {e}") from e


def _parsed(path: str | Path, f: TextIO) -> Any:
    """The JSON value of the text of ``f`` from where it stands."""
    try:
        text = f.read()
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    try:
        return json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or a plain ValueError for an integer literal
        # longer than Python's int_max_str_digits.
        raise DataError(f"{path}: not valid JSON ({e})") from e
    except RecursionError as e:
        raise DataError(f"{path}: JSON nested too deeply to read") from e


def _read_json(path: str | Path) -> Any:
    with _opened(path) as f:
        return _parsed(path, f)


# The instances of an annotation file are read in slices of about this many
# characters.
SLICE_CHARS = 1 << 18
_SPACE = " \t\n\r"  # JSON's whitespace
_WS = re.compile(r"[ \t\n\r]*")
# A "}" that may end a record of a list and the "{" that would begin the next.
_CUT = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")
_scan_once = json.JSONDecoder().scan_once


class _Whole(Exception):
    """The text is not one the sliced load reads: the file is read whole."""


class _Text:
    """The unread text of a file, ``text[at:]``, read in blocks as a parse
    needs them."""

    def __init__(self, f: TextIO) -> None:
        self.f, self.text, self.at = f, "", 0

    def more(self) -> bool:
        """Read as much again as is unread, at least a slice; False at the
        end of the file."""
        try:
            block = self.f.read(max(SLICE_CHARS, len(self.text) - self.at))
        except (OSError, ValueError) as e:  # a read error, or bytes that are not UTF-8
            raise _Whole from e
        self.text, self.at = self.text[self.at :] + block, 0
        return bool(block)

    def take(self, parse: Callable[[str, int], tuple[Any, int]]) -> Any:
        """The value ``parse(text, at)`` gives, with ``at`` moved past it; a
        parse that fails is tried again on more text."""
        while True:
            try:
                value, self.at = parse(self.text, self.at)
                return value
            except (ValueError, StopIteration, RecursionError) as e:
                if not self.more():
                    raise _Whole from e


def _past(char: str, text: str, at: int) -> tuple[None, int]:
    """The place past ``char`` after the whitespace at ``at``."""
    at = _WS.match(text, at).end()
    if text[at : at + 1] != char:
        raise ValueError(f"expected {char!r}")
    return None, at + 1


def _head_member(text: str, at: int) -> tuple[tuple[str, Any], int]:
    """The top-level key at ``at`` and its value, then the place past the
    "," after it; the value of ``instances`` is left unread, the place is
    past its "[". A value is taken only with the "," after it, so a number
    cut at the end of the text is not."""
    key, at = _scan_once(text, _WS.match(text, at).end())
    if type(key) is not str:
        raise ValueError("expected a key")
    at = _past(":", text, at)[1]
    if key == "instances":
        return (key, None), _past("[", text, at)[1]
    value, at = _scan_once(text, _WS.match(text, at).end())
    return (key, value), _past(",", text, at)[1]


def _header(text: _Text) -> dict[str, Any]:
    """The top-level keys before ``instances`` and their values, with
    ``text`` past the "[" of ``instances``; raises _Whole for a file that
    does not begin so or holds a key twice."""
    text.take(partial(_past, "{"))
    head: dict[str, Any] = {}
    while True:
        key, value = text.take(_head_member)
        if key == "instances":
            return head
        if key in head:
            raise _Whole
        head[key] = value


def _slices(text: _Text) -> Iterator[list]:
    """The records of the ``instances`` list whose "[" ``text`` is past, a
    slice of about SLICE_CHARS characters at a time, each ending at a "}"
    before ", {"; the last slice holds the rest, which must close the list
    and the file, else _Whole is raised. A "}" where json.loads cannot
    read the slice (it was in a string, or the text is not JSON) is passed
    over for the first past twice the slice's length."""
    size = SLICE_CHARS
    while True:
        start = text.at
        cut = _CUT.search(text.text, start + size)
        if cut is None:
            if text.more():
                continue
            break
        try:
            records = json.loads("[" + text.text[start : cut.start() + 1] + "]")
        except (ValueError, RecursionError):
            size = 2 * (cut.start() + 1 - start)
            continue
        text.at, size = cut.end() - 1, SLICE_CHARS
        yield records
    rest = text.text[text.at :].rstrip(_SPACE)
    rest = rest[:-1].rstrip(_SPACE) if rest.endswith("}") else ""
    if not rest.endswith("]"):
        raise _Whole
    try:
        yield json.loads("[" + rest[:-1] + "]")
    except (ValueError, RecursionError) as e:
        raise _Whole from e


def _sliced(f: TextIO, expect_schema: str) -> tuple[list[str], list[str], Any, Any] | None:
    """``model._walk_sliced`` of the ``expect_schema`` file ``f``, read a
    slice at a time; None, with ``f`` back at its start, for a file of
    another schema, one the walk refuses (one without violations whose
    scan refused one of several slices), one whose text it does not read
    (see ``_header`` and ``_slices``) and one that cannot seek."""
    if not f.seekable():
        return None
    text = _Text(f)
    try:
        head = _header(text)
        walked = _walk_sliced(head, _slices(text)) if head.get("schema") == expect_schema else None
    except _Whole:
        walked = None
    if walked is None:
        f.seek(0)
    return walked


def _load_annotations(path: str | Path, expect_schema: str) -> tuple[Any, Any]:
    """The file-level part and the records of one file, as ``model._walk``
    gives them."""
    # Parsing and walking allocate hundreds of thousands of containers that
    # stay alive and form no cycles, so cyclic collections before the tree
    # is dropped would only re-scan it. Pause the collector meanwhile and
    # leave it as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with _opened(path) as f:
            walked = _sliced(f, expect_schema)
            if walked is None:
                raw = _parsed(path, f)
                if not isinstance(raw, Mapping) or raw.get("schema") != expect_schema:
                    got = raw.get("schema") if isinstance(raw, Mapping) else None
                    raise DataError(f"{path}: expected schema '{expect_schema}', got {got!r}")
                walked = _walk(raw)
                del raw
    finally:
        if collecting:
            gc.enable()
    violations, extras, header, records = walked
    if violations:
        raise SchemaError(str(path), violations)
    for key in extras:
        warnings.warn(f"{path}: unknown key {key}", stacklevel=2)
    return header, records


def require_known(ids: Iterable[str], known: Iterable[str], what: str) -> None:
    """Cross-file referential integrity check; unknown references are errors."""
    known_set = set(known)
    missing = sorted({i for i in ids if i not in known_set})
    if missing:
        raise DataError(f"unknown {what}: {missing[:5]}" + ("" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"))


def _refuse(schema: str, out: list[str]) -> None:
    """Raise the first fault a saver found in what it was asked to write."""
    if out:
        raise ValueError(f"{schema}: {out[0]}")


def _refuse_episodes(schema: str, keys: Iterable[Any]) -> None:
    """Refuse an lta key that is not a (video_id, clip_index) pair, before anything unpacks it."""
    bad = [key for key in keys if not (isinstance(key, tuple) and len(key) == 2)]
    _refuse(schema, [f"{key!r}: an episode key must be a (video_id, clip_index) pair" for key in bad])


def _check_ranked(schema: str, cols: Columns | LtaColumns, header: Mapping[str, Any]) -> None:
    """Refuse what the ``schema`` loader would refuse and the record types
    cannot see: a bad header, an id that is empty or that the header does
    not list, a class id past ``num_classes``, a bad episode key, a
    sequence outside the config. Each row's faults are located at its key."""
    spec = _RANKED[schema]
    out: list[str] = []
    known, bound = _ranked_header(header, spec, out)
    for key, kind, column in spec.fields:
        if kind == "episode":
            for episode in cols.episodes:
                where = repr(episode)
                _id(episode[0], "video_id", where, out)
                _int(episode[1], "clip_index", None, where, out)
        elif kind == "sequence":
            pairs = cols.pairs.tolist()
            for episode, start, length in zip(cols.episodes, cols.starts.tolist(), cols.lengths.tolist()):
                _sequence(pairs[start : start + length], known, repr(episode), out)
        elif column in ("group", "video"):
            rows = [cols.groups[g] for g in cols.code.tolist()]
            for group, value in zip(rows, rows if column == "group" else cols.video):
                if _id(value, key, repr(group), out) and kind == "listed" and value not in known:
                    out.append(f"{group!r}: unknown {key} '{value}'")
        elif kind == "int" and bound is not None:
            for group, label in zip([cols.groups[g] for g in cols.code.tolist()], cols.label.tolist()):
                _int(label, key, bound, repr(group), out)
    _refuse(schema, out)


# The five keyframes of an fhp record as a json_template, and the texts of
# the visibility flags.
_POINT = {"left": [SLOT, SLOT], "right": [SLOT, SLOT], "visible": {"left": SLOT, "right": SLOT}}
_KEYFRAMES = json_template(dict.fromkeys(KEYFRAME_TAGS, _POINT), 3)
_FLAG_TEXT = {False: "false", True: "true"}
# A score matrix as a json_template.
_MATRIX = json_template({"verb": SLOT, "noun": SLOT}, 3)


def _member(key: str) -> str:
    """A record's key after its first, with a slot for its value, as ``json.dumps`` writes it."""
    return f",\n      {json.dumps(key)}: %s"


@cache
def _record_template(schema: str) -> str:
    """One ``schema`` record in the file's ``instances`` list as a
    ``json_template``: the spec's keys in file order, a box as four values;
    a key that records may leave out is one slot for its ``_member`` text."""
    spec = _RANKED[schema]
    boxes = {key for key, kind, _ in spec.fields if kind == "box"}
    template = json_template({key: [SLOT] * 4 if key in boxes else SLOT for key in spec.keys}, 2)
    for key in spec.optional:
        template = template.replace(_member(key), "%s")
    return template


def _sequence_texts(cols: LtaColumns, level: int) -> list[list[str]]:
    """Each row's action sequences as texts ``level`` lists or objects
    deep; one json_texts call renders every id."""
    ids = json_texts(cols.pairs.ravel().tolist())
    pair = json_template([SLOT, SLOT], level + 1)
    pairs = [pair % two for two in zip(ids[::2], ids[1::2])]
    rows = zip(cols.starts.tolist(), cols.counts.tolist(), cols.lengths.tolist())
    return [[json_list(pairs[start + j * n : start + (j + 1) * n], level) for j in range(count)] for start, count, n in rows]


def _matrix_texts(scores: Sequence[tuple[np.ndarray, np.ndarray] | None]) -> list[str | None]:
    """The text of each score matrix, None for a row without one; one
    json_texts call renders every value."""
    cells = iter(json_texts([v for matrix in scores if matrix is not None for a in matrix for v in a.ravel().tolist()]))
    return [
        matrix and _MATRIX % tuple(json_list([json_list(list(islice(cells, a.shape[1])), 5) for _ in range(len(a))], 4) for a in matrix)
        for matrix in scores
    ]


def _save_ranked(path: str | Path, schema: str, cols: Columns | LtaColumns, **header: Any) -> None:
    """Write ``cols`` as a ``schema`` file, the bytes ``json.dumps`` gives:
    the header in the spec's order, then one record per row through the
    schema's record template. Raises ValueError for a file the loader
    would refuse."""
    spec = _RANKED[schema]
    values: dict[str, list[list]] = {}  # the text columns of each file key; None where a row leaves it out
    for key, kind, column in spec.fields:
        if kind == "episode":
            _refuse_episodes(schema, cols.episodes)
            clips = [None] * len(cols.episodes) if cols.clips is None else json_texts(list(cols.clips))
            texts = json_texts([vid for vid, _ in cols.episodes]), json_texts([ci for _, ci in cols.episodes]), clips
            values.update(zip(key, ([t] for t in texts)))
        elif kind == "sequence":
            values[key] = [[seqs[0] for seqs in _sequence_texts(cols, 3)]]
        elif kind == "forecast":
            values["candidates"] = [[json_list(seqs, 3) if seqs else None for seqs in _sequence_texts(cols, 4)]]
            values["score_matrix"] = [_matrix_texts(cols.scores or [None] * len(cols.episodes))]
        elif column == "group":
            group_text = json_texts(list(cols.groups))
            values[key] = [[group_text[g] for g in cols.code.tolist()]]
        elif column == "video":
            values[key] = [json_texts(list(cols.video))]
        elif kind == "segment":
            values.update(zip(key, ([json_texts(c)] for c in cols.coords.T.tolist())))
        elif kind == "box":
            values[key] = [json_texts(c) for c in cols.coords.T.tolist()]
        elif kind == "keyframes":  # one json_texts call renders every coordinate
            coords = np.array(json_texts(cols.coords.ravel().tolist()), dtype=object).reshape(-1, 4)
            flags = np.array([_FLAG_TEXT[v] for v in cols.visible.ravel().tolist()], dtype=object).reshape(-1, 2)
            # Per keyframe: left x, y and right x, y, then the two visibility flags.
            cells = np.hstack((coords, flags)).reshape(len(cols.coords), 6 * len(KEYFRAME_TAGS)).tolist()
            values[key] = [[_KEYFRAMES % tuple(row) for row in cells]]
        elif getattr(cols, column) is None:  # a label that is not an int, or a record without the field
            raise ValueError(f"{schema}: a record has no valid '{key}'")
        else:
            values[key] = [json_texts(getattr(cols, column).tolist())]
    for key in spec.optional:
        if key in values:
            member = _member(key)
            values[key] = [["" if text is None else member % text for text in values[key][0]]]
    _check_ranked(schema, cols, header)
    template = _record_template(schema)
    records = (template % row for row in zip(*(c for key in spec.keys for c in values[key])))
    _write_records(path, {"schema": schema, **{key: header[key] for key in spec.header if key in header}}, records)


def _header_text(value: Any) -> str:
    """The text of a file's header value. A list of objects (``videos``,
    ``images``) is written like the instances, one template of its keys
    filled from the texts of each key's column."""
    if isinstance(value, list) and value and isinstance(value[0], dict):
        keys = list(value[0])
        columns = [json_texts([item[key] for item in value]) for key in keys]
        template = json_template(dict.fromkeys(keys, SLOT), 2)
        return json_list([template % row for row in zip(*columns)], 1)
    return json.dumps(value, indent=2).replace("\n", "\n  ")


# Records are written this many at a time.
WRITE_RECORDS = 256


def _write_records(path: str | Path, head: Mapping[str, Any], records: Iterable[str]) -> None:
    """Write the file of ``head``'s keys and an ``instances`` list last,
    whose records, one level below it, have the texts ``records``, taken
    and written WRITE_RECORDS at a time. The header's text is made before
    ``path`` is opened."""
    before, _, after = json_template(dict.fromkeys([*head, "instances"], SLOT)).rpartition("%s")
    before %= tuple(map(_header_text, head.values()))
    # The list's text is its opening, the records with a separator between
    # them, then its closing; "[]" when it is empty.
    opening, closing = json_list(["%s"], 1).split("%s")
    between = "," + opening[1:]
    records = iter(records)
    with open(path, "w", encoding="utf-8") as f:
        f.write(before)
        lead = opening
        while block := list(islice(records, WRITE_RECORDS)):
            f.write(lead + between.join(block))
            lead = between
        f.write(("[]" if lead == opening else closing) + after + "\n")


# ---------------------------------------------------------------------------
# Moment queries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MqGt:
    """Moment annotations grouped by video."""

    videos: dict[str, VideoMeta]
    num_classes: int
    instances: Mapping[str, tuple[MomentInstance, ...]]


def _keyed_by_id(schema: str, records: Mapping[str, Any], field: str) -> None:
    """Refuse a key of ``records`` that is not the ``field`` of its record:
    the file keeps one of the two, and would load back keyed by it."""
    for key, record in records.items():
        if getattr(record, field) != key:
            raise ValueError(f"{schema}: key {key!r} holds {field} {getattr(record, field)!r}")


def _videos_to_raw(schema: str, videos: Mapping[str, VideoMeta]) -> list[dict]:
    _keyed_by_id(schema, videos, "video_id")
    return [{"video_id": v.video_id, "num_frames": v.num_frames, "fps": v.fps} for v in videos.values()]


def load_mq_gt(path: str | Path) -> MqGt:
    """Moments by video in ``videos`` order, over ``Columns`` labelled with
    the class id, one group per listed video."""
    (videos, num_classes), cols = _load_annotations(path, "mq/1")
    return MqGt(videos=videos, num_classes=num_classes, instances=TypedView(cols, _moments))


def save_mq_gt(path: str | Path, gt: MqGt) -> None:
    _save_ranked(path, "mq/1", _columns(gt.instances, 2), num_classes=gt.num_classes, videos=_videos_to_raw("mq/1", gt.videos))


def load_mq_pred(path: str | Path, known_videos: Iterable[str] | None = None) -> TypedView:
    """Predictions by video, in order of first appearance, over ``Columns``
    labelled with the class id."""
    cols = _load_annotations(path, "mq-pred/1")[1]
    if known_videos is not None:
        require_known(cols, known_videos, "video ids in predictions")
    return TypedView(cols, _ranked)


def save_mq_pred(path: str | Path, preds: Mapping[str, Sequence[RankedSegment]]) -> None:
    _save_ranked(path, "mq-pred/1", _columns(preds, 2))


# ---------------------------------------------------------------------------
# Natural-language queries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NlqGt:
    """Query answer segments; query ids are globally unique."""

    videos: dict[str, VideoMeta]
    queries: Mapping[str, NlqInstance]
    video_of: dict[str, str]

    @classmethod
    def from_columns(cls, videos: dict[str, VideoMeta], cols: Columns) -> NlqGt:
        """The answers over checked ``cols``, one group per query, holding
        each query's video."""
        return cls(videos=videos, queries=TypedView(cols, _answers), video_of=dict(zip(cols.groups, cols.video)))


def load_nlq_gt(path: str | Path) -> NlqGt:
    """Answers by query in file order, over ``Columns`` of one group per
    query, holding each query's video."""
    return NlqGt.from_columns(*_load_annotations(path, "nlq/1"))


def save_nlq_gt(path: str | Path, gt: NlqGt) -> None:
    queries = gt.queries  # a view's columns hold one group per query
    if not isinstance(queries, TypedView):
        _keyed_by_id("nlq/1", queries, "query_id")
    cols = _columns(queries if isinstance(queries, TypedView) else {qid: [q] for qid, q in queries.items()}, 2)
    cols = replace(cols, video=tuple(gt.video_of.get(qid) for qid in cols))
    _save_ranked(path, "nlq/1", cols, videos=_videos_to_raw("nlq/1", gt.videos))


def load_nlq_pred(path: str | Path, known_queries: Iterable[str] | None = None) -> TypedView:
    """Predictions by query, in order of first appearance, over
    ``Columns``."""
    cols = _load_annotations(path, "nlq-pred/1")[1]
    if known_queries is not None:
        require_known(cols, known_queries, "query ids in predictions")
    return TypedView(cols, _ranked)


def save_nlq_pred(path: str | Path, preds: Mapping[str, Sequence[RankedSegment]]) -> None:
    _save_ranked(path, "nlq-pred/1", _columns(preds, 2))


# ---------------------------------------------------------------------------
# Hand forecasting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FhpGt:
    """Hand keyframes per video, with the shared image resolution."""

    resolution: tuple[int, int]
    instances: Mapping[str, HandKeyframes]


def load_fhp_gt(path: str | Path) -> FhpGt:
    """Keyframes by video in file order, over ``Columns`` of one row per
    video."""
    resolution, cols = _load_annotations(path, "fhp/1")
    return FhpGt(resolution=resolution, instances=TypedView(cols, _hand_keyframes))


def save_fhp_gt(path: str | Path, gt: FhpGt) -> None:
    _save_ranked(path, "fhp/1", _fhp_columns(gt.instances), resolution=gt.resolution)


def load_fhp_pred(path: str | Path, known_videos: Iterable[str] | None = None) -> TypedView:
    """Keyframes by video in file order, over ``Columns`` of one row per
    video."""
    cols = _load_annotations(path, "fhp-pred/1")[1]
    if known_videos is not None:
        require_known(cols, known_videos, "video ids in predictions")
    return TypedView(cols, _hand_keyframes)


def save_fhp_pred(path: str | Path, preds: Mapping[str, HandKeyframes]) -> None:
    _save_ranked(path, "fhp-pred/1", _fhp_columns(preds))


# ---------------------------------------------------------------------------
# Long-term forecasting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LtaGt:
    """Future action sequences keyed by (video id, anchor clip index)."""

    z: int
    c_v: int
    c_n: int
    k: int
    sequences: Mapping[tuple[str, int], tuple[ActionLabel, ...]]


def load_lta_gt(path: str | Path) -> LtaGt:
    """Sequences by episode in file order, over ``LtaColumns`` holding the
    config."""
    (z, c_v, c_n, k), cols = _load_annotations(path, "lta/1")
    return LtaGt(z=z, c_v=c_v, c_n=c_n, k=k, sequences=TypedView(cols, _sequences))


def save_lta_gt(path: str | Path, gt: LtaGt) -> None:
    """Write ``gt``, whose sequences may be a view's columns; raises
    ValueError, naming the episode, for a record ``load_lta_gt`` would
    refuse."""
    config = {"z": gt.z, "c_v": gt.c_v, "c_n": gt.c_n, "k": gt.k}
    _save_ranked(path, "lta/1", _lta_columns(gt.sequences), config=config)


def load_lta_pred(path: str | Path) -> TypedView:
    """One finished forecast per episode, over ``LtaColumns``; rows must
    carry candidates."""
    cols = _load_annotations(path, "lta-pred/1")[1]
    seen: set[tuple[str, int]] = set()
    for i, (key, count) in enumerate(zip(cols.episodes, cols.counts.tolist())):
        if key in seen:
            raise DataError(f"{path}: instances[{i}]: several rows for {key}; vote first")
        if not count:
            raise DataError(f"{path}: instances[{i}]: no candidates; vote first")
        seen.add(key)
    return TypedView(cols, _forecasts)


def load_lta_clip_probs(path: str | Path) -> TypedView:
    """Per-clip ``ScoreMatrix`` lists grouped by episode, for voting; the
    clips of an episode must share their matrix shapes. Its columns give
    each clip as its (verb, noun) pair of read-only float64 arrays."""
    out: dict[tuple[str, int], list] = {}
    cols = _load_annotations(path, "lta-pred/1")[1]
    for i, (key, scores) in enumerate(zip(cols.episodes, cols.scores)):
        if scores is None:
            raise DataError(f"{path}: instances[{i}]: voting needs a score_matrix per clip")
        clips = out.setdefault(key, [])
        if clips:
            for name, first, this in zip(("verb", "noun"), clips[0], scores):
                if first.shape != this.shape:
                    raise DataError(f"{path}: instances[{i}]: the {name} matrix of {key} is {this.shape}, an earlier clip's is {first.shape}")
        clips.append(scores)
    return TypedView(out, lambda by_key: {key: [_matrix(scores) for scores in clips] for key, clips in by_key.items()})


def save_lta_pred(
    path: str | Path,
    preds: Mapping[tuple[str, int], LtaForecast | tuple[Sequence[Sequence[tuple[int, int]]], np.ndarray, np.ndarray]],
) -> None:
    """Write finished forecasts. A forecast may also be given as
    ``(candidates, verb, noun)``: (verb id, noun id) pairs, as tuples or
    lists, per candidate and the score matrix as two arrays, the form
    ``egoforge vote`` makes. A forecast's clip index must be its key's, the
    one the file keeps. Raises ValueError, naming the episode, for a record
    ``load_lta_pred`` would refuse. A view's columns are written as they
    are."""
    if isinstance(preds, TypedView):
        _save_ranked(path, "lta-pred/1", _lta_columns(preds))
        return
    _refuse_episodes("lta-pred/1", preds)
    cands, scores = [], []
    out: list[str] = []
    for key, forecast in preds.items():
        if isinstance(forecast, LtaForecast):
            if forecast.clip_index != key[1]:
                out.append(f"the forecast for {key!r} has clip_index {forecast.clip_index}")
            cands.append([[(a.verb_id, a.noun_id) for a in seq] for seq in forecast.candidates])
            m = forecast.score_matrix
            scores.append(None if m is None else (m.verb, m.noun))
        else:
            cands.append(forecast[0])
            scores.append(forecast[1:])
            _candidates(forecast[0], _NO_CONFIG, len(forecast[1]), True, repr(key), out)
    _refuse("lta-pred/1", out)
    _save_ranked(path, "lta-pred/1", LtaColumns.of_rows(preds, cands, scores))


def save_lta_clip_probs(path: str | Path, probs: Mapping[tuple[str, int], Sequence[ScoreMatrix]]) -> None:
    """Write each episode's clip matrices; raises ValueError, naming the
    episode, for a clip ``load_lta_clip_probs`` would refuse."""
    rows = [(key, slot, (m.verb, m.noun)) for key, clips in probs.items() for slot, m in enumerate(clips)]
    episodes, clips, scores = zip(*rows) if rows else ((), (), ())
    _save_ranked(path, "lta-pred/1", LtaColumns.of_rows(episodes, [()] * len(rows), scores, clips=clips))


# ---------------------------------------------------------------------------
# Keyframe boxes (anticipation and plain detection).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StaGt:
    """Anticipation boxes grouped by keyframe."""

    images: dict[str, tuple[int, int]]
    instances: Mapping[str, tuple[StaInstance, ...]]


@dataclass(frozen=True, eq=False)
class ScodGt:
    """Detection boxes grouped by keyframe."""

    images: dict[str, tuple[int, int]]
    instances: Mapping[str, tuple[Detection, ...]]


def _images_to_raw(images: Mapping[str, tuple[int, int]]) -> list[dict]:
    """The ``images`` list; a size that is not a pair has no width or
    height, which the list's field spec refuses."""
    sizes = {kid: wh if isinstance(wh, (tuple, list)) and len(wh) == 2 else (None, None) for kid, wh in images.items()}
    return [{"keyframe_id": kid, "width": w, "height": h} for kid, (w, h) in sizes.items()]


def _load_boxes(path: str | Path, schema: str, known_frames: Iterable[str] | None) -> Any:
    images, cols = _load_annotations(path, schema)
    if known_frames is not None:
        require_known(images, known_frames, "keyframe ids in predictions")
    return (StaGt if schema.startswith("sta") else ScodGt)(images=images, instances=TypedView(cols, _boxes))


def load_sta_gt(path: str | Path) -> StaGt:
    """Boxes by keyframe in ``images`` order, over ``Columns`` labelled
    with the noun, one group per image."""
    return _load_boxes(path, "sta/1", None)


def load_sta_pred(path: str | Path, known_frames: Iterable[str] | None = None) -> StaGt:
    """Predictions by keyframe in ``images`` order, over ``Columns``
    labelled with the noun, one group per image."""
    return _load_boxes(path, "sta-pred/1", known_frames)


def save_sta_gt(path: str | Path, gt: StaGt) -> None:
    _save_ranked(path, "sta/1", _columns(gt.instances, 4), images=_images_to_raw(gt.images))


def save_sta_pred(path: str | Path, pred: StaGt) -> None:
    _save_ranked(path, "sta-pred/1", _columns(pred.instances, 4), images=_images_to_raw(pred.images))


def load_scod_gt(path: str | Path) -> ScodGt:
    """Boxes by keyframe in ``images`` order, over ``Columns`` labelled
    with the class id, one group per image."""
    return _load_boxes(path, "scod/1", None)


def load_scod_pred(path: str | Path, known_frames: Iterable[str] | None = None) -> ScodGt:
    """Predictions by keyframe in ``images`` order, over ``Columns``
    labelled with the class id, one group per image."""
    return _load_boxes(path, "scod-pred/1", known_frames)


def save_scod_gt(path: str | Path, gt: ScodGt) -> None:
    _save_ranked(path, "scod/1", _columns(gt.instances, 4), images=_images_to_raw(gt.images))


def save_scod_pred(path: str | Path, pred: ScodGt) -> None:
    _save_ranked(path, "scod-pred/1", _columns(pred.instances, 4), images=_images_to_raw(pred.images))


# ---------------------------------------------------------------------------
# Binary formats.
#
# A feature file is a 20-byte header (the magic, then little-endian uint32
# version and dim and uint64 row count) and its rows as little-endian
# float32. ``_feature_framing`` holds the header rules for every reader;
# ``_feature_head`` packs a header and refuses a width that it cannot hold.
# ``fuse_feature_files`` streams two files into their fused file in blocks of
# about ``FEATURE_BLOCK_BYTES``, so its memory is a few blocks, not the files.
# ---------------------------------------------------------------------------

FEATURE_BLOCK_BYTES = 1 << 20
_HEADER_BYTES = 20
_CHANGED = "feature file changed while being fused"


def _feature_head(dim: int, rows: int) -> bytes:
    """The header of a file of ``rows`` rows of ``dim`` values; raises
    ValueError for a width past its uint32. (No row count passes its
    uint64: a matrix has fewer than 2**63 rows, and a fused file has its
    inputs' row count.)"""
    if dim > 0xFFFFFFFF:
        raise ValueError(f"a feature file holds at most {0xFFFFFFFF} values per row, got {dim}")
    return FEATURE_MAGIC + struct.pack("<IIQ", FORMAT_VERSION, dim, rows)


def _feature_framing(path: str | Path, head: bytes, size: int) -> tuple[int, int]:
    """Check the framing of the feature file ``path`` of ``size`` bytes
    that starts with ``head``; returns its (dim, rows)."""
    if len(head) < _HEADER_BYTES or head[:4] != FEATURE_MAGIC:
        raise DataError(f"{path}: not a feature file (bad magic)")
    version, dim, rows = struct.unpack("<IIQ", head[4:_HEADER_BYTES])
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported feature file version {version}")
    if dim < 1:
        raise DataError(f"{path}: feature dim must be >= 1")
    expected = _HEADER_BYTES + rows * dim * 4
    if size != expected:
        raise DataError(f"{path}: feature file holds {size} bytes, expected {expected}")
    return dim, rows


def save_features(path: str | Path, features: FeatureMatrix) -> None:
    """Write the flat binary layout: magic, version, dim, rows, float32 data.
    The rows are written from their own buffer when they are C-ordered
    ``<f4`` already, so no copy of the file is made in memory. Raises
    ValueError, before opening ``path``, for a width the header cannot hold."""
    head = _feature_head(features.dim, features.num_rows)
    body = np.ascontiguousarray(features.rows, dtype="<f4")
    with open(path, "wb") as f:
        f.write(head)
        f.write(body)


def load_features(path: str | Path, provenance: str = "stub") -> FeatureMatrix:
    """Read a feature file, checking the framing byte for byte."""
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    dim, rows = _feature_framing(path, blob[:_HEADER_BYTES], len(blob))
    # A view of the bytes read, read-only as FeatureMatrix keeps its rows.
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER_BYTES).reshape(rows, dim)
    try:
        return FeatureMatrix(dim=dim, rows=data, provenance=provenance)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


def _open_features(path: str | Path) -> BinaryIO:
    try:
        return open(path, "rb")
    except OSError as e:
        raise DataError(f"{path}: {e}") from e


def _row_blocks(f: BinaryIO, path: str | Path, dim: int, rows: int, block: int, not_finite: str | None = None) -> Iterator[np.ndarray]:
    """The ``rows`` rows of ``dim`` values that ``f`` holds from where it
    stands, ``block`` rows at a time, each read into the same buffer. A
    short read, or a value that is not finite, raises DataError naming
    ``path`` (the latter with the text ``not_finite`` when given, else that
    of ``FeatureMatrix``'s rule)."""
    buf = np.empty((min(block, rows), dim), dtype="<f4")
    for start in range(0, rows, block):
        part = buf[: rows - start]
        if f.readinto(part) != part.nbytes:
            raise DataError(f"{path}: {_CHANGED}")
        try:
            _finite_rows(part)
        except ValueError as e:
            raise DataError(f"{path}: {not_finite or e}") from e
        yield part


def _block_rows(dim: int) -> int:
    return max(1, FEATURE_BLOCK_BYTES // (4 * dim))


def _check_feature_file(path: str | Path) -> tuple[bytes, int, int]:
    """Check a feature file as ``load_features`` does, its framing, then
    its rows a block at a time; returns its header, dim and rows."""
    with _open_features(path) as f:
        head = f.read(_HEADER_BYTES)
        try:  # a pipe cannot be read twice
            size = f.seek(0, os.SEEK_END)
        except OSError as e:
            raise DataError(f"{path}: {e}") from e
        dim, rows = _feature_framing(path, head, size)
        f.seek(_HEADER_BYTES)
        for _ in _row_blocks(f, path, dim, rows, _block_rows(dim)):
            pass
    return head, dim, rows


def _same_file(a: str | Path, b: str | Path) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # either is missing: the open that follows says so
        return False


def fuse_feature_files(first: str | Path, second: str | Path, out: str | Path) -> None:
    """Write to ``out`` the rows of ``first`` and ``second`` side by side,
    the bytes of ``save_features(out, prefuse_features(load_features(first),
    load_features(second)))``, holding a few blocks of rows in memory.

    A first pass checks ``first`` and then ``second`` as ``load_features``
    does, then that they have as many rows, and raises the messages it
    would. A second pass writes ``out`` from both, a block at a time. An
    input that changes between the passes raises DataError naming it, and
    no output is left. Raises ValueError, before anything is opened, for an
    ``out`` that is one of the inputs, and before ``out`` is opened for a
    fused width the header cannot hold.
    """
    paths = (first, second)
    for path in paths:
        if _same_file(out, path):
            raise ValueError(f"{out}: is the input {path}; the fused file must go elsewhere")
    (head_a, dim_a, rows), (head_b, dim_b, rows_b) = (_check_feature_file(path) for path in paths)
    if rows != rows_b:
        raise ValueError(f"row count mismatch: {rows} != {rows_b}")
    head = _feature_head(dim_a + dim_b, rows)
    block = _block_rows(dim_a + dim_b)
    with _open_features(first) as a, _open_features(second) as b, open(out, "wb") as f:
        try:
            for src, path, expected in ((a, first, head_a), (b, second, head_b)):
                if src.read(_HEADER_BYTES) != expected:
                    raise DataError(f"{path}: {_CHANGED}")
            f.write(head)
            fused = np.empty((min(block, rows), dim_a + dim_b), dtype="<f4")
            blocks_a = _row_blocks(a, first, dim_a, rows, block, _CHANGED)
            for part_a, part_b in zip(blocks_a, _row_blocks(b, second, dim_b, rows, block, _CHANGED)):
                n = len(part_a)
                fused[:n, :dim_a] = part_a
                fused[:n, dim_a:] = part_b
                f.write(fused[:n])
            for src, path in ((a, first), (b, second)):
                if src.read(1):
                    raise DataError(f"{path}: {_CHANGED}")
        except BaseException:
            f.close()
            if os.path.isfile(out):  # not a device such as /dev/stdout
                os.unlink(out)
            raise


_HEAD_KIND_CODES = {"regression_20": 0, "classifier_C": 1}


def save_head(path: str | Path, head: LinearHead) -> None:
    """Write a trained head with float64 parameters, bit-exact round trip."""
    header = HEAD_MAGIC + struct.pack(
        "<IBIIIII",
        FORMAT_VERSION,
        _HEAD_KIND_CODES[head.kind],
        head.z or 0,
        head.c_v or 0,
        head.c_n or 0,
        head.in_dim,
        head.out_dim,
    )
    body = np.ascontiguousarray(head.weight, dtype="<f8").tobytes()
    body += np.ascontiguousarray(head.bias, dtype="<f8").tobytes()
    Path(path).write_bytes(header + body)


def load_head(path: str | Path) -> LinearHead:
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    header_len = 4 + struct.calcsize("<IBIIIII")
    if len(blob) < header_len or blob[:4] != HEAD_MAGIC:
        raise DataError(f"{path}: not a head file (bad magic)")
    version, code, z, c_v, c_n, in_dim, out_dim = struct.unpack("<IBIIIII", blob[4:header_len])
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported head file version {version}")
    kinds = {v: k for k, v in _HEAD_KIND_CODES.items()}
    if code not in kinds:
        raise DataError(f"{path}: unknown head kind code {code}")
    expected = header_len + (out_dim * in_dim + out_dim) * 8
    if len(blob) != expected:
        raise DataError(f"{path}: head file holds {len(blob)} bytes, expected {expected}")
    weight = np.frombuffer(blob, dtype="<f8", offset=header_len, count=out_dim * in_dim)
    bias = np.frombuffer(blob, dtype="<f8", offset=header_len + out_dim * in_dim * 8)
    try:
        return LinearHead(
            kind=kinds[code],
            weight=weight.reshape(out_dim, in_dim).copy(),
            bias=bias.copy(),
            z=z or None,
            c_v=c_v or None,
            c_n=c_n or None,
        )
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Config and report files.
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = "synth-config/1"
REPORT_SCHEMA = "report/1"


def save_config(path: str | Path, config: SynthConfig) -> None:
    raw: dict[str, Any] = {"schema": CONFIG_SCHEMA}
    for f in fields(config):
        value = getattr(config, f.name)
        raw[f.name] = list(value) if isinstance(value, tuple) else value
    Path(path).write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")


def load_config(path: str | Path) -> SynthConfig:
    raw = _read_json(path)
    if not isinstance(raw, Mapping) or raw.get("schema") != CONFIG_SCHEMA:
        raise DataError(f"{path}: expected schema '{CONFIG_SCHEMA}'")
    names = {f.name for f in fields(SynthConfig)}
    missing = sorted(names - set(raw))
    if missing:
        raise SchemaError(str(path), [f"missing key '{k}'" for k in missing])
    for key in raw:
        if key != "schema" and key not in names:
            warnings.warn(f"{path}: unknown key top level: '{key}'", stacklevel=2)
    violations: list[str] = []
    kwargs = {name: raw[name] for name in names}
    kwargs["resolution"] = _resolution(raw["resolution"], violations)
    if violations:
        raise SchemaError(str(path), violations)
    try:
        return SynthConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e


def save_reports(path: str | Path, reports: Sequence[MetricReport]) -> None:
    """Write ``reports`` as a ``report/1`` file, whose layout ``render``
    owns: the text of ``render_reports(reports, "json")``."""
    Path(path).write_text(render_reports(reports, "json"), encoding="utf-8")


def load_reports(path: str | Path) -> list[MetricReport]:
    raw = _read_json(path)
    if not isinstance(raw, Mapping) or raw.get("schema") != REPORT_SCHEMA:
        raise DataError(f"{path}: expected schema '{REPORT_SCHEMA}'")
    try:
        return [MetricReport(**{f.name: rec[f.name] for f in fields(MetricReport)}) for rec in raw["reports"]]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed report file ({e})") from e
