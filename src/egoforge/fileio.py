"""File formats: JSON annotation schemas, binary features, saved heads.

Every JSON file is tagged with a top-level ``schema`` string. Loading is
strict: missing required fields are errors (SchemaError carries the full
violation list), unrecognized extra keys only warn. Serialization is
canonical, so save -> load is the identity and identical inputs produce
byte-identical files: every JSON file goes through one writer,
``render.json_text``, which gives the bytes of ``json.dumps(obj, indent=2)``.

Loaders make one walk over each parsed file, ``model._walk``, which checks
every record, notes its unknown keys and builds its typed object in the same
pass. A loader then only groups the records it gets back, and raises the
file's violations as one ``SchemaError`` or warns about its unknown keys.
``LtaForecast`` and ``ScoreMatrix``, a few hundred per file, keep their
checked constructors.
"""

from __future__ import annotations

import gc
import json
import struct
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, SchemaError
from .heads import LinearHead
from .metrics import MetricReport
from .model import (
    ActionLabel,
    BoundingBox,
    Detection,
    FeatureMatrix,
    HandKeyframes,
    KEYFRAME_TAGS,
    LtaForecast,
    MomentInstance,
    NlqInstance,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    VideoMeta,
    _resolution,
    _walk,
)
from .render import json_text
from .synth import SynthConfig

FEATURE_MAGIC = b"EGFT"
HEAD_MAGIC = b"EGHD"
FORMAT_VERSION = 1


def _read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    try:
        return json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or a plain ValueError for an integer literal
        # longer than Python's int_max_str_digits.
        raise DataError(f"{path}: not valid JSON ({e})") from e


def _write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(json_text(obj) + "\n", encoding="utf-8")


def _load_annotations(path: str | Path, expect_schema: str) -> tuple[Any, list[tuple[Any, Any]]]:
    """The file-level part and the (group key, record) pairs of one file."""
    # Parsing and walking allocate hundreds of thousands of containers that
    # stay alive and form no cycles, so cyclic collections before the tree
    # is dropped would only re-scan it. Pause the collector meanwhile and
    # leave it as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        raw = _read_json(path)
        if not isinstance(raw, Mapping) or raw.get("schema") != expect_schema:
            got = raw.get("schema") if isinstance(raw, Mapping) else None
            raise DataError(f"{path}: expected schema '{expect_schema}', got {got!r}")
        violations, extras, header, records = _walk(raw)
        del raw
    finally:
        if collecting:
            gc.enable()
    if violations:
        raise SchemaError(str(path), violations)
    for key in extras:
        warnings.warn(f"{path}: unknown key {key}", stacklevel=2)
    return header, records


def _grouped(records: Iterable[tuple[Any, Any]], keys: Iterable[Any] = ()) -> dict[Any, tuple]:
    """Records grouped by key: ``keys`` first, then new keys in file order."""
    groups: dict[Any, list] = {key: [] for key in keys}
    for key, record in records:
        groups.setdefault(key, []).append(record)
    return {key: tuple(items) for key, items in groups.items()}


def require_known(ids: Iterable[str], known: Iterable[str], what: str) -> None:
    """Cross-file referential integrity check; unknown references are errors."""
    known_set = set(known)
    missing = sorted({i for i in ids if i not in known_set})
    if missing:
        raise DataError(f"unknown {what}: {missing[:5]}" + ("" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"))


# ---------------------------------------------------------------------------
# Moment queries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MqGt:
    """Moment annotations grouped by video."""

    videos: dict[str, VideoMeta]
    num_classes: int
    instances: dict[str, tuple[MomentInstance, ...]]


def _videos_to_raw(videos: Mapping[str, VideoMeta]) -> list[dict]:
    return [
        {"video_id": v.video_id, "num_frames": v.num_frames, "fps": v.fps}
        for v in videos.values()
    ]


def load_mq_gt(path: str | Path) -> MqGt:
    (videos, num_classes), records = _load_annotations(path, "mq/1")
    return MqGt(videos=videos, num_classes=num_classes, instances=_grouped(records, videos))


def save_mq_gt(path: str | Path, gt: MqGt) -> None:
    _write_json(
        path,
        {
            "schema": "mq/1",
            "num_classes": gt.num_classes,
            "videos": _videos_to_raw(gt.videos),
            "instances": [
                {
                    "video_id": vid,
                    "start_s": m.segment.start_s,
                    "end_s": m.segment.end_s,
                    "class_id": m.class_id,
                }
                for vid, items in gt.instances.items()
                for m in items
            ],
        },
    )


def load_mq_pred(path: str | Path, known_videos: Iterable[str] | None = None) -> dict[str, tuple[RankedSegment, ...]]:
    out = _grouped(_load_annotations(path, "mq-pred/1")[1])
    if known_videos is not None:
        require_known(out, known_videos, "video ids in predictions")
    return out


def save_mq_pred(path: str | Path, preds: Mapping[str, Sequence[RankedSegment]]) -> None:
    _write_json(
        path,
        {
            "schema": "mq-pred/1",
            "instances": [
                {
                    "video_id": vid,
                    "start_s": p.segment.start_s,
                    "end_s": p.segment.end_s,
                    "class_id": p.label,
                    "score": p.score,
                }
                for vid, items in preds.items()
                for p in items
            ],
        },
    )


# ---------------------------------------------------------------------------
# Natural-language queries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NlqGt:
    """Query answer segments; query ids are globally unique."""

    videos: dict[str, VideoMeta]
    queries: dict[str, NlqInstance]
    video_of: dict[str, str]


def load_nlq_gt(path: str | Path) -> NlqGt:
    videos, records = _load_annotations(path, "nlq/1")
    return NlqGt(
        videos=videos,
        queries={q.query_id: q for _, q in records},
        video_of={q.query_id: vid for vid, q in records},
    )


def save_nlq_gt(path: str | Path, gt: NlqGt) -> None:
    _write_json(
        path,
        {
            "schema": "nlq/1",
            "videos": _videos_to_raw(gt.videos),
            "instances": [
                {
                    "video_id": gt.video_of[qid],
                    "start_s": q.segment.start_s,
                    "end_s": q.segment.end_s,
                    "query_id": qid,
                }
                for qid, q in gt.queries.items()
            ],
        },
    )


def load_nlq_pred(path: str | Path, known_queries: Iterable[str] | None = None) -> dict[str, tuple[RankedSegment, ...]]:
    out = _grouped(_load_annotations(path, "nlq-pred/1")[1])
    if known_queries is not None:
        require_known(out, known_queries, "query ids in predictions")
    return out


def save_nlq_pred(path: str | Path, preds: Mapping[str, Sequence[RankedSegment]]) -> None:
    _write_json(
        path,
        {
            "schema": "nlq-pred/1",
            "instances": [
                {
                    "query_id": qid,
                    "start_s": p.segment.start_s,
                    "end_s": p.segment.end_s,
                    "score": p.score,
                }
                for qid, items in preds.items()
                for p in items
            ],
        },
    )


# ---------------------------------------------------------------------------
# Hand forecasting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FhpGt:
    """Hand keyframes per video, with the shared image resolution."""

    resolution: tuple[int, int]
    instances: dict[str, HandKeyframes]


def _keyframes_to_raw(kf: HandKeyframes) -> dict[str, Any]:
    return {
        tag: {
            "left": list(kf[tag].left),
            "right": list(kf[tag].right),
            "visible": {"left": kf[tag].left_visible, "right": kf[tag].right_visible},
        }
        for tag in KEYFRAME_TAGS
    }


def load_fhp_gt(path: str | Path) -> FhpGt:
    resolution, records = _load_annotations(path, "fhp/1")
    return FhpGt(resolution=resolution, instances=dict(records))


def save_fhp_gt(path: str | Path, gt: FhpGt) -> None:
    _write_json(
        path,
        {
            "schema": "fhp/1",
            "resolution": list(gt.resolution),
            "instances": [
                {"video_id": vid, "keyframes": _keyframes_to_raw(kf)}
                for vid, kf in gt.instances.items()
            ],
        },
    )


def load_fhp_pred(path: str | Path, known_videos: Iterable[str] | None = None) -> dict[str, HandKeyframes]:
    out = dict(_load_annotations(path, "fhp-pred/1")[1])
    if known_videos is not None:
        require_known(out, known_videos, "video ids in predictions")
    return out


def save_fhp_pred(path: str | Path, preds: Mapping[str, HandKeyframes]) -> None:
    _write_json(
        path,
        {
            "schema": "fhp-pred/1",
            "instances": [
                {"video_id": vid, "keyframes": _keyframes_to_raw(kf)} for vid, kf in preds.items()
            ],
        },
    )


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
    sequences: dict[tuple[str, int], tuple[ActionLabel, ...]]


def load_lta_gt(path: str | Path) -> LtaGt:
    (z, c_v, c_n, k), records = _load_annotations(path, "lta/1")
    return LtaGt(z=z, c_v=c_v, c_n=c_n, k=k, sequences=dict(records))


def save_lta_gt(path: str | Path, gt: LtaGt) -> None:
    _write_json(
        path,
        {
            "schema": "lta/1",
            "config": {"z": gt.z, "c_v": gt.c_v, "c_n": gt.c_n, "k": gt.k},
            "instances": [
                {
                    "video_id": vid,
                    "clip_index": ci,
                    "sequence": [[a.verb_id, a.noun_id] for a in seq],
                }
                for (vid, ci), seq in gt.sequences.items()
            ],
        },
    )


def _matrix_from_raw(raw: Mapping[str, Any]) -> ScoreMatrix:
    return ScoreMatrix(verb=np.array(raw["verb"]), noun=np.array(raw["noun"]))


def _matrix_to_raw(m: ScoreMatrix) -> dict[str, Any]:
    return {"verb": m.verb.tolist(), "noun": m.noun.tolist()}


def load_lta_pred(path: str | Path) -> dict[tuple[str, int], LtaForecast]:
    """One finished forecast per episode; rows must carry candidates."""
    out: dict[tuple[str, int], LtaForecast] = {}
    for i, (key, (candidates, matrix)) in enumerate(_load_annotations(path, "lta-pred/1")[1]):
        if key in out:
            raise DataError(f"{path}: instances[{i}]: several rows for {key}; vote first")
        if candidates is None:
            raise DataError(f"{path}: instances[{i}]: no candidates; vote first")
        scores = None if matrix is None else _matrix_from_raw(matrix)
        out[key] = LtaForecast(clip_index=key[1], candidates=candidates, score_matrix=scores)
    return out


def load_lta_clip_probs(path: str | Path) -> dict[tuple[str, int], list[ScoreMatrix]]:
    """Per-clip probability rows grouped by episode, for voting."""
    out: dict[tuple[str, int], list[ScoreMatrix]] = {}
    for i, (key, (_, matrix)) in enumerate(_load_annotations(path, "lta-pred/1")[1]):
        if matrix is None:
            raise DataError(f"{path}: instances[{i}]: voting needs a score_matrix per clip")
        out.setdefault(key, []).append(_matrix_from_raw(matrix))
    return out


def save_lta_pred(path: str | Path, preds: Mapping[tuple[str, int], LtaForecast]) -> None:
    instances = []
    for (vid, ci), forecast in preds.items():
        rec: dict[str, Any] = {
            "video_id": vid,
            "clip_index": ci,
            "candidates": [[[a.verb_id, a.noun_id] for a in seq] for seq in forecast.candidates],
        }
        if forecast.score_matrix is not None:
            rec["score_matrix"] = _matrix_to_raw(forecast.score_matrix)
        instances.append(rec)
    _write_json(path, {"schema": "lta-pred/1", "instances": instances})


def save_lta_clip_probs(path: str | Path, probs: Mapping[tuple[str, int], Sequence[ScoreMatrix]]) -> None:
    _write_json(
        path,
        {
            "schema": "lta-pred/1",
            "instances": [
                {
                    "video_id": vid,
                    "clip_index": ci,
                    "clip": slot,
                    "score_matrix": _matrix_to_raw(m),
                }
                for (vid, ci), clips in probs.items()
                for slot, m in enumerate(clips)
            ],
        },
    )


# ---------------------------------------------------------------------------
# Keyframe boxes (anticipation and plain detection).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StaGt:
    """Anticipation boxes grouped by keyframe."""

    images: dict[str, tuple[int, int]]
    instances: dict[str, tuple[StaInstance, ...]]


@dataclass(frozen=True, eq=False)
class ScodGt:
    """Detection boxes grouped by keyframe."""

    images: dict[str, tuple[int, int]]
    instances: dict[str, tuple[Detection, ...]]


def _images_to_raw(images: Mapping[str, tuple[int, int]]) -> list[dict]:
    return [
        {"keyframe_id": kid, "width": wh[0], "height": wh[1]} for kid, wh in images.items()
    ]


def _box_to_raw(box: BoundingBox) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def _load_boxes(path: str | Path, schema: str, container: type) -> Any:
    images, records = _load_annotations(path, schema)
    return container(images=images, instances=_grouped(records, images))


def load_sta_gt(path: str | Path) -> StaGt:
    return _load_boxes(path, "sta/1", StaGt)


def load_sta_pred(path: str | Path, known_frames: Iterable[str] | None = None) -> StaGt:
    out = _load_boxes(path, "sta-pred/1", StaGt)
    if known_frames is not None:
        require_known(out.images, known_frames, "keyframe ids in predictions")
    return out


def _save_boxes(path: str | Path, schema: str, data: StaGt | ScodGt) -> None:
    """Anticipation fields for sta schemas, a score for prediction schemas."""
    sta, scored = schema.startswith("sta"), schema.endswith("-pred/1")
    instances = []
    for kid, items in data.instances.items():
        for inst in items:
            rec: dict[str, Any] = {"keyframe_id": kid, "box": _box_to_raw(inst.box)}
            if sta:
                rec.update(noun=inst.noun_id, verb=inst.verb_id, ttc_s=inst.ttc_s)
            else:
                rec["noun"] = inst.class_id
            if scored:
                rec["score"] = inst.score
            instances.append(rec)
    _write_json(path, {"schema": schema, "images": _images_to_raw(data.images), "instances": instances})


def save_sta_gt(path: str | Path, gt: StaGt) -> None:
    _save_boxes(path, "sta/1", gt)


def save_sta_pred(path: str | Path, pred: StaGt) -> None:
    _save_boxes(path, "sta-pred/1", pred)


def load_scod_gt(path: str | Path) -> ScodGt:
    return _load_boxes(path, "scod/1", ScodGt)


def load_scod_pred(path: str | Path, known_frames: Iterable[str] | None = None) -> ScodGt:
    out = _load_boxes(path, "scod-pred/1", ScodGt)
    if known_frames is not None:
        require_known(out.images, known_frames, "keyframe ids in predictions")
    return out


def save_scod_gt(path: str | Path, gt: ScodGt) -> None:
    _save_boxes(path, "scod/1", gt)


def save_scod_pred(path: str | Path, pred: ScodGt) -> None:
    _save_boxes(path, "scod-pred/1", pred)


# ---------------------------------------------------------------------------
# Binary formats.
# ---------------------------------------------------------------------------


def save_features(path: str | Path, features: FeatureMatrix) -> None:
    """Write the flat binary layout: magic, version, dim, rows, float32 data."""
    header = FEATURE_MAGIC + struct.pack("<IIQ", FORMAT_VERSION, features.dim, features.num_rows)
    body = np.ascontiguousarray(features.rows, dtype="<f4").tobytes()
    Path(path).write_bytes(header + body)


def load_features(path: str | Path, provenance: str = "stub") -> FeatureMatrix:
    """Read a feature file, checking the framing byte for byte."""
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    if len(blob) < 20 or blob[:4] != FEATURE_MAGIC:
        raise DataError(f"{path}: not a feature file (bad magic)")
    version, dim, rows = struct.unpack("<IIQ", blob[4:20])
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported feature file version {version}")
    if dim < 1:
        raise DataError(f"{path}: feature dim must be >= 1")
    expected = 20 + rows * dim * 4
    if len(blob) != expected:
        raise DataError(f"{path}: feature file holds {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", offset=20).reshape(rows, dim).copy()
    try:
        return FeatureMatrix(dim=dim, rows=data, provenance=provenance)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


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
    _write_json(path, raw)


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
    _write_json(
        path,
        {
            "schema": REPORT_SCHEMA,
            "reports": [
                {
                    "name": r.name,
                    "family": r.family,
                    "value": r.value,
                    "count": r.count,
                    "breakdown": dict(r.breakdown),
                }
                for r in reports
            ],
        },
    )


def load_reports(path: str | Path) -> list[MetricReport]:
    raw = _read_json(path)
    if not isinstance(raw, Mapping) or raw.get("schema") != REPORT_SCHEMA:
        raise DataError(f"{path}: expected schema '{REPORT_SCHEMA}'")
    try:
        return [
            MetricReport(
                name=rec["name"],
                value=rec["value"],
                breakdown=rec["breakdown"],
                count=rec["count"],
                family=rec["family"],
            )
            for rec in raw["reports"]
        ]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed report file ({e})") from e
