"""Seeded benchmark inputs, written only through egoforge's public savers.

One knob, ``noise`` in [0, 1], scales every kind of damage at once:
jittered segments and boxes, dropped true positives, injected false
positives (round(18 * noise) per ground-truth item, so noise 0.5 gives
about ten ranked candidates per item), permuted scores, forecasting label
substitutions and hand-keyframe jitter. All random draws are made whatever
the noise level and only scaled by it, so raising the noise damages the
same items more; at noise 0 the prediction files equal the perfect ones
``egoforge synth`` writes, byte for byte. The ``key`` argument of the
``noisy_*`` functions selects an independent draw, one per simulated model.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from egoforge import fileio
from egoforge.model import (
    ActionLabel,
    BoundingBox,
    Detection,
    FeatureMatrix,
    HandKeyframes,
    HandPoint,
    KEYFRAME_TAGS,
    LtaForecast,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    TemporalSegment,
)
from egoforge.synth import SynthConfig, SynthDataset, generate_synthetic

MAX_FALSE_POSITIVES = 18
NOISE = 0.5  # the benchmark's level: about ten ranked candidates per ground-truth item
FUSE_MODELS = 3  # simulated models whose NLQ and STA predictions the fuse commands pool

# Stream tags keep each track's noise independent of the others and of the
# dataset generator's own streams.
_NOISE = 0x6E6F
_MQ, _NLQ, _FHP, _LTA, _STA, _SCOD, _PERM, _VOTE, _FEAT, _SUB = range(1, 11)

EVAL_TRACKS = ("mq", "nlq", "fhp", "lta", "sta", "scod")


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([_NOISE, *key]))


# ---------------------------------------------------------------------------
# Noisy candidates for one group (a video, a query or a keyframe).
# ---------------------------------------------------------------------------


def _candidates(
    rng: np.random.Generator,
    truths: Sequence[object],
    noise: float,
    true_positive: Callable[[object, np.ndarray, np.ndarray], object],
    false_positive: Callable[[object, np.ndarray], object],
) -> list[tuple[object, float]]:
    """(item, score) pairs: per truth a jittered hit, then false positives.

    The hit is dropped with probability noise / 2 and scores in
    [1 - noise / 2, 1]; false positives score below 0.9 * (1 - noise / 2),
    so without score permutation hits outrank them.
    """
    n_fp = round(MAX_FALSE_POSITIVES * noise)
    out: list[tuple[object, float]] = []
    for truth in truths:
        u = rng.random(4)
        z = rng.standard_normal(8) * noise
        draws = rng.random((MAX_FALSE_POSITIVES, 8))
        if u[0] >= 0.5 * noise:
            out.append((true_positive(truth, z, u), 1.0 - 0.5 * noise * float(u[1])))
        for d in draws[:n_fp]:
            out.append((false_positive(truth, d), 0.9 * (1.0 - 0.5 * noise) * float(d[0])))
    return out


def _permute_scores(rng: np.random.Generator, scores: list[float], noise: float) -> list[float]:
    # Each score joins the shuffle with probability noise.
    picked = np.flatnonzero(rng.random(len(scores)) < noise)
    out = list(scores)
    for dst, src in zip(picked, picked[rng.permutation(len(picked))]):
        out[dst] = scores[src]
    return out


def _scored(rng: np.random.Generator, pairs: list[tuple[object, float]], noise: float) -> list[tuple[object, float]]:
    scores = _permute_scores(rng, [s for _, s in pairs], noise)
    return [(item, s) for (item, _), s in zip(pairs, scores)]


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def _segment(a: float, b: float, duration: float) -> TemporalSegment:
    lo, hi = sorted((_clamp(a, 0.0, duration), _clamp(b, 0.0, duration)))
    return TemporalSegment(start_s=lo, end_s=hi)


def _jitter_segment(seg: TemporalSegment, z: np.ndarray, duration: float) -> TemporalSegment:
    scale = 0.25 * seg.length_s
    return _segment(seg.start_s + scale * float(z[0]), seg.end_s + scale * float(z[1]), duration)


def _distractor_segment(seg: TemporalSegment, d: np.ndarray, duration: float) -> TemporalSegment:
    # Half are near misses around the truth, half land anywhere in the video.
    length = seg.length_s * (0.5 + float(d[5]))
    if d[1] < 0.5:
        start = seg.start_s + (float(d[2]) - 0.5) * 2.0 * seg.length_s
    else:
        start = float(d[2]) * duration
    return _segment(start, start + length, duration)


def _box(x1: float, y1: float, x2: float, y2: float, w: int, h: int) -> BoundingBox:
    xa, xb = sorted((_clamp(x1, 0.0, float(w)), _clamp(x2, 0.0, float(w))))
    ya, yb = sorted((_clamp(y1, 0.0, float(h)), _clamp(y2, 0.0, float(h))))
    return BoundingBox(x1=xa, y1=ya, x2=xb, y2=yb)


def _jitter_box(box: BoundingBox, z: np.ndarray, w: int, h: int) -> BoundingBox:
    sx = 0.15 * (box.x2 - box.x1)
    sy = 0.15 * (box.y2 - box.y1)
    return _box(
        box.x1 + sx * float(z[0]),
        box.y1 + sy * float(z[1]),
        box.x2 + sx * float(z[2]),
        box.y2 + sy * float(z[3]),
        w,
        h,
    )


def _distractor_box(box: BoundingBox, d: np.ndarray, w: int, h: int) -> BoundingBox:
    bw = (box.x2 - box.x1) * (0.5 + float(d[5]))
    bh = (box.y2 - box.y1) * (0.5 + float(d[6]))
    if d[1] < 0.5:
        x1 = box.x1 + (float(d[2]) - 0.5) * bw
        y1 = box.y1 + (float(d[4]) - 0.5) * bh
    else:
        x1 = float(d[2]) * max(w - bw, 0.0)
        y1 = float(d[4]) * max(h - bh, 0.0)
    return _box(x1, y1, x1 + bw, y1 + bh, w, h)


# ---------------------------------------------------------------------------
# Per-track prediction sets.
# ---------------------------------------------------------------------------


def noisy_mq(ds: SynthDataset, noise: float, key: int = 0) -> dict[str, tuple[RankedSegment, ...]]:
    seed, classes = ds.config.seed, ds.config.mq_num_classes
    out = {}
    for i, meta in enumerate(ds.videos):
        duration = meta.duration_s
        pairs = _candidates(
            _stream(seed, key, _MQ, i),
            ds.mq_gt[meta.video_id],
            noise,
            lambda m, z, u: (_jitter_segment(m.segment, z, duration), m.class_id),
            lambda m, d: (
                _distractor_segment(m.segment, d, duration),
                m.class_id if d[1] < 0.5 else int(d[3] * classes),
            ),
        )
        out[meta.video_id] = tuple(
            RankedSegment(segment=seg, score=s, label=cls)
            for (seg, cls), s in _scored(_stream(seed, key, _PERM, _MQ, i), pairs, noise)
        )
    return out


def noisy_nlq(ds: SynthDataset, noise: float, key: int = 0) -> dict[str, tuple[RankedSegment, ...]]:
    seed = ds.config.seed
    out = {}
    for i, meta in enumerate(ds.videos):
        duration = meta.duration_s
        for q, query in enumerate(ds.nlq_gt[meta.video_id]):
            pairs = _candidates(
                _stream(seed, key, _NLQ, i, q),
                (query,),
                noise,
                lambda t, z, u: _jitter_segment(t.segment, z, duration),
                lambda t, d: _distractor_segment(t.segment, d, duration),
            )
            out[query.query_id] = tuple(
                RankedSegment(segment=seg, score=s, label=query.query_id)
                for seg, s in _scored(_stream(seed, key, _PERM, _NLQ, i, q), pairs, noise)
            )
    return out


def noisy_fhp(ds: SynthDataset, noise: float, key: int = 0) -> dict[str, HandKeyframes]:
    seed = ds.config.seed
    w, h = ds.config.resolution
    out = {}
    for i, meta in enumerate(ds.videos):
        z = _stream(seed, key, _FHP, i).standard_normal((len(KEYFRAME_TAGS), 4)) * (40.0 * noise)
        truth = ds.fhp_gt[meta.video_id]
        points = {}
        for t, tag in enumerate(KEYFRAME_TAGS):
            (lx, ly), (rx, ry) = truth[tag].left, truth[tag].right
            points[tag] = HandPoint(
                left=(_clamp(lx + float(z[t, 0]), 0.0, w - 1.0), _clamp(ly + float(z[t, 1]), 0.0, h - 1.0)),
                right=(_clamp(rx + float(z[t, 2]), 0.0, w - 1.0), _clamp(ry + float(z[t, 3]), 0.0, h - 1.0)),
            )
        out[meta.video_id] = HandKeyframes(points=points)
    return out


def noisy_lta(ds: SynthDataset, noise: float, key: int = 0) -> dict[tuple[str, int], LtaForecast]:
    """1 + round(8 * noise) candidates (at most k), labels substituted at rate noise / 2."""
    cfg = ds.config
    count = min(cfg.k, 1 + round(8 * noise))
    out = {}
    for i, (episode, truth) in enumerate(ds.lta_gt.items()):
        rng = _stream(cfg.seed, key, _LTA, i)
        swap = rng.random((cfg.k, 2, cfg.z)) < 0.5 * noise
        verbs = rng.integers(cfg.c_v, size=(cfg.k, cfg.z))
        nouns = rng.integers(cfg.c_n, size=(cfg.k, cfg.z))
        candidates = tuple(
            tuple(
                ActionLabel(
                    verb_id=int(verbs[c, p]) if swap[c, 0, p] else a.verb_id,
                    noun_id=int(nouns[c, p]) if swap[c, 1, p] else a.noun_id,
                )
                for p, a in enumerate(truth)
            )
            for c in range(count)
        )
        out[episode] = LtaForecast(clip_index=episode[1], candidates=candidates)
    return out


def _frame_video(keyframe_id: str) -> str:
    # Keyframe ids are "<video id>:<tag><n>".
    return keyframe_id.rsplit(":", 1)[0]


def _keyframes_of(ds: SynthDataset, images: Mapping[str, object]) -> list[tuple[int, str]]:
    # (video index, keyframe id) in generation order.
    index = {meta.video_id: i for i, meta in enumerate(ds.videos)}
    return [(index[_frame_video(kid)], kid) for kid in images]


def noisy_sta(ds: SynthDataset, noise: float, key: int = 0) -> dict[str, tuple[StaInstance, ...]]:
    cfg = ds.config
    w, h = cfg.resolution
    out = {}
    for n, (i, kid) in enumerate(_keyframes_of(ds, ds.sta_images)):
        pairs = _candidates(
            _stream(cfg.seed, key, _STA, i, n),
            ds.sta_gt[kid],
            noise,
            lambda t, z, u: (
                _jitter_box(t.box, z, w, h),
                t.noun_id,
                int(u[3] * cfg.c_v) if u[2] < 0.5 * noise else t.verb_id,
                max(0.05, t.ttc_s + 0.3 * float(z[4])),
            ),
            lambda t, d: (
                _distractor_box(t.box, d, w, h),
                t.noun_id if d[1] < 0.5 else int(d[3] * cfg.c_n),
                int(d[7] * cfg.c_v),
                0.3 + 1.7 * float(d[4]),
            ),
        )
        out[kid] = tuple(
            StaInstance(box=box, noun_id=noun, verb_id=verb, ttc_s=ttc, score=s)
            for (box, noun, verb, ttc), s in _scored(_stream(cfg.seed, key, _PERM, _STA, i, n), pairs, noise)
        )
    return out


def noisy_scod(ds: SynthDataset, noise: float, key: int = 0) -> dict[str, tuple[Detection, ...]]:
    cfg = ds.config
    w, h = cfg.resolution
    out = {}
    for n, (i, kid) in enumerate(_keyframes_of(ds, ds.scod_images)):
        pairs = _candidates(
            _stream(cfg.seed, key, _SCOD, i, n),
            ds.scod_gt[kid],
            noise,
            lambda t, z, u: (_jitter_box(t.box, z, w, h), t.class_id),
            lambda t, d: (_distractor_box(t.box, d, w, h), t.class_id if d[1] < 0.5 else int(d[3] * cfg.c_n)),
        )
        out[kid] = tuple(
            Detection(box=box, class_id=cls, score=s)
            for (box, cls), s in _scored(_stream(cfg.seed, key, _PERM, _SCOD, i, n), pairs, noise)
        )
    return out


def noisy_predictions(ds: SynthDataset, noise: float) -> dict[str, dict]:
    """Every track's predictions at one noise level."""
    return {
        "mq": noisy_mq(ds, noise),
        "nlq": noisy_nlq(ds, noise),
        "fhp": noisy_fhp(ds, noise),
        "lta": noisy_lta(ds, noise),
        "sta": noisy_sta(ds, noise),
        "scod": noisy_scod(ds, noise),
    }


# ---------------------------------------------------------------------------
# Writers.
# ---------------------------------------------------------------------------


def write_eval_set(out: str | Path, ds: SynthDataset, preds: Mapping[str, dict], video_ids: Sequence[str] | None = None) -> None:
    """Write the config, ground truth and predictions of every track.

    The layout and file names are those of ``egoforge synth``. With
    ``video_ids`` the files cover only those videos (and their queries,
    episodes and keyframes), which makes oracle-sized subsamples.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = ds.config
    keep = set(ds.video_ids if video_ids is None else video_ids)
    videos = {v.video_id: v for v in ds.videos if v.video_id in keep}

    def of_video(mapping: Mapping, video: Callable[[object], str] = lambda vid: vid) -> dict:
        return {k: v for k, v in mapping.items() if video(k) in keep}

    nlq_gt = {vid: ds.nlq_gt[vid] for vid in videos}
    query_video = {q.query_id: vid for vid, items in nlq_gt.items() for q in items}

    fileio.save_config(out / "config.json", cfg)
    fileio.save_mq_gt(
        out / "gt_mq.json",
        fileio.MqGt(videos=videos, num_classes=cfg.mq_num_classes, instances=of_video(ds.mq_gt)),
    )
    fileio.save_mq_pred(out / "pred_mq.json", of_video(preds["mq"]))
    fileio.save_nlq_gt(
        out / "gt_nlq.json",
        fileio.NlqGt(
            videos=videos,
            queries={q.query_id: q for items in nlq_gt.values() for q in items},
            video_of=query_video,
        ),
    )
    fileio.save_nlq_pred(out / "pred_nlq.json", {q: p for q, p in preds["nlq"].items() if q in query_video})
    fileio.save_fhp_gt(out / "gt_fhp.json", fileio.FhpGt(resolution=cfg.resolution, instances=of_video(ds.fhp_gt)))
    fileio.save_fhp_pred(out / "pred_fhp.json", of_video(preds["fhp"]))
    fileio.save_lta_gt(
        out / "gt_lta.json",
        fileio.LtaGt(z=cfg.z, c_v=cfg.c_v, c_n=cfg.c_n, k=cfg.k, sequences=of_video(ds.lta_gt, lambda e: e[0])),
    )
    fileio.save_lta_pred(out / "pred_lta.json", of_video(preds["lta"], lambda e: e[0]))
    sta_images = of_video(ds.sta_images, _frame_video)
    fileio.save_sta_gt(out / "gt_sta.json", fileio.StaGt(images=sta_images, instances=of_video(ds.sta_gt, _frame_video)))
    fileio.save_sta_pred(
        out / "pred_sta.json", fileio.StaGt(images=sta_images, instances=of_video(preds["sta"], _frame_video))
    )
    scod_images = of_video(ds.scod_images, _frame_video)
    fileio.save_scod_gt(
        out / "gt_scod.json", fileio.ScodGt(images=scod_images, instances=of_video(ds.scod_gt, _frame_video))
    )
    fileio.save_scod_pred(
        out / "pred_scod.json", fileio.ScodGt(images=scod_images, instances=of_video(preds["scod"], _frame_video))
    )


def write_eval_inputs(out: str | Path, seed: int, num_videos: int, noise: float, subsample: int = 0) -> None:
    """The dataset of ``egoforge synth --seed --num-videos`` with noisy predictions.

    With ``subsample`` > 0, also writes ``sub/``: the same files cut down to
    that many videos chosen by the seed.
    """
    ds = generate_synthetic(SynthConfig(seed=seed, num_videos=num_videos))
    preds = noisy_predictions(ds, noise)
    write_eval_set(out, ds, preds)
    if subsample:
        picked = _stream(seed, _SUB).choice(num_videos, size=min(subsample, num_videos), replace=False)
        write_eval_set(Path(out) / "sub", ds, preds, [ds.videos[i].video_id for i in sorted(picked)])


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def clip_probs(seed: int, episodes: int, clips: int, cfg: SynthConfig) -> dict[tuple[str, int], list[ScoreMatrix]]:
    """Per-clip probability rows around a hidden label sequence per episode."""
    out = {}
    for e in range(episodes):
        rng = _stream(seed, _VOTE, e)
        verbs = rng.integers(cfg.c_v, size=cfg.z)
        nouns = rng.integers(cfg.c_n, size=cfg.z)
        rows = []
        for _ in range(clips):
            v = rng.standard_normal((cfg.z, cfg.c_v))
            n = rng.standard_normal((cfg.z, cfg.c_n))
            v[np.arange(cfg.z), verbs] += 1.5
            n[np.arange(cfg.z), nouns] += 1.5
            rows.append(ScoreMatrix(verb=_softmax_rows(v), noun=_softmax_rows(n)))
        out[(f"vote-{e:04d}", cfg.z)] = rows
    return out


def write_forecast_inputs(
    out: str | Path,
    seed: int,
    train_videos: int,
    vote_episodes: int,
    vote_clips: int,
    fuse_videos: int,
    feature_rows: int,
) -> None:
    """Inputs of the train, vote and fuse commands.

    ``config.json`` drives both trainers; ``clips.json`` holds the per-clip
    probabilities to vote; ``nlq_<m>.json`` and ``sta_<m>.json`` are the
    predictions of ``FUSE_MODELS`` models (independent noise at level
    ``NOISE`` on one dataset);
    ``verb.feat`` and ``noun.feat`` are aligned feature files.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = SynthConfig(seed=seed, num_videos=train_videos)
    fileio.save_config(out / "config.json", cfg)
    fileio.save_lta_clip_probs(out / "clips.json", clip_probs(seed, vote_episodes, vote_clips, cfg))
    ds = generate_synthetic(SynthConfig(seed=seed, num_videos=fuse_videos))
    # One box per keyframe to build on, so the fused box count, and with it
    # the time to fuse, does not swing with the seed's 1-3 boxes per frame.
    ds = dataclasses.replace(ds, sta_gt={kid: items[:1] for kid, items in ds.sta_gt.items()})
    for m in range(FUSE_MODELS):
        fileio.save_nlq_pred(out / f"nlq_{m}.json", noisy_nlq(ds, NOISE, key=m + 1))
        fileio.save_sta_pred(out / f"sta_{m}.json", fileio.StaGt(images=dict(ds.sta_images), instances=noisy_sta(ds, NOISE, key=m + 1)))
    rng = _stream(seed, _FEAT)
    for variant in ("verb", "noun"):
        rows = rng.standard_normal((feature_rows, cfg.feature_dim)).astype(np.float32)
        fileio.save_features(out / f"{variant}.feat", FeatureMatrix(dim=cfg.feature_dim, rows=rows, provenance=variant))
