"""Seeded synthetic datasets and hash-derived stub features.

The generator fabricates a small world per track: videos, action moments,
query segments, hand trajectories, action chains, and interaction boxes.
Stub features stand in for video backbones: deterministic pseudo-random
vectors keyed by (video, frame span, variant), optionally biased along
label-dependent directions so the toy heads have something to learn. The
bias strength is the difficulty knob.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .model import (
    ActionLabel,
    BoundingBox,
    Detection,
    HandKeyframes,
    HandPoint,
    KEYFRAME_TAGS,
    MomentInstance,
    NlqInstance,
    StaInstance,
    TemporalSegment,
    VideoMeta,
    _finite,
    _require,
)

STUB_VARIANTS = ("verb", "noun")

# Section tags keeping the per-track random streams independent.
_SEC_VIDEOS, _SEC_MQ, _SEC_NLQ, _SEC_FHP, _SEC_LTA, _SEC_STA, _SEC_SCOD = range(1, 8)


# SynthConfig fields that size loops and arrays, so they must be ints.
_COUNT_FIELDS = ("num_videos", "mq_num_classes", "nlq_queries_per_video", "z", "c_v", "c_n", "k", "feature_dim", "sta_keyframes_per_video")

# Real-valued SynthConfig fields, and the largest magnitude they (and the
# resolution, and the clips per video) may take: the generator multiplies,
# subtracts and counts with them, and larger values overflow that
# arithmetic or make it loop for ages.
_REAL_FIELDS = ("min_video_len_s", "max_video_len_s", "fps", "clip_len_s", "hand_noise_px", "label_strength")
MAX_CONFIG_VALUE = 1e6


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic world."""

    seed: int = 0
    num_videos: int = 12
    min_video_len_s: float = 44.0
    max_video_len_s: float = 60.0
    fps: float = 15.0
    resolution: tuple[int, int] = (1920, 1080)
    mq_num_classes: int = 6
    nlq_queries_per_video: int = 2
    z: int = 20
    c_v: int = 5
    c_n: int = 7
    k: int = 5
    clip_len_s: float = 1.0
    hand_noise_px: float = 4.0
    label_strength: float = 1.2
    feature_dim: int = 192
    sta_keyframes_per_video: int = 2

    def __post_init__(self) -> None:
        _require(isinstance(self.seed, int) and self.seed >= 0, "seed must be an int >= 0")
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an int, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            _require(
                _finite(value) and abs(value) <= MAX_CONFIG_VALUE,
                f"{name} must be a finite real of magnitude at most {MAX_CONFIG_VALUE:g}",
            )
        _require(self.num_videos >= 1, "num_videos must be >= 1")
        _require(self.min_video_len_s > 0, "min_video_len_s must be positive")
        _require(self.max_video_len_s >= self.min_video_len_s, "video length range reversed")
        _require(self.fps > 0, "fps must be positive")
        w, h = self.resolution
        _require(w >= 640 and h >= 480, "resolution too small for the box generator")
        _require(w <= MAX_CONFIG_VALUE and h <= MAX_CONFIG_VALUE, f"resolution sides must be at most {MAX_CONFIG_VALUE:g}")
        _require(self.mq_num_classes >= 1, "mq_num_classes must be >= 1")
        _require(self.nlq_queries_per_video >= 1, "nlq_queries_per_video must be >= 1")
        for name in ("z", "c_v", "c_n", "k"):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1")
        _require(self.c_v * self.c_n >= 2, "need at least two (verb, noun) combinations")
        _require(self.clip_len_s > 0, "clip_len_s must be positive")
        _require(
            self.max_video_len_s <= MAX_CONFIG_VALUE * self.clip_len_s,
            f"videos may hold at most {MAX_CONFIG_VALUE:g} clips of clip_len_s",
        )
        _require(self.hand_noise_px >= 0, "hand_noise_px must be >= 0")
        _require(self.label_strength >= 0, "label_strength must be >= 0")
        _require(self.feature_dim >= 8, "feature_dim must be >= 8")
        _require(self.sta_keyframes_per_video >= 1, "sta_keyframes_per_video must be >= 1")
        # Forecasting needs z future clips plus a long enough history that a
        # 16 s window before the episode stays inside the video.
        _require(
            self.min_video_len_s >= (self.z + 18) * self.clip_len_s,
            "videos too short for forecasting episodes",
        )


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def _hash_rng(*parts: object) -> np.random.Generator:
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


@lru_cache(maxsize=None)
def _class_direction(seed: int, kind: str, variant: str, position: int, cls: int, dim: int) -> np.ndarray:
    vec = _hash_rng("dir", seed, kind, variant, position, cls, dim).standard_normal(dim)
    vec /= np.linalg.norm(vec)
    vec.setflags(write=False)
    return vec


@lru_cache(maxsize=None)
def _fhp_basis(seed: int, variant: str, dim: int) -> np.ndarray:
    rows = _hash_rng("fhp-basis", seed, variant, dim).standard_normal((20, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows.setflags(write=False)
    return rows


def fhp_target_vector(keyframes: HandKeyframes, resolution: tuple[int, int]) -> np.ndarray:
    """Flatten keyframes to the 20 regression targets, normalized by size.

    Layout is keyframe-major: for each tag in canonical order, left x, y
    then right x, y.
    """
    w, h = resolution
    out = np.empty(20, dtype=np.float64)
    i = 0
    for tag in KEYFRAME_TAGS:
        for hand in ("left", "right"):
            x, y = keyframes[tag].coords(hand)
            out[i] = x / w
            out[i + 1] = y / h
            i += 2
    return out


def vector_to_keyframes(vec: np.ndarray, resolution: tuple[int, int]) -> HandKeyframes:
    """Inverse of fhp_target_vector; all hands are marked visible."""
    arr = np.asarray(vec, dtype=np.float64)
    _require(arr.shape == (20,), "keyframe vector must have 20 entries")
    w, h = resolution
    points = {}
    i = 0
    for tag in KEYFRAME_TAGS:
        left = (float(arr[i] * w), float(arr[i + 1] * h))
        right = (float(arr[i + 2] * w), float(arr[i + 3] * h))
        points[tag] = HandPoint(left=left, right=right)
        i += 4
    return HandKeyframes(points=points)


@dataclass(frozen=True, eq=False)
class LatentState:
    """What the generator knows that a real feature extractor would see.

    Exposes label-dependent directions so stub features correlate with the
    ground truth: forecasting episodes contribute one unit direction per
    (position, class) and hand targets project through a fixed basis.
    """

    seed: int
    strength: float
    lta_targets: Mapping[str, tuple[ActionLabel, ...]]
    fhp_targets: Mapping[str, np.ndarray]
    _cache: dict = field(default_factory=dict, repr=False)

    def direction(self, video_id: str, variant: str, dim: int) -> np.ndarray:
        _require(variant in STUB_VARIANTS, f"variant must be one of {STUB_VARIANTS}")
        key = (video_id, variant, dim)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        vec = np.zeros(dim, dtype=np.float64)
        seq = self.lta_targets.get(video_id)
        if seq is not None:
            for pos, label in enumerate(seq):
                cls = label.verb_id if variant == "verb" else label.noun_id
                vec += _class_direction(self.seed, "lta", variant, pos, cls, dim)
        target = self.fhp_targets.get(video_id)
        if target is not None:
            vec += target @ _fhp_basis(self.seed, variant, dim)
        vec = vec * self.strength
        vec.setflags(write=False)
        self._cache[key] = vec
        return vec


def stub_features(
    video_id: str,
    snippet: tuple[int, int],
    dim: int,
    variant: str,
    latent: LatentState | None = None,
) -> np.ndarray:
    """Deterministic stand-in feature vector for one frame span.

    The base vector is pseudo-random noise keyed by every argument via a
    stable hash (never Python's salted hash). With a latent state attached,
    the video's label-dependent direction is mixed in, making the features
    learnable; without one they are pure noise.
    """
    _require(isinstance(video_id, str) and video_id != "", "video_id must be a non-empty string")
    start, end = snippet
    _require(isinstance(start, int) and isinstance(end, int) and 0 <= start < end, "snippet must be an int frame range")
    _require(isinstance(dim, int) and dim >= 1, "dim must be an int >= 1")
    _require(variant in STUB_VARIANTS, f"variant must be one of {STUB_VARIANTS}")
    base = _hash_rng("stub", video_id, start, end, variant, dim).standard_normal(dim)
    if latent is not None:
        base = base + latent.direction(video_id, variant, dim)
    return base.astype(np.float32)


@dataclass(frozen=True, eq=False)
class SynthDataset:
    """Ground truth for every track plus the generator's latent state."""

    config: SynthConfig
    videos: tuple[VideoMeta, ...]
    mq_gt: Mapping[str, tuple[MomentInstance, ...]]
    nlq_gt: Mapping[str, tuple[NlqInstance, ...]]
    fhp_gt: Mapping[str, HandKeyframes]
    clip_ends: Mapping[str, tuple[float, ...]]
    lta_gt: Mapping[tuple[str, int], tuple[ActionLabel, ...]]
    sta_images: Mapping[str, tuple[int, int]]
    sta_gt: Mapping[str, tuple[StaInstance, ...]]
    scod_images: Mapping[str, tuple[int, int]]
    scod_gt: Mapping[str, tuple[Detection, ...]]
    latent: LatentState

    @property
    def video_ids(self) -> tuple[str, ...]:
        return tuple(v.video_id for v in self.videos)

    def episode(self, video_id: str) -> tuple[str, int]:
        for key in self.lta_gt:
            if key[0] == video_id:
                return key
        raise KeyError(f"no forecasting episode for {video_id!r}")


def _segment_within(rng: np.random.Generator, duration: float, min_len: float, max_len: float) -> TemporalSegment:
    length = float(rng.uniform(min_len, max_len))
    start = float(rng.uniform(0.0, max(duration - length, 1e-3)))
    return TemporalSegment(start_s=start, end_s=min(start + length, duration))


def _hand_trajectory(rng: np.random.Generator, w: int, h: int):
    # A smooth closed curve per hand; coordinates stay well inside the frame.
    params = []
    for _ in range(2):
        cx = rng.uniform(0.3 * w, 0.7 * w)
        cy = rng.uniform(0.3 * h, 0.7 * h)
        ax = rng.uniform(0.05 * w, 0.15 * w)
        ay = rng.uniform(0.05 * h, 0.15 * h)
        freq = rng.uniform(0.2, 0.6)
        phase = rng.uniform(0.0, 2 * np.pi)
        params.append((cx, cy, ax, ay, freq, phase))

    def at(t: float) -> list[tuple[float, float]]:
        out = []
        for cx, cy, ax, ay, freq, phase in params:
            out.append((cx + ax * np.sin(freq * t + phase), cy + ay * np.cos(freq * t + phase)))
        return out

    return at


def _random_box(rng: np.random.Generator, w: int, h: int) -> BoundingBox:
    bw = float(rng.uniform(80, min(320, w - 1)))
    bh = float(rng.uniform(80, min(320, h - 1)))
    x1 = float(rng.uniform(0, w - bw))
    y1 = float(rng.uniform(0, h - bh))
    return BoundingBox(x1=x1, y1=y1, x2=x1 + bw, y2=y1 + bh)


def generate_synthetic(config: SynthConfig) -> SynthDataset:
    """Build the full synthetic dataset for one seed.

    Output is byte-for-byte reproducible: every stream is keyed by the seed
    and a section tag, and containers preserve generation order.
    """
    seed = config.seed
    fps = config.fps
    w, h = config.resolution

    videos: list[VideoMeta] = []
    for i in range(config.num_videos):
        rng = _rng(seed, _SEC_VIDEOS, i)
        length = float(rng.uniform(config.min_video_len_s, config.max_video_len_s))
        videos.append(
            VideoMeta(video_id=f"synth-{i:03d}", num_frames=int(round(length * fps)), fps=fps)
        )

    mq_gt: dict[str, tuple[MomentInstance, ...]] = {}
    nlq_gt: dict[str, tuple[NlqInstance, ...]] = {}
    fhp_gt: dict[str, HandKeyframes] = {}
    clip_ends: dict[str, tuple[float, ...]] = {}
    lta_gt: dict[tuple[str, int], tuple[ActionLabel, ...]] = {}
    lta_targets: dict[str, tuple[ActionLabel, ...]] = {}
    fhp_targets: dict[str, np.ndarray] = {}
    sta_images: dict[str, tuple[int, int]] = {}
    sta_gt: dict[str, tuple[StaInstance, ...]] = {}
    scod_images: dict[str, tuple[int, int]] = {}
    scod_gt: dict[str, tuple[Detection, ...]] = {}

    for i, meta in enumerate(videos):
        vid = meta.video_id
        duration = meta.duration_s

        rng = _rng(seed, _SEC_MQ, i)
        moments = []
        for _ in range(int(rng.integers(2, 5))):
            seg = _segment_within(rng, duration, 1.5, 5.0)
            moments.append(MomentInstance(segment=seg, class_id=int(rng.integers(config.mq_num_classes))))
        mq_gt[vid] = tuple(moments)

        rng = _rng(seed, _SEC_NLQ, i)
        queries = []
        for q in range(config.nlq_queries_per_video):
            seg = _segment_within(rng, duration, 1.0, 4.0)
            queries.append(NlqInstance(segment=seg, query_id=f"{vid}:q{q}"))
        nlq_gt[vid] = tuple(queries)

        rng = _rng(seed, _SEC_FHP, i)
        trajectory = _hand_trajectory(rng, w, h)
        t_contact = float(rng.uniform(3.5, duration - 0.5))
        t_pre = t_contact - float(rng.uniform(0.3, 0.8))
        times = {
            "c": t_contact,
            "p": t_pre,
            "p1": t_pre - 0.5,
            "p2": t_pre - 1.0,
            "p3": t_pre - 1.5,
        }
        points = {}
        for tag in KEYFRAME_TAGS:
            (lx, ly), (rx, ry) = trajectory(times[tag])
            jitter = rng.normal(0.0, 1.0, size=4) * config.hand_noise_px
            left = (float(np.clip(lx + jitter[0], 0, w - 1)), float(np.clip(ly + jitter[1], 0, h - 1)))
            right = (float(np.clip(rx + jitter[2], 0, w - 1)), float(np.clip(ry + jitter[3], 0, h - 1)))
            points[tag] = HandPoint(left=left, right=right)
        keyframes = HandKeyframes(points=points)
        fhp_gt[vid] = keyframes
        fhp_targets[vid] = fhp_target_vector(keyframes, config.resolution)

        rng = _rng(seed, _SEC_LTA, i)
        num_clips = int(np.floor(duration / config.clip_len_s + 1e-9))
        verb = int(rng.integers(config.c_v))
        noun = int(rng.integers(config.c_n))
        chain = []
        for _ in range(num_clips):
            chain.append(ActionLabel(verb_id=verb, noun_id=noun))
            if rng.random() >= 0.55:
                verb = int(rng.integers(config.c_v))
            if rng.random() >= 0.55:
                noun = int(rng.integers(config.c_n))
        clip_ends[vid] = tuple((j + 1) * config.clip_len_s for j in range(num_clips))
        anchor = num_clips - config.z
        future = tuple(chain[anchor : anchor + config.z])
        lta_gt[(vid, anchor)] = future
        lta_targets[vid] = future

        rng = _rng(seed, _SEC_STA, i)
        for kf in range(config.sta_keyframes_per_video):
            kf_id = f"{vid}:kf{kf}"
            sta_images[kf_id] = (w, h)
            items = []
            for _ in range(int(rng.integers(1, 4))):
                items.append(
                    StaInstance(
                        box=_random_box(rng, w, h),
                        noun_id=int(rng.integers(config.c_n)),
                        verb_id=int(rng.integers(config.c_v)),
                        ttc_s=float(rng.uniform(0.3, 2.0)),
                    )
                )
            sta_gt[kf_id] = tuple(items)

        rng = _rng(seed, _SEC_SCOD, i)
        for kf in range(config.sta_keyframes_per_video):
            kf_id = f"{vid}:sc{kf}"
            scod_images[kf_id] = (w, h)
            items = []
            for _ in range(int(rng.integers(1, 4))):
                items.append(
                    Detection(box=_random_box(rng, w, h), class_id=int(rng.integers(config.c_n)))
                )
            scod_gt[kf_id] = tuple(items)

    latent = LatentState(
        seed=seed,
        strength=config.label_strength,
        lta_targets=lta_targets,
        fhp_targets=fhp_targets,
    )
    return SynthDataset(
        config=config,
        videos=tuple(videos),
        mq_gt=mq_gt,
        nlq_gt=nlq_gt,
        fhp_gt=fhp_gt,
        clip_ends=clip_ends,
        lta_gt=lta_gt,
        sta_images=sta_images,
        sta_gt=sta_gt,
        scod_images=scod_images,
        scod_gt=scod_gt,
        latent=latent,
    )


def perfect_predictions(ds: SynthDataset) -> dict[str, object]:
    """Prediction structures that mirror the ground truth exactly.

    Useful as a sanity fixture: every evaluator must come back perfect
    (recall and AP 1, displacement and edit distance 0).
    """
    from .model import LtaForecast, RankedSegment  # local to avoid cycle noise

    mq_pred = {
        vid: tuple(
            RankedSegment(segment=m.segment, score=1.0, label=m.class_id) for m in items
        )
        for vid, items in ds.mq_gt.items()
    }
    nlq_pred = {
        q.query_id: (RankedSegment(segment=q.segment, score=1.0, label=q.query_id),)
        for items in ds.nlq_gt.values()
        for q in items
    }
    fhp_pred = dict(ds.fhp_gt)
    lta_pred = {
        key: LtaForecast(clip_index=key[1], candidates=(seq,)) for key, seq in ds.lta_gt.items()
    }
    sta_pred = {kf: tuple(items) for kf, items in ds.sta_gt.items()}
    scod_pred = {kf: tuple(items) for kf, items in ds.scod_gt.items()}
    return {
        "mq": mq_pred,
        "nlq": nlq_pred,
        "fhp": fhp_pred,
        "lta": lta_pred,
        "sta": sta_pred,
        "scod": scod_pred,
    }
