"""Seeded synthetic datasets and hash-derived stub features.

The generator fabricates a small world per track: videos, action moments,
query segments, hand trajectories, action chains, and interaction boxes.
Stub features stand in for video backbones: deterministic pseudo-random
vectors keyed by (video, frame span, variant), optionally biased along
label-dependent directions so the toy heads have something to learn. The
bias strength is the difficulty knob.

Every (section, video) pair draws from its own PCG64 stream, and the order
of the draws on each stream is part of the byte contract of the files
``synth`` writes. Each stream is numpy's ``PCG64(SeedSequence(key))``, but
no stream builds that seeding chain: ``_pcg64_states`` computes the PCG64
states of a whole batch of keys in one pass (SeedSequence's entropy mix
in uint32 numpy arithmetic, then PCG's seeding step), and the streams of
one call share one ``PCG64``, each putting it at its own state before it
draws. ``generate_synthetic`` seeds each section's streams in one batch,
and ``stub_feature_rows`` its stub rows. The videos, mq, nlq, lta, sta
and scod streams are read as raw 64-bit words through ``_Words``, which
computes from them exactly what numpy's ``Generator`` gives on the same
stream (``random``, ``uniform``, ``integers``) without a numpy call per
draw. The fhp streams share one ``Generator``, whose ``normal`` draw is a
ziggurat: the five keyframes' jitter is one draw of shape (5, 4). A run of
uniform draws (a box's four, a segment's two, a hand trajectory's twelve)
is n ``random`` values scaled as ``lo + (hi - lo) * u``, the value
``uniform(lo, hi)`` gives from the same double.

The draws go into plain lists, one tuple per record of the values its file
holds, in its field spec's key order (``model._RANKED``). Each list goes
once through the loader's column check and builder (``model._scan_columns``
and ``_built``): the generator refuses what the loaders refuse and keeps
the columns they give. ``SynthDataset``'s track mappings, and
``perfect_predictions``, are ``model.TypedView``s of those columns, which
build their records only when read; the savers write them as they are.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .metrics import _columns, _fhp_columns, _lta_columns
from .model import (
    ActionLabel,
    Detection,
    HandKeyframes,
    HandPoint,
    KEYFRAME_TAGS,
    MomentInstance,
    NlqInstance,
    StaInstance,
    TypedView,
    VideoMeta,
    _RANKED,
    _answers,
    _boxes,
    _built,
    _finite,
    _forecasts,
    _hand_keyframes,
    _is_int,
    _moments,
    _ranked,
    _require,
    _scan_columns,
    _sequences,
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
        # The hand generator draws a contact time in [3.5 s, length - 0.5 s]
        # of the shortest video, whose length is a whole number of frames.
        _require(
            round(self.min_video_len_s * self.fps) / self.fps >= 4.0,
            "min_video_len_s must be at least 4 s, counted in whole frames at fps",
        )
        w, h = self.resolution
        _require(w >= 640 and h >= 480, "resolution too small for the box generator")
        _require(w <= MAX_CONFIG_VALUE and h <= MAX_CONFIG_VALUE, f"resolution sides must be at most {MAX_CONFIG_VALUE:g}")
        _require(self.mq_num_classes >= 1, "mq_num_classes must be >= 1")
        _require(self.nlq_queries_per_video >= 1, "nlq_queries_per_video must be >= 1")
        for name in ("z", "c_v", "c_n", "k"):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1")
        _require(self.c_v * self.c_n >= 2, "need at least two (verb, noun) combinations")
        _require(self.clip_len_s > 0, "clip_len_s must be positive")
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
        # The generator's loops: per video, its clips, its queries, and its
        # sta and scod keyframes. Each factor is bounded before the product,
        # so no huge int meets a float.
        per_video = (self.max_video_len_s / self.clip_len_s, self.nlq_queries_per_video, 2 * self.sta_keyframes_per_video)
        _require(
            max(self.num_videos, *per_video) <= MAX_CONFIG_VALUE and self.num_videos * sum(per_video) <= MAX_CONFIG_VALUE,
            f"num_videos x (max_video_len_s / clip_len_s + nlq_queries_per_video + 2 x sta_keyframes_per_video)"
            f" must be at most {MAX_CONFIG_VALUE:g}",
        )
        # The generator draws class ids below each count as int64, and the
        # recipes hold fused feature rows of 2 x feature_dim float64 values,
        # which numpy can size only below 2**63 bytes.
        for name in ("mq_num_classes", "c_v", "c_n"):
            _require(getattr(self, name) <= 2**63, f"{name} must be at most 2**63, so its ids are int64")
        _require(self.feature_dim <= 2**59, "feature_dim must be at most 2**59, so a fused feature row has fewer than 2**63 bytes")


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_LOW32, _LOW64, _LOW128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_BLOCK = 64  # words fetched per numpy call
# random() >= 0.55 exactly when its word is at least this: random() is
# (word >> 11) * 2**-53, and 0.55 * 2**53 is a whole number.
_SWITCH_WORD = int(0.55 * 2**53) << 11

# SeedSequence's hash constants (numpy's bit_generator.pyx), its pool of
# four words, and PCG's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _key_words(key: tuple[int, ...]) -> list[int]:
    """The uint32 words ``SeedSequence(key)`` reads: each int's, low word
    first, and 0 as one word; zeros pad them to ``_POOL`` words, since
    SeedSequence hashes 0 into the pool words it has no entropy for."""
    words = []
    for n in key:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _LOW32)
        n >>= 32
        while n:
            words.append(n & _LOW32)
            n >>= 32
    return words + [0] * (_POOL - len(words))


def _mixed_seeds(words: list[Any]) -> list[Any]:
    """SeedSequence's entropy mix and ``generate_state(8, np.uint32)`` over
    the ``words`` of a key, at least ``_POOL`` of them. Gives the eight
    state words.

    A word is a column: one Python int for one key, or a uint32 array with
    one value per key, since the hash constants run through the same values
    for every key. Masking keeps Python ints to the 32 bits the C code
    keeps; uint32 arrays wrap as it does.
    """
    hash_const = _INIT_A

    def hashmix(value: Any) -> Any:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _LOW32
        value = value * hash_const & _LOW32
        return value ^ value >> 16

    def mix(x: Any, y: Any) -> Any:
        result = (x * _MIX_L - y * _MIX_R) & _LOW32
        return result ^ result >> 16

    pool = [hashmix(word) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _LOW32
        value = value * hash_const & _LOW32
        state.append(value ^ value >> 16)
    return state


# Below this many keys of one word count, the mix runs on Python ints key
# by key: about 15 us a key, against about 150 us of numpy calls a batch on
# 2 vCPU. Small batches are common: experiments.window_trend seeds a few
# stub rows per clip window, and single keys seed the hand basis.
_NUMPY_MIX_KEYS = 16


def _pcg64_states(keys: list[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
    """The ``(state, inc)`` that ``np.random.PCG64(np.random.SeedSequence(key))``
    holds, for every key of non-negative ints, in order.

    SeedSequence's mix runs for all keys of one word count at once, into
    one uint32 array of eight state words per key. Those make four uint64s,
    low word first; PCG64 reads the first two as the high and low halves of
    a 128-bit seed, the last two as those of seq. PCG's seeding step runs
    per key on Python ints as each pair is taken: inc = 2 * seq + 1,
    state = inc, then state = (state + seed) * multiplier + inc, all modulo
    2**128.
    """
    words = [_key_words(key) for key in keys]
    groups: dict[int, list[int]] = {}
    for j, row in enumerate(words):
        groups.setdefault(len(row), []).append(j)
    mixed = np.empty((len(keys), 2 * _POOL), dtype="<u4")
    for rows in groups.values():
        if len(rows) < _NUMPY_MIX_KEYS:
            for j in rows:
                mixed[j] = _mixed_seeds(words[j])
        else:
            mixed[rows] = np.stack(_mixed_seeds(list(np.array([words[j] for j in rows], dtype=np.uint32).T)), axis=1)
    del words, groups  # only the compact array outlives the mix
    for row in mixed.view("<u8"):
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _LOW128
        yield (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _LOW128, inc


def _seat(bits: np.random.PCG64, state: tuple[int, int]) -> None:
    """Put ``bits`` at ``state``, as freshly seeded: no buffered half word."""
    bits.state = {"bit_generator": "PCG64", "state": {"state": state[0], "inc": state[1]}, "has_uint32": 0, "uinteger": 0}


def _bits() -> np.random.PCG64:
    """A bit generator for one call's streams; each seats it before it draws."""
    return np.random.PCG64(0)


def _blocks(bits: np.random.PCG64, state: tuple[int, int]) -> Iterator[list[int]]:
    """The words of the stream at ``state``, ``_BLOCK`` at a time, drawn on
    ``bits``. Each block first seats ``bits`` at the stream's place (past the
    words already read), so streams sharing ``bits`` may interleave."""
    for read in itertools.count(0, _BLOCK):
        _seat(bits, state)
        if read:
            bits.advance(read)
        yield bits.random_raw(_BLOCK).tolist()


class _Words:
    """The stream ``np.random.default_rng(np.random.SeedSequence(key))``
    wraps, read as 64-bit words.

    ``_Words(*key)`` seeds its own bit generator; ``_streams`` gives one
    per key of a batch, seeded in one pass on one shared bit generator.
    Two numpy identities hold the stream to numpy's: ``_pcg64_states``
    gives the state SeedSequence's mix gives, and the words below give
    exactly the values ``Generator`` gives from the same stream, without a
    numpy call per draw:

    - ``random()`` is ``(word >> 11) * 2**-53``, one word per value;
    - ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``;
    - ``integers(lo, hi)`` is Lemire's bounded method on c = hi - lo values.
      A one-value range draws nothing. Up to 2**32 values it takes 32-bit
      halves: the low half of a fresh word first, the high half kept for
      the next ``integers`` call (``random`` never uses it); a draw is
      rejected while ``(m & 0xFFFFFFFF) < (2**32 - c) % c``. Wider ranges
      take whole words the same way.
    """

    __slots__ = ("next_word", "_half")

    def __init__(self, *key: int) -> None:
        self._start(_bits(), next(_pcg64_states([key])))

    def _start(self, bits: np.random.PCG64, state: tuple[int, int]) -> None:
        self.next_word = itertools.chain.from_iterable(_blocks(bits, state)).__next__
        self._half: int | None = None

    def random(self, size: int | None = None) -> float | list[float]:
        """One double, or a list of ``size`` of them."""
        next_word = self.next_word
        if size is None:
            return (next_word() >> 11) * _TO_UNIT
        return [(next_word() >> 11) * _TO_UNIT for _ in range(size)]

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi), refusing what ``Generator.integers`` refuses."""
        if lo < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if hi - 1 > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if lo >= hi:
            raise ValueError("low >= high")
        c = hi - lo
        if c == 1:
            return lo
        if c > 2**32:
            while True:
                m = self.next_word() * c
                if (m & _LOW64) >= (2**64 - c) % c:
                    return lo + (m >> 64)
        while True:
            if self._half is None:
                word = self.next_word()
                x, self._half = word & _LOW32, word >> 32
            else:
                x, self._half = self._half, None
            m = x * c
            if (m & _LOW32) >= (2**32 - c) % c:
                return lo + (m >> 32)


def _streams(bits: np.random.PCG64, keys: list[tuple[int, ...]]) -> Iterator[_Words]:
    """``_Words(*key)`` for every key, seeded in one pass and drawing on ``bits``."""
    for state in _pcg64_states(keys):
        words = _Words.__new__(_Words)
        words._start(bits, state)
        yield words


def _hash_rngs(keys: list[tuple[object, ...]]) -> Iterator[np.random.Generator]:
    """For every key, a generator at the start of the stream
    ``np.random.default_rng(n)``, n the 128-bit blake2b hash of the key's
    parts. All keys are seeded in one pass and share one generator, seated
    at each key's stream as it is given: draw from it before the next."""
    hashes = []
    for parts in keys:
        text = "\x1f".join(map(str, parts))
        hashes.append((int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest(), "little"),))
    bits = _bits()
    rng = np.random.Generator(bits)
    for state in _pcg64_states(hashes):
        _seat(bits, state)
        yield rng


# The unit direction of each ("dir", seed, kind, variant, position, class,
# dim) key drawn so far.
_CLASS_DIRECTIONS: dict[tuple, np.ndarray] = {}


def _class_directions(keys: list[tuple]) -> list[np.ndarray]:
    """The unit direction of every key; those not drawn before are seeded
    in one pass and kept."""
    new = [key for key in dict.fromkeys(keys) if key not in _CLASS_DIRECTIONS]
    for key, rng in zip(new, _hash_rngs(new)):
        vec = rng.standard_normal(key[-1])
        vec /= np.linalg.norm(vec)
        vec.setflags(write=False)
        _CLASS_DIRECTIONS[key] = vec
    return [_CLASS_DIRECTIONS[key] for key in keys]


@lru_cache(maxsize=None)
def _fhp_basis(seed: int, variant: str, dim: int) -> np.ndarray:
    rows = next(_hash_rngs([("fhp-basis", seed, variant, dim)])).standard_normal((20, dim))
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
        return self.directions([(video_id, variant)], dim)[0]

    def directions(self, rows: Sequence[tuple[str, str]], dim: int) -> list[np.ndarray]:
        """``direction(video_id, variant, dim)`` for every ``(video_id,
        variant)`` row; the class directions not drawn before are seeded in
        one pass."""
        todo = [key for key in dict.fromkeys((video_id, variant, dim) for video_id, variant in rows) if key not in self._cache]
        classes = []
        for video_id, variant, _ in todo:
            _require(variant in STUB_VARIANTS, f"variant must be one of {STUB_VARIANTS}")
            seq = self.lta_targets.get(video_id, ())
            classes.append([label.verb_id if variant == "verb" else label.noun_id for label in seq])
        units = iter(
            _class_directions(
                [("dir", self.seed, "lta", variant, pos, cls, dim) for (_, variant, _), ids in zip(todo, classes) for pos, cls in enumerate(ids)]
            )
        )
        for (video_id, variant, _), ids in zip(todo, classes):
            vec = np.zeros(dim, dtype=np.float64)
            for unit in itertools.islice(units, len(ids)):
                vec += unit
            target = self.fhp_targets.get(video_id)
            if target is not None:
                vec += target @ _fhp_basis(self.seed, variant, dim)
            vec = vec * self.strength
            vec.setflags(write=False)
            self._cache[(video_id, variant, dim)] = vec
        return [self._cache[(video_id, variant, dim)] for video_id, variant in rows]


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
    return stub_feature_rows([(video_id, snippet, variant)], dim, latent)[0]


def stub_feature_rows(
    rows: Sequence[tuple[str, tuple[int, int], str]],
    dim: int,
    latent: LatentState | None = None,
) -> np.ndarray:
    """``stub_features(video_id, snippet, dim, variant, latent)`` for every
    ``(video_id, snippet, variant)`` row, as one float32 (rows, dim) array;
    the rows' streams are seeded in one pass."""
    _require(_is_int(dim) and dim >= 1, "dim must be an int >= 1")
    keys = []
    for video_id, snippet, variant in rows:
        _require(isinstance(video_id, str) and video_id != "", "video_id must be a non-empty string")
        start, end = snippet
        _require(_is_int(start) and _is_int(end) and 0 <= start < end, "snippet must be an int frame range")
        _require(variant in STUB_VARIANTS, f"variant must be one of {STUB_VARIANTS}")
        keys.append(("stub", video_id, start, end, variant, dim))
    # One row's float64 draw first: a width past memory is a MemoryError.
    base = np.empty(dim)
    out = np.empty((len(rows), dim), dtype=np.float32)
    directions = itertools.repeat(None) if latent is None else latent.directions([(video_id, variant) for video_id, _, variant in rows], dim)
    for row, rng, direction in zip(out, _hash_rngs(keys), directions):
        rng.standard_normal(out=base)
        if direction is None:
            row[:] = base
        else:
            np.add(base, direction, out=row, casting="same_kind")  # summed in float64, then rounded
    return out


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

    @cached_property
    def _episodes(self) -> dict[str, tuple[str, int]]:
        """Each video's first episode, read from a view's columns."""
        keys = self.lta_gt.columns.episodes if isinstance(self.lta_gt, TypedView) else tuple(self.lta_gt)
        return {key[0]: key for key in reversed(keys)}

    def episode(self, video_id: str) -> tuple[str, int]:
        if video_id not in self._episodes:
            raise KeyError(f"no forecasting episode for {video_id!r}")
        return self._episodes[video_id]


def _segment_within(words: _Words, duration: float, min_len: float, max_len: float) -> tuple[float, float]:
    u_len, u_start = words.random(2)
    length = min_len + (max_len - min_len) * u_len
    start = max(duration - length, 1e-3) * u_start
    return start, min(start + length, duration)


def _hand_trajectory(rng: np.random.Generator, w: int, h: int):
    # A smooth closed curve per hand; coordinates stay well inside the frame.
    # Per hand: centre x, y, amplitude x, y, frequency and phase.
    bounds = ((0.3 * w, 0.7 * w), (0.3 * h, 0.7 * h), (0.05 * w, 0.15 * w), (0.05 * h, 0.15 * h), (0.2, 0.6), (0.0, 2 * np.pi))
    values = [lo + (hi - lo) * u for (lo, hi), u in zip(bounds * 2, rng.random(12).tolist())]
    params = (values[:6], values[6:])

    def at(t: float) -> list[tuple[float, float]]:
        out = []
        for cx, cy, ax, ay, freq, phase in params:
            out.append((cx + ax * float(np.sin(freq * t + phase)), cy + ay * float(np.cos(freq * t + phase))))
        return out

    return at


def _random_box(words: _Words, w: int, h: int) -> list[float]:
    u_w, u_h, u_x, u_y = words.random(4)
    bw = 80.0 + (min(320, w - 1) - 80.0) * u_w
    bh = 80.0 + (min(320, h - 1) - 80.0) * u_h
    x1 = (w - bw) * u_x
    y1 = (h - bh) * u_y
    return [x1, y1, x1 + bw, y1 + bh]


def _track_columns(track: str, rows: list[tuple], known: Any, bound: int | None = None) -> Any:
    """The columns the ``track`` ground-truth loader gives for ``rows``, under
    the header's ``known`` and ``bound``; refuses what the loader refuses."""
    spec = _RANKED[f"{track}/1"]
    cols = _scan_columns(dict(zip(spec.keys, zip(*rows))), spec, known, bound)
    if cols is None:
        raise ValueError(f"synth {track}: a drawn value is one its loader would refuse")
    return _built(spec, cols, known)


def _answers_by_video(cols: Any) -> dict[str, tuple[NlqInstance, ...]]:
    # The generator writes each video's queries one after another.
    rows = itertools.groupby(zip(cols.video, _answers(cols).values()), key=lambda row: row[0])
    return {vid: tuple(answer for _, answer in group) for vid, group in rows}


def generate_synthetic(config: SynthConfig) -> SynthDataset:
    """Build the full synthetic dataset for one seed.

    Output is byte-for-byte reproducible: every stream is keyed by the seed
    and a section tag, and containers preserve generation order. Each
    track's draws are checked and built by its loader's column scan, and
    its mapping is a ``TypedView`` of those columns.
    """
    seed = config.seed
    fps = config.fps
    w, h = config.resolution
    c_v, c_n = config.c_v, config.c_n
    # Each section's streams are seeded in one pass and draw on one bit
    # generator; a section's records are drawn video by video.
    bits = _bits()

    def keys(section: int) -> list[tuple[int, int, int]]:
        return [(seed, section, i) for i in range(config.num_videos)]

    videos = [
        VideoMeta(video_id=f"synth-{i:03d}", num_frames=int(round(words.uniform(config.min_video_len_s, config.max_video_len_s) * fps)), fps=fps)
        for i, words in enumerate(_streams(bits, keys(_SEC_VIDEOS)))
    ]
    video_ids = tuple(v.video_id for v in videos)

    # One tuple per record, in file order, holding its keys' values.
    mq_rows: list[tuple] = []
    for meta, words in zip(videos, _streams(bits, keys(_SEC_MQ))):
        for _ in range(words.integers(2, 5)):
            seg = _segment_within(words, meta.duration_s, 1.5, 5.0)
            mq_rows.append((meta.video_id, *seg, words.integers(0, config.mq_num_classes)))

    nlq_rows: list[tuple] = []
    for meta, words in zip(videos, _streams(bits, keys(_SEC_NLQ))):
        for q in range(config.nlq_queries_per_video):
            nlq_rows.append((meta.video_id, *_segment_within(words, meta.duration_s, 1.0, 4.0), f"{meta.video_id}:q{q}"))

    fhp_rows: list[tuple] = []
    rng = np.random.Generator(bits)
    for meta, state in zip(videos, _pcg64_states(keys(_SEC_FHP))):
        _seat(bits, state)
        trajectory = _hand_trajectory(rng, w, h)
        t_contact = float(rng.uniform(3.5, meta.duration_s - 0.5))
        t_pre = t_contact - float(rng.uniform(0.3, 0.8))
        times = (t_contact, t_pre, t_pre - 0.5, t_pre - 1.0, t_pre - 1.5)  # in KEYFRAME_TAGS order
        # One draw holds the five keyframes' jitter, four values each, in
        # the order of five size-4 draws.
        jitter = (rng.normal(0.0, 1.0, size=(5, 4)) * config.hand_noise_px).tolist()
        keyframes = {}
        for tag, t, (jlx, jly, jrx, jry) in zip(KEYFRAME_TAGS, times, jitter):
            (lx, ly), (rx, ry) = trajectory(t)
            # Clipped as np.clip does, max then min: -0.0 clips to 0.0.
            left = [min(w - 1.0, max(0.0, lx + jlx)), min(h - 1.0, max(0.0, ly + jly))]
            keyframes[tag] = {"left": left, "right": [min(w - 1.0, max(0.0, rx + jrx)), min(h - 1.0, max(0.0, ry + jry))]}
        fhp_rows.append((meta.video_id, keyframes))

    clip_ends: dict[str, tuple[float, ...]] = {}
    lta_rows: list[tuple] = []
    for meta, words in zip(videos, _streams(bits, keys(_SEC_LTA))):
        # The hot loop: each clip draws random() >= 0.55 per label, read
        # as a word compare.
        next_word, integers = words.next_word, words.integers
        num_clips = int(np.floor(meta.duration_s / config.clip_len_s + 1e-9))
        verb = integers(0, c_v)
        noun = integers(0, c_n)
        chain = []
        for _ in range(num_clips):
            chain.append([verb, noun])
            if next_word() >= _SWITCH_WORD:
                verb = integers(0, c_v)
            if next_word() >= _SWITCH_WORD:
                noun = integers(0, c_n)
        clip_ends[meta.video_id] = tuple((j + 1) * config.clip_len_s for j in range(num_clips))
        anchor = num_clips - config.z
        lta_rows.append((meta.video_id, anchor, chain[anchor : anchor + config.z]))

    sta_images: dict[str, tuple[int, int]] = {}
    sta_rows: list[tuple] = []
    for meta, words in zip(videos, _streams(bits, keys(_SEC_STA))):
        for kf in range(config.sta_keyframes_per_video):
            kf_id = f"{meta.video_id}:kf{kf}"
            sta_images[kf_id] = (w, h)
            for _ in range(words.integers(1, 4)):
                # The box, noun, verb and TTC, drawn in that order.
                sta_rows.append((kf_id, _random_box(words, w, h), words.integers(0, c_n), words.integers(0, c_v), words.uniform(0.3, 2.0)))

    scod_images: dict[str, tuple[int, int]] = {}
    scod_rows: list[tuple] = []
    for meta, words in zip(videos, _streams(bits, keys(_SEC_SCOD))):
        for kf in range(config.sta_keyframes_per_video):
            kf_id = f"{meta.video_id}:sc{kf}"
            scod_images[kf_id] = (w, h)
            for _ in range(words.integers(1, 4)):
                scod_rows.append((kf_id, _random_box(words, w, h), words.integers(0, c_n)))

    mq = _track_columns("mq", mq_rows, video_ids, config.mq_num_classes)
    nlq = _track_columns("nlq", nlq_rows, video_ids)
    fhp = _track_columns("fhp", fhp_rows, config.resolution)
    lta = _track_columns("lta", lta_rows, (config.z, c_v, c_n, config.k))
    sta = _track_columns("sta", sta_rows, sta_images)
    scod = _track_columns("scod", scod_rows, scod_images)

    # The fhp targets are the coordinates over the image size, keyframe-major
    # as fhp_target_vector lays them out.
    targets = fhp.coords.reshape(len(videos), -1) / np.array([w, h] * (2 * len(KEYFRAME_TAGS)), dtype=np.float64)
    lta_gt = TypedView(lta, _sequences)
    latent = LatentState(
        seed=seed,
        strength=config.label_strength,
        lta_targets=TypedView(lta_gt, lambda gt: {vid: seq for (vid, _), seq in gt.items()}),
        fhp_targets=dict(zip(video_ids, targets)),
    )
    return SynthDataset(
        config=config,
        videos=tuple(videos),
        mq_gt=TypedView(mq, _moments),
        nlq_gt=TypedView(nlq, _answers_by_video),
        fhp_gt=TypedView(fhp, _hand_keyframes),
        clip_ends=clip_ends,
        lta_gt=lta_gt,
        sta_images=sta_images,
        sta_gt=TypedView(sta, _boxes),
        scod_images=scod_images,
        scod_gt=TypedView(scod, _boxes),
        latent=latent,
    )


def perfect_predictions(ds: SynthDataset) -> dict[str, TypedView]:
    """Prediction structures that mirror the ground truth exactly: typed
    views over the columns of its views (or of its typed records).

    Useful as a sanity fixture: every evaluator must come back perfect
    (recall and AP 1, displacement and edit distance 0).
    """
    nlq = ds.nlq_gt.columns if isinstance(ds.nlq_gt, TypedView) else _columns({q.query_id: [q] for qs in ds.nlq_gt.values() for q in qs}, 2)
    return {
        "mq": TypedView(_columns(ds.mq_gt, 2), _ranked),
        "nlq": TypedView(nlq, _ranked),
        "fhp": TypedView(_fhp_columns(ds.fhp_gt), _hand_keyframes),
        "lta": TypedView(_lta_columns(ds.lta_gt), _forecasts),
        "sta": TypedView(_columns(ds.sta_gt, 4), _boxes),
        "scod": TypedView(_columns(ds.scod_gt, 4), _boxes),
    }
