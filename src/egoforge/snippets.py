"""Snippet schedules, observable windows, frame sampling, and clip layout.

Feature extraction runs on fixed-length frame snippets laid out at a fixed
stride; forecasting consumes only the span of video that ends where the
target clip begins. Everything here is pure arithmetic on frame indices and
seconds, deterministic given its arguments.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .model import FeatureMatrix, TemporalSegment, _require, _validated

# Tolerance for comparisons on second-valued boundaries.
_EPS = 1e-9

SAMPLE_MODES = ("random", "center", "uniform")

# A longer schedule is a typo: a million snippets at stride 8 cover six days
# of 15 fps video.
MAX_SNIPPETS = 1_000_000
# The recipes cut 8 clips from a window; a stride that fits more than this
# many is a typo (1e-6 s over a 16 s window would loop 16 million times).
MAX_CLIPS = 1_000


@dataclass(frozen=True)
class SnippetSchedule:
    """Frame ranges feature extraction will run on for one video."""

    fps: float
    snippet_len_frames: int
    stride_frames: int
    snippets: tuple[tuple[int, int], ...]
    padded_tail: bool

    def __post_init__(self) -> None:
        _require(self.fps > 0, "fps must be positive")
        _require(self.snippet_len_frames >= 1, "snippet_len_frames must be >= 1")
        _require(self.stride_frames >= 1, "stride_frames must be >= 1")
        snippets = tuple((int(a), int(b)) for a, b in self.snippets)
        for i, (start, end) in enumerate(snippets):
            _require(0 <= start < end, f"snippet {i} has an empty or negative frame range")
            if i > 0:
                _require(
                    start - snippets[i - 1][0] == self.stride_frames,
                    f"snippet {i} start is not one stride after snippet {i - 1}",
                )
            full = end - start == self.snippet_len_frames
            if i < len(snippets) - 1:
                _require(full, f"snippet {i} is partial but not last")
            else:
                _require(
                    full != self.padded_tail,
                    "padded_tail must be set exactly when the last snippet is partial",
                )
        if not snippets:
            _require(not self.padded_tail, "an empty schedule cannot have a padded tail")
        object.__setattr__(self, "fps", float(self.fps))
        object.__setattr__(self, "snippets", snippets)

    @property
    def num_snippets(self) -> int:
        return len(self.snippets)


@dataclass(frozen=True)
class ObservableWindow:
    """The span of video a forecaster may look at before a target clip."""

    start_s: float
    end_s: float
    alpha_s: float

    def __post_init__(self) -> None:
        _require(self.alpha_s > 0, f"alpha_s must be positive, got {self.alpha_s}")
        _require(self.start_s >= 0, f"window start must be >= 0, got {self.start_s}")
        _require(self.start_s <= self.end_s, "window reversed")
        _require(self.end_s - self.start_s <= self.alpha_s + _EPS, "window longer than alpha_s")
        for name in ("start_s", "end_s", "alpha_s"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def length_s(self) -> float:
        return self.end_s - self.start_s


def build_snippet_schedule(
    num_frames: int,
    fps: float = 15.0,
    snippet_len_frames: int = 32,
    stride_frames: int = 8,
) -> SnippetSchedule:
    """Lay out snippet frame ranges covering a video left to right.

    Full snippets of ``snippet_len_frames`` start every ``stride_frames``.
    If they do not reach the end of the video, one partial snippet is added
    at the next stride-aligned start and marked as a padded tail (readers
    repeat the final frame to fill it out). A schedule of more than
    ``MAX_SNIPPETS`` snippets is refused before any is laid out. The frame
    counts must be ints (``operator.index`` refuses others with TypeError),
    so the layout holds the schedule's invariants by construction and is
    not checked again.
    """
    num_frames, snippet_len_frames, stride_frames = map(operator.index, (num_frames, snippet_len_frames, stride_frames))
    _require(num_frames >= 0, "num_frames must be >= 0")
    _require(fps > 0, "fps must be positive")
    _require(snippet_len_frames >= 1, "snippet_len_frames must be >= 1")
    _require(stride_frames >= 1, "stride_frames must be >= 1")
    # A stride beyond the snippet length would leave unseen gaps and can
    # push the padded tail past the last frame.
    _require(stride_frames <= snippet_len_frames, "stride_frames must not exceed snippet_len_frames")
    full = max(0, (num_frames - snippet_len_frames) // stride_frames + 1)
    padded = (full - 1) * stride_frames + snippet_len_frames < num_frames if full else num_frames > 0
    count = full + padded
    _require(count <= MAX_SNIPPETS, f"{num_frames} frames make {count} snippets, more than {MAX_SNIPPETS}")
    snippets = [(start, start + snippet_len_frames) for start in range(0, full * stride_frames, stride_frames)]
    if padded:
        snippets.append((full * stride_frames, num_frames))
    return _validated(
        SnippetSchedule,
        fps=float(fps),
        snippet_len_frames=snippet_len_frames,
        stride_frames=stride_frames,
        snippets=tuple(snippets),
        padded_tail=padded,
    )


def snippet_frames(schedule: SnippetSchedule, index: int) -> np.ndarray:
    """Frame indices for one snippet, repeating the last frame on a padded tail."""
    start, end = schedule.snippets[index]
    frames = np.arange(start, end, dtype=np.int64)
    short = schedule.snippet_len_frames - (end - start)
    if short > 0:
        frames = np.concatenate([frames, np.full(short, end - 1, dtype=np.int64)])
    return frames


def observable_window(
    clip_end_times_s: "list[float] | tuple[float, ...] | np.ndarray",
    clip_index: int,
    alpha_s: float,
) -> ObservableWindow:
    """Window of at most ``alpha_s`` seconds ending where clip ``clip_index`` begins.

    The window is [max(0, e - alpha_s), e] where e is the end time of the
    preceding clip. Clip 0 has no preceding clip and is rejected.
    """
    ends = [float(e) for e in clip_end_times_s]
    _require(len(ends) >= 1, "clip_end_times_s must be non-empty")
    _require(all(e >= 0 for e in ends), "clip end times must be >= 0")
    _require(all(b >= a for a, b in zip(ends, ends[1:])), "clip end times must be non-decreasing")
    _require(alpha_s > 0, f"alpha_s must be positive, got {alpha_s}")
    _require(0 <= clip_index <= len(ends), f"clip_index {clip_index} out of range")
    if clip_index == 0:
        raise ValueError("clip 0 has no preceding clip, so no observable window")
    end = ends[clip_index - 1]
    return ObservableWindow(start_s=max(0.0, end - alpha_s), end_s=end, alpha_s=alpha_s)


def frame_span(start_s: float, end_s: float, fps: float) -> tuple[int, int]:
    """Half-open frame index range [first, last_exclusive) inside a time span.

    A frame with index f sits at time f / fps; it is inside the span when
    start_s <= f / fps < end_s (up to 1e-9 fuzz on the boundaries).
    """
    _require(fps > 0, "fps must be positive")
    _require(end_s >= start_s, "span reversed")
    first = int(np.ceil(start_s * fps - _EPS))
    last_exclusive = int(np.ceil(end_s * fps - _EPS))
    return max(0, first), max(0, first, last_exclusive)


def sample_frames(
    window: ObservableWindow,
    num_frames: int,
    fps: float,
    seed: int,
    mode: str = "random",
) -> np.ndarray:
    """Pick ``num_frames`` frame indices inside a window, sorted ascending.

    ``random`` draws without replacement (with replacement only when the
    window holds fewer frames than requested), ``center`` takes a contiguous
    centered run, ``uniform`` spaces picks evenly across the window. All
    modes are deterministic given the seed.
    """
    _require(num_frames >= 1, "num_frames must be >= 1")
    _require(mode in SAMPLE_MODES, f"mode must be one of {SAMPLE_MODES}")
    first, last_exclusive = frame_span(window.start_s, window.end_s, fps)
    avail = last_exclusive - first
    if avail <= 0:
        raise ValueError("window contains no frames at this fps")
    if mode == "random":
        rng = np.random.default_rng(seed)
        picks = rng.choice(avail, size=num_frames, replace=avail < num_frames)
        picks.sort()
    elif mode == "center":
        lead = (avail - num_frames) // 2
        picks = np.clip(np.arange(num_frames) + lead, 0, avail - 1)
    else:
        picks = (np.arange(num_frames) * avail) // num_frames
    return (first + picks).astype(np.int64)


def sliding_clips(
    window: ObservableWindow,
    clip_len_s: float,
    clip_stride_s: float,
) -> tuple[TemporalSegment, ...]:
    """Cover a window with fixed-length clips at a fixed stride.

    Clips start at the window start and step by the stride while they fit.
    If they stop short of the window end, one extra clip is right-aligned to
    the end so the whole window is covered. A stride at which more than
    ``MAX_CLIPS`` clips fit is refused before any is laid out.
    """
    _require(clip_len_s > 0, "clip_len_s must be positive")
    _require(clip_stride_s > 0, "clip_stride_s must be positive")
    if clip_len_s > window.length_s + _EPS:
        raise ValueError(f"clip_len_s {clip_len_s} exceeds window length {window.length_s}")
    # One clip fits, then one per whole stride after it (the quotient is inf
    # for a small enough stride).
    if (window.length_s + _EPS - clip_len_s) / clip_stride_s >= MAX_CLIPS:
        raise ValueError(
            f"{clip_len_s:g} s clips at a {clip_stride_s:g} s stride over a {window.length_s:g} s window"
            f" make more than {MAX_CLIPS} clips"
        )
    clips: list[TemporalSegment] = []
    k = 0
    while window.start_s + k * clip_stride_s + clip_len_s <= window.end_s + _EPS:
        start = window.start_s + k * clip_stride_s
        clips.append(TemporalSegment(start_s=start, end_s=start + clip_len_s))
        k += 1
    if clips[-1].end_s < window.end_s - _EPS:
        clips.append(TemporalSegment(start_s=window.end_s - clip_len_s, end_s=window.end_s))
    return tuple(clips)


def prefuse_features(a: FeatureMatrix, b: FeatureMatrix) -> FeatureMatrix:
    """Concatenate two aligned feature matrices row-wise along the channel axis."""
    if a.num_rows != b.num_rows:
        raise ValueError(f"row count mismatch: {a.num_rows} != {b.num_rows}")
    rows = np.concatenate([a.rows, b.rows], axis=1)
    return FeatureMatrix(dim=a.dim + b.dim, rows=rows, provenance="fused")
