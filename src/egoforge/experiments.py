"""End-to-end runs on synthetic data: train a toy head, fuse, evaluate.

The central experiment checks a directional claim: forecasting from a wider
observable window, with per-clip probabilities averaged by voting, should
beat a single short clip, and widening the window should not hurt. Nothing
here is neural; the point is pipeline plumbing with real gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fusion import multi_clips_vote, top_k_sequences
from .heads import LinearHead, SgdConfig, classifier_probs, joint_targets, new_head, train_head
from .metrics import ED_MODES, edit_distance_at_z
from .model import FeatureMatrix, LtaForecast, TemporalSegment, _require
from .snippets import frame_span, observable_window, prefuse_features, sliding_clips
from .synth import SynthDataset, stub_features

DEFAULT_ALPHAS = (2.0, 4.0, 8.0, 16.0)
DEFAULT_CLIP_LEN_S = 2.0
DEFAULT_CLIP_STRIDE_S = 2.0


def fused_clip_features(ds: SynthDataset, clips: Sequence[tuple[str, TemporalSegment]]) -> np.ndarray:
    """Verb and noun stub features per (video id, clip), channel-concatenated."""
    dim = ds.config.feature_dim
    spans = [(vid, frame_span(clip.start_s, clip.end_s, ds.config.fps)) for vid, clip in clips]
    verb, noun = (
        FeatureMatrix(dim=dim, rows=[stub_features(vid, span, dim, variant, ds.latent) for vid, span in spans], provenance=variant)
        for variant in ("verb", "noun")
    )
    return prefuse_features(verb, noun).rows.astype(np.float64)


def _episode_window(ds: SynthDataset, video_id: str, alpha_s: float):
    vid, anchor = ds.episode(video_id)
    return anchor, observable_window(ds.clip_ends[vid], anchor, alpha_s)


def forecast_training_set(
    ds: SynthDataset,
    video_ids: Sequence[str],
    alpha_s: float = 16.0,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    clip_stride_s: float = DEFAULT_CLIP_STRIDE_S,
) -> tuple[np.ndarray, np.ndarray]:
    """One training example per sliding clip in each episode's window."""
    clips: list[tuple[str, TemporalSegment]] = []
    seqs = []
    for vid in video_ids:
        anchor, window = _episode_window(ds, vid, alpha_s)
        in_window = sliding_clips(window, clip_len_s, clip_stride_s)
        clips += [(vid, clip) for clip in in_window]
        seqs += [ds.lta_gt[(vid, anchor)]] * len(in_window)
    _require(len(clips) >= 1, "no training examples; check the video id list")
    return fused_clip_features(ds, clips), joint_targets(seqs, ds.config.c_n)


def train_forecaster(
    ds: SynthDataset,
    video_ids: Sequence[str],
    epochs: int = 80,
    lr: float = 2.0,
    momentum: float = 0.9,
    seed: int = 0,
    alpha_s: float = 16.0,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    clip_stride_s: float = DEFAULT_CLIP_STRIDE_S,
) -> tuple[LinearHead, list[float]]:
    """Fit the per-position (verb, noun) classifier on stub features."""
    inputs, targets = forecast_training_set(ds, video_ids, alpha_s, clip_len_s, clip_stride_s)
    cfg = ds.config
    head = new_head(
        "classifier_C", in_dim=2 * cfg.feature_dim, seed=seed, z=cfg.z, c_v=cfg.c_v, c_n=cfg.c_n
    )
    return train_head(head, inputs, targets, SgdConfig(lr=lr, momentum=momentum), epochs=epochs)


def voted_forecast(
    ds: SynthDataset,
    head: LinearHead,
    video_id: str,
    alpha_s: float,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    clip_stride_s: float = DEFAULT_CLIP_STRIDE_S,
) -> LtaForecast:
    """Forecast from every clip in the window, from the mean of its clips'
    probabilities (the voted labels are not used)."""
    anchor, window = _episode_window(ds, video_id, alpha_s)
    features = fused_clip_features(ds, [(video_id, clip) for clip in sliding_clips(window, clip_len_s, clip_stride_s)])
    _, fused = multi_clips_vote([classifier_probs(head, x) for x in features])
    return LtaForecast(clip_index=anchor, candidates=top_k_sequences(fused, ds.config.k), score_matrix=fused)


def center_clip_forecast(ds: SynthDataset, head: LinearHead, video_id: str, alpha_s: float) -> LtaForecast:
    """Forecast from the single clip centered in the window."""
    anchor, window = _episode_window(ds, video_id, alpha_s)
    mid = (window.start_s + window.end_s) / 2.0
    clip = TemporalSegment(start_s=mid - DEFAULT_CLIP_LEN_S / 2.0, end_s=mid + DEFAULT_CLIP_LEN_S / 2.0)
    probs = classifier_probs(head, fused_clip_features(ds, [(video_id, clip)])[0])
    return LtaForecast(clip_index=anchor, candidates=top_k_sequences(probs, ds.config.k), score_matrix=probs)


@dataclass(frozen=True)
class TrendResult:
    """Edit distances per window size, voted and center-clip baselines."""

    alphas: tuple[float, ...]
    voted: Mapping[float, Mapping[str, float]]
    center: Mapping[float, Mapping[str, float]]


def window_trend(ds: SynthDataset, head: LinearHead, video_ids: Sequence[str]) -> TrendResult:
    """Evaluate edit distance as the observable window widens through
    ``DEFAULT_ALPHAS``."""
    _require(len(video_ids) >= 1, "need at least one evaluation video")
    voted: dict[float, dict[str, float]] = {}
    center: dict[float, dict[str, float]] = {}
    gts = {ds.episode(vid): ds.lta_gt[ds.episode(vid)] for vid in video_ids}
    for alpha in DEFAULT_ALPHAS:
        vf = {ds.episode(vid): voted_forecast(ds, head, vid, alpha) for vid in video_ids}
        cf = {ds.episode(vid): center_clip_forecast(ds, head, vid, alpha) for vid in video_ids}
        voted[alpha] = {m: edit_distance_at_z(vf, gts, m) for m in ED_MODES}
        center[alpha] = {m: edit_distance_at_z(cf, gts, m) for m in ED_MODES}
    return TrendResult(alphas=DEFAULT_ALPHAS, voted=voted, center=center)


# ---------------------------------------------------------------------------
# Hand-position regression on the same stub features.
# ---------------------------------------------------------------------------


def hand_training_set(ds: SynthDataset, video_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Whole-video features and normalized 20-coordinate targets per video."""
    _require(len(video_ids) >= 1, "no training examples; check the video id list")
    meta = {v.video_id: v for v in ds.videos}
    clips = [(vid, TemporalSegment(start_s=0.0, end_s=meta[vid].num_frames / meta[vid].fps)) for vid in video_ids]
    return fused_clip_features(ds, clips), np.stack([ds.latent.fhp_targets[vid] for vid in video_ids])


def train_hand_regressor(
    ds: SynthDataset,
    video_ids: Sequence[str],
    epochs: int = 200,
    lr: float = 0.05,
    momentum: float = 0.9,
    seed: int = 0,
) -> tuple[LinearHead, list[float]]:
    """Fit the 20-way coordinate regressor with L1 loss."""
    inputs, targets = hand_training_set(ds, video_ids)
    head = new_head("regression_20", in_dim=2 * ds.config.feature_dim, seed=seed)
    return train_head(head, inputs, targets, SgdConfig(lr=lr, momentum=momentum), epochs=epochs)
