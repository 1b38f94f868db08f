import numpy as np
import pytest

from egoforge.experiments import forecast_training_set, fused_clip_features, hand_training_set, train_forecaster, voted_forecast
from egoforge.fusion import multi_clips_vote, top_k_sequences
from egoforge.heads import classifier_probs
from egoforge.model import TemporalSegment
from egoforge.snippets import frame_span, observable_window, sliding_clips
from egoforge.synth import SynthConfig, fhp_target_vector, generate_synthetic, stub_features

# The trainers' dataset on the forecast-fuse benchmark: its default config
# at 24 videos, for a few of its seeds.
SEEDS = (1, 3, 11)


@pytest.fixture(scope="module", params=SEEDS, ids=[f"seed{s}" for s in SEEDS])
def ds(request):
    return generate_synthetic(SynthConfig(seed=request.param, num_videos=24))


def test_hand_targets_are_the_latent_targets(ds):
    # The latent targets are the keyframes' coordinates over the image size,
    # which the typed keyframes flatten to bit for bit.
    vids = ds.video_ids
    for vid in vids:
        assert np.array_equal(ds.latent.fhp_targets[vid], fhp_target_vector(ds.fhp_gt[vid], ds.config.resolution))
    _, targets = hand_training_set(ds, vids)
    assert np.array_equal(targets, np.stack([fhp_target_vector(ds.fhp_gt[v], ds.config.resolution) for v in vids]))


def test_forecast_inputs_are_each_clips_stub_features(ds):
    # One row per 2 s clip of each episode's 16 s window, as train lta cuts
    # them: the verb then the noun stub feature, widened to float64.
    inputs, targets = forecast_training_set(ds, ds.video_ids)
    dim, rows, seqs = ds.config.feature_dim, [], []
    for vid in ds.video_ids:
        anchor = ds.episode(vid)[1]
        window = observable_window(ds.clip_ends[vid], anchor, 16.0)
        for clip in sliding_clips(window, 2.0, 2.0):
            span = frame_span(clip.start_s, clip.end_s, ds.config.fps)
            pair = [stub_features(vid, span, dim, variant, ds.latent) for variant in ("verb", "noun")]
            rows.append(np.concatenate(pair).astype(np.float64))
            seqs.append([a.verb_id * ds.config.c_n + a.noun_id for a in ds.lta_gt[(vid, anchor)]])
    assert inputs.dtype == np.float64 and inputs.flags.c_contiguous
    assert np.array_equal(inputs, np.stack(rows)) and np.array_equal(targets, np.array(seqs))


def test_batched_features_are_each_items_own(ds):
    # A feature row depends only on its own (video, clip): the hand set's
    # rows, taken for all videos at once, are each video's whole-video row,
    # and a voted forecast is the vote over one classifier call per clip.
    vids = ds.video_ids[:6]
    inputs, _ = hand_training_set(ds, vids)
    metas = {v.video_id: v for v in ds.videos}
    for row, vid in zip(inputs, vids, strict=True):
        whole = TemporalSegment(start_s=0.0, end_s=metas[vid].num_frames / metas[vid].fps)
        assert np.array_equal(row, fused_clip_features(ds, [(vid, whole)])[0])
    head, _ = train_forecaster(ds, vids, epochs=2)
    for vid in vids:
        for alpha in (4.0, 16.0):
            anchor = ds.episode(vid)[1]
            window = observable_window(ds.clip_ends[vid], anchor, alpha)
            probs = [classifier_probs(head, fused_clip_features(ds, [(vid, clip)])[0]) for clip in sliding_clips(window, 2.0, 1.5)]
            _, fused = multi_clips_vote(probs)
            forecast = voted_forecast(ds, head, vid, alpha, clip_len_s=2.0, clip_stride_s=1.5)
            assert forecast.clip_index == anchor and forecast.candidates == top_k_sequences(fused, ds.config.k)
            assert np.array_equal(forecast.score_matrix.verb, fused.verb) and np.array_equal(forecast.score_matrix.noun, fused.noun)
