import numpy as np
import pytest

from egoforge.experiments import forecast_training_set, hand_training_set
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
