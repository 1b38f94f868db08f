"""The input generator: reproducible, exact at noise 0, harder as noise rises.

Run with: python3 -m pytest perfbench/tests
"""

import contextlib
import filecmp
import io
import os

import pytest

import gen
from egoforge import cli, fileio
from egoforge.metrics import (
    average_map,
    box_ap,
    displacement_report,
    edit_distance_at_z,
    recall_at_k,
    sta_ap,
)
from egoforge.synth import SynthConfig, generate_synthetic


def _same_files(a, b):
    """Names of the files directly under a and b whose bytes differ."""
    names = sorted(n for n in os.listdir(a) if (a / n).is_file())
    assert names == sorted(n for n in os.listdir(b) if (b / n).is_file())
    return [n for n in names if not filecmp.cmp(a / n, b / n, shallow=False)]


@pytest.mark.parametrize("seed", [0, 3])
def test_noise_zero_reproduces_synth_byte_for_byte(tmp_path, seed):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(tmp_path / "synth"), "--seed", str(seed), "--num-videos", "7"]) == 0
    gen.write_eval_inputs(tmp_path / "gen", seed, 7, noise=0.0)
    assert _same_files(tmp_path / "synth", tmp_path / "gen") == []


def test_scores_fall_as_noise_rises():
    ds = generate_synthetic(SynthConfig(seed=5, num_videos=30))
    nlq_gt = {q.query_id: [q] for items in ds.nlq_gt.values() for q in items}
    rows = []
    for noise in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = gen.noisy_predictions(ds, noise)
        rows.append(
            (
                average_map(p["mq"], ds.mq_gt).value,
                recall_at_k(p["nlq"], nlq_gt, 5, 0.5),
                box_ap(p["scod"], ds.scod_gt).value,
                sta_ap(p["sta"], ds.sta_gt, "overall"),
                -edit_distance_at_z(p["lta"], ds.lta_gt),
                -displacement_report(p["fhp"], ds.fhp_gt)[0].value,
            )
        )
    assert rows[0] == (1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    for track, scores in zip(gen.EVAL_TRACKS, zip(*rows)):
        assert all(a > b for a, b in zip(scores, scores[1:])), (track, scores)


def test_dense_predictions_have_about_ten_candidates_per_item():
    ds = generate_synthetic(SynthConfig(seed=2, num_videos=20))
    preds = gen.noisy_mq(ds, gen.NOISE)
    per_item = sum(map(len, preds.values())) / sum(map(len, ds.mq_gt.values()))
    assert 9.0 <= per_item <= 10.0
    sta = gen.noisy_sta(ds, gen.NOISE)
    assert all(len(items) > 5 for items in sta.values())  # longer than the default --top-k
    assert all(len(f.candidates) == ds.config.k for f in gen.noisy_lta(ds, gen.NOISE).values())


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        gen.write_eval_inputs(tmp_path / name, seed, 5, noise=gen.NOISE, subsample=2)
        gen.write_forecast_inputs(tmp_path / name / "ff", seed, 3, 4, 8, 3, 10)
    assert _same_files(tmp_path / "a", tmp_path / "b") == []
    assert _same_files(tmp_path / "a" / "sub", tmp_path / "b" / "sub") == []
    assert _same_files(tmp_path / "a" / "ff", tmp_path / "b" / "ff") == []
    assert "pred_mq.json" in _same_files(tmp_path / "a", tmp_path / "c")


def test_subsample_is_a_consistent_cut(tmp_path):
    gen.write_eval_inputs(tmp_path, 6, 10, noise=gen.NOISE, subsample=3)
    sub = tmp_path / "sub"
    gt = fileio.load_mq_gt(sub / "gt_mq.json")
    assert len(gt.videos) == 3
    fileio.load_mq_pred(sub / "pred_mq.json", known_videos=gt.videos)
    nlq = fileio.load_nlq_gt(sub / "gt_nlq.json")
    fileio.load_nlq_pred(sub / "pred_nlq.json", known_queries=nlq.queries)
    sta = fileio.load_sta_gt(sub / "gt_sta.json")
    assert {k.rsplit(":", 1)[0] for k in sta.images} == set(gt.videos)
    fileio.load_sta_pred(sub / "pred_sta.json", known_frames=sta.images)
    lta = fileio.load_lta_gt(sub / "gt_lta.json")
    assert set(fileio.load_lta_pred(sub / "pred_lta.json")) == set(lta.sequences)


def test_forecast_inputs_load(tmp_path):
    gen.write_forecast_inputs(tmp_path, 1, train_videos=3, vote_episodes=4, vote_clips=8, fuse_videos=3, feature_rows=10)
    clips = fileio.load_lta_clip_probs(tmp_path / "clips.json")
    assert len(clips) == 4 and all(len(v) == 8 for v in clips.values())
    assert fileio.load_config(tmp_path / "config.json").num_videos == 3
    images = [fileio.load_sta_pred(tmp_path / f"sta_{m}.json").images for m in range(gen.FUSE_MODELS)]
    assert images[0] == images[1] == images[2]
    assert fileio.load_features(tmp_path / "verb.feat").rows.shape == (10, 192)
