import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge.model import KEYFRAME_TAGS
from egoforge.synth import (
    _SWITCH_WORD,
    SynthConfig,
    _Words,
    fhp_target_vector,
    generate_synthetic,
    perfect_predictions,
    stub_features,
    vector_to_keyframes,
)


def small_config(seed=0, **overrides):
    return SynthConfig(seed=seed, num_videos=4, **overrides)


class TestConfig:
    def test_defaults_valid(self):
        SynthConfig()

    def test_video_length_must_fit_episode(self):
        # The forecast needs z future clips plus observable history.
        with pytest.raises(ValueError):
            SynthConfig(min_video_len_s=10.0)

    @pytest.mark.parametrize("min_len, fps", [(3.9, 15.0), (3.96, 15.0), (3.5, 2.0)])
    def test_videos_too_short_for_the_hand_generator_rejected(self, min_len, fps):
        # The shortest video, in whole frames, must be at least 4 s long.
        with pytest.raises(ValueError, match="min_video_len_s"):
            SynthConfig(min_video_len_s=min_len, max_video_len_s=5.0, fps=fps, z=1, clip_len_s=0.2)

    @pytest.mark.parametrize("min_len, fps", [(4.0, 15.0), (3.97, 15.0), (3.93, 7.0)])
    def test_four_second_videos_generate(self, min_len, fps):
        config = SynthConfig(num_videos=3, min_video_len_s=min_len, max_video_len_s=min_len, fps=fps, z=1, clip_len_s=0.2)
        assert min(m.duration_s for m in generate_synthetic(config).videos) >= 4.0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(seed=-1)

    @pytest.mark.parametrize("overrides", [{"num_videos": 2.5}, {"z": 20.0}, {"k": True}, {"feature_dim": "192"}])
    def test_non_int_counts_rejected(self, overrides):
        with pytest.raises(ValueError, match="must be an int"):
            SynthConfig(**overrides)


class TestDeterminism:
    def test_two_runs_identical(self):
        a = generate_synthetic(small_config())
        b = generate_synthetic(small_config())
        assert a.videos == b.videos
        assert a.mq_gt == b.mq_gt
        assert a.nlq_gt == b.nlq_gt
        assert a.fhp_gt == b.fhp_gt
        assert a.lta_gt == b.lta_gt
        assert a.sta_gt == b.sta_gt
        assert a.scod_gt == b.scod_gt

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            # One-value ranges, which draw nothing.
            ({"c_v": 1, "c_n": 2, "mq_num_classes": 1}, "041549f957df6839"),
            # Rejection-heavy 32-bit halves, and whole-word ranges.
            ({"c_v": 2**31 + 1, "c_n": 2**40 + 3, "mq_num_classes": 2**32}, "dbd75a844c45a38d"),
        ],
    )
    def test_edge_ranges_keep_their_output(self, overrides, digest):
        ds = generate_synthetic(SynthConfig(seed=5, num_videos=6, **overrides))
        text = repr((ds.videos, ds.mq_gt, ds.nlq_gt, ds.fhp_gt, ds.lta_gt, ds.sta_gt, ds.scod_gt))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_different_seeds_differ(self):
        a = generate_synthetic(small_config(seed=0))
        b = generate_synthetic(small_config(seed=1))
        assert a.mq_gt != b.mq_gt

    def test_stub_features_stable_across_processes(self):
        # Keyed by a real hash, not the per-process salted one.
        f = stub_features("synth-000", (0, 30), dim=8, variant="verb")
        assert f.dtype == np.float32
        assert f.shape == (8,)
        g = stub_features("synth-000", (0, 30), dim=8, variant="verb")
        assert np.array_equal(f, g)
        assert not np.array_equal(f, stub_features("synth-000", (0, 30), dim=8, variant="noun"))
        assert not np.array_equal(f, stub_features("synth-000", (0, 31), dim=8, variant="verb"))


_BOUNDS = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(sorted).filter(lambda b: b[0] < b[1])

# One value, 32-bit halves (rejection-heavy near 2**31 and 2**32), the
# 2**32 edge, and whole 64-bit words.
_WIDTHS = (1, 2, 3, 5, 7, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**62 + 1, 2**63 - 1, 2**64)
_DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("random"), st.none() | st.integers(1, 12)),
        st.tuples(st.just("uniform"), _BOUNDS),
        st.sampled_from(_WIDTHS).flatmap(
            lambda c: st.tuples(st.just("integers"), st.integers(-(2**63), 2**63 - c).map(lambda lo: (lo, lo + c)))
        ),
    ),
    max_size=60,
)


class TestNumpyStreams:
    """The generator batches draws on two numpy identities; NEP 19 does not
    promise ``Generator`` streams stay stable across numpy versions, so an
    upgrade that breaks either fails here by name, not only as a changed
    synth file hash."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), bounds=st.lists(_BOUNDS, min_size=1, max_size=12))
    def test_uniform_is_lo_plus_range_times_random(self, seed, bounds):
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = batched.random(len(bounds)).tolist()
        assert [lo + (hi - lo) * u for (lo, hi), u in zip(bounds, draws)] == [single.uniform(lo, hi) for lo, hi in bounds]
        assert batched.random() == single.random()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_one_normal_block_is_five_rows(self, seed):
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        block = batched.normal(0.0, 1.0, size=(5, 4))
        assert np.array_equal(block, np.stack([single.normal(0.0, 1.0, size=4) for _ in range(5)]))
        assert batched.random() == single.random()


    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(key=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3), draws=_DRAWS)
    def test_words_read_what_generator_draws(self, key, draws):
        # _Words computes random, uniform and integers from PCG64's raw
        # words; a carried high half must reach the next integers call.
        words, rng = _Words(*key), np.random.default_rng(np.random.SeedSequence(key))
        for kind, arg in draws:
            if kind == "random":
                expected = rng.random() if arg is None else rng.random(arg).tolist()
                assert words.random(arg) == expected
            elif kind == "uniform":
                assert words.uniform(*arg) == rng.uniform(*arg)
            else:
                value = words.integers(*arg)
                assert type(value) is int and value == rng.integers(*arg)
        assert (words.integers(0, 7), words.random()) == (rng.integers(0, 7), rng.random())

    @pytest.mark.parametrize("lo, hi", [(0, 2**63 + 1), (-(2**63) - 1, 0), (3, 3), (4, 3)])
    def test_words_refuse_what_generator_refuses(self, lo, hi):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(0).integers(lo, hi)
        with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
            _Words(0).integers(lo, hi)

    def test_switch_word_is_random_at_least_055(self):
        # The lta chain compares words to _SWITCH_WORD for random() >= 0.55;
        # random() rises with the word, so the smallest word that passes
        # is exact when it passes and the largest one below it fails.
        assert _SWITCH_WORD % 2**11 == 0
        assert (_SWITCH_WORD >> 11) * 2**-53 >= 0.55 > ((_SWITCH_WORD - 1) >> 11) * 2**-53


class TestStructure:
    def test_counts_and_keys(self):
        config = small_config()
        ds = generate_synthetic(config)
        assert len(ds.videos) == config.num_videos
        assert set(ds.mq_gt) == set(ds.video_ids)
        assert set(ds.fhp_gt) == set(ds.video_ids)
        for vid in ds.video_ids:
            assert 2 <= len(ds.mq_gt[vid]) <= 4
            assert len(ds.nlq_gt[vid]) == config.nlq_queries_per_video

    def test_video_lengths_in_range(self):
        config = small_config()
        ds = generate_synthetic(config)
        for v in ds.videos:
            dur = v.num_frames / v.fps
            assert config.min_video_len_s - 0.5 <= dur <= config.max_video_len_s + 0.5

    def test_lta_episode_shape(self):
        config = small_config()
        ds = generate_synthetic(config)
        for vid in ds.video_ids:
            key = ds.episode(vid)
            seq = ds.lta_gt[key]
            assert len(seq) == config.z
            anchor = key[1]
            # Enough history clips before the anchor for the widest window.
            assert anchor >= 1
            assert ds.clip_ends[vid][anchor - 1] >= config.z * config.clip_len_s - 1e-9
            for a in seq:
                assert 0 <= a.verb_id < config.c_v
                assert 0 <= a.noun_id < config.c_n

    def test_clip_ends_regular(self):
        config = small_config()
        ds = generate_synthetic(config)
        for vid in ds.video_ids:
            ends = ds.clip_ends[vid]
            assert ends[0] == pytest.approx(config.clip_len_s)
            diffs = np.diff(ends)
            assert np.allclose(diffs, config.clip_len_s)

    def test_markov_chain_repeats_labels(self):
        # Keep probability 0.55 per factor makes consecutive repeats common.
        ds = generate_synthetic(SynthConfig(seed=0, num_videos=20))
        repeats = total = 0
        for seq in ds.lta_gt.values():
            for a, b in zip(seq, seq[1:]):
                repeats += a.verb_id == b.verb_id
                total += 1
        assert 0.4 < repeats / total < 0.8

    def test_hands_inside_frame(self):
        config = small_config()
        ds = generate_synthetic(config)
        w, h = config.resolution
        for kf in ds.fhp_gt.values():
            for tag in KEYFRAME_TAGS:
                for hand in ("left", "right"):
                    x, y = kf[tag].coords(hand)
                    assert 0 <= x <= w
                    assert 0 <= y <= h

    def test_boxes_inside_images(self):
        ds = generate_synthetic(small_config())
        for kid, dets in ds.scod_gt.items():
            w, h = ds.scod_images[kid]
            for d in dets:
                assert 0 <= d.box.x1 <= d.box.x2 <= w
                assert 0 <= d.box.y1 <= d.box.y2 <= h
        for kid, insts in ds.sta_gt.items():
            w, h = ds.sta_images[kid]
            for inst in insts:
                assert 0 <= inst.box.x1 <= inst.box.x2 <= w
                assert inst.ttc_s > 0


class TestLatent:
    def test_direction_shifts_features(self):
        ds = generate_synthetic(small_config())
        vid = ds.video_ids[0]
        plain = stub_features(vid, (0, 30), dim=ds.config.feature_dim, variant="verb")
        shifted = stub_features(vid, (0, 30), dim=ds.config.feature_dim, variant="verb", latent=ds.latent)
        delta = shifted.astype(np.float64) - plain.astype(np.float64)
        direction = ds.latent.direction(vid, "verb", ds.config.feature_dim)
        assert np.allclose(delta, direction, atol=1e-5)
        assert np.linalg.norm(direction) > 0

    def test_direction_depends_on_video(self):
        ds = generate_synthetic(small_config())
        d0 = ds.latent.direction(ds.video_ids[0], "verb", 32)
        d1 = ds.latent.direction(ds.video_ids[1], "verb", 32)
        assert not np.allclose(d0, d1)

    def test_direction_read_only(self):
        ds = generate_synthetic(small_config())
        d = ds.latent.direction(ds.video_ids[0], "verb", 16)
        with pytest.raises(ValueError):
            d[0] = 1.0


class TestHandVector:
    def test_round_trip(self):
        ds = generate_synthetic(small_config())
        kf = ds.fhp_gt[ds.video_ids[0]]
        vec = fhp_target_vector(kf, ds.config.resolution)
        assert vec.shape == (20,)
        back = vector_to_keyframes(vec, ds.config.resolution)
        for tag in KEYFRAME_TAGS:
            assert back[tag].coords("left") == pytest.approx(kf[tag].coords("left"))
            assert back[tag].coords("right") == pytest.approx(kf[tag].coords("right"))

    def test_normalized_range(self):
        ds = generate_synthetic(small_config())
        vec = fhp_target_vector(ds.fhp_gt[ds.video_ids[0]], ds.config.resolution)
        assert np.all(vec >= 0.0)
        assert np.all(vec <= 1.0)


class TestPerfectPredictions:
    def test_shapes_mirror_gt(self):
        ds = generate_synthetic(small_config())
        preds = perfect_predictions(ds)
        assert set(preds) == {"mq", "nlq", "fhp", "lta", "sta", "scod"}
        assert set(preds["mq"]) == set(ds.mq_gt)
        for vid, items in preds["mq"].items():
            assert [p.segment for p in items] == [m.segment for m in ds.mq_gt[vid]]
            assert all(p.score == 1.0 for p in items)
        for key, forecast in preds["lta"].items():
            assert forecast.candidates == (ds.lta_gt[key],)
