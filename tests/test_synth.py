import contextlib
import dataclasses
import hashlib
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge import cli, experiments, fileio, model, snippets, synth
from egoforge.model import (
    KEYFRAME_TAGS,
    ActionLabel,
    BoundingBox,
    Detection,
    HandKeyframes,
    HandPoint,
    LtaForecast,
    MomentInstance,
    NlqInstance,
    RankedSegment,
    StaInstance,
    TemporalSegment,
    TypedView,
    VideoMeta,
)
from egoforge.synth import (
    _SWITCH_WORD,
    SynthConfig,
    _Words,
    _hand_trajectory,
    _random_box,
    _segment_within,
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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_videos": 10**12},
            {"num_videos": 10**401},
            {"nlq_queries_per_video": 10**30},
            {"sta_keyframes_per_video": 500_000},
            # More than 1e+06 clips in one video, the rule the budget holds.
            {"max_video_len_s": 1e6, "clip_len_s": 0.5},
            {"clip_len_s": 5e-324},
            # Just past the budget: 15,152 videos of 60 clips, 2 queries and
            # 2 + 2 keyframes.
            {"num_videos": 15_152},
        ],
    )
    def test_loops_past_the_budget_rejected(self, overrides):
        with pytest.raises(ValueError) as e:
            SynthConfig(**overrides)
        assert str(e.value) == (
            "num_videos x (max_video_len_s / clip_len_s + nlq_queries_per_video + 2 x sta_keyframes_per_video) must be at most 1e+06"
        )

    def test_loops_at_the_budget_accepted(self):
        # 15,151 x 66 loops is 999,966; c_n and feature_dim size no loop.
        SynthConfig(num_videos=15_151, c_n=2**40 + 3, feature_dim=10**13)


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


# Key ints of one 32-bit word, of several, and past 2**128; and blake2b's
# 128-bit ints, some with zero high words.
_KEY = st.lists(st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(0, 2**130 - 1)), min_size=1, max_size=6).map(tuple)
_HASH_INT = st.tuples(st.integers(0, 2**128 - 1), st.sampled_from((0, 32, 64, 96))).map(lambda t: (t[0] >> t[1],))


def _numpy_state(key):
    state = np.random.PCG64(np.random.SeedSequence(key)).state["state"]
    return state["state"], state["inc"]


class TestNumpyStreams:
    """The generator batches draws on two numpy identities; NEP 19 does not
    promise ``Generator`` streams stay stable across numpy versions, so an
    upgrade that breaks either fails here by name, not only as a changed
    synth file hash. A third identity seeds the streams: egoforge's copy of
    SeedSequence's entropy mix and PCG64's seeding step gives the state
    ``PCG64(SeedSequence(key))`` holds, for a whole batch of keys at once."""

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(keys=st.lists(_KEY, min_size=1, max_size=24), hashed=st.lists(_HASH_INT, max_size=8))
    def test_batch_states_are_numpys(self, keys, hashed):
        # The first key is repeated until its word count's group is mixed
        # in numpy; smaller groups are mixed on Python ints.
        batch = keys + hashed + [keys[0]] * synth._NUMPY_MIX_KEYS
        assert list(synth._pcg64_states(batch)) == [_numpy_state(key) for key in batch]

    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 1, 2**70 + 3])
    def test_section_batches_are_numpys(self, seed):
        keys = [(seed, section, i) for section in range(1, 8) for i in range(60)]
        assert list(synth._pcg64_states(keys)) == [_numpy_state(key) for key in keys]

    def test_hash_int_batches_are_numpys(self):
        # 128-bit blake2b ints, some with zero high words: fewer words, and
        # the same state as zeros in their place.
        digests = [hashlib.blake2b(f"stub\x1fsynth-{i:03d}".encode(), digest_size=16).digest() for i in range(501)]
        keys = [(int.from_bytes(d, "little") >> shift,) for d in digests for shift in (0, 32, 64, 96)]
        assert list(synth._pcg64_states(keys)) == [_numpy_state(key) for key in keys]

    def test_negative_key_refused_as_seedsequence_refuses(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence((1, -1))
        with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
            list(synth._pcg64_states([(3,), (1, -1)]))

    def test_streams_of_one_batch_interleave(self):
        # Each later block reseats the shared bit generator and advances it
        # past the words its stream has read.
        keys = [(11, 5, 0), (11, 5, 1), (2**70, 1, 2, 3, 4)]
        streams = list(synth._streams(synth._bits(), keys))
        got = [[] for _ in keys]
        for size in itertools.islice(itertools.cycle((1, 63, 2, 64, 65, 7)), 14):
            for words, out in zip(streams, got):
                out.extend(words.next_word() for _ in range(size))
        assert len(got[0]) > 4 * synth._BLOCK
        assert got == [np.random.PCG64(np.random.SeedSequence(key)).random_raw(len(out)).tolist() for key, out in zip(keys, got)]

    def test_no_bit_generator_at_module_level(self):
        generate_synthetic(small_config())
        stub_features("synth-000", (0, 30), 8, "verb")
        kinds = (np.random.BitGenerator, np.random.Generator)
        assert [name for name, value in vars(synth).items() if isinstance(value, kinds)] == []

    def test_cli_import_leaves_numpy_random_unloaded(self):
        src = str(Path(synth.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, egoforge.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "False"


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


def _hashed_normal(parts, shape):
    """numpy's own draw for the stream a stub key names: default_rng of the
    key's 128-bit blake2b hash."""
    text = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return np.random.default_rng(int.from_bytes(hashlib.blake2b(text, digest_size=16).digest(), "little")).standard_normal(shape)


_STUB_SETS = {dim: generate_synthetic(SynthConfig(seed=3, num_videos=3, feature_dim=dim)) for dim in (8, 13)}
_SPAN = st.tuples(st.integers(0, 10**6), st.integers(1, 400)).map(lambda t: (t[0], t[0] + t[1]))
_STUB_ROW = st.tuples(st.sampled_from(("synth-000", "synth-002", "other")), _SPAN, st.sampled_from(synth.STUB_VARIANTS))


class TestStubFeatures:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rows=st.lists(_STUB_ROW, max_size=20), dim=st.sampled_from((1, 8, 13, 40)), with_latent=st.booleans())
    def test_rows_are_numpys_hashed_draws(self, rows, dim, with_latent):
        latent = _STUB_SETS[13 if dim == 40 else 8].latent if with_latent else None
        expected = []
        for vid, (start, end), variant in rows:
            base = _hashed_normal(("stub", vid, start, end, variant, dim), dim)
            if latent is not None:
                base = base + latent.direction(vid, variant, dim)
            expected.append(base.astype(np.float32))
        got = synth.stub_feature_rows(rows, dim, latent)
        assert got.dtype == np.float32 and got.shape == (len(rows), dim)
        assert np.array_equal(got, np.array(expected, dtype=np.float32).reshape(len(rows), dim))
        for (vid, span, variant), row in zip(rows, expected):
            assert np.array_equal(stub_features(vid, span, dim, variant, latent), row)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from(sorted(_STUB_SETS)),
        clips=st.lists(
            st.tuples(st.sampled_from(("synth-000", "synth-001", "synth-002")), st.floats(0.0, 40.0), st.floats(0.5, 4.0)), min_size=1, max_size=12
        ),
    )
    def test_fused_clip_features_are_numpys_hashed_draws(self, dim, clips):
        ds = _STUB_SETS[dim]
        clips = [(vid, TemporalSegment(start, start + length)) for vid, start, length in clips]
        expected = []
        for vid, clip in clips:
            span = snippets.frame_span(clip.start_s, clip.end_s, ds.config.fps)
            pair = [
                (_hashed_normal(("stub", vid, *span, variant, dim), dim) + ds.latent.direction(vid, variant, dim)).astype(np.float32)
                for variant in synth.STUB_VARIANTS
            ]
            expected.append(np.concatenate(pair))
        assert np.array_equal(experiments.fused_clip_features(ds, clips), np.array(expected, dtype=np.float64))

    @pytest.mark.parametrize("video", ["synth-000", "synth-001", "other"])
    @pytest.mark.parametrize("variant", synth.STUB_VARIANTS)
    def test_direction_is_its_class_directions_and_hand_basis(self, video, variant):
        ds, dim = _STUB_SETS[8], 8
        latent = ds.latent
        expected = np.zeros(dim)
        for pos, label in enumerate(latent.lta_targets.get(video, ())):
            unit = _hashed_normal(("dir", latent.seed, "lta", variant, pos, label.verb_id if variant == "verb" else label.noun_id, dim), dim)
            expected += unit / np.linalg.norm(unit)
        if video in latent.fhp_targets:
            basis = _hashed_normal(("fhp-basis", latent.seed, variant, dim), (20, dim))
            expected += latent.fhp_targets[video] @ (basis / np.linalg.norm(basis, axis=1, keepdims=True))
        assert np.array_equal(latent.direction(video, variant, dim), expected * latent.strength)

    @pytest.mark.parametrize(
        "args, name",
        [
            (("v", (False, True), 1, "verb"), "snippet"),
            (("v", (0, True), 1, "verb"), "snippet"),
            (("v", (0, 1), True, "verb"), "dim"),
            (("v", (0, 1), 0, "verb"), "dim"),
            (("v", (1, 1), 4, "verb"), "snippet"),
            (("", (0, 1), 4, "verb"), "video_id"),
            (("v", (0, 1), 4, "hand"), "variant"),
        ],
    )
    def test_bad_arguments_refused_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            stub_features(*args)
        video, span, dim, variant = args
        with pytest.raises(ValueError, match=f"^{name} must"):
            synth.stub_feature_rows([("synth-000", (0, 4), "verb"), (video, span, variant)], dim)


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


# ---------------------------------------------------------------------------
# Columns, typed views and the files written from them.
# ---------------------------------------------------------------------------


def _eager(config):
    """The dataset's records drawn as generate_synthetic draws them, each
    built at once through the public constructors; the typed mappings
    that the views must equal, and the records the files were once written
    from."""
    seed, fps, (w, h) = config.seed, config.fps, config.resolution
    videos = [
        VideoMeta(f"synth-{i:03d}", int(round(_Words(seed, 1, i).uniform(config.min_video_len_s, config.max_video_len_s) * fps)), fps)
        for i in range(config.num_videos)
    ]
    ds = {name: {} for name in ("mq", "nlq", "fhp", "lta", "sta", "scod", "sta_images", "scod_images")}
    for i, meta in enumerate(videos):
        vid, duration = meta.video_id, meta.duration_s
        words = _Words(seed, 2, i)
        moments = []
        for _ in range(words.integers(2, 5)):
            seg = TemporalSegment(*_segment_within(words, duration, 1.5, 5.0))
            moments.append(MomentInstance(seg, words.integers(0, config.mq_num_classes)))
        ds["mq"][vid] = tuple(moments)
        words = _Words(seed, 3, i)
        ds["nlq"][vid] = tuple(
            NlqInstance(TemporalSegment(*_segment_within(words, duration, 1.0, 4.0)), f"{vid}:q{q}")
            for q in range(config.nlq_queries_per_video)
        )
        rng = np.random.default_rng(np.random.SeedSequence((seed, 4, i)))
        trajectory = _hand_trajectory(rng, w, h)
        t_contact = float(rng.uniform(3.5, duration - 0.5))
        t_pre = t_contact - float(rng.uniform(0.3, 0.8))
        times = (t_contact, t_pre, t_pre - 0.5, t_pre - 1.0, t_pre - 1.5)
        jitter = (rng.normal(0.0, 1.0, size=(5, 4)) * config.hand_noise_px).tolist()
        points = {}
        for tag, t, (jlx, jly, jrx, jry) in zip(KEYFRAME_TAGS, times, jitter):
            (lx, ly), (rx, ry) = trajectory(t)
            left = (min(w - 1.0, max(0.0, lx + jlx)), min(h - 1.0, max(0.0, ly + jly)))
            points[tag] = HandPoint(left, (min(w - 1.0, max(0.0, rx + jrx)), min(h - 1.0, max(0.0, ry + jry))))
        ds["fhp"][vid] = HandKeyframes(points)
        words = _Words(seed, 5, i)
        num_clips = int(np.floor(duration / config.clip_len_s + 1e-9))
        verb, noun, chain = words.integers(0, config.c_v), words.integers(0, config.c_n), []
        for _ in range(num_clips):
            chain.append(ActionLabel(verb, noun))
            if words.random() >= 0.55:
                verb = words.integers(0, config.c_v)
            if words.random() >= 0.55:
                noun = words.integers(0, config.c_n)
        anchor = num_clips - config.z
        ds["lta"][(vid, anchor)] = tuple(chain[anchor : anchor + config.z])
        for track, tag, section in (("sta", "kf", 6), ("scod", "sc", 7)):
            words = _Words(seed, section, i)
            for kf in range(config.sta_keyframes_per_video):
                kid = f"{vid}:{tag}{kf}"
                ds[f"{track}_images"][kid] = (w, h)
                items = []
                for _ in range(words.integers(1, 4)):
                    box = BoundingBox(*_random_box(words, w, h))
                    if track == "sta":
                        items.append(StaInstance(box, words.integers(0, config.c_n), words.integers(0, config.c_v), words.uniform(0.3, 2.0)))
                    else:
                        items.append(Detection(box, words.integers(0, config.c_n)))
                ds[track][kid] = tuple(items)
    return videos, ds


def _save_eager(out, config):
    """The 13 files, written by the savers from the eager records."""
    videos, ds = _eager(config)
    by_id = {v.video_id: v for v in videos}
    queries = {q.query_id: q for qs in ds["nlq"].values() for q in qs}
    out.mkdir()
    fileio.save_config(out / "config.json", config)
    fileio.save_mq_gt(out / "gt_mq.json", fileio.MqGt(by_id, config.mq_num_classes, ds["mq"]))
    mq_pred = {vid: tuple(RankedSegment(m.segment, 1.0, m.class_id) for m in ms) for vid, ms in ds["mq"].items()}
    fileio.save_mq_pred(out / "pred_mq.json", mq_pred)
    video_of = {q.query_id: vid for vid, qs in ds["nlq"].items() for q in qs}
    fileio.save_nlq_gt(out / "gt_nlq.json", fileio.NlqGt(by_id, queries, video_of))
    fileio.save_nlq_pred(out / "pred_nlq.json", {qid: (RankedSegment(q.segment, 1.0, qid),) for qid, q in queries.items()})
    fileio.save_fhp_gt(out / "gt_fhp.json", fileio.FhpGt(config.resolution, ds["fhp"]))
    fileio.save_fhp_pred(out / "pred_fhp.json", ds["fhp"])
    fileio.save_lta_gt(out / "gt_lta.json", fileio.LtaGt(config.z, config.c_v, config.c_n, config.k, ds["lta"]))
    fileio.save_lta_pred(out / "pred_lta.json", {key: LtaForecast(key[1], (seq,)) for key, seq in ds["lta"].items()})
    for kind in ("gt", "pred"):
        getattr(fileio, f"save_sta_{kind}")(out / f"{kind}_sta.json", fileio.StaGt(ds["sta_images"], ds["sta"]))
        getattr(fileio, f"save_scod_{kind}")(out / f"{kind}_scod.json", fileio.ScodGt(ds["scod_images"], ds["scod"]))
    return videos, ds


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# One-value ranges, which draw nothing; rejection-heavy 32-bit halves and
# whole-word ranges.
EDGE_RANGES = [{"c_v": 1, "c_n": 2, "mq_num_classes": 1}, {"c_v": 2**31 + 1, "c_n": 2**40 + 3, "mq_num_classes": 2**32}]


class TestColumns:
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("num_videos", [1, 12, 60])
    def test_synth_writes_the_bytes_of_eager_records(self, tmp_path, seed, num_videos):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--out", str(tmp_path / "synth"), "--seed", str(seed), "--num-videos", str(num_videos)]) == 0
        _save_eager(tmp_path / "eager", SynthConfig(seed=seed, num_videos=num_videos))
        synth, eager = _files(tmp_path / "synth"), _files(tmp_path / "eager")
        assert len(synth) == 13 and synth.keys() == eager.keys()
        assert [name for name in synth if synth[name] != eager[name]] == []

    @pytest.mark.parametrize("overrides", EDGE_RANGES, ids=["one-value", "wide"])
    def test_edge_ranges_write_the_bytes_of_eager_records(self, tmp_path, monkeypatch, overrides):
        # The synth command, run on an edge-range config.
        monkeypatch.setattr(cli, "SynthConfig", lambda **kw: SynthConfig(**kw, **overrides))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--out", str(tmp_path / "synth"), "--seed", "5", "--num-videos", "6"]) == 0
        _save_eager(tmp_path / "eager", SynthConfig(seed=5, num_videos=6, **overrides))
        synth, eager = _files(tmp_path / "synth"), _files(tmp_path / "eager")
        assert synth.keys() == eager.keys()
        assert [name for name in synth if synth[name] != eager[name]] == []

    @pytest.mark.parametrize("overrides", [{}, *EDGE_RANGES], ids=["default", "one-value", "wide"])
    def test_views_equal_the_eager_records(self, overrides):
        config = SynthConfig(seed=3, num_videos=5, **overrides)
        ds = generate_synthetic(config)
        videos, eager = _eager(config)
        assert list(ds.videos) == videos
        for track in ("mq", "nlq", "fhp", "lta", "sta", "scod"):
            view = getattr(ds, f"{track}_gt")
            assert isinstance(view, TypedView)
            assert view == eager[track] and eager[track] == view and not view != eager[track]
            assert repr(view) == repr(eager[track])
        assert ds.sta_images == eager["sta_images"] and ds.scod_images == eager["scod_images"]
        for vid in ds.video_ids:
            assert np.array_equal(ds.latent.fhp_targets[vid], fhp_target_vector(eager["fhp"][vid], config.resolution))
            assert ds.latent.lta_targets[vid] == eager["lta"][ds.episode(vid)]

    def test_views_build_nothing_until_read(self, monkeypatch):
        built = []
        validated = model._validated
        monkeypatch.setattr(model, "_validated", lambda cls, /, **fields: (built.append(cls.__name__), validated(cls, **fields))[1])
        ds = generate_synthetic(small_config())
        preds = perfect_predictions(ds)
        assert built == [] and ds.episode(ds.video_ids[1])[0] == ds.video_ids[1]
        ds.sta_gt[ds.video_ids[0] + ":kf0"]
        assert set(built) == {"BoundingBox", "StaInstance"}
        assert preds["lta"] == {key: LtaForecast(key[1], (seq,)) for key, seq in ds.lta_gt.items()}

    def test_replace_takes_a_plain_mapping(self):
        ds = generate_synthetic(small_config())
        first = {kid: items[:1] for kid, items in ds.sta_gt.items()}
        cut = dataclasses.replace(ds, sta_gt=first)
        assert cut.sta_gt is first and cut.mq_gt is ds.mq_gt
        assert perfect_predictions(cut)["sta"] == first
        lta = dataclasses.replace(ds, lta_gt=dict(ds.lta_gt))
        assert [lta.episode(vid) for vid in lta.video_ids] == [ds.episode(vid) for vid in ds.video_ids]

    def test_episode_of_an_unknown_video(self):
        ds = generate_synthetic(small_config())
        with pytest.raises(KeyError, match="no forecasting episode for 'nope'"):
            ds.episode("nope")

    @pytest.mark.parametrize(
        "fault, track",
        [
            ("box", "sta"),
            ("segment", "mq"),
            ("ttc", "sta"),
            ("verb", "lta"),
            ("class", "mq"),
        ],
    )
    def test_a_draw_out_of_range_names_its_track(self, monkeypatch, fault, track):
        # Each column check runs: a value forced out of range is refused,
        # by the check of the first track that draws it.
        config = small_config()
        uniform, integers = _Words.uniform, _Words.integers
        if fault == "box":
            monkeypatch.setattr(synth, "_random_box", lambda words, w, h: [5.0, 5.0, 1.0, 1.0])
        elif fault == "segment":
            monkeypatch.setattr(synth, "_segment_within", lambda words, duration, lo, hi: (2.0, 1.0))
        elif fault == "ttc":
            monkeypatch.setattr(_Words, "uniform", lambda self, lo, hi: -1.0 if (lo, hi) == (0.3, 2.0) else uniform(self, lo, hi))
        else:
            bound = config.c_v if fault == "verb" else config.mq_num_classes
            monkeypatch.setattr(_Words, "integers", lambda self, lo, hi: hi if (lo, hi) == (0, bound) else integers(self, lo, hi))
        with pytest.raises(ValueError, match=f"^synth {track}: "):
            generate_synthetic(config)
