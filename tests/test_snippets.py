import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoforge import snippets
from egoforge.model import FeatureMatrix, TemporalSegment
from egoforge.snippets import (
    ObservableWindow,
    SnippetSchedule,
    build_snippet_schedule,
    frame_span,
    observable_window,
    prefuse_features,
    sample_frames,
    sliding_clips,
    snippet_frames,
)


class TestSnippetSchedule:
    def test_48_frames_default_stride(self):
        # 48 frames with length 32 and stride 8: starts 0, 8, 16 and the last
        # snippet ends exactly at the clip boundary, so no padding.
        s = build_snippet_schedule(48)
        assert s.snippets == ((0, 32), (8, 40), (16, 48))
        assert not s.padded_tail

    def test_uncovered_tail_gets_padded_snippet(self):
        s = build_snippet_schedule(50)
        assert s.snippets[-1] == (24, 50)
        assert s.padded_tail

    def test_short_clip_single_padded_snippet(self):
        s = build_snippet_schedule(10)
        assert s.snippets == ((0, 10),)
        assert s.padded_tail

    def test_empty_clip_empty_schedule(self):
        s = build_snippet_schedule(0)
        assert s.snippets == ()
        assert not s.padded_tail

    def test_padded_frames_repeat_last(self):
        s = build_snippet_schedule(10)
        frames = snippet_frames(s, 0)
        assert frames.shape == (32,)
        assert list(frames[:10]) == list(range(10))
        assert set(frames[10:]) == {9}

    def test_full_snippet_frames(self):
        s = build_snippet_schedule(48)
        assert list(snippet_frames(s, 1)) == list(range(8, 40))

    def test_stride_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            build_snippet_schedule(100, snippet_len_frames=4, stride_frames=8)

    def test_a_schedule_past_the_cap_is_refused_before_it_is_laid_out(self, monkeypatch):
        monkeypatch.setattr(snippets, "MAX_SNIPPETS", 3)
        assert build_snippet_schedule(48).num_snippets == 3
        with pytest.raises(ValueError, match="49 frames make 4 snippets, more than 3"):
            build_snippet_schedule(49)
        with pytest.raises(ValueError, match="more than 3"):
            build_snippet_schedule(10**20)

    @given(
        num_frames=st.integers(min_value=1, max_value=2000),
        a=st.integers(min_value=1, max_value=64),
        b=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_frame_covered(self, num_frames, a, b):
        length, stride = max(a, b), min(a, b)
        s = build_snippet_schedule(num_frames, snippet_len_frames=length, stride_frames=stride)
        # Reference layout, one snippet at a time: full snippets while they
        # fit, then a padded tail at the next stride if frames remain.
        expected, start = [], 0
        while start + length <= num_frames:
            expected.append((start, start + length))
            start += stride
        if (expected[-1][1] if expected else 0) < num_frames:
            expected.append((start, num_frames))
        assert s.snippets == tuple(expected)
        covered = set()
        for start, end in s.snippets:
            covered.update(range(start, end))
        assert covered == set(range(num_frames))
        # Starts advance by exactly the stride.
        starts = [x for x, _ in s.snippets]
        assert all(q - p == stride for p, q in zip(starts, starts[1:]))
        # All but a padded tail are full length.
        for start, end in s.snippets[: len(s.snippets) - 1]:
            assert end - start == length
        if not s.padded_tail:
            assert s.snippets[-1][1] - s.snippets[-1][0] == length
        # The layout is built without the constructor's checks; they pass.
        assert SnippetSchedule(s.fps, s.snippet_len_frames, s.stride_frames, s.snippets, s.padded_tail) == s

    def test_frame_counts_must_be_ints(self):
        assert build_snippet_schedule(np.int64(50), fps=15) == build_snippet_schedule(50)
        assert type(build_snippet_schedule(50, fps=15).fps) is float
        for kwargs in ({"num_frames": 48.0}, {"num_frames": 48, "snippet_len_frames": 32.0}, {"num_frames": 48, "stride_frames": 8.0}):
            with pytest.raises(TypeError):
                build_snippet_schedule(**kwargs)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0.0, 32, 8, (), False), "fps must be positive"),
            ((15.0, 0, 8, (), False), "snippet_len_frames must be >= 1"),
            ((15.0, 32, 0, (), False), "stride_frames must be >= 1"),
            ((15.0, 32, 8, ((4, 4),), True), "snippet 0 has an empty or negative frame range"),
            ((15.0, 32, 8, ((0, 32), (9, 41)), False), "snippet 1 start is not one stride after snippet 0"),
            ((15.0, 32, 8, ((0, 20), (8, 40)), False), "snippet 0 is partial but not last"),
            ((15.0, 32, 8, ((0, 32),), True), "padded_tail must be set exactly when the last snippet is partial"),
            ((15.0, 32, 8, ((0, 20),), False), "padded_tail must be set exactly when the last snippet is partial"),
            ((15.0, 32, 8, (), True), "an empty schedule cannot have a padded tail"),
        ],
    )
    def test_the_constructor_checks_its_layout(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SnippetSchedule(*fields)


class TestObservableWindow:
    def test_window_ends_at_previous_clip(self):
        ends = (1.0, 2.0, 3.0, 4.0)
        w = observable_window(ends, 3, alpha_s=2.0)
        assert (w.start_s, w.end_s) == (1.0, 3.0)

    def test_window_clipped_at_zero(self):
        ends = (1.0, 2.0)
        w = observable_window(ends, 1, alpha_s=10.0)
        assert (w.start_s, w.end_s) == (0.0, 1.0)

    def test_first_clip_rejected(self):
        with pytest.raises(ValueError):
            observable_window((1.0, 2.0), 0, alpha_s=2.0)

    def test_decreasing_ends_rejected(self):
        with pytest.raises(ValueError):
            observable_window((2.0, 1.0), 1, alpha_s=2.0)

    def test_window_length_capped(self):
        with pytest.raises(ValueError):
            ObservableWindow(start_s=0.0, end_s=5.0, alpha_s=2.0)


class TestFrameSpan:
    def test_whole_seconds(self):
        assert frame_span(0.0, 2.0, 15.0) == (0, 30)

    def test_fractional_start(self):
        assert frame_span(0.5, 1.0, 15.0) == (8, 15)

    def test_boundary_not_double_counted(self):
        a = frame_span(0.0, 1.0, 15.0)
        b = frame_span(1.0, 2.0, 15.0)
        assert a[1] == b[0]


class TestSampleFrames:
    def _window(self):
        return ObservableWindow(start_s=2.0, end_s=4.0, alpha_s=2.0)

    def test_uniform_is_every_second_frame(self):
        # 2 s at 15 fps is 30 frames; 16 requested with the uniform rule
        # lands on every second frame starting at the first.
        w = ObservableWindow(start_s=0.0, end_s=32 / 15.0, alpha_s=3.0)
        frames = sample_frames(w, 16, fps=15.0, seed=0, mode="uniform")
        assert list(frames) == list(range(0, 32, 2))

    def test_center_mode_contiguous(self):
        frames = sample_frames(self._window(), 10, fps=15.0, seed=0, mode="center")
        assert list(frames) == list(range(40, 50))

    def test_random_mode_seeded(self):
        a = sample_frames(self._window(), 10, fps=15.0, seed=3, mode="random")
        b = sample_frames(self._window(), 10, fps=15.0, seed=3, mode="random")
        assert list(a) == list(b)
        assert all(30 <= f < 60 for f in a)
        assert list(a) == sorted(a)

    def test_random_more_than_available_repeats(self):
        w = ObservableWindow(start_s=0.0, end_s=0.2, alpha_s=1.0)
        frames = sample_frames(w, 10, fps=15.0, seed=0, mode="random")
        assert len(frames) == 10

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sample_frames(self._window(), 4, fps=15.0, seed=0, mode="stripes")


class TestSlidingClips:
    def test_exact_fit(self):
        w = ObservableWindow(start_s=0.0, end_s=4.0, alpha_s=4.0)
        clips = sliding_clips(w, clip_len_s=2.0, clip_stride_s=2.0)
        assert [(c.start_s, c.end_s) for c in clips] == [(0.0, 2.0), (2.0, 4.0)]

    def test_tail_right_aligned(self):
        w = ObservableWindow(start_s=0.0, end_s=5.0, alpha_s=5.0)
        clips = sliding_clips(w, clip_len_s=2.0, clip_stride_s=2.0)
        assert [(c.start_s, c.end_s) for c in clips] == [(0.0, 2.0), (2.0, 4.0), (3.0, 5.0)]

    def test_window_shorter_than_clip_rejected(self):
        w = ObservableWindow(start_s=1.0, end_s=2.0, alpha_s=1.0)
        with pytest.raises(ValueError):
            sliding_clips(w, clip_len_s=2.0, clip_stride_s=2.0)

    def test_a_stride_past_the_cap_is_refused_before_any_clip(self, monkeypatch):
        # 1e-6 s steps over a 16 s window fit 16 million clips. Each clip laid
        # out is counted, so a loop that ran would fail here, not hang.
        made = []

        def counted(**span):
            made.append(span)
            if len(made) > 1_001:
                raise AssertionError("laid out clips past the cap")
            return TemporalSegment(**span)

        monkeypatch.setattr(snippets, "TemporalSegment", counted)
        w = ObservableWindow(start_s=0.0, end_s=16.0, alpha_s=16.0)
        for clip_len in (2.0, 1e-6):
            with pytest.raises(ValueError, match="s clips at a 1e-06 s stride over a 16 s window make more than 1000 clips"):
                sliding_clips(w, clip_len_s=clip_len, clip_stride_s=1e-6)
        with pytest.raises(ValueError, match="more than 1000 clips"):
            sliding_clips(w, clip_len_s=2.0, clip_stride_s=5e-324)
        assert made == []

    def test_the_cap_counts_the_clips_that_fit_at_the_stride(self, monkeypatch):
        # Three clips fit in 3 s and in 3.5 s (whose end gets a right-aligned
        # fourth); four fit in 4 s.
        monkeypatch.setattr(snippets, "MAX_CLIPS", 3)
        assert len(sliding_clips(ObservableWindow(start_s=0.0, end_s=3.0, alpha_s=4.0), 1.0, 1.0)) == 3
        assert len(sliding_clips(ObservableWindow(start_s=0.0, end_s=3.5, alpha_s=4.0), 1.0, 1.0)) == 4
        with pytest.raises(ValueError, match="1 s clips at a 1 s stride over a 4 s window make more than 3 clips"):
            sliding_clips(ObservableWindow(start_s=0.0, end_s=4.0, alpha_s=4.0), 1.0, 1.0)

    @given(
        end=st.floats(min_value=1.0, max_value=100.0),
        alpha=st.floats(min_value=0.5, max_value=32.0),
        clip_len=st.floats(min_value=0.25, max_value=8.0),
        stride=st.floats(min_value=0.25, max_value=8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_clips_stay_inside_window(self, end, alpha, clip_len, stride):
        start = max(0.0, end - alpha)
        w = ObservableWindow(start_s=start, end_s=end, alpha_s=alpha)
        if clip_len > w.length_s:
            return
        clips = sliding_clips(w, clip_len_s=clip_len, clip_stride_s=stride)
        assert clips
        eps = 1e-9
        for c in clips:
            assert c.start_s >= w.start_s - eps
            assert c.end_s <= w.end_s + eps
        # The window end is always reached.
        assert clips[-1].end_s >= w.end_s - max(1e-9, 1e-12 * end)


class TestPrefuse:
    def test_concatenates_channels(self):
        a = FeatureMatrix(dim=2, rows=np.ones((3, 2), dtype=np.float32), provenance="verb")
        b = FeatureMatrix(dim=3, rows=np.zeros((3, 3), dtype=np.float32), provenance="noun")
        fused = prefuse_features(a, b)
        assert fused.dim == 5
        assert fused.provenance == "fused"
        assert fused.rows[0].tolist() == [1, 1, 0, 0, 0]

    def test_row_count_must_match(self):
        a = FeatureMatrix(dim=2, rows=np.ones((3, 2), dtype=np.float32), provenance="verb")
        b = FeatureMatrix(dim=2, rows=np.ones((4, 2), dtype=np.float32), provenance="noun")
        with pytest.raises(ValueError):
            prefuse_features(a, b)


def test_clip_segment_type():
    w = ObservableWindow(start_s=0.0, end_s=4.0, alpha_s=4.0)
    assert all(isinstance(c, TemporalSegment) for c in sliding_clips(w, 2.0, 2.0))
