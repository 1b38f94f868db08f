from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge.heads import LinearHead
from egoforge.model import (
    ActionLabel,
    BoundingBox,
    Detection,
    FeatureMatrix,
    HandKeyframes,
    HandPoint,
    KEYFRAME_TAGS,
    LtaForecast,
    MomentInstance,
    NlqInstance,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    TemporalSegment,
    VideoMeta,
    _finite,
    _plain_matrices,
    unknown_keys,
    validate_dataset,
)


def _point(x=1.0, y=2.0):
    return HandPoint(left=(x, y), right=(x + 1, y + 1))


def _keyframes():
    return HandKeyframes(points={tag: _point() for tag in KEYFRAME_TAGS})


def _prob_rows(n, c, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.random((n, c))
    return m / m.sum(axis=1, keepdims=True)


class TestSegments:
    def test_length(self):
        assert TemporalSegment(start_s=1.0, end_s=3.5).length_s == 2.5

    def test_zero_length_allowed(self):
        assert TemporalSegment(start_s=2.0, end_s=2.0).length_s == 0.0

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            TemporalSegment(start_s=3.0, end_s=1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TemporalSegment(start_s=-0.1, end_s=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            TemporalSegment(start_s=0.0, end_s=float("inf"))


class TestVideoMeta:
    def test_duration(self):
        assert VideoMeta(video_id="v", num_frames=300, fps=30.0).duration_s == 10.0

    def test_bad_fps(self):
        with pytest.raises(ValueError):
            VideoMeta(video_id="v", num_frames=10, fps=0.0)

    def test_bool_frames_rejected(self):
        with pytest.raises(ValueError):
            VideoMeta(video_id="v", num_frames=True, fps=30.0)


class TestScoreMatrix:
    def test_z_and_dtype(self):
        m = ScoreMatrix(verb=_prob_rows(4, 3), noun=_prob_rows(4, 5))
        assert m.z == 4
        assert m.verb.dtype == np.float64
        assert not m.verb.flags.writeable

    def test_rows_must_sum_to_one(self):
        bad = _prob_rows(2, 3)
        bad = bad * 0.5
        with pytest.raises(ValueError):
            ScoreMatrix(verb=bad, noun=_prob_rows(2, 4))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            ScoreMatrix(verb=_prob_rows(2, 3), noun=_prob_rows(3, 3))

    def test_equality_is_by_value(self):
        a = ScoreMatrix(verb=_prob_rows(2, 3), noun=_prob_rows(2, 4))
        b = ScoreMatrix(verb=_prob_rows(2, 3), noun=_prob_rows(2, 4))
        assert a == b

    @pytest.mark.parametrize(
        "verb, noun",
        [
            (_prob_rows(4, 3), _prob_rows(4, 5)),
            # Rows within 1e-12 of the 1e-6 edge, on either side of it.
            (np.array([[0.5, 0.5 + (1e-6 - 1e-13)]]), np.array([[1.0]])),
            (np.array([[0.5, 0.5 + (1e-6 + 1e-13)]]), np.array([[1.0]])),
            (np.array([[1.5, -0.5]]), np.array([[1.0]])),
            (np.array([[np.nan, 1.0]]), np.array([[1.0]])),
            (np.array([[np.inf, 1.0]]), np.array([[1.0]])),
            (np.array([[1e308, 1e308]]), np.array([[1.0]])),  # the sum overflows
            (_prob_rows(2, 3) * 0.5, _prob_rows(2, 4)),
            (_prob_rows(2, 3), _prob_rows(3, 4)),
            (np.zeros((0, 3)), np.zeros((0, 4))),
            (np.zeros((2, 0)), _prob_rows(2, 4)),
            (_prob_rows(2, 3).astype(np.float32), _prob_rows(2, 4)),
            (_prob_rows(1, 3)[0], _prob_rows(1, 4)),
        ],
    )
    def test_arrays_are_checked_as_their_rows(self, verb, noun):
        # Arrays take a numpy check; it must accept, refuse and word its
        # refusals exactly as the check of the same rows as lists.
        def build(v, n):
            try:
                return ScoreMatrix(verb=v, noun=n)
            except ValueError as exc:
                return str(exc)

        got, want = build(verb, noun), build(verb.tolist(), noun.tolist())
        if isinstance(want, str):
            assert got == want
        else:
            assert got == want and not got.verb.flags.writeable and not got.noun.flags.writeable
            assert got.verb.dtype == got.noun.dtype == np.float64


class TestForecast:
    def test_candidates_must_share_length(self):
        seq = (ActionLabel(verb_id=0, noun_id=1),) * 3
        short = (ActionLabel(verb_id=0, noun_id=1),) * 2
        with pytest.raises(ValueError):
            LtaForecast(clip_index=1, candidates=(seq, short))

    def test_z_comes_from_candidates(self):
        seq = (ActionLabel(verb_id=0, noun_id=1),) * 3
        assert LtaForecast(clip_index=1, candidates=(seq,)).z == 3

    def test_matrix_must_match_z(self):
        seq = (ActionLabel(verb_id=0, noun_id=1),) * 3
        matrix = ScoreMatrix(verb=_prob_rows(2, 3), noun=_prob_rows(2, 4))
        with pytest.raises(ValueError):
            LtaForecast(clip_index=1, candidates=(seq,), score_matrix=matrix)


class TestHands:
    def test_tags_fixed(self):
        kf = _keyframes()
        assert tuple(kf.points) == KEYFRAME_TAGS
        assert kf["c"].coords("left") == (1.0, 2.0)

    def test_missing_tag_rejected(self):
        points = {tag: _point() for tag in KEYFRAME_TAGS[:-1]}
        with pytest.raises(ValueError):
            HandKeyframes(points=points)

    def test_a_wrong_tag_set_names_the_tags_in_canonical_order(self):
        # Not in set order, which changes with the hash seed.
        with pytest.raises(ValueError) as e:
            HandKeyframes({})
        assert str(e.value) == "HandKeyframes: keyframe tags must be exactly ['c', 'p', 'p1', 'p2', 'p3']"

    def test_visibility_flags(self):
        p = HandPoint(left=(0, 0), right=(1, 1), left_visible=False)
        assert not p.visible("left")
        assert p.visible("right")


class TestBoxes:
    def test_area(self):
        assert BoundingBox(x1=0, y1=0, x2=4, y2=5).area == 20.0

    def test_zero_area_allowed(self):
        assert BoundingBox(x1=3, y1=3, x2=3, y2=3).area == 0.0

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(x1=5, y1=0, x2=4, y2=5)

    def test_sta_requires_positive_ttc(self):
        box = BoundingBox(x1=0, y1=0, x2=4, y2=5)
        with pytest.raises(ValueError):
            StaInstance(box=box, noun_id=0, verb_id=0, ttc_s=0.0)

    def test_detection_defaults(self):
        det = Detection(box=BoundingBox(x1=0, y1=0, x2=1, y2=1), class_id=2)
        assert det.score == 1.0


class TestFeatureMatrix:
    def test_float32_read_only(self):
        f = FeatureMatrix(dim=3, rows=np.zeros((2, 3), dtype=np.float32), provenance="stub")
        assert f.num_rows == 2
        assert not f.rows.flags.writeable

    def test_no_rows_take_the_width(self):
        f = FeatureMatrix(dim=3, rows=[], provenance="stub")
        assert f.rows.shape == (0, 3) and f.rows.dtype == np.float32

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            FeatureMatrix(dim=4, rows=np.zeros((2, 3), dtype=np.float32), provenance="stub")

    def test_nan_rejected(self):
        rows = np.full((1, 3), np.nan, dtype=np.float32)
        with pytest.raises(ValueError):
            FeatureMatrix(dim=3, rows=rows, provenance="stub")

    def test_unknown_provenance(self):
        with pytest.raises(ValueError):
            FeatureMatrix(dim=3, rows=np.zeros((1, 3), dtype=np.float32), provenance="mystery")


def _array_records():
    """Each array record, with edits that each give a record differing from
    it in one field or more, arrays included."""
    score = ScoreMatrix(verb=_prob_rows(2, 3), noun=_prob_rows(2, 4))
    features = FeatureMatrix(dim=3, rows=np.zeros((2, 3)), provenance="verb")
    head = LinearHead(kind="classifier_C", weight=np.zeros((6, 2)), bias=np.zeros(6), z=1, c_v=2, c_n=3)
    regression = {"kind": "regression_20", "weight": np.zeros((20, 2)), "bias": np.zeros(20), "z": None, "c_v": None, "c_n": None}
    return [
        (score, [{"verb": _prob_rows(2, 3, seed=1)}, {"noun": _prob_rows(2, 4, seed=1)}, {"verb": _prob_rows(3, 3), "noun": _prob_rows(3, 4)}]),
        (features, [{"rows": np.ones((2, 3))}, {"provenance": "noun"}, {"dim": 2, "rows": np.zeros((2, 2))}, {"rows": np.zeros((3, 3))}]),
        (head, [{"weight": np.ones((6, 2))}, {"bias": np.ones(6)}, {"c_v": 3, "c_n": 2}, {"z": 2, "c_v": 1}, regression]),
    ]


class TestArrayRecordEquality:
    @pytest.mark.parametrize("record, edits", _array_records(), ids=["ScoreMatrix", "FeatureMatrix", "LinearHead"])
    def test_every_field_is_compared(self, record, edits):
        copy = replace(record)
        assert copy == record and record == copy and not copy != record
        for edit in edits:
            other = replace(record, **edit)
            assert other != record and record != other and not other == record, edit

    @pytest.mark.parametrize("record, others", [(r, [e for e, _ in _array_records() if type(e) is not type(r)]) for r, _ in _array_records()])
    def test_other_types_are_not_implemented(self, record, others):
        for other in [*others, 1, None, "verb"]:
            assert record.__eq__(other) is NotImplemented
            assert not record == other and record != other

    @pytest.mark.parametrize("record", [r for r, _ in _array_records()])
    def test_unhashable(self, record):
        with pytest.raises(TypeError):
            hash(record)


class TestRankedSegment:
    def test_label_kinds(self):
        seg = TemporalSegment(start_s=0, end_s=1)
        assert RankedSegment(segment=seg, score=0.5, label=3).label == 3
        assert RankedSegment(segment=seg, score=0.5, label="q1").label == "q1"

    def test_nan_score_rejected(self):
        seg = TemporalSegment(start_s=0, end_s=1)
        with pytest.raises(ValueError):
            RankedSegment(segment=seg, score=float("nan"), label=0)


def _mq_raw():
    return {
        "schema": "mq/1",
        "num_classes": 3,
        "videos": [{"video_id": "v1", "num_frames": 450, "fps": 15.0}],
        "instances": [
            {"video_id": "v1", "start_s": 1.0, "end_s": 4.0, "class_id": 2},
        ],
    }


class TestRawValidation:
    def test_valid_file_has_no_violations(self):
        assert validate_dataset(_mq_raw()) == []

    def test_reversed_segment_reported(self):
        raw = _mq_raw()
        raw["instances"][0]["start_s"] = 9.0
        violations = validate_dataset(raw)
        assert any("reversed" in v for v in violations)

    def test_class_out_of_range_reported(self):
        raw = _mq_raw()
        raw["instances"][0]["class_id"] = 3
        violations = validate_dataset(raw)
        assert any("class_id" in v for v in violations)

    def test_unknown_video_reported(self):
        raw = _mq_raw()
        raw["instances"][0]["video_id"] = "v9"
        violations = validate_dataset(raw)
        assert any("v9" in v for v in violations)

    def test_missing_key_reported(self):
        raw = _mq_raw()
        del raw["instances"][0]["end_s"]
        violations = validate_dataset(raw)
        assert any("end_s" in v for v in violations)

    def test_unknown_keys_warn_not_fail(self):
        raw = _mq_raw()
        raw["extra"] = 1
        raw["instances"][0]["note"] = "hi"
        assert validate_dataset(raw) == []
        keys = unknown_keys(raw)
        assert any("extra" in k for k in keys)
        assert any("note" in k for k in keys)

    def test_lta_candidate_length_checked(self):
        raw = {
            "schema": "lta/1",
            "config": {"z": 2, "c_v": 3, "c_n": 3, "k": 5},
            "instances": [
                {"video_id": "v", "clip_index": 4, "sequence": [[0, 1]]},
            ],
        }
        violations = validate_dataset(raw)
        assert any("length" in v for v in violations)

    def test_lta_pred_prob_rows_checked(self):
        raw = {
            "schema": "lta-pred/1",
            "instances": [
                {
                    "video_id": "v",
                    "clip_index": 4,
                    "score_matrix": {"verb": [[0.5, 0.1]], "noun": [[1.0]]},
                }
            ],
        }
        violations = validate_dataset(raw)
        assert any("sum" in v for v in violations)

    def test_unknown_schema_tag(self):
        violations = validate_dataset({"schema": "bogus/9"})
        assert violations

    def test_a_top_level_that_is_not_an_object(self):
        assert validate_dataset([]) == ["top level: not an object"]
        assert unknown_keys([]) == []

    @pytest.mark.parametrize("raw", [{"instances": []}, {"schema": 1, "instances": []}])
    def test_a_schema_that_is_not_a_string(self, raw):
        assert validate_dataset(raw) == ["schema: missing or not a string"]
        assert unknown_keys(raw) == []


class TestProbabilityRows:
    """Rows of plain floats take a fast path in the lta-pred walk; every
    verdict and message must stay that of the per-value checks."""

    BAD = "instances[0].score_matrix.verb[0]: must be a list of non-negative finite reals"
    SUM = "instances[0].score_matrix.verb[0]: row does not sum to 1 within 1e-6"

    @staticmethod
    def _violations(row):
        rec = {"video_id": "v", "clip_index": 0, "score_matrix": {"verb": [row], "noun": [[1.0]]}}
        return validate_dataset({"schema": "lta-pred/1", "instances": [rec]})

    @pytest.mark.parametrize(
        "row, expected",
        [
            ([0.25, 0.75], []),
            ([-0.0, 1.0], []),
            ([0, 1], []),
            ([0.5, 0.5000001], []),
            ([float("nan"), 1.0], [BAD]),
            ([1.0, float("nan")], [BAD]),
            ([float("inf"), 0.0], [BAD]),
            ([float("-inf"), 1.0], [BAD]),
            ([True, 0.0], [BAD]),
            ([1.0, False], [BAD]),
            ([10**401, 0.0], [BAD]),
            ([-(10**401), 1.0], [BAD]),
            ([-0.5, 1.5], [BAD]),
            ([1.5, -0.5], [BAD]),
            ([1e308, 1e308], [SUM]),
            ([0.5, 0.5001], [SUM]),
            ([], [BAD]),
            ("1.0", [BAD]),
            # Sums within a few ulps of the tolerance: the verdict follows the
            # exactly rounded sum, so it is the same on every Python version.
            ([0.1000001] * 10, []),
            ([0.05882358823529413] * 17, [SUM]),
        ],
    )
    def test_row_verdicts(self, row, expected):
        assert self._violations(row) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e308]),
                st.integers(-2, 2),
                st.booleans(),
            ),
            max_size=5,
        )
    )
    def test_fast_path_agrees_with_per_value_checks(self, row):
        ok = len(row) >= 1 and all(_finite(v) and v >= 0 for v in row)
        expected = [] if ok and abs(sum(row) - 1.0) <= 1e-6 else [self.SUM] if ok else [self.BAD]
        assert self._violations(row) == expected

    @pytest.mark.parametrize("matrix", [{"verb": [[1.0]], "nouns": [[1.0]]}, {"verbs": [[1.0]], "noun": [[1.0]]}])
    def test_a_matrix_of_two_other_keys_is_one_violation(self, matrix):
        # Two keys, as the column scan's length check wants, but not these two.
        rec = {"video_id": "v", "clip_index": 0, "score_matrix": matrix}
        violations = validate_dataset({"schema": "lta-pred/1", "instances": [rec]})
        assert violations == ["instances[0]: score_matrix must have exactly 'verb' and 'noun' rows"]

    def test_no_matrices_are_no_blocks(self):
        assert _plain_matrices([], None) == []


class TestOverflowingGeometry:
    def test_segment_whose_doubled_length_overflows(self):
        from egoforge.model import HALF_MAX

        TemporalSegment(0.0, HALF_MAX)
        with pytest.raises(ValueError, match="segment too long"):
            TemporalSegment(0.0, 1e308)

    @pytest.mark.parametrize("box", [(0.0, 0.0, 1e200, 1e200), (-1e308, 0.0, 1e308, 1.0), (0.0, -1e308, 1.0, 1e308)])
    def test_box_whose_doubled_area_or_side_overflows(self, box):
        with pytest.raises(ValueError, match="box too large"):
            BoundingBox(*box)

    def test_box_at_the_bound(self):
        from egoforge.model import HALF_MAX

        BoundingBox(0.0, 0.0, 1.0, HALF_MAX)
        BoundingBox(0.0, 0.0, 1e150, 1e150)
