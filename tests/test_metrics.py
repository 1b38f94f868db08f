import math

import pytest

from egoforge.errors import DataError
from egoforge.metrics import (
    MetricReport,
    average_map,
    box_ap,
    box_iou,
    displacement_report,
    edit_distance_at_z,
    hand_displacement,
    levenshtein,
    recall_at_k,
    recall_at_kx,
    sta_ap,
    temporal_iou,
)
from egoforge.model import (
    ActionLabel,
    BoundingBox,
    Detection,
    HandKeyframes,
    HandPoint,
    KEYFRAME_TAGS,
    LtaForecast,
    MomentInstance,
    RankedSegment,
    StaInstance,
    TemporalSegment,
)


def seg(a, b):
    return TemporalSegment(start_s=a, end_s=b)


def ranked(a, b, score, label=0):
    return RankedSegment(segment=seg(a, b), score=score, label=label)


def moment(a, b, cls=0):
    return MomentInstance(segment=seg(a, b), class_id=cls)


def box(x1, y1, x2, y2):
    return BoundingBox(x1=x1, y1=y1, x2=x2, y2=y2)


class TestTemporalIou:
    def test_partial_overlap(self):
        assert temporal_iou(seg(0, 2), seg(1, 3)) == pytest.approx(1 / 3)

    def test_touching_segments(self):
        assert temporal_iou(seg(0, 2), seg(2, 4)) == 0.0

    def test_identical(self):
        assert temporal_iou(seg(1, 5), seg(1, 5)) == 1.0

    def test_nested(self):
        assert temporal_iou(seg(1, 2), seg(0, 4)) == 0.25

    def test_both_zero_length_same_point(self):
        assert temporal_iou(seg(2, 2), seg(2, 2)) == 1.0

    def test_both_zero_length_different_points(self):
        assert temporal_iou(seg(2, 2), seg(3, 3)) == 0.0

    def test_one_zero_length(self):
        assert temporal_iou(seg(2, 2), seg(0, 4)) == 0.0


class TestBoxIou:
    def test_quarter_overlap(self):
        assert box_iou(box(0, 0, 2, 2), box(1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_identical(self):
        assert box_iou(box(0, 0, 5, 4), box(0, 0, 5, 4)) == 1.0

    def test_disjoint(self):
        assert box_iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0

    def test_zero_area_is_zero_even_if_equal(self):
        assert box_iou(box(2, 2, 2, 2), box(2, 2, 2, 2)) == 0.0


class TestRecall:
    def test_top1_hit(self):
        preds = {"a": [ranked(0, 1, 0.9), ranked(5, 6, 0.8)]}
        gts = {"a": [moment(0, 1)]}
        assert recall_at_k(preds, gts, k=1, tiou_thresh=0.5) == 1.0

    def test_hit_outside_top_k_does_not_count(self):
        preds = {"a": [ranked(5, 6, 0.9), ranked(0, 1, 0.8)]}
        gts = {"a": [moment(0, 1)]}
        assert recall_at_k(preds, gts, k=1, tiou_thresh=0.5) == 0.0
        assert recall_at_k(preds, gts, k=2, tiou_thresh=0.5) == 1.0

    def test_score_ties_keep_input_order(self):
        preds = {"a": [ranked(5, 6, 0.5), ranked(0, 1, 0.5)]}
        gts = {"a": [moment(0, 1)]}
        assert recall_at_k(preds, gts, k=1, tiou_thresh=0.5) == 0.0

    def test_mean_over_labels_weighted_by_instances(self):
        preds = {"a": [ranked(0, 1, 0.9)], "b": []}
        gts = {"a": [moment(0, 1)], "b": [moment(2, 3)]}
        assert recall_at_k(preds, gts, k=1, tiou_thresh=0.5) == 0.5

    def test_no_gt_is_an_error(self):
        with pytest.raises(ValueError):
            recall_at_k({}, {}, k=1, tiou_thresh=0.5)

    def test_kx_scales_with_support(self):
        # Two instances of one label: k=1 can only reach one of them, the
        # 1x budget covers both.
        preds = {"a": [ranked(0, 1, 0.9), ranked(4, 5, 0.8)]}
        gts = {"a": [moment(0, 1), moment(4, 5)]}
        assert recall_at_k(preds, gts, k=1, tiou_thresh=0.5) == 0.5
        assert recall_at_kx(preds, gts, kx=1, tiou_thresh=0.5) == 1.0


class TestAveragePrecision:
    def test_textbook_case(self):
        # Ranked tp, fp, tp with two positives. Precision envelope gives
        # 0.5 * 1 + 0.5 * (2/3) = 5/6.
        preds = {"v": [ranked(0, 1, 0.9), ranked(5, 6, 0.8), ranked(2, 3, 0.7)]}
        gts = {"v": [moment(0, 1), moment(2, 3)]}
        report = average_map(preds, gts, tiou_thresholds=[0.5])
        assert report.value == pytest.approx(5 / 6)

    def test_duplicate_detections_are_false_positives(self):
        preds = {"v": [ranked(0, 1, 0.9), ranked(0, 1, 0.8)]}
        gts = {"v": [moment(0, 1)]}
        report = average_map(preds, gts, tiou_thresholds=[0.5])
        assert report.value == pytest.approx(1.0)
        # A confident miss ahead of the hit costs precision: tp flags are
        # then (0, 1), so AP is 1 * 0.5.
        preds = {"v": [ranked(0.6, 1, 0.9), ranked(0, 1, 0.8)]}
        report = average_map(preds, gts, tiou_thresholds=[0.5])
        assert report.value == pytest.approx(1 / 2)

    def test_mean_over_classes(self):
        preds = {"v": [ranked(0, 1, 0.9, label=0)]}
        gts = {"v": [moment(0, 1, cls=0), moment(4, 5, cls=1)]}
        report = average_map(preds, gts, tiou_thresholds=[0.5])
        assert report.value == pytest.approx(0.5)

    def test_classes_absent_from_gt_ignored(self):
        preds = {"v": [ranked(0, 1, 0.9, label=0), ranked(3, 4, 0.8, label=7)]}
        gts = {"v": [moment(0, 1, cls=0)]}
        report = average_map(preds, gts, tiou_thresholds=[0.5])
        assert report.value == pytest.approx(1.0)

    def test_averaged_over_thresholds(self):
        # IoU 1/3 segment: counted at 0.1..0.3, missed at 0.4..0.5.
        preds = {"v": [ranked(0, 2, 0.9)]}
        gts = {"v": [moment(1, 3)]}
        report = average_map(preds, gts)
        assert report.breakdown["mAP@0.30"] == 1.0
        assert report.breakdown["mAP@0.40"] == 0.0
        assert report.value == pytest.approx(3 / 5)

    def test_cross_video_ranking_shared(self):
        # A confident false positive in another video drags precision down.
        preds = {
            "v1": [ranked(0, 1, 0.9)],
            "v2": [ranked(0, 1, 0.95)],
        }
        gts = {"v1": [moment(0, 1)], "v2": [moment(5, 6)]}
        report = average_map(preds, gts, tiou_thresholds=[0.5])
        assert report.value == pytest.approx(0.25)

    def test_non_integer_label_rejected(self):
        preds = {"v": [ranked(0, 1, 0.9, label="x")]}
        gts = {"v": [moment(0, 1)]}
        with pytest.raises(ValueError):
            average_map(preds, gts)

    def test_greedy_prefers_higher_overlap(self):
        # One prediction overlapping two ground truths takes the closer one;
        # the second prediction still gets the other.
        preds = {"v": [ranked(0, 2.2, 0.9), ranked(2, 4, 0.8)]}
        gts = {"v": [moment(0, 2), moment(2, 4)]}
        report = average_map(preds, gts, tiou_thresholds=[0.5])
        assert report.value == pytest.approx(1.0)


class TestLevenshtein:
    def test_classic(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "") == 0

    def test_equal(self):
        assert levenshtein([1, 2, 3], [1, 2, 3]) == 0

    def test_transposition_costs_two(self):
        assert levenshtein("ab", "ba") == 2


def lbl(v, n):
    return ActionLabel(verb_id=v, noun_id=n)


class TestEditDistance:
    def test_perfect_and_one_substitution(self):
        truth = {
            "e1": [lbl(0, 0), lbl(1, 1), lbl(2, 2), lbl(3, 3)],
            "e2": [lbl(0, 0), lbl(1, 1), lbl(2, 2), lbl(3, 3)],
        }
        noisy = [lbl(0, 0), lbl(1, 1), lbl(2, 2), lbl(4, 4)]
        forecasts = {
            "e1": LtaForecast(clip_index=1, candidates=(tuple(truth["e1"]),)),
            "e2": LtaForecast(clip_index=1, candidates=(tuple(noisy),)),
        }
        assert edit_distance_at_z(forecasts, truth) == pytest.approx(0.125)

    def test_best_candidate_wins(self):
        truth = {"e": [lbl(0, 0), lbl(1, 1)]}
        wrong = (lbl(5, 5), lbl(6, 6))
        right = (lbl(0, 0), lbl(1, 1))
        forecasts = {"e": LtaForecast(clip_index=1, candidates=(wrong, right))}
        assert edit_distance_at_z(forecasts, truth) == 0.0

    def test_modes_project_components(self):
        # Verbs all match, nouns all differ.
        truth = {"e": [lbl(0, 0), lbl(1, 1)]}
        pred = (lbl(0, 9), lbl(1, 8))
        forecasts = {"e": LtaForecast(clip_index=1, candidates=(pred,))}
        assert edit_distance_at_z(forecasts, truth, mode="verb") == 0.0
        assert edit_distance_at_z(forecasts, truth, mode="noun") == 1.0
        assert edit_distance_at_z(forecasts, truth, mode="action") == 1.0

    def test_missing_forecast_is_data_error(self):
        truth = {"e": [lbl(0, 0)]}
        with pytest.raises(DataError):
            edit_distance_at_z({}, truth)

    def test_extra_forecast_is_data_error(self):
        truth = {"e": [lbl(0, 0)]}
        forecasts = {
            "e": LtaForecast(clip_index=1, candidates=((lbl(0, 0),),)),
            "ghost": LtaForecast(clip_index=1, candidates=((lbl(0, 0),),)),
        }
        with pytest.raises(DataError):
            edit_distance_at_z(forecasts, truth)

    def test_length_mismatch_is_data_error(self):
        truth = {"e": [lbl(0, 0), lbl(1, 1)]}
        forecasts = {"e": LtaForecast(clip_index=1, candidates=((lbl(0, 0),),))}
        with pytest.raises(DataError):
            edit_distance_at_z(forecasts, truth)


def keyframes(offsets=None, invisible=()):
    """Keyframes at tag-dependent positions, optionally shifted per hand."""
    dx, dy = offsets or (0.0, 0.0)
    points = {}
    for i, tag in enumerate(KEYFRAME_TAGS):
        base = (10.0 * i, 5.0 * i)
        points[tag] = HandPoint(
            left=(base[0] + dx, base[1] + dy),
            right=(base[0] + 100 + dx, base[1] + dy),
            left_visible=(tag, "left") not in invisible,
            right_visible=(tag, "right") not in invisible,
        )
    return HandKeyframes(points=points)


class TestDisplacement:
    def test_constant_offset(self):
        gt = keyframes()
        pred = keyframes(offsets=(3.0, 4.0))
        d = hand_displacement(pred, gt)
        assert d["left"].mean_px == pytest.approx(5.0)
        assert d["left"].contact_px == pytest.approx(5.0)
        assert d["right"].mean_px == pytest.approx(5.0)

    def test_invisible_keyframes_excluded(self):
        gt = keyframes(invisible=(("c", "left"),))
        pred = keyframes(offsets=(3.0, 4.0))
        d = hand_displacement(pred, gt)
        assert d["left"].contact_px is None
        assert d["left"].mean_px == pytest.approx(5.0)

    def test_fully_hidden_hand_is_none(self):
        gt = keyframes(invisible=tuple((tag, "left") for tag in KEYFRAME_TAGS))
        pred = keyframes()
        d = hand_displacement(pred, gt)
        assert d["left"].mean_px is None
        assert d["left"].contact_px is None

    def test_report_names_and_values(self):
        gts = {"v1": keyframes(), "v2": keyframes()}
        preds = {"v1": keyframes(offsets=(3.0, 4.0)), "v2": keyframes()}
        reports = displacement_report(preds, gts)
        by_name = {r.name: r for r in reports}
        assert set(by_name) == {"L-M.Disp", "L-C.Disp", "R-M.Disp", "R-C.Disp"}
        assert by_name["L-M.Disp"].value == pytest.approx(2.5)
        assert by_name["L-M.Disp"].count == 2
        assert by_name["L-M.Disp"].family == "pixels"

    def test_a_hand_never_visible_is_not_reported(self):
        hidden = tuple((tag, "left") for tag in KEYFRAME_TAGS)
        gts = {"v1": keyframes(invisible=hidden), "v2": keyframes(invisible=hidden)}
        reports = displacement_report({"v1": keyframes(offsets=(3.0, 4.0)), "v2": keyframes()}, gts)
        assert [(r.name, r.value, r.count) for r in reports] == [("R-M.Disp", 2.5, 2), ("R-C.Disp", 2.5, 2)]

    def test_missing_prediction_is_data_error(self):
        gts = {"v1": keyframes()}
        with pytest.raises(DataError):
            displacement_report({}, gts)

    def test_no_ground_truth_is_refused(self):
        with pytest.raises(ValueError) as refused:
            displacement_report({}, {})
        assert str(refused.value) == "displacement is undefined with no ground-truth instances"


def sta(bx, noun, verb, ttc, score=1.0):
    return StaInstance(box=bx, noun_id=noun, verb_id=verb, ttc_s=ttc, score=score)


class TestStaAp:
    def test_perfect_match_all_criteria(self):
        gt = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=2, ttc=1.0)]}
        pred = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=2, ttc=1.0, score=0.9)]}
        for criteria in ("noun", "noun_verb", "noun_ttc", "overall"):
            assert sta_ap(pred, gt, criteria) == 1.0

    def test_wrong_verb_only_breaks_verb_criteria(self):
        gt = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=2, ttc=1.0)]}
        pred = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=3, ttc=1.0, score=0.9)]}
        assert sta_ap(pred, gt, "noun") == 1.0
        assert sta_ap(pred, gt, "noun_verb") == 0.0
        assert sta_ap(pred, gt, "noun_ttc") == 1.0
        assert sta_ap(pred, gt, "overall") == 0.0

    def test_ttc_tolerance_boundary(self):
        gt = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=2, ttc=1.0)]}
        at_tol = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=2, ttc=1.25, score=0.9)]}
        outside = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=2, ttc=1.26, score=0.9)]}
        assert sta_ap(at_tol, gt, "noun_ttc") == 1.0
        assert sta_ap(outside, gt, "noun_ttc") == 0.0

    def test_wrong_noun_never_matches(self):
        gt = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=2, ttc=1.0)]}
        pred = {"kf": [sta(box(0, 0, 10, 10), noun=2, verb=2, ttc=1.0, score=0.9)]}
        assert sta_ap(pred, gt, "noun") == 0.0

    def test_mean_over_noun_classes(self):
        gt = {
            "kf": [
                sta(box(0, 0, 10, 10), noun=1, verb=0, ttc=1.0),
                sta(box(20, 20, 30, 30), noun=2, verb=0, ttc=1.0),
            ]
        }
        pred = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=0, ttc=1.0, score=0.9)]}
        assert sta_ap(pred, gt, "noun") == pytest.approx(0.5)

    def test_top_k_preselection(self):
        # Five confident misses push the only hit out of the candidate set.
        misses = [
            sta(box(50 + i, 50, 60 + i, 60), noun=1, verb=0, ttc=1.0, score=0.9 - 0.01 * i)
            for i in range(5)
        ]
        hit = sta(box(0, 0, 10, 10), noun=1, verb=0, ttc=1.0, score=0.1)
        gt = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=0, ttc=1.0)]}
        pred = {"kf": misses + [hit]}
        assert sta_ap(pred, gt, "noun", top_k=5) == 0.0
        assert sta_ap(pred, gt, "noun", top_k=6) == pytest.approx(1 / 6)

    def test_box_iou_threshold(self):
        gt = {"kf": [sta(box(0, 0, 10, 10), noun=1, verb=0, ttc=1.0)]}
        # IoU 0.5 needs two thirds linear overlap on one axis.
        half = {"kf": [sta(box(0, 0, 10, 5), noun=1, verb=0, ttc=1.0, score=0.9)]}
        assert sta_ap(half, gt, "noun", box_iou_thresh=0.5) == 1.0
        third = {"kf": [sta(box(0, 0, 10, 3), noun=1, verb=0, ttc=1.0, score=0.9)]}
        assert sta_ap(third, gt, "noun", box_iou_thresh=0.5) == 0.0


class TestBoxAp:
    def test_perfect_detections(self):
        gt = {"img": [Detection(box=box(0, 0, 10, 10), class_id=1)]}
        pred = {"img": [Detection(box=box(0, 0, 10, 10), class_id=1, score=0.9)]}
        report = box_ap(pred, gt)
        assert report.value == 1.0
        assert report.breakdown["AP50"] == 1.0
        assert report.breakdown["AP75"] == 1.0

    def test_iou_grid_drops_loose_boxes(self):
        gt = {"img": [Detection(box=box(0, 0, 10, 10), class_id=1)]}
        # IoU = 80/120 = 2/3: passes 0.50..0.65, fails 0.70 up.
        pred = {"img": [Detection(box=box(0, 2, 10, 12), class_id=1, score=0.9)]}
        report = box_ap(pred, gt)
        assert report.breakdown["AP@0.65"] == 1.0
        assert report.breakdown["AP@0.70"] == 0.0
        assert report.value == pytest.approx(0.4)

    def test_single_threshold_grid(self):
        gt = {"img": [Detection(box=box(0, 0, 10, 10), class_id=1)]}
        pred = {"img": [Detection(box=box(0, 2, 10, 12), class_id=1, score=0.9)]}
        report = box_ap(pred, gt, iou_thresholds=[0.5])
        assert report.value == 1.0
        assert "AP75" not in report.breakdown


class TestMetricReport:
    def test_breakdown_values_must_be_finite(self):
        with pytest.raises(ValueError):
            MetricReport(name="x", value=0.5, breakdown={"a": math.inf}, count=1, family="percent")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            MetricReport(name="x", value=0.5, count=1, family="furlongs")

    def test_value_equality(self):
        a = MetricReport(name="x", value=0.5, breakdown={"a": 1.0}, count=1, family="percent")
        b = MetricReport(name="x", value=0.5, breakdown={"a": 1.0}, count=1, family="percent")
        assert a == b
