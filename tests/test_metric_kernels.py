"""The pair-array metric kernels against their scalar definitions and oracles."""

import numpy as np
import pytest

import cases
from egoforge.metrics import (
    _box_iou_pairs,
    _temporal_iou_pairs,
    average_map,
    box_ap,
    box_iou,
    edit_distance_at_z,
    levenshtein,
    sta_ap,
    sta_report,
    temporal_iou,
)
from egoforge.model import (
    ActionLabel,
    BoundingBox,
    Detection,
    LtaForecast,
    MomentInstance,
    RankedSegment,
    StaInstance,
    TemporalSegment,
)
from egoforge.oracles import (
    oracle_average_map,
    oracle_box_ap,
    oracle_edit_distance_at_z,
    oracle_levenshtein,
    oracle_sta_ap,
)


def seg(a, b):
    return TemporalSegment(start_s=a, end_s=b)


def ranked(a, b, score, label=0):
    return RankedSegment(segment=seg(a, b), score=score, label=label)


def moment(a, b, cls=0):
    return MomentInstance(segment=seg(a, b), class_id=cls)


def det(x1, y1, x2, y2, cls=0, score=1.0):
    return Detection(box=BoundingBox(x1=x1, y1=y1, x2=x2, y2=y2), class_id=cls, score=score)


def _coarse_segment(rng):
    # Few distinct endpoints, so equal points and zero lengths are common.
    a, b = sorted(float(v) for v in rng.integers(0, 4, 2))
    return seg(a, b)


def _coarse_box(rng):
    x1, x2 = sorted(float(v) for v in rng.integers(0, 4, 2))
    y1, y2 = sorted(float(v) for v in rng.integers(0, 4, 2))
    return BoundingBox(x1=x1, y1=y1, x2=x2, y2=y2)


def _random_segment(rng):
    a, b = sorted(float(v) for v in rng.uniform(0, 50, 2))
    return seg(a, b)


def _random_box(rng):
    x1, x2 = sorted(float(v) for v in rng.uniform(-5, 40, 2))
    y1, y2 = sorted(float(v) for v in rng.uniform(-5, 40, 2))
    return BoundingBox(x1=x1, y1=y1, x2=x2, y2=y2)


class TestPairIou:
    @pytest.mark.parametrize("make", [_coarse_segment, _random_segment])
    def test_temporal_matches_scalar_bit_for_bit(self, make):
        rng = np.random.default_rng(1)
        pairs = [(make(rng), make(rng)) for _ in range(2000)]
        p = np.array([(a.start_s, a.end_s) for a, _ in pairs])
        g = np.array([(b.start_s, b.end_s) for _, b in pairs])
        assert _temporal_iou_pairs(p, g).tolist() == [temporal_iou(a, b) for a, b in pairs]

    def test_temporal_degenerate_cases(self):
        pairs = [(seg(2, 2), seg(2, 2)), (seg(2, 2), seg(3, 3)), (seg(2, 2), seg(0, 5)), (seg(0, 5), seg(5, 5))]
        p = np.array([(a.start_s, a.end_s) for a, _ in pairs])
        g = np.array([(b.start_s, b.end_s) for _, b in pairs])
        assert _temporal_iou_pairs(p, g).tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("make", [_coarse_box, _random_box])
    def test_box_matches_scalar_bit_for_bit(self, make):
        rng = np.random.default_rng(2)
        pairs = [(make(rng), make(rng)) for _ in range(2000)]
        p = np.array([(a.x1, a.y1, a.x2, a.y2) for a, _ in pairs])
        g = np.array([(b.x1, b.y1, b.x2, b.y2) for _, b in pairs])
        assert _box_iou_pairs(p, g).tolist() == [box_iou(a, b) for a, b in pairs]

    def test_zero_area_boxes_match_nothing(self):
        flat = BoundingBox(x1=1, y1=1, x2=4, y2=1)
        point = BoundingBox(x1=2, y1=2, x2=2, y2=2)
        p = np.array([(b.x1, b.y1, b.x2, b.y2) for b in (flat, point, point)])
        g = np.array([(b.x1, b.y1, b.x2, b.y2) for b in (flat, point, flat)])
        assert _box_iou_pairs(p, g).tolist() == [0.0, 0.0, 0.0]


def _label(rng):
    return ActionLabel(verb_id=int(rng.integers(0, 3)), noun_id=int(rng.integers(0, 4)))


class TestBatchedEditDistance:
    @pytest.mark.parametrize("mode", ["verb", "noun", "action"])
    def test_mixed_lengths_in_one_call_match_oracle(self, mode):
        rng = np.random.default_rng(3)
        gts, forecasts = {}, {}
        for i, z in enumerate([1, 3, 70, 1, 20, 3, 70, 5]):
            gts[("v", i)] = tuple(_label(rng) for _ in range(z))
            candidates = tuple(tuple(_label(rng) for _ in range(z)) for _ in range(int(rng.integers(1, 6))))
            forecasts[("v", i)] = LtaForecast(clip_index=i, candidates=candidates)
        assert edit_distance_at_z(forecasts, gts, mode) == oracle_edit_distance_at_z(forecasts, gts, mode)

    def test_random_cases_match_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            forecasts, gts, mode = cases.edit_distance_case(rng)
            assert edit_distance_at_z(forecasts, gts, mode) == oracle_edit_distance_at_z(forecasts, gts, mode)

    def test_levenshtein_unequal_lengths_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b = cases.sequence_pair(rng)
            assert levenshtein(a, b) == oracle_levenshtein(a, b)


class TestStaReport:
    def test_equals_four_separate_calls(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            preds, gts, _, top_k = cases.sta_case(rng)
            reports = sta_report(preds, gts, box_iou_thresh=0.3, ttc_tol_s=0.3, top_k=top_k)
            singles = [sta_ap(preds, gts, c, 0.3, 0.3, top_k) for c in ("noun", "noun_verb", "noun_ttc", "overall")]
            assert [r.value for r in reports] == singles

    def test_coarse_cases_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            gts = {
                "kf0": [
                    StaInstance(box=_coarse_box(rng), noun_id=int(rng.integers(0, 2)), verb_id=int(rng.integers(0, 2)), ttc_s=0.5)
                    for _ in range(int(rng.integers(1, 4)))
                ]
            }
            preds = {
                f"kf{i}": [
                    StaInstance(
                        box=_coarse_box(rng),
                        noun_id=int(rng.integers(0, 3)),
                        verb_id=int(rng.integers(0, 2)),
                        ttc_s=float(rng.choice([0.5, 1.0])),
                        score=float(rng.integers(0, 2)),
                    )
                    for _ in range(int(rng.integers(0, 6)))
                ]
                for i in range(2)
            }
            for criteria in ("noun", "noun_verb", "noun_ttc", "overall"):
                assert sta_ap(preds, gts, criteria, 0.25, 0.25, 4) == pytest.approx(
                    oracle_sta_ap(preds, gts, criteria, 0.25, 0.25, 4), abs=1e-12
                )


class TestOraclePinnedEdges:
    def test_prediction_only_group_is_a_false_positive(self):
        gts = {"v1": [moment(0, 10)]}
        preds = {"v0": [ranked(0, 10, 0.9)], "v1": [ranked(0, 10, 0.5)]}
        assert average_map(preds, gts, [0.5]).value == 0.5
        assert oracle_average_map(preds, gts, [0.5]) == 0.5

    def test_prediction_only_keyframe_in_box_ap(self):
        gts = {"img1": [det(0, 0, 10, 10)]}
        preds = {"img0": [det(0, 0, 10, 10, score=0.9)], "img1": [det(0, 0, 10, 10, score=0.5)]}
        assert box_ap(preds, gts, [0.5]).value == 0.5
        assert oracle_box_ap(preds, gts, [0.5]) == 0.5

    def test_class_seen_only_in_predictions_is_ignored(self):
        gts = {"v": [moment(0, 10, cls=0)]}
        preds = {"v": [ranked(0, 10, 0.99, label=7), ranked(0, 10, 0.5, label=0)]}
        assert average_map(preds, gts, [0.5]).value == 1.0
        assert oracle_average_map(preds, gts, [0.5]) == 1.0

    def test_all_tied_scores_keep_input_order(self):
        gts = {"v": [moment(0, 10)]}
        miss_first = {"v": [ranked(50, 60, 0.5), ranked(0, 10, 0.5)]}
        hit_first = {"v": [ranked(0, 10, 0.5), ranked(50, 60, 0.5)]}
        assert average_map(miss_first, gts, [0.5]).value == 0.5
        assert average_map(hit_first, gts, [0.5]).value == 1.0
        assert oracle_average_map(miss_first, gts, [0.5]) == 0.5
        assert oracle_average_map(hit_first, gts, [0.5]) == 1.0

    def test_iou_tie_goes_to_the_lower_ground_truth_index(self):
        # Both GTs overlap the first prediction equally; it takes GT 0, so the
        # second prediction, which only reaches GT 0, finds nothing left.
        gts = {"img": [det(0, 0, 10, 10), det(5, 0, 15, 10)]}
        preds = {"img": [det(2.5, 0, 12.5, 10, score=0.9), det(0, 0, 10, 10, score=0.8)]}
        assert box_ap(preds, gts, [0.5]).value == 0.5
        assert oracle_box_ap(preds, gts, [0.5]) == 0.5

    def test_coarse_random_cases_match_oracle(self):
        rng = np.random.default_rng(8)
        grid = [0.25, 0.5, 1.0]
        for _ in range(300):
            gts = {f"v{i}": [MomentInstance(segment=_coarse_segment(rng), class_id=int(rng.integers(0, 2))) for _ in range(int(rng.integers(1, 3)))] for i in range(2)}
            preds = {
                f"v{i}": [RankedSegment(segment=_coarse_segment(rng), score=float(rng.integers(0, 2)), label=int(rng.integers(0, 3))) for _ in range(int(rng.integers(0, 6)))]
                for i in range(3)
            }
            assert average_map(preds, gts, grid).value == pytest.approx(oracle_average_map(preds, gts, grid), abs=1e-12)
            boxes_gt = {k: [Detection(box=_coarse_box(rng), class_id=m.class_id) for m in v] for k, v in gts.items()}
            boxes_pred = {k: [Detection(box=_coarse_box(rng), class_id=p.label, score=p.score) for p in v] for k, v in preds.items()}
            assert box_ap(boxes_pred, boxes_gt, grid).value == pytest.approx(oracle_box_ap(boxes_pred, boxes_gt, grid), abs=1e-12)
