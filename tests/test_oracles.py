"""Randomized equivalence between the fast metrics and their reference oracles.

The oracles recompute each quantity by exhaustive scanning with none of the
vectorized machinery. Any tie-handling or envelope subtlety that diverges
shows up here on small, tie-heavy random cases.
"""

import numpy as np

import cases
from egoforge import fusion
from egoforge.fusion import nms, temporal_nms, top_k_sequences
from egoforge.metrics import (
    average_map,
    box_ap,
    edit_distance_at_z,
    levenshtein,
    recall_at_k,
    sta_ap,
)
from egoforge.oracles import (
    oracle_average_map,
    oracle_box_ap,
    oracle_edit_distance_at_z,
    oracle_levenshtein,
    oracle_nms,
    oracle_recall_at_k,
    oracle_sta_ap,
    oracle_temporal_nms,
    oracle_top_k_sequences,
)

TRIALS = 300
TOL = 1e-9


def test_average_map_matches_oracle():
    rng = np.random.default_rng(101)
    for _ in range(TRIALS):
        preds, gts, thresholds = cases.temporal_ap_case(rng)
        fast = average_map(preds, gts, thresholds).value
        slow = oracle_average_map(preds, gts, thresholds)
        assert abs(fast - slow) <= TOL


def test_box_ap_matches_oracle():
    rng = np.random.default_rng(202)
    for _ in range(TRIALS):
        preds, gts, thresholds = cases.box_ap_case(rng)
        fast = box_ap(preds, gts, thresholds).value
        slow = oracle_box_ap(preds, gts, thresholds)
        assert abs(fast - slow) <= TOL


def test_sta_ap_matches_oracle():
    rng = np.random.default_rng(303)
    for _ in range(TRIALS):
        preds, gts, criteria, top_k = cases.sta_case(rng)
        fast = sta_ap(preds, gts, criteria=criteria, top_k=top_k)
        slow = oracle_sta_ap(preds, gts, criteria, top_k=top_k)
        assert abs(fast - slow) <= TOL


def test_recall_at_k_matches_oracle():
    rng = np.random.default_rng(404)
    for _ in range(TRIALS):
        preds, gts, k, thresh = cases.recall_case(rng)
        fast = recall_at_k(preds, gts, k, thresh)
        slow = oracle_recall_at_k(preds, gts, k, thresh)
        assert abs(fast - slow) <= TOL


def test_nms_matches_oracle():
    rng = np.random.default_rng(505)
    for _ in range(TRIALS):
        boxes, scores, thresh = cases.nms_case(rng)
        assert nms(boxes, scores, thresh) == oracle_nms(boxes, scores, thresh)


def test_temporal_nms_matches_oracle():
    rng = np.random.default_rng(515)
    for _ in range(500):
        segments, thresh = cases.temporal_nms_case(rng)
        assert temporal_nms(segments, thresh) == oracle_temporal_nms(segments, thresh)


def test_top_k_sequences_match_oracle():
    rng = np.random.default_rng(525)
    for _ in range(500):
        matrix, k = cases.top_k_case(rng)
        assert top_k_sequences(matrix, k) == oracle_top_k_sequences(matrix, k)


def test_nms_matches_oracle_on_a_blocked_pool():
    # Thousands of boxes: the IoU rows are computed in many blocks.
    n = 2000
    assert n * n > 50 * fusion._PAIR_CAP
    rng = np.random.default_rng(535)
    boxes, scores = cases.box_pool(rng, n)
    for thresh in (0.3, 0.5):
        assert nms(boxes, scores, thresh) == oracle_nms(boxes, scores, thresh)


def test_levenshtein_matches_oracle():
    rng = np.random.default_rng(606)
    for _ in range(TRIALS):
        a, b = cases.sequence_pair(rng)
        assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_edit_distance_matches_oracle():
    rng = np.random.default_rng(707)
    for _ in range(TRIALS):
        forecasts, gts, mode = cases.edit_distance_case(rng)
        fast = edit_distance_at_z(forecasts, gts, mode)
        slow = oracle_edit_distance_at_z(forecasts, gts, mode)
        assert abs(fast - slow) <= TOL
