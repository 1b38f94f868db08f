import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egoforge.fusion import (
    MAX_TOP_K,
    FusionConfig,
    VoteConfig,
    _top_k_pairs,
    box_positional_encoding,
    mean_forecast,
    multi_clips_vote,
    multi_view_average,
    nms,
    post_fuse_segments,
    splice_and_nms,
    temporal_nms,
    top_k_sequences,
    topk_by_noun_score,
)
from egoforge.model import (
    ActionLabel,
    BoundingBox,
    RankedSegment,
    ScoreMatrix,
    StaInstance,
    TemporalSegment,
)


def box(x1, y1, x2, y2):
    return BoundingBox(x1=x1, y1=y1, x2=x2, y2=y2)


def ranked(a, b, score):
    return RankedSegment(segment=TemporalSegment(start_s=a, end_s=b), score=score, label=0)


def matrix(verb_rows, noun_rows):
    return ScoreMatrix(verb=np.array(verb_rows, dtype=float), noun=np.array(noun_rows, dtype=float))


def random_matrix(rng, z=3, c_v=3, c_n=4):
    v = rng.random((z, c_v)) + 1e-3
    n = rng.random((z, c_n)) + 1e-3
    return ScoreMatrix(verb=v / v.sum(axis=1, keepdims=True), noun=n / n.sum(axis=1, keepdims=True))


class TestVote:
    def test_mean_prob_picks_average_argmax(self):
        a = matrix([[0.9, 0.1]], [[0.2, 0.8]])
        b = matrix([[0.1, 0.9]], [[0.3, 0.7]])
        c = matrix([[0.4, 0.6]], [[0.9, 0.1]])
        labels, fused = multi_clips_vote([a, b, c])
        # Mean verb row (0.4667, 0.5333), mean noun row (0.4667, 0.5333).
        assert labels == (ActionLabel(verb_id=1, noun_id=1),)
        assert fused.verb[0, 0] == pytest.approx(1.4 / 3)

    def test_majority_differs_from_mean(self):
        # Two weak votes for class 0 beat one strong vote for class 1.
        a = matrix([[0.51, 0.49]], [[1.0, 0.0]])
        b = matrix([[0.52, 0.48]], [[1.0, 0.0]])
        c = matrix([[0.0, 1.0]], [[1.0, 0.0]])
        mean_labels, _ = multi_clips_vote([a, b, c], VoteConfig(combine_rule="mean_prob"))
        maj_labels, _ = multi_clips_vote([a, b, c], VoteConfig(combine_rule="majority"))
        assert mean_labels[0].verb_id == 1
        assert maj_labels[0].verb_id == 0

    def test_majority_tie_breaks_by_mean_prob(self):
        a = matrix([[1.0, 0.0, 0.0]], [[1.0, 0.0]])
        b = matrix([[0.0, 0.8, 0.2]], [[1.0, 0.0]])
        labels, _ = multi_clips_vote([a, b], VoteConfig(combine_rule="majority"))
        # One vote each; class 0 has the higher mean (0.5 vs 0.4).
        assert labels[0].verb_id == 0

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(0)
        clips = [random_matrix(rng) for _ in range(4)]
        base_labels, base = multi_clips_vote(clips)
        for perm in itertools.permutations(range(4)):
            labels, fused = multi_clips_vote([clips[i] for i in perm])
            assert labels == base_labels
            assert fused.verb.tobytes() == base.verb.tobytes()
            assert fused.noun.tobytes() == base.noun.tobytes()

    @pytest.mark.parametrize("copies", [1, 2, 3, 5, 7])
    def test_idempotence_exact(self, copies):
        rng = np.random.default_rng(1)
        m = random_matrix(rng)
        for rule in ("mean_prob", "majority"):
            labels, fused = multi_clips_vote([m] * copies, VoteConfig(combine_rule=rule))
            assert fused.verb.tobytes() == m.verb.tobytes()
            assert fused.noun.tobytes() == m.noun.tobytes()
            single_labels, _ = multi_clips_vote([m], VoteConfig(combine_rule=rule))
            assert labels == single_labels

    def test_both_vote_paths_share_one_checked_mean(self, monkeypatch):
        rng = np.random.default_rng(3)
        clips = [random_matrix(rng) for _ in range(5)]
        _, verb, noun = mean_forecast([(m.verb, m.noun) for m in clips], 1)
        # The mean's rows were checked once; the fused matrix is not built
        # through the checked constructor again.
        monkeypatch.setattr(ScoreMatrix, "__post_init__", lambda self: pytest.fail("ScoreMatrix checked twice"))
        _, fused = multi_clips_vote(clips)
        assert fused.verb.tobytes() == verb.tobytes() and fused.noun.tobytes() == noun.tobytes()
        assert not any(a.flags.writeable for a in (verb, noun, fused.verb, fused.noun))

    def test_single_clip_identity(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng)
        labels, fused = multi_clips_vote([m])
        assert fused == m
        for pos, label in enumerate(labels):
            assert label.verb_id == int(np.argmax(m.verb[pos]))
            assert label.noun_id == int(np.argmax(m.noun[pos]))

    def test_argmax_tie_takes_lowest_index(self):
        m = matrix([[0.5, 0.5]], [[0.25, 0.25, 0.25, 0.25]])
        labels, _ = multi_clips_vote([m])
        assert labels == (ActionLabel(verb_id=0, noun_id=0),)

    def test_shape_mismatch_rejected(self):
        a = matrix([[0.5, 0.5]], [[1.0]])
        b = matrix([[0.3, 0.3, 0.4]], [[1.0]])
        with pytest.raises(ValueError):
            multi_clips_vote([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multi_clips_vote([])


class TestMultiViewAverage:
    def test_mean(self):
        out = multi_view_average([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert out.tolist() == [2.0, 3.0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            multi_view_average([np.zeros(2), np.zeros(3)])


class TestNms:
    def test_overlapping_box_suppressed(self):
        boxes = [box(1, 10, 2, 20), box(1.1, 10.1, 2.1, 20.1), box(30, 50, 40, 60)]
        assert nms(boxes, [0.9, 0.8, 0.7], iou_thresh=0.5) == [0, 2]

    def test_kept_in_descending_score_order(self):
        boxes = [box(30, 50, 40, 60), box(1, 10, 2, 20)]
        assert nms(boxes, [0.2, 0.9], iou_thresh=0.5) == [1, 0]

    def test_iou_exactly_at_threshold_survives(self):
        # Half-overlapping unit-height boxes: IoU exactly 1/3.
        a = box(0, 0, 2, 1)
        b = box(1, 0, 3, 1)
        assert nms([a, b], [0.9, 0.8], iou_thresh=1 / 3) == [0, 1]
        assert nms([a, b], [0.9, 0.8], iou_thresh=0.33) == [0]

    def test_score_tie_keeps_earlier_index(self):
        a = box(0, 0, 2, 2)
        b = box(0.1, 0, 2.1, 2)
        assert nms([a, b], [0.5, 0.5], iou_thresh=0.5) == [0]

    def test_zero_area_boxes_never_suppress(self):
        a = box(1, 1, 1, 1)
        b = box(1, 1, 1, 1)
        assert nms([a, b], [0.9, 0.8], iou_thresh=0.5) == [0, 1]

    def test_empty(self):
        assert nms([], [], iou_thresh=0.5) == []


class TestTemporalNms:
    def test_basic_suppression(self):
        segs = [ranked(0, 2, 0.9), ranked(1, 3, 0.8), ranked(0.2, 2.2, 0.7)]
        # [1,3] overlaps [0,2] at IoU 1/3 (kept); [0.2,2.2] at 0.75 (dropped).
        assert temporal_nms(segs, tiou_thresh=0.5) == [0, 1]

    def test_post_fuse_orders_by_score(self):
        model_a = [ranked(0, 2, 0.6), ranked(10, 12, 0.9)]
        model_b = [ranked(0.1, 2.1, 0.7), ranked(20, 22, 0.3)]
        fused = post_fuse_segments([model_a, model_b], tiou_thresh=0.5)
        assert [s.score for s in fused] == [0.9, 0.7, 0.3]

    def test_post_fuse_earlier_list_wins_ties(self):
        model_a = [ranked(0, 2, 0.7)]
        model_b = [ranked(0.1, 2.1, 0.7)]
        fused = post_fuse_segments([model_a, model_b], tiou_thresh=0.5)
        assert fused == [model_a[0]]


class TestSpliceAndNms:
    def _inst(self, bx, noun, score):
        return StaInstance(box=bx, noun_id=noun, verb_id=0, ttc_s=1.0, score=score)

    def test_label_agnostic_merge(self):
        # Same region, different nouns: still collapses to the better score.
        a = [self._inst(box(0, 0, 10, 10), noun=1, score=0.9)]
        b = [self._inst(box(0.2, 0, 10.2, 10), noun=2, score=0.8)]
        fused = splice_and_nms([a, b], iou_thresh=0.75)
        assert len(fused) == 1
        assert fused[0].noun_id == 1

    def test_default_threshold_keeps_moderate_overlap(self):
        a = [self._inst(box(0, 0, 10, 10), noun=1, score=0.9)]
        b = [self._inst(box(4, 0, 14, 10), noun=2, score=0.8)]
        fused = splice_and_nms([a, b])
        assert len(fused) == 2

    def test_topk_by_noun_score(self):
        pool = [self._inst(box(0, 0, 10, 10), noun=i, score=0.1 * i) for i in range(1, 5)]
        top = topk_by_noun_score(pool, k=2)
        assert [t.noun_id for t in top] == [4, 3]


class TestBoxPositionalEncoding:
    def test_zero_box_alternates_zero_one(self):
        code = box_positional_encoding(box(0, 0, 0, 0), 100, 100, dim=8)
        assert code.tolist() == [0.0, 1.0] * 4

    def test_dim_must_be_multiple_of_eight(self):
        with pytest.raises(ValueError):
            box_positional_encoding(box(0, 0, 1, 1), 100, 100, dim=12)

    def test_coordinate_major_layout(self):
        # dim 16: two (sin, cos) pairs per coordinate, frequencies 1 and 1/100.
        b = box(50, 25, 100, 75)
        code = box_positional_encoding(b, 100, 100, dim=16)
        x1 = 0.5
        assert code[0] == pytest.approx(np.sin(x1))
        assert code[1] == pytest.approx(np.cos(x1))
        assert code[2] == pytest.approx(np.sin(x1 / 100.0))
        assert code[3] == pytest.approx(np.cos(x1 / 100.0))
        y1 = 0.25
        assert code[4] == pytest.approx(np.sin(y1))

    def test_bounded(self):
        code = box_positional_encoding(box(10, 20, 500, 400), 640, 480, dim=64)
        assert code.shape == (64,)
        assert np.all(np.abs(code) <= 1.0)

    def test_normalization_uses_image_size(self):
        a = box_positional_encoding(box(0, 0, 50, 50), 100, 100, dim=8)
        b = box_positional_encoding(box(0, 0, 100, 100), 200, 200, dim=8)
        assert np.allclose(a, b)


class TestTopKSequences:
    def test_first_candidate_is_argmax(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, z=4, c_v=3, c_n=5)
        best = top_k_sequences(m, k=5)[0]
        for pos, label in enumerate(best):
            assert label.verb_id == int(np.argmax(m.verb[pos]))
            assert label.noun_id == int(np.argmax(m.noun[pos]))

    def test_exact_order_small_case(self):
        m = matrix([[0.6, 0.4], [0.7, 0.3]], [[0.8, 0.2], [0.5, 0.5]])
        seqs = top_k_sequences(m, k=4)
        # Joint per position: pos0 (v,n) probs 0.48/0.12/0.32/0.08,
        # pos1 0.35/0.35/0.15/0.15 with the tie resolved to noun 0 first.
        assert seqs[0] == (ActionLabel(0, 0), ActionLabel(0, 0))
        assert seqs[1] == (ActionLabel(0, 0), ActionLabel(0, 1))
        totals = []
        for s in seqs:
            p = 1.0
            for pos, label in enumerate(s):
                p *= m.verb[pos, label.verb_id] * m.noun[pos, label.noun_id]
            totals.append(p)
        assert totals == sorted(totals, reverse=True)

    def test_all_sequences_distinct(self):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, z=3, c_v=2, c_n=2)
        seqs = top_k_sequences(m, k=8)
        assert len(set(seqs)) == len(seqs)

    def test_k_capped_by_sequence_space(self):
        m = matrix([[0.6, 0.4]], [[1.0]])
        seqs = top_k_sequences(m, k=10)
        assert len(seqs) == 2

    def test_k_past_the_cap_is_refused(self):
        m = matrix([[0.6, 0.4]], [[1.0]])
        assert len(top_k_sequences(m, k=MAX_TOP_K)) == 2
        with pytest.raises(ValueError, match=r"k must be an int in \[1, 1000\]"):
            top_k_sequences(m, k=MAX_TOP_K + 1)
        with pytest.raises(ValueError, match="top_k must be at most 1000, got 1001"):
            FusionConfig(top_k=MAX_TOP_K + 1)
        # A count too long for str() is still named.
        with pytest.raises(ValueError, match=r"got 1000…0 \(5001 digits\)"):
            FusionConfig(top_k=10**5000)

    def test_probabilities_nonincreasing_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_matrix(rng, z=3, c_v=3, c_n=3)
            seqs = top_k_sequences(m, k=6)
            totals = []
            for s in seqs:
                p = 1.0
                for pos, label in enumerate(s):
                    p *= m.verb[pos, label.verb_id] * m.noun[pos, label.noun_id]
                totals.append(p)
            assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))


# ---------------------------------------------------------------------------
# Equality with the lattice search.
#
# The reference below is the best-first search over the rank lattice that
# the tree search replaced, kept verbatim: it pushed every neighbour that
# raises one rank and kept a set of the vectors it had pushed. Both sum the
# same log-probabilities in the same order, so their outputs must be equal.
# ---------------------------------------------------------------------------


def _ref_top_k_pairs(verb: np.ndarray, noun: np.ndarray, k: int) -> list[list[tuple[int, int]]]:
    """``top_k_sequences`` of the matrix (verb, noun), each sequence as its
    (verb id, noun id) pairs."""
    z = verb.shape[0]
    c_n = noun.shape[1]
    with np.errstate(divide="ignore"):
        log_v = np.log(verb)
        log_n = np.log(noun)
    # Rank table: each position's (verb, noun) pairs by falling joint
    # log-probability, equal values in flat-index order. A sequence with
    # rank r anywhere has r strictly earlier sequences (the same with a
    # lower rank there), so the first k sequences only use ranks below k.
    joint = (log_v[:, :, None] + log_n[:, None, :]).reshape(z, -1)
    order = np.argsort(-joint, axis=1, kind="stable")[:, :k]
    logp = np.take_along_axis(joint, order, axis=1).tolist()
    pairs = [list(zip(verbs, nouns)) for verbs, nouns in zip((order // c_n).tolist(), (order % c_n).tolist())]
    width = order.shape[1]

    def running(ranks: tuple[int, ...], sums: list[float], pos: int) -> list[float]:
        # A candidate's running totals, summed left to right over positions;
        # those before pos are its parent's.
        acc = sums[pos - 1] if pos else 0.0
        out = sums[:pos]
        for row, r in zip(logp[pos:], ranks[pos:]):
            acc += row[r]
            out.append(acc)
        return out

    start = (0,) * z
    sums = running(start, [], 0)
    heap = [(-sums[-1], start, sums)]
    seen = {start}
    out: list[list[tuple[int, int]]] = []
    while heap and len(out) < k:
        _, ranks, sums = heapq.heappop(heap)
        out.append([pairs[pos][r] for pos, r in enumerate(ranks)])
        for pos in range(z):
            if ranks[pos] + 1 < width:
                nxt = ranks[:pos] + (ranks[pos] + 1,) + ranks[pos + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    child = running(nxt, sums, pos)
                    heapq.heappush(heap, (-child[-1], nxt, child))
    return out


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _forecast_episode(rng, z=20, c_v=5, c_n=7, clips=8):
    # Per-clip rows around a hidden label sequence, the shape of the
    # vote inputs of the benchmark's forecast workload.
    verbs = rng.integers(c_v, size=z)
    nouns = rng.integers(c_n, size=z)
    out = []
    for _ in range(clips):
        v = rng.standard_normal((z, c_v))
        n = rng.standard_normal((z, c_n))
        v[np.arange(z), verbs] += 1.5
        n[np.arange(z), nouns] += 1.5
        out.append((_softmax_rows(v), _softmax_rows(n)))
    return out


@pytest.mark.parametrize("k", [1, 5, 25, 100])
def test_tree_search_equals_lattice_search_on_voted_episodes(k):
    rng = np.random.default_rng(17)
    for _ in range(12):
        pairs, verb, noun = mean_forecast(_forecast_episode(rng), k)
        assert len(pairs) == k
        assert pairs == _ref_top_k_pairs(verb, noun, k)


@st.composite
def _rank_case(draw):
    z = draw(st.integers(1, 8))

    def rows(c):
        # Small integer weights give ties and zeros (-inf logs).
        values = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(1e-3, 1.0)
        w = np.array(draw(st.lists(values, min_size=z * c, max_size=z * c))).reshape(z, c)
        w[w.sum(axis=1) == 0, 0] = 1.0
        return w / w.sum(axis=1, keepdims=True)

    verb = rows(draw(st.integers(1, 4)))
    noun = rows(draw(st.integers(1, 5)))
    return verb, noun, draw(st.integers(1, 60))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rank_case())
def test_tree_search_equals_lattice_search_on_drawn_shapes(case):
    verb, noun, k = case
    assert _top_k_pairs(verb, noun, k) == _ref_top_k_pairs(verb, noun, k)
