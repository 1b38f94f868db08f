"""Acceptance gate: one test per shipping criterion, run with pytest -v.

Each criterion is a single test function, so the verbose run prints exactly
one PASSED or FAILED line per criterion. Criteria are property-based
(oracle equivalence, invariants, gradient checks, determinism) plus exact
fixture fidelity; none depend on external data.
"""

import itertools
import time

import numpy as np

import cases
from egoforge import cli, fileio
from egoforge.experiments import train_forecaster, window_trend
from egoforge.fixtures import FIXTURES
from egoforge.fusion import (
    VoteConfig,
    multi_clips_vote,
    nms,
    post_fuse_segments,
    splice_and_nms,
)
from egoforge.heads import cross_entropy, finite_difference_grad, l1_loss
from egoforge.metrics import (
    average_map,
    box_ap,
    box_iou,
    edit_distance_at_z,
    recall_at_k,
    temporal_iou,
)
from egoforge.model import ScoreMatrix
from egoforge.oracles import (
    oracle_average_map,
    oracle_box_ap,
    oracle_edit_distance_at_z,
    oracle_nms,
    oracle_recall_at_k,
)
from egoforge.render import format_value, render_fixture
from egoforge.synth import SynthConfig, generate_synthetic

TRIALS = 1000


def test_criterion_1_oracle_equivalence():
    # Five metric families against brute-force oracles, 1000 seeded random
    # instances each, agreement to 1e-9, under 60 seconds total.
    started = time.monotonic()
    tol = 1e-9

    rng = np.random.default_rng(11)
    for _ in range(TRIALS):
        preds, gts, thresholds = cases.temporal_ap_case(rng)
        assert abs(average_map(preds, gts, thresholds).value - oracle_average_map(preds, gts, thresholds)) <= tol

    rng = np.random.default_rng(22)
    for _ in range(TRIALS):
        preds, gts, thresholds = cases.box_ap_case(rng)
        assert abs(box_ap(preds, gts, thresholds).value - oracle_box_ap(preds, gts, thresholds)) <= tol

    rng = np.random.default_rng(33)
    for _ in range(TRIALS):
        preds, gts, k, thresh = cases.recall_case(rng)
        assert abs(recall_at_k(preds, gts, k, thresh) - oracle_recall_at_k(preds, gts, k, thresh)) <= tol

    rng = np.random.default_rng(44)
    for _ in range(TRIALS):
        boxes, scores, thresh = cases.nms_case(rng)
        assert nms(boxes, scores, thresh) == oracle_nms(boxes, scores, thresh)

    rng = np.random.default_rng(55)
    for _ in range(TRIALS):
        forecasts, gts, mode = cases.edit_distance_case(rng)
        fast = edit_distance_at_z(forecasts, gts, mode)
        assert abs(fast - oracle_edit_distance_at_z(forecasts, gts, mode)) <= tol

    assert time.monotonic() - started < 60.0


def test_criterion_2_perfect_prediction_sweep(tmp_path, capsys):
    # Predictions equal to ground truth score perfectly on every track.
    ds_dir = tmp_path / "ds"
    assert cli.main(["synth", "--out", str(ds_dir), "--seed", "11", "--num-videos", "6"]) == 0

    def reports_for(track):
        out = tmp_path / f"{track}.json"
        rc = cli.main(
            [
                "eval",
                track,
                "--gt",
                str(ds_dir / f"gt_{track}.json"),
                "--pred",
                str(ds_dir / f"pred_{track}.json"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        return {r.name: r for r in fileio.load_reports(out)}

    mq = reports_for("mq")
    assert mq["Recall@1x tIoU=0.5"].value == 1.0
    assert mq["mAP"].value == 1.0
    assert all(v == 1.0 for v in mq["mAP"].breakdown.values())

    nlq = reports_for("nlq")
    for name in ("R5@0.3", "R5@0.5", "R1@0.3", "R1@0.5"):
        assert nlq[name].value == 1.0

    fhp = reports_for("fhp")
    assert set(fhp) == {"L-M.Disp", "L-C.Disp", "R-M.Disp", "R-C.Disp"}
    assert all(r.value == 0.0 for r in fhp.values())

    lta = reports_for("lta")
    for name in ("Verb", "Noun", "Action"):
        assert lta[name].value == 0.0

    sta = reports_for("sta")
    for name in ("Noun", "Noun+Verb", "Noun+TTC", "Overall"):
        assert sta[name].value == 1.0

    scod = reports_for("scod")
    assert scod["AP"].value == 1.0
    assert scod["AP"].breakdown["AP50"] == 1.0
    assert scod["AP"].breakdown["AP75"] == 1.0


def test_criterion_3_gradient_checks():
    # Analytic loss gradients against central finite differences, 100 seeded
    # cases per loss, step 1e-5, relative error under 1e-4.
    step = 1e-5
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        target = rng.normal(size=(m, d))
        # Keep every coordinate a safe distance from the |x| kink so the
        # central difference straddles a smooth region.
        offset = rng.uniform(0.1, 1.0, size=(m, d)) * rng.choice([-1.0, 1.0], size=(m, d))
        pred = target + offset
        analytic = l1_loss(pred, target)[1]
        numeric = finite_difference_grad(lambda p: l1_loss(p, target)[0], pred, step)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-4

    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        m = int(rng.integers(1, 5))
        c = int(rng.integers(2, 7))
        logits = rng.normal(size=(m, c)) * 2.0
        targets = rng.integers(0, c, size=m)
        analytic = cross_entropy(logits, targets)[1]
        numeric = finite_difference_grad(lambda x: cross_entropy(x, targets)[0], logits, step)
        denom = np.maximum(np.abs(numeric), 1e-6)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < 1e-4


def test_criterion_4_voting_trend():
    # Widening the observable window and voting across its clips must help:
    # strictly better at alpha=16 than the center clip at alpha=2, and
    # monotone nonincreasing across alpha within a 0.005 slack per step.
    started = time.monotonic()
    ds = generate_synthetic(SynthConfig(seed=0, num_videos=170))
    train_ids = ds.video_ids[:50]
    eval_ids = ds.video_ids[50:]
    assert len(eval_ids) >= 100
    head, _ = train_forecaster(ds, train_ids)
    trend = window_trend(ds, head, eval_ids)
    assert trend.alphas == (2.0, 4.0, 8.0, 16.0)
    voted = [trend.voted[a]["action"] for a in trend.alphas]
    center_2 = trend.center[2.0]["action"]
    assert voted[-1] < center_2
    for earlier, later in zip(voted, voted[1:]):
        assert later <= earlier + 0.005
    assert time.monotonic() - started < 300.0


def test_criterion_5_fusion_invariants():
    # Suppression outputs: drawn from the input pool, scores nonincreasing,
    # and no surviving pair overlaps beyond the threshold. Voting: invariant
    # under clip order (exhaustively, all permutations) and idempotent on
    # identical clips.
    rng = np.random.default_rng(77)
    for _ in range(TRIALS):
        n_lists = int(rng.integers(1, 4))
        lists = []
        for _ in range(n_lists):
            preds, _, _, _ = cases.recall_case(rng)
            lists.append(next(iter(preds.values())))
        thresh = float(rng.choice([0.3, 0.5, 0.75]))
        fused = post_fuse_segments(lists, thresh)
        pool = [seg for ranked in lists for seg in ranked]
        assert all(seg in pool for seg in fused)
        scores = [seg.score for seg in fused]
        assert scores == sorted(scores, reverse=True)
        for a, b in itertools.combinations(fused, 2):
            assert temporal_iou(a.segment, b.segment) <= thresh

    rng = np.random.default_rng(88)
    for _ in range(TRIALS):
        n_models = int(rng.integers(1, 4))
        model_results = []
        for _ in range(n_models):
            preds, _, _, _ = cases.sta_case(rng)
            model_results.append(next(iter(preds.values())))
        thresh = float(rng.choice([0.5, 0.75]))
        fused = splice_and_nms(model_results, thresh)
        pool = [inst for result in model_results for inst in result]
        assert all(inst in pool for inst in fused)
        scores = [inst.score for inst in fused]
        assert scores == sorted(scores, reverse=True)
        for a, b in itertools.combinations(fused, 2):
            assert box_iou(a.box, b.box) <= thresh

    def random_matrix(rng, z, c_v, c_n):
        verb = rng.random((z, c_v)) + 0.05
        noun = rng.random((z, c_n)) + 0.05
        return ScoreMatrix(verb=verb / verb.sum(1, keepdims=True), noun=noun / noun.sum(1, keepdims=True))

    rng = np.random.default_rng(99)
    for rule in ("mean_prob", "majority"):
        config = VoteConfig(combine_rule=rule)
        for _ in range(50):
            clips = [random_matrix(rng, 3, 3, 4) for _ in range(3)]
            base_labels, base_matrix = multi_clips_vote(clips, config)
            for perm in itertools.permutations(clips):
                labels, matrix = multi_clips_vote(list(perm), config)
                assert labels == base_labels
                np.testing.assert_array_equal(matrix.verb, base_matrix.verb)
                np.testing.assert_array_equal(matrix.noun, base_matrix.noun)
        for _ in range(50):
            single = random_matrix(rng, 3, 3, 4)
            for n in (1, 2, 3, 5):
                labels, matrix = multi_clips_vote([single] * n, config)
                np.testing.assert_array_equal(matrix.verb, single.verb)
                np.testing.assert_array_equal(matrix.noun, single.noun)


def test_criterion_6_fixture_fidelity():
    # Every stored table renders every cell byte-identically to the stored
    # value, twice over, with the headline figures appearing literally.
    for name, table in FIXTURES.items():
        first = render_fixture(table, "plain")
        second = render_fixture(table, "plain")
        assert first == second
        blocks = {}
        for block in first.split("\n\n"):
            header, _, _ = block.partition("\n")
            split = header[header.index("[") + 1 : header.index("]")]
            blocks[split] = block
        for split, row_values in table.cells.items():
            for row, values in zip(table.rows, row_values):
                for metric, value in zip(table.metrics, values):
                    rendered = format_value(value, table.family)
                    assert rendered in blocks[split], f"{name}: {split}/{row}/{metric}"

    spot = {
        "hands-results": "43.25",
        "longterm-results": "0.878",
        "mq-two-stage": "40.36",
        "nlq-performance": "24.78",
        "short-term": "8.50",
        "scod-performance": "37.19",
    }
    for name, literal in spot.items():
        assert literal in render_fixture(FIXTURES[name], "plain"), name


def test_criterion_7_determinism(tmp_path, capsys):
    # Same seeds, same bytes: synth, train, and every eval, each run
    # repeated.
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for d in (dir_a, dir_b):
        assert cli.main(["synth", "--out", str(d), "--seed", "7", "--num-videos", "4"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    for task, epochs in (("fhp", "3"), ("lta", "2")):
        heads = []
        for label in ("h1", "h2"):
            out = tmp_path / f"{task}_{label}.bin"
            rc = cli.main(
                ["train", task, "--config", str(dir_a / "config.json"), "--out", str(out), "--epochs", epochs]
            )
            assert rc == 0
            heads.append(out.read_bytes())
        capsys.readouterr()
        assert heads[0] == heads[1], task

    for track in ("mq", "nlq", "fhp", "lta", "sta", "scod"):
        outputs = []
        report_bytes = []
        for label in ("r1", "r2", "r3"):
            out = tmp_path / f"{track}_{label}.json"
            rc = cli.main(
                [
                    "eval",
                    track,
                    "--gt",
                    str(dir_a / f"gt_{track}.json"),
                    "--pred",
                    str(dir_a / f"pred_{track}.json"),
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outputs.append(capsys.readouterr().out)
            report_bytes.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], track
        assert report_bytes[0] == report_bytes[1] == report_bytes[2], track
