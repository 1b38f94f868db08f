"""Correctness checks on a workload's outputs, made outside the timed runs.

Each check returns the names of the commands whose output failed it, so a
failure counts against the command that produced the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from egoforge import cli, fileio
from egoforge.fusion import FusionConfig
from egoforge.metrics import BOX_AP_IOUS, DEFAULT_MAP_TIOUS, ED_MODES, STA_REPORT_NAMES, temporal_iou
from egoforge.oracles import (
    oracle_average_map,
    oracle_box_ap,
    oracle_edit_distance_at_z,
    oracle_nms,
    oracle_recall_at_k,
    oracle_sta_ap,
)

import gen

TOLERANCE = 1e-9
VOTE_K = 5  # the vote command's default --k


def reports_of(stdout: str) -> dict[str, float]:
    """Report name -> value from an ``eval --format json`` stdout ({} if unreadable)."""
    try:
        return {r["name"]: r["value"] for r in json.loads(stdout)["reports"]}
    except (ValueError, KeyError, TypeError):
        return {}


def stable_runs(runs: Sequence[dict[str, Any]]) -> list[str]:
    """Every run exits 0 on every command and writes the same bytes.

    Returns one failed command name per command and run that differs from
    the first run (exit code, stdout or an output file it wrote).
    """
    failed = []
    first = runs[0]
    for run in runs:
        for cmd, ref in zip(run["commands"], first["commands"]):
            if cmd["rc"] != 0 or cmd["stdout"] != ref["stdout"]:
                failed.append(cmd["name"])
        if run["outputs"] != first["outputs"]:
            failed.append("outputs")
    return failed


def perfect_scores(commands: Sequence[dict[str, Any]]) -> list[str]:
    """Perfect predictions score 1 on every ranking metric and 0 on every distance."""
    failed = []
    for cmd in commands:
        if not cmd["name"].startswith("eval_"):
            continue
        best = 0.0 if cmd["name"] in ("eval_fhp", "eval_lta") else 1.0
        values = reports_of(cmd["stdout"])
        if not values or any(v != best for v in values.values()):
            failed.append(cmd["name"])
    return failed


def _fhp_reference(preds: dict, gts: dict) -> dict[str, float]:
    # The displacement report recomputed from its definition (no oracle exists).
    sums: dict[str, list[float]] = {}
    for key, gt in gts.items():
        for hand, tag in (("left", "L"), ("right", "R")):
            dists = [math.dist(preds[key][t].coords(hand), gt[t].coords(hand)) for t in gt.points if gt[t].visible(hand)]
            if dists:
                sums.setdefault(f"{tag}-M.Disp", []).append(sum(dists) / len(dists))
            if gt["c"].visible(hand):
                sums.setdefault(f"{tag}-C.Disp", []).append(math.dist(preds[key]["c"].coords(hand), gt["c"].coords(hand)))
    return {name: sum(v) / len(v) for name, v in sums.items()}


def _oracle_reports(sub: Path, track: str) -> dict[str, float]:
    gt_path, pred_path = sub / f"gt_{track}.json", sub / f"pred_{track}.json"
    if track == "mq":
        gt = fileio.load_mq_gt(gt_path)
        preds = fileio.load_mq_pred(pred_path)
        by_label_gt: dict = {}
        for vid, items in gt.instances.items():
            for m in items:
                by_label_gt.setdefault((vid, m.class_id), []).append(m)
        by_label_pred: dict = {}
        for vid, items in preds.items():
            for p in items:
                by_label_pred.setdefault((vid, p.label), []).append(p)
        hits = sum(
            oracle_recall_at_k({g: by_label_pred.get(g, [])}, {g: items}, len(items), 0.5) * len(items)
            for g, items in by_label_gt.items()
        )
        return {
            "Recall@1x tIoU=0.5": hits / sum(len(v) for v in by_label_gt.values()),
            "mAP": oracle_average_map(preds, gt.instances, DEFAULT_MAP_TIOUS),
        }
    if track == "nlq":
        gt = fileio.load_nlq_gt(gt_path)
        preds = fileio.load_nlq_pred(pred_path)
        grouped = {qid: [q] for qid, q in gt.queries.items()}
        return {f"R{k}@{t:g}": oracle_recall_at_k(preds, grouped, k, t) for k in (5, 1) for t in (0.3, 0.5)}
    if track == "fhp":
        return _fhp_reference(fileio.load_fhp_pred(pred_path), fileio.load_fhp_gt(gt_path).instances)
    if track == "lta":
        gt = fileio.load_lta_gt(gt_path)
        forecasts = fileio.load_lta_pred(pred_path)
        return {m.capitalize(): oracle_edit_distance_at_z(forecasts, gt.sequences, m) for m in ED_MODES}
    if track == "sta":
        gt = fileio.load_sta_gt(gt_path)
        preds = fileio.load_sta_pred(pred_path)
        return {name: oracle_sta_ap(preds.instances, gt.instances, c) for c, name in STA_REPORT_NAMES}
    gt = fileio.load_scod_gt(gt_path)
    preds = fileio.load_scod_pred(pred_path)
    return {"AP": oracle_box_ap(preds.instances, gt.instances, BOX_AP_IOUS)}


def oracle_subsample(sub: Path) -> tuple[int, list[str]]:
    """Score the subsample with the CLI and with the brute-force references.

    Returns the number of commands run and the names of those whose report
    differs from its reference by more than TOLERANCE, or lacks a value.
    """
    failed = []
    for track in gen.EVAL_TRACKS:
        out = io.StringIO()
        argv = ["eval", track, "--gt", str(sub / f"gt_{track}.json"), "--pred", str(sub / f"pred_{track}.json"), "--format", "json"]
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        got = reports_of(out.getvalue()) if rc == 0 else {}
        want = _oracle_reports(sub, track)
        if set(got) != set(want) or any(abs(got[k] - want[k]) > TOLERANCE for k in want):
            failed.append(f"eval_{track}")
    return len(gen.EVAL_TRACKS), failed


def _check(name: str, ok: Callable[[], bool]) -> list[str]:
    # A check that raises (say, on a missing or malformed output) fails its
    # command; the traceback goes to stderr and the remaining checks still run.
    try:
        return [] if ok() else [name]
    except Exception:
        traceback.print_exc()
        return [name]


def forecast_outputs(inputs: Path, outputs: Path, commands: Sequence[dict[str, Any]], seed: int) -> list[str]:
    """Outputs of train, vote and fuse are well formed and obey their rules.

    Checked on a seeded sample: each voted forecast starts with the argmax
    of the mean clip probabilities; each fused keyframe equals the
    brute-force suppression of the pooled boxes; fused segment lists keep
    no pair above the tIoU threshold and come highest score first.
    """
    rng = np.random.default_rng(seed)
    fusion = FusionConfig()  # its thresholds are the fuse commands' defaults
    stdout = {c["name"]: c["stdout"] for c in commands}

    def trained(name: str, path: Path, kind: str) -> bool:
        losses = [float(line.split()[-1]) for line in stdout[name].splitlines() if line.startswith("epoch")]
        return fileio.load_head(path).kind == kind and len(losses) > 1 and losses[-1] < losses[0]

    def voted() -> bool:
        clips = fileio.load_lta_clip_probs(inputs / "clips.json")
        fused = fileio.load_lta_pred(outputs / "voted.json")
        if set(fused) != set(clips):
            return False
        keys = list(clips)
        for i in rng.choice(len(keys), size=min(20, len(keys)), replace=False):
            key = keys[i]
            verb = np.mean([m.verb for m in clips[key]], axis=0).argmax(axis=1)
            noun = np.mean([m.noun for m in clips[key]], axis=0).argmax(axis=1)
            first = fused[key].candidates[0]
            if len(fused[key].candidates) != VOTE_K or [(a.verb_id, a.noun_id) for a in first] != list(zip(verb, noun)):
                return False
        return True

    def fused_boxes() -> bool:
        files = [fileio.load_sta_pred(inputs / f"sta_{m}.json") for m in range(gen.FUSE_MODELS)]
        fused = fileio.load_sta_pred(outputs / "sta.json")
        kids = sorted(files[0].images)
        for i in rng.choice(len(kids), size=min(30, len(kids)), replace=False):
            pool = [p for f in files for p in f.instances[kids[i]]]
            keep = oracle_nms([p.box for p in pool], [p.score for p in pool], fusion.box_nms_iou)
            if list(fused.instances[kids[i]]) != [pool[j] for j in keep]:
                return False
        return True

    def fused_segments() -> bool:
        fused = fileio.load_nlq_pred(outputs / "nlq.json")
        inputs_total = sum(len(v) for m in range(gen.FUSE_MODELS) for v in fileio.load_nlq_pred(inputs / f"nlq_{m}.json").values())
        if not 0 < sum(len(v) for v in fused.values()) <= inputs_total:
            return False
        for segs in fused.values():
            scores = [s.score for s in segs]
            if scores != sorted(scores, reverse=True):
                return False
            if any(temporal_iou(a.segment, b.segment) > fusion.temporal_nms_tiou for i, a in enumerate(segs) for b in segs[i + 1 :]):
                return False
        return True

    def prefused() -> bool:
        verb = fileio.load_features(inputs / "verb.feat").rows
        noun = fileio.load_features(inputs / "noun.feat").rows
        return np.array_equal(fileio.load_features(outputs / "fused.feat").rows, np.concatenate([verb, noun], axis=1))

    return (
        _check("train_lta", lambda: trained("train_lta", outputs / "lta.head", "classifier_C"))
        + _check("train_fhp", lambda: trained("train_fhp", outputs / "fhp.head", "regression_20"))
        + _check("vote", voted)
        + _check("fuse_post", fused_segments)
        + _check("fuse_sta", fused_boxes)
        + _check("fuse_pre", prefused)
    )
