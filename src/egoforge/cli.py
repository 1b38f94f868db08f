"""Command-line front end.

Exit codes: 0 on success, 1 for bad command lines, 2 for bad data (unreadable
files, schema violations, inconsistent inputs). Subcommands cover snippet
scheduling, per-track evaluation, feature and result fusion, clip voting,
synthetic data generation, toy training, and fixture table rendering.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from . import fileio
from .errors import DataError
from .experiments import train_forecaster, train_hand_regressor
from .fixtures import FIXTURES, fixture
from .fusion import (
    FusionConfig,
    VoteConfig,
    multi_clips_vote,
    post_fuse_segments,
    splice_and_nms,
    top_k_sequences,
)
from .metrics import (
    BOX_AP_IOUS,
    DEFAULT_MAP_TIOUS,
    MetricReport,
    average_map,
    box_ap,
    displacement_report,
    edit_distance_report,
    recall_at_k,
    recall_at_kx,
    sta_report,
)
from .model import LtaForecast
from .render import OUTPUT_FORMATS, render_fixture, render_reports
from .runtime import worker_count
from .snippets import build_snippet_schedule, prefuse_features
from .synth import SynthConfig, generate_synthetic, perfect_predictions


MAX_THRESHOLDS = 10_000  # a longer start:stop:step range is a typo


class UsageError(Exception):
    """Raised for malformed command lines; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def parse_thresholds(text: str) -> tuple[float, ...]:
    """Parse '0.1,0.2,0.3' or an inclusive range '0.1:0.5:0.1'.

    A range holds start + i * step, rounded to 10 decimals, for every
    integer i >= 0 that keeps the value within stop + 1e-9.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"range start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("range step must be positive")
        last = (stop + 1e-9 - start) / step
        if last < 0:
            raise ValueError(f"empty threshold range {text!r}")
        if last >= MAX_THRESHOLDS:
            raise ValueError(f"threshold range {text!r} holds more than {MAX_THRESHOLDS} values")
        return tuple(round(start + i * step, 10) for i in range(math.floor(last) + 1))
    values = tuple(round(float(p), 10) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(f"no thresholds in {text!r}")
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def _emit_reports(reports: list[MetricReport], fmt: str, out: str | None) -> None:
    sys.stdout.write(render_reports(reports, fmt))
    if out:
        fileio.save_reports(out, reports)


def _build_parser() -> _Parser:
    parser = _Parser(prog="egoforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print the snippet schedule for a clip length")
    p.add_argument("--num-frames", type=int, required=True)
    p.add_argument("--fps", type=float, default=15.0)
    p.add_argument("--snippet-len", type=int, default=32)
    p.add_argument("--stride", type=int, default=8)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-videos", type=int, default=12)
    p.add_argument("--label-strength", type=float, default=1.2)
    p.add_argument("--feature-dim", type=int, default=192)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    track = p.add_subparsers(dest="track", required=True)
    for name in ("mq", "nlq", "fhp", "lta", "sta", "scod"):
        t = track.add_parser(name)
        t.add_argument("--gt", required=True)
        t.add_argument("--pred", required=True)
        t.add_argument("--format", choices=OUTPUT_FORMATS, default="plain")
        t.add_argument("--out", help="also write a report file")
        if name == "mq":
            t.add_argument("--recall-k", default="1", help="comma list of k multipliers")
            t.add_argument("--recall-tiou", default="0.5", help="tIoU thresholds for recall")
            t.add_argument("--tiou", default=None, help="tIoU grid for mAP (list or start:stop:step)")
        if name == "nlq":
            t.add_argument("--recall-k", default="5,1", help="comma list of k values")
            t.add_argument("--recall-tiou", default="0.3,0.5", help="tIoU thresholds for recall")
        if name == "sta":
            t.add_argument("--box-iou", type=float, default=0.5)
            t.add_argument("--ttc-tol", type=float, default=0.25)
            t.add_argument("--top-k", type=int, default=5)
        if name == "scod":
            t.add_argument("--iou", default=None, help="IoU grid (list or start:stop:step)")

    p = sub.add_parser("fuse", help="combine features or prediction files")
    mode = p.add_subparsers(dest="mode", required=True)
    f = mode.add_parser("pre", help="concatenate two feature files channel-wise")
    f.add_argument("--features", nargs=2, required=True, metavar="FILE")
    f.add_argument("--out", required=True)
    f = mode.add_parser("post", help="merge ranked segment predictions with temporal NMS")
    f.add_argument("--pred", nargs="+", required=True, metavar="FILE")
    f.add_argument("--out", required=True)
    f.add_argument("--tiou", type=float, default=FusionConfig().temporal_nms_tiou)
    f = mode.add_parser("sta", help="splice box predictions and suppress overlaps")
    f.add_argument("--pred", nargs="+", required=True, metavar="FILE")
    f.add_argument("--out", required=True)
    f.add_argument("--nms-iou", type=float, default=FusionConfig().box_nms_iou)

    p = sub.add_parser("vote", help="fuse per-clip forecasts into one per episode")
    p.add_argument("--pred", required=True, help="per-clip probability file")
    p.add_argument("--out", required=True)
    p.add_argument("--rule", choices=("mean_prob", "majority"), default="mean_prob")
    p.add_argument("--k", type=int, default=5, help="candidate sequences to keep")

    p = sub.add_parser("train", help="fit a toy head on a synthetic dataset")
    p.add_argument("task", choices=("lta", "fhp"))
    p.add_argument("--config", required=True, help="synthetic dataset config file")
    p.add_argument("--out", required=True, help="head file to write")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=16.0, help="observable window seconds (lta)")
    p.add_argument("--clip-len", type=float, default=2.0)
    p.add_argument("--clip-stride", type=float, default=2.0)

    p = sub.add_parser("report", help="render a stored results table")
    p.add_argument("--table", default=None, help="table name; omit to list tables")
    p.add_argument("--format", choices=OUTPUT_FORMATS, default="plain")

    return parser


def _cmd_schedule(args: argparse.Namespace) -> int:
    schedule = build_snippet_schedule(
        args.num_frames, fps=args.fps, snippet_len_frames=args.snippet_len, stride_frames=args.stride
    )
    for i, (start, end) in enumerate(schedule.snippets):
        padded = schedule.padded_tail and i == schedule.num_snippets - 1
        suffix = " (padded)" if padded else ""
        print(f"snippet {i}: frames [{start}, {end}){suffix}")
    print(f"{schedule.num_snippets} snippets, stride {args.stride}, length {args.snippet_len}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        seed=args.seed,
        num_videos=args.num_videos,
        label_strength=args.label_strength,
        feature_dim=args.feature_dim,
    )
    ds = generate_synthetic(config)
    preds = perfect_predictions(ds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    fileio.save_config(out / "config.json", config)
    fileio.save_mq_gt(
        out / "gt_mq.json",
        fileio.MqGt(
            videos={v.video_id: v for v in ds.videos},
            num_classes=config.mq_num_classes,
            instances=dict(ds.mq_gt),
        ),
    )
    fileio.save_mq_pred(out / "pred_mq.json", preds["mq"])
    queries = {q.query_id: q for items in ds.nlq_gt.values() for q in items}
    video_of = {q.query_id: vid for vid, items in ds.nlq_gt.items() for q in items}
    fileio.save_nlq_gt(
        out / "gt_nlq.json",
        fileio.NlqGt(videos={v.video_id: v for v in ds.videos}, queries=queries, video_of=video_of),
    )
    fileio.save_nlq_pred(out / "pred_nlq.json", preds["nlq"])
    fileio.save_fhp_gt(
        out / "gt_fhp.json", fileio.FhpGt(resolution=config.resolution, instances=dict(ds.fhp_gt))
    )
    fileio.save_fhp_pred(out / "pred_fhp.json", preds["fhp"])
    fileio.save_lta_gt(
        out / "gt_lta.json",
        fileio.LtaGt(z=config.z, c_v=config.c_v, c_n=config.c_n, k=config.k, sequences=dict(ds.lta_gt)),
    )
    fileio.save_lta_pred(out / "pred_lta.json", preds["lta"])
    fileio.save_sta_gt(
        out / "gt_sta.json", fileio.StaGt(images=dict(ds.sta_images), instances=dict(ds.sta_gt))
    )
    fileio.save_sta_pred(
        out / "pred_sta.json", fileio.StaGt(images=dict(ds.sta_images), instances=preds["sta"])
    )
    fileio.save_scod_gt(
        out / "gt_scod.json", fileio.ScodGt(images=dict(ds.scod_images), instances=dict(ds.scod_gt))
    )
    fileio.save_scod_pred(
        out / "pred_scod.json", fileio.ScodGt(images=dict(ds.scod_images), instances=preds["scod"])
    )
    written = sorted(p.name for p in out.iterdir())
    print(f"wrote {len(written)} files to {out}: {', '.join(written)}")
    return 0


def _eval_mq(args: argparse.Namespace) -> list[MetricReport]:
    # Ground truth and predictions are scored as columns; a ground-truth
    # file has one group per listed video.
    gt = fileio.load_mq_gt(args.gt, columns=True)
    preds = fileio.load_mq_pred(args.pred, known_videos=gt, columns=True)
    gt_count = len(gt.score)
    by_label_gt, by_label_pred = gt.by_label(), preds.by_label()

    reports = []
    for kx in _parse_int_list(args.recall_k):
        for t in parse_thresholds(args.recall_tiou):
            reports.append(
                MetricReport(
                    name=f"Recall@{kx}x tIoU={t:g}",
                    value=recall_at_kx(by_label_pred, by_label_gt, kx, t),
                    count=gt_count,
                    family="percent",
                )
            )
    grid = parse_thresholds(args.tiou) if args.tiou else DEFAULT_MAP_TIOUS
    reports.append(average_map(preds, gt, grid))
    return reports


def _eval_nlq(args: argparse.Namespace) -> list[MetricReport]:
    gt = fileio.load_nlq_gt(args.gt, columns=True)
    preds = fileio.load_nlq_pred(args.pred, known_queries=gt, columns=True)
    reports = []
    for k in _parse_int_list(args.recall_k):
        for t in parse_thresholds(args.recall_tiou):
            reports.append(
                MetricReport(
                    name=f"R{k}@{t:g}",
                    value=recall_at_k(preds, gt, k, t),
                    count=len(gt),
                    family="percent",
                )
            )
    return reports


def _eval_fhp(args: argparse.Namespace) -> list[MetricReport]:
    gt = fileio.load_fhp_gt(args.gt)
    preds = fileio.load_fhp_pred(args.pred, known_videos=gt.instances)
    return displacement_report(preds, gt.instances)


def _eval_lta(args: argparse.Namespace) -> list[MetricReport]:
    gt = fileio.load_lta_gt(args.gt)
    forecasts = fileio.load_lta_pred(args.pred)
    for key, forecast in forecasts.items():
        if len(forecast.candidates) > gt.k:
            raise DataError(f"{key}: {len(forecast.candidates)} candidates exceeds the budget of {gt.k}")
    return edit_distance_report(forecasts, gt.sequences)


def _eval_sta(args: argparse.Namespace) -> list[MetricReport]:
    gt = fileio.load_sta_gt(args.gt, columns=True)
    preds = fileio.load_sta_pred(args.pred, known_frames=gt, columns=True)
    return sta_report(
        preds,
        gt,
        box_iou_thresh=args.box_iou,
        ttc_tol_s=args.ttc_tol,
        top_k=args.top_k,
    )


def _eval_scod(args: argparse.Namespace) -> list[MetricReport]:
    gt = fileio.load_scod_gt(args.gt, columns=True)
    preds = fileio.load_scod_pred(args.pred, known_frames=gt, columns=True)
    grid = parse_thresholds(args.iou) if args.iou else BOX_AP_IOUS
    return [box_ap(preds, gt, grid)]


_EVALS = {
    "mq": _eval_mq,
    "nlq": _eval_nlq,
    "fhp": _eval_fhp,
    "lta": _eval_lta,
    "sta": _eval_sta,
    "scod": _eval_scod,
}


def _cmd_eval(args: argparse.Namespace) -> int:
    reports = _EVALS[args.track](args)
    _emit_reports(reports, args.format, args.out)
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    if args.mode == "pre":
        a = fileio.load_features(args.features[0])
        b = fileio.load_features(args.features[1])
        fileio.save_features(args.out, prefuse_features(a, b))
        print(f"wrote {args.out}")
        return 0
    if args.mode == "post":
        files = [fileio.load_nlq_pred(path) for path in args.pred]
        merged = {}
        for qid in sorted({qid for preds in files for qid in preds}):
            lists = [preds.get(qid, ()) for preds in files]
            merged[qid] = post_fuse_segments(lists, args.tiou)
        fileio.save_nlq_pred(args.out, merged)
        print(f"wrote {args.out}")
        return 0
    files = [fileio.load_sta_pred(path) for path in args.pred]
    images: dict[str, tuple[int, int]] = {}
    for f in files:
        for kid, wh in f.images.items():
            if images.setdefault(kid, wh) != wh:
                raise DataError(f"keyframe {kid}: files disagree on image size")
    fused = {
        kid: tuple(splice_and_nms([f.instances.get(kid, ()) for f in files], args.nms_iou))
        for kid in sorted(images)
    }
    fileio.save_sta_pred(args.out, fileio.StaGt(images=images, instances=fused))
    print(f"wrote {args.out}")
    return 0


def _cmd_vote(args: argparse.Namespace) -> int:
    clip_probs = fileio.load_lta_clip_probs(args.pred)
    vote = VoteConfig(combine_rule=args.rule)
    fused: dict[tuple[str, int], LtaForecast] = {}
    for key, clips in clip_probs.items():
        _, matrix = multi_clips_vote(clips, vote)
        fused[key] = LtaForecast(
            clip_index=key[1],
            candidates=top_k_sequences(matrix, args.k),
            score_matrix=matrix,
        )
    fileio.save_lta_pred(args.out, fused)
    print(f"fused {len(fused)} episodes into {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = fileio.load_config(args.config)
    ds = generate_synthetic(config)
    if args.task == "lta":
        head, losses = train_forecaster(
            ds,
            ds.video_ids,
            epochs=args.epochs if args.epochs is not None else 80,
            lr=args.lr if args.lr is not None else 2.0,
            momentum=args.momentum,
            seed=args.seed,
            alpha_s=args.alpha,
            clip_len_s=args.clip_len,
            clip_stride_s=args.clip_stride,
        )
    else:
        head, losses = train_hand_regressor(
            ds,
            ds.video_ids,
            epochs=args.epochs if args.epochs is not None else 200,
            lr=args.lr if args.lr is not None else 0.05,
            momentum=args.momentum,
            seed=args.seed,
        )
    for i, loss in enumerate(losses):
        print(f"epoch {i}: loss {loss:.6f}")
    fileio.save_head(args.out, head)
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.table is None:
        for name in sorted(FIXTURES):
            print(name)
        return 0
    sys.stdout.write(render_fixture(fixture(args.table), args.format))
    return 0


_COMMANDS = {
    "schedule": _cmd_schedule,
    "synth": _cmd_synth,
    "eval": _cmd_eval,
    "fuse": _cmd_fuse,
    "vote": _cmd_vote,
    "train": _cmd_train,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        worker_count()
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
