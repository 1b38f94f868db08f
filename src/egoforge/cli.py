"""Command-line front end.

Exit codes: 0 on success, 1 for bad command lines, 2 for bad data (unreadable
files, schema violations, inconsistent inputs, sizes too large to allocate).
Subcommands cover snippet scheduling, per-track evaluation, feature and
result fusion, clip voting, synthetic data generation, toy training, and
fixture table rendering.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Sequence

from . import fileio
from .errors import DataError, TrainingDiverged
from .experiments import train_forecaster, train_hand_regressor
from .fixtures import FIXTURES, fixture
from .fusion import FusionConfig, fuse_columns, mean_forecast
# Not called here, since vote and fuse run on columns and fuse pre streams
# its files; perfbench/spans.py looks these names up in this module to time
# them.
from .fusion import multi_clips_vote, post_fuse_segments, splice_and_nms, top_k_sequences  # noqa: F401
from .snippets import prefuse_features  # noqa: F401
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
from .render import OUTPUT_FORMATS, render_fixture, render_reports
from .snippets import build_snippet_schedule
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


def _recall_grid(args: argparse.Namespace) -> list[tuple[int, float]]:
    """The (k, tIoU) pair of each recall report, refused past ``MAX_THRESHOLDS``."""
    ks, tious = _parse_int_list(args.recall_k), parse_thresholds(args.recall_tiou)
    if len(ks) * len(tious) > MAX_THRESHOLDS:
        raise ValueError(f"{len(ks)} recall k values by {len(tious)} tIoU thresholds make more than {MAX_THRESHOLDS} reports")
    return [(k, t) for k in ks for t in tious]


def _emit_reports(reports: list[MetricReport], fmt: str, out: str | None) -> None:
    sys.stdout.write(render_reports(reports, fmt))
    if out:
        fileio.save_reports(out, reports)


@functools.cache
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
    p.add_argument("--k", type=int, default=5, help="candidate sequences to keep")

    # An option left out is left out of the trainer's call: the trainers
    # hold the defaults.
    p = sub.add_parser("train", help="fit a toy head on a synthetic dataset", argument_default=argparse.SUPPRESS)
    p.add_argument("task", choices=("lta", "fhp"))
    p.add_argument("--config", required=True, help="synthetic dataset config file")
    p.add_argument("--out", required=True, help="head file to write")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float, dest="alpha_s", help="observable window seconds (lta)")
    p.add_argument("--clip-len", type=float, dest="clip_len_s", help="clip seconds (lta)")
    p.add_argument("--clip-stride", type=float, dest="clip_stride_s", help="clip stride seconds (lta)")

    p = sub.add_parser("report", help="render a stored results table")
    p.add_argument("--table", default=None, help="table name; omit to list tables")
    p.add_argument("--format", choices=OUTPUT_FORMATS, default="plain")

    return parser


def _cmd_schedule(args: argparse.Namespace) -> int:
    schedule = build_snippet_schedule(
        args.num_frames, fps=args.fps, snippet_len_frames=args.snippet_len, stride_frames=args.stride
    )
    lines = [f"snippet {i}: frames [{start}, {end})\n" for i, (start, end) in enumerate(schedule.snippets)]
    if schedule.padded_tail:
        lines[-1] = lines[-1][:-1] + " (padded)\n"
    lines.append(f"{schedule.num_snippets} snippets, stride {args.stride}, length {args.snippet_len}\n")
    sys.stdout.write("".join(lines))
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

    # Every saver takes the views' columns as they are: no typed record is
    # built.
    videos = {v.video_id: v for v in ds.videos}
    fileio.save_config(out / "config.json", config)
    fileio.save_mq_gt(out / "gt_mq.json", fileio.MqGt(videos=videos, num_classes=config.mq_num_classes, instances=ds.mq_gt))
    fileio.save_mq_pred(out / "pred_mq.json", preds["mq"])
    fileio.save_nlq_gt(out / "gt_nlq.json", fileio.NlqGt.from_columns(videos, ds.nlq_gt.columns))
    fileio.save_nlq_pred(out / "pred_nlq.json", preds["nlq"])
    fileio.save_fhp_gt(out / "gt_fhp.json", fileio.FhpGt(resolution=config.resolution, instances=ds.fhp_gt))
    fileio.save_fhp_pred(out / "pred_fhp.json", preds["fhp"])
    fileio.save_lta_gt(out / "gt_lta.json", fileio.LtaGt(z=config.z, c_v=config.c_v, c_n=config.c_n, k=config.k, sequences=ds.lta_gt))
    fileio.save_lta_pred(out / "pred_lta.json", preds["lta"])
    fileio.save_sta_gt(out / "gt_sta.json", fileio.StaGt(images=ds.sta_images, instances=ds.sta_gt))
    fileio.save_sta_pred(out / "pred_sta.json", fileio.StaGt(images=ds.sta_images, instances=preds["sta"]))
    fileio.save_scod_gt(out / "gt_scod.json", fileio.ScodGt(images=ds.scod_images, instances=ds.scod_gt))
    fileio.save_scod_pred(out / "pred_scod.json", fileio.ScodGt(images=ds.scod_images, instances=preds["scod"]))
    written = sorted(p.name for p in out.iterdir())
    print(f"wrote {len(written)} files to {out}: {', '.join(written)}")
    return 0


def _eval_mq(args: argparse.Namespace) -> list[MetricReport]:
    # Both grids are parsed before any file is read.
    recall = _recall_grid(args)
    grid = parse_thresholds(args.tiou) if args.tiou else DEFAULT_MAP_TIOUS
    # Ground truth and predictions are scored as the loaders' columns; a
    # ground-truth file has one group per listed video.
    gt = fileio.load_mq_gt(args.gt).instances.columns
    preds = fileio.load_mq_pred(args.pred, known_videos=gt).columns
    by_label_gt, by_label_pred = gt.by_label(), preds.by_label()
    reports = [
        MetricReport(f"Recall@{kx}x tIoU={t:g}", recall_at_kx(by_label_pred, by_label_gt, kx, t), count=len(gt.score))
        for kx, t in recall
    ]
    return [*reports, average_map(preds, gt, grid)]


def _eval_nlq(args: argparse.Namespace) -> list[MetricReport]:
    recall = _recall_grid(args)
    gt = fileio.load_nlq_gt(args.gt).queries.columns
    preds = fileio.load_nlq_pred(args.pred, known_queries=gt).columns
    return [MetricReport(f"R{k}@{t:g}", recall_at_k(preds, gt, k, t), count=len(gt)) for k, t in recall]


def _eval_fhp(args: argparse.Namespace) -> list[MetricReport]:
    gt = fileio.load_fhp_gt(args.gt).instances.columns
    preds = fileio.load_fhp_pred(args.pred, known_videos=gt).columns
    return displacement_report(preds, gt)


def _eval_lta(args: argparse.Namespace) -> list[MetricReport]:
    # Both files are scored as columns; the config is ground truth's.
    gt = fileio.load_lta_gt(args.gt)
    forecasts = fileio.load_lta_pred(args.pred).columns
    for key, count in zip(forecasts.episodes, forecasts.counts.tolist()):
        if count > gt.k:
            raise DataError(f"{key}: {count} candidates exceeds the budget of {gt.k}")
    return edit_distance_report(forecasts, gt.sequences.columns)


def _eval_sta(args: argparse.Namespace) -> list[MetricReport]:
    gt = fileio.load_sta_gt(args.gt).instances.columns
    preds = fileio.load_sta_pred(args.pred, known_frames=gt).instances.columns
    return sta_report(
        preds,
        gt,
        box_iou_thresh=args.box_iou,
        ttc_tol_s=args.ttc_tol,
        top_k=args.top_k,
    )


def _eval_scod(args: argparse.Namespace) -> list[MetricReport]:
    gt = fileio.load_scod_gt(args.gt).instances.columns
    preds = fileio.load_scod_pred(args.pred, known_frames=gt).instances.columns
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
        fileio.fuse_feature_files(*args.features, args.out)
        print(f"wrote {args.out}")
        return 0
    if args.mode == "post":
        FusionConfig(temporal_nms_tiou=args.tiou)
        files = [fileio.load_nlq_pred(path).columns for path in args.pred]
        queries = sorted({qid for f in files for qid in f})
        fileio.save_nlq_pred(args.out, fuse_columns(files, queries, args.tiou))
        print(f"wrote {args.out}")
        return 0
    FusionConfig(box_nms_iou=args.nms_iou)
    files = [fileio.load_sta_pred(path) for path in args.pred]
    images: dict[str, tuple[int, int]] = {}
    for f in files:
        for kid, wh in f.images.items():
            if images.setdefault(kid, wh) != wh:
                raise DataError(f"keyframe {kid}: files disagree on image size")
    fused = fuse_columns([f.instances.columns for f in files], sorted(images), args.nms_iou)
    fileio.save_sta_pred(args.out, fileio.StaGt(images=images, instances=fused))
    print(f"wrote {args.out}")
    return 0


def _cmd_vote(args: argparse.Namespace) -> int:
    FusionConfig(top_k=args.k)
    clips = fileio.load_lta_clip_probs(args.pred).columns
    fused = {key: mean_forecast(matrices, args.k) for key, matrices in clips.items()}
    fileio.save_lta_pred(args.out, fused)
    print(f"fused {len(fused)} episodes into {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = fileio.load_config(args.config)
    ds = generate_synthetic(config)
    given = {k: v for k, v in vars(args).items() if k not in ("command", "task", "config", "out")}
    if args.task == "lta":
        head, losses = train_forecaster(ds, ds.video_ids, **given)
    else:  # the clip window options are the forecaster's alone
        window = ("alpha_s", "clip_len_s", "clip_stride_s")
        head, losses = train_hand_regressor(ds, ds.video_ids, **{k: v for k, v in given.items() if k not in window})
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
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError, TrainingDiverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # A size in the input too large to allocate, such as a config's
        # feature_dim, is bad data too.
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
