"""Span recorder for the traced run, and the per-layer numbers derived from it.

Spans are recorded from the benchmark's side only: ``instrument`` replaces
public egoforge functions, at the names through which the CLI and the
training code call them, by wrappers that time each call. A span holds its
id, name, start, end, parent span id and run id. Spans stay in memory and
are written as JSON lines when the run ends; ``layer_metrics`` turns the
spans read back from that file into self times per layer.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable

# Span name -> the per-layer metric its self time adds to. Names are
# "<module>.<public function>"; "cli.main" is the root span of a command.
SPAN_METRIC = {
    "fileio.load": "fileio.load_s",
    "fileio.save": "fileio.save_s",
    "fileio.features": "fileio.features_s",
    "metrics.average_map": "metrics.ap_s",
    "metrics.box_ap": "metrics.ap_s",
    "metrics.sta_report": "metrics.ap_s",
    "metrics.recall_at_k": "metrics.recall_s",
    "metrics.recall_at_kx": "metrics.recall_s",
    "metrics.edit_distance_report": "metrics.edit_s",
    "metrics.displacement_report": "metrics.disp_s",
    "fusion.multi_clips_vote": "fusion.vote_s",
    "fusion.top_k_sequences": "fusion.topk_s",
    "fusion.post_fuse_segments": "fusion.temporal_nms_s",
    "fusion.splice_and_nms": "fusion.box_nms_s",
    "snippets.prefuse_features": "snippets.prefuse_s",
    "synth.generate_synthetic": "synth.generate_s",
    "synth.perfect_predictions": "synth.perfect_s",
    "experiments.forecast_training_set": "experiments.features_s",
    "experiments.hand_training_set": "experiments.features_s",
    "heads.train_head": "heads.train_s",
    "render.render_reports": "render.reports_s",
}

ROOT = "cli.main"

# Binary formats: the EGFT feature and EGHD head files.
_BINARY_IO = ("load_features", "save_features", "load_head", "save_head")


def _sized(groups: Iterable[Any]) -> int:
    return sum(len(g) for g in groups)


def _count_ap(args: tuple, kwargs: dict, name: str) -> int:
    # Predictions scored times thresholds. The CLI passes the threshold grid
    # as the third argument; sta_report scores each frame's top_k once for
    # each of its four criteria.
    preds = args[0]
    if name == "sta_report":
        return 4 * sum(min(len(items), kwargs["top_k"]) for items in preds.values())
    return _sized(preds.values()) * len(args[2])


class SpanRecorder:
    """Collects spans and counters in memory for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = {}
        self.loaded: list[tuple[str, str]] = []  # (loader, path) of JSON files read
        self.saved: list[str] = []  # paths of JSON files written
        self._stack: list[int] = []

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Callable[[tuple, dict, Any], None] | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def write(self, path: str | Path) -> None:
        with open(path, "a", encoding="utf-8") as f:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
                    )
                    + "\n"
                )


def instrument(rec: SpanRecorder) -> Callable[[list[str]], int]:
    """Wrap egoforge's public functions; returns the traced ``cli.main``.

    ``egoforge.cli`` imported most functions by name, so those names are
    replaced in the cli module; fileio functions are looked up on the module
    at call time; the training-set functions and ``train_head`` are replaced
    where ``experiments`` calls them.
    """
    from egoforge import cli, experiments, fileio

    def patch(module: Any, attr: str, span: str, after: Callable | None = None) -> None:
        setattr(module, attr, rec.wrap(span, getattr(module, attr), after))

    for attr in dir(fileio):
        if not attr.startswith(("load_", "save_")) or not callable(getattr(fileio, attr)):
            continue
        if attr in _BINARY_IO:
            patch(fileio, attr, "fileio.features")
        elif attr.startswith("load_"):
            patch(fileio, attr, "fileio.load", lambda a, k, r, attr=attr: rec.loaded.append((attr, str(a[0]))))
        else:
            patch(fileio, attr, "fileio.save", lambda a, k, r: rec.saved.append(str(a[0])))

    def ap_counter(fn_name: str) -> Callable:
        return lambda a, k, r: rec.count("metrics.ap_pred_thresholds", _count_ap(a, k, fn_name))

    def nms_counter(prefix: str) -> Callable:
        def after(a: tuple, k: dict, result: list) -> None:
            rec.count(f"{prefix}.in", _sized(a[0]))
            rec.count(f"{prefix}.kept", len(result))

        return after

    cli_targets = {
        "average_map": ("metrics", ap_counter("average_map")),
        "box_ap": ("metrics", ap_counter("box_ap")),
        "sta_report": ("metrics", ap_counter("sta_report")),
        "recall_at_k": ("metrics", None),
        "recall_at_kx": ("metrics", None),
        "edit_distance_report": (
            "metrics",
            lambda a, k, r: rec.count("metrics.edit_pairs", 3 * sum(len(f.candidates) for f in a[0].values())),
        ),
        "displacement_report": ("metrics", None),
        "multi_clips_vote": ("fusion", lambda a, k, r: rec.count("fusion.vote_clips", len(a[0]))),
        "top_k_sequences": ("fusion", None),
        "post_fuse_segments": ("fusion", nms_counter("fusion.temporal_nms")),
        "splice_and_nms": ("fusion", nms_counter("fusion.box_nms")),
        "prefuse_features": ("snippets", None),
        "generate_synthetic": ("synth", None),
        "perfect_predictions": ("synth", None),
        "train_forecaster": ("experiments", None),
        "train_hand_regressor": ("experiments", None),
        "render_reports": ("render", None),
    }
    for attr, (module, after) in cli_targets.items():
        patch(cli, attr, f"{module}.{attr}", after)
    patch(experiments, "forecast_training_set", "experiments.forecast_training_set")
    patch(experiments, "hand_training_set", "experiments.hand_training_set")
    patch(experiments, "train_head", "heads.train_head", lambda a, k, r: rec.count("heads.examples", len(a[1])))
    return rec.wrap(ROOT, cli.main)


def read_spans(path: str | Path) -> dict[str, list[dict]]:
    """Spans from a JSON-lines file, grouped by run id."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            span = json.loads(line)
            runs.setdefault(span["run"], []).append(span)
    return runs


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one run come from one thread, so children never overlap.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], factors: list[float]) -> dict[str, float]:
    """Per-layer self times of one run, and the share of its wall time spent
    inside layer spans (any span below a command's root span).

    Self times are in reference seconds: each span is scaled by
    ``factors[k]``, the speed factor of the k-th command (root span) it ran
    under.
    """
    own = self_times(spans)
    roots = [s for s in spans if s["parent"] < 0]
    command = {s["id"]: k for k, s in enumerate(roots)}
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in command)
    root_total = sum(s["end"] - s["start"] for s in roots)
    for s in spans:  # a parent is always recorded before its children
        if s["parent"] >= 0:
            command[s["id"]] = command[s["parent"]]
    out = {metric: 0.0 for metric in SPAN_METRIC.values()}
    for s in spans:
        if s["name"] in SPAN_METRIC:
            out[SPAN_METRIC[s["name"]]] += own[s["id"]] * factors[command[s["id"]]]
    out["trace.coverage"] = covered / root_total if root_total else 0.0
    return out
