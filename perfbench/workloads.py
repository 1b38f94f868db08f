"""The three workloads: their input sizes, inputs and command sequences.

Sizes are fixed here, so every seed runs the same amount of work and only
the content of the inputs changes with the seed. Each run of a workload
executes its commands in order in one fresh interpreter.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import gen

EVAL_DENSE_VIDEOS = 300
ORACLE_VIDEOS = 24  # the subsample the brute-force oracles re-score
SYNTH_VIDEOS = 500
TRAIN_VIDEOS = 24
# Training is matmul-bound, and BLAS speed follows the host's contention
# differently from the interpreter-bound reference timing; 20 epochs keep
# it a small share of the run.
TRAIN_EPOCHS = 20
VOTE_EPISODES = 120
VOTE_CLIPS = 8  # a 16 s observable window cut into 2 s clips
FUSE_VIDEOS = 150  # 300 NLQ queries and 300 STA keyframes per model file
FEATURE_ROWS = 10000

WORKLOADS = ("eval-dense", "synth-eval", "forecast-fuse")


def _command(name: str, argv: list[str], reads: list[Path], writes: list[Path]) -> dict[str, Any]:
    return {"name": name, "argv": argv, "reads": [str(p) for p in reads], "writes": [str(p) for p in writes]}


def _evals(ds: Path) -> list[dict[str, Any]]:
    return [
        _command(
            f"eval_{t}",
            ["eval", t, "--gt", str(ds / f"gt_{t}.json"), "--pred", str(ds / f"pred_{t}.json"), "--format", "json"],
            [ds / f"gt_{t}.json", ds / f"pred_{t}.json"],
            [],
        )
        for t in gen.EVAL_TRACKS
    ]


def prepare(workload: str, inputs: Path, outputs: Path, seed: int) -> list[dict[str, Any]]:
    """Write the workload's inputs for one seed; return its command sequence.

    Commands read from ``inputs`` and write only under ``outputs``, which
    the caller empties before every run.
    """
    if workload == "eval-dense":
        gen.write_eval_inputs(inputs, seed, EVAL_DENSE_VIDEOS, gen.NOISE, subsample=ORACLE_VIDEOS)
        return _evals(inputs)
    if workload == "synth-eval":
        ds = outputs / "ds"
        synth = _command(
            "synth",
            ["synth", "--out", str(ds), "--seed", str(seed), "--num-videos", str(SYNTH_VIDEOS)],
            [],
            [ds / "config.json"] + [ds / f"{kind}_{t}.json" for t in gen.EVAL_TRACKS for kind in ("gt", "pred")],
        )
        return [synth] + _evals(ds)
    if workload == "forecast-fuse":
        gen.write_forecast_inputs(inputs, seed, TRAIN_VIDEOS, VOTE_EPISODES, VOTE_CLIPS, FUSE_VIDEOS, FEATURE_ROWS)
        config = inputs / "config.json"
        nlq = [inputs / f"nlq_{m}.json" for m in range(gen.FUSE_MODELS)]
        sta = [inputs / f"sta_{m}.json" for m in range(gen.FUSE_MODELS)]
        feats = [inputs / "verb.feat", inputs / "noun.feat"]
        return [
            _command(
                "train_lta",
                ["train", "lta", "--config", str(config), "--out", str(outputs / "lta.head"), "--epochs", str(TRAIN_EPOCHS)],
                [config],
                [],
            ),
            _command("train_fhp", ["train", "fhp", "--config", str(config), "--out", str(outputs / "fhp.head")], [config], []),
            _command(
                "vote",
                ["vote", "--pred", str(inputs / "clips.json"), "--out", str(outputs / "voted.json")],
                [inputs / "clips.json"],
                [outputs / "voted.json"],
            ),
            _command(
                "fuse_post",
                ["fuse", "post", "--pred", *map(str, nlq), "--out", str(outputs / "nlq.json")],
                nlq,
                [outputs / "nlq.json"],
            ),
            _command(
                "fuse_sta",
                ["fuse", "sta", "--pred", *map(str, sta), "--out", str(outputs / "sta.json")],
                sta,
                [outputs / "sta.json"],
            ),
            _command(
                "fuse_pre",
                ["fuse", "pre", "--features", *map(str, feats), "--out", str(outputs / "fused.feat")],
                [],
                [],
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def count_records(raw: Any) -> int:
    """JSON records in a parsed file: entries of its top-level lists of objects."""
    if not isinstance(raw, dict):
        return 0
    return sum(len(v) for v in raw.values() if isinstance(v, list) and v and isinstance(v[0], dict))


def file_records(path: str | Path) -> int:
    return count_records(json.loads(Path(path).read_text(encoding="utf-8")))
