"""Frozen benchmark tables used as rendering references.

Each fixture is a grid of published numbers: rows are method variants, columns
are (split, metric) pairs. Values are stored at the printed precision and must
render back byte for byte, so nothing here is recomputed. A ``None`` cell means
the method has no number for that split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .metrics import REPORT_FAMILIES
from .model import _require

SPLITS = ("val", "test")

Cells = tuple[tuple[float | None, ...], ...]


@dataclass(frozen=True)
class FixtureTable:
    """A results grid with one row per method and per-split metric columns."""

    name: str
    family: str
    metrics: tuple[str, ...]
    rows: tuple[str, ...]
    cells: Mapping[str, Cells]

    def __post_init__(self) -> None:
        _require(self.family in REPORT_FAMILIES, f"unknown family '{self.family}'")
        _require(set(self.cells) == set(SPLITS), "cells must cover exactly the val and test splits")
        for split, grid in self.cells.items():
            _require(len(grid) == len(self.rows), f"{split}: row count mismatch")
            for row, values in zip(self.rows, grid):
                _require(
                    len(values) == len(self.metrics),
                    f"{split}/{row}: expected {len(self.metrics)} cells",
                )
        # In SPLITS order whatever the given order, as the JSON lists them.
        object.__setattr__(self, "cells", {split: self.cells[split] for split in SPLITS})

    def cell(self, split: str, row: str, metric: str) -> float | None:
        _require(split in SPLITS, f"unknown split '{split}'")
        _require(row in self.rows, f"unknown row '{row}'")
        _require(metric in self.metrics, f"unknown metric '{metric}'")
        return self.cells[split][self.rows.index(row)][self.metrics.index(metric)]


_HANDS = FixtureTable(
    name="hands-results",
    family="pixels",
    metrics=("L-M.Disp", "L-C.Disp", "R-M.Disp", "R-C.Disp"),
    rows=(
        "I3D (224,16,30)",
        "VideoMAE-L (224,16,1)",
        "UniFormer-B (320,4,1)",
        "UniFormer-B (320,4,30)",
        "UniFormer-B (320,8,30)",
    ),
    cells={
        "val": (
            (54.11, 57.29, 54.73, 57.94),
            (66.45, 68.23, 67.32, 68.92),
            (46.65, 54.58, 48.30, 55.10),
            (44.90, 54.16, 46.70, 54.66),
            (43.25, 52.78, 45.29, 52.65),
        ),
        "test": (
            (52.98, 56.37, 53.68, 56.17),
            (None, None, None, None),
            (45.76, 54.95, 47.93, 55.11),
            (44.69, 53.47, 47.00, 53.49),
            (43.85, 53.33, 46.25, 53.37),
        ),
    },
)

_LONGTERM = FixtureTable(
    name="longterm-results",
    family="edit",
    metrics=("Verb", "Noun", "Action"),
    rows=(
        "MViT OW=16",
        "SlowFast OW=32",
        "VideoMAE-L E2E OW=2",
        "VideoMAE-L E2E+MC OW=2",
        "VideoMAE-L E2E+MC OW=4",
        "VideoMAE-L E2E+MC OW=8",
        "VideoMAE-L E2E+MC OW=16",
    ),
    cells={
        "val": (
            (0.707, 0.901, 0.972),
            (0.745, 0.779, 0.941),
            (0.708, 0.710, 0.923),
            (0.674, 0.695, 0.902),
            (0.638, 0.658, 0.888),
            (0.595, 0.622, 0.863),
            (0.561, 0.594, 0.840),
        ),
        "test": (
            (0.697, 0.904, 0.969),
            (0.739, 0.780, 0.943),
            (0.737, 0.723, 0.931),
            (None, None, None),
            (None, None, None),
            (None, None, None),
            (0.650, 0.639, 0.878),
        ),
    },
)

_MQ = FixtureTable(
    name="mq-two-stage",
    family="percent",
    metrics=("Recall@1x tIoU=0.5", "mAP"),
    rows=(
        "K700->Verb->MQ + VSGN",
        "K700->Verb + ActionFormer",
        "K700->Verb->MQ + ActionFormer",
    ),
    cells={
        "val": (
            (37.82, 19.35),
            (37.24, 20.69),
            (40.36, 23.29),
        ),
        "test": (
            (36.38, 18.04),
            (35.58, 19.31),
            (41.13, 23.59),
        ),
    },
)

_NLQ = FixtureTable(
    name="nlq-performance",
    family="percent",
    metrics=("R5@0.3", "R5@0.5", "R1@0.3", "R1@0.5"),
    rows=(
        "A: EgoVLP baseline",
        "B: verb-head video features",
        "C: noun-head video features",
        "D: B+C pre-fusion",
        "E: D+A pre-fusion",
        "F: D+E post-fusion",
    ),
    cells={
        "val": (
            (18.84, 13.45, 10.84, 6.81),
            (21.73, 15.07, 12.32, 7.43),
            (21.89, 15.64, 12.78, 8.08),
            (23.36, 17.37, 13.71, 9.06),
            (24.21, 17.89, 14.40, 9.60),
            (24.78, 18.30, 15.64, 10.17),
        ),
        "test": (
            (16.76, 11.29, 10.46, 6.24),
            (20.32, 13.29, 13.03, 7.87),
            (None, None, None, None),
            (21.25, 14.64, 14.59, 9.07),
            (21.98, 15.28, 15.56, 9.99),
            (22.95, 16.10, 16.45, 10.06),
        ),
    },
)

_STA = FixtureTable(
    name="short-term",
    family="percent",
    metrics=("Noun", "Noun+Verb", "Noun+TTC", "Overall"),
    rows=(
        "A: detector baseline",
        "B: A + video verb features",
        "C: B + box position code",
        "D: C + top-3 detector boxes",
        "E: C + fused detector boxes",
        "F: C + top-10 fused boxes",
    ),
    cells={
        "val": (
            (17.55, 5.16, 5.19, 1.98),
            (17.55, 5.37, 5.21, 2.06),
            (17.55, 6.30, 5.83, 2.43),
            (18.73, 8.5, 7.55, 3.87),
            (20.02, 7.34, 6.37, 2.74),
            (19.45, 8.00, 6.97, 3.25),
        ),
        "test": (
            (20.45, 6.63, 5.93, 2.20),
            (20.45, 7.84, 5.74, 2.38),
            (20.45, 7.64, 6.85, 2.88),
            (20.46, 7.39, 7.18, 3.00),
            (24.53, 9.09, 7.59, 3.36),
            (24.60, 9.18, 7.64, 3.40),
        ),
    },
)

_SCOD = FixtureTable(
    name="scod-performance",
    family="percent",
    metrics=("AP", "AP50", "AP75"),
    rows=(
        "Faster R-CNN R101 (IN-1K)",
        "DETR R50 (IN-1K)",
        "CenterNet DLA-34 (IN-1K)",
        "DINO UniFormer-L (IN-1K)",
        "DINO Swin-L (IN-22K)",
        "DINO Swin-L (IN-22K+COCO)",
        "DINO Swin-L (IN-22K+O365)",
    ),
    cells={
        "val": (
            (13.40, 25.60, 12.50),
            (15.50, 32.80, 13.00),
            (6.40, 11.70, 6.10),
            (24.80, 44.20, 24.00),
            (28.00, 48.70, 27.20),
            (32.20, 51.30, 33.10),
            (36.40, 56.50, 37.60),
        ),
        "test": (
            (13.35, 25.52, 12.38),
            (15.38, 32.51, 12.87),
            (6.32, 11.62, 6.08),
            (None, None, None),
            (None, None, None),
            (None, None, None),
            (37.19, 55.97, 38.44),
        ),
    },
)

FIXTURES: dict[str, FixtureTable] = {
    table.name: table
    for table in (_HANDS, _LONGTERM, _MQ, _NLQ, _STA, _SCOD)
}


def fixture(name: str) -> FixtureTable:
    if name not in FIXTURES:
        known = ", ".join(sorted(FIXTURES))
        raise ValueError(f"unknown fixture {name!r} (known: {known})")
    return FIXTURES[name]
