"""Time the edit-distance and suppression kernels on seeded inputs.

Usage: ``PYTHONPATH=src python tests/kernel_times.py``

Prints the median of 9 runs, in milliseconds, of
``metrics._edit_distances`` on 20,000 (candidate, truth) lanes of 20 codes,
and of ``fusion._greedy_suppress`` on 300 pools of 30 boxes and on one pool
of 5,000 boxes, each at an IoU threshold of 0.5. The benchmark workloads
run neither kernel at these sizes, so this is where their own time shows.
Timings depend on the machine; the printout names its CPU count, Python
and numpy. Reports only: the exit status is 0 unless the kernels raise.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

from egoforge import fusion, metrics

RUNS = 9


def _median_ms(run) -> float:
    run()  # caches and lazy set-up
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def _boxes(rng: np.random.Generator, sizes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Boxes 10 to 120 pixels wide and high on a 720 x 720 frame, so a pool
    # of thousands overlaps a lot and a pool of 30 a little.
    n = sum(sizes)
    corner, size = rng.uniform(0, 600, (n, 2)), rng.uniform(10, 120, (n, 2))
    return np.concatenate([corner, corner + size], axis=1), rng.random(n), np.concatenate(([0], np.cumsum(sizes)))


def main() -> None:
    rng = np.random.default_rng(2022)
    print(f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {np.__version__}; median of {RUNS} runs")
    # Action codes of about 100 verb-noun pairs, 20 to a sequence.
    a, b = rng.integers(0, 100, (20_000, 20)), rng.integers(0, 100, (20_000, 20))
    print(f"metrics._edit_distances, 20,000 lanes x 20: {_median_ms(lambda: metrics._edit_distances(a, b)):.1f} ms")
    for label, sizes in (("300 pools of 30 boxes", [30] * 300), ("one pool of 5,000 boxes", [5000])):
        rows, scores, starts = _boxes(rng, sizes)
        ms = _median_ms(lambda: fusion._greedy_suppress(rows, scores, starts, 0.5, metrics._box_iou_pairs))
        print(f"fusion._greedy_suppress, {label}: {ms:.1f} ms")


if __name__ == "__main__":
    main()
