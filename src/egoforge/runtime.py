"""Environment settings, checked once at CLI entry."""

from __future__ import annotations

import os

from .errors import DataError

THREADS_ENV = "EGOFORGE_THREADS"


def worker_count() -> int:
    """Worker count from the environment (default 1).

    Evaluation is single-threaded; the setting is still parsed so a bad value
    is reported instead of silently ignored.
    """
    raw = os.environ.get(THREADS_ENV, "").strip()
    if raw == "":
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise DataError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return n
