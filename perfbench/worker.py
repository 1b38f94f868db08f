"""One run of a workload: its commands in order, in this fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC names the checkout's ``src`` directory, the command sequence, the
output directory and, for a traced run, the run id and span file. Each
command goes through ``egoforge.cli.main`` with stdout captured; the next
starts when it returns. The import of egoforge is not timed (the benchmark
reports it as ``setup_s``). RESULT receives per-command times and exit
codes, stdout, the hash of every output file and the peak resident memory.

Shared hosts change a vCPU's speed by up to 2x within seconds. So before
each command and after the last, a fixed pure-Python reference computation
is timed, and each command's time is also given at reference speed:
seconds * REF_SECONDS / (mean of the two reference times around it).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# The reference computation's typical time on a 2-vCPU x86-64 VM with
# Python 3.11; it sets the scale of "reference seconds".
REF_SECONDS = 0.035

_REF_BLOB = json.dumps(
    [{"id": i, "score": i * 0.37 % 1.0, "span": [i * 0.5, i * 0.5 + 1.25], "name": f"r{i}"} for i in range(4000)]
)


def reference_seconds() -> float:
    """Time of a fixed interpreter-bound mix: integer loop, JSON round trip, sort, dict build."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    rows = json.loads(_REF_BLOB)
    rows.sort(key=lambda r: (-r["score"], r["id"]))
    index = {r["name"]: r for r in rows}
    json.dumps(rows[: len(index) // 4], indent=2)
    return time.perf_counter() - t0


def speed_factors(refs: list[float]) -> list[float]:
    """Scale from measured to reference seconds for each interval between refs."""
    return [REF_SECONDS / ((a + b) / 2) for a, b in zip(refs, refs[1:])]


def peak_rss_mb() -> float:
    """High-water resident memory of this process since it started.

    Read from /proc where it exists: ``ru_maxrss`` can carry over the
    parent's peak across the exec that started this interpreter.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _probe(loaded: list[tuple[str, str]], saved: list[str], validate) -> dict[str, float]:
    """Re-read the JSON files a command loaded and saved.

    Loads are split into parsing and validation by timing those two steps
    alone; saves are counted in records and megabytes.
    """
    from workloads import count_records

    out = dict.fromkeys(("fileio.parse_s", "model.validate_s", "fileio.load_records", "fileio.save_records", "fileio.save_mb"), 0.0)
    clock = time.perf_counter
    for loader, path in loaded:
        text = Path(path).read_text(encoding="utf-8")
        t0 = clock()
        raw = json.loads(text)
        t1 = clock()
        out["fileio.parse_s"] += t1 - t0
        if loader != "load_config":  # the config loader does not validate
            validate(raw)
            out["model.validate_s"] += clock() - t1
        out["fileio.load_records"] += count_records(raw)
    for path in saved:
        blob = Path(path).read_bytes()
        out["fileio.save_records"] += count_records(json.loads(blob))
        out["fileio.save_mb"] += len(blob) / 1e6
    return out


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from egoforge import cli
    from egoforge.model import validate_dataset

    run = cli.main
    rec = None
    if spec.get("trace"):
        import spans

        rec = spans.SpanRecorder(spec["trace"]["run_id"])
        run = spans.instrument(rec)

    commands, refs, marks = [], [], []
    clock = time.perf_counter
    for command in spec["commands"]:
        refs.append(reference_seconds())
        if rec is not None:
            marks.append((len(rec.loaded), len(rec.saved)))
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = run(command["argv"])
            except Exception:  # a crash is a failed command, not a dead run
                traceback.print_exc()
                rc = -1
        seconds = clock() - t0
        commands.append({"name": command["name"], "rc": rc, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()})
    refs.append(reference_seconds())
    for cmd, factor in zip(commands, speed_factors(refs)):
        cmd["factor"] = factor
    if rec is not None:
        # Probes run after the last command, so they cannot disturb the
        # timed ones (their allocations would pre-grow the heap).
        marks.append((len(rec.loaded), len(rec.saved)))
        probes = [
            _probe(rec.loaded[a[0] : b[0]], rec.saved[a[1] : b[1]], validate_dataset) for a, b in zip(marks, marks[1:])
        ]
        (factor,) = speed_factors([refs[-1], reference_seconds()])
        for cmd, probe in zip(commands, probes):
            cmd["probe"] = {k: v * factor if k.endswith("_s") else v for k, v in probe.items()}

    result = {
        "raw_wall_s": sum(c["seconds"] for c in commands),
        "wall_s": sum(c["seconds"] * c["factor"] for c in commands),
        "peak_rss_mb": peak_rss_mb(),
        "commands": commands,
        "outputs": {
            str(p.relative_to(spec["outputs"])): _sha256(p.read_bytes())
            for p in sorted(Path(spec["outputs"]).rglob("*"))
            if p.is_file()
        },
    }
    if rec is not None:
        rec.write(spec["trace"]["spans"])
        result["run_id"] = rec.run_id
        result["counts"] = rec.counts
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
