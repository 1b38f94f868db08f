"""Seeded end-to-end benchmark of the egoforge CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload eval-dense --seed 1 --seconds 25 --trace 0

The load is a closed loop with one client. Each run of a workload is one
fresh interpreter (``worker.py``) that executes the workload's command
sequence through ``egoforge.cli.main``, each command starting when the
previous one returns. Runs repeat for ``--seconds`` and the medians are
reported. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced runs (for the ``cli.*`` command times) with traced
runs, whose spans give the per-layer metrics. Outputs are checked
outside the timed runs; the last line of stdout is one JSON object, and the
exit code is 0 only when every check passed.

End-to-end metrics:
- ``wall_s``: time of the whole command sequence of one run.
- ``records_per_s``: JSON records read plus written per second of ``wall_s``.
- ``peak_rss_mb``: peak resident memory of the run's interpreter.
- ``setup_s``: time of a fresh interpreter that imports ``egoforge.cli`` and
  runs its cheapest command, the fixed cost of every CLI call.
- ``success_rate``: commands that exited 0 and passed the output checks,
  over commands attempted. It is 1 - error_rate, reported this way round
  because gated metrics must never be 0; error_rate is printed above it.

Times are in reference seconds (see ``worker.py``). On a shared 2-vCPU VM
a vCPU's speed changed by up to 2x within seconds, which put the quartile
spread of raw wall times across ten seeds at 0.23-0.32; scaled by the
speed of a reference computation timed around each command it was
0.03-0.07. Raw seconds are printed next to them.

Which end-to-end metric each per-layer metric should move:
- ``cli.*``: one command's wall time each; they sum to ``wall_s``.
- ``fileio.load_s``, ``fileio.parse_s``, ``model.validate_s``,
  ``fileio.construct_s``: ``wall_s`` and ``records_per_s`` on synth-eval
  (most) and eval-dense; construction also ``peak_rss_mb``; little change
  on forecast-fuse.
- ``fileio.save_s``, ``fileio.features_s``: ``wall_s`` on synth-eval and
  forecast-fuse; no change on eval-dense, which writes nothing.
- ``metrics.*``: ``wall_s`` on eval-dense (most), a little on synth-eval,
  no change on forecast-fuse.
- ``fusion.*``, ``snippets.prefuse_s``, ``experiments.features_s``,
  ``heads.*``: ``wall_s`` on forecast-fuse only.
- ``synth.*``: ``wall_s`` on synth-eval, and on forecast-fuse, where
  ``train`` regenerates its dataset.
- ``render.reports_s``: ``wall_s`` on both eval workloads.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every interpreter started below:
# one BLAS thread (at most nproc on any machine) and egoforge's default of
# one evaluation worker.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("EGOFORGE_THREADS", None)

import argparse
import hashlib
import json
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 9
RUN_TIMEOUT_S = 60

COMMANDS = (
    "eval_mq", "eval_nlq", "eval_fhp", "eval_lta", "eval_sta", "eval_scod",
    "synth", "train_lta", "train_fhp", "vote", "fuse_pre", "fuse_post", "fuse_sta",
)  # fmt: skip

END_TO_END = {
    "wall_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}

TRACED = {
    "fileio.load_s": "s",
    "fileio.load_records": "count",
    "fileio.parse_s": "s",
    "model.validate_s": "s",
    "fileio.construct_s": "s",
    "fileio.save_s": "s",
    "fileio.save_records": "count",
    "fileio.save_mb": "MB",
    "fileio.features_s": "s",
    "metrics.ap_s": "s",
    "metrics.recall_s": "s",
    "metrics.edit_s": "s",
    "metrics.disp_s": "s",
    "metrics.ap_pred_thresholds": "count",
    "metrics.edit_pairs": "count",
    "fusion.vote_s": "s",
    "fusion.vote_clips": "count",
    "fusion.topk_s": "s",
    "fusion.temporal_nms_s": "s",
    "fusion.temporal_nms_keep_ratio": "ratio",
    "fusion.box_nms_s": "s",
    "fusion.box_nms_keep_ratio": "ratio",
    "snippets.prefuse_s": "s",
    "synth.generate_s": "s",
    "synth.perfect_s": "s",
    "experiments.features_s": "s",
    "heads.train_s": "s",
    "heads.examples": "count",
    "render.reports_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

PER_LAYER = {**{f"cli.{c}_s": "s" for c in COMMANDS}, **TRACED}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _median(values: list[float]) -> float | None:
    """Median, or None when no run gave a value; such metrics are left out
    of the result rather than reported as an impossible 0."""
    return statistics.median(values) if values else None


def environment(seed: int, inputs: Path) -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = [p for p in sorted(inputs.rglob("*")) if p.is_file() and p.parent == inputs]
    from workloads import file_records

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(PINNED_ENV["OPENBLAS_NUM_THREADS"]),
        "EGOFORGE_THREADS": "unset (1 worker)",
        "seed": seed,
        "input_records": sum(file_records(p) for p in files if p.suffix == ".json"),
        "input_bytes": sum(p.stat().st_size for p in files),
    }


def _run(argv: list[str], timeout: float, **kwargs) -> int:
    """Run a child to completion and return its exit code.

    Waits on a process file descriptor where the platform has one: with a
    timeout, ``subprocess`` polls with sleeps of up to 50 ms, which would
    round the measured times up to that grid. A child that outlives the
    timeout is killed and reported as exit code -9.
    """
    proc = subprocess.Popen(argv, env=_child_env(), **kwargs)
    try:
        if hasattr(os, "pidfd_open"):
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], timeout)
            finally:
                os.close(fd)
            if not ready:
                raise subprocess.TimeoutExpired(argv, timeout)
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        return -9
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.wait()


def measure_setup() -> tuple[list[float], list[float], int]:
    """Fresh interpreters that import the CLI and run its cheapest command.

    Returns their wall times in reference and in raw seconds, and how many
    failed; the first spawn only warms the bytecode cache.
    """
    from worker import reference_seconds, speed_factors

    code = "import sys\nfrom egoforge.cli import main\nsys.exit(main(['report']))"
    raw, refs, failed = [], [], 0
    for i in range(SETUP_SPAWNS + 1):
        if i:
            refs.append(reference_seconds())
        t0 = time.perf_counter()
        rc = _run([sys.executable, "-c", code], 60, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:
            raw.append(time.perf_counter() - t0)
            failed += rc != 0
    refs.append(reference_seconds())
    return [t * f for t, f in zip(raw, speed_factors(refs))], raw, failed


def _one_run(spec: dict, work: Path, run_id: str | None) -> dict:
    """One worker interpreter on an emptied output directory."""
    outputs = Path(spec["outputs"])
    shutil.rmtree(outputs, ignore_errors=True)
    outputs.mkdir(parents=True)
    run_spec = dict(spec, trace={"run_id": run_id, "spans": str(work / "spans.jsonl")} if run_id else None)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(run_spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    rc = _run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)], RUN_TIMEOUT_S)
    if rc == 0 and result_path.is_file():
        return json.loads(result_path.read_text(encoding="utf-8"))
    return {
        "wall_s": None,
        "commands": [{"name": c["name"], "rc": -1, "seconds": 0.0, "stdout": ""} for c in spec["commands"]],
        "outputs": {},
    }


def run_loop(spec: dict, work: Path, seconds: float, min_rounds: int, trace_tag: str | None) -> tuple[list[dict], list[dict]]:
    """Closed loop: one worker at a time until the time budget is used.

    Without ``trace_tag`` each round is one untraced run. With it, each
    round is one untraced and one traced run, the traced one second in
    even rounds and first in odd ones: a steady drift of the host's speed
    then enters the paired differences with alternating sign, and their
    median, ``trace.overhead_s``, keeps the tracer's own cost. Returns the
    untraced and the traced runs.
    """
    runs: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        i = len(runs)
        order = [None] if trace_tag is None else [None, f"{trace_tag}-{i}"][:: 1 if i % 2 == 0 else -1]
        for run_id in order:
            (traced if run_id else runs).append(_one_run(spec, work, run_id))
        # Stop before a round that would overrun the budget; a round slow
        # enough to leave fewer than min_rounds still stops at twice the budget.
        elapsed = time.perf_counter() - start
        if elapsed > 2 * seconds or (len(runs) >= min_rounds and elapsed * (len(runs) + 1) / len(runs) > seconds):
            return runs, traced


def traced_metrics(runs: list[dict], traced: list[dict], spans_path: Path) -> dict[str, float | None]:
    """Per-layer metrics of the traced runs, medians over runs.

    ``trace.overhead_s`` is the median, over rounds, of a traced run's wall
    time minus that of the untraced run of the same round. Where the tracer
    costs less than the run-to-run noise (forecast-fuse makes few traced
    calls) it can come out a little below 0.
    """
    import spans

    by_run = spans.read_spans(spans_path) if spans_path.is_file() else {}
    per_run = []
    for run in traced:
        if run["wall_s"] is None:
            continue
        factors = [c["factor"] for c in run["commands"]]
        m = spans.layer_metrics(by_run.get(run["run_id"], []), factors)
        counts = run["counts"]
        m.update({k: v for k, v in counts.items() if k in TRACED})
        for key in ("fileio.parse_s", "model.validate_s", "fileio.load_records", "fileio.save_records", "fileio.save_mb"):
            m[key] = sum(c["probe"][key] for c in run["commands"])
        m["fileio.construct_s"] = m["fileio.load_s"] - m["fileio.parse_s"] - m["model.validate_s"]
        for name in ("temporal_nms", "box_nms"):
            kept, total = counts.get(f"fusion.{name}.kept", 0), counts.get(f"fusion.{name}.in", 0)
            m[f"fusion.{name}_keep_ratio"] = kept / total if total else 0.0
        per_run.append(m)
    out = {name: _median([m.get(name, 0.0) for m in per_run]) for name in TRACED}
    out["trace.overhead_s"] = _median(
        [t["wall_s"] - u["wall_s"] for u, t in zip(runs, traced) if u["wall_s"] is not None and t["wall_s"] is not None]
    )
    return out


def digest(run: dict) -> str:
    h = hashlib.sha256()
    for cmd in run["commands"]:
        h.update(cmd["name"].encode() + b"\0" + cmd["stdout"].encode() + b"\0")
    for name, sha in sorted(run["outputs"].items()):
        h.update(f"{name}\0{sha}\0".encode())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a stop request into an exit, so the child being waited on is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "egoforge" / "cli.py").is_file():
        print(f"error: no egoforge sources under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import gate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every interpreter it starts, so the
        # reference timings describe the CPU the timed work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, outputs = work / "in", work / "out"
    inputs.mkdir(parents=True)
    commands = workloads.prepare(args.workload, inputs, outputs, args.seed)
    spec = {"src": str(SRC), "outputs": str(outputs), "commands": commands}
    env = environment(args.seed, inputs)

    setup, raw_setup, failed_setup = measure_setup()
    tag = f"{args.workload}-{args.seed}"
    runs, traced = run_loop(spec, work, args.seconds, 2, tag) if args.trace else run_loop(spec, work, args.seconds, 3, None)

    # Correctness gate, outside every timed run.
    attempted = len(setup) + len(commands) * (len(runs) + len(traced))
    failures = ["setup spawn"] * failed_setup + gate.stable_runs(runs + traced)
    if args.workload == "eval-dense":
        n, bad = gate.oracle_subsample(inputs / "sub")
        attempted += n
        failures += bad
    elif args.workload == "synth-eval":
        failures += gate.perfect_scores(runs[0]["commands"])
    else:
        failures += gate.forecast_outputs(inputs, outputs, runs[0]["commands"], args.seed)
    failed = min(len(failures), attempted)

    good = [r for r in runs if r["wall_s"] is not None]
    records = 0
    for cmd in commands:
        records += sum(workloads.file_records(p) for p in cmd["reads"] + cmd["writes"] if Path(p).is_file())
    end_to_end = {
        "wall_s": _median([r["wall_s"] for r in good]),
        "records_per_s": _median([records / r["wall_s"] for r in good]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
        "setup_s": _median(setup),
        "success_rate": 1.0 - failed / attempted,
    }

    print(f"workload {args.workload}: closed loop, 1 client, {len(commands)} commands per run")
    for key, value in env.items():
        print(f"  {key}: {value}")
    print(f"  records read + written per run: {records}")
    print(f"  output digest: {digest(runs[0])}")
    for name, values in (("wall_s", [r["wall_s"] for r in good]), ("raw wall_s", [r["raw_wall_s"] for r in good])):
        if values:
            print(f"  {name} over {len(values)} runs: min {min(values):.4f}, median {_median(values):.4f}, max {max(values):.4f}")
    print(f"  setup_s over {len(setup)} spawns: median {_median(setup):.4f} (raw {_median(raw_setup):.4f})")
    print(f"  error_rate: {failed / attempted:.4f} ({failed} of {attempted} commands failed)")
    if args.trace:
        names = {c["name"] for c in commands}
        metrics = {  # a command the workload does not run takes 0 s
            f"cli.{c}_s": _median([cmd["seconds"] * cmd["factor"] for r in good for cmd in r["commands"] if cmd["name"] == c])
            if c in names
            else 0.0
            for c in COMMANDS
        }
        metrics.update(traced_metrics(runs, traced, work / "spans.jsonl"))
        units = PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END
    metrics = {name: value for name, value in metrics.items() if value is not None}
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g} {units[name]}")
    for failure in failures:
        print(f"  check failed: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
