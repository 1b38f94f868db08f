"""Span recording, self times, and the correctness gate."""

import gen
import gate
import spans


def test_nested_spans_record_parents_and_self_times(tmp_path):
    rec = spans.SpanRecorder("r1")
    inner = rec.wrap("metrics.box_ap", lambda: sum(range(1000)))
    outer = rec.wrap(spans.ROOT, lambda: [inner(), inner()])
    outer()
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    got = spans.read_spans(path)["r1"]
    assert [(s["name"], s["parent"]) for s in got] == [(spans.ROOT, -1), ("metrics.box_ap", 0), ("metrics.box_ap", 0)]
    own = spans.self_times(got)
    root = got[0]
    assert abs(own[0] + own[1] + own[2] - (root["end"] - root["start"])) < 1e-12


def test_layer_metrics_from_hand_made_spans():
    run = [
        {"id": 0, "name": spans.ROOT, "start": 0.0, "end": 10.0, "parent": -1},
        {"id": 1, "name": "fileio.load", "start": 0.5, "end": 3.0, "parent": 0},
        {"id": 2, "name": "metrics.average_map", "start": 3.0, "end": 9.0, "parent": 0},
        {"id": 3, "name": "metrics.recall_at_k", "start": 4.0, "end": 5.0, "parent": 2},
        {"id": 4, "name": spans.ROOT, "start": 10.0, "end": 16.0, "parent": -1},
        {"id": 5, "name": "fileio.load", "start": 10.0, "end": 11.0, "parent": 4},
    ]
    # The second command ran at half the reference speed.
    m = spans.layer_metrics(run, [1.0, 0.5])
    assert m["fileio.load_s"] == 2.5 + 0.5
    assert m["metrics.ap_s"] == 5.0
    assert m["metrics.recall_s"] == 1.0
    assert m["trace.coverage"] == (2.5 + 6.0 + 1.0) / 16.0
    assert m["fusion.vote_s"] == 0.0


def test_instrumented_cli_records_every_layer_it_crosses(tmp_path):
    from egoforge import cli, experiments, fileio

    # instrument() patches module attributes; put them back for later tests.
    saved = [(m, name, getattr(m, name)) for m in (cli, experiments, fileio) for name in dir(m) if not name.startswith("_")]
    gen.write_eval_inputs(tmp_path, 2, 4, noise=0.5)
    rec = spans.SpanRecorder("r")
    try:
        main = spans.instrument(rec)
        argv = ["eval", "mq", "--gt", str(tmp_path / "gt_mq.json"), "--pred", str(tmp_path / "pred_mq.json")]
        assert main(argv) == 0
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
    names = [s[0] for s in rec.spans]
    assert names[0] == spans.ROOT
    assert set(names) == {spans.ROOT, "fileio.load", "metrics.recall_at_kx", "metrics.average_map", "render.render_reports"}
    assert [loader for loader, _ in rec.loaded] == ["load_mq_gt", "load_mq_pred"]
    assert rec.counts["metrics.ap_pred_thresholds"] > 0


def test_gate_accepts_the_program_and_rejects_a_wrong_report(tmp_path):
    gen.write_eval_inputs(tmp_path, 3, 8, noise=0.5, subsample=4)
    assert gate.oracle_subsample(tmp_path / "sub") == (6, [])
    perfect = '{"reports": [{"name": "mAP", "value": 1.0}]}'
    assert gate.perfect_scores([{"name": "eval_mq", "stdout": perfect}]) == []
    off = perfect.replace("1.0", "0.99")
    assert gate.perfect_scores([{"name": "eval_mq", "stdout": off}]) == ["eval_mq"]
    runs = [{"commands": [{"name": "eval_mq", "rc": 0, "stdout": perfect}], "outputs": {"a": "1"}}] * 2
    assert gate.stable_runs(runs) == []
    changed = runs + [{"commands": [{"name": "eval_mq", "rc": 0, "stdout": off}], "outputs": {"a": "2"}}]
    assert gate.stable_runs(changed) == ["eval_mq", "outputs"]


def test_speed_factors_scale_to_reference_seconds():
    import worker

    ref = worker.REF_SECONDS
    # The CPU ran at half speed during the second interval only.
    assert worker.speed_factors([ref, ref, 2 * ref, 2 * ref]) == [1.0, ref / (1.5 * ref), 0.5]


def test_run_refuses_a_directory_without_sources(tmp_path):
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    bench = Path(__file__).resolve().parent.parent
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "eval-dense", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
