"""End-to-end command-line checks: round trips in temp dirs and exit codes."""

import contextlib
import csv
import errno
import hashlib
import importlib.util
import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from egoforge import cli, experiments, fileio, fusion, heads, model, snippets
from egoforge.cli import parse_thresholds
from egoforge.model import FeatureMatrix, ScoreMatrix
from egoforge.synth import generate_synthetic, perfect_predictions

# Every record type but VideoMeta, which synth builds once per video.
RECORDS = (
    model.TemporalSegment,
    model.MomentInstance,
    model.NlqInstance,
    model.RankedSegment,
    model.ActionLabel,
    model.ScoreMatrix,
    model.LtaForecast,
    model.HandPoint,
    model.HandKeyframes,
    model.BoundingBox,
    model.StaInstance,
    model.Detection,
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert cli.main(["synth", "--out", str(out), "--seed", "7", "--num-videos", "4"]) == 0
    return out


class TestParseThresholds:
    def test_comma_list(self):
        assert parse_thresholds("0.1,0.2,0.5") == (0.1, 0.2, 0.5)

    def test_single_value(self):
        assert parse_thresholds("0.5") == (0.5,)

    def test_inclusive_range(self):
        assert parse_thresholds("0.1:0.5:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5)

    def test_coco_style_range(self):
        grid = parse_thresholds("0.5:0.95:0.05")
        assert len(grid) == 10
        assert grid[0] == 0.5
        assert grid[-1] == 0.95

    def test_bad_step(self):
        with pytest.raises(ValueError):
            parse_thresholds("0.1:0.5:0")

    def test_empty(self):
        with pytest.raises(ValueError):
            parse_thresholds(",")

    def test_malformed_range(self):
        with pytest.raises(ValueError):
            parse_thresholds("0.1:0.5")

    @staticmethod
    def _accumulated(text):
        """The former range parser, which added the step to a running float."""
        start, stop, step = (float(p) for p in text.split(":"))
        values, t = [], start
        while t <= stop + 1e-9:
            values.append(round(t, 10))
            t += step
        return tuple(values)

    def test_ranges_match_the_accumulated_grid(self):
        texts = ["0.1:0.5:0.1", "0.5:0.95:0.05", "0.1:0.7:0.2", "0.05:0.95:0.05", "0:1:0.01"]
        steps = ("0.01", "0.025", "0.05", "0.1", "0.15", "0.2", "0.25", "0.5")
        texts += [f"{a / 20:g}:{b / 20:g}:{step}" for a in range(21) for b in range(a, 21) for step in steps]
        for text in texts:
            assert parse_thresholds(text) == self._accumulated(text), text

    @pytest.mark.parametrize("text", ["0:inf:0.1", "-inf:1:0.1", "0:1:inf", "nan:1:0.1", "0:nan:0.1", "0:1:nan"])
    def test_non_finite_range_is_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_thresholds(text)

    def test_reversed_range_is_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_thresholds("0.5:0.1:0.1")

    def test_range_with_too_many_values_is_rejected(self):
        with pytest.raises(ValueError, match="more than"):
            parse_thresholds("0:1:1e-12")

    def test_a_list_at_the_cap_is_kept(self):
        assert parse_thresholds(",".join(["0.5"] * cli.MAX_THRESHOLDS)) == (0.5,) * cli.MAX_THRESHOLDS

    def test_a_list_past_the_cap_is_refused_with_its_count(self):
        with pytest.raises(ValueError) as info:
            parse_thresholds(",".join(["0.5"] * (cli.MAX_THRESHOLDS + 1)))
        assert str(info.value) == f"threshold list holds {cli.MAX_THRESHOLDS + 1} values, more than {cli.MAX_THRESHOLDS}"

    @pytest.mark.parametrize("track, option", [("scod", "--iou"), ("mq", "--tiou")])
    def test_a_list_past_the_cap_exits_2_before_any_file(self, tmp_path, capsys, track, option):
        # The files do not exist, so reading one would give another line.
        argv = ["eval", track, "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")]
        assert cli.main([*argv, option, ",".join(["0.5"] * 10_001)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: threshold list holds 10001 values, more than 10000"]

    def test_infinite_range_exits_2_with_one_line(self, dataset_dir, capsys):
        gt, pred = dataset_dir / "gt_mq.json", dataset_dir / "pred_mq.json"
        rc = cli.main(["eval", "mq", "--gt", str(gt), "--pred", str(pred), "--tiou", "0:inf:0.1"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: range start, stop and step must be finite, got '0:inf:0.1'"
        ]


class TestParserCache:
    def test_a_usage_error_leaves_the_parser_as_built(self, capsys):
        # The parser is built once per process; a usage error part way
        # through a subcommand must not change how later calls parse.
        good = ["schedule", "--num-frames", "100"]
        bad = ["eval", "mq", "--gt", "gt.json"]
        fresh = []
        for argv in (good, bad, good):
            cli._build_parser.cache_clear()
            fresh.append((cli.main(argv), capsys.readouterr()))
        cli._build_parser.cache_clear()
        cached = [(cli.main(argv), capsys.readouterr()) for argv in (good, bad, good)]
        assert [rc for rc, _ in cached] == [0, 1, 0]
        assert cached == fresh
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestSchedule:
    def test_exact_fit(self, capsys):
        assert cli.main(["schedule", "--num-frames", "48"]) == 0
        out = capsys.readouterr().out
        assert "snippet 0: frames [0, 32)" in out
        assert "snippet 2: frames [16, 48)" in out
        assert "3 snippets" in out
        assert "(padded)" not in out

    def test_padded_tail_is_marked(self, capsys):
        assert cli.main(["schedule", "--num-frames", "50"]) == 0
        out = capsys.readouterr().out
        assert "(padded)" in out

    def test_stride_beyond_length_is_a_data_error(self, capsys):
        assert cli.main(["schedule", "--num-frames", "48", "--stride", "40"]) == 2
        assert "error" in capsys.readouterr().err

    def test_a_schedule_past_the_cap_exits_2_with_one_line(self, capsys):
        # Counted before any snippet is laid out, so this returns at once.
        cap = snippets.MAX_SNIPPETS
        assert cli.main(["schedule", "--num-frames", str(10**20)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {10**20} frames make 12499999999999999997 snippets, more than {cap}"]


class TestSynth:
    def test_writes_all_files(self, dataset_dir):
        names = sorted(p.name for p in dataset_dir.iterdir())
        assert names == [
            "config.json",
            "gt_fhp.json",
            "gt_lta.json",
            "gt_mq.json",
            "gt_nlq.json",
            "gt_scod.json",
            "gt_sta.json",
            "pred_fhp.json",
            "pred_lta.json",
            "pred_mq.json",
            "pred_nlq.json",
            "pred_scod.json",
            "pred_sta.json",
        ]


    def test_loaders_give_the_datasets_typed_mappings(self, dataset_dir):
        ds = generate_synthetic(fileio.load_config(dataset_dir / "config.json"))
        preds = perfect_predictions(ds)
        path = {name: dataset_dir / f"{name}.json" for name in ("gt_mq", "pred_mq", "gt_nlq", "pred_nlq", "gt_fhp", "pred_fhp")}
        assert fileio.load_mq_gt(path["gt_mq"]).instances == ds.mq_gt
        assert fileio.load_mq_pred(path["pred_mq"]) == preds["mq"]
        nlq = fileio.load_nlq_gt(path["gt_nlq"])
        assert nlq.queries == {q.query_id: q for qs in ds.nlq_gt.values() for q in qs}
        assert nlq.video_of == {q.query_id: vid for vid, qs in ds.nlq_gt.items() for q in qs}
        assert fileio.load_nlq_pred(path["pred_nlq"]) == preds["nlq"]
        assert fileio.load_fhp_gt(path["gt_fhp"]).instances == ds.fhp_gt
        assert fileio.load_fhp_pred(path["pred_fhp"]) == preds["fhp"]
        assert fileio.load_lta_gt(dataset_dir / "gt_lta.json").sequences == ds.lta_gt
        assert fileio.load_lta_pred(dataset_dir / "pred_lta.json") == preds["lta"]
        for track, images in (("sta", ds.sta_images), ("scod", ds.scod_images)):
            for kind, truth in (("gt", getattr(ds, f"{track}_gt")), ("pred", preds[track])):
                loaded = getattr(fileio, f"load_{track}_{kind}")(dataset_dir / f"{kind}_{track}.json")
                assert loaded.images == images and loaded.instances == truth

    def test_builds_no_record(self, tmp_path, monkeypatch):
        # synth writes every file from its columns: no record constructor
        # runs, and no typed view builds a record.
        built = []
        for cls in RECORDS:
            monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(type(self).__name__))
        validated = model._validated
        monkeypatch.setattr(model, "_validated", lambda cls, /, **fields: (built.append(cls.__name__), validated(cls, **fields))[1])
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--out", str(tmp_path), "--seed", "11", "--num-videos", "12"]) == 0
        assert built == []
        assert len(list(tmp_path.iterdir())) == 13

    def test_traced_synth_keeps_its_spans(self, tmp_path, monkeypatch):
        # perfbench's span recorder patches the names synth calls; a
        # renamed entry point would lose its span here.
        spec = importlib.util.spec_from_file_location("bench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for module in (cli, experiments, fileio):  # restored after the test
            for attr in dir(module):
                if callable(getattr(module, attr)) and not attr.startswith("__"):
                    monkeypatch.setattr(module, attr, getattr(module, attr))
        rec = spans.SpanRecorder("synth")
        main = spans.instrument(rec)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(tmp_path), "--seed", "11", "--num-videos", "12"]) == 0
        names = [span[0] for span in rec.spans]
        written = sorted(p.name for p in tmp_path.iterdir())
        assert "synth.generate_synthetic" in names and "synth.perfect_predictions" in names
        assert names.count("fileio.save") == len(written) == 13
        assert sorted(Path(p).name for p in rec.saved) == written


class TestEval:
    def test_mq_perfect(self, dataset_dir, capsys):
        rc = cli.main(
            ["eval", "mq", "--gt", str(dataset_dir / "gt_mq.json"), "--pred", str(dataset_dir / "pred_mq.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Recall@1x tIoU=0.5: 100.00" in out
        assert "mAP: 100.00" in out

    def test_nlq_perfect(self, dataset_dir, capsys):
        rc = cli.main(
            ["eval", "nlq", "--gt", str(dataset_dir / "gt_nlq.json"), "--pred", str(dataset_dir / "pred_nlq.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("R5@0.3", "R5@0.5", "R1@0.3", "R1@0.5"):
            assert f"{name}: 100.00" in out

    @pytest.mark.parametrize("track", ["mq", "nlq"])
    def test_a_recall_grid_past_the_cap_is_refused_before_any_file(self, tmp_path, capsys, track):
        # 200 k values by 101 thresholds; the files do not exist, so reading
        # one would give another line.
        ks = ",".join(["1"] * 200)
        argv = ["eval", track, "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")]
        assert cli.main([*argv, "--recall-k", ks, "--recall-tiou", "0:1:0.01", "--out", str(tmp_path / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "r.json").exists()
        assert captured.err.splitlines() == [f"error: 200 recall k values by 101 tIoU thresholds make more than {cli.MAX_THRESHOLDS} reports"]

    @pytest.mark.parametrize("track", ["mq", "nlq"])
    def test_a_recall_grid_at_the_cap_is_scored(self, dataset_dir, capsys, monkeypatch, track):
        monkeypatch.setattr(cli, "MAX_THRESHOLDS", 4)
        argv = ["eval", track, "--gt", str(dataset_dir / f"gt_{track}.json"), "--pred", str(dataset_dir / f"pred_{track}.json")]
        assert cli.main([*argv, "--recall-k", "1,2", "--recall-tiou", "0.3,0.5"]) == 0
        recall = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("R")]
        assert recall == [f"Recall@{k}x tIoU={t}" if track == "mq" else f"R{k}@{t}" for k in (1, 2) for t in ("0.3", "0.5")]
        assert cli.main([*argv, "--recall-k", "1,2,3", "--recall-tiou", "0.3,0.5"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: 3 recall k values by 2 tIoU thresholds make more than 4 reports"]

    def test_a_recall_k_list_without_values_is_one_line(self, dataset_dir, capsys):
        argv = ["eval", "nlq", "--gt", str(dataset_dir / "gt_nlq.json"), "--pred", str(dataset_dir / "pred_nlq.json")]
        assert cli.main([*argv, "--recall-k", ","]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: no values in ','"]

    def test_fhp_perfect(self, dataset_dir, capsys):
        rc = cli.main(
            ["eval", "fhp", "--gt", str(dataset_dir / "gt_fhp.json"), "--pred", str(dataset_dir / "pred_fhp.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "L-M.Disp: 0.00" in out
        assert "R-C.Disp: 0.00" in out

    def test_lta_perfect(self, dataset_dir, capsys):
        rc = cli.main(
            ["eval", "lta", "--gt", str(dataset_dir / "gt_lta.json"), "--pred", str(dataset_dir / "pred_lta.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("Verb", "Noun", "Action"):
            assert f"{name}: 0.000" in out

    def test_sta_perfect(self, dataset_dir, capsys):
        rc = cli.main(
            ["eval", "sta", "--gt", str(dataset_dir / "gt_sta.json"), "--pred", str(dataset_dir / "pred_sta.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("Noun", "Noun+Verb", "Noun+TTC", "Overall"):
            assert f"{name}: 100.00" in out

    def test_scod_perfect(self, dataset_dir, capsys):
        rc = cli.main(
            ["eval", "scod", "--gt", str(dataset_dir / "gt_scod.json"), "--pred", str(dataset_dir / "pred_scod.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "AP: 100.00" in out
        assert "AP50: 100.00" in out
        assert "AP75: 100.00" in out

    @pytest.mark.parametrize("track, measure", [("mq", "recall"), ("lta", "edit distance"), ("sta", "AP"), ("scod", "AP")])
    def test_ground_truth_without_instances_is_one_line(self, dataset_dir, tmp_path, capsys, track, measure):
        gt = json.loads((dataset_dir / f"gt_{track}.json").read_text(encoding="utf-8"))
        gt["instances"] = []
        path = tmp_path / f"gt_{track}.json"
        path.write_text(json.dumps(gt), encoding="utf-8")
        assert cli.main(["eval", track, "--gt", str(path), "--pred", str(dataset_dir / f"pred_{track}.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {measure} is undefined with no ground-truth instances"]

    def test_report_file_round_trips(self, dataset_dir, tmp_path, capsys):
        out_file = tmp_path / "mq_report.json"
        rc = cli.main(
            [
                "eval",
                "mq",
                "--gt",
                str(dataset_dir / "gt_mq.json"),
                "--pred",
                str(dataset_dir / "pred_mq.json"),
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        reports = fileio.load_reports(out_file)
        names = [r.name for r in reports]
        assert "mAP" in names
        assert all(r.value == 1.0 for r in reports)

    def test_csv_format_parses(self, dataset_dir, capsys):
        rc = cli.main(
            [
                "eval",
                "sta",
                "--gt",
                str(dataset_dir / "gt_sta.json"),
                "--pred",
                str(dataset_dir / "pred_sta.json"),
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["name", "metric", "value", "count"]
        row = [r for r in rows if r[0] == "Noun+Verb"][0]
        assert row[1:3] == ["overall", "100.00"]

    def test_json_format_parses(self, dataset_dir, capsys):
        rc = cli.main(
            [
                "eval",
                "lta",
                "--gt",
                str(dataset_dir / "gt_lta.json"),
                "--pred",
                str(dataset_dir / "pred_lta.json"),
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "report/1"
        assert [r["name"] for r in payload["reports"]] == ["Verb", "Noun", "Action"]

    def test_custom_tiou_grid(self, dataset_dir, capsys):
        rc = cli.main(
            [
                "eval",
                "mq",
                "--gt",
                str(dataset_dir / "gt_mq.json"),
                "--pred",
                str(dataset_dir / "pred_mq.json"),
                "--tiou",
                "0.5,0.75",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        map_report = [r for r in payload["reports"] if r["name"] == "mAP"][0]
        assert set(map_report["breakdown"]) == {"mAP@0.50", "mAP@0.75"}


class TestFuse:
    def test_pre_concatenates_channels(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = FeatureMatrix(dim=3, rows=rng.normal(size=(4, 3)).astype(np.float32), provenance="verb")
        b = FeatureMatrix(dim=5, rows=rng.normal(size=(4, 5)).astype(np.float32), provenance="noun")
        fileio.save_features(tmp_path / "a.bin", a)
        fileio.save_features(tmp_path / "b.bin", b)
        rc = cli.main(
            [
                "fuse",
                "pre",
                "--features",
                str(tmp_path / "a.bin"),
                str(tmp_path / "b.bin"),
                "--out",
                str(tmp_path / "ab.bin"),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        fused = fileio.load_features(tmp_path / "ab.bin")
        assert fused.dim == 8
        assert fused.num_rows == 4
        np.testing.assert_array_equal(fused.rows[:, :3], a.rows)
        np.testing.assert_array_equal(fused.rows[:, 3:], b.rows)

    def test_pre_with_a_directory_for_features_is_one_line(self, tmp_path, capsys):
        fileio.save_features(tmp_path / "b.bin", FeatureMatrix(dim=2, rows=np.ones((3, 2)), provenance="noun"))
        argv = ["fuse", "pre", "--features", str(tmp_path), str(tmp_path / "b.bin"), "--out", str(tmp_path / "ab.bin")]
        assert cli.main(argv) == 2
        refused = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp_path))
        assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path}: {refused}"]
        assert not (tmp_path / "ab.bin").exists()

    def test_pre_from_a_pipe_is_one_line(self, tmp_path, capsys):
        # A pipe can be read only once, so the framing check's seek to its
        # end is refused.
        read, write = os.pipe()
        try:
            os.write(write, fileio.FEATURE_MAGIC + bytes(60))
            os.close(write)
            pipe = f"/dev/fd/{read}"
            assert cli.main(["fuse", "pre", "--features", pipe, pipe, "--out", str(tmp_path / "ab.bin")]) == 2
        finally:
            os.close(read)
        assert capsys.readouterr().err.splitlines() == [f"error: {pipe}: File or stream is not seekable."]
        assert not (tmp_path / "ab.bin").exists()

    def test_pre_output_bytes_pinned(self, tmp_path, capsys):
        # float32 rounding of float64 draws and the flat layout are the
        # same on every machine, so the fused file's digest is pinned.
        rng = np.random.default_rng(2024)
        a = FeatureMatrix(dim=24, rows=rng.standard_normal((50, 24)), provenance="verb")
        b = FeatureMatrix(dim=40, rows=rng.standard_normal((50, 40)), provenance="noun")
        fileio.save_features(tmp_path / "a.bin", a)
        fileio.save_features(tmp_path / "b.bin", b)
        argv = ["fuse", "pre", "--features", str(tmp_path / "a.bin"), str(tmp_path / "b.bin"), "--out", str(tmp_path / "ab.bin")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        digest = hashlib.sha256((tmp_path / "ab.bin").read_bytes()).hexdigest()
        assert digest == "0bc2c1348384f863942b9f4c45959042105ff637e239aa6e53a120798303eb08"

    def test_pre_rejects_row_mismatch(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = FeatureMatrix(dim=3, rows=rng.normal(size=(4, 3)).astype(np.float32), provenance="verb")
        b = FeatureMatrix(dim=3, rows=rng.normal(size=(5, 3)).astype(np.float32), provenance="noun")
        fileio.save_features(tmp_path / "a.bin", a)
        fileio.save_features(tmp_path / "b.bin", b)
        rc = cli.main(
            [
                "fuse",
                "pre",
                "--features",
                str(tmp_path / "a.bin"),
                str(tmp_path / "b.bin"),
                "--out",
                str(tmp_path / "ab.bin"),
            ]
        )
        assert rc == 2
        assert "mismatch" in capsys.readouterr().err

    def test_pre_refuses_a_width_past_the_header(self, tmp_path, capsys):
        # Two valid files whose fused width does not fit the header's uint32.
        for name in ("a.bin", "b.bin"):
            (tmp_path / name).write_bytes(b"EGFT" + (1).to_bytes(4, "little") + (2**32 - 1).to_bytes(4, "little") + bytes(8))
        argv = ["fuse", "pre", "--features", str(tmp_path / "a.bin"), str(tmp_path / "b.bin"), "--out", str(tmp_path / "ab.bin")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: a feature file holds at most {2**32 - 1} values per row, got {2**33 - 2}"]
        assert not (tmp_path / "ab.bin").exists()

    @pytest.mark.parametrize(
        "change",
        [
            lambda b: b[:-4],
            lambda b: b + bytes(4),
            lambda b: b[:-4] + np.float32(np.nan).tobytes(),
            lambda b: b[:8] + (2).to_bytes(4, "little") + b[12:],
        ],
        ids=["truncated", "extended", "not-finite", "header"],
    )
    @pytest.mark.parametrize("changed", [0, 1])
    def test_pre_an_input_changed_between_passes_leaves_no_output(self, tmp_path, capsys, monkeypatch, change, changed):
        rng = np.random.default_rng(3)
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path, dim in zip(paths, (3, 5)):
            fileio.save_features(path, FeatureMatrix(dim=dim, rows=rng.normal(size=(4, dim)), provenance="verb"))
        check = fileio._check_feature_file

        def check_then_change(path):
            checked = check(path)
            if path == str(paths[1]):  # both inputs have passed the checks
                paths[changed].write_bytes(change(paths[changed].read_bytes()))
            return checked

        monkeypatch.setattr(fileio, "_check_feature_file", check_then_change)
        (tmp_path / "ab.bin").write_bytes(b"an earlier output")
        argv = ["fuse", "pre", "--features", *map(str, paths), "--out", str(tmp_path / "ab.bin")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {paths[changed]}: feature file changed while being fused"]
        assert not (tmp_path / "ab.bin").exists()

    def test_pre_holds_blocks_not_files(self, tmp_path, capsys):
        # Two 8 MiB inputs: fusing them whole held both and the fused copy,
        # about 33 MiB; in blocks it holds a few MiB.
        rng = np.random.default_rng(4)
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path, dim in zip(paths, (32, 40)):
            fileio.save_features(path, FeatureMatrix(dim=dim, rows=rng.standard_normal((2**16, dim), dtype=np.float32), provenance="verb"))
        assert all(path.stat().st_size >= 8 * 2**20 for path in paths)
        argv = ["fuse", "pre", "--features", *map(str, paths), "--out", str(tmp_path / "ab.bin")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 8 * 2**20
        assert (tmp_path / "ab.bin").stat().st_size == 20 + sum(path.stat().st_size - 20 for path in paths)

    def test_post_merges_and_still_scores(self, dataset_dir, tmp_path, capsys):
        merged = tmp_path / "merged_nlq.json"
        pred = str(dataset_dir / "pred_nlq.json")
        assert cli.main(["fuse", "post", "--pred", pred, pred, "--out", str(merged)]) == 0
        rc = cli.main(["eval", "nlq", "--gt", str(dataset_dir / "gt_nlq.json"), "--pred", str(merged)])
        assert rc == 0
        assert "R1@0.5: 100.00" in capsys.readouterr().out

    def test_sta_splice_and_still_scores(self, dataset_dir, tmp_path, capsys):
        fused = tmp_path / "fused_sta.json"
        pred = str(dataset_dir / "pred_sta.json")
        assert cli.main(["fuse", "sta", "--pred", pred, pred, "--out", str(fused)]) == 0
        rc = cli.main(["eval", "sta", "--gt", str(dataset_dir / "gt_sta.json"), "--pred", str(fused)])
        assert rc == 0
        assert "Overall: 100.00" in capsys.readouterr().out

    def test_sta_files_that_disagree_on_an_image_size_are_refused(self, dataset_dir, tmp_path, capsys):
        pred = dataset_dir / "pred_sta.json"
        tree = json.loads(pred.read_text(encoding="utf-8"))
        tree["images"][0]["width"] += 1
        other = tmp_path / "other_sta.json"
        other.write_text(json.dumps(tree), encoding="utf-8")
        fused = tmp_path / "fused_sta.json"
        assert cli.main(["fuse", "sta", "--pred", str(pred), str(other), "--out", str(fused)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: keyframe {tree['images'][0]['keyframe_id']}: files disagree on image size"]
        assert not fused.exists()

    @pytest.mark.parametrize("mode", ["post", "sta"])
    def test_integer_valued_reals_fuse_to_the_same_bytes(self, tmp_path, capsys, mode):
        # Loaders turn integer reals into floats, as the constructors do, so
        # "start_s": 3 and "start_s": 3.0 give byte-identical outputs.
        def files(real):
            if mode == "post":
                rows = [(0, 4, 1), (1, 5, 0), (10, 12, 2)]
                trees = [
                    {
                        "schema": "nlq-pred/1",
                        "instances": [
                            {"query_id": f"q{m}", "start_s": real(a + m), "end_s": real(b + m), "score": real(s)}
                            for m in range(2)
                            for a, b, s in rows
                        ],
                    }
                    for _ in range(2)
                ]
            else:
                boxes = [(0, 0, 10, 10, 1), (1, 1, 11, 11, 0), (20, 20, 30, 40, 2)]
                trees = [
                    {
                        "schema": "sta-pred/1",
                        "images": [{"keyframe_id": "k", "width": 64, "height": 48}],
                        "instances": [
                            {
                                "keyframe_id": "k",
                                "box": [real(x1), real(y1), real(x2 + m), real(y2)],
                                "noun": 1,
                                "verb": 2,
                                "ttc_s": real(1 + m),
                                "score": real(s),
                            }
                            for x1, y1, x2, y2, s in boxes
                        ],
                    }
                    for m in range(2)
                ]
            paths = []
            for m, tree in enumerate(trees):
                path = tmp_path / f"{real.__name__}_{m}.json"
                path.write_text(json.dumps(tree), encoding="utf-8")
                paths.append(str(path))
            return paths

        outputs = []
        for real in (int, float):
            out = tmp_path / f"fused_{real.__name__}.json"
            assert cli.main(["fuse", mode, "--pred", *files(real), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        assert b'"score": 2.0' in outputs[0]


class TestVote:
    def test_vote_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(5)

        def matrix():
            verb = rng.random((3, 4)) + 0.05
            noun = rng.random((3, 6)) + 0.05
            return ScoreMatrix(verb=verb / verb.sum(1, keepdims=True), noun=noun / noun.sum(1, keepdims=True))

        probs = {("va", 1): [matrix() for _ in range(3)], ("vb", 2): [matrix() for _ in range(4)]}
        clip_file = tmp_path / "clips.json"
        fileio.save_lta_clip_probs(clip_file, probs)
        out_file = tmp_path / "voted.json"
        rc = cli.main(["vote", "--pred", str(clip_file), "--out", str(out_file), "--k", "4"])
        assert rc == 0
        assert "fused 2 episodes" in capsys.readouterr().out
        voted = fileio.load_lta_pred(out_file)
        assert set(voted) == {("va", 1), ("vb", 2)}
        for forecast in voted.values():
            assert len(forecast.candidates) == 4
            assert all(len(seq) == 3 for seq in forecast.candidates)

    def test_rule_option_is_gone(self, tmp_path, capsys):
        m = ScoreMatrix(verb=[[0.5, 0.5]], noun=[[1.0]])
        clip_file = tmp_path / "clips.json"
        fileio.save_lta_clip_probs(clip_file, {("v", 0): [m, m]})
        out = tmp_path / "voted.json"
        rc = cli.main(["vote", "--pred", str(clip_file), "--out", str(out), "--rule", "majority"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("usage error: ")

    def test_clips_of_different_shapes_name_the_file_episode_and_shapes(self, tmp_path, capsys):
        small = ScoreMatrix(verb=[[0.5, 0.5]], noun=[[1.0]])
        wide = ScoreMatrix(verb=[[0.25, 0.25, 0.5]], noun=[[1.0]])
        clips = tmp_path / "clips.json"
        fileio.save_lta_clip_probs(clips, {("v", 0): [small], ("w", 3): [small, small, wide]})
        assert cli.main(["vote", "--pred", str(clips), "--out", str(tmp_path / "voted.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {clips}: instances[3]: the verb matrix of ('w', 3) is (1, 3), an earlier clip's is (1, 2)"
        ]
        assert not (tmp_path / "voted.json").exists()

    def test_a_mean_row_rounded_past_the_tolerance_is_refused(self, tmp_path, capsys):
        # Each clip's row sums to 1 within 1e-6 by sum(), as the walk checks;
        # their mean's sum is 1 + 1.0000000001e-06, which the walk would refuse
        # in the file vote writes.
        rows = [
            [0.7054304729814341, 0.29457052701856584],
            [0.4383942988737047, 0.5616067011262953],
            [0.6428647276824782, 0.3571362723175218],
        ]
        clips = tmp_path / "clips.json"
        instances = [
            {"video_id": "v", "clip_index": 0, "clip": c, "score_matrix": {"verb": [row], "noun": [[1.0]]}}
            for c, row in enumerate(rows)
        ]
        clips.write_text(json.dumps({"schema": "lta-pred/1", "instances": instances}), encoding="utf-8")
        assert all(abs(sum(row) - 1.0) <= 1e-6 for row in rows)
        assert cli.main(["vote", "--pred", str(clips), "--out", str(tmp_path / "voted.json")]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: verb rows must sum to 1 within 1e-6"]
        assert not (tmp_path / "voted.json").exists()


class TestFusionOptions:
    """A bad threshold or candidate count is refused before any data is
    read, so an input without records cannot hide it."""

    @staticmethod
    def _refused(tmp_path, capsys, tree, argv, message):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(tree), encoding="utf-8")
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--pred", str(empty), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_nms_iou(self, tmp_path, capsys):
        tree = {"schema": "sta-pred/1", "images": [], "instances": []}
        self._refused(tmp_path, capsys, tree, ["fuse", "sta", "--nms-iou", "0"], "box_nms_iou must be in (0, 1], got 0.0")

    def test_tiou(self, tmp_path, capsys):
        tree = {"schema": "nlq-pred/1", "instances": []}
        self._refused(tmp_path, capsys, tree, ["fuse", "post", "--tiou", "nan"], "temporal_nms_tiou must be in (0, 1], got nan")

    def test_k(self, tmp_path, capsys):
        tree = {"schema": "lta-pred/1", "instances": []}
        self._refused(tmp_path, capsys, tree, ["vote", "--k", "0"], "top_k must be an int >= 1, got 0")

    def test_k_past_the_cap(self, tmp_path, capsys):
        # The search is linear in k: a count past the cap is refused before --pred is read.
        out = tmp_path / "out.json"
        assert cli.main(["vote", "--k", "100000000", "--pred", str(tmp_path / "missing.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: top_k must be at most {fusion.MAX_TOP_K}, got 100000000"]
        assert not out.exists()

    def test_k_at_the_cap_votes(self, tmp_path, capsys):
        clips = tmp_path / "clips.json"
        rows = {"verb": [[0.5, 0.5]] * 3, "noun": [[0.25] * 4] * 3}
        instances = [{"video_id": "v", "clip_index": 0, "clip": c, "score_matrix": rows} for c in range(2)]
        clips.write_text(json.dumps({"schema": "lta-pred/1", "instances": instances}), encoding="utf-8")
        out = tmp_path / "out.json"
        assert cli.main(["vote", "--k", str(fusion.MAX_TOP_K), "--pred", str(clips), "--out", str(out)]) == 0
        capsys.readouterr()
        # 8**3 = 512 sequences exist, fewer than the cap, and all are kept.
        assert len(fileio.load_lta_pred(out).columns[("v", 0)].candidates) == 512

    @pytest.mark.parametrize(
        "argv, tree",
        [
            (["fuse", "sta"], {"schema": "sta-pred/1", "images": [], "instances": []}),
            (["fuse", "post"], {"schema": "nlq-pred/1", "instances": []}),
            (["vote"], {"schema": "lta-pred/1", "instances": []}),
        ],
    )
    def test_an_input_without_records_still_fuses(self, tmp_path, capsys, argv, tree):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(tree), encoding="utf-8")
        assert cli.main([*argv, "--pred", str(empty), "--out", str(tmp_path / "out.json")]) == 0
        capsys.readouterr()
        fused = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        assert fused["instances"] == [] and fused["schema"] == tree["schema"]


class TestTrain:
    def test_train_fhp_writes_head(self, dataset_dir, tmp_path, capsys):
        head_file = tmp_path / "fhp_head.bin"
        rc = cli.main(
            [
                "train",
                "fhp",
                "--config",
                str(dataset_dir / "config.json"),
                "--out",
                str(head_file),
                "--epochs",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch 0: loss" in out
        assert "epoch 2: loss" in out
        assert f"wrote {head_file}" in out
        head = fileio.load_head(head_file)
        assert head.kind == "regression_20"

    def test_train_lta_writes_head(self, dataset_dir, tmp_path, capsys):
        head_file = tmp_path / "lta_head.bin"
        rc = cli.main(
            [
                "train",
                "lta",
                "--config",
                str(dataset_dir / "config.json"),
                "--out",
                str(head_file),
                "--epochs",
                "2",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        head = fileio.load_head(head_file)
        assert head.kind == "classifier_C"

    @pytest.mark.parametrize(
        "argv, train, options",
        [
            (["fhp"], experiments.train_hand_regressor, {}),
            # The clip window options are the forecaster's; fhp ignores them.
            (["fhp", "--alpha", "3", "--clip-len", "1"], experiments.train_hand_regressor, {}),
            (["lta", "--epochs", "2"], experiments.train_forecaster, {"epochs": 2}),
            (["lta", "--epochs", "2", "--alpha", "8", "--lr", "1.5", "--seed", "4"], experiments.train_forecaster, {"epochs": 2, "alpha_s": 8.0, "lr": 1.5, "seed": 4}),
        ],
    )
    def test_options_left_out_take_the_trainers_defaults(self, dataset_dir, tmp_path, capsys, argv, train, options):
        config = fileio.load_config(dataset_dir / "config.json")
        ds = generate_synthetic(config)
        head, losses = train(ds, ds.video_ids, **options)
        fileio.save_head(tmp_path / "expected.bin", head)
        out = tmp_path / "h.bin"
        assert cli.main(["train", *argv, "--config", str(dataset_dir / "config.json"), "--out", str(out)]) == 0
        lines = [f"epoch {i}: loss {loss:.6f}" for i, loss in enumerate(losses)] + [f"wrote {out}"]
        assert capsys.readouterr().out.splitlines() == lines
        assert out.read_bytes() == (tmp_path / "expected.bin").read_bytes()


class TestTrainConfigErrors:
    @pytest.mark.parametrize("key, value", [("resolution", 5), ("num_videos", 2.5), ("resolution", [1920])])
    def test_bad_config_value_is_data_error(self, dataset_dir, tmp_path, capsys, key, value):
        raw = json.loads((dataset_dir / "config.json").read_text(encoding="utf-8"))
        raw[key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        rc = cli.main(["train", "lta", "--config", str(config), "--out", str(tmp_path / "h.bin"), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", [5, [1, 2, 3], "ab", [1920, 0], [1920.0, 1080]])
    def test_bad_resolution_names_the_field(self, dataset_dir, tmp_path, capsys, value):
        raw = json.loads((dataset_dir / "config.json").read_text(encoding="utf-8"))
        raw["resolution"] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        rc = cli.main(["train", "lta", "--config", str(config), "--out", str(tmp_path / "h.bin"), "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: resolution: must be a [width, height] pair of ints >= 1"
        ]

    def _train(self, dataset_dir, tmp_path, edit):
        raw = json.loads((dataset_dir / "config.json").read_text(encoding="utf-8"))
        edit(raw)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        return cli.main(["train", "lta", "--config", str(config), "--out", str(tmp_path / "h.bin"), "--epochs", "1"]), config

    def test_a_file_of_another_schema_is_one_line(self, dataset_dir, tmp_path, capsys):
        rc, config = self._train(dataset_dir, tmp_path, lambda raw: raw.update(schema="lta/1"))
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {config}: expected schema 'synth-config/1'"]
        assert not (tmp_path / "h.bin").exists()

    def test_a_missing_key_is_one_line(self, dataset_dir, tmp_path, capsys):
        rc, config = self._train(dataset_dir, tmp_path, lambda raw: raw.pop("fps"))
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {config}: missing key 'fps'"]
        assert not (tmp_path / "h.bin").exists()

    def test_an_unknown_key_warns_and_trains(self, dataset_dir, tmp_path, capsys):
        with pytest.warns(UserWarning) as caught:
            rc, config = self._train(dataset_dir, tmp_path, lambda raw: raw.update(extra=1))
        assert rc == 0
        assert [str(w.message) for w in caught] == [f"{config}: unknown key top level: 'extra'"]
        assert capsys.readouterr().err == ""
        assert (tmp_path / "h.bin").exists()

    @pytest.mark.parametrize("task", ["lta", "fhp"])
    def test_a_feature_dim_too_large_to_allocate_is_one_line(self, dataset_dir, tmp_path, capsys, task):
        # 72.8 TiB of float64 features: numpy refuses it without allocating.
        raw = json.loads((dataset_dir / "config.json").read_text(encoding="utf-8"))
        raw["feature_dim"] = 10**13
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        rc = cli.main(["train", task, "--config", str(config), "--out", str(tmp_path / "h.bin"), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: ")
        assert not (tmp_path / "h.bin").exists()

    @pytest.mark.parametrize("task, detail", [("lta", "loss became nan"), ("fhp", "loss became inf")])
    def test_a_diverging_run_is_one_line(self, dataset_dir, tmp_path, capsys, task, detail):
        argv = ["train", task, "--config", str(dataset_dir / "config.json"), "--out", str(tmp_path / "h.bin"), "--lr", "1e308", "--epochs", "30"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: diverged at epoch ") and err[0].endswith(detail)
        assert not (tmp_path / "h.bin").exists()

    @pytest.mark.parametrize("task", ["lta", "fhp"])
    def test_epochs_past_the_cap_is_one_line(self, dataset_dir, tmp_path, capsys, task):
        argv = ["train", task, "--config", str(dataset_dir / "config.json"), "--out", str(tmp_path / "h.bin"), "--epochs", "1000000000"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: epochs must be at most {heads.MAX_EPOCHS}, got 1000000000"]
        assert not (tmp_path / "h.bin").exists()

    @pytest.mark.parametrize("lengths", [["--clip-stride", "1e-6"], ["--clip-len", "1e-6", "--clip-stride", "1e-6"]])
    def test_a_clip_stride_past_the_cap_is_one_line(self, dataset_dir, tmp_path, capsys, monkeypatch, lengths):
        # 16 million clips per window: refused before any is laid out. A run
        # that laid them out would fail on the 1,001st, not hang.
        made = []

        def counted(**span):
            made.append(span)
            assert len(made) <= 1_001, "laid out clips past the cap"
            return model.TemporalSegment(**span)

        monkeypatch.setattr(snippets, "TemporalSegment", counted)
        argv = ["train", "lta", "--config", str(dataset_dir / "config.json"), "--out", str(tmp_path / "h.bin"), "--epochs", "1"]
        assert cli.main([*argv, *lengths]) == 2
        captured = capsys.readouterr()
        clip = "1e-06" if lengths[0] == "--clip-len" else "2"
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {clip} s clips at a 1e-06 s stride over a 16 s window make more than {snippets.MAX_CLIPS} clips"]
        assert not (tmp_path / "h.bin").exists()

    @pytest.mark.parametrize("task", ["lta", "fhp"])
    def test_negative_seed_names_the_option(self, dataset_dir, tmp_path, capsys, task):
        argv = ["train", task, "--config", str(dataset_dir / "config.json"), "--out", str(tmp_path / "h.bin"), "--seed", "-1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: seed must be an int >= 0"]
        assert not (tmp_path / "h.bin").exists()


class TestLtaPredValidation:
    """Forecast files without a config block: every constructor invariant is
    reported with the file and the row, not as a bare constructor message."""

    @staticmethod
    def _rows(z):
        return [[1.0] + [0.0] * 2 for _ in range(z)]

    @pytest.mark.parametrize(
        "candidates, verb_rows, noun_rows, location, message",
        [
            ([[[0, 0], [1, 1]], [[0, 0]]], 2, 2, "instances[0].candidates[1]", "candidate length 1 != 2"),
            ([[]], 1, 1, "instances[0].candidates[0]", "candidate sequence is empty"),
            ([[[0, 0], [1, 1]]], 2, 1, "instances[0].score_matrix", "verb has 2 rows, noun has 1"),
            ([[[0, 0]]], 2, 2, "instances[0].score_matrix", "2 rows, candidates have length 1"),
        ],
        ids=["ragged", "empty", "verb-noun-rows", "matrix-vs-candidates"],
    )
    def test_reported_with_file_and_row(
        self, dataset_dir, tmp_path, capsys, candidates, verb_rows, noun_rows, location, message
    ):
        pred = tmp_path / "pred_lta.json"
        row = {
            "video_id": "synth-000",
            "clip_index": 0,
            "candidates": candidates,
            "score_matrix": {"verb": self._rows(verb_rows), "noun": self._rows(noun_rows)},
        }
        pred.write_text(json.dumps({"schema": "lta-pred/1", "instances": [row]}), encoding="utf-8")
        rc = cli.main(["eval", "lta", "--gt", str(dataset_dir / "gt_lta.json"), "--pred", str(pred)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {pred}: {location}: {message}"]

    def _edited(self, dataset_dir, tmp_path, edit):
        tree = json.loads((dataset_dir / "pred_lta.json").read_text(encoding="utf-8"))
        edit(tree["instances"])
        pred = tmp_path / "pred_lta.json"
        pred.write_text(json.dumps(tree), encoding="utf-8")
        rc = cli.main(["eval", "lta", "--gt", str(dataset_dir / "gt_lta.json"), "--pred", str(pred)])
        return rc, pred, tree["instances"][0]

    def test_several_rows_for_one_episode_are_refused(self, dataset_dir, tmp_path, capsys):
        rc, pred, row = self._edited(dataset_dir, tmp_path, lambda rows: rows.append({**rows[0], "clip": 1}))
        assert rc == 2
        last = len(json.loads(pred.read_text(encoding="utf-8"))["instances"]) - 1
        key = (row["video_id"], row["clip_index"])
        assert capsys.readouterr().err.splitlines() == [f"error: {pred}: instances[{last}]: several rows for {key}; vote first"]

    def test_candidates_past_the_ground_truth_budget_are_refused(self, dataset_dir, tmp_path, capsys):
        # The file has no config block, so only ground truth's k of 5 bounds it.
        rc, _, row = self._edited(dataset_dir, tmp_path, lambda rows: rows[0].update(candidates=rows[0]["candidates"] * 6))
        assert rc == 2
        key = (row["video_id"], row["clip_index"])
        assert capsys.readouterr().err.splitlines() == [f"error: {key}: 6 candidates exceeds the budget of 5"]


class TestHugeIntegers:
    """An int too large for a float in a real-valued field is a schema
    violation reported on one line, not an OverflowError traceback."""

    HUGE = 10**401

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "track, kind, path, message",
        [
            ("mq", "pred", ("instances", 0, "score"), "instances[0]: score must be a finite real"),
            ("mq", "gt", ("instances", 0, "end_s"), "instances[0]: end_s must be a finite real"),
            ("sta", "pred", ("instances", 0, "box", 2), "instances[0]: box must be a finite [x1, y1, x2, y2] list"),
            ("sta", "gt", ("instances", 0, "ttc_s"), "instances[0]: ttc_s must be a positive finite real"),
        ],
        ids=["score", "segment-bound", "box-coordinate", "ttc_s"],
    )
    def test_eval_reports_a_violation(self, dataset_dir, tmp_path, capsys, track, kind, path, message, sign):
        name = f"{kind}_{track}.json"
        raw = json.loads((dataset_dir / name).read_text(encoding="utf-8"))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = sign * self.HUGE
        bad = tmp_path / name
        bad.write_text(json.dumps(raw), encoding="utf-8")
        files = {"gt": dataset_dir / f"gt_{track}.json", "pred": dataset_dir / f"pred_{track}.json", kind: bad}
        rc = cli.main(["eval", track, "--gt", str(files["gt"]), "--pred", str(files["pred"])])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: ") and message in err[0]

    @pytest.mark.parametrize("value, text", [(10**401, "1000…0 (402 digits)"), (-(3 * 10**40 + 7), "-3000…7 (41 digits)")], ids=["402", "41"])
    def test_a_huge_id_is_printed_short(self, dataset_dir, tmp_path, capsys, value, text):
        raw = json.loads((dataset_dir / "gt_mq.json").read_text(encoding="utf-8"))
        raw["num_classes"] = 10**29  # 30 digits, printed whole
        raw["instances"][0]["class_id"] = abs(value)
        bad = tmp_path / "gt_mq.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["eval", "mq", "--gt", str(bad), "--pred", str(dataset_dir / "pred_mq.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        expected = f"instances[0]: class_id {text.lstrip('-')} out of range [0, {10**29})"
        assert len(err) == 1 and err[0].endswith(expected) and len(err[0]) < 120 + len(str(bad))
        assert model._int_text(value) == text

    def test_int_text_counts_digits_without_str(self):
        # Powers of ten and their neighbours are where a digit count from
        # the bit length can be one off.
        for e in range(30, 6001, 59):
            cases = [(10**e - 1, e, "9999", 9), (10**e, e + 1, "1000", 0), (-(7 * 10**e + 3), e + 1, "7000", 3)]
            for value, digits, head, last in cases:
                sign = "-" * (value < 0)
                assert model._int_text(value) == (f"{sign}{head}…{last} ({digits} digits)" if digits > 30 else str(value))
        assert [model._int_text(v) for v in (0, -9, 10**29, -(10**30 - 1))] == ["0", "-9", str(10**29), str(-(10**30 - 1))]

    def test_probability_row_reports_a_violation(self, tmp_path, capsys):
        row = {"video_id": "v", "clip_index": 0, "score_matrix": {"verb": [[self.HUGE, 0]], "noun": [[1.0]]}}
        clips = tmp_path / "clips.json"
        clips.write_text(json.dumps({"schema": "lta-pred/1", "instances": [row]}), encoding="utf-8")
        rc = cli.main(["vote", "--pred", str(clips), "--out", str(tmp_path / "voted.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {clips}: instances[0].score_matrix")


class TestReport:
    def test_listing(self, capsys):
        assert cli.main(["report"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == sorted(lines)
        assert "mq-two-stage" in lines
        assert len(lines) == 6

    def test_table_render(self, capsys):
        assert cli.main(["report", "--table", "mq-two-stage"]) == 0
        out = capsys.readouterr().out
        assert "40.36" in out
        assert "23.29" in out

    def test_csv_render(self, capsys):
        assert cli.main(["report", "--table", "short-term", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["split", "method", "Noun", "Noun+Verb", "Noun+TTC", "Overall"]

    def test_unknown_table_is_a_data_error(self, capsys):
        assert cli.main(["report", "--table", "nope"]) == 2
        assert "unknown fixture" in capsys.readouterr().err


class TestExitCodes:
    def test_no_subcommand_is_usage(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_usage(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_is_usage(self, capsys):
        assert cli.main(["schedule"]) == 1
        capsys.readouterr()

    def test_bad_choice_is_usage(self, dataset_dir, capsys):
        rc = cli.main(
            [
                "eval",
                "mq",
                "--gt",
                str(dataset_dir / "gt_mq.json"),
                "--pred",
                str(dataset_dir / "pred_mq.json"),
                "--format",
                "yaml",
            ]
        )
        assert rc == 1
        capsys.readouterr()

    def test_missing_file_is_data(self, tmp_path, capsys):
        rc = cli.main(["eval", "mq", "--gt", str(tmp_path / "a.json"), "--pred", str(tmp_path / "b.json")])
        assert rc == 2
        capsys.readouterr()

    def test_wrong_schema_is_data(self, dataset_dir, capsys):
        rc = cli.main(
            ["eval", "mq", "--gt", str(dataset_dir / "gt_nlq.json"), "--pred", str(dataset_dir / "pred_mq.json")]
        )
        assert rc == 2
        assert "schema" in capsys.readouterr().err

    def test_invalid_json_is_data(self, tmp_path, dataset_dir, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        rc = cli.main(["eval", "mq", "--gt", str(bad), "--pred", str(dataset_dir / "pred_mq.json")])
        assert rc == 2
        capsys.readouterr()

    def test_integer_literal_past_the_digit_limit_names_the_file(self, tmp_path, dataset_dir, capsys):
        # json.loads raises a plain ValueError, not JSONDecodeError, here.
        bad = tmp_path / "long.json"
        bad.write_text('{"schema": "mq/1", "num_classes": ' + "7" * 5000 + "}", encoding="utf-8")
        rc = cli.main(["eval", "mq", "--gt", str(bad), "--pred", str(dataset_dir / "pred_mq.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: not valid JSON (")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "mq", "--gt", "DEEP", "--pred", "DS/pred_mq.json"],
            ["eval", "fhp", "--gt", "DS/gt_fhp.json", "--pred", "DEEP"],
            ["eval", "lta", "--gt", "DEEP", "--pred", "DS/pred_lta.json"],
            ["vote", "--pred", "DEEP", "--out", "OUT"],
            ["fuse", "post", "--pred", "DS/pred_nlq.json", "DEEP", "--out", "OUT"],
            ["fuse", "sta", "--pred", "DEEP", "--out", "OUT"],
            ["train", "lta", "--config", "DEEP", "--out", "OUT"],
        ],
    )
    def test_json_nested_too_deeply_names_the_file(self, tmp_path, dataset_dir, capsys, argv):
        # json.loads raises RecursionError at this depth on every Python from 3.10 on.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        paths = {"DEEP": str(deep), "OUT": str(tmp_path / "out")}
        argv = [paths.get(arg, arg.replace("DS/", f"{dataset_dir}/")) for arg in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {deep}: JSON nested too deeply to read"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [[], {}], ids=["list", "object"])
    @pytest.mark.parametrize(
        "argv, edited, where, key",
        [
            (["eval", "mq", "--gt", "EDITED", "--pred", "DS/pred_mq.json"], "gt_mq", "videos", "video_id"),
            (["eval", "nlq", "--gt", "EDITED", "--pred", "DS/pred_nlq.json"], "gt_nlq", "videos", "video_id"),
            (["eval", "nlq", "--gt", "EDITED", "--pred", "DS/pred_nlq.json"], "gt_nlq", "instances", "query_id"),
            (["eval", "nlq", "--gt", "DS/gt_nlq.json", "--pred", "EDITED"], "pred_nlq", "instances", "query_id"),
            (["eval", "sta", "--gt", "EDITED", "--pred", "DS/pred_sta.json"], "gt_sta", "images", "keyframe_id"),
            (["eval", "scod", "--gt", "DS/gt_scod.json", "--pred", "EDITED"], "pred_scod", "images", "keyframe_id"),
            (["fuse", "sta", "--pred", "EDITED", "--out", "OUT"], "pred_sta", "images", "keyframe_id"),
        ],
    )
    def test_id_of_list_or_object_is_one_line(self, tmp_path, dataset_dir, capsys, argv, edited, where, key, bad):
        # A list or object cannot go in a set: the column scan must check the
        # ids' types before it counts them.
        tree = json.loads((dataset_dir / f"{edited}.json").read_text(encoding="utf-8"))
        tree[where][0][key] = bad
        path = tmp_path / f"{edited}.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        paths = {"EDITED": str(path), "OUT": str(tmp_path / "out")}
        assert cli.main([paths.get(arg, arg.replace("DS/", f"{dataset_dir}/")) for arg in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
        assert f"{where}[0]: {key} must be a non-empty string" in err[0]
        assert not (tmp_path / "out").exists()


class TestThreadEnv:
    def test_eval_output_is_thread_independent(self, dataset_dir, capsys):
        args = ["eval", "mq", "--gt", str(dataset_dir / "gt_mq.json"), "--pred", str(dataset_dir / "pred_mq.json")]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_the_setting_is_not_read(self, capsys, monkeypatch):
        monkeypatch.delenv("EGOFORGE_THREADS", raising=False)
        assert cli.main(["report"]) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("EGOFORGE_THREADS", "zero")
        assert cli.main(["report"]) == 0
        assert capsys.readouterr() == unset


class TestOverflowingGeometry:
    """A box or segment whose union in an IoU would overflow is rejected with
    one line, rather than scored as NaN or 0 with numpy warnings."""

    @staticmethod
    def _boxes(tmp_path, track, box):
        for kind in ("gt", "pred"):
            rec = {"keyframe_id": "k", "box": box, "noun": 0}
            if track == "sta":
                rec.update(verb=0, ttc_s=1.0)
            if kind == "pred":
                rec["score"] = 0.9
            schema = f"{track}-pred/1" if kind == "pred" else f"{track}/1"
            tree = {"schema": schema, "images": [{"keyframe_id": "k", "width": 10, "height": 10}], "instances": [rec]}
            (tmp_path / f"{kind}.json").write_text(json.dumps(tree), encoding="utf-8")
        return ["eval", track, "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")]

    @pytest.mark.parametrize("track", ["sta", "scod"])
    @pytest.mark.parametrize("box", [[0.0, 0.0, 1e200, 1e200], [-1e308, 0.0, 1e308, 1.0]])
    def test_box_too_large_is_one_line(self, tmp_path, capsys, track, box):
        assert cli.main(self._boxes(tmp_path, track, box)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {tmp_path / 'gt.json'}: instances[0]: box too large (its doubled width, height or area overflows)"
        ]

    @pytest.mark.parametrize("track", ["sta", "scod"])
    def test_large_finite_boxes_still_score(self, tmp_path, capsys, track):
        # Area 1e300: large, but twice it is finite.
        assert cli.main(self._boxes(tmp_path, track, [0.0, 0.0, 1e150, 1e150]) + ["--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert all(r["value"] == 1.0 for r in json.loads(captured.out)["reports"])

    def test_far_apart_boxes_fuse_without_warnings(self, tmp_path, capsys):
        # Their overlap, min(x2) - max(x1), overflows to -inf and clips to 0.
        paths = []
        for i, box in enumerate(([1e308] * 4, [-1e308] * 4, [-1e308, 0.0, -1e308, 5e307])):
            rec = {"keyframe_id": "k", "box": box, "noun": 0, "verb": 0, "ttc_s": 1.0, "score": 0.9 - i / 10}
            tree = {"schema": "sta-pred/1", "images": [{"keyframe_id": "k", "width": 10, "height": 10}], "instances": [rec]}
            paths.append(tmp_path / f"sta_{i}.json")
            paths[-1].write_text(json.dumps(tree), encoding="utf-8")
        out = tmp_path / "fused.json"
        assert cli.main(["fuse", "sta", "--pred", *map(str, paths), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert sum(len(v) for v in fileio.load_sta_pred(out).instances.values()) == 3

    def test_segment_too_long_is_one_line(self, tmp_path, capsys):
        rec = {"video_id": "v", "start_s": 0.0, "end_s": 1e308, "class_id": 0}
        gt = {"schema": "mq/1", "num_classes": 1, "videos": [{"video_id": "v", "num_frames": 1, "fps": 1.0}], "instances": [rec]}
        pred = {"schema": "mq-pred/1", "instances": [{**rec, "score": 1.0}]}
        (tmp_path / "gt.json").write_text(json.dumps(gt), encoding="utf-8")
        (tmp_path / "pred.json").write_text(json.dumps(pred), encoding="utf-8")
        assert cli.main(["eval", "mq", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'gt.json'}: instances[0]: segment too long (its doubled length overflows)"
        ]

    def test_segment_past_the_float_range_is_one_line(self, dataset_dir, tmp_path, capsys):
        # Its length overflows in the column scan, which must not warn.
        pred = json.loads((dataset_dir / "pred_mq.json").read_text(encoding="utf-8"))
        pred["instances"][0].update(start_s=-1e308, end_s=1e308)
        (tmp_path / "pred.json").write_text(json.dumps(pred), encoding="utf-8")
        assert cli.main(["eval", "mq", "--gt", str(dataset_dir / "gt_mq.json"), "--pred", str(tmp_path / "pred.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path / 'pred.json'}: instances[0]: segment start is negative"]

    def test_displacements_past_the_float_range_name_the_report(self, dataset_dir, tmp_path, capsys):
        # Valid coordinates whose differences overflow to an infinite distance.
        for kind, x in (("gt", -1e308), ("pred", 1e308)):
            tree = json.loads((dataset_dir / f"{kind}_fhp.json").read_text(encoding="utf-8"))
            for inst in tree["instances"]:
                for point in inst["keyframes"].values():
                    point["left"][0] = x
            (tmp_path / f"{kind}.json").write_text(json.dumps(tree), encoding="utf-8")
        assert cli.main(["eval", "fhp", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: L-M.Disp: the displacements overflow the float range"]


class TestTrainConfigOverflow:
    @pytest.mark.parametrize("value", ["1e308", str(10**401)])
    def test_huge_video_length_is_one_line(self, dataset_dir, tmp_path, capsys, value):
        raw = json.loads((dataset_dir / "config.json").read_text(encoding="utf-8"))
        raw["max_video_len_s"] = 0  # placeholder, replaced in the text below
        text = json.dumps(raw).replace('"max_video_len_s": 0', f'"max_video_len_s": {value}')
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        rc = cli.main(["train", "lta", "--config", str(config), "--out", str(tmp_path / "h.bin"), "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: max_video_len_s must be a finite real of magnitude at most 1e+06"
        ]

    @pytest.mark.parametrize("key, value", [("c_v", 2**63), ("c_n", 2**63), ("c_v", 2**62)])
    def test_joint_class_ids_past_int64_are_one_line(self, dataset_dir, tmp_path, capsys, key, value):
        raw = json.loads((dataset_dir / "config.json").read_text(encoding="utf-8"))
        raw[key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        rc = cli.main(["train", "lta", "--config", str(config), "--out", str(tmp_path / "h.bin"), "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: joint class ids (verb * c_n + noun) must fit in int64"]
        assert not (tmp_path / "h.bin").exists()

    @pytest.mark.parametrize("command", ["lta", "fhp"])
    def test_a_count_past_the_loop_budget_is_one_line_and_draws_nothing(self, dataset_dir, tmp_path, capsys, monkeypatch, command):
        raw = json.loads((dataset_dir / "config.json").read_text(encoding="utf-8"))
        raw["num_videos"] = 10**30
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        monkeypatch.setattr(cli, "generate_synthetic", lambda config: pytest.fail("drew a dataset"))
        rc = cli.main(["train", command, "--config", str(config), "--out", str(tmp_path / "h.bin"), "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: num_videos x (max_video_len_s / clip_len_s + nlq_queries_per_video + 2 x sta_keyframes_per_video)"
            " must be at most 1e+06"
        ]
        assert not (tmp_path / "h.bin").exists()

    def test_synth_past_the_loop_budget_is_one_line_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate_synthetic", lambda config: pytest.fail("drew a dataset"))
        assert cli.main(["synth", "--out", str(tmp_path / "ds"), "--num-videos", "1000000000000"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: num_videos x (max_video_len_s / clip_len_s + nlq_queries_per_video + 2 x sta_keyframes_per_video)"
            " must be at most 1e+06"
        ]
        assert not (tmp_path / "ds").exists()

    def test_videos_too_short_for_the_generator_name_the_file_and_field(self, dataset_dir, tmp_path, capsys):
        raw = json.loads((dataset_dir / "config.json").read_text(encoding="utf-8"))
        raw.update(min_video_len_s=3.9, max_video_len_s=5.0, z=1, clip_len_s=0.2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        rc = cli.main(["train", "fhp", "--config", str(config), "--out", str(tmp_path / "h.bin"), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {config}: min_video_len_s ")
