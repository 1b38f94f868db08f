import gc
import json
import warnings

import numpy as np
import pytest

from egoforge import fileio
from egoforge.errors import DataError, SchemaError
from egoforge.heads import new_head
from egoforge.metrics import MetricReport
from egoforge.model import ActionLabel, FeatureMatrix, ScoreMatrix
from egoforge.render import render_reports
from egoforge.synth import SynthConfig, generate_synthetic, perfect_predictions


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A synthetic dataset saved once and reloaded by several tests."""
    from egoforge.cli import main

    out = tmp_path_factory.mktemp("ds")
    assert main(["synth", "--out", str(out), "--seed", "3", "--num-videos", "4"]) == 0
    return out


class TestJsonRoundTrips:
    def test_mq(self, dataset_dir):
        gt = fileio.load_mq_gt(dataset_dir / "gt_mq.json")
        again = dataset_dir / "again_mq.json"
        fileio.save_mq_gt(again, gt)
        assert (dataset_dir / "gt_mq.json").read_bytes() == again.read_bytes()

    def test_nlq(self, dataset_dir):
        gt = fileio.load_nlq_gt(dataset_dir / "gt_nlq.json")
        again = dataset_dir / "again_nlq.json"
        fileio.save_nlq_gt(again, gt)
        assert (dataset_dir / "gt_nlq.json").read_bytes() == again.read_bytes()

    def test_fhp(self, dataset_dir):
        gt = fileio.load_fhp_gt(dataset_dir / "gt_fhp.json")
        again = dataset_dir / "again_fhp.json"
        fileio.save_fhp_gt(again, gt)
        assert (dataset_dir / "gt_fhp.json").read_bytes() == again.read_bytes()

    def test_lta(self, dataset_dir):
        gt = fileio.load_lta_gt(dataset_dir / "gt_lta.json")
        again = dataset_dir / "again_lta.json"
        fileio.save_lta_gt(again, gt)
        assert (dataset_dir / "gt_lta.json").read_bytes() == again.read_bytes()

    def test_sta(self, dataset_dir):
        gt = fileio.load_sta_gt(dataset_dir / "gt_sta.json")
        again = dataset_dir / "again_sta.json"
        fileio.save_sta_gt(again, gt)
        assert (dataset_dir / "gt_sta.json").read_bytes() == again.read_bytes()

    def test_scod_pred(self, dataset_dir):
        pred = fileio.load_scod_pred(dataset_dir / "pred_scod.json")
        again = dataset_dir / "again_scod.json"
        fileio.save_scod_pred(again, pred)
        assert (dataset_dir / "pred_scod.json").read_bytes() == again.read_bytes()

    def test_config(self, dataset_dir, tmp_path):
        config = fileio.load_config(dataset_dir / "config.json")
        assert config == SynthConfig(seed=3, num_videos=4)
        again = tmp_path / "config.json"
        fileio.save_config(again, config)
        assert (dataset_dir / "config.json").read_bytes() == again.read_bytes()


class TestStrictness:
    def test_wrong_schema_tag(self, dataset_dir):
        with pytest.raises(DataError):
            fileio.load_nlq_gt(dataset_dir / "gt_mq.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            fileio.load_mq_gt(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            fileio.load_mq_gt(path)

    def test_schema_violations_collected(self, tmp_path):
        raw = {
            "schema": "mq/1",
            "num_classes": 2,
            "videos": [{"video_id": "v", "num_frames": 10, "fps": 15.0}],
            "instances": [
                {"video_id": "v", "start_s": 5.0, "end_s": 1.0, "class_id": 9},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError) as err:
            fileio.load_mq_gt(path)
        assert len(err.value.violations) == 2

    def test_null_visibility_map_is_a_violation(self, dataset_dir, tmp_path):
        raw = json.loads((dataset_dir / "pred_fhp.json").read_text(encoding="utf-8"))
        raw["instances"][0]["keyframes"]["c"]["visible"] = None
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError) as err:
            fileio.load_fhp_pred(path)
        assert err.value.violations == ["instances[0].keyframes[c]: visible must map hands to bools"]

    def test_a_saver_prints_an_int_past_str_limit_short(self, tmp_path):
        # str() refuses ints past 4,300 digits; the message must not need it.
        gt = fileio.LtaGt(z=10**5000, c_v=3, c_n=3, k=1, sequences={("v", 0): (ActionLabel(0, 0),)})
        with pytest.raises(ValueError) as err:
            fileio.save_lta_gt(tmp_path / "gt.json", gt)
        assert str(err.value) == "lta/1: ('v', 0): sequence length 1 != 1000…0 (5001 digits)"
        assert not (tmp_path / "gt.json").exists()

    def test_unknown_key_warns(self, tmp_path):
        raw = {
            "schema": "mq/1",
            "num_classes": 2,
            "videos": [{"video_id": "v", "num_frames": 10, "fps": 15.0}],
            "instances": [],
            "comment": "scratch",
        }
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(raw))
        with pytest.warns(UserWarning, match="comment"):
            fileio.load_mq_gt(path)

    def test_prediction_for_unknown_video(self, dataset_dir, tmp_path):
        raw = {
            "schema": "mq-pred/1",
            "instances": [
                {"video_id": "ghost", "start_s": 0.0, "end_s": 1.0, "class_id": 0, "score": 0.5}
            ],
        }
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(raw))
        gt = fileio.load_mq_gt(dataset_dir / "gt_mq.json")
        with pytest.raises(DataError, match="ghost"):
            fileio.load_mq_pred(path, known_videos=gt.videos)


class TestLtaPredFiles:
    def _clip_file(self, tmp_path):
        rng = np.random.default_rng(0)
        v = rng.random((2, 3))
        n = rng.random((2, 4))
        m = ScoreMatrix(verb=v / v.sum(1, keepdims=True), noun=n / n.sum(1, keepdims=True))
        path = tmp_path / "clips.json"
        fileio.save_lta_clip_probs(path, {("v", 5): [m, m]})
        return path, m

    def test_clip_probs_round_trip(self, tmp_path):
        path, m = self._clip_file(tmp_path)
        loaded = fileio.load_lta_clip_probs(path)
        assert set(loaded) == {("v", 5)}
        assert len(loaded[("v", 5)]) == 2
        assert loaded[("v", 5)][0] == m

    def test_eval_loader_rejects_multiple_rows_per_episode(self, tmp_path):
        path, _ = self._clip_file(tmp_path)
        with pytest.raises(DataError, match="vote"):
            fileio.load_lta_pred(path)

    def test_vote_loader_requires_matrices(self, dataset_dir):
        with pytest.raises(DataError, match="score_matrix"):
            fileio.load_lta_clip_probs(dataset_dir / "pred_lta.json")

    def test_forecast_round_trip(self, dataset_dir, tmp_path):
        forecasts = fileio.load_lta_pred(dataset_dir / "pred_lta.json")
        again = tmp_path / "again.json"
        fileio.save_lta_pred(again, forecasts)
        assert fileio.load_lta_pred(again) == forecasts


class TestFeatureFiles:
    def _matrix(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((5, 3)).astype(np.float32)
        return FeatureMatrix(dim=3, rows=rows, provenance="verb")

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "f.egft"
        original = self._matrix()
        fileio.save_features(path, original)
        loaded = fileio.load_features(path, provenance="verb")
        assert loaded == original

    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.egft"
        fileio.save_features(path, self._matrix())
        blob = path.read_bytes()
        assert blob[:4] == b"EGFT"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 3
        assert int.from_bytes(blob[12:20], "little") == 5
        assert len(blob) == 20 + 5 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.egft"
        fileio.save_features(path, self._matrix())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            fileio.load_features(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "f.egft"
        fileio.save_features(path, self._matrix())
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(DataError, match="bytes"):
            fileio.load_features(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "f.egft"
        fileio.save_features(path, self._matrix())
        blob = bytearray(path.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            fileio.load_features(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "f.egft"
        fileio.save_features(path, self._matrix())
        blob = bytearray(path.read_bytes())
        blob[20:24] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            fileio.load_features(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b"XXXX" + b[4:], "not a feature file (bad magic)"),
            (lambda b: b[:19], "not a feature file (bad magic)"),
            (lambda b: b[:4], "not a feature file (bad magic)"),
            (lambda b: b[:4] + (2).to_bytes(4, "little") + b[8:], "unsupported feature file version 2"),
            (lambda b: b[:8] + (0).to_bytes(4, "little") + b[12:], "feature dim must be >= 1"),
            (lambda b: b[:-4], "feature file holds 76 bytes, expected 80"),
            (lambda b: b[:20], "feature file holds 20 bytes, expected 80"),
            (lambda b: b + b"\0", "feature file holds 81 bytes, expected 80"),
            (lambda b: b[:12] + (6).to_bytes(8, "little") + b[20:], "feature file holds 80 bytes, expected 92"),
            (lambda b: b[:20] + np.float32(np.inf).tobytes() + b[24:], "feature rows must be finite"),
        ],
    )
    def test_load_messages(self, tmp_path, edit, message):
        path = tmp_path / "f.egft"
        fileio.save_features(path, self._matrix())
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError) as e:
            fileio.load_features(path)
        assert str(e.value) == f"{path}: {message}"

    def test_missing_file_message(self, tmp_path):
        path = tmp_path / "absent.egft"
        with pytest.raises(DataError, match=r"No such file") as e:
            fileio.load_features(path)
        assert str(e.value).startswith(f"{path}: ")

    def test_a_directory_is_a_data_error_naming_it(self, tmp_path):
        with pytest.raises(DataError, match=r"Is a directory") as e:
            fileio.load_features(tmp_path)
        assert str(e.value).startswith(f"{tmp_path}: ")

    def test_f_ordered_float64_rows_round_trip(self, tmp_path):
        rows = np.asfortranarray(np.random.default_rng(8).standard_normal((6, 4)))
        matrix = FeatureMatrix(dim=4, rows=rows, provenance="noun")
        fileio.save_features(tmp_path / "f.egft", matrix)
        fileio.save_features(tmp_path / "c.egft", FeatureMatrix(dim=4, rows=np.ascontiguousarray(rows), provenance="noun"))
        assert (tmp_path / "f.egft").read_bytes() == (tmp_path / "c.egft").read_bytes()
        loaded = fileio.load_features(tmp_path / "f.egft", provenance="noun")
        assert loaded == matrix
        assert np.array_equal(loaded.rows, rows.astype(np.float32))

    def test_zero_rows_round_trip(self, tmp_path):
        path = tmp_path / "f.egft"
        empty = FeatureMatrix(dim=3, rows=np.zeros((0, 3), dtype=np.float32), provenance="verb")
        fileio.save_features(path, empty)
        assert path.read_bytes() == b"EGFT" + (1).to_bytes(4, "little") + (3).to_bytes(4, "little") + bytes(8)
        loaded = fileio.load_features(path, provenance="verb")
        assert loaded == empty
        assert loaded.rows.shape == (0, 3)

    def test_a_width_past_the_header_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "f.egft"
        wide = FeatureMatrix(dim=2**32, rows=np.zeros((0, 2**32), dtype=np.float32), provenance="verb")
        with pytest.raises(ValueError) as e:
            fileio.save_features(path, wide)
        assert str(e.value) == f"a feature file holds at most {2**32 - 1} values per row, got {2**32}"
        assert not path.exists()

    def test_loaded_rows_are_read_only(self, tmp_path):
        path = tmp_path / "f.egft"
        fileio.save_features(path, self._matrix())
        rows = fileio.load_features(path).rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


class TestHeadFiles:
    def test_regression_round_trip(self, tmp_path):
        head = new_head("regression_20", in_dim=6, seed=1)
        path = tmp_path / "h.eghd"
        fileio.save_head(path, head)
        assert fileio.load_head(path) == head

    def test_classifier_round_trip(self, tmp_path):
        head = new_head("classifier_C", in_dim=6, seed=1, z=2, c_v=3, c_n=4)
        path = tmp_path / "h.eghd"
        fileio.save_head(path, head)
        loaded = fileio.load_head(path)
        assert loaded == head
        assert (loaded.z, loaded.c_v, loaded.c_n) == (2, 3, 4)

    def test_a_directory_is_a_data_error_naming_it(self, tmp_path):
        with pytest.raises(DataError, match=r"Is a directory") as e:
            fileio.load_head(tmp_path)
        assert str(e.value).startswith(f"{tmp_path}: ")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "h.eghd"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            fileio.load_head(path)

    def test_truncated(self, tmp_path):
        head = new_head("regression_20", in_dim=6, seed=1)
        path = tmp_path / "h.eghd"
        fileio.save_head(path, head)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="bytes"):
            fileio.load_head(path)

    @pytest.mark.parametrize(
        "head",
        [new_head("regression_20", in_dim=2, seed=1), new_head("classifier_C", in_dim=2, seed=1, z=2, c_v=2, c_n=2)],
        ids=["regression_20", "classifier_C"],
    )
    def test_every_truncation_and_bit_flip_is_a_data_error_or_its_own_head(self, tmp_path, head):
        # 4,581 cases of the regression head's 509 bytes, 1,989 of the
        # classifier's 221: a truncation or a flipped header bit raises
        # DataError, and a flipped parameter bit loads the flipped value or,
        # where it is not finite, raises DataError. No other exception.
        path = tmp_path / "h.eghd"
        fileio.save_head(path, head)
        blob = path.read_bytes()
        header = len(blob) - 8 * (head.weight.size + head.bias.size)
        cases = [(blob[:n], False) for n in range(len(blob))]
        cases += [(blob[:i] + bytes([blob[i] ^ 1 << bit]) + blob[i + 1 :], i >= header) for i in range(len(blob)) for bit in range(8)]
        loaded = 0
        for case, parameter in cases:
            path.write_bytes(case)
            try:
                got = fileio.load_head(path)
            except DataError:
                assert not parameter or not np.isfinite(np.frombuffer(case, dtype="<f8", offset=header)).all()
                continue
            assert parameter
            assert np.concatenate((got.weight.ravel(), got.bias)).tobytes() == case[header:]
            loaded += 1
        assert loaded > 0


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        reports = [
            MetricReport(name="mAP", value=0.5, breakdown={"mAP@0.50": 0.5}, count=3, family="percent"),
            MetricReport(name="Action", value=0.84, count=10, family="edit"),
        ]
        path = tmp_path / "r.json"
        fileio.save_reports(path, reports)
        assert fileio.load_reports(path) == reports
        assert path.read_text(encoding="utf-8") == render_reports(reports, "json")

    def test_the_first_missing_key_in_field_order_is_named(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "report/1", "reports": [{"name": "mAP", "family": "percent", "breakdown": {}}]}))
        with pytest.raises(DataError) as info:
            fileio.load_reports(path)
        assert str(info.value) == f"{path}: malformed report file ('value')"

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "mq/1"}))
        with pytest.raises(DataError):
            fileio.load_reports(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("value", 10**401, "value must be finite"),
            ("value", -(10**401), "value must be finite"),
            ("breakdown", {"mAP@0.50": 10**401}, "breakdown must map strings to finite reals"),
            ("value", True, "value must be finite"),
            ("count", True, "count must be an int >= 0"),
            ("count", False, "count must be an int >= 0"),
        ],
        ids=["huge-value", "huge-negative-value", "huge-breakdown", "bool-value", "bool-count", "bool-count-false"],
    )
    def test_bad_numbers_are_one_line_data_errors(self, tmp_path, field, value, message):
        report = {"name": "mAP", "family": "percent", "value": 0.5, "count": 3, "breakdown": {"mAP@0.50": 0.5}}
        report[field] = value
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "report/1", "reports": [report]}))
        with pytest.raises(DataError) as info:
            fileio.load_reports(path)
        text = str(info.value)
        assert text.startswith(f"{path}: malformed report file (") and message in text
        assert "\n" not in text


def test_loads_do_not_warn_on_clean_files(dataset_dir):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fileio.load_mq_gt(dataset_dir / "gt_mq.json")
        fileio.load_nlq_gt(dataset_dir / "gt_nlq.json")
        fileio.load_fhp_gt(dataset_dir / "gt_fhp.json")
        fileio.load_lta_gt(dataset_dir / "gt_lta.json")
        fileio.load_sta_gt(dataset_dir / "gt_sta.json")
        fileio.load_scod_gt(dataset_dir / "gt_scod.json")
        pp = perfect_predictions(generate_synthetic(fileio.load_config(dataset_dir / "config.json")))
        assert set(pp["mq"]) == set(fileio.load_mq_pred(dataset_dir / "pred_mq.json"))


class TestNullForecastFields:
    """In an lta-pred/1 row a null candidates or score_matrix counts as
    absent, as it does for validation."""

    @staticmethod
    def _write(tmp_path, row):
        path = tmp_path / "lta.json"
        path.write_text(json.dumps({"schema": "lta-pred/1", "instances": [row]}))
        return path

    def test_null_candidates_must_be_voted_first(self, tmp_path):
        row = {"video_id": "v", "clip_index": 0, "candidates": None, "score_matrix": {"verb": [[1.0]], "noun": [[1.0]]}}
        with pytest.raises(DataError, match=r"instances\[0\]: no candidates; vote first"):
            fileio.load_lta_pred(self._write(tmp_path, row))

    def test_null_score_matrix_loads_without_scores(self, tmp_path):
        row = {"video_id": "v", "clip_index": 0, "candidates": [[[0, 1]]], "score_matrix": None}
        forecast = fileio.load_lta_pred(self._write(tmp_path, row))[("v", 0)]
        assert forecast.score_matrix is None and forecast.candidates[0][0].noun_id == 1

    def test_null_score_matrix_cannot_be_voted(self, tmp_path):
        row = {"video_id": "v", "clip_index": 0, "candidates": [[[0, 1]]], "score_matrix": None}
        with pytest.raises(DataError, match="voting needs a score_matrix per clip"):
            fileio.load_lta_clip_probs(self._write(tmp_path, row))


@pytest.mark.parametrize("enabled", [True, False])
def test_loads_leave_the_garbage_collector_as_they_found_it(dataset_dir, tmp_path, enabled):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "mq/1", "instances": []}))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        fileio.load_mq_gt(dataset_dir / "gt_mq.json")
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError):
            fileio.load_mq_gt(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
