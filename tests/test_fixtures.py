import csv
import io
import json
from dataclasses import replace

import pytest

from egoforge.fixtures import FIXTURES, SPLITS, fixture
from egoforge.metrics import MetricReport
from egoforge.render import format_value, render_fixture, render_reports


class TestTables:
    def test_all_six_present(self):
        assert set(FIXTURES) == {
            "hands-results",
            "longterm-results",
            "mq-two-stage",
            "nlq-performance",
            "short-term",
            "scod-performance",
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("imaginary")

    def test_cell_lookup(self):
        t = fixture("hands-results")
        assert t.cell("val", "UniFormer-B (320,8,30)", "L-M.Disp") == 43.25
        assert t.cell("test", "VideoMAE-L (224,16,1)", "L-M.Disp") is None

    def test_longterm_best_action(self):
        t = fixture("longterm-results")
        assert t.cell("val", "VideoMAE-L E2E+MC OW=16", "Action") == 0.840
        # Widening the window improves every column monotonically.
        rows = [f"VideoMAE-L E2E+MC OW={w}" for w in (2, 4, 8, 16)]
        for metric in t.metrics:
            vals = [t.cell("val", r, metric) for r in rows]
            assert vals == sorted(vals, reverse=True)

    def test_mq_two_stage_values(self):
        t = fixture("mq-two-stage")
        assert t.cell("val", "K700->Verb->MQ + ActionFormer", "Recall@1x tIoU=0.5") == 40.36
        assert t.cell("val", "K700->Verb->MQ + ActionFormer", "mAP") == 23.29

    def test_nlq_fusion_rows_improve(self):
        t = fixture("nlq-performance")
        for metric in t.metrics:
            base = t.cell("val", "A: EgoVLP baseline", metric)
            fused = t.cell("val", "F: D+E post-fusion", metric)
            assert fused > base

    def test_families(self):
        assert fixture("hands-results").family == "pixels"
        assert fixture("longterm-results").family == "edit"
        assert fixture("short-term").family == "percent"


class TestFormatValue:
    def test_percent_two_decimals(self):
        assert format_value(8.5, "percent") == "8.50"
        assert format_value(43.25, "pixels") == "43.25"

    def test_edit_three_decimals(self):
        assert format_value(0.84, "edit") == "0.840"

    def test_missing(self):
        assert format_value(None, "percent") == "-"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            format_value(1.0, "parsecs")


class TestRenderFixture:
    def test_plain_contains_published_numbers(self):
        text = render_fixture(fixture("hands-results"))
        assert "43.25" in text
        assert "52.65" in text
        text = render_fixture(fixture("longterm-results"))
        assert "0.840" in text

    def test_plain_deterministic(self):
        for name in FIXTURES:
            a = render_fixture(fixture(name))
            b = render_fixture(fixture(name))
            assert a == b

    def test_missing_cells_render_dash(self):
        text = render_fixture(fixture("scod-performance"))
        assert " -" in text

    def test_csv_parses_with_commas_in_method_names(self):
        text = render_fixture(fixture("hands-results"), fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["split", "method", "L-M.Disp", "L-C.Disp", "R-M.Disp", "R-C.Disp"]
        assert rows[1][1] == "I3D (224,16,30)"
        assert rows[1][2] == "54.11"
        assert len(rows) == 1 + 2 * 5

    def test_json_is_the_tables_fields_in_order(self):
        for name, t in FIXTURES.items():
            payload = {
                "name": t.name,
                "family": t.family,
                "metrics": list(t.metrics),
                "rows": list(t.rows),
                "cells": {split: [list(r) for r in t.cells[split]] for split in SPLITS},
            }
            assert render_fixture(t, fmt="json") == json.dumps(payload, indent=2) + "\n", name

    def test_cells_are_kept_in_split_order(self):
        table = fixture("hands-results")
        swapped = replace(table, cells=dict(reversed(table.cells.items())))
        assert list(swapped.cells) == list(SPLITS)
        assert swapped == table
        assert render_fixture(swapped, fmt="json") == render_fixture(table, fmt="json")

    def test_json_round_trips(self):
        payload = json.loads(render_fixture(fixture("short-term"), fmt="json"))
        assert payload["family"] == "percent"
        assert payload["cells"]["val"][3][1] == 8.5

    def test_splits_both_rendered(self):
        text = render_fixture(fixture("mq-two-stage"))
        assert "[val]" in text
        assert "[test]" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_fixture(fixture("mq-two-stage"), fmt="tsv")


class TestRenderReports:
    def _reports(self):
        return [
            MetricReport(
                name="mAP",
                value=0.2329,
                breakdown={"mAP@0.10": 0.30, "mAP@0.50": 0.17},
                count=100,
                family="percent",
            ),
            MetricReport(name="Action", value=0.84, count=50, family="edit"),
            MetricReport(name="L-M.Disp", value=43.25, count=50, family="pixels"),
        ]

    def test_plain_scales_percent(self):
        text = render_reports(self._reports())
        assert "mAP: 23.29 (n=100)" in text
        assert "  mAP@0.10: 30.00" in text
        assert "Action: 0.840 (n=50)" in text
        assert "L-M.Disp: 43.25 (n=50)" in text

    def test_csv(self):
        rows = list(csv.reader(io.StringIO(render_reports(self._reports(), fmt="csv"))))
        assert rows[0] == ["name", "metric", "value", "count"]
        assert rows[1] == ["mAP", "overall", "23.29", "100"]
        assert rows[2] == ["mAP", "mAP@0.10", "30.00", ""]

    def test_an_unknown_format_is_refused(self):
        with pytest.raises(ValueError) as refused:
            render_reports(self._reports(), "xml")
        assert str(refused.value) == "unknown format 'xml'"

    def test_json_keeps_raw_fractions(self):
        payload = json.loads(render_reports(self._reports(), fmt="json"))
        assert payload["schema"] == "report/1"
        assert payload["reports"][0]["value"] == 0.2329
