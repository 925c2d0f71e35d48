"""Dataset parsing (header roles, cell-located errors), the bundled
dataset, and the three report output formats."""

import csv
import io
import json

import pytest

from netdea import (
    EfficiencyRecord,
    SolverConfig,
    build_report,
    bundled_dataset_path,
    load_dataset,
    parse_dataset,
    render_report,
)
from netdea.dataset_io import BUNDLED_DATASET_NAME
from netdea.errors import ParseError, SchemaError, ValidationError
from netdea.models import ModelKind

MINIMAL = "id,name,x1,z1,y1\nA,Alpha,3,2,6\nB,Beta,4,5,1\n"


def small_report():
    relational = [
        EfficiencyRecord("A", ModelKind.RELATIONAL_TWO_STAGE,
                         overall=0.4973, stage1=0.4973, stage2=1.0),
        EfficiencyRecord("B", ModelKind.RELATIONAL_TWO_STAGE,
                         overall=0.7147 * 0.17277, stage1=0.7147, stage2=0.17277),
    ]
    ccr = [
        EfficiencyRecord("A", ModelKind.CCR, overall=1.0),
        EfficiencyRecord("B", ModelKind.CCR, overall=0.4067),
    ]
    return build_report(relational, ccr, SolverConfig())


class TestParse:
    def test_minimal_file(self):
        data = parse_dataset(MINIMAL)
        assert data.n == 2 and data.m == data.p == data.s == 1
        assert data.dmu_ids == ("A", "B")
        assert data.dmu_names == ("Alpha", "Beta")
        assert data.X[1, 0] == 4.0 and data.Z[0, 0] == 2.0 and data.Y[1, 0] == 1.0

    def test_name_column_optional(self):
        data = parse_dataset("id,x1,z1,y1\nA,3,2,6\nB,4,5,1\n")
        assert data.dmu_names == ("A", "B")

    def test_quoted_names_with_commas(self):
        text = 'id,name,x1,z1,y1\nA,"Alpha, the first",3,2,6\nB,Beta,4,5,1\n'
        assert parse_dataset(text).dmu_names[0] == "Alpha, the first"

    def test_header_case_and_spacing(self):
        data = parse_dataset("ID, Name, X1, Z1, Y1\nA,Alpha,3,2,6\nB,Beta,4,5,1\n")
        assert data.m == 1 and data.dmu_names == ("Alpha", "Beta")

    def test_multi_column_roles(self):
        text = ("id,x1,x2,z1,y1,y2\n"
                "A,1,2,3,4,5\n"
                "B,6,7,8,9,10\n")
        data = parse_dataset(text)
        assert (data.m, data.p, data.s) == (2, 1, 2)
        assert data.X[1].tolist() == [6.0, 7.0]

    def test_non_numeric_cell_coordinates(self):
        text = "id,name,x1,z1,y1\nA,Alpha,3,2,6\nB,Beta,4,oops,1\n"
        with pytest.raises(ParseError) as excinfo:
            parse_dataset(text)
        err = excinfo.value
        assert (err.row, err.column, err.role) == (3, 4, "intermediate")

    def test_zero_cell_coordinates(self):
        text = "id,name,x1,z1,y1\nA,Alpha,3,0,6\nB,Beta,4,5,1\n"
        with pytest.raises(ValidationError) as excinfo:
            parse_dataset(text)
        err = excinfo.value
        assert (err.row, err.column, err.role) == (2, 4, "intermediate")
        assert "z1" in str(err)

    def test_missing_role_class(self):
        with pytest.raises(SchemaError, match="output"):
            parse_dataset("id,name,x1,z1\nA,Alpha,3,2\nB,Beta,4,5\n")

    def test_unknown_header(self):
        with pytest.raises(SchemaError, match="unrecognized"):
            parse_dataset("id,name,x1,z1,y1,bogus\nA,a,1,1,1,1\nB,b,1,1,1,1\n")

    def test_duplicate_ids(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_dataset("id,name,x1,z1,y1\nA,a,1,1,1\nA,b,2,2,2\n")

    def test_empty_id(self):
        with pytest.raises(ParseError, match="empty DMU id"):
            parse_dataset("id,name,x1,z1,y1\nA,a,1,1,1\n ,b,2,2,2\n")

    def test_ragged_row(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dataset("id,name,x1,z1,y1\nA,a,1,1,1\nB,b,2,2\n")
        assert excinfo.value.row == 3

    def test_empty_text(self):
        with pytest.raises(SchemaError, match="header"):
            parse_dataset("")

    def test_no_id_column(self):
        with pytest.raises(SchemaError, match="id column"):
            parse_dataset("name,x1,z1,y1\na,1,1,1\nb,2,2,2\n")

    @pytest.mark.parametrize("header", ["id,x1,x1,z1,y1", "id,x1, X1 ,z1,y1"])
    def test_repeated_header(self, header):
        with pytest.raises(SchemaError, match="repeated") as excinfo:
            parse_dataset(header + "\nA,1,2,3,4\nB,5,6,7,8\n")
        assert (excinfo.value.row, excinfo.value.column) == (1, 3)


class TestBundledDataset:
    def test_shape_and_cells(self):
        data = load_dataset(bundled_dataset_path())
        assert (data.n, data.m, data.p, data.s) == (13, 3, 1, 1)
        assert data.dmu_ids[0] == "D1" and data.dmu_ids[-1] == "D13"
        assert data.X[0, 0] == 2783060307.0
        assert data.X[4, 0] == 1323781000.0
        assert data.Y[12, 0] == 696200.0

    def test_path_points_at_csv(self):
        path = bundled_dataset_path()
        assert path.endswith(BUNDLED_DATASET_NAME)
        with open(path, encoding="utf-8") as handle:
            assert handle.readline().strip() == "id,name,x1,x2,x3,z1,y1"


class TestTableFormat:
    def test_scores_carry_ranks_in_parentheses(self):
        text = render_report(small_report(), "table")
        lines = text.splitlines()
        assert lines[0].split() == ["DMU", "Overall", "Stage", "1",
                                    "Stage", "2", "CCR"]
        row_a = lines[2]
        assert row_a.startswith("A")
        assert "0.4973(1)" in row_a and "1(1)" in row_a
        assert "0.7147(1)" in lines[3]

    def test_unity_scores_render_without_decimals(self):
        text = render_report(small_report(), "table")
        assert "1(1)" in text and "1.0000(" not in text

    def test_rho_line_present_only_with_both_sections(self):
        report = small_report()
        assert "rho" in render_report(report, "table")
        assert "rho" not in render_report(report, "table", sections=("relational",))
        assert "rho" not in render_report(report, "table", include_rho=False)


class TestCsvFormat:
    def test_full_precision_round_trip(self):
        report = small_report()
        text = render_report(report, "csv")
        rows = [r for r in csv.reader(io.StringIO(text))
                if r and r[0] != "spearman_rho"]
        header, *body = rows
        by_id = {row[0]: dict(zip(header, row)) for row in body}
        overall = report.relational_table.overall
        for i, dmu in enumerate(overall.dmu_ids):
            assert float(by_id[dmu]["overall"]) == overall.scores[i]
            assert int(by_id[dmu]["rank_overall"]) == overall.ranks[i]
            assert float(by_id[dmu]["ccr_score"]) == report.ccr_table.scores[i]

    def test_rho_row_appended(self):
        text = render_report(small_report(), "csv")
        last = text.strip().splitlines()[-1].split(",")
        assert last[0] == "spearman_rho"
        assert float(last[1]) == small_report().spearman_rho

    def test_single_section_headers(self):
        text = render_report(small_report(), "csv", sections=("ccr",))
        assert text.splitlines()[0] == "id,score,rank"

    def test_ranks_only(self):
        text = render_report(small_report(), "csv", ranks_only=True)
        header = text.splitlines()[0].split(",")
        assert "overall" not in header and "rank_overall" in header
        # rho is a rank statistic, so ranks-only output keeps it in every format
        assert text.splitlines()[-1].startswith("spearman_rho,")


class TestJsonFormat:
    def test_exact_schema(self):
        payload = json.loads(render_report(small_report(), "json"))
        assert sorted(payload) == ["ccr", "config", "relational", "spearman_rho"]
        assert list(payload["relational"][0]) == [
            "id", "overall", "stage1", "stage2",
            "rank_overall", "rank_stage1", "rank_stage2",
        ]
        assert list(payload["ccr"][0]) == ["id", "score", "rank"]
        assert payload["config"]["epsilon"] == 1e-6
        assert payload["config"]["stage_priority"] == "second"
        assert payload["spearman_rho"] == small_report().spearman_rho

    def test_full_precision_scores(self):
        report = small_report()
        payload = json.loads(render_report(report, "json"))
        assert payload["relational"][1]["stage2"] == 0.17277
        assert payload["ccr"][1]["score"] == 0.4067

    def test_sections_respected(self):
        payload = json.loads(render_report(small_report(), "json",
                                           sections=("relational",)))
        assert "ccr" not in payload and "spearman_rho" not in payload


class TestRenderValidation:
    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render_report(small_report(), "yaml")

    def test_unknown_section(self):
        with pytest.raises(ValueError, match="sections"):
            render_report(small_report(), "table", sections=("bogus",))
