"""End-to-end CLI behavior: subcommands, formats, exit codes."""

import csv
import io
import itertools
import json

import numpy as np
import pytest

from netdea import bundled_dataset_path
from netdea.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
)

BUNDLED = bundled_dataset_path()


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("id,name,x1,z1,y1\nA,Alpha,1,2,4\nB,Beta,2,1,1\n",
                    encoding="utf-8")
    return str(path)


class TestValidate:
    def test_bundled_dimensions(self, capsys):
        code, out, err = run_cli(["validate", "--data", BUNDLED], capsys)
        assert code == EXIT_OK
        assert out.strip() == "13 DMUs, 3 inputs, 1 intermediate, 1 output"
        assert err == ""

    def test_singular_nouns(self, tiny_csv, capsys):
        code, out, _ = run_cli(["validate", "--data", tiny_csv], capsys)
        assert code == EXIT_OK
        assert out.strip() == "2 DMUs, 1 input, 1 intermediate, 1 output"

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 BOM.
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfid,name,x1,z1,y1\nA,Alpha,1,2,4\nB,Beta,2,1,1\n")
        code, out, err = run_cli(["validate", "--data", str(path)], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out.strip() == "2 DMUs, 1 input, 1 intermediate, 1 output"


class TestSolve:
    def test_relational_table_shape(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--data", BUNDLED, "--model", "relational"], capsys)
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert "Overall" in header and "Stage 1" in header and "Stage 2" in header
        assert "CCR" not in header
        assert "rho" not in out

    def test_ccr_csv_column(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--data", BUNDLED, "--model", "ccr", "--format", "csv"],
            capsys)
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["id", "score", "rank"]
        assert len(rows) == 14

    def test_default_model_is_both(self, capsys):
        code, out, _ = run_cli(["solve", "--data", BUNDLED], capsys)
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert "Overall" in header and "CCR" in header

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["solve", "--data", BUNDLED, "--format", "json",
             "--out", str(target)], capsys)
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert {"config", "relational", "ccr"} <= set(payload)


class TestCompare:
    def test_table_reports_rho(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--data", BUNDLED, "--format", "table"], capsys)
        assert code == EXIT_OK
        assert "0.91758" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--data", BUNDLED, "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert sorted(payload) == ["ccr", "config", "relational", "spearman_rho"]
        assert payload["spearman_rho"] == pytest.approx(0.91758, abs=1e-5)

    def test_epsilon_environment_variable_is_ignored(self, monkeypatch, capsys):
        # --epsilon is the one way to choose epsilon for a run.
        monkeypatch.setenv("NETDEA_EPSILON", "1e-4")
        code, out, _ = run_cli(
            ["compare", "--data", BUNDLED, "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["config"]["epsilon"] == 1e-6

    def test_determinism(self, capsys):
        _, first, _ = run_cli(["compare", "--data", BUNDLED], capsys)
        _, second, _ = run_cli(["compare", "--data", BUNDLED], capsys)
        assert first == second


class TestRank:
    def test_ranks_only_csv(self, capsys):
        code, out, _ = run_cli(
            ["rank", "--data", BUNDLED, "--format", "csv"], capsys)
        assert code == EXIT_OK
        header = out.splitlines()[0].split(",")
        assert "rank_overall" in header and "overall" not in header
        assert "spearman_rho" not in out

    def test_rank_model_filter(self, capsys):
        code, out, _ = run_cli(
            ["rank", "--data", BUNDLED, "--model", "ccr", "--format", "csv"],
            capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "id,rank"


class TestStagePriorityFlag:
    def test_overall_column_unchanged(self, capsys):
        outputs = {}
        for which in ("first", "second"):
            code, out, _ = run_cli(
                ["solve", "--data", BUNDLED, "--stage-priority", which,
                 "--format", "csv"], capsys)
            assert code == EXIT_OK
            rows = list(csv.DictReader(io.StringIO(out)))
            outputs[which] = rows
        for a, b in zip(outputs["first"], outputs["second"]):
            assert a["id"] == b["id"]
            assert float(a["overall"]) == pytest.approx(
                float(b["overall"]), abs=1e-9)
        # the split itself may differ; stage 1 must not get worse
        for a, b in zip(outputs["first"], outputs["second"]):
            assert float(a["stage1"]) >= float(b["stage1"]) - 1e-7


class TestErrorPaths:
    def test_bad_cell_exits_3_with_coordinates(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,name,x1,z1,y1\nA,a,3,2,-1\nB,b,4,5,6\n",
                       encoding="utf-8")
        code, out, err = run_cli(["solve", "--data", str(bad)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert "row 2" in err and "column 5" in err

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(["solve", "--data", "/no/such/file.csv"], capsys)
        assert code == EXIT_DATA
        assert "file" in err

    def test_non_utf8_file_exits_3(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("id,name,x1,z1,y1\nA,Caf\u00e9,1,2,4\nB,b,2,1,1\n"
                           .encode("latin-1"))
        code, out, err = run_cli(["validate", "--data", str(latin1)], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("netdea: dataset error: ")
        assert "not UTF-8 text" in err

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "r.txt"
        code, out, err = run_cli(
            ["compare", "--data", BUNDLED, "--out", str(target)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"netdea: cannot write report to {target}: ")
        assert "data file" not in err

    def test_oversized_epsilon_exits_4_naming_dmu(self, capsys):
        code, _, err = run_cli(
            ["solve", "--data", BUNDLED, "--epsilon", "0.5"], capsys)
        assert code == EXIT_SOLVER
        assert err == ("netdea: relational model for DMU D1: LP infeasible; "
                       "epsilon=0.5 is too large for the normalized data\n")

    def test_singular_basis_exits_4_naming_dmu(self, monkeypatch, capsys):
        # The final basis of one LP, DMU D2's relational overall LP, is
        # singular: the run stops with the solver's exit code, not a
        # traceback.
        solve, calls = np.linalg.solve, itertools.count()

        def singular_once(*args):
            if next(calls) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        code, out, err = run_cli(["compare", "--data", BUNDLED], capsys)
        assert (code, out) == (EXIT_SOLVER, "")
        assert err == ("netdea: relational model for DMU D2: "
                       "solver returned numerical_failure\n")

    def test_epsilon_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["solve", "--data", BUNDLED, "--epsilon", "2"], capsys)
        assert code == 2
        assert "epsilon must be in (0, 1), got 2.0" in err

    def test_epsilon_digit_separator_is_usage_error(self, capsys):
        # float() reads "1_0e-7" as 1e-6; a dataset cell rejects it too.
        code, out, err = run_cli(
            ["solve", "--data", BUNDLED, "--epsilon", "1_0e-7"], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "invalid epsilon '1_0e-7'" in err

    def test_missing_data_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["solve"], capsys)
        assert code == 2
        assert "--data" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, *_ = run_cli(["frobnicate"], capsys)
        assert code == 2
