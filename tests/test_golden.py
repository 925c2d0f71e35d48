"""Byte-for-byte characterization of every report the CLI prints.

The files under tests/golden/ hold the stdout of ``netdea`` on the bundled
dataset for each command, model filter and format, plus the three
renderings of a hand-built report whose overall ranks are tied (rho
undefined). Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from netdea import (
    EfficiencyRecord,
    build_report,
    bundled_dataset_path,
    render_report,
)
from netdea.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "csv", "json")
COMMANDS = [("compare", None)] + [
    (command, model)
    for command in ("solve", "rank")
    for model in ("both", "relational", "ccr")
]
CASES = [(command, model, fmt) for command, model in COMMANDS for fmt in FORMATS]


def _name(command, model, fmt) -> str:
    return f"{command}-{model}.{fmt}" if model else f"{command}.{fmt}"


def _cli_output(command, model, fmt) -> str:
    argv = [command, "--data", bundled_dataset_path(), "--format", fmt]
    if model:
        argv += ["--model", model]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def tied_report():
    # A and B tie on overall, so the rank vectors have ties and rho is None.
    relational = [
        EfficiencyRecord("A", overall=0.5, stage1=0.5, stage2=1.0),
        EfficiencyRecord("B", overall=0.5, stage1=1.0, stage2=0.5),
        EfficiencyRecord("C", overall=0.25, stage1=0.5, stage2=0.5),
    ]
    ccr = [
        EfficiencyRecord("A", overall=1.0),
        EfficiencyRecord("B", overall=0.75),
        EfficiencyRecord("C", overall=0.3),
    ]
    return build_report(relational, ccr)


def _expected(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("command,model,fmt", CASES,
                         ids=[_name(*case) for case in CASES])
def test_cli_output_matches_golden(command, model, fmt):
    assert _cli_output(command, model, fmt) == _expected(_name(command, model, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_tied_report_matches_golden(fmt):
    report = tied_report()
    assert report.spearman_rho is None
    assert render_report(report, fmt) == _expected(f"tied.{fmt}")


def test_tied_golden_files_show_undefined_rho():
    assert _expected("tied.table").endswith(
        "rho = not defined (tied ranks)\n")
    assert _expected("tied.csv").endswith("spearman_rho,\n")
    assert _expected("tied.json").endswith('"spearman_rho": null\n}\n')


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / _name(*case)).write_text(_cli_output(*case), encoding="utf-8")
    for fmt in FORMATS:
        (GOLDEN / f"tied.{fmt}").write_text(render_report(tied_report(), fmt),
                                            encoding="utf-8")
