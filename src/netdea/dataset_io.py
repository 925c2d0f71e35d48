"""Dataset ingestion from delimited text and report serialization.

Input files are comma-separated with a header row. Column roles come from
the header: ``id`` labels the DMU identifier, ``name`` an optional display
name, and ``x1..xm``, ``z1..zp``, ``y1..ys`` the input, intermediate, and
output columns. Roles can also be given explicitly as ColumnSpec values
for files with other headers. Cell-level problems raise errors that carry
the offending row, column, and role.

Reports render three ways: ``table`` for terminals (scores rounded with
ranks in parentheses, e.g. ``0.4973(1)``), ``csv`` and ``json`` with
full-precision scores and integer ranks for downstream tools.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .analysis import AnalysisReport, RankTable
from .errors import ParseError, SchemaError, ValidationError
from .models import Dataset, SolverConfig

#: File name of the bundled 13-institute example dataset.
BUNDLED_DATASET_NAME = "iims_2020_21.csv"

_ROLE_PATTERN = re.compile(r"^([xzy])[0-9]+$")


class ColumnRole(enum.Enum):
    ID = "id"
    NAME = "name"
    INPUT = "input"
    INTERMEDIATE = "intermediate"
    OUTPUT = "output"


_ROLE_BY_PREFIX = {"x": ColumnRole.INPUT, "z": ColumnRole.INTERMEDIATE,
                   "y": ColumnRole.OUTPUT}
_MATRIX_ROLES = (ColumnRole.INPUT, ColumnRole.INTERMEDIATE, ColumnRole.OUTPUT)


class ReportFormat(enum.Enum):
    TABLE = "table"
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class ColumnSpec:
    """Maps one file column (0-based index, header label) to its role."""

    role: ColumnRole
    index: int
    label: str

    def __post_init__(self):
        if self.index < 0:
            raise SchemaError(f"column index must be nonnegative, got {self.index}")


def infer_column_specs(header) -> tuple:
    """Derive ColumnSpecs from header labels (id / name / x<i> / z<i> / y<i>)."""
    specs = []
    for index, raw in enumerate(header):
        label = raw.strip()
        key = label.lower()
        if key == "id":
            role = ColumnRole.ID
        elif key == "name":
            role = ColumnRole.NAME
        else:
            match = _ROLE_PATTERN.match(key)
            if not match:
                raise SchemaError(
                    f"unrecognized column header {label!r}; expected id, name, "
                    f"or x/z/y followed by a number",
                    row=1, column=index + 1,
                )
            role = _ROLE_BY_PREFIX[match.group(1)]
        specs.append(ColumnSpec(role=role, index=index, label=label))
    return tuple(specs)


def _check_specs(specs, width: int):
    seen = {}
    for spec in specs:
        if spec.index >= width:
            raise SchemaError(
                f"column spec {spec.label!r} points at index {spec.index}, "
                f"but the header has only {width} columns"
            )
        if spec.index in seen:
            raise SchemaError(
                f"columns {seen[spec.index]!r} and {spec.label!r} share index {spec.index}"
            )
        seen[spec.index] = spec.label
    by_role = {role: [s for s in specs if s.role is role] for role in ColumnRole}
    if len(by_role[ColumnRole.ID]) != 1:
        raise SchemaError(
            f"need exactly one id column, found {len(by_role[ColumnRole.ID])}"
        )
    if len(by_role[ColumnRole.NAME]) > 1:
        raise SchemaError(
            f"need at most one name column, found {len(by_role[ColumnRole.NAME])}"
        )
    for prefix, role in _ROLE_BY_PREFIX.items():
        if not by_role[role]:
            raise SchemaError(f"no {role.value} column (header prefix "
                              f"{prefix!r}) in the dataset")
    return by_role


def _parse_cell(raw: str, line: int, spec: ColumnSpec) -> float:
    text = raw.strip()
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"non-numeric value {raw!r} in column {spec.label!r}",
            row=line, column=spec.index + 1, role=spec.role.value,
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"non-finite value {raw!r} in column {spec.label!r}",
            row=line, column=spec.index + 1, role=spec.role.value,
        )
    if value <= 0:
        raise ValidationError(
            f"value {value} in column {spec.label!r} must be strictly positive",
            row=line, column=spec.index + 1, role=spec.role.value,
        )
    return value


def parse_dataset(text: str, column_specs=None) -> Dataset:
    """Parse comma-separated text (header first) into a Dataset.

    Roles are inferred from the header unless column_specs is given. Raises
    ParseError for malformed cells, ValidationError for values <= 0 (both
    with 1-based row/column coordinates), and SchemaError for structural
    problems such as a missing role class or duplicate DMU ids.
    """
    rows = [(line, row) for line, row in
            enumerate(csv.reader(io.StringIO(text)), start=1) if row]
    if not rows:
        raise SchemaError("empty input: missing header row")
    _, header = rows[0]
    specs = tuple(column_specs) if column_specs is not None else infer_column_specs(header)
    by_role = _check_specs(specs, len(header))

    id_spec = by_role[ColumnRole.ID][0]
    name_spec = by_role[ColumnRole.NAME][0] if by_role[ColumnRole.NAME] else None

    ids, names = [], []
    matrices = {role: [] for role in _MATRIX_ROLES}
    seen_ids = {}
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"row has {len(row)} fields, header has {len(header)}", row=line
            )
        dmu_id = row[id_spec.index].strip()
        if not dmu_id:
            raise ParseError("empty DMU id", row=line,
                             column=id_spec.index + 1, role=ColumnRole.ID.value)
        if dmu_id in seen_ids:
            raise SchemaError(
                f"duplicate DMU id {dmu_id!r} (rows {seen_ids[dmu_id]} and {line})",
                row=line, column=id_spec.index + 1, role=ColumnRole.ID.value,
            )
        seen_ids[dmu_id] = line
        ids.append(dmu_id)
        names.append(row[name_spec.index].strip() if name_spec else dmu_id)
        for role in _MATRIX_ROLES:
            matrices[role].append(
                [_parse_cell(row[s.index], line, s) for s in by_role[role]]
            )

    return Dataset(
        dmu_ids=tuple(ids),
        dmu_names=tuple(names),
        X=matrices[ColumnRole.INPUT],
        Z=matrices[ColumnRole.INTERMEDIATE],
        Y=matrices[ColumnRole.OUTPUT],
    )


def load_dataset(path, column_specs=None) -> Dataset:
    """Read a dataset file (UTF-8, with or without a byte-order mark) and
    parse it."""
    with open(path, encoding="utf-8-sig") as handle:
        return parse_dataset(handle.read(), column_specs)


def load_bundled_dataset() -> Dataset:
    """Load the packaged 13-DMU example dataset (3 inputs, 1 intermediate,
    1 output; management institutes, 2020-21 figures)."""
    text = resources.files("netdea").joinpath(f"data/{BUNDLED_DATASET_NAME}")
    return parse_dataset(text.read_text(encoding="utf-8"))


def bundled_dataset_path() -> str:
    """Filesystem path of the bundled dataset (for CLI defaults and docs)."""
    return str(resources.files("netdea").joinpath(f"data/{BUNDLED_DATASET_NAME}"))


def _format_number(value: float) -> str:
    # repr round-trips floats exactly, so re-parsing a rendered file
    # reproduces the matrices bit for bit.
    return repr(float(value))


def render_dataset(data: Dataset) -> str:
    """Render a Dataset back to comma-separated text (full precision)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["id", "name"]
        + [f"x{i + 1}" for i in range(data.m)]
        + [f"z{i + 1}" for i in range(data.p)]
        + [f"y{i + 1}" for i in range(data.s)]
    )
    for row, dmu_id in enumerate(data.dmu_ids):
        writer.writerow(
            [dmu_id, data.dmu_names[row]]
            + [_format_number(v) for v in data.X[row]]
            + [_format_number(v) for v in data.Z[row]]
            + [_format_number(v) for v in data.Y[row]]
        )
    return out.getvalue()


#: Decimals of the scores in the table format. DEFAULT_RANK_TIE_TOL (5e-5)
#: is half a unit in this last place, so ranks agree with the printed
#: table; change the two together.
SCORE_DECIMALS = 4

_SECTIONS = ("relational", "ccr")

#: Placeholder rho for reports that print no rho line at all.
_NO_RHO = object()


class _Column(NamedTuple):
    """One ranked score column of a report and its name in each format;
    csv_keys and json_keys are (score key, rank key)."""

    section: str
    title: str
    csv_keys: tuple
    json_keys: tuple
    table: RankTable


def _display_score(value: float) -> str:
    rounded = round(float(value), SCORE_DECIMALS)
    if rounded == round(rounded):
        return str(int(round(rounded)))
    return f"{rounded:.{SCORE_DECIMALS}f}"


def _normalize_format(fmt) -> ReportFormat:
    if isinstance(fmt, ReportFormat):
        return fmt
    try:
        return ReportFormat(str(fmt).lower())
    except ValueError:
        raise ValueError(
            f"unknown report format {fmt!r}; expected one of "
            f"{[f.value for f in ReportFormat]}"
        ) from None


def _normalize_sections(sections) -> tuple:
    picked = tuple(s for s in _SECTIONS if s in tuple(sections))
    if not picked:
        raise ValueError(f"sections must include at least one of {_SECTIONS}")
    unknown = set(sections) - set(_SECTIONS)
    if unknown:
        raise ValueError(f"unknown report sections: {sorted(unknown)}")
    return picked


def _report_columns(report: AnalysisReport, sections) -> list:
    rel = report.relational_table
    columns = []
    if "relational" in sections:
        for title, key, table in (("Overall", "overall", rel.overall),
                                  ("Stage 1", "stage1", rel.stage1),
                                  ("Stage 2", "stage2", rel.stage2)):
            keys = (key, f"rank_{key}")
            columns.append(_Column("relational", title, keys, keys, table))
    if "ccr" in sections:
        csv_keys = ("ccr_score", "ccr_rank") if len(sections) > 1 else ("score", "rank")
        columns.append(_Column("ccr", "CCR", csv_keys, ("score", "rank"),
                               report.ccr_table))
    return columns


def _fields(columns, ranks_only: bool, json_keys: bool) -> dict:
    # Section -> [(key, values)]: csv and json list each section's score
    # fields before its rank fields.
    fields = {}
    for column in columns:
        score_key, rank_key = column.json_keys if json_keys else column.csv_keys
        scores, ranks = fields.setdefault(column.section, ([], []))
        if not ranks_only:
            scores.append((score_key, column.table.scores.tolist()))
        ranks.append((rank_key, column.table.ranks.tolist()))
    return {section: scores + ranks for section, (scores, ranks) in fields.items()}


def _render_table(columns, rho, ranks_only: bool) -> str:
    body = [("DMU", columns[0].table.dmu_ids)]
    for column in columns:
        table = column.table
        if ranks_only:
            body.append((f"{column.title} rank", [str(r) for r in table.ranks]))
        else:
            body.append((column.title, [f"{_display_score(s)}({r})"
                                        for s, r in zip(table.scores, table.ranks)]))

    grid = [[title for title, _ in body], *zip(*(cells for _, cells in body))]
    widths = [max(len(cell) for cell in column) for column in zip(*grid)]
    lines = ["  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                       for i, (cell, w) in enumerate(zip(row, widths))).rstrip()
             for row in grid]
    lines.insert(1, "-" * len(lines[0]))
    if rho is not _NO_RHO:
        shown = "not defined (tied ranks)" if rho is None else f"{rho:.5f}"
        lines.append("")
        lines.append(f"Spearman rank correlation (overall vs CCR): rho = {shown}")
    return "\n".join(lines) + "\n"


def _render_csv(columns, rho, ranks_only: bool) -> str:
    by_section = _fields(columns, ranks_only, json_keys=False)
    fields = [field for section in by_section.values() for field in section]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id"] + [key for key, _ in fields])
    # csv writes floats with repr, so scores keep full precision.
    for row, dmu_id in enumerate(columns[0].table.dmu_ids):
        writer.writerow([dmu_id] + [values[row] for _, values in fields])
    if rho is not _NO_RHO:
        writer.writerow(["spearman_rho", "" if rho is None else rho])
    return out.getvalue()


def _config_payload(cfg: SolverConfig) -> dict:
    return {
        "epsilon": cfg.epsilon,
        "normalize_columns": cfg.normalize_columns,
        "stage_priority": cfg.stage_priority.value,
        "score_decimals": SCORE_DECIMALS,
        "tolerances": {
            "feasibility_tol": cfg.tolerances.feasibility_tol,
            "pivot_tol": cfg.tolerances.pivot_tol,
            "optimality_tol": cfg.tolerances.optimality_tol,
            "max_iterations": cfg.tolerances.max_iterations,
        },
    }


def _render_json(columns, rho, ranks_only: bool, cfg: SolverConfig) -> str:
    payload = {"config": _config_payload(cfg)}
    ids = columns[0].table.dmu_ids
    for section, fields in _fields(columns, ranks_only, json_keys=True).items():
        payload[section] = [
            {"id": dmu_id, **{key: values[row] for key, values in fields}}
            for row, dmu_id in enumerate(ids)
        ]
    if rho is not _NO_RHO:
        payload["spearman_rho"] = rho
    return json.dumps(payload, indent=2) + "\n"


def render_report(report: AnalysisReport, fmt=ReportFormat.TABLE,
                  sections=("relational", "ccr"), include_rho: bool = True,
                  ranks_only: bool = False) -> str:
    """Serialize an AnalysisReport.

    fmt picks the output shape: ``table`` rounds scores to SCORE_DECIMALS
    and appends the rank in parentheses; ``csv`` and ``json`` carry
    full-precision scores and integer rank fields, json additionally
    embedding the solver config. sections restricts output to the
    relational or CCR side; rho is emitted, in every format, only when both
    are present and include_rho is set. ranks_only drops score values,
    keeping the rank columns.
    """
    fmt = _normalize_format(fmt)
    sections = _normalize_sections(sections)
    columns = _report_columns(report, sections)
    rho = report.spearman_rho if include_rho and len(sections) > 1 else _NO_RHO
    if fmt is ReportFormat.TABLE:
        return _render_table(columns, rho, ranks_only)
    if fmt is ReportFormat.CSV:
        return _render_csv(columns, rho, ranks_only)
    return _render_json(columns, rho, ranks_only, report.config_echo)
