"""Dataset ingestion from delimited text and report serialization.

Input files are comma-separated with a header row. Column roles come from
the header: ``id`` labels the DMU identifier, ``name`` an optional display
name, and ``x1..xm``, ``z1..zp``, ``y1..ys`` the input, intermediate, and
output columns. Cell-level problems raise errors that carry the offending
row, column, and role.

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
from importlib import resources
from typing import NamedTuple

from .analysis import AnalysisReport, RankTable
from .errors import ParseError, SchemaError, ValidationError
from .models import Dataset, SolverConfig

#: File name of the bundled 13-institute example dataset.
BUNDLED_DATASET_NAME = "iims_2020_21.csv"

_ROLE_PATTERN = re.compile(r"^([xzy])[0-9]+$")

#: Header prefix -> role of a matrix column, in Dataset matrix order.
_ROLE_BY_PREFIX = {"x": "input", "z": "intermediate", "y": "output"}


class ReportFormat(enum.Enum):
    TABLE = "table"
    CSV = "csv"
    JSON = "json"


def _header_roles(labels) -> list:
    """Role of each column: "id", "name", or a value of _ROLE_BY_PREFIX.

    Raises SchemaError for an unknown or repeated label (case and
    surrounding whitespace ignored) and for a missing id or matrix role.
    """
    roles = []
    seen = {}
    for index, label in enumerate(labels):
        key = label.lower()
        if key in seen:
            raise SchemaError(
                f"repeated column header {label!r} (columns {seen[key]} and "
                f"{index + 1})", row=1, column=index + 1,
            )
        seen[key] = index + 1
        match = _ROLE_PATTERN.match(key)
        if key in ("id", "name"):
            roles.append(key)
        elif match:
            roles.append(_ROLE_BY_PREFIX[match.group(1)])
        else:
            raise SchemaError(
                f"unrecognized column header {label!r}; expected id, name, "
                f"or x/z/y followed by a number",
                row=1, column=index + 1,
            )
    if "id" not in roles:
        raise SchemaError("need exactly one id column, found 0")
    for prefix, role in _ROLE_BY_PREFIX.items():
        if role not in roles:
            raise SchemaError(f"no {role} column (header prefix "
                              f"{prefix!r}) in the dataset")
    return roles


def _parse_cell(raw: str, line: int, index: int, label: str, role: str) -> float:
    where = {"row": line, "column": index + 1, "role": role}
    text = raw.strip()
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"non-numeric value {raw!r} in column {label!r}", **where
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {raw!r} in column {label!r}", **where)
    if value <= 0:
        raise ValidationError(
            f"value {value} in column {label!r} must be strictly positive", **where
        )
    return value


def parse_dataset(text: str) -> Dataset:
    """Parse comma-separated text (header first) into a Dataset.

    Roles come from the header. Raises ParseError for malformed cells,
    ValidationError for values <= 0 (both with 1-based row/column
    coordinates), and SchemaError for structural problems such as an
    unknown or repeated header, a missing role class or duplicate DMU ids.
    """
    rows = [(line, row) for line, row in
            enumerate(csv.reader(io.StringIO(text)), start=1) if row]
    if not rows:
        raise SchemaError("empty input: missing header row")
    labels = [raw.strip() for raw in rows[0][1]]
    roles = _header_roles(labels)
    id_index = roles.index("id")
    name_index = roles.index("name") if "name" in roles else id_index
    matrix_columns = {role: [i for i, r in enumerate(roles) if r == role]
                      for role in _ROLE_BY_PREFIX.values()}

    ids, names = [], []
    matrices = {role: [] for role in matrix_columns}
    seen_ids = {}
    for line, row in rows[1:]:
        if len(row) != len(labels):
            raise ParseError(
                f"row has {len(row)} fields, header has {len(labels)}", row=line
            )
        dmu_id = row[id_index].strip()
        if not dmu_id:
            raise ParseError("empty DMU id", row=line,
                             column=id_index + 1, role="id")
        if dmu_id in seen_ids:
            raise SchemaError(
                f"duplicate DMU id {dmu_id!r} (rows {seen_ids[dmu_id]} and {line})",
                row=line, column=id_index + 1, role="id",
            )
        seen_ids[dmu_id] = line
        ids.append(dmu_id)
        names.append(row[name_index].strip())
        for role, columns in matrix_columns.items():
            matrices[role].append(
                [_parse_cell(row[i], line, i, labels[i], role) for i in columns]
            )

    X, Z, Y = matrices.values()
    return Dataset(dmu_ids=tuple(ids), dmu_names=tuple(names), X=X, Z=Z, Y=Y)


def load_dataset(path) -> Dataset:
    """Read a dataset file (UTF-8, with or without a byte-order mark) and
    parse it. A file that is not UTF-8 text raises ParseError."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_dataset(text)


def bundled_dataset_path() -> str:
    """Filesystem path of the bundled 13-DMU example dataset (3 inputs, 1
    intermediate, 1 output; management institutes, 2020-21 figures)."""
    return str(resources.files("netdea").joinpath(f"data/{BUNDLED_DATASET_NAME}"))


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
