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
import io
import json
import math
import re
from importlib import resources

from .analysis import SCORE_DECIMALS, SECTIONS, AnalysisReport
from .errors import ParseError, SchemaError, ValidationError
from .lp_core import FEASIBILITY_TOL, MAX_ITERATIONS, OPTIMALITY_TOL, PIVOT_TOL
from .models import Dataset, SolverConfig

#: File name of the bundled 13-institute example dataset.
BUNDLED_DATASET_NAME = "iims_2020_21.csv"

_ROLE_PATTERN = re.compile(r"^([xzy])[0-9]+$")

#: Header prefix -> role of a matrix column, in Dataset matrix order.
_ROLE_BY_PREFIX = {"x": "input", "z": "intermediate", "y": "output"}


def _header_roles(labels, line: int) -> list:
    """Role of each column: "id", "name", or a value of _ROLE_BY_PREFIX.

    Raises SchemaError for an unknown or repeated label (case and
    surrounding whitespace ignored), located at the header's line number,
    and for a missing id or matrix role.
    """
    roles = []
    seen = {}
    for index, label in enumerate(labels):
        key = label.lower()
        if key in seen:
            raise SchemaError(
                f"repeated column header {label!r} (columns {seen[key]} and "
                f"{index + 1})", row=line, column=index + 1,
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
                row=line, column=index + 1,
            )
    if "id" not in roles:
        raise SchemaError("need exactly one id column, found 0")
    for prefix, role in _ROLE_BY_PREFIX.items():
        if role not in roles:
            raise SchemaError(f"no {role} column (header prefix "
                              f"{prefix!r}) in the dataset")
    return roles


def parse_number(text: str) -> float:
    """float(text), but "1_5", which float() reads as 15.0, raises ValueError."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return float(text)


def _parse_cell(raw: str, line: int, index: int, label: str, role: str) -> float:
    where = {"row": line, "column": index + 1, "role": role}
    try:
        value = parse_number(raw)
    except ValueError:
        raise ParseError(f"non-numeric value {raw!r} in column {label!r}", **where) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {raw!r} in column {label!r}", **where)
    if value <= 0:
        raise ValidationError(
            f"value {value} in column {label!r} must be strictly positive", **where
        )
    return value


def parse_dataset(text: str) -> Dataset:
    """Parse comma-separated text (header first) into a Dataset.

    Roles come from the header; one leading byte-order mark is dropped,
    empty and whitespace-only lines are skipped, and errors keep the text's
    line numbers. Raises ParseError for malformed cells, ValidationError
    for values <= 0 (both with 1-based row/column coordinates), and
    SchemaError for structural problems such as an unknown or repeated
    header, a missing role class or duplicate DMU ids.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    rows, lines_read = [], 0
    for row in reader:  # a quoted newline spans lines: keep the first
        if len(row) > 1 or row and row[0].strip():
            rows.append((lines_read + 1, row))
        lines_read = reader.line_num
    if not rows:
        raise SchemaError("empty input: missing header row")
    header_line, header = rows[0]
    labels = [raw.strip() for raw in header]
    roles = _header_roles(labels, header_line)
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
    """Read a UTF-8 dataset file and parse it. A file that is not UTF-8
    text raises ParseError."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_dataset(text)


def bundled_dataset_path() -> str:
    """Filesystem path of the bundled 13-DMU example dataset (3 inputs, 1
    intermediate, 1 output; management institutes, 2020-21 figures)."""
    return str(resources.files("netdea").joinpath(f"data/{BUNDLED_DATASET_NAME}"))


#: Table title of each report column.
_TITLES = {"overall": "Overall", "stage1": "Stage 1", "stage2": "Stage 2", "ccr": "CCR"}


def _display_score(value: float) -> str:
    rounded = round(float(value), SCORE_DECIMALS)
    if rounded == round(rounded):
        return str(int(round(rounded)))
    return f"{rounded:.{SCORE_DECIMALS}f}"


def _normalize_sections(sections) -> tuple:
    if isinstance(sections, str):
        raise ValueError(f"sections must be a sequence of names, not the string {sections!r}")
    sections = tuple(sections)
    unknown = set(sections) - set(SECTIONS)
    if unknown:
        raise ValueError(f"unknown report sections: {sorted(unknown)}")
    picked = tuple(s for s in SECTIONS if s in sections)
    if not picked:
        raise ValueError(f"sections must include at least one of {tuple(SECTIONS)}")
    return picked


def _fields(report: AnalysisReport, sections, ranks_only: bool, ccr_prefix: str = "") -> dict:
    """Section -> [(key, values)], each section's score fields before its
    rank fields. A relational column keys its scores by its name and its
    ranks by rank_<name>; CCR's are ccr_prefix + score and + rank."""
    fields = {}
    for section in sections:
        scores, ranks = [], []
        for name in SECTIONS[section]:
            table = getattr(report, name)
            score_key, rank_key = ((f"{ccr_prefix}score", f"{ccr_prefix}rank")
                                   if name == "ccr" else (name, f"rank_{name}"))
            if not ranks_only:
                scores.append((score_key, table.scores.tolist()))
            ranks.append((rank_key, table.ranks.tolist()))
        fields[section] = scores + ranks
    return fields


def _render_table(report: AnalysisReport, sections, with_rho: bool, ranks_only: bool) -> str:
    body = [("DMU", report.dmu_ids)]
    for name in (name for section in sections for name in SECTIONS[section]):
        table = getattr(report, name)
        if ranks_only:
            body.append((f"{_TITLES[name]} rank", [str(r) for r in table.ranks]))
        else:
            body.append((_TITLES[name], [f"{_display_score(s)}({r})"
                                         for s, r in zip(table.scores, table.ranks)]))

    grid = [[title for title, _ in body], *zip(*(cells for _, cells in body))]
    widths = [max(len(cell) for cell in column) for column in zip(*grid)]
    lines = ["  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                       for i, (cell, w) in enumerate(zip(row, widths))).rstrip()
             for row in grid]
    lines.insert(1, "-" * len(lines[0]))
    if with_rho:
        rho = report.spearman_rho
        shown = "not defined (tied ranks)" if rho is None else f"{rho:.5f}"
        lines.append("")
        lines.append(f"Spearman rank correlation (overall vs CCR): rho = {shown}")
    return "\n".join(lines) + "\n"


def _render_csv(report: AnalysisReport, sections, with_rho: bool, ranks_only: bool) -> str:
    by_section = _fields(report, sections, ranks_only, "ccr_" if len(sections) > 1 else "")
    fields = [field for section in by_section.values() for field in section]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id"] + [key for key, _ in fields])
    # csv writes floats with repr, so scores keep full precision.
    for row, dmu_id in enumerate(report.dmu_ids):
        writer.writerow([dmu_id] + [values[row] for _, values in fields])
    if with_rho:
        rho = report.spearman_rho
        writer.writerow(["spearman_rho", "" if rho is None else rho])
    return out.getvalue()


def _config_payload(cfg: SolverConfig) -> dict:
    return {
        "epsilon": cfg.epsilon,
        "normalize_columns": True,
        "stage_priority": cfg.stage_priority.value,
        "score_decimals": SCORE_DECIMALS,
        "tolerances": {
            "feasibility_tol": FEASIBILITY_TOL,
            "pivot_tol": PIVOT_TOL,
            "optimality_tol": OPTIMALITY_TOL,
            "max_iterations": MAX_ITERATIONS,
        },
    }


def _render_json(report: AnalysisReport, sections, with_rho: bool, ranks_only: bool) -> str:
    payload = {"config": _config_payload(report.config_echo)}
    for section, fields in _fields(report, sections, ranks_only).items():
        payload[section] = [
            {"id": dmu_id, **{key: values[row] for key, values in fields}}
            for row, dmu_id in enumerate(report.dmu_ids)
        ]
    if with_rho:
        payload["spearman_rho"] = report.spearman_rho
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv, "json": _render_json}

#: The formats render_report accepts.
REPORT_FORMATS = tuple(_RENDERERS)


def render_report(report: AnalysisReport, fmt: str = "table",
                  sections=tuple(SECTIONS), include_rho: bool = True,
                  ranks_only: bool = False) -> str:
    """Serialize an AnalysisReport.

    fmt, one of REPORT_FORMATS, picks the output shape: ``table`` rounds
    scores to SCORE_DECIMALS and appends the rank in parentheses; ``csv``
    and ``json`` carry full-precision scores and integer rank fields, json
    additionally embedding the solver config. sections, keys of
    analysis.SECTIONS, restricts output to the relational or CCR side; rho
    is emitted, in every format, only when both are present and include_rho
    is set. ranks_only drops score values, keeping the rank columns.
    """
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; expected one of "
                         f"{list(REPORT_FORMATS)}")
    sections = _normalize_sections(sections)
    return _RENDERERS[fmt](report, sections, include_rho and len(sections) > 1, ranks_only)
