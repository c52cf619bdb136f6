"""Report records and deterministic JSON/CSV emission.

Floats are printed with 12 significant digits so that identical runs give
byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, is_dataclass


@dataclass(frozen=True)
class BoundReport:
    """One bound row: never a bare number."""

    method: str
    model: str
    params: dict
    lower: float
    certified: bool
    guarantee_width: float | None = None
    diagnostics: dict = field(default_factory=dict)


# Each method's sweep columns. The certified column carries the report's
# `lower` and `certified` its flag, `seconds` the sweep's timing of the point,
# and every other column the params or diagnostics entry of its name;
# Anderson's `bound` is its point estimate, and its `error` is filled only in
# the row of a point that failed, which holds nothing else but model, D and m.
CSV_COLUMNS = {
    "anderson": ("model", "D", "m", "lambda_min_patch", "bound", "certified_bound",
                 "certified", "guarantee_width", "residual", "seconds", "error"),
    "marginal": ("model", "m", "s", "mode", "placement", "z", "density_bound",
                 "certified", "gap", "seconds"),
    "moment": ("model", "l", "variables", "matrix_size", "bound", "certified", "gap",
               "seconds"),
}
CERTIFIED_COLUMN = {"anderson": "certified_bound", "marginal": "density_bound",
                    "moment": "bound"}


def sweep_row(report: BoundReport, seconds: float) -> dict:
    """The report as one sweep row, in its method's CSV_COLUMNS order."""
    values = {"model": report.model, "guarantee_width": report.guarantee_width,
              "bound": report.diagnostics.get("bound_point_estimate"),
              **report.params, **report.diagnostics,
              CERTIFIED_COLUMN[report.method]: report.lower,
              "certified": report.certified, "seconds": seconds}
    return {column: values[column] for column in CSV_COLUMNS[report.method]
            if column != "error"}


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def round_floats(obj):
    """Recursively round floats to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return round_floats(asdict(obj))
    if hasattr(obj, "item"):  # numpy scalars
        return round_floats(obj.item())
    return obj


def to_json(obj) -> str:
    return json.dumps(round_floats(obj), indent=2, sort_keys=False) + "\n"


def emit_json(obj, path: str | None = None) -> str:
    text = to_json(obj)
    if path:
        with open(path, "w") as f:
            f.write(text)
    return text


def to_csv(rows, columns) -> str:
    """CSV with a fixed column order; empty input gives a header-only file."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow({k: (f"{v:.12g}" if isinstance(v, float) else v)
                    for k, v in row.items() if k in columns})
    return buf.getvalue()


def emit_csv(rows, columns, path: str | None = None) -> str:
    text = to_csv(rows, columns)
    if path:
        with open(path, "w") as f:
            f.write(text)
    return text
