"""Structured-text (JSON) and CSV writers shared by the CLI and modules.

JSON output is sorted and indented so identical runs produce identical
bytes; non-finite floats become null. The ``no_timestamp`` mode drops
wall-clock fields entirely for golden-file comparisons.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import io
import json
import math
from typing import Any

import numpy as np


def as_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses/arrays/numpy scalars to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: as_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): as_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [as_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def report_to_json(report: Any, no_timestamp: bool = False) -> str:
    data = as_jsonable(report)
    if isinstance(data, dict):
        if no_timestamp:
            data.pop("elapsed_s", None)
        else:
            data["created_utc"] = datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat()
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_json(report: Any, path, no_timestamp: bool = False) -> None:
    text = report_to_json(report, no_timestamp=no_timestamp)
    with open(path, "w") as fh:
        fh.write(text)


def budget_rows(losses, budget) -> list[tuple[str, float]]:
    return [
        ("scintillation_margin_db", losses.l_sci_db),
        ("fog_db", losses.l_fog_db),
        ("rain_db", losses.l_rain_db),
        ("cloud_db", losses.l_cloud_db),
        ("geometric_db", losses.l_geometric_db),
        ("atmospheric_total_db", losses.l_total_db),
        ("pointing_db", budget.l_p_db),
        ("optical_db", budget.l_o_db),
        ("tx_power_dbm", budget.tx_power_dbm),
        ("received_power_dbm", budget.p_r_dbm),
        ("snr_db", budget.snr_db),
    ]


def budget_text(losses, budget) -> str:
    rows = budget_rows(losses, budget)
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {value:10.4f}" for name, value in rows]
    return "\n".join(lines) + "\n"


def budget_csv(losses, budget) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["component", "value"])
    for name, value in budget_rows(losses, budget):
        writer.writerow([name, repr(value)])
    return buf.getvalue()


def rows_to_csv(rows: list[dict], path) -> None:
    """Write dict rows under the first row's keys; empty input writes ``axis,value``."""
    fieldnames = list(rows[0].keys()) if rows else ["axis", "value"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def tracking_csv(result, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "offset_x_m", "offset_y_m"])
        for t, x, y in zip(result.times_s, result.offsets_x_m, result.offsets_y_m):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(y))])


def ber_summary_row(report) -> dict:
    """One CSV row summarizing a run report."""
    return {
        "seed": report.seed,
        "n_symbols": report.n_symbols,
        "fading_kind": report.fading_kind,
        "rytov_var": report.rytov_var,
        "l_total_db": report.losses.l_total_db,
        "p_r_dbm": report.budget.p_r_dbm,
        "noise_std": report.noise_std,
        "bit_errors": report.ber.bit_errors,
        "ber_counted": report.ber.ber_counted,
        "ber_estimated": report.ber.ber_estimated,
        "snr_db": report.ber.snr_db,
    }
