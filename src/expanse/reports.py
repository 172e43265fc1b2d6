"""Deterministic report serialization: JSON trees and flat CSV tables.

Floats are rounded to 12 significant digits before dumping and keys are
sorted, so identical inputs serialize to byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def round_float(v: float) -> float:
    if isinstance(v, float) and math.isfinite(v):
        return float(f"{v:.12g}")
    return float(v)


def jsonable(obj):
    """Recursively convert to JSON-serializable values with rounded floats."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return round_float(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return str(obj)


def dumps_report(doc: dict) -> str:
    return json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"


def write_report(doc: dict, path) -> None:
    Path(path).write_text(dumps_report(doc))


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
