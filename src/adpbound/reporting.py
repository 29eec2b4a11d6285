"""Deterministic JSON/CSV report emission.

Floats are rendered with Python's shortest round-trip representation, which
reproduces the exact double on re-parse and keeps reruns byte-identical.
CSV cells reuse the JSON rendering of each value so the two formats carry
identical values.  Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path

import numpy as np

__all__ = ["to_jsonable", "json_text", "csv_text", "write_text_atomic"]


def to_jsonable(value):
    """Recursively convert reports to plain JSON-serializable data.

    NaN becomes null, numpy scalars/arrays become Python numbers/lists, and
    tuples become lists.
    """
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return to_jsonable(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        return None if math.isnan(value) or math.isinf(value) else value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def json_text(data) -> str:
    return json.dumps(to_jsonable(data), indent=2) + "\n"


def _flatten(data: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def csv_text(rows) -> str:
    """Render one dict (or a list of same-keyed dicts) as CSV.

    Nested objects flatten to dotted column names; every cell is the compact
    JSON rendering of its value, so numbers match the JSON report exactly.
    """
    if isinstance(rows, dict):
        rows = [rows]
    flat_rows = [_flatten(to_jsonable(row)) for row in rows]
    header: list[str] = []
    for row in flat_rows:
        for key in row:
            if key not in header:
                header.append(key)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in flat_rows:
        writer.writerow(
            [json.dumps(row[key], separators=(",", ":")) if key in row else "" for key in header]
        )
    return out.getvalue()


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it onto ``path``.

    If the write or the rename fails, the temp file is removed and the error
    re-raised, so a failed write leaves nothing behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
