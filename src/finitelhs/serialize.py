"""Deterministic text emission for JSON and CSV outputs.

The stdlib json encoder offers no control over float formatting, and the
output files here are compared byte-for-byte across runs, so this module
emits JSON itself: dict insertion order is preserved verbatim and every
float is printed with a fixed number of significant digits.  CSV is written
column by column, each numeric column in one pass through ``format_float``,
which is the one definition of a number's text in either format.
"""

from __future__ import annotations

import json as _json
import math
from typing import Any, Sequence

import numpy as np

JSON_FLOAT_DIGITS = 17
CSV_FLOAT_DIGITS = 15


def format_float(value: float, digits: int = JSON_FLOAT_DIGITS) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value cannot be serialized: {value!r}")
    if value == 0.0:
        # "-0" would read back as the integer 0 and re-emit as "0"
        return "0"
    return format(value, f".{digits}g")


def _emit(obj: Any, level: int, out: list[str]) -> None:
    pad = "  " * (level + 1)
    closing = "  " * level
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad + _json.dumps(key) + ": ")
            _emit(val, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(items):
            out.append(pad)
            _emit(val, level + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Render obj as JSON text with fixed float precision and key order."""
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def loads(text: str) -> Any:
    return _json.loads(text)


def csv_text(columns: dict[str, Sequence]) -> str:
    """CSV text of equal-length named columns, headed by their names: a
    column of strings is written as it is, any other column through
    ``format_float`` with CSV_FLOAT_DIGITS."""
    cells = []
    for col in map(np.asarray, columns.values()):
        text = col.tolist()
        cells.append(text if col.dtype.kind == "U" else
                     [format_float(v, CSV_FLOAT_DIGITS) for v in text])
    return "\n".join([",".join(columns), *map(",".join, zip(*cells, strict=True))]) + "\n"
