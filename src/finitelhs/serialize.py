"""Deterministic text emission for JSON and CSV outputs.

The stdlib json encoder offers no control over float formatting, and the
output files here are compared byte-for-byte across runs, so this module
emits JSON itself: dict insertion order is preserved verbatim and every
float is printed with a fixed number of significant digits.
"""

from __future__ import annotations

import json as _json
import math
from typing import Any, Iterable, Sequence

import numpy as np

JSON_FLOAT_DIGITS = 17
CSV_FLOAT_DIGITS = 15


def format_float(value: float, digits: int = JSON_FLOAT_DIGITS) -> str:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
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


def _cell(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value, CSV_FLOAT_DIGITS)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"
