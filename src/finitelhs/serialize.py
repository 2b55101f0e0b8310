"""Deterministic text emission for JSON and CSV outputs.

The stdlib json encoder offers no control over float formatting, and the
output files here are compared byte-for-byte across runs, so this module
emits JSON itself: dict insertion order is preserved verbatim and every
float is printed with a fixed number of significant digits.  CSV is written
column by column, each numeric column in one pass after one finiteness
check, and a JSON list of floats in one join, through the same
``_float_text`` that ``format_float`` uses: a number's text has one
definition in either format.
"""

from __future__ import annotations

import json as _json
import math
from typing import Any, Sequence

import numpy as np

JSON_FLOAT_DIGITS = 17
CSV_FLOAT_DIGITS = 15


def _float_text(value: float, spec: str) -> str:
    """A finite number's text: ``spec`` ('%.{digits}g'), and "0" for either
    zero ("-0" would read back as the integer 0 and re-emit as "0").  The
    one definition of a number's text in JSON and CSV alike."""
    return spec % value if value else "0"


def _non_finite(value: float) -> ValueError:
    return ValueError(f"non-finite value cannot be serialized: {value!r}")


def format_float(value: float) -> str:
    """A finite number's JSON text, with JSON_FLOAT_DIGITS significant digits."""
    value = float(value)
    if not math.isfinite(value):
        raise _non_finite(value)
    return _float_text(value, f"%.{JSON_FLOAT_DIGITS}g")


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
        if all(isinstance(val, float) for val in items):
            # a list of floats in one join, after one finiteness check
            if not all(map(math.isfinite, items)):
                raise _non_finite(next(float(v) for v in items if not math.isfinite(v)))
            spec = f"%.{JSON_FLOAT_DIGITS}g"
            out.append(pad + f",\n{pad}".join([_float_text(val, spec) for val in items]) + "\n")
        else:
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
    column of strings is written as it is, any other column in one pass
    with CSV_FLOAT_DIGITS, after one finiteness check."""
    cells, spec = [], f"%.{CSV_FLOAT_DIGITS}g"
    for col in map(np.asarray, columns.values()):
        if col.dtype.kind == "U":
            cells.append(col.tolist())
            continue
        finite = np.isfinite(col)
        if not finite.all():
            raise _non_finite(col[~finite][0].item())
        cells.append([_float_text(v, spec) for v in col.tolist()])
    return "\n".join([",".join(columns), *map(",".join, zip(*cells, strict=True))]) + "\n"
