import json
import math

import pytest

from finitelhs import serialize


def test_format_float_17_digits_roundtrips():
    values = [1 / 3, math.pi, 2 / math.pi, 1e-300, -7.25, 0.1 + 0.2]
    for v in values:
        assert float(serialize.format_float(v)) == v


def test_format_float_15_digits_truncates():
    s = serialize.format_float(1 / 3, digits=15)
    assert s == "0.333333333333333"


def test_format_float_writes_negative_zero_as_zero():
    assert serialize.format_float(-0.0) == "0"
    assert serialize.dumps([-0.0, 0.0]) == "[\n  0,\n  0\n]\n"


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.format_float(float("nan"))
    with pytest.raises(ValueError):
        serialize.format_float(float("inf"))


def test_dumps_is_valid_json_and_ordered():
    doc = {"b": 1.5, "a": [1, 2.25], "nested": {"z": True, "y": None}}
    text = serialize.dumps(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == doc
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_dumps_escapes_strings():
    text = serialize.dumps({"s": 'quo"te\n'})
    assert json.loads(text)["s"] == 'quo"te\n'


def test_csv_text_shape_and_digits():
    text = serialize.csv_text(("x", "label"), [(1 / 3, "abc"), (2.0, "def")])
    lines = text.strip().split("\n")
    assert lines[0] == "x,label"
    assert lines[1].split(",")[0] == "0.333333333333333"
    assert lines[2] == "2,def"


def test_loads_inverse_of_dumps():
    doc = {"x": [0.1, 0.2, 0.3], "n": 7}
    assert serialize.loads(serialize.dumps(doc)) == doc
