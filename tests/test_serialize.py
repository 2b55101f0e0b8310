import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitelhs import serialize

from scan_oracle import csv_text as csv_text_by_rows


def test_format_float_17_digits_roundtrips():
    values = [1 / 3, math.pi, 2 / math.pi, 1e-300, -7.25, 0.1 + 0.2]
    for v in values:
        assert float(serialize.format_float(v)) == v


def test_format_float_15_digits_truncates():
    """CSV numbers take CSV_FLOAT_DIGITS = 15 digits, through the text that
    JSON's format_float writes with 17."""
    assert serialize.csv_text({"x": [1 / 3]}) == "x\n0.333333333333333\n"
    assert serialize.format_float(1 / 3) == "0.33333333333333331"


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
    text = serialize.csv_text({"x": np.array([1 / 3, 2.0]), "label": ["abc", "def"]})
    lines = text.strip().split("\n")
    assert lines[0] == "x,label"
    assert lines[1].split(",")[0] == "0.333333333333333"
    assert lines[2] == "2,def"
    special = serialize.csv_text({"v": np.array([-0.0, 5e-324, 1e308, -1e308, 2.0, -3.0])})
    assert special == "v\n0\n4.94065645841247e-324\n1e+308\n-1e+308\n2\n-3\n"
    with pytest.raises(ValueError):
        serialize.csv_text({"x": np.array([1.0, 2.0]), "label": ["abc"]})


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 1e15, 2.0**60]),
)
LABELS = st.text(alphabet="abcxyz_-.0123456789", max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csv_text_matches_the_row_oracle(data):
    """Column by column, byte for byte what the row-wise writer gives, on
    float columns mixed with string columns; NaN or an infinity anywhere in
    a numeric column still raises."""
    n = data.draw(st.integers(0, 8))
    kinds = data.draw(st.lists(st.sampled_from(["float", "str"]), min_size=1, max_size=5))
    columns = {
        f"c{i}": np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
        if kind == "float" else data.draw(st.lists(LABELS, min_size=n, max_size=n))
        for i, kind in enumerate(kinds)
    }
    assert serialize.csv_text(columns) == csv_text_by_rows(list(columns), zip(*columns.values()))
    numeric = [name for name, kind in zip(columns, kinds) if kind == "float"]
    if n and numeric:
        name = data.draw(st.sampled_from(numeric))
        bad = columns[name].copy()
        bad[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="non-finite"):
            serialize.csv_text({**columns, name: bad})


def test_loads_inverse_of_dumps():
    doc = {"x": [0.1, 0.2, 0.3], "n": 7}
    assert serialize.loads(serialize.dumps(doc)) == doc


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dumps_rejects_non_finite_in_a_list_of_floats(bad):
    """A list of floats is written in one join, after one finiteness check
    that names the value, as a lone float's is."""
    for doc in ([0.5, bad, 1.0], {"t0": [bad]}, [np.float64(0.5), np.float64(bad)]):
        with pytest.raises(ValueError, match=f"non-finite value cannot be serialized: {bad!r}"):
            serialize.dumps(doc)
