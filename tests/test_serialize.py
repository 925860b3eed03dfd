"""Document text: arrays are formatted whole, with the bytes of the per-number encoder."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import dumps_reference
from spintomo import test_state as make_state
from spintomo.estimator import estimate, write_estimate
from spintomo.measurement import read_record, synthesize_record, write_record
from spintomo.serialize import dumps, format_float

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e17, 1e-5, 0.1,
    1.0 / 3.0, 123456789012345680.0, sys.float_info.max, -sys.float_info.max,
]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
    elements={"allow_nan": False, "allow_infinity": False},
))
def test_array_bytes_match_per_number_encoder(arr):
    assert dumps({"x": arr, "n": 1}) == dumps_reference({"x": arr, "n": 1})


def test_edge_values_match_format_float():
    arr = np.array(EDGE_VALUES)
    text = dumps({"x": arr})
    assert text == '{"x":[' + ",".join(format_float(x) for x in EDGE_VALUES) + "]}\n"
    assert text == dumps_reference({"x": arr})
    assert text == dumps({"x": EDGE_VALUES})


def test_zero_dimensional_arrays_are_scalars():
    doc = {"x": np.array(1.5), "n": np.array(3), "b": np.array(True)}
    assert dumps(doc) == '{"x":1.5,"n":3,"b":true}\n'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 2, 1), (2, 3, 1)])
def test_non_finite_entry_anywhere_raises(bad, where):
    arr = np.zeros((3, 4, 2))
    arr[where] = bad
    with pytest.raises(ValueError, match=f"non-finite number {bad!r}"):
        dumps({"x": arr})
    with pytest.raises(ValueError, match=f"non-finite number {bad!r}"):
        dumps({"x": arr[where[0]]})


def test_written_documents_match_per_number_encoder(sys3, default_history, tmp_path):
    """Record and estimate files re-encode to the same bytes one number at a time."""
    record = synthesize_record(make_state(sys3, "cat"), default_history, sigma=0.9, seed=4)
    write_record(record, tmp_path / "record.json")
    write_estimate(estimate(record, default_history), tmp_path / "estimate.json",
                   default_history.waveform_fingerprint)
    for name in ("record.json", "estimate.json"):
        text = (tmp_path / name).read_text()
        assert text == dumps_reference(json.loads(text))
    assert np.array_equal(read_record(tmp_path / "record.json").values, record.values)
