"""Document text: arrays are formatted whole, with the bytes of the per-number encoder.

The array formatter, ``serialize.format_floats``, is checked against ``format_float`` on
random doubles, random bit patterns and a fixed list of edge values.

Also the integer rule, ``serialize.integer``, which reads every count argument of the library.
"""

import dataclasses
import json
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import dumps_reference
from spintomo import (
    ControlWaveform,
    build_spin_system,
    estimate_prefix_curve,
    estimate_with_nuisance,
    heisenberg_history,
    measured_observable,
    optimize_waveform,
    propagate_state,
    sample_times,
    wigner_function,
    wigner_integral,
)
from spintomo import test_state as make_state
from spintomo.estimator import estimate, write_estimate
from spintomo.measurement import read_record, synthesize_record, write_record
from spintomo import serialize
from spintomo.serialize import dumps, format_float, format_floats

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


def _per_number(values) -> list[bytes]:
    return [format_float(v).encode() for v in np.asarray(values, dtype=float).ravel().tolist()]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements={"allow_nan": False, "allow_infinity": False}))
def test_format_floats_matches_format_float_on_finite_doubles(arr):
    assert format_floats(arr) == _per_number(arr)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.uint64, st.integers(0, 40)))
def test_format_floats_matches_format_float_on_bit_patterns(bits):
    arr = bits.view(np.float64)
    arr = arr[np.isfinite(arr)]
    assert format_floats(arr) == _per_number(arr)


def _edge_values() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-45, 46)])
    boundaries = np.array([1e-5, 1e-4, 1e16, 1e17])
    around = [np.nextafter(v, towards) for v in (powers, boundaries) for towards in (0.0, np.inf)]
    ties = [np.arange(1, 2**12) / 2.0**20, 0.5 + np.arange(4096) * 2.0**-52]
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([special, powers, boundaries, *around, *ties])
    return np.concatenate([values, -values])


def test_format_floats_edge_values():
    values = _edge_values()
    assert format_floats(values) == _per_number(values)


@pytest.mark.parametrize("length", [0, 1, serialize._CHUNK - 1, serialize._CHUNK,
                                    serialize._CHUNK + 1])
def test_format_floats_lengths_around_one_chunk(length):
    values = np.random.default_rng(length).standard_normal(length) * 1e-3
    texts = format_floats(values.reshape(1, -1) if length else values)
    assert len(texts) == length and texts == _per_number(values)
    assert dumps({"x": values}) == dumps_reference({"x": values})


def test_format_floats_on_a_million_values():
    rng = np.random.default_rng(33)
    bits = rng.integers(0, 2**64, 301_000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)][:300_000]  # about one pattern in 2048 is not finite
    assert len(bits) == 300_000
    values = np.concatenate([
        bits,
        rng.standard_normal(300_000) * 10.0 ** rng.integers(-45, 46, 300_000),
        rng.random(200_000),
        rng.integers(0, 2**20, 100_000) / 2.0**20,  # about one in seven a tie at 17 digits
        np.round(rng.standard_normal(100_000) * 1e8) / 10.0 ** rng.integers(0, 17, 100_000),
    ])
    assert len(values) >= 10**6
    assert format_floats(values) == _per_number(values)


def test_only_ties_and_far_exponents_fall_back_to_format_float(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return format_float(x)

    monkeypatch.setattr(serialize, "format_float", counted)
    ordinary = np.random.default_rng(3).standard_normal(1000) * 1e-3
    ordinary = np.append(ordinary, [0.0, -0.0])
    assert format_floats(ordinary) == _per_number(ordinary)
    assert calls == []
    # two exact ties at the 17th digit (0.00100040435791015625), two far exponents
    fallbacks = [1049 / 2.0**20, -1051 / 2.0**20, 1e-41, 1e42]
    assert format_floats(fallbacks) == _per_number(fallbacks)
    assert calls == fallbacks


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_format_floats_non_finite_raises_as_format_float(bad):
    with pytest.raises(ValueError, match=f"non-finite number {bad!r}"):
        format_floats([1.0, bad])


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



@pytest.fixture(scope="module")
def model():
    """A small F = 1 model, 3 segments and 12 samples, with one record of it."""
    s = build_spin_system(1)
    waveform = ControlWaveform(n_steps=3, dt=5e-5, phi=(0.1, 2.0, 4.0),
                               omega_larmor=62831.853071795864, chi=37699.11184307752)
    observable = measured_observable(s)
    history = heisenberg_history(waveform, observable, 12)
    rho = make_state(s, "cat")
    record = synthesize_record(rho, history, 0.9, 1)
    return SimpleNamespace(sys=s, waveform=waveform, observable=observable, history=history,
                           rho=rho, record=record)


# per count: the argument's name, a valid value, and every call that takes it
COUNTS = {
    "n_steps": ("n_steps", 3, [
        lambda m, n: heisenberg_history(replace(m.waveform, n_steps=n), m.observable, 12),
    ]),
    "n_samples": ("n_samples", 12, [
        lambda m, n: sample_times(m.waveform, n),
        lambda m, n: heisenberg_history(m.waveform, m.observable, n).design_matrix,
        lambda m, n: propagate_state(m.rho, m.waveform, n),
    ]),
    "n_averaged": ("n_averaged", 4, [
        lambda m, n: synthesize_record(m.rho, m.history, 0.9, 1, n),
    ]),
    "nuisance_budget": ("budget", 3, [
        lambda m, n: estimate_with_nuisance(m.record, m.waveform, {"omega_scale": (0.95, 1.05)},
                                            budget=n),
    ]),
    "design_budget": ("budget", 3, [
        lambda m, n: optimize_waveform(m.sys, m.waveform, 12, budget=n),
    ]),
    "stride": ("stride", 2, [
        lambda m, n: estimate_prefix_curve(m.record, m.history, m.rho, stride=n),
    ]),
    "n_theta": ("n_theta", 9, [
        lambda m, n: wigner_function(m.rho, n_theta=n, n_phi=8),
        lambda m, n: wigner_integral(m.rho, n_theta=n),
    ]),
    "n_phi": ("n_phi", 9, [
        lambda m, n: wigner_function(m.rho, n_theta=8, n_phi=n),
        lambda m, n: wigner_integral(m.rho, n_phi=n),
    ]),
}


def _bitwise_equal(a, b) -> bool:
    """Equal arrays, numbers and strings, field by field through dataclasses and dicts."""
    if dataclasses.is_dataclass(a):
        return all(_bitwise_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_bitwise_equal(a[k], b[k]) for k in a)
    return type(a) is type(b) and np.array_equal(a, b)


@pytest.mark.parametrize("count", list(COUNTS))
def test_every_count_argument_is_read_by_the_integer_rule(model, count):
    # a float or bool count used to fail inside numpy (TypeError) or pass as a number
    name, valid, calls = COUNTS[count]
    for call in calls:
        for bad in (2.5, float(valid), True):
            with pytest.raises(ValueError, match=f"field {name}: expected an integer"):
                call(model, bad)
        assert _bitwise_equal(call(model, valid), call(model, np.int64(valid)))
