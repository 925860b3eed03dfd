import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_waveform
from spintomo import (
    MeasurementRecord,
    RecordFormatError,
    build_spin_system,
    coords_to_state,
    heisenberg_history,
    measured_observable,
    noiseless_values,
    propagate_state,
    read_record,
    synthesize_record,
    synthesize_records,
    write_record,
)
from spintomo import rand
from spintomo import test_state as make_state

RECORD = dict(F=3, times=np.arange(2.0), values=np.zeros(2), sigma=0.1, seed=1, n_averaged=1,
              waveform_fingerprint="x")


def test_sigma_zero_is_exact(sys3, default_history):
    rho = make_state(sys3, "cat")
    record = synthesize_record(rho, default_history, sigma=0.0, seed=99)
    assert np.array_equal(record.values, noiseless_values(rho, default_history))


def test_mixed_state_gives_zero_signal(sys3, default_history):
    # O_i stays traceless under the trace-preserving unital evolution
    traces = np.trace(coords_to_state(default_history.design_matrix), axis1=1, axis2=2)
    assert np.max(np.abs(traces)) < 1e-10
    record = synthesize_record(make_state(sys3, "mixed"), default_history, sigma=0.0, seed=0)
    assert np.max(np.abs(record.values)) < 1e-10


def test_noiseless_record_matches_schrodinger(sys3, default_waveform, default_history):
    rho = make_state(sys3, "basis_state", m=-3)
    record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
    O = measured_observable(sys3)
    states = propagate_state(rho, default_waveform, n_samples=150)
    expected = np.array([np.trace(O @ s).real for s in states])
    assert np.max(np.abs(record.values - expected)) < 1e-8


def test_bit_identical_determinism(sys3, default_history):
    rho = make_state(sys3, "cat")
    a = synthesize_record(rho, default_history, sigma=0.7, seed=1234, n_averaged=4)
    b = synthesize_record(rho, default_history, sigma=0.7, seed=1234, n_averaged=4)
    assert np.array_equal(a.values, b.values)
    c = synthesize_record(rho, default_history, sigma=0.7, seed=1235, n_averaged=4)
    assert not np.array_equal(a.values, c.values)


def test_noise_is_indexed_by_sample(sys3, default_waveform):
    # shortening the record must not change the noise of earlier samples
    O = measured_observable(sys3)
    long = heisenberg_history(default_waveform, O, n_samples=150)
    short = heisenberg_history(default_waveform, O, n_samples=30)
    rho = make_state(sys3, "cat")
    a = synthesize_record(rho, long, sigma=1.0, seed=7)
    b = synthesize_record(rho, short, sigma=1.0, seed=7)
    clean_long = noiseless_values(rho, long)
    clean_short = noiseless_values(rho, short)
    # compare at shared sample indices (the grids differ, noise must not)
    assert np.allclose(
        (a.values - clean_long)[:30] * 1.0, (b.values - clean_short) * 1.0, atol=0
    )


BATCH_SEEDS = [0, 7, 2**64 - 1]
N_DRAWS = 2500


@pytest.fixture(scope="module")
def fresh_draws():
    """Draws 0..N_DRAWS-1 of each batch seed, each from a freshly built generator.

    Per draw: its value, its ziggurat layer (the low byte of the block's first
    64-bit output) and whether it read only that output (the fast path).
    """
    draws = {}
    for seed in BATCH_SEEDS:
        values, layers, fast = [], [], []
        for i in range(N_DRAWS):
            bits = np.random.Philox(key=seed, counter=i << 64)
            layers.append(int(np.random.Philox(key=seed, counter=i << 64).random_raw()) & 0xFF)
            values.append(np.random.Generator(bits).standard_normal())
            state = bits.state
            fast.append(state["buffer_pos"] == 1 and state["state"]["counter"][0] == 1)
        draws[seed] = np.array(values), np.array(layers), np.array(fast)
    return draws


@pytest.mark.parametrize("seed", BATCH_SEEDS)
def test_one_generator_draws_match_fresh_generators(seed, fresh_draws):
    # row s of one batch call is stream BATCH_SEEDS[s], bit for bit; its
    # ziggurat rejections read past the first 64-bit output of a counter block
    batch = rand.normals(BATCH_SEEDS, N_DRAWS)
    assert batch.shape == (len(BATCH_SEEDS), N_DRAWS)
    row = batch[BATCH_SEEDS.index(seed)]
    assert np.array_equal(row.view(np.uint64), fresh_draws[seed][0].view(np.uint64))


def test_batch_draws_take_every_ziggurat_path(fresh_draws):
    # the sample of the test above reaches every layer, and both kinds of
    # rejection: the tail of layer 0 and a wedge of a layer above it
    layers = np.concatenate([fresh_draws[seed][1] for seed in BATCH_SEEDS])
    fast = np.concatenate([fresh_draws[seed][2] for seed in BATCH_SEEDS])
    assert set(layers.tolist()) == set(range(256))
    assert np.any(~fast & (layers == 0))
    assert np.any(~fast & (layers > 0))


def test_normals_rows_are_batches_of_one():
    seeds = [0, 7, 2**64 - 1, 12345, 7]
    batch = rand.normals(seeds, 300)
    for row, seed in zip(batch, seeds):
        assert np.array_equal(row.view(np.uint64), rand.normals([seed], 300)[0].view(np.uint64))


def test_normals_shapes():
    assert rand.normals([], 5).shape == (0, 5)
    assert rand.normals([3, 4], 0).shape == (2, 0)
    assert rand.normals(np.array([3, 4], dtype=np.uint64), 2).shape == (2, 2)


@pytest.mark.parametrize("seeds, n", [([1, 2], -1), ([1, -1], 5), ([1, 2**64], 5),
                                      ([4, 2.0], 5), ([True], 5)])
def test_normals_checks_before_any_draw(monkeypatch, seeds, n):
    words = []
    monkeypatch.setattr(rand, "_philox_first_words", lambda *args: words.append(args))
    with pytest.raises(ValueError):
        rand.normals(seeds, n)
    assert words == []


@pytest.mark.parametrize("sigma", [0.9, 0.0])
def test_synthesize_records_draws_once_per_batch(sys3, default_history, monkeypatch, sigma):
    calls, real = [], rand.normals

    def normals(seeds, n):
        calls.append((list(seeds), n))
        return real(seeds, n)

    monkeypatch.setattr(rand, "normals", normals)
    seeds = [5, 6, 7, 8]
    synthesize_records(make_state(sys3, "cat"), default_history, sigma, seeds)
    assert calls == ([(seeds, 150)] if sigma else [])


@pytest.mark.parametrize("sigma, n_averaged", [(0.7, 1), (0.9, 4), (0.0, 1)])
def test_synthesize_records_entries_are_batches_of_one(sys3, default_history, sigma, n_averaged):
    rho = make_state(sys3, "cat")
    seeds = [0, 7, 2**64 - 1, 12345]
    batch = synthesize_records(rho, default_history, sigma, seeds, n_averaged)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        alone = synthesize_record(rho, default_history, sigma, seed, n_averaged)
        assert np.array_equal(got.values, alone.values)
        assert np.array_equal(got.times, alone.times)
        for name in ("F", "sigma", "seed", "n_averaged", "waveform_fingerprint"):
            assert getattr(got, name) == getattr(alone, name)
            assert type(getattr(got, name)) is type(getattr(alone, name))
        assert not got.values.flags.writeable and not got.times.flags.writeable
    assert synthesize_records(rho, default_history, sigma, [], n_averaged) == []


@pytest.mark.parametrize("seeds", [[1, 2, -1], [1, 2**64, 3], [4, 2.0], [True]])
def test_synthesize_records_checks_every_seed_before_any_draw(
    sys3, default_history, monkeypatch, seeds
):
    # the stub sits below rand.normals' own seed check, so it records any draw
    draws = []
    monkeypatch.setattr(rand, "_philox_first_words", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="seed"):
        synthesize_records(make_state(sys3, "cat"), default_history, 0.9, seeds)
    assert draws == []


@pytest.mark.parametrize("n_averaged", [2.5, True])
def test_synthesize_records_checks_n_averaged_before_any_draw(
    sys3, default_history, monkeypatch, n_averaged
):
    # 2.5 was truncated to 2 and True taken as 1, with sigma_eff to match
    draws = []
    monkeypatch.setattr(rand, "normals", lambda *args: draws.append(args))
    with pytest.raises(RecordFormatError, match="n_averaged: expected an integer"):
        synthesize_record(make_state(sys3, "cat"), default_history, 0.9, 5, n_averaged)
    assert draws == []


def test_averaging_variance_oracle(sys3):
    # statistical oracle: sample variance of the added noise ~ sigma^2 / n
    wf = make_waveform(n_steps=1, phi=(0.4,), dt=1.5e-3)
    history = heisenberg_history(wf, measured_observable(sys3), n_samples=10_000)
    rho = make_state(sys3, "basis_state", m=0)
    sigma, n_avg = 2.0, 128
    record = synthesize_record(rho, history, sigma=sigma, seed=42, n_averaged=n_avg)
    noise = record.values - noiseless_values(rho, history)
    target = sigma**2 / n_avg
    assert abs(np.var(noise) - target) < 0.2 * target


def test_dimension_mismatch_rejected(default_history):
    small = build_spin_system(1)
    with pytest.raises(ValueError, match="dimension"):
        synthesize_record(np.eye(3) / 3, default_history, sigma=0.1, seed=0)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_synthesize_rejects_non_finite_sigma(sys3, default_history, sigma):
    # without the check the record comes back full of NaN or inf values
    with pytest.raises(ValueError, match="field sigma: non-finite number"):
        synthesize_record(make_state(sys3, "cat"), default_history, sigma=sigma, seed=0)


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(
            F=3, times=np.arange(3.0), values=np.zeros(2), sigma=0.1, seed=1,
            n_averaged=1, waveform_fingerprint="x",
        )
    with pytest.raises(ValueError, match="sigma"):
        MeasurementRecord(
            F=3, times=np.arange(2.0), values=np.zeros(2), sigma=-0.1, seed=1,
            n_averaged=1, waveform_fingerprint="x",
        )
    with pytest.raises(ValueError, match="n_averaged"):
        MeasurementRecord(
            F=3, times=np.arange(2.0), values=np.zeros(2), sigma=0.1, seed=1,
            n_averaged=0, waveform_fingerprint="x",
        )
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="field sigma: non-finite number"):
            MeasurementRecord(
                F=3, times=np.arange(2.0), values=np.zeros(2), sigma=sigma, seed=1,
                n_averaged=1, waveform_fingerprint="x",
            )

    with pytest.raises(ValueError, match="seed"):
        MeasurementRecord(
            F=3, times=np.arange(2.0), values=np.zeros(2), sigma=0.1, seed=-1,
            n_averaged=1, waveform_fingerprint="x",
        )


@pytest.mark.parametrize("field", ["times", "values"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_record_rejects_non_finite_samples(field, bad):
    # without the check a record built in Python carries NaN or inf into estimate
    arrays = {"times": np.arange(2.0), "values": np.zeros(2)}
    arrays[field][1] = bad
    with pytest.raises(ValueError, match=f"field {field}: non-finite number"):
        MeasurementRecord(F=3, sigma=0.1, seed=1, n_averaged=1, waveform_fingerprint="x",
                          **arrays)


def test_record_leaves_the_callers_arrays_writeable():
    # the record used to freeze the caller's own float64 arrays and hold them as its fields
    times, values = np.arange(3.0), np.zeros(3)
    record = MeasurementRecord(1.0, times, values, 0.1, 1, 1, "ab")
    assert times.flags.writeable and values.flags.writeable
    times[0] = values[0] = 7.0
    assert record.times[0] == 0.0 and record.values[0] == 0.0
    assert not record.times.flags.writeable and not record.values.flags.writeable
    # a read-only array is kept shared, as a sweep's records share one grid per state
    again = MeasurementRecord(1.0, record.times, record.values, 0.2, 2, 1, "ab")
    assert again.times is record.times and again.values is record.values


@pytest.mark.parametrize("field, value, message", [
    ("F", 2.7, "malformed field F: 2.7 is not a positive integer or half-integer"),
    ("F", -1, "malformed field F: -1 is not a positive integer or half-integer"),
    ("F", 40, "malformed field F: 40 exceeds the largest spin 32"),
    ("waveform_fingerprint", "", "waveform_fingerprint must be a nonempty string"),
    ("times", np.zeros((2, 1)), "malformed field times: expected numbers nested 1 lists deep"),
    ("values", np.zeros((1, 2)), "malformed field values: expected numbers nested 1 lists deep"),
    ("n_averaged", 2.5, "malformed field n_averaged: expected an integer"),
    ("n_averaged", True, "malformed field n_averaged: expected an integer"),
    ("sigma", True, "malformed field sigma: expected a number"),
    ("sigma", -0.1, "malformed field sigma: must be at least 0"),
    # numpy reads a bool or a numeric string as a number, a file's reader does not
    ("times", ["0", "1"], "malformed field times: expected numbers nested 1 lists deep"),
    ("values", [True, False], "malformed field values: expected numbers nested 1 lists deep"),
    ("values", [0.5, True], "malformed field values: expected numbers nested 1 lists deep"),
])
def test_record_rules_are_the_readers(field, value, message):
    # each value was accepted in Python although a record file holding it is refused
    with pytest.raises(RecordFormatError) as info:
        MeasurementRecord(**{**RECORD, field: value})
    assert str(info.value) == message
    assert info.value.field == field


@pytest.mark.parametrize("seed, message", [
    (2.0, "malformed field seed: expected an integer"),
    (True, "malformed field seed: expected an integer"),
    (-1, "malformed field seed: must be at least 0"),
    (2**64, "malformed field seed: must be at most 2^64 - 1"),
])
def test_record_seed_rule_is_the_readers(tmp_path, seed, message):
    # the constructor raised a plain ValueError with no field, and the reader put
    # "invalid record document: " before a seed outside [0, 2^64)
    path = tmp_path / "record.json"
    doc = {**RECORD, "times": [0.0, 1.0], "values": [0.0, 0.0], "seed": seed}
    path.write_text(json.dumps({"version": 1, **doc}))
    for build in (lambda: MeasurementRecord(**{**RECORD, "seed": seed}), lambda: read_record(path)):
        with pytest.raises(RecordFormatError) as info:
            build()
        assert (str(info.value), info.value.field) == (message, "seed")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def record_fields(draw):
    """Record constructor arguments: valid ones, then maybe one field from a wider range."""
    n = draw(st.integers(0, 5))
    fields = dict(
        F=draw(st.integers(1, 64)) / 2,
        times=draw(st.lists(FINITE, min_size=n, max_size=n)),
        values=draw(st.lists(FINITE, min_size=n, max_size=n)),
        sigma=draw(st.floats(0.0, allow_infinity=False)),
        seed=draw(st.integers(0, 2**64 - 1)),
        n_averaged=draw(st.integers(1, 1000)),
        waveform_fingerprint=draw(st.text(min_size=1, max_size=6)),
    )
    wider = {
        "F": st.one_of(st.integers(-1, 40), st.floats(-1.0, 40.0)),
        "values": st.lists(FINITE, max_size=6),
        "sigma": st.one_of(FINITE, st.integers(-1, 10), st.booleans()),
        "seed": st.integers(-1, 2**64),
        "n_averaged": st.one_of(st.integers(-1, 3), st.floats(0.0, 5.0), st.booleans()),
        "waveform_fingerprint": st.text(max_size=2),
    }
    name = draw(st.sampled_from([None, *wider]))
    if name is not None:
        fields[name] = draw(wider[name])
    return fields


@pytest.fixture(scope="module")
def record_path(tmp_path_factory):
    return tmp_path_factory.mktemp("records") / "record.json"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(fields=record_fields())
@example(fields={**RECORD, "times": [-0.0, 1.0], "sigma": -0.0})  # written as -0
def test_every_record_built_reads_back(record_path, fields):
    try:
        record = MeasurementRecord(**fields)
    except ValueError:
        return  # a record that cannot be built has no file to read back
    write_record(record, record_path)
    text = record_path.read_bytes()
    again = read_record(record_path)
    for name in ("times", "values"):
        assert np.array_equal(getattr(again, name), getattr(record, name))
    for name in ("F", "sigma", "seed", "n_averaged", "waveform_fingerprint"):
        assert getattr(again, name) == getattr(record, name)
    write_record(again, record_path)
    assert record_path.read_bytes() == text


class TestRecordFile:
    def test_round_trip_bit_identical(self, sys3, default_history, tmp_path):
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, default_history, sigma=0.9, seed=5, n_averaged=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_record(record, p1)
        again = read_record(p1)
        assert np.array_equal(again.values, record.values)
        assert np.array_equal(again.times, record.times)
        assert (again.F, again.sigma, again.seed, again.n_averaged) == (
            record.F, record.sigma, record.seed, record.n_averaged,
        )
        assert again.waveform_fingerprint == record.waveform_fingerprint
        write_record(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(
            '{"version":1,"F":3,"times":[0.0],"values":[0.1],"sigma":0.5,"seed":1,'
            '"n_averaged":1}'
        )
        with pytest.raises(RecordFormatError, match="waveform_fingerprint") as info:
            read_record(path)
        assert info.value.field == "waveform_fingerprint"

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(
            '{"version":2,"F":3,"times":[0.0],"values":[0.1],"sigma":0.5,"seed":1,'
            '"n_averaged":1,"waveform_fingerprint":"ab"}'
        )
        with pytest.raises(RecordFormatError, match="version"):
            read_record(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(
            '{"version":1,"F":3,"times":[0.0],"values":[0.1],"sigma":0.5,"seed":1,'
            '"n_averaged":1,"waveform_fingerprint":"ab","extra":0}'
        )
        with pytest.raises(RecordFormatError, match="extra"):
            read_record(path)

    def test_negative_sigma_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(
            '{"version":1,"F":3,"times":[0.0],"values":[0.1],"sigma":-0.5,"seed":1,'
            '"n_averaged":1,"waveform_fingerprint":"ab"}'
        )
        with pytest.raises(ValueError, match="sigma"):
            read_record(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{oops")
        with pytest.raises(RecordFormatError, match="JSON"):
            read_record(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "r.json"
        path.write_text(
            f'{{"version":1,"F":3,"times":[0.0],"values":[{bad}],"sigma":0.5,"seed":1,'
            '"n_averaged":1,"waveform_fingerprint":"ab"}'
        )
        with pytest.raises(RecordFormatError, match="non-finite"):
            read_record(path)
