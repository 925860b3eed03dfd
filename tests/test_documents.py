"""Malformed config, record and estimate documents are rejected as such.

A property test over single-field corruptions of valid documents: a field
missing, an unknown field, a number replaced by a non-finite literal, or a
field of the wrong shape or type. Config corruptions hit the top-level
fields and those inside ``waveform``, ``sampling``, ``noise`` and
``state``. Dropping a required field is also tried once for each field,
whatever the draws. Every reader must raise DocumentError, and the
commands that read configs (``check``), records (``estimate``) and
estimates (``wigner``) must exit 2.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo.cli import main
from spintomo.config import load_config
from spintomo.estimator import _ESTIMATE_FIELDS, read_estimate
from spintomo.measurement import _RECORD_FIELDS, read_record
from spintomo.serialize import DocumentError

CONFIG = {
    "version": 1,
    "F": 1,
    "waveform": {
        "n_steps": 4,
        "dt": 5e-5,
        "phi": "random:10",
        "omega_larmor": 62831.853071795864,
        "chi": 37699.11184307752,
        "gamma_dec": 0.0,
        "jump_preset": "isotropic",
    },
    "sampling": {"n_samples": 12},
    "noise": {"sigma": 0.5, "seed": 3, "n_averaged": 1},
    "state": {"kind": "basis_state", "m": -1},
}

# every optional key is present in CONFIG, so the fields of a config
# object are its keys; "config.<key>" names an object inside a config
FIELDS = {"record": _RECORD_FIELDS, "estimate": _ESTIMATE_FIELDS, "config": tuple(CONFIG),
          **{f"config.{key}": tuple(CONFIG[key])
             for key in ("waveform", "sampling", "noise", "state")}}
READERS = {"record": read_record, "estimate": read_estimate, "config": load_config}
# keys a config object may leave out; every record and estimate field is required
OPTIONAL = {"config.waveform": {"gamma_dec", "jump_preset"}, "config.noise": {"n_averaged"}}
# singular_values may be shorter than d^2 - 1 (a short record), so dropping
# one of them can leave a valid document
CAN_TRUNCATE = {"times", "values", "covariance_lower", "rho_ls", "rho_ml"}
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]
_MARK = "NON-FINITE-MARK"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid documents of each kind, the config they belong to, and a scratch file."""
    root = tmp_path_factory.mktemp("documents")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    record, estimate = root / "record.json", root / "estimate.json"
    assert main(["simulate", str(config), str(record)]) == 0
    argv = ["estimate", str(record), str(config), str(estimate),
            "--nuisance", "omega_scale:0.99:1.01", "--budget", "3"]
    assert main(argv) == 0
    docs = {kind: json.loads(path.read_text())
            for kind, path in (("config", config), ("record", record), ("estimate", estimate))}
    return docs, config, root / "edited.json"


def _numeric_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numeric_paths(item, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def _kind_of(value):
    if isinstance(value, bool) or value is None:
        return "flag"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def corrupt(doc, kind, mutation, field, extra, literal, choice, retype):
    """JSON text of ``doc`` with one corruption applied to its object of ``kind``."""
    top = doc
    for key in kind.split(".")[1:]:
        doc = doc[key]
    value = doc[field]
    if mutation == "missing" and field not in OPTIONAL.get(kind, ()):
        del doc[field]
    elif mutation == "extra":
        doc.update([extra])
    elif mutation == "non_finite":
        paths = list(_numeric_paths(doc))
        *parents, last = paths[choice % len(paths)]
        target = doc
        for key in parents:
            target = target[key]
        target[last] = _MARK
    elif mutation == "wrap":
        doc[field] = [value]
    elif mutation == "unwrap" and isinstance(value, list) and value:
        doc[field] = value[0]
    elif mutation == "truncate" and field in CAN_TRUNCATE:
        doc[field] = value[:-1]
    elif mutation == "ragged" and isinstance(value, list) and value and \
            isinstance(value[0], list) and value[0]:
        doc[field] = [value[0][:-1]] + value[1:]
    else:  # retype, or a change that does not apply to this field
        doc[field] = next(v for v in retype if _kind_of(v) != _kind_of(value))
    return json.dumps(top).replace(json.dumps(_MARK), literal)


@st.composite
def corruptions(draw):
    """Arguments of :func:`corrupt` after the document."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    fields = FIELDS[kind]
    mutation = draw(st.sampled_from(["missing", "extra", "non_finite", "wrap", "unwrap",
                                     "truncate", "ragged", "retype"]))
    field = draw(st.sampled_from(fields))
    extra = (
        draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)
             .filter(lambda name: name not in fields)),
        draw(st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                       st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4))),
    )
    literal = draw(st.sampled_from(NON_FINITE))
    choice = draw(st.integers(0, 10**6))
    retype = draw(st.permutations(["text", None, True, {"k": 1.0}, 2.5]))
    return kind, mutation, field, extra, literal, choice, retype


# about 150 examples for each of the seven document and object kinds
@settings(max_examples=1050, derandomize=True, deadline=None)
@given(case=corruptions())
def test_malformed_documents_are_rejected(valid, case):
    docs, config, path = valid
    kind = case[0].split(".")[0]
    path.write_text(corrupt(json.loads(json.dumps(docs[kind])), *case))
    with pytest.raises(DocumentError):
        READERS[kind](path)
    if kind == "config":
        assert main(["check", str(path)]) == 2
    elif kind == "record":
        assert main(["estimate", str(path), str(config), str(path.with_suffix(".out"))]) == 2
    elif kind == "estimate":
        assert main(["wigner", str(path), str(path.with_suffix(".csv")),
                     "--n-theta", "8", "--n-phi", "8"]) == 2


@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, fields in sorted(FIELDS.items()) for field in fields
    if field not in OPTIONAL.get(kind, ())])
def test_every_required_field_is_required(valid, kind, field):
    docs, config, path = valid
    doc = kind.split(".")[0]
    path.write_text(corrupt(json.loads(json.dumps(docs[doc])), kind, "missing", field,
                            None, "", 0, ()))
    with pytest.raises(DocumentError):
        READERS[doc](path)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_valid_documents_still_read(valid, kind):
    docs, config, path = valid
    path.write_text(json.dumps(docs[kind]))
    READERS[kind](path)


@pytest.mark.parametrize("kind, where, value, field", [
    ("record", ("values", 1), True, "values"),
    ("record", ("times", 0), False, "times"),
    ("estimate", ("rho_ml", 0, 0, 1), True, "rho_ml"),
    ("estimate", ("covariance_lower", 2), True, "covariance_lower"),
    ("config", ("waveform", "phi"), [0.5, True, 1.5, 2.5], "waveform.phi"),
])
def test_a_bool_inside_a_number_array_is_refused(valid, kind, where, value, field):
    # numpy reads [0.5, true] as the numbers [0.5, 1.0]; a document's arrays hold numbers only
    docs, config, path = valid
    doc = json.loads(json.dumps(docs[kind]))
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match=f"malformed field {field}: expected numbers"):
        READERS[kind](path)
