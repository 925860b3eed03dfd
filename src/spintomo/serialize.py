"""Deterministic JSON text emission shared by the file formats.

All floats are printed with 17 significant digits, which round-trips every
IEEE-754 double exactly, so writing the same document twice produces
byte-identical files. A float ndarray is written in one pass: one
:func:`check_finite` over the whole array, then one ``%`` formatting of all
its entries into a bracket template of its shape. ``FLOAT_FORMAT % x`` gives
the same bytes as ``format(x, ".17g")`` (:func:`format_float`), so a number
reads the same whether it was written alone or inside an array. Complex
matrices are stored as row-major nested lists of [re, im] pairs. Documents
are read back with :func:`read_document`, and every config, record and
estimate field is checked by the checkers here (:func:`check_fields`,
:func:`numeric_array`, :func:`number`, :func:`integer`, :func:`choice`,
:func:`spin_dimension`), which raise :class:`DocumentError`; a non-finite
number fails at parse time or, once per array, in :func:`numeric_array`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable

import numpy as np


FLOAT_FORMAT = "%.17g"  # printf form of format(x, ".17g"): the same bytes for every double


def format_float(x: float) -> str:
    """Render a finite double with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(x, ".17g")


def check_finite(arr) -> np.ndarray:
    """``arr`` as a float array; a non-finite entry raises as in :func:`format_float`."""
    arr = np.asarray(arr, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"cannot serialize non-finite number {float(arr[bad][0])!r}")
    return arr


def _reject_non_finite(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


class DocumentError(ValueError):
    """A malformed, incomplete or wrong-version config, record or estimate.

    ``field`` names the culprit where one document field is to blame.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def read_document(path, kind: str) -> dict:
    """Parse the JSON object in ``path``; a :class:`DocumentError` names ``kind``.

    Python's json accepts the non-standard NaN and Infinity literals; here
    they raise, as does malformed JSON. An overflowing number such as 1e999
    parses to inf and is rejected by :func:`numeric_array` with its field.
    The token ``-0`` reads as the float -0.0, which is written so, not as the int 0.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_non_finite,
                            parse_int=lambda token: -0.0 if token == "-0" else int(token))
        except ValueError as exc:
            raise DocumentError(f"{kind} file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    return doc


def check_fields(doc, kind: str, fields: tuple[str, ...], version=None,
                 optional: Iterable[str] = ()):
    """``doc`` itself if it is an object holding all of ``fields`` and nothing beyond ``optional``.

    A document (called with a ``version``) is named by its ``kind`` and its
    ``version`` field must equal ``version``; an object nested in a config is
    named by its field ``kind``, and its keys as ``waveform.dt``. The first
    missing or unknown key is named in the message and in the error's ``field``.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"malformed field {kind}: expected an object", kind)
    document = version is not None
    where, prefix = (f"{kind} document", "") if document else ("document", f"{kind}.")
    missing = [prefix + name for name in fields if name not in doc]
    if missing:
        raise DocumentError(f"{where} missing field: {missing[0]}", missing[0])
    unknown = [prefix + name for name in sorted(set(doc) - set(fields) - set(optional))]
    if unknown:
        raise DocumentError(f"{where} has unknown field: {unknown[0]}", unknown[0])
    if document and (type(doc["version"]) is not int or doc["version"] != version):
        # true == 1 and 1.0 == 1 in Python, so the type is checked too
        raise DocumentError(f"unsupported {kind} format version {doc['version']!r}", "version")
    return doc


def numeric_array(value, field: str, ndim: int, minimum: float | None = None) -> np.ndarray:
    """Document field ``field`` as a float array with ``ndim`` dimensions.

    The value must be numbers nested exactly ``ndim`` lists deep (0 for a
    bare number) with every list at one depth of the same length, each
    finite and at least ``minimum``; booleans, strings, null, objects,
    ragged nesting, non-finite and smaller entries raise
    :class:`DocumentError`.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        raise _shape_error(field, ndim)
    arr = arr.astype(float)
    bad = ~np.isfinite(arr)
    if bad.any():
        message = f"malformed field {field}: non-finite number {float(arr[bad][0])!r}"
        raise DocumentError(message, field)
    if minimum is not None and np.any(arr < minimum):
        raise DocumentError(f"malformed field {field}: must be at least {minimum}", field)
    return arr


def _shape_error(field: str, ndim: int) -> DocumentError:
    """The error for field ``field`` not holding numbers nested ``ndim`` lists deep."""
    shape = "a number" if ndim == 0 else f"numbers nested {ndim} lists deep"
    return DocumentError(f"malformed field {field}: expected {shape}", field)


def number(value, field: str, minimum: float | None = None) -> float:
    """Document field ``field`` as one float, checked as by :func:`numeric_array`."""
    if type(value) is float and math.isfinite(value) and (minimum is None or value >= minimum):
        return value  # skips the array round trip, as a record is built for every sweep trial
    return float(numeric_array(value, field, 0, minimum))


def integer(value, field: str, minimum: int | None = None) -> int:
    """Field ``field`` as an int (numpy's too) of at least ``minimum``; floats and bools raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DocumentError(f"malformed field {field}: expected an integer", field)
    value = int(value)
    if minimum is not None and value < minimum:
        raise DocumentError(f"malformed field {field}: must be at least {minimum}", field)
    return value


def choice(value, field: str, choices) -> str:
    """Document field ``field``, which must be one of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        message = f"malformed field {field}: {value!r} is not one of {', '.join(choices)}"
        raise DocumentError(message, field)
    return value


MAX_SPIN = 32  # largest F a document may name: dynamics._generator_parts takes 570 MB for one F = 32 key


def spin_dimension(value) -> int:
    """d = 2F + 1 for a document's F: a positive integer or half-integer up to ``MAX_SPIN``."""
    twice = 2.0 * number(value, "F")
    if not (twice >= 1 and twice.is_integer()):  # an overflow to inf is no integer
        message = f"malformed field F: {value!r} is not a positive integer or half-integer"
        raise DocumentError(message, "F")
    if twice > 2 * MAX_SPIN:
        message = f"malformed field F: {value!r} exceeds the largest spin {MAX_SPIN}"
        raise DocumentError(message, "F")
    return int(twice) + 1


def _template(shape: tuple[int, ...]) -> str:
    """JSON text of an array of ``shape`` with ``FLOAT_FORMAT`` for every entry."""
    if not shape:
        return FLOAT_FORMAT
    return "[" + ",".join([_template(shape[1:])] * shape[0]) + "]"


def _encode(obj) -> str:
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _template(obj.shape) % tuple(check_finite(obj).ravel().tolist())
        return _encode(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(document: dict) -> str:
    """Serialize a document to compact deterministic JSON text."""
    return _encode(document) + "\n"


def dump_path(document: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(document))


def matrix_to_pairs(mat: np.ndarray) -> np.ndarray:
    """Complex (d, d) matrix -> (d, d, 2) float array of its [re, im] pairs."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], -1)


def pairs_to_matrix(rows, context: str = "matrix") -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs`, with shape validation.

    Raises :class:`DocumentError` unless every entry is an [re, im] pair.
    """
    arr = numeric_array(rows, context, 3)
    if arr.shape[-1] != 2:
        raise DocumentError(f"{context}: expected rows of [re, im] pairs", context)
    return arr[..., 0] + 1j * arr[..., 1]
