"""Deterministic text of every number the package writes, and the document checkers.

All floats are printed with 17 significant digits, which round-trips every
IEEE-754 double exactly, so writing the same document twice produces
byte-identical files. One number is written by :func:`format_float`,
``format(x, ".17g")``. Arrays are written by :func:`format_floats`, the
JSON float-array branch of :func:`dumps` and :func:`write_float_grid`,
which format in numpy passes over chunks of ``_CHUNK`` numbers with the
same bytes, so a number reads the same whether it was written alone or
inside an array: the digits are the exact rounding of a double-double
product (Dekker, Numer. Math. 18, 224, 1971), and the few numbers it cannot
settle (ties at the 17th digit, exponents beyond +-40) go to
:func:`format_float` itself. Complex matrices are stored as row-major
nested lists of [re, im] pairs. Documents are read back with
:func:`read_document`, and every config, record and estimate field is
checked by the checkers here (:func:`check_fields`, :func:`numeric_array`,
:func:`number`, :func:`integer`, :func:`choice`, :func:`spin_dimension`),
which raise :class:`DocumentError`; a non-finite number fails at parse
time or, once per array, in :func:`numeric_array`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from functools import cache

import numpy as np


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


_CHUNK = 2048  # numbers per numpy pass of the array formatter: its work arrays stay small
_E_LIMIT = 45  # the power table holds 10^(16 - e) for decimal exponents |e| <= _E_LIMIT
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
# A formatted cell is 28 bytes of text in order with NUL bytes anywhere between, which
# _compact deletes. It is built from a source row of the same width: 6 bytes of sign and
# fixed-point lead ("-0.000"), NUL, the 17 digits, 4 bytes of exponent ("e-05") or NUL.
# The longest format_float text has 24 bytes.
_WIDTH = 28
_NUL = 0
_DIGITS = 7  # source column of the leading digit; digit j = 1..17 is at column j + 6


def _powers() -> np.ndarray:
    """(91, 4): row e + _E_LIMIT holds 10^(16 - e) = hi + lo as hi, hi's two 26-bit halves, lo.

    hi is 10^(16 - e) rounded to a double and lo the double nearest the rest,
    both from exact integer arithmetic.
    """
    rows = []
    for e in range(-_E_LIMIT, _E_LIMIT + 1):
        top, bottom = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = top / bottom  # correctly rounded, as is every int / int
        num, den = hi.as_integer_ratio()
        rows.append((hi, (top * den - num * bottom) / (bottom * den)))
    hi, lo = np.array(rows).T
    big = hi * _SPLIT
    hi_hi = big - (big - hi)
    return np.stack([hi, hi_hi, hi - hi_hi, lo], axis=1)


def _layouts() -> tuple[np.ndarray, ...]:
    """The from_next, from_same and point rows of each layout, (306, _WIDTH) uint8 each.

    Byte c of a cell is s[c + 1] from_next[c] + s[c] from_same[c] + point[c]
    for its source row s: the digits before the point come one column
    early, the point or NUL takes the column freed, and the digits past the
    kept ones become NUL. Layout 17 (b - 1) + k - 1 has b = 1..17 digits
    before the point (18: no point) and keeps k = 1..17 digits.
    """
    c = np.arange(_WIDTH)
    before = np.arange(1, 19)[:, None, None]
    kept = np.arange(1, 18)[None, :, None]
    digit = c - (_DIGITS - 1)  # the digit at column c of the source row
    point = _DIGITS - 1 + before  # the column of the point in the cell
    exponent = c >= _WIDTH - 4
    masks = (
        (digit >= 0) & (digit < 17) & (c < point) & (digit + 1 <= kept),
        (c < _DIGITS - 1) | (c > point) & ~exponent & (digit <= kept) | exponent,
        np.where((c == point) & (before < 18) & (kept > before), ord("."), _NUL),
    )
    return tuple(np.broadcast_to(m, (18, 17, _WIDTH)).reshape(-1, _WIDTH).astype(np.uint8)
                 for m in masks)


def _text_field(texts, width: int | None = None) -> np.ndarray:
    """(len(texts), width) uint8 of the ASCII ``texts``, NUL-padded to ``width`` or the longest."""
    width = width or max(map(len, texts), default=1)
    cells = np.array([t.encode("ascii") for t in texts], dtype=f"S{width}")
    return cells.view(np.uint8).reshape(len(cells), width)


@cache
def _tables() -> dict[str, np.ndarray]:
    """The array formatter's tables, built on first use.

    Besides :func:`_powers` and :func:`_layouts`, the words of a source row:
    ``heads``, the sign and fixed-point lead ("-0.000"), NUL and the leading
    digit d as one 8-byte word at 10 (91 negative + e + _E_LIMIT) + d;
    ``groups``, the digits of 0000..9999, whose trailing zeros are
    ``trailing``; and ``tails``, the exponent field at e + _E_LIMIT. For
    the decimal exponent e, ``kept_from`` is the least count of digits kept
    (those before the point in fixed-point form) and ``layout_of`` the
    layout less the digits kept. As %g does, a number is written in
    fixed-point form where -4 <= e <= 16, with e + 1 digits before the point.
    """
    exponents = range(-_E_LIMIT, _E_LIMIT + 1)
    fixed = [-4 <= e <= 16 for e in exponents]
    before = [e + 1 if f and e >= 0 else 18 if f else 1 for e, f in zip(exponents, fixed)]
    leads = ["0." + "0" * -(e + 1) if f and e < 0 else "" for e, f in zip(exponents, fixed)]
    quads = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # the digits of 0000..9999
    from_next, from_same, point = _layouts()
    return {
        "powers": _powers(),
        "heads": _text_field([(sign + lead).ljust(_DIGITS - 1, "\0") + "\0" + str(d)
                              for sign in ("", "-") for lead in leads for d in range(10)],
                             _DIGITS + 1).view(np.uint64).ravel(),
        "groups": np.ascontiguousarray(quads + ord("0")).view(np.uint32).ravel(),
        "trailing": np.logical_and.accumulate(quads[:, ::-1] == 0, axis=1)
        .sum(axis=1, dtype=np.uint8),
        "tails": _text_field(["" if f else f"e{e:+03d}" for e, f in zip(exponents, fixed)], 4)
        .view(np.uint32).ravel(),
        "kept_from": np.array([b if b < 18 else 0 for b in before]),
        "layout_of": (np.array(before) - 1) * 17 - 1,
        "from_next": from_next,
        "from_same": from_same,
        "point": point,
    }


def _scaled(powers: np.ndarray, a: np.ndarray, e: np.ndarray):
    """y = a 10^(16 - e) as round(y) in int64 and the signed remainder y - round(y).

    y is the double-double of Dekker's exact product of ``a`` with the double
    nearest 10^(16 - e), plus ``a`` times the remainder (Numer. Math. 18, 224,
    1971); its error is below 1e-14 for |a| in [1e-40, 1e41).
    """
    hi, hi_hi, hi_lo, lo = powers.take(e + _E_LIMIT, axis=0).T
    top = a * hi
    big = a * _SPLIT
    a_hi = big - (big - a)
    a_lo = a - a_hi
    low = ((a_hi * hi_hi - top) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    whole = np.floor(top)
    frac = (top - whole) + low
    nearest = np.rint(frac)
    return whole.astype(np.int64) + nearest.astype(np.int64), frac - nearest


def _divmod(n: np.ndarray, divisor: int):
    """``np.divmod`` of an integer array by a positive scalar, in two cheaper passes."""
    quotient = n // divisor
    return quotient, n - quotient * divisor


def _unsettled(rounded: np.ndarray, remainder: np.ndarray) -> np.ndarray:
    """-1 where y = rounded + remainder is below 10^16, +1 where it is 10^17 or more, else 0."""
    above = (rounded > 10**17) | (rounded == 10**17) & (remainder >= 0)
    below = (rounded < 10**16) | (rounded == 10**16) & (remainder < 0)
    return above.astype(np.intp) - below


def _format_into(x: np.ndarray, out: np.ndarray) -> None:
    """Write the :func:`format_float` text of each finite double of ``x`` into the rows of ``out``.

    ``out`` is (len(x), _WIDTH) uint8; each row gets its text in order, NUL
    bytes anywhere between. The 17 significant digits are round(|x|
    10^(16 - e)) for the decimal exponent e of |x|: floor(log10 |x|), moved
    by one where that product falls outside [10^16, 10^17), and raised by
    one where it rounds up to 10^17. A number goes to :func:`format_float`
    instead where the product lies within 1e-9 of a tie, where |x| lies
    outside [1e-40, 1e41), or where the moved exponent is still off; zeros
    are written as 0 and -0.
    """
    tables = _tables()
    a = np.abs(x)
    far = ~((a >= 1e-40) & (a < 1e41))  # zeros too, which are written directly
    a[far] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    digits, remainder = _scaled(tables["powers"], a, e)
    fallback = (np.abs(remainder) > 0.5 - 1e-9) | far & (x != 0.0)
    edge = np.flatnonzero((digits <= 10**16) | (digits >= 10**17))
    if edge.size:
        step = _unsettled(digits[edge], remainder[edge])
        moved = edge[step != 0]
        e[moved] += step[step != 0]
        digits[moved], remainder[moved] = _scaled(tables["powers"], a[moved], e[moved])
        fallback[moved] |= ((np.abs(remainder[moved]) > 0.5 - 1e-9)
                            | (_unsettled(digits[moved], remainder[moved]) != 0))
        carry = edge[digits[edge] == 10**17]  # rounds up to the next power of ten
        digits[carry] = 10**16
        e[carry] += 1
    digits[far | fallback] = 0  # zeros get the digit 0; the fallbacks are overwritten below
    upper, lower = _divmod(digits, 10**8)
    upper, second = _divmod(upper, 10**4)
    first, upper = _divmod(upper, 10**4)
    third, fourth = _divmod(lower, 10**4)
    e += _E_LIMIT
    # the source rows, one spare word after the last for the shifted view
    words = np.empty(len(x) * 7 + 1, dtype=np.uint32)
    rows = words[:-1].reshape(-1, 7)
    head = (np.signbit(x) * (2 * _E_LIMIT + 1) + e) * 10 + first
    rows[:, :2].view(np.uint64)[:, 0] = tables["heads"].take(head)
    for k, group in enumerate((upper, second, third, fourth), start=2):
        rows[:, k] = tables["groups"].take(group)
    rows[:, 6] = tables["tails"].take(e)
    words[-1] = _NUL
    source = words.view(np.uint8)
    size = rows.size * 4
    n_digits = 17 - tables["trailing"].take(fourth).astype(np.intp)
    rest = np.flatnonzero(fourth == 0)
    if rest.size:  # the last nonzero digit; 1 for zero
        tail = rows.view(np.uint8)[rest, _DIGITS + 1:_DIGITS + 17]
        n_digits[rest] = 17 - np.argmax(tail[:, ::-1] != ord("0"), axis=1)
        n_digits[rest[np.all(tail == ord("0"), axis=1)]] = 1
    layout = tables["layout_of"].take(e) + np.maximum(n_digits, tables["kept_from"].take(e))
    mask = tables["from_next"].take(layout, axis=0)  # one buffer for the three table rows
    cells = np.multiply(source[1:size + 1], mask.reshape(-1))
    tables["from_same"].take(layout, axis=0, out=mask)
    cells += np.multiply(source[:size], mask.reshape(-1), out=mask.reshape(-1))
    cells += tables["point"].take(layout, axis=0, out=mask).reshape(-1)
    out[...] = cells.reshape(-1, _WIDTH)
    for i in np.flatnonzero(fallback):
        text = format_float(x[i]).encode()
        out[i] = _NUL
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def _compact(rows: np.ndarray) -> bytes:
    """The bytes of ``rows`` in order, without their NUL padding."""
    return rows.tobytes().translate(None, b"\0")


def _text_chunks(flat: np.ndarray, lines: np.ndarray, lead: int, fill=None) -> Iterator[bytes]:
    """The text of the finite doubles ``flat``, formatted in numpy passes of ``len(lines)`` numbers.

    ``lines`` is one uint8 buffer for every chunk, a row per number: ``lead``
    framing bytes, the number's cell of ``_WIDTH`` bytes, then framing to the
    row's end, ASCII with NUL padding. Framing that differs between chunks is
    set by ``fill(rows, start)`` on the rows of the chunk from ``flat[start]``
    on. Yields the text of each chunk without its NUL bytes.
    """
    step = max(len(lines), 1)  # an empty ``flat`` comes with an empty buffer
    for start in range(0, flat.size, step):
        chunk = flat[start:start + step]
        rows = lines[:len(chunk)]
        if fill is not None:
            fill(rows, start)
        _format_into(chunk, rows[:, lead:lead + _WIDTH])
        yield _compact(rows)


def format_floats(arr) -> list[bytes]:
    """The :func:`format_float` bytes of every entry of ``arr``, in row-major order.

    Formatted in numpy passes over chunks of ``_CHUNK`` numbers, as the
    writers do; a non-finite entry raises as in :func:`format_float`.
    """
    flat = check_finite(arr).ravel()
    lines = np.empty((min(_CHUNK, flat.size), _WIDTH + 1), dtype=np.uint8)
    lines[:, _WIDTH] = ord("\n")
    return b"".join(_text_chunks(flat, lines, 0)).split(b"\n")[:-1]


def write_float_grid(path, header: str, heads, columns, values) -> None:
    """Write ``header``, then one line ``heads[i] columns[j] values[i, j]`` per entry.

    ``heads`` and ``columns`` are ASCII texts, ``values`` a 2-D array whose
    numbers are written as by :func:`format_float`, row-major, one per line.
    Every number is checked finite before the file is opened. The lines are
    formatted and written in blocks of whole rows of about ``_CHUNK``
    numbers, so the text of the whole grid is never held at once.
    """
    values = check_finite(values)
    heads, columns = _text_field(heads), _text_field(columns)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if values.size:  # a grid without rows or columns has only its header
            fh.writelines(_grid_chunks(heads, columns, values))


def _grid_chunks(heads: np.ndarray, columns: np.ndarray, values: np.ndarray) -> Iterator[bytes]:
    """The lines of :func:`write_float_grid` in blocks of whole rows, from its text cells."""
    n_cols = values.shape[1]
    head, width = heads.shape[1], heads.shape[1] + columns.shape[1]
    block = max(1, _CHUNK // n_cols)
    # the column cells and line ends are the same in every block
    lines = np.empty((min(block, len(values)) * n_cols, width + _WIDTH + 1), dtype=np.uint8)
    lines.reshape(-1, n_cols, lines.shape[1])[:, :, head:width] = columns
    lines[:, -1] = ord("\n")

    def fill(rows, start):
        cells = rows.reshape(-1, n_cols, rows.shape[1])
        cells[:, :, :head] = heads[start // n_cols:start // n_cols + len(cells), None]

    return _text_chunks(values.ravel(), lines, width, fill)


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


def _json_array(arr) -> str:
    """JSON text of a float array: nested lists of its numbers as by :func:`format_float`."""
    arr = check_finite(arr)
    if arr.ndim == 0:
        return format_float(arr)
    if arr.size == 0:
        return _empty_json(arr.shape)
    ndim = arr.ndim
    # brackets closed after each entry: one per inner axis at its end, every one after the last
    closed = np.zeros(arr.shape, dtype=np.intp)
    for axis in range(1, ndim):
        closed[(slice(None),) * axis + (-1,) * (ndim - axis)] += 1
    closed = closed.ravel()
    closed[-1] = ndim
    separators = _text_field(["]" * k + "," + "[" * k for k in range(ndim)] + ["]" * ndim])

    lines = np.empty((min(_CHUNK, arr.size), _WIDTH + separators.shape[1]), dtype=np.uint8)

    def fill(rows, start):
        rows[:, _WIDTH:] = separators.take(closed[start:start + len(rows)], axis=0)

    return "[" * ndim + b"".join(_text_chunks(arr.ravel(), lines, 0, fill)).decode("ascii")


def _empty_json(shape: tuple[int, ...]) -> str:
    """JSON text of an array of ``shape`` with no entries."""
    return "[" + ",".join(_empty_json(shape[1:]) for _ in range(shape[0])) + "]"


def _encode(obj) -> str:
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _json_array(obj)
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
