"""Spin-F operator algebra and operator-space coordinates.

Conventions used across the package: hbar = 1, basis states ordered by
magnetic quantum number m = +F ... -F (row/column 0 is the stretched state
m = +F), Condon-Shortley phases. Density matrices are plain complex numpy
arrays validated with :func:`check_density_matrix` where a contract requires
a physical state.

Operators are represented by their real coordinates in an orthonormal
Hermitian (generalized Gell-Mann) basis, and the index maps
:func:`state_to_coords` and :func:`coords_to_state` are the only definition
of that basis: element a is ``coords_to_state`` of the a-th unit vector.
Element 0 is I/sqrt(d); then, for each pair j < k in row-major order, the
symmetric and antisymmetric elements on entries (j, k) and (k, j); then the
d - 1 traceless diagonal elements. All are orthonormal under the
Hilbert-Schmidt inner product, so the coordinate map is an isometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "SpinSystem",
    "build_spin_system",
    "measured_observable",
    "hermitian_basis",
    "state_to_coords",
    "coords_to_state",
    "clebsch_gordan",
    "test_state",
    "check_density_matrix",
    "is_hermitian",
]


def _as_twice(name: str, value) -> int:
    """Validate a half-integer and return 2*value as an exact int."""
    twice = 2.0 * float(value)
    rounded = round(twice)
    if abs(twice - rounded) > 1e-9:
        raise ValueError(f"{name} must be an integer or half-integer, got {value}")
    return int(rounded)


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Dimension and cached angular-momentum matrices for one spin F."""

    F: float
    d: int
    Fx: np.ndarray
    Fy: np.ndarray
    Fz: np.ndarray

    def __post_init__(self):
        for op in (self.Fx, self.Fy, self.Fz):
            op.setflags(write=False)

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order, +F ... -F."""
        return self.F - np.arange(self.d)

    def index_of_m(self, m) -> int:
        tm = _as_twice("m", m)
        tF = round(2 * self.F)
        if (tF + tm) % 2 != 0 or abs(tm) > tF:
            raise ValueError(f"m={m} is not a level of a spin-{self.F} system")
        return (tF - tm) // 2


def build_spin_system(F) -> SpinSystem:
    """Construct Fx, Fy, Fz for spin F from the ladder-operator formula.

    F must be a positive integer or half-integer; the raising operator has
    matrix elements sqrt(F(F+1) - m(m+1)).
    """
    twice = _as_twice("F", F)
    if twice <= 0:
        raise ValueError(f"F must be at least 1/2, got {F}")
    Fval = twice / 2.0
    d = twice + 1
    m = Fval - np.arange(d)
    fplus = np.zeros((d, d), dtype=complex)
    for col in range(1, d):
        mm = m[col]
        fplus[col - 1, col] = math.sqrt(Fval * (Fval + 1) - mm * (mm + 1))
    fminus = fplus.conj().T
    fx = (fplus + fminus) / 2.0
    fy = (fplus - fminus) / 2.0j
    fz = np.diag(m.astype(complex))
    return SpinSystem(F=Fval, d=d, Fx=fx, Fy=fy, Fz=fz)


def _spin_of(mat: np.ndarray) -> SpinSystem:
    """The spin F = (d - 1) / 2 whose operators are d x d like ``mat``; d must be at least 2."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or len(mat) < 2:
        raise ValueError(f"expected a d x d matrix with d >= 2, got shape {mat.shape}")
    return build_spin_system((len(mat) - 1) / 2)


def measured_observable(sys: SpinSystem) -> np.ndarray:
    """The probed spin observable Fx*Fy + Fy*Fx (Hermitian, traceless)."""
    return sys.Fx @ sys.Fy + sys.Fy @ sys.Fx


@lru_cache(maxsize=None)
def _diagonal_rows(d: int) -> np.ndarray:
    """Diagonals of the d-1 traceless diagonal basis elements, shape (d-1, d).

    Row l-1 is (1, ..., 1, -l, 0, ...) with l ones, times 1/sqrt(l(l+1)).
    """
    rows = np.zeros((d - 1, d))
    for level in range(1, d):
        rows[level - 1, : level + 1] = [1.0] * level + [-level]
        # multiply by the reciprocal: dividing is one ulp off at d >= 4 (e.g. -3/sqrt(12))
        rows[level - 1] *= 1.0 / math.sqrt(level * (level + 1))
    rows.setflags(write=False)
    return rows


def state_to_coords(mat: np.ndarray) -> np.ndarray:
    """Real coordinate vector Re Tr[B_a^dag mat] of a square matrix, length d^2.

    Batched: a stack of shape (..., d, d) maps to coordinates (..., d^2).
    Each off-diagonal pair of entries feeds one symmetric and one
    antisymmetric coordinate, so the map costs O(d^2) per matrix. The trace
    coordinate is a plain sum of the diagonal, which cancels exactly for
    exactly traceless input.
    """
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    d = mat.shape[-1]
    j, k = np.triu_indices(d, 1)
    upper, lower = mat[..., j, k], mat[..., k, j]
    diag = np.diagonal(mat, axis1=-2, axis2=-1).real
    split = d * (d - 1) + 1  # first traceless diagonal coordinate
    coords = np.empty(mat.shape[:-2] + (d * d,))
    coords[..., 0] = diag.sum(axis=-1) / math.sqrt(d)
    coords[..., 1:split:2] = (upper.real + lower.real) / math.sqrt(2.0)
    coords[..., 2:split:2] = (lower.imag - upper.imag) / math.sqrt(2.0)
    coords[..., split:] = diag @ _diagonal_rows(d).T
    return coords


def coords_to_state(coords: np.ndarray) -> np.ndarray:
    """Hermitian matrix with the given real basis coordinates.

    Batched: coordinates of shape (..., d^2) map to matrices (..., d, d),
    Hermitian to the last bit.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim < 1:
        raise ValueError("coordinates must be a real vector or a stack of them")
    d = math.isqrt(coords.shape[-1])
    if d * d != coords.shape[-1]:
        raise ValueError(f"coordinate length {coords.shape[-1]} is not a perfect square")
    j, k = np.triu_indices(d, 1)
    split = d * (d - 1) + 1
    sym = coords[..., 1:split:2] / math.sqrt(2.0)
    anti = coords[..., 2:split:2] / math.sqrt(2.0)
    mat = np.zeros(coords.shape[:-1] + (d, d), dtype=complex)
    # subtracting from 0.0 keeps zero imaginary parts at +0.0, so a matrix
    # written with 17-digit floats reads back and rewrites to the same bytes
    mat[..., j, k] = sym + 1j * (0.0 - anti)
    mat[..., k, j] = sym + 1j * anti
    diag = coords[..., :1] / math.sqrt(d) + coords[..., split:] @ _diagonal_rows(d)
    idx = np.arange(d)
    mat[..., idx, idx] = diag
    return mat


@lru_cache(maxsize=None)
def _basis(d: int) -> np.ndarray:
    elements = coords_to_state(np.eye(d * d))
    elements.setflags(write=False)
    return elements


def hermitian_basis(sys: SpinSystem) -> np.ndarray:
    """The cached, read-only (d^2, d, d) stack of Hermitian basis elements."""
    return _basis(sys.d)


def _half_factorial(twice: int) -> int:
    # factorial of twice/2; twice must be even and nonnegative
    if twice < 0 or twice % 2 != 0:
        raise ValueError("internal: factorial argument must be a nonnegative integer")
    return math.factorial(twice // 2)


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>, Condon-Shortley phase.

    Evaluated with the Racah single-sum closed form using exact integer
    factorial arithmetic; the only float operations are the final square
    root and division. Returns 0 for violated selection rules (M != m1+m2,
    triangle rule, |m| > j, parity); rejects non-half-integer inputs.
    """
    tj1 = _as_twice("j1", j1)
    tm1 = _as_twice("m1", m1)
    tj2 = _as_twice("j2", j2)
    tm2 = _as_twice("m2", m2)
    tJ = _as_twice("J", J)
    tM = _as_twice("M", M)
    for tj, name in ((tj1, "j1"), (tj2, "j2"), (tJ, "J")):
        if tj < 0:
            raise ValueError(f"{name} must be nonnegative")
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tJ, tM)):
        if abs(tm) > tj or (tj + tm) % 2 != 0:
            return 0.0
    if tM != tm1 + tm2:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2:
        return 0.0
    if (tj1 + tj2 + tJ) % 2 != 0:
        return 0.0

    prefactor = Fraction(
        (tJ + 1)
        * _half_factorial(tj1 + tj2 - tJ)
        * _half_factorial(tj1 - tj2 + tJ)
        * _half_factorial(-tj1 + tj2 + tJ),
        _half_factorial(tj1 + tj2 + tJ + 2),
    )
    prefactor *= (
        _half_factorial(tJ + tM)
        * _half_factorial(tJ - tM)
        * _half_factorial(tj1 - tm1)
        * _half_factorial(tj1 + tm1)
        * _half_factorial(tj2 - tm2)
        * _half_factorial(tj2 + tm2)
    )

    a1 = (tj1 + tj2 - tJ) // 2
    a2 = (tj1 - tm1) // 2
    a3 = (tj2 + tm2) // 2
    b1 = (tJ - tj2 + tm1) // 2
    b2 = (tJ - tj1 - tm2) // 2
    kmin = max(0, -b1, -b2)
    kmax = min(a1, a2, a3)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (
            math.factorial(k)
            * math.factorial(a1 - k)
            * math.factorial(a2 - k)
            * math.factorial(a3 - k)
            * math.factorial(b1 + k)
            * math.factorial(b2 + k)
        )
        total += Fraction(-1 if k % 2 else 1, denom)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(prefactor * total * total))


def _unitary(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) of a Hermitian H, from its eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


# kind -> the parameter names it accepts; the first one, if any, is required
TEST_STATE_PARAMS = {
    "basis_state": ("m",),
    "spin_coherent": ("theta", "phi"),
    "cat": (),
    "mixed": (),
    "twisted": ("mu",),
}


def test_state(sys: SpinSystem, kind: str, **params) -> np.ndarray:
    """Factory of benchmark input states.

    Parameters
    ----------
    kind:
        One of ``basis_state`` (requires ``m``), ``spin_coherent``
        (``theta``, optional ``phi``), ``cat``, ``mixed``, ``twisted``
        (requires ``mu``); see :data:`TEST_STATE_PARAMS`.

    Returns
    -------
    A d x d density matrix. ``basis_state`` gives the projector |m><m|;
    ``spin_coherent`` rotates the stretched state |m=+F> to polar angles
    (theta, phi); ``cat`` is the equal superposition
    (|m=+F> + i|m=-F>)/sqrt(2); ``mixed`` is I/d; ``twisted`` applies
    exp(-i mu Fx^2) to the stretched state.
    """
    if kind not in TEST_STATE_PARAMS:
        raise ValueError(f"unknown test state kind {kind!r}")
    names = TEST_STATE_PARAMS[kind]
    extra = set(params) - set(names)
    if extra:
        raise ValueError(f"unexpected parameters for kind {kind!r}: {sorted(extra)}")
    if names and names[0] not in params:
        raise ValueError(f"{kind} requires parameter {names[0]}")
    if not all(math.isfinite(float(v)) for v in params.values()):
        raise ValueError(f"{kind} parameters must be finite")
    d = sys.d
    if kind == "basis_state":
        ket = np.zeros(d, dtype=complex)
        ket[sys.index_of_m(params["m"])] = 1.0
    elif kind == "spin_coherent":
        theta = float(params["theta"])
        phi = float(params.get("phi", 0.0))
        axis = -math.sin(phi) * sys.Fx + math.cos(phi) * sys.Fy
        ket = _unitary(axis, theta)[:, 0]
    elif kind == "cat":
        ket = np.zeros(d, dtype=complex)
        ket[0] = 1.0 / math.sqrt(2.0)
        ket[-1] = 1j / math.sqrt(2.0)
    elif kind == "mixed":
        return np.eye(d, dtype=complex) / d
    else:  # twisted
        ket = _unitary(sys.Fx @ sys.Fx, float(params["mu"]))[:, 0]
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def is_hermitian(mat: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether a square matrix, or every matrix of a (..., d, d) stack, is Hermitian."""
    mat = np.asarray(mat)
    return mat.ndim >= 2 and mat.shape[-1] == mat.shape[-2] and bool(
        np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)), initial=0.0) <= tol
    )


# the physical-state contract of check_density_matrix
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_MIN_EIGENVALUE = -1e-10


def check_density_matrix(rho: np.ndarray, d: int | None = None) -> np.ndarray:
    """Validate the physical-state contract; returns rho as a complex array.

    Raises ValueError naming the violated condition: finite entries,
    Hermiticity and unit trace (each to 1e-12), or an eigenvalue below
    -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if d is not None and rho.shape[0] != d:
        raise ValueError(f"density matrix has dimension {rho.shape[0]}, expected {d}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_defect > _HERM_TOL:
        raise ValueError(f"density matrix is not Hermitian (defect {herm_defect:.3e})")
    trace_defect = abs(np.trace(rho) - 1.0)
    if trace_defect > _TRACE_TOL:
        raise ValueError(f"density matrix trace differs from 1 by {trace_defect:.3e}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < _MIN_EIGENVALUE:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho
