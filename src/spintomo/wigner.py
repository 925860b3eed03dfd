"""Spherical Wigner quasi-probability function of a spin-F state.

The spin is the state's: a d x d density matrix is a state of spin
F = (d - 1) / 2, so the evaluators take the state alone.

W is defined by the orthonormal multipole (irreducible tensor) operators
T_kq and the spherical harmonics, with the overall constant fixed to make
the function integrate to 1 over the sphere:
W = sqrt(d / 4 pi) * sum_kq Tr[T_kq^dag rho] Y_kq.

It is evaluated in the equivalent rotated-kernel form (Agarwal, PRA 24,
2889, 1981; Varilly & Gracia-Bondia, Ann. Phys. 190, 107, 1989):
W(theta, phi) = Tr[rho R K R^dag] with R = e^{-i phi Fz} e^{-i theta Fy},
where K is the diagonal kernel at the north pole. One eigendecomposition of
Fy gives e^{-i theta Fy} at every theta, which turns K into A(theta), and
the phi dependence is a Fourier sum over the 2d - 1 diagonals of
rho^T * A(theta). The sum is real for Hermitian rho, and only its real part
is kept. The evaluation never builds the d^4 table of
:func:`multipole_operators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import serialize
from .spin_algebra import (
    SpinSystem,
    _spin_of,
    build_spin_system,
    check_density_matrix,
    clebsch_gordan,
)

__all__ = [
    "WignerGrid",
    "multipole_operators",
    "wigner_function",
    "wigner_integral",
    "write_wigner_csv",
]

CONVENTION = "unit-integral"  # integral of W over the sphere equals 1


def multipole_operators(sys: SpinSystem) -> dict[int, dict[int, np.ndarray]]:
    """The d^2 orthonormal tensor operators as ``{k: {q: T_kq}}``, k = 0..2F, q = -k..k.

    Matrix elements are <F m'|T_kq|F m> = sqrt((2k+1)/(2F+1)) <F m; k q|F m'>.
    The table is built once per dimension and shared; its matrices are read-only.
    """
    return _multipole_operators(sys.d)


@lru_cache(maxsize=None)
def _multipole_operators(d: int) -> dict[int, dict[int, np.ndarray]]:
    sys = build_spin_system((d - 1) / 2.0)
    F = sys.F
    ms = sys.m_values
    ops: dict[int, dict[int, np.ndarray]] = {}
    for k in range(d):  # k = 0 .. 2F
        row = {}
        norm = math.sqrt((2 * k + 1) / d)
        for q in range(-k, k + 1):
            T = np.zeros((d, d), dtype=complex)
            for col, m in enumerate(ms):
                m_out = m + q
                if abs(m_out) > F:
                    continue
                T[sys.index_of_m(m_out), col] = norm * clebsch_gordan(F, m, k, q, F, m_out)
            T.setflags(write=False)
            row[q] = T
        ops[k] = row
    return ops


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Wigner function sampled on a theta x phi grid (values are real)."""

    thetas: np.ndarray  # (n_theta,) in [0, pi]
    phis: np.ndarray  # (n_phi,) in [0, 2 pi)
    values: np.ndarray  # (n_theta, n_phi)

    def __post_init__(self):
        for arr in (self.thetas, self.phis, self.values):
            arr.setflags(write=False)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)

    @property
    def n_phi(self) -> int:
        return len(self.phis)


@lru_cache(maxsize=None)
def _pole_kernel(d: int) -> np.ndarray:
    """Diagonal of the kernel at the north pole, K_m = sum_k (2k+1)/(4 pi) <F m; k 0|F m>.

    Entries run over m = +F ... -F; the array is shared and read-only.
    """
    F = (d - 1) / 2.0
    K = np.array([
        sum((2 * k + 1) / (4.0 * math.pi) * clebsch_gordan(F, m, k, 0, F, m) for k in range(d))
        for m in F - np.arange(d)
    ])
    K.setflags(write=False)
    return K


def _diagonal_sums(rho: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """c_q(theta) for q = 1 - d ... d - 1, shape (n_theta, 2d - 1): W = Re sum_q c_q e^{-i q phi}.

    With A(theta) = e^{-i theta Fy} K e^{i theta Fy},
    Tr[rho e^{-i phi Fz} A e^{i phi Fz}] = sum_ab rho_ba A_ab e^{-i (m_a - m_b) phi}, and
    m_a - m_b = b - a: c_q(theta) is the sum of the q-th diagonal of rho^T * A(theta).
    Its (n_theta, d, d) work arrays are freed before the caller allocates the grid.
    """
    sys = _spin_of(rho)
    d = sys.d
    lam, V = np.linalg.eigh(sys.Fy)
    # Ry(theta) = e^{-i theta Fy} for every theta; it is real (the Wigner small-d matrix)
    Ry = ((V * np.exp(-1j * np.multiply.outer(thetas, lam))[:, None, :]) @ V.conj().T).real
    X = rho.T * ((Ry * _pole_kernel(d)) @ Ry.transpose(0, 2, 1))
    return np.stack([np.trace(X, offset=q, axis1=1, axis2=2) for q in range(1 - d, d)], axis=1)


def _evaluate(rho: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    c = _diagonal_sums(rho, thetas)
    angles = np.multiply.outer(np.arange(1 - len(rho), len(rho)), phis)
    # Re(c_q e^{-i q phi}) = Re(c_q) cos(q phi) + Im(c_q) sin(q phi): one real product
    return np.hstack((c.real, c.imag)) @ np.vstack((np.cos(angles), np.sin(angles)))


def wigner_function(rho: np.ndarray, n_theta: int = 181, n_phi: int = 360) -> WignerGrid:
    """Sample the Wigner function on a uniform grid for visualization.

    theta runs inclusively from 0 to pi (so both poles are on the grid) and
    phi covers [0, 2 pi) without the duplicate endpoint. Use
    :func:`wigner_integral` for normalization checks; the uniform grid is
    only second-order accurate as a quadrature rule.
    """
    rho = check_density_matrix(rho)
    if n_theta < 8 or n_phi < 8:
        raise ValueError("grid sizes must be at least 8")
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return WignerGrid(thetas=thetas, phis=phis, values=_evaluate(rho, thetas, phis))


def wigner_integral(rho: np.ndarray, n_theta: int = 64, n_phi: int = 128) -> float:
    """Integral of W over the sphere: Gauss-Legendre in cos(theta),
    trapezoid (= rectangle, by periodicity) in phi.

    The integrand is band-limited at degree 2F, so the default node counts
    evaluate the integral to machine precision; the result is 1 for any
    physical state in this package's normalization convention.
    """
    rho = check_density_matrix(rho)
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(nodes)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    values = _evaluate(rho, thetas, phis)
    return float((2.0 * math.pi / n_phi) * weights @ values.sum(axis=1))


def write_wigner_csv(grid: WignerGrid, path) -> None:
    """Emit the grid as CSV: commented header, then theta, phi, value rows.

    The angles and values are checked finite before the file is opened, so
    a grid holding NaN or inf raises ValueError and leaves no file. Each
    theta row is formatted in one ``%`` pass into a template built once
    from the formatted phi angles, and written in one call; the bytes are
    those of :func:`serialize.format_float` on every number. The file is
    not formatted whole: at the default 181 x 360 grid (3.8 MB of text at
    F = 5) that raised peak memory by about 7 MB, one row at a time by
    nothing measurable.
    """
    for arr in (grid.thetas, grid.phis, grid.values):
        serialize.check_finite(arr)
    fmt = serialize.format_float
    # a row is theta.join(cells): theta goes before each phi cell
    cells = [""] + [f",{fmt(phi)},{serialize.FLOAT_FORMAT}\n" for phi in grid.phis]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n_theta={grid.n_theta}\n")
        fh.write(f"# n_phi={grid.n_phi}\n")
        fh.write(f"# convention={CONVENTION}\n")
        fh.write("theta,phi,value\n")
        for theta, row in zip(map(fmt, grid.thetas), grid.values):
            fh.write(theta.join(cells) % tuple(row.tolist()))
