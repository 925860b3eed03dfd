"""Spherical Wigner quasi-probability function of a spin-F state.

The spin is the state's: a d x d density matrix is a state of spin
F = (d - 1) / 2, so the evaluators take the state alone.

W is defined by the orthonormal multipole (irreducible tensor) operators
T_kq and the spherical harmonics, with the overall constant fixed to make
the function integrate to 1 over the sphere:
W = sqrt(d / 4 pi) * sum_kq Tr[T_kq^dag rho] Y_kq.

Every T_kq comes from one construction, a Lanczos recurrence on the m grid
(:func:`_lanczos`): for q >= 0, T_kq lives on the q-th superdiagonal,
where it is p(m) w_q(m), with w_q that diagonal of (-F+)^q and p the
orthonormal polynomial of degree k - q for the weight w_q^2; then
T_k,-q = (-1)^q T_kq^dag. Each p has a positive leading coefficient, which
with the sign of w_q gives the Condon-Shortley phases.

It is evaluated in the equivalent rotated-kernel form (Agarwal, PRA 24,
2889, 1981; Varilly & Gracia-Bondia, Ann. Phys. 190, 107, 1989):
W(theta, phi) = Tr[rho R K R^dag] with R = e^{-i phi Fz} e^{-i theta Fy},
where K is the diagonal kernel at the north pole, built from the q = 0
rows of the same recurrence. One eigendecomposition of
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
    _unitary,
    build_spin_system,
    check_density_matrix,
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
    The table is built on each call; its matrices are read-only.
    """
    return _multipole_operators(sys.d)


def _lanczos(grid: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Orthonormal rows p_j(grid) * start, j = 0 .. len(grid) - 1, each p_j of degree j.

    Lanczos steps on diag(grid) from start / |start|, each orthogonalized twice against the
    rows before it. No sign is flipped, so every p_j has a positive leading coefficient.
    """
    rows = np.empty((len(grid), len(grid)))
    rows[0] = start / np.linalg.norm(start)
    for j in range(1, len(grid)):
        v = grid * rows[j - 1]
        for _ in range(2):
            v -= (rows[:j] @ v) @ rows[:j]
        rows[j] = v / np.linalg.norm(v)
    return rows


def _multipole_operators(d: int) -> dict[int, dict[int, np.ndarray]]:
    sys = build_spin_system((d - 1) / 2.0)
    ms, raising = sys.m_values, 2.0 * np.diagonal(sys.Fx, 1).real  # Fx holds F+ / 2
    rows, w = [], np.ones(d)  # w: the q-th superdiagonal of (-F+)^q
    for q in range(d):
        # the mean of the row's and the column's m: a grid symmetric about 0, the most accurate
        rows.append(_lanczos(ms[q:] + q / 2.0, w))
        w = -w[:-1] * raising[q:]
    ops = {}
    for k in range(d):
        upper = [np.diag(rows[q][k - q], q).astype(complex) for q in range(k + 1)]
        ops[k] = {q: (-1) ** q * upper[-q].T for q in range(-k, 0)} | dict(enumerate(upper))
        for T in ops[k].values():
            T.setflags(write=False)
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
    """Diagonal of the kernel at the north pole, K = sum_k sqrt((2k+1) d) / (4 pi) diag(T_k0).

    Entries run over m = +F ... -F; the array is shared and read-only.
    """
    rows = _lanczos((d - 1) / 2.0 - np.arange(d), np.ones(d))  # diag(T_k0), k = 0 .. 2F
    K = np.sqrt((2 * np.arange(d) + 1) * d) / (4.0 * math.pi) @ rows
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
    # Ry(theta) = e^{-i theta Fy} for every theta; it is real (the Wigner small-d matrix)
    Ry = _unitary(sys.Fy, thetas[:, None]).real
    X = rho.T * ((Ry * _pole_kernel(d)) @ Ry.transpose(0, 2, 1))
    return np.stack([np.trace(X, offset=q, axis1=1, axis2=2) for q in range(1 - d, d)], axis=1)


def _evaluate(rho: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    c = _diagonal_sums(rho, thetas)
    angles = np.multiply.outer(np.arange(1 - len(rho), len(rho)), phis)
    # Re(c_q e^{-i q phi}) = Re(c_q) cos(q phi) + Im(c_q) sin(q phi): one real product
    return np.hstack((c.real, c.imag)) @ np.vstack((np.cos(angles), np.sin(angles)))


def _checked(rho: np.ndarray, n_theta: int, n_phi: int) -> np.ndarray:
    """``rho`` as a density matrix, for a grid of integer sizes of at least 8 in each angle."""
    serialize.integer(n_theta, "n_theta", 8)
    serialize.integer(n_phi, "n_phi", 8)
    return check_density_matrix(rho)


def wigner_function(rho: np.ndarray, n_theta: int = 181, n_phi: int = 360) -> WignerGrid:
    """Sample the Wigner function on a uniform grid for visualization.

    ``n_theta`` thetas run inclusively from 0 to pi (both poles are on the
    grid), ``n_phi`` phis cover [0, 2 pi) without the duplicate endpoint; both
    are integers >= 8. Use :func:`wigner_integral` for normalization checks;
    the uniform grid is only second-order accurate as a quadrature rule.
    """
    rho = _checked(rho, n_theta, n_phi)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return WignerGrid(thetas=thetas, phis=phis, values=_evaluate(rho, thetas, phis))


def wigner_integral(rho: np.ndarray, n_theta: int = 64, n_phi: int = 128) -> float:
    """Integral of W over the sphere: Gauss-Legendre in cos(theta),
    trapezoid (= rectangle, by periodicity) in phi.

    The integrand is band-limited at degree 2F, so the default node counts
    (integers >= 8) evaluate the integral to machine precision; the result is
    1 for any physical state in this package's normalization convention.
    """
    rho = _checked(rho, n_theta, n_phi)
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(nodes)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    values = _evaluate(rho, thetas, phis)
    return float((2.0 * math.pi / n_phi) * weights @ values.sum(axis=1))


def write_wigner_csv(grid: WignerGrid, path) -> None:
    """Emit the grid as CSV: commented header, then theta, phi, value rows.

    Every number has the bytes of :func:`serialize.format_float`. The angles
    and values are checked finite before the file is opened, so a grid
    holding NaN or inf raises ValueError and leaves no file. The values are
    formatted by :func:`serialize.write_float_grid` in numpy passes over
    blocks of theta rows, each written as it is done: the whole file (3.8 MB
    of text at the default 181 x 360 grid) is never held at once.
    """
    fmt = serialize.format_float
    header = (f"# n_theta={grid.n_theta}\n# n_phi={grid.n_phi}\n# convention={CONVENTION}\n"
              "theta,phi,value\n")
    serialize.write_float_grid(path, header, [fmt(theta) + "," for theta in grid.thetas],
                               [fmt(phi) + "," for phi in grid.phis], grid.values)
