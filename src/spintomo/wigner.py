"""Spherical Wigner quasi-probability function of a spin-F state.

The state is expanded over the orthonormal multipole (irreducible tensor)
operators T_kq, and the expansion coefficients are recombined with
spherical harmonics on a (theta, phi) grid. Conjugate-q terms are paired
analytically, so the returned field is exactly real. The overall constant
is fixed to make the function integrate to 1 over the sphere:
W = sqrt(d / 4 pi) * sum_kq Tr[T_kq^dag rho] Y_kq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import serialize
from .spin_algebra import SpinSystem, build_spin_system, check_density_matrix, clebsch_gordan

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


def _legendre_table(kmax: int, x: np.ndarray) -> np.ndarray:
    """Associated Legendre P_k^q(x) for 0 <= q <= k <= kmax, Condon-Shortley.

    Standard stable recurrences: diagonal seed, one step up in k, then the
    three-term recurrence in k at fixed q.
    """
    x = np.asarray(x, dtype=float)
    P = np.zeros((kmax + 1, kmax + 1) + x.shape)
    P[0, 0] = 1.0
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    for q in range(1, kmax + 1):
        P[q, q] = -(2 * q - 1) * s * P[q - 1, q - 1]
    for q in range(kmax):
        P[q + 1, q] = (2 * q + 1) * x * P[q, q]
    for q in range(kmax + 1):
        for k in range(q + 2, kmax + 1):
            P[k, q] = ((2 * k - 1) * x * P[k - 1, q] - (k - 1 + q) * P[k - 2, q]) / (k - q)
    return P


def _harmonic_norm(k: int, q: int) -> float:
    return math.sqrt(
        (2 * k + 1) / (4.0 * math.pi) * math.factorial(k - q) / math.factorial(k + q)
    )


def _evaluate(rho: np.ndarray, sys: SpinSystem, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    tensors = multipole_operators(sys)
    kmax = sys.d - 1
    P = _legendre_table(kmax, np.cos(thetas))
    scale = math.sqrt(sys.d / (4.0 * math.pi))
    values = np.zeros((len(thetas), len(phis)))
    for k in range(kmax + 1):
        # coefficients Tr[T_kq^dag rho], q >= 0; the q = 0 one is real for Hermitian rho
        c0 = complex(np.vdot(tensors[k][0], rho)).real
        values += (scale * _harmonic_norm(k, 0) * c0) * P[k, 0][:, None]
        for q in range(1, k + 1):
            c = complex(np.vdot(tensors[k][q], rho))
            radial = (2.0 * scale * _harmonic_norm(k, q)) * P[k, q]
            values += radial[:, None] * (
                c.real * np.cos(q * phis)[None, :] - c.imag * np.sin(q * phis)[None, :]
            )
    return values


def wigner_function(
    rho: np.ndarray,
    sys: SpinSystem,
    n_theta: int = 181,
    n_phi: int = 360,
) -> WignerGrid:
    """Sample the Wigner function on a uniform grid for visualization.

    theta runs inclusively from 0 to pi (so both poles are on the grid) and
    phi covers [0, 2 pi) without the duplicate endpoint. Use
    :func:`wigner_integral` for normalization checks; the uniform grid is
    only second-order accurate as a quadrature rule.
    """
    rho = check_density_matrix(rho, sys.d)
    if n_theta < 8 or n_phi < 8:
        raise ValueError("grid sizes must be at least 8")
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return WignerGrid(thetas=thetas, phis=phis, values=_evaluate(rho, sys, thetas, phis))


def wigner_integral(
    rho: np.ndarray,
    sys: SpinSystem,
    n_theta: int = 64,
    n_phi: int = 128,
) -> float:
    """Integral of W over the sphere: Gauss-Legendre in cos(theta),
    trapezoid (= rectangle, by periodicity) in phi.

    The integrand is band-limited at degree 2F, so the default node counts
    evaluate the integral to machine precision; the result is 1 for any
    physical state in this package's normalization convention.
    """
    rho = check_density_matrix(rho, sys.d)
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(nodes)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    values = _evaluate(rho, sys, thetas, phis)
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
