"""Shared random-state generators for the test suite."""

import numpy as np


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def water_filling_reference(rho: np.ndarray) -> np.ndarray:
    """Eigenvalue-by-eigenvalue projection onto density matrices (reference).

    The iterative form of Smolin, Gambetta & Smith (PRL 108, 070502, 2012):
    eigenvectors are kept, the most negative eigenvalue is zeroed and its
    deficit spread uniformly over the other not-yet-zeroed eigenvalues,
    until none is negative. An already-positive input is returned unchanged.
    """
    rho = np.asarray(rho, dtype=complex)
    w, V = np.linalg.eigh(rho)
    if w[0] >= 0:
        return rho.copy()
    w = w.astype(float).copy()
    active = np.ones(len(w), dtype=bool)
    while True:
        neg = np.where(active & (w < 0))[0]
        if neg.size == 0:
            break
        worst = neg[np.argmin(w[neg])]
        deficit = w[worst]
        w[worst] = 0.0
        active[worst] = False
        remaining = np.where(active)[0]
        if remaining.size == 0:
            break
        w[remaining] += deficit / remaining.size
    w = np.clip(w, 0.0, None)
    out = (V * w) @ V.conj().T
    return (out + out.conj().T) / 2.0
