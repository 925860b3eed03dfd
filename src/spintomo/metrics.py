"""State-comparison and state-quality functionals."""

from __future__ import annotations

import numpy as np

__all__ = ["fidelity", "purity", "max_eigenvalue", "trace_distance"]

# Eigenvalues above this floor are treated as numerical zeros and clipped
# before matrix square roots; anything more negative is a hard error.
NEGATIVITY_FLOOR = -1e-10


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def _clipped_sqrt_spectrum(w: np.ndarray) -> np.ndarray:
    # Zero everything below the eigensolver's resolution: sqrt amplifies
    # +-1e-16 jitter of true zeros to 1e-8, which would dominate the error.
    # ``w`` holds ascending spectra along its last axis.
    tiny = 64.0 * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)
    return np.sqrt(np.where(w > tiny, w, 0.0))


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(rho)
    if w[0] < NEGATIVITY_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    return (V * _clipped_sqrt_spectrum(w)) @ V.conj().T


def _fidelities(rho_a: np.ndarray, stack: np.ndarray) -> list[float]:
    """:func:`fidelity` of ``rho_a`` with each matrix of a (K, d, d) stack, in order.

    sqrt(rho_a) is taken once for the stack; entry k is bitwise equal to
    ``fidelity(rho_a, stack[k])``, which is the batch of one.
    """
    root = _sqrt_psd(np.asarray(rho_a, dtype=complex))
    inner = root @ np.asarray(stack, dtype=complex) @ root
    w = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2.0)
    low = w[:, 0][w[:, 0] < NEGATIVITY_FLOOR]
    if low.size:
        raise ValueError(f"fidelity kernel not positive (min eigenvalue {low[0]:.3e})")
    # squared one at a time: libm's pow, which the array power does not use
    traces = np.sum(_clipped_sqrt_spectrum(w), axis=-1).tolist()
    return [min(max(trace**2, 0.0), 1.0) for trace in traces]


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, clipped to [0, 1]."""
    rho_a, rho_b = _check_pair(rho_a, rho_b)
    return _fidelities(rho_a, rho_b[None])[0]


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2]; 1/d for the maximally mixed state, 1 for pure states."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def max_eigenvalue(rho: np.ndarray) -> float:
    rho = np.asarray(rho, dtype=complex)
    return float(np.linalg.eigvalsh(rho)[-1])


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Half the trace norm of (a - b); in [0, 1] for states."""
    rho_a, rho_b = _check_pair(rho_a, rho_b)
    w = np.linalg.eigvalsh(rho_a - rho_b)
    return float(0.5 * np.sum(np.abs(w)))
