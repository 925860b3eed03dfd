"""State reconstruction from a measurement record.

The estimate is produced in two steps: an ordinary least-squares fit over
the traceless basis coordinates (the trace coordinate is fixed by hand, so
the linear system is small and well conditioned), followed by projection of
the possibly non-positive fit onto the nearest physical density matrix in
Frobenius distance. Optionally a small set of named scale factors of the
drive (nuisance parameters) is co-estimated by minimizing the least-squares
residual over recomputed observable histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import serialize
from .dynamics import (
    ControlWaveform,
    ObservableHistory,
    heisenberg_history,
    propagate_state,
    sample_times,
)
from .measurement import MeasurementRecord
from .metrics import fidelity, max_eigenvalue
from .spin_algebra import (
    SpinSystem,
    check_density_matrix,
    coords_to_state,
    is_hermitian,
    measured_observable,
)

__all__ = [
    "FingerprintMismatchError",
    "LeastSquaresFit",
    "EstimateResult",
    "least_squares",
    "project_to_physical",
    "estimate",
    "estimate_prefix_curve",
    "estimate_with_nuisance",
    "write_estimate",
    "read_estimate",
]

SVD_CUTOFF = 1e-10
NUISANCE_NAMES = ("omega_scale", "chi_scale")
ESTIMATE_FORMAT_VERSION = 1


class FingerprintMismatchError(ValueError):
    """Record and model disagree: waveform fingerprint, spin size or sample grid."""


@dataclass(frozen=True, eq=False)
class LeastSquaresFit:
    """Unconstrained fit: rho_ls may have negative eigenvalues."""

    rho_ls: np.ndarray
    covariance: np.ndarray  # (d^2-1, d^2-1), traceless coordinates
    residual_norm: float
    rank: int
    singular_values: np.ndarray


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Full reconstruction output; rho_ml is a valid density matrix."""

    rho_ls: np.ndarray
    rho_ml: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    rank: int
    singular_values: np.ndarray
    nuisance: dict[str, float] = field(default_factory=dict)
    nuisance_converged: bool | None = None


def _check_match(record: MeasurementRecord, history: ObservableHistory) -> None:
    if record.waveform_fingerprint != history.waveform_fingerprint:
        raise FingerprintMismatchError(
            f"record fingerprint {record.waveform_fingerprint} does not match "
            f"history fingerprint {history.waveform_fingerprint}"
        )
    _check_grid(record, history.d, history.times)


def _check_grid(record: MeasurementRecord, d: int, times: np.ndarray) -> None:
    """The record's spin size and sample times must be those of the model.

    The waveform fingerprint covers neither, so a record simulated for
    another F or on another grid would otherwise be fitted silently.
    """
    if record.F != (d - 1) / 2.0:
        raise FingerprintMismatchError(
            f"record is for spin F={record.F:g}, the model for F={(d - 1) / 2.0:g}"
        )
    if record.n_samples != len(times):
        raise FingerprintMismatchError(
            f"record has {record.n_samples} samples, the model has {len(times)}"
        )
    if not np.allclose(record.times, times, rtol=1e-12, atol=0.0):
        raise FingerprintMismatchError("record sample times differ from the model's sample grid")


def _solve(
    values: np.ndarray,
    design: np.ndarray,
    sigma_eff: float,
    cutoff: float,
) -> LeastSquaresFit:
    """Core SVD solve of the trace-eliminated system."""
    dim = design.shape[1]
    d = math.isqrt(dim)
    trace_column = design[:, 0]
    traceless = design[:, 1:]
    target = values - trace_column / math.sqrt(d)
    U, s, Vt = np.linalg.svd(traceless, full_matrices=False)
    if s.size and s[0] > 0:
        rank = int(np.count_nonzero(s > cutoff * s[0]))
    else:
        rank = 0
    Ur, sr, Vr = U[:, :rank], s[:rank], Vt[:rank]
    x = Vr.T @ ((Ur.T @ target) / sr) if rank else np.zeros(dim - 1)
    residual = float(np.linalg.norm(traceless @ x - target))
    if rank:
        covariance = (sigma_eff**2) * (Vr.T * (1.0 / sr**2)) @ Vr
        covariance = (covariance + covariance.T) / 2.0
    else:
        covariance = np.zeros((dim - 1, dim - 1))
    coords = np.concatenate(([1.0 / math.sqrt(d)], x))
    return LeastSquaresFit(
        rho_ls=coords_to_state(coords),
        covariance=covariance,
        residual_norm=residual,
        rank=rank,
        singular_values=s,
    )


def least_squares(
    record: MeasurementRecord,
    history: ObservableHistory,
    cutoff: float = SVD_CUTOFF,
) -> LeastSquaresFit:
    """Ordinary least-squares fit of the record over traceless coordinates.

    Solves min_x || A x + a0/sqrt(d) - M ||^2 where A is the design matrix
    restricted to traceless coordinates, via SVD with relative cutoff
    ``cutoff``. The parameter covariance is sigma_eff^2 (A^T A)^+ on the
    retained singular subspace (directions beyond ``rank`` carry no
    information and are excluded rather than reported as infinite).
    """
    _check_match(record, history)
    if record.n_samples < 1:
        raise ValueError("record is empty")
    sigma_eff = record.sigma / math.sqrt(record.n_averaged)
    return _solve(record.values, history.design_matrix, sigma_eff, cutoff)


def project_to_physical(rho_ls: np.ndarray) -> np.ndarray:
    """Frobenius-nearest density matrix to a Hermitian unit-trace matrix.

    Water-filling on the spectrum: eigenvectors are kept, the most negative
    eigenvalue is zeroed and its deficit spread uniformly over the other
    not-yet-zeroed eigenvalues, until none is negative. An already-positive
    input is returned unchanged.
    """
    rho_ls = np.asarray(rho_ls, dtype=complex)
    if rho_ls.ndim != 2 or rho_ls.shape[0] != rho_ls.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho_ls.shape}")
    if not is_hermitian(rho_ls, tol=1e-10):
        raise ValueError("projection input must be Hermitian")
    tr = np.trace(rho_ls)
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"projection input must have unit trace, got {tr}")
    w, V = np.linalg.eigh(rho_ls)
    if w[0] >= 0:
        return rho_ls.copy()
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


def estimate(
    record: MeasurementRecord,
    history: ObservableHistory,
    cutoff: float = SVD_CUTOFF,
) -> EstimateResult:
    """Two-step reconstruction: least squares, then positivity projection."""
    fit = least_squares(record, history, cutoff)
    rho_ml = project_to_physical(fit.rho_ls)
    return EstimateResult(
        rho_ls=fit.rho_ls,
        rho_ml=rho_ml,
        covariance=fit.covariance,
        residual_norm=fit.residual_norm,
        rank=fit.rank,
        singular_values=fit.singular_values,
    )


def estimate_prefix_curve(
    record: MeasurementRecord,
    history: ObservableHistory,
    rho0_true: np.ndarray,
    sys: SpinSystem,
    waveform: ControlWaveform,
    stride: int = 5,
    cutoff: float = SVD_CUTOFF,
) -> list[tuple[float, float, float]]:
    """Reconstruction quality as the record accumulates.

    Returns (time, fidelity, max eigenvalue of the evolved true state) for
    prefix lengths k = 0, stride, 2*stride, ..., N. The k = 0 point is the
    unbiased prior I/d at time 0; each later point reruns the full estimate
    on the first k samples. The third column tracks how much purity the
    true state has lost to decoherence by that time.
    """
    _check_match(record, history)
    rho0_true = check_density_matrix(rho0_true, history.d)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    n = record.n_samples
    d = history.d
    sigma_eff = record.sigma / math.sqrt(record.n_averaged)
    evolved = propagate_state(rho0_true, sys, waveform, n_samples=n)
    top_eig = [max_eigenvalue(rho) for rho in evolved]
    ks = [0] + list(range(stride, n, stride)) + [n]
    points = []
    for k in ks:
        if k == 0:
            est = np.eye(d, dtype=complex) / d
            t = 0.0
            top = top_eig[0]
        else:
            fit = _solve(record.values[:k], history.design_matrix[:k], sigma_eff, cutoff)
            est = project_to_physical(fit.rho_ls)
            t = float(record.times[k - 1])
            top = top_eig[k - 1]
        points.append((t, fidelity(rho0_true, est), top))
    return points


def _deterministic_simplex(x0: np.ndarray, widths: np.ndarray) -> np.ndarray:
    simplex = np.tile(x0, (len(x0) + 1, 1))
    for i in range(len(x0)):
        simplex[i + 1, i] += widths[i]
    return simplex


def estimate_with_nuisance(
    record: MeasurementRecord,
    waveform: ControlWaveform,
    sys: SpinSystem,
    params: dict[str, tuple[float, float]],
    budget: int = 200,
    cutoff: float = SVD_CUTOFF,
) -> EstimateResult:
    """Co-estimate drive scale factors with the state (profile likelihood).

    ``params`` maps names from {omega_scale, chi_scale} to (lower, upper)
    bounds. For Gaussian noise, minimizing the least-squares residual over
    the scales is equivalent to maximizing the likelihood, so an outer
    Nelder-Mead searches the scales while the inner linear fit is redone
    against a freshly propagated observable history at each trial point.

    The waveform fingerprint is deliberately not checked against the
    record here: a drifted drive is the reason this entry point exists.
    Deterministic for fixed inputs (fixed initial simplex). If the
    evaluation budget runs out first, the best point so far is returned
    with ``nuisance_converged`` False.
    """
    _check_grid(record, sys.d, sample_times(waveform, record.n_samples))
    if not params:
        nominal = heisenberg_history(
            sys, waveform, measured_observable(sys), n_samples=record.n_samples
        )
        return estimate(record, nominal, cutoff)
    if len(params) > 3:
        raise ValueError("at most 3 nuisance parameters are supported")
    names = list(params)
    for name in names:
        if name not in NUISANCE_NAMES:
            raise ValueError(f"unknown nuisance parameter {name!r}; valid: {NUISANCE_NAMES}")
    lows = np.array([float(params[n][0]) for n in names])
    highs = np.array([float(params[n][1]) for n in names])
    if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs)) and np.all(lows < highs)):
        raise ValueError("nuisance bounds must be finite with lower < upper")
    if budget < 1:
        raise ValueError("budget must be at least 1")

    observable = measured_observable(sys)

    def history_for(x: np.ndarray) -> ObservableHistory:
        scales = dict(zip(names, x))
        scaled = waveform.with_scales(
            omega_scale=scales.get("omega_scale", 1.0),
            chi_scale=scales.get("chi_scale", 1.0),
        )
        return heisenberg_history(sys, scaled, observable, n_samples=record.n_samples)

    sigma_eff = record.sigma / math.sqrt(record.n_averaged)

    def objective(x: np.ndarray) -> float:
        x = np.clip(x, lows, highs)
        fit = _solve(record.values, history_for(x).design_matrix, sigma_eff, cutoff)
        return fit.residual_norm

    x0 = (lows + highs) / 2.0
    result = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        bounds=list(zip(lows, highs)),
        options={
            "maxfev": budget,
            "xatol": 1e-6,
            "fatol": 1e-14,
            "initial_simplex": _deterministic_simplex(x0, 0.25 * (highs - lows)),
        },
    )
    best = np.clip(result.x, lows, highs)
    fit = _solve(record.values, history_for(best).design_matrix, sigma_eff, cutoff)
    return EstimateResult(
        rho_ls=fit.rho_ls,
        rho_ml=project_to_physical(fit.rho_ls),
        covariance=fit.covariance,
        residual_norm=fit.residual_norm,
        rank=fit.rank,
        singular_values=fit.singular_values,
        nuisance={name: float(v) for name, v in zip(names, best)},
        nuisance_converged=bool(result.success),
    )


def write_estimate(
    result: EstimateResult,
    path,
    waveform_fingerprint: str,
) -> None:
    """Serialize an estimate; the covariance is stored as its lower triangle."""
    d = result.rho_ml.shape[0]
    cov = result.covariance
    lower = [float(cov[i, j]) for i in range(cov.shape[0]) for j in range(i + 1)]
    doc = {
        "version": ESTIMATE_FORMAT_VERSION,
        "F": (d - 1) / 2.0,
        "rho_ls": serialize.matrix_to_pairs(result.rho_ls),
        "rho_ml": serialize.matrix_to_pairs(result.rho_ml),
        "covariance_lower": lower,
        "residual_norm": float(result.residual_norm),
        "rank": int(result.rank),
        "singular_values": [float(s) for s in result.singular_values],
        "nuisance": {k: float(v) for k, v in result.nuisance.items()},
        "nuisance_converged": result.nuisance_converged,
        "waveform_fingerprint": waveform_fingerprint,
    }
    serialize.dump_path(doc, path)


def read_estimate(path) -> tuple[EstimateResult, dict]:
    """Load an estimate document; returns (result, metadata dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = serialize.load(fh)
        except ValueError as exc:
            raise ValueError(f"estimate file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != ESTIMATE_FORMAT_VERSION:
        raise ValueError("unsupported estimate document")
    rho_ls = serialize.pairs_to_matrix(doc["rho_ls"], "rho_ls")
    rho_ml = serialize.pairs_to_matrix(doc["rho_ml"], "rho_ml")
    dim2 = rho_ls.shape[0] ** 2 - 1
    cov = np.zeros((dim2, dim2))
    it = iter(doc["covariance_lower"])
    for i in range(dim2):
        for j in range(i + 1):
            cov[i, j] = cov[j, i] = next(it)
    result = EstimateResult(
        rho_ls=rho_ls,
        rho_ml=rho_ml,
        covariance=cov,
        residual_norm=float(doc["residual_norm"]),
        rank=int(doc["rank"]),
        singular_values=np.asarray(doc["singular_values"], dtype=float),
        nuisance={k: float(v) for k, v in doc.get("nuisance", {}).items()},
        nuisance_converged=doc.get("nuisance_converged"),
    )
    meta = {
        "F": float(doc["F"]),
        "waveform_fingerprint": doc.get("waveform_fingerprint"),
    }
    return result, meta
