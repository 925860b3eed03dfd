"""State reconstruction from a measurement record.

The estimate is produced in two steps: an ordinary least-squares fit over
the traceless basis coordinates (the trace coordinate is fixed by hand, so
the linear system is small and well conditioned), followed by projection of
the possibly non-positive fit onto the nearest physical density matrix in
Frobenius distance. Both steps and the fit's covariance are built in one
place, so every estimate is one :class:`EstimateResult`. Optionally a small
set of named scale factors of the drive (nuisance parameters) is
co-estimated by minimizing the least-squares residual over recomputed
observable histories, one history per trial point: each scale is searched
in turn, on a 9-point grid over its bounds, built as one batch, then by
Brent's bracketed golden-section/parabolic method, in numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .dynamics import (
    ControlWaveform,
    ObservableHistory,
    heisenberg_histories,
    propagate_state,
    sample_times,
)
from .measurement import MeasurementRecord
from .metrics import _fidelities, max_eigenvalue
from .spin_algebra import (
    build_spin_system,
    check_density_matrix,
    coords_to_state,
    is_hermitian,
    measured_observable,
)

__all__ = [
    "FingerprintMismatchError",
    "EstimateResult",
    "project_to_physical",
    "estimate",
    "estimate_batch",
    "estimate_prefix_curve",
    "estimate_with_nuisance",
    "write_estimate",
    "read_estimate",
    "parse_estimate",
]

RANK_CUTOFF = 1e-10
NUISANCE_NAMES = ("omega_scale", "chi_scale")
_GRID_POINTS = 9  # of a scale's first search, bounds included
_XATOL = 1e-6  # on each scale
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(math.ulp(1.0))
ESTIMATE_FORMAT_VERSION = 1

_ESTIMATE_FIELDS = (
    "version", "F", "rho_ls", "rho_ml", "covariance_lower", "residual_norm", "rank",
    "singular_values", "nuisance", "nuisance_converged", "waveform_fingerprint",
)


class FingerprintMismatchError(ValueError):
    """Record and model disagree: waveform fingerprint, spin size or sample grid."""


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """A reconstruction: the unconstrained fit rho_ls and its projection rho_ml.

    rho_ls may have negative eigenvalues; rho_ml is a valid density matrix.
    """

    rho_ls: np.ndarray
    rho_ml: np.ndarray
    covariance: np.ndarray  # (d^2-1, d^2-1), traceless coordinates
    residual_norm: float
    rank: int
    singular_values: np.ndarray
    nuisance: dict[str, float] = field(default_factory=dict)
    nuisance_converged: bool | None = None


def _check_match(records: list, history: ObservableHistory) -> None:
    """Every record must match ``history``: fingerprint, spin size and sample grid.

    The sample times of the whole batch are compared in one ``allclose``
    over their stack. If any check fails, the records are checked one at a
    time, so the first offending record raises the message it raises alone.
    """
    fingerprint, F, n = history.waveform_fingerprint, (history.d - 1) / 2.0, history.n_samples
    scalars_match = all(
        r.waveform_fingerprint == fingerprint and r.F == F and r.n_samples == n for r in records
    )
    if scalars_match and (not records or np.allclose(
            np.stack([r.times for r in records]), history.times, rtol=1e-12, atol=0.0)):
        return
    for record in records:
        if record.waveform_fingerprint != fingerprint:
            raise FingerprintMismatchError(
                f"record fingerprint {record.waveform_fingerprint} does not match "
                f"history fingerprint {fingerprint}"
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


def numerical_rank(s: np.ndarray) -> int:
    """Count of singular values (descending) above ``RANK_CUTOFF`` times the largest."""
    return int(np.count_nonzero(s > RANK_CUTOFF * s[0])) if s.size and s[0] > 0 else 0


def _solve(values: np.ndarray, design: np.ndarray):
    """Core SVD solve of the trace-eliminated system for a (T, N) stack of records.

    One SVD and one rank decision serve the stack. Returns the (T, d, d)
    rho_ls stack, the T residual norms, the rank, the singular values, and
    the kept right singular vectors ``Vr`` and values ``sr`` from which
    :func:`_estimates` builds covariances.
    """
    d = math.isqrt(design.shape[1])
    traceless = design[:, 1:]
    target = values - design[:, 0] / math.sqrt(d)
    U, s, Vt = np.linalg.svd(traceless, full_matrices=False)
    s.setflags(write=False)
    rank = numerical_rank(s)
    Ur, sr, Vr = U[:, :rank], s[:rank], Vt[:rank]
    # at rank 0 the empty products below are exact zeros
    x = ((target @ Ur) / sr) @ Vr
    residuals = [float(np.linalg.norm(r)) for r in x @ traceless.T - target]
    trace_coord = np.full((len(values), 1), 1.0 / math.sqrt(d))
    return coords_to_state(np.concatenate((trace_coord, x), axis=1)), residuals, rank, s, Vr, sr


def _estimates(records: list, design: np.ndarray, **nuisance) -> list[EstimateResult]:
    """Estimates of ``records`` against one design, in record order.

    One solve of the stacked values, one covariance per noise level, one
    projection of the rho_ls stack. ``nuisance`` holds the
    :class:`EstimateResult` fields ``nuisance`` and ``nuisance_converged``.
    """
    rho_ls, residuals, rank, s, Vr, sr = _solve(np.stack([r.values for r in records]), design)
    covariances = {}
    for sigma in {record.sigma_eff for record in records}:
        covariance = (sigma**2) * (Vr.T * (1.0 / sr**2)) @ Vr
        covariances[sigma] = (covariance + covariance.T) / 2.0
        covariances[sigma].setflags(write=False)
    rho_ml = project_to_physical(rho_ls)
    return [
        EstimateResult(rho_ls=ls, rho_ml=ml, covariance=covariances[record.sigma_eff],
                       residual_norm=residual, rank=rank, singular_values=s, **nuisance)
        for ls, ml, record, residual in zip(rho_ls, rho_ml, records, residuals)
    ]


def project_to_physical(rho_ls: np.ndarray) -> np.ndarray:
    """Frobenius-nearest density matrix to a Hermitian unit-trace matrix.

    Accepts one matrix or a stack of shape (..., d, d). Eigenvectors are
    kept; the spectrum goes to the nonnegative values with the input's own
    trace by the sorted closed form of Smolin, Gambetta & Smith (PRL 108,
    070502, 2012): for eigenvalues u_j in descending order, the shift
    theta_k = (u_1 + ... + u_k - tr) / k at the largest k with u_k > theta_k
    gives max(u - theta, 0). A matrix with no negative eigenvalue comes back
    unchanged, also inside a stack.
    """
    rho = np.asarray(rho_ls, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {rho.shape}")
    if not is_hermitian(rho, tol=1e-10):
        raise ValueError("projection input must be Hermitian")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > 1e-8
    if np.any(off):
        raise ValueError(f"projection input must have unit trace, got {tr[off][0]}")
    w, V = np.linalg.eigh(rho)
    out = rho.copy()
    neg = w[..., 0] < 0
    if not np.any(neg):
        return out
    w, V = w[neg], V[neg]
    u = w[:, ::-1]
    theta = (np.cumsum(u, axis=1) - w.sum(axis=1, keepdims=True)) / np.arange(1, w.shape[1] + 1)
    k = np.count_nonzero(u > theta, axis=1)
    w = np.maximum(w - theta[np.arange(len(k)), k - 1][:, None], 0.0)
    fixed = (V * w[:, None, :]) @ V.conj().swapaxes(1, 2)
    out[neg] = (fixed + fixed.conj().swapaxes(1, 2)) / 2.0
    return out


def estimate_batch(records, history: ObservableHistory) -> list[EstimateResult]:
    """Reconstruct records driven by the same waveform: one solve, one projection.

    Every record is checked against ``history`` first. Results come in
    record order; an empty batch gives an empty list.
    """
    records = list(records)
    _check_match(records, history)
    if not records:
        return []
    return _estimates(records, history.design_matrix)


def estimate(record: MeasurementRecord, history: ObservableHistory) -> EstimateResult:
    """Two-step reconstruction: least squares, then positivity projection.

    The fit solves min_x || A x + a0/sqrt(d) - M ||^2, where A is the design
    matrix restricted to traceless coordinates, by SVD with relative cutoff
    ``RANK_CUTOFF``; below full rank it is the minimum-norm solution. The
    parameter covariance is sigma_eff^2 (A^T A)^+ on the retained singular
    subspace (directions beyond ``rank`` carry no information and are
    excluded rather than reported as infinite). rho_ml is the projection of
    rho_ls by :func:`project_to_physical`.
    """
    return estimate_batch([record], history)[0]


def _prefix_fits(values: np.ndarray, design: np.ndarray, ks: list[int]) -> list[np.ndarray]:
    """The rho_ls of :func:`_solve` on the first k samples, for each of the ascending ``ks``.

    One QR, A[:p] = L Q^T with A the traceless design and p = min(N, d^2 - 1), gives
    every fit of k <= p samples, Q[:, :k] L_k^-1 b[:k], by one inverse and one cumsum;
    a QR least-squares solve serves each k > p. Only prefixes certified full rank, with
    s_min/s_max >= 1 / (||L_k^-1||_F ||A[:k]||_F) > ``RANK_CUTOFF`` (past p = d^2 - 1,
    s_min(A[:k]) >= s_min(A[:p])), go this way; the rest go through :func:`_solve`.
    """
    d = math.isqrt(design.shape[1])
    A, b = design[:, 1:], values - design[:, 0] / math.sqrt(d)
    (N, n), p = A.shape, min(A.shape)
    Q, R = np.linalg.qr(A[:p].T)
    diag = np.abs(np.diagonal(R))  # s_min/s_max of L is at most that of its diagonal
    m = int(np.argmin(np.append(diag > RANK_CUTOFF * np.maximum.accumulate(diag), False)))
    L_inv = np.linalg.inv(R[:m, :m].T)
    bound = np.pad(np.cumsum(np.sum(L_inv**2, axis=1)), (0, N - m if m == n else 0), mode="edge")
    bound *= np.cumsum(np.sum(A[: len(bound)] ** 2, axis=1))  # squared
    fast = [k for k in ks if k <= len(bound) and bound[k - 1] < RANK_CUTOFF**-2]
    x = list(np.cumsum(Q[:, :m] * (L_inv @ b[:m]), axis=1).T[[k - 1 for k in fast if k <= p]])
    for k in (k for k in fast if k > p):
        Rb = np.linalg.qr(np.column_stack((A[:k], b[:k])), mode="r")
        x.append(np.linalg.solve(Rb[:n, :n], Rb[:n, n]))
    coords = np.insert(np.reshape(x, (len(fast), n)), 0, 1.0 / math.sqrt(d), axis=1)
    served = dict(zip(fast, coords_to_state(coords)))
    return [served[k] if k in served else _solve(values[None, :k], design[:k])[0][0] for k in ks]


def estimate_prefix_curve(
    record: MeasurementRecord,
    history: ObservableHistory,
    rho0_true: np.ndarray,
    stride: int = 5,
) -> list[tuple[float, float, float]]:
    """Reconstruction quality as the record accumulates.

    Returns (time, fidelity, max eigenvalue of the evolved true state) for
    prefix lengths k = 0, stride, 2*stride, ..., N. The k = 0 point is the
    unbiased prior I/d at time 0; each later point is the estimate on the
    first k samples (:func:`_prefix_fits`), all scored with one sqrt(rho0_true).
    The third column tracks the purity the true state loses to decoherence
    under ``history.waveform``.
    """
    _check_match([record], history)
    rho0_true = check_density_matrix(rho0_true, history.d)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    n = record.n_samples
    waveform = history.waveform
    evolved = [rho0_true] * n if waveform.closed else propagate_state(rho0_true, waveform, n)
    ks = list(range(stride, n, stride)) + [n]
    estimates = project_to_physical(_prefix_fits(record.values, history.design_matrix, ks))
    prior = np.eye(history.d, dtype=complex) / history.d
    fids = _fidelities(rho0_true, np.concatenate([prior[None], estimates]))
    rows = [(0.0, 0)] + [(float(record.times[k - 1]), k - 1) for k in ks]
    return [(t, fid, max_eigenvalue(evolved[i])) for (t, i), fid in zip(rows, fids)]


def _brent(f, a: float, b: float, x: float, fx: float) -> tuple[float, float]:
    """Brent's (1973) minimizer of ``f`` on [a, b], from the evaluated point (x, fx).

    Golden-section steps, parabolic ones where the last three points allow,
    until the bracket test holds at ``_XATOL``; every trial point lies
    inside the bracket. Returns the best point and its value.
    """
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        xm = (a + b) / 2.0
        tol1 = _SQRT_EPS * abs(x) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - (b - a) / 2.0:
            return x, fx
        golden = abs(e) <= tol1
        if not golden:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0 else (p, -q)
            golden = abs(p) >= abs(0.5 * q * e) or not q * (a - x) < p < q * (b - x)
            if not golden:
                e, d = d, p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _coordinate_search(f, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Minimize over the box [lows, highs] by Brent searches along one coordinate at a time.

    ``f`` maps an (m, n) stack of points to their m values. A coordinate's
    first search brackets the best of ``_GRID_POINTS`` uniform points (one
    call of ``f``) by its neighbours; later ones bracket +-2 times its last
    move. Starts at the box centre and stops once every coordinate has been
    searched since another one last moved by more than ``_XATOL``, so a
    function of one variable gets exactly one search. Returns the best
    point found.
    """
    grid = np.linspace(lows, highs, _GRID_POINTS)
    x = grid[_GRID_POINTS // 2].copy()
    moves: list[float | None] = [None] * len(x)
    settled: set[int] = set()
    k = 0
    while len(settled) < len(x):
        def along(t: float) -> float:
            y = x.copy()
            y[k] = t
            return f(y[None])[0]

        start = x[k]
        if moves[k] is None:
            values = f(np.where(np.arange(len(x)) == k, grid, x))
            i = int(np.argmin(values))
            a, b = grid[max(i - 1, 0), k], grid[min(i + 1, _GRID_POINTS - 1), k]
            x[k], fx = grid[i, k], values[i]
        else:
            a = max(lows[k], start - 2.0 * abs(moves[k]))
            b = min(highs[k], start + 2.0 * abs(moves[k]))
        x[k], fx = _brent(along, a, b, x[k], fx)
        moves[k] = x[k] - start
        settled = {k} | (settled if abs(moves[k]) <= _XATOL else set())
        k = (k + 1) % len(x)
    return x


class _BudgetSpent(Exception):
    """The nuisance search has built all the histories its budget allows."""


def estimate_with_nuisance(
    record: MeasurementRecord,
    waveform: ControlWaveform,
    params: dict[str, tuple[float, float]],
    budget: int = 200,
) -> EstimateResult:
    """Co-estimate drive scale factors with the state (profile likelihood).

    ``params`` maps one or both of the names {omega_scale, chi_scale} to bounds
    0 <= lower < upper. For Gaussian noise, minimizing the least-squares
    residual over the scales is equivalent to maximizing the likelihood. Each
    trial point gets a freshly propagated observable history and the inner
    linear fit; the scales are searched one at a time, first on a 9-point grid
    over the bounds (the profile need not be unimodal), built as one batch of
    histories, then by Brent's golden-section/parabolic refinement of the best
    grid point between its neighbours (``_coordinate_search``). Every trial
    point lies inside the bounds.

    The spin and the sample count are the record's. The waveform
    fingerprint is deliberately not checked against the record here: a
    drifted drive is the reason this entry point exists. The search is
    deterministic. ``budget`` counts histories, grid points included, and
    none is built past it; the best point's design matrix is kept and
    fitted once at the end. If the budget runs out first, the best
    point built (the first of equal ones) is returned with
    ``nuisance_converged`` False.
    """
    if record.n_samples % waveform.n_steps:
        raise FingerprintMismatchError(
            f"record has {record.n_samples} samples, not a multiple of the waveform's "
            f"{waveform.n_steps} segments"
        )
    sys = build_spin_system(record.F)
    _check_grid(record, sys.d, sample_times(waveform, record.n_samples))
    names = list(params)
    if not names:
        raise ValueError("name at least one nuisance scale; a fit without one is estimate()")
    for name in names:
        if name not in NUISANCE_NAMES:
            raise ValueError(f"unknown nuisance parameter {name!r}; valid: {NUISANCE_NAMES}")
    lows = np.array([float(params[n][0]) for n in names])
    highs = np.array([float(params[n][1]) for n in names])
    if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs)) and np.all(lows < highs)):
        raise ValueError("nuisance bounds must be finite with lower < upper")
    if np.any(lows < 0):
        raise ValueError("nuisance bounds must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be at least 1")

    observable = measured_observable(sys)
    residuals: dict[tuple[float, ...], float] = {}
    best: dict = {}

    def objective(points: np.ndarray) -> list[float]:
        keys = [tuple(x.tolist()) for x in points]
        new = list(dict.fromkeys(key for key in keys if key not in residuals))
        spent, new = len(residuals) + len(new) > budget, new[:budget - len(residuals)]
        scaled = [waveform.with_scales(**dict(zip(names, key))) for key in new]
        histories = heisenberg_histories(scaled, observable, record.n_samples) if new else []
        for key, history in zip(new, histories):
            residuals[key] = _solve(record.values[None], history.design_matrix)[1][0]
            if not best or residuals[key] < best["residual"]:
                best.update(scales=dict(zip(names, key)), residual=residuals[key],
                            design=history.design_matrix)
        if spent:
            raise _BudgetSpent
        return [residuals[key] for key in keys]

    try:
        _coordinate_search(objective, lows, highs)
        converged = True
    except _BudgetSpent:
        converged = False
    return _estimates([record], best["design"], nuisance=best["scales"],
                      nuisance_converged=converged)[0]


def write_estimate(
    result: EstimateResult,
    path,
    waveform_fingerprint: str,
) -> None:
    """Serialize an estimate; the covariance is stored as its lower triangle."""
    d = result.rho_ml.shape[0]
    cov = result.covariance
    doc = {
        "version": ESTIMATE_FORMAT_VERSION,
        "F": (d - 1) / 2.0,
        "rho_ls": serialize.matrix_to_pairs(result.rho_ls),
        "rho_ml": serialize.matrix_to_pairs(result.rho_ml),
        "covariance_lower": cov[np.tril_indices(cov.shape[0])],
        "residual_norm": float(result.residual_norm),
        "rank": int(result.rank),
        "singular_values": result.singular_values,
        "nuisance": {k: float(v) for k, v in result.nuisance.items()},
        "nuisance_converged": result.nuisance_converged,
        "waveform_fingerprint": waveform_fingerprint,
    }
    serialize.dump_path(doc, path)


def read_estimate(path) -> tuple[EstimateResult, dict]:
    """Load an estimate document; returns (result, metadata dict) as :func:`parse_estimate`."""
    return parse_estimate(serialize.read_document(path, "estimate"))


def parse_estimate(doc: dict) -> tuple[EstimateResult, dict]:
    """Estimate from a parsed document; returns (result, metadata dict).

    Strict like the record reader: exactly the written fields, each of its
    written type, d x d matrices with d = 2F + 1, exactly (d^2 - 1) d^2 / 2
    covariance entries, at most d^2 - 1 singular values, none negative, a
    rank from 0 to their count, a nonnegative residual norm and only scales
    from ``NUISANCE_NAMES``; any violation raises a
    :class:`~spintomo.serialize.DocumentError` naming the field.
    """
    serialize.check_fields(doc, "estimate", _ESTIMATE_FIELDS, ESTIMATE_FORMAT_VERSION)
    d = serialize.spin_dimension(doc["F"])
    rho = {name: serialize.pairs_to_matrix(doc[name], name) for name in ("rho_ls", "rho_ml")}
    for name, mat in rho.items():
        if mat.shape != (d, d):
            raise serialize.DocumentError(f"{name} must be {d}x{d}, got {mat.shape}", name)
    dim2 = d * d - 1
    lower = serialize.numeric_array(doc["covariance_lower"], "covariance_lower", 1)
    if lower.shape != (dim2 * (dim2 + 1) // 2,):
        message = f"covariance_lower must hold {dim2 * (dim2 + 1) // 2} entries for d={d}"
        raise serialize.DocumentError(f"{message}, got shape {lower.shape}", "covariance_lower")
    cov = np.zeros((dim2, dim2))
    rows, cols = np.tril_indices(dim2)
    cov[rows, cols] = cov[cols, rows] = lower
    singular_values = serialize.numeric_array(doc["singular_values"], "singular_values", 1, 0)
    if len(singular_values) > dim2:
        message = f"malformed field singular_values: more than {dim2} for d={d}"
        raise serialize.DocumentError(message, "singular_values")
    rank = serialize.integer(doc["rank"], "rank", 0)
    if rank > len(singular_values):
        message = f"malformed field rank: {rank} exceeds the {len(singular_values)} singular values"
        raise serialize.DocumentError(message, "rank")
    nuisance = serialize.check_fields(doc["nuisance"], "nuisance", (), optional=NUISANCE_NAMES)
    converged = doc["nuisance_converged"]
    if converged is not None and not isinstance(converged, bool):
        message = "malformed field nuisance_converged: expected true, false or null"
        raise serialize.DocumentError(message, "nuisance_converged")
    if not isinstance(doc["waveform_fingerprint"], str):
        raise serialize.DocumentError(
            "malformed field waveform_fingerprint: expected a string", "waveform_fingerprint"
        )
    result = EstimateResult(
        **rho,
        covariance=cov,
        residual_norm=serialize.number(doc["residual_norm"], "residual_norm", 0),
        rank=rank,
        singular_values=singular_values,
        nuisance={k: serialize.number(v, f"nuisance.{k}") for k, v in nuisance.items()},
        nuisance_converged=converged,
    )
    return result, {"F": (d - 1) / 2.0, "waveform_fingerprint": doc["waveform_fingerprint"]}
