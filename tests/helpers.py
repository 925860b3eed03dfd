"""Shared random-state generators and reference implementations for the test suite."""

import json
import math
from dataclasses import replace

import numpy as np

from spintomo import (
    build_spin_system,
    design_objective,
    estimate_batch,
    fidelity,
    heisenberg_history,
    hermitian_basis,
    measured_observable,
    multipole_operators,
    state_to_coords,
    synthesize_record,
)
from spintomo import rand
from spintomo.control_design import N_RESTARTS
from spintomo.estimator import _solve
from spintomo.serialize import format_float


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


def basis_elements_reference(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis built element by element (reference).

    I/sqrt(d) first; then for each pair j < k in row-major order the
    symmetric and the antisymmetric element on entries (j, k), (k, j); then
    the traceless diagonal elements diag(1, ..., 1, -l, 0, ...)/sqrt(l(l+1)).
    """
    elements = np.zeros((d * d, d, d), dtype=complex)
    elements[0] = np.eye(d) / math.sqrt(d)
    idx = 1
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = inv_sqrt2
            sym[k, j] = inv_sqrt2
            elements[idx] = sym
            idx += 1
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j * inv_sqrt2
            anti[k, j] = 1j * inv_sqrt2
            elements[idx] = anti
            idx += 1
    for level in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:level] = 1.0
        diag[level] = -level
        elements[idx] = np.diag(diag / math.sqrt(level * (level + 1)))
        idx += 1
    return elements


def lindblad_reference(sys, H, gamma_dec=0.0, jump_ops=()) -> np.ndarray:
    """Lindblad generator of any H and jump list, as a real d^2 x d^2 matrix on basis coordinates.

    L(rho) = -i[H, rho] + gamma_dec sum_k (A_k rho A_k^dag - {A_k^dag A_k, rho} / 2),
    evaluated on all d^2 basis elements in one batched product; column b holds
    the coordinates of L(B_b). The general form of the four cached generator
    parts of ``dynamics``.
    """
    H = np.asarray(H, dtype=complex)
    jumps = [np.asarray(A, dtype=complex) for A in jump_ops] if gamma_dec > 0 else []
    B = hermitian_basis(sys)
    LB = -1j * (H @ B - B @ H)
    if jumps:
        K = sum(A.conj().T @ A for A in jumps)
        diss = sum(A @ B @ A.conj().T for A in jumps)
        LB = LB + gamma_dec * (diss - 0.5 * (K @ B + B @ K))
    return np.ascontiguousarray(state_to_coords(LB).T)


def hamiltonian_reference(sys, waveform, k) -> np.ndarray:
    """Hamiltonian of segment ``k`` alone: omega (cos phi_k Fx + sin phi_k Fy), plus chi Fx^2."""
    angle = waveform.phi[k]
    H = waveform.omega_larmor * (np.cos(angle) * sys.Fx + np.sin(angle) * sys.Fy)
    if waveform.chi:
        H = H + waveform.chi * (sys.Fx @ sys.Fx)
    return H


def legendre_table(kmax: int, x: np.ndarray) -> np.ndarray:
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


def harmonic_norm(k: int, q: int) -> float:
    """Normalization of Y_kq = harmonic_norm(k, q) P_k^q(cos theta) e^{i q phi}, q >= 0."""
    return math.sqrt(
        (2 * k + 1) / (4.0 * math.pi) * math.factorial(k - q) / math.factorial(k + q)
    )


def wigner_reference(rho, sys, thetas, phis) -> np.ndarray:
    """W = sqrt(d / 4 pi) sum_kq Tr[T_kq^dag rho] Y_kq on a theta x phi grid (reference).

    The multipole expansion that defines ``wigner``'s unit-integral
    convention: coefficients from the ``multipole_operators`` table, harmonics
    from the Legendre recurrence, and the conjugate-q terms paired so the
    field is real.
    """
    tensors = multipole_operators(sys)
    kmax = sys.d - 1
    P = legendre_table(kmax, np.cos(thetas))
    scale = math.sqrt(sys.d / (4.0 * math.pi))
    values = np.zeros((len(thetas), len(phis)))
    for k in range(kmax + 1):
        # coefficients Tr[T_kq^dag rho], q >= 0; the q = 0 one is real for Hermitian rho
        c0 = complex(np.vdot(tensors[k][0], rho)).real
        values += (scale * harmonic_norm(k, 0) * c0) * P[k, 0][:, None]
        for q in range(1, k + 1):
            c = complex(np.vdot(tensors[k][q], rho))
            radial = (2.0 * scale * harmonic_norm(k, q)) * P[k, q]
            values += radial[:, None] * (
                c.real * np.cos(q * phis)[None, :] - c.imag * np.sin(q * phis)[None, :]
            )
    return values


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


def nuisance_grid_reference(record, waveform, name, low, high, n_points):
    """First minimum among the first ``n_points`` of a scale's 9-point grid (reference).

    A plain loop: one ``heisenberg_history`` per grid point, in grid order,
    each fitted alone. Returns the scale and its residual norm.
    """
    best = None
    for scale in np.linspace(low, high, 9)[:n_points]:
        scaled = waveform.with_scales(**{name: float(scale)})
        observable = measured_observable(build_spin_system(record.F))
        history = heisenberg_history(scaled, observable, record.n_samples)
        residual = _solve(record.values[None], history.design_matrix)[1][0]
        if best is None or residual < best[1]:
            best = (float(scale), residual)
    return best


def fidelity_reference(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity of one pair, the two square roots taken by ``eigh`` (reference).

    The one-pair form of ``metrics.fidelity``: eigenvalues below 64 eps times
    the largest are zeroed before each square root, and the root trace is
    squared as a Python float.
    """
    def clipped_sqrt(w):
        return np.sqrt(np.where(w > 64.0 * np.finfo(float).eps * max(float(w[-1]), 0.0), w, 0.0))

    w, V = np.linalg.eigh(np.asarray(rho_a, dtype=complex))
    root = (V * clipped_sqrt(w)) @ V.conj().T
    inner = root @ np.asarray(rho_b, dtype=complex) @ root
    trace = float(np.sum(clipped_sqrt(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0))))
    return min(max(trace**2, 0.0), 1.0)


def sweep_reference(config, n_trials: int) -> tuple[str, str]:
    """CSV text and stdout of ``spintomo sweep`` on a loaded config (reference).

    A plain loop over the rows, trial-major: row k is trial k // S of state
    k % S, for S states, with seed ``config.seed + k``. Each row gets its own
    ``synthesize_record`` and ``fidelity``. The rows share one
    ``estimate_batch`` solve, as in ``sweep``: a record solved alone can
    differ from its batch row in the last bits.
    """
    observable = measured_observable(config.spin_system())
    history = heisenberg_history(config.waveform, observable, n_samples=config.n_samples)
    rows = [(trial, label, config.seed + trial * len(config.states) + state_index, rho)
            for trial in range(n_trials)
            for state_index, (label, rho) in enumerate(config.states)]
    records = [synthesize_record(rho, history, config.sigma, seed, config.n_averaged)
               for _trial, _label, seed, rho in rows]
    results = estimate_batch(records, history)
    csv, fids = "trial,state,seed,fidelity\n", []
    for (trial, label, seed, rho), result in zip(rows, results):
        fids.append(fidelity(rho, result.rho_ml))
        csv += f"{trial},{label},{seed},{format_float(fids[-1])}\n"
    if not fids:
        return csv, "trials: 0\n"
    q1, q3 = np.percentile(fids, [25, 75])
    stdout = "".join(f"{name}: {value}\n" for name, value in (
        ("trials", len(fids)),
        ("mean_fidelity", format_float(float(np.mean(fids)))),
        ("median_fidelity", format_float(float(np.median(fids)))),
        ("iqr_fidelity", format_float(float(q3 - q1))),
    ))
    return csv, stdout


def dumps_reference(document) -> str:
    """Document JSON text encoded one number at a time (reference).

    The recursive encoder ``serialize.dumps`` used before arrays were
    formatted whole: every ndarray goes through ``tolist()`` and every float
    through ``format(x, ".17g")`` after its own finiteness check.
    """

    def encode(obj) -> str:
        if isinstance(obj, dict):
            return "{" + ",".join(f"{json.dumps(str(k))}:{encode(v)}" for k, v in obj.items()) + "}"
        if isinstance(obj, (list, tuple, np.ndarray)):
            seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
            return "[" + ",".join(encode(v) for v in seq) + "]"
        if isinstance(obj, (bool, np.bool_)):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            x = float(obj)
            if not math.isfinite(x):
                raise ValueError(f"cannot serialize non-finite number {x!r}")
            return format(x, ".17g")
        if obj is None:
            return "null"
        if isinstance(obj, str):
            return json.dumps(obj)
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")

    return encode(document) + "\n"


def optimize_waveform_reference(sys, template, n_samples, budget, seed, objective,
                                sensitivity_weight):
    """``optimize_waveform`` scoring one candidate at a time (reference).

    Each candidate, and each of its +-1% Larmor-rate copies when weighted, is
    scored by its own ``design_objective`` call, and each restart is drawn just
    before it is scored.
    """
    def score(phis):
        candidate = replace(template, phi=tuple(np.mod(phis, 2.0 * np.pi)))
        value = design_objective(sys, candidate, n_samples, objective)
        if sensitivity_weight > 0.0 and np.isfinite(value):
            perturbed = min(design_objective(sys, candidate.with_scales(omega_scale=x),
                                             n_samples, objective) for x in (0.99, 1.01))
            value -= sensitivity_weight * max(0.0, value - perturbed)
        return value

    best_phi = np.asarray(template.phi, dtype=float)
    best_obj, improved = score(best_phi), False
    stream, step = rand.stream(seed), 0.3
    for j in range(1, budget):
        if j <= N_RESTARTS:
            phis = stream.uniform(0.0, 2.0 * np.pi, size=template.n_steps)
        else:
            phis = best_phi + step * stream.standard_normal(template.n_steps)
        obj = score(phis)
        if j > N_RESTARTS:
            step *= 1.5 if obj > best_obj else 1.5 ** -0.25
        if obj > best_obj:
            best_obj, best_phi, improved = obj, phis, True
    phi = tuple(np.mod(best_phi, 2.0 * np.pi)) if improved else template.phi
    return phi, best_obj
