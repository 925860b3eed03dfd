"""Informational completeness checks and field-angle schedule optimization.

A waveform is informationally complete when the Heisenberg-evolved copies
of the (traceless) probed observable span the whole traceless operator
space, i.e. the design matrix restricted to traceless coordinates has rank
d^2 - 1. The optimizer tunes the per-segment field angles to maximize the
smallest singular value of that matrix, which bounds the variance of the
worst-determined state parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rand
from .dynamics import ControlWaveform, ObservableHistory, heisenberg_history
from .estimator import numerical_rank
from .spin_algebra import SpinSystem, measured_observable

__all__ = [
    "CompletenessReport",
    "WaveformDesignResult",
    "completeness_report",
    "design_objective",
    "optimize_waveform",
]


@dataclass(frozen=True, eq=False)
class CompletenessReport:
    rank: int
    singular_values: np.ndarray  # traceless design matrix, descending
    complete: bool
    d: int

    def __post_init__(self):
        self.singular_values.setflags(write=False)


def completeness_report(history: ObservableHistory) -> CompletenessReport:
    """Numerical rank of the traceless design matrix at the relative cutoff ``RANK_CUTOFF``.

    Complete means rank d^2 - 1: together with the fixed trace coordinate
    the record then determines every state parameter.
    """
    if history.n_samples < 1:
        raise ValueError("history is empty")
    s = np.linalg.svd(history.design_matrix[:, 1:], compute_uv=False)
    rank = numerical_rank(s)
    d = history.d
    return CompletenessReport(rank=rank, singular_values=s, complete=rank == d * d - 1, d=d)


@dataclass(frozen=True, eq=False)
class WaveformDesignResult:
    waveform: ControlWaveform
    objective: float
    evaluations: int


OBJECTIVES = ("min_singular_value", "condition_number", "covariance_trace")


def design_objective(
    sys: SpinSystem,
    waveform: ControlWaveform,
    n_samples: int | None = None,
    objective: str = "min_singular_value",
) -> float:
    """Estimator-conditioning score of a waveform (larger is better).

    ``min_singular_value`` (default) is the smallest singular value of the
    traceless design matrix, an E-optimality surrogate bounding the
    variance of the worst-determined parameter; ``condition_number`` and
    ``covariance_trace`` (A-optimality) are the negated condition number
    and negated unit-noise covariance trace. A rank-deficient waveform
    scores 0 / -inf: no schedule of that family can determine every
    parameter.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; valid: {OBJECTIVES}")
    if n_samples is None:
        n_samples = 5 * waveform.n_steps
    history = heisenberg_history(sys, waveform, measured_observable(sys), n_samples=n_samples)
    report = completeness_report(history)
    if objective == "min_singular_value":
        return float(report.singular_values[-1]) if report.complete else 0.0
    if not report.complete:
        return -np.inf
    s = report.singular_values
    if objective == "condition_number":
        return float(-s[0] / s[-1])
    return float(-np.sum(1.0 / s**2))


def optimize_waveform(
    sys: SpinSystem,
    template: ControlWaveform,
    budget: int = 50,
    seed: int = 0,
    n_samples: int | None = None,
    objective: str = "min_singular_value",
    sensitivity_weight: float = 0.0,
) -> WaveformDesignResult:
    """Search field-angle schedules for the best estimator conditioning.

    Keeps everything of ``template`` fixed except the phi list. Spends the
    evaluation ``budget`` on the template itself, random restarts (uniform
    angle draws from the counter-based stream ``seed``), and, if enough
    budget remains, a Nelder-Mead polish of the best candidate. The result
    is never worse than the template, and is deterministic given the seed;
    ties keep the earlier candidate.

    With ``sensitivity_weight`` > 0 the score is penalized by that weight
    times the objective degradation under a +-1% Larmor-rate calibration
    error, favouring schedules that stay well conditioned when the drive
    drifts. Each scored candidate then costs three design evaluations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not 0 <= sensitivity_weight < np.inf:
        raise ValueError("sensitivity_weight must be finite and nonnegative")

    evaluations = 0

    def score(phis: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        candidate = replace(template, phi=tuple(np.mod(phis, 2.0 * np.pi)))
        value = design_objective(sys, candidate, n_samples=n_samples, objective=objective)
        if sensitivity_weight > 0.0 and np.isfinite(value):
            perturbed = min(
                design_objective(
                    sys, candidate.with_scales(omega_scale=scale),
                    n_samples=n_samples, objective=objective,
                )
                for scale in (0.99, 1.01)
            )
            value -= sensitivity_weight * max(0.0, value - perturbed)
        return value

    best_phi = np.asarray(template.phi, dtype=float)
    best_obj = score(best_phi)
    improved = False

    n = template.n_steps
    stream = rand.stream(seed)
    polish_budget = budget - 1 - (budget - 1) // 2
    if polish_budget < n + 2:
        polish_budget = 0  # not enough room for a simplex; spend it on restarts
    restarts = budget - 1 - polish_budget
    for _ in range(restarts):
        phis = stream.uniform(0.0, 2.0 * np.pi, size=n)
        obj = score(phis)
        if obj > best_obj:
            best_obj, best_phi, improved = obj, phis, True

    if polish_budget > 0:
        from scipy.optimize import minimize  # only here, so importing spintomo loads no scipy

        simplex = np.tile(best_phi, (n + 1, 1))
        for i in range(n):
            simplex[i + 1, i] += 0.3
        result = minimize(
            lambda x: -score(x),
            best_phi,
            method="Nelder-Mead",
            options={"maxfev": polish_budget, "initial_simplex": simplex, "xatol": 1e-4},
        )
        if -result.fun > best_obj:
            best_obj, best_phi, improved = -result.fun, result.x, True

    if not improved:
        return WaveformDesignResult(waveform=template, objective=best_obj, evaluations=evaluations)
    final = replace(template, phi=tuple(np.mod(best_phi, 2.0 * np.pi)))
    return WaveformDesignResult(waveform=final, objective=best_obj, evaluations=evaluations)
