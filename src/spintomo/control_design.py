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

from . import rand, serialize
from .dynamics import ControlWaveform, ObservableHistory, _histories
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
    s = np.linalg.svd(history.design_matrix[:, 1:], compute_uv=False)
    rank = numerical_rank(s)
    d = history.d
    return CompletenessReport(rank=rank, singular_values=s, complete=rank == d * d - 1, d=d)


@dataclass(frozen=True, eq=False)
class WaveformDesignResult:
    waveform: ControlWaveform
    objective: float


OBJECTIVES = ("min_singular_value", "condition_number", "covariance_trace")


def design_objective(
    sys: SpinSystem,
    waveform: ControlWaveform,
    n_samples: int,
    objective: str = "min_singular_value",
) -> float:
    """Estimator-conditioning score of a waveform sampled ``n_samples`` times (larger is better).

    ``min_singular_value`` (default) is the smallest singular value of the
    traceless design matrix, an E-optimality surrogate bounding the
    variance of the worst-determined parameter; ``condition_number`` and
    ``covariance_trace`` (A-optimality) are the negated condition number
    and negated unit-noise covariance trace. A rank-deficient waveform
    scores 0 / -inf: no schedule of that family can determine every
    parameter.
    """
    return _scores(sys, [waveform], n_samples, objective, 0.0)[0]


def _scores(sys, candidates, n_samples, objective, sensitivity_weight) -> list[float]:
    """Objective of each candidate, with its +-1% Larmor-rate copies if weighted, in one batch."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; valid: {OBJECTIVES}")
    drifts = (0.99, 1.01) if sensitivity_weight > 0.0 else ()
    batch = [w for c in candidates for w in (c, *(c.with_scales(omega_scale=x) for x in drifts))]
    values = []
    # each history is reduced to its singular values as its slice is built: the batch's
    # design matrices are never held at once
    for report in map(completeness_report, _histories(batch, measured_observable(sys), n_samples)):
        s = report.singular_values
        if objective == "min_singular_value":
            values.append(float(s[-1]) if report.complete else 0.0)
        elif not report.complete:
            values.append(-np.inf)
        else:
            values.append(float(-s[0] / s[-1] if objective == "condition_number"
                                else -np.sum(1.0 / s**2)))
    return [value - sensitivity_weight * max(0.0, value - min(drifted))
            if drifted and np.isfinite(value) else value
            for value, *drifted in np.reshape(values, (len(candidates), -1)).tolist()]


N_RESTARTS = 24  # uniform restarts before the local search of optimize_waveform


def optimize_waveform(
    sys: SpinSystem,
    template: ControlWaveform,
    n_samples: int,
    budget: int = 50,
    seed: int = 0,
    objective: str = "min_singular_value",
    sensitivity_weight: float = 0.0,
) -> WaveformDesignResult:
    """Search field-angle schedules for the best estimator conditioning.

    Keeps everything of ``template`` fixed except the phi list and scores
    ``budget`` (an integer >= 1) candidates, each on ``n_samples`` samples: the
    template, ``N_RESTARTS`` uniform angle draws from the counter-based stream
    ``seed``, then the steps of a (1+1) evolution strategy: the best schedule
    so far plus a Gaussian step from the same stream, whose length (0.3 at
    first) grows by 1.5 after a success and by 1.5^(-1/4) after a failure, the
    one-fifth success rule. A candidate replaces the best only if it scores
    strictly higher. Candidate j depends only on the seed and the scores before
    it, never on the budget, so the result is deterministic, never worse than
    the template, and never worse for a larger budget. The template and the
    restarts are scored as one batch of histories, each step alone.

    With ``sensitivity_weight`` > 0 the score is penalized by that weight
    times the objective degradation under a +-1% Larmor-rate calibration
    error, favouring schedules that stay well conditioned when the drive
    drifts. Each scored candidate then costs three design evaluations.
    """
    budget = serialize.integer(budget, "budget", 1)
    if not 0 <= sensitivity_weight < np.inf:
        raise ValueError("sensitivity_weight must be finite and nonnegative")

    def score(phis) -> list[tuple]:
        """(phi, waveform, score) of each schedule, the angles taken mod 2 pi."""
        waveforms = [replace(template, phi=tuple(np.mod(p, 2.0 * np.pi))) for p in phis]
        return list(zip(phis, waveforms,
                        _scores(sys, waveforms, n_samples, objective, sensitivity_weight)))

    n = template.n_steps
    stream = rand.stream(seed)
    starts = [np.asarray(template.phi, dtype=float)]
    starts += [stream.uniform(0.0, 2.0 * np.pi, size=n) for _ in range(min(N_RESTARTS, budget - 1))]
    scored = score(starts)
    (best_phi, _, best_obj), best = scored[0], template
    step = 0.3
    for j in range(1, budget):
        if j <= N_RESTARTS:
            phis, waveform, obj = scored[j]
        else:
            phis, waveform, obj = score([best_phi + step * stream.standard_normal(n)])[0]
            step *= 1.5 if obj > best_obj else 1.5 ** -0.25
        if obj > best_obj:
            best_phi, best, best_obj = phis, waveform, obj
    return WaveformDesignResult(waveform=best, objective=best_obj)
