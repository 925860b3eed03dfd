import tracemalloc

import numpy as np
import pytest

from conftest import make_waveform
from helpers import optimize_waveform_reference
from spintomo import (
    ObservableHistory,
    build_spin_system,
    completeness_report,
    design_objective,
    estimate,
    heisenberg_history,
    measured_observable,
    optimize_waveform,
    synthesize_record,
)
from spintomo import control_design
from spintomo import test_state as make_state
from spintomo.control_design import OBJECTIVES


@pytest.fixture(scope="module")
def observable(sys3):
    return measured_observable(sys3)


class TestCompleteness:
    def test_default_waveform_complete(self, default_history):
        report = completeness_report(default_history)
        assert report.rank == 48
        assert report.complete
        assert report.singular_values[0] > report.singular_values[47] > 0

    def test_rotations_only_confined_to_quadrupole_sector(self, observable):
        wf = make_waveform(chi=0.0)
        history = heisenberg_history(wf, observable, n_samples=150)
        report = completeness_report(history)
        assert report.rank == 5  # the orbit of a rank-2 tensor under rotations
        assert not report.complete

    def test_static_observable_rank_one(self, observable):
        wf = make_waveform(chi=0.0, omega_larmor=0.0)
        history = heisenberg_history(wf, observable, n_samples=150)
        report = completeness_report(history)
        assert report.rank == 1
        assert not report.complete

    @pytest.mark.parametrize(
        "overrides, n_samples, expected",
        [({}, 150, 48), ({}, 30, 30), ({"chi": 0.0}, 150, 5),
         ({"chi": 0.0, "omega_larmor": 0.0}, 150, 1)],
    )
    def test_same_rank_as_estimate(self, sys3, observable, overrides, n_samples, expected):
        history = heisenberg_history(make_waveform(**overrides), observable, n_samples)
        record = synthesize_record(make_state(sys3, "cat"), history, sigma=0.5, seed=1)
        report = completeness_report(history)
        result = estimate(record, history)
        assert report.rank == result.rank == expected
        s = report.singular_values
        assert np.allclose(result.singular_values, s, rtol=0.0, atol=1e-12 * s[0])

    def test_rank_invariant_under_permutation(self, default_history):
        rng = np.random.default_rng(50)
        perm = rng.permutation(150)
        shuffled = ObservableHistory(default_history.waveform,
                                     default_history.design_matrix[perm].copy())
        assert completeness_report(shuffled).rank == completeness_report(default_history).rank

    @pytest.mark.parametrize("chi_on", [True, False])
    def test_rank_invariant_under_time_reversal(self, observable, chi_on):
        wf = make_waveform() if chi_on else make_waveform(chi=0.0)
        reversed_wf = make_waveform(
            chi=wf.chi, phi=tuple(reversed(wf.phi))
        )
        a = completeness_report(heisenberg_history(wf, observable, n_samples=150))
        b = completeness_report(
            heisenberg_history(reversed_wf, observable, n_samples=150)
        )
        assert a.rank == b.rank


class TestOptimizeWaveform:
    def test_budget_one_returns_template(self, sys3, default_waveform):
        result = optimize_waveform(sys3, default_waveform, 150, budget=1, seed=0)
        assert result.waveform is default_waveform
        assert result.objective > 0

    def test_never_worse_than_template(self, sys3, default_waveform):
        template_score = design_objective(sys3, default_waveform, 150)
        result = optimize_waveform(sys3, default_waveform, 150, budget=8, seed=3)
        assert result.objective >= template_score

    def test_rotations_only_cannot_complete(self, sys3):
        template = make_waveform(chi=0.0)
        result = optimize_waveform(sys3, template, 150, budget=10, seed=1)
        assert result.objective == 0.0
        assert result.waveform is template

    def test_default_template_optimizes_to_full_rank(self, sys3, observable):
        # start from a deliberately mediocre schedule
        template = make_waveform(phi_seed=3, chi=2 * np.pi * 1000.0)
        result = optimize_waveform(sys3, template, 150, budget=50, seed=0)
        assert result.objective > 0
        history = heisenberg_history(result.waveform, observable, n_samples=150)
        assert completeness_report(history).rank == 48

    def test_deterministic(self, sys3):
        template = make_waveform(phi_seed=5)
        a = optimize_waveform(sys3, template, 150, budget=12, seed=9)
        b = optimize_waveform(sys3, template, 150, budget=12, seed=9)
        assert a.objective == b.objective
        assert a.waveform.phi == b.waveform.phi

    def test_objective_monotone_in_budget(self, sys3, default_waveform):
        # candidate j never depends on the budget, so more budget never scores
        # worse; the Nelder-Mead polish this search replaced scored 12.568 at
        # budget 120 and 12.518 at 200
        scores = [optimize_waveform(sys3, default_waveform, 150, budget=b, seed=0).objective
                  for b in [*range(1, 121, 7), 200]]
        assert scores == sorted(scores)
        assert scores[-1] > scores[0]

    # (objective, waveform fingerprint) of the restart-then-Nelder-Mead search
    # this one replaced, seed 0; the fingerprint hashes every angle at 17
    # significant digits, so an equal fingerprint means an equal phi
    RESTART_ONLY = {
        1: (11.709595467795655, "41794e5186e110bc"),
        4: (11.709595467795655, "41794e5186e110bc"),
        12: (11.763033688749537, "622be981f9da8734"),
        25: (11.908982832599227, "41e18113506e670c"),
    }

    @pytest.mark.parametrize("budget", sorted(RESTART_ONLY))
    def test_restart_budgets_unchanged(self, sys3, default_waveform, budget):
        result = optimize_waveform(sys3, default_waveform, 150, budget=budget, seed=0)
        assert (result.objective, result.waveform.fingerprint()) == self.RESTART_ONLY[budget]

    def test_budget_validation(self, sys3, default_waveform):
        with pytest.raises(ValueError, match="budget"):
            optimize_waveform(sys3, default_waveform, 150, budget=0)


class TestBatchedSearch:
    """The template and its restarts are scored as one batch of histories, each step alone."""

    @pytest.mark.parametrize("weight, sizes", [(0.0, [25] + [1] * 35), (1.0, [75] + [3] * 35)])
    def test_batch_sizes(self, sys3, default_waveform, weight, sizes, monkeypatch):
        calls, histories = [], control_design._histories

        def counted(waveforms, *args, **kwargs):
            calls.append(len(waveforms))
            return histories(waveforms, *args, **kwargs)

        monkeypatch.setattr(control_design, "_histories", counted)
        optimize_waveform(sys3, default_waveform, 150, budget=60, sensitivity_weight=weight)
        assert calls == sizes

    def test_memory_does_not_grow_with_the_restart_batch(self):
        """Each slice of histories is scored as it is built: 75 histories peak as 15 do."""
        sys5 = build_spin_system(5)
        template = make_waveform()

        def peak(budget) -> int:
            tracemalloc.start()
            try:
                optimize_waveform(sys5, template, 150, budget=budget, sensitivity_weight=1.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        optimize_waveform(sys5, template, 150, budget=1, sensitivity_weight=1.0)  # warm caches
        assert peak(25) - peak(5) < 2 * 2**20

    # the last template has no Fx^2 term: no schedule is complete, every score is 0 or -inf
    @pytest.mark.parametrize("weight", [0.0, 1.0])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("chi, budget", [(None, 1), (None, 4), (None, 25), (None, 26),
                                             (None, 60), (0.0, 26)],
                             ids=["1", "4", "25", "26", "60", "rotations_only-26"])
    def test_equals_one_candidate_at_a_time(self, sys3, chi, budget, objective, weight):
        template = make_waveform() if chi is None else make_waveform(chi=chi)
        args = (sys3, template, 150, budget, 0, objective, weight)
        result = optimize_waveform(*args)
        assert (result.waveform.phi, result.objective) == optimize_waveform_reference(*args)


class TestObjectiveOptions:
    def test_alternative_objectives_ordering(self, sys3, default_waveform):
        weak = make_waveform(phi_seed=3, chi=2 * np.pi * 500.0)
        for kind in ("min_singular_value", "condition_number", "covariance_trace"):
            good = design_objective(sys3, default_waveform, 150, objective=kind)
            bad = design_objective(sys3, weak, 150, objective=kind)
            assert good > bad, kind

    def test_rank_deficient_scores(self, sys3):
        wf = make_waveform(chi=0.0)
        assert design_objective(sys3, wf, 150, objective="min_singular_value") == 0.0
        assert design_objective(sys3, wf, 150, objective="condition_number") == -np.inf

    def test_unknown_objective(self, sys3, default_waveform):
        with pytest.raises(ValueError, match="objective"):
            design_objective(sys3, default_waveform, 150, objective="sharpest")

    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_sensitivity_weight_finite_and_nonnegative(self, sys3, default_waveform, weight):
        with pytest.raises(ValueError, match="sensitivity_weight"):
            optimize_waveform(sys3, default_waveform, 150, budget=1, sensitivity_weight=weight)

    def test_sensitivity_penalty(self, sys3, default_waveform):
        plain = optimize_waveform(sys3, default_waveform, 150, budget=1)
        robust = optimize_waveform(
            sys3, default_waveform, 150, budget=1, sensitivity_weight=1.0
        )
        assert robust.objective <= plain.objective
        again = optimize_waveform(
            sys3, default_waveform, 150, budget=1, sensitivity_weight=1.0
        )
        assert robust.objective == again.objective
