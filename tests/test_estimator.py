import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CALIBRATED_SIGMA, make_waveform
from helpers import (
    haar_unitary,
    nuisance_grid_reference,
    random_density,
    random_pure,
    water_filling_reference,
)
from spintomo import (
    ControlWaveform,
    FingerprintMismatchError,
    ObservableHistory,
    build_spin_system,
    estimate,
    estimate_batch,
    estimate_prefix_curve,
    estimate_with_nuisance,
    fidelity,
    heisenberg_history,
    max_eigenvalue,
    measured_observable,
    project_to_physical,
    propagate_state,
    read_estimate,
    state_to_coords,
    synthesize_record,
    write_estimate,
)
from spintomo import estimator, metrics
from spintomo import test_state as make_state
from spintomo.estimator import _estimates, _prefix_fits, _solve
from spintomo.serialize import DocumentError


class TestLeastSquares:
    def test_noiseless_exact_inversion(self, sys3, default_history):
        rng = np.random.default_rng(20)
        rho = random_density(rng, 7)
        record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
        fit = estimate(record, default_history)
        assert fit.rank == 48
        assert np.linalg.norm(fit.rho_ls - rho) < 1e-8
        assert fit.residual_norm < 1e-9
        assert np.max(np.abs(fit.covariance)) == 0.0

    def test_rank_deficient_minimum_norm(self, sys3):
        # static observable: only one traceless direction is measurable
        wf = make_waveform(omega_larmor=0.0, chi=0.0)
        history = heisenberg_history(wf, measured_observable(sys3), n_samples=150)
        rho = make_state(sys3, "twisted", mu=0.7)
        record = synthesize_record(rho, history, sigma=0.0, seed=0)
        fit = estimate(record, history)
        assert fit.rank == 1
        coords = state_to_coords(fit.rho_ls)
        direction = state_to_coords(measured_observable(sys3))[1:]
        direction /= np.linalg.norm(direction)
        x = coords[1:]
        # everything orthogonal to the measured direction stays zero
        assert np.linalg.norm(x - (x @ direction) * direction) < 1e-10

    def test_single_sample_rank_one(self, sys3):
        wf = make_waveform(n_steps=1, phi=(0.4,), dt=1.5e-3)
        history = heisenberg_history(wf, measured_observable(sys3), n_samples=1)
        record = synthesize_record(make_state(sys3, "cat"), history, sigma=0.5, seed=3)
        fit = estimate(record, history)
        assert fit.rank == 1
        # covariance lives on the 1-d retained subspace only
        assert np.linalg.matrix_rank(fit.covariance, tol=1e-12) == 1

    def test_fingerprint_mismatch(self, sys3, default_history):
        rho = make_state(sys3, "mixed")
        record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
        other = heisenberg_history(
            make_waveform(chi=2 * np.pi * 5999.0), measured_observable(sys3), n_samples=150
        )
        with pytest.raises(FingerprintMismatchError):
            estimate(record, other)

    def test_spin_size_and_grid_bound_to_history(self, sys3, default_history):
        record = synthesize_record(make_state(sys3, "mixed"), default_history, 0.0, seed=0)
        with pytest.raises(FingerprintMismatchError, match="F=2"):
            estimate(replace(record, F=2.0), default_history)
        with pytest.raises(FingerprintMismatchError, match="times"):
            estimate(replace(record, times=record.times[::-1]), default_history)
        with pytest.raises(FingerprintMismatchError, match="samples"):
            short = replace(record, times=record.times[:30], values=record.values[:30])
            estimate(short, default_history)

    def test_empty_record_rejected(self, default_waveform):
        with pytest.raises(ValueError, match="empty"):
            ObservableHistory(default_waveform, np.zeros((0, 49)))


class TestProjectToPhysical:
    def test_already_positive_unchanged(self, sys3):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 7)
        assert np.array_equal(project_to_physical(rho), rho)

    def test_two_level_example_and_grid_oracle(self):
        target = np.diag([1.2, -0.2]).astype(complex)
        projected = project_to_physical(target)
        assert np.max(np.abs(projected - np.diag([1.0, 0.0]))) < 1e-12
        # brute force over 2x2 unit-trace PSD matrices (Bloch ball grid)
        best = np.inf
        for x in np.linspace(-1, 1, 61):
            for y in np.linspace(-1, 1, 61):
                for z in np.linspace(-1, 1, 61):
                    if x * x + y * y + z * z > 1.0:
                        continue
                    rho = 0.5 * np.array(
                        [[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]
                    )
                    best = min(best, np.linalg.norm(rho - target))
        assert np.linalg.norm(projected - target) <= best + 1e-9

    def test_monte_carlo_optimality_3x3(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            w = rng.normal(size=3)
            w = w - (w.sum() - 1.0) / 3.0  # unit trace, generically indefinite
            if w.min() > 0:
                w[0] -= 2 * abs(w.min()) + 0.1
                w = w - (w.sum() - 1.0) / 3.0
            basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            target = (basis * w) @ basis.conj().T
            projected = project_to_physical(target)
            dist = np.linalg.norm(projected - target)
            for _ in range(2000):
                candidate = random_density(rng, 3, rank=int(rng.integers(1, 4)))
                assert dist <= np.linalg.norm(candidate - target) + 1e-12

    def test_output_invariants(self, sys3, default_history):
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, default_history, sigma=2.0, seed=9)
        fit = estimate(record, default_history)
        assert np.linalg.eigvalsh(fit.rho_ls)[0] < 0  # noisy fit is indefinite here
        out = project_to_physical(fit.rho_ls)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12
        assert abs(np.trace(out) - 1) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_eigenvectors_unchanged(self):
        target = np.diag([0.9, 0.35, -0.05, -0.2]).astype(complex)
        out = project_to_physical(target)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-14
        assert np.allclose(np.diag(out).real, [0.775, 0.225, 0.0, 0.0], atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            project_to_physical(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="trace"):
            project_to_physical(np.eye(2))


@st.composite
def unit_trace_hermitian(draw):
    """(matrices, single): a d x d matrix or a stack, d in 2..11, mostly indefinite."""
    d = draw(st.integers(2, 11))
    single = draw(st.booleans())
    n = 1 if single else draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(n):
        if draw(st.booleans()):
            members.append(random_density(rng, d, rank=int(rng.integers(1, d + 1))))
            continue
        spectrum = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        spectrum -= (spectrum.sum() - 1.0) / d
        U = haar_unitary(rng, d)
        rho = (U * spectrum) @ U.conj().T
        members.append((rho + rho.conj().T) / 2.0)
    return (members[0] if single else np.stack(members)), single


@settings(max_examples=200, derandomize=True, deadline=None)
@given(unit_trace_hermitian())
def test_closed_form_projection_matches_water_filling(case):
    matrices, single = case
    out = project_to_physical(matrices)
    assert out.shape == matrices.shape
    for rho, got in zip([matrices] if single else matrices, [out] if single else out):
        reference = water_filling_reference(rho)
        assert np.max(np.abs(got - reference)) <= 1e-14
        if np.linalg.eigh(rho)[0][0] >= 0:
            assert np.array_equal(got, rho)


class TestEstimate:
    def test_noiseless_closed_loop_paper_states(self, sys3, default_history, paper_states):
        for label, rho in paper_states:
            record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
            result = estimate(record, default_history)
            assert fidelity(rho, result.rho_ml) >= 1 - 1e-6, label
            assert np.max(np.abs(result.rho_ml - rho)) < 1e-6

    def test_noiseless_closed_loop_random_states(self, sys3, default_history):
        rng = np.random.default_rng(23)
        states = [random_pure(rng, 7) for _ in range(10)]
        states += [random_density(rng, 7, rank=int(rng.integers(2, 8))) for _ in range(10)]
        for rho in states:
            record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
            assert fidelity(rho, estimate(record, default_history).rho_ml) >= 1 - 1e-6

    def test_noisy_cat_in_expected_band(self, sys3, default_history):
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, default_history, sigma=CALIBRATED_SIGMA, seed=0)
        fid = fidelity(rho, estimate(record, default_history).rho_ml)
        assert 0.85 <= fid <= 0.99

    def test_reordering_invariance(self, sys3, default_history):
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, default_history, sigma=0.8, seed=31)
        base = estimate(record, default_history)
        rng = np.random.default_rng(32)
        perm = rng.permutation(150)
        # a history's times are its waveform's grid, so the shuffled pair goes to the solve
        # that estimate() runs once the record matches its history
        shuffled_record = replace(record, times=record.times[perm], values=record.values[perm])
        result = _estimates([shuffled_record], default_history.design_matrix[perm])[0]
        assert np.max(np.abs(result.rho_ls - base.rho_ls)) < 1e-9
        assert np.max(np.abs(result.rho_ml - base.rho_ml)) < 1e-9

    def test_prefix_rank_monotone(self, sys3, default_history):
        ranks = []
        for k in range(5, 151, 5):
            s = np.linalg.svd(default_history.design_matrix[:k, 1:], compute_uv=False)
            ranks.append(int(np.sum(s > 1e-10 * s[0])))
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))

    def test_more_averaging_does_not_hurt(self, sys3, default_history):
        rho = make_state(sys3, "basis_state", m=-3)
        medians = []
        for n_avg in (1, 8, 64):
            fids = [
                fidelity(
                    rho,
                    estimate(
                        synthesize_record(
                            rho, default_history, sigma=CALIBRATED_SIGMA,
                            seed=seed, n_averaged=n_avg,
                        ),
                        default_history,
                    ).rho_ml,
                )
                for seed in range(20)
            ]
            medians.append(float(np.median(fids)))
        assert medians[0] <= medians[1] <= medians[2]


class TestEstimateBatch:
    @pytest.fixture
    def records(self, sys3, default_history, paper_states):
        return [
            synthesize_record(rho, default_history, sigma=CALIBRATED_SIGMA, seed=seed,
                              n_averaged=n_avg)
            for seed, n_avg in ((0, 1), (1, 4))
            for _label, rho in paper_states
        ]

    def test_equals_per_record_estimate(self, default_history, records):
        batch = estimate_batch(records, default_history)
        assert len(batch) == len(records)
        for record, got in zip(records, batch):
            alone = estimate(record, default_history)
            assert np.max(np.abs(got.rho_ls - alone.rho_ls)) <= 1e-14
            assert np.max(np.abs(got.rho_ml - alone.rho_ml)) <= 1e-13
            assert got.rank == alone.rank
            assert np.array_equal(got.singular_values, alone.singular_values)
            assert np.array_equal(got.covariance, alone.covariance)
            assert got.residual_norm == pytest.approx(alone.residual_norm, rel=1e-12)

    def test_covariance_once_per_noise_level(self, default_history, records):
        batch = estimate_batch(records, default_history)
        assert batch[0].covariance is batch[1].covariance is batch[2].covariance
        assert batch[3].covariance is batch[4].covariance is batch[5].covariance
        # four averaged shots: a quarter of the single-shot variance
        assert np.allclose(batch[3].covariance, batch[0].covariance / 4, rtol=1e-14, atol=0)
        assert not batch[0].covariance.flags.writeable

    def test_one_mismatched_record_rejects_the_batch(self, sys3, default_history, records):
        bad = replace(records[1], F=2.0)
        with pytest.raises(FingerprintMismatchError, match="F=2"):
            estimate_batch([records[0], bad, records[2]], default_history)
        other = replace(records[2], waveform_fingerprint="0" * 16)
        with pytest.raises(FingerprintMismatchError, match="fingerprint"):
            estimate_batch(records[:2] + [other], default_history)

    def test_perturbed_time_grid_in_a_batch_names_that_record(self, default_history, records):
        # the grid check runs once over the stacked times; a failure falls back
        # to the record-by-record check and its message
        shifted = replace(records[3], times=records[3].times * (1 + 1e-9))
        batch = records[:3] + [shifted] + records[4:]
        with pytest.raises(FingerprintMismatchError) as batched:
            estimate_batch(batch, default_history)
        with pytest.raises(FingerprintMismatchError) as alone:
            estimate(shifted, default_history)
        assert str(batched.value) == str(alone.value)
        assert "sample times differ" in str(alone.value)
        # the first offending record wins, as when each is checked in turn
        other = replace(records[4], waveform_fingerprint="0" * 16)
        with pytest.raises(FingerprintMismatchError, match="sample times differ"):
            estimate_batch(records[:3] + [shifted, other], default_history)
        with pytest.raises(FingerprintMismatchError, match="fingerprint"):
            estimate_batch(records[:3] + [other, shifted], default_history)

    def test_empty_batch_is_empty(self, default_history):
        assert estimate_batch([], default_history) == []
        assert estimate_batch(iter(()), default_history) == []

    def test_stacked_projection_validates_every_member(self):
        good = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="Hermitian"):
            project_to_physical(np.stack([good, np.array([[1.0, 1.0], [0.0, 0.0]])]))
        with pytest.raises(ValueError, match="trace"):
            project_to_physical(np.stack([good, np.eye(2)]))
        assert project_to_physical(np.zeros((0, 3, 3))).shape == (0, 3, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPrefixCurve:
    def test_start_final_and_count(self, sys3, default_history):
        rho = make_state(sys3, "basis_state", m=-3)
        record = synthesize_record(rho, default_history, sigma=CALIBRATED_SIGMA, seed=2)
        points = estimate_prefix_curve(record, default_history, rho, stride=5)
        assert len(points) == math.ceil(150 / 5) + 1
        t0, fid0, top0 = points[0]
        assert t0 == 0.0
        assert fid0 == pytest.approx(1 / 7, abs=1e-12)
        assert top0 == pytest.approx(1.0, abs=1e-12)
        full = estimate(record, default_history)
        assert points[-1][1] == pytest.approx(fidelity(rho, full.rho_ml), abs=1e-12)

    def test_unitary_run_keeps_top_eigenvalue(self, sys3, default_history):
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, default_history, sigma=0.3, seed=4)
        points = estimate_prefix_curve(record, default_history, rho, stride=10)
        # closed evolution keeps the spectrum, so the true state's own value is exact
        assert [top for _, _, top in points] == [max_eigenvalue(rho)] * len(points)

    def test_waveform_must_be_the_historys(self, sys3):
        # the third column evolves the true state under the history's own waveform: at
        # gamma = 200 it loses purity, where the unevolved state would keep its top eigenvalue 1
        open_wf = make_waveform(gamma_dec=200.0)
        history = heisenberg_history(open_wf, measured_observable(sys3), n_samples=150)
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, history, sigma=CALIBRATED_SIGMA, seed=2)
        points = estimate_prefix_curve(record, history, rho)
        assert points[-1][2] < 0.2
        evolved = propagate_state(rho, open_wf, n_samples=150)
        rows = [0] + list(range(4, 150, 5))
        assert [top for _, _, top in points] == [max_eigenvalue(evolved[i]) for i in rows]

    def test_stride_validation(self, sys3, default_history):
        rho = make_state(sys3, "mixed")
        record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
        with pytest.raises(ValueError, match="stride"):
            estimate_prefix_curve(record, default_history, rho, stride=0)

    @pytest.mark.parametrize("F, gamma_dec, stride", [(3, 0.0, 1), (3, 100.0, 3), (8, 0.0, 5)],
                             ids=["F3_unitary", "F3_gamma100", "F8_underdetermined"])
    def test_every_point_is_the_truncated_estimate(self, F, gamma_dec, stride):
        # F = 3 has 48 traceless coordinates, so most prefixes are overdetermined;
        # F = 8 has 288, more than the 150 samples, so every prefix is underdetermined
        sys_ = build_spin_system(F)
        waveform = make_waveform(gamma_dec=gamma_dec)
        history = heisenberg_history(waveform, measured_observable(sys_), n_samples=150)
        rho = make_state(sys_, "cat")
        record = synthesize_record(rho, history, sigma=CALIBRATED_SIGMA, seed=5)
        points = estimate_prefix_curve(record, history, rho, stride=stride)
        ks = list(range(stride, 150, stride)) + [150]
        for k, (_, fid, _) in zip(ks, points[1:], strict=True):
            # the record and design cut to their first k samples, fitted by estimate()'s solve
            short = replace(record, times=record.times[:k], values=record.values[:k])
            cut = _estimates([short], history.design_matrix[:k])[0]
            assert abs(fid - fidelity(rho, cut.rho_ml)) <= 1e-12

    @pytest.mark.parametrize("gamma_dec", [0.0, 200.0])
    def test_one_sqrt_per_curve_and_per_point_fidelities(self, sys3, gamma_dec, monkeypatch):
        waveform = make_waveform(gamma_dec=gamma_dec)
        history = heisenberg_history(waveform, measured_observable(sys3), n_samples=150)
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, history, sigma=CALIBRATED_SIGMA, seed=5)
        sqrt_psd, calls = metrics._sqrt_psd, []
        monkeypatch.setattr(metrics, "_sqrt_psd", lambda m: calls.append(m) or sqrt_psd(m))
        points = estimate_prefix_curve(record, history, rho, stride=5)
        monkeypatch.undo()
        assert len(calls) == 1
        # every point is bitwise the fidelity of its own estimate, scored alone
        fits = _prefix_fits(record.values, history.design_matrix, list(range(5, 151, 5)))
        prior = np.eye(sys3.d) / sys3.d
        want = [fidelity(rho, est) for est in [prior, *project_to_physical(np.stack(fits))]]
        assert [fid for _, fid, _ in points] == want

    def test_full_rank_prefixes_skip_the_svd(self, sys3, default_history, monkeypatch):
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, default_history, sigma=CALIBRATED_SIGMA, seed=3)
        ks = list(range(5, 151, 5))
        expected = [_solve(record.values[None, :k], default_history.design_matrix[:k])[0][0]
                    for k in ks]
        monkeypatch.setattr("spintomo.estimator._solve", None)
        fits = _prefix_fits(record.values, default_history.design_matrix, ks)
        assert max(np.max(np.abs(a - b)) for a, b in zip(fits, expected)) <= 1e-12

    @pytest.mark.parametrize("case", ["twelve_equal_rows", "steep_second_row"])
    def test_rank_deficient_prefixes_take_the_svd_unchanged(self, sys3, default_waveform,
                                                            default_history, case):
        design = default_history.design_matrix.copy()
        if case == "twelve_equal_rows":
            # every prefix of 2 to 12 samples has rank 1, and L is singular from its second row
            design[:12] = design[0]
        else:
            # L's diagonal stays far above the cutoff, but s_min/s_max of every prefix
            # of two or more samples is about 1e-14: only the certificate rejects them
            first = design[0, 1:]
            off = np.roll(first, 1) - (np.roll(first, 1) @ first) / (first @ first) * first
            design[1, 1:] = 1e5 * first + 1e-4 * off / np.linalg.norm(off)
        history = ObservableHistory(default_waveform, design)
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, history, sigma=CALIBRATED_SIGMA, seed=3)
        ks = [1, 2, 5, 12, 13, 60, 150]
        expected = [_solve(record.values[None, :k], design[:k])[0][0] for k in ks]
        fits = _prefix_fits(record.values, design, ks)
        # one sample is full rank; from two on, no prefix is certified
        assert np.max(np.abs(fits[0] - expected[0])) <= 1e-12
        assert all(np.array_equal(a, b) for a, b in zip(fits[1:], expected[1:]))
        points = estimate_prefix_curve(record, history, rho, stride=5)
        ks = list(range(5, 151, 5))
        projected = project_to_physical(
            np.stack([_solve(record.values[None, :k], design[:k])[0][0] for k in ks])
        )
        assert [fid for _, fid, _ in points[1:]] == [fidelity(rho, est) for est in projected]


class TestNuisance:
    def test_empty_params_rejected_before_any_history(self, sys3, default_waveform,
                                                      default_history, monkeypatch):
        # with no scale to fit, this would be estimate() without its fingerprint check
        built = []
        histories = estimator.heisenberg_histories
        monkeypatch.setattr(estimator, "heisenberg_histories",
                            lambda *args: built.append(args) or histories(*args))
        record = synthesize_record(make_state(sys3, "cat"), default_history, sigma=0.4, seed=6)
        foreign = replace(record, waveform_fingerprint="0123456789abcdef")
        for rec in (record, foreign):
            with pytest.raises(ValueError, match="at least one nuisance scale"):
                estimate_with_nuisance(rec, default_waveform, {})
        assert built == []
        estimate_with_nuisance(record, default_waveform, {"omega_scale": (0.95, 1.05)},
                               budget=1)
        assert len(built) == 1

    def test_recovers_unit_scale(self, sys3, default_waveform, default_history):
        rho = make_state(sys3, "basis_state", m=-3)
        record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
        result = estimate_with_nuisance(
            record, default_waveform, {"omega_scale": (0.99, 1.01)}, budget=120
        )
        assert abs(result.nuisance["omega_scale"] - 1.0) < 2e-3
        assert fidelity(rho, result.rho_ml) > 0.999

    def test_budget_exhaustion_flagged(self, sys3, default_waveform, default_history):
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
        result = estimate_with_nuisance(
            record, default_waveform, {"omega_scale": (0.9, 1.1)}, budget=4
        )
        assert result.nuisance_converged is False
        assert "omega_scale" in result.nuisance

    @pytest.fixture(scope="class")
    def two_scale_record(self, sys3, default_waveform):
        drifted = default_waveform.with_scales(omega_scale=1.01, chi_scale=0.99)
        history = heisenberg_history(drifted, measured_observable(sys3), n_samples=150)
        return synthesize_record(make_state(sys3, "basis_state", m=-3), history, sigma=0.0, seed=0)

    def test_two_scales_recovered(self, default_waveform, two_scale_record):
        bounds = {"omega_scale": (0.95, 1.05), "chi_scale": (0.95, 1.05)}
        result = estimate_with_nuisance(two_scale_record, default_waveform, bounds)
        assert result.nuisance_converged is True
        assert list(result.nuisance) == ["omega_scale", "chi_scale"]
        assert abs(result.nuisance["omega_scale"] - 1.01) < 1e-5
        assert abs(result.nuisance["chi_scale"] - 0.99) < 1e-5

    def test_two_scale_fit_is_deterministic(self, default_waveform, two_scale_record):
        bounds = {"chi_scale": (0.95, 1.05), "omega_scale": (0.95, 1.05)}
        a, b = (estimate_with_nuisance(two_scale_record, default_waveform, bounds, budget=40)
                for _ in range(2))
        assert a.nuisance == b.nuisance and a.nuisance_converged == b.nuisance_converged
        assert np.array_equal(a.rho_ml, b.rho_ml) and np.array_equal(a.covariance, b.covariance)

    def test_budget_counts_histories_inside_the_bounds(self, default_waveform,
                                                      two_scale_record, monkeypatch):
        scales = []
        with_scales = ControlWaveform.with_scales

        def recording(waveform, omega_scale=1.0, chi_scale=1.0):
            scales.append((omega_scale, chi_scale))
            return with_scales(waveform, omega_scale=omega_scale, chi_scale=chi_scale)

        monkeypatch.setattr(ControlWaveform, "with_scales", recording)
        bounds = {"omega_scale": (0.95, 1.05), "chi_scale": (0.97, 1.0)}
        for budget in (3, 9, 25):
            scales.clear()
            result = estimate_with_nuisance(two_scale_record, default_waveform, bounds,
                                            budget=budget)
            assert len(scales) == len(set(scales)) == budget
            assert result.nuisance_converged is False
            assert all(0.95 <= w <= 1.05 and 0.97 <= c <= 1.0 for w, c in scales)
            assert (result.nuisance["omega_scale"], result.nuisance["chi_scale"]) in scales

    @pytest.mark.parametrize("gamma", [0.0, 200.0])
    @pytest.mark.parametrize("budget", [1, 5, 9])
    def test_budget_inside_the_grid_keeps_its_first_minimum(self, sys3, gamma, budget):
        nominal = make_waveform(gamma_dec=gamma)
        drifted = nominal.with_scales(omega_scale=1.02)
        history = heisenberg_history(drifted, measured_observable(sys3), n_samples=150)
        record = synthesize_record(make_state(sys3, "cat"), history, sigma=CALIBRATED_SIGMA, seed=3)
        result = estimate_with_nuisance(record, nominal, {"omega_scale": (0.95, 1.05)},
                                        budget=budget)
        scale, residual = nuisance_grid_reference(record, nominal, "omega_scale", 0.95, 1.05,
                                                  budget)
        assert result.nuisance == {"omega_scale": scale}
        assert result.residual_norm == residual
        assert result.nuisance_converged is False

    def test_grid_ties_keep_the_first_point(self, sys3, default_waveform, default_history,
                                            monkeypatch):
        # every trial point gets the nominal design, so all residuals tie exactly
        built = []
        histories = estimator.heisenberg_histories

        def nominal_only(waveforms, observable, n_samples):
            built.append(len(waveforms))
            return histories([default_waveform] * len(waveforms), observable, n_samples)

        monkeypatch.setattr(estimator, "heisenberg_histories", nominal_only)
        record = synthesize_record(make_state(sys3, "cat"), default_history, sigma=0.5, seed=1)
        result = estimate_with_nuisance(record, default_waveform,
                                        {"omega_scale": (0.95, 1.05)}, budget=5)
        assert built == [5]
        assert result.nuisance == {"omega_scale": 0.95} and result.nuisance_converged is False

    def test_parameter_validation(self, sys3, default_waveform, default_history):
        rho = make_state(sys3, "cat")
        record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
        with pytest.raises(ValueError, match="unknown nuisance"):
            estimate_with_nuisance(record, default_waveform, {"tilt": (0, 1)})
        with pytest.raises(ValueError, match="bounds"):
            estimate_with_nuisance(record, default_waveform, {"omega_scale": (1.1, 0.9)})

    def test_sample_count_off_the_segments_is_a_mismatch(self, sys3, default_waveform,
                                                        default_history):
        # 100 samples cannot be spread evenly over the waveform's 30 segments
        record = synthesize_record(make_state(sys3, "cat"), default_history, sigma=0.0, seed=0)
        short = replace(record, times=record.times[:100], values=record.values[:100])
        with pytest.raises(FingerprintMismatchError, match="record has 100 samples"):
            estimate_with_nuisance(short, default_waveform, {"omega_scale": (0.95, 1.05)})
        with pytest.raises(FingerprintMismatchError, match="record has 100 samples"):
            estimate(short, default_history)

    @pytest.mark.parametrize("bounds", [{"omega_scale": (-0.5, 1.05)},
                                        {"chi_scale": (-2.0, -1.0)}])
    def test_negative_bound_rejected_before_any_history(self, sys3, default_waveform,
                                                        default_history, monkeypatch, bounds):
        # refused up front, not when the first negative trial scale builds its waveform
        def no_history(*args):
            raise AssertionError("a history was built")

        monkeypatch.setattr(estimator, "heisenberg_histories", no_history)
        record = synthesize_record(make_state(sys3, "cat"), default_history, sigma=0.0, seed=0)
        with pytest.raises(ValueError, match="nuisance bounds must be nonnegative"):
            estimate_with_nuisance(record, default_waveform, bounds)


def test_estimate_file_round_trip(sys3, default_history, tmp_path):
    rho = make_state(sys3, "cat")
    record = synthesize_record(rho, default_history, sigma=0.6, seed=8)
    result = estimate(record, default_history)
    path = tmp_path / "estimate.json"
    write_estimate(result, path, record.waveform_fingerprint)
    again, meta = read_estimate(path)
    assert np.array_equal(again.rho_ls, result.rho_ls)
    assert np.array_equal(again.rho_ml, result.rho_ml)
    assert np.max(np.abs(again.covariance - result.covariance)) == 0.0
    assert again.rank == result.rank
    assert meta["waveform_fingerprint"] == record.waveform_fingerprint
    path2 = tmp_path / "estimate2.json"
    write_estimate(again, path2, meta["waveform_fingerprint"])
    assert path.read_bytes() == path2.read_bytes()


def test_estimate_file_rejects_non_finite(sys3, default_history, tmp_path):
    record = synthesize_record(make_state(sys3, "cat"), default_history, sigma=0.6, seed=8)
    path = tmp_path / "estimate.json"
    write_estimate(estimate(record, default_history), path, record.waveform_fingerprint)
    text = path.read_text()
    path.write_text(text.replace('"residual_norm":', '"residual_norm":NaN,"x":', 1))
    with pytest.raises(ValueError, match="non-finite"):
        read_estimate(path)


class TestReadEstimateStrict:
    """read_estimate rejects incomplete, padded or inconsistent documents by name."""

    @pytest.fixture
    def document(self, sys3, default_history, tmp_path):
        record = synthesize_record(make_state(sys3, "cat"), default_history, sigma=0.6, seed=8)
        path = tmp_path / "estimate.json"
        write_estimate(estimate(record, default_history), path, record.waveform_fingerprint)
        return json.loads(path.read_text())

    def _read(self, doc, tmp_path):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return read_estimate(path)

    @pytest.mark.parametrize("field", ["rank", "covariance_lower", "nuisance", "F"])
    def test_missing_field_named(self, document, tmp_path, field):
        del document[field]
        with pytest.raises(ValueError, match=f"missing field: {field}"):
            self._read(document, tmp_path)

    def test_unknown_field_named(self, document, tmp_path):
        document["comment"] = "hand edited"
        with pytest.raises(ValueError, match="unknown field: comment"):
            self._read(document, tmp_path)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_covariance_length_exact(self, document, tmp_path, change):
        lower = document["covariance_lower"]
        assert len(lower) == 48 * 49 // 2
        document["covariance_lower"] = lower[:-1] if change < 0 else lower + [0.0]
        with pytest.raises(ValueError, match="covariance_lower"):
            self._read(document, tmp_path)

    @pytest.mark.parametrize("name", ["rho_ls", "rho_ml"])
    def test_matrix_shape_bound_to_spin_size(self, document, tmp_path, name):
        document[name] = [row[:6] for row in document[name][:6]]
        with pytest.raises(ValueError, match=f"{name} must be 7x7"):
            self._read(document, tmp_path)
        document[name] = [row[:6] for row in document["rho_ls" if name == "rho_ml" else "rho_ml"]]
        with pytest.raises(ValueError, match=name):
            self._read(document, tmp_path)

    def test_overflowing_number_names_its_field(self, document, tmp_path):
        path = tmp_path / "edited.json"
        text = json.dumps(document)
        head, tail = text.split('"covariance_lower": [', 1)
        path.write_text(head + '"covariance_lower": [1e999, ' + tail.split(", ", 1)[1])
        with pytest.raises(DocumentError, match="non-finite") as info:
            read_estimate(path)
        assert info.value.field == "covariance_lower"

    @pytest.mark.parametrize("rank", [-5, 49, 1000])
    def test_rank_within_singular_value_count(self, document, tmp_path, rank):
        document["rank"] = rank
        with pytest.raises(DocumentError) as info:
            self._read(document, tmp_path)
        assert info.value.field == "rank"

    @pytest.mark.parametrize("change", ["too_many", "negative"])
    def test_singular_values_at_most_d2_minus_1_and_nonnegative(self, document, tmp_path,
                                                                change):
        values = document["singular_values"]
        assert len(values) == 48
        if change == "too_many":
            document["singular_values"] = values + values[-12:]
        else:
            document["singular_values"] = values[:-1] + [-values[-1]]
        with pytest.raises(DocumentError) as info:
            self._read(document, tmp_path)
        assert info.value.field == "singular_values"

    def test_residual_norm_nonnegative(self, document, tmp_path):
        document["residual_norm"] = -2.0
        with pytest.raises(DocumentError) as info:
            self._read(document, tmp_path)
        assert info.value.field == "residual_norm"

    def test_nuisance_names_known_scales_only(self, document, tmp_path):
        document["nuisance"] = {"foo": 1.0}
        with pytest.raises(DocumentError, match="nuisance.foo") as info:
            self._read(document, tmp_path)
        assert info.value.field == "nuisance.foo"
        document["nuisance"] = {"omega_scale": 1.01, "chi_scale": 0.99}
        result, _ = self._read(document, tmp_path)
        assert result.nuisance == {"omega_scale": 1.01, "chi_scale": 0.99}

    @pytest.mark.parametrize("field, value", [("nuisance", []), ("residual_norm", [1.0])])
    def test_wrong_type_is_a_value_error(self, document, tmp_path, field, value):
        document[field] = value
        with pytest.raises(ValueError, match="malformed"):
            self._read(document, tmp_path)

    def test_written_document_still_reads(self, document, tmp_path):
        result, meta = self._read(document, tmp_path)
        assert result.rank == 48
        assert meta["F"] == 3.0
