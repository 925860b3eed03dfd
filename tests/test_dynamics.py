from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import make_waveform
from helpers import lindblad_reference, random_density
from spintomo import (
    ControlWaveform,
    ObservableHistory,
    build_spin_system,
    coords_to_state,
    hermitian_basis,
    heisenberg_histories,
    heisenberg_history,
    measured_observable,
    propagate_state,
    sample_times,
    state_to_coords,
)
from spintomo import dynamics
from spintomo import test_state as make_state
from spintomo.metrics import purity
from spintomo.spin_algebra import _unitary


def isotropic(sys):
    return (sys.Fx, sys.Fy, sys.Fz)


class TestControlWaveform:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlWaveform(n_steps=0, dt=1e-5, phi=(), omega_larmor=1.0, chi=0.0)
        with pytest.raises(ValueError):
            ControlWaveform(n_steps=1, dt=-1.0, phi=(0.0,), omega_larmor=1.0, chi=0.0)
        with pytest.raises(ValueError):
            ControlWaveform(n_steps=2, dt=1e-5, phi=(0.0,), omega_larmor=1.0, chi=0.0)
        with pytest.raises(ValueError):
            ControlWaveform(n_steps=1, dt=1e-5, phi=(0.0,), omega_larmor=-1.0, chi=0.0)

    @pytest.mark.parametrize("field, value", [
        ("dt", np.inf), ("dt", np.nan), ("phi", (np.nan,)), ("phi", (np.inf,)),
        ("omega_larmor", np.nan), ("omega_larmor", np.inf), ("chi", np.nan),
        ("gamma_dec", np.nan), ("gamma_dec", np.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        # NaN fails no "< 0" test, and an infinite dt passes "> 0"
        kwargs = dict(n_steps=1, dt=1e-5, phi=(0.0,), omega_larmor=1.0, chi=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ControlWaveform(**kwargs)

    def test_closed(self):
        def closed(gamma_dec):
            return ControlWaveform(n_steps=1, dt=1e-5, phi=(0.0,), omega_larmor=1.0, chi=0.0,
                                   gamma_dec=gamma_dec).closed

        assert closed(0.0)
        assert not closed(200.0) and not closed(1e-300)

    def test_no_second_switch_for_closed_evolution(self):
        # gamma_dec = 0 is the one way to ask for unitary evolution
        with pytest.raises(TypeError, match="jump_ops"):
            ControlWaveform(n_steps=1, dt=1e-5, phi=(0.0,), omega_larmor=1.0, chi=0.0,
                            gamma_dec=200.0, jump_ops="none")

    def test_fingerprint_tracks_content(self, default_waveform):
        same = make_waveform()
        assert same.fingerprint() == default_waveform.fingerprint()
        changed = make_waveform(chi=default_waveform.chi * 1.0001)
        assert changed.fingerprint() != default_waveform.fingerprint()

    def test_with_scales(self, default_waveform):
        scaled = default_waveform.with_scales(omega_scale=1.01, chi_scale=0.99)
        assert scaled.omega_larmor == pytest.approx(default_waveform.omega_larmor * 1.01)
        assert scaled.chi == pytest.approx(default_waveform.chi * 0.99)
        assert scaled.phi == default_waveform.phi


class TestStepHamiltonian:
    """Each segment's Hamiltonian, ``dynamics._hamiltonian``."""

    def test_field_along_x(self, sys3):
        wf = ControlWaveform(n_steps=1, dt=1e-5, phi=(0.0,), omega_larmor=2.0, chi=0.0)
        assert np.max(np.abs(dynamics._hamiltonian(sys3, wf, 0) - 2.0 * sys3.Fx)) < 1e-12

    def test_pure_twisting(self, sys3):
        wf = ControlWaveform(n_steps=1, dt=1e-5, phi=(0.3,), omega_larmor=0.0, chi=1.5)
        assert np.max(np.abs(dynamics._hamiltonian(sys3, wf, 0) - 1.5 * sys3.Fx @ sys3.Fx)) < 1e-12

    def test_quarter_turn_swaps_axes(self, sys3):
        wf = ControlWaveform(
            n_steps=2, dt=1e-5, phi=(0.0, np.pi / 2), omega_larmor=1.0, chi=0.0
        )
        assert np.max(np.abs(dynamics._hamiltonian(sys3, wf, 1) - sys3.Fy)) < 1e-12


class TestStepPropagator:
    """The closed path's segment propagator exp(-i H dt), ``spin_algebra._unitary``."""

    def test_zero_hamiltonian(self):
        assert np.max(np.abs(_unitary(np.zeros((3, 3)), 0.7) - np.eye(3))) < 1e-14

    def test_group_property(self, sys3):
        H = dynamics._hamiltonian(sys3, make_waveform(), 0)
        u1 = _unitary(H, 1e-5)
        u2 = _unitary(H, 2.5e-5)
        u3 = _unitary(H, 3.5e-5)
        assert np.max(np.abs(u1 @ u2 - u3)) < 1e-10

    def test_unitarity(self, sys3):
        H = dynamics._hamiltonian(sys3, make_waveform(), 3)
        U = _unitary(H, 5e-5)
        assert np.linalg.norm(U.conj().T @ U - np.eye(7)) < 1e-10

    def test_spin_half_analytic(self):
        s = build_spin_system(0.5)
        omega = 4.0
        U = _unitary(omega * s.Fz, np.pi / omega)
        want = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.max(np.abs(U - want)) < 1e-12


class TestLindblad:
    def test_hamiltonian_part_matches_unitary_conjugation(self, sys3):
        wf = make_waveform()
        rho = make_state(sys3, "cat")
        states = propagate_state(rho, wf, n_samples=30)
        U = np.eye(7, dtype=complex)
        dt_sample = wf.duration / 30
        direct = [rho]
        for i in range(29):
            H = dynamics._hamiltonian(sys3, wf, i)  # one sample per segment here
            U = _unitary(H, dt_sample)
            direct.append(U @ direct[-1] @ U.conj().T)
        for a, b in zip(states, direct):
            assert np.max(np.abs(a - b)) < 1e-10

    def test_top_row_is_zero(self, sys3):
        parts = dynamics._generator_parts(sys3.d, 120.0)
        gen = dynamics._segment_generators(parts, [make_waveform(gamma_dec=120.0)], 0)[0]
        assert np.max(np.abs(gen[0])) < 1e-12

    def test_isotropic_fixed_point(self, sys3):
        wf = make_waveform(gamma_dec=200.0)
        mixed = make_state(sys3, "mixed")
        states = propagate_state(mixed, wf, n_samples=30)
        assert np.max(np.abs(states[-1] - mixed)) < 1e-10

    def test_trace_preserved_150_steps(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 7)
        states = propagate_state(rho, make_waveform(gamma_dec=80.0), n_samples=150)
        for s in states:
            assert abs(np.trace(s) - 1.0) < 1e-9

    def test_matches_definition_column_by_column(self):
        # column b holds the coordinates of L(B_b), written out per element
        s = build_spin_system(1.5)
        rng = np.random.default_rng(12)
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = 1e4 * (H + H.conj().T)
        jumps = isotropic(s)
        gamma = 150.0
        K = sum(A.conj().T @ A for A in jumps)
        want = np.empty((16, 16))
        for b, B in enumerate(hermitian_basis(s)):
            LB = -1j * (H @ B - B @ H)
            LB += gamma * (sum(A @ B @ A.conj().T for A in jumps) - 0.5 * (K @ B + B @ K))
            want[:, b] = state_to_coords(LB)
        got = lindblad_reference(s, H, gamma, jumps)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestPropagateState:
    def test_larmor_precession(self, sys3):
        angle = 0.8
        wf = ControlWaveform(
            n_steps=10, dt=1e-5, phi=(angle,) * 10, omega_larmor=2 * np.pi * 3000, chi=0.0
        )
        rho0 = make_state(sys3, "basis_state", m=3)
        states = propagate_state(rho0, wf, n_samples=50)
        axis = np.array([np.cos(angle), np.sin(angle), 0.0])
        times = sample_times(wf, 50)
        lengths = []
        for t, rho in zip(times, states):
            vec = np.array(
                [
                    np.trace(rho @ sys3.Fx).real,
                    np.trace(rho @ sys3.Fy).real,
                    np.trace(rho @ sys3.Fz).real,
                ]
            )
            lengths.append(np.linalg.norm(vec))
            # component along the field axis is conserved; z-component rotates
            assert vec @ axis == pytest.approx(0.0, abs=1e-9)
            assert vec[2] == pytest.approx(3 * np.cos(wf.omega_larmor * t), abs=1e-8)
        assert np.max(np.abs(np.array(lengths) - 3.0)) < 1e-9

    def test_outputs_physical(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 7, rank=3)
        for s in propagate_state(rho, make_waveform(gamma_dec=100.0), n_samples=30):
            assert np.max(np.abs(s - s.conj().T)) < 1e-12
            assert abs(np.trace(s) - 1) < 1e-9
            assert np.linalg.eigvalsh(s)[0] > -1e-9

    def test_purity_monotone_under_isotropic_noise(self, sys3):
        rho0 = make_state(sys3, "cat")
        states = propagate_state(rho0, make_waveform(gamma_dec=150.0), n_samples=150)
        purities = [purity(s) for s in states]
        assert all(b <= a + 1e-10 for a, b in zip(purities, purities[1:]))

    def test_reversible_when_unitary(self, sys3):
        wf = make_waveform()
        rng = np.random.default_rng(10)
        rho0 = random_density(rng, 7)
        forward = np.eye(7, dtype=complex)
        for i in range(wf.n_steps):
            forward = _unitary(dynamics._hamiltonian(sys3, wf, i), wf.dt) @ forward
        rho_end = forward @ rho0 @ forward.conj().T
        back = rho_end
        for i in reversed(range(wf.n_steps)):
            back = (
                _unitary(dynamics._hamiltonian(sys3, wf, i), -wf.dt)
                @ back
                @ _unitary(dynamics._hamiltonian(sys3, wf, i), -wf.dt).conj().T
            )
        assert np.linalg.norm(back - rho0) < 1e-8

    def test_squeezing_under_pure_twisting(self, sys3):
        wf = ControlWaveform(
            n_steps=1, dt=1.5e-3, phi=(0.0,), omega_larmor=0.0, chi=2 * np.pi * 1000
        )
        rho0 = make_state(sys3, "basis_state", m=3)
        best = np.inf
        for rho in propagate_state(rho0, wf, n_samples=150):
            ex = np.trace(rho @ sys3.Fx).real
            ey = np.trace(rho @ sys3.Fy).real
            vxx = np.trace(rho @ sys3.Fx @ sys3.Fx).real - ex**2
            vyy = np.trace(rho @ sys3.Fy @ sys3.Fy).real - ey**2
            vxy = (
                0.5 * np.trace(rho @ (sys3.Fx @ sys3.Fy + sys3.Fy @ sys3.Fx)).real
                - ex * ey
            )
            best = min(best, np.linalg.eigvalsh([[vxx, vxy], [vxy, vyy]])[0])
        assert best < 1.5  # below the coherent-state transverse variance F/2

    def test_sample_alignment_enforced(self, sys3, default_waveform):
        with pytest.raises(ValueError, match="multiple"):
            propagate_state(make_state(sys3, "mixed"), default_waveform, n_samples=100)


class TestHeisenbergHistory:
    def test_identity_waveform_static_observable(self, sys3):
        wf = ControlWaveform(n_steps=1, dt=1e-4, phi=(0.0,), omega_larmor=0.0, chi=0.0)
        O = measured_observable(sys3)
        h = heisenberg_history(wf, O, n_samples=20)
        for Oi in coords_to_state(h.design_matrix):
            assert np.max(np.abs(Oi - O)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 100.0])
    def test_duality_against_schrodinger(self, sys3, gamma):
        wf = make_waveform(gamma_dec=gamma)
        O = measured_observable(sys3)
        h = heisenberg_history(wf, O, n_samples=150)
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho0 = random_density(rng, 7, rank=int(rng.integers(1, 8)))
            heis = h.design_matrix @ state_to_coords(rho0)
            states = propagate_state(rho0, wf, n_samples=150)
            schro = np.array([np.trace(O @ s).real for s in states])
            assert np.max(np.abs(heis - schro)) < 1e-8

    def test_observable_norm_contracts_under_noise(self, sys3):
        # rotations keep the observable inside one tensor rank, where the
        # isotropic dissipator is a pure decay: strictly monotone norms
        wf = make_waveform(gamma_dec=150.0, chi=0.0)
        h = heisenberg_history(wf, measured_observable(sys3), n_samples=150)
        norms = np.linalg.norm(h.design_matrix, axis=1)
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.7 * norms[0]

    def test_observable_norm_bounded_with_twisting(self, sys3):
        # with the nonlinear term the composed adjoint chain is not
        # monotone sample to sample, but each map is a contraction, so
        # nothing exceeds the initial norm
        wf = make_waveform(gamma_dec=150.0)
        h = heisenberg_history(wf, measured_observable(sys3), n_samples=150)
        norms = np.linalg.norm(h.design_matrix, axis=1)
        assert np.max(norms) <= norms[0] + 1e-10
        assert norms[-1] < 0.7 * norms[0]

    def test_design_rows_match_observables(self, sys3, default_history):
        for i in range(0, 150, 30):
            row = state_to_coords(coords_to_state(default_history.design_matrix[i]))
            assert np.max(np.abs(row - default_history.design_matrix[i])) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("omega", [1e300, 1.7e308])
    def test_overflowing_open_system_drive_raises(self, sys3, omega):
        # 1e300 overflows in the squarings, 1.7e308 already in the generator
        wf = make_waveform(gamma_dec=200.0, omega_larmor=omega)
        with pytest.raises(ValueError, match="open-system propagation overflowed"):
            heisenberg_history(wf, measured_observable(sys3), n_samples=150)

    def test_times_grid(self, sys3, default_waveform, default_history):
        t = default_history.times
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        dt_sample = default_waveform.duration / 150
        assert np.max(np.abs(t - np.arange(150) * dt_sample)) < 1e-15

    def test_rejects_non_hermitian_observable(self, default_waveform):
        bad = np.zeros((7, 7))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            heisenberg_history(default_waveform, bad, n_samples=150)


class TestObservableHistory:
    def test_two_fields_and_the_rest_derived(self, default_waveform, default_history):
        assert [f.name for f in fields(ObservableHistory)] == ["waveform", "design_matrix"]
        assert default_history.waveform is default_waveform
        times = sample_times(default_waveform, 150)
        assert default_history.times.tobytes() == times.tobytes()
        assert not default_history.times.flags.writeable
        assert (default_history.n_samples, default_history.d) == (150, 7)
        assert default_history.waveform_fingerprint == default_waveform.fingerprint()

    def test_sample_count_must_fill_the_segments(self, default_waveform, default_history):
        with pytest.raises(ValueError, match="multiple of n_steps=30"):
            ObservableHistory(default_waveform, default_history.design_matrix[:100])

    @pytest.mark.parametrize("shape", [(1, 1), (7, 6)], ids=["1x1", "non_square"])
    def test_spin_size_is_the_matrix_size(self, default_waveform, shape):
        # np.eye(1) is a valid density matrix and a Hermitian observable, but of no spin
        mat = np.eye(*shape, dtype=complex)
        with pytest.raises(ValueError, match="d >= 2|square"):
            propagate_state(mat, default_waveform, n_samples=30)
        with pytest.raises(ValueError, match="d >= 2|d x d"):
            heisenberg_history(default_waveform, mat, n_samples=30)


def _reference_transfer_maps(sys, wf, n_samples):
    """Cumulative d^2 x d^2 transfer maps from expm of the Lindblad generator."""
    per_step = n_samples // wf.n_steps
    steps = [
        expm(
            lindblad_reference(sys, dynamics._hamiltonian(sys, wf, s), wf.gamma_dec,
                               isotropic(sys))
            * (wf.dt / per_step)
        )
        for s in range(wf.n_steps)
    ]
    maps = [np.eye(sys.d * sys.d)]
    for i in range(n_samples - 1):
        maps.append(steps[i // per_step] @ maps[-1])
    return maps


class TestPropagationKernel:
    """Both representations against a product of expm(lindblad_reference)."""

    @pytest.mark.parametrize(
        "F, n_samples, gamma",
        [(0.5, 60, 0.0), (3, 150, 0.0), (5, 30, 0.0), (1.5, 60, 200.0), (3, 150, 200.0),
         (5, 30, 200.0)],
    )
    def test_matches_superoperator_reference(self, F, n_samples, gamma):
        s = build_spin_system(F)
        wf = make_waveform(gamma_dec=gamma)
        rng = np.random.default_rng(13)
        O = rng.normal(size=(s.d, s.d)) + 1j * rng.normal(size=(s.d, s.d))
        O = O + O.conj().T
        rho0 = random_density(rng, s.d)
        maps = _reference_transfer_maps(s, wf, n_samples)

        want_rows = np.array([M.T @ state_to_coords(O) for M in maps])
        h = heisenberg_history(wf, O, n_samples=n_samples)
        scale = np.max(np.abs(want_rows))
        assert np.max(np.abs(h.design_matrix - want_rows)) <= 1e-11 * scale
        assert np.max(np.abs(coords_to_state(h.design_matrix) - coords_to_state(want_rows))) \
            <= 1e-11 * scale

        want_states = [coords_to_state(M @ state_to_coords(rho0)) for M in maps]
        got_states = propagate_state(rho0, wf, n_samples=n_samples)
        scale = max(np.max(np.abs(w)) for w in want_states)
        for got, want in zip(got_states, want_states):
            assert np.max(np.abs(got - want)) <= 1e-11 * scale


class TestSegmentExponential:
    """The numpy kernel pieces: the Taylor-16 exponential and the assembled generators."""

    @pytest.mark.parametrize("F", [0.5, 3, 5, 8])
    def test_expm_matches_scipy(self, F):
        s = build_spin_system(F)
        H = 3.0 * s.Fx - 1.3 * s.Fy + 0.7 * (s.Fx @ s.Fx)
        gen = lindblad_reference(s, H, 2.0, isotropic(s))
        # 1-norms just below and just above theta_16 2^k, where the number of squarings steps
        edges = np.outer(dynamics._THETA16 * 2.0 ** np.arange(7), [1 - 1e-9, 1 + 1e-9]).ravel()
        for norm in np.concatenate([np.logspace(-8, 3, 23), edges]):
            A = gen * (norm / np.linalg.norm(gen, 1))
            want = expm(A)
            assert np.max(np.abs(dynamics.expm(A) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_expm_of_zero_is_identity(self):
        for shape in [(1, 1), (7, 7), (49, 49), (3, 2, 49, 49)]:
            assert np.array_equal(dynamics.expm(np.zeros(shape)), np.broadcast_to(
                np.eye(shape[-1]), shape))

    @pytest.mark.parametrize("chi", [2 * np.pi * 6e3, 0.0])
    def test_assembled_generator_matches_step_hamiltonian(self, sys3, chi):
        # the parts are built from the basis directly, the reference from each segment's H
        wf = make_waveform(gamma_dec=150.0, chi=chi)
        parts = dynamics._generator_parts(sys3.d, wf.gamma_dec)
        for k in range(wf.n_steps):
            want = lindblad_reference(sys3, dynamics._hamiltonian(sys3, wf, k), wf.gamma_dec,
                                      isotropic(sys3))
            got = dynamics._segment_generators(parts, [wf], k)[0]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_generator_parts_built_once_and_read_only(self, sys3):
        dynamics._generator_parts.cache_clear()
        for _ in range(2):
            heisenberg_history(make_waveform(gamma_dec=200.0), measured_observable(sys3), 150)
        info = dynamics._generator_parts.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        heisenberg_history(make_waveform(), measured_observable(sys3), n_samples=150)
        assert dynamics._generator_parts.cache_info() == info  # closed evolution needs no parts
        parts = dynamics._generator_parts(sys3.d, 200.0)
        assert parts.shape == (4, 49, 49) and not parts.flags.writeable
        for part in parts:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 1.0

    def test_expm_of_a_stack_is_each_matrix_alone(self, sys3):
        # norms from 1e-3 to 1e3 give each matrix its own number of squarings
        gen = lindblad_reference(sys3, 3.0 * sys3.Fx + 0.7 * (sys3.Fx @ sys3.Fx), 2.0,
                                 isotropic(sys3))
        stack = gen[None] * (np.logspace(-3, 3, 7) / np.linalg.norm(gen, 1))[:, None, None]
        got = dynamics.expm(stack.reshape(7, 1, 49, 49))
        assert got.shape == (7, 1, 49, 49)
        for A, R in zip(stack, got):
            assert np.array_equal(R[0], dynamics.expm(A))


class TestHistoryBatch:
    """heisenberg_histories: waveforms differing only in drive scales, in one kernel pass."""

    @pytest.mark.parametrize("F", [1, 3])
    @pytest.mark.parametrize("gamma", [0.0, 200.0])
    def test_batch_of_nine_equals_nine_batches_of_one(self, F, gamma):
        s = build_spin_system(F)
        O = measured_observable(s)
        base = make_waveform(gamma_dec=gamma)
        scales = np.linspace(0.95, 1.05, 9)
        waveforms = [base.with_scales(omega_scale=x, chi_scale=2.0 - x) for x in scales]
        batch = heisenberg_histories(waveforms, O, n_samples=150)
        assert len(batch) == 9
        for wf, h in zip(waveforms, batch):
            alone = heisenberg_history(wf, O, n_samples=150)
            assert np.array_equal(h.design_matrix, alone.design_matrix)
            assert np.array_equal(h.times, alone.times)
            assert h.waveform_fingerprint == alone.waveform_fingerprint

    @pytest.mark.parametrize("field, value", [("dt", 4e-5), ("gamma_dec", 100.0),
                                              ("gamma_dec", 0.0), ("phi", (0.0,) * 30)])
    def test_rejects_waveforms_differing_beyond_the_scales(self, sys3, field, value):
        base = make_waveform(gamma_dec=200.0)
        other = replace(base, **{field: value})
        with pytest.raises(ValueError, match="differ only in omega_larmor and chi"):
            heisenberg_histories([base, other], measured_observable(sys3), n_samples=150)

    def test_rejects_empty_batch(self, sys3):
        with pytest.raises(ValueError, match="one or more waveforms"):
            heisenberg_histories([], measured_observable(sys3), n_samples=150)

