import gc
import math
import weakref

import numpy as np
import pytest

from helpers import basis_elements_reference, random_density
from spintomo import (
    build_spin_system,
    check_density_matrix,
    coords_to_state,
    hermitian_basis,
    measured_observable,
    state_to_coords,
)
from spintomo import test_state as make_state
from spintomo.metrics import purity


@pytest.mark.parametrize("F", [0.5, 1, 1.5, 2, 3])
def test_angular_momentum_algebra(F):
    s = build_spin_system(F)
    assert s.d == round(2 * F + 1)
    pairs = [(s.Fx, s.Fy, s.Fz), (s.Fy, s.Fz, s.Fx), (s.Fz, s.Fx, s.Fy)]
    for a, b, c in pairs:
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
    casimir = s.Fx @ s.Fx + s.Fy @ s.Fy + s.Fz @ s.Fz
    assert np.max(np.abs(casimir - F * (F + 1) * np.eye(s.d))) < 1e-12


def test_fz_diagonal_ordering(sys3):
    assert np.allclose(np.diag(sys3.Fz), [3, 2, 1, 0, -1, -2, -3])
    assert np.max(np.abs(sys3.Fz - np.diag(np.diag(sys3.Fz)))) == 0


def test_spin_half_is_half_pauli():
    s = build_spin_system(0.5)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    assert np.allclose(s.Fx, sx / 2)
    assert np.allclose(s.Fy, sy / 2)
    assert np.allclose(s.Fz, sz / 2)


def test_ladder_element_value(sys3):
    fplus = sys3.Fx + 1j * sys3.Fy
    row = sys3.index_of_m(-2)
    col = sys3.index_of_m(-3)
    assert fplus[row, col] == pytest.approx(math.sqrt(6), abs=1e-12)


@pytest.mark.parametrize("bad", [0, -1, 0.3, 0.26])
def test_build_rejects_bad_spin(bad):
    with pytest.raises(ValueError):
        build_spin_system(bad)


class TestMeasuredObservable:
    def test_hermitian_traceless(self, sys3):
        O = measured_observable(sys3)
        assert np.max(np.abs(O - O.conj().T)) == 0
        assert abs(np.trace(O)) < 1e-12

    def test_stretched_state_expectation_zero(self, sys3):
        rho = make_state(sys3, "basis_state", m=-3)
        assert abs(np.trace(measured_observable(sys3) @ rho)) < 1e-12

    def test_mixed_state_expectation_zero(self, sys3):
        rho = make_state(sys3, "mixed")
        assert abs(np.trace(measured_observable(sys3) @ rho)) < 1e-12

    def test_vanishes_for_spin_half(self):
        s = build_spin_system(0.5)
        assert np.max(np.abs(measured_observable(s))) < 1e-15


class TestHermitianBasis:
    def test_d2_is_normalized_paulis(self):
        s = build_spin_system(0.5)
        basis = hermitian_basis(s)
        r = 1 / math.sqrt(2)
        expected = [
            np.eye(2) * r,
            np.array([[0, 1], [1, 0]]) * r,
            np.array([[0, -1j], [1j, 0]]) * r,
            np.array([[1, 0], [0, -1]]) * r,
        ]
        for got, want in zip(basis, expected):
            assert np.max(np.abs(got - want)) < 1e-15

    def test_gram_is_identity(self, sys3):
        E = hermitian_basis(sys3)
        gram = np.einsum("aij,bij->ab", E.conj(), E)
        assert np.max(np.abs(gram - np.eye(49))) < 1e-12

    @pytest.mark.parametrize("d", range(1, 20))
    def test_maps_define_the_reference_basis(self, d):
        # bit for bit, so the signs of zero entries match too
        want = basis_elements_reference(d).tobytes()
        assert coords_to_state(np.eye(d * d)).tobytes() == want
        if d > 1:
            basis = hermitian_basis(build_spin_system((d - 1) / 2))
            assert basis.tobytes() == want
            assert not basis.flags.writeable

    def test_not_kept_past_its_last_reader(self, sys3):
        basis = weakref.ref(hermitian_basis(sys3))
        gc.collect()
        assert basis() is None

    def test_count_and_tracelessness(self, sys3):
        E = hermitian_basis(sys3)
        assert E.shape == (49, 7, 7)
        assert np.max(np.abs(E[1:].trace(axis1=1, axis2=2))) < 1e-12
        assert np.max(np.abs(E[0] - np.eye(7) / math.sqrt(7))) < 1e-15


class TestCoordinates:
    def test_identity_coords(self, sys3):
        v = state_to_coords(np.eye(7) / 7)
        expected = np.zeros(49)
        expected[0] = 1 / math.sqrt(7)
        assert np.max(np.abs(v - expected)) < 1e-15

    def test_qubit_ground_state(self):
        v = state_to_coords(np.diag([1.0, 0.0]))
        assert np.allclose(v, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15)

    def test_round_trip_and_isometry(self, sys3):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
            m = m + m.conj().T
            v = state_to_coords(m)
            assert np.max(np.abs(coords_to_state(v) - m)) < 1e-12
            assert abs(np.linalg.norm(v) - math.sqrt(np.trace(m @ m).real)) < 1e-12

    def test_batched_maps_match_definition(self):
        rng = np.random.default_rng(6)
        for d in (2, 5):
            basis = basis_elements_reference(d)
            mats = rng.normal(size=(3, 4, d, d)) + 1j * rng.normal(size=(3, 4, d, d))
            # Re Tr[B_a^dag X] for arbitrary, not only Hermitian, matrices
            want = np.einsum("aij,...ij->...a", basis.conj(), mats).real
            got = state_to_coords(mats)
            assert got.shape == (3, 4, d * d)
            assert np.max(np.abs(got - want)) < 1e-12
            back = coords_to_state(got)
            assert np.max(np.abs(back - np.einsum("...a,aij->...ij", got, basis))) < 1e-12
            assert np.array_equal(back, np.swapaxes(back, -1, -2).conj())

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            state_to_coords(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            coords_to_state(np.zeros(5))


class TestTestStates:
    def test_cat_state(self, sys3):
        rho = make_state(sys3, "cat")
        pops = np.diag(rho).real
        assert pops[0] == pytest.approx(0.5, abs=1e-12)
        assert pops[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(pops[1:-1]).max() < 1e-15
        assert rho[0, -1] == pytest.approx(-0.5j, abs=1e-12)  # <+F| rho |-F>
        assert np.linalg.matrix_rank(rho, tol=1e-10) == 1

    def test_mixed_state(self, sys3):
        assert np.max(np.abs(make_state(sys3, "mixed") - np.eye(7) / 7)) < 1e-15

    def test_coherent_at_pole(self, sys3):
        rho = make_state(sys3, "spin_coherent", theta=0.0)
        assert np.max(np.abs(rho - make_state(sys3, "basis_state", m=3))) < 1e-12

    def test_coherent_points_along_target(self, sys3):
        theta, phi = 1.1, 2.4
        rho = make_state(sys3, "spin_coherent", theta=theta, phi=phi)
        direction = np.array(
            [
                np.trace(rho @ sys3.Fx).real,
                np.trace(rho @ sys3.Fy).real,
                np.trace(rho @ sys3.Fz).real,
            ]
        ) / 3.0
        want = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        assert np.max(np.abs(direction - want)) < 1e-12

    def test_all_kinds_are_physical(self, sys3):
        kinds = [
            ("basis_state", {"m": 0}),
            ("spin_coherent", {"theta": 0.7, "phi": 1.2}),
            ("cat", {}),
            ("mixed", {}),
            ("twisted", {"mu": 0.3}),
        ]
        for kind, params in kinds:
            rho = make_state(sys3, kind, **params)
            check_density_matrix(rho, sys3.d)
            if kind != "mixed":
                assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kind, params", [
        ("spin_coherent", {"theta": np.nan}),
        ("spin_coherent", {"theta": 0.5, "phi": np.inf}),
        ("twisted", {"mu": np.nan}),
        ("twisted", {"mu": -np.inf}),
        ("basis_state", {"m": np.nan}),
    ])
    def test_non_finite_parameters_rejected(self, sys3, kind, params):
        # without the check these return a density matrix full of NaN
        with pytest.raises(ValueError, match="non-finite number"):
            make_state(sys3, kind, **params)

    @pytest.mark.parametrize("m", [2.0000000001, 1.9999999999, 0.5, 3.5, 4, "2", True])
    def test_basis_state_reads_m_exactly(self, sys3, m):
        # an m within 1e-9 of a level was rounded onto it: m=2.0000000001 built |m=2>
        with pytest.raises(ValueError):
            make_state(sys3, "basis_state", m=m)
        with pytest.raises(ValueError):
            sys3.index_of_m(m)

    def test_index_of_m(self, sys3):
        assert [sys3.index_of_m(m) for m in (3, 2.0, np.float64(-0.0), -3)] == [0, 1, 3, 6]
        assert build_spin_system(1.5).index_of_m(-0.5) == 2

    def test_errors(self, sys3):
        with pytest.raises(ValueError):
            make_state(sys3, "basis_state", m=4)
        with pytest.raises(ValueError):
            make_state(sys3, "nonsense")
        with pytest.raises(ValueError):
            make_state(sys3, "cat", m=1)


def test_check_density_matrix_rejects(sys3):
    good = make_state(sys3, "mixed")
    check_density_matrix(good)
    with pytest.raises(ValueError, match="Hermitian"):
        bad = good.copy()
        bad[0, 1] = 0.5
        check_density_matrix(bad)
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(good * 2)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        check_density_matrix(np.diag([1.2, -0.2]).astype(complex))
    for bad_value in (np.nan, np.inf):
        bad = good.copy()
        bad[1, 1] = bad_value
        with pytest.raises(ValueError, match="non-finite"):
            check_density_matrix(bad)


def test_random_density_helper_is_physical(sys3):
    rng = np.random.default_rng(0)
    for rank in (1, 3, 7):
        check_density_matrix(random_density(rng, 7, rank))
