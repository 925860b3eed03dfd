import gc
import math
import weakref

import numpy as np
import pytest

try:
    from scipy.special import sph_harm_y as _sph

    def reference_harmonic(k, q, theta, phi):
        return _sph(k, q, theta, phi)

except ImportError:  # scipy < 1.15
    from scipy.special import sph_harm as _sph

    def reference_harmonic(k, q, theta, phi):
        return _sph(q, k, phi, theta)

from helpers import (harmonic_norm, legendre_table, random_density, wigner_csv_reference,
                     wigner_reference)
from spintomo import (
    WignerGrid,
    build_spin_system,
    multipole_operators,
    wigner_function,
    wigner_integral,
    write_wigner_csv,
)
from spintomo import test_state as make_state
from spintomo import wigner


class TestMultipoles:
    def test_orthonormal_and_complete(self, sys3):
        mp = multipole_operators(sys3)
        ops = [mp[k][q] for k in range(7) for q in range(-k, k + 1)]
        assert len(ops) == 49
        gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
        assert np.max(np.abs(gram - np.eye(49))) < 1e-10

    def test_scalar_is_normalized_identity(self, sys3):
        mp = multipole_operators(sys3)
        assert np.max(np.abs(mp[0][0] - np.eye(7) / math.sqrt(7))) < 1e-14

    def test_dipole_proportional_to_fz(self, sys3):
        mp = multipole_operators(sys3)
        c = math.sqrt(3.0 / (3 * 4 * 7))  # sqrt(3/(F(F+1)(2F+1)))
        assert np.max(np.abs(mp[1][0] - c * sys3.Fz)) < 1e-12

    def test_adjoint_symmetry(self, sys3):
        mp = multipole_operators(sys3)
        for k in (1, 3, 6):
            for q in range(-k, k + 1):
                lhs = mp[k][q].conj().T
                rhs = (-1) ** q * mp[k][-q]
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def _commutator(a, x):
    return a @ x - x @ a


def _gram_defect(mp, d):
    """max |Gram - I| over the table. Each T_kq must sit on the q-th diagonal alone, which
    makes operators of different q orthogonal, so the Gram matrix is one block per q."""
    worst = 0.0
    for q in range(1 - d, d):
        ops = np.array([mp[k][q] for k in range(abs(q), d)])
        assert not np.any(ops - [np.diag(np.diagonal(T, q), q) for T in ops]), q
        flat = ops.reshape(len(ops), -1)
        worst = max(worst, np.max(np.abs(flat.conj() @ flat.T - np.eye(len(ops)))))
    return worst


def _casimir_defect(sys_, T, k):
    """max |sum_i [F_i, [F_i, T]] - k(k+1) T| relative to k(k+1), for one or a stack of T."""
    C = sum(_commutator(A, _commutator(A, T)) for A in (sys_.Fx, sys_.Fy, sys_.Fz))
    return np.max(np.abs(C - k * (k + 1) * T)) / max(k * (k + 1), 1)


def _check_sign_rule(sys_, mp):
    # T_00 = I / sqrt(d), then each T_k0 has the phase that makes Tr(T_k0 Fz T_k-1,0) > 0
    assert np.max(np.abs(mp[0][0] - np.eye(sys_.d) / math.sqrt(sys_.d))) < 1e-15
    for k in range(1, sys_.d):
        t = np.trace(mp[k][0] @ sys_.Fz @ mp[k - 1][0])
        assert t.real > 0 and t.imag == 0, k


@pytest.mark.parametrize("F", [0.5, 1, 1.5, 3, 8, 16])
def test_table_has_its_defining_properties(F):
    # Gram = I, [Fz, T_kq] = q T_kq, [F+, T_kq] = sqrt(k(k+1) - q(q+1)) T_k,q+1, the Casimir
    # eigenvalue k(k+1) and the sign rule fix the table uniquely
    sys_ = build_spin_system(F)
    d, mp = sys_.d, multipole_operators(sys_)
    assert _gram_defect(mp, d) < 1e-14
    fplus = sys_.Fx + 1j * sys_.Fy
    for k in range(d):
        T = np.array([mp[k][q] for q in range(-k, k + 1)])
        qs = np.arange(-k, k + 1)[:, None, None]
        assert np.max(np.abs(_commutator(sys_.Fz, T) - qs * T)) < 1e-13, k
        raised = np.sqrt(k * (k + 1) - qs * (qs + 1)) * np.concatenate((T[1:], np.zeros((1, d, d))))
        assert np.max(np.abs(_commutator(fplus, T) - raised)) < 1e-13, k
        assert _casimir_defect(sys_, T, k) < 1e-13, k
    _check_sign_rule(sys_, mp)


def test_table_is_not_kept_past_its_last_reader(sys3):
    tensor = weakref.ref(multipole_operators(sys3)[2][1])
    gc.collect()
    assert tensor() is None


def test_table_at_the_largest_spin():
    sys_ = build_spin_system(32)
    # the F = 32 table holds 285 MB, freed when this test returns
    mp = wigner._multipole_operators(sys_.d)
    assert _gram_defect(mp, sys_.d) < 1e-14
    for k in range(sys_.d):
        assert _casimir_defect(sys_, mp[k][0], k) < 1e-13, k
    _check_sign_rule(sys_, mp)
    rho = random_density(np.random.default_rng(32), sys_.d)
    assert wigner_integral(rho) == pytest.approx(1.0, abs=1e-13)

def test_spherical_harmonics_match_scipy():
    thetas = np.linspace(0.05, np.pi - 0.05, 9)
    phis = np.array([0.0, 0.7, 2.9, 5.5])
    P = legendre_table(6, np.cos(thetas))
    for k in range(7):
        for q in range(k + 1):
            mine = (
                harmonic_norm(k, q)
                * P[k, q][:, None]
                * np.exp(1j * q * phis)[None, :]
            )
            ref = reference_harmonic(k, q, thetas[:, None], phis[None, :])
            assert np.max(np.abs(mine - ref)) < 1e-12, (k, q)


@pytest.mark.parametrize("F", [0.5, 1, 1.5, 3, 5, 8])
def test_kernel_form_matches_multipole_expansion(F):
    sys_ = build_spin_system(F)
    rho = random_density(np.random.default_rng(int(2 * F)), sys_.d)
    grid = wigner_function(rho, n_theta=37, n_phi=48)
    assert grid.thetas[0] == 0.0 and grid.thetas[-1] == np.pi
    assert np.max(np.abs(grid.values - wigner_reference(rho, sys_, grid.thetas, grid.phis))) < 1e-14


def test_evaluation_never_builds_the_multipole_table(sys3, monkeypatch):
    def refuse(d):
        raise AssertionError("the d^4 multipole table was built")

    monkeypatch.setattr(wigner, "_multipole_operators", refuse)
    rho = make_state(sys3, "cat")
    assert wigner_function(rho, 16, 16).values.shape == (16, 16)
    assert wigner_integral(rho) == pytest.approx(1.0, abs=1e-12)


class TestWignerFunction:
    def test_mixed_state_is_flat(self, sys3):
        grid = wigner_function(make_state(sys3, "mixed"), 32, 32)
        assert np.max(np.abs(grid.values - 1 / (4 * np.pi))) < 1e-14

    def test_normalization(self, sys3):
        rng = np.random.default_rng(40)
        states = [
            make_state(sys3, "basis_state", m=3),
            make_state(sys3, "cat"),
            make_state(sys3, "twisted", mu=0.5),
            random_density(rng, 7),
        ]
        for rho in states:
            assert wigner_integral(rho) == pytest.approx(1.0, abs=1e-6)

    def test_stretched_state_peaks_at_pole(self, sys3):
        grid = wigner_function(make_state(sys3, "basis_state", m=3), 181, 360)
        row, _ = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.thetas[row] == 0.0
        # fine-grid oracle: no value anywhere beats the polar value
        fine = wigner_function(make_state(sys3, "basis_state", m=3), 721, 720)
        assert fine.values.max() <= grid.values[row].max() + 1e-9

    def test_cat_state_structure(self, sys3):
        grid = wigner_function(make_state(sys3, "cat"), 181, 360)
        # antipodal lobes
        assert grid.values[0].max() > 0.5
        assert grid.values[-1].max() > 0.5
        # equatorial interference: 2F azimuthal periods = 12 sign changes
        equator = grid.values[90]
        changes = int(np.sum(np.signbit(equator) != np.signbit(np.roll(equator, 1))))
        assert changes == 12

    def test_z_rotation_covariance(self, sys3):
        n_phi = 360
        shift = 25
        alpha = 2 * np.pi * shift / n_phi
        rho = make_state(sys3, "twisted", mu=0.4)
        U = np.diag(np.exp(-1j * alpha * sys3.m_values))
        rotated = wigner_function(U @ rho @ U.conj().T, 61, n_phi)
        base = wigner_function(rho, 61, n_phi)
        assert np.max(np.abs(rotated.values - np.roll(base.values, shift, axis=1))) < 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(41)
        a, b = random_density(rng, 7), random_density(rng, 7)
        lam = 0.3
        mix = wigner_function(lam * a + (1 - lam) * b, 24, 24)
        wa = wigner_function(a, 24, 24)
        wb = wigner_function(b, 24, 24)
        assert np.max(np.abs(mix.values - lam * wa.values - (1 - lam) * wb.values)) < 1e-10

    def test_values_are_exactly_real(self, sys3):
        grid = wigner_function(make_state(sys3, "cat"), 16, 16)
        assert grid.values.dtype == np.float64

    def test_input_validation(self, sys3):
        with pytest.raises(ValueError):
            wigner_function(np.diag([1.2, -0.2, 0, 0, 0, 0, 0]).astype(complex))
        with pytest.raises(ValueError, match="field n_theta: must be at least 8"):
            wigner_function(make_state(sys3, "mixed"), 4, 64)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 6)], ids=["1x1", "non_square"])
    def test_spin_size_is_the_state_size(self, shape):
        # np.eye(1) is a valid density matrix, but of no spin
        rho = np.eye(*shape, dtype=complex)
        with pytest.raises(ValueError, match="d >= 2|square"):
            wigner_function(rho)
        with pytest.raises(ValueError, match="d >= 2|square"):
            wigner_integral(rho)

    @pytest.mark.parametrize("n_theta, n_phi", [(0, 128), (7, 128), (64, 0), (64, 7)])
    def test_integral_grid_sizes_checked(self, sys3, n_theta, n_phi):
        name = "n_theta" if n_theta < 8 else "n_phi"
        with pytest.raises(ValueError, match=f"field {name}: must be at least 8"):
            wigner_integral(make_state(sys3, "mixed"), n_theta, n_phi)


def test_csv_export(sys3, tmp_path):
    grid = wigner_function(make_state(sys3, "mixed"), 10, 12)
    path = tmp_path / "wigner.csv"
    write_wigner_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# n_theta=10"
    assert lines[1] == "# n_phi=12"
    assert lines[2].startswith("# convention=")
    assert lines[3] == "theta,phi,value"
    assert len(lines) == 4 + 10 * 12
    theta, phi, value = lines[4].split(",")
    assert float(theta) == 0.0 and float(phi) == 0.0
    assert float(value) == pytest.approx(1 / (4 * np.pi), abs=1e-12)


@pytest.mark.parametrize("F", [1, 3, 5])
@pytest.mark.parametrize("n_theta, n_phi", [(8, 8), (9, 11), (19, 36), (181, 360)])
def test_csv_bytes_match_per_number_reference(tmp_path, F, n_theta, n_phi):
    rho = random_density(np.random.default_rng(F), 2 * F + 1)
    # 181 x 360 is the default grid
    sizes = {} if (n_theta, n_phi) == (181, 360) else {"n_theta": n_theta, "n_phi": n_phi}
    grid = wigner_function(rho, **sizes)
    assert (grid.n_theta, grid.n_phi) == (n_theta, n_phi)
    path = tmp_path / "wigner.csv"
    write_wigner_csv(grid, path)
    assert path.read_bytes() == wigner_csv_reference(grid)


@pytest.mark.parametrize("n_theta, n_phi", [(0, 0), (3, 0), (0, 4)])
def test_csv_of_empty_grid_is_its_header(tmp_path, n_theta, n_phi):
    grid = WignerGrid(np.linspace(0.0, 1.0, n_theta), np.linspace(0.0, 1.0, n_phi),
                      np.zeros((n_theta, n_phi)))
    path = tmp_path / "wigner.csv"
    write_wigner_csv(grid, path)
    assert path.read_bytes() == wigner_csv_reference(grid)
    assert len(path.read_text().splitlines()) == 4


@pytest.mark.parametrize("field", ["thetas", "phis", "values"])
@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_csv_of_non_finite_grid_raises_and_writes_nothing(sys3, tmp_path, field, bad):
    grid = wigner_function(make_state(sys3, "cat"), n_theta=9, n_phi=11)
    arrays = {"thetas": grid.thetas.copy(), "phis": grid.phis.copy(), "values": grid.values.copy()}
    arrays[field].flat[-1] = bad
    path = tmp_path / "wigner.csv"
    with pytest.raises(ValueError, match=f"non-finite number {bad!r}"):
        write_wigner_csv(WignerGrid(**arrays), path)
    assert not path.exists()
