import numpy as np
import pytest

from helpers import fidelity_reference, haar_unitary, random_density, random_pure
from spintomo import fidelity, max_eigenvalue, purity, trace_distance
from spintomo.metrics import _fidelities
from spintomo import test_state as make_state


def test_self_fidelity(sys3):
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = random_density(rng, 7)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_pure_vs_mixed(sys3):
    rho = make_state(sys3, "basis_state", m=3)
    assert fidelity(rho, make_state(sys3, "mixed")) == pytest.approx(1 / 7, abs=1e-12)


def test_orthogonal_pure_states(sys3):
    a = make_state(sys3, "basis_state", m=3)
    b = make_state(sys3, "basis_state", m=-3)
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_symmetry(sys3):
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = random_density(rng, 7), random_density(rng, 7, rank=2)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)


def test_pure_state_reduction(sys3):
    rng = np.random.default_rng(4)
    for _ in range(10):
        psi = random_pure(rng, 7)
        rho = random_density(rng, 7)
        overlap = np.trace(psi @ rho).real
        assert fidelity(psi, rho) == pytest.approx(overlap, abs=1e-10)


def test_unitary_invariance(sys3):
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b = random_density(rng, 7), random_density(rng, 7)
        U = haar_unitary(rng, 7)
        assert fidelity(U @ a @ U.conj().T, U @ b @ U.conj().T) == pytest.approx(
            fidelity(a, b), abs=1e-10
        )


def test_fuchs_van_de_graaf(sys3):
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = random_density(rng, 7, rank=int(rng.integers(1, 8)))
        b = random_density(rng, 7, rank=int(rng.integers(1, 8)))
        fid = fidelity(a, b)
        t = trace_distance(a, b)
        assert 1 - np.sqrt(fid) <= t + 1e-10
        assert t <= np.sqrt(1 - fid) + 1e-10


def test_purity_and_max_eigenvalue(sys3):
    mixed = make_state(sys3, "mixed")
    assert purity(mixed) == pytest.approx(1 / 7, abs=1e-12)
    assert max_eigenvalue(mixed) == pytest.approx(1 / 7, abs=1e-12)
    pure = make_state(sys3, "cat")
    assert purity(pure) == pytest.approx(1.0, abs=1e-10)
    assert max_eigenvalue(pure) == pytest.approx(1.0, abs=1e-10)


def test_dimension_mismatch_rejected():
    a = np.eye(2) / 2
    b = np.eye(3) / 3
    for fn in (fidelity, trace_distance):
        with pytest.raises(ValueError):
            fn(a, b)


def test_nonphysical_input_rejected():
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        fidelity(bad, np.eye(2) / 2)


def test_small_negative_eigenvalues_are_clipped():
    eps = 5e-11  # inside the tolerance band, must not raise
    rho = np.diag([1.0 + eps, -eps]).astype(complex)
    assert fidelity(rho, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-9)


def test_batched_fidelities_match_fidelity_bitwise():
    # sqrt(rho_a) is taken once per stack; each entry must still be the
    # batch-of-one value, and the one-pair reference, to the bit. The squared
    # trace goes through libm's pow, which differs from x * x in the last bit
    # for about 1 in 1200 doubles; the 3600 values here include such cases.
    rng = np.random.default_rng(8)
    for trial in range(400):
        d = 2 + trial % 16
        a = random_pure(rng, d) if trial % 4 == 0 else random_density(rng, d, rank=1 + trial % d)
        stack = np.stack([a] + [random_density(rng, d, rank=1 + k % d) for k in range(1, 9)])
        expected = [fidelity_reference(a, b) for b in stack]
        assert _fidelities(a, stack) == [fidelity(a, b) for b in stack] == expected
    assert _fidelities(a, np.zeros((0, d, d))) == []


def test_batched_fidelities_reject_a_non_positive_member(sys3):
    rho = make_state(sys3, "cat")
    stack = np.stack([rho, np.diag([1.5, -0.5, 0, 0, 0, 0, 0]).astype(complex)])
    with pytest.raises(ValueError, match="not positive"):
        _fidelities(np.eye(7) / 7, stack)
