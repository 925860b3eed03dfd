import numpy as np
import pytest

from spintomo import (
    ControlWaveform,
    build_spin_system,
    heisenberg_history,
    measured_observable,
)
from spintomo.rand import uniform_angles

# Calibrated defaults shared by the estimator tests and the acceptance
# suite: a 30-segment, 1.5 ms schedule whose design matrix is full rank
# with most of the information collected well before the record ends, and
# the noise level that puts single-record mean fidelity near 0.87.
DEFAULT_PHI_SEED = 10
DEFAULT_OMEGA = 2 * np.pi * 10_000.0
DEFAULT_CHI = 2 * np.pi * 6_000.0
DEFAULT_N_STEPS = 30
DEFAULT_DT = 5e-5
DEFAULT_N_SAMPLES = 150
CALIBRATED_SIGMA = 0.9


def make_waveform(gamma_dec: float = 0.0, phi_seed: int = DEFAULT_PHI_SEED, **overrides):
    kwargs = dict(
        n_steps=DEFAULT_N_STEPS,
        dt=DEFAULT_DT,
        phi=tuple(uniform_angles(phi_seed, DEFAULT_N_STEPS)),
        omega_larmor=DEFAULT_OMEGA,
        chi=DEFAULT_CHI,
        gamma_dec=gamma_dec,
    )
    kwargs.update(overrides)
    return ControlWaveform(**kwargs)


@pytest.fixture(scope="session")
def sys3():
    return build_spin_system(3)


@pytest.fixture(scope="session")
def default_waveform():
    return make_waveform()


@pytest.fixture(scope="session")
def default_history(sys3, default_waveform):
    observable = measured_observable(sys3)
    return heisenberg_history(default_waveform, observable, n_samples=DEFAULT_N_SAMPLES)


@pytest.fixture(scope="session")
def paper_states(sys3):
    from spintomo import test_state

    return [
        ("m=-3", test_state(sys3, "basis_state", m=-3)),
        ("cat", test_state(sys3, "cat")),
        ("mixed", test_state(sys3, "mixed")),
    ]
