"""Piecewise-constant control dynamics for a probed spin.

A :class:`ControlWaveform` describes the drive: a magnetic field of fixed
magnitude rotating in the x-y plane (angle ``phi`` per segment, Larmor rate
``omega_larmor``) plus the constant nonlinear term ``chi * Fx^2`` and an
optional Lindblad channel at rate ``gamma_dec``. States evolve in the
Schrodinger picture with :func:`propagate_state`; the probed observable
evolves in the Heisenberg picture with :func:`heisenberg_history`, which
keeps each evolved O_i only as its basis coordinates: one row of the
design matrix used for estimation.

The decoherence channel is a preset name from ``JUMP_PRESETS``:
"isotropic" (jump operators Fx, Fy and Fz) or "none".

Both run one kernel, which accumulates the propagator from t_0 to every
sample time and applies it in the requested picture, for a batch of
waveforms that differ only in ``omega_larmor`` and ``chi``
(:func:`heisenberg_histories`; one history is the batch of one). Closed
evolution (``ControlWaveform.closed``: ``gamma_dec`` = 0 or the "none"
preset) keeps the d x d unitaries U_i, from one Hermitian eigendecomposition
per segment; then O_i = U_i^dag O U_i and rho_i = U_i rho U_i^dag for all
samples in one batched product. Open evolution keeps a real d^2 x d^2
transfer map on the coordinates of the Hermitian operator basis, with one
exact exponential of the Lindblad generator per segment: :func:`expm`, the
degree-13 Pade approximant with scaling and squaring, in numpy, one call
per segment for the batch. The generator is linear in the drive: four
parts (the commutators with Fx, Fy and Fx^2, and the dissipator) are cached
per (d, gamma_dec), and each segment's generator is their
combination omega cos(phi) C_x + omega sin(phi) C_y + chi C_xx + D.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import serialize
from .spin_algebra import (
    SpinSystem,
    _unitary,
    build_spin_system,
    check_density_matrix,
    coords_to_state,
    hermitian_basis,
    is_hermitian,
    state_to_coords,
)

__all__ = [
    "ControlWaveform",
    "ObservableHistory",
    "sample_times",
    "propagate_state",
    "heisenberg_history",
    "heisenberg_histories",
]

JUMP_PRESETS = ("isotropic", "none")


@dataclass(frozen=True, eq=False)
class ControlWaveform:
    """Piecewise-constant control schedule.

    ``phi`` holds one field angle (radians, x-y plane) per segment of
    length ``dt``; ``omega_larmor`` is the Larmor rate of the transverse
    field, ``chi`` the strength of the Fx^2 term, and ``gamma_dec`` the
    rate of the decoherence channel named by ``jump_ops``, one of
    ``JUMP_PRESETS``.
    """

    n_steps: int
    dt: float
    phi: tuple[float, ...]
    omega_larmor: float
    chi: float
    gamma_dec: float = 0.0
    jump_ops: str = "isotropic"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("waveform needs at least one segment")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and positive")
        phi = tuple(float(p) for p in self.phi)
        if len(phi) != self.n_steps:
            raise ValueError(f"phi has {len(phi)} entries for {self.n_steps} segments")
        if not all(map(math.isfinite, phi)):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", phi)
        for name in ("omega_larmor", "chi", "gamma_dec"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not isinstance(self.jump_ops, str) or self.jump_ops not in JUMP_PRESETS:
            raise ValueError(f"jump_ops must be one of {', '.join(JUMP_PRESETS)}")

    @property
    def closed(self) -> bool:
        """Whether the evolution is unitary: no decoherence rate, or the "none" preset."""
        return self.gamma_dec == 0 or self.jump_ops == "none"

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def with_scales(self, omega_scale: float = 1.0, chi_scale: float = 1.0) -> "ControlWaveform":
        """Copy with the Larmor and nonlinear rates multiplied by scale factors."""
        return replace(
            self,
            omega_larmor=self.omega_larmor * omega_scale,
            chi=self.chi * chi_scale,
        )

    def fingerprint(self) -> str:
        """Content hash identifying this waveform (16 hex chars)."""
        parts = [
            "spintomo.waveform/1",
            f"n_steps={self.n_steps}",
            f"dt={serialize.format_float(self.dt)}",
            "phi=" + ",".join(serialize.format_float(p) for p in self.phi),
            f"omega_larmor={serialize.format_float(self.omega_larmor)}",
            f"chi={serialize.format_float(self.chi)}",
            f"gamma_dec={serialize.format_float(self.gamma_dec)}",
            f"jumps={self.jump_ops}",
        ]
        digest = hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()
        return digest[:16]


# Pade-13 numerator coefficients and the 1-norm up to which the approximant
# is accurate to double precision without scaling (Higham, SIAM J. Matrix
# Anal. Appl. 26, 1179, 2005, table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real square matrix, or of each matrix of a (..., n, n) stack.

    Scaling and squaring with the degree-13 Pade approximant (Higham 2005):
    A is divided by 2^s so its 1-norm is at most theta_13, r_13 is formed
    from A^2, A^4 and A^6 with one linear solve, and the result is squared
    s times. Each matrix of a stack has its own s, so its result is bitwise
    the one it gets alone.
    """
    A = np.asarray(A, dtype=float)
    norms = np.linalg.norm(A, 1, axis=(-2, -1))
    s = np.reshape([math.ceil(math.log2(n / _THETA13)) if n > _THETA13 else 0
                    for n in norms.flat], norms.shape)
    A = A / (2.0**s)[..., None, None]
    b = _PADE13
    ident = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for j in range(s.max(initial=0)):
        R = R @ R if (s > j).all() else np.where((s > j)[..., None, None], R @ R, R)
    return R


@lru_cache(maxsize=4)  # bounded: the parts of one F = 32 key take 570 MB
def _generator_parts(d: int, gamma_dec: float) -> tuple[np.ndarray, ...]:
    """Read-only real d^2 x d^2 generators on basis coordinates, one per drive term.

    -i[H, .] for H = Fx, Fy and Fx^2, then -i[0, .] plus the isotropic dissipator
    gamma_dec sum_A (A . A^dag - {A^dag A, .} / 2) over A = Fx, Fy, Fz. Column b holds
    the coordinates of the image of basis element B_b; trace preservation makes the
    top row zero.
    """
    sys = build_spin_system((d - 1) / 2)
    B = hermitian_basis(sys)
    jumps = (sys.Fx, sys.Fy, sys.Fz)
    parts = []
    for H in (sys.Fx, sys.Fy, sys.Fx @ sys.Fx, np.zeros((d, d), dtype=complex)):
        LB = -1j * (H @ B - B @ H)
        if len(parts) == 3:  # the zero-H commutator carries the dissipator
            K = sum(A.conj().T @ A for A in jumps)
            diss = sum(A @ B @ A.conj().T for A in jumps)
            LB = LB + gamma_dec * (diss - 0.5 * (K @ B + B @ K))
        parts.append(np.ascontiguousarray(state_to_coords(LB).T))
        parts[-1].setflags(write=False)
    return tuple(parts)


def _hamiltonian(sys: SpinSystem, waveform: ControlWaveform, step_index: int) -> np.ndarray:
    """Hamiltonian of segment ``step_index``: field term plus chi * Fx^2."""
    angle = waveform.phi[step_index]
    H = waveform.omega_larmor * (np.cos(angle) * sys.Fx + np.sin(angle) * sys.Fy)
    if waveform.chi:
        H = H + waveform.chi * (sys.Fx @ sys.Fx)
    return H


def _segment_generators(parts, waveforms, step_index: int) -> np.ndarray:
    """Stacked Lindblad generators of segment ``step_index``, one per waveform."""
    c_x, c_y, c_xx, diss = parts
    angle = waveforms[0].phi[step_index]
    omega, chi = np.array([(w.omega_larmor, w.chi) for w in waveforms]).T[:, :, None, None]
    return omega * np.cos(angle) * c_x + omega * np.sin(angle) * c_y + chi * c_xx + diss


def sample_times(waveform: ControlWaveform, n_samples: int) -> np.ndarray:
    """Uniform sample grid t_i = i * duration / n_samples, starting at 0."""
    _samples_per_step(waveform, n_samples)
    return np.arange(n_samples) * (waveform.duration / n_samples)


def _samples_per_step(waveform: ControlWaveform, n_samples: int) -> int:
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if n_samples % waveform.n_steps != 0:
        raise ValueError(
            f"n_samples={n_samples} must be a multiple of n_steps={waveform.n_steps} "
            "so every sample interval lies inside one segment"
        )
    return n_samples // waveform.n_steps


def _interval_propagators(sys: SpinSystem, waveforms, n_samples: int, per_step: int):
    """Propagators over the n_samples - 1 sample intervals, in order, stacked over the waveforms.

    One exponential per segment and waveform: d x d unitaries under closed
    evolution, otherwise the real d^2 x d^2 exponentials of the Lindblad
    generators, in one batched :func:`expm` call.
    """
    first = waveforms[0]
    dt = first.dt / per_step
    parts = None if first.closed else _generator_parts(sys.d, first.gamma_dec)
    for i in range(n_samples - 1):
        if i % per_step == 0:
            k = i // per_step
            if parts:
                step = expm(_segment_generators(parts, waveforms, k) * dt)
            else:
                step = np.stack([_unitary(_hamiltonian(sys, w, k), dt) for w in waveforms])
        yield step


def _evolve(
    sys: SpinSystem, waveforms, n_samples: int, op: np.ndarray, heisenberg: bool
) -> np.ndarray:
    """Coordinates of ``op`` evolved to every sample time under each waveform, shape (B, N, d^2).

    Schrodinger picture (rho_i) or, with ``heisenberg``, the adjoint
    picture (O_i). Row 0 is the coordinate vector of ``op`` itself. The B
    waveforms may differ only in ``omega_larmor`` and ``chi``.
    """
    if len({(w.n_steps, w.dt, w.phi, w.gamma_dec, w.jump_ops) for w in waveforms}) != 1:
        raise ValueError("need one or more waveforms that differ only in omega_larmor and chi")
    per_step = _samples_per_step(waveforms[0], n_samples)
    steps = _interval_propagators(sys, waveforms, n_samples, per_step)
    if not waveforms[0].closed:
        # the cumulative transfer maps are applied as they grow, so only one
        # d^2 x d^2 map per waveform is held at a time
        coords = np.empty((len(waveforms), n_samples, sys.d * sys.d))
        coords[:, 0] = state_to_coords(op)
        transfer = np.eye(sys.d * sys.d)
        for i, step in enumerate(steps, start=1):
            transfer = step @ transfer
            coords[:, i] = coords[0, 0] @ transfer if heisenberg else transfer @ coords[0, 0]
        return coords
    U = np.empty((len(waveforms), n_samples, sys.d, sys.d), dtype=complex)
    U[:, 0] = np.eye(sys.d)
    for i, step in enumerate(steps, start=1):
        U[:, i] = step @ U[:, i - 1]
    Ud = U.conj().swapaxes(-1, -2)
    return state_to_coords(Ud @ op @ U if heisenberg else U @ op @ Ud)


def propagate_state(
    rho0: np.ndarray,
    sys: SpinSystem,
    waveform: ControlWaveform,
    n_samples: int = 150,
) -> list[np.ndarray]:
    """Schrodinger-picture states at every sample time (element 0 is rho0)."""
    rho0 = check_density_matrix(rho0, sys.d)
    states = coords_to_state(_evolve(sys, [waveform], n_samples, rho0, heisenberg=False)[0])
    states[0] = rho0
    return list(states)


@dataclass(frozen=True, eq=False)
class ObservableHistory:
    """Heisenberg-evolved observables {O_i}, held as their design matrix.

    Row i of ``design_matrix`` is the coordinate vector of O_i, so
    Tr[O_i rho] = design_matrix[i] @ coords(rho) for any state rho.
    """

    times: np.ndarray
    design_matrix: np.ndarray  # (N, d*d) real
    waveform_fingerprint: str

    def __post_init__(self):
        if self.design_matrix.ndim != 2 or self.design_matrix.shape[0] != len(self.times):
            raise ValueError("times and design matrix lengths disagree")
        if self.d * self.d != self.design_matrix.shape[1]:
            raise ValueError("design matrix width must be d^2")
        for arr in (self.times, self.design_matrix):
            arr.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def d(self) -> int:
        return math.isqrt(self.design_matrix.shape[1])


def heisenberg_history(
    sys: SpinSystem,
    waveform: ControlWaveform,
    observable: np.ndarray,
    n_samples: int = 150,
) -> ObservableHistory:
    """Adjoint-propagate an observable over the sample grid.

    The returned O_i satisfy Tr[O_i rho0] = Tr[O rho(t_i)] for every
    initial state, with rho(t) the Schrodinger-picture evolution under the
    same waveform.
    """
    return heisenberg_histories(sys, [waveform], observable, n_samples)[0]


def heisenberg_histories(
    sys: SpinSystem, waveforms, observable: np.ndarray, n_samples: int = 150
) -> list[ObservableHistory]:
    """:func:`heisenberg_history` under each of a batch of waveforms, in one pass of the kernel.

    The waveforms may differ only in ``omega_larmor`` and ``chi``, as the
    trial points of a nuisance search do. Each history is bitwise equal to
    the one its waveform gets alone.
    """
    observable = np.asarray(observable, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(observable))) if observable.size else 1.0)
    if observable.shape != (sys.d, sys.d) or not is_hermitian(observable, tol=1e-10 * scale):
        raise ValueError("observable must be a Hermitian d x d matrix")
    designs = _evolve(sys, waveforms, n_samples, observable, heisenberg=True)
    times = sample_times(waveforms[0], n_samples)
    return [ObservableHistory(times, D, w.fingerprint()) for w, D in zip(waveforms, designs)]
