"""Piecewise-constant control dynamics for a probed spin.

A :class:`ControlWaveform` describes the drive: a magnetic field of fixed
magnitude rotating in the x-y plane (angle ``phi`` per segment, Larmor rate
``omega_larmor``) plus the constant nonlinear term ``chi * Fx^2`` and the
isotropic Lindblad channel (jump operators Fx, Fy and Fz) at rate
``gamma_dec``. States evolve in the Schrodinger picture with
:func:`propagate_state`; the probed observable evolves in the Heisenberg
picture with :func:`heisenberg_history`, which keeps each evolved O_i only
as its basis coordinates: one row of the design matrix used for estimation.
Neither takes a spin system: a d x d state or observable is of spin
F = (d - 1) / 2. An :class:`ObservableHistory` holds the waveform it was
built from and its design matrix, and derives everything else from them.

Both run one kernel, which tells closed from open evolution once, then
accumulates the propagator from t_0 to every sample time and applies it in the
requested picture, for a batch of waveforms that share ``n_steps``, ``dt`` and
``gamma_dec`` (:func:`heisenberg_histories`; one history is the batch of one).
Closed evolution (``ControlWaveform.closed``: ``gamma_dec`` = 0) keeps the
d x d unitaries U_i: every segment Hamiltonian of the batch is one array,
exponentiated by one stacked Hermitian eigendecomposition; then O_i = U_i^dag O
U_i and rho_i = U_i rho U_i^dag in one batched product. Open evolution keeps a
real d^2 x d^2 transfer map on the coordinates of the Hermitian operator basis,
with one exact exponential of the Lindblad generator per segment: :func:`expm`,
the degree-16 Taylor series in Paterson-Stockmeyer form with scaling and
squaring and no linear solve. One call takes a stack of consecutive segments
for the batch, as many as keep its work within a fixed cache-sized budget and
at least one, each matrix bitwise what it gets alone. The generator is linear
in the drive: four parts (the commutators with Fx, Fy and Fx^2, and the
dissipator) are cached as one array for the last (d, gamma_dec), and one
product gives omega cos(phi) C_x + omega sin(phi) C_y + chi C_xx + D for each
waveform.
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
    _spin_of,
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

@dataclass(frozen=True, eq=False)
class ControlWaveform:
    """Piecewise-constant control schedule.

    ``phi`` holds one field angle (radians, x-y plane) for each of the
    ``n_steps`` segments (an integer >= 1) of length ``dt``; ``omega_larmor``
    is the Larmor rate of the transverse field, ``chi`` the strength of the
    Fx^2 term, and ``gamma_dec`` the rate of the isotropic decoherence channel.
    Each is read by the document rules of :mod:`spintomo.serialize`: the
    rates are finite numbers of at least 0, ``dt`` a positive one.
    """

    n_steps: int
    dt: float
    phi: tuple[float, ...]
    omega_larmor: float
    chi: float
    gamma_dec: float = 0.0

    def __post_init__(self):
        n_steps = serialize.integer(self.n_steps, "n_steps", 1)
        dt = serialize.number(self.dt, "dt", 0)
        if dt == 0:
            raise serialize.DocumentError("dt must be positive", "dt")
        phi = serialize.numeric_array(self.phi, "phi", 1)
        if len(phi) != n_steps:
            raise ValueError(f"phi has {len(phi)} entries for {n_steps} segments")
        # every field holds a plain int or float, as a config's fields read back
        vars(self).update(n_steps=n_steps, dt=dt, phi=tuple(phi.tolist()),
                          **{name: serialize.number(getattr(self, name), name, 0)
                             for name in ("omega_larmor", "chi", "gamma_dec")})

    @property
    def closed(self) -> bool:
        """Whether the evolution is unitary: no decoherence rate."""
        return self.gamma_dec == 0

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def with_scales(self, omega_scale: float = 1.0, chi_scale: float = 1.0) -> "ControlWaveform":
        """Copy with the Larmor and nonlinear rates multiplied by scale factors of at least 0."""
        return replace(
            self,
            omega_larmor=self.omega_larmor * serialize.number(omega_scale, "omega_scale", 0),
            chi=self.chi * serialize.number(chi_scale, "chi_scale", 0),
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
            "jumps=isotropic",  # the one channel, kept so every fingerprint stays the same
        ]
        digest = hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()
        return digest[:16]


# Taylor coefficients 1/k!, row j holding k = 4j..4j+3, and the 1-norm up to which the degree-16
# series is accurate to double precision (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011)
_TAYLOR16 = np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)] for j in range(4)])
_THETA16 = 0.78
# bytes of work one expm call may take (ten matrices per input): 2 MiB, the per-core L2 cache
# of the 2-vCPU x86 machine the stacking was measured on. A single F = 3 history then takes
# ten segments per call; a 9-waveform batch and every F >= 5 history take one.
_EXPM_WORK_BYTES = 2 * 1024 * 1024
# bytes of one kernel call's (B, N, d, d) complex propagators; heisenberg_histories slices past it
_BATCH_BYTES = 4 * 1024 * 1024


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real square matrix, or of each matrix of a (..., n, n) stack.

    Scaling and squaring with the degree-16 Taylor series and no linear solve: A / 2^s has
    1-norm at most theta_16, the series is summed in Paterson-Stockmeyer form (SIAM J. Comput.
    2, 60, 1973) from A^2, A^3, A^4, one product of ``_TAYLOR16`` with the stacked I, A, A^2,
    A^3 for the blocks B_j and three Horner products B_j + A^4 (...), then squared s times.
    Each matrix of a stack has its own s, so its result is bitwise the one it gets alone.
    """
    A = np.asarray(A, dtype=float)
    n, norms = A.shape[-1], np.abs(A).sum(axis=-2).max(axis=-1)
    # norm = m 2^e with m in [1/2, 1), as is theta_16: the least s >= 0 with norm / 2^s <=
    # theta_16 is e, or e + 1 when m > theta_16 (math.frexp gives e = 0 for inf and nan)
    s = np.array([max(e + (m > _THETA16), 0) for m, e in map(math.frexp, norms.flat)],
                 dtype=int).reshape(norms.shape)
    work = np.empty((*A.shape[:-2], 10, n, n))  # A^4, spare, I, A, A^2, A^3, B_0..B_3
    A4, tmp, A1, A2, A3 = (work[..., k, :, :] for k in (0, 1, 3, 4, 5))
    work[..., 2, :, :] = np.eye(n)
    np.multiply(A, np.ldexp(1.0, -s)[..., None, None], out=A1)
    np.matmul(A1, A1, out=A2)
    np.matmul(A2, A1, out=A3)
    np.matmul(A2, A2, out=A4)
    flat = (*A.shape[:-2], 4, n * n)
    np.matmul(_TAYLOR16, work[..., 2:6, :, :].reshape(flat), out=work[..., 6:, :, :].reshape(flat))
    R = work[..., 9, :, :]
    R += np.divide(A4, math.factorial(16), out=tmp)
    for j in (2, 1, 0):
        R, tmp = np.add(np.matmul(A4, R, out=tmp), work[..., 6 + j, :, :], out=tmp), R
    for j in range(s.max(initial=0)):
        R, tmp = np.matmul(R, R, out=tmp), R
        if j >= s.min():  # those with s <= j were squared s times already
            np.copyto(R, tmp, where=(s <= j)[..., None, None])
    return R.copy()  # not a view, so the workspace is freed


@lru_cache(maxsize=1)  # every command uses one key; the parts of an F = 32 key take 570 MB
def _generator_parts(d: int, gamma_dec: float) -> np.ndarray:
    """Read-only (4, d^2, d^2) array of real generators on basis coordinates, one per drive term.

    -i[H, .] for H = Fx, Fy and Fx^2, then the isotropic dissipator
    gamma_dec sum_A (A . A^dag - {A^dag A, .} / 2) over A = Fx, Fy, Fz. Column b holds
    the coordinates of the image of basis element B_b; trace preservation makes the
    top row zero. Each part is written into the array as it is built, never held twice.
    """
    sys = build_spin_system((d - 1) / 2)
    B = hermitian_basis(sys)
    jumps = (sys.Fx, sys.Fy, sys.Fz)
    parts = np.empty((4, d * d, d * d))
    for k, H in enumerate((sys.Fx, sys.Fy, sys.Fx @ sys.Fx)):
        parts[k] = state_to_coords(-1j * (H @ B - B @ H)).T
    K = sum(A.conj().T @ A for A in jumps)
    diss = sum(A @ B @ A.conj().T for A in jumps)
    parts[3] = state_to_coords(gamma_dec * (diss - 0.5 * (K @ B + B @ K))).T
    parts.setflags(write=False)
    return parts


def _hamiltonians(sys: SpinSystem, waveforms) -> np.ndarray:
    """(B, K, d, d) segment Hamiltonians: omega (cos phi Fx + sin phi Fy), plus chi Fx^2 if chi."""
    phi = np.array([w.phi for w in waveforms])[..., None, None]
    omega, chi = np.array([(w.omega_larmor, w.chi) for w in waveforms]).T
    H = omega[:, None, None, None] * (np.cos(phi) * sys.Fx + np.sin(phi) * sys.Fy)
    H[chi != 0] += chi[chi != 0, None, None, None] * (sys.Fx @ sys.Fx)
    return H


def _segment_generators(parts: np.ndarray, waveforms, step_index: int) -> np.ndarray:
    """Segment ``step_index``'s generators: rows (omega cos phi, omega sin phi, chi, 1) @ parts."""
    coeffs = [(w.omega_larmor * np.cos(w.phi[step_index]),
               w.omega_larmor * np.sin(w.phi[step_index]), w.chi, 1.0) for w in waveforms]
    return (np.array(coeffs) @ parts.reshape(4, -1)).reshape(len(waveforms), *parts.shape[1:])


def sample_times(waveform: ControlWaveform, n_samples: int) -> np.ndarray:
    """Uniform grid t_i = i * duration / n_samples from 0; n_samples = k * n_steps, int k >= 1."""
    _samples_per_step(waveform, n_samples)
    return np.arange(n_samples) * (waveform.duration / n_samples)


def _samples_per_step(waveform: ControlWaveform, n_samples: int) -> int:
    n_samples = serialize.integer(n_samples, "n_samples", 1)
    if n_samples % waveform.n_steps != 0:
        raise ValueError(
            f"n_samples={n_samples} must be a multiple of n_steps={waveform.n_steps} "
            "so every sample interval lies inside one segment"
        )
    return n_samples // waveform.n_steps


def _evolve(waveforms, n_samples: int, op: np.ndarray, heisenberg: bool) -> np.ndarray:
    """Coordinates of a d x d ``op`` evolved to every sample time under each waveform, (B, N, d^2).

    Schrodinger picture (rho_i) or, with ``heisenberg``, the adjoint picture
    (O_i) of a spin (d - 1) / 2. Row 0 is the coordinate vector of ``op``
    itself. The B waveforms share ``n_steps``, ``dt`` and ``gamma_dec``. One
    exponential per segment and waveform propagates every sample interval
    inside that segment: d x d unitaries under closed evolution, all from one
    :func:`_unitary` call, otherwise the real d^2 x d^2 exponentials of the
    Lindblad generators. Each :func:`expm` call takes as many consecutive
    segments of the batch as keep its ten work matrices per input within
    ``_EXPM_WORK_BYTES``, and at least one.
    """
    sys = _spin_of(op)
    first = waveforms[0]
    per_step = _samples_per_step(first, n_samples)
    dt = first.dt / per_step
    if first.closed:
        steps = _unitary(_hamiltonians(sys, waveforms), dt)
        U = np.empty((len(waveforms), n_samples, sys.d, sys.d), dtype=complex)
        U[:, 0] = np.eye(sys.d)
        for i in range(1, n_samples):
            U[:, i] = steps[:, (i - 1) // per_step] @ U[:, i - 1]
        Ud = U.conj().swapaxes(-1, -2)
        return state_to_coords(Ud @ op @ U if heisenberg else U @ op @ Ud)
    # the cumulative transfer maps are applied as they grow, so only one
    # d^2 x d^2 map per waveform is held at a time
    parts = _generator_parts(sys.d, first.gamma_dec)
    stack = max(1, _EXPM_WORK_BYTES // (10 * len(waveforms) * sys.d**4 * 8))
    n2 = sys.d * sys.d
    coords = np.empty((len(waveforms), n_samples, n2))
    coords[:, 0] = state_to_coords(op)
    transfer = np.broadcast_to(np.eye(n2), (len(waveforms), n2, n2))
    buffers = np.empty((2, len(waveforms), n2, n2))  # each product goes into the other one
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for i in range(1, n_samples):
            k, within = divmod(i - 1, per_step)
            if within == 0 and k % stack == 0:
                segments = range(k, min(k + stack, first.n_steps))
                block = expm(np.stack([_segment_generators(parts, waveforms, j) for j in segments])
                             * dt)
            transfer = np.matmul(block[k % stack], transfer, out=buffers[i % 2])
            coords[:, i] = coords[0, 0] @ transfer if heisenberg else transfer @ coords[0, 0]
    if not np.isfinite(coords).all():
        raise ValueError("open-system propagation overflowed: the drive is too large")
    return coords


def propagate_state(
    rho0: np.ndarray, waveform: ControlWaveform, n_samples: int
) -> list[np.ndarray]:
    """Schrodinger-picture states of a spin (d - 1) / 2 at every sample time (element 0 is rho0)."""
    rho0 = check_density_matrix(rho0)
    states = coords_to_state(_evolve([waveform], n_samples, rho0, heisenberg=False)[0])
    states[0] = rho0
    return list(states)


@dataclass(frozen=True, eq=False)
class ObservableHistory:
    """Heisenberg-evolved observables {O_i} under ``waveform``, held as their design matrix.

    Row i of ``design_matrix`` is the coordinate vector of O_i, so
    Tr[O_i rho] = design_matrix[i] @ coords(rho) for any state rho. The
    sample count N, the spin dimension d, the sample ``times``
    (:func:`sample_times`, so N must be a multiple of the segments) and
    ``waveform_fingerprint`` are derived from the two fields once, here.
    """

    waveform: ControlWaveform
    design_matrix: np.ndarray  # (N, d*d) real

    def __post_init__(self):
        if self.design_matrix.ndim != 2:
            raise ValueError("design matrix must be 2-D, one row per sample")
        if len(self.design_matrix) == 0:
            raise ValueError("history is empty")
        n_samples, width = self.design_matrix.shape
        d = math.isqrt(width)
        if d * d != width:
            raise ValueError("design matrix width must be d^2")
        times = sample_times(self.waveform, n_samples)
        for arr in (times, self.design_matrix):
            arr.setflags(write=False)
        vars(self).update(times=times, n_samples=n_samples, d=d,
                          waveform_fingerprint=self.waveform.fingerprint())


def heisenberg_history(
    waveform: ControlWaveform, observable: np.ndarray, n_samples: int
) -> ObservableHistory:
    """Adjoint-propagate a d x d observable of a spin (d - 1) / 2 over the sample grid.

    The returned O_i satisfy Tr[O_i rho0] = Tr[O rho(t_i)] for every
    initial state, with rho(t) the Schrodinger-picture evolution under the
    same waveform.
    """
    return heisenberg_histories([waveform], observable, n_samples)[0]


def heisenberg_histories(
    waveforms, observable: np.ndarray, n_samples: int
) -> list[ObservableHistory]:
    """:func:`heisenberg_history` under each of a batch of waveforms, in passes of the kernel.

    The waveforms share ``n_steps``, ``dt`` and ``gamma_dec``; each pass takes
    a consecutive slice whose propagators fit ``_BATCH_BYTES``. Each history is
    bitwise equal to the one its waveform gets alone.
    """
    return list(_histories(waveforms, observable, n_samples))


def _histories(waveforms, observable: np.ndarray, n_samples: int):
    """The histories of :func:`heisenberg_histories` as an iterator, one slice built at a time.

    A slice's kernel pass runs when its first history is asked for, so a
    caller that keeps no history holds one slice's design matrices at most.
    """
    observable = np.asarray(observable, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(observable))) if observable.size else 1.0)
    if not is_hermitian(observable, tol=1e-10 * scale):
        raise ValueError("observable must be a Hermitian d x d matrix")
    if len({(w.n_steps, w.dt, w.gamma_dec) for w in waveforms}) != 1:
        raise ValueError("need one or more waveforms with the same n_steps, dt and gamma_dec")
    size = max(1, _BATCH_BYTES // (16 * serialize.integer(n_samples, "n_samples", 1)
                                   * observable.size))
    for start in range(0, len(waveforms), size):
        batch = waveforms[start:start + size]
        yield from map(ObservableHistory, batch,
                       _evolve(batch, n_samples, observable, heisenberg=True))
