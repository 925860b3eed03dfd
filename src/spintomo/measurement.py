"""Synthetic measurement records and their file format.

A record holds the coarse-grained samples M_i = Tr[O_i rho0] + noise, where
the noise is Gaussian with standard deviation sigma / sqrt(n_averaged).
Draw i comes from the counter-based stream keyed by the record seed (see
:mod:`spintomo.rand`), so the noise draws are bit-identical across runs and
platforms regardless of evaluation order. The signal Tr[O_i rho0] is not
always: an open-system signal at F >= 5 can differ in its last bits between
BLAS thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rand, serialize
from .dynamics import ObservableHistory
from .spin_algebra import check_density_matrix, state_to_coords

__all__ = [
    "MeasurementRecord",
    "RecordFormatError",
    "synthesize_record",
    "synthesize_records",
    "noiseless_values",
    "write_record",
    "read_record",
]

RECORD_FORMAT_VERSION = 1

_RECORD_FIELDS = (
    "version",
    "F",
    "times",
    "values",
    "sigma",
    "seed",
    "n_averaged",
    "waveform_fingerprint",
)


# raised for malformed, truncated, or wrong-version record documents, and for records
# that no document could hold
RecordFormatError = serialize.DocumentError


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """An immutable measurement record with its noise metadata; ``n_averaged`` is an int >= 1."""

    F: float
    times: np.ndarray
    values: np.ndarray
    sigma: float
    seed: int
    n_averaged: int
    waveform_fingerprint: str

    def __post_init__(self):
        d = serialize.spin_dimension(self.F)
        if not isinstance(self.waveform_fingerprint, str) or not self.waveform_fingerprint:
            raise RecordFormatError("waveform_fingerprint must be a nonempty string",
                                    field="waveform_fingerprint")
        # a bool or string sample is refused, as in a record file; a float array is not copied
        times = serialize.numeric_array(self.times, "times", 1)
        values = serialize.numeric_array(self.values, "values", 1)
        if len(values) != len(times):
            raise RecordFormatError("times and values must have the same length", "values")
        sigma = serialize.number(self.sigma, "sigma", 0)
        n_averaged = serialize.integer(self.n_averaged, "n_averaged", 1)
        seed = rand.check_seed(self.seed)
        # the caller's arrays stay writeable: a writeable one is copied before it is frozen,
        # a read-only one (a sweep's grid, shared by the records of one state) is kept
        times, values = (a.copy() if a.flags.writeable else a for a in (times, values))
        times.setflags(write=False)
        values.setflags(write=False)
        # each field holds what its document field reads back as; vars() passes the
        # frozen __setattr__, and one update costs half of six object.__setattr__ calls
        vars(self).update(F=(d - 1) / 2.0, times=times, values=values, sigma=sigma, seed=seed,
                          n_averaged=n_averaged)

    @property
    def n_samples(self) -> int:
        return len(self.values)

    @property
    def sigma_eff(self) -> float:
        """Noise standard deviation of one sample: sigma / sqrt(n_averaged)."""
        return self.sigma / math.sqrt(self.n_averaged)


def noiseless_values(rho0: np.ndarray, history: ObservableHistory) -> np.ndarray:
    """The exact expectation sequence Tr[O_i rho0]."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (history.d, history.d):
        raise ValueError(
            f"state dimension {rho0.shape} does not match history dimension {history.d}"
        )
    return history.design_matrix @ state_to_coords(rho0)


def synthesize_records(
    rho0: np.ndarray,
    history: ObservableHistory,
    sigma: float,
    seeds,
    n_averaged: int = 1,
) -> list[MeasurementRecord]:
    """Simulate one measurement record of ``rho0`` per seed, in seed order.

    The state is checked and its clean signal computed once for the batch,
    and every argument before the first draw; the noise of all records is
    one :func:`rand.normals` call. Each record is bitwise equal to
    :func:`synthesize_record` with its seed, which is the batch of one.
    """
    check_density_matrix(rho0, history.d)
    seeds = list(seeds)
    # the noiseless record checks sigma and n_averaged by the record's rules before any draw
    exact = MeasurementRecord(
        F=(history.d - 1) / 2.0,
        times=history.times.copy(),
        values=noiseless_values(rho0, history),
        sigma=sigma,
        seed=0,
        n_averaged=n_averaged,
        waveform_fingerprint=history.waveform_fingerprint,
    )
    if exact.sigma == 0:
        values = [exact.values] * len(seeds)
    else:
        values = exact.values + exact.sigma_eff * rand.normals(seeds, exact.n_samples)
        values.setflags(write=False)  # so each record keeps its row as a view, not a copy
    return [
        MeasurementRecord(exact.F, exact.times, row, exact.sigma, seed, exact.n_averaged,
                          exact.waveform_fingerprint)
        for seed, row in zip(seeds, values)
    ]


def synthesize_record(
    rho0: np.ndarray,
    history: ObservableHistory,
    sigma: float,
    seed: int,
    n_averaged: int = 1,
) -> MeasurementRecord:
    """Simulate one measurement record of ``rho0`` against a history.

    With ``n_averaged`` > 1 the record stands for the mean of that many
    identically-driven shots, so the additive noise per sample has standard
    deviation sigma / sqrt(n_averaged). ``sigma`` = 0 returns the exact
    expectation values with no generator draws.
    """
    return synthesize_records(rho0, history, sigma, [seed], n_averaged)[0]


def write_record(record: MeasurementRecord, path) -> None:
    """Write the versioned JSON record document (deterministic bytes)."""
    doc = {name: getattr(record, name) for name in _RECORD_FIELDS[1:]}
    serialize.dump_path({"version": RECORD_FORMAT_VERSION, **doc}, path)


def read_record(path) -> MeasurementRecord:
    """Parse a record document: the field set here, every other rule the record's."""
    doc = serialize.check_fields(
        serialize.read_document(path, "record"), "record", _RECORD_FIELDS, RECORD_FORMAT_VERSION
    )
    return MeasurementRecord(**{name: doc[name] for name in _RECORD_FIELDS[1:]})
