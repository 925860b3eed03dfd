"""Synthetic measurement records and their file format.

A record holds the coarse-grained samples M_i = Tr[O_i rho0] + noise, where
the noise is Gaussian with standard deviation sigma / sqrt(n_averaged).
Draw i comes from the counter-based stream keyed by the record seed (see
:mod:`spintomo.rand`), so records are bit-identical across runs and
platforms regardless of evaluation order.
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


# raised for malformed, truncated, or wrong-version record documents
RecordFormatError = serialize.DocumentError


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """An immutable measurement record with its noise metadata."""

    F: float
    times: np.ndarray
    values: np.ndarray
    sigma: float
    seed: int
    n_averaged: int
    waveform_fingerprint: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) != len(values):
            raise ValueError("times and values must have the same length")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("times and values must be finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if not isinstance(self.n_averaged, (int, np.integer)) or self.n_averaged < 1:
            raise ValueError("n_averaged must be an integer >= 1")
        rand.check_seed(self.seed)
        times.setflags(write=False)
        values.setflags(write=False)

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

    The state is checked and its clean signal computed once for the batch;
    every seed is checked before the first draw, and the noise of all
    records is one :func:`rand.normals` call. Each record is bitwise equal
    to :func:`synthesize_record` with its seed, which is the batch of one.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and nonnegative")
    check_density_matrix(rho0, history.d)
    seeds = [rand.check_seed(seed) for seed in seeds]
    n_averaged = int(n_averaged)
    if n_averaged < 1:
        raise ValueError("n_averaged must be an integer >= 1")
    clean = noiseless_values(rho0, history)
    times = history.times.copy()
    sigma = float(sigma)
    sigma_eff = sigma / math.sqrt(n_averaged)
    if sigma == 0:
        values = [clean] * len(seeds)
    else:
        values = clean + sigma_eff * rand.normals(seeds, len(clean))
    return [
        MeasurementRecord(
            F=(history.d - 1) / 2.0,
            times=times,
            values=row,
            sigma=sigma,
            seed=seed,
            n_averaged=n_averaged,
            waveform_fingerprint=history.waveform_fingerprint,
        )
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
    doc = {
        "version": RECORD_FORMAT_VERSION,
        "F": float(record.F),
        "times": record.times,
        "values": record.values,
        "sigma": float(record.sigma),
        "seed": int(record.seed),
        "n_averaged": int(record.n_averaged),
        "waveform_fingerprint": record.waveform_fingerprint,
    }
    serialize.dump_path(doc, path)


def read_record(path) -> MeasurementRecord:
    """Parse a record document; strict about version, field set and field shapes."""
    doc = serialize.check_fields(
        serialize.read_document(path, "record"), "record", _RECORD_FIELDS, RECORD_FORMAT_VERSION
    )
    if not isinstance(doc["waveform_fingerprint"], str) or not doc["waveform_fingerprint"]:
        raise RecordFormatError("waveform_fingerprint must be a nonempty string",
                                field="waveform_fingerprint")
    d = serialize.spin_dimension(doc["F"])
    times, values = (serialize.numeric_array(doc[name], name, 1) for name in ("times", "values"))
    if len(times) != len(values):
        raise RecordFormatError("times and values must have the same length", "values")
    sigma = serialize.number(doc["sigma"], "sigma")
    seed = serialize.integer(doc["seed"], "seed")
    n_averaged = serialize.integer(doc["n_averaged"], "n_averaged")
    try:
        return MeasurementRecord(
            F=(d - 1) / 2.0,
            times=times,
            values=values,
            sigma=sigma,
            seed=seed,
            n_averaged=n_averaged,
            waveform_fingerprint=doc["waveform_fingerprint"],
        )
    except ValueError as exc:
        raise RecordFormatError(f"invalid record document: {exc}") from exc
