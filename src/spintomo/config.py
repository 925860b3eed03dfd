"""Experiment configuration documents.

One JSON config fully determines one simulated interrogation: spin size,
control waveform, sampling grid, noise level and seed, and the input
state(s). Parsing is strict: unknown keys anywhere in the document are
rejected, and every referenced invariant (waveform bounds, state validity,
sample alignment) is enforced at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rand, serialize
from .dynamics import JUMP_PRESETS, ControlWaveform
from .spin_algebra import (
    TEST_STATE_PARAMS,
    SpinSystem,
    build_spin_system,
    check_density_matrix,
    test_state,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]

CONFIG_VERSION = 1


# a config parse/validation failure; the message names the offending key
ConfigError = serialize.DocumentError


def _require(block: dict, context: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(block, dict):
        raise ConfigError(f"'{context}' must be an object")
    for key in required:
        if key not in block:
            raise ConfigError(f"missing key '{key}' in '{context}'")
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in '{context}'")


def _number(block: dict, context: str, key: str) -> float:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' in '{context}' must be a number")
    return float(value)


def _integer(block: dict, context: str, key: str) -> int:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{key}' in '{context}' must be an integer")
    return value


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    F: float
    waveform: ControlWaveform
    n_samples: int
    sigma: float
    seed: int
    n_averaged: int
    states: tuple[tuple[str, np.ndarray], ...]  # (label, density matrix)

    def spin_system(self) -> SpinSystem:
        return build_spin_system(self.F)

    @property
    def single_state(self) -> np.ndarray:
        if len(self.states) != 1:
            raise ConfigError("this command needs a config with exactly one state")
        return self.states[0][1]


def _parse_phi(raw, n_steps: int) -> tuple[float, ...]:
    if isinstance(raw, str):
        if not raw.startswith("random:"):
            raise ConfigError("key 'phi' in 'waveform' must be a list or 'random:<seed>'")
        try:
            phi_seed = int(raw.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError("key 'phi' in 'waveform': random seed must be an integer") from exc
        return tuple(rand.uniform_angles(phi_seed, n_steps))
    if not isinstance(raw, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
    ):
        raise ConfigError("key 'phi' in 'waveform' must be a list of numbers or 'random:<seed>'")
    return tuple(float(v) for v in raw)


def _parse_state(block: dict, sys: SpinSystem, context: str) -> tuple[str, np.ndarray]:
    if not isinstance(block, dict):
        raise ConfigError(f"'{context}' must be an object")
    if "matrix" in block:
        _require(block, context, ("matrix",))
        try:
            rho = check_density_matrix(serialize.pairs_to_matrix(block["matrix"], context), sys.d)
        except ValueError as exc:
            raise ConfigError(f"'{context}': {exc}") from exc
        return "matrix", rho
    if "kind" not in block:
        raise ConfigError(f"missing key 'kind' in '{context}'")
    kind = block["kind"]
    if kind not in TEST_STATE_PARAMS:
        raise ConfigError(f"key 'kind' in '{context}' has unknown value {kind!r}")
    allowed = TEST_STATE_PARAMS[kind]
    _require(block, context, ("kind",), allowed)
    params = {key: _number(block, context, key) for key in allowed if key in block}
    try:
        rho = test_state(sys, kind, **params)
    except ValueError as exc:
        raise ConfigError(f"'{context}': {exc}") from exc
    return kind, rho


def parse_config(doc: dict) -> ExperimentConfig:
    _require(
        doc,
        "config",
        ("version", "F", "waveform", "sampling", "noise"),
        ("state", "states"),
    )
    if doc["version"] != CONFIG_VERSION:
        raise ConfigError(f"key 'version' has unsupported value {doc['version']!r}")
    F = doc["F"]
    if isinstance(F, bool) or not isinstance(F, (int, float)):
        raise ConfigError("key 'F' must be a number")
    try:
        sys = build_spin_system(F)
    except ValueError as exc:
        raise ConfigError(f"key 'F': {exc}") from exc

    wf = doc["waveform"]
    _require(
        wf,
        "waveform",
        ("n_steps", "dt", "phi", "omega_larmor", "chi"),
        ("gamma_dec", "jump_preset"),
    )
    n_steps = _integer(wf, "waveform", "n_steps")
    if n_steps < 1:
        raise ConfigError("key 'n_steps' in 'waveform' must be >= 1")
    preset = wf.get("jump_preset", "isotropic")
    if preset not in JUMP_PRESETS:
        raise ConfigError(f"key 'jump_preset' in 'waveform' has unknown value {preset!r}")
    try:
        waveform = ControlWaveform(
            n_steps=n_steps,
            dt=_number(wf, "waveform", "dt"),
            phi=_parse_phi(wf["phi"], n_steps),
            omega_larmor=_number(wf, "waveform", "omega_larmor"),
            chi=_number(wf, "waveform", "chi"),
            gamma_dec=_number(wf, "waveform", "gamma_dec") if "gamma_dec" in wf else 0.0,
            jump_ops=preset,
        )
    except ValueError as exc:
        raise ConfigError(f"'waveform': {exc}") from exc

    sampling = doc["sampling"]
    _require(sampling, "sampling", ("n_samples",), ("substeps",))
    n_samples = _integer(sampling, "sampling", "n_samples")
    if n_samples < 1 or n_samples % n_steps != 0:
        raise ConfigError(
            "key 'n_samples' in 'sampling' must be a positive multiple of waveform n_steps"
        )
    # accepted for v1 documents and ignored: each segment is exponentiated exactly
    if "substeps" in sampling and _integer(sampling, "sampling", "substeps") < 1:
        raise ConfigError("key 'substeps' in 'sampling' must be >= 1")

    noise = doc["noise"]
    _require(noise, "noise", ("sigma", "seed"), ("n_averaged",))
    sigma = _number(noise, "noise", "sigma")
    if sigma < 0:
        raise ConfigError("key 'sigma' in 'noise' must be nonnegative")
    seed = _integer(noise, "noise", "seed")
    try:
        rand.check_seed(seed)
    except ValueError as exc:
        raise ConfigError(f"key 'seed' in 'noise': {exc}") from exc
    n_averaged = _integer(noise, "noise", "n_averaged") if "n_averaged" in noise else 1
    if n_averaged < 1:
        raise ConfigError("key 'n_averaged' in 'noise' must be >= 1")

    if ("state" in doc) == ("states" in doc):
        raise ConfigError("config must contain exactly one of 'state' or 'states'")
    if "state" in doc:
        states = (_parse_state(doc["state"], sys, "state"),)
    else:
        raw_states = doc["states"]
        if not isinstance(raw_states, list) or not raw_states:
            raise ConfigError("key 'states' must be a nonempty list of state objects")
        states = tuple(
            _parse_state(block, sys, f"states[{i}]") for i, block in enumerate(raw_states)
        )

    return ExperimentConfig(
        F=sys.F,
        waveform=waveform,
        n_samples=n_samples,
        sigma=sigma,
        seed=seed,
        n_averaged=n_averaged,
        states=states,
    )


def load_config(path) -> ExperimentConfig:
    return parse_config(serialize.read_document(path, "config"))
