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
from .dynamics import ControlWaveform, sample_times
from .spin_algebra import (
    TEST_STATE_PARAMS,
    SpinSystem,
    build_spin_system,
    check_density_matrix,
    test_state,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]

CONFIG_VERSION = 1


# a config parse/validation failure; the message and ``field`` name the offending key
ConfigError = serialize.DocumentError


def _checked(field: str, make):
    """``make()``, with the ValueError a model constructor raises reported against ``field``."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"malformed field {field}: {exc}", field) from exc


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
    """``waveform.phi``: a list of angles, or ``"random:<seed>"`` for ``n_steps`` uniform draws."""
    if isinstance(raw, str) and raw.startswith("random:"):
        seed = _checked("waveform.phi", lambda: int(raw.split(":", 1)[1]))
        return tuple(rand.uniform_angles(rand.check_seed(seed, "waveform.phi"), n_steps))
    return tuple(serialize.numeric_array(raw, "waveform.phi", 1).tolist())


def _parse_state(block, sys: SpinSystem, field: str) -> tuple[str, np.ndarray]:
    """One input state: an explicit ``matrix`` of [re, im] pairs or a test-state ``kind``."""
    if isinstance(block, dict) and "matrix" in block:
        serialize.check_fields(block, field, ("matrix",))
        rho = serialize.pairs_to_matrix(block["matrix"], f"{field}.matrix")
        return "matrix", _checked(field, lambda: check_density_matrix(rho, sys.d))
    # an object with a kind, whose other keys are checked against that kind below
    serialize.check_fields(block, field, ("kind",), optional=block)
    kind = serialize.choice(block["kind"], f"{field}.kind", TEST_STATE_PARAMS)
    allowed = TEST_STATE_PARAMS[kind]
    serialize.check_fields(block, field, ("kind",), optional=allowed)
    params = {key: serialize.number(block[key], f"{field}.{key}")
              for key in allowed if key in block}
    return kind, _checked(field, lambda: test_state(sys, kind, **params))


def parse_config(doc: dict) -> ExperimentConfig:
    """The experiment a config document describes; a malformed field raises ConfigError."""
    fields = ("version", "F", "waveform", "sampling", "noise")
    serialize.check_fields(doc, "config", fields, CONFIG_VERSION, ("state", "states"))
    sys = build_spin_system((serialize.spin_dimension(doc["F"]) - 1) / 2)

    wf = serialize.check_fields(doc["waveform"], "waveform",
                                ("n_steps", "dt", "phi", "omega_larmor", "chi"),
                                optional=("gamma_dec", "jump_preset"))
    n_steps = serialize.integer(wf["n_steps"], "waveform.n_steps", 1)
    phi = _parse_phi(wf["phi"], n_steps)
    rates = {key: serialize.number(wf[key], f"waveform.{key}", 0)
             for key in ("dt", "omega_larmor", "chi", "gamma_dec") if key in wf}
    # the one decoherence channel; closed evolution is gamma_dec = 0
    serialize.choice(wf.get("jump_preset", "isotropic"), "waveform.jump_preset", ("isotropic",))
    waveform = _checked("waveform", lambda: ControlWaveform(n_steps=n_steps, phi=phi, **rates))

    sampling = serialize.check_fields(doc["sampling"], "sampling", ("n_samples",))
    n_samples = serialize.integer(sampling["n_samples"], "sampling.n_samples", 1)
    _checked("sampling.n_samples", lambda: sample_times(waveform, n_samples))

    noise = serialize.check_fields(doc["noise"], "noise", ("sigma", "seed"),
                                   optional=("n_averaged",))
    sigma = serialize.number(noise["sigma"], "noise.sigma", 0)
    seed = rand.check_seed(noise["seed"], "noise.seed")
    n_averaged = serialize.integer(noise.get("n_averaged", 1), "noise.n_averaged", 1)

    if ("state" in doc) == ("states" in doc):
        raise ConfigError("config must contain exactly one of 'state' or 'states'")
    if "state" in doc:
        states = (_parse_state(doc["state"], sys, "state"),)
    else:
        raw_states = doc["states"]
        if not isinstance(raw_states, list) or not raw_states:
            raise ConfigError("malformed field states: expected a nonempty list of state objects",
                              "states")
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
