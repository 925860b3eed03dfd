"""Counter-based deterministic random draws.

Streams are generated with the 4x64 Philox counter generator. Draw i of a
noise stream keyed by ``seed`` starts at counter block ``i * 2**64``, so
individual samples can be produced in any order (or concurrently) and still
match a sequential run bit for bit.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "philox4x64-counter"

_MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    seed = int(seed)
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError("seed must fit in 64 bits")
    return seed


def stream(seed: int, block: int = 0) -> np.random.Generator:
    """Generator positioned at counter block ``block`` of stream ``seed``."""
    seed = check_seed(seed)
    if block < 0:
        raise ValueError("counter block must be nonnegative")
    return np.random.Generator(np.random.Philox(key=seed, counter=block << 64))


def normals(seed: int, n: int) -> np.ndarray:
    """Standard-normal draws 0..n-1 of stream ``seed``.

    Draw i is the first standard normal of ``stream(seed, i)``. One bit
    generator serves all draws: before draw i its counter is set to block i
    with an empty output buffer, the state a generator freshly built at
    that block starts from.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    bits = np.random.Philox(key=check_seed(seed))
    gen = np.random.Generator(bits)
    state = bits.state
    counter = state["state"]["counter"]
    out = np.empty(n)
    for i in range(n):
        counter[1] = i
        state["buffer_pos"] = 4
        bits.state = state
        out[i] = gen.standard_normal()
    return out


def uniform_angles(seed: int, n: int) -> np.ndarray:
    """n angles uniform on [0, 2*pi), drawn sequentially from stream ``seed``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return stream(seed).uniform(0.0, 2.0 * np.pi, size=n)
