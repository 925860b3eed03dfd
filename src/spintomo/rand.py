"""Counter-based deterministic random draws.

Streams are generated with the 4x64 Philox counter generator keyed by
``seed``. Noise draw i is the first standard normal of a Philox generator
started at ``counter = i << 64`` (counter block i), so every sample depends
only on (seed, i) and matches a sequential run bit for bit, in any order.
:func:`normals` moves one bit generator from block to block through its
``state`` setter, with the state held as Python lists: the setter reads
every entry, and list entries are cheaper to read than numpy-array ones.
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


def stream(seed: int) -> np.random.Generator:
    """Generator at the start (counter 0) of stream ``seed``."""
    seed = check_seed(seed)
    return np.random.Generator(np.random.Philox(key=seed, counter=0))


def normals(seed: int, n: int) -> np.ndarray:
    """Standard-normal draws 0..n-1 of stream ``seed``.

    Draw i is the first standard normal of a Philox generator keyed by
    ``seed`` and started at ``counter = i << 64``. One bit generator serves
    all draws: before draw i its counter is set to block i with an empty
    output buffer, the state such a freshly built generator starts from.
    The state's counter, key and buffer are held as Python lists, because
    the ``state`` setter reads them entry by entry, and a list entry is
    cheaper to read than an array entry.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    bits = np.random.Philox(key=check_seed(seed))
    draw = np.random.Generator(bits).standard_normal
    state = bits.state
    counter = state["state"]["counter"].tolist()
    state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
    state["buffer"] = state["buffer"].tolist()
    out = np.empty(n)
    for i in range(n):
        counter[1] = i
        bits.state = state
        out[i] = draw()
    return out


def uniform_angles(seed: int, n: int) -> np.ndarray:
    """n angles uniform on [0, 2*pi), drawn sequentially from stream ``seed``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return stream(seed).uniform(0.0, 2.0 * np.pi, size=n)
