"""Set-up time of one CLI invocation, measured inside a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG

Prints the seconds taken to import ``spintomo.cli``, parse CONFIG and fill
the first-touch caches (Hermitian basis elements and multipole operators),
which every ``spintomo`` command pays before it starts its own work.
"""

import sys
from time import perf_counter


def prepare(config_path) -> None:
    """Parse the config and fill the caches the commands touch first."""
    from spintomo.config import load_config
    from spintomo.spin_algebra import hermitian_basis
    from spintomo.wigner import multipole_operators

    spin = load_config(config_path).spin_system()
    hermitian_basis(spin)
    multipole_operators(spin)


if __name__ == "__main__":
    src, config = sys.argv[1:3]
    sys.path.insert(0, src)
    t0 = perf_counter()
    import spintomo.cli  # noqa: F401  (the import is what is timed)

    prepare(config)
    print(repr(perf_counter() - t0))
