"""Benchmark workloads: generated inputs, one op each, and output checks.

Every workload writes its configs into a scratch directory, derived from a
shipped config by changing only ``F``, ``gamma_dec``, the x1.02 Larmor drift
and the noise seeds (``phi`` stays ``random:10``, since completeness depends
on it). The program only ever sees the generated files. Each workload cycles
through ``n_inputs`` noise seeds drawn from the benchmark seed, so repeated
seeds can be checked for byte-identical outputs and the quality figures come
from a fixed seed list rather than from how many ops fit in a run.

An op is what one user does; ops run back to back in a closed loop with a
single client.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from spintomo import cli
from spintomo.estimator import read_estimate
from spintomo.spin_algebra import check_density_matrix

DRIFT = 1.02
NUISANCE_SPEC = "omega_scale:0.95:1.05"
NUISANCE_BOUNDS = (0.95, 1.05)


def invoke(argv: list[str]) -> tuple[int | None, str, str]:
    """Run ``spintomo.cli.main`` in-process; returns (exit code, stdout, stderr).

    An exception escaping the CLI is reported as exit code None, so it
    counts as a failed op instead of ending the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the benchmark must survive a crashing op
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def parse_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


@dataclass
class OpResult:
    """One op: its timed CLI calls, output files and what the checks found."""

    index: int
    input_index: int
    opdir: Path
    wall_s: float = 0.0
    records: int = 0
    bytes: int = 0  # size of the output files
    calls: list[tuple[str, float]] = field(default_factory=list)  # (command, seconds)
    outputs: dict[str, Path] = field(default_factory=dict)
    fidelity: float | None = None
    nuisance: float | None = None
    converged: bool | None = None
    errors: list[str] = field(default_factory=list)


class Workload:
    """Base class: subclasses set the inputs, the op and its checks."""

    name = ""
    why = ""
    dominant: tuple[str, ...] = ()  # layers predicted to take most of the self time
    base_config = ""
    n_inputs = 3

    def __init__(self, root: Path, workdir: Path, seed: int, tiny: bool = False):
        self.root = root
        self.workdir = workdir
        self.tiny = tiny
        rng = random.Random(f"{self.name}:{seed}")
        self.noise_seeds = [rng.randrange(1, 2**32) for _ in range(self.n_inputs)]
        self.inputs: list[dict[str, Path]] = []
        self.reference: dict[int, dict[str, Path]] = {}
        self.d2 = 0

    # -- input generation and set-up ----------------------------------------

    def _document(self, noise_seed: int) -> dict:
        with open(self.root / self.base_config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["noise"]["seed"] = noise_seed
        return doc

    def _write_config(self, doc: dict, name: str) -> Path:
        path = self.workdir / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        return path

    def generate(self) -> list[Path]:
        """Write the generated configs; returns every config written."""
        raise NotImplementedError

    def setup(self) -> None:
        """Generate inputs and check each config is informationally complete."""
        for path in self.generate():
            code, out, err = invoke(["check", str(path)])
            fields = parse_fields(out)
            rank, required = int(fields.get("rank", -1)), int(fields.get("required", 0))
            if code != 0 or rank < required:
                raise SetupError(
                    f"{path.name}: rank {rank} below required {required} (exit {code}) {err}"
                )
            self.d2 = required + 1

    # -- one op ---------------------------------------------------------------

    def run_op(self, index: int, k: int, span=None) -> OpResult:
        """Run op ``index`` on input ``k``; ``span(name)`` wraps each CLI call when tracing."""
        op = OpResult(index=index, input_index=k, opdir=self.workdir / f"op{index}")
        op.opdir.mkdir()
        t0 = perf_counter()
        for command, argv in self.commands(self.inputs[k], op.opdir, op):
            with span(f"cli.{command}") if span else contextlib.nullcontext():
                t = perf_counter()
                code, out, err = invoke(argv)
                op.calls.append((command, perf_counter() - t))
            if code != 0:
                op.errors.append(f"{command} exited {code}: {err.strip()[:200]}")
                break
            self.read_stdout(parse_fields(out), op)
        op.wall_s = perf_counter() - t0
        return op

    def commands(self, inp: dict[str, Path], opdir: Path, op: OpResult):
        """Yield (command name, argv) pairs; fills ``op.outputs`` and ``op.records``."""
        raise NotImplementedError

    def read_stdout(self, fields: dict[str, str], op: OpResult) -> None:
        if "fidelity" in fields:
            op.fidelity = float(fields["fidelity"])
        if "nuisance omega_scale" in fields:
            op.nuisance = float(fields["nuisance omega_scale"])

    # -- checks ---------------------------------------------------------------

    def check(self, op: OpResult) -> None:
        """Check the outputs of ``op``; appends what failed to ``op.errors``."""
        op.bytes = sum(p.stat().st_size for p in op.outputs.values() if p.exists())
        if not op.errors:
            try:
                self.check_outputs(op)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                op.errors.append(f"bad output: {type(exc).__name__}: {exc}")
        self._check_repeat(op)

    def check_outputs(self, op: OpResult) -> None:
        raise NotImplementedError

    def _check_estimate(self, path: Path, op: OpResult) -> None:
        result, _meta = read_estimate(path)
        if not np.all(np.isfinite(result.rho_ml)):
            raise ValueError("rho_ml has non-finite entries")
        check_density_matrix(result.rho_ml)
        if result.rank != self.d2 - 1:
            op.errors.append(f"estimate rank {result.rank}, expected {self.d2 - 1}")
        op.converged = result.nuisance_converged

    def _check_repeat(self, op: OpResult) -> None:
        """Keep the first good outputs per input; later ones must match byte for byte."""
        ref = self.reference.get(op.input_index)
        if ref is None and not op.errors:
            self.reference[op.input_index] = op.outputs
            return
        if ref is not None and not op.errors:
            for key, path in op.outputs.items():
                if not filecmp.cmp(ref[key], path, shallow=False):
                    op.errors.append(f"{key} differs from an earlier op with the same seed")
        shutil.rmtree(op.opdir, ignore_errors=True)


class SetupError(RuntimeError):
    """A generated input is unusable; the run stops without a result."""


class PipelineF5(Workload):
    name = "pipeline_f5"
    why = (
        "simulate, estimate --prefix-curve and wigner at F=5 (d^2=121): the gamma=0 "
        "unitary path, where dynamics (expm, history, coordinate maps) dominates"
    )
    dominant = ("dynamics",)
    base_config = "configs/cat.json"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.F = 1 if self.tiny else 5
        self.grid = ("8", "8") if self.tiny else ("181", "360")

    def generate(self):
        for i, s in enumerate(self.noise_seeds):
            doc = self._document(s)
            doc["F"] = self.F
            self.inputs.append({"config": self._write_config(doc, f"pipeline_{i}.json")})
        return [inp["config"] for inp in self.inputs]

    def commands(self, inp, opdir, op):
        out = op.outputs
        out.update(
            record=opdir / "record.json",
            estimate=opdir / "estimate.json",
            curve=opdir / "curve.csv",
            wigner=opdir / "wigner.csv",
        )
        cfg = str(inp["config"])
        yield "simulate", ["simulate", cfg, str(out["record"])]
        op.records = 1
        yield "estimate", ["estimate", str(out["record"]), cfg, str(out["estimate"]),
                           "--prefix-curve", str(out["curve"])]
        yield "wigner", ["wigner", str(out["estimate"]), str(out["wigner"]),
                         "--n-theta", self.grid[0], "--n-phi", self.grid[1]]

    def check_outputs(self, op):
        self._check_estimate(op.outputs["estimate"], op)
        n_theta, n_phi = map(int, self.grid)
        with open(op.outputs["wigner"], encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != 4 + n_theta * n_phi:
            op.errors.append(f"wigner CSV has {lines} lines, expected {4 + n_theta * n_phi}")
        if op.fidelity is None:
            op.errors.append("estimate printed no fidelity")


class SweepF3(Workload):
    name = "sweep_f3"
    why = (
        "one sweep of 50 trials x 3 states against one history: batched noise "
        "synthesis, estimation, projection and fidelity on the thread pool; no propagation"
    )
    dominant = ("measurement", "rand", "estimator")
    base_config = "configs/paper_states_sweep.json"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trials = 2 if self.tiny else 50
        self.jobs = len(os.sched_getaffinity(0))  # what nproc reports

    def generate(self):
        for i, s in enumerate(self.noise_seeds):
            doc = self._document(s)
            if self.tiny:
                doc["F"] = 1
                doc["states"][0]["m"] = -1
            self.n_states = len(doc["states"])
            self.inputs.append({"config": self._write_config(doc, f"sweep_{i}.json")})
        return [inp["config"] for inp in self.inputs]

    def commands(self, inp, opdir, op):
        op.outputs["csv"] = opdir / "sweep.csv"
        op.records = self.trials * self.n_states
        yield "sweep", ["sweep", str(inp["config"]), str(self.trials), str(op.outputs["csv"]),
                        "--jobs", str(self.jobs)]

    def check_outputs(self, op):
        with open(op.outputs["csv"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != op.records:
            op.errors.append(f"sweep CSV has {len(rows)} rows, expected {op.records}")
        fids = [float(r.rsplit(",", 1)[1]) for r in rows]
        if not all(0.0 <= f <= 1.0 for f in fids):
            op.errors.append("sweep fidelity outside [0, 1]")
        op.fidelity = sum(fids) / len(fids) if fids else None


class NuisanceF3Lindblad(Workload):
    name = "nuisance_f3_lindblad"
    why = (
        "estimate --nuisance omega_scale on a record with 2% Larmor drift at gamma=200: "
        "many small Lindblad histories (one per Nelder-Mead evaluation) instead of one large one"
    )
    dominant = ("dynamics",)
    base_config = "configs/cat.json"
    # The number of Nelder-Mead evaluations, and so the op time, depends on the
    # noise seed (some fits stop at a bound after 7); five seeds per run keep
    # the median op time steady from one benchmark seed to the next.
    n_inputs = 5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.F = 1 if self.tiny else 3

    def generate(self):
        written = []
        for i, s in enumerate(self.noise_seeds):
            doc = self._document(s)
            doc["F"] = self.F
            doc["waveform"]["gamma_dec"] = 200.0
            nominal = self._write_config(doc, f"nuisance_{i}.json")
            doc["waveform"]["omega_larmor"] *= DRIFT
            drifted = self._write_config(doc, f"nuisance_{i}_drift.json")
            self.inputs.append({"config": nominal, "drifted": drifted,
                                "record": self.workdir / f"nuisance_{i}_record.json"})
            written += [nominal, drifted]
        return written

    def setup(self):
        super().setup()
        for inp in self.inputs:
            code, _out, err = invoke(["simulate", str(inp["drifted"]), str(inp["record"])])
            if code != 0:
                raise SetupError(f"simulating the drifted record failed (exit {code}): {err}")

    def commands(self, inp, opdir, op):
        op.outputs["estimate"] = opdir / "estimate.json"
        op.records = 1
        argv = ["estimate", str(inp["record"]), str(inp["config"]), str(op.outputs["estimate"]),
                "--nuisance", NUISANCE_SPEC]
        if self.tiny:
            argv += ["--budget", "6"]
        yield "estimate", argv

    def check_outputs(self, op):
        self._check_estimate(op.outputs["estimate"], op)
        lo, hi = NUISANCE_BOUNDS
        if op.nuisance is None or not lo <= op.nuisance <= hi:
            op.errors.append(f"fitted omega_scale {op.nuisance} outside [{lo}, {hi}]")


WORKLOADS = {w.name: w for w in (PipelineF5, SweepF3, NuisanceF3Lindblad)}
