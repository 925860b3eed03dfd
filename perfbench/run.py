"""spintomo benchmark: one workload per process, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``. The run generates its inputs from
``--seed`` under ``.perfbench/`` in the repository, checks that every
generated config is informationally complete, measures set-up time in fresh
interpreters, then runs ops back to back (one client, closed loop) for
``--seconds`` seconds, and at least once on every generated input. Every op's
outputs are checked; failed checks count in ``failed``.

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported. With ``--trace 1`` each op runs twice on the same input, untraced
and then traced, and the per-layer metrics come from the traced ops; the
difference between the two medians is ``trace.overhead_s``.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The benchmark does not set any BLAS threading variable: it records them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Metrics in BENCHMARK.json: (name, unit). The end-to-end ones are reported
# with --trace 0 and the per-layer ones with --trace 1, on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("dynamics.expm.calls", "count"),
    ("dynamics.expm.s", "s"),
    ("dynamics.heisenberg_history.calls", "count"),
    ("dynamics.heisenberg_history.self_s", "s"),
    ("dynamics.lindblad_superoperator.calls", "count"),
    ("dynamics.lindblad_superoperator.self_s", "s"),
    ("spin_algebra.state_to_coords.calls", "count"),
    ("spin_algebra.state_to_coords.s", "s"),
    ("spin_algebra.coords_to_state.calls", "count"),
    ("spin_algebra.coords_to_state.s", "s"),
    ("estimator.project_to_physical.calls", "count"),
    ("estimator.project_to_physical.s", "s"),
    ("metrics.fidelity.calls", "count"),
    ("metrics.fidelity.s", "s"),
    ("estimator.records_per_history", "ratio"),
    ("config.load_config.s", "s"),
    ("io.bytes_written", "bytes"),
    ("layer.cli.self_s", "s"),
    ("layer.config.self_s", "s"),
    ("layer.spin_algebra.self_s", "s"),
    ("layer.dynamics.self_s", "s"),
    ("layer.measurement.self_s", "s"),
    ("layer.estimator.self_s", "s"),
    ("layer.metrics.self_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test only")
    return p.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    for var in THREAD_VARS:
        record[var] = os.environ.get(var, "unset")
    return record


def measure_setup(config: Path, repeats: int) -> list[float]:
    """Seconds per fresh interpreter to import, parse ``config`` and fill caches."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tail(values: list[float]) -> tuple[float, int] | None:
    """Highest whole percentile with at least ten values beyond it, and that percentile."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # nearest-rank: ceil(pct/100 * n)
    return ordered[rank - 1], pct


def run_untraced(workload, seconds: float) -> list:
    ops = []
    start = perf_counter()
    while len(ops) < workload.n_inputs or perf_counter() - start < seconds:
        op = workload.run_op(len(ops), len(ops) % workload.n_inputs)
        workload.check(op)
        ops.append(op)
    return ops


def run_traced(workload, seconds: float, recorder) -> tuple[list, list, list]:
    """Pairs of ops on one input: untraced, then traced. Returns (untraced, traced, layers)."""
    plain, traced, layers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        k = len(traced) % workload.n_inputs
        op = workload.run_op(2 * len(traced), k)
        workload.check(op)
        plain.append(op)

        index = 2 * len(traced) + 1
        recorder.op = index
        with recorder.installed():
            with recorder.span("op") as root_span:
                op = workload.run_op(index, k, span=recorder.span)
        spans = recorder.finish_op(index)
        counters = recorder.take_counters()
        workload.check(op)
        traced.append(op)
        layers.append(layer_metrics(op, root_span, spans, counters))
    return plain, traced, layers


def layer_metrics(op, root_span, spans, counters) -> dict[str, float]:
    """Per-layer numbers of one traced op."""
    stats: dict[str, list] = {}
    for s in spans:
        if s is root_span:
            continue
        entry = stats.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.duration
        entry[2] += s.self_s
    for name, values in counters.items():
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            entry[i] += values[i]

    m: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for name, (calls, total, own) in stats.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = total
        m[f"{name}.self_s"] = own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    for layer, own in layer_self.items():
        m[f"layer.{layer}.self_s"] = own

    by_id = {s.id: s for s in spans}

    def inside(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    histories = [s for s in spans if s.name == "dynamics.heisenberg_history"]
    m["estimator.nuisance.evals"] = sum(
        inside(s, "estimator.estimate_with_nuisance") for s in histories
    )
    if op.converged is not None:
        m["estimator.nuisance.converged"] = float(op.converged)
    records = stats.get("estimator.estimate", [0])[0] + stats.get(
        "estimator.estimate_with_nuisance", [0])[0]
    m["estimator.records_per_history"] = records / len(histories) if histories else 0.0
    sweeps = [s for s in spans if s.name == "cli.sweep"]
    if sweeps:
        tasks = sum(s.duration for s in spans if s.cross)
        m["cli.sweep.task_s_per_wall_s"] = tasks / sum(s.duration for s in sweeps)
    m["io.bytes_written"] = op.bytes
    m["trace.uncovered_s"] = root_span.self_s
    total_self = root_span.self_s + sum(own for _c, _t, own in stats.values())
    m["trace.overlap_s"] = total_self - root_span.duration
    m["trace.op_s"] = root_span.duration
    return m


def mean_per_op(layers: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({k for m in layers for k in m})
    return {k: sum(m.get(k, 0.0) for m in layers) / len(layers) for k in names}


def first_per_input(ops, attr) -> list[float]:
    """Value of ``attr`` from the first good op on each input (fixed seed list)."""
    seen = {}
    for op in ops:
        value = getattr(op, attr)
        if not op.errors and value is not None and op.input_index not in seen:
            seen[op.input_index] = value
    return [seen[k] for k in sorted(seen)]


def fmt(x: float) -> str:
    return f"{x:.6g}"


def unit_of(name: str) -> str:
    units = dict(END_TO_END + PER_LAYER, **{"cli.sweep.task_s_per_wall_s": "ratio"})
    if name in units:
        return units[name]
    if name.endswith((".calls", ".evals")):
        return "count"
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio"


def report_end_to_end(workload, ops, setup_times) -> dict[str, float]:
    from workloads import DRIFT

    good = [op for op in ops if not op.errors]
    walls = [op.wall_s for op in (good or ops)]
    setup_s = statistics.median(setup_times)
    p50 = statistics.median(walls)
    records = sum(op.records for op in good)
    records_per_s = records / sum(op.wall_s for op in ops)
    fids = first_per_input(ops, "fidelity")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup_s: {fmt(setup_s)} s (median of {len(setup_times)} fresh interpreters)")
    print(f"op_p50_s: {fmt(p50)} s (median of {len(walls)} ops)")
    t = tail(walls)
    if t is None:
        print(f"op_tail_s: n/a s ({len(walls)} ops; a tail needs at least 11)")
    else:
        print(f"op_tail_s: {fmt(t[0])} s (p{t[1]} of {len(walls)} ops, 10 or more beyond it)")
    print(f"records_per_s: {fmt(records_per_s)} 1/s ({records} records in {len(ops)} ops)")
    if fids:
        print(f"mean_fidelity: {fmt(statistics.fmean(fids))} 1 "
              f"(mean over {len(fids)} noise seeds {workload.noise_seeds})")
    if workload.name == "nuisance_f3_lindblad":
        fits = first_per_input(ops, "nuisance")
        errs = [abs(x - DRIFT) for x in fits]
        if errs:
            print(f"drift_abs_err: {fmt(statistics.fmean(errs))} 1 "
                  f"(mean |omega_scale - {DRIFT}| over {len(errs)} noise seeds; fits {fits})")
    failed = len(ops) - len(good)
    print(f"fail_ratio: {fmt(failed / len(ops))} 1 ({failed} of {len(ops)} ops failed)")
    print(f"peak_rss_mb: {fmt(peak)} MB")
    per_command: dict[str, list[float]] = {}
    for op in good:
        for command, seconds in op.calls:
            per_command.setdefault(command, []).append(seconds)
    for command, values in per_command.items():
        print(f"  cli.{command}.p50_s: {fmt(statistics.median(values))} s (n={len(values)})")
    return {"setup_s": setup_s, "op_p50_s": p50, "peak_rss_mb": peak}


def report_layers(workload, plain, traced, layers) -> dict[str, float]:
    per_op = mean_per_op(layers)
    good_plain = [op.wall_s for op in plain if not op.errors] or [op.wall_s for op in plain]
    good_traced = [op.wall_s for op in traced if not op.errors] or [op.wall_s for op in traced]
    per_op["trace.overhead_s"] = statistics.median(good_traced) - statistics.median(good_plain)
    print(f"traced ops: {len(traced)}; untraced ops: {len(plain)}; values are per traced op")
    print(f"trace.overhead_s: {fmt(per_op['trace.overhead_s'])} s "
          f"(traced p50 {fmt(statistics.median(good_traced))} s - untraced p50 "
          f"{fmt(statistics.median(good_plain))} s)")
    for name in sorted(per_op):
        if not name.startswith(("layer.", "trace.")):
            print(f"  {name}: {fmt(per_op[name])} {unit_of(name)}")

    op_s = per_op["trace.op_s"]
    layer_self = {k[len("layer."):-len(".self_s")]: v for k, v in per_op.items()
                  if k.startswith("layer.")}
    uncovered, overlap = per_op["trace.uncovered_s"], per_op["trace.overlap_s"]
    busy = sum(layer_self.values()) + uncovered
    print("self time per layer (share of all self time, pool threads included):")
    for layer, own in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  layer.{layer}.self_s: {fmt(own)} s ({100 * own / busy:.1f}%)")
    print(f"  trace.uncovered_s: {fmt(uncovered)} s ({100 * uncovered / busy:.1f}%)")
    print(f"  trace.overlap_s: {fmt(overlap)} s (self time run in parallel on pool threads)")
    accounted = busy - overlap
    print(f"accounting: sum of layer self times + uncovered - overlap = {fmt(accounted)} s; "
          f"traced op wall = {fmt(op_s)} s")
    predicted = workload.dominant
    group = sum(layer_self.get(layer, 0.0) for layer in predicted)
    others = {k: v for k, v in layer_self.items() if k not in predicted}
    top_other = max(others.items(), key=lambda kv: kv[1], default=("none", 0.0))
    verdict = "matches" if group >= top_other[1] else "MISMATCH"
    print(f"dominant layers: predicted {'+'.join(predicted)} = {fmt(group)} s; largest other "
          f"layer {top_other[0]} = {fmt(top_other[1])} s; prediction {verdict}")
    return per_op


def run(args) -> dict | None:
    from tracer import Recorder
    from workloads import WORKLOADS, SetupError
    import setup_probe

    machine = machine_record()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    cls = WORKLOADS[args.workload]
    print(f"workload: {cls.name}: {cls.why}")
    print(f"loop: closed, 1 client, {args.seconds} s and at least one op per input")

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=SCRATCH))
    try:
        workload = cls(ROOT, workdir, args.seed, tiny=args.tiny)
        try:
            workload.setup()
        except SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return None
        print(f"inputs: noise seeds {workload.noise_seeds}; d^2 = {workload.d2}")
        config = workload.inputs[0]["config"]
        setup_times = measure_setup(config, 2 if args.tiny else SETUP_REPEATS)
        setup_probe.prepare(config)

        if args.trace:
            recorder = Recorder()
            plain, traced, layers = run_traced(workload, args.seconds, recorder)
            ops = plain + traced
            metrics = report_layers(workload, plain, traced, layers)
            names = PER_LAYER
            SCRATCH.joinpath("traces").mkdir(exist_ok=True)
            trace_path = SCRATCH / "traces" / f"{cls.name}-seed{args.seed}.jsonl"
            recorder.write_jsonl(trace_path, {"workload": cls.name, "seed": args.seed,
                                              "machine": machine})
            print(f"spans: {len(recorder.spans)} written to {trace_path.relative_to(ROOT)}")
        else:
            ops = run_untraced(workload, args.seconds)
            metrics = report_end_to_end(workload, ops, setup_times)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op.errors]
    for op in failed:
        print(f"failed op {op.index} (input {op.input_index}): {'; '.join(op.errors)}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spintomo" / "__init__.py").is_file():
        print(f"error: no spintomo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spintomo

    if Path(spintomo.__file__).resolve().parent != SRC / "spintomo":
        print(f"error: imported spintomo from {spintomo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / WORKLOADS[args.workload].base_config).is_file():
        print(f"error: missing {WORKLOADS[args.workload].base_config}", file=sys.stderr)
        return 2
    result = run(args)
    if result is None:
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
