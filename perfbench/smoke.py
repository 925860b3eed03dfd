"""Smoke test of the benchmark at tiny sizes (about a minute).

Usage (from the repository root):

    python3 perfbench/smoke.py

Checks that:
- BENCHMARK.json names the workloads, "why" sentences and metrics that
  run.py and workloads.py define;
- every workload, untraced and traced, prints each of its BENCHMARK.json
  metrics with its unit, both as a human-readable line and in the final
  JSON object;
- a corrupted generated record (truncated, or holding a NaN) counts as a
  failed op in ``fail_ratio`` instead of ending the run;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, NuisanceF3Lindblad  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def bench(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def check_manifest() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"]: w["why"] for w in spec["workloads"]}
          == {name: cls.why for name, cls in WORKLOADS.items()},
          "BENCHMARK.json workloads differ from workloads.py")
    for key, defined in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        check([(m["name"], m["unit"]) for m in spec[key]] == list(defined),
              f"BENCHMARK.json {key} differs from run.py")
    return spec


def check_outputs(spec: dict) -> None:
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", name, "--seed", "3", "--seconds", "0.2",
                          "--trace", str(trace), "--tiny"])
            where = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: ops failed: {proc.stdout}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{where}: metrics {got} != {expected}")
            for metric, unit in expected.items():
                check(any(line.strip().startswith(f"{metric}: ") and f" {unit}" in line
                          for line in lines[:-1]),
                      f"{where}: no human-readable line for {metric} in {unit}")
            print(f"ok: {where} prints {len(expected)} metrics with units")


CORRUPTIONS = {
    "truncated": lambda text: text[:200],
    "NaN value": lambda text: re.sub(r'"values":\[[^,]+,', '"values":[NaN,', text, count=1),
}


def check_corrupted_record(kind: str) -> None:
    run.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.SCRATCH))
    try:
        workload = NuisanceF3Lindblad(ROOT, workdir, seed=3, tiny=True)
        workload.setup()
        record = workload.inputs[0]["record"]
        corrupted = CORRUPTIONS[kind](record.read_text(encoding="utf-8"))
        check(corrupted != record.read_text(encoding="utf-8"), f"{kind}: record unchanged")
        record.write_text(corrupted, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ops = run.run_untraced(workload, 0.0)
            run.report_end_to_end(workload, ops, [1.0])
        failed = [op for op in ops if op.errors]
        check([op.input_index for op in failed] == [0],
              f"expected only the op on the corrupted record to fail, got {failed}")
        check(f"fail_ratio: {run.fmt(1 / len(ops))} " in out.getvalue(),
              f"fail_ratio line missing or wrong:\n{out.getvalue()}")
        print(f"ok: {kind} record counted as 1 failed op of {len(ops)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    run.SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "sweep_f3", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"ok: bare directory exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = check_manifest()
    print("ok: BENCHMARK.json matches run.py and workloads.py")
    check_outputs(spec)
    for kind in CORRUPTIONS:
        check_corrupted_record(kind)
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
