"""Command-line interface.

Subcommands cover the whole pipeline: ``simulate`` a measurement record,
``estimate`` a state from a record, ``sweep`` reconstruction statistics
over seeds, ``wigner`` for quasi-probability grids, ``design`` to optimize
a waveform, and ``check`` for informational completeness.

Exit codes: 0 success, 2 config/document parse error (missing, unknown or
malformed fields, non-finite numbers, a bad ``--nuisance`` entry, a numeric
option out of its range, ``sweep`` seeds past 2^64 - 1) or a file that cannot
be read or written, 3 invariant violation, 4 record does not match the config
(waveform fingerprint, spin size or sample grid), 5 waveform not
informationally complete. Output directories are checked before any work,
so a missing one leaves no file written. All randomness comes from seeds in
the config, so every command is deterministic and re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys as _sys

import numpy as np

from . import serialize
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .control_design import OBJECTIVES, completeness_report, optimize_waveform
from .dynamics import heisenberg_history, sample_times
from .estimator import (
    NUISANCE_NAMES,
    FingerprintMismatchError,
    _check_grid,
    estimate,
    estimate_batch,
    estimate_prefix_curve,
    estimate_with_nuisance,
    parse_estimate,
    write_estimate,
)
from .measurement import (
    noiseless_values,
    read_record,
    synthesize_record,
    synthesize_records,
    write_record,
)
from .metrics import _fidelities, fidelity
from .serialize import format_float as _f
from .spin_algebra import measured_observable
from .wigner import wigner_function, write_wigner_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_FINGERPRINT = 4
EXIT_INCOMPLETE = 5

# a fitted nuisance scale this close to a bound is reported as stopped there
_BOUND_TOL = 1e-9


def _history_for(config: ExperimentConfig):
    observable = measured_observable(config.spin_system())
    return heisenberg_history(config.waveform, observable, n_samples=config.n_samples)


def _check_output_dirs(*paths: str | None) -> None:
    """Fail as ``open`` would, before any work, on an output whose directory is missing."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_simulate(args) -> int:
    _check_output_dirs(args.out_record)
    config = load_config(args.config)
    history = _history_for(config)
    rho0 = config.single_state
    record = synthesize_record(rho0, history, config.sigma, config.seed, config.n_averaged)
    write_record(record, args.out_record)
    clean = noiseless_values(rho0, history)
    print(f"fingerprint: {record.waveform_fingerprint}")
    print(f"noiseless_rms: {_f(float(np.sqrt(np.mean(clean**2))))}")
    return EXIT_OK


def _parse_nuisance(spec: str) -> dict[str, tuple[float, float]]:
    params = {}
    for item in spec.split(","):
        pieces = item.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"bad --nuisance entry {item!r}; expected name:low:high")
        name, lo, hi = pieces
        if name in params:
            raise ConfigError(f"--nuisance names {name!r} more than once")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError as exc:
            raise ConfigError(f"bad --nuisance bounds in {item!r}") from exc
        if name not in NUISANCE_NAMES:
            raise ConfigError(f"unknown nuisance parameter {name!r}; valid: {NUISANCE_NAMES}")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError("nuisance bounds must be finite with lower < upper")
        if lo < 0:
            raise ConfigError(f"negative --nuisance bound in {item!r}; scales are nonnegative")
        params[name] = (lo, hi)
    return params


def cmd_estimate(args) -> int:
    _check_output_dirs(args.out_estimate, args.prefix_curve)
    record = read_record(args.record)
    config = load_config(args.config)
    if args.nuisance is not None:
        params = _parse_nuisance(args.nuisance)
        # the fit takes the record's spin and sample grid, which must be the config's
        _check_grid(record, config.spin_system().d,
                    sample_times(config.waveform, config.n_samples))
        result = estimate_with_nuisance(record, config.waveform, params, budget=args.budget)
        for name, value in result.nuisance.items():
            print(f"nuisance {name}: {_f(value)}")
            for bound in params[name]:
                if result.nuisance_converged and abs(value - bound) <= _BOUND_TOL:
                    print(f"warning: {name} fit stopped at its bound {bound!r}", file=_sys.stderr)
        if result.nuisance_converged is False:
            print(f"warning: nuisance fit stopped by --budget {args.budget} before it "
                  "converged; raise --budget", file=_sys.stderr)
    else:
        history = _history_for(config)
        result = estimate(record, history)

    truth = config.states[0][1] if len(config.states) == 1 else None
    skipped = points = None
    if args.prefix_curve is not None:
        if truth is None:
            skipped = "config does not name a single true state"
        elif args.nuisance is not None:
            # the record's fingerprint cannot match a rescaled waveform
            skipped = "not available together with --nuisance"
        else:
            points = estimate_prefix_curve(record, history, truth, stride=args.stride)
    write_estimate(result, args.out_estimate, record.waveform_fingerprint)
    if truth is not None:
        print(f"fidelity: {_f(fidelity(truth, result.rho_ml))}")
    if skipped:
        print(f"prefix curve skipped: {skipped}")
    if points is not None:
        with open(args.prefix_curve, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,fidelity,max_eigenvalue\n")
            for t, fid, top in points:
                fh.write(f"{_f(t)},{_f(fid)},{_f(top)}\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_output_dirs(args.out_csv)
    config = load_config(args.config)
    n_states = len(config.states)
    # row k is trial k // n_states of state k % n_states, with seed config.seed + k
    n_rows = args.n_trials * n_states
    if n_rows and config.seed + n_rows - 1 > 2**64 - 1:
        raise ConfigError(f"the last sweep seed, {config.seed + n_rows - 1}, does not fit "
                          "in 64 bits; lower noise.seed or the trial count")
    history = _history_for(config)
    # one state check, one signal and one sqrt(rho) per state
    by_state = [
        synthesize_records(
            rho, history, config.sigma,
            [config.seed + trial * n_states + state_index for trial in range(args.n_trials)],
            config.n_averaged,
        )
        for state_index, (_label, rho) in enumerate(config.states)
    ]
    results = estimate_batch([r for row in zip(*by_state) for r in row], history)
    fids_by_state = [
        _fidelities(rho, np.reshape([r.rho_ml for r in results[state_index::n_states]],
                                    (-1, history.d, history.d)))
        for state_index, (_label, rho) in enumerate(config.states)
    ]
    fids = [fid for row in zip(*fids_by_state) for fid in row]
    with open(args.out_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,state,seed,fidelity\n")
        for k, fid in enumerate(fids):
            trial, state_index = divmod(k, n_states)
            fh.write(f"{trial},{config.states[state_index][0]},{config.seed + k},{_f(fid)}\n")
    if fids:
        q1, q3 = np.percentile(fids, [25, 75])
        print(f"trials: {len(fids)}")
        print(f"mean_fidelity: {_f(float(np.mean(fids)))}")
        print(f"median_fidelity: {_f(float(np.median(fids)))}")
        print(f"iqr_fidelity: {_f(float(q3 - q1))}")
    else:
        print("trials: 0")
    return EXIT_OK


def cmd_wigner(args) -> int:
    _check_output_dirs(args.out_csv)
    doc = serialize.read_document(args.input, "input")
    rho = parse_estimate(doc)[0].rho_ml if "rho_ml" in doc else parse_config(doc).single_state
    grid = wigner_function(rho, n_theta=args.n_theta, n_phi=args.n_phi)
    write_wigner_csv(grid, args.out_csv)
    print(f"grid: {grid.n_theta}x{grid.n_phi}")
    return EXIT_OK


def cmd_design(args) -> int:
    _check_output_dirs(args.out_config)
    doc = serialize.read_document(args.config, "config")
    config = parse_config(doc)
    sys_ = config.spin_system()
    result = optimize_waveform(
        sys_, config.waveform, config.n_samples, budget=args.budget, seed=args.seed,
        objective=args.objective, sensitivity_weight=args.sensitivity_weight,
    )
    doc["waveform"]["phi"] = [float(p) for p in result.waveform.phi]
    serialize.dump_path(doc, args.out_config)
    print(f"objective: {_f(result.objective)}")
    print(f"evaluations: {args.budget}")
    print(f"fingerprint: {result.waveform.fingerprint()}")
    return EXIT_OK


def cmd_check(args) -> int:
    config = load_config(args.config)
    history = _history_for(config)
    report = completeness_report(history)
    print(f"rank: {report.rank}")
    print(f"required: {report.d * report.d - 1}")
    print(f"largest_singular_value: {_f(float(report.singular_values[0]))}")
    print(f"smallest_singular_value: {_f(float(report.singular_values[-1]))}")
    print(f"complete: {str(report.complete).lower()}")
    return EXIT_OK if report.complete else EXIT_INCOMPLETE


def _at_least(minimum, kind=int, below=math.inf):
    """argparse ``type``: a ``kind`` in [minimum, below); any other value, NaN too, exits 2."""
    def number(text: str):
        value = kind(text)
        if not minimum <= value < below:
            limit = f" and below {below}" if value >= minimum else ""
            raise argparse.ArgumentTypeError(f"must be at least {minimum}{limit}, got {value}")
        return value
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="Continuous weak-measurement tomography of a driven spin, at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a measurement record from a config")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("config")
    p.add_argument("out_record")

    p = sub.add_parser("estimate", help="reconstruct a state from a record")
    p.set_defaults(run=cmd_estimate)
    p.add_argument("record")
    p.add_argument("config")
    p.add_argument("out_estimate")
    p.add_argument("--prefix-curve", metavar="CSV", default=None,
                   help="also write a time-resolved fidelity/purity curve")
    p.add_argument("--stride", type=_at_least(1), default=5)
    p.add_argument("--nuisance", metavar="NAME:LO:HI[,...]", default=None,
                   help="co-estimate drive scale factors (skips the fingerprint check)")
    p.add_argument("--budget", type=_at_least(1), default=200,
                   help="most observable histories the --nuisance search builds, "
                        "its 9-point grid included")

    p = sub.add_parser("sweep", help="fidelity statistics over trial seeds")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("config")
    p.add_argument("n_trials", type=_at_least(0))
    p.add_argument("out_csv")
    p.add_argument("--jobs", type=int, default=4,
                   help="accepted and ignored; all records are estimated in one batch")

    p = sub.add_parser("wigner", help="Wigner-function grid of a config state or estimate")
    p.set_defaults(run=cmd_wigner)
    p.add_argument("input", help="config JSON or estimate JSON")
    p.add_argument("out_csv")
    p.add_argument("--n-theta", type=_at_least(8), default=181)
    p.add_argument("--n-phi", type=_at_least(8), default=360)

    p = sub.add_parser("design", help="optimize the field-angle schedule")
    p.set_defaults(run=cmd_design)
    p.add_argument("config")
    p.add_argument("out_config")
    p.add_argument("--budget", type=_at_least(1), default=50,
                   help="scored candidates, the template included")
    p.add_argument("--seed", type=_at_least(0, int, 2**64), default=0)
    p.add_argument("--objective", default="min_singular_value", choices=OBJECTIVES)
    p.add_argument("--sensitivity-weight", type=_at_least(0.0, float), default=0.0,
                   help="penalize conditioning loss under +-1%% Larmor drift")

    p = sub.add_parser("check", help="report informational completeness")
    p.set_defaults(run=cmd_check)
    p.add_argument("config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except FingerprintMismatchError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_FINGERPRINT
    except (serialize.DocumentError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
