import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import spintomo
from helpers import sweep_reference
from spintomo import (ConfigError, RecordFormatError, cli, heisenberg_histories, load_config,
                      measured_observable, parse_config)
from spintomo.cli import build_parser, main
from spintomo.estimator import _solve
from spintomo.measurement import read_record
from spintomo.serialize import DocumentError, spin_dimension


SHIPPED = pathlib.Path(__file__).resolve().parent.parent / "configs"


def base_config(**overrides):
    doc = {
        "version": 1,
        "F": 3,
        "waveform": {
            "n_steps": 30,
            "dt": 5e-5,
            "phi": "random:10",
            "omega_larmor": 62831.853071795864,
            "chi": 37699.11184307752,
            "gamma_dec": 0.0,
            "jump_preset": "isotropic",
        },
        "sampling": {"n_samples": 150},
        "noise": {"sigma": 0.9, "seed": 7, "n_averaged": 1},
        "state": {"kind": "basis_state", "m": -3},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_golden_config(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        assert config.F == 3.0
        assert config.waveform.n_steps == 30
        assert config.n_samples == 150
        assert len(config.states) == 1
        assert config.states[0][0] == "basis_state"

    def test_unknown_key_named(self, tmp_path):
        doc = base_config()
        doc["waveform"]["wobble"] = 1
        with pytest.raises(ConfigError, match="wobble"):
            load_config(write_config(tmp_path, doc))

    def test_missing_key_named(self, tmp_path):
        doc = base_config()
        del doc["waveform"]["omega_larmor"]
        with pytest.raises(ConfigError, match="omega_larmor"):
            load_config(write_config(tmp_path, doc))

    def test_bad_version(self, tmp_path):
        with pytest.raises(ConfigError, match="version"):
            load_config(write_config(tmp_path, base_config(version=3)))

    def test_explicit_phi_list(self, tmp_path):
        doc = base_config()
        doc["waveform"]["phi"] = [0.1] * 30
        config = load_config(write_config(tmp_path, doc))
        assert config.waveform.phi == (0.1,) * 30

    def test_sample_alignment_checked(self, tmp_path):
        doc = base_config()
        doc["sampling"]["n_samples"] = 100
        with pytest.raises(ConfigError, match="n_samples"):
            load_config(write_config(tmp_path, doc))

    def test_state_and_states_exclusive(self, tmp_path):
        doc = base_config()
        doc["states"] = [doc["state"]]
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, doc))

    def test_matrix_state(self, tmp_path):
        doc = base_config()
        rho = np.eye(7) / 7
        doc["state"] = {
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]
        }
        config = load_config(write_config(tmp_path, doc))
        assert np.max(np.abs(config.states[0][1] - rho)) < 1e-15

    def test_bad_state_parameter(self, tmp_path):
        doc = base_config(state={"kind": "basis_state", "m": 9})
        with pytest.raises(ConfigError, match="m=9"):
            load_config(write_config(tmp_path, doc))


class TestCliPipeline:
    def test_simulate_then_estimate_noiseless(self, tmp_path, capsys):
        doc = base_config()
        doc["noise"]["sigma"] = 0.0
        cfg = write_config(tmp_path, doc)
        record = str(tmp_path / "record.json")
        est = str(tmp_path / "estimate.json")
        assert main(["simulate", cfg, record]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out and "noiseless_rms:" in out
        assert main(["estimate", record, cfg, est]) == 0
        out = capsys.readouterr().out
        fid = float(out.split("fidelity:")[1].strip().splitlines()[0])
        assert fid >= 0.999999
        assert json.loads((tmp_path / "estimate.json").read_text())["rank"] == 48

    def test_mixed_state_zero_values(self, tmp_path):
        doc = base_config(state={"kind": "mixed"})
        doc["noise"]["sigma"] = 0.0
        cfg = write_config(tmp_path, doc)
        record_path = str(tmp_path / "record.json")
        assert main(["simulate", cfg, record_path]) == 0
        record = read_record(record_path)
        assert np.max(np.abs(record.values)) < 1e-10

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["simulate", cfg, r1]) == 0
        assert main(["simulate", cfg, r2]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_fingerprint_mismatch_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        record = str(tmp_path / "record.json")
        assert main(["simulate", cfg, record]) == 0
        other = base_config()
        other["waveform"]["chi"] = 1000.0
        cfg2 = write_config(tmp_path, other, "other.json")
        assert main(["estimate", record, cfg2, str(tmp_path / "e.json")]) == 4

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        doc = base_config()
        doc["waveform"]["bogus_knob"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, str(tmp_path / "r.json")]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_prefix_curve_rows(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        record = str(tmp_path / "record.json")
        curve = tmp_path / "curve.csv"
        assert main(["simulate", cfg, record]) == 0
        assert main(
            ["estimate", record, cfg, str(tmp_path / "e.json"), "--prefix-curve", str(curve)]
        ) == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == "time,fidelity,max_eigenvalue"
        assert len(lines) == 1 + (150 // 5 + 1)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1 / 7, abs=1e-12)

    def test_nuisance_flag(self, tmp_path, capsys):
        doc = base_config()
        doc["noise"]["sigma"] = 0.0
        cfg = write_config(tmp_path, doc)
        record = str(tmp_path / "record.json")
        assert main(["simulate", cfg, record]) == 0
        capsys.readouterr()
        code = main(
            [
                "estimate", record, cfg, str(tmp_path / "e.json"),
                "--nuisance", "omega_scale:0.99:1.01", "--budget", "60",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        scale = float(captured.out.split("nuisance omega_scale:")[1].strip().splitlines()[0])
        assert abs(scale - 1.0) < 2e-3
        assert "warning" not in captured.err

    def test_repeated_nuisance_name_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        record, est = str(tmp_path / "record.json"), tmp_path / "e.json"
        assert main(["simulate", cfg, record]) == 0
        capsys.readouterr()
        argv = ["estimate", record, cfg, str(est),
                "--nuisance", "omega_scale:0.99:1.01,omega_scale:0.98:1.02"]
        assert main(argv) == 2
        assert "omega_scale" in capsys.readouterr().err
        assert not est.exists()

    @pytest.mark.parametrize("spec, message", [
        ("omega_scale:nan:1.05", "finite"),
        ("omega_scale:0.95:inf", "finite"),
        ("omega_scale:1.05:0.95", "lower < upper"),
        ("bogus:0.9:1.1", "unknown nuisance parameter 'bogus'"),
        # a negative scale is a malformed entry, refused before any search starts
        ("omega_scale:-0.5:1.05", "negative --nuisance bound in 'omega_scale:-0.5:1.05'"),
        ("chi_scale:-2:-1", "negative --nuisance bound in 'chi_scale:-2:-1'"),
    ], ids=["nan_lower", "inf_upper", "reversed", "unknown_name", "negative_lower",
            "negative_both"])
    def test_bad_nuisance_spec_exit_2(self, tmp_path, capsys, spec, message):
        cfg = write_config(tmp_path, base_config())
        record, est = str(tmp_path / "record.json"), tmp_path / "e.json"
        assert main(["simulate", cfg, record]) == 0
        capsys.readouterr()
        assert main(["estimate", record, cfg, str(est), "--nuisance", spec]) == 2
        assert message in capsys.readouterr().err
        assert not est.exists()

    def test_empty_nuisance_spec_exit_2(self, tmp_path, capsys):
        # an empty --nuisance names no scale: a bad entry, not a plain estimate
        cfg = write_config(tmp_path, base_config())
        record, est, curve = (str(tmp_path / name) for name in ("record.json", "e.json", "c.csv"))
        assert main(["simulate", cfg, record]) == 0
        capsys.readouterr()
        argv = ["estimate", record, cfg, est, "--nuisance", "", "--prefix-curve", curve]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: bad --nuisance entry ''; expected "
                                           "name:low:high\n")
        assert not (tmp_path / "e.json").exists() and not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("curve, stride, code", [
        ("no_dir/c.csv", "5", 2),
    ], ids=["curve_dir_missing"])
    def test_failed_prefix_curve_writes_no_estimate(self, tmp_path, capsys, curve, stride, code):
        cfg = write_config(tmp_path, base_config())
        record, est = str(tmp_path / "record.json"), tmp_path / "e.json"
        assert main(["simulate", cfg, record]) == 0
        capsys.readouterr()
        argv = ["estimate", record, cfg, str(est),
                "--prefix-curve", str(tmp_path / curve), "--stride", stride]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not est.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "{record}", "{cfg}", "{out}", "--prefix-curve", "{csv}", "--stride", "0"],
        ["estimate", "{record}", "{cfg}", "{out}", "--budget", "0"],
        ["estimate", "{record}", "{cfg}", "{out}", "--nuisance", "omega_scale:0.95:1.05",
         "--budget", "0"],
        ["design", "{cfg}", "{out}", "--budget", "0"],
        ["wigner", "{cfg}", "{csv}", "--n-theta", "0"],
        ["wigner", "{cfg}", "{csv}", "--n-phi", "7"],
        ["wigner", "{cfg}", "{csv}", "--n-theta", "-2"],
        ["sweep", "{cfg}", "-1", "{csv}"],
        # the design options below used to be checked only after parsing, or never:
        # a NaN weight was ignored, an infinite one failed after writing the config,
        # and a negative weight or seed exited 3 as an invariant violation
        ["design", "{cfg}", "{out}", "--seed=-1"],
        ["design", "{cfg}", "{out}", f"--seed={2**64}"],
        ["design", "{cfg}", "{out}", "--sensitivity-weight=nan"],
        ["design", "{cfg}", "{out}", "--sensitivity-weight=inf"],
        ["design", "{cfg}", "{out}", "--sensitivity-weight=-1"],
    ], ids=["stride_0", "budget_0", "nuisance_budget_0", "design_budget_0", "n_theta_0",
            "n_phi_7", "n_theta_negative", "sweep_trials_negative", "design_seed_negative",
            "design_seed_65_bits", "design_weight_nan", "design_weight_inf",
            "design_weight_negative"])
    def test_out_of_range_integer_option_exit_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, base_config())
        record = tmp_path / "record.json"
        assert main(["simulate", cfg, str(record)]) == 0
        capsys.readouterr()
        out, csv = tmp_path / "out.json", tmp_path / "out.csv"
        paths = {"cfg": cfg, "record": record, "out": out, "csv": csv}
        with pytest.raises(SystemExit) as info:
            main([arg.format(**paths) for arg in argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at least" in captured.err
        assert not out.exists() and not csv.exists()

    @staticmethod
    def _drifted_record(tmp_path, seed, drift):
        """The shipped cat config at gamma = 200 and its record under a drive scaled by drift."""
        doc = json.loads((SHIPPED / "cat.json").read_text())
        doc["waveform"]["gamma_dec"] = 200.0
        doc["noise"]["seed"] = seed
        nominal = write_config(tmp_path, doc)
        doc["waveform"]["omega_larmor"] *= drift
        drifted = write_config(tmp_path, doc, "drifted.json")
        record = str(tmp_path / "record.json")
        assert main(["simulate", drifted, record]) == 0
        return nominal, record

    @pytest.mark.parametrize("seed", [3, 13])
    def test_nuisance_fit_reaches_profile_minimum(self, tmp_path, seed):
        # a bounded Nelder-Mead railed onto the upper bound on these noise
        # seeds (residual 10.097 and 8.908) although the profile is lower
        # inside the interval (10.055 near 1.040, 8.867 near 1.041)
        nominal, record = self._drifted_record(tmp_path, seed, 1.02)
        est = tmp_path / "e.json"
        argv = ["estimate", record, nominal, str(est), "--nuisance", "omega_scale:0.95:1.05"]
        assert main(argv) == 0
        fitted = json.loads(est.read_text())["residual_norm"]
        config, rec = load_config(nominal), read_record(record)
        scaled = [config.waveform.with_scales(omega_scale=scale)
                  for scale in np.linspace(0.95, 1.05, 21)]
        observable = measured_observable(config.spin_system())
        histories = heisenberg_histories(scaled, observable, rec.n_samples)
        profile = min(_solve(rec.values[None], h.design_matrix)[1][0] for h in histories)
        assert fitted <= profile * (1 + 1e-9)

    def test_nuisance_fit_stopped_at_bound_warns(self, tmp_path, capsys):
        # with an 8% fast drive the profile minimum lies beyond the upper bound
        nominal, record = self._drifted_record(tmp_path, 13, 1.08)
        est = tmp_path / "e.json"
        capsys.readouterr()
        argv = ["estimate", record, nominal, str(est), "--nuisance", "omega_scale:0.95:1.05"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        printed = float(captured.out.split("nuisance omega_scale:")[1].split()[0])
        assert abs(printed - 1.05) <= 1e-9
        assert captured.err == "warning: omega_scale fit stopped at its bound 1.05\n"
        written = json.loads(est.read_text())
        assert abs(written["nuisance"]["omega_scale"] - 1.05) <= 1e-9
        assert written["nuisance_converged"] is True

    @pytest.mark.parametrize("budget", [1, 3, 9])
    def test_nuisance_fit_stopped_by_budget_warns(self, tmp_path, capsys, budget):
        # one history at the lower bound is where the budget stopped the fit,
        # not a profile minimum on the bound, so only the budget is named
        nominal, record = self._drifted_record(tmp_path, 7, 1.02)
        est = tmp_path / "e.json"
        capsys.readouterr()
        argv = ["estimate", record, nominal, str(est), "--nuisance", "omega_scale:0.95:1.05",
                "--budget", str(budget)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"warning: nuisance fit stopped by --budget {budget} before it "
                                "converged; raise --budget\n")
        assert captured.out.startswith("nuisance omega_scale: ")
        assert json.loads(est.read_text())["nuisance_converged"] is False


class TestCliSweep:
    def test_empty_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", cfg, "0", str(out_csv)]) == 0
        assert out_csv.read_text() == "trial,state,seed,fidelity\n"

    def test_noiseless_sweep_perfect(self, tmp_path, capsys):
        doc = base_config()
        del doc["state"]
        doc["states"] = [{"kind": "basis_state", "m": -3}, {"kind": "mixed"}]
        doc["noise"]["sigma"] = 0.0
        cfg = write_config(tmp_path, doc)
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", cfg, "2", str(out_csv)]) == 0
        out = capsys.readouterr().out
        mean = float(out.split("mean_fidelity:")[1].strip().splitlines()[0])
        assert mean >= 1 - 1e-6
        assert len(out_csv.read_text().splitlines()) == 1 + 4

    @staticmethod
    def _paper_states_config(tmp_path, F=3, **noise):
        doc = base_config(F=F)
        del doc["state"]
        doc["states"] = [{"kind": "basis_state", "m": -F}, {"kind": "cat"}, {"kind": "mixed"}]
        doc["noise"].update(noise)
        return write_config(tmp_path, doc)

    @pytest.mark.parametrize("F, noise, n_trials", [
        (3, {}, 6),
        (1, {}, 6),
        (3, {"sigma": 0.0}, 3),
        (1, {"sigma": 0.0}, 3),
        (3, {"n_averaged": 4}, 4),
        # the last row's seed is 2^64 - 1 exactly
        (3, {"seed": 2**64 - 15}, 5),
    ], ids=["F3", "F1", "F3_sigma0", "F1_sigma0", "n_averaged_4", "seed_near_max"])
    def test_sweep_matches_record_by_record_reference(self, tmp_path, capsys, F, noise, n_trials):
        cfg = self._paper_states_config(tmp_path, F, **noise)
        out_csv = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert main(["sweep", cfg, str(n_trials), str(out_csv)]) == 0
        csv, stdout = sweep_reference(load_config(cfg), n_trials)
        assert out_csv.read_text() == csv
        assert capsys.readouterr().out == stdout

    def test_sweep_seed_overflow_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        # 5 trials of 3 states from seed 2^64 - 10 need seeds up to 2^64 + 4; this
        # exited 3 ("seed must fit in 64 bits") after building the history
        cfg = self._paper_states_config(tmp_path, seed=2**64 - 10)
        monkeypatch.setattr(cli, "_history_for", lambda config: pytest.fail("history built"))
        out_csv = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert main(["sweep", cfg, "5", str(out_csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(2**64 + 4) in captured.err
        assert not out_csv.exists()

    def test_concurrent_sweep_deterministic(self, tmp_path):
        doc = base_config()
        del doc["state"]
        doc["states"] = [{"kind": "cat"}, {"kind": "mixed"}]
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", cfg, "4", str(a), "--jobs", "4"]) == 0
        assert main(["sweep", cfg, "4", str(b), "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCliWignerDesignCheck:
    def test_wigner_of_mixed_config(self, tmp_path):
        doc = base_config(state={"kind": "mixed"})
        cfg = write_config(tmp_path, doc)
        out_csv = tmp_path / "w.csv"
        assert main(["wigner", cfg, str(out_csv), "--n-theta", "12", "--n-phi", "16"]) == 0
        rows = out_csv.read_text().splitlines()[4:]
        values = np.array([float(r.split(",")[2]) for r in rows])
        assert np.max(np.abs(values - 1 / (4 * np.pi))) < 1e-12

    def test_wigner_of_estimate_document(self, tmp_path):
        doc = base_config()
        doc["noise"]["sigma"] = 0.0
        cfg = write_config(tmp_path, doc)
        record = str(tmp_path / "record.json")
        est = str(tmp_path / "estimate.json")
        assert main(["simulate", cfg, record]) == 0
        assert main(["estimate", record, cfg, est]) == 0
        assert main(["wigner", est, str(tmp_path / "w.csv"), "--n-theta", "10", "--n-phi", "10"]) == 0

    def test_check_incomplete_exit_5(self, tmp_path, capsys):
        doc = base_config()
        doc["waveform"]["chi"] = 0.0
        cfg = write_config(tmp_path, doc)
        assert main(["check", cfg]) == 5
        out = capsys.readouterr().out
        assert "rank: 5" in out

    def test_design_then_check(self, tmp_path, capsys):
        doc = base_config()
        doc["waveform"]["phi"] = "random:3"
        doc["waveform"]["chi"] = 6283.185307179586  # weak twisting to start
        cfg = write_config(tmp_path, doc)
        out_cfg = str(tmp_path / "designed.json")
        assert main(["design", cfg, out_cfg, "--budget", "50", "--seed", "0"]) == 0
        assert "evaluations: 50\n" in capsys.readouterr().out
        designed = json.loads((tmp_path / "designed.json").read_text())
        assert isinstance(designed["waveform"]["phi"], list)
        assert main(["check", out_cfg]) == 0

    def test_estimate_files_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        record = str(tmp_path / "record.json")
        assert main(["simulate", cfg, record]) == 0
        e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
        assert main(["estimate", record, cfg, str(e1)]) == 0
        assert main(["estimate", record, cfg, str(e2)]) == 0
        assert e1.read_bytes() == e2.read_bytes()


@pytest.mark.parametrize("chi", [37699.11184307752, 0.0])
def test_check_and_estimate_report_one_rank(tmp_path, capsys, chi):
    doc = base_config()
    doc["waveform"]["chi"] = chi
    cfg = write_config(tmp_path, doc)
    record, est = str(tmp_path / "record.json"), tmp_path / "e.json"
    assert main(["simulate", cfg, record]) == 0
    assert main(["estimate", record, cfg, str(est)]) == 0
    capsys.readouterr()
    assert main(["check", cfg]) == (0 if chi else 5)
    rank = int(capsys.readouterr().out.split("rank:")[1].split()[0])
    assert rank == json.loads(est.read_text())["rank"] == (48 if chi else 5)


def test_every_subcommand_binds_its_handler():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    names = {"simulate", "estimate", "sweep", "wigner", "design", "check"}
    assert set(subparsers.choices) == names
    for name, sub in subparsers.choices.items():
        assert sub.get_default("run") is getattr(cli, f"cmd_{name}")


def test_one_document_error():
    assert ConfigError is RecordFormatError is DocumentError


def test_shipped_configs_parse():
    for name in ("cat.json", "paper_states_sweep.json"):
        config = load_config(SHIPPED / name)
        assert config.F == 3.0


@pytest.mark.parametrize("gamma_dec, fingerprint", [(0.0, "41794e5186e110bc"),
                                                    (200.0, "3da8c4773b54cf02")])
def test_cat_fingerprints_pinned(gamma_dec, fingerprint):
    # records name their waveform by this hash, so it must not move between releases
    doc = json.loads((SHIPPED / "cat.json").read_text())
    doc["waveform"]["gamma_dec"] = gamma_dec
    assert parse_config(doc).waveform.fingerprint() == fingerprint
    del doc["waveform"]["jump_preset"]  # the default, and the only channel
    assert parse_config(doc).waveform.fingerprint() == fingerprint


def _scipy_modules_after(code):
    """Names of the scipy modules loaded by running ``code`` in a fresh interpreter."""
    code += "; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = pathlib.Path(spintomo.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import sys, spintomo.cli") == "[]"


def test_nuisance_estimate_loads_no_scipy(tmp_path):
    doc = base_config()
    doc["noise"]["sigma"] = 0.0
    cfg = write_config(tmp_path, doc)
    record, est = tmp_path / "record.json", tmp_path / "e.json"
    argv = ["estimate", str(record), cfg, str(est), "--nuisance", "omega_scale:0.99:1.01",
            "--budget", "12"]
    code = (f"import sys; from spintomo.cli import main; "
            f"assert main({['simulate', cfg, str(record)]!r}) == 0; assert main({argv!r}) == 0")
    assert _scipy_modules_after(code) == "[]"
    assert est.exists()


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: with it blocked, every module imports
    # and simulate, estimate --nuisance and design (past its restarts) run
    doc = base_config()
    doc["noise"]["sigma"] = 0.0
    cfg = write_config(tmp_path, doc)
    record, est, opt = (str(tmp_path / name) for name in ("record.json", "e.json", "opt.json"))
    runs = [["simulate", cfg, record],
            ["estimate", record, cfg, est, "--nuisance", "omega_scale:0.99:1.01", "--budget", "12"],
            ["design", cfg, opt, "--budget", "60"]]
    code = "\n".join([
        "import importlib, pkgutil, sys",
        "sys.modules['scipy'] = None",
        "import spintomo",
        "for module in pkgutil.iter_modules(spintomo.__path__):",
        "    importlib.import_module('spintomo.' + module.name)",
        "from spintomo.cli import main",
        f"for argv in {runs!r}:",
        "    assert main(argv) == 0, argv",
    ])
    src = pathlib.Path(spintomo.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert load_config(opt).waveform.n_steps == 30


class TestInputBinding:
    """Inputs are checked against what they are combined with."""

    def _simulate(self, tmp_path, doc, name="record.json"):
        cfg = write_config(tmp_path, doc, name.replace("record", "config"))
        record = tmp_path / name
        assert main(["simulate", cfg, str(record)]) == 0
        return cfg, record

    def test_nan_record_value_exit_2(self, tmp_path, capsys):
        cfg, record = self._simulate(tmp_path, base_config())
        doc = json.loads(record.read_text())
        doc["values"][3] = float("nan")
        record.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["estimate", str(record), cfg, str(tmp_path / "e.json")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_record_value_exit_2(self, tmp_path):
        cfg, record = self._simulate(tmp_path, base_config())
        text = record.read_text()
        head, tail = text.split('"values":[', 1)
        record.write_text(head + '"values":[1e999,' + tail.split(",", 1)[1])
        assert main(["estimate", str(record), cfg, str(tmp_path / "e.json")]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_overflowing_open_system_drive_exit_3(self, tmp_path, capsys, command):
        doc = base_config()
        doc["waveform"].update(gamma_dec=200.0, omega_larmor=1e300)
        cfg, record = write_config(tmp_path, doc), tmp_path / "record.json"
        assert main([command, cfg] + ([str(record)] if command == "simulate" else [])) == 3
        assert "open-system propagation overflowed" in capsys.readouterr().err
        assert not record.exists()

    def test_infinite_config_value_exit_2(self, tmp_path, capsys):
        doc = base_config()
        doc["noise"]["sigma"] = float("inf")
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", cfg, str(tmp_path / "r.json")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_nan_estimate_document_exit_2(self, tmp_path):
        cfg, record = self._simulate(tmp_path, base_config())
        est = tmp_path / "e.json"
        assert main(["estimate", str(record), cfg, str(est)]) == 0
        doc = json.loads(est.read_text())
        doc["rho_ml"][0][0][0] = float("nan")
        est.write_text(json.dumps(doc))
        assert main(["wigner", str(est), str(tmp_path / "w.csv"), "--n-theta", "8",
                     "--n-phi", "8"]) == 2

    @pytest.mark.parametrize("argv", [
        ["estimate", "{missing}", "{cfg}", "{out}"],
        ["estimate", "{record}", "{missing}", "{out}"],
        ["wigner", "{missing}", "{out}"],
        ["sweep", "{cfg}", "1", "{no_dir}"],
    ], ids=["record", "config", "wigner_input", "output_dir"])
    def test_unreadable_or_unwritable_file_exit_2(self, tmp_path, capsys, argv):
        cfg, record = self._simulate(tmp_path, base_config())
        paths = {"cfg": cfg, "record": record, "missing": tmp_path / "missing.json",
                 "out": tmp_path / "out.json", "no_dir": tmp_path / "no_dir" / "o.csv"}
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("F", [2.3, 0, -1, 1e308])
    def test_record_spin_not_half_integer_exit_2(self, tmp_path, capsys, F):
        cfg, record = self._simulate(tmp_path, base_config())
        doc = json.loads(record.read_text())
        doc["F"] = F
        record.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["estimate", str(record), cfg, str(tmp_path / "e.json")]) == 2
        assert "malformed field F" in capsys.readouterr().err
        with pytest.raises(DocumentError) as info:
            read_record(record)
        assert info.value.field == "F"

    @pytest.mark.parametrize("F", [32.5, 1e9])
    @pytest.mark.parametrize("kind", ["config", "record", "estimate"])
    def test_spin_above_bound_exit_2(self, tmp_path, capsys, kind, F):
        cfg, record = self._simulate(tmp_path, base_config())
        est = tmp_path / "e.json"
        assert main(["estimate", str(record), cfg, str(est)]) == 0
        path = {"config": pathlib.Path(cfg), "record": record, "estimate": est}[kind]
        doc = json.loads(path.read_text())
        doc["F"] = F
        path.write_text(json.dumps(doc))
        argv = {"config": ["check", cfg],
                "record": ["estimate", str(record), cfg, str(tmp_path / "e2.json")],
                "estimate": ["wigner", str(est), str(tmp_path / "w.csv")]}[kind]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"malformed field F: {F!r} exceeds the largest spin 32" in capsys.readouterr().err
        assert spin_dimension(32) == 65

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_config_version_must_be_integer_1_exit_2(self, tmp_path, capsys, version):
        cfg = write_config(tmp_path, base_config(version=version))
        assert main(["check", cfg]) == 2
        assert "version" in capsys.readouterr().err
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.field == "version"

    @pytest.mark.parametrize("kind", [["cat"], {"kind": "cat"}], ids=["list", "object"])
    def test_state_kind_must_be_a_name_exit_2(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, base_config(state={"kind": kind}))
        assert main(["check", cfg]) == 2
        assert "state.kind" in capsys.readouterr().err
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.field == "state.kind"

    def test_spin_size_mismatch_exit_4(self, tmp_path, capsys):
        small = base_config(F=2, state={"kind": "basis_state", "m": -2})
        _, record = self._simulate(tmp_path, small)
        cfg = write_config(tmp_path, base_config(), "f3.json")
        capsys.readouterr()
        assert main(["estimate", str(record), cfg, str(tmp_path / "e.json")]) == 4
        assert "F" in capsys.readouterr().err

    def test_spin_size_mismatch_with_nuisance_exit_4(self, tmp_path):
        small = base_config(F=2, state={"kind": "basis_state", "m": -2})
        _, record = self._simulate(tmp_path, small)
        cfg = write_config(tmp_path, base_config(), "f3.json")
        argv = ["estimate", str(record), cfg, str(tmp_path / "e.json"),
                "--nuisance", "omega_scale:0.99:1.01", "--budget", "3"]
        assert main(argv) == 4

    def test_sample_count_mismatch_with_nuisance_exit_4(self, tmp_path, capsys):
        # the nuisance fit samples on the record's grid, so it is held to the config's
        # grid as plain estimate is
        doc = base_config()
        doc["sampling"]["n_samples"] = 300
        _, record = self._simulate(tmp_path, doc)
        cfg, est = write_config(tmp_path, base_config(), "n150.json"), tmp_path / "e.json"
        capsys.readouterr()
        for extra in ([], ["--nuisance", "omega_scale:0.95:1.05"]):
            assert main(["estimate", str(record), cfg, str(est)] + extra) == 4
            assert "record has 300 samples, the model has 150" in capsys.readouterr().err
            assert not est.exists()

    def test_reversed_times_exit_4(self, tmp_path):
        cfg, record = self._simulate(tmp_path, base_config())
        doc = json.loads(record.read_text())
        doc["times"] = doc["times"][::-1]
        record.write_text(json.dumps(doc))
        assert main(["estimate", str(record), cfg, str(tmp_path / "e.json")]) == 4

    @pytest.mark.parametrize("command", ["check", "simulate", "design"])
    def test_jump_preset_none_exit_2(self, tmp_path, capsys, command):
        # gamma_dec = 0 is the one spelling of closed evolution, so no preset can override a rate
        doc = base_config()
        doc["waveform"].update(gamma_dec=200.0, jump_preset="none")
        cfg, out = write_config(tmp_path, doc), tmp_path / "out.json"
        assert main([command, cfg] + ([] if command == "check" else [str(out)])) == 2
        assert "waveform.jump_preset" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.field == "waveform.jump_preset"

    def test_substeps_is_an_unknown_field_exit_2(self, tmp_path, capsys):
        doc = base_config()
        doc["sampling"]["substeps"] = 4
        cfg = write_config(tmp_path, doc)
        assert main(["check", cfg]) == 2
        assert "sampling.substeps" in capsys.readouterr().err
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.field == "sampling.substeps"
