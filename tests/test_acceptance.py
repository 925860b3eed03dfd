"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a `AC-n ...: PASS (elapsed)` line; run with
``pytest tests/test_acceptance.py -v -s`` to see them. Runtime budgets are
asserted alongside the numerical tolerances.
"""

import json
import time

import numpy as np

from conftest import CALIBRATED_SIGMA, make_waveform
from helpers import haar_unitary, random_density, random_pure
from spintomo import (
    completeness_report,
    estimate,
    estimate_prefix_curve,
    estimate_with_nuisance,
    fidelity,
    heisenberg_history,
    measured_observable,
    noiseless_values,
    project_to_physical,
    propagate_state,
    state_to_coords,
    synthesize_record,
    trace_distance,
    wigner_function,
    wigner_integral,
)
from spintomo import test_state as make_state
from spintomo.cli import main


class Stopwatch:
    def __init__(self, label, limit_s):
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label} took {elapsed:.1f}s (limit {self.limit}s)"
            print(f"{self.label}: PASS ({elapsed:.1f}s < {self.limit}s)")
        else:
            print(f"{self.label}: FAIL after {elapsed:.1f}s")
        return False


def test_ac01_heisenberg_schrodinger_duality(sys3):
    with Stopwatch("AC-1 Heisenberg/Schrodinger duality", 30):
        O = measured_observable(sys3)
        rng = np.random.default_rng(101)
        states = [random_pure(rng, 7) for _ in range(5)]
        states += [random_density(rng, 7, rank=int(rng.integers(2, 8))) for _ in range(5)]
        worst = 0.0
        for i in range(10):
            waveform = make_waveform(phi_seed=i, gamma_dec=0.0 if i % 2 == 0 else 100.0)
            history = heisenberg_history(sys3, waveform, O, n_samples=150)
            for rho0 in states:
                heis = history.design_matrix @ state_to_coords(rho0)
                schro = np.array(
                    [
                        np.trace(O @ s).real
                        for s in propagate_state(rho0, sys3, waveform, n_samples=150)
                    ]
                )
                worst = max(worst, float(np.max(np.abs(heis - schro))))
        assert worst < 1e-8, f"worst duality defect {worst:.3e}"


def test_ac02_noiseless_closed_loop(sys3, default_history, paper_states):
    with Stopwatch("AC-2 noiseless closed loop", 60):
        rng = np.random.default_rng(102)
        cases = list(paper_states)
        cases += [(f"pure{i}", random_pure(rng, 7)) for i in range(5)]
        cases += [
            (f"mixed{i}", random_density(rng, 7, rank=int(rng.integers(2, 8))))
            for i in range(5)
        ]
        for label, rho in cases:
            record = synthesize_record(rho, default_history, sigma=0.0, seed=0)
            result = estimate(record, default_history)
            assert fidelity(rho, result.rho_ml) >= 1 - 1e-6, label


def test_ac03_paper_band_noisy_reconstruction(sys3, default_history, paper_states):
    with Stopwatch("AC-3 paper-band noisy reconstruction", 600):
        single, averaged = [], []
        for _, rho in paper_states:
            for seed in range(20):
                rec = synthesize_record(rho, default_history, CALIBRATED_SIGMA, seed)
                single.append(fidelity(rho, estimate(rec, default_history).rho_ml))
                rec = synthesize_record(
                    rho, default_history, CALIBRATED_SIGMA, seed, n_averaged=128
                )
                averaged.append(fidelity(rho, estimate(rec, default_history).rho_ml))
        mean_single = float(np.mean(single))
        mean_averaged = float(np.mean(averaged))
        assert 0.82 <= mean_single <= 0.92, f"single-record mean {mean_single:.4f}"
        assert mean_averaged - mean_single >= 0.02, (
            f"averaging lift {mean_averaged - mean_single:.4f}"
        )


def test_ac04_completeness_dichotomy(sys3):
    with Stopwatch("AC-4 completeness dichotomy", 10):
        O = measured_observable(sys3)
        full = completeness_report(
            heisenberg_history(sys3, make_waveform(), O, n_samples=150)
        )
        assert full.rank == 48 and full.complete
        rotations = completeness_report(
            heisenberg_history(sys3, make_waveform(chi=0.0), O, n_samples=150)
        )
        assert rotations.rank <= 5 and not rotations.complete
        static = completeness_report(
            heisenberg_history(
                sys3, make_waveform(chi=0.0, omega_larmor=0.0), O, n_samples=150
            )
        )
        assert static.rank == 1


def test_ac05_projection_optimality():
    with Stopwatch("AC-5 projection optimality", 30):
        two_level = project_to_physical(np.diag([1.2, -0.2]).astype(complex))
        assert np.max(np.abs(two_level - np.diag([1.0, 0.0]))) < 1e-12

        rng = np.random.default_rng(105)
        for trial in range(100):
            w = rng.normal(size=3)
            w -= (w.sum() - 1.0) / 3.0
            if w.min() > -0.01:  # force a genuinely negative part
                i = int(np.argmin(w))
                w[i] -= 0.3
                w[(i + 1) % 3] += 0.15
                w[(i + 2) % 3] += 0.15
            basis = haar_unitary(rng, 3)
            target = (basis * w) @ basis.conj().T
            projected = project_to_physical(target)
            dist = np.linalg.norm(projected - target)
            rank = trial % 3 + 1
            g = rng.normal(size=(10_000, 3, rank)) + 1j * rng.normal(size=(10_000, 3, rank))
            candidates = g @ g.conj().transpose(0, 2, 1)
            candidates /= np.trace(candidates, axis1=1, axis2=2).real[:, None, None]
            diffs = candidates - target[None]
            dists = np.sqrt(np.einsum("nij,nij->n", diffs, diffs.conj()).real)
            assert dist <= dists.min() + 1e-12, f"trial {trial}"


def test_ac06_metric_identities(sys3):
    with Stopwatch("AC-6 metric identities", 10):
        rng = np.random.default_rng(106)
        for _ in range(20):
            rho = random_density(rng, 7, rank=int(rng.integers(1, 8)))
            assert abs(fidelity(rho, rho) - 1.0) < 1e-10
        for _ in range(20):
            psi = random_pure(rng, 7)
            rho = random_density(rng, 7)
            assert abs(fidelity(psi, rho) - np.trace(psi @ rho).real) < 1e-10
        for _ in range(20):
            a, b = random_density(rng, 7), random_density(rng, 7)
            U = haar_unitary(rng, 7)
            rotated = fidelity(U @ a @ U.conj().T, U @ b @ U.conj().T)
            assert abs(rotated - fidelity(a, b)) < 1e-10
        for _ in range(100):
            a = random_density(rng, 7, rank=int(rng.integers(1, 8)))
            b = random_density(rng, 7, rank=int(rng.integers(1, 8)))
            fid, dist = fidelity(a, b), trace_distance(a, b)
            assert 1 - np.sqrt(fid) <= dist + 1e-10
            assert dist <= np.sqrt(1 - fid) + 1e-10


def test_ac07_wigner_suite(sys3):
    with Stopwatch("AC-7 Wigner suite", 30):
        rng = np.random.default_rng(107)
        for rho in (
            make_state(sys3, "basis_state", m=3),
            make_state(sys3, "cat"),
            random_density(rng, 7),
        ):
            assert abs(wigner_integral(rho, sys3) - 1.0) < 1e-6

        flat = wigner_function(make_state(sys3, "mixed"), sys3, 64, 64)
        assert np.max(np.abs(flat.values - 1 / (4 * np.pi))) < 1e-12

        n_phi, shift = 360, 40
        alpha = 2 * np.pi * shift / n_phi
        rho = make_state(sys3, "twisted", mu=0.6)
        U = np.diag(np.exp(-1j * alpha * sys3.m_values))
        rotated = wigner_function(U @ rho @ U.conj().T, sys3, 91, n_phi)
        base = wigner_function(rho, sys3, 91, n_phi)
        assert np.max(np.abs(rotated.values - np.roll(base.values, shift, axis=1))) < 1e-8

        cat = wigner_function(make_state(sys3, "cat"), sys3, 181, 360)
        equator = cat.values[90]
        changes = int(np.sum(np.signbit(equator) != np.signbit(np.roll(equator, 1))))
        assert changes == 2 * 6  # 2F azimuthal fringe periods, two crossings each


def test_ac08_squeezing_dynamics(sys3):
    with Stopwatch("AC-8 squeezing dynamics", 30):
        waveform = make_waveform(
            n_steps=1, dt=1.5e-3, phi=(0.0,), omega_larmor=0.0, chi=2 * np.pi * 1000.0
        )
        rho0 = make_state(sys3, "basis_state", m=3)
        n = 150
        states = propagate_state(rho0, sys3, waveform, n_samples=n)

        moments = {}
        for name, op in (
            ("x", sys3.Fx),
            ("y", sys3.Fy),
            ("xx", sys3.Fx @ sys3.Fx),
            ("yy", sys3.Fy @ sys3.Fy),
            ("xy", sys3.Fx @ sys3.Fy + sys3.Fy @ sys3.Fx),
        ):
            history = heisenberg_history(sys3, waveform, op, n_samples=n)
            moments[name] = noiseless_values(rho0, history)

        def min_variance(ex, ey, exx, eyy, exy):
            vxx = exx - ex**2
            vyy = eyy - ey**2
            vxy = 0.5 * exy - ex * ey
            return np.linalg.eigvalsh(np.array([[vxx, vxy], [vxy, vyy]]))[0]

        schro, heis = [], []
        for i, rho in enumerate(states):
            schro.append(
                min_variance(
                    np.trace(rho @ sys3.Fx).real,
                    np.trace(rho @ sys3.Fy).real,
                    np.trace(rho @ sys3.Fx @ sys3.Fx).real,
                    np.trace(rho @ sys3.Fy @ sys3.Fy).real,
                    np.trace(rho @ (sys3.Fx @ sys3.Fy + sys3.Fy @ sys3.Fx)).real,
                )
            )
            heis.append(
                min_variance(
                    moments["x"][i], moments["y"][i], moments["xx"][i],
                    moments["yy"][i], moments["xy"][i],
                )
            )
        schro, heis = np.array(schro), np.array(heis)
        assert schro.min() < 1.5  # below the coherent-state value F/2
        assert np.max(np.abs(schro - heis)) < 1e-10


def test_ac09_fidelity_curve_phenomenology(sys3, default_waveform, default_history):
    with Stopwatch("AC-9 evolving-estimate phenomenology", 300):
        rho0 = make_state(sys3, "basis_state", m=-3)
        record = synthesize_record(rho0, default_history, CALIBRATED_SIGMA, seed=0)
        points = estimate_prefix_curve(
            record, default_history, rho0, sys3, default_waveform, stride=5
        )
        t0, fid0, _ = points[0]
        assert t0 == 0.0
        assert abs(fid0 - 1 / 7) < 1e-12
        fids = [p[1] for p in points]
        final = fids[-1]
        tail = fids[-(len(fids) // 4):]
        assert max(abs(f - final) for f in tail) < 0.05

        noisy_waveform = make_waveform(gamma_dec=100.0)
        noisy_history = heisenberg_history(
            sys3, noisy_waveform, measured_observable(sys3), n_samples=150
        )
        record = synthesize_record(rho0, noisy_history, CALIBRATED_SIGMA, seed=0)
        points = estimate_prefix_curve(
            record, noisy_history, rho0, sys3, noisy_waveform, stride=5
        )
        tops = [p[2] for p in points]
        assert all(b <= a + 1e-9 for a, b in zip(tops, tops[1:]))
        assert tops[-1] < 1.0


def test_ac10_nuisance_recovery(sys3, default_waveform):
    with Stopwatch("AC-10 nuisance recovery", 300):
        true_waveform = default_waveform.with_scales(omega_scale=1.01)
        history = heisenberg_history(
            sys3, true_waveform, measured_observable(sys3), n_samples=150
        )
        rho0 = make_state(sys3, "basis_state", m=-3)
        record = synthesize_record(rho0, history, sigma=0.0, seed=0)
        result = estimate_with_nuisance(
            record, default_waveform, sys3, {"omega_scale": (0.95, 1.05)}
        )
        assert abs(result.nuisance["omega_scale"] - 1.01) < 1e-3
        assert fidelity(rho0, result.rho_ml) >= 0.999


def test_ac11_determinism(tmp_path):
    with Stopwatch("AC-11 determinism", 60):
        doc = {
            "version": 1,
            "F": 3,
            "waveform": {
                "n_steps": 30, "dt": 5e-5, "phi": "random:10",
                "omega_larmor": 62831.853071795864, "chi": 37699.11184307752,
                "gamma_dec": 0.0, "jump_preset": "isotropic",
            },
            "sampling": {"n_samples": 150},
            "noise": {"sigma": 0.9, "seed": 7, "n_averaged": 1},
            "state": {"kind": "cat"},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["simulate", str(cfg), str(r1)]) == 0
        assert main(["simulate", str(cfg), str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
        assert main(["estimate", str(r1), str(cfg), str(e1)]) == 0
        assert main(["estimate", str(r2), str(cfg), str(e2)]) == 0
        assert e1.read_bytes() == e2.read_bytes()

        sweep_doc = dict(doc)
        del sweep_doc["state"]
        sweep_doc["states"] = [{"kind": "basis_state", "m": -3}, {"kind": "cat"}]
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps(sweep_doc))
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["sweep", str(sweep_cfg), "3", str(s1), "--jobs", "4"]) == 0
        assert main(["sweep", str(sweep_cfg), "3", str(s2), "--jobs", "1"]) == 0
        assert s1.read_bytes() == s2.read_bytes()
