"""Acceptance suite: one test per release criterion, each printing a
PASS line when it completes (run with -s or -v to see them)."""

import json
import math
import os

import numpy as np
import pytest

from ucesim import cli
from ucesim.column_sim import dense_unitary_oracle, iter_checkpoints, simulate_first_column
from ucesim.cue_ref import cue_correlator, cue_moment, sample_haar_first_columns
from ucesim.ensemble_stats import Histogram, StatisticKind, fold_block, mean_over_states
from ucesim.gateset import EnsembleConfig, draw_tape, realization_rng, sample_circuit
from ucesim.runner import geometric_checkpoints, run_ensemble
from ucesim.scaling import fit_model, n_star, saturation_floor

MASTER_SEED = 20260823


def _ok(num, msg):
    print(f"[criterion {num}] PASS: {msg}")


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for trial in range(100):
        nq = 2 + trial % 4
        tape = sample_circuit(MASTER_SEED, trial, nq, 30)
        (snap,) = simulate_first_column(tape, [30])
        oracle = dense_unitary_oracle(tape)[:, 0]
        worst = max(worst, float(np.max(np.abs(snap.amplitudes - oracle))))
    assert worst < 1e-12
    _ok(1, f"100 circuits match the dense oracle, worst dev {worst:.2e}")


def test_criterion_2_norm_conservation():
    # The runner's own path: a tape of 100 realizations through iter_checkpoints.
    tape = draw_tape([realization_rng(MASTER_SEED + 1, r) for r in range(100)], 10, 1000)
    worst = 0.0
    for _, block in iter_checkpoints(tape, [1000]):
        worst = max(worst, float(np.max(np.abs(np.sum(np.abs(block) ** 2, axis=1) - 1.0))))
    assert worst < 1e-10
    _ok(2, f"norm conserved over 10^3 gates x 100 realizations, worst {worst:.2e}")


def test_criterion_3_cue_analytic_cross_checks():
    for j in range(1, 21):
        assert cue_moment(1, 2 ** j) == 1.0
    assert cue_moment(2, 4) == pytest.approx(1.6, abs=1e-15)
    assert cue_correlator(2, 4) == pytest.approx(0.8, abs=1e-15)
    assert abs(cue_moment(2, 2 ** 20) - 2.0) < 1e-4
    _ok(3, "closed-form reference values verified")


def test_criterion_4_haar_oracle_statistics():
    n_draws = 100_000
    rng = np.random.default_rng(MASTER_SEED + 2)
    for n in (4, 8, 16):
        cols = sample_haar_first_columns(n_draws, n, rng)
        y = n * np.abs(cols) ** 2
        for k in (1, 2, 4):
            est = mean_over_states(cols, StatisticKind("mu", k))
            per_state = (y ** k).mean(axis=1)
            se = per_state.std() / math.sqrt(n_draws)
            tol = max(3 * se, 1e-12)
            assert abs(est - cue_moment(k, n)) < tol, (n, k)
        for k in (1, 2):
            est = mean_over_states(cols, StatisticKind("c", k))
            blocks = y[:, : (n // k) * k].reshape(n_draws, n // k, k).prod(axis=2)
            per_state = blocks.mean(axis=1)
            se = per_state.std() / math.sqrt(n_draws)
            tol = max(3 * se, 1e-12)
            assert abs(est - cue_correlator(k, n)) < tol, (n, k)
        if n == 16:
            hist = fold_block([StatisticKind("pl")], cols, {"pl": Histogram(16)})["pl"]
            p = hist.cue_masses()
            expected = hist.total * p
            sigma = np.sqrt(hist.total * p * (1 - p))
            # +1 count slack: sub-count deviations are not resolvable
            assert np.all(np.abs(hist.counts - expected) <= 4 * sigma + 1)
    _ok(4, "estimators reproduce CUE moments/correlators and the l-histogram")


def test_criterion_5_spectral_gap(tmp_path, capsys):
    out = tmp_path / "gap.json"
    assert cli.main(["gap", "--samples", "100000", "--seed", "0",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert 0.2227 <= report["gap"] <= 0.2427
    assert report["multiplicity"] == 2
    # Also within 4 sigma_estimate of the exact gap, the band perfbench uses.
    assert cli.main(["gap", "--exact", "--out", str(tmp_path / "exact.json")]) == 0
    capsys.readouterr()
    exact_gap = json.loads((tmp_path / "exact.json").read_text())["gap"]
    z = (report["gap"] - exact_gap) / report["sigma_estimate"]
    assert abs(z) <= 4
    _ok(5, f"gap {report['gap']:.6f} in [0.2227, 0.2427], z = {z:+.2f}, multiplicity 2")


def test_criterion_6_convergence_qualitative():
    curves = {}
    for n_r in (1000, 10_000):
        cfg = EnsembleConfig(n_q=4, checkpoints=(5, 10, 20, 50),
                             master_seed=MASTER_SEED + 3, n_r=n_r, sizing=None)
        curves[n_r] = run_ensemble(cfg, ["pl"])["pl"]
    d = [dist for _, dist in curves[10_000]]
    assert all(b < a for a, b in zip(d, d[1:]))
    assert d[-1] <= d[0] / 10
    assert saturation_floor(curves[10_000]) < saturation_floor(curves[1000])
    _ok(6, f"D_P falls {d[0]:.3f} -> {d[-1]:.5f}; larger n_r lowers the floor")


def test_criterion_7_fit_engine_exactness():
    ln_eps = -3.0
    eps = math.exp(ln_eps)
    truth = {
        "f1": lambda nq: 2.0 * nq + 3.0,
        "f2": lambda nq: 0.2 * nq * math.log(nq / eps) + 1.0,
        "f3": lambda nq: 0.1 * nq * (nq + math.log(1 / eps)) + 2.0,
    }
    coeffs = {"f1": (2.0, 3.0), "f2": (0.2, 1.0), "f3": (0.1, 2.0)}
    for gen_model, fn in truth.items():
        pairs = [(nq, fn(nq)) for nq in range(2, 11)]
        fits = {m: fit_model(pairs, ln_eps, m) for m in ("f1", "f2", "f3")}
        a, b, chi2 = fits[gen_model]
        assert abs(a - coeffs[gen_model][0]) < 1e-8
        assert abs(b - coeffs[gen_model][1]) < 1e-8
        assert chi2 < 1e-12
        for other, fit in fits.items():
            if other != gen_model:
                assert chi2 < fit[2]
    _ok(7, "each model recovers its own synthetic data exactly and fits best")


def test_criterion_8_desk_scale_scaling_study():
    ln_eps = -1.0
    eps = math.exp(ln_eps)
    pairs = []
    for nq in range(2, 11):
        cfg = EnsembleConfig(n_q=nq, checkpoints=geometric_checkpoints(nq),
                             master_seed=MASTER_SEED + 4, sizing=(10, 16))
        points = run_ensemble(cfg, ["mu2"], workers=2)["mu2"]
        ns = n_star(points, eps)
        assert ns is not None, f"n* unreachable at n_q={nq}"
        pairs.append((nq, ns))
    values = [ns for _, ns in pairs]
    assert all(b >= a for a, b in zip(values, values[1:])), values
    chi_f2 = fit_model(pairs, ln_eps, "f2")[2]
    chi_f3 = fit_model(pairs, ln_eps, "f3")[2]
    assert chi_f2 <= chi_f3
    _ok(8, f"n* {values} monotone; chi2 f2={chi_f2:.3f} <= f3={chi_f3:.3f}")


def test_criterion_9_determinism(tmp_path, capsys):
    outs = {}
    for tag, workers in (("w1a", 1), ("w1b", 1), ("w8", 8)):
        out = str(tmp_path / tag)
        assert cli.main(["converge", "--nq", "3,4", "--statistics", "pl,mu2",
                         "--nr", "200", "--checkpoints", "5,10,20,40",
                         "--seed", "7", "--workers", str(workers),
                         "--out", out]) == 0
        outs[tag] = out
    for name in ("curve_nq3_pl.csv", "curve_nq3_mu2.csv", "curve_nq4_pl.csv",
                 "curve_nq4_mu2.csv", "manifest.json"):
        ref = open(os.path.join(outs["w1a"], name), "rb").read()
        assert open(os.path.join(outs["w1b"], name), "rb").read() == ref
        assert open(os.path.join(outs["w8"], name), "rb").read() == ref
    for tag in ("g1", "g2"):
        assert cli.main(["gap", "--samples", "20000", "--seed", "4",
                         "--out", str(tmp_path / f"{tag}.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "g1.json").read_bytes() == (tmp_path / "g2.json").read_bytes()
    _ok(9, "byte-identical outputs across reruns and worker counts {1, 8}")
