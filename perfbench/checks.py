"""Correctness checks on each workload's outputs, with independent oracles.

Every check adds one to ``attempted``; a failed one is recorded by name.
Where a statistic is sampled, the tolerance is Z standard errors, the error
being computed from the data or from the CUE distribution, never tuned.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

Z = 4.0                      # width of every standard-error band
GAP_DIGITS = 0.2327033077    # exact gap, pinned to 10 digits
CROSSCHECK_TOL = 1e-12       # runner vs reference path
SE_SAMPLE = 32               # realizations re-simulated for an n* error


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)



def read_curve(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_curve(checks: Checks, path, nq: int, label: str, checkpoints,
                n_r: int, seed: int):
    """The curve file exists and holds one finite D >= 0 per checkpoint."""
    try:
        rows = read_curve(path)
        ok = ([int(r["ng"]) for r in rows] == list(checkpoints)
              and all(int(r["nq"]) == nq and r["statistic"] == label
                      and int(r["n_r"]) == n_r and int(r["seed"]) == seed
                      and math.isfinite(float(r["value"]))
                      and float(r["value"]) >= 0 for r in rows))
    except (OSError, KeyError, ValueError):
        ok = False
    checks.check(ok, f"curve {os.path.basename(path)} well formed")


def curve_points(path) -> list[tuple[int, float]]:
    return [(int(r["ng"]), float(r["value"])) for r in read_curve(path)]


def check_pl_falls(checks: Checks, path, factor: float = 10.0):
    pts = curve_points(path)
    checks.check(pts[0][1] >= factor * pts[-1][1],
                 f"{os.path.basename(path)}: D falls {factor:g}x "
                 f"({pts[0][1]:.4g} -> {pts[-1][1]:.4g})")


# -- reference path: sample_circuit -> simulate_first_column -> estimator --

def reference_mu2(seed: int, index: int, nq: int, checkpoints) -> list[float]:
    """Column-averaged y^2 of one realization at each checkpoint, through
    the oracle-checked gateset/column_sim path, not the runner."""
    from ucesim.column_sim import simulate_first_column
    from ucesim.ensemble_stats import moment_estimate
    from ucesim.gateset import sample_circuit

    circuit = sample_circuit(seed, index, nq, max(checkpoints))
    return [moment_estimate([s], 2)
            for s in simulate_first_column(circuit, checkpoints)]


def check_crosscheck(checks: Checks, path, seed: int, nq: int, checkpoints):
    """A one-realization runner curve equals the reference path to 1e-12."""
    from ucesim.cue_ref import cue_moment
    from ucesim.ensemble_stats import relative_deviation

    ref = cue_moment(2, 1 << nq)
    expect = [relative_deviation(m, ref)
              for m in reference_mu2(seed, 0, nq, checkpoints)]
    got = [d for _, d in curve_points(path)]
    err = max(abs(a - b) for a, b in zip(got, expect)) if got else math.inf
    checks.check(len(got) == len(expect) and err <= CROSSCHECK_TOL,
                 f"runner vs reference nq={nq}: max |dD| = {err:.3g}")


def nstar_se(seed: int, nq: int, n_r: int, points, eps: float) -> float:
    """Standard error of n*(nq, eps) from the sampled spread of the
    realizations at the two checkpoints that bracket the crossing.

    The realization-level standard deviation of y^2 is measured on the
    first min(n_r, SE_SAMPLE) realizations of the same seed, scaled to n_r
    and carried through the linear interpolation that defines n*.
    """
    from ucesim.cue_ref import cue_moment

    i = next(k for k, (_, d) in enumerate(points) if d <= eps)
    if i == 0:
        return 0.0
    (g0, d0), (g1, d1) = points[i - 1], points[i]
    m = np.array([reference_mu2(seed, r, nq, (g0, g1))
                  for r in range(min(n_r, SE_SAMPLE))])
    se0, se1 = m.std(axis=0, ddof=1) / math.sqrt(n_r) / cue_moment(2, 1 << nq)
    slope = (g1 - g0) / (d0 - d1) ** 2
    return slope * (abs(eps - d1) * se0 + abs(d0 - eps) * se1)


def check_desk_nstar(checks: Checks, nstar_path, curves: dict, seed: int,
                     n_r: dict, ln_eps: float = -1.0):
    """n*(nq, e^ln_eps) is reachable for every nq and does not decrease
    with nq beyond Z combined standard errors (plus 1 for the rounding up)."""
    rows = [r for r in read_curve(nstar_path) if float(r["ln_eps"]) == ln_eps]
    ns = {int(r["nq"]): r["n_star"] for r in rows}
    reach = {}
    for nq in sorted(curves):
        ok = ns.get(nq, "NA") != "NA"
        checks.check(ok, f"n*(nq={nq}, ln_eps={ln_eps:g}) reachable")
        if ok:
            reach[nq] = (int(ns[nq]), nstar_se(seed, nq, n_r[nq], curves[nq],
                                               math.exp(ln_eps)))
    nqs = sorted(reach)
    for a, b in zip(nqs, nqs[1:]):
        (na, sa), (nb, sb) = reach[a], reach[b]
        tol = Z * math.hypot(sa, sb) + 1
        checks.check(nb >= na - tol,
                     f"n*(nq={b}) = {nb} >= n*(nq={a}) = {na} - {tol:.3g}")


def check_fits(checks: Checks, fits_path, ln_eps_list):
    try:
        rows = read_curve(fits_path)
        ok = (sorted((r["model"], float(r["ln_eps"])) for r in rows)
              == sorted((m, float(e)) for m in ("f1", "f2", "f3")
                        for e in ln_eps_list)
              and all(math.isfinite(float(r["chi2"])) for r in rows))
    except (OSError, KeyError, ValueError):
        ok = False
    checks.check(ok, "fits table has a finite chi2 for every model and eps")


# -- deep: last checkpoint against the CUE value --

def cue_mu2_se(N: int, n_r: int) -> float:
    """Standard error of the column-averaged y^2 estimate over n_r Haar
    columns. |a_i|^2 is Dirichlet(1, ..., 1), which gives Var(N sum p_i^2)
    exactly."""
    var_s = (4 * N + 20) / ((N + 1) * (N + 2) * (N + 3)) - 4 / (N + 1) ** 2
    return N * math.sqrt(var_s / n_r)


def check_deep_mu2(checks: Checks, path, nq: int, n_r: int):
    from ucesim.cue_ref import cue_moment

    N = 1 << nq
    d = curve_points(path)[-1][1]
    band = Z * cue_mu2_se(N, n_r) / cue_moment(2, N)
    checks.check(d <= band, f"deep nq={nq}: last mu2 D = {d:.3g} <= {band:.3g}")


# -- gap: Pauli-chain oracle --

def pauli_chain_gap() -> tuple[float, int]:
    """Gap and unit-eigenvalue multiplicity of the gate set's action on
    two-copy Pauli weights w_P = Tr(P rho)^2 on two qubits.

    A Haar U(2) on a qubit sends a non-identity Pauli there to X, Y or Z
    with probability 1/3 each; a CNOT permutes Pauli strings. This 16-state
    chain is an invariant block of the 256x256 moment operator whose
    second-largest eigenvalue is the operator's, so it gives the gap from
    Pauli matrices alone.
    """
    paulis1 = [np.eye(2), np.array([[0, 1], [1, 0]]),
               np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    paulis = [np.kron(a, b) for a in paulis1 for b in paulis1]
    cnots = [np.eye(4)[[0, 1, 3, 2]], np.eye(4)[[0, 3, 2, 1]]]
    t = np.zeros((16, 16))
    for j, p in enumerate(paulis):
        for c in cnots:
            q = c @ p @ c.T
            for i, pp in enumerate(paulis):
                t[i, j] += 0.25 * abs(np.trace(pp.conj().T @ q) / 4) ** 2
        hi, lo = divmod(j, 4)
        for on_hi, slot in ((True, hi), (False, lo)):
            if slot == 0:
                t[j, j] += 0.25
                continue
            for b in (1, 2, 3):
                t[4 * b + lo if on_hi else 4 * hi + b, j] += 0.25 / 3
    mags = np.sort(np.abs(np.linalg.eigvalsh(t)))[::-1]
    mult = int(np.count_nonzero(mags > 1 - 1e-12))
    return 1.0 - float(mags[mult]), mult


def read_gap_report(checks: Checks, path, stdout_text: str) -> dict | None:
    """The --out file and stdout carry the same JSON report."""
    try:
        with open(path) as fh:
            text = fh.read()
        report = json.loads(text)
        ok = text == stdout_text
    except (OSError, ValueError):
        report, ok = None, False
    checks.check(ok, f"{os.path.basename(path)} matches stdout")
    return report


def check_gap_exact(checks: Checks, report: dict, oracle: tuple[float, int]):
    gap, mult = oracle
    checks.check(abs(gap - GAP_DIGITS) < 1e-9,
                 f"Pauli-chain gap {gap!r} is 0.2327033077")
    checks.check(report is not None and abs(report["gap"] - gap) <= 1e-9
                 and report["multiplicity"] == mult == 2,
                 f"exact gap {report and report['gap']!r} vs oracle {gap!r}")


def check_gap_mc(checks: Checks, report: dict, exact_gap: float, samples: int):
    """Multiplicity 2 and |gap - exact| <= Z sigma_estimate."""
    ok = (report is not None and report["multiplicity"] == 2
          and report["samples"] == samples
          and abs(report["gap"] - exact_gap) <= Z * report["sigma_estimate"])
    checks.check(ok, f"MC gap {report and report['gap']!r} within "
                     f"{Z:g} sigma of {exact_gap!r}")
