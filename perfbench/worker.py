"""One benchmark process: set up, run one round of a workload, check it.

run.py starts a fresh worker for every round, so each round pays what a
user's ``ucesim`` process pays (imports, LAPACK start-up, CNOT index
tables) and its peak memory is its own. The worker drives the package only
through ``ucesim.cli.main`` and writes ``result.json`` into ``--dir``.

Modes: ``setup`` (import and warm up only), ``round`` (untraced job), and
``trace`` (job and a layer probe under spans, then per-call probes).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def import_package():
    """Import ucesim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ucesim
    import ucesim.cli
    if Path(ucesim.__file__).resolve().parent != (src / "ucesim").resolve():
        raise SystemExit(f"ucesim imported from {ucesim.__file__}, not {src}")
    return ucesim.cli


class Cli:
    """Calls ``ucesim.cli.main`` and keeps what each call printed."""

    def __init__(self, cli):
        self.cli = cli
        self.calls: list[tuple[list[str], int, str]] = []

    def __call__(self, *argv) -> int:
        argv = [str(a) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        self.calls.append((argv, rc, buf.getvalue()))
        return rc


def warm_up(run: Cli, workload: str, out: Path):
    """One small call down the workload's path, so first-call costs land in
    set-up and not in the timed job."""
    if workload == "desk":
        run("converge", "--nq", 2, "--nr", 1, "--checkpoints", "1,2",
            "--statistics", "pl,mu2", "--out", out)
    elif workload == "deep":
        run("converge", "--nq", 16, "--nr", 1, "--checkpoints", "1",
            "--statistics", "pl,mu2", "--out", out)
    else:
        out.mkdir(parents=True, exist_ok=True)
        run("gap", "--exact", "--out", out / "gap.json")


# -- the timed jobs: each returns wall_s, work_s (the part the throughput
#    is taken over) and the work count where it is known up front --

def job_desk(run: Cli, out: Path, seed: int, p: dict) -> dict:
    nqs = ",".join(str(q) for q in p["nq"])
    curves = [out / f"curve_nq{q}_mu2.csv" for q in p["nq"]]
    ln_eps = ",".join("%g" % e for e in p["ln_eps"])
    t0 = perf_counter()
    run("converge", "--nq", nqs, "--statistics", "pl,mu2", "--sizing",
        "%d,%d" % p["sizing"], "--seed", seed, "--workers", 1, "--out", out)
    t1 = perf_counter()
    run("nstar-fit", *curves, f"--ln-eps={ln_eps}", "--out", out / "fit")
    t2 = perf_counter()
    return {"wall_s": t2 - t0, "work_s": t1 - t0}


def job_deep(run: Cli, out: Path, seed: int, p: dict) -> dict:
    t0 = perf_counter()
    for nq, nr in p["runs"]:
        run("converge", "--nq", nq, "--nr", nr, "--statistics", "pl,mu2",
            "--seed", seed, "--workers", 1, "--out", out / f"nq{nq}")
    wall = perf_counter() - t0
    return {"wall_s": wall, "work_s": wall}


def gap_seeds(seed: int, p: dict) -> list[int]:
    return [seed + i for i in range(p["mc_reports"])]


def job_gap(run: Cli, out: Path, seed: int, p: dict) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    run("gap", "--exact", "--out", out / "exact.json")
    t1 = perf_counter()
    for s in gap_seeds(seed, p):
        run("gap", "--samples", p["samples"], "--seed", s,
            "--out", out / f"mc{s}.json")
    t2 = perf_counter()
    # build_moment_operator averages sample_count draws for each of the
    # two qubit slots.
    return {"wall_s": t2 - t0, "work_s": t2 - t1,
            "work": 2 * p["samples"] * p["mc_reports"]}


JOBS = {"desk": job_desk, "deep": job_deep, "gap": job_gap}


# -- checks on the job's outputs (untimed) --

def check_desk(run: Cli, checks, out: Path, seed: int, p: dict) -> int:
    from ucesim.gateset import EnsembleConfig
    from ucesim.runner import geometric_checkpoints

    import checks as ck

    work = 0
    curves, n_r = {}, {}
    for nq in p["nq"]:
        cps = geometric_checkpoints(nq)
        n_r[nq] = EnsembleConfig(nq, cps, seed, sizing=p["sizing"]).resolved_n_r()
        work += n_r[nq] * cps[-1]
        for label in ("pl", "mu2"):
            ck.check_curve(checks, out / f"curve_nq{nq}_{label}.csv", nq,
                           label, cps, n_r[nq], seed)
        ck.check_pl_falls(checks, out / f"curve_nq{nq}_pl.csv")
        curves[nq] = ck.curve_points(out / f"curve_nq{nq}_mu2.csv")
    ck.check_desk_nstar(checks, out / "fit" / "nstar_mu2.csv", curves, seed,
                        n_r)
    ck.check_fits(checks, out / "fit" / "fits_mu2.csv", p["ln_eps"])
    for nq in p["crosscheck_nq"]:
        cps = geometric_checkpoints(nq)
        rc = run("converge", "--nq", nq, "--nr", 1, "--statistics", "mu2",
                 "--seed", seed, "--out", out / "cross")
        checks.check(rc == 0, f"cross-check converge nq={nq} exit {rc}")
        ck.check_crosscheck(checks, out / "cross" / f"curve_nq{nq}_mu2.csv",
                            seed, nq, cps)
    return work


def check_deep(run: Cli, checks, out: Path, seed: int, p: dict) -> int:
    from ucesim.runner import geometric_checkpoints

    import checks as ck

    work = 0
    for nq, nr in p["runs"]:
        cps = geometric_checkpoints(nq)
        work += nr * cps[-1]
        d = out / f"nq{nq}"
        for label in ("pl", "mu2"):
            ck.check_curve(checks, d / f"curve_nq{nq}_{label}.csv", nq, label,
                           cps, nr, seed)
        ck.check_pl_falls(checks, d / f"curve_nq{nq}_pl.csv")
        ck.check_deep_mu2(checks, d / f"curve_nq{nq}_mu2.csv", nq, nr)
    return work


def check_gap(run: Cli, checks, out: Path, seed: int, p: dict) -> int:
    import checks as ck

    printed = {argv[-1]: text for argv, _, text in run.calls}
    oracle = ck.pauli_chain_gap()
    exact = ck.read_gap_report(checks, out / "exact.json",
                               printed.get(str(out / "exact.json"), ""))
    ck.check_gap_exact(checks, exact, oracle)
    for s in gap_seeds(seed, p):
        path = out / f"mc{s}.json"
        report = ck.read_gap_report(checks, path, printed.get(str(path), ""))
        ck.check_gap_mc(checks, report, oracle[0], p["samples"])
    return 2 * p["samples"] * p["mc_reports"]


CHECKS = {"desk": check_desk, "deep": check_deep, "gap": check_gap}


# -- traced run --

def layer_probe(run: Cli, out: Path, seed: int):
    """A fixed small call of every subcommand, traced in every workload's
    traced run so each layer is timed on each workload."""
    run("converge", "--nq", "2,3,4", "--nr", 8, "--statistics", "pl,mu2",
        "--seed", seed, "--out", out)
    with contextlib.redirect_stderr(io.StringIO()):
        run("nstar-fit", *(out / f"curve_nq{q}_mu2.csv" for q in (2, 3, 4)),
            "--ln-eps=-1,-2", "--out", out / "fit")
    run("gap", "--exact", "--out", out / "gap_exact.json")
    run("gap", "--samples", 10_000, "--seed", seed, "--out", out / "gap_mc.json")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def traced(run: Cli, workload: str, d: Path, seed: int, p: dict) -> dict:
    import numpy as np

    import probes
    from spans import Tracer, layer_self_s

    modules = {layer: importlib.import_module(f"ucesim.{layer}")
               for layer in spec.LAYERS}
    counts = Counter()

    def on_run_ensemble(config, *_, **__):
        n_r = config.resolved_n_r()
        counts["runner.realizations"] += n_r
        counts["runner.gates"] += n_r * config.max_gates
        counts["ensemble_stats.states"] += n_r * len(config.checkpoints)

    tracer = Tracer()
    tracer.install(modules, {"runner.run_ensemble": on_run_ensemble})
    try:
        timing = JOBS[workload](run, d / "job", seed, p)
        layer_probe(run, d / "probe", seed)
    finally:
        tracer.uninstall()
    s = tracer.summary()

    def row(name, key):
        return s.get(name, {}).get(key, 0)

    m = {f"{layer}.self_s": layer_self_s(s, layer) for layer in spec.LAYERS}
    m.update(counts)
    m["runner.us_per_gate"] = 1e6 * m["runner.self_s"] / max(1, m["runner.gates"])
    m["runner.chunks"] = row("runner._run_chunk", "calls")
    m["gateset.realization_rng.calls"] = row("gateset.realization_rng", "calls")
    m["gateset.realization_rng.self_s"] = row("gateset.realization_rng", "self_s")
    m["scaling.n_star.calls"] = row("scaling.n_star", "calls")
    for fn in ("mc_two_copy_average", "exact_two_copy_average", "spectral_gap"):
        m[f"moment_operator.{fn}.self_s"] = row(f"moment_operator.{fn}", "self_s")
    m["moment_operator.embed_s"] = row("moment_operator.embed_four_qubit_operator",
                                       "total_s")
    m["cli.bytes_written"] = dir_bytes(d / "job") + dir_bytes(d / "probe")
    m["trace.spans"] = len(tracer)

    rng = np.random.default_rng(seed)
    kernels = {nq: probes.kernel_probe(nq, rng) for nq in spec.KERNEL_NQ}
    for nq, k in kernels.items():
        for key in ("u2_us", "cnot_us", "memcpy_us", "u2_floor_ratio",
                    "cnot_floor_ratio", "bytes_per_gate"):
            m[f"column_sim.{key}.nq{nq}"] = k[key]
    for nq in spec.STATE_NQ:
        m[f"ensemble_stats.us_per_state.nq{nq}"] = probes.state_probe(nq, rng)
    m["gateset.sample_gate_us"] = probes.sample_gate_probe(rng)

    tracer.write(d / "spans.csv.gz")
    with open(d / "layers.json", "w") as fh:
        json.dump(s, fh, indent=1, sort_keys=True)
    return {**timing, "layers": m,
            "column_bytes": {nq: k["column_bytes"] for nq, k in kernels.items()}}


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "round", "trace"), required=True)
    ap.add_argument("--workload", choices=tuple(JOBS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=tuple(spec.JOBS), default="full")
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args(argv)
    d = args.dir
    d.mkdir(parents=True, exist_ok=True)

    t0 = perf_counter()
    import numpy as np  # part of what set-up measures
    run = Cli(import_package())
    warm_up(run, args.workload, d / "warm")
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s, "numpy": np.__version__, "blas": blas_info(),
              "python": sys.version.split()[0]}

    if args.mode != "setup":
        p = spec.JOBS[args.scale][args.workload]
        if args.mode == "trace":
            result.update(traced(run, args.workload, d, args.seed, p))
        else:
            result.update(JOBS[args.workload](run, d / "job", args.seed, p))
        import checks as ck

        checks = ck.Checks()
        for argv_, rc, _ in run.calls:
            checks.check(rc == 0, f"ucesim {argv_[0]} exit {rc}")
        work = CHECKS[args.workload](run, checks, d / "job", args.seed, p)
        result.setdefault("work", work)
        result.update(attempted=checks.attempted, failures=checks.failures)

    for sub in ("warm", "job", "probe"):
        shutil.rmtree(d / sub, ignore_errors=True)
    with open(d / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
