"""Batch command-line interface.

Subcommands:
  converge      run ensembles across qubit counts, write curve CSVs + manifest
  nstar-fit     extract n*(n_q, eps) from curve CSVs and fit f1/f2/f3
  gap           moment-operator spectral gap report (JSON)
  oracle-check  simulator-vs-dense-oracle and estimator-vs-reference suites
  dump-circuit  print the text serialization of one sampled circuit

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 verification
failure. The default output directory can be set via UCESIM_OUT.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import defaultdict

import numpy as np

from . import __version__
from .column_sim import StateColumn, dense_unitary_oracle, walk_block, walk_columns
from .cue_ref import cue_correlator, cue_moment, sample_haar_first_column
from .ensemble_stats import (
    ConvergenceCurve,
    StatisticKind,
    correlator_estimate,
    mean_over_states,
    moment_estimate,
)
from .gateset import MAX_N_Q, STREAM_VERSION, EnsembleConfig, circuit_to_text, sample_circuit
from .runner import geometric_checkpoints, run_ensemble
from .scaling import MODELS, NStarPoint, fit_model, n_star

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return "%.17g" % x


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"expected a comma list of integers, got {text!r}") from None


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"expected a comma list of numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"expected finite numbers, got {text!r}")
    return values


def _finite_float(text: str) -> float:
    """float(text), with inf and nan a ValueError."""
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(text)


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        # An emitted manifest: rerun it only on the draw layout it was made with.
        version = data.get("stream_version")
        if version != STREAM_VERSION:
            found = "no stream_version" if version is None else f"stream_version {version!r}"
            raise UsageError(f"{path}: manifest has {found}, but this ucesim draws "
                             f"stream_version {STREAM_VERSION}; its curves would not "
                             "be reproduced")
        data = data["config"]
    return data


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


# What each config value must be, checked after flags and file are merged.
_CONFIG_TYPES = {
    "n_q": (lambda v: _is_int_list(v) and v, "a list of integers (at least one)"),
    "statistics": (lambda v: isinstance(v, list) and v and all(isinstance(x, str) for x in v),
                   "a list of statistic labels (at least one)"),
    "checkpoints": (lambda v: v is None or _is_int_list(v), "null or a list of integers"),
    "n_r": (lambda v: v is None or _is_int(v), "null or an integer"),
    "sizing": (lambda v: v is None or (_is_int_list(v) and len(v) == 2),
               "two integers a,b"),
    "master_seed": (_is_int, "an integer"),
    "p_g": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "max_n_q": (_is_int, "an integer"),
}


def _effective_config(args) -> dict:
    cfg = {
        "n_q": [3, 4],
        "statistics": ["pl"],
        "checkpoints": None,
        "n_r": None,
        "sizing": [10, 20],
        "master_seed": 20260823,
        "p_g": 0.5,
        "max_n_q": MAX_N_Q,
    }
    if args.config:
        data = _load_config_file(args.config)
        unknown = sorted(set(data) - set(cfg))
        if unknown:
            raise UsageError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
        cfg.update(data)
    if args.nq is not None:
        cfg["n_q"] = _parse_int_list(args.nq)
    if args.statistics is not None:
        cfg["statistics"] = [s.strip() for s in args.statistics.split(",") if s.strip()]
    if args.checkpoints is not None:
        cfg["checkpoints"] = _parse_int_list(args.checkpoints)
    if args.nr is not None:
        cfg["n_r"] = args.nr
        cfg["sizing"] = None
    if args.sizing is not None:
        cfg["sizing"] = _parse_int_list(args.sizing)
        cfg["n_r"] = None
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.pg is not None:
        cfg["p_g"] = args.pg
    for key, (ok, what) in _CONFIG_TYPES.items():
        if not ok(cfg[key]):
            raise UsageError(f"{key} must be {what}, got {cfg[key]!r}")
    if max(cfg["n_q"]) > cfg["max_n_q"]:
        raise UsageError(f"n_q={max(cfg['n_q'])} exceeds memory cap {cfg['max_n_q']}")
    return cfg


# Curve CSV columns, in file order, and how nstar-fit reads each.
_CURVE_FIELDS = {"nq": int, "ng": int, "statistic": StatisticKind.parse, "value": _finite_float,
                 "n_r": int, "seed": int}


def _write_curve_csv(path: str, curve: ConvergenceCurve):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CURVE_FIELDS)
        for ng, d in curve.points:
            writer.writerow([curve.n_q, ng, curve.statistic.label, _fmt(d),
                             curve.n_r, curve.master_seed])


def cmd_converge(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    cfg = _effective_config(args)
    # Pre-flight: every run of every n_q is checked before anything is written.
    cps = cfg["checkpoints"]
    try:
        stats = [StatisticKind.parse(label) for label in cfg["statistics"]]
        configs = [EnsembleConfig(
            n_q=nq, checkpoints=geometric_checkpoints(nq) if cps is None else tuple(cps),
            master_seed=cfg["master_seed"], p_g=cfg["p_g"], n_r=cfg["n_r"],
            sizing=tuple(cfg["sizing"]) if cfg["sizing"] else None) for nq in cfg["n_q"]]
        for s in stats:  # a statistic that fits the smallest column fits them all
            s.check_column(1 << min(cfg["n_q"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out_dir = args.out or os.environ.get("UCESIM_OUT", ".")
    os.makedirs(out_dir, exist_ok=True)
    for econf in configs:
        curves = run_ensemble(econf, stats, workers=args.workers)
        for s in stats:
            path = os.path.join(out_dir, f"curve_nq{econf.n_q}_{s.label}.csv")
            _write_curve_csv(path, curves[s.label])
    manifest = {
        "config": cfg,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": ".".join(str(v) for v in sys.version_info[:3]),
        "stream_version": STREAM_VERSION,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _curve_rows(path: str):
    """Yield (path:line, {column: value}) for each row of a curve CSV; a
    missing column or a bad field is a UsageError at path:line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _CURVE_FIELDS if c not in (reader.fieldnames or ())]
        if missing:
            raise UsageError(f"{path}:1: missing column(s) {', '.join(missing)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            fields = {}
            for column, read in _CURVE_FIELDS.items():
                try:
                    fields[column] = read(row[column])
                except (TypeError, ValueError):
                    raise UsageError(f"{where}: bad {column} {row[column]!r}") from None
            yield where, fields


def read_curves(paths) -> dict:
    """Load curve CSVs, returning {statistic: {nq: ConvergenceCurve}}.

    The rows of one (statistic, nq) must come from one run: one n_r, one
    seed and no gate count twice. Anything else is a UsageError that names
    both files.
    """
    runs = {}  # (label, nq) -> (statistic, n_r, seed, first file)
    points = defaultdict(dict)  # (label, nq) -> {ng: (value, file)}
    for path in paths:
        for where, f in _curve_rows(path):
            stat = f["statistic"]
            key = (stat.label, f["nq"])
            _, n_r, seed, first = runs.setdefault(key, (stat, f["n_r"], f["seed"], path))
            clash = f"{where}: statistic {stat.label} at nq {f['nq']}"
            if (f["n_r"], f["seed"]) != (n_r, seed):
                raise UsageError(f"{clash} has n_r {f['n_r']} and seed {f['seed']}, "
                                 f"but {first} has n_r {n_r} and seed {seed}")
            if f["ng"] in points[key]:
                raise UsageError(f"{clash} repeats ng {f['ng']} of {points[key][f['ng']][1]}")
            points[key][f["ng"]] = (f["value"], path)
    curves = {}
    for (label, nq), (stat, n_r, seed, _) in runs.items():
        curves.setdefault(label, {})[nq] = ConvergenceCurve(
            n_q=nq, statistic=stat, n_r=n_r, master_seed=seed,
            points=[(ng, value) for ng, (value, _) in sorted(points[(label, nq)].items())])
    return curves


def cmd_nstar_fit(args) -> int:
    if not args.curves:
        raise UsageError("no curve files given")
    ln_eps_list = _parse_float_list(args.ln_eps)
    if not ln_eps_list:
        raise UsageError("empty --ln-eps list")
    if not 1 < args.guard < math.inf:
        raise UsageError(f"--guard must exceed 1 and be finite, got {args.guard}")
    curves = read_curves(args.curves)
    out_dir = args.out or os.environ.get("UCESIM_OUT", ".")
    os.makedirs(out_dir, exist_ok=True)
    warnings = 0
    for label in sorted(curves):
        by_nq = curves[label]
        nstar_path = os.path.join(out_dir, f"nstar_{label}.csv")
        fits_path = os.path.join(out_dir, f"fits_{label}.csv")
        with open(nstar_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["nq", "ln_eps", "n_star"])
            table = defaultdict(list)
            for ln_eps in ln_eps_list:
                eps = math.exp(ln_eps)
                for nq in sorted(by_nq):
                    ns = n_star(by_nq[nq], eps, guard_factor=args.guard)
                    writer.writerow([nq, _fmt(ln_eps), "NA" if ns is None else ns])
                    if ns is not None:
                        table[ln_eps].append(NStarPoint(n_q=nq, ln_eps=ln_eps, n_star=ns))
        with open(fits_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "ln_eps", "a", "b", "chi2"])
            for ln_eps in ln_eps_list:
                pts = table.get(ln_eps, [])
                if len(pts) < 3:
                    warnings += 1
                    print(f"warning: {label} ln_eps={ln_eps}: only {len(pts)} "
                          "reachable points, fits skipped", file=sys.stderr)
                    for model in MODELS:
                        writer.writerow([model, _fmt(ln_eps), "NA", "NA", "NA"])
                    continue
                for model in MODELS:
                    fit = fit_model(pts, model)
                    writer.writerow([model, _fmt(ln_eps), _fmt(fit.a),
                                     _fmt(fit.b), _fmt(fit.chi2)])
    if warnings:
        print(f"{warnings} fit group(s) skipped", file=sys.stderr)
    return EXIT_OK


def cmd_gap(args) -> int:
    from .moment_operator import MIN_MC_SAMPLES, build_moment_operator, spectral_gap

    if not args.exact and args.samples < MIN_MC_SAMPLES:
        raise UsageError(f"--samples must be >= {MIN_MC_SAMPLES} without --exact, "
                         f"got {args.samples}")
    rng = np.random.default_rng(args.seed)
    g, sigma = build_moment_operator(args.samples, rng, exact=args.exact)
    res = spectral_gap(g, sigma=sigma, sample_count=0 if args.exact else args.samples)
    report = {
        "gap": res.gap,
        "multiplicity": res.multiplicity,
        "samples": res.sample_count,
        "sigma_estimate": res.sigma,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise UsageError("trials must be >= 1")
    if not 2 <= args.nq_max <= 8:
        raise UsageError("nq-max must be in 2..8")
    failures = 0

    # Both walks (block step and per-column slab kernels) against the
    # dense full-matrix oracle.
    for trial in range(args.trials):
        nq = 2 + trial % (args.nq_max - 1)
        circuit = sample_circuit(args.seed, trial, nq, 30)
        oracle = dense_unitary_oracle(circuit)[:, 0]
        for name, walk in (("block", walk_block), ("column", walk_columns)):
            ((_, column),) = walk(circuit.tape, [30])
            err = float(np.max(np.abs(column[0] - oracle)))
            ok = err < 1e-12
            failures += not ok
            print(f"oracle {name} nq={nq} trial={trial} err={err:.3e} "
                  f"{'ok' if ok else 'FAIL'}")

    # Estimators against Haar-sampled first columns.
    rng = np.random.default_rng(args.seed)
    N = 8
    states = [StateColumn(3, sample_haar_first_column(N, rng)) for _ in range(4000)]
    for label, est, ref in (
        ("mu1", moment_estimate(states, 1), cue_moment(1, N)),
        ("mu2", moment_estimate(states, 2), cue_moment(2, N)),
        ("c2", correlator_estimate(states, 2), cue_correlator(2, N)),
    ):
        if label == "mu1":
            ok = abs(est - ref) < 1e-12
        else:
            stat = StatisticKind.parse(label)
            means = [mean_over_states([s], stat) for s in states]
            ok = abs(est - ref) < 5 * float(np.std(means)) / math.sqrt(len(states))
        failures += not ok
        print(f"haar {label} est={est:.6f} ref={ref:.6f} {'ok' if ok else 'FAIL'}")

    print(f"{'PASS' if failures == 0 else 'FAIL'} ({failures} failure(s))")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_dump_circuit(args) -> int:
    if args.nq < 1:
        raise UsageError(f"--nq must be >= 1, got {args.nq}")
    if args.ng < 0:
        raise UsageError(f"--ng must be >= 0, got {args.ng}")
    circuit = sample_circuit(args.seed, args.index, args.nq, args.ng)
    sys.stdout.write(circuit_to_text(circuit))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _non_negative_int(text: str) -> int:
    """argparse type of every --seed and --index flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ucesim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="run ensembles and write curve CSVs")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--nq", help="comma list of qubit counts")
    p.add_argument("--statistics", help="comma list, e.g. pl,mu2,c2,mu4x0")
    p.add_argument("--checkpoints", help="comma list of gate counts")
    p.add_argument("--nr", type=int, help="explicit realization count")
    p.add_argument("--sizing", help="a,b for n_r = a*2^(b-nq)")
    p.add_argument("--seed", type=_non_negative_int, help="master seed")
    p.add_argument("--pg", type=float, help="single-qubit gate probability")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="output directory (default $UCESIM_OUT or .)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("nstar-fit", help="extract n* and fit f1/f2/f3")
    p.add_argument("curves", nargs="*", help="curve CSV files")
    p.add_argument("--ln-eps", required=True, help="comma list of ln(eps) values")
    p.add_argument("--guard", type=float, default=2.0,
                   help="saturation guard factor (default 2)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_nstar_fit)

    p = sub.add_parser("gap", help="moment-operator spectral gap report")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="exact Haar averages instead of Monte Carlo")
    p.add_argument("--out", help="write the JSON report here as well")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("oracle-check", help="run verification suites")
    p.add_argument("--nq-max", type=int, default=5)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("dump-circuit", help="print one circuit serialization")
    p.add_argument("--nq", type=int, required=True)
    p.add_argument("--ng", type=int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--index", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_dump_circuit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
