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
from .column_sim import dense_unitary_oracle, walk_block, walk_columns
from .cue_ref import sample_haar_first_columns
from .ensemble_stats import StatisticKind, fold_block
from .gateset import MAX_N_Q, STREAM_VERSION, EnsembleConfig, circuit_to_text, sample_circuit
from .runner import geometric_checkpoints, run_ensemble
from .scaling import MODELS, fit_model, n_star

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


def _split_labels(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _parse_ln_eps(text: str) -> list[float]:
    """The --ln-eps comma list: distinct finite numbers x with exp(x) a positive float."""
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"expected a comma list of numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"expected finite numbers, got {text!r}")
    for i, x in enumerate(values):
        if not (x <= math.log(sys.float_info.max) and math.exp(x) > 0):
            raise UsageError(f"--ln-eps {x!r} makes eps = exp(ln_eps) 0 or overflow a float")
        if x in values[:i]:  # a repeat would be written and fitted twice
            raise UsageError(f"--ln-eps lists {x!r} twice")
    return values


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        # An emitted manifest: rerun it only on the draw layout and column
        # arithmetic it was made with.
        version = data.get("stream_version")
        if version != STREAM_VERSION:
            found = "no stream_version" if version is None else f"stream_version {version!r}"
            raise UsageError(f"{path}: manifest has {found}, but this ucesim makes "
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
    data = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(data) - set(cfg))
    if unknown:
        raise UsageError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
    flags = {k: v for k in cfg if (v := getattr(args, k, None)) is not None}
    for source in (data, flags):
        # Each source in turn, file then flags, replaces the realization
        # rule before it; a file that sets both keeps both, and n_r wins.
        if source.keys() & {"n_r", "sizing"}:
            cfg["n_r"] = cfg["sizing"] = None
        cfg.update(source)
    for key, (ok, what) in _CONFIG_TYPES.items():
        if not ok(cfg[key]):
            raise UsageError(f"{key} must be {what}, got {cfg[key]!r}")
    if max(cfg["n_q"]) > cfg["max_n_q"]:
        raise UsageError(f"n_q={max(cfg['n_q'])} exceeds memory cap {cfg['max_n_q']}")
    return cfg


def _in_range(read, low, high=math.inf):
    """A curve column reader: read(text), with a value outside [low, high)
    or NaN a ValueError."""
    def check(text):
        if low <= (value := read(text)) < high:
            return value
        raise ValueError(text)
    return check


# Curve CSV columns, in file order, and how nstar-fit reads each; nq and ng
# stay below 2**53, where the fits and n* interpolation hold them as floats.
_CURVE_FIELDS = {"nq": _in_range(int, 1, 2 ** 53), "ng": _in_range(int, 0, 2 ** 53),
                 "statistic": StatisticKind.parse, "value": _in_range(float, 0),
                 "n_r": _in_range(int, 1), "seed": _in_range(int, 0)}


def _write_curve_csv(path: str, config: EnsembleConfig, label: str, points):
    """One run's curve of one statistic, a row per (n_g, D) point."""
    n_r = config.resolved_n_r()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CURVE_FIELDS)
        for ng, d in points:
            writer.writerow([config.n_q, ng, label, _fmt(d), n_r, config.master_seed])


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
    # A repeat would run twice and overwrite its own curve files.
    for i, nq in enumerate(cfg["n_q"]):
        if nq in cfg["n_q"][:i]:
            raise UsageError(f"n_q lists {nq} twice")
    for i, s in enumerate(stats):
        if s in stats[:i]:
            raise UsageError(f"statistics lists {s.label} twice: "
                             f"{cfg['statistics'][stats.index(s)]!r} and {cfg['statistics'][i]!r}")
    out_dir = args.out or os.environ.get("UCESIM_OUT", ".")
    os.makedirs(out_dir, exist_ok=True)
    for econf in configs:
        curves = run_ensemble(econf, stats, workers=args.workers)
        for s in stats:
            path = os.path.join(out_dir, f"curve_nq{econf.n_q}_{s.label}.csv")
            _write_curve_csv(path, econf, s.label, curves[s.label])
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
    """Load curve CSVs, returning {statistic label: {nq: [(ng, value), ...]}}
    with each curve's points in ng order.

    The rows of one (statistic, nq) must come from one run: one n_r, one
    seed and no gate count twice. Anything else is a UsageError that names
    both files; so are files that hold no rows at all.
    """
    runs = {}  # (label, nq) -> (n_r, seed, first file)
    points = defaultdict(dict)  # (label, nq) -> {ng: (value, file)}
    for path in paths:
        for where, f in _curve_rows(path):
            key = (f["statistic"].label, f["nq"])
            n_r, seed, first = runs.setdefault(key, (f["n_r"], f["seed"], path))
            clash = f"{where}: statistic {key[0]} at nq {key[1]}"
            if (f["n_r"], f["seed"]) != (n_r, seed):
                raise UsageError(f"{clash} has n_r {f['n_r']} and seed {f['seed']}, "
                                 f"but {first} has n_r {n_r} and seed {seed}")
            if f["ng"] in points[key]:
                raise UsageError(f"{clash} repeats ng {f['ng']} of {points[key][f['ng']][1]}")
            points[key][f["ng"]] = (f["value"], path)
    if not runs:
        raise UsageError(f"no curve rows read from {', '.join(paths)}")
    curves = {}
    for (label, nq), by_ng in points.items():
        curves.setdefault(label, {})[nq] = [(ng, d) for ng, (d, _) in sorted(by_ng.items())]
    return curves


def cmd_nstar_fit(args) -> int:
    if not args.curves:
        raise UsageError("no curve files given")
    ln_eps_list = _parse_ln_eps(args.ln_eps)
    if not ln_eps_list:
        raise UsageError("empty --ln-eps list")
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
                    ns = n_star(by_nq[nq], eps)
                    writer.writerow([nq, _fmt(ln_eps), "NA" if ns is None else ns])
                    if ns is not None:
                        table[ln_eps].append((nq, ns))
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
                    writer.writerow([model, _fmt(ln_eps),
                                     *map(_fmt, fit_model(pts, ln_eps, model))])
    if warnings:
        print(f"{warnings} fit group(s) skipped", file=sys.stderr)
    return EXIT_OK


def cmd_gap(args) -> int:
    from .moment_operator import MIN_MC_SAMPLES, build_moment_operator, spectral_gap

    if not args.exact and args.samples < MIN_MC_SAMPLES:
        raise UsageError(f"--samples must be >= {MIN_MC_SAMPLES} without --exact, "
                         f"got {args.samples}")
    rng = None if args.exact else np.random.default_rng(args.seed)
    g, sigma = build_moment_operator(args.samples, rng, exact=args.exact)
    gap, multiplicity = spectral_gap(g)
    report = {
        "gap": gap,
        "multiplicity": multiplicity,
        "samples": 0 if args.exact else args.samples,
        "sigma_estimate": sigma,
        "stream_version": STREAM_VERSION,
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
        tape = sample_circuit(args.seed, trial, nq, 30)
        oracle = dense_unitary_oracle(tape)[:, 0]
        for name, walk in (("block", walk_block), ("column", walk_columns)):
            ((_, column),) = walk(tape, [30])
            err = float(np.max(np.abs(column[0] - oracle)))
            ok = err < 1e-12
            failures += not ok
            print(f"oracle {name} nq={nq} trial={trial} err={err:.3e} "
                  f"{'ok' if ok else 'FAIL'}")

    # Estimators against Haar-sampled first columns, folded as one block and
    # finished by StatisticKind.mean, as the runner finishes its chunk sums.
    rng = np.random.default_rng(args.seed)
    N = 8
    block = sample_haar_first_columns(4000, N, rng)
    stats = [StatisticKind.parse(label) for label in ("mu1", "mu2", "c2")]
    fold = fold_block(stats, block, {s.label: s.accumulator(N) for s in stats})
    for s in stats:
        sums = fold[s.label]
        est, ref = s.mean(sums, N, len(block)), s.reference(N)
        if s.label == "mu1":
            ok = abs(est - ref) < 1e-12
        else:
            means = np.array(sums) / s.terms(N)
            ok = abs(est - ref) < 5 * float(np.std(means)) / math.sqrt(len(block))
        failures += not ok
        print(f"haar {s.label} est={est:.6f} ref={ref:.6f} {'ok' if ok else 'FAIL'}")

    print(f"{'PASS' if failures == 0 else 'FAIL'} ({failures} failure(s))")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_dump_circuit(args) -> int:
    if args.nq < 1:
        raise UsageError(f"--nq must be >= 1, got {args.nq}")
    if args.ng < 0:
        raise UsageError(f"--ng must be >= 0, got {args.ng}")
    tape = sample_circuit(args.seed, args.index, args.nq, args.ng)
    sys.stdout.write(circuit_to_text(tape, args.seed, args.index))
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
    # Each flag's dest is its config key, and it arrives parsed.
    p.add_argument("--nq", dest="n_q", metavar="NQ", type=_parse_int_list,
                   help="comma list of qubit counts")
    p.add_argument("--statistics", type=_split_labels, help="comma list, e.g. pl,mu2,c2,mu4x0")
    p.add_argument("--checkpoints", type=_parse_int_list, help="comma list of gate counts")
    rule = p.add_mutually_exclusive_group()
    rule.add_argument("--nr", dest="n_r", metavar="NR", type=int,
                      help="explicit realization count")
    rule.add_argument("--sizing", type=_parse_int_list, help="a,b for n_r = a*2^(b-nq)")
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=_non_negative_int,
                   help="master seed")
    p.add_argument("--pg", dest="p_g", metavar="PG", type=float,
                   help="single-qubit gate probability")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="output directory (default $UCESIM_OUT or .)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("nstar-fit", help="extract n* and fit f1/f2/f3")
    p.add_argument("curves", nargs="*", help="curve CSV files")
    p.add_argument("--ln-eps", required=True, help="comma list of ln(eps) values")
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
