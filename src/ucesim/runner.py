"""Deterministic (worker-count independent) ensemble convergence runs.

Realizations are partitioned into fixed-size chunks regardless of the worker
count. A chunk draws one gate tape row per realization and folds the blocks
of columns that ``iter_checkpoints`` yields (``fold_block``) into one
``Histogram`` per checkpoint for pl and, per checkpoint and scalar
statistic, the ``math.fsum`` of the per-column sums, whose term count
``StatisticKind.terms`` fixes. ``run_ensemble`` merges the chunks with ``+=``
(a ``Histogram`` adds integer bin counts, a list gains the chunk sum), takes
one more ``fsum`` over the chunk sums and divides it by terms(N) * n_r.
Integer counts and correctly rounded sums do not depend on the order in
which chunks arrive, so every output bit is the same for 1 or 8 workers; the
fixed chunk size is the only grouping.
"""

from __future__ import annotations

import math
import multiprocessing

from .column_sim import iter_checkpoints
from .ensemble_stats import (
    ConvergenceCurve,
    Histogram,
    StatisticKind,
    fold_block,
    hellinger_distance,
    relative_deviation,
)
from .gateset import EnsembleConfig, draw_tape, realization_rng

CHUNK_SIZE = 64
GRID_START = 2
GRID_RATIO = math.sqrt(2.0)
GRID_MAX_MULT = 40


def _run_chunk(args) -> list:
    """Fold realizations [start, stop) into one {label: accumulator} per
    checkpoint: a Histogram for pl, a list holding the chunk's one
    fsum-reduced sum for each scalar statistic."""
    config, stats, start, stop = args
    folds = [{s.label: Histogram(1 << config.n_q) if s.kind == "pl" else [] for s in stats}
             for _ in config.checkpoints]
    rngs = (realization_rng(config.master_seed, r) for r in range(start, stop))
    tape = draw_tape(rngs, config.n_q, config.max_gates, config.p_g)
    for k, block in iter_checkpoints(tape, config.checkpoints):
        fold_block(stats, block, folds[k])
    for fold in folds:
        for s in stats:
            if s.kind != "pl":
                fold[s.label] = [math.fsum(fold[s.label])]
    return folds


def _merge(partials) -> list:
    """Merge chunk folds in chunk order with ``+=``: a Histogram adds bin
    counts, a list gains the chunk sums for one final fsum."""
    partials = iter(partials)
    merged = next(partials)
    for folds in partials:
        for fold, part in zip(merged, folds):
            for label in fold:
                fold[label] += part[label]
    return merged


def run_ensemble(config: EnsembleConfig, statistics, workers: int = 1) -> dict:
    """Run one ensemble and return {statistic label: ConvergenceCurve}.

    ``statistics`` is an iterable of StatisticKind or label strings; all
    statistics share the same simulated realizations.
    """
    stats = list(dict.fromkeys(s if isinstance(s, StatisticKind) else StatisticKind.parse(s)
                               for s in statistics))
    n = 1 << config.n_q
    for s in stats:
        s.check_column(n)
    n_r = config.resolved_n_r()
    chunk_args = [(config, stats, start, min(start + CHUNK_SIZE, n_r))
                  for start in range(0, n_r, CHUNK_SIZE)]

    if workers <= 1 or len(chunk_args) == 1:
        folds = _merge(map(_run_chunk, chunk_args))
    else:
        with multiprocessing.get_context().Pool(workers) as pool:
            folds = _merge(pool.imap(_run_chunk, chunk_args))

    curves = {}
    for s in stats:
        points = []
        for ng, fold in zip(config.checkpoints, folds):
            if s.kind == "pl":
                d = hellinger_distance(fold[s.label])
            else:
                mean = math.fsum(fold[s.label]) / (s.terms(n) * n_r)
                d = relative_deviation(mean, s.reference(n))
            points.append((ng, d))
        curves[s.label] = ConvergenceCurve(n_q=config.n_q, statistic=s, points=points,
                                           n_r=n_r, master_seed=config.master_seed)
    return curves


def geometric_checkpoints(n_q: int) -> tuple:
    """Roughly geometric gate-count grid {2, 3, 4, 6, 8, 11, 16, ...} up to
    GRID_MAX_MULT * n_q, deduplicated."""
    limit = GRID_MAX_MULT * n_q
    cps = []
    x = float(GRID_START)
    while round(x) <= limit:
        v = int(round(x))
        if not cps or v > cps[-1]:
            cps.append(v)
        x *= GRID_RATIO
    if cps and cps[-1] < limit:
        cps.append(limit)
    return tuple(cps)
