"""Deterministic (worker-count independent) ensemble convergence runs.

Realizations are partitioned into fixed-size chunks of ``CHUNK_SIZE``
regardless of the worker count, and the chunks into batches of whole chunks,
the unit of work of the walk and the pool. A batch draws one gate tape row
per realization and folds the blocks of columns that ``iter_checkpoints``
yields (``fold_block``) into each statistic's ``accumulator`` per
checkpoint: a ``Histogram`` for pl, and for a scalar statistic one
``math.fsum`` of the per-column sums of each chunk. ``run_ensemble`` merges
the batches with ``+=`` (a ``Histogram`` adds integer bin counts, a list
gains the chunk sums) and leaves the finish, the estimate and its D over
n_r realizations, to ``StatisticKind.distance``. Integer counts and
correctly rounded sums do not depend on the order in which batches arrive
or on how chunks are batched, so every output bit is the same for 1 or 8
workers; the fixed chunk size is the only grouping.
"""

from __future__ import annotations

import math
import os

from .column_sim import BLOCK_GROUP, iter_checkpoints
from .ensemble_stats import StatisticKind, fold_block
from .gateset import EnsembleConfig, draw_tape, realization_rngs

CHUNK_SIZE = 64
# Most gates on one batch's tape (about 3 MiB), unless one chunk has more.
TAPE_GATES = 4 * BLOCK_GROUP
GRID_START = 2
GRID_RATIO = math.sqrt(2.0)
GRID_MAX_MULT = 40


def _run_chunk(args) -> list:
    """Fold realizations [start, stop), a batch of whole chunks, into one
    {label: accumulator} per checkpoint: a Histogram for pl, a list holding
    one fsum-reduced sum per chunk for each scalar statistic."""
    config, stats, start, stop, threads = args
    folds = [{s.label: s.accumulator(1 << config.n_q) for s in stats} for _ in config.checkpoints]
    rngs = realization_rngs(config.master_seed, start, stop)
    tape = draw_tape(rngs, config.n_q, config.max_gates, config.p_g, rows=stop - start)
    for k, block in iter_checkpoints(tape, config.checkpoints, threads):
        fold_block(stats, block, folds[k])
    for fold in folds:
        for s in stats:
            if s.kind != "pl":
                sums = fold[s.label]
                fold[s.label] = [math.fsum(sums[i:i + CHUNK_SIZE])
                                 for i in range(0, len(sums), CHUNK_SIZE)]
    return folds


def _merge(partials) -> list:
    """Merge batch folds in batch order with ``+=``: a Histogram adds bin
    counts, a list gains the chunk sums for one final fsum."""
    partials = iter(partials)
    merged = next(partials)
    for folds in partials:
        for fold, part in zip(merged, folds):
            for label in fold:
                fold[label] += part[label]
    return merged


def run_ensemble(config: EnsembleConfig, statistics, workers: int = 1) -> dict:
    """Run one ensemble and return {statistic label: [(n_g, D), ...]}, one
    point per checkpoint.

    ``statistics`` is an iterable of StatisticKind or label strings; all
    statistics share the same simulated realizations.
    """
    stats = list(dict.fromkeys(s if isinstance(s, StatisticKind) else StatisticKind.parse(s)
                               for s in statistics))
    n = 1 << config.n_q
    for s in stats:
        s.check_column(n)
    n_r = config.resolved_n_r()
    workers = max(1, workers)
    chunks = -(-n_r // CHUNK_SIZE)
    # A batch's tape stays within TAPE_GATES, and there are at least
    # min(workers, chunks) batches, so that every worker gets one.
    per_batch = max(1, min(TAPE_GATES // (CHUNK_SIZE * max(1, config.max_gates)),
                           -(-chunks // workers)))
    step = per_batch * CHUNK_SIZE
    starts = range(0, n_r, step)
    processes = min(workers, len(starts))
    # Each process walks columns above THREAD_MIN_N_Q qubits on its share
    # of the CPUs; the output bits do not depend on it. sched_getaffinity
    # exists only on some platforms, Linux among them.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threads = max(1, cpus // processes)
    batch_args = [(config, stats, start, min(start + step, n_r), threads) for start in starts]

    if processes == 1:
        folds = _merge(map(_run_chunk, batch_args))
    else:
        import multiprocessing

        with multiprocessing.get_context().Pool(processes) as pool:
            folds = _merge(pool.imap(_run_chunk, batch_args))

    return {s.label: [(ng, s.distance(fold[s.label], n, n_r))
                      for ng, fold in zip(config.checkpoints, folds)] for s in stats}


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
