"""Deterministic (worker-count independent) ensemble convergence runs.

Realizations are partitioned into fixed-size chunks regardless of the worker
count. Each chunk is reduced sequentially in realization order, and chunk
partials are merged sequentially in chunk order, so the floating-point
grouping — and therefore every output bit — is identical for 1 or 8 workers.
"""

from __future__ import annotations

import math
import multiprocessing

import numpy as np

from .column_sim import apply_gate, initial_column
from .ensemble_stats import (
    ConvergenceCurve,
    Histogram,
    StatisticKind,
    correlator_sum,
    hellinger_distance,
    intensities,
    log_intensities,
    moment_sum,
    relative_deviation,
)
from .gateset import EnsembleConfig, realization_rng, sample_gate

CHUNK_SIZE = 64


class _Kahan:
    """Compensated accumulator; deterministic for a fixed addition order."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    @property
    def value(self) -> float:
        return self.s


class _Accumulator:
    """Per-chunk partial sums for every requested statistic and checkpoint."""

    def __init__(self, n_q: int, n_checkpoints: int, stats):
        self.n_q = n_q
        self.stats = stats
        self.want_pl = any(s.kind == "pl" for s in stats)
        self.scalar_stats = [s for s in stats if s.kind != "pl"]
        self._template = Histogram(1 << n_q) if self.want_pl else None
        n_bins = self._template.bin_count + 1 if self.want_pl else 0
        self.hist_counts = [np.zeros(n_bins, dtype=np.int64)
                            for _ in range(n_checkpoints)] if self.want_pl else None
        self.hist_totals = [0] * n_checkpoints
        self.sums = {(ci, s.label): _Kahan()
                     for ci in range(n_checkpoints) for s in self.scalar_stats}
        self.counts = {key: 0 for key in self.sums}

    def add_state(self, ci: int, state):
        y = intensities(state)
        if self.want_pl:
            self.hist_counts[ci] += self._template.bin_counts(log_intensities(state))
            self.hist_totals[ci] += y.size
        for s in self.scalar_stats:
            key = (ci, s.label)
            if s.kind == "c":
                total, count = correlator_sum(y, s.k)
            else:
                total, count = moment_sum(y, s.k, s.row if s.kind == "mufix" else None)
            self.sums[key].add(total)
            self.counts[key] += count

    def merge(self, other: "_Accumulator"):
        if self.want_pl:
            for ci in range(len(self.hist_totals)):
                self.hist_counts[ci] += other.hist_counts[ci]
                self.hist_totals[ci] += other.hist_totals[ci]
        for key, kah in self.sums.items():
            kah.add(other.sums[key].s)
            kah.add(-other.sums[key].c)
            self.counts[key] += other.counts[key]


def _run_chunk(args) -> _Accumulator:
    config, labels, start, stop = args
    stats = tuple(StatisticKind.parse(lb) for lb in labels)
    cps = list(config.checkpoints)
    n_q, p_g = config.n_q, config.p_g
    accum = _Accumulator(n_q, len(cps), stats)
    for r in range(start, stop):
        rng = realization_rng(config.master_seed, r)
        state = initial_column(n_q)
        ci = 0
        if cps[ci] == 0:
            accum.add_state(ci, state)
            ci += 1
        for g in range(1, config.max_gates + 1):
            apply_gate(state, sample_gate(rng, n_q, p_g))
            if ci < len(cps) and g == cps[ci]:
                accum.add_state(ci, state)
                ci += 1
    return accum


def run_ensemble(config: EnsembleConfig, statistics, workers: int = 1) -> dict:
    """Run one ensemble and return {statistic label: ConvergenceCurve}.

    ``statistics`` is an iterable of StatisticKind or label strings; all
    statistics share the same simulated realizations.
    """
    stats = [s if isinstance(s, StatisticKind) else StatisticKind.parse(s)
             for s in statistics]
    if not stats:
        raise ValueError("no statistics requested")
    n = 1 << config.n_q
    for s in stats:
        if s.kind == "mufix" and s.row >= n:
            raise ValueError(f"fixed-element row {s.row} out of range for N={n}")
        if s.kind == "c" and s.k > n:
            raise ValueError(f"correlator order {s.k} exceeds N={n}")
    labels = tuple(s.label for s in stats)
    n_r = config.resolved_n_r()
    chunk_args = [(config, labels, start, min(start + CHUNK_SIZE, n_r))
                  for start in range(0, n_r, CHUNK_SIZE)]

    if workers <= 1 or len(chunk_args) == 1:
        partials = map(_run_chunk, chunk_args)
    else:
        ctx = multiprocessing.get_context()
        with ctx.Pool(workers) as pool:
            partials = pool.map(_run_chunk, chunk_args, chunksize=1)

    total = None
    for part in partials:
        if total is None:
            total = part
        else:
            total.merge(part)

    cps = list(config.checkpoints)
    curves = {}
    for s in stats:
        points = []
        for ci, ng in enumerate(cps):
            if s.kind == "pl":
                hist = Histogram(n)
                hist.merge_counts(total.hist_counts[ci], total.hist_totals[ci])
                d = hellinger_distance(hist)
            else:
                key = (ci, s.label)
                estimate = total.sums[key].value / total.counts[key]
                d = relative_deviation(estimate, s.reference(n))
            points.append((ng, d))
        curves[s.label] = ConvergenceCurve(n_q=config.n_q, statistic=s, points=points,
                                           n_r=n_r, master_seed=config.master_seed)
    return curves


def convergence_curve(config: EnsembleConfig, statistic, workers: int = 1) -> ConvergenceCurve:
    """Convergence curve of a single statistic for one ensemble config."""
    stat = statistic if isinstance(statistic, StatisticKind) else StatisticKind.parse(statistic)
    return run_ensemble(config, [stat], workers=workers)[stat.label]


def geometric_checkpoints(n_q: int, start: int = 2, ratio: float = math.sqrt(2.0),
                          max_mult: int = 40) -> tuple:
    """Roughly geometric gate-count grid {2, 3, 4, 6, 8, 11, 16, ...} up to
    max_mult * n_q, deduplicated."""
    limit = max_mult * n_q
    cps = []
    x = float(start)
    while round(x) <= limit:
        v = int(round(x))
        if not cps or v > cps[-1]:
            cps.append(v)
        x *= ratio
    if cps and cps[-1] < limit:
        cps.append(limit)
    return tuple(cps)
