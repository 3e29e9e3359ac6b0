"""Ensemble accumulators and distances to the CUE reference.

Statistics are gathered over both circuit realizations and the elements of
the first column: the binned log-intensity distribution, moments of
y = N |U_i1|^2 up to order 8, and non-overlapping same-column intensity
correlators. Distances are a Hellinger-type histogram distance (bounded by
2) and relative deviations for moments/correlators. ``fold_block`` is the one
estimator, and the one loop that cuts columns into pieces of at most
``BLOCK_GROUP`` amplitudes; the runner and the reference means hand it
blocks of columns. A scalar statistic's sum over a column is one number, the
``math.fsum`` of its sums over the pieces; ``StatisticKind.terms`` counts them.
``StatisticKind.accumulator``, ``mean`` and ``distance`` are the one rule
that starts an accumulator and turns it into an estimate and a D.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .column_sim import BLOCK_GROUP, StateColumn
from .cue_ref import cue_bin_mass, cue_correlator, cue_moment

BIN_COUNT = 200
L_MARGIN = 30.0  # l_min = ln N - L_MARGIN
_EDGE_TOL = 1e-9
# Piece of a row longer than BLOCK_GROUP: the largest multiple of 840 =
# lcm(1..8) within it, so that no c{k} block crosses a piece boundary.
ROW_PIECE = BLOCK_GROUP // 840 * 840


@dataclass(frozen=True)
class StatisticKind:
    """One of: distribution 'pl', moment 'mu' or correlator 'c'. A moment
    with a ``row`` reads that one element of each column."""

    kind: str
    k: int = 0
    row: int | None = None

    def __post_init__(self):
        if self.kind not in ("pl", "mu", "c"):
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.kind != "pl" and not 1 <= self.k <= 8:
            raise ValueError(f"statistic {self.label}: moment/correlator order k must be in 1..8")
        if self.row is not None and (self.kind != "mu" or self.row < 0):
            raise ValueError(f"statistic {self.label}: only a moment reads a row, and it is >= 0")

    @property
    def label(self) -> str:
        label = "pl" if self.kind == "pl" else f"{self.kind}{self.k}"
        return label if self.row is None else f"{label}x{self.row}"

    @classmethod
    def parse(cls, label: str) -> "StatisticKind":
        if label == "pl":
            return cls("pl")
        m = re.fullmatch(r"mu(\d+)(?:x(\d+))?|c(\d+)", label)
        if not m:
            raise ValueError(f"cannot parse statistic {label!r}")
        mu, row, c = m.groups()
        return cls("c", int(c)) if c else cls("mu", int(mu), None if row is None else int(row))

    def check_column(self, N: int):
        """Raise ValueError unless this statistic is defined on a column of N elements."""
        if self.row is not None and self.row >= N:
            raise ValueError(f"statistic {self.label}: row {self.row} out of range for N={N}")
        if self.kind == "c" and self.k > N:
            raise ValueError(f"statistic {self.label}: correlator order {self.k} exceeds N={N}")

    def reference(self, N: int) -> float:
        """CUE limit of the estimator (undefined for 'pl')."""
        if self.kind == "pl":
            raise ValueError("'pl' has no scalar reference; use the histogram")
        if self.kind == "c":
            return cue_correlator(self.k, N)
        return cue_moment(self.k, N)

    def terms(self, N: int) -> int:
        """Number of terms in one column's ``state_sum``: N for mu{k}, 1 for
        mu{k}x{row} and floor(N/k) for c{k}."""
        if self.kind == "pl":
            raise ValueError("'pl' has no per-state sum; use the histogram")
        if self.kind == "c":
            return N // self.k
        return N if self.row is None else 1

    def state_sum(self, y: np.ndarray, lo: int = 0):
        """Sum of this scalar statistic's terms over one column's intensities
        y, or the R row sums of an (R, N) block; ``terms`` counts them. With
        ``lo``, y holds elements lo, lo + 1, ... of each column, and the sum
        is over the terms that lie there (0 if none).

        mu{k} sums y^k over the column and mu{k}x{row} probes one element.
        c{k} splits the column into floor(N/k) blocks of k consecutive
        elements and sums their products; leftovers are unused so no element
        enters two products. A piece that starts at a multiple of k holds
        whole blocks, and its leftovers are the column's.
        """
        if self.row is not None:
            i = self.row - lo
            return y[..., i] ** self.k if 0 <= i < y.shape[-1] else np.zeros(y.shape[:-1])
        if self.kind == "mu":
            return (y ** self.k).sum(axis=-1)
        if self.kind == "c":
            nb, k = self.terms(y.shape[-1]), self.k
            return y[..., : nb * k].reshape(*y.shape[:-1], nb, k).prod(axis=-1).sum(axis=-1)
        raise ValueError("'pl' has no per-state sum; use the histogram")

    def accumulator(self, N: int):
        """An empty ``fold_block`` accumulator: a Histogram(N) for pl, else a list."""
        return Histogram(N) if self.kind == "pl" else []

    def mean(self, sums, N: int, rows: int) -> float:
        """Estimate over ``rows`` columns: fsum of their (chunk) sums / (terms(N) * rows)."""
        return math.fsum(sums) / (self.terms(N) * rows)

    def distance(self, acc, N: int, rows: int) -> float:
        """D of a filled accumulator to CUE: the Hellinger distance of the pl
        histogram, or the relative deviation of ``mean`` from ``reference``."""
        if self.kind == "pl":
            return hellinger_distance(acc)
        return relative_deviation(self.mean(acc, N, rows), self.reference(N))


class Histogram:
    """Uniform-bin histogram of log-intensities on [l_min, ln N] with an
    underflow bin for l < l_min (including l = -inf).

    Reference bin masses come from the closed-form CDF, so they sum to 1
    exactly over underflow + bins.
    """

    def __init__(self, N: int):
        if N < 2:
            raise ValueError("N must be >= 2")
        self.N = N
        self.ln_n = math.log(N)
        self.l_min = self.ln_n - L_MARGIN
        self.bin_count = BIN_COUNT
        self.edges = np.linspace(self.l_min, self.ln_n, self.bin_count + 1)
        # counts[0] is the underflow bin; counts[1:] the regular bins.
        self.counts = np.zeros(self.bin_count + 1, dtype=np.int64)

    @property
    def total(self) -> int:
        """Values counted so far, underflow included."""
        return int(self.counts.sum())

    def bin_counts(self, values) -> np.ndarray:
        """Counts vector (underflow + bins) for a batch of any shape; does
        not mutate.

        Index k counts the edges <= v: 0 is underflow, k in 1..bin_count is
        [edges[k-1], edges[k]), and v >= ln N joins the last bin. The batch
        is binned whole and arithmetically, k = floor(g) with g = 1 + (v -
        l_min) / bin width clipped to [1/2, bin_count + 1/2]; the few values
        with g within ``_EDGE_TOL`` of an integer, which rounding could put on
        the wrong side of an edge, are re-binned exactly against ``edges``.
        A value above ln N + ``_EDGE_TOL``, or a NaN, raises ValueError.
        """
        v = np.asarray(values, dtype=float).ravel()
        if v.size and not v.max() <= self.ln_n + _EDGE_TOL:
            raise ValueError("log-intensity above ln N or NaN: normalization bug")
        scale = self.bin_count / (self.ln_n - self.l_min)
        g = v * scale
        g += 1.0 - self.l_min * scale
        np.maximum(g, 0.5, out=g)  # clip, without np.clip's call overhead
        np.minimum(g, self.bin_count + 0.5, out=g)
        k = np.floor(g)
        g -= k
        idx = k.astype(np.intp)
        near = np.flatnonzero(np.abs(g - 0.5) > 0.5 - _EDGE_TOL)
        if near.size:
            idx[near] = np.searchsorted(self.edges, v[near], "right")
        return np.bincount(idx, minlength=self.bin_count + 1)

    def add(self, values) -> "Histogram":
        self.counts += self.bin_counts(values)
        return self

    def __iadd__(self, other: "Histogram") -> "Histogram":
        self.counts += other.counts
        return self

    def empirical_masses(self) -> np.ndarray:
        if self.total == 0:
            raise ValueError("empty histogram")
        return self.counts / self.total

    def cue_masses(self) -> np.ndarray:
        """CUE masses of the underflow and regular bins (read-only)."""
        return _cue_masses(self.N)


@functools.cache
def _cue_masses(N: int) -> np.ndarray:
    """``Histogram(N).cue_masses()``, computed once per N."""
    hist = Histogram(N)
    masses = np.empty(hist.bin_count + 1)
    masses[0] = cue_bin_mass(-math.inf, hist.l_min, N)
    masses[1:] = cue_bin_mass(hist.edges[:-1], hist.edges[1:], N)
    masses.flags.writeable = False
    return masses


def log_intensities(state: StateColumn) -> np.ndarray:
    """l_i = ln(N |a_i|^2); exact zeros map to -inf."""
    with np.errstate(divide="ignore"):
        return np.log(intensities(state.amplitudes, 1 << state.n_q))


def hellinger_distance(hist: Histogram) -> float:
    """D_P = 2 (1 - sum_b sqrt(p~_b p_b)) over underflow + regular bins."""
    p_emp = hist.empirical_masses()
    p_ref = hist.cue_masses()
    return float(2.0 * (1.0 - np.sum(np.sqrt(p_emp * p_ref))))


def intensities(a: np.ndarray, n: int) -> np.ndarray:
    """y_i = n |a_i|^2 of amplitudes a of columns of length n: one column, an
    (R, n) block or a piece of either. n is not read from a's shape, so a
    piece is scaled like its column."""
    return n * np.abs(a) ** 2


def fold_block(stats, block: np.ndarray, fold: dict) -> dict:
    """Add an (R, N) block of columns to ``fold``, {label: accumulator}: a
    Histogram for pl, and for each scalar statistic a list that gains the
    column's sum, one float per column.

    The one loop that cuts columns into pieces of at most ``BLOCK_GROUP``
    amplitudes, so no temporary scales with N: runs of as many whole rows as
    fit, in one piece N wide, or else one row in pieces of ``ROW_PIECE``.
    Per piece, y = N |a|^2 serves every statistic: pl bins log y of the
    nonzero y and counts the zeros as underflow, a scalar statistic takes its
    ``state_sum`` over each row. A column's sum is its one piece sum, or
    else the ``math.fsum`` of its piece sums.
    """
    rows, n = block.shape
    width = n if n <= BLOCK_GROUP else ROW_PIECE
    step = max(1, BLOCK_GROUP // n)
    for r in range(0, rows, step):
        run = block[r:r + step]
        parts = {s.label: [] for s in stats if s.kind != "pl"}
        for lo in range(0, n, width):
            y = intensities(run[:, lo:lo + width], n)
            for s in stats:
                if s.kind == "pl":
                    # ln 0 = -inf lands in the underflow bin: count the zeros
                    # there and bin the rest (NaN is nonzero, so it raises).
                    hist, flat = fold[s.label], y.ravel()
                    zeros = flat.size - np.count_nonzero(flat)
                    hist.add(np.log(flat[flat != 0] if zeros else flat))
                    hist.counts[0] += zeros
                else:
                    parts[s.label].append(s.state_sum(y, lo))
        for label, p in parts.items():
            fold[label].extend(p[0].tolist() if len(p) == 1
                               else [math.fsum(col) for col in zip(*p)])
    return fold


def mean_over_states(block: np.ndarray, stat: StatisticKind) -> float:
    """The reference mean of a scalar statistic over an (R, N) block of
    columns: the fsum of their ``fold_block`` sums over terms(N) * R."""
    if block.ndim != 2 or 0 in block.shape:
        raise ValueError(f"expected a non-empty (R, N) block, got shape {block.shape}")
    if stat.kind == "pl":
        raise ValueError("'pl' has no mean; use the histogram")
    rows, n = block.shape
    stat.check_column(n)
    return stat.mean(fold_block([stat], block, {stat.label: []})[stat.label], n, rows)


def moment_estimate(states, k: int, row: int | None = None) -> float:
    """Mean of y^k over all elements and realizations of a list of
    ``StateColumn``s of one length; with ``row`` given, only that element is
    probed (no column average). A lone column is folded without a copy."""
    columns = [s.amplitudes for s in states]
    if not columns:
        raise ValueError("empty state stream")
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("columns of different lengths")
    block = columns[0][None] if len(columns) == 1 else np.stack(columns)
    return mean_over_states(block, StatisticKind("mu", k, row))


def relative_deviation(estimate: float, reference: float) -> float:
    """D = |estimate - reference| / reference."""
    if reference <= 0:
        raise ValueError("reference must be positive")
    return abs(estimate - reference) / reference
