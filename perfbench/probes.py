"""Per-call timings of single layers, measured from outside the package.

Each probe calls a public function on a fixed random input and reports the
median time of one call. Kernel times are set against ``copy()`` of the
same column. Every column here (16 MiB at n_q = 20) is smaller than the
last-level cache, so the floor ratio is against a cache-resident copy, not
against DRAM bandwidth.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

PROBE_BUDGET_S = 0.1   # timing per probe, after one untimed warm-up call
MIN_CALLS = 7
MAX_CALLS = 2000


def median_call_us(fn, args_cycle) -> float:
    """Median microseconds of one ``fn(*args)`` call, cycling the args."""
    fn(*args_cycle[0])
    times = []
    spent = 0.0
    i = 0
    while len(times) < MIN_CALLS or (spent < PROBE_BUDGET_S
                                      and len(times) < MAX_CALLS):
        args = args_cycle[i % len(args_cycle)]
        t0 = perf_counter()
        fn(*args)
        dt = perf_counter() - t0
        times.append(dt)
        spent += dt
        i += 1
    return 1e6 * statistics.median(times)


def random_column(nq: int, rng):
    from ucesim.column_sim import StateColumn

    a = rng.standard_normal(1 << nq) + 1j * rng.standard_normal(1 << nq)
    return StateColumn(nq, a / np.linalg.norm(a))


def kernel_probe(nq: int, rng) -> dict:
    """U(2) and CNOT kernel time per call against a copy of the column."""
    from ucesim.column_sim import apply_cnot, apply_single_qubit
    from ucesim.gateset import sample_u2_angles, u2_matrix

    state = random_column(nq, rng)
    m = u2_matrix(sample_u2_angles(rng))
    u2 = median_call_us(apply_single_qubit,
                        [(state, q, m) for q in range(nq)])
    # A few fixed pairs, each warmed once, so index tables stay small.
    pairs = [(0, 1), (nq - 1, 0), (nq // 2, nq - 1), (1, nq // 2)]
    for c, t in pairs:
        apply_cnot(state, c, t)
    cnot = median_call_us(apply_cnot, [(state, c, t) for c, t in pairs])
    copy = median_call_us(np.copy, [(state.amplitudes,)])
    n = 1 << nq
    return {
        "u2_us": u2, "cnot_us": cnot, "memcpy_us": copy,
        "u2_floor_ratio": u2 / copy, "cnot_floor_ratio": cnot / copy,
        # Computed, not measured: a U(2) reads and writes all N complex
        # amplitudes (32N bytes), a CNOT the half with control bit 1 (16N),
        # mixed at p_g = 0.5.
        "bytes_per_gate": 0.5 * 32 * n + 0.5 * 16 * n,
        "column_bytes": 16 * n,
    }


def state_probe(nq: int, rng) -> float:
    """Microseconds to fold one state into pl and mu2, the per-checkpoint
    work of a desk or deep run, through the public estimators."""
    from ucesim.ensemble_stats import Histogram, log_intensities, moment_estimate

    state = random_column(nq, rng)
    hist = Histogram(1 << nq)

    def fold(s):
        hist.bin_counts(log_intensities(s))
        moment_estimate([s], 2)

    return median_call_us(fold, [(state,)])


def sample_gate_probe(rng, nq: int = 10, batch: int = 200) -> float:
    """Microseconds per gateset.sample_gate call at p_g = 0.5."""
    from ucesim.gateset import sample_gate

    def draw():
        for _ in range(batch):
            sample_gate(rng, nq, 0.5)

    return median_call_us(draw, [()]) / batch

