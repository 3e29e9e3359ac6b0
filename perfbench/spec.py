"""What the benchmark runs and what it reports.

Every table here is data: the workloads and their job sizes, the end-to-end
metrics with their regression bounds, the per-layer metrics with the
end-to-end metric and workload each is expected to move. ``run.py
--describe`` renders ``BENCHMARK.json`` and ``perfbench/box.json`` from it.
"""

from __future__ import annotations

DEFAULT_SEED = 20260823
RUN_SECONDS = 35

# Package modules, in dependency order; each is one traced layer.
LAYERS = ("gateset", "column_sim", "cue_ref", "ensemble_stats", "runner",
          "scaling", "moment_operator", "cli")

# Qubit counts of the kernel and per-state statistic probes.
KERNEL_NQ = (4, 10, 16, 20)
STATE_NQ = (2, 10, 16, 20)

# Job sizes. A desk round is kept near 6 s (sizing 10,9 rather than the
# paper-like 10,11, which takes 20-30 s) so that several rounds fit in one
# run and their median rejects the minutes-long slow spells of a shared
# machine. "tiny" keeps every code path and check but finishes in a second
# or two; it exists for the benchmark's own tests.
JOBS = {
    "full": {
        "desk": {"nq": tuple(range(2, 11)), "sizing": (10, 9),
                 "ln_eps": (-1, -2), "crosscheck_nq": (3, 6)},
        "deep": {"runs": ((16, 8), (20, 1))},
        "gap": {"mc_reports": 3, "samples": 100_000},
    },
    "tiny": {
        "desk": {"nq": (2, 3, 4), "sizing": (4, 7),
                 "ln_eps": (-1, -2), "crosscheck_nq": (3,)},
        "deep": {"runs": ((8, 2), (10, 1))},
        "gap": {"mc_reports": 1, "samples": 10_000},
    },
}

WORKLOADS = {
    "desk": "The paper's n* study at n_q 2..10 at reduced n_r (sizing 10,9): "
            "per-gate interpreter and RNG cost in runner and per-checkpoint "
            "pl histogramming dominate.",
    "deep": "One long column at n_q 16 (8 realizations) and 20 (1): kernel "
            "traffic over 1M amplitudes and CNOT index tables dominate "
            "time and peak memory.",
    "gap": "Exact and Monte Carlo moment-operator gaps: touches only "
           "moment_operator, so a runner or column_sim change must read "
           "as no change here.",
}

# (name, unit, better, bound, meaning)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25,
     "median seconds of the workload's whole job after set-up"),
    ("work_per_s", "1/s", "higher", 0.25,
     "median throughput: realization-gates per converge second on desk and "
     "deep (gates_per_s), Haar U(2) samples per Monte Carlo second on gap "
     "(haar_samples_per_s)"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "median peak resident memory of the process that ran one round"),
    ("setup_s", "s", "lower", 0.25,
     "median seconds to import numpy and ucesim plus one warm-up call"),
)


def _per_nq(stem: str, nqs) -> list[str]:
    return [f"{stem}.nq{nq}" for nq in nqs]


# layer -> (metrics as (name, unit, better), what they should move)
PER_LAYER = (
    ("runner", (
        ("runner.self_s", "s", "lower"),
        ("runner.us_per_gate", "us", "lower"),
        ("runner.realizations", "count", "higher"),
        ("runner.gates", "count", "higher"),
        ("runner.chunks", "count", "lower"),
    ), "work_per_s and wall_s on desk; about 0 on deep"),
    ("gateset", (
        ("gateset.realization_rng.calls", "count", "lower"),
        ("gateset.realization_rng.self_s", "s", "lower"),
        ("gateset.sample_gate_us", "us", "lower"),
    ), "work_per_s on desk (about 1%); about 0 on deep"),
    ("column_sim", (
        ("column_sim.self_s", "s", "lower"),
        *((m, "us", "lower") for m in _per_nq("column_sim.u2_us", KERNEL_NQ)),
        *((m, "us", "lower") for m in _per_nq("column_sim.cnot_us", KERNEL_NQ)),
        *((m, "us", "lower") for m in _per_nq("column_sim.memcpy_us", KERNEL_NQ)),
        *((m, "ratio", "lower")
          for m in _per_nq("column_sim.u2_floor_ratio", KERNEL_NQ)),
        *((m, "ratio", "lower")
          for m in _per_nq("column_sim.cnot_floor_ratio", KERNEL_NQ)),
        *((m, "bytes", "lower")
          for m in _per_nq("column_sim.bytes_per_gate", KERNEL_NQ)),
    ), "work_per_s on deep (CNOT tables also peak_rss_mb); little on desk"),
    ("ensemble_stats", (
        ("ensemble_stats.self_s", "s", "lower"),
        ("ensemble_stats.states", "count", "higher"),
        *((m, "us", "lower")
          for m in _per_nq("ensemble_stats.us_per_state", STATE_NQ)),
    ), "wall_s on desk and on deep"),
    ("cue_ref", (
        ("cue_ref.self_s", "s", "lower"),
    ), "none expected"),
    ("scaling", (
        ("scaling.self_s", "s", "lower"),
        ("scaling.n_star.calls", "count", "lower"),
    ), "wall_s on desk (milliseconds)"),
    ("cli", (
        ("cli.self_s", "s", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
    ), "wall_s on desk"),
    ("moment_operator", (
        ("moment_operator.mc_two_copy_average.self_s", "s", "lower"),
        ("moment_operator.exact_two_copy_average.self_s", "s", "lower"),
        ("moment_operator.embed_s", "s", "lower"),
        ("moment_operator.spectral_gap.self_s", "s", "lower"),
    ), "work_per_s and wall_s on gap; first-call LAPACK set-up moves setup_s"),
    ("trace", (
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ), "none (sanity)"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    return [m for _, metrics, _ in PER_LAYER for m in metrics]


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics()],
    }
