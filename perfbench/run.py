"""Benchmark of the ucesim package: desk, deep and gap workloads.

    python3 perfbench/run.py --workload desk --seed 20260823 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload in turn
    python3 perfbench/run.py --describe           # rewrite BENCHMARK.json, box.json

Run from the root of a checkout; the package is imported from its src/.
Untraced (``--trace 0``), rounds of the workload run back to back, each in
a fresh worker process, until the next would overrun ``--seconds``; the
end-to-end metrics are medians over rounds, and set-up is repeated in
extra processes until there are seven samples. Traced (``--trace 1``),
pairs of an untraced and a traced round run the same way; the per-layer
metrics come from the first traced round and the tracing overhead from the
median walls. The last line of standard output is one JSON object:
correct, attempted and failed checks, and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

MIN_SETUPS = 7
DEADLINE_S = 170       # each workload's run ends before this
OUT = ROOT / ".perfbench"


class BenchError(Exception):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cache_sizes() -> dict:
    """{"L1d": "48K", ...} as the kernel reports them for cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        tag = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{tag}"] = size
    return out


class Runner:
    """Starts workers, collecting each one's result and peak memory."""

    def __init__(self, workload: str, seed: int, scale: str, start: float):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.start = start
        self.count = 0
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(nproc())

    def spawn(self, mode: str, keep: bool = False) -> dict:
        self.count += 1
        d = OUT / f"{self.workload}-{self.seed}-{os.getpid()}-{self.count}-{mode}"
        shutil.rmtree(d, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--scale", self.scale, "--dir", str(d)]
        proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=sys.stderr)
        status, usage = wait(proc, self.start + DEADLINE_S - time.monotonic())
        if status != 0:
            raise BenchError(f"worker {mode} {self.workload} exited {status}")
        with open(d / "result.json") as fh:
            result = json.load(fh)
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
        result["dir"] = str(d)
        if not keep:
            shutil.rmtree(d, ignore_errors=True)
        return result


def wait(proc, timeout: float):
    """Reap ``proc`` with its own resource usage; kill it past ``timeout``."""
    end = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > end:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError("worker passed the deadline and was killed")
        time.sleep(0.01)


def repeat(step, seconds: float) -> list:
    """Call ``step`` at least once, then again while the next call would
    still end within ``seconds``."""
    t0 = time.monotonic()
    out = []
    while True:
        out.append(step())
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(out) > seconds:
            return out


def run_untraced(r: Runner, seconds: float) -> tuple[dict, list]:
    rounds = repeat(lambda: r.spawn("round"), seconds)
    setups = [x["setup_s"] for x in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(r.spawn("setup")["setup_s"])
    metrics = {
        "wall_s": median(x["wall_s"] for x in rounds),
        "work_per_s": median(x["work"] / x["work_s"] for x in rounds),
        "peak_rss_mb": median(x["peak_rss_mb"] for x in rounds),
        "setup_s": median(setups),
    }
    for i, x in enumerate(rounds, 1):
        print(f"{r.workload} round {i}: wall {x['wall_s']:.4f} s, work "
              f"{x['work']} in {x['work_s']:.4f} s, setup {x['setup_s']:.4f} s, "
              f"peak {x['peak_rss_mb']:.1f} MB")
    print(f"{r.workload} setup samples: "
          + ", ".join(f"{s:.4f}" for s in setups) + " s")
    return metrics, rounds


def run_traced(r: Runner, seconds: float) -> tuple[dict, list]:
    """Pairs of an untraced and a traced round; the layer metrics come from
    the first traced round, the overhead from the median walls."""
    pairs = repeat(lambda: (r.spawn("round"), r.spawn("trace", keep=True)),
                   seconds)
    plain, traced = (list(side) for side in zip(*pairs))
    walls = [median(x["wall_s"] for x in plain), median(x["wall_s"] for x in traced)]
    metrics = dict(traced[0]["layers"])
    metrics["trace.overhead_frac"] = walls[1] / walls[0] - 1
    print(f"{r.workload} median wall over {len(pairs)} pair(s): untraced "
          f"{walls[0]:.4f} s, traced {walls[1]:.4f} s; spans in "
          f"{traced[0]['dir']}/spans.csv.gz")
    print("column sizes (bytes): " + ", ".join(
        f"nq{nq} {b}" for nq, b in traced[0]["column_bytes"].items())
        + "; caches: " + ", ".join(f"{k} {v}" for k, v in cache_sizes().items())
        + "; floor ratios are against a cache-resident copy, not DRAM")
    return metrics, plain + traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> dict:
    r = Runner(workload, seed, scale, time.monotonic())
    if trace:
        metrics, results = run_traced(r, seconds)
        table = spec.per_layer_metrics()
    else:
        metrics, results = run_untraced(r, seconds)
        table = [(n, u, b) for n, u, b, _, _ in spec.END_TO_END]
    line = tally(results)
    for name, unit, _ in table:
        print(f"{workload} {name} = {metrics[name]:.6g} {unit}")
    if not trace:
        alias = "haar_samples_per_s" if workload == "gap" else "gates_per_s"
        print(f"{workload} {alias} = {metrics['work_per_s']:.6g} 1/s")
    print(f"{workload} failed_frac = {line['failed'] / line['attempted']:.6g} "
          f"({line['failed']} of {line['attempted']} checks failed)")
    for f in (f for x in results for f in x["failures"]):
        print(f"{workload} FAILED: {f}")
    line["metrics"] = {name: {"value": metrics[name], "unit": unit}
                       for name, unit, _ in table}
    return line


def tally(results) -> dict:
    """Checks attempted and failed over every worker of a run."""
    attempted = sum(x["attempted"] for x in results)
    failed = sum(len(x["failures"]) for x in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def box_record(worker_info: dict) -> dict:
    return {
        "nproc": nproc(),
        "caches": cache_sizes(),
        "python": worker_info["python"],
        "numpy": worker_info["numpy"],
        "blas": worker_info["blas"],
        "blas_threads": nproc(),
        "workers": 1,
    }


def describe():
    """Write BENCHMARK.json and perfbench/box.json from spec.py and this box."""
    info = Runner("gap", spec.DEFAULT_SEED, "tiny", time.monotonic()).spawn("setup")
    with open(ROOT / "BENCHMARK.json", "w") as fh:
        json.dump(spec.benchmark_json(), fh, indent=2)
        fh.write("\n")
    box = {
        "box": box_record(info),
        "workloads": {name: {"why": why, "jobs": spec.JOBS["full"][name]}
                      for name, why in spec.WORKLOADS.items()},
        "end_to_end": {n: meaning for n, _, _, _, meaning in spec.END_TO_END},
        "layers": [{"layer": layer, "metrics": [m for m, _, _ in metrics],
                    "moves": moves} for layer, metrics, moves in spec.PER_LAYER],
    }
    with open(HERE / "box.json", "w") as fh:
        json.dump(box, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*spec.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(spec.JOBS), default="full",
                    help="job sizes; 'tiny' is for the benchmark's own tests")
    ap.add_argument("--describe", action="store_true",
                    help="write BENCHMARK.json and perfbench/box.json")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ucesim" / "__init__.py").is_file():
        print(f"error: no ucesim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        if args.describe:
            describe()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                   args.scale) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = next(iter(results.values()))
    else:
        line = {"correct": all(x["correct"] for x in results.values()),
                "attempted": sum(x["attempted"] for x in results.values()),
                "failed": sum(x["failed"] for x in results.values()),
                "metrics": {f"{w}.{k}": v for w, x in results.items()
                            for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
