"""Tests of the benchmark itself: span arithmetic, check counting, the
oracles the checks rely on, BENCHMARK.json, and a tiny run of each
workload."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spec  # noqa: E402
from run import tally  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_merged_child_intervals():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [9, 12] runs past
    # the parent's end; a grandchild [1.5, 2] only touches its own parent.
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - (4 + 1), 2 - 0.5, 3, 3, 0.5])


def test_self_time_without_children_is_duration():
    assert self_times([1.0], [3.5], [-1]) == [2.5]


def test_tracer_records_nesting_and_restores_originals():
    a = types.ModuleType("pkg_a")
    b = types.ModuleType("pkg_b")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def _hidden():\n    return 0\n", a.__dict__)
    b.outer = a.outer            # as after ``from pkg_a import outer``
    originals = (a.inner, a.outer, a._hidden)
    seen = []
    tracer = Tracer()
    tracer.install({"a": a, "b": b}, {"a.outer": lambda x: seen.append(x)})
    try:
        assert b.outer(3) == 8
        a._hidden()
    finally:
        tracer.uninstall()
    assert (a.inner, a.outer, a._hidden) == originals and b.outer is a.outer
    assert seen == [3]
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["a.outer", "a.inner"]
    assert list(tracer.parent) == [-1, 0]
    s = tracer.summary()
    assert s["a.outer"]["calls"] == 1
    assert s["a.outer"]["self_s"] + s["a.inner"]["total_s"] == \
        pytest.approx(s["a.outer"]["total_s"])


def test_failed_frac_counts_every_check_of_every_worker():
    a, b = checks.Checks(), checks.Checks()
    a.check(True, "fine")
    a.check(False, "broken")
    a.check(1 == 1, "also fine")
    b.check(False, "also broken")
    b.check(True, "fine too")
    assert (a.attempted, a.failures) == (3, ["broken"])
    line = tally([{"attempted": c.attempted, "failures": c.failures}
                  for c in (a, b)])
    assert line == {"correct": False, "attempted": 5, "failed": 2}
    assert tally([{"attempted": 4, "failures": []}])["correct"]


def test_pauli_chain_oracle_gives_the_known_gap():
    gap, mult = checks.pauli_chain_gap()
    assert mult == 2
    assert abs(gap - checks.GAP_DIGITS) < 1e-9


def test_cue_mu2_standard_error_matches_haar_sampling():
    rng = np.random.default_rng(5)
    N, n = 8, 40_000
    z = rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))
    p = np.abs(z) ** 2
    p /= p.sum(axis=1, keepdims=True)
    m = N * np.sum(p ** 2, axis=1)          # one column's mean of y^2
    assert m.std(ddof=1) == pytest.approx(checks.cue_mu2_se(N, 1), rel=0.03)


def test_benchmark_json_matches_spec_and_contract():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        data = json.load(fh)
    assert data == spec.benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in data["workloads"]] + \
        [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in data["workloads"])
    for m in data["end_to_end"] + data["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in data["end_to_end"])}]


def run_bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_tiny_run_of_each_workload(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "11", "--seconds", "1",
                     "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    table = (spec.per_layer_metrics() if trace else
             [(n, u, b) for n, u, b, _, _ in spec.END_TO_END])
    assert {n: u for n, u, _ in table} == \
        {n: v["unit"] for n, v in line["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "gap", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
