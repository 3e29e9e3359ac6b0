import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import ucesim
from ucesim import cli
from ucesim.gateset import STREAM_VERSION


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run(argv):
    return cli.main(argv)


def run_python(args, **env):
    """Run ``python args`` on this package in a new interpreter with
    ``env`` added to the environment; returns the completed process."""
    src = os.path.dirname(os.path.dirname(ucesim.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, **env})


def test_converge_writes_curves_and_manifest(tmp_path):
    out = str(tmp_path / "run")
    code = run(["converge", "--nq", "3,4", "--statistics", "pl", "--nr", "50",
                "--checkpoints", "5,10,20,50", "--seed", "1", "--out", out])
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["curve_nq3_pl.csv", "curve_nq4_pl.csv", "manifest.json"]
    header = read(os.path.join(out, "curve_nq3_pl.csv")).decode().splitlines()[0]
    assert header == "nq,ng,statistic,value,n_r,seed"


def test_manifest_roundtrips_as_config(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    base = ["--nq", "3", "--statistics", "mu2", "--nr", "40",
            "--checkpoints", "4,8,16,32", "--seed", "9"]
    assert run(["converge", *base, "--out", out1]) == 0
    # rerun purely from the emitted manifest
    assert run(["converge", "--config", os.path.join(out1, "manifest.json"),
                "--out", out2]) == 0
    assert read(os.path.join(out1, "curve_nq3_mu2.csv")) == \
        read(os.path.join(out2, "curve_nq3_mu2.csv"))
    assert read(os.path.join(out1, "manifest.json")) == \
        read(os.path.join(out2, "manifest.json"))


def test_manifest_with_another_stream_version_is_rejected(tmp_path, capsys):
    out = str(tmp_path / "a")
    assert run(["converge", "--nq", "2", "--statistics", "mu2", "--nr", "4",
                "--checkpoints", "2,4", "--seed", "9", "--out", out]) == 0
    manifest = json.loads(read(os.path.join(out, "manifest.json")))
    assert manifest["stream_version"] == STREAM_VERSION
    for version, found in ((None, "no stream_version"), (1, "stream_version 1"),
                           (2, "stream_version 2")):
        if version is None:
            del manifest["stream_version"]
        else:
            manifest["stream_version"] = version
        old = tmp_path / f"old{version}.json"
        old.write_text(json.dumps(manifest))
        assert run(["converge", "--config", str(old), "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert found in err and f"stream_version {STREAM_VERSION}" in err, err
    assert not os.path.exists(tmp_path / "b")


def test_converge_config_types_are_checked(tmp_path, capsys):
    for cfg, message in (({"n_q": 3}, "n_q must be a list of integers"),
                         ({"statistics": "mu2"}, "statistics must be a list of statistic labels"),
                         ({"checkpoints": [4, "8"]}, "checkpoints must be null or a list"),
                         ([3, 4], "expected a JSON object")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["converge", "--config", str(path), "--out", str(tmp_path)]) == 1, cfg
        assert message in capsys.readouterr().err, cfg
    assert not os.path.exists(tmp_path / "manifest.json")


def test_converge_bad_statistic_is_a_usage_error(tmp_path, capsys):
    for label, message in (("mu9", "moment/correlator order k must be in 1..8"),
                           ("foo", "cannot parse statistic 'foo'")):
        assert run(["converge", "--nq", "3", "--nr", "2", "--statistics", label,
                    "--out", str(tmp_path)]) == 1, label
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, err


def test_converge_deterministic_across_workers(tmp_path):
    outs = []
    for workers in (1, 8):
        out = str(tmp_path / f"w{workers}")
        assert run(["converge", "--nq", "3", "--statistics", "pl,mu2", "--nr", "200",
                    "--checkpoints", "5,10,20,40", "--seed", "3",
                    "--workers", str(workers), "--out", out]) == 0
        outs.append(out)
    for name in ("curve_nq3_pl.csv", "curve_nq3_mu2.csv", "manifest.json"):
        assert read(os.path.join(outs[0], name)) == read(os.path.join(outs[1], name))


def test_converge_above_sixteen_qubits_does_not_depend_on_workers_or_threads(
        tmp_path, monkeypatch):
    # At n_q 17 the column walk splits the column into two blocks, on as
    # many threads as the process has CPUs (two at most); the last run has one.
    import ucesim.runner as runner
    names = ("curve_nq17_pl.csv", "curve_nq17_mu2.csv", "manifest.json")
    outs = []
    for workers, cpus in ((1, None), (2, None), (1, {0})):
        if cpus is not None:
            monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: cpus)
        out = str(tmp_path / f"w{workers}-{cpus}")
        assert run(["converge", "--nq", "17", "--nr", "2", "--checkpoints", "5,40",
                    "--statistics", "pl,mu2", "--seed", "3",
                    "--workers", str(workers), "--out", out]) == 0
        outs.append([read(os.path.join(out, name)) for name in names])
    assert outs[0] == outs[1] == outs[2]


def test_converge_rejects_memory_cap_violation(tmp_path):
    code = run(["converge", "--nq", "30", "--nr", "1",
                "--out", str(tmp_path)])
    assert code == 1


def test_converge_bad_input_is_a_clear_error(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    for argv, code, message in (
        (["--nq", "3", "--checkpoints=-2,4", "--nr", "2", "--statistics", "mu2"], 1,
         "checkpoints must be strictly increasing and >= 0"),
        (["--nq", "3", "--checkpoints=-2,4", "--nr", "2", "--statistics", "pl"], 1,
         "checkpoints must be strictly increasing and >= 0"),
        (["--nq=-1", "--nr", "2"], 1, "n_q=-1 must be >= 1"),
        (["--nq", "0", "--nr", "2"], 1, "n_q=0 must be >= 1"),
        (["--nq", "3", "--sizing", "10"], 1, "sizing must be two integers"),
        (["--nq", "3", "--sizing", "10,x"], 1, "expected a comma list of integers"),
    ):
        assert run(["converge", *argv, *out]) == code, argv
        assert message in capsys.readouterr().err, argv
    cfg = tmp_path / "cfg.json"
    for data, message in (({"n_q": [3], "sizing": [10, 2.5]}, "sizing must be two integers"),
                          ({"max_n_q": 30, "n_q": [25]}, "n_q=25 exceeds memory cap 24"),
                          ({"n_q": [2], "n_r": 2, "sizing": None, "checkpoints": [2],
                            "master_seed": -1}, "master_seed must be >= 0, got -1")):
        cfg.write_text(json.dumps(data))
        assert run(["converge", "--config", str(cfg), *out]) == 1, data
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, err
    assert not os.path.exists(tmp_path / "manifest.json")


def test_converge_checks_the_whole_run_before_writing(tmp_path, capsys):
    # A small valid run that each row makes invalid; the last flag wins,
    # except that --nr and --sizing exclude each other.
    base = ["converge", "--nq", "2", "--nr", "2", "--checkpoints", "2,4",
            "--statistics", "pl,mu2"]
    out = tmp_path / "out"
    for argv, message in (
        (["--pg", "2"], "p_g must be in [0, 1], got 2.0"),
        (["--pg", "nan"], "p_g must be in [0, 1], got nan"),
        (["--nr", "0"], "n_r must be >= 1, got 0"),
        (["--sizing", "0,3"], "argument --sizing: not allowed with argument --nr"),
        (["--seed", "-5"], "argument --seed: must be >= 0, got -5"),
        (["--checkpoints=-2,4"], "checkpoints must be strictly increasing and >= 0"),
        (["--checkpoints", "4,4"], "checkpoints must be strictly increasing and >= 0"),
        (["--checkpoints="], "need at least one checkpoint"),
        (["--nq="], "n_q must be a list of integers (at least one), got []"),
        (["--statistics="], "statistics must be a list of statistic labels (at least one)"),
        (["--nq", "5,2", "--statistics", "mu2x8"], "statistic mu2x8: row 8 out of range for N=4"),
        (["--nq", "2", "--statistics", "c8"], "statistic c8: correlator order 8 exceeds N=4"),
        (["--workers", "0"], "--workers must be >= 1, got 0"),
        (["--workers", "-1"], "--workers must be >= 1, got -1"),
        (["--nq", "3,3"], "n_q lists 3 twice"),
        (["--statistics", "mu2,mu02"], "statistics lists mu2 twice: 'mu2' and 'mu02'"),
        (["--statistics", "pl,mu3,pl"], "statistics lists pl twice: 'pl' and 'pl'"),
    ):
        assert run([*base, *argv, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, (argv, err)
        assert not out.exists(), argv
    assert run([*base, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["curve_nq2_mu2.csv", "curve_nq2_pl.csv", "manifest.json"]


def test_converge_takes_one_realization_rule(tmp_path, capsys):
    # --nr with --sizing, and a bad sizing alone, are usage errors that
    # write nothing.
    out = tmp_path / "out"
    for argv, message in ((["--nr", "5", "--sizing", "1,2"],
                           "argument --sizing: not allowed with argument --nr"),
                          (["--sizing", "0,3"], "with a >= 1, got (0, 3)")):
        assert run(["converge", "--nq", "2", *argv, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, (argv, err)
        assert not out.exists(), argv
    # A config file's rule replaces the default rule; a file that sets both
    # (an old manifest) still runs, and its n_r wins.
    base = {"n_q": [2], "checkpoints": [2, 4], "statistics": ["mu2"], "master_seed": 1}
    for i, (rule, n_r, want) in enumerate((
            ({"n_r": 3}, 3, {"n_r": 3, "sizing": None}),
            ({"sizing": [1, 3]}, 2, {"n_r": None, "sizing": [1, 3]}),
            ({"n_r": 3, "sizing": [10, 20]}, 3, {"n_r": 3, "sizing": [10, 20]}))):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, **rule}))
        d = tmp_path / f"run{i}"
        assert run(["converge", "--config", str(cfg), "--out", str(d)]) == 0, rule
        config = json.loads(read(d / "manifest.json"))["config"]
        assert {k: config[k] for k in want} == want, rule
        rows = read(d / "curve_nq2_mu2.csv").decode().splitlines()[1:]
        assert {r.split(",")[4] for r in rows} == {str(n_r)}, rule
    # A flag's rule replaces the file's rule in turn.
    for i, (rule, argv, n_r, want) in enumerate((
            ({"sizing": [1, 3]}, ["--nr", "3"], 3, {"n_r": 3, "sizing": None}),
            ({"n_r": 3}, ["--sizing", "1,3"], 2, {"n_r": None, "sizing": [1, 3]}))):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, **rule}))
        d = tmp_path / f"flag{i}"
        assert run(["converge", "--config", str(cfg), *argv, "--out", str(d)]) == 0, argv
        config = json.loads(read(d / "manifest.json"))["config"]
        assert {k: config[k] for k in want} == want, argv
        rows = read(d / "curve_nq2_mu2.csv").decode().splitlines()[1:]
        assert {r.split(",")[4] for r in rows} == {str(n_r)}, argv


def test_negative_seed_or_index_names_the_flag(capsys):
    for argv, flag in ((["gap", "--exact", "--seed", "-1"], "--seed"),
                       (["oracle-check", "--trials", "1", "--seed", "-2"], "--seed"),
                       (["dump-circuit", "--nq", "2", "--ng", "3", "--seed", "-3"], "--seed"),
                       (["dump-circuit", "--nq", "2", "--ng", "3", "--index", "-4"], "--index")):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flag}: must be >= 0"), err


def test_converge_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_q": [2], "nr": 5, "sizing": [1, 2],
                               "statistics": ["mu2"], "checkpoints": [2, 4]}))
    assert run(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "unknown config key(s) nr" in err, err
    assert not os.path.exists(tmp_path / "o")


def test_converge_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["converge", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1


def test_nstar_fit_on_analytic_curves(tmp_path):
    # synthetic curves D = exp(-ng / nq) so n* = nq * ln(1/eps)
    curve_paths = []
    for nq in range(2, 9):
        path = tmp_path / f"curve_nq{nq}_mu2.csv"
        with open(path, "w") as fh:
            fh.write("nq,ng,statistic,value,n_r,seed\n")
            for ng in range(1, 40 * nq):
                fh.write(f"{nq},{ng},mu2,{math.exp(-ng / nq):.17g},1000,0\n")
        curve_paths.append(str(path))
    out = str(tmp_path / "fits")
    # note the = form: a comma list of negatives would otherwise parse as a flag
    assert run(["nstar-fit", *curve_paths, "--ln-eps=-2,-3", "--out", out]) == 0
    nstar_rows = read(os.path.join(out, "nstar_mu2.csv")).decode().splitlines()[1:]
    for row in nstar_rows:
        nq, ln_eps, ns = row.split(",")
        assert int(ns) == math.ceil(-float(ln_eps) * int(nq))
    fit_rows = read(os.path.join(out, "fits_mu2.csv")).decode().splitlines()[1:]
    assert len(fit_rows) == 6  # 3 models x 2 eps
    f1 = {float(r.split(",")[1]): float(r.split(",")[2])
          for r in fit_rows if r.startswith("f1,")}
    # ceil() rounding keeps the recovered slope within 1 of ln(1/eps)
    assert f1[-2.0] == pytest.approx(2.0, abs=0.1)
    assert f1[-3.0] == pytest.approx(3.0, abs=0.1)


def test_nstar_fit_all_unreachable(tmp_path, capsys):
    path = tmp_path / "curve_nq4_pl.csv"
    with open(path, "w") as fh:
        fh.write("nq,ng,statistic,value,n_r,seed\n")
        for ng in (5, 10, 20, 50):
            fh.write(f"4,{ng},pl,0.5,100,0\n")
    out = str(tmp_path / "o")
    assert run(["nstar-fit", str(path), "--ln-eps", "-5", "--out", out]) == 0
    assert "skipped" in capsys.readouterr().err
    rows = read(os.path.join(out, "nstar_pl.csv")).decode().splitlines()[1:]
    assert all(r.endswith("NA") for r in rows)
    fit_rows = read(os.path.join(out, "fits_pl.csv")).decode().splitlines()[1:]
    assert all(r.endswith("NA,NA,NA") for r in fit_rows)


def test_nstar_fit_usage_errors(tmp_path, capsys):
    assert run(["nstar-fit", "--ln-eps", "-1"]) == 1
    assert run(["nstar-fit", "x.csv", "--ln-eps", ""]) == 1
    capsys.readouterr()
    for argv, message in ((["--ln-eps=a"], "expected a comma list of numbers, got 'a'"),
                          (["--ln-eps=inf"], "expected finite numbers, got 'inf'"),
                          (["--ln-eps=-inf"], "expected finite numbers, got '-inf'"),
                          (["--ln-eps=nan"], "expected finite numbers, got 'nan'"),
                          (["--ln-eps=-1,nan"], "expected finite numbers, got '-1,nan'"),
                          # eps = exp(ln_eps) overflows, or is 0.
                          (["--ln-eps=1000"], "--ln-eps 1000.0 makes eps = exp(ln_eps) 0 or"),
                          (["--ln-eps=-1,-1000"], "--ln-eps -1000.0 makes eps"),
                          (["--ln-eps=-746"], "--ln-eps -746.0 makes eps"),
                          # A repeat would be written and fitted twice.
                          (["--ln-eps=-1,-1.0"], "--ln-eps lists -1.0 twice")):
        out = tmp_path / "o"
        assert run(["nstar-fit", "f.csv", *argv, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, err
        assert not os.path.exists(out)
    header = "nq,ng,statistic,value,n_r,seed\n"
    for text, message in (
            ("nq,ng\n3,1\n", "bad.csv:1: missing column(s) statistic, value, n_r, seed"),
            (header + "3,1,mu2,0.5,40,1\n3,x,mu2,0.5,40,1\n", "bad.csv:3: bad ng 'x'"),
            (header + "3,1,mu2,oops,40,1\n", "bad.csv:2: bad value 'oops'"),
            (header + "3,1,mu2,0.5,40,1\n3,2,mu2,nan,40,1\n", "bad.csv:3: bad value 'nan'"),
            (header + "3,1,mu2,-inf,40,1\n", "bad.csv:2: bad value '-inf'"),
            (header + "3,1,foo,0.5,40,1\n", "bad.csv:2: bad statistic 'foo'"),
            (header + "3,1,mu2,0.5,40\n", "bad.csv:2: bad seed None"),
            # Fields out of range; nq 0 would put ln 0 into the f2 fit.
            (header + "0,1,mu2,0.5,40,1\n1,1,mu2,0.5,40,1\n2,1,mu2,0.5,40,1\n",
             "bad.csv:2: bad nq '0'"),
            (header + "3,-5,mu2,0.5,40,1\n", "bad.csv:2: bad ng '-5'"),
            # nq and ng must convert to floats exactly: below 2**53.
            (header + f"2,1,mu2,0.5,40,1\n3,1,mu2,0.5,40,1\n{10**400},1,mu2,0.5,40,1\n",
             f"bad.csv:4: bad nq '{10**400}'"),
            (header + f"3,1,mu2,0.5,40,1\n3,{10**400},mu2,0.1,40,1\n",
             f"bad.csv:3: bad ng '{10**400}'"),
            (header + f"3,1,mu2,0.5,40,1\n3,{2**53},mu2,0.1,40,1\n",
             f"bad.csv:3: bad ng '{2**53}'"),
            (header + "3,1,mu2,-0.5,40,1\n", "bad.csv:2: bad value '-0.5'"),
            (header + "3,1,mu2,inf,40,1\n", "bad.csv:2: bad value 'inf'"),
            (header + "3,1,mu2,0.5,0,1\n", "bad.csv:2: bad n_r '0'"),
            (header + "3,1,mu2,0.5,40,-1\n", "bad.csv:2: bad seed '-1'"),
            (header, f"no curve rows read from {tmp_path / 'bad.csv'}\n")):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        out = tmp_path / "o"
        assert run(["nstar-fit", str(path), "--ln-eps=-1", "--out", str(out)]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, err
        assert not os.path.exists(out)
    # A missing file is a runtime error, still raised before --out exists.
    out = tmp_path / "o"
    assert run(["nstar-fit", str(tmp_path / "missing.csv"), "--ln-eps=-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(out)


def test_nstar_fit_refuses_to_mix_runs(tmp_path, capsys):
    paths = []
    for seed in (1, 2):
        out = str(tmp_path / f"s{seed}")
        assert run(["converge", "--nq", "3", "--statistics", "mu2", "--nr", "40",
                    "--seed", str(seed), "--out", out]) == 0
        paths.append(os.path.join(out, "curve_nq3_mu2.csv"))
    other_nr = tmp_path / "nr.csv"
    other_nr.write_bytes(read(paths[0]).replace(b",40,1\r\n", b",41,1\r\n"))
    first = f"{paths[0]} has n_r 40 and seed 1"
    for pair, message in (([paths[0], paths[1]], f"has n_r 40 and seed 2, but {first}"),
                          ([paths[0], str(other_nr)], f"has n_r 41 and seed 1, but {first}"),
                          ([paths[0], paths[0]], f"repeats ng 2 of {paths[0]}")):
        out = tmp_path / "fit"
        assert run(["nstar-fit", *pair, "--ln-eps=-1", "--out", str(out)]) == 1, pair
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {pair[1]}:2: statistic mu2 at nq 3 "), err
        assert message in err, err
        assert not os.path.exists(out)
    for path in paths:  # each run alone is fine
        assert run(["nstar-fit", path, "--ln-eps=-1", "--out", str(tmp_path / "fit")]) == 0


def test_gap_json_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    for out in (out1, out2):
        assert run(["gap", "--samples", "15000", "--seed", "5",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    assert read(out1) == read(out2)
    report = json.loads(read(out1))
    assert set(report) == {"gap", "multiplicity", "samples", "sigma_estimate", "stream_version"}
    assert report["multiplicity"] == 2
    assert report["samples"] == 15000


def test_gap_stdout_is_pinned():
    # The whole report of an exact and a Monte Carlo gap, byte for byte.
    # The gaps' last digits are eigvalsh rounding, which moves with the BLAS
    # thread count, so these hold for one numpy and BLAS build (numpy 2.4.6
    # with its bundled OpenBLAS on x86-64) at 2 threads, which each command
    # is given in a new interpreter.
    for argv, gap, samples, sigma in (
            (["--exact"], "0.23270330772353753", 0, "0.0"),
            (["--samples", "10000", "--seed", "0"], "0.23196506016603102", 10000,
             "0.0015918511910532672")):
        proc = run_python(["-m", "ucesim.cli", "gap", *argv],
                          OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout == (
            f'{{\n  "gap": {gap},\n  "multiplicity": 2,\n  "samples": {samples},\n'
            f'  "sigma_estimate": {sigma},\n'
            f'  "stream_version": 3\n}}\n'), argv


def test_gap_exact_flag(tmp_path, capsys):
    assert run(["gap", "--exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gap"] == pytest.approx(0.232703, abs=1e-5)
    assert report["sigma_estimate"] == 0.0


def test_gap_samples_below_the_mc_minimum_is_a_usage_error(capsys):
    assert run(["gap", "--samples", "5000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--samples must be >= 10000" in err, err
    assert run(["gap", "--exact", "--samples", "5000"]) == 0
    assert json.loads(capsys.readouterr().out)["multiplicity"] == 2


def test_oracle_check_passes(capsys):
    assert run(["oracle-check", "--trials", "8", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_oracle_check_haar_estimates_are_pinned(capsys):
    assert run(["oracle-check", "--trials", "20", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    haar = [line for line in out.splitlines() if line.startswith("haar ")]
    assert haar == ["haar mu1 est=1.000000 ref=1.000000 ok",
                    "haar mu2 est=1.779259 ref=1.777778 ok",
                    "haar c2 est=0.885844 ref=0.888889 ok"]
    # The whole printout, oracle errors included; those are last-bit
    # rounding of the dense products, so this digest holds for one numpy
    # and BLAS build (numpy 2.4.6 with its bundled OpenBLAS on x86-64).
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3f44252b7eefbaa765febe73ec746f95e5cb669c1b5ba6288c77524e07538fcf")


def test_oracle_check_detects_injected_fault(monkeypatch, capsys):
    import ucesim.column_sim as cs
    real = cs.apply_cnot

    def swapped(state, c, t):
        return real(state, t, c)

    monkeypatch.setattr(cs, "apply_cnot", swapped)
    assert run(["oracle-check", "--trials", "8", "--seed", "2"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_oracle_check_usage_errors():
    assert run(["oracle-check", "--trials", "0"]) == 1
    assert run(["oracle-check", "--nq-max", "9"]) == 1


def test_dump_circuit_roundtrip(capsys):
    assert run(["dump-circuit", "--nq", "3", "--ng", "12", "--seed", "4",
                "--index", "1"]) == 0
    from ucesim.gateset import circuit_to_text, sample_circuit
    assert capsys.readouterr().out == circuit_to_text(sample_circuit(4, 1, 3, 12), 4, 1)


def test_dump_circuit_bytes_are_pinned(capsys):
    assert run(["dump-circuit", "--nq", "5", "--ng", "200", "--seed", "3",
                "--index", "2"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[:9] == [
        "nq=5 seed=3 idx=2",
        "U2 q=0 alpha=5.5860157295492003 psi=2.9083836265004499 "
        "chi=0.75986329920394124 phi=0.53682524254076536",
        "CNOT c=4 t=0",
        "CNOT c=2 t=0",
        "CNOT c=3 t=0",
        "CNOT c=2 t=3",
        "CNOT c=3 t=0",
        "CNOT c=2 t=1",
        "U2 q=2 alpha=1.9184309843236409 psi=5.7954865809037166 "
        "chi=5.6615536662023453 phi=0.92314527199092322",
    ]
    assert len(text.splitlines()) == 201
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "598ca1f11702b3076cef14b1844922cd0a60c4fac8efe378bb0c889a6e85e683")


# sha256 of each file that GOLDEN_ARGV writes; the manifest's numpy and
# Python versions are masked, since they name the machine, not the run.
GOLDEN_ARGV = ["converge", "--nq", "2,3,5,9,10,11", "--statistics", "pl,mu2,c3,mu4x1",
               "--sizing", "3,9", "--seed", "7"]
GOLDEN_SHA256 = {
    "curve_nq2_pl.csv": "73f6d4e9aaa47d368918e1fdc8c81ebc129d215d70ae37a969a56bb6a1833dcd",
    "curve_nq2_mu2.csv": "db048142277d83aba366320f4ee6d462434ab1917e97b0ce602d6087e5903f8d",
    "curve_nq2_c3.csv": "7e19f94565cba5e1c2950cc4359a451a8987527e850c2e35b3f1de485b730704",
    "curve_nq2_mu4x1.csv": "bb0128fa94f27a764b0e1e677d50767dbb36785915967b575b04d61d9e05ad70",
    "curve_nq3_pl.csv": "d6d1ae21e253aca51d5e6533a95303ab2219d4a2314217138878e5a88960b892",
    "curve_nq3_mu2.csv": "7e47dea5f79c2cdf460b219dfb8ec7369fc705441a32cf99984cf108db7fd3ac",
    "curve_nq3_c3.csv": "39e5e8fbef247d12efbe4bd2bde082df88c4a4fbff8589020149337c1304fc32",
    "curve_nq3_mu4x1.csv": "8bc5b077841dff71e9611c641ed5b949362ee10f33b1cee7718b86469c69b31a",
    "curve_nq5_pl.csv": "dff36dabf98ac2e717844f1dd0ad5a1863d8d50206ef3c8acb82e203b95b1d9d",
    "curve_nq5_mu2.csv": "5e08207809bd23f81d430b3d18f4b984cfcc9ed9232429648b77f0b2483ad885",
    "curve_nq5_c3.csv": "e51f8d58113a5f5144837f478d727bb7ae6d686121b6a19def7b06341aa45586",
    "curve_nq5_mu4x1.csv": "b325e06d3edfcf9f5602ca651be4a3ac90b54be8db4e73021a4084d272db19be",
    "curve_nq9_pl.csv": "b9b3fe3ed24f61be8ad8e8ef9867b81216ae3d45be41708116db748972576e56",
    "curve_nq9_mu2.csv": "f86e2104d42b956ad4a5d0b2ddf3558d75854b879b078e298202a251e6a6cafb",
    "curve_nq9_c3.csv": "753d216f18d8750a1d103e581e6655e2fbb909360f158d9c95ff6eef01f56fab",
    "curve_nq9_mu4x1.csv": "7490ea5fec8f75a0d98f3a530308d9fe2a17c0c3706a06b4a1f2583b54fc1304",
    "curve_nq10_pl.csv": "7480949a21feeaf12ae716303626f6ff5e9813e3143af5508dff229c227958b5",
    "curve_nq10_mu2.csv": "d7dc9df3b52654eaff8cad6ccef10a4cead8268e66fb7983805910eb916419a2",
    "curve_nq10_c3.csv": "1e247017c9378499efce3c3b5f1b5d9037d52690a820f6663193d161b5a2bb6f",
    "curve_nq10_mu4x1.csv": "01ecd546c704055f36e93d75ca5adefbf6ae5e3b31a8e7871bfd37607e7b713b",
    "curve_nq11_pl.csv": "e12e90c4592598b3fcd10417e518b626c3db984e4652efef9047a3e923e0dfd4",
    "curve_nq11_mu2.csv": "b52e970417a3d4c8cbd416bf9d1c1892505164a709cea033a14f3515a4f625b1",
    "curve_nq11_c3.csv": "ab2f8af3324f6bf8b17ebd00fdb3d4a1200640cf5a0f7f9f50ddd195a8ae967a",
    "curve_nq11_mu4x1.csv": "4cd877e7a5001493794108fdf03f55ade78d096432d1e95aac44623d195b656f",
    "manifest.json": "f7ae6de7a7cad1c91750af4333e9c01f7c69d21801a6451843d332ae1454fe70",
}


def test_converge_output_bytes_are_pinned(tmp_path):
    """Every output byte of a small run at n_q <= 14 (block and column walks,
    several chunks at n_q 2 and 3) is pinned. A change that alters them on
    purpose updates these digests and says so in CHANGES.md; any other
    change in them is a regression."""
    out = str(tmp_path / "run")
    assert run([*GOLDEN_ARGV, "--out", out]) == 0
    assert sorted(os.listdir(out)) == sorted(GOLDEN_SHA256)
    digests = {}
    for name in GOLDEN_SHA256:
        data = read(os.path.join(out, name)).decode()
        if name == "manifest.json":
            versions = json.loads(data)
            for key in ("numpy_version", "python_version"):
                data = data.replace(f'"{key}": "{versions[key]}"', f'"{key}": "*"')
        digests[name] = hashlib.sha256(data.encode()).hexdigest()
    assert digests == GOLDEN_SHA256


def test_dump_circuit_usage_errors(capsys):
    for argv, message in ((["--nq", "0", "--ng", "3"], "--nq must be >= 1"),
                          (["--nq", "2", "--ng", "-1"], "--ng must be >= 0")):
        assert run(["dump-circuit", *argv]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, err


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1


# sha256 of each file that nstar-fit writes from the 24 curves of
# GOLDEN_ARGV, and of its stderr, with n* interpolated in ln D. The nstar_*
# files hold integers only; the fits_* digests hold for one numpy/BLAS
# build, like the curve digests.
GOLDEN_NSTAR_SHA256 = {
    "nstar_pl.csv": "f529561f9c3fb479fe345a73c879e7715621aeeecc746ecf0a5a3dfa9db4cb0d",
    "nstar_mu2.csv": "8bb13c6b4415494aa581f9f0d325f44e46025d806b1c8d7d4c0cf45aeab60d4f",
    "nstar_c3.csv": "cfc25d9788143b7d5f8ae401102dcdefb2e715022447ec9735ed0ccbe94183c1",
    "nstar_mu4x1.csv": "3c1439457df12ead1fcc13ebd96ddb83ebf3ec4cc9b0ef99e81ae7c599da3274",
    "fits_pl.csv": "c30a85724387ae817df095952f075d75a17a314b4484d7d0c2bca2afe447370e",
    "fits_mu2.csv": "c85cc42a3e831c2740881065f69c81ea093d0c7194b9f8200fb3880ac9c40b6f",
    "fits_c3.csv": "0dbb343b698522b101a31e53459877dda249bbce7e23d9870efc0038206823d8",
    "fits_mu4x1.csv": "64ae61aa1e75e2596dba24b9fcae397be09e1da650aa0ed1551c8f4b294637c0",
    "stderr": "37adc7717f8b28aa5c0f2b6cba43fa9b9cac2dff871ee263424cb56bc7634b4b",
}


def test_converge_and_nstar_fit_do_not_import_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma, tens of ms; the floor guard
    # that nstar-fit applies takes its median without it.
    code = ("import sys\n"
            "from ucesim import cli\n"
            "out = sys.argv[1]\n"
            "assert cli.main(['converge', '--nq', '2,3,4', '--statistics', 'pl,mu2',\n"
            "                 '--sizing', '10,6', '--seed', '3', '--out', out]) == 0\n"
            "curves = [f'{out}/curve_nq{q}_mu2.csv' for q in (2, 3, 4)]\n"
            "assert cli.main(['nstar-fit', *curves, '--ln-eps=-1,-2',\n"
            "                 '--out', out + '/fit']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = run_python(["-c", code, str(tmp_path / "run")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert os.listdir(tmp_path / "run" / "fit")


def test_converge_up_to_sixteen_qubits_does_not_import_the_thread_pool(tmp_path):
    # The column walk imports concurrent.futures only to run threads above
    # THREAD_MIN_N_Q qubits, so set-up and small runs do not pay for it.
    code = ("import sys\n"
            "from ucesim import cli\n"
            "assert cli.main(['converge', '--nq', '3,16', '--nr', '1', '--checkpoints', '4,20',\n"
            "                 '--statistics', 'pl,mu2', '--out', sys.argv[1]]) == 0\n"
            "print('concurrent.futures' in sys.modules)\n")
    proc = run_python(["-c", code, str(tmp_path / "run")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_a_run_on_one_process_does_not_import_multiprocessing(tmp_path):
    # The runner imports multiprocessing only to start a pool of workers.
    code = ("import sys\n"
            "from ucesim import cli\n"
            "assert cli.main(['converge', '--nq', '3', '--nr', '2', '--workers', '1',\n"
            "                 '--out', sys.argv[1]]) == 0\n"
            "print('multiprocessing' in sys.modules)\n")
    proc = run_python(["-c", code, str(tmp_path / "run")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_exact_gap_does_not_import_numpy_random():
    # Only the Monte Carlo averages draw, so only they build a Generator.
    code = ("import sys\n"
            "from ucesim import cli\n"
            "assert cli.main(['gap', '--exact']) == 0\n"
            "print('numpy.random' in sys.modules, file=sys.stderr)\n")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"


def test_memory_error_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    # A run too large for memory exits 2 with a message, not a traceback.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate the tape")

    monkeypatch.setattr(cli, "run_ensemble", out_of_memory)
    assert run(["converge", "--nq", "3", "--nr", "2", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate the tape\n"


def test_nstar_fit_output_bytes_are_pinned(tmp_path, capsys):
    """n*, fits and warnings from the pinned converge run, at three eps; a
    change in them is a regression unless CHANGES.md says why."""
    curves = str(tmp_path / "run")
    assert run([*GOLDEN_ARGV, "--out", curves]) == 0
    capsys.readouterr()
    out = str(tmp_path / "fit")
    paths = [os.path.join(curves, name) for name in GOLDEN_SHA256 if name.startswith("curve_")]
    assert run(["nstar-fit", *paths, "--ln-eps=-1,-2,-3", "--out", out]) == 0
    digests = {name: hashlib.sha256(read(os.path.join(out, name))).hexdigest()
               for name in os.listdir(out)}
    digests["stderr"] = hashlib.sha256(capsys.readouterr().err.encode()).hexdigest()
    assert digests == GOLDEN_NSTAR_SHA256
