import hashlib
import json
import math
import os

import numpy as np
import pytest

from ucesim import cli
from ucesim.gateset import STREAM_VERSION


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run(argv):
    return cli.main(argv)


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
    for version, found in ((None, "no stream_version"), (1, "stream_version 1")):
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
    # A small valid run that each row makes invalid; the last flag wins.
    base = ["converge", "--nq", "2", "--nr", "2", "--checkpoints", "2,4",
            "--statistics", "pl,mu2"]
    out = tmp_path / "out"
    for argv, message in (
        (["--pg", "2"], "p_g must be in [0, 1], got 2.0"),
        (["--pg", "nan"], "p_g must be in [0, 1], got nan"),
        (["--nr", "0"], "n_r must be >= 1, got 0"),
        (["--sizing", "0,3"], "with a >= 1, got (0, 3)"),
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
    ):
        assert run([*base, *argv, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err, (argv, err)
        assert not out.exists(), argv
    assert run([*base, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["curve_nq2_mu2.csv", "curve_nq2_pl.csv", "manifest.json"]


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
                          (["--ln-eps=-1", "--guard", "0.5"], "--guard must exceed 1"),
                          (["--ln-eps=-1", "--guard", "inf"],
                           "--guard must exceed 1 and be finite, got inf")):
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
            (header + "3,1,mu2,0.5,40\n", "bad.csv:2: bad seed None")):
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
    assert set(report) == {"gap", "multiplicity", "samples", "sigma_estimate"}
    assert report["multiplicity"] == 2
    assert report["samples"] == 15000


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
    text = capsys.readouterr().out
    from ucesim.gateset import circuit_from_text, circuit_to_text, sample_circuit
    back, drawn = circuit_from_text(text).tape, sample_circuit(4, 1, 3, 12).tape
    for field in ("is_u2", "qubit", "target", "angles"):
        assert np.array_equal(getattr(back, field), getattr(drawn, field)), field
    assert circuit_to_text(circuit_from_text(text)) == text


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
    "curve_nq10_mu2.csv": "13f7b2ac0711288541b7ba1798f54ad762eb4ae5c1cfd7bbc11e5cd656745273",
    "curve_nq10_c3.csv": "2322a9da4b9536410f4b757dc6d25d6e231846b5294011a3709f82cdd95bad66",
    "curve_nq10_mu4x1.csv": "3a91702ade225713229060beac6e6f2100b7ebe4d5a277f246190b6fe78ba7cd",
    "curve_nq11_pl.csv": "e12e90c4592598b3fcd10417e518b626c3db984e4652efef9047a3e923e0dfd4",
    "curve_nq11_mu2.csv": "dfc048233ec83d1c4f47829379c2098738b12efb96bb0aa31d5b10fa1a2eb88b",
    "curve_nq11_c3.csv": "652ec38ea6dae59c04e8ee696e17899e732608ab844db48a06f177ae9ab22e2a",
    "curve_nq11_mu4x1.csv": "46758b99f756ce662c49fefb8b9a79df6bef6aea01623a8a501a5f851e91717d",
    "manifest.json": "70529d09b9417e904f25bda55b06eb480b27b5146847a1d72c90f4d4c2a4e226",
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
