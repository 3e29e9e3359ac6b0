import math
import re
import tracemalloc

import numpy as np
import pytest

from ucesim import cli
from ucesim.gateset import (
    DRAW_ROWS,
    MAX_N_Q,
    TAPE_COLUMNS,
    EnsembleConfig,
    GateTape,
    circuit_to_text,
    draw_tape,
    pcg64_states,
    realization_rngs,
    sample_circuit,
    sample_gate,
    sample_u2_angles,
    su2_entries,
    u2_matrices,
    u2_matrix,
)


TAPE_FIELDS = ("is_u2", "qubit", "target", "angles")


def _same_tape(a, b):
    return a.n_q == b.n_q and all(np.array_equal(getattr(a, f), getattr(b, f))
                                  for f in TAPE_FIELDS)


def _part(tape, rows=slice(None), gates=slice(None)):
    """The sub-tape of the given realizations and gates."""
    return GateTape(tape.n_q, *(getattr(tape, f)[rows, gates] for f in TAPE_FIELDS))


def test_angle_ranges_and_phi_endpoints():
    # xi = 0 and xi = 1 map to the phi endpoints
    assert math.asin(math.sqrt(0.0)) == 0.0
    assert math.asin(math.sqrt(1.0)) == pytest.approx(math.pi / 2)
    rng = np.random.default_rng(0)
    for _ in range(500):
        alpha, psi, chi, phi = sample_u2_angles(rng)
        assert 0 <= alpha < 2 * math.pi
        assert 0 <= psi < 2 * math.pi
        assert 0 <= chi < 2 * math.pi
        assert 0 <= phi <= math.pi / 2


def test_cos2_phi_mean_is_half():
    # E[cos^2 phi] = E[1 - xi] = 1/2; Var[1 - xi] = 1/12
    rng = np.random.default_rng(1)
    n = 200_000
    vals = np.cos(draw_tape([rng], 1, n, 1.0).angles[0, :, 3]) ** 2
    sigma = math.sqrt(1.0 / 12.0 / n)
    assert abs(vals.mean() - 0.5) < 3 * sigma


def test_u2_matrix_trivial_cases():
    ident = u2_matrix((0, 0, 0, 0))
    assert np.allclose(ident, np.eye(2), atol=1e-15)
    rot = u2_matrix((0, 0, 0, math.pi / 2))
    assert np.allclose(rot, [[0, 1], [-1, 0]], atol=1e-15)


def test_u2_matrix_unitarity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        u = u2_matrix(sample_u2_angles(rng))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-14


def test_u11_squared_uniform_ks():
    # Haar marginal: |u_11|^2 = cos^2 phi = 1 - xi, uniform on [0, 1]
    rng = np.random.default_rng(3)
    n = 200_000
    vals = np.sort(np.abs(draw_tape([rng], 1, n, 1.0).matrices()[0, :, 0, 0]) ** 2)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(ecdf_hi - vals)), np.max(np.abs(vals - ecdf_lo)))
    assert ks < 1.63 / math.sqrt(n)  # 1% critical value


def test_sample_gate_degenerate_probabilities():
    rng = np.random.default_rng(4)
    assert all(sample_gate(rng, 3, 1.0).is_u2.all() for _ in range(200))
    assert not any(sample_gate(rng, 3, 0.0).is_u2.any() for _ in range(200))


def test_sample_gate_cnot_pair_frequencies():
    rng = np.random.default_rng(5)
    n = 100_000
    tape = draw_tape([rng], 2, n, 0.0)
    assert not tape.is_u2.any()
    pairs = set(zip(tape.qubit[0].tolist(), tape.target[0].tolist()))
    assert pairs <= {(0, 1), (1, 0)}
    count01 = int(np.count_nonzero(tape.qubit == 0))
    sigma = math.sqrt(n * 0.25)
    assert abs(count01 - n / 2) < 3 * sigma


def test_sample_gate_kind_frequency():
    rng = np.random.default_rng(6)
    n = 100_000
    singles = int(np.count_nonzero(draw_tape([rng], 4, n, 0.5).is_u2))
    sigma = math.sqrt(n * 0.25)
    assert abs(singles - n / 2) < 3 * sigma


def test_single_qubit_forced_for_one_qubit():
    rng = np.random.default_rng(7)
    assert all(sample_gate(rng, 1, 0.0).is_u2.all() for _ in range(100))


def test_sample_circuit_empty_and_deterministic():
    assert sample_circuit(1, 0, 3, 0).n_g == 0
    with pytest.raises(ValueError, match="n_q must be >= 1"):
        sample_circuit(1, 0, 0, 3)
    with pytest.raises(ValueError, match="n_g must be >= 0"):
        sample_circuit(1, 0, 3, -1)
    c1 = sample_circuit(99, 2, 4, 25)
    c2 = sample_circuit(99, 2, 4, 25)
    assert (c1.n_q, c1.n_g, c1.is_u2.shape[0]) == (4, 25, 1)
    assert _same_tape(c1, c2)


def test_sample_circuit_prefix_property():
    for seed in (0, 17, 23):
        short = sample_circuit(seed, 1, 5, 10)
        long = sample_circuit(seed, 1, 5, 40)
        assert _same_tape(_part(long, gates=slice(10)), short)


def test_distinct_realization_streams():
    for seed in range(100):
        a = sample_circuit(seed, 0, 3, 10)
        b = sample_circuit(seed, 1, 3, 10)
        assert not _same_tape(a, b)


# Seeds of 1 to 6 uint32 words, either side of SeedSequence's pool of 4,
# where pcg64_states' count of hash steps changes, and one-word indices up
# to the last a run can draw.
ORACLE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1, 2**128 + 7, 2**160 + 3)
ORACLE_INDICES = (0, 1, 63, 64, 2**32 - 1)


def _numpy_stream(seed, index):
    """The oracle: numpy's own SeedSequence -> PCG64 stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def test_realization_streams_equal_numpy_seed_sequence():
    for seed in ORACLE_SEEDS:
        for index in ORACLE_INDICES:
            want = _numpy_stream(seed, index)
            state = want.bit_generator.state["state"]
            assert pcg64_states(seed, index, index + 1) == [(state["state"], state["inc"])], \
                (seed, index)
            (rng,) = realization_rngs(seed, index, index + 1)
            assert rng.random(64).tobytes() == want.random(64).tobytes(), (seed, index)
    # The batch path takes one-word indices, up to the last one, and
    # refuses a range that reaches past 2**32.
    lo = 2**32 - 6
    for seed in (0, 2**160 + 3):
        want = [_numpy_stream(seed, i).bit_generator.state["state"] for i in range(lo, 2**32)]
        assert pcg64_states(seed, lo, 2**32) == [(s["state"], s["inc"]) for s in want]
        got = [rng.random(64).tobytes() for rng in realization_rngs(seed, lo, 2**32)]
        assert got == [_numpy_stream(seed, i).random(64).tobytes() for i in range(lo, 2**32)]
    for start, stop in ((2**32 - 3, 2**32 + 3), (2**32, 2**32 + 1), (-1, 2), (5, 4)):
        with pytest.raises(ValueError, match="not one-word indices"):
            pcg64_states(0, start, stop)
    for seed in (5, 2**64 + 5):
        want = [_numpy_stream(seed, i).bit_generator.state["state"] for i in range(130)]
        assert pcg64_states(seed, 0, 130) == [(s["state"], s["inc"]) for s in want]
    assert pcg64_states(5, 7, 7) == []


def test_a_dumped_circuit_is_a_runs_circuit(capsys):
    # sample_circuit, which dump-circuit and oracle-check print and check,
    # is the row the runner draws for that realization in its batch (at the
    # edges of its chunks of 64 and at the last index) and numpy's own stream.
    seed, n_q, n_g = 20260823, 6, 60
    for start, stop, indices in ((0, 128, (0, 63, 64)), (2**32 - 64, 2**32, (2**32 - 1,))):
        batch = draw_tape(realization_rngs(seed, start, stop), n_q, n_g, rows=stop - start)
        for i in indices:
            circuit = sample_circuit(seed, i, n_q, n_g)
            assert _same_tape(circuit, _part(batch, rows=slice(i - start, i - start + 1))), i
            assert _same_tape(circuit, draw_tape([_numpy_stream(seed, i)], n_q, n_g)), i
    # dump-circuit takes the indices a run can draw, and no others.
    last = 2**32 - 1
    argv = ["dump-circuit", "--nq", str(n_q), "--ng", str(n_g), "--seed", str(seed), "--index"]
    assert cli.main([*argv, str(last)]) == 0
    assert capsys.readouterr().out == circuit_to_text(sample_circuit(seed, last, n_q, n_g),
                                                      seed, last)
    assert cli.main([*argv, str(2**32)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: argument --index: must be < 2**32"), err


def test_circuit_serialization_roundtrip():
    # The header names the circuit: sample_circuit rebuilds it from the
    # header and the number of gate lines.
    for seed, index, n_q, n_g in ((123, 4, 3, 20), (1, 0, 3, 0)):
        text = circuit_to_text(sample_circuit(seed, index, n_q, n_g), seed, index)
        header, *gates = text.splitlines()
        assert header == f"nq={n_q} seed={seed} idx={index}"
        assert len(gates) == n_g
        fields = dict(kv.split("=") for kv in header.split())
        rebuilt = sample_circuit(int(fields["seed"]), int(fields["idx"]),
                                 int(fields["nq"]), len(gates))
        assert circuit_to_text(rebuilt, seed, index) == text
    # 17 significant digits round-trip doubles exactly.
    tape = sample_circuit(123, 4, 3, 20)
    angles = [[float(kv.split("=")[1]) for kv in line.split()[2:]]
              for line in circuit_to_text(tape, 123, 4).splitlines()[1:]
              if line.startswith("U2")]
    assert np.array_equal(angles, tape.angles[tape.is_u2])


def test_ensemble_config_rejects_bad_checkpoints():
    for cps in ((), (-2, 4), (-1,), (3, 3), (5, 2)):
        with pytest.raises(ValueError):
            EnsembleConfig(n_q=3, checkpoints=cps, master_seed=0, n_r=2, sizing=None)
    assert EnsembleConfig(n_q=3, checkpoints=(0, 4), master_seed=0).max_gates == 4


def test_ensemble_config_owns_the_run_rules():
    ok = dict(n_q=3, checkpoints=(2,), master_seed=0, n_r=2, sizing=None)
    for bad, message in (({"n_q": 0}, "n_q=0 must be >= 1"),
                         ({"n_q": MAX_N_Q + 1}, f"exceeds memory cap {MAX_N_Q}"),
                         ({"master_seed": -1}, "master_seed must be >= 0"),
                         ({"p_g": float("nan")}, "p_g must be in"),
                         ({"n_r": 0}, "n_r must be >= 1"),
                         ({"n_r": None}, "need n_r or a sizing rule"),
                         ({"n_r": None, "sizing": (0, 5)}, "with a >= 1"),
                         # Streams are seeded for one-word realization indices.
                         ({"n_r": 2**32 + 1}, "more than 2**32 realizations"),
                         ({"n_r": None, "sizing": (2, 35)}, "more than 2**32 realizations"),
                         ({"n_r": None, "sizing": (1, 10**12)}, "more than 2**32")):
        with pytest.raises(ValueError, match=re.escape(message)):
            EnsembleConfig(**{**ok, **bad})
    for n_q in (1, MAX_N_Q):
        assert EnsembleConfig(**{**ok, "n_q": n_q}).n_q == n_q
    assert EnsembleConfig(**{**ok, "n_r": None, "sizing": (1, 0)}).resolved_n_r() == 1
    assert EnsembleConfig(**{**ok, "n_r": None, "sizing": (3, 5)}).resolved_n_r() == 12
    assert EnsembleConfig(**{**ok, "n_r": 2**32}).resolved_n_r() == 2**32
    assert EnsembleConfig(**{**ok, "n_r": None, "sizing": (1, 35)}).resolved_n_r() == 2**32


def test_sample_gate_is_one_tape_row():
    for n_q, p_g in ((1, 0.5), (2, 0.0), (3, 0.5), (5, 1.0), (7, 0.3)):
        rng, twin = np.random.default_rng(n_q), np.random.default_rng(n_q)
        gates = [sample_gate(rng, n_q, p_g) for _ in range(50)]
        tape = draw_tape([twin], n_q, 50, p_g)
        for g, gate in enumerate(gates):
            assert _same_tape(gate, _part(tape, gates=slice(g, g + 1)))
        assert rng.random() == twin.random()  # same uniforms consumed


def test_sample_u2_angles_are_a_one_qubit_tape_row():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(50):
        angles = sample_u2_angles(rng)
        assert angles.tobytes() == draw_tape([twin], 1, 1, 1.0).angles[0, 0].tobytes()
    assert rng.random() == twin.random()  # same uniforms consumed


def test_draw_tape_prefix_property():
    for n_q in (1, 2, 4, 9):
        short, long = (draw_tape(realization_rngs(3, 0, 5), n_q, n_g, rows=5) for n_g in (12, 40))
        assert _same_tape(_part(long, gates=slice(12)), short)
        for r in range(5):
            assert _same_tape(_part(short, rows=slice(r, r + 1)),
                              sample_circuit(3, r, n_q, 12))


def test_draw_tape_in_blocks_equals_row_by_row_draws():
    # 130 realizations are drawn in blocks of 64, 64 and 2; every byte
    # (signed zeros included) equals the one-row tapes stacked.
    for n_q, p_g in ((1, 0.5), (2, 0.5), (5, 0.3)):
        tape = draw_tape(realization_rngs(4, 0, 130), n_q, 50, p_g, rows=130)
        rows = [sample_circuit(4, r, n_q, 50, p_g) for r in range(130)]
        for f in TAPE_FIELDS:
            stacked = np.concatenate([getattr(row, f) for row in rows])
            assert getattr(tape, f).dtype == stacked.dtype, f
            assert getattr(tape, f).tobytes() == stacked.tobytes(), (n_q, f)
    with pytest.raises(ValueError):
        draw_tape([], 2, 5)


def test_draw_tape_reads_a_one_shot_generator_lazily():
    # One shared Generator re-seeded before each realization's draw, as the
    # runner does, gives the tape of a list of independent generators.
    shared = np.random.Generator(np.random.PCG64())

    def reseeded(seed, rows):
        for r in range(rows):
            shared.bit_generator.state = _numpy_stream(seed, r).bit_generator.state
            yield shared

    for n_q, p_g, rows in ((1, 0.5, 3), (4, 0.3, 130)):
        want = draw_tape([_numpy_stream(8, r) for r in range(rows)], n_q, 40, p_g)
        for rngs in (reseeded(8, rows), realization_rngs(8, 0, rows)):
            got = draw_tape(rngs, n_q, 40, p_g, rows=rows)
            for f in TAPE_FIELDS:
                assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), (n_q, f)
    with pytest.raises(ValueError, match="at least one generator"):
        draw_tape(reseeded(8, 0), 2, 5, rows=0)
    for given, rows in ((2, 3), (70, 71)):  # short in the first or second block
        with pytest.raises(ValueError, match=f"gave {given} generators, fewer than rows={rows}"):
            draw_tape(reseeded(8, given), 2, 5, rows=rows)


def test_draw_tape_holds_one_block_of_uniforms():
    # One call's peak is the tape, one DRAW_ROWS block of uniforms and the
    # temporaries converting it, each smaller than that block.
    rows, n_q, n_g = 130, 6, 400
    tracemalloc.start()
    try:
        tape = draw_tape(realization_rngs(6, 0, rows), n_q, n_g, rows=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tape_bytes = sum(getattr(tape, f).nbytes for f in TAPE_FIELDS)
    block_bytes = DRAW_ROWS * n_g * TAPE_COLUMNS * np.dtype(float).itemsize
    assert peak <= tape_bytes + 2 * block_bytes, (peak, tape_bytes, block_bytes)


def test_draw_tape_layout_and_ranges():
    n_q, n_g = 6, 4000
    tape = draw_tape([np.random.default_rng(8)], n_q, n_g)
    u = np.random.default_rng(8).random((n_g, TAPE_COLUMNS))
    assert np.array_equal(tape.is_u2[0], u[:, 0] < 0.5)
    assert np.array_equal(tape.qubit[0], np.floor(u[:, 1] * n_q))
    cnot = ~tape.is_u2[0]
    assert np.all(tape.target[0][~cnot] == tape.qubit[0][~cnot])
    assert np.all(tape.target[0][cnot] != tape.qubit[0][cnot])
    assert 0 <= tape.target.min() and tape.target.max() < n_q
    u2 = ~cnot
    assert np.array_equal(tape.angles[0, u2, :3], u[u2, 3:6] * (2 * math.pi))
    assert np.array_equal(tape.angles[0, u2, 3], np.arcsin(np.sqrt(u[u2, 6])))
    assert not tape.angles[0, cnot].any()  # CNOT rows carry zero angles
    # every ordered pair is reachable
    pairs = set(zip(tape.qubit[0][cnot].tolist(), tape.target[0][cnot].tolist()))
    assert len(pairs) == n_q * (n_q - 1)


def test_su2_entries_times_the_phase_are_u2_matrices_byte_for_byte():
    tape = draw_tape(realization_rngs(4, 0, 2), 3, 200, 1.0, rows=2)
    for angles in (tape.angles.reshape(-1, 4), np.array([0.3, 1.2, 5.9, 0.7]),
                   np.zeros(4), np.array([-2.5, 7.0, -0.1, 1.1])):
        alpha, psi, chi, phi = np.moveaxis(angles, -1, 0)  # 0-d for one gate
        e = su2_entries(psi, chi, phi)
        assert e.shape == (2, 2) + np.shape(phi)
        u = np.moveaxis(e * np.exp(1j * alpha), (0, 1), (-2, -1))
        assert u.tobytes() == u2_matrices(alpha, psi, chi, phi).tobytes()
        assert u.tobytes() == u2_matrices(*angles.T).tobytes()


def test_tape_matrices_are_u2_matrix_and_roundtrip_gates():
    tape = draw_tape(realization_rngs(2, 0, 3), 4, 30, rows=3)
    m = tape.matrices()
    for r in range(3):
        for g in range(tape.n_g):
            if tape.is_u2[r, g]:
                assert np.array_equal(u2_matrix(tape.angles[r, g]), m[r, g])
            else:
                assert not m[r, g].any() and not tape.angles[r, g].any()
    # The walks build matrices per realization or per span of gates: every
    # part of the grid gets the same bits as the whole tape.
    tape = draw_tape(realization_rngs(3, 0, 64), 4, 300, rows=64)
    m = tape.matrices().view(np.int64)
    for index in (np.s_[5], np.s_[:, 7:8], np.s_[:, 3:67], np.s_[:, 100:300], np.s_[10:13, 1:250]):
        assert np.array_equal(tape.matrices(index).view(np.int64), m[index]), index
