import math

import numpy as np
import pytest

from ucesim.column_sim import (
    apply_cnot,
    apply_gate,
    apply_single_qubit,
    dense_unitary_oracle,
    gate_matrix_full,
    initial_column,
    iter_checkpoints,
    simulate_first_column,
)
from ucesim.gateset import (
    CnotGate,
    GateAngles,
    realization_rng,
    sample_circuit,
    sample_gate,
    u2_matrix,
)


def test_apply_single_qubit_derived_example():
    # direct 2x2 matrix-vector product with phi = pi/3
    state = initial_column(1)
    apply_single_qubit(state, 0, u2_matrix(GateAngles(0, 0, 0, math.pi / 3)))
    assert state.amplitudes == pytest.approx([0.5, -math.sqrt(3) / 2])


def test_apply_single_qubit_identity():
    state = initial_column(3)
    state.amplitudes[:] = np.random.default_rng(0).standard_normal(8)
    before = state.amplitudes.copy()
    apply_single_qubit(state, 1, np.eye(2))
    assert np.array_equal(state.amplitudes, before)


def test_apply_single_qubit_norm_preserved():
    rng = np.random.default_rng(1)
    state = initial_column(10)
    for _ in range(50):
        q = int(rng.integers(10))
        apply_single_qubit(state, q, u2_matrix(
            GateAngles(*(rng.random(3) * 2 * math.pi), rng.random() * math.pi / 2)))
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_apply_single_qubit_out_of_range():
    with pytest.raises(IndexError):
        apply_single_qubit(initial_column(2), 2, np.eye(2))


def test_apply_cnot_two_qubit_swap_set():
    state = initial_column(2)
    state.amplitudes[:] = [1, 2, 3, 4]
    apply_cnot(state, 0, 1)
    assert np.array_equal(state.amplitudes, [1, 4, 3, 2])


def test_apply_cnot_leaves_basis_zero():
    for c, t in [(0, 1), (1, 0), (2, 0)]:
        state = initial_column(3)
        apply_cnot(state, c, t)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1


def test_apply_cnot_involution():
    rng = np.random.default_rng(2)
    state = initial_column(4)
    state.amplitudes[:] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    before = state.amplitudes.copy()
    apply_cnot(apply_cnot(state, 1, 3), 1, 3)
    assert np.array_equal(state.amplitudes, before)


def test_apply_cnot_touches_exact_pair_count():
    n_q = 5
    rng = np.random.default_rng(3)
    state = initial_column(n_q)
    state.amplitudes[:] = rng.standard_normal(1 << n_q)
    before = state.amplitudes.copy()
    apply_cnot(state, 0, 2)
    moved = np.nonzero(state.amplitudes != before)[0]
    assert moved.size == 1 << (n_q - 1)  # 2^(n_q-2) swapped pairs
    assert np.array_equal(np.sort(state.amplitudes), np.sort(before))


def test_apply_cnot_matches_dense_operator_every_pair():
    # Covers both view orientations: control above and below the target.
    rng = np.random.default_rng(4)
    for n_q in range(2, 6):
        for c in range(n_q):
            for t in range(n_q):
                if c == t:
                    continue
                state = initial_column(n_q)
                state.amplitudes[:] = (rng.standard_normal(1 << n_q)
                                       + 1j * rng.standard_normal(1 << n_q))
                expected = gate_matrix_full(CnotGate(c, t), n_q) @ state.amplitudes
                apply_cnot(state, c, t)
                assert np.array_equal(state.amplitudes, expected), (n_q, c, t)


def test_apply_cnot_rejects_equal_qubits():
    with pytest.raises(ValueError):
        apply_cnot(initial_column(2), 1, 1)


def test_simulate_empty_circuit():
    circuit = sample_circuit(0, 0, 3, 0)
    (snap,) = simulate_first_column(circuit, [0])
    assert snap.amplitudes[0] == 1.0
    assert np.count_nonzero(snap.amplitudes) == 1


def test_simulate_cnot_only_circuit_stays_at_e0():
    rng = np.random.default_rng(4)
    gates = tuple(sample_gate(rng, 4, 0.0) for _ in range(30))
    circuit = sample_circuit(0, 0, 4, 0)
    circuit = type(circuit)(n_q=4, gates=gates, master_seed=0, realization_index=0)
    for snap in simulate_first_column(circuit, [10, 20, 30]):
        assert snap.amplitudes[0] == 1.0
        assert np.count_nonzero(snap.amplitudes) == 1


def test_simulate_checkpoint_beyond_n_g():
    with pytest.raises(ValueError):
        simulate_first_column(sample_circuit(0, 0, 2, 5), [10])


def test_iter_checkpoints_yields_the_live_column():
    circuit = sample_circuit(5, 1, 3, 20)
    cps = [0, 1, 4, 9, 20]
    seen = []
    for state, snap in zip(iter_checkpoints(3, circuit.gates, cps),
                           simulate_first_column(circuit, cps), strict=True):
        assert np.array_equal(state.amplitudes, snap.amplitudes)
        seen.append(state)
    assert all(s is seen[0] for s in seen)
    (first,) = iter_checkpoints(3, circuit.gates, [0])
    assert np.array_equal(first.amplitudes, initial_column(3).amplitudes)


def test_iter_checkpoints_draws_no_gate_past_the_last_checkpoint():
    gates = sample_circuit(5, 1, 3, 10).gates
    stream = iter(gates)
    assert list(iter_checkpoints(3, stream, [])) == []
    assert next(stream) is gates[0]
    stream = iter(gates)
    assert len(list(iter_checkpoints(3, stream, [2, 5]))) == 2
    assert next(stream) is gates[5]


def test_iter_checkpoints_rejects_bad_checkpoints():
    gates = sample_circuit(5, 1, 3, 10).gates
    for cps in ([3, 3], [4, 2], [-1, 2], [11]):
        with pytest.raises(ValueError):
            list(iter_checkpoints(3, gates, cps))


def test_simulate_matches_dense_oracle():
    circuit = sample_circuit(11, 0, 3, 30)
    (snap,) = simulate_first_column(circuit, [30])
    oracle = dense_unitary_oracle(circuit)[:, 0]
    assert np.max(np.abs(snap.amplitudes - oracle)) < 1e-12


def test_dense_oracle_empty_is_identity():
    assert np.array_equal(dense_unitary_oracle(sample_circuit(0, 0, 2, 0)), np.eye(4))


def test_dense_oracle_single_cnot_is_permutation():
    rng = realization_rng(0, 0)
    gate = sample_gate(rng, 2, 0.0)
    circuit = sample_circuit(0, 0, 2, 0)
    circuit = type(circuit)(n_q=2, gates=(gate,), master_seed=0, realization_index=0)
    u = dense_unitary_oracle(circuit)
    assert np.array_equal(np.abs(u), np.abs(u).astype(int))
    assert np.array_equal(u.sum(axis=0).real, np.ones(4))
    assert np.array_equal(u.sum(axis=1).real, np.ones(4))


def test_dense_oracle_unitarity():
    circuit = sample_circuit(5, 0, 4, 40)
    u = dense_unitary_oracle(circuit)
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12


def test_dense_oracle_guards_large_n_q():
    with pytest.raises(ValueError):
        dense_unitary_oracle(sample_circuit(0, 0, 9, 1))


def test_norm_after_thousand_gates():
    rng = realization_rng(77, 0)
    state = initial_column(10)
    for _ in range(1000):
        apply_gate(state, sample_gate(rng, 10, 0.5))
    assert abs(state.norm_sq() - 1.0) < 1e-10
