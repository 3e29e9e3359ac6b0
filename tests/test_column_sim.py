import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from ucesim.column_sim import (
    BLOCK_GROUP,
    BLOCK_MAX_N_Q,
    THREAD_MIN_N_Q,
    StateColumn,
    apply_cnot,
    apply_single_qubit,
    block_step,
    dense_unitary_oracle,
    fuse_u2_runs,
    gate_matrix_full,
    initial_column,
    iter_checkpoints,
    simulate_first_column,
    walk_block,
    walk_columns,
)
from ucesim.gateset import (
    MAX_N_Q,
    EnsembleConfig,
    GateTape,
    draw_tape,
    realization_rngs,
    sample_circuit,
    u2_matrix,
)


def test_apply_single_qubit_derived_example():
    # direct 2x2 matrix-vector product with phi = pi/3
    state = initial_column(1)
    apply_single_qubit(state, 0, u2_matrix((0, 0, 0, math.pi / 3)))
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
            (*(rng.random(3) * 2 * math.pi), rng.random() * math.pi / 2)))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12


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
                expected = gate_matrix_full(n_q, False, c, t) @ state.amplitudes
                apply_cnot(state, c, t)
                assert np.array_equal(state.amplitudes, expected), (n_q, c, t)


def test_apply_cnot_rejects_equal_qubits():
    with pytest.raises(ValueError):
        apply_cnot(initial_column(2), 1, 1)


def random_column(n_q, rng):
    return StateColumn(n_q, rng.standard_normal(1 << n_q) + 1j * rng.standard_normal(1 << n_q))


# Columns of one slab and of four: the kernels walk BLOCK_GROUP pairs per slab.
SLAB_N_Q = (15, BLOCK_GROUP.bit_length() + 2)


def test_apply_single_qubit_equals_out_of_place_formula_across_slabs():
    # Every q: contiguous pieces, (rows, 2**q) views and strided 1-D views.
    rng = np.random.default_rng(21)
    for n_q in SLAB_N_Q:
        for q in range(n_q):
            state = random_column(n_q, rng)
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = state.amplitudes.reshape(-1, 2, 1 << q)
            a0, a1 = a[:, 0].copy(), a[:, 1].copy()
            new0 = m[0, 0] * a0 + m[0, 1] * a1
            new1 = m[1, 0] * a0 + m[1, 1] * a1
            apply_single_qubit(state, q, m)
            assert np.array_equal(a[:, 0], new0), (n_q, q)
            assert np.array_equal(a[:, 1], new1), (n_q, q)


def test_apply_cnot_equals_index_permutation_across_slabs():
    rng = np.random.default_rng(22)
    for n_q in SLAB_N_Q:
        index = np.arange(1 << n_q)
        for c, t in [(0, n_q - 1), (n_q - 1, 0), (1, 2), (2, 1), (0, 1), (n_q - 2, n_q - 1),
                     (n_q // 2, 3), (3, n_q // 2)]:
            state = random_column(n_q, rng)
            source = np.where((index >> c) & 1, index ^ (1 << t), index)
            expected = state.amplitudes[source]
            apply_cnot(state, c, t)
            assert np.array_equal(state.amplitudes, expected), (n_q, c, t)


def test_one_gate_at_n_q_22_allocates_under_one_mib():
    # The kernels work in place through slab-sized buffers.
    rng = np.random.default_rng(23)
    state = random_column(22, rng)
    m = u2_matrix((*(rng.random(3) * 2 * math.pi), rng.random() * math.pi / 2))
    gates = [(apply_single_qubit, q, m) for q in (0, 2, 3, 11, 21)]
    gates += [(apply_cnot, c, t) for c, t in ((0, 21), (21, 0), (1, 2), (2, 1))]
    for kernel, *args in gates:
        tracemalloc.start()
        try:
            kernel(state, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (kernel.__name__, args[0], peak)


def test_simulate_empty_circuit():
    (snap,) = simulate_first_column(sample_circuit(0, 0, 3, 0), [0])
    assert snap.amplitudes[0] == 1.0
    assert np.count_nonzero(snap.amplitudes) == 1


def test_simulate_cnot_only_circuit_stays_at_e0():
    rng = np.random.default_rng(4)
    tape = draw_tape([rng], 4, 30, 0.0)
    assert not tape.is_u2.any()
    for snap in simulate_first_column(tape, [10, 20, 30]):
        assert snap.amplitudes[0] == 1.0
        assert np.count_nonzero(snap.amplitudes) == 1


def test_simulate_checkpoint_beyond_n_g():
    with pytest.raises(ValueError):
        simulate_first_column(sample_circuit(0, 0, 2, 5), [10])


def test_iter_checkpoints_yields_the_live_column():
    tape = sample_circuit(5, 1, 3, 20)
    cps = [0, 1, 4, 9, 20]
    seen = []
    for (k, block), snap in zip(iter_checkpoints(tape, cps),
                                simulate_first_column(tape, cps), strict=True):
        assert k == len(seen)
        assert np.array_equal(block[0], snap.amplitudes)
        seen.append(block)
    assert all(b is seen[0] for b in seen)
    ((_, first),) = iter_checkpoints(tape, [0])
    assert np.array_equal(first[0], initial_column(3).amplitudes)


def test_iter_checkpoints_applies_no_gate_past_the_last_checkpoint():
    # Both walks: a tape longer than the last checkpoint gives the columns
    # of the tape cut at it.
    for n_q in (3, BLOCK_MAX_N_Q + 1):
        long = draw_tape(realization_rngs(5, 0, 2), n_q, 10, rows=2)
        short = draw_tape(realization_rngs(5, 0, 2), n_q, 5, rows=2)
        assert list(iter_checkpoints(long, [])) == []
        got = [(k, b.copy()) for k, b in iter_checkpoints(long, [2, 5])]
        want = [(k, b.copy()) for k, b in iter_checkpoints(short, [2, 5])]
        assert len(got) == len(want) == (2 if n_q <= BLOCK_MAX_N_Q else 4)
        for (k1, b1), (k2, b2) in zip(got, want):
            assert k1 == k2 and np.array_equal(b1, b2)


def test_iter_checkpoints_rejects_bad_checkpoints():
    tape = sample_circuit(5, 1, 3, 10)
    for cps in ([3, 3], [4, 2], [-1, 2], [11]):
        with pytest.raises(ValueError):
            list(iter_checkpoints(tape, cps))


def test_n_q_and_checkpoint_rules_have_one_owner():
    # A run's config, a column and a walk reject the same bad n_q or
    # checkpoints with the same message.
    empty = sample_circuit(0, 0, 1, 0)
    for n_q, message in ((0, "n_q=0 must be >= 1"),
                         (MAX_N_Q + 1, f"n_q={MAX_N_Q + 1} exceeds memory cap {MAX_N_Q}")):
        tape = GateTape(n_q, empty.is_u2, empty.qubit, empty.target, empty.angles)
        for make in (lambda: EnsembleConfig(n_q, (2,), 0, n_r=1),
                     lambda: initial_column(n_q), lambda: iter_checkpoints(tape, [])):
            with pytest.raises(ValueError, match=re.escape(message)):
                make()
    tape = sample_circuit(5, 1, 3, 10)
    for cps in ((3, 3), (4, 2), (-1, 2)):
        for make in (lambda: EnsembleConfig(3, cps, 0, n_r=1),
                     lambda: iter_checkpoints(tape, cps)):
            with pytest.raises(ValueError, match="checkpoints must be strictly increasing and >= 0"):
                make()


def fused_kernel_columns(tape, checkpoints):
    """Each realization's column at each checkpoint, from the view kernels
    driven here over ``fuse_u2_runs`` of each checkpoint segment."""
    columns = []
    for r in range(tape.is_u2.shape[0]):
        rows = list(zip(tape.is_u2[r].tolist(), tape.qubit[r].tolist(),
                        tape.target[r].tolist(), tape.matrices(r).tolist()))
        state = initial_column(tape.n_q)
        for lo, hi in zip((0, *checkpoints), checkpoints):
            for u2, q, t, m in fuse_u2_runs(rows[lo:hi]):
                if u2:
                    apply_single_qubit(state, q, np.array(m))
                else:
                    apply_cnot(state, q, t)
            columns.append(state.amplitudes.copy())
    return columns


def test_block_step_equals_view_kernels_and_dense_oracle():
    # The same tape through the uniform block step (driven gate by gate
    # here, and through walk_block) and through the view kernels gate by
    # gate: identical columns, each equal to the dense oracle's first
    # column. walk_columns fuses U(2) runs: it equals the kernels driven
    # over its fused gates, and the dense oracle to rounding.
    for n_q in range(1, 9):
        n = 1 << n_q
        index = np.arange(n)
        for rows in (1, 64):
            tape = draw_tape(realization_rngs(n_q, 0, rows), n_q, 40, rows=rows)
            m = tape.matrices()
            block = np.zeros((rows, n), dtype=complex)
            block[:, 0] = 1.0
            states = [initial_column(n_q) for _ in range(rows)]
            for g in range(tape.n_g):
                sel, part = tape.qubit[:, g, None], tape.target[:, g, None]
                u2 = tape.is_u2[:, g]
                coef = np.where(u2[:, None], m[:, g].reshape(rows, 4), [1, 0, 1, 0]).T[..., None]
                partner = (index ^ (1 << part)) + n * np.arange(rows)[:, None]
                block_step(block, ((index >> sel) & 1).astype(bool), partner, coef)
                for r, state in enumerate(states):
                    if u2[r]:
                        apply_single_qubit(state, int(sel[r, 0]), m[r, g])
                    else:
                        apply_cnot(state, int(sel[r, 0]), int(part[r, 0]))
            ((_, walked),) = walk_block(tape, [tape.n_g])
            columns = [b[0].copy() for _, b in walk_columns(tape, [tape.n_g])]
            fused = fused_kernel_columns(tape, [tape.n_g])
            for r, state in enumerate(states):
                assert np.array_equal(block[r], state.amplitudes), (n_q, rows, r)
                assert np.array_equal(walked[r], state.amplitudes), (n_q, rows, r)
                assert np.array_equal(columns[r], fused[r]), (n_q, rows, r)
                if r < 4:
                    row = GateTape(n_q, tape.is_u2[r:r + 1], tape.qubit[r:r + 1],
                                   tape.target[r:r + 1], tape.angles[r:r + 1])
                    oracle = dense_unitary_oracle(row)[:, 0]
                    assert np.max(np.abs(block[r] - oracle)) < 1e-12, (n_q, rows, r)
                    assert np.max(np.abs(columns[r] - oracle)) < 1e-12, (n_q, rows, r)


def test_walk_block_equals_gate_by_gate_block_steps_at_any_checkpoints():
    # walk_block steps rows in groups and builds each checkpoint segment's
    # coefficients on its own: at 1, 2 and 3 row groups and at any
    # checkpoints, its last block equals block_step driven gate by gate
    # over the whole ungrouped block, bit for bit.
    n_g = 60
    for n_q, rows, groups in ((4, 700, 1), (8, 80, 2), (9, 96, 3)):
        assert -(-rows // (BLOCK_GROUP >> n_q)) == groups
        tape = draw_tape(realization_rngs(n_q, 0, rows), n_q, n_g, rows=rows)
        n = 1 << n_q
        index = np.arange(n)
        m = tape.matrices()
        block = np.zeros((rows, n), dtype=complex)
        block[:, 0] = 1.0
        for g in range(n_g):
            sel, part = tape.qubit[:, g, None], tape.target[:, g, None]
            coef = np.where(tape.is_u2[:, g, None], m[:, g].reshape(rows, 4),
                            [1, 0, 1, 0]).T[..., None]
            partner = (index ^ (1 << part)) + n * np.arange(rows)[:, None]
            block_step(block, ((index >> sel) & 1).astype(bool), partner, coef)
        for cps in ([n_g], range(1, n_g + 1), [0, 7, 31, n_g]):
            *_, (k, walked) = walk_block(tape, cps)
            assert k == len(cps) - 1
            assert np.array_equal(walked.view(np.int64), block.view(np.int64)), (n_q, cps)


def test_walk_columns_equals_walk_block_above_the_crossover():
    n_q = BLOCK_MAX_N_Q + 1
    tape = draw_tape(realization_rngs(n_q, 0, 3), n_q, 80, rows=3)
    cps = [5, 40, 80]
    blocks = {k: b.copy() for k, b in walk_block(tape, cps)}
    columns = [(k, b[0].copy()) for k, b in walk_columns(tape, cps)]
    assert len(columns) == 3 * len(cps)
    # The column walk fuses U(2) runs, so the two agree to rounding: the
    # bound oracle-check holds each walk to.
    for i, (k, column) in enumerate(columns):
        assert np.max(np.abs(column - blocks[k][i // len(cps)])) <= 1e-12, (i, k)


def random_u2s(seed, count):
    """``count`` Haar U(2)s as nested lists, as ``fuse_u2_runs`` reads them."""
    return sample_circuit(seed, 0, 1, count, 1.0).matrices()[0].tolist()


def test_fuse_u2_runs_merges_across_other_qubits_in_product_order():
    a, b, c, d = random_u2s(3, 4)
    rows = [(True, 0, 0, a), (True, 1, 1, b), (False, 1, 2, None),
            (True, 0, 0, c), (False, 2, 1, None), (True, 0, 0, d)]
    gates = fuse_u2_runs(rows)
    assert [g[:3] for g in gates] == [(True, 1, 1), (False, 1, 2), (False, 2, 1), (True, 0, 0)]
    assert gates[0][3] is b
    product = np.array(d) @ np.array(c) @ np.array(a)
    assert np.max(np.abs(np.array(gates[3][3]) - product)) < 1e-15
    # The other order is another matrix, so the check above sees the order.
    assert np.max(np.abs(np.array(a) @ np.array(c) @ np.array(d) - product)) > 1e-3


def test_fuse_u2_runs_closes_a_run_at_a_cnot_on_its_qubit():
    a, b, c = random_u2s(4, 3)
    for control, target in ((0, 1), (1, 0)):
        rows = [(True, 0, 0, a), (False, control, target, None), (True, 0, 0, b)]
        assert fuse_u2_runs(rows) == [(True, 0, 0, a), (False, control, target, None),
                                      (True, 0, 0, b)]
    # Both ends open: each is applied before the CNOT, control first.
    rows = [(True, 0, 0, a), (True, 1, 1, b), (True, 2, 2, c), (False, 1, 0, None)]
    assert fuse_u2_runs(rows) == [(True, 1, 1, b), (True, 0, 0, a), (False, 1, 0, None),
                                  (True, 2, 2, c)]


def test_walk_columns_closes_a_run_at_each_checkpoint(monkeypatch):
    import ucesim.column_sim as cs
    calls = []
    real = cs.apply_single_qubit

    def counted(state, q, m):
        calls.append(q)
        return real(state, q, m)

    monkeypatch.setattr(cs, "apply_single_qubit", counted)
    tape = sample_circuit(6, 0, 1, 4, 1.0)
    for cps, applied in (([4], 1), ([2, 4], 2), ([1, 2, 3, 4], 4)):
        calls.clear()
        columns = [b[0].copy() for _, b in walk_columns(tape, cps)]
        assert len(calls) == applied, cps
        for column, expected in zip(columns, fused_kernel_columns(tape, cps)):
            assert np.array_equal(column, expected), cps


def test_walk_columns_equals_kernels_over_its_fused_gates():
    for n_q in (3, 10, 12):
        tape = draw_tape(realization_rngs(n_q, 0, 2), n_q, 20 * n_q, rows=2)
        cps = [1, 7, 10 * n_q, 20 * n_q]
        columns = [b[0].copy() for _, b in walk_columns(tape, cps)]
        expected = fused_kernel_columns(tape, cps)
        assert len(columns) == len(expected) == 2 * len(cps)
        for i, (column, want) in enumerate(zip(columns, expected)):
            assert np.array_equal(column, want), (n_q, i)


def test_windowed_walk_equals_one_pass_per_gate(monkeypatch):
    # Blocks of at least 2**6 amplitudes, so that n_q 8-10 tapes have gates
    # on top qubits between runs of block gates; 3 threads share 4 blocks.
    import ucesim.column_sim as cs
    monkeypatch.setattr(cs, "THREAD_MIN_N_Q", 6)
    for n_q in (8, 9, 10):
        tape = draw_tape(realization_rngs(n_q, 0, 2), n_q, 30 * n_q, rows=2)
        cps = [1, 7, 10 * n_q, 30 * n_q]
        expected = fused_kernel_columns(tape, cps)
        for threads in (1, 2, 3):
            columns = [b[0].copy() for _, b in walk_columns(tape, cps, threads)]
            assert len(columns) == len(expected)
            for i, (column, want) in enumerate(zip(columns, expected)):
                assert np.array_equal(column, want), (n_q, threads, i)


def test_windowed_walk_above_sixteen_qubits_equals_one_pass_per_gate():
    n_q = THREAD_MIN_N_Q + 1
    tape = sample_circuit(n_q, 0, n_q, 40)
    cps = [5, 40]
    expected = fused_kernel_columns(tape, cps)
    for threads in (1, 2):
        columns = [b[0].copy() for _, b in walk_columns(tape, cps, threads)]
        assert len(columns) == len(expected)
        for i, (column, want) in enumerate(zip(columns, expected)):
            assert np.array_equal(column, want), (threads, i)


def test_walk_above_sixteen_qubits_applies_block_gates_on_two_threads(monkeypatch):
    # The bit tests above would also pass a walk that silently ran serial.
    import ucesim.column_sim as cs
    n_q = THREAD_MIN_N_Q + 1
    real, idents = cs._apply_gates, set()

    def recorded(states, gates):
        if all(state.n_q < n_q for state in states):
            idents.add(threading.get_ident())
        return real(states, gates)

    monkeypatch.setattr(cs, "_apply_gates", recorded)
    tape = sample_circuit(n_q, 0, n_q, 40)
    for _ in walk_columns(tape, [40], threads=2):
        pass
    assert len(idents) == 2


def test_windowed_walk_at_n_q_22_allocates_a_few_mib_per_thread():
    # Each of the two tasks (this thread and one pool thread) works on its
    # block of the column in place, through under 1 MiB of kernel scratch;
    # nothing column-sized is allocated besides the column itself.
    tape = sample_circuit(22, 0, 22, 30)
    threads = 2
    tracemalloc.start()
    try:
        for _ in walk_columns(tape, [10, 30], threads):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column = 16 << 22
    assert peak - column < threads * (2 << 20), peak - column


def test_fused_column_keeps_unit_norm():
    n_q = 12
    tape = sample_circuit(12, 0, n_q, 40 * n_q)
    ((_, column),) = walk_columns(tape, [tape.n_g])
    assert abs(np.sum(np.abs(column[0]) ** 2) - 1.0) < 1e-12


def test_simulate_matches_dense_oracle():
    tape = sample_circuit(11, 0, 3, 30)
    (snap,) = simulate_first_column(tape, [30])
    oracle = dense_unitary_oracle(tape)[:, 0]
    assert np.max(np.abs(snap.amplitudes - oracle)) < 1e-12


def test_dense_oracle_empty_is_identity():
    assert np.array_equal(dense_unitary_oracle(sample_circuit(0, 0, 2, 0)), np.eye(4))


def test_dense_oracle_single_cnot_is_permutation():
    for c, t in ((0, 1), (1, 0)):
        tape = GateTape(n_q=2, is_u2=np.zeros((1, 1), dtype=bool),
                        qubit=np.array([[c]]), target=np.array([[t]]),
                        angles=np.zeros((1, 1, 4)))
        u = dense_unitary_oracle(tape)
        assert np.array_equal(np.abs(u), np.abs(u).astype(int))
        assert np.array_equal(u.sum(axis=0).real, np.ones(4))
        assert np.array_equal(u.sum(axis=1).real, np.ones(4))
        assert not np.array_equal(u, np.eye(4))


def test_dense_oracle_unitarity():
    u = dense_unitary_oracle(sample_circuit(5, 0, 4, 40))
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12


def test_dense_oracle_guards_large_n_q():
    with pytest.raises(ValueError):
        dense_unitary_oracle(sample_circuit(0, 0, 9, 1))
    with pytest.raises(ValueError, match="one-row tape"):
        dense_unitary_oracle(draw_tape(realization_rngs(0, 0, 2), 2, 3, rows=2))


def test_norm_after_thousand_gates():
    tape = sample_circuit(77, 0, 10, 1000)
    ((_, block),) = iter_checkpoints(tape, [1000])
    assert abs(np.sum(np.abs(block[0]) ** 2) - 1.0) < 1e-10
