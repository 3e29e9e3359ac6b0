"""First-column statevector propagation with bitwise gate kernels.

Only the first column of the circuit unitary is tracked: a complex vector of
length N = 2**n_q starting at the basis state |0...0>. Index convention is
little-endian: qubit q occupies bit q of the row index.

Realizations are read from a ``GateTape``. Small columns advance a whole
block of realizations per gate with one uniform step (``block_step``);
large ones go one column at a time through the in-place kernels, which walk
the column in cache-sized slabs and allocate O(slab), not O(column). The
column walk first multiplies each run of U(2)s on one qubit into one 2x2
matrix (``fuse_u2_runs``), so it applies fewer, and its columns agree with
the block walk's to rounding, not bit for bit. Above ``THREAD_MIN_N_Q``
qubits it splits the column into contiguous blocks shared across threads,
with the same bits as one pass per gate.

A dense full-matrix oracle is provided for small qubit counts as an
independent cross-check.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from itertools import groupby, islice

import numpy as np

from .gateset import GateTape, check_checkpoints, check_n_q

# Up to this qubit count a batch of realizations advances as one (R, N)
# block; above it the per-column kernels are faster (measured crossover, see
# ROADMAP, "Measurements that the code points to"; measured before the column
# walk fused U(2) runs).
BLOCK_MAX_N_Q = 9
# Most amplitudes (rows x N) that walk_block steps at once, and amplitude
# pairs per slab of the column kernels: 2**14 complex values are 256 KiB per
# work array, which stays within a 2 MiB L2 cache.
BLOCK_GROUP = 1 << 14
# The column walk runs threads only above this many qubits, over contiguous
# blocks of at least 2**THREAD_MIN_N_Q amplitudes (1 MiB). Threads that split
# each gate were slower at n_q 16 (ROADMAP, "Measurements that the code
# points to").
THREAD_MIN_N_Q = 16
# block_step coefficients (m00, m01, m10, m11) of a CNOT: keep a_i where the
# control bit is 0, take the partner where it is 1.
_CNOT_COEF = np.array([1, 0, 1, 0], dtype=complex)


@dataclass
class StateColumn:
    n_q: int
    amplitudes: np.ndarray


def initial_column(n_q: int) -> StateColumn:
    """Column of the identity on |0...0>: amplitude 1 at index 0."""
    check_n_q(n_q)
    amps = np.zeros(1 << n_q, dtype=complex)
    amps[0] = 1.0
    return StateColumn(n_q=n_q, amplitudes=amps)


def _slabs(view: np.ndarray, size: int):
    """Yield ``view`` cut into equal pieces of at most ``size`` elements, in
    C order: runs of whole leading rows where one row fits, else the pieces
    of each row (all sizes are powers of two)."""
    if view.size <= size:
        yield view
    elif view[0].size <= size:
        step = size // view[0].size
        for lo in range(0, len(view), step):
            yield view[lo:lo + step]
    else:
        for row in view:
            yield from _slabs(row, size)


def apply_single_qubit(state: StateColumn, q: int, m: np.ndarray | list) -> StateColumn:
    """Apply a 2x2 matrix ``m`` (an array, or nested lists of its entries)
    on qubit q, in place.

    Each new amplitude is a linear combination of the pair that differs in
    bit q only. The column, viewed as (rows, 2, 2**q), is walked in slabs of
    ``BLOCK_GROUP`` pairs through three slab-sized scratch buffers allocated
    once per call: contiguous pieces where 2**q spans a slab, (rows, 2**q)
    views otherwise, and for q < 3 one strided 1-D view per low offset j
    (numpy runs a 2-D view's inner loop once per row of 2**q elements). A
    column of one slab gets one pass per ufunc.

    Per slab, c = m00 a0 + m01 a1 and a1 = m10 a0 + m11 a1, then a0 = c: the
    products and sums of ``block_step``, so both give the same bits. Two
    rules keep them: the scalar goes first (``a * m`` can differ from
    ``m * a`` in the last bit), and no product is written into one of its
    inputs (an in-place product can differ too), hence the third buffer.
    """
    if not 0 <= q < state.n_q:
        raise IndexError(f"qubit {q} out of range for n_q={state.n_q}")
    (m00, m01), (m10, m11) = m.tolist() if isinstance(m, np.ndarray) else m
    slab = BLOCK_GROUP
    a = state.amplitudes.reshape(-1, 2, 1 << q)
    if q < 3 and a.shape[0] << q > slab:
        a = a.reshape(-1, slab >> q, 2, 1 << q).transpose(0, 3, 2, 1)
        slab >>= q
    a0, a1 = a[..., 0, :], a[..., 1, :]
    scratch = np.empty((3, *next(_slabs(a0, slab)).shape), dtype=complex)
    b, c, d = scratch[0], scratch[1], scratch[2]
    for x0, x1 in zip(_slabs(a0, slab), _slabs(a1, slab)):
        np.multiply(m00, x0, c)
        np.multiply(m01, x1, b)
        c += b
        np.multiply(m10, x0, b)
        np.multiply(m11, x1, d)
        np.add(b, d, x1)
        x0[...] = c
    return state


def apply_cnot(state: StateColumn, c: int, t: int) -> StateColumn:
    """Exchange the 2**(n_q-2) amplitude pairs with control bit 1, in place.

    The column is viewed as (high bits, bit hi, middle bits, bit lo, low
    bits) with hi/lo the larger/smaller of c and t; the control-bit-1 slice
    is reversed along the target axis one slab of ``2 * BLOCK_GROUP``
    amplitudes at a time, so numpy's temporary copy of the source is one
    slab, not half the column.
    """
    if c == t:
        raise ValueError("CNOT control and target must differ")
    if not (0 <= c < state.n_q and 0 <= t < state.n_q):
        raise IndexError("CNOT qubit index out of range")
    lo, hi = (t, c) if c > t else (c, t)
    a = state.amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    # The control-bit-1 slice, target axis last so that a slab holds whole pairs.
    z = a[:, 1].transpose(0, 1, 3, 2) if c > t else a[:, :, :, 1].transpose(0, 2, 3, 1)
    for p in _slabs(z, 2 * BLOCK_GROUP):
        p[...] = p[..., ::-1]
    return state


def block_step(amps: np.ndarray, upper: np.ndarray, partner: np.ndarray,
               coef: np.ndarray) -> np.ndarray:
    """Apply one gate to every row of an (R, N) block of columns, in place.

    a_i <- d a_i + o a_j with j = ``partner`` (flat index into ``amps``) and
    (d, o) = (m11, m10) where ``upper`` is set, else (m00, m01); ``coef``
    holds the 2x2 matrix entries (m00, m01, m10, m11), each of shape (R, 1).
    A U(2) m on qubit q selects on bit q, pairs i with i ^ (1 << q) and
    takes m; a CNOT(c, t) selects on bit c, pairs i with i ^ (1 << t) and
    takes (1, 0, 1, 0). Each new amplitude is the same two products, summed,
    as in ``apply_single_qubit``/``apply_cnot``, so the columns agree bit
    for bit.
    """
    m00, m01, m10, m11 = coef
    d = np.where(upper, m11, m00)
    o = np.where(upper, m10, m01)
    np.multiply(d, amps, out=d)
    np.multiply(o, amps.take(partner), out=o)
    return np.add(d, o, out=amps)


def walk_block(tape: GateTape, checkpoints):
    """Advance all R realizations of ``tape`` together, one ``block_step``
    per gate, yielding (checkpoint index, live (R, N) block).

    Between checkpoints the rows go in groups of at most ``BLOCK_GROUP``
    amplitudes, so that a step's arrays stay in cache.
    """
    n_q, rows = tape.n_q, tape.is_u2.shape[0]
    index = np.arange(1 << n_q)
    bit = np.arange(n_q)[:, None]
    upper = ((index >> bit) & 1).astype(bool)  # upper[s, i]: bit s of i
    flipped = index ^ (1 << bit)               # flipped[t, i] = i ^ (1 << t)
    sel, part = tape.qubit.T, tape.target.T
    amps = np.zeros((rows, 1 << n_q), dtype=complex)
    amps[:, 0] = 1.0
    group = max(1, BLOCK_GROUP >> n_q)
    offsets = np.arange(min(group, rows))[:, None] << n_q
    done = 0
    for k, cp in enumerate(checkpoints):
        # The segment's 2x2 matrices, built once: (cp - done, 4, R, 1).
        gates = np.s_[:, done:cp]
        coef = tape.matrices(gates).reshape(rows, -1, 4)
        coef[~tape.is_u2[gates]] = _CNOT_COEF
        coef = coef.transpose(1, 2, 0)[..., None]
        for lo in range(0, rows, group):
            rs = slice(lo, lo + group)
            block = amps[rs]
            for g in range(done, cp):
                block_step(block, upper[sel[g, rs]],
                           flipped[part[g, rs]] + offsets[:len(block)], coef[g - done, :, rs])
        done = cp
        yield k, amps


def _matmul2(a, b):
    """The 2x2 product a @ b of nested lists, in Python complex arithmetic
    (its bits do not depend on the BLAS build)."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return [[a00 * b00 + a01 * b10, a00 * b01 + a01 * b11],
            [a10 * b00 + a11 * b10, a10 * b01 + a11 * b11]]


def fuse_u2_runs(rows) -> list:
    """The gates ``rows`` (is_u2, qubit, target, m) with each run of U(2)s
    on one qubit multiplied into one (m_last ... m_first), m as nested lists.

    A run lasts while no gate between its U(2)s touches the qubit: a CNOT
    with it as control or target ends it, and the run is applied just
    before that CNOT; runs still open at the end follow in the order they
    were opened. The gates returned make the same operator as ``rows``, up
    to rounding.
    """
    gates, open_runs = [], {}
    for u2, q, t, m in rows:
        if u2:
            run = open_runs.get(q)
            open_runs[q] = m if run is None else _matmul2(m, run)
        else:
            gates.extend((True, s, s, open_runs.pop(s)) for s in (q, t) if s in open_runs)
            gates.append((False, q, t, None))
    gates.extend((True, s, s, m) for s, m in open_runs.items())
    return gates


def _apply_gates(states, gates):
    """Apply ``gates`` to each of ``states`` in turn."""
    for state in states:
        for u2, q, t, m in gates:
            if u2:
                apply_single_qubit(state, q, m)
            else:
                apply_cnot(state, q, t)


def _apply_blocks(state: StateColumn, gates, blocks, pool, threads: int):
    """Apply ``gates`` to ``state``, whose amplitudes ``blocks`` cut into
    contiguous pieces. Each maximal run of gates on qubits below
    ``blocks[0].n_q`` goes to every block, block i to task i % ``threads``:
    task 0 in this thread, the others on ``pool``. A gate on a higher qubit
    goes to the whole column in this thread."""
    size = blocks[0].n_q
    for low, run in groupby(gates, key=lambda gate: max(gate[1], gate[2]) < size):
        run = list(run)
        if not low:
            _apply_gates([state], run)
            continue
        tasks = [pool.submit(_apply_gates, blocks[i::threads], run) for i in range(1, threads)]
        _apply_gates(blocks[::threads], run)
        for task in tasks:
            task.result()


def walk_columns(tape: GateTape, checkpoints, threads: int = 1):
    """Advance the realizations of ``tape`` one after another through the
    in-place slab kernels, yielding (checkpoint index, live (1, N) view of
    the one column held). Between two checkpoints, each run of U(2)s on one
    qubit is applied as one matrix (``fuse_u2_runs``).

    Every segment goes through ``_apply_blocks``: the column is cut into
    2**b contiguous blocks for up to ``threads`` threads, b = (threads -
    1).bit_length(), one block at or below ``THREAD_MIN_N_Q`` qubits. Each
    run of gates below the top b qubits goes to every block in place. The
    same kernels apply the same products at the same qubit positions, so
    the columns do not depend on the thread count.
    """
    n_q = tape.n_q
    threads = max(1, min(threads, 1 << max(0, n_q - THREAD_MIN_N_Q)))
    size = n_q - (threads - 1).bit_length()
    with ExitStack() as stack:
        pool = None
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor
            pool = stack.enter_context(ThreadPoolExecutor(threads - 1))
        for r in range(tape.is_u2.shape[0]):
            rows = zip(tape.is_u2[r].tolist(), tape.qubit[r].tolist(),
                       tape.target[r].tolist(), map(np.ndarray.tolist, tape.matrices(r)))
            state = initial_column(n_q)
            blocks = [StateColumn(size, a) for a in state.amplitudes.reshape(-1, 1 << size)]
            done = 0
            for k, cp in enumerate(checkpoints):
                gates = fuse_u2_runs(islice(rows, cp - done))
                _apply_blocks(state, gates, blocks, pool, threads)
                done = cp
                yield k, state.amplitudes[None]


def iter_checkpoints(tape: GateTape, checkpoints, threads: int = 1):
    """Propagate |0...0> through each realization of ``tape``, yielding
    (checkpoint index, block) with block the (r, N) columns of some of the
    realizations at that checkpoint (a gate count).

    Up to ``BLOCK_MAX_N_Q`` qubits all R realizations advance together and
    each checkpoint is yielded once (``walk_block``); above it one column at
    a time is held and each checkpoint is yielded once per realization
    (``walk_columns``, which uses up to ``threads`` threads above
    ``THREAD_MIN_N_Q`` qubits). A single pass through the gates serves all
    checkpoints (prefix reuse), and gates past the last one are not applied.
    Blocks are live, not copied: they change as the caller resumes.
    """
    check_n_q(tape.n_q)
    cps = check_checkpoints(checkpoints)
    if cps and cps[-1] > tape.n_g:
        raise ValueError(f"checkpoint {cps[-1]} exceeds n_g={tape.n_g}")
    if tape.n_q <= BLOCK_MAX_N_Q:
        return walk_block(tape, cps)
    return walk_columns(tape, cps, threads)


def simulate_first_column(tape: GateTape, checkpoints) -> list[StateColumn]:
    """Snapshots of a one-row tape's first column at each checkpoint (gate
    count)."""
    return [StateColumn(tape.n_q, block[0].copy())
            for _, block in iter_checkpoints(tape, checkpoints)]


def gate_matrix_full(n_q: int, is_u2: bool, qubit: int, target: int,
                     m: np.ndarray | None = None) -> np.ndarray:
    """Dense 2**n_q operator of one tape row: the U(2) ``m`` on ``qubit``,
    or CNOT(qubit -> target) (oracle path only)."""
    n = 1 << n_q
    if is_u2:
        return np.kron(np.kron(np.eye(1 << (n_q - 1 - qubit)), m), np.eye(1 << qubit))
    full = np.zeros((n, n), dtype=complex)
    for i in range(n):
        j = i ^ (1 << target) if (i >> qubit) & 1 else i
        full[j, i] = 1.0
    return full


def dense_unitary_oracle(tape: GateTape) -> np.ndarray:
    """Full unitary of a one-row tape by dense matrix multiplication; n_q <= 8
    only."""
    if tape.n_q > 8:
        raise ValueError("dense oracle limited to n_q <= 8")
    if tape.is_u2.shape[0] != 1:
        raise ValueError("dense oracle takes a one-row tape")
    u = np.eye(1 << tape.n_q, dtype=complex)
    for row in zip(tape.is_u2[0].tolist(), tape.qubit[0].tolist(), tape.target[0].tolist(),
                   tape.matrices()[0]):
        u = gate_matrix_full(tape.n_q, *row) @ u
    return u
