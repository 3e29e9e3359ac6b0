"""First-column statevector propagation with bitwise gate kernels.

Only the first column of the circuit unitary is tracked: a complex vector of
length N = 2**n_q starting at the basis state |0...0>. Index convention is
little-endian: qubit q occupies bit q of the row index.

A dense full-matrix oracle is provided for small qubit counts as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .gateset import Circuit, Gate, SingleQubitGate, u2_matrix

# Memory guard: 2**24 complex amplitudes = 256 MiB.
MAX_N_Q = 24


@dataclass
class StateColumn:
    n_q: int
    amplitudes: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def copy(self) -> "StateColumn":
        return StateColumn(self.n_q, self.amplitudes.copy())


def initial_column(n_q: int) -> StateColumn:
    """Column of the identity on |0...0>: amplitude 1 at index 0."""
    if n_q < 1:
        raise ValueError("n_q must be >= 1")
    if n_q > MAX_N_Q:
        raise ValueError(f"n_q={n_q} exceeds memory cap {MAX_N_Q}")
    amps = np.zeros(1 << n_q, dtype=complex)
    amps[0] = 1.0
    return StateColumn(n_q=n_q, amplitudes=amps)


def apply_single_qubit(state: StateColumn, q: int, m: np.ndarray) -> StateColumn:
    """Apply a 2x2 matrix on qubit q, in place.

    Each new amplitude is a linear combination of the pair that differs in
    bit q only.
    """
    if not 0 <= q < state.n_q:
        raise IndexError(f"qubit {q} out of range for n_q={state.n_q}")
    a = state.amplitudes.reshape(-1, 2, 1 << q)
    a0 = a[:, 0, :]
    a1 = a[:, 1, :]
    new0 = m[0, 0] * a0 + m[0, 1] * a1
    new1 = m[1, 0] * a0 + m[1, 1] * a1
    a[:, 0, :] = new0
    a[:, 1, :] = new1
    return state


def apply_cnot(state: StateColumn, c: int, t: int) -> StateColumn:
    """Exchange the 2**(n_q-2) amplitude pairs with control bit 1, in place.

    The column is viewed as (high bits, bit hi, middle bits, bit lo, low
    bits) with hi/lo the larger/smaller of c and t; the control-bit-1 slice
    is reversed along the target axis. The only extra memory is numpy's
    temporary copy of that slice, half the column.
    """
    if c == t:
        raise ValueError("CNOT control and target must differ")
    if not (0 <= c < state.n_q and 0 <= t < state.n_q):
        raise IndexError("CNOT qubit index out of range")
    lo, hi = (t, c) if c > t else (c, t)
    a = state.amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if c > t:
        a[:, 1] = a[:, 1, :, ::-1]
    else:
        a[:, :, :, 1] = a[:, ::-1, :, 1]
    return state


def apply_gate(state: StateColumn, gate: Gate) -> StateColumn:
    if isinstance(gate, SingleQubitGate):
        return apply_single_qubit(state, gate.qubit, u2_matrix(gate.angles))
    return apply_cnot(state, gate.control, gate.target)


def iter_checkpoints(n_q: int, gates, checkpoints):
    """Propagate |0...0> through ``gates``, yielding the column at each checkpoint.

    Checkpoints are gate counts; a single pass through the gates serves all
    of them (prefix reuse), and no gate is drawn after the last one. The
    column is yielded live, not copied: it changes in place as the caller
    resumes the generator.
    """
    cps = list(checkpoints)
    if any(b <= a for a, b in zip([-1, *cps], cps)):
        raise ValueError("checkpoints must be strictly increasing and >= 0")
    state = initial_column(n_q)
    gates = iter(gates)
    done = 0
    for cp in cps:
        for gate in islice(gates, cp - done):
            apply_gate(state, gate)
            done += 1
        if done < cp:
            raise ValueError(f"gate stream ended before checkpoint {cp}")
        yield state


def simulate_first_column(circuit: Circuit, checkpoints) -> list[StateColumn]:
    """Snapshots of the first column at each checkpoint (gate count)."""
    cps = list(checkpoints)
    if cps and cps[-1] > circuit.n_g:
        raise ValueError(f"checkpoint {cps[-1]} exceeds n_g={circuit.n_g}")
    return [s.copy() for s in iter_checkpoints(circuit.n_q, circuit.gates, cps)]


def gate_matrix_full(gate: Gate, n_q: int) -> np.ndarray:
    """Dense 2**n_q operator for one gate (oracle path only)."""
    n = 1 << n_q
    if isinstance(gate, SingleQubitGate):
        m = u2_matrix(gate.angles)
        return np.kron(np.kron(np.eye(1 << (n_q - 1 - gate.qubit)), m),
                       np.eye(1 << gate.qubit))
    full = np.zeros((n, n), dtype=complex)
    for i in range(n):
        j = i ^ (1 << gate.target) if (i >> gate.control) & 1 else i
        full[j, i] = 1.0
    return full


def dense_unitary_oracle(circuit: Circuit) -> np.ndarray:
    """Full circuit unitary by dense matrix multiplication; n_q <= 8 only."""
    if circuit.n_q > 8:
        raise ValueError("dense oracle limited to n_q <= 8")
    u = np.eye(1 << circuit.n_q, dtype=complex)
    for gate in circuit.gates:
        u = gate_matrix_full(gate, circuit.n_q) @ u
    return u
