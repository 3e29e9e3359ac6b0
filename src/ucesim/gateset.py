"""Random circuit ensemble gate sampling.

Circuits mix Haar-random U(2) single-qubit gates (probability ``p_g``) with
CNOTs on uniformly chosen ordered qubit pairs (probability ``1 - p_g``).
All randomness flows through numpy Generators derived deterministically from
a 64-bit master seed and a realization index, so ensembles are reproducible
independent of execution order. A realization's stream is numpy's
``SeedSequence(master_seed, spawn_key=(index,))`` feeding PCG64. The
runner's contiguous ranges of one-word (< 2**32) indices get their PCG64
states at once from ``pcg64_states``; any other single stream is numpy's
own (``realization_rng``).

A realization's gates are drawn as one ``GateTape`` row (``draw_tape``),
and the tape is the one circuit format: ``sample_gate`` is a one-gate tape,
a circuit (``sample_circuit``) is a one-row tape, and the runner reads the
same draws. Haar angles come from ``haar_angles`` and every U(2) matrix
from the one vectorized formula ``u2_matrices``, phase times ``su2_entries``.
``STREAM_VERSION`` names this draw layout, and the column walk's arithmetic
on it, in run manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Memory guard: 2**24 complex amplitudes = 256 MiB.
MAX_N_Q = 24
# Version of the random-draw layout and of the column walk's arithmetic on
# it (3: column_sim fuses runs of same-qubit U(2)s); a change to either
# changes output bits.
STREAM_VERSION = 3
# Uniforms per tape row: kind, qubit/control, target, alpha, psi, chi, xi.
TAPE_COLUMNS = 7
# Realizations whose uniforms draw_tape holds at once.
DRAW_ROWS = 64

# numpy's SeedSequence (pool of 4 uint32 words, hash and mix multipliers)
# and PCG64's 128-bit LCG multiplier, which pcg64_states reproduces.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def check_n_q(n_q: int):
    """The qubit counts a column can be built for: 1 to ``MAX_N_Q``."""
    if n_q < 1:
        raise ValueError(f"n_q={n_q} must be >= 1")
    if n_q > MAX_N_Q:
        raise ValueError(f"n_q={n_q} exceeds memory cap {MAX_N_Q}")


def check_checkpoints(checkpoints) -> tuple:
    """``checkpoints`` as a tuple, checked to be gate counts that strictly
    increase from 0 or more (none at all is allowed here)."""
    cps = tuple(checkpoints)
    if any(b <= a for a, b in zip((-1, *cps), cps)):
        raise ValueError("checkpoints must be strictly increasing and >= 0")
    return cps


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one convergence run at fixed qubit count, all checked here.

    The realization count is either explicit (``n_r``) or derived from the
    sizing rule n_r = a * 2**(b - n_q), whichever is given.
    """

    n_q: int
    checkpoints: tuple
    master_seed: int
    p_g: float = 0.5
    n_r: int | None = None
    sizing: tuple | None = (10, 20)

    def __post_init__(self):
        check_n_q(self.n_q)
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0.0 <= self.p_g <= 1.0:
            raise ValueError(f"p_g must be in [0, 1], got {self.p_g}")
        if not check_checkpoints(self.checkpoints):
            raise ValueError("need at least one checkpoint")
        if self.n_r is not None and self.n_r < 1:
            raise ValueError(f"n_r must be >= 1, got {self.n_r}")
        if self.n_r is None and (self.sizing is None or self.sizing[0] < 1):
            raise ValueError(f"need n_r or a sizing rule (a, b) with a >= 1, got {self.sizing}")
        # Streams take one-word indices; b - n_q > 32 is too many for any a.
        if (self.n_r is None and int(self.sizing[1]) - self.n_q > 32
                or self.resolved_n_r() > 1 << 32):
            raise ValueError(f"n_r={self.n_r}, sizing={self.sizing} at n_q={self.n_q} "
                             "asks for more than 2**32 realizations")

    def resolved_n_r(self) -> int:
        if self.n_r is not None:
            return self.n_r
        a, b = self.sizing
        return int(a) * 2 ** max(0, int(b) - self.n_q)

    @property
    def max_gates(self) -> int:
        return max(self.checkpoints)


def _hash_steps(init: int, mult: int, first: int, count: int) -> list:
    """(xor, mult) of SeedSequence's hashmix calls first..first+count-1: its
    hash constant before and after each call's update, where call k's update
    leaves init * mult**(k + 1) mod 2**32."""
    consts = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + count + 1)]
    return list(zip(consts, consts[1:]))


def _hash(value, xor: int, mult: int):
    """One hashmix of numpy's SeedSequence on a uint32 array: xor, multiply
    modulo 2**32, then fold the high half in."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two uint32 words."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def pcg64_states(master_seed: int, start: int, stop: int) -> list:
    """PCG64 ``(state, inc)`` of realizations start..stop-1, one-word
    indices with 0 <= start <= stop <= 2**32: the state of
    ``np.random.default_rng(np.random.SeedSequence(entropy=master_seed,
    spawn_key=(i,)))``, computed for the whole range at once.

    SeedSequence hashes its entropy words (the seed's, zero-padded to the
    pool size, then the index's) into a 4-word pool with hash constants that
    do not depend on the data. The pool after the seed's words is numpy's
    own ``SeedSequence(master_seed).pool``, made with 4 * max(4, seed words)
    hash steps; the index word takes 4 more, as uint32 array operations
    over the range. ``generate_state(4, uint64)`` of the pool is PCG64's
    (seed, sequence), and PCG64's srandom is two steps of its 128-bit LCG.
    """
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"realizations [{start}, {stop}) are not one-word indices")
    pool = np.random.SeedSequence(master_seed).pool
    seed_words = -(-master_seed.bit_length() // 32)
    index_steps = _hash_steps(_INIT_A, _MULT_A, _POOL * max(_POOL, seed_words), _POOL)
    # generate_state reads 8 words cyclically from the pool and pairs them
    # little-endian into uint64s: seed high, seed low, sequence high and low.
    state_steps = _hash_steps(_INIT_B, _MULT_B, 0, 8)
    word = np.arange(start, stop, dtype=np.uint32)
    mixer = [_mix(np.full_like(word, p), _hash(word, *step)) for p, step in zip(pool, index_steps)]
    out = [_hash(mixer[j % _POOL], *state_steps[j]).astype(np.uint64) for j in range(8)]
    halves = [(out[j] | out[j + 1] << np.uint64(32)).tolist() for j in range(0, 8, 2)]
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*halves):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def realization_rngs(master_seed: int, start: int, stop: int):
    """Yield the stream of each realization start..stop-1 in turn, as one
    shared Generator re-seeded from ``pcg64_states`` before each yield: a
    stream is valid until the next one is taken."""
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    for state, inc in pcg64_states(master_seed, start, stop):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


def realization_rng(master_seed: int, realization_index: int) -> np.random.Generator:
    """Deterministic per-realization random stream, a Generator of its own:
    numpy's ``default_rng(SeedSequence(master_seed, spawn_key=(index,)))``
    at any index, which ``realization_rngs`` yields for one-word indices."""
    return np.random.default_rng(np.random.SeedSequence(master_seed,
                                                        spawn_key=(realization_index,)))


def su2_entries(psi, chi, phi, out=None) -> np.ndarray:
    """Entries [[c e^{i psi}, s e^{i chi}], [-s e^{-i chi}, c e^{-i psi}]],
    c = cos phi and s = sin phi, of the phase-free part e^{-i alpha} u of
    ``u2_matrices``, for arrays of angles: shape (2, 2, ...), each entry
    contiguous unless written to ``out``."""
    psi, chi, phi = np.broadcast_arrays(psi, chi, phi)
    c, s = np.cos(phi), np.sin(phi)
    e_psi, e_chi = np.exp(1j * psi), np.exp(1j * chi)
    e = np.empty((2, 2) + phi.shape, dtype=complex) if out is None else out
    e[0, 0] = c * e_psi
    e[0, 1] = s * e_chi
    e[1, 0] = -s * e_chi.conj()
    e[1, 1] = c * e_psi.conj()
    return e


def u2_matrices(alpha, psi, chi, phi) -> np.ndarray:
    """Matrices e^{i alpha} ``su2_entries(psi, chi, phi)`` for arrays of
    angles, the entries moved last: shape (..., 2, 2)."""
    alpha, psi, chi, phi = np.broadcast_arrays(alpha, psi, chi, phi)
    u = np.empty(phi.shape + (2, 2), dtype=complex)
    su2_entries(psi, chi, phi, out=np.moveaxis(u, (-2, -1), (0, 1)))
    u *= np.exp(1j * alpha)[..., None, None]
    return u


def u2_matrix(angles) -> np.ndarray:
    """The 2x2 unitary of one gate's angles (alpha, psi, chi, phi)."""
    return u2_matrices(*angles)


def haar_angles(u, out=None) -> np.ndarray:
    """Angles (alpha, psi, chi, phi) of Haar U(2)s from their uniforms
    (..., 4): alpha, psi, chi = 2*pi*u and phi = arcsin(sqrt(xi)), the last
    four of a tape row's seven (written to ``out`` if given)."""
    out = np.empty(np.shape(u)) if out is None else out
    np.multiply(u[..., :3], 2.0 * math.pi, out=out[..., :3])
    np.arcsin(np.sqrt(u[..., 3:]), out=out[..., 3:])
    return out


@dataclass(frozen=True, eq=False)
class GateTape:
    """The gates of R realizations as (R, n_g) arrays, one row per realization.

    ``is_u2`` marks Haar U(2) gates (the rest are CNOTs). ``qubit`` is the
    U(2) qubit or the CNOT control; ``target`` is the CNOT target and equals
    ``qubit`` on U(2) rows. ``angles`` (R, n_g, 4) holds alpha, psi, chi,
    phi on U(2) rows and zeros on CNOT rows.
    """

    n_q: int
    is_u2: np.ndarray
    qubit: np.ndarray
    target: np.ndarray
    angles: np.ndarray

    @property
    def n_g(self) -> int:
        return self.is_u2.shape[1]

    def matrices(self, index=np.s_[:, :]) -> np.ndarray:
        """(R, n_g, 2, 2) U(2) matrices, or those of the gates ``index``
        selects from the (R, n_g) grid; zero on CNOT rows. A gate's matrix
        does not depend on which others are built with it."""
        is_u2 = self.is_u2[index]
        m = np.zeros(is_u2.shape + (2, 2), dtype=complex)
        m[is_u2] = u2_matrices(*self.angles[index][is_u2].T)
        return m


def draw_tape(rngs, n_q: int, n_g: int, p_g: float = 0.5, rows: int | None = None) -> GateTape:
    """Tape of n_g gates for each generator in ``rngs``, one realization each.

    ``rngs`` is read lazily, one generator per row just before its draw, so
    it may yield one shared Generator re-seeded per realization
    (``realization_rngs``); an iterable without a length gives its count as
    ``rows``.

    Each realization takes one ``rng.random((n_g, 7))`` draw; row g holds
    the uniforms of gate g: kind (U(2) if < p_g, always for n_q = 1),
    qubit or control, target (a uniform pick among the other n_q - 1
    qubits), then the four uniforms that ``haar_angles`` turns into the
    angles of a Haar U(2).
    Drawing more gates extends the tape without changing its prefix.
    The tape's arrays are allocated once and filled ``DRAW_ROWS``
    realizations at a time, so the uniforms held are one such block.
    """
    if n_q < 1:
        raise ValueError("n_q must be >= 1")
    if n_g < 0:
        raise ValueError("n_g must be >= 0")
    if rows is None:
        rows = len(rngs)
    if rows < 1:
        raise ValueError("need at least one generator")
    rngs = iter(rngs)
    is_u2 = np.ones((rows, n_g), dtype=bool)
    qubit = np.empty((rows, n_g), dtype=np.intp)
    target = np.empty((rows, n_g), dtype=np.intp)
    angles = np.empty((rows, n_g, 4))
    uniforms = np.empty((min(rows, DRAW_ROWS), n_g, TAPE_COLUMNS))
    for lo in range(0, rows, DRAW_ROWS):
        u = uniforms[:min(DRAW_ROWS, rows - lo)]
        drawn = 0
        for drawn, (row, rng) in enumerate(zip(u, rngs), 1):
            rng.random(out=row)
        if drawn < len(u):
            raise ValueError(f"rngs gave {lo + drawn} generators, fewer than rows={rows}")
        rs = np.s_[lo:lo + len(u)]
        if n_q > 1:
            np.less(u[..., 0], p_g, out=is_u2[rs])
        qubit[rs] = u[..., 1] * n_q
        target[rs] = u[..., 2] * (n_q - 1)
        target[rs] += target[rs] >= qubit[rs]
        np.copyto(target[rs], qubit[rs], where=is_u2[rs])
        haar_angles(u[..., 3:], out=angles[rs])
        angles[rs] *= is_u2[rs, :, None]
    return GateTape(n_q=n_q, is_u2=is_u2, qubit=qubit, target=target, angles=angles)


def sample_gate(rng: np.random.Generator, n_q: int, p_g: float) -> GateTape:
    """Draw one gate as a one-gate tape: U(2) with probability p_g, else CNOT
    on an ordered pair. For n_q = 1 a single-qubit gate is forced."""
    return draw_tape([rng], n_q, 1, p_g)


def sample_u2_angles(rng: np.random.Generator) -> np.ndarray:
    """Draw (alpha, psi, chi, phi) of a Haar U(2) from one tape row's uniforms."""
    return haar_angles(rng.random(TAPE_COLUMNS)[3:])


def sample_circuit(master_seed: int, realization_index: int, n_q: int, n_g: int,
                   p_g: float = 0.5) -> GateTape:
    """One realization's one-row tape; extending n_g preserves the gate prefix."""
    return draw_tape([realization_rng(master_seed, realization_index)], n_q, n_g, p_g)


def circuit_to_text(tape: GateTape, master_seed: int, realization_index: int) -> str:
    """Line-oriented serialization of a one-row tape under a header naming
    its seed lineage, from which ``sample_circuit`` rebuilds it; floats carry
    17 significant digits."""
    lines = [f"nq={tape.n_q} seed={master_seed} idx={realization_index}"]
    for u2, q, target, a in zip(tape.is_u2[0].tolist(), tape.qubit[0].tolist(),
                                tape.target[0].tolist(), tape.angles[0].tolist()):
        lines.append("U2 q=%d alpha=%.17g psi=%.17g chi=%.17g phi=%.17g" % (q, *a)
                     if u2 else f"CNOT c={q} t={target}")
    return "\n".join(lines) + "\n"
